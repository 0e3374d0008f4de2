//! The edge-union candidate-bag enumerator.
//!
//! For a search state `(C, conn)` the exact `ghw`/`fhw` engines used to
//! propose every vertex subset `conn ⊆ B ⊆ conn ∪ C` — `O(2^|C|)` bags,
//! the wall behind the old 18-vertex gate. This module instead streams
//! bags `⋃S ∩ (C ∪ conn)` for sets `S` of at most `k` edges: a cover
//! with its bag enlarged to everything it touches inside the region.
//! That is det-k's HD normal form (Gottlob–Leone–Scarcello; the
//! candidate discipline of HyperBench's BalancedGo), and it makes the
//! space `O(m^k)` in the edge count instead of `O(2^n)` in the vertex
//! count. Every width-`k` HD normalizes to it; a GHD need not, since
//! the enlargement can break connectedness below the node, so the form
//! is complete for GHDs only at `k = 1` (see `solver::exact`, which
//! searches it only past the elimination DP's window).
//!
//! The stream applies, in order, per generated union:
//!
//! 1. **Deduplication** — distinct edge sets with equal region unions
//!    yield one bag (the pool is also pre-reduced to distinct,
//!    restriction-*maximal* edge restrictions: an edge whose restriction
//!    is contained in another's can be substituted in any cover without
//!    raising its size, so dropping it loses no normal-form bag);
//! 2. **Connector / progress filters** — `conn ⊆ bag` and
//!    `bag ∩ C ≠ ∅`, the engine's admission preconditions, checked here
//!    so hopeless unions never reach pricing;
//! 3. **Hoisted pre-pricing gates** — the caller's `gate` predicate
//!    (the strategies pass their rank/scattered-set lower bounds against
//!    the seeded cutoff), rejecting bags that could never beat the bound;
//! 4. **Balanced-separator filtering** — at *connector-free* states only
//!    (where any decomposition fragment can be re-rooted at a centroid
//!    node, so the restriction is complete), bags whose largest surviving
//!    component of `C` exceeds the configured fraction are discarded,
//!    BalancedGo-style.
//!
//! Unions are enumerated by increasing edge count (single restrictions
//! first), lexicographic within a count — the cheap-candidates-first
//! discipline every minimizer wants, since an early success arms all
//! later gates.

use crate::Counters;
use hypergraph::fx::FxHashSet;
use hypergraph::{components, Hypergraph, VertexSet};

/// Configuration of one edge-union stream.
#[derive(Clone, Debug)]
pub struct EdgeUnionConfig {
    /// Maximum number of edges per union. For an exact `ghw` search that
    /// only needs to beat a bound `b`, `b - 1` is complete (any GHD of
    /// width `< b` normalizes to unions of `< b` edges).
    pub max_edges: usize,
    /// Balanced-separator filter as a fraction `num/den` of the component
    /// size, applied at connector-free states only (`None` disables).
    /// [`DEFAULT_BALANCE`] is the `1/2` centroid bound, which is complete.
    pub balance: Option<(usize, usize)>,
}

/// The complete balancedness fraction: every decomposition fragment has a
/// node whose bag splits the covered component into pieces of at most
/// half its vertices (centroid argument), so `1/2` filtering at
/// connector-free states loses no decomposition.
pub const DEFAULT_BALANCE: (usize, usize) = (1, 2);

impl EdgeUnionConfig {
    /// A config with the given edge budget and the complete `1/2`
    /// balancedness filter.
    pub fn with_budget(max_edges: usize) -> Self {
        EdgeUnionConfig {
            max_edges,
            balance: Some(DEFAULT_BALANCE),
        }
    }
}

/// The default saturation cap for [`stream_size_bound`]. Past the
/// elimination DP's window, the exact minimizer (`solver::exact`, under
/// `ρ`) sends a block to the edge-union engine only while the block's
/// bound stays below it, and otherwise answers `None`.
pub const DEFAULT_STREAM_CAP: u64 = 50_000;

/// Number of non-empty subsets of a `pool`-element set with at most
/// `max_edges` elements, saturating at `cap` — the feasibility estimate
/// `solver::exact` gates the edge-union engine on past the elimination
/// DP's window.
pub fn stream_size_bound(pool: usize, max_edges: usize, cap: u64) -> u64 {
    let mut total: u64 = 0;
    let mut binom: u64 = 1;
    for i in 1..=max_edges.min(pool) {
        // binom = C(pool, i), built incrementally with saturation.
        binom = match binom
            .checked_mul((pool - i + 1) as u64)
            .map(|b| b / i as u64)
        {
            Some(b) => b,
            None => return cap,
        };
        total = total.saturating_add(binom);
        if total >= cap {
            return cap;
        }
    }
    total
}

/// The deduplicated, restriction-maximal edge pool of a region: for every
/// original edge intersecting `region`, its restriction to the region,
/// keeping one representative per distinct restriction and dropping
/// restrictions strictly contained in another (substituting the larger
/// edge in any cover preserves coverage without raising its size, and the
/// enlarged union is itself a normal-form bag).
pub fn restriction_pool(h: &Hypergraph, region: &VertexSet) -> Vec<VertexSet> {
    let mut distinct: Vec<VertexSet> = Vec::new();
    let mut seen: FxHashSet<VertexSet> = FxHashSet::default();
    for e in h.edges() {
        let r = e.intersection(region);
        if !r.is_empty() && seen.insert(r.clone()) {
            distinct.push(r);
        }
    }
    let maximal: Vec<VertexSet> = distinct
        .iter()
        .filter(|r| {
            !distinct
                .iter()
                .any(|other| *r != other && r.is_subset(other))
        })
        .cloned()
        .collect();
    maximal
}

/// Streams the edge-union candidate bags of one search state, lazily.
///
/// `comp`/`conn` are the engine's component and connector; the bags are
/// unions of 1 to `cfg.max_edges` pool restrictions, filtered as described
/// in the module docs. `counters` tallies generated and filtered bags for
/// the `--stats` surface; `gate` is the hoisted pre-pricing predicate
/// (return `false` to reject a bag before it is ever streamed).
pub fn edge_union_bags<'a>(
    h: &'a Hypergraph,
    comp: &VertexSet,
    conn: &VertexSet,
    cfg: &EdgeUnionConfig,
    counters: &'a Counters,
    gate: impl Fn(&VertexSet) -> bool + 'a,
) -> impl Iterator<Item = VertexSet> + 'a {
    let region = comp.union(conn);
    let pool = restriction_pool(h, &region);
    let comp = comp.clone();
    let conn = conn.clone();
    let balance = if conn.is_empty() { cfg.balance } else { None };
    let comp_len = comp.len();
    let mut seen: FxHashSet<VertexSet> = FxHashSet::default();
    let mut subsets = subsets_by_size(pool.len(), cfg.max_edges);
    std::iter::from_fn(move || {
        #[allow(clippy::while_let_on_iterator)]
        while let Some(choice) = subsets.next() {
            let mut bag = VertexSet::new();
            for &i in &choice {
                bag.union_with(&pool[i]);
            }
            counters.count_generated();
            if !seen.insert(bag.clone())
                || !conn.is_subset(&bag)
                || !bag.intersects(&comp)
                || !gate(&bag)
            {
                counters.count_filtered();
                continue;
            }
            if let Some((num, den)) = balance {
                // Largest [bag]-component inside `comp` must stay within
                // num/den of the component (complete at 1/2 for
                // connector-free states — see the module docs).
                let oversized = components::components(h, &bag)
                    .into_iter()
                    .filter(|sub| sub.is_subset(&comp))
                    .any(|sub| sub.len() * den > comp_len * num);
                if oversized {
                    counters.count_filtered();
                    continue;
                }
            }
            return Some(bag);
        }
        None
    })
}

/// Lazily enumerates index subsets of `0..n` with `1 <= size <=
/// max_size`, by increasing size, lexicographic within a size — the same
/// combination odometer as the engine's separator streams, local to this
/// crate so `candgen` stays below `solver`.
fn subsets_by_size(n: usize, max_size: usize) -> impl Iterator<Item = Vec<usize>> + Send {
    let max_size = max_size.min(n);
    let mut size = 1usize;
    let mut idx: Vec<usize> = Vec::new();
    let mut fresh = true;
    std::iter::from_fn(move || loop {
        if size > max_size || n == 0 {
            return None;
        }
        if fresh {
            idx = (0..size).collect();
            fresh = false;
            return Some(idx.clone());
        }
        let mut pos = size;
        loop {
            if pos == 0 {
                size += 1;
                fresh = true;
                break;
            }
            pos -= 1;
            if idx[pos] < n - (size - pos) {
                idx[pos] += 1;
                for j in pos + 1..size {
                    idx[j] = idx[j - 1] + 1;
                }
                return Some(idx.clone());
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    fn all_bags(
        h: &Hypergraph,
        comp: &VertexSet,
        conn: &VertexSet,
        budget: usize,
    ) -> Vec<VertexSet> {
        let counters = Counters::default();
        edge_union_bags(
            h,
            comp,
            conn,
            &EdgeUnionConfig {
                max_edges: budget,
                balance: None,
            },
            &counters,
            |_| true,
        )
        .collect()
    }

    #[test]
    fn unions_are_deduplicated_and_size_ordered() {
        let h = generators::cycle(4);
        let comp = h.all_vertices();
        let conn = VertexSet::new();
        let bags = all_bags(&h, &comp, &conn, 2);
        let distinct: std::collections::HashSet<_> = bags.iter().cloned().collect();
        assert_eq!(distinct.len(), bags.len(), "no duplicates streamed");
        // 4 single edges + 6 pair unions, of which the two opposite pairs
        // collapse to one full-vertex bag.
        assert_eq!(bags.len(), 9);
        // Single-edge bags come first.
        assert!(bags[..4].iter().all(|b| b.len() == 2));
    }

    #[test]
    fn connector_must_be_covered() {
        let h = generators::path(4);
        let comp = VertexSet::from_iter([2, 3]);
        let conn = VertexSet::from_iter([1]);
        for bag in all_bags(&h, &comp, &conn, 2) {
            assert!(conn.is_subset(&bag), "{bag:?}");
            assert!(bag.intersects(&comp), "{bag:?}");
        }
    }

    #[test]
    fn restriction_pool_drops_subsumed_restrictions() {
        // Edge {0,1} restricted to {0} is subsumed by {0,2} restricted to
        // {0,2}.
        let h = Hypergraph::from_edges(3, vec![vec![0, 1], vec![0, 2]]);
        let region = VertexSet::from_iter([0, 2]);
        let pool = restriction_pool(&h, &region);
        assert_eq!(pool, vec![VertexSet::from_iter([0, 2])]);
    }

    #[test]
    fn balance_filter_applies_only_to_connector_free_states() {
        // On a path, the bag {v0,v1} leaves the component {2,3,4,5} of 4 >
        // 6/2 vertices — filtered at the root, kept under a connector.
        let h = generators::path(6);
        let comp = h.all_vertices();
        let conn = VertexSet::new();
        let counters = Counters::default();
        let cfg = EdgeUnionConfig::with_budget(1);
        let rooted: Vec<VertexSet> =
            edge_union_bags(&h, &comp, &conn, &cfg, &counters, |_| true).collect();
        assert!(
            !rooted.contains(&VertexSet::from_iter([0, 1])),
            "end edges are unbalanced roots: {rooted:?}"
        );
        assert!(rooted.contains(&VertexSet::from_iter([2, 3])));
        assert!(counters.filtered() > 0);
    }

    #[test]
    fn size_bound_saturates() {
        assert_eq!(stream_size_bound(4, 2, 1000), 10);
        assert_eq!(stream_size_bound(100, 50, 5000), 5000);
        assert_eq!(stream_size_bound(0, 3, 10), 0);
    }

    #[test]
    fn gate_rejections_are_counted() {
        let h = generators::cycle(3);
        let comp = h.all_vertices();
        let conn = VertexSet::new();
        let counters = Counters::default();
        let cfg = EdgeUnionConfig {
            max_edges: 2,
            balance: None,
        };
        let n = edge_union_bags(&h, &comp, &conn, &cfg, &counters, |b| b.len() < 3).count();
        assert_eq!(counters.generated(), counters.filtered() + n);
        assert!(counters.filtered() > 0, "3-vertex unions gated");
    }
}
