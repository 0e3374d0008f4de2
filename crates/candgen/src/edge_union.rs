//! The width-2 edge-union candidate-bag enumerator.
//!
//! For a search state `(C, conn)` the exact `ghw`/`fhw` engines used to
//! propose every vertex subset `conn ⊆ B ⊆ conn ∪ C` — `O(2^|C|)` bags,
//! the wall behind the old 18-vertex gate. This module instead streams
//! bags `⋃S ∩ (C ∪ conn)` for sets `S` of one or two edges: a cover with
//! its bag enlarged to everything it touches inside the region, `O(m^2)`
//! bags in the edge count. That is det-k's HD normal form at width 2
//! (Gottlob–Leone–Scarcello; the candidate discipline of HyperBench's
//! BalancedGo). Every width-2 HD normalizes to it; a GHD need not, since
//! the enlargement can break connectedness below the node. So a witness
//! found here proves width at most 2, and a failed search proves nothing
//! about `ghw` (see `solver::exact`, which searches it only for blocks
//! past the elimination DP's window, and only for a width-2 witness).
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
//!    component of `C` exceeds half of it are discarded, BalancedGo-style.
//!
//! Single restrictions stream first, then pairs, lexicographic within
//! each — the cheap-candidates-first discipline every minimizer wants,
//! since an early success arms all later gates.

use crate::Counters;
use hypergraph::fx::FxHashSet;
use hypergraph::{components, Hypergraph, VertexSet};

/// The most unions one search state may stream. A block of `m` edges
/// streams up to `m(m+1)/2` single and pair unions per state, so
/// `solver::exact` runs the width-2 search only while that stays below
/// this cap (blocks of at most 315 edges) and otherwise answers `None`.
pub const DEFAULT_STREAM_CAP: usize = 50_000;

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
/// single pool restrictions, then unions of two, filtered as described in
/// the module docs. `counters` tallies generated and filtered bags for
/// the `--stats` surface; `gate` is the hoisted pre-pricing predicate
/// (return `false` to reject a bag before it is ever streamed).
pub fn edge_union_bags<'a>(
    h: &'a Hypergraph,
    comp: &VertexSet,
    conn: &VertexSet,
    counters: &'a Counters,
    gate: impl Fn(&VertexSet) -> bool + 'a,
) -> impl Iterator<Item = VertexSet> + 'a {
    let pool = restriction_pool(h, &comp.union(conn));
    let n = pool.len();
    let comp = comp.clone();
    let conn = conn.clone();
    // The 1/2 centroid bound (complete at connector-free states only, see
    // the module docs).
    let balanced = conn.is_empty();
    let mut seen: FxHashSet<VertexSet> = FxHashSet::default();
    let singles = (0..n).map(|i| (i, i));
    let pairs = (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)));
    singles.chain(pairs).filter_map(move |(i, j)| {
        let bag = pool[i].union(&pool[j]);
        counters.count_generated();
        let kept = seen.insert(bag.clone())
            && conn.is_subset(&bag)
            && bag.intersects(&comp)
            && gate(&bag)
            && !(balanced
                && components::components(h, &bag)
                    .into_iter()
                    .any(|sub| sub.is_subset(&comp) && 2 * sub.len() > comp.len()));
        if !kept {
            counters.count_filtered();
        }
        kept.then_some(bag)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    fn all_bags(h: &Hypergraph, comp: &VertexSet, conn: &VertexSet) -> Vec<VertexSet> {
        let counters = Counters::default();
        edge_union_bags(h, comp, conn, &counters, |_| true).collect()
    }

    #[test]
    fn unions_are_deduplicated_and_size_ordered() {
        let h = generators::cycle(4);
        let comp = h.all_vertices();
        let conn = VertexSet::new();
        let bags = all_bags(&h, &comp, &conn);
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
        for bag in all_bags(&h, &comp, &conn) {
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
        // 6/2 vertices: filtered at the root.
        let h = generators::path(6);
        let comp = h.all_vertices();
        let counters = Counters::default();
        let rooted: Vec<VertexSet> =
            edge_union_bags(&h, &comp, &VertexSet::new(), &counters, |_| true).collect();
        assert!(
            !rooted.contains(&VertexSet::from_iter([0, 1])),
            "end edges are unbalanced roots: {rooted:?}"
        );
        assert!(rooted.contains(&VertexSet::from_iter([2, 3])));
        assert!(counters.filtered() > 0);
        // Under the connector {1}, the bag {1,2} leaves {3,4,5}, 3 > 4/2
        // vertices of the component {2,3,4,5}, and is kept.
        let comp = VertexSet::from_iter([2, 3, 4, 5]);
        let below = all_bags(&h, &comp, &VertexSet::from_iter([1]));
        assert!(below.contains(&VertexSet::from_iter([1, 2])), "{below:?}");
    }

    #[test]
    fn gate_rejections_are_counted() {
        let h = generators::cycle(3);
        let comp = h.all_vertices();
        let conn = VertexSet::new();
        let counters = Counters::default();
        let n = edge_union_bags(&h, &comp, &conn, &counters, |b| b.len() < 3).count();
        assert_eq!(counters.generated(), counters.filtered() + n);
        assert!(counters.filtered() > 0, "3-vertex unions gated");
    }
}
