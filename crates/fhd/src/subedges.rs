//! The subedge function `h_{d,k}` of Lemma 5.17:
//! `h_{d,k}(H) = E(H) ∩· (⋓_{2^{d²k}} ⋒_d E(H))`.
//!
//! The paper's union arity `2^{d²k}` is astronomically large even for
//! `d = k = 2`, so the implementation exposes it as a parameter (soundness
//! is unconditional — every generated set is a subedge; completeness of the
//! Theorem 5.22 equivalence holds whenever the arity suffices, and
//! truncation is reported: the family is complete only when one more union
//! level would add nothing to any edge's intersections).

use ghd::subedges::SubedgeSet;
use hypergraph::{Hypergraph, VertexSet};
use std::collections::HashSet;

/// Parameters bounding the `h_{d,k}` enumeration.
#[derive(Clone, Copy, Debug)]
pub struct HdkParams {
    /// Maximum number of `⋒_d`-sets united (`⋓` arity). The paper's value
    /// is `2^{d²·k}`; the default keeps enumeration practical.
    pub union_arity: usize,
    /// Hard cap on generated subedges.
    pub max_subedges: usize,
}

impl Default for HdkParams {
    fn default() -> Self {
        HdkParams {
            union_arity: 3,
            max_subedges: 200_000,
        }
    }
}

/// `⋒_d E(H)`: all non-empty intersections of at most `d` distinct edges.
pub fn d_intersections(h: &Hypergraph, d: usize) -> Vec<VertexSet> {
    let mut seen: HashSet<VertexSet> = HashSet::new();
    let mut out: Vec<VertexSet> = Vec::new();
    // BFS over intersection depth with dedup; depth 1 = the edges.
    let mut frontier: Vec<VertexSet> = Vec::new();
    for e in h.edges() {
        if seen.insert(e.clone()) {
            out.push(e.clone());
            frontier.push(e.clone());
        }
    }
    for _ in 1..d {
        let mut next = Vec::new();
        for x in &frontier {
            for e in h.edges() {
                let isec = x.intersection(e);
                if !isec.is_empty() && seen.insert(isec.clone()) {
                    out.push(isec.clone());
                    next.push(isec);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    out
}

/// Computes (a parameterized version of) `h_{d,k}(H)`.
pub fn hdk_subedges(h: &Hypergraph, d: usize, params: HdkParams) -> SubedgeSet {
    let base = d_intersections(h, d);
    let existing: HashSet<VertexSet> = h.edges().iter().cloned().collect();
    let mut emitted: HashSet<VertexSet> = HashSet::new();
    let mut subedges = Vec::new();
    let mut originators = Vec::new();
    let mut truncated = false;

    // Unions of <= union_arity base sets, lazily intersected with each edge.
    // Level-wise closure over the union side with dedup.
    let mut union_seen: HashSet<VertexSet> = HashSet::new();
    let mut frontier: Vec<VertexSet> = vec![VertexSet::new()];
    let mut closed = false;
    'outer: for _ in 0..params.union_arity {
        let mut next = Vec::new();
        for u in &frontier {
            for b in &base {
                let mut u2 = u.clone();
                u2.union_with(b);
                if !union_seen.insert(u2.clone()) {
                    continue;
                }
                // Pointwise intersection with every edge.
                for (e, edge) in h.edges().iter().enumerate() {
                    let s = edge.intersection(&u2);
                    if s.is_empty() || existing.contains(&s) || !emitted.insert(s.clone()) {
                        continue;
                    }
                    subedges.push(s);
                    originators.push(e);
                    if subedges.len() >= params.max_subedges {
                        truncated = true;
                        break 'outer;
                    }
                }
                next.push(u2);
            }
        }
        if next.is_empty() {
            closed = true;
            break;
        }
        frontier = next;
    }
    if !truncated && !closed {
        truncated = grows_past(h, &base, params.union_arity);
    }
    SubedgeSet {
        subedges,
        originators,
        truncated,
    }
}

/// True iff some edge's family `{e ∩ U}` grows when `U` may unite
/// `arity + 1` base sets instead of `arity`. That family is the union
/// closure of the traces `e ∩ b`, so once a level adds nothing to it, no
/// later level does. The check runs per edge: in the merged family another
/// edge may supply a set that this edge's next level still builds on.
fn grows_past(h: &Hypergraph, base: &[VertexSet], arity: usize) -> bool {
    h.edges().iter().any(|edge| {
        let traces: HashSet<VertexSet> = base
            .iter()
            .map(|b| edge.intersection(b))
            .filter(|t| !t.is_empty())
            .collect();
        let mut seen: HashSet<VertexSet> = HashSet::from([VertexSet::new()]);
        let mut frontier = vec![VertexSet::new()];
        for level in 0..=arity {
            let mut next = Vec::new();
            for u in &frontier {
                for t in &traces {
                    let mut u2 = u.clone();
                    u2.union_with(t);
                    if seen.insert(u2.clone()) {
                        if level == arity {
                            return true;
                        }
                        next.push(u2);
                    }
                }
            }
            frontier = next;
        }
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{generators, properties};

    #[test]
    fn d_intersections_of_triangle() {
        let h = generators::cycle(3);
        let one = d_intersections(&h, 1);
        assert_eq!(one.len(), 3); // just the edges
        let two = d_intersections(&h, 2);
        assert_eq!(two.len(), 6); // edges + three shared vertices
        let three = d_intersections(&h, 3);
        assert_eq!(three.len(), 6); // triple intersection is empty
    }

    #[test]
    fn subedges_are_proper_and_tracked() {
        let h = generators::example_5_1(4);
        let f = hdk_subedges(&h, 2, HdkParams::default());
        assert!(!f.truncated);
        for (s, &o) in f.subedges.iter().zip(&f.originators) {
            assert!(s.is_subset(h.edge(o)));
            assert!(!s.is_empty());
            assert!(h.edges().iter().all(|e| e != s));
        }
        // Dedup: no repeated subedges.
        let set: std::collections::HashSet<_> = f.subedges.iter().cloned().collect();
        assert_eq!(set.len(), f.subedges.len());
    }

    #[test]
    fn union_arity_grows_the_family_monotonically() {
        let h = generators::example_4_3();
        let small = hdk_subedges(
            &h,
            2,
            HdkParams {
                union_arity: 1,
                max_subedges: 100_000,
            },
        );
        let big = hdk_subedges(
            &h,
            2,
            HdkParams {
                union_arity: 3,
                max_subedges: 100_000,
            },
        );
        let small_set: std::collections::HashSet<_> = small.subedges.into_iter().collect();
        let big_set: std::collections::HashSet<_> = big.subedges.into_iter().collect();
        assert!(small_set.is_subset(&big_set));
        assert!(big_set.len() >= small_set.len());
    }

    #[test]
    fn truncation_reports_a_family_still_growing() {
        let default = HdkParams::default();
        for n in [5, 6] {
            let h = generators::example_5_1(n);
            for d in [2, properties::degree(&h)] {
                let f = hdk_subedges(&h, d, default);
                assert!(f.truncated, "example_5_1({n}) at d = {d}");
            }
        }
        let h = generators::example_5_1(5);
        let d = properties::degree(&h);
        let f = hdk_subedges(
            &h,
            d,
            HdkParams {
                union_arity: 4,
                ..default
            },
        );
        assert!(!f.truncated);
        assert_eq!(f.subedges.len(), 31);
        for h in [generators::example_5_1(4), generators::example_4_3()] {
            for d in [2, properties::degree(&h)] {
                assert!(!hdk_subedges(&h, d, default).truncated);
            }
        }
    }

    #[test]
    fn truncation_reported() {
        let h = generators::clique(6);
        let f = hdk_subedges(
            &h,
            3,
            HdkParams {
                union_arity: 4,
                max_subedges: 5,
            },
        );
        assert!(f.truncated);
        assert_eq!(f.subedges.len(), 5);
    }
}
