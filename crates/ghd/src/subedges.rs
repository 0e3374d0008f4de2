//! Subedge functions `f(H, k)` (Section 4).
//!
//! Theorem 4.11 shows `ghw(H) = k  iff  hw(H ∪ f(H,k)) = k` for a
//! polynomially-bounded subedge set `f(H,k)`; the witness subedges are the
//! sets `e ∩ B_u` arising in bag-maximal GHDs, characterized through
//! critical paths (Lemma 4.9) and union-of-intersection trees (Algorithm 1).
//!
//! * [`bip_subedges`] — the closed form of Theorem 4.15:
//!   `f(H,k) = ⋃_e ⋃_{e_1..e_j, j<=k} 2^(e ∩ (e_1 ∪ ... ∪ e_j))`, exact for
//!   hypergraphs with bounded intersection width.
//! * [`bmip_subedges`] — the Theorem 4.11 family for bounded
//!   *multi*-intersections: candidate sets are refined through up to `c-1`
//!   rounds of intersection with unions of `<= k` edges (the levels of the
//!   reduced ∪∩-tree), then closed under subsets where small.

use hypergraph::{Hypergraph, VertexSet};
use std::collections::HashSet;

/// Controls the subset-closure blow-up of the subedge enumeration.
#[derive(Clone, Copy, Debug)]
pub struct SubedgeLimits {
    /// Take all `2^|X|` subsets of a candidate `X` only when `|X|` is at
    /// most this (the paper's bound is `k·i` under the `i`-BIP). Larger
    /// candidates are kept whole, which is sound but not complete, so it
    /// is reported via [`SubedgeSet::truncated`].
    pub max_subset_size: usize,
    /// Hard cap on the number of generated subedges (safety valve; hitting
    /// it is reported via [`SubedgeSet::truncated`]).
    pub max_subedges: usize,
}

impl Default for SubedgeLimits {
    fn default() -> Self {
        SubedgeLimits {
            max_subset_size: 8,
            max_subedges: 2_000_000,
        }
    }
}

/// The result of a subedge computation.
#[derive(Clone, Debug)]
pub struct SubedgeSet {
    /// The new subedges (none equals an existing edge of `H`; none empty).
    pub subedges: Vec<VertexSet>,
    /// For every subedge, one originator edge of `H` containing it.
    pub originators: Vec<usize>,
    /// True iff a [`SubedgeLimits`] cut enumeration short (a candidate
    /// kept whole, or the subedge cap hit) — completeness of the `iff` in
    /// Theorem 4.11/4.15 is then not guaranteed.
    pub truncated: bool,
}

/// The BIP subedge function of Theorem 4.15.
pub fn bip_subedges(h: &Hypergraph, k: usize, limits: SubedgeLimits) -> SubedgeSet {
    candidates_to_subedges(h, bip_candidates(h, k), limits)
}

/// Candidate maximal sets `e ∩ (e_1 ∪ ... ∪ e_j)` for `j <= k`, tagged with
/// the originator `e`.
#[allow(clippy::too_many_arguments)]
fn bip_candidates(h: &Hypergraph, k: usize) -> Vec<(VertexSet, usize)> {
    let m = h.num_edges();
    let mut out: Vec<(VertexSet, usize)> = Vec::new();
    let mut seen: HashSet<(VertexSet, usize)> = HashSet::new();
    for e in 0..m {
        // DFS over unions of up to k other edges; track the running
        // intersection with e, pruning unions that stop growing.
        fn rec(
            h: &Hypergraph,
            e: usize,
            start: usize,
            depth: usize,
            k: usize,
            cur: &VertexSet,
            seen: &mut HashSet<(VertexSet, usize)>,
            out: &mut Vec<(VertexSet, usize)>,
        ) {
            if depth == k {
                return;
            }
            for e2 in start..h.num_edges() {
                if e2 == e {
                    continue;
                }
                let mut next = cur.clone();
                let gain = h.edge(e).intersection(h.edge(e2));
                next.union_with(&gain);
                if !next.is_empty() && seen.insert((next.clone(), e)) {
                    out.push((next.clone(), e));
                }
                rec(h, e, e2 + 1, depth + 1, k, &next, seen, out);
            }
        }
        rec(h, e, 0, 0, k, &VertexSet::new(), &mut seen, &mut out);
    }
    out
}

/// The BMIP subedge family of Theorem 4.11 with `c - 1` refinement rounds
/// (the depth of the reduced ∪∩-tree `T*`): level 1 holds
/// `e ∩ B(λ_{u_1})`-shaped sets, each further level intersects with another
/// union of `<= k` edges.
pub fn bmip_subedges(h: &Hypergraph, k: usize, c: usize, limits: SubedgeLimits) -> SubedgeSet {
    assert!(c >= 2, "BMIP needs c >= 2 (c = 2 coincides with the BIP)");
    let mut level: Vec<(VertexSet, usize)> = bip_candidates(h, k);
    let mut all: Vec<(VertexSet, usize)> = level.clone();
    let mut seen: HashSet<(VertexSet, usize)> = all.iter().cloned().collect();
    for _round in 2..c {
        let mut next_level: Vec<(VertexSet, usize)> = Vec::new();
        for (x, orig) in &level {
            // Intersect x with unions of <= k edges (one refinement step).
            let mut stack: Vec<(usize, usize, VertexSet)> = vec![(0, 0, VertexSet::new())];
            while let Some((start, depth, acc)) = stack.pop() {
                if depth > 0 {
                    let refined = x.intersection(&acc);
                    if !refined.is_empty() && refined != *x && seen.insert((refined.clone(), *orig))
                    {
                        next_level.push((refined.clone(), *orig));
                        all.push((refined, *orig));
                        if all.len() > limits.max_subedges {
                            return candidates_truncated(h, all, limits);
                        }
                    }
                }
                if depth < k {
                    for e2 in start..h.num_edges() {
                        let mut acc2 = acc.clone();
                        acc2.union_with(h.edge(e2));
                        stack.push((e2 + 1, depth + 1, acc2));
                    }
                }
            }
        }
        if next_level.is_empty() {
            break;
        }
        level = next_level;
    }
    candidates_to_subedges(h, all, limits)
}

fn candidates_truncated(
    h: &Hypergraph,
    cands: Vec<(VertexSet, usize)>,
    limits: SubedgeLimits,
) -> SubedgeSet {
    let mut out = candidates_to_subedges(h, cands, limits);
    out.truncated = true;
    out
}

/// Closes candidates under subsets (where small), removes duplicates of
/// existing edges, and packages the result.
fn candidates_to_subedges(
    h: &Hypergraph,
    cands: Vec<(VertexSet, usize)>,
    limits: SubedgeLimits,
) -> SubedgeSet {
    let existing: HashSet<VertexSet> = h.edges().iter().cloned().collect();
    let mut emitted: HashSet<VertexSet> = HashSet::new();
    let mut subedges = Vec::new();
    let mut originators = Vec::new();
    let mut truncated = false;
    let mut emit = |set: VertexSet,
                    orig: usize,
                    subedges: &mut Vec<VertexSet>,
                    originators: &mut Vec<usize>|
     -> bool {
        if set.is_empty() || existing.contains(&set) || !emitted.insert(set.clone()) {
            return true;
        }
        subedges.push(set);
        originators.push(orig);
        subedges.len() < limits.max_subedges
    };
    'outer: for (cand, orig) in cands {
        let members = cand.to_vec();
        if members.len() <= limits.max_subset_size {
            // All non-empty subsets.
            for mask in 1u64..(1u64 << members.len()) {
                let subset: VertexSet = members
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect();
                if !emit(subset, orig, &mut subedges, &mut originators) {
                    truncated = true;
                    break 'outer;
                }
            }
        } else {
            // Kept whole, its proper subsets are missing: completeness
            // is no longer guaranteed.
            truncated = true;
            if !emit(cand, orig, &mut subedges, &mut originators) {
                break 'outer;
            }
        }
    }
    SubedgeSet {
        subedges,
        originators,
        truncated,
    }
}

/// A node of the union-of-intersections tree of Algorithm 1 (Figure 7).
#[derive(Clone, Debug)]
pub struct UoiNode {
    /// The edges whose intersection this node represents (`label(p)`).
    pub label: Vec<usize>,
    /// `int(p)`: the intersection of the labelled edges.
    pub intersection: VertexSet,
    /// Child nodes created by the splitting step.
    pub children: Vec<UoiNode>,
}

/// Algorithm 1 (“Union-of-Intersections-Tree”): given an edge `e` and a
/// critical path described by the λ-labels `lambdas[i] = λ_{u_i}`, builds
/// the ∪∩-tree whose leaves' intersections union to `e ∩ ⋂_i B(λ_{u_i})`
/// (Lemma 4.9).
pub fn union_of_intersections_tree(h: &Hypergraph, e: usize, lambdas: &[Vec<usize>]) -> UoiNode {
    let mut root = UoiNode {
        label: vec![e],
        intersection: h.edge(e).clone(),
        children: Vec::new(),
    };
    for lambda in lambdas {
        expand(h, &mut root, lambda);
    }
    root
}

fn expand(h: &Hypergraph, node: &mut UoiNode, lambda: &[usize]) {
    if node.children.is_empty() {
        // Leaf: split unless the label already meets λ_{u_i}.
        if node.label.iter().any(|e| lambda.contains(e)) {
            return;
        }
        for &le in lambda {
            let mut label = node.label.clone();
            label.push(le);
            let intersection = node.intersection.intersection(h.edge(le));
            node.children.push(UoiNode {
                label,
                intersection,
                children: Vec::new(),
            });
        }
    } else {
        for c in node.children.iter_mut() {
            expand(h, c, lambda);
        }
    }
}

impl UoiNode {
    /// The union of the leaf intersections — `e ∩ ⋂_i B(λ_{u_i})` by the
    /// distributivity argument in the proof of Theorem 4.11.
    pub fn leaf_union(&self) -> VertexSet {
        let mut out = VertexSet::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, acc: &mut VertexSet) {
        if self.children.is_empty() {
            acc.union_with(&self.intersection);
        } else {
            for c in &self.children {
                c.collect_leaves(acc);
            }
        }
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(UoiNode::size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    #[test]
    fn example_4_12_uoi_tree() {
        // The ∪∩-tree of critical path (u, u1, u*) of (u, e2) in Fig 6(b):
        // e2 ∩ (e3 ∪ e7) ∩ (e8 ∪ e2) = {v3, v9}; the second λ contains e2
        // itself so the tree stops at depth 1 with leaves {e2,e3}, {e2,e7}.
        let h = generators::example_4_3();
        let e = |n: &str| h.edge_by_name(n).unwrap();
        let tree = union_of_intersections_tree(
            &h,
            e("e2"),
            &[vec![e("e3"), e("e7")], vec![e("e8"), e("e2")]],
        );
        assert_eq!(tree.size(), 3); // root + two leaves (Figure 7)
        let expected: VertexSet = ["v3", "v9"]
            .iter()
            .map(|n| h.vertex_by_name(n).unwrap())
            .collect();
        assert_eq!(tree.leaf_union(), expected);
        // Cross-check against Lemma 4.9's closed form.
        let b1 = h.union_of_edges([e("e3"), e("e7")]);
        let b2 = h.union_of_edges([e("e8"), e("e2")]);
        let direct = h.edge(e("e2")).intersection(&b1).intersection(&b2);
        assert_eq!(tree.leaf_union(), direct);
    }

    #[test]
    fn bip_subedges_contain_the_example_4_4_repair() {
        // e2 ∩ (e3 ∪ e7) = {v3, v9} must appear in f(H0, 2).
        let h = generators::example_4_3();
        let f = bip_subedges(&h, 2, SubedgeLimits::default());
        assert!(!f.truncated);
        let target: VertexSet = ["v3", "v9"]
            .iter()
            .map(|n| h.vertex_by_name(n).unwrap())
            .collect();
        assert!(f.subedges.contains(&target));
        // Every subedge is inside its originator and not an existing edge.
        for (s, &o) in f.subedges.iter().zip(&f.originators) {
            assert!(s.is_subset(h.edge(o)));
            assert!(h.edges().iter().all(|e| e != s));
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn bip_subedge_count_obeys_theorem_4_15_bound() {
        // |f(H,k)| <= m^{k+1} * 2^{k*i}.
        let h = generators::example_4_3();
        let k = 2usize;
        let i = hypergraph::properties::intersection_width(&h);
        let m = h.num_edges();
        let f = bip_subedges(&h, k, SubedgeLimits::default());
        assert!(f.subedges.len() <= m.pow(k as u32 + 1) * 2usize.pow((k * i) as u32));
    }

    #[test]
    fn bmip_extends_bip() {
        let h = generators::example_4_3();
        let limits = SubedgeLimits::default();
        let bip: std::collections::HashSet<_> =
            bip_subedges(&h, 2, limits).subedges.into_iter().collect();
        let bmip: std::collections::HashSet<_> = bmip_subedges(&h, 2, 3, limits)
            .subedges
            .into_iter()
            .collect();
        assert!(bip.is_subset(&bmip));
    }

    #[test]
    fn a_candidate_kept_whole_is_reported() {
        // e0 ∩ e1 has 9 vertices, past `max_subset_size` (8): its subsets
        // are not enumerated, so the set is incomplete.
        let h = Hypergraph::from_edges(11, vec![(0..10).collect(), (1..11).collect()]);
        let f = bip_subedges(&h, 1, SubedgeLimits::default());
        assert!(f.truncated);
    }

    #[test]
    fn truncation_is_reported() {
        let h = generators::clique(8);
        let f = bip_subedges(
            &h,
            2,
            SubedgeLimits {
                max_subset_size: 8,
                max_subedges: 3,
            },
        );
        assert!(f.truncated);
        assert!(f.subedges.len() <= 3);
    }
}
