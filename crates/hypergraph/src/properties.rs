//! Structural hypergraph properties used by the paper's tractability
//! criteria: degree (BDP), intersection width (BIP), multi-intersection
//! width (BMIP), rank, VC-dimension (Section 6.2), and α-acyclicity.

use crate::hypergraph::Hypergraph;
use crate::vertex_set::VertexSet;
use std::collections::HashSet;

/// The degree of `H` (Section 1): the maximum number of edges any vertex
/// occurs in. Zero for edgeless hypergraphs.
pub fn degree(h: &Hypergraph) -> usize {
    (0..h.num_vertices())
        .map(|v| h.incident_edges(v).len())
        .max()
        .unwrap_or(0)
}

/// The rank of `H`: the maximum edge cardinality.
pub fn rank(h: &Hypergraph) -> usize {
    h.edges().iter().map(|e| e.len()).max().unwrap_or(0)
}

/// The intersection width (Definition 4.1): the maximum cardinality of
/// `e1 ∩ e2` over distinct edges. `H` has the `i`-BIP iff `iwidth(H) <= i`.
pub fn intersection_width(h: &Hypergraph) -> usize {
    let m = h.num_edges();
    let mut best = 0;
    for a in 0..m {
        for b in (a + 1)..m {
            let isec = h.edge(a).intersection(h.edge(b));
            best = best.max(isec.len());
        }
    }
    best
}

/// The `c`-multi-intersection width (Definition 4.2): the maximum
/// cardinality of an intersection of `c` distinct edges. `H` has the
/// `i`-bounded `c`-multi-intersection property iff this is `<= i`.
///
/// Panics if `c == 0`; for `c` larger than the number of edges the result
/// is 0 (no `c` distinct edges exist).
pub fn multi_intersection_width(h: &Hypergraph, c: usize) -> usize {
    assert!(c >= 1, "multi-intersection width needs c >= 1");
    let m = h.num_edges();
    if c > m {
        return 0;
    }
    if c == 1 {
        return rank(h);
    }
    let mut best = 0usize;
    // DFS over edge combinations with monotone pruning: intersections only
    // shrink, so any partial intersection no bigger than `best` is dead.
    fn rec(
        h: &Hypergraph,
        next: usize,
        chosen: usize,
        c: usize,
        cur: &VertexSet,
        best: &mut usize,
    ) {
        if chosen == c {
            *best = (*best).max(cur.len());
            return;
        }
        if cur.len() <= *best {
            return;
        }
        let remaining_needed = c - chosen;
        let m = h.num_edges();
        for e in next..m {
            if m - e < remaining_needed {
                break;
            }
            let isec = cur.intersection(h.edge(e));
            if isec.len() > *best || (chosen + 1 < c && !isec.is_empty()) || chosen + 1 == c {
                rec(h, e + 1, chosen + 1, c, &isec, best);
            }
        }
    }
    let all = h.all_vertices();
    rec(h, 0, 0, c, &all, &mut best);
    best
}

/// The VC-dimension (Definition 6.21): the maximum cardinality of a
/// shattered vertex set `X` (every subset of `X` arises as `X ∩ e`).
///
/// Exponential-time exact computation (the problem is hard in general); the
/// search extends shattered sets one vertex at a time, which is sound because
/// subsets of shattered sets are shattered.
pub fn vc_dimension(h: &Hypergraph) -> usize {
    let mut best = 0usize;
    let mut current = Vec::new();
    rec_vc(h, 0, &mut current, &mut best);
    best
}

fn rec_vc(h: &Hypergraph, next: usize, current: &mut Vec<usize>, best: &mut usize) {
    *best = (*best).max(current.len());
    for v in next..h.num_vertices() {
        current.push(v);
        if is_shattered(h, current) {
            rec_vc(h, v + 1, current, best);
        }
        current.pop();
    }
}

/// True iff `x` is shattered by the edges of `h` (Definition 6.21).
pub fn is_shattered(h: &Hypergraph, x: &[usize]) -> bool {
    assert!(x.len() <= 63, "shattering test limited to 63 vertices");
    let needed: u64 = 1u64 << x.len();
    let mut traces: HashSet<u64> = HashSet::with_capacity(needed as usize);
    // The empty trace requires an edge disjoint from x OR... note E|X must
    // contain the empty set too, realized by any edge avoiding all of x.
    for e in h.edges() {
        let mut mask = 0u64;
        for (i, &v) in x.iter().enumerate() {
            if e.contains(v) {
                mask |= 1 << i;
            }
        }
        traces.insert(mask);
        if traces.len() as u64 == needed {
            return true;
        }
    }
    traces.len() as u64 == needed
}

/// α-acyclicity: `H` is α-acyclic iff GYO ear removal
/// ([`join_tree_parents`]) empties it. This is exactly the `hw(H) = 1` /
/// `ghw(H) = 1` criterion used throughout the paper. The empty hypergraph
/// is acyclic.
pub fn is_alpha_acyclic(h: &Hypergraph) -> bool {
    join_tree_parents(h).is_some()
}

/// GYO ear removal: the parent edges of a join tree of `h`, or `None` when
/// `h` is cyclic.
///
/// An alive edge `e` is an *ear* when every vertex it shares with the other
/// alive edges lies in one other alive edge `f`, its witness; an edge that
/// shares nothing hangs under any other alive edge, which joins disconnected
/// parts. Passes over the edges in index order drop each ear under its
/// witness (`parent[e] = Some(f)`) until one edge is left, the root
/// (`None`); a pass that drops nothing means `h` is cyclic. Dropping an ear
/// is a sequence of GYO steps (delete `e`'s private vertices, then `e ⊆
/// f`), and GYO reduction is confluent, so the order never decides
/// acyclicity. Every vertex's edges stay connected in the tree, since an
/// ear's shared vertices all lie in its parent.
pub fn join_tree_parents(h: &Hypergraph) -> Option<Vec<Option<usize>>> {
    let m = h.num_edges();
    let mut parent = vec![None; m];
    let mut alive = vec![true; m];
    // Alive edges per vertex: a vertex of `e` is shared iff it is above 1.
    let mut degree: Vec<usize> = (0..h.num_vertices())
        .map(|v| h.incident_edges(v).len())
        .collect();
    let mut left = m;
    while left > 1 {
        let before = left;
        for e in 0..m {
            if !alive[e] || left == 1 {
                continue;
            }
            let Some(f) = ear_witness(h, e, &alive, &degree) else {
                continue;
            };
            parent[e] = Some(f);
            alive[e] = false;
            left -= 1;
            for v in h.edge(e).iter() {
                degree[v] -= 1;
            }
        }
        if left == before {
            return None;
        }
    }
    Some(parent)
}

/// The edge the alive edge `e` hangs under when it is an ear. A witness
/// holds every shared vertex, the first one included, so it is found
/// through that vertex's incidence list.
fn ear_witness(h: &Hypergraph, e: usize, alive: &[bool], degree: &[usize]) -> Option<usize> {
    let edge = h.edge(e);
    let shared = VertexSet::from_iter(edge.iter().filter(|&v| degree[v] > 1));
    let other = |&f: &usize| f != e && alive[f];
    match shared.first() {
        None => (0..h.num_edges()).find(other),
        Some(v) => h
            .incident_edges(v)
            .iter()
            .copied()
            .filter(other)
            .find(|&f| shared.is_subset(h.edge(f))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn degree_and_rank() {
        let h = Hypergraph::from_edges(4, vec![vec![0, 1, 2], vec![0, 3], vec![0, 2]]);
        assert_eq!(degree(&h), 3); // v0 in all three edges
        assert_eq!(rank(&h), 3);
    }

    #[test]
    fn intersection_width_examples() {
        let tri = Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        assert_eq!(intersection_width(&tri), 1);
        let h = Hypergraph::from_edges(4, vec![vec![0, 1, 2], vec![1, 2, 3]]);
        assert_eq!(intersection_width(&h), 2);
        let single = Hypergraph::from_edges(2, vec![vec![0, 1]]);
        assert_eq!(intersection_width(&single), 0);
    }

    #[test]
    fn example_4_3_has_the_stated_intersection_profile() {
        // "The BIP and the 3-BMIP of H0 is 1. Starting from c=4, the c-BMIP is 0."
        let h = generators::example_4_3();
        assert_eq!(intersection_width(&h), 1);
        assert_eq!(multi_intersection_width(&h, 2), 1);
        assert_eq!(multi_intersection_width(&h, 3), 1);
        assert_eq!(multi_intersection_width(&h, 4), 0);
        assert_eq!(multi_intersection_width(&h, 5), 0);
    }

    #[test]
    fn miwidth_monotone_in_c() {
        let h = generators::clique(6);
        let mut last = usize::MAX;
        for c in 1..=4 {
            let w = multi_intersection_width(&h, c);
            assert!(w <= last);
            last = w;
        }
    }

    #[test]
    fn vc_dimension_of_small_families() {
        // A clique (graph) has VC-dimension 2 for n >= 3: any pair {a,b} is
        // shattered via edges ab, a-c, b-c, and a disjoint edge; triples are
        // not (no edge contains 3 vertices).
        let h = generators::clique(4);
        assert_eq!(vc_dimension(&h), 2);
        // A single edge shatters only singletons: {v} has traces {v} but the
        // empty trace requires an edge avoiding v.
        let single = Hypergraph::from_edges(3, vec![vec![0, 1, 2]]);
        assert_eq!(vc_dimension(&single), 0);
    }

    #[test]
    fn lemma_6_24_family_has_small_vc_but_large_miwidth() {
        // H_n with edges V \ {v_i} has vc < 2 and c-miwidth >= n - c.
        for n in [4usize, 6, 8] {
            let h = generators::lemma_6_24_family(n);
            assert!(vc_dimension(&h) < 2, "n = {n}");
            for c in 1..=3usize {
                assert!(multi_intersection_width(&h, c) >= n - c, "n={n}, c={c}");
            }
        }
    }

    #[test]
    fn shattering_matches_definition() {
        let h = Hypergraph::from_edges(3, vec![vec![0], vec![1], vec![0, 1], vec![2]]);
        assert!(is_shattered(&h, &[0, 1])); // traces: {}, {0}, {1}, {0,1}
        assert!(!is_shattered(&h, &[0, 2])); // {0,2} never co-occur
    }

    #[test]
    fn acyclicity_classic_cases() {
        // A path is acyclic, a cycle is not, a triangle graph is not,
        // but a triangle *covered by one 3-edge* is.
        assert!(is_alpha_acyclic(&generators::path(5)));
        assert!(!is_alpha_acyclic(&generators::cycle(4)));
        assert!(!is_alpha_acyclic(&generators::cycle(3)));
        let covered =
            Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1, 2]]);
        assert!(is_alpha_acyclic(&covered));
        // α-acyclicity is not closed under subhypergraphs — the classic
        // example: big edge plus a cycle inside it.
        assert!(is_alpha_acyclic(&generators::star(5)));
        assert!(is_alpha_acyclic(&Hypergraph::from_edges(0, vec![])));
    }

    /// The GYO reduction that the ear removal replaced, kept as its
    /// reference: repeatedly (a) delete vertices occurring in at most one
    /// live edge, (b) delete edges contained in another live edge; `H` is
    /// α-acyclic iff everything is eventually deleted.
    fn reference_is_alpha_acyclic(h: &Hypergraph) -> bool {
        let mut edges: Vec<VertexSet> = h.edges().to_vec();
        let mut alive: Vec<bool> = vec![true; edges.len()];
        loop {
            let mut changed = false;
            // (a) remove ear vertices: occurring in <= 1 live edge.
            let mut occurs: Vec<usize> = vec![0; h.num_vertices()];
            for (ei, e) in edges.iter().enumerate() {
                if alive[ei] {
                    for v in e.iter() {
                        occurs[v] += 1;
                    }
                }
            }
            for (ei, e) in edges.iter_mut().enumerate() {
                if !alive[ei] {
                    continue;
                }
                let lonely: Vec<usize> = e.iter().filter(|&v| occurs[v] <= 1).collect();
                for v in lonely {
                    e.remove(v);
                    changed = true;
                }
                if e.is_empty() {
                    alive[ei] = false;
                }
            }
            // (b) remove edges contained in another live edge.
            for i in 0..edges.len() {
                if !alive[i] {
                    continue;
                }
                for j in 0..edges.len() {
                    if i != j && alive[j] && edges[i].is_subset(&edges[j]) {
                        alive[i] = false;
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        alive.iter().all(|a| !a)
    }

    /// Edges of a small draw from `rng`: random edges over at most seven
    /// vertices (cyclic and acyclic alike) or an α-acyclic CQ.
    fn draw_edges(rng: &mut StdRng) -> (usize, Vec<Vec<usize>>) {
        if rng.gen_bool(0.5) {
            let h = generators::random_acyclic(
                rng.gen_range(1..6usize),
                rng.gen_range(2..4usize),
                rng.next_u64(),
            );
            return (
                h.num_vertices(),
                h.edges().iter().map(|e| e.to_vec()).collect(),
            );
        }
        let n = rng.gen_range(1..8usize);
        let edges = (0..rng.gen_range(1..7usize))
            .map(|_| {
                let mut e: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
                if e.is_empty() {
                    e.push(rng.gen_range(0..n));
                }
                e
            })
            .collect();
        (n, edges)
    }

    /// A small hypergraph from `seed`: one draw or the disjoint union of
    /// two, with a duplicate edge and a singleton edge on some draws.
    fn generated(seed: u64) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut n, mut edges) = draw_edges(&mut rng);
        if rng.gen_bool(0.3) {
            let (m, more) = draw_edges(&mut rng);
            edges.extend(more.into_iter().map(|e| e.iter().map(|v| v + n).collect()));
            n += m;
        }
        if rng.gen_bool(0.3) {
            let copy = edges[rng.gen_range(0..edges.len())].clone();
            edges.insert(rng.gen_range(0..=edges.len()), copy);
        }
        if rng.gen_bool(0.3) {
            edges.insert(rng.gen_range(0..=edges.len()), vec![rng.gen_range(0..n)]);
        }
        Hypergraph::from_edges(n, edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// The ear removal answers as the reference GYO reduction, and its
        /// parents form a join tree: one root, and every vertex's edges
        /// connected (exactly one of them has a parent without the vertex).
        #[test]
        fn ear_removal_agrees_with_gyo_reduction(seed in any::<u64>()) {
            let h = generated(seed);
            let parents = join_tree_parents(&h);
            prop_assert_eq!(parents.is_some(), reference_is_alpha_acyclic(&h));
            if let Some(parents) = parents {
                prop_assert_eq!(parents.iter().filter(|p| p.is_none()).count(), 1);
                for v in 0..h.num_vertices() {
                    let tops = h
                        .incident_edges(v)
                        .iter()
                        .filter(|&&e| parents[e].is_none_or(|p| !h.edge(p).contains(v)))
                        .count();
                    prop_assert_eq!(tops, usize::from(!h.incident_edges(v).is_empty()));
                }
            }
        }
    }
}
