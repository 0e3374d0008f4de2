//! Elimination orderings: the exact dynamic program over them, in the
//! spirit of Moll–Tazari–Thurley \[42\], and the tree decomposition an
//! ordering induces.
//!
//! For any *monotone* bag-cost function `c` (both `rho` and `rho*` are
//! monotone under set inclusion), the minimum over all tree decompositions
//! of the maximum bag cost is attained on a decomposition whose bags are the
//! maximal cliques of a minimal triangulation of the primal graph, and every
//! minimal triangulation arises from an elimination ordering. The classic
//! `O(2^n)` subset DP over orderings ([`optimal_elimination`]) is therefore
//! exact. Edge coverage (condition 1) is automatic: hyperedges are primal
//! cliques and every tree decomposition of the primal graph puts each
//! clique inside some bag (Lemma 2.8).
//!
//! The DP's states are `u64` masks of eliminated vertices, and so are its
//! bags: the bag of `v` is `v` plus every vertex reachable from it through
//! eliminated vertices, found by a flood fill over mask adjacency rows.
//! Both tables (state memo, bag costs) are FxHash maps keyed by masks, so
//! a state costs no allocation; the cost closure sees each distinct bag
//! once, as a [`VertexSet`].
//!
//! **The cutoff contract.** With a cutoff `c`, a bag whose exact cost
//! reaches `c` can never lie on a returned ordering, so the closure may
//! answer any value `>= c` for it instead of its exact cost: the result is
//! the same. That is what lets a caller reject bags by cheap lower bounds
//! before pricing them (`solver::exact` gates them against the seeded
//! cutoff).
//!
//! [`assemble`] builds the decomposition of an ordering. It is the one
//! elimination-tree routine behind both witnesses: the heuristic bound's
//! ([`crate::upper_bound`]) and the DP's (`solver::exact`). The DP's
//! reachability bag of `v` is exactly `v`'s neighborhood in the filled
//! graph when `v` is eliminated (Rose–Tarjan–Lueker), so the assembled
//! witness has the width the DP reported, and its bags are bags the DP
//! priced: a caller that keeps the weights of every bag it priced builds
//! the witness without solving again.

use arith::Rational;
use decomp::{Decomposition, Node};
use hypergraph::fx::FxHashMap;
use hypergraph::{Hypergraph, VertexSet};

/// Maximum vertex count for the subset DP (states are `u64` masks and the
/// table has `2^n` entries).
pub const MAX_EXACT_VERTICES: usize = 24;

/// Computes `min over elimination orders of max over steps of
/// cost(bag(v, eliminated))`, together with an optimal order. `cost` must
/// be monotone and is called once per distinct bag; `cutoff` abandons
/// branches whose cost already reaches it.
///
/// With a cutoff, `cost` may answer any value `>= cutoff` for a bag whose
/// exact cost reaches the cutoff (a lower bound that already reaches it
/// suffices): such a bag is pruned either way, so the width and the order
/// are those of the exact costs.
///
/// Returns `None` when `h` exceeds [`MAX_EXACT_VERTICES`] or every order
/// hits the cutoff.
pub fn optimal_elimination<C, F>(
    h: &Hypergraph,
    cost: F,
    cutoff: Option<C>,
) -> Option<(C, Vec<usize>)>
where
    C: Ord + Clone,
    F: FnMut(&VertexSet) -> C,
{
    let n = h.num_vertices();
    if n == 0 || n > MAX_EXACT_VERTICES {
        return None;
    }
    let adj = h
        .primal_graph()
        .iter()
        .map(|a| a.iter().fold(0u64, |m, u| m | 1 << u))
        .collect();
    let mut dp = Dp {
        adj,
        full: (1u64 << n) - 1,
        cost,
        cutoff,
        memo: FxHashMap::default(),
        costs: FxHashMap::default(),
    };
    let (width, _) = dp.solve(0)?;
    // Reconstruct the order greedily from the memo.
    let mut order = Vec::with_capacity(n);
    let mut eliminated = 0u64;
    while eliminated != dp.full {
        let (_, v) = dp.memo[&eliminated]
            .clone()
            .expect("memo holds the optimal chain");
        order.push(v);
        eliminated |= 1 << v;
    }
    Some((width, order))
}

/// The DP's tables: states and bags are vertex masks.
struct Dp<C, F> {
    /// `adj[v]`: `v`'s primal neighbors.
    adj: Vec<u64>,
    full: u64,
    cost: F,
    cutoff: Option<C>,
    /// `eliminated -> best (width, first vertex)` of the rest, `None` when
    /// every order of the rest hits the cutoff.
    memo: FxHashMap<u64, Option<(C, usize)>>,
    /// `bag -> cost`, shared by every state.
    costs: FxHashMap<u64, C>,
}

impl<C: Ord + Clone, F: FnMut(&VertexSet) -> C> Dp<C, F> {
    /// `v` plus every `u ∉ eliminated` reachable from `v` via eliminated
    /// vertices.
    fn bag(&self, v: usize, eliminated: u64) -> u64 {
        let mut bag = 1u64 << v;
        let mut seen = bag;
        let mut todo = bag;
        while todo != 0 {
            let x = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let fresh = self.adj[x] & !seen;
            seen |= fresh;
            bag |= fresh & !eliminated;
            todo |= fresh & eliminated;
        }
        bag
    }

    fn solve(&mut self, eliminated: u64) -> Option<(C, usize)> {
        if let Some(hit) = self.memo.get(&eliminated) {
            return hit.clone();
        }
        let mut best: Option<(C, usize)> = None;
        let mut alive = self.full & !eliminated;
        while alive != 0 {
            let v = alive.trailing_zeros() as usize;
            alive &= alive - 1;
            let bag = self.bag(v, eliminated);
            let Dp { costs, cost, .. } = self;
            let here = costs
                .entry(bag)
                .or_insert_with(|| {
                    let mut set = VertexSet::new();
                    set.insert_mask_block(0, bag);
                    cost(&set)
                })
                .clone();
            if self.cutoff.as_ref().is_some_and(|cut| here >= *cut) {
                continue;
            }
            if best.as_ref().is_some_and(|(b, _)| here >= *b) {
                continue; // cannot improve the max
            }
            let next = eliminated | 1 << v;
            let total = if next == self.full {
                Some(here)
            } else {
                self.solve(next).map(|(rest, _)| rest.max(here))
            };
            if let Some(t) = total {
                if best.as_ref().is_none_or(|(b, _)| t < *b) {
                    best = Some((t, v));
                }
            }
        }
        self.memo.insert(eliminated, best.clone());
        best
    }
}

/// Removes `v` from the alive set, connecting its alive neighbors into a
/// clique (the fill step).
pub(crate) fn eliminate(adj: &mut [VertexSet], alive: &mut VertexSet, v: usize) {
    alive.remove(v);
    let neighbors = adj[v].intersection(alive);
    for a in neighbors.iter() {
        adj[a].union_with(&neighbors);
        adj[a].remove(a);
    }
}

/// The elimination bags of `order`, in elimination order: bag `t` is
/// `order[t]` plus its still-alive neighbors in the filled graph.
pub(crate) fn bags_of_order(h: &Hypergraph, order: &[usize]) -> Vec<VertexSet> {
    let mut adj = h.primal_graph();
    let mut alive = h.all_vertices();
    let mut bags = Vec::with_capacity(order.len());
    for &v in order {
        let mut bag = adj[v].intersection(&alive);
        bag.insert(v);
        bags.push(bag);
        eliminate(&mut adj, &mut alive, v);
    }
    bags
}

/// Builds the decomposition induced by `order`: node `t`'s parent is the
/// node of the earliest-eliminated later vertex in its bag (the standard
/// elimination-tree construction; parentless nodes of disconnected
/// instances attach under the final root). `weights` gives each node's
/// edge weights; it is called once per node, root first, then in reverse
/// elimination order.
pub fn assemble(
    h: &Hypergraph,
    order: &[usize],
    mut weights: impl FnMut(&VertexSet) -> Vec<(usize, Rational)>,
) -> Decomposition {
    let bags = bags_of_order(h, order);
    let n = bags.len();
    let mut position = vec![0usize; h.num_vertices()];
    for (t, &v) in order.iter().enumerate() {
        position[v] = t;
    }
    let mut node = |bag: &VertexSet| Node {
        bag: bag.clone(),
        weights: weights(bag),
    };
    let mut ids = vec![usize::MAX; n];
    let mut d = Decomposition::new(node(&bags[n - 1]));
    ids[n - 1] = d.root();
    for t in (0..n - 1).rev() {
        let parent = bags[t]
            .iter()
            .filter(|&u| u != order[t] && position[u] > t)
            .min_by_key(|&u| position[u])
            .map(|u| position[u])
            .unwrap_or(n - 1);
        let parent_id = ids[parent];
        debug_assert_ne!(parent_id, usize::MAX, "parents are later in the order");
        ids[t] = d.add_child(parent_id, node(&bags[t]));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;
    use std::collections::HashMap;

    /// Treewidth-style cost: bag size (so result = treewidth + 1).
    fn bag_size_cost(h: &Hypergraph) -> Option<(usize, Vec<usize>)> {
        optimal_elimination(h, |b| b.len(), None)
    }

    #[test]
    fn treewidth_of_standard_graphs() {
        // Path: tw 1 -> max bag 2; cycle: tw 2 -> 3; clique K5: 5; grid 3x3: 4.
        assert_eq!(bag_size_cost(&generators::path(6)).unwrap().0, 2);
        assert_eq!(bag_size_cost(&generators::cycle(6)).unwrap().0, 3);
        assert_eq!(bag_size_cost(&generators::clique(5)).unwrap().0, 5);
        assert_eq!(bag_size_cost(&generators::grid(3, 3)).unwrap().0, 4);
    }

    #[test]
    fn decomposition_shape_is_a_tree_covering_all_edges() {
        let h = generators::cycle(5);
        let (width, order) = bag_size_cost(&h).unwrap();
        let d = assemble(&h, &order, |_| Vec::new());
        // One node per eliminated vertex, rooted at the last one.
        assert_eq!(d.len(), h.num_vertices());
        assert!(d.node(d.root()).bag.contains(order[order.len() - 1]));
        // Every edge inside some bag, and the bags are the DP's.
        for e in h.edges() {
            assert!(d.nodes().iter().any(|node| e.is_subset(&node.bag)));
        }
        assert_eq!(
            d.nodes().iter().map(|node| node.bag.len()).max(),
            Some(width)
        );
    }

    #[test]
    fn assembled_decomposition_is_valid() {
        let h = generators::cycle(5);
        let (_, order) = bag_size_cost(&h).unwrap();
        let d = assemble(&h, &order, |bag| {
            cover::integral_cover(&h, bag)
                .unwrap()
                .edges
                .into_iter()
                .map(|e| (e, Rational::one()))
                .collect()
        });
        assert_eq!(decomp::validate_ghd(&h, &d), Ok(()), "{}", d.render(&h));
    }

    #[test]
    fn too_large_instances_refused() {
        let h = generators::grid(5, 6); // 30 > 24 vertices
        assert!(optimal_elimination(&h, |b| b.len(), None).is_none());
    }

    #[test]
    fn answering_the_cutoff_for_bags_that_reach_it_changes_nothing() {
        for h in [
            generators::cycle(6),
            generators::grid(3, 3),
            generators::clique(5),
            generators::example_5_1(5),
            generators::triangle_chain(3),
        ] {
            let mut prices: HashMap<VertexSet, Rational> = HashMap::new();
            let mut exact = |bag: &VertexSet| {
                prices
                    .entry(bag.clone())
                    .or_insert_with(|| cover::fractional_cover(&h, bag).unwrap().weight)
                    .clone()
            };
            let (w, _) = optimal_elimination(&h, &mut exact, None).unwrap();
            let above = Rational::from(w.ceil().to_i64().unwrap() as usize + 1);
            for cutoff in [None, Some(w.clone()), Some(above)] {
                let want = optimal_elimination(&h, &mut exact, cutoff.clone());
                let capped = |bag: &VertexSet| match (exact(bag), &cutoff) {
                    (c, Some(cut)) if c >= *cut => cut.clone(),
                    (c, _) => c,
                };
                let got = optimal_elimination(&h, capped, cutoff.clone());
                assert_eq!(got, want, "{h:?} at cutoff {cutoff:?}");
            }
        }
    }

    #[test]
    fn cutoff_prunes() {
        let h = generators::clique(6);
        assert!(optimal_elimination(&h, |b| b.len(), Some(5)).is_none());
        assert!(optimal_elimination(&h, |b| b.len(), Some(7)).is_some());
    }
}
