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
//! [`assemble`] builds the decomposition of an ordering. It is the one
//! elimination-tree routine behind both witnesses: the heuristic bound's
//! ([`crate::upper_bound`]) and the DP's (`solver::exact`). The DP prices
//! the bag of `v` as `v` plus every vertex reachable from it through
//! eliminated vertices; that is exactly `v`'s neighborhood in the filled
//! graph when `v` is eliminated (Rose–Tarjan–Lueker), so the assembled
//! witness has the width the DP reported.

use arith::Rational;
use decomp::{Decomposition, Node};
use hypergraph::{Hypergraph, VertexSet};
use std::collections::HashMap;

/// Maximum vertex count for the subset DP (states are `u64` masks and the
/// table has `2^n` entries).
pub const MAX_EXACT_VERTICES: usize = 24;

/// Computes `min over elimination orders of max over steps of
/// cost(bag(v, eliminated))`, together with an optimal order. `cost` must
/// be monotone; `cutoff` abandons branches whose cost already reaches it.
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
    let adj = h.primal_graph();
    let full: u64 = (1u64 << n) - 1;

    fn bag_of(adj: &[VertexSet], n: usize, v: usize, eliminated: u64) -> VertexSet {
        // v plus all u ∉ eliminated reachable from v via eliminated vertices.
        let mut bag = VertexSet::new();
        bag.insert(v);
        let mut seen = vec![false; n];
        seen[v] = true;
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            for u in adj[x].iter() {
                if seen[u] {
                    continue;
                }
                seen[u] = true;
                if eliminated >> u & 1 == 1 {
                    stack.push(u);
                } else {
                    bag.insert(u);
                }
            }
        }
        bag
    }

    struct Ctx<'a, C, F> {
        adj: &'a [VertexSet],
        n: usize,
        full: u64,
        cost: F,
        cutoff: Option<C>,
        memo: HashMap<u64, Option<(C, usize)>>,
        bag_cost_cache: HashMap<VertexSet, C>,
    }

    fn solve<C: Ord + Clone, F: FnMut(&VertexSet) -> C>(
        ctx: &mut Ctx<C, F>,
        eliminated: u64,
    ) -> Option<(C, usize)> {
        if let Some(hit) = ctx.memo.get(&eliminated) {
            return hit.clone();
        }
        let mut best: Option<(C, usize)> = None;
        for v in 0..ctx.n {
            if eliminated >> v & 1 == 1 {
                continue;
            }
            let bag = bag_of(ctx.adj, ctx.n, v, eliminated);
            let c_here = match ctx.bag_cost_cache.get(&bag) {
                Some(c) => c.clone(),
                None => {
                    let c = (ctx.cost)(&bag);
                    ctx.bag_cost_cache.insert(bag, c.clone());
                    c
                }
            };
            if let Some(cut) = &ctx.cutoff {
                if &c_here >= cut {
                    continue;
                }
            }
            if let Some((b, _)) = &best {
                if &c_here >= b {
                    continue; // cannot improve the max
                }
            }
            let next = eliminated | (1u64 << v);
            let total = if next == ctx.full {
                Some(c_here.clone())
            } else {
                solve(ctx, next).map(|(rest, _)| rest.max(c_here.clone()))
            };
            if let Some(t) = total {
                let better = match &best {
                    None => true,
                    Some((b, _)) => &t < b,
                };
                if better {
                    best = Some((t, v));
                }
            }
        }
        ctx.memo.insert(eliminated, best.clone());
        best
    }

    let mut ctx = Ctx {
        adj: &adj,
        n,
        full,
        cost,
        cutoff,
        memo: HashMap::new(),
        bag_cost_cache: HashMap::new(),
    };
    let (best_cost, _) = solve(&mut ctx, 0)?;
    // Reconstruct the order greedily from the memo.
    let mut order = Vec::with_capacity(n);
    let mut eliminated = 0u64;
    while eliminated != full {
        let (_, v) = ctx
            .memo
            .get(&eliminated)
            .cloned()
            .flatten()
            .expect("memo holds the optimal chain");
        order.push(v);
        eliminated |= 1 << v;
    }
    Some((best_cost, order))
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
    fn cutoff_prunes() {
        let h = generators::clique(6);
        assert!(optimal_elimination(&h, |b| b.len(), Some(5)).is_none());
        assert!(optimal_elimination(&h, |b| b.len(), Some(7)).is_some());
    }
}
