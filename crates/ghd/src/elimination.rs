//! Exact width computation by dynamic programming over elimination
//! orderings — the exponential-time baseline in the spirit of
//! Moll–Tazari–Thurley \[42\].
//!
//! It is exact `fhw`'s primary path: `fhd::exact` answers every block of
//! at most [`MAX_EXACT_VERTICES`] = 24 vertices with [`optimal_elimination`]
//! under the cutoff seeded by the heuristic bound. For `ghw` it is the
//! fallback when the edge-union space is infeasible, and an *independent*
//! implementation the cross-check tests in [`crate::exact`] certify the
//! edge-union engine against.
//!
//! For any *monotone* bag-cost function `c` (both `rho` and `rho*` are
//! monotone under set inclusion), the minimum over all tree decompositions
//! of the maximum bag cost is attained on a decomposition whose bags are the
//! maximal cliques of a minimal triangulation of the primal graph, and every
//! minimal triangulation arises from an elimination ordering. The classic
//! `O(2^n)` subset DP over orderings is therefore exact. Edge coverage
//! (condition 1) is automatic: hyperedges are primal cliques and every tree
//! decomposition of the primal graph puts each clique inside some bag
//! (Lemma 2.8).

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

/// Builds the tree decomposition induced by an elimination order: node `t`
/// has bag `bag(order[t], eliminated_before_t)`; its parent is the node of
/// the earliest-eliminated later vertex in its bag.
pub fn decomposition_from_order(
    h: &Hypergraph,
    order: &[usize],
) -> Vec<(VertexSet, Option<usize>)> {
    let n = h.num_vertices();
    assert_eq!(order.len(), n);
    let adj = h.primal_graph();
    let mut position = vec![0usize; n];
    for (t, &v) in order.iter().enumerate() {
        position[v] = t;
    }
    let mut bags: Vec<VertexSet> = Vec::with_capacity(n);
    let mut eliminated = 0u64;
    for &v in order {
        // Recompute bag(v, eliminated).
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
        bags.push(bag);
        eliminated |= 1 << v;
    }
    // Parent: node of the earliest-later vertex in bag \ {v}.
    let mut parents: Vec<Option<usize>> = vec![None; n];
    for (t, &v) in order.iter().enumerate() {
        let next = bags[t]
            .iter()
            .filter(|&u| u != v && position[u] > t)
            .min_by_key(|&u| position[u]);
        parents[t] = next.map(|u| position[u]);
    }
    bags.into_iter().zip(parents).collect()
}

/// Assembles a [`Decomposition`] from elimination-order bags, computing each
/// node's weight function with `cover_for`. The forest is rooted at the last
/// eliminated vertex; earlier roots (disconnected hypergraphs) attach there.
pub fn assemble<F>(h: &Hypergraph, order: &[usize], cover_for: F) -> Decomposition
where
    F: FnMut(&VertexSet) -> Vec<(usize, arith::Rational)>,
{
    let shape = decomposition_from_order(h, order);
    let n = shape.len();
    let make_node = |bag: &VertexSet, cover_for: &mut F| Node {
        bag: bag.clone(),
        weights: cover_for(bag),
    };
    // Root is the last node; every parentless node other than it hangs off it.
    let mut ids = vec![usize::MAX; n];
    let mut cover = cover_for;
    let mut d = Decomposition::new(make_node(&shape[n - 1].0, &mut cover));
    ids[n - 1] = d.root();
    // Process from the back so parents exist before children.
    for t in (0..n - 1).rev() {
        let parent = shape[t].1.unwrap_or(n - 1);
        let parent_id = ids[parent];
        assert_ne!(parent_id, usize::MAX, "parents are later in the order");
        ids[t] = d.add_child(parent_id, make_node(&shape[t].0, &mut cover));
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
        let (_, order) = bag_size_cost(&h).unwrap();
        let shape = decomposition_from_order(&h, &order);
        // Exactly one parentless node (the last eliminated).
        assert_eq!(shape.iter().filter(|(_, p)| p.is_none()).count(), 1);
        // Every edge inside some bag.
        for e in h.edges() {
            assert!(shape.iter().any(|(b, _)| e.is_subset(b)));
        }
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
                .map(|e| (e, arith::Rational::one()))
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
