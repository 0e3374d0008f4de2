//! Heuristic, witness-backed upper bounds on `ghw`/`fhw`.
//!
//! Every elimination ordering of the primal graph induces a tree
//! decomposition (bags are a vertex plus its not-yet-eliminated neighbors
//! in the progressively filled graph; hyperedges are primal cliques and
//! land in the bag of their earliest-eliminated vertex), so pricing its
//! bags with any monotone cost — `ρ` for GHDs, `ρ*` for FHDs — yields a
//! valid decomposition whose width upper-bounds the exact one. This
//! module computes such bounds from the two classic greedy orderings
//! (**min-degree** and **min-fill**), improves the better one with a
//! greedy local-search pass (adjacent swaps around the most expensive
//! elimination step), and returns the cheaper result *with its witness*.
//!
//! The witness is what makes the bound load-bearing: the exact searches
//! seed their engine cutoff with `ub` — the search then only has to find
//! something strictly better, and a failed search *is* the exact answer
//! `ub`, certified by the witness in hand.
//!
//! The orderings and the local search are polynomial, but the bound is
//! not: every distinct bag is priced exactly. Under `ρ` that is a
//! branch-and-bound set cover (`cover::integral_cover`, exponential in
//! the worst case, and elimination bags on dense blocks are large); under
//! `ρ*` it is one LP per bag. Unlike the exact elimination DP the
//! construction has no vertex limit, but on dense blocks its pricing can
//! cost more than the search it seeds.

use crate::elimination::{assemble, bags_of_order, eliminate};
use arith::Rational;
use decomp::Decomposition;
use hypergraph::{Hypergraph, VertexSet};
use std::collections::HashMap;

/// Which greedy elimination ordering to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderHeuristic {
    /// Eliminate a vertex of minimum degree in the filled graph.
    MinDegree,
    /// Eliminate a vertex whose elimination adds the fewest fill edges.
    MinFill,
}

/// Maximum local-search improvement rounds per ordering.
const IMPROVE_ROUNDS: usize = 16;

/// Below this many vertices [`upper_bound`] runs the min-degree ordering
/// alone, skipping min-fill and the local-search pass: on tiny instances
/// the greedy orderings coincide (or the exact search is trivial anyway),
/// and the extra pricing would cost more than the search it seeds. A
/// looser bound never affects exactness — only how early the cutoff
/// gates arm.
const FULL_EFFORT_VERTICES: usize = 9;

/// A priced bag: its cost and the witness edge weights recorded on the
/// decomposition node.
pub type PricedBag<C> = (C, Vec<(usize, Rational)>);

/// The greedy elimination ordering of `h`'s primal graph under
/// `heuristic`. Ties break toward the smallest vertex index, so the
/// ordering — and everything derived from it — is deterministic.
pub fn elimination_order(h: &Hypergraph, heuristic: OrderHeuristic) -> Vec<usize> {
    let n = h.num_vertices();
    let mut adj = h.primal_graph();
    let mut alive = h.all_vertices();
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = alive
            .iter()
            .min_by_key(|&v| {
                let neighbors = adj[v].intersection(&alive);
                match heuristic {
                    OrderHeuristic::MinDegree => neighbors.len(),
                    OrderHeuristic::MinFill => fill_in(&adj, &neighbors),
                }
            })
            .expect("alive vertices remain");
        eliminate(&mut adj, &mut alive, v);
        order.push(v);
    }
    order
}

/// Number of fill edges eliminating a vertex with this neighborhood adds.
fn fill_in(adj: &[VertexSet], neighbors: &VertexSet) -> usize {
    let mut missing = 0usize;
    let nbrs: Vec<usize> = neighbors.to_vec();
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            if !adj[a].contains(b) {
                missing += 1;
            }
        }
    }
    missing
}

/// The width (maximum bag cost) of `order` and the position achieving it,
/// pricing through the shared memo.
fn order_width<C: Ord + Clone>(
    h: &Hypergraph,
    order: &[usize],
    price: &mut impl FnMut(&VertexSet) -> PricedBag<C>,
    memo: &mut HashMap<VertexSet, PricedBag<C>>,
) -> (C, usize) {
    let bags = bags_of_order(h, order);
    let mut best: Option<(C, usize)> = None;
    for (t, bag) in bags.iter().enumerate() {
        let (cost, _) = memo
            .entry(bag.clone())
            .or_insert_with(|| price(bag))
            .clone();
        let improves = match &best {
            None => true,
            Some((c, _)) => cost > *c,
        };
        if improves {
            best = Some((cost, t));
        }
    }
    best.expect("non-empty order")
}

/// Greedy local search: swap the most expensive elimination step with a
/// neighbor while it strictly lowers the width, up to
/// [`IMPROVE_ROUNDS`] rounds.
fn improve_order<C: Ord + Clone>(
    h: &Hypergraph,
    order: &mut [usize],
    price: &mut impl FnMut(&VertexSet) -> PricedBag<C>,
    memo: &mut HashMap<VertexSet, PricedBag<C>>,
) -> C {
    let (mut width, mut worst) = order_width(h, order, price, memo);
    for _ in 0..IMPROVE_ROUNDS {
        let mut improved = false;
        for p in [worst.wrapping_sub(1), worst + 1] {
            if p >= order.len() || worst >= order.len() {
                continue;
            }
            order.swap(worst, p);
            let (w, at) = order_width(h, order, price, memo);
            if w < width {
                width = w;
                worst = at;
                improved = true;
                break;
            }
            order.swap(worst, p);
        }
        if !improved {
            break;
        }
    }
    width
}

/// Computes a heuristic upper bound on the width of `h` under the
/// monotone bag price `price` (e.g. `ρ` with its cover edges, or `ρ*`
/// with its LP weights), together with a valid witness decomposition of
/// exactly that width.
///
/// `h` must be non-empty and free of isolated vertices (every bag must be
/// priceable) — the same contract as the exact searches.
pub fn upper_bound<C: Ord + Clone>(
    h: &Hypergraph,
    mut price: impl FnMut(&VertexSet) -> PricedBag<C>,
) -> (C, Decomposition) {
    assert!(h.num_vertices() > 0, "empty hypergraph");
    let _span = obs::span!(
        "candgen",
        stage = "upper_bound",
        vertices = h.num_vertices(),
        edges = h.num_edges()
    );
    let full_effort = h.num_vertices() >= FULL_EFFORT_VERTICES;
    let heuristics: &[OrderHeuristic] = if full_effort {
        &[OrderHeuristic::MinDegree, OrderHeuristic::MinFill]
    } else {
        &[OrderHeuristic::MinDegree]
    };
    let mut memo: HashMap<VertexSet, PricedBag<C>> = HashMap::new();
    let mut best: Option<(C, Vec<usize>)> = None;
    for &heuristic in heuristics {
        let mut order = elimination_order(h, heuristic);
        let width = if full_effort {
            improve_order(h, &mut order, &mut price, &mut memo)
        } else {
            order_width(h, &order, &mut price, &mut memo).0
        };
        let improves = match &best {
            None => true,
            Some((w, _)) => width < *w,
        };
        if improves {
            best = Some((width, order));
        }
    }
    let (width, order) = best.expect("at least one ordering");
    let witness = assemble(h, &order, |bag| {
        memo.get(bag).expect("every bag priced").1.clone()
    });
    (width, witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate;
    use hypergraph::generators;

    fn rho_price(h: &Hypergraph) -> impl FnMut(&VertexSet) -> PricedBag<usize> + '_ {
        |bag| {
            let c = cover::integral_cover(h, bag).expect("no isolated vertices");
            let w = c.weight();
            (
                w,
                c.edges.into_iter().map(|e| (e, Rational::one())).collect(),
            )
        }
    }

    fn rho_star_price(h: &Hypergraph) -> impl FnMut(&VertexSet) -> PricedBag<Rational> + '_ {
        |bag| {
            let c = cover::fractional_cover(h, bag).expect("no isolated vertices");
            (
                c.weight.clone(),
                c.weights
                    .into_iter()
                    .enumerate()
                    .filter(|(_, w)| !w.is_zero())
                    .collect(),
            )
        }
    }

    #[test]
    fn ub_witnesses_validate_and_match_their_width() {
        for h in [
            generators::path(6),
            generators::cycle(7),
            generators::clique(5),
            generators::grid(3, 3),
            generators::example_4_3(),
            generators::triangle_chain(3),
        ] {
            let (ub, d) = upper_bound(&h, rho_price(&h));
            assert_eq!(validate::validate_ghd(&h, &d), Ok(()), "{}", d.render(&h));
            assert!(d.width() <= Rational::from(ub));
            let (ubf, df) = upper_bound(&h, rho_star_price(&h));
            assert_eq!(validate::validate_fhd(&h, &df), Ok(()), "{}", df.render(&h));
            assert!(df.width() <= ubf);
        }
    }

    #[test]
    fn ub_is_tight_on_easy_families() {
        // Acyclic: ub = 1; cycles: ub = 2; triangle fhw: 3/2.
        let (ub, _) = upper_bound(&generators::path(8), rho_price(&generators::path(8)));
        assert_eq!(ub, 1);
        let c = generators::cycle(9);
        let (ub, _) = upper_bound(&c, rho_price(&c));
        assert_eq!(ub, 2);
        let t = generators::cycle(3);
        let (ub, _) = upper_bound(&t, rho_star_price(&t));
        assert_eq!(ub, Rational::from_frac(3, 2));
    }

    #[test]
    fn scales_past_the_exact_windows() {
        // 26 vertices: beyond both the subset gate and the elimination DP.
        let c = generators::cycle(26);
        let (ub, d) = upper_bound(&c, rho_price(&c));
        assert_eq!(ub, 2);
        assert_eq!(validate::validate_ghd(&c, &d), Ok(()));
    }

    #[test]
    fn orders_are_permutations() {
        let h = generators::grid(3, 4);
        for heuristic in [OrderHeuristic::MinDegree, OrderHeuristic::MinFill] {
            let mut order = elimination_order(&h, heuristic);
            order.sort_unstable();
            assert_eq!(order, (0..12).collect::<Vec<_>>());
        }
    }
}
