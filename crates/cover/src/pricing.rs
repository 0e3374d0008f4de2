//! Reusable LP pricing contexts for the `ρ*` hot path.
//!
//! The engine prices each bag through the **packing dual** of the covering
//! LP: `max { 1·y : y(e ∩ bag) <= 1 for every useful edge e, y >= 0 }`.
//! By strong duality its optimum *is* `ρ*(bag)`, and because every row is
//! `<=` with unit right-hand side the all-slack basis is feasible — the
//! solve is single-phase, with no artificial variables and typically far
//! fewer pivots than the primal's two phases. The optimal cover weights
//! come back for free as the duals of the packing rows
//! ([`lp::SimplexWorkspace::dual_values`]): the reduced cost of edge `e`'s
//! slack column at the optimum is exactly `γ(e)`.
//!
//! Every coefficient, right-hand side and objective entry of the packing
//! LP is 0 or 1, so the workspace pivots it on its fraction-free `i64`
//! tableau and turns only the optimum and the duals into [`Rational`]s
//! (see the `lp` crate's README; an `i64` overflow would restart the solve
//! over rationals, with the same pivots and counters).
//!
//! Two ways to price, one context either way:
//!
//! * **Warm** ([`PricingContext::price_warm`]): every search prices on its
//!   caller's thread in a deterministic order — the heuristic upper
//!   bounds, the elimination DP and the engine's memo misses — so it
//!   carries the previous bag's basis forward; neighboring bags share most
//!   packing rows and the re-seated basis usually needs only a handful of
//!   pivots.
//! * **Cold** ([`PricingContext::price`]): solves each bag from scratch, so
//!   its pivot count is a pure function of the bag. The context is reused
//!   for its *buffers* (tableau rows, constraint `Vec`s, column scratch),
//!   not its basis. It is the reference the warm path is checked and
//!   benchmarked against.

use arith::Rational;
use hypergraph::{Hypergraph, VertexSet};
use lp::{Cmp, LinearProgram, LpResult, LpStats, SimplexWorkspace};

/// A reusable `ρ*` pricing context: a simplex workspace plus the scratch
/// buffers needed to build packing LPs without per-bag allocations.
pub struct PricingContext {
    ws: SimplexWorkspace,
    /// The packing program, rebuilt in place per bag (rows recycled).
    lp: LinearProgram,
    /// Scratch: vertex -> packing column (`usize::MAX` when absent).
    col_of: Vec<usize>,
    /// Scratch: union of the useful edges, for the coverability check.
    covered: VertexSet,
}

impl Default for PricingContext {
    fn default() -> Self {
        Self::new()
    }
}

impl PricingContext {
    /// An empty context.
    pub fn new() -> Self {
        PricingContext {
            ws: SimplexWorkspace::new(),
            lp: LinearProgram::maximize(0),
            col_of: Vec::new(),
            covered: VertexSet::new(),
        }
    }

    /// The LP counters accumulated by every solve through this context.
    pub fn stats(&self) -> LpStats {
        self.ws.stats()
    }

    /// `ρ*(target)` with its sparse optimal cover, via a *cold* dual
    /// packing solve. Per-bag-pure: the pivot count depends only on
    /// `(h, target)`, never on what this context solved before.
    pub fn price(
        &mut self,
        h: &Hypergraph,
        target: &VertexSet,
    ) -> Option<(Rational, Vec<(usize, Rational)>)> {
        self.price_impl(h, target, false)
    }

    /// As [`Self::price`], but warm-starting from the previous bag's
    /// retained basis. Only for deterministic sequential pricing — the
    /// pivot count depends on the solve *sequence*.
    pub fn price_warm(
        &mut self,
        h: &Hypergraph,
        target: &VertexSet,
    ) -> Option<(Rational, Vec<(usize, Rational)>)> {
        self.price_impl(h, target, true)
    }

    fn price_impl(
        &mut self,
        h: &Hypergraph,
        target: &VertexSet,
        warm: bool,
    ) -> Option<(Rational, Vec<(usize, Rational)>)> {
        let _span = obs::span!("price", kind = "rho_star", warm = warm, bag = target.len());
        if target.is_empty() {
            return Some((Rational::zero(), Vec::new()));
        }
        let useful = h.edges_intersecting(target);
        // Coverability: every target vertex must lie in some edge.
        self.covered.clear();
        for &e in &useful {
            self.covered.union_with(h.edge(e));
        }
        if !target.is_subset(&self.covered) {
            return None;
        }
        // One packing variable per target vertex, in iteration order.
        self.col_of.resize(h.num_vertices(), usize::MAX);
        let mut cols = 0usize;
        for v in target.iter() {
            self.col_of[v] = cols;
            cols += 1;
        }
        self.lp.reset(cols);
        for c in 0..cols {
            self.lp.set_objective(c, Rational::one());
        }
        for &e in &useful {
            // Rows are labeled by the global edge id, so a warm basis
            // re-seats onto the rows both bags share.
            let row = self.lp.begin_row(e as u64, Cmp::Le, Rational::one());
            for v in h.edge(e).iter() {
                if target.contains(v) {
                    row.push((self.col_of[v], Rational::one()));
                }
            }
        }
        for v in target.iter() {
            self.col_of[v] = usize::MAX;
        }
        let res = if warm {
            self.ws.solve_warm(&self.lp)
        } else {
            self.ws.solve(&self.lp)
        };
        match res {
            LpResult::Optimal { value, .. } => {
                let weights: Vec<(usize, Rational)> = useful
                    .iter()
                    .zip(self.ws.dual_values())
                    .filter(|(_, w)| !w.is_zero())
                    .map(|(&e, w)| (e, w))
                    .collect();
                debug_assert!(target.iter().all(|v| {
                    let mut total = Rational::zero();
                    for (e, w) in &weights {
                        if h.edge(*e).contains(v) {
                            total = &total + w;
                        }
                    }
                    total >= Rational::one()
                }));
                debug_assert_eq!(
                    weights.iter().map(|(_, w)| w.clone()).sum::<Rational>(),
                    value
                );
                Some((value, weights))
            }
            // Every packing variable is bounded by some row (coverability
            // was checked), and the all-slack basis is feasible.
            other => unreachable!("packing LP of a coverable bag cannot be {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;
    use hypergraph::generators;

    #[test]
    fn dual_packing_agrees_with_the_primal_cover() {
        let mut ctx = PricingContext::new();
        for h in [
            generators::cycle(3),
            generators::cycle(5),
            generators::clique(5),
            generators::example_4_3(),
            generators::example_5_1(4),
            generators::star(6),
        ] {
            let target = h.all_vertices();
            let (weight, weights) = ctx.price(&h, &target).expect("coverable");
            let primal = crate::fractional_cover(&h, &target).expect("coverable");
            assert_eq!(weight, primal.weight);
            // The recovered weights are a feasible cover of optimal weight.
            let mut dense = vec![Rational::zero(); h.num_edges()];
            for (e, w) in &weights {
                dense[*e] = w.clone();
            }
            assert!(crate::is_fractional_cover(&h, &dense, &target));
        }
        assert_eq!(ctx.stats().cold_solves, 6);
        assert_eq!(ctx.stats().warm_starts, 0);
    }

    #[test]
    fn empty_and_uncoverable_targets() {
        let mut ctx = PricingContext::new();
        let h = hypergraph::Hypergraph::from_edges(3, vec![vec![0, 1]]);
        assert_eq!(
            ctx.price(&h, &VertexSet::new()),
            Some((Rational::zero(), Vec::new()))
        );
        assert_eq!(ctx.price(&h, &VertexSet::from_iter([2])), None);
        // Neither path touched the LP.
        assert_eq!(ctx.stats(), LpStats::default());
    }

    #[test]
    fn warm_sequence_matches_cold_values() {
        // Walk the clique's (n-1)-subsets warm and cold; values agree and
        // the warm path records warm starts.
        let h = generators::clique(5);
        let mut warm = PricingContext::new();
        let mut cold = PricingContext::new();
        for v in 0..h.num_vertices() {
            let mut bag = h.all_vertices();
            bag.remove(v);
            let (ww, _) = warm.price_warm(&h, &bag).expect("coverable");
            let (cw, _) = cold.price(&h, &bag).expect("coverable");
            assert_eq!(ww, cw);
            assert_eq!(ww, rat(2, 1));
        }
        assert!(warm.stats().warm_starts >= 1);
        assert!(warm.stats().pivots <= cold.stats().pivots);
    }

    #[test]
    fn pool_prices_through_the_cache_exactly_once() {
        let h = generators::cycle(3);
        let memo = crate::PriceMemo::new();
        let mut ctx = PricingContext::new();
        let bag = h.all_vertices();
        let first = memo
            .get_or_insert_with(&bag, || ctx.price(&h, &bag))
            .expect("coverable");
        assert_eq!(first.0, rat(3, 2));
        let again = memo
            .get_or_insert_with(&bag, || ctx.price(&h, &bag))
            .expect("coverable");
        assert_eq!(first, again);
        assert_eq!(memo.counters(), (1, 1));
        let stats = ctx.stats();
        assert_eq!(stats.cold_solves, 1, "second lookup was a cache hit");
        assert_eq!(stats.warm_starts, 0);
    }
}
