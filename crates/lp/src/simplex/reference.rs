//! The divide-by-pivot rational tableau that the fraction-free tableau
//! replaced, kept as the reference of the equivalence tests: it makes the
//! same Bland decisions on `T` that the production tableau makes on
//! `M = d·T`, so results, duals and counters must agree exactly.

#![allow(clippy::needless_range_loop)]

use super::{effective_cmp, Cmp, LinearProgram, LpResult, LpStats, Sense, WarmBasis};
use arith::Rational;
use std::collections::HashMap;

/// One-shot solve on the reference tableau.
pub(super) fn solve(lp: &LinearProgram) -> LpResult {
    let mut tab = Tableau::default();
    tab.build_into(lp);
    let mut pivots = 0u64;
    tab.solve(lp, &mut pivots)
}

/// The reference workspace: the same warm-start contract and counters as
/// [`super::SimplexWorkspace`], on the reference tableau.
#[derive(Default)]
pub(super) struct Workspace {
    tab: Tableau,
    warm: Option<WarmBasis>,
    row_of: HashMap<u64, usize>,
    stats: LpStats,
}

impl Workspace {
    pub(super) fn stats(&self) -> LpStats {
        self.stats
    }

    pub(super) fn solve(&mut self, lp: &LinearProgram) -> LpResult {
        self.warm = None;
        self.stats.cold_solves += 1;
        self.tab.build_into(lp);
        let res = self.tab.solve(lp, &mut self.stats.pivots);
        self.retain(lp, &res);
        res
    }

    pub(super) fn solve_warm(&mut self, lp: &LinearProgram) -> LpResult {
        let Some(warm) = self.warm.take() else {
            return self.solve(lp);
        };
        if warm.num_vars != lp.num_vars || !lp.is_slack_feasible() {
            return self.solve(lp);
        }
        self.tab.build_into(lp);
        self.row_of.clear();
        for (i, &label) in lp.labels.iter().enumerate() {
            self.row_of.insert(label, i);
        }
        for &(label, var) in &warm.rows {
            let Some(&row) = self.row_of.get(&label) else {
                continue;
            };
            if self.tab.basis[row] < self.tab.num_decision {
                continue;
            }
            if self.tab.rows[row][var].is_zero() {
                continue;
            }
            self.tab.crash_pivot(row, var);
        }
        let m = self.tab.rows.len();
        let rhs_col = self.tab.num_cols;
        let crashed_feasible = (0..m).all(|i| !self.tab.rows[i][rhs_col].is_negative());
        if !crashed_feasible {
            self.stats.cold_solves += 1;
            self.tab.build_into(lp);
            let res = self.tab.solve(lp, &mut self.stats.pivots);
            self.retain(lp, &res);
            return res;
        }
        self.stats.warm_starts += 1;
        let res = self.tab.solve(lp, &mut self.stats.pivots);
        self.retain(lp, &res);
        res
    }

    pub(super) fn dual_values(&self) -> Vec<Rational> {
        (0..self.tab.rows.len())
            .map(|i| self.tab.obj_row[self.tab.slack_col[i]].clone())
            .collect()
    }

    fn retain(&mut self, lp: &LinearProgram, res: &LpResult) {
        self.warm = None;
        if !matches!(res, LpResult::Optimal { .. }) || !lp.is_slack_feasible() {
            return;
        }
        let rows = self
            .tab
            .basis
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b < self.tab.num_decision)
            .map(|(i, &b)| (lp.labels[i], b))
            .collect();
        self.warm = Some(WarmBasis {
            num_vars: lp.num_vars,
            rows,
        });
    }
}

/// Dense simplex tableau. Column layout: decision vars, then slack/surplus
/// vars, then artificial vars; the last column is the right-hand side.
/// Buffers are reused across `build_into` calls.
#[derive(Default)]
struct Tableau {
    rows: Vec<Vec<Rational>>,
    /// Basis variable of each row.
    basis: Vec<usize>,
    /// Slack/surplus column of each row (`usize::MAX` for `=` rows).
    slack_col: Vec<usize>,
    /// Final reduced-cost row of the last `solve` (phase 2).
    obj_row: Vec<Rational>,
    num_decision: usize,
    num_structural: usize,
    /// Column index where artificial variables start.
    art_start: usize,
    /// Total columns excluding RHS.
    num_cols: usize,
}

impl Tableau {
    /// (Re)builds the tableau for `lp` in place, reusing row buffers.
    fn build_into(&mut self, lp: &LinearProgram) {
        let m = lp.constraints.len();
        let n = lp.num_vars;

        // Count slack/surplus and artificial columns.
        let mut num_slack = 0usize;
        let mut num_art = 0usize;
        for c in &lp.constraints {
            let rhs_neg = c.rhs.is_negative();
            let eff = effective_cmp(c.cmp, rhs_neg);
            match eff {
                Cmp::Le => num_slack += 1,
                Cmp::Ge => {
                    num_slack += 1;
                    num_art += 1;
                }
                Cmp::Eq => num_art += 1,
            }
        }

        let num_structural = n + num_slack;
        let num_cols = num_structural + num_art;
        self.rows.resize_with(m, Vec::new);
        for row in &mut self.rows {
            row.clear();
            row.resize(num_cols + 1, Rational::zero());
        }
        self.basis.clear();
        self.basis.resize(m, 0);
        self.slack_col.clear();
        self.slack_col.resize(m, usize::MAX);
        let mut slack_idx = n;
        let mut art_idx = num_structural;

        for (i, c) in lp.constraints.iter().enumerate() {
            let rhs_neg = c.rhs.is_negative();
            let flip = rhs_neg;
            for (v, coeff) in &c.coeffs {
                debug_assert!(*v < n, "constraint references unknown variable {v}");
                let val = if flip { -coeff } else { coeff.clone() };
                self.rows[i][*v] = &self.rows[i][*v] + &val;
            }
            self.rows[i][num_cols] = if flip { -&c.rhs } else { c.rhs.clone() };
            match effective_cmp(c.cmp, rhs_neg) {
                Cmp::Le => {
                    self.rows[i][slack_idx] = Rational::one();
                    self.basis[i] = slack_idx;
                    self.slack_col[i] = slack_idx;
                    slack_idx += 1;
                }
                Cmp::Ge => {
                    self.rows[i][slack_idx] = -Rational::one();
                    self.slack_col[i] = slack_idx;
                    slack_idx += 1;
                    self.rows[i][art_idx] = Rational::one();
                    self.basis[i] = art_idx;
                    art_idx += 1;
                }
                Cmp::Eq => {
                    self.rows[i][art_idx] = Rational::one();
                    self.basis[i] = art_idx;
                    art_idx += 1;
                }
            }
        }

        self.num_decision = n;
        self.num_structural = num_structural;
        self.art_start = num_structural;
        self.num_cols = num_cols;
    }

    /// Builds the reduced-cost row for objective `costs` (indexed over all
    /// columns), zeroing out basic variables. Returns `(row, value)` where
    /// `value` is the current objective value.
    fn reduce_objective(&self, costs: &[Rational]) -> (Vec<Rational>, Rational) {
        let mut row = costs.to_vec();
        let mut value = Rational::zero();
        for (i, &b) in self.basis.iter().enumerate() {
            if row[b].is_zero() {
                continue;
            }
            let factor = row[b].clone();
            for j in 0..self.num_cols {
                let delta = &factor * &self.rows[i][j];
                row[j] = &row[j] - &delta;
            }
            value = &value - &(&factor * &self.rows[i][self.num_cols]);
        }
        (row, value)
    }

    /// Runs simplex iterations (minimization) until optimal or unbounded.
    /// `allowed_cols` restricts entering columns. Returns `None` on
    /// unboundedness; otherwise the final objective value (negated running
    /// total, i.e. the true minimum). `pivots` counts the iterations.
    fn iterate(
        &mut self,
        obj_row: &mut [Rational],
        obj_value: &mut Rational,
        allowed_cols: usize,
        pivots: &mut u64,
    ) -> Option<()> {
        loop {
            // Bland's rule: the lowest-index column with a negative reduced cost.
            let entering = (0..allowed_cols).find(|&j| obj_row[j].is_negative());
            let Some(j) = entering else {
                return Some(());
            };
            // Ratio test; break ties by smallest basis variable (Bland).
            let mut leaving: Option<(usize, Rational)> = None;
            for i in 0..self.rows.len() {
                if !self.rows[i][j].is_positive() {
                    continue;
                }
                let ratio = &self.rows[i][self.num_cols] / &self.rows[i][j];
                match &leaving {
                    None => leaving = Some((i, ratio)),
                    Some((best_i, best)) => {
                        if ratio < *best || (ratio == *best && self.basis[i] < self.basis[*best_i])
                        {
                            leaving = Some((i, ratio));
                        }
                    }
                }
            }
            let Some((pivot_row, _)) = leaving else {
                return None; // unbounded direction
            };
            *pivots += 1;
            self.pivot(pivot_row, j, obj_row, obj_value);
        }
    }

    /// Re-seats `pivot_col` as the basic variable of `pivot_row` by plain
    /// Gaussian elimination — no ratio test, no objective row. Used to
    /// crash a retained basis into a freshly built tableau; the entry may
    /// be negative (feasibility is checked afterwards on the RHS column).
    fn crash_pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let mut dummy_row: [Rational; 0] = [];
        let mut dummy_val = Rational::zero();
        self.pivot(pivot_row, pivot_col, &mut dummy_row, &mut dummy_val);
    }

    fn pivot(
        &mut self,
        pivot_row: usize,
        pivot_col: usize,
        obj_row: &mut [Rational],
        obj_value: &mut Rational,
    ) {
        let pivot = self.rows[pivot_row][pivot_col].clone();
        debug_assert!(!pivot.is_zero());
        if pivot != Rational::one() {
            for j in 0..=self.num_cols {
                if !self.rows[pivot_row][j].is_zero() {
                    self.rows[pivot_row][j] = &self.rows[pivot_row][j] / &pivot;
                }
            }
        }
        for i in 0..self.rows.len() {
            if i == pivot_row || self.rows[i][pivot_col].is_zero() {
                continue;
            }
            let factor = self.rows[i][pivot_col].clone();
            for j in 0..=self.num_cols {
                if !self.rows[pivot_row][j].is_zero() {
                    let delta = &factor * &self.rows[pivot_row][j];
                    self.rows[i][j] = &self.rows[i][j] - &delta;
                }
            }
        }
        if !obj_row.is_empty() && !obj_row[pivot_col].is_zero() {
            let factor = obj_row[pivot_col].clone();
            for j in 0..self.num_cols {
                if !self.rows[pivot_row][j].is_zero() {
                    let delta = &factor * &self.rows[pivot_row][j];
                    obj_row[j] = &obj_row[j] - &delta;
                }
            }
            *obj_value = &*obj_value - &(&factor * &self.rows[pivot_row][self.num_cols]);
        }
        self.basis[pivot_row] = pivot_col;
    }

    /// Two-phase solve from the current basis (phase 1 runs only when the
    /// built tableau needed artificial variables). The final reduced-cost
    /// row is kept in `self.obj_row` for [`SimplexWorkspace::dual_values`].
    fn solve(&mut self, lp: &LinearProgram, pivots: &mut u64) -> LpResult {
        // Phase 1: minimize the sum of artificial variables.
        if self.art_start < self.num_cols {
            let mut costs = vec![Rational::zero(); self.num_cols];
            for c in self.art_start..self.num_cols {
                costs[c] = Rational::one();
            }
            let (mut obj_row, mut obj_value) = self.reduce_objective(&costs);
            // Phase 1 is always bounded below by 0.
            self.iterate(&mut obj_row, &mut obj_value, self.num_cols, pivots)
                .expect("phase 1 cannot be unbounded");
            // Current phase-1 objective = -obj_value bookkeeping: obj_value
            // tracks -(c_B x_B); the attained minimum is -obj_value.
            let attained = -obj_value;
            if attained.is_positive() {
                return LpResult::Infeasible;
            }
            // Drive any degenerate artificial variables out of the basis.
            for i in 0..self.rows.len() {
                if self.basis[i] < self.art_start {
                    continue;
                }
                let pivot_col = (0..self.art_start).find(|&j| !self.rows[i][j].is_zero());
                if let Some(j) = pivot_col {
                    // The artificial basic variable is at value 0, so pivoting
                    // on any nonzero entry keeps feasibility.
                    if self.rows[i][j].is_negative() {
                        for col in 0..=self.num_cols {
                            self.rows[i][col] = -&self.rows[i][col];
                        }
                    }
                    self.crash_pivot(i, j);
                }
                // If the whole row is zero on structural columns the
                // constraint is redundant; leaving the artificial basic at
                // value zero is harmless.
            }
        }

        // Phase 2: optimize the real objective (as minimization), artificial
        // columns barred from entering.
        let mut costs = vec![Rational::zero(); self.num_cols];
        for v in 0..lp.num_vars {
            costs[v] = match lp.sense {
                Sense::Minimize => lp.objective[v].clone(),
                Sense::Maximize => -&lp.objective[v],
            };
        }
        // Artificial columns must stay at zero: bar them by leaving their
        // reduced costs non-negative and never selecting them (allowed_cols).
        let (mut obj_row, mut obj_value) = self.reduce_objective(&costs);
        let bounded = self
            .iterate(&mut obj_row, &mut obj_value, self.num_structural, pivots)
            .is_some();
        self.obj_row = obj_row;
        if !bounded {
            return LpResult::Unbounded;
        }

        let mut solution = vec![Rational::zero(); self.num_decision];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.num_decision {
                solution[b] = self.rows[i][self.num_cols].clone();
            }
        }
        let min_value = -obj_value;
        let value = match lp.sense {
            Sense::Minimize => min_value,
            Sense::Maximize => -min_value,
        };
        LpResult::Optimal { value, solution }
    }
}

/// The fraction-free tableau against the reference: the same results,
/// duals and counters on the programs the pricing path builds, and the
/// same results on general programs.
mod equivalence {
    use super::super::{Cmp, LinearProgram, SimplexWorkspace};
    use super::{solve as reference_solve, Workspace as ReferenceWorkspace};
    use arith::{rat, Rational};
    use proptest::prelude::*;

    /// A linear congruential stream for the generators below.
    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        }
    }

    /// A hypergraph (every vertex in some edge) and a walk of bags over it,
    /// each to be priced warm or cold.
    #[derive(Debug, Clone)]
    struct PackingWalk {
        edges: Vec<Vec<usize>>,
        bags: Vec<(Vec<usize>, bool)>,
    }

    fn arb_packing_walk() -> impl Strategy<Value = PackingWalk> {
        (3usize..30, 2usize..24, 1usize..12, any::<u64>()).prop_map(|(n, m, steps, seed)| {
            let mut next = lcg(seed);
            let width = 2 + next(4) as usize;
            let mut edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let mut e: Vec<usize> = (0..width).map(|_| next(n as u64) as usize).collect();
                    e.sort_unstable();
                    e.dedup();
                    e
                })
                .collect();
            for v in 0..n {
                if !edges.iter().any(|e| e.contains(&v)) {
                    let e = &mut edges[next(m as u64) as usize];
                    e.push(v);
                    e.sort_unstable();
                }
            }
            // Neighboring bags: each toggles a few vertices of the last.
            let mut bag: Vec<bool> = (0..n).map(|_| next(2) == 0).collect();
            let bags = (0..steps)
                .map(|_| {
                    // Toggle a few vertices, or swap one for another so that
                    // the column count stays and the basis can be re-seated.
                    let swap = next(2) == 0;
                    for _ in 0..1 + next(3) {
                        let v = next(n as u64) as usize;
                        let u = next(n as u64) as usize;
                        if swap && bag[v] != bag[u] {
                            bag.swap(u, v);
                        } else if !swap {
                            bag[v] = !bag[v];
                        }
                    }
                    let mut vs: Vec<usize> = (0..n).filter(|&v| bag[v]).take(24).collect();
                    if vs.is_empty() {
                        vs.push(next(n as u64) as usize);
                    }
                    (vs, next(4) != 0)
                })
                .collect();
            PackingWalk { edges, bags }
        })
    }

    /// Rebuilds `lp` as the packing dual of `bag`, the way
    /// `cover::PricingContext` does: one column per bag vertex, one `<= 1`
    /// row per edge meeting the bag, labeled by the edge.
    fn packing(lp: &mut LinearProgram, edges: &[Vec<usize>], bag: &[usize]) {
        lp.reset(bag.len());
        for c in 0..bag.len() {
            lp.set_objective(c, Rational::one());
        }
        for (e, edge) in edges.iter().enumerate() {
            if !edge.iter().any(|v| bag.contains(v)) {
                continue;
            }
            let row = lp.begin_row(e as u64, Cmp::Le, Rational::one());
            for v in edge {
                if let Some(col) = bag.iter().position(|b| b == v) {
                    row.push((col, Rational::one()));
                }
            }
        }
    }

    /// A general program: any sense, `<=`/`>=`/`=` rows, negative
    /// right-hand sides, and integral or rational coefficients.
    fn arb_general() -> impl Strategy<Value = LinearProgram> {
        (1usize..6, 1usize..7, 0u64..3, any::<u64>()).prop_map(|(n, m, kind, seed)| {
            let mut next = lcg(seed);
            // kind 0: integral data; 1: small rationals; 2: integral, with a
            // redundant scaled copy of an equality row.
            let den = |next: &mut dyn FnMut(u64) -> u64| {
                if kind == 1 {
                    1 + next(3) as i64
                } else {
                    1
                }
            };
            let mut lp = if next(2) == 0 {
                LinearProgram::minimize(n)
            } else {
                LinearProgram::maximize(n)
            };
            for v in 0..n {
                let d = den(&mut next);
                lp.set_objective(v, rat(next(5) as i64 - 2, d));
            }
            for _ in 0..m {
                let mut coeffs: Vec<(usize, Rational)> = Vec::new();
                for v in 0..n {
                    if next(3) != 0 {
                        let d = den(&mut next);
                        coeffs.push((v, rat(next(6) as i64 - 1, d)));
                    }
                }
                if coeffs.is_empty() {
                    coeffs.push((next(n as u64) as usize, Rational::one()));
                }
                let cmp = [Cmp::Le, Cmp::Le, Cmp::Le, Cmp::Ge, Cmp::Ge, Cmp::Eq][next(6) as usize];
                let d = den(&mut next);
                let rhs = rat(next(7) as i64 - 1, d);
                if kind == 2 && cmp == Cmp::Eq {
                    let k = Rational::from(2 + next(2) as i64);
                    let scaled = coeffs.iter().map(|(v, c)| (*v, c * &k)).collect();
                    lp.add_constraint(scaled, cmp, &rhs * &k);
                }
                lp.add_constraint(coeffs, cmp, rhs);
            }
            lp
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packing_walks_match_the_reference(walk in arb_packing_walk()) {
            let mut ws = SimplexWorkspace::new();
            let mut reference = ReferenceWorkspace::default();
            let mut lp = LinearProgram::maximize(0);
            for (step, (bag, warm)) in walk.bags.iter().enumerate() {
                packing(&mut lp, &walk.edges, bag);
                let (got, want) = if *warm {
                    (ws.solve_warm(&lp), reference.solve_warm(&lp))
                } else {
                    (ws.solve(&lp), reference.solve(&lp))
                };
                prop_assert_eq!(&got, &want, "step {}", step);
                prop_assert_eq!(ws.dual_values(), reference.dual_values(), "step {}", step);
                prop_assert_eq!(ws.stats(), reference.stats(), "step {}", step);
            }
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn general_programs_match_the_reference(lp in arb_general()) {
            prop_assert_eq!(lp.solve(), reference_solve(&lp));
            let mut ws = SimplexWorkspace::new();
            let mut reference = ReferenceWorkspace::default();
            prop_assert_eq!(ws.solve(&lp), reference.solve(&lp));
            prop_assert_eq!(ws.stats(), reference.stats());
        }
    }
}
