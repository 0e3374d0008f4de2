//! Exact two-phase primal simplex on a fraction-free tableau, with a
//! reusable workspace and warm starts.
//!
//! All variables are implicitly non-negative, which matches every program in
//! the paper: fractional edge covers (Definition 2.2), fractional
//! transversals (Definition 6.22), and the auxiliary programs used to verify
//! Lemmas 3.5/3.6. Bland's rule guarantees termination without cycling, and
//! exact pivots make every optimum a certified rational value — crucial
//! because widths such as `2 - 1/n` must be reproduced exactly.
//!
//! # The fraction-free tableau
//!
//! The tableau does not divide by the pivot (Edmonds/Bareiss elimination).
//! It stores `M = d·T`, where `T` is the textbook tableau of the current
//! basis and `d > 0` the magnitude of the basis determinant. A pivot on
//! `p = M[r][s]` sets every other row to `(M[i]·p − M[i][s]·M[r]) / d`,
//! keeps the pivot row, and sets `d` to `p` (negating every entry when
//! `p < 0`). With integral data every entry of `M`, the reduced-cost row
//! included, is a minor of the initial tableau, so the division by `d` is
//! exact and the entries stay integers: such programs run on `i64` with
//! checked arithmetic, and values, solutions and duals are read off as
//! `M / d` only at the end. Programs with rational data run on
//! [`Rational`] entries, and so does the restart of a solve whose `i64`
//! arithmetic overflows (the whole call, a warm crash included, runs
//! again; only the finished attempt is counted).
//!
//! Since `d > 0`, the sign of an entry of `M` is that of `T`, and the
//! ratio test compares `M[a][rhs]·M[b][j]` with `M[b][rhs]·M[a][j]`: every
//! program takes exactly the pivots of the divide-by-pivot tableau, so its
//! results, duals, pivot counts and warm starts are those of that tableau.
//!
//! [`LinearProgram::solve`] is the one-shot entry point. The pricing hot
//! paths go through [`SimplexWorkspace`] instead, which reuses the tableau
//! buffers across solves and, for `<=`-only programs (the dual packing form
//! of the covering LPs), can *warm-start* from the final basis of the
//! previous solve — see the crate README for the contract.

use crate::entry::{Entry, Overflow, Step};
use arith::Rational;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

#[cfg(test)]
mod reference;

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=`
    Eq,
}

/// A single linear constraint `sum coeffs[i] * x_i  (cmp)  rhs`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Sparse list of `(variable, coefficient)` pairs.
    pub coeffs: Vec<(usize, Rational)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: Rational,
}

/// A linear program over non-negative variables.
#[derive(Clone, Debug)]
pub struct LinearProgram {
    sense: Sense,
    num_vars: usize,
    objective: Vec<Rational>,
    constraints: Vec<Constraint>,
    /// Stable caller-chosen row identities (defaults to the row index).
    /// Warm starts match the retained basis to the new rows by label, so
    /// two programs over a shared row family (e.g. covering rows indexed
    /// by global edge ids) stay aligned even when rows appear or vanish.
    labels: Vec<u64>,
    /// Recycled coefficient buffers from [`Self::reset`], handed back out
    /// by [`Self::begin_row`] so the pricing hot path never reallocates
    /// its constraint `Vec`s.
    free_rows: Vec<Vec<(usize, Rational)>>,
}

/// Counters of the simplex engine, accumulated by a [`SimplexWorkspace`]
/// across solves. `pivots` counts Bland iterations (phase 1 + phase 2);
/// the Gaussian crash pivots that re-seat a warm basis are not iterations
/// and are excluded, so a successful warm start shows up as a measurably
/// smaller pivot count for the same optimum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Simplex (Bland) iterations performed.
    pub pivots: u64,
    /// Solves that started from a re-seated previous basis.
    pub warm_starts: u64,
    /// Solves that started from scratch (including warm-start fallbacks).
    pub cold_solves: u64,
}

impl LpStats {
    /// Accumulates another workspace's counters into this one.
    pub fn merge(&mut self, other: &LpStats) {
        self.pivots += other.pivots;
        self.warm_starts += other.warm_starts;
        self.cold_solves += other.cold_solves;
    }
}

/// Outcome of solving a [`LinearProgram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpResult {
    /// An optimal solution was found.
    Optimal {
        /// The optimal objective value.
        value: Rational,
        /// One optimal assignment for the original variables.
        solution: Vec<Rational>,
    },
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl LpResult {
    /// The optimal value, if any.
    pub fn value(&self) -> Option<&Rational> {
        match self {
            LpResult::Optimal { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The optimal solution vector, if any.
    pub fn solution(&self) -> Option<&[Rational]> {
        match self {
            LpResult::Optimal { solution, .. } => Some(solution),
            _ => None,
        }
    }
}

impl fmt::Display for LpResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpResult::Optimal { value, .. } => write!(f, "optimal({value})"),
            LpResult::Infeasible => write!(f, "infeasible"),
            LpResult::Unbounded => write!(f, "unbounded"),
        }
    }
}

impl LinearProgram {
    /// Creates a minimization program with `num_vars` non-negative variables.
    pub fn minimize(num_vars: usize) -> Self {
        Self::new(Sense::Minimize, num_vars)
    }

    /// Creates a maximization program with `num_vars` non-negative variables.
    pub fn maximize(num_vars: usize) -> Self {
        Self::new(Sense::Maximize, num_vars)
    }

    fn new(sense: Sense, num_vars: usize) -> Self {
        LinearProgram {
            sense,
            num_vars,
            objective: vec![Rational::zero(); num_vars],
            constraints: Vec::new(),
            labels: Vec::new(),
            free_rows: Vec::new(),
        }
    }

    /// Clears the program for in-place reuse with a new variable count,
    /// keeping the sense and recycling every constraint's coefficient
    /// buffer for the next round of [`Self::begin_row`] calls.
    pub fn reset(&mut self, num_vars: usize) {
        self.num_vars = num_vars;
        self.objective.clear();
        self.objective.resize(num_vars, Rational::zero());
        self.labels.clear();
        while let Some(mut c) = self.constraints.pop() {
            c.coeffs.clear();
            self.free_rows.push(c.coeffs);
        }
    }

    /// Starts a labeled row backed by a recycled coefficient buffer and
    /// returns it for the caller to fill. Coefficients must reference
    /// variables below [`Self::num_vars`] (checked when the tableau is
    /// built in debug builds).
    pub fn begin_row(
        &mut self,
        label: u64,
        cmp: Cmp,
        rhs: Rational,
    ) -> &mut Vec<(usize, Rational)> {
        let coeffs = self.free_rows.pop().unwrap_or_default();
        self.constraints.push(Constraint { coeffs, cmp, rhs });
        self.labels.push(label);
        &mut self.constraints.last_mut().expect("row just pushed").coeffs
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the objective coefficient of variable `var`.
    pub fn set_objective(&mut self, var: usize, coeff: Rational) {
        self.objective[var] = coeff;
    }

    /// Adds `sum coeffs * x (cmp) rhs`. Coefficients for the same variable
    /// are accumulated. The row is labeled by its index.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, Rational)>, cmp: Cmp, rhs: Rational) {
        let label = self.constraints.len() as u64;
        self.add_constraint_labeled(label, coeffs, cmp, rhs);
    }

    /// As [`Self::add_constraint`], with a caller-chosen stable row label
    /// for warm-start matching (e.g. a global edge id).
    pub fn add_constraint_labeled(
        &mut self,
        label: u64,
        coeffs: Vec<(usize, Rational)>,
        cmp: Cmp,
        rhs: Rational,
    ) {
        for &(v, _) in &coeffs {
            assert!(
                v < self.num_vars,
                "constraint references unknown variable {v}"
            );
        }
        self.constraints.push(Constraint { coeffs, cmp, rhs });
        self.labels.push(label);
    }

    /// Solves the program by two-phase simplex with Bland's rule.
    pub fn solve(&self) -> LpResult {
        let mut row_of = HashMap::new();
        attempt(&mut Tableau::<i64>::default(), self, None, &mut row_of)
            .or_else(|Overflow| {
                attempt(&mut Tableau::<Rational>::default(), self, None, &mut row_of)
            })
            .expect("rational tableau steps are exact")
            .0
    }

    /// True iff every row is `<=` with a non-negative right-hand side: the
    /// all-slack basis is feasible, no artificial variables exist, and the
    /// solve is single-phase — the precondition for warm starts.
    fn is_slack_feasible(&self) -> bool {
        self.constraints
            .iter()
            .all(|c| c.cmp == Cmp::Le && !c.rhs.is_negative())
    }
}

/// The retained outcome of a workspace's previous `<=`-only solve: which
/// decision variable was basic in which (labeled) row.
struct WarmBasis {
    num_vars: usize,
    /// `(row label, basic decision variable)`, in retained row order.
    rows: Vec<(u64, usize)>,
}

/// A reusable simplex workspace: tableau buffers survive across solves
/// (no per-solve row allocations once warmed up), and `<=`-only programs
/// can re-seat the previous solve's basis instead of starting from slacks.
///
/// The workspace also retains the final reduced-cost row, from which
/// [`Self::dual_values`] reads the optimal duals of `<=` rows — the bridge
/// that lets covering problems be solved through their packing duals.
#[derive(Default)]
pub struct SimplexWorkspace {
    /// The tableau of programs with integral data.
    int: Tableau<i64>,
    /// The tableau of programs with rational data, and of the restart of a
    /// solve whose `i64` arithmetic overflowed.
    rat: Tableau<Rational>,
    /// Whether the last solve ran on `rat`.
    last_rat: bool,
    warm: Option<WarmBasis>,
    /// Scratch: label -> row index of the program being crashed.
    row_of: HashMap<u64, usize>,
    stats: LpStats,
}

impl SimplexWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        SimplexWorkspace::default()
    }

    /// Accumulated counters of every solve through this workspace.
    pub fn stats(&self) -> LpStats {
        self.stats
    }

    /// Solves from scratch, reusing the workspace buffers.
    pub fn solve(&mut self, lp: &LinearProgram) -> LpResult {
        self.warm = None;
        self.run(lp, None)
    }

    /// Solves `lp`, warm-starting from the final basis of the previous
    /// solve when possible.
    ///
    /// The warm path applies when the previous solve retained a basis (it
    /// was `<=`-only and optimal), the variable space matches, and `lp` is
    /// itself `<=`-only with non-negative right-hand sides. The retained
    /// basic variables are re-seated into the new tableau by row label
    /// (Gaussian crash pivots, not counted as simplex iterations); if the
    /// crashed basis is primal infeasible — a right-hand side went
    /// negative — the workspace falls back to a cold solve. Optimal values
    /// are identical to a cold solve either way; the optimal *vertex* may
    /// differ when the program has multiple optima.
    pub fn solve_warm(&mut self, lp: &LinearProgram) -> LpResult {
        let Some(warm) = self.warm.take() else {
            return self.solve(lp);
        };
        if warm.num_vars != lp.num_vars || !lp.is_slack_feasible() {
            return self.solve(lp);
        }
        self.run(lp, Some(&warm))
    }

    /// The optimal dual value of each constraint row of the last solve,
    /// read off the final reduced-cost row. Valid for `<=`-only programs
    /// solved to optimality: the dual of row `i` is the reduced cost of
    /// its slack column, which for the *minimization form* of the program
    /// is non-negative at the optimum. For a covering LP solved through
    /// its packing dual (`max 1·y, Aᵀy <= 1`), these values are exactly
    /// the optimal cover weights.
    pub fn dual_values(&self) -> Vec<Rational> {
        if self.last_rat {
            self.rat.dual_values()
        } else {
            self.int.dual_values()
        }
    }

    /// One solve, on the `i64` tableau unless the program's data are not
    /// integral or an `i64` step overflows; then the whole call, crash
    /// included, restarts over `Rational`. Only the finished attempt is
    /// counted.
    fn run(&mut self, lp: &LinearProgram, warm: Option<&WarmBasis>) -> LpResult {
        let (res, warm_started, pivots) = match attempt(&mut self.int, lp, warm, &mut self.row_of) {
            Ok(done) => {
                self.last_rat = false;
                done
            }
            Err(Overflow) => {
                self.last_rat = true;
                attempt(&mut self.rat, lp, warm, &mut self.row_of)
                    .expect("rational tableau steps are exact")
            }
        };
        self.stats.pivots += pivots;
        if warm_started {
            self.stats.warm_starts += 1;
        } else {
            self.stats.cold_solves += 1;
        }
        self.retain(lp, &res);
        res
    }

    /// Retains the final basis for the next warm start (only `<=`-only
    /// optimal solves are retainable).
    fn retain(&mut self, lp: &LinearProgram, res: &LpResult) {
        self.warm = None;
        if !matches!(res, LpResult::Optimal { .. }) || !lp.is_slack_feasible() {
            return;
        }
        let (basis, num_decision) = if self.last_rat {
            (&self.rat.basis, self.rat.num_decision)
        } else {
            (&self.int.basis, self.int.num_decision)
        };
        let rows = basis
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b < num_decision)
            .map(|(i, &b)| (lp.labels[i], b))
            .collect();
        self.warm = Some(WarmBasis {
            num_vars: lp.num_vars,
            rows,
        });
    }
}

/// One solve of `lp` on `tab`: re-seats `warm`'s basis by crash pivots when
/// given, falls back to a cold solve when the crashed basis is infeasible,
/// and returns the result, whether it ran warm, and its Bland pivots.
fn attempt<E: Entry>(
    tab: &mut Tableau<E>,
    lp: &LinearProgram,
    warm: Option<&WarmBasis>,
    row_of: &mut HashMap<u64, usize>,
) -> Step<(LpResult, bool, u64)> {
    tab.build_into(lp)?;
    let mut warm_started = false;
    if let Some(warm) = warm {
        row_of.clear();
        for (i, &label) in lp.labels.iter().enumerate() {
            row_of.insert(label, i);
        }
        for &(label, var) in &warm.rows {
            let Some(&row) = row_of.get(&label) else {
                continue; // the labeled row vanished; its slack stays basic
            };
            if tab.basis[row] < tab.num_decision {
                continue; // row already claimed by an earlier pair
            }
            if tab.rows[row][var].is_zero() {
                continue; // singular re-seat; leave the slack basic
            }
            tab.pivot(row, var, false)?;
        }
        let rhs = tab.num_cols;
        warm_started = tab.rows.iter().all(|row| !row[rhs].is_negative());
        if !warm_started {
            // Basis infeasibility: rebuild from slacks and solve cold.
            tab.build_into(lp)?;
        }
    }
    let mut pivots = 0u64;
    let res = tab.solve(lp, &mut pivots)?;
    Ok((res, warm_started, pivots))
}

/// Dense fraction-free simplex tableau. Column layout: decision vars, then
/// slack/surplus vars, then artificial vars; the last column is the
/// right-hand side. Buffers are reused across `build_into` calls.
///
/// It stores `M = d·T`, where `T` is the divide-by-pivot tableau and `d > 0`
/// the magnitude of the basis determinant, so a pivot's only division is an
/// exact one by `d` (see the module docs). Every decision reads only signs
/// and cross-multiplied ratios of `M`, which are those of `T`.
#[derive(Default)]
struct Tableau<E> {
    /// `M`, row by row.
    rows: Vec<Vec<E>>,
    /// `d` times the running reduced-cost row, with `d` times the negated
    /// objective value in the right-hand-side column. After `solve` it is
    /// the final phase-2 row, read by [`SimplexWorkspace::dual_values`].
    obj: Vec<E>,
    /// `d`.
    det: E,
    /// Basis variable of each row.
    basis: Vec<usize>,
    /// Slack/surplus column of each row (`usize::MAX` for `=` rows).
    slack_col: Vec<usize>,
    num_decision: usize,
    num_structural: usize,
    /// Column index where artificial variables start.
    art_start: usize,
    /// Total columns excluding RHS.
    num_cols: usize,
}

impl<E: Entry> Tableau<E> {
    /// (Re)builds the tableau for `lp` in place, reusing row buffers.
    fn build_into(&mut self, lp: &LinearProgram) -> Step<()> {
        let m = lp.constraints.len();
        let n = lp.num_vars;

        // Count slack/surplus and artificial columns.
        let mut num_slack = 0usize;
        let mut num_art = 0usize;
        for c in &lp.constraints {
            match effective_cmp(c.cmp, c.rhs.is_negative()) {
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
            row.resize(num_cols + 1, E::default());
        }
        self.basis.clear();
        self.basis.resize(m, 0);
        self.slack_col.clear();
        self.slack_col.resize(m, usize::MAX);
        self.det = E::one();
        self.num_decision = n;
        self.num_structural = num_structural;
        self.art_start = num_structural;
        self.num_cols = num_cols;
        let mut slack_idx = n;
        let mut art_idx = num_structural;

        for (i, c) in lp.constraints.iter().enumerate() {
            let row = &mut self.rows[i];
            let flip = c.rhs.is_negative();
            let signed = |r: &Rational| -> Step<E> {
                let v = E::from_rational(r)?;
                if flip {
                    v.neg()
                } else {
                    Ok(v)
                }
            };
            for (v, coeff) in &c.coeffs {
                debug_assert!(*v < n, "constraint references unknown variable {v}");
                row[*v] = row[*v].add(&signed(coeff)?)?;
            }
            row[num_cols] = signed(&c.rhs)?;
            match effective_cmp(c.cmp, flip) {
                Cmp::Le => {
                    row[slack_idx] = E::one();
                    self.basis[i] = slack_idx;
                    self.slack_col[i] = slack_idx;
                    slack_idx += 1;
                }
                Cmp::Ge => {
                    row[slack_idx] = E::one().neg()?;
                    self.slack_col[i] = slack_idx;
                    slack_idx += 1;
                    row[art_idx] = E::one();
                    self.basis[i] = art_idx;
                    art_idx += 1;
                }
                Cmp::Eq => {
                    row[art_idx] = E::one();
                    self.basis[i] = art_idx;
                    art_idx += 1;
                }
            }
        }
        Ok(())
    }

    /// Sets `obj` to `d` times the reduced-cost row of `costs` (one entry
    /// per column, the right-hand side's 0 last) under the current basis.
    fn reduce_objective(&mut self, costs: &[E]) -> Step<()> {
        self.obj.clear();
        for c in costs {
            self.obj.push(c.mul(&self.det)?);
        }
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            let factor = &costs[b];
            if factor.is_zero() {
                continue;
            }
            for (o, x) in self.obj.iter_mut().zip(row) {
                if !x.is_zero() {
                    *o = o.sub(&factor.mul(x)?)?;
                }
            }
        }
        Ok(())
    }

    /// Runs simplex iterations (minimization) on `obj` until optimal
    /// (`true`) or unbounded (`false`). `allowed_cols` restricts entering
    /// columns; `pivots` counts the iterations.
    fn iterate(&mut self, allowed_cols: usize, pivots: &mut u64) -> Step<bool> {
        let rhs = self.num_cols;
        loop {
            // Bland's rule: the lowest-index column with a negative reduced cost.
            let Some(j) = (0..allowed_cols).find(|&j| self.obj[j].is_negative()) else {
                return Ok(true);
            };
            // Ratio test over `M[i][rhs] / M[i][j]` (the same ratios as `T`'s);
            // break ties by smallest basis variable (Bland).
            let mut leaving: Option<usize> = None;
            for (i, row) in self.rows.iter().enumerate() {
                if !row[j].is_positive() {
                    continue;
                }
                leaving = match leaving {
                    Some(best) => {
                        let b = &self.rows[best];
                        match E::cmp_ratio(&row[rhs], &row[j], &b[rhs], &b[j]) {
                            Ordering::Less => Some(i),
                            Ordering::Equal if self.basis[i] < self.basis[best] => Some(i),
                            _ => Some(best),
                        }
                    }
                    None => Some(i),
                };
            }
            let Some(pivot_row) = leaving else {
                return Ok(false); // unbounded direction
            };
            *pivots += 1;
            self.pivot(pivot_row, j, true)?;
        }
    }

    /// Makes `pivot_col` the basic variable of `pivot_row`, updating `obj`
    /// too when `with_obj`. Without it this is a Gaussian crash pivot that
    /// re-seats a retained basis or drives out an artificial; its entry may
    /// be negative (a warm crash checks feasibility afterwards on the RHS
    /// column).
    ///
    /// With `p = M[r][s]`, every other row becomes `(M[i]·p − M[i][s]·M[r]) / d`
    /// (an exact division), the pivot row stays, and `d` becomes `p`; after
    /// a negative `p` every entry is negated so that `d` stays positive.
    fn pivot(&mut self, pivot_row: usize, pivot_col: usize, with_obj: bool) -> Step<()> {
        let p = self.rows[pivot_row][pivot_col].clone();
        debug_assert!(!p.is_zero());
        let (before, rest) = self.rows.split_at_mut(pivot_row);
        let (prow, after) = rest.split_first_mut().expect("pivot row exists");
        let prow: &[E] = prow;
        for row in before.iter_mut().chain(after) {
            eliminate(row, prow, pivot_col, &p, &self.det)?;
        }
        if with_obj {
            eliminate(&mut self.obj, prow, pivot_col, &p, &self.det)?;
        }
        if p.is_negative() {
            // Only a crash or drive-out pivot takes a negative entry (the
            // ratio test picks positive ones), and neither carries `obj`.
            debug_assert!(!with_obj);
            for x in self.rows.iter_mut().flatten() {
                *x = x.neg()?;
            }
            self.det = p.neg()?;
        } else {
            self.det = p;
        }
        self.basis[pivot_row] = pivot_col;
        Ok(())
    }

    /// Two-phase solve from the current basis (phase 1 runs only when the
    /// built tableau needed artificial variables). The final reduced-cost
    /// row stays in `obj` for [`SimplexWorkspace::dual_values`].
    fn solve(&mut self, lp: &LinearProgram, pivots: &mut u64) -> Step<LpResult> {
        let rhs = self.num_cols;
        // Phase 1: minimize the sum of artificial variables.
        if self.art_start < self.num_cols {
            let mut costs = vec![E::default(); self.num_cols + 1];
            for c in &mut costs[self.art_start..self.num_cols] {
                *c = E::one();
            }
            self.reduce_objective(&costs)?;
            // Phase 1 is always bounded below by 0.
            assert!(
                self.iterate(self.num_cols, pivots)?,
                "phase 1 cannot be unbounded"
            );
            // `obj[rhs]` is `d` times the negated attained minimum.
            if self.obj[rhs].is_negative() {
                return Ok(LpResult::Infeasible);
            }
            // Drive any degenerate artificial variables out of the basis.
            for i in 0..self.rows.len() {
                if self.basis[i] < self.art_start {
                    continue;
                }
                let pivot_col = (0..self.art_start).find(|&j| !self.rows[i][j].is_zero());
                if let Some(j) = pivot_col {
                    // The artificial basic variable is at value 0, so pivoting
                    // on any nonzero entry keeps feasibility. A negative one
                    // leaves the same tableau as negating the row first,
                    // since the pivot row is scaled by its own pivot.
                    self.pivot(i, j, false)?;
                }
                // If the whole row is zero on structural columns the
                // constraint is redundant; leaving the artificial basic at
                // value zero is harmless.
            }
        }

        // Phase 2: optimize the real objective (as minimization), artificial
        // columns barred from entering.
        let mut costs = vec![E::default(); self.num_cols + 1];
        for (c, o) in costs.iter_mut().zip(&lp.objective) {
            let o = E::from_rational(o)?;
            *c = match lp.sense {
                Sense::Minimize => o,
                Sense::Maximize => o.neg()?,
            };
        }
        // Artificial columns must stay at zero: bar them by never selecting
        // them (allowed_cols).
        self.reduce_objective(&costs)?;
        if !self.iterate(self.num_structural, pivots)? {
            return Ok(LpResult::Unbounded);
        }

        let mut solution = vec![Rational::zero(); self.num_decision];
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            if b < self.num_decision {
                solution[b] = row[rhs].over(&self.det);
            }
        }
        // `obj[rhs] / d` is the negated minimum.
        let neg_min = self.obj[rhs].over(&self.det);
        let value = match lp.sense {
            Sense::Minimize => -neg_min,
            Sense::Maximize => neg_min,
        };
        Ok(LpResult::Optimal { value, solution })
    }

    /// The dual of each row of the last solve: its slack column's entry of
    /// the final reduced-cost row.
    fn dual_values(&self) -> Vec<Rational> {
        self.slack_col[..self.rows.len()]
            .iter()
            .map(|&col| {
                debug_assert!(col != usize::MAX, "dual_values on a slack-free row");
                self.obj[col].over(&self.det)
            })
            .collect()
    }
}

/// One row's share of a pivot on column `s` with pivot `p`, from the pivot
/// row `prow` and the determinant `d`: `row ← (row·p − row[s]·prow) / d`.
/// When `p == d` that is `row − row[s]·prow / d`, so a row with
/// `row[s] == 0` and every column where `prow` is 0 stay as they are.
fn eliminate<E: Entry>(row: &mut [E], prow: &[E], s: usize, p: &E, d: &E) -> Step<()> {
    let f = row[s].clone();
    let unit = *d == E::one();
    if p == d {
        if f.is_zero() {
            return Ok(());
        }
        for (x, y) in row.iter_mut().zip(prow) {
            if y.is_zero() {
                continue;
            }
            let t = f.mul(y)?;
            *x = x.sub(&if unit { t } else { t.div_exact(d) })?;
        }
    } else {
        for (x, y) in row.iter_mut().zip(prow) {
            let cross = !f.is_zero() && !y.is_zero();
            if x.is_zero() && !cross {
                continue;
            }
            let mut t = x.mul(p)?;
            if cross {
                t = t.sub(&f.mul(y)?)?;
            }
            *x = if unit { t } else { t.div_exact(d) };
        }
    }
    Ok(())
}

/// When the RHS is negative the row gets multiplied by -1, flipping `<=`/`>=`.
fn effective_cmp(cmp: Cmp, rhs_negative: bool) -> Cmp {
    if !rhs_negative {
        return cmp;
    }
    match cmp {
        Cmp::Le => Cmp::Ge,
        Cmp::Ge => Cmp::Le,
        Cmp::Eq => Cmp::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;

    fn r(p: i64, q: i64) -> Rational {
        rat(p, q)
    }

    #[test]
    fn trivial_empty_program() {
        let lp = LinearProgram::minimize(0);
        match lp.solve() {
            LpResult::Optimal { value, solution } => {
                assert_eq!(value, Rational::zero());
                assert!(solution.is_empty());
            }
            other => panic!("expected optimal, got {other}"),
        }
    }

    #[test]
    fn simple_min_cover() {
        // min x0 + x1 s.t. x0 + x1 >= 1, x0 >= 1/2 -> value 1, e.g. x0=1/2...
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, Rational::one());
        lp.set_objective(1, Rational::one());
        lp.add_constraint(
            vec![(0, Rational::one()), (1, Rational::one())],
            Cmp::Ge,
            Rational::one(),
        );
        lp.add_constraint(vec![(0, Rational::one())], Cmp::Ge, r(1, 2));
        let res = lp.solve();
        assert_eq!(res.value(), Some(&Rational::one()));
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => 36 at (2, 6).
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, r(3, 1));
        lp.set_objective(1, r(5, 1));
        lp.add_constraint(vec![(0, Rational::one())], Cmp::Le, r(4, 1));
        lp.add_constraint(vec![(1, r(2, 1))], Cmp::Le, r(12, 1));
        lp.add_constraint(vec![(0, r(3, 1)), (1, r(2, 1))], Cmp::Le, r(18, 1));
        match lp.solve() {
            LpResult::Optimal { value, solution } => {
                assert_eq!(value, r(36, 1));
                assert_eq!(solution, vec![r(2, 1), r(6, 1)]);
            }
            other => panic!("expected optimal, got {other}"),
        }
    }

    #[test]
    fn fractional_optimum_triangle() {
        // Fractional edge cover of the triangle: min sum over 3 edges,
        // each vertex covered by exactly two edges => optimum 3/2.
        let mut lp = LinearProgram::minimize(3);
        for e in 0..3 {
            lp.set_objective(e, Rational::one());
        }
        // vertex i is covered by edges i and (i+2)%3
        for v in 0..3usize {
            lp.add_constraint(
                vec![(v, Rational::one()), ((v + 2) % 3, Rational::one())],
                Cmp::Ge,
                Rational::one(),
            );
        }
        assert_eq!(lp.solve().value(), Some(&r(3, 2)));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::minimize(1);
        lp.add_constraint(vec![(0, Rational::one())], Cmp::Le, r(1, 1));
        lp.add_constraint(vec![(0, Rational::one())], Cmp::Ge, r(2, 1));
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn infeasible_by_sign() {
        // x >= 0 and x <= -1 is infeasible (negative RHS path).
        let mut lp = LinearProgram::minimize(1);
        lp.add_constraint(vec![(0, Rational::one())], Cmp::Le, r(-1, 1));
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, Rational::one());
        lp.add_constraint(vec![(0, Rational::one())], Cmp::Ge, Rational::one());
        assert_eq!(lp.solve(), LpResult::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x = 2, y = 1, value 3.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, Rational::one());
        lp.set_objective(1, Rational::one());
        lp.add_constraint(vec![(0, Rational::one()), (1, r(2, 1))], Cmp::Eq, r(4, 1));
        lp.add_constraint(vec![(0, Rational::one()), (1, r(-1, 1))], Cmp::Eq, r(1, 1));
        match lp.solve() {
            LpResult::Optimal { value, solution } => {
                assert_eq!(value, r(3, 1));
                assert_eq!(solution, vec![r(2, 1), r(1, 1)]);
            }
            other => panic!("expected optimal, got {other}"),
        }
    }

    #[test]
    fn degenerate_redundant_constraints() {
        // Redundant equalities exercise the artificial-variable cleanup.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, Rational::one());
        lp.add_constraint(
            vec![(0, Rational::one()), (1, Rational::one())],
            Cmp::Eq,
            r(2, 1),
        );
        lp.add_constraint(vec![(0, r(2, 1)), (1, r(2, 1))], Cmp::Eq, r(4, 1));
        let res = lp.solve();
        assert_eq!(res.value(), Some(&Rational::zero()));
    }

    #[test]
    fn example_5_1_fractional_cover() {
        // Hypergraph H_n from Example 5.1: vertices v0..vn, edges
        // {v0, vi} for 1<=i<=n and the big edge {v1..vn}. rho* = 2 - 1/n.
        for n in 2..8usize {
            let mut lp = LinearProgram::minimize(n + 1); // n small edges + 1 big
            for e in 0..=n {
                lp.set_objective(e, Rational::one());
            }
            // v0 covered by the n small edges
            lp.add_constraint(
                (0..n).map(|e| (e, Rational::one())).collect(),
                Cmp::Ge,
                Rational::one(),
            );
            // vi covered by small edge i-1 and the big edge n
            for i in 0..n {
                lp.add_constraint(
                    vec![(i, Rational::one()), (n, Rational::one())],
                    Cmp::Ge,
                    Rational::one(),
                );
            }
            let expected = &r(2, 1) - &r(1, n as i64);
            assert_eq!(lp.solve().value(), Some(&expected), "n = {n}");
        }
    }

    #[test]
    fn negative_objective_coefficients() {
        // min -x s.t. x <= 5 -> -5.
        let mut lp = LinearProgram::minimize(1);
        lp.set_objective(0, r(-1, 1));
        lp.add_constraint(vec![(0, Rational::one())], Cmp::Le, r(5, 1));
        assert_eq!(lp.solve().value(), Some(&r(-5, 1)));
    }

    #[test]
    fn duplicate_coefficients_accumulate() {
        // x + x >= 3  ==  2x >= 3.
        let mut lp = LinearProgram::minimize(1);
        lp.set_objective(0, Rational::one());
        lp.add_constraint(
            vec![(0, Rational::one()), (0, Rational::one())],
            Cmp::Ge,
            r(3, 1),
        );
        assert_eq!(lp.solve().value(), Some(&r(3, 2)));
    }

    /// The triangle's packing dual: max y0+y1+y2 with y_i + y_j <= 1 per
    /// edge. Optimum 3/2; the duals (slack reduced costs) are the cover
    /// weights 1/2 each.
    fn triangle_packing() -> LinearProgram {
        let mut lp = LinearProgram::maximize(3);
        for v in 0..3 {
            lp.set_objective(v, Rational::one());
        }
        for e in 0..3usize {
            lp.add_constraint_labeled(
                e as u64,
                vec![(e, Rational::one()), ((e + 1) % 3, Rational::one())],
                Cmp::Le,
                Rational::one(),
            );
        }
        lp
    }

    #[test]
    fn workspace_matches_one_shot_solve() {
        let mut ws = SimplexWorkspace::new();
        let lp = triangle_packing();
        assert_eq!(ws.solve(&lp), lp.solve());
        assert_eq!(ws.stats().cold_solves, 1);
        assert!(ws.stats().pivots > 0);
    }

    #[test]
    fn dual_values_recover_the_cover() {
        let mut ws = SimplexWorkspace::new();
        let lp = triangle_packing();
        let res = ws.solve(&lp);
        assert_eq!(res.value(), Some(&r(3, 2)));
        assert_eq!(ws.dual_values(), vec![r(1, 2), r(1, 2), r(1, 2)]);
    }

    #[test]
    fn warm_resolve_of_the_same_program_needs_no_pivots() {
        let mut ws = SimplexWorkspace::new();
        let lp = triangle_packing();
        let cold = ws.solve(&lp);
        let cold_pivots = ws.stats().pivots;
        let warm = ws.solve_warm(&lp);
        assert_eq!(cold, warm);
        assert_eq!(ws.stats().warm_starts, 1);
        // Re-seating the optimal basis leaves no negative reduced cost.
        assert_eq!(ws.stats().pivots, cold_pivots);
    }

    #[test]
    fn warm_start_survives_row_changes_by_label() {
        // Drop one packing row and add another; labels keep the retained
        // basis aligned, and values match a cold solve.
        let mut ws = SimplexWorkspace::new();
        let lp = triangle_packing();
        ws.solve(&lp);
        let mut changed = LinearProgram::maximize(3);
        for v in 0..3 {
            changed.set_objective(v, Rational::one());
        }
        // Rows 0 and 2 survive; a tighter row replaces row 1.
        changed.add_constraint_labeled(
            0,
            vec![(0, Rational::one()), (1, Rational::one())],
            Cmp::Le,
            Rational::one(),
        );
        changed.add_constraint_labeled(
            7,
            vec![(1, Rational::one()), (2, Rational::one())],
            Cmp::Le,
            r(1, 2),
        );
        changed.add_constraint_labeled(
            2,
            vec![(2, Rational::one()), (0, Rational::one())],
            Cmp::Le,
            Rational::one(),
        );
        let warm = ws.solve_warm(&changed);
        assert_eq!(warm.value(), changed.solve().value());
    }

    #[test]
    fn warm_start_falls_back_on_unwarmable_programs() {
        let mut ws = SimplexWorkspace::new();
        ws.solve(&triangle_packing());
        // A Ge program cannot start from the slack basis: warm must fall
        // back to the cold two-phase path and still be exact.
        let mut ge = LinearProgram::minimize(1);
        ge.set_objective(0, Rational::one());
        ge.add_constraint(vec![(0, Rational::one())], Cmp::Ge, r(3, 1));
        assert_eq!(ws.solve_warm(&ge).value(), Some(&r(3, 1)));
        assert_eq!(ws.stats().warm_starts, 0);
        assert_eq!(ws.stats().cold_solves, 2);
    }

    /// `max x0 + x1 + x2` under `B·x_k + Σ_{j≠k} x_j <= B` (row label `k`),
    /// with `B` near 2^40: the first `i64` pivot multiplies two such
    /// coefficients and overflows.
    fn near_overflow() -> LinearProgram {
        let big = Rational::from_int((1 << 40) + 1);
        let mut lp = LinearProgram::maximize(3);
        for v in 0..3 {
            lp.set_objective(v, Rational::one());
        }
        for k in 0..3usize {
            let coeffs = (0..3)
                .map(|j| (j, if j == k { big.clone() } else { Rational::one() }))
                .collect();
            lp.add_constraint_labeled(k as u64, coeffs, Cmp::Le, big.clone());
        }
        lp
    }

    /// `max x0 + x1 + x2` under `x_k <= 1` (row label `k`): its optimal
    /// basis seats `x_k` in row `k`, which [`near_overflow`] re-seats by
    /// crash pivots that overflow `i64`.
    fn unit_box() -> LinearProgram {
        let mut lp = LinearProgram::maximize(3);
        for v in 0..3 {
            lp.set_objective(v, Rational::one());
            lp.add_constraint_labeled(v as u64, vec![(v, Rational::one())], Cmp::Le, r(1, 1));
        }
        lp
    }

    #[test]
    fn cold_overflow_restarts_over_rationals_once() {
        let lp = near_overflow();
        let mut probe = Tableau::<i64>::default();
        assert_eq!(
            attempt(&mut probe, &lp, None, &mut HashMap::new()).err(),
            Some(Overflow)
        );
        let mut ws = SimplexWorkspace::new();
        let mut reference = reference::Workspace::default();
        let res = ws.solve(&lp);
        assert!(ws.last_rat, "the i64 tableau overflowed");
        assert_eq!(res, reference.solve(&lp));
        assert_eq!(res, lp.solve());
        assert_eq!(ws.dual_values(), reference.dual_values());
        assert_eq!(ws.stats(), reference.stats());
        assert_eq!(ws.stats().cold_solves, 1);
        assert!(ws.stats().pivots > 0);
        // The retained basis is re-seated by the next warm solve.
        assert_eq!(ws.solve_warm(&lp), reference.solve_warm(&lp));
        assert_eq!(ws.stats(), reference.stats());
        assert_eq!(ws.stats().warm_starts, 1);
    }

    #[test]
    fn warm_crash_overflow_restarts_over_rationals_once() {
        let mut ws = SimplexWorkspace::new();
        let mut reference = reference::Workspace::default();
        assert_eq!(ws.solve(&unit_box()), reference.solve(&unit_box()));
        assert!(!ws.last_rat);
        let lp = near_overflow();
        let res = ws.solve_warm(&lp);
        assert!(ws.last_rat, "the i64 crash overflowed");
        assert_eq!(res, reference.solve_warm(&lp));
        assert_eq!(ws.dual_values(), reference.dual_values());
        assert_eq!(ws.stats(), reference.stats());
        assert_eq!(ws.stats().warm_starts, 1);
        assert_eq!(ws.stats().cold_solves, 1);
        // The basis the rational restart retained is re-seated next.
        let again = ws.solve_warm(&unit_box());
        assert!(!ws.last_rat);
        assert_eq!(again, reference.solve_warm(&unit_box()));
        assert_eq!(ws.stats(), reference.stats());
        assert_eq!(ws.stats().warm_starts, 2);
    }
}
