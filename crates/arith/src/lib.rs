//! Exact arbitrary-precision arithmetic for hypertree decomposition widths.
//!
//! Fractional hypertree widths are rational numbers and the paper's
//! correctness arguments (e.g. Lemmas 3.5/3.6) rely on exact ties between
//! fractional edge weights, so every width in this workspace is a
//! [`Rational`] — never floating point. (The `lp` crate's fraction-free
//! simplex pivots programs with integral data on checked `i64` entries and
//! returns its optima, solutions and duals as [`Rational`]s; programs with
//! rational data, and the restart of an overflowing `i64` solve, pivot on
//! [`Rational`] entries.)
//!
//! [`Rational`] is two-tier: values whose reduced numerator and
//! denominator fit an `i64` live inline (no heap traffic — the widths,
//! cover weights and LP read-offs of every workload stay in this tier) and
//! promote to [`BigInt`] pairs only beyond that; the representation is
//! canonical in both directions, so `Eq`/`Hash` stay structural. `Rational::as_small` exposes the
//! inline pair for division-free cross-multiplied comparisons (the width
//! searches' admission gates). See `rational` module docs for the
//! invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod rational;

pub use bigint::BigInt;
pub use rational::Rational;

/// Convenience constructor: the rational `p/q`.
///
/// Panics if `q == 0`.
pub fn rat(p: i64, q: i64) -> Rational {
    Rational::from_frac(p, q)
}
