//! Exact linear programming for fractional covers.
//!
//! The paper computes fractional edge covers (`rho*`), fractional vertex
//! covers / transversals (`tau*`) and several auxiliary programs used in the
//! NP-hardness analysis (Lemmas 3.5/3.6). All of these are tiny LPs over
//! non-negative variables whose optima must be *exact rationals*; this crate
//! provides a two-phase primal simplex with Bland's rule on a fraction-free
//! tableau: `i64` entries for programs with integral data, and
//! [`arith::Rational`] entries for rational data and for the exact restart
//! of a solve whose `i64` arithmetic overflows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entry;
mod simplex;

pub use simplex::{Cmp, Constraint, LinearProgram, LpResult, LpStats, Sense, SimplexWorkspace};
