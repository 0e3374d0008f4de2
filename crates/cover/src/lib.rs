//! Edge covers and transversals (Sections 2.2, 5 and 6.2 of the paper).
//!
//! * [`integral`] — edge cover number `rho` (ILP via branch-and-bound) and
//!   the greedy ln(n)-approximation.
//! * [`fractional`] — fractional edge cover number `rho*` via exact LP.
//! * [`cache`] — [`PriceMemo`], the price memo each width search owns
//!   (each distinct bag is priced once per search).
//! * [`pricing`] — reusable simplex workspaces solving `ρ*` through the
//!   packing dual (single-phase, warm-startable, allocation-free).
//! * [`transversal`] — `tau`, `tau*`, and the integrality gap `tigap`.
//! * [`support`] — Füredi's bounded-support theorem (Corollary 5.5) and the
//!   Lemma 5.6 support-reduction transformation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fractional;
pub mod integral;
pub mod mem;
pub mod pricing;
pub mod support;
pub mod transversal;

pub use cache::PriceMemo;
pub use fractional::{
    bag_rank, covered_vertices, fractional_cover, is_fractional_cover, rho_star, FractionalCover,
    ScatterBound,
};
pub use integral::{greedy_cover, integral_cover, integral_cover_bounded, rho, IntegralCover};
pub use mem::MemSize;
pub use pricing::PricingContext;
pub use support::{bound_support, furedi_bound};
pub use transversal::{
    fractional_transversal, minimum_transversal, tau, tau_star, tigap, FractionalTransversal,
};
