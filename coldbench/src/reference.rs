//! Expected answers, computed independently of the timed front door.
//!
//! Named families and the vendored corpus carry a hand-written table entry
//! (see `gen.rs`). Seeded random instances get theirs from [`compute`],
//! once per base, on the un-relabelled instance and before any timing: `ghw` and `fhw`
//! from the elimination-order DP, `hw` from a sequential `det-k-decomp`
//! with preprocessing off. None of these calls share a fingerprint, a
//! cache key or engine options with the timed calls.

use hypertree_core::arith::Rational;
use hypertree_core::solver::EngineOptions;
use hypertree_core::{fhd, ghd, hd};
use std::fmt;

/// The three widths of one instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Widths {
    pub hw: usize,
    pub ghw: usize,
    pub fhw: Rational,
}

impl Widths {
    pub fn new(hw: usize, ghw: usize, fhw: (i64, i64)) -> Widths {
        Widths {
            hw,
            ghw,
            fhw: Rational::from_frac(fhw.0, fhw.1),
        }
    }
}

impl fmt::Display for Widths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hw={} ghw={} fhw={}", self.hw, self.ghw, self.fhw)
    }
}

/// The widest `hw` the front door is asked for.
pub const MAX_HW: usize = 8;

/// Independent widths of a random base instance; `None` when it is out of
/// the elimination DP's range.
pub fn compute(h: &hypertree_core::hypergraph::Hypergraph) -> Option<Widths> {
    let opts = EngineOptions::sequential();
    let (ghw, _) = ghd::exact::ghw_exact_elimination_with_stats(h, None, opts);
    let (fhw, _) = fhd::fhw_exact_elimination_with_stats(h, None, opts);
    let (hw, _) = hd::hypertree_width_with_stats(h, MAX_HW, opts.without_prep());
    Some(Widths {
        hw: hw?.0,
        ghw: ghw?.0,
        fhw: fhw?.0,
    })
}
