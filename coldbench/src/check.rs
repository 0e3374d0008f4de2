//! The answer check and the coldness guard.
//!
//! Every decided verdict is compared width by width with its base's
//! reference (relabelling keeps widths). Each returned witness is then
//! re-validated with `decomp::validate_{hd,ghd,fhd}`, and its width must
//! equal the reported one. The witnesses are fetched after the timed call
//! through the same per-measure entry points the front door calls, with
//! the same options, so they are the stored answers of the timed search
//! (served from the result cache; these lookups are not timed and are not
//! counted by the coldness guard).

use crate::gen::Base;
use crate::reference::MAX_HW;
use crate::report::{self, Metrics, Outcome};
use hypertree_core::arith::Rational;
use hypertree_core::decomp::{validate_fhd, validate_ghd, validate_hd};
use hypertree_core::hypergraph::Hypergraph;
use hypertree_core::solver::EngineOptions;
use hypertree_core::{fhd, ghd, hd, ExactWidths, WidthStats};

/// Counts that decide whether a run is correct.
#[derive(Default, Debug, Clone)]
pub struct Tally {
    /// Calls made.
    pub attempted: u64,
    /// Calls that panicked or, for the daemon, were not answered with 200.
    pub failed: u64,
    /// Widths that differ from the reference plus witnesses that fail
    /// re-validation.
    pub wrong: u64,
    /// Timed verdicts that touched the result cache or parked on an
    /// in-flight duplicate (must be 0 on the library workloads).
    pub cold_violations: u64,
    /// Why the daemon's hit share, if any, broke its band.
    pub hit_band_violation: Option<String>,
    /// Whether the run hit its time guard before issuing all its work.
    pub overrun: bool,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.cold_violations += other.cold_violations;
        if self.hit_band_violation.is_none() {
            self.hit_band_violation = other.hit_band_violation.clone();
        }
        self.overrun |= other.overrun;
    }

    /// The run's outcome: correct only with no wrong answer, no coldness
    /// violation, no failed call and no overrun.
    pub fn outcome(&self, metrics: Metrics, out: &mut Vec<String>) -> Outcome {
        let correct = self.wrong == 0
            && self.cold_violations == 0
            && self.failed == 0
            && self.hit_band_violation.is_none()
            && !self.overrun;
        out.push(report::record(
            "check",
            &[
                ("attempted", self.attempted.to_string()),
                ("failed", self.failed.to_string()),
                ("wrong_answers", self.wrong.to_string()),
                (
                    "error_share",
                    format!(
                        "{}",
                        crate::stats::share(self.failed as f64, self.attempted as f64)
                    ),
                ),
                ("cold_violations", self.cold_violations.to_string()),
                (
                    "hit_band",
                    self.hit_band_violation.clone().unwrap_or("ok".into()),
                ),
                ("overrun", self.overrun.to_string()),
                ("correct", correct.to_string()),
            ],
        ));
        Outcome {
            correct,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// Result-cache hits plus in-flight dedups across the three searches.
pub fn cache_touches(s: &WidthStats) -> u64 {
    [&s.hw, &s.ghw, &s.fhw]
        .iter()
        .map(|x| (x.result_cache_hits + x.inflight_dedup) as u64)
        .sum()
}

/// Checks one decided verdict on `h` (a relabelled copy of `base`): the
/// widths against the reference, then the three witnesses. Returns the
/// number of wrong widths plus invalid witnesses.
pub fn verdict(h: &Hypergraph, base: &Base, w: &ExactWidths) -> u64 {
    let mut wrong = widths(base, w.hw, w.ghw, &w.fhw);
    let opts = EngineOptions::default();
    let int = |k: usize| Rational::from(k);

    let (r, _) = hd::hypertree_width_with_stats(h, MAX_HW, opts);
    wrong += match r {
        Some((k, d)) => {
            u64::from(k != w.hw) + u64::from(validate_hd(h, &d).is_err() || d.width() != int(k))
        }
        None => 1,
    };
    let (r, _) = ghd::ghw_exact_with_stats(h, None, opts);
    wrong += match r {
        Some((k, d)) => {
            u64::from(k != w.ghw) + u64::from(validate_ghd(h, &d).is_err() || d.width() != int(k))
        }
        None => 1,
    };
    let (r, _) = fhd::fhw_exact_with_stats(h, None, opts);
    wrong += match r {
        Some((f, d)) => {
            u64::from(f != w.fhw) + u64::from(validate_fhd(h, &d).is_err() || d.width() != f)
        }
        None => 1,
    };
    if wrong > 0 {
        eprintln!(
            "wrong answer: {} expected {} got hw={} ghw={} fhw={}\n{}",
            base.family, base.expect, w.hw, w.ghw, w.fhw, h
        );
    }
    wrong
}

/// Wrong widths among `(hw, ghw, fhw)` against `base`'s reference.
pub fn widths(base: &Base, hw: usize, ghw: usize, fhw: &Rational) -> u64 {
    let e = &base.expect;
    u64::from(hw != e.hw) + u64::from(ghw != e.ghw) + u64::from(*fhw != e.fhw)
}
