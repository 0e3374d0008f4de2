//! Candidate-bag generation for the width-search strategies.
//!
//! The exact `ghw`/`fhw` minimizers used to enumerate raw vertex subsets
//! (`O(2^n)` bags per component, hard-gated at 18 vertices). This crate
//! owns the two replacements that break that wall:
//!
//! * [`edge_union`] — streams candidate bags in det-k's HD normal form at
//!   width 2 (component-restricted single edges, then unions of two),
//!   deduplicated, restriction-maximal, balanced-separator-filtered and
//!   pre-gated — an `O(m^2)` space in the edge count, searched past the
//!   DP's window for a `ghw` witness of width 2, the one width a witness
//!   proves there;
//! * [`ub`] — heuristic, witness-backed upper bounds from min-degree /
//!   min-fill elimination orderings plus a greedy local-search pass,
//!   whose `ub(h)` seeds the minimizers' cutoffs from the first round
//!   (and certifies a failed seeded DP search as the exact answer);
//! * [`elimination`] — the exact elimination-order DP (up to 24
//!   vertices), which answers every block in that window under both
//!   measures, and the elimination-tree routine that turns any ordering,
//!   the heuristic's or the DP's, into its witness decomposition.
//!
//! The crate sits below `solver` (beside `prep`): it produces plain
//! iterators and decompositions; `solver::exact` wraps them into the
//! engine's `CandidateStream`s. The old subset enumerator survives in
//! `solver::stream_subset_bags` as the small-instance cross-check oracle.
//! See `src/README.md` for the enumeration order, the balancedness
//! argument and the oracle contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edge_union;
pub mod elimination;
pub mod ub;

pub use edge_union::{edge_union_bags, restriction_pool, DEFAULT_STREAM_CAP};
pub use ub::{elimination_order, upper_bound, OrderHeuristic, PricedBag};

use std::cell::Cell;

/// Tallies of one enumeration: how many candidate bags were generated and
/// how many the filters discarded. Strategies hold one per search and
/// surface the totals as `SearchStats::cand_generated` /
/// `cand_filtered`. Deterministic: the engine pulls each stream in order
/// on one thread.
#[derive(Debug, Default)]
pub struct Counters {
    generated: Cell<usize>,
    filtered: Cell<usize>,
}

impl Counters {
    /// A zeroed tally.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Records one generated candidate.
    pub fn count_generated(&self) {
        self.generated.set(self.generated.get() + 1);
    }

    /// Records one filtered (discarded) candidate.
    pub fn count_filtered(&self) {
        self.filtered.set(self.filtered.get() + 1);
    }

    /// Total candidates generated so far.
    pub fn generated(&self) -> usize {
        self.generated.get()
    }

    /// Total candidates filtered so far.
    pub fn filtered(&self) -> usize {
        self.filtered.get()
    }
}
