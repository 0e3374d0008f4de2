//! The shared search-statistics record filled in by the engine, the
//! strategy wrappers and the preprocessing pipeline.
//!
//! `SearchStats` lives in this crate (not in `solver`) so that the
//! prepare→solve→lift wrappers ([`crate::run_decision`] /
//! [`crate::run_minimizer`]) can report preprocessing counters while `prep`
//! stays strictly below `solver` in the dependency order; `solver`
//! re-exports the type, so engine users keep addressing it as
//! `solver::SearchStats`.

use arith::Rational;

/// Counters of one width search, exposed through `SearchContext::stats`
/// for tests, `hgtool widths --stats` and the benchmark. The engine
/// fills the state/candidate counters; the strategy wrappers merge their
/// price-memo counters (each search owns its memo, under every option),
/// the candidate-generator tallies and the preprocessing reduction counts
/// on top.
///
/// Deterministic: every engine counter is identical across runs — the
/// search is one sequential recursion that evaluates each state once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search states evaluated (memo misses; exactly once per state).
    pub states: usize,
    /// Memo hits.
    pub memo_hits: usize,
    /// Guesses pulled from candidate streams. With eager `Vec` proposal
    /// this used to equal the whole candidate space; streaming decision
    /// searches stop pulling at the first witness.
    pub streamed: usize,
    /// Guesses admitted (priced successfully under the bound).
    pub admitted: usize,
    /// Price-memo hits: prices served from this search's
    /// [`cover::PriceMemo`] without pricing again.
    pub price_hits: usize,
    /// Price-memo misses: prices actually computed, one per distinct key.
    pub price_misses: usize,
    /// Candidate bags produced by the `candgen` edge-union enumerator
    /// before its filters ran (0 on the subset-oracle and fallback paths).
    pub cand_generated: usize,
    /// Candidate bags the enumerator discarded (duplicates, connector or
    /// progress violations, balancedness, hoisted pre-pricing gates) —
    /// `cand_generated - cand_filtered` is what the engine actually
    /// streamed from `candgen`.
    pub cand_filtered: usize,
    /// Simplex (Bland) iterations across every `ρ*` LP solve of the
    /// search's pricing context. The context prices its bags on one
    /// thread in a deterministic order, so the count is deterministic
    /// too, though not a per-bag sum: each solve starts from the previous
    /// basis.
    pub lp_pivots: u64,
    /// `ρ*` LP solves that warm-started from the previous bag's retained
    /// basis (every `ρ*` pricing tries to).
    pub lp_warm_starts: u64,
    /// `ρ*` LP solves performed from scratch (including warm-start
    /// fallbacks after a basis infeasibility).
    pub lp_cold_solves: u64,
    /// The heuristic upper bound that seeded the search's width ramp
    /// (`None` when no heuristic ran, e.g. the decision strategies).
    /// Merged across per-block searches as the maximum, matching how the
    /// block widths recombine.
    pub ub_width: Option<Rational>,
    /// Vertices removed by the preprocessing pipeline (0 with prep off).
    pub prep_vertices_removed: usize,
    /// Edges removed by the preprocessing pipeline (0 with prep off).
    pub prep_edges_removed: usize,
    /// Biconnected blocks solved independently (0 with prep off; 1 when
    /// prep ran but the instance is a single block).
    pub prep_blocks: usize,
    /// Whole-query answers served from the cross-call result cache (the
    /// search itself never ran). Always 0 with result reuse off.
    pub result_cache_hits: usize,
    /// Whole-query requests that deduplicated against an identical search
    /// already in flight in this process (this call parked and adopted the
    /// other search's answer instead of running its own).
    pub inflight_dedup: usize,
}

impl SearchStats {
    /// Price-cache hit rate over all price lookups.
    pub fn price_hit_rate(&self) -> f64 {
        let total = self.price_hits + self.price_misses;
        if total == 0 {
            return 0.0;
        }
        self.price_hits as f64 / total as f64
    }

    /// Accumulates another search's counters into this one (used when one
    /// logical call runs several searches: the det-k `k`-iteration, the
    /// per-block searches of the preprocessing pipeline).
    ///
    /// # Merge rule
    ///
    /// Each field merges by exactly one of two rules, chosen by what the
    /// field *means* across sub-searches:
    ///
    /// * **Sum** — work counters (`states`, `memo_hits`, `streamed`,
    ///   `admitted`, the price/candgen/LP tallies, the prep reduction
    ///   counts, `result_cache_hits`, `inflight_dedup`): the work of a
    ///   whole call is the work of its parts, so they add.
    /// * **Max** — `ub_width`: per-block heuristic seeds recombine exactly
    ///   like the block widths themselves do (a decomposition of the whole
    ///   instance is as wide as its widest block), so the merged seed is
    ///   the maximum, with `None` treated as "no seed ran", not zero.
    ///   Summing here would fabricate a bound no heuristic ever produced.
    ///
    /// The exhaustive `merge_rule_per_field` test pins every field to its
    /// class — adding a field without choosing its rule breaks the test.
    pub fn merge(&mut self, other: &SearchStats) {
        self.states += other.states;
        self.memo_hits += other.memo_hits;
        self.streamed += other.streamed;
        self.admitted += other.admitted;
        self.price_hits += other.price_hits;
        self.price_misses += other.price_misses;
        self.cand_generated += other.cand_generated;
        self.cand_filtered += other.cand_filtered;
        self.lp_pivots += other.lp_pivots;
        self.lp_warm_starts += other.lp_warm_starts;
        self.lp_cold_solves += other.lp_cold_solves;
        self.ub_width = match (self.ub_width.take(), other.ub_width.clone()) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.prep_vertices_removed += other.prep_vertices_removed;
        self.prep_edges_removed += other.prep_edges_removed;
        self.prep_blocks += other.prep_blocks;
        self.result_cache_hits += other.result_cache_hits;
        self.inflight_dedup += other.inflight_dedup;
    }

    /// Zeroes the process-history-dependent runtime counters
    /// (`result_cache_hits`, `inflight_dedup`), leaving the deterministic
    /// engine counters. The identity test suites compare
    /// `stats.engine_only()` across cache-on/cache-off runs — the runtime
    /// counters are *expected* to differ there.
    pub fn engine_only(&self) -> SearchStats {
        SearchStats {
            result_cache_hits: 0,
            inflight_dedup: 0,
            ..self.clone()
        }
    }
}

impl cover::MemSize for SearchStats {
    fn approx_bytes(&self) -> usize {
        let heap = self.ub_width.as_ref().map_or(0, |w| {
            cover::MemSize::approx_bytes(w).saturating_sub(std::mem::size_of::<Rational>())
        });
        std::mem::size_of::<Self>() + heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_the_seed() {
        let mut a = SearchStats {
            states: 2,
            cand_generated: 5,
            ub_width: Some(Rational::from_int(2)),
            ..SearchStats::default()
        };
        let b = SearchStats {
            states: 3,
            cand_filtered: 4,
            ub_width: Some(Rational::from_frac(3, 2)),
            ..SearchStats::default()
        };
        a.merge(&b);
        assert_eq!(a.states, 5);
        assert_eq!(a.cand_generated, 5);
        assert_eq!(a.cand_filtered, 4);
        assert_eq!(a.ub_width, Some(Rational::from_int(2)));
        let mut c = SearchStats::default();
        c.merge(&b);
        assert_eq!(c.ub_width, Some(Rational::from_frac(3, 2)));
    }

    /// Pins every field to its documented merge class: counters sum, and
    /// `ub_width` maxes (block widths recombine as the maximum). The
    /// exhaustive struct literal (no `..Default::default()`) forces this
    /// test to be revisited whenever a field is added without choosing its
    /// rule.
    #[test]
    fn merge_rule_per_field() {
        let mut a = SearchStats {
            states: 1,
            memo_hits: 2,
            streamed: 3,
            admitted: 4,
            price_hits: 5,
            price_misses: 6,
            cand_generated: 8,
            cand_filtered: 9,
            lp_pivots: 11,
            lp_warm_starts: 12,
            lp_cold_solves: 13,
            ub_width: Some(Rational::from_frac(5, 2)),
            prep_vertices_removed: 14,
            prep_edges_removed: 15,
            prep_blocks: 16,
            result_cache_hits: 17,
            inflight_dedup: 18,
        };
        let b = SearchStats {
            states: 100,
            memo_hits: 100,
            streamed: 100,
            admitted: 100,
            price_hits: 100,
            price_misses: 100,
            cand_generated: 100,
            cand_filtered: 100,
            lp_pivots: 100,
            lp_warm_starts: 100,
            lp_cold_solves: 100,
            ub_width: Some(Rational::from_int(2)),
            prep_vertices_removed: 100,
            prep_edges_removed: 100,
            prep_blocks: 100,
            result_cache_hits: 100,
            inflight_dedup: 100,
        };
        a.merge(&b);
        let expected = SearchStats {
            // Summed work counters.
            states: 101,
            memo_hits: 102,
            streamed: 103,
            admitted: 104,
            price_hits: 105,
            price_misses: 106,
            cand_generated: 108,
            cand_filtered: 109,
            lp_pivots: 111,
            lp_warm_starts: 112,
            lp_cold_solves: 113,
            // Maxed: 5/2 > 2, NOT 5/2 + 2.
            ub_width: Some(Rational::from_frac(5, 2)),
            prep_vertices_removed: 114,
            prep_edges_removed: 115,
            prep_blocks: 116,
            result_cache_hits: 117,
            inflight_dedup: 118,
        };
        assert_eq!(a, expected);
        // `None` means "no seed ran", not zero: it never wins the max and
        // never blanks an existing seed.
        let mut none_side = SearchStats::default();
        none_side.merge(&expected);
        assert_eq!(none_side.ub_width, Some(Rational::from_frac(5, 2)));
        let mut seeded = expected.clone();
        seeded.merge(&SearchStats::default());
        assert_eq!(seeded.ub_width, Some(Rational::from_frac(5, 2)));
    }
}
