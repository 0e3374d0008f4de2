//! Exact `ghw` baseline, expressed as a minimizing strategy over the shared
//! [`solver`] engine.
//!
//! Candidate bags come from the `candgen` edge-union generator: every GHD
//! of width `< b` normalizes so each bag is a component-restricted union
//! of `< b` edges (bag-maximal normal form), so with the witness-backed
//! heuristic upper bound `ub` seeding the cutoff the engine only ever
//! enumerates unions of at most `ub - 1` edges — `O(m^k)` in the edge
//! count instead of the old `O(2^n)` subset space, which is what pushed
//! the exact range past the 18-vertex wall. A search that fails at the
//! seeded cutoff *is* the exact answer `ub`, certified by the heuristic
//! witness. The subset enumerator survives as
//! [`ghw_exact_subset_oracle`], the small-instance cross-check; the
//! elimination DP remains the fallback when the edge-union space is
//! infeasible (dense instances with large `ub`). [`ghw_exact_at_least`]
//! also takes a proven lower bound (the front door passes `⌈fhw⌉`): a
//! block whose seed already sits at that floor keeps its seed witness
//! without searching.

use arith::Rational;
use cover::RhoCache;
use decomp::Decomposition;
use hypergraph::{properties, Hypergraph, VertexSet};
use solver::{
    Admission, CandidateStream, EngineOptions, Guess, SearchContext, SearchState, SearchStats,
    WidthSolver,
};
use std::sync::Arc;

pub use solver::MAX_SUBSET_SEARCH_VERTICES;

/// Edge-union feasibility cap (`candgen`'s default): the engine path runs
/// only when the per-state enumeration (`Σ C(m, i)` for `i <= ub - 1`)
/// stays below this many unions; beyond it the elimination DP answers
/// instead.
const CANDGEN_STREAM_CAP: u64 = candgen::DEFAULT_STREAM_CAP;

/// Computes `ghw(H)` exactly together with an optimal GHD.
///
/// The edge-union engine serves any instance whose candidate space is
/// feasible under the heuristic bound (no vertex gate); infeasible pieces
/// fall back to the elimination DP up to
/// [`crate::elimination::MAX_EXACT_VERTICES`] vertices. Returns `None`
/// when a piece is larger still, `H` has isolated vertices, or `cutoff`
/// is given and `ghw(H) >= cutoff`.
pub fn ghw_exact(h: &Hypergraph, cutoff: Option<usize>) -> Option<(usize, Decomposition)> {
    ghw_exact_with_stats(h, cutoff, EngineOptions::default()).0
}

/// As [`ghw_exact`], also reporting engine, price-cache and
/// candidate-generation counters (engine counters are zero when the
/// elimination-DP fallback answered). `opts` pins the engine scheduling;
/// the reported stats are identical at every thread count (the
/// determinism tests compare them).
pub fn ghw_exact_with_stats(
    h: &Hypergraph,
    cutoff: Option<usize>,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    ghw_solve(h, cutoff, 1, opts)
}

/// As [`ghw_exact_with_stats`] without a cutoff, given a proven lower
/// bound `floor <= ghw(H)` (e.g. `⌈fhw(H)⌉`). A block whose heuristic
/// seed is already at most `floor` returns its seed witness without
/// searching: the instance width is the maximum over blocks, and
/// `ghw(H) >= floor`. The width equals [`ghw_exact_with_stats`]'s; a
/// block that does not set the maximum may keep a valid but wider
/// witness, so a floor above 1 is part of the result-cache key.
pub fn ghw_exact_at_least(
    h: &Hypergraph,
    floor: usize,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    ghw_solve(h, None, floor, opts)
}

/// The shared body of [`ghw_exact_with_stats`] and [`ghw_exact_at_least`].
fn ghw_solve(
    h: &Hypergraph,
    cutoff: Option<usize>,
    floor: usize,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    let _span = obs::span!(
        "solve",
        measure = "ghw",
        vertices = h.num_vertices(),
        edges = h.num_edges()
    );
    let started = std::time::Instant::now();
    let warm = solver::pool_is_warm();
    let floor = floor.max(1);
    let mut key = format!(
        "cutoff={cutoff:?};prep={};rp={};backend=auto",
        opts.prep, opts.reuse_prices
    );
    if floor > 1 {
        key.push_str(&format!(";floor={floor}"));
    }
    let reuse = opts.reuse_results;
    let (result, mut stats) = prep::cached_query(h, "result-ghw", key, reuse, || {
        // The minimizer pipeline: GYO-style simplification, then
        // biconnected blocks solved independently (candidate generation
        // and the heuristic bound run per block), width = max, witness
        // stitched and lifted.
        prep::run_minimizer(h, opts.prep, |block| ghw_piece(block, cutoff, floor, opts))
    });
    stats.pool_reuse = usize::from(warm);
    solve_metrics::latency().observe_us(started.elapsed().as_micros() as u64);
    (result, stats)
}

/// Process-lifetime solve metrics, observational only.
mod solve_metrics {
    use obs::metrics::{histogram_with_buckets, Histogram, DEFAULT_LATENCY_BUCKETS_S};
    use std::sync::{Arc, OnceLock};

    /// `hgtool_solve_latency_seconds{strategy="ghw"}`.
    pub(super) fn latency() -> &'static Arc<Histogram> {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| {
            // Explicit bucket config: the µs-scale default grid,
            // spelled out here so re-tuning is a one-line change.
            histogram_with_buckets(
                "hgtool_solve_latency_seconds",
                "End-to-end exact width-solve latency by strategy",
                &[("strategy", "ghw")],
                &DEFAULT_LATENCY_BUCKETS_S,
            )
        })
    }
}

/// The elimination-order DP as a standalone exact path (the independent
/// reference of the agreement tests and the benchmark): the same
/// minimizer pipeline as
/// [`ghw_exact_with_stats`] but every block answered by the DP directly —
/// no heuristic seed, no engine search. Exact up to
/// [`crate::elimination::MAX_EXACT_VERTICES`] vertices per reduced block;
/// a larger block returns `None`.
pub fn ghw_exact_elimination_with_stats(
    h: &Hypergraph,
    cutoff: Option<usize>,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    let key = format!(
        "cutoff={cutoff:?};prep={};rp={};backend=elim",
        opts.prep, opts.reuse_prices
    );
    let reuse = opts.reuse_results;
    prep::cached_query(h, "result-ghw", key, reuse, || {
        prep::run_minimizer(h, opts.prep, |block| {
            if block.num_vertices() > crate::elimination::MAX_EXACT_VERTICES {
                return (None, SearchStats::default());
            }
            (ghw_by_elimination(block, cutoff), SearchStats::default())
        })
    })
}

/// Computes the heuristic upper bound on `ghw(H)` (min-degree / min-fill
/// elimination orderings plus local search, bags priced by `ρ`) together
/// with its witness GHD — no exact search. This is the bound that seeds
/// [`ghw_exact`]'s cutoff; `hgtool widths --heuristic-only` surfaces it
/// directly. Returns `None` only for empty or isolated-vertex inputs.
pub fn ghw_upper_bound(h: &Hypergraph) -> Option<(usize, Decomposition)> {
    ghw_upper_bound_with_stats(h, EngineOptions::default()).0
}

/// As [`ghw_upper_bound`] with explicit options (preprocessing still
/// applies: bounds are computed per reduced block and the witness is
/// stitched and lifted like any exact result).
pub fn ghw_upper_bound_with_stats(
    h: &Hypergraph,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    if h.num_vertices() == 0 || h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    prep::run_minimizer(h, opts.prep, |block| {
        let (ub, d) = candgen::upper_bound(block, rho_price(block));
        let stats = SearchStats {
            ub_width: Some(Rational::from(ub)),
            ..SearchStats::default()
        };
        (Some((ub, d)), stats)
    })
}

/// The subset-bag cross-check oracle: the pre-candgen search proposing
/// every bag `conn ⊆ B ⊆ conn ∪ C`, kept as an independent certification
/// path for the edge-union engine (hard-gated at
/// [`MAX_SUBSET_SEARCH_VERTICES`] vertices). Runs without preprocessing or
/// heuristic seeding, so it shares nothing with the primary path beyond
/// the engine itself.
pub fn ghw_exact_subset_oracle(
    h: &Hypergraph,
    cutoff: Option<usize>,
) -> Option<(usize, Decomposition)> {
    if h.has_isolated_vertices() || h.num_vertices() > MAX_SUBSET_SEARCH_VERTICES {
        return None;
    }
    let session = prep::SessionCache::open(h, "ghw-rho", false);
    let strategy = Arc::new(GhwSearch::new(
        h,
        cutoff,
        Arc::clone(&session.cache),
        BagMode::Subset,
    ));
    let cx = SearchContext::with_options(EngineOptions::sequential());
    cx.run(h, &strategy)
}

/// The `ρ` bag pricer shared by the heuristic bound and its tests.
fn rho_price(h: &Hypergraph) -> impl FnMut(&VertexSet) -> candgen::PricedBag<usize> + '_ {
    |bag| {
        let c =
            cover::integral_cover(h, bag).expect("no isolated vertices, so every bag is coverable");
        let weight = c.weight();
        (
            weight,
            c.edges.into_iter().map(|e| (e, Rational::one())).collect(),
        )
    }
}

/// Solves one (already preprocessed) piece: heuristic upper bound first,
/// then the edge-union engine under the seeded cutoff when feasible, the
/// elimination DP otherwise, `None` when both are out of range. A seed at
/// or below `floor` (a proven lower bound on the instance's `ghw`) is
/// returned without searching.
fn ghw_piece(
    h: &Hypergraph,
    cutoff: Option<usize>,
    floor: usize,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    // One price session for the whole piece: the heuristic bound prices
    // its elimination bags through the same `ρ` cache the engine then
    // searches with, so the seed's covers are warm capital, not overhead.
    let session = prep::SessionCache::open(h, "ghw-rho", opts.reuse_prices);
    let (ub, ub_witness) = candgen::upper_bound(h, |bag| {
        let (weight, edges) = cover::rho_priced(h, bag, &session.cache)
            .expect("no isolated vertices, so every bag is coverable");
        (
            weight,
            edges.into_iter().map(|e| (e, Rational::one())).collect(),
        )
    });
    // The heuristic bound is witness-backed: surface it on the anytime
    // channel before the exact search starts (the ambient sink lifts the
    // block-local witness to the original instance, or drops it on
    // multi-block splits).
    if let Some(sink) = prep::anytime::current_sink() {
        sink.report_upper(Rational::from(ub), Some(&ub_witness));
    }
    // The search only has to beat `eff`: a failure at a *seeded* cutoff
    // (`ub` tighter than the caller's) is the exact answer `ub`, certified
    // by the heuristic witness in hand.
    let seeded = cutoff.is_none_or(|c| ub < c);
    let eff = if seeded {
        ub
    } else {
        cutoff.expect("unseeded")
    };
    let mut stats = SearchStats {
        ub_width: Some(Rational::from(ub)),
        ..SearchStats::default()
    };
    // Any GHD of width < eff normalizes to unions of < eff edges.
    let budget = eff.saturating_sub(1);
    let feasible = budget >= 1
        && candgen::stream_size_bound(h.num_edges(), budget, CANDGEN_STREAM_CAP)
            < CANDGEN_STREAM_CAP;
    let searched = if eff <= floor {
        // At floor 1 nothing beats width 1. Above it, a narrower witness
        // for this block could not lower the instance's width (the
        // maximum over blocks, at least `floor`), so the seed stands.
        Some(None)
    } else if feasible {
        let strategy = Arc::new(GhwSearch::new(
            h,
            Some(eff),
            Arc::clone(&session.cache),
            BagMode::EdgeUnion(candgen::EdgeUnionConfig::with_budget(budget)),
        ));
        let cx = SearchContext::with_options(opts);
        let result = cx.run(h, &strategy);
        let engine = cx.stats();
        stats.merge(&engine);
        (stats.price_hits, stats.price_misses, stats.price_warm_hits) = session.deltas();
        stats.cand_generated = strategy.counters.generated();
        stats.cand_filtered = strategy.counters.filtered();
        Some(result)
    } else if h.num_vertices() <= crate::elimination::MAX_EXACT_VERTICES {
        Some(ghw_by_elimination(h, Some(eff)))
    } else {
        // No exact engine in range: `ub` stays an upper bound only.
        None
    };
    let result = match searched {
        Some(Some((w, d))) => {
            debug_assert!(d.width() <= Rational::from(w));
            Some((w, d))
        }
        // The search is complete below `eff`, so failing it pins the
        // width to exactly `ub` when the cutoff was ours.
        Some(None) if seeded => {
            debug_assert!(ub_witness.width() <= Rational::from(ub));
            Some((ub, ub_witness))
        }
        _ => None,
    };
    (result, stats)
}

/// The pre-engine elimination-order DP, the fallback for pieces whose
/// edge-union space is infeasible (up to 24 vertices).
fn ghw_by_elimination(h: &Hypergraph, cutoff: Option<usize>) -> Option<(usize, Decomposition)> {
    let _span = obs::span!("elim", measure = "ghw", vertices = h.num_vertices());
    let (width, order) = crate::elimination::optimal_elimination(
        h,
        |bag| {
            // The DP never enters the engine, so poll the ambient anytime
            // token here (no-op outside deadline runs).
            if prep::anytime::interrupted() {
                prep::anytime::interrupt::raise();
            }
            cover::integral_cover(h, bag)
                .expect("no isolated vertices, so every bag is coverable")
                .weight()
        },
        cutoff,
    )?;
    let d = crate::elimination::assemble(h, &order, |bag| {
        cover::integral_cover(h, bag)
            .expect("coverable")
            .edges
            .into_iter()
            .map(|e| (e, Rational::one()))
            .collect()
    });
    debug_assert!(d.width() <= Rational::from(width));
    Some((width, d))
}

/// Which candidate-bag space the strategy streams.
enum BagMode {
    /// The primary `candgen` edge-union space (bag-maximal normal form).
    EdgeUnion(candgen::EdgeUnionConfig),
    /// The full subset space — the cross-check oracle.
    Subset,
}

/// The exact-`ghw` strategy: candidate bags priced by `rho` through the
/// shared concurrent cover cache.
struct GhwSearch {
    cutoff: Option<usize>,
    /// `rank(H)`: a bag needs at least `⌈|bag| / rank⌉` cover edges, the
    /// lower bound that gates branch-and-bound pricing against the engine
    /// bound.
    rank: usize,
    /// Scattered-set lower bound (pairwise non-adjacent bag vertices each
    /// force a whole cover edge) — the sharpest of the pre-pricing gates.
    scatter: cover::ScatterBound,
    /// `bag -> (rho(bag), minimum cover)` — bags repeat heavily across
    /// search states and worker threads, and the branch-and-bound cover
    /// search is the expensive part of admission. Shared process-wide
    /// when the session is backed by the cross-call registry.
    cover_cache: Arc<RhoCache>,
    /// Candidate space (edge unions on the primary path, subsets on the
    /// oracle).
    bags: BagMode,
    /// Generated/filtered tallies of the edge-union streams.
    counters: candgen::Counters,
}

impl GhwSearch {
    /// A strategy over `h` with the given candidate space: derived fields
    /// (rank, scattered-set bound, counters) are uniform across the
    /// oracle and the edge-union engine.
    fn new(
        h: &Hypergraph,
        cutoff: Option<usize>,
        cover_cache: Arc<RhoCache>,
        bags: BagMode,
    ) -> Self {
        GhwSearch {
            cutoff,
            rank: properties::rank(h),
            scatter: cover::ScatterBound::new(h),
            cover_cache,
            bags,
            counters: candgen::Counters::new(),
        }
    }
}

impl WidthSolver for GhwSearch {
    type Cost = usize;

    fn is_decision(&self) -> bool {
        false
    }

    fn cutoff(&self) -> Option<usize> {
        self.cutoff
    }

    fn candidates<'a>(&'a self, h: &'a Hypergraph, state: SearchState<'a>) -> CandidateStream<'a> {
        match &self.bags {
            BagMode::Subset => solver::stream_subset_bags(state),
            BagMode::EdgeUnion(cfg) => {
                // The rank/scatter pre-pricing gates, hoisted into the
                // generator against the static seeded cutoff (admission
                // re-applies them against the tighter running bound).
                let rank = self.rank;
                let scatter = &self.scatter;
                let bound = self.cutoff;
                let gate = move |bag: &VertexSet| match bound {
                    Some(b) => bag.len().div_ceil(rank) < b && !scatter.at_least(bag, b),
                    None => true,
                };
                CandidateStream::new(
                    candgen::edge_union_bags(h, state.comp, state.conn, cfg, &self.counters, gate)
                        .map(|bag| Guess {
                            edges: Vec::new(),
                            extra: bag,
                        }),
                )
            }
        }
    }

    fn admit(
        &self,
        h: &Hypergraph,
        _state: SearchState<'_>,
        guess: &Guess,
        bound: Option<&usize>,
    ) -> Option<Admission<usize>> {
        let bag = &guess.extra;
        // Bound gates ahead of pricing: rho(bag) >= ceil(|bag| / r) where
        // r bounds how many bag vertices one edge covers, so once a cheap
        // decomposition is known, hopeless bags are rejected without a
        // cover search, cache traffic or admission construction. The
        // global rank runs first; survivors pay one O(edges) scan for the
        // sharper per-bag rank.
        if let Some(b) = bound {
            if bag.len().div_ceil(self.rank) >= *b {
                return None;
            }
            // Scattered-set bound: pairwise non-adjacent bag vertices each
            // force a whole cover edge of their own.
            if self.scatter.at_least(bag, *b) {
                return None;
            }
            // The O(edges) per-bag rank only sharpens the global gate when
            // rank > 2: at rank <= 2 its r = 1 case is the scattered
            // bound's independent-bag case.
            if self.rank > 2 {
                let r = cover::bag_rank(h, bag);
                if r == 0 || bag.len().div_ceil(r) >= *b {
                    return None;
                }
            }
        }
        let (weight, edges) = cover::rho_priced(h, bag, &self.cover_cache)?;
        Some(Admission {
            split: bag.clone(),
            bag: bag.clone(),
            cost: weight,
            weights: edges.into_iter().map(|e| (e, Rational::one())).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate;
    use hypergraph::generators;

    fn assert_ghw(h: &Hypergraph, expected: usize) {
        let (w, d) = ghw_exact(h, None).expect("in range");
        assert_eq!(w, expected);
        assert_eq!(validate::validate_ghd(h, &d), Ok(()), "{}", d.render(h));
        assert!(d.width() <= arith::Rational::from(expected));
    }

    #[test]
    fn classic_widths() {
        assert_ghw(&generators::path(6), 1);
        assert_ghw(&generators::cycle(4), 2);
        assert_ghw(&generators::cycle(7), 2);
        assert_ghw(&generators::clique(4), 2);
        assert_ghw(&generators::clique(5), 3);
        assert_ghw(&generators::triangle_chain(3), 2);
    }

    #[test]
    fn example_4_3_exact_ghw_2() {
        // Certifies the subedge-based check: ghw(H0) = 2 < hw(H0) = 3.
        assert_ghw(&generators::example_4_3(), 2);
    }

    #[test]
    fn breaks_the_subset_vertex_wall() {
        // 26 vertices: beyond the old 18-vertex subset gate AND the
        // 24-vertex elimination-DP window — formerly a hard `None`.
        assert_ghw(&generators::cycle(26), 2);
        // 20 vertices: formerly elimination-DP territory, now engine-exact.
        assert_ghw(&generators::grid(2, 10), 2);
    }

    #[test]
    fn exact_matches_bip_check_on_corpus() {
        use crate::check::{check_ghd_bip, GhdAnswer};
        use crate::subedges::SubedgeLimits;
        for seed in 0..4u64 {
            let h = generators::random_bip(9, 6, 2, 3, seed);
            let Some((w, _)) = ghw_exact(&h, None) else {
                continue;
            };
            // BIP check at width w succeeds, at w-1 fails.
            assert!(
                check_ghd_bip(&h, w, SubedgeLimits::default()).is_yes(),
                "seed {seed}: BIP check should accept ghw {w}"
            );
            if w > 1 {
                assert!(
                    matches!(
                        check_ghd_bip(&h, w - 1, SubedgeLimits::default()),
                        GhdAnswer::No
                    ),
                    "seed {seed}: BIP check should reject width {}",
                    w - 1
                );
            }
        }
    }

    #[test]
    fn cutoff_detects_lower_bounds() {
        let h = generators::clique(6); // ghw = 3
        assert!(ghw_exact(&h, Some(3)).is_none());
        assert_eq!(ghw_exact(&h, Some(4)).unwrap().0, 3);
    }

    #[test]
    fn subset_oracle_agrees_with_the_edge_union_engine() {
        let corpus = vec![
            generators::cycle(5),
            generators::clique(5),
            generators::grid(3, 3),
            generators::example_4_3(),
            generators::triangle_chain(2),
        ];
        for h in corpus {
            let primary = ghw_exact(&h, None).map(|(w, _)| w);
            let oracle = ghw_exact_subset_oracle(&h, None).map(|(w, _)| w);
            assert_eq!(primary, oracle, "engine vs subset oracle on {h:?}");
        }
    }

    #[test]
    fn upper_bound_is_witnessed_and_sound() {
        for h in [
            generators::cycle(6),
            generators::clique(5),
            generators::grid(3, 3),
            generators::example_4_3(),
        ] {
            let (ub, d) = ghw_upper_bound(&h).expect("valid instance");
            let (exact, _) = ghw_exact(&h, None).expect("small");
            assert!(ub >= exact, "ub {ub} < exact {exact} on {h:?}");
            assert_eq!(validate::validate_ghd(&h, &d), Ok(()), "{}", d.render(&h));
            assert!(d.width() <= arith::Rational::from(ub));
        }
    }

    #[test]
    fn engine_agrees_with_elimination_dp_baseline() {
        // The retired elimination-order DP survives as an independent
        // implementation precisely to certify the shared-engine search.
        let mut corpus = vec![
            generators::path(6),
            generators::cycle(5),
            generators::clique(5),
            generators::triangle_chain(3),
            generators::grid(3, 3),
            generators::example_4_3(),
            generators::example_5_1(4),
        ];
        for seed in 0..3u64 {
            corpus.push(generators::random_bip(9, 6, 2, 3, seed));
        }
        for h in corpus {
            let engine = ghw_exact(&h, None).map(|(w, _)| w);
            let dp = crate::elimination::optimal_elimination(
                &h,
                |bag| cover::integral_cover(&h, bag).expect("coverable").weight(),
                None,
            )
            .map(|(w, _)| w);
            assert_eq!(engine, dp, "engine vs elimination DP on {h:?}");
        }
    }
}
