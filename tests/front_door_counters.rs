//! The engine's result-cache and LP counters in the `obs` registry are
//! written in one place, the width queries' front door, as sums of the
//! `SearchStats` each call returns; the decision checks and the DP-alone
//! reference run uncached and count nothing.
//!
//! The registry and the result cache are process-wide, so these tests live
//! in their own binary and take one lock each: no other search moves the
//! counters between a test's two readings.

use hypertree::arith::Rational;
use hypertree::hypergraph::{generators, Hypergraph};
use hypertree::solver::{EngineOptions, SearchStats};
use hypertree::{fhd, ghd, hd, prep};
use std::sync::Mutex;

static REGISTRY: Mutex<()> = Mutex::new(());

const COUNTERS: [&str; 5] = [
    "hgtool_lp_pivots_total",
    "hgtool_lp_warm_starts_total",
    "hgtool_lp_cold_solves_total",
    "hgtool_result_cache_hits_total",
    "hgtool_result_cache_misses_total",
];

/// The five counters as the registry renders them (0 before the first
/// solve registers them), in [`COUNTERS`] order.
fn counters() -> [u64; 5] {
    let text = obs::metrics::render_prometheus();
    COUNTERS.map(|name| {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .map_or(0, |v| v.parse().expect("a counter value"))
    })
}

/// `after - before`, counter by counter.
fn moved(before: [u64; 5], after: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// The LP counters of `stats`: the first three of [`COUNTERS`].
fn lp(stats: &SearchStats) -> [u64; 3] {
    [stats.lp_pivots, stats.lp_warm_starts, stats.lp_cold_solves]
}

/// Instances no other test of this binary asks, so every first call
/// misses the cache; the triangle's `fhw = 3/2` and the others' DPs
/// solve LPs.
fn fresh() -> Vec<Hypergraph> {
    vec![
        generators::cycle(3),
        generators::grid(3, 3),
        generators::clique(5),
        generators::example_4_3(),
        generators::triangle_chain(3),
        generators::cq_chain(4, 3, 1),
    ]
}

#[test]
fn width_queries_add_their_search_stats_once() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let opts = EngineOptions::default();
    let mut searched_lp = 0;
    for h in fresh() {
        let before = counters();
        let (_, stats) = hypertree::exact_widths_with_opts(&h, 8, opts).expect("in range");
        let calls = [&stats.hw, &stats.ghw, &stats.fhw];
        let mut sum = [0; 3];
        for s in calls {
            assert_eq!(s.result_cache_hits, 0, "a fresh instance misses: {h}");
            for (total, n) in sum.iter_mut().zip(lp(s)) {
                *total += n;
            }
        }
        searched_lp += sum[0];
        assert_eq!(
            moved(before, counters()),
            [sum[0], sum[1], sum[2], 0, 3],
            "first call on {h}"
        );

        let before = counters();
        let (_, stats) = hypertree::exact_widths_with_opts(&h, 8, opts).expect("in range");
        for s in [&stats.hw, &stats.ghw, &stats.fhw] {
            assert_eq!(s.result_cache_hits, 1, "the repeat is a hit: {h}");
        }
        assert_eq!(
            moved(before, counters()),
            [0, 0, 0, 3, 0],
            "a hit replays its LP counters without adding them: {h}"
        );
    }
    assert!(searched_lp > 0, "no instance solved an LP");
}

/// Calls `check` twice with reuse on: both calls search alike, and
/// neither stores an answer nor moves a counter.
fn searches_uncached(name: &str, check: impl Fn() -> SearchStats) {
    let (before, resident) = (counters(), prep::global().len());
    let first = check();
    let second = check();
    assert_eq!(first.result_cache_hits, 0, "{name}: first call");
    assert_eq!(second.result_cache_hits, 0, "{name}: the repeat searches");
    assert_eq!(second.inflight_dedup, 0, "{name}");
    assert_eq!(second, first, "{name}: the repeat searches the same way");
    assert_eq!(prep::global().len(), resident, "{name}: nothing stored");
    assert_eq!(counters(), before, "{name}: no counter moved");
}

#[test]
fn decision_checks_and_the_dp_reference_run_uncached() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let opts = EngineOptions::default();
    let h = generators::cycle(4);
    let k = Rational::from(2usize);
    let params = fhd::FracDecompParams {
        k: k.clone(),
        eps: Rational::from_frac(1, 2),
        c: 2,
    };
    searches_uncached("check_hd", || hd::check_hd_with_stats(&h, 2, opts).1);
    searches_uncached("check_fhd_bdp", || {
        fhd::check_fhd_bdp_with_stats(&h, &k, fhd::HdkParams::default(), opts).1
    });
    searches_uncached("frac_decomp", || {
        fhd::frac_decomp_with_stats(&h, &params, opts).1
    });
    searches_uncached("ghw_exact_elimination", || {
        ghd::exact::ghw_exact_elimination_with_stats(&h, None, opts).1
    });
}

/// With `reuse_results` off the front door never consults the cache: a
/// repeated width query searches again, stores nothing and moves neither
/// cache counter, while its LP work still counts.
#[test]
fn width_queries_with_reuse_off_bypass_the_cache() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let opts = EngineOptions::sequential();
    let h = generators::cycle(5);
    let resident = prep::global().len();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let before = counters();
        let (_, stats) = hypertree::exact_widths_with_opts(&h, 8, opts).expect("in range");
        let moved = moved(before, counters());
        let calls = [&stats.hw, &stats.ghw, &stats.fhw];
        let lp_sum: [u64; 3] = std::array::from_fn(|i| calls.iter().map(|s| lp(s)[i]).sum());
        assert!(lp_sum[0] > 0, "the pentagon's fhw solves LPs");
        assert_eq!(moved[..3], lp_sum, "LP work counts");
        assert_eq!(moved[3..], [0, 0], "no hit, no miss");
        for s in calls {
            assert_eq!(s.result_cache_hits, 0);
        }
        runs.push(stats);
    }
    assert_eq!(runs[0], runs[1], "the repeat searched the same way");
    assert_eq!(prep::global().len(), resident, "nothing stored");
}
