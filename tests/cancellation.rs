//! Every exact solve path honours the ambient cancellation token: the
//! elimination DP behind exact `fhw` and in-window `ghw`, the width-2
//! edge-union search behind past-window `ghw`, and det-k-decomp behind
//! `hw`. Under a
//! pre-cancelled token a call unwinds with the interrupt payload and
//! stores nothing in the result cache, so the next call searches afresh;
//! under a live token nothing changes. A verdict cancelled between its
//! measures keeps the answers that completed.
//!
//! Each test owns its instance: the result cache is process-wide, and an
//! answer another test cached would return before any poll.

use hypertree::arith::Rational;
use hypertree::decomp::Decomposition;
use hypertree::hypergraph::{generators, Hypergraph};
use hypertree::prep::cancel::{interrupt, with_cancel, CancelToken};
use hypertree::solver::{exact::Instance, EngineOptions, SearchStats};
use hypertree::{exact_widths_with_opts, fhd, ghd, hd};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

type Answer<W> = (Option<(W, Decomposition)>, SearchStats);

/// Checks the cancellation contract of one `_with_stats` entry point on
/// `h`, whose width is `width`; returns the stats of the sequential run.
fn honours_the_token<W: Debug + PartialEq>(
    h: &Hypergraph,
    width: W,
    solve: impl Fn(&Hypergraph, EngineOptions) -> Answer<W>,
) -> SearchStats {
    let canceled = CancelToken::new();
    canceled.cancel();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        with_cancel(canceled, || solve(h, EngineOptions::default()))
    }));
    let payload = unwound.expect_err("a solve under a cancelled token unwinds");
    assert!(
        interrupt::is_interrupt(payload.as_ref()),
        "the unwind carries the interrupt payload, not a panic"
    );

    let sequential = EngineOptions::sequential();
    let (result, stats) = solve(h, sequential);
    let (w, d) = result.expect("the instance is in exact range");
    assert_eq!(w, width);

    let (rerun, rerun_stats) = solve(h, EngineOptions::default());
    assert_eq!(rerun.map(|(w, _)| w), Some(width));
    assert_eq!(
        rerun_stats.result_cache_hits, 0,
        "the cancelled call stored no answer"
    );

    let live = CancelToken::new().child_with_deadline(Some(Duration::from_secs(3600)));
    let (result, live_stats) = with_cancel(live, || solve(h, sequential));
    let (live_w, live_d) = result.expect("a live token does not cancel");
    assert_eq!(live_w, w);
    assert_eq!(live_d.render(h), d.render(h));
    assert_eq!(live_stats.engine_only(), stats.engine_only());
    stats
}

#[test]
fn elimination_dp_honours_the_token() {
    let h = generators::grid(3, 3);
    let stats = honours_the_token(&h, Rational::from_int(2), |h, opts| {
        fhd::fhw_exact_with_stats(h, None, opts)
    });
    assert_eq!(stats.states, 0, "the DP answered, not the engine");
}

#[test]
fn elimination_dp_honours_the_token_under_rho() {
    let h = generators::grid(3, 4);
    let stats = honours_the_token(&h, 2, |h, opts| ghd::ghw_exact_with_stats(h, None, opts));
    assert_eq!(stats.states, 0, "the DP answered, not the engine");
}

#[test]
fn edge_union_engine_honours_the_token() {
    // 27 vertices, past the DP's window; the seed is 3, so the width-2
    // search runs.
    let h = generators::grid(3, 9);
    let stats = honours_the_token(&h, 2, |h, opts| ghd::ghw_exact_with_stats(h, None, opts));
    assert!(stats.states > 0, "the engine searched past the seed");
}

#[test]
fn detk_honours_the_token() {
    let h = generators::cycle(6);
    honours_the_token(&h, 2, |h, opts| hd::hypertree_width_with_stats(h, 3, opts));
}

/// A verdict cancelled between its measures keeps what finished. Asked
/// of one `Instance` as `exact_widths_with_opts` asks it, fhw completes
/// and is stored; then the token is cancelled and ghw unwinds, so the
/// instance's cache entry holds fhw alone. A re-run of the whole verdict
/// replays fhw (one hit, the same counters) and searches ghw and hw as a
/// reuse-off verdict does.
#[test]
fn a_verdict_cancelled_between_measures_keeps_its_finished_answers() {
    // grid(3,4) numbered backwards, which no other test asks. Its seed of
    // 3 is above ⌈fhw⌉ = 2, so ghw's DP runs and polls the token.
    let grid = generators::grid(3, 4);
    let n = grid.num_vertices();
    let edges = grid.edges().iter();
    let h = Hypergraph::from_edges(
        n,
        edges
            .map(|e| e.iter().map(|v| n - 1 - v).collect())
            .collect(),
    );
    let opts = EngineOptions::default();
    let token = CancelToken::new();
    let (fhw, fhw_stats) = with_cancel(token.clone(), || {
        let mut instance = Instance::new(&h, opts);
        let fhw = fhd::fhw_exact_on(&mut instance, None);
        token.cancel();
        let unwound = catch_unwind(AssertUnwindSafe(|| ghd::ghw_exact_on(&mut instance, 2)));
        let payload = unwound.expect_err("ghw unwinds under the cancelled token");
        assert!(interrupt::is_interrupt(payload.as_ref()));
        fhw
    });
    assert_eq!(fhw.map(|(w, _)| w), Some(Rational::from_int(2)));
    assert_eq!(fhw_stats.result_cache_hits, 0);

    let (widths, stats) = exact_widths_with_opts(&h, 8, opts).expect("in range");
    let (cold_widths, cold) =
        exact_widths_with_opts(&h, 8, EngineOptions::sequential()).expect("in range");
    assert_eq!(widths, cold_widths);
    assert_eq!(
        stats.fhw.result_cache_hits, 1,
        "fhw was stored before the cancel"
    );
    assert_eq!(stats.fhw.engine_only(), fhw_stats.engine_only());
    for (name, searched, cold) in [("ghw", &stats.ghw, &cold.ghw), ("hw", &stats.hw, &cold.hw)] {
        assert_eq!(searched.result_cache_hits, 0, "{name} searches afresh");
        assert_eq!(searched.engine_only(), cold.engine_only(), "{name}");
    }
}
