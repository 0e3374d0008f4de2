//! Cold vs warm `ρ*` pricing on the heuristic upper bound's bag walk —
//! the hot path the warm-started incremental simplex was built for. The
//! workload is `candgen::upper_bound` itself: the elimination orderings
//! and their local search price a deterministic sequence of *neighboring*
//! bags (consecutive closed neighborhoods share most of their vertices
//! and edge rows), so a warm solve re-seats the previous basis and
//! usually finishes in a few pivots. The cold variant prices every bag
//! from scratch, so its pivot count is a pure function of each bag. The
//! pivot counts printed at the end are the "warm starts do less simplex
//! work" demonstration in counter form.
//!
//! The second group runs the unseeded fhw elimination DP, whose warm `ρ*`
//! solves are the LP-bound part of an exact fhw call, so a change to the
//! simplex kernel shows at the layer above it; it prints the DP's
//! `lp_pivots`, which such a change must leave as they are.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypertree_core::candgen;
use hypertree_core::cover::PricingContext;
use hypertree_core::fhd;
use hypertree_core::hypergraph::{generators, Hypergraph};
use hypertree_core::solver::EngineOptions;
use std::time::Duration;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

/// One full heuristic-bound run, warm or cold, returning the context so
/// callers can read its pivot counters.
fn heuristic_walk(h: &Hypergraph, warm: bool) -> PricingContext {
    let mut ctx = PricingContext::new();
    candgen::upper_bound(h, |bag| {
        let priced = if warm {
            ctx.price_warm(h, bag)
        } else {
            ctx.price(h, bag)
        };
        priced.expect("no isolated vertices, so every bag is coverable")
    });
    ctx
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("pricing/cold_vs_warm");
    for (name, h) in [
        ("grid5x5", generators::grid(5, 5)),
        ("cycle24", generators::cycle(24)),
        ("triangle_chain8", generators::triangle_chain(8)),
        ("hypercube4", generators::hypercube(4)),
        ("example_4_3", generators::example_4_3()),
    ] {
        g.bench_with_input(BenchmarkId::new("cold", name), &h, |b, h| {
            b.iter(|| heuristic_walk(h, false).stats().pivots)
        });
        g.bench_with_input(BenchmarkId::new("warm", name), &h, |b, h| {
            b.iter(|| heuristic_walk(h, true).stats().pivots)
        });
        // The counter form of the speedup: one pass each, pivots compared.
        let (cs, ws) = (
            heuristic_walk(&h, false).stats(),
            heuristic_walk(&h, true).stats(),
        );
        eprintln!(
            "{name}: cold {} pivots / {} solves, \
             warm {} pivots ({} warm starts, {} cold fallbacks)",
            cs.pivots, cs.cold_solves, ws.pivots, ws.warm_starts, ws.cold_solves,
        );
    }
    g.finish();
}

fn bench_elimination_dp(c: &mut Criterion) {
    let mut g = c.benchmark_group("pricing/elimination_dp");
    for (name, h) in [
        ("grid3x4", generators::grid(3, 4)),
        ("clique7", generators::clique(7)),
    ] {
        let dp = |h: &Hypergraph| {
            fhd::fhw_exact_elimination_with_stats(h, None, EngineOptions::sequential())
        };
        g.bench_with_input(BenchmarkId::new("fhw_unseeded", name), &h, |b, h| {
            b.iter(|| dp(h).1.lp_pivots)
        });
        let (width, stats) = dp(&h);
        let width = width.expect("within the DP window").0;
        eprintln!("{name}: fhw {width}, {} lp_pivots", stats.lp_pivots);
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_cold_vs_warm, bench_elimination_dp
}
criterion_main!(benches);
