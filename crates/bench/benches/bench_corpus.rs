//! E8/E13: the CQ-shaped corpus — exact width engines across realistic
//! query shapes (the HyperBench-style study that motivates the paper).
//!
//! Every row runs at `EngineOptions::sequential()`, which turns result
//! reuse off: under the default options each measured iteration would
//! replay the warm-up's answer from the process-wide result cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypertree_core::hypergraph::generators;
use hypertree_core::solver::EngineOptions;
use hypertree_core::{fhd, ghd, hd};
use std::time::Duration;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

fn bench_engines(c: &mut Criterion) {
    let instances = vec![
        ("triangles3", generators::triangle_chain(3)),
        ("grid3x3", generators::grid(3, 3)),
        ("clique6", generators::clique(6)),
        ("example_4_3", generators::example_4_3()),
        // α-acyclic: every width is answered by the join tree.
        ("cq_snowflake3x3", generators::cq_snowflake(3, 3)),
    ];
    let opts = EngineOptions::sequential();
    let mut g = c.benchmark_group("corpus/engines");
    for (name, h) in instances {
        g.bench_with_input(BenchmarkId::new("hw", name), &h, |b, h| {
            b.iter(|| hd::hypertree_width_with_stats(h, 5, opts).0.unwrap().0)
        });
        if h.num_vertices() <= 14 {
            g.bench_with_input(BenchmarkId::new("ghw_exact", name), &h, |b, h| {
                b.iter(|| ghd::ghw_exact_with_stats(h, None, opts).0.unwrap().0)
            });
            g.bench_with_input(BenchmarkId::new("fhw_exact", name), &h, |b, h| {
                b.iter(|| fhd::fhw_exact_with_stats(h, None, opts).0.unwrap().0)
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_engines
}
criterion_main!(benches);
