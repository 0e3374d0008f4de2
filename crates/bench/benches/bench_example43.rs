//! E4: Example 4.3 / Figures 4–7 — the hw/ghw separation and the ∪∩-tree.
//!
//! The exact rows run at `EngineOptions::sequential()`, which turns result
//! reuse off, so no measured iteration replays the warm-up's answer from
//! the process-wide result cache.

use criterion::{criterion_group, criterion_main, Criterion};
use hypertree_core::ghd::{self, SubedgeLimits};
use hypertree_core::hypergraph::generators;
use hypertree_core::solver::EngineOptions;
use hypertree_core::{fhd, hd};
use std::time::Duration;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

fn bench_example_4_3(c: &mut Criterion) {
    let h = generators::example_4_3();
    let opts = EngineOptions::sequential();
    let mut g = c.benchmark_group("example_4_3");
    g.bench_function("hw=3 via det-k-decomp", |b| {
        b.iter(|| {
            assert!(hd::check_hd_with_stats(&h, 2, opts).0.is_none());
            hd::check_hd_with_stats(&h, 3, opts).0.unwrap().len()
        })
    });
    g.bench_function("ghw=2 via BIP subedges", |b| {
        b.iter(|| ghd::check_ghd_bip(&h, 2, SubedgeLimits::default()).is_yes())
    });
    g.bench_function("ghw=2 exact DP", |b| {
        b.iter(|| ghd::ghw_exact_with_stats(&h, None, opts).0.unwrap().0)
    });
    g.bench_function("fhw exact DP", |b| {
        b.iter(|| fhd::fhw_exact_with_stats(&h, None, opts).0.unwrap().0)
    });
    let e = |n: &str| h.edge_by_name(n).unwrap();
    g.bench_function("figure_7_uoi_tree", |b| {
        b.iter(|| {
            ghd::union_of_intersections_tree(
                &h,
                e("e2"),
                &[vec![e("e3"), e("e7")], vec![e("e8"), e("e2")]],
            )
            .size()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_example_4_3
}
criterion_main!(benches);
