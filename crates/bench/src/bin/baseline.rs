//! Records a performance baseline of the exact width engines on the
//! generator corpus and writes it as JSON (default: `BENCH_baseline.json`
//! in the current directory) for future perf-trajectory comparisons. Each
//! instance also records each minimizer's counters (engine states, memo
//! hits, streamed/admitted candidates, price-cache hits, LP work), the
//! preprocessing pipeline's reduction counts (vertices/edges removed,
//! block count) and the cross-call price-cache reuse of a repeated ghw
//! search — so the baseline tracks candidate-generation *and* reduction
//! discipline alongside wall-clock.
//!
//! Timed runs use fresh per-search price caches (`reuse_prices: false`),
//! so the timings measure cold searches; the cross-call column then
//! repeats the ghw search twice through the fingerprint-keyed registry
//! and records how many of the second run's lookups came back warm.
//!
//! ```sh
//! cargo run -p hypertree-bench --bin baseline --release -- [out.json]
//! cargo run -p hypertree-bench --bin baseline --release -- --smoke [out.json]
//! ```
//!
//! `--smoke` is the CI mode: single iteration over a small corpus prefix,
//! just enough to prove the bin and the `hypertree-bench-baseline/v8`
//! schema have not rotted (see `scripts/bench_baseline.sh --smoke`).
//!
//! v4 added the exact-simplex work counters (`lp_pivots`,
//! `lp_warm_starts`, `lp_cold_solves`) and the adaptive candidate-stream
//! cap counter (`cand_cap_hits`) to each engine's stats object. v5 adds
//! the runtime counters (`result_cache_hits`, `inflight_dedup`,
//! `pool_reuse`) and the `batch` block: the whole corpus through
//! `solver::solve_batch` twice in one process — a cold pass that
//! populates the cross-call result cache and a warm second pass answered
//! from it — recording both wall-clocks and the per-instance hit counts.
//! v6 adds the `portfolio` block: the corpus plus the vendored
//! HyperBench-style instances raced through `solver::portfolio` (all
//! three measures per instance), recording each race's winner,
//! time-to-first-bound, time-to-exact and cancelled-loser count, plus a
//! corpus-wide flag that the portfolio widths matched the plain
//! single-backend path. v7 adds the per-instance `phases` block: one
//! extra ghw run per row with span tracing enabled (only for that run —
//! the timed rows stay untraced), aggregated to per-phase *self* times
//! (prep / candgen / engine search / pricing), so the baseline tracks
//! where the solve wall-clock actually goes. v8 adds the `serve` block —
//! the served-QPS track: an in-process `hgtool serve` daemon on an
//! ephemeral port, driven closed-loop by the loadgen over the vendored
//! corpus, recording throughput, server-side latency quantiles (straight
//! from the daemon's live request-latency histogram), error/deadline
//! counters and the result-cache hit ratio of served responses.

use hypertree_bench as workloads;
use hypertree_core::hypergraph::Hypergraph;
use hypertree_core::solver::{self, SearchStats};
use hypertree_core::{fhd, ghd, hd};
use std::fmt::Write as _;
use std::time::Instant;

/// Best-of-`iters` wall-clock measurement, in microseconds. Contention
/// noise on a shared host is one-sided — it only ever *adds* time — so
/// the minimum is the reproducible estimator of a cold search's true
/// cost, where a median still inherits whole bad windows (the bench box
/// shows ±20-50% transient host-side contention invisible to guest
/// load).
fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (T, u128) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..iters {
        let t = Instant::now();
        out = Some(f());
        best = best.min(t.elapsed().as_micros());
    }
    (out.expect("ran at least once"), best)
}

fn main() {
    let mut smoke = false;
    let mut out_path = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(arg);
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let iters = if smoke { 1 } else { 5 };
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"schema\": \"hypertree-bench-baseline/v8\",\n");
    body.push_str("  \"command\": \"cargo run -p hypertree-bench --bin baseline --release\",\n");
    let _ = writeln!(body, "  \"profile\": \"{}\",", profile());
    body.push_str("  \"instances\": [\n");
    let mut corpus = workloads::corpus();
    if smoke {
        // The smallest handful is enough to exercise all three engines.
        corpus.truncate(5);
    } else {
        // The 19-30-vertex scaling corpus: candgen edge-union territory.
        corpus.extend(workloads::large_corpus());
    }
    let total = corpus.len();
    for (i, w) in corpus.iter().enumerate() {
        let h = &w.hypergraph;
        eprintln!("[{}/{}] {}", i + 1, total, w.name);
        let _ = write!(
            body,
            "    {{\"name\": \"{}\", \"vertices\": {}, \"edges\": {}",
            w.name,
            h.num_vertices(),
            h.num_edges()
        );
        // Cold searches: fresh price caches per call, so the timings stay
        // comparable across runs regardless of process history.
        let cold = solver::EngineOptions {
            reuse_prices: false,
            reuse_results: false,
            ..Default::default()
        };
        let (hw, t_hw) = time_best(iters, || {
            hd::hypertree_width_with_stats(h, 6, cold).0.map(|(k, _)| k)
        });
        match hw {
            Some(k) => {
                let _ = write!(body, ", \"hw\": {k}, \"hw_us\": {t_hw}");
            }
            None => body.push_str(", \"hw\": null"),
        }
        let (ghw, t_ghw) = time_best(iters, || {
            let (r, stats) = ghd::ghw_exact_with_stats(h, None, cold);
            (r.map(|(k, _)| k), stats)
        });
        match &ghw {
            (Some(k), stats) => {
                let _ = write!(body, ", \"ghw\": {k}, \"ghw_us\": {t_ghw}");
                // v3: ghw runs on the candgen edge-union engine, so its
                // candidate-generation discipline is tracked like fhw's.
                let _ = write!(body, ", \"ghw_stats\": {}", stats_json(stats));
            }
            (None, _) => body.push_str(", \"ghw\": null"),
        }
        let (fhw, t_fhw) = time_best(iters, || {
            let (r, stats) = fhd::fhw_exact_with_stats(h, None, cold);
            (r.map(|(k, _)| k), stats)
        });
        match fhw {
            (Some(k), stats) => {
                let _ = write!(body, ", \"fhw\": \"{k}\", \"fhw_us\": {t_fhw}");
                let _ = write!(body, ", \"fhw_stats\": {}", stats_json(&stats));
            }
            (None, _) => body.push_str(", \"fhw\": null"),
        }
        // Reduction + cross-call columns on every row: the prep counters
        // of the cold ghw run, plus a warmed repeat through the
        // fingerprint-keyed registry (ghw prices through it; fhw's
        // elimination DP prices through its own LP context). Result reuse
        // stays off here — a result-cache hit would skip the rerun's
        // pricing entirely and void the warm-lookup column (the result
        // cache gets its own `batch` block below).
        let warm = solver::EngineOptions {
            reuse_results: false,
            ..Default::default()
        };
        let _ = ghd::ghw_exact_with_stats(h, None, warm);
        let (_, rerun) = ghd::ghw_exact_with_stats(h, None, warm);
        let prep_stats = ghw.1;
        let _ = write!(
            body,
            ", \"prep\": {{\"vertices_removed\": {}, \"edges_removed\": {}, \
             \"blocks\": {}, \"rerun_warm_hits\": {}, \"rerun_lookups\": {}}}",
            prep_stats.prep_vertices_removed,
            prep_stats.prep_edges_removed,
            prep_stats.prep_blocks,
            rerun.price_warm_hits,
            rerun.price_hits + rerun.price_misses,
        );
        // v7: the per-phase self-time breakdown of one traced ghw run.
        // Tracing arms only around this run, so the timed rows above stay
        // unpolluted; self times partition the solve wall-clock with no
        // double counting (a phase excludes its sub-phases).
        obs::trace::set_enabled(true);
        obs::trace::drain();
        let _ = ghd::ghw_exact_with_stats(h, None, cold);
        let spans = obs::trace::drain();
        obs::trace::set_enabled(false);
        let totals = obs::trace::phase_totals(&spans);
        let phase = |k: &str| totals.get(k).map(|&(_, s)| s).unwrap_or(0);
        let all: u64 = totals.values().map(|&(_, s)| s).sum();
        let _ = write!(
            body,
            ", \"phases\": {{\"engine\": \"ghw\", \"prep_us\": {}, \"candgen_us\": {}, \
             \"search_us\": {}, \"pricing_us\": {}, \"total_self_us\": {}, \"spans\": {}}}",
            phase("prep"),
            phase("candgen"),
            phase("state"),
            phase("price"),
            all,
            spans.len(),
        );
        body.push('}');
        if i + 1 < total {
            body.push(',');
        }
        body.push('\n');
    }
    body.push_str("  ],\n");
    // The batch block: the whole corpus through `solver::solve_batch`
    // twice in one process, with the full runtime on (shared pool,
    // price + result reuse). The cold pass populates the cross-call
    // result cache; the warm pass must answer every instance from it.
    // `ghw` is the one engine in exact range across the entire corpus,
    // large instances included.
    eprintln!("batch: cold pass ({total} instances)");
    let batch_opts = solver::EngineOptions::default();
    let hgs: Vec<Hypergraph> = corpus.iter().map(|w| w.hypergraph.clone()).collect();
    let run_batch = || {
        solver::solve_batch(&hgs, |_, h| {
            let (r, s) = ghd::ghw_exact_with_stats(h, None, batch_opts);
            (r.map(|(k, _)| k), s)
        })
    };
    let t = Instant::now();
    let cold_pass = run_batch();
    let cold_us = t.elapsed().as_micros();
    eprintln!("batch: warm pass");
    let t = Instant::now();
    let warm_pass = run_batch();
    let warm_us = t.elapsed().as_micros();
    let widths_consistent = cold_pass
        .iter()
        .zip(&warm_pass)
        .all(|((a, _), (b, _))| a == b);
    let _ = writeln!(body, "  \"batch\": {{");
    let _ = writeln!(body, "    \"engine\": \"ghw\",");
    let _ = writeln!(body, "    \"instances\": {total},");
    let _ = writeln!(body, "    \"cold_us\": {cold_us},");
    let _ = writeln!(body, "    \"warm_us\": {warm_us},");
    let _ = writeln!(body, "    \"widths_consistent\": {widths_consistent},");
    body.push_str("    \"warm_result_cache_hits\": [\n");
    for (i, (w, (_, stats))) in corpus.iter().zip(&warm_pass).enumerate() {
        let _ = write!(
            body,
            "      {{\"name\": \"{}\", \"result_cache_hits\": {}, \"inflight_dedup\": {}}}",
            w.name, stats.result_cache_hits, stats.inflight_dedup
        );
        body.push_str(if i + 1 < total { ",\n" } else { "\n" });
    }
    body.push_str("    ]\n  },\n");
    // The portfolio block (v6): every instance of the corpus plus the
    // vendored HyperBench-style set races its full backend registries —
    // first exact answer wins, losers cancelled — and the block records
    // who won each measure, how fast the first bound and the exact answer
    // arrived, and that the portfolio widths matched the plain path.
    let mut port_corpus = corpus;
    port_corpus.extend(workloads::vendored_corpus());
    let port_total = port_corpus.len();
    eprintln!("portfolio: racing {port_total} instances");
    let popts = hypertree_core::solver::portfolio::PortfolioOptions::default();
    let mut widths_match = true;
    let _ = writeln!(body, "  \"portfolio\": {{");
    let _ = writeln!(body, "    \"instances\": {port_total},");
    body.push_str("    \"races\": [\n");
    for (i, w) in port_corpus.iter().enumerate() {
        let h = &w.hypergraph;
        let plain = hypertree_core::exact_widths_with_opts(h, 6, batch_opts).map(|(w, _)| w);
        let raced = hypertree_core::exact_widths_portfolio(h, 6, batch_opts, &popts);
        widths_match &= plain == raced.as_ref().map(|(w, _, _)| w.clone());
        let _ = write!(body, "      {{\"name\": \"{}\"", w.name);
        match &raced {
            Some((_, _, races)) => {
                for (measure, r) in [("hw", &races.hw), ("ghw", &races.ghw), ("fhw", &races.fhw)] {
                    let _ = write!(
                        body,
                        ", \"{measure}\": {{\"winner\": {}, \"first_bound_us\": {}, \
                         \"exact_us\": {}, \"losers_canceled\": {}}}",
                        r.winner
                            .map(|id| format!("\"{id}\""))
                            .unwrap_or_else(|| "null".into()),
                        r.time_to_first_bound
                            .map(|d| d.as_micros().to_string())
                            .unwrap_or_else(|| "null".into()),
                        r.time_to_exact
                            .map(|d| d.as_micros().to_string())
                            .unwrap_or_else(|| "null".into()),
                        r.canceled,
                    );
                }
            }
            None => body.push_str(", \"unresolved\": true"),
        }
        body.push('}');
        body.push_str(if i + 1 < port_total { ",\n" } else { "\n" });
    }
    body.push_str("    ],\n");
    let _ = writeln!(body, "    \"widths_match_single_backend\": {widths_match}");
    body.push_str("  },\n");
    // The serve block (v8): the served-QPS track. An in-process daemon
    // on an ephemeral port, the loadgen driving it closed-loop over the
    // vendored corpus; quantiles come from the daemon's own live
    // request-latency histogram (the same numbers GET /metrics renders),
    // with the loadgen's client-side view alongside for transport cost.
    let duration = if smoke {
        std::time::Duration::from_millis(400)
    } else {
        std::time::Duration::from_secs(2)
    };
    eprintln!("serve: loadgen for {}ms", duration.as_millis());
    let server = serve::Server::start(serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..serve::ServeConfig::from_env()
    })
    .expect("bind ephemeral serve port");
    while !server.ready() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let instances: Vec<(String, String)> = workloads::vendored_corpus()
        .into_iter()
        .map(|w| (w.name, w.hypergraph.to_string()))
        .collect();
    let lopts = serve::LoadgenOptions {
        connections: 4,
        duration,
        batch_every: 16,
        ..serve::LoadgenOptions::default()
    };
    let report =
        serve::loadgen::run(&server.addr().to_string(), &instances, &lopts).expect("loadgen run");
    let m = serve::metrics::handles();
    let snap = m
        .latency(serve::metrics::Endpoint::Solve)
        .expect("solve latency histogram")
        .snapshot();
    let q = |p: f64| snap.quantile_us(p).unwrap_or(0);
    server.drain();
    let _ = writeln!(body, "  \"serve\": {{");
    let _ = writeln!(body, "    \"connections\": {},", report.connections);
    let _ = writeln!(body, "    \"duration_us\": {},", report.elapsed.as_micros());
    let _ = writeln!(body, "    \"requests\": {},", report.requests);
    let _ = writeln!(body, "    \"ok\": {},", report.ok);
    let _ = writeln!(body, "    \"errors\": {},", report.errors);
    let _ = writeln!(
        body,
        "    \"deadline_expired\": {},",
        report.deadline_expired
    );
    let _ = writeln!(body, "    \"cancelled\": {},", m.cancelled.get());
    let _ = writeln!(body, "    \"qps\": {:.1},", report.qps);
    let _ = writeln!(body, "    \"p50_us\": {},", q(0.50));
    let _ = writeln!(body, "    \"p95_us\": {},", q(0.95));
    let _ = writeln!(body, "    \"p99_us\": {},", q(0.99));
    let _ = writeln!(body, "    \"latency_count\": {},", snap.count);
    let _ = writeln!(
        body,
        "    \"client_p50_us\": {}, \"client_p95_us\": {}, \"client_p99_us\": {},",
        report.p50_us, report.p95_us, report.p99_us
    );
    let _ = writeln!(
        body,
        "    \"cache_hit_ratio\": {:.4}",
        report.cache_hit_ratio()
    );
    body.push_str("  }\n}\n");
    std::fs::write(&out_path, &body).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!(
        "wrote {out_path} (batch cold {cold_us}us -> warm {warm_us}us, consistent: {widths_consistent}; \
         portfolio widths match: {widths_match}; serve {:.0} qps, p95 {}us)",
        report.qps,
        q(0.95)
    );
}

fn stats_json(s: &SearchStats) -> String {
    // `threads` records the engine's worker count for provenance; the
    // counters themselves are thread-count-invariant by design. v3 added
    // the candidate-generation discipline: edge-union bags generated and
    // filtered by candgen, plus the heuristic width that seeded the
    // search's cutoff. v4 added the simplex work counters (pivots,
    // warm/cold solve split) and the adaptive stream-cap hit count. v5
    // adds the runtime counters (result-cache hits, in-flight dedup,
    // pool reuse) — zero on the timed cold rows by construction.
    format!(
        "{{\"threads\": {}, \"states\": {}, \"memo_hits\": {}, \"streamed\": {}, \
         \"admitted\": {}, \"lp_hits\": {}, \"lp_misses\": {}, \
         \"cand_gen\": {}, \"cand_filtered\": {}, \"cand_cap_hits\": {}, \
         \"lp_pivots\": {}, \"lp_warm_starts\": {}, \"lp_cold_solves\": {}, \
         \"result_cache_hits\": {}, \"inflight_dedup\": {}, \"pool_reuse\": {}, \
         \"ub_seed\": {}}}",
        solver::default_thread_count(),
        s.states,
        s.memo_hits,
        s.streamed,
        s.admitted,
        s.price_hits,
        s.price_misses,
        s.cand_generated,
        s.cand_filtered,
        s.cand_cap_hits,
        s.lp_pivots,
        s.lp_warm_starts,
        s.lp_cold_solves,
        s.result_cache_hits,
        s.inflight_dedup,
        s.pool_reuse,
        match &s.ub_width {
            Some(w) => format!("\"{w}\""),
            None => "null".into(),
        }
    )
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
