//! The library workloads, `cq-easy` and `csp-hard`: one caller thread in a
//! closed loop through `hypertree_core::exact_widths_with_opts` with
//! default options.
//!
//! A verdict is timed from the call to its return. Everything else — input
//! generation, the answer check, witness re-validation — happens between
//! timed windows, and throughput is verdicts over the summed windows.
//!
//! A timed run is a fixed number of *trials*, set by the workload and
//! `--seconds` alone. Each trial is a fresh process of this binary that
//! issues a fixed number of whole schedule rounds from its own seed and
//! reports every verdict; the run pools them. Per-verdict time grows with
//! the number of distinct instances a process has seen, so:
//!
//! - a run that stopped on the clock would let the speed of the measured
//!   code decide how far that history goes; with fixed counts every run of
//!   every commit issues the same streams;
//! - in one long process the slowest verdicts would all fall in its last
//!   seconds, and the tail would sample the host at one moment; each trial
//!   ends with its own slowest verdicts, spread over the run.
//!
//! The clock only guards: a run that takes more than [`OVERRUN`] times
//! `--seconds` stops and fails.

use crate::check::{self, Tally};
use crate::daemon;
use crate::gen::{Base, Instance, Schedule, UniqueStream};
use crate::reference::MAX_HW;
use crate::report::{self, Metrics, Outcome};
use crate::setup::Prober;
use crate::stats::{self, percentile, share};
use hypertree_core::hypergraph::{parser, Hypergraph};
use hypertree_core::prep::{self, Profile};
use hypertree_core::solver::{EngineOptions, SearchStats};
use hypertree_core::{exact_widths_with_opts, fhd, ghd, hd, ExactWidths, WidthStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A library workload's fixed settings.
pub struct Spec {
    pub name: &'static str,
    pub pool: Vec<Base>,
    /// A verdict slower than this counts as undecided.
    pub limit: Duration,
    /// Whole schedule rounds of one trial, and of the traced pass.
    pub trial_rounds: usize,
    /// Trials a timed run makes per second of `--seconds`: about what a
    /// 2-vCPU host gets through at the parent commit, so the run lasts
    /// about `--seconds` there.
    pub trials_per_s: f64,
}

/// A run that takes more than this many times `--seconds` fails.
pub const OVERRUN: f64 = 5.0;

impl Spec {
    /// Trials of a timed run of `seconds`: [`Spec::trials_per_s`] per
    /// second, and at least enough that 10 samples lie beyond p99.
    fn trials(&self, seconds: f64) -> usize {
        let round_len = Schedule::new(&self.pool, 0).round_len();
        let by_time = (seconds * self.trials_per_s).ceil() as usize;
        let by_tail = stats::samples_for(0.99).div_ceil(round_len * self.trial_rounds);
        by_time.max(by_tail).max(1)
    }
}

/// One timed verdict.
#[derive(Clone)]
struct Verdict {
    base: usize,
    /// Vertices of the instance.
    n: usize,
    /// Whether it ran with tracing on.
    traced: bool,
    us: f64,
    decided: bool,
    stats: WidthStats,
}

/// What a loop over the schedule produced.
#[derive(Default)]
struct Run {
    verdicts: Vec<Verdict>,
    tally: Tally,
    /// Per-base verdict counts, for the manifest.
    issued: BTreeMap<usize, usize>,
    /// Order-sensitive digest of the issued fingerprints.
    digest: u64,
}

impl Run {
    fn window_s(&self) -> f64 {
        self.verdicts.iter().map(|v| v.us).sum::<f64>() / 1e6
    }

    fn bases(&self) -> Vec<usize> {
        self.verdicts.iter().map(|v| v.base).collect()
    }

    /// The untraced and the traced verdicts, as two runs.
    fn split_traced(&self) -> (Run, Run) {
        let part = |traced: bool| Run {
            verdicts: self
                .verdicts
                .iter()
                .filter(|v| v.traced == traced)
                .cloned()
                .collect(),
            ..Run::default()
        };
        (part(false), part(true))
    }

    fn merged(&self, pick: impl Fn(&WidthStats) -> &SearchStats) -> SearchStats {
        let mut total = SearchStats::default();
        for v in &self.verdicts {
            total.merge(pick(&v.stats));
        }
        total
    }
}

/// Calls the front door once, timed; a panic counts as an undecided,
/// failed call.
fn timed_verdict(h: &Hypergraph) -> (Result<Option<(ExactWidths, WidthStats)>, ()>, f64) {
    let started = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        exact_widths_with_opts(h, MAX_HW, EngineOptions::default())
    }));
    let us = started.elapsed().as_secs_f64() * 1e6;
    (out.map_err(|_| ()), us)
}

/// Feeds `rounds` whole rounds of the seeded schedule through the front
/// door, checking every answer between verdicts. A traced pass issues
/// each base twice in a row: untraced, then traced under the bench's own
/// `verdict` root span. Past `deadline` the run stops as an overrun.
fn run_loop(
    spec: &Spec,
    stream: &mut UniqueStream,
    schedule: &mut Schedule,
    rounds: usize,
    deadline: Instant,
    mut pass: Pass<'_>,
) -> Run {
    let mut run = Run::default();
    for _ in 0..rounds * schedule.round_len() {
        if Instant::now() >= deadline {
            run.tally.overrun = true;
            break;
        }
        let base = schedule.next_base();
        match &mut pass {
            Pass::Timed => run.verdict(spec, stream.next(&spec.pool, base), None),
            Pass::Traced(phases) => {
                run.verdict(spec, stream.next(&spec.pool, base), None);
                run.verdict(spec, stream.next(&spec.pool, base), Some(phases));
            }
        }
    }
    run
}

/// How a loop issues its verdicts.
enum Pass<'a> {
    /// Each base once, untraced.
    Timed,
    /// Each base twice, untraced then traced.
    Traced(&'a mut PhaseTotals),
}

impl Run {
    /// Times, checks and records one verdict on `inst`.
    fn verdict(&mut self, spec: &Spec, inst: Instance, phases: Option<&mut PhaseTotals>) {
        let phases_given = phases.is_some();
        *self.issued.entry(inst.base).or_default() += 1;
        self.digest = self.digest.rotate_left(5) ^ (inst.fp.0 as u64) ^ ((inst.fp.0 >> 64) as u64);
        let (out, us) = match phases {
            Some(phases) => {
                obs::trace::set_enabled(true);
                let r = {
                    let _root = obs::span!("verdict");
                    timed_verdict(&inst.h)
                };
                obs::trace::set_enabled(false);
                phases.absorb(&obs::trace::drain());
                r
            }
            None => timed_verdict(&inst.h),
        };
        self.tally.attempted += 1;
        let (decided, stats) = match out {
            Err(()) => {
                self.tally.failed += 1;
                (false, WidthStats::default())
            }
            Ok(None) => (false, WidthStats::default()),
            Ok(Some((w, s))) => {
                self.tally.cold_violations += check::cache_touches(&s);
                self.tally.wrong += check::verdict(&inst.h, &spec.pool[inst.base], &w);
                (us <= spec.limit.as_secs_f64() * 1e6, s)
            }
        };
        self.verdicts.push(Verdict {
            base: inst.base,
            n: inst.h.num_vertices(),
            traced: phases_given,
            us,
            decided,
            stats,
        });
    }
}

/// Self-time per span name on the caller's thread (the blocking path),
/// plus the traced wall-clock it partitions.
#[derive(Default)]
struct PhaseTotals {
    self_us: BTreeMap<&'static str, u64>,
    root_us: u64,
}

impl PhaseTotals {
    /// Adds one drained verdict's records: only the thread that ran the
    /// bench's own `verdict` root counts, so self-times partition it.
    fn absorb(&mut self, records: &[obs::trace::SpanRecord]) {
        let Some(root) = records.iter().find(|r| r.name == "verdict") else {
            return;
        };
        let mine: Vec<obs::trace::SpanRecord> = records
            .iter()
            .filter(|r| r.thread == root.thread)
            .cloned()
            .collect();
        self.root_us += root.dur_us;
        for (name, (_, us)) in obs::trace::phase_totals(&mine) {
            *self.self_us.entry(name).or_default() += us;
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.self_us.get(name).copied().unwrap_or(0)
    }
}

/// Runs a library workload and returns its outcome.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, out: &mut Vec<String>) -> Outcome {
    manifest(spec, out);
    if trace {
        return traced(spec, seed, seconds, out);
    }
    let trials = spec.trials(seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(OVERRUN * seconds);
    let mut prober = Prober::new(trials);
    let mut run = Run::default();
    let mut rss = Vec::new();
    let mut windows_ms = Vec::new();
    for k in 0..trials {
        prober.tick(k);
        if Instant::now() >= deadline {
            run.tally.overrun = true;
            break;
        }
        let before = run.window_s();
        rss.push(run.absorb_trial(&spawn_trial(spec.name, seed, seconds, k)));
        windows_ms.push(format!("{:.0}", (run.window_s() - before) * 1e3));
    }
    let setup = prober.finish(out);
    out.push(report::record("trials", &[("ms", windows_ms.join(","))]));
    stream_record(spec, &run, out);
    slowest_record(spec, &run, out);
    let mut m = Metrics::default();
    end_to_end(&run, &mut m, out);
    m.put("peak_rss_mb", stats::median(&rss), "MiB");
    m.put("setup_s", setup, "s");
    run.tally.outcome(m, out)
}

/// The stream seed of trial `k` of a run on `seed`.
fn trial_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A fresh stream and schedule on `seed`, with the program's lazy set-up
/// (pool spin-up, first-call statics) done on a copy no timed call sees.
fn warmed(spec: &Spec, seed: u64) -> (UniqueStream, Schedule) {
    let mut stream = UniqueStream::new(seed);
    let warm = stream.next(&spec.pool, 0);
    let _ = exact_widths_with_opts(&warm.h, MAX_HW, EngineOptions::default());
    (stream, Schedule::new(&spec.pool, seed))
}

/// Runs trial `k` in a child process; returns what it printed.
fn spawn_trial(workload: &str, seed: u64, seconds: f64, k: usize) -> String {
    let exe = std::env::current_exe().expect("own executable");
    let args = [
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        "0".to_string(),
        "--trial".to_string(),
        k.to_string(),
    ];
    let child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .expect("run a trial");
    if child.status.success() {
        String::from_utf8_lossy(&child.stdout).into_owned()
    } else {
        String::new()
    }
}

/// The child side of a trial: a fresh process issues `trial_rounds`
/// rounds and prints one `v base us decided` line per verdict, then its
/// tally (`t`) and its digest and peak RSS (`d`).
pub fn trial(spec: &Spec, seed: u64, seconds: f64, k: usize) -> ! {
    let (mut stream, mut schedule) = warmed(spec, trial_seed(seed, k));
    let deadline = Instant::now() + Duration::from_secs_f64(OVERRUN * seconds);
    let run = run_loop(
        spec,
        &mut stream,
        &mut schedule,
        spec.trial_rounds,
        deadline,
        Pass::Timed,
    );
    let mut text = String::new();
    for v in &run.verdicts {
        let _ = writeln!(text, "v {} {} {}", v.base, v.us, u8::from(v.decided));
    }
    let t = &run.tally;
    let _ = writeln!(
        text,
        "t {} {} {} {} {}",
        t.attempted,
        t.failed,
        t.wrong,
        t.cold_violations,
        u8::from(t.overrun)
    );
    let _ = writeln!(text, "d {} {}", run.digest, report::peak_rss_mb());
    print!("{text}");
    std::process::exit(0);
}

impl Run {
    /// Adds a trial's report to this run; returns the trial's peak RSS in
    /// MiB. A trial that printed no complete report counts as one failed
    /// call.
    fn absorb_trial(&mut self, text: &str) -> f64 {
        let mut complete = false;
        let mut rss = 0.0;
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let num = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
            match f[0] {
                "v" => {
                    let base = num(1) as usize;
                    *self.issued.entry(base).or_default() += 1;
                    self.verdicts.push(Verdict {
                        base,
                        n: 0,
                        traced: false,
                        us: num(2),
                        decided: num(3) == 1.0,
                        stats: WidthStats::default(),
                    });
                }
                "t" => {
                    let t = &mut self.tally;
                    t.attempted += num(1) as u64;
                    t.failed += num(2) as u64;
                    t.wrong += num(3) as u64;
                    t.cold_violations += num(4) as u64;
                    t.overrun |= num(5) == 1.0;
                }
                "d" => {
                    let digest: u64 = f.get(1).and_then(|x| x.parse().ok()).unwrap_or(0);
                    self.digest = self.digest.rotate_left(7) ^ digest;
                    rss = num(2);
                    complete = true;
                }
                _ => {}
            }
        }
        if !complete {
            self.tally.attempted += 1;
            self.tally.failed += 1;
        }
        rss
    }
}

/// The traced run: the daemon's pass, then the library's traced pass over
/// `trial_rounds` rounds, the history of one trial.
fn traced(spec: &Spec, seed: u64, seconds: f64, out: &mut Vec<String>) -> Outcome {
    let (mut stream, mut schedule) = warmed(spec, seed);
    let deadline = Instant::now() + Duration::from_secs_f64(OVERRUN * seconds);
    // The daemon's pass comes first, while the process is as fresh as a
    // newly started daemon; after the library pass its registry would
    // hold thousands of entries. Its requests take about an eighth of
    // `seconds` per phase.
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let requests = (daemon::RATE * seconds / 8.0).ceil() as usize;
    daemon::layers(seed, requests, &mut m, &mut tally, out);
    let (lm, lt, overhead) = traced_pass(
        spec,
        &mut stream,
        &mut schedule,
        spec.trial_rounds,
        deadline,
        out,
    );
    m.0.extend(lm.0);
    tally.absorb(&lt);
    m.put("obs.trace_overhead_share", overhead, "ratio");
    tally.outcome(m, out)
}

/// The traced pass: `rounds` rounds of the schedule with every base issued
/// twice in a row, untraced (A) and traced (B); interleaving keeps both
/// halves at the same process history. The layer calls (C) then time each
/// layer's entry point directly on the same bases. Returns the per-layer
/// metrics (without the daemon's), the checks of all parts and B's
/// tracing overhead over A.
fn traced_pass(
    spec: &Spec,
    stream: &mut UniqueStream,
    schedule: &mut Schedule,
    rounds: usize,
    deadline: Instant,
    out: &mut Vec<String>,
) -> (Metrics, Tally, f64) {
    let mut phases = PhaseTotals::default();
    let ab = run_loop(
        spec,
        stream,
        schedule,
        rounds,
        deadline,
        Pass::Traced(&mut phases),
    );
    let bases: Vec<usize> = ab.bases().into_iter().step_by(2).collect();
    let layers = layer_calls(spec, stream, &bases, deadline);
    stream_record(spec, &ab, out);
    let (a, b) = ab.split_traced();
    let mut m = Metrics::default();
    per_layer(&b, &phases, &layers, &mut m);
    let mut tally = ab.tally.clone();
    tally.absorb(&layers.tally);
    let overhead = share(b.window_s() - a.window_s(), a.window_s());
    (m, tally, overhead)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run, m: &mut Metrics, out: &mut Vec<String>) {
    let mut us: Vec<f64> = run.verdicts.iter().map(|v| v.us).collect();
    us.sort_by(f64::total_cmp);
    let n = us.len();
    m.put("throughput_per_s", n as f64 / run.window_s(), "1/s");
    m.put("latency_p50_us", percentile(&us, 0.5), "us");
    m.put("latency_p99_us", percentile(&us, 0.99), "us");
    let decided = run.verdicts.iter().filter(|v| v.decided).count();
    m.put("decided_share", share(decided as f64, n as f64), "ratio");
    out.push(samples_record(n));
}

/// States the sample count behind the latency percentiles.
fn samples_record(n: usize) -> String {
    report::record(
        "samples",
        &[
            ("latency", n.to_string()),
            ("beyond_p99", stats::beyond(n, 0.99).to_string()),
            ("supported_tail", format!("{:?}", stats::supported_tail(n))),
        ],
    )
}

/// Counter-based and phase-based layer metrics of the traced pass.
fn per_layer(run: &Run, phases: &PhaseTotals, layers: &Layers, m: &mut Metrics) {
    let n = run.verdicts.len().max(1) as f64;
    let all = {
        let mut t = run.merged(|s| &s.hw);
        t.merge(&run.merged(|s| &s.ghw));
        t.merge(&run.merged(|s| &s.fhw));
        t
    };
    // The minimizer profile (ghw) runs the full prep pipeline.
    let ghw = run.merged(|s| &s.ghw);
    let vertices: usize = run
        .verdicts
        .iter()
        .filter(|v| v.stats.ghw.prep_blocks > 0)
        .map(|v| v.n)
        .sum();
    m.put("hypergraph.parse_us", layers.mean("parse"), "us");
    m.put("prep.prepare_us", layers.mean("prepare"), "us");
    m.put(
        "prep.vertices_removed_share",
        share(ghw.prep_vertices_removed as f64, vertices as f64),
        "ratio",
    );
    m.put("prep.blocks", ghw.prep_blocks as f64 / n, "count");
    m.put("candgen.seed_us", layers.mean("seed"), "us");
    m.put("candgen.generated", all.cand_generated as f64 / n, "count");
    m.put(
        "candgen.kept_share",
        1.0 - share(all.cand_filtered as f64, all.cand_generated as f64),
        "ratio",
    );
    m.put("solver.states", all.states as f64 / n, "count");
    m.put("solver.streamed", all.streamed as f64 / n, "count");
    m.put(
        "solver.admitted_share",
        share(all.admitted as f64, all.streamed as f64),
        "ratio",
    );
    m.put(
        "solver.memo_hit_share",
        share(all.memo_hits as f64, (all.memo_hits + all.states) as f64),
        "ratio",
    );
    m.put(
        "solver.search_self_us",
        phases.get("state") as f64 / n,
        "us",
    );
    m.put("cover.price_self_us", phases.get("price") as f64 / n, "us");
    m.put(
        "cover.price_hit_share",
        share(
            all.price_hits as f64,
            (all.price_hits + all.price_misses) as f64,
        ),
        "ratio",
    );
    let solves = all.lp_warm_starts + all.lp_cold_solves;
    m.put("lp.pivots", all.lp_pivots as f64 / n, "count");
    m.put(
        "lp.pivots_per_solve",
        share(all.lp_pivots as f64, solves as f64),
        "count",
    );
    m.put(
        "lp.warm_start_share",
        share(all.lp_warm_starts as f64, solves as f64),
        "ratio",
    );
    m.put("hd.hw_us", layers.mean("hw"), "us");
    m.put("ghd.ghw_us", layers.mean("ghw"), "us");
    m.put("fhd.fhw_us", layers.mean("fhw"), "us");
    m.put("fhd.elim_fhw_us", layers.mean("elim_fhw"), "us");
    m.put("prep.self_us", phases.get("prep") as f64 / n, "us");
    m.put("candgen.self_us", phases.get("candgen") as f64 / n, "us");
    let attributed: u64 = phases
        .self_us
        .iter()
        .filter(|(k, _)| **k != "verdict")
        .map(|(_, v)| v)
        .sum();
    m.put(
        "obs.span_coverage_share",
        share(attributed as f64, phases.root_us as f64),
        "ratio",
    );
}

/// Mean times of direct calls into each layer's public functions.
#[derive(Default)]
struct Layers {
    sums: BTreeMap<&'static str, (f64, usize)>,
    tally: Tally,
}

impl Layers {
    fn add(&mut self, name: &'static str, us: f64) {
        let e = self.sums.entry(name).or_insert((0.0, 0));
        e.0 += us;
        e.1 += 1;
    }

    fn mean(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .map_or(0.0, |&(s, n)| share(s, n as f64))
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed().as_secs_f64() * 1e6)
}

/// Times each layer's public entry point on the workload's bases, every
/// call on a relabelled copy of its own so no call warms another.
fn layer_calls(
    spec: &Spec,
    stream: &mut UniqueStream,
    bases: &[usize],
    deadline: Instant,
) -> Layers {
    let mut layers = Layers::default();
    let opts = EngineOptions::default();
    for &base in bases {
        if Instant::now() >= deadline {
            layers.tally.overrun = true;
            break;
        }
        let expect = &spec.pool[base].expect;
        let mut fresh = || stream.next(&spec.pool, base).h;

        let text = fresh().to_string();
        let (parsed, us) = time(|| parser::parse(&text));
        layers.add("parse", us);
        layers.tally.attempted += 1;
        if parsed.is_err() {
            layers.tally.failed += 1;
        }

        let h = fresh();
        let (_, us) = time(|| prep::prepare(&h, Profile::Minimizer));
        layers.add("prepare", us);

        let h = fresh();
        let ((g, f), us) = time(|| {
            (
                ghd::ghw_upper_bound_with_stats(&h, opts),
                fhd::fhw_upper_bound_with_stats(&h, opts),
            )
        });
        layers.add("seed", us);
        if let (Some((gu, _)), Some((fu, _))) = (g.0, f.0) {
            // Upper bounds may exceed the widths, never undercut them.
            if gu < expect.ghw || fu < expect.fhw {
                layers.tally.wrong += 1;
            }
        }

        let h = fresh();
        let ((r, _), us) = time(|| hd::hypertree_width_with_stats(&h, MAX_HW, opts));
        layers.add("hw", us);
        layers.tally.wrong += u64::from(r.is_some_and(|(k, _)| k != expect.hw));

        let h = fresh();
        let ((r, _), us) = time(|| ghd::ghw_exact_with_stats(&h, None, opts));
        layers.add("ghw", us);
        layers.tally.wrong += u64::from(r.is_some_and(|(k, _)| k != expect.ghw));

        let h = fresh();
        let ((r, _), us) = time(|| fhd::fhw_exact_with_stats(&h, None, opts));
        layers.add("fhw", us);
        layers.tally.wrong += u64::from(r.is_some_and(|(w, _)| w != expect.fhw));

        let h = fresh();
        let ((r, _), us) = time(|| fhd::fhw_exact_elimination_with_stats(&h, None, opts));
        layers.add("elim_fhw", us);
        layers.tally.wrong += u64::from(r.is_some_and(|(w, _)| w != expect.fhw));
    }
    layers
}

/// The pool manifest: one line per base.
fn manifest(spec: &Spec, out: &mut Vec<String>) {
    for (i, b) in spec.pool.iter().enumerate() {
        out.push(report::record(
            "base",
            &[
                ("workload", spec.name.to_string()),
                ("index", i.to_string()),
                ("family", b.family.clone()),
                ("n", b.h.num_vertices().to_string()),
                ("m", b.h.num_edges().to_string()),
                ("fingerprint", prep::fingerprint(&b.h).to_string()),
                ("expect", b.expect.to_string()),
                ("source", b.source.to_string()),
                ("weight", b.weight.to_string()),
            ],
        ));
    }
}

/// The five slowest verdicts, to explain the tail.
fn slowest_record(spec: &Spec, run: &Run, out: &mut Vec<String>) {
    let mut slow: Vec<&Verdict> = run.verdicts.iter().collect();
    slow.sort_by(|a, b| b.us.total_cmp(&a.us));
    for v in slow.iter().take(5) {
        out.push(report::record(
            "slowest",
            &[
                ("us", format!("{:.0}", v.us)),
                ("family", spec.pool[v.base].family.clone()),
            ],
        ));
    }
}

/// The issued-stream record: per-base counts and the fingerprint digest.
fn stream_record(spec: &Spec, run: &Run, out: &mut Vec<String>) {
    let counts: Vec<String> = run
        .issued
        .iter()
        .map(|(b, n)| format!("{}:{n}", spec.pool[*b].family))
        .collect();
    out.push(report::record(
        "stream",
        &[
            ("instances", run.verdicts.len().to_string()),
            ("digest", format!("{:016x}", run.digest)),
            ("per_base", counts.join(",")),
        ],
    ));
}
