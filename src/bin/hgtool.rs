//! `hgtool` — command-line front end for the hypertree library.
//!
//! ```text
//! hgtool structure <file>             structural profile (BIP/BMIP/BDP/VC)
//! hgtool widths [--stats] [--no-prep] [--heuristic-only] <file>...
//!                                     exact hw / ghw / fhw (small instances);
//!                                     several files (or a `*` glob in the
//!                                     file name) run in input order,
//!                                     repeated instances answered from the
//!                                     result cache;
//!                                     --stats adds engine + LP-cache +
//!                                     candidate-generation + simplex
//!                                     (pivot/warm-start) + result-cache
//!                                     counters,
//!                                     --no-prep bypasses the preprocessing
//!                                     pipeline,
//!                                     --heuristic-only prints the candgen
//!                                     upper bounds + witnesses without any
//!                                     exact search (any instance size),
//!                                     --trace prints the span tree + phase
//!                                     totals, --trace-json <file> writes
//!                                     the hgtool-trace/v1 JSONL stream,
//!                                     --trace-folded <file> writes
//!                                     flamegraph folded stacks (tracing
//!                                     also arms via HGTOOL_TRACE=1)
//! hgtool metrics <file>...            run the batch twice (cold + warm)
//!                                     and print the process metrics
//!                                     registry in Prometheus text format
//! hgtool prep <file>                  print the width-preserving reduction
//!                                     trace, blocks and fingerprints
//! hgtool check <hd|ghd|fhd> <k> <file>   decide width <= k, print witness
//! hgtool reduce <n> <m> [seed]        build the Thm 3.2 reduction for a
//!                                     random planted 3SAT instance and
//!                                     validate the Table 1 witness
//! hgtool serve [--addr <host:port>] [--trace-json <file>]
//!                                     width-as-a-service HTTP daemon:
//!                                     POST /solve and /solve/batch, live
//!                                     GET /metrics, /healthz, /readyz,
//!                                     /version, POST /admin/drain;
//!                                     honors HGTOOL_SLOW_REQUEST_MS,
//!                                     HGTOOL_TRACE_SAMPLE,
//!                                     HGTOOL_MAX_BODY_BYTES,
//!                                     HGTOOL_DRAIN_GRACE_MS; SIGTERM or
//!                                     /admin/drain shut down gracefully
//! hgtool loadgen [--addr <a>] [--connections N] [--duration-ms N]
//!                [--max-requests N] [--measure w]
//!                [--deadline-ms N] [--batch-every N] [--json] [<file>...]
//!                                     closed-loop load generator against a
//!                                     running hgtool serve; replays the
//!                                     vendored bench corpus by default, or
//!                                     the given HyperBench files
//! ```
//!
//! Files use the HyperBench syntax: `edge(v1,v2,...), ...`; `-` reads stdin.

use hypertree::arith::Rational;
use hypertree::decomp::validate;
use hypertree::fhd::{self, HdkParams};
use hypertree::ghd::{self, SubedgeLimits};
use hypertree::hypergraph::{parser, Hypergraph};
use hypertree::prep;
use hypertree::reduction::{self, Cnf};
use hypertree::solver::exact;
use hypertree::solver::EngineOptions;
use hypertree::{analyze_structure, hd};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hgtool: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  hgtool structure <file>");
            eprintln!(
                "  hgtool widths [--stats] [--no-prep] [--heuristic-only] \
                 [--trace] [--trace-json <file>] [--trace-folded <file>] <file>..."
            );
            eprintln!("  hgtool metrics <file>...");
            eprintln!("  hgtool prep <file>");
            eprintln!("  hgtool check <hd|ghd|fhd> <k> <file>");
            eprintln!("  hgtool reduce <n> <m> [seed]");
            eprintln!("  hgtool serve [--addr <host:port>] [--trace-json <file>]");
            eprintln!(
                "  hgtool loadgen [--addr <host:port>] [--connections <n>] [--duration-ms <n>] \
                 [--max-requests <n>] [--measure <widths|hw|ghw|fhw>] \
                 [--deadline-ms <n>] [--batch-every <n>] [--json] [<file>...]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args {
        [cmd, file] if cmd == "structure" => structure(&load(file)?),
        [cmd, rest @ ..] if cmd == "widths" => {
            let mut stats = false;
            let mut no_prep = false;
            let mut heuristic_only = false;
            let mut trace = TraceOpts::default();
            let mut files: Vec<String> = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--stats" => stats = true,
                    "--no-prep" => no_prep = true,
                    "--heuristic-only" => heuristic_only = true,
                    "--trace" => trace.tree = true,
                    "--trace-json" => {
                        i += 1;
                        let path = rest.get(i).ok_or("--trace-json needs a file")?;
                        trace.json = Some(path.clone());
                    }
                    "--trace-folded" => {
                        i += 1;
                        let path = rest.get(i).ok_or("--trace-folded needs a file")?;
                        trace.folded = Some(path.clone());
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("unknown widths flag {other}"))
                    }
                    file => files.extend(expand_glob(file)?),
                }
                i += 1;
            }
            // A trace sink arms collection; --stats arms it too so the
            // phase-time columns have spans to aggregate. Tracing is
            // observational only — widths, witnesses and counters are
            // byte-identical either way (the determinism tests pin this).
            if trace.active() || stats {
                obs::trace::set_enabled(true);
            }
            if obs::trace::enabled() {
                // Start from a clean buffer: drop spans of any earlier
                // in-process work so the sinks describe this command only.
                obs::trace::drain();
            }
            let records = match files.as_slice() {
                [] => return Err("widths needs at least one file".into()),
                [file] if heuristic_only => {
                    heuristic_widths(&load(file)?, no_prep)?;
                    drain_if_tracing()
                }
                [file] => widths(&load(file)?, stats, no_prep)?,
                many if heuristic_only => {
                    return Err(format!(
                        "--heuristic-only takes one file, got {}",
                        many.len()
                    ))
                }
                many => {
                    widths_batch(many, stats, no_prep)?;
                    drain_if_tracing()
                }
            };
            emit_trace(&trace, &records)
        }
        [cmd, rest @ ..] if cmd == "metrics" => {
            let mut files: Vec<String> = Vec::new();
            for arg in rest {
                if arg.starts_with("--") {
                    return Err(format!("unknown metrics flag {arg}"));
                }
                files.extend(expand_glob(arg)?);
            }
            if files.is_empty() {
                return Err("metrics needs at least one file".into());
            }
            metrics_cmd(&files)
        }
        [cmd, file] if cmd == "prep" => prep_trace(&load(file)?),
        [cmd, method, k, file] if cmd == "check" => check(method, k, &load(file)?),
        [cmd, n, m] if cmd == "reduce" => reduce(n, m, "0"),
        [cmd, n, m, seed] if cmd == "reduce" => reduce(n, m, seed),
        [cmd, rest @ ..] if cmd == "serve" => serve_cmd(rest),
        [cmd, rest @ ..] if cmd == "loadgen" => loadgen_cmd(rest),
        _ => Err("unknown or incomplete command".into()),
    }
}

/// Which trace sinks `hgtool widths` should render after the command.
#[derive(Default)]
struct TraceOpts {
    /// `--trace`: human-readable span tree + phase totals on stdout.
    tree: bool,
    /// `--trace-json <file>`: the `hgtool-trace/v1` JSONL stream.
    json: Option<String>,
    /// `--trace-folded <file>`: flamegraph folded stacks.
    folded: Option<String>,
}

impl TraceOpts {
    fn active(&self) -> bool {
        self.tree || self.json.is_some() || self.folded.is_some()
    }
}

/// Collects the spans recorded so far (empty when tracing is off).
fn drain_if_tracing() -> Vec<obs::trace::SpanRecord> {
    if obs::trace::enabled() {
        obs::trace::drain()
    } else {
        Vec::new()
    }
}

/// Renders the requested trace sinks over the command's span records.
fn emit_trace(topts: &TraceOpts, records: &[obs::trace::SpanRecord]) -> Result<(), String> {
    if topts.tree {
        println!();
        print!("{}", obs::trace::render_tree(records));
        println!();
        println!("phase totals (self time, no double counting):");
        for (name, (count, self_us)) in obs::trace::phase_totals(records) {
            println!("  {name:<14} {count:>7} spans  {self_us:>12}us");
        }
    }
    if let Some(path) = &topts.json {
        std::fs::write(path, obs::trace::render_jsonl(records))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "trace: wrote {} spans to {path} (hgtool-trace/v1)",
            records.len()
        );
    }
    if let Some(path) = &topts.folded {
        std::fs::write(path, obs::trace::render_folded(records))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace: wrote folded stacks to {path}");
    }
    Ok(())
}

/// `hgtool metrics`: run the batch twice — a cold pass, then a warm pass
/// whose lookups come back from the result cache — and print the
/// process-lifetime metrics registry in Prometheus text exposition format.
/// Two passes make the cache gauges meaningfully nonzero: hit counters
/// and byte occupancy reflect real traffic rather than an idle registry.
fn metrics_cmd(files: &[String]) -> Result<(), String> {
    let mut instances = Vec::with_capacity(files.len());
    for f in files {
        instances.push(load(f)?);
    }
    let opts = EngineOptions::default();
    for pass in ["cold", "warm"] {
        let solved = instances
            .iter()
            .filter(|h| ghd::ghw_exact_with_stats(h, None, opts).0.is_some())
            .count();
        eprintln!(
            "metrics: {pass} pass solved {solved}/{} instances",
            instances.len()
        );
    }
    print!("{}", obs::metrics::render_prometheus());
    Ok(())
}

/// Expands a `*` glob in the file-name component (for shells that hand the
/// pattern through unexpanded); a plain path passes through untouched.
fn expand_glob(pattern: &str) -> Result<Vec<String>, String> {
    if !pattern.contains('*') || pattern == "-" {
        return Ok(vec![pattern.to_string()]);
    }
    let path = std::path::Path::new(pattern);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    if dir.to_str().is_none_or(|d| d.contains('*')) {
        return Err(format!(
            "{pattern}: globs are only supported in the file name"
        ));
    }
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("{pattern}: bad glob"))?;
    let mut out: Vec<String> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let fname = entry.file_name();
        let Some(fname) = fname.to_str() else {
            continue;
        };
        if glob_match(name, fname) && entry.path().is_file() {
            out.push(entry.path().display().to_string());
        }
    }
    out.sort();
    if out.is_empty() {
        return Err(format!("{pattern}: no matching files"));
    }
    Ok(out)
}

/// `*`-only glob match (greedy left-to-right).
fn glob_match(pattern: &str, name: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == name;
    }
    if !name.starts_with(parts[0]) {
        return false;
    }
    let mut rest = &name[parts[0].len()..];
    for part in &parts[1..parts.len() - 1] {
        if part.is_empty() {
            continue;
        }
        match rest.find(part) {
            Some(pos) => rest = &rest[pos + part.len()..],
            None => return false,
        }
    }
    rest.ends_with(parts[parts.len() - 1])
}

fn load(path: &str) -> Result<Hypergraph, String> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    parser::parse(&text).map_err(|e| e.to_string())
}

/// `hgtool serve`: run the width-as-a-service daemon in the foreground
/// until SIGTERM/SIGINT or `POST /admin/drain`.
fn serve_cmd(rest: &[String]) -> Result<(), String> {
    let mut config = serve::ServeConfig::from_env();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--addr" => {
                i += 1;
                config.addr = rest.get(i).ok_or("--addr needs host:port")?.clone();
            }
            "--trace-json" => {
                i += 1;
                let path = rest.get(i).ok_or("--trace-json needs a file")?;
                config.trace_json = Some(path.clone());
            }
            other => return Err(format!("unknown serve flag {other}")),
        }
        i += 1;
    }
    let server = serve::Server::start(config).map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "serve: listening on http://{} ({}); POST /solve, GET /metrics, \
         POST /admin/drain to stop",
        server.addr(),
        serve::API_SCHEMA
    );
    server.run_until_drained();
    eprintln!("serve: drained");
    Ok(())
}

/// `hgtool loadgen`: drive a running daemon closed-loop and report
/// client-side throughput and latency quantiles.
fn loadgen_cmd(rest: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut opts = serve::LoadgenOptions::default();
    let mut as_json = false;
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let take = |name: &str| -> Result<String, String> {
            rest.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match rest[i].as_str() {
            "--addr" => {
                addr = take("--addr")?;
                i += 1;
            }
            "--connections" => {
                opts.connections = take("--connections")?
                    .parse()
                    .map_err(|_| "--connections needs a number")?;
                i += 1;
            }
            "--duration-ms" => {
                let ms: u64 = take("--duration-ms")?
                    .parse()
                    .map_err(|_| "--duration-ms needs a number")?;
                opts.duration = std::time::Duration::from_millis(ms);
                i += 1;
            }
            "--max-requests" => {
                opts.max_requests = Some(
                    take("--max-requests")?
                        .parse()
                        .map_err(|_| "--max-requests needs a number")?,
                );
                i += 1;
            }
            "--measure" => {
                opts.measure = take("--measure")?;
                i += 1;
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    take("--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs a number")?,
                );
                i += 1;
            }
            "--batch-every" => {
                opts.batch_every = take("--batch-every")?
                    .parse()
                    .map_err(|_| "--batch-every needs a number")?;
                i += 1;
            }
            "--json" => as_json = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown loadgen flag {other}"))
            }
            file => files.extend(expand_glob(file)?),
        }
        i += 1;
    }
    // Files on the command line name the workload; with none, replay
    // the vendored bench corpus (compiled in, so no paths needed).
    let mut instances: Vec<(String, String)> = Vec::new();
    for f in &files {
        instances.push((f.clone(), load(f)?.to_string()));
    }
    if instances.is_empty() {
        instances = hypertree_bench::vendored_corpus()
            .into_iter()
            .map(|w| (w.name, w.hypergraph.to_string()))
            .collect();
    }
    let report = serve::loadgen::run(&addr, &instances, &opts)
        .map_err(|e| format!("loadgen: {addr}: {e}"))?;
    if as_json {
        println!("{}", report.to_json());
    } else {
        println!(
            "loadgen: {} connections, {} instances, {:.2}s",
            report.connections,
            instances.len(),
            report.elapsed.as_secs_f64()
        );
        println!(
            "  requests {}  ok {}  errors {}  deadline-expired {}  cached {} ({:.1}%)",
            report.requests,
            report.ok,
            report.errors,
            report.deadline_expired,
            report.cached_responses,
            report.cache_hit_ratio() * 100.0
        );
        println!(
            "  qps {:.1}  latency p50 {}us  p95 {}us  p99 {}us",
            report.qps, report.p50_us, report.p95_us, report.p99_us
        );
    }
    if report.requests > 0 && report.ok == 0 {
        return Err("loadgen: every request failed".into());
    }
    Ok(())
}

fn structure(h: &Hypergraph) -> Result<(), String> {
    let s = analyze_structure(h, 18);
    println!("vertices:            {}", s.num_vertices);
    println!("edges:               {}", s.num_edges);
    println!("rank:                {}", s.rank);
    println!("degree (BDP d):      {}", s.degree);
    println!("intersection width:  {} (BIP i)", s.intersection_width);
    println!(
        "multi-intersections: c=2:{} c=3:{} c=4:{}",
        s.multi_intersection_widths[0],
        s.multi_intersection_widths[1],
        s.multi_intersection_widths[2]
    );
    match s.vc_dimension {
        Some(vc) => println!("VC-dimension:        {vc}"),
        None => println!("VC-dimension:        (skipped, too large)"),
    }
    println!("alpha-acyclic:       {}", s.alpha_acyclic);
    Ok(())
}

fn widths(
    h: &Hypergraph,
    stats: bool,
    no_prep: bool,
) -> Result<Vec<obs::trace::SpanRecord>, String> {
    let mut opts = EngineOptions::default();
    if no_prep {
        opts = opts.without_prep();
    }
    // Per-width calls rather than `exact_widths_with_opts`: past the DP's
    // window hw (det-k) and a proven ghw still answer where fhw does not,
    // so each width degrades to `n/a` independently instead of failing
    // the whole command. The three share one instance: hw builds its
    // result-cache key and runs its join tree, ghw prepares it and seeds
    // each block, fhw reuses both. Draining the span buffer between
    // the calls attributes each span batch to its measure for the
    // phase-time columns.
    let mut instance = exact::Instance::new(h, opts);
    let (hw, hw_stats) = hd::hypertree_width_on(&mut instance, 1, 8);
    let hw_spans = drain_if_tracing();
    let (ghw, ghw_stats) = ghd::ghw_exact_on(&mut instance, 1);
    let ghw_spans = drain_if_tracing();
    let (fhw, fhw_stats) = fhd::fhw_exact_on(&mut instance, None);
    let fhw_spans = drain_if_tracing();
    if hw.is_none() && ghw.is_none() && fhw.is_none() {
        return Err("instance too large for the exact engines \
                    (try --heuristic-only for witness-backed bounds)"
            .into());
    }
    let s = hypertree::WidthStats {
        hw: hw_stats,
        ghw: ghw_stats,
        fhw: fhw_stats,
    };
    // `hw = 1` exactly when `h` is α-acyclic, and then one join tree
    // answered all three widths.
    let join_tree = matches!(hw, Some((1, _)));
    let fmt = |v: Option<String>| v.unwrap_or_else(|| "n/a (out of exact range)".into());
    println!("hw  = {}", fmt(hw.map(|(k, _)| k.to_string())));
    println!("ghw = {}", fmt(ghw.map(|(k, _)| k.to_string())));
    println!("fhw = {}", fmt(fhw.map(|(k, _)| k.to_string())));
    if stats {
        println!();
        if join_tree {
            println!(
                "path: join tree (alpha-acyclic: one GYO ear removal answered \
                 hw = ghw = fhw = 1; nothing prepared, seeded or searched)"
            );
        } else {
            println!(
                "path: cyclic (the GYO ear removal failed): hw runs det-k from \
                 k = 2; ghw and fhw seed each block of at most {} vertices and \
                 search below the seed with the elimination DP. Past that \
                 window an acyclic block is its join tree, fhw answers n/a \
                 unseeded, and ghw keeps a seed of at most 2 or runs the \
                 width-2 edge-union search, else n/a; `hgtool check ghd 2` \
                 runs the paper's check for an n/a ghw",
                hypertree::candgen::elimination::MAX_EXACT_VERTICES
            );
        }
        if opts.prep {
            println!(
                "prep: on (hw decision profile; ghw/fhw minimizer profile, \
                 prepared and seeded once by ghw, so fhw's prep and candgen \
                 phase times read 0; disable with --no-prep)"
            );
        } else {
            println!("prep: off");
        }
        println!(
            "engine        states  memo-hits   streamed   admitted   lp-cache       \
             prep -v/-e/blocks   cand gen/filt   ub-seed"
        );
        for (name, t) in [("hw", &s.hw), ("ghw", &s.ghw), ("fhw", &s.fhw)] {
            println!(
                "{name:<10} {:>9} {:>10} {:>10} {:>10}   {}/{} ({:.0}% hit)   {}/{}/{}   {}/{}   {}",
                t.states,
                t.memo_hits,
                t.streamed,
                t.admitted,
                t.price_hits,
                t.price_hits + t.price_misses,
                100.0 * t.price_hit_rate(),
                t.prep_vertices_removed,
                t.prep_edges_removed,
                t.prep_blocks,
                t.cand_generated,
                t.cand_filtered,
                t.ub_width
                    .as_ref()
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        println!();
        println!("engine     lp-pivots  warm-starts  cold-solves");
        for (name, t) in [("hw", &s.hw), ("ghw", &s.ghw), ("fhw", &s.fhw)] {
            println!(
                "{name:<10} {:>9} {:>12} {:>12}",
                t.lp_pivots, t.lp_warm_starts, t.lp_cold_solves,
            );
        }
        println!();
        println!("engine     result-cache-hits");
        for (name, t) in [("hw", &s.hw), ("ghw", &s.ghw), ("fhw", &s.fhw)] {
            println!("{name:<10} {:>17}", t.result_cache_hits);
        }
        if obs::trace::enabled() {
            // Phase times are span *self* times (a phase excludes its
            // sub-phases), so the columns partition each measure's solve
            // wall-clock instead of double counting nested work. The
            // search column counts engine states and the elimination DP.
            println!();
            println!("engine       prep-us  candgen-us   search-us  pricing-us   all-phases-us");
            for (name, spans) in [("hw", &hw_spans), ("ghw", &ghw_spans), ("fhw", &fhw_spans)] {
                let totals = obs::trace::phase_totals(spans);
                let get = |k: &str| totals.get(k).map(|&(_, s)| s).unwrap_or(0);
                let all: u64 = totals.values().map(|&(_, s)| s).sum();
                println!(
                    "{name:<10} {:>9} {:>11} {:>11} {:>11} {:>15}",
                    get("prep"),
                    get("candgen"),
                    get("state") + get("elim"),
                    get("price"),
                    all,
                );
            }
        }
    }
    let mut records = hw_spans;
    records.extend(ghw_spans);
    records.extend(fhw_spans);
    Ok(records)
}

/// `hgtool widths` over several files: [`hypertree::exact_widths_with_opts`]
/// on each, in input order; repeated instances resolve from the
/// cross-call result cache.
fn widths_batch(files: &[String], stats: bool, no_prep: bool) -> Result<(), String> {
    let mut opts = EngineOptions::default();
    if no_prep {
        opts = opts.without_prep();
        opts.reuse_results = false;
    }
    let mut instances = Vec::with_capacity(files.len());
    for f in files {
        instances.push(load(f)?);
    }
    let name_width = files.iter().map(|f| f.len()).max().unwrap_or(0);
    for (file, h) in files.iter().zip(&instances) {
        match &hypertree::exact_widths_with_opts(h, 8, opts) {
            Some((w, s)) => {
                let mut line = format!(
                    "{file:<name_width$}  hw={} ghw={} fhw={}",
                    w.hw, w.ghw, w.fhw
                );
                if stats {
                    let hits =
                        s.hw.result_cache_hits + s.ghw.result_cache_hits + s.fhw.result_cache_hits;
                    let states = s.hw.states + s.ghw.states + s.fhw.states;
                    line.push_str(&format!("   states={states} result-cache-hits={hits}"));
                }
                println!("{line}");
            }
            None => println!("{file:<name_width$}  n/a (out of exact range)"),
        }
    }
    Ok(())
}

/// `hgtool widths --heuristic-only`: the candgen upper bounds (min-degree
/// / min-fill elimination orderings + local search, per reduced block)
/// with their witnesses, skipping the exact searches entirely — usable at
/// any instance size.
fn heuristic_widths(h: &Hypergraph, no_prep: bool) -> Result<(), String> {
    let mut opts = EngineOptions::default();
    if no_prep {
        opts = opts.without_prep();
    }
    let (ghw, ghw_d) = ghd::ghw_upper_bound_with_stats(h, opts)
        .0
        .ok_or("invalid instance (empty or isolated vertices)")?;
    let (fhw, fhw_d) = fhd::fhw_upper_bound_with_stats(h, opts)
        .0
        .expect("same validity as ghw");
    let ghw_ok = validate::validate_ghd(h, &ghw_d).is_ok();
    let fhw_ok = validate::validate_fhd(h, &fhw_d).is_ok();
    println!(
        "ghw <= {ghw}   (witness: {} nodes, validated: {ghw_ok})",
        ghw_d.len()
    );
    println!(
        "fhw <= {fhw}   (witness: {} nodes, validated: {fhw_ok})",
        fhw_d.len()
    );
    println!("(heuristic min-degree/min-fill elimination bounds; no exact search ran)");
    Ok(())
}

/// `hgtool prep`: print the reduction trace the width engines run behind
/// the scenes (minimizer profile), plus the conservative decision profile
/// summary.
fn prep_trace(h: &Hypergraph) -> Result<(), String> {
    if h.has_isolated_vertices() {
        return Err("hypergraph has isolated vertices; the solvers reject it".into());
    }
    println!(
        "original: {} vertices, {} edges",
        h.num_vertices(),
        h.num_edges()
    );
    let prepared = prep::prepare(h, prep::Profile::Minimizer);
    println!();
    println!("minimizer profile (ghw/fhw: GYO closure + twin collapse + blocks):");
    if prepared.steps().is_empty() {
        println!("  (irreducible)");
    }
    for (i, step) in prepared.steps().iter().enumerate() {
        let line = match step {
            prep::Step::EdgeSubsumed {
                removed,
                kept,
                equal,
            } => format!(
                "edge {} {} edge {}",
                h.edge_name(*removed),
                if *equal { "duplicates" } else { "subsumed by" },
                h.edge_name(*kept)
            ),
            prep::Step::TwinVertex { removed, twin } => format!(
                "vertex {} twin of {}",
                h.vertex_name(*removed),
                h.vertex_name(*twin)
            ),
            prep::Step::DegreeOneVertex { vertex, edge, .. } => format!(
                "vertex {} degree-one in edge {}",
                h.vertex_name(*vertex),
                h.edge_name(*edge)
            ),
        };
        println!("  {:>3}. {line}", i + 1);
    }
    println!(
        "  removed: {} vertices, {} edges",
        prepared.stats.vertices_removed, prepared.stats.edges_removed
    );
    println!("  blocks: {}", prepared.blocks.len());
    for (i, block) in prepared.blocks.iter().enumerate() {
        println!(
            "    block {}: {} vertices, {} edges, fingerprint {}",
            i,
            block.hypergraph.num_vertices(),
            block.hypergraph.num_edges(),
            prep::fingerprint(&block.hypergraph),
        );
    }
    let decision = prep::prepare(h, prep::Profile::Decision);
    println!();
    println!(
        "decision profile (hw/frac-decomp/strict-HD: duplicates + twins): \
         {} vertices, {} edges removed",
        decision.stats.vertices_removed, decision.stats.edges_removed
    );
    Ok(())
}

fn check(method: &str, k: &str, h: &Hypergraph) -> Result<(), String> {
    let k_rat: Rational = k.parse().map_err(|e| format!("bad width {k}: {e}"))?;
    let witness = match method {
        "hd" => {
            let k: usize = k.parse().map_err(|_| "hd needs an integer width")?;
            hd::check_hd(h, k)
        }
        "ghd" => {
            let k: usize = k.parse().map_err(|_| "ghd needs an integer width")?;
            match ghd::check_ghd_bip(h, k, SubedgeLimits::default()) {
                ghd::GhdAnswer::Yes { decomposition, .. } => Some(*decomposition),
                ghd::GhdAnswer::No => None,
                ghd::GhdAnswer::Unknown => {
                    return Err("subedge enumeration truncated; result unknown".into())
                }
            }
        }
        "fhd" => fhd::check_fhd_bdp(h, &k_rat, HdkParams::default())
            .decomposition()
            .cloned(),
        other => return Err(format!("unknown method {other}; use hd | ghd | fhd")),
    };
    match witness {
        Some(d) => {
            let ok = match method {
                "hd" => validate::validate_hd(h, &d).is_ok(),
                "ghd" => validate::validate_ghd(h, &d).is_ok(),
                _ => validate::validate_fhd(h, &d).is_ok(),
            };
            println!(
                "YES: width {} ({} nodes, validated: {ok})",
                d.width(),
                d.len()
            );
            print!("{}", d.render(h));
            Ok(())
        }
        None => {
            println!("NO: no {method} of width <= {k}");
            Ok(())
        }
    }
}

fn reduce(n: &str, m: &str, seed: &str) -> Result<(), String> {
    let n: usize = n.parse().map_err(|_| "bad n")?;
    let m: usize = m.parse().map_err(|_| "bad m")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let (cnf, plant) = Cnf::random_planted(n.max(3), m, seed);
    println!("φ = {cnf}");
    let r = reduction::build(&cnf);
    println!(
        "H: |V| = {}, |E| = {}",
        r.hypergraph.num_vertices(),
        r.hypergraph.num_edges()
    );
    let d = reduction::witness_ghd(&r, &plant);
    let ok = validate::validate_ghd(&r.hypergraph, &d).is_ok();
    println!(
        "Table 1 witness: {} nodes, width {}, validated: {ok}",
        d.len(),
        d.width()
    );
    Ok(())
}
