//! `coldbench`: the cold, answer-checked benchmark of the hypertree
//! workspace.
//!
//! ```text
//! coldbench --workload <cq-easy|csp-hard> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's records (environment, instance manifest, stream
//! digest, checks) and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. Exits 1 when any
//! answer is wrong, a call failed, a coldness guard tripped or the run
//! overran its time guard.

mod check;
mod daemon;
mod gen;
mod library;
mod reference;
mod report;
mod setup;
mod stats;

use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child process that runs one trial of a timed run.
    trial: Option<usize>,
}

fn usage(msg: &str) -> ! {
    eprintln!("coldbench: {msg}");
    eprintln!(
        "usage: coldbench --workload <cq-easy|csp-hard> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--setup-probe"] {
        setup::child();
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trial: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--trial" => args.trial = Some(value.parse().unwrap_or_else(|_| usage("bad --trial"))),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn main() {
    // First, before any thread exists or the program reads a knob.
    let cleared = report::pin_environment();
    let args = parse_args();
    let spec = match args.workload.as_str() {
        "cq-easy" => library::Spec {
            name: "cq-easy",
            pool: gen::cq_easy_pool(),
            limit: Duration::from_secs(1),
            trial_rounds: 25,
            trials_per_s: 0.85,
        },
        "csp-hard" => library::Spec {
            name: "csp-hard",
            pool: gen::csp_hard_pool(),
            limit: Duration::from_secs(5),
            trial_rounds: 10,
            trials_per_s: 0.34,
        },
        other => usage(&format!("unknown workload {other:?}")),
    };
    if let Some(k) = args.trial {
        library::trial(&spec, args.seed, args.seconds, k);
    }
    let mut out = vec![report::record(
        "run",
        &[
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
        ],
    )];
    let cleared: Vec<String> = cleared.iter().map(|(k, v)| format!("{k}={v}")).collect();
    out.push(report::record(
        "env",
        &[
            ("cleared", format!("[{}]", cleared.join(","))),
            ("HGTOOL_*", "unset".to_string()),
            (
                "engine_threads",
                hypertree_core::solver::default_thread_count().to_string(),
            ),
            ("options", "EngineOptions::default()".to_string()),
        ],
    ));
    let outcome = library::run(&spec, args.seed, args.seconds, args.trace, &mut out);
    for m in &outcome.metrics.0 {
        out.push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    out.push(report::result_line(&outcome));
    println!("{}", out.join("\n"));
    if !outcome.correct {
        std::process::exit(1);
    }
}
