//! `setup_s`: time to a ready program, measured in fresh processes.
//!
//! The worker pool starts once per process, so each probe is a child
//! process running this binary with `--setup-probe`. The child times
//! itself from entering the probe to ready: pool spin-up and the first
//! solve. Process creation and loading stay out. The reported value is the
//! median of [`PROBES`] probes spread over the run.

use crate::stats;
use hypertree_core::hypergraph::generators;
use hypertree_core::solver::EngineOptions;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Probes per run.
pub const PROBES: usize = 21;

/// Takes [`PROBES`] probes spread evenly over a run's trials, between
/// them, so that `setup_s` samples the whole run rather than one moment of
/// the host.
pub struct Prober {
    every: f64,
    times: Vec<f64>,
}

impl Prober {
    /// Probes over a run of `steps` trials.
    pub fn new(steps: usize) -> Prober {
        Prober {
            every: steps as f64 / PROBES as f64,
            times: Vec::new(),
        }
    }

    /// Takes the probes the run, at trial `step`, is due for.
    pub fn tick(&mut self, step: usize) {
        while self.times.len() < PROBES && step as f64 >= self.times.len() as f64 * self.every {
            self.times.push(probe());
        }
    }

    /// The median probe, after topping up to [`PROBES`]; records them all.
    pub fn finish(mut self, out: &mut Vec<String>) -> f64 {
        while self.times.len() < PROBES {
            self.times.push(probe());
        }
        let ms: Vec<String> = self
            .times
            .iter()
            .map(|t| format!("{:.3}", t * 1e3))
            .collect();
        out.push(crate::report::record(
            "setup_probes",
            &[("ms", ms.join(","))],
        ));
        stats::median(&self.times)
    }
}

/// One child process's own time to ready, in seconds.
fn probe() -> f64 {
    let exe = std::env::current_exe().expect("own executable");
    let mut child = Command::new(&exe)
        .arg("--setup-probe")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn set-up probe");
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let status = child.wait().expect("wait for set-up probe");
    let took = line
        .strip_prefix("ready ")
        .and_then(|s| s.trim().parse::<f64>().ok());
    match took {
        Some(s) if read.is_ok() && status.success() => s,
        _ => panic!("set-up probe failed: {line:?} {status}"),
    }
}

/// The child side: get ready, say how long it took, exit.
pub fn child() -> ! {
    let started = Instant::now();
    let h = generators::triangle_chain(3);
    let w = hypertree_core::exact_widths_with_opts(&h, 8, EngineOptions::default());
    assert!(w.is_some(), "first solve answered");
    let mut out = std::io::stdout();
    let _ = writeln!(out, "ready {}", started.elapsed().as_secs_f64());
    let _ = out.flush();
    std::process::exit(0);
}
