//! A minimal, offline, API-compatible subset of the `criterion` crate.
//!
//! The build environment has no registry access, so this shim provides the
//! surface the workspace benches use — `Criterion`, `benchmark_group`,
//! `bench_function` / `bench_with_input`, `BenchmarkId`, `Bencher::iter`,
//! and the `criterion_group!` / `criterion_main!` macros — backed by a
//! simple wall-clock measurement loop instead of criterion's statistics.
//!
//! Results print one line per benchmark
//! (`group/id  time: <mean> (<iters> iters)`) and, when the
//! `CRITERION_JSON` environment variable names a file, are appended to it as
//! JSON lines `{"id": ..., "mean_ns": ..., "iters": ...}` for scripts to
//! consume.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a value (forwards to `std::hint`).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level harness state; one per bench binary.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            // Deliberately short: this shim favours fast `cargo bench` runs
            // over statistical rigour.
            measurement_time: Duration::from_millis(200),
            warm_up_time: Duration::from_millis(20),
        }
    }
}

impl Criterion {
    /// Number of measured iterations aimed for per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.sample_size = n;
        self
    }

    /// Wall-clock budget per benchmark. The shim caps this at 2s to keep
    /// `cargo bench` runs short.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t.min(Duration::from_secs(2));
        self
    }

    /// Warm-up budget per benchmark (capped at 200ms in the shim).
    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t.min(Duration::from_millis(200));
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            _parent: std::marker::PhantomData,
        }
    }

    /// Runs a benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_bench(
            id,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            f,
        );
        self
    }
}

/// A named collection of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl<'a> BenchmarkGroup<'a> {
    /// See [`Criterion::sample_size`].
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0);
        self.sample_size = n;
        self
    }

    /// See [`Criterion::measurement_time`].
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t.min(Duration::from_secs(2));
        self
    }

    /// See [`Criterion::warm_up_time`].
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t.min(Duration::from_millis(200));
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_bench(
            &full,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            f,
        );
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_bench(
            &full,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            |b| f(b, input),
        );
        self
    }

    /// Ends the group (kept for API parity; the shim reports eagerly).
    pub fn finish(self) {}
}

/// Identifier for a parameterized benchmark.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            text: format!("{function_name}/{parameter}"),
        }
    }

    /// Just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    result: Option<(f64, u64)>,
}

impl Bencher {
    /// Measures `f` repeatedly and records the mean wall-clock time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: run until the warm-up budget is spent (at least once).
        let warm_start = Instant::now();
        loop {
            black_box(f());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        // Measurement: stop at the iteration target or the time budget,
        // whichever comes first (always at least one iteration).
        let mut iters: u64 = 0;
        let start = Instant::now();
        loop {
            black_box(f());
            iters += 1;
            if iters >= self.sample_size as u64 || start.elapsed() >= self.measurement_time {
                break;
            }
        }
        let mean_ns = start.elapsed().as_nanos() as f64 / iters as f64;
        self.result = Some((mean_ns, iters));
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(
    id: &str,
    sample_size: usize,
    warm: Duration,
    meas: Duration,
    mut f: F,
) {
    let mut b = Bencher {
        sample_size,
        warm_up_time: warm,
        measurement_time: meas,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some((mean_ns, iters)) => {
            println!("{id:<50} time: {:>12} ({iters} iters)", format_ns(mean_ns));
            if let Ok(path) = std::env::var("CRITERION_JSON") {
                if let Ok(mut file) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                {
                    let _ = writeln!(
                        file,
                        "{{\"id\": \"{}\", \"mean_ns\": {:.1}, \"iters\": {}}}",
                        id.replace('"', "'"),
                        mean_ns,
                        iters
                    );
                }
            }
        }
        None => println!("{id:<50} (no measurement: closure never called iter)"),
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Groups benchmark functions under one entry point, with an optional
/// `config = ...` expression (criterion's `name/config/targets` form).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running the given groups (bench targets set `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_measurements() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut g = c.benchmark_group("shim");
        let mut ran = false;
        g.bench_function("trivial", |b| {
            b.iter(|| black_box(2 + 2));
            ran = true;
        });
        g.bench_with_input(BenchmarkId::new("with_input", 3), &3usize, |b, n| {
            b.iter(|| n * 2)
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", "p").to_string(), "f/p");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }
}
