//! Process-lifetime metrics: counters, gauges and histograms behind a
//! lazy registry, snapshotted in Prometheus text exposition format.
//!
//! Metrics are always on (unlike tracing): every instrument is a bare
//! atomic its writer updates directly (the engine's counters once per
//! width query, at its front door), and call sites cache their handle in
//! a `OnceLock` so registration happens once per process.
//! Nothing ever reads a metric on a search path — the registry is
//! strictly write-only until [`render_prometheus`] snapshots it.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter (`*_total` in the exposition).
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (occupancies, in-use
/// permit counts).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket upper bounds, in seconds. Tuned to the
/// µs-scale solves the toy and vendored corpora produce (the paper's
/// hard/easy frontier means real latencies still span microseconds to
/// minutes, so the top end keeps multi-second buckets). Call sites
/// that know their latency profile pass their own bounds through
/// [`histogram_with_buckets`].
pub const DEFAULT_LATENCY_BUCKETS_S: [f64; 17] = [
    0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 5.0, 30.0,
];

/// A fixed-bucket latency histogram (observations in microseconds,
/// exposed in seconds). Bucket bounds are chosen at registration and
/// immutable afterwards.
pub struct Histogram {
    /// Bucket upper bounds in seconds, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; the last slot
    /// is the `+Inf` overflow bucket.
    buckets: Vec<AtomicU64>,
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(&DEFAULT_LATENCY_BUCKETS_S)
    }
}

impl Histogram {
    /// Builds a histogram with the given bucket upper bounds (seconds,
    /// strictly increasing). A `+Inf` overflow bucket is implicit.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Bucket upper bounds in seconds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let seconds = us as f64 / 1e6;
        let slot = self
            .bounds
            .iter()
            .position(|&le| seconds <= le)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy of the bucket state
    /// (individual loads are relaxed; under concurrent writers the
    /// snapshot may straddle an observation, which quantile readers
    /// tolerate).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(self.buckets.len());
        let mut running = 0u64;
        for b in &self.buckets {
            running += b.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            cumulative,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time histogram state: cumulative bucket counts (the last
/// entry is the `+Inf` bucket, equal to the total count).
pub struct HistogramSnapshot {
    /// Bucket upper bounds in seconds (without the implicit `+Inf`).
    pub bounds: Vec<f64>,
    /// Cumulative counts per bucket; `cumulative.len() == bounds.len() + 1`.
    pub cumulative: Vec<u64>,
    /// Sum of observations in microseconds.
    pub sum_us: u64,
    /// Total observation count.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (0 < q <= 1) in microseconds by
    /// linear interpolation inside the bucket that crosses the rank —
    /// the same estimator Prometheus' `histogram_quantile` uses.
    /// Observations in the `+Inf` bucket clamp to the highest finite
    /// bound. Returns `None` on an empty histogram.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = *self.cumulative.last()?;
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * total as f64;
        let mut prev_cum = 0u64;
        for (i, &cum) in self.cumulative.iter().enumerate() {
            if (cum as f64) >= rank && cum > prev_cum {
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // +Inf bucket: clamp to the highest finite bound.
                    return Some((self.bounds.last().copied().unwrap_or(0.0) * 1e6) as u64);
                };
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = (rank - prev_cum as f64) / (cum - prev_cum) as f64;
                return Some(((lo + (hi - lo) * frac) * 1e6) as u64);
            }
            prev_cum = cum;
        }
        None
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    handle: Handle,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn register(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
    make: impl FnOnce() -> Handle,
) -> Handle {
    let labels: Vec<(&'static str, String)> =
        labels.iter().map(|(k, v)| (*k, v.to_string())).collect();
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(existing) = reg.iter().find(|e| e.name == name && e.labels == labels) {
        return match &existing.handle {
            Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
            Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
            Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
        };
    }
    let handle = make();
    let clone = match &handle {
        Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
        Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
        Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
    };
    reg.push(Entry {
        name,
        help,
        labels,
        handle,
    });
    clone
}

/// Registers (or fetches) the unlabeled counter `name`.
pub fn counter(name: &'static str, help: &'static str) -> Arc<Counter> {
    match register(name, help, &[], || Handle::Counter(Arc::default())) {
        Handle::Counter(c) => c,
        _ => unreachable!("metric {name} registered with another type"),
    }
}

/// Registers (or fetches) the counter `name` with the given labels.
pub fn counter_with(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
) -> Arc<Counter> {
    match register(name, help, labels, || Handle::Counter(Arc::default())) {
        Handle::Counter(c) => c,
        _ => unreachable!("metric {name} registered with another type"),
    }
}

/// Registers (or fetches) the unlabeled gauge `name`.
pub fn gauge(name: &'static str, help: &'static str) -> Arc<Gauge> {
    match register(name, help, &[], || Handle::Gauge(Arc::default())) {
        Handle::Gauge(g) => g,
        _ => unreachable!("metric {name} registered with another type"),
    }
}

/// Registers (or fetches) the histogram `name` with the given labels
/// and the default µs-scale bucket bounds
/// ([`DEFAULT_LATENCY_BUCKETS_S`]).
pub fn histogram_with(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
) -> Arc<Histogram> {
    histogram_with_buckets(name, help, labels, &DEFAULT_LATENCY_BUCKETS_S)
}

/// Registers (or fetches) the histogram `name` with explicit bucket
/// upper bounds in seconds. First registration of a (name, labels)
/// pair wins: later calls return the existing handle with its
/// original bounds.
pub fn histogram_with_buckets(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
    bounds: &[f64],
) -> Arc<Histogram> {
    match register(name, help, labels, || {
        Handle::Histogram(Arc::new(Histogram::with_bounds(bounds)))
    }) {
        Handle::Histogram(h) => h,
        _ => unreachable!("metric {name} registered with another type"),
    }
}

fn label_set(labels: &[(&'static str, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Formats a float the exposition-format way (no exponent for the
/// magnitudes we emit; integral values keep a trailing `.0`-free form).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Snapshots every registered metric in Prometheus text exposition
/// format (the `hgtool metrics` output and the `hgtool serve`
/// `GET /metrics` endpoint body). Includes the tracing subsystem's own
/// `hgtool_spans_dropped_total`.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    let reg = registry().lock().expect("metrics registry poisoned");
    // Group consecutive same-name entries under one HELP/TYPE header,
    // preserving registration order (stable within a run).
    let mut seen: Vec<&'static str> = Vec::new();
    for e in reg.iter() {
        if seen.contains(&e.name) {
            continue;
        }
        seen.push(e.name);
        out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
        out.push_str(&format!("# TYPE {} {}\n", e.name, e.handle.kind()));
        for m in reg.iter().filter(|m| m.name == e.name) {
            match &m.handle {
                Handle::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        label_set(&m.labels, None),
                        c.get()
                    ));
                }
                Handle::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        label_set(&m.labels, None),
                        g.get()
                    ));
                }
                Handle::Histogram(h) => {
                    let snap = h.snapshot();
                    for (i, le) in snap.bounds.iter().enumerate() {
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            m.name,
                            label_set(&m.labels, Some(("le", fmt_f64(*le)))),
                            snap.cumulative[i]
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        m.name,
                        label_set(&m.labels, Some(("le", "+Inf".to_string()))),
                        snap.cumulative.last().copied().unwrap_or(0)
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        label_set(&m.labels, None),
                        snap.sum_us as f64 / 1e6
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.name,
                        label_set(&m.labels, None),
                        snap.count
                    ));
                }
            }
        }
    }
    // The tracing subsystem's one metric, emitted directly so the
    // collector never has to depend on the registry.
    out.push_str("# HELP hgtool_spans_dropped_total Trace spans dropped at the collector cap\n");
    out.push_str("# TYPE hgtool_spans_dropped_total counter\n");
    out.push_str(&format!(
        "hgtool_spans_dropped_total {}\n",
        crate::trace::dropped()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_name_and_labels() {
        let a = counter("test_obs_shared_total", "test counter");
        let b = counter("test_obs_shared_total", "test counter");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name resolves to the same atomic");
        let l1 = counter_with("test_obs_lbl_total", "labeled", &[("k", "a")]);
        let l2 = counter_with("test_obs_lbl_total", "labeled", &[("k", "b")]);
        l1.inc();
        assert_eq!((l1.get(), l2.get()), (1, 0), "label sets are distinct");
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        counter("test_obs_render_total", "a counter").add(7);
        gauge("test_obs_render_bytes", "a gauge").set(42);
        let h = histogram_with(
            "test_obs_render_seconds",
            "a histogram",
            &[("strategy", "ghw")],
        );
        h.observe_us(250); // 0.00025s -> le=0.00025 bucket
        h.observe_us(2_000_000); // 2s -> le=5 bucket
        let text = render_prometheus();
        assert!(text.contains("# TYPE test_obs_render_total counter"));
        assert!(text.contains("test_obs_render_total 7"));
        assert!(text.contains("# TYPE test_obs_render_bytes gauge"));
        assert!(text.contains("test_obs_render_bytes 42"));
        assert!(text.contains("test_obs_render_seconds_bucket{strategy=\"ghw\",le=\"0.00025\"} 1"));
        assert!(text.contains("test_obs_render_seconds_bucket{strategy=\"ghw\",le=\"+Inf\"} 2"));
        assert!(text.contains("test_obs_render_seconds_count{strategy=\"ghw\"} 2"));
        assert!(text.contains("test_obs_render_seconds_sum{strategy=\"ghw\"} 2.00025"));
        assert!(text.contains("hgtool_spans_dropped_total"));
        // Exposition format: every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }

    #[test]
    fn custom_buckets_render_their_own_bounds() {
        let h = histogram_with_buckets(
            "test_obs_custom_seconds",
            "custom buckets",
            &[],
            &[0.001, 1.0],
        );
        h.observe_us(500);
        h.observe_us(10_000_000);
        let text = render_prometheus();
        assert!(text.contains("test_obs_custom_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("test_obs_custom_seconds_bucket{le=\"1\"} 1"));
        assert!(text.contains("test_obs_custom_seconds_bucket{le=\"+Inf\"} 2"));
        // Re-registration keeps the original bounds (first wins).
        let again = histogram_with("test_obs_custom_seconds", "custom buckets", &[]);
        assert_eq!(again.bounds(), &[0.001, 1.0]);
        assert_eq!(again.count(), 2);
    }

    #[test]
    fn snapshot_quantiles_interpolate_within_buckets() {
        let h = Histogram::with_bounds(&[0.0001, 0.001, 0.01]);
        for _ in 0..50 {
            h.observe_us(50); // first bucket
        }
        for _ in 0..50 {
            h.observe_us(5_000); // third bucket
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        // p50 lands exactly at the top of the first bucket.
        assert_eq!(snap.quantile_us(0.5), Some(100));
        // p99 interpolates inside the (0.001, 0.01] bucket.
        let p99 = snap.quantile_us(0.99).unwrap();
        assert!((1_000..=10_000).contains(&p99), "p99 = {p99}");
        // +Inf-only mass clamps to the top finite bound.
        let inf = Histogram::with_bounds(&[0.0001]);
        inf.observe_us(1_000_000);
        assert_eq!(inf.snapshot().quantile_us(0.5), Some(100));
        // Empty histogram has no quantiles.
        assert_eq!(
            Histogram::with_bounds(&[0.1]).snapshot().quantile_us(0.5),
            None
        );
    }
}
