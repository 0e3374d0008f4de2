//! The daemon's service metrics, registered in the process-wide `obs`
//! registry so `GET /metrics` renders them live next to the engine's
//! own solve and cache metrics. The catalog lives in
//! `crates/obs/README.md`.

use obs::metrics::{
    counter, counter_with, gauge, histogram_with_buckets, Counter, Gauge, Histogram,
    DEFAULT_LATENCY_BUCKETS_S,
};
use std::sync::{Arc, OnceLock};

/// The endpoints the per-endpoint counters/histograms are labeled by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /solve`.
    Solve,
    /// `POST /solve/batch`.
    SolveBatch,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
    /// `GET /readyz`.
    Readyz,
    /// `GET /version`.
    Version,
    /// `POST /admin/drain`.
    Drain,
    /// Anything else (404s and method mismatches).
    Other,
}

impl Endpoint {
    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Solve => "solve",
            Endpoint::SolveBatch => "solve_batch",
            Endpoint::Metrics => "metrics",
            Endpoint::Healthz => "healthz",
            Endpoint::Readyz => "readyz",
            Endpoint::Version => "version",
            Endpoint::Drain => "drain",
            Endpoint::Other => "other",
        }
    }

    const ALL: [Endpoint; 8] = [
        Endpoint::Solve,
        Endpoint::SolveBatch,
        Endpoint::Metrics,
        Endpoint::Healthz,
        Endpoint::Readyz,
        Endpoint::Version,
        Endpoint::Drain,
        Endpoint::Other,
    ];
}

/// Every service metric handle, registered once per process.
pub struct ServiceMetrics {
    /// `hgtool_serve_connections_accepted_total`.
    pub connections_accepted: Arc<Counter>,
    /// `hgtool_serve_connections_active`.
    pub connections_active: Arc<Gauge>,
    /// `hgtool_serve_queue_depth` — requests waiting at the solve gate.
    pub queue_depth: Arc<Gauge>,
    /// `hgtool_serve_admission_wait_seconds` — time spent queued at
    /// the solve gate.
    pub admission_wait: Arc<Histogram>,
    /// `hgtool_serve_deadline_expired_total`.
    pub deadline_expired: Arc<Counter>,
    /// `hgtool_serve_requests_cancelled_total` — solves cut short by
    /// drain (not by their own deadline).
    pub cancelled: Arc<Counter>,
    /// `hgtool_serve_slow_requests_total` — requests over the
    /// `HGTOOL_SLOW_REQUEST_MS` threshold.
    pub slow_requests: Arc<Counter>,
    /// `hgtool_serve_ready` — 0 until the warmup solve finished.
    pub ready: Arc<Gauge>,
    requests: Vec<(Endpoint, Arc<Counter>)>,
    latency: Vec<(Endpoint, Arc<Histogram>)>,
}

impl ServiceMetrics {
    /// The `hgtool_serve_requests_total{endpoint=...}` counter.
    pub fn requests(&self, ep: Endpoint) -> &Arc<Counter> {
        &self
            .requests
            .iter()
            .find(|(e, _)| *e == ep)
            .expect("every endpoint is registered")
            .1
    }

    /// The `hgtool_serve_request_latency_seconds{endpoint=...}`
    /// histogram (solve endpoints only — probe endpoints are
    /// constant-time and would only dilute the latency track).
    pub fn latency(&self, ep: Endpoint) -> Option<&Arc<Histogram>> {
        self.latency.iter().find(|(e, _)| *e == ep).map(|(_, h)| h)
    }
}

/// The process-wide handle set (first call registers).
pub fn handles() -> &'static ServiceMetrics {
    static M: OnceLock<ServiceMetrics> = OnceLock::new();
    M.get_or_init(|| ServiceMetrics {
        connections_accepted: counter(
            "hgtool_serve_connections_accepted_total",
            "TCP connections accepted by hgtool serve",
        ),
        connections_active: gauge(
            "hgtool_serve_connections_active",
            "Currently open hgtool serve connections",
        ),
        queue_depth: gauge(
            "hgtool_serve_queue_depth",
            "Requests waiting at the solve admission gate",
        ),
        admission_wait: histogram_with_buckets(
            "hgtool_serve_admission_wait_seconds",
            "Time requests spent queued at the solve admission gate",
            &[],
            &DEFAULT_LATENCY_BUCKETS_S,
        ),
        deadline_expired: counter(
            "hgtool_serve_deadline_expired_total",
            "Requests whose per-request deadline expired mid-solve",
        ),
        cancelled: counter(
            "hgtool_serve_requests_cancelled_total",
            "Requests cancelled by server drain",
        ),
        slow_requests: counter(
            "hgtool_serve_slow_requests_total",
            "Requests over the HGTOOL_SLOW_REQUEST_MS threshold",
        ),
        ready: gauge("hgtool_serve_ready", "1 once the warmup solve finished"),
        requests: Endpoint::ALL
            .iter()
            .map(|&ep| {
                (
                    ep,
                    counter_with(
                        "hgtool_serve_requests_total",
                        "Requests served by endpoint",
                        &[("endpoint", ep.label())],
                    ),
                )
            })
            .collect(),
        latency: [Endpoint::Solve, Endpoint::SolveBatch]
            .iter()
            .map(|&ep| {
                (
                    ep,
                    histogram_with_buckets(
                        "hgtool_serve_request_latency_seconds",
                        "End-to-end request latency by endpoint",
                        &[("endpoint", ep.label())],
                        &DEFAULT_LATENCY_BUCKETS_S,
                    ),
                )
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_endpoint_has_a_request_counter() {
        let m = handles();
        for ep in Endpoint::ALL {
            m.requests(ep).add(0);
        }
        assert!(m.latency(Endpoint::Solve).is_some());
        assert!(m.latency(Endpoint::SolveBatch).is_some());
        assert!(m.latency(Endpoint::Healthz).is_none());
        let text = obs::metrics::render_prometheus();
        assert!(text.contains("hgtool_serve_requests_total{endpoint=\"solve\"}"));
        assert!(text.contains("hgtool_serve_request_latency_seconds_bucket"));
    }
}
