//! # serve — width-as-a-service
//!
//! A std-only HTTP/1.1 daemon over [`std::net::TcpListener`] that
//! accepts hypergraphs — single and batch — and routes them through
//! the solver runtime, with observability as the organizing layer:
//! every request gets a request-id attached to its root `obs` span,
//! service metrics (connections, queue depth, admission waits,
//! per-endpoint counters and µs-scale latency histograms, deadline and
//! cancellation counters) live in the process-wide `obs` registry, and
//! `GET /metrics` renders that registry live while solves are in
//! flight.
//!
//! # Endpoints
//!
//! | Endpoint            | Behavior                                         |
//! |---------------------|--------------------------------------------------|
//! | `POST /solve`       | one instance: measure, deadline-ms, witness      |
//! | `POST /solve/batch` | many instances, solved in input order            |
//! | `GET /metrics`      | live Prometheus render of the `obs` registry     |
//! | `GET /healthz`      | liveness (always 200 while the process runs)     |
//! | `GET /readyz`       | 200 once the warmup solve is done                |
//! | `GET /version`      | crate version + schema tags                      |
//! | `POST /admin/drain` | graceful shutdown (stop accepting, drain, flush) |
//!
//! # Concurrency model
//!
//! Connections are handled thread-per-connection with keep-alive, but
//! solves are admitted one at a time through a gate mutex, because the
//! span collector is process-global: a request arms tracing and drains
//! the collector as its own trace, which is race-free only while one
//! solve runs. Every solve runs on its connection's thread; a batch runs
//! its instances one after another under one admission. The gate also
//! makes the queue-depth gauge and the admission-wait histogram
//! meaningful.
//!
//! # Deadlines and drain
//!
//! Per-request deadlines ride the existing cancellation machinery: a
//! request token is a child of the server root `CancelToken` with the
//! request's deadline, installed with `prep::cancel::with_cancel` as
//! the solve's ambient token; the engine root and the elimination DP
//! pick it up and unwind with the interrupt payload when it expires.
//! Draining (SIGTERM/ctrl-c, `POST /admin/drain`, or
//! [`Server::drain`]) stops accepting, waits for in-flight requests up
//! to a grace period, then cancels the root token so stragglers unwind
//! through the same chains, and flushes the trace sink.

pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod server;
mod service;

pub use loadgen::{LoadReport, LoadgenOptions};
pub use server::{ServeConfig, Server};

/// The JSON response schema tag (`GET /version` reports it).
pub const API_SCHEMA: &str = "hgtool-serve/v2";
