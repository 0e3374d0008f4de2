//! The daemon: accept loop, connection workers, readiness warmup,
//! graceful drain, signal handling and the streaming trace sink.

use crate::http::{read_request, write_response, RecvError, Response};
use crate::metrics::handles;
use crate::service;
use hypertree_core::hypergraph::{generators, Hypergraph};
use hypertree_core::prep::cancel::{interrupt, CancelToken};
use hypertree_core::solver::EngineOptions;
use hypertree_core::{ghd, solver};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable: slow-request log threshold in milliseconds.
pub const SLOW_REQUEST_ENV: &str = "HGTOOL_SLOW_REQUEST_MS";

/// Environment variable: trace 1-in-N request sampling.
pub const TRACE_SAMPLE_ENV: &str = "HGTOOL_TRACE_SAMPLE";

/// Environment variable: request body cap in bytes.
pub const MAX_BODY_ENV: &str = "HGTOOL_MAX_BODY_BYTES";

/// Environment variable: drain grace period in milliseconds before
/// in-flight solves are cancelled.
pub const DRAIN_GRACE_ENV: &str = "HGTOOL_DRAIN_GRACE_MS";

fn env_u64(var: &str) -> Option<u64> {
    std::env::var(var).ok().and_then(|v| v.parse::<u64>().ok())
}

/// Daemon configuration. [`ServeConfig::from_env`] reads the env
/// knobs; fields stay overridable for tests and the bench harness.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7878`; port 0 picks an ephemeral one).
    pub addr: String,
    /// Engine options for every solve. The default forces at least two
    /// workers so the shared pool actually spins up (same rationale as
    /// `hgtool metrics`).
    pub engine: EngineOptions,
    /// Append the `hgtool-trace/v1` JSONL stream of sampled requests
    /// to this file.
    pub trace_json: Option<String>,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
    /// Slow-request log threshold; `None` disables the log.
    pub slow_request_ms: Option<u64>,
    /// Trace 1-in-N request sampling (1 = every request).
    pub trace_sample: u64,
    /// The warmup instance `/readyz` gates on (default: a small cycle).
    pub warmup: Option<Hypergraph>,
    /// How long a drain waits for in-flight requests before cancelling
    /// them through the root token.
    pub drain_grace: Duration,
}

impl ServeConfig {
    /// Defaults with every env knob applied.
    pub fn from_env() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            engine: EngineOptions {
                threads: Some(solver::default_thread_count().max(2)),
                ..EngineOptions::default()
            },
            trace_json: None,
            max_body_bytes: env_u64(MAX_BODY_ENV).unwrap_or(8 * 1024 * 1024) as usize,
            slow_request_ms: env_u64(SLOW_REQUEST_ENV),
            trace_sample: env_u64(TRACE_SAMPLE_ENV).unwrap_or(1).max(1),
            warmup: None,
            drain_grace: Duration::from_millis(env_u64(DRAIN_GRACE_ENV).unwrap_or(5_000)),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::from_env()
    }
}

/// State shared by the accept loop, connection workers and the service
/// layer.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    /// Every request token is a child of this; drain cancels it after
    /// the grace period.
    pub(crate) root: CancelToken,
    pub(crate) draining: AtomicBool,
    pub(crate) ready: AtomicBool,
    /// Solves run one at a time (one search saturates the pool).
    pub(crate) solve_gate: Mutex<()>,
    pub(crate) next_request: AtomicU64,
    pub(crate) engine_opts: EngineOptions,
    sample_counter: AtomicU64,
    /// Whether tracing was armed process-wide (HGTOOL_TRACE) before the
    /// server started — sampling never disarms a baseline-on trace.
    baseline_trace: bool,
    sink: Option<Mutex<std::fs::File>>,
    active: Mutex<usize>,
    idle: Condvar,
}

impl Shared {
    /// 1-in-N sampling decision for the current request. Only samples
    /// when something consumes spans (a sink, the slow log, or a
    /// baseline-armed trace).
    pub(crate) fn sample_request(&self) -> bool {
        let wants =
            self.baseline_trace || self.sink.is_some() || self.config.slow_request_ms.is_some();
        if !wants {
            return false;
        }
        let n = self.config.trace_sample.max(1);
        self.sample_counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(n)
    }

    /// Appends span lines of one drained request to the JSONL sink.
    pub(crate) fn write_trace(&self, spans: &[obs::trace::SpanRecord]) {
        if spans.is_empty() {
            return;
        }
        if let Some(sink) = &self.sink {
            let mut f = sink.lock().expect("trace sink poisoned");
            let _ = f.write_all(obs::trace::render_span_lines(spans).as_bytes());
        }
    }

    /// The slow-request log: over the threshold, print the request's
    /// phase self-time breakdown from its trace (or a latency-only
    /// line when the request wasn't sampled).
    pub(crate) fn slow_log(
        &self,
        request_id: &str,
        endpoint: &str,
        elapsed: Duration,
        spans: &[obs::trace::SpanRecord],
    ) {
        let Some(threshold_ms) = self.config.slow_request_ms else {
            return;
        };
        if elapsed.as_millis() < u128::from(threshold_ms) {
            return;
        }
        handles().slow_requests.inc();
        if spans.is_empty() {
            eprintln!(
                "serve: slow request {request_id} {endpoint} {}ms (untraced; \
                 set HGTOOL_TRACE_SAMPLE=1 for phase breakdowns)",
                elapsed.as_millis()
            );
            return;
        }
        let mut phases: Vec<(&str, (u64, u64))> =
            obs::trace::phase_totals(spans).into_iter().collect();
        phases.sort_by_key(|&(_, (_, self_us))| std::cmp::Reverse(self_us));
        let breakdown: Vec<String> = phases
            .iter()
            .take(6)
            .map(|(name, (count, self_us))| format!("{name}={self_us}us/{count}"))
            .collect();
        eprintln!(
            "serve: slow request {request_id} {endpoint} {}ms phases[self-time]: {} ({} spans)",
            elapsed.as_millis(),
            breakdown.join(" "),
            spans.len()
        );
    }

    fn connection_opened(&self) {
        *self.active.lock().expect("active count poisoned") += 1;
    }

    fn connection_closed(&self) {
        let mut n = self.active.lock().expect("active count poisoned");
        *n -= 1;
        if *n == 0 {
            self.idle.notify_all();
        }
    }

    /// Waits until no connections are active, up to `timeout`.
    fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut n = self.active.lock().expect("active count poisoned");
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .idle
                .wait_timeout(n, deadline - now)
                .expect("active count poisoned");
            n = guard;
        }
        true
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`Server::drain`] (or `POST /admin/drain`, or send SIGTERM under
/// [`Server::run_until_drained`]).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    warmup_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Returns once the listener is live
    /// (readiness lags until the warmup solve finishes — poll
    /// `/readyz` or [`Server::ready`]).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let m = handles();
        interrupt::install_quiet_hook();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let sink = match &config.trace_json {
            Some(path) => {
                let mut f = std::fs::File::create(path)?;
                f.write_all(obs::trace::render_jsonl_stream_meta().as_bytes())?;
                Some(Mutex::new(f))
            }
            None => None,
        };
        let engine_opts = config.engine;
        let shared = Arc::new(Shared {
            root: CancelToken::new(),
            draining: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            solve_gate: Mutex::new(()),
            next_request: AtomicU64::new(1),
            engine_opts,
            sample_counter: AtomicU64::new(0),
            baseline_trace: obs::trace::enabled(),
            sink,
            active: Mutex::new(0),
            idle: Condvar::new(),
            config,
        });

        // Readiness: solve a small instance with the configured engine
        // options so the shared worker pool spins up before the first
        // real request; /readyz reports 200 once it lands.
        let warmup_shared = Arc::clone(&shared);
        let warmup_thread = std::thread::Builder::new()
            .name("serve-warmup".to_string())
            .spawn(move || {
                let h = warmup_shared
                    .config
                    .warmup
                    .clone()
                    .unwrap_or_else(|| generators::cycle(4));
                let _ = ghd::ghw_exact_with_stats(&h, None, warmup_shared.engine_opts);
                warmup_shared.ready.store(true, Ordering::Relaxed);
                handles().ready.set(1);
            })
            .expect("spawn warmup thread");

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        let _ = m;
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            warmup_thread: Some(warmup_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the warmup solve finished.
    pub fn ready(&self) -> bool {
        self.shared.ready.load(Ordering::Relaxed)
    }

    /// Triggers a drain without waiting (the accept loop notices
    /// within its poll interval).
    pub fn request_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }

    /// Graceful shutdown: stop accepting, wait for in-flight requests
    /// up to the grace period, cancel stragglers through the root
    /// token, flush the sink, join every thread.
    pub fn drain(mut self) {
        self.request_drain();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let grace = self.shared.config.drain_grace;
        if !self.shared.wait_idle(grace) {
            // Grace expired: cancel in-flight solves through the
            // CancelToken chains; they unwind, answer 503, and close.
            self.shared.root.cancel();
            let _ = self.shared.wait_idle(Duration::from_secs(30));
        }
        if let Some(t) = self.warmup_thread.take() {
            let _ = t.join();
        }
        if let Some(sink) = &self.shared.sink {
            let _ = sink.lock().expect("trace sink poisoned").flush();
        }
    }

    /// Blocks until a drain is requested — by SIGTERM/SIGINT (unix),
    /// or `POST /admin/drain` — then drains. The `hgtool serve`
    /// foreground loop.
    pub fn run_until_drained(self) {
        #[cfg(unix)]
        signals::install();
        loop {
            #[cfg(unix)]
            if signals::signaled() {
                eprintln!("serve: signal received, draining");
                break;
            }
            if self.shared.draining.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        self.drain();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let m = handles();
    while !shared.draining.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                m.connections_accepted.inc();
                m.connections_active.add(1);
                shared.connection_opened();
                let conn_shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        handles().connections_active.sub(1);
                        conn_shared.connection_closed();
                    });
            }
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock) => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    // Dropping the listener closes the socket; connections drain
    // through Server::drain.
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Short read timeout so idle keep-alive connections poll the drain
    // flag; blocking reads would pin the drain on client inactivity.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    loop {
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        match read_request(&mut stream, shared.config.max_body_bytes) {
            Ok(req) => {
                let (mut resp, drain) = service::handle(shared, &req);
                if req.wants_close() {
                    resp.close = true;
                }
                let write_ok = write_response(&mut stream, &resp).is_ok();
                if drain {
                    shared.draining.store(true, Ordering::Relaxed);
                }
                if !write_ok || resp.close || drain {
                    return;
                }
            }
            Err(RecvError::Idle) => continue,
            Err(RecvError::Closed) => return,
            Err(RecvError::TooLarge) => {
                let mut resp = Response::error(413, "request too large");
                resp.close = true;
                let _ = write_response(&mut stream, &resp);
                return;
            }
            Err(RecvError::BadRequest(msg)) => {
                let mut resp = Response::error(400, &msg);
                resp.close = true;
                let _ = write_response(&mut stream, &resp);
                return;
            }
            Err(RecvError::Io(_)) => return,
        }
    }
}

/// SIGTERM/SIGINT notification without a signal-handling dependency:
/// the handler only sets an atomic flag (async-signal-safe), polled by
/// [`Server::run_until_drained`]. The `signal` symbol comes from libc,
/// which std already links.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the flag-setting handler for SIGINT (2) and SIGTERM (15).
    pub(super) fn install() {
        // SAFETY: `signal` is the C library's handler registration; the
        // handler does nothing but a relaxed atomic store, which is
        // async-signal-safe.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }

    pub(super) fn signaled() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}
