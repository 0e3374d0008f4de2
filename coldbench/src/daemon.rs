//! The daemon's layers (`serve.*`), measured at the start of every traced
//! run: an in-process `serve::Server` on loopback, driven open-loop at a
//! fixed offered rate over two keep-alive connections with `POST /solve`
//! (`measure: widths`) and, every twentieth request, a five-instance
//! `POST /solve/batch`.
//!
//! Half of the instances repeat a hot set of 16, answered from the result
//! cache (the set is solved once before timing starts). The other half
//! are never-seen relabellings: `cq-easy` bases, and every twentieth a
//! light `csp-hard` one, which miss and insert through the solve gate.
//! The mix is the same on both workloads, so `serve.*` compares across
//! them.

use crate::check::Tally;
use crate::gen::{self, Base, Instance, Schedule, UniqueStream};
use crate::report::{self, Metrics};
use crate::stats::{self, percentile, share};
use obs::json::Json;
use serve::http::json_escape;
use serve::loadgen::http_call;
use serve::metrics::handles;
use serve::{ServeConfig, Server};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered rate, requests per second: about half of what the daemon
/// sustains over two connections on a 2-core host.
pub const RATE: f64 = 200.0;
/// Client connections (each with its own sending thread).
pub const CONNECTIONS: usize = 2;
/// The designed hit share and the band a run must stay within.
pub const HIT_SHARE: f64 = 0.5;
pub const HIT_BAND: f64 = 0.05;
/// Instances in the hot set.
pub const HOT: usize = 16;

/// The daemon configuration: the program's defaults (the environment is
/// cleared first) on an ephemeral loopback port.
pub fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::from_env()
    }
}

/// The base pool: every `cq-easy` base, then the light named `csp-hard`
/// ones that are in exact range (a fixed set, so the tail the medium
/// requests set does not move with the seed).
fn pool() -> (Vec<Base>, usize) {
    let mut pool = gen::cq_easy_pool();
    let cq = pool.len();
    pool.extend(
        gen::csp_hard_pool()
            .into_iter()
            .filter(|b| b.weight > 1 && b.source == "table" && b.family != "cycle(26)"),
    );
    (pool, cq)
}

/// One planned request.
struct Planned {
    batch: bool,
    body: String,
    /// The base of each instance in it.
    bases: Vec<usize>,
}

/// Generates requests: the hot set and a source of fresh instances. Every
/// choice runs through a seeded round-robin, so each run has the same mix:
/// every twentieth fresh instance is a light `csp-hard` one.
struct Planner {
    pool: Vec<Base>,
    /// Bases before this index are `cq-easy` ones, the rest light `csp-hard`.
    cq: usize,
    hot: Vec<Instance>,
    stream: UniqueStream,
    hot_order: Schedule,
    cq_order: Schedule,
    medium_order: Schedule,
    fresh_count: usize,
    next: usize,
}

impl Planner {
    fn new(seed: u64) -> Planner {
        let (pool, cq) = pool();
        let mut stream = UniqueStream::new(seed);
        let mut cq_order = Schedule::new(&pool[..cq], seed);
        let mut medium_order = Schedule::new(&pool[cq..], seed ^ 1);
        // Three in four hot instances are CQ-shaped.
        let hot = (0..HOT)
            .map(|i| {
                let base = if i % 4 == 3 {
                    cq + medium_order.next_base()
                } else {
                    cq_order.next_base()
                };
                stream
                    .next_as_text(&pool, base)
                    .expect("a fresh hot instance")
            })
            .collect();
        let hot_order = Schedule::uniform(HOT, seed ^ 2);
        Planner {
            pool,
            cq,
            hot,
            stream,
            hot_order,
            cq_order,
            medium_order,
            fresh_count: 0,
            next: 0,
        }
    }

    /// A never-seen instance; a base whose text forms ran out is skipped.
    fn fresh(&mut self) -> Instance {
        self.fresh_count += 1;
        loop {
            let base = if self.fresh_count.is_multiple_of(20) {
                self.cq + self.medium_order.next_base()
            } else {
                self.cq_order.next_base()
            };
            if let Some(inst) = self.stream.next_as_text(&self.pool, base) {
                return inst;
            }
        }
    }

    fn hot_one(&mut self) -> Instance {
        self.hot[self.hot_order.next_base()].clone()
    }

    /// The next request of a fixed pattern of twenty: eight hot singles,
    /// eleven fresh singles and a batch of four hot and one fresh, so half
    /// of all instances are hot while the median request is a fresh one
    /// (a median on the boundary between the two would jump between them).
    fn request(&mut self) -> Planned {
        let i = self.next % 20;
        self.next += 1;
        if i == 19 {
            let insts = [
                self.hot_one(),
                self.hot_one(),
                self.fresh(),
                self.hot_one(),
                self.hot_one(),
            ];
            let rows: Vec<String> = insts
                .iter()
                .enumerate()
                .map(|(k, inst)| {
                    format!(
                        "{{\"name\":\"i{k}\",\"hypergraph\":{}}}",
                        json_escape(&inst.h.to_string())
                    )
                })
                .collect();
            return Planned {
                batch: true,
                body: format!(
                    "{{\"instances\":[{}],\"measure\":\"widths\"}}",
                    rows.join(",")
                ),
                bases: insts.iter().map(|inst| inst.base).collect(),
            };
        }
        let hot = matches!(i % 5, 0 | 2);
        let inst = if hot { self.hot_one() } else { self.fresh() };
        Planned {
            batch: false,
            body: single_body(&inst),
            bases: vec![inst.base],
        }
    }

    fn plan(&mut self, n: usize) -> Vec<Planned> {
        (0..n).map(|_| self.request()).collect()
    }
}

fn single_body(inst: &Instance) -> String {
    format!(
        "{{\"hypergraph\":{},\"measure\":\"widths\"}}",
        json_escape(&inst.h.to_string())
    )
}

/// One answered (or failed) request.
#[derive(Clone, Debug, Default)]
struct Sample {
    /// Due time to response, µs.
    latency_us: f64,
    /// Send time minus due time, µs.
    late_us: f64,
    /// The daemon's own `elapsed_us`.
    server_us: f64,
    /// Send to response, µs.
    client_us: f64,
    ok: bool,
    instances: usize,
    cached: usize,
    wrong: u64,
    /// The families of the request's instances.
    families: String,
}

/// Checks one response body against the planned items.
fn judge(pool: &[Base], planned: &Planned, status: u16, body: &str, s: &mut Sample) {
    s.instances = planned.bases.len();
    let families: Vec<&str> = planned
        .bases
        .iter()
        .map(|&b| pool[b].family.as_str())
        .collect();
    s.families = families.join("+");
    if status != 200 {
        return;
    }
    let Ok(v) = obs::json::parse(body) else {
        return;
    };
    s.ok = true;
    s.server_us = v.get("elapsed_us").and_then(Json::as_num).unwrap_or(0.0);
    let rows: Vec<&Json> = if planned.batch {
        match v.get("results") {
            Some(Json::Arr(rows)) => rows.iter().collect(),
            _ => Vec::new(),
        }
    } else {
        vec![&v]
    };
    if rows.len() != planned.bases.len() {
        s.wrong += 1;
        return;
    }
    for (row, &base) in rows.into_iter().zip(&planned.bases) {
        let Some(w) = row.get("widths") else {
            continue;
        };
        if row.get("cached") == Some(&Json::Bool(true)) {
            s.cached += 1;
        }
        let e = &pool[base].expect;
        let text = |k: &str| match w.get(k) {
            Some(Json::Num(x)) => format!("{x}"),
            Some(Json::Str(x)) => x.clone(),
            _ => String::new(),
        };
        let got = [text("hw"), text("ghw"), text("fhw")];
        let want = [e.hw.to_string(), e.ghw.to_string(), e.fhw.to_string()];
        s.wrong += got.iter().zip(&want).filter(|(g, w)| g != w).count() as u64;
    }
}

/// What one open-loop phase produced.
struct Phase {
    samples: Vec<Sample>,
    queue_depth_max: i64,
}

/// Sends `plan` open-loop at `rate` over [`CONNECTIONS`] connections:
/// request `i` is due at `i / rate` seconds and goes out on connection
/// `i % CONNECTIONS` as soon as that connection is free.
fn drive(addr: SocketAddr, pool: &[Base], plan: &[Planned], rate: f64, watch_queue: bool) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let finished = AtomicUsize::new(0);
    let finished = &finished;
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).ok();
                    if let Some(s) = &stream {
                        let _ = s.set_nodelay(true);
                    }
                    let mut out = Vec::new();
                    for (i, planned) in plan.iter().enumerate().skip(conn).step_by(CONNECTIONS) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let path = if planned.batch {
                            "/solve/batch"
                        } else {
                            "/solve"
                        };
                        let reply = match stream.as_mut() {
                            Some(s) => http_call(s, "POST", path, Some(&planned.body)),
                            None => Err(std::io::Error::other("not connected")),
                        };
                        let done = Instant::now();
                        let mut s = Sample {
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                            client_us: (done - sent).as_secs_f64() * 1e6,
                            ..Sample::default()
                        };
                        match reply {
                            Ok((status, body)) => judge(pool, planned, status, &body, &mut s),
                            Err(_) => {
                                s.instances = planned.bases.len();
                                stream = TcpStream::connect(addr).ok();
                            }
                        }
                        out.push(s);
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                    out
                })
            })
            .collect();
        // The admission-queue gauge, sampled every 2 ms while the clients
        // run (traced phase only). Sampling every 100 µs made the daemon
        // about 25 times slower on a 2-vCPU host.
        let monitor = watch_queue.then(|| {
            scope.spawn(|| {
                let mut depth = 0i64;
                while finished.load(Ordering::Relaxed) < CONNECTIONS {
                    depth = depth.max(handles().queue_depth.get());
                    std::thread::sleep(Duration::from_millis(2));
                }
                depth
            })
        });
        let depth = monitor.map_or(0, |m| m.join().expect("queue monitor"));
        let samples: Vec<Vec<Sample>> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        (samples, depth)
    });
    let (results, queue_depth_max) = results;
    Phase {
        samples: results.into_iter().flatten().collect(),
        queue_depth_max,
    }
}

impl Phase {
    fn sorted(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.samples {
            t.attempted += 1;
            t.failed += u64::from(!s.ok);
            t.wrong += s.wrong;
        }
        t
    }

    fn hit_share(&self) -> f64 {
        let instances: usize = self.samples.iter().map(|s| s.instances).sum();
        let cached: usize = self.samples.iter().map(|s| s.cached).sum();
        share(cached as f64, instances as f64)
    }
}

/// A started daemon with its hot set already cached.
struct Daemon {
    server: Server,
    planner: Planner,
}

impl Daemon {
    fn start(seed: u64) -> Daemon {
        let server = Server::start(config()).expect("bind loopback");
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        while http_call(&mut conn, "GET", "/readyz", None)
            .map(|r| r.0)
            .ok()
            != Some(200)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let planner = Planner::new(seed);
        for inst in &planner.hot {
            let _ = http_call(&mut conn, "POST", "/solve", Some(&single_body(inst)));
        }
        Daemon { server, planner }
    }

    /// Drives `requests` requests at [`RATE`].
    fn phase(&mut self, requests: usize) -> Phase {
        let plan = self.planner.plan(requests);
        drive(
            self.server.addr(),
            &self.planner.pool,
            &plan,
            RATE,
            obs::trace::enabled(),
        )
    }
}

/// The `serve.*` layer metrics with their units.
const SERVE_LAYERS: [(&str, &str); 6] = [
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.transport_p50_us", "us"),
    ("serve.gate_wait_p50_us", "us"),
    ("serve.gate_wait_p99_us", "us"),
    ("serve.queue_depth_max", "count"),
];

/// The admission-wait histogram's change between two snapshots.
fn gate_wait(
    before: &obs::metrics::HistogramSnapshot,
    after: &obs::metrics::HistogramSnapshot,
    q: f64,
) -> f64 {
    let diff = obs::metrics::HistogramSnapshot {
        bounds: after.bounds.clone(),
        cumulative: after
            .cumulative
            .iter()
            .zip(&before.cumulative)
            .map(|(a, b)| a - b)
            .collect(),
        sum_us: after.sum_us - before.sum_us,
        count: after.count - before.count,
    };
    diff.quantile_us(q).unwrap_or(0) as f64
}

/// Starts the daemon, drives `requests` requests untraced (A) and as many
/// traced (B), and stops it. Puts every `serve.*` layer metric (from B)
/// into `m`. The daemon draws its own instances (from `seed` with other
/// bits), so none repeats one the library calls see.
pub fn layers(
    seed: u64,
    requests: usize,
    m: &mut Metrics,
    tally: &mut Tally,
    out: &mut Vec<String>,
) {
    config_record(out);
    let mut d = Daemon::start(seed ^ 0xd0_0d);
    let a = d.phase(requests);
    obs::trace::set_enabled(true);
    let wait_before = handles().admission_wait.snapshot();
    let b = d.phase(requests);
    let wait_after = handles().admission_wait.snapshot();
    obs::trace::set_enabled(false);
    d.server.drain();
    for p in [&a, &b] {
        tally.absorb(&p.tally());
        band(p, tally);
    }
    let server = b.sorted(|s| s.server_us);
    let transport = b.sorted(|s| s.client_us - s.server_us);
    let values = [
        percentile(&server, 0.5),
        percentile(&server, 0.99),
        percentile(&transport, 0.5),
        gate_wait(&wait_before, &wait_after, 0.5),
        gate_wait(&wait_before, &wait_after, 0.99),
        b.queue_depth_max as f64,
    ];
    for ((name, unit), value) in SERVE_LAYERS.into_iter().zip(values) {
        m.put(name, value, unit);
    }
    phase_record("untraced", &a, out);
    phase_record("traced", &b, out);
}

/// Records the daemon's pinned configuration.
fn config_record(out: &mut Vec<String>) {
    let cfg = config();
    out.push(report::record(
        "serve_config",
        &[
            ("threads", format!("{:?}", cfg.engine.threads)),
            ("max_body_bytes", cfg.max_body_bytes.to_string()),
            ("trace_sample", cfg.trace_sample.to_string()),
            ("slow_request_ms", format!("{:?}", cfg.slow_request_ms)),
            ("drain_grace_ms", cfg.drain_grace.as_millis().to_string()),
            ("rate", format!("{RATE}")),
            ("hit_band", format!("{HIT_SHARE}+-{HIT_BAND}")),
        ],
    ));
}

/// Fails the run when the measured hit share leaves its band.
fn band(p: &Phase, tally: &mut Tally) {
    let hits = p.hit_share();
    if (hits - HIT_SHARE).abs() > HIT_BAND {
        tally.hit_band_violation = Some(format!("{hits:.4}"));
    }
}

fn phase_record(name: &str, p: &Phase, out: &mut Vec<String>) {
    let late = p.sorted(|s| s.late_us);
    let mut slow: Vec<&Sample> = p.samples.iter().collect();
    slow.sort_by(|a, b| b.latency_us.total_cmp(&a.latency_us));
    for s in slow.iter().take(3) {
        out.push(report::record(
            "slowest",
            &[
                ("latency_us", format!("{:.0}", s.latency_us)),
                ("server_us", format!("{:.0}", s.server_us)),
                ("late_us", format!("{:.0}", s.late_us)),
                ("instances", s.families.clone()),
            ],
        ));
    }
    out.push(report::record(
        "phase",
        &[
            ("name", name.to_string()),
            ("requests", p.samples.len().to_string()),
            ("hit_share", format!("{:.4}", p.hit_share())),
            ("sender_late_p50_us", format!("{:.0}", stats::median(&late))),
            ("queue_depth_max", p.queue_depth_max.to_string()),
        ],
    ));
}
