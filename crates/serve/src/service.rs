//! Request routing and the solve path: JSON in (via `obs::json`),
//! solves through the per-measure entry points with the request's
//! deadline as an ambient cancellation token, JSON out, with the
//! request-id on the root span, per-request trace sampling, and the
//! slow-request log.

use crate::http::{json_escape, Request, Response};
use crate::metrics::{handles, Endpoint};
use crate::server::Shared;
use hypertree_core::arith::Rational;
use hypertree_core::hypergraph::{parser, Hypergraph};
use hypertree_core::prep::cancel::{interrupt, with_cancel};
use hypertree_core::solver::exact;
use hypertree_core::{fhd, ghd, hd, solver};
use obs::json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Which width(s) a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MeasureSel {
    /// All three (`hw`, `ghw`, `fhw`) — the default.
    Widths,
    /// `hw` only.
    Hw,
    /// `ghw` only.
    Ghw,
    /// `fhw` only.
    Fhw,
}

impl MeasureSel {
    fn parse(s: &str) -> Option<MeasureSel> {
        match s {
            "widths" => Some(MeasureSel::Widths),
            "hw" => Some(MeasureSel::Hw),
            "ghw" => Some(MeasureSel::Ghw),
            "fhw" => Some(MeasureSel::Fhw),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            MeasureSel::Widths => "widths",
            MeasureSel::Hw => "hw",
            MeasureSel::Ghw => "ghw",
            MeasureSel::Fhw => "fhw",
        }
    }
}

/// Parsed request knobs shared by `/solve` and `/solve/batch`.
#[derive(Clone, Debug)]
struct SolveParams {
    measure: MeasureSel,
    deadline: Option<Duration>,
    max_hw: usize,
    witness: bool,
}

impl SolveParams {
    fn from_json(v: &Json) -> Result<SolveParams, String> {
        let measure = match v.get("measure") {
            None => MeasureSel::Widths,
            Some(m) => {
                let s = m.as_str().ok_or("measure must be a string")?;
                MeasureSel::parse(s)
                    .ok_or_else(|| format!("unknown measure {s:?}; use widths|hw|ghw|fhw"))?
            }
        };
        if v.get("portfolio").is_some() {
            // Ignoring the field would tell the client its request raced.
            return Err(format!(
                "the portfolio field was removed in {}: every measure has one solve path",
                crate::API_SCHEMA
            ));
        }
        let deadline = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(d) => {
                let ms = d
                    .as_num()
                    .filter(|n| *n >= 0.0)
                    .ok_or("deadline_ms must be a non-negative number")?;
                Some(Duration::from_millis(ms as u64))
            }
        };
        let max_hw = match v.get("max_hw") {
            None => 8,
            Some(n) => n
                .as_num()
                .filter(|n| *n >= 1.0 && *n <= 64.0)
                .ok_or("max_hw must be a number in 1..=64")? as usize,
        };
        let witness = match v.get("witness") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("witness must be a boolean".into()),
        };
        Ok(SolveParams {
            measure,
            deadline,
            max_hw,
            witness,
        })
    }
}

/// What a solve produced for one instance, ready for JSON assembly.
struct SolveBody {
    /// `(measure label, rendered width)` pairs — numbers stay raw
    /// (`3`), rationals are quoted strings (`"5/3"`), matching the
    /// direct API's `Display` byte for byte.
    widths: Vec<(&'static str, String)>,
    /// `(measure label, rendered witness)` when requested.
    witnesses: Vec<(&'static str, String)>,
    /// Whether any engine answered from the cross-call result cache.
    cached: bool,
}

fn rat_json(w: &Rational) -> String {
    // Integral rationals serialize as JSON numbers, true fractions as
    // their exact `p/q` string — both are the direct API's `Display`.
    let s = w.to_string();
    if s.contains('/') {
        json_escape(&s)
    } else {
        s
    }
}

fn cached(stats: &solver::SearchStats) -> bool {
    stats.result_cache_hits > 0
}

/// Solves one instance with the per-measure entry points' computations,
/// so widths and witnesses are byte-identical to the direct API. A
/// `widths` request runs fhw, then ghw, then hw with `det-k-decomp`
/// starting at `k = ghw` (which leaves hw's width and witness unchanged).
/// Unlike `exact_widths_with_opts`, ghw runs at floor 1, not `⌈fhw⌉`, so
/// its witness is `ghw_exact_with_stats`'s. All three are asked of one
/// [`exact::Instance`], so the result-cache key, the join tree, the
/// minimizer prep and each block's seed are built once. The response keeps
/// the hw, ghw, fhw order. `None` means
/// out of the exact engines' range (or `hw > max_hw`).
fn solve(h: &Hypergraph, p: &SolveParams, opts: solver::EngineOptions) -> Option<SolveBody> {
    let mut body = SolveBody {
        widths: Vec::new(),
        witnesses: Vec::new(),
        cached: false,
    };
    let keep = |body: &mut SolveBody,
                name: &'static str,
                width: String,
                d: hypertree_core::decomp::Decomposition,
                stats: &solver::SearchStats| {
        body.widths.push((name, width));
        if p.witness {
            body.witnesses.push((name, d.render(h)));
        }
        body.cached |= cached(stats);
    };
    // Solved bottom-up, answered in the hw, ghw, fhw order.
    let mut solved = Vec::new();
    let mut floor = 1;
    let mut instance = exact::Instance::new(h, opts);
    if matches!(p.measure, MeasureSel::Widths | MeasureSel::Fhw) {
        let (fhw, stats) = fhd::fhw_exact_on(&mut instance, None);
        let (w, d) = fhw?;
        solved.push(("fhw", rat_json(&w), d, stats));
    }
    if matches!(p.measure, MeasureSel::Widths | MeasureSel::Ghw) {
        let (ghw, stats) = ghd::ghw_exact_on(&mut instance, 1);
        let (k, d) = ghw?;
        floor = k;
        solved.push(("ghw", k.to_string(), d, stats));
    }
    if matches!(p.measure, MeasureSel::Widths | MeasureSel::Hw) {
        let (hw, stats) = hd::hypertree_width_on(&mut instance, floor, p.max_hw);
        let (k, d) = hw?;
        solved.push(("hw", k.to_string(), d, stats));
    }
    for (name, width, d, stats) in solved.into_iter().rev() {
        keep(&mut body, name, width, d, &stats);
    }
    Some(body)
}

/// Renders one instance's solved body as a JSON object fragment
/// (no surrounding braces).
fn body_fields(body: &SolveBody) -> String {
    let obj = |pairs: &[(&'static str, String)], quoted: bool| {
        let inner: Vec<String> = pairs
            .iter()
            .map(|(k, v)| {
                if quoted {
                    format!("\"{k}\":{}", json_escape(v))
                } else {
                    format!("\"{k}\":{v}")
                }
            })
            .collect();
        format!("{{{}}}", inner.join(","))
    };
    let mut out = format!(
        "\"widths\":{},\"cached\":{}",
        obj(&body.widths, false),
        body.cached
    );
    if !body.witnesses.is_empty() {
        out.push_str(&format!(",\"witnesses\":{}", obj(&body.witnesses, true)));
    }
    out
}

/// What `run_guarded` classified a caught unwind as.
enum Interrupted {
    Deadline,
    Cancelled,
    Panic(String),
}

/// Runs `f` under the request's cancellation control, converting an
/// interrupt unwind into a typed reason. `deadline` is absolute (the
/// request's arrival plus its budget), so time spent queued counts; a
/// request whose deadline already passed never runs `f`.
fn run_guarded<R>(
    shared: &Shared,
    deadline: Option<Instant>,
    f: impl FnOnce() -> R,
) -> Result<R, Interrupted> {
    let remaining = deadline.map(|at| at.saturating_duration_since(Instant::now()));
    if remaining.is_some_and(|left| left.is_zero()) {
        return Err(Interrupted::Deadline);
    }
    let token = shared.root.child_with_deadline(remaining);
    match catch_unwind(AssertUnwindSafe(|| with_cancel(token, f))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            if interrupt::is_interrupt(payload.as_ref()) {
                match deadline {
                    Some(at) if Instant::now() >= at => Err(Interrupted::Deadline),
                    _ => Err(Interrupted::Cancelled),
                }
            } else {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(|s| s.as_str())
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic")
                    .to_string();
                Err(Interrupted::Panic(msg))
            }
        }
    }
}

/// Routes one request. The second return value is true when the
/// request asked the server to drain.
pub(crate) fn handle(shared: &Shared, req: &Request) -> (Response, bool) {
    let m = handles();
    let (endpoint, resp, drain) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (Endpoint::Healthz, Response::text(200, "ok\n".into()), false),
        ("GET", "/readyz") => {
            let ready = shared.ready.load(Ordering::Relaxed);
            let resp = if ready {
                Response::text(200, "ready\n".into())
            } else {
                Response::text(503, "warming up\n".into())
            };
            (Endpoint::Readyz, resp, false)
        }
        ("GET", "/version") => {
            let body = format!(
                "{{\"name\":\"hgtool-serve\",\"version\":{},\"api\":{},\"trace\":\"hgtool-trace/v1\"}}\n",
                json_escape(env!("CARGO_PKG_VERSION")),
                json_escape(crate::API_SCHEMA),
            );
            (Endpoint::Version, Response::json(200, body), false)
        }
        ("GET", "/metrics") => {
            // The live registry — engine metrics and the service's own,
            // rendered while solves are in flight.
            let resp = Response::text(200, obs::metrics::render_prometheus());
            (Endpoint::Metrics, resp, false)
        }
        ("POST", "/admin/drain") => {
            let resp = Response::json(200, "{\"draining\":true}\n".to_string());
            (Endpoint::Drain, resp, true)
        }
        ("POST", "/solve") => (Endpoint::Solve, solve_endpoint(shared, req, false), false),
        ("POST", "/solve/batch") => (
            Endpoint::SolveBatch,
            solve_endpoint(shared, req, true),
            false,
        ),
        (_, "/solve" | "/solve/batch" | "/admin/drain") => {
            (Endpoint::Other, Response::error(405, "use POST"), false)
        }
        (_, "/healthz" | "/readyz" | "/version" | "/metrics") => {
            (Endpoint::Other, Response::error(405, "use GET"), false)
        }
        (_, path) => (
            Endpoint::Other,
            Response::error(404, &format!("no route {path}")),
            false,
        ),
    };
    m.requests(endpoint).inc();
    (resp, drain)
}

/// `/solve` and `/solve/batch`: parse, queue at the admission gate,
/// arm tracing for sampled requests, solve under the deadline token
/// (counted from arrival, queueing included), assemble JSON.
fn solve_endpoint(shared: &Shared, req: &Request, batch: bool) -> Response {
    let endpoint = if batch {
        Endpoint::SolveBatch
    } else {
        Endpoint::Solve
    };
    let m = handles();
    let request_id = format!("r-{}", shared.next_request.fetch_add(1, Ordering::Relaxed));
    let started = Instant::now();
    let with_id = |mut resp: Response| {
        resp.request_id = Some(request_id.clone());
        resp
    };
    if shared.draining.load(Ordering::Relaxed) {
        let mut resp = with_id(Response::error(503, "draining"));
        resp.close = true;
        return resp;
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return with_id(Response::error(400, "body is not UTF-8")),
    };
    let json = match obs::json::parse(body) {
        Ok(v) => v,
        Err(e) => return with_id(Response::error(400, &format!("bad JSON body: {e}"))),
    };
    let params = match SolveParams::from_json(&json) {
        Ok(p) => p,
        Err(e) => return with_id(Response::error(400, &e)),
    };
    // Parse instances up front (cheap) so malformed hypergraphs fail
    // before queuing at the gate.
    let instances: Vec<(String, Hypergraph)> = if batch {
        let Some(Json::Arr(list)) = json.get("instances") else {
            return with_id(Response::error(400, "batch body needs an instances array"));
        };
        if list.is_empty() {
            return with_id(Response::error(400, "instances is empty"));
        }
        let mut out = Vec::with_capacity(list.len());
        for (i, item) in list.iter().enumerate() {
            let name = item
                .get("name")
                .and_then(|n| n.as_str())
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("instance-{i}"));
            let Some(text) = item.get("hypergraph").and_then(|t| t.as_str()) else {
                return with_id(Response::error(
                    400,
                    &format!("instances[{i}] needs a hypergraph string"),
                ));
            };
            match parser::parse(text) {
                Ok(h) => out.push((name, h)),
                Err(e) => {
                    return with_id(Response::error(400, &format!("instances[{i}]: parse: {e}")))
                }
            }
        }
        out
    } else {
        let Some(text) = json.get("hypergraph").and_then(|t| t.as_str()) else {
            return with_id(Response::error(400, "body needs a hypergraph string"));
        };
        match parser::parse(text) {
            Ok(h) => vec![("instance".to_string(), h)],
            Err(e) => return with_id(Response::error(400, &format!("parse: {e}"))),
        }
    };

    // Admission: solves run one at a time (the span collector is
    // process-global); the gauge and wait histogram make the queue
    // observable.
    m.queue_depth.add(1);
    let wait_started = Instant::now();
    let _gate = shared.solve_gate.lock().expect("solve gate poisoned");
    m.queue_depth.sub(1);
    m.admission_wait
        .observe_us(wait_started.elapsed().as_micros() as u64);
    if shared.draining.load(Ordering::Relaxed) || shared.root.is_canceled() {
        m.cancelled.inc();
        let mut resp = with_id(Response::error(503, "cancelled (draining)"));
        resp.close = true;
        return resp;
    }

    // Request-scoped tracing: sampled 1-in-N (HGTOOL_TRACE_SAMPLE)
    // when a sink or the slow-log wants phase data. Arm/drain is safe
    // here because the gate serializes solves.
    let sampled = shared.sample_request();
    let was_enabled = obs::trace::enabled();
    if sampled && !was_enabled {
        obs::trace::set_enabled(true);
    }
    let tracing = obs::trace::enabled();
    if tracing {
        obs::trace::drain(); // start from a clean buffer
    }

    let outcome = {
        let _span = obs::span!(
            "request",
            request_id = request_id.clone(),
            endpoint = endpoint.label(),
            measure = params.measure.label(),
            instances = instances.len()
        );
        run_guarded(shared, params.deadline.map(|d| started + d), || {
            // A batch is solved in input order, one search at a time.
            instances
                .iter()
                .map(|(_, h)| solve(h, &params, shared.engine_opts))
                .collect::<Vec<_>>()
        })
    };

    let spans = if tracing {
        obs::trace::drain()
    } else {
        Vec::new()
    };
    if sampled && !was_enabled {
        obs::trace::set_enabled(false);
    }
    shared.write_trace(&spans);

    let elapsed = started.elapsed();
    if let Some(h) = m.latency(endpoint) {
        h.observe_us(elapsed.as_micros() as u64);
    }
    shared.slow_log(&request_id, endpoint.label(), elapsed, &spans);

    let results = match outcome {
        Ok(results) => results,
        Err(Interrupted::Deadline) => {
            m.deadline_expired.inc();
            return with_id(Response::error(504, "deadline expired"));
        }
        Err(Interrupted::Cancelled) => {
            m.cancelled.inc();
            let mut resp = with_id(Response::error(503, "cancelled (draining)"));
            resp.close = true;
            return resp;
        }
        Err(Interrupted::Panic(msg)) => {
            return with_id(Response::error(500, &format!("solve panicked: {msg}")));
        }
    };

    let tail = format!(
        "\"request_id\":{},\"elapsed_us\":{}",
        json_escape(&request_id),
        elapsed.as_micros()
    );
    let resp = if batch {
        let rows: Vec<String> = instances
            .iter()
            .zip(&results)
            .map(|((name, _), r)| match r {
                Some(body) => format!("{{\"name\":{},{}}}", json_escape(name), body_fields(body)),
                None => format!(
                    "{{\"name\":{},\"error\":\"out of exact range\"}}",
                    json_escape(name)
                ),
            })
            .collect();
        Response::json(
            200,
            format!(
                "{{\"results\":[{}],\"count\":{},{}}}\n",
                rows.join(","),
                results.len(),
                tail
            ),
        )
    } else {
        match &results[0] {
            Some(body) => Response::json(200, format!("{{{},{}}}\n", body_fields(body), tail)),
            None => Response::error(422, "instance out of exact range (or hw > max_hw)"),
        }
    };
    with_id(resp)
}
