//! `hgtool loadgen`: a closed-loop, multi-connection load generator.
//!
//! Each connection keeps one keep-alive socket and replays the given
//! instance list round-robin (offset per connection so the mix
//! interleaves), timing every request client-side. Closed-loop means
//! a connection never pipelines: the next request starts when the
//! previous response lands, so concurrency equals the connection
//! count and the server's queue depth stays observable rather than
//! unbounded.

use crate::http::json_escape;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator knobs.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Concurrent connections (closed loop: one in-flight request per
    /// connection).
    pub connections: usize,
    /// Stop after this much wall-clock.
    pub duration: Duration,
    /// Also stop after this many total requests (whichever first).
    pub max_requests: Option<u64>,
    /// `measure` field sent with every request.
    pub measure: String,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// Every Nth request per connection is a `/solve/batch` of the
    /// whole instance list (0 = singles only).
    pub batch_every: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            connections: 4,
            duration: Duration::from_secs(2),
            max_requests: None,
            measure: "widths".to_string(),
            deadline_ms: None,
            batch_every: 0,
        }
    }
}

/// What a load run measured (client side).
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Connections that ran.
    pub connections: usize,
    /// Total requests sent.
    pub requests: u64,
    /// HTTP 200 responses.
    pub ok: u64,
    /// HTTP 504 responses (server-side deadline strikes).
    pub deadline_expired: u64,
    /// Any other status, or transport failures.
    pub errors: u64,
    /// 200 responses whose body reported `"cached":true`.
    pub cached_responses: u64,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// `requests / elapsed` in requests per second.
    pub qps: f64,
    /// Client-side latency quantiles over all requests, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
}

/// Nearest-rank quantile of a sorted latency vector.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One blocking HTTP exchange on an open connection. Returns
/// `(status, body)`.
pub fn http_call(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: hgtool\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;
    read_http_response(stream)
}

/// Reads one HTTP/1.1 response (status line, headers, content-length
/// body) off `stream`.
fn read_http_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Builds the `/solve` body for one named instance.
fn solve_body(text: &str, opts: &LoadgenOptions) -> String {
    let mut body = format!(
        "{{\"hypergraph\":{},\"measure\":{}",
        json_escape(text),
        json_escape(&opts.measure)
    );
    if let Some(ms) = opts.deadline_ms {
        body.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    body.push('}');
    body
}

/// Builds the `/solve/batch` body over the whole instance list.
fn batch_body(instances: &[(String, String)], opts: &LoadgenOptions) -> String {
    let rows: Vec<String> = instances
        .iter()
        .map(|(name, text)| {
            format!(
                "{{\"name\":{},\"hypergraph\":{}}}",
                json_escape(name),
                json_escape(text)
            )
        })
        .collect();
    let mut body = format!(
        "{{\"instances\":[{}],\"measure\":{}",
        rows.join(","),
        json_escape(&opts.measure)
    );
    if let Some(ms) = opts.deadline_ms {
        body.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    body.push('}');
    body
}

/// Runs the closed loop against `addr` over `instances` — `(name,
/// HyperBench text)` pairs — and aggregates the client-side report.
pub fn run(
    addr: &str,
    instances: &[(String, String)],
    opts: &LoadgenOptions,
) -> std::io::Result<LoadReport> {
    if instances.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no instances to replay",
        ));
    }
    let connections = opts.connections.max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let deadline = started + opts.duration;
    let mut workers = Vec::with_capacity(connections);
    for conn in 0..connections {
        let addr = addr.to_string();
        let instances = instances.to_vec();
        let opts = opts.clone();
        let stop = Arc::clone(&stop);
        let sent = Arc::clone(&sent);
        workers.push(std::thread::spawn(move || {
            let mut report = LoadReport::default();
            let mut latencies: Vec<u64> = Vec::new();
            let mut stream = match TcpStream::connect(&addr) {
                Ok(s) => s,
                Err(_) => {
                    report.errors += 1;
                    return (report, latencies);
                }
            };
            let _ = stream.set_nodelay(true);
            let mut i = conn; // offset so connections interleave the mix
            loop {
                if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                    break;
                }
                let n = sent.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(cap) = opts.max_requests {
                    if n > cap {
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                let is_batch = opts.batch_every > 0 && n.is_multiple_of(opts.batch_every as u64);
                let (path, body) = if is_batch {
                    ("/solve/batch", batch_body(&instances, &opts))
                } else {
                    let (_, text) = &instances[i % instances.len()];
                    ("/solve", solve_body(text, &opts))
                };
                i += 1;
                let req_started = Instant::now();
                match http_call(&mut stream, "POST", path, Some(&body)) {
                    Ok((status, resp_body)) => {
                        latencies.push(req_started.elapsed().as_micros() as u64);
                        report.requests += 1;
                        match status {
                            200 => {
                                report.ok += 1;
                                if resp_body.contains("\"cached\":true") {
                                    report.cached_responses += 1;
                                }
                            }
                            504 => report.deadline_expired += 1,
                            _ => report.errors += 1,
                        }
                    }
                    Err(_) => {
                        report.requests += 1;
                        report.errors += 1;
                        // Reconnect once; give up on repeated failure.
                        match TcpStream::connect(&addr) {
                            Ok(s) => {
                                stream = s;
                                let _ = stream.set_nodelay(true);
                            }
                            Err(_) => break,
                        }
                    }
                }
            }
            (report, latencies)
        }));
    }
    let mut total = LoadReport {
        connections,
        ..LoadReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for w in workers {
        let (r, l) = w.join().expect("loadgen worker panicked");
        total.requests += r.requests;
        total.ok += r.ok;
        total.deadline_expired += r.deadline_expired;
        total.errors += r.errors;
        total.cached_responses += r.cached_responses;
        latencies.extend(l);
    }
    total.elapsed = started.elapsed();
    total.qps = total.requests as f64 / total.elapsed.as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    total.p50_us = quantile(&latencies, 0.50);
    total.p95_us = quantile(&latencies, 0.95);
    total.p99_us = quantile(&latencies, 0.99);
    Ok(total)
}

impl LoadReport {
    /// The cache-hit ratio over successful responses.
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.cached_responses as f64 / self.ok as f64
        }
    }

    /// Renders the report as one JSON object (the `--json` flag and
    /// the bench harness).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"connections\":{},\"requests\":{},\"ok\":{},\"errors\":{},\
             \"deadline_expired\":{},\"cached_responses\":{},\"cache_hit_ratio\":{:.4},\
             \"elapsed_us\":{},\"qps\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            self.connections,
            self.requests,
            self.ok,
            self.errors,
            self.deadline_expired,
            self.cached_responses,
            self.cache_hit_ratio(),
            self.elapsed.as_micros(),
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.95), 95);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn bodies_are_valid_json() {
        let opts = LoadgenOptions {
            deadline_ms: Some(250),
            ..LoadgenOptions::default()
        };
        let single = solve_body("e1(a,b), e2(b,c)", &opts);
        obs::json::parse(&single).expect("solve body parses");
        let batch = batch_body(
            &[
                ("a".into(), "e1(a,b)".into()),
                ("b".into(), "e2(x,y)".into()),
            ],
            &opts,
        );
        obs::json::parse(&batch).expect("batch body parses");
    }

    #[test]
    fn report_json_parses() {
        let r = LoadReport {
            connections: 2,
            requests: 10,
            ok: 9,
            errors: 1,
            elapsed: Duration::from_millis(100),
            qps: 100.0,
            ..LoadReport::default()
        };
        obs::json::parse(&r.to_json()).expect("report renders as JSON");
    }
}
