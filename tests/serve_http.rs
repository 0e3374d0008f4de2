//! End-to-end tests for `hgtool serve`: the daemon runs in-process on
//! an ephemeral port, concurrent clients hit `/solve` and
//! `/solve/batch`, and every width in an HTTP response must be
//! byte-identical to what the direct library API renders for the same
//! instance and engine options.
//!
//! One test function on purpose: the service metrics are
//! process-wide, so parallel test servers would see each other's
//! gauges.

use serve::loadgen::http_call;
use serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Renders a width the way the service does: integral rationals as
/// raw JSON numbers, fractions as their exact `p/q` string.
fn rat_json(w: &hypertree::arith::Rational) -> String {
    let s = w.to_string();
    if s.contains('/') {
        format!("\"{s}\"")
    } else {
        s
    }
}

/// The `{"hw":..,"ghw":..,"fhw":..}` object the direct API implies for
/// `h` — the byte-identity oracle.
fn direct_widths_json(
    h: &hypertree::hypergraph::Hypergraph,
    opts: hypertree::solver::EngineOptions,
) -> String {
    let (hw, _) = hypertree::hd::hypertree_width_with_stats(h, 8, opts);
    let (ghw, _) = hypertree::ghd::ghw_exact_with_stats(h, None, opts);
    let (fhw, _) = hypertree::fhd::fhw_exact_with_stats(h, None, opts);
    let (hw, _) = hw.expect("corpus instance solves hw within max_hw=8");
    let (ghw, _) = ghw.expect("corpus instance solves ghw");
    let (fhw, _) = fhw.expect("corpus instance solves fhw");
    format!("{{\"hw\":{hw},\"ghw\":{ghw},\"fhw\":{}}}", rat_json(&fhw))
}

fn wait_ready(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !server.ready() {
        assert!(Instant::now() < deadline, "warmup solve never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Value of the first `/metrics` line starting with `prefix`.
fn metric_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn serve_end_to_end() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::from_env()
    };
    let engine = config.engine;
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    wait_ready(&server);

    // The oracle: direct library answers for the vendored corpus.
    let corpus: Vec<(String, String, String)> = hypertree_bench::vendored_corpus()
        .into_iter()
        .map(|w| {
            let expected = direct_widths_json(&w.hypergraph, engine);
            (w.name, w.hypergraph.to_string(), expected)
        })
        .collect();

    // Concurrent singles (three connections) + one batch over the
    // whole corpus, all in flight together.
    let mut clients = Vec::new();
    for t in 0..3usize {
        let addr = addr.clone();
        let corpus = corpus.clone();
        clients.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            let mut out = Vec::new();
            for (name, text, expected) in corpus.iter().skip(t % 2) {
                let body = format!(
                    "{{\"hypergraph\":{},\"measure\":\"widths\"}}",
                    serve::http::json_escape(text)
                );
                let (status, resp) =
                    http_call(&mut stream, "POST", "/solve", Some(&body)).expect("solve call");
                out.push((name.clone(), expected.clone(), status, resp));
            }
            out
        }));
    }
    let batch_rows: Vec<String> = corpus
        .iter()
        .map(|(name, text, _)| {
            format!(
                "{{\"name\":{},\"hypergraph\":{}}}",
                serve::http::json_escape(name),
                serve::http::json_escape(text)
            )
        })
        .collect();
    let batch_body = format!("{{\"instances\":[{}]}}", batch_rows.join(","));
    let mut main_stream = TcpStream::connect(&addr).expect("connect");
    let (batch_status, batch_resp) =
        http_call(&mut main_stream, "POST", "/solve/batch", Some(&batch_body)).expect("batch call");

    // Byte-identity: every single response carries exactly the direct
    // API's widths object.
    for client in clients {
        for (name, expected, status, resp) in client.join().expect("client thread") {
            assert_eq!(status, 200, "{name}: {resp}");
            let prefix = format!("{{\"widths\":{expected},\"cached\":");
            assert!(
                resp.starts_with(&prefix),
                "{name}: response {resp} does not open with {prefix}"
            );
        }
    }
    assert_eq!(batch_status, 200, "{batch_resp}");
    assert!(batch_resp.contains(&format!("\"count\":{}", corpus.len())));
    for (name, _, expected) in &corpus {
        let row = format!(
            "{{\"name\":{},\"widths\":{expected},\"cached\":",
            serve::http::json_escape(name)
        );
        assert!(
            batch_resp.contains(&row),
            "batch response misses {row} in {batch_resp}"
        );
    }

    // Live metrics under traffic: nonzero request counters and latency
    // observations, straight from GET /metrics.
    let (status, metrics) = http_call(&mut main_stream, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    let singles = metric_value(&metrics, "hgtool_serve_requests_total{endpoint=\"solve\"}")
        .expect("solve counter rendered");
    let lat = metric_value(
        &metrics,
        "hgtool_serve_request_latency_seconds_count{endpoint=\"solve\"}",
    )
    .expect("solve latency histogram rendered");
    assert!(singles >= (corpus.len() * 3 - 3) as f64, "{singles}");
    assert!(
        lat >= singles,
        "every 200 observes latency: {lat} < {singles}"
    );
    assert!(metrics.contains("hgtool_serve_ready 1"));
    assert!(metrics.contains("hgtool_serve_admission_wait_seconds_bucket"));

    // Error paths: malformed body, unknown route, wrong method, bad
    // measure, the removed portfolio field, oversized body.
    let (status, resp) =
        http_call(&mut main_stream, "POST", "/solve", Some("{not json")).expect("bad json");
    assert_eq!(status, 400, "{resp}");
    let (status, resp) =
        http_call(&mut main_stream, "POST", "/no/such/route", Some("{}")).expect("404 route");
    assert_eq!(status, 404, "{resp}");
    let (status, resp) = http_call(&mut main_stream, "GET", "/solve", None).expect("405");
    assert_eq!(status, 405, "{resp}");
    let (status, resp) = http_call(
        &mut main_stream,
        "POST",
        "/solve",
        Some("{\"hypergraph\":\"e(a,b)\",\"measure\":\"nope\"}"),
    )
    .expect("bad measure");
    assert_eq!(status, 400, "{resp}");
    // Ignoring the field would tell the client its request raced, so
    // both solve endpoints refuse it and name the removal.
    for (path, body) in [
        ("/solve", "{\"hypergraph\":\"e(a,b)\",\"portfolio\":true}"),
        (
            "/solve/batch",
            "{\"instances\":[{\"hypergraph\":\"e(a,b)\"}],\"portfolio\":false}",
        ),
    ] {
        let (status, resp) =
            http_call(&mut main_stream, "POST", path, Some(body)).expect("portfolio call");
        assert_eq!(status, 400, "{path}: {resp}");
        assert!(
            resp.contains("portfolio field was removed in hgtool-serve/v2"),
            "{path}: {resp}"
        );
    }
    let (status, resp) = http_call(&mut main_stream, "GET", "/version", None).expect("version");
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"api\":\"hgtool-serve/v2\""), "{resp}");
    // Oversized: the server 413s off the Content-Length header alone,
    // so announce a huge body and read the reply without sending it.
    let mut big = TcpStream::connect(&addr).expect("connect");
    big.write_all(b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 999999999\r\n\r\n")
        .expect("write oversized head");
    let mut reply = String::new();
    big.read_to_string(&mut reply).expect("read 413");
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    drop(big);

    // Deadlines count from arrival: a request queued behind a slow
    // solve until its budget is gone answers 504 without solving. The
    // slow solve (hw of clique(9), seconds of search) is cut by its own
    // deadline; the queued one is sent once the slow one holds the gate.
    let admitted = |stream: &mut TcpStream| {
        let (_, text) = http_call(stream, "GET", "/metrics", None).expect("metrics");
        metric_value(&text, "hgtool_serve_admission_wait_seconds_count")
            .expect("admission histogram rendered")
    };
    let before = admitted(&mut main_stream);
    let slow_text = hypertree::hypergraph::generators::clique(9).to_string();
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            let body = format!(
                "{{\"hypergraph\":{},\"measure\":\"hw\",\"deadline_ms\":1000}}",
                serve::http::json_escape(&slow_text)
            );
            http_call(&mut stream, "POST", "/solve", Some(&body)).expect("slow call")
        })
    };
    let gate_deadline = Instant::now() + Duration::from_secs(30);
    while admitted(&mut main_stream) <= before {
        assert!(Instant::now() < gate_deadline, "slow solve never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, resp) = http_call(
        &mut main_stream,
        "POST",
        "/solve",
        Some("{\"hypergraph\":\"e1(a,b), e2(b,c)\",\"deadline_ms\":20}"),
    )
    .expect("queued call");
    assert_eq!(status, 504, "queued past its deadline: {resp}");
    let (status, resp) = slow.join().expect("slow client");
    assert_eq!(status, 504, "slow solve cut by its deadline: {resp}");

    // Drain over HTTP, then finish the graceful shutdown in-process and
    // check the gauges came back to rest.
    let (status, resp) =
        http_call(&mut main_stream, "POST", "/admin/drain", Some("")).expect("drain");
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"draining\":true"));
    drop(main_stream);
    server.drain();
    let m = serve::metrics::handles();
    assert_eq!(m.queue_depth.get(), 0, "queue drained");
    assert_eq!(m.connections_active.get(), 0, "all connections closed");

    // A post-drain connection is refused (listener closed with the
    // accept loop).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect(&addr).is_err(),
        "listener closed after drain"
    );
}
