//! The run's environment pin, process probes and the result line.

use std::fmt::Write as _;

/// Clears every `HGTOOL_*` variable before the program reads any of them,
/// so a stray setting cannot change the measured program. Child processes
/// (the set-up probes) inherit the cleared environment. Returns the
/// cleared `(name, value)` pairs, for the record.
///
/// With nothing set, the program runs on its defaults: `HGTOOL_THREADS`
/// unset (host parallelism, capped at 8), prep on (`HGTOOL_NO_PREP`
/// unset), a 64 MiB result/price cache (`HGTOOL_CACHE_BYTES`), tracing off
/// (`HGTOOL_TRACE`), no portfolio deadline (`HGTOOL_DEADLINE_MS`), and the
/// daemon's own defaults for `HGTOOL_TRACE_SAMPLE`, `HGTOOL_SLOW_REQUEST_MS`,
/// `HGTOOL_MAX_BODY_BYTES` and `HGTOOL_DRAIN_GRACE_MS`.
pub fn pin_environment() -> Vec<(String, String)> {
    let cleared: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("HGTOOL_"))
        .collect();
    for (k, _) in &cleared {
        std::env::remove_var(k);
    }
    cleared
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// The run's verdict on itself.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Formats a value with all its digits (shortest round-trip form), never
/// as a non-JSON token.
fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Escapes a JSON string.
fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A `key=value` record line for the human-readable part of the output.
pub fn record(kind: &str, fields: &[(&str, String)]) -> String {
    let mut line = kind.to_string();
    for (k, v) in fields {
        let _ = write!(line, " {k}={v}");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{parse, Json};

    #[test]
    fn the_result_line_parses_with_obs_json() {
        let mut metrics = Metrics::default();
        metrics.put("latency_p50_us", 123.456789, "us");
        metrics.put("setup_s", 0.25, "s");
        metrics.put("solver.states", 3.0, "count");
        let line = result_line(&Outcome {
            correct: true,
            attempted: 1200,
            failed: 0,
            metrics,
        });
        let v = parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_num), Some(1200.0));
        assert_eq!(v.get("failed").and_then(Json::as_num), Some(0.0));
        let m = v.get("metrics").expect("metrics");
        let p50 = m.get("latency_p50_us").expect("p50");
        assert_eq!(p50.get("value").and_then(Json::as_num), Some(123.456789));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(
            m.get("solver.states")
                .and_then(|s| s.get("value"))
                .and_then(Json::as_num),
            Some(3.0)
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
    }
}
