//! Span tracing: scoped phases with monotonic timestamps, buffered
//! per thread and merged into a process-wide collector at scope exit.
//!
//! # Model
//!
//! A span is opened by the [`crate::span!`] macro (or
//! [`SpanGuard::enter`]) and closed when its guard drops — including
//! during unwinds, so solves cut by a deadline still close their
//! scopes. Each thread keeps a stack of open spans (giving every span
//! its parent and depth for free) plus a buffer of completed records;
//! when the stack empties the buffer is flushed into the global
//! collector under one short lock. Parent links therefore never cross
//! threads, and the sinks group by thread.
//!
//! # Gating
//!
//! Collection is off unless the `HGTOOL_TRACE` environment variable is
//! set (to anything but `0`/`off`/`false`) or [`set_enabled`] turned it
//! on. Off means [`enabled`] is a single relaxed atomic load and the
//! `span!` macro evaluates nothing else. Tracing output is never read
//! by search code — see the crate docs for the determinism contract.
//!
//! # Bounded memory
//!
//! The collector holds at most [`MAX_RECORDS`] spans; beyond that new
//! records are dropped and counted ([`dropped`], surfaced as the
//! `hgtool_spans_dropped_total` metric) — a capped trace says so
//! instead of silently truncating.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable that turns span collection on for a process.
pub const ENV: &str = "HGTOOL_TRACE";

/// Environment variable bounding the spans recorded under one root
/// scope (see [`span_cap`]).
pub const SPAN_CAP_ENV: &str = "HGTOOL_TRACE_SPAN_CAP";

/// Collector capacity: beyond this many buffered spans, new records
/// are dropped (and counted) rather than growing without bound.
pub const MAX_RECORDS: usize = 1 << 20;

/// Default per-root-scope span cap (see [`span_cap`]).
pub const DEFAULT_SPAN_CAP: usize = 1 << 16;

fn span_cap_cell() -> &'static AtomicUsize {
    static CAP: OnceLock<AtomicUsize> = OnceLock::new();
    CAP.get_or_init(|| {
        let cap = std::env::var(SPAN_CAP_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_SPAN_CAP);
        AtomicUsize::new(cap)
    })
}

/// The per-root-scope span cap: at most this many spans are recorded
/// under one root span on a thread (one served request, one CLI
/// solve). Spans past the cap are not recorded — the cut falls on the
/// deepest scopes, so roots and phase structure survive — and each is
/// counted in [`dropped`]. Initialized from `HGTOOL_TRACE_SPAN_CAP`
/// (default [`DEFAULT_SPAN_CAP`]).
pub fn span_cap() -> usize {
    span_cap_cell().load(Ordering::Relaxed)
}

/// Overrides the per-root-scope span cap (`n` must be nonzero).
pub fn set_span_cap(n: usize) {
    span_cap_cell().store(n.max(1), Ordering::Relaxed);
}

fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let on = std::env::var(ENV)
            .map(|v| !matches!(v.as_str(), "" | "0" | "off" | "false"))
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// Whether span collection is currently on. One relaxed atomic load —
/// this is the whole cost of a disabled `span!` site.
#[inline]
pub fn enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Turns span collection on or off (the `--trace*` flags and the test
/// suites use this; the env knob only sets the initial state).
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

/// The process epoch all span timestamps are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic microseconds since the process epoch.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// A typed span field value (kept small: the engine's fields are
/// sizes, flags and short static names).
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned quantity (sizes, counts, widths).
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Flag (warm/cold, hit/miss, won/lost).
    Bool(bool),
    /// Short text (measure names, profiles, outcomes).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl FieldValue {
    /// Renders the value as a JSON scalar.
    fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(v) => json_string(v),
        }
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One completed span, as merged into the collector.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique id (allocation order, not chronological order).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Phase name (the span taxonomy lives in `crates/obs/README.md`).
    pub name: &'static str,
    /// Ordinal of the recording thread (assigned at first span).
    pub thread: u64,
    /// Nesting depth on the recording thread (roots are 0).
    pub depth: usize,
    /// Start, microseconds since the process epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Fields given at entry plus any added via [`SpanGuard::record`].
    pub fields: Vec<(&'static str, FieldValue)>,
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    depth: usize,
    start_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

struct ThreadBuf {
    thread: u64,
    stack: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        RefCell::new(ThreadBuf {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            done: Vec::new(),
        })
    };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static COLLECTOR: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

/// Spans dropped process-wide because the collector hit
/// [`MAX_RECORDS`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// An open span scope; dropping it closes the span. Created by the
/// [`crate::span!`] macro.
pub struct SpanGuard {
    id: u64,
}

impl SpanGuard {
    /// Opens a span on the calling thread. Prefer the [`crate::span!`]
    /// macro, which checks [`enabled`] first.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
        let start_us = now_us();
        let id = BUF.with(|b| {
            let mut b = b.borrow_mut();
            // Per-root-scope cap: once this root has produced its
            // budget of spans, stop recording deeper scopes (the
            // shallow structure already merged or still on the stack
            // survives) and count the cut. Guard id 0 is the "not
            // recorded" sentinel — real ids start at 1.
            if b.done.len() + b.stack.len() >= span_cap() {
                DROPPED.fetch_add(1, Ordering::Relaxed);
                return 0;
            }
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let parent = b.stack.last().map(|s| s.id);
            let depth = b.stack.len();
            b.stack.push(OpenSpan {
                id,
                parent,
                name,
                depth,
                start_us,
                fields,
            });
            id
        });
        SpanGuard { id }
    }

    /// Attaches a field to this span after entry (race outcomes, cache
    /// hit flags — facts only known mid-scope).
    pub fn record(&self, key: &'static str, value: impl Into<FieldValue>) {
        let value = value.into();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            if let Some(open) = b.stack.iter_mut().rev().find(|s| s.id == self.id) {
                open.fields.push((key, value));
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_us = now_us();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            // Unwinds drop guards in scope order, so the top of the
            // stack is this span; be defensive anyway.
            let Some(pos) = b.stack.iter().rposition(|s| s.id == self.id) else {
                return;
            };
            let open = b.stack.remove(pos);
            let thread = b.thread;
            b.done.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                thread,
                depth: open.depth,
                start_us: open.start_us,
                dur_us: end_us.saturating_sub(open.start_us),
                fields: open.fields,
            });
            if b.stack.is_empty() {
                let done = std::mem::take(&mut b.done);
                flush(done);
            }
        });
    }
}

/// Merges a thread's completed records into the global collector,
/// honoring the [`MAX_RECORDS`] cap.
fn flush(records: Vec<SpanRecord>) {
    let mut global = collector().lock().expect("span collector poisoned");
    let room = MAX_RECORDS.saturating_sub(global.len());
    if records.len() > room {
        DROPPED.fetch_add((records.len() - room) as u64, Ordering::Relaxed);
    }
    global.extend(records.into_iter().take(room));
}

/// Takes every merged record out of the collector (sorted by thread,
/// then start time, then id — a deterministic presentation order for
/// whatever wall-clocks were measured).
pub fn drain() -> Vec<SpanRecord> {
    let mut records = {
        let mut global = collector().lock().expect("span collector poisoned");
        std::mem::take(&mut *global)
    };
    records.sort_by_key(|r| (r.thread, r.start_us, r.id));
    records
}

/// Per-span self time: duration minus the duration of direct children
/// (keyed by span id). Self time is what the folded sink and the phase
/// table aggregate — summing it never double-counts nested phases.
pub fn self_times(records: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut child_total: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if let Some(p) = r.parent {
            *child_total.entry(p).or_insert(0) += r.dur_us;
        }
    }
    records
        .iter()
        .map(|r| {
            let children = child_total.get(&r.id).copied().unwrap_or(0);
            (r.id, r.dur_us.saturating_sub(children))
        })
        .collect()
}

/// Aggregates `(count, total self µs)` per span name — the phase
/// breakdown `hgtool widths --stats` prints. Because it sums *self*
/// time, the totals over all names add up to the total root wall-clock
/// (per thread) with no double counting.
pub fn phase_totals(records: &[SpanRecord]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(records);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for r in records {
        let e = out.entry(r.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += selfs.get(&r.id).copied().unwrap_or(0);
    }
    out
}

/// Renders records as a human-readable per-thread tree with total and
/// self wall-clock per span (the `--trace` sink).
pub fn render_tree(records: &[SpanRecord]) -> String {
    let selfs = self_times(records);
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in records {
        match r.parent {
            Some(p) => children.entry(p).or_default().push(r),
            None => roots.push(r),
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|r| (r.start_us, r.id));
    }
    roots.sort_by_key(|r| (r.thread, r.start_us, r.id));
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} spans across {} threads ({} dropped)\n",
        records.len(),
        records
            .iter()
            .map(|r| r.thread)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        dropped(),
    ));
    let mut last_thread = None;
    for root in roots {
        if last_thread != Some(root.thread) {
            out.push_str(&format!("thread {}\n", root.thread));
            last_thread = Some(root.thread);
        }
        render_node(root, &children, &selfs, &mut out);
    }
    out
}

fn render_node(
    r: &SpanRecord,
    children: &HashMap<u64, Vec<&SpanRecord>>,
    selfs: &HashMap<u64, u64>,
    out: &mut String,
) {
    let indent = "  ".repeat(r.depth + 1);
    let mut label = r.name.to_string();
    if !r.fields.is_empty() {
        let fields: Vec<String> = r.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        label.push_str(&format!(" [{}]", fields.join(" ")));
    }
    let self_us = selfs.get(&r.id).copied().unwrap_or(0);
    out.push_str(&format!(
        "{indent}{label:<48} total {:>8}us  self {:>8}us\n",
        r.dur_us, self_us
    ));
    if let Some(kids) = children.get(&r.id) {
        for kid in kids {
            render_node(kid, children, selfs, out);
        }
    }
}

/// Renders records as the machine JSONL stream (the `--trace-json`
/// sink).
///
/// # Schema (`hgtool-trace/v1`)
///
/// One JSON object per line. The first line is the meta header:
///
/// ```json
/// {"type":"meta","schema":"hgtool-trace/v1","clock":"monotonic-us","spans":N,"dropped":D}
/// ```
///
/// Every following line is a span:
///
/// ```json
/// {"type":"span","id":7,"parent":3,"name":"price","thread":0,"depth":2,
///  "start_us":123,"dur_us":45,"fields":{"warm":true}}
/// ```
///
/// `id` is process-unique; `parent` is `null` for roots (parents never
/// cross threads); `start_us` is monotonic microseconds since the
/// process epoch; `fields` holds the span's typed key/values (numbers,
/// booleans or strings).
pub fn render_jsonl(records: &[SpanRecord]) -> String {
    let mut out = format!(
        "{{\"type\":\"meta\",\"schema\":\"hgtool-trace/v1\",\"clock\":\"monotonic-us\",\
         \"spans\":{},\"dropped\":{}}}\n",
        records.len(),
        dropped()
    );
    out.push_str(&render_span_lines(records));
    out
}

/// The meta header for a *streaming* JSONL sink (`hgtool serve
/// --trace-json`), where the final span count is unknown at open time:
/// same schema tag, `"streaming":true` instead of a `spans` count.
pub fn render_jsonl_stream_meta() -> String {
    "{\"type\":\"meta\",\"schema\":\"hgtool-trace/v1\",\"clock\":\"monotonic-us\",\
     \"streaming\":true}\n"
        .to_string()
}

/// Renders only the span lines of the JSONL schema (no meta header) —
/// the building block streaming sinks append per drained batch.
pub fn render_span_lines(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let fields: Vec<String> = r
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), v.to_json()))
            .collect();
        out.push_str(&format!(
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"thread\":{},\
             \"depth\":{},\"start_us\":{},\"dur_us\":{},\"fields\":{{{}}}}}\n",
            r.id,
            r.parent.map_or("null".to_string(), |p| p.to_string()),
            json_string(r.name),
            r.thread,
            r.depth,
            r.start_us,
            r.dur_us,
            fields.join(",")
        ));
    }
    out
}

/// Renders records as folded stacks (the `--trace-folded` sink): one
/// `thread-T;root;...;leaf <self_us>` line per distinct stack, ready
/// for `flamegraph.pl` / `inferno-flamegraph` / speedscope.
pub fn render_folded(records: &[SpanRecord]) -> String {
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let selfs = self_times(records);
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        let mut frames = vec![r.name];
        let mut cur = r.parent;
        while let Some(p) = cur {
            match by_id.get(&p) {
                Some(parent) => {
                    frames.push(parent.name);
                    cur = parent.parent;
                }
                None => break,
            }
        }
        frames.push(""); // placeholder for the thread frame
        frames.reverse();
        let mut stack = format!("thread-{}", r.thread);
        for f in frames.into_iter().skip(1) {
            stack.push(';');
            stack.push_str(f);
        }
        *stacks.entry(stack).or_insert(0) += selfs.get(&r.id).copied().unwrap_or(0);
    }
    let mut out = String::new();
    for (stack, us) in stacks {
        out.push_str(&format!("{stack} {us}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-wide collector and the
    /// enabled flag.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_clean_trace<T>(f: impl FnOnce() -> T) -> T {
        let _guard = test_lock();
        set_enabled(true);
        let _ = drain();
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn spans_nest_and_merge_at_scope_exit() {
        let records = with_clean_trace(|| {
            {
                let _root = crate::span!("solve", measure = "ghw");
                {
                    let _child = crate::span!("price", warm = true);
                }
                {
                    let _child = crate::span!("price", warm = false);
                }
            }
            drain()
        });
        assert_eq!(records.len(), 3);
        let root = records.iter().find(|r| r.name == "solve").expect("root");
        assert_eq!(root.parent, None);
        assert_eq!(root.depth, 0);
        assert_eq!(
            root.fields,
            vec![("measure", FieldValue::Str("ghw".into()))]
        );
        let kids: Vec<_> = records.iter().filter(|r| r.name == "price").collect();
        assert_eq!(kids.len(), 2);
        for kid in kids {
            assert_eq!(kid.parent, Some(root.id));
            assert_eq!(kid.depth, 1);
            assert!(kid.start_us >= root.start_us);
        }
    }

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        let mut evaluated = false;
        let g = crate::span!(
            "never",
            x = {
                evaluated = true;
                1_u64
            }
        );
        assert!(g.is_none(), "disabled span! returns None");
        assert!(!evaluated, "disabled span! must not evaluate fields");
    }

    #[test]
    fn record_appends_fields_mid_scope() {
        let records = with_clean_trace(|| {
            {
                let span = crate::span!("backend", id = "engine");
                if let Some(g) = span.as_ref() {
                    g.record("outcome", "exact");
                }
            }
            drain()
        });
        let backend = records.iter().find(|r| r.name == "backend").expect("span");
        assert_eq!(backend.fields.len(), 2);
        assert_eq!(
            backend.fields[1],
            ("outcome", FieldValue::Str("exact".into()))
        );
    }

    #[test]
    fn unwinds_close_open_spans() {
        let records = with_clean_trace(|| {
            let attempt = std::panic::catch_unwind(|| {
                let _root = crate::span!("doomed");
                panic!("cancelled");
            });
            assert!(attempt.is_err());
            drain()
        });
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "doomed");
    }

    #[test]
    fn span_cap_drops_deep_spans_and_counts_them() {
        let records = with_clean_trace(|| {
            let before_cap = span_cap();
            let before_dropped = dropped();
            set_span_cap(3);
            {
                let _root = crate::span!("solve");
                let _a = crate::span!("prep");
                let _b = crate::span!("candgen");
                // Past the cap: not recorded, counted as dropped.
                let _c = crate::span!("state");
                let _d = crate::span!("price");
            }
            set_span_cap(before_cap);
            let records = drain();
            assert_eq!(
                dropped() - before_dropped,
                2,
                "two spans past the cap are counted"
            );
            records
        });
        let names: Vec<_> = records.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"solve"), "the root survives the cap");
        assert!(!names.contains(&"price"), "deep leaves are cut");
    }

    #[test]
    fn self_time_subtracts_children_and_phases_sum_to_roots() {
        let records = with_clean_trace(|| {
            {
                let _root = crate::span!("solve");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _kid = crate::span!("price");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            drain()
        });
        let phases = phase_totals(&records);
        let root_total = records
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| r.dur_us)
            .sum::<u64>();
        let self_sum = phases.values().map(|(_, us)| us).sum::<u64>();
        assert_eq!(self_sum, root_total, "self times partition the roots");
        assert!(phases["price"].1 > 0);
    }

    #[test]
    fn sinks_render_all_records() {
        let records = with_clean_trace(|| {
            {
                let _root = crate::span!("solve", measure = "fhw");
                let _kid = crate::span!("state", comp = 5_usize);
            }
            drain()
        });
        let tree = render_tree(&records);
        assert!(tree.contains("solve [measure=fhw]"));
        assert!(tree.contains("state [comp=5]"));
        let jsonl = render_jsonl(&records);
        assert_eq!(jsonl.lines().count(), 3, "meta + two spans");
        assert!(jsonl.starts_with("{\"type\":\"meta\""));
        for line in jsonl.lines() {
            crate::json::parse(line).expect("every JSONL line parses");
        }
        let folded = render_folded(&records);
        assert!(folded.contains("thread-"));
        assert!(folded.contains(";solve;state "));
    }
}
