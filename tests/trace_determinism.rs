//! The observability determinism contract: tracing is a pure observer.
//!
//! Two guarantees, both load-bearing for `crates/obs`:
//!
//! * **No feedback** — widths, witnesses and the deterministic engine
//!   counters are byte-identical with tracing on or off. The span layer
//!   never steers the search, admission or pricing; it only records what
//!   happened.
//! * **Honest machine output** — the `--trace-json` JSONL stream follows
//!   the documented `hgtool-trace/v1` schema line by line (validated here
//!   with the crate's own dependency-free JSON parser over the vendored
//!   corpus), and the folded-stack sink emits well-formed
//!   `stack self_us` lines.
//!
//! The tests serialize on a local mutex: the trace flag and the span
//! collector are process-global, so toggling them from concurrently
//! running tests would interleave spans across tests.

use hypertree::arith::Rational;
use hypertree::hypergraph::{generators, parser, Hypergraph};
use hypertree::solver::{EngineOptions, SearchStats};
use hypertree::{fhd, ghd, hd};
use obs::trace::{FieldValue, SpanRecord};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that toggle the process-global trace flag.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn corpus() -> Vec<(String, Hypergraph)> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir("examples/data/corpus")
        .expect("vendored corpus present")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hg"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let h = parser::parse(&text).expect("parsable corpus file");
        out.push((path.display().to_string(), h));
    }
    assert!(!out.is_empty(), "corpus is non-empty");
    out
}

/// One full solve sweep over the corpus, rendered to a comparison string:
/// widths, witness shapes and the deterministic engine counters of all
/// three measures per instance. No cross-call result reuse, so every run
/// does identical work regardless of process history, and the engine
/// counters compare exactly.
fn solve_fingerprint(instances: &[(String, Hypergraph)]) -> String {
    let mut out = String::new();
    for (name, h) in instances {
        let opts = EngineOptions::sequential();
        let (hw, hw_stats) = hd::hypertree_width_with_stats(h, 6, opts);
        let (ghw, ghw_stats) = ghd::ghw_exact_with_stats(h, None, opts);
        let (fhw, fhw_stats) = fhd::fhw_exact_with_stats(h, None, opts);
        let witness = |d: Option<&hypertree::decomp::Decomposition>| match d {
            Some(d) => d.render(h),
            None => "-".into(),
        };
        out.push_str(&format!(
            "{name}\nhw={:?} {:?}\n{}\nghw={:?} {:?}\n{}\nfhw={:?} {:?}\n{}\n",
            hw.as_ref().map(|(k, _)| *k),
            hw_stats.engine_only(),
            witness(hw.as_ref().map(|(_, d)| d)),
            ghw.as_ref().map(|(k, _)| *k),
            ghw_stats.engine_only(),
            witness(ghw.as_ref().map(|(_, d)| d)),
            fhw.as_ref().map(|(w, _)| w.clone()),
            fhw_stats.engine_only(),
            witness(fhw.as_ref().map(|(_, d)| d)),
        ));
    }
    out
}

/// Tracing on vs off: the two sweeps produce one byte-identical
/// fingerprint. This is the no-feedback guarantee — span collection must
/// not perturb widths, witnesses or counters.
#[test]
fn tracing_never_changes_widths_witnesses_or_counters() {
    let _guard = trace_lock();
    let instances = corpus();
    let mut fingerprints = Vec::new();
    for on in [false, true] {
        obs::trace::set_enabled(on);
        fingerprints.push((on, solve_fingerprint(&instances)));
        // Discard whatever the traced sweeps recorded; this test is
        // about the solves, not the spans.
        obs::trace::drain();
    }
    obs::trace::set_enabled(false);
    let (_, baseline) = &fingerprints[0];
    for (on, fp) in &fingerprints {
        assert_eq!(fp, baseline, "solve fingerprint diverged at tracing={on}");
    }
}

/// With tracing off, the span layer is a no-op: a full solve sweep records
/// nothing (and therefore allocates nothing in the collector).
#[test]
fn disabled_tracing_records_no_spans() {
    let _guard = trace_lock();
    obs::trace::set_enabled(false);
    obs::trace::drain();
    let instances = corpus();
    solve_fingerprint(&instances[..2.min(instances.len())]);
    assert!(obs::trace::drain().is_empty());
}

/// The `hgtool-trace/v1` JSONL stream over the vendored corpus: every line
/// parses, the meta line is exact, every span line carries the documented
/// fields with the documented types, parents precede their children, and
/// the whole solve-pipeline span taxonomy shows up.
#[test]
fn jsonl_stream_follows_the_documented_schema() {
    let _guard = trace_lock();
    let instances = corpus();
    obs::trace::set_enabled(true);
    obs::trace::drain();
    // Default options (result reuse on): the runtime admission path runs,
    // so its `result_cache` spans are part of the stream. The corpus is
    // inside the DP's window, so det-k is the only engine user here.
    let opts = EngineOptions::default();
    for (_, h) in &instances {
        ghd::ghw_exact_with_stats(h, None, opts);
        fhd::fhw_exact_with_stats(h, None, opts);
        hd::hypertree_width_with_stats(h, 8, opts);
    }
    let records = obs::trace::drain();
    obs::trace::set_enabled(false);
    assert!(!records.is_empty(), "a traced sweep records spans");

    let jsonl = obs::trace::render_jsonl(&records);
    let mut lines = jsonl.lines();

    // Line 1: the meta object.
    let meta = obs::json::parse(lines.next().expect("meta line")).expect("meta parses");
    assert_eq!(meta.get("type").and_then(|v| v.as_str()), Some("meta"));
    assert_eq!(
        meta.get("schema").and_then(|v| v.as_str()),
        Some("hgtool-trace/v1")
    );
    assert_eq!(
        meta.get("clock").and_then(|v| v.as_str()),
        Some("monotonic-us")
    );
    assert_eq!(
        meta.get("spans").and_then(|v| v.as_num()),
        Some(records.len() as f64)
    );

    // Every further line: one span object.
    let mut seen_ids: BTreeSet<u64> = BTreeSet::new();
    let mut seen_names: BTreeSet<String> = BTreeSet::new();
    let mut span_lines = 0usize;
    for line in lines {
        let span = obs::json::parse(line).unwrap_or_else(|e| panic!("bad span line {line}: {e}"));
        assert_eq!(span.get("type").and_then(|v| v.as_str()), Some("span"));
        let id = span.get("id").and_then(|v| v.as_num()).expect("numeric id") as u64;
        let num = |key: &str| {
            span.get(key)
                .and_then(|v| v.as_num())
                .unwrap_or_else(|| panic!("span {id}: numeric {key}"))
        };
        num("thread");
        num("start_us");
        num("dur_us");
        let depth = num("depth") as u64;
        match span.get("parent").expect("parent present") {
            obs::json::Json::Null => assert_eq!(depth, 0, "span {id}: parentless means depth 0"),
            parent => {
                let parent = parent.as_num().expect("numeric parent") as u64;
                assert!(
                    seen_ids.contains(&parent),
                    "span {id}: parent {parent} precedes it in thread order"
                );
                assert!(depth > 0);
            }
        }
        let name = span
            .get("name")
            .and_then(|v| v.as_str())
            .expect("string name");
        assert!(
            matches!(
                span.get("fields").expect("fields present"),
                obs::json::Json::Obj(_)
            ),
            "span {id}: fields is an object"
        );
        seen_ids.insert(id);
        seen_names.insert(name.to_string());
        span_lines += 1;
    }
    assert_eq!(span_lines, records.len(), "one line per span");
    assert_eq!(seen_ids.len(), records.len(), "span ids are unique");

    // The whole pipeline is covered: prep passes, candidate generation,
    // engine state evaluation, the elimination DP, pricing, runtime
    // admission, solve roots.
    for required in [
        "solve",
        "result_cache",
        "prep",
        "candgen",
        "state",
        "elim",
        "price",
    ] {
        assert!(
            seen_names.contains(required),
            "span taxonomy is missing {required:?} (saw {seen_names:?})"
        );
    }

    // The folded sink over the same records: `stack self_us` per line,
    // stacks rooted at a thread frame.
    let folded = obs::trace::render_folded(&records);
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("folded line has a weight");
        assert!(stack.starts_with("thread-"), "stack is thread-rooted");
        weight.parse::<u64>().expect("folded weight is integral");
    }

    // Every `ρ` pricing runs in exactly one `price` span: an in-window
    // ghw solve prices its bags under the DP's `elim` span, and no
    // `price` span nests inside another.
    obs::trace::set_enabled(true);
    ghd::ghw_exact_with_stats(&generators::grid(3, 4), None, EngineOptions::sequential());
    let records = obs::trace::drain();
    obs::trace::set_enabled(false);
    let ids_named = |name: &str| -> BTreeSet<u64> {
        records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.id)
            .collect()
    };
    let (elim, price) = (ids_named("elim"), ids_named("price"));
    let rho = FieldValue::Str("rho".into());
    let is_rho = |r: &&SpanRecord| r.name == "price" && r.fields.contains(&("kind", rho.clone()));
    assert!(
        records
            .iter()
            .filter(is_rho)
            .any(|r| r.parent.is_some_and(|p| elim.contains(&p))),
        "no rho price span under elim"
    );
    assert!(
        records
            .iter()
            .filter(|r| r.name == "price")
            .all(|r| r.parent.is_none_or(|p| !price.contains(&p))),
        "a price span nests inside another"
    );
}

/// A cold front-door verdict prepares each profile once and seeds each
/// block once: fhw and ghw share one minimizer prep and one integral seed
/// per block, and hw runs the decision prep.
#[test]
fn a_verdict_prepares_once_and_seeds_each_block_once() {
    let _guard = trace_lock();
    // Two triangles sharing vertex 2: two blocks.
    let triangles = Hypergraph::from_edges(
        5,
        vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 0],
            vec![2, 3],
            vec![3, 4],
            vec![4, 2],
        ],
    );
    for (name, h, blocks) in [
        ("example_4_3", generators::example_4_3(), 1),
        ("two triangles", triangles, 2),
    ] {
        obs::trace::set_enabled(true);
        obs::trace::drain();
        let (_, stats) = hypertree::exact_widths_with_opts(&h, 8, EngineOptions::sequential())
            .unwrap_or_else(|| panic!("{name}: in range"));
        let records = obs::trace::drain();
        obs::trace::set_enabled(false);
        let count = |span: &str, field: &'static str, value: &str| {
            let field = (field, FieldValue::Str(value.into()));
            records
                .iter()
                .filter(|r| r.name == span && r.fields.contains(&field))
                .count()
        };
        assert_eq!(stats.fhw.prep_blocks, blocks, "{name}: blocks");
        assert_eq!(
            count("prep", "profile", "minimizer"),
            1,
            "{name}: minimizer preps"
        );
        assert_eq!(
            count("prep", "profile", "decision"),
            1,
            "{name}: decision preps"
        );
        assert_eq!(
            count("candgen", "stage", "upper_bound"),
            blocks,
            "{name}: seeds"
        );
    }
}

/// An α-acyclic verdict is answered by its join tree: a cold front-door
/// verdict with reuse off answers width 1 three times, opens no `prep`,
/// `candgen`, `state` or `elim` span, and counts nothing but ghw's and
/// fhw's bound 1. All three measures share one instance, so one
/// `join_tree` span serves fhw, ghw and hw at floor 1.
#[test]
fn an_acyclic_verdict_is_answered_by_its_join_tree() {
    let _guard = trace_lock();
    for (name, h) in [
        ("cq_chain(5,3,1)", generators::cq_chain(5, 3, 1)),
        ("random_acyclic(8,3,5)", generators::random_acyclic(8, 3, 5)),
    ] {
        obs::trace::set_enabled(true);
        obs::trace::drain();
        let (w, stats) = hypertree::exact_widths_with_opts(&h, 8, EngineOptions::sequential())
            .unwrap_or_else(|| panic!("{name}: in range"));
        let records = obs::trace::drain();
        obs::trace::set_enabled(false);
        assert_eq!((w.hw, w.ghw, w.fhw), (1, 1, Rational::one()), "{name}");
        for span in ["prep", "candgen", "state", "elim"] {
            assert!(
                records.iter().all(|r| r.name != span),
                "{name}: a {span} span"
            );
        }
        let acyclic = ("acyclic", FieldValue::Bool(true));
        let trees = records.iter().filter(|r| r.name == "join_tree");
        assert!(trees.clone().all(|r| r.fields.contains(&acyclic)), "{name}");
        assert_eq!(trees.count(), 1, "{name}: join trees");
        let bound = SearchStats {
            ub_width: Some(Rational::one()),
            ..SearchStats::default()
        };
        assert_eq!(stats.hw.engine_only(), SearchStats::default(), "{name}: hw");
        assert_eq!(stats.ghw.engine_only(), bound, "{name}: ghw");
        assert_eq!(stats.fhw.engine_only(), bound, "{name}: fhw");
    }
}
