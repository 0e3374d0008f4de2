//! Integration tests for the `hgtool` binary: drive `widths` and `check`
//! on the paper's Example 4.3 hypergraph and assert the headline numbers
//! (hw = 3, ghw = 2, fhw <= 2) as computed through the shared search
//! engine behind all three solvers.

use hypertree::hypergraph::generators;
use std::io::Write;
use std::process::{Command, Stdio};

/// Runs the compiled `hgtool` with `args`, feeding `stdin_text` when given.
fn hgtool(args: &[&str], stdin_text: Option<&str>) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hgtool"));
    cmd.args(args);
    cmd.stdin(if stdin_text.is_some() {
        Stdio::piped()
    } else {
        Stdio::null()
    });
    cmd.stdout(Stdio::piped());
    cmd.stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn hgtool");
    if let Some(text) = stdin_text {
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(text.as_bytes())
            .expect("write stdin");
    }
    let out = child.wait_with_output().expect("run hgtool");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// Example 4.3 in the HyperBench syntax hgtool parses (via stdin, `-`).
fn example_4_3_text() -> String {
    generators::example_4_3().to_string()
}

#[test]
fn widths_reports_the_example_4_3_headline_numbers() {
    let (ok, out) = hgtool(&["widths", "-"], Some(&example_4_3_text()));
    assert!(ok, "hgtool widths failed:\n{out}");
    assert!(out.contains("hw  = 3"), "missing hw = 3 in:\n{out}");
    assert!(out.contains("ghw = 2"), "missing ghw = 2 in:\n{out}");
    // fhw is reported as an exact rational in (1, 2].
    let fhw_line = out
        .lines()
        .find(|l| l.starts_with("fhw = "))
        .unwrap_or_else(|| panic!("missing fhw line in:\n{out}"));
    let value = fhw_line.trim_start_matches("fhw = ").trim();
    let as_rational: hypertree::arith::Rational = value
        .parse()
        .unwrap_or_else(|e| panic!("unparsable fhw {value:?}: {e}"));
    assert!(as_rational > hypertree::arith::Rational::one());
    assert!(as_rational <= hypertree::arith::Rational::from(2usize));
}

#[test]
fn widths_stats_surfaces_engine_counters() {
    let (ok, out) = hgtool(&["widths", "--stats", "-"], Some(&example_4_3_text()));
    assert!(ok, "hgtool widths --stats failed:\n{out}");
    assert!(out.contains("hw  = 3"), "missing hw = 3 in:\n{out}");
    assert!(
        out.contains("states") && out.contains("streamed") && out.contains("lp-cache"),
        "missing stats header in:\n{out}"
    );
    for engine in ["hw", "ghw", "fhw"] {
        // A stats *row* (not the width line): engine name plus a hit rate.
        assert!(
            out.lines()
                .any(|l| l.starts_with(engine) && l.contains("% hit")),
            "missing {engine} stats row in:\n{out}"
        );
    }
}

#[test]
fn widths_stats_names_the_join_tree_path() {
    let (ok, out) = hgtool(
        &["widths", "--stats", "-"],
        Some("r1(a,b,c),\nr2(c,d),\nr3(d,e)."),
    );
    assert!(ok, "hgtool widths --stats failed:\n{out}");
    assert!(out.contains("hw  = 1"), "missing hw = 1 in:\n{out}");
    assert!(
        out.contains("path: join tree"),
        "missing path line in:\n{out}"
    );
    let (ok, out) = hgtool(&["widths", "--stats", "-"], Some(&example_4_3_text()));
    assert!(ok, "hgtool widths --stats failed:\n{out}");
    assert!(out.contains("path: cyclic"), "missing path line in:\n{out}");
}

#[test]
fn widths_no_prep_matches_default_widths() {
    let (ok, out) = hgtool(
        &["widths", "--stats", "--no-prep", "-"],
        Some(&example_4_3_text()),
    );
    assert!(ok, "hgtool widths --no-prep failed:\n{out}");
    assert!(out.contains("hw  = 3"), "missing hw = 3 in:\n{out}");
    assert!(out.contains("ghw = 2"), "missing ghw = 2 in:\n{out}");
    assert!(out.contains("prep: off"), "missing prep-off marker:\n{out}");
}

#[test]
fn prep_prints_the_reduction_trace() {
    // An α-acyclic chain: GYO must collapse it and say so.
    let input = "r1(a,b,c),\nr2(c,d),\nr3(d,e).";
    let (ok, out) = hgtool(&["prep", "-"], Some(input));
    assert!(ok, "hgtool prep failed:\n{out}");
    assert!(out.contains("original: 5 vertices, 3 edges"), "{out}");
    assert!(out.contains("degree-one"), "no GYO steps in:\n{out}");
    assert!(out.contains("fingerprint"), "no fingerprints in:\n{out}");
    assert!(out.contains("blocks: 1"), "no block summary in:\n{out}");
}

#[test]
fn check_hd_accepts_3_and_rejects_2() {
    let (ok, out) = hgtool(&["check", "hd", "3", "-"], Some(&example_4_3_text()));
    assert!(ok, "check hd 3 failed:\n{out}");
    assert!(out.contains("YES"), "expected YES at width 3:\n{out}");
    assert!(
        out.contains("validated: true"),
        "witness must validate:\n{out}"
    );

    let (ok, out) = hgtool(&["check", "hd", "2", "-"], Some(&example_4_3_text()));
    assert!(ok, "check hd 2 errored:\n{out}");
    assert!(
        out.contains("NO"),
        "hw(H0) = 3, width 2 must be rejected:\n{out}"
    );
}

#[test]
fn check_ghd_accepts_2() {
    // The gap hw = 3 > ghw = 2 is the point of Example 4.3: the GHD check
    // (BIP subedge augmentation over the same engine) accepts width 2.
    let (ok, out) = hgtool(&["check", "ghd", "2", "-"], Some(&example_4_3_text()));
    assert!(ok, "check ghd 2 failed:\n{out}");
    assert!(out.contains("YES"), "expected YES at ghw 2:\n{out}");
    assert!(
        out.contains("validated: true"),
        "witness must validate:\n{out}"
    );
}

#[test]
fn structure_profiles_example_4_3() {
    let (ok, out) = hgtool(&["structure", "-"], Some(&example_4_3_text()));
    assert!(ok, "hgtool structure failed:\n{out}");
    assert!(out.contains("vertices:            10"), "{out}");
    assert!(out.contains("edges:               8"), "{out}");
    assert!(out.contains("intersection width:  1"), "{out}");
    assert!(out.contains("alpha-acyclic:       false"), "{out}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let (ok, out) = hgtool(&["frobnicate"], None);
    assert!(!ok, "unknown command must fail");
    assert!(out.contains("usage:"), "{out}");
}
