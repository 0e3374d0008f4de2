//! A solve runs on the calling thread: it starts no thread of its own.
//!
//! The only test in this binary, so the harness runs nothing beside it
//! and the process's thread count moves only with the solve.

#![cfg(target_os = "linux")]

use hypertree::ghd;
use hypertree::hypergraph::generators;
use hypertree::solver::EngineOptions;

/// The `Threads:` line of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn an_exact_solve_starts_no_thread() {
    let before = process_threads();
    // grid(3,9) is past the DP's window and seeds at 3, so the width-2
    // edge-union search runs.
    let (result, stats) =
        ghd::ghw_exact_with_stats(&generators::grid(3, 9), None, EngineOptions::default());
    let after = process_threads();
    assert!(result.is_some(), "grid(3,9) has a width-2 witness in range");
    assert!(stats.states > 0, "the edge-union engine ran");
    assert!(
        after <= before,
        "the solve started {} thread(s)",
        after - before
    );
}
