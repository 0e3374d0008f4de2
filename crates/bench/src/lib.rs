//! Shared workloads for the criterion benches and the `experiments` harness.
//!
//! Experiment IDs (`E1`–`E13`) follow the per-experiment index in
//! `DESIGN.md`; every figure, table and quantitative claim of the paper maps
//! to one of them.

use hypertree_core::hypergraph::{generators, parser, Hypergraph};
use hypertree_core::reduction::{self, Cnf};

/// A named workload instance.
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The instance.
    pub hypergraph: Hypergraph,
}

/// The mixed CQ-shaped corpus used by E8/E13 and several benches.
pub fn corpus() -> Vec<Workload> {
    let mut out: Vec<Workload> = vec![
        w("chain(5,3)", generators::cq_chain(5, 3, 1)),
        w("star(4,2)", generators::cq_star(4, 2)),
        w("cycle(3)", generators::cycle(3)),
        w("cycle(6)", generators::cycle(6)),
        w("triangles(3)", generators::triangle_chain(3)),
        w("grid(3x3)", generators::grid(3, 3)),
        w("clique(5)", generators::clique(5)),
        w("clique(6)", generators::clique(6)),
        w("example_4_3", generators::example_4_3()),
        w("example_5_1(5)", generators::example_5_1(5)),
    ];
    for seed in 0..4u64 {
        out.push(w(
            &format!("rand_bip(s{seed})"),
            generators::random_bip(10, 7, 2, 3, seed),
        ));
        out.push(w(
            &format!("rand_bdp(s{seed})"),
            generators::random_bounded_degree(10, 7, 3, 3, seed),
        ));
    }
    out
}

/// The 19–30-vertex scaling corpus: instances beyond the old 18-vertex
/// subset-search wall, exercising the seeded DP window (both measures up
/// to 24 vertices), a proven past-window `ghw` (`cycle(26)`: cyclic, so
/// its seed of 2 is exact, with no search) and the per-block pipeline at
/// scale.
/// Kept separate from [`corpus`] so only the suites that want it pay the
/// larger runtimes.
pub fn large_corpus() -> Vec<Workload> {
    vec![
        w("cycle(20)", generators::cycle(20)),
        w("grid(2x10)", generators::grid(2, 10)),
        w("triangles(10)", generators::triangle_chain(10)),
        w("cycle(26)", generators::cycle(26)),
    ]
}

/// The vendored HyperBench-style corpus (`examples/data/corpus/`): small
/// CQ/CSP-shaped instances, baked into the binary so the daemon test,
/// `hgtool loadgen`'s default workload and offline CI run them without
/// network access or file paths.
pub fn vendored_corpus() -> Vec<Workload> {
    let files: [(&str, &str); 8] = [
        (
            "cq_snowflake_q4",
            include_str!("../../../examples/data/corpus/cq_snowflake_q4.hg"),
        ),
        (
            "cq_chordal_ring_q8",
            include_str!("../../../examples/data/corpus/cq_chordal_ring_q8.hg"),
        ),
        (
            "cq_triangle_proj_q3",
            include_str!("../../../examples/data/corpus/cq_triangle_proj_q3.hg"),
        ),
        (
            "cq_double_diamond_q13",
            include_str!("../../../examples/data/corpus/cq_double_diamond_q13.hg"),
        ),
        (
            "csp_crossword_4x3",
            include_str!("../../../examples/data/corpus/csp_crossword_4x3.hg"),
        ),
        (
            "csp_wheel_6",
            include_str!("../../../examples/data/corpus/csp_wheel_6.hg"),
        ),
        (
            "csp_ternary_grid_9",
            include_str!("../../../examples/data/corpus/csp_ternary_grid_9.hg"),
        ),
        (
            "csp_rand_bin_10",
            include_str!("../../../examples/data/corpus/csp_rand_bin_10.hg"),
        ),
    ];
    files
        .into_iter()
        .map(|(name, text)| {
            w(
                name,
                parser::parse(text).expect("vendored corpus instances parse"),
            )
        })
        .collect()
}

fn w(name: &str, hypergraph: Hypergraph) -> Workload {
    Workload {
        name: name.to_string(),
        hypergraph,
    }
}

/// Reduction instances for E1–E3 scaling runs: planted-satisfiable 3SAT of
/// growing size.
pub fn reduction_instances() -> Vec<(String, reduction::Reduction, Vec<bool>)> {
    let mut out = Vec::new();
    for (n, m) in [(2usize, 2usize), (3, 2), (3, 4), (4, 4), (5, 6)] {
        let (cnf, plant) = Cnf::random_planted(n.max(3), m, (n * 31 + m) as u64);
        let r = reduction::build(&cnf);
        out.push((format!("n={n},m={m}"), r, plant));
    }
    out
}

/// BIP families with growing size for the E5 scaling study.
pub fn bip_scaling() -> Vec<(String, Hypergraph)> {
    let mut out = Vec::new();
    for n in [8usize, 12, 16, 20, 24] {
        out.push((format!("grid(2x{})", n / 2), generators::grid(2, n / 2)));
    }
    for n in [8usize, 10, 12] {
        out.push((
            format!("rand_bip(n={n})"),
            generators::random_bip(n, n - 2, 2, 3, n as u64),
        ));
    }
    out
}

/// Bounded-degree families for the E6 scaling study.
pub fn bdp_scaling() -> Vec<(String, Hypergraph)> {
    let mut out = Vec::new();
    for n in [6usize, 8, 10] {
        out.push((
            format!("rand_bdp(n={n})"),
            generators::random_bounded_degree(n, n - 2, 2, 3, n as u64),
        ));
        out.push((format!("cycle({n})"), generators::cycle(n)));
    }
    out
}
