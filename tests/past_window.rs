//! Past the elimination DP's window (blocks of more than 24 vertices),
//! exact `ghw` reports only widths it can prove: every `Some(w)` must be
//! confirmed by the source paper's own check, `Check(GHD, k)` for BIP
//! hypergraphs (`check_ghd_bip`, Theorem 4.15), with Yes at `w` and a
//! certified No at `w − 1`, and every witness must validate.
//!
//! The regression family is Example 4.3 plus a path of fresh vertices
//! from `v2` to `v3`: prep leaves one block of 26 or 30 vertices whose
//! `ghw` is 2, while text-form relabellings seed at 3 and the width-2
//! search in det-k's HD normal form finds nothing. Such a block must
//! answer 2 or `None`, never an unproven 3.

use hypertree::decomp::validate;
use hypertree::ghd::{self, GhdAnswer, SubedgeLimits};
use hypertree::hypergraph::{generators, parser, Hypergraph};
use hypertree::solver::EngineOptions;

/// Example 4.3 plus a path of `len` fresh vertices from `v2` to `v3`
/// (rank-2 edges).
fn example_4_3_with_path(len: usize) -> Hypergraph {
    let base = generators::example_4_3();
    let (v2, v3, first) = (1, 2, base.num_vertices());
    let mut edges: Vec<Vec<usize>> = base.edges().iter().map(|e| e.iter().collect()).collect();
    let chain: Vec<usize> = std::iter::once(v2)
        .chain(first..first + len)
        .chain(std::iter::once(v3))
        .collect();
    edges.extend(chain.windows(2).map(|w| w.to_vec()));
    Hypergraph::from_edges(first + len, edges)
}

/// `h` as a file would give it: vertices permuted and edges reordered by
/// Fisher–Yates shuffles driven by a splitmix64 stream from `seed`,
/// written with `to_string()` and read back with `parser::parse`, which
/// numbers vertices by first appearance (the form `hgtool` and `hgtool
/// serve` see).
fn text_relabelling(h: &Hypergraph, seed: u64) -> Hypergraph {
    let mut state = seed;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let n = h.num_vertices();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, next(i + 1));
    }
    let mut edges: Vec<Vec<usize>> = h
        .edges()
        .iter()
        .map(|e| e.iter().map(|v| perm[v]).collect())
        .collect();
    for i in (1..edges.len()).rev() {
        edges.swap(i, next(i + 1));
    }
    parser::parse(&Hypergraph::from_edges(n, edges).to_string()).expect("to_string parses")
}

/// Exact `ghw` under the sequential options, its witness validated.
fn ghw(name: &str, h: &Hypergraph) -> Option<usize> {
    let (result, _) = ghd::ghw_exact_with_stats(h, None, EngineOptions::sequential());
    result.map(|(w, d)| {
        assert_eq!(validate::validate_ghd(h, &d), Ok(()), "{name}: witness");
        assert!(
            d.width() <= hypertree::arith::Rational::from(w),
            "{name}: witness wider than {w}"
        );
        w
    })
}

/// The paper's check confirms `w`: Yes at `w`, a certified No at `w − 1`.
fn assert_checked(name: &str, h: &Hypergraph, w: usize) {
    let limits = SubedgeLimits::default();
    let yes = ghd::check_ghd_bip(h, w, limits);
    let d = yes
        .decomposition()
        .unwrap_or_else(|| panic!("{name}: Check(GHD, {w}) is not Yes"));
    assert_eq!(
        validate::validate_ghd(h, d),
        Ok(()),
        "{name}: check witness"
    );
    assert!(
        matches!(ghd::check_ghd_bip(h, w - 1, limits), GhdAnswer::No),
        "{name}: Check(GHD, {}) is not a certified No",
        w - 1
    );
}

#[test]
fn example_4_3_plus_a_path_never_reports_an_unproven_width() {
    for len in [16, 20] {
        let base = example_4_3_with_path(len);
        for seed in 0..25u64 {
            let name = format!("example_4_3+path{len}/relabel{seed}");
            let h = text_relabelling(&base, seed);
            assert!(h.num_vertices() > 24, "{name}: past the window");
            let w = ghw(&name, &h);
            assert!(
                w.is_none() || w == Some(2),
                "{name}: ghw {w:?}, but ghw = 2"
            );
        }
    }
}

#[test]
fn past_window_answers_agree_with_the_papers_check() {
    let grid = generators::grid(3, 9);
    let mut proven = vec![
        ("cycle(26)".to_string(), generators::cycle(26)),
        ("cycle(40)".to_string(), generators::cycle(40)),
        ("example_5_1(30)".to_string(), generators::example_5_1(30)),
        ("example_4_3+path16".to_string(), example_4_3_with_path(16)),
        ("grid(3,9)".to_string(), grid.clone()),
    ];
    for seed in 0..3 {
        proven.push((
            format!("grid(3,9)/relabel{seed}"),
            text_relabelling(&grid, seed),
        ));
    }
    for (name, h) in &proven {
        assert!(h.num_vertices() > 24, "{name}: past the window");
        let w = ghw(name, h).unwrap_or_else(|| panic!("{name}: a proven width"));
        assert_checked(name, h, w);
    }

    let mut open = vec![("grid(5,5)".to_string(), generators::grid(5, 5))];
    let path = example_4_3_with_path(16);
    for seed in 0..3 {
        open.push((
            format!("example_4_3+path16/relabel{seed}"),
            text_relabelling(&path, seed),
        ));
    }
    for (name, h) in &open {
        if let Some(w) = ghw(name, h) {
            assert_checked(name, h, w);
        }
    }
}
