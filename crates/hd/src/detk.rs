//! `det-k-decomp`: a deterministic implementation of the alternating
//! `k-decomp` algorithm of Gottlob, Leone, Scarcello \[27\] deciding
//! `Check(HD, k)` in polynomial time for fixed `k`, expressed as a strategy
//! over the shared [`solver`] search engine.
//!
//! The engine works on pairs `(C_r, conn)` where `C_r` is a
//! `[B_r]`-component and `conn = V(R) ∩ ⋃ edges(C_r)`; the strategy guesses
//! `S = supp(λ_s)` with `|S| <= k` subject to
//!
//! * (2.b) `∀e ∈ edges(C_r): e ∩ V(R) ⊆ V(S)` — the connector must be
//!   covered (checked by the engine as `conn ⊆ bag`), and
//! * (2.c) `V(S) ∩ C_r ≠ ∅` — progress (engine-checked),
//!
//! and the engine recurses on every `[V(S)]`-component inside `C_r` with
//! memoization on `(C_r, conn)`. Splitting on the *full* `V(S)` (rather
//! than the clipped bag) is exactly what enforces the special condition:
//! witness bags are assembled top-down as `B_s = V(S) ∩ (C_r ∪ B_r)`
//! (cf. Lemmas 5.9–5.13 of \[27\]).

use arith::Rational;
use decomp::Decomposition;
use hypergraph::{Hypergraph, VertexSet};
use solver::{
    exact, Admission, CandidateStream, EngineOptions, Guess, SearchContext, SearchState,
    SearchStats, WidthSolver,
};

/// Decides `Check(HD, k)`: returns a hypertree decomposition of width
/// `<= k` if one exists, `None` otherwise.
pub fn check_hd(h: &Hypergraph, k: usize) -> Option<Decomposition> {
    check_hd_with_stats(h, k, EngineOptions::default()).0
}

/// As [`check_hd`], also reporting the engine counters of this check.
///
/// At `k = 1` the check is α-acyclicity: the answer is `h`'s join tree
/// ([`decomp::join_tree`]), and nothing is prepared or searched. Above it,
/// unless opted out (`opts.prep`), the instance first
/// runs through `prep`'s *decision* profile — duplicate-edge and
/// twin-vertex collapse only, the passes that provably preserve `hw`'s
/// special condition (no block splitting: re-rooting a block tree is not
/// special-condition-safe) — and the witness is lifted back to `h`.
///
/// A one-shot check: every call searches, whatever
/// `opts.reuse_results` says (only the width queries are cached).
pub fn check_hd_with_stats(
    h: &Hypergraph,
    k: usize,
    opts: EngineOptions,
) -> (Option<Decomposition>, SearchStats) {
    assert!(k >= 1, "width bound must be positive");
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    if k == 1 {
        return (decomp::join_tree(h), SearchStats::default());
    }
    let (result, stats) = prep::run_decision(h, opts.prep, |block| {
        let (d, s) = check_hd_piece(block, k);
        (d.map(|d| ((), d)), s)
    });
    (result.map(|(_, d)| d), stats)
}

/// Runs `det-k-decomp` proper on an (already preprocessed) instance.
fn check_hd_piece(h: &Hypergraph, k: usize) -> (Option<Decomposition>, SearchStats) {
    let mut cx = SearchContext::new();
    let result = cx.run(h, &DetK { k }).map(|(_, d)| d);
    (result, cx.stats())
}

/// `hw(H)` by iterating `k = 1, 2, ...` up to `max_k`; returns the width and
/// a witness HD, or `None` if `hw(H) > max_k`. `k = 1` is the join tree
/// ([`decomp::join_tree`]), `k ≥ 2` `det-k-decomp`.
pub fn hypertree_width(h: &Hypergraph, max_k: usize) -> Option<(usize, Decomposition)> {
    hypertree_width_with_stats(h, max_k, EngineOptions::default()).0
}

/// As [`hypertree_width`], also reporting the engine counters summed over
/// the `k = 2, 3, ...` checks. An α-acyclic `h` answers `(1, join tree)`
/// with zero counters, before any prep. Otherwise the prep pipeline (which
/// is `k`-independent) runs once up front; every check of the iteration
/// searches the same reduced instance and only the final witness is
/// lifted.
pub fn hypertree_width_with_stats(
    h: &Hypergraph,
    max_k: usize,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    hypertree_width_at_least(h, 1, max_k, opts)
}

/// As [`hypertree_width_with_stats`], but the `k` iteration starts at
/// `floor`, a proven lower bound `floor <= hw(H)` (e.g. `ghw(H)`). The
/// checks below `floor` all fail, so the first check that succeeds — and
/// with it the width and the witness — is the same as from `k = 1`. The
/// counters cover only the checks that ran. Only at `floor <= 1` is
/// `k = 1` asked, of the join tree; an exact caller that knows `ghw ≥ 2`
/// passes it and runs no acyclicity test. [`hypertree_width_on`] on a
/// fresh [`exact::Instance`].
pub fn hypertree_width_at_least(
    h: &Hypergraph,
    floor: usize,
    max_k: usize,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    hypertree_width_on(&mut exact::Instance::new(h, opts), floor, max_k)
}

/// As [`hypertree_width_at_least`] on a shared [`exact::Instance`]: reuses
/// the result-cache key that an earlier measure built on it and, at floor
/// 1, its join tree, so a caller asking `hw`, `ghw` and `fhw` of one
/// instance hashes it once and runs GYO at most once. The answer and the
/// counters are those of [`hypertree_width_at_least`].
///
/// The result-cache parameters name the first det-k check,
/// `max(floor, 2)`: two floors share an answer only when they run the same
/// checks (floors 1 and 2 do; the join tree counts nothing), so a hit
/// replays exactly the counters a cold call at its floor reports.
pub fn hypertree_width_on(
    instance: &mut exact::Instance<'_>,
    floor: usize,
    max_k: usize,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    let prep = instance.options().prep;
    let from = floor.max(2);
    let params = || format!("max_k={max_k};prep={prep};from={from}");
    instance.front_door("hw", "result-hw", params, |instance| {
        if floor <= 1 && max_k >= 1 {
            if let Some(d) = instance.join_tree() {
                return (Some((1, d.clone())), SearchStats::default());
            }
        }
        // The prep pipeline (which is `k`-independent) runs once around
        // the whole iteration; every check searches the same reduced
        // block and only the final witness is lifted.
        let (mut result, stats) = prep::run_decision(instance.hypergraph(), prep, |block| {
            let mut total = SearchStats::default();
            for k in from..=max_k {
                let (d, stats) = check_hd_piece(block, k);
                total.merge(&stats);
                if let Some(d) = d {
                    return (Some((k, d)), total);
                }
            }
            (None, total)
        });
        // The result cache keeps this very tree: drop its growth slack.
        if let Some((_, d)) = &mut result {
            d.shrink_to_fit();
        }
        (result, stats)
    })
}

/// The `det-k-decomp` strategy: separators are edge sets `S` with
/// `|S| <= k`, bags are `V(S)` (clipped by the engine at assembly), and the
/// component split runs on the full `V(S)`.
struct DetK {
    k: usize,
}

impl WidthSolver for DetK {
    type Cost = usize;

    fn is_decision(&self) -> bool {
        true
    }

    fn candidates<'a>(&'a self, h: &'a Hypergraph, state: SearchState<'a>) -> CandidateStream<'a> {
        // Candidate separator edges: anything touching the component's
        // closed neighborhood (others can be dropped from any valid S
        // without affecting the checks or the components inside `comp`).
        let neighborhood = h.union_of_edges(state.comp_edges.iter().copied());
        let candidates: Vec<usize> = (0..h.num_edges())
            .filter(|&e| h.edge(e).intersects(&neighborhood))
            .collect();
        // Combinatorial only — V(S) and the (2.b) check are deferred to
        // `admit`, and the subset enumeration is lazy, so the first-success
        // exit leaves the untried tail of the space unenumerated.
        CandidateStream::new(
            solver::stream_subsets_up_to(candidates, self.k).map(|sep| Guess {
                edges: sep,
                extra: VertexSet::new(),
            }),
        )
    }

    fn admit(
        &self,
        h: &Hypergraph,
        state: SearchState<'_>,
        guess: &Guess,
        _bound: Option<&usize>,
    ) -> Option<Admission<usize>> {
        let vs = h.union_of_edges(guess.edges.iter().copied());
        // (2.b): conn ⊆ V(S).
        if !state.conn.is_subset(&vs) {
            return None;
        }
        Some(Admission {
            bag: vs,
            cost: guess.edges.len(),
            weights: guess.edges.iter().map(|&e| (e, Rational::one())).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate;
    use hypergraph::generators;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn assert_hw(h: &Hypergraph, expected: usize) {
        if expected > 1 {
            assert!(
                check_hd(h, expected - 1).is_none(),
                "width {} should fail",
                expected - 1
            );
        }
        let d = check_hd(h, expected).unwrap_or_else(|| panic!("width {expected} should succeed"));
        assert_eq!(validate::validate_hd(h, &d), Ok(()), "{}", d.render(h));
        assert!(d.width() <= arith::Rational::from(expected));
    }

    #[test]
    fn acyclic_hypergraphs_have_width_1() {
        assert_hw(&generators::path(6), 1);
        assert_hw(&generators::star(5), 1);
        assert_hw(&generators::cq_chain(4, 3, 1), 1);
        assert_hw(&generators::cq_star(3, 2), 1);
    }

    #[test]
    fn cycles_have_width_2() {
        for n in 3..8 {
            assert_hw(&generators::cycle(n), 2);
        }
    }

    #[test]
    fn cliques_have_width_half_n() {
        assert_hw(&generators::clique(4), 2);
        assert_hw(&generators::clique(5), 3);
        assert_hw(&generators::clique(6), 3);
    }

    #[test]
    fn example_4_3_has_hypertree_width_3() {
        // The headline fact of Example 4.3: hw(H0) = 3 (while ghw = 2).
        let h = generators::example_4_3();
        assert_hw(&h, 3);
    }

    #[test]
    fn triangle_chain_width_2() {
        assert_hw(&generators::triangle_chain(3), 2);
    }

    #[test]
    fn grids_small_widths() {
        assert_hw(&generators::grid(2, 3), 2);
        assert_hw(&generators::grid(3, 3), 2);
    }

    #[test]
    fn hypertree_width_search() {
        let (w, d) = hypertree_width(&generators::cycle(5), 5).unwrap();
        assert_eq!(w, 2);
        assert_eq!(validate::validate_hd(&generators::cycle(5), &d), Ok(()));
        assert!(hypertree_width(&generators::clique(8), 3).is_none());
    }

    #[test]
    fn isolated_vertices_rejected() {
        let h = Hypergraph::from_edges(3, vec![vec![0, 1]]);
        assert!(check_hd(&h, 2).is_none());
    }

    /// `h` with its vertices renumbered and its edges reordered by
    /// `seed`'s permutations.
    fn shuffled(h: &Hypergraph, seed: u64) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut relabel: Vec<usize> = (0..h.num_vertices()).collect();
        relabel.shuffle(&mut rng);
        let mut order: Vec<usize> = (0..h.num_edges()).collect();
        order.shuffle(&mut rng);
        let edges = order
            .iter()
            .map(|&e| h.edge(e).iter().map(|v| relabel[v]).collect())
            .collect();
        Hypergraph::from_edges(h.num_vertices(), edges)
    }

    /// The join tree answers `Check(HD, 1)` as det-k itself does at
    /// `k = 1` (the strategy alone, no prep), on 540 relabelled and
    /// reordered instances of acyclic and cyclic families; every tree is an
    /// HD, a GHD and an FHD of width 1.
    #[test]
    fn join_tree_agrees_with_detk_at_width_one() {
        let mut bases = vec![
            generators::path(7),
            generators::star(6),
            generators::cq_chain(5, 3, 1),
            generators::cq_chain(4, 4, 2),
            generators::cq_star(3, 2),
            generators::cq_snowflake(3, 3),
            generators::cycle(4),
            generators::cycle(7),
            generators::clique(5),
            generators::grid(2, 4),
            generators::triangle_chain(3),
            generators::example_4_3(),
            generators::example_5_1(4),
        ];
        for seed in 0..7 {
            bases.push(generators::random_acyclic(4 + seed as usize, 3, seed));
            bases.push(generators::random_bip(9, 7, 2, 3, seed));
        }
        let (mut acyclic, mut cyclic) = (0, 0);
        for (i, base) in bases.iter().enumerate() {
            for seed in 0..20 {
                let h = shuffled(base, 1000 * i as u64 + seed);
                let reference = check_hd_piece(&h, 1).0.is_some();
                let tree = decomp::join_tree(&h);
                assert_eq!(tree.is_some(), reference, "base {i}, seed {seed}: {h}");
                let Some(d) = tree else {
                    cyclic += 1;
                    continue;
                };
                acyclic += 1;
                assert_eq!(d.width(), arith::Rational::one());
                assert_eq!(validate::validate_hd(&h, &d), Ok(()), "{}", d.render(&h));
                assert_eq!(validate::validate_ghd(&h, &d), Ok(()));
                assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
            }
        }
        assert!(acyclic + cyclic >= 500 && acyclic >= 150 && cyclic >= 150);
    }

    #[test]
    fn random_corpus_round_trip() {
        for seed in 0..4u64 {
            let h = generators::random_bip(10, 7, 2, 3, seed);
            if let Some((w, d)) = hypertree_width(&h, 4) {
                assert_eq!(validate::validate_hd(&h, &d), Ok(()), "seed {seed}");
                assert!(d.width() <= arith::Rational::from(w));
            }
        }
    }
}
