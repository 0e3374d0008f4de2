//! Exact `ghw`: the `ρ` instantiation of [`solver::exact`].
//!
//! Each block of at most 24 vertices is seeded by the witness-backed
//! heuristic bound `ub`, then searched by the elimination DP. The DP is
//! complete for any monotone bag measure, so a DP search that fails at
//! the seeded cutoff *is* the exact answer `ub`. Past that window only a
//! proven width is reported: width 1 by the block's join tree, the seed
//! when `ub ≤ max(floor, 2)` (a cyclic block has `ghw ≥ 2`), or 2 by a
//! witness from `candgen`'s width-2 edge-union space (blocks of at most
//! 315 edges). Anything else answers `None`: that space is det-k's HD
//! normal form, so a failed search there proves nothing about `ghw`.
//! [`ghw_exact_at_least`] also takes a proven lower bound (the front door
//! passes `⌈fhw⌉`). The subset enumerator survives as
//! [`ghw_exact_subset_oracle`], the small-instance cross-check.

use decomp::Decomposition;
use hypergraph::Hypergraph;
use solver::exact::{self, Rho};
use solver::{EngineOptions, SearchStats};

/// Computes `ghw(H)` exactly together with an optimal GHD. Returns `None`
/// when a block is out of the exact engines' range, `H` has isolated
/// vertices, or `cutoff` is given and `ghw(H) >= cutoff`.
pub fn ghw_exact(h: &Hypergraph, cutoff: Option<usize>) -> Option<(usize, Decomposition)> {
    ghw_exact_with_stats(h, cutoff, EngineOptions::default()).0
}

/// As [`ghw_exact`], also reporting engine, price-cache and
/// candidate-generation counters (engine counters are zero when the
/// elimination DP answered).
pub fn ghw_exact_with_stats(
    h: &Hypergraph,
    cutoff: Option<usize>,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    exact::solve::<Rho>(h, cutoff, 1, opts)
}

/// As [`ghw_exact_with_stats`] without a cutoff, given a proven lower
/// bound `floor <= ghw(H)` (e.g. `⌈fhw(H)⌉`); see [`exact::solve`].
pub fn ghw_exact_at_least(
    h: &Hypergraph,
    floor: usize,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    exact::solve::<Rho>(h, None, floor, opts)
}

/// As [`ghw_exact_at_least`] on a shared [`exact::Instance`]: reuses the
/// prep and the seeds that an earlier measure built on it (floor 1 is
/// [`ghw_exact_with_stats`] without a cutoff).
pub fn ghw_exact_on(
    instance: &mut exact::Instance<'_>,
    floor: usize,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    instance.solve::<Rho>(None, floor)
}

/// `ghw(H)` by the elimination-order DP alone, no seed and no engine
/// search (the independent reference of the agreement tests and the
/// benchmark); `None` when a reduced block exceeds 24 vertices. Uncached:
/// every call searches.
pub fn ghw_exact_elimination_with_stats(
    h: &Hypergraph,
    cutoff: Option<usize>,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    exact::solve_by_elimination::<Rho>(h, cutoff, opts)
}

/// The heuristic upper bound on `ghw(H)` with its witness GHD, no exact
/// search: the bound that seeds [`ghw_exact`] (`hgtool widths
/// --heuristic-only`). `None` only for empty or isolated-vertex inputs.
pub fn ghw_upper_bound(h: &Hypergraph) -> Option<(usize, Decomposition)> {
    ghw_upper_bound_with_stats(h, EngineOptions::default()).0
}

/// As [`ghw_upper_bound`] with explicit options (bounds are computed per
/// reduced block; the witness is stitched and lifted).
pub fn ghw_upper_bound_with_stats(
    h: &Hypergraph,
    opts: EngineOptions,
) -> (Option<(usize, Decomposition)>, SearchStats) {
    exact::upper_bound::<Rho>(h, opts)
}

/// The subset-bag cross-check oracle, hard-gated at
/// [`solver::MAX_SUBSET_SEARCH_VERTICES`] vertices; see
/// [`exact::subset_oracle`].
pub fn ghw_exact_subset_oracle(
    h: &Hypergraph,
    cutoff: Option<usize>,
) -> Option<(usize, Decomposition)> {
    exact::subset_oracle::<Rho>(h, cutoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate;
    use hypergraph::generators;

    fn assert_ghw(h: &Hypergraph, expected: usize) {
        let (w, d) = ghw_exact(h, None).expect("in range");
        assert_eq!(w, expected);
        assert_eq!(validate::validate_ghd(h, &d), Ok(()), "{}", d.render(h));
        assert!(d.width() <= arith::Rational::from(expected));
    }

    #[test]
    fn classic_widths() {
        assert_ghw(&generators::path(6), 1);
        assert_ghw(&generators::cycle(4), 2);
        assert_ghw(&generators::cycle(7), 2);
        assert_ghw(&generators::clique(4), 2);
        assert_ghw(&generators::clique(5), 3);
        assert_ghw(&generators::triangle_chain(3), 2);
    }

    #[test]
    fn example_4_3_exact_ghw_2() {
        // Certifies the subedge-based check: ghw(H0) = 2 < hw(H0) = 3.
        assert_ghw(&generators::example_4_3(), 2);
    }

    #[test]
    fn breaks_the_subset_vertex_wall() {
        use crate::check::{check_ghd_bip, GhdAnswer};
        use crate::subedges::{bip_subedges, SubedgeLimits};
        // 26 vertices: beyond the old 18-vertex subset gate AND the
        // 24-vertex elimination-DP window — formerly a hard `None`.
        assert_ghw(&generators::cycle(26), 2);
        // 20 vertices: past the subset gate, inside the DP's window.
        assert_ghw(&generators::grid(2, 10), 2);
        // 27 vertices, past the window, seeded at 3: the width-2
        // edge-union search finds the witness. The paper's own check
        // confirms it independently: certified no at k = 1, yes at k = 2.
        let h = generators::grid(3, 9);
        let (_, stats) = ghw_exact_with_stats(&h, None, EngineOptions::sequential());
        assert!(stats.states > 0, "the engine searched");
        assert_ghw(&h, 2);
        let limits = SubedgeLimits::default();
        assert!(!bip_subedges(&h, 1, limits).truncated);
        assert!(matches!(check_ghd_bip(&h, 1, limits), GhdAnswer::No));
        assert!(check_ghd_bip(&h, 2, limits).is_yes());
    }

    #[test]
    fn exact_matches_bip_check_on_corpus() {
        use crate::check::{check_ghd_bip, GhdAnswer};
        use crate::subedges::SubedgeLimits;
        for seed in 0..4u64 {
            let h = generators::random_bip(9, 6, 2, 3, seed);
            let Some((w, _)) = ghw_exact(&h, None) else {
                continue;
            };
            // BIP check at width w succeeds, at w-1 fails.
            assert!(
                check_ghd_bip(&h, w, SubedgeLimits::default()).is_yes(),
                "seed {seed}: BIP check should accept ghw {w}"
            );
            if w > 1 {
                assert!(
                    matches!(
                        check_ghd_bip(&h, w - 1, SubedgeLimits::default()),
                        GhdAnswer::No
                    ),
                    "seed {seed}: BIP check should reject width {}",
                    w - 1
                );
            }
        }
    }

    #[test]
    fn cutoff_detects_lower_bounds() {
        let h = generators::clique(6); // ghw = 3
        assert!(ghw_exact(&h, Some(3)).is_none());
        assert_eq!(ghw_exact(&h, Some(4)).unwrap().0, 3);
    }

    #[test]
    fn subset_oracle_agrees_with_the_edge_union_engine() {
        let corpus = vec![
            generators::cycle(5),
            generators::clique(5),
            generators::grid(3, 3),
            generators::example_4_3(),
            generators::triangle_chain(2),
        ];
        for h in corpus {
            let primary = ghw_exact(&h, None).map(|(w, _)| w);
            let oracle = ghw_exact_subset_oracle(&h, None).map(|(w, _)| w);
            assert_eq!(primary, oracle, "engine vs subset oracle on {h:?}");
        }
    }

    #[test]
    fn upper_bound_is_witnessed_and_sound() {
        for h in [
            generators::cycle(6),
            generators::clique(5),
            generators::grid(3, 3),
            generators::example_4_3(),
        ] {
            let (ub, d) = ghw_upper_bound(&h).expect("valid instance");
            let (exact, _) = ghw_exact(&h, None).expect("small");
            assert!(ub >= exact, "ub {ub} < exact {exact} on {h:?}");
            assert_eq!(validate::validate_ghd(&h, &d), Ok(()), "{}", d.render(&h));
            assert!(d.width() <= arith::Rational::from(ub));
        }
    }

    #[test]
    fn engine_agrees_with_elimination_dp_baseline() {
        // The retired elimination-order DP survives as an independent
        // implementation precisely to certify the shared-engine search.
        let mut corpus = vec![
            generators::path(6),
            generators::cycle(5),
            generators::clique(5),
            generators::triangle_chain(3),
            generators::grid(3, 3),
            generators::example_4_3(),
            generators::example_5_1(4),
        ];
        for seed in 0..3u64 {
            corpus.push(generators::random_bip(9, 6, 2, 3, seed));
        }
        for h in corpus {
            let engine = ghw_exact(&h, None).map(|(w, _)| w);
            let dp = candgen::elimination::optimal_elimination(
                &h,
                |bag| cover::integral_cover(&h, bag).expect("coverable").weight(),
                None,
            )
            .map(|(w, _)| w);
            assert_eq!(engine, dp, "engine vs elimination DP on {h:?}");
        }
    }
}
