//! Exact `fhw` over exact rationals: the `ρ*` instantiation of
//! [`solver::exact`], e.g. `fhw(C3) = 3/2` comes out as the literal
//! fraction.
//!
//! Every preprocessed block of at most 24 vertices is answered by the
//! elimination-order DP under the cutoff seeded by the *integral*
//! heuristic bound `ub` (`fhw <= ghw`, and integral weights are a valid
//! fractional cover); a DP that finds nothing below `ub` *is* the exact
//! answer `ub`. One warm LP context prices the DP's bags in its
//! deterministic order. Larger blocks answer `None`. The shared-engine
//! subset search survives as [`fhw_exact_subset_oracle`], the independent
//! cross-check.

use arith::Rational;
use decomp::Decomposition;
use hypergraph::Hypergraph;
use solver::exact::{self, RhoStar};
use solver::{EngineOptions, SearchStats};

/// Computes `fhw(H)` exactly together with an optimal FHD. Returns `None`
/// when a block exceeds the DP's 24 vertices, `H` has isolated vertices,
/// or `cutoff` is given and `fhw(H) >= cutoff`.
pub fn fhw_exact(h: &Hypergraph, cutoff: Option<Rational>) -> Option<(Rational, Decomposition)> {
    fhw_exact_with_stats(h, cutoff, EngineOptions::default()).0
}

/// As [`fhw_exact`], also reporting the heuristic seed (`ub_width`) and
/// the LP counters of the DP's pricing. The engine counters stay zero.
pub fn fhw_exact_with_stats(
    h: &Hypergraph,
    cutoff: Option<Rational>,
    opts: EngineOptions,
) -> (Option<(Rational, Decomposition)>, SearchStats) {
    exact::solve::<RhoStar>(h, cutoff, Rational::one(), opts)
}

/// As [`fhw_exact_with_stats`] on a shared [`exact::Instance`]: reuses the
/// prep and the seeds that an earlier measure built on it.
pub fn fhw_exact_on(
    instance: &mut exact::Instance<'_>,
    cutoff: Option<Rational>,
) -> (Option<(Rational, Decomposition)>, SearchStats) {
    instance.solve::<RhoStar>(cutoff, Rational::one())
}

/// `fhw(H)` by the elimination-order DP alone, without the heuristic
/// seed (the independent reference of the agreement tests and the
/// benchmark); `None` when a reduced block exceeds 24 vertices. Uncached:
/// every call searches.
pub fn fhw_exact_elimination_with_stats(
    h: &Hypergraph,
    cutoff: Option<Rational>,
    opts: EngineOptions,
) -> (Option<(Rational, Decomposition)>, SearchStats) {
    exact::solve_by_elimination::<RhoStar>(h, cutoff, opts)
}

/// The heuristic upper bound on `fhw(H)` (bags priced by `ρ*`) with its
/// witness FHD, no exact search (`hgtool widths --heuristic-only`).
/// `None` only for empty or isolated-vertex inputs.
pub fn fhw_upper_bound(h: &Hypergraph) -> Option<(Rational, Decomposition)> {
    fhw_upper_bound_with_stats(h, EngineOptions::default()).0
}

/// As [`fhw_upper_bound`] with explicit options, also reporting the LP
/// counters (bounds are computed per reduced block; the witness is
/// stitched and lifted).
pub fn fhw_upper_bound_with_stats(
    h: &Hypergraph,
    opts: EngineOptions,
) -> (Option<(Rational, Decomposition)>, SearchStats) {
    exact::upper_bound::<RhoStar>(h, opts)
}

/// The subset-bag cross-check oracle, hard-gated at
/// [`solver::MAX_SUBSET_SEARCH_VERTICES`] vertices; see
/// [`exact::subset_oracle`].
pub fn fhw_exact_subset_oracle(
    h: &Hypergraph,
    cutoff: Option<Rational>,
) -> Option<(Rational, Decomposition)> {
    exact::subset_oracle::<RhoStar>(h, cutoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;
    use decomp::validate;
    use hypergraph::generators;

    fn assert_fhw(h: &Hypergraph, expected: Rational) {
        let (w, d) = fhw_exact(h, None).expect("in range");
        assert_eq!(w, expected);
        assert_eq!(validate::validate_fhd(h, &d), Ok(()), "{}", d.render(h));
        assert!(d.width() <= expected);
    }

    #[test]
    fn triangle_is_three_halves() {
        assert_fhw(&generators::cycle(3), rat(3, 2));
    }

    #[test]
    fn longer_cycles_are_2() {
        for n in 4..8 {
            assert_fhw(&generators::cycle(n), rat(2, 1));
        }
    }

    #[test]
    fn cliques_are_half_n() {
        // Lemma 2.3 (and its odd extension): fhw(K_m) = m/2.
        for m in 3..7i64 {
            assert_fhw(&generators::clique(m as usize), rat(m, 2));
        }
    }

    #[test]
    fn acyclic_is_1() {
        assert_fhw(&generators::path(6), rat(1, 1));
        assert_fhw(&generators::cq_chain(4, 3, 1), rat(1, 1));
    }

    #[test]
    fn example_4_3_fhw_is_2() {
        // fhw <= ghw = 2, and the 4-clique-free structure still forces 2
        // (H0 is cyclic with only small edges).
        let h = generators::example_4_3();
        let (w, _) = fhw_exact(&h, None).unwrap();
        assert!(w > Rational::one());
        assert!(w <= rat(2, 1));
    }

    #[test]
    fn nineteen_plus_vertices_reach_the_dp_window_seeded() {
        // 20 vertices: the elimination DP answers, its cutoff seeded by
        // the heuristic bound (which is tight here, so the DP only has to
        // refute an improvement — formerly an unseeded 2^20 sweep).
        let h = generators::cycle(20);
        let (w, d) = fhw_exact(&h, None).expect("DP window");
        assert_eq!(w, rat(2, 1));
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
    }

    #[test]
    fn hierarchy_fhw_le_ghw_le_hw() {
        // Lemma-level sanity across engines on a mixed corpus.
        for seed in 0..4u64 {
            let h = generators::random_bip(8, 6, 2, 3, seed);
            let (fhw, _) = fhw_exact(&h, None).unwrap();
            let (ghw, _) = ghd::ghw_exact(&h, None).unwrap();
            let hw = hd::hypertree_width(&h, 6).map(|(w, _)| w).unwrap();
            assert!(fhw <= Rational::from(ghw), "seed {seed}");
            assert!(ghw <= hw, "seed {seed}");
            // Adler-Gottlob-Grohe: hw <= 3*ghw + 1.
            assert!(hw <= 3 * ghw + 1, "seed {seed}");
        }
    }

    #[test]
    fn lemma_2_7_monotone_under_induced_subhypergraphs() {
        let h = generators::example_4_3();
        let (whole, _) = fhw_exact(&h, None).unwrap();
        // Drop two vertices; fhw must not increase.
        let mut w = h.all_vertices();
        w.remove(0);
        w.remove(5);
        let (sub, _, _) = h.induced(&w);
        if !sub.has_isolated_vertices() {
            let (part, _) = fhw_exact(&sub, None).unwrap();
            assert!(part <= whole);
        }
    }

    #[test]
    fn cutoff_certifies_lower_bound() {
        let h = generators::cycle(3);
        assert!(fhw_exact(&h, Some(rat(3, 2))).is_none());
        assert_eq!(fhw_exact(&h, Some(rat(2, 1))).unwrap().0, rat(3, 2));
    }

    #[test]
    fn subset_oracle_agrees_with_the_hybrid_engine() {
        let corpus = vec![
            generators::cycle(3),
            generators::cycle(6),
            generators::clique(5),
            generators::triangle_chain(2),
            generators::example_5_1(4),
        ];
        for h in corpus {
            let primary = fhw_exact(&h, None).map(|(w, _)| w);
            let oracle = fhw_exact_subset_oracle(&h, None).map(|(w, _)| w);
            assert_eq!(primary, oracle, "engine vs subset oracle on {h:?}");
        }
    }

    #[test]
    fn upper_bound_is_witnessed_and_sound() {
        for h in [
            generators::cycle(3),
            generators::clique(5),
            generators::example_5_1(4),
            generators::example_4_3(),
        ] {
            let (ub, d) = fhw_upper_bound(&h).expect("valid instance");
            let (exact, _) = fhw_exact(&h, None).expect("small");
            assert!(ub >= exact, "ub {ub} < exact {exact} on {h:?}");
            assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
            assert!(d.width() <= ub);
        }
    }

    #[test]
    fn engine_agrees_with_elimination_dp_baseline() {
        // Certify the shared-engine search against the independent
        // elimination-order DP in `candgen::elimination`.
        let corpus = vec![
            generators::cycle(3),
            generators::cycle(6),
            generators::clique(5),
            generators::triangle_chain(2),
            generators::example_4_3(),
            generators::example_5_1(4),
        ];
        for h in corpus {
            let engine = fhw_exact(&h, None).map(|(w, _)| w);
            let dp = candgen::elimination::optimal_elimination(
                &h,
                |bag| cover::fractional_cover(&h, bag).expect("coverable").weight,
                None,
            )
            .map(|(w, _)| w);
            assert_eq!(engine, dp, "engine vs elimination DP on {h:?}");
        }
    }
}
