//! Agreement suite for the streaming search engine: on random small
//! hypergraphs, the engine strategies must agree with the two independent
//! pre-engine implementations kept exactly for this purpose — the retired
//! elimination-order DP (`candgen::elimination`) for `ghw`/`fhw`, and the
//! legacy private strict-HD recursion (`fhd::check_fhd_bdp_legacy`) for
//! `Check(FHD, k)`.

use hypertree::arith::{rat, Rational};
use hypertree::decomp::validate;
use hypertree::hypergraph::{generators, Hypergraph};
use hypertree::solver::EngineOptions;
use hypertree::{candgen, cover};
use hypertree::{fhd, ghd, hd};
use proptest::prelude::*;

/// Strategy: a random hypergraph on at most 10 vertices, mixing the
/// workspace's generator families.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3usize..8, 0u64..400).prop_map(|(n, seed)| match seed % 4 {
        0 => generators::random_bip(n + 3, n, 2, 3, seed),
        1 => generators::random_bounded_degree(n + 3, n, 3, 3, seed),
        2 => generators::random_acyclic(n, 3, seed),
        _ => generators::cycle(n),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ghw_engine_agrees_with_elimination_dp(h in arb_hypergraph()) {
        let engine = ghd::ghw_exact(&h, None).map(|(w, _)| w);
        let dp = candgen::elimination::optimal_elimination(
            &h,
            |bag| cover::integral_cover(&h, bag).expect("coverable").weight(),
            None,
        )
        .map(|(w, _)| w);
        prop_assert_eq!(engine, dp, "streaming engine vs elimination DP on {:?}", h);
    }

    #[test]
    fn fhw_engine_agrees_with_elimination_dp(h in arb_hypergraph()) {
        let engine = fhd::fhw_exact(&h, None).map(|(w, _)| w);
        let dp = candgen::elimination::optimal_elimination(
            &h,
            |bag| cover::fractional_cover(&h, bag).expect("coverable").weight,
            None,
        )
        .map(|(w, _)| w);
        prop_assert_eq!(engine, dp, "streaming engine vs elimination DP on {:?}", h);
    }

    #[test]
    fn hw_witnesses_validate_and_sandwich_ghw(h in arb_hypergraph()) {
        // det-k-decomp has no independent DP; certify it through its
        // validated witness and the Adler–Gottlob–Grohe sandwich around
        // the DP-certified ghw.
        let Some((ghw, _)) = ghd::ghw_exact(&h, None) else { return Ok(()); };
        let Some((hw, d)) = hd::hypertree_width(&h, 3 * ghw + 1) else {
            return Err(TestCaseError::Reject);
        };
        prop_assert_eq!(validate::validate_hd(&h, &d), Ok(()));
        prop_assert!(ghw <= hw, "ghw {} > hw {}", ghw, hw);
        prop_assert!(hw <= 3 * ghw + 1, "hw {} vs ghw {}", hw, ghw);
    }
}

proptest! {
    // The strict-HD check prices separators of an augmented hypergraph;
    // fewer, smaller cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn strict_hd_strategy_agrees_with_legacy_oracle(
        n in 3usize..6,
        seed in 0u64..200,
        below in any::<bool>(),
    ) {
        let h = generators::random_bounded_degree(n + 2, n, 2, 3, seed);
        let Some((fhw, _)) = fhd::fhw_exact(&h, None) else { return Ok(()); };
        // At k = fhw both must say yes; strictly below, both must agree
        // (typically no — never a yes/no split).
        let k = if below { &fhw - &rat(1, 5) } else { fhw.clone() };
        if !k.is_positive() {
            return Err(TestCaseError::Reject);
        }
        let engine = fhd::check_fhd_bdp(&h, &k, fhd::HdkParams::default());
        let legacy = fhd::check_fhd_bdp_legacy(&h, &k, fhd::HdkParams::default());
        prop_assert_eq!(
            engine.is_yes(),
            legacy.is_yes(),
            "engine vs legacy at k = {} on {:?}", k, h
        );
        if !below {
            prop_assert!(engine.is_yes(), "strict check must accept fhw = {}", fhw);
        }
        for (name, ans) in [("engine", &engine), ("legacy", &legacy)] {
            if let Some(d) = ans.decomposition() {
                prop_assert_eq!(validate::validate_fhd(&h, &d.clone()), Ok(()), "{}", name);
                prop_assert!(d.width() <= k, "{} witness exceeds {}", name, k);
            }
        }
    }
}

/// Decision streams must stop early: on an acyclic instance the first
/// admitted candidate per state wins, so the engine pulls far fewer guesses
/// than the full `det-k-decomp` candidate space.
#[test]
fn decision_searches_short_circuit_on_the_first_witness() {
    let h = generators::cq_chain(5, 3, 1);
    let (d, stats) = hd::check_hd_with_stats(&h, 1, EngineOptions::default());
    assert!(d.is_some(), "chains are acyclic");
    assert!(stats.streamed > 0);
    assert!(
        stats.streamed <= stats.states * h.num_edges(),
        "streamed {} guesses over {} states — the stream is not lazy",
        stats.streamed,
        stats.states
    );
}

/// fhw's elimination DP must actually dedup its bag prices: the cost
/// closure (one `ρ*` LP per call) runs at most once per distinct bag.
#[test]
fn fhw_price_cache_dedups_identical_bags() {
    for h in [generators::cycle(6), generators::grid(3, 3)] {
        let mut priced: Vec<hypertree::hypergraph::VertexSet> = Vec::new();
        let (w, _) = candgen::elimination::optimal_elimination(
            &h,
            |bag| {
                priced.push(bag.clone());
                cover::fractional_cover(&h, bag).expect("coverable").weight
            },
            None,
        )
        .expect("in the DP window");
        assert!(w >= Rational::one());
        let distinct: std::collections::HashSet<_> = priced.iter().collect();
        assert_eq!(
            distinct.len(),
            priced.len(),
            "a bag was priced twice on {h:?}"
        );
    }
    let h = generators::cycle(6);
    let (result, stats) = fhd::fhw_exact_with_stats(&h, None, EngineOptions::sequential());
    let (w, _) = result.expect("cycles decompose");
    assert_eq!(w, Rational::from(2usize));
    assert!(stats.lp_warm_starts + stats.lp_cold_solves > 0);
}
