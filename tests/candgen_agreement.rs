//! Agreement suite for the `candgen` subsystem: the exact `ghw`/`fhw`
//! solve paths must agree with the retained subset-bag oracle, the
//! elimination DP run directly and the DP's prepped front doors
//! (`*_exact_elimination_with_stats`) on small instances, and exact `ghw`
//! with the paper's `check_ghd_bip` at `ghw` and `ghw - 1`; the heuristic
//! upper bounds must be sound (`ub >= exact`) with witnesses that
//! re-validate, and the ≥19-vertex instances that motivated the subsystem
//! must now resolve exactly.

use hypertree::arith::Rational;
use hypertree::decomp::validate;
use hypertree::hypergraph::{generators, Hypergraph};
use hypertree::solver::EngineOptions;
use hypertree::{candgen, cover};
use hypertree::{fhd, ghd};
use hypertree_bench as workloads;
use proptest::prelude::*;

/// Random small hypergraphs mixing the families of the other agreement
/// suites: sparse/dense, cyclic/acyclic, cut-vertex-rich.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3usize..8, 0u64..400).prop_map(|(n, seed)| match seed % 6 {
        0 => generators::random_bip(n + 3, n, 2, 3, seed),
        1 => generators::random_bounded_degree(n + 3, n, 3, 3, seed),
        2 => generators::random_acyclic(n, 3, seed),
        3 => generators::triangle_chain(n.min(4)),
        4 => generators::grid(2, n.min(5)),
        _ => generators::cycle(n),
    })
}

/// Prep on, no result reuse (deterministic stats).
fn opts() -> EngineOptions {
    EngineOptions::sequential()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn candgen_ghw_agrees_with_subset_oracle_and_dp(h in arb_hypergraph()) {
        let (primary, stats) = ghd::ghw_exact_with_stats(&h, None, opts());
        let oracle = ghd::ghw_exact_subset_oracle(&h, None).map(|(w, _)| w);
        let (front_door, _) = ghd::exact::ghw_exact_elimination_with_stats(&h, None, opts());
        let rho = |bag: &_| cover::integral_cover(&h, bag).expect("coverable").weight();
        let dp = candgen::elimination::optimal_elimination(&h, rho, None);
        if let Some((w, order)) = &dp {
            // The witness bags come from the filled-graph elimination
            // tree, the DP priced reachability bags: they must agree.
            let d = candgen::elimination::assemble(&h, order, |_| Vec::new());
            let witness = d.nodes().iter().map(|node| rho(&node.bag)).max();
            prop_assert_eq!(witness, Some(*w), "DP order's witness vs its width on {:?}", h);
        }
        let dp = dp.map(|(w, _)| w);
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| *w),
            oracle,
            "candgen ghw vs subset oracle on {:?}",
            h
        );
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| *w),
            dp,
            "candgen ghw vs elimination DP on {:?}",
            h
        );
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| *w),
            front_door.as_ref().map(|(w, _)| *w),
            "candgen ghw vs the DP front door on {:?}",
            h
        );
        if let Some((w, d)) = primary {
            prop_assert_eq!(validate::validate_ghd(&h, &d), Ok(()), "ghw witness");
            prop_assert!(d.width() <= Rational::from(w));
            prop_assert!(stats.ub_width.is_some(), "heuristic seed recorded");
            // The paper's own check (det-k on `H ∪ f(H, k)`), sharing no
            // search code with the minimizer: yes at ghw, and a certified
            // no one below whenever its subedge set is complete.
            let limits = ghd::SubedgeLimits::default();
            prop_assert!(
                ghd::check_ghd_bip(&h, w, limits).is_yes(),
                "check at ghw {} on {:?}",
                w,
                h
            );
            if w > 1 && !ghd::bip_subedges(&h, w - 1, limits).truncated {
                prop_assert!(
                    matches!(ghd::check_ghd_bip(&h, w - 1, limits), ghd::GhdAnswer::No),
                    "check at ghw - 1 = {} on {:?}",
                    w - 1,
                    h
                );
            }
        }
        if let Some((w, d)) = front_door {
            prop_assert_eq!(validate::validate_ghd(&h, &d), Ok(()), "DP front-door ghw witness");
            prop_assert!(d.width() <= Rational::from(w));
        }
    }

    #[test]
    fn candgen_fhw_agrees_with_subset_oracle_and_dp(h in arb_hypergraph()) {
        let (primary, _) = fhd::fhw_exact_with_stats(&h, None, opts());
        let oracle = fhd::fhw_exact_subset_oracle(&h, None).map(|(w, _)| w);
        let (front_door, _) = fhd::fhw_exact_elimination_with_stats(&h, None, opts());
        let rho_star = |bag: &_| cover::fractional_cover(&h, bag).expect("coverable").weight;
        let dp = candgen::elimination::optimal_elimination(&h, rho_star, None);
        if let Some((w, order)) = &dp {
            let d = candgen::elimination::assemble(&h, order, |_| Vec::new());
            let witness = d.nodes().iter().map(|node| rho_star(&node.bag)).max();
            prop_assert_eq!(witness, Some(w.clone()), "DP order's witness vs its width on {:?}", h);
        }
        let dp = dp.map(|(w, _)| w);
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| w.clone()),
            oracle,
            "candgen fhw vs subset oracle on {:?}",
            h
        );
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| w.clone()),
            dp,
            "candgen fhw vs elimination DP on {:?}",
            h
        );
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| w.clone()),
            front_door.as_ref().map(|(w, _)| w.clone()),
            "candgen fhw vs the DP front door on {:?}",
            h
        );
        if let Some((w, d)) = primary {
            prop_assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "fhw witness");
            prop_assert!(d.width() <= w);
        }
        if let Some((w, d)) = front_door {
            prop_assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "DP front-door fhw witness");
            prop_assert!(d.width() <= w);
        }
    }

    #[test]
    fn heuristic_bounds_are_sound_and_witnessed(h in arb_hypergraph()) {
        let Some((ghw_ub, ghw_d)) = ghd::ghw_upper_bound(&h) else { return Ok(()); };
        let Some((fhw_ub, fhw_d)) = fhd::fhw_upper_bound(&h) else { return Ok(()); };
        prop_assert_eq!(validate::validate_ghd(&h, &ghw_d), Ok(()), "ghw ub witness");
        prop_assert_eq!(validate::validate_fhd(&h, &fhw_d), Ok(()), "fhw ub witness");
        prop_assert!(ghw_d.width() <= Rational::from(ghw_ub));
        prop_assert!(fhw_d.width() <= fhw_ub.clone());
        if let Some((exact, _)) = ghd::ghw_exact(&h, None) {
            prop_assert!(ghw_ub >= exact, "ghw ub {} < exact {}", ghw_ub, exact);
        }
        if let Some((exact, _)) = fhd::fhw_exact(&h, None) {
            prop_assert!(fhw_ub >= exact, "fhw ub {} < exact {}", fhw_ub, exact);
        }
    }
}

#[test]
fn heuristic_bounds_are_sound_corpus_wide() {
    for w in workloads::corpus() {
        let h = &w.hypergraph;
        let (ghw_ub, ghw_d) = ghd::ghw_upper_bound(h).expect("corpus instances are valid");
        let (fhw_ub, fhw_d) = fhd::fhw_upper_bound(h).expect("corpus instances are valid");
        assert_eq!(
            validate::validate_ghd(h, &ghw_d),
            Ok(()),
            "{}: ghw ub witness",
            w.name
        );
        assert_eq!(
            validate::validate_fhd(h, &fhw_d),
            Ok(()),
            "{}: fhw ub witness",
            w.name
        );
        let (ghw, _) = ghd::ghw_exact(h, None).expect("corpus is in range");
        let (fhw, _) = fhd::fhw_exact(h, None).expect("corpus is in range");
        assert!(ghw_ub >= ghw, "{}: ghw ub {ghw_ub} < exact {ghw}", w.name);
        assert!(fhw_ub >= fhw, "{}: fhw ub {fhw_ub} < exact {fhw}", w.name);
        assert!(fhw_ub <= Rational::from(ghw_ub), "{}: ub hierarchy", w.name);
    }
}

#[test]
fn breaks_the_eighteen_vertex_wall() {
    // cycle(20): formerly elimination-DP territory (19-24 window).
    let h = generators::cycle(20);
    let (w, d) = ghd::ghw_exact(&h, None).expect("candgen range");
    assert_eq!(w, 2);
    assert_eq!(validate::validate_ghd(&h, &d), Ok(()));
    // cycle(26): formerly a hard None (beyond subset search AND the DP).
    let h = generators::cycle(26);
    let (w, d) = ghd::ghw_exact(&h, None).expect("candgen range");
    assert_eq!(w, 2);
    assert_eq!(validate::validate_ghd(&h, &d), Ok(()));
    // The seeded DP window still answers fhw exactly at 20 vertices.
    let h = generators::cycle(20);
    let (w, d) = fhd::fhw_exact(&h, None).expect("seeded DP window");
    assert_eq!(w, Rational::from(2usize));
    assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
    // 21 vertices of glued triangles: block splitting keeps every piece in
    // engine range, so even fhw is exact — and genuinely fractional.
    let h = generators::triangle_chain(10);
    let (w, d) = fhd::fhw_exact(&h, None).expect("per-block engine range");
    assert_eq!(w, Rational::from_frac(3, 2));
    assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
}

#[test]
fn candidate_counters_are_reported_and_thread_invariant() {
    // Past the DP's window with a seed of 3, so the edge-union generator
    // runs.
    let h = generators::grid(3, 9);
    let (r1, s1) = ghd::ghw_exact_with_stats(&h, None, opts());
    let (r2, s2) = ghd::ghw_exact_with_stats(&h, None, opts());
    assert_eq!(r1.map(|(w, _)| w), r2.as_ref().map(|(w, _)| *w));
    assert_eq!(s1, s2, "candgen counters drift across runs");
    assert!(s1.cand_generated > 0, "edge-union generator ran");
    assert_eq!(s1.ub_width, Some(Rational::from(3usize)));
}
