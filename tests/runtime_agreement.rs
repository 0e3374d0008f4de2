//! Agreement suite for the search runtime's cross-call result cache: a
//! cached replay must be indistinguishable from a cold search. On random
//! small hypergraphs, every width's answer must be identical with the
//! result cache on and off, the replayed engine counters must be
//! byte-identical to a cold run's (`SearchStats::engine_only`), and the
//! cached witness must still re-validate on the instance it was stored
//! for. The decision checks are one-shot and never cached: with reuse on,
//! a repeated check searches again and answers as a cold one.

use hypertree::arith::Rational;
use hypertree::decomp::{validate, Decomposition};
use hypertree::hypergraph::{generators, Hypergraph};
use hypertree::solver::EngineOptions;
use hypertree::{fhd, ghd, hd};
use proptest::prelude::*;

/// Random small hypergraphs, the same families as the other agreement
/// suites.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3usize..8, 0u64..400).prop_map(|(n, seed)| match seed % 6 {
        0 => generators::random_bip(n + 3, n, 2, 3, seed),
        1 => generators::random_bounded_degree(n + 3, n, 3, 3, seed),
        2 => generators::random_acyclic(n, 3, seed),
        3 => generators::triangle_chain(n.min(4)),
        4 => generators::cq_chain(n, 3, 1),
        _ => generators::cycle(n),
    })
}

/// Result reuse off: a fully cold, deterministic search — the reference
/// run.
fn cold() -> EngineOptions {
    EngineOptions::sequential()
}

/// Same engine configuration with the cross-call result cache on. Price
/// caches are per search, so the stored engine counters are the
/// deterministic cold ones.
fn warm() -> EngineOptions {
    EngineOptions {
        reuse_results: true,
        ..cold()
    }
}

/// Shared per-strategy scaffold: a cold reference run, a warm run that
/// populates (or re-hits) the result cache, then the warm replay under
/// test. Returns the cold answer/stats and the replayed answer/stats
/// after asserting the replay was a cache hit with byte-identical engine
/// counters.
fn cold_then_cached<R: PartialEq + std::fmt::Debug>(
    mut solve: impl FnMut(EngineOptions) -> (R, hypertree::solver::SearchStats),
) -> Result<(R, R), TestCaseError> {
    let (cold_r, cold_s) = solve(cold());
    let (first_r, _) = solve(warm());
    let (warm_r, warm_s) = solve(warm());
    prop_assert_eq!(
        warm_s.result_cache_hits,
        1,
        "repeated warm query must be a result-cache hit"
    );
    prop_assert_eq!(&first_r, &warm_r, "populate and replay answers agree");
    prop_assert_eq!(
        warm_s.engine_only(),
        cold_s.engine_only(),
        "replayed engine counters must be byte-identical to a cold search"
    );
    Ok((cold_r, warm_r))
}

/// The decision checks' scaffold: a cold reference run, then two calls
/// with reuse on. Both must search (`result_cache_hits == 0`) with the
/// cold run's engine counters; returns the cold answer and the repeat's.
fn cold_then_repeated<R: PartialEq + std::fmt::Debug>(
    mut solve: impl FnMut(EngineOptions) -> (R, hypertree::solver::SearchStats),
) -> (R, R) {
    let (cold_r, cold_s) = solve(cold());
    let (first_r, first_s) = solve(warm());
    let (again_r, again_s) = solve(warm());
    for s in [&first_s, &again_s] {
        assert_eq!(s.result_cache_hits, 0, "a decision check is never cached");
        assert_eq!(
            s.engine_only(),
            cold_s.engine_only(),
            "a repeated check searches exactly as a cold one"
        );
    }
    assert_eq!(first_r, again_r, "the repeat answers as the first call");
    (cold_r, again_r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hw_cached_equals_cold(h in arb_hypergraph()) {
        let (cold_r, warm_r) =
            cold_then_cached(|o| hd::hypertree_width_with_stats(&h, 6, o))?;
        prop_assert_eq!(
            cold_r.as_ref().map(|(w, _)| *w),
            warm_r.as_ref().map(|(w, _)| *w),
            "hw drifted under the result cache on {:?}", h
        );
        if let Some((w, d)) = warm_r {
            prop_assert_eq!(validate::validate_hd(&h, &d), Ok(()), "cached hw witness");
            prop_assert!(d.width() <= Rational::from(w));
        }
    }

    #[test]
    fn ghw_cached_equals_cold(h in arb_hypergraph()) {
        let (cold_r, warm_r) =
            cold_then_cached(|o| ghd::ghw_exact_with_stats(&h, None, o))?;
        prop_assert_eq!(
            cold_r.as_ref().map(|(w, _)| *w),
            warm_r.as_ref().map(|(w, _)| *w),
            "ghw drifted under the result cache on {:?}", h
        );
        if let Some((w, d)) = warm_r {
            prop_assert_eq!(validate::validate_ghd(&h, &d), Ok(()), "cached ghw witness");
            prop_assert!(d.width() <= Rational::from(w));
        }
    }

    #[test]
    fn fhw_cached_equals_cold(h in arb_hypergraph()) {
        let (cold_r, warm_r) =
            cold_then_cached(|o| fhd::fhw_exact_with_stats(&h, None, o))?;
        prop_assert_eq!(
            cold_r.as_ref().map(|(w, _)| w.clone()),
            warm_r.as_ref().map(|(w, _)| w.clone()),
            "fhw drifted under the result cache on {:?}", h
        );
        if let Some((w, d)) = warm_r {
            prop_assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "cached fhw witness");
            prop_assert!(d.width() <= w);
        }
    }

    /// Algorithm 3 with reuse on: a repeated call searches again and
    /// returns the cold answer, witness included.
    #[test]
    fn frac_decomp_cached_equals_cold(h in arb_hypergraph()) {
        let params = fhd::FracDecompParams {
            k: Rational::from(2usize),
            eps: Rational::from_frac(1, 2),
            c: 2,
        };
        let (cold_r, again_r) =
            cold_then_repeated(|o| fhd::frac_decomp_with_stats(&h, &params, o));
        prop_assert_eq!(
            cold_r.as_ref().map(|d| d.render(&h)),
            again_r.as_ref().map(|d| d.render(&h)),
            "frac-decomp answer drifted with reuse on on {:?}", h
        );
        if let Some(d) = again_r {
            prop_assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "frac witness");
            prop_assert!(d.width() <= Rational::from_frac(5, 2));
        }
    }
}

/// The strict-HD check, kept as a fixed small corpus (the BDP check is the
/// most expensive): with reuse on, a repeated check searches again and
/// returns the cold answer, and `Yes` witnesses re-validate.
#[test]
fn strict_hd_cached_equals_cold() {
    use hypertree::fhd::FhdAnswer;
    for h in [
        generators::cycle(3),
        generators::cycle(4),
        generators::path(4),
        generators::triangle_chain(2),
    ] {
        for k in [Rational::from_frac(3, 2), Rational::from(2usize)] {
            let render = |a: &FhdAnswer| match a {
                FhdAnswer::Yes(d) => format!("yes\n{}", d.render(&h)),
                other => format!("{other:?}"),
            };
            let (cold_r, again_r) = cold_then_repeated(|o| {
                let (a, s) = fhd::check_fhd_bdp_with_stats(&h, &k, fhd::HdkParams::default(), o);
                (render(&a), s)
            });
            assert_eq!(
                cold_r, again_r,
                "strict-HD answer drifted with reuse on at k={k} on {h:?}"
            );
            let (again, _) =
                fhd::check_fhd_bdp_with_stats(&h, &k, fhd::HdkParams::default(), warm());
            if let FhdAnswer::Yes(d) = &again {
                assert_eq!(
                    validate::validate_fhd(&h, d),
                    Ok(()),
                    "strict-HD witness at k={k} on {h:?}"
                );
                assert!(d.width() <= k);
            }
        }
    }
}

/// Two threads submit the same process-fresh instance concurrently with
/// result reuse on. Nothing is shared in flight, so either both search or
/// one is served the other's stored answer; either way both see the same
/// width, the same witness and the same engine counters, and a later call
/// is answered from the cache.
#[test]
fn concurrent_identical_queries_agree_and_a_repeat_hits() {
    // An instance no other suite in this binary searches, so its result
    // slot is guaranteed empty when the race starts.
    let h = generators::random_bip(14, 10, 2, 3, 987_654);
    let barrier = std::sync::Barrier::new(2);
    let run = || {
        barrier.wait();
        fhd::fhw_exact_with_stats(&h, None, warm())
    };
    let ((ra, sa), (rb, sb)) = std::thread::scope(|s| {
        let t = s.spawn(run);
        let b = run();
        (t.join().expect("racing search completes"), b)
    });
    let render =
        |r: &Option<(Rational, Decomposition)>| r.as_ref().map(|(w, d)| (w.clone(), d.render(&h)));
    assert_eq!(render(&ra), render(&rb), "both sides see the same answer");
    assert_eq!(
        sa.engine_only(),
        sb.engine_only(),
        "both sides report the same engine counters"
    );
    let (again, stats) = fhd::fhw_exact_with_stats(&h, None, warm());
    assert_eq!(stats.result_cache_hits, 1, "a later call hits");
    assert_eq!(render(&again), render(&ra));
    let (_, d) = ra.expect("small instance decomposes");
    assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
}

/// A batch of instances: a second identical pass in the same process is
/// answered from the result cache on every instance, with identical
/// widths.
#[test]
fn solve_batch_warm_pass_hits_every_instance() {
    let instances = [
        generators::cycle(9),
        generators::path(7),
        generators::cq_chain(6, 2, 1),
    ];
    let pass = || -> Vec<_> {
        instances
            .iter()
            .map(|h| {
                let (r, s) = ghd::ghw_exact_with_stats(h, None, warm());
                (r.map(|(w, _)| w), s)
            })
            .collect()
    };
    let cold_pass = pass();
    let warm_pass = pass();
    for (i, ((cr, _), (wr, ws))) in cold_pass.iter().zip(&warm_pass).enumerate() {
        assert_eq!(cr, wr, "batch width drifted on instance {i}");
        assert_eq!(
            ws.result_cache_hits, 1,
            "warm batch pass missed the result cache on instance {i}"
        );
    }
}
