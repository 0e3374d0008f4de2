//! Agreement suite for the preprocessing pipeline: on random small
//! hypergraphs, `hw`/`ghw`/`fhw` must be *identical* with and without
//! preprocessing, and every witness computed through the pipeline (i.e.
//! simplified, block-split, solved, stitched and lifted) must re-validate
//! on the original instance.

use hypertree::arith::Rational;
use hypertree::decomp::validate;
use hypertree::hypergraph::{generators, Hypergraph};
use hypertree::solver::EngineOptions;
use hypertree::{fhd, ghd, hd, prep};
use proptest::prelude::*;

/// Random hypergraphs biased toward reducible shapes: acyclic families
/// (GYO collapses them), generators with cut vertices (block splitting)
/// and the random families of the engine agreement suite.
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

/// True when the process-wide kill switch is set: the pipeline is
/// disabled whatever the options say, so prep-specific assertions are
/// vacuous and skip.
fn prep_disabled() -> bool {
    std::env::var_os("HGTOOL_NO_PREP").is_some()
}

/// Prep on, no result reuse (deterministic stats).
fn with_prep() -> EngineOptions {
    EngineOptions::sequential()
}

/// Prep off, no result reuse.
fn without_prep() -> EngineOptions {
    with_prep().without_prep()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ghw_is_identical_with_and_without_prep(h in arb_hypergraph()) {
        let (with, stats) = ghd::ghw_exact_with_stats(&h, None, with_prep());
        let (without, _) = ghd::ghw_exact_with_stats(&h, None, without_prep());
        prop_assert_eq!(
            with.as_ref().map(|(w, _)| *w),
            without.map(|(w, _)| w),
            "ghw drifted under prep on {:?}", h
        );
        prop_assert!(prep_disabled() || stats.prep_blocks >= 1, "prep ran");
        if let Some((w, d)) = with {
            prop_assert_eq!(validate::validate_ghd(&h, &d), Ok(()), "lifted ghw witness");
            prop_assert!(d.width() <= Rational::from(w));
        }
    }

    #[test]
    fn fhw_is_identical_with_and_without_prep(h in arb_hypergraph()) {
        let (with, stats) = fhd::fhw_exact_with_stats(&h, None, with_prep());
        let (without, _) = fhd::fhw_exact_with_stats(&h, None, without_prep());
        prop_assert_eq!(
            with.as_ref().map(|(w, _)| w.clone()),
            without.map(|(w, _)| w),
            "fhw drifted under prep on {:?}", h
        );
        prop_assert!(prep_disabled() || stats.prep_blocks >= 1, "prep ran");
        if let Some((w, d)) = with {
            prop_assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "lifted fhw witness");
            prop_assert!(d.width() <= w);
        }
    }

    #[test]
    fn hw_is_identical_with_and_without_prep(h in arb_hypergraph()) {
        // Bound the k-iteration by the AGG sandwich around ghw.
        let Some((ghw, _)) = ghd::ghw_exact(&h, None) else { return Ok(()); };
        let max_k = 3 * ghw + 1;
        let (with, _) = hd::hypertree_width_with_stats(&h, max_k, with_prep());
        let (without, _) = hd::hypertree_width_with_stats(&h, max_k, without_prep());
        prop_assert_eq!(
            with.as_ref().map(|(w, _)| *w),
            without.map(|(w, _)| w),
            "hw drifted under prep on {:?}", h
        );
        if let Some((w, d)) = with {
            prop_assert_eq!(validate::validate_hd(&h, &d), Ok(()), "lifted hw witness");
            prop_assert!(d.width() <= Rational::from(w));
        }
    }

    #[test]
    fn frac_decomp_acceptance_is_monotone_under_prep(h in arb_hypergraph()) {
        // Prep never *loses* an acceptance (an FHD with a c-bounded
        // fractional part projects onto the twin-collapsed instance), and
        // whatever it accepts must lift to a valid witness of `h`. The
        // converse is deliberately not asserted: collapsed twins need
        // fewer `W_s` slots, so the reduced instance can satisfy the `c`
        // bound where the original does not — prep only improves
        // Algorithm 3's (c-relative) completeness.
        let params = fhd::FracDecompParams {
            k: Rational::from(2usize),
            eps: Rational::from_frac(1, 2),
            c: 2,
        };
        let (with, _) = fhd::frac_decomp_with_stats(&h, &params, with_prep());
        let (without, _) = fhd::frac_decomp_with_stats(&h, &params, without_prep());
        prop_assert!(
            with.is_some() || without.is_none(),
            "prep lost a frac-decomp acceptance on {:?}", h
        );
        if let Some(d) = with {
            prop_assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "lifted frac witness");
            prop_assert!(d.width() <= Rational::from_frac(5, 2));
        }
    }
}

/// Clones `h` with a fresh vertex added as an exact twin of vertex 0, so
/// the decision profile's twin collapse is guaranteed to fire.
fn with_twin_of_v0(h: &Hypergraph) -> Hypergraph {
    let n = h.num_vertices();
    let edges: Vec<Vec<usize>> = h
        .edges()
        .iter()
        .map(|e| {
            let mut v: Vec<usize> = e.to_vec();
            if e.contains(0) {
                v.push(n);
            }
            v
        })
        .collect();
    Hypergraph::from_edges(n + 1, edges)
}

/// The fifth strategy: the strict-HD check's yes/no answers must agree
/// with and without preprocessing — on instances where the twin collapse
/// demonstrably fires — and lifted witnesses must re-validate. (Kept as a
/// fixed small corpus: the BDP check is the most expensive strategy.)
#[test]
fn strict_hd_check_agrees_with_and_without_prep() {
    use hypertree::fhd::FhdAnswer;
    let corpus = vec![
        generators::cycle(3),
        generators::cycle(4),
        generators::path(4),
        generators::triangle_chain(2),
    ];
    for base in corpus {
        let h = with_twin_of_v0(&base);
        for k in [Rational::from_frac(3, 2), Rational::from(2usize)] {
            let (with, stats) = hypertree::fhd::check_fhd_bdp_with_stats(
                &h,
                &k,
                hypertree::fhd::HdkParams::default(),
                with_prep(),
            );
            let (without, _) = hypertree::fhd::check_fhd_bdp_with_stats(
                &h,
                &k,
                hypertree::fhd::HdkParams::default(),
                without_prep(),
            );
            if !prep_disabled() {
                assert!(
                    stats.prep_vertices_removed >= 1,
                    "the planted twin must collapse on {h:?}"
                );
            }
            // Truncation (`Unknown`) is params-relative and may differ
            // between the instances; only definite answers must agree.
            if !matches!(with, FhdAnswer::Unknown) && !matches!(without, FhdAnswer::Unknown) {
                assert_eq!(
                    with.is_yes(),
                    without.is_yes(),
                    "strict-HD answer drifted under prep at k={k} on {h:?}"
                );
            }
            if let FhdAnswer::Yes(d) = &with {
                assert_eq!(
                    validate::validate_fhd(&h, d),
                    Ok(()),
                    "lifted strict-HD witness at k={k} on {h:?}"
                );
                assert!(d.width() <= k);
            }
        }
    }
}

/// The acceptance bar of the pipeline: on the full bench corpus (which
/// includes `examples/data`'s Example 4.3), `hw`/`ghw`/`fhw` are
/// identical with and without preprocessing and every lifted witness
/// re-validates on the original instance.
#[test]
fn bench_corpus_widths_and_witnesses_are_preserved() {
    for w in hypertree_bench::corpus() {
        let h = &w.hypergraph;
        let name = &w.name;
        let (with, _) = fhd::fhw_exact_with_stats(h, None, with_prep());
        let (without, _) = fhd::fhw_exact_with_stats(h, None, without_prep());
        assert_eq!(
            with.as_ref().map(|(w, _)| w.clone()),
            without.map(|(w, _)| w),
            "{name}: fhw drifted under prep"
        );
        if let Some((_, d)) = with {
            assert_eq!(validate::validate_fhd(h, &d), Ok(()), "{name}: fhw witness");
        }
        let (with, _) = ghd::ghw_exact_with_stats(h, None, with_prep());
        let (without, _) = ghd::ghw_exact_with_stats(h, None, without_prep());
        assert_eq!(
            with.as_ref().map(|(w, _)| *w),
            without.map(|(w, _)| w),
            "{name}: ghw drifted under prep"
        );
        if let Some((_, d)) = with {
            assert_eq!(validate::validate_ghd(h, &d), Ok(()), "{name}: ghw witness");
        }
        let (with, _) = hd::hypertree_width_with_stats(h, 6, with_prep());
        let (without, _) = hd::hypertree_width_with_stats(h, 6, without_prep());
        assert_eq!(
            with.as_ref().map(|(w, _)| *w),
            without.map(|(w, _)| w),
            "{name}: hw drifted under prep"
        );
        if let Some((_, d)) = with {
            assert_eq!(validate::validate_hd(h, &d), Ok(()), "{name}: hw witness");
        }
    }
}

/// Two triangles sharing one vertex: simplification leaves them alone but
/// block splitting solves each triangle independently — and the stitched,
/// lifted witness must cover the whole instance.
#[test]
fn block_split_witnesses_stitch_back() {
    if prep_disabled() {
        return;
    }
    let h = Hypergraph::from_edges(
        5,
        vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 0],
            vec![2, 3],
            vec![3, 4],
            vec![4, 2],
        ],
    );
    let (result, stats) = fhd::fhw_exact_with_stats(&h, None, with_prep());
    let (w, d) = result.expect("small instance");
    assert_eq!(stats.prep_blocks, 2, "two biconnected blocks");
    assert_eq!(w, Rational::from_frac(3, 2), "fhw of a triangle, per block");
    assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
}

/// An α-acyclic instance collapses under GYO — and since the candgen
/// heuristic bound finds `ub = 1` (nothing beats width 1, so the seeded
/// search is trivially over), *neither* path runs any engine states at
/// all: the whole answer comes from the witness-backed bound.
#[test]
fn gyo_collapse_shrinks_the_search() {
    if prep_disabled() {
        return;
    }
    let h = generators::cq_chain(5, 3, 1);
    let (with, with_stats) = fhd::fhw_exact_with_stats(&h, None, with_prep());
    let (without, without_stats) = fhd::fhw_exact_with_stats(&h, None, without_prep());
    assert_eq!(
        with.as_ref().map(|(w, _)| w.clone()),
        without.map(|(w, _)| w)
    );
    assert!(with_stats.prep_vertices_removed > 0);
    assert_eq!(
        without_stats.ub_width,
        Some(Rational::one()),
        "seed is tight"
    );
    assert_eq!(
        without_stats.states, 0,
        "the unprepped acyclic instance resolves from the seeded bound without a search"
    );
    assert!(
        with_stats.states <= 1,
        "prep collapses the instance to a remnant the engine solves in one state, got {}",
        with_stats.states
    );
    let (_, d) = with.expect("acyclic instance decomposes");
    assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
}

/// `HGTOOL_NO_PREP` would make this whole suite vacuous — make sure the
/// library-level switch actually reports prep as disabled then.
#[test]
fn env_override_is_respected() {
    if std::env::var_os("HGTOOL_NO_PREP").is_some() {
        assert!(!prep::enabled(true));
    } else {
        assert!(prep::enabled(true));
        assert!(!prep::enabled(false));
    }
}
