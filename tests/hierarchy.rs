//! Cross-engine width hierarchy tests: `fhw <= ghw <= hw <= 3·ghw + 1`
//! (Section 1 and [4]), Lemma 2.3, Lemma 2.7, and Lemma 2.8, plus the
//! floors the front door derives from that hierarchy.

use hypertree::arith::{rat, Rational};
use hypertree::decomp::{validate, Decomposition};
use hypertree::hypergraph::{generators, Hypergraph, VertexSet};
use hypertree::solver::{EngineOptions, SearchStats};
use hypertree::{exact_widths, exact_widths_with_opts, fhd, ghd, hd, ExactWidths, WidthStats};

fn corpus() -> Vec<(String, Hypergraph)> {
    let mut out: Vec<(String, Hypergraph)> = vec![
        ("cycle3".into(), generators::cycle(3)),
        ("cycle6".into(), generators::cycle(6)),
        ("clique5".into(), generators::clique(5)),
        ("clique6".into(), generators::clique(6)),
        ("grid2x4".into(), generators::grid(2, 4)),
        ("triangles2".into(), generators::triangle_chain(2)),
        ("example_4_3".into(), generators::example_4_3()),
        ("example_5_1".into(), generators::example_5_1(4)),
        ("chain".into(), generators::cq_chain(4, 3, 1)),
        ("hypercube3".into(), generators::hypercube(3)),
        ("snowflake".into(), generators::cq_snowflake(3, 2)),
    ];
    for seed in 0..4u64 {
        out.push((
            format!("bip{seed}"),
            generators::random_bip(9, 6, 2, 3, seed),
        ));
        out.push((
            format!("bdp{seed}"),
            generators::random_bounded_degree(9, 6, 3, 3, seed),
        ));
    }
    out
}

#[test]
fn width_hierarchy_and_agg_bound() {
    for (name, h) in corpus() {
        let Some(w) = exact_widths(&h, 8) else {
            panic!("{name}: exact engines must handle corpus instances");
        };
        assert!(w.fhw <= Rational::from(w.ghw), "{name}: fhw > ghw");
        assert!(w.ghw <= w.hw, "{name}: ghw > hw");
        assert!(w.hw <= 3 * w.ghw + 1, "{name}: AGG bound violated");
        assert!(w.fhw >= Rational::one(), "{name}: fhw below 1");
    }
}

#[test]
fn lemma_2_3_even_cliques_all_widths_coincide() {
    for n in 1..4usize {
        let h = generators::clique(2 * n);
        let w = exact_widths(&h, 2 * n).unwrap();
        assert_eq!(w.hw, n);
        assert_eq!(w.ghw, n);
        assert_eq!(w.fhw, Rational::from(n));
    }
}

#[test]
fn odd_cliques_separate_fractional_from_integral() {
    // fhw(K5) = 5/2 < ghw(K5) = 3.
    let w = exact_widths(&generators::clique(5), 5).unwrap();
    assert_eq!(w.fhw, rat(5, 2));
    assert_eq!(w.ghw, 3);
}

#[test]
fn lemma_2_7_induced_subhypergraph_monotonicity() {
    for (name, h) in corpus().into_iter().take(6) {
        let Some((fhw, _)) = fhd::fhw_exact(&h, None) else {
            continue;
        };
        // Remove each single vertex in turn.
        for drop in 0..h.num_vertices().min(4) {
            let mut w = h.all_vertices();
            w.remove(drop);
            let (sub, _, _) = h.induced(&w);
            if sub.has_isolated_vertices() || sub.num_vertices() == 0 {
                continue;
            }
            let (sub_fhw, _) = fhd::fhw_exact(&sub, None).unwrap();
            assert!(sub_fhw <= fhw, "{name} minus v{drop}: fhw increased");
        }
    }
}

#[test]
fn lemma_2_8_cliques_land_in_a_bag() {
    // K4 inside a larger hypergraph: some bag must contain all 4 vertices.
    let mut edges: Vec<Vec<usize>> = vec![];
    for a in 0..4 {
        for b in (a + 1)..4 {
            edges.push(vec![a, b]);
        }
    }
    edges.push(vec![3, 4]);
    edges.push(vec![4, 5]);
    let h = Hypergraph::from_edges(6, edges);
    let clique: VertexSet = (0..4).collect();
    for d in [
        hd::check_hd(&h, 3).unwrap(),
        ghd::ghw_exact(&h, None).unwrap().1,
        fhd::fhw_exact(&h, None).unwrap().1,
    ] {
        assert!(
            d.nodes().iter().any(|n| clique.is_subset(&n.bag)),
            "no bag contains the 4-clique:\n{}",
            d.render(&h)
        );
    }
}

#[test]
fn acyclic_iff_width_1() {
    for (name, h) in corpus() {
        let acyclic = hypertree::hypergraph::properties::is_alpha_acyclic(&h);
        let hw1 = hd::check_hd(&h, 1).is_some();
        assert_eq!(acyclic, hw1, "{name}: α-acyclic iff hw = 1");
    }
}

/// `h` with its vertices permuted by a Fisher–Yates shuffle driven by a
/// splitmix64 stream from `seed` (edges keep their order).
fn relabel(h: &Hypergraph, seed: u64) -> Hypergraph {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let n = h.num_vertices();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let edges = h
        .edges()
        .iter()
        .map(|e| e.iter().map(|v| perm[v]).collect())
        .collect();
    Hypergraph::from_edges(n, edges)
}

/// The front door computes fhw, then ghw with floor `⌈fhw⌉`, then hw with
/// floor `ghw`. Its widths must equal the unfloored per-measure entry
/// points', its counters those of the three per-measure calls it makes
/// (fhw and ghw share one prep and one seed per block, which must not show
/// in either measure's counters), the floored hw search must return the
/// per-measure witness byte for byte, and the floored ghw witness must
/// validate. Up to 12 vertices, ghw must also equal the subset-bag
/// oracle's, which shares neither prep, nor the seed, nor the DP with the
/// solve path.
#[test]
fn floors_agree_with_per_measure_widths() {
    let mut instances = corpus();
    for (name, base) in [
        ("example_4_3", generators::example_4_3()),
        ("clique7", generators::clique(7)),
        ("hypercube3", generators::hypercube(3)),
        ("grid3x4", generators::grid(3, 4)),
    ] {
        for seed in 0..20u64 {
            instances.push((format!("{name}/relabel{seed}"), relabel(&base, seed)));
        }
    }
    // No result reuse: every call below searches, so a floored call
    // cannot replay the unfloored answer from the cache.
    let opts = EngineOptions {
        reuse_results: false,
        ..EngineOptions::default()
    };
    for (name, h) in instances {
        let (hw, hw_d) = hd::hypertree_width_with_stats(&h, 8, opts)
            .0
            .unwrap_or_else(|| panic!("{name}: hw in range"));
        let (ghw, _) = ghd::ghw_exact_with_stats(&h, None, opts)
            .0
            .unwrap_or_else(|| panic!("{name}: ghw in range"));
        let (fhw, fhw_stats) = fhd::fhw_exact_with_stats(&h, None, opts);
        let (fhw, _) = fhw.unwrap_or_else(|| panic!("{name}: fhw in range"));
        assert!(fhw <= Rational::from(ghw), "{name}: fhw > ghw");
        assert!(ghw <= hw, "{name}: ghw > hw");
        assert!(hw <= 3 * ghw + 1, "{name}: AGG bound violated");
        if h.num_vertices() <= 12 {
            let oracle = ghd::ghw_exact_subset_oracle(&h, None).map(|(w, _)| w);
            assert_eq!(Some(ghw), oracle, "{name}: ghw vs the subset oracle");
        }

        let (front, front_stats) =
            exact_widths_with_opts(&h, 8, opts).unwrap_or_else(|| panic!("{name}: front door"));
        let expected = ExactWidths {
            hw,
            ghw,
            fhw: fhw.clone(),
        };
        assert_eq!(front, expected, "{name}: front door vs per-measure");

        let (floored_hw, floored_hw_stats) = hd::hypertree_width_at_least(&h, ghw, 8, opts);
        let (floored_hw, floored_hw_d) = floored_hw.unwrap_or_else(|| panic!("{name}: floored hw"));
        assert_eq!(floored_hw, hw, "{name}: floored hw");
        assert_eq!(
            floored_hw_d.render(&h),
            hw_d.render(&h),
            "{name}: floored hw witness"
        );

        let fhw_ceil = fhw.ceil().to_i64().expect("small width") as usize;
        let (floored_ghw, floored_ghw_stats) = ghd::ghw_exact_at_least(&h, fhw_ceil, opts);
        let (floored_ghw, floored_ghw_d) =
            floored_ghw.unwrap_or_else(|| panic!("{name}: floored ghw"));
        assert_eq!(floored_ghw, ghw, "{name}: floored ghw");
        assert_eq!(
            validate::validate_ghd(&h, &floored_ghw_d),
            Ok(()),
            "{name}: floored ghw witness\n{}",
            floored_ghw_d.render(&h)
        );
        assert!(
            floored_ghw_d.width() <= Rational::from(ghw),
            "{name}: floored ghw witness too wide"
        );

        let per_measure = WidthStats {
            hw: floored_hw_stats.engine_only(),
            ghw: floored_ghw_stats.engine_only(),
            fhw: fhw_stats.engine_only(),
        };
        assert_eq!(front_stats, per_measure, "{name}: front door counters");
    }
}

/// A replayed hw answer reports what a cold call at its own floor counts.
/// After `exact_widths_with_opts` stores hw at floor ghw, hw asked with
/// reuse on at every floor from 1 to hw matches a reuse-off call at that
/// floor: width, rendered witness and `engine_only()` counters. A floor
/// hits exactly when an earlier call ran the same first det-k check
/// (`max(floor, 2)`), so floor 1 never replays a floor-3 answer.
#[test]
fn hw_replays_at_every_floor_equal_cold_runs() {
    let rendered = |h: &Hypergraph, (r, s): (Option<(usize, Decomposition)>, SearchStats)| {
        (r.map(|(k, d)| (k, d.render(h))), s.engine_only())
    };
    for (name, base) in [
        ("clique6", generators::clique(6)),
        ("hypercube3", generators::hypercube(3)),
        ("grid3x3", generators::grid(3, 3)),
    ] {
        let h = relabel(&base, 1033);
        let (widths, _) = exact_widths_with_opts(&h, 8, EngineOptions::default())
            .unwrap_or_else(|| panic!("{name}: in range"));
        let mut first_checks = vec![widths.ghw.max(2)];
        for floor in 1..=widths.hw {
            let (warm, warm_stats) =
                hd::hypertree_width_at_least(&h, floor, 8, EngineOptions::default());
            let cold = hd::hypertree_width_at_least(&h, floor, 8, EngineOptions::sequential());
            let hit = first_checks.contains(&floor.max(2));
            assert_eq!(
                warm_stats.result_cache_hits,
                usize::from(hit),
                "{name} at floor {floor}"
            );
            assert_eq!(
                rendered(&h, (warm, warm_stats)),
                rendered(&h, cold),
                "{name} at floor {floor}: replayed vs cold"
            );
            first_checks.push(floor.max(2));
        }
    }
}

/// Example 4.3 separates ghw = 2 from hw = 3 (fhw = 2), whatever the
/// vertex numbering: every relabelling must report the paper's widths,
/// through the per-measure entry point and through the front door.
#[test]
fn example_4_3_relabellings_have_the_papers_widths() {
    let base = generators::example_4_3();
    let opts = EngineOptions {
        reuse_results: false,
        ..EngineOptions::default()
    };
    let papers = ExactWidths {
        hw: 3,
        ghw: 2,
        fhw: Rational::from(2usize),
    };
    for seed in 0..300u64 {
        let h = relabel(&base, seed);
        let (ghw, _) = ghd::ghw_exact_with_stats(&h, None, opts);
        assert_eq!(ghw.map(|(w, _)| w), Some(2), "relabel{seed}: ghw");
        let (front, _) = exact_widths_with_opts(&h, 8, opts)
            .unwrap_or_else(|| panic!("relabel{seed}: front door"));
        assert_eq!(front, papers, "relabel{seed}: front door");
    }
}

/// hw, ghw and fhw asked of one `solver::exact::Instance` answer exactly
/// as standalone solves — widths, rendered witnesses and `engine_only()`
/// counters — in the core and serve order (fhw, then ghw at floor 1, then
/// hw at floor ghw) and in the `hgtool widths` order (hw at floor 1, then
/// ghw, then fhw). Under `EngineOptions::default()` each standalone solve
/// then replays the shared instance's answer, so a key built afresh finds
/// what the shared key stored.
#[test]
fn one_instance_answers_all_three_measures_as_standalone_solves() {
    // Two triangles sharing vertex 2: two blocks.
    let triangles = Hypergraph::from_edges(
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
    type Solved<C> = (Option<(C, String)>, hypertree::solver::SearchStats);
    fn rendered<C>(
        h: &Hypergraph,
        (r, s): (
            Option<(C, hypertree::decomp::Decomposition)>,
            hypertree::solver::SearchStats,
        ),
    ) -> Solved<C> {
        (r.map(|(w, d)| (w, d.render(h))), s.engine_only())
    }
    for (name, h) in [
        ("cq_chain(5,3,1)", generators::cq_chain(5, 3, 1)),
        ("two triangles", triangles),
        // Past the DP's window: ghw's seed of 2 is exact on a cyclic block
        // and fhw answers `None`.
        ("cycle(26)", generators::cycle(26)),
    ] {
        for opts in [EngineOptions::sequential(), EngineOptions::default()] {
            let consulted = opts.reuse_results;
            let mut instance = hypertree::solver::exact::Instance::new(&h, opts);
            let fhw = rendered(&h, fhd::fhw_exact_on(&mut instance, None));
            let ghw = rendered(&h, ghd::ghw_exact_on(&mut instance, 1));
            let floor = ghw.0.as_ref().map_or(1, |(k, _)| *k);
            let hw = rendered(&h, hd::hypertree_width_on(&mut instance, floor, 8));

            let mut instance = hypertree::solver::exact::Instance::new(&h, opts);
            let hw_first = rendered(&h, hd::hypertree_width_on(&mut instance, 1, 8));
            let ghw_second = rendered(&h, ghd::ghw_exact_on(&mut instance, 1));
            let fhw_third = rendered(&h, fhd::fhw_exact_on(&mut instance, None));

            let alone_fhw = fhd::fhw_exact_with_stats(&h, None, opts);
            let alone_ghw = ghd::ghw_exact_with_stats(&h, None, opts);
            let alone_hw = hd::hypertree_width_at_least(&h, floor, 8, opts);
            let alone_hw1 = hd::hypertree_width_with_stats(&h, 8, opts);
            for stats in [&alone_fhw.1, &alone_ghw.1, &alone_hw.1, &alone_hw1.1] {
                assert_eq!(stats.result_cache_hits, consulted as usize, "{name}");
            }
            let (alone_fhw, alone_ghw) = (rendered(&h, alone_fhw), rendered(&h, alone_ghw));
            let (alone_hw, alone_hw1) = (rendered(&h, alone_hw), rendered(&h, alone_hw1));
            assert_eq!(fhw, alone_fhw, "{name}: fhw, ghw, hw: fhw");
            assert_eq!(ghw, alone_ghw, "{name}: fhw, ghw, hw: ghw");
            assert_eq!(hw, alone_hw, "{name}: fhw, ghw, hw: hw");
            assert_eq!(hw_first, alone_hw1, "{name}: hw, ghw, fhw: hw");
            assert_eq!(ghw_second, alone_ghw, "{name}: hw, ghw, fhw: ghw");
            assert_eq!(fhw_third, alone_fhw, "{name}: hw, ghw, fhw: fhw");
            assert_eq!(hw.0.map(|(k, _)| k), hw_first.0.map(|(k, _)| k));
        }
    }
}
