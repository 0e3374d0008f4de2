//! # hypertree-core
//!
//! The unified public API of the *General and Fractional Hypertree
//! Decompositions: Hard and Easy Cases* reproduction (Fischl, Gottlob,
//! Pichler; PODS'18).
//!
//! Re-exports every workspace crate as a module and offers a small
//! high-level layer: [`analyze_structure`] (the Section 4–6 restriction
//! criteria), [`exact_widths`] (certified `hw`/`ghw`/`fhw` for small
//! instances) and the [`prelude`].
//!
//! ```
//! use hypertree_core::prelude::*;
//!
//! // The paper's Example 4.3 hypergraph: ghw = 2 but hw = 3.
//! let h = hypergraph::generators::example_4_3();
//! let widths = hypertree_core::exact_widths(&h, 6).unwrap();
//! assert_eq!(widths.hw, 3);
//! assert_eq!(widths.ghw, 2);
//! assert!(widths.fhw <= Rational::from(2usize));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arith;
pub use candgen;
pub use cover;
pub use decomp;
pub use fhd;
pub use ghd;
pub use hd;
pub use hypergraph;
pub use lp;
pub use prep;
pub use reduction;
pub use solver;

use arith::Rational;
use hypergraph::{properties, Hypergraph};

/// Frequently used items in one import.
pub mod prelude {
    pub use arith::{rat, BigInt, Rational};
    pub use cover::{fractional_cover, integral_cover, rho, rho_star, tau, tau_star};
    pub use decomp::{validate_fhd, validate_ghd, validate_hd, Decomposition, Node};
    pub use fhd::{check_fhd_bdp, fhw_approximation, fhw_exact, frac_decomp, FracDecompParams};
    pub use ghd::{check_ghd_bip, ghw_exact, GhdAnswer, SubedgeLimits};
    pub use hd::{check_hd, hypertree_width};
    pub use hypergraph::{self, Hypergraph, VertexSet};
    pub use reduction::{Cnf, Literal};
}

/// Structural profile of a hypergraph against the paper's restriction
/// criteria (BIP, BMIP, BDP, VC-dimension, α-acyclicity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructureReport {
    /// `|V(H)|`.
    pub num_vertices: usize,
    /// `|E(H)|`.
    pub num_edges: usize,
    /// Maximum edge size.
    pub rank: usize,
    /// Degree (BDP parameter `d`).
    pub degree: usize,
    /// Intersection width (BIP parameter `i`).
    pub intersection_width: usize,
    /// `c`-multi-intersection widths for `c = 2, 3, 4`.
    pub multi_intersection_widths: [usize; 3],
    /// VC-dimension (`None` when the instance is too large to compute).
    pub vc_dimension: Option<usize>,
    /// α-acyclicity (equivalent to `hw = ghw = fhw = 1`).
    pub alpha_acyclic: bool,
}

/// Computes the [`StructureReport`]. The VC-dimension is skipped above
/// `vc_limit` vertices (it is itself an exponential computation).
pub fn analyze_structure(h: &Hypergraph, vc_limit: usize) -> StructureReport {
    StructureReport {
        num_vertices: h.num_vertices(),
        num_edges: h.num_edges(),
        rank: properties::rank(h),
        degree: properties::degree(h),
        intersection_width: properties::intersection_width(h),
        multi_intersection_widths: [
            properties::multi_intersection_width(h, 2),
            properties::multi_intersection_width(h, 3),
            properties::multi_intersection_width(h, 4),
        ],
        vc_dimension: (h.num_vertices() <= vc_limit).then(|| properties::vc_dimension(h)),
        alpha_acyclic: properties::is_alpha_acyclic(h),
    }
}

/// Certified exact widths of a (small) hypergraph. An α-acyclic
/// hypergraph has all three equal to 1, certified by its join tree
/// ([`decomp::join_tree`]) without any prep or search; the fields below
/// name the engines of a cyclic one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactWidths {
    /// Hypertree width (`det-k-decomp` on the shared search engine).
    pub hw: usize,
    /// Generalized hypertree width (seeded elimination-order DP with
    /// `rho`: every block fits the DP's 24-vertex window, as `fhw`'s must).
    pub ghw: usize,
    /// Fractional hypertree width (seeded elimination-order DP with
    /// `rho*`), exact rational.
    pub fhw: Rational,
}

/// Computes `hw`, `ghw` and `fhw` exactly; `None` when the instance exceeds
/// the exact engines' size limits or `hw > max_hw`.
///
/// The widths are computed bottom-up along the hierarchy
/// `fhw <= ghw <= hw`, each exact answer a proven lower bound (a *floor*)
/// for the next search: `fhw` first (the seeded elimination DP), then
/// `ghw` with floor `⌈fhw⌉` ([`ghd::ghw_exact_at_least`]), then `hw` with
/// floor `ghw` ([`hd::hypertree_width_at_least`], which starts
/// `det-k-decomp` at `k = ghw`). All three are asked of one
/// [`solver::exact::Instance`], so the result-cache key is built and
/// hashed once, and the join tree, the minimizer prep and each block's
/// integral seed are built once, by `fhw`. An α-acyclic instance is
/// answered by that one join tree under all three measures (`hw` at floor
/// 1 reuses it); a cyclic one pays one failed GYO, and `hw` starts at
/// `ghw ≥ 2` without asking. The widths equal the per-measure entry
/// points'.
pub fn exact_widths(h: &Hypergraph, max_hw: usize) -> Option<ExactWidths> {
    exact_widths_with_stats(h, max_hw).map(|(w, _)| w)
}

/// Per-engine counters of one [`exact_widths_with_stats`] run. On an
/// α-acyclic instance every counter is zero except `ghw`'s and `fhw`'s
/// `ub_width = 1`, the join tree's bound.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WidthStats {
    /// `det-k-decomp` counters, summed over the checks that ran (from
    /// `k = ghw` up).
    pub hw: solver::SearchStats,
    /// Exact-`ghw` counters: the heuristic seed. In
    /// [`exact_widths_with_stats`] `fhw` is exact only when the DP or a
    /// join tree answered every block, so the width-2 edge-union search
    /// never runs and its counters are zero. The seed and the prep counts
    /// are those `fhw` built: built once, reported in both measures' stats.
    pub ghw: solver::SearchStats,
    /// Exact-`fhw` counters (the heuristic seed and the DP's LP work).
    pub fhw: solver::SearchStats,
}

/// As [`exact_widths`], also reporting the counters of each of the three
/// searches, run with [`solver::EngineOptions::default`]. Each measure's
/// counters equal its per-measure entry point's, the shared seed included.
pub fn exact_widths_with_stats(h: &Hypergraph, max_hw: usize) -> Option<(ExactWidths, WidthStats)> {
    exact_widths_with_opts(h, max_hw, solver::EngineOptions::default())
}

/// As [`exact_widths_with_stats`] with explicit [`solver::EngineOptions`]
/// — the hook for callers that want no result reuse or no
/// preprocessing. Returns `None` as soon as one width is out of range or
/// `ghw > max_hw`, without running the searches above it.
pub fn exact_widths_with_opts(
    h: &Hypergraph,
    max_hw: usize,
    opts: solver::EngineOptions,
) -> Option<(ExactWidths, WidthStats)> {
    let mut instance = solver::exact::Instance::new(h, opts);
    let (fhw, fhw_stats) = fhd::fhw_exact_on(&mut instance, None);
    let (fhw, _) = fhw?;
    let fhw_ceil = fhw.ceil().to_i64().map_or(1, |c| c.max(1) as usize);
    let (ghw, ghw_stats) = ghd::ghw_exact_on(&mut instance, fhw_ceil);
    let (ghw, _) = ghw?;
    if ghw > max_hw {
        return None;
    }
    let (hw, hw_stats) = hd::hypertree_width_on(&mut instance, ghw, max_hw);
    let (hw, _) = hw?;
    Some((
        ExactWidths { hw, ghw, fhw },
        WidthStats {
            hw: hw_stats,
            ghw: ghw_stats,
            fhw: fhw_stats,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    #[test]
    fn example_4_3_headline_numbers() {
        let h = generators::example_4_3();
        let w = exact_widths(&h, 5).unwrap();
        assert_eq!(w.hw, 3);
        assert_eq!(w.ghw, 2);
        assert!(w.fhw <= Rational::from(2usize) && w.fhw > Rational::one());
        let s = analyze_structure(&h, 16);
        assert_eq!(s.intersection_width, 1);
        assert_eq!(s.multi_intersection_widths, [1, 1, 0]);
        assert!(!s.alpha_acyclic);
    }

    #[test]
    fn width_hierarchy_everywhere() {
        for h in [
            generators::cycle(5),
            generators::clique(5),
            generators::triangle_chain(2),
            generators::example_5_1(4),
        ] {
            let w = exact_widths(&h, 6).unwrap();
            assert!(w.fhw <= Rational::from(w.ghw));
            assert!(w.ghw <= w.hw);
            assert!(w.hw <= 3 * w.ghw + 1);
        }
    }

    #[test]
    fn structure_report_on_acyclic() {
        let h = generators::cq_chain(4, 3, 1);
        let s = analyze_structure(&h, 16);
        assert!(s.alpha_acyclic);
        assert_eq!(s.rank, 3);
    }
}
