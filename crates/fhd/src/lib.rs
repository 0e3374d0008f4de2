//! Fractional hypertree decompositions: the paper's Sections 5 and 6.
//!
//! * [`exact`] — exact `fhw` baseline over exact rationals.
//! * [`classes`] / [`forest`] — types & classes (Definitions 5.7–5.10) and
//!   intersection forests (Algorithm 2).
//! * [`subedges`] — the `h_{d,k}` subedge function (Lemma 5.17).
//! * [`bdp`] — `Check(FHD, k)` for bounded-degree hypergraphs
//!   (Theorems 5.2 / 5.22).
//! * [`mod@frac_decomp`] — Algorithm 3, `(k, ε, c)-frac-decomp`
//!   (Theorem 6.16).
//! * [`approx_bip`] — the Theorem 6.1 `k + ε` approximation under the BIP
//!   (Lemmas 6.4 / 6.5).
//! * [`ptaas`] — Algorithm 4, the PTAAS for K-Bounded-FHW-Optimization
//!   (Theorem 6.20).
//! * [`loglog`] — the `O(k·log k)` GHD conversion under bounded
//!   VC-dimension / BMIP (Theorem 6.23, Lemma 6.24, Corollary 6.25).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx_bip;
pub mod bdp;
pub mod classes;
pub mod exact;
pub mod forest;
pub mod frac_decomp;
pub mod loglog;
pub mod ptaas;
pub mod subedges;

pub use approx_bip::{approx_fhd_bip, bound_fractional_part, lemma_6_4_c};
pub use bdp::{
    check_fhd_bdp, check_fhd_bdp_legacy, check_fhd_bdp_with_stats, fhw_bdp_integer_search,
    FhdAnswer,
};
pub use exact::{
    fhw_exact, fhw_exact_elimination_with_stats, fhw_exact_on, fhw_exact_subset_oracle,
    fhw_exact_with_stats, fhw_upper_bound, fhw_upper_bound_with_stats,
};
pub use forest::{intersection_forest, IntersectionForest};
pub use frac_decomp::{fhw_frac_search, frac_decomp, frac_decomp_with_stats, FracDecompParams};
pub use loglog::{approx_ghw_via_fhw, cigap_bound, ghd_from_fhd, CoverMode};
pub use ptaas::{exact_oracle, fhw_approximation, predicted_iterations, PtaasResult};
pub use subedges::{d_intersections, hdk_subedges, HdkParams};
