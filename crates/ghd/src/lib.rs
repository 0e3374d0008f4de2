//! `Check(GHD, k)` under the paper's tractable restrictions (Section 4):
//! subedge functions for the BIP (Theorem 4.15) and BMIP (Theorem 4.11),
//! union-of-intersections trees (Algorithm 1, Figure 7), the reduction to
//! `Check(HD, k)` on the augmented hypergraph, and the exact `ghw` entry
//! points (the `ρ` instantiation of `solver::exact`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod exact;
pub mod subedges;

pub use check::{
    augment, check_ghd_bip, check_ghd_bmip, generalized_hypertree_width_bip, Augmented, GhdAnswer,
};
pub use exact::{
    ghw_exact, ghw_exact_at_least, ghw_exact_on, ghw_exact_subset_oracle, ghw_exact_with_stats,
    ghw_upper_bound, ghw_upper_bound_with_stats,
};
pub use subedges::{
    bip_subedges, bmip_subedges, union_of_intersections_tree, SubedgeLimits, SubedgeSet, UoiNode,
};
