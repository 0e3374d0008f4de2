//! `Check(HD, k)` — hypertree decompositions of bounded width in polynomial
//! time, after Gottlob, Leone, Scarcello \[27\]. This is the engine that the
//! paper's Section 4 (GHD via subedge augmentation) and Section 5/6 (FHD
//! algorithms) build upon.
//!
//! `hw(H) = 1` exactly when `H` is α-acyclic, so `k = 1` is answered by
//! `H`'s GYO join tree ([`decomp::join_tree`]) without prep or search:
//! [`check_hd`] at `k = 1` is that test, and [`hypertree_width_on`] asks
//! it of its `solver::exact::Instance` at floor 1, then runs
//! `det-k-decomp` from `k = 2` on a cyclic `H`. The `Instance` also
//! serves `ghw` and `fhw`, so a caller asking all three widths of one
//! instance builds its result-cache key once and runs GYO at most once;
//! [`hypertree_width_at_least`] is the one-measure call on a fresh
//! `Instance`. Every `k ≥ 2` is `det-k-decomp` on the shared engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detk;

pub use detk::{
    check_hd, check_hd_with_stats, hypertree_width, hypertree_width_at_least, hypertree_width_on,
    hypertree_width_with_stats,
};
