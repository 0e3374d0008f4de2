//! `Check(HD, k)` — hypertree decompositions of bounded width in polynomial
//! time, after Gottlob, Leone, Scarcello \[27\]. This is the engine that the
//! paper's Section 4 (GHD via subedge augmentation) and Section 5/6 (FHD
//! algorithms) build upon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detk;

pub use detk::{
    check_hd, check_hd_with_stats, hypertree_width, hypertree_width_at_least,
    hypertree_width_with_stats,
};
