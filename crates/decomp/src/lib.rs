//! Decomposition formalism of the paper: HD / GHD / FHD trees
//! (Definitions 2.4–2.6), validators for every condition (including the
//! special condition, weak special condition, `c`-bounded fractional parts,
//! strictness and fractional normal form), bag-maximalization (Lemma 4.6),
//! the FNF transformation (Theorem A.3) and the join tree of an α-acyclic
//! hypergraph, the width-1 witness of all three widths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bag_maximal;
pub mod critical_path;
pub mod export;
mod join_tree;
pub mod normal_form;
mod types;
pub mod validate;

pub use bag_maximal::{is_bag_maximal, make_bag_maximal};
pub use critical_path::{critical_path, lemma_4_9_holds, lemma_4_9_sides};
pub use export::to_dot;
pub use join_tree::join_tree;
pub use normal_form::to_fnf;
pub use types::{Decomposition, Node};
pub use validate::{
    has_c_bounded_fractional_part, is_strict, treecomp, validate_fhd, validate_fhd_special,
    validate_fnf, validate_ghd, validate_hd, validate_weak_special, Violation,
};
