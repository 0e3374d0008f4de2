//! Theorem 6.1: for BIP hypergraph classes, an FHD of width `<= k + ε` is
//! computable in polynomial time whenever `fhw(H) <= k`.
//!
//! Machinery:
//! * Lemma 6.4 — every FHD of width `<= k` transforms into one of width
//!   `<= k + ε` with `c`-bounded fractional part, `c = 2ik² + 4k³i/ε`,
//!   by rounding the "big heavy" edges up to weight 1
//!   ([`bound_fractional_part`]).
//! * Lemma 6.5 — the subedge function `f_{(c,i,k)}(H)` = all subedges of
//!   size `<= ki + c` repairs weak-special-condition violations
//!   ([`f_cik_subedges`]).
//! * The pipeline [`approx_fhd_bip`] = augment + Algorithm 3.

#![allow(clippy::needless_range_loop)]

use crate::frac_decomp::{frac_decomp, FracDecompParams};
use arith::Rational;
use decomp::Decomposition;
use ghd::subedges::SubedgeSet;
use hypergraph::{properties, Hypergraph, VertexSet};
use std::collections::HashSet;

/// Lemma 6.4's fractional-part bound `c = 2ik² + 4k³i/ε`.
pub fn lemma_6_4_c(k: &Rational, i: usize, eps: &Rational) -> Rational {
    let i = Rational::from(i);
    let two = Rational::from(2usize);
    let four = Rational::from(4usize);
    &two * &i * k * k + &(&four * &(k * k * k) * &i) / eps
}

/// Lemma 6.4's big-heavy threshold `d = 2k²i/ε`.
pub fn lemma_6_4_threshold(k: &Rational, i: usize, eps: &Rational) -> Rational {
    let i = Rational::from(i);
    (Rational::from(2usize) * k * k * &i) / eps.clone()
}

/// The Lemma 6.4 transformation: per node, edges of weight `>= 1/2`
/// ("heavy") whose intersection with `B(γ_u)` has at least `2k²i/ε`
/// vertices ("big") are rounded up to weight 1. The width grows by at most
/// `ε` and the fractional part becomes `c`-bounded with
/// `c = 2ik² + 4k³i/ε` (for `i`-BIP inputs of width `<= k`).
pub fn bound_fractional_part(
    h: &Hypergraph,
    d: &Decomposition,
    k: &Rational,
    eps: &Rational,
) -> Decomposition {
    let i = properties::intersection_width(h);
    let threshold = lemma_6_4_threshold(k, i, eps);
    let mut out = d.clone();
    for u in 0..out.len() {
        let covered = out.node(u).covered_set(h);
        let node = out.node_mut(u);
        for (e, w) in node.weights.iter_mut() {
            if *w >= Rational::from_frac(1, 2) && *w < Rational::one() {
                let big = Rational::from(h.edge(*e).intersection(&covered).len()) >= threshold;
                if big {
                    *w = Rational::one();
                }
            }
        }
    }
    out
}

/// Lemma 6.5's subedge function `f_{(c,i,k)}(H)`: all subedges of size
/// `<= size_bound` (paper: `ki + c`) of every edge, capped at `cap`.
pub fn f_cik_subedges(h: &Hypergraph, size_bound: usize, cap: usize) -> SubedgeSet {
    let existing: HashSet<VertexSet> = h.edges().iter().cloned().collect();
    let mut emitted: HashSet<VertexSet> = HashSet::new();
    let mut subedges = Vec::new();
    let mut originators = Vec::new();
    let mut truncated = false;
    'outer: for (ei, e) in h.edges().iter().enumerate() {
        let members = e.to_vec();
        // Enumerate subsets of size 1..=size_bound via bounded DFS.
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new())];
        while let Some((start, cur)) = stack.pop() {
            if !cur.is_empty() {
                let set = VertexSet::from_iter(cur.iter().copied());
                if !existing.contains(&set)
                    && set.len() < members.len()
                    && emitted.insert(set.clone())
                {
                    subedges.push(set);
                    originators.push(ei);
                    if subedges.len() >= cap {
                        truncated = true;
                        break 'outer;
                    }
                }
            }
            if cur.len() < size_bound {
                for j in start..members.len() {
                    let mut next = cur.clone();
                    next.push(members[j]);
                    stack.push((j + 1, next));
                }
            }
        }
    }
    SubedgeSet {
        subedges,
        originators,
        truncated,
    }
}

/// The Theorem 6.1 pipeline: if `fhw(H) <= k`, produces an FHD of `H` of
/// width `<= k + ε` in time polynomial for fixed `(k, ε, i)`.
///
/// `c_override` replaces the (enormous) Lemma 6.4 constant by a practical
/// value — sound always; complete relative to the chosen `c`.
pub fn approx_fhd_bip(
    h: &Hypergraph,
    k: &Rational,
    eps: &Rational,
    c_override: Option<usize>,
) -> Option<Decomposition> {
    let i = properties::intersection_width(h);
    let c = match c_override {
        Some(c) => c,
        None => lemma_6_4_c(k, i, eps)
            .ceil()
            .to_i64()
            .unwrap_or(i64::MAX)
            .max(0) as usize,
    };
    let size_bound = (k * &Rational::from(i))
        .ceil()
        .to_i64()
        .unwrap_or(i64::MAX)
        .max(0) as usize
        + c;
    // Subedge augmentation (Lemma 6.5), then Algorithm 3 on H'.
    let f = f_cik_subedges(h, size_bound, 100_000);
    let aug = ghd::check::augment(h, f);
    let params = FracDecompParams {
        k: k.clone(),
        eps: eps.clone(),
        c,
    };
    let d = frac_decomp(&aug.hypergraph, &params)?;
    // Project weights on subedges back to originators.
    Some(aug.project(&d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;
    use decomp::validate;
    use hypergraph::generators;

    #[test]
    fn lemma_6_4_constants() {
        // k = 2, i = 1, ε = 1: c = 2*1*4 + 4*8*1/1 = 40; threshold 8.
        assert_eq!(lemma_6_4_c(&rat(2, 1), 1, &rat(1, 1)), rat(40, 1));
        assert_eq!(lemma_6_4_threshold(&rat(2, 1), 1, &rat(1, 1)), rat(8, 1));
    }

    #[test]
    fn bounding_the_fractional_part_respects_lemma_6_4() {
        // Start from the exact FHD of Example 5.1 (big fractional support)
        // and round; width grows by at most ε, fractional part shrinks.
        let h = generators::example_5_1(6);
        let (w, d) = crate::exact::fhw_exact(&h, None).unwrap();
        let k = w.clone();
        let eps = rat(1, 2);
        let out = bound_fractional_part(&h, &d, &k, &eps);
        assert_eq!(validate::validate_fhd(&h, &out), Ok(()));
        assert!(out.width() <= &k + &eps, "width {} > k+ε", out.width());
        let i = hypergraph::properties::intersection_width(&h);
        let c = lemma_6_4_c(&k, i, &eps).ceil().to_i64().unwrap() as usize;
        assert!(validate::has_c_bounded_fractional_part(&h, &out, c));
    }

    #[test]
    fn f_cik_enumerates_small_subedges() {
        let h = generators::cycle(4);
        let f = f_cik_subedges(&h, 1, 1000);
        // Each 2-edge yields its two singletons; 8 total, deduped to 4.
        assert!(!f.truncated);
        assert_eq!(f.subedges.len(), 4);
        for s in &f.subedges {
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn approx_pipeline_on_triangle() {
        // fhw(C3) = 3/2; the pipeline with k = 3/2 must find width <= 3/2+ε.
        let h = generators::cycle(3);
        let d = approx_fhd_bip(&h, &rat(3, 2), &rat(1, 2), Some(3)).expect("fhw = 3/2 <= k");
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
        assert!(d.width() <= rat(2, 1));
    }

    #[test]
    fn approx_pipeline_matches_exact_within_eps() {
        for (hh, name) in [
            (generators::cycle(4), "C4"),
            (generators::example_5_1(3), "Ex5.1(3)"),
        ] {
            let (fhw, _) = crate::exact::fhw_exact(&hh, None).unwrap();
            let eps = rat(1, 2);
            let d = approx_fhd_bip(&hh, &fhw, &eps, Some(2))
                .unwrap_or_else(|| panic!("{name}: pipeline must accept k = fhw"));
            assert_eq!(validate::validate_fhd(&hh, &d), Ok(()), "{name}");
            assert!(d.width() <= &fhw + &eps, "{name}: {} > fhw+ε", d.width());
        }
    }
}
