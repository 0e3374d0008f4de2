//! `Check(GHD, k)` via subedge augmentation (Theorems 4.11 / 4.15):
//! `ghw(H) <= k` iff `hw(H') <= k` for `H' = H ∪ f(H,k)`, and any HD of
//! `H'` of width `k` converts into a GHD of `H` of width `k` by replacing
//! subedges with their originators.

use crate::subedges::{bip_subedges, bmip_subedges, SubedgeLimits, SubedgeSet};
use arith::Rational;
use decomp::{Decomposition, Node};
use hypergraph::Hypergraph;

/// A hypergraph augmented with subedges, remembering originators.
#[derive(Clone, Debug)]
pub struct Augmented {
    /// `H' = H + f(H,k)`.
    pub hypergraph: Hypergraph,
    /// Maps every edge of `H'` to its originator edge of `H` (original
    /// edges map to themselves).
    pub originator: Vec<usize>,
    /// Number of subedges added.
    pub added: usize,
    /// Whether the subedge enumeration was truncated (see
    /// [`SubedgeLimits::max_subedges`]); if so a `None` answer from
    /// [`check_ghd_bip`] is not a certified "no".
    pub truncated: bool,
}

/// Builds `H' = H ∪ f(H,k)`.
pub fn augment(h: &Hypergraph, f: SubedgeSet) -> Augmented {
    let mut hp = h.clone();
    let mut originator: Vec<usize> = (0..h.num_edges()).collect();
    let added = f.subedges.len();
    for (i, (s, o)) in f.subedges.into_iter().zip(f.originators).enumerate() {
        hp.add_edge(format!("sub{i}"), &s);
        originator.push(o);
    }
    Augmented {
        hypergraph: hp,
        originator,
        added,
        truncated: f.truncated,
    }
}

impl Augmented {
    /// Maps weights on edges of `H'` onto their originator edges of `H`,
    /// in first-occurrence order. Two subedges of one originator merge by
    /// capped sum, `min(1, w₁ + w₂)`: the originator at that weight covers
    /// both parts. On unit weights (det-k's `λ`) that is the max rule.
    pub fn to_originators(&self, weights: &[(usize, Rational)]) -> Vec<(usize, Rational)> {
        let mut merged: Vec<(usize, Rational)> = Vec::new();
        for (e, w) in weights {
            let orig = self.originator[*e];
            match merged.iter_mut().find(|(o, _)| *o == orig) {
                Some((_, w0)) => *w0 = (&*w0 + w).min(Rational::one()),
                None => merged.push((orig, w.clone())),
            }
        }
        merged
    }

    /// Converts a decomposition of `H'` into one of `H` with the same bags
    /// and tree, every node's weights mapped by
    /// [`Augmented::to_originators`]; nodes are renumbered in preorder. An
    /// HD of `H'` becomes a GHD of `H` and an FHD of `H'` an FHD of `H`, of
    /// the same width or less (the special condition is given up).
    pub fn project(&self, d: &Decomposition) -> Decomposition {
        fn convert(
            aug: &Augmented,
            d: &Decomposition,
            u: usize,
            out: &mut Decomposition,
            parent: usize,
        ) {
            for &c in d.children(u) {
                let node = Node {
                    bag: d.node(c).bag.clone(),
                    weights: aug.to_originators(&d.node(c).weights),
                };
                let id = out.add_child(parent, node);
                convert(aug, d, c, out, id);
            }
        }
        let root = d.node(d.root());
        let mut out = Decomposition::new(Node {
            bag: root.bag.clone(),
            weights: self.to_originators(&root.weights),
        });
        convert(self, d, d.root(), &mut out, 0);
        out
    }
}

/// The outcome of a GHD check.
#[derive(Clone, Debug)]
pub enum GhdAnswer {
    /// A GHD of `H` of width `<= k` (paired with the subedge statistics).
    Yes {
        /// The witness GHD (over the *original* hypergraph).
        decomposition: Box<Decomposition>,
        /// Number of subedges generated for the reduction.
        subedges_added: usize,
    },
    /// No GHD of width `<= k` exists (certified: enumeration was complete).
    No,
    /// The subedge enumeration was truncated, so "no HD found" is not a
    /// certificate; retry with larger [`SubedgeLimits`].
    Unknown,
}

impl GhdAnswer {
    /// The witness decomposition, if the answer is yes.
    pub fn decomposition(&self) -> Option<&Decomposition> {
        match self {
            GhdAnswer::Yes { decomposition, .. } => Some(decomposition),
            _ => None,
        }
    }

    /// True iff the answer is a certified yes.
    pub fn is_yes(&self) -> bool {
        matches!(self, GhdAnswer::Yes { .. })
    }
}

/// `Check(GHD, k)` for BIP hypergraphs (Theorem 4.15).
pub fn check_ghd_bip(h: &Hypergraph, k: usize, limits: SubedgeLimits) -> GhdAnswer {
    run_check(k, augment(h, bip_subedges(h, k, limits)))
}

/// `Check(GHD, k)` for BMIP hypergraphs with multi-intersection parameter
/// `c` (Theorem 4.11); `c = 2` coincides with [`check_ghd_bip`].
pub fn check_ghd_bmip(h: &Hypergraph, k: usize, c: usize, limits: SubedgeLimits) -> GhdAnswer {
    let f = if c <= 2 {
        bip_subedges(h, k, limits)
    } else {
        bmip_subedges(h, k, c, limits)
    };
    run_check(k, augment(h, f))
}

fn run_check(k: usize, aug: Augmented) -> GhdAnswer {
    match hd::check_hd(&aug.hypergraph, k) {
        Some(d) => GhdAnswer::Yes {
            decomposition: Box::new(aug.project(&d)),
            subedges_added: aug.added,
        },
        None if aug.truncated => GhdAnswer::Unknown,
        None => GhdAnswer::No,
    }
}

/// `ghw(H)` for BIP hypergraphs by iterating `k`.
pub fn generalized_hypertree_width_bip(
    h: &Hypergraph,
    max_k: usize,
    limits: SubedgeLimits,
) -> Option<(usize, Decomposition)> {
    for k in 1..=max_k {
        if let GhdAnswer::Yes { decomposition, .. } = check_ghd_bip(h, k, limits) {
            return Some((k, *decomposition));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate;
    use hypergraph::generators;

    fn limits() -> SubedgeLimits {
        SubedgeLimits::default()
    }

    #[test]
    fn example_4_3_ghw_is_2_while_hw_is_3() {
        // The headline separation of Example 4.3.
        let h = generators::example_4_3();
        assert!(hd::check_hd(&h, 2).is_none());
        let ans = check_ghd_bip(&h, 2, limits());
        let d = ans.decomposition().expect("ghw(H0) = 2");
        assert_eq!(
            validate::validate_ghd(&h, &d.clone()),
            Ok(()),
            "{}",
            d.render(&h)
        );
        assert!(d.width() <= arith::Rational::from(2usize));
        // And ghw > 1 because H0 is cyclic.
        assert!(matches!(check_ghd_bip(&h, 1, limits()), GhdAnswer::No));
    }

    #[test]
    fn acyclic_ghw_1() {
        for h in [generators::path(5), generators::cq_chain(4, 3, 1)] {
            let ans = check_ghd_bip(&h, 1, limits());
            assert!(ans.is_yes());
        }
    }

    #[test]
    fn cliques_ghw() {
        // ghw(K_n) = ceil(n/2).
        let h = generators::clique(5);
        assert!(matches!(check_ghd_bip(&h, 2, limits()), GhdAnswer::No));
        assert!(check_ghd_bip(&h, 3, limits()).is_yes());
    }

    #[test]
    fn width_search_on_cycles() {
        for n in [4usize, 6] {
            let h = generators::cycle(n);
            let (w, d) = generalized_hypertree_width_bip(&h, 3, limits()).unwrap();
            assert_eq!(w, 2);
            assert_eq!(validate::validate_ghd(&h, &d), Ok(()));
        }
    }

    #[test]
    fn ghw_never_exceeds_hw_on_corpus() {
        for seed in 0..4u64 {
            let h = generators::random_bip(9, 6, 2, 3, seed);
            let hw = hd::hypertree_width(&h, 4).map(|(w, _)| w);
            let ghw = generalized_hypertree_width_bip(&h, 4, limits()).map(|(w, _)| w);
            if let (Some(hw), Some(ghw)) = (hw, ghw) {
                assert!(ghw <= hw, "seed {seed}: ghw {ghw} > hw {hw}");
            }
        }
    }

    #[test]
    fn bmip_agrees_with_bip_on_example() {
        let h = generators::example_4_3();
        let a = check_ghd_bmip(&h, 2, 3, limits());
        assert!(a.is_yes());
    }

    #[test]
    fn projection_merges_duplicate_originators() {
        // Build an augmented hypergraph by hand and check λ maps back.
        let h = generators::cycle(4);
        let f = bip_subedges(&h, 2, limits());
        let aug = augment(&h, f);
        if let Some(d) = hd::check_hd(&aug.hypergraph, 2) {
            let g = aug.project(&d);
            assert_eq!(validate::validate_ghd(&h, &g), Ok(()));
            for node in g.nodes() {
                for (e, _) in &node.weights {
                    assert!(*e < h.num_edges());
                }
            }
        } else {
            panic!("C4 has hw(H') = 2");
        }
    }

    /// Two subedges of one originator merge by capped sum: to at most 1
    /// when their weights sum above it, to the plain sum below it. Other
    /// originators keep their weights, in first-occurrence order.
    #[test]
    fn projection_caps_the_sum_of_an_originators_subedges() {
        use arith::rat;
        // Originators: e0 = {0, 1, 2}, e1 = {2, 3}; subedges {0, 1} and
        // {1, 2} of e0, {3} of e1.
        let h = Hypergraph::from_edges(4, vec![vec![0, 1, 2], vec![2, 3]]);
        let f = SubedgeSet {
            subedges: vec![
                hypergraph::VertexSet::from_iter([0, 1]),
                hypergraph::VertexSet::from_iter([1, 2]),
                hypergraph::VertexSet::from_iter([3]),
            ],
            originators: vec![0, 0, 1],
            truncated: false,
        };
        let aug = augment(&h, f);
        let (a, b, c) = (2, 3, 4);
        let above = aug.to_originators(&[(a, rat(2, 3)), (c, rat(1, 2)), (b, rat(2, 3))]);
        assert_eq!(above, vec![(0, rat(1, 1)), (1, rat(1, 2))]);
        let below = aug.to_originators(&[(a, rat(1, 4)), (b, rat(1, 2)), (1, rat(1, 3))]);
        assert_eq!(below, vec![(0, rat(3, 4)), (1, rat(1, 3))]);
        // A subedge and its own originator merge the same way.
        let with_orig = aug.to_originators(&[(0, rat(1, 2)), (b, rat(1, 3))]);
        assert_eq!(with_orig, vec![(0, rat(5, 6))]);
        // The tree walk maps every node and keeps bags and shape.
        let mut d = Decomposition::new(Node {
            bag: hypergraph::VertexSet::from_iter([0, 1, 2]),
            weights: vec![(a, rat(2, 3)), (b, rat(2, 3))],
        });
        d.add_child(
            0,
            Node {
                bag: hypergraph::VertexSet::from_iter([2, 3]),
                weights: vec![(c, rat(1, 1)), (1, rat(1, 2))],
            },
        );
        let p = aug.project(&d);
        assert_eq!(p.len(), 2);
        assert_eq!(p.children(0), &[1]);
        assert_eq!(p.node(0).bag, d.node(0).bag);
        assert_eq!(p.node(0).weights, vec![(0, rat(1, 1))]);
        assert_eq!(p.node(1).bag, d.node(1).bag);
        assert_eq!(p.node(1).weights, vec![(1, rat(1, 1))]);
    }
}
