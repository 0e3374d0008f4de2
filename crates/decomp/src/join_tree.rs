//! The join tree of an α-acyclic hypergraph: the width-1 answer of `hw`,
//! `ghw` and `fhw` alike.

use crate::types::{Decomposition, Node};
use hypergraph::{properties, Hypergraph};

/// A join tree of `h` by GYO ear removal
/// ([`properties::join_tree_parents`]), or `None` when `h` is cyclic or
/// has no edges.
///
/// Every bag is a whole edge of `h` with `λ` that edge, in `h`'s own
/// indices, and each ear hangs under the edge holding its shared vertices,
/// so every vertex's bags are connected. Since `B_u = V(λ_u)` the special
/// condition holds trivially: the tree is an HD, hence a GHD and an FHD,
/// of width 1. `hw(H) = 1`, `ghw(H) = 1` and `fhw(H) = 1` each hold exactly
/// when `H` is α-acyclic, so one tree certifies all three. Bags cover only
/// vertices that lie in some edge; the width solvers reject isolated
/// vertices before asking.
///
/// Runs in one `join_tree` span (fields `edges`, `acyclic`).
pub fn join_tree(h: &Hypergraph) -> Option<Decomposition> {
    let span = obs::span!("join_tree", edges = h.num_edges());
    let parents = properties::join_tree_parents(h);
    if let Some(span) = &span {
        span.record("acyclic", parents.is_some());
    }
    let parents = parents?;
    let root = parents.iter().position(Option::is_none)?;
    let mut children = vec![Vec::new(); parents.len()];
    for (e, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(e);
        }
    }
    let node = |e: usize| Node::integral(h.edge(e).clone(), [e]);
    let mut d = Decomposition::new(node(root));
    let mut stack = vec![(root, d.root())];
    while let Some((e, u)) = stack.pop() {
        for &c in &children[e] {
            stack.push((c, d.add_child(u, node(c))));
        }
    }
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_fhd, validate_ghd, validate_hd};
    use arith::Rational;
    use hypergraph::generators;

    #[test]
    fn acyclic_families_have_a_width_one_join_tree() {
        for h in [
            generators::path(6),
            generators::star(5),
            generators::cq_chain(5, 3, 1),
            generators::cq_star(3, 2),
            generators::cq_snowflake(3, 3),
            generators::random_acyclic(9, 4, 7),
        ] {
            let d = join_tree(&h).expect("acyclic");
            assert_eq!(d.len(), h.num_edges(), "one bag per edge");
            assert_eq!(d.width(), Rational::one());
            for u in 0..d.len() {
                let [(e, _)] = d.node(u).weights[..] else {
                    panic!("one cover edge per bag");
                };
                assert_eq!(&d.node(u).bag, h.edge(e), "the bag is its cover edge");
            }
            assert_eq!(validate_hd(&h, &d), Ok(()), "{}", d.render(&h));
            assert_eq!(validate_ghd(&h, &d), Ok(()));
            assert_eq!(validate_fhd(&h, &d), Ok(()));
        }
    }

    #[test]
    fn cyclic_and_empty_hypergraphs_have_none() {
        assert!(join_tree(&generators::cycle(3)).is_none());
        assert!(join_tree(&generators::example_4_3()).is_none());
        assert!(join_tree(&Hypergraph::from_edges(0, vec![])).is_none());
    }

    #[test]
    fn disconnected_parts_join_into_one_tree() {
        let h = Hypergraph::from_edges(5, vec![vec![0, 1], vec![2, 3], vec![3, 4], vec![1]]);
        let d = join_tree(&h).expect("acyclic");
        assert_eq!(d.len(), 4);
        assert_eq!(validate_hd(&h, &d), Ok(()), "{}", d.render(&h));
    }
}
