//! Canonical incidence structure and fingerprints of hypergraphs.
//!
//! The canonical form of a hypergraph is its incidence structure: each
//! edge as its sorted vertex list, in edge-index order. Names never enter —
//! only the structure addressable by indices does. It is deliberately
//! **not** a graph canonical form, and deliberately **not**
//! edge-order-independent either: a cached answer carries vertex *and
//! edge* indices (a witness names its cover edges by id), so it is only
//! valid for an instance with the identical numbering of both. Together
//! with the vertex count, the canonical form is the instance part of the
//! result cache's key (see [`crate::global_cache`]).
//!
//! The fingerprint is a 128-bit hash of the same structure, a short
//! printable identity: `hgtool prep` prints it per block, and the
//! benchmark's manifest records it. No cache lookup uses it.

use hypergraph::Hypergraph;
use std::fmt;

/// A 128-bit hash of a hypergraph's incidence structure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The canonical incidence structure: every edge as its sorted vertex
/// list, in edge-index order. Together with the vertex count this
/// identifies the instance exactly (up to names).
pub type CanonicalForm = Vec<Vec<usize>>;

/// Computes the canonical form of `h`.
pub fn canonical_form(h: &Hypergraph) -> CanonicalForm {
    h.edges().iter().map(|e| e.to_vec()).collect()
}

/// 64-bit FNV-1a over a word stream, with a caller-chosen basis so two
/// passes yield independent halves of the 128-bit fingerprint.
fn fnv1a(words: impl Iterator<Item = u64>, basis: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut state = basis;
    for w in words {
        for byte in w.to_le_bytes() {
            state ^= byte as u64;
            state = state.wrapping_mul(PRIME);
        }
    }
    state
}

/// Fingerprints `h` (vertex- and edge-index-sensitive, name-blind).
pub fn fingerprint(h: &Hypergraph) -> Fingerprint {
    // Word stream: |V|, then per edge its length followed by its vertices
    // (the explicit lengths make the stream prefix-free across edges).
    let canon = canonical_form(h);
    let mut stream: Vec<u64> =
        Vec::with_capacity(1 + canon.iter().map(|e| e.len() + 1).sum::<usize>());
    stream.push(h.num_vertices() as u64);
    for e in &canon {
        stream.push(e.len() as u64);
        stream.extend(e.iter().map(|&v| v as u64));
    }
    let lo = fnv1a(stream.iter().copied(), 0xcbf2_9ce4_8422_2325);
    let hi = fnv1a(stream.iter().copied(), 0x6c62_272e_07bb_0142);
    Fingerprint(((hi as u128) << 64) | lo as u128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_order_matters_because_prices_are_index_addressed() {
        // A cached cover is a weight list by *edge id*, so instances with
        // permuted edge ids (cycle vs clique on 3 vertices!) must not
        // share a fingerprint.
        let a = Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2]]);
        let b = Hypergraph::from_edges(3, vec![vec![1, 2], vec![0, 1]]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn vertex_order_inside_an_edge_does_not_matter() {
        let a = Hypergraph::from_edges(3, vec![vec![0, 1, 2]]);
        let b = Hypergraph::from_edges(3, vec![vec![2, 0, 1]]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn structure_matters() {
        let a = Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2]]);
        let b = Hypergraph::from_edges(3, vec![vec![0, 1], vec![0, 2]]);
        let c = Hypergraph::from_edges(4, vec![vec![0, 1], vec![1, 2]]);
        assert_ne!(fingerprint(&a), fingerprint(&b), "different incidence");
        assert_ne!(fingerprint(&a), fingerprint(&c), "different vertex count");
    }

    #[test]
    fn names_do_not_matter() {
        let a = Hypergraph::from_parts(
            vec!["x".into(), "y".into()],
            vec!["r".into()],
            vec![vec![0, 1]],
        );
        let b = Hypergraph::from_edges(2, vec![vec![0, 1]]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
