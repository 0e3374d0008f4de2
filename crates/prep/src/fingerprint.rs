//! Canonical incidence structure, instance keys and fingerprints of
//! hypergraphs.
//!
//! The canonical form of a hypergraph is its incidence structure, flat:
//! for each edge in edge-index order, its length, then its sorted vertex
//! list. Names never enter — only the structure addressable by indices
//! does. The explicit lengths make the flat list prefix-free across
//! edges, so it determines the edge lists. It is deliberately **not** a
//! graph canonical form, and deliberately **not** edge-order-independent
//! either: a cached answer carries vertex *and edge* indices (a witness
//! names its cover edges by id), so it is only valid for an instance with
//! the identical numbering of both.
//!
//! An [`InstanceKey`] is the result cache's key (see
//! [`crate::global_cache`]): the vertex count, the canonical form and a
//! 64-bit hash of both under a per-process keyed [`RandomState`], computed
//! once when the key is built. A verdict builds one key and shares it
//! among its width queries.
//!
//! The fingerprint is a 128-bit hash of the same word stream (`|V|`, then
//! the canonical form), a short printable identity: `hgtool prep` prints
//! it per block, and the benchmark's manifest records it. No cache lookup
//! uses it.

use cover::MemSize;
use hypergraph::Hypergraph;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// A 128-bit hash of a hypergraph's incidence structure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The canonical incidence structure, flat: per edge in edge-index order,
/// its length followed by its sorted vertices. Together with the vertex
/// count this identifies the instance exactly (up to names).
pub type CanonicalForm = Vec<usize>;

/// Computes the canonical form of `h`, allocated once at its exact size.
pub fn canonical_form(h: &Hypergraph) -> CanonicalForm {
    let words = h.num_edges() + h.edges().iter().map(|e| e.len()).sum::<usize>();
    let mut canon = Vec::with_capacity(words);
    for e in h.edges() {
        canon.push(e.len());
        canon.extend(e.iter());
    }
    canon
}

/// The per-process keyed hasher of instance keys: keys come from outside
/// the program, so their hashes must not be predictable.
fn keyed() -> &'static RandomState {
    static KEYED: OnceLock<RandomState> = OnceLock::new();
    KEYED.get_or_init(RandomState::new)
}

/// One instance's identity in the result cache: its vertex count and
/// canonical form, and a keyed 64-bit hash of both, computed once. Two
/// keys are equal only when their vertex counts and canonical forms are
/// (the hash is compared first, as a shortcut), so no hash collision can
/// make two instances equal.
#[derive(PartialEq, Eq, Debug)]
pub struct InstanceKey {
    hash: u64,
    num_vertices: usize,
    canon: CanonicalForm,
}

impl InstanceKey {
    /// The key of `h`: its canonical form and that form's keyed hash.
    pub fn of(h: &Hypergraph) -> Self {
        let canon = canonical_form(h);
        let hash = keyed().hash_one((h.num_vertices(), &canon));
        InstanceKey {
            hash,
            num_vertices: h.num_vertices(),
            canon,
        }
    }

    /// The key of `h` with its hash forced to `hash`, so a test can make
    /// two different instances collide.
    #[cfg(test)]
    pub(crate) fn with_hash(h: &Hypergraph, hash: u64) -> Self {
        InstanceKey {
            hash,
            ..InstanceKey::of(h)
        }
    }

    /// The keyed hash of the vertex count and the canonical form.
    pub(crate) fn hash(&self) -> u64 {
        self.hash
    }
}

impl MemSize for InstanceKey {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<u64>() + self.num_vertices.approx_bytes() + self.canon.approx_bytes()
    }
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
    // Word stream: |V|, then the canonical form (per edge its length
    // followed by its vertices).
    let canon = canonical_form(h);
    let stream = || std::iter::once(h.num_vertices()).chain(canon.iter().copied());
    let lo = fnv1a(stream().map(|w| w as u64), 0xcbf2_9ce4_8422_2325);
    let hi = fnv1a(stream().map(|w| w as u64), 0x6c62_272e_07bb_0142);
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

    /// The fingerprint reads `|V|` and the flat canonical form as the word
    /// stream it always hashed: these values were printed by the
    /// fingerprint of the nested canonical form, and the benchmark's
    /// uniqueness filter, its stream digest and `hgtool prep` depend on
    /// them staying put.
    #[test]
    fn fingerprints_are_pinned() {
        use hypergraph::generators;
        for (h, hex) in [
            (
                generators::example_4_3(),
                "94c77ca7c6ad504926f4ae8c031eff4e",
            ),
            (generators::cycle(5), "2eba366fd650570578c114f0e8bf1b62"),
            (
                generators::cq_chain(4, 3, 1),
                "c3397b5d3c53fca3dee0813cfbd0a8a4",
            ),
        ] {
            assert_eq!(fingerprint(&h).to_string(), hex, "{h}");
        }
    }

    #[test]
    fn the_canonical_form_is_flat_and_prefix_free() {
        let h = Hypergraph::from_edges(4, vec![vec![2, 0, 1], vec![3], vec![1, 3]]);
        assert_eq!(canonical_form(&h), vec![3, 0, 1, 2, 1, 3, 2, 1, 3]);
        // {0, 1}, {2} and {0}, {1, 2} list the same vertices in the same
        // order; the lengths tell them apart.
        let a = Hypergraph::from_edges(3, vec![vec![0, 1], vec![2]]);
        let b = Hypergraph::from_edges(3, vec![vec![0], vec![1, 2]]);
        assert_ne!(canonical_form(&a), canonical_form(&b));
        assert_ne!(InstanceKey::of(&a), InstanceKey::of(&b));
        assert_eq!(InstanceKey::of(&h), InstanceKey::of(&h.clone()));
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
