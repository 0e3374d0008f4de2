//! A tiny deterministic multiply-rotate hasher for the search hot path.
//!
//! The width searches hash [`crate::VertexSet`]s millions of times —
//! candidate dedup sets, the engine's state memo, the per-search price
//! memos — and the standard library's DoS-resistant SipHash is the
//! wrong trade there: the keys are machine words produced by the search
//! itself, not attacker-controlled input. This is the multiply-rotate
//! scheme of rustc's `FxHasher` (public domain algorithm): one rotate,
//! one xor and one multiply per 64-bit word, fixed seed, so hashes are
//! deterministic across runs and thread counts (membership queries only
//! — no iteration-order dependence escapes into search results).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier with a good bit-dispersion pattern (the golden-ratio
/// constant used by rustc's hasher).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: a single 64-bit accumulator.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Cold path: the hot keys (block slices, integers) arrive through
        // the word-sized writes below.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (fixed seed, zero state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexSet;

    #[test]
    fn deterministic_and_representation_independent() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |s: &VertexSet| build.hash_one(s);
        let mut a = VertexSet::from_iter([1, 300]);
        a.remove(300);
        let b = VertexSet::from_iter([1]);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&b), hash(&VertexSet::from_iter([2])));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut set: FxHashSet<VertexSet> = FxHashSet::default();
        assert!(set.insert(VertexSet::from_iter([0, 5])));
        assert!(!set.insert(VertexSet::from_iter([0, 5])));
        let mut map: FxHashMap<u64, usize> = FxHashMap::default();
        map.insert(7, 1);
        assert_eq!(map.get(&7), Some(&1));
    }

    #[test]
    fn byte_stream_matches_word_stream_layout() {
        // `write` folds whole 8-byte words like `write_u64` so mixed-width
        // keys still disperse; just check it runs and differs by content.
        let mut h1 = FxHasher::default();
        h1.write(b"abcdefghij");
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefghik");
        assert_ne!(h1.finish(), h2.finish());
    }
}
