//! Approximate heap-size accounting for cached answers.
//!
//! The cross-call result cache in `prep` holds whole-query answers under
//! one byte budget, evicting least-recently-used answers when the total
//! estimate exceeds it. [`MemSize`] is the estimate: a cheap,
//! deterministic approximation of a value's resident bytes (shallow
//! struct size plus owned heap blocks), *not* an allocator-exact
//! measurement — eviction only needs totals that scale with reality.
//!
//! The trait lives in `cover` (the lowest crate that sees both
//! `hypergraph` and `arith`) so the strategy crates' result types can all
//! implement it without orphan-rule contortions. An answer is measured
//! once, when it is stored.

use arith::Rational;
use hypergraph::VertexSet;
use std::mem::size_of;

/// Approximate resident bytes of a value: shallow size plus owned heap.
pub trait MemSize {
    /// The estimate. Deterministic for a given value.
    fn approx_bytes(&self) -> usize;
}

macro_rules! shallow_mem_size {
    ($($t:ty),* $(,)?) => {$(
        impl MemSize for $t {
            fn approx_bytes(&self) -> usize {
                size_of::<$t>()
            }
        }
    )*};
}

shallow_mem_size!(u32, usize);

impl MemSize for String {
    fn approx_bytes(&self) -> usize {
        size_of::<String>() + self.capacity()
    }
}

impl<T: MemSize> MemSize for Option<T> {
    fn approx_bytes(&self) -> usize {
        match self {
            Some(v) => size_of::<Option<T>>() - size_of::<T>() + v.approx_bytes(),
            None => size_of::<Option<T>>(),
        }
    }
}

impl<T: MemSize> MemSize for Vec<T> {
    fn approx_bytes(&self) -> usize {
        let slack = self.capacity().saturating_sub(self.len()) * size_of::<T>();
        size_of::<Vec<T>>() + slack + self.iter().map(MemSize::approx_bytes).sum::<usize>()
    }
}

impl<A: MemSize, B: MemSize> MemSize for (A, B) {
    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes() + self.1.approx_bytes()
    }
}

impl MemSize for VertexSet {
    fn approx_bytes(&self) -> usize {
        // Two blocks live inline; larger sets spill to a heap Vec<u64>
        // sized by the highest set bit.
        let blocks = self.iter().last().map_or(0, |max| max / 64 + 1);
        size_of::<VertexSet>() + if blocks > 2 { blocks * 8 } else { 0 }
    }
}

impl MemSize for Rational {
    fn approx_bytes(&self) -> usize {
        if self.as_small().is_some() {
            size_of::<Rational>()
        } else {
            // Big tier: boxed (BigInt, BigInt). Limb counts are almost
            // always tiny on the pricing paths; charge the limb vectors
            // by actual magnitude.
            let limbs =
                |b: arith::BigInt| (b.to_f64().abs().max(1.0).log2() / 64.0).ceil() as usize;
            size_of::<Rational>()
                + 2 * size_of::<Vec<u64>>()
                + 8 * (limbs(self.numer()) + limbs(self.denom())).max(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;

    #[test]
    fn scales_with_contents() {
        let small: Vec<usize> = vec![1, 2];
        let big: Vec<usize> = (0..100).collect();
        assert!(big.approx_bytes() > small.approx_bytes());

        let inline = VertexSet::from_iter([0, 5, 120]);
        let spilled = VertexSet::from_iter([0, 5, 700]);
        assert!(spilled.approx_bytes() > inline.approx_bytes());

        assert!(rat(3, 2).approx_bytes() >= size_of::<Rational>());
    }

    #[test]
    fn is_deterministic() {
        let v: Vec<(usize, Rational)> = vec![(3, rat(1, 2)), (7, rat(5, 3))];
        assert_eq!(v.approx_bytes(), v.approx_bytes());
    }
}
