//! The per-search price memo.
//!
//! The exact searches price the *same* bag over and over: subset bags
//! repeat across `(component, connector)` states, the strict-HD search
//! re-prices a separator for its witness, and Algorithm 3 re-guesses a
//! shadow in sibling states. Pricing (branch-and-bound set cover for `ρ`,
//! an exact-rational LP for `ρ*`) dominates those searches, so each prices
//! through its own [`PriceMemo`], created with the search and dropped with
//! it. A search runs on its caller's thread, so the memo is a plain map in
//! a [`RefCell`].

use hypergraph::fx::FxHashMap;
use std::cell::{Cell, RefCell};
use std::hash::Hash;

/// A single-threaded memo table `K -> V`. It counts one miss per computed
/// key and one hit per other lookup, which the strategy wrappers surface
/// as `SearchStats::price_hits` / `price_misses`.
pub struct PriceMemo<K, V> {
    map: RefCell<FxHashMap<K, V>>,
    hits: Cell<usize>,
    misses: Cell<usize>,
}

impl<K: Eq + Hash + Clone, V: Clone> PriceMemo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        PriceMemo {
            map: RefCell::default(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The memoized value for `key`, computing it with `price` on a miss.
    /// The closure runs outside the map's borrow, so it may price through
    /// this memo again.
    pub fn get_or_insert_with(&self, key: &K, price: impl FnOnce() -> V) -> V {
        if let Some(value) = self.map.borrow().get(key) {
            self.hits.set(self.hits.get() + 1);
            return value.clone();
        }
        self.misses.set(self.misses.get() + 1);
        let value = price();
        self.map.borrow_mut().insert(key.clone(), value.clone());
        value
    }

    /// `(hits, misses)` so far.
    pub fn counters(&self) -> (usize, usize) {
        (self.hits.get(), self.misses.get())
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for PriceMemo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PricingContext;
    use arith::rat;
    use hypergraph::{generators, Hypergraph, VertexSet};

    #[test]
    fn prices_each_bag_once() {
        let h = generators::cycle(4);
        let memo = PriceMemo::new();
        let mut ctx = PricingContext::new();
        let bags: Vec<VertexSet> = (0..h.num_vertices())
            .map(|v| {
                let mut bag = h.all_vertices();
                bag.remove(v);
                bag
            })
            .collect();
        let first: Vec<_> = bags
            .iter()
            .map(|bag| memo.get_or_insert_with(bag, || ctx.price(&h, bag)))
            .collect();
        assert_eq!(memo.counters(), (0, bags.len()), "one miss per key");
        for (bag, priced) in bags.iter().zip(&first) {
            assert_eq!(priced.as_ref().expect("coverable").0, rat(2, 1));
            let again = memo.get_or_insert_with(bag, || panic!("a hit must not price"));
            assert_eq!(&again, priced);
        }
        assert_eq!(memo.counters(), (bags.len(), bags.len()), "hits afterwards");
    }

    #[test]
    fn uncoverable_bags_cache_their_failure() {
        let h = Hypergraph::from_edges(3, vec![vec![0, 1]]);
        let memo = PriceMemo::new();
        let mut ctx = PricingContext::new();
        let bag = VertexSet::from_iter([2]);
        for _ in 0..3 {
            assert_eq!(memo.get_or_insert_with(&bag, || ctx.price(&h, &bag)), None);
        }
        assert_eq!(memo.counters(), (2, 1));
        assert_eq!(ctx.stats().cold_solves, 0, "uncoverable bags run no LP");
    }
}
