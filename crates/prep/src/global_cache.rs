//! The process-lifetime cross-call result cache.
//!
//! [`cached_query`] keeps each whole answer — width, lifted witness and the
//! engine counters of the run that computed it — across calls, so a
//! repeated query skips the search entirely.
//!
//! An answer is stored under one query: the instance's [`InstanceKey`]
//! (its vertex count, its flat
//! [`CanonicalForm`](crate::fingerprint::CanonicalForm) and a keyed hash
//! of both), the strategy slot and a parameter string covering everything
//! the answer depends on. A verdict builds one key and shares it, behind
//! an [`Arc`], among the queries of its width measures. Each query
//! computes its own keyed hash once, from the key's hash, the slot and the
//! parameter string, and the map holds it inline beside the query: the
//! map hashes that one word, so a lookup, a store and a table growth
//! never walk a stored query. Equality still compares the whole query —
//! slot, parameters, vertex count and canonical form — so two instances
//! share an answer only when their incidence structure is identical
//! (names aside), and no hash collision can mix them. The hashes are keyed
//! per process (the standard library's `RandomState`), since keys come
//! from outside the program.
//!
//! One mutex guards the answers and their LRU order: a map from query to
//! its answer, tick and bytes, the tick order of the answers and their
//! byte total. A hit takes the lock once, a miss twice (lookup, store);
//! the search runs unlocked in between. A search can run for seconds and
//! can unwind on cancel, and other threads' queries must not wait behind
//! it. A search that unwinds stores nothing. Nothing is claimed while a
//! search runs, so two threads that miss one query at once both search;
//! the first store wins and the later one is dropped, so an answer's bytes
//! are charged once. No production caller issues such twins: serve solves
//! one request at a time, and `hgtool` and the benchmark are
//! single-threaded.
//!
//! Witnesses are shared, not copied: a `decomp::Decomposition` is a
//! copy-on-write tree whose clone bumps a reference count. A miss stores
//! the very tree it returns, a hit hands out the stored tree, and a
//! caller's edit copies the tree first, so it never reaches the stored
//! answer. The three width answers of an α-acyclic verdict hold one join
//! tree.
//!
//! Memory: the answers share one byte budget ([`BUDGET_ENV`], default
//! 64 MiB), estimated via [`cover::MemSize`] when an answer is stored.
//! Each answer charges its whole query (the shared instance key in full)
//! and its whole witness (a tree held by several answers is charged in
//! full by each), so the total is an upper bound on what the answers
//! hold. A hit moves its answer to a fresh tick; a store evicts
//! least-recent answers while the total exceeds the budget, never the
//! answer just stored. The budget therefore holds after every store, and
//! a call costs `O(log n)` in the `n` resident answers.
//!
//! Determinism: widths, witnesses and engine counters are unaffected (a
//! hit replays the stored answer unchanged); only the runtime counter
//! `result_cache_hits` records the cache. Price memos never outlive their
//! search.
//!
//! The only caller outside this crate's tests is
//! `solver::exact::Instance::front_door`, the door of the three width
//! queries (slots `result-hw`, `result-ghw`, `result-fhw`); it also adds
//! the returned counters to the `obs` registry. The cache itself keeps
//! only its occupancy gauges there.

use crate::fingerprint::{keyed, InstanceKey};
use crate::stats::SearchStats;
use cover::MemSize;
use obs::metrics::{gauge, Gauge};
use std::any::Any;
use std::collections::{hash_map, BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Environment variable overriding the result cache's byte budget.
pub const BUDGET_ENV: &str = "HGTOOL_CACHE_BYTES";

/// Default byte budget of the process-wide result cache.
const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// One query: the instance's shared key, the strategy slot and the
/// parameter string. Equality compares all three, the canonical forms
/// included (unless both share one key).
#[derive(PartialEq, Eq)]
struct Query {
    instance: Arc<InstanceKey>,
    slot: &'static str,
    params: String,
}

/// A query as the map keys it: the query's keyed hash inline, beside the
/// shared query. [`Hash`] writes only that word, so a lookup, a store and
/// a table growth read no stored query; equality compares the hashes, then
/// the whole queries.
#[derive(Clone)]
struct Keyed {
    hash: u64,
    query: Arc<Query>,
}

impl Keyed {
    fn new(instance: &Arc<InstanceKey>, slot: &'static str, params: String) -> Self {
        Keyed {
            hash: keyed().hash_one((instance.hash(), slot, &params)),
            query: Arc::new(Query {
                instance: Arc::clone(instance),
                slot,
                params,
            }),
        }
    }
}

impl Hash for Keyed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.query == other.query
    }
}

impl Eq for Keyed {}

impl MemSize for Keyed {
    /// The instance key counts in full, whichever answers share it.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<u64>()
            + self.query.instance.approx_bytes()
            + std::mem::size_of::<&str>()
            + self.query.params.approx_bytes()
    }
}

/// A stored `(result, stats)` pair, type-erased (the slot fixes the type).
type Answer = Arc<dyn Any + Send + Sync>;

/// One resident answer, its place in the tick order and its charged bytes.
struct Stored {
    answer: Answer,
    tick: u64,
    bytes: usize,
}

/// Everything the one lock guards.
#[derive(Default)]
struct Table {
    entries: HashMap<Keyed, Stored>,
    /// Tick → query of every answer, least recent first.
    order: BTreeMap<u64, Keyed>,
    next_tick: u64,
    /// The sum of every answer's bytes.
    total_bytes: usize,
}

impl Table {
    /// `(approx_bytes, len)` of the resident answers.
    fn occupancy(&self) -> (usize, usize) {
        (self.total_bytes, self.order.len())
    }
}

/// The cross-call result cache: answers and their LRU order under one
/// lock. Obtain the process-wide one through [`global`]; tests build
/// private instances with [`ResultCache::new`].
pub struct ResultCache {
    table: Mutex<Table>,
    budget: usize,
}

/// The process-wide result cache, budgeted by [`BUDGET_ENV`].
pub fn global() -> &'static ResultCache {
    static GLOBAL: OnceLock<ResultCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let budget = std::env::var(BUDGET_ENV)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_BUDGET_BYTES);
        ResultCache::new(budget)
    })
}

impl ResultCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget: usize) -> Self {
        ResultCache {
            table: Mutex::default(),
            budget,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("result cache poisoned")
    }

    /// Routes one whole-query computation through the cache: `(instance,
    /// slot, params)` maps to the full answer — result (including the
    /// lifted witness) plus the engine counters of the run that computed
    /// it.
    ///
    /// `slot` names the strategy; `params` encodes every parameter the
    /// answer depends on (cutoff, width bound, engine options that affect
    /// the result).
    ///
    /// * A repeated identical query returns the stored answer with
    ///   `result_cache_hits = 1` and never runs a search.
    /// * A miss runs `run` unlocked and stores its answer, unless an
    ///   identical query that missed at the same time stored first; then
    ///   this answer is dropped (both searches computed the same one).
    /// * A search that unwinds stores nothing: the next identical query
    ///   searches again.
    pub fn query<R>(
        &self,
        instance: &Arc<InstanceKey>,
        slot: &'static str,
        params: String,
        run: impl FnOnce() -> (R, SearchStats),
    ) -> (R, SearchStats)
    where
        R: Clone + MemSize + Send + Sync + 'static,
    {
        let span = obs::span!("result_cache", slot = slot);
        let query = Keyed::new(instance, slot, params);
        let hit = self.lookup(&query);
        if let Some(span) = span.as_ref() {
            span.record("hit", hit.is_some());
        }
        let (answer, (bytes, entries)) = match hit {
            Some((stored, occupancy)) => {
                let (result, mut stats) = stored
                    .downcast_ref::<(R, SearchStats)>()
                    .expect("slot name reused with a different result type")
                    .clone();
                stats.result_cache_hits = 1;
                ((result, stats), occupancy)
            }
            None => {
                let (result, stats) = run();
                let bytes = query.approx_bytes() + result.approx_bytes() + stats.approx_bytes();
                // Cloning shares the witness: the cache keeps the tree it
                // returns.
                let answer: Answer = Arc::new((result.clone(), stats.clone()));
                let occupancy = self.store(query, answer, bytes);
                ((result, stats), occupancy)
            }
        };
        let gauges = gauges();
        gauges.bytes.set(bytes as i64);
        gauges.entries.set(entries as i64);
        answer
    }

    /// The stored answer of `query`, moved to a fresh tick, with the
    /// occupancy; `None` on a miss.
    fn lookup(&self, query: &Keyed) -> Option<(Answer, (usize, usize))> {
        let mut table = self.lock();
        let t = &mut *table;
        let stored = t.entries.get_mut(query)?;
        let held = t.order.remove(&stored.tick).expect("answers are ordered");
        stored.tick = t.next_tick;
        t.next_tick += 1;
        t.order.insert(stored.tick, held);
        let answer = Arc::clone(&stored.answer);
        Some((answer, t.occupancy()))
    }

    /// Stores `answer` at a fresh tick unless `query` already has one,
    /// then evicts from the front of the order while the total exceeds the
    /// budget. The new answer holds the newest tick, so it is the front
    /// only once every other answer is gone — and it stays. Returns the
    /// occupancy after the store.
    fn store(&self, query: Keyed, answer: Answer, bytes: usize) -> (usize, usize) {
        let mut table = self.lock();
        let t = &mut *table;
        if let hash_map::Entry::Vacant(slot) = t.entries.entry(query) {
            let tick = t.next_tick;
            t.next_tick += 1;
            t.order.insert(tick, slot.key().clone());
            t.total_bytes += bytes;
            slot.insert(Stored {
                answer,
                tick,
                bytes,
            });
            while t.total_bytes > self.budget && t.order.len() > 1 {
                let (_, victim) = t.order.pop_first().expect("more than one answer");
                if let Some(evicted) = t.entries.remove(&victim) {
                    t.total_bytes -= evicted.bytes;
                }
            }
        }
        t.occupancy()
    }

    /// Answers resident.
    pub fn len(&self) -> usize {
        self.lock().occupancy().1
    }

    /// True when no answer is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The running byte estimate of the resident answers.
    pub fn approx_bytes(&self) -> usize {
        self.lock().occupancy().0
    }
}

/// Routes one whole-query computation through the process-wide
/// [`ResultCache`]; see [`ResultCache::query`]. Called by
/// `solver::exact::Instance::front_door` only, with its instance's key.
pub fn cached_query<R>(
    instance: &Arc<InstanceKey>,
    slot: &'static str,
    params: String,
    run: impl FnOnce() -> (R, SearchStats),
) -> (R, SearchStats)
where
    R: Clone + MemSize + Send + Sync + 'static,
{
    global().query(instance, slot, params, run)
}

/// The result cache's occupancy gauges in the `obs` metrics registry,
/// registered on the first consulted query. Observational only: cache
/// behavior never depends on them. The cache's hit and miss counters are
/// written by the query's caller from the returned [`SearchStats`].
struct Gauges {
    bytes: Arc<Gauge>,
    entries: Arc<Gauge>,
}

fn gauges() -> &'static Gauges {
    static GAUGES: OnceLock<Gauges> = OnceLock::new();
    GAUGES.get_or_init(|| Gauges {
        bytes: gauge(
            "hgtool_result_cache_bytes",
            "Approximate byte occupancy of the cross-call result cache",
        ),
        entries: gauge(
            "hgtool_result_cache_entries",
            "Answers resident in the cross-call result cache",
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::Rational;
    use decomp::Decomposition;
    use hypergraph::{generators, Hypergraph};
    use std::collections::HashSet;

    const SLOT: &str = "test-lru-slot";

    fn key_of(h: &Hypergraph) -> Arc<InstanceKey> {
        Arc::new(InstanceKey::of(h))
    }

    /// The bytes a store of `(value, default stats)` for `(instance,
    /// params)` charges: the whole query, the shared key in full.
    fn charge(instance: &Arc<InstanceKey>, params: &str, value: u32) -> usize {
        Keyed::new(instance, SLOT, params.to_string()).approx_bytes()
            + value.approx_bytes()
            + SearchStats::default().approx_bytes()
    }

    /// Queries `(instance, params)`, answering `value` on a miss; returns
    /// the answer and whether it was a hit.
    fn ask(
        cache: &ResultCache,
        instance: &Arc<InstanceKey>,
        params: &str,
        value: u32,
    ) -> (u32, bool) {
        let (v, stats) = cache.query(instance, SLOT, params.to_string(), || {
            (value, SearchStats::default())
        });
        (v, stats.result_cache_hits == 1)
    }

    /// [`assert_accounting_with`] over the `u32` answers of [`ask`].
    fn assert_accounting(cache: &ResultCache) {
        assert_accounting_with(cache, |answer| {
            let (v, s) = answer
                .downcast_ref::<(u32, SearchStats)>()
                .expect("test answers");
            v.approx_bytes() + s.approx_bytes()
        });
    }

    /// Re-sums every answer from the stored values (not from the recorded
    /// bytes; `answer_bytes` sizes one stored answer), each charging its
    /// instance key in full however many answers share it, and checks it
    /// against the running total, and checks that the tick order holds
    /// exactly the stored queries at their ticks.
    fn assert_accounting_with(cache: &ResultCache, answer_bytes: impl Fn(&Answer) -> usize) {
        let table = cache.lock();
        let mut resum = 0;
        for (q, stored) in &table.entries {
            let query = std::mem::size_of::<u64>()
                + q.query.instance.approx_bytes()
                + std::mem::size_of::<&str>()
                + q.query.params.approx_bytes();
            resum += query + answer_bytes(&stored.answer);
            assert!(
                table.order.get(&stored.tick) == Some(q),
                "answer out of order"
            );
        }
        assert_eq!(table.total_bytes, resum, "running total");
        assert_eq!(
            table.order.len(),
            table.entries.len(),
            "order and map agree"
        );
    }

    /// Three same-sized path-shaped instances on three vertices.
    fn triple() -> [Hypergraph; 3] {
        [
            Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2]]),
            Hypergraph::from_edges(3, vec![vec![0, 2], vec![1, 2]]),
            Hypergraph::from_edges(3, vec![vec![0, 1], vec![0, 2]]),
        ]
    }

    #[test]
    fn lru_evicts_least_recently_used_variant_under_byte_pressure() {
        let [h1, h2, h3] = triple().map(|h| key_of(&h));
        let each = charge(&h1, "k", 0);
        assert_eq!(each, charge(&h2, "k", 0));
        // Room for two answers, not three.
        let cache = ResultCache::new(2 * each + each / 2);
        assert_eq!(ask(&cache, &h1, "k", 1), (1, false));
        assert_eq!(ask(&cache, &h2, "k", 2), (2, false));
        assert_eq!(cache.len(), 2);
        // Touch h1 so h2 is the least recent, then store h3: the store must
        // evict h2 and keep h1 and the just-stored h3.
        assert_eq!(ask(&cache, &h1, "k", 0), (1, true));
        assert_eq!(ask(&cache, &h3, "k", 3), (3, false));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.approx_bytes(), 2 * each);
        assert_accounting(&cache);
        assert_eq!(ask(&cache, &h1, "k", 0), (1, true), "h1 was touched");
        assert_eq!(ask(&cache, &h3, "k", 0), (3, true), "h3 was just stored");
        // h2 was evicted: asking again runs the query.
        assert_eq!(ask(&cache, &h2, "k", 22), (22, false), "h2 lost its answer");
    }

    #[test]
    fn sweep_never_evicts_the_just_opened_session() {
        let cache = ResultCache::new(0); // every answer is over budget
        let [h1, h2, _] = triple().map(|h| key_of(&h));
        assert_eq!(ask(&cache, &h1, "k", 1), (1, false));
        assert_eq!(cache.len(), 1, "the just-stored answer stays");
        assert_eq!(ask(&cache, &h2, "k", 2), (2, false));
        assert_eq!(cache.len(), 1, "storing h2 evicts h1, never h2");
        assert!(cache.approx_bytes() > 0);
        assert_accounting(&cache);
        assert_eq!(ask(&cache, &h2, "k", 0), (2, true));
        assert_eq!(ask(&cache, &h1, "k", 11), (11, false));
    }

    /// Two different instances forced to one 64-bit hash, asked under one
    /// slot and parameter string, so their queries' hashes collide too:
    /// each gets its own answer, both stay resident, and the accounting
    /// holds. A cache that compared only hashes would answer the second
    /// instance with the first one's answer.
    #[test]
    fn colliding_instance_hashes_keep_their_own_answers() {
        let [h1, h2, _] = triple();
        let (k1, k2) = (
            Arc::new(InstanceKey::with_hash(&h1, 0xC0111DE)),
            Arc::new(InstanceKey::with_hash(&h2, 0xC0111DE)),
        );
        assert_ne!(k1, k2, "different instances");
        let (q1, q2) = (
            Keyed::new(&k1, SLOT, "k".into()),
            Keyed::new(&k2, SLOT, "k".into()),
        );
        assert_eq!(q1.hash, q2.hash, "the queries collide");
        assert!(q1 != q2, "equality compares the whole query");
        let cache = ResultCache::new(1 << 20);
        assert_eq!(ask(&cache, &k1, "k", 1), (1, false));
        assert_eq!(ask(&cache, &k2, "k", 2), (2, false), "k2 is not k1");
        assert_eq!(cache.len(), 2, "both stay resident");
        assert_eq!(ask(&cache, &k1, "k", 0), (1, true));
        assert_eq!(ask(&cache, &k2, "k", 0), (2, true));
        assert_eq!(
            cache.approx_bytes(),
            charge(&k1, "k", 1) + charge(&k2, "k", 2)
        );
        assert_accounting(&cache);
    }

    /// Thousands of distinct queries under a small budget, with repeats
    /// interleaved; every instance is asked under two parameter strings
    /// that share its key. After every call the hit-or-run outcome and the
    /// residents must be exactly what a plain least-recently-used list
    /// keeps (re-summing every size on every store, the slow way, each
    /// charging the shared key in full), and the running byte total must
    /// equal a re-sum over the resident answers.
    #[test]
    fn tick_lru_and_running_total_match_a_full_resum_model() {
        const STEPS: usize = 4_000;
        let instances: Vec<Arc<InstanceKey>> = (0..STEPS.div_ceil(2))
            .map(|i| {
                let (a, b) = (i % 50, i / 50);
                key_of(&Hypergraph::from_edges(
                    60 + b,
                    vec![vec![0, 1 + a], vec![1 + a, 59 + b]],
                ))
            })
            .collect();
        let instance = |id: usize| &instances[id / 2];
        let params = |id: usize| "k".repeat(id % 7);
        let size = |id: usize| charge(instance(id), &params(id), id as u32);
        let budget = 12 * size(0);
        let cache = ResultCache::new(budget);
        let keys: Vec<Keyed> = (0..STEPS)
            .map(|id| Keyed::new(instance(id), SLOT, params(id)))
            .collect();
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), STEPS);

        // The model: ids least recent first.
        let mut order: Vec<usize> = Vec::new();
        let (mut next_new, mut evictions) = (0, 0);
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..STEPS {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (rng >> 33) as usize;
            // Two thirds new queries; one third repeats one of the 40
            // newest (resident or already evicted).
            let id = if r.is_multiple_of(3) && next_new > 0 {
                next_new - 1 - (r / 3) % next_new.min(40)
            } else {
                next_new += 1;
                next_new - 1
            };
            let (v, hit) = ask(&cache, instance(id), &params(id), id as u32);
            assert_eq!(v, id as u32, "step {step}: wrong answer");

            let resident = order.contains(&id);
            assert_eq!(hit, resident, "step {step}: hit iff resident");
            order.retain(|&o| o != id);
            order.push(id);
            if !resident {
                let mut total: usize = order.iter().map(|&o| size(o)).sum();
                while total > budget && order.len() > 1 {
                    total -= size(order.remove(0));
                    evictions += 1;
                }
            }
            let total: usize = order.iter().map(|&o| size(o)).sum();
            assert!(total <= budget || order == [id], "step {step}: over budget");

            {
                let table = cache.lock();
                let residents: Vec<&Keyed> = table.order.values().collect();
                let expected: Vec<&Keyed> = order.iter().map(|&o| &keys[o]).collect();
                assert!(residents == expected, "step {step}: residents differ");
            }
            assert_eq!(cache.approx_bytes(), total, "step {step}");
            assert_eq!(cache.len(), order.len(), "step {step}");
            if step % 97 == 0 {
                assert_accounting(&cache);
            }
        }
        assert_accounting(&cache);
        assert!(next_new > 2_000, "only {next_new} distinct queries");
        assert!(evictions > next_new / 2, "budget never bound: {evictions}");
    }

    /// The fhw, ghw and hw answers of one acyclic instance share its one
    /// join tree, and each charges the whole tree: the running total
    /// equals a re-sum that counts the tree in full per answer. Under a
    /// budget of one answer, each store evicts the one before it, never
    /// itself.
    #[test]
    fn answers_sharing_one_tree_each_charge_it_in_full() {
        type Fhw = (Option<(Rational, Decomposition)>, SearchStats);
        type Width = (Option<(usize, Decomposition)>, SearchStats);
        let h = generators::cq_chain(5, 3, 1);
        let key = key_of(&h);
        let tree = decomp::join_tree(&h).expect("acyclic");
        let stats = SearchStats {
            ub_width: Some(Rational::one()),
            ..SearchStats::default()
        };
        // Each store and its repeat: hit or not, and the stored tree.
        let store_all = |cache: &ResultCache| {
            let fhw = |hit| {
                let (r, s): Fhw = cache.query(&key, "result-fhw", "p".into(), || {
                    (Some((Rational::one(), tree.clone())), stats.clone())
                });
                assert_eq!(s.result_cache_hits == 1, hit, "fhw");
                r.expect("width 1").1
            };
            let width = |slot, hit| {
                let (r, s): Width = cache.query(&key, slot, "p".into(), || {
                    (Some((1, tree.clone())), stats.clone())
                });
                assert_eq!(s.result_cache_hits == 1, hit, "{slot}");
                r.expect("width 1").1
            };
            [
                (fhw(false), fhw(true)),
                (width("result-ghw", false), width("result-ghw", true)),
                (width("result-hw", false), width("result-hw", true)),
            ]
        };
        let answer_bytes = |answer: &Answer| match answer.downcast_ref::<Fhw>() {
            Some(fhw) => fhw.approx_bytes(),
            None => answer
                .downcast_ref::<Width>()
                .expect("a width answer")
                .approx_bytes(),
        };

        let cache = ResultCache::new(1 << 20);
        for (stored, replayed) in store_all(&cache) {
            assert_eq!((&stored, &replayed), (&tree, &tree));
        }
        assert_eq!(cache.len(), 3);
        assert_accounting_with(&cache, answer_bytes);
        assert!(cache.approx_bytes() > 3 * tree.approx_bytes());

        // Room for any one of the three answers, not for two.
        let one = cache.approx_bytes() / 2 - 1;
        let small = ResultCache::new(one);
        store_all(&small);
        assert_eq!(small.len(), 1, "only the last answer stays");
        assert_accounting_with(&small, answer_bytes);
    }

    /// Evictions racing in-flight searches: four threads start together and
    /// make two passes over sixteen queries, from staggered offsets, under
    /// a budget of about four answers, each search running about a
    /// millisecond inside `run`, so twins of one query often search at
    /// once. The assertions hold under every interleaving.
    #[test]
    fn evictions_under_byte_pressure_keep_in_flight_queries_consistent() {
        let instances: Vec<Arc<InstanceKey>> =
            (3..19).map(|n| key_of(&generators::path(n))).collect();
        let answer = |i: usize| 100 + i as u32;
        let budget = 4 * charge(&instances[8], "q", 0);
        let cache = ResultCache::new(budget);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (cache, instances, start) = (&cache, &instances, &start);
                s.spawn(move || {
                    start.wait();
                    for pass in 0..2 {
                        for j in 0..instances.len() {
                            let i = (j + 5 * t + pass) % instances.len();
                            let (v, _) = cache.query(&instances[i], SLOT, "q".into(), || {
                                std::thread::sleep(std::time::Duration::from_millis(1));
                                (answer(i), SearchStats::default())
                            });
                            assert_eq!(v, answer(i), "query {i} got another's answer");
                        }
                    }
                });
            }
        });
        assert_accounting(&cache);
        let (bytes, len) = cache.lock().occupancy();
        assert!(len >= 1);
        assert!(bytes <= budget || len == 1, "{bytes} bytes over {budget}");
    }

    #[test]
    fn cached_query_replays_results_and_counts_hits() {
        let h = key_of(&generators::cycle(6));
        let mut runs = 0;
        let (v1, s1) = cached_query(&h, "test-result-slot", "k=2".into(), || {
            runs += 1;
            let stats = SearchStats {
                states: 5,
                ..SearchStats::default()
            };
            (41_u32, stats)
        });
        assert_eq!((v1, s1.result_cache_hits), (41, 0));
        // A key built afresh for the same instance is the same instance.
        let again = key_of(&generators::cycle(6));
        let (v2, s2) = cached_query(&again, "test-result-slot", "k=2".into(), || {
            runs += 1;
            (0_u32, SearchStats::default())
        });
        assert_eq!(runs, 1, "second identical query never ran");
        assert_eq!(v2, 41);
        assert_eq!(s2.result_cache_hits, 1);
        assert_eq!(s2.states, 5, "stored engine counters replayed");
        // A different parameter string is a different query.
        let (v3, _) = cached_query(&h, "test-result-slot", "k=3".into(), || {
            runs += 1;
            (7_u32, SearchStats::default())
        });
        assert_eq!((runs, v3), (2, 7));
    }

    #[test]
    fn a_panicking_search_stores_nothing() {
        let h = key_of(&generators::grid(2, 2));
        let attempt = std::panic::catch_unwind(|| {
            cached_query::<u32>(&h, "test-panic-slot", "x".into(), || {
                panic!("search blew up")
            })
        });
        assert!(attempt.is_err());
        // A panicking search stores nothing: the retry searches, and only
        // its answer is replayed afterwards.
        let (v, stats) = cached_query(&h, "test-panic-slot", "x".into(), || {
            (3_u32, SearchStats::default())
        });
        assert_eq!((v, stats.result_cache_hits), (3, 0));
        let (v, stats) = cached_query(&h, "test-panic-slot", "x".into(), || {
            (4_u32, SearchStats::default())
        });
        assert_eq!((v, stats.result_cache_hits), (3, 1));
    }

    /// Two threads miss one query at once: nothing parks, so both search,
    /// both return the same answer, and the later store is dropped, so the
    /// answer is resident once and its bytes are charged once. Each search
    /// waits inside `run` until the other has entered too; the wait is
    /// bounded, so a cache that parked one twin on the other fails here
    /// instead of hanging.
    #[test]
    fn racing_twins_both_search_and_store_one_answer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        let cache = ResultCache::new(1 << 20);
        let h = key_of(&generators::cycle(5));
        let inside = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(2);
        let twin = || {
            start.wait();
            cache.query(&h, SLOT, "race".into(), || {
                inside.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while inside.load(Ordering::SeqCst) < 2 {
                    assert!(Instant::now() < deadline, "the twin never searched");
                    std::thread::yield_now();
                }
                (23_u32, SearchStats::default())
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(twin);
            let mine = twin();
            (mine, other.join().expect("the twin completes"))
        });
        assert_eq!(a, b, "both twins return the same answer");
        assert_eq!((a.0, a.1.result_cache_hits), (23, 0), "both searched");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.approx_bytes(), charge(&h, "race", 23));
        assert_accounting(&cache);
        assert_eq!(ask(&cache, &h, "race", 0), (23, true), "a third call hits");
    }
}
