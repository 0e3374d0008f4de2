//! The process-lifetime cross-call result cache.
//!
//! [`cached_query`] keeps each whole answer — width, lifted witness and the
//! engine counters of the run that computed it — across calls, so a
//! repeated query skips the search entirely.
//!
//! The cache holds one entry per instance. Its map goes from the
//! instance's [`InstanceKey`] (its vertex count, its flat
//! [`CanonicalForm`](crate::fingerprint::CanonicalForm) and a keyed hash
//! of both, computed once when the key is built) to one entry holding
//! every answer of that instance, each under its strategy slot and a
//! parameter string covering everything the answer depends on. A verdict
//! builds one key and shares it, behind an [`Arc`], among the queries of
//! its width measures, and the map keeps that very `Arc`, with the key's
//! hash inline beside it: the map hashes that one word, so a lookup, a
//! store and a table growth never read a stored key. Equality still
//! compares the whole key — vertex count and canonical form — so two
//! instances share answers only when their incidence structure is
//! identical (names aside), and no hash collision can mix them. The hash
//! is keyed per process (the standard library's `RandomState`), since
//! keys come from outside the program.
//!
//! One mutex guards the entries and their LRU order: the map from instance
//! to entry, the tick order of the instances, their byte total and the
//! count of answers. A lookup and a store each take the lock once, probe
//! the map once by the key's hash and scan the entry's few answers (one
//! per measure and parameter string); the search runs unlocked in
//! between. A search can run for seconds and can unwind on cancel, and
//! other threads' queries must not wait behind it. A search that unwinds
//! stores nothing, so an entry may hold some of its instance's answers and
//! not others. Nothing is claimed while a search runs, so two threads that
//! miss one query at once both search; the first store wins and the later
//! one is dropped, so an answer's bytes are charged once. No production
//! caller issues such twins: serve solves one request at a time, and
//! `hgtool` and the benchmark are single-threaded.
//!
//! Witnesses are shared, not copied: a `decomp::Decomposition` is a
//! copy-on-write tree whose clone bumps a reference count. A miss stores
//! the very tree it returns, a hit hands out the stored tree, and a
//! caller's edit copies the tree first, so it never reaches the stored
//! answer. The three width answers of an α-acyclic verdict hold one join
//! tree.
//!
//! Memory: the entries share one byte budget ([`BUDGET_ENV`], default
//! 64 MiB), estimated via [`cover::MemSize`] when an answer is stored.
//! An entry charges its instance key once and each answer its slot,
//! parameter string, result and counters; a witness charges its whole tree
//! (a tree held by several answers is charged in full by each, and walked
//! once: the tree memoizes its size), so the total is an upper bound on
//! what the answers hold. The LRU order is over instances, one tick each:
//! a hit makes its instance the most recent, and so does a store; a store
//! evicts whole least-recent instances while the total exceeds the budget,
//! never the one just stored to. The budget therefore holds after every
//! store unless that one instance alone exceeds it, and a call costs
//! `O(log n)` in the `n` resident instances.
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
//! only its occupancy gauges there, which count answers, not instances.

use crate::fingerprint::InstanceKey;
use crate::stats::SearchStats;
use cover::MemSize;
use hypergraph::fx::FxHashMap;
use obs::metrics::{gauge, Gauge};
use std::any::Any;
use std::collections::{hash_map, BTreeMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Environment variable overriding the result cache's byte budget.
pub const BUDGET_ENV: &str = "HGTOOL_CACHE_BYTES";

/// Default byte budget of the process-wide result cache.
const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// The answers an entry makes room for when its instance is first stored:
/// one per width measure of a verdict.
const MEASURES: usize = 3;

/// An instance as the map keys it: its key's stored hash inline, beside
/// the shared key. [`Hash`] writes only that word, so a probe and a table
/// growth read no key; equality compares the hashes, then the whole keys.
#[derive(Clone)]
struct Keyed {
    hash: u64,
    key: Arc<InstanceKey>,
}

impl Keyed {
    fn new(key: &Arc<InstanceKey>) -> Self {
        Keyed {
            hash: key.hash(),
            key: Arc::clone(key),
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
        self.hash == other.hash && self.key == other.key
    }
}

impl Eq for Keyed {}

/// A stored `(result, stats)` pair, type-erased (the slot fixes the type).
type Answer = Arc<dyn Any + Send + Sync>;

/// One answer of an instance: its slot, its parameter string and the
/// stored pair.
struct Stored {
    slot: &'static str,
    params: String,
    answer: Answer,
}

/// One resident instance: its answers in store order, its place in the
/// tick order and the bytes charged for it (its key once, plus each
/// answer).
struct Entry {
    answers: Vec<Stored>,
    tick: u64,
    bytes: usize,
}

impl Entry {
    /// The answer stored under `(slot, params)`, if any.
    fn find(&self, slot: &str, params: &str) -> Option<&Stored> {
        self.answers
            .iter()
            .find(|s| s.slot == slot && s.params == params)
    }
}

/// The LRU order of the resident instances.
#[derive(Default)]
struct Order {
    /// Tick → instance, least recent first.
    ticks: BTreeMap<u64, Keyed>,
    next: u64,
}

impl Order {
    /// Appends `keyed` as the most recent instance; returns its tick.
    fn push(&mut self, keyed: Keyed) -> u64 {
        let tick = self.next;
        self.next += 1;
        self.ticks.insert(tick, keyed);
        tick
    }

    /// Makes the instance at `*tick` the most recent one; one that already
    /// is keeps its tick.
    fn refresh(&mut self, tick: &mut u64) {
        if *tick + 1 != self.next {
            let keyed = self.ticks.remove(tick).expect("entries are ordered");
            *tick = self.push(keyed);
        }
    }
}

/// Everything the one lock guards.
#[derive(Default)]
struct Table {
    /// Instance → its entry. The key's hash is already keyed per process,
    /// so crafted keys cannot aim at one bucket, and the map only mixes
    /// that one word.
    entries: FxHashMap<Keyed, Entry>,
    order: Order,
    /// The sum of every entry's bytes.
    total_bytes: usize,
    /// Answers resident, over all entries.
    answers: usize,
}

impl Table {
    /// `(approx_bytes, answers)` of the resident entries.
    fn occupancy(&self) -> (usize, usize) {
        (self.total_bytes, self.answers)
    }
}

/// The cross-call result cache: one entry per instance and their LRU
/// order under one lock. Obtain the process-wide one through [`global`];
/// tests build private instances with [`ResultCache::new`].
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
        let keyed = Keyed::new(instance);
        let hit = self.lookup(&keyed, slot, &params);
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
                let bytes = std::mem::size_of::<&str>()
                    + params.approx_bytes()
                    + result.approx_bytes()
                    + stats.approx_bytes();
                // Cloning shares the witness: the cache keeps the tree it
                // returns.
                let answer: Answer = Arc::new((result.clone(), stats.clone()));
                let stored = Stored {
                    slot,
                    params,
                    answer,
                };
                let occupancy = self.store(keyed, stored, bytes);
                ((result, stats), occupancy)
            }
        };
        let gauges = gauges();
        gauges.bytes.set(bytes as i64);
        gauges.entries.set(entries as i64);
        answer
    }

    /// The answer stored under `(keyed, slot, params)`, its instance made
    /// the most recent, with the occupancy; `None` on a miss.
    fn lookup(&self, keyed: &Keyed, slot: &str, params: &str) -> Option<(Answer, (usize, usize))> {
        let mut table = self.lock();
        let t = &mut *table;
        let entry = t.entries.get_mut(keyed)?;
        let answer = Arc::clone(&entry.find(slot, params)?.answer);
        t.order.refresh(&mut entry.tick);
        Some((answer, t.occupancy()))
    }

    /// Adds `stored`, charged `bytes`, to the instance's entry (made on its
    /// first answer, charged the key too) and makes the instance the most
    /// recent, unless the entry already holds an answer under the same
    /// slot and parameters. Then evicts whole entries from the front of
    /// the order while the total exceeds the budget. The instance stored to
    /// is the most recent, so it is the front only once every other entry
    /// is gone — and it stays. Returns the occupancy after the store.
    fn store(&self, keyed: Keyed, stored: Stored, bytes: usize) -> (usize, usize) {
        let mut table = self.lock();
        let t = &mut *table;
        let charged = match t.entries.entry(keyed) {
            hash_map::Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                if entry.find(stored.slot, &stored.params).is_some() {
                    return t.occupancy();
                }
                t.order.refresh(&mut entry.tick);
                entry.answers.push(stored);
                entry.bytes += bytes;
                bytes
            }
            hash_map::Entry::Vacant(slot) => {
                let bytes = slot.key().key.approx_bytes() + bytes;
                let tick = t.order.push(slot.key().clone());
                let mut answers = Vec::with_capacity(MEASURES);
                answers.push(stored);
                slot.insert(Entry {
                    answers,
                    tick,
                    bytes,
                });
                bytes
            }
        };
        t.total_bytes += charged;
        t.answers += 1;
        while t.total_bytes > self.budget && t.order.ticks.len() > 1 {
            let (_, victim) = t.order.ticks.pop_first().expect("more than one entry");
            let evicted = t
                .entries
                .remove(&victim)
                .expect("ordered entries are resident");
            t.total_bytes -= evicted.bytes;
            t.answers -= evicted.answers.len();
        }
        t.occupancy()
    }

    /// Answers resident, over all instances.
    pub fn len(&self) -> usize {
        self.lock().occupancy().1
    }

    /// True when no answer is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The running byte estimate of the resident entries.
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

    /// The bytes an answer `(value, default stats)` under `params`
    /// charges, its instance's key aside.
    fn answer_charge(params: &str, value: u32) -> usize {
        std::mem::size_of::<&str>()
            + params.to_string().approx_bytes()
            + value.approx_bytes()
            + SearchStats::default().approx_bytes()
    }

    /// The bytes an instance holding the one answer `(value, default
    /// stats)` under `params` charges: its key and that answer.
    fn charge(instance: &Arc<InstanceKey>, params: &str, value: u32) -> usize {
        instance.approx_bytes() + answer_charge(params, value)
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

    /// Re-sums every entry from the stored values (not from the recorded
    /// bytes; `answer_bytes` sizes one stored answer), each charging its
    /// instance key once and each of its answers in full, and checks it
    /// against the running total; checks that the tick order holds exactly
    /// the resident instances at their ticks and that the answer count is
    /// the sum over the entries.
    fn assert_accounting_with(cache: &ResultCache, answer_bytes: impl Fn(&Answer) -> usize) {
        let table = cache.lock();
        let mut resum = 0;
        let mut answers = 0;
        for (key, entry) in &table.entries {
            resum += key.key.approx_bytes();
            for stored in &entry.answers {
                resum += std::mem::size_of::<&str>()
                    + stored.params.approx_bytes()
                    + answer_bytes(&stored.answer);
            }
            answers += entry.answers.len();
            assert!(
                table.order.ticks.get(&entry.tick) == Some(key),
                "entry out of order"
            );
        }
        assert_eq!(table.total_bytes, resum, "running total");
        assert_eq!(table.answers, answers, "answer count");
        assert_eq!(
            table.order.ticks.len(),
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
    /// slot and parameter string, so their map probes collide: each gets
    /// its own answer, both stay resident, and the accounting holds. A
    /// cache that compared only hashes would answer the second instance
    /// with the first one's answer.
    #[test]
    fn colliding_instance_hashes_keep_their_own_answers() {
        let [h1, h2, _] = triple();
        let (k1, k2) = (
            Arc::new(InstanceKey::with_hash(&h1, 0xC0111DE)),
            Arc::new(InstanceKey::with_hash(&h2, 0xC0111DE)),
        );
        assert_ne!(k1, k2, "different instances");
        let (q1, q2) = (Keyed::new(&k1), Keyed::new(&k2));
        assert_eq!(q1.hash, q2.hash, "the keys collide");
        assert!(q1 != q2, "equality compares the whole key");
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

    /// Three slots of one key make one entry, one tick and one key charge,
    /// while `len()` and the occupancy the `_entries` gauge is set from
    /// count the three answers.
    #[test]
    fn one_instance_holds_its_answers_in_one_entry() {
        let key = key_of(&generators::cycle(4));
        let cache = ResultCache::new(1 << 20);
        for (i, slot) in ["result-fhw", "result-ghw", "result-hw"]
            .into_iter()
            .enumerate()
        {
            let (v, stats) = cache.query(&key, slot, "p".into(), || {
                (i as u32, SearchStats::default())
            });
            assert_eq!((v, stats.result_cache_hits), (i as u32, 0), "{slot}");
        }
        {
            let table = cache.lock();
            assert_eq!(table.entries.len(), 1, "one map entry");
            assert_eq!(table.order.ticks.len(), 1, "one tick");
            assert_eq!(table.entries[&Keyed::new(&key)].answers.len(), 3);
            assert_eq!(table.occupancy().1, 3, "the gauge counts answers");
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.approx_bytes(),
            key.approx_bytes() + 3 * answer_charge("p", 0),
            "the key is charged once"
        );
        assert_accounting(&cache);
        for (i, slot) in ["result-fhw", "result-ghw", "result-hw"]
            .into_iter()
            .enumerate()
        {
            let (v, stats) = cache.query(&key, slot, "p".into(), || (99, SearchStats::default()));
            assert_eq!((v, stats.result_cache_hits), (i as u32, 1), "{slot}");
        }
    }

    /// Thousands of distinct queries under a small budget, with repeats
    /// interleaved; every instance is asked under two parameter strings.
    /// After every call the hit-or-run outcome, the resident instances
    /// with their answers, and the running byte total must be exactly what
    /// a plain least-recently-used list of instances keeps (re-summing
    /// every size on every store, the slow way, each instance charging its
    /// key once): a hit on either answer refreshes its instance, a store
    /// refreshes the instance it stores to, and an eviction drops the
    /// instance with both of its answers.
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
        let keys: HashSet<Keyed> = instances.iter().map(Keyed::new).collect();
        assert_eq!(keys.len(), instances.len());
        // Query `id` asks instance `id / 2`, so the two share a key.
        let instance = |id: usize| id / 2;
        let params = |id: usize| "k".repeat(id % 7);
        let answer = |id: usize| answer_charge(&params(id), id as u32);
        let key = |i: usize| instances[i].approx_bytes();
        let budget = 12 * (key(0) + answer(0));
        let cache = ResultCache::new(budget);

        // The model: instances least recent first, each with its resident
        // answers' ids in store order.
        let mut order: Vec<(usize, Vec<usize>)> = Vec::new();
        let total = |order: &[(usize, Vec<usize>)]| -> usize {
            order
                .iter()
                .map(|(i, ids)| key(*i) + ids.iter().map(|&id| answer(id)).sum::<usize>())
                .sum()
        };
        let (mut next_new, mut evicted) = (0, 0);
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
            let (v, hit) = ask(&cache, &instances[instance(id)], &params(id), id as u32);
            assert_eq!(v, id as u32, "step {step}: wrong answer");

            let at = order.iter().position(|(i, _)| *i == instance(id));
            let resident = at.is_some_and(|p| order[p].1.contains(&id));
            assert_eq!(hit, resident, "step {step}: hit iff resident");
            // A hit or a store makes the instance the most recent; a store
            // then evicts whole instances from the front.
            let mut entry = at.map_or((instance(id), Vec::new()), |p| order.remove(p));
            if !resident {
                entry.1.push(id);
            }
            order.push(entry);
            while !resident && total(&order) > budget && order.len() > 1 {
                evicted += order.remove(0).1.len();
            }
            let bytes = total(&order);
            assert!(
                bytes <= budget || order.len() == 1,
                "step {step}: over budget"
            );

            {
                let table = cache.lock();
                let residents: Vec<(&InstanceKey, Vec<&str>)> = table
                    .order
                    .ticks
                    .values()
                    .map(|k| {
                        let answers = table.entries[k].answers.iter();
                        (&*k.key, answers.map(|s| s.params.as_str()).collect())
                    })
                    .collect();
                let expected_params: Vec<Vec<String>> = order
                    .iter()
                    .map(|(_, ids)| ids.iter().map(|&id| params(id)).collect())
                    .collect();
                let expected: Vec<(&InstanceKey, Vec<&str>)> = order
                    .iter()
                    .zip(&expected_params)
                    .map(|((i, _), p)| (&*instances[*i], p.iter().map(String::as_str).collect()))
                    .collect();
                assert!(residents == expected, "step {step}: residents differ");
            }
            assert_eq!(cache.approx_bytes(), bytes, "step {step}");
            let answers: usize = order.iter().map(|(_, ids)| ids.len()).sum();
            assert_eq!(cache.len(), answers, "step {step}");
            if step % 97 == 0 {
                assert_accounting(&cache);
            }
        }
        assert_accounting(&cache);
        assert!(next_new > 2_000, "only {next_new} distinct queries");
        assert!(evicted > next_new / 2, "budget never bound: {evicted}");
    }

    /// The fhw, ghw and hw answers of one acyclic instance share its one
    /// join tree, and each charges the whole tree: the running total
    /// equals a re-sum that counts the instance's key once and the tree in
    /// full per answer. Under a budget of one such instance, storing a
    /// second instance evicts the first with all three answers, never the
    /// instance just stored to.
    #[test]
    fn answers_sharing_one_tree_each_charge_it_in_full() {
        type Fhw = (Option<(Rational, Decomposition)>, SearchStats);
        type Width = (Option<(usize, Decomposition)>, SearchStats);
        let stats = SearchStats {
            ub_width: Some(Rational::one()),
            ..SearchStats::default()
        };
        // Each store of `h`'s three answers and its repeat: hit or not,
        // and the stored tree.
        let store_all = |cache: &ResultCache, h: &Hypergraph| {
            let key = key_of(h);
            let tree = decomp::join_tree(h).expect("acyclic");
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
            let answers = [
                (fhw(false), fhw(true)),
                (width("result-ghw", false), width("result-ghw", true)),
                (width("result-hw", false), width("result-hw", true)),
            ];
            (tree, answers)
        };
        let answer_bytes = |answer: &Answer| match answer.downcast_ref::<Fhw>() {
            Some(fhw) => fhw.approx_bytes(),
            None => answer
                .downcast_ref::<Width>()
                .expect("a width answer")
                .approx_bytes(),
        };

        let h = generators::cq_chain(5, 3, 1);
        let cache = ResultCache::new(1 << 20);
        let (tree, answers) = store_all(&cache, &h);
        for (stored, replayed) in answers {
            assert_eq!((&stored, &replayed), (&tree, &tree));
        }
        assert_eq!(cache.len(), 3);
        assert_accounting_with(&cache, answer_bytes);
        assert!(cache.approx_bytes() > 3 * tree.approx_bytes());

        // Room for one instance's three answers, not for a second instance
        // beside it: `h` with its edges reversed has the same size.
        let reversed = Hypergraph::from_edges(
            h.num_vertices(),
            h.edges().iter().rev().map(|e| e.to_vec()).collect(),
        );
        let small = ResultCache::new(cache.approx_bytes());
        store_all(&small, &h);
        assert_eq!(small.len(), 3, "one whole instance fits");
        store_all(&small, &reversed);
        assert_eq!(small.len(), 3, "only the last instance stays");
        assert_eq!(small.approx_bytes(), cache.approx_bytes());
        assert_accounting_with(&small, answer_bytes);
        let (_, stats): Width = small.query(&key_of(&h), "result-hw", "p".into(), || {
            (None, SearchStats::default())
        });
        assert_eq!(
            stats.result_cache_hits, 0,
            "the first instance was evicted whole"
        );
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
