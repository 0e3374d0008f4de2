//! The process-lifetime, fingerprint-keyed cross-call result registry.
//!
//! The per-search `ρ`/`ρ*` caches of PR 2 die with their search, so
//! repeated searches on one instance (`hgtool widths` running three
//! engines, `fhw_frac_search` iterating budgets, the strict-HD integer
//! search, the agreement test suites) re-price every bag from scratch.
//! This registry keeps one [`cover::ShardedCache`] per
//! `(hypergraph fingerprint, cache slot)` alive for the process lifetime,
//! so a bag priced once is priced never again — across calls, strategies
//! and thread counts. On top of the price slots, [`cached_query`] uses the
//! same registry to cache *whole-query answers*: a
//! `(instance, strategy, parameters)` triple maps to the full result —
//! width, lifted witness and engine counters — so a repeated call skips
//! the search entirely, and an identical call already in flight is
//! deduplicated through the cache's `Pending` claim machinery (the second
//! caller parks and adopts the first one's answer).
//!
//! Soundness: a cached value is only valid for the instance it was
//! computed on, so the registry stores the full [`CanonicalForm`] next to
//! the caches and compares it on every lookup. A fingerprint collision
//! does not discard sharing anymore: each distinct canonical form behind
//! one fingerprint gets its own *variant* (keyed by a secondary hash), so
//! colliding instances still reuse their own caches across calls; only
//! the astronomically unlikely double collision (same fingerprint *and*
//! same secondary hash, different structure) falls back to a fresh
//! private session — never to wrong prices.
//!
//! Memory: all slots of all variants share one byte budget
//! ([`BUDGET_ENV`], default 64 MiB), estimated via [`cover::MemSize`] and
//! enforced by least-recently-used eviction over `(fingerprint, variant)`
//! keys at session-open time. Each variant carries the tick of its last
//! touch, and the LRU is a map from tick to key: opening a session moves
//! its key to a fresh tick (one removal, one insertion), and eviction
//! pops the smallest tick. Slot checkouts mark the key dirty so the next
//! sweep re-measures it; the registry keeps a running byte total, adjusted
//! by each re-measurement's difference and by each eviction, so neither
//! the sweep nor the occupancy gauges walk the resident variants. A call
//! costs `O(log n)` in the number of resident variants, plus the dirty
//! re-measurements.
//!
//! Determinism: widths and witnesses are unaffected by reuse (prices and
//! results are exact values, and witnesses are revalidated by the test
//! suites). The `price_*` counters and the runtime counters
//! (`result_cache_hits`, `inflight_dedup`) of a session *are* affected —
//! that is the point — so the engine determinism tests run with reuse off
//! and compare [`SearchStats::engine_only`].

use crate::fingerprint::{canonical_form, fingerprint_of_canon, CanonicalForm, Fingerprint};
use crate::stats::SearchStats;
use cover::{Claim, MemSize, ShardedCache};
use hypergraph::fx::FxHasher;
use hypergraph::Hypergraph;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable overriding the shared cache byte budget.
pub const BUDGET_ENV: &str = "HGTOOL_CACHE_BYTES";

/// Default shared byte budget: price caches and the whole-query result
/// cache together.
const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// One registered slot: the type-erased shared cache plus a sizer that
/// re-measures it (the sizer captures a typed `Arc` clone, so the
/// byte-budget sweep needs no type knowledge).
struct SlotEntry {
    cache: Arc<dyn Any + Send + Sync>,
    sizer: Box<dyn Fn() -> usize + Send + Sync>,
}

/// One canonical form behind a fingerprint: the exact incidence structure
/// (collision guard), its slot map, the byte estimate as of the last
/// sweep (stale while the variant is in the dirty set), and the tick of
/// its last touch (its key in [`Registry::lru`]).
struct Variant {
    sec: u64,
    canon: CanonicalForm,
    num_vertices: usize,
    slots: HashMap<&'static str, SlotEntry>,
    bytes: usize,
    tick: u64,
}

/// The interior state: variants by fingerprint, the LRU order over
/// `(fingerprint, secondary)` keys by last-touch tick (least recent
/// first), the next tick to hand out, the keys whose byte estimate went
/// stale since the last sweep, and the running sum of every resident
/// variant's `bytes`.
#[derive(Default)]
struct Registry {
    entries: HashMap<u128, Vec<Variant>>,
    lru: BTreeMap<u64, (u128, u64)>,
    next_tick: u64,
    dirty: HashSet<(u128, u64)>,
    total_bytes: usize,
}

/// The process-lifetime registry. Obtain the shared one through
/// [`global`]; tests build private instances with
/// [`GlobalPriceCache::new`] (leaked to `'static`, since sessions borrow
/// the registry for the process lifetime).
pub struct GlobalPriceCache {
    inner: Mutex<Registry>,
    budget: usize,
}

/// The process-wide registry instance, budgeted by [`BUDGET_ENV`].
pub fn global() -> &'static GlobalPriceCache {
    static GLOBAL: OnceLock<GlobalPriceCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let budget = std::env::var(BUDGET_ENV)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_BUDGET_BYTES);
        GlobalPriceCache::new(budget)
    })
}

/// The secondary hash separating canonical forms that collide on the
/// primary fingerprint (FxHash over the same word stream the fingerprint
/// reads, but with a different mixing function — independent enough that
/// a double collision would need two simultaneous 64-bit+128-bit breaks).
fn secondary_hash(num_vertices: usize, canon: &CanonicalForm) -> u64 {
    let mut hasher = FxHasher::default();
    num_vertices.hash(&mut hasher);
    canon.hash(&mut hasher);
    hasher.finish()
}

impl GlobalPriceCache {
    /// An empty registry with the given byte budget.
    pub fn new(budget: usize) -> Self {
        GlobalPriceCache {
            inner: Mutex::new(Registry::default()),
            budget,
        }
    }

    /// Opens a session for `h`: cached slots of the same instance are
    /// shared (their generation advanced, so reuse shows up in
    /// [`cover::ShardedCache::warm_hits`]); an unknown instance (or a new
    /// canonical form behind a colliding fingerprint) is registered as its
    /// own variant. Opening touches the LRU key and runs the byte-budget
    /// sweep, evicting least-recently-used variants (never the one just
    /// opened) while the estimate exceeds the budget.
    pub fn session(&'static self, h: &Hypergraph) -> PriceSession {
        let canon = canonical_form(h);
        let fp = fingerprint_of_canon(h.num_vertices(), &canon);
        let sec = secondary_hash(h.num_vertices(), &canon);
        let mut guard = self.inner.lock().expect("price registry poisoned");
        let reg = &mut *guard;
        let tick = reg.next_tick;
        let variants = reg.entries.entry(fp.0).or_default();
        match variants.iter_mut().find(|v| v.sec == sec) {
            Some(v) if v.canon == canon && v.num_vertices == h.num_vertices() => {
                reg.lru.remove(&v.tick);
                v.tick = tick;
            }
            // Double collision (fingerprint and secondary hash): never
            // share. Unlike the old single-hash fallback this is per
            // *structure*, not per call — merely fingerprint-colliding
            // instances each keep their own shared variant above.
            Some(_) => return PriceSession::fresh(),
            None => variants.push(Variant {
                sec,
                canon,
                num_vertices: h.num_vertices(),
                slots: HashMap::new(),
                bytes: 0,
                tick,
            }),
        }
        let key = (fp.0, sec);
        reg.next_tick += 1;
        reg.lru.insert(tick, key);
        self.sweep(reg, key);
        PriceSession {
            registry: Some((self, fp, sec)),
        }
    }

    /// Re-measures dirty variants (folding each difference into the
    /// running total), then evicts from the LRU front while the total
    /// exceeds the budget. `just_opened` holds the newest tick, so it is
    /// the front only once every other variant is gone — and it stays.
    fn sweep(&self, reg: &mut Registry, just_opened: (u128, u64)) {
        for key in std::mem::take(&mut reg.dirty) {
            if let Some(v) = variant_mut(&mut reg.entries, key) {
                let bytes = v.slots.values().map(|s| (s.sizer)()).sum();
                reg.total_bytes = reg.total_bytes - v.bytes + bytes;
                v.bytes = bytes;
            }
        }
        while reg.total_bytes > self.budget {
            let Some(front) = reg.lru.first_entry() else {
                break;
            };
            if *front.get() == just_opened {
                break;
            }
            let key = front.remove();
            if let Some(variants) = reg.entries.get_mut(&key.0) {
                if let Some(pos) = variants.iter().position(|v| v.sec == key.1) {
                    reg.total_bytes -= variants.swap_remove(pos).bytes;
                }
                if variants.is_empty() {
                    reg.entries.remove(&key.0);
                }
            }
        }
    }

    /// The registered shared cache for `(fingerprint, variant, slot)`,
    /// created on first use and marked dirty for the next sweep. `None`
    /// when the variant was evicted meanwhile.
    fn slot<K, V>(
        &self,
        fp: Fingerprint,
        sec: u64,
        name: &'static str,
    ) -> Option<Arc<ShardedCache<K, V>>>
    where
        K: Eq + Hash + MemSize + Send + Sync + 'static,
        V: Clone + MemSize + Send + Sync + 'static,
    {
        let mut guard = self.inner.lock().expect("price registry poisoned");
        let reg = &mut *guard;
        let variant = variant_mut(&mut reg.entries, (fp.0, sec))?;
        let slot = variant.slots.entry(name).or_insert_with(|| {
            let typed: Arc<ShardedCache<K, V>> = Arc::new(ShardedCache::new());
            let measured = Arc::clone(&typed);
            SlotEntry {
                cache: typed,
                sizer: Box::new(move || measured.approx_bytes()),
            }
        });
        let cache = Arc::clone(&slot.cache)
            .downcast::<ShardedCache<K, V>>()
            .expect("slot name reused with a different cache type");
        reg.dirty.insert((fp.0, sec));
        Some(cache)
    }

    /// `(approx_bytes, len)` read under one lock.
    fn occupancy(&self) -> (usize, usize) {
        let reg = self.inner.lock().expect("price registry poisoned");
        (reg.total_bytes, reg.lru.len())
    }

    /// Registered variants (diagnostics).
    pub fn len(&self) -> usize {
        self.occupancy().1
    }

    /// True when nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte estimate as of the last sweep (diagnostics; dirty variants
    /// report their stale measurement).
    pub fn approx_bytes(&self) -> usize {
        self.occupancy().0
    }
}

fn variant_mut(
    entries: &mut HashMap<u128, Vec<Variant>>,
    key: (u128, u64),
) -> Option<&mut Variant> {
    entries.get_mut(&key.0)?.iter_mut().find(|v| v.sec == key.1)
}

/// A per-search handle to the shared caches of one instance (or to fresh
/// private caches when reuse is off / double-collided / evicted).
pub struct PriceSession {
    /// `Some` when backed by a registry: the registry plus the variant key.
    registry: Option<(&'static GlobalPriceCache, Fingerprint, u64)>,
}

impl PriceSession {
    /// A session with private caches only (reuse disabled).
    pub fn fresh() -> Self {
        PriceSession { registry: None }
    }

    /// The instance fingerprint when backed by a process-lifetime
    /// registry; `None` for private caches.
    pub fn fingerprint(&self) -> Option<Fingerprint> {
        self.registry.map(|(_, fp, _)| fp)
    }

    /// The cache for `slot`, shared across calls when the session is
    /// registry-backed (its generation is advanced so cross-call hits are
    /// counted as warm), private otherwise.
    pub fn cache<K, V>(&self, slot: &'static str) -> Arc<ShardedCache<K, V>>
    where
        K: Eq + Hash + MemSize + Send + Sync + 'static,
        V: Clone + MemSize + Send + Sync + 'static,
    {
        let shared = self
            .registry
            .and_then(|(reg, fp, sec)| reg.slot::<K, V>(fp, sec, slot));
        match shared {
            Some(cache) => {
                cache.advance_generation();
                cache
            }
            None => Arc::new(ShardedCache::new()),
        }
    }
}

/// One strategy cache checked out of a session, carrying the counter
/// baselines taken at checkout so a search can report *its own* traffic —
/// the shared cache's counters are cumulative across every search that
/// ever borrowed it. This is the one place the baseline/delta bookkeeping
/// lives; every strategy price session goes through it.
pub struct SessionCache<K, V> {
    /// The (shared or private) cache itself.
    pub cache: Arc<ShardedCache<K, V>>,
    base_hits: usize,
    base_misses: usize,
    base_warm: usize,
}

impl<K, V> SessionCache<K, V>
where
    K: Eq + Hash + MemSize + Send + Sync + 'static,
    V: Clone + MemSize + Send + Sync + 'static,
{
    /// Opens the `slot` cache for `h`: registry-backed when `reuse` asks
    /// for it (and `HGTOOL_NO_PREP` doesn't veto it), private otherwise —
    /// with counter baselines snapshotted for [`SessionCache::deltas`].
    pub fn open(h: &Hypergraph, slot: &'static str, reuse: bool) -> Self {
        let session = if crate::enabled(reuse) {
            global().session(h)
        } else {
            PriceSession::fresh()
        };
        let cache = session.cache::<K, V>(slot);
        let (base_hits, base_misses) = cache.counters();
        let base_warm = cache.warm_hits();
        SessionCache {
            cache,
            base_hits,
            base_misses,
            base_warm,
        }
    }

    /// `(hits, misses, warm_hits)` accumulated since checkout — what the
    /// strategy wrappers surface as `price_hits`/`price_misses`/
    /// `price_warm_hits`. Process-history-independent on private caches;
    /// on shared ones, concurrent borrowers' traffic is included (which is
    /// why the determinism suites run with reuse off).
    pub fn deltas(&self) -> (usize, usize, usize) {
        let (hits, misses) = self.cache.counters();
        (
            hits - self.base_hits,
            misses - self.base_misses,
            self.cache.warm_hits() - self.base_warm,
        )
    }
}

/// Routes one whole-query computation through the cross-call result
/// cache: `(instance fingerprint, slot, key)` maps to the full answer —
/// result (including the lifted witness) plus the engine counters of the
/// run that computed it.
///
/// `slot` names the strategy (one result cache per strategy per
/// instance); `key` encodes every parameter the answer depends on
/// (cutoff, width bound, engine options that affect the result). With
/// reuse off (or vetoed by `HGTOOL_NO_PREP`, or double-collided) `run`
/// executes directly.
///
/// * A repeated identical query returns the stored answer with
///   `result_cache_hits = 1` and never runs a search.
/// * An identical query *in flight* parks on the entry's `Pending` claim
///   and adopts the owner's answer (`inflight_dedup = 1` on top of the
///   hit) — exactly one search runs however many threads ask.
/// * If the owning computation panics, the claim is abandoned and one
///   parked waiter re-runs (nobody deadlocks on a poisoned entry).
pub fn cached_query<R>(
    h: &Hypergraph,
    slot: &'static str,
    key: String,
    reuse: bool,
    run: impl FnOnce() -> (R, SearchStats),
) -> (R, SearchStats)
where
    R: Clone + MemSize + Send + Sync + 'static,
{
    if !crate::enabled(reuse) {
        return run();
    }
    let session = global().session(h);
    if session.fingerprint().is_none() {
        return run();
    }
    let span = obs::span!("result_cache", slot = slot);
    let cache: Arc<ShardedCache<String, (R, SearchStats)>> = session.cache(slot);
    let (claim, waited) = cache.claim_tracking_wait(&key);
    let answer = match claim {
        Claim::Hit((result, mut stats)) => {
            stats.result_cache_hits = 1;
            stats.inflight_dedup = usize::from(waited);
            cache_metrics::handles().hits.inc();
            if waited {
                cache_metrics::handles().inflight_dedup.inc();
            }
            if let Some(span) = span.as_ref() {
                span.record("hit", true);
                span.record("deduped", waited);
            }
            (result, stats)
        }
        Claim::Owner => {
            cache_metrics::handles().misses.inc();
            if let Some(span) = span.as_ref() {
                span.record("hit", false);
            }
            let guard = QueryGuard {
                cache: &cache,
                key: Some(&key),
            };
            let (result, stats) = run();
            guard.disarm();
            cache.complete(key, (result.clone(), stats.clone()));
            (result, stats)
        }
    };
    // Occupancy gauges follow every routed query (byte accounting is the
    // registry's running total — the same number its sweep budgets by).
    let (bytes, variants) = global().occupancy();
    cache_metrics::handles().bytes.set(bytes as i64);
    cache_metrics::handles().variants.set(variants as i64);
    answer
}

/// Process-lifetime counters and occupancy gauges of the cross-call
/// registry, mirrored into the `obs` metrics registry. Observational
/// only — cache behavior never depends on them.
mod cache_metrics {
    use obs::metrics::{counter, gauge, Counter, Gauge};
    use std::sync::{Arc, OnceLock};

    pub(super) struct Handles {
        pub hits: Arc<Counter>,
        pub misses: Arc<Counter>,
        pub inflight_dedup: Arc<Counter>,
        pub bytes: Arc<Gauge>,
        pub variants: Arc<Gauge>,
    }

    pub(super) fn handles() -> &'static Handles {
        static HANDLES: OnceLock<Handles> = OnceLock::new();
        HANDLES.get_or_init(|| Handles {
            hits: counter(
                "hgtool_result_cache_hits_total",
                "Whole-query answers served from the cross-call result cache",
            ),
            misses: counter(
                "hgtool_result_cache_misses_total",
                "Whole-query searches that ran because no cached answer existed",
            ),
            inflight_dedup: counter(
                "hgtool_inflight_dedup_total",
                "Duplicate queries that parked on an in-flight identical search",
            ),
            bytes: gauge(
                "hgtool_result_cache_bytes",
                "Approximate byte occupancy of the cross-call price+result registry",
            ),
            variants: gauge(
                "hgtool_result_cache_variants",
                "Instance variants resident in the cross-call registry",
            ),
        })
    }
}

/// Abandons an owned result claim on unwind unless disarmed, so a
/// panicking search cannot strand parked duplicate queries forever.
struct QueryGuard<'c, R: Clone> {
    cache: &'c ShardedCache<String, (R, SearchStats)>,
    key: Option<&'c String>,
}

impl<R: Clone> QueryGuard<'_, R> {
    fn disarm(mut self) {
        self.key = None;
    }
}

impl<R: Clone> Drop for QueryGuard<'_, R> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.cache.abandon(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    /// A private registry leaked to `'static` (sessions borrow it).
    fn private(budget: usize) -> &'static GlobalPriceCache {
        Box::leak(Box::new(GlobalPriceCache::new(budget)))
    }

    #[test]
    fn session_cache_reports_per_checkout_deltas() {
        let h = generators::path(3);
        let first: SessionCache<u32, u32> = SessionCache::open(&h, "test-slot-deltas", true);
        first.cache.get_or_insert_with(&1, || 10);
        first.cache.get_or_insert_with(&1, || 10);
        assert_eq!(first.deltas(), (1, 1, 0));
        let second: SessionCache<u32, u32> = SessionCache::open(&h, "test-slot-deltas", true);
        second.cache.get_or_insert_with(&1, || 10);
        assert_eq!(second.deltas(), (1, 0, 1), "cross-checkout hit is warm");
    }

    #[test]
    fn repeated_sessions_share_and_warm() {
        let h = generators::cycle(4);
        let s1 = global().session(&h);
        assert!(s1.fingerprint().is_some());
        let c1 = s1.cache::<u32, u32>("test-slot-a");
        c1.complete(7, 9);
        let s2 = global().session(&h);
        let c2 = s2.cache::<u32, u32>("test-slot-a");
        assert_eq!(c2.get(&7), Some(9), "second session sees cached prices");
        assert!(c2.warm_hits() >= 1, "cross-call hit counted as warm");
    }

    #[test]
    fn fresh_sessions_are_private() {
        let h = generators::cycle(5);
        let s1 = PriceSession::fresh();
        let c1 = s1.cache::<u32, u32>("test-slot-b");
        c1.complete(1, 2);
        let s2 = PriceSession::fresh();
        let c2 = s2.cache::<u32, u32>("test-slot-b");
        assert_eq!(c2.get(&1), None);
        let _ = &h;
    }

    #[test]
    fn lru_evicts_least_recently_used_variant_under_byte_pressure() {
        let reg = private(2_000);
        let h1 = generators::path(3);
        let h2 = generators::cycle(4);
        let h3 = generators::star(4);
        // Register h1 and h2 and give each a slot worth ~1.5k bytes (the
        // sharding skeleton alone is most of it).
        reg.session(&h1).cache::<u32, u32>("t").complete(1, 1);
        reg.session(&h2).cache::<u32, u32>("t").complete(2, 2);
        assert_eq!(reg.len(), 2);
        // Touch h1 so h2 is the LRU victim, then open h3: the sweep must
        // evict h2 (and possibly h1), never the just-opened h3.
        let s1 = reg.session(&h1);
        assert!(s1.fingerprint().is_some());
        let s3 = reg.session(&h3);
        assert!(s3.fingerprint().is_some());
        let survivors = reg.len();
        assert!(survivors <= 2, "budget forces eviction, kept {survivors}");
        // h2 was evicted: a new session starts from an empty slot.
        let c2 = reg.session(&h2).cache::<u32, u32>("t");
        assert_eq!(c2.get(&2), None, "evicted variant lost its entries");
    }

    #[test]
    fn sweep_never_evicts_the_just_opened_session() {
        let reg = private(0); // everything is over budget
        let h = generators::path(4);
        reg.session(&h).cache::<u32, u32>("t").complete(1, 1);
        // Reopening under a zero budget keeps the reopened variant alive
        // for this session even though it exceeds the budget.
        let s = reg.session(&h);
        assert!(s.fingerprint().is_some());
        assert_eq!(s.cache::<u32, u32>("t").get(&1), Some(1));
    }

    /// Thousands of distinct variants under a small budget, with
    /// re-touches and slot checkouts interleaved. After every session the
    /// residents must be exactly what a plain least-recently-used list
    /// keeps (re-summing every size on every sweep, the slow way), the
    /// just-opened variant must be resident, and the running byte total
    /// must equal a fresh re-sum of every resident variant's sizers.
    #[test]
    fn tick_lru_and_running_total_match_a_full_resum_model() {
        const BUDGET: usize = 12_000;
        const STEPS: usize = 4_000;
        let reg = private(BUDGET);
        let instance = |id: usize| {
            let (a, b) = (id % 50, id / 50);
            Hypergraph::from_edges(60 + b, vec![vec![0, 1 + a], vec![1 + a, 59 + b]])
        };
        let keys: Vec<(u128, u64)> = (0..STEPS)
            .map(|id| {
                let h = instance(id);
                let canon = canonical_form(&h);
                let n = h.num_vertices();
                (fingerprint_of_canon(n, &canon).0, secondary_hash(n, &canon))
            })
            .collect();
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), STEPS);

        // The model: ids least recent first, the caches each resident id
        // checked out, each id's size as of the last sweep that found it
        // dirty, and the ids checked out since the last sweep.
        let mut order: Vec<usize> = Vec::new();
        let mut caches: HashMap<usize, Vec<Arc<ShardedCache<u32, u32>>>> = HashMap::new();
        let mut sizes: HashMap<usize, usize> = HashMap::new();
        let mut dirty: HashSet<usize> = HashSet::new();
        let (mut next_new, mut evictions) = (0, 0);
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..STEPS {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (rng >> 33) as usize;
            // Two thirds new instances; one third re-touches one of the
            // 40 newest (resident or already evicted).
            let id = if r.is_multiple_of(3) && next_new > 0 {
                next_new - 1 - (r / 3) % next_new.min(40)
            } else {
                next_new += 1;
                next_new - 1
            };
            let session = reg.session(&instance(id));
            assert!(session.fingerprint().is_some());

            order.retain(|&o| o != id);
            order.push(id);
            for d in dirty.drain() {
                if let Some(cs) = caches.get(&d) {
                    sizes.insert(d, cs.iter().map(|c| c.approx_bytes()).sum());
                }
            }
            let mut total: usize = order.iter().filter_map(|o| sizes.get(o)).sum();
            let mut i = 0;
            while total > BUDGET && i < order.len() {
                if order[i] == id {
                    i += 1;
                    continue;
                }
                let gone = order.remove(i);
                total -= sizes.remove(&gone).unwrap_or(0);
                caches.remove(&gone);
                evictions += 1;
            }
            assert!(total <= BUDGET || order == [id], "step {step}: over budget");

            {
                let inner = reg.inner.lock().expect("registry");
                let resident: Vec<(u128, u64)> = inner.lru.values().copied().collect();
                let expected: Vec<(u128, u64)> = order.iter().map(|&o| keys[o]).collect();
                assert_eq!(resident, expected, "step {step}: residents differ");
                assert_eq!(resident.last(), Some(&keys[id]), "just-opened evicted");
                let resum: usize = inner
                    .entries
                    .values()
                    .flatten()
                    .flat_map(|v| v.slots.values().map(|s| (s.sizer)()))
                    .sum();
                assert_eq!(inner.total_bytes, resum, "step {step}: running total");
            }
            assert_eq!(reg.approx_bytes(), total, "step {step}");
            assert_eq!(reg.len(), order.len(), "step {step}");

            // Four sessions in five check out a slot and price a few bags.
            if !r.is_multiple_of(5) {
                let slot = if r.is_multiple_of(2) {
                    "lru-a"
                } else {
                    "lru-b"
                };
                let cache = session.cache::<u32, u32>(slot);
                for k in 0..(r % 7) as u32 {
                    cache.get_or_insert_with(&k, || k);
                }
                dirty.insert(id);
                let held = caches.entry(id).or_default();
                if !held.iter().any(|c| Arc::ptr_eq(c, &cache)) {
                    held.push(cache);
                }
            }
        }
        assert!(next_new > 2_000, "only {next_new} distinct variants");
        assert!(evictions > next_new / 2, "budget never bound: {evictions}");
    }

    #[test]
    fn cached_query_replays_results_and_counts_hits() {
        let h = generators::cycle(6);
        let mut runs = 0;
        let (v1, s1) = cached_query(&h, "test-result-slot", "k=2".into(), true, || {
            runs += 1;
            let stats = SearchStats {
                states: 5,
                ..SearchStats::default()
            };
            (41_u32, stats)
        });
        assert_eq!((v1, s1.result_cache_hits), (41, 0));
        let (v2, s2) = cached_query(&h, "test-result-slot", "k=2".into(), true, || {
            runs += 1;
            (0_u32, SearchStats::default())
        });
        assert_eq!(runs, 1, "second identical query never ran");
        assert_eq!(v2, 41);
        assert_eq!(s2.result_cache_hits, 1);
        assert_eq!(s2.states, 5, "stored engine counters replayed");
        // A different key is a different query.
        let (v3, _) = cached_query(&h, "test-result-slot", "k=3".into(), true, || {
            runs += 1;
            (7_u32, SearchStats::default())
        });
        assert_eq!((runs, v3), (2, 7));
        // Reuse off bypasses the cache entirely.
        let (v4, s4) = cached_query(&h, "test-result-slot", "k=2".into(), false, || {
            runs += 1;
            (13_u32, SearchStats::default())
        });
        assert_eq!((runs, v4, s4.result_cache_hits), (3, 13, 0));
    }

    #[test]
    fn inflight_duplicate_queries_park_and_dedup() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = generators::cycle(7);
        let started = AtomicBool::new(false);
        std::thread::scope(|s| {
            let owner = s.spawn(|| {
                cached_query(&h, "test-dedup-slot", "q".into(), true, || {
                    started.store(true, Ordering::SeqCst);
                    // Hold the Pending claim long enough for the duplicate
                    // query on the main thread to park on it.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    let stats = SearchStats {
                        states: 3,
                        ..SearchStats::default()
                    };
                    (99_u32, stats)
                })
            });
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let (v, stats) = cached_query::<u32>(&h, "test-dedup-slot", "q".into(), true, || {
                unreachable!("the duplicate must adopt the in-flight answer")
            });
            let (vo, so) = owner.join().expect("owner completes");
            assert_eq!((vo, so.result_cache_hits), (99, 0), "one search ran");
            assert_eq!(v, 99, "waiter adopted the owner's answer");
            assert_eq!(stats.result_cache_hits, 1);
            assert_eq!(stats.inflight_dedup, 1, "the duplicate parked in flight");
            assert_eq!(stats.states, 3, "owner's engine counters replayed");
        });
    }

    #[test]
    fn cached_query_abandons_on_panic() {
        let h = generators::grid(2, 2);
        let attempt = std::panic::catch_unwind(|| {
            cached_query::<u32>(&h, "test-panic-slot", "x".into(), true, || {
                panic!("search blew up")
            })
        });
        assert!(attempt.is_err());
        // The claim was abandoned, not left Pending: a retry runs and
        // completes instead of parking forever.
        let (v, _) = cached_query(&h, "test-panic-slot", "x".into(), true, || {
            (3_u32, SearchStats::default())
        });
        assert_eq!(v, 3);
    }
}
