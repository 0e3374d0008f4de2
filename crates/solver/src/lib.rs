//! The shared decomposition-search engine behind every exact width solver in
//! the workspace.
//!
//! `det-k-decomp` (Gottlob–Leone–Scarcello), the exact `ghw`/`fhw` baselines,
//! Algorithm 3 (`frac-decomp`) and the Theorem 5.2 strict-HD search all share
//! one recursion scheme: work on a pair `(C, conn)` where `C` is a connected
//! component of the hypergraph minus the separator chosen above, and `conn`
//! is the part of the parent separator visible from `C`; guess a
//! separator/bag for the node covering `conn`, split `C` into
//! sub-components, and recurse. The algorithms differ only in *which
//! candidate bags they enumerate* and *how a candidate is priced* (edge
//! counts, `ρ`, `ρ*`, or an LP for the fractional part).
//!
//! This crate owns the recursion: [`SearchContext`] carries the
//! `(component, connector)` memo table keyed on [`VertexSet`] tuples,
//! performs component splitting, applies the cutoff, and assembles the
//! witness [`Decomposition`] from the recorded plans. Concrete solvers
//! implement [`WidthSolver`] — a pure strategy that *streams* cheap
//! combinatorial guesses ([`WidthSolver::candidates`]) and then
//! prices/validates them ([`WidthSolver::admit`], where set covers and LPs
//! run). [`exact`] is the one exact `ghw`/`fhw` minimizer built on it.
//!
//! Three engine properties the strategies rely on:
//!
//! * **Streaming.** Candidates are pulled one at a time from a lazy
//!   [`CandidateStream`]; nothing is materialized ahead of the cursor
//!   (beyond one bounded round for minimizers), so decision strategies run
//!   in `O(depth)` candidate memory and short-circuit on the first witness.
//! * **Parallelism.** One persistent work-stealing worker pool per search:
//!   minimizing strategies evaluate candidate rounds across the pool over
//!   the sharded memo, with in-flight entry states guaranteeing each state
//!   is evaluated exactly once. Widths, witnesses *and* [`SearchStats`]
//!   are identical at every thread count. Decision strategies run
//!   sequentially.
//! * **State keys.** A strategy whose admissible candidates depend on more
//!   than `(C, conn)` (the strict-HD search couples to the parent
//!   separator's full vertex span) extends the memo key through
//!   [`WidthSolver::state_key`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arith::Rational;
use cover::{Claim, ShardedCache};
use decomp::{Decomposition, Node};
use hypergraph::{components, Hypergraph, VertexSet};
use prep::cancel::CancelToken;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};

/// Practical vertex limit for the subset-enumerating bag stream
/// ([`stream_subset_bags`]): it proposes every bag `conn ⊆ B ⊆ conn ∪ C`,
/// which is exponential in `|C|`. This gate does not bound the exact
/// range ([`exact::solve`] runs the edge-union engine and the elimination
/// DP); the subset stream survives as the small-instance cross-check,
/// [`exact::subset_oracle`].
pub const MAX_SUBSET_SEARCH_VERTICES: usize = 18;

/// Upper bound on worker threads per search, whatever the host reports.
const MAX_THREADS: usize = 8;

/// Candidates per minimizer round once a best is known. Rounds are the
/// engine's determinism unit: every candidate of one round is admitted
/// against the *same* bound snapshot (the best cost achieved in earlier
/// rounds), so which candidates get priced — and therefore every
/// [`SearchStats`] counter — is a pure function of the strategy,
/// independent of thread count and scheduling. Until the first success a
/// state probes with rounds of size 1 (see
/// `SearchContext::evaluate_rounds`). Smaller rounds tighten the prune
/// faster; larger rounds expose more parallelism. The value matches
/// [`MAX_THREADS`] (wider rounds would add staleness without adding
/// parallel width) and is deliberately *not* scaled by the actual thread
/// count (that would make the counters depend on it).
const ROUND: usize = 8;

/// Consecutive non-improving width-1 rounds required before a minimizer
/// state starts ramping its round size (see
/// `SearchContext::evaluate_rounds`): a cheap deterministic signal that
/// the bound has settled and fanning out will not price candidates a
/// sequential scan would have rejected.
const STREAK: usize = 4;

/// The worker-thread budget used by [`SearchContext::new`] when
/// [`EngineOptions::threads`] is `None`: the `HGTOOL_THREADS` environment
/// variable if set to a positive integer, otherwise the host parallelism,
/// either way capped at the engine maximum of 8.
///
/// Resolved once per process, at first use: probing the host parallelism
/// can read cgroup files, and a search context is built about once per
/// solve. Changing `HGTOOL_THREADS` after that first use has no effect.
pub fn default_thread_count() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let configured = std::env::var("HGTOOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(host);
        configured.min(MAX_THREADS)
    })
}

/// Scheduling and preprocessing options for a search.
///
/// `threads` configures the [`SearchContext`] proper;
/// `prep`/`reuse_prices`/`reuse_results` are consumed by the strategy
/// wrappers (the `_with_stats` entry points of the five width solvers),
/// which run the `prep` crate's simplification/block pipeline and the
/// fingerprint-keyed cross-call caches *around* the engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Worker-thread budget (`1` = strictly sequential). `None` picks
    /// [`default_thread_count`], resolved once per process. Values are
    /// clamped to `1..=8`.
    pub threads: Option<usize>,
    /// Run the width-preserving preprocessing pipeline (simplification
    /// passes + biconnected-block splitting where the strategy supports
    /// it) before the search, lifting the witness back to the original
    /// hypergraph. On by default; `HGTOOL_NO_PREP` (any value) overrides
    /// it off process-wide.
    pub prep: bool,
    /// Serve `ρ`/`ρ*` (and strategy-specific LP) prices from the
    /// process-lifetime cache keyed by hypergraph fingerprint, so repeated
    /// searches on one instance reuse prices across calls. Widths and
    /// witnesses are unaffected, but the `price_*` counters then depend on
    /// process history — [`EngineOptions::sequential`] and
    /// [`EngineOptions::with_threads`] leave it off so stats stay
    /// reproducible in tests.
    pub reuse_prices: bool,
    /// Serve whole queries — width, lifted witness and engine stats — from
    /// the process-lifetime result cache keyed by `(fingerprint, strategy,
    /// cutoff)`, and dedup identical in-flight requests to one search. A
    /// hit replays the original search's result and engine counters
    /// byte-for-byte; only the runtime counters (`result_cache_hits`,
    /// `inflight_dedup`, `pool_reuse`) reflect the current call. Off under
    /// [`EngineOptions::sequential`] / [`EngineOptions::with_threads`].
    pub reuse_results: bool,
}

impl Default for EngineOptions {
    /// Default scheduling: default thread count, preprocessing on,
    /// cross-call price and result reuse on.
    fn default() -> Self {
        EngineOptions {
            threads: None,
            prep: true,
            reuse_prices: true,
            reuse_results: true,
        }
    }
}

impl EngineOptions {
    /// Sequential execution (one worker, fresh per-search price caches —
    /// fully reproducible stats).
    pub fn sequential() -> Self {
        EngineOptions {
            threads: Some(1),
            prep: true,
            reuse_prices: false,
            reuse_results: false,
        }
    }

    /// A fixed worker budget (fresh per-search price caches — stats are
    /// identical at every thread count, which the determinism tests rely
    /// on).
    pub fn with_threads(threads: usize) -> Self {
        EngineOptions {
            threads: Some(threads),
            prep: true,
            reuse_prices: false,
            reuse_results: false,
        }
    }

    /// Disables the preprocessing pipeline (A/B debugging; also reachable
    /// via `hgtool widths --no-prep` and the `HGTOOL_NO_PREP` env var).
    pub fn without_prep(mut self) -> Self {
        self.prep = false;
        self
    }

    /// Enables the fingerprint-keyed cross-call price cache (see
    /// [`EngineOptions::reuse_prices`]).
    pub fn with_price_reuse(mut self) -> Self {
        self.reuse_prices = true;
        self
    }
}

/// A cheap combinatorial guess for one search node, produced by the
/// strategy's [`CandidateStream`] before any cover/LP pricing runs. A guess
/// is deliberately *cheap* — combinatorial payload only, no derived vertex
/// sets beyond what the enumerator had in hand — so that decision
/// strategies keep their first-success early exit: the per-candidate set
/// unions, covers and LPs all run lazily in [`WidthSolver::admit`].
#[derive(Clone, Debug)]
pub struct Guess {
    /// The chosen integral separator edges (`supp(λ)`), if the strategy
    /// works with explicit edge sets.
    pub edges: Vec<usize>,
    /// Strategy-specific vertex payload: the candidate bag for the subset
    /// strategies, the fractional shadow `W_s` for `frac-decomp`, the
    /// separator union for the strict-HD search, empty for `det-k-decomp`.
    pub extra: VertexSet,
}

/// The priced result of admitting a [`Guess`]: the separator geometry plus
/// its cost and witness edge weights.
#[derive(Clone, Debug)]
pub struct Admission<C> {
    /// Vertices removed when splitting the component. Children are the
    /// `[split]`-components inside the current component, and a child's
    /// connector is `split ∩ ⋃ edges(child)`.
    ///
    /// `det-k-decomp` splits on the *full* `V(S)` (this is what enforces the
    /// special condition); the GHD/FHD strategies split on the clipped bag.
    pub split: VertexSet,
    /// The candidate bag before witness clipping; the final bag of the
    /// assembled node is `bag ∩ (component ∪ parent bag)`.
    pub bag: VertexSet,
    /// The cost the engine minimizes (maximum over the witness tree).
    pub cost: C,
    /// Sparse edge weights `(edge, weight)` recorded on the witness node.
    pub weights: Vec<(usize, Rational)>,
}

/// One `(component, connector)` search state, handed to the strategy.
///
/// `Copy`: the state is three-plus-one borrows, cheap to capture by value
/// inside the closures that make up a lazy [`CandidateStream`].
#[derive(Clone, Copy)]
pub struct SearchState<'a> {
    /// The current component `C`.
    pub comp: &'a VertexSet,
    /// The visible part of the parent separator,
    /// `conn = sep ∩ ⋃ edges(C)` — must be covered by every candidate bag.
    pub conn: &'a VertexSet,
    /// `edges(C)`: indices of edges intersecting `C`.
    pub comp_edges: &'a [usize],
    /// The parent node's *full* split set (`V(S)` of the node above; empty
    /// at the root). Most strategies ignore it — `conn` is the part that
    /// matters for the cover condition — but strategies with a
    /// [`WidthSolver::state_key`] (the strict-HD search) read the trace of
    /// the parent separator beyond `conn` from here.
    pub parent_split: &'a VertexSet,
}

/// A pull-based, lazily evaluated stream of [`Guess`]es for one search
/// state. Strategies build it from closures/iterators that enumerate their
/// candidate space on demand; the engine pulls guesses one at a time
/// (decision strategies) or in bounded rounds (parallel minimizers), so the
/// enumeration never materializes more than the engine's current window.
pub struct CandidateStream<'a> {
    inner: Box<dyn Iterator<Item = Guess> + Send + 'a>,
}

impl<'a> CandidateStream<'a> {
    /// Wraps any (sendable) iterator of guesses.
    pub fn new<I>(iter: I) -> Self
    where
        I: Iterator<Item = Guess> + Send + 'a,
    {
        CandidateStream {
            inner: Box::new(iter),
        }
    }

    /// The empty stream (no candidates for this state).
    pub fn empty() -> Self {
        CandidateStream {
            inner: Box::new(std::iter::empty()),
        }
    }
}

impl Iterator for CandidateStream<'_> {
    type Item = Guess;

    fn next(&mut self) -> Option<Guess> {
        self.inner.next()
    }
}

/// A width-solver strategy: everything that distinguishes `det-k-decomp`
/// from the exact `ghw`/`fhw` searches, `frac-decomp` and the strict-HD
/// search.
///
/// `Sync` + `&self` methods: the engine calls [`WidthSolver::admit`] from
/// worker threads, so per-strategy caches must be interior-mutable and
/// thread-safe (see `cover::cache::ShardedCache`).
pub trait WidthSolver: Sync {
    /// Cost type of a node (edge count, `ρ`, `ρ*`, ...).
    type Cost: Ord + Clone + Send + Sync;

    /// Decision strategies stop at the first admitted candidate whose
    /// sub-components all decompose; minimizers exhaust the space.
    fn is_decision(&self) -> bool;

    /// Global cutoff: admitted candidates with `cost >= cutoff` are
    /// discarded, so the search fails iff every decomposition reaches it.
    fn cutoff(&self) -> Option<Self::Cost> {
        None
    }

    /// Declares whether [`WidthSolver::state_key`] can return `Some`. When
    /// `false` (the default) the engine skips the per-state derivation
    /// (`edges_intersecting` + the state-key call) on the memo-hit fast
    /// path, so hits cost one probe.
    fn has_state_key(&self) -> bool {
        false
    }

    /// Extra memo-key component for strategies whose candidate space
    /// depends on more of the parent context than `(comp, conn)`. The
    /// strict-HD search returns the strictness `allowed` trace
    /// (`comp ∪ (parent_split ∩ span(candidate edges))`); everyone else
    /// keeps the default `None`. Implementors must also override
    /// [`WidthSolver::has_state_key`].
    fn state_key(&self, h: &Hypergraph, state: SearchState<'_>) -> Option<VertexSet> {
        let _ = (h, state);
        None
    }

    /// Opens the lazy candidate stream for a state. Cheap per pulled
    /// guess: no covers, LPs or per-candidate unions here — those run in
    /// [`WidthSolver::admit`], which the engine calls lazily (decision
    /// strategies often stop long before the stream is dry).
    fn candidates<'a>(&'a self, h: &'a Hypergraph, state: SearchState<'a>) -> CandidateStream<'a>;

    /// Prices and validates a guess — the expensive per-candidate work
    /// (set unions, covers, LPs) lives here. Returns the separator
    /// geometry, cost and witness weights; `None` rejects the candidate.
    ///
    /// `bound` is a pruning contract, not a hint: the engine discards any
    /// admission with `cost >= bound` (it is the minimum of the strategy
    /// cutoff and the best cost achieved in *earlier rounds* for this
    /// state), so the strategy may return `None` without pricing whenever a
    /// cheap lower bound on the cost already reaches `bound`. Skipping this
    /// way never changes the computed width, and because the bound is a
    /// per-round snapshot it is identical at every thread count.
    fn admit(
        &self,
        h: &Hypergraph,
        state: SearchState<'_>,
        guess: &Guess,
        bound: Option<&Self::Cost>,
    ) -> Option<Admission<Self::Cost>>;
}

/// A successful node choice recorded during the search; the plan arena plus
/// the memo table are what [`SearchContext::assemble`] replays into the
/// witness decomposition.
#[derive(Clone, Debug)]
struct Plan<C> {
    bag: VertexSet,
    weights: Vec<(usize, Rational)>,
    children: Vec<(VertexSet, usize)>,
    #[allow(dead_code)]
    cost: C,
}

/// Engine counters, exposed through [`SearchContext::stats`] for tests,
/// `hgtool widths --stats` and the benchmark. The struct itself lives
/// in `prep` (so the prepare→solve→lift wrappers can fill the reduction
/// counters while staying below this crate) and is re-exported here; the
/// engine fills the state/candidate counters, the strategy wrappers merge
/// price-cache and candidate-generation tallies on top.
pub use prep::SearchStats;

pub mod exact;
pub mod runtime;
pub use runtime::{admission_estimate, solve_batch};

#[derive(Default)]
struct AtomicStats {
    streamed: AtomicUsize,
    admitted: AtomicUsize,
}

/// Counter increments accumulated locally and flushed on drop — one atomic
/// add per state instead of one per pulled candidate, on every exit path
/// (including cancellation unwinds).
struct Tally<'a> {
    counter: &'a AtomicUsize,
    pending: usize,
}

impl<'a> Tally<'a> {
    fn new(counter: &'a AtomicUsize) -> Self {
        Tally {
            counter,
            pending: 0,
        }
    }

    fn add(&mut self, n: usize) {
        self.pending += n;
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        if self.pending > 0 {
            self.counter.fetch_add(self.pending, Ordering::Relaxed);
        }
    }
}

/// Memo key: `(component, connector)` plus the optional strategy state key.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    comp: VertexSet,
    conn: VertexSet,
    skey: Option<VertexSet>,
}

/// The evaluation of this branch was interrupted: the ambient
/// [`CancelToken`] was canceled (a deadline struck or the caller gave up).
/// Never memoized — the partial work is abandoned and the state stays
/// re-claimable.
#[derive(Debug)]
struct Canceled;

/// A queued unit of work: claims candidate slots from the batch it was
/// advertised for. Receives the pool and the executing worker's index so
/// nested rounds push to the right deque. Jobs are `'static` — they hold
/// only weak `Arc`s into their batch, never borrows of a search's stack.
type Job = Box<dyn FnOnce(&'static SharedPool, usize) + Send>;

/// The deque index used by threads that are not pool workers (the thread
/// that called [`SearchContext::run`]): their advertisements go to the
/// shared injector deque instead of a worker-owned one.
const EXTERNAL: usize = usize::MAX;

/// The process-wide work-stealing pool shared by every concurrent search.
///
/// PR 3's pool was per-`run`: scoped threads spawned and joined around
/// every search, which priced thread spawns into each of the thousands of
/// small queries a batched workload runs. This pool is spawned lazily once
/// ([`shared_pool`]), its [`MAX_THREADS`] workers park between searches,
/// and any number of concurrent searches multiplex onto it — per-search
/// [`Permits`] keep each search within its own [`EngineOptions::threads`]
/// budget, so determinism per search is untouched.
///
/// One deque per worker plus one injector for external threads. Workers
/// pop their own deque LIFO (hot working set), then the injector, then
/// steal the *oldest* job of another worker (biggest pending subtrees
/// first).
struct SharedPool {
    queues: Vec<Mutex<VecDeque<Job>>>,
    injector: Mutex<VecDeque<Job>>,
    /// Sleep gate: pushers notify under this lock so parked workers cannot
    /// miss a wakeup. The pool never shuts down — idle workers just park.
    gate: Mutex<()>,
    wake: Condvar,
}

static POOL: OnceLock<SharedPool> = OnceLock::new();
static POOL_START: Once = Once::new();

/// The lazily started process-wide pool. The first call constructs it and
/// spawns its [`MAX_THREADS`] workers; every later call is a pointer read.
fn shared_pool() -> &'static SharedPool {
    let pool = POOL.get_or_init(|| SharedPool {
        queues: (0..MAX_THREADS)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect(),
        injector: Mutex::new(VecDeque::new()),
        gate: Mutex::new(()),
        wake: Condvar::new(),
    });
    POOL_START.call_once(|| {
        pool_metrics::handles().threads.set(MAX_THREADS as i64);
        for worker in 0..MAX_THREADS {
            std::thread::Builder::new()
                .name(format!("width-worker-{worker}"))
                .spawn(move || pool.worker_loop(worker))
                .expect("spawn pool worker");
        }
    });
    pool
}

/// True when the shared pool is already running — i.e. a search starting
/// now skips the pool spin-up entirely. Surfaced as the `pool_reuse`
/// runtime counter by the strategy wrappers.
pub fn pool_is_warm() -> bool {
    POOL.get().is_some()
}

impl SharedPool {
    /// Queues a job on `from`'s own deque (the injector for external
    /// threads) and wakes a parked worker.
    fn push(&self, from: usize, job: Job) {
        let queue = self.queues.get(from).unwrap_or(&self.injector);
        queue.lock().expect("pool queue poisoned").push_back(job);
        let _gate = self.gate.lock().expect("pool gate poisoned");
        self.wake.notify_all();
    }

    /// Pops `me`'s newest job, else an injected job, else steals the
    /// oldest job of another worker.
    fn grab(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.queues[me]
            .lock()
            .expect("pool queue poisoned")
            .pop_back()
        {
            return Some(job);
        }
        if let Some(job) = self
            .injector
            .lock()
            .expect("pool queue poisoned")
            .pop_front()
        {
            return Some(job);
        }
        let n = self.queues.len();
        for delta in 1..n {
            let victim = (me + delta) % n;
            if let Some(job) = self.queues[victim]
                .lock()
                .expect("pool queue poisoned")
                .pop_front()
            {
                return Some(job);
            }
        }
        None
    }

    fn has_queued(&self) -> bool {
        self.queues
            .iter()
            .chain(std::iter::once(&self.injector))
            .any(|q| !q.lock().expect("pool queue poisoned").is_empty())
    }

    /// The workers' loop: run jobs forever, parking whenever every deque is
    /// empty. Stale advertisements of finished searches fail their weak
    /// upgrade and drop in O(1).
    fn worker_loop(&'static self, me: usize) {
        loop {
            if let Some(job) = self.grab(me) {
                pool_metrics::handles().jobs.inc();
                job(self, me);
                continue;
            }
            let guard = self.gate.lock().expect("pool gate poisoned");
            // Re-check under the gate: a push between our failed grab and
            // this lock already notified (notifications happen under the
            // gate), so waiting here cannot miss it.
            if self.has_queued() {
                continue;
            }
            drop(self.wake.wait(guard).expect("pool gate poisoned"));
        }
    }
}

/// Per-search worker-budget accounting on the shared pool: a search with
/// `threads = t` hands out at most `t - 1` permits, so at most `t - 1`
/// pool workers help it at any moment (the calling thread is the t-th).
/// Acquisition is non-blocking — an advert popped with no permit left is a
/// no-op and the batch owner evaluates the slot itself — so budgets cannot
/// deadlock against each other, and each search sees at most its own
/// configured parallelism whatever else shares the pool.
struct Permits(AtomicUsize);

impl Permits {
    fn new(n: usize) -> Self {
        Permits(AtomicUsize::new(n))
    }

    fn acquire(&self) -> bool {
        let mut left = self.0.load(Ordering::Relaxed);
        while left > 0 {
            match self
                .0
                .compare_exchange_weak(left, left - 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => {
                    pool_metrics::handles().permits_in_use.add(1);
                    return true;
                }
                Err(now) => left = now,
            }
        }
        false
    }

    fn release(&self) {
        pool_metrics::handles().permits_in_use.sub(1);
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// Process-lifetime pool metrics, mirrored into the `obs` registry.
/// Observational only: scheduling never reads them.
mod pool_metrics {
    use obs::metrics::{counter, gauge, Counter, Gauge};
    use std::sync::{Arc, OnceLock};

    pub(super) struct Handles {
        /// Worker permits currently held across every in-flight search.
        pub permits_in_use: Arc<Gauge>,
        /// Worker threads of the shared pool (0 until the pool starts).
        pub threads: Arc<Gauge>,
        /// Jobs the pool workers have executed.
        pub jobs: Arc<Counter>,
    }

    pub(super) fn handles() -> &'static Handles {
        static HANDLES: OnceLock<Handles> = OnceLock::new();
        HANDLES.get_or_init(|| Handles {
            permits_in_use: gauge(
                "hgtool_pool_permits_in_use",
                "Shared-pool worker permits currently held by in-flight searches",
            ),
            threads: gauge(
                "hgtool_pool_threads",
                "Worker threads of the process-wide search pool (0 until first parallel search)",
            ),
            jobs: counter(
                "hgtool_pool_jobs_total",
                "Jobs executed by the shared pool workers",
            ),
        })
    }
}

/// Per-branch execution handle threaded through the recursion: where this
/// branch runs (shared pool + deque index) and which cancellation token
/// governs it.
struct Exec {
    pool: Option<&'static SharedPool>,
    worker: usize,
    cancel: Option<CancelToken>,
}

impl Exec {
    /// No pool, no cancellation: the sequential engine.
    fn sequential() -> Self {
        Exec {
            pool: None,
            worker: EXTERNAL,
            cancel: None,
        }
    }

    fn is_canceled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_canceled)
    }
}

/// A fully evaluated candidate: its achieved cost and recorded plan.
type Found<C> = (C, Plan<C>);

/// Outcome of evaluating one candidate. The engine's fan-out policy keys
/// on the `Rejected`/priced distinction: rounds whose candidates are all
/// bound-gated (`Rejected` without pricing) are pure scans not worth
/// dispatching to the pool.
enum Evaluated<C> {
    /// `admit` returned `None` (bound-gated or structurally hopeless) —
    /// no pricing ran.
    Rejected,
    /// Priced by the strategy, but discarded afterwards (engine checks,
    /// bound, or a failing sub-component).
    Admitted,
    /// Fully decomposed: cost and plan.
    Solved(Found<C>),
}

impl<C> Evaluated<C> {
    /// True iff the strategy actually priced the candidate.
    fn priced(&self) -> bool {
        !matches!(self, Evaluated::Rejected)
    }
}

/// The per-slot outcomes of one evaluation round, in stream order.
type RoundOutcome<C> = Vec<Option<Evaluated<C>>>;

/// One evaluation batch: a round of candidates of a single state, shared
/// with the pool via `Arc`. Workers claim slots through `cursor` (so an
/// advertisement popped after the batch is drained is a cheap no-op), write
/// into `results`, and the owner parks on `done` until every claimed slot
/// has finished. Owns a full [`Search`] handle plus clones of the state
/// sets — jobs outlive the owner's stack frame only through this `Arc`,
/// which is what keeps the whole pool free of `unsafe` even though the
/// pool itself now outlives every search.
struct BatchCtx<C, S> {
    search: Search<C, S>,
    comp: VertexSet,
    conn: VertexSet,
    parent_split: VertexSet,
    comp_edges: Vec<usize>,
    guesses: Vec<Guess>,
    /// The round's bound snapshot.
    bound: Option<C>,
    /// The cancellation token of the branch that owns the batch, if any.
    inherited: Option<CancelToken>,
    cursor: AtomicUsize,
    results: Mutex<RoundOutcome<C>>,
    /// Set when a slot was canceled: the whole batch result is then
    /// discarded as canceled.
    failed: AtomicBool,
    remaining: Mutex<usize>,
    done: Condvar,
}

impl<C, S> BatchCtx<C, S>
where
    C: Ord + Clone + Send + Sync + 'static,
    S: WidthSolver<Cost = C> + Send + Sync + 'static,
{
    /// Claims and evaluates candidate slots until the batch is drained.
    /// Runs on the owner and on any worker that popped an advertisement.
    fn work(&self, pool: &'static SharedPool, worker: usize) {
        let exec = Exec {
            pool: Some(pool),
            worker,
            cancel: self.inherited.clone(),
        };
        loop {
            let slot = self.cursor.fetch_add(1, Ordering::Relaxed);
            if slot >= self.guesses.len() {
                return;
            }
            let state = SearchState {
                comp: &self.comp,
                conn: &self.conn,
                comp_edges: &self.comp_edges,
                parent_split: &self.parent_split,
            };
            let outcome = if exec.is_canceled() {
                Err(Canceled)
            } else {
                self.search.evaluate_candidate(
                    state,
                    &self.guesses[slot],
                    self.bound.as_ref(),
                    &exec,
                )
            };
            match outcome {
                Ok(evaluated) => {
                    self.results.lock().expect("batch results poisoned")[slot] = Some(evaluated);
                }
                Err(Canceled) => self.failed.store(true, Ordering::Release),
            }
            let mut left = self.remaining.lock().expect("batch latch poisoned");
            *left -= 1;
            if *left == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Parks the owner until every slot has finished (slots claimed by
    /// thieves keep running on their workers).
    fn wait(&self) {
        let mut left = self.remaining.lock().expect("batch latch poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("batch latch poisoned");
        }
    }
}

/// The interior of a [`SearchContext`], shared with the pool through
/// `Arc`s: the memo, the plan arena, the counters and the scheduling
/// configuration. Everything a pool worker needs to keep evaluating a
/// search after the submitting call frame has moved on.
struct Core<C> {
    memo: ShardedCache<MemoKey, Option<(C, usize)>>,
    plans: Mutex<Vec<Plan<C>>>,
    stats: AtomicStats,
    /// Configured worker-thread budget (1 = sequential).
    threads: usize,
}

/// The shared search engine: memoized `(component, connector[, state key])`
/// recursion with witness assembly. The memo is a concurrent
/// [`ShardedCache`] with in-flight entry states — a state racing into
/// multiple workers is evaluated by exactly one while the others park on
/// it — and every search method takes `&self`, so worker threads recurse
/// through one context concurrently. The cache's hit/miss counters double
/// as the `memo_hits`/`states` stats (every miss becomes a computed state,
/// computed exactly once).
///
/// Parallel evaluation runs on the process-wide `SharedPool` (lazily
/// started on the first parallel search, reused by every search after it),
/// with per-search `Permits` capping how many pool workers help any one
/// search at its configured `threads` budget.
pub struct SearchContext<C> {
    core: Arc<Core<C>>,
}

/// One in-flight search: the engine core plus owned handles to the
/// hypergraph and strategy. `Clone` is four `Arc` bumps — every pool job
/// carries one of these (via its batch), which is what lets jobs be
/// `'static` on the shared pool without a single borrow of the submitting
/// stack frame.
struct Search<C, S> {
    core: Arc<Core<C>>,
    h: Arc<Hypergraph>,
    strategy: Arc<S>,
    /// Helper budget for this search (see [`Permits`]).
    permits: Arc<Permits>,
}

impl<C, S> Clone for Search<C, S> {
    fn clone(&self) -> Self {
        Search {
            core: Arc::clone(&self.core),
            h: Arc::clone(&self.h),
            strategy: Arc::clone(&self.strategy),
            permits: Arc::clone(&self.permits),
        }
    }
}

impl<C: Ord + Clone + Send + Sync + 'static> SearchContext<C> {
    /// A context with the default parallelism ([`default_thread_count`]).
    pub fn new() -> Self {
        Self::with_options(EngineOptions::default())
    }

    /// A context evaluating candidates on up to `threads` workers
    /// (`1` = strictly sequential; used by the determinism tests).
    pub fn with_threads(threads: usize) -> Self {
        Self::with_options(EngineOptions::with_threads(threads))
    }

    /// A context with explicit [`EngineOptions`]. A requested thread count
    /// of `0` is meaningless and clamps to `1` (debug builds assert).
    pub fn with_options(opts: EngineOptions) -> Self {
        let threads = match opts.threads {
            Some(n) => {
                debug_assert!(n > 0, "with_threads(0) is meaningless; it clamps to 1");
                n.clamp(1, MAX_THREADS)
            }
            None => default_thread_count(),
        };
        SearchContext {
            core: Arc::new(Core {
                memo: ShardedCache::new(),
                plans: Mutex::new(Vec::new()),
                stats: AtomicStats::default(),
                threads,
            }),
        }
    }

    /// The resolved worker-thread budget of this context.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Snapshot of the engine counters (the `price_*` fields are zero here;
    /// strategy wrappers merge their cache counters on top).
    pub fn stats(&self) -> SearchStats {
        let (memo_hits, states) = self.core.memo.counters();
        SearchStats {
            states,
            memo_hits,
            streamed: self.core.stats.streamed.load(Ordering::Relaxed),
            admitted: self.core.stats.admitted.load(Ordering::Relaxed),
            ..SearchStats::default()
        }
    }

    /// Decomposes the whole hypergraph with `strategy`; returns the achieved
    /// cost (maximum over nodes) and the witness.
    ///
    /// With `threads > 1` a parallel-capable search advertises its rounds
    /// on the process-wide `SharedPool` (started lazily on first use,
    /// then shared by every search in the process) while the calling
    /// thread works the rounds itself; `Permits` cap the helpers at
    /// `threads - 1` so results and stats match a dedicated `threads`-wide
    /// pool exactly.
    pub fn run<S>(&self, h: &Hypergraph, strategy: &Arc<S>) -> Option<(C, Decomposition)>
    where
        S: WidthSolver<Cost = C> + Send + Sync + 'static,
    {
        if h.num_vertices() == 0 {
            return None;
        }
        let root = h.all_vertices();
        let empty = VertexSet::new();
        let search = Search {
            core: Arc::clone(&self.core),
            h: Arc::new(h.clone()),
            strategy: Arc::clone(strategy),
            permits: Arc::new(Permits::new(self.core.threads.saturating_sub(1))),
        };
        // Decision strategies never push a job, so routing them through
        // the pool is pure overhead.
        let wants_pool = self.core.threads > 1 && !strategy.is_decision();
        // The ambient token (a serve deadline, a draining server) travels
        // with every branch, pool-side batches included.
        let exec = Exec {
            pool: wants_pool.then(shared_pool),
            worker: EXTERNAL,
            cancel: prep::cancel::current_cancel(),
        };
        let solved = search.solve_inner(&root, &empty, &empty, &exec);
        let entry = match solved {
            Ok(entry) => entry,
            // Only the ambient token can cancel the root branch; there is
            // no caller to hand `Canceled` back to, so unwind — the cache
            // claim guards abandon their entries on the way out and the
            // caller that installed the token catches the payload.
            Err(Canceled) => prep::cancel::interrupt::raise(),
        };
        let (cost, plan) = entry?;
        let d = self.assemble(&root, plan);
        Some((cost, d))
    }

    /// Solves one `(component, connector)` state sequentially: the minimum
    /// achievable maximum cost of a decomposition fragment covering `comp`
    /// whose apex bag contains `conn`, or `None` if none exists under the
    /// cutoff. Standalone entry point — [`SearchContext::run`] drives the
    /// same recursion through the worker pool.
    pub fn solve<S>(
        &self,
        h: &Hypergraph,
        strategy: &Arc<S>,
        comp: &VertexSet,
        conn: &VertexSet,
        parent_split: &VertexSet,
    ) -> Option<(C, usize)>
    where
        S: WidthSolver<Cost = C> + Send + Sync + 'static,
    {
        let search = Search {
            core: Arc::clone(&self.core),
            h: Arc::new(h.clone()),
            strategy: Arc::clone(strategy),
            permits: Arc::new(Permits::new(0)),
        };
        search
            .solve_inner(comp, conn, parent_split, &Exec::sequential())
            .expect("the sequential engine has no cancellation token")
    }

    /// Materializes the witness decomposition rooted at `plan`. The root bag
    /// is used as-is; below, bags are clipped to `component ∪ parent bag`
    /// (the witness-tree construction every strategy shares).
    fn assemble(&self, root_comp: &VertexSet, plan: usize) -> Decomposition {
        let plans = self.core.plans.lock().expect("plan arena poisoned");
        let p = &plans[plan];
        let root_bag = p.bag.intersection(root_comp);
        let mut d = Decomposition::new(Node {
            bag: root_bag.clone(),
            weights: p.weights.clone(),
        });
        for (sub, child) in &p.children {
            attach(&plans, &mut d, 0, &root_bag, *child, sub);
        }
        d
    }
}

impl<C, S> Search<C, S>
where
    C: Ord + Clone + Send + Sync + 'static,
    S: WidthSolver<Cost = C> + Send + Sync + 'static,
{
    /// The memoized recursion step: claim the state's memo entry (parking
    /// through another worker's in-flight evaluation), evaluating it only
    /// as the claim owner.
    fn solve_inner(
        &self,
        comp: &VertexSet,
        conn: &VertexSet,
        parent_split: &VertexSet,
        exec: &Exec,
    ) -> Result<Option<(C, usize)>, Canceled> {
        if exec.is_canceled() {
            return Err(Canceled);
        }
        let h = self.h.as_ref();
        if self.strategy.has_state_key() {
            // The memo key needs the derived state, so build it up front.
            let comp_edges = h.edges_intersecting(comp);
            let state = SearchState {
                comp,
                conn,
                comp_edges: &comp_edges,
                parent_split,
            };
            let key = MemoKey {
                comp: comp.clone(),
                conn: conn.clone(),
                skey: self.strategy.state_key(h, state),
            };
            match self.core.memo.claim(&key) {
                Claim::Hit(hit) => Ok(hit),
                Claim::Owner => self.compute_claimed(state, key, exec),
            }
        } else {
            // Fast path: claim on `(comp, conn)` alone — a memo hit costs
            // one probe, no edge scan.
            let key = MemoKey {
                comp: comp.clone(),
                conn: conn.clone(),
                skey: None,
            };
            match self.core.memo.claim(&key) {
                Claim::Hit(hit) => Ok(hit),
                Claim::Owner => {
                    let comp_edges = h.edges_intersecting(comp);
                    let state = SearchState {
                        comp,
                        conn,
                        comp_edges: &comp_edges,
                        parent_split,
                    };
                    self.compute_claimed(state, key, exec)
                }
            }
        }
    }

    /// Evaluates a state this branch owns the memo claim for, completing
    /// the entry with the result — or abandoning the claim on cancellation
    /// and unwind, so parked waiters re-claim instead of hanging.
    fn compute_claimed(
        &self,
        state: SearchState<'_>,
        key: MemoKey,
        exec: &Exec,
    ) -> Result<Option<(C, usize)>, Canceled> {
        struct Release<'r, C: Clone> {
            memo: &'r ShardedCache<MemoKey, Option<(C, usize)>>,
            key: Option<MemoKey>,
        }
        impl<C: Clone> Drop for Release<'_, C> {
            fn drop(&mut self) {
                if let Some(key) = self.key.take() {
                    self.memo.abandon(&key);
                }
            }
        }
        let mut release = Release {
            memo: &self.core.memo,
            key: Some(key),
        };
        // Observational only: the engine never reads the trace back, so
        // scheduling and counters are identical with tracing on or off.
        let _span = obs::span!("state", comp = state.comp.len(), conn = state.conn.len());
        let best = self.evaluate_state(state, exec)?;
        let entry = best.map(|(cost, plan)| {
            let mut plans = self.core.plans.lock().expect("plan arena poisoned");
            plans.push(plan);
            (cost, plans.len() - 1)
        });
        let key = release.key.take().expect("claim released exactly once");
        self.core.memo.complete(key, entry.clone());
        Ok(entry)
    }

    /// Dispatches a freshly claimed state to its evaluation mode.
    fn evaluate_state(
        &self,
        state: SearchState<'_>,
        exec: &Exec,
    ) -> Result<Option<(C, Plan<C>)>, Canceled> {
        let stream = self.strategy.candidates(&self.h, state);
        if self.strategy.is_decision() {
            self.evaluate_sequential(state, stream, exec)
        } else {
            self.evaluate_rounds(state, stream, exec)
        }
    }

    /// The sequential decision loop: pull, evaluate, return the first
    /// fully decomposing candidate.
    fn evaluate_sequential(
        &self,
        state: SearchState<'_>,
        stream: CandidateStream<'_>,
        exec: &Exec,
    ) -> Result<Option<(C, Plan<C>)>, Canceled> {
        let cutoff = self.strategy.cutoff();
        let mut streamed = Tally::new(&self.core.stats.streamed);
        for guess in stream {
            if exec.is_canceled() {
                return Err(Canceled);
            }
            streamed.add(1);
            if let Evaluated::Solved(found) =
                self.evaluate_candidate(state, &guess, cutoff.as_ref(), exec)?
            {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }

    /// The minimizer loop: exhaust the stream in rounds, each round
    /// admitted against the bound snapshot from the rounds before it. The
    /// snapshot makes every counter — and the first-minimum merge makes
    /// the witness — independent of scheduling.
    ///
    /// The round schedule is the engine's pruning/parallelism balance, and
    /// it is a deterministic function of the evaluation results alone:
    ///
    /// * **Probe.** While no candidate has fully decomposed — and again
    ///   whenever the previous round improved the best — rounds have size
    ///   1: the bound tightens after *every* candidate, exactly like a
    ///   plain sequential scan, so successes (cheap-first streams put them
    ///   early) immediately arm the strategy's pre-pricing gates. Fanning
    ///   out while the bound is still dropping would price candidates the
    ///   sequential engine rejects, exploding the descent.
    /// * **Ramp.** Only after [`STREAK`] consecutive non-improving
    ///   candidates does the round size start growing, by one per round up
    ///   to [`ROUND`]. Staleness costs nothing in a round without an
    ///   improvement, so long scans earn full width; improvement-dense
    ///   phases (fractional costs often descend in many small steps) stay
    ///   at width 1, so almost no candidate ever sees a stale bound.
    /// * **Fan-out.** A round goes to the pool only when the *previous*
    ///   round priced at least two candidates. Rounds the gates reject
    ///   wholesale are microsecond scans; dispatching them would cost more
    ///   than the scan itself.
    fn evaluate_rounds(
        &self,
        state: SearchState<'_>,
        mut stream: CandidateStream<'_>,
        exec: &Exec,
    ) -> Result<Option<(C, Plan<C>)>, Canceled> {
        let cutoff = self.strategy.cutoff();
        let mut streamed = Tally::new(&self.core.stats.streamed);
        let mut best: Option<(C, Plan<C>)> = None;
        let mut fan_out = false;
        let mut improving = true;
        let mut stable = 0usize;
        let mut want = 1usize;
        loop {
            if exec.is_canceled() {
                return Err(Canceled);
            }
            want = if improving {
                stable = 0;
                1
            } else if want == 1 && stable < STREAK {
                stable += 1;
                1
            } else {
                (want + 1).min(ROUND)
            };
            if want == 1 {
                // Allocation-free fast path: probing rounds dominate the
                // candidate count, so they run exactly like the plain
                // sequential loop.
                let Some(guess) = stream.next() else {
                    return Ok(best);
                };
                streamed.add(1);
                let bound = tighter(cutoff.as_ref(), best.as_ref().map(|(c, _)| c));
                let evaluated = self.evaluate_candidate(state, &guess, bound, exec)?;
                improving = best.is_none();
                if let Evaluated::Solved(found) = evaluated {
                    let improves = match &best {
                        None => true,
                        Some((cost, _)) => found.0 < *cost,
                    };
                    if improves {
                        best = Some(found);
                        improving = true;
                    }
                }
                fan_out = false;
                continue;
            }
            let mut batch = Vec::with_capacity(want);
            while batch.len() < want {
                let Some(guess) = stream.next() else { break };
                batch.push(guess);
            }
            if batch.is_empty() {
                return Ok(best);
            }
            streamed.add(batch.len());
            let bound = tighter(cutoff.as_ref(), best.as_ref().map(|(c, _)| c)).cloned();
            let results = self.evaluate_batch(state, batch, bound, fan_out, exec)?;
            // Results arrive in slot (= stream) order, so a strict `<`
            // keeps the earliest candidate among equal costs — the same
            // witness the sequential engine picks.
            let mut priced = 0usize;
            improving = best.is_none();
            for evaluated in results.into_iter().flatten() {
                if evaluated.priced() {
                    priced += 1;
                }
                if let Evaluated::Solved(found) = evaluated {
                    let improves = match &best {
                        None => true,
                        Some((cost, _)) => found.0 < *cost,
                    };
                    if improves {
                        best = Some(found);
                        improving = true;
                    }
                }
            }
            fan_out = priced >= 2;
        }
    }

    /// Evaluates one round of candidates: across the pool when the round
    /// policy asks for it (the owner claims slots too, then parks until
    /// thieves finish theirs), inline otherwise.
    fn evaluate_batch(
        &self,
        state: SearchState<'_>,
        guesses: Vec<Guess>,
        bound: Option<C>,
        fan_out: bool,
        exec: &Exec,
    ) -> Result<RoundOutcome<C>, Canceled> {
        let pool = match exec.pool {
            Some(pool) if fan_out && guesses.len() > 1 => pool,
            _ => {
                let mut out = Vec::with_capacity(guesses.len());
                for guess in &guesses {
                    if exec.is_canceled() {
                        return Err(Canceled);
                    }
                    out.push(Some(self.evaluate_candidate(
                        state,
                        guess,
                        bound.as_ref(),
                        exec,
                    )?));
                }
                return Ok(out);
            }
        };
        let slots = guesses.len();
        let ctx = Arc::new(BatchCtx {
            search: self.clone(),
            comp: state.comp.clone(),
            conn: state.conn.clone(),
            parent_split: state.parent_split.clone(),
            comp_edges: state.comp_edges.to_vec(),
            guesses,
            bound,
            inherited: exec.cancel.clone(),
            cursor: AtomicUsize::new(0),
            results: Mutex::new((0..slots).map(|_| None).collect()),
            failed: AtomicBool::new(false),
            remaining: Mutex::new(slots),
            done: Condvar::new(),
        });
        self.offer_and_work(pool, exec.worker, &ctx);
        if ctx.failed.load(Ordering::Acquire) {
            return Err(Canceled);
        }
        let results = std::mem::take(&mut *ctx.results.lock().expect("batch results poisoned"));
        Ok(results)
    }

    /// Advertises a batch to the pool (one job per slot a helper could
    /// take), works it on the calling thread, and parks until stolen slots
    /// finish.
    fn offer_and_work(&self, pool: &'static SharedPool, worker: usize, ctx: &Arc<BatchCtx<C, S>>) {
        let helpers = (ctx.guesses.len() - 1).min(self.core.threads - 1);
        for _ in 0..helpers {
            // Weak adverts: a queued job never extends the round's life.
            // Once the owner returns from wait() and drops its Arc, stale
            // adverts still sitting in a deque fail to upgrade and are
            // no-ops — the round's guesses and results free immediately
            // instead of lingering until some worker pops them. A helper
            // additionally needs one of the search's permits: the pool is
            // shared, and the permits are what cap this search's active
            // workers at its own `threads` budget (the batch owner claims
            // any slot no helper takes, so a skipped advert costs nothing
            // but parallelism).
            let advert = Arc::downgrade(ctx);
            pool.push(
                worker,
                Box::new(move |pool, me| {
                    if let Some(ctx) = advert.upgrade() {
                        if ctx.search.permits.acquire() {
                            ctx.work(pool, me);
                            ctx.search.permits.release();
                        }
                    }
                }),
            );
        }
        ctx.work(pool, worker);
        ctx.wait();
    }

    /// Admits one guess and, if it survives the structural checks, solves
    /// all sub-components; returns the candidate's achieved cost and plan.
    fn evaluate_candidate(
        &self,
        state: SearchState<'_>,
        guess: &Guess,
        bound: Option<&C>,
        exec: &Exec,
    ) -> Result<Evaluated<C>, Canceled> {
        let h = self.h.as_ref();
        // Admission runs first — it derives the separator geometry and
        // prices it, rejecting structurally or cost-wise hopeless guesses
        // without the engine ever materializing them.
        let Some(admission) = self.strategy.admit(h, state, guess, bound) else {
            return Ok(Evaluated::Rejected);
        };
        self.core.stats.admitted.fetch_add(1, Ordering::Relaxed);
        // Progress: the separator must eat into the component.
        if !admission.split.intersects(state.comp) {
            return Ok(Evaluated::Admitted);
        }
        // Cover condition: the connector must sit inside the bag.
        if !state.conn.is_subset(&admission.bag) {
            return Ok(Evaluated::Admitted);
        }
        if let Some(b) = bound {
            // Covers the strategy cutoff and the best-so-far prune alike:
            // max(cost, children) >= cost >= bound cannot improve.
            if &admission.cost >= b {
                return Ok(Evaluated::Admitted);
            }
        }
        // Split into sub-components and make sure no component edge is
        // lost: each edge of the region must lie inside the bag's span
        // or continue into exactly one sub-component.
        let subs: Vec<VertexSet> = components::components(h, &admission.split)
            .into_iter()
            .filter(|sub| sub.is_subset(state.comp))
            .collect();
        for &e in state.comp_edges {
            let edge = h.edge(e);
            if edge.is_subset(&admission.split) {
                continue;
            }
            let remainder = edge.difference(&admission.split);
            if !subs.iter().any(|sub| remainder.is_subset(sub)) {
                return Ok(Evaluated::Admitted);
            }
        }
        let mut total = admission.cost.clone();
        let mut children = Vec::with_capacity(subs.len());
        for sub in &subs {
            if exec.is_canceled() {
                return Err(Canceled);
            }
            let sub_edges = h.edges_intersecting(sub);
            let span = h.union_of_edges(sub_edges.iter().copied());
            let sub_conn = admission.split.intersection(&span);
            let Some((child_cost, child_plan)) =
                self.solve_inner(sub, &sub_conn, &admission.split, exec)?
            else {
                return Ok(Evaluated::Admitted);
            };
            total = total.max(child_cost);
            children.push((sub.clone(), child_plan));
        }
        Ok(Evaluated::Solved((
            total.clone(),
            Plan {
                bag: admission.bag,
                weights: admission.weights,
                children,
                cost: total,
            },
        )))
    }
}

fn attach<C>(
    plans: &[Plan<C>],
    d: &mut Decomposition,
    parent: usize,
    parent_bag: &VertexSet,
    plan: usize,
    comp: &VertexSet,
) {
    let p = &plans[plan];
    let bag = p.bag.intersection(&comp.union(parent_bag));
    let id = d.add_child(
        parent,
        Node {
            bag: bag.clone(),
            weights: p.weights.clone(),
        },
    );
    for (sub, child) in &p.children {
        attach(plans, d, id, &bag, *child, sub);
    }
}

/// The tighter of the cutoff and the best-so-far cost — the engine's
/// discard bound for new admissions.
fn tighter<'a, C: Ord>(cutoff: Option<&'a C>, best: Option<&'a C>) -> Option<&'a C> {
    match (cutoff, best) {
        (None, None) => None,
        (Some(c), None) => Some(c),
        (None, Some(b)) => Some(b),
        (Some(c), Some(b)) => Some(c.min(b)),
    }
}

impl<C: Ord + Clone + Send + Sync + 'static> Default for SearchContext<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Streams every bag `conn ⊆ B ⊆ conn ∪ C` (smallest first) as the `extra`
/// payload — the candidate space of the `ghw`/`fhw` subset oracles, which
/// price bags by `ρ` / `ρ*` at admission and split on the bag itself.
/// Empty when the component exceeds [`MAX_SUBSET_SEARCH_VERTICES`].
///
/// Lazy: each pull advances one Gosper-hack mask, so the `2^|C| - 1` bags
/// are never materialized; small bags come first, which finds cheap covers
/// early and tightens the engine's best-so-far prune.
pub fn stream_subset_bags<'a>(state: SearchState<'a>) -> CandidateStream<'a> {
    let free: Vec<usize> = state.comp.to_vec();
    let m = free.len();
    if m == 0 || m > MAX_SUBSET_SEARCH_VERTICES {
        return CandidateStream::empty();
    }
    let conn = state.conn.clone();
    let limit: u64 = 1u64 << m;
    let mut size = 1usize;
    let mut mask: u64 = 1;
    // Two-block fast path: when the connector and every free vertex fit
    // the inline representation (vertices `< 128` — the entire exact
    // subset-search regime), each bag is accumulated in two registers and
    // materialized with `from_two_blocks` — no clone, no per-member
    // branches. This loop builds every candidate the subset oracles stream.
    if let (Some((c0, c1)), true) = (state.conn.two_blocks(), free.iter().all(|&v| v < 128)) {
        let masks: Vec<(u64, u64)> = free
            .iter()
            .map(|&v| {
                if v < 64 {
                    (1u64 << v, 0)
                } else {
                    (0, 1u64 << (v - 64))
                }
            })
            .collect();
        return CandidateStream::new(std::iter::from_fn(move || {
            while size <= m {
                if mask < limit {
                    let cur = mask;
                    // Next mask of the same popcount (Gosper's hack; exits
                    // the popcount class via `mask < limit`).
                    let low = cur & cur.wrapping_neg();
                    let ripple = cur + low;
                    mask = (((ripple ^ cur) >> 2) / low) | ripple;
                    let (mut b0, mut b1) = (c0, c1);
                    let mut bits = cur;
                    while bits != 0 {
                        let (m0, m1) = masks[bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                        b0 |= m0;
                        b1 |= m1;
                    }
                    return Some(Guess {
                        edges: Vec::new(),
                        extra: VertexSet::from_two_blocks(b0, b1),
                    });
                }
                size += 1;
                mask = (1u64 << size) - 1;
            }
            None
        }));
    }
    // General path (vertices beyond the inline range): each free vertex as
    // its (block, bit) pair, one OR per subset member.
    let free_bits: Vec<(usize, u64)> = free.iter().map(|&v| (v / 64, 1u64 << (v % 64))).collect();
    CandidateStream::new(std::iter::from_fn(move || {
        while size <= m {
            if mask < limit {
                let cur = mask;
                // Next mask of the same popcount (Gosper's hack; exits the
                // popcount class via `mask < limit`).
                let low = cur & cur.wrapping_neg();
                let ripple = cur + low;
                mask = (((ripple ^ cur) >> 2) / low) | ripple;
                let mut bag = conn.clone();
                let mut bits = cur;
                while bits != 0 {
                    let (block, bit) = free_bits[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    bag.insert_mask_block(block, bit);
                }
                return Some(Guess {
                    edges: Vec::new(),
                    extra: bag,
                });
            }
            size += 1;
            mask = (1u64 << size) - 1;
        }
        None
    }))
}

/// Lazily enumerates all subsets of `items` with `1 <= size <= max_size` in
/// order of increasing size (small separators first — the order every
/// strategy wants), lexicographic within a size. Shared by the
/// edge-separator strategies; the streaming replacement for the retired
/// eager `subsets_up_to`.
pub fn stream_subsets_up_to<T: Copy + Send>(
    items: Vec<T>,
    max_size: usize,
) -> impl Iterator<Item = Vec<T>> + Send {
    let max_size = max_size.min(items.len());
    // Combination odometer: `idx` holds the current positions for the
    // current size; advancing finds the rightmost index that can move.
    let mut size = 1usize;
    let mut idx: Vec<usize> = Vec::new();
    let mut fresh = true;
    std::iter::from_fn(move || loop {
        if size > max_size || items.is_empty() {
            return None;
        }
        if fresh {
            idx = (0..size).collect();
            fresh = false;
            return Some(idx.iter().map(|&i| items[i]).collect());
        }
        // Advance the odometer.
        let n = items.len();
        let mut pos = size;
        loop {
            if pos == 0 {
                size += 1;
                fresh = true;
                break;
            }
            pos -= 1;
            if idx[pos] < n - (size - pos) {
                idx[pos] += 1;
                for j in pos + 1..size {
                    idx[j] = idx[j - 1] + 1;
                }
                return Some(idx.iter().map(|&i| items[i]).collect());
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy decision strategy: bags are single full edges (width-1 HD
    /// search), enough to exercise the engine plumbing end to end.
    struct SingleEdge;

    impl WidthSolver for SingleEdge {
        type Cost = usize;

        fn is_decision(&self) -> bool {
            true
        }

        fn candidates<'a>(
            &'a self,
            _h: &'a Hypergraph,
            state: SearchState<'a>,
        ) -> CandidateStream<'a> {
            CandidateStream::new(state.comp_edges.iter().map(|&e| Guess {
                edges: vec![e],
                extra: VertexSet::new(),
            }))
        }

        fn admit(
            &self,
            h: &Hypergraph,
            _state: SearchState<'_>,
            guess: &Guess,
            _bound: Option<&usize>,
        ) -> Option<Admission<usize>> {
            let vs = h.union_of_edges(guess.edges.iter().copied());
            Some(Admission {
                split: vs.clone(),
                bag: vs,
                cost: guess.edges.len(),
                weights: guess.edges.iter().map(|&e| (e, Rational::one())).collect(),
            })
        }
    }

    /// A minimizing variant of [`SingleEdge`] whose cost is the bag size —
    /// exercises the round-based pool evaluation path (minimizers fan out).
    struct SmallestEdge;

    impl WidthSolver for SmallestEdge {
        type Cost = usize;

        fn is_decision(&self) -> bool {
            false
        }

        fn candidates<'a>(
            &'a self,
            _h: &'a Hypergraph,
            state: SearchState<'a>,
        ) -> CandidateStream<'a> {
            CandidateStream::new(state.comp_edges.iter().map(|&e| Guess {
                edges: vec![e],
                extra: VertexSet::new(),
            }))
        }

        fn admit(
            &self,
            h: &Hypergraph,
            _state: SearchState<'_>,
            guess: &Guess,
            bound: Option<&usize>,
        ) -> Option<Admission<usize>> {
            let vs = h.union_of_edges(guess.edges.iter().copied());
            let cost = vs.len();
            if let Some(b) = bound {
                if &cost >= b {
                    return None;
                }
            }
            Some(Admission {
                split: vs.clone(),
                bag: vs,
                cost,
                weights: guess.edges.iter().map(|&e| (e, Rational::one())).collect(),
            })
        }
    }

    fn path(n: usize) -> Hypergraph {
        Hypergraph::from_edges(n, (0..n - 1).map(|i| vec![i, i + 1]).collect())
    }

    fn triangle() -> Hypergraph {
        Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]])
    }

    #[test]
    fn acyclic_instances_decompose_with_single_edges() {
        let h = path(5);
        let cx = SearchContext::new();
        let (cost, d) = cx.run(&h, &Arc::new(SingleEdge)).expect("paths have hw 1");
        assert_eq!(cost, 1);
        assert_eq!(decomp::validate_hd(&h, &d), Ok(()), "{}", d.render(&h));
        assert!(cx.stats().states > 0);
    }

    #[test]
    fn cyclic_instances_fail_with_single_edges() {
        let h = triangle();
        let cx = SearchContext::new();
        assert!(cx.run(&h, &Arc::new(SingleEdge)).is_none());
    }

    #[test]
    fn memo_is_keyed_on_component_and_connector() {
        // A star: every leaf component after removing the center edge is a
        // fresh state; re-solving the same hypergraph reuses the memo.
        let h = Hypergraph::from_edges(4, vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
        let cx = SearchContext::new();
        cx.run(&h, &Arc::new(SingleEdge)).expect("stars have hw 1");
        let states = cx.stats().states;
        cx.run(&h, &Arc::new(SingleEdge)).expect("second run");
        assert_eq!(cx.stats().states, states, "second run is all memo hits");
        assert!(cx.stats().memo_hits > 0);
    }

    #[test]
    fn decision_streams_stop_at_the_first_witness() {
        // A path decomposes with the very first candidates; far fewer
        // guesses must be pulled than the full per-state edge count.
        let h = path(6);
        let cx = SearchContext::new();
        cx.run(&h, &Arc::new(SingleEdge)).expect("paths have hw 1");
        let stats = cx.stats();
        assert!(
            stats.streamed <= stats.states * 3,
            "decision search pulled {} guesses over {} states",
            stats.streamed,
            stats.states
        );
    }

    #[test]
    fn parallel_and_sequential_minimization_agree() {
        for n in 3..7 {
            let h = path(n);
            let seq = SearchContext::with_threads(1)
                .run(&h, &Arc::new(SmallestEdge))
                .map(|(c, _)| c);
            let par = SearchContext::with_threads(4)
                .run(&h, &Arc::new(SmallestEdge))
                .map(|(c, _)| c);
            assert_eq!(seq, par, "path({n})");
        }
        let h = triangle();
        let seq = SearchContext::with_threads(1)
            .run(&h, &Arc::new(SmallestEdge))
            .map(|(c, _)| c);
        let par = SearchContext::with_threads(4)
            .run(&h, &Arc::new(SmallestEdge))
            .map(|(c, _)| c);
        assert_eq!(seq, par, "triangle");
    }

    #[test]
    fn stats_and_witnesses_are_thread_count_invariant() {
        // The in-flight memo dedup plus round-snapshot bounds make every
        // counter — and the first-minimum merge makes the witness — a pure
        // function of the strategy, whatever the worker count.
        for n in [4usize, 6, 9] {
            let h = path(n);
            let seq = SearchContext::with_threads(1);
            let baseline = seq.run(&h, &Arc::new(SmallestEdge));
            for threads in [2usize, 4, 8] {
                let par = SearchContext::with_threads(threads);
                let result = par.run(&h, &Arc::new(SmallestEdge));
                assert_eq!(baseline, result, "path({n}) at {threads} threads");
                assert_eq!(
                    seq.stats(),
                    par.stats(),
                    "path({n}) stats at {threads} threads"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "with_threads(0) is meaningless")
    )]
    fn with_threads_zero_clamps_to_one() {
        // Debug builds assert on the nonsensical request; release builds
        // clamp to a well-defined sequential context.
        let cx = SearchContext::<usize>::with_threads(0);
        assert_eq!(cx.threads(), 1);
    }

    #[test]
    fn default_thread_count_is_positive_and_capped() {
        let n = default_thread_count();
        assert!((1..=8).contains(&n));
    }

    #[test]
    fn subset_stream_orders_by_size() {
        let subs: Vec<Vec<i32>> = stream_subsets_up_to(vec![1, 2, 3], 2).collect();
        assert_eq!(
            subs,
            vec![
                vec![1],
                vec![2],
                vec![3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(stream_subsets_up_to::<i32>(Vec::new(), 3).count(), 0);
        // Full powerset (minus the empty set) when max_size >= len.
        assert_eq!(stream_subsets_up_to(vec![1, 2, 3, 4], 9).count(), 15);
    }

    #[test]
    fn subset_bag_stream_is_lazy_and_complete() {
        let comp = VertexSet::from_iter([0, 1, 2]);
        let conn = VertexSet::new();
        let edges: Vec<usize> = Vec::new();
        let parent = VertexSet::new();
        let state = SearchState {
            comp: &comp,
            conn: &conn,
            comp_edges: &edges,
            parent_split: &parent,
        };
        let bags: Vec<VertexSet> = stream_subset_bags(state).map(|g| g.extra).collect();
        assert_eq!(bags.len(), 7, "2^3 - 1 bags");
        // Ordered by size.
        let sizes: Vec<usize> = bags.iter().map(|b| b.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
        // All distinct.
        let set: std::collections::HashSet<_> = bags.iter().map(|b| b.to_vec()).collect();
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn empty_hypergraph_refused() {
        let h = Hypergraph::from_edges(0, vec![]);
        assert!(SearchContext::new()
            .run(&h, &Arc::new(SingleEdge))
            .is_none());
    }
}
