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
//! Four engine properties the strategies rely on:
//!
//! * **Streaming.** Candidates are pulled one at a time from a lazy
//!   [`CandidateStream`]; nothing is materialized ahead of the cursor, so
//!   decision strategies run in `O(depth)` candidate memory and
//!   short-circuit on the first witness.
//! * **One thread.** A search is one memoized recursion on the calling
//!   thread. A minimizer admits each candidate against the tighter of the
//!   cutoff and the best cost found so far in its state, so the bound
//!   tightens after every candidate, and the first candidate in stream
//!   order that reaches the minimum is the witness.
//! * **State keys.** A strategy whose admissible candidates depend on more
//!   than `(C, conn)` (the strict-HD search couples to the parent
//!   separator's full vertex span) extends the memo key through
//!   [`WidthSolver::state_key`].
//! * **Cancellation as unwind.** The engine polls the ambient
//!   [`CancelToken`] (`prep::cancel`) on entry to every state, between
//!   candidates and before each child descent, and raises the interrupt
//!   unwind where it sees it canceled, as the elimination DP does; no
//!   state it passes is stored.
//!
//! The width queries' one front door, [`exact::Instance::front_door`],
//! owns the cross-call result cache and the engine's counters in the
//! `obs` registry; the decision checks built on this engine run uncached.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arith::Rational;
use decomp::{Decomposition, Node};
use hypergraph::fx::FxHashMap;
use hypergraph::{components, Hypergraph, VertexSet};
use prep::cancel::CancelToken;

/// Practical vertex limit for the subset-enumerating bag stream
/// ([`stream_subset_bags`]): it proposes every bag `conn ⊆ B ⊆ conn ∪ C`,
/// which is exponential in `|C|`. This gate does not bound the exact
/// range ([`exact::solve`] runs the elimination DP up to 24 vertices and
/// the edge-union engine past them); the subset stream survives as the
/// small-instance cross-check, [`exact::subset_oracle`].
pub const MAX_SUBSET_SEARCH_VERTICES: usize = 18;

/// Always 1: every search runs on the calling thread. Inert, like
/// [`EngineOptions::threads`]; the benchmark harness still records it.
pub fn default_thread_count() -> usize {
    1
}

/// Preprocessing and caching options for a search.
///
/// `prep` is consumed by the strategy wrappers (the `_with_stats` entry
/// points of the width solvers and decision checks), which run the `prep`
/// crate's simplification/block pipeline *around* the engine;
/// `reuse_results` only by the width queries' front door
/// ([`exact::Instance::front_door`]). Price memos are private to each
/// search under every option, so the `price_*` counters are that search's
/// own.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Has no effect: every search runs on the calling thread. Kept only
    /// because the benchmark harness still records it.
    pub threads: Option<usize>,
    /// Run the width-preserving preprocessing pipeline (simplification
    /// passes + biconnected-block splitting where the strategy supports
    /// it) before the search, lifting the witness back to the original
    /// hypergraph. On by default; this flag alone decides it.
    pub prep: bool,
    /// Serve whole width queries (`hw`, `ghw`, `fhw`) — width, lifted
    /// witness and engine stats — from the process-lifetime result cache
    /// keyed by `(instance, measure, parameters)`; this flag alone decides
    /// whether the cache is consulted. A hit replays the original search's
    /// result and engine counters byte-for-byte; only the runtime counter
    /// `result_cache_hits` reflects the current call. Two threads that miss
    /// one query at once both search, and the cache keeps one answer. No
    /// other entry point reads it: the decision checks
    /// (`check_hd`, `check_fhd_bdp`, `frac_decomp`) and the references
    /// (`solve_by_elimination`, the upper bounds and subset oracles) search
    /// on every call. Off under [`EngineOptions::sequential`].
    pub reuse_results: bool,
}

impl Default for EngineOptions {
    /// Preprocessing on, cross-call result reuse on.
    fn default() -> Self {
        EngineOptions {
            threads: None,
            prep: true,
            reuse_results: true,
        }
    }
}

impl EngineOptions {
    /// No result reuse: every call searches, so its stats are its own
    /// (what the determinism tests and cross-checks compare).
    pub fn sequential() -> Self {
        EngineOptions {
            reuse_results: false,
            ..Self::default()
        }
    }

    /// Disables the preprocessing pipeline (A/B debugging; also reachable
    /// via `hgtool widths --no-prep`).
    pub fn without_prep(mut self) -> Self {
        self.prep = false;
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

/// The priced result of admitting a [`Guess`]: the candidate bag plus its
/// cost and witness edge weights.
#[derive(Clone, Debug)]
pub struct Admission<C> {
    /// The candidate bag before witness clipping, which the component
    /// splits on: children are the `[bag]`-components inside the current
    /// component, and a child's connector is `bag ∩ ⋃ edges(child)`. The
    /// engine clips only at assembly, where the node's bag becomes
    /// `bag ∩ (component ∪ parent bag)`; `det-k-decomp` splitting on the
    /// full `V(S)` is what enforces the special condition.
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
    /// The parent node's *full* (unclipped) bag, which split the parent
    /// component (`V(S)` of the node above; empty at the root). Most
    /// strategies ignore it — `conn` is the part that matters for the
    /// cover condition — but strategies with a [`WidthSolver::state_key`]
    /// (the strict-HD search) read the trace of the parent separator beyond
    /// `conn` from here.
    pub parent_split: &'a VertexSet,
}

/// A pull-based, lazily evaluated stream of [`Guess`]es for one search
/// state. Strategies build it from closures/iterators that enumerate their
/// candidate space on demand; the engine pulls guesses one at a time, so
/// the enumeration never materializes ahead of the cursor.
pub struct CandidateStream<'a> {
    inner: Box<dyn Iterator<Item = Guess> + 'a>,
}

impl<'a> CandidateStream<'a> {
    /// Wraps any iterator of guesses.
    pub fn new<I>(iter: I) -> Self
    where
        I: Iterator<Item = Guess> + 'a,
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
pub trait WidthSolver {
    /// Cost type of a node (edge count, `ρ`, `ρ*`, ...).
    type Cost: Ord + Clone;

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
    /// admission with `cost >= bound` (it is the tighter of the strategy
    /// cutoff and the best cost among this state's earlier candidates), so
    /// the strategy may return `None` without pricing whenever a cheap
    /// lower bound on the cost already reaches `bound`. Skipping this way
    /// never changes the computed width.
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
struct Plan {
    bag: VertexSet,
    weights: Vec<(usize, Rational)>,
    children: Vec<(VertexSet, usize)>,
}

/// Engine counters, exposed through [`SearchContext::stats`] for tests,
/// `hgtool widths --stats` and the benchmark. The struct itself lives
/// in `prep` (so the prepare→solve→lift wrappers can fill the reduction
/// counters while staying below this crate) and is re-exported here; the
/// engine fills the state/candidate counters, the strategy wrappers merge
/// price-memo and candidate-generation tallies on top.
pub use prep::SearchStats;

pub mod exact;

/// Memo key: `(component, connector)` plus the optional strategy state key.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    comp: VertexSet,
    conn: VertexSet,
    skey: Option<VertexSet>,
}

/// The shared search engine: memoized `(component, connector[, state key])`
/// recursion with witness assembly, on the calling thread. Each state is
/// computed once per context — a child is a strictly smaller component, so
/// a state is never re-entered while it is being computed — and every
/// later visit is a memo hit. The memo and the plan arena persist across
/// [`SearchContext::run`] calls.
pub struct SearchContext<C> {
    memo: FxHashMap<MemoKey, Option<(C, usize)>>,
    plans: Vec<Plan>,
    /// The engine's counters: `states`, `memo_hits`, `streamed` and
    /// `admitted`.
    stats: SearchStats,
}

impl<C: Ord + Clone> SearchContext<C> {
    /// An empty context.
    pub fn new() -> Self {
        SearchContext {
            memo: FxHashMap::default(),
            plans: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    /// Snapshot of the engine counters (the `price_*` fields are zero here;
    /// strategy wrappers merge their cache counters on top).
    pub fn stats(&self) -> SearchStats {
        self.stats.clone()
    }

    /// Decomposes the whole hypergraph with `strategy`; returns the achieved
    /// cost (maximum over nodes) and the witness.
    pub fn run<S>(&mut self, h: &Hypergraph, strategy: &S) -> Option<(C, Decomposition)>
    where
        S: WidthSolver<Cost = C>,
    {
        if h.num_vertices() == 0 {
            return None;
        }
        let root = h.all_vertices();
        let empty = VertexSet::new();
        let mut search = Search {
            cx: self,
            h,
            strategy,
            // The ambient token (a serve deadline, a draining server)
            // governs every branch.
            cancel: prep::cancel::current_cancel(),
        };
        let (cost, plan) = search.solve(&root, &empty, &empty)?;
        Some((cost, self.assemble(&root, plan)))
    }

    /// Materializes the witness decomposition rooted at `plan`. The root bag
    /// is used as-is; below, bags are clipped to `component ∪ parent bag`
    /// (the witness-tree construction every strategy shares).
    fn assemble(&self, root_comp: &VertexSet, plan: usize) -> Decomposition {
        let p = &self.plans[plan];
        let root_bag = p.bag.intersection(root_comp);
        let mut d = Decomposition::new(Node {
            bag: root_bag.clone(),
            weights: p.weights.clone(),
        });
        for (sub, child) in &p.children {
            attach(&self.plans, &mut d, 0, &root_bag, *child, sub);
        }
        d
    }
}

/// One [`SearchContext::run`]: the context it fills, with the hypergraph,
/// the strategy and the cancellation token of the run.
struct Search<'a, C, S> {
    cx: &'a mut SearchContext<C>,
    h: &'a Hypergraph,
    strategy: &'a S,
    cancel: Option<CancelToken>,
}

impl<C: Ord + Clone, S: WidthSolver<Cost = C>> Search<'_, C, S> {
    /// Raises the interrupt unwind once the ambient token is canceled (a
    /// deadline struck or the caller gave up), as the elimination DP does
    /// where it polls. The unwind leaves every state it passes unstored,
    /// so partial work is never memoized; the caller that installed the
    /// token catches the payload.
    fn poll(&self) {
        if self.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
            prep::cancel::interrupt::raise();
        }
    }

    /// The memoized recursion step: the minimum achievable maximum cost of
    /// a decomposition fragment covering `comp` whose apex bag contains
    /// `conn`, with its plan, or `None` if none exists under the cutoff.
    fn solve(
        &mut self,
        comp: &VertexSet,
        conn: &VertexSet,
        parent_split: &VertexSet,
    ) -> Option<(C, usize)> {
        self.poll();
        let (h, strategy) = (self.h, self.strategy);
        // A state key needs the derived state, so only then does the edge
        // scan precede the memo probe: without one, a hit costs one probe.
        let mut comp_edges = None;
        let skey = if strategy.has_state_key() {
            let edges = h.edges_intersecting(comp);
            let state = SearchState {
                comp,
                conn,
                comp_edges: &edges,
                parent_split,
            };
            let skey = strategy.state_key(h, state);
            comp_edges = Some(edges);
            skey
        } else {
            None
        };
        let key = MemoKey {
            comp: comp.clone(),
            conn: conn.clone(),
            skey,
        };
        if let Some(hit) = self.cx.memo.get(&key) {
            self.cx.stats.memo_hits += 1;
            return hit.clone();
        }
        self.cx.stats.states += 1;
        let comp_edges = comp_edges.unwrap_or_else(|| h.edges_intersecting(comp));
        let state = SearchState {
            comp,
            conn,
            comp_edges: &comp_edges,
            parent_split,
        };
        // Observational only: the engine never reads the trace back, so
        // the search and its counters are identical with tracing on or off.
        let _span = obs::span!("state", comp = comp.len(), conn = conn.len());
        let entry = self.evaluate_state(state).map(|(cost, plan)| {
            self.cx.plans.push(plan);
            (cost, self.cx.plans.len() - 1)
        });
        self.cx.memo.insert(key, entry.clone());
        entry
    }

    /// Scans the state's candidate stream one candidate at a time, each
    /// admitted against the tighter of the cutoff and the best cost found
    /// so far in this state. A decision strategy returns its first fully
    /// decomposing candidate; a minimizer keeps the first candidate in
    /// stream order that reaches the minimum (only a strictly cheaper one
    /// replaces the best).
    fn evaluate_state(&mut self, state: SearchState<'_>) -> Option<(C, Plan)> {
        let (h, strategy) = (self.h, self.strategy);
        let cutoff = strategy.cutoff();
        let mut best: Option<(C, Plan)> = None;
        for guess in strategy.candidates(h, state) {
            self.poll();
            self.cx.stats.streamed += 1;
            let bound = tighter(cutoff.as_ref(), best.as_ref().map(|(cost, _)| cost));
            let Some(found) = self.evaluate_candidate(state, &guess, bound) else {
                continue;
            };
            if strategy.is_decision() {
                return Some(found);
            }
            if best.as_ref().is_none_or(|(cost, _)| found.0 < *cost) {
                best = Some(found);
            }
        }
        best
    }

    /// Admits one guess and, if it survives the structural checks, solves
    /// all sub-components; returns the candidate's achieved cost and plan,
    /// or `None` when it is rejected or a sub-component fails.
    fn evaluate_candidate(
        &mut self,
        state: SearchState<'_>,
        guess: &Guess,
        bound: Option<&C>,
    ) -> Option<(C, Plan)> {
        let h = self.h;
        // Admission runs first — it derives the separator geometry and
        // prices it, rejecting structurally or cost-wise hopeless guesses
        // without the engine ever materializing them.
        let admission = self.strategy.admit(h, state, guess, bound)?;
        self.cx.stats.admitted += 1;
        let bag = &admission.bag;
        // Progress: the separator must eat into the component.
        if !bag.intersects(state.comp) {
            return None;
        }
        // Cover condition: the connector must sit inside the bag.
        if !state.conn.is_subset(bag) {
            return None;
        }
        // Covers the strategy cutoff and the best-so-far prune alike:
        // max(cost, children) >= cost >= bound cannot improve.
        if bound.is_some_and(|b| admission.cost >= *b) {
            return None;
        }
        // Split into sub-components and make sure no component edge is
        // lost: each edge of the region must lie inside the bag's span
        // or continue into exactly one sub-component.
        let subs: Vec<VertexSet> = components::components(h, bag)
            .into_iter()
            .filter(|sub| sub.is_subset(state.comp))
            .collect();
        for &e in state.comp_edges {
            let edge = h.edge(e);
            if edge.is_subset(bag) {
                continue;
            }
            let remainder = edge.difference(bag);
            if !subs.iter().any(|sub| remainder.is_subset(sub)) {
                return None;
            }
        }
        let mut total = admission.cost;
        let mut children = Vec::with_capacity(subs.len());
        for sub in subs {
            self.poll();
            let sub_edges = h.edges_intersecting(&sub);
            let span = h.union_of_edges(sub_edges.iter().copied());
            let sub_conn = bag.intersection(&span);
            let (child_cost, child_plan) = self.solve(&sub, &sub_conn, bag)?;
            total = total.max(child_cost);
            children.push((sub, child_plan));
        }
        let plan = Plan {
            bag: admission.bag,
            weights: admission.weights,
            children,
        };
        Some((total, plan))
    }
}

fn attach(
    plans: &[Plan],
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

impl<C: Ord + Clone> Default for SearchContext<C> {
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
/// early and tightens the engine's best-so-far prune. Each bag is
/// accumulated in two registers and materialized with `from_two_blocks`:
/// the one caller, [`exact::subset_oracle`], refuses instances over
/// [`MAX_SUBSET_SEARCH_VERTICES`] vertices, so every vertex is below 128.
pub fn stream_subset_bags<'a>(state: SearchState<'a>) -> CandidateStream<'a> {
    let free: Vec<usize> = state.comp.to_vec();
    let m = free.len();
    if m == 0 || m > MAX_SUBSET_SEARCH_VERTICES {
        return CandidateStream::empty();
    }
    let (c0, c1) = state
        .conn
        .two_blocks()
        .expect("subset-oracle vertices fit two blocks");
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
    let limit: u64 = 1u64 << m;
    let mut size = 1usize;
    let mut mask: u64 = 1;
    CandidateStream::new(std::iter::from_fn(move || {
        while size <= m {
            if mask < limit {
                let cur = mask;
                // Next mask of the same popcount (Gosper's hack; exits the
                // popcount class via `mask < limit`).
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
    }))
}

/// Lazily enumerates all subsets of `items` with `1 <= size <= max_size` in
/// order of increasing size (small separators first — the order every
/// strategy wants), lexicographic within a size. Shared by the
/// edge-separator strategies; the streaming replacement for the retired
/// eager `subsets_up_to`.
pub fn stream_subsets_up_to<T: Copy>(
    items: Vec<T>,
    max_size: usize,
) -> impl Iterator<Item = Vec<T>> {
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
    use std::cell::RefCell;

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
                bag: vs,
                cost: guess.edges.len(),
                weights: guess.edges.iter().map(|&e| (e, Rational::one())).collect(),
            })
        }
    }

    /// A toy minimizer: candidate `i` is the whole component at the
    /// scripted cost `costs[i]` (so it has no sub-components), and its
    /// index is the witness weight. Records the bound of every admission.
    struct Scripted {
        costs: Vec<usize>,
        cutoff: usize,
        bounds: RefCell<Vec<Option<usize>>>,
    }

    impl WidthSolver for Scripted {
        type Cost = usize;

        fn is_decision(&self) -> bool {
            false
        }

        fn cutoff(&self) -> Option<usize> {
            Some(self.cutoff)
        }

        fn candidates<'a>(
            &'a self,
            _h: &'a Hypergraph,
            state: SearchState<'a>,
        ) -> CandidateStream<'a> {
            CandidateStream::new((0..self.costs.len()).map(move |i| Guess {
                edges: vec![i],
                extra: state.comp.clone(),
            }))
        }

        fn admit(
            &self,
            _h: &Hypergraph,
            _state: SearchState<'_>,
            guess: &Guess,
            bound: Option<&usize>,
        ) -> Option<Admission<usize>> {
            self.bounds.borrow_mut().push(bound.copied());
            let i = guess.edges[0];
            Some(Admission {
                bag: guess.extra.clone(),
                cost: self.costs[i],
                weights: vec![(0, Rational::from(i))],
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
        let mut cx = SearchContext::new();
        let (cost, d) = cx.run(&h, &SingleEdge).expect("paths have hw 1");
        assert_eq!(cost, 1);
        assert_eq!(decomp::validate_hd(&h, &d), Ok(()), "{}", d.render(&h));
        assert!(cx.stats().states > 0);
    }

    #[test]
    fn cyclic_instances_fail_with_single_edges() {
        let h = triangle();
        assert!(SearchContext::new().run(&h, &SingleEdge).is_none());
    }

    #[test]
    fn memo_is_keyed_on_component_and_connector() {
        // A star: every leaf component after removing the center edge is a
        // fresh state; re-solving the same hypergraph reuses the memo.
        let h = Hypergraph::from_edges(4, vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
        let mut cx = SearchContext::new();
        cx.run(&h, &SingleEdge).expect("stars have hw 1");
        let states = cx.stats().states;
        cx.run(&h, &SingleEdge).expect("second run");
        assert_eq!(cx.stats().states, states, "second run is all memo hits");
        assert!(cx.stats().memo_hits > 0);
    }

    #[test]
    fn decision_streams_stop_at_the_first_witness() {
        // A path decomposes with the very first candidates; far fewer
        // guesses must be pulled than the full per-state edge count.
        let h = path(6);
        let mut cx = SearchContext::new();
        cx.run(&h, &SingleEdge).expect("paths have hw 1");
        let stats = cx.stats();
        assert!(
            stats.streamed <= stats.states * 3,
            "decision search pulled {} guesses over {} states",
            stats.streamed,
            stats.states
        );
    }

    #[test]
    fn minimizers_admit_against_the_running_best() {
        // A first best (6), five candidates that do not beat it, an
        // improvement (4) with a candidate right behind it, then the
        // minimum (3) twice: the bound must tighten after every candidate,
        // and the earlier of the two minima is the witness.
        let costs = vec![6, 7, 9, 6, 8, 7, 4, 5, 4, 9, 3, 3, 8];
        let cutoff = 8;
        let h = Hypergraph::from_edges(2, vec![vec![0, 1]]);
        let strategy = Scripted {
            costs: costs.clone(),
            cutoff,
            bounds: RefCell::new(Vec::new()),
        };
        let mut cx = SearchContext::new();
        let (cost, d) = cx.run(&h, &strategy).expect("3 is below the cutoff");
        let mut best = cutoff;
        let expected: Vec<Option<usize>> = costs
            .iter()
            .map(|&c| {
                let bound = best;
                best = best.min(c);
                Some(bound)
            })
            .collect();
        assert_eq!(*strategy.bounds.borrow(), expected);
        assert_eq!(cost, 3);
        let first_minimum = costs.iter().position(|&c| c == 3).expect("scripted");
        assert_eq!(
            d.node(d.root()).weights,
            vec![(0, Rational::from(first_minimum))]
        );
        let stats = cx.stats();
        assert_eq!(stats.states, 1);
        assert_eq!((stats.streamed, stats.admitted), (costs.len(), costs.len()));
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
        assert!(SearchContext::new().run(&h, &SingleEdge).is_none());
    }
}
