//! The one exact minimizer behind `ghw` and `fhw`, and the front door of
//! every exact width query.
//!
//! `ghw` and `fhw` are the same decomposition problem under two bag
//! measures: integral edge covers `ρ` ([`Rho`]) and fractional ones `ρ*`
//! ([`RhoStar`]). A [`Measure`] owns only what differs between them: the
//! cost type, the one sequential (warm-LP) pricing function, the rank and
//! scattered-set bounds, the result-cache slot, and whether blocks past
//! the DP's window may try the edge-union engine. Everything else is
//! shared:
//!
//! * [`front_door`] — the isolated-vertex check, the `solve` span, the
//!   cross-call result cache (its only caller), the
//!   `hgtool_solve_latency_seconds{strategy}` histogram, and the result
//!   cache and LP counters of the `obs` registry, each a sum of the
//!   returned [`SearchStats`]. `hw` goes through it too
//!   (`hd::hypertree_width_at_least`).
//! * [`solve`] — the cache key (with `;floor=` above 1), then the join
//!   tree ([`decomp::join_tree`]): an α-acyclic instance has width 1
//!   under both measures, answered by that tree with `ub_width = 1` and
//!   no prep, seed or search. A cyclic one runs `prep`'s
//!   minimizer pipeline with one seeded solver per block: the integral
//!   heuristic seed, then the elimination DP for a block of at most
//!   [`MAX_EXACT_VERTICES`] vertices under both measures. Past that
//!   window, a `ρ` block runs the `candgen` edge-union engine when its
//!   candidate space is feasible, and any other block answers `None`.
//!   A search that fails below a seeded cutoff is the answer `ub`,
//!   certified by the seed's witness; the DP is complete for any
//!   monotone bag measure, so inside the window that answer is exact.
//!   Engine admission and the DP share one lower-bound gate: the DP tests
//!   each bag against the seeded cutoff before pricing it, and keeps
//!   every priced bag's weights for the witness.
//! * [`Instance`] — what [`solve`] runs through: one call's join tree,
//!   minimizer prep and each block's integral seed, built on first use.
//!   None depends on the measure, so a caller asking for both `fhw` and
//!   `ghw` (`exact_widths_with_opts`, serve's `widths` request, `hgtool
//!   widths`) asks one `Instance` for both, and the second measure runs no
//!   GYO and prepares and seeds nothing. Its answers and counters are
//!   those of a standalone [`solve`]; its trace lacks the first measure's
//!   `join_tree` span, `prep` span, seed `candgen` span and seed `price`
//!   spans.
//! * [`solve_by_elimination`] — every block answered by the DP alone (the
//!   independent reference of the agreement tests and the benchmark),
//!   uncached.
//! * [`upper_bound`] — the heuristic bound alone, priced by the measure.
//! * [`subset_oracle`] — the subset-bag cross-check, no prep, no seed.
//!
//! Every pricing goes through [`Measure::price_warm`], which runs inside
//! one `price` span: the DP's bags, the seed's bags, and an engine bag on
//! a miss of its search's [`cover::PriceMemo`] (a hit prices nothing).

use crate::{
    stream_subset_bags, Admission, CandidateStream, EngineOptions, Guess, SearchContext,
    SearchState, SearchStats, WidthSolver, MAX_SUBSET_SEARCH_VERTICES,
};
use arith::Rational;
use candgen::elimination::{self, MAX_EXACT_VERTICES};
use candgen::PricedBag;
use cover::{MemSize, PriceMemo, PricingContext, ScatterBound};
use decomp::Decomposition;
use hypergraph::fx::FxHashMap;
use hypergraph::{properties, Hypergraph, VertexSet};
use obs::metrics::{counter, Counter, Histogram};
use std::cell::RefCell;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

/// Every bag of an instance without isolated vertices has a cover.
const COVERABLE: &str = "no isolated vertices, so every bag is coverable";

/// A bag measure: what distinguishes the exact `ghw` search from the
/// exact `fhw` one.
pub trait Measure {
    /// The width: `usize` for `ρ`, an exact [`Rational`] for `ρ*`.
    type Cost: Ord + Clone + Debug + From<usize> + Into<Rational> + MemSize + Send + Sync + 'static;
    /// Pricing state: none for `ρ`, an LP context for `ρ*`. Every search
    /// prices on its caller's thread in a deterministic order (the DP, the
    /// heuristic bound, the engine's memo misses), so each LP starts from
    /// the previous basis.
    type Warm: Default;

    /// The measure's name: the `solve`/`elim` span field and the latency
    /// histogram's `strategy` label.
    const NAME: &'static str;
    /// The result-cache slot.
    const RESULT_SLOT: &'static str;
    /// Whether a block past the DP's window tries the `candgen`
    /// edge-union engine. Its candidates are det-k's HD normal form, bags
    /// `⋃S ∩ (C ∪ conn)` for `|S| < b`, which is complete for GHDs only at
    /// budget 1 (`ghw ≤ 1` is α-acyclicity, where `hw = ghw`); at budget
    /// ≥ 2 a failed search proves nothing, so the engine is used past the
    /// window only, where no complete search is in range. True of `ρ`
    /// only: such a block's (integral) seed prices through the memo the
    /// engine then searches with, even when an earlier measure of its
    /// [`Instance`] already seeded the block. `ρ*` creates no price memo
    /// in [`solve`].
    const EDGE_UNION: bool;

    /// Prices `bag` in one `price` span, continuing from `warm` (the DP,
    /// the heuristic bound, an engine memo miss).
    fn price_warm(warm: &mut Self::Warm, h: &Hypergraph, bag: &VertexSet) -> PricedBag<Self::Cost>;

    /// Adds the LP counters of sequential pricing to `stats`.
    fn merge_lp(warm: &Self::Warm, stats: &mut SearchStats);

    /// Whether the counting bound reaches `bound` for a bag of `len`
    /// vertices when one edge covers at most `r` of them: a cover needs
    /// weight `len / r` (`⌈len / r⌉` edges under `ρ`).
    fn counting_reaches(len: usize, r: usize, bound: &Self::Cost) -> bool;

    /// Whether the scattered-set bound reaches `bound`: pairwise
    /// non-adjacent bag vertices each force a unit of cover weight.
    fn scatter_reaches(scatter: &ScatterBound, bag: &VertexSet, bound: &Self::Cost) -> bool;
}

/// Integral edge covers: the `ghw` measure.
pub struct Rho;

/// Fractional edge covers: the `fhw` measure.
pub struct RhoStar;

impl Measure for Rho {
    type Cost = usize;
    type Warm = ();

    const NAME: &'static str = "ghw";
    const RESULT_SLOT: &'static str = "result-ghw";
    const EDGE_UNION: bool = true;

    fn price_warm(_: &mut (), h: &Hypergraph, bag: &VertexSet) -> PricedBag<usize> {
        let _span = obs::span!("price", kind = "rho", bag = bag.len());
        let c = cover::integral_cover(h, bag).expect(COVERABLE);
        (c.weight(), unit_weights(c.edges))
    }

    fn merge_lp(_: &(), _: &mut SearchStats) {}

    fn counting_reaches(len: usize, r: usize, bound: &usize) -> bool {
        r == 0 || len.div_ceil(r) >= *bound
    }

    fn scatter_reaches(scatter: &ScatterBound, bag: &VertexSet, bound: &usize) -> bool {
        scatter.at_least(bag, *bound)
    }
}

impl Measure for RhoStar {
    type Cost = Rational;
    type Warm = PricingContext;

    const NAME: &'static str = "fhw";
    const RESULT_SLOT: &'static str = "result-fhw";
    const EDGE_UNION: bool = false;

    fn price_warm(
        ctx: &mut PricingContext,
        h: &Hypergraph,
        bag: &VertexSet,
    ) -> PricedBag<Rational> {
        ctx.price_warm(h, bag).expect(COVERABLE)
    }

    fn merge_lp(ctx: &PricingContext, stats: &mut SearchStats) {
        let lp = ctx.stats();
        stats.lp_pivots += lp.pivots;
        stats.lp_warm_starts += lp.warm_starts;
        stats.lp_cold_solves += lp.cold_solves;
    }

    fn counting_reaches(len: usize, r: usize, bound: &Rational) -> bool {
        exceeds(bound, r, len)
    }

    fn scatter_reaches(scatter: &ScatterBound, bag: &VertexSet, bound: &Rational) -> bool {
        // The threshold `⌈b⌉` is division-free on the small-rational path
        // (`at_least_ratio` cross-multiplies instead of paying a 128-bit
        // division per candidate).
        match bound.as_small() {
            Some((n, d)) if n > 0 => scatter.at_least_ratio(bag, n, d),
            _ => scatter.at_least(bag, threshold(bound, 1)),
        }
    }
}

/// Cover edges as unit weights.
fn unit_weights(edges: Vec<usize>) -> Vec<(usize, Rational)> {
    edges.into_iter().map(|e| (e, Rational::one())).collect()
}

/// The smallest `|bag|` the bound gate rejects when at most `r` bag
/// vertices fit in one edge: `max(1, ⌈bound · r⌉)` (exact at integers).
/// Runs on the per-candidate hot path, so the small-rational case is pure
/// integer arithmetic — no allocation, no locks.
fn threshold(bound: &Rational, r: usize) -> usize {
    if let Some((n, d)) = bound.as_small() {
        // Widths are positive, so `n >= 0` and plain ceiling division is
        // exact; `i128` cannot overflow from reduced `i64` parts.
        let t = ((n as i128) * (r as i128) + (d as i128) - 1).div_euclid(d as i128);
        t.clamp(1, usize::MAX as i128) as usize
    } else {
        let t = (bound * &Rational::from(r))
            .ceil()
            .to_i64()
            .unwrap_or(i64::MAX);
        t.max(1) as usize
    }
}

/// `len >= threshold(bound, r)` as one cross-multiplication: for nonempty
/// bags (`len >= 1`) the ceiling never needs computing — `len ≥ ⌈n·r/d⌉ ⟺
/// len·d ≥ n·r`. This replaces a division with a multiply on the gate
/// every streamed candidate hits.
#[inline]
fn exceeds(bound: &Rational, r: usize, len: usize) -> bool {
    if let Some((n, d)) = bound.as_small() {
        (len as i128) * (d as i128) >= (n as i128) * (r as i128)
    } else {
        len >= threshold(bound, r)
    }
}

/// The front door of every exact width query, and the only caller of
/// [`prep::cached_query`]: rejects isolated vertices, opens the `solve`
/// span, answers through the cross-call result cache (`slot`, `key`;
/// `reuse` from [`EngineOptions::reuse_results`]), observes the end-to-end
/// latency under `hgtool_solve_latency_seconds{strategy=measure}` and
/// adds the call's [`SearchStats`] to the engine's result-cache and LP
/// counters, their only writer. `measure` is `"hw"`, `"ghw"` or `"fhw"`.
pub fn front_door<T>(
    h: &Hypergraph,
    measure: &'static str,
    slot: &'static str,
    key: String,
    reuse: bool,
    run: impl FnOnce() -> (Option<T>, SearchStats),
) -> (Option<T>, SearchStats)
where
    T: Clone + MemSize + Send + Sync + 'static,
{
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    let _span = obs::span!(
        "solve",
        measure = measure,
        vertices = h.num_vertices(),
        edges = h.num_edges()
    );
    let started = std::time::Instant::now();
    let (result, stats) = prep::cached_query(h, slot, key, reuse, run);
    latency(measure).observe_us(started.elapsed().as_micros() as u64);
    record(&stats, reuse);
    (result, stats)
}

/// The engine's Prometheus counters, registered on the first solve. Each
/// is a sum of the [`SearchStats`] that [`front_door`] returned.
struct Counters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    lp_pivots: Arc<Counter>,
    lp_warm_starts: Arc<Counter>,
    lp_cold_solves: Arc<Counter>,
}

/// Adds one answered query to the counters: a hit, or, when the call
/// searched, a miss if it `consulted` the cache, and its LP work. A hit replays the stored run's
/// counters, so its LP work is not added again. Every `ρ*` LP of a search
/// is merged into its stats ([`Measure::merge_lp`]), so the LP counters
/// count exactly the LPs that queries solved. A canceled call unwinds
/// past this and records nothing.
fn record(stats: &SearchStats, consulted: bool) {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    let c = COUNTERS.get_or_init(|| Counters {
        hits: counter(
            "hgtool_result_cache_hits_total",
            "Whole-query answers served from the cross-call result cache",
        ),
        misses: counter(
            "hgtool_result_cache_misses_total",
            "Whole-query searches that ran because no cached answer existed",
        ),
        lp_pivots: counter(
            "hgtool_lp_pivots_total",
            "Exact simplex Bland pivots (phase 1 + phase 2) of searched queries",
        ),
        lp_warm_starts: counter(
            "hgtool_lp_warm_starts_total",
            "LP solves of searched queries warm-started from a retained basis",
        ),
        lp_cold_solves: counter(
            "hgtool_lp_cold_solves_total",
            "LP solves of searched queries built from scratch (including failed warm crashes)",
        ),
    });
    if stats.result_cache_hits > 0 {
        c.hits.add(stats.result_cache_hits as u64);
        return;
    }
    if consulted {
        c.misses.inc();
    }
    c.lp_pivots.add(stats.lp_pivots);
    c.lp_warm_starts.add(stats.lp_warm_starts);
    c.lp_cold_solves.add(stats.lp_cold_solves);
}

/// `hgtool_solve_latency_seconds{strategy=measure}`, registered on the
/// measure's first solve.
fn latency(measure: &'static str) -> &'static Arc<Histogram> {
    static SERIES: [OnceLock<Arc<Histogram>>; 3] = [const { OnceLock::new() }; 3];
    let i = ["hw", "ghw", "fhw"].iter().position(|&m| m == measure);
    SERIES[i.expect("a width measure")].get_or_init(|| {
        obs::metrics::histogram_with(
            "hgtool_solve_latency_seconds",
            "End-to-end exact width-solve latency by strategy",
            &[("strategy", measure)],
        )
    })
}

/// The exact width of `h` under `M` with an optimal witness, through
/// [`front_door`], then `h`'s join tree when it is α-acyclic or `prep`'s
/// minimizer pipeline otherwise (see the module docs): [`Instance::solve`]
/// on a fresh [`Instance`].
///
/// `floor <= width(h)` is a proven lower bound (e.g. `⌈fhw⌉` for `ghw`):
/// a block whose seed is already at most `floor` keeps its seed witness
/// without searching, since the instance width is the maximum over
/// blocks. The width does not depend on it, but a block that does not set
/// the maximum may keep a wider valid witness, so a floor above 1 is part
/// of the result-cache key. Returns `None` when a block is out of range,
/// `h` has isolated vertices, or `cutoff` is given and the width reaches
/// it.
pub fn solve<M: Measure>(
    h: &Hypergraph,
    cutoff: Option<M::Cost>,
    floor: M::Cost,
    opts: EngineOptions,
) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
    Instance::new(h, opts).solve::<M>(cutoff, floor)
}

/// One block's integral heuristic seed: its width and witness.
type Seed = (usize, Decomposition);

/// One call's view of an instance: its join tree, and for a cyclic
/// instance the blocks of `prep`'s minimizer pipeline and each block's
/// integral seed, each built on first use and shared by every measure the
/// call solves on it. A caller that wants both `fhw` and `ghw` of one
/// instance asks one `Instance` for both, in either order, and the second
/// measure runs no GYO and prepares and seeds nothing; its widths,
/// witnesses and counters are those of a standalone [`solve`].
///
/// A plain value owned by one call: no lock, no global, and nothing of it
/// outlives the call. It builds only inside the result cache's miss path,
/// so a cache hit builds nothing.
pub struct Instance<'h> {
    h: &'h Hypergraph,
    opts: EngineOptions,
    /// `h`'s join tree (`None` inside when `h` is cyclic), asked by the
    /// first measure that misses the result cache.
    join_tree: Option<Option<Decomposition>>,
    /// Built by the first measure that misses the result cache on a cyclic
    /// `h`.
    blocks: Option<Blocks>,
}

/// The prepared blocks of an [`Instance`], with one seed slot per block.
struct Blocks {
    /// `None` when preprocessing is off: `h` itself is the one block.
    prepared: Option<prep::Prepared>,
    /// Filled by the first measure that solves the block.
    seeds: Vec<Option<Seed>>,
}

impl<'h> Instance<'h> {
    /// An instance of `h` solved with `opts`; nothing is built yet.
    pub fn new(h: &'h Hypergraph, opts: EngineOptions) -> Self {
        Instance {
            h,
            opts,
            join_tree: None,
            blocks: None,
        }
    }

    /// The exact width under `M`, as [`solve`] computes it, reusing the
    /// join tree, blocks and seeds that an earlier measure built on this
    /// instance.
    pub fn solve<M: Measure>(
        &mut self,
        cutoff: Option<M::Cost>,
        floor: M::Cost,
    ) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
        let one = M::Cost::from(1);
        let floor = floor.max(one.clone());
        let mut key = format!("cutoff={cutoff:?};prep={}", self.opts.prep);
        if floor > one {
            key.push_str(&format!(";floor={floor:?}"));
        }
        let (h, reuse) = (self.h, self.opts.reuse_results);
        front_door(h, M::NAME, M::RESULT_SLOT, key, reuse, || {
            // An α-acyclic `h` has width 1 under every measure, certified
            // by its join tree: no prep, seed or search.
            if let Some(d) = self.join_tree.get_or_insert_with(|| decomp::join_tree(h)) {
                let stats = SearchStats {
                    ub_width: Some(Rational::one()),
                    ..SearchStats::default()
                };
                let fits = cutoff.as_ref().is_none_or(|c| one < *c);
                return (fits.then(|| (one, d.clone())), stats);
            }
            self.each_block(|block, seed| solve_block::<M>(block, seed, cutoff.clone(), &floor))
        })
    }

    /// `prep::run_minimizer` over this instance's blocks (prepared on first
    /// use), handing `solve` each block with its seed slot.
    fn each_block<C: PartialOrd>(
        &mut self,
        mut solve: impl FnMut(
            &Hypergraph,
            &mut Option<Seed>,
        ) -> (Option<(C, Decomposition)>, SearchStats),
    ) -> (Option<(C, Decomposition)>, SearchStats) {
        let (h, opt_in) = (self.h, self.opts.prep);
        let Blocks { prepared, seeds } = self.blocks.get_or_insert_with(|| {
            let prepared = opt_in.then(|| prep::prepare(h, prep::Profile::Minimizer));
            let n = prepared.as_ref().map_or(1, |p| p.blocks.len());
            Blocks {
                prepared,
                seeds: vec![None; n],
            }
        });
        prep::run_minimizer(h, prepared.as_ref(), |i, block| solve(block, &mut seeds[i]))
    }
}

/// Solves one (already preprocessed) block, seeded from `seed` or filling
/// it; see the module docs.
fn solve_block<M: Measure>(
    h: &Hypergraph,
    seed: &mut Option<Seed>,
    cutoff: Option<M::Cost>,
    floor: &M::Cost,
) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
    // The seed is the integral heuristic bound for both measures: `fhw <=
    // ghw`, and integral weights are a valid fractional cover. Inside the
    // window the DP answers, so the seed is priced sequentially, once per
    // instance. Past it, under `ρ`, the seed prices through the memo the
    // engine then searches with, so its covers are warm capital, not
    // overhead: that block prices its own seed (its memo counters stay
    // those of a standalone search) and publishes it for a later measure.
    let in_window = h.num_vertices() <= MAX_EXACT_VERTICES;
    let prices = (M::EDGE_UNION && !in_window).then(Prices::<M>::new);
    let (ub, ub_witness) = match &prices {
        Some(p) => {
            let (ub, d) = candgen::upper_bound(h, |bag| p.price(h, bag));
            &*seed.insert((whole(ub), d))
        }
        None => &*seed
            .get_or_insert_with(|| candgen::upper_bound(h, |bag| Rho::price_warm(&mut (), h, bag))),
    };
    let ub = M::Cost::from(*ub);
    // The search only has to beat `eff`: a failure at a *seeded* cutoff
    // (`ub` tighter than the caller's) is the answer `ub`.
    let seeded = cutoff.as_ref().is_none_or(|c| ub < *c);
    let eff = if seeded {
        ub.clone()
    } else {
        cutoff.expect("unseeded")
    };
    let mut stats = SearchStats {
        ub_width: Some(ub.clone().into()),
        ..SearchStats::default()
    };
    let searched = if eff <= *floor {
        // At floor 1 nothing beats width 1 (every nonempty bag costs at
        // least 1). Above it, a narrower witness for this block could not
        // lower the instance's width (the maximum over blocks, at least
        // `floor`), so the seed stands.
        Some(None)
    } else if in_window {
        Some(by_elimination::<M>(h, Some(eff), &mut stats))
    } else if let (Some(prices), Some(cfg)) = (prices, edge_union_space(h, eff.clone().into())) {
        let strategy = Search::new(h, Some(eff), prices, Bags::EdgeUnion(cfg));
        let mut cx = SearchContext::new();
        let result = cx.run(h, &strategy);
        stats.merge(&cx.stats());
        (stats.price_hits, stats.price_misses) = strategy.prices.memo.counters();
        stats.cand_generated = strategy.counters.generated();
        stats.cand_filtered = strategy.counters.filtered();
        Some(result)
    } else {
        // No exact engine in range: `ub` stays an upper bound only.
        None
    };
    let result = match searched {
        Some(Some((w, d))) => {
            debug_assert!(d.width() <= w.clone().into());
            Some((w, d))
        }
        // The DP is complete below `eff`, so failing it pins the width
        // to exactly `ub` when the cutoff was ours. Past the window the
        // engine's failure is complete only at budget 1; above it `ub` is
        // the narrowest witness in reach.
        Some(None) if seeded => {
            debug_assert!(ub_witness.width() <= ub.clone().into());
            Some((ub, ub_witness.clone()))
        }
        _ => None,
    };
    (result, stats)
}

/// An integral cost as a whole number: the past-window seed is priced by
/// `ρ`, the only [`Measure::EDGE_UNION`] measure.
fn whole<C: Into<Rational>>(cost: C) -> usize {
    let cost: Rational = cost.into();
    debug_assert!(cost.is_integer());
    cost.ceil().to_i64().expect("a small width") as usize
}

/// The edge-union candidate space below `eff` when it is feasible: bags
/// that are unions of at most `⌈eff⌉ - 1` edge restrictions (det-k's HD
/// normal form, see [`Measure::EDGE_UNION`]), searched only while the
/// per-state enumeration (`Σ C(m, i)` over those sizes) stays below
/// [`candgen::DEFAULT_STREAM_CAP`] unions.
fn edge_union_space(h: &Hypergraph, eff: Rational) -> Option<candgen::EdgeUnionConfig> {
    let budget = eff.ceil().to_i64().map_or(0, |c| c.max(1) as usize - 1);
    let cap = candgen::DEFAULT_STREAM_CAP;
    let feasible = budget >= 1 && candgen::stream_size_bound(h.num_edges(), budget, cap) < cap;
    feasible.then(|| candgen::EdgeUnionConfig::with_budget(budget))
}

/// The elimination-order DP on one block, bags priced sequentially by
/// `M`, the witness assembled from the optimal order.
///
/// With a cutoff, each bag first meets the [`Gate`] against that fixed
/// cutoff (never against a per-state best: the DP's bag table is shared
/// by every state), and a rejected bag answers "reaches the cutoff"
/// without pricing, which the DP's cutoff contract allows. Every priced
/// bag keeps its weights, so the witness is built without solving again.
fn by_elimination<M: Measure>(
    h: &Hypergraph,
    cutoff: Option<M::Cost>,
    stats: &mut SearchStats,
) -> Option<(M::Cost, Decomposition)> {
    let span = obs::span!("elim", measure = M::NAME, vertices = h.num_vertices());
    let mut warm = M::Warm::default();
    let gate = cutoff.as_ref().map(|cut| (Gate::new(h), cut.clone()));
    let mut weights: FxHashMap<VertexSet, Vec<(usize, Rational)>> = FxHashMap::default();
    let mut gated = 0usize;
    let searched = elimination::optimal_elimination(
        h,
        |bag| {
            // The DP never enters the engine, so it polls the ambient
            // token itself (a no-op outside deadline runs).
            if prep::cancel::interrupted() {
                prep::cancel::interrupt::raise();
            }
            if let Some((gate, cut)) = &gate {
                if gate.reaches::<M>(h, bag, cut) {
                    gated += 1;
                    return cut.clone();
                }
            }
            let (cost, w) = M::price_warm(&mut warm, h, bag);
            weights.insert(bag.clone(), w);
            cost
        },
        cutoff,
    );
    if let Some(span) = &span {
        span.record("priced", weights.len());
        span.record("gated", gated);
    }
    let result = searched.map(|(width, order)| {
        let d = elimination::assemble(h, &order, |bag| {
            weights
                .remove(bag)
                .expect("the DP priced every witness bag")
        });
        debug_assert!(d.width() <= width.clone().into());
        (width, d)
    });
    M::merge_lp(&warm, stats);
    result
}

/// The exact width under `M` by the elimination-order DP alone, without
/// the heuristic seed: every preprocessed block must fit
/// [`MAX_EXACT_VERTICES`], else the whole call returns `None`. A reference,
/// not a front door: every call searches (the result cache and the
/// engine's counters never see it), whatever
/// [`EngineOptions::reuse_results`] says.
pub fn solve_by_elimination<M: Measure>(
    h: &Hypergraph,
    cutoff: Option<M::Cost>,
    opts: EngineOptions,
) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    Instance::new(h, opts).each_block(|block, _| {
        if block.num_vertices() > MAX_EXACT_VERTICES {
            return (None, SearchStats::default());
        }
        let mut stats = SearchStats::default();
        let result = by_elimination::<M>(block, cutoff.clone(), &mut stats);
        (result, stats)
    })
}

/// The heuristic upper bound under `M` (min-degree / min-fill elimination
/// orderings plus local search, bags priced sequentially by `M`) with its
/// witness, per reduced block, stitched and lifted. `None` only for empty
/// or isolated-vertex inputs.
pub fn upper_bound<M: Measure>(
    h: &Hypergraph,
    opts: EngineOptions,
) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
    if h.num_vertices() == 0 || h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    Instance::new(h, opts).each_block(|block, _| {
        let mut warm = M::Warm::default();
        let (ub, d) = candgen::upper_bound(block, |bag| M::price_warm(&mut warm, block, bag));
        let mut stats = SearchStats {
            ub_width: Some(ub.clone().into()),
            ..SearchStats::default()
        };
        M::merge_lp(&warm, &mut stats);
        (Some((ub, d)), stats)
    })
}

/// The subset-bag cross-check oracle: the engine search proposing every
/// bag `conn ⊆ B ⊆ conn ∪ C`, priced by `M`, hard-gated at
/// [`MAX_SUBSET_SEARCH_VERTICES`] vertices. Runs without preprocessing or
/// seeding, so it shares nothing with [`solve`] beyond the engine itself.
pub fn subset_oracle<M: Measure>(
    h: &Hypergraph,
    cutoff: Option<M::Cost>,
) -> Option<(M::Cost, Decomposition)> {
    if h.has_isolated_vertices() || h.num_vertices() > MAX_SUBSET_SEARCH_VERTICES {
        return None;
    }
    let strategy = Search::<M>::new(h, cutoff, Prices::new(), Bags::Subset);
    SearchContext::new().run(h, &strategy)
}

/// The engine-side prices of one search: a memo of the measure's prices,
/// created with the search and dropped with it, and the pricing state its
/// misses continue from.
struct Prices<M: Measure> {
    memo: PriceMemo<VertexSet, PricedBag<M::Cost>>,
    warm: RefCell<M::Warm>,
}

impl<M: Measure> Prices<M> {
    fn new() -> Self {
        Prices {
            memo: PriceMemo::new(),
            warm: RefCell::default(),
        }
    }

    /// `bag`'s price; its instance has no isolated vertices, so every bag
    /// is coverable.
    fn price(&self, h: &Hypergraph, bag: &VertexSet) -> PricedBag<M::Cost> {
        self.memo
            .get_or_insert_with(bag, || M::price_warm(&mut self.warm.borrow_mut(), h, bag))
    }
}

/// Which candidate-bag space the search streams.
enum Bags {
    /// The `candgen` edge-union space (det-k's HD normal form).
    EdgeUnion(candgen::EdgeUnionConfig),
    /// Every subset bag — the cross-check oracle.
    Subset,
}

/// The exact lower bounds that reject a bag before pricing, shared by the
/// engine's admission and the elimination DP.
struct Gate {
    /// `rank(H)`: a bag needs weight at least `|bag| / rank`.
    rank: usize,
    /// Scattered-set lower bound — the sharpest of the three.
    scatter: ScatterBound,
}

impl Gate {
    fn new(h: &Hypergraph) -> Self {
        Gate {
            rank: properties::rank(h),
            scatter: ScatterBound::new(h),
        }
    }

    /// The global counting bound and the scattered set: the cheap tests,
    /// which the edge-union generator also hoists.
    fn cheap_reaches<M: Measure>(&self, bag: &VertexSet, bound: &M::Cost) -> bool {
        M::counting_reaches(bag.len(), self.rank, bound)
            || M::scatter_reaches(&self.scatter, bag, bound)
    }

    /// Whether `bag`'s price provably reaches `bound`. The cheap tests run
    /// first; survivors pay one O(edges) scan for the per-bag rank, which
    /// only sharpens the global bound when rank > 2 (at rank <= 2 its
    /// r = 1 case is the scattered bound's independent-bag case).
    fn reaches<M: Measure>(&self, h: &Hypergraph, bag: &VertexSet, bound: &M::Cost) -> bool {
        self.cheap_reaches::<M>(bag, bound)
            || (self.rank > 2 && M::counting_reaches(bag.len(), cover::bag_rank(h, bag), bound))
    }
}

/// The exact minimizing strategy under `M`: candidate bags priced through
/// the search's price memo, hopeless ones rejected by the [`Gate`] first.
struct Search<M: Measure> {
    cutoff: Option<M::Cost>,
    gate: Gate,
    /// `bag -> price`: bags repeat heavily across search states, and
    /// pricing is the expensive part of admission.
    prices: Prices<M>,
    bags: Bags,
    /// Generated/filtered tallies of the edge-union streams.
    counters: candgen::Counters,
}

impl<M: Measure> Search<M> {
    fn new(h: &Hypergraph, cutoff: Option<M::Cost>, prices: Prices<M>, bags: Bags) -> Self {
        Search {
            cutoff,
            gate: Gate::new(h),
            prices,
            bags,
            counters: candgen::Counters::new(),
        }
    }
}

impl<M: Measure> WidthSolver for Search<M> {
    type Cost = M::Cost;

    fn is_decision(&self) -> bool {
        false
    }

    fn cutoff(&self) -> Option<M::Cost> {
        self.cutoff.clone()
    }

    fn candidates<'a>(&'a self, h: &'a Hypergraph, state: SearchState<'a>) -> CandidateStream<'a> {
        match &self.bags {
            Bags::Subset => stream_subset_bags(state),
            Bags::EdgeUnion(cfg) => {
                // The cheap gate tests, hoisted into the generator against
                // the static seeded cutoff (admission re-applies the whole
                // gate against the tighter running bound).
                let (gate, bound) = (&self.gate, self.cutoff.as_ref());
                let gate =
                    move |bag: &VertexSet| bound.is_none_or(|b| !gate.cheap_reaches::<M>(bag, b));
                CandidateStream::new(
                    candgen::edge_union_bags(h, state.comp, state.conn, cfg, &self.counters, gate)
                        .map(|bag| Guess {
                            edges: Vec::new(),
                            extra: bag,
                        }),
                )
            }
        }
    }

    fn admit(
        &self,
        h: &Hypergraph,
        _state: SearchState<'_>,
        guess: &Guess,
        bound: Option<&M::Cost>,
    ) -> Option<Admission<M::Cost>> {
        let bag = &guess.extra;
        // The gate ahead of pricing: once a cheap decomposition is known,
        // hopeless bags die here — no cover search or LP, no memo
        // traffic, no admission construction.
        if bound.is_some_and(|b| self.gate.reaches::<M>(h, bag, b)) {
            return None;
        }
        let (cost, weights) = self.prices.price(h, bag);
        Some(Admission {
            bag: bag.clone(),
            cost,
            weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;
    use hypergraph::generators;

    #[test]
    fn gate_rejections_are_sound() {
        let mut instances: Vec<Hypergraph> = (5..=8).map(generators::cycle).collect();
        instances.extend([
            generators::grid(3, 3),
            generators::clique(5),
            generators::clique(6),
            generators::example_5_1(5),
            generators::triangle_chain(3),
        ]);
        for seed in 0..3 {
            instances.push(generators::random_bip(9, 6, 2, 4, seed));
            instances.push(generators::random_bounded_degree(9, 6, 3, 3, seed));
        }
        let bounds = [
            rat(1, 1),
            rat(3, 2),
            rat(2, 1),
            rat(5, 2),
            rat(3, 1),
            rat(4, 1),
        ];
        let (mut rho_rejected, mut rho_star_rejected) = (0, 0);
        for h in &instances {
            let n = h.num_vertices();
            assert!(n <= 9, "every subset bag is priced");
            let gate = Gate::new(h);
            for mask in 1u64..1 << n {
                let mut bag = VertexSet::new();
                bag.insert_mask_block(0, mask);
                let rho = cover::integral_cover(h, &bag).expect(COVERABLE).weight();
                let rho_star = cover::fractional_cover(h, &bag).expect(COVERABLE).weight;
                for b in &bounds {
                    if gate.reaches::<RhoStar>(h, &bag, b) {
                        assert!(rho_star >= *b, "rho*({bag:?}) = {rho_star} < {b} in {h:?}");
                        rho_star_rejected += 1;
                    }
                    // An integral cover reaches `b` iff it reaches `⌈b⌉`.
                    let k = b.ceil().to_i64().expect("small bound") as usize;
                    if gate.reaches::<Rho>(h, &bag, &k) {
                        assert!(rho >= k, "rho({bag:?}) = {rho} < {k} in {h:?}");
                        rho_rejected += 1;
                    }
                }
            }
        }
        assert!(
            rho_rejected > 0 && rho_star_rejected > 0,
            "the gate never fired"
        );
    }

    /// Two measures asked of one [`Instance`], in either order, answer
    /// exactly as two standalone solves: widths, witnesses and every
    /// engine counter, the past-window ghw's `price_*` included.
    #[test]
    fn shared_instance_matches_standalone_solves() {
        // Two triangles sharing vertex 2: two blocks.
        let triangles = Hypergraph::from_edges(
            5,
            vec![
                vec![0, 1],
                vec![1, 2],
                vec![2, 0],
                vec![2, 3],
                vec![3, 4],
                vec![4, 2],
            ],
        );
        // cycle(26) is past the window: ghw searches the edge-union
        // engine, fhw answers `None`.
        let cycle = generators::cycle(26);
        let opts = EngineOptions::sequential();
        type Solved<C> = (Option<(C, String)>, SearchStats);
        fn rendered<C>(
            h: &Hypergraph,
            (r, s): (Option<(C, Decomposition)>, SearchStats),
        ) -> Solved<C> {
            (r.map(|(w, d)| (w, d.render(h))), s.engine_only())
        }
        for (h, blocks) in [(&triangles, 2), (&cycle, 1)] {
            let ghw = rendered(h, solve::<Rho>(h, None, 1, opts));
            let fhw = rendered(h, solve::<RhoStar>(h, None, Rational::one(), opts));
            assert_eq!(ghw.1.prep_blocks, blocks);
            let mut instance = Instance::new(h, opts);
            let ghw_first = rendered(h, instance.solve::<Rho>(None, 1));
            let fhw_second = rendered(h, instance.solve::<RhoStar>(None, Rational::one()));
            assert_eq!(ghw_first, ghw, "ghw, then fhw: ghw");
            assert_eq!(fhw_second, fhw, "ghw, then fhw: fhw");
            let mut instance = Instance::new(h, opts);
            let fhw_first = rendered(h, instance.solve::<RhoStar>(None, Rational::one()));
            let ghw_second = rendered(h, instance.solve::<Rho>(None, 1));
            assert_eq!(fhw_first, fhw, "fhw, then ghw: fhw");
            assert_eq!(ghw_second, ghw, "fhw, then ghw: ghw");
        }
        let ghw = solve::<Rho>(&cycle, None, 1, opts);
        assert_eq!(ghw.0.map(|(w, _)| w), Some(2));
        assert!(ghw.1.price_misses > 0, "the engine memo priced the seed");
        assert!(solve::<RhoStar>(&cycle, None, Rational::one(), opts)
            .0
            .is_none());
    }
}
