//! The one exact minimizer behind `ghw` and `fhw`, and the front door of
//! every exact width query.
//!
//! `ghw` and `fhw` are the same decomposition problem under two bag
//! measures: integral edge covers `ρ` ([`Rho`]) and fractional ones `ρ*`
//! ([`RhoStar`]). A [`Measure`] owns only what differs between them: the
//! cost type, pricing through the engine's shared cache and through a
//! sequential (warm-LP) context, the rank and scattered-set bounds, the
//! cache slot names, and whether the width has the edge-union normal form.
//! Everything else is shared:
//!
//! * [`front_door`] — the isolated-vertex check, the `solve` span, the
//!   cross-call result cache, the `pool_reuse` counter and the
//!   `hgtool_solve_latency_seconds{strategy}` histogram. `hw` goes
//!   through it too (`hd::hypertree_width_at_least`).
//! * [`solve`] — the cache key (with `;floor=` above 1), then `prep`'s
//!   minimizer pipeline with one seeded solver per block: the integral
//!   heuristic seed, then the `candgen` edge-union engine when the measure
//!   has that normal form and the candidate space is feasible, then the
//!   elimination DP up to [`MAX_EXACT_VERTICES`] vertices, else `None`.
//!   A search that fails below a seeded cutoff is the exact answer `ub`,
//!   certified by the seed's witness. Engine admission and the DP share
//!   one lower-bound gate: the DP tests each bag against the seeded
//!   cutoff before pricing it, and keeps every priced bag's weights for
//!   the witness.
//! * [`solve_by_elimination`] — every block answered by the DP alone (the
//!   independent reference of the agreement tests and the benchmark).
//! * [`upper_bound`] — the heuristic bound alone, priced by the measure.
//! * [`subset_oracle`] — the subset-bag cross-check, no prep, no seed.

use crate::{
    pool_is_warm, stream_subset_bags, Admission, CandidateStream, EngineOptions, Guess,
    SearchContext, SearchState, SearchStats, WidthSolver, MAX_SUBSET_SEARCH_VERTICES,
};
use arith::Rational;
use candgen::elimination::{self, MAX_EXACT_VERTICES};
use candgen::PricedBag;
use cover::{MemSize, PricingContext, PricingPool, ScatterBound, ShardedCache};
use decomp::Decomposition;
use hypergraph::fx::FxHashMap;
use hypergraph::{properties, Hypergraph, VertexSet};
use obs::metrics::Histogram;
use prep::SessionCache;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

/// Every bag of an instance without isolated vertices has a cover.
const COVERABLE: &str = "no isolated vertices, so every bag is coverable";

/// A bag measure: what distinguishes the exact `ghw` search from the
/// exact `fhw` one.
pub trait Measure: Send + Sync + 'static {
    /// The width: `usize` for `ρ`, an exact [`Rational`] for `ρ*`.
    type Cost: Ord + Clone + Debug + From<usize> + Into<Rational> + MemSize + Send + Sync + 'static;
    /// A cached engine price ([`cover::PricedRho`] / [`cover::PricedRhoStar`]).
    type Priced: Clone + MemSize + Send + Sync + 'static;
    /// State of sequential pricing: none for `ρ`, a warm LP context for
    /// `ρ*` (the DP and the heuristic bound walk related bags in a
    /// deterministic order, so each LP starts from the previous basis).
    type Warm: Default;

    /// The measure's name: the `solve`/`elim` span field and the latency
    /// histogram's `strategy` label.
    const NAME: &'static str;
    /// The result-cache slot.
    const RESULT_SLOT: &'static str;
    /// The engine's price-cache slot.
    const PRICE_SLOT: &'static str;
    /// Whether every decomposition of width `< b` normalizes to one whose
    /// bags are unions of `< b` edges (the bag-maximal normal form). True
    /// of `ρ` only: its blocks try the edge-union engine, and their
    /// (integral) seed prices through the engine's cache. `ρ*` opens no
    /// price session in [`solve`].
    const EDGE_UNION: bool;

    /// Prices `bag` sequentially (the DP, the heuristic bound).
    fn price_warm(warm: &mut Self::Warm, h: &Hypergraph, bag: &VertexSet) -> PricedBag<Self::Cost>;

    /// Adds the LP counters of sequential pricing to `stats`.
    fn merge_lp(warm: &Self::Warm, stats: &mut SearchStats);

    /// Prices `bag` through the engine's shared cache; `pool` solves the
    /// `ρ*` LPs of cache misses. `None` when `bag` is uncoverable.
    fn price_cached(
        h: &Hypergraph,
        bag: &VertexSet,
        cache: &ShardedCache<VertexSet, Self::Priced>,
        pool: &PricingPool,
    ) -> Option<PricedBag<Self::Cost>>;

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
    type Priced = cover::PricedRho;
    type Warm = ();

    const NAME: &'static str = "ghw";
    const RESULT_SLOT: &'static str = "result-ghw";
    const PRICE_SLOT: &'static str = "ghw-rho";
    const EDGE_UNION: bool = true;

    fn price_warm(_: &mut (), h: &Hypergraph, bag: &VertexSet) -> PricedBag<usize> {
        let c = cover::integral_cover(h, bag).expect(COVERABLE);
        (c.weight(), unit_weights(c.edges))
    }

    fn merge_lp(_: &(), _: &mut SearchStats) {}

    fn price_cached(
        h: &Hypergraph,
        bag: &VertexSet,
        cache: &cover::RhoCache,
        _: &PricingPool,
    ) -> Option<PricedBag<usize>> {
        let (weight, edges) = cover::rho_priced(h, bag, cache)?;
        Some((weight, unit_weights(edges)))
    }

    fn counting_reaches(len: usize, r: usize, bound: &usize) -> bool {
        r == 0 || len.div_ceil(r) >= *bound
    }

    fn scatter_reaches(scatter: &ScatterBound, bag: &VertexSet, bound: &usize) -> bool {
        scatter.at_least(bag, *bound)
    }
}

impl Measure for RhoStar {
    type Cost = Rational;
    type Priced = cover::PricedRhoStar;
    type Warm = PricingContext;

    const NAME: &'static str = "fhw";
    const RESULT_SLOT: &'static str = "result-fhw";
    const PRICE_SLOT: &'static str = "fhw-rho-star";
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

    fn price_cached(
        h: &Hypergraph,
        bag: &VertexSet,
        cache: &cover::RhoStarCache,
        pool: &PricingPool,
    ) -> Option<PricedBag<Rational>> {
        cover::rho_star_priced_with(h, bag, cache, pool)
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

/// The front door of every exact width query: rejects isolated vertices,
/// opens the `solve` span, answers through the cross-call result cache
/// (`slot`, `key`; `reuse` from [`EngineOptions::reuse_results`]), records
/// `pool_reuse`, and observes the end-to-end latency under
/// `hgtool_solve_latency_seconds{strategy=measure}`. `measure` is `"hw"`,
/// `"ghw"` or `"fhw"`.
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
    let warm = pool_is_warm();
    let (result, mut stats) = prep::cached_query(h, slot, key, reuse, run);
    stats.pool_reuse = usize::from(warm);
    latency(measure).observe_us(started.elapsed().as_micros() as u64);
    (result, stats)
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
/// [`front_door`] and `prep`'s minimizer pipeline (see the module docs).
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
    let one = M::Cost::from(1);
    let floor = floor.max(one.clone());
    let mut key = format!(
        "cutoff={cutoff:?};prep={};rp={};backend=auto",
        opts.prep, opts.reuse_prices
    );
    if floor > one {
        key.push_str(&format!(";floor={floor:?}"));
    }
    front_door(h, M::NAME, M::RESULT_SLOT, key, opts.reuse_results, || {
        prep::run_minimizer(h, opts.prep, |block| {
            solve_block::<M>(block, cutoff.clone(), &floor, opts)
        })
    })
}

/// Solves one (already preprocessed) block; see the module docs.
fn solve_block<M: Measure>(
    h: &Hypergraph,
    cutoff: Option<M::Cost>,
    floor: &M::Cost,
    opts: EngineOptions,
) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
    // The seed is the integral heuristic bound for both measures: `fhw <=
    // ghw`, and integral weights are a valid fractional cover. Under `ρ`
    // it prices through the price session the engine then searches with,
    // so the seed's covers are warm capital, not overhead.
    let prices = M::EDGE_UNION.then(|| Prices::<M>::open(h, opts.reuse_prices));
    let (ub, ub_witness) = match &prices {
        Some(p) => candgen::upper_bound(h, |bag| p.price(h, bag).expect(COVERABLE)),
        None => {
            let (ub, d) = candgen::upper_bound(h, |bag| Rho::price_warm(&mut (), h, bag));
            (M::Cost::from(ub), d)
        }
    };
    // The search only has to beat `eff`: a failure at a *seeded* cutoff
    // (`ub` tighter than the caller's) is the exact answer `ub`.
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
    let space = M::EDGE_UNION
        .then(|| edge_union_space(h, eff.clone().into()))
        .flatten();
    let searched = if eff <= *floor {
        // At floor 1 nothing beats width 1 (every nonempty bag costs at
        // least 1). Above it, a narrower witness for this block could not
        // lower the instance's width (the maximum over blocks, at least
        // `floor`), so the seed stands.
        Some(None)
    } else if let (Some(prices), Some(cfg)) = (prices, space) {
        let strategy = Arc::new(Search::new(h, Some(eff), prices, Bags::EdgeUnion(cfg)));
        let cx = SearchContext::with_options(opts);
        let result = cx.run(h, &strategy);
        stats.merge(&cx.stats());
        (stats.price_hits, stats.price_misses, stats.price_warm_hits) =
            strategy.prices.session.deltas();
        stats.cand_generated = strategy.counters.generated();
        stats.cand_filtered = strategy.counters.filtered();
        Some(result)
    } else if h.num_vertices() <= MAX_EXACT_VERTICES {
        Some(by_elimination::<M>(h, Some(eff), &mut stats))
    } else {
        // No exact engine in range: `ub` stays an upper bound only.
        None
    };
    let result = match searched {
        Some(Some((w, d))) => {
            debug_assert!(d.width() <= w.clone().into());
            Some((w, d))
        }
        // The search is complete below `eff`, so failing it pins the
        // width to exactly `ub` when the cutoff was ours.
        Some(None) if seeded => {
            debug_assert!(ub_witness.width() <= ub.clone().into());
            Some((ub, ub_witness))
        }
        _ => None,
    };
    (result, stats)
}

/// The edge-union candidate space below `eff` when it is feasible: any
/// decomposition of width `< eff` normalizes to unions of at most
/// `⌈eff⌉ - 1` edges, and the engine runs only while the per-state
/// enumeration (`Σ C(m, i)` over those sizes) stays below
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
/// [`MAX_EXACT_VERTICES`], else the whole call returns `None`.
pub fn solve_by_elimination<M: Measure>(
    h: &Hypergraph,
    cutoff: Option<M::Cost>,
    opts: EngineOptions,
) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    let key = format!(
        "cutoff={cutoff:?};prep={};rp={};backend=elim",
        opts.prep, opts.reuse_prices
    );
    prep::cached_query(h, M::RESULT_SLOT, key, opts.reuse_results, || {
        prep::run_minimizer(h, opts.prep, |block| {
            if block.num_vertices() > MAX_EXACT_VERTICES {
                return (None, SearchStats::default());
            }
            let mut stats = SearchStats::default();
            let result = by_elimination::<M>(block, cutoff.clone(), &mut stats);
            (result, stats)
        })
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
    prep::run_minimizer(h, opts.prep, |block| {
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
/// [`MAX_SUBSET_SEARCH_VERTICES`] vertices. Runs sequentially, without
/// preprocessing or seeding, so it shares nothing with [`solve`] beyond
/// the engine itself.
pub fn subset_oracle<M: Measure>(
    h: &Hypergraph,
    cutoff: Option<M::Cost>,
) -> Option<(M::Cost, Decomposition)> {
    if h.has_isolated_vertices() || h.num_vertices() > MAX_SUBSET_SEARCH_VERTICES {
        return None;
    }
    let prices = Prices::<M>::open(h, false);
    let strategy = Arc::new(Search::new(h, cutoff, prices, Bags::Subset));
    let cx = SearchContext::with_options(EngineOptions::sequential());
    cx.run(h, &strategy)
}

/// The engine-side prices of one search: the measure's price cache
/// (shared across calls when the session is registry-backed) and the
/// pooled LP contexts pricing `ρ*` misses.
struct Prices<M: Measure> {
    session: SessionCache<VertexSet, M::Priced>,
    pool: PricingPool,
}

impl<M: Measure> Prices<M> {
    fn open(h: &Hypergraph, reuse: bool) -> Self {
        Prices {
            session: SessionCache::open(h, M::PRICE_SLOT, reuse),
            pool: PricingPool::new(),
        }
    }

    fn price(&self, h: &Hypergraph, bag: &VertexSet) -> Option<PricedBag<M::Cost>> {
        M::price_cached(h, bag, &self.session.cache, &self.pool)
    }
}

/// Which candidate-bag space the search streams.
enum Bags {
    /// The `candgen` edge-union space (bag-maximal normal form).
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
/// the shared cache, hopeless ones rejected by the [`Gate`] first.
struct Search<M: Measure> {
    cutoff: Option<M::Cost>,
    gate: Gate,
    /// `bag -> price`: bags repeat heavily across search states and
    /// worker threads, and pricing is the expensive part of admission.
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
        // hopeless bags die here — no cover search or LP, no cache
        // traffic, no admission construction.
        if bound.is_some_and(|b| self.gate.reaches::<M>(h, bag, b)) {
            return None;
        }
        let (cost, weights) = self.prices.price(h, bag)?;
        Some(Admission {
            split: bag.clone(),
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
}
