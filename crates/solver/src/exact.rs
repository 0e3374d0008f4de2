//! The one exact minimizer behind `ghw` and `fhw`, and the front door of
//! every exact width query.
//!
//! `ghw` and `fhw` are the same decomposition problem under two bag
//! measures: integral edge covers `ρ` ([`Rho`]) and fractional ones `ρ*`
//! ([`RhoStar`]). A [`Measure`] owns only what differs between them: the
//! cost type, the one sequential (warm-LP) pricing function, the rank and
//! scattered-set bounds, the result-cache slot, and whether a cyclic
//! block past the DP's window may search for a width-2 witness.
//! Everything else is shared:
//!
//! * [`Instance::front_door`] — the isolated-vertex check, the `solve`
//!   span, the cross-call result cache (its only caller, under the
//!   instance's one [`InstanceKey`]), the
//!   `hgtool_solve_latency_seconds{strategy}` histogram, and the result
//!   cache and LP counters of the `obs` registry, each a sum of the
//!   returned [`SearchStats`]. `hw` goes through it too
//!   (`hd::hypertree_width_on`).
//! * [`solve`] — the parameter string (with `;floor=` above 1, built only
//!   when the cache is consulted), then the join tree
//!   ([`decomp::join_tree`]): an α-acyclic instance has width 1
//!   under both measures, answered by that tree with `ub_width = 1` and
//!   no prep, seed or search. A cyclic one runs `prep`'s
//!   minimizer pipeline with one solver per block. A block of at most
//!   [`MAX_EXACT_VERTICES`] vertices takes the integral heuristic seed
//!   `ub`, then the elimination DP under both measures. A DP search that
//!   fails below a seeded cutoff is the answer `ub`, certified by the
//!   seed's witness; the DP is complete for any monotone bag measure, so
//!   that answer is exact. Past the window every answer is a proof or
//!   `None`: an α-acyclic block is answered by its join tree (width 1);
//!   a cyclic one has width at least 2, so under `ρ*` it answers `None`
//!   (nothing certifies a fractional width there) and under `ρ` its seed
//!   is exact when `ub ≤ max(floor, 2)`. Otherwise a block of at most 315
//!   edges searches `candgen`'s width-2 edge-union space under cutoff 3:
//!   a witness found is exactly width 2, and anything else is `None`.
//!   Engine admission and the DP share one lower-bound gate: the DP tests
//!   each bag against the seeded cutoff before pricing it, and keeps
//!   every priced bag's weights for the witness.
//! * [`Instance`] — what [`solve`] and `hw` run through: one call's
//!   result-cache key, join tree, minimizer prep and each block's
//!   integral seed, built on first use. None depends on the measure, so a
//!   caller asking for several widths (`exact_widths_with_opts`, serve's
//!   `solve`, `hgtool widths`) asks one `Instance` for all of them: the
//!   key is built and hashed once, GYO runs at most once on `h` (a block
//!   past the window runs its own per measure), and no block is prepared
//!   or seeded twice. Its answers and counters are those of standalone
//!   calls; its trace lacks the later measures' `join_tree` spans on `h`
//!   and the `prep` span and seed `candgen` and `price` spans that an
//!   earlier measure already traced.
//! * [`solve_by_elimination`] — every block answered by the DP alone (the
//!   independent reference of the agreement tests and the benchmark),
//!   uncached.
//! * [`upper_bound`] — the heuristic bound alone, priced by the measure.
//! * [`subset_oracle`] — the subset-bag cross-check, no prep, no seed.
//!
//! Every pricing goes through [`Measure::price_warm`], which runs inside
//! one `price` span: the DP's bags, the seed's bags, and an engine bag on
//! a miss of its search's [`cover::PriceMemo`], which starts empty (a hit
//! prices nothing).
//!
//! Witnesses are shared, not copied: a [`Decomposition`] is a
//! copy-on-write tree whose clone bumps a reference count. `width_one`
//! answers with a clone of the instance's join tree, so the three width
//! answers of an α-acyclic verdict, and the result cache's entries of
//! them, hold one tree; a block answered by its seed hands out a clone of
//! the seed slot's tree. [`Instance::solve`] drops the witness's growth
//! slack once, where it leaves the search, and the result cache keeps
//! that very tree.

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
use prep::InstanceKey;
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
    /// Whether a cyclic block past the DP's window is seeded and may
    /// search the `candgen` edge-union space for a width-2 witness. Its
    /// candidates are det-k's HD normal form at width 2, bags
    /// `⋃S ∩ (C ∪ conn)` for `|S| ≤ 2`: a witness found there proves
    /// width 2 (a cyclic block has width at least 2), while a failed
    /// search proves nothing, since the form is not complete for GHDs.
    /// True of `ρ` only: under `ρ*` nothing certifies a fractional width
    /// past the window, so such a block answers `None` before seeding.
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

/// The engine's Prometheus counters, registered on the first solve. Each
/// is a sum of the [`SearchStats`] that [`Instance::front_door`] returned.
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
/// [`Instance::front_door`], then `h`'s join tree when it is α-acyclic or
/// `prep`'s minimizer pipeline otherwise (see the module docs):
/// [`Instance::solve`] on a fresh [`Instance`].
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

/// One call's view of an instance: its result-cache key, its join tree,
/// and for a cyclic instance the blocks of `prep`'s minimizer pipeline and
/// each block's integral seed, each built on first use and shared by every
/// measure the call solves on it. A caller that wants several widths of
/// one instance asks one `Instance` for all of them (`hd::hypertree_width_on`
/// for `hw`), in any order: the key is built and hashed once, GYO runs at
/// most once on the instance, and no block is prepared or seeded twice.
/// Each measure's widths, witnesses and counters are those of a standalone
/// call.
///
/// A plain value owned by one call: no lock, no global, and nothing of it
/// outlives the call but the key, which the result cache keeps with each
/// answer it stores. The key is built by the first query that consults
/// the cache; the join tree, blocks and seeds only inside its miss path,
/// so a cache hit builds none of them.
pub struct Instance<'h> {
    h: &'h Hypergraph,
    opts: EngineOptions,
    /// `h`'s result-cache key, built by the first query that consults the
    /// cache.
    key: Option<Arc<InstanceKey>>,
    /// `h`'s join tree (`None` inside when `h` is cyclic), asked by the
    /// first measure that misses the result cache.
    join_tree: Option<Option<Decomposition>>,
    /// Built by the first minimizer measure that misses the result cache
    /// on a cyclic `h`.
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
            key: None,
            join_tree: None,
            blocks: None,
        }
    }

    /// The instance's hypergraph.
    pub fn hypergraph(&self) -> &'h Hypergraph {
        self.h
    }

    /// The options every measure of this instance runs with.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// `h`'s join tree ([`decomp::join_tree`]), `None` when `h` is cyclic:
    /// one GYO ear removal, run by the first call and kept for the rest.
    pub fn join_tree(&mut self) -> Option<&Decomposition> {
        let h = self.h;
        self.join_tree
            .get_or_insert_with(|| decomp::join_tree(h))
            .as_ref()
    }

    /// The front door of every exact width query: rejects isolated
    /// vertices, opens the `solve` span, answers through the cross-call
    /// result cache when [`EngineOptions::reuse_results`] consults it
    /// (this instance's key, built on the first such query; `slot`; the
    /// parameter string `params` builds, only then), observes the
    /// end-to-end latency under
    /// `hgtool_solve_latency_seconds{strategy=measure}` and adds the
    /// call's [`SearchStats`] to the engine's result-cache and LP
    /// counters, their only writer. `run` is the search, handed this
    /// instance on a miss. `measure` is `"hw"`, `"ghw"` or `"fhw"`.
    pub fn front_door<T>(
        &mut self,
        measure: &'static str,
        slot: &'static str,
        params: impl FnOnce() -> String,
        run: impl FnOnce(&mut Self) -> (Option<T>, SearchStats),
    ) -> (Option<T>, SearchStats)
    where
        T: Clone + MemSize + Send + Sync + 'static,
    {
        let h = self.h;
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
        let reuse = self.opts.reuse_results;
        let (result, stats) = if reuse {
            let key = Arc::clone(self.key.get_or_insert_with(|| Arc::new(InstanceKey::of(h))));
            prep::cached_query(&key, slot, params(), || run(self))
        } else {
            run(self)
        };
        latency(measure).observe_us(started.elapsed().as_micros() as u64);
        record(&stats, reuse);
        (result, stats)
    }

    /// The exact width under `M`, as [`solve`] computes it, reusing the
    /// key, join tree, blocks and seeds that an earlier measure built on
    /// this instance.
    pub fn solve<M: Measure>(
        &mut self,
        cutoff: Option<M::Cost>,
        floor: M::Cost,
    ) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
        let one = M::Cost::from(1);
        let floor = floor.max(one.clone());
        let prep = self.opts.prep;
        let params = || {
            let mut params = format!("cutoff={cutoff:?};prep={prep}");
            if floor > one {
                params.push_str(&format!(";floor={floor:?}"));
            }
            params
        };
        self.front_door(M::NAME, M::RESULT_SLOT, params, |instance| {
            // An α-acyclic `h` has width 1 under every measure, certified
            // by its join tree: no prep, seed or search.
            if let Some(d) = instance.join_tree() {
                return width_one(d.clone(), cutoff.as_ref());
            }
            let (mut result, stats) = instance
                .each_block(|block, seed| solve_block::<M>(block, seed, cutoff.clone(), &floor));
            // The witness leaves its search here, and the result cache
            // keeps this very tree: drop its growth slack.
            if let Some((_, d)) = &mut result {
                d.shrink_to_fit();
            }
            (result, stats)
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

/// Width 1, certified by the join tree `d` of an α-acyclic instance or
/// block: `ub_width = 1` and no other counter, `None` at a cutoff of at
/// most 1. The instance's tree is passed as a clone, which shares it.
fn width_one<C: From<usize> + Ord>(
    d: Decomposition,
    cutoff: Option<&C>,
) -> (Option<(C, Decomposition)>, SearchStats) {
    let one = C::from(1);
    let stats = SearchStats {
        ub_width: Some(Rational::one()),
        ..SearchStats::default()
    };
    let fits = cutoff.is_none_or(|c| one < *c);
    (fits.then_some((one, d)), stats)
}

/// Solves one (already preprocessed) block, seeded from `seed` or filling
/// it; see the module docs.
fn solve_block<M: Measure>(
    h: &Hypergraph,
    seed: &mut Option<Seed>,
    cutoff: Option<M::Cost>,
    floor: &M::Cost,
) -> (Option<(M::Cost, Decomposition)>, SearchStats) {
    let in_window = h.num_vertices() <= MAX_EXACT_VERTICES;
    if !in_window {
        // Past the window, width 1 is α-acyclicity, proven by the join
        // tree. A cyclic block has width at least 2, and under `ρ*` nothing
        // proves a width above that.
        if let Some(d) = decomp::join_tree(h) {
            return width_one(d, cutoff.as_ref());
        }
        if !M::EDGE_UNION {
            return (None, SearchStats::default());
        }
    }
    // The seed is the integral heuristic bound for both measures: `fhw <=
    // ghw`, and integral weights are a valid fractional cover. It is
    // priced sequentially, once per instance.
    let (ub, ub_witness) = &*seed
        .get_or_insert_with(|| candgen::upper_bound(h, |bag| Rho::price_warm(&mut (), h, bag)));
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
    // A block past the window is cyclic, so its width is at least 2.
    let lb = if in_window {
        floor.clone()
    } else {
        floor.clone().max(M::Cost::from(2))
    };
    let searched = if eff <= lb {
        // Nothing beats `lb`: every nonempty bag costs at least 1, and a
        // narrower witness for this block could not lower the instance's
        // width (the maximum over blocks, at least `floor`), so the seed
        // stands.
        Some(None)
    } else if in_window {
        Some(by_elimination::<M>(h, Some(eff), &mut stats))
    } else {
        // Only width 2 is provable here, so a failed search answers `None`,
        // not `ub`.
        by_edge_unions::<M>(h, &mut stats).map(Some)
    };
    let result = match searched {
        Some(Some((w, d))) => {
            debug_assert!(d.width() <= w.clone().into());
            Some((w, d))
        }
        // The DP is complete below `eff`, so failing it pins the width
        // to exactly `ub` when the cutoff was ours.
        Some(None) if seeded => {
            debug_assert!(ub_witness.width() <= ub.clone().into());
            Some((ub, ub_witness.clone()))
        }
        _ => None,
    };
    (result, stats)
}

/// A width-2 witness for a cyclic block past the DP's window: the engine
/// under cutoff 3 over `candgen`'s width-2 edge-union space, its price memo
/// starting empty. Searched only while one state's singles and pairs,
/// `m(m+1)/2` for `m` edges (at most 315), stay below
/// [`candgen::DEFAULT_STREAM_CAP`]. A witness found has width exactly 2; a
/// failure proves nothing, since the space is det-k's HD normal form,
/// which is not complete for GHDs.
fn by_edge_unions<M: Measure>(
    h: &Hypergraph,
    stats: &mut SearchStats,
) -> Option<(M::Cost, Decomposition)> {
    let m = h.num_edges();
    if m * (m + 1) / 2 >= candgen::DEFAULT_STREAM_CAP {
        return None;
    }
    let strategy = Search::<M>::new(h, Some(M::Cost::from(3)), Prices::new(), Bags::EdgeUnion);
    let mut cx = SearchContext::new();
    let result = cx.run(h, &strategy);
    stats.merge(&cx.stats());
    (stats.price_hits, stats.price_misses) = strategy.prices.memo.counters();
    stats.cand_generated = strategy.counters.generated();
    stats.cand_filtered = strategy.counters.filtered();
    result
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
    /// The `candgen` edge-union space (det-k's HD normal form at width 2).
    EdgeUnion,
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
            Bags::EdgeUnion => {
                // The cheap gate tests, hoisted into the generator against
                // the static seeded cutoff (admission re-applies the whole
                // gate against the tighter running bound).
                let (gate, bound) = (&self.gate, self.cutoff.as_ref());
                let gate =
                    move |bag: &VertexSet| bound.is_none_or(|b| !gate.cheap_reaches::<M>(bag, b));
                CandidateStream::new(
                    candgen::edge_union_bags(h, state.comp, state.conn, &self.counters, gate).map(
                        |bag| Guess {
                            edges: Vec::new(),
                            extra: bag,
                        },
                    ),
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
        // grid(3,9) is past the window and seeds at 3: ghw searches the
        // width-2 edge-union space, fhw answers `None`.
        let grid = generators::grid(3, 9);
        let opts = EngineOptions::sequential();
        type Solved<C> = (Option<(C, String)>, SearchStats);
        fn rendered<C>(
            h: &Hypergraph,
            (r, s): (Option<(C, Decomposition)>, SearchStats),
        ) -> Solved<C> {
            (r.map(|(w, d)| (w, d.render(h))), s.engine_only())
        }
        for (h, blocks) in [(&triangles, 2), (&grid, 1)] {
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
        let ghw = solve::<Rho>(&grid, None, 1, opts);
        assert_eq!(ghw.0.map(|(w, _)| w), Some(2));
        assert_eq!(ghw.1.ub_width, Some(Rational::from(3usize)));
        assert!(ghw.1.price_misses > 0, "the engine priced through its memo");
        let fhw = solve::<RhoStar>(&grid, None, Rational::one(), opts);
        assert!(fhw.0.is_none());
        assert_eq!(
            fhw.1.ub_width, None,
            "fhw seeds no cyclic past-window block"
        );
    }
}
