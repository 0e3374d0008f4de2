//! The fractional members of the width-backend portfolio: `fhw`,
//! `frac-decomp` and `strict-hd` [`Backend`]s.
//!
//! Every backend reuses the corresponding `_with_stats` path, so a
//! backend's answer is byte-identical to calling that path directly and
//! concurrent identical runs dedup through the result cache (note the
//! `;backend=` slot in the cache keys).
//!
//! `fhw` mirrors the `ghw` quartet: `engine` (the default path: the
//! elimination DP under the seeded cutoff), `elim` (the unseeded DP),
//! `oracle` (subset enumeration, small instances), `seed-refine`
//! (witnessed heuristic bound first, exact tail dedup'd onto `engine`).
//!
//! The decisions field two members each. `frac-decomp`: `engine` (the
//! prepped default) and `noprep` — the raw Algorithm 3, whose *reject*
//! maps to [`Outcome::unresolved`] because acceptance is one-sided
//! monotone under preprocessing (prep can accept where the raw
//! `c`-relative completeness gives up, so only the prepped reject is the
//! measure's canonical "no"). `strict-hd`: `engine` and `legacy` (the
//! pre-engine recursion kept as the agreement oracle).

use crate::bdp::{check_fhd_bdp_legacy, check_fhd_bdp_with_stats, FhdAnswer};
use crate::exact::{
    fhw_exact_elimination_with_stats, fhw_exact_subset_oracle, fhw_exact_with_stats,
    fhw_upper_bound_with_stats,
};
use crate::frac_decomp::{frac_decomp_with_stats, FracDecompParams};
use crate::subedges::HdkParams;
use arith::Rational;
use decomp::Decomposition;
use hypergraph::Hypergraph;
use solver::backend::{Backend, BackendId, Measure, Outcome, RunCtl, WidthRequest};
use solver::SearchStats;

/// The `fhw` portfolio, in admission order.
pub fn fhw_backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(FhwEngine),
        Box::new(FhwSeedRefine),
        Box::new(FhwElimination),
        Box::new(FhwSubsetOracle),
    ]
}

/// The `frac-decomp` portfolio.
pub fn frac_decomp_backends() -> Vec<Box<dyn Backend>> {
    vec![Box::new(FracEngine), Box::new(FracNoPrep)]
}

/// The `strict-hd` portfolio.
pub fn strict_hd_backends() -> Vec<Box<dyn Backend>> {
    vec![Box::new(StrictEngine), Box::new(StrictLegacy)]
}

fn fhw_cutoff(req: &WidthRequest) -> Option<Rational> {
    match &req.measure {
        Measure::Fhw { cutoff } => cutoff.clone(),
        m => unreachable!("fhw backend asked for {m:?}"),
    }
}

fn frac_params(req: &WidthRequest) -> FracDecompParams {
    match &req.measure {
        Measure::FracDecomp { k, eps, c } => FracDecompParams {
            k: k.clone(),
            eps: eps.clone(),
            c: *c,
        },
        m => unreachable!("frac-decomp backend asked for {m:?}"),
    }
}

fn strict_params(req: &WidthRequest) -> (Rational, HdkParams) {
    match &req.measure {
        Measure::StrictHd {
            k,
            union_arity,
            max_subedges,
        } => (
            k.clone(),
            HdkParams {
                union_arity: *union_arity,
                max_subedges: *max_subedges,
            },
        ),
        m => unreachable!("strict-hd backend asked for {m:?}"),
    }
}

/// `(width, witness)` minimizer answer → [`Outcome`] (shared with the
/// `ghw` quartet's logic: `None` certifies "> cutoff" when one was set).
fn outcome_of(
    id: BackendId,
    bounded: bool,
    result: Option<(Rational, Decomposition)>,
    stats: SearchStats,
) -> Outcome {
    match result {
        Some((w, d)) => Outcome::exact(id, w, d, stats),
        None if bounded => Outcome::certified_no(id, stats),
        None => Outcome::unresolved(id, stats),
    }
}

struct FhwEngine;

impl Backend for FhwEngine {
    fn id(&self) -> BackendId {
        "engine"
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let cutoff = fhw_cutoff(req);
        let bounded = cutoff.is_some();
        let (result, stats) = fhw_exact_with_stats(h, cutoff, req.opts);
        outcome_of(self.id(), bounded, result, stats)
    }
}

struct FhwElimination;

impl Backend for FhwElimination {
    fn id(&self) -> BackendId {
        "elim"
    }

    fn eligible(&self, h: &Hypergraph, _req: &WidthRequest) -> bool {
        h.num_vertices() <= ghd::elimination::MAX_EXACT_VERTICES
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let cutoff = fhw_cutoff(req);
        let bounded = cutoff.is_some();
        let (result, stats) = fhw_exact_elimination_with_stats(h, cutoff, req.opts);
        outcome_of(self.id(), bounded, result, stats)
    }
}

struct FhwSubsetOracle;

impl Backend for FhwSubsetOracle {
    fn id(&self) -> BackendId {
        "oracle"
    }

    fn eligible(&self, h: &Hypergraph, _req: &WidthRequest) -> bool {
        h.num_vertices() <= solver::MAX_SUBSET_ORACLE_VERTICES
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let cutoff = fhw_cutoff(req);
        let bounded = cutoff.is_some();
        let reuse = req.opts.reuse_results && !req.opts.speculate;
        let key = format!("cutoff={cutoff:?};backend=oracle");
        let (result, stats) = prep::cached_query(h, "result-fhw", key, reuse, || {
            (fhw_exact_subset_oracle(h, cutoff), SearchStats::default())
        });
        outcome_of(self.id(), bounded, result, stats)
    }
}

struct FhwSeedRefine;

impl Backend for FhwSeedRefine {
    fn id(&self) -> BackendId {
        "seed-refine"
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, ctl: &RunCtl) -> Outcome {
        let cutoff = fhw_cutoff(req);
        let bounded = cutoff.is_some();
        // Phase 1: the LP-tight witnessed heuristic bound, reported
        // immediately.
        let (seed, mut stats) = fhw_upper_bound_with_stats(h, req.opts);
        if let Some((ub, d)) = &seed {
            ctl.sink.report_upper(ub.clone(), Some(d));
            if *ub == Rational::one() {
                // fhw >= 1 always: a width-1 witness is already exact.
                let (ub, d) = seed.expect("present");
                return Outcome::exact(self.id(), ub, d, stats);
            }
        }
        // Phase 2: the full exact path (dedups onto in-flight `engine`).
        let (result, s) = fhw_exact_with_stats(h, cutoff, req.opts);
        stats.merge(&s);
        outcome_of(self.id(), bounded, result, stats)
    }
}

struct FracEngine;

impl Backend for FracEngine {
    fn id(&self) -> BackendId {
        "engine"
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let params = frac_params(req);
        let (result, stats) = frac_decomp_with_stats(h, &params, req.opts);
        match result {
            Some(d) => Outcome::accepted(self.id(), d, stats),
            None => Outcome::certified_no(self.id(), stats),
        }
    }
}

struct FracNoPrep;

impl Backend for FracNoPrep {
    fn id(&self) -> BackendId {
        "noprep"
    }

    fn eligible(&self, _h: &Hypergraph, req: &WidthRequest) -> bool {
        // With prep off the two members coincide; racing them would just
        // burn a pool slot on a duplicate.
        req.opts.prep
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let params = frac_params(req);
        let opts = solver::EngineOptions {
            prep: false,
            ..req.opts
        };
        let (result, stats) = frac_decomp_with_stats(h, &params, opts);
        match result {
            Some(d) => Outcome::accepted(self.id(), d, stats),
            // The raw reject is only `c`-relative *for this instance*
            // (prep may still accept), so it certifies nothing.
            None => Outcome::unresolved(self.id(), stats),
        }
    }
}

struct StrictEngine;

impl Backend for StrictEngine {
    fn id(&self) -> BackendId {
        "engine"
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let (k, params) = strict_params(req);
        let (answer, stats) = check_fhd_bdp_with_stats(h, &k, params, req.opts);
        match answer {
            FhdAnswer::Yes(d) => Outcome::accepted(self.id(), *d, stats),
            FhdAnswer::No => Outcome::certified_no(self.id(), stats),
            FhdAnswer::Unknown => Outcome::unresolved(self.id(), stats),
        }
    }
}

struct StrictLegacy;

impl Backend for StrictLegacy {
    fn id(&self) -> BackendId {
        "legacy"
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let (k, params) = strict_params(req);
        if h.has_isolated_vertices() || !k.is_positive() {
            return Outcome::certified_no(self.id(), SearchStats::default());
        }
        match check_fhd_bdp_legacy(h, &k, params) {
            FhdAnswer::Yes(d) => Outcome::accepted(self.id(), *d, SearchStats::default()),
            FhdAnswer::No => Outcome::certified_no(self.id(), SearchStats::default()),
            FhdAnswer::Unknown => Outcome::unresolved(self.id(), SearchStats::default()),
        }
    }
}
