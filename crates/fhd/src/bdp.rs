//! `Check(FHD, k)` for bounded-degree hypergraphs (Theorem 5.2) through the
//! characterization of Theorem 5.22:
//!
//! > `fhw(H) <= k` iff `H' = H ∪ h_{d,k}(H)` admits a *strict* HD of width
//! > `<= k·d` in normal form whose every node `u` satisfies
//! > `rho*(H_{λ_u}) <= k`.
//!
//! The search is the `det-k-decomp` recursion over `H'` with two extra
//! checks per guessed separator `S` (the modified algorithm in the proof of
//! Theorem 5.2): strictness `⋃S ⊆ B(λ_r) ∪ treecomp(u)` — in recursion
//! terms `V(S) ⊆ C_r ∪ V(R)` — and the LP bound `rho*(⋃S via S) <= k`.
//! A found strict HD converts into an FHD of `H` of width `<= k` by
//! re-covering each bag fractionally and pushing subedge weights to their
//! originators.
//!
//! Since the strictness condition couples a search state to the parent
//! separator's *full* vertex span (not just the connector), the search runs
//! on the shared [`solver`] engine as the fifth strategy, with the memo key
//! extended by the strictness `allowed` trace through
//! [`WidthSolver::state_key`]. The pre-engine recursion survives as
//! [`check_fhd_bdp_legacy`], the independent oracle the agreement tests
//! certify the strategy against.

use crate::subedges::{hdk_subedges, HdkParams};
use arith::Rational;
use cover::PriceMemo;
use decomp::{Decomposition, Node};
use ghd::check::{augment, Augmented};
use hypergraph::{components, properties, Hypergraph, VertexSet};
use solver::{
    Admission, CandidateStream, EngineOptions, Guess, SearchContext, SearchState, SearchStats,
    WidthSolver,
};
use std::cell::RefCell;
use std::collections::HashMap;

/// Outcome of the bounded-degree FHD check.
#[derive(Clone, Debug)]
pub enum FhdAnswer {
    /// An FHD of `H` of width `<= k`.
    Yes(Box<Decomposition>),
    /// Certified: no FHD of width `<= k` exists (complete enumeration).
    No,
    /// The subedge enumeration was truncated; a failed search is not a
    /// certified "no".
    Unknown,
}

impl FhdAnswer {
    /// The witness, if any.
    pub fn decomposition(&self) -> Option<&Decomposition> {
        match self {
            FhdAnswer::Yes(d) => Some(d),
            _ => None,
        }
    }

    /// True iff a witness was found.
    pub fn is_yes(&self) -> bool {
        matches!(self, FhdAnswer::Yes(_))
    }
}

/// `Check(FHD, k)` under the bounded degree property (Theorem 5.2).
///
/// `k` may be rational (e.g. `3/2`); the support bound is `⌊k·d⌋` per
/// Lemma 5.6. `params` bounds the `h_{d,k}` enumeration — with the paper's
/// (galactic) defaults the algorithm is complete; with practical caps the
/// `No` answer degrades to `Unknown` when truncation occurred.
pub fn check_fhd_bdp(h: &Hypergraph, k: &Rational, params: HdkParams) -> FhdAnswer {
    check_fhd_bdp_with_stats(h, k, params, EngineOptions::default()).0
}

/// As [`check_fhd_bdp`], also reporting engine and separator-LP memo
/// counters. A one-shot check: every call searches, whatever
/// `opts.reuse_results` says (only the width queries are cached).
pub fn check_fhd_bdp_with_stats(
    h: &Hypergraph,
    k: &Rational,
    params: HdkParams,
    opts: EngineOptions,
) -> (FhdAnswer, SearchStats) {
    if h.has_isolated_vertices() || !k.is_positive() {
        return (FhdAnswer::No, SearchStats::default());
    }
    // Decision profile (duplicate edges + twin vertices): `fhw` and the
    // strictness trace are preserved exactly, and the lifted witness stays
    // a valid FHD of `h` at the same width. The `No`/`Unknown` distinction
    // travels around the generic wrapper in `verdict`.
    let mut verdict = FhdAnswer::No;
    let (result, stats) = prep::run_decision(h, opts.prep, |block| {
        let (answer, s) = check_fhd_bdp_piece(block, k, params);
        match answer {
            FhdAnswer::Yes(d) => (Some(((), *d)), s),
            other => {
                verdict = other;
                (None, s)
            }
        }
    });
    let answer = match result {
        Some((_, d)) => FhdAnswer::Yes(Box::new(d)),
        None => verdict,
    };
    (answer, stats)
}

/// Runs the Theorem 5.2 search proper on an (already preprocessed)
/// instance.
fn check_fhd_bdp_piece(
    h: &Hypergraph,
    k: &Rational,
    params: HdkParams,
) -> (FhdAnswer, SearchStats) {
    let Some((aug, bounds)) = prepare(h, k, params) else {
        return (FhdAnswer::No, SearchStats::default());
    };
    let truncated = aug.truncated;
    let strategy = StrictHd {
        aug,
        k: k.clone(),
        support_bound: bounds.support,
        max_union: bounds.union,
        sep_cache: PriceMemo::new(),
        scope_cache: RefCell::new(None),
    };
    let mut cx = SearchContext::new();
    let result = cx.run(strategy.hg(), &strategy);
    let mut stats = cx.stats();
    (stats.price_hits, stats.price_misses) = strategy.sep_cache.counters();
    let answer = match result {
        Some((_, d)) => FhdAnswer::Yes(Box::new(d)),
        None if truncated => FhdAnswer::Unknown,
        None => FhdAnswer::No,
    };
    (answer, stats)
}

/// `fhw` upper search for BDP instances: smallest integer `k <= max_k`
/// accepted by [`check_fhd_bdp`].
pub fn fhw_bdp_integer_search(
    h: &Hypergraph,
    max_k: usize,
    params: HdkParams,
) -> Option<(usize, Decomposition)> {
    for k in 1..=max_k {
        if let FhdAnswer::Yes(d) = check_fhd_bdp(h, &Rational::from(k), params) {
            return Some((k, *d));
        }
    }
    None
}

/// The Lemma 5.6 / branch-prune bounds shared by both implementations.
struct Bounds {
    /// `⌊k·d⌋`: maximum separator support.
    support: usize,
    /// `⌊k·rank⌋`: separators with larger unions cannot satisfy the LP
    /// (`rho*(H_λ) >= |⋃S| / rank`).
    union: usize,
}

/// Builds the augmented hypergraph and the search bounds; `None` when the
/// check is trivially "no".
fn prepare(h: &Hypergraph, k: &Rational, params: HdkParams) -> Option<(Augmented, Bounds)> {
    if h.has_isolated_vertices() || !k.is_positive() {
        return None;
    }
    let d = properties::degree(h);
    let aug = augment(h, hdk_subedges(h, d, params));
    let support_bound = (k * &Rational::from(d)).floor();
    let support_bound = support_bound.to_i64().unwrap_or(i64::MAX).max(0) as usize;
    if support_bound == 0 {
        return None;
    }
    let rank = properties::rank(&aug.hypergraph);
    let max_union = (k * &Rational::from(rank)).floor();
    let max_union = max_union.to_i64().unwrap_or(i64::MAX).max(0) as usize;
    Some((
        aug,
        Bounds {
            support: support_bound,
            union: max_union,
        },
    ))
}

/// A priced separator cover: `rho*(⋃S via S)` and the optimal per-sep-edge
/// weights (`None` = some vertex of `⋃S` uncoverable, impossible here).
type PricedSep = Option<(Rational, Vec<(usize, Rational)>)>;

/// The strict-HD strategy (fifth strategy over the shared engine): guesses
/// are separators `S ⊆ E(H')` with `|S| <= ⌊k·d⌋` whose edges stay inside
/// the strictness span `comp ∪ V(R)`, streamed in the legacy DFS pre-order
/// with the `⌊k·rank⌋` union prune applied to whole subtrees; admission
/// enforces `rho*(H_λ) <= k` through the search's separator price memo,
/// whose entries double as the witness cover (one LP per separator, total).
struct StrictHd {
    /// The augmented instance `H' = H ∪ h_{d,k}(H)` the search runs on.
    aug: Augmented,
    k: Rational,
    support_bound: usize,
    max_union: usize,
    /// `sorted S -> (rho*(H_λ), optimal cover of ⋃S by S)` — shared across
    /// search states, and consulted again (not re-solved) when an admitted
    /// separator's witness weights are built.
    sep_cache: PriceMemo<Vec<usize>, PricedSep>,
    /// One-slot memo for the per-state derivation: the engine calls
    /// [`WidthSolver::state_key`] and then [`WidthSolver::candidates`] on
    /// the same state back to back, and both need the `(usable, allowed)`
    /// pair — cache it so the O(edges) scan plus span unions run once per
    /// state, not twice. The slot re-checks its key before use, so it
    /// stays correct (merely colder) whenever states interleave.
    scope_cache: RefCell<Option<ScopedState>>,
}

/// The cached per-state derivation of [`StrictHd`]: the strictness-filtered
/// candidate edges and the `allowed` span, keyed by `(comp, parent_split)`.
struct ScopedState {
    comp: VertexSet,
    parent_split: VertexSet,
    usable: Vec<usize>,
    allowed: VertexSet,
}

impl StrictHd {
    /// The augmented hypergraph the search runs on.
    fn hg(&self) -> &Hypergraph {
        &self.aug.hypergraph
    }

    /// Usable separator edges (touching the component's closed neighborhood
    /// and inside the strictness span `allowed = comp ∪ (V(R) ∩ span)`),
    /// plus `allowed` itself; memoized per state.
    fn scoped(&self, state: &SearchState<'_>) -> (Vec<usize>, VertexSet) {
        if let Some(s) = &*self.scope_cache.borrow() {
            if &s.comp == state.comp && &s.parent_split == state.parent_split {
                return (s.usable.clone(), s.allowed.clone());
            }
        }
        let hg = self.hg();
        let neighborhood = hg.union_of_edges(state.comp_edges.iter().copied());
        let candidates: Vec<usize> = (0..hg.num_edges())
            .filter(|&e| hg.edge(e).intersects(&neighborhood))
            .collect();
        let span = hg.union_of_edges(candidates.iter().copied());
        let allowed = state.comp.union(&state.parent_split.intersection(&span));
        // Strictness prefilter: every separator edge must stay inside
        // comp ∪ V(R) (hoisted out of the subset enumeration).
        let usable: Vec<usize> = candidates
            .into_iter()
            .filter(|&e| hg.edge(e).is_subset(&allowed))
            .collect();
        *self.scope_cache.borrow_mut() = Some(ScopedState {
            comp: state.comp.clone(),
            parent_split: state.parent_split.clone(),
            usable: usable.clone(),
            allowed: allowed.clone(),
        });
        (usable, allowed)
    }

    /// `rho*(H_λ) <= k` with the witness cover, via the separator memo. Two
    /// exact-safe filters keep the LP off trivial separators: all-ones
    /// weights give `rho* <= |S|` (and already *are* a conforming witness
    /// cover when `|S| <= k`), and counting coverage gives
    /// `rho* >= |⋃S| / max |e|` for `e ∈ S`.
    fn cover_ok(&self, sep: &[usize], vs: &VertexSet) -> Option<Vec<(usize, Rational)>> {
        if Rational::from(sep.len()) <= self.k {
            return Some(sep.iter().map(|&e| (e, Rational::one())).collect());
        }
        let rank = sep
            .iter()
            .map(|&e| self.hg().edge(e).len())
            .max()
            .expect("separator is non-empty");
        if Rational::from(vs.len()) > &self.k * &Rational::from(rank) {
            return None;
        }
        let (weight, weights) = self
            .sep_cache
            .get_or_insert_with(&sep.to_vec(), || price_separator(self.hg(), sep, vs))?;
        (weight <= self.k).then_some(weights)
    }
}

/// The one LP per separator: an optimal fractional edge cover of `⋃S`
/// using only the edges of `S`, as `(weight, sparse weights by edge id)`.
fn price_separator(h: &Hypergraph, sep: &[usize], vs: &VertexSet) -> PricedSep {
    let sub = Hypergraph::from_edges(
        h.num_vertices(),
        sep.iter().map(|&e| h.edge(e).to_vec()).collect(),
    );
    let c = cover::fractional_cover(&sub, vs)?;
    let weights: Vec<(usize, Rational)> = c
        .weights
        .into_iter()
        .enumerate()
        .filter(|(_, w)| !w.is_zero())
        .map(|(local, w)| (sep[local], w))
        .collect();
    Some((c.weight, weights))
}

impl WidthSolver for StrictHd {
    type Cost = Rational;

    fn is_decision(&self) -> bool {
        true
    }

    fn has_state_key(&self) -> bool {
        true
    }

    fn state_key(&self, _h: &Hypergraph, state: SearchState<'_>) -> Option<VertexSet> {
        // Strictness couples the search to V(R) beyond `conn`: the allowed
        // separator span is comp ∪ V(R), so key on its trace too.
        let (_, allowed) = self.scoped(&state);
        Some(allowed)
    }

    fn candidates<'a>(&'a self, _h: &'a Hypergraph, state: SearchState<'a>) -> CandidateStream<'a> {
        let (usable, _) = self.scoped(&state);
        CandidateStream::new(PrunedEdgeSubsets {
            h: self.hg(),
            usable,
            max_len: self.support_bound,
            max_union: self.max_union,
            stack: Vec::new(),
            cursor: 0,
        })
    }

    fn admit(
        &self,
        _h: &Hypergraph,
        state: SearchState<'_>,
        guess: &Guess,
        _bound: Option<&Rational>,
    ) -> Option<Admission<Rational>> {
        // The stream carries V(S) in `extra`; the engine checks the cover
        // condition (`conn ⊆ bag`) and progress (`bag ∩ comp != ∅`).
        let vs = &guess.extra;
        if !state.conn.is_subset(vs) || !vs.intersects(state.comp) {
            return None;
        }
        let sep_cover = self.cover_ok(&guess.edges, vs)?;
        let weights = self.aug.to_originators(&sep_cover);
        let cost: Rational = weights.iter().map(|(_, w)| w.clone()).sum();
        Some(Admission {
            bag: vs.clone(),
            cost,
            weights,
        })
    }
}

/// Lazily enumerates the separator subsets of `usable` in the legacy DFS
/// pre-order (each prefix before its extensions, siblings by index), with
/// at most `max_len` edges, pruning every subtree whose running union
/// exceeds `max_union`. Each pulled guess carries the separator's `V(S)`
/// in `extra`, accumulated incrementally along the DFS path.
struct PrunedEdgeSubsets<'a> {
    h: &'a Hypergraph,
    usable: Vec<usize>,
    max_len: usize,
    max_union: usize,
    /// DFS path: `(position in usable, union of the path's edges)`.
    stack: Vec<(usize, VertexSet)>,
    /// Next position to try at the current level.
    cursor: usize,
}

impl Iterator for PrunedEdgeSubsets<'_> {
    type Item = Guess;

    fn next(&mut self) -> Option<Guess> {
        loop {
            if self.stack.len() < self.max_len {
                while self.cursor < self.usable.len() {
                    let i = self.cursor;
                    self.cursor += 1;
                    let union = match self.stack.last() {
                        Some((_, u)) => u.union(self.h.edge(self.usable[i])),
                        None => self.h.edge(self.usable[i]).clone(),
                    };
                    if union.len() > self.max_union {
                        continue;
                    }
                    self.stack.push((i, union.clone()));
                    // Descend: the next call extends this prefix from
                    // i + 1, which is where `cursor` already points.
                    return Some(Guess {
                        edges: self.stack.iter().map(|&(p, _)| self.usable[p]).collect(),
                        extra: union,
                    });
                }
            }
            // Level exhausted (or at max depth): backtrack to the next
            // sibling of the deepest chosen edge.
            let (i, _) = self.stack.pop()?;
            self.cursor = i + 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Legacy oracle: the pre-engine recursion, kept verbatim as an independent
// implementation for the agreement tests (and nothing else).
// ---------------------------------------------------------------------------

/// The pre-engine `Check(FHD, k)`: private `(comp, allowed)`-memoized DFS
/// with its own witness construction. Semantically identical to
/// [`check_fhd_bdp`]; retained purely as the agreement-test oracle.
pub fn check_fhd_bdp_legacy(h: &Hypergraph, k: &Rational, params: HdkParams) -> FhdAnswer {
    let Some((aug, bounds)) = prepare(h, k, params) else {
        return FhdAnswer::No;
    };
    let hp = &aug.hypergraph;
    let mut search = StrictSearch {
        h: hp,
        k: k.clone(),
        support_bound: bounds.support,
        max_union: bounds.union,
        memo: HashMap::new(),
        plans: Vec::new(),
        lp_cache: HashMap::new(),
    };
    let root = hp.all_vertices();
    match search.decompose(&root, &VertexSet::new()) {
        Some(plan) => FhdAnswer::Yes(Box::new(build_fhd(h, &aug, &search, plan))),
        None if aug.truncated => FhdAnswer::Unknown,
        None => FhdAnswer::No,
    }
}

struct PlanNode {
    sep: Vec<usize>,
    children: Vec<usize>,
}

struct StrictSearch<'a> {
    h: &'a Hypergraph,
    k: Rational,
    support_bound: usize,
    /// `⌊k·rank⌋`: separators with larger unions cannot satisfy the LP.
    max_union: usize,
    memo: HashMap<(VertexSet, VertexSet), Option<usize>>,
    plans: Vec<PlanNode>,
    /// `sorted S -> rho*(H_λ) <= k?`
    lp_cache: HashMap<Vec<usize>, bool>,
}

impl StrictSearch<'_> {
    fn decompose(&mut self, comp: &VertexSet, parent_vs: &VertexSet) -> Option<usize> {
        let comp_edges = self.h.edges_intersecting(comp);
        let neighborhood = self.h.union_of_edges(comp_edges.iter().copied());
        let conn = parent_vs.intersection(&neighborhood);
        // Strictness couples the search to V(R) beyond `conn`: the allowed
        // separator span is comp ∪ V(R), so key on its trace too.
        let candidates: Vec<usize> = (0..self.h.num_edges())
            .filter(|&e| self.h.edge(e).intersects(&neighborhood))
            .collect();
        let span = self.h.union_of_edges(candidates.iter().copied());
        let allowed = comp.union(&parent_vs.intersection(&span));
        let key = (comp.clone(), allowed.clone());
        if let Some(hit) = self.memo.get(&key) {
            return *hit;
        }
        // Strictness prefilter: every separator edge must stay inside
        // comp ∪ V(R) (hoisted out of the subset enumeration).
        let usable: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&e| self.h.edge(e).is_subset(&allowed))
            .collect();
        let mut chosen = Vec::new();
        let res = self.dfs(
            comp,
            &conn,
            &comp_edges,
            &usable,
            0,
            &mut chosen,
            &VertexSet::new(),
        );
        self.memo.insert(key, res);
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        comp: &VertexSet,
        conn: &VertexSet,
        comp_edges: &[usize],
        candidates: &[usize],
        start: usize,
        chosen: &mut Vec<usize>,
        vs: &VertexSet,
    ) -> Option<usize> {
        if !chosen.is_empty() {
            if let Some(plan) = self.try_separator(comp, conn, comp_edges, chosen, vs) {
                return Some(plan);
            }
        }
        if chosen.len() == self.support_bound {
            return None;
        }
        for (i, &e) in candidates.iter().enumerate().skip(start) {
            let next_vs = vs.union(self.h.edge(e));
            if next_vs.len() > self.max_union {
                continue;
            }
            chosen.push(e);
            let res = self.dfs(comp, conn, comp_edges, candidates, i + 1, chosen, &next_vs);
            chosen.pop();
            if res.is_some() {
                return res;
            }
        }
        None
    }

    fn try_separator(
        &mut self,
        comp: &VertexSet,
        conn: &VertexSet,
        comp_edges: &[usize],
        chosen: &[usize],
        vs: &VertexSet,
    ) -> Option<usize> {
        if !conn.is_subset(vs) || !vs.intersects(comp) {
            return None;
        }
        // rho*(H_λ) <= k on the separator's own hypergraph.
        if !self.cover_ok(chosen, vs) {
            return None;
        }
        let subs: Vec<VertexSet> = components::components(self.h, vs)
            .into_iter()
            .filter(|sub| sub.is_subset(comp))
            .collect();
        // Edge coverage exactly as in det-k-decomp (checked before the
        // recursive descent — it only needs the component split).
        for &e in comp_edges {
            let edge = self.h.edge(e);
            if edge.is_subset(vs) {
                continue;
            }
            let remainder = edge.difference(vs);
            if !subs.iter().any(|sub| remainder.is_subset(sub)) {
                return None;
            }
        }
        let mut children = Vec::new();
        for sub in &subs {
            let plan = self.decompose(sub, vs)?;
            children.push(plan);
        }
        self.plans.push(PlanNode {
            sep: chosen.to_vec(),
            children,
        });
        Some(self.plans.len() - 1)
    }

    /// `rho*(H_λ) <= k`, with two exact-safe filters so the LP only runs on
    /// genuinely ambiguous separators: all-ones weights give
    /// `rho* <= |S|`, and counting coverage gives
    /// `rho* >= |⋃S| / max |e|` for `e ∈ S`.
    fn cover_ok(&mut self, sep: &[usize], vs: &VertexSet) -> bool {
        if Rational::from(sep.len()) <= self.k {
            return true;
        }
        let rank = sep
            .iter()
            .map(|&e| self.h.edge(e).len())
            .max()
            .expect("separator is non-empty");
        if Rational::from(vs.len()) > &self.k * &Rational::from(rank) {
            return false;
        }
        if let Some(hit) = self.lp_cache.get(sep) {
            return *hit;
        }
        let ok = match price_separator(self.h, sep, vs) {
            Some((weight, _)) => weight <= self.k,
            None => false,
        };
        self.lp_cache.insert(sep.to_vec(), ok);
        ok
    }
}

/// Materializes the FHD of the *original* hypergraph from a strict plan:
/// bag `= ⋃S`, weights = optimal fractional cover of the bag by the
/// separator's edges, pushed to originators.
fn build_fhd(h: &Hypergraph, aug: &Augmented, search: &StrictSearch, plan: usize) -> Decomposition {
    fn node_for(aug: &Augmented, sep: &[usize]) -> Node {
        let hp = &aug.hypergraph;
        let bag = hp.union_of_edges(sep.iter().copied());
        let (_, cover) = price_separator(hp, sep, &bag).expect("separator covers its own union");
        Node {
            bag,
            weights: aug.to_originators(&cover),
        }
    }

    fn attach(
        aug: &Augmented,
        search: &StrictSearch,
        plan: usize,
        d: &mut Decomposition,
        parent: Option<usize>,
    ) {
        let p = &search.plans[plan];
        let node = node_for(aug, &p.sep);
        let id = match parent {
            None => {
                *d.node_mut(0) = node;
                0
            }
            Some(pid) => d.add_child(pid, node),
        };
        for &c in &p.children {
            attach(aug, search, c, d, Some(id));
        }
    }

    let _ = h;
    let mut d = Decomposition::new(Node::integral(VertexSet::new(), []));
    attach(aug, search, plan, &mut d, None);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;
    use decomp::validate;
    use hypergraph::generators;

    fn params() -> HdkParams {
        HdkParams::default()
    }

    #[test]
    fn acyclic_accepted_at_k_1() {
        let h = generators::path(5);
        let ans = check_fhd_bdp(&h, &Rational::one(), params());
        let d = ans.decomposition().expect("paths have fhw 1");
        assert_eq!(validate::validate_fhd(&h, &d.clone()), Ok(()));
        assert!(d.width() <= Rational::one());
    }

    #[test]
    fn triangle_accepted_at_three_halves() {
        // fhw(C3) = 3/2 — the fractional optimum must be found, and k = 4/3
        // must be rejected.
        let h = generators::cycle(3);
        let yes = check_fhd_bdp(&h, &rat(3, 2), params());
        let d = yes.decomposition().expect("fhw(C3) = 3/2");
        assert_eq!(validate::validate_fhd(&h, &d.clone()), Ok(()));
        assert!(d.width() <= rat(3, 2));
        let no = check_fhd_bdp(&h, &rat(4, 3), params());
        assert!(!no.is_yes());
    }

    #[test]
    fn cycles_need_2() {
        let h = generators::cycle(5);
        assert!(!check_fhd_bdp(&h, &rat(3, 2), params()).is_yes());
        let yes = check_fhd_bdp(&h, &rat(2, 1), params());
        let d = yes.decomposition().expect("fhw(C5) = 2");
        assert_eq!(validate::validate_fhd(&h, &d.clone()), Ok(()));
    }

    #[test]
    fn agreement_with_exact_fhw_on_bounded_degree_corpus() {
        for seed in 0..3u64 {
            let h = generators::random_bounded_degree(8, 5, 2, 3, seed);
            let Some((exact, _)) = crate::exact::fhw_exact(&h, None) else {
                continue;
            };
            let ans = check_fhd_bdp(&h, &exact, params());
            assert!(
                ans.is_yes(),
                "seed {seed}: BDP check must accept fhw = {exact}"
            );
            if let Some(d) = ans.decomposition() {
                assert_eq!(
                    validate::validate_fhd(&h, &d.clone()),
                    Ok(()),
                    "seed {seed}"
                );
                assert!(d.width() <= exact, "seed {seed}");
            }
        }
    }

    #[test]
    fn integer_search() {
        let h = generators::cycle(4);
        let (k, d) = fhw_bdp_integer_search(&h, 3, params()).unwrap();
        assert_eq!(k, 2);
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
    }

    #[test]
    fn engine_strategy_agrees_with_legacy_oracle() {
        // The fifth strategy must return the same yes/no as the retired
        // private recursion, with both witnesses validating at width k.
        let mut cases: Vec<(Hypergraph, Rational)> = vec![
            (generators::path(5), Rational::one()),
            (generators::cycle(3), rat(3, 2)),
            (generators::cycle(3), rat(4, 3)),
            (generators::cycle(4), rat(2, 1)),
            (generators::star(4), Rational::one()),
        ];
        for seed in 0..3u64 {
            cases.push((
                generators::random_bounded_degree(7, 4, 2, 3, seed),
                rat(2, 1),
            ));
        }
        for (h, k) in cases {
            let engine = check_fhd_bdp(&h, &k, params());
            let legacy = check_fhd_bdp_legacy(&h, &k, params());
            assert_eq!(
                engine.is_yes(),
                legacy.is_yes(),
                "engine vs legacy on {h:?} at k = {k}"
            );
            for (name, ans) in [("engine", &engine), ("legacy", &legacy)] {
                if let Some(d) = ans.decomposition() {
                    assert_eq!(validate::validate_fhd(&h, &d.clone()), Ok(()), "{name}");
                    assert!(d.width() <= k, "{name} witness exceeds {k}");
                }
            }
        }
    }

    #[test]
    fn strict_search_reports_lp_cache_activity() {
        let h = generators::cycle(3);
        // Result reuse off (`sequential`): this call runs the search.
        let (ans, stats) =
            check_fhd_bdp_with_stats(&h, &rat(3, 2), params(), EngineOptions::sequential());
        assert!(ans.is_yes());
        assert!(stats.states > 0);
        assert!(stats.streamed >= stats.admitted);
        // The triangle at k = 3/2 needs genuinely fractional separators, so
        // at least one separator LP ran.
        assert!(stats.price_misses > 0);
    }
}
