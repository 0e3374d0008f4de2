//! Width-preserving preprocessing for the width solvers.
//!
//! Real CQ/CSP instances shrink dramatically under simplifications that
//! provably preserve `hw`/`ghw`/`fhw` (HyperBench's headline observation),
//! and most of what survives splits at cut vertices into independently
//! solvable biconnected blocks. This crate is the front door every
//! strategy's `_with_stats` entry point walks through (opt-out via
//! `EngineOptions::prep`):
//!
//! 1. [`simplify`] — composable passes (duplicate/subsumed edges, twin
//!    vertices, degree-one vertices; their fixpoint is the GYO
//!    ear-elimination), each recording a [`simplify::Step`] so witnesses
//!    lift back to the original instance;
//! 2. [`blocks`] — biconnected-block splitting: each block solves
//!    independently, the width recombines as the maximum, and the
//!    [`lift`] module stitches the block trees back into one witness;
//! 3. [`global_cache`] — the process-lifetime result cache: whole-query
//!    answers ([`cached_query`]), keyed by the instance's [`InstanceKey`]
//!    (its flat canonical form and a once-computed keyed hash), which a
//!    repeated call adopts instead of searching; answers and their LRU
//!    order sit under one lock.
//!
//! See `src/README.md` for the pass catalog, the trace/lift contract, the
//! fingerprint definition and the cache lifetime rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod cancel;
pub mod fingerprint;
pub mod global_cache;
pub mod lift;
pub mod simplify;
pub mod stats;

pub use fingerprint::{fingerprint, Fingerprint, InstanceKey};
pub use global_cache::{cached_query, global, ResultCache};
pub use simplify::{Pass, Step};
pub use stats::SearchStats;

use decomp::Decomposition;
use hypergraph::Hypergraph;

/// Which pipeline a strategy runs, determined by what its width notion and
/// witness conditions tolerate (see the safety matrix in [`simplify`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Minimizing subset searches (`ghw`/`fhw`): all passes (the full GYO
    /// closure) plus biconnected-block splitting.
    Minimizer,
    /// Decision searches bound to a (weak) special condition or strictness
    /// trace (`det-k-decomp`, `frac-decomp`, strict-HD): duplicate-edge
    /// and twin-vertex collapse only, no block splitting (re-rooting block
    /// trees is not special-condition-safe).
    Decision,
}

impl Profile {
    fn passes(self) -> &'static [Pass] {
        match self {
            Profile::Minimizer => &[
                Pass::DuplicateEdges,
                Pass::SubsumedEdges,
                Pass::TwinVertices,
                Pass::DegreeOneVertices,
            ],
            Profile::Decision => &[Pass::DuplicateEdges, Pass::TwinVertices],
        }
    }

    fn split_blocks(self) -> bool {
        matches!(self, Profile::Minimizer)
    }

    /// Short display name (trace span fields).
    fn name(self) -> &'static str {
        match self {
            Profile::Minimizer => "minimizer",
            Profile::Decision => "decision",
        }
    }
}

/// Aggregate counts of one [`prepare`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepStats {
    /// Vertices removed by the simplification passes.
    pub vertices_removed: usize,
    /// Edges removed by the simplification passes.
    pub edges_removed: usize,
    /// Number of independently solvable blocks (1 = no split happened).
    pub blocks: usize,
}

/// One independently solvable piece of the reduced instance.
pub struct BlockInstance {
    /// The block as a dense hypergraph, ready for any solver.
    pub hypergraph: Hypergraph,
    /// Block-local vertex index → original vertex index.
    pub vertex_origin: Vec<usize>,
    /// Block-local edge index → original edge index.
    pub edge_origin: Vec<usize>,
    /// The cut vertex (original index) shared with an earlier block.
    anchor: Option<usize>,
}

impl BlockInstance {
    /// Renumbers a decomposition of this block into original indices.
    pub fn translate(&self, d: &Decomposition) -> Decomposition {
        lift::translate(d, &self.vertex_origin, &self.edge_origin)
    }
}

/// The output of [`prepare`]: the reduction trace plus the blocks to
/// solve. Solve every block (same strategy, same cutoff), combine the
/// width as the maximum, and hand the block-local witnesses to
/// [`Prepared::lift`].
pub struct Prepared {
    steps: Vec<Step>,
    /// The blocks, in stitch order.
    pub blocks: Vec<BlockInstance>,
    /// Aggregate reduction counts.
    pub stats: PrepStats,
}

impl Prepared {
    /// Lifts block-local witnesses (aligned with [`Prepared::blocks`])
    /// back to one decomposition of the original hypergraph: translate,
    /// stitch along cut vertices, then undo the simplification steps in
    /// reverse. Width is preserved exactly.
    pub fn lift(&self, parts: Vec<Decomposition>) -> Decomposition {
        assert_eq!(parts.len(), self.blocks.len(), "one witness per block");
        let translated: Vec<(Decomposition, Option<usize>)> = parts
            .iter()
            .zip(&self.blocks)
            .map(|(d, b)| (b.translate(d), b.anchor))
            .collect();
        let mut out = lift::stitch(translated);
        lift::undo_steps(&mut out, &self.steps);
        out
    }

    /// The recorded simplification steps, in application order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }
}

/// The prepare→solve→lift wrapper shared by the decision strategies
/// (`det-k-decomp`, `frac-decomp`, the strict-HD check): run the
/// conservative [`Profile::Decision`] passes, solve the single reduced
/// block with `solve`, record the reduction counts and lift the witness
/// back to `h`. With preprocessing disabled (`opt_in` false) `solve` runs
/// directly on `h`.
///
/// `T` is whatever extra payload the strategy returns alongside its
/// witness (the accepted `k` of a width iteration, `()` for a plain
/// check). Callers keep their own up-front input validation (isolated
/// vertices, parameter checks).
pub fn run_decision<T>(
    h: &Hypergraph,
    opt_in: bool,
    solve: impl FnOnce(&Hypergraph) -> (Option<(T, Decomposition)>, SearchStats),
) -> (Option<(T, Decomposition)>, SearchStats) {
    if !opt_in {
        return solve(h);
    }
    let prepared = prepare(h, Profile::Decision);
    let (result, mut stats) = solve(&prepared.blocks[0].hypergraph);
    stats.prep_vertices_removed = prepared.stats.vertices_removed;
    stats.prep_edges_removed = prepared.stats.edges_removed;
    stats.prep_blocks = prepared.stats.blocks;
    (result.map(|(t, d)| (t, prepared.lift(vec![d]))), stats)
}

/// The solve→lift loop shared by the minimizing strategies (`ghw`/`fhw`)
/// over `h`'s [`Profile::Minimizer`] preparation: solve each biconnected
/// block independently with `solve` (given the block's index in
/// [`Prepared::blocks`] and its hypergraph), combine the width as the
/// maximum over blocks, stitch the block witnesses and lift the result
/// back to `h`. Any block failing (`None`, e.g. too large for the exact
/// engines or cut off) fails the whole call, with the merged stats of the
/// blocks solved so far.
///
/// The caller prepares, so that several measures of one instance can share
/// one preparation. `prepared` is `None` when preprocessing is off
/// (`EngineOptions::prep` false); `solve` then runs once, on `h` itself as
/// block 0.
pub fn run_minimizer<C: PartialOrd>(
    h: &Hypergraph,
    prepared: Option<&Prepared>,
    mut solve: impl FnMut(usize, &Hypergraph) -> (Option<(C, Decomposition)>, SearchStats),
) -> (Option<(C, Decomposition)>, SearchStats) {
    let Some(prepared) = prepared else {
        return solve(0, h);
    };
    let mut stats = SearchStats {
        prep_vertices_removed: prepared.stats.vertices_removed,
        prep_edges_removed: prepared.stats.edges_removed,
        prep_blocks: prepared.stats.blocks,
        ..SearchStats::default()
    };
    let mut parts = Vec::with_capacity(prepared.blocks.len());
    let mut best: Option<C> = None;
    for (i, block) in prepared.blocks.iter().enumerate() {
        let (result, s) = solve(i, &block.hypergraph);
        stats.merge(&s);
        let Some((w, d)) = result else {
            return (None, stats);
        };
        if best.as_ref().is_none_or(|b| w > *b) {
            best = Some(w);
        }
        parts.push(d);
    }
    let width = best.expect("at least one block");
    (Some((width, prepared.lift(parts))), stats)
}

/// Runs the `profile`'s simplification passes to fixpoint on `h`, splits
/// the result into biconnected blocks (minimizer profile only), and
/// returns the instances to solve together with the lift trace.
///
/// `h` must have no isolated vertices (the solvers reject those upstream).
/// There is always at least one block.
pub fn prepare(h: &Hypergraph, profile: Profile) -> Prepared {
    let span = obs::span!(
        "prep",
        profile = profile.name(),
        vertices = h.num_vertices(),
        edges = h.num_edges()
    );
    let simplified = simplify::simplify(h, profile.passes());
    let stats = PrepStats {
        vertices_removed: simplified.vertices_removed(h),
        edges_removed: simplified.edges_removed(h),
        blocks: 0,
    };

    // The reduced instance, densely renumbered: vertex/edge origin maps
    // translate back to `h`'s indices.
    let vertex_origin: Vec<usize> = simplified.alive_vertices.to_vec();
    let mut to_dense = vec![usize::MAX; h.num_vertices()];
    for (new, &old) in vertex_origin.iter().enumerate() {
        to_dense[old] = new;
    }
    let reduced_edges: Vec<Vec<usize>> = simplified
        .alive_edges
        .iter()
        .map(|&e| {
            h.edge(e)
                .iter()
                .filter(|v| simplified.alive_vertices.contains(*v))
                .map(|v| to_dense[v])
                .collect()
        })
        .collect();
    let reduced = Hypergraph::from_parts(
        vertex_origin
            .iter()
            .map(|&v| h.vertex_name(v).to_string())
            .collect(),
        simplified
            .alive_edges
            .iter()
            .map(|&e| h.edge_name(e).to_string())
            .collect(),
        reduced_edges,
    );

    let blocks = if profile.split_blocks() {
        let split = blocks::split(&reduced);
        let per_block_edges = blocks::assign_edges(&reduced, &split);
        split
            .into_iter()
            .zip(per_block_edges)
            .map(|(block, edges)| {
                block_instance(
                    &reduced,
                    &vertex_origin,
                    &simplified.alive_edges,
                    block,
                    edges,
                )
            })
            .collect()
    } else {
        vec![BlockInstance {
            hypergraph: reduced,
            vertex_origin,
            edge_origin: simplified.alive_edges.clone(),
            anchor: None,
        }]
    };

    if let Some(span) = span.as_ref() {
        span.record("blocks", blocks.len());
    }
    Prepared {
        steps: simplified.steps,
        stats: PrepStats {
            blocks: blocks.len(),
            ..stats
        },
        blocks,
    }
}

/// Builds the dense sub-instance of one block of the reduced hypergraph,
/// with origin maps composed through to the original indices.
fn block_instance(
    reduced: &Hypergraph,
    reduced_vertex_origin: &[usize],
    reduced_edge_origin: &[usize],
    block: blocks::Block,
    edges: Vec<usize>,
) -> BlockInstance {
    let verts: Vec<usize> = block.vertices.to_vec();
    let mut to_local = vec![usize::MAX; reduced.num_vertices()];
    for (new, &old) in verts.iter().enumerate() {
        to_local[old] = new;
    }
    let contents: Vec<Vec<usize>> = edges
        .iter()
        .map(|&e| reduced.edge(e).iter().map(|v| to_local[v]).collect())
        .collect();
    let hypergraph = Hypergraph::from_parts(
        verts
            .iter()
            .map(|&v| reduced.vertex_name(v).to_string())
            .collect(),
        edges
            .iter()
            .map(|&e| reduced.edge_name(e).to_string())
            .collect(),
        contents,
    );
    BlockInstance {
        hypergraph,
        vertex_origin: verts.iter().map(|&v| reduced_vertex_origin[v]).collect(),
        edge_origin: edges.iter().map(|&e| reduced_edge_origin[e]).collect(),
        anchor: block.anchor.map(|c| reduced_vertex_origin[c]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    #[test]
    fn acyclic_instances_collapse_to_a_trivial_block() {
        let h = generators::cq_chain(4, 3, 1);
        let p = prepare(&h, Profile::Minimizer);
        assert!(p.stats.vertices_removed > 0);
        assert_eq!(p.blocks.len(), 1);
        assert!(p.blocks[0].hypergraph.num_vertices() <= 3);
    }

    #[test]
    fn decision_profile_is_conservative() {
        // The chain loses nothing under dup+twin... except twins inside
        // shared-attribute relations; crucially no blocks are split.
        let h = generators::grid(3, 3);
        let p = prepare(&h, Profile::Decision);
        assert_eq!(p.blocks.len(), 1);
    }

    #[test]
    fn cut_vertices_split_into_blocks() {
        // Two triangles joined at one vertex.
        let h = Hypergraph::from_edges(
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
        let p = prepare(&h, Profile::Minimizer);
        assert_eq!(p.blocks.len(), 2);
        assert_eq!(p.stats.blocks, 2);
        for b in &p.blocks {
            assert_eq!(b.hypergraph.num_vertices(), 3);
            assert_eq!(b.hypergraph.num_edges(), 3);
        }
    }
}
