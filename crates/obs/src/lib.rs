//! Process-wide observability for the hypertree stack: span tracing,
//! a metrics registry, and the sinks that surface both.
//!
//! The crate sits at the very bottom of the workspace (std-only, no
//! workspace dependencies) so every layer — `lp` simplex pivots,
//! `cover` pricing, `prep` passes and caches, `candgen` seeding, the
//! `solver` engine/runtime, and the `hgtool` front end — can
//! report into one place without dependency cycles.
//!
//! # Three faces
//!
//! * [`trace`] — lightweight [`span!`] scopes with monotonic
//!   timestamps, recorded into per-thread buffers and merged into a
//!   process-wide collector when the opening thread's scope stack
//!   empties. Rendered as a human tree ([`trace::render_tree`]), a
//!   JSONL event stream ([`trace::render_jsonl`], schema documented
//!   there), or flamegraph-compatible folded stacks
//!   ([`trace::render_folded`]).
//! * [`metrics`] — process-lifetime counters, gauges and histograms,
//!   snapshotted in Prometheus text exposition format
//!   ([`metrics::render_prometheus`]); `hgtool metrics` prints it, and
//!   the ROADMAP's `hgtool serve` will expose it.
//! * **Determinism discipline** — tracing is gated by the
//!   `HGTOOL_TRACE` environment variable (or
//!   [`trace::set_enabled`]); when off, [`span!`] is a single relaxed
//!   atomic load and its field expressions are never evaluated.
//!   Nothing in this crate is ever *read* by search code: widths,
//!   witnesses and every `SearchStats` counter are byte-identical with
//!   tracing on or off (the `trace_determinism` integration suite pins
//!   this).

pub mod json;
pub mod metrics;
pub mod trace;

/// Opens a traced span scope: `span!("phase")` or
/// `span!("phase", key = value, ...)`.
///
/// Returns `Option<SpanGuard>`; bind it (`let _span = span!(...)`) so
/// the scope closes when the guard drops. When tracing is disabled the
/// macro costs one relaxed atomic load and returns `None` without
/// evaluating any field expression — it must never feed back into
/// search decisions.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            Some($crate::trace::SpanGuard::enter(
                $name,
                vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
            ))
        } else {
            None
        }
    };
}
