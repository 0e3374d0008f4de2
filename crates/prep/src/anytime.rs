//! The anytime control channel of a width computation: cooperative
//! cancellation with deadlines, and monotone lower/upper bound reporting
//! with witness-backed upper bounds.
//!
//! A caller that wants to bound or watch a computation runs it under a
//! [`RunCtl`] — a [`CancelToken`] plus a [`BoundSink`]. The daemon does
//! this per request: the token is a child of the server's root token
//! carrying the request's deadline. Without a control everything runs
//! uncancellable and reports nowhere. This module lives in `prep` (below
//! `solver` in the dependency graph) because the two places that must
//! *observe* the channel sit on either side of the engine: the strategy
//! wrappers and the prepare→solve→lift plumbing in this crate report
//! bounds and lift their witnesses, while the engine in `solver` polls
//! the token between candidates.
//!
//! The channel is *ambient*: [`with_ctl`] installs a control on the
//! calling thread for the duration of a closure, and anything underneath —
//! wrapper, prep pipeline, engine root — picks it up via [`current`]
//! without signature changes. Worker-pool threads never read the ambient
//! state; the engine hands them the same token with every batch of work.
//!
//! ## Monotonicity
//!
//! A [`BoundSink`] only ever tightens: a lower-bound report that does not
//! exceed the current lower bound is dropped, as is an upper bound that
//! does not improve on the current one. The accepted sequence is recorded
//! in an event trace (`lb` nondecreasing, `ub` nonincreasing by
//! construction — the agreement suites assert it anyway), and every
//! accepted upper bound carries the witness that certifies it, already
//! lifted to the original instance.
//!
//! ## Cancellation-as-unwind
//!
//! The engine cannot return "interrupted" through its memoized result
//! type without poisoning caches (a `None` means *no decomposition
//! exists* and would be stored as an answer). Instead a canceled root
//! raises an [`Interrupted`] unwind via [`interrupt`]: the result-cache
//! claim guards abandon their entries on the way out (waiters re-run
//! instead of adopting a half answer), and the caller that installed the
//! control catches the payload. A process-wide panic-hook shim keeps
//! these control-flow unwinds out of stderr.

use arith::Rational;
use decomp::Decomposition;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// A cooperative cancellation token: an explicit flag, an optional
/// deadline, and an optional parent whose cancellation propagates to
/// every descendant. Cheap to clone (one `Arc`).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

struct TokenInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh root token with no deadline.
    pub fn new() -> Self {
        CancelToken::build(None, None)
    }

    /// A fresh root token that auto-cancels once `d` has elapsed.
    pub fn with_deadline(d: Duration) -> Self {
        CancelToken::build(Some(Instant::now() + d), None)
    }

    /// A child of `self`: canceled when `self` is, or on its own flag.
    pub fn child(&self) -> Self {
        CancelToken::build(None, Some(self.clone()))
    }

    /// A child that additionally auto-cancels after `d` (the daemon's
    /// per-request deadline under its root token).
    pub fn child_with_deadline(&self, d: Option<Duration>) -> Self {
        CancelToken::build(d.map(|d| Instant::now() + d), Some(self.clone()))
    }

    fn build(deadline: Option<Instant>, parent: Option<CancelToken>) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                deadline,
                parent,
            }),
        }
    }

    /// Requests cancellation of this token and every descendant.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// True once canceled explicitly, past the deadline, or via an
    /// ancestor. Deadline expiry *is* cancellation — no watchdog thread.
    pub fn is_canceled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        match &self.inner.parent {
            Some(p) => p.is_canceled(),
            None => false,
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("canceled", &self.is_canceled())
            .finish()
    }
}

/// One accepted (improving) bound report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundEvent {
    /// The lower bound rose to this value.
    Lower(Rational),
    /// The upper bound fell to this value (witness stored separately).
    Upper(Rational),
}

/// A snapshot of the best-so-far bounds of one sink.
#[derive(Clone, Debug, Default)]
pub struct Bounds {
    /// Best (largest) reported lower bound.
    pub lower: Option<Rational>,
    /// Best (smallest) reported upper bound.
    pub upper: Option<Rational>,
    /// The witness certifying `upper`, lifted to the original instance.
    pub witness: Option<Decomposition>,
}

type LiftFn = dyn Fn(&Decomposition) -> Decomposition + Send + Sync;

struct SinkState {
    lower: Option<Rational>,
    upper: Option<(Rational, Option<Decomposition>)>,
    trace: Vec<BoundEvent>,
    first_bound: Option<Duration>,
    listeners: Vec<BoundSink>,
}

struct SinkShared {
    created: Instant,
    state: Mutex<SinkState>,
}

/// The anytime reporting channel: monotonically tightening lower/upper
/// bounds, each accepted upper bound witness-backed. Handles are cheap
/// clones of one shared state; a handle can carry a witness *lift*
/// (applied before storing, so block-local witnesses surface as
/// whole-instance ones) or have upper-bound reporting disabled (the
/// multi-block case, where no single block witness certifies the
/// instance).
#[derive(Clone)]
pub struct BoundSink {
    shared: Arc<SinkShared>,
    lift: Option<Arc<LiftFn>>,
    upper_enabled: bool,
}

impl BoundSink {
    /// A fresh sink with no bounds.
    pub fn new() -> Self {
        BoundSink {
            shared: Arc::new(SinkShared {
                created: Instant::now(),
                state: Mutex::new(SinkState {
                    lower: None,
                    upper: None,
                    trace: Vec::new(),
                    first_bound: None,
                    listeners: Vec::new(),
                }),
            }),
            lift: None,
            upper_enabled: true,
        }
    }

    /// A handle to the same sink that passes every reported witness
    /// through `f` first (the prepare→lift hook: block-local witnesses
    /// are lifted to the original instance before they are stored).
    /// Composes with an existing lift (innermost applied first).
    pub fn with_lift(
        &self,
        f: impl Fn(&Decomposition) -> Decomposition + Send + Sync + 'static,
    ) -> Self {
        let lift: Arc<LiftFn> = match &self.lift {
            Some(outer) => {
                let outer = Arc::clone(outer);
                Arc::new(move |d| outer(&f(d)))
            }
            None => Arc::new(f),
        };
        BoundSink {
            shared: Arc::clone(&self.shared),
            lift: Some(lift),
            upper_enabled: self.upper_enabled,
        }
    }

    /// A handle that drops upper-bound reports (lower bounds still
    /// forward). Used when solving one block of a multi-block split: a
    /// block width bounds the instance width from below (the instance
    /// width is the maximum over blocks) but a block witness certifies
    /// nothing about the whole instance.
    pub fn lower_only(&self) -> Self {
        BoundSink {
            shared: Arc::clone(&self.shared),
            lift: self.lift.clone(),
            upper_enabled: false,
        }
    }

    /// Reports a certified lower bound; ignored unless it improves.
    pub fn report_lower(&self, lb: Rational) {
        let listeners;
        {
            let mut st = self.lock();
            if st.lower.as_ref().is_some_and(|cur| *cur >= lb) {
                return;
            }
            st.lower = Some(lb.clone());
            st.trace.push(BoundEvent::Lower(lb.clone()));
            if st.first_bound.is_none() {
                st.first_bound = Some(self.shared.created.elapsed());
            }
            listeners = st.listeners.clone();
        }
        for l in listeners {
            l.report_lower(lb.clone());
        }
    }

    /// Reports a witness-backed upper bound; ignored unless it improves.
    /// The witness (if any) is passed through this handle's lift before
    /// being stored, so listeners and snapshots always see it in
    /// original-instance terms.
    pub fn report_upper(&self, ub: Rational, witness: Option<&Decomposition>) {
        if !self.upper_enabled {
            return;
        }
        let lifted = witness.map(|d| match &self.lift {
            Some(f) => f(d),
            None => d.clone(),
        });
        let listeners;
        {
            let mut st = self.lock();
            if st.upper.as_ref().is_some_and(|(cur, _)| *cur <= ub) {
                return;
            }
            st.upper = Some((ub.clone(), lifted.clone()));
            st.trace.push(BoundEvent::Upper(ub.clone()));
            if st.first_bound.is_none() {
                st.first_bound = Some(self.shared.created.elapsed());
            }
            listeners = st.listeners.clone();
        }
        for l in listeners {
            // Already lifted into this sink's frame; forward as-is.
            l.forward_upper(ub.clone(), lifted.as_ref());
        }
    }

    /// Forwards an already-lifted upper bound (listener fan-out skips the
    /// local lift, which belongs to the reporting frame, not ours).
    fn forward_upper(&self, ub: Rational, witness: Option<&Decomposition>) {
        if !self.upper_enabled {
            return;
        }
        let listeners;
        {
            let mut st = self.lock();
            if st.upper.as_ref().is_some_and(|(cur, _)| *cur <= ub) {
                return;
            }
            st.upper = Some((ub.clone(), witness.cloned()));
            st.trace.push(BoundEvent::Upper(ub.clone()));
            if st.first_bound.is_none() {
                st.first_bound = Some(self.shared.created.elapsed());
            }
            listeners = st.listeners.clone();
        }
        for l in listeners {
            l.forward_upper(ub.clone(), witness);
        }
    }

    /// Attaches `listener`: it immediately receives the current bounds
    /// (so a late joiner sees best-so-far) and every future improving
    /// report. This is how waiters parked on an in-flight deduplicated
    /// query observe the owner's anytime bounds.
    pub fn attach(&self, listener: BoundSink) {
        let replay = {
            let mut st = self.lock();
            let snap = (st.lower.clone(), st.upper.clone());
            st.listeners.push(listener.clone());
            snap
        };
        if let Some(lb) = replay.0 {
            listener.report_lower(lb);
        }
        if let Some((ub, w)) = replay.1 {
            listener.forward_upper(ub, w.as_ref());
        }
    }

    /// The best-so-far bounds (witness cloned).
    pub fn snapshot(&self) -> Bounds {
        let st = self.lock();
        Bounds {
            lower: st.lower.clone(),
            upper: st.upper.as_ref().map(|(u, _)| u.clone()),
            witness: st.upper.as_ref().and_then(|(_, w)| w.clone()),
        }
    }

    /// The accepted report sequence, in order.
    pub fn trace(&self) -> Vec<BoundEvent> {
        self.lock().trace.clone()
    }

    /// Time from sink creation to the first accepted bound.
    pub fn time_to_first_bound(&self) -> Option<Duration> {
        self.lock().first_bound
    }

    /// True when the bounds have met: the best lower bound equals the
    /// best upper bound (an exact answer was reported).
    pub fn closed(&self) -> bool {
        let st = self.lock();
        match (&st.lower, &st.upper) {
            (Some(l), Some((u, _))) => l == u,
            _ => false,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.shared.state.lock().expect("bound sink poisoned")
    }
}

impl Default for BoundSink {
    fn default() -> Self {
        BoundSink::new()
    }
}

impl std::fmt::Debug for BoundSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.snapshot();
        f.debug_struct("BoundSink")
            .field("lower", &b.lower)
            .field("upper", &b.upper)
            .finish()
    }
}

/// The per-run control a width computation executes under: the
/// cancellation token the engine polls and the sink its bounds flow into.
#[derive(Clone, Debug, Default)]
pub struct RunCtl {
    /// Cooperative cancellation (explicit, deadline, or inherited).
    pub cancel: CancelToken,
    /// The anytime bound channel.
    pub sink: BoundSink,
}

thread_local! {
    static AMBIENT: RefCell<Vec<RunCtl>> = const { RefCell::new(Vec::new()) };
}

struct AmbientGuard;

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `ctl` as the calling thread's ambient control for the
/// duration of `f` (nestable; popped on unwind too, so an [`Interrupted`]
/// raise leaves the stack clean).
pub fn with_ctl<R>(ctl: RunCtl, f: impl FnOnce() -> R) -> R {
    AMBIENT.with(|s| s.borrow_mut().push(ctl));
    let _guard = AmbientGuard;
    f()
}

/// The innermost ambient control of this thread, if any.
pub fn current() -> Option<RunCtl> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// The ambient cancellation token, if a control is installed.
pub fn current_cancel() -> Option<CancelToken> {
    AMBIENT.with(|s| s.borrow().last().map(|c| c.cancel.clone()))
}

/// The ambient bound sink, if a control is installed.
pub fn current_sink() -> Option<BoundSink> {
    AMBIENT.with(|s| s.borrow().last().map(|c| c.sink.clone()))
}

/// True when the ambient token (if any) has been canceled.
pub fn interrupted() -> bool {
    current_cancel().is_some_and(|t| t.is_canceled())
}

/// Cancellation-as-unwind support.
pub mod interrupt {
    use super::*;

    /// The unwind payload a canceled computation raises. Carried through
    /// `std::panic` machinery but it is control flow, not a failure: the
    /// caller that installed the control catches it and the quiet hook
    /// keeps it out of stderr.
    #[derive(Debug)]
    pub struct Interrupted;

    static QUIET_HOOK: Once = Once::new();

    /// Wraps the current panic hook so [`Interrupted`] unwinds print
    /// nothing; everything else delegates to the previous hook.
    /// Idempotent, installed lazily by the first [`raise`].
    pub fn install_quiet_hook() {
        QUIET_HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<Interrupted>().is_none() {
                    prev(info);
                }
            }));
        });
    }

    /// Raises the interrupt unwind. Called by the engine when its *root*
    /// branch observes cancellation (pool-side branches return their
    /// cancellation by value; only the root has no caller to return
    /// `Canceled` to), and by the elimination DP, which polls the token
    /// itself.
    pub fn raise() -> ! {
        install_quiet_hook();
        std::panic::panic_any(Interrupted)
    }

    /// Classifies a joined thread's unwind payload: `true` for an
    /// [`Interrupted`] raise, `false` for a genuine panic (re-raise it).
    pub fn is_interrupt(payload: &(dyn std::any::Any + Send)) -> bool {
        payload.is::<Interrupted>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::{Decomposition, Node};
    use hypergraph::VertexSet;

    fn rat(n: i64, d: i64) -> Rational {
        Rational::from_frac(n, d)
    }

    fn witness(tag: usize) -> Decomposition {
        let mut bag = VertexSet::new();
        bag.insert(tag);
        Decomposition::new(Node {
            bag,
            weights: Vec::new(),
        })
    }

    #[test]
    fn tokens_cancel_through_parents_and_deadlines() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        assert!(!grandchild.is_canceled());
        root.cancel();
        assert!(child.is_canceled());
        assert!(grandchild.is_canceled());

        let timed = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(timed.is_canceled(), "elapsed deadline is cancellation");
        let forever = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!forever.is_canceled());
    }

    #[test]
    fn sink_enforces_monotone_bounds() {
        let sink = BoundSink::new();
        sink.report_lower(rat(1, 1));
        sink.report_lower(rat(1, 2)); // worse: dropped
        sink.report_upper(rat(4, 1), Some(&witness(4)));
        sink.report_upper(rat(5, 1), None); // worse: dropped
        sink.report_upper(rat(3, 1), Some(&witness(3)));
        sink.report_lower(rat(3, 1));
        let b = sink.snapshot();
        assert_eq!(b.lower, Some(rat(3, 1)));
        assert_eq!(b.upper, Some(rat(3, 1)));
        assert!(sink.closed());
        assert!(b.witness.unwrap().node(0).bag.contains(3));
        let trace = sink.trace();
        assert_eq!(trace.len(), 4, "non-improving reports left no events");
        // lb nondecreasing, ub nonincreasing across the accepted trace.
        let mut lb = None;
        let mut ub: Option<Rational> = None;
        for ev in trace {
            match ev {
                BoundEvent::Lower(l) => {
                    assert!(lb.as_ref().is_none_or(|p| *p < l));
                    lb = Some(l);
                }
                BoundEvent::Upper(u) => {
                    assert!(ub.as_ref().is_none_or(|p| *p > u));
                    ub = Some(u);
                }
            }
        }
        assert!(sink.time_to_first_bound().is_some());
    }

    #[test]
    fn lifts_apply_and_listeners_replay() {
        let sink = BoundSink::new();
        // A lift that re-tags the witness: block-local bag {7} lifts to {9}.
        let lifted = sink.with_lift(|_| witness(9));
        lifted.report_upper(rat(2, 1), Some(&witness(7)));
        assert!(sink.snapshot().witness.unwrap().node(0).bag.contains(9));

        // A late listener immediately sees best-so-far, then new reports.
        let late = BoundSink::new();
        sink.attach(late.clone());
        assert_eq!(late.snapshot().upper, Some(rat(2, 1)));
        sink.report_lower(rat(1, 1));
        assert_eq!(late.snapshot().lower, Some(rat(1, 1)));
        // The replayed witness is the already-lifted one.
        assert!(late.snapshot().witness.unwrap().node(0).bag.contains(9));
    }

    #[test]
    fn lower_only_suppresses_upper_reports() {
        let sink = BoundSink::new();
        let block = sink.lower_only();
        block.report_upper(rat(2, 1), Some(&witness(1)));
        block.report_lower(rat(1, 1));
        let b = sink.snapshot();
        assert_eq!(b.upper, None);
        assert_eq!(b.lower, Some(rat(1, 1)));
    }

    #[test]
    fn ambient_ctl_nests_and_pops() {
        assert!(current().is_none());
        let outer = RunCtl::default();
        with_ctl(outer.clone(), || {
            assert!(current().is_some());
            let inner = RunCtl::default();
            with_ctl(inner, || {
                current_cancel().unwrap().cancel();
                assert!(interrupted());
            });
            // Popped back to the (uncanceled) outer control.
            assert!(!interrupted());
        });
        assert!(current().is_none());
    }

    #[test]
    fn interrupt_raise_carries_the_marker_payload() {
        let caught = std::panic::catch_unwind(|| interrupt::raise());
        let payload = caught.expect_err("raise unwinds");
        assert!(interrupt::is_interrupt(payload.as_ref()));
    }
}
