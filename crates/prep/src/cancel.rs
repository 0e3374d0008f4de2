//! Cooperative cancellation of a width computation.
//!
//! Checking `ghw ≤ k` or `fhw ≤ k` is NP-complete even for `k = 2`, so an
//! exact solve runs as long as its input makes it. A caller that must be
//! able to stop one runs it under a [`CancelToken`]. The daemon does this
//! per request: the token is a child of the server's root token carrying
//! the request's deadline. Without a token everything runs uncancellable.
//! This module lives in `prep`, below `solver` in the dependency graph, so
//! the engine, the elimination DP and every caller above them share one
//! token type.
//!
//! The token is *ambient*: [`with_cancel`] installs it on the calling
//! thread for the duration of a closure, and anything underneath picks it
//! up via [`current_cancel`] without signature changes. A search runs on
//! the thread that installed the token, so every branch sees it.
//!
//! ## Cancellation-as-unwind
//!
//! The engine cannot return "interrupted" through its memoized result
//! type without poisoning caches (a `None` means *no decomposition
//! exists* and would be stored as an answer). Instead whoever polls the
//! token raises an [`interrupt::Interrupted`] unwind via
//! [`interrupt::raise`] at the poll that sees it canceled: the engine (on
//! entry to every state, between candidates and before each child
//! descent) and the elimination DP (once per distinct bag it prices). The
//! unwind stores no partial state, the result cache stores nothing for the
//! unwound query (the next identical query searches afresh), and the
//! caller that installed the token catches the payload.
//! A process-wide panic-hook shim keeps these control-flow unwinds out of
//! stderr.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

    /// A child of `self`: canceled when `self` is, on its own flag, or
    /// once `d` (if any) has elapsed — the daemon's per-request deadline
    /// under its root token.
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

thread_local! {
    static AMBIENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

struct AmbientGuard;

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `token` as the calling thread's ambient token for the
/// duration of `f` (nestable; popped on unwind too, so an
/// [`interrupt::Interrupted`] raise leaves the stack clean).
pub fn with_cancel<R>(token: CancelToken, f: impl FnOnce() -> R) -> R {
    AMBIENT.with(|s| s.borrow_mut().push(token));
    let _guard = AmbientGuard;
    f()
}

/// The innermost ambient token of this thread, if any.
pub fn current_cancel() -> Option<CancelToken> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// True when the ambient token (if any) has been canceled.
pub fn interrupted() -> bool {
    current_cancel().is_some_and(|t| t.is_canceled())
}

/// Cancellation-as-unwind support.
pub mod interrupt {
    use std::sync::Once;

    /// The unwind payload a canceled computation raises. Carried through
    /// `std::panic` machinery but it is control flow, not a failure: the
    /// caller that installed the token catches it and the quiet hook
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

    /// Raises the interrupt unwind. Called where the token is polled: by
    /// the engine and by the elimination DP, as soon as either sees the
    /// ambient token canceled.
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

    #[test]
    fn tokens_cancel_through_parents_and_deadlines() {
        let root = CancelToken::new();
        let child = root.child_with_deadline(None);
        let grandchild = child.child_with_deadline(None);
        assert!(!grandchild.is_canceled());
        root.cancel();
        assert!(child.is_canceled());
        assert!(grandchild.is_canceled());

        let live = CancelToken::new();
        let timed = live.child_with_deadline(Some(Duration::ZERO));
        assert!(timed.is_canceled(), "elapsed deadline is cancellation");
        assert!(!live.is_canceled(), "a child's deadline spares its parent");
        let forever = live.child_with_deadline(Some(Duration::from_secs(3600)));
        assert!(!forever.is_canceled());
    }

    #[test]
    fn ambient_ctl_nests_and_pops() {
        assert!(current_cancel().is_none());
        with_cancel(CancelToken::new(), || {
            assert!(current_cancel().is_some());
            with_cancel(CancelToken::new(), || {
                current_cancel().unwrap().cancel();
                assert!(interrupted());
            });
            // Popped back to the (uncanceled) outer token.
            assert!(!interrupted());
        });
        assert!(current_cancel().is_none());
    }

    #[test]
    fn interrupt_raise_carries_the_marker_payload() {
        let caught = std::panic::catch_unwind(|| interrupt::raise());
        let payload = caught.expect_err("raise unwinds");
        assert!(interrupt::is_interrupt(payload.as_ref()));
    }
}
