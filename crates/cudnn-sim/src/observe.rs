//! Call-event hooks: a process-wide observer of substrate activity.
//!
//! Callers above this crate count what the substrate's `Find` actually
//! benchmarked, which only the substrate sees (rows over a call's budget
//! never run). Rather than invert the dependency, the substrate exposes a
//! single registration point: an observer callback invoked with a
//! [`CallEvent`] at each hook site. When no observer is registered the hook
//! is one relaxed atomic load; event construction is deferred behind that
//! check, so an unobserved process pays nothing else.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Which hook produced a [`CallEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallSite {
    /// A `find_algorithms` benchmark sweep completed.
    Find,
}

/// One observed substrate call.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// The hook site.
    pub site: CallSite,
    /// Rendered geometry of the call, micro-batch size included.
    pub geometry: String,
    /// Number of rows benchmarked (rows over the call's budget never run
    /// and are not counted).
    pub rows: usize,
}

/// The observer callback type.
pub type CallObserver = Arc<dyn Fn(&CallEvent) + Send + Sync>;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static OBSERVER: Mutex<Option<CallObserver>> = Mutex::new(None);

/// Install (or, with `None`, remove) the process-wide call observer.
/// The callback runs inline on the calling thread of each hook site and
/// must therefore be cheap and non-reentrant into this crate.
pub fn set_call_observer(observer: Option<CallObserver>) {
    let mut slot = OBSERVER.lock().unwrap_or_else(PoisonError::into_inner);
    ACTIVE.store(observer.is_some(), Ordering::Release);
    *slot = observer;
}

/// Invoke the observer with a lazily built event. The builder only runs
/// when an observer is installed.
pub(crate) fn emit_with(build: impl FnOnce() -> CallEvent) {
    if !ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let observer = OBSERVER
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(observer) = observer {
        observer(&build());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> CallEvent {
        CallEvent {
            site: CallSite::Find,
            geometry: "observe-test".into(),
            rows: 1,
        }
    }

    // One test, not several: the observer slot is process-global, and other
    // tests in this crate exercise the find hook concurrently. The
    // callback therefore filters on a marker geometry it alone emits.
    #[test]
    fn observer_sees_events_until_removed() {
        use std::sync::atomic::AtomicUsize;
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        set_call_observer(Some(Arc::new(move |e| {
            if e.geometry == "observe-test" {
                assert_eq!(e.site, CallSite::Find);
                seen.fetch_add(1, Ordering::Relaxed);
            }
        })));
        emit_with(event);
        emit_with(event);
        set_call_observer(None);
        emit_with(event);
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
