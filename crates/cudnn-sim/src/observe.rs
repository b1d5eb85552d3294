//! Call-event hooks: a process-wide observer of substrate activity.
//!
//! The tracing layer lives above this crate (`ucudnn_core::trace`), but the
//! interesting moments — a `Find` benchmark sweep, a kernel execution —
//! happen here. Rather than invert the dependency, the substrate exposes a
//! single registration point: an observer callback invoked with a
//! [`CallEvent`] at each hook site. When no observer is registered the hook
//! is one relaxed atomic load; event construction is deferred behind that
//! check, so an untraced process pays nothing else.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use ucudnn_conv::ConvOp;
use ucudnn_gpu_model::ConvAlgo;

/// Which hook produced a [`CallEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallSite {
    /// A `find_algorithms` benchmark sweep completed.
    Find,
    /// A convolution kernel executed successfully.
    Exec,
}

/// One observed substrate call.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// The hook site.
    pub site: CallSite,
    /// The convolution operation.
    pub op: ConvOp,
    /// The executed algorithm ([`CallSite::Exec`] only).
    pub algo: Option<ConvAlgo>,
    /// Micro-batch size of the call (the geometry's `input.n`).
    pub micro_batch: usize,
    /// Rendered geometry, identifying the kernel beyond (op, batch).
    pub geometry: String,
    /// `Find`: number of rows benchmarked (rows over the call's budget
    /// never run and are not counted). `Exec`: always 1.
    pub rows: usize,
    /// `Exec` on the simulated engine: the modeled kernel time. Zero for
    /// `Find` events and wall-clock-priced CPU executions.
    pub modeled_us: f64,
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
            site: CallSite::Exec,
            op: ConvOp::Forward,
            algo: Some(ConvAlgo::Gemm),
            micro_batch: 8,
            geometry: "observe-test".into(),
            rows: 1,
            modeled_us: 1.0,
        }
    }

    // One test, not several: the observer slot is process-global, and other
    // tests in this crate exercise the find/exec hooks concurrently. The
    // callback therefore filters on a marker geometry it alone emits.
    #[test]
    fn observer_sees_events_until_removed() {
        use std::sync::atomic::AtomicUsize;
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        set_call_observer(Some(Arc::new(move |e| {
            if e.geometry == "observe-test" {
                assert_eq!(e.site, CallSite::Exec);
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
