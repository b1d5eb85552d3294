//! Structured tracing: spans, events, plan provenance (DESIGN.md §10).
//!
//! The optimizer metrics (`metrics`) answer *how much* time went where in
//! aggregate; this module answers *what happened*: which algorithm each
//! kernel got and why, which degradation rungs fired, how long each
//! iteration/layer/micro-batch actually took. Emit sites across the
//! workspace record [`TraceEvent`]s into thread-local buffers that drain
//! into one shared bounded buffer; a [`TraceSession`] collects them into a
//! [`Trace`] renderable as JSONL or Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`).
//!
//! Tracing is **zero-cost when disabled**: every emit site is gated on one
//! relaxed atomic load, and the key/args builders are closures that only run
//! when a session is active.
//!
//! A session takes only its [`ClockMode`]: [`session`] starts it, and
//! [`TraceSession::finish`] returns the [`Trace`] in memory, for the caller
//! to render or write. The [`ClockMode::Logical`] mode replaces wall-clock
//! timestamps with a deterministic logical order at collection time, so a
//! trace of a deterministic optimization is byte-identical regardless of
//! thread count or machine speed — the property the determinism tests pin.

use crate::config::Configuration;
use crate::json::{self, Value};
use crate::kernel::KernelKey;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Timestamp source for collected events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Session-relative wall-clock microseconds.
    Wall,
    /// Deterministic logical time: at collection, events are stably sorted
    /// by `(cat, key, name)` and re-stamped `ts_us = 0, 1, 2, …` with
    /// `dur_us = 0` and `tid = 0`. Event *content* from a deterministic run
    /// is deterministic, so the serialized trace is byte-identical across
    /// thread counts and machines.
    Logical,
}

/// Shared-buffer capacity of a session, in events; overflow is dropped and
/// counted in [`Trace::dropped`], never reallocated.
pub const DEFAULT_CAPACITY: usize = 65536;

/// One collected span or instant event.
///
/// JSONL schema (one object per line): `ts_us`, `dur_us`, `cat`, `name`,
/// `key`, `tid`, `args`. Instant events have `dur_us = 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Start timestamp: session-relative microseconds ([`ClockMode::Wall`])
    /// or a logical sequence number ([`ClockMode::Logical`]).
    pub ts_us: f64,
    /// Wall duration in microseconds; 0 for instant events and in logical
    /// mode.
    pub dur_us: f64,
    /// Event category (`"plan"`, `"bench"`, `"substrate"`, `"exec"`,
    /// `"train"`, `"opt"`, …).
    pub cat: String,
    /// Event name within the category.
    pub name: String,
    /// The subject — a kernel key, layer name, iteration label.
    pub key: String,
    /// Recording thread (session-local numbering; 0 in logical mode).
    pub tid: u64,
    /// Structured payload. Emit sites must put only *deterministic* (modeled
    /// or counted) quantities here; wall-clock measurements belong in
    /// `ts_us`/`dur_us`, which logical mode normalizes away.
    pub args: Value,
}

impl TraceEvent {
    /// The JSONL representation of this event.
    pub fn to_json_value(&self) -> Value {
        json::obj([
            ("ts_us", json::num(self.ts_us)),
            ("dur_us", json::num(self.dur_us)),
            ("cat", Value::Str(self.cat.clone())),
            ("name", Value::Str(self.name.clone())),
            ("key", Value::Str(self.key.clone())),
            ("tid", json::num(self.tid as f64)),
            ("args", self.args.clone()),
        ])
    }

    /// Parse one JSONL object back into an event.
    pub fn from_json_value(v: &Value) -> Option<Self> {
        Some(Self {
            ts_us: v.get("ts_us")?.as_f64()?,
            dur_us: v.get("dur_us")?.as_f64()?,
            cat: v.get("cat")?.as_str()?.to_string(),
            name: v.get("name")?.as_str()?.to_string(),
            key: v.get("key")?.as_str()?.to_string(),
            tid: v.get("tid")?.as_u64()?,
            args: v.get("args")?.clone(),
        })
    }
}

/// A collected trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The events, ordered by timestamp (wall) or logical rank (logical).
    pub events: Vec<TraceEvent>,
    /// Events discarded because the shared buffer was full.
    pub dropped: u64,
}

impl Trace {
    /// Serialize as JSON Lines: one event object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json_value().to_json());
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL document written by [`Trace::to_jsonl`]. Blank lines
    /// are skipped; any malformed line fails the whole parse (`None`).
    pub fn from_jsonl(text: &str) -> Option<Self> {
        let mut events = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(TraceEvent::from_json_value(&Value::parse(line)?)?);
        }
        Some(Self { events, dropped: 0 })
    }

    /// Serialize as Chrome trace-event JSON (the `traceEvents` array of
    /// complete `"X"` events), loadable in Perfetto / `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                json::obj([
                    ("name", Value::Str(format!("{} {}", e.name, e.key))),
                    ("cat", Value::Str(e.cat.clone())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", json::num(e.ts_us)),
                    ("dur", json::num(e.dur_us)),
                    ("pid", json::num(1.0)),
                    ("tid", json::num(e.tid as f64)),
                    ("args", e.args.clone()),
                ])
            })
            .collect();
        json::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ms".to_string())),
        ])
        .to_json()
    }
}

/// Why a kernel's plan looks the way it does: the decision record WR/WD
/// attach to every optimized kernel (one per [`crate::handle::Plan`] /
/// [`crate::wd::WdAssignment`]), also emitted as a `"plan"` trace event.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanProvenance {
    /// Which optimizer decided: `"wr"` or `"wd"`.
    pub optimizer: &'static str,
    /// Micro-batch sizes the policy put up for benchmarking.
    pub candidate_sizes: usize,
    /// Sizes that yielded at least one usable measurement (WR) / at least
    /// one Pareto point (WD).
    pub candidates_kept: usize,
    /// WD: configurations generated at the final DP stage before pruning.
    pub pareto_generated: usize,
    /// WD: desirable-set size after Pareto pruning (`pareto_generated −
    /// pareto_kept` points were pruned).
    pub pareto_kept: usize,
    /// WD: index the ILP chose within the desirable set (ascending
    /// workspace).
    pub ilp_choice: Option<usize>,
    /// WD: the index WR would have chosen — the fastest endpoint of the
    /// desirable set. Differs from `ilp_choice` when the global budget made
    /// the ILP pick a smaller configuration for this kernel.
    pub wr_choice: Option<usize>,
    /// Workspace bytes actually granted to the configuration.
    pub workspace_granted_bytes: usize,
    /// Degradation-ladder rungs taken, in order: `"dropped_bench_points"`,
    /// `"undivided_fallback"`, `"shrink_reoptimize:<bytes>"`,
    /// `"wd_shrink:<bytes>"`.
    pub degradations: Vec<String>,
}

impl PlanProvenance {
    /// The JSON representation embedded in `"plan"` trace events.
    pub fn to_json_value(&self) -> Value {
        let opt_num = |v: Option<usize>| v.map_or(Value::Null, |i| json::num(i as f64));
        json::obj([
            ("optimizer", Value::Str(self.optimizer.to_string())),
            ("candidate_sizes", json::num(self.candidate_sizes as f64)),
            ("candidates_kept", json::num(self.candidates_kept as f64)),
            ("pareto_generated", json::num(self.pareto_generated as f64)),
            ("pareto_kept", json::num(self.pareto_kept as f64)),
            ("ilp_choice", opt_num(self.ilp_choice)),
            ("wr_choice", opt_num(self.wr_choice)),
            (
                "workspace_granted_bytes",
                json::num(self.workspace_granted_bytes as f64),
            ),
            (
                "degradations",
                Value::Arr(
                    self.degradations
                        .iter()
                        .map(|d| Value::Str(d.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Recording machinery.

/// Events buffered per thread before draining into the shared buffer.
const FLUSH_CHUNK: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Serializes sessions process-wide: only one trace collects at a time.
static SESSION: Mutex<()> = Mutex::new(());
static COLLECTOR: Mutex<Option<Arc<Collector>>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Process-wide monotonic epoch; event timestamps are made session-relative
/// at collection time.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

struct Collector {
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl Collector {
    /// Move a thread-local batch into the shared buffer, dropping (and
    /// counting) whatever exceeds the capacity.
    fn absorb(&self, batch: &mut Vec<TraceEvent>) {
        let mut shared = self.events.lock();
        let room = DEFAULT_CAPACITY.saturating_sub(shared.len());
        if batch.len() > room {
            self.dropped
                .fetch_add((batch.len() - room) as u64, Ordering::Relaxed);
            batch.truncate(room);
        }
        shared.append(batch);
    }
}

/// One thread's recorder. The thread holds it in a thread-local and
/// [`BUFFERS`] holds it too, so the collector can drain a thread's unflushed
/// tail itself: a scoped worker's thread-local destructors run after
/// `thread::scope` has joined it, too late for a session finishing right
/// after the join.
type LocalBuf = Arc<Mutex<Vec<TraceEvent>>>;

/// The buffer of every live thread that has recorded, plus those of threads
/// that exited since the last drain.
static BUFFERS: Mutex<Vec<LocalBuf>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: LocalBuf = {
        let buf = LocalBuf::default();
        BUFFERS.lock().push(Arc::clone(&buf));
        buf
    };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn flush_local(buf: &mut Vec<TraceEvent>) {
    if buf.is_empty() {
        return;
    }
    let collector = COLLECTOR.lock().clone();
    match collector {
        Some(c) => c.absorb(buf),
        None => buf.clear(),
    }
}

/// Drain every thread's buffer: into the active collector, or (with none)
/// discarding stragglers recorded as the previous session closed. Buffers
/// of exited threads are drained once more and then released.
fn drain_all() {
    let mut buffers = BUFFERS.lock();
    for buf in buffers.iter() {
        flush_local(&mut buf.lock());
    }
    buffers.retain(|b| Arc::strong_count(b) > 1);
}

fn record(event: TraceEvent) {
    LOCAL.with(|l| {
        let mut l = l.lock();
        l.push(event);
        if l.len() >= FLUSH_CHUNK {
            flush_local(&mut l);
        }
    });
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Whether a trace session is collecting. One relaxed atomic load — the
/// entire cost of every emit site in an untraced process.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record an instant event. `detail` builds the `(key, args)` pair and runs
/// only when tracing is enabled.
pub fn event(cat: &'static str, name: &'static str, detail: impl FnOnce() -> (String, Value)) {
    if !enabled() {
        return;
    }
    let (key, args) = detail();
    record(TraceEvent {
        ts_us: now_us(),
        dur_us: 0.0,
        cat: cat.to_string(),
        name: name.to_string(),
        key,
        tid: current_tid(),
        args,
    });
}

/// A live span; records its event (with wall duration) on drop. Obtained
/// from [`span`]; inert when tracing is disabled.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    cat: &'static str,
    name: &'static str,
    key: String,
    args: Value,
    start: Instant,
    start_us: f64,
}

/// Open a span. `detail` builds the `(key, args)` pair and runs only when
/// tracing is enabled; the returned guard records the event when dropped.
#[must_use = "a span measures until the guard is dropped"]
pub fn span(
    cat: &'static str,
    name: &'static str,
    detail: impl FnOnce() -> (String, Value),
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let (key, args) = detail();
    SpanGuard {
        inner: Some(SpanInner {
            cat,
            name,
            key,
            args,
            start: Instant::now(),
            start_us: now_us(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.inner.take() else { return };
        if !enabled() {
            // The session ended while the span was open; its start context
            // is gone, so the measurement is meaningless.
            return;
        }
        record(TraceEvent {
            ts_us: s.start_us,
            dur_us: s.start.elapsed().as_secs_f64() * 1e6,
            cat: s.cat.to_string(),
            name: s.name.to_string(),
            key: s.key,
            tid: current_tid(),
            args: s.args,
        });
    }
}

/// Emit the `"plan"` decision event for one optimized kernel.
pub(crate) fn plan_event(kernel: &KernelKey, config: &Configuration, prov: &PlanProvenance) {
    event("plan", "decision", || {
        (
            kernel.to_string(),
            json::obj([
                ("config", Value::Str(config.describe())),
                ("time_us", json::num(config.time_us())),
                (
                    "workspace_bytes",
                    json::num(config.workspace_bytes() as f64),
                ),
                ("provenance", prov.to_json_value()),
            ]),
        )
    });
}

// ---------------------------------------------------------------------------
// Sessions.

/// An active trace session (RAII). Created by [`session`]; sessions are
/// serialized process-wide. Dropping a session without calling
/// [`TraceSession::finish`] stops the collection and discards the trace.
pub struct TraceSession {
    clock: ClockMode,
    start_us: f64,
    collector: Arc<Collector>,
    finished: bool,
    _serial: parking_lot::MutexGuard<'static, ()>,
}

/// Start collecting a trace stamped by `clock`. Blocks until any other
/// active session finishes.
pub fn session(clock: ClockMode) -> TraceSession {
    let serial = SESSION.lock();
    let collector = Arc::new(Collector {
        events: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    });
    drain_all();
    *COLLECTOR.lock() = Some(Arc::clone(&collector));
    // Bridge substrate find/exec hooks into trace events. Args carry only
    // modeled quantities, keeping logical-mode traces deterministic.
    ucudnn_cudnn_sim::set_call_observer(Some(Arc::new(
        |e: &ucudnn_cudnn_sim::CallEvent| match e.site {
            ucudnn_cudnn_sim::CallSite::Find => event("substrate", "find", || {
                (
                    format!("{}[{}]", e.op, e.geometry),
                    json::obj([
                        ("micro_batch", json::num(e.micro_batch as f64)),
                        ("rows", json::num(e.rows as f64)),
                    ]),
                )
            }),
            ucudnn_cudnn_sim::CallSite::Exec => event("substrate", "exec", || {
                (
                    format!("{}[{}]", e.op, e.geometry),
                    json::obj([
                        (
                            "algo",
                            e.algo.map_or(Value::Null, |a| Value::Str(a.to_string())),
                        ),
                        ("micro_batch", json::num(e.micro_batch as f64)),
                        ("modeled_us", json::num(e.modeled_us)),
                    ]),
                )
            }),
        },
    )));
    let start_us = now_us();
    ENABLED.store(true, Ordering::SeqCst);
    TraceSession {
        clock,
        start_us,
        collector,
        finished: false,
        _serial: serial,
    }
}

impl TraceSession {
    /// Stop collecting and return the trace.
    pub fn finish(mut self) -> Trace {
        self.close()
    }

    fn close(&mut self) -> Trace {
        self.finished = true;
        ENABLED.store(false, Ordering::SeqCst);
        ucudnn_cudnn_sim::set_call_observer(None);
        // Every event emitted before now sits in some thread's buffer or in
        // the collector, including those of joined workers whose
        // thread-local destructors have not run yet.
        drain_all();
        *COLLECTOR.lock() = None;
        let mut events = std::mem::take(&mut *self.collector.events.lock());
        let dropped = self.collector.dropped.load(Ordering::Relaxed);
        match self.clock {
            ClockMode::Wall => {
                for e in &mut events {
                    e.ts_us -= self.start_us;
                }
                events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
            }
            ClockMode::Logical => {
                // Stable sort: events with equal (cat, key, name) keep their
                // single-thread program order from the drain.
                events.sort_by(|a, b| {
                    (a.cat.as_str(), a.key.as_str(), a.name.as_str()).cmp(&(
                        b.cat.as_str(),
                        b.key.as_str(),
                        b.name.as_str(),
                    ))
                });
                for (i, e) in events.iter_mut().enumerate() {
                    e.ts_us = i as f64;
                    e.dur_us = 0.0;
                    e.tid = 0;
                }
            }
        }
        Trace { events, dropped }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other core tests run concurrently in this process and may emit events
    // while one of these sessions is active, so every assertion filters on
    // a category/key marker unique to this module.
    fn mine<'t>(t: &'t Trace, name: &str) -> Vec<&'t TraceEvent> {
        t.events
            .iter()
            .filter(|e| e.cat == "trace-test" && e.name == name)
            .collect()
    }

    #[test]
    fn disabled_tracing_never_builds_details() {
        // No session active on this thread (sessions serialize, but another
        // test's session could be live), so gate on the flag itself.
        if !enabled() {
            event("trace-test", "never", || {
                unreachable!("detail builder must not run while disabled")
            });
        }
        let g = span("trace-test", "never", || (String::new(), Value::Null));
        drop(g); // inert guard when built while disabled
    }

    #[test]
    fn events_and_spans_are_collected() {
        let s = session(ClockMode::Wall);
        event("trace-test", "e", || {
            ("k1".into(), json::obj([("x", json::num(1.0))]))
        });
        {
            let _g = span("trace-test", "s", || ("k2".into(), Value::Null));
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let t = s.finish();
        let es = mine(&t, "e");
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].key, "k1");
        assert_eq!(es[0].args.get("x").unwrap().as_f64(), Some(1.0));
        assert_eq!(es[0].dur_us, 0.0);
        let ss = mine(&t, "s");
        assert_eq!(ss.len(), 1);
        assert!(ss[0].dur_us > 0.0, "span must measure a wall duration");
    }

    #[test]
    fn worker_thread_events_drain_at_thread_exit() {
        let s = session(ClockMode::Wall);
        std::thread::scope(|scope| {
            for i in 0..4 {
                scope.spawn(move || {
                    event("trace-test", "w", || (format!("worker{i}"), Value::Null));
                });
            }
        });
        let t = s.finish();
        assert_eq!(mine(&t, "w").len(), 4);
    }

    #[test]
    fn bounded_buffer_drops_and_counts_overflow() {
        let s = session(ClockMode::Wall);
        for i in 0..DEFAULT_CAPACITY + 100 {
            event("trace-test", "flood", || (format!("{i}"), Value::Null));
        }
        let t = s.finish();
        assert!(t.events.len() <= DEFAULT_CAPACITY);
        assert!(t.dropped >= 100, "dropped {}", t.dropped);
    }

    #[test]
    fn jsonl_round_trips_and_chrome_is_valid_json() {
        let s = session(ClockMode::Logical);
        event("trace-test", "r", || {
            (
                "kernel[x]".into(),
                json::obj([("algo", Value::Str("FFT".into())), ("n", json::num(8.0))]),
            )
        });
        let t = s.finish();
        let parsed = Trace::from_jsonl(&t.to_jsonl()).expect("jsonl must re-parse");
        assert_eq!(parsed.events, t.events);
        let chrome = Value::parse(&t.to_chrome_json()).expect("chrome export must be JSON");
        let events = chrome.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), t.events.len());
        for e in events {
            for k in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(e.get(k).is_some(), "chrome event missing {k}");
            }
        }
    }

    #[test]
    fn provenance_serializes_every_field() {
        let p = PlanProvenance {
            optimizer: "wd",
            candidate_sizes: 9,
            candidates_kept: 8,
            pareto_generated: 40,
            pareto_kept: 6,
            ilp_choice: Some(2),
            wr_choice: Some(5),
            workspace_granted_bytes: 1024,
            degradations: vec!["dropped_bench_points".into()],
        };
        let v = p.to_json_value();
        assert_eq!(v.get("optimizer").unwrap().as_str(), Some("wd"));
        assert_eq!(v.get("candidate_sizes").unwrap().as_usize(), Some(9));
        assert_eq!(v.get("pareto_generated").unwrap().as_usize(), Some(40));
        assert_eq!(v.get("pareto_kept").unwrap().as_usize(), Some(6));
        assert_eq!(v.get("ilp_choice").unwrap().as_usize(), Some(2));
        assert_eq!(v.get("wr_choice").unwrap().as_usize(), Some(5));
        assert_eq!(
            v.get("workspace_granted_bytes").unwrap().as_usize(),
            Some(1024)
        );
        assert_eq!(v.get("degradations").unwrap().as_arr().unwrap().len(), 1);
        // The default record is serializable too (None → null).
        assert_eq!(
            PlanProvenance::default().to_json_value().get("ilp_choice"),
            Some(&Value::Null)
        );
    }
}
