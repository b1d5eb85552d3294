//! The threaded in-process inference server.
//!
//! A bounded submission queue feeds a pool of worker threads; each worker
//! asks the [`Scheduler`] what to do, coalesces queued requests into a
//! micro-batched forward pass, and resolves per-request tickets. The
//! execution path is the real one: every coalesced batch runs through a
//! [`crate::BatchRunner`], and the bundled [`RealModelRunner`] drives
//! `RealExecutor::forward` over a `UcudnnHandle`, so concurrent batches of
//! different sizes hit the batch-normalized execution-plan cache and the
//! fault-injection machinery exactly like training does.
//!
//! Synchronization uses `std::sync::{Mutex, Condvar}` (not the workspace's
//! parking_lot shim) because workers need `wait_timeout` for the coalescing
//! window.

use crate::metrics::ServeMetrics;
use crate::reopt::{DriftDetector, ReoptConfig};
use crate::request::{RequestId, Response, ShedReason};
use crate::scheduler::{Action, BatchPolicy, Scheduler};
use crate::slo_monitor::{BurnConfig, BurnMonitor};
use parking_lot::{Epoch, Versioned};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use ucudnn::json;
use ucudnn::telemetry::Registry;
use ucudnn::{ServeOptions, TableProvenance};

/// Longest the real server will hold a request for coalescing company past
/// its arrival, microseconds. Without an arrival oracle, waiting is only
/// worth a bounded window: under load the queue fills within it anyway, and
/// a lone request must not burn its whole SLO budget hoping for a batch
/// mate (firing at the deadline's edge is a race against timer overshoot).
const MAX_COALESCE_WAIT_US: f64 = 1_000.0;

/// A model the server can execute, batch-size by batch-size.
///
/// `run` is called once per *micro-batch* of a fired batch, with sizes drawn
/// from [`BatchRunner::batch_sizes`] — the serving-level mirror of μ-cuDNN's
/// micro-batch replay.
pub trait BatchRunner: Send + Sync + 'static {
    /// `f32` elements per input sample.
    fn sample_len(&self) -> usize;
    /// `f32` elements per output sample.
    fn output_len(&self) -> usize;
    /// Batch sizes this runner can execute (the latency table's sizes).
    fn batch_sizes(&self) -> Vec<usize>;
    /// Execute a micro-batch of `n` samples (`inputs.len() == n *
    /// sample_len()`), returning `n * output_len()` outputs.
    ///
    /// # Errors
    /// A human-readable execution failure; the server sheds the affected
    /// micro-batch and keeps running.
    fn run(&self, n: usize, inputs: &[f32]) -> Result<Vec<f32>, String>;
    /// Measured execution latency `t*(m)` for each supported batch size,
    /// microseconds.
    fn latency_table(&self) -> Vec<(usize, f64)>;
    /// Re-measure the latency table after the drift detector flagged the
    /// current one stale. Called off the serving path (a background worker
    /// or an explicit [`Server::trigger_rebench`]) while requests keep
    /// flowing on the old plan; the result is hot-swapped in atomically.
    ///
    /// The default re-measures via [`BatchRunner::latency_table`]; runners
    /// with a benchmark cache should invalidate the stale kernels first
    /// (see [`ucudnn::rebench_latency_table`]).
    ///
    /// # Errors
    /// A human-readable re-benchmark failure; the server keeps the old plan
    /// live and counts `reopt_failed`.
    fn rebench(&self) -> Result<Vec<(usize, f64)>, String> {
        Ok(self.latency_table())
    }
    /// The runner's own telemetry registry, if it has one (the bundled
    /// [`RealModelRunner`] exposes its `UcudnnHandle`'s optimizer/cache
    /// instruments). The server composes it into the `STATS` exposition.
    fn telemetry(&self) -> Option<Registry> {
        None
    }
}

/// One published plan generation: the scheduler (latency table plus policy
/// knobs) and the provenance of the table it was built from. Generations
/// are immutable once published through the [`Epoch`] pointer — a swap
/// publishes a *new* `PlanState`, it never mutates a live one.
#[derive(Debug)]
pub struct PlanState {
    /// The scheduler over this generation's latency table.
    pub sched: Scheduler,
    /// Where the table came from (startup vs. which re-benchmark).
    pub provenance: TableProvenance,
}

/// Wake-up channel for the background re-benchmark worker.
struct ReoptSignal {
    state: Mutex<ReoptCommand>,
    cv: Condvar,
}

#[derive(Default)]
struct ReoptCommand {
    rebench: bool,
    stop: bool,
}

/// One queued request.
struct Pending {
    id: RequestId,
    arrival_us: f64,
    input: Vec<f32>,
    waiter: Waiter,
}

/// Shared resolution slot of one submitted request.
pub(crate) struct TicketState {
    slot: Mutex<Option<Result<Response, ShedReason>>>,
    cv: Condvar,
}

/// How one queued request's outcome is delivered: a blocking [`Ticket`]
/// (the original synchronous path) or a completion callback (the reactor
/// path — the event loop must never park a thread per request).
pub(crate) enum Waiter {
    /// Resolve into the ticket's slot and wake the waiting thread.
    Ticket(Arc<TicketState>),
    /// Invoke the callback with the outcome. Callbacks run on a server
    /// worker thread and must be cheap and non-blocking with respect to the
    /// server's own locks (the reactor's only touches its loop inbox).
    Callback(Box<dyn FnOnce(Result<Response, ShedReason>) + Send + 'static>),
}

impl Waiter {
    fn resolve(self, result: Result<Response, ShedReason>) {
        match self {
            Waiter::Ticket(t) => {
                *t.slot.lock().unwrap() = Some(result);
                t.cv.notify_all();
            }
            Waiter::Callback(cb) => cb(result),
        }
    }
}

/// A handle to one in-flight request; wait on it for the response.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Block until the request completes or is shed.
    ///
    /// # Errors
    /// The shed reason, when the server refused or dropped the request.
    ///
    /// # Panics
    /// Panics if the server dropped the ticket without resolving it (a
    /// server bug, not a load condition).
    pub fn wait(self) -> Result<Response, ShedReason> {
        let mut slot = self.state.slot.lock().unwrap();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.state.cv.wait(slot).unwrap();
        }
    }
}

struct QueueState {
    queue: VecDeque<Pending>,
    draining: bool,
}

struct Inner {
    runner: Arc<dyn BatchRunner>,
    /// The live plan, behind an epoch pointer: workers `load()` it wait-free
    /// at each scheduling opportunity, re-benchmarks `store()` a new
    /// generation, and in-flight batches keep the `&Versioned<PlanState>`
    /// they fired under until they resolve their tickets.
    plan: Epoch<PlanState>,
    metrics: Arc<ServeMetrics>,
    detector: Mutex<DriftDetector>,
    /// The SLO error-budget burn monitor, fed by every shed and completion.
    burn: Mutex<BurnMonitor>,
    reopt: Option<Arc<ReoptSignal>>,
    state: Mutex<QueueState>,
    cv: Condvar,
    queue_cap: usize,
    epoch: Instant,
    next_id: AtomicU64,
}

impl Inner {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Feed one outcome (`bad` = shed or SLO violation) to the burn
    /// monitor, mirror the burn state into the gauges, and emit an
    /// `slo_alert` trace event on each inactive→active transition.
    fn observe_outcome(&self, now_us: f64, bad: bool) {
        let (alert, fast, slow, active) = {
            let mut b = self.burn.lock().unwrap();
            let alert = b.observe(now_us, bad);
            let (fast, slow) = b.burn_rates();
            (alert, fast, slow, b.active())
        };
        self.metrics.burn_fast.set(fast);
        self.metrics.burn_slow.set(slow);
        self.metrics
            .slo_alert_active
            .set(if active { 1.0 } else { 0.0 });
        if let Some(a) = alert {
            self.metrics.slo_alerts.inc();
            ucudnn::trace::event("serve", "slo_alert", || {
                (
                    "slo".to_string(),
                    json::obj([
                        ("at_us", json::num(a.at_us)),
                        ("fast_burn", json::num(a.fast_burn)),
                        ("slow_burn", json::num(a.slow_burn)),
                    ]),
                )
            });
        }
    }
}

/// The serving frontend: submission, drain, metrics.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    reopt_worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Start a server: `opts.workers` threads over a shared bounded queue,
    /// scheduling with the runner's measured latency table. No online
    /// re-optimization — the startup plan serves until drain (equivalent to
    /// [`Server::start_with_reopt`] with `None`).
    pub fn start(runner: Arc<dyn BatchRunner>, opts: &ServeOptions) -> Self {
        Self::start_with_reopt(runner, opts, None)
    }

    /// Start a server with the online re-optimization loop (DESIGN.md §13):
    /// every executed micro-batch feeds the drift detector, a flagged plan
    /// wakes a background re-benchmark worker, and a successful re-benchmark
    /// hot-swaps a new plan generation while serving continues.
    ///
    /// `reopt: None` (or a config with `enabled: false`) starts without the
    /// detector or the worker; [`Server::swap_plan`] and
    /// [`Server::trigger_rebench`] still work for explicit control.
    ///
    /// # Panics
    /// Panics when the runner's table has no batch size within
    /// `opts.max_batch` — a misconfigured deployment, not a load condition.
    pub fn start_with_reopt(
        runner: Arc<dyn BatchRunner>,
        opts: &ServeOptions,
        reopt: Option<ReoptConfig>,
    ) -> Self {
        let table: Vec<(usize, f64)> = runner
            .latency_table()
            .into_iter()
            .filter(|&(m, _)| m <= opts.max_batch)
            .collect();
        assert!(
            !table.is_empty(),
            "runner supports no batch size within ServeOptions::max_batch"
        );
        let sched = Scheduler::new(table, opts.slo_us, opts.max_batch, BatchPolicy::Dynamic);
        let detector_cfg = reopt.unwrap_or(ReoptConfig {
            enabled: false,
            ..ReoptConfig::default()
        });
        let reopt_on = detector_cfg.enabled;
        let metrics = Arc::new(ServeMetrics::new());
        let inner = Arc::new(Inner {
            runner,
            plan: Epoch::new(PlanState {
                sched,
                provenance: TableProvenance::startup(),
            }),
            metrics,
            detector: Mutex::new(DriftDetector::new(detector_cfg)),
            burn: Mutex::new(BurnMonitor::new(BurnConfig::default())),
            reopt: reopt_on.then(|| {
                Arc::new(ReoptSignal {
                    state: Mutex::new(ReoptCommand::default()),
                    cv: Condvar::new(),
                })
            }),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            queue_cap: opts.queue_cap,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
        });
        inner.metrics.plan_version.set(inner.plan.version() as f64);
        let workers = (0..opts.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn serve worker")
            })
            .collect();
        let reopt_worker = inner.reopt.is_some().then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-rebench".to_string())
                .spawn(move || rebench_loop(&inner))
                .expect("spawn rebench worker")
        });
        Self {
            inner,
            workers: Mutex::new(workers),
            reopt_worker: Mutex::new(reopt_worker),
        }
    }

    /// Submit one input sample; returns a [`Ticket`] to wait on, or the
    /// admission-control verdict.
    ///
    /// # Errors
    /// [`ShedReason::QueueFull`] under backpressure, [`ShedReason::Draining`]
    /// after [`Server::drain`] began.
    ///
    /// # Panics
    /// Panics when `input.len()` does not match the runner's sample length.
    pub fn submit(&self, input: Vec<f32>) -> Result<Ticket, ShedReason> {
        let ticket = Arc::new(TicketState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        let state = Arc::clone(&ticket);
        self.submit_inner(input, move || Waiter::Ticket(state))?;
        Ok(Ticket { state: ticket })
    }

    /// Submit one input sample with a completion callback instead of a
    /// blocking ticket — the reactor's delivery path. On `Ok`, the callback
    /// will be invoked exactly once (on a server worker thread) with the
    /// response or the shed verdict. On `Err`, the request was refused at
    /// admission and **the callback is never invoked** — the caller still
    /// owns the refusal and renders it inline, which is what keeps the
    /// reactor's per-connection response sequencing single-sourced.
    ///
    /// # Errors
    /// [`ShedReason::QueueFull`] under backpressure, [`ShedReason::Draining`]
    /// after [`Server::drain`] began.
    ///
    /// # Panics
    /// Panics when `input.len()` does not match the runner's sample length.
    pub fn submit_with<F>(&self, input: Vec<f32>, cb: F) -> Result<RequestId, ShedReason>
    where
        F: FnOnce(Result<Response, ShedReason>) + Send + 'static,
    {
        self.submit_inner(input, move || Waiter::Callback(Box::new(cb)))
    }

    /// Shared admission path: mint an id, run the shed ladder, and only on
    /// admission materialize the waiter and enqueue.
    fn submit_inner(
        &self,
        input: Vec<f32>,
        make: impl FnOnce() -> Waiter,
    ) -> Result<RequestId, ShedReason> {
        assert_eq!(
            input.len(),
            self.inner.runner.sample_len(),
            "input length must match the model's sample length"
        );
        let m = &self.inner.metrics;
        m.submitted.inc();
        let id = RequestId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let arrival_us = self.inner.now_us();
        let mut st = self.inner.state.lock().unwrap();
        for (refused, reason) in [
            (st.draining, ShedReason::Draining),
            (
                st.queue.len() >= self.inner.queue_cap,
                ShedReason::QueueFull,
            ),
        ] {
            if refused {
                m.shed(reason);
                drop(st);
                ucudnn::trace::event("serve", "shed", || {
                    (
                        id.trace_key(),
                        json::obj([("reason", json::Value::Str(reason.name().to_string()))]),
                    )
                });
                self.inner.observe_outcome(arrival_us, true);
                return Err(reason);
            }
        }
        st.queue.push_back(Pending {
            id,
            arrival_us,
            input,
            waiter: make(),
        });
        m.set_queue_depth(st.queue.len() as u64);
        drop(st);
        self.inner.cv.notify_one();
        ucudnn::trace::event("serve", "submit", || {
            (
                id.trace_key(),
                json::obj([("arrival_us", json::num(arrival_us))]),
            )
        });
        Ok(id)
    }

    /// The admission queue's capacity (`ServeOptions::queue_cap`) — the
    /// reactor sizes its backpressure thresholds off this.
    pub fn queue_cap(&self) -> usize {
        self.inner.queue_cap
    }

    /// Instantaneous admission-queue depth. Advisory: the depth can change
    /// the moment the lock drops — callers use it as a backpressure *hint*
    /// (pause/resume read interest), never as an admission guarantee.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// `f32` elements per input sample (the runner's input geometry).
    pub fn sample_len(&self) -> usize {
        self.inner.runner.sample_len()
    }

    /// Shared metrics handle (live counters).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// The metrics snapshot as a JSON string (companion to
    /// `UcudnnHandle::metrics_json`).
    pub fn metrics_json(&self) -> String {
        self.inner.metrics.to_json().to_json()
    }

    /// The full live Prometheus-style exposition served by the TCP `STATS`
    /// verb and written by `--metrics-dump`: the serving instruments, the
    /// runner's core-library registry (optimizer/cache/fault series, when
    /// the runner has one — no hand-copied keys), the combined
    /// `telemetry_dropped` self-metric, an `# ALERT` section with the burn
    /// state, and the `# EOF` terminator.
    pub fn exposition(&self) -> String {
        let serve_reg = self.inner.metrics.registry();
        let mut out = String::new();
        serve_reg.expose_into(&mut out);
        let mut dropped = serve_reg.dropped();
        if let Some(core_reg) = self.inner.runner.telemetry() {
            core_reg.expose_into(&mut out);
            dropped += core_reg.dropped();
        }
        Registry::expose_dropped_into(&mut out, dropped);
        {
            let b = self.inner.burn.lock().unwrap();
            let (fast, slow) = b.burn_rates();
            let cfg = b.config();
            out.push_str(&format!(
                "# ALERT slo_burn active={} fired={} fast={} slow={} budget={} fast_window_us={} slow_window_us={}\n",
                u8::from(b.active()),
                b.alerts_fired(),
                json::num(fast).to_json(),
                json::num(slow).to_json(),
                json::num(cfg.budget).to_json(),
                json::num(cfg.fast_us).to_json(),
                json::num(cfg.slow_us).to_json(),
            ));
        }
        out.push_str("# EOF\n");
        out
    }

    /// The live plan generation (1 = the startup plan, +1 per hot-swap).
    pub fn plan_version(&self) -> u64 {
        self.inner.plan.version()
    }

    /// Provenance of the live plan's latency table.
    pub fn plan_provenance(&self) -> TableProvenance {
        self.inner.plan.load().provenance.clone()
    }

    /// Atomically hot-swap a new latency table in as the next plan
    /// generation, returning its version. Workers pick it up at their next
    /// scheduling opportunity; in-flight batches finish on the generation
    /// they fired under. The drift detector is reset so it judges the new
    /// table against fresh observations only.
    ///
    /// # Errors
    /// When `table` has no batch size within the server's `max_batch` — the
    /// old plan stays live.
    pub fn swap_plan(&self, table: Vec<(usize, f64)>) -> Result<u64, String> {
        install_table(&self.inner, table)
    }

    /// Run one re-benchmark cycle *synchronously* on the calling thread:
    /// [`BatchRunner::rebench`], then hot-swap on success. Serving continues
    /// on the old plan throughout. Returns the new plan version.
    ///
    /// This is the deterministic handle for tests and operators; the
    /// detector-driven path goes through the background worker instead.
    ///
    /// # Errors
    /// The runner's re-benchmark error, or an unusable (empty after the
    /// `max_batch` filter) table; either way `reopt_failed` is counted and
    /// the old plan stays live.
    pub fn trigger_rebench(&self) -> Result<u64, String> {
        do_rebench(&self.inner)
    }

    /// Stop admitting, finish everything already queued, and join the
    /// workers. Every outstanding ticket is resolved before this returns;
    /// idempotent, and also runs on drop.
    pub fn drain(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.draining = true;
        }
        self.inner.cv.notify_all();
        if let Some(sig) = &self.inner.reopt {
            sig.state.lock().unwrap().stop = true;
            sig.cv.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
        if let Some(w) = self.reopt_worker.lock().unwrap().take() {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(inner: &Inner, worker: usize) {
    let mut st = inner.state.lock().unwrap();
    loop {
        if st.queue.is_empty() {
            if st.draining {
                return;
            }
            st = inner.cv.wait(st).unwrap();
            continue;
        }
        // Pin this opportunity's plan generation: the decision and the
        // execution below both use it, even if a hot-swap lands in between.
        let plan = inner.plan.load();
        let now = inner.now_us();
        let arrivals: Vec<f64> = st.queue.iter().map(|p| p.arrival_us).collect();
        match plan.sched.decide(now, &arrivals, None) {
            Action::Fire(decision) => {
                // The live server has no arrival oracle, so the coalescing
                // window is a bounded condvar wait: if more slack remains
                // than the next-larger plan needs, sleep a sliver of it and
                // re-decide; a timeout means no one came — fire what we
                // have.
                if !st.draining && decision.batch < plan.sched.max_batch() {
                    if let Some(wait_us) = coalesce_wait_us(&plan.sched, now, &arrivals) {
                        let dur = Duration::from_nanos((wait_us * 1e3) as u64);
                        let (guard, timeout) = inner.cv.wait_timeout(st, dur).unwrap();
                        st = guard;
                        if !timeout.timed_out() || st.queue.len() > arrivals.len() {
                            continue; // new work or drain: re-decide
                        }
                        // Timed out with the same queue: fall through and
                        // fire the decision we already validated — but the
                        // clock moved, so re-plan at the new instant.
                        continue;
                    }
                }
                let batch: Vec<Pending> = st.queue.drain(..decision.batch).collect();
                inner.metrics.set_queue_depth(st.queue.len() as u64);
                drop(st);
                execute_batch(inner, worker, plan, &decision.micros, batch);
                inner.cv.notify_one();
                st = inner.state.lock().unwrap();
            }
            Action::ShedOldest => {
                // The queue can only have shrunk if another worker raced us
                // between the snapshot and here; nothing to shed then.
                let Some(p) = st.queue.pop_front() else {
                    continue;
                };
                inner.metrics.set_queue_depth(st.queue.len() as u64);
                inner.metrics.shed(ShedReason::DeadlineInfeasible);
                inner.metrics.degradations.inc();
                ucudnn::trace::event("serve", "shed", || {
                    (
                        p.id.trace_key(),
                        json::obj([(
                            "reason",
                            json::Value::Str(ShedReason::DeadlineInfeasible.name().to_string()),
                        )]),
                    )
                });
                inner.observe_outcome(now, true);
                p.waiter.resolve(Err(ShedReason::DeadlineInfeasible));
            }
            Action::WaitUntil(_) => unreachable!("no arrival oracle was given"),
        }
    }
}

/// How long a worker may wait for coalescing company, or `None` to fire
/// immediately: the next-larger plan must beat the current one, still fit
/// the oldest deadline with room for its own execution, and the oldest
/// request must still be inside its bounded batching window.
fn coalesce_wait_us(sched: &Scheduler, now: f64, arrivals: &[f64]) -> Option<f64> {
    let q = arrivals.len();
    let oldest = arrivals[0];
    // The batching window caps how long the oldest request is held overall,
    // so firing always happens with nearly the full SLO budget left.
    let window_left = oldest + MAX_COALESCE_WAIT_US - now;
    if window_left <= 1.0 {
        return None;
    }
    let deadline = oldest + sched.slo_us();
    let cur = ucudnn::plan_batch(sched.table(), q, sched.max_batch(), deadline - now)?;
    let bigger = ucudnn::plan_batch(sched.table(), q + 1, sched.max_batch(), deadline - now)?;
    if bigger.throughput <= cur.throughput {
        return None;
    }
    // Leave the bigger plan enough slack to actually run after the wait.
    let slack = (deadline - now - bigger.exec_us) * 0.5;
    (slack > 1.0).then(|| slack.min(window_left))
}

/// Wake the background re-benchmark worker (no-op when re-opt is off).
fn request_rebench(inner: &Inner) {
    if let Some(sig) = &inner.reopt {
        sig.state.lock().unwrap().rebench = true;
        sig.cv.notify_one();
    }
}

/// The background re-benchmark worker: park until the drift detector (or
/// drain) wakes it, then run one re-benchmark cycle off the serving path.
fn rebench_loop(inner: &Inner) {
    let sig = inner.reopt.as_ref().expect("rebench worker needs a signal");
    loop {
        {
            let mut cmd = sig.state.lock().unwrap();
            while !cmd.rebench && !cmd.stop {
                cmd = sig.cv.wait(cmd).unwrap();
            }
            if cmd.stop {
                return;
            }
            cmd.rebench = false;
        }
        let _ = do_rebench(inner);
    }
}

/// One re-benchmark cycle: re-measure via [`BatchRunner::rebench`] (the
/// expensive part, no server locks held), then atomically install the new
/// table. Failures leave the old plan live and count `reopt_failed`.
fn do_rebench(inner: &Inner) -> Result<u64, String> {
    match inner.runner.rebench() {
        Ok(table) => install_table(inner, table),
        Err(err) => {
            inner.metrics.reopt_failed.inc();
            ucudnn::trace::event("serve", "reopt_failed", || {
                (
                    "rebench".to_string(),
                    json::obj([("error", json::Value::Str(err.clone()))]),
                )
            });
            Err(err)
        }
    }
}

/// Publish `table` as the next plan generation through the epoch pointer.
fn install_table(inner: &Inner, table: Vec<(usize, f64)>) -> Result<u64, String> {
    let old = inner.plan.load();
    let max_batch = old.sched.max_batch();
    let table: Vec<(usize, f64)> = table.into_iter().filter(|&(m, _)| m <= max_batch).collect();
    if table.is_empty() {
        inner.metrics.reopt_failed.inc();
        return Err("re-benchmark produced an empty latency table".to_string());
    }
    let refreshed = table.len();
    let next = PlanState {
        sched: Scheduler::new(table, old.sched.slo_us(), max_batch, old.sched.policy()),
        provenance: old.provenance.rebenched(refreshed),
    };
    let version = inner.plan.store(next);
    inner.metrics.plan_swaps.inc();
    inner.metrics.plan_version.set(version as f64);
    inner.detector.lock().unwrap().reset();
    ucudnn::trace::event("serve", "plan_swap", || {
        (
            format!("v{version}"),
            json::obj([("refreshed_sizes", json::num(refreshed as f64))]),
        )
    });
    // Wake any worker parked in a coalescing wait so the new plan takes
    // effect at the next opportunity, not after a stale timeout.
    inner.cv.notify_all();
    Ok(version)
}

/// Run one fired batch, micro-batch by micro-batch, and resolve tickets.
/// `plan` is the generation the batch was scheduled under: its table is the
/// drift detector's expectation, and its version is stamped on responses.
fn execute_batch(
    inner: &Inner,
    worker: usize,
    plan: &Versioned<PlanState>,
    micros: &[usize],
    batch: Vec<Pending>,
) {
    let total: usize = micros.iter().sum();
    debug_assert_eq!(total, batch.len(), "micros must tile the batch");
    let _span = ucudnn::trace::span("serve", "batch", || {
        (
            format!("worker{worker}"),
            json::obj([
                ("batch", json::num(batch.len() as f64)),
                (
                    "micros",
                    json::Value::Arr(micros.iter().map(|&m| json::num(m as f64)).collect()),
                ),
                (
                    "ids",
                    json::Value::Arr(batch.iter().map(|p| json::num(p.id.0 as f64)).collect()),
                ),
            ]),
        )
    });
    inner.metrics.fired(batch.len());
    let sample = inner.runner.sample_len();
    let mut it = batch.into_iter();
    for &m in micros {
        let chunk: Vec<Pending> = it.by_ref().take(m).collect();
        let mut inputs = Vec::with_capacity(m * sample);
        for p in &chunk {
            inputs.extend_from_slice(&p.input);
        }
        let exec_start = Instant::now();
        // A short (or long) output vector from a buggy runner must become a
        // typed exec_failed shed for this micro-batch, not a slice panic
        // that takes the worker thread (and every queued ticket) with it.
        let result = inner.runner.run(m, &inputs).and_then(|outputs| {
            let want = m * inner.runner.output_len();
            if outputs.len() == want {
                Ok(outputs)
            } else {
                Err(format!(
                    "runner returned {} output values for micro-batch {m} (expected {want})",
                    outputs.len()
                ))
            }
        });
        match result {
            Ok(outputs) => {
                let exec_us = exec_start.elapsed().as_secs_f64() * 1e6;
                observe_micro(inner, plan, m, exec_us);
                ucudnn::trace::event("serve", "micro", || {
                    (
                        format!("worker{worker}"),
                        json::obj([
                            ("micro", json::num(m as f64)),
                            ("exec_us", json::num(exec_us)),
                            (
                                "ids",
                                json::Value::Arr(
                                    chunk.iter().map(|p| json::num(p.id.0 as f64)).collect(),
                                ),
                            ),
                        ]),
                    )
                });
                let out_len = inner.runner.output_len();
                let done = inner.now_us();
                let slo_us = plan.sched.slo_us();
                for (i, p) in chunk.into_iter().enumerate() {
                    let latency_us = done - p.arrival_us;
                    inner.metrics.complete_for(latency_us, p.id.0);
                    let violated = latency_us > slo_us;
                    if violated {
                        inner.metrics.violations.inc();
                    }
                    inner.observe_outcome(done, violated);
                    ucudnn::trace::event("serve", "complete", || {
                        (
                            p.id.trace_key(),
                            json::obj([
                                ("latency_us", json::num(latency_us)),
                                ("batch", json::num(m as f64)),
                            ]),
                        )
                    });
                    let response = Response {
                        id: p.id,
                        output: outputs[i * out_len..(i + 1) * out_len].to_vec(),
                        latency_us,
                        batch: m,
                        plan_version: plan.version(),
                    };
                    p.waiter.resolve(Ok(response));
                }
            }
            Err(err) => {
                // Permanent fault: shed only this micro-batch; the server
                // and the rest of the fired batch keep going.
                inner.metrics.degradations.inc();
                ucudnn::trace::event("serve", "exec_failed", || {
                    (
                        format!("worker{worker}"),
                        json::obj([
                            ("micro", json::num(m as f64)),
                            ("error", json::Value::Str(err.clone())),
                        ]),
                    )
                });
                let now = inner.now_us();
                for p in chunk {
                    inner.metrics.shed(ShedReason::ExecFailed);
                    ucudnn::trace::event("serve", "shed", || {
                        (
                            p.id.trace_key(),
                            json::obj([(
                                "reason",
                                json::Value::Str(ShedReason::ExecFailed.name().to_string()),
                            )]),
                        )
                    });
                    inner.observe_outcome(now, true);
                    p.waiter.resolve(Err(ShedReason::ExecFailed));
                }
            }
        }
    }
}

/// Feed one executed micro-batch to the drift detector: `observed_us`
/// against the firing plan's `t*(m)`. A drift report counts a stale
/// detection and wakes the re-benchmark worker.
fn observe_micro(inner: &Inner, plan: &Versioned<PlanState>, m: usize, observed_us: f64) {
    let Some(&(_, expected_us)) = plan.sched.table().iter().find(|&&(size, _)| size == m) else {
        return;
    };
    // Only judge the *current* plan: a batch still in flight from an older
    // generation must not re-trigger drift against a table already replaced.
    if plan.version() != inner.plan.version() {
        return;
    }
    let report = inner
        .detector
        .lock()
        .unwrap()
        .observe(m, observed_us, expected_us);
    if let Some(r) = report {
        inner.metrics.stale_detections.inc();
        ucudnn::trace::event("serve", "drift", || {
            (
                format!("m{}", r.micro),
                json::obj([
                    ("observed_p50_us", json::num(r.observed_p50_us)),
                    ("expected_us", json::num(r.expected_us)),
                    ("ratio", json::num(r.ratio)),
                ]),
            )
        });
        request_rebench(inner);
    }
}

// ---------------------------------------------------------------------------
// The real-numerics model runner.

use std::collections::HashMap;
use ucudnn::{UcudnnHandle, UcudnnOptions};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_framework::{LayerSpec, NetworkDef, RealExecutor};
use ucudnn_tensor::{Shape4, Tensor};

/// A tiny CNN executed with real CPU numerics through a shared
/// [`UcudnnHandle`]: the per-batch-size networks all normalize to the same
/// batch-1 plan key, so every batch size the scheduler picks replays the
/// same cached micro-batched execution plan.
pub struct RealModelRunner {
    provider: UcudnnHandle,
    /// One instantiated network per supported batch size; identical
    /// parameters (the init RNG stream depends only on layer shapes).
    execs: HashMap<usize, RealExecutor>,
    sizes: Vec<usize>,
    sample_len: usize,
    output_len: usize,
}

/// The runner's fixed input geometry.
const C: usize = 3;
const HW: usize = 8;
const CLASSES: usize = 10;

fn tiny_net(n: usize) -> NetworkDef {
    let mut net = NetworkDef::new("serve-tiny", Shape4::new(n, C, HW, HW));
    let c1 = net.conv_relu("conv1", net.input(), 8, 3, 1, 1);
    let p1 = net.add(
        "pool1",
        LayerSpec::Pool {
            max: true,
            kernel: 2,
            stride: 2,
            pad: 0,
        },
        &[c1],
    );
    let c2 = net.conv_relu("conv2", p1, 16, 3, 1, 1);
    net.add("fc", LayerSpec::FullyConnected { out: CLASSES }, &[c2]);
    net
}

impl RealModelRunner {
    /// Build executors for every power-of-two batch size up to `max_batch`
    /// (plus `max_batch` itself) on a CPU substrate handle, register all
    /// kernels with the μ-cuDNN wrapper, and measure the latency table.
    ///
    /// The `handle` parameter lets tests attach a fault plan
    /// ([`CudnnHandle::with_faults`]) to the serving path.
    ///
    /// Panics if model registration fails; use [`Self::try_new`] where a
    /// typed error is wanted (e.g. router-facing construction paths).
    pub fn new(handle: CudnnHandle, seed: u64, max_batch: usize) -> Self {
        Self::try_new(handle, seed, max_batch).expect("serve model preparation")
    }

    /// Fallible constructor: kernel registration and optimizer finalization
    /// errors surface as [`ucudnn_framework::ProviderError`]s instead of
    /// panicking the thread that is bringing a replica up.
    pub fn try_new(
        handle: CudnnHandle,
        seed: u64,
        max_batch: usize,
    ) -> Result<Self, ucudnn_framework::ProviderError> {
        let provider = UcudnnHandle::new(handle, UcudnnOptions::default());
        let mut sizes = Vec::new();
        let mut m = 1;
        while m < max_batch {
            sizes.push(m);
            m *= 2;
        }
        sizes.push(max_batch);

        let mut kernels = Vec::new();
        let mut execs = HashMap::new();
        for &n in &sizes {
            let net = tiny_net(n);
            for id in net.conv_layers() {
                kernels.push((ConvOp::Forward, net.conv_geometry(id)));
            }
            execs.insert(n, RealExecutor::new(net, seed));
        }
        use ucudnn_framework::ConvProvider as _;
        provider.prepare(&kernels)?;
        provider.finalize()?;
        Ok(Self {
            provider,
            execs,
            sizes,
            sample_len: C * HW * HW,
            output_len: CLASSES,
        })
    }

    /// The wrapped μ-cuDNN handle (plan cache stats, optimizer metrics).
    pub fn provider(&self) -> &UcudnnHandle {
        &self.provider
    }
}

impl BatchRunner for RealModelRunner {
    fn sample_len(&self) -> usize {
        self.sample_len
    }

    fn output_len(&self) -> usize {
        self.output_len
    }

    fn batch_sizes(&self) -> Vec<usize> {
        self.sizes.clone()
    }

    fn run(&self, n: usize, inputs: &[f32]) -> Result<Vec<f32>, String> {
        let exec = self
            .execs
            .get(&n)
            .ok_or_else(|| format!("unsupported batch size {n}"))?;
        let input = Tensor::from_vec(Shape4::new(n, C, HW, HW), inputs.to_vec());
        let acts = exec
            .forward(&self.provider, &input)
            .map_err(|e| e.to_string())?;
        let last = acts
            .last()
            .ok_or_else(|| "network produced no activations".to_string())?;
        Ok(last.as_slice().to_vec())
    }

    fn telemetry(&self) -> Option<Registry> {
        Some(self.provider.telemetry())
    }

    fn latency_table(&self) -> Vec<(usize, f64)> {
        // Warm the plan/pack caches once, then take the best of three
        // measured runs per size (host timing is noisy; min is stable).
        let mut table = Vec::with_capacity(self.sizes.len());
        for &m in &self.sizes {
            let inputs = vec![0.1f32; m * self.sample_len];
            if self.run(m, &inputs).is_err() {
                continue; // faulted size: leave it out of the table
            }
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                if self.run(m, &inputs).is_err() {
                    best = f64::INFINITY;
                    break;
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e6);
            }
            if best.is_finite() {
                table.push((m, best));
            }
        }
        table
    }
}
