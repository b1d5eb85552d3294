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
use crate::request::{RequestId, Response, ShedReason};
use crate::scheduler::{Action, BatchPolicy, Scheduler};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use ucudnn::json;
use ucudnn::telemetry::Registry;
use ucudnn::{ServeOptions, SloDecision};

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
    /// Re-measure the latency table. The server never calls this: it
    /// schedules for its whole life from the [`BatchRunner::latency_table`]
    /// it measured at start. The method stays for runners that wrap
    /// another runner and forward it; the default re-measures via
    /// [`BatchRunner::latency_table`].
    ///
    /// # Errors
    /// A human-readable re-measurement failure.
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

/// One queued request.
struct Pending {
    id: RequestId,
    arrival_us: f64,
    input: Vec<f32>,
    /// Delivers the outcome, exactly once, on a server worker thread (see
    /// [`Server::submit_with`]).
    waiter: Box<dyn FnOnce(Result<Response, ShedReason>) + Send>,
}

/// Shared resolution slot of one submitted request.
struct TicketState {
    slot: Mutex<Option<Result<Response, ShedReason>>>,
    cv: Condvar,
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
    /// The plan: the startup latency table and the policy knobs, fixed for
    /// the server's whole life.
    sched: Scheduler,
    metrics: Arc<ServeMetrics>,
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

    /// Count one shed of request `id` and emit its `shed` trace event. The
    /// caller resolves the request, or returns the refusal.
    fn shed(&self, id: RequestId, reason: ShedReason) {
        self.metrics.shed(reason);
        ucudnn::trace::event("serve", "shed", || {
            (
                id.trace_key(),
                json::obj([("reason", json::Value::Str(reason.name().to_string()))]),
            )
        });
    }
}

/// The serving frontend: submission, drain, metrics.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Start a server: `opts.workers` threads over a shared bounded queue,
    /// scheduling with the runner's latency table as measured now. That
    /// plan serves until drain; nothing re-plans at run time.
    ///
    /// # Panics
    /// Panics when the runner's table has no batch size within
    /// `opts.max_batch` — a misconfigured deployment, not a load condition.
    pub fn start(runner: Arc<dyn BatchRunner>, opts: &ServeOptions) -> Self {
        let table: Vec<(usize, f64)> = runner
            .latency_table()
            .into_iter()
            .filter(|&(m, _)| m <= opts.max_batch)
            .collect();
        assert!(
            !table.is_empty(),
            "runner supports no batch size within ServeOptions::max_batch"
        );
        let inner = Arc::new(Inner {
            runner,
            sched: Scheduler::new(table, opts.slo_us, opts.max_batch, BatchPolicy::Dynamic),
            metrics: Arc::new(ServeMetrics::new()),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            queue_cap: opts.queue_cap,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
        });
        let workers = (0..opts.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(workers),
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
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        let ticket = Arc::clone(&state);
        self.submit_with(input, move |result| {
            *ticket.slot.lock().unwrap() = Some(result);
            ticket.cv.notify_all();
        })?;
        Ok(Ticket { state })
    }

    /// Submit one input sample with a completion callback instead of a
    /// blocking ticket — the reactor's delivery path. On `Ok`, the callback
    /// will be invoked exactly once (on a server worker thread) with the
    /// response or the shed verdict. On `Err`, the request was refused at
    /// admission and **the callback is never invoked** — the caller still
    /// owns the refusal and renders it inline, which is what keeps the
    /// reactor's per-connection response sequencing single-sourced.
    ///
    /// The callback must be cheap and must not block on the server's own
    /// locks (the reactor's only touches its loop inbox).
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
                drop(st);
                self.inner.shed(id, reason);
                return Err(reason);
            }
        }
        st.queue.push_back(Pending {
            id,
            arrival_us,
            input,
            waiter: Box::new(cb),
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
    /// `telemetry_dropped` self-metric, and the `# EOF` terminator.
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
        out.push_str("# EOF\n");
        out
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
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
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
        let sched = &inner.sched;
        let now = inner.now_us();
        let queued = st.queue.len();
        let oldest = st.queue[0].arrival_us;
        match sched.decide(now, oldest, queued, None) {
            Action::Fire(decision) => {
                // The live server has no arrival oracle, so the coalescing
                // window is a bounded condvar wait: if more slack remains
                // than the next-larger plan needs, sleep a sliver of it and
                // re-decide at the new instant, whether new work, a drain
                // or the timeout woke us.
                if !st.draining && decision.batch < sched.max_batch() {
                    if let Some(wait_us) = coalesce_wait_us(sched, now, oldest, queued, &decision) {
                        let dur = Duration::from_nanos((wait_us * 1e3) as u64);
                        st = inner.cv.wait_timeout(st, dur).unwrap().0;
                        continue;
                    }
                }
                let batch: Vec<Pending> = st.queue.drain(..decision.batch).collect();
                inner.metrics.set_queue_depth(st.queue.len() as u64);
                drop(st);
                execute_batch(inner, worker, &decision.micros, batch);
                inner.cv.notify_one();
                st = inner.state.lock().unwrap();
            }
            Action::ShedOldest => {
                // `decide` ran under this lock, so the oldest is still queued.
                let p = st.queue.pop_front().expect("decide saw a non-empty queue");
                inner.metrics.set_queue_depth(st.queue.len() as u64);
                inner.metrics.degradations.inc();
                inner.shed(p.id, ShedReason::DeadlineInfeasible);
                (p.waiter)(Err(ShedReason::DeadlineInfeasible));
            }
            Action::WaitUntil(_) => unreachable!("no arrival oracle was given"),
        }
    }
}

/// How long a worker may wait for coalescing company, or `None` to fire
/// immediately: the plan for one more request must beat `cur` (the plan
/// `decide` returned for the `queued` requests), still fit the oldest
/// deadline with room for its own execution, and the oldest request must
/// still be inside its bounded batching window.
fn coalesce_wait_us(
    sched: &Scheduler,
    now: f64,
    oldest: f64,
    queued: usize,
    cur: &SloDecision,
) -> Option<f64> {
    // The batching window caps how long the oldest request is held overall,
    // so firing always happens with nearly the full SLO budget left.
    let window_left = oldest + MAX_COALESCE_WAIT_US - now;
    if window_left <= 1.0 {
        return None;
    }
    let deadline = oldest + sched.slo_us();
    let bigger = ucudnn::plan_batch(sched.table(), queued + 1, sched.max_batch(), deadline - now)?;
    if bigger.throughput <= cur.throughput {
        return None;
    }
    // Leave the bigger plan enough slack to actually run after the wait.
    let slack = (deadline - now - bigger.exec_us) * 0.5;
    (slack > 1.0).then(|| slack.min(window_left))
}

/// Run one fired batch, micro-batch by micro-batch, and resolve tickets.
fn execute_batch(inner: &Inner, worker: usize, micros: &[usize], batch: Vec<Pending>) {
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
                let slo_us = inner.sched.slo_us();
                for (i, p) in chunk.into_iter().enumerate() {
                    let latency_us = done - p.arrival_us;
                    inner.metrics.complete(latency_us);
                    if latency_us > slo_us {
                        inner.metrics.violations.inc();
                    }
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
                    };
                    (p.waiter)(Ok(response));
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
                for p in chunk {
                    inner.shed(p.id, ShedReason::ExecFailed);
                    (p.waiter)(Err(ShedReason::ExecFailed));
                }
            }
        }
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
