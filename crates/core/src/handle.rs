//! `UcudnnHandle` — the transparent wrapper (§III-D, §III-E).
//!
//! Replacing `cudnnHandle_t` with `UcudnnHandle_t` is the only change a
//! framework needs (about three lines in Caffe). The wrapper:
//!
//! * intercepts `get_algorithm` / `get_workspace_size`, optimizes the
//!   kernel's micro-batch division, and returns a **virtual algorithm id**
//!   with **zero** required workspace — so the framework neither allocates a
//!   workspace nor interferes with the plan;
//! * intercepts the three `convolution_*` calls and replays them as the
//!   planned sequence of micro-batch kernels against the wrapped handle,
//!   with `beta = 1` accumulation for BackwardFilter;
//! * delegates everything else to the wrapped handle (`Deref`, the analogue
//!   of the C++ cast operator).
//!
//! Workspaces are owned by the wrapper: one buffer per kernel under WR, one
//! globally divided buffer under WD.

use crate::bench_cache::{BenchCache, CacheStats};
use crate::config::Configuration;
use crate::error::UcudnnError;
use crate::fanout::fan_out;
use crate::kernel::KernelKey;
use crate::metrics::OptimizerMetrics;
use crate::policy::BatchSizePolicy;
use crate::trace::{self, PlanProvenance};
use crate::wd::{optimize_wd_weighted_parallel, WdPlan};
use crate::wr::{optimize_wr_metered, WrResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;
use ucudnn_cudnn_sim::{
    check_geometry, ConvAlgo, ConvOp, ConvolutionDescriptor, CudnnHandle, FilterDescriptor,
    TensorDescriptor,
};
use ucudnn_tensor::ConvGeometry;

/// The algorithm id returned to frameworks for every optimized kernel. The
/// value itself is meaningless (the wrapper ignores the algorithm argument
/// at execution time and uses its plan); it only has to be a valid id the
/// framework can pass back, exactly like the paper's "virtual algorithm ID".
pub const VIRTUAL_ALGO: ConvAlgo = ConvAlgo::ImplicitGemm;

/// Which optimization scheme the handle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerMode {
    /// Workspace Reuse: per-kernel workspace of at most the limit, each
    /// kernel optimized independently by dynamic programming.
    Wr,
    /// Workspace Division: one global workspace of at most the limit,
    /// divided among kernels by the ILP.
    Wd,
}

/// Wrapper configuration (the C++ library reads these from environment
/// variables; here they are explicit).
#[derive(Debug, Clone)]
pub struct UcudnnOptions {
    /// Micro-batch sizes to benchmark.
    pub policy: BatchSizePolicy,
    /// Workspace limit in bytes: per kernel under WR, total under WD.
    pub workspace_limit_bytes: usize,
    /// WR or WD.
    pub mode: OptimizerMode,
    /// Optional file-backed benchmark database (§III-D).
    pub cache_file: Option<PathBuf>,
    /// Evaluate micro-benchmarks on parallel threads (the multi-GPU
    /// parallel-evaluation analogue). Keep off for wall-clock benchmarking.
    pub parallel_benchmark: bool,
    /// Worker threads for whole-network optimization
    /// ([`UcudnnHandle::optimize_network`] and the WD desirable-set fan-out).
    /// Plans are byte-identical for every value; only wall clock changes.
    pub opt_threads: usize,
}

impl Default for UcudnnOptions {
    fn default() -> Self {
        Self {
            policy: BatchSizePolicy::PowerOfTwo,
            workspace_limit_bytes: 64 * 1024 * 1024,
            mode: OptimizerMode::Wr,
            cache_file: None,
            parallel_benchmark: false,
            opt_threads: 1,
        }
    }
}

/// A kernel's installed execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The micro-batch division to execute.
    pub config: Configuration,
    /// Workspace segment offset in `f32` elements (WD; zero under WR).
    pub offset_floats: usize,
    /// How many times this kernel was registered (replicated layers).
    pub multiplicity: usize,
    /// The decision record explaining this plan (DESIGN.md §10).
    pub provenance: PlanProvenance,
}

#[derive(Debug, Default)]
struct State {
    plans: HashMap<KernelKey, Plan>,
    /// WD: kernels registered during network construction, in order.
    pending: Vec<KernelKey>,
    wd_plan: Option<WdPlan>,
    /// WR: one workspace per kernel.
    arenas: HashMap<KernelKey, Vec<f32>>,
    /// WD: the single divided workspace.
    wd_arena: Vec<f32>,
}

/// The transparent μ-cuDNN handle.
///
/// The benchmark cache and metrics collector live outside the state mutex:
/// both are internally synchronized, so optimizer worker threads share them
/// directly while the mutex only guards plan installation.
#[derive(Debug)]
pub struct UcudnnHandle {
    inner: CudnnHandle,
    opts: UcudnnOptions,
    cache: BenchCache,
    metrics: OptimizerMetrics,
    state: Mutex<State>,
}

impl std::ops::Deref for UcudnnHandle {
    type Target = CudnnHandle;

    /// Delegation of every non-convolution call to the wrapped handle —
    /// the Rust spelling of the C++ cast operator.
    fn deref(&self) -> &CudnnHandle {
        &self.inner
    }
}

impl UcudnnHandle {
    /// Wrap a substrate handle.
    pub fn new(inner: CudnnHandle, opts: UcudnnOptions) -> Self {
        let cache = match &opts.cache_file {
            Some(p) => BenchCache::with_file(p),
            None => BenchCache::new(),
        };
        Self {
            inner,
            opts,
            cache,
            metrics: OptimizerMetrics::new(),
            state: Mutex::new(State::default()),
        }
    }

    /// The wrapped handle.
    pub fn inner(&self) -> &CudnnHandle {
        &self.inner
    }

    /// The wrapper options.
    pub fn options(&self) -> &UcudnnOptions {
        &self.opts
    }

    /// `cudnnGetConvolution*Algorithm` override: register (and under WR,
    /// immediately optimize) the kernel, then return the virtual algorithm.
    ///
    /// # Errors
    /// Propagates optimization failures.
    pub fn get_algorithm(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
    ) -> Result<ConvAlgo, UcudnnError> {
        let g = conv.geometry(x, w)?;
        let key = KernelKey::new(op, &g);
        let mut st = self.state.lock();
        match self.opts.mode {
            OptimizerMode::Wr => match st.plans.get_mut(&key) {
                Some(p) => p.multiplicity += 1,
                None => self.install_wr(&mut st, &[(key, 1)])?,
            },
            OptimizerMode::Wd if st.wd_plan.is_none() => st.pending.push(key),
            // A kernel registered after WD ran: fall back to WR for it with
            // the whole limit (rare; keeps the API total).
            OptimizerMode::Wd => {
                if !st.plans.contains_key(&key) {
                    self.install_wr(&mut st, &[(key, 0)])?;
                }
            }
        }
        Ok(VIRTUAL_ALGO)
    }

    /// `cudnnGetConvolution*WorkspaceSize` override: always zero — the
    /// wrapper owns all workspaces.
    ///
    /// # Errors
    /// Rejects invalid descriptor combinations like the substrate would.
    pub fn get_workspace_size(
        &self,
        _op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
        _algo: ConvAlgo,
    ) -> Result<usize, UcudnnError> {
        conv.geometry(x, w)?;
        Ok(0)
    }

    /// Run the WD optimization over all kernels registered so far. Called
    /// automatically on the first convolution; frameworks whose
    /// initialization order needs it can call it explicitly (the paper adds
    /// exactly such a post-initialization hook to Caffe).
    ///
    /// # Errors
    /// Propagates WD infeasibility.
    pub fn finalize_network(&self) -> Result<(), UcudnnError> {
        let mut st = self.state.lock();
        self.run_wd(&mut st)
    }

    fn run_wd(&self, st: &mut State) -> Result<(), UcudnnError> {
        if st.wd_plan.is_some() || st.pending.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        // Duplicate-shape kernels share a configuration and a segment: the
        // wrapper cannot tell instances apart at execution time.
        let counts = fold(&st.pending);
        let threads = self.opts.opt_threads.max(1);
        self.metrics.set_threads(threads);
        self.metrics.add_kernels(counts.len());
        // Shrink-and-retry on allocation faults: every failed arena
        // allocation re-solves the ILP with a budget strictly below the
        // failed size, descending monotonically to zero (which never
        // faults — the threshold is strict).
        let mut limit = self.opts.workspace_limit_bytes;
        // Degradation rungs taken before the final solve, prepended to every
        // assignment's provenance so the record reads in ladder order.
        let mut shrink_rungs: Vec<String> = Vec::new();
        let plan = loop {
            let plan = optimize_wd_weighted_parallel(
                &self.inner,
                &self.cache,
                &counts,
                limit,
                self.opts.policy,
                threads,
                Some(&self.metrics),
            )?;
            if self
                .inner
                .fault_check_alloc(plan.total_workspace_bytes)
                .is_ok()
            {
                break plan;
            }
            self.metrics.degradation();
            limit = plan.total_workspace_bytes - 1;
            shrink_rungs.push(format!("wd_shrink:{limit}"));
        };
        st.wd_arena = vec![0.0f32; plan.total_workspace_bytes.div_ceil(4)];
        for (a, (_, mult)) in plan.assignments.iter().zip(&counts) {
            let mut provenance = a.provenance.clone();
            if !shrink_rungs.is_empty() {
                let mut rungs = shrink_rungs.clone();
                rungs.append(&mut provenance.degradations);
                provenance.degradations = rungs;
            }
            trace::plan_event(&a.kernel, &a.config, &provenance);
            st.plans.insert(
                a.kernel,
                Plan {
                    config: a.config.clone(),
                    offset_floats: a.offset_bytes / 4,
                    multiplicity: *mult,
                    provenance,
                },
            );
        }
        st.pending.clear();
        st.wd_plan = Some(plan);
        self.metrics
            .add_total_us(start.elapsed().as_secs_f64() * 1e6);
        Ok(())
    }

    /// The one WR installer, behind `get_algorithm`, `optimize_network`,
    /// WD's late-kernel fallback and lazy planning in the replay: optimize
    /// `kernels` (each at most once, none planned yet) on the optimizer
    /// threads, then allocate their arenas and install their plans with the
    /// given multiplicities, in order.
    fn install_wr(
        &self,
        st: &mut State,
        kernels: &[(KernelKey, usize)],
    ) -> Result<(), UcudnnError> {
        let start = Instant::now();
        self.metrics.add_kernels(kernels.len());
        let keys: Vec<KernelKey> = kernels.iter().map(|(k, _)| *k).collect();
        let limit = self.opts.workspace_limit_bytes;
        let results = fan_out(&keys, self.opts.opt_threads, |k| self.optimize_wr(k, limit))?;
        let mut installed = Vec::with_capacity(keys.len());
        for (key, r) in keys.iter().zip(results) {
            installed.push(self.wr_arena_with_shrink(key, r?)?);
        }
        for ((key, multiplicity), (config, arena, provenance)) in kernels.iter().zip(installed) {
            st.arenas.insert(*key, arena);
            st.plans.insert(
                *key,
                Plan {
                    config,
                    offset_floats: 0,
                    multiplicity: *multiplicity,
                    provenance,
                },
            );
        }
        self.metrics
            .add_total_us(start.elapsed().as_secs_f64() * 1e6);
        Ok(())
    }

    fn optimize_wr(&self, key: &KernelKey, limit: usize) -> Result<WrResult, UcudnnError> {
        optimize_wr_metered(
            &self.inner,
            &self.cache,
            key,
            limit,
            self.opts.policy,
            self.opts.parallel_benchmark,
            Some(&self.metrics),
        )
    }

    /// Allocate a WR arena for an optimized configuration, degrading on
    /// allocation faults: every failed allocation re-runs the DP with the
    /// workspace limit strictly below the failed size, so the loop descends
    /// monotonically and bottoms out at the zero-workspace configuration
    /// (a zero-byte allocation never faults — the threshold is strict).
    fn wr_arena_with_shrink(
        &self,
        key: &KernelKey,
        mut r: WrResult,
    ) -> Result<(Configuration, Vec<f32>, PlanProvenance), UcudnnError> {
        // Rungs taken by this loop, prepended so the provenance record
        // reads in ladder order: shrink rungs first, then whatever the
        // final re-optimization itself degraded through.
        let mut shrink_rungs: Vec<String> = Vec::new();
        loop {
            if !r.config.covers(key.batch()) {
                return Err(UcudnnError::Degraded {
                    kernel: key.to_string(),
                    lost: format!(
                        "optimizer produced a configuration that does not tile the batch: {}",
                        r.config
                    ),
                });
            }
            let bytes = r.config.workspace_bytes();
            if self.inner.fault_check_alloc(bytes).is_ok() {
                let mut provenance = r.provenance;
                if !shrink_rungs.is_empty() {
                    shrink_rungs.append(&mut provenance.degradations);
                    provenance.degradations = shrink_rungs;
                }
                trace::plan_event(key, &r.config, &provenance);
                return Ok((r.config, vec![0.0f32; bytes.div_ceil(4)], provenance));
            }
            self.metrics.degradation();
            shrink_rungs.push(format!("shrink_reoptimize:{}", bytes - 1));
            r = self.optimize_wr(key, bytes - 1)?;
        }
    }

    /// Optimize a whole network's kernels in one call, fanning the
    /// per-kernel WR dynamic programs (or the WD desirable-set
    /// construction) over [`UcudnnOptions::opt_threads`] workers that share
    /// the concurrent benchmark cache.
    ///
    /// Duplicate keys are folded into one plan with their occurrence count
    /// as multiplicity. The produced plans are byte-identical to calling
    /// [`Self::get_algorithm`] kernel-by-kernel with one thread: worker
    /// results are installed in registration order, and the underlying
    /// benchmarks are pure functions of (device, kernel).
    ///
    /// # Errors
    /// `BadParam` for a key with an invalid geometry (`KernelKey`'s fields
    /// are public, so a key can hold one [`ConvGeometry::new`] rejects);
    /// otherwise the first optimization failure in registration order.
    pub fn optimize_network(&self, kernels: &[KernelKey]) -> Result<(), UcudnnError> {
        for k in kernels {
            check_geometry(&k.raw_geometry())?;
        }
        self.metrics.set_threads(self.opts.opt_threads.max(1));
        let mut st = self.state.lock();
        let unplanned: Vec<KernelKey> = kernels
            .iter()
            .filter(|k| !st.plans.contains_key(k))
            .copied()
            .collect();
        match self.opts.mode {
            OptimizerMode::Wr => self.install_wr(&mut st, &fold(&unplanned))?,
            OptimizerMode::Wd => {
                st.pending.extend(unplanned);
                self.run_wd(&mut st)?;
            }
        }
        drop(st);
        // Args are thread-count-independent on purpose: logical-clock traces
        // of the same network must not differ by `opt_threads`.
        trace::event("opt", "network_done", || {
            (
                match self.opts.mode {
                    OptimizerMode::Wr => "wr".to_string(),
                    OptimizerMode::Wd => "wd".to_string(),
                },
                crate::json::obj([("kernels", crate::json::num(kernels.len() as f64))]),
            )
        });
        Ok(())
    }

    /// The one micro-batch replay behind every convolution call: fetch (or
    /// lazily build) the kernel's plan and run its micro-batches against
    /// the wrapped handle, each on its rows of the batch-split buffers.
    /// Buffers have the roles of [`CudnnHandle::convolution`]
    /// (`out = alpha * op(a, b) + beta * out`); workspace is supplied
    /// internally. BackwardFilter micro-batches after the first accumulate
    /// with `beta = 1` (output scaling), which preserves the undivided
    /// gradient exactly up to floating-point reassociation — the paper's §II
    /// argument.
    ///
    /// # Errors
    /// `BadParam` for an invalid geometry; substrate and optimization
    /// errors.
    #[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
    pub fn convolution(
        &self,
        op: ConvOp,
        g: &ConvGeometry,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        alpha: f32,
        beta: f32,
    ) -> Result<(), UcudnnError> {
        check_geometry(g)?;
        let key = KernelKey::new(op, g);
        let mut guard = self.state.lock();
        if self.opts.mode == OptimizerMode::Wd {
            self.run_wd(&mut guard)?;
        }
        if !guard.plans.contains_key(&key) {
            // Unregistered kernel (framework skipped get_algorithm):
            // optimize it on the fly under WR semantics.
            self.install_wr(&mut guard, &[(key, 0)])?;
        }
        let State {
            plans,
            arenas,
            wd_arena,
            ..
        } = &mut *guard;
        let plan = &plans[&key];
        // Its private arena under WR, its segment of the global one under WD.
        let ws = match arenas.get_mut(&key) {
            Some(buf) => buf.as_mut_slice(),
            None => {
                &mut wd_arena[plan.offset_floats..][..plan.config.workspace_bytes().div_ceil(4)]
            }
        };
        // Per-sample lengths of the buffers split along the batch; the
        // filter-shaped one (`None`) is read or accumulated whole.
        let (x_len, y_len) = (g.input.sample_len(), g.output().sample_len());
        let [a_len, b_len, out_len] = match op {
            ConvOp::Forward => [Some(x_len), None, Some(y_len)],
            ConvOp::BackwardData => [Some(y_len), None, Some(x_len)],
            ConvOp::BackwardFilter => [Some(x_len), Some(y_len), None],
        };
        let mut lo = 0usize;
        for (i, m) in plan.config.micros.iter().enumerate() {
            let rows = lo..lo + m.micro_batch;
            let micro_g = g.with_batch(m.micro_batch);
            let micro_beta = if op == ConvOp::BackwardFilter && i > 0 {
                1.0
            } else {
                beta
            };
            let _micro = micro_span(&key, i, m);
            self.inner.convolution(
                op,
                &micro_g,
                m.algo,
                sub(a, &rows, a_len),
                sub(b, &rows, b_len),
                sub_mut(out, &rows, out_len),
                alpha,
                micro_beta,
                ws,
            )?;
            lo = rows.end;
        }
        debug_assert_eq!(lo, g.input.n, "configuration must tile the mini-batch");
        Ok(())
    }

    /// `cudnnConvolutionForward` override: [`Self::convolution`]. The
    /// `algo` argument is accepted for signature compatibility and ignored.
    ///
    /// # Errors
    /// Propagates substrate and optimization errors.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_forward(
        &self,
        alpha: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        w_desc: &FilterDescriptor,
        w: &[f32],
        conv: &ConvolutionDescriptor,
        _algo: ConvAlgo,
        beta: f32,
        y_desc: &TensorDescriptor,
        y: &mut [f32],
    ) -> Result<(), UcudnnError> {
        let g = conv.call_geometry(x_desc, w_desc, y_desc)?;
        self.convolution(ConvOp::Forward, &g, x, w, y, alpha, beta)
    }

    /// `cudnnConvolutionBackwardData` override: [`Self::convolution`].
    ///
    /// # Errors
    /// Propagates substrate and optimization errors.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_backward_data(
        &self,
        alpha: f32,
        w_desc: &FilterDescriptor,
        w: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        conv: &ConvolutionDescriptor,
        _algo: ConvAlgo,
        beta: f32,
        dx_desc: &TensorDescriptor,
        dx: &mut [f32],
    ) -> Result<(), UcudnnError> {
        let g = conv.call_geometry(dx_desc, w_desc, dy_desc)?;
        self.convolution(ConvOp::BackwardData, &g, dy, w, dx, alpha, beta)
    }

    /// `cudnnConvolutionBackwardFilter` override: [`Self::convolution`].
    ///
    /// # Errors
    /// Propagates substrate and optimization errors.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_backward_filter(
        &self,
        alpha: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        conv: &ConvolutionDescriptor,
        _algo: ConvAlgo,
        beta: f32,
        dw_desc: &FilterDescriptor,
        dw: &mut [f32],
    ) -> Result<(), UcudnnError> {
        let g = conv.call_geometry(x_desc, dw_desc, dy_desc)?;
        self.convolution(ConvOp::BackwardFilter, &g, x, dy, dw, alpha, beta)
    }

    /// The installed plan for a kernel, if any.
    pub fn plan(&self, op: ConvOp, g: &ConvGeometry) -> Option<Plan> {
        self.state.lock().plans.get(&KernelKey::new(op, g)).cloned()
    }

    /// Per-kernel workspace assignment: `(kernel, configuration, bytes)` —
    /// the data behind the paper's Fig. 12 and Fig. 14.
    pub fn memory_report(&self) -> Vec<(KernelKey, Configuration, usize)> {
        let st = self.state.lock();
        let mut v: Vec<_> = st
            .plans
            .iter()
            .map(|(k, p)| (*k, p.config.clone(), p.config.workspace_bytes()))
            .collect();
        v.sort_by_key(|(k, _, _)| format!("{k}"));
        v
    }

    /// Total workspace bytes the wrapper has allocated (Σ per-kernel arenas
    /// under WR; the single divided arena under WD).
    pub fn total_workspace_bytes(&self) -> usize {
        let st = self.state.lock();
        4 * (st.wd_arena.len() + st.arenas.values().map(Vec::len).sum::<usize>())
    }

    /// Wall time spent in optimization (benchmarks + DP + ILP), as
    /// recorded in [`Self::metrics`].
    pub fn optimization_wall_us(&self) -> f64 {
        self.metrics.total_wall_us()
    }

    /// The WD plan, once computed.
    pub fn wd_plan(&self) -> Option<WdPlan> {
        self.state.lock().wd_plan.clone()
    }

    /// Benchmark-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared optimization metrics collector.
    pub fn metrics(&self) -> &OptimizerMetrics {
        &self.metrics
    }

    /// The telemetry registry behind [`Self::metrics`], with the cache and
    /// fault-injection tallies freshly mirrored in. Scrape it standalone
    /// ([`crate::telemetry::Registry::expose`]) or compose it into a larger
    /// exposition (the serving stack embeds it under its `STATS` verb).
    pub fn telemetry(&self) -> crate::telemetry::Registry {
        self.metrics.sync_cache(
            &self.cache.stats(),
            &self.inner.exec_cache_stats(),
            self.inner.faults_injected(),
        );
        self.metrics.registry()
    }

    /// Full metrics report as JSON: per-phase timings, thread and kernel
    /// counts, cache traffic, per-kernel benchmark counts (aggregated over
    /// micro-batch sizes), execution-plan cache counters, and the
    /// robustness ledger (degradations, injected faults, DB quarantine
    /// counts).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json(
            self.cache.stats(),
            &self.cache.benchmark_counts_by_kernel(),
            self.inner.faults_injected(),
            self.inner.exec_cache_stats(),
        )
    }

    /// Persist the benchmark cache to its file DB, if configured.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save_cache(&self) -> std::io::Result<()> {
        self.cache.save()
    }
}

/// Span around one micro-batch kernel replay (cat `exec`, name `micro`).
fn micro_span(key: &KernelKey, i: usize, m: &crate::config::MicroConfig) -> trace::SpanGuard {
    trace::span("exec", "micro", || {
        (
            format!("{key}#{i}"),
            crate::json::obj([
                ("algo", crate::json::Value::Str(m.algo.to_string())),
                ("micro_batch", crate::json::num(m.micro_batch as f64)),
                ("modeled_us", crate::json::num(m.time_us)),
            ]),
        )
    })
}

/// `keys` with duplicates folded into `(key, occurrences)`, in first-seen
/// order.
fn fold(keys: &[KernelKey]) -> Vec<(KernelKey, usize)> {
    let mut counts: Vec<(KernelKey, usize)> = Vec::new();
    for k in keys {
        match counts.iter_mut().find(|(kk, _)| kk == k) {
            Some((_, c)) => *c += 1,
            None => counts.push((*k, 1)),
        }
    }
    counts
}

/// The micro-batch's rows of a buffer split along the batch
/// (`sample_len`), the whole buffer otherwise; empty (simulated-engine)
/// buffers pass through.
fn sub<'a>(data: &'a [f32], rows: &std::ops::Range<usize>, sample_len: Option<usize>) -> &'a [f32] {
    match sample_len {
        Some(n) if !data.is_empty() => &data[rows.start * n..rows.end * n],
        _ => data,
    }
}

fn sub_mut<'a>(
    data: &'a mut [f32],
    rows: &std::ops::Range<usize>,
    sample_len: Option<usize>,
) -> &'a mut [f32] {
    match sample_len {
        Some(n) if !data.is_empty() => &mut data[rows.start * n..rows.end * n],
        _ => data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_cudnn_sim::CudnnError;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{FilterShape, Shape4};

    /// A key whose geometry `ConvGeometry::new` would reject reaches
    /// neither the prefetch, the DP nor the WD sets: the call returns the
    /// `BadParam` that `convolution` returns for the same geometry.
    #[test]
    fn optimize_network_rejects_invalid_keys() {
        let g = ConvGeometry::with_square(
            Shape4::new(8, 3, 16, 16),
            FilterShape::new(4, 3, 3, 3),
            1,
            1,
        );
        let good = KernelKey::new(ConvOp::Forward, &g);
        let invalid = [
            KernelKey {
                stride_h: 0,
                ..good
            },
            KernelKey {
                filter: FilterShape::new(4, 5, 3, 3),
                ..good
            },
        ];
        for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
            for bad in invalid {
                let h = UcudnnHandle::new(
                    CudnnHandle::simulated(p100_sxm2()),
                    UcudnnOptions {
                        mode,
                        ..UcudnnOptions::default()
                    },
                );
                let err = h.optimize_network(&[good, bad]).unwrap_err();
                assert!(
                    matches!(err, UcudnnError::Cudnn(CudnnError::BadParam(_))),
                    "{mode:?} {bad:?}: {err}"
                );
                assert!(h.memory_report().is_empty(), "{mode:?}: nothing planned");
            }
        }
    }
}
