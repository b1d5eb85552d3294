//! The WR (Workspace Reuse) optimizer: dynamic programming over mini-batch
//! divisions (§III-B).
//!
//! Each layer gets one workspace of at most `W` bytes, shared by its
//! sequential micro-batches. The optimal total time obeys
//!
//! ```text
//! T(n) = min( t*(n),  min_{0<i<n} T(i) + T(n−i) )
//! ```
//!
//! where `t*(m)` is the fastest single-kernel time at micro-batch `m` within
//! the workspace limit. Because the benchmark policy restricts which sizes
//! `m` are measured, the recursion is computed over those candidate sizes.

use crate::bench_cache::{BenchCache, BenchEntry};
use crate::config::{Configuration, MicroConfig};
use crate::error::UcudnnError;
use crate::fanout::fan_out;
use crate::kernel::KernelKey;
use crate::metrics::{OptimizerMetrics, Phase};
use crate::policy::BatchSizePolicy;
use crate::trace::PlanProvenance;
use ucudnn_cudnn_sim::{supported_on, workspace_bytes_on, CudnnHandle, Engine};
use ucudnn_gpu_model::{kernel_time_us, ConvAlgo};

/// Fastest micro-configuration at one size within the workspace limit
/// (step 1 of the WR algorithm). The limit is the benchmark budget, so
/// algorithms that cannot fit are never timed.
pub fn best_micro(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernel: &KernelKey,
    micro_batch: usize,
    ws_limit: usize,
) -> Option<MicroConfig> {
    let entries = cache
        .try_get_or_bench(handle, &kernel.with_batch(micro_batch), ws_limit)
        .ok()?;
    fastest(micro_batch, &entries)
}

/// The first (fastest) row of a budgeted lookup as a micro-configuration.
fn fastest(micro_batch: usize, entries: &[BenchEntry]) -> Option<MicroConfig> {
    entries.first().map(|e| MicroConfig {
        micro_batch,
        algo: e.algo,
        time_us: e.time_us,
        workspace_bytes: e.memory_bytes,
    })
}

/// The last rung of the degradation ladder: the undivided configuration on
/// a zero-workspace algorithm — the paper's baseline that every cuDNN
/// deployment can run regardless of memory pressure. Pure function of
/// (engine, kernel); never benchmarks, so it works even when every `Find`
/// call fails.
pub(crate) fn undivided_fallback(handle: &CudnnHandle, kernel: &KernelKey) -> Option<MicroConfig> {
    let g = kernel.geometry();
    let op = kernel.conv_op();
    ConvAlgo::ALL
        .iter()
        .filter(|&&algo| supported_on(handle.engine(), algo, op, &g))
        .filter(|&&algo| workspace_bytes_on(handle.engine(), algo, op, &g) == Some(0))
        .map(|&algo| {
            // Price with the model when available; on the CPU engine use a
            // large flat penalty so degraded plans sort after measured ones.
            let time_us = match handle.engine() {
                Engine::Simulated(d) => kernel_time_us(d, algo, op, &g).unwrap_or(1e9),
                Engine::RealCpu => 1e9,
            };
            MicroConfig {
                micro_batch: kernel.batch(),
                algo,
                time_us,
                workspace_bytes: 0,
            }
        })
        .min_by(|a, b| {
            a.time_us
                .total_cmp(&b.time_us)
                .then(a.algo.id().cmp(&b.algo.id()))
        })
}

/// Result of a WR optimization.
#[derive(Debug, Clone)]
pub struct WrResult {
    /// The optimal configuration.
    pub config: Configuration,
    /// The `t*(m)` table: best micro-configuration per benchmarked size.
    pub per_size: Vec<(usize, Option<MicroConfig>)>,
    /// Whether the plan lost benchmark points or fell back to the
    /// undivided zero-workspace configuration (degradation ladder).
    pub degraded: bool,
    /// The decision record: what was evaluated, what was kept, which
    /// degradation rungs fired (DESIGN.md §10).
    pub provenance: PlanProvenance,
}

/// Optimize one kernel under the WR policy.
///
/// ```
/// use ucudnn::{optimize_wr, BatchSizePolicy, BenchCache, KernelKey};
/// use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
/// use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};
///
/// // AlexNet conv2 under a 64 MiB limit on the simulated P100.
/// let g = ConvGeometry::with_square(
///     Shape4::new(256, 64, 27, 27),
///     FilterShape::new(192, 64, 5, 5),
///     2,
///     1,
/// );
/// let handle = CudnnHandle::simulated(ucudnn_gpu_model::p100_sxm2());
/// let cache = BenchCache::new();
/// let r = optimize_wr(
///     &handle,
///     &cache,
///     &KernelKey::new(ConvOp::Forward, &g),
///     64 << 20,
///     BatchSizePolicy::PowerOfTwo,
///     false,
/// )
/// .unwrap();
/// // The DP divides the batch to unlock FFT within the limit.
/// assert!(!r.config.is_undivided());
/// assert_eq!(r.config.batch(), 256);
/// assert!(r.config.workspace_bytes() <= 64 << 20);
/// ```
///
/// # Errors
/// When no benchmarked algorithm can tile the mini-batch within the limit
/// (e.g. every `Find` call failed under fault injection), the optimizer
/// *degrades* to the undivided zero-workspace configuration rather than
/// erroring, marking [`WrResult::degraded`]. [`UcudnnError::Degraded`] is
/// returned only when even that fallback is impossible — no zero-workspace
/// algorithm supports the kernel on this engine. A benchmark that panics
/// on its worker and again on the calling thread is
/// [`UcudnnError::WorkerPanicked`].
#[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
pub fn optimize_wr(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernel: &KernelKey,
    ws_limit: usize,
    policy: BatchSizePolicy,
    parallel_benchmark: bool,
) -> Result<WrResult, UcudnnError> {
    optimize_wr_metered(
        handle,
        cache,
        kernel,
        ws_limit,
        policy,
        parallel_benchmark,
        None,
    )
}

/// [`optimize_wr`] with per-phase timing recorded into `metrics`
/// (benchmarking vs. dynamic programming). The plan produced is identical.
///
/// # Errors
/// Same as [`optimize_wr`].
#[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
pub fn optimize_wr_metered(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernel: &KernelKey,
    ws_limit: usize,
    policy: BatchSizePolicy,
    parallel_benchmark: bool,
    metrics: Option<&OptimizerMetrics>,
) -> Result<WrResult, UcudnnError> {
    let b = kernel.batch();
    let sizes = policy.candidate_sizes(b);
    // Step 1: t*(m) for every candidate size, each looked up once. With
    // `parallel_benchmark` the misses run on one worker per core, the
    // analogue of μ-cuDNN's multi-GPU benchmark distribution (§III-D). A
    // size whose benchmark failed (injected or real) is dropped from the
    // DP — the first rung of the degradation ladder.
    let threads = if parallel_benchmark {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        1
    };
    let micro_keys: Vec<KernelKey> = sizes.iter().map(|&m| kernel.with_batch(m)).collect();
    let bench_start = std::time::Instant::now();
    let lookups = fan_out(&micro_keys, threads, |k| {
        cache
            .try_get_or_bench(handle, k, ws_limit)
            .map(|entries| fastest(k.batch(), &entries))
    })?;
    let mut lost_points = false;
    let per_size: Vec<(usize, Option<MicroConfig>)> = sizes
        .iter()
        .zip(lookups)
        .map(|(&m, lookup)| match lookup {
            Ok(mc) => (m, mc),
            Err(_) => {
                lost_points = true;
                if let Some(metrics) = metrics {
                    metrics.degradation();
                }
                (m, None)
            }
        })
        .collect();
    if let Some(m) = metrics {
        m.add(Phase::Benchmark, bench_start.elapsed().as_micros() as u64);
    }
    let mut provenance = PlanProvenance {
        optimizer: "wr",
        candidate_sizes: sizes.len(),
        candidates_kept: per_size.iter().filter(|(_, mc)| mc.is_some()).count(),
        ..PlanProvenance::default()
    };
    if lost_points {
        provenance.degradations.push("dropped_bench_points".into());
    }

    // Step 2: DP over the total batch with the benchmarked sizes as atoms.
    let dp_start = std::time::Instant::now();
    const INF: f64 = f64::INFINITY;
    let mut t = vec![INF; b + 1];
    let mut step: Vec<Option<&MicroConfig>> = vec![None; b + 1];
    t[0] = 0.0;
    for n in 1..=b {
        for (m, mc) in &per_size {
            let Some(mc) = mc else { continue };
            if *m > n || t[n - m] == INF {
                continue;
            }
            let cand = t[n - m] + mc.time_us;
            if cand < t[n] {
                t[n] = cand;
                step[n] = Some(mc);
            }
        }
    }
    if t[b] == INF {
        // Degradation ladder, last rung: run the batch undivided on a
        // zero-workspace algorithm rather than fail the optimization.
        if let Some(mc) = undivided_fallback(handle, kernel) {
            if let Some(m) = metrics {
                m.degradation();
                m.add(Phase::Dp, dp_start.elapsed().as_micros() as u64);
            }
            provenance.degradations.push("undivided_fallback".into());
            return Ok(WrResult {
                config: Configuration { micros: vec![mc] },
                per_size,
                degraded: true,
                provenance,
            });
        }
        return Err(UcudnnError::Degraded {
            kernel: kernel.to_string(),
            lost: format!(
                "cannot tile batch {b} within {ws_limit} bytes and no \
                 undivided zero-workspace algorithm remains"
            ),
        });
    }

    // Step 3: reconstruct the optimal division, largest micro-batches first.
    let mut micros = Vec::new();
    let mut n = b;
    while n > 0 {
        let mc = *step[n].expect("reachable state must have a step");
        micros.push(mc);
        n -= mc.micro_batch;
    }
    micros.sort_by_key(|m| std::cmp::Reverse(m.micro_batch));
    if let Some(m) = metrics {
        m.add(Phase::Dp, dp_start.elapsed().as_micros() as u64);
    }
    let config = Configuration { micros };
    provenance.workspace_granted_bytes = config.workspace_bytes();
    Ok(WrResult {
        config,
        per_size,
        degraded: lost_points,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_cudnn_sim::ConvOp;
    use ucudnn_gpu_model::{p100_sxm2, ConvAlgo};
    use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

    const MIB: usize = 1024 * 1024;

    /// AlexNet conv2 forward — the paper's running example.
    fn conv2(n: usize) -> KernelKey {
        let g = ConvGeometry::with_square(
            Shape4::new(n, 64, 27, 27),
            FilterShape::new(192, 64, 5, 5),
            2,
            1,
        );
        KernelKey::new(ConvOp::Forward, &g)
    }

    fn setup() -> (CudnnHandle, BenchCache) {
        (CudnnHandle::simulated(p100_sxm2()), BenchCache::new())
    }

    #[test]
    fn undivided_policy_reproduces_cudnn_choice() {
        let (h, c) = setup();
        let r = optimize_wr(
            &h,
            &c,
            &conv2(256),
            64 * MIB,
            BatchSizePolicy::Undivided,
            false,
        )
        .unwrap();
        assert!(r.config.is_undivided());
        assert_eq!(r.config.micros[0].micro_batch, 256);
        // 64 MiB excludes FFT undivided: must be a GEMM-family algorithm.
        assert!(matches!(
            r.config.micros[0].algo,
            ConvAlgo::Gemm | ConvAlgo::ImplicitPrecompGemm | ConvAlgo::ImplicitGemm
        ));
    }

    #[test]
    fn power_of_two_unlocks_fft_at_64mib() {
        // §IV-A: powerOfTwo enables FFT with micro-batches of 32 within the
        // 64 MiB constraint, beating the undivided GEMM configuration.
        let (h, c) = setup();
        let undiv = optimize_wr(
            &h,
            &c,
            &conv2(256),
            64 * MIB,
            BatchSizePolicy::Undivided,
            false,
        )
        .unwrap();
        let p2 = optimize_wr(
            &h,
            &c,
            &conv2(256),
            64 * MIB,
            BatchSizePolicy::PowerOfTwo,
            false,
        )
        .unwrap();
        assert!(!p2.config.is_undivided());
        assert!(p2.config.time_us() < undiv.config.time_us());
        assert!(p2.config.workspace_bytes() <= 64 * MIB);
        assert!(
            p2.config
                .micros
                .iter()
                .any(|m| matches!(m.algo, ConvAlgo::Fft | ConvAlgo::FftTiling)),
            "expected an FFT micro-config, got {}",
            p2.config
        );
    }

    #[test]
    fn all_is_at_least_as_good_as_power_of_two() {
        let (h, c) = setup();
        let p2 = optimize_wr(
            &h,
            &c,
            &conv2(256),
            64 * MIB,
            BatchSizePolicy::PowerOfTwo,
            false,
        )
        .unwrap();
        let all = optimize_wr(&h, &c, &conv2(256), 64 * MIB, BatchSizePolicy::All, false).unwrap();
        assert!(all.config.time_us() <= p2.config.time_us() + 1e-9);
        // And both tile the mini-batch exactly.
        assert_eq!(all.config.batch(), 256);
        assert_eq!(p2.config.batch(), 256);
    }

    #[test]
    fn tiny_limit_degenerates_to_zero_workspace_algorithms() {
        let (h, c) = setup();
        let r = optimize_wr(&h, &c, &conv2(256), 0, BatchSizePolicy::All, false).unwrap();
        assert_eq!(r.config.workspace_bytes(), 0);
        assert_eq!(r.config.batch(), 256);
    }

    #[test]
    fn huge_limit_keeps_the_batch_undivided() {
        // With 512 MiB the best undivided algorithm fits, so dividing only
        // adds launch overhead — the DP must keep one kernel (Fig. 10's
        // "no benefit at 512 MiB" result).
        let (h, c) = setup();
        let r = optimize_wr(&h, &c, &conv2(256), 512 * MIB, BatchSizePolicy::All, false).unwrap();
        assert!(r.config.is_undivided(), "got {}", r.config);
    }

    #[test]
    fn dp_beats_or_equals_any_uniform_division() {
        let (h, c) = setup();
        let r = optimize_wr(&h, &c, &conv2(256), 64 * MIB, BatchSizePolicy::All, false).unwrap();
        // Compare against every uniform division of benchmarked sizes.
        for (m, mc) in &r.per_size {
            let Some(mc) = mc else { continue };
            if 256 % m != 0 {
                continue;
            }
            let uniform = (256 / m) as f64 * mc.time_us;
            assert!(
                r.config.time_us() <= uniform + 1e-6,
                "DP ({}) worse than uniform {}x{}",
                r.config.time_us(),
                256 / m,
                m
            );
        }
    }

    #[test]
    fn per_size_table_matches_policy() {
        let (h, c) = setup();
        let r = optimize_wr(
            &h,
            &c,
            &conv2(64),
            64 * MIB,
            BatchSizePolicy::PowerOfTwo,
            false,
        )
        .unwrap();
        let sizes: Vec<usize> = r.per_size.iter().map(|(m, _)| *m).collect();
        assert_eq!(sizes, vec![1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn fully_faulted_benchmarks_degrade_to_undivided_zero_workspace() {
        use crate::metrics::OptimizerMetrics;
        use ucudnn_cudnn_sim::{FaultPlan, FaultTarget};
        // Every Find call fails: the ladder must bottom out at the
        // undivided zero-workspace configuration, not an error.
        let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
            targets: vec![FaultTarget::any()],
            ..FaultPlan::default()
        });
        let c = BenchCache::new();
        let m = OptimizerMetrics::new();
        let r = optimize_wr_metered(
            &h,
            &c,
            &conv2(256),
            64 * MIB,
            BatchSizePolicy::PowerOfTwo,
            false,
            Some(&m),
        )
        .unwrap();
        assert!(r.degraded);
        assert!(r.config.is_undivided());
        assert_eq!(r.config.batch(), 256);
        assert_eq!(r.config.workspace_bytes(), 0);
        assert!(m.degradations() > 0);
        assert!(h.faults_injected() > 0);
    }

    #[test]
    fn single_faulted_algorithm_only_drops_that_algorithm() {
        use ucudnn_cudnn_sim::{FaultPlan, FaultTarget};
        let (h_clean, c_clean) = setup();
        let clean = optimize_wr(
            &h_clean,
            &c_clean,
            &conv2(256),
            512 * MIB,
            BatchSizePolicy::PowerOfTwo,
            false,
        )
        .unwrap();
        // Fault the algorithm the clean plan chose; the optimizer must pick
        // the next-best configuration instead of failing.
        let faulted_algo = clean.config.micros[0].algo;
        let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
            targets: vec![FaultTarget::algo(faulted_algo)],
            ..FaultPlan::default()
        });
        let c = BenchCache::new();
        let r = optimize_wr(
            &h,
            &c,
            &conv2(256),
            512 * MIB,
            BatchSizePolicy::PowerOfTwo,
            false,
        )
        .unwrap();
        assert!(r.config.micros.iter().all(|mc| mc.algo != faulted_algo));
        assert_eq!(r.config.batch(), 256);
        assert!(r.config.time_us() >= clean.config.time_us());
    }

    #[test]
    fn parallel_benchmark_gives_identical_plan() {
        let (h, c1) = setup();
        let serial = optimize_wr(
            &h,
            &c1,
            &conv2(128),
            64 * MIB,
            BatchSizePolicy::PowerOfTwo,
            false,
        )
        .unwrap();
        let c2 = BenchCache::new();
        let parallel = optimize_wr(
            &h,
            &c2,
            &conv2(128),
            64 * MIB,
            BatchSizePolicy::PowerOfTwo,
            true,
        )
        .unwrap();
        assert_eq!(serial.config, parallel.config);
    }
}
