//! The WD (Workspace Division) optimizer (§III-C): one workspace for the
//! whole network, divided among kernels by a 0-1 integer linear program.
//!
//! For kernel set `K` with desirable configuration sets `S_k`, WD solves
//!
//! ```text
//! minimize   Σ_k Σ_{c ∈ S_k} T_{k,c} · x_{k,c}
//! subject to Σ_k Σ_{c ∈ S_k} M_{k,c} · x_{k,c} ≤ W_total
//!            Σ_{c ∈ S_k} x_{k,c} = 1            ∀ k
//!            x ∈ {0,1}
//! ```
//!
//! — a multiple-choice knapsack, solved exactly by
//! [`MckInstance::solve`] from `ucudnn-lp` (the GLPK stand-in), whose tie
//! rule makes the plan independent of the search order.

use crate::bench_cache::BenchCache;
use crate::config::Configuration;
use crate::error::UcudnnError;
use crate::fanout::fan_out;
use crate::kernel::KernelKey;
use crate::metrics::{OptimizerMetrics, Phase};
use crate::pareto::{desirable_set_traced, DesirableStats};
use crate::policy::BatchSizePolicy;
use crate::trace::PlanProvenance;
use ucudnn_cudnn_sim::CudnnHandle;
use ucudnn_lp::{Item, MckInstance};
use ucudnn_tensor::GeometryMap;

/// One kernel's slot in a WD plan.
#[derive(Debug, Clone)]
pub struct WdAssignment {
    /// Which kernel.
    pub kernel: KernelKey,
    /// The configuration chosen by the ILP.
    pub config: Configuration,
    /// Byte offset of this kernel's segment within the global workspace.
    pub offset_bytes: usize,
    /// The decision record: desirable-set sizes, ILP choice vs. the WR
    /// endpoint, degradation rungs (DESIGN.md §10).
    pub provenance: PlanProvenance,
}

/// Result of a WD optimization.
#[derive(Debug, Clone)]
pub struct WdPlan {
    /// Per-kernel assignments, in registration order.
    pub assignments: Vec<WdAssignment>,
    /// Total workspace actually allocated (sum of segments ≤ the limit).
    pub total_workspace_bytes: usize,
    /// Number of 0-1 variables in the ILP (reported in §IV-D: 562 for
    /// ResNet-50).
    pub ilp_variables: usize,
    /// Branch-and-bound nodes the solver bounded, over both passes.
    pub ilp_nodes: usize,
    /// Wall time spent in the ILP solver, microseconds.
    pub ilp_solve_us: f64,
}

impl WdPlan {
    /// Total modeled execution time of the chosen configurations.
    pub fn time_us(&self) -> f64 {
        self.assignments.iter().map(|a| a.config.time_us()).sum()
    }

    /// Look up the assignment for a kernel (first match).
    pub fn assignment(&self, kernel: &KernelKey) -> Option<&WdAssignment> {
        self.assignments.iter().find(|a| &a.kernel == kernel)
    }
}

/// Optimize a set of kernels under a total workspace budget.
///
/// ```
/// use ucudnn::{optimize_wd, BatchSizePolicy, BenchCache, KernelKey};
/// use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
/// use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};
///
/// let kernels: Vec<KernelKey> = [(64usize, 27usize, 192usize, 5usize, 2usize),
///                                (192, 13, 384, 3, 1)]
///     .iter()
///     .map(|&(c, hw, k, r, pad)| {
///         let g = ConvGeometry::with_square(
///             Shape4::new(64, c, hw, hw),
///             FilterShape::new(k, c, r, r),
///             pad,
///             1,
///         );
///         KernelKey::new(ConvOp::Forward, &g)
///     })
///     .collect();
/// let handle = CudnnHandle::simulated(ucudnn_gpu_model::p100_sxm2());
/// let cache = BenchCache::new();
/// let plan = optimize_wd(&handle, &cache, &kernels, 64 << 20,
///                        BatchSizePolicy::PowerOfTwo).unwrap();
/// assert_eq!(plan.assignments.len(), 2);
/// assert!(plan.total_workspace_bytes <= 64 << 20);
/// ```
///
/// Desirable sets are computed per unique kernel shape (and served from the
/// benchmark cache), but every kernel *instance* gets its own ILP group and
/// its own workspace segment, matching the paper's per-kernel division
/// (Fig. 14 shows separate segments for each layer's F/BD/BF kernels).
///
/// # Errors
/// [`UcudnnError::WdInfeasible`] when even the smallest configurations
/// exceed the budget. Kernels whose benchmarks all fail (fault injection,
/// crashed auto-tuner) degrade to the undivided zero-workspace fallback
/// instead of failing; [`UcudnnError::Degraded`] is returned only when that
/// fallback is impossible too.
pub fn optimize_wd(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernels: &[KernelKey],
    total_limit: usize,
    policy: BatchSizePolicy,
) -> Result<WdPlan, UcudnnError> {
    let weighted: Vec<(KernelKey, usize)> = kernels.iter().map(|k| (*k, 1)).collect();
    optimize_wd_weighted(handle, cache, &weighted, total_limit, policy)
}

/// [`optimize_wd`] with per-kernel execution multiplicities: a kernel that
/// runs `m` times per iteration (identical replicated layers sharing one
/// workspace segment) contributes `m ×` its time to the objective but only
/// one segment to the budget. This is how the transparent handle folds
/// duplicate-shape layers, which it cannot tell apart at execution time.
///
/// # Errors
/// Same conditions as [`optimize_wd`].
pub fn optimize_wd_weighted(
    handle: &CudnnHandle,
    cache: &BenchCache,
    weighted_kernels: &[(KernelKey, usize)],
    total_limit: usize,
    policy: BatchSizePolicy,
) -> Result<WdPlan, UcudnnError> {
    optimize_wd_weighted_parallel(
        handle,
        cache,
        weighted_kernels,
        total_limit,
        policy,
        1,
        None,
    )
}

/// [`optimize_wd_weighted`] with the desirable-set (Pareto) construction
/// fanned out over `threads` workers and per-phase timings recorded into
/// `metrics`.
///
/// Workers share the [`BenchCache`], whose single-flight arbitration
/// guarantees every micro-benchmark runs exactly once even when kernels
/// share micro-batch shapes. Fronts come back in registration order, so
/// the plan is byte-identical for every thread count (the simulated
/// benchmark is a pure function of device and kernel, and DP/Pareto/ILP are
/// deterministic given the cache contents).
///
/// # Errors
/// Same conditions as [`optimize_wd`], plus
/// [`UcudnnError::WorkerPanicked`] when a kernel's desirable set panics on
/// a worker and again on the calling thread.
pub fn optimize_wd_weighted_parallel(
    handle: &CudnnHandle,
    cache: &BenchCache,
    weighted_kernels: &[(KernelKey, usize)],
    total_limit: usize,
    policy: BatchSizePolicy,
    threads: usize,
    metrics: Option<&OptimizerMetrics>,
) -> Result<WdPlan, UcudnnError> {
    let kernels: Vec<KernelKey> = weighted_kernels.iter().map(|(k, _)| *k).collect();
    // Unique kernel shapes in first-seen order; identical shapes share one
    // desirable set.
    let mut unique: Vec<KernelKey> = Vec::new();
    for k in &kernels {
        if !unique.contains(k) {
            unique.push(*k);
        }
    }

    let fronts = fan_out(&unique, threads, |k| {
        desirable_set_traced(handle, cache, k, total_limit, policy, metrics)
    })?;

    // Per unique kernel: the desirable set, its construction stats, and
    // whether it is the undivided fallback (a provenance degradation rung).
    let mut sets: GeometryMap<KernelKey, (Vec<Configuration>, DesirableStats, bool)> =
        GeometryMap::default();
    for (k, (ds, stats)) in unique.iter().zip(fronts) {
        let (ds, fallback) = if ds.is_empty() {
            // Every benchmark for this kernel failed outright: degrade to
            // the undivided zero-workspace fallback (it fits any budget)
            // instead of declaring the whole network infeasible.
            match crate::wr::undivided_fallback(handle, k) {
                Some(mc) => {
                    if let Some(m) = metrics {
                        m.degradation();
                    }
                    (vec![Configuration::undivided(mc)], true)
                }
                None => {
                    return Err(UcudnnError::Degraded {
                        kernel: k.to_string(),
                        lost: format!(
                            "no desirable configuration within {total_limit} bytes and no \
                             undivided zero-workspace algorithm remains"
                        ),
                    })
                }
            }
        } else {
            (ds, false)
        };
        sets.insert(*k, (ds, stats, fallback));
    }

    // Build and solve the multiple-choice knapsack.
    let groups: Vec<Vec<Item>> = weighted_kernels
        .iter()
        .map(|(k, mult)| {
            sets[k]
                .0
                .iter()
                .map(|c| Item {
                    cost: *mult as f64 * c.time_us(),
                    weight: c.workspace_bytes() as f64,
                })
                .collect()
        })
        .collect();
    let ilp_variables = groups.iter().map(Vec::len).sum();
    let instance = MckInstance {
        groups,
        capacity: total_limit as f64,
    };
    let start = std::time::Instant::now();
    let sol = instance.solve();
    let ilp_solve_us = start.elapsed().as_secs_f64() * 1e6;
    if let Some(m) = metrics {
        m.add(Phase::Ilp, ilp_solve_us as u64);
    }
    let Some(sol) = sol else {
        return Err(UcudnnError::WdInfeasible(format!(
            "no combination of configurations fits {total_limit} bytes"
        )));
    };

    // Lay segments out contiguously in registration order.
    let mut assignments = Vec::with_capacity(kernels.len());
    let mut offset = 0usize;
    for (k, choice) in kernels.iter().zip(sol.choices) {
        let (ds, stats, fallback) = &sets[k];
        let config = ds[choice].clone();
        let bytes = config.workspace_bytes();
        let provenance = PlanProvenance {
            optimizer: "wd",
            candidate_sizes: stats.candidate_sizes,
            candidates_kept: stats.sizes_kept,
            pareto_generated: stats.generated,
            pareto_kept: stats.kept,
            ilp_choice: Some(choice),
            // The fastest endpoint of the desirable set is what WR would
            // have picked for this kernel alone.
            wr_choice: Some(ds.len() - 1),
            workspace_granted_bytes: bytes,
            degradations: if *fallback {
                vec!["undivided_fallback".into()]
            } else {
                Vec::new()
            },
        };
        assignments.push(WdAssignment {
            kernel: *k,
            config,
            offset_bytes: offset,
            provenance,
        });
        offset += bytes;
    }
    Ok(WdPlan {
        assignments,
        total_workspace_bytes: offset,
        ilp_variables,
        ilp_nodes: sol.nodes,
        ilp_solve_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_cudnn_sim::ConvOp;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

    const MIB: usize = 1024 * 1024;

    fn kernel(
        op: ConvOp,
        n: usize,
        c: usize,
        hw: usize,
        k: usize,
        r: usize,
        pad: usize,
    ) -> KernelKey {
        let g = ConvGeometry::with_square(
            Shape4::new(n, c, hw, hw),
            FilterShape::new(k, c, r, r),
            pad,
            1,
        );
        KernelKey::new(op, &g)
    }

    /// A small AlexNet-flavoured kernel set: two 5×5 layers and one 3×3.
    fn kernels() -> Vec<KernelKey> {
        vec![
            kernel(ConvOp::Forward, 64, 64, 27, 192, 5, 2),
            kernel(ConvOp::Forward, 64, 192, 13, 384, 3, 1),
            kernel(ConvOp::Forward, 64, 256, 13, 256, 3, 1),
        ]
    }

    #[test]
    fn respects_the_total_budget() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        for limit in [0, 8 * MIB, 64 * MIB, 512 * MIB] {
            let plan =
                optimize_wd(&h, &cache, &kernels(), limit, BatchSizePolicy::PowerOfTwo).unwrap();
            assert!(
                plan.total_workspace_bytes <= limit,
                "plan uses {} > limit {limit}",
                plan.total_workspace_bytes
            );
            assert_eq!(plan.assignments.len(), 3);
        }
    }

    #[test]
    fn segments_do_not_overlap() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let plan = optimize_wd(
            &h,
            &cache,
            &kernels(),
            256 * MIB,
            BatchSizePolicy::PowerOfTwo,
        )
        .unwrap();
        let mut spans: Vec<(usize, usize)> = plan
            .assignments
            .iter()
            .map(|a| (a.offset_bytes, a.offset_bytes + a.config.workspace_bytes()))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "segments overlap: {:?}", spans);
        }
        assert_eq!(spans.last().unwrap().1, plan.total_workspace_bytes);
    }

    #[test]
    fn more_budget_is_never_slower() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let mut prev = f64::INFINITY;
        for limit in [0, 8 * MIB, 40 * MIB, 120 * MIB, 512 * MIB] {
            let plan =
                optimize_wd(&h, &cache, &kernels(), limit, BatchSizePolicy::PowerOfTwo).unwrap();
            assert!(
                plan.time_us() <= prev + 1e-6,
                "budget {limit} slower than smaller budget"
            );
            prev = plan.time_us();
        }
    }

    #[test]
    fn wd_beats_uniform_wr_split_of_the_same_total() {
        // The Fig. 13 claim: a shared budget of K·L bytes, divided adaptively
        // by WD, beats giving every kernel L bytes under WR.
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let ks = kernels();
        let per_kernel = 8 * MIB;
        let total = per_kernel * ks.len();
        let wd = optimize_wd(&h, &cache, &ks, total, BatchSizePolicy::PowerOfTwo).unwrap();
        let wr_total: f64 = ks
            .iter()
            .map(|k| {
                crate::wr::optimize_wr(
                    &h,
                    &cache,
                    k,
                    per_kernel,
                    BatchSizePolicy::PowerOfTwo,
                    false,
                )
                .unwrap()
                .config
                .time_us()
            })
            .sum();
        assert!(
            wd.time_us() <= wr_total + 1e-6,
            "WD ({}) must not lose to uniform WR ({wr_total})",
            wd.time_us()
        );
    }

    #[test]
    fn identical_kernels_each_get_a_segment() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let k = kernel(ConvOp::Forward, 64, 64, 27, 192, 5, 2);
        let plan =
            optimize_wd(&h, &cache, &[k, k], 200 * MIB, BatchSizePolicy::PowerOfTwo).unwrap();
        assert_eq!(plan.assignments.len(), 2);
        // Same shape ⇒ same configuration, but distinct segments.
        assert_eq!(plan.assignments[0].config, plan.assignments[1].config);
        if plan.assignments[0].config.workspace_bytes() > 0 {
            assert_ne!(
                plan.assignments[0].offset_bytes,
                plan.assignments[1].offset_bytes
            );
        }
    }

    #[test]
    fn fully_faulted_benchmarks_degrade_to_zero_workspace_plan() {
        use ucudnn_cudnn_sim::{FaultPlan, FaultTarget};
        let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
            targets: vec![FaultTarget::any()],
            ..FaultPlan::default()
        });
        let cache = BenchCache::new();
        let m = OptimizerMetrics::new();
        let weighted: Vec<(KernelKey, usize)> = kernels().iter().map(|k| (*k, 1)).collect();
        let plan = optimize_wd_weighted_parallel(
            &h,
            &cache,
            &weighted,
            64 * MIB,
            BatchSizePolicy::PowerOfTwo,
            1,
            Some(&m),
        )
        .unwrap();
        assert_eq!(plan.assignments.len(), 3);
        assert_eq!(plan.total_workspace_bytes, 0);
        for a in &plan.assignments {
            assert!(a.config.is_undivided());
            assert_eq!(a.config.workspace_bytes(), 0);
        }
        assert!(m.degradations() > 0);
    }

    #[test]
    fn faulted_wd_plans_are_identical_across_thread_counts() {
        use ucudnn_cudnn_sim::{FaultPlan, FaultTarget};
        use ucudnn_gpu_model::ConvAlgo;
        let plan_at = |threads: usize| {
            let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
                targets: vec![FaultTarget::algo(ConvAlgo::Fft)],
                exec_rate: 0.05,
                ..FaultPlan::default()
            });
            let cache = BenchCache::new();
            let weighted: Vec<(KernelKey, usize)> = kernels().iter().map(|k| (*k, 1)).collect();
            optimize_wd_weighted_parallel(
                &h,
                &cache,
                &weighted,
                64 * MIB,
                BatchSizePolicy::PowerOfTwo,
                threads,
                None,
            )
            .unwrap()
        };
        let one = plan_at(1);
        for threads in [2, 8] {
            let multi = plan_at(threads);
            assert_eq!(one.assignments.len(), multi.assignments.len());
            for (a, b) in one.assignments.iter().zip(&multi.assignments) {
                assert_eq!(a.kernel, b.kernel);
                assert_eq!(
                    a.config, b.config,
                    "fault verdicts must be schedule-independent"
                );
                assert_eq!(a.offset_bytes, b.offset_bytes);
            }
        }
    }

    #[test]
    fn ilp_stats_are_populated() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let plan = optimize_wd(
            &h,
            &cache,
            &kernels(),
            120 * MIB,
            BatchSizePolicy::PowerOfTwo,
        )
        .unwrap();
        assert!(plan.ilp_variables >= 3);
        assert!(plan.ilp_nodes >= 1);
        assert!(plan.ilp_solve_us > 0.0);
    }
}
