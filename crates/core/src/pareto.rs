//! Desirable configuration sets (§III-C1): Pareto fronts in the
//! (execution time × workspace size) plane.
//!
//! The WD ILP would need `O(|A|^N)` variables if every division were
//! enumerated. Instead, a set-valued variant of the WR dynamic program keeps
//! only the *desirable* configurations — those for which no other
//! configuration is both faster and smaller. The paper proves the ILP
//! optimum never uses an undesirable configuration, so this pruning is
//! lossless (validated by `tests/wd_pruning.rs` against exhaustive search).

use crate::bench_cache::BenchCache;
use crate::config::{Configuration, MicroConfig};
use crate::kernel::KernelKey;
use crate::metrics::OptimizerMetrics;
use crate::policy::BatchSizePolicy;
use ucudnn_cudnn_sim::CudnnHandle;

/// Prune a set of configurations to its Pareto front: ascending workspace,
/// strictly descending time. Ties on workspace keep the fastest.
pub fn pareto_front(mut configs: Vec<Configuration>) -> Vec<Configuration> {
    configs.sort_by(|a, b| {
        a.workspace_bytes()
            .cmp(&b.workspace_bytes())
            .then(a.time_us().total_cmp(&b.time_us()))
    });
    let mut front: Vec<Configuration> = Vec::new();
    for c in configs {
        match front.last() {
            Some(last) if c.workspace_bytes() == last.workspace_bytes() => continue,
            Some(last) if c.time_us() >= last.time_us() - 1e-12 => continue,
            _ => front.push(c),
        }
    }
    front
}

/// Compute the desirable configuration set for one kernel: every
/// Pareto-optimal division of its mini-batch under `policy`, with per-config
/// workspace capped at `ws_cap` bytes.
///
/// Returned sorted by ascending workspace (so descending time).
pub fn desirable_set(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernel: &KernelKey,
    ws_cap: usize,
    policy: BatchSizePolicy,
) -> Vec<Configuration> {
    desirable_set_metered(handle, cache, kernel, ws_cap, policy, None)
}

/// [`desirable_set`] with degradations recorded into `metrics`: a
/// benchmarked size whose `Find` call failed outright contributes no
/// micro-configurations (its points are dropped — one rung down the
/// degradation ladder) instead of aborting the construction. When *every*
/// size fails, the returned set is empty and the WD optimizer substitutes
/// the undivided zero-workspace fallback.
pub fn desirable_set_metered(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernel: &KernelKey,
    ws_cap: usize,
    policy: BatchSizePolicy,
    metrics: Option<&OptimizerMetrics>,
) -> Vec<Configuration> {
    desirable_set_traced(handle, cache, kernel, ws_cap, policy, metrics).0
}

/// How a desirable set was built — the Pareto half of a WD plan's
/// provenance record (DESIGN.md §10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesirableStats {
    /// Micro-batch sizes the policy put up for benchmarking.
    pub candidate_sizes: usize,
    /// Sizes that yielded at least one usable micro-configuration.
    pub sizes_kept: usize,
    /// Configurations generated at the final DP stage, before pruning.
    pub generated: usize,
    /// Desirable-set size after Pareto pruning.
    pub kept: usize,
}

/// [`desirable_set_metered`], additionally reporting [`DesirableStats`]
/// for plan provenance.
pub fn desirable_set_traced(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernel: &KernelKey,
    ws_cap: usize,
    policy: BatchSizePolicy,
    metrics: Option<&OptimizerMetrics>,
) -> (Vec<Configuration>, DesirableStats) {
    let b = kernel.batch();
    let sizes = policy.candidate_sizes(b);

    // Per-size micro-configuration fronts: for each benchmarked size, the
    // Pareto-optimal (time, workspace) algorithms within the cap.
    let micro_fronts: Vec<(usize, Vec<MicroConfig>)> = sizes
        .iter()
        .map(|&m| {
            // The cap is the benchmark budget: algorithms that cannot fit
            // are never timed.
            let entries = match cache.try_get_or_bench(handle, &kernel.with_batch(m), ws_cap) {
                Ok(entries) => entries,
                Err(_) => {
                    if let Some(mx) = metrics {
                        mx.degradation();
                    }
                    Vec::new()
                }
            };
            let singles: Vec<Configuration> = entries
                .into_iter()
                .map(|e| {
                    Configuration::undivided(MicroConfig {
                        micro_batch: m,
                        algo: e.algo,
                        time_us: e.time_us,
                        workspace_bytes: e.memory_bytes,
                    })
                })
                .collect();
            (
                m,
                pareto_front(singles)
                    .into_iter()
                    .map(|c| c.micros[0])
                    .collect(),
            )
        })
        .collect();

    let mut stats = DesirableStats {
        candidate_sizes: sizes.len(),
        sizes_kept: micro_fronts.iter().filter(|(_, f)| !f.is_empty()).count(),
        ..DesirableStats::default()
    };

    // Set-valued DP: fronts[n] = desirable configurations covering n samples.
    let mut fronts: Vec<Vec<Configuration>> = vec![Vec::new(); b + 1];
    fronts[0] = vec![Configuration::default()];
    for n in 1..=b {
        let mut candidates: Vec<Configuration> = Vec::new();
        for (m, micros) in &micro_fronts {
            if *m > n {
                continue;
            }
            for prefix in &fronts[n - m] {
                // fronts[0] is the empty configuration; a single micro is
                // then its own candidate.
                for mc in micros {
                    let mut micros_new = Vec::with_capacity(prefix.micros.len() + 1);
                    micros_new.extend_from_slice(&prefix.micros);
                    micros_new.push(*mc);
                    candidates.push(Configuration { micros: micros_new });
                }
            }
        }
        if n == b {
            stats.generated = candidates.len();
        }
        fronts[n] = pareto_front(candidates);
    }
    let mut out = std::mem::take(&mut fronts[b]);
    stats.kept = out.len();
    // Canonical ordering of micros within each configuration.
    for c in &mut out {
        c.micros.sort_by_key(|m| std::cmp::Reverse(m.micro_batch));
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_cudnn_sim::ConvOp;
    use ucudnn_gpu_model::{p100_sxm2, ConvAlgo};
    use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

    const MIB: usize = 1024 * 1024;

    fn conv2(n: usize) -> KernelKey {
        let g = ConvGeometry::with_square(
            Shape4::new(n, 64, 27, 27),
            FilterShape::new(192, 64, 5, 5),
            2,
            1,
        );
        KernelKey::new(ConvOp::Forward, &g)
    }

    fn mc(t: f64, w: usize) -> Configuration {
        Configuration::undivided(MicroConfig {
            micro_batch: 1,
            algo: ConvAlgo::Gemm,
            time_us: t,
            workspace_bytes: w,
        })
    }

    #[test]
    fn front_removes_dominated_points() {
        let front = pareto_front(vec![mc(10.0, 0), mc(8.0, 5), mc(9.0, 6), mc(3.0, 10)]);
        let pts: Vec<(f64, usize)> = front
            .iter()
            .map(|c| (c.time_us(), c.workspace_bytes()))
            .collect();
        // (9,6) is dominated by (8,5).
        assert_eq!(pts, vec![(10.0, 0), (8.0, 5), (3.0, 10)]);
    }

    #[test]
    fn front_keeps_fastest_on_workspace_ties() {
        let front = pareto_front(vec![mc(10.0, 5), mc(7.0, 5), mc(12.0, 0)]);
        let pts: Vec<(f64, usize)> = front
            .iter()
            .map(|c| (c.time_us(), c.workspace_bytes()))
            .collect();
        assert_eq!(pts, vec![(12.0, 0), (7.0, 5)]);
    }

    #[test]
    fn front_is_monotone() {
        // Fundamental invariant: ws strictly ascending, time strictly descending.
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let ds = desirable_set(
            &h,
            &cache,
            &conv2(64),
            120 * MIB,
            BatchSizePolicy::PowerOfTwo,
        );
        assert!(!ds.is_empty());
        for w in ds.windows(2) {
            assert!(w[0].workspace_bytes() < w[1].workspace_bytes());
            assert!(w[0].time_us() > w[1].time_us());
        }
    }

    #[test]
    fn every_configuration_covers_the_batch() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let ds = desirable_set(
            &h,
            &cache,
            &conv2(64),
            120 * MIB,
            BatchSizePolicy::PowerOfTwo,
        );
        for c in &ds {
            assert_eq!(c.batch(), 64, "configuration {c} does not tile the batch");
            assert!(c.workspace_bytes() <= 120 * MIB);
        }
    }

    #[test]
    fn contains_the_wr_optimum() {
        // The paper notes T(B) ∈ D(B): the fastest WR configuration is one
        // endpoint of the desirable set.
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let key = conv2(128);
        let ds = desirable_set(&h, &cache, &key, 120 * MIB, BatchSizePolicy::PowerOfTwo);
        let wr = crate::wr::optimize_wr(
            &h,
            &cache,
            &key,
            120 * MIB,
            BatchSizePolicy::PowerOfTwo,
            false,
        )
        .unwrap();
        let fastest = ds.last().unwrap();
        assert!(
            (fastest.time_us() - wr.config.time_us()).abs() < 1e-6,
            "desirable-set endpoint {} vs WR optimum {}",
            fastest.time_us(),
            wr.config.time_us()
        );
    }

    #[test]
    fn front_size_is_modest() {
        // §IV-D: the largest desirable set observed for AlexNet was 68
        // entries — far below the exponential enumeration. Sanity-check the
        // same order of magnitude.
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let ds = desirable_set(
            &h,
            &cache,
            &conv2(256),
            120 * MIB,
            BatchSizePolicy::PowerOfTwo,
        );
        assert!(
            ds.len() <= 128,
            "desirable set unexpectedly large: {}",
            ds.len()
        );
    }

    #[test]
    fn zero_cap_yields_single_zero_workspace_configuration() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let ds = desirable_set(&h, &cache, &conv2(32), 0, BatchSizePolicy::PowerOfTwo);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].workspace_bytes(), 0);
    }
}
