//! Desirable configuration sets (§III-C1): Pareto fronts in the
//! (execution time × workspace size) plane.
//!
//! The WD ILP would need `O(|A|^N)` variables if every division were
//! enumerated. Instead, a set-valued variant of the WR dynamic program keeps
//! only the *desirable* configurations — those for which no other
//! configuration is both faster and smaller. The paper proves the ILP
//! optimum never uses an undesirable configuration, so this pruning is
//! lossless (validated by `tests/wd_pruning.rs` against exhaustive search).

use crate::bench_cache::{BenchCache, BenchEntry};
use crate::config::{Configuration, MicroConfig};
use crate::kernel::KernelKey;
use crate::metrics::{OptimizerMetrics, Phase};
use crate::policy::BatchSizePolicy;
use std::sync::Arc;
use std::time::Instant;
use ucudnn_cudnn_sim::CudnnHandle;

/// Prune a set of configurations to its Pareto front: ascending workspace,
/// strictly descending time. Ties on workspace keep the fastest.
pub fn pareto_front(mut configs: Vec<Configuration>) -> Vec<Configuration> {
    retain_front(&mut configs, |c| (c.workspace_bytes(), c.time_us()));
    configs
}

/// Keep the Pareto front of `items` under `key = (workspace, time)`, in
/// place: a stable sort by workspace then time, then a scan that keeps an
/// item only if it is faster than the last one kept by more than 1e-12 µs.
fn retain_front<T>(items: &mut Vec<T>, key: impl Fn(&T) -> (usize, f64)) {
    items.sort_by(|a, b| {
        let ((wa, ta), (wb, tb)) = (key(a), key(b));
        wa.cmp(&wb).then(ta.total_cmp(&tb))
    });
    let mut last: Option<(usize, f64)> = None;
    items.retain(|item| {
        let (w, t) = key(item);
        match last {
            Some((lw, _)) if w == lw => false,
            Some((_, lt)) if t >= lt - 1e-12 => false,
            _ => {
                last = Some((w, t));
                true
            }
        }
    });
}

/// A configuration in the set-valued DP, stored flat: its totals and a
/// back-pointer instead of its micro-configurations.
#[derive(Debug, Clone, Copy)]
struct Partial {
    /// Execution time, summed left to right as [`Configuration::time_us`]
    /// sums it.
    time_us: f64,
    /// Resident workspace, as a position in the kernel's ascending list of
    /// workspace sizes.
    level: usize,
    /// Position of the prefix in the front covering the samples before the
    /// last micro-configuration.
    prefix: usize,
    /// The last micro-configuration, as a position in the flattened
    /// per-size micro fronts.
    micro: usize,
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
    desirable_set_traced(handle, cache, kernel, ws_cap, policy, None).0
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

/// [`desirable_set`] with phase times and degradations recorded into
/// `metrics`, additionally reporting [`DesirableStats`] for plan
/// provenance. A benchmarked size whose `Find` call failed outright
/// contributes no micro-configurations (its points are dropped — one rung
/// down the degradation ladder) instead of aborting the construction. When
/// *every* size fails, the returned set is empty and the WD optimizer
/// substitutes the undivided zero-workspace fallback.
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

    // Benchmark every candidate size. The cap is the benchmark budget:
    // algorithms that cannot fit are never timed.
    let bench_start = Instant::now();
    let entries: Vec<(usize, Arc<[BenchEntry]>)> = sizes
        .iter()
        .map(|&m| {
            let found = cache
                .try_get_or_bench(handle, &kernel.with_batch(m), ws_cap)
                .unwrap_or_else(|_| {
                    if let Some(mx) = metrics {
                        mx.degradation();
                    }
                    Arc::default()
                });
            (m, found)
        })
        .collect();
    if let Some(mx) = metrics {
        mx.add(Phase::Benchmark, bench_start.elapsed().as_micros() as u64);
    }

    let dp_start = Instant::now();
    // Per-size micro-configuration fronts, flattened: for each benchmarked
    // size, the Pareto-optimal (time, workspace) algorithms within the cap,
    // as a range of `micros`.
    let mut micros: Vec<MicroConfig> = Vec::new();
    let mut micro_fronts: Vec<(usize, std::ops::Range<usize>)> = Vec::with_capacity(sizes.len());
    for (m, found) in entries {
        let mut front: Vec<MicroConfig> = found
            .iter()
            .map(|e| MicroConfig {
                micro_batch: m,
                algo: e.algo,
                time_us: e.time_us,
                workspace_bytes: e.memory_bytes,
            })
            .collect();
        retain_front(&mut front, |mc| (mc.workspace_bytes, mc.time_us));
        let start = micros.len();
        micros.extend(front);
        micro_fronts.push((m, start..micros.len()));
    }

    let mut stats = DesirableStats {
        candidate_sizes: sizes.len(),
        sizes_kept: micro_fronts.iter().filter(|(_, f)| !f.is_empty()).count(),
        ..DesirableStats::default()
    };

    // A configuration's workspace is the largest of its micros', so it is
    // one of these levels (0 for the empty configuration).
    let mut levels: Vec<usize> = micros.iter().map(|mc| mc.workspace_bytes).collect();
    levels.push(0);
    levels.sort_unstable();
    levels.dedup();
    let level_of: Vec<usize> = micros
        .iter()
        .map(|mc| levels.partition_point(|&w| w < mc.workspace_bytes))
        .collect();

    // Set-valued DP: fronts[n] = desirable configurations covering n
    // samples. fronts[0] holds the empty configuration, so a single micro
    // is its own candidate.
    let mut fronts: Vec<Vec<Partial>> = vec![Vec::new(); b + 1];
    fronts[0].push(Partial {
        time_us: 0.0,
        level: 0,
        prefix: usize::MAX,
        micro: usize::MAX,
    });
    // Per workspace level, the fastest candidate of the stage.
    let mut fastest: Vec<Option<Partial>> = vec![None; levels.len()];
    for n in 1..=b {
        fastest.fill(None);
        let mut generated = 0;
        for (m, range) in &micro_fronts {
            if *m > n {
                continue;
            }
            for (prefix, p) in fronts[n - m].iter().enumerate() {
                for micro in range.clone() {
                    let c = Partial {
                        time_us: p.time_us + micros[micro].time_us,
                        level: p.level.max(level_of[micro]),
                        prefix,
                        micro,
                    };
                    generated += 1;
                    let slot = &mut fastest[c.level];
                    // The first generated wins a tie, as in a stable sort.
                    if slot.is_none_or(|s| c.time_us.total_cmp(&s.time_us).is_lt()) {
                        *slot = Some(c);
                    }
                }
            }
        }
        if n == b {
            stats.generated = generated;
        }
        // What `pareto_front` keeps of the candidates: by ascending
        // workspace, the fastest of each level if it is strictly faster
        // than the last one kept.
        let mut last: Option<f64> = None;
        for c in fastest.iter().flatten() {
            match last {
                Some(t) if c.time_us >= t - 1e-12 => {}
                _ => {
                    fronts[n].push(*c);
                    last = Some(c.time_us);
                }
            }
        }
    }

    // Materialize the final front only, following the back-pointers.
    let out: Vec<Configuration> = fronts[b]
        .iter()
        .map(|last| {
            let mut config = Configuration::default();
            let (mut n, mut at) = (b, *last);
            while n > 0 {
                let mc = micros[at.micro];
                config.micros.push(mc);
                n -= mc.micro_batch;
                if n > 0 {
                    at = fronts[n][at.prefix];
                }
            }
            config.micros.reverse();
            // Canonical ordering of micros within each configuration.
            config
                .micros
                .sort_by_key(|m| std::cmp::Reverse(m.micro_batch));
            config
        })
        .collect();
    stats.kept = out.len();
    if let Some(mx) = metrics {
        mx.add(Phase::Pareto, dp_start.elapsed().as_micros() as u64);
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

    /// The set-valued DP over whole configurations: every candidate is a
    /// fresh `Configuration`, pruned with [`pareto_front`].
    fn desirable_set_reference(
        h: &CudnnHandle,
        cache: &BenchCache,
        kernel: &KernelKey,
        ws_cap: usize,
        policy: BatchSizePolicy,
    ) -> (Vec<Configuration>, usize) {
        let b = kernel.batch();
        let micro_fronts: Vec<(usize, Vec<MicroConfig>)> = policy
            .candidate_sizes(b)
            .into_iter()
            .map(|m| {
                let singles = cache
                    .try_get_or_bench(h, &kernel.with_batch(m), ws_cap)
                    .unwrap_or_default()
                    .iter()
                    .map(|e| {
                        Configuration::undivided(MicroConfig {
                            micro_batch: m,
                            algo: e.algo,
                            time_us: e.time_us,
                            workspace_bytes: e.memory_bytes,
                        })
                    })
                    .collect();
                let front = pareto_front(singles).into_iter().map(|c| c.micros[0]);
                (m, front.collect())
            })
            .collect();
        let mut fronts: Vec<Vec<Configuration>> = vec![Vec::new(); b + 1];
        fronts[0] = vec![Configuration::default()];
        let mut generated = 0;
        for n in 1..=b {
            let mut candidates = Vec::new();
            for (m, micros) in &micro_fronts {
                if *m > n {
                    continue;
                }
                for prefix in &fronts[n - m] {
                    for mc in micros {
                        candidates.push(prefix.concat(&Configuration::undivided(*mc)));
                    }
                }
            }
            generated = candidates.len();
            fronts[n] = pareto_front(candidates);
        }
        let mut out = std::mem::take(&mut fronts[b]);
        for c in &mut out {
            c.micros.sort_by_key(|m| std::cmp::Reverse(m.micro_batch));
        }
        (out, generated)
    }

    #[test]
    fn flat_dp_builds_the_reference_sets_exactly() {
        // Configurations compare field by field, times as exact f64s, so
        // the flat DP must generate, order and sum as the reference does.
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let kernels = [
            conv2(24),
            conv2(37),
            KernelKey::new(
                ConvOp::BackwardFilter,
                &ConvGeometry::with_square(
                    Shape4::new(32, 192, 13, 13),
                    FilterShape::new(384, 192, 3, 3),
                    1,
                    1,
                ),
            ),
        ];
        for key in &kernels {
            for policy in [
                BatchSizePolicy::All,
                BatchSizePolicy::PowerOfTwo,
                BatchSizePolicy::Undivided,
            ] {
                for cap in [0, 4 * MIB, 64 * MIB, usize::MAX] {
                    let (want, generated) = desirable_set_reference(&h, &cache, key, cap, policy);
                    let (got, stats) = desirable_set_traced(&h, &cache, key, cap, policy, None);
                    assert_eq!(got, want, "{key} {policy:?} cap {cap}");
                    assert_eq!(stats.generated, generated);
                    assert_eq!(stats.kept, want.len());
                }
            }
        }
    }

    #[test]
    fn find_time_is_metered_apart_from_the_dp() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let m = OptimizerMetrics::new();
        desirable_set_traced(
            &h,
            &cache,
            &conv2(64),
            64 * MIB,
            BatchSizePolicy::All,
            Some(&m),
        );
        let t = m.timings();
        assert!(t.benchmark_us > 0, "64 cold Find calls are metered");
        assert!(t.pareto_us > 0, "64 DP stages are metered");
        assert_eq!((t.dp_us, t.ilp_us), (0, 0));
    }
}
