//! Budgeted benchmarking changes what the tuner times, never what it plans.
//!
//! Every benchmark lookup carries the workspace limit its optimizer filters
//! by, and the substrate never times an algorithm above it. On the
//! simulated engine, WR and WD plans and serving latency tables built from
//! such lookups must equal the ones built from a cache that benchmarked
//! every algorithm up front with unbudgeted `get_or_bench` — across limits
//! that widen the same cache entries.

use ucudnn::{
    forward_latency_table, optimize_wd_weighted, optimize_wr, BatchSizePolicy, BenchCache,
    KernelKey,
};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_framework::{alexnet, densenet40, resnet50, NetworkDef};
use ucudnn_gpu_model::p100_sxm2;

const MIB: usize = 1024 * 1024;
const POLICY: BatchSizePolicy = BatchSizePolicy::PowerOfTwo;
/// Limits in ascending order, so later ones widen earlier entries.
const LIMITS: [usize; 3] = [0, 512 << 10, 64 * MIB];

/// Every conv kernel of `net` with its multiplicity, in registration order.
fn weighted_kernels(net: &NetworkDef) -> Vec<(KernelKey, usize)> {
    let mut counts: Vec<(KernelKey, usize)> = Vec::new();
    for id in net.conv_layers() {
        let g = net.conv_geometry(id);
        let mut ops = vec![ConvOp::Forward];
        if net.needs_backward_data(id) {
            ops.push(ConvOp::BackwardData);
        }
        ops.push(ConvOp::BackwardFilter);
        for op in ops {
            let k = KernelKey::new(op, &g);
            match counts.iter_mut().find(|(kk, _)| *kk == k) {
                Some((_, c)) => *c += 1,
                None => counts.push((k, 1)),
            }
        }
    }
    counts
}

/// A cache holding every algorithm of every candidate micro-batch of
/// `kernels` up to `max_batch`, benchmarked without a budget.
fn prefilled(h: &CudnnHandle, kernels: &[KernelKey], max_batch: usize) -> BenchCache {
    let cache = BenchCache::new();
    for k in kernels {
        for m in POLICY.candidate_sizes(max_batch) {
            cache.get_or_bench(h, &k.with_batch(m));
        }
    }
    cache
}

#[test]
fn wr_and_wd_plans_match_an_unbudgeted_cache() {
    let h = CudnnHandle::simulated(p100_sxm2());
    for net in [alexnet(32), resnet50(16), densenet40(16, 12)] {
        let weighted = weighted_kernels(&net);
        let kernels: Vec<KernelKey> = weighted.iter().map(|(k, _)| *k).collect();
        let full = prefilled(&h, &kernels, net.batch());
        let budgeted = BenchCache::new();
        for limit in LIMITS {
            for k in &kernels {
                let got = optimize_wr(&h, &budgeted, k, limit, POLICY, false).unwrap();
                let want = optimize_wr(&h, &full, k, limit, POLICY, false).unwrap();
                assert_eq!(got.config, want.config, "WR {k} within {limit}");
                assert_eq!(got.per_size, want.per_size, "WR {k} within {limit}");
            }
            let got = optimize_wd_weighted(&h, &budgeted, &weighted, limit, POLICY).unwrap();
            let want = optimize_wd_weighted(&h, &full, &weighted, limit, POLICY).unwrap();
            assert_eq!(got.total_workspace_bytes, want.total_workspace_bytes);
            for (a, b) in got.assignments.iter().zip(&want.assignments) {
                assert_eq!(
                    (a.kernel, &a.config, a.offset_bytes),
                    (b.kernel, &b.config, b.offset_bytes),
                    "WD within {limit}"
                );
            }
        }
        let stats = budgeted.stats();
        assert!(
            stats.bench_points_over_budget > 0,
            "the limits skipped algorithms"
        );
        assert_eq!(stats.bench_points_dropped, 0);
    }
}

#[test]
fn serving_tables_and_fleet_candidates_match_an_unbudgeted_cache() {
    let h = CudnnHandle::simulated(p100_sxm2());
    let max_batch = 32;
    let kernels: Vec<KernelKey> = weighted_kernels(&alexnet(max_batch))
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.conv_op() == ConvOp::Forward)
        .collect();
    let full = prefilled(&h, &kernels, max_batch);
    let budgeted = BenchCache::new();
    for limit in LIMITS {
        assert_eq!(
            forward_latency_table(&h, &budgeted, &kernels, POLICY, max_batch, limit),
            forward_latency_table(&h, &full, &kernels, POLICY, max_batch, limit),
            "latency table within {limit}"
        );
    }
    assert!(
        budgeted.stats().bench_points_over_budget > 0,
        "the limits skipped algorithms"
    );
}
