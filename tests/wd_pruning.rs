//! Validation of the paper's Pareto-pruning theorem (§III-C1): solving the
//! WD ILP over the *pruned* desirable sets yields the same optimum as
//! solving it over the *full* configuration space.
//!
//! For small mini-batches we can enumerate every configuration — every
//! multiset of (micro-batch size, algorithm) pairs that tiles the batch —
//! and compare optima.

use std::collections::BTreeMap;
use ucudnn::{desirable_set, BatchSizePolicy, BenchCache, KernelKey};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_lp::{Item, MckInstance};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

const MIB: usize = 1024 * 1024;

fn kernel(n: usize, c: usize, k: usize, r: usize, pad: usize) -> KernelKey {
    let g = ConvGeometry::with_square(
        Shape4::new(n, c, 14, 14),
        FilterShape::new(k, c, r, r),
        pad,
        1,
    );
    KernelKey::new(ConvOp::Forward, &g)
}

/// Every (time, workspace) pair achievable by *any* configuration of the
/// kernel within the cap, deduplicated. Exponential; `b` must be tiny.
fn full_configuration_costs(
    handle: &CudnnHandle,
    cache: &BenchCache,
    key: &KernelKey,
    cap: usize,
) -> Vec<(f64, usize)> {
    let b = key.batch();
    // Per-size menus of (time, ws).
    let menus: Vec<Vec<(f64, usize)>> = (0..=b)
        .map(|m| {
            if m == 0 {
                return Vec::new();
            }
            let micro_key = KernelKey {
                input: key.input.with_batch(m),
                ..*key
            };
            cache
                .get_or_bench(handle, &micro_key)
                .into_iter()
                .filter(|e| e.memory_bytes <= cap)
                .map(|e| (e.time_us, e.memory_bytes))
                .collect()
        })
        .collect();
    // DP over remaining batch accumulating (time, max-ws) pairs, dedup via
    // a map keyed by quantized cost to keep the set finite.
    let mut states: Vec<BTreeMap<(u64, usize), ()>> = vec![BTreeMap::new(); b + 1];
    let mut times: Vec<Vec<(f64, usize)>> = vec![Vec::new(); b + 1];
    times[0].push((0.0, 0));
    states[0].insert((0, 0), ());
    for n in 1..=b {
        let mut acc: Vec<(f64, usize)> = Vec::new();
        for m in 1..=n {
            for &(mt, mw) in &menus[m] {
                for &(pt, pw) in &times[n - m] {
                    acc.push((pt + mt, pw.max(mw)));
                }
            }
        }
        // Dedup exact duplicates to bound growth (no Pareto pruning!).
        let mut seen = BTreeMap::new();
        for (t, w) in acc {
            seen.entry(((t * 1e6) as u64, w)).or_insert((t, w));
        }
        times[n] = seen.into_values().collect();
    }
    times[b].clone()
}

#[test]
fn pruned_ilp_matches_full_space_ilp() {
    let handle = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    // Three small kernels with different algorithm menus: a 5×5 (FFT
    // territory), a 3×3 (Winograd territory) and a 1×1 (GEMM only wins).
    let kernels = [
        kernel(4, 16, 32, 5, 2),
        kernel(4, 32, 32, 3, 1),
        kernel(4, 64, 16, 1, 0),
    ];
    for cap_mib in [1usize, 4, 16, 64] {
        let cap = cap_mib * MIB;
        // Pruned path: the production desirable sets.
        let pruned_groups: Vec<Vec<Item>> = kernels
            .iter()
            .map(|k| {
                desirable_set(&handle, &cache, k, cap, BatchSizePolicy::All)
                    .iter()
                    .map(|c| Item {
                        cost: c.time_us(),
                        weight: c.workspace_bytes() as f64,
                    })
                    .collect()
            })
            .collect();
        // Full path: every configuration.
        let full_groups: Vec<Vec<Item>> = kernels
            .iter()
            .map(|k| {
                full_configuration_costs(&handle, &cache, k, cap)
                    .into_iter()
                    .map(|(t, w)| Item {
                        cost: t,
                        weight: w as f64,
                    })
                    .collect()
            })
            .collect();
        let sizes: Vec<usize> = full_groups.iter().map(Vec::len).collect();
        let pruned_sizes: Vec<usize> = pruned_groups.iter().map(Vec::len).collect();
        assert!(
            pruned_sizes.iter().zip(&sizes).all(|(p, f)| p <= f),
            "pruning must not grow the sets"
        );

        let budget = (cap / 2) as f64; // a binding global budget
        let pruned = MckInstance {
            groups: pruned_groups,
            capacity: budget,
        }
        .solve()
        .map(|s| s.cost);
        let full = MckInstance {
            groups: full_groups,
            capacity: budget,
        }
        .solve()
        .map(|s| s.cost);
        match (pruned, full) {
            (Some(p), Some(f)) => assert!(
                (p - f).abs() <= 1e-6 * f.max(1.0),
                "cap {cap_mib} MiB: pruned optimum {p} != full optimum {f}"
            ),
            (None, None) => {}
            other => panic!("feasibility mismatch at cap {cap_mib} MiB: {other:?}"),
        }
    }
}

#[test]
fn desirable_set_is_a_subset_of_the_full_space() {
    // Every pruned configuration's (time, ws) must be achievable in the
    // full enumeration (no fabricated points).
    let handle = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    let key = kernel(4, 16, 32, 5, 2);
    let cap = 32 * MIB;
    let full = full_configuration_costs(&handle, &cache, &key, cap);
    let pruned = desirable_set(&handle, &cache, &key, cap, BatchSizePolicy::All);
    for c in &pruned {
        let found = full.iter().any(|&(t, w)| {
            (t - c.time_us()).abs() <= 1e-6 * t.max(1.0) && w == c.workspace_bytes()
        });
        assert!(found, "pruned config {c} not found in the full space");
    }
}

#[test]
fn no_pruned_configuration_is_dominated() {
    // The definitional property of the desirable set: no member is both
    // slower and at least as large as another member of the full space.
    let handle = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    let key = kernel(4, 32, 32, 3, 1);
    let cap = 16 * MIB;
    let full = full_configuration_costs(&handle, &cache, &key, cap);
    let pruned = desirable_set(&handle, &cache, &key, cap, BatchSizePolicy::All);
    for c in &pruned {
        let dominated = full
            .iter()
            .any(|&(t, w)| t < c.time_us() - 1e-6 && w < c.workspace_bytes());
        assert!(!dominated, "{c} is dominated by a full-space configuration");
    }
}
