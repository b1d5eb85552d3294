//! Ablation: what the Pareto pruning of §III-C1 buys.
//!
//! Compares the WD ILP built from pruned desirable sets against the ILP
//! built from the full configuration space (every achievable (time, ws)
//! pair) on a small mini-batch where the full space is enumerable — the
//! exponential blow-up the paper's pruning avoids.

use std::collections::BTreeMap;
use ucudnn::{desirable_set, BatchSizePolicy, BenchCache, KernelKey};
use ucudnn_bench::{print_table, write_csv, MIB};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_lp::{Item, MckInstance};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

fn kernel(n: usize, c: usize, k: usize, r: usize, pad: usize) -> KernelKey {
    let g = ConvGeometry::with_square(
        Shape4::new(n, c, 14, 14),
        FilterShape::new(k, c, r, r),
        pad,
        1,
    );
    KernelKey::new(ConvOp::Forward, &g)
}

/// Full configuration space: exact-duplicate dedup only, no Pareto pruning.
fn full_costs(
    handle: &CudnnHandle,
    cache: &BenchCache,
    key: &KernelKey,
    cap: usize,
) -> Vec<(f64, usize)> {
    let b = key.batch();
    let menus: Vec<Vec<(f64, usize)>> = (0..=b)
        .map(|m| {
            if m == 0 {
                return Vec::new();
            }
            let micro = KernelKey {
                input: key.input.with_batch(m),
                ..*key
            };
            cache
                .get_or_bench(handle, &micro)
                .into_iter()
                .filter(|e| e.memory_bytes <= cap)
                .map(|e| (e.time_us, e.memory_bytes))
                .collect()
        })
        .collect();
    let mut states: Vec<Vec<(f64, usize)>> = vec![Vec::new(); b + 1];
    states[0].push((0.0, 0));
    for n in 1..=b {
        let mut seen = BTreeMap::new();
        for m in 1..=n {
            for &(mt, mw) in &menus[m] {
                for &(pt, pw) in &states[n - m] {
                    let (t, w) = (pt + mt, pw.max(mw));
                    seen.entry(((t * 1e6) as u64, w)).or_insert((t, w));
                }
            }
        }
        states[n] = seen.into_values().collect();
    }
    states[b].clone()
}

fn main() {
    let handle = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for batch in [4usize, 6, 8] {
        let kernels = [
            kernel(batch, 16, 32, 5, 2),
            kernel(batch, 32, 32, 3, 1),
            kernel(batch, 64, 16, 1, 0),
        ];
        let cap = 16 * MIB;
        let budget = (cap / 2) as f64;

        // Pruned path.
        let start = std::time::Instant::now();
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
        let pruned_vars: usize = pruned_groups.iter().map(Vec::len).sum();
        let pruned_opt = MckInstance {
            groups: pruned_groups,
            capacity: budget,
        }
        .solve()
        .map(|s| s.cost);
        let pruned_us = start.elapsed().as_secs_f64() * 1e6;

        // Full path.
        let start = std::time::Instant::now();
        let full_groups: Vec<Vec<Item>> = kernels
            .iter()
            .map(|k| {
                full_costs(&handle, &cache, k, cap)
                    .into_iter()
                    .map(|(t, w)| Item {
                        cost: t,
                        weight: w as f64,
                    })
                    .collect()
            })
            .collect();
        let full_vars: usize = full_groups.iter().map(Vec::len).sum();
        let full_opt = MckInstance {
            groups: full_groups,
            capacity: budget,
        }
        .solve()
        .map(|s| s.cost);
        let full_us = start.elapsed().as_secs_f64() * 1e6;

        let same = match (pruned_opt, full_opt) {
            (Some(p), Some(f)) => (p - f).abs() <= 1e-6 * f.max(1.0),
            (None, None) => true,
            _ => false,
        };
        rows.push(vec![
            batch.to_string(),
            pruned_vars.to_string(),
            full_vars.to_string(),
            format!("{:.2}", pruned_us / 1000.0),
            format!("{:.2}", full_us / 1000.0),
            if same { "yes".into() } else { "NO".into() },
        ]);
        csv.push(vec![
            batch.to_string(),
            pruned_vars.to_string(),
            full_vars.to_string(),
            format!("{pruned_us}"),
            format!("{full_us}"),
            same.to_string(),
        ]);
        assert!(same, "pruning changed the optimum — theorem violated");
    }
    print_table(
        "Ablation — Pareto pruning vs full configuration enumeration (3 kernels, 16 MiB cap)",
        &[
            "batch",
            "pruned vars",
            "full vars",
            "pruned (ms)",
            "full (ms)",
            "same optimum",
        ],
        &rows,
    );
    write_csv(
        "ablation_pruning.csv",
        &[
            "batch",
            "pruned_vars",
            "full_vars",
            "pruned_us",
            "full_us",
            "same_optimum",
        ],
        &csv,
    );
    println!("\nPruning never changes the optimum (the §III-C1 proof) while shrinking the ILP.");
}
