//! Ablation: the WD solvers on the same multiple-choice knapsacks — the
//! production branch and bound (`MckInstance::solve`), the simplex branch
//! and bound on the paper's 0-1 ILP (the GLPK stand-in of DESIGN.md §2,
//! now the formulation oracle), and exhaustive enumeration where the search
//! space is small.
//!
//! Rows: the first 2–5 forward kernels of AlexNet (N=32, powerOfTwo);
//! Fig. 13's six WD points (AlexNet N=256 `all`, ResNet-50 N=32
//! `powerOfTwo`); the Fig. 14 instance (AlexNet N=256, `all`, 120 MiB);
//! AlexNet N=256 at 960 MiB (`powerOfTwo`), where two identical F/BD groups
//! tie; and `plan_wd`'s DenseNet-40 (k=40, batch 64, `all`, 128 MiB). The
//! program exits non-zero when any solver's optimum or choice differs from
//! the production one's.

use ucudnn::{desirable_set, BatchSizePolicy, BenchCache, KernelKey};
use ucudnn_bench::{print_table, write_csv, MIB};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_framework::{alexnet, densenet40, resnet50, NetworkDef};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_lp::{solve_binary, IlpStatus, Item, MckInstance};

/// Enumerate exhaustively only below this many assignments.
const EXHAUSTIVE_MAX: f64 = 1e6;

/// The kernels `setup_network` registers for `net`, in registration order,
/// with identical shapes folded into one group and a multiplicity, as the
/// transparent handle folds them.
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

/// The WD knapsack: one group per kernel, one item per desirable
/// configuration, costs weighted by multiplicity (as `optimize_wd` builds
/// it).
fn wd_instance(
    kernels: &[(KernelKey, usize)],
    cap: usize,
    capacity: usize,
    policy: BatchSizePolicy,
) -> MckInstance {
    let handle = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    let groups = kernels
        .iter()
        .map(|(k, mult)| {
            desirable_set(&handle, &cache, k, cap, policy)
                .iter()
                .map(|c| Item {
                    cost: *mult as f64 * c.time_us(),
                    weight: c.workspace_bytes() as f64,
                })
                .collect()
        })
        .collect();
    MckInstance {
        groups,
        capacity: capacity as f64,
    }
}

/// Run `f` and return its result with the wall time in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

fn main() {
    let mut cases: Vec<(String, MckInstance)> = Vec::new();
    let small = alexnet(32);
    for num_kernels in [2usize, 3, 4, 5] {
        let kernels: Vec<(KernelKey, usize)> = small
            .conv_layers()
            .into_iter()
            .take(num_kernels)
            .map(|id| (KernelKey::new(ConvOp::Forward, &small.conv_geometry(id)), 1))
            .collect();
        cases.push((
            format!("AlexNet N=32 F x{num_kernels}"),
            wd_instance(&kernels, 32 * MIB, 48 * MIB, BatchSizePolicy::PowerOfTwo),
        ));
    }
    // Fig. 13 divides 8, 64 and 512 MiB per registered kernel.
    for (net, policy) in [
        (alexnet(256), BatchSizePolicy::All),
        (resnet50(32), BatchSizePolicy::PowerOfTwo),
    ] {
        let kernels = weighted_kernels(&net);
        let registered: usize = kernels.iter().map(|(_, m)| m).sum();
        for per_kernel in [8, 64, 512] {
            let total = per_kernel * registered * MIB;
            cases.push((
                format!("Fig. 13 {} {} {} MiB", net.name, policy.name(), total / MIB),
                wd_instance(&kernels, total, total, policy),
            ));
        }
    }
    let big = weighted_kernels(&alexnet(256));
    cases.push((
        "Fig. 14 AlexNet all 120 MiB".into(),
        wd_instance(&big, 120 * MIB, 120 * MIB, BatchSizePolicy::All),
    ));
    cases.push((
        "AlexNet powerOfTwo 960 MiB".into(),
        wd_instance(&big, 960 * MIB, 960 * MIB, BatchSizePolicy::PowerOfTwo),
    ));
    let dense = weighted_kernels(&densenet40(64, 40));
    cases.push((
        "DenseNet-40 k=40 all 128 MiB".into(),
        wd_instance(&dense, 128 * MIB, 128 * MIB, BatchSizePolicy::All),
    ));

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut mismatches = Vec::new();
    for (name, inst) in &cases {
        let vars: usize = inst.groups.iter().map(Vec::len).sum();
        let space: f64 = inst.groups.iter().map(|g| g.len() as f64).product();
        let (mck, mck_us) = timed(|| inst.solve());
        let mck = mck.expect("every instance is feasible");
        let (ilp, ilp_us) = timed(|| solve_binary(&inst.to_ilp()));
        if ilp.status != IlpStatus::Optimal {
            mismatches.push(format!("{name}: the simplex found no optimum"));
        } else {
            let choices = inst.choices_from(&ilp.x);
            if (ilp.objective - mck.cost).abs() > 1e-6 * mck.cost.abs().max(1.0) {
                mismatches.push(format!(
                    "{name}: simplex optimum {} vs {}",
                    ilp.objective, mck.cost
                ));
            }
            if choices != mck.choices {
                mismatches.push(format!(
                    "{name}: simplex choices {choices:?} vs {:?}",
                    mck.choices
                ));
            }
        }
        let exhaustive_us = (space <= EXHAUSTIVE_MAX).then(|| {
            let (ex, us) = timed(|| inst.solve_exhaustive());
            if ex.as_ref().map(|e| (&e.choices, e.cost)) != Some((&mck.choices, mck.cost)) {
                mismatches.push(format!("{name}: exhaustive {ex:?} vs {:?}", mck.choices));
            }
            us
        });
        rows.push(vec![
            name.clone(),
            inst.groups.len().to_string(),
            vars.to_string(),
            if space < EXHAUSTIVE_MAX {
                format!("{space}")
            } else {
                format!("{space:.2e}")
            },
            format!("{:.3}", ilp_us / 1000.0),
            ilp.nodes.to_string(),
            format!("{:.3}", mck_us / 1000.0),
            mck.nodes.to_string(),
            exhaustive_us.map_or("-".into(), |us| format!("{:.3}", us / 1000.0)),
            format!("{:.2}", mck.cost / 1000.0),
        ]);
        csv.push(vec![
            name.clone(),
            inst.groups.len().to_string(),
            vars.to_string(),
            format!("{space}"),
            format!("{ilp_us}"),
            ilp.nodes.to_string(),
            format!("{mck_us}"),
            mck.nodes.to_string(),
            exhaustive_us.map_or(String::new(), |us| format!("{us}")),
            format!("{}", mck.cost),
        ]);
    }
    print_table(
        "Ablation — WD solvers: simplex B&B vs multiple-choice-knapsack B&B vs exhaustive",
        &[
            "instance",
            "groups",
            "0-1 vars",
            "search space",
            "simplex (ms)",
            "nodes",
            "MCK (ms)",
            "nodes",
            "exhaustive (ms)",
            "optimum (ms)",
        ],
        &rows,
    );
    write_csv(
        "ablation_ilp.csv",
        &[
            "instance",
            "groups",
            "vars",
            "space",
            "simplex_us",
            "simplex_nodes",
            "mck_us",
            "mck_nodes",
            "exhaustive_us",
            "optimum_us",
        ],
        &csv,
    );
    if !mismatches.is_empty() {
        eprintln!("\nsolver mismatch:\n{}", mismatches.join("\n"));
        std::process::exit(1);
    }
    println!("\nAll solvers agree on every optimum and every choice.");
}
