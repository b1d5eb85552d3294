//! Golden digests of two WD plans built through the transparent handle.
//!
//! Each plan is rendered one kernel per line as `kernel configuration
//! @offset`, followed by `total <bytes>`, and pinned as `(assignments,
//! FNV-1a-64 over the text)`. The simulated P100 makes both plans pure
//! functions of their options, so the digests are the same on every machine
//! and in debug and release builds. A change to the desirable-set DP, the
//! knapsack solver or its tie rule that moves any kernel's configuration or
//! segment shows up here.
//!
//! - DenseNet-40 (k = 40, batch 64, `all`, 128 MiB) is the `plan_wd`
//!   workload of `e2ebench`; its digest is the plan fingerprint that the
//!   workload prints in its run log.
//! - AlexNet (N = 256, `powerOfTwo`, 960 MiB) has two F/BD groups with
//!   identical costs, so the budget can favour either; the pinned plan
//!   fixes which one gets the larger workspace.
//! - AlexNet (N = 256, `all`, 896 MiB) is Fig. 13's 64 MiB-per-kernel WD
//!   point, another instance with tied optima.

use ucudnn::{BatchSizePolicy, OptimizerMode, UcudnnHandle, UcudnnOptions, WdPlan};
use ucudnn_cudnn_sim::CudnnHandle;
use ucudnn_framework::{alexnet, densenet40, setup_network, NetworkDef};
use ucudnn_gpu_model::p100_sxm2;

const MIB: usize = 1024 * 1024;

/// Plan `net` cold under WD on the simulated P100.
fn wd_plan(net: &NetworkDef, policy: BatchSizePolicy, budget: usize) -> WdPlan {
    let handle = UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()),
        UcudnnOptions {
            policy,
            workspace_limit_bytes: budget,
            mode: OptimizerMode::Wd,
            cache_file: None,
            parallel_benchmark: false,
            opt_threads: 1,
        },
    );
    setup_network(&handle, net).expect("WD set-up succeeds");
    handle.wd_plan().expect("set-up leaves a WD plan")
}

/// The plan text: kernel, configuration and offset per assignment, then
/// the total.
fn plan_text(plan: &WdPlan) -> String {
    let mut text: String = plan
        .assignments
        .iter()
        .map(|a| format!("{} {} @{}\n", a.kernel, a.config.describe(), a.offset_bytes))
        .collect();
    text.push_str(&format!("total {}\n", plan.total_workspace_bytes));
    text
}

/// FNV-1a-64 over the bytes of `text`.
fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(name: &str, plan: &WdPlan, assignments: usize, hash: u64) {
    let text = plan_text(plan);
    let got = (plan.assignments.len(), digest(&text));
    assert_eq!(
        got,
        (assignments, hash),
        "{name}: got ({}, {:#018x}), pinned ({assignments}, {hash:#018x}); plan:\n{text}",
        got.0,
        got.1
    );
}

#[test]
fn densenet40_plan_wd_workload() {
    let plan = wd_plan(&densenet40(64, 40), BatchSizePolicy::All, 128 * MIB);
    check("densenet40", &plan, 116, 0xf721_05cc_c543_b8c4);
}

#[test]
fn alexnet_tied_groups() {
    let plan = wd_plan(&alexnet(256), BatchSizePolicy::PowerOfTwo, 960 * MIB);
    check("alexnet", &plan, 14, 0x533d_ec7b_6fe2_f0ae);
}

#[test]
fn alexnet_fig13_all_896_mib() {
    let plan = wd_plan(&alexnet(256), BatchSizePolicy::All, 896 * MIB);
    check("alexnet_all", &plan, 14, 0xd810_680f_316f_e1ed);
}
