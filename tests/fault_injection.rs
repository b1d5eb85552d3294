//! End-to-end fault injection and graceful degradation.
//!
//! The contract under test: injected substrate faults — failed benchmarks,
//! execution failures, refused allocations — never kill whole-network
//! optimization. The optimizer drops what it cannot measure, falls back
//! toward the undivided zero-workspace configuration, shrinks workspaces it
//! cannot allocate, and reports every concession through
//! [`UcudnnHandle::metrics_json`]'s `robustness` section.

use ucudnn::{
    forward_latency_table, BatchSizePolicy, BenchCache, KernelKey, OptimizerMode, UcudnnHandle,
    UcudnnOptions,
};
use ucudnn_cudnn_sim::{
    workspace_bytes_on, ConvOp, ConvolutionDescriptor, CudnnHandle, Engine, FaultPlan, FaultSite,
    FaultTarget, FilterDescriptor, TensorDescriptor,
};
use ucudnn_framework::{alexnet, setup_network};
use ucudnn_gpu_model::{p100_sxm2, ConvAlgo};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

const MIB: usize = 1024 * 1024;

/// The workspace-hungry fast algorithms (§II): the ones worth faulting.
const FAST_ALGOS: [ConvAlgo; 4] = [
    ConvAlgo::Fft,
    ConvAlgo::FftTiling,
    ConvAlgo::Winograd,
    ConvAlgo::WinogradNonfused,
];

/// A plan that faults every benchmark matching `targets`.
fn benchmarks_faulted(targets: impl IntoIterator<Item = FaultTarget>) -> FaultPlan {
    FaultPlan {
        targets: targets
            .into_iter()
            .map(|t| FaultTarget {
                site: Some(FaultSite::Benchmark),
                ..t
            })
            .collect(),
        ..FaultPlan::default()
    }
}

/// Fault every FFT/Winograd benchmark.
fn all_fast_benchmarks_faulted() -> FaultPlan {
    benchmarks_faulted(FAST_ALGOS.map(FaultTarget::algo))
}

fn handle_with(plan: FaultPlan, mode: OptimizerMode, threads: usize) -> UcudnnHandle {
    UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()).with_faults(plan),
        UcudnnOptions {
            policy: BatchSizePolicy::PowerOfTwo,
            workspace_limit_bytes: 64 * MIB,
            mode,
            opt_threads: threads,
            ..Default::default()
        },
    )
}

/// Pull a counter out of the metrics JSON without a JSON parser dependency
/// in the test crate: finds `"name":<digits>`.
fn json_counter(json: &str, name: &str) -> u64 {
    let tag = format!("\"{name}\":");
    let at = json.find(&tag).unwrap_or_else(|| panic!("{tag} in {json}")) + tag.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter is an integer")
}

#[test]
fn alexnet_with_every_fast_benchmark_faulted_still_optimizes() {
    // The ISSUE acceptance scenario: every FFT/Winograd benchmark fails,
    // yet whole-network optimization returns a plan under both optimizers.
    for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
        let h = handle_with(all_fast_benchmarks_faulted(), mode, 4);
        setup_network(&h, &alexnet(256)).unwrap_or_else(|e| panic!("{mode:?} died: {e}"));
        let plans = h.memory_report();
        assert!(!plans.is_empty(), "{mode:?} must still produce plans");
        for (kernel, config, _) in &plans {
            for m in &config.micros {
                assert!(
                    !FAST_ALGOS.contains(&m.algo),
                    "{mode:?} planned faulted algorithm {} for {kernel}",
                    m.algo
                );
            }
        }
        assert!(h.inner().faults_injected() > 0, "faults must have fired");
        let json = h.metrics_json();
        assert!(
            json_counter(&json, "degradations") > 0,
            "{mode:?} metrics must report degradations: {json}"
        );
        assert_eq!(
            json_counter(&json, "faults_injected"),
            h.inner().faults_injected(),
            "metrics and handle must agree on the fault count"
        );
    }
}

#[test]
fn fault_free_runs_report_zero_degradations() {
    let h = handle_with(FaultPlan::default(), OptimizerMode::Wr, 1);
    setup_network(&h, &alexnet(256)).unwrap();
    let json = h.metrics_json();
    assert_eq!(json_counter(&json, "degradations"), 0);
    assert_eq!(json_counter(&json, "faults_injected"), 0);
    assert_eq!(json_counter(&json, "db_rows_quarantined"), 0);
}

#[test]
fn algorithms_over_budget_are_neither_degradations_nor_retried() {
    // Skipping an algorithm over the limit is not a failure, so the tuner
    // does not degrade — it only counts the points it never timed.
    let plan = FaultPlan::default();
    for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
        let h = handle_with(plan.clone(), mode, 1);
        setup_network(&h, &alexnet(256)).unwrap();
        let json = h.metrics_json();
        assert_eq!(json_counter(&json, "degradations"), 0, "{mode:?}: {json}");
        assert!(
            json_counter(&json, "bench_points_over_budget") > 0,
            "{mode:?}: 64 MiB must exclude some algorithms: {json}"
        );
    }
}

#[test]
fn real_cpu_tuning_never_runs_an_algorithm_over_the_limit() {
    // Every Winograd execution fails, but the WR limit sits below both
    // tiles' workspaces at every candidate micro-batch: the budgeted Find
    // never attempts Winograd, so tuning injects no fault at all.
    let g = ConvGeometry::with_square(
        Shape4::new(8, 8, 16, 16),
        FilterShape::new(8, 8, 3, 3),
        1,
        1,
    );
    let winograd = [ConvAlgo::Winograd, ConvAlgo::WinogradNonfused];
    let limit = BatchSizePolicy::PowerOfTwo
        .candidate_sizes(8)
        .into_iter()
        .flat_map(|m| {
            winograd.map(|algo| {
                workspace_bytes_on(&Engine::RealCpu, algo, ConvOp::Forward, &g.with_batch(m))
                    .expect("Winograd runs this geometry")
            })
        })
        .min()
        .unwrap()
        - 1;
    let h = UcudnnHandle::new(
        CudnnHandle::real_cpu().with_faults(FaultPlan {
            targets: winograd.map(FaultTarget::algo).to_vec(),
            ..FaultPlan::default()
        }),
        UcudnnOptions {
            policy: BatchSizePolicy::PowerOfTwo,
            workspace_limit_bytes: limit,
            mode: OptimizerMode::Wr,
            opt_threads: 1,
            ..Default::default()
        },
    );
    let x = TensorDescriptor::from_shape(g.input).unwrap();
    let w = FilterDescriptor::from_shape(g.filter).unwrap();
    let conv = ConvolutionDescriptor::new_2d(1, 1, 1, 1).unwrap();
    h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    assert_eq!(h.inner().faults_injected(), 0);
    let json = h.metrics_json();
    assert_eq!(json_counter(&json, "degradations"), 0, "{json}");
    assert!(
        json_counter(&json, "bench_points_over_budget") > 0,
        "{json}"
    );
}

#[test]
fn faulted_plans_are_identical_across_thread_counts() {
    // Fault verdicts are pure functions of the fault key, so the
    // plan-determinism guarantee must survive injection: 1, 2, and 8
    // worker threads see identical failures and build identical plans.
    let plans_at = |mode: OptimizerMode, threads: usize| {
        let mut plan = all_fast_benchmarks_faulted();
        plan.exec_rate = 0.05;
        plan.seed = 7;
        let h = handle_with(plan, mode, threads);
        setup_network(&h, &alexnet(256)).unwrap();
        h.memory_report()
    };
    for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
        let seq = plans_at(mode, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                plans_at(mode, threads),
                seq,
                "{mode:?} plans with {threads} threads diverged under faults"
            );
        }
    }
}

/// AlexNet conv2-shaped descriptors (the layer that splits under 64 MiB).
fn conv2() -> (
    TensorDescriptor,
    FilterDescriptor,
    ConvolutionDescriptor,
    TensorDescriptor,
) {
    let x = TensorDescriptor::new_4d(256, 64, 27, 27).unwrap();
    let w = FilterDescriptor::new_4d(192, 64, 5, 5).unwrap();
    let conv = ConvolutionDescriptor::new_2d(2, 2, 1, 1).unwrap();
    let y = TensorDescriptor::from_shape(conv.forward_output_dim(&x, &w).unwrap()).unwrap();
    (x, w, conv, y)
}

#[test]
fn permanent_execution_faults_surface_as_errors() {
    // A faulted kernel launch is an error; swallowing it would mean
    // silently skipping kernel launches.
    let h = handle_with(
        FaultPlan {
            targets: vec![FaultTarget {
                site: Some(FaultSite::Execution),
                ..FaultTarget::any()
            }],
            ..FaultPlan::default()
        },
        OptimizerMode::Wr,
        1,
    );
    let (x, w, conv, y) = conv2();
    let algo = h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    let err = h
        .convolution_forward(1.0, &x, &[], &w, &[], &conv, algo, 0.0, &y, &mut [])
        .unwrap_err();
    assert!(
        err.to_string().contains("injected fault"),
        "the substrate failure must propagate: {err}"
    );
}

#[test]
fn allocation_faults_shrink_wr_workspaces_until_they_fit() {
    // Allocations above 1 MiB fail. Per-kernel WR plans must land at or
    // below the threshold — large algorithms are refused at benchmark time
    // and any oversized arena triggers shrink-and-reoptimize.
    let h = handle_with(
        FaultPlan {
            alloc_fail_above: Some(MIB),
            ..FaultPlan::default()
        },
        OptimizerMode::Wr,
        2,
    );
    setup_network(&h, &alexnet(256)).unwrap();
    let plans = h.memory_report();
    assert!(!plans.is_empty());
    for (kernel, _, bytes) in &plans {
        assert!(
            *bytes <= MIB,
            "{kernel} workspace {bytes} exceeds the allocatable 1 MiB"
        );
    }
    let json = h.metrics_json();
    assert!(
        json_counter(&json, "degradations") > 0,
        "shrinking is a degradation: {json}"
    );
}

#[test]
fn allocation_faults_shrink_the_wd_global_workspace() {
    let h = handle_with(
        FaultPlan {
            alloc_fail_above: Some(MIB),
            ..FaultPlan::default()
        },
        OptimizerMode::Wd,
        2,
    );
    setup_network(&h, &alexnet(256)).unwrap();
    let plan = h.wd_plan().expect("WD ran at setup");
    assert!(
        plan.total_workspace_bytes <= MIB,
        "WD workspace {} exceeds the allocatable 1 MiB",
        plan.total_workspace_bytes
    );
    assert!(json_counter(&h.metrics_json(), "degradations") > 0);
}

// ---------------------------------------------------------------------------
// Fault × serving table (DESIGN §9): the latency table a server plans from
// at start degrades to the surviving algorithms when the fast benchmarks
// fault, and still covers every micro-batch size.

/// conv2-shaped kernel key for the serving table.
fn conv2_key() -> KernelKey {
    let g = ConvGeometry::with_square(
        Shape4::new(32, 64, 27, 27),
        FilterShape::new(192, 64, 5, 5),
        2,
        1,
    );
    KernelKey::new(ConvOp::Forward, &g)
}

#[test]
fn a_serving_table_with_fast_algorithm_faults_degrades_to_a_fallback_table() {
    // Every FFT/Winograd benchmark fails: the table must climb down the §9
    // ladder to the surviving algorithms and still cover every size the
    // healthy table covers.
    let kernels = [conv2_key()];
    let table = |handle: &CudnnHandle| {
        forward_latency_table(
            handle,
            &BenchCache::new(),
            &kernels,
            BatchSizePolicy::PowerOfTwo,
            32,
            512 << 20,
        )
    };
    let healthy = table(&CudnnHandle::simulated(p100_sxm2()));
    assert!(!healthy.is_empty());

    let faulted = CudnnHandle::simulated(p100_sxm2()).with_faults(all_fast_benchmarks_faulted());
    let degraded = table(&faulted);
    assert_eq!(
        degraded.iter().map(|&(m, _)| m).collect::<Vec<_>>(),
        healthy.iter().map(|&(m, _)| m).collect::<Vec<_>>(),
        "the degraded table must cover the same micro-batch sizes"
    );
    assert!(faulted.faults_injected() > 0, "faults must have fired");
}
