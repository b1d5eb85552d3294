//! Ablation: kernel-launch overhead sensitivity.
//!
//! Micro-batching trades algorithmic speed for extra kernel launches and
//! redundant filter transforms. This sweep varies the modeled per-launch
//! overhead and reports the WR optimizer's chosen division and its speedup —
//! showing where fine division stops paying (the design constraint the DP
//! navigates implicitly).
//!
//! Two host-side overheads follow, timed on the wall clock: an active trace
//! session on the WR optimizer, and the wrapper's dispatch, a DenseNet-40
//! WD replay through `UcudnnHandle::convolution` against the bare substrate
//! launches of the same micro-batches.

use std::time::Instant;
use ucudnn::{
    optimize_wr, BatchSizePolicy, BenchCache, KernelKey, OptimizerMode, UcudnnHandle, UcudnnOptions,
};
use ucudnn_bench::{print_table, write_csv, MIB};
use ucudnn_cudnn_sim::{ConvAlgo, ConvOp, CudnnHandle};
use ucudnn_framework::{densenet40, setup_network};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

fn main() {
    let g = ConvGeometry::with_square(
        Shape4::new(256, 64, 27, 27),
        FilterShape::new(192, 64, 5, 5),
        2,
        1,
    );
    let key = KernelKey::new(ConvOp::Forward, &g);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut sample_json = String::new();
    for overhead_us in [0.0f64, 2.0, 8.0, 32.0, 128.0, 512.0, 2048.0] {
        let mut device = p100_sxm2();
        device.launch_overhead_us = overhead_us;
        // One handle per policy, each recording its optimization's phases,
        // wall time and thread count.
        let optimize = |policy| {
            let handle = UcudnnHandle::new(
                CudnnHandle::simulated(device.clone()),
                UcudnnOptions {
                    policy,
                    workspace_limit_bytes: 64 * MIB,
                    mode: OptimizerMode::Wr,
                    ..Default::default()
                },
            );
            handle.optimize_network(&[key]).unwrap();
            let config = handle.plan(ConvOp::Forward, &g).unwrap().config;
            (handle, config)
        };
        let (_, undiv) = optimize(BatchSizePolicy::Undivided);
        let (handle, all) = optimize(BatchSizePolicy::All);
        sample_json = handle.metrics_json();
        let t = handle.metrics().timings();
        rows.push(vec![
            format!("{overhead_us}"),
            all.micros.len().to_string(),
            all.describe(),
            format!("{:.3}", all.time_us() / 1000.0),
            format!("{:.2}x", undiv.time_us() / all.time_us()),
            format!("{}/{}", t.benchmark_us, t.dp_us),
        ]);
        csv.push(vec![
            format!("{overhead_us}"),
            all.micros.len().to_string(),
            all.describe().replace(',', ";"),
            format!("{}", all.time_us()),
            format!("{}", undiv.time_us() / all.time_us()),
        ]);
    }
    print_table(
        "Ablation — launch-overhead sensitivity (conv2 forward, 64 MiB, P100 variant)",
        &[
            "launch (us)",
            "#micro",
            "division",
            "time (ms)",
            "speedup vs undivided",
            "bench/DP (us)",
        ],
        &rows,
    );
    write_csv(
        "ablation_overhead.csv",
        &["launch_us", "micros", "division", "time_us", "speedup"],
        &csv,
    );
    println!("\nAs overhead grows the DP chooses coarser divisions and the gain shrinks to 1.0x.");
    let path = ucudnn_bench::results_dir().join("ablation_overhead_metrics.json");
    std::fs::write(&path, &sample_json).expect("cannot write metrics JSON");
    println!("[json] wrote {}", path.display());
    println!("\nMetrics JSON (last row, policy=all):\n{sample_json}");

    tracing_overhead(&key);
    dispatch_overhead();
}

/// A/B the trace instrumentation on the WR optimizer: the disabled path is
/// one relaxed atomic load per emit site (expected well under 1% of
/// optimization wall clock); an active session pays for building and
/// buffering the events.
fn tracing_overhead(key: &KernelKey) {
    let handle = CudnnHandle::simulated(p100_sxm2());
    let reps = 20;
    let run = || {
        let start = std::time::Instant::now();
        for _ in 0..reps {
            let cache = BenchCache::new();
            optimize_wr(&handle, &cache, key, 64 * MIB, BatchSizePolicy::All, false).unwrap();
        }
        start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
    };
    let disabled_us = run();
    let session = ucudnn::trace::session(ucudnn::ClockMode::Wall);
    let enabled_us = run();
    let trace = session.finish();
    println!(
        "\nTracing overhead on WR optimize (conv2, policy=all, {reps} reps):\n\
         disabled {disabled_us:.1} us/opt, session active {enabled_us:.1} us/opt \
         ({:+.2}% while collecting {} events/opt)",
        (enabled_us / disabled_us - 1.0) * 100.0,
        trace.events.len() / reps as usize
    );
}

/// Time the wrapper's dispatch: one replay of DenseNet-40's WD plan (k = 40,
/// batch 64, policy all, 128 MiB on the simulated P100, the end-to-end
/// benchmark's `plan_wd` network) issued as its convolution calls through
/// `UcudnnHandle::convolution`, against the bare `CudnnHandle::convolution`
/// launches of the same micro-batches. The two alternate, and each reports
/// its fastest of `ROUNDS` replays; the ratio is the wrapper's cost per
/// replay over the kernels' own.
fn dispatch_overhead() {
    const ROUNDS: usize = 500;
    let net = densenet40(64, 40);
    let h = UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()),
        UcudnnOptions {
            policy: BatchSizePolicy::All,
            workspace_limit_bytes: 128 * MIB,
            mode: OptimizerMode::Wd,
            ..Default::default()
        },
    );
    setup_network(&h, &net).unwrap();
    // The calls of one iteration, in the framework's order: forward, then
    // backward-filter and backward-data from the last layer back.
    let layers = net.conv_layers();
    let mut calls: Vec<(ConvOp, ConvGeometry)> = layers
        .iter()
        .map(|&id| (ConvOp::Forward, net.conv_geometry(id)))
        .collect();
    for &id in layers.iter().rev() {
        let g = net.conv_geometry(id);
        calls.push((ConvOp::BackwardFilter, g));
        if net.needs_backward_data(id) {
            calls.push((ConvOp::BackwardData, g));
        }
    }
    // Each call's micro-batch launches as the replay issues them:
    // BackwardFilter accumulates from its second micro-batch on.
    let mut launches: Vec<(ConvOp, ConvGeometry, ConvAlgo, f32)> = Vec::new();
    let mut ws_floats = 0;
    for (op, g) in &calls {
        let config = h.plan(*op, g).unwrap().config;
        ws_floats = ws_floats.max(config.workspace_bytes().div_ceil(4));
        for (i, m) in config.micros.iter().enumerate() {
            let beta = if *op == ConvOp::BackwardFilter && i > 0 {
                1.0
            } else {
                0.0
            };
            launches.push((*op, g.with_batch(m.micro_batch), m.algo, beta));
        }
    }
    let mut ws = vec![0.0f32; ws_floats];
    let inner = h.inner();
    let through_handle = || {
        let start = Instant::now();
        for (op, g) in &calls {
            h.convolution(*op, g, &[], &[], &mut [], 1.0, 0.0).unwrap();
        }
        start.elapsed().as_secs_f64()
    };
    let mut bare = || {
        let start = Instant::now();
        for (op, g, algo, beta) in &launches {
            inner
                .convolution(*op, g, *algo, &[], &[], &mut [], 1.0, *beta, &mut ws)
                .unwrap();
        }
        start.elapsed().as_secs_f64()
    };
    let (mut handle_s, mut bare_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        handle_s = handle_s.min(through_handle());
        bare_s = bare_s.min(bare());
    }
    println!(
        "\nDispatch overhead on a DenseNet-40 WD replay (k=40, batch 64, policy=all, 128 MiB; \
         fastest of {ROUNDS} alternating replays):\n\
         UcudnnHandle::convolution {:.0} ns per call ({} calls), \
         bare CudnnHandle::convolution {:.0} ns per launch ({} launches)\n\
         dispatch ratio {:.2}x (replay through the handle / bare launches)",
        handle_s * 1e9 / calls.len() as f64,
        calls.len(),
        bare_s * 1e9 / launches.len() as f64,
        launches.len(),
        handle_s / bare_s
    );
}
