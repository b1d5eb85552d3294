//! Ablation: kernel-launch overhead sensitivity.
//!
//! Micro-batching trades algorithmic speed for extra kernel launches and
//! redundant filter transforms. This sweep varies the modeled per-launch
//! overhead and reports the WR optimizer's chosen division and its speedup —
//! showing where fine division stops paying (the design constraint the DP
//! navigates implicitly).

use ucudnn::{optimize_wr_metered, BatchSizePolicy, BenchCache, KernelKey, OptimizerMetrics};
use ucudnn_bench::{print_table, write_csv, MIB};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
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
        let handle = CudnnHandle::simulated(device);
        let cache = BenchCache::new();
        let metrics = OptimizerMetrics::new();
        let undiv = optimize_wr_metered(
            &handle,
            &cache,
            &key,
            64 * MIB,
            BatchSizePolicy::Undivided,
            false,
            Some(&metrics),
        )
        .unwrap();
        let all = optimize_wr_metered(
            &handle,
            &cache,
            &key,
            64 * MIB,
            BatchSizePolicy::All,
            false,
            Some(&metrics),
        )
        .unwrap();
        metrics.add_kernels(2);
        // Per-kernel counts elided: policy=all benchmarks every micro-batch
        // size, which would print hundreds of rows here.
        sample_json = metrics.to_json(
            cache.stats(),
            &[],
            handle.faults_injected(),
            handle.exec_cache_stats(),
        );
        let t = metrics.timings();
        rows.push(vec![
            format!("{overhead_us}"),
            all.config.micros.len().to_string(),
            all.config.describe(),
            format!("{:.3}", all.config.time_us() / 1000.0),
            format!("{:.2}x", undiv.config.time_us() / all.config.time_us()),
            format!("{}/{}", t.benchmark_us, t.dp_us),
        ]);
        csv.push(vec![
            format!("{overhead_us}"),
            all.config.micros.len().to_string(),
            all.config.describe().replace(',', ";"),
            format!("{}", all.config.time_us()),
            format!("{}", undiv.config.time_us() / all.config.time_us()),
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
    println!("\nMetrics JSON (last row):\n{sample_json}");

    tracing_overhead(&key);
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
            optimize_wr_metered(
                &handle,
                &cache,
                key,
                64 * MIB,
                BatchSizePolicy::All,
                false,
                None,
            )
            .unwrap();
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
