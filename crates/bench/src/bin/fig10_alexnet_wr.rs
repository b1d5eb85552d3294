//! Fig. 10: AlexNet forward+backward iteration time on K80 / P100 / V100
//! with 8 / 64 / 512 MiB per-kernel workspace and the three batch-size
//! policies (u = undivided = plain cuDNN, p = powerOfTwo, a = all).
//!
//! Paper headline speedups of `all` over `undivided` at 64 MiB:
//! K80 1.81× iteration (2.10× convolutions), P100 1.40× (1.63×),
//! V100 1.47× (1.63×); no improvement at 8 MiB; parity at 512 MiB.

use ucudnn::{BatchSizePolicy, OptimizerMode, UcudnnHandle, UcudnnOptions};
use ucudnn_bench::{mib, print_table, write_csv, MIB};
use ucudnn_cudnn_sim::CudnnHandle;
use ucudnn_framework::{alexnet, time_command};
use ucudnn_gpu_model::{k80, p100_sxm2, v100_sxm2};

fn main() {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // Per-layer rows for the stacked-bar rendering of the paper's figure.
    let mut layer_csv: Vec<Vec<String>> = Vec::new();
    for (device, batch) in [(k80(), 256usize), (p100_sxm2(), 256), (v100_sxm2(), 1024)] {
        let net = alexnet(batch);
        for limit_mib in [8usize, 64, 512] {
            let mut undivided = (0.0f64, 0.0f64);
            for policy in [
                BatchSizePolicy::Undivided,
                BatchSizePolicy::PowerOfTwo,
                BatchSizePolicy::All,
            ] {
                let handle = UcudnnHandle::new(
                    CudnnHandle::simulated(device.clone()),
                    UcudnnOptions {
                        policy,
                        workspace_limit_bytes: limit_mib * MIB,
                        mode: OptimizerMode::Wr,
                        ..Default::default()
                    },
                );
                let r = time_command(&handle, &net, 1).expect("time command failed");
                for l in &r.timing.layers {
                    layer_csv.push(vec![
                        device.name.clone(),
                        format!("{}", limit_mib * MIB),
                        policy.name().to_string(),
                        l.name.to_string(),
                        l.kind.to_string(),
                        format!("{}", l.forward_us),
                        format!("{}", l.backward_us),
                    ]);
                }
                if policy == BatchSizePolicy::Undivided {
                    undivided = (r.timing.total_us(), r.timing.conv_us());
                }
                let su_total = undivided.0 / r.timing.total_us();
                let su_conv = undivided.1 / r.timing.conv_us();
                rows.push(vec![
                    device.name.clone(),
                    format!("{limit_mib}"),
                    policy.name().to_string(),
                    format!("{:.2}", r.timing.forward_us() / 1000.0),
                    format!("{:.2}", r.timing.backward_us() / 1000.0),
                    format!("{:.2}", r.timing.total_us() / 1000.0),
                    format!("{:.2}", r.timing.conv_us() / 1000.0),
                    format!("{:.2}x", su_total),
                    format!("{:.2}x", su_conv),
                    mib(r.workspace_bytes),
                ]);
                csv.push(vec![
                    device.name.clone(),
                    format!("{}", limit_mib * MIB),
                    policy.name().to_string(),
                    format!("{}", r.timing.forward_us()),
                    format!("{}", r.timing.backward_us()),
                    format!("{}", r.timing.total_us()),
                    format!("{}", r.timing.conv_us()),
                    format!("{su_total}"),
                    format!("{su_conv}"),
                    format!("{}", r.workspace_bytes),
                ]);
            }
        }
    }
    print_table(
        "Fig. 10 — AlexNet WR (batch 256 on K80/P100, 1024 on V100)",
        &[
            "device",
            "WS (MiB)",
            "policy",
            "fwd (ms)",
            "bwd (ms)",
            "total (ms)",
            "conv (ms)",
            "speedup",
            "conv spdup",
            "alloc WS (MiB)",
        ],
        &rows,
    );
    write_csv(
        "fig10_alexnet_layers.csv",
        &[
            "device",
            "ws_bytes",
            "policy",
            "layer",
            "kind",
            "forward_us",
            "backward_us",
        ],
        &layer_csv,
    );
    write_csv(
        "fig10_alexnet_wr.csv",
        &[
            "device",
            "ws_bytes",
            "policy",
            "fwd_us",
            "bwd_us",
            "total_us",
            "conv_us",
            "speedup_total",
            "speedup_conv",
            "alloc_ws_bytes",
        ],
        &csv,
    );
    println!("\n(paper at 64 MiB, all vs undivided: K80 1.81x/2.10x, P100 1.40x/1.63x, V100 1.47x/1.63x;");
    println!(" no gain at 8 MiB; parity at 512 MiB with ~4x the workspace memory)");
}
