//! Every option the benchmark passes to the program, pinned in one place.
//!
//! Options are spelled out field by field (no `..Default::default()`), so a
//! change to a library default cannot silently change what is measured.
//! [`describe`] prints them at the start of every run.

use ucudnn::{
    BatchSizePolicy, IngressBackend, IngressOptions, OptimizerMode, ServeOptions, UcudnnOptions,
};
use ucudnn_cudnn_sim::{CudnnHandle, DEFAULT_EXEC_CACHE_BYTES};

/// `train`: mini-batch size.
pub const TRAIN_BATCH: usize = 16;
/// `train`: per-kernel workspace limit (WR).
pub const TRAIN_WS_LIMIT: usize = 512 << 10;
/// `train`: SGD learning rate.
pub const TRAIN_LR: f32 = 0.1;
/// `train`: classes of the synthetic dataset (the FC-10 head).
pub const TRAIN_CLASSES: usize = 10;

/// `plan_wd`: mini-batch size.
pub const WD_BATCH: usize = 64;
/// `plan_wd`: DenseNet-40 growth rate (the paper's Fig. 11 network).
pub const WD_GROWTH: usize = 40;
/// `plan_wd`: total workspace budget (WD).
pub const WD_BUDGET: usize = 128 << 20;

/// `serve`: the runner's largest batch.
pub const SERVE_MAX_BATCH: usize = 32;
/// `serve`: open-loop offered rate, requests per second; below saturation
/// even in the host's slow phases.
pub const SERVE_OPEN_RPS: f64 = 2000.0;
/// `serve`: pipelined connections of the load generator.
pub const SERVE_CONNS: usize = 2;
/// `serve`: requests kept in flight per connection in the closed loop.
pub const SERVE_DEPTH: usize = 48;
/// `serve`: fresh constructions timed for `setup_s`.
pub const SERVE_SETUP_REPS: usize = 15;
/// `serve`: the last constructions that serve the load, in rotation.
pub const SERVE_REPLICAS: usize = 3;

/// Optimizer options of the `train` workload.
pub fn train_options() -> UcudnnOptions {
    UcudnnOptions {
        policy: BatchSizePolicy::PowerOfTwo,
        workspace_limit_bytes: TRAIN_WS_LIMIT,
        mode: OptimizerMode::Wr,
        cache_file: None,
        parallel_benchmark: false,
        opt_threads: 1,
    }
}

/// Optimizer options of the `plan_wd` workload.
pub fn wd_options() -> UcudnnOptions {
    UcudnnOptions {
        policy: BatchSizePolicy::All,
        workspace_limit_bytes: WD_BUDGET,
        mode: OptimizerMode::Wd,
        cache_file: None,
        parallel_benchmark: false,
        opt_threads: 1,
    }
}

/// Server options of the `serve` workload (equal to the library default).
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        slo_us: 50_000.0,
        queue_cap: 1024,
        workers: 2,
        max_batch: SERVE_MAX_BATCH,
    }
}

/// Ingress (reactor) options of the `serve` workload.
pub fn ingress_options() -> IngressOptions {
    IngressOptions {
        max_conns: 16_384,
        loops: 2,
        backend: Some(IngressBackend::Epoll),
    }
}

/// A CPU substrate handle with the execution-plan cache size pinned.
pub fn cpu_handle() -> CudnnHandle {
    CudnnHandle::real_cpu().with_exec_cache_bytes(DEFAULT_EXEC_CACHE_BYTES)
}

/// One line per pinned setting, for the run log.
pub fn describe() -> Vec<String> {
    vec![
        format!(
            "train: batch {TRAIN_BATCH}, lr {TRAIN_LR}, {:?}",
            train_options()
        ),
        format!(
            "plan_wd: DenseNet-40 k={WD_GROWTH}, batch {WD_BATCH}, simulated P100, {:?}",
            wd_options()
        ),
        format!(
            "serve: {:?}, {:?}, runner max batch {SERVE_MAX_BATCH}; {SERVE_REPLICAS} replicas; open loop \
             {SERVE_OPEN_RPS} rps, {SERVE_CONNS} connections, closed-loop depth {SERVE_DEPTH}",
            serve_options(),
            ingress_options()
        ),
        format!("exec plan cache: {DEFAULT_EXEC_CACHE_BYTES} bytes"),
        format!(
            "available parallelism: {}",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
    ]
}
