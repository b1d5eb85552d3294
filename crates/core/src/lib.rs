//! μ-cuDNN in Rust: a transparent micro-batching optimizer for
//! cuDNN-style convolution libraries.
//!
//! Reproduction of *μ-cuDNN: Accelerating Deep Learning Frameworks with
//! Micro-Batching* (Oyama, Ben-Nun, Hoefler, Matsuoka — IEEE CLUSTER 2018).
//!
//! Fast convolution algorithms (FFT, Winograd) need large temporary
//! workspaces; under realistic per-layer workspace limits cuDNN silently
//! falls back to slow algorithms. μ-cuDNN splits each layer's mini-batch
//! into *micro-batches* so the fast algorithms fit:
//!
//! * [`wr`] — Workspace Reuse: per-layer dynamic programming over divisions.
//! * [`pareto`] + [`wd`] — Workspace Division: Pareto-pruned configuration
//!   sets feeding an exact 0-1 ILP that divides one global workspace.
//! * [`handle::UcudnnHandle`] — the transparent wrapper: swap your handle
//!   type, keep your framework code.
//!
//! ```
//! use ucudnn::{UcudnnHandle, UcudnnOptions, BatchSizePolicy, OptimizerMode};
//! use ucudnn_cudnn_sim::{CudnnHandle, TensorDescriptor, FilterDescriptor,
//!                        ConvolutionDescriptor, ConvOp};
//!
//! // Wrap a handle (here: the simulated P100 of the paper's evaluation).
//! let handle = UcudnnHandle::new(
//!     CudnnHandle::simulated(ucudnn_gpu_model::p100_sxm2()),
//!     UcudnnOptions {
//!         policy: BatchSizePolicy::PowerOfTwo,
//!         workspace_limit_bytes: 64 << 20,
//!         mode: OptimizerMode::Wr,
//!         ..Default::default()
//!     },
//! );
//! // AlexNet conv2 under a 64 MiB limit: ask for an algorithm like any
//! // framework would...
//! let x = TensorDescriptor::new_4d(256, 64, 27, 27).unwrap();
//! let w = FilterDescriptor::new_4d(192, 64, 5, 5).unwrap();
//! let c = ConvolutionDescriptor::new_2d(2, 2, 1, 1).unwrap();
//! let algo = handle.get_algorithm(ConvOp::Forward, &x, &w, &c).unwrap();
//! // ...and zero workspace is required from the framework:
//! assert_eq!(handle.get_workspace_size(ConvOp::Forward, &x, &w, &c, algo).unwrap(), 0);
//! // The installed plan divides the batch to unlock FFT.
//! let g = c.geometry(&x, &w).unwrap();
//! let plan = handle.plan(ConvOp::Forward, &g).unwrap();
//! assert!(!plan.config.is_undivided());
//! ```

pub mod bench_cache;
pub mod config;
pub mod env;
pub mod error;
mod fanout;
pub mod fleet;
pub mod handle;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod pareto;
pub mod policy;
pub mod slo;
pub mod telemetry;
pub mod trace;
pub mod wd;
pub mod wr;

pub use bench_cache::{BenchCache, BenchEntry, CacheStats};
pub use config::{Configuration, MicroConfig};
pub use env::{
    FleetRouterPolicy, IngressBackend, IngressOptions, ServeOptions, FLEET_REPLICA_CARDS,
};
pub use error::UcudnnError;
pub use fleet::{
    arbitrate_fleet_budget, best_per_sample_us, fleet_budget_candidates, BudgetCandidate,
    BudgetShare, FleetBudgetPlan, ReplicaCandidates,
};
pub use handle::{OptimizerMode, Plan, UcudnnHandle, UcudnnOptions, VIRTUAL_ALGO};
pub use kernel::KernelKey;
pub use metrics::{OptimizerMetrics, Phase, PhaseTimings};
pub use pareto::{
    desirable_set, desirable_set_metered, desirable_set_traced, pareto_front, DesirableStats,
};
pub use policy::BatchSizePolicy;
pub use slo::{
    forward_latency_table, plan_batch, rebench_latency_table, SloDecision, TableProvenance,
};
pub use telemetry::{Counter, CounterVec, Gauge, GaugeVec, Histogram, Registry};
pub use trace::{
    ClockMode, PlanProvenance, Trace, TraceConfig, TraceEvent, TraceFormat, TraceSession,
};
pub use wd::{
    optimize_wd, optimize_wd_weighted, optimize_wd_weighted_parallel, WdAssignment, WdPlan,
};
pub use wr::{best_micro, optimize_wr, optimize_wr_metered, WrResult};
