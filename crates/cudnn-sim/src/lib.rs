//! A cuDNN-style convolution API with two interchangeable engines.
//!
//! This crate is the substrate the μ-cuDNN reproduction wraps, standing in
//! for NVIDIA cuDNN (DESIGN.md §2). It exposes the same call structure a
//! deep learning framework uses:
//!
//! 1. create a [`CudnnHandle`],
//! 2. describe tensors/filters/convolutions with descriptors,
//! 3. select an algorithm with [`CudnnHandle::get_algorithm`] or
//!    [`CudnnHandle::find_algorithms`],
//! 4. query [`CudnnHandle::get_workspace_size`] and allocate,
//! 5. launch `convolution_forward` / `convolution_backward_data` /
//!    `convolution_backward_filter` with `alpha`/`beta` output scaling
//!    (each delegates to the op-generic [`CudnnHandle::convolution`]).
//!
//! The [`handle::Engine::Simulated`] engine prices kernels with the
//! deterministic GPU performance model (`ucudnn-gpu-model`) and advances a
//! virtual clock; the [`handle::Engine::RealCpu`] engine computes real
//! numerics with `ucudnn-conv`. Timing experiments use the former,
//! correctness tests the latter.

pub mod descriptor;
pub mod error;
pub mod exec;
pub mod fault;
pub mod find;
pub mod handle;
pub mod map;
pub mod observe;
pub mod ops;
pub mod plan_cache;

pub use descriptor::{check_geometry, ConvolutionDescriptor, FilterDescriptor, TensorDescriptor};
pub use error::{CudnnError, Result};
pub use fault::{FaultPlan, FaultRecord, FaultSite, FaultTarget};
pub use find::{AlgoPerf, AlgoPreference, AlgoStatus};
pub use handle::{CudnnHandle, Engine};
pub use map::{cpu_engine_for, supported_on, workspace_bytes_on};
pub use observe::{set_call_observer, CallEvent, CallObserver, CallSite};
pub use ops::{
    ActivationDescriptor, ActivationMode, PoolingDescriptor, PoolingMode, BN_MIN_EPSILON,
};
pub use plan_cache::{ExecCacheStats, PlanCache, DEFAULT_EXEC_CACHE_BYTES};

// Re-export the vocabulary types callers need alongside the API.
pub use ucudnn_conv::ConvOp;
pub use ucudnn_gpu_model::{ConvAlgo, Perturbation};
