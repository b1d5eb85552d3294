//! NCHW 4-D tensors for the μ-cuDNN reproduction.
//!
//! Everything in this workspace stores activations as `(N, C, H, W)` and
//! filters as `(K, C, R, S)` in row-major (W fastest) order, matching the
//! `CUDNN_TENSOR_NCHW` storage the paper uses throughout its evaluation.
//!
//! The layout choice is load-bearing for micro-batching: because the batch
//! dimension is outermost, a micro-batch of samples `[lo, hi)` is a single
//! contiguous slice of the underlying buffer, so splitting a mini-batch into
//! micro-batches requires no copies — exactly the property μ-cuDNN exploits
//! when it re-issues cuDNN kernels on sub-ranges of the original tensors.

pub mod compare;
pub mod fill;
pub mod hash;
pub mod shape;
pub mod tensor;

pub use compare::{assert_all_close, max_abs_diff, max_rel_diff};
pub use fill::DeterministicRng;
pub use hash::{GeometryBuildHasher, GeometryHasher, GeometryMap};
pub use shape::{ConvGeometry, FilterShape, Shape4};
pub use tensor::Tensor;
