//! A mini Caffe-like deep learning framework driving the cuDNN-style API.
//!
//! This crate is the substitute for Caffe / NVCaffe / TensorFlow in the
//! μ-cuDNN reproduction (DESIGN.md §2): frameworks only touch cuDNN through
//! a narrow surface — describe layers, pick algorithms once, then launch
//! convolutions every iteration — and this crate drives exactly that surface
//! through a pluggable [`provider::ConvProvider`] (plain cuDNN semantics or
//! the μ-cuDNN wrapper).
//!
//! * [`graph`] — the layer DAG with shape inference,
//! * [`models`] — AlexNet, ResNet-18/50, DenseNet-40, an Inception module,
//! * [`exec_sim`]/[`timing`] — the Caffe-`time`-style benchmark driver on
//!   the simulated GPU,
//! * [`exec_real`] — real CPU numerics for end-to-end gradient validation,
//! * [`memory`] — the per-layer memory accounting behind Fig. 12.

pub mod concurrency;
pub mod cost;
pub mod data_parallel;
pub mod exec_real;
pub mod exec_sim;
pub mod graph;
pub mod memory;
pub mod models;
pub mod provider;
pub mod timing;
pub mod train;

pub use exec_real::{Params, RealExecutor};
pub use exec_sim::{setup_network, time_iteration, IterationTiming, LayerTiming};
pub use graph::{LayerSpec, NetworkDef, NodeId};
pub use memory::{memory_report, totals, LayerMemory, MemoryTotals};
pub use models::{alexnet, densenet40, inception_module, resnet18, resnet50};
pub use provider::{BaselineCudnn, ConvProvider, ProviderError};
pub use timing::{time_command, TimeReport};
pub use train::{sgd_step, softmax_cross_entropy, train, SyntheticDataset};
