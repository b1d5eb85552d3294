//! The real-numerics executor: forward and backward passes with actual
//! CPU arithmetic.
//!
//! This is the machinery behind the reproduction's end-to-end safety claim:
//! a full training step (all layers, all gradients) computed with
//! micro-batched convolutions must match the undivided step. Convolutions go
//! through a [`ConvProvider`] (so both the baseline and μ-cuDNN paths are
//! exercised); activation, pooling, batch-norm and bias layers go through
//! the cuDNN-style auxiliary ops on the provider's handle — exactly the set
//! of calls Caffe's cuDNN layers issue. Only Add/Concat (Caffe-native
//! layers) and the fully connected layer (cuBLAS in Caffe) are computed
//! in-framework.
//!
//! Note that batch normalization couples samples *within* a layer — but
//! μ-cuDNN only splits convolutions, never BN, so the coupling (and thus
//! training semantics) is untouched. The residual-block tests in
//! `tests/end_to_end_equivalence.rs` assert this.

use crate::graph::{LayerSpec, NetworkDef};
use crate::provider::{ConvProvider, ProviderError};
use ucudnn_conv::gemm::{sgemm, Trans};
use ucudnn_cudnn_sim::{
    ActivationDescriptor, ActivationMode, ConvOp, PoolingDescriptor, PoolingMode, TensorDescriptor,
    BN_MIN_EPSILON,
};
use ucudnn_tensor::{DeterministicRng, Shape4, Tensor};

/// Learnable parameters of one layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Params {
    /// No parameters.
    None,
    /// Convolution filter (KCRS flattened) and per-output-channel bias.
    Conv {
        /// Filter bank, `K*C*R*S` elements.
        w: Vec<f32>,
        /// Bias, `K` elements.
        b: Vec<f32>,
    },
    /// Fully connected weight (`out x in`, row-major) and bias.
    Fc {
        /// Weight matrix.
        w: Vec<f32>,
        /// Bias, `out` elements.
        b: Vec<f32>,
    },
    /// Batch-norm scale and shift, `C` elements each.
    Bn {
        /// Scale (γ).
        gamma: Vec<f32>,
        /// Shift (β).
        beta: Vec<f32>,
    },
}

/// A network instance with parameters; executes real training steps.
#[derive(Debug, Clone)]
pub struct RealExecutor {
    net: NetworkDef,
    /// Per-node parameters.
    pub params: Vec<Params>,
}

/// All activations of one forward pass (indexed by node).
pub type Activations = Vec<Tensor>;

fn tdesc(s: Shape4) -> TensorDescriptor {
    TensorDescriptor::from_shape(s).expect("network shapes are validated at build time")
}

fn bias_desc(c: usize) -> TensorDescriptor {
    tdesc(Shape4::new(1, c, 1, 1))
}

fn pool_desc(max: bool, kernel: usize, stride: usize, pad: usize) -> PoolingDescriptor {
    let mode = if max {
        PoolingMode::Max
    } else {
        PoolingMode::AverageIncludePadding
    };
    PoolingDescriptor::square(mode, kernel, pad, stride).expect("validated pooling params")
}

fn gap_desc(s: Shape4) -> PoolingDescriptor {
    PoolingDescriptor::new_2d(PoolingMode::AverageIncludePadding, s.h, s.w, 0, 0, s.h, s.w)
        .expect("validated pooling params")
}

const RELU: ActivationDescriptor = ActivationDescriptor {
    mode: ActivationMode::Relu,
};

/// Input shape of a layer that requires exactly one input edge.
///
/// Graphs are normally validated at build time, but a hand-assembled
/// [`NetworkDef`] can reach the executor with a shape-consuming layer that
/// has no inputs; surface that as [`ProviderError::MalformedGraph`] instead
/// of panicking mid-pass.
fn require_input(in_shape: Option<Shape4>, name: &str) -> Result<Shape4, ProviderError> {
    in_shape.ok_or_else(|| ProviderError::MalformedGraph(format!("layer {name} has no input edge")))
}

fn layer_span(phase: &'static str, name: &str, id: usize) -> ucudnn::trace::SpanGuard {
    let key = name.to_string();
    ucudnn::trace::span("train", phase, move || {
        (
            key,
            ucudnn::json::obj([("node", ucudnn::json::num(id as f64))]),
        )
    })
}

impl RealExecutor {
    /// Instantiate a network with deterministic He-style initialization.
    pub fn new(net: NetworkDef, seed: u64) -> Self {
        let mut rng = DeterministicRng::new(seed);
        let mut params = Vec::with_capacity(net.len());
        for id in 0..net.len() {
            let p = match &net.nodes()[id].spec {
                LayerSpec::Conv {
                    out_channels,
                    kernel,
                    ..
                } => {
                    let cin = net.output_shape(net.nodes()[id].inputs[0]).c;
                    let fan_in = cin * kernel * kernel;
                    let scale = (2.0 / fan_in as f32).sqrt();
                    let w = (0..out_channels * fan_in)
                        .map(|_| (rng.next_uniform() * 2.0 - 1.0) * scale)
                        .collect();
                    let b = (0..*out_channels)
                        .map(|_| (rng.next_uniform() - 0.5) * 0.1)
                        .collect();
                    Params::Conv { w, b }
                }
                LayerSpec::FullyConnected { out } => {
                    let nin = net.output_shape(net.nodes()[id].inputs[0]).sample_len();
                    let scale = (2.0 / nin as f32).sqrt();
                    let w = (0..out * nin)
                        .map(|_| (rng.next_uniform() * 2.0 - 1.0) * scale)
                        .collect();
                    let b = (0..*out)
                        .map(|_| (rng.next_uniform() - 0.5) * 0.1)
                        .collect();
                    Params::Fc { w, b }
                }
                LayerSpec::BatchNorm => {
                    let c = net.output_shape(id).c;
                    Params::Bn {
                        gamma: (0..c).map(|_| 0.8 + 0.4 * rng.next_uniform()).collect(),
                        beta: (0..c).map(|_| (rng.next_uniform() - 0.5) * 0.2).collect(),
                    }
                }
                _ => Params::None,
            };
            params.push(p);
        }
        Self { net, params }
    }

    /// The network definition.
    pub fn net(&self) -> &NetworkDef {
        &self.net
    }

    /// Forward pass; returns every node's activation.
    ///
    /// # Errors
    /// Propagates provider failures.
    ///
    /// # Panics
    /// Panics when `input` does not match the network's input shape.
    pub fn forward(
        &self,
        provider: &impl ConvProvider,
        input: &Tensor,
    ) -> Result<Activations, ProviderError> {
        assert_eq!(
            input.shape(),
            self.net.input_shape(),
            "input shape mismatch"
        );
        let h = provider.handle();
        let mut acts: Activations = Vec::with_capacity(self.net.len());
        for id in 0..self.net.len() {
            let node = &self.net.nodes()[id];
            let out_shape = self.net.output_shape(id);
            let mut out = Tensor::zeros(out_shape);
            let in_shape = node.inputs.first().map(|&i| acts[i].shape());
            let _layer = layer_span("forward_layer", &node.name, id);
            match &node.spec {
                LayerSpec::Input => out = input.clone(),
                LayerSpec::Conv { .. } => {
                    let g = self.net.conv_geometry(id);
                    let Params::Conv { w, b } = &self.params[id] else {
                        unreachable!()
                    };
                    provider.execute(
                        ConvOp::Forward,
                        &g,
                        acts[node.inputs[0]].as_slice(),
                        w,
                        out.as_mut_slice(),
                        1.0,
                        0.0,
                    )?;
                    h.add_tensor(
                        1.0,
                        &bias_desc(out_shape.c),
                        b,
                        1.0,
                        &tdesc(out_shape),
                        out.as_mut_slice(),
                    )?;
                }
                LayerSpec::Pool {
                    max,
                    kernel,
                    stride,
                    pad,
                } => {
                    h.pooling_forward(
                        &pool_desc(*max, *kernel, *stride, *pad),
                        1.0,
                        &tdesc(require_input(in_shape, &node.name)?),
                        acts[node.inputs[0]].as_slice(),
                        0.0,
                        &tdesc(out_shape),
                        out.as_mut_slice(),
                    )?;
                }
                LayerSpec::Relu => {
                    h.activation_forward(
                        &RELU,
                        1.0,
                        &tdesc(require_input(in_shape, &node.name)?),
                        acts[node.inputs[0]].as_slice(),
                        0.0,
                        &tdesc(out_shape),
                        out.as_mut_slice(),
                    )?;
                }
                LayerSpec::BatchNorm => {
                    let Params::Bn { gamma, beta } = &self.params[id] else {
                        unreachable!()
                    };
                    // Saved statistics are recomputed in backward (the
                    // NULL-pointer path of cuDNN), so scratch them here.
                    let mut sm = vec![0.0f32; out_shape.c];
                    let mut siv = vec![0.0f32; out_shape.c];
                    h.batch_norm_forward_training(
                        1.0,
                        0.0,
                        &tdesc(require_input(in_shape, &node.name)?),
                        acts[node.inputs[0]].as_slice(),
                        &tdesc(out_shape),
                        out.as_mut_slice(),
                        gamma,
                        beta,
                        BN_MIN_EPSILON,
                        &mut sm,
                        &mut siv,
                    )?;
                }
                LayerSpec::FullyConnected { out: nout } => {
                    let Params::Fc { w, b } = &self.params[id] else {
                        unreachable!()
                    };
                    let x = &acts[node.inputs[0]];
                    let (n, nin) = (x.shape().n, x.shape().sample_len());
                    // y (N x out) = x (N x in) @ W^T (in x out)
                    sgemm(
                        Trans::No,
                        Trans::Yes,
                        n,
                        *nout,
                        nin,
                        1.0,
                        x.as_slice(),
                        w,
                        0.0,
                        out.as_mut_slice(),
                    );
                    for ni in 0..n {
                        for (o, bias) in out.as_mut_slice()[ni * nout..(ni + 1) * nout]
                            .iter_mut()
                            .zip(b)
                        {
                            *o += bias;
                        }
                    }
                }
                LayerSpec::Add => {
                    let a = acts[node.inputs[0]].as_slice();
                    let b = acts[node.inputs[1]].as_slice();
                    for ((o, x), y) in out.as_mut_slice().iter_mut().zip(a).zip(b) {
                        *o = x + y;
                    }
                }
                LayerSpec::Concat => {
                    concat_forward(
                        &node.inputs.iter().map(|&i| &acts[i]).collect::<Vec<_>>(),
                        &mut out,
                    );
                }
                LayerSpec::GlobalAvgPool => {
                    let s = require_input(in_shape, &node.name)?;
                    h.pooling_forward(
                        &gap_desc(s),
                        1.0,
                        &tdesc(s),
                        acts[node.inputs[0]].as_slice(),
                        0.0,
                        &tdesc(out_shape),
                        out.as_mut_slice(),
                    )?;
                }
            }
            acts.push(out);
        }
        Ok(acts)
    }

    /// Backward pass from a gradient at the final node. Returns
    /// (parameter gradients per node, activation gradient at the input).
    ///
    /// # Errors
    /// Propagates provider failures.
    pub fn backward(
        &self,
        provider: &impl ConvProvider,
        acts: &Activations,
        dloss: &Tensor,
    ) -> Result<(Vec<Params>, Tensor), ProviderError> {
        let h = provider.handle();
        let last = self.net.len() - 1;
        assert_eq!(
            dloss.shape(),
            self.net.output_shape(last),
            "loss gradient shape mismatch"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.net.len()];
        grads[last] = Some(dloss.clone());
        let mut pgrads: Vec<Params> = vec![Params::None; self.net.len()];

        for id in (0..self.net.len()).rev() {
            let Some(dy) = grads[id].take() else { continue };
            let node = &self.net.nodes()[id];
            let out_shape = self.net.output_shape(id);
            let in_shape = node.inputs.first().map(|&i| acts[i].shape());
            let _layer = layer_span("backward_layer", &node.name, id);
            match &node.spec {
                LayerSpec::Input => {
                    grads[id] = Some(dy); // keep the input gradient
                    continue;
                }
                LayerSpec::Conv { .. } => {
                    let g = self.net.conv_geometry(id);
                    let Params::Conv { w, b } = &self.params[id] else {
                        unreachable!()
                    };
                    let x = &acts[node.inputs[0]];
                    let mut dw = vec![0.0f32; w.len()];
                    provider.execute(
                        ConvOp::BackwardFilter,
                        &g,
                        x.as_slice(),
                        dy.as_slice(),
                        &mut dw,
                        1.0,
                        0.0,
                    )?;
                    let mut db = vec![0.0f32; b.len()];
                    h.convolution_backward_bias(
                        1.0,
                        &tdesc(out_shape),
                        dy.as_slice(),
                        0.0,
                        &bias_desc(out_shape.c),
                        &mut db,
                    )?;
                    pgrads[id] = Params::Conv { w: dw, b: db };
                    if self.net.needs_backward_data(id) {
                        let mut dx = Tensor::zeros(g.input);
                        provider.execute(
                            ConvOp::BackwardData,
                            &g,
                            dy.as_slice(),
                            w,
                            dx.as_mut_slice(),
                            1.0,
                            0.0,
                        )?;
                        accumulate(&mut grads[node.inputs[0]], dx);
                    }
                }
                LayerSpec::Pool {
                    max,
                    kernel,
                    stride,
                    pad,
                } => {
                    let x = &acts[node.inputs[0]];
                    let mut dx = Tensor::zeros(x.shape());
                    h.pooling_backward(
                        &pool_desc(*max, *kernel, *stride, *pad),
                        1.0,
                        &tdesc(out_shape),
                        acts[id].as_slice(),
                        &tdesc(out_shape),
                        dy.as_slice(),
                        &tdesc(x.shape()),
                        x.as_slice(),
                        0.0,
                        &tdesc(x.shape()),
                        dx.as_mut_slice(),
                    )?;
                    accumulate(&mut grads[node.inputs[0]], dx);
                }
                LayerSpec::Relu => {
                    // The gradient is written over `dy`, which this step owns.
                    let x = &acts[node.inputs[0]];
                    let mut dx = dy;
                    h.activation_backward_in_place(
                        &RELU,
                        1.0,
                        &tdesc(out_shape),
                        acts[id].as_slice(),
                        &tdesc(x.shape()),
                        x.as_slice(),
                        &tdesc(x.shape()),
                        dx.as_mut_slice(),
                    )?;
                    accumulate(&mut grads[node.inputs[0]], dx);
                }
                LayerSpec::BatchNorm => {
                    let Params::Bn { gamma, .. } = &self.params[id] else {
                        unreachable!()
                    };
                    let x = &acts[node.inputs[0]];
                    let mut dx = Tensor::zeros(x.shape());
                    let mut dgamma = vec![0.0f32; out_shape.c];
                    let mut dbeta = vec![0.0f32; out_shape.c];
                    // Empty saved-stats slices: recompute from x (cuDNN's
                    // NULL path).
                    h.batch_norm_backward(
                        &tdesc(x.shape()),
                        x.as_slice(),
                        &tdesc(out_shape),
                        dy.as_slice(),
                        &tdesc(x.shape()),
                        dx.as_mut_slice(),
                        gamma,
                        &mut dgamma,
                        &mut dbeta,
                        BN_MIN_EPSILON,
                        &[],
                        &[],
                    )?;
                    pgrads[id] = Params::Bn {
                        gamma: dgamma,
                        beta: dbeta,
                    };
                    accumulate(&mut grads[node.inputs[0]], dx);
                }
                LayerSpec::FullyConnected { out: nout } => {
                    let Params::Fc { w, .. } = &self.params[id] else {
                        unreachable!()
                    };
                    let x = &acts[node.inputs[0]];
                    let (n, nin) = (x.shape().n, x.shape().sample_len());
                    // dW (out x in) = dy^T (out x N) @ x (N x in)
                    let mut dw = vec![0.0f32; w.len()];
                    sgemm(
                        Trans::Yes,
                        Trans::No,
                        *nout,
                        nin,
                        n,
                        1.0,
                        dy.as_slice(),
                        x.as_slice(),
                        0.0,
                        &mut dw,
                    );
                    let mut db = vec![0.0f32; *nout];
                    for ni in 0..n {
                        for (d, g) in db
                            .iter_mut()
                            .zip(&dy.as_slice()[ni * nout..(ni + 1) * nout])
                        {
                            *d += g;
                        }
                    }
                    pgrads[id] = Params::Fc { w: dw, b: db };
                    // dx (N x in) = dy (N x out) @ W (out x in)
                    let mut dx = Tensor::zeros(x.shape());
                    sgemm(
                        Trans::No,
                        Trans::No,
                        n,
                        nin,
                        *nout,
                        1.0,
                        dy.as_slice(),
                        w,
                        0.0,
                        dx.as_mut_slice(),
                    );
                    accumulate(&mut grads[node.inputs[0]], dx);
                }
                LayerSpec::Add => {
                    accumulate(&mut grads[node.inputs[0]], dy.clone());
                    accumulate(&mut grads[node.inputs[1]], dy);
                }
                LayerSpec::Concat => {
                    let mut c_off = 0usize;
                    for &i in &node.inputs {
                        let s = acts[i].shape();
                        let mut dx = Tensor::zeros(s);
                        split_channels(&dy, &mut dx, c_off);
                        c_off += s.c;
                        accumulate(&mut grads[i], dx);
                    }
                }
                LayerSpec::GlobalAvgPool => {
                    let x = &acts[node.inputs[0]];
                    let mut dx = Tensor::zeros(x.shape());
                    h.pooling_backward(
                        &gap_desc(require_input(in_shape, &node.name)?),
                        1.0,
                        &tdesc(out_shape),
                        acts[id].as_slice(),
                        &tdesc(out_shape),
                        dy.as_slice(),
                        &tdesc(x.shape()),
                        x.as_slice(),
                        0.0,
                        &tdesc(x.shape()),
                        dx.as_mut_slice(),
                    )?;
                    accumulate(&mut grads[node.inputs[0]], dx);
                }
            }
        }
        let input_grad = grads[self.net.input()]
            .take()
            .unwrap_or_else(|| Tensor::zeros(self.net.input_shape()));
        Ok((pgrads, input_grad))
    }
}

fn accumulate(slot: &mut Option<Tensor>, t: Tensor) {
    match slot {
        Some(acc) => acc.axpby(1.0, &t, 1.0),
        None => *slot = Some(t),
    }
}

fn concat_forward(inputs: &[&Tensor], out: &mut Tensor) {
    let os = out.shape();
    let mut c_off = 0usize;
    for x in inputs {
        let s = x.shape();
        for ni in 0..s.n {
            for ci in 0..s.c {
                for hi in 0..s.h {
                    for wi in 0..s.w {
                        out.set(ni, c_off + ci, hi, wi, x.get(ni, ci, hi, wi));
                    }
                }
            }
        }
        c_off += s.c;
    }
    debug_assert_eq!(c_off, os.c);
}

fn split_channels(dy: &Tensor, dx: &mut Tensor, c_off: usize) {
    let s = dx.shape();
    for ni in 0..s.n {
        for ci in 0..s.c {
            for hi in 0..s.h {
                for wi in 0..s.w {
                    dx.set(ni, ci, hi, wi, dy.get(ni, c_off + ci, hi, wi));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkDef;
    use crate::provider::BaselineCudnn;
    use ucudnn_cudnn_sim::CudnnHandle;

    fn provider() -> BaselineCudnn {
        BaselineCudnn::new(CudnnHandle::real_cpu(), 1 << 20)
    }

    fn tiny_net(n: usize) -> NetworkDef {
        let mut net = NetworkDef::new("tiny", Shape4::new(n, 3, 8, 8));
        let c1 = net.conv_bn_relu("conv1", net.input(), 4, 3, 1, 1);
        let p = net.add(
            "pool",
            LayerSpec::Pool {
                max: true,
                kernel: 2,
                stride: 2,
                pad: 0,
            },
            &[c1],
        );
        let c2 = net.conv_relu("conv2", p, 6, 3, 1, 1);
        // Residual branch exercising Add and 1x1 conv.
        let sc = net.add(
            "proj",
            LayerSpec::Conv {
                out_channels: 6,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            &[p],
        );
        let sum = net.add("sum", LayerSpec::Add, &[c2, sc]);
        let gap = net.add("gap", LayerSpec::GlobalAvgPool, &[sum]);
        net.add("fc", LayerSpec::FullyConnected { out: 5 }, &[gap]);
        net
    }

    #[test]
    fn forward_produces_finite_activations() {
        let net = tiny_net(4);
        let exec = RealExecutor::new(net.clone(), 42);
        let x = Tensor::random(net.input_shape(), 1);
        let acts = exec.forward(&provider(), &x).unwrap();
        assert_eq!(acts.len(), net.len());
        for a in &acts {
            assert!(a.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    /// Central finite-difference check of the whole backward pass through a
    /// scalar loss `L = Σ out²/2` (so `dL/dout = out`).
    #[test]
    fn backward_matches_finite_differences() {
        let net = tiny_net(2);
        let mut exec = RealExecutor::new(net.clone(), 7);
        let p = provider();
        let x = Tensor::random(net.input_shape(), 2);
        let last = net.len() - 1;

        let loss = |e: &RealExecutor| -> f64 {
            let acts = e.forward(&p, &x).unwrap();
            acts[last]
                .as_slice()
                .iter()
                .map(|v| 0.5 * (*v as f64).powi(2))
                .sum()
        };
        let acts = exec.forward(&p, &x).unwrap();
        let dloss = acts[last].clone();
        let (pgrads, _) = exec.backward(&p, &acts, &dloss).unwrap();

        // Check a few parameters of each kind against finite differences.
        let eps = 1e-2f32;
        let mut checked = 0;
        #[allow(clippy::needless_range_loop)] // id indexes two parallel vecs
        for id in 0..net.len() {
            let picks: Vec<usize> = match &exec.params[id] {
                Params::Conv { w, .. } | Params::Fc { w, .. } => vec![0, w.len() / 2],
                Params::Bn { .. } => vec![0],
                Params::None => continue,
            };
            for &pi in &picks {
                let analytic = match &pgrads[id] {
                    Params::Conv { w, .. } | Params::Fc { w, .. } => w[pi] as f64,
                    Params::Bn { gamma, .. } => gamma[pi] as f64,
                    Params::None => continue,
                };
                let bump = |e: &mut RealExecutor, d: f32| match &mut e.params[id] {
                    Params::Conv { w, .. } | Params::Fc { w, .. } => w[pi] += d,
                    Params::Bn { gamma, .. } => gamma[pi] += d,
                    Params::None => {}
                };
                bump(&mut exec, eps);
                let lp = loss(&exec);
                bump(&mut exec, -2.0 * eps);
                let lm = loss(&exec);
                bump(&mut exec, eps);
                let numeric = (lp - lm) / (2.0 * eps as f64);
                let denom = analytic.abs().max(numeric.abs()).max(1e-2);
                assert!(
                    (analytic - numeric).abs() / denom < 0.08,
                    "node {id} param {pi}: analytic {analytic} vs numeric {numeric}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 6, "too few parameters checked: {checked}");
    }

    #[test]
    fn bias_gradients_flow_through_backward_bias() {
        // d/db <y, dy> with dy = 1 is N*Ho*Wo per output channel.
        let mut net = NetworkDef::new("t", Shape4::new(2, 1, 4, 4));
        net.add(
            "c",
            LayerSpec::Conv {
                out_channels: 3,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            &[0],
        );
        let exec = RealExecutor::new(net.clone(), 5);
        let p = provider();
        let x = Tensor::random(net.input_shape(), 6);
        let acts = exec.forward(&p, &x).unwrap();
        let dloss = Tensor::full(net.output_shape(1), 1.0);
        let (pgrads, _) = exec.backward(&p, &acts, &dloss).unwrap();
        let Params::Conv { b: db, .. } = &pgrads[1] else {
            panic!()
        };
        for v in db {
            assert!((v - (2 * 4 * 4) as f32).abs() < 1e-3, "bias grad {v}");
        }
    }

    #[test]
    fn concat_round_trips_through_backward() {
        let mut net = NetworkDef::new("t", Shape4::new(2, 2, 4, 4));
        let a = net.add(
            "a",
            LayerSpec::Conv {
                out_channels: 2,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            &[0],
        );
        let b = net.add(
            "b",
            LayerSpec::Conv {
                out_channels: 3,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            &[0],
        );
        net.add("cat", LayerSpec::Concat, &[a, b]);
        let exec = RealExecutor::new(net.clone(), 3);
        let p = provider();
        let x = Tensor::random(net.input_shape(), 4);
        let acts = exec.forward(&p, &x).unwrap();
        let last = net.len() - 1;
        assert_eq!(acts[last].shape().c, 5);
        let dloss = Tensor::full(net.output_shape(last), 1.0);
        let (pgrads, _) = exec.backward(&p, &acts, &dloss).unwrap();
        // Both branches must receive gradients.
        assert!(matches!(&pgrads[a], Params::Conv { w, .. } if w.iter().any(|v| *v != 0.0)));
        assert!(matches!(&pgrads[b], Params::Conv { w, .. } if w.iter().any(|v| *v != 0.0)));
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let mut net = NetworkDef::new("t", Shape4::new(1, 1, 2, 2));
        net.add(
            "p",
            LayerSpec::Pool {
                max: true,
                kernel: 2,
                stride: 2,
                pad: 0,
            },
            &[0],
        );
        let exec = RealExecutor::new(net.clone(), 1);
        let p = provider();
        let x = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 4.0, 2.0, 3.0]);
        let acts = exec.forward(&p, &x).unwrap();
        assert_eq!(acts[1].as_slice(), &[4.0]);
        let dloss = Tensor::full(Shape4::new(1, 1, 1, 1), 5.0);
        let (_, dx) = exec.backward(&p, &acts, &dloss).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_distributes_gradient() {
        let mut net = NetworkDef::new("t", Shape4::new(1, 1, 2, 2));
        net.add(
            "p",
            LayerSpec::Pool {
                max: false,
                kernel: 2,
                stride: 2,
                pad: 0,
            },
            &[0],
        );
        let exec = RealExecutor::new(net.clone(), 1);
        let p = provider();
        let x = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let acts = exec.forward(&p, &x).unwrap();
        assert_eq!(acts[1].as_slice(), &[2.5]);
        let dloss = Tensor::full(Shape4::new(1, 1, 1, 1), 4.0);
        let (_, dx) = exec.backward(&p, &acts, &dloss).unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn bn_output_is_normalized() {
        let mut net = NetworkDef::new("t", Shape4::new(4, 2, 4, 4));
        net.add("bn", LayerSpec::BatchNorm, &[0]);
        let mut exec = RealExecutor::new(net.clone(), 1);
        // Force identity scale/shift to observe the normalization itself.
        exec.params[1] = Params::Bn {
            gamma: vec![1.0, 1.0],
            beta: vec![0.0, 0.0],
        };
        let p = provider();
        let x = Tensor::random(net.input_shape(), 9);
        let acts = exec.forward(&p, &x).unwrap();
        let y = &acts[1];
        // Per-channel mean ~ 0, variance ~ 1.
        let s = y.shape();
        let m = (s.n * s.h * s.w) as f32;
        for c in 0..s.c {
            let mut mean = 0.0f32;
            let mut var = 0.0f32;
            for ni in 0..s.n {
                for hi in 0..s.h {
                    for wi in 0..s.w {
                        mean += y.get(ni, c, hi, wi);
                    }
                }
            }
            mean /= m;
            for ni in 0..s.n {
                for hi in 0..s.h {
                    for wi in 0..s.w {
                        let d = y.get(ni, c, hi, wi) - mean;
                        var += d * d;
                    }
                }
            }
            var /= m;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }
}
