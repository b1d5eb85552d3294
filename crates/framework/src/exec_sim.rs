//! The simulated-timing executor: runs one training iteration against the
//! performance model and reports a per-layer breakdown — the equivalent of
//! Caffe's `time` command on the simulated GPU.

use crate::cost::{layer_backward_us, layer_forward_us};
use crate::graph::{LayerSpec, NetworkDef};
use crate::provider::{ConvProvider, ProviderError};
use ucudnn_cudnn_sim::{ConvOp, CudnnError};

/// Per-layer timing of one forward+backward iteration.
#[derive(Debug, Clone)]
pub struct LayerTiming<'a> {
    /// Layer name, borrowed from the network.
    pub name: &'a str,
    /// Layer kind ("conv", "pool", ...).
    pub kind: &'static str,
    /// Forward time, microseconds.
    pub forward_us: f64,
    /// Backward time (BackwardData + BackwardFilter for convolutions).
    pub backward_us: f64,
}

/// One iteration's timing report.
#[derive(Debug, Clone)]
pub struct IterationTiming<'a> {
    /// Per-layer rows, topological order.
    pub layers: Vec<LayerTiming<'a>>,
}

impl IterationTiming<'_> {
    /// Total forward time.
    pub fn forward_us(&self) -> f64 {
        self.layers.iter().map(|l| l.forward_us).sum()
    }

    /// Total backward time.
    pub fn backward_us(&self) -> f64 {
        self.layers.iter().map(|l| l.backward_us).sum()
    }

    /// Total iteration time.
    pub fn total_us(&self) -> f64 {
        self.forward_us() + self.backward_us()
    }

    /// Time spent in convolution layers only (the paper reports speedups
    /// both for convolutions alone and for the entire iteration).
    pub fn conv_us(&self) -> f64 {
        self.layers
            .iter()
            .filter(|l| l.kind == "conv")
            .map(|l| l.forward_us + l.backward_us)
            .sum()
    }
}

/// Register every convolution kernel of the network with the provider
/// (the framework's initialization pass), then finalize (triggers WD).
///
/// The kernels are collected first and handed to the provider in one
/// [`ConvProvider::prepare`] call, so an optimizing provider can fan the
/// per-kernel optimization over worker threads instead of being driven
/// one `setup` at a time.
///
/// # Errors
/// Setup/optimization failures.
pub fn setup_network(provider: &impl ConvProvider, net: &NetworkDef) -> Result<(), ProviderError> {
    let mut kernels = Vec::new();
    for id in net.conv_layers() {
        let g = net.conv_geometry(id);
        kernels.push((ConvOp::Forward, g));
        if net.needs_backward_data(id) {
            kernels.push((ConvOp::BackwardData, g));
        }
        kernels.push((ConvOp::BackwardFilter, g));
    }
    provider.prepare(&kernels)?;
    provider.finalize()
}

/// Run one simulated forward+backward iteration and return the breakdown.
///
/// Convolution layers execute through the provider (empty data buffers) and
/// are timed by the virtual clock; all other layers are priced by the cost
/// model in [`crate::cost`]. Once every kernel is set up, an untraced
/// iteration allocates its report and nothing else.
///
/// # Errors
/// `NotSupported` when the provider's engine is not simulated; execution
/// failures.
pub fn time_iteration<'a>(
    provider: &impl ConvProvider,
    net: &'a NetworkDef,
) -> Result<IterationTiming<'a>, ProviderError> {
    let Some(device) = provider.handle().device() else {
        return Err(CudnnError::NotSupported(
            "time_iteration requires the simulated engine; use exec_real for CPU numerics".into(),
        )
        .into());
    };
    let mut layers: Vec<LayerTiming<'a>> = Vec::with_capacity(net.len());

    // Forward pass, topological order.
    for (id, node) in net.nodes().iter().enumerate() {
        let forward_us = match &node.spec {
            LayerSpec::Conv { .. } => {
                let g = net.conv_geometry(id);
                conv_time(provider, ConvOp::Forward, &g)?
            }
            _ => layer_forward_us(device, net, id),
        };
        ucudnn::trace::event("train", "sim_forward", || {
            (
                node.name.clone(),
                ucudnn::json::obj([
                    ("node", ucudnn::json::num(id as f64)),
                    (
                        "kind",
                        ucudnn::json::Value::Str(node.spec.kind_name().to_string()),
                    ),
                    ("modeled_us", ucudnn::json::num(forward_us)),
                ]),
            )
        });
        layers.push(LayerTiming {
            name: &node.name,
            kind: node.spec.kind_name(),
            forward_us,
            backward_us: 0.0,
        });
    }

    // Backward pass, reverse order.
    for (id, node) in net.nodes().iter().enumerate().rev() {
        let backward_us = match &node.spec {
            LayerSpec::Conv { .. } => {
                let g = net.conv_geometry(id);
                let mut t = conv_time(provider, ConvOp::BackwardFilter, &g)?;
                if net.needs_backward_data(id) {
                    t += conv_time(provider, ConvOp::BackwardData, &g)?;
                }
                t
            }
            LayerSpec::Input => 0.0,
            _ => layer_backward_us(device, net, id),
        };
        ucudnn::trace::event("train", "sim_backward", || {
            (
                node.name.clone(),
                ucudnn::json::obj([
                    ("node", ucudnn::json::num(id as f64)),
                    (
                        "kind",
                        ucudnn::json::Value::Str(node.spec.kind_name().to_string()),
                    ),
                    ("modeled_us", ucudnn::json::num(backward_us)),
                ]),
            )
        });
        layers[id].backward_us = backward_us;
    }

    Ok(IterationTiming { layers })
}

/// Execute one conv kernel on the simulated engine and return the virtual
/// clock delta.
fn conv_time(
    provider: &impl ConvProvider,
    op: ConvOp,
    g: &ucudnn_tensor::ConvGeometry,
) -> Result<f64, ProviderError> {
    let before = provider.handle().elapsed_us();
    provider.execute(op, g, &[], &[], &mut [], 1.0, 0.0)?;
    Ok(provider.handle().elapsed_us() - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkDef;
    use crate::provider::BaselineCudnn;
    use ucudnn::{OptimizerMode, UcudnnHandle, UcudnnOptions};
    use ucudnn_cudnn_sim::CudnnHandle;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::Shape4;

    const MIB: usize = 1024 * 1024;

    /// AlexNet's front half, small enough for fast tests.
    fn small_net(n: usize) -> NetworkDef {
        let mut net = NetworkDef::new("small", Shape4::new(n, 3, 32, 32));
        let c1 = net.conv_relu("conv1", net.input(), 16, 5, 1, 2);
        let p1 = net.add(
            "pool1",
            LayerSpec::Pool {
                max: true,
                kernel: 2,
                stride: 2,
                pad: 0,
            },
            &[c1],
        );
        let c2 = net.conv_relu("conv2", p1, 32, 5, 1, 2);
        let c3 = net.conv_relu("conv3", c2, 32, 3, 1, 1);
        net.add("fc", LayerSpec::FullyConnected { out: 10 }, &[c3]);
        net
    }

    #[test]
    fn baseline_iteration_produces_full_breakdown() {
        let net = small_net(64);
        let p = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
        setup_network(&p, &net).unwrap();
        let t = time_iteration(&p, &net).unwrap();
        assert_eq!(t.layers.len(), net.len());
        assert!(t.total_us() > 0.0);
        assert!(t.conv_us() > 0.0);
        assert!(t.conv_us() <= t.total_us());
        // First conv has no BackwardData; its backward is BackwardFilter only.
        let conv1 = t.layers.iter().find(|l| l.name == "conv1").unwrap();
        assert!(conv1.backward_us > 0.0);
    }

    #[test]
    fn ucudnn_is_not_slower_than_baseline() {
        // The end-to-end invariant behind Fig. 10: for any limit, μ-cuDNN's
        // optimized iteration time is ≤ the baseline's (same model, DP
        // optimum includes the undivided configuration).
        let net = small_net(64);
        for limit in [8 * MIB, 64 * MIB, 512 * MIB] {
            let base = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), limit);
            setup_network(&base, &net).unwrap();
            let tb = time_iteration(&base, &net).unwrap();

            let mu = UcudnnHandle::new(
                CudnnHandle::simulated(p100_sxm2()),
                UcudnnOptions {
                    workspace_limit_bytes: limit,
                    ..Default::default()
                },
            );
            setup_network(&mu, &net).unwrap();
            let tm = time_iteration(&mu, &net).unwrap();

            assert!(
                tm.total_us() <= tb.total_us() + 1e-6,
                "limit {limit}: ucudnn {} vs baseline {}",
                tm.total_us(),
                tb.total_us()
            );
        }
    }

    /// Each optimization interval is counted once, so the handle's
    /// optimization wall time never exceeds the set-up that spent it.
    #[test]
    fn optimization_wall_time_is_within_the_set_up_time() {
        let net = small_net(64);
        for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
            let mu = UcudnnHandle::new(
                CudnnHandle::simulated(p100_sxm2()),
                UcudnnOptions {
                    workspace_limit_bytes: 64 * MIB,
                    mode,
                    ..Default::default()
                },
            );
            let start = std::time::Instant::now();
            setup_network(&mu, &net).unwrap();
            let measured_us = start.elapsed().as_secs_f64() * 1e6;
            let opt_us = mu.optimization_wall_us();
            assert!(
                opt_us > 0.0 && opt_us <= measured_us,
                "{mode:?}: {opt_us} µs of optimization in a {measured_us} µs set-up"
            );
        }
    }

    /// The metrics hold the optimization wall time from the moment it is
    /// spent: the phase timings read it right after set-up, before any
    /// export.
    #[test]
    fn set_up_records_its_wall_time_into_the_metrics() {
        let net = small_net(64);
        for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
            let mu = UcudnnHandle::new(
                CudnnHandle::simulated(p100_sxm2()),
                UcudnnOptions {
                    workspace_limit_bytes: 64 * MIB,
                    mode,
                    ..Default::default()
                },
            );
            setup_network(&mu, &net).unwrap();
            let total_us = mu.metrics().timings().total_us;
            assert!(total_us > 0, "{mode:?}: no wall time in the metrics");
            assert_eq!(total_us, mu.optimization_wall_us() as u64, "{mode:?}");
        }
    }

    #[test]
    fn deterministic_timing() {
        let net = small_net(32);
        let p = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
        setup_network(&p, &net).unwrap();
        let a = time_iteration(&p, &net).unwrap();
        let b = time_iteration(&p, &net).unwrap();
        // Clock deltas can differ by one ULP as the accumulator grows.
        assert!((a.total_us() - b.total_us()).abs() < 1e-9 * a.total_us());
    }

    /// Timing needs the virtual clock: a CPU provider is an error, not a
    /// panic.
    #[test]
    fn a_real_cpu_provider_is_an_error() {
        let net = small_net(2);
        let p = BaselineCudnn::new(CudnnHandle::real_cpu(), 64 * MIB);
        let err = time_iteration(&p, &net).unwrap_err();
        assert!(
            matches!(err, ProviderError::Cudnn(CudnnError::NotSupported(_))),
            "{err}"
        );
    }

    #[test]
    fn non_conv_layers_have_model_costs() {
        let net = small_net(32);
        let p = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
        setup_network(&p, &net).unwrap();
        let t = time_iteration(&p, &net).unwrap();
        let pool = t.layers.iter().find(|l| l.kind == "pool").unwrap();
        let fc = t.layers.iter().find(|l| l.kind == "fc").unwrap();
        assert!(pool.forward_us > 0.0 && pool.backward_us > 0.0);
        assert!(fc.forward_us > 0.0 && fc.backward_us > 0.0);
    }
}
