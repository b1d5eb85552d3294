//! The `time` command: Caffe-style benchmark driver that averages
//! forward/backward iteration timings and prints a per-layer table.

use crate::exec_sim::{setup_network, time_iteration, IterationTiming};
use crate::graph::NetworkDef;
use crate::provider::{ConvProvider, ProviderError};
use ucudnn::telemetry::{HistStats, StreamingHistogram};

/// Aggregated result of a `time` run.
#[derive(Debug, Clone)]
pub struct TimeReport<'a> {
    /// Network name.
    pub network: String,
    /// Mini-batch size.
    pub batch: usize,
    /// Averaged per-layer timing.
    pub timing: IterationTiming<'a>,
    /// Iterations measured.
    pub iterations: usize,
    /// Provider workspace footprint after setup, bytes.
    pub workspace_bytes: usize,
    /// Streaming percentile summary of whole-iteration times.
    pub iteration_percentiles: HistStats,
    /// Per-layer (forward, backward) percentiles, same order as
    /// `timing.layers`.
    pub layer_percentiles: Vec<(HistStats, HistStats)>,
}

impl TimeReport<'_> {
    /// Average iteration time, milliseconds.
    pub fn iteration_ms(&self) -> f64 {
        self.timing.total_us() / 1000.0
    }

    /// Average convolution time per iteration, milliseconds.
    pub fn conv_ms(&self) -> f64 {
        self.timing.conv_us() / 1000.0
    }

    /// Render the per-layer table like Caffe's `time` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== {} (batch {}) — avg over {} iteration(s) ===\n",
            self.network, self.batch, self.iterations
        ));
        out.push_str(&format!(
            "{:<22} {:>6} {:>12} {:>12}\n",
            "layer", "kind", "forward(us)", "backward(us)"
        ));
        for l in &self.timing.layers {
            out.push_str(&format!(
                "{:<22} {:>6} {:>12.1} {:>12.1}\n",
                l.name, l.kind, l.forward_us, l.backward_us
            ));
        }
        out.push_str(&format!(
            "total {:.3} ms (convolutions {:.3} ms), workspace {:.1} MiB\n",
            self.iteration_ms(),
            self.conv_ms(),
            self.workspace_bytes as f64 / (1024.0 * 1024.0)
        ));
        out.push_str(&format!(
            "iteration p50 {:.1} us, p95 {:.1} us, p99 {:.1} us\n",
            self.iteration_percentiles.p50_us.unwrap_or(0.0),
            self.iteration_percentiles.p95_us.unwrap_or(0.0),
            self.iteration_percentiles.p99_us.unwrap_or(0.0)
        ));
        out
    }
}

/// Run the benchmark: setup (algorithm selection / optimization), then
/// `iterations` timed forward+backward passes, averaged.
///
/// # Errors
/// Setup or execution failures.
pub fn time_command<'a>(
    provider: &impl ConvProvider,
    net: &'a NetworkDef,
    iterations: usize,
) -> Result<TimeReport<'a>, ProviderError> {
    assert!(iterations > 0, "at least one iteration");
    setup_network(provider, net)?;
    let mut acc: Option<IterationTiming> = None;
    let mut iter_hist = StreamingHistogram::new();
    let mut layer_hists: Vec<(StreamingHistogram, StreamingHistogram)> = Vec::new();
    for i in 0..iterations {
        let _iter = ucudnn::trace::span("train", "iteration", move || {
            (
                format!("iter{i}"),
                ucudnn::json::obj([("iteration", ucudnn::json::num(i as f64))]),
            )
        });
        let t = time_iteration(provider, net)?;
        iter_hist.record(t.total_us());
        if layer_hists.is_empty() {
            layer_hists = t
                .layers
                .iter()
                .map(|_| (StreamingHistogram::new(), StreamingHistogram::new()))
                .collect();
        }
        for (h, l) in layer_hists.iter_mut().zip(&t.layers) {
            h.0.record(l.forward_us);
            h.1.record(l.backward_us);
        }
        match &mut acc {
            None => acc = Some(t),
            Some(a) => {
                for (al, tl) in a.layers.iter_mut().zip(&t.layers) {
                    al.forward_us += tl.forward_us;
                    al.backward_us += tl.backward_us;
                }
            }
        }
    }
    let mut timing = acc.expect("at least one iteration ran");
    for l in &mut timing.layers {
        l.forward_us /= iterations as f64;
        l.backward_us /= iterations as f64;
    }
    Ok(TimeReport {
        network: net.name.clone(),
        batch: net.batch(),
        timing,
        iterations,
        workspace_bytes: provider.workspace_bytes(),
        iteration_percentiles: iter_hist.cumulative(),
        layer_percentiles: layer_hists
            .into_iter()
            .map(|(f, b)| (f.cumulative(), b.cumulative()))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::alexnet;
    use crate::provider::BaselineCudnn;
    use ucudnn_cudnn_sim::CudnnHandle;
    use ucudnn_gpu_model::p100_sxm2;

    const MIB: usize = 1024 * 1024;

    #[test]
    fn time_command_runs_alexnet() {
        let net = alexnet(64);
        let p = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
        let r = time_command(&p, &net, 3).unwrap();
        assert_eq!(r.iterations, 3);
        assert!(r.iteration_ms() > 0.0);
        assert!(r.conv_ms() < r.iteration_ms());
        let rendered = r.render();
        assert!(rendered.contains("conv2"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn averaging_is_stable_on_the_deterministic_model() {
        let net = alexnet(32);
        let p = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
        let r1 = time_command(&p, &net, 1).unwrap();
        let r5 = time_command(&p, &net, 5).unwrap();
        assert!((r1.iteration_ms() - r5.iteration_ms()).abs() < 1e-9);
    }
}
