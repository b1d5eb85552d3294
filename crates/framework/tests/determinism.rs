//! Execution-substrate determinism: the training trajectory is
//! byte-identical with the plan cache on or off and at every execution
//! thread count.
//!
//! The fast path earns its keep only if it is invisible to numerics: packed
//! panels and cached Winograd filter transforms must reproduce the uncached
//! computation bit for bit, and the batch-parallel engines must not let the
//! thread split leak into results. This test pins all of it end to end —
//! per-step losses (f64 bits) and final parameters (f32 bits) across cache
//! on/off × thread caps {1, 2, 8}, for a network whose convolutions run
//! inline and for one whose convolutions are large enough to split across
//! the workers.

use std::collections::HashMap;
use std::sync::Mutex;
use ucudnn_cudnn_sim::{
    ConvAlgo, ConvOp, ConvolutionDescriptor, CudnnHandle, FilterDescriptor, TensorDescriptor,
};
use ucudnn_framework::{
    train, ConvProvider, LayerSpec, NetworkDef, Params, ProviderError, RealExecutor,
    SyntheticDataset,
};
use ucudnn_tensor::{ConvGeometry, Shape4};

/// A provider pinned to `ALGO_GEMM` for every kernel. `BaselineCudnn`
/// deliberately mimics the real autotuner — it ranks algorithms by measured
/// wall time, so its *choice* is machine-noise dependent. Determinism is a
/// property of execution given an algorithm, so the test pins one (the
/// plan-cached packed-GEMM engine, exactly the path under test).
struct PinnedGemm {
    handle: CudnnHandle,
    workspaces: Mutex<HashMap<(ConvOp, ConvGeometry), Vec<f32>>>,
}

impl PinnedGemm {
    fn new(handle: CudnnHandle) -> Self {
        Self {
            handle,
            workspaces: Mutex::new(HashMap::new()),
        }
    }
}

fn descriptors(
    g: &ConvGeometry,
) -> (
    TensorDescriptor,
    FilterDescriptor,
    ConvolutionDescriptor,
    TensorDescriptor,
) {
    (
        TensorDescriptor::from_shape(g.input).unwrap(),
        FilterDescriptor::from_shape(g.filter).unwrap(),
        ConvolutionDescriptor::new_2d(g.pad_h, g.pad_w, g.stride_h, g.stride_w).unwrap(),
        TensorDescriptor::from_shape(g.output()).unwrap(),
    )
}

impl ConvProvider for PinnedGemm {
    fn setup(&self, op: ConvOp, g: &ConvGeometry) -> Result<(), ProviderError> {
        let (xd, wd, cd, _) = descriptors(g);
        let bytes = self
            .handle
            .get_workspace_size(op, &xd, &wd, &cd, ConvAlgo::Gemm)?;
        self.workspaces
            .lock()
            .unwrap()
            .insert((op, *g), vec![0.0f32; bytes.div_ceil(4)]);
        Ok(())
    }

    fn execute(
        &self,
        op: ConvOp,
        g: &ConvGeometry,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        alpha: f32,
        beta: f32,
    ) -> Result<(), ProviderError> {
        if !self.workspaces.lock().unwrap().contains_key(&(op, *g)) {
            self.setup(op, g)?;
        }
        let (xd, wd, cd, yd) = descriptors(g);
        let mut wss = self.workspaces.lock().unwrap();
        let ws = wss.get_mut(&(op, *g)).expect("setup ran above");
        let algo = ConvAlgo::Gemm;
        match op {
            ConvOp::Forward => self
                .handle
                .convolution_forward(alpha, &xd, a, &wd, b, &cd, algo, ws, beta, &yd, out)?,
            ConvOp::BackwardData => self
                .handle
                .convolution_backward_data(alpha, &wd, b, &yd, a, &cd, algo, ws, beta, &xd, out)?,
            ConvOp::BackwardFilter => self.handle.convolution_backward_filter(
                alpha, &xd, a, &yd, b, &cd, algo, ws, beta, &wd, out,
            )?,
        }
        Ok(())
    }

    fn handle(&self) -> &CudnnHandle {
        &self.handle
    }

    fn workspace_bytes(&self) -> usize {
        4 * self
            .workspaces
            .lock()
            .unwrap()
            .values()
            .map(Vec::len)
            .sum::<usize>()
    }

    fn kernel_workspace_bytes(&self, op: ConvOp, g: &ConvGeometry) -> usize {
        self.workspaces
            .lock()
            .unwrap()
            .get(&(op, *g))
            .map(|v| 4 * v.len())
            .unwrap_or(0)
    }
}

fn tiny_classifier(n: usize) -> NetworkDef {
    let mut net = NetworkDef::new("clf", Shape4::new(n, 2, 8, 8));
    let c1 = net.conv_relu("conv1", net.input(), 6, 3, 1, 1);
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
    let c2 = net.conv_relu("conv2", p, 8, 3, 1, 1);
    let gap = net.add("gap", LayerSpec::GlobalAvgPool, &[c2]);
    net.add("fc", LayerSpec::FullyConnected { out: 3 }, &[gap]);
    net
}

/// Two 3x3 layers of 64 output channels at batch 8: every call carries at
/// least two workers' worth of multiply-adds, so the engines split it.
fn split_classifier(n: usize) -> NetworkDef {
    let mut net = NetworkDef::new("split", Shape4::new(n, 16, 16, 16));
    let c1 = net.conv_relu("conv1", net.input(), 64, 3, 1, 1);
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
    let c2 = net.conv_relu("conv2", p, 64, 3, 1, 1);
    let gap = net.add("gap", LayerSpec::GlobalAvgPool, &[c2]);
    net.add("fc", LayerSpec::FullyConnected { out: 3 }, &[gap]);
    net
}

/// Train 4 steps of `net` on a fresh executor/dataset; return per-step loss
/// bits and a flat bit-dump of every learned parameter.
fn run(net: &NetworkDef, cache_bytes: Option<usize>, thread_cap: usize) -> (Vec<u64>, Vec<u32>) {
    // The thread cap is process-global: runs take turns.
    static CAP: Mutex<()> = Mutex::new(());
    let _serial = CAP.lock().unwrap_or_else(|e| e.into_inner());
    let prev = ucudnn_conv::parallel::set_thread_cap(Some(thread_cap));
    let handle = match cache_bytes {
        Some(b) => CudnnHandle::real_cpu().with_exec_cache_bytes(b),
        None => CudnnHandle::real_cpu(),
    };
    // Only the default-capacity cache is expected to produce hits: the
    // tiny-cache config thrashes (every insertion evicts a neighbor), which
    // is the point — eviction must be invisible too.
    let expect_hits = cache_bytes.is_none();
    let provider = PinnedGemm::new(handle);
    let mut exec = RealExecutor::new(net.clone(), 77);
    let mut data = SyntheticDataset::new(net.input_shape().with_batch(1), 3, 99);
    let losses = train(&mut exec, &provider, &mut data, 4, 0.05).unwrap();
    if expect_hits {
        let stats = provider.handle().exec_cache_stats();
        assert!(
            stats.hits > 0,
            "a 4-step cached run must revisit cached plans (stats: {stats:?})"
        );
    }
    ucudnn_conv::parallel::set_thread_cap(prev);
    let loss_bits = losses.iter().map(|l| l.to_bits()).collect();
    let mut param_bits = Vec::new();
    for p in &exec.params {
        match p {
            Params::Conv { w, b } | Params::Fc { w, b } => {
                param_bits.extend(w.iter().map(|v| v.to_bits()));
                param_bits.extend(b.iter().map(|v| v.to_bits()));
            }
            Params::Bn { gamma, beta } => {
                param_bits.extend(gamma.iter().map(|v| v.to_bits()));
                param_bits.extend(beta.iter().map(|v| v.to_bits()));
            }
            Params::None => {}
        }
    }
    (loss_bits, param_bits)
}

#[test]
fn training_is_bit_identical_across_cache_and_thread_configs() {
    // Baseline: default cache, single-threaded execution.
    let net = tiny_classifier(8);
    let want = run(&net, None, 1);
    assert_eq!(want.0.len(), 4);
    assert!(!want.1.is_empty());
    for (label, cache_bytes, threads) in [
        ("cache on, 2 threads", None, 2),
        ("cache on, 8 threads", None, 8),
        ("cache off, 1 thread", Some(0), 1),
        ("cache off, 8 threads", Some(0), 8),
        ("tiny 4 KiB cache (thrashing), 2 threads", Some(4 << 10), 2),
    ] {
        let got = run(&net, cache_bytes, threads);
        assert_eq!(got.0, want.0, "losses diverged: {label}");
        assert_eq!(got.1, want.1, "parameters diverged: {label}");
    }
}

#[test]
fn split_convolutions_train_bit_identically_at_every_thread_cap() {
    let net = split_classifier(8);
    for id in net.conv_layers() {
        let g = net.conv_geometry(id);
        assert!(
            g.macs() >= 2 * ucudnn_conv::parallel::MIN_MACS_PER_WORKER,
            "{g} is too small to split"
        );
    }
    let want = run(&net, None, 1);
    for threads in [2, 3, 8] {
        let got = run(&net, None, threads);
        assert_eq!(got.0, want.0, "losses diverged at {threads} threads");
        assert_eq!(got.1, want.1, "parameters diverged at {threads} threads");
    }
    let got = run(&net, Some(0), 2);
    assert_eq!(got, want, "cache off, 2 threads diverged");
}
