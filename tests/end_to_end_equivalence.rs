//! End-to-end numerical-equivalence tests (real CPU arithmetic): a full
//! training step executed through μ-cuDNN — which splits every convolution
//! into micro-batches — must match the undivided plain-cuDNN step.
//!
//! This validates the paper's central safety claim (§II): loop splitting of
//! the mini-batch dimension, with `beta = 1` accumulation for
//! BackwardFilter, leaves computational semantics unchanged.

use ucudnn::{BatchSizePolicy, OptimizerMode, UcudnnHandle, UcudnnOptions};
use ucudnn_cudnn_sim::{ConvAlgo, CudnnHandle, FaultPlan, FaultSite, FaultTarget};
use ucudnn_framework::{BaselineCudnn, ConvProvider, LayerSpec, NetworkDef, Params, RealExecutor};
use ucudnn_tensor::{max_rel_diff, Shape4, Tensor};

/// μ-cuDNN on the CPU engine for a mini-batch of `batch` samples, with
/// every benchmark at that size faulted, plus the benchmark faults in
/// `faults`. WR then has no undivided point to choose, so every
/// convolution divides. A workspace limit cannot force that here: no CPU
/// GEMM algorithm needs a workspace.
fn micro_handle(batch: usize, ws_bytes: usize, faults: &[FaultTarget]) -> UcudnnHandle {
    let undivided = FaultTarget {
        site: Some(FaultSite::Benchmark),
        micro_batch: Some(batch),
        ..FaultTarget::any()
    };
    let mut targets = faults.to_vec();
    targets.push(undivided);
    UcudnnHandle::new(
        CudnnHandle::real_cpu().with_faults(FaultPlan {
            targets,
            ..FaultPlan::default()
        }),
        UcudnnOptions {
            policy: BatchSizePolicy::All,
            workspace_limit_bytes: ws_bytes,
            mode: OptimizerMode::Wr,
            ..Default::default()
        },
    )
}

fn assert_params_close(a: &[Params], b: &[Params], tol: f32) {
    for (pa, pb) in a.iter().zip(b) {
        let (wa, wb): (&[f32], &[f32]) = match (pa, pb) {
            (Params::Conv { w: x, .. }, Params::Conv { w: y, .. }) => (x, y),
            (Params::Fc { w: x, .. }, Params::Fc { w: y, .. }) => (x, y),
            (Params::Bn { gamma: x, .. }, Params::Bn { gamma: y, .. }) => (x, y),
            (Params::None, Params::None) => continue,
            other => panic!("parameter kind mismatch: {other:?}"),
        };
        for (x, y) in wa.iter().zip(wb) {
            let d = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
            assert!(d <= tol, "gradient mismatch {x} vs {y} (rel {d:.3e})");
        }
    }
}

/// Run one training step with both providers and compare everything.
fn check_equivalence(net: NetworkDef, seed: u64, ws_bytes: usize, tol: f32) {
    let exec = RealExecutor::new(net.clone(), seed);
    let x = Tensor::random(net.input_shape(), seed + 1);
    let last = net.len() - 1;
    let dloss = Tensor::random(net.output_shape(last), seed + 2);

    let base = BaselineCudnn::new(CudnnHandle::real_cpu(), 64 << 20);
    let acts_ref = exec.forward(&base, &x).unwrap();
    let (grads_ref, dx_ref) = exec.backward(&base, &acts_ref, &dloss).unwrap();

    let mu = micro_handle(net.input_shape().n, ws_bytes, &[]);
    let acts_mu = exec.forward(&mu, &x).unwrap();
    let (grads_mu, dx_mu) = exec.backward(&mu, &acts_mu, &dloss).unwrap();

    // The plan must actually split, or the test proves nothing. It does by
    // construction: `micro_handle` faults the undivided benchmarks.
    assert!(
        mu.inner().kernels_launched() > base.handle().kernels_launched(),
        "workspace limit did not force micro-batching"
    );

    assert!(
        max_rel_diff(&acts_ref[last], &acts_mu[last]) <= tol,
        "outputs diverge"
    );
    assert!(
        max_rel_diff(&dx_ref, &dx_mu) <= tol,
        "input gradients diverge"
    );
    assert_params_close(&grads_ref, &grads_mu, tol);
}

fn plain_cnn() -> NetworkDef {
    let mut net = NetworkDef::new("cnn", Shape4::new(10, 3, 12, 12));
    let c1 = net.conv_relu("conv1", net.input(), 8, 5, 1, 2);
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
    let c2 = net.conv_relu("conv2", p, 12, 3, 1, 1);
    net.add("fc", LayerSpec::FullyConnected { out: 7 }, &[c2]);
    net
}

/// BatchNorm couples samples across the batch — but μ-cuDNN never splits
/// BN, so the step must still match exactly (up to f32 reassociation).
fn residual_block() -> NetworkDef {
    let mut net = NetworkDef::new("res", Shape4::new(9, 4, 10, 10));
    let c1 = net.conv_bn_relu("conv1", net.input(), 8, 3, 1, 1);
    let c2 = net.add(
        "conv2",
        LayerSpec::Conv {
            out_channels: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        &[c1],
    );
    let b2 = net.add("conv2.bn", LayerSpec::BatchNorm, &[c2]);
    let sum = net.add("add", LayerSpec::Add, &[b2, c1]);
    let r = net.add("relu", LayerSpec::Relu, &[sum]);
    let gap = net.add("gap", LayerSpec::GlobalAvgPool, &[r]);
    net.add("fc", LayerSpec::FullyConnected { out: 4 }, &[gap]);
    net
}

/// DenseNet-style concatenation.
fn concat_network() -> NetworkDef {
    let mut net = NetworkDef::new("dense", Shape4::new(6, 3, 8, 8));
    let c1 = net.add(
        "c1",
        LayerSpec::Conv {
            out_channels: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        &[0],
    );
    let cat1 = net.add("cat1", LayerSpec::Concat, &[0, c1]);
    let c2 = net.add(
        "c2",
        LayerSpec::Conv {
            out_channels: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        &[cat1],
    );
    let cat2 = net.add("cat2", LayerSpec::Concat, &[cat1, c2]);
    net.add("fc", LayerSpec::FullyConnected { out: 3 }, &[cat2]);
    net
}

/// A prime batch size cannot be split uniformly; the DP must still tile it
/// exactly and the numerics must hold.
fn odd_batch_network() -> NetworkDef {
    let mut net = NetworkDef::new("odd", Shape4::new(13, 2, 9, 9));
    let c1 = net.conv_relu("conv1", net.input(), 6, 3, 1, 1);
    net.add("fc", LayerSpec::FullyConnected { out: 5 }, &[c1]);
    net
}

/// Stride > 1 excludes FFT/Winograd; only GEMM-family algorithms apply,
/// and splitting must still be exact.
fn strided_network() -> NetworkDef {
    let mut net = NetworkDef::new("strided", Shape4::new(8, 3, 17, 17));
    let c1 = net.conv_relu("conv1", net.input(), 6, 5, 2, 2);
    let c2 = net.conv_relu("conv2", c1, 8, 3, 2, 1);
    net.add("fc", LayerSpec::FullyConnected { out: 4 }, &[c2]);
    net
}

#[test]
fn plain_cnn_step_is_preserved() {
    check_equivalence(plain_cnn(), 11, 64 << 10, 1e-3);
}

#[test]
fn residual_block_with_batchnorm_is_preserved() {
    check_equivalence(residual_block(), 23, 48 << 10, 1e-3);
}

#[test]
fn concat_network_is_preserved() {
    check_equivalence(concat_network(), 37, 32 << 10, 1e-3);
}

#[test]
fn odd_batch_sizes_are_tiled_exactly() {
    check_equivalence(odd_batch_network(), 41, 16 << 10, 1e-3);
}

#[test]
fn strided_convolutions_are_preserved() {
    check_equivalence(strided_network(), 53, 8 << 10, 1e-3);
}

/// Panics, naming the first differing element, unless `got` and `want`
/// hold the same bits (so `-0.0` differs from `0.0`).
fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: lengths differ");
    if let Some(i) = got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        panic!("{what}: element {i} is {} against {}", got[i], want[i]);
    }
}

fn param_slices(p: &Params) -> Vec<&[f32]> {
    match p {
        Params::None => Vec::new(),
        Params::Conv { w, b } | Params::Fc { w, b } => vec![w, b],
        Params::Bn { gamma, beta } => vec![gamma, beta],
    }
}

#[test]
fn micro_batched_gemm_steps_equal_the_undivided_step_bit_for_bit() {
    // With both Winograd algorithms faulted on both handles, the baseline
    // and every micro-batch run the one implicit-GEMM engine, whose divided
    // calls equal its undivided call bit for bit (DESIGN.md §6). So must a
    // whole training step, although μ-cuDNN divides every convolution.
    let winograd: Vec<FaultTarget> = [ConvAlgo::Winograd, ConvAlgo::WinogradNonfused]
        .map(|algo| FaultTarget {
            site: Some(FaultSite::Benchmark),
            ..FaultTarget::algo(algo)
        })
        .to_vec();
    for (net, seed, ws_bytes) in [
        (plain_cnn(), 11, 64 << 10),
        (residual_block(), 23, 48 << 10),
        (concat_network(), 37, 32 << 10),
        (odd_batch_network(), 41, 16 << 10),
        (strided_network(), 53, 8 << 10),
    ] {
        let name = net.name.clone();
        let exec = RealExecutor::new(net.clone(), seed);
        let x = Tensor::random(net.input_shape(), seed + 1);
        let last = net.len() - 1;
        let dloss = Tensor::random(net.output_shape(last), seed + 2);

        let base = BaselineCudnn::new(
            CudnnHandle::real_cpu().with_faults(FaultPlan {
                targets: winograd.clone(),
                ..FaultPlan::default()
            }),
            64 << 20,
        );
        let acts_ref = exec.forward(&base, &x).unwrap();
        let (grads_ref, dx_ref) = exec.backward(&base, &acts_ref, &dloss).unwrap();

        let mu = micro_handle(net.input_shape().n, ws_bytes, &winograd);
        let acts_mu = exec.forward(&mu, &x).unwrap();
        let (grads_mu, dx_mu) = exec.backward(&mu, &acts_mu, &dloss).unwrap();

        let plans = mu.memory_report();
        assert!(!plans.is_empty(), "{name}: no plans");
        for (kernel, config, _) in &plans {
            assert!(config.micros.len() > 1, "{name}: {kernel} ran undivided");
            assert!(
                config
                    .micros
                    .iter()
                    .all(|m| !matches!(m.algo, ConvAlgo::Winograd | ConvAlgo::WinogradNonfused)),
                "{name}: {kernel} planned a faulted algorithm: {config}"
            );
        }
        assert_same_bits(
            &format!("{name}: output"),
            acts_mu[last].as_slice(),
            acts_ref[last].as_slice(),
        );
        assert_same_bits(
            &format!("{name}: input gradient"),
            dx_mu.as_slice(),
            dx_ref.as_slice(),
        );
        assert_eq!(grads_mu.len(), grads_ref.len());
        for (i, (pm, pr)) in grads_mu.iter().zip(&grads_ref).enumerate() {
            for (got, want) in param_slices(pm).into_iter().zip(param_slices(pr)) {
                assert_same_bits(&format!("{name}: gradient of node {i}"), got, want);
            }
        }
    }
}

#[test]
fn repeated_steps_reuse_plans_and_stay_consistent() {
    // Two consecutive steps through the same handle must produce identical
    // results (plans are cached, workspaces reused).
    let mut net = NetworkDef::new("twice", Shape4::new(6, 2, 8, 8));
    let c1 = net.conv_relu("conv1", net.input(), 4, 3, 1, 1);
    net.add("fc", LayerSpec::FullyConnected { out: 3 }, &[c1]);
    let exec = RealExecutor::new(net.clone(), 61);
    let x = Tensor::random(net.input_shape(), 62);
    let mu = micro_handle(6, 16 << 10, &[]);
    let a1 = exec.forward(&mu, &x).unwrap();
    let a2 = exec.forward(&mu, &x).unwrap();
    let last = net.len() - 1;
    assert_eq!(
        a1[last], a2[last],
        "repeated execution must be bitwise identical"
    );
    // Optimization ran once: the second pass hit the plan cache.
    let stats = mu.cache_stats();
    assert!(stats.misses > 0);
}
