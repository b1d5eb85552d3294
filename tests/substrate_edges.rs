//! Edge-of-the-envelope cases across the whole stack: degenerate shapes,
//! single-sample batches, empty kernel sets — places where off-by-ones and
//! unchecked divisions like to hide.

use ucudnn::{optimize_wd, optimize_wr, BatchSizePolicy, BenchCache, KernelKey};
use ucudnn_conv::{direct, exec, supports, workspace_floats, ConvOp, EngineKind};
use ucudnn_cudnn_sim::CudnnHandle;
use ucudnn_gpu_model::{algo_supported, p100_sxm2, ConvAlgo};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4, Tensor};

/// The smallest possible convolution: 1×1×1×1 input, 1×1 kernel.
#[test]
fn one_by_one_everything() {
    let g = ConvGeometry::with_square(Shape4::new(1, 1, 1, 1), FilterShape::new(1, 1, 1, 1), 0, 1);
    let x = Tensor::full(g.input, 3.0);
    let w = Tensor::full(g.filter.as_shape4(), 2.0);
    for engine in EngineKind::ALL {
        if !supports(engine, ConvOp::Forward, &g) {
            continue;
        }
        let mut y = Tensor::zeros(g.output());
        let mut ws = vec![0.0; workspace_floats(engine, ConvOp::Forward, &g)];
        exec(
            engine,
            ConvOp::Forward,
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        )
        .unwrap();
        assert!(
            (y.as_slice()[0] - 6.0).abs() < 1e-5,
            "{engine:?} got {}",
            y.as_slice()[0]
        );
    }
}

/// A kernel exactly the size of the (unpadded) image: one output pixel.
#[test]
fn kernel_equals_image() {
    let g = ConvGeometry::with_square(Shape4::new(2, 2, 5, 5), FilterShape::new(3, 2, 5, 5), 0, 1);
    assert_eq!(g.output(), Shape4::new(2, 3, 1, 1));
    let x = Tensor::random(g.input, 1);
    let w = Tensor::random(g.filter.as_shape4(), 2);
    let mut reference = Tensor::zeros(g.output());
    direct::forward(
        &g,
        x.as_slice(),
        w.as_slice(),
        reference.as_mut_slice(),
        1.0,
        0.0,
    );
    for engine in EngineKind::ALL {
        if !supports(engine, ConvOp::Forward, &g) {
            continue;
        }
        let mut y = Tensor::zeros(g.output());
        let mut ws = vec![0.0; workspace_floats(engine, ConvOp::Forward, &g)];
        exec(
            engine,
            ConvOp::Forward,
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        )
        .unwrap();
        ucudnn_tensor::assert_all_close(&reference, &y, 5e-3);
    }
}

/// WR on a batch of one: the only division is no division.
#[test]
fn wr_batch_of_one() {
    let g = ConvGeometry::with_square(
        Shape4::new(1, 8, 14, 14),
        FilterShape::new(8, 8, 3, 3),
        1,
        1,
    );
    let handle = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    for policy in [
        BatchSizePolicy::All,
        BatchSizePolicy::PowerOfTwo,
        BatchSizePolicy::Undivided,
    ] {
        let r = optimize_wr(
            &handle,
            &cache,
            &KernelKey::new(ucudnn_cudnn_sim::ConvOp::Forward, &g),
            64 << 20,
            policy,
            false,
        )
        .unwrap();
        assert!(r.config.is_undivided());
        assert_eq!(r.config.batch(), 1);
    }
}

/// WD with no kernels: a trivially empty, feasible plan.
#[test]
fn wd_with_no_kernels() {
    let handle = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    let plan = optimize_wd(&handle, &cache, &[], 64 << 20, BatchSizePolicy::PowerOfTwo).unwrap();
    assert!(plan.assignments.is_empty());
    assert_eq!(plan.total_workspace_bytes, 0);
}

/// Huge-kernel geometry where padding pushes FFT off its support envelope.
#[test]
fn oversized_padding_falls_back_cleanly() {
    // pad == filter size would alias in the frequency domain; the model must
    // refuse, and the optimizer must still produce a plan from the remaining
    // algorithms.
    let g = ConvGeometry::with_square(Shape4::new(4, 4, 9, 9), FilterShape::new(4, 4, 3, 3), 2, 1);
    assert!(algo_supported(ConvAlgo::Fft, ConvOp::Forward, &g)); // pad 2 < 3: fine
    let g_bad = ConvGeometry::new(
        Shape4::new(4, 4, 9, 9),
        FilterShape::new(4, 4, 3, 3),
        3,
        3,
        1,
        1,
    );
    assert!(!algo_supported(ConvAlgo::Fft, ConvOp::Forward, &g_bad));
    let handle = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    let r = optimize_wr(
        &handle,
        &cache,
        &KernelKey::new(ucudnn_cudnn_sim::ConvOp::Forward, &g_bad),
        64 << 20,
        BatchSizePolicy::PowerOfTwo,
        false,
    )
    .unwrap();
    assert_eq!(r.config.batch(), 4);
}

/// Non-square images and non-square strides through every engine.
#[test]
fn rectangular_geometry_agreement() {
    let g = ConvGeometry::new(
        Shape4::new(3, 2, 7, 15),
        FilterShape::new(4, 2, 3, 3),
        1,
        2,
        1,
        1,
    );
    let x = Tensor::random(g.input, 5);
    let w = Tensor::random(g.filter.as_shape4(), 6);
    let mut reference = Tensor::zeros(g.output());
    direct::forward(
        &g,
        x.as_slice(),
        w.as_slice(),
        reference.as_mut_slice(),
        1.0,
        0.0,
    );
    for engine in EngineKind::ALL {
        if !supports(engine, ConvOp::Forward, &g) {
            continue;
        }
        let mut y = Tensor::zeros(g.output());
        let mut ws = vec![0.0; workspace_floats(engine, ConvOp::Forward, &g)];
        exec(
            engine,
            ConvOp::Forward,
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        )
        .unwrap();
        ucudnn_tensor::assert_all_close(&reference, &y, 5e-3);
    }
}
