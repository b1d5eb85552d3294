//! Bit identity of the RealCpu pooling kernels against the per-element
//! reference loops (`ops::pooling::{forward_ref, backward_ref}`).
//!
//! The sweep covers both pooling modes; windows 1×1, 2×2, 3×3, 2×3 and
//! 3×2 with every padding below the window and strides 1–3 on each axis;
//! 1×1 images, odd and non-square sizes, rows of more than 64 windows,
//! ceil-mode windows that start past the input's far edge and overlapping
//! windows; four `(alpha, beta)` pairs; and inputs full of ±0.0, exact ties,
//! ±inf and NaN. Bits must match exactly when every input is finite; with
//! ±inf or NaN in the inputs a NaN output matches any NaN. Windows larger
//! than the padded input must be rejected.

use ucudnn_cudnn_sim::ops::pooling;
use ucudnn_cudnn_sim::{CudnnHandle, PoolingDescriptor, PoolingMode, TensorDescriptor};
use ucudnn_tensor::Shape4;

const ALPHA_BETA: [(f32, f32); 4] = [(1.0, 0.0), (0.75, -0.5), (1.0, 1.0), (-2.0, 0.25)];

/// Finite values with signed zeros and many exact ties.
const FINITE: [f32; 8] = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 0.5];
/// Non-finite values mixed into the finite ones.
const SPECIAL: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// `len` deterministic values drawn from [`FINITE`] and, when `special`,
/// also from [`SPECIAL`] (about one in four).
fn values(len: usize, seed: u64, special: bool) -> Vec<f32> {
    let mut s = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (s >> 33) as usize;
            if special && r.is_multiple_of(4) {
                SPECIAL[(r / 4) % SPECIAL.len()]
            } else {
                FINITE[r % FINITE.len()]
            }
        })
        .collect()
}

/// `fast` equals `reference` bit for bit, except that with `special`
/// inputs a NaN matches any NaN.
fn assert_same(case: &str, special: bool, fast: &[f32], reference: &[f32]) {
    assert_eq!(fast.len(), reference.len(), "{case}");
    for (i, (a, b)) in fast.iter().zip(reference).enumerate() {
        let same = a.to_bits() == b.to_bits() || (special && a.is_nan() && b.is_nan());
        assert!(
            same,
            "{case}: element {i} is {a:?} ({:#010x}), reference {b:?} ({:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

/// Whether ceil mode puts a window wholly past the input's far edge.
fn window_past_edge(len: usize, window: usize, pad: usize, stride: usize) -> bool {
    let out = (len + 2 * pad - window).div_ceil(stride) + 1;
    (out - 1) * stride >= len + pad
}

/// Whether every window lies wholly inside the input.
fn all_inside(len: usize, window: usize, pad: usize, stride: usize) -> bool {
    let out = (len + 2 * pad - window).div_ceil(stride) + 1;
    pad == 0 && (out - 1) * stride + window <= len
}

#[test]
fn pooling_kernels_match_the_reference_loops() {
    let h = CudnnHandle::real_cpu();
    let shapes = [
        Shape4::new(1, 1, 1, 1),
        Shape4::new(1, 2, 5, 7),
        Shape4::new(2, 1, 6, 6),
        Shape4::new(1, 1, 3, 11),
        Shape4::new(1, 3, 9, 4),
        Shape4::new(1, 1, 4, 37),
        Shape4::new(1, 1, 3, 133),
        Shape4::new(1, 1, 3, 262),
    ];
    let windows = [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2)];
    let (mut cases, mut past_edge, mut overlapping, mut rejected) = (0, 0, 0, 0);
    // Calls the 2×2/2 max lane path takes, and those with rows of more
    // than 64 windows.
    let (mut lanes, mut wide) = (0, 0);
    for mode in [PoolingMode::Max, PoolingMode::AverageIncludePadding] {
        for (wh, ww) in windows {
            for (ph, pw) in (0..wh).flat_map(|ph| (0..ww).map(move |pw| (ph, pw))) {
                for (sh, sw) in (1..=3).flat_map(|sh| (1..=3).map(move |sw| (sh, sw))) {
                    let pool = PoolingDescriptor::new_2d(mode, wh, ww, ph, pw, sh, sw).unwrap();
                    for (si, &xs) in shapes.iter().enumerate() {
                        if wh > xs.h + 2 * ph || ww > xs.w + 2 * pw {
                            let xd = TensorDescriptor::from_shape(xs).unwrap();
                            assert!(pool.output_dim(&xd).is_err(), "{pool:?} on {xs}");
                            rejected += 1;
                            continue;
                        }
                        past_edge += usize::from(
                            window_past_edge(xs.h, wh, ph, sh)
                                || window_past_edge(xs.w, ww, pw, sw),
                        );
                        overlapping += usize::from(sh < wh || sw < ww);
                        if mode == PoolingMode::Max
                            && (wh, ww, sw) == (2, 2, 2)
                            && all_inside(xs.h, wh, ph, sh)
                            && all_inside(xs.w, ww, pw, sw)
                        {
                            lanes += 1;
                            wide += usize::from(xs.w / 2 > 64);
                        }
                        for special in [false, true] {
                            for (ai, &(alpha, beta)) in ALPHA_BETA.iter().enumerate() {
                                let seed = (cases * 8 + ai) as u64;
                                pooling_case(&h, &pool, xs, alpha, beta, special, seed, si);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(cases > 2_000, "the sweep ran only {cases} cases");
    assert!(
        past_edge > 0 && overlapping > 0 && rejected > 0 && lanes > 0 && wide > 0,
        "{past_edge} {overlapping} {rejected} {lanes} {wide}"
    );
}

#[allow(clippy::too_many_arguments)]
fn pooling_case(
    h: &CudnnHandle,
    pool: &PoolingDescriptor,
    xs: Shape4,
    alpha: f32,
    beta: f32,
    special: bool,
    seed: u64,
    shape_index: usize,
) {
    let xd = TensorDescriptor::from_shape(xs).unwrap();
    let yd = TensorDescriptor::from_shape(pool.output_dim(&xd).unwrap()).unwrap();
    let case = format!("{pool:?} on {xs} (shape {shape_index}), alpha {alpha}, beta {beta}");
    let x = values(xs.len(), seed, special);
    let y0 = values(yd.len(), seed + 1, special);

    let mut y_ref = y0.clone();
    pooling::forward_ref(pool, alpha, xs, &x, beta, &mut y_ref);
    let mut y = y0;
    h.pooling_forward(pool, alpha, &xd, &x, beta, &yd, &mut y)
        .unwrap();
    assert_same(&format!("forward {case}"), special, &y, &y_ref);

    let dy = values(yd.len(), seed + 2, special);
    let dx0 = values(xs.len(), seed + 3, special);
    let mut dx_ref = dx0.clone();
    pooling::backward_ref(pool, alpha, xs, &dy, &x, beta, &mut dx_ref);
    let mut dx = dx0;
    h.pooling_backward(pool, alpha, &yd, &y, &yd, &dy, &xd, &x, beta, &xd, &mut dx)
        .unwrap();
    assert_same(&format!("backward {case}"), special, &dx, &dx_ref);
}
