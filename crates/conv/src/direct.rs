//! Direct (seven-loop) convolution — the reference implementation.
//!
//! This is Algorithm 1 of the paper, computed exactly as written, in
//! cross-correlation form (the mode every deep learning framework uses).
//! It is no execution engine: it serves as the ground truth every engine is
//! validated against, in the tests and the `hotpath` benchmark.

use crate::parallel::{even_cuts, fork_join, split_at_cuts, workers_for};
use crate::ConvOp;
use ucudnn_tensor::ConvGeometry;

/// The reference result of `op`, with [`crate::exec`]'s buffer roles:
/// `out = alpha * op(a, b) + beta * out`.
///
/// # Panics
/// Panics when any buffer does not match the geometry.
pub fn run(
    op: ConvOp,
    g: &ConvGeometry,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    alpha: f32,
    beta: f32,
) {
    match op {
        ConvOp::Forward => forward(g, a, b, out, alpha, beta),
        ConvOp::BackwardData => backward_data(g, a, b, out, alpha, beta),
        ConvOp::BackwardFilter => backward_filter(g, a, b, out, alpha, beta),
    }
}

/// Split `out`, `units` items of `unit_len` elements, into one contiguous
/// `(lo, hi, chunk)` range of items per worker of a call on `g`. Each output
/// element is one sample's (or one filter's) independent loop nest, so any
/// split computes the same bits.
fn batch_parts<'a>(
    g: &ConvGeometry,
    units: usize,
    unit_len: usize,
    out: &'a mut [f32],
) -> Vec<(usize, usize, &'a mut [f32])> {
    let cuts = even_cuts(units, workers_for(g.macs(), units));
    let lens: Vec<usize> = cuts.iter().map(|&u| u * unit_len).collect();
    cuts.windows(2)
        .zip(split_at_cuts(out, &lens))
        .map(|(c, chunk)| (c[0], c[1], chunk))
        .collect()
}

/// `y = alpha * conv(x, w) + beta * y`.
///
/// `x` is `(N, C, H, W)`, `w` is `(K, C, R, S)`, `y` is `(N, K, Ho, Wo)`,
/// all dense NCHW/KCRS row-major.
///
/// # Panics
/// Panics when any buffer does not match the geometry.
pub fn forward(g: &ConvGeometry, x: &[f32], w: &[f32], y: &mut [f32], alpha: f32, beta: f32) {
    let (n, c, h, wd) = (g.input.n, g.input.c, g.input.h, g.input.w);
    let (k, r, s) = (g.filter.k, g.filter.r, g.filter.s);
    let (ho, wo) = (g.out_h(), g.out_w());
    assert_eq!(x.len(), g.input.len(), "x buffer mismatch");
    assert_eq!(w.len(), g.filter.len(), "w buffer mismatch");
    assert_eq!(y.len(), g.output().len(), "y buffer mismatch");

    let out_sample = k * ho * wo;
    let in_sample = c * h * wd;
    fork_join(batch_parts(g, n, out_sample, y), |(lo, hi, ychunk)| {
        for ni in lo..hi {
            let xs = &x[ni * in_sample..(ni + 1) * in_sample];
            let ys = &mut ychunk[(ni - lo) * out_sample..(ni - lo + 1) * out_sample];
            for ki in 0..k {
                for p in 0..ho {
                    for q in 0..wo {
                        let mut acc = 0.0f32;
                        for ci in 0..c {
                            for ri in 0..r {
                                let ih = (p * g.stride_h + ri) as isize - g.pad_h as isize;
                                if ih < 0 || ih >= h as isize {
                                    continue;
                                }
                                for si in 0..s {
                                    let iw = (q * g.stride_w + si) as isize - g.pad_w as isize;
                                    if iw < 0 || iw >= wd as isize {
                                        continue;
                                    }
                                    acc += xs[(ci * h + ih as usize) * wd + iw as usize]
                                        * w[((ki * c + ci) * r + ri) * s + si];
                                }
                            }
                        }
                        let o = (ki * ho + p) * wo + q;
                        ys[o] = alpha * acc + beta * ys[o];
                    }
                }
            }
        }
    });
}

/// `dx = alpha * corr_transpose(dy, w) + beta * dx` — the data gradient.
pub fn backward_data(
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
) {
    let (n, c, h, wd) = (g.input.n, g.input.c, g.input.h, g.input.w);
    let (k, r, s) = (g.filter.k, g.filter.r, g.filter.s);
    let (ho, wo) = (g.out_h(), g.out_w());
    assert_eq!(dy.len(), g.output().len(), "dy buffer mismatch");
    assert_eq!(w.len(), g.filter.len(), "w buffer mismatch");
    assert_eq!(dx.len(), g.input.len(), "dx buffer mismatch");

    let in_sample = c * h * wd;
    let out_sample = k * ho * wo;
    fork_join(batch_parts(g, n, in_sample, dx), |(lo, hi, dxchunk)| {
        for ni in lo..hi {
            let dys = &dy[ni * out_sample..(ni + 1) * out_sample];
            let dxs = &mut dxchunk[(ni - lo) * in_sample..(ni - lo + 1) * in_sample];
            // Scatter form inverted into gather form: for each input element,
            // sum the output positions whose receptive field covers it.
            for ci in 0..c {
                for ih in 0..h {
                    for iw in 0..wd {
                        let mut acc = 0.0f32;
                        for ki in 0..k {
                            for ri in 0..r {
                                let ph = ih + g.pad_h;
                                if ph < ri || !(ph - ri).is_multiple_of(g.stride_h) {
                                    continue;
                                }
                                let p = (ph - ri) / g.stride_h;
                                if p >= ho {
                                    continue;
                                }
                                for si in 0..s {
                                    let pw = iw + g.pad_w;
                                    if pw < si || !(pw - si).is_multiple_of(g.stride_w) {
                                        continue;
                                    }
                                    let q = (pw - si) / g.stride_w;
                                    if q >= wo {
                                        continue;
                                    }
                                    acc += dys[(ki * ho + p) * wo + q]
                                        * w[((ki * c + ci) * r + ri) * s + si];
                                }
                            }
                        }
                        let o = (ci * h + ih) * wd + iw;
                        dxs[o] = alpha * acc + beta * dxs[o];
                    }
                }
            }
        }
    });
}

/// `dw = alpha * grad_w(x, dy) + beta * dw` — the filter gradient.
///
/// With `beta = 1` this is exactly the accumulation mode μ-cuDNN uses to sum
/// filter-gradient contributions across sequential micro-batches.
pub fn backward_filter(
    g: &ConvGeometry,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    alpha: f32,
    beta: f32,
) {
    let (n, c, h, wd) = (g.input.n, g.input.c, g.input.h, g.input.w);
    let (k, r, s) = (g.filter.k, g.filter.r, g.filter.s);
    let (ho, wo) = (g.out_h(), g.out_w());
    assert_eq!(x.len(), g.input.len(), "x buffer mismatch");
    assert_eq!(dy.len(), g.output().len(), "dy buffer mismatch");
    assert_eq!(dw.len(), g.filter.len(), "dw buffer mismatch");

    let in_sample = c * h * wd;
    let out_sample = k * ho * wo;
    // The filter gradient reduces over the batch, so parallelise over the
    // K dimension of dw instead of over samples.
    let per_k = c * r * s;
    fork_join(batch_parts(g, k, per_k, dw), |(klo, khi, dwchunk)| {
        for ki in klo..khi {
            for ci in 0..c {
                for ri in 0..r {
                    for si in 0..s {
                        let mut acc = 0.0f32;
                        for ni in 0..n {
                            let xs = &x[ni * in_sample..(ni + 1) * in_sample];
                            let dys = &dy[ni * out_sample..(ni + 1) * out_sample];
                            for p in 0..ho {
                                let ih = (p * g.stride_h + ri) as isize - g.pad_h as isize;
                                if ih < 0 || ih >= h as isize {
                                    continue;
                                }
                                for q in 0..wo {
                                    let iw = (q * g.stride_w + si) as isize - g.pad_w as isize;
                                    if iw < 0 || iw >= wd as isize {
                                        continue;
                                    }
                                    acc += xs[(ci * h + ih as usize) * wd + iw as usize]
                                        * dys[(ki * ho + p) * wo + q];
                                }
                            }
                        }
                        let o = ((ki - klo) * c + ci) * r * s + ri * s + si;
                        dwchunk[o] = alpha * acc + beta * dwchunk[o];
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_tensor::{FilterShape, Shape4, Tensor};

    fn small_geom() -> ConvGeometry {
        ConvGeometry::with_square(Shape4::new(2, 3, 6, 6), FilterShape::new(4, 3, 3, 3), 1, 1)
    }

    #[test]
    fn forward_identity_kernel_recovers_input() {
        // A 1x1 kernel with weight 1 on the diagonal channel map copies input.
        let g =
            ConvGeometry::with_square(Shape4::new(1, 2, 4, 4), FilterShape::new(2, 2, 1, 1), 0, 1);
        let x = Tensor::random(g.input, 11);
        let mut w = Tensor::zeros(g.filter.as_shape4());
        w.set(0, 0, 0, 0, 1.0);
        w.set(1, 1, 0, 0, 1.0);
        let mut y = Tensor::zeros(g.output());
        forward(&g, x.as_slice(), w.as_slice(), y.as_mut_slice(), 1.0, 0.0);
        ucudnn_tensor::assert_all_close(&x, &y, 0.0);
    }

    #[test]
    fn forward_known_small_case() {
        // 1x1x3x3 input, 1x1x2x2 kernel, no pad, stride 1.
        let g =
            ConvGeometry::with_square(Shape4::new(1, 1, 3, 3), FilterShape::new(1, 1, 2, 2), 0, 1);
        let x = Tensor::from_vec(g.input, vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let w = Tensor::from_vec(g.filter.as_shape4(), vec![1., 0., 0., 1.]);
        let mut y = Tensor::zeros(g.output());
        forward(&g, x.as_slice(), w.as_slice(), y.as_mut_slice(), 1.0, 0.0);
        // Cross-correlation: y[p,q] = x[p,q] + x[p+1,q+1].
        assert_eq!(y.as_slice(), &[1. + 5., 2. + 6., 4. + 8., 5. + 9.]);
    }

    #[test]
    fn forward_beta_accumulates() {
        let g = small_geom();
        let x = Tensor::random(g.input, 1);
        let w = Tensor::random(g.filter.as_shape4(), 2);
        let mut y0 = Tensor::zeros(g.output());
        forward(&g, x.as_slice(), w.as_slice(), y0.as_mut_slice(), 1.0, 0.0);
        let mut y1 = y0.clone();
        forward(&g, x.as_slice(), w.as_slice(), y1.as_mut_slice(), 1.0, 1.0);
        let mut want = y0.clone();
        want.axpby(1.0, &y0, 1.0);
        ucudnn_tensor::assert_all_close(&y1, &want, 1e-6);
    }

    /// Finite-difference check: backward_data must be the adjoint of forward.
    /// <conv(x, w), dy> == <x, conv_bwd_data(dy, w)> for any x, w, dy.
    #[test]
    fn backward_data_is_adjoint_of_forward() {
        for (pad, stride) in [(0usize, 1usize), (1, 1), (2, 2), (1, 3)] {
            let g = ConvGeometry::with_square(
                Shape4::new(2, 3, 8, 8),
                FilterShape::new(4, 3, 3, 3),
                pad,
                stride,
            );
            let x = Tensor::random(g.input, 1);
            let w = Tensor::random(g.filter.as_shape4(), 2);
            let dy = Tensor::random(g.output(), 3);
            let mut y = Tensor::zeros(g.output());
            forward(&g, x.as_slice(), w.as_slice(), y.as_mut_slice(), 1.0, 0.0);
            let mut dx = Tensor::zeros(g.input);
            backward_data(&g, dy.as_slice(), w.as_slice(), dx.as_mut_slice(), 1.0, 0.0);
            let lhs: f64 = y
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            let rhs: f64 = x
                .as_slice()
                .iter()
                .zip(dx.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            assert!(
                (lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0),
                "adjoint mismatch at pad={pad} stride={stride}: {lhs} vs {rhs}"
            );
        }
    }

    /// <conv(x, w), dy> == <w, grad_w(x, dy)> — backward_filter adjoint check.
    #[test]
    fn backward_filter_is_adjoint_in_w() {
        for (pad, stride) in [(0usize, 1usize), (1, 1), (2, 2)] {
            let g = ConvGeometry::with_square(
                Shape4::new(2, 3, 7, 7),
                FilterShape::new(4, 3, 3, 3),
                pad,
                stride,
            );
            let x = Tensor::random(g.input, 4);
            let w = Tensor::random(g.filter.as_shape4(), 5);
            let dy = Tensor::random(g.output(), 6);
            let mut y = Tensor::zeros(g.output());
            forward(&g, x.as_slice(), w.as_slice(), y.as_mut_slice(), 1.0, 0.0);
            let mut dw = Tensor::zeros(g.filter.as_shape4());
            backward_filter(&g, x.as_slice(), dy.as_slice(), dw.as_mut_slice(), 1.0, 0.0);
            let lhs: f64 = y
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            let rhs: f64 = w
                .as_slice()
                .iter()
                .zip(dw.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            assert!(
                (lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0),
                "adjoint mismatch at pad={pad} stride={stride}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn backward_filter_beta_one_accumulates_micro_batches() {
        // The core μ-cuDNN BackwardFilter claim: splitting the batch and
        // accumulating with beta=1 equals the undivided gradient.
        let g =
            ConvGeometry::with_square(Shape4::new(8, 3, 6, 6), FilterShape::new(4, 3, 3, 3), 1, 1);
        let x = Tensor::random(g.input, 7);
        let dy = Tensor::random(g.output(), 8);
        let mut dw_full = Tensor::zeros(g.filter.as_shape4());
        backward_filter(
            &g,
            x.as_slice(),
            dy.as_slice(),
            dw_full.as_mut_slice(),
            1.0,
            0.0,
        );

        let mut dw_micro = Tensor::zeros(g.filter.as_shape4());
        let mut first = true;
        for (lo, hi) in [(0usize, 3usize), (3, 5), (5, 8)] {
            let mg = g.with_batch(hi - lo);
            backward_filter(
                &mg,
                x.batch_slice(lo, hi),
                dy.batch_slice(lo, hi),
                dw_micro.as_mut_slice(),
                1.0,
                if first { 0.0 } else { 1.0 },
            );
            first = false;
        }
        ucudnn_tensor::assert_all_close(&dw_full, &dw_micro, 1e-4);
    }

    #[test]
    fn forward_micro_batch_equals_undivided() {
        let g =
            ConvGeometry::with_square(Shape4::new(6, 3, 6, 6), FilterShape::new(4, 3, 3, 3), 1, 2);
        let x = Tensor::random(g.input, 9);
        let w = Tensor::random(g.filter.as_shape4(), 10);
        let mut y_full = Tensor::zeros(g.output());
        forward(
            &g,
            x.as_slice(),
            w.as_slice(),
            y_full.as_mut_slice(),
            1.0,
            0.0,
        );

        let mut y_micro = Tensor::zeros(g.output());
        for (lo, hi) in [(0usize, 4usize), (4, 6)] {
            let mg = g.with_batch(hi - lo);
            forward(
                &mg,
                x.batch_slice(lo, hi),
                w.as_slice(),
                y_micro.batch_slice_mut(lo, hi),
                1.0,
                0.0,
            );
        }
        // Bitwise equal: same operations in the same order per sample.
        assert_eq!(y_full.as_slice(), y_micro.as_slice());
    }

    #[test]
    #[should_panic(expected = "x buffer mismatch")]
    fn forward_rejects_wrong_input_size() {
        let g = small_geom();
        let mut y = vec![0.0; g.output().len()];
        forward(&g, &[0.0; 3], &vec![0.0; g.filter.len()], &mut y, 1.0, 0.0);
    }
}
