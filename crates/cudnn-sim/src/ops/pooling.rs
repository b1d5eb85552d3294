//! `cudnnPoolingForward` / `cudnnPoolingBackward`.
//!
//! Max pooling with 2×2 windows at horizontal stride 2, all inside the
//! input (the only max pooling `train` and `serve` run), is lane-parallel
//! over each output row: forward reads the two window rows as column
//! pairs, and backward finds the windows' argmaxes with branch-free selects
//! before it routes their gradients in output order. Every other call
//! (clipped windows, other window shapes, average pooling and GAP) runs
//! [`forward_ref`] and [`backward_ref`], the per-element loops, and the
//! lane path is bit-identical to them (`tests/aux_bit_identity.rs`).

use crate::descriptor::TensorDescriptor;
use crate::error::{CudnnError, Result};
use crate::handle::CudnnHandle;
use ucudnn_tensor::Shape4;

/// Pooling mode (`cudnnPoolingMode_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolingMode {
    /// Maximum over the window.
    Max,
    /// Average, dividing by the full window size (includes padding), the
    /// Caffe/cuDNN `AVERAGE_COUNT_INCLUDE_PADDING` convention.
    AverageIncludePadding,
}

/// `cudnnPoolingDescriptor_t` (2-D, possibly rectangular window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolingDescriptor {
    /// Mode.
    pub mode: PoolingMode,
    /// Window height.
    pub window_h: usize,
    /// Window width.
    pub window_w: usize,
    /// Height padding.
    pub pad_h: usize,
    /// Width padding.
    pub pad_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
}

impl PoolingDescriptor {
    /// Create a descriptor; strides must be positive.
    pub fn new_2d(
        mode: PoolingMode,
        window_h: usize,
        window_w: usize,
        pad_h: usize,
        pad_w: usize,
        stride_h: usize,
        stride_w: usize,
    ) -> Result<Self> {
        if stride_h == 0 || stride_w == 0 || window_h == 0 || window_w == 0 {
            return Err(CudnnError::BadParam(
                "pooling window/stride must be positive".into(),
            ));
        }
        Ok(Self {
            mode,
            window_h,
            window_w,
            pad_h,
            pad_w,
            stride_h,
            stride_w,
        })
    }

    /// Square-window convenience constructor.
    pub fn square(mode: PoolingMode, window: usize, pad: usize, stride: usize) -> Result<Self> {
        Self::new_2d(mode, window, window, pad, pad, stride, stride)
    }

    /// Output shape (Caffe/cuDNN ceil-mode).
    ///
    /// # Errors
    /// `BadParam` when a window is larger than the padded input.
    pub fn output_dim(&self, x: &TensorDescriptor) -> Result<Shape4> {
        let s = x.shape();
        let (h, w) = self.axes(s)?;
        Ok(Shape4::new(s.n, s.c, h.out, w.out))
    }

    /// The vertical and horizontal window geometry on input shape `xs`.
    fn axes(&self, xs: Shape4) -> Result<(Axis, Axis)> {
        let h = Axis::new(xs.h, self.window_h, self.pad_h, self.stride_h);
        let w = Axis::new(xs.w, self.window_w, self.pad_w, self.stride_w);
        h.zip(w).ok_or_else(|| {
            CudnnError::BadParam(format!(
                "pooling window {}x{} (pad {}x{}) is larger than the padded input {xs}",
                self.window_h, self.window_w, self.pad_h, self.pad_w
            ))
        })
    }

    /// `1 / window area`, the average mode's scale.
    fn inv_area(&self) -> f32 {
        1.0 / (self.window_h * self.window_w) as f32
    }
}

/// One spatial axis of a pooling call.
#[derive(Debug, Clone, Copy)]
struct Axis {
    /// Input length.
    len: usize,
    /// Output length (ceil mode).
    out: usize,
    window: usize,
    pad: usize,
    stride: usize,
}

impl Axis {
    /// `None` when the window is larger than the padded input.
    fn new(len: usize, window: usize, pad: usize, stride: usize) -> Option<Self> {
        let room = (len + 2 * pad).checked_sub(window)?;
        Some(Self {
            len,
            out: room.div_ceil(stride) + 1,
            window,
            pad,
            stride,
        })
    }

    /// Clipped input range `lo..hi` of output `p`'s window, with
    /// `lo <= hi <= len`; empty when the window lies wholly in padding,
    /// which ceil mode allows past the input's far edge.
    fn clip(&self, p: usize) -> (usize, usize) {
        let start = (p * self.stride) as isize - self.pad as isize;
        let lo = (start.max(0) as usize).min(self.len);
        let hi = ((start + self.window as isize).max(0) as usize).clamp(lo, self.len);
        (lo, hi)
    }

    /// Whether every window lies wholly inside the input.
    fn inside(&self) -> bool {
        self.pad == 0 && (self.out - 1) * self.stride + self.window <= self.len
    }
}

impl CudnnHandle {
    /// `y = alpha * pool(x) + beta * y`.
    ///
    /// # Errors
    /// Shape mismatches and engine-contract violations.
    #[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
    pub fn pooling_forward(
        &self,
        pool: &PoolingDescriptor,
        alpha: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        beta: f32,
        y_desc: &TensorDescriptor,
        y: &mut [f32],
    ) -> Result<()> {
        let ys = pool.output_dim(x_desc)?;
        if y_desc.shape() != ys {
            return Err(CudnnError::BadParam(format!(
                "pooling output descriptor {} does not match computed {ys}",
                y_desc.shape()
            )));
        }
        self.check_len("x", x.len(), x_desc.len())?;
        self.check_len("y", y.len(), ys.len())?;
        let bytes = 4 * (ys.len() * pool.window_h * pool.window_w / 2 + ys.len());
        self.aux_op(bytes, !x.is_empty() || !y.is_empty(), || {
            forward(pool, alpha, x_desc.shape(), x, beta, y);
            Ok(())
        })
    }

    /// `dx = alpha * pool'(dy) + beta * dx` (max routes to the argmax
    /// recomputed from `x`; average distributes uniformly).
    ///
    /// # Errors
    /// Shape mismatches and engine-contract violations.
    #[allow(clippy::too_many_arguments)]
    pub fn pooling_backward(
        &self,
        pool: &PoolingDescriptor,
        alpha: f32,
        y_desc: &TensorDescriptor,
        _y: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        x_desc: &TensorDescriptor,
        x: &[f32],
        beta: f32,
        dx_desc: &TensorDescriptor,
        dx: &mut [f32],
    ) -> Result<()> {
        let ys = pool.output_dim(x_desc)?;
        if y_desc.shape() != ys || dy_desc.shape() != ys || dx_desc.shape() != x_desc.shape() {
            return Err(CudnnError::BadParam(
                "pooling gradient shapes must match".into(),
            ));
        }
        self.check_len("dy", dy.len(), ys.len())?;
        self.check_len("x", x.len(), x_desc.len())?;
        self.check_len("dx", dx.len(), x_desc.len())?;
        let xs = x_desc.shape();
        let bytes = 4 * (2 * xs.len() + 2 * ys.len());
        let any = !dy.is_empty() || !x.is_empty() || !dx.is_empty();
        self.aux_op(bytes, any, || {
            backward(pool, alpha, xs, dy, x, beta, dx);
            Ok(())
        })
    }
}

/// The window geometry of a call that runs lane-parallel: 2×2 max windows
/// at horizontal stride 2, all wholly inside the input.
fn lane_axes(pool: &PoolingDescriptor, xs: Shape4) -> Option<(Axis, Axis)> {
    let (ah, aw) = pool.axes(xs).ok()?;
    let shape = (pool.mode, pool.window_h, pool.window_w, pool.stride_w);
    let lanes = shape == (PoolingMode::Max, 2, 2, 2) && ah.inside() && aw.inside();
    lanes.then_some((ah, aw))
}

/// The RealCpu body of [`CudnnHandle::pooling_forward`]; slice lengths are
/// checked by the caller.
fn forward(pool: &PoolingDescriptor, alpha: f32, xs: Shape4, x: &[f32], beta: f32, y: &mut [f32]) {
    let Some((ah, aw)) = lane_axes(pool, xs) else {
        forward_ref(pool, alpha, xs, x, beta, y);
        return;
    };
    let (w, cols) = (xs.w, 2 * aw.out);
    for (xp, yp) in x
        .chunks_exact(xs.h * w)
        .zip(y.chunks_exact_mut(ah.out * aw.out))
    {
        for (p, yrow) in yp.chunks_exact_mut(aw.out).enumerate() {
            let top = p * ah.stride * w;
            let (r0, r1) = (&xp[top..][..cols], &xp[top + w..][..cols]);
            for ((o, a), b) in yrow
                .iter_mut()
                .zip(r0.chunks_exact(2))
                .zip(r1.chunks_exact(2))
            {
                let val = f32::NEG_INFINITY.max(a[0]).max(a[1]).max(b[0]).max(b[1]);
                *o = alpha * val + beta * *o;
            }
        }
    }
}

/// The RealCpu body of [`CudnnHandle::pooling_backward`]; slice lengths are
/// checked by the caller.
fn backward(
    pool: &PoolingDescriptor,
    alpha: f32,
    xs: Shape4,
    dy: &[f32],
    x: &[f32],
    beta: f32,
    dx: &mut [f32],
) {
    let Some((ah, aw)) = lane_axes(pool, xs) else {
        backward_ref(pool, alpha, xs, dy, x, beta, dx);
        return;
    };
    if beta != 1.0 {
        for v in dx.iter_mut() {
            *v *= beta;
        }
    }
    let w = xs.w;
    let mut args = [0u32; LANES];
    for ((xp, dxp), dyp) in x
        .chunks_exact(xs.h * w)
        .zip(dx.chunks_exact_mut(xs.h * w))
        .zip(dy.chunks_exact(ah.out * aw.out))
    {
        for (p, dyrow) in dyp.chunks_exact(aw.out).enumerate() {
            let top = p * ah.stride * w;
            let rows = &xp[top..top + 2 * w];
            let dxrows = &mut dxp[top..top + 2 * w];
            for (c, gs) in dyrow.chunks(LANES).enumerate() {
                let cols = 2 * c * LANES..2 * (c * LANES + gs.len());
                let (r0, r1) = (&rows[cols.clone()], &rows[w..][cols.clone()]);
                let args = &mut args[..gs.len()];
                for ((arg, a), b) in args
                    .iter_mut()
                    .zip(r0.chunks_exact(2))
                    .zip(r1.chunks_exact(2))
                {
                    *arg = argmax4([a[0], a[1], b[0], b[1]]);
                }
                // Route each gradient to its window's argmax, in output order.
                for (k, (&arg, &g)) in args.iter().zip(gs).enumerate() {
                    if arg < 4 {
                        let at = (arg as usize >> 1) * w + cols.start + 2 * k + (arg as usize & 1);
                        dxrows[at] += alpha * g;
                    }
                }
            }
        }
    }
}

/// Windows whose argmaxes [`backward`] finds in one vectorized pass before
/// routing their gradients.
const LANES: usize = 64;

/// Index of the first maximum of a 2×2 window's elements in row-major
/// order, by branch-free selects, so NaN never wins, as in
/// [`backward_ref`]; 4 when nothing beats `-inf`.
#[inline(always)]
fn argmax4(v: [f32; 4]) -> u32 {
    let (mut best, mut arg) = (f32::NEG_INFINITY, 4);
    for (t, v) in (0..4).zip(v) {
        let take = v > best;
        best = if take { v } else { best };
        arg = if take { t } else { arg };
    }
    arg
}

/// `y = alpha * pool(x) + beta * y` by the retained per-element loops: the
/// reference that [`CudnnHandle::pooling_forward`]'s RealCpu kernel
/// reproduces bit for bit.
///
/// # Panics
/// When a window is larger than the padded input, `x` does not hold `xs`
/// or `y` does not hold the output shape.
pub fn forward_ref(
    pool: &PoolingDescriptor,
    alpha: f32,
    xs: Shape4,
    x: &[f32],
    beta: f32,
    y: &mut [f32],
) {
    let (ah, aw) = pool.axes(xs).expect("the window fits the padded input");
    let ys = Shape4::new(xs.n, xs.c, ah.out, aw.out);
    assert!(x.len() == xs.len() && y.len() == ys.len(), "buffer lengths");
    let inv = pool.inv_area();
    for ni in 0..ys.n {
        for ci in 0..ys.c {
            for p in 0..ys.h {
                let (hlo, hhi) = ah.clip(p);
                for q in 0..ys.w {
                    let (wlo, whi) = aw.clip(q);
                    let mut acc = match pool.mode {
                        PoolingMode::Max => f32::NEG_INFINITY,
                        PoolingMode::AverageIncludePadding => 0.0,
                    };
                    for hi in hlo..hhi {
                        for wi in wlo..whi {
                            let v = x[xs.index(ni, ci, hi, wi)];
                            acc = match pool.mode {
                                PoolingMode::Max => acc.max(v),
                                PoolingMode::AverageIncludePadding => acc + v,
                            };
                        }
                    }
                    let val = match pool.mode {
                        PoolingMode::Max => {
                            if hlo == hhi || wlo == whi {
                                0.0
                            } else {
                                acc
                            }
                        }
                        PoolingMode::AverageIncludePadding => acc * inv,
                    };
                    let o = ys.index(ni, ci, p, q);
                    y[o] = alpha * val + beta * y[o];
                }
            }
        }
    }
}

/// `dx = alpha * pool'(dy) + beta * dx` by the retained per-element loops:
/// the reference that [`CudnnHandle::pooling_backward`]'s RealCpu kernel
/// reproduces bit for bit.
///
/// # Panics
/// When a window is larger than the padded input, `x` or `dx` does not
/// hold `xs`, or `dy` the output shape.
pub fn backward_ref(
    pool: &PoolingDescriptor,
    alpha: f32,
    xs: Shape4,
    dy: &[f32],
    x: &[f32],
    beta: f32,
    dx: &mut [f32],
) {
    let (ah, aw) = pool.axes(xs).expect("the window fits the padded input");
    let ys = Shape4::new(xs.n, xs.c, ah.out, aw.out);
    assert!(
        x.len() == xs.len() && dx.len() == xs.len() && dy.len() == ys.len(),
        "buffer lengths"
    );
    if beta != 1.0 {
        for v in dx.iter_mut() {
            *v *= beta;
        }
    }
    let inv = pool.inv_area();
    for ni in 0..ys.n {
        for ci in 0..ys.c {
            for p in 0..ys.h {
                let (hlo, hhi) = ah.clip(p);
                for q in 0..ys.w {
                    let (wlo, whi) = aw.clip(q);
                    let g = alpha * dy[ys.index(ni, ci, p, q)];
                    match pool.mode {
                        PoolingMode::Max => {
                            let (mut bh, mut bw, mut bv) =
                                (usize::MAX, usize::MAX, f32::NEG_INFINITY);
                            for hi in hlo..hhi {
                                for wi in wlo..whi {
                                    let v = x[xs.index(ni, ci, hi, wi)];
                                    if v > bv {
                                        (bh, bw, bv) = (hi, wi, v);
                                    }
                                }
                            }
                            if bh != usize::MAX {
                                dx[xs.index(ni, ci, bh, bw)] += g;
                            }
                        }
                        PoolingMode::AverageIncludePadding => {
                            for hi in hlo..hhi {
                                for wi in wlo..whi {
                                    dx[xs.index(ni, ci, hi, wi)] += g * inv;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::Tensor;

    #[test]
    fn output_dim_matches_caffe_ceil_mode() {
        let x = TensorDescriptor::new_4d(1, 1, 55, 55).unwrap();
        let p = PoolingDescriptor::square(PoolingMode::Max, 3, 0, 2).unwrap();
        assert_eq!(p.output_dim(&x).unwrap(), Shape4::new(1, 1, 27, 27));
    }

    #[test]
    fn max_pool_forward_and_backward() {
        let h = CudnnHandle::real_cpu();
        let xd = TensorDescriptor::new_4d(1, 1, 2, 2).unwrap();
        let p = PoolingDescriptor::square(PoolingMode::Max, 2, 0, 2).unwrap();
        let yd = TensorDescriptor::from_shape(p.output_dim(&xd).unwrap()).unwrap();
        let x = Tensor::from_vec(xd.shape(), vec![1.0, 4.0, 2.0, 3.0]);
        let mut y = Tensor::zeros(yd.shape());
        h.pooling_forward(&p, 1.0, &xd, x.as_slice(), 0.0, &yd, y.as_mut_slice())
            .unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
        let dy = Tensor::full(yd.shape(), 5.0);
        let mut dx = Tensor::zeros(xd.shape());
        h.pooling_backward(
            &p,
            1.0,
            &yd,
            y.as_slice(),
            &yd,
            dy.as_slice(),
            &xd,
            x.as_slice(),
            0.0,
            &xd,
            dx.as_mut_slice(),
        )
        .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn average_pool_is_linear_adjoint() {
        // <pool(x), dy> == <x, pool'(dy)> for the (linear) average mode.
        let h = CudnnHandle::real_cpu();
        let xd = TensorDescriptor::new_4d(2, 3, 7, 9).unwrap();
        let p = PoolingDescriptor::square(PoolingMode::AverageIncludePadding, 3, 1, 2).unwrap();
        let yd = TensorDescriptor::from_shape(p.output_dim(&xd).unwrap()).unwrap();
        let x = Tensor::random(xd.shape(), 1);
        let dy = Tensor::random(yd.shape(), 2);
        let mut y = Tensor::zeros(yd.shape());
        h.pooling_forward(&p, 1.0, &xd, x.as_slice(), 0.0, &yd, y.as_mut_slice())
            .unwrap();
        let mut dx = Tensor::zeros(xd.shape());
        h.pooling_backward(
            &p,
            1.0,
            &yd,
            y.as_slice(),
            &yd,
            dy.as_slice(),
            &xd,
            x.as_slice(),
            0.0,
            &xd,
            dx.as_mut_slice(),
        )
        .unwrap();
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
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn global_average_pool_via_full_window() {
        let h = CudnnHandle::real_cpu();
        let xd = TensorDescriptor::new_4d(1, 2, 4, 4).unwrap();
        let p = PoolingDescriptor::new_2d(PoolingMode::AverageIncludePadding, 4, 4, 0, 0, 4, 4)
            .unwrap();
        let yd = TensorDescriptor::from_shape(p.output_dim(&xd).unwrap()).unwrap();
        assert_eq!(yd.shape(), Shape4::new(1, 2, 1, 1));
        let x = Tensor::full(xd.shape(), 3.0);
        let mut y = Tensor::zeros(yd.shape());
        h.pooling_forward(&p, 1.0, &xd, x.as_slice(), 0.0, &yd, y.as_mut_slice())
            .unwrap();
        assert_eq!(y.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn simulated_pooling_prices_by_window_traffic() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let xd = TensorDescriptor::new_4d(64, 64, 55, 55).unwrap();
        let p = PoolingDescriptor::square(PoolingMode::Max, 3, 0, 2).unwrap();
        let yd = TensorDescriptor::from_shape(p.output_dim(&xd).unwrap()).unwrap();
        h.pooling_forward(&p, 1.0, &xd, &[], 0.0, &yd, &mut [])
            .unwrap();
        assert!(h.elapsed_us() > 0.0);
    }

    #[test]
    fn wrong_output_descriptor_rejected() {
        let h = CudnnHandle::real_cpu();
        let xd = TensorDescriptor::new_4d(1, 1, 8, 8).unwrap();
        let p = PoolingDescriptor::square(PoolingMode::Max, 2, 0, 2).unwrap();
        let bad = TensorDescriptor::new_4d(1, 1, 3, 3).unwrap();
        assert!(h
            .pooling_forward(&p, 1.0, &xd, &[], 0.0, &bad, &mut [])
            .is_err());
    }

    #[test]
    fn a_window_larger_than_the_padded_input_is_rejected() {
        let h = CudnnHandle::real_cpu();
        let xd = TensorDescriptor::new_4d(1, 1, 1, 1).unwrap();
        let yd = TensorDescriptor::new_4d(1, 1, 1, 1).unwrap();
        let p = PoolingDescriptor::square(PoolingMode::Max, 3, 0, 1).unwrap();
        assert!(matches!(p.output_dim(&xd), Err(CudnnError::BadParam(_))));
        let (x, mut y) = ([1.0], [0.0]);
        let err = h
            .pooling_forward(&p, 1.0, &xd, &x, 0.0, &yd, &mut y)
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
        let mut dx = [0.0];
        let err = h
            .pooling_backward(&p, 1.0, &yd, &y, &yd, &[1.0], &xd, &x, 0.0, &xd, &mut dx)
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
        // One pixel of padding per side makes the window fit.
        let padded = PoolingDescriptor::square(PoolingMode::Max, 3, 1, 1).unwrap();
        assert_eq!(padded.output_dim(&xd).unwrap(), Shape4::new(1, 1, 1, 1));
    }

    #[test]
    fn pooling_forward_rejects_an_empty_buffer_on_real_cpu() {
        let h = CudnnHandle::real_cpu();
        let xd = TensorDescriptor::new_4d(1, 2, 4, 4).unwrap();
        let p = PoolingDescriptor::square(PoolingMode::Max, 2, 0, 2).unwrap();
        let yd = TensorDescriptor::from_shape(p.output_dim(&xd).unwrap()).unwrap();
        let x = Tensor::random(xd.shape(), 1);
        let err = h
            .pooling_forward(&p, 1.0, &xd, &[], 0.0, &yd, &mut vec![0.0; yd.len()])
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
        let err = h
            .pooling_forward(&p, 1.0, &xd, x.as_slice(), 0.0, &yd, &mut [])
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
    }

    #[test]
    fn pooling_backward_rejects_an_empty_buffer_on_real_cpu() {
        let h = CudnnHandle::real_cpu();
        let xd = TensorDescriptor::new_4d(1, 2, 4, 4).unwrap();
        let p = PoolingDescriptor::square(PoolingMode::Max, 2, 0, 2).unwrap();
        let yd = TensorDescriptor::from_shape(p.output_dim(&xd).unwrap()).unwrap();
        let (x, dy) = (vec![1.0; xd.len()], vec![1.0; yd.len()]);
        let mut dx = vec![0.0; xd.len()];
        for (dy, x) in [(&dy[..], &[][..]), (&[][..], &x[..])] {
            let err = h
                .pooling_backward(&p, 1.0, &yd, &[], &yd, dy, &xd, x, 0.0, &xd, &mut dx)
                .unwrap_err();
            assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
        }
        let err = h
            .pooling_backward(&p, 1.0, &yd, &[], &yd, &dy, &xd, &x, 0.0, &xd, &mut [])
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
    }
}
