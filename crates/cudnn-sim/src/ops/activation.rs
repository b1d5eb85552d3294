//! `cudnnActivationForward` / `cudnnActivationBackward`.

use crate::descriptor::TensorDescriptor;
use crate::error::{CudnnError, Result};
use crate::handle::CudnnHandle;

/// Activation function (`cudnnActivationMode_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationMode {
    /// `max(0, x)`.
    Relu,
    /// `1 / (1 + e^{-x})`.
    Sigmoid,
    /// `tanh(x)`.
    Tanh,
}

/// `cudnnActivationDescriptor_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationDescriptor {
    /// Which function.
    pub mode: ActivationMode,
}

impl ActivationDescriptor {
    /// Create a descriptor.
    pub fn new(mode: ActivationMode) -> Self {
        Self { mode }
    }

    fn eval(&self, x: f32) -> f32 {
        match self.mode {
            ActivationMode::Relu => x.max(0.0),
            ActivationMode::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationMode::Tanh => x.tanh(),
        }
    }
}

impl CudnnHandle {
    /// `y = alpha * f(x) + beta * y`.
    ///
    /// # Errors
    /// Shape mismatches and engine-contract violations.
    #[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
    pub fn activation_forward(
        &self,
        act: &ActivationDescriptor,
        alpha: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        beta: f32,
        y_desc: &TensorDescriptor,
        y: &mut [f32],
    ) -> Result<()> {
        if x_desc.shape() != y_desc.shape() {
            return Err(CudnnError::BadParam("activation shapes must match".into()));
        }
        self.check_len("x", x.len(), x_desc.len())?;
        self.check_len("y", y.len(), y_desc.len())?;
        let bytes = 2 * 4 * x_desc.len();
        self.aux_op(bytes, !x.is_empty() || !y.is_empty(), || {
            for (yo, &xi) in y.iter_mut().zip(x) {
                *yo = alpha * act.eval(xi) + beta * *yo;
            }
            Ok(())
        })
    }

    /// `dx = alpha * f'(x) ⊙ dy + beta * dx` (cuDNN signature: takes `y`,
    /// `dy` and `x`).
    ///
    /// # Errors
    /// Shape mismatches and engine-contract violations.
    #[allow(clippy::too_many_arguments)]
    pub fn activation_backward(
        &self,
        act: &ActivationDescriptor,
        alpha: f32,
        y_desc: &TensorDescriptor,
        y: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        x_desc: &TensorDescriptor,
        x: &[f32],
        beta: f32,
        dx_desc: &TensorDescriptor,
        dx: &mut [f32],
    ) -> Result<()> {
        let s = x_desc.shape();
        if y_desc.shape() != s || dy_desc.shape() != s || dx_desc.shape() != s {
            return Err(CudnnError::BadParam(
                "activation gradient shapes must match".into(),
            ));
        }
        self.check_len("y", y.len(), s.len())?;
        self.check_len("dy", dy.len(), s.len())?;
        self.check_len("x", x.len(), s.len())?;
        self.check_len("dx", dx.len(), s.len())?;
        let bytes = 4 * 4 * s.len();
        let any = !y.is_empty() || !dy.is_empty() || !x.is_empty() || !dx.is_empty();
        self.aux_op(bytes, any, || {
            // `dy/dx` through `x` and `y = f(x)`, as cuDNN takes them. Match
            // once, outside the loop, so each mode's loop vectorizes; a
            // `match` per element compiled to scalar code, 4-12x slower on
            // `train`'s conv outputs.
            match act.mode {
                ActivationMode::Relu => backward_loop(alpha, y, dy, x, beta, dx, relu_grad),
                ActivationMode::Sigmoid => {
                    backward_loop(alpha, y, dy, x, beta, dx, |_, y| y * (1.0 - y))
                }
                ActivationMode::Tanh => {
                    backward_loop(alpha, y, dy, x, beta, dx, |_, y| 1.0 - y * y)
                }
            }
            Ok(())
        })
    }
}

/// ReLU's derivative through `x`: 1 where `x > 0`, else 0.
fn relu_grad(x: f32, _y: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// `dx = alpha * grad(x, y) * dy + beta * dx` over the zipped slices, with
/// `grad` inlined so that the loop vectorizes.
#[inline(always)]
fn backward_loop(
    alpha: f32,
    y: &[f32],
    dy: &[f32],
    x: &[f32],
    beta: f32,
    dx: &mut [f32],
    grad: impl Fn(f32, f32) -> f32,
) {
    for (((d, &xi), &yi), &g) in dx.iter_mut().zip(x).zip(y).zip(dy) {
        *d = alpha * grad(xi, yi) * g + beta * *d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{Shape4, Tensor};

    fn desc() -> TensorDescriptor {
        TensorDescriptor::from_shape(Shape4::new(2, 3, 4, 4)).unwrap()
    }

    #[test]
    fn relu_forward_clamps_negatives() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        let x = Tensor::random(d.shape(), 1);
        let mut y = Tensor::zeros(d.shape());
        let act = ActivationDescriptor::new(ActivationMode::Relu);
        h.activation_forward(&act, 1.0, &d, x.as_slice(), 0.0, &d, y.as_mut_slice())
            .unwrap();
        for (&xi, &yi) in x.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(yi, xi.max(0.0));
        }
    }

    /// Finite-difference check of every activation's backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        for mode in [
            ActivationMode::Relu,
            ActivationMode::Sigmoid,
            ActivationMode::Tanh,
        ] {
            let act = ActivationDescriptor::new(mode);
            let x = Tensor::random(d.shape(), 7);
            let dy = Tensor::random(d.shape(), 8);
            let mut y = Tensor::zeros(d.shape());
            h.activation_forward(&act, 1.0, &d, x.as_slice(), 0.0, &d, y.as_mut_slice())
                .unwrap();
            let mut dx = Tensor::zeros(d.shape());
            h.activation_backward(
                &act,
                1.0,
                &d,
                y.as_slice(),
                &d,
                dy.as_slice(),
                &d,
                x.as_slice(),
                0.0,
                &d,
                dx.as_mut_slice(),
            )
            .unwrap();
            // d/dx <f(x), dy> at index i equals dx[i].
            let eps = 1e-2f32;
            for i in [0usize, 10, 50] {
                let xi = x.as_slice()[i];
                if mode == ActivationMode::Relu && xi.abs() < 2.0 * eps {
                    continue; // kink
                }
                let fp = act.eval(xi + eps) * dy.as_slice()[i];
                let fm = act.eval(xi - eps) * dy.as_slice()[i];
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (dx.as_slice()[i] - numeric).abs() < 1e-2,
                    "{mode:?} at {i}: {} vs {numeric}",
                    dx.as_slice()[i]
                );
            }
        }
    }

    #[test]
    fn simulated_engine_prices_without_data() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let d = desc();
        let act = ActivationDescriptor::new(ActivationMode::Relu);
        h.activation_forward(&act, 1.0, &d, &[], 0.0, &d, &mut [])
            .unwrap();
        assert!(h.elapsed_us() > 0.0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let h = CudnnHandle::real_cpu();
        let a = desc();
        let b = TensorDescriptor::from_shape(Shape4::new(2, 3, 4, 5)).unwrap();
        let act = ActivationDescriptor::new(ActivationMode::Relu);
        assert!(h
            .activation_forward(&act, 1.0, &a, &[], 0.0, &b, &mut [])
            .is_err());
    }

    /// Every mode's backward computes `alpha * f' * dy + beta * dx` per
    /// element, in that order, bit for bit, over every combination of
    /// `x`, `y`, `dy` and `dx` drawn from signed zeros, inexact values, a
    /// near-overflow value, ±inf and NaN.
    #[test]
    fn backward_is_the_per_element_formula() {
        let h = CudnnHandle::real_cpu();
        let v = [
            0.0,
            -0.0,
            1.5,
            -2.0,
            0.1,
            -0.3,
            3e38,
            f32::INFINITY,
            -f32::INFINITY,
            f32::NAN,
        ];
        // Operand k of element i is v[digit k of i in base v.len()].
        let n = v.len().pow(4);
        let operand =
            |k: u32| -> Vec<f32> { (0..n).map(|i| v[i / v.len().pow(k) % v.len()]).collect() };
        let (x, y, dy, dx0) = (operand(0), operand(1), operand(2), operand(3));
        let d = TensorDescriptor::new_4d(1, 1, 1, n).unwrap();
        for mode in [
            ActivationMode::Relu,
            ActivationMode::Sigmoid,
            ActivationMode::Tanh,
        ] {
            let act = ActivationDescriptor::new(mode);
            for (alpha, beta) in [(1.0, 0.0), (0.75, -0.5), (-2.0, 0.25)] {
                let mut dx = dx0.clone();
                h.activation_backward(&act, alpha, &d, &y, &d, &dy, &d, &x, beta, &d, &mut dx)
                    .unwrap();
                for i in 0..n {
                    let grad = match mode {
                        ActivationMode::Relu => f32::from(u8::from(x[i] > 0.0)),
                        ActivationMode::Sigmoid => y[i] * (1.0 - y[i]),
                        ActivationMode::Tanh => 1.0 - y[i] * y[i],
                    };
                    let want = alpha * grad * dy[i] + beta * dx0[i];
                    let same =
                        dx[i].to_bits() == want.to_bits() || (dx[i].is_nan() && want.is_nan());
                    assert!(
                        same,
                        "{mode:?} alpha {alpha} beta {beta} at {i}: {} vs {want}",
                        dx[i]
                    );
                }
            }
        }
    }

    #[test]
    fn activation_forward_rejects_an_empty_buffer_on_real_cpu() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        let act = ActivationDescriptor::new(ActivationMode::Relu);
        let mut y = vec![7.0; d.len()];
        let err = h
            .activation_forward(&act, 1.0, &d, &[], 0.0, &d, &mut y)
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
        assert!(y.iter().all(|&v| v == 7.0), "y must be left untouched");
    }

    #[test]
    fn activation_backward_rejects_an_empty_buffer_on_real_cpu() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        let act = ActivationDescriptor::new(ActivationMode::Relu);
        let full = vec![1.0; d.len()];
        let mut dx = vec![0.0; d.len()];
        for empty in 0..3 {
            let pick = |i: usize| if i == empty { &[][..] } else { &full[..] };
            let err = h
                .activation_backward(
                    &act,
                    1.0,
                    &d,
                    pick(0),
                    &d,
                    pick(1),
                    &d,
                    pick(2),
                    0.0,
                    &d,
                    &mut dx,
                )
                .unwrap_err();
            assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
        }
    }
}
