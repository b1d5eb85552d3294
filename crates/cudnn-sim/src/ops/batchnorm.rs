//! `cudnnBatchNormalizationForwardTraining` / `cudnnBatchNormalizationBackward`
//! in `SPATIAL` mode (one statistic per channel over N×H×W).

use crate::descriptor::TensorDescriptor;
use crate::error::{CudnnError, Result};
use crate::handle::CudnnHandle;
use ucudnn_tensor::Shape4;

/// Minimum epsilon cuDNN accepts (`CUDNN_BN_MIN_EPSILON`).
pub const BN_MIN_EPSILON: f64 = 1e-5;

/// Per-channel statistics over (N, H, W): returns (mean, variance).
fn spatial_stats(s: Shape4, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let m = (s.n * s.h * s.w) as f32;
    let mut mean = vec![0.0f32; s.c];
    let mut var = vec![0.0f32; s.c];
    for ni in 0..s.n {
        for ci in 0..s.c {
            for hi in 0..s.h {
                for wi in 0..s.w {
                    mean[ci] += x[s.index(ni, ci, hi, wi)];
                }
            }
        }
    }
    for v in &mut mean {
        *v /= m;
    }
    for ni in 0..s.n {
        for ci in 0..s.c {
            for hi in 0..s.h {
                for wi in 0..s.w {
                    let d = x[s.index(ni, ci, hi, wi)] - mean[ci];
                    var[ci] += d * d;
                }
            }
        }
    }
    for v in &mut var {
        *v /= m;
    }
    (mean, var)
}

impl CudnnHandle {
    /// Spatial batch-norm forward (training): normalizes per channel and
    /// applies scale `gamma` / shift `beta_p`. On the real engine the
    /// per-channel `saved_mean` / `saved_inv_var` buffers are filled for the
    /// backward pass, exactly as cuDNN's `resultSaveMean` /
    /// `resultSaveInvVariance`.
    ///
    /// # Errors
    /// Shape mismatches, bad epsilon, engine-contract violations.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm_forward_training(
        &self,
        alpha: f32,
        beta: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        y_desc: &TensorDescriptor,
        y: &mut [f32],
        gamma: &[f32],
        beta_p: &[f32],
        epsilon: f64,
        saved_mean: &mut [f32],
        saved_inv_var: &mut [f32],
    ) -> Result<()> {
        let s = x_desc.shape();
        if y_desc.shape() != s {
            return Err(CudnnError::BadParam("batch-norm shapes must match".into()));
        }
        if epsilon < BN_MIN_EPSILON {
            return Err(CudnnError::BadParam(format!(
                "epsilon {epsilon} < CUDNN_BN_MIN_EPSILON"
            )));
        }
        self.check_len("x", x.len(), s.len())?;
        self.check_len("y", y.len(), s.len())?;
        self.check_len("gamma", gamma.len(), s.c)?;
        self.check_len("beta", beta_p.len(), s.c)?;
        self.check_len("saved_mean", saved_mean.len(), s.c)?;
        self.check_len("saved_inv_var", saved_inv_var.len(), s.c)?;
        let any = !x.is_empty() || !y.is_empty();
        // Two passes over x plus one write of y.
        let bytes = 4 * 3 * s.len();
        self.aux_op(bytes, any, || {
            let (mean, var) = spatial_stats(s, x);
            for ci in 0..s.c {
                saved_mean[ci] = mean[ci];
                saved_inv_var[ci] = 1.0 / (var[ci] + epsilon as f32).sqrt();
            }
            for ni in 0..s.n {
                for ci in 0..s.c {
                    for hi in 0..s.h {
                        for wi in 0..s.w {
                            let i = s.index(ni, ci, hi, wi);
                            let xhat = (x[i] - mean[ci]) * saved_inv_var[ci];
                            y[i] = alpha * (gamma[ci] * xhat + beta_p[ci]) + beta * y[i];
                        }
                    }
                }
            }
            Ok(())
        })
    }

    /// Spatial batch-norm backward: computes `dx`, `dgamma`, `dbeta` from
    /// the saved statistics (pass empty slices to recompute them from `x`,
    /// like passing NULL to cuDNN).
    ///
    /// # Errors
    /// Shape mismatches and engine-contract violations.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm_backward(
        &self,
        x_desc: &TensorDescriptor,
        x: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        dx_desc: &TensorDescriptor,
        dx: &mut [f32],
        gamma: &[f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
        epsilon: f64,
        saved_mean: &[f32],
        saved_inv_var: &[f32],
    ) -> Result<()> {
        let s = x_desc.shape();
        if dy_desc.shape() != s || dx_desc.shape() != s {
            return Err(CudnnError::BadParam(
                "batch-norm gradient shapes must match".into(),
            ));
        }
        self.check_len("x", x.len(), s.len())?;
        self.check_len("dy", dy.len(), s.len())?;
        self.check_len("dx", dx.len(), s.len())?;
        self.check_len("gamma", gamma.len(), s.c)?;
        self.check_len("dgamma", dgamma.len(), s.c)?;
        self.check_len("dbeta", dbeta.len(), s.c)?;
        let any = !x.is_empty() || !dy.is_empty() || !dx.is_empty();
        let bytes = 4 * 4 * s.len();
        self.aux_op(bytes, any, || {
            let m = (s.n * s.h * s.w) as f32;
            let (mean, inv_std): (Vec<f32>, Vec<f32>) =
                if saved_mean.len() == s.c && saved_inv_var.len() == s.c {
                    (saved_mean.to_vec(), saved_inv_var.to_vec())
                } else {
                    let (mean, var) = spatial_stats(s, x);
                    let inv: Vec<f32> = var
                        .iter()
                        .map(|v| 1.0 / (v + epsilon as f32).sqrt())
                        .collect();
                    (mean, inv)
                };
            dgamma.iter_mut().for_each(|v| *v = 0.0);
            dbeta.iter_mut().for_each(|v| *v = 0.0);
            for ni in 0..s.n {
                for ci in 0..s.c {
                    for hi in 0..s.h {
                        for wi in 0..s.w {
                            let i = s.index(ni, ci, hi, wi);
                            let xhat = (x[i] - mean[ci]) * inv_std[ci];
                            dgamma[ci] += dy[i] * xhat;
                            dbeta[ci] += dy[i];
                        }
                    }
                }
            }
            for ni in 0..s.n {
                for ci in 0..s.c {
                    for hi in 0..s.h {
                        for wi in 0..s.w {
                            let i = s.index(ni, ci, hi, wi);
                            let xhat = (x[i] - mean[ci]) * inv_std[ci];
                            dx[i] = gamma[ci]
                                * inv_std[ci]
                                * (dy[i] - dbeta[ci] / m - xhat * dgamma[ci] / m);
                        }
                    }
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::Tensor;

    fn desc() -> TensorDescriptor {
        TensorDescriptor::from_shape(Shape4::new(4, 2, 5, 5)).unwrap()
    }

    #[test]
    fn forward_normalizes_per_channel() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        let s = d.shape();
        let x = Tensor::random(s, 3);
        let mut y = Tensor::zeros(s);
        let (mut sm, mut siv) = (vec![0.0; s.c], vec![0.0; s.c]);
        h.batch_norm_forward_training(
            1.0,
            0.0,
            &d,
            x.as_slice(),
            &d,
            y.as_mut_slice(),
            &[1.0, 1.0],
            &[0.0, 0.0],
            BN_MIN_EPSILON,
            &mut sm,
            &mut siv,
        )
        .unwrap();
        let (mean, var) = spatial_stats(s, y.as_slice());
        for c in 0..s.c {
            assert!(mean[c].abs() < 1e-4);
            assert!((var[c] - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        let s = d.shape();
        let x = Tensor::random(s, 11);
        let dy = Tensor::random(s, 12);
        let gamma = [1.3f32, 0.7];
        let beta_p = [0.1f32, -0.2];
        let loss = |xv: &Tensor| -> f64 {
            let mut y = Tensor::zeros(s);
            let (mut sm, mut siv) = (vec![0.0; s.c], vec![0.0; s.c]);
            h.batch_norm_forward_training(
                1.0,
                0.0,
                &d,
                xv.as_slice(),
                &d,
                y.as_mut_slice(),
                &gamma,
                &beta_p,
                BN_MIN_EPSILON,
                &mut sm,
                &mut siv,
            )
            .unwrap();
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum()
        };
        let mut y = Tensor::zeros(s);
        let (mut sm, mut siv) = (vec![0.0; s.c], vec![0.0; s.c]);
        h.batch_norm_forward_training(
            1.0,
            0.0,
            &d,
            x.as_slice(),
            &d,
            y.as_mut_slice(),
            &gamma,
            &beta_p,
            BN_MIN_EPSILON,
            &mut sm,
            &mut siv,
        )
        .unwrap();
        let mut dx = Tensor::zeros(s);
        let (mut dg, mut db) = (vec![0.0; s.c], vec![0.0; s.c]);
        h.batch_norm_backward(
            &d,
            x.as_slice(),
            &d,
            dy.as_slice(),
            &d,
            dx.as_mut_slice(),
            &gamma,
            &mut dg,
            &mut db,
            BN_MIN_EPSILON,
            &sm,
            &siv,
        )
        .unwrap();
        let eps = 1e-2f32;
        for i in [0usize, 33, 101] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * eps as f64);
            let analytic = dx.as_slice()[i] as f64;
            assert!(
                (numeric - analytic).abs() < 5e-2 * numeric.abs().max(analytic.abs()).max(1e-2),
                "dx[{i}]: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn backward_without_saved_stats_recomputes() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        let s = d.shape();
        let x = Tensor::random(s, 21);
        let dy = Tensor::random(s, 22);
        let gamma = [1.0f32, 1.0];
        let mut y = Tensor::zeros(s);
        let (mut sm, mut siv) = (vec![0.0; s.c], vec![0.0; s.c]);
        h.batch_norm_forward_training(
            1.0,
            0.0,
            &d,
            x.as_slice(),
            &d,
            y.as_mut_slice(),
            &gamma,
            &[0.0, 0.0],
            BN_MIN_EPSILON,
            &mut sm,
            &mut siv,
        )
        .unwrap();
        let run = |saved_m: &[f32], saved_iv: &[f32]| -> (Tensor, Vec<f32>) {
            let mut dx = Tensor::zeros(s);
            let (mut dg, mut db) = (vec![0.0; s.c], vec![0.0; s.c]);
            h.batch_norm_backward(
                &d,
                x.as_slice(),
                &d,
                dy.as_slice(),
                &d,
                dx.as_mut_slice(),
                &gamma,
                &mut dg,
                &mut db,
                BN_MIN_EPSILON,
                saved_m,
                saved_iv,
            )
            .unwrap();
            (dx, dg)
        };
        let (dx_saved, dg_saved) = run(&sm, &siv);
        let (dx_fresh, dg_fresh) = run(&[], &[]);
        ucudnn_tensor::assert_all_close(&dx_saved, &dx_fresh, 1e-5);
        for (a, b) in dg_saved.iter().zip(&dg_fresh) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn tiny_epsilon_is_rejected() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let d = desc();
        let err = h
            .batch_norm_forward_training(
                1.0,
                0.0,
                &d,
                &[],
                &d,
                &mut [],
                &[],
                &[],
                1e-9,
                &mut [],
                &mut [],
            )
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)));
    }

    #[test]
    fn simulated_engine_prices_bn() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let d = desc();
        h.batch_norm_forward_training(
            1.0,
            0.0,
            &d,
            &[],
            &d,
            &mut [],
            &[],
            &[],
            BN_MIN_EPSILON,
            &mut [],
            &mut [],
        )
        .unwrap();
        assert!(h.elapsed_us() > 0.0);
    }

    #[test]
    fn forward_training_rejects_an_empty_buffer_on_real_cpu() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        let c = d.shape().c;
        let mut y = vec![0.0; d.len()];
        let (mut sm, mut siv) = (vec![0.0; c], vec![0.0; c]);
        let err = h
            .batch_norm_forward_training(
                1.0,
                0.0,
                &d,
                &[],
                &d,
                &mut y,
                &[1.0, 1.0],
                &[0.0, 0.0],
                BN_MIN_EPSILON,
                &mut sm,
                &mut siv,
            )
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
    }

    #[test]
    fn backward_rejects_an_empty_buffer_on_real_cpu() {
        let h = CudnnHandle::real_cpu();
        let d = desc();
        let c = d.shape().c;
        let (x, dy) = (vec![1.0; d.len()], vec![1.0; d.len()]);
        let mut dx = vec![0.0; d.len()];
        let (mut dg, mut db) = (vec![0.0; c], vec![0.0; c]);
        let err = h
            .batch_norm_backward(
                &d,
                &x,
                &d,
                &[],
                &d,
                &mut dx,
                &[1.0, 1.0],
                &mut dg,
                &mut db,
                BN_MIN_EPSILON,
                &[],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
        let err = h
            .batch_norm_backward(
                &d,
                &x,
                &d,
                &dy,
                &d,
                &mut dx,
                &[],
                &mut dg,
                &mut db,
                BN_MIN_EPSILON,
                &[],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
    }
}
