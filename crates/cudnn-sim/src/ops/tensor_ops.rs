//! `cudnnAddTensor` (broadcast bias add) and
//! `cudnnConvolutionBackwardBias`.

use crate::descriptor::TensorDescriptor;
use crate::error::{CudnnError, Result};
use crate::handle::CudnnHandle;

impl CudnnHandle {
    /// `y = alpha * broadcast(b) + beta * y` where `b` is a `(1, C, 1, 1)`
    /// bias tensor broadcast over N/H/W — the add Caffe issues after each
    /// convolution.
    ///
    /// # Errors
    /// Shape mismatches and engine-contract violations.
    pub fn add_tensor(
        &self,
        alpha: f32,
        b_desc: &TensorDescriptor,
        b: &[f32],
        beta: f32,
        y_desc: &TensorDescriptor,
        y: &mut [f32],
    ) -> Result<()> {
        let bs = b_desc.shape();
        let ys = y_desc.shape();
        if bs.n != 1 || bs.h != 1 || bs.w != 1 || bs.c != ys.c {
            return Err(CudnnError::BadParam(format!(
                "add_tensor supports (1, C, 1, 1) bias broadcast; got bias {bs} for {ys}"
            )));
        }
        self.check_len("b", b.len(), bs.len())?;
        self.check_len("y", y.len(), ys.len())?;
        let bytes = 4 * 2 * ys.len();
        self.aux_op(bytes, !b.is_empty() || !y.is_empty(), || {
            let plane = ys.h * ys.w;
            for ni in 0..ys.n {
                for (ci, bias) in b.iter().enumerate() {
                    let base = (ni * ys.c + ci) * plane;
                    for v in &mut y[base..base + plane] {
                        *v = alpha * bias + beta * *v;
                    }
                }
            }
            Ok(())
        })
    }

    /// `db = alpha * Σ_{n,h,w} dy + beta * db` — the bias gradient.
    ///
    /// # Errors
    /// Shape mismatches and engine-contract violations.
    pub fn convolution_backward_bias(
        &self,
        alpha: f32,
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        beta: f32,
        db_desc: &TensorDescriptor,
        db: &mut [f32],
    ) -> Result<()> {
        let ys = dy_desc.shape();
        let bs = db_desc.shape();
        if bs.n != 1 || bs.h != 1 || bs.w != 1 || bs.c != ys.c {
            return Err(CudnnError::BadParam(format!(
                "bias gradient must be (1, C, 1, 1); got {bs} for {ys}"
            )));
        }
        self.check_len("dy", dy.len(), ys.len())?;
        self.check_len("db", db.len(), bs.len())?;
        let bytes = 4 * ys.len();
        self.aux_op(bytes, !dy.is_empty() || !db.is_empty(), || {
            let plane = ys.h * ys.w;
            for (ci, dbv) in db.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for ni in 0..ys.n {
                    let base = (ni * ys.c + ci) * plane;
                    for v in &dy[base..base + plane] {
                        acc += v;
                    }
                }
                *dbv = alpha * acc + beta * *dbv;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{Shape4, Tensor};

    #[test]
    fn add_tensor_broadcasts_bias() {
        let h = CudnnHandle::real_cpu();
        let yd = TensorDescriptor::from_shape(Shape4::new(2, 3, 2, 2)).unwrap();
        let bd = TensorDescriptor::from_shape(Shape4::new(1, 3, 1, 1)).unwrap();
        let bias = [1.0f32, 2.0, 3.0];
        let mut y = Tensor::zeros(yd.shape());
        h.add_tensor(1.0, &bd, &bias, 1.0, &yd, y.as_mut_slice())
            .unwrap();
        for ni in 0..2 {
            for (ci, b) in bias.iter().enumerate() {
                assert_eq!(y.get(ni, ci, 1, 1), *b);
            }
        }
    }

    #[test]
    fn backward_bias_is_adjoint_of_add() {
        // <broadcast(b), dy> == <b, bias_grad(dy)>.
        let h = CudnnHandle::real_cpu();
        let yd = TensorDescriptor::from_shape(Shape4::new(3, 4, 5, 5)).unwrap();
        let bd = TensorDescriptor::from_shape(Shape4::new(1, 4, 1, 1)).unwrap();
        let b = Tensor::random(bd.shape(), 1);
        let dy = Tensor::random(yd.shape(), 2);
        let mut broadcast = Tensor::zeros(yd.shape());
        h.add_tensor(1.0, &bd, b.as_slice(), 0.0, &yd, broadcast.as_mut_slice())
            .unwrap();
        let mut db = Tensor::zeros(bd.shape());
        h.convolution_backward_bias(1.0, &yd, dy.as_slice(), 0.0, &bd, db.as_mut_slice())
            .unwrap();
        let lhs: f64 = broadcast
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, c)| (*a as f64) * (*c as f64))
            .sum();
        let rhs: f64 = b
            .as_slice()
            .iter()
            .zip(db.as_slice())
            .map(|(a, c)| (*a as f64) * (*c as f64))
            .sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn non_bias_shapes_rejected() {
        let h = CudnnHandle::real_cpu();
        let yd = TensorDescriptor::from_shape(Shape4::new(2, 3, 2, 2)).unwrap();
        let bad = TensorDescriptor::from_shape(Shape4::new(1, 2, 1, 1)).unwrap();
        assert!(h.add_tensor(1.0, &bad, &[], 0.0, &yd, &mut []).is_err());
    }

    #[test]
    fn simulated_bias_ops_price() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let yd = TensorDescriptor::from_shape(Shape4::new(64, 64, 27, 27)).unwrap();
        let bd = TensorDescriptor::from_shape(Shape4::new(1, 64, 1, 1)).unwrap();
        h.add_tensor(1.0, &bd, &[], 1.0, &yd, &mut []).unwrap();
        h.convolution_backward_bias(1.0, &yd, &[], 0.0, &bd, &mut [])
            .unwrap();
        assert_eq!(h.kernels_launched(), 2);
    }

    #[test]
    fn add_tensor_rejects_an_empty_buffer_on_real_cpu() {
        let h = CudnnHandle::real_cpu();
        let yd = TensorDescriptor::from_shape(Shape4::new(2, 3, 2, 2)).unwrap();
        let bd = TensorDescriptor::from_shape(Shape4::new(1, 3, 1, 1)).unwrap();
        let mut y = vec![0.0; yd.len()];
        let err = h.add_tensor(1.0, &bd, &[], 1.0, &yd, &mut y).unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
    }

    #[test]
    fn backward_bias_rejects_an_empty_buffer_on_real_cpu() {
        let h = CudnnHandle::real_cpu();
        let yd = TensorDescriptor::from_shape(Shape4::new(2, 3, 2, 2)).unwrap();
        let bd = TensorDescriptor::from_shape(Shape4::new(1, 3, 1, 1)).unwrap();
        let mut db = vec![0.0; bd.len()];
        let err = h
            .convolution_backward_bias(1.0, &yd, &[], 0.0, &bd, &mut db)
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)), "{err}");
    }
}
