//! Auxiliary cuDNN primitives beyond convolution.
//!
//! Caffe's cuDNN-backed layers also call `cudnnAddTensor`,
//! `cudnnActivationForward/Backward`, `cudnnPoolingForward/Backward`,
//! `cudnnBatchNormalizationForwardTraining/Backward` and
//! `cudnnConvolutionBackwardBias`. These are outside μ-cuDNN's optimization
//! scope (the paper highlights them only as the "other" bars of its timing
//! breakdowns) but the framework substrate needs them, so they are
//! implemented here with the same two-engine contract as the convolution
//! calls: real CPU arithmetic under `Engine::RealCpu`, a memory-bandwidth
//! cost model and empty data buffers under `Engine::Simulated`.

pub mod activation;
pub mod batchnorm;
pub mod pooling;
pub mod tensor_ops;

pub use activation::{ActivationDescriptor, ActivationMode};
pub use batchnorm::BN_MIN_EPSILON;
pub use pooling::{PoolingDescriptor, PoolingMode};

use crate::error::{CudnnError, Result};
use crate::handle::{CudnnHandle, Engine};
use ucudnn_gpu_model::memory_bound_time_us;

impl CudnnHandle {
    /// Shared execution shell for auxiliary (non-convolution) kernels.
    ///
    /// * Simulated: all data slices must be empty; the virtual clock
    ///   advances by the memory-bound model for `bytes_moved`.
    /// * RealCpu: `compute` runs and the clock advances by wall time.
    pub(crate) fn aux_op(
        &self,
        bytes_moved: usize,
        any_data: bool,
        compute: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        match self.engine() {
            Engine::Simulated(d) => {
                if any_data {
                    return Err(CudnnError::BadParam(
                        "the simulated engine takes empty data slices; use RealCpu for numerics"
                            .into(),
                    ));
                }
                self.advance(memory_bound_time_us(d, bytes_moved as f64));
                Ok(())
            }
            Engine::RealCpu => {
                let start = std::time::Instant::now();
                compute()?;
                self.advance(start.elapsed().as_secs_f64() * 1e6);
                Ok(())
            }
        }
    }

    /// Check a data slice against its descriptor length: RealCpu computes
    /// on it, so it must match exactly; the simulated engine also takes an
    /// empty slice (and [`Self::aux_op`] then rejects any data).
    pub(crate) fn check_len(&self, name: &str, got: usize, want: usize) -> Result<()> {
        let simulated_empty = got == 0 && matches!(self.engine(), Engine::Simulated(_));
        if got != want && !simulated_empty {
            return Err(CudnnError::BadParam(format!(
                "{name} buffer has {got} elements, descriptor says {want}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::TensorDescriptor;
    use ucudnn_gpu_model::p100_sxm2;

    #[test]
    fn simulated_aux_op_prices_by_bytes() {
        let h = CudnnHandle::simulated(p100_sxm2());
        h.aux_op(1_000_000, false, || {
            unreachable!("simulated must not compute")
        })
        .unwrap();
        let small = h.elapsed_us();
        h.reset_clock();
        h.aux_op(100_000_000, false, || unreachable!()).unwrap();
        assert!(h.elapsed_us() > small);
    }

    #[test]
    fn simulated_aux_op_rejects_data() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let err = h.aux_op(10, true, || Ok(())).unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)));
    }

    #[test]
    fn real_aux_op_computes() {
        let h = CudnnHandle::real_cpu();
        let mut ran = false;
        h.aux_op(10, true, || {
            ran = true;
            Ok(())
        })
        .unwrap();
        assert!(ran);
        assert_eq!(h.kernels_launched(), 1);
    }

    #[test]
    fn check_len_takes_empty_slices_only_when_simulated() {
        let d = TensorDescriptor::new_4d(2, 3, 4, 4).unwrap();
        let sim = CudnnHandle::simulated(p100_sxm2());
        assert!(sim.check_len("x", 0, d.len()).is_ok());
        assert!(sim.check_len("x", d.len(), d.len()).is_ok());
        assert!(sim.check_len("x", 5, d.len()).is_err());
        let real = CudnnHandle::real_cpu();
        assert!(real.check_len("x", d.len(), d.len()).is_ok());
        for got in [0, 5] {
            let err = real.check_len("x", got, d.len()).unwrap_err();
            assert!(matches!(err, CudnnError::BadParam(_)));
        }
    }
}
