//! Kernel execution: `cudnnConvolutionForward`,
//! `cudnnConvolutionBackwardData`, `cudnnConvolutionBackwardFilter`.
//!
//! Data-buffer contract by engine:
//!
//! * **Simulated** — all data slices must be *empty* (`&[]`). The call
//!   validates descriptors, algorithm support and workspace capacity, then
//!   advances the virtual clock by the modeled kernel time. Passing real
//!   data to a performance model would silently produce garbage, so it is a
//!   `BAD_PARAM` instead.
//! * **RealCpu** — all data slices must match their descriptors exactly; the
//!   kernel computes real results and the clock advances by wall time.

use crate::descriptor::{
    check_geometry, ConvolutionDescriptor, FilterDescriptor, TensorDescriptor,
};
use crate::error::{CudnnError, Result};
use crate::handle::{CudnnHandle, Engine};
use crate::map::{cpu_engine_for, supported_on, workspace_bytes_on};
use ucudnn_conv::ConvOp;
use ucudnn_gpu_model::{kernel_time_us, ConvAlgo};
use ucudnn_tensor::ConvGeometry;

impl CudnnHandle {
    /// One convolution call of any op on geometry `g`:
    /// `out = alpha * op(a, b) + beta * out`, with the buffer roles of
    /// `ucudnn_conv::exec` (Forward: `a = x`, `b = w`, `out = y`;
    /// BackwardData: `a = dy`, `b = w`, `out = dx`; BackwardFilter: `a = x`,
    /// `b = dy`, `out = dw`). The three descriptor-style calls below
    /// delegate here.
    ///
    /// # Errors
    /// `BadParam` for an invalid geometry ([`check_geometry`]) or buffers
    /// that do not match it, `NotSupported`, `WorkspaceTooSmall`, and
    /// injected execution faults.
    #[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
    pub fn convolution(
        &self,
        op: ConvOp,
        g: &ConvGeometry,
        algo: ConvAlgo,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        alpha: f32,
        beta: f32,
        ws: &mut [f32],
    ) -> Result<()> {
        check_geometry(g)?;
        if !supported_on(self.engine(), algo, op, g) {
            return Err(CudnnError::NotSupported(format!(
                "{algo} cannot run {op} on {g}"
            )));
        }
        let need = workspace_bytes_on(self.engine(), algo, op, g).unwrap_or(0);
        let got = 4 * ws.len();
        if got < need {
            return Err(CudnnError::WorkspaceTooSmall { need, got });
        }
        // Injected execution faults fire after validation, before the
        // kernel: a faulted call never advances the clock, like a real
        // kernel that aborts at launch.
        self.fault_exec(op, algo, g.input.n)?;
        match self.engine() {
            Engine::Simulated(d) => {
                if !a.is_empty() || !b.is_empty() || !out.is_empty() {
                    return Err(CudnnError::BadParam(
                        "the simulated engine takes empty data slices; use RealCpu for numerics"
                            .into(),
                    ));
                }
                let t = kernel_time_us(d, algo, op, g).ok_or_else(|| {
                    CudnnError::NotSupported(format!("{algo} unsupported on {g}"))
                })?;
                self.advance(t);
                Ok(())
            }
            Engine::RealCpu => {
                let (a_len, b_len, out_len) = match op {
                    ConvOp::Forward => (g.input.len(), g.filter.len(), g.output().len()),
                    ConvOp::BackwardData => (g.output().len(), g.filter.len(), g.input.len()),
                    ConvOp::BackwardFilter => (g.input.len(), g.output().len(), g.filter.len()),
                };
                if a.len() != a_len || b.len() != b_len || out.len() != out_len {
                    return Err(CudnnError::BadParam(format!(
                        "data buffer sizes ({}, {}, {}) do not match descriptors ({a_len}, {b_len}, {out_len})",
                        a.len(),
                        b.len(),
                        out.len()
                    )));
                }
                let kind = cpu_engine_for(algo)
                    .ok_or_else(|| CudnnError::NotSupported(format!("{algo} has no kernel")))?;
                let start = std::time::Instant::now();
                // Execute through the plan cache: call-invariant state
                // (packed filter panels, Winograd-transformed filters) is
                // derived once per (engine, op, batch-1 geometry) and reused
                // across the micro-batches and iterations that follow.
                // Cached and uncached execution are bit-identical, so the
                // cache — and an injected allocation fault degrading a call
                // to uncached execution — never changes results.
                self.plan_cache()
                    .with_plan(
                        crate::plan_cache::plan_key(kind, op, g),
                        kind,
                        |bytes| self.fault_check_alloc(bytes).is_ok(),
                        |plan| {
                            ucudnn_conv::exec_with_plan(
                                kind, op, g, a, b, out, alpha, beta, ws, plan,
                            )
                        },
                    )
                    .map_err(|e| CudnnError::ExecutionFailed(e.to_string()))?;
                self.advance(start.elapsed().as_secs_f64() * 1e6);
                Ok(())
            }
        }
    }

    /// `cudnnConvolutionForward`: `y = alpha * conv(x, w) + beta * y`.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_forward(
        &self,
        alpha: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        w_desc: &FilterDescriptor,
        w: &[f32],
        conv: &ConvolutionDescriptor,
        algo: ConvAlgo,
        ws: &mut [f32],
        beta: f32,
        y_desc: &TensorDescriptor,
        y: &mut [f32],
    ) -> Result<()> {
        let g = conv.call_geometry(x_desc, w_desc, y_desc)?;
        self.convolution(ConvOp::Forward, &g, algo, x, w, y, alpha, beta, ws)
    }

    /// `cudnnConvolutionBackwardData`: `dx = alpha * grad_x + beta * dx`.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_backward_data(
        &self,
        alpha: f32,
        w_desc: &FilterDescriptor,
        w: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        conv: &ConvolutionDescriptor,
        algo: ConvAlgo,
        ws: &mut [f32],
        beta: f32,
        dx_desc: &TensorDescriptor,
        dx: &mut [f32],
    ) -> Result<()> {
        let g = conv.call_geometry(dx_desc, w_desc, dy_desc)?;
        self.convolution(ConvOp::BackwardData, &g, algo, dy, w, dx, alpha, beta, ws)
    }

    /// `cudnnConvolutionBackwardFilter`: `dw = alpha * grad_w + beta * dw`.
    /// With `beta = 1` this accumulates — the property μ-cuDNN uses to split
    /// BackwardFilter across micro-batches.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_backward_filter(
        &self,
        alpha: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        conv: &ConvolutionDescriptor,
        algo: ConvAlgo,
        ws: &mut [f32],
        beta: f32,
        dw_desc: &FilterDescriptor,
        dw: &mut [f32],
    ) -> Result<()> {
        let g = conv.call_geometry(x_desc, dw_desc, dy_desc)?;
        self.convolution(ConvOp::BackwardFilter, &g, algo, x, dy, dw, alpha, beta, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{assert_all_close, Shape4, Tensor};

    fn descs(
        n: usize,
    ) -> (
        TensorDescriptor,
        FilterDescriptor,
        ConvolutionDescriptor,
        TensorDescriptor,
    ) {
        let x = TensorDescriptor::new_4d(n, 3, 8, 8).unwrap();
        let w = FilterDescriptor::new_4d(4, 3, 3, 3).unwrap();
        let c = ConvolutionDescriptor::new_2d(1, 1, 1, 1).unwrap();
        let y = TensorDescriptor::from_shape(c.forward_output_dim(&x, &w).unwrap()).unwrap();
        (x, w, c, y)
    }

    #[test]
    fn simulated_forward_advances_clock_only() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (xd, wd, cd, yd) = descs(16);
        h.convolution_forward(
            1.0,
            &xd,
            &[],
            &wd,
            &[],
            &cd,
            ConvAlgo::ImplicitGemm,
            &mut [],
            0.0,
            &yd,
            &mut [],
        )
        .unwrap();
        assert!(h.elapsed_us() > 0.0);
        assert_eq!(h.kernels_launched(), 1);
    }

    #[test]
    fn simulated_rejects_real_data() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (xd, wd, cd, yd) = descs(2);
        let x = Tensor::zeros(xd.shape());
        let w = Tensor::zeros(wd.shape().as_shape4());
        let mut y = Tensor::zeros(yd.shape());
        let err = h
            .convolution_forward(
                1.0,
                &xd,
                x.as_slice(),
                &wd,
                w.as_slice(),
                &cd,
                ConvAlgo::ImplicitGemm,
                &mut [],
                0.0,
                &yd,
                y.as_mut_slice(),
            )
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)));
    }

    #[test]
    fn real_cpu_forward_computes_correct_values() {
        let h = CudnnHandle::real_cpu();
        let (xd, wd, cd, yd) = descs(3);
        let g = cd.geometry(&xd, &wd).unwrap();
        let x = Tensor::random(g.input, 1);
        let w = Tensor::random(g.filter.as_shape4(), 2);
        let mut want = Tensor::zeros(g.output());
        ucudnn_conv::direct::forward(
            &g,
            x.as_slice(),
            w.as_slice(),
            want.as_mut_slice(),
            1.0,
            0.0,
        );

        for algo in [
            ConvAlgo::ImplicitGemm,
            ConvAlgo::Gemm,
            ConvAlgo::Winograd,
            ConvAlgo::WinogradNonfused,
        ] {
            let bytes = h
                .get_workspace_size(ConvOp::Forward, &xd, &wd, &cd, algo)
                .unwrap();
            let mut ws = vec![0.0f32; bytes.div_ceil(4)];
            let mut y = Tensor::zeros(g.output());
            h.convolution_forward(
                1.0,
                &xd,
                x.as_slice(),
                &wd,
                w.as_slice(),
                &cd,
                algo,
                &mut ws,
                0.0,
                &yd,
                y.as_mut_slice(),
            )
            .unwrap();
            assert_all_close(&want, &y, 5e-3);
        }
        // FFT has no CPU kernel: its workspace query and execution refuse.
        for algo in [ConvAlgo::Fft, ConvAlgo::FftTiling] {
            assert!(matches!(
                h.get_workspace_size(ConvOp::Forward, &xd, &wd, &cd, algo),
                Err(CudnnError::NotSupported(_))
            ));
            let mut y = Tensor::zeros(g.output());
            let run = h.convolution_forward(
                1.0,
                &xd,
                x.as_slice(),
                &wd,
                w.as_slice(),
                &cd,
                algo,
                &mut [],
                0.0,
                &yd,
                y.as_mut_slice(),
            );
            assert!(matches!(run, Err(CudnnError::NotSupported(_))));
        }
        assert!(h.elapsed_us() > 0.0);
    }

    /// Repeated RealCpu calls hit the plan cache, micro-batches of one layer
    /// share the entry, and warm results are bit-identical to cold ones.
    #[test]
    fn real_cpu_exec_warms_plan_cache_bit_identically() {
        let h = CudnnHandle::real_cpu();
        let run = |handle: &CudnnHandle, n: usize| {
            let (xd, wd, cd, yd) = descs(n);
            let g = cd.geometry(&xd, &wd).unwrap();
            let x = Tensor::random(g.input, 1);
            let w = Tensor::random(g.filter.as_shape4(), 2);
            let bytes = handle
                .get_workspace_size(ConvOp::Forward, &xd, &wd, &cd, ConvAlgo::Gemm)
                .unwrap();
            let mut ws = vec![0.0f32; bytes.div_ceil(4)];
            let mut y = Tensor::zeros(g.output());
            handle
                .convolution_forward(
                    1.0,
                    &xd,
                    x.as_slice(),
                    &wd,
                    w.as_slice(),
                    &cd,
                    ConvAlgo::Gemm,
                    &mut ws,
                    0.0,
                    &yd,
                    y.as_mut_slice(),
                )
                .unwrap();
            y
        };
        let cold = run(&h, 2);
        let stats = h.exec_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert!(stats.bytes > 0, "a warm plan must hold packed panels");
        for round in 1..=3 {
            let warm = run(&h, 2);
            assert!(
                cold.as_slice()
                    .iter()
                    .zip(warm.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "warm round {round} diverged from cold execution"
            );
        }
        assert_eq!(h.exec_cache_stats().hits, 3);
        // A different micro-batch size of the same layer shares the entry.
        run(&h, 7);
        assert_eq!(h.exec_cache_stats().hits, 4);
        // A cache-disabled handle computes bit-identical results.
        let uncached = CudnnHandle::real_cpu().with_exec_cache_bytes(0);
        let plain = run(&uncached, 2);
        assert!(cold
            .as_slice()
            .iter()
            .zip(plain.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(uncached.exec_cache_stats().hits, 0);
    }

    /// An injected allocation fault keeps plans out of the cache but must
    /// not fail the call or change its results (graceful degradation).
    #[test]
    fn alloc_fault_degrades_exec_to_uncached() {
        let faulty = CudnnHandle::real_cpu().with_faults(crate::fault::FaultPlan {
            alloc_fail_above: Some(0),
            ..Default::default()
        });
        let clean = CudnnHandle::real_cpu();
        let (xd, wd, cd, yd) = descs(2);
        let g = cd.geometry(&xd, &wd).unwrap();
        let x = Tensor::random(g.input, 5);
        let w = Tensor::random(g.filter.as_shape4(), 6);
        // Workspace sized via the clean handle: the faulty one rejects the
        // query itself (workspace queries share the allocation fault site).
        let bytes = clean
            .get_workspace_size(ConvOp::Forward, &xd, &wd, &cd, ConvAlgo::Gemm)
            .unwrap();
        let run = |handle: &CudnnHandle| {
            let mut ws = vec![0.0f32; bytes.div_ceil(4)];
            let mut y = Tensor::zeros(g.output());
            handle
                .convolution_forward(
                    1.0,
                    &xd,
                    x.as_slice(),
                    &wd,
                    w.as_slice(),
                    &cd,
                    ConvAlgo::Gemm,
                    &mut ws,
                    0.0,
                    &yd,
                    y.as_mut_slice(),
                )
                .unwrap();
            y
        };
        let want = run(&clean);
        for _ in 0..2 {
            let got = run(&faulty);
            assert!(want
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        let stats = faulty.exec_cache_stats();
        assert_eq!(stats.hits, 0, "vetoed plans must never be retained");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.bytes, 0);
        assert!(faulty.faults_injected() >= 2);
    }

    #[test]
    fn real_cpu_backward_filter_accumulates_with_beta_one() {
        let h = CudnnHandle::real_cpu();
        let (xd, wd, cd, yd) = descs(4);
        let g = cd.geometry(&xd, &wd).unwrap();
        let x = Tensor::random(g.input, 3);
        let dy = Tensor::random(g.output(), 4);
        let mut dw_once = Tensor::zeros(g.filter.as_shape4());
        h.convolution_backward_filter(
            1.0,
            &xd,
            x.as_slice(),
            &yd,
            dy.as_slice(),
            &cd,
            ConvAlgo::ImplicitGemm,
            &mut [],
            0.0,
            &wd,
            dw_once.as_mut_slice(),
        )
        .unwrap();
        // Running it again with beta=1 must exactly double the gradient.
        let mut dw_twice = dw_once.clone();
        h.convolution_backward_filter(
            1.0,
            &xd,
            x.as_slice(),
            &yd,
            dy.as_slice(),
            &cd,
            ConvAlgo::ImplicitGemm,
            &mut [],
            1.0,
            &wd,
            dw_twice.as_mut_slice(),
        )
        .unwrap();
        let mut want = dw_once.clone();
        want.axpby(1.0, &dw_once, 1.0);
        assert_all_close(&want, &dw_twice, 1e-5);
    }

    #[test]
    fn workspace_too_small_is_rejected_before_execution() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (xd, wd, cd, yd) = descs(64);
        let need = h
            .get_workspace_size(ConvOp::Forward, &xd, &wd, &cd, ConvAlgo::WinogradNonfused)
            .unwrap();
        assert!(need > 0);
        let err = h
            .convolution_forward(
                1.0,
                &xd,
                &[],
                &wd,
                &[],
                &cd,
                ConvAlgo::WinogradNonfused,
                &mut [],
                0.0,
                &yd,
                &mut [],
            )
            .unwrap_err();
        assert!(matches!(err, CudnnError::WorkspaceTooSmall { .. }));
        assert_eq!(
            h.kernels_launched(),
            0,
            "failed calls must not advance the clock"
        );
    }

    #[test]
    fn mismatched_output_descriptor_is_bad_param() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (xd, wd, cd, _) = descs(2);
        let bad_y = TensorDescriptor::from_shape(Shape4::new(2, 4, 5, 5)).unwrap();
        let err = h
            .convolution_forward(
                1.0,
                &xd,
                &[],
                &wd,
                &[],
                &cd,
                ConvAlgo::ImplicitGemm,
                &mut [],
                0.0,
                &bad_y,
                &mut [],
            )
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)));
    }

    #[test]
    fn backward_data_shapes_validated() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (xd, wd, cd, yd) = descs(2);
        // dy descriptor deliberately wrong (channels).
        let bad_dy = TensorDescriptor::new_4d(2, 3, yd.shape().h, yd.shape().w).unwrap();
        let err = h
            .convolution_backward_data(
                1.0,
                &wd,
                &[],
                &bad_dy,
                &[],
                &cd,
                ConvAlgo::ImplicitGemm,
                &mut [],
                0.0,
                &xd,
                &mut [],
            )
            .unwrap_err();
        assert!(matches!(err, CudnnError::BadParam(_)));
    }
}
