//! Mapping between cuDNN-level algorithms and the CPU compute engines, and
//! engine-specific support / workspace queries.

use crate::handle::Engine;
use ucudnn_conv::{ConvOp, EngineKind};
use ucudnn_gpu_model::{algo_supported, workspace_bytes, ConvAlgo};
use ucudnn_tensor::ConvGeometry;

/// The CPU engine that executes a given cuDNN-level algorithm, or `None`
/// when the algorithm has no CPU kernel: `DIRECT`, as in cuDNN, and `FFT`
/// and `FFT_TILING`, which the implicit-GEMM engine outran at every
/// micro-batch measured (DESIGN.md §7). The three GEMM algorithms run one
/// zero-workspace implicit-GEMM engine: on the CPU a column buffer in
/// workspace buys no time.
pub fn cpu_engine_for(algo: ConvAlgo) -> Option<EngineKind> {
    match algo {
        ConvAlgo::ImplicitGemm | ConvAlgo::ImplicitPrecompGemm | ConvAlgo::Gemm => {
            Some(EngineKind::ImplicitGemm)
        }
        ConvAlgo::Direct | ConvAlgo::Fft | ConvAlgo::FftTiling => None,
        ConvAlgo::Winograd => Some(EngineKind::Winograd),
        ConvAlgo::WinogradNonfused => Some(EngineKind::WinogradF4),
    }
}

/// Whether `algo` can execute `op` on `g` under the given engine. The
/// simulated engine follows the GPU model's constraint table; the CPU engine
/// follows the actual compute-engine constraints.
pub fn supported_on(engine: &Engine, algo: ConvAlgo, op: ConvOp, g: &ConvGeometry) -> bool {
    match engine {
        Engine::Simulated(_) => algo_supported(algo, op, g),
        Engine::RealCpu => match cpu_engine_for(algo) {
            Some(k) => ucudnn_conv::supports(k, op, g),
            None => false,
        },
    }
}

/// Workspace requirement in bytes under the given engine, or `None` when
/// unsupported.
pub fn workspace_bytes_on(
    engine: &Engine,
    algo: ConvAlgo,
    op: ConvOp,
    g: &ConvGeometry,
) -> Option<usize> {
    if !supported_on(engine, algo, op, g) {
        return None;
    }
    match engine {
        Engine::Simulated(_) => workspace_bytes(algo, op, g),
        Engine::RealCpu => {
            let k = cpu_engine_for(algo)?;
            Some(4 * ucudnn_conv::workspace_floats(k, op, g))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{FilterShape, Shape4};

    fn g33() -> ConvGeometry {
        ConvGeometry::with_square(
            Shape4::new(4, 8, 16, 16),
            FilterShape::new(8, 8, 3, 3),
            1,
            1,
        )
    }

    #[test]
    fn direct_has_no_kernel_anywhere() {
        assert!(cpu_engine_for(ConvAlgo::Direct).is_none());
        for engine in [Engine::Simulated(p100_sxm2()), Engine::RealCpu] {
            assert!(!supported_on(
                &engine,
                ConvAlgo::Direct,
                ConvOp::Forward,
                &g33()
            ));
        }
        // FFT has no CPU kernel either, but the simulated engine keeps it.
        let sim = Engine::Simulated(p100_sxm2());
        for algo in [ConvAlgo::Fft, ConvAlgo::FftTiling] {
            assert!(cpu_engine_for(algo).is_none());
            for op in ConvOp::ALL {
                assert!(!supported_on(&Engine::RealCpu, algo, op, &g33()));
                assert!(supported_on(&sim, algo, op, &g33()));
            }
        }
    }

    #[test]
    fn implicit_gemm_is_free_on_both_engines() {
        for engine in [Engine::Simulated(p100_sxm2()), Engine::RealCpu] {
            assert_eq!(
                workspace_bytes_on(&engine, ConvAlgo::ImplicitGemm, ConvOp::Forward, &g33()),
                Some(0)
            );
        }
    }

    #[test]
    fn cpu_engine_workspace_is_engine_specific() {
        // The CPU engine runs the GEMM algorithms without workspace; the
        // simulated engine keeps the GPU model's figures, a column matrix
        // for GEMM.
        let (g, op, sim) = (g33(), ConvOp::Forward, Engine::Simulated(p100_sxm2()));
        for algo in [ConvAlgo::ImplicitPrecompGemm, ConvAlgo::Gemm] {
            assert_eq!(workspace_bytes_on(&Engine::RealCpu, algo, op, &g), Some(0));
            assert_eq!(
                workspace_bytes_on(&sim, algo, op, &g),
                workspace_bytes(algo, op, &g)
            );
        }
        assert!(workspace_bytes_on(&sim, ConvAlgo::Gemm, op, &g).unwrap() > 0);
    }

    #[test]
    fn winograd_nonfused_backward_filter_differs_by_engine() {
        // The GPU model supports it; the CPU Winograd engine does not
        // implement backward-filter (documented substitution).
        let g = g33();
        assert!(supported_on(
            &Engine::Simulated(p100_sxm2()),
            ConvAlgo::WinogradNonfused,
            ConvOp::BackwardFilter,
            &g
        ));
        assert!(!supported_on(
            &Engine::RealCpu,
            ConvAlgo::WinogradNonfused,
            ConvOp::BackwardFilter,
            &g
        ));
    }
}
