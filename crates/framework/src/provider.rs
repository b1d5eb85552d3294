//! Pluggable convolution backends for the framework.
//!
//! The framework drives convolutions through the [`ConvProvider`] trait so
//! the same network code can run against:
//!
//! * [`BaselineCudnn`] — plain cuDNN behaviour: the framework picks each
//!   layer's algorithm once with `SPECIFY_WORKSPACE_LIMIT` and allocates a
//!   per-layer workspace, exactly like Caffe; or
//! * [`ucudnn::UcudnnHandle`] — the transparent μ-cuDNN wrapper, which takes
//!   over algorithm selection, micro-batching and workspace ownership.
//!
//! Swapping one for the other is the framework-integration story of the
//! paper (three lines in Caffe).

use parking_lot::Mutex;
use ucudnn::{KernelKey, UcudnnHandle};
use ucudnn_cudnn_sim::{
    AlgoPreference, ConvAlgo, ConvOp, ConvolutionDescriptor, CudnnError, CudnnHandle,
    FilterDescriptor, TensorDescriptor,
};
use ucudnn_tensor::{ConvGeometry, GeometryMap};

/// Errors from a provider (substrate or optimizer).
#[derive(Debug)]
pub enum ProviderError {
    /// Substrate error.
    Cudnn(CudnnError),
    /// μ-cuDNN error.
    Ucudnn(ucudnn::UcudnnError),
    /// The network graph is structurally invalid (e.g. a layer that needs
    /// an input has no input edge). Surfaced as an error instead of a
    /// panic so a bad graph cannot take down a training service.
    MalformedGraph(String),
}

impl From<CudnnError> for ProviderError {
    fn from(e: CudnnError) -> Self {
        ProviderError::Cudnn(e)
    }
}

impl From<ucudnn::UcudnnError> for ProviderError {
    fn from(e: ucudnn::UcudnnError) -> Self {
        ProviderError::Ucudnn(e)
    }
}

impl core::fmt::Display for ProviderError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProviderError::Cudnn(e) => e.fmt(f),
            ProviderError::Ucudnn(e) => e.fmt(f),
            ProviderError::MalformedGraph(msg) => write!(f, "malformed network graph: {msg}"),
        }
    }
}

impl std::error::Error for ProviderError {}

/// Convolution backend abstraction used by both executors.
pub trait ConvProvider {
    /// Called once per kernel during network setup (the framework's
    /// `get_algorithm` + `get_workspace_size` sequence).
    ///
    /// # Errors
    /// Setup failures (no algorithm fits, optimizer failure, ...).
    fn setup(&self, op: ConvOp, g: &ConvGeometry) -> Result<(), ProviderError>;

    /// Register a whole network's kernels in one call (the framework's
    /// post-construction initialization hook). The default implementation
    /// registers them one at a time through [`Self::setup`]; optimizing
    /// providers override it to fan the per-kernel optimization over worker
    /// threads ([`UcudnnHandle::optimize_network`]).
    ///
    /// # Errors
    /// Setup failures for any kernel, in registration order.
    fn prepare(&self, kernels: &[(ConvOp, ConvGeometry)]) -> Result<(), ProviderError> {
        for (op, g) in kernels {
            self.setup(*op, g)?;
        }
        Ok(())
    }

    /// Signal that every kernel has been registered (triggers WD).
    ///
    /// # Errors
    /// Optimizer failures.
    fn finalize(&self) -> Result<(), ProviderError> {
        Ok(())
    }

    /// Execute one convolution op. Data slices are empty under the
    /// simulated engine, full-size under the CPU engine. `out` is
    /// `alpha*op(a, b) + beta*out` with the same buffer roles as
    /// `ucudnn_conv::exec`.
    ///
    /// # Errors
    /// Execution failures.
    #[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
    fn execute(
        &self,
        op: ConvOp,
        g: &ConvGeometry,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        alpha: f32,
        beta: f32,
    ) -> Result<(), ProviderError>;

    /// The underlying substrate handle (clock access, engine queries).
    fn handle(&self) -> &CudnnHandle;

    /// Total workspace bytes currently allocated by this provider.
    fn workspace_bytes(&self) -> usize;

    /// Workspace bytes attributable to one kernel (for memory breakdowns).
    fn kernel_workspace_bytes(&self, op: ConvOp, g: &ConvGeometry) -> usize;
}

/// The descriptors of a geometry, for the descriptor-style set-up calls; a
/// geometry they cannot describe is a `BadParam`.
fn descriptors(
    g: &ConvGeometry,
) -> Result<(TensorDescriptor, FilterDescriptor, ConvolutionDescriptor), CudnnError> {
    Ok((
        TensorDescriptor::from_shape(g.input)?,
        FilterDescriptor::from_shape(g.filter)?,
        ConvolutionDescriptor::new_2d(g.pad_h, g.pad_w, g.stride_h, g.stride_w)?,
    ))
}

/// Plain cuDNN with Caffe's workspace policy: per-kernel algorithm chosen
/// by `SPECIFY_WORKSPACE_LIMIT`, per-kernel workspace allocated up front.
pub struct BaselineCudnn {
    handle: CudnnHandle,
    ws_limit: usize,
    /// Each set-up kernel's algorithm and workspace, in one entry.
    state: Mutex<GeometryMap<KernelKey, (ConvAlgo, Vec<f32>)>>,
}

impl BaselineCudnn {
    /// Wrap a handle with a per-kernel workspace limit in bytes.
    pub fn new(handle: CudnnHandle, ws_limit: usize) -> Self {
        Self {
            handle,
            ws_limit,
            state: Mutex::new(GeometryMap::default()),
        }
    }
}

impl ConvProvider for BaselineCudnn {
    fn setup(&self, op: ConvOp, g: &ConvGeometry) -> Result<(), ProviderError> {
        let key = KernelKey::new(op, g);
        let mut st = self.state.lock();
        if st.contains_key(&key) {
            return Ok(());
        }
        let (xd, wd, cd) = descriptors(g)?;
        let algo = self.handle.get_algorithm(
            op,
            &xd,
            &wd,
            &cd,
            AlgoPreference::SpecifyWorkspaceLimit(self.ws_limit),
        )?;
        let bytes = self.handle.get_workspace_size(op, &xd, &wd, &cd, algo)?;
        st.insert(key, (algo, vec![0.0f32; bytes.div_ceil(4)]));
        Ok(())
    }

    fn execute(
        &self,
        op: ConvOp,
        g: &ConvGeometry,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        alpha: f32,
        beta: f32,
    ) -> Result<(), ProviderError> {
        let mut st = self.state.lock();
        let Some((algo, ws)) = st.get_mut(&KernelKey::new(op, g)) else {
            // A kernel the framework did not set up: set it up, then run it.
            drop(st);
            self.setup(op, g)?;
            return self.execute(op, g, a, b, out, alpha, beta);
        };
        Ok(self
            .handle
            .convolution(op, g, *algo, a, b, out, alpha, beta, ws)?)
    }

    fn handle(&self) -> &CudnnHandle {
        &self.handle
    }

    fn workspace_bytes(&self) -> usize {
        4 * self
            .state
            .lock()
            .values()
            .map(|(_, ws)| ws.len())
            .sum::<usize>()
    }

    fn kernel_workspace_bytes(&self, op: ConvOp, g: &ConvGeometry) -> usize {
        self.state
            .lock()
            .get(&KernelKey::new(op, g))
            .map_or(0, |(_, ws)| 4 * ws.len())
    }
}

impl ConvProvider for UcudnnHandle {
    fn setup(&self, op: ConvOp, g: &ConvGeometry) -> Result<(), ProviderError> {
        let (xd, wd, cd) = descriptors(g)?;
        let algo = self.get_algorithm(op, &xd, &wd, &cd)?;
        // The wrapper reports zero workspace; the framework "allocates" none.
        let bytes = self.get_workspace_size(op, &xd, &wd, &cd, algo)?;
        debug_assert_eq!(bytes, 0, "μ-cuDNN must request zero framework workspace");
        Ok(())
    }

    fn prepare(&self, kernels: &[(ConvOp, ConvGeometry)]) -> Result<(), ProviderError> {
        let keys: Vec<KernelKey> = kernels
            .iter()
            .map(|(op, g)| KernelKey::new(*op, g))
            .collect();
        self.optimize_network(&keys)?;
        Ok(())
    }

    fn finalize(&self) -> Result<(), ProviderError> {
        self.finalize_network()?;
        Ok(())
    }

    fn execute(
        &self,
        op: ConvOp,
        g: &ConvGeometry,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        alpha: f32,
        beta: f32,
    ) -> Result<(), ProviderError> {
        Ok(self.convolution(op, g, a, b, out, alpha, beta)?)
    }

    fn handle(&self) -> &CudnnHandle {
        self.inner()
    }

    fn workspace_bytes(&self) -> usize {
        self.total_workspace_bytes()
    }

    fn kernel_workspace_bytes(&self, op: ConvOp, g: &ConvGeometry) -> usize {
        self.plan(op, g)
            .map(|p| p.config.workspace_bytes())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{FilterShape, Shape4};

    const MIB: usize = 1024 * 1024;

    fn conv2() -> ConvGeometry {
        ConvGeometry::with_square(
            Shape4::new(256, 64, 27, 27),
            FilterShape::new(192, 64, 5, 5),
            2,
            1,
        )
    }

    #[test]
    fn baseline_allocates_per_kernel_workspace() {
        let p = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
        p.setup(ConvOp::Forward, &conv2()).unwrap();
        let ws = p.kernel_workspace_bytes(ConvOp::Forward, &conv2());
        assert!(ws <= 64 * MIB);
        assert_eq!(p.workspace_bytes(), ws);
    }

    #[test]
    fn baseline_executes_and_advances_clock() {
        let p = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
        let g = conv2();
        p.setup(ConvOp::Forward, &g).unwrap();
        p.execute(ConvOp::Forward, &g, &[], &[], &mut [], 1.0, 0.0)
            .unwrap();
        assert!(p.handle().elapsed_us() > 0.0);
        assert_eq!(
            p.handle().kernels_launched(),
            1,
            "baseline never micro-batches"
        );
    }

    #[test]
    fn ucudnn_provider_micro_batches_the_same_kernel() {
        let h = UcudnnHandle::new(
            CudnnHandle::simulated(p100_sxm2()),
            ucudnn::UcudnnOptions {
                workspace_limit_bytes: 64 * MIB,
                ..Default::default()
            },
        );
        let g = conv2();
        ConvProvider::setup(&h, ConvOp::Forward, &g).unwrap();
        ConvProvider::execute(&h, ConvOp::Forward, &g, &[], &[], &mut [], 1.0, 0.0).unwrap();
        assert!(
            h.inner().kernels_launched() > 1,
            "64 MiB conv2 must be split into micro-batches"
        );
    }

    #[test]
    fn ucudnn_provider_degrades_gracefully_under_full_benchmark_faults() {
        use ucudnn_cudnn_sim::{FaultPlan, FaultSite, FaultTarget};
        // Every benchmark fails, yet the provider must still set up and
        // execute: the optimizer degrades to the undivided zero-workspace
        // plan instead of surfacing an error to the framework.
        let h = UcudnnHandle::new(
            CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
                targets: vec![FaultTarget {
                    site: Some(FaultSite::Benchmark),
                    ..FaultTarget::any()
                }],
                ..FaultPlan::default()
            }),
            ucudnn::UcudnnOptions {
                workspace_limit_bytes: 64 * MIB,
                ..Default::default()
            },
        );
        let g = conv2();
        ConvProvider::setup(&h, ConvOp::Forward, &g).unwrap();
        ConvProvider::execute(&h, ConvOp::Forward, &g, &[], &[], &mut [], 1.0, 0.0).unwrap();
        let plan = h.plan(ConvOp::Forward, &g).unwrap();
        assert!(plan.config.is_undivided());
        assert_eq!(plan.config.workspace_bytes(), 0);
        assert!(h.inner().faults_injected() > 0);
        let metrics = h.metrics_json();
        assert!(metrics.contains("\"degradations\""));
    }

    /// `ConvGeometry`'s fields are public, so a struct literal can skip
    /// `ConvGeometry::new`'s checks: every geometry-taking entry point must
    /// reject such a geometry as `BadParam`, never panic.
    #[test]
    fn invalid_geometry_literals_are_bad_param() {
        let good =
            ConvGeometry::with_square(Shape4::new(4, 3, 8, 8), FilterShape::new(4, 3, 3, 3), 1, 1);
        let invalid = [
            ConvGeometry {
                stride_h: 0,
                ..good
            },
            ConvGeometry {
                stride_w: 0,
                ..good
            },
            ConvGeometry {
                filter: FilterShape::new(4, 5, 3, 3),
                ..good
            },
            ConvGeometry {
                filter: FilterShape::new(4, 3, 11, 11),
                ..good
            },
        ];
        let bad_param = |e: &CudnnError| matches!(e, CudnnError::BadParam(_));
        let via_ucudnn =
            |e: &ucudnn::UcudnnError| matches!(e, ucudnn::UcudnnError::Cudnn(e) if bad_param(e));
        let via_provider = |e: &ProviderError| match e {
            ProviderError::Cudnn(e) => bad_param(e),
            ProviderError::Ucudnn(e) => via_ucudnn(e),
            ProviderError::MalformedGraph(_) => false,
        };
        let sim = || CudnnHandle::simulated(p100_sxm2());
        let base = BaselineCudnn::new(sim(), 64 * MIB);
        let mu = UcudnnHandle::new(sim(), ucudnn::UcudnnOptions::default());
        for g in &invalid {
            for op in ConvOp::ALL {
                let algo = ConvAlgo::ImplicitGemm;
                let e = sim()
                    .convolution(op, g, algo, &[], &[], &mut [], 1.0, 0.0, &mut [])
                    .unwrap_err();
                assert!(bad_param(&e), "CudnnHandle {op} {g:?}: {e}");
                let e = mu
                    .convolution(op, g, &[], &[], &mut [], 1.0, 0.0)
                    .unwrap_err();
                assert!(via_ucudnn(&e), "UcudnnHandle {op} {g:?}: {e}");
                let e = base
                    .execute(op, g, &[], &[], &mut [], 1.0, 0.0)
                    .unwrap_err();
                assert!(via_provider(&e), "BaselineCudnn {op} {g:?}: {e}");
                let e = ConvProvider::execute(&mu, op, g, &[], &[], &mut [], 1.0, 0.0).unwrap_err();
                assert!(via_provider(&e), "UcudnnHandle provider {op} {g:?}: {e}");
            }
        }
        assert_eq!(base.workspace_bytes(), 0);
        assert_eq!(mu.total_workspace_bytes(), 0);
    }

    #[test]
    fn ucudnn_beats_baseline_on_conv2_at_64mib() {
        // The provider-level statement of Fig. 9.
        let g = conv2();
        let base = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
        base.setup(ConvOp::Forward, &g).unwrap();
        base.execute(ConvOp::Forward, &g, &[], &[], &mut [], 1.0, 0.0)
            .unwrap();

        let mu = UcudnnHandle::new(
            CudnnHandle::simulated(p100_sxm2()),
            ucudnn::UcudnnOptions {
                workspace_limit_bytes: 64 * MIB,
                ..Default::default()
            },
        );
        ConvProvider::setup(&mu, ConvOp::Forward, &g).unwrap();
        ConvProvider::execute(&mu, ConvOp::Forward, &g, &[], &[], &mut [], 1.0, 0.0).unwrap();

        assert!(
            mu.inner().elapsed_us() < base.handle().elapsed_us(),
            "μ-cuDNN {} vs baseline {}",
            mu.inner().elapsed_us(),
            base.handle().elapsed_us()
        );
    }
}
