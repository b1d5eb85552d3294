//! Wrappers that time calls into the program's layers from outside.
//!
//! [`TimedProvider`] wraps any [`ConvProvider`] (the μ-cuDNN handle or the
//! plain-cuDNN baseline) and [`TimedRunner`] wraps a serving
//! [`BatchRunner`]. Both forward every call unchanged; they only read the
//! clock around it.

use crate::estimate::{RefLoop, RefSample};
use crate::spans::Tracer;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ucudnn::telemetry::Registry;
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_framework::{ConvProvider, ProviderError};
use ucudnn_serve::BatchRunner;
use ucudnn_tensor::ConvGeometry;

/// Span name for each convolution op.
pub fn op_span(op: ConvOp) -> &'static str {
    match op {
        ConvOp::Forward => "core.conv_fwd",
        ConvOp::BackwardData => "core.conv_bwd_data",
        ConvOp::BackwardFilter => "core.conv_bwd_filter",
    }
}

/// Index of an op in per-op arrays.
pub fn op_index(op: ConvOp) -> usize {
    match op {
        ConvOp::Forward => 0,
        ConvOp::BackwardData => 1,
        ConvOp::BackwardFilter => 2,
    }
}

/// One kernel's set-up, timed from outside.
#[derive(Debug, Clone)]
pub struct KernelSetup {
    /// The kernel's op.
    pub op: ConvOp,
    /// The kernel's geometry.
    pub geometry: ConvGeometry,
    /// Wall time of the kernel's `prepare` call, seconds.
    pub secs: f64,
    /// Mean of the reference samples taken just before and after it, when
    /// a reference loop is attached.
    pub reference: Option<RefSample>,
}

/// Executed convolution work per op.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpWork {
    /// Wall time inside `execute`, seconds.
    pub secs: f64,
    /// Multiply-accumulates performed.
    pub macs: f64,
}

/// A [`ConvProvider`] that forwards to `inner` and times each call.
///
/// `prepare` registers the kernels one `prepare` call at a time (with a
/// single optimizer thread the plans are identical to one batched call) so
/// that each kernel's set-up is timed separately and, when a reference loop
/// is attached, bracketed by reference samples.
pub struct TimedProvider<'a, P: ConvProvider> {
    inner: &'a P,
    tracer: Option<&'a Tracer>,
    reference: Option<&'a RefCell<RefLoop>>,
    setups: RefCell<Vec<KernelSetup>>,
    work: RefCell<[OpWork; 3]>,
}

impl<'a, P: ConvProvider> TimedProvider<'a, P> {
    /// Wrap `inner`; `tracer` records spans, `reference` brackets set-ups.
    pub fn new(
        inner: &'a P,
        tracer: Option<&'a Tracer>,
        reference: Option<&'a RefCell<RefLoop>>,
    ) -> Self {
        Self {
            inner,
            tracer,
            reference,
            setups: RefCell::new(Vec::new()),
            work: RefCell::new([OpWork::default(); 3]),
        }
    }

    /// Per-kernel set-ups so far, in registration order.
    pub fn setups(&self) -> Vec<KernelSetup> {
        self.setups.borrow().clone()
    }

    /// Executed work per op (indexed by [`op_index`]).
    pub fn work(&self) -> [OpWork; 3] {
        *self.work.borrow()
    }

    fn in_span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.tracer {
            Some(t) => t.span(name, f),
            None => f(),
        }
    }
}

impl<P: ConvProvider> ConvProvider for TimedProvider<'_, P> {
    fn setup(&self, op: ConvOp, g: &ConvGeometry) -> Result<(), ProviderError> {
        self.prepare(&[(op, *g)])
    }

    fn prepare(&self, kernels: &[(ConvOp, ConvGeometry)]) -> Result<(), ProviderError> {
        let mut before = self.reference.map(|r| r.borrow_mut().sample());
        for k in kernels {
            let start = Instant::now();
            self.in_span("core.setup", || self.inner.prepare(std::slice::from_ref(k)))?;
            let secs = start.elapsed().as_secs_f64();
            let after = self.reference.map(|r| r.borrow_mut().sample());
            let reference = before.zip(after).map(|(b, a)| RefSample::mean(&b, &a));
            before = after;
            self.setups.borrow_mut().push(KernelSetup {
                op: k.0,
                geometry: k.1,
                secs,
                reference,
            });
        }
        Ok(())
    }

    fn finalize(&self) -> Result<(), ProviderError> {
        self.in_span("core.finalize", || self.inner.finalize())
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
        let start = Instant::now();
        let r = self.in_span(op_span(op), || {
            self.inner.execute(op, g, a, b, out, alpha, beta)
        });
        let mut work = self.work.borrow_mut();
        let w = &mut work[op_index(op)];
        w.secs += start.elapsed().as_secs_f64();
        w.macs += g.macs() as f64;
        r
    }

    fn handle(&self) -> &CudnnHandle {
        self.inner.handle()
    }

    fn workspace_bytes(&self) -> usize {
        self.inner.workspace_bytes()
    }

    fn kernel_workspace_bytes(&self, op: ConvOp, g: &ConvGeometry) -> usize {
        self.inner.kernel_workspace_bytes(op, g)
    }
}

/// One timed `BatchRunner::run` call.
#[derive(Debug, Clone, Copy)]
pub struct RunCall {
    /// Micro-batch size.
    pub n: usize,
    /// Wall time, seconds.
    pub secs: f64,
}

/// A [`BatchRunner`] that forwards to `inner` and times each `run`.
pub struct TimedRunner<R: BatchRunner> {
    inner: Arc<R>,
    tracer: Arc<Tracer>,
    calls: Mutex<Vec<RunCall>>,
}

impl<R: BatchRunner> TimedRunner<R> {
    /// Wrap `inner`, recording a `serve.exec` span per call.
    pub fn new(inner: Arc<R>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Every timed call so far.
    pub fn calls(&self) -> Vec<RunCall> {
        self.calls
            .lock()
            .expect("run log poisoned by a panicking worker")
            .clone()
    }
}

impl<R: BatchRunner> BatchRunner for TimedRunner<R> {
    fn sample_len(&self) -> usize {
        self.inner.sample_len()
    }

    fn output_len(&self) -> usize {
        self.inner.output_len()
    }

    fn batch_sizes(&self) -> Vec<usize> {
        self.inner.batch_sizes()
    }

    fn run(&self, n: usize, inputs: &[f32]) -> Result<Vec<f32>, String> {
        let start = Instant::now();
        let out = self.tracer.span("serve.exec", || self.inner.run(n, inputs));
        let secs = start.elapsed().as_secs_f64();
        self.calls
            .lock()
            .expect("run log poisoned by a panicking worker")
            .push(RunCall { n, secs });
        out
    }

    fn latency_table(&self) -> Vec<(usize, f64)> {
        self.inner.latency_table()
    }

    fn rebench(&self) -> Result<Vec<(usize, f64)>, String> {
        self.inner.rebench()
    }

    fn telemetry(&self) -> Option<Registry> {
        self.inner.telemetry()
    }
}
