//! The library handle and its execution engines.

use crate::error::{CudnnError, Result};
use crate::fault::{FaultInjector, FaultPlan, FaultSite};
use crate::plan_cache::{ExecCacheStats, PlanCache, DEFAULT_EXEC_CACHE_BYTES};
use std::sync::atomic::{AtomicU64, Ordering};
use ucudnn_conv::ConvOp;
use ucudnn_gpu_model::{ConvAlgo, DeviceSpec};

/// Which substrate executes kernels issued through a [`CudnnHandle`].
#[derive(Debug, Clone)]
pub enum Engine {
    /// Deterministic GPU performance model: kernels advance a virtual clock
    /// by their modeled time and never touch data buffers. This is the
    /// engine behind every timing experiment (DESIGN.md §2).
    Simulated(DeviceSpec),
    /// Real CPU execution: kernels compute actual results with the
    /// `ucudnn-conv` engines and advance the clock by measured wall time.
    /// This is the engine behind every numerical-semantics test.
    RealCpu,
}

/// The cuDNN-style library handle (`cudnnHandle_t`).
///
/// A handle owns an execution engine and a monotonically accumulating clock
/// measuring total kernel time issued through it (microseconds — virtual for
/// the simulated engine, wall time for the CPU engine).
///
/// The clock is lock-free (atomics), so a handle can be shared by reference
/// across benchmark threads: concurrent `Find` calls from the parallel
/// optimizer never serialize behind a clock mutex. The time accumulator
/// stores `f64` bits in an `AtomicU64` with a compare-exchange add;
/// accumulation order across threads is unspecified, but timing consumers
/// always bracket a single-threaded measured region with
/// [`CudnnHandle::reset_clock`].
#[derive(Debug)]
pub struct CudnnHandle {
    engine: Engine,
    clock_us_bits: AtomicU64,
    kernels_launched: AtomicU64,
    faults: Option<FaultInjector>,
    plan_cache: PlanCache,
}

impl CudnnHandle {
    /// Create a handle backed by the GPU performance model for `device`.
    pub fn simulated(device: DeviceSpec) -> Self {
        Self {
            engine: Engine::Simulated(device),
            clock_us_bits: AtomicU64::new(0f64.to_bits()),
            kernels_launched: AtomicU64::new(0),
            faults: None,
            plan_cache: PlanCache::new(DEFAULT_EXEC_CACHE_BYTES),
        }
    }

    /// Create a handle backed by real CPU execution.
    pub fn real_cpu() -> Self {
        Self {
            engine: Engine::RealCpu,
            clock_us_bits: AtomicU64::new(0f64.to_bits()),
            kernels_launched: AtomicU64::new(0),
            faults: None,
            plan_cache: PlanCache::new(DEFAULT_EXEC_CACHE_BYTES),
        }
    }

    /// Replace the execution-plan cache with one of `capacity` bytes
    /// (builder-style; 0 disables caching). The default capacity is
    /// [`DEFAULT_EXEC_CACHE_BYTES`].
    pub fn with_exec_cache_bytes(mut self, capacity: usize) -> Self {
        self.plan_cache = PlanCache::new(capacity);
        self
    }

    /// The execution-plan cache backing the CPU engine.
    pub(crate) fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Counter snapshot of the execution-plan cache.
    pub fn exec_cache_stats(&self) -> ExecCacheStats {
        self.plan_cache.stats()
    }

    /// Attach a deterministic [`FaultPlan`] (builder-style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultInjector::new(plan));
        self
    }

    /// Total number of faults injected through this handle.
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected())
    }

    /// Fail if the fault plan rejects an allocation of `bytes`
    /// (`CUDNN_STATUS_ALLOC_FAILED`). The wrapper calls this before every
    /// workspace arena allocation; a plan-less handle always succeeds.
    pub fn fault_check_alloc(&self, bytes: usize) -> Result<()> {
        match &self.faults {
            Some(f) if f.should_fail_alloc(bytes) => {
                Err(CudnnError::AllocFailed { requested: bytes })
            }
            _ => Ok(()),
        }
    }

    /// Whether benchmarking `algo` for (`op`, micro-batch) fails.
    pub(crate) fn fault_bench(&self, op: ConvOp, algo: ConvAlgo, micro_batch: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.should_fail(FaultSite::Benchmark, op, algo, micro_batch))
    }

    /// Fail if the fault plan injects an execution failure for this call.
    pub(crate) fn fault_exec(&self, op: ConvOp, algo: ConvAlgo, micro_batch: usize) -> Result<()> {
        match &self.faults {
            Some(f) if f.should_fail(FaultSite::Execution, op, algo, micro_batch) => Err(
                CudnnError::ExecutionFailed(format!("injected fault: {op} {algo} n={micro_batch}")),
            ),
            _ => Ok(()),
        }
    }

    /// The execution engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The modeled device, when simulated.
    pub fn device(&self) -> Option<&DeviceSpec> {
        match &self.engine {
            Engine::Simulated(d) => Some(d),
            Engine::RealCpu => None,
        }
    }

    /// Total kernel time issued through this handle, in microseconds.
    pub fn elapsed_us(&self) -> f64 {
        f64::from_bits(self.clock_us_bits.load(Ordering::Relaxed))
    }

    /// Number of kernels issued through this handle.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched.load(Ordering::Relaxed)
    }

    /// Reset the clock and kernel counter (start of a timed region).
    pub fn reset_clock(&self) {
        self.clock_us_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.kernels_launched.store(0, Ordering::Relaxed);
    }

    /// Record one kernel execution of `us` microseconds.
    pub(crate) fn advance(&self, us: f64) {
        let mut cur = self.clock_us_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + us).to_bits();
            match self.clock_us_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.kernels_launched.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;

    #[test]
    fn clock_accumulates_and_resets() {
        let h = CudnnHandle::simulated(p100_sxm2());
        assert_eq!(h.elapsed_us(), 0.0);
        h.advance(10.5);
        h.advance(4.5);
        assert_eq!(h.elapsed_us(), 15.0);
        assert_eq!(h.kernels_launched(), 2);
        h.reset_clock();
        assert_eq!(h.elapsed_us(), 0.0);
        assert_eq!(h.kernels_launched(), 0);
    }

    #[test]
    fn concurrent_advances_lose_no_kernels() {
        let h = CudnnHandle::simulated(p100_sxm2());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        h.advance(1.0);
                    }
                });
            }
        });
        assert_eq!(h.kernels_launched(), 4000);
        // 1.0 sums exactly in f64 at this magnitude, so the CAS loop must
        // account for every advance.
        assert_eq!(h.elapsed_us(), 4000.0);
    }

    #[test]
    fn device_accessor() {
        let h = CudnnHandle::simulated(p100_sxm2());
        assert_eq!(h.device().unwrap().name, "P100-SXM2");
        assert!(CudnnHandle::real_cpu().device().is_none());
    }
}
