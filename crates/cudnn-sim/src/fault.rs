//! Deterministic fault injection for the substrate.
//!
//! A [`FaultPlan`] attached to a [`crate::CudnnHandle`] injects failures at
//! three sites:
//!
//! * **Benchmark** — `find_algorithms` marks matching algorithms as failed
//!   ([`crate::find::AlgoStatus`]) instead of returning a measurement, the
//!   way a real auto-tuner reports kernels that crashed or ran out of
//!   memory mid-search.
//! * **Execution** — `convolution_*` calls return
//!   `CUDNN_STATUS_EXECUTION_FAILED` for matching (op, algo, micro-batch)
//!   triples.
//! * **Allocation** — workspace queries and wrapper-side arena allocations
//!   above a byte threshold fail with `CUDNN_STATUS_ALLOC_FAILED`.
//!
//! Every decision is a pure function of the plan and the call's own key
//! (site, op, algo, micro-batch, bytes) — never of wall clock, call order
//! across keys, or thread schedule. That is what keeps the optimizer's
//! plan-determinism guarantee intact under injected faults: N worker
//! threads see exactly the same failures as one.
//!
//! Transient faults are the one stateful exception, and they are keyed so
//! the state stays schedule-independent: each distinct fault key carries
//! its own attempt counter, and the first `transient_tries` attempts fail
//! before the key succeeds forever after. The benchmark cache single-flights
//! each key and execution replays are serial, so the counter for a given
//! key is only ever advanced by one logical caller.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use ucudnn_conv::ConvOp;
use ucudnn_gpu_model::ConvAlgo;

/// Where a fault was (or may be) injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Algorithm benchmarking (`find_algorithms`).
    Benchmark,
    /// Kernel execution (`convolution_*`).
    Execution,
    /// Workspace query / allocation.
    Allocation,
}

impl core::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FaultSite::Benchmark => "bench",
            FaultSite::Execution => "exec",
            FaultSite::Allocation => "alloc",
        })
    }
}

/// One (op, algo, micro-batch) pattern that triggers injected failures.
/// `None` fields are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTarget {
    /// Restrict to one site (`None`: both benchmark and execution).
    pub site: Option<FaultSite>,
    /// Convolution operation, or any.
    pub op: Option<ConvOp>,
    /// Algorithm, or any.
    pub algo: Option<ConvAlgo>,
    /// Micro-batch size, or any.
    pub micro_batch: Option<usize>,
}

impl FaultTarget {
    /// A target matching every (op, algo, micro-batch) at both sites.
    pub fn any() -> Self {
        Self {
            site: None,
            op: None,
            algo: None,
            micro_batch: None,
        }
    }

    /// A target matching one algorithm everywhere.
    pub fn algo(algo: ConvAlgo) -> Self {
        Self {
            algo: Some(algo),
            ..Self::any()
        }
    }

    fn matches(&self, site: FaultSite, op: ConvOp, algo: ConvAlgo, micro_batch: usize) -> bool {
        self.site
            .map_or(site != FaultSite::Allocation, |s| s == site)
            && self.op.is_none_or(|o| o == op)
            && self.algo.is_none_or(|a| a == algo)
            && self.micro_batch.is_none_or(|m| m == micro_batch)
    }
}

/// A declarative, deterministic fault schedule. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the rate-based injector ([`FaultPlan::exec_rate`]).
    pub seed: u64,
    /// Workspace queries/allocations strictly above this many bytes fail
    /// with `CUDNN_STATUS_ALLOC_FAILED`.
    pub alloc_fail_above: Option<usize>,
    /// Explicit (op, algo, micro-batch) patterns that fail.
    pub targets: Vec<FaultTarget>,
    /// Probability in `[0, 1]` that any given (site, op, algo, micro-batch)
    /// key fails, decided by hashing the key with [`FaultPlan::seed`].
    pub exec_rate: f64,
    /// If nonzero, matched faults are transient: each distinct fault key
    /// fails this many times, then succeeds on every later attempt.
    pub transient_tries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            alloc_fail_above: None,
            targets: Vec::new(),
            exec_rate: 0.0,
            transient_tries: 0,
        }
    }
}

/// One injected fault, as recorded in the handle's fault log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Where the fault fired.
    pub site: FaultSite,
    /// Human-readable description of the faulted call.
    pub detail: String,
}

/// Cap on retained [`FaultRecord`]s; the injected *counter* is unbounded.
const FAULT_LOG_CAP: usize = 1024;

/// A plan plus the mutable bookkeeping that makes transients and the log
/// work. Owned by the handle.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Attempt counts per fault key (site, op, algo, micro-batch).
    attempts: Mutex<HashMap<(FaultSite, u8, u8, usize), u32>>,
    log: Mutex<Vec<FaultRecord>>,
    injected: AtomicU64,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            attempts: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
            injected: AtomicU64::new(0),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    pub(crate) fn log(&self) -> Vec<FaultRecord> {
        self.log.lock().unwrap().clone()
    }

    fn record(&self, site: FaultSite, detail: String) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        let mut log = self.log.lock().unwrap();
        if log.len() < FAULT_LOG_CAP {
            log.push(FaultRecord { site, detail });
        }
    }

    /// Whether the key matches the plan (ignoring transient state).
    fn matched(&self, site: FaultSite, op: ConvOp, algo: ConvAlgo, micro_batch: usize) -> bool {
        if self
            .plan
            .targets
            .iter()
            .any(|t| t.matches(site, op, algo, micro_batch))
        {
            return true;
        }
        if self.plan.exec_rate > 0.0 && site != FaultSite::Allocation {
            // Hash the key, not the call: both sites see the same verdict
            // for a triple, and repeated calls agree.
            let h = mix(self.plan.seed ^ key_bits(op, algo, micro_batch));
            return ((h % 10_000) as f64) < self.plan.exec_rate * 10_000.0;
        }
        false
    }

    /// Decide (and record) whether this attempt of `key` fails. Advances
    /// the transient attempt counter for matched keys.
    pub(crate) fn should_fail(
        &self,
        site: FaultSite,
        op: ConvOp,
        algo: ConvAlgo,
        micro_batch: usize,
    ) -> bool {
        if !self.matched(site, op, algo, micro_batch) {
            return false;
        }
        if self.plan.transient_tries > 0 {
            let key = (site, op_id(op), algo.id(), micro_batch);
            let mut attempts = self.attempts.lock().unwrap();
            let n = attempts.entry(key).or_insert(0);
            *n += 1;
            if *n > self.plan.transient_tries {
                return false;
            }
        }
        self.record(
            site,
            format!("{site}: {op} {algo} micro-batch {micro_batch}"),
        );
        true
    }

    /// Decide (and record) whether an allocation of `bytes` fails.
    pub(crate) fn should_fail_alloc(&self, bytes: usize) -> bool {
        match self.plan.alloc_fail_above {
            Some(limit) if bytes > limit => {
                self.record(
                    FaultSite::Allocation,
                    format!("alloc: {bytes} bytes > threshold {limit}"),
                );
                true
            }
            _ => false,
        }
    }
}

fn op_id(op: ConvOp) -> u8 {
    match op {
        ConvOp::Forward => 0,
        ConvOp::BackwardData => 1,
        ConvOp::BackwardFilter => 2,
    }
}

fn key_bits(op: ConvOp, algo: ConvAlgo, micro_batch: usize) -> u64 {
    (op_id(op) as u64) << 56 | (algo.id() as u64) << 48 | micro_batch as u64
}

/// SplitMix64 finalizer: cheap, well-distributed, dependency-free.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_match_with_wildcards() {
        let t = FaultTarget::algo(ConvAlgo::Fft);
        assert!(t.matches(FaultSite::Benchmark, ConvOp::Forward, ConvAlgo::Fft, 4));
        assert!(t.matches(
            FaultSite::Execution,
            ConvOp::BackwardData,
            ConvAlgo::Fft,
            99
        ));
        assert!(!t.matches(FaultSite::Benchmark, ConvOp::Forward, ConvAlgo::Gemm, 4));
        // Targets never match the allocation site unless explicitly sited.
        assert!(!t.matches(FaultSite::Allocation, ConvOp::Forward, ConvAlgo::Fft, 4));
    }

    #[test]
    fn site_restriction_is_honored() {
        let t = FaultTarget {
            site: Some(FaultSite::Benchmark),
            ..FaultTarget::any()
        };
        assert!(t.matches(FaultSite::Benchmark, ConvOp::Forward, ConvAlgo::Gemm, 1));
        assert!(!t.matches(FaultSite::Execution, ConvOp::Forward, ConvAlgo::Gemm, 1));
    }

    #[test]
    fn permanent_faults_fail_every_attempt() {
        let inj = FaultInjector::new(FaultPlan {
            targets: vec![FaultTarget::algo(ConvAlgo::Fft)],
            ..FaultPlan::default()
        });
        for _ in 0..3 {
            assert!(inj.should_fail(FaultSite::Benchmark, ConvOp::Forward, ConvAlgo::Fft, 8));
        }
        assert!(!inj.should_fail(FaultSite::Benchmark, ConvOp::Forward, ConvAlgo::Gemm, 8));
        assert_eq!(inj.injected(), 3);
        assert_eq!(inj.log().len(), 3);
    }

    #[test]
    fn transient_faults_succeed_after_budgeted_failures() {
        let inj = FaultInjector::new(FaultPlan {
            targets: vec![FaultTarget::algo(ConvAlgo::Fft)],
            transient_tries: 2,
            ..FaultPlan::default()
        });
        // Each distinct key gets its own budget.
        for batch in [8usize, 16] {
            assert!(inj.should_fail(FaultSite::Execution, ConvOp::Forward, ConvAlgo::Fft, batch));
            assert!(inj.should_fail(FaultSite::Execution, ConvOp::Forward, ConvAlgo::Fft, batch));
            assert!(!inj.should_fail(FaultSite::Execution, ConvOp::Forward, ConvAlgo::Fft, batch));
            assert!(!inj.should_fail(FaultSite::Execution, ConvOp::Forward, ConvAlgo::Fft, batch));
        }
        assert_eq!(inj.injected(), 4);
    }

    #[test]
    fn alloc_threshold_fails_only_above() {
        let inj = FaultInjector::new(FaultPlan {
            alloc_fail_above: Some(1 << 20),
            ..FaultPlan::default()
        });
        assert!(!inj.should_fail_alloc(1 << 20));
        assert!(inj.should_fail_alloc((1 << 20) + 1));
        assert!(!inj.should_fail_alloc(0));
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn rate_injection_is_deterministic_and_seed_sensitive() {
        let plan_a = FaultPlan {
            exec_rate: 0.5,
            seed: 1,
            ..FaultPlan::default()
        };
        let verdicts = |plan: &FaultPlan| -> Vec<bool> {
            let inj = FaultInjector::new(plan.clone());
            (0..64)
                .map(|b| inj.should_fail(FaultSite::Benchmark, ConvOp::Forward, ConvAlgo::Gemm, b))
                .collect()
        };
        let a1 = verdicts(&plan_a);
        let a2 = verdicts(&plan_a);
        assert_eq!(a1, a2, "same plan must produce identical verdicts");
        assert!(a1.iter().any(|&v| v) && a1.iter().any(|&v| !v));
        let b = verdicts(&FaultPlan {
            seed: 2,
            ..plan_a.clone()
        });
        assert_ne!(a1, b, "different seeds must change the schedule");
    }

    #[test]
    fn log_is_capped_but_counter_is_not() {
        let inj = FaultInjector::new(FaultPlan {
            targets: vec![FaultTarget::any()],
            ..FaultPlan::default()
        });
        for b in 0..(FAULT_LOG_CAP + 10) {
            inj.should_fail(FaultSite::Execution, ConvOp::Forward, ConvAlgo::Gemm, b);
        }
        assert_eq!(inj.log().len(), FAULT_LOG_CAP);
        assert_eq!(inj.injected() as usize, FAULT_LOG_CAP + 10);
    }
}
