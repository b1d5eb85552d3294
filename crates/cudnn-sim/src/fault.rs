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
//! (site, op, algo, micro-batch, bytes) — never of wall clock, call order,
//! earlier attempts, or thread schedule. That is what keeps the optimizer's
//! plan-determinism guarantee intact under injected faults: N worker
//! threads see exactly the same failures as one, and a repeated call fails
//! exactly as the first did.

use std::sync::atomic::{AtomicU64, Ordering};
use ucudnn_conv::ConvOp;
use ucudnn_gpu_model::ConvAlgo;

/// Where a fault may be injected by a [`FaultTarget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Algorithm benchmarking (`find_algorithms`).
    Benchmark,
    /// Kernel execution (`convolution_*`).
    Execution,
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
        self.site.is_none_or(|s| s == site)
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
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            alloc_fail_above: None,
            targets: Vec::new(),
            exec_rate: 0.0,
        }
    }
}

/// A plan plus the counter of faults it injected. Owned by the handle.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    injected: AtomicU64,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            injected: AtomicU64::new(0),
        }
    }

    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Count `fail` when it is a fault, and pass it through.
    fn count(&self, fail: bool) -> bool {
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fail
    }

    /// Decide (and count) whether a call with this key fails.
    pub(crate) fn should_fail(
        &self,
        site: FaultSite,
        op: ConvOp,
        algo: ConvAlgo,
        micro_batch: usize,
    ) -> bool {
        let targeted = self
            .plan
            .targets
            .iter()
            .any(|t| t.matches(site, op, algo, micro_batch));
        // Hash the key, not the call: both sites see the same verdict for a
        // triple, and repeated calls agree.
        self.count(
            targeted
                || (self.plan.exec_rate > 0.0 && {
                    let h = mix(self.plan.seed ^ key_bits(op, algo, micro_batch));
                    ((h % 10_000) as f64) < self.plan.exec_rate * 10_000.0
                }),
        )
    }

    /// Decide (and count) whether an allocation of `bytes` fails.
    pub(crate) fn should_fail_alloc(&self, bytes: usize) -> bool {
        self.count(
            self.plan
                .alloc_fail_above
                .is_some_and(|limit| bytes > limit),
        )
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
}
