//! Fleet budget arbiter: the WD integer program lifted one tier up.
//!
//! WD (§ DESIGN.md 6) partitions one device's workspace budget across the
//! *kernels* of one network with a multiple-choice knapsack: one group per
//! kernel, one item per desirable configuration. The fleet arbiter reuses
//! the exact same structure one level higher: one group per *replica*, one
//! item per candidate workspace share, and a global memory budget as the
//! knapsack capacity.
//!
//! The cost of an item is the replica's best achievable per-sample latency
//! when its latency table is rebuilt under that share ([`forward_latency_table`]
//! with `ws_limit` = the share). Because a bigger share unlocks the
//! FFT/Winograd points of the per-device WR Pareto front, cost is
//! monotonically non-increasing in the share, and minimizing the summed
//! per-sample latency under the global capacity hands each byte of budget
//! to the replica whose marginal throughput gain is largest — a K80 that
//! is bandwidth-bound past 256 MiB stops competing for bytes that a V100
//! can still convert into speed.
//!
//! The output [`FleetBudgetPlan`] carries the chosen share and the latency
//! table built under it for every replica, plus the same ILP instruments
//! (`ilp_variables` / `ilp_nodes` / `ilp_solve_us`) that [`crate::wd::WdPlan`]
//! exposes, so the serving tier can publish them unchanged.

use crate::bench_cache::BenchCache;
use crate::error::UcudnnError;
use crate::kernel::KernelKey;
use crate::policy::BatchSizePolicy;
use crate::slo::forward_latency_table;
use ucudnn_cudnn_sim::CudnnHandle;
use ucudnn_lp::{Item, MckInstance};

/// One candidate workspace share for a replica: the share in bytes and
/// the latency table the replica would serve with under that share.
#[derive(Debug, Clone)]
pub struct BudgetCandidate {
    /// Workspace limit handed to table construction.
    pub ws_limit_bytes: usize,
    /// `t*(m)` table built with `ws_limit = ws_limit_bytes`.
    pub table: Vec<(usize, f64)>,
}

/// A replica's full candidate set, ready for arbitration.
#[derive(Debug, Clone)]
pub struct ReplicaCandidates {
    /// Stable replica name (device card name by convention).
    pub name: String,
    /// Candidate shares, typically one per power-of-two budget step.
    pub candidates: Vec<BudgetCandidate>,
}

/// The share the arbiter granted one replica.
#[derive(Debug, Clone)]
pub struct BudgetShare {
    /// Replica name, copied from [`ReplicaCandidates::name`].
    pub replica: String,
    /// Granted workspace bytes.
    pub ws_limit_bytes: usize,
    /// Best per-sample latency under the granted share:
    /// `min over (m, t) in table of t / m`.
    pub per_sample_us: f64,
    /// The latency table the replica should serve with.
    pub table: Vec<(usize, f64)>,
}

/// The arbiter's decision for a whole fleet.
#[derive(Debug, Clone)]
pub struct FleetBudgetPlan {
    /// One granted share per replica, in input order.
    pub shares: Vec<BudgetShare>,
    /// The global budget the fleet was arbitrated under.
    pub global_budget_bytes: usize,
    /// Sum of granted shares (`<= global_budget_bytes`).
    pub total_granted_bytes: usize,
    /// Number of 0/1 variables in the lifted ILP.
    pub ilp_variables: usize,
    /// Branch-and-bound nodes the solver bounded, over both passes.
    pub ilp_nodes: usize,
    /// Wall-clock microseconds spent in the solver.
    pub ilp_solve_us: f64,
}

impl FleetBudgetPlan {
    /// Aggregate fleet service capacity: the sum over replicas of the
    /// best throughput (samples/µs) their granted tables support.
    pub fn fleet_rate_per_us(&self) -> f64 {
        self.shares
            .iter()
            .filter(|s| s.per_sample_us > 0.0)
            .map(|s| 1.0 / s.per_sample_us)
            .sum()
    }
}

/// Best per-sample latency of a table: `min over (m, t) of t / m`.
/// `None` for an empty table (nothing runnable under the share).
pub fn best_per_sample_us(table: &[(usize, f64)]) -> Option<f64> {
    table
        .iter()
        .filter(|(m, _)| *m > 0)
        .map(|(m, t)| t / *m as f64)
        .min_by(|a, b| a.total_cmp(b))
}

/// Build one replica's candidate set by rebuilding its latency table at
/// each proposed workspace share. The handle carries the device card, so
/// a K80 handle and a V100 handle yield genuinely different curves from
/// the same kernel set.
pub fn fleet_budget_candidates(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernels: &[KernelKey],
    policy: BatchSizePolicy,
    max_batch: usize,
    shares: &[usize],
) -> Vec<BudgetCandidate> {
    shares
        .iter()
        .map(|&ws| BudgetCandidate {
            ws_limit_bytes: ws,
            table: forward_latency_table(handle, cache, kernels, policy, max_batch, ws),
        })
        .collect()
}

/// Partition `global_budget_bytes` across the fleet.
///
/// Each replica contributes one knapsack group; each viable candidate
/// (non-empty table) contributes one item with `cost` = best per-sample
/// latency and `weight` = the share's bytes. Minimizing total cost under
/// the capacity is the WD objective lifted to replicas: budget flows to
/// whichever replica converts it into the largest latency drop.
///
/// # Errors
/// [`UcudnnError::NoFeasibleConfiguration`] when a replica has no viable
/// candidate at all, [`UcudnnError::WdInfeasible`] when no combination of
/// viable shares fits the global budget (callers should include a
/// zero-byte or minimal share per replica to make the instance total).
pub fn arbitrate_fleet_budget(
    replicas: &[ReplicaCandidates],
    global_budget_bytes: usize,
) -> Result<FleetBudgetPlan, UcudnnError> {
    let mut groups: Vec<Vec<Item>> = Vec::with_capacity(replicas.len());
    // Per replica: the viable candidates behind each group, aligned with
    // the group's item order.
    let mut viable: Vec<Vec<&BudgetCandidate>> = Vec::with_capacity(replicas.len());
    for r in replicas {
        let kept: Vec<&BudgetCandidate> = r
            .candidates
            .iter()
            .filter(|c| best_per_sample_us(&c.table).is_some())
            .collect();
        if kept.is_empty() {
            return Err(UcudnnError::NoFeasibleConfiguration(format!(
                "replica {} has no runnable latency table at any candidate share",
                r.name
            )));
        }
        groups.push(
            kept.iter()
                .map(|c| Item {
                    cost: best_per_sample_us(&c.table).unwrap_or(f64::INFINITY),
                    weight: c.ws_limit_bytes as f64,
                })
                .collect(),
        );
        viable.push(kept);
    }

    let ilp_variables = groups.iter().map(Vec::len).sum();
    let instance = MckInstance {
        groups,
        capacity: global_budget_bytes as f64,
    };
    let start = std::time::Instant::now();
    let sol = instance.solve();
    let ilp_solve_us = start.elapsed().as_secs_f64() * 1e6;
    let Some(sol) = sol else {
        return Err(UcudnnError::WdInfeasible(format!(
            "no combination of replica shares fits the {global_budget_bytes}-byte fleet budget"
        )));
    };

    let mut shares = Vec::with_capacity(replicas.len());
    let mut total_granted_bytes = 0usize;
    for ((r, kept), choice) in replicas.iter().zip(&viable).zip(sol.choices) {
        let c = kept[choice];
        total_granted_bytes += c.ws_limit_bytes;
        shares.push(BudgetShare {
            replica: r.name.clone(),
            ws_limit_bytes: c.ws_limit_bytes,
            per_sample_us: best_per_sample_us(&c.table).unwrap_or(f64::INFINITY),
            table: c.table.clone(),
        });
    }
    Ok(FleetBudgetPlan {
        shares,
        global_budget_bytes,
        total_granted_bytes,
        ilp_variables,
        ilp_nodes: sol.nodes,
        ilp_solve_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_cudnn_sim::ConvOp;
    use ucudnn_gpu_model::{k80, p100_sxm2, v100_sxm2};
    use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

    const MIB: usize = 1024 * 1024;

    fn kernels() -> Vec<KernelKey> {
        let g = ConvGeometry::with_square(
            Shape4::new(32, 64, 27, 27),
            FilterShape::new(192, 64, 5, 5),
            2,
            1,
        );
        vec![KernelKey::new(ConvOp::Forward, &g)]
    }

    fn candidates_for(dev: ucudnn_gpu_model::DeviceSpec) -> ReplicaCandidates {
        let name = dev.name.to_string();
        let handle = CudnnHandle::simulated(dev);
        let cache = BenchCache::new();
        ReplicaCandidates {
            name,
            candidates: fleet_budget_candidates(
                &handle,
                &cache,
                &kernels(),
                BatchSizePolicy::PowerOfTwo,
                32,
                &[0, 64 * MIB, 256 * MIB, 512 * MIB],
            ),
        }
    }

    fn fleet() -> Vec<ReplicaCandidates> {
        vec![
            candidates_for(k80()),
            candidates_for(p100_sxm2()),
            candidates_for(v100_sxm2()),
        ]
    }

    #[test]
    fn bigger_share_never_slows_a_replica() {
        for r in fleet() {
            let mut last = f64::INFINITY;
            for c in &r.candidates {
                let ps = best_per_sample_us(&c.table).expect("runnable table");
                assert!(
                    ps <= last + 1e-9,
                    "replica {} slowed down when its share grew to {} bytes",
                    r.name,
                    c.ws_limit_bytes
                );
                last = ps;
            }
        }
    }

    #[test]
    fn respects_the_global_budget() {
        for budget in [0, 192 * MIB, 512 * MIB, 2048 * MIB] {
            let plan = arbitrate_fleet_budget(&fleet(), budget).expect("feasible");
            assert!(plan.total_granted_bytes <= budget);
            assert_eq!(plan.shares.len(), 3);
            assert!(plan.ilp_variables > 0);
        }
    }

    #[test]
    fn ample_budget_grants_every_replica_its_best_share() {
        let fleet = fleet();
        let plan = arbitrate_fleet_budget(&fleet, usize::MAX / 2).expect("feasible");
        for (share, r) in plan.shares.iter().zip(&fleet) {
            let best = r
                .candidates
                .iter()
                .filter_map(|c| best_per_sample_us(&c.table))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (share.per_sample_us - best).abs() < 1e-9,
                "replica {} should get its fastest table under an ample budget",
                share.replica
            );
        }
    }

    #[test]
    fn scarce_budget_prefers_the_replica_with_the_larger_marginal_gain() {
        // With room for only some upgrades, total latency of the chosen
        // plan must beat any single-replica greedy allocation.
        let fleet = fleet();
        let budget = 512 * MIB;
        let plan = arbitrate_fleet_budget(&fleet, budget).expect("feasible");
        let chosen: f64 = plan.shares.iter().map(|s| s.per_sample_us).sum();
        // Exhaustive check over all candidate combinations that fit.
        let mut best = f64::INFINITY;
        for a in &fleet[0].candidates {
            for b in &fleet[1].candidates {
                for c in &fleet[2].candidates {
                    let bytes = a.ws_limit_bytes + b.ws_limit_bytes + c.ws_limit_bytes;
                    if bytes > budget {
                        continue;
                    }
                    let cost = [a, b, c]
                        .iter()
                        .filter_map(|x| best_per_sample_us(&x.table))
                        .sum::<f64>();
                    best = best.min(cost);
                }
            }
        }
        assert!(
            (chosen - best).abs() < 1e-9,
            "ILP plan ({chosen:.3} µs) must match the exhaustive optimum ({best:.3} µs)"
        );
    }

    #[test]
    fn heterogeneous_devices_get_genuinely_different_tables() {
        let fleet = fleet();
        let plan = arbitrate_fleet_budget(&fleet, 2048 * MIB).expect("feasible");
        let k80 = &plan.shares[0];
        let v100 = &plan.shares[2];
        assert!(
            k80.per_sample_us > v100.per_sample_us * 1.5,
            "K80 ({:.2} µs/sample) should be well slower than V100 ({:.2} µs/sample)",
            k80.per_sample_us,
            v100.per_sample_us
        );
    }

    #[test]
    fn unrunnable_replica_is_a_typed_error() {
        let r = ReplicaCandidates {
            name: "ghost".into(),
            candidates: vec![BudgetCandidate {
                ws_limit_bytes: 0,
                table: Vec::new(),
            }],
        };
        match arbitrate_fleet_budget(&[r], 1024) {
            Err(UcudnnError::NoFeasibleConfiguration(m)) => assert!(m.contains("ghost")),
            other => panic!("expected NoFeasibleConfiguration, got {other:?}"),
        }
    }
}
