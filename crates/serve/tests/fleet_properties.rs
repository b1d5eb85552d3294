//! Property tests for the fleet tier (DESIGN.md §16): SLO safety under
//! arbitrary heterogeneous loads, zero ticket loss across replica
//! failures, and bit-reproducibility of the dispatch log.

use proptest::prelude::*;
use ucudnn::FleetRouterPolicy;
use ucudnn_serve::{run_fleet_sim, FleetReplicaConfig, FleetSimConfig, ReplicaFailure};

/// A replica latency table with launch-overhead economics
/// (`t(m) = overhead + per_sample * m` over power-of-two sizes), plus a
/// deterministic per-entry wobble so batching sweet spots differ per seed.
fn table_for(
    max_batch: usize,
    overhead: f64,
    per_sample: f64,
    wobble_seed: u64,
) -> Vec<(usize, f64)> {
    let mut rng = proptest::TestRng::new(wobble_seed.max(1));
    let mut sizes = Vec::new();
    let mut m = 1;
    while m < max_batch {
        sizes.push(m);
        m *= 2;
    }
    sizes.push(max_batch);
    sizes
        .into_iter()
        .map(|m| {
            let wobble = 1.0 + 0.2 * rng.next_f64();
            (m, (overhead + per_sample * m as f64) * wobble)
        })
        .collect()
}

/// A heterogeneous fleet whose speed ratios are themselves randomized: each
/// replica's per-sample cost scales up from the previous one's.
fn fleet_for(
    replicas: usize,
    max_batch: usize,
    base_per_sample: f64,
    spread: f64,
    queue_cap: usize,
    seed: u64,
) -> Vec<FleetReplicaConfig> {
    (0..replicas)
        .map(|i| {
            let scale = 1.0 + spread * i as f64;
            FleetReplicaConfig {
                name: format!("dev{i}"),
                table: table_for(
                    max_batch,
                    100.0 * scale,
                    base_per_sample * scale,
                    seed.wrapping_add(i as u64),
                ),
                workers: 2,
                queue_cap,
            }
        })
        .collect()
}

fn policies() -> impl Strategy<Value = FleetRouterPolicy> {
    prop_oneof![
        Just(FleetRouterPolicy::Feasibility),
        Just(FleetRouterPolicy::LeastLoaded),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fleet-wide SLO-safety invariant: whatever the load, fleet shape,
    /// or routing policy, no admitted request ever finishes past its
    /// deadline — overload becomes typed sheds — and every offered request
    /// is accounted for exactly once across completions and sheds.
    #[test]
    fn admitted_requests_never_violate_the_slo(
        seed in 1u64..1_000_000,
        policy in policies(),
        replicas in 1usize..5,
        spread in 0.0f64..3.0,
        per_sample in 2.0f64..40.0,
        slo_us in 4_000.0f64..50_000.0,
        rate in 1_000.0f64..300_000.0,
        queue_cap in 8usize..256,
        requests in 100usize..400,
    ) {
        let max_batch = 16;
        let cfg = FleetSimConfig {
            seed,
            slo_us,
            max_batch,
            arrival_rate_rps: rate,
            requests,
            policy,
            replicas: fleet_for(replicas, max_batch, per_sample, spread, queue_cap, seed),
            fail: None,
        };
        let out = run_fleet_sim(&cfg);
        prop_assert_eq!(out.violations, 0);
        prop_assert_eq!(out.completed + out.shed.total(), requests as u64);
        // Per-replica accounting closes too: everything routed to a replica
        // either completed there or was shed with a typed reason.
        for r in &out.stats.per_replica {
            prop_assert_eq!(r.routed, r.completed + r.shed);
        }
        let per_replica: u64 = out.stats.per_replica.iter().map(|r| r.completed).sum();
        prop_assert_eq!(out.completed, per_replica);
    }

    /// Zero ticket loss across a replica failure: kill an arbitrary replica
    /// at an arbitrary time; its queued tickets re-route to survivors or
    /// shed with a typed reason, the global accounting still closes, and
    /// the dead replica never fires again after the failure instant.
    #[test]
    fn replica_failure_loses_zero_tickets(
        seed in 1u64..1_000_000,
        policy in policies(),
        replicas in 2usize..5,
        rate in 20_000.0f64..250_000.0,
        fail_replica_pick in 0usize..5,
        fail_at_us in 1_000.0f64..40_000.0,
    ) {
        let max_batch = 16;
        let requests = 300;
        let fail_replica = fail_replica_pick % replicas;
        let cfg = FleetSimConfig {
            seed,
            slo_us: 20_000.0,
            max_batch,
            arrival_rate_rps: rate,
            requests,
            policy,
            replicas: fleet_for(replicas, max_batch, 10.0, 1.5, 64, seed),
            fail: Some(ReplicaFailure { replica: fail_replica, at_us: fail_at_us }),
        };
        let out = run_fleet_sim(&cfg);
        prop_assert_eq!(out.violations, 0);
        prop_assert_eq!(out.completed + out.shed.total(), requests as u64);
        // A re-routed ticket is counted as routed on both the dead replica
        // and its survivor, so the fleet-wide ledger closes modulo the
        // requeue count — nothing vanishes, nothing is double-resolved.
        let routed: u64 = out.stats.per_replica.iter().map(|r| r.routed).sum();
        let resolved: u64 = out.stats.per_replica.iter().map(|r| r.completed + r.shed).sum();
        prop_assert_eq!(routed, resolved + out.stats.requeued);
        // No dispatch on the dead replica after its failure line.
        let dead = format!("replica={}", cfg.replicas[fail_replica].name);
        let mut failed = false;
        for line in &out.log {
            if line.starts_with("fail ") && line.contains(&dead) {
                failed = true;
            } else if failed {
                prop_assert!(
                    !(line.starts_with("fire") && line.contains(&dead)),
                    "dead replica fired after failure: {}", line
                );
            }
        }
    }

    /// Reproducibility: the same seed and replica set give byte-identical
    /// dispatch logs on replay; a different seed diverges (so the log
    /// reflects the load, not a constant).
    #[test]
    fn same_seed_and_fleet_is_byte_identical(
        seed in 1u64..1_000_000,
        policy in policies(),
        replicas in 1usize..4,
        rate in 5_000.0f64..150_000.0,
    ) {
        let max_batch = 16;
        let cfg = FleetSimConfig {
            seed,
            slo_us: 20_000.0,
            max_batch,
            arrival_rate_rps: rate,
            requests: 250,
            policy,
            replicas: fleet_for(replicas, max_batch, 8.0, 1.0, 64, seed),
            fail: None,
        };
        let a = run_fleet_sim(&cfg);
        let b = run_fleet_sim(&cfg);
        prop_assert_eq!(&a.log, &b.log);
        prop_assert_eq!(&a.batch_sizes, &b.batch_sizes);
        prop_assert_eq!(a.shed, b.shed);
        let c = run_fleet_sim(&FleetSimConfig { seed: seed + 1, ..cfg.clone() });
        prop_assert!(a.log != c.log, "different seed must produce a different load");
    }
}
