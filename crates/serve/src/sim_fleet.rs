//! Deterministic discrete-event twin of the fleet tier.
//!
//! [`run_fleet_sim`] drives N simulated device replicas — each with its
//! own latency table, bounded queue, worker pool, and per-replica
//! [`Scheduler`] — behind one [`Router`], as pools of the event core in
//! [`crate::sim`]. Same contract as every twin: everything is a pure
//! function of the config, so the same seed and replica set produce a
//! byte-identical event log, and `serve_bench --fleet` replays runs to
//! prove it. The fleet's hooks are its router and its failure:
//!
//! * **Routing** — the router inspects a snapshot of every replica (queue
//!   depth, capacity, earliest-free worker, fluid service rate) and
//!   dispatches or sheds each request at its arrival instant.
//! * **Failure** — an ordered event: earlier arrivals are routed first, an
//!   arrival at the same instant after it. The replica stops accepting, its
//!   in-flight batches land (drain semantics), and every queued ticket is
//!   re-routed among the survivors at its *original* arrival time, or shed
//!   on the `draining` rung. Tickets never hang: `completed + shed ==
//!   offered` holds with or without a failure.
//!
//! Because each replica runs the same deadline-aware [`BatchPolicy::Dynamic`]
//! scheduler as the single-replica stack, an admitted request either
//! completes within its SLO or is shed *before* execution — admitted
//! requests never violate, under either router policy. The routers differ
//! in how much they shed, which is exactly what the bench compares.

use crate::fleet::FleetMetrics;
use crate::fleet::{replica_rate_per_us, ReplicaSnapshot, RouteDecision, Router};
use crate::request::ShedReason;
use crate::scheduler::{BatchPolicy, Scheduler};
use crate::sim::{poisson_arrivals, Admit, Core, Fired, Hooks, Pool, SimOutcome};
use ucudnn::FleetRouterPolicy;

/// One replica of the simulated fleet.
#[derive(Debug, Clone)]
pub struct FleetReplicaConfig {
    /// Stable name for logs and metric labels (device card by convention).
    pub name: String,
    /// The replica's own `t*(m)` latency table (per-device).
    pub table: Vec<(usize, f64)>,
    /// Worker threads executing coalesced batches.
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue_cap: usize,
}

/// Kill one replica mid-run.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaFailure {
    /// Index into [`FleetSimConfig::replicas`].
    pub replica: usize,
    /// Virtual-clock instant of death.
    pub at_us: f64,
}

/// Full configuration of one fleet simulation.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// Seed for the Poisson arrival process.
    pub seed: u64,
    /// Per-request deadline budget (µs).
    pub slo_us: f64,
    /// Coalesced-batch cap shared by every replica's scheduler.
    pub max_batch: usize,
    /// Offered load (requests/second).
    pub arrival_rate_rps: f64,
    /// Total requests offered.
    pub requests: usize,
    /// Router policy under test.
    pub policy: FleetRouterPolicy,
    /// The fleet, in router index order.
    pub replicas: Vec<FleetReplicaConfig>,
    /// Optional mid-run replica failure.
    pub fail: Option<ReplicaFailure>,
}

/// Per-replica tallies.
#[derive(Debug, Clone, Default)]
pub struct ReplicaOutcome {
    /// Replica name, copied from the config.
    pub name: String,
    /// Tickets the router dispatched here (including re-routes).
    pub routed: u64,
    /// Requests completed in this replica's batches.
    pub completed: u64,
    /// Post-dispatch sheds charged to this replica (scheduler-proven
    /// deadline misses, plus drain sheds when the replica died).
    pub shed: u64,
    /// Coalesced batches fired.
    pub batches: u64,
}

/// Everything observable from one fleet run. Its
/// [`SimOutcome::violations`] are expected to be 0: the per-replica
/// schedulers only fire feasible plans.
pub type FleetOutcome = SimOutcome<FleetStats>;

/// The fleet's own tallies.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Tickets re-routed off a failed replica onto survivors.
    pub requeued: u64,
    /// Per-replica tallies, in config order.
    pub per_replica: Vec<ReplicaOutcome>,
}

impl FleetOutcome {
    /// Publish the per-replica tallies onto fleet instruments. Replicas
    /// sharing a card name accumulate into one series (the label
    /// vocabulary is the card list, keeping cardinality pinned).
    pub fn export(&self, metrics: &FleetMetrics) {
        for r in &self.stats.per_replica {
            metrics.routed(&r.name, r.routed);
            metrics.completed(&r.name, r.completed);
            metrics.shed(&r.name, r.shed);
            metrics.set_depth(&r.name, 0.0);
        }
    }
}

/// Run one fleet simulation to completion.
pub fn run_fleet_sim(cfg: &FleetSimConfig) -> FleetOutcome {
    assert!(!cfg.replicas.is_empty(), "need at least one replica");
    if let Some(f) = cfg.fail {
        assert!(f.replica < cfg.replicas.len(), "failure index out of range");
    }
    let mut rates = Vec::with_capacity(cfg.replicas.len());
    let pools = cfg
        .replicas
        .iter()
        .map(|r| {
            let table: Vec<(usize, f64)> = r
                .table
                .iter()
                .copied()
                .filter(|&(m, _)| m <= cfg.max_batch)
                .collect();
            assert!(
                table.iter().any(|&(m, _)| m >= 1),
                "replica {} has no batch size within max_batch",
                r.name
            );
            rates.push(replica_rate_per_us(&table, r.workers));
            let sched = Scheduler::new(table, cfg.slo_us, cfg.max_batch, BatchPolicy::Dynamic);
            let mut pool = Pool::new(sched, r.workers, r.queue_cap);
            pool.tag = format!(" replica={}", r.name);
            pool
        })
        .collect();
    let stats = FleetStats {
        requeued: 0,
        per_replica: cfg
            .replicas
            .iter()
            .map(|r| ReplicaOutcome {
                name: r.name.clone(),
                ..ReplicaOutcome::default()
            })
            .collect(),
    };
    let mut hooks = Fleet {
        router: Router::new(cfg.policy, cfg.slo_us),
        rates,
        fail: cfg.fail,
    };
    let arrivals = poisson_arrivals(cfg.seed, cfg.requests, cfg.arrival_rate_rps);
    Core::new(pools, stats).run(&arrivals, &mut hooks)
}

/// The fleet's hooks: the router over replica snapshots, and the replica
/// failure as an ordered event.
struct Fleet {
    router: Router,
    /// Fluid service rate of each replica, requests/µs.
    rates: Vec<f64>,
    /// The failure still to come.
    fail: Option<ReplicaFailure>,
}

impl Fleet {
    fn snapshots(&self, core: &Core<FleetStats>) -> Vec<ReplicaSnapshot> {
        core.pools
            .iter()
            .zip(&self.rates)
            .map(|(p, &rate_per_us)| ReplicaSnapshot {
                rate_per_us,
                queue_depth: p.queue.len(),
                queue_cap: p.queue_cap,
                earliest_free_us: p.earliest_free().1,
                alive: p.alive,
            })
            .collect()
    }
}

impl Hooks for Fleet {
    type Stats = FleetStats;

    fn next_event(&self) -> Option<f64> {
        self.fail.map(|f| f.at_us)
    }

    /// Replica death, with drain semantics: in-flight batches land, and
    /// every queued ticket re-routes among the survivors at its original
    /// arrival time or sheds on the `draining` rung — never hangs.
    fn run_event(&mut self, core: &mut Core<FleetStats>) {
        let f = self.fail.take().expect("a failure is pending");
        let now = f.at_us;
        let dead = &mut core.pools[f.replica];
        dead.alive = false;
        let drained: Vec<(u64, f64)> = dead.queue.drain(..).collect();
        let (mut requeued, mut shed) = (0u64, 0u64);
        for (id, at) in drained {
            let snaps = self.snapshots(core);
            match self.router.choose(now, at, &snaps) {
                RouteDecision::Dispatch(i) => {
                    // Keep the queue sorted by arrival (then id), so the
                    // scheduler's oldest-first deadline logic stays sound
                    // when old tickets land behind newer ones.
                    let queue = &mut core.pools[i].queue;
                    let pos = queue
                        .iter()
                        .position(|&(qid, qat)| (qat, qid) > (at, id))
                        .unwrap_or(queue.len());
                    queue.insert(pos, (id, at));
                    core.out.stats.per_replica[i].routed += 1;
                    requeued += 1;
                }
                RouteDecision::Shed(_) => {
                    // Whatever rung routing failed on, the ticket is lost
                    // to the drain: charge the draining rung.
                    core.shed(now, None, id, ShedReason::Draining);
                    core.out.stats.per_replica[f.replica].shed += 1;
                    shed += 1;
                }
            }
        }
        core.out.stats.requeued += requeued;
        let name = &core.out.stats.per_replica[f.replica].name;
        core.out.log.push(format!(
            "fail t={now:.3} replica={name} requeued={requeued} shed={shed}"
        ));
    }

    /// Route one arrival at its arrival instant.
    fn admit(&mut self, core: &mut Core<FleetStats>, _id: u64, at: f64) -> Admit {
        match self.router.choose(at, at, &self.snapshots(core)) {
            RouteDecision::Dispatch(i) => {
                core.out.stats.per_replica[i].routed += 1;
                Admit::Queue(i)
            }
            RouteDecision::Shed(reason) => Admit::Shed(reason),
        }
    }

    fn on_fire(&mut self, core: &mut Core<FleetStats>, fired: &Fired) {
        let r = &mut core.out.stats.per_replica[fired.pool];
        r.completed += fired.decision.batch as u64;
        r.batches += 1;
    }

    fn on_shed(&mut self, core: &mut Core<FleetStats>, pool: Option<usize>, _t: f64) {
        if let Some(p) = pool {
            core.out.stats.per_replica[p].shed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A V100-flavoured synthetic table: fast, batches well.
    fn fast_table() -> Vec<(usize, f64)> {
        vec![
            (1, 120.0),
            (2, 160.0),
            (4, 240.0),
            (8, 400.0),
            (16, 720.0),
            (32, 1360.0),
        ]
    }

    /// A P100-flavoured synthetic table.
    fn mid_table() -> Vec<(usize, f64)> {
        vec![
            (1, 200.0),
            (2, 280.0),
            (4, 440.0),
            (8, 760.0),
            (16, 1400.0),
            (32, 2680.0),
        ]
    }

    /// A K80-flavoured synthetic table: ~4× slower than the V100.
    fn slow_table() -> Vec<(usize, f64)> {
        vec![
            (1, 500.0),
            (2, 700.0),
            (4, 1100.0),
            (8, 1900.0),
            (16, 3500.0),
            (32, 6700.0),
        ]
    }

    fn replica(name: &str, table: Vec<(usize, f64)>) -> FleetReplicaConfig {
        FleetReplicaConfig {
            name: name.into(),
            table,
            workers: 2,
            queue_cap: 256,
        }
    }

    fn hetero_cfg(policy: ucudnn::FleetRouterPolicy, rate: f64, requests: usize) -> FleetSimConfig {
        FleetSimConfig {
            seed: 2018,
            slo_us: 20_000.0,
            max_batch: 32,
            arrival_rate_rps: rate,
            requests,
            policy,
            replicas: vec![
                replica("k80", slow_table()),
                replica("p100", mid_table()),
                replica("v100", fast_table()),
            ],
            fail: None,
        }
    }

    #[test]
    fn heterogeneous_replicas_see_heterogeneous_shares() {
        // Under feasibility routing, the V100 should complete well more
        // than the K80 — the router is rate-aware.
        let out = run_fleet_sim(&hetero_cfg(
            ucudnn::FleetRouterPolicy::Feasibility,
            120_000.0,
            6_000,
        ));
        let k80 = &out.stats.per_replica[0];
        let v100 = &out.stats.per_replica[2];
        assert!(
            v100.completed > k80.completed,
            "v100 {} should out-serve k80 {}",
            v100.completed,
            k80.completed
        );
    }

    #[test]
    fn feasibility_beats_least_loaded_under_moderate_overload() {
        // Offered load somewhat beyond fleet capacity — the regime a
        // fleet is actually provisioned for. The rate-aware router must
        // shed strictly less than the rate-blind baseline: JSQ parks
        // tickets in the slow replica's short-but-doomed queue, while
        // feasibility routing only dispatches where the deadline holds.
        // (Under extreme overload, many multiples of capacity, both
        // policies degenerate to shedding most of the offered load and
        // the gap closes; the fleet bench pins this regime instead.)
        for rate in [100_000.0, 120_000.0] {
            let feas = run_fleet_sim(&hetero_cfg(
                ucudnn::FleetRouterPolicy::Feasibility,
                rate,
                6_000,
            ));
            let jsq = run_fleet_sim(&hetero_cfg(
                ucudnn::FleetRouterPolicy::LeastLoaded,
                rate,
                6_000,
            ));
            assert!(
                feas.shed.total() < jsq.shed.total(),
                "rate {rate}: feasibility shed {} >= least-loaded {}",
                feas.shed.total(),
                jsq.shed.total()
            );
            assert_eq!(feas.violations, 0);
            assert_eq!(jsq.violations, 0);
        }
    }

    #[test]
    fn failure_reroutes_queued_tickets_to_survivors() {
        // Kill the replica mid-burst so its queue is non-empty; the
        // survivors absorb the backlog.
        let mut cfg = hetero_cfg(ucudnn::FleetRouterPolicy::Feasibility, 200_000.0, 5_000);
        cfg.fail = Some(ReplicaFailure {
            replica: 1,
            at_us: 10_000.0,
        });
        let out = run_fleet_sim(&cfg);
        assert!(
            out.stats.requeued > 0,
            "expected a non-empty queue at death"
        );
        assert_eq!(out.completed + out.shed.total(), 5_000);
    }

    #[test]
    fn arrivals_after_the_last_replica_dies_shed_as_draining() {
        let mut cfg = hetero_cfg(ucudnn::FleetRouterPolicy::Feasibility, 20_000.0, 1_500);
        cfg.replicas.truncate(1);
        cfg.fail = Some(ReplicaFailure {
            replica: 0,
            at_us: 5_000.0,
        });
        let out = run_fleet_sim(&cfg);
        assert_eq!(
            out.completed + out.shed.total(),
            1_500,
            "no ticket may hang"
        );
        let drained = out.log.iter().filter(|l| l.ends_with("reason=draining"));
        assert_eq!(drained.count() as u64, out.shed.draining);
        assert!(out.shed.draining > 1_000, "later arrivals find no replica");
    }

    #[test]
    fn outcome_exports_onto_closed_vocabulary_instruments() {
        let out = run_fleet_sim(&hetero_cfg(
            ucudnn::FleetRouterPolicy::Feasibility,
            60_000.0,
            2_000,
        ));
        let registry = ucudnn::Registry::new();
        let metrics = FleetMetrics::with_registry(registry.clone(), &["k80", "p100", "v100"]);
        out.export(&metrics);
        let text = registry.expose();
        assert!(text.contains("ucudnn_fleet_routed_total{replica=\"v100\"}"));
        assert!(text.contains("ucudnn_fleet_completed_total{replica=\"k80\"}"));
        assert_eq!(registry.dropped(), 0);
    }
}
