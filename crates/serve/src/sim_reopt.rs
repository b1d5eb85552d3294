//! Deterministic discrete-event simulation of the *online re-optimization*
//! loop (DESIGN.md §13): a device whose latency curve drifts mid-run, a
//! drift detector watching windowed per-micro-batch p50s, a modeled
//! re-benchmark with its own virtual latency, and a version-stamped
//! hot-swap of the plan — all on the same seeded virtual clock as
//! [`crate::sim`], so the "frozen plan sheds, re-optimized plan re-converges
//! with zero violations" claim is byte-identical across runs and machines.
//!
//! The ground truth is explicit: the device executes micro-batch `m` in
//! `base_t(m) · factor_at(now)` where the [`Perturbation`] steps the factor
//! at a virtual timestamp (the sim twin of `with_perturbation` on the
//! simulated `CudnnHandle`). The *plan* only knows whatever table it was
//! last benchmarked with — the gap between the two is exactly what the
//! detector observes and what a re-benchmark closes.

use crate::reopt::{DriftDetector, ReoptConfig};
use crate::scheduler::{BatchPolicy, Scheduler};
use crate::sim::{poisson_arrivals, Core, Fired, Hooks, Pool, SimOutcome};
use crate::slo_monitor::{BurnConfig, BurnMonitor};
use ucudnn::SloDecision;
use ucudnn_gpu_model::Perturbation;

/// One simulated drift-and-recover experiment.
#[derive(Debug, Clone)]
pub struct ReoptSimConfig {
    /// Load-generator seed; the only entropy source in the simulation.
    pub seed: u64,
    /// Per-request deadline budget, microseconds.
    pub slo_us: f64,
    /// Bounded admission queue capacity.
    pub queue_cap: usize,
    /// Parallel worker lanes.
    pub workers: usize,
    /// Coalesced-batch cap.
    pub max_batch: usize,
    /// Mean offered load, requests per second (Poisson arrivals).
    pub arrival_rate_rps: f64,
    /// Total requests to offer.
    pub requests: usize,
    /// The device's *pre-drift* latency table `t*(m)`; the startup plan is
    /// benchmarked from it, and ground truth scales it by the perturbation.
    pub base_table: Vec<(usize, f64)>,
    /// The mid-run device drift (virtual timestamp + latency multiplier).
    pub perturb: Perturbation,
    /// The re-optimization policy, or `None` for the frozen-plan baseline
    /// (no detector, no re-benchmark, no swap — the startup table forever).
    pub reopt: Option<ReoptConfig>,
    /// Virtual time one re-benchmark takes (invalidate + re-measure the
    /// stale Pareto fronts); serving continues on the old plan meanwhile.
    pub rebench_latency_us: f64,
    /// Optional SLO burn-rate monitor: every shed and completion outcome
    /// feeds a [`BurnMonitor`] on the virtual clock, and inactive→active
    /// transitions land in the log (`slo_alert t=…`). Pure observation —
    /// scheduling is unchanged, so the log with `None` stays byte-identical.
    pub burn: Option<BurnConfig>,
}

impl ReoptSimConfig {
    /// The dynamic plan this experiment serves from `table`.
    fn plan(&self, table: Vec<(usize, f64)>) -> Scheduler {
        Scheduler::new(table, self.slo_us, self.max_batch, BatchPolicy::Dynamic)
    }
}

/// What one drift experiment produced.
pub type ReoptOutcome = SimOutcome<ReoptStats>;

/// The drift experiment's own tallies. [`SimOutcome::violations`] counts
/// completions whose *actual* latency exceeded the SLO (the plan believed
/// otherwise — that is the cost of staleness).
#[derive(Debug, Clone, Default)]
pub struct ReoptStats {
    /// Violations among requests fired after the first plan swap — the
    /// re-convergence claim is that this is zero.
    pub violations_post_swap: u64,
    /// Drift reports raised by the detector.
    pub stale_detections: u64,
    /// Successful plan hot-swaps.
    pub swaps: u64,
    /// Virtual time of the first drift report, if any.
    pub detect_time_us: Option<f64>,
    /// Virtual time the first swapped plan took effect, if any.
    pub swap_time_us: Option<f64>,
    /// Plan generation serving at the end (1 = startup table).
    pub final_version: u64,
    /// Burn-rate alerts fired (inactive→active transitions), if a
    /// [`BurnConfig`] was supplied.
    pub slo_alerts: u64,
    /// Virtual time of the first burn-rate alert, if any fired —
    /// byte-reproducible across runs with the same config.
    pub first_alert_us: Option<f64>,
}

/// Run one drift experiment.
///
/// The core loop of [`crate::sim::run_sim`] with all four hooks:
/// execution uses the perturbed ground truth instead of the plan's belief,
/// every executed micro-batch feeds the drift detector, every completion
/// and shed feeds the optional burn monitor, and a completed re-benchmark
/// swaps in a new plan generation at the next tick (version-stamped into
/// the log, like the threaded server's hot-swap).
///
/// # Panics
/// Panics on a config with no workers, an empty queue, or a base table with
/// no size within `max_batch`.
pub fn run_reopt_sim(cfg: &ReoptSimConfig) -> ReoptOutcome {
    let base: Vec<(usize, f64)> = cfg
        .base_table
        .iter()
        .copied()
        .filter(|&(m, _)| m <= cfg.max_batch)
        .collect();
    assert!(!base.is_empty(), "no batch size within max_batch");
    let mut pool = Pool::new(cfg.plan(base.clone()), cfg.workers, cfg.queue_cap);
    pool.version = Some(1);
    let mut hooks = Reopt {
        cfg,
        base,
        detector: DriftDetector::new(cfg.reopt.unwrap_or(ReoptConfig {
            enabled: false,
            ..ReoptConfig::default()
        })),
        rebench: None,
        burn: cfg.burn.map(BurnMonitor::new),
    };
    let stats = ReoptStats {
        final_version: 1,
        ..ReoptStats::default()
    };
    let arrivals = poisson_arrivals(cfg.seed, cfg.requests, cfg.arrival_rate_rps);
    Core::new(pool, stats).run(&arrivals, &mut hooks)
}

/// The drift twin's hooks: perturbed ground truth, the detector and burn
/// monitor as completion observers, and the plan swap as tick work.
struct Reopt<'a> {
    cfg: &'a ReoptSimConfig,
    /// The startup table, capped at `max_batch`.
    base: Vec<(usize, f64)>,
    detector: DriftDetector,
    /// An in-flight re-benchmark: (virtual completion time, the latency
    /// factor it measured — the device as it was when it ran).
    rebench: Option<(f64, f64)>,
    burn: Option<BurnMonitor>,
}

impl Reopt<'_> {
    fn base_t(&self, m: usize) -> f64 {
        self.base
            .iter()
            .find(|&&(size, _)| size == m)
            .map(|&(_, t)| t)
            .expect("planned micro size comes from the table")
    }

    /// Feed one outcome to the optional burn monitor; an inactive→active
    /// transition appends an `slo_alert` log line.
    fn observe_burn(&mut self, core: &mut Core<ReoptStats>, t: f64, bad: bool) {
        let Some(a) = self.burn.as_mut().and_then(|mon| mon.observe(t, bad)) else {
            return;
        };
        let stats = &mut core.out.stats;
        stats.slo_alerts += 1;
        stats.first_alert_us.get_or_insert(a.at_us);
        core.out.log.push(format!(
            "slo_alert t={:.3} fast={:.3} slow={:.3}",
            a.at_us, a.fast_burn, a.slow_burn
        ));
    }
}

impl Hooks for Reopt<'_> {
    type Stats = ReoptStats;

    /// Ground truth: the device as it is now, not as the plan believes.
    fn exec_us(&self, now: f64, d: &SloDecision) -> f64 {
        let factor = self.cfg.perturb.factor_at(now);
        d.micros.iter().map(|&m| self.base_t(m) * factor).sum()
    }

    /// A finished re-benchmark takes effect at the next tick: publish the
    /// refreshed table as a new generation.
    fn on_tick(&mut self, core: &mut Core<ReoptStats>, now: f64) {
        let Some((_, factor)) = self.rebench.filter(|&(ready_at, _)| now >= ready_at) else {
            return;
        };
        self.rebench = None;
        let table = self.base.iter().map(|&(m, t)| (m, t * factor)).collect();
        let pool = &mut core.pool;
        pool.sched = self.cfg.plan(table);
        let version = pool.version.map_or(1, |v| v + 1);
        pool.version = Some(version);
        let stats = &mut core.out.stats;
        stats.swaps += 1;
        stats.final_version = version;
        stats.swap_time_us.get_or_insert(now);
        self.detector.reset();
        core.out.log.push(format!(
            "swap t={now:.3} plan=v{version} factor={factor:.3}"
        ));
    }

    fn on_fire(&mut self, core: &mut Core<ReoptStats>, fired: &Fired) {
        let bad = fired.violated.iter().filter(|&&v| v).count() as u64;
        if core.out.stats.swaps > 0 {
            core.out.stats.violations_post_swap += bad;
        }
        // Completions feed the burn monitor after the fire line, so an
        // alert tripped by this batch lands right below it.
        for &violated in fired.violated {
            self.observe_burn(core, fired.finish, violated);
        }

        // Every executed micro-batch feeds the detector, judged against
        // the plan that fired it.
        let now = fired.now;
        let factor = self.cfg.perturb.factor_at(now);
        for &m in &fired.decision.micros {
            let table = core.pool.sched.table();
            let Some(&(_, expected)) = table.iter().find(|&&(size, _)| size == m) else {
                continue;
            };
            let Some(r) = self.detector.observe(m, self.base_t(m) * factor, expected) else {
                continue;
            };
            let stats = &mut core.out.stats;
            stats.stale_detections += 1;
            stats.detect_time_us.get_or_insert(now);
            core.out.log.push(format!(
                "drift t={now:.3} micro={} observed_p50={:.3} expected={:.3} ratio={:.3}",
                r.micro, r.observed_p50_us, r.expected_us, r.ratio
            ));
            if self.rebench.is_none() {
                // The re-benchmark measures the device as it is *now* and
                // lands after its own latency; serving stays on the old
                // plan meanwhile.
                let ready_at = now + self.cfg.rebench_latency_us;
                self.rebench = Some((ready_at, factor));
                core.out.log.push(format!(
                    "rebench_start t={now:.3} ready_at={ready_at:.3} factor={factor:.3}"
                ));
            }
        }
    }

    fn on_shed(&mut self, core: &mut Core<ReoptStats>, t: f64) {
        self.observe_burn(core, t, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve_bench table shape: t(m) = 480 + 20m (sub-linear/sample).
    fn base_table() -> Vec<(usize, f64)> {
        [1usize, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|m| (m, 480.0 + 20.0 * m as f64))
            .collect()
    }

    /// 1 worker at 20k rps / 20ms SLO: healthy pre-drift (~28.5k rps
    /// capacity), overloaded after a 2× slowdown (~14.3k rps).
    fn cfg(reopt: Option<ReoptConfig>) -> ReoptSimConfig {
        ReoptSimConfig {
            seed: 2018,
            slo_us: 20_000.0,
            queue_cap: 256,
            workers: 1,
            max_batch: 32,
            arrival_rate_rps: 20_000.0,
            requests: 4_000,
            base_table: base_table(),
            perturb: Perturbation::new(50_000.0, 2.0),
            reopt,
            rebench_latency_us: 5_000.0,
            burn: None,
        }
    }

    /// A burn config sized for the sim's 200 ms horizon: a 20 ms fast
    /// window and a 100 ms slow window over a 1% budget.
    fn burn_cfg() -> BurnConfig {
        BurnConfig {
            budget: 0.01,
            fast_us: 20_000.0,
            slow_us: 100_000.0,
            threshold: 1.0,
        }
    }

    #[test]
    fn the_frozen_lane_fires_a_burn_alert_at_a_reproducible_virtual_time() {
        let mut c = cfg(None);
        c.burn = Some(burn_cfg());
        let a = run_reopt_sim(&c);
        let b = run_reopt_sim(&c);
        // A 2×-slower device under a frozen plan sheds hard: the burn
        // monitor must page, and at the same virtual microsecond every run.
        assert!(
            a.stats.slo_alerts >= 1,
            "sustained sheds must trip the alert"
        );
        let first = a.stats.first_alert_us.expect("an alert fired");
        assert!(first >= 50_000.0, "no alert before the drift exists");
        assert_eq!(
            a.stats.first_alert_us, b.stats.first_alert_us,
            "byte-reproducible"
        );
        assert_eq!(a.log, b.log);
        assert!(
            a.log.iter().any(|l| l.starts_with("slo_alert t=")),
            "the alert is in the deterministic log"
        );
    }

    #[test]
    fn a_clean_run_fires_no_burn_alert_on_any_seed() {
        for seed in [1u64, 7, 2018] {
            let mut c = cfg(Some(ReoptConfig::default()));
            c.seed = seed;
            c.perturb = Perturbation::new(f64::INFINITY, 2.0); // never fires
            c.burn = Some(burn_cfg());
            let out = run_reopt_sim(&c);
            assert_eq!(out.stats.slo_alerts, 0, "seed {seed}: false page");
            assert_eq!(out.stats.first_alert_us, None);
        }
    }

    #[test]
    fn the_burn_monitor_is_pure_observation() {
        let plain = run_reopt_sim(&cfg(None));
        let mut c = cfg(None);
        c.burn = Some(burn_cfg());
        let watched = run_reopt_sim(&c);
        // Identical serving decisions; the watched log only gains lines.
        assert_eq!(plain.completed, watched.completed);
        assert_eq!(plain.shed, watched.shed);
        assert_eq!(plain.violations, watched.violations);
        assert_eq!(plain.batch_sizes, watched.batch_sizes);
        let stripped: Vec<&String> = watched
            .log
            .iter()
            .filter(|l| !l.starts_with("slo_alert "))
            .collect();
        assert_eq!(stripped, plain.log.iter().collect::<Vec<_>>());
    }
}
