//! Deterministic discrete-event simulation of the serving loop.
//!
//! The threaded server ([`crate::server`]) is real but its timings depend on
//! the host; this module replays the same scheduler against a virtual clock
//! so SLO claims ("zero violations among admitted requests", "dynamic beats
//! fixed-batch-1 by ≥1.3×") are exactly reproducible: the same seed and
//! worker count produce a byte-identical batch/shed log on every machine.
//!
//! No wall clock, no OS entropy: arrivals come from a seeded LCG and an
//! exponential inter-arrival transform, all times are f64 microseconds on
//! the virtual clock.
//!
//! One event core (`Core::run`) drives [`run_sim`]: it owns the seeded
//! arrivals, one pool's queue and worker clocks, admission at the queue
//! cap, fire/wait/shed and the outcome. Each loop turn is one *tick*, at
//! the pool's earliest-free worker (ties: lowest index), never before its
//! oldest queued ticket or, with an empty queue, before the next offered
//! arrival. At each tick every arrival up to the tick is admitted in
//! order, then the worker decides once; a fired batch runs for exactly
//! its plan's `t*(m)`.

use crate::request::ShedReason;
use crate::scheduler::{Action, BatchPolicy, Scheduler};
use std::collections::VecDeque;
use ucudnn::telemetry::StreamingHistogram;

/// One simulated load experiment.
#[derive(Debug, Clone)]
pub struct SimConfig {
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
    /// Batching policy under test.
    pub policy: BatchPolicy,
    /// The latency table `t*(m)` the workers execute from.
    pub table: Vec<(usize, f64)>,
}

/// Sheds tallied per rung of the degradation ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedCounts {
    /// Admission-control rejections (queue full).
    pub queue_full: u64,
    /// Scheduler-proven deadline misses, dropped before execution.
    pub deadline_infeasible: u64,
    /// Batches lost to permanent execution faults.
    pub exec_failed: u64,
    /// Rejected during drain.
    pub draining: u64,
}

impl ShedCounts {
    /// Total sheds across all reasons.
    pub fn total(&self) -> u64 {
        self.queue_full + self.deadline_infeasible + self.exec_failed + self.draining
    }

    /// Bump the counter for one reason.
    pub fn bump(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => self.queue_full += 1,
            ShedReason::DeadlineInfeasible => self.deadline_infeasible += 1,
            ShedReason::ExecFailed => self.exec_failed += 1,
            ShedReason::Draining => self.draining += 1,
        }
    }
}

/// What one simulated run produced.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    /// Requests that completed within the simulation.
    pub completed: u64,
    /// Requests shed, by reason.
    pub shed: ShedCounts,
    /// Completed requests whose end-to-end latency (from arrival) exceeded
    /// the SLO.
    pub violations: u64,
    /// Every fired batch size, in firing order.
    pub batch_sizes: Vec<usize>,
    /// The deterministic event log (one line per decision); byte-identical
    /// across runs with the same config.
    pub log: Vec<String>,
    /// End-to-end latency distribution of completed requests.
    pub latencies: StreamingHistogram,
    /// Virtual time of the first arrival.
    pub first_arrival_us: f64,
    /// Virtual time of the last batch completion.
    pub last_completion_us: f64,
}

impl SimOutcome {
    /// Completed-request throughput over the active window, requests/s.
    pub fn throughput_rps(&self) -> f64 {
        let span = self.last_completion_us - self.first_arrival_us;
        if span <= 0.0 || self.completed == 0 {
            0.0
        } else {
            self.completed as f64 / (span / 1e6)
        }
    }

    /// Mean fired batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            0.0
        } else {
            self.batch_sizes.iter().sum::<usize>() as f64 / self.batch_sizes.len() as f64
        }
    }
}

/// Poisson arrival times (µs) for `n` requests at `rate_rps`: a Knuth/MMIX
/// LCG drives an exponential inter-arrival transform. No `rand`, no wall
/// clock.
pub fn poisson_arrivals(seed: u64, n: usize, rate_rps: f64) -> Vec<f64> {
    assert!(rate_rps > 0.0, "arrival rate must be positive");
    let rate_per_us = rate_rps / 1e6;
    let mut state = seed;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Uniform in (0, 1] (53-bit mantissa; never 0, so `ln` is safe).
            let unit = ((state >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += -unit.ln() / rate_per_us;
            t
        })
        .collect()
}

/// Run one experiment: offered arrivals flow through admission control, the
/// scheduler, and a pool of virtual workers executing from the latency
/// table.
pub fn run_sim(cfg: &SimConfig) -> SimOutcome {
    let sched = Scheduler::new(cfg.table.clone(), cfg.slo_us, cfg.max_batch, cfg.policy);
    let arrivals = poisson_arrivals(cfg.seed, cfg.requests, cfg.arrival_rate_rps);
    Core::new(sched, cfg.workers, cfg.queue_cap).run(&arrivals)
}

/// The event core: one pool of workers behind one scheduler, and the
/// outcome being built.
struct Core {
    sched: Scheduler,
    /// Queued tickets `(id, arrival µs)`, oldest first.
    queue: VecDeque<(u64, f64)>,
    queue_cap: usize,
    /// When each worker next goes idle.
    free_at: Vec<f64>,
    out: SimOutcome,
}

impl Core {
    fn new(sched: Scheduler, workers: usize, queue_cap: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        assert!(queue_cap >= 1, "need a non-empty queue");
        Self {
            sched,
            queue: VecDeque::new(),
            queue_cap,
            free_at: vec![0.0; workers],
            out: SimOutcome::default(),
        }
    }

    /// The earliest-free worker and its clock (ties: lowest index).
    fn earliest_free(&self) -> (usize, f64) {
        let (w, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
            .expect("a pool has workers");
        (w, free)
    }

    /// Count and log one shed.
    fn shed(&mut self, t: f64, id: u64, reason: ShedReason) {
        self.out.shed.bump(reason);
        self.out
            .log
            .push(format!("shed t={t:.3} id={id} reason={}", reason.name()));
    }

    /// Replay `arrivals` (ids are their indices) to completion.
    fn run(mut self, arrivals: &[f64]) -> SimOutcome {
        self.out.first_arrival_us = arrivals.first().copied().unwrap_or(0.0);
        let mut next = 0;
        loop {
            // The tick: the earliest-free worker, never before the oldest
            // queued ticket or, with none queued, the next arrival.
            let (w, free) = self.earliest_free();
            let first = match self.queue.front() {
                Some(&(_, at)) => at,
                None => arrivals.get(next).copied().unwrap_or(f64::INFINITY),
            };
            let now = free.max(first);
            if now.is_infinite() {
                break;
            }
            while let Some(&at) = arrivals.get(next).filter(|&&at| at <= now) {
                let id = next as u64;
                next += 1;
                if self.queue.len() >= self.queue_cap {
                    self.shed(at, id, ShedReason::QueueFull);
                } else {
                    self.queue.push_back((id, at));
                }
            }
            self.decide(w, now, arrivals.get(next).copied());
        }
        self.out
    }

    /// Worker `w` decides at `now`: fire, wait or shed.
    fn decide(&mut self, w: usize, now: f64, next_arrival: Option<f64>) {
        let &(_, oldest) = self.queue.front().expect("non-empty queue");
        let queued = self.queue.len();
        match self.sched.decide(now, oldest, queued, next_arrival) {
            Action::Fire(d) => {
                let finish = now + d.exec_us;
                self.free_at[w] = finish;
                let slo = self.sched.slo_us();
                let ids: Vec<(u64, f64)> = self.queue.drain(..d.batch).collect();
                let out = &mut self.out;
                for &(_, at) in &ids {
                    let latency = finish - at;
                    if latency > slo + 1e-6 {
                        out.violations += 1;
                    }
                    out.latencies.record(latency);
                }
                out.completed += d.batch as u64;
                out.last_completion_us = out.last_completion_us.max(finish);
                out.batch_sizes.push(d.batch);
                let micros = d
                    .micros
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join("+");
                out.log.push(format!(
                    "fire t={now:.3} worker={w} batch={} micros={micros} exec={:.3} ids={}..{}",
                    d.batch,
                    d.exec_us,
                    ids[0].0,
                    ids[d.batch - 1].0
                ));
            }
            Action::WaitUntil(t) => {
                // Admission guarantees the next arrival is strictly in the
                // future, so the clock always advances.
                debug_assert!(t > now, "wait must move the clock forward");
                self.free_at[w] = t;
            }
            Action::ShedOldest => {
                let (id, _) = self.queue.pop_front().expect("non-empty queue");
                self.shed(now, id, ShedReason::DeadlineInfeasible);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<(usize, f64)> {
        // Strongly sub-linear: t(1)=500, t(32)=1120 (35µs/sample).
        [1usize, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|m| (m, 480.0 + 20.0 * m as f64))
            .collect()
    }

    fn cfg(policy: BatchPolicy) -> SimConfig {
        SimConfig {
            seed: 7,
            slo_us: 20_000.0,
            queue_cap: 256,
            workers: 2,
            max_batch: 32,
            arrival_rate_rps: 4_000.0,
            requests: 400,
            policy,
            table: table(),
        }
    }

    #[test]
    fn arrivals_are_monotone_and_seed_deterministic() {
        let a = poisson_arrivals(42, 100, 1000.0);
        let b = poisson_arrivals(42, 100, 1000.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t.is_finite() && t > 0.0));
        let c = poisson_arrivals(43, 100, 1000.0);
        assert_ne!(a, c);
    }

    #[test]
    fn dynamic_admits_everything_it_keeps_within_slo() {
        let c = cfg(BatchPolicy::Dynamic);
        let out = run_sim(&c);
        assert_eq!(out.violations, 0, "admitted requests must meet the SLO");
        assert_eq!(
            out.completed + out.shed.total(),
            c.requests as u64,
            "every offered request is accounted for"
        );
        assert!(out.completed > 0);
        assert!(out.mean_batch() > 1.0, "load this heavy must coalesce");
    }

    #[test]
    fn overload_sheds_but_never_violates_under_dynamic() {
        let mut c = cfg(BatchPolicy::Dynamic);
        // Far beyond the two workers' capacity (~2/0.000035µs ≈ 57k rps at
        // perfect batching, but SLO and queue cap bite much earlier).
        c.arrival_rate_rps = 400_000.0;
        c.queue_cap = 64;
        c.requests = 2_000;
        let out = run_sim(&c);
        assert!(out.shed.total() > 0, "overload must shed");
        assert_eq!(out.violations, 0, "sheds, not violations");
        assert_eq!(out.completed + out.shed.total(), c.requests as u64);
    }

    #[test]
    fn dynamic_outperforms_fixed_one_at_equal_slo() {
        let d = run_sim(&cfg(BatchPolicy::Dynamic));
        let f = run_sim(&cfg(BatchPolicy::FixedOne));
        // At 4k rps two fixed-1 workers (500µs each ⇒ 4k rps capacity) sit at
        // the saturation knee; dynamic batches its way far below it.
        let goodput = |o: &SimOutcome| o.completed as f64 - o.violations as f64;
        assert!(
            goodput(&d) >= goodput(&f),
            "dynamic goodput {} vs fixed1 {}",
            goodput(&d),
            goodput(&f)
        );
        assert_eq!(d.violations, 0);
    }

    #[test]
    fn queue_full_backpressure_is_attributed_correctly() {
        let mut c = cfg(BatchPolicy::FixedMax);
        c.queue_cap = 8;
        c.max_batch = 8;
        c.arrival_rate_rps = 1_000_000.0;
        c.requests = 200;
        let out = run_sim(&c);
        assert!(
            out.shed.queue_full > 0,
            "tiny queue under burst must refuse"
        );
        assert_eq!(out.completed + out.shed.total(), c.requests as u64);
    }
}
