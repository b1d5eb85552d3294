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
//! One event core (`Core::run`) drives every twin: [`run_sim`] here, and
//! the re-optimization, ingress and fleet twins in [`crate::sim_reopt`],
//! [`crate::sim_ingress`] and [`crate::sim_fleet`]. The core owns the
//! seeded arrivals, each pool's queue and worker clocks, fire/wait/shed and
//! the shared outcome; a twin is a configuration plus `Hooks` for ground
//! truth, completion observation, routing and ingress buffering. Each loop
//! turn is one *tick*, at the earliest of:
//!
//! * a pool's service time: its earliest-free worker (ties: lowest index),
//!   never before its oldest queued ticket;
//! * for an empty pool, the next offered arrival or the hooks' next wake,
//!   whichever is first, once a worker is free;
//! * the hooks' next ordered event (a replica failure), with any arrival
//!   before it admitted at its own instant first;
//! * the next offered arrival, when no live pool is left to wake for it.
//!
//! An ordered event runs alone at its tick. At any other tick the hooks run
//! their lazy work first, then every arrival up to the tick is admitted in
//! order, then the earliest due pool decides once. Lazy work (a plan swap,
//! connection churn, an admission resume) happens at the tick, not at its
//! own instant, so a log line can carry an earlier timestamp than the one
//! before it.

use crate::request::ShedReason;
use crate::scheduler::{Action, BatchPolicy, Scheduler};
use std::collections::VecDeque;
use ucudnn::telemetry::StreamingHistogram;
use ucudnn::SloDecision;

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

/// What one simulated run produced; `S` holds the twin's own tallies.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome<S = ()> {
    /// Requests that completed within the simulation.
    pub completed: u64,
    /// Requests shed, by reason.
    pub shed: ShedCounts,
    /// Completed requests whose end-to-end latency (from the deadline
    /// anchor: arrival, or admission behind an ingress buffer) exceeded the
    /// SLO.
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
    /// The twin's own tallies.
    pub stats: S,
}

impl<S> SimOutcome<S> {
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
    let (pool, arrivals) = cfg.setup();
    Core::new(vec![pool], ()).run(&arrivals, &mut Plain)
}

impl SimConfig {
    /// The experiment's one pool and its offered arrivals.
    pub(crate) fn setup(&self) -> (Pool, Vec<f64>) {
        let sched = Scheduler::new(self.table.clone(), self.slo_us, self.max_batch, self.policy);
        let arrivals = poisson_arrivals(self.seed, self.requests, self.arrival_rate_rps);
        (Pool::new(sched, self.workers, self.queue_cap), arrivals)
    }
}

/// One pool of workers behind one scheduler: the whole server in the
/// single-pool twins, one replica in the fleet.
#[derive(Debug)]
pub(crate) struct Pool {
    pub(crate) sched: Scheduler,
    /// Queued tickets `(id, deadline anchor µs)`, oldest first.
    pub(crate) queue: VecDeque<(u64, f64)>,
    pub(crate) queue_cap: usize,
    /// When each worker next goes idle.
    pub(crate) free_at: Vec<f64>,
    /// Dead pools are neither served nor woken.
    pub(crate) alive: bool,
    /// Names the pool in its log lines (`" replica=<name>"`).
    pub(crate) tag: String,
    /// Generation of a hot-swappable plan: such a pool logs it, and its
    /// planned against actual execution time.
    pub(crate) version: Option<u64>,
}

impl Pool {
    pub(crate) fn new(sched: Scheduler, workers: usize, queue_cap: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        assert!(queue_cap >= 1, "need a non-empty queue");
        Self {
            sched,
            queue: VecDeque::new(),
            queue_cap,
            free_at: vec![0.0; workers],
            alive: true,
            tag: String::new(),
            version: None,
        }
    }

    /// The earliest-free worker and its clock (ties: lowest index).
    pub(crate) fn earliest_free(&self) -> (usize, f64) {
        let (w, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
            .expect("a pool has workers");
        (w, free)
    }
}

/// Where an offered arrival goes.
pub(crate) enum Admit {
    /// Join pool `i`'s queue, anchored at its arrival.
    Queue(usize),
    /// Refused on the named rung.
    Shed(ShedReason),
    /// Taken by the hooks (an ingress buffer), to be queued later.
    Held,
}

/// One fired batch, as the completion observer sees it.
pub(crate) struct Fired<'a> {
    pub(crate) pool: usize,
    pub(crate) now: f64,
    pub(crate) finish: f64,
    pub(crate) decision: &'a SloDecision,
    /// Per request, oldest first: did it finish past its deadline?
    pub(crate) violated: &'a [bool],
}

/// What one twin adds to the core, in four roles: ground-truth execution
/// time, a completion observer, a router and an ingress buffer. Every
/// method defaults to the plain single-pool server.
pub(crate) trait Hooks {
    /// The twin's own tallies, carried in [`SimOutcome::stats`].
    type Stats;

    /// Ground truth: how long the fired plan really runs.
    fn exec_us(&self, _now: f64, d: &SloDecision) -> f64 {
        d.exec_us
    }

    /// Completion observer: called after each fire line is logged.
    fn on_fire(&mut self, _core: &mut Core<Self::Stats>, _fired: &Fired) {}

    /// Completion observer: called after each shed line is logged, with the
    /// pool that shed (`None` when refused at admission).
    fn on_shed(&mut self, _core: &mut Core<Self::Stats>, _pool: Option<usize>, _t: f64) {}

    /// Lazy work due at the tick `now`, before its arrivals are admitted.
    fn on_tick(&mut self, _core: &mut Core<Self::Stats>, _now: f64) {}

    /// Router: where the arrival `id` offered at `at` goes.
    fn admit(&mut self, core: &mut Core<Self::Stats>, _id: u64, _at: f64) -> Admit {
        let pool = &core.pools[0];
        if pool.queue.len() >= pool.queue_cap {
            Admit::Shed(ShedReason::QueueFull)
        } else {
            Admit::Queue(0)
        }
    }

    /// Router: the next ordered event. Arrivals before it are admitted at
    /// their own instants; it runs alone at its tick, before an arrival or
    /// service at the same instant.
    fn next_event(&self) -> Option<f64> {
        None
    }

    /// Router: run the event [`Self::next_event`] announced.
    fn run_event(&mut self, _core: &mut Core<Self::Stats>) {}

    /// Ingress buffer: when an idle pool's earliest-free worker must wake
    /// for the hooks' lazy work. A worker woken with nothing to serve stays
    /// awake at the tick.
    fn wake_at(&self) -> Option<f64> {
        None
    }

    /// Ingress buffer: may the scheduler wait for the next offered arrival?
    fn lookahead(&self) -> bool {
        true
    }
}

/// The plain single-pool server of [`run_sim`].
struct Plain;

impl Hooks for Plain {
    type Stats = ();
}

/// The event core: the pools and the outcome being built.
pub(crate) struct Core<S> {
    pub(crate) pools: Vec<Pool>,
    pub(crate) out: SimOutcome<S>,
}

impl<S: Default> Core<S> {
    pub(crate) fn new(pools: Vec<Pool>, stats: S) -> Self {
        let out = SimOutcome {
            stats,
            ..SimOutcome::default()
        };
        Self { pools, out }
    }

    /// Count and log one shed; `pool` tags the line with the pool that shed.
    pub(crate) fn shed(&mut self, t: f64, pool: Option<usize>, id: u64, reason: ShedReason) {
        self.out.shed.bump(reason);
        let tag = pool.map_or("", |p| self.pools[p].tag.as_str());
        self.out.log.push(format!(
            "shed t={t:.3}{tag} id={id} reason={}",
            reason.name()
        ));
    }

    /// The earliest service opportunity `(time, pool, worker)` among live
    /// pools with queued tickets (ties: lowest pool index).
    fn due(&self) -> Option<(f64, usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (p, pool) in self.pools.iter().enumerate() {
            let Some(&(_, oldest)) = pool.queue.front().filter(|_| pool.alive) else {
                continue;
            };
            let (w, free) = pool.earliest_free();
            let t = free.max(oldest);
            if best.is_none_or(|(bt, _, _)| t < bt) {
                best = Some((t, p, w));
            }
        }
        best
    }

    /// Replay `arrivals` (ids are their indices) to completion.
    pub(crate) fn run<H: Hooks<Stats = S>>(
        mut self,
        arrivals: &[f64],
        hooks: &mut H,
    ) -> SimOutcome<S> {
        self.out.first_arrival_us = arrivals.first().copied().unwrap_or(0.0);
        let mut next = 0;
        loop {
            let offered = arrivals.get(next).copied().unwrap_or(f64::INFINITY);
            let event = hooks.next_event().unwrap_or(f64::INFINITY);
            let wake = hooks.wake_at().unwrap_or(f64::INFINITY);
            // An arrival ticks at its own instant when an ordered event is
            // pending or no live pool is left to wake for it.
            let mut now = if event.is_finite() || !self.pools.iter().any(|p| p.alive) {
                event.min(offered)
            } else {
                event
            };
            let mut woken = None;
            if let Some((t, _, _)) = self.due() {
                now = now.min(t);
            }
            for (p, pool) in self.pools.iter().enumerate() {
                if pool.alive && pool.queue.is_empty() {
                    let t = pool.earliest_free().1.max(offered.min(wake));
                    if t < now {
                        now = t;
                        woken = (wake < offered).then_some(p);
                    }
                }
            }
            if now.is_infinite() {
                break;
            }

            if event <= now {
                hooks.run_event(&mut self);
                continue;
            }
            hooks.on_tick(&mut self, now);
            while let Some(&at) = arrivals.get(next).filter(|&&at| at <= now) {
                let id = next as u64;
                next += 1;
                match hooks.admit(&mut self, id, at) {
                    Admit::Queue(p) => self.pools[p].queue.push_back((id, at)),
                    Admit::Shed(reason) => {
                        self.shed(at, None, id, reason);
                        hooks.on_shed(&mut self, None, at);
                    }
                    Admit::Held => {}
                }
            }

            match self.due() {
                Some((t, p, w)) if t <= now => {
                    let lookahead = arrivals.get(next).copied().filter(|_| hooks.lookahead());
                    self.decide(p, w, t, lookahead, hooks);
                }
                _ => {
                    if let Some(pool) = woken.map(|p| &mut self.pools[p]) {
                        if pool.queue.is_empty() {
                            let (w, _) = pool.earliest_free();
                            pool.free_at[w] = now;
                        }
                    }
                }
            }
        }
        self.out
    }

    /// Worker `w` of pool `p` decides at `now`: fire, wait or shed.
    fn decide<H: Hooks<Stats = S>>(
        &mut self,
        p: usize,
        w: usize,
        now: f64,
        next_arrival: Option<f64>,
        hooks: &mut H,
    ) {
        let pool = &self.pools[p];
        let times: Vec<f64> = pool.queue.iter().map(|&(_, at)| at).collect();
        match pool.sched.decide(now, &times, next_arrival) {
            Action::Fire(d) => {
                let exec = hooks.exec_us(now, &d);
                let finish = now + exec;
                let pool = &mut self.pools[p];
                pool.free_at[w] = finish;
                let slo = pool.sched.slo_us();
                let ids: Vec<(u64, f64)> = pool.queue.drain(..d.batch).collect();
                let mut violated = Vec::with_capacity(d.batch);
                for &(_, at) in &ids {
                    let latency = finish - at;
                    violated.push(latency > slo + 1e-6);
                    self.out.latencies.record(latency);
                }
                let out = &mut self.out;
                out.violations += violated.iter().filter(|&&v| v).count() as u64;
                out.completed += d.batch as u64;
                out.last_completion_us = out.last_completion_us.max(finish);
                out.batch_sizes.push(d.batch);
                let micros = d
                    .micros
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join("+");
                let (plan, timing) = match pool.version {
                    Some(v) => (
                        format!(" plan=v{v}"),
                        format!("planned={:.3} actual={exec:.3}", d.exec_us),
                    ),
                    None => (String::new(), format!("exec={:.3}", d.exec_us)),
                };
                out.log.push(format!(
                    "fire t={now:.3}{} worker={w}{plan} batch={} micros={micros} {timing} ids={}..{}",
                    pool.tag,
                    d.batch,
                    ids[0].0,
                    ids[d.batch - 1].0
                ));
                let fired = Fired {
                    pool: p,
                    now,
                    finish,
                    decision: &d,
                    violated: &violated,
                };
                hooks.on_fire(self, &fired);
            }
            Action::WaitUntil(t) => {
                // Admission guarantees the next arrival is strictly in the
                // future, so the clock always advances.
                debug_assert!(t > now, "wait must move the clock forward");
                self.pools[p].free_at[w] = t;
            }
            Action::ShedOldest => {
                let (id, _) = self.pools[p].queue.pop_front().expect("non-empty queue");
                self.shed(now, Some(p), id, ShedReason::DeadlineInfeasible);
                hooks.on_shed(self, Some(p), now);
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
