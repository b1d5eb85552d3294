//! Deterministic discrete-event simulation of the ingress reactor.
//!
//! The real reactor ([`crate::reactor`]) multiplexes live sockets, so its
//! timings depend on the host kernel; this module replays the reactor's
//! *policies* — the connection cap at the listener, admission backpressure
//! parking reads while kernel buffers absorb the burst, half-drain resume
//! hysteresis — against the same virtual clock and seeded LCG the serving
//! sim uses. The `ingress` section of `BENCH_serve.json` comes from here:
//! same seed, byte-identical log, every machine.
//!
//! Model: a fan-in of many connections offering one pooled Poisson request
//! stream, plus an independent Poisson connection-churn stream (short-lived
//! connections opening against `max_conns` and closing after a hold). When
//! the admission queue is full, offered requests are *buffered* (the
//! kernel-socket-buffer stand-in, capacity `kernel_buf`) instead of shed;
//! they admit in arrival order once the queue drains to the resume
//! threshold. Only buffer overflow sheds — exactly the reactor's contract
//! that backpressure engages before the shed ladder.
//!
//! Both policies are lazy hooks of the event core ([`crate::sim`]): at each
//! tick, connection churn up to the tick, then a resume, then the tick's
//! offered requests. The log is therefore not time-sorted — a `conn_open`
//! drained at a late tick precedes a `pause` stamped with an earlier
//! arrival — and must stay so for committed logs to replay byte for byte.

use crate::request::ShedReason;
use crate::sim::{poisson_arrivals, Admit, Core, Hooks, SimConfig, SimOutcome};
use std::collections::VecDeque;

/// One simulated ingress experiment.
#[derive(Debug, Clone)]
pub struct IngressSimConfig {
    /// The serving experiment behind the ingress: its offered load is pooled
    /// across all active connections, its deadlines run from admission, and
    /// its seed also derives the churn stream's.
    pub sim: SimConfig,
    /// Long-held idle connections (the C10k floor under the fan-in).
    pub idle_conns: usize,
    /// Short-lived churn connections to open over the run.
    pub churn_cycles: usize,
    /// Churn connection-open rate, connections/s.
    pub churn_rate_cps: f64,
    /// How long each churn connection stays open, microseconds.
    pub churn_hold_us: f64,
    /// Listener connection cap (`IngressOptions::max_conns`'s stand-in).
    pub max_conns: usize,
    /// Kernel-buffer stand-in capacity: offered requests parked during an
    /// admission pause; overflow sheds as `queue_full`.
    pub kernel_buf: usize,
}

/// What one simulated ingress run produced. Latencies and violations run
/// from admission (the deadline anchor), not from the offer.
pub type IngressOutcome = SimOutcome<IngressStats>;

/// The ingress experiment's own tallies.
#[derive(Debug, Clone, Default)]
pub struct IngressStats {
    /// Admission-pause transitions (read interest parked, queue full).
    pub admission_pauses: u64,
    /// Peak simultaneous kernel-buffered requests.
    pub buffered_peak: usize,
    /// Longest offered-to-admitted delay a buffered request saw, µs.
    pub max_buffer_wait_us: f64,
    /// Churn connections accepted.
    pub conns_opened: u64,
    /// Churn connections refused by the connection cap.
    pub conns_rejected: u64,
    /// Peak simultaneous connections (idle + live churn).
    pub peak_conns: usize,
}

/// Run one ingress experiment.
///
/// # Panics
/// Panics on a degenerate config (zero workers, queue, or connections).
pub fn run_ingress_sim(cfg: &IngressSimConfig) -> IngressOutcome {
    assert!(cfg.max_conns >= 1, "need room for at least one connection");
    let (pool, arrivals) = cfg.sim.setup();
    let churn_opens = if cfg.churn_cycles > 0 {
        poisson_arrivals(
            cfg.sim.seed ^ 0x9e37_79b9_7f4a_7c15,
            cfg.churn_cycles,
            cfg.churn_rate_cps,
        )
    } else {
        Vec::new()
    };
    let mut hooks = Ingress {
        cfg,
        churn_opens,
        next_open: 0,
        closes: VecDeque::new(),
        conns: cfg.idle_conns,
        buffer: VecDeque::new(),
        paused: false,
    };
    let stats = IngressStats {
        peak_conns: cfg.idle_conns.min(cfg.max_conns),
        ..IngressStats::default()
    };
    Core::new(vec![pool], stats).run(&arrivals, &mut hooks)
}

/// The ingress twin's hooks: the kernel-buffer stand-in behind admission
/// pauses, and the connection ledger under churn.
struct Ingress<'a> {
    cfg: &'a IngressSimConfig,
    churn_opens: Vec<f64>,
    next_open: usize,
    /// Accepted opens close after a fixed hold, so closes stay sorted.
    closes: VecDeque<f64>,
    conns: usize,
    /// `(id, offered_us)` parked in the kernel-buffer stand-in.
    buffer: VecDeque<(u64, f64)>,
    paused: bool,
}

impl Hooks for Ingress<'_> {
    type Stats = IngressStats;

    /// Held requests need a worker at once; otherwise the next connection
    /// event wakes an idle pool.
    fn wake_at(&self) -> Option<f64> {
        if !self.buffer.is_empty() {
            return Some(f64::NEG_INFINITY);
        }
        let open = self.churn_opens.get(self.next_open);
        open.into_iter()
            .chain(self.closes.front())
            .copied()
            .reduce(f64::min)
    }

    /// Under a pause the next admission instant is unknown to the
    /// scheduler — no arrival oracle, exactly like the live server.
    fn lookahead(&self) -> bool {
        !self.paused
    }

    fn on_tick(&mut self, core: &mut Core<IngressStats>, now: f64) {
        let stats = &mut core.out.stats;
        // Connection churn up to `now`, opens and closes in time order.
        loop {
            let open = self.churn_opens.get(self.next_open).copied();
            let close = self.closes.front().copied();
            match (open, close) {
                (Some(t), c) if t <= now && c.is_none_or(|c| t <= c) => {
                    self.next_open += 1;
                    if self.conns >= self.cfg.max_conns {
                        stats.conns_rejected += 1;
                        core.out
                            .log
                            .push(format!("conn_reject t={t:.3} n={}", self.conns));
                    } else {
                        self.conns += 1;
                        stats.conns_opened += 1;
                        stats.peak_conns = stats.peak_conns.max(self.conns);
                        self.closes.push_back(t + self.cfg.churn_hold_us);
                        core.out
                            .log
                            .push(format!("conn_open t={t:.3} n={}", self.conns));
                    }
                }
                (_, Some(t)) if t <= now => {
                    self.closes.pop_front();
                    self.conns -= 1;
                    core.out
                        .log
                        .push(format!("conn_close t={t:.3} n={}", self.conns));
                }
                _ => break,
            }
        }

        // Resume: the queue drained to the hysteresis floor, so parked
        // requests admit in arrival order (possibly re-pausing if the
        // backlog alone refills the queue).
        let queue = &mut core.pools[0].queue;
        if !self.paused || queue.len() > self.cfg.sim.queue_cap / 2 {
            return;
        }
        self.paused = false;
        core.out
            .log
            .push(format!("resume t={now:.3} buffered={}", self.buffer.len()));
        while let Some(&(id, offered)) = self.buffer.front() {
            if queue.len() >= self.cfg.sim.queue_cap {
                self.paused = true;
                stats.admission_pauses += 1;
                core.out
                    .log
                    .push(format!("pause t={now:.3} depth={}", queue.len()));
                break;
            }
            self.buffer.pop_front();
            let admitted = now.max(offered);
            stats.max_buffer_wait_us = stats.max_buffer_wait_us.max(admitted - offered);
            queue.push_back((id, admitted));
        }
    }

    /// Offered requests flow into the queue, or into the buffer while
    /// admission is paused; only buffer overflow sheds.
    fn admit(&mut self, core: &mut Core<IngressStats>, id: u64, t: f64) -> Admit {
        let depth = core.pools[0].queue.len();
        if !self.paused && depth >= self.cfg.sim.queue_cap {
            self.paused = true;
            core.out.stats.admission_pauses += 1;
            core.out.log.push(format!("pause t={t:.3} depth={depth}"));
        }
        if !self.paused {
            Admit::Queue(0)
        } else if self.buffer.len() >= self.cfg.kernel_buf {
            // The kernel-buffer stand-in overflowed: this is the point
            // where real backpressure turns into a shed.
            Admit::Shed(ShedReason::QueueFull)
        } else {
            self.buffer.push_back((id, t));
            let peak = &mut core.out.stats.buffered_peak;
            *peak = (*peak).max(self.buffer.len());
            Admit::Held
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<(usize, f64)> {
        [1usize, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|m| (m, 480.0 + 20.0 * m as f64))
            .collect()
    }

    fn cfg() -> IngressSimConfig {
        IngressSimConfig {
            sim: SimConfig {
                seed: 2018,
                slo_us: 20_000.0,
                queue_cap: 256,
                workers: 2,
                max_batch: 32,
                arrival_rate_rps: 20_000.0,
                requests: 2_000,
                policy: crate::scheduler::BatchPolicy::Dynamic,
                table: table(),
            },
            idle_conns: 10_000,
            churn_cycles: 200,
            churn_rate_cps: 2_000.0,
            churn_hold_us: 5_000.0,
            max_conns: 16_384,
            kernel_buf: 4_096,
        }
    }

    #[test]
    fn nominal_load_never_pauses_or_sheds() {
        let c = cfg();
        let out = run_ingress_sim(&c);
        assert_eq!(out.stats.admission_pauses, 0, "nominal load must not pause");
        assert_eq!(out.shed.total(), 0, "nominal load must not shed");
        assert_eq!(out.violations, 0);
        assert_eq!(out.completed, c.sim.requests as u64);
        assert!(out.mean_batch() > 1.0, "20k rps must coalesce");
    }

    #[test]
    fn bursts_pause_and_recover_instead_of_shedding() {
        let mut c = cfg();
        c.sim.arrival_rate_rps = 400_000.0;
        c.sim.queue_cap = 32;
        c.sim.requests = 4_000;
        let out = run_ingress_sim(&c);
        assert!(
            out.stats.admission_pauses > 0,
            "overload must park read interest"
        );
        assert!(out.stats.buffered_peak > 0);
        assert!(out.stats.max_buffer_wait_us > 0.0);
        // Everything offered is accounted for: completed, shed at a rung,
        // but nothing lost.
        assert_eq!(
            out.completed + out.shed.total(),
            c.sim.requests as u64,
            "every offered request is accounted for"
        );
        assert_eq!(
            out.violations, 0,
            "admitted requests still meet the SLO — pauses delay admission, \
             they never break the deadline contract"
        );
    }

    #[test]
    fn a_tiny_kernel_buffer_overflows_into_queue_full() {
        let mut c = cfg();
        c.sim.arrival_rate_rps = 400_000.0;
        c.sim.queue_cap = 16;
        c.kernel_buf = 8;
        c.sim.requests = 2_000;
        let out = run_ingress_sim(&c);
        assert!(out.shed.queue_full > 0, "overflow must shed");
        assert_eq!(out.completed + out.shed.total(), c.sim.requests as u64);
    }

    #[test]
    fn the_connection_cap_rejects_churn_beyond_it() {
        let mut c = cfg();
        c.idle_conns = 100;
        c.max_conns = 110;
        c.churn_cycles = 500;
        c.churn_rate_cps = 100_000.0; // all opens land inside one hold window
        let out = run_ingress_sim(&c);
        assert!(out.stats.conns_rejected > 0, "cap must refuse");
        assert!(out.stats.peak_conns <= c.max_conns, "cap is a hard ceiling");
        assert_eq!(
            out.stats.conns_opened + out.stats.conns_rejected,
            c.churn_cycles as u64,
            "every churn open is accounted for"
        );
    }

    #[test]
    fn churn_rides_along_without_perturbing_the_serving_outcome() {
        let mut with = cfg();
        with.churn_cycles = 500;
        let mut without = cfg();
        without.churn_cycles = 0;
        let a = run_ingress_sim(&with);
        let b = run_ingress_sim(&without);
        // The connection ledger is independent of the batching plane.
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.batch_sizes, b.batch_sizes);
        assert!(a.stats.conns_opened > 0);
        assert_eq!(b.stats.conns_opened, 0);
    }
}
