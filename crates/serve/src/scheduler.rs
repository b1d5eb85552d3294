//! The dynamic micro-batching scheduler: when a worker is free and requests
//! are queued, decide whether to fire now, wait for more arrivals, or shed.
//!
//! The decision core is [`ucudnn::plan_batch`] — the WR dynamic program
//! with the workspace limit swapped for the oldest request's remaining
//! deadline (DESIGN.md §12). This module adds the *wait* dimension: firing
//! a small batch now wastes the sub-linear batch economics, waiting too
//! long violates the SLO. The rule is throughput-greedy and deterministic:
//! wait for the next arrival exactly when the plan it would enable has
//! strictly higher throughput than the plan available now and the oldest
//! deadline still holds at that arrival time.

use ucudnn::{plan_batch, SloDecision};

/// Which batching policy a serving lane runs — the dynamic scheduler or
/// one of the two fixed baselines `serve_bench` compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// SLO-aware dynamic micro-batching (the tentpole).
    Dynamic,
    /// Fire every request alone, in arrival order (no coalescing).
    FixedOne,
    /// Wait for a full `max_batch` before firing (classic static batching).
    FixedMax,
}

impl BatchPolicy {
    /// Stable spelling for logs and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            BatchPolicy::Dynamic => "dynamic",
            BatchPolicy::FixedOne => "fixed1",
            BatchPolicy::FixedMax => "fixedmax",
        }
    }
}

/// What the scheduler tells the worker to do at one opportunity.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Pop the `decision.batch` oldest requests and execute them now.
    Fire(SloDecision),
    /// Do nothing until the given absolute time (the next arrival), then
    /// reconsider.
    WaitUntil(f64),
    /// The oldest request cannot meet its deadline under any plan: shed it
    /// and reconsider the rest.
    ShedOldest,
}

/// The scheduler: the latency table plus the policy knobs.
#[derive(Debug, Clone)]
pub struct Scheduler {
    table: Vec<(usize, f64)>,
    slo_us: f64,
    max_batch: usize,
    policy: BatchPolicy,
}

impl Scheduler {
    /// Build a scheduler over a `t*(m)` latency table (see
    /// [`ucudnn::forward_latency_table`]).
    pub fn new(
        table: Vec<(usize, f64)>,
        slo_us: f64,
        max_batch: usize,
        policy: BatchPolicy,
    ) -> Self {
        Self {
            table,
            slo_us,
            max_batch,
            policy,
        }
    }

    /// The per-request deadline budget.
    pub fn slo_us(&self) -> f64 {
        self.slo_us
    }

    /// The coalesced-batch cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The latency table.
    pub fn table(&self) -> &[(usize, f64)] {
        &self.table
    }

    /// Decide at absolute time `now_us` for a non-empty queue.
    ///
    /// `oldest_us` is the oldest queued request's arrival time (its deadline
    /// is `oldest_us + slo_us`, the earliest in the queue) and `queued` the
    /// queue length; `next_arrival` is the next future submission when
    /// known (the deterministic simulator knows it; the threaded server
    /// passes `None` and handles waiting with condvar timeouts).
    ///
    /// # Panics
    /// Panics when `queued` is 0 — an idle lane has nothing to decide.
    pub fn decide(
        &self,
        now_us: f64,
        oldest_us: f64,
        queued: usize,
        next_arrival: Option<f64>,
    ) -> Action {
        assert!(queued > 0, "decide() needs a non-empty queue");
        let deadline = oldest_us + self.slo_us;
        match self.policy {
            BatchPolicy::Dynamic => {
                let Some(cur) = plan_batch(&self.table, queued, self.max_batch, deadline - now_us)
                else {
                    return Action::ShedOldest;
                };
                if queued < self.max_batch {
                    if let Some(na) = next_arrival {
                        // Waiting is useful only if the plan enabled by one
                        // more request is strictly faster per request *and*
                        // still meets the oldest deadline when fired at the
                        // arrival instant.
                        let wait_start = now_us.max(na);
                        if let Some(fut) = plan_batch(
                            &self.table,
                            queued + 1,
                            self.max_batch,
                            deadline - wait_start,
                        ) {
                            if fut.throughput > cur.throughput {
                                return Action::WaitUntil(na);
                            }
                        }
                    }
                }
                Action::Fire(cur)
            }
            BatchPolicy::FixedOne => {
                let Some(d) = plan_batch(&self.table, 1, 1, deadline - now_us) else {
                    return Action::ShedOldest;
                };
                Action::Fire(d)
            }
            BatchPolicy::FixedMax => {
                if queued < self.max_batch {
                    if let Some(na) = next_arrival {
                        // Static batching waits for a full batch no matter
                        // what the deadline says — its signature failure.
                        return Action::WaitUntil(na);
                    }
                }
                let n = queued.min(self.max_batch);
                let Some(d) = plan_batch(&self.table, n, n, f64::MAX) else {
                    return Action::ShedOldest;
                };
                if d.exec_us > deadline - now_us {
                    return Action::ShedOldest;
                }
                Action::Fire(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(policy: BatchPolicy) -> Scheduler {
        // t(m) = 12 + m: sub-linear per sample.
        let table = vec![1usize, 2, 4, 8]
            .into_iter()
            .map(|m| (m, 12.0 + m as f64))
            .collect();
        Scheduler::new(table, 100.0, 8, policy)
    }

    #[test]
    fn dynamic_fires_a_full_queue_immediately() {
        let s = sched(BatchPolicy::Dynamic);
        match s.decide(10.0, 0.0, 8, Some(11.0)) {
            Action::Fire(d) => assert_eq!(d.batch, 8),
            a => panic!("expected Fire, got {a:?}"),
        }
    }

    #[test]
    fn dynamic_waits_for_a_better_plan_when_slack_allows() {
        let s = sched(BatchPolicy::Dynamic);
        // One queued request with lots of slack; another arrives soon:
        // coalescing two (t=14, 7/req) beats firing one (t=13).
        match s.decide(1.0, 0.0, 1, Some(2.0)) {
            Action::WaitUntil(t) => assert_eq!(t, 2.0),
            a => panic!("expected WaitUntil, got {a:?}"),
        }
    }

    #[test]
    fn dynamic_fires_rather_than_miss_the_deadline() {
        let s = sched(BatchPolicy::Dynamic);
        // Slack is 99−85=14 at the arrival instant: enough for t(2)=14 —
        // but at 95 slack is 4 < t(1): must fire now, not wait.
        match s.decide(86.0, 0.0, 1, Some(95.0)) {
            Action::Fire(d) => assert_eq!(d.batch, 1),
            a => panic!("expected Fire, got {a:?}"),
        }
    }

    #[test]
    fn dynamic_sheds_the_hopeless_oldest() {
        let s = sched(BatchPolicy::Dynamic);
        // Deadline was 100; at t=99 even t(1)=13 cannot fit.
        assert_eq!(s.decide(99.0, 0.0, 1, None), Action::ShedOldest);
    }

    #[test]
    fn fixed_one_never_coalesces() {
        let s = sched(BatchPolicy::FixedOne);
        match s.decide(0.0, 0.0, 8, Some(1.0)) {
            Action::Fire(d) => assert_eq!(d.batch, 1),
            a => panic!("expected Fire, got {a:?}"),
        }
    }

    #[test]
    fn fixed_max_waits_even_when_waiting_is_fatal() {
        let s = sched(BatchPolicy::FixedMax);
        // 7 queued, deadline imminent — static batching still waits.
        match s.decide(95.0, 0.0, 7, Some(200.0)) {
            Action::WaitUntil(t) => assert_eq!(t, 200.0),
            a => panic!("expected WaitUntil, got {a:?}"),
        }
        // And once full, the expired oldest is shed.
        assert_eq!(s.decide(95.0, 0.0, 8, None), Action::ShedOldest);
    }
}
