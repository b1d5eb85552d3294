//! SLO error-budget burn-rate monitoring (multi-window).
//!
//! The serving SLO promises that at most a `budget` fraction of admitted
//! requests go *bad* — shed by the ladder or completed past the deadline.
//! The burn rate over a window is
//!
//! ```text
//! burn(window) = (bad events in window / events in window) / budget
//! ```
//!
//! `burn == 1` means the budget is being consumed exactly as fast as it
//! accrues; `burn == 10` means a month's budget burns in three days. A
//! single window forces a bad trade: short windows page on blips, long
//! windows page an hour late. The standard fix (Google SRE workbook ch. 5)
//! is *multi-window* alerting, and [`BurnMonitor`] implements its
//! deterministic core: an alert fires only when **both** the fast window
//! (is it happening *now*?) and the slow window (is it *sustained*?) burn
//! at or above the threshold, and it re-arms only after the slow window
//! cools back below it (hysteresis — no alert storms while one incident
//! drains).
//!
//! The monitor is pure bookkeeping over caller-supplied timestamps: the
//! threaded server feeds it wall-clock micros, the virtual-clock sim feeds
//! it virtual time, and the same event sequence produces the same alert at
//! the same (byte-reproducible) timestamp either way.

use std::collections::VecDeque;

/// Default error budget: 1% of admitted requests may go bad.
pub const DEFAULT_BUDGET: f64 = 0.01;
/// Default fast window, microseconds (1 s): "is it happening now?".
pub const DEFAULT_FAST_US: f64 = 1_000_000.0;
/// Default slow window, microseconds (10 s): "is it sustained?".
pub const DEFAULT_SLOW_US: f64 = 10_000_000.0;
/// Alert when both windows burn at ≥ this multiple of the budget rate.
pub const DEFAULT_THRESHOLD: f64 = 1.0;

/// Burn-monitor configuration. The live server runs the defaults; the
/// virtual-clock sims pass their own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnConfig {
    /// Fraction of admitted requests allowed to go bad, in `(0, 1]`.
    pub budget: f64,
    /// Fast window length, microseconds.
    pub fast_us: f64,
    /// Slow window length, microseconds (must exceed `fast_us`).
    pub slow_us: f64,
    /// Burn multiple at which the alert fires.
    pub threshold: f64,
}

impl Default for BurnConfig {
    fn default() -> Self {
        Self {
            budget: DEFAULT_BUDGET,
            fast_us: DEFAULT_FAST_US,
            slow_us: DEFAULT_SLOW_US,
            threshold: DEFAULT_THRESHOLD,
        }
    }
}

/// An inactive→active alert transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnAlert {
    /// Timestamp of the observation that tripped the alert, microseconds.
    pub at_us: f64,
    /// Fast-window burn at that instant.
    pub fast_burn: f64,
    /// Slow-window burn at that instant.
    pub slow_burn: f64,
}

/// Deterministic multi-window burn-rate monitor. Feed it every outcome —
/// `observe(ts, bad)` for each shed and each completion — and it returns
/// `Some(BurnAlert)` exactly at inactive→active transitions.
#[derive(Debug)]
pub struct BurnMonitor {
    cfg: BurnConfig,
    /// Outcome events inside the slow window, oldest first: `(ts, bad)`.
    events: VecDeque<(f64, bool)>,
    slow_total: u64,
    slow_bad: u64,
    /// High-water timestamp: windows are anchored here, so slightly
    /// out-of-order completion timestamps from concurrent workers cannot
    /// move a window backwards.
    max_ts: f64,
    active: bool,
    alerts_fired: u64,
    first_alert_us: Option<f64>,
}

impl BurnMonitor {
    /// A monitor with no history.
    pub fn new(cfg: BurnConfig) -> Self {
        Self {
            cfg,
            events: VecDeque::new(),
            slow_total: 0,
            slow_bad: 0,
            max_ts: f64::NEG_INFINITY,
            active: false,
            alerts_fired: 0,
            first_alert_us: None,
        }
    }

    /// The configuration this monitor runs under.
    pub fn config(&self) -> &BurnConfig {
        &self.cfg
    }

    /// Record one outcome at `now_us` (`bad` = shed or SLO violation).
    /// Returns the alert if this observation flipped the monitor from
    /// inactive to active; while already active, further bad events return
    /// `None` (one alert per incident). The monitor deactivates — re-arms —
    /// once the slow-window burn falls back below the threshold.
    pub fn observe(&mut self, now_us: f64, bad: bool) -> Option<BurnAlert> {
        self.max_ts = self.max_ts.max(now_us);
        self.events.push_back((now_us, bad));
        self.slow_total += 1;
        if bad {
            self.slow_bad += 1;
        }
        let slow_cutoff = self.max_ts - self.cfg.slow_us;
        while let Some(&(ts, was_bad)) = self.events.front() {
            if ts >= slow_cutoff {
                break;
            }
            self.events.pop_front();
            self.slow_total -= 1;
            if was_bad {
                self.slow_bad -= 1;
            }
        }
        let (fast_burn, slow_burn) = self.burn_rates();
        if !self.active {
            if fast_burn >= self.cfg.threshold && slow_burn >= self.cfg.threshold {
                self.active = true;
                self.alerts_fired += 1;
                self.first_alert_us.get_or_insert(now_us);
                return Some(BurnAlert {
                    at_us: now_us,
                    fast_burn,
                    slow_burn,
                });
            }
        } else if slow_burn < self.cfg.threshold {
            self.active = false;
        }
        None
    }

    /// Current `(fast, slow)` burn rates, anchored at the latest observed
    /// timestamp. An empty window burns 0 (no data is not an outage).
    pub fn burn_rates(&self) -> (f64, f64) {
        let fast_cutoff = self.max_ts - self.cfg.fast_us;
        let mut fast_total = 0u64;
        let mut fast_bad = 0u64;
        for &(ts, bad) in self.events.iter().rev() {
            if ts < fast_cutoff {
                break;
            }
            fast_total += 1;
            if bad {
                fast_bad += 1;
            }
        }
        let burn = |bad: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / self.cfg.budget
            }
        };
        (
            burn(fast_bad, fast_total),
            burn(self.slow_bad, self.slow_total),
        )
    }

    /// Whether an alert is currently active.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Inactive→active transitions so far.
    pub fn alerts_fired(&self) -> u64 {
        self.alerts_fired
    }

    /// Timestamp of the first alert, if any ever fired.
    pub fn first_alert_us(&self) -> Option<f64> {
        self.first_alert_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BurnConfig {
        BurnConfig {
            budget: 0.01,
            fast_us: 1_000.0,
            slow_us: 10_000.0,
            threshold: 1.0,
        }
    }

    #[test]
    fn a_clean_run_never_alerts() {
        let mut m = BurnMonitor::new(cfg());
        for i in 0..10_000 {
            assert_eq!(m.observe(i as f64 * 10.0, false), None);
        }
        assert!(!m.active());
        assert_eq!(m.alerts_fired(), 0);
        assert_eq!(m.first_alert_us(), None);
        assert_eq!(m.burn_rates(), (0.0, 0.0));
    }

    #[test]
    fn a_sustained_burn_fires_exactly_once_per_incident() {
        let mut m = BurnMonitor::new(cfg());
        // Warm up clean, then turn every outcome bad.
        for i in 0..1_000 {
            m.observe(i as f64 * 10.0, false);
        }
        let mut alerts = Vec::new();
        for i in 1_000..2_000 {
            if let Some(a) = m.observe(i as f64 * 10.0, true) {
                alerts.push(a);
            }
        }
        assert_eq!(alerts.len(), 1, "one alert per incident, not a storm");
        let a = alerts[0];
        assert!(a.fast_burn >= 1.0 && a.slow_burn >= 1.0);
        assert_eq!(m.first_alert_us(), Some(a.at_us));
        assert!(m.active());
    }

    #[test]
    fn the_alert_timestamp_is_deterministic() {
        let run = || {
            let mut m = BurnMonitor::new(cfg());
            let mut first = None;
            for i in 0..5_000 {
                let bad = i >= 2_500;
                if let Some(a) = m.observe(i as f64 * 7.0, bad) {
                    first.get_or_insert(a.at_us);
                }
            }
            first
        };
        let a = run();
        assert!(a.is_some());
        assert_eq!(a, run(), "same feed, same alert timestamp, bytewise");
    }

    #[test]
    fn the_monitor_rearms_after_the_slow_window_cools() {
        let mut m = BurnMonitor::new(cfg());
        let mut t = 0.0;
        let mut feed = |m: &mut BurnMonitor, n: usize, bad: bool| {
            let mut fired = 0;
            for _ in 0..n {
                t += 10.0;
                if m.observe(t, bad).is_some() {
                    fired += 1;
                }
            }
            fired
        };
        assert_eq!(feed(&mut m, 200, true), 1, "first incident");
        // A long clean stretch flushes the slow window and deactivates.
        assert_eq!(feed(&mut m, 2_000, false), 0);
        assert!(!m.active(), "slow window cooled below threshold");
        // A second incident fires a second alert.
        assert_eq!(feed(&mut m, 200, true), 1, "re-armed");
        assert_eq!(m.alerts_fired(), 2);
    }

    #[test]
    fn a_blip_below_the_fast_window_threshold_does_not_page() {
        // 1 bad in 400 events inside the fast window: bad fraction 0.25%,
        // burn 0.25 < 1 under a 1% budget.
        let mut m = BurnMonitor::new(cfg());
        for i in 0..400 {
            let bad = i == 200;
            assert_eq!(m.observe(i as f64 * 2.0, bad), None);
        }
        assert_eq!(m.alerts_fired(), 0);
    }

    #[test]
    fn out_of_order_timestamps_cannot_rewind_the_window() {
        let mut m = BurnMonitor::new(cfg());
        m.observe(100_000.0, false);
        // A worker reporting an earlier completion must not shrink max_ts.
        m.observe(99_990.0, false);
        assert_eq!(m.max_ts, 100_000.0);
        assert_eq!(m.events.len(), 2);
    }
}
