//! Online re-optimization: drift detection over windowed latency
//! percentiles.
//!
//! The WR planner trusts the latency table `t*(m)` it was given at startup.
//! Devices drift — thermal throttling, contention, MPS neighbors — and a
//! stale table makes the scheduler either shed requests it could serve or
//! promise deadlines it can no longer keep. The [`DriftDetector`] watches
//! every executed micro-batch, compares the *windowed* p50 of observed
//! execution times per micro-batch size against the table's expectation
//! (windowed, not cumulative — [`StreamingHistogram::take_window`] exists
//! precisely so late drift is not averaged away; it resets in place, so a
//! closed window allocates nothing), and flags a size stale
//! when the deviation exceeds a configurable ratio for K consecutive
//! windows. One flagged size is enough to re-benchmark: the whole table
//! came from the same device, so one drifted kernel means the rest are
//! suspect too.

use std::collections::BTreeMap;
use ucudnn::telemetry::StreamingHistogram;
use ucudnn::EnvError;

/// Configuration of the re-optimization loop, read from `UCUDNN_REOPT_*`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReoptConfig {
    /// Master switch (`UCUDNN_REOPT`): when false the detector never fires
    /// and no re-benchmark worker is spawned.
    pub enabled: bool,
    /// Samples per drift window (`UCUDNN_REOPT_WINDOW`): the detector
    /// closes a window and judges its p50 every this many observations of a
    /// micro-batch size.
    pub window_samples: usize,
    /// Deviation ratio that breaches a window (`UCUDNN_REOPT_RATIO`): a
    /// window is a breach when observed p50 / expected falls outside
    /// `[1/ratio, ratio]`.
    pub p50_ratio: f64,
    /// Consecutive breached windows required to flag staleness
    /// (`UCUDNN_REOPT_CONSECUTIVE`) — one window can be noise; K in a row
    /// is drift.
    pub consecutive: u32,
}

impl Default for ReoptConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            window_samples: 8,
            p50_ratio: 1.5,
            consecutive: 2,
        }
    }
}

impl ReoptConfig {
    /// Build a config from a key-lookup function (testable, like
    /// `ServeOptions::from_lookup`). Unset keys keep their defaults;
    /// malformed values are errors, not silent fallbacks.
    ///
    /// # Errors
    /// [`EnvError`] naming the malformed variable.
    pub fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> core::result::Result<Self, EnvError> {
        let mut cfg = ReoptConfig::default();
        if let Some(v) = lookup("UCUDNN_REOPT") {
            cfg.enabled = match v.trim() {
                "1" | "true" => true,
                "0" | "false" => false,
                _ => {
                    return Err(EnvError {
                        variable: "UCUDNN_REOPT",
                        value: v,
                    })
                }
            };
        }
        if let Some(v) = lookup("UCUDNN_REOPT_WINDOW") {
            cfg.window_samples =
                v.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(EnvError {
                        variable: "UCUDNN_REOPT_WINDOW",
                        value: v,
                    })?;
        }
        if let Some(v) = lookup("UCUDNN_REOPT_RATIO") {
            cfg.p50_ratio = v
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r > 1.0)
                .ok_or(EnvError {
                    variable: "UCUDNN_REOPT_RATIO",
                    value: v,
                })?;
        }
        if let Some(v) = lookup("UCUDNN_REOPT_CONSECUTIVE") {
            cfg.consecutive = v
                .trim()
                .parse::<u32>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or(EnvError {
                    variable: "UCUDNN_REOPT_CONSECUTIVE",
                    value: v,
                })?;
        }
        Ok(cfg)
    }

    /// Build a config from the process environment.
    ///
    /// # Errors
    /// [`EnvError`] naming the malformed variable.
    pub fn from_env() -> core::result::Result<Self, EnvError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }
}

/// What the detector concluded when it flagged a micro-batch size stale.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// The flagged micro-batch size.
    pub micro: usize,
    /// Windowed p50 of observed execution times, microseconds.
    pub observed_p50_us: f64,
    /// The plan table's expectation `t*(micro)`, microseconds.
    pub expected_us: f64,
    /// `observed_p50_us / expected_us`.
    pub ratio: f64,
}

/// Per-micro-batch-size window state.
#[derive(Debug)]
struct MicroWindow {
    hist: StreamingHistogram,
    /// Consecutive breached windows so far.
    breaches: u32,
}

/// Windowed-percentile drift detector. Single-owner (`&mut self`): the
/// serve path funnels per-micro observations through whatever lock already
/// guards its metrics, and the sim owns one directly.
#[derive(Debug)]
pub struct DriftDetector {
    cfg: ReoptConfig,
    windows: BTreeMap<usize, MicroWindow>,
}

impl DriftDetector {
    /// A detector with no observations.
    pub fn new(cfg: ReoptConfig) -> Self {
        Self {
            cfg,
            windows: BTreeMap::new(),
        }
    }

    /// The configuration the detector judges by.
    pub fn config(&self) -> &ReoptConfig {
        &self.cfg
    }

    /// Record one executed micro-batch of size `micro`: `observed_us` is
    /// what it actually took, `expected_us` the current plan table's
    /// `t*(micro)`. Closes a window every `window_samples` observations of
    /// this size and returns a [`DriftReport`] when the windowed p50 has
    /// deviated beyond the ratio for `consecutive` windows.
    ///
    /// Disabled detectors ([`ReoptConfig::enabled`] false) observe nothing.
    pub fn observe(
        &mut self,
        micro: usize,
        observed_us: f64,
        expected_us: f64,
    ) -> Option<DriftReport> {
        if !self.cfg.enabled || !expected_us.is_finite() || expected_us <= 0.0 {
            return None;
        }
        let w = self.windows.entry(micro).or_insert_with(|| MicroWindow {
            hist: StreamingHistogram::new(),
            breaches: 0,
        });
        w.hist.record(observed_us);
        if w.hist.window_count() < self.cfg.window_samples as u64 {
            return None;
        }
        let p50 = w.hist.take_window().p50_us?;
        let ratio = p50 / expected_us;
        let breach = ratio > self.cfg.p50_ratio || ratio < 1.0 / self.cfg.p50_ratio;
        if !breach {
            w.breaches = 0;
            return None;
        }
        w.breaches += 1;
        if w.breaches < self.cfg.consecutive {
            return None;
        }
        w.breaches = 0;
        Some(DriftReport {
            micro,
            observed_p50_us: p50,
            expected_us,
            ratio,
        })
    }

    /// Forget all window state — called after a plan swap, so the detector
    /// judges the *new* table against fresh observations instead of mixing
    /// pre-swap samples into post-swap windows.
    pub fn reset(&mut self) {
        self.windows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: usize, ratio: f64, consecutive: u32) -> ReoptConfig {
        ReoptConfig {
            enabled: true,
            window_samples: window,
            p50_ratio: ratio,
            consecutive,
        }
    }

    #[test]
    fn default_config_and_env_parsing() {
        let d = ReoptConfig::default();
        assert!(d.enabled);
        assert_eq!((d.window_samples, d.p50_ratio, d.consecutive), (8, 1.5, 2));
        assert_eq!(ReoptConfig::from_lookup(|_| None).unwrap(), d);
        let c = ReoptConfig::from_lookup(|k| {
            Some(
                match k {
                    "UCUDNN_REOPT" => "0",
                    "UCUDNN_REOPT_WINDOW" => "16",
                    "UCUDNN_REOPT_RATIO" => "2.5",
                    "UCUDNN_REOPT_CONSECUTIVE" => "3",
                    _ => return None,
                }
                .to_string(),
            )
        })
        .unwrap();
        assert!(!c.enabled);
        assert_eq!((c.window_samples, c.p50_ratio, c.consecutive), (16, 2.5, 3));
    }

    #[test]
    fn malformed_reopt_vars_error_loudly() {
        for (key, bad) in [
            ("UCUDNN_REOPT", "maybe"),
            ("UCUDNN_REOPT_WINDOW", "0"),
            ("UCUDNN_REOPT_RATIO", "1.0"), // must be > 1
            ("UCUDNN_REOPT_RATIO", "inf"),
            ("UCUDNN_REOPT_CONSECUTIVE", "0"),
        ] {
            let e = ReoptConfig::from_lookup(|k| (k == key).then(|| bad.to_string())).unwrap_err();
            assert_eq!(e.variable, key, "{key}={bad}");
        }
    }

    #[test]
    fn detector_fires_after_k_consecutive_breached_windows() {
        let mut d = DriftDetector::new(cfg(4, 1.5, 2));
        // First window: 2x slow — breach #1, but not yet K.
        for _ in 0..4 {
            assert_eq!(d.observe(8, 200.0, 100.0), None);
        }
        // Second window: first 3 samples close no window...
        for _ in 0..3 {
            assert_eq!(d.observe(8, 200.0, 100.0), None);
        }
        // ...the 4th closes breach #2 and fires.
        let report = d.observe(8, 200.0, 100.0).expect("drift flagged");
        assert_eq!(report.micro, 8);
        assert_eq!(report.expected_us, 100.0);
        assert!((report.ratio - 2.0).abs() < 0.1, "ratio {}", report.ratio);
    }

    #[test]
    fn a_clean_window_resets_the_breach_streak() {
        let mut d = DriftDetector::new(cfg(2, 1.5, 2));
        // Breach window...
        d.observe(4, 300.0, 100.0);
        assert_eq!(d.observe(4, 300.0, 100.0), None);
        // ...then a clean one: streak back to zero...
        d.observe(4, 100.0, 100.0);
        assert_eq!(d.observe(4, 100.0, 100.0), None);
        // ...so the next breach window alone still does not fire.
        d.observe(4, 300.0, 100.0);
        assert_eq!(d.observe(4, 300.0, 100.0), None);
        // A second consecutive breach window does.
        d.observe(4, 300.0, 100.0);
        assert!(d.observe(4, 300.0, 100.0).is_some());
    }

    #[test]
    fn on_table_latencies_never_fire() {
        let mut d = DriftDetector::new(cfg(4, 1.5, 1));
        // Small wobble (±20%) stays inside the 1.5 ratio band.
        for i in 0..1000u64 {
            let wobble = 1.0 + 0.2 * if i % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(
                d.observe(16, 100.0 * wobble, 100.0),
                None,
                "false positive at sample {i}"
            );
        }
    }

    #[test]
    fn speedups_are_drift_too() {
        // A device that got *faster* (recovered from throttling) also makes
        // the table stale — the planner is leaving throughput on the table.
        let mut d = DriftDetector::new(cfg(2, 1.5, 1));
        d.observe(8, 40.0, 100.0);
        let report = d.observe(8, 40.0, 100.0).expect("speedup flagged");
        assert!(report.ratio < 1.0 / 1.5);
    }

    #[test]
    fn sizes_are_tracked_independently() {
        let mut d = DriftDetector::new(cfg(2, 1.5, 1));
        // Size 8 drifts; size 16 is healthy. Only 8 fires.
        d.observe(8, 300.0, 100.0);
        d.observe(16, 200.0, 200.0);
        d.observe(16, 200.0, 200.0);
        let r = d.observe(8, 300.0, 100.0).expect("size 8 fires");
        assert_eq!(r.micro, 8);
        assert_eq!(d.observe(16, 200.0, 200.0), None);
    }

    #[test]
    fn reset_forgets_partial_windows_and_streaks() {
        let mut d = DriftDetector::new(cfg(2, 1.5, 2));
        d.observe(8, 300.0, 100.0);
        d.observe(8, 300.0, 100.0); // breach #1
        d.observe(8, 300.0, 100.0); // half of the would-be breach #2
        d.reset();
        // Post-reset the streak and partial window are gone: two full
        // breach windows are needed again.
        d.observe(8, 300.0, 100.0);
        assert_eq!(d.observe(8, 300.0, 100.0), None, "only breach #1");
        d.observe(8, 300.0, 100.0);
        assert!(d.observe(8, 300.0, 100.0).is_some());
    }

    #[test]
    fn disabled_detector_never_fires() {
        let mut d = DriftDetector::new(ReoptConfig {
            enabled: false,
            ..cfg(1, 1.1, 1)
        });
        for _ in 0..100 {
            assert_eq!(d.observe(8, 10_000.0, 1.0), None);
        }
    }
}
