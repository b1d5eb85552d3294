//! Serving metrics: typed telemetry instruments plus a latency histogram,
//! exported as one JSON object and as a Prometheus-style exposition.
//!
//! Every counter and gauge here is a handle into a
//! [`ucudnn::telemetry::Registry`] — the same registry the TCP `STATS` verb
//! scrapes — so the JSON snapshot ([`ServeMetrics::to_json`]) and the live
//! exposition are two views of one set of instruments, not parallel
//! tallies. The shed ladder is a labeled counter family with the
//! [`ShedReason`] names as its fixed vocabulary.

use crate::request::ShedReason;
use ucudnn::json::{self, Value};
use ucudnn::telemetry::{Counter, Gauge, Histogram, Registry};

/// Shared instruments for one server instance. All counters are monotone;
/// `queue_depth` is a gauge maintained by the admission/worker paths.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    /// Requests offered to `submit`.
    pub submitted: Counter,
    /// Requests completed successfully.
    pub completed: Counter,
    /// Sheds: admission-control rejections.
    pub shed_queue_full: Counter,
    /// Sheds: scheduler-proven deadline misses.
    pub shed_deadline: Counter,
    /// Sheds: permanent execution faults.
    pub shed_exec_failed: Counter,
    /// Sheds: refused during drain.
    pub shed_draining: Counter,
    /// Batches that degraded (faulted, retried, or shed) but left the
    /// server running — the serving face of the graceful-degradation
    /// counter in the optimizer.
    pub degradations: Counter,
    /// Fired batches.
    pub batches: Counter,
    /// Requests carried by those batches (mean occupancy =
    /// `batched_requests / batches`).
    pub batched_requests: Counter,
    /// Current queue depth (gauge).
    pub queue_depth: Gauge,
    /// High-water mark of the queue depth.
    pub queue_depth_max: Gauge,
    /// Completions whose end-to-end latency exceeded the SLO (the burn
    /// monitor's "bad event" feed, alongside sheds).
    pub violations: Counter,
    /// Re-optimization: windows the drift detector flagged as stale.
    pub stale_detections: Counter,
    /// Re-optimization: successful atomic plan hot-swaps.
    pub plan_swaps: Counter,
    /// Re-optimization: re-benchmarks that failed (empty table or runner
    /// error) — the old plan stayed live (DESIGN §9: degrade, never crash).
    pub reopt_failed: Counter,
    /// Current plan generation (gauge; mirrors `Server::plan_version`).
    pub plan_version: Gauge,
    /// SLO burn-rate alerts fired (inactive→active transitions).
    pub slo_alerts: Counter,
    /// 1 while a burn-rate alert is active, 0 otherwise.
    pub slo_alert_active: Gauge,
    /// Error-budget burn rate over the fast window (gauge).
    pub burn_fast: Gauge,
    /// Error-budget burn rate over the slow window (gauge).
    pub burn_slow: Gauge,
    /// End-to-end latency of completed requests (summary + exemplar).
    pub latency: Histogram,
    /// Ingress: connections accepted by the reactor.
    pub conn_accepted: Counter,
    /// Ingress: connections refused at the listener by the
    /// `IngressOptions::max_conns` cap.
    pub conn_rejected: Counter,
    /// Ingress: connections torn down on a read error (not clean EOF).
    pub conn_read_err: Counter,
    /// Ingress: client write failures (reset/broken pipe while responding).
    pub conn_write_err: Counter,
    /// Ingress: times a connection's read interest was parked because its
    /// outbound buffer crossed the high-water mark (slow reader).
    pub conn_write_backpressure: Counter,
    /// Ingress: times read interest was parked because the admission queue
    /// was full — kernel socket buffers absorb the burst before the shed
    /// ladder fires.
    pub conn_admission_pause: Counter,
    /// Ingress: currently open connections (gauge).
    pub conn_active: Gauge,
    /// Ingress: high-water mark of open connections.
    pub conn_active_max: Gauge,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh, zeroed instruments in a fresh registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let shed = registry.counter_vec(
            "ucudnn_serve_shed_total",
            "Requests shed, by ladder rung.",
            "reason",
            &[
                "queue_full",
                "deadline_infeasible",
                "exec_failed",
                "draining",
            ],
        );
        let rung = |key: &str| shed.with(key).expect("shed reason in vocabulary");
        Self {
            submitted: registry.counter(
                "ucudnn_serve_submitted_total",
                "Requests offered to admission control.",
            ),
            completed: registry.counter(
                "ucudnn_serve_completed_total",
                "Requests completed successfully.",
            ),
            shed_queue_full: rung("queue_full"),
            shed_deadline: rung("deadline_infeasible"),
            shed_exec_failed: rung("exec_failed"),
            shed_draining: rung("draining"),
            degradations: registry.counter(
                "ucudnn_serve_degradations_total",
                "Batches that degraded but left the server running.",
            ),
            batches: registry.counter(
                "ucudnn_serve_batches_total",
                "Batches fired by the workers.",
            ),
            batched_requests: registry.counter(
                "ucudnn_serve_batched_requests_total",
                "Requests carried by fired batches.",
            ),
            queue_depth: registry
                .gauge("ucudnn_serve_queue_depth", "Current admission-queue depth."),
            queue_depth_max: registry.gauge(
                "ucudnn_serve_queue_depth_max",
                "High-water mark of the admission-queue depth.",
            ),
            violations: registry.counter(
                "ucudnn_serve_violations_total",
                "Completions whose latency exceeded the SLO.",
            ),
            stale_detections: registry.counter(
                "ucudnn_serve_stale_detections_total",
                "Windows the drift detector flagged as stale.",
            ),
            plan_swaps: registry.counter(
                "ucudnn_serve_plan_swaps_total",
                "Successful atomic plan hot-swaps.",
            ),
            reopt_failed: registry.counter(
                "ucudnn_serve_reopt_failed_total",
                "Re-benchmarks that failed; the old plan stayed live.",
            ),
            plan_version: registry.gauge("ucudnn_serve_plan_version", "Current plan generation."),
            slo_alerts: registry.counter("ucudnn_slo_alerts_total", "SLO burn-rate alerts fired."),
            slo_alert_active: registry.gauge(
                "ucudnn_slo_alert_active",
                "1 while a burn-rate alert is active.",
            ),
            burn_fast: registry.gauge(
                "ucudnn_slo_burn_rate_fast",
                "Error-budget burn rate over the fast window.",
            ),
            burn_slow: registry.gauge(
                "ucudnn_slo_burn_rate_slow",
                "Error-budget burn rate over the slow window.",
            ),
            latency: registry.histogram(
                "ucudnn_serve_latency_us",
                "End-to-end latency of completed requests, microseconds.",
            ),
            conn_accepted: registry.counter(
                "ucudnn_serve_conn_accepted_total",
                "Connections accepted by the ingress reactor.",
            ),
            conn_rejected: registry.counter(
                "ucudnn_serve_conn_rejected_total",
                "Connections refused at the listener by the connection cap.",
            ),
            conn_read_err: registry.counter(
                "ucudnn_serve_conn_read_err_total",
                "Connections torn down on a read error (not clean EOF).",
            ),
            conn_write_err: registry.counter(
                "ucudnn_serve_conn_write_err_total",
                "Client write failures while delivering responses.",
            ),
            conn_write_backpressure: registry.counter(
                "ucudnn_serve_conn_write_backpressure_total",
                "Read-interest parks due to a slow reader's full write buffer.",
            ),
            conn_admission_pause: registry.counter(
                "ucudnn_serve_conn_admission_pause_total",
                "Read-interest parks while the admission queue was full.",
            ),
            conn_active: registry.gauge(
                "ucudnn_serve_conn_active",
                "Currently open ingress connections.",
            ),
            conn_active_max: registry.gauge(
                "ucudnn_serve_conn_active_max",
                "High-water mark of open ingress connections.",
            ),
            registry,
        }
    }

    /// Count one accepted connection and move the active-connections gauge.
    pub fn conn_opened(&self, active: u64) {
        self.conn_accepted.inc();
        self.set_conn_active(active);
    }

    /// Move the active-connections gauge and maintain its high-water mark.
    pub fn set_conn_active(&self, active: u64) {
        self.conn_active.set(active as f64);
        self.conn_active_max.set_max(active as f64);
    }

    /// The registry behind these instruments; clone it to scrape.
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// Count one shed for `reason`.
    pub fn shed(&self, reason: ShedReason) {
        let c = match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::DeadlineInfeasible => &self.shed_deadline,
            ShedReason::ExecFailed => &self.shed_exec_failed,
            ShedReason::Draining => &self.shed_draining,
        };
        c.inc();
    }

    /// Total sheds across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full.get()
            + self.shed_deadline.get()
            + self.shed_exec_failed.get()
            + self.shed_draining.get()
    }

    /// Move the queue-depth gauge and maintain its high-water mark.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.set(depth as f64);
        self.queue_depth_max.set_max(depth as f64);
    }

    /// Record one completed request.
    pub fn complete(&self, latency_us: f64) {
        self.completed.inc();
        self.latency.record(latency_us);
    }

    /// Record one completed request correlated with its `RequestId`; the
    /// id lands as the latency histogram's exemplar.
    pub fn complete_for(&self, latency_us: f64, request_id: u64) {
        self.completed.inc();
        self.latency.record_with_exemplar(latency_us, request_id);
    }

    /// Record one fired batch of `n` requests.
    pub fn fired(&self, n: usize) {
        self.batches.inc();
        self.batched_requests.add(n as u64);
    }

    /// Snapshot as a JSON object.
    ///
    /// Percentiles use the histogram's optional accessors, so a server that
    /// has completed nothing reports `null` — not a fake 0µs tail.
    ///
    /// `latency_window_us` reports the percentiles of the completions *since
    /// the previous snapshot* and consumes that window: each scrape sees only
    /// its own interval, which is what makes late drift visible instead of
    /// being averaged into the cumulative view.
    pub fn to_json(&self) -> Value {
        let n = |c: &Counter| json::num(c.get() as f64);
        let g = |c: &Gauge| json::num(c.get());
        let batches = self.batches.get();
        let occupancy = if batches == 0 {
            Value::Null
        } else {
            json::num(self.batched_requests.get() as f64 / batches as f64)
        };
        let window = self.latency.take_window();
        let opt = |q: Option<f64>| q.map_or(Value::Null, json::num);
        let cum = self.latency.cumulative();
        let mean = if cum.count == 0 {
            Value::Null
        } else {
            json::num(cum.mean())
        };
        json::obj([
            ("submitted", n(&self.submitted)),
            ("completed", n(&self.completed)),
            (
                "shed",
                json::obj([
                    ("queue_full", n(&self.shed_queue_full)),
                    ("deadline_infeasible", n(&self.shed_deadline)),
                    ("exec_failed", n(&self.shed_exec_failed)),
                    ("draining", n(&self.shed_draining)),
                    ("total", json::num(self.shed_total() as f64)),
                ]),
            ),
            ("degradations", n(&self.degradations)),
            ("batches", n(&self.batches)),
            ("batch_occupancy", occupancy),
            ("queue_depth", g(&self.queue_depth)),
            ("queue_depth_max", g(&self.queue_depth_max)),
            (
                "reopt",
                json::obj([
                    ("stale_detections", n(&self.stale_detections)),
                    ("plan_swaps", n(&self.plan_swaps)),
                    ("reopt_failed", n(&self.reopt_failed)),
                    ("plan_version", g(&self.plan_version)),
                ]),
            ),
            (
                "latency_us",
                json::obj([
                    ("p50", opt(cum.p50_us)),
                    ("p95", opt(cum.p95_us)),
                    ("p99", opt(cum.p99_us)),
                    ("mean", mean),
                    ("count", json::num(cum.count as f64)),
                ]),
            ),
            (
                "latency_window_us",
                json::obj([
                    ("p50", opt(window.p50_us)),
                    ("p95", opt(window.p95_us)),
                    ("p99", opt(window.p99_us)),
                    ("count", json::num(window.count as f64)),
                ]),
            ),
            (
                "ingress",
                json::obj([
                    ("accepted", n(&self.conn_accepted)),
                    ("rejected", n(&self.conn_rejected)),
                    ("read_err", n(&self.conn_read_err)),
                    ("write_err", n(&self.conn_write_err)),
                    ("write_backpressure", n(&self.conn_write_backpressure)),
                    ("admission_pause", n(&self.conn_admission_pause)),
                    ("active", g(&self.conn_active)),
                    ("active_max", g(&self.conn_active_max)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_metrics_report_null_percentiles() {
        let m = ServeMetrics::new();
        let j = m.to_json();
        let lat = j.get("latency_us").unwrap();
        assert_eq!(lat.get("p99"), Some(&Value::Null));
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(j.get("batch_occupancy"), Some(&Value::Null));
        // And the document is valid JSON even with nulls.
        assert!(Value::parse(&j.to_json()).is_some());
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let m = ServeMetrics::new();
        m.submitted.add(5);
        m.set_queue_depth(3);
        m.set_queue_depth(1);
        m.shed(ShedReason::QueueFull);
        m.shed(ShedReason::ExecFailed);
        m.fired(4);
        for _ in 0..4 {
            m.complete(250.0);
        }
        let j = m.to_json();
        assert_eq!(j.get("submitted").unwrap().as_u64(), Some(5));
        assert_eq!(j.get("completed").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("queue_depth").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("queue_depth_max").unwrap().as_u64(), Some(3));
        let shed = j.get("shed").unwrap();
        assert_eq!(shed.get("queue_full").unwrap().as_u64(), Some(1));
        assert_eq!(shed.get("exec_failed").unwrap().as_u64(), Some(1));
        assert_eq!(shed.get("total").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("batch_occupancy").unwrap().as_f64(), Some(4.0));
        let lat = j.get("latency_us").unwrap();
        assert_eq!(lat.get("p50").unwrap().as_f64(), Some(250.0));
    }

    #[test]
    fn the_latency_window_resets_per_snapshot() {
        let m = ServeMetrics::new();
        for _ in 0..4 {
            m.complete(100.0);
        }
        let w1 = m.to_json();
        let w1 = w1.get("latency_window_us").unwrap();
        assert_eq!(w1.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(w1.get("p50").unwrap().as_f64(), Some(100.0));
        // A drifted interval dominates its own window even though the
        // cumulative histogram still remembers the fast past.
        for _ in 0..2 {
            m.complete(400.0);
        }
        let j2 = m.to_json();
        let w2 = j2.get("latency_window_us").unwrap();
        assert_eq!(w2.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(w2.get("p50").unwrap().as_f64(), Some(400.0));
        let cum = j2.get("latency_us").unwrap();
        assert_eq!(cum.get("count").unwrap().as_u64(), Some(6));
        // And a quiet interval is an empty window, not a stale echo.
        let w3 = m.to_json();
        let w3 = w3.get("latency_window_us").unwrap();
        assert_eq!(w3.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(w3.get("p50"), Some(&Value::Null));
    }

    #[test]
    fn reopt_counters_are_exported() {
        let m = ServeMetrics::new();
        m.stale_detections.add(3);
        m.plan_swaps.add(2);
        m.reopt_failed.inc();
        m.plan_version.set(3.0);
        let j = m.to_json();
        let r = j.get("reopt").unwrap();
        assert_eq!(r.get("stale_detections").unwrap().as_u64(), Some(3));
        assert_eq!(r.get("plan_swaps").unwrap().as_u64(), Some(2));
        assert_eq!(r.get("reopt_failed").unwrap().as_u64(), Some(1));
        assert_eq!(r.get("plan_version").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn ingress_counters_are_exported_in_both_views() {
        let m = ServeMetrics::new();
        m.conn_opened(1);
        m.conn_opened(2);
        m.set_conn_active(1);
        m.conn_rejected.inc();
        m.conn_write_err.inc();
        m.conn_write_backpressure.add(3);
        m.conn_admission_pause.add(2);
        let j = m.to_json();
        let ing = j.get("ingress").unwrap();
        assert_eq!(ing.get("accepted").unwrap().as_u64(), Some(2));
        assert_eq!(ing.get("rejected").unwrap().as_u64(), Some(1));
        assert_eq!(ing.get("read_err").unwrap().as_u64(), Some(0));
        assert_eq!(ing.get("write_err").unwrap().as_u64(), Some(1));
        assert_eq!(ing.get("write_backpressure").unwrap().as_u64(), Some(3));
        assert_eq!(ing.get("admission_pause").unwrap().as_u64(), Some(2));
        assert_eq!(ing.get("active").unwrap().as_u64(), Some(1));
        assert_eq!(ing.get("active_max").unwrap().as_u64(), Some(2));
        let text = m.registry().expose();
        for line in [
            "ucudnn_serve_conn_accepted_total 2",
            "ucudnn_serve_conn_rejected_total 1",
            "ucudnn_serve_conn_write_err_total 1",
            "ucudnn_serve_conn_write_backpressure_total 3",
            "ucudnn_serve_conn_admission_pause_total 2",
            "ucudnn_serve_conn_active 1",
            "ucudnn_serve_conn_active_max 2",
        ] {
            assert!(text.contains(line), "exposition missing {line:?}:\n{text}");
        }
    }

    #[test]
    fn the_json_snapshot_and_the_exposition_share_instruments() {
        // Satellite: no hand-copied keys — both views read the registry.
        let m = ServeMetrics::new();
        m.submitted.add(7);
        m.shed(ShedReason::DeadlineInfeasible);
        m.complete_for(812.5, 42);
        let text = m.registry().expose();
        for line in [
            "ucudnn_serve_submitted_total 7",
            "ucudnn_serve_shed_total{reason=\"deadline_infeasible\"} 1",
            "ucudnn_serve_completed_total 1",
            "# EXEMPLAR ucudnn_serve_latency_us request_id=\"42\" value=812.5",
        ] {
            assert!(text.contains(line), "exposition missing {line:?}:\n{text}");
        }
        assert_eq!(
            m.to_json().get("submitted").unwrap().as_u64(),
            Some(7),
            "same instrument backs the JSON view"
        );
    }
}
