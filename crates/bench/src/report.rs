//! Trace post-processing behind the `ucudnn-report` binary.
//!
//! Consumes a JSONL trace written by a [`ucudnn::TraceSession`] and
//! aggregates it into a human-readable profile: one row per optimized kernel
//! (chosen algorithm/micro-batch split, modeled time, workspace,
//! degradation rungs taken), micro-batch launch percentiles, per-layer
//! training-time percentiles, and the workspace high-water mark.

use std::collections::BTreeMap;
use ucudnn::json::Value;
use ucudnn::telemetry::{HistStats, StreamingHistogram};
use ucudnn::{Trace, TraceEvent};

/// Aggregated plan decision for one kernel (the last `"plan"` event wins,
/// matching how re-optimization replaces plans).
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel key string (`op geometry`).
    pub kernel: String,
    /// `"wr"` or `"wd"`.
    pub optimizer: String,
    /// Human description of the chosen configuration (algorithms and
    /// micro-batch split).
    pub config: String,
    /// Modeled execution time of the configuration, microseconds.
    pub time_us: f64,
    /// Workspace granted, bytes.
    pub workspace_bytes: u64,
    /// Degradation-ladder rungs taken, in order.
    pub degradations: Vec<String>,
}

/// Micro-batch launch statistics for one kernel.
#[derive(Debug, Clone)]
pub struct ExecRow {
    /// Kernel key string.
    pub kernel: String,
    /// Number of micro-batch launches observed.
    pub launches: u64,
    /// Launch-time percentiles (wall `dur_us`, falling back to the modeled
    /// time in logical-clock traces where durations are normalized to 0).
    pub percentiles: HistStats,
}

/// Training-time statistics for one layer.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer name.
    pub layer: String,
    /// Forward span percentiles, microseconds.
    pub forward: HistStats,
    /// Backward span percentiles, microseconds.
    pub backward: HistStats,
    /// Spans observed (forward + backward).
    pub samples: u64,
}

/// The aggregated report.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Total events in the trace.
    pub events: usize,
    /// Events the bounded buffer dropped during collection.
    pub dropped: u64,
    /// Per-kernel plan decisions, sorted by kernel key.
    pub kernels: Vec<KernelRow>,
    /// Per-kernel micro-batch launch stats, sorted by kernel key.
    pub execs: Vec<ExecRow>,
    /// Per-layer training times, in first-seen (topological) order.
    pub layers: Vec<LayerRow>,
    /// Workspace high-water mark over the traced run, bytes.
    pub workspace_hwm_bytes: Option<u64>,
}

/// One percentile cell of the rendered profile (0.0 when empty).
fn us(v: Option<f64>) -> String {
    format!("{:.1}", v.unwrap_or(0.0))
}

/// A span/event duration to aggregate: the wall duration when the trace has
/// one, else the modeled time from the args (logical-clock traces zero all
/// durations but keep modeled quantities).
fn observed_us(e: &TraceEvent) -> f64 {
    if e.dur_us > 0.0 {
        e.dur_us
    } else {
        e.args
            .get("modeled_us")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    }
}

impl TraceReport {
    /// Aggregate a collected trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut kernels: BTreeMap<String, KernelRow> = BTreeMap::new();
        let mut execs: BTreeMap<String, (u64, StreamingHistogram)> = BTreeMap::new();
        let mut layer_order: Vec<String> = Vec::new();
        let mut layers: BTreeMap<String, (StreamingHistogram, StreamingHistogram)> =
            BTreeMap::new();
        let mut hwm: Option<u64> = None;

        for e in &trace.events {
            match (e.cat.as_str(), e.name.as_str()) {
                ("plan", "decision") => {
                    let prov = e.args.get("provenance");
                    let degradations = prov
                        .and_then(|p| p.get("degradations"))
                        .and_then(|d| d.as_arr())
                        .map(|a| {
                            a.iter()
                                .filter_map(|v| v.as_str().map(str::to_string))
                                .collect()
                        })
                        .unwrap_or_default();
                    kernels.insert(
                        e.key.clone(),
                        KernelRow {
                            kernel: e.key.clone(),
                            optimizer: prov
                                .and_then(|p| p.get("optimizer"))
                                .and_then(|v| v.as_str())
                                .unwrap_or("?")
                                .to_string(),
                            config: e
                                .args
                                .get("config")
                                .and_then(|v| v.as_str())
                                .unwrap_or("?")
                                .to_string(),
                            time_us: e
                                .args
                                .get("time_us")
                                .and_then(|v| v.as_f64())
                                .unwrap_or(0.0),
                            workspace_bytes: e
                                .args
                                .get("workspace_bytes")
                                .and_then(|v| v.as_u64())
                                .unwrap_or(0),
                            degradations,
                        },
                    );
                }
                ("exec", "micro") => {
                    // Keys are "kernel#i"; fold the micro index away.
                    let kernel = e.key.split_once('#').map_or(e.key.as_str(), |(k, _)| k);
                    let entry = execs
                        .entry(kernel.to_string())
                        .or_insert_with(|| (0, StreamingHistogram::new()));
                    entry.0 += 1;
                    entry.1.record(observed_us(e));
                }
                ("train", "forward_layer" | "backward_layer" | "sim_forward" | "sim_backward") => {
                    if !layers.contains_key(&e.key) {
                        layer_order.push(e.key.clone());
                    }
                    let entry = layers
                        .entry(e.key.clone())
                        .or_insert_with(|| (StreamingHistogram::new(), StreamingHistogram::new()));
                    if e.name.ends_with("forward_layer") || e.name == "sim_forward" {
                        entry.0.record(observed_us(e));
                    } else {
                        entry.1.record(observed_us(e));
                    }
                }
                ("train", "workspace_hwm") => {
                    if let Some(b) = e.args.get("bytes").and_then(|v| v.as_u64()) {
                        hwm = Some(hwm.unwrap_or(0).max(b));
                    }
                }
                _ => {}
            }
        }

        Self {
            events: trace.events.len(),
            dropped: trace.dropped,
            kernels: kernels.into_values().collect(),
            execs: execs
                .into_iter()
                .map(|(kernel, (launches, h))| ExecRow {
                    kernel,
                    launches,
                    percentiles: h.cumulative(),
                })
                .collect(),
            layers: layer_order
                .into_iter()
                .map(|name| {
                    let (forward, backward) =
                        (layers[&name].0.cumulative(), layers[&name].1.cumulative());
                    LayerRow {
                        layer: name,
                        samples: forward.count + backward.count,
                        forward,
                        backward,
                    }
                })
                .collect(),
            workspace_hwm_bytes: hwm,
        }
    }

    /// Render the report as an aligned plain-text profile.
    pub fn render(&self) -> String {
        let mut out = format!(
            "=== ucudnn-report: {} events ({} dropped) ===\n",
            self.events, self.dropped
        );
        if !self.kernels.is_empty() {
            out.push_str("\n-- plan decisions --\n");
            out.push_str(&table(
                &[
                    "kernel",
                    "opt",
                    "configuration",
                    "time(us)",
                    "ws(MiB)",
                    "degradations",
                ],
                &self
                    .kernels
                    .iter()
                    .map(|k| {
                        vec![
                            k.kernel.clone(),
                            k.optimizer.clone(),
                            k.config.clone(),
                            format!("{:.1}", k.time_us),
                            format!("{:.1}", k.workspace_bytes as f64 / (1024.0 * 1024.0)),
                            if k.degradations.is_empty() {
                                "-".to_string()
                            } else {
                                k.degradations.join(",")
                            },
                        ]
                    })
                    .collect::<Vec<_>>(),
            ));
        }
        if !self.execs.is_empty() {
            out.push_str("\n-- micro-batch launches --\n");
            out.push_str(&table(
                &["kernel", "launches", "p50(us)", "p95(us)", "p99(us)"],
                &self
                    .execs
                    .iter()
                    .map(|r| {
                        vec![
                            r.kernel.clone(),
                            r.launches.to_string(),
                            us(r.percentiles.p50_us),
                            us(r.percentiles.p95_us),
                            us(r.percentiles.p99_us),
                        ]
                    })
                    .collect::<Vec<_>>(),
            ));
        }
        if !self.layers.is_empty() {
            out.push_str("\n-- training layers --\n");
            out.push_str(&table(
                &[
                    "layer", "samples", "fwd p50", "fwd p95", "fwd p99", "bwd p50", "bwd p95",
                    "bwd p99",
                ],
                &self
                    .layers
                    .iter()
                    .map(|l| {
                        vec![
                            l.layer.clone(),
                            l.samples.to_string(),
                            us(l.forward.p50_us),
                            us(l.forward.p95_us),
                            us(l.forward.p99_us),
                            us(l.backward.p50_us),
                            us(l.backward.p95_us),
                            us(l.backward.p99_us),
                        ]
                    })
                    .collect::<Vec<_>>(),
            ));
        }
        if let Some(b) = self.workspace_hwm_bytes {
            out.push_str(&format!(
                "\nworkspace high-water mark: {:.1} MiB\n",
                b as f64 / (1024.0 * 1024.0)
            ));
        }
        out
    }
}

/// Reconstruct one serving request's admission→batch→completion timeline
/// from a trace: every `serve` event keyed `req{id}` (submit, shed,
/// complete) plus every batch/micro event whose `ids` list carries the
/// request. Returns `None` if the request never appears.
pub fn request_timeline(trace: &Trace, id: u64) -> Option<String> {
    let key = format!("req{id}");
    let rides = |e: &TraceEvent| {
        e.args
            .get("ids")
            .and_then(Value::as_arr)
            .is_some_and(|ids| ids.iter().filter_map(Value::as_u64).any(|v| v == id))
    };
    let mut rows: Vec<&TraceEvent> = trace
        .events
        .iter()
        .filter(|e| e.cat == "serve" && (e.key == key || rides(e)))
        .collect();
    if rows.is_empty() {
        return None;
    }
    rows.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    let mut out = format!("=== request req{id}: {} events ===\n", rows.len());
    for e in &rows {
        let detail = match &e.args {
            Value::Null => String::new(),
            v => v.to_json(),
        };
        out.push_str(&format!(
            "{:>14.1}  {:<12} key={:<10} {detail}\n",
            e.ts_us, e.name, e.key
        ));
    }
    Some(out)
}

/// Left-aligned first column, right-aligned rest (same shape as
/// [`crate::print_table`], but returned instead of printed).
fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{:<w$}", c, w = widths[i])
                } else {
                    format!("{:>w$}", c, w = widths[i])
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn::json::{self, Value};

    fn ev(cat: &str, name: &str, key: &str, dur_us: f64, args: Value) -> TraceEvent {
        TraceEvent {
            ts_us: 0.0,
            dur_us,
            cat: cat.to_string(),
            name: name.to_string(),
            key: key.to_string(),
            tid: 0,
            args,
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                ev(
                    "plan",
                    "decision",
                    "Forward 256x64x27x27",
                    0.0,
                    json::obj([
                        ("config", Value::Str("2x128 FFT".into())),
                        ("time_us", json::num(420.0)),
                        ("workspace_bytes", json::num((64u64 << 20) as f64)),
                        (
                            "provenance",
                            json::obj([
                                ("optimizer", Value::Str("wr".into())),
                                (
                                    "degradations",
                                    Value::Arr(vec![Value::Str("undivided_fallback".into())]),
                                ),
                            ]),
                        ),
                    ]),
                ),
                ev(
                    "exec",
                    "micro",
                    "Forward 256x64x27x27#0",
                    0.0,
                    json::obj([("modeled_us", json::num(210.0))]),
                ),
                ev(
                    "exec",
                    "micro",
                    "Forward 256x64x27x27#1",
                    0.0,
                    json::obj([("modeled_us", json::num(210.0))]),
                ),
                ev("train", "forward_layer", "conv2", 100.0, Value::Null),
                ev("train", "backward_layer", "conv2", 300.0, Value::Null),
                ev(
                    "train",
                    "workspace_hwm",
                    "train",
                    0.0,
                    json::obj([("bytes", json::num((8u64 << 20) as f64))]),
                ),
            ],
            dropped: 3,
        }
    }

    #[test]
    fn aggregates_plans_execs_layers_and_hwm() {
        let r = TraceReport::from_trace(&sample_trace());
        assert_eq!(r.events, 6);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.kernels.len(), 1);
        assert_eq!(r.kernels[0].optimizer, "wr");
        assert_eq!(r.kernels[0].config, "2x128 FFT");
        assert_eq!(r.kernels[0].degradations, vec!["undivided_fallback"]);
        // Two micro launches fold into one kernel row; logical traces fall
        // back to modeled_us.
        assert_eq!(r.execs.len(), 1);
        assert_eq!(r.execs[0].launches, 2);
        assert!((r.execs[0].percentiles.p50_us.unwrap() - 210.0).abs() < 1.0);
        assert_eq!(r.layers.len(), 1);
        assert_eq!(r.layers[0].samples, 2);
        assert!((r.layers[0].forward.p50_us.unwrap() - 100.0).abs() < 1e-9);
        assert!((r.layers[0].backward.p50_us.unwrap() - 300.0).abs() < 1e-9);
        assert_eq!(r.workspace_hwm_bytes, Some(8 << 20));
    }

    #[test]
    fn render_names_algorithm_split_and_degradations() {
        let r = TraceReport::from_trace(&sample_trace());
        let text = r.render();
        assert!(text.contains("plan decisions"));
        assert!(text.contains("2x128 FFT"));
        assert!(text.contains("undivided_fallback"));
        assert!(text.contains("micro-batch launches"));
        assert!(text.contains("conv2"));
        assert!(text.contains("workspace high-water mark: 8.0 MiB"));
    }

    #[test]
    fn empty_trace_renders_header_only() {
        let r = TraceReport::from_trace(&Trace::default());
        assert_eq!(r.render(), "=== ucudnn-report: 0 events (0 dropped) ===\n");
    }

    fn serve_trace() -> Trace {
        let at = |mut e: TraceEvent, ts: f64| {
            e.ts_us = ts;
            e
        };
        Trace {
            events: vec![
                at(
                    ev(
                        "serve",
                        "submit",
                        "req7",
                        0.0,
                        json::obj([("arrival_us", json::num(10.0))]),
                    ),
                    10.0,
                ),
                at(
                    ev(
                        "serve",
                        "micro",
                        "worker0",
                        0.0,
                        json::obj([
                            ("micro", json::num(2.0)),
                            ("exec_us", json::num(500.0)),
                            ("ids", Value::Arr(vec![json::num(6.0), json::num(7.0)])),
                        ]),
                    ),
                    40.0,
                ),
                at(
                    ev(
                        "serve",
                        "complete",
                        "req7",
                        0.0,
                        json::obj([("latency_us", json::num(530.0))]),
                    ),
                    540.0,
                ),
                // Another request's events must not leak into req7's story.
                at(ev("serve", "submit", "req8", 0.0, Value::Null), 11.0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn request_timeline_reconstructs_one_request_in_time_order() {
        let t = serve_trace();
        let text = request_timeline(&t, 7).expect("req7 is in the trace");
        assert!(text.starts_with("=== request req7: 3 events ==="));
        let (s, m, c) = (
            text.find("submit").unwrap(),
            text.find("micro").unwrap(),
            text.find("complete").unwrap(),
        );
        assert!(s < m && m < c, "admission → batch → response order");
        assert!(text.contains("latency_us"));
        assert!(!text.contains("req8"), "other requests stay out");
        // Request 6 rides the same micro-batch but has no submit/complete.
        assert!(request_timeline(&t, 6).unwrap().contains("micro"));
        assert_eq!(request_timeline(&t, 99), None, "unknown id");
    }
}
