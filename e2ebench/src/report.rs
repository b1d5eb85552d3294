//! Metric vocabulary, correctness ledger and the result line.
//!
//! Every run prints a human-readable log and, as its last line, one JSON
//! object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`. Untraced runs report every [`END_TO_END`] metric; traced runs
//! every [`PER_LAYER`] metric.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit, end-to-end metric it should move)`.
/// Every traced run reports all of them ([`Report::print_layer_table`]).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("framework.forward_ms", "ms", "train throughput_per_s"),
    ("framework.backward_ms", "ms", "train throughput_per_s"),
    ("framework.sgd_ms", "ms", "train throughput_per_s"),
    ("framework.data_ms", "ms", "train throughput_per_s"),
    ("framework.aux_ms", "ms", "train throughput_per_s"),
    ("core.conv_fwd_ms", "ms", "train throughput_per_s"),
    ("core.conv_bwd_data_ms", "ms", "train throughput_per_s"),
    ("core.conv_bwd_filter_ms", "ms", "train throughput_per_s"),
    ("conv.gflops_fwd", "GFLOP/s", "train throughput_per_s"),
    ("conv.gflops_bwd_data", "GFLOP/s", "train throughput_per_s"),
    (
        "conv.gflops_bwd_filter",
        "GFLOP/s",
        "train throughput_per_s",
    ),
    (
        "cudnn-sim.launches_per_step",
        "count",
        "train throughput_per_s",
    ),
    (
        "cudnn-sim.exec_cache_hit_ratio",
        "ratio",
        "train throughput_per_s, serve throughput_per_s",
    ),
    ("core.pred_over_obs_fwd", "ratio", "train throughput_per_s"),
    (
        "core.pred_over_obs_bwd_data",
        "ratio",
        "train throughput_per_s",
    ),
    (
        "core.pred_over_obs_bwd_filter",
        "ratio",
        "train throughput_per_s",
    ),
    ("core.divided_kernels", "count", "train throughput_per_s"),
    (
        "core.workspace_mib",
        "MiB",
        "train throughput_per_s, train peak_rss_mib",
    ),
    ("core.baseline_speedup", "ratio", "train throughput_per_s"),
    ("core.tune_s", "s", "train setup_s, serve setup_s"),
    ("core.bench_hits", "count", "train setup_s, serve setup_s"),
    ("core.bench_misses", "count", "train setup_s, serve setup_s"),
    ("core.find_s", "s", "train setup_s, serve setup_s"),
    ("core.dp_s", "s", "train setup_s, serve setup_s"),
    (
        "core.plan_repeat_ratio",
        "ratio",
        "steadiness of train throughput_per_s",
    ),
    ("core.pareto_ms", "ms", "plan_wd setup_s"),
    ("core.pareto_points", "count", "plan_wd setup_s"),
    ("lp.ilp_ms", "ms", "plan_wd setup_s"),
    ("lp.ilp_vars", "count", "plan_wd setup_s"),
    ("lp.bb_nodes", "count", "plan_wd setup_s"),
    ("gpu-model.find_calls", "count", "plan_wd setup_s"),
    (
        "core.wd_workspace_mib",
        "MiB",
        "plan_wd modeled step (plan quality)",
    ),
    (
        "core.wd_modeled_step_ms",
        "ms",
        "none: plan quality on the virtual clock",
    ),
    ("serve.exec_ms", "ms", "serve throughput_per_s"),
    ("serve.batch_mean", "count", "serve throughput_per_s"),
    ("serve.queue_ms", "ms", "serve latency_p50_ms"),
    ("serve.ingress_ms", "ms", "serve latency_p50_ms"),
    ("serve.latency_p99_ms", "ms", "none: diagnostic"),
    ("serve.gen_lag_ms", "ms", "none: diagnostic"),
    ("serve.shed_ratio", "ratio", "none: diagnostic"),
    (
        "bench.trace_overhead",
        "ratio",
        "none: traced over untraced",
    ),
];

/// Collects checks, attempts and metrics for one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    not_exercised: Vec<&'static str>,
    attempted: u64,
    failed: u64,
    checks_failed: u64,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one correctness check: counted as an attempt, and as a failed
    /// attempt when `ok` is false. Returns `ok`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl AsRef<str>) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.checks_failed += 1;
        }
        let verdict = if ok { "ok" } else { "FAILED" };
        println!("check {name}: {verdict} ({})", detail.as_ref());
        ok
    }

    /// Count operations (steps, plannings, requests) and how many failed.
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every check so far passed.
    pub fn all_checks_passed(&self) -> bool {
        self.checks_failed == 0
    }

    /// Set a metric by name; its unit comes from the vocabulary.
    ///
    /// # Panics
    /// On a name outside [`END_TO_END`] and [`PER_LAYER`] (a benchmark bug).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// Print the per-layer table of a traced run: value, unit and the
    /// end-to-end metric each should move. A per-layer metric the workload
    /// did not set belongs to a layer it does not exercise: it is reported
    /// as 0 and marked `n/a`.
    pub fn print_layer_table(&mut self) {
        for (name, _, _) in PER_LAYER {
            if !self.metrics.contains_key(name) {
                self.metrics.insert(name, 0.0);
                self.not_exercised.push(name);
            }
        }
        println!("per-layer metrics (traced run):");
        for (name, unit, moves) in PER_LAYER {
            let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let shown = if self.not_exercised.contains(name) {
                "n/a (not exercised by this workload)".to_string()
            } else {
                format!("{value:.6} {unit}")
            };
            println!("  {name:<32} {shown:<40} moves: {moves}");
        }
    }

    /// Render the result line for `names` (the metric set of this run).
    /// A non-finite value, or a metric of the set that was never set, makes
    /// the run incorrect: it is a measurement failure, reported as 0.
    pub fn result_line(&mut self, names: &[&'static str]) -> String {
        let mut parts = Vec::with_capacity(names.len());
        for &name in names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.check(
                        &format!("metric {name} measured"),
                        false,
                        format!("value {other:?}"),
                    );
                    0.0
                }
            };
            let unit = unit_of(name).expect("names come from the vocabulary");
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.all_checks_passed(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

/// Unit of a metric in the vocabulary.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, u, _)| *u)
        })
}

/// Names of the end-to-end metrics.
pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|(n, _)| *n).collect()
}

/// Names of the per-layer metrics.
pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|(n, _, _)| *n).collect()
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// Return freed heap memory to the operating system, so that a resident-set
/// peak measured afterwards reflects only what is allocated afterwards
/// rather than what an earlier phase (a correctness check) freed.
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists under its lock, and is safe to call at any
    // time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_hwm_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// A `kB` field of `/proc/self/status`; NaN when unavailable.
fn status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// The plans installed in a μ-cuDNN handle, one kernel per line (division,
/// algorithms, workspace bytes), sorted by kernel.
pub fn plan_text(h: &ucudnn::UcudnnHandle) -> String {
    h.memory_report()
        .iter()
        .map(|(k, c, b)| {
            format!(
                "{k} {} {b}
",
                c.describe()
            )
        })
        .collect()
}

/// 64-bit FNV-1a fingerprint of a rendered plan, as 16 hex digits.
pub fn fingerprint(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::new();
        r.check("x", true, "fine");
        for name in end_to_end_names() {
            r.metric(name, 1.25);
        }
        let line = r.result_line(&end_to_end_names());
        let v = ucudnn::json::Value::parse(&line).expect("valid JSON");
        let ucudnn::json::Value::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut r = Report::new();
        let line = r.result_line(&["setup_s"]);
        assert!(line.starts_with("{\"correct\": false"));
    }

    #[test]
    fn vocabulary_names_are_unique() {
        let mut names = end_to_end_names();
        names.extend(per_layer_names());
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
