//! The unified telemetry plane: one registry of typed instruments behind
//! every metric the library and the serving stack export.
//!
//! Before this module each subsystem kept its own ad-hoc counters
//! (`metrics.rs` atomics, `ServeMetrics` atomics, cache stats structs) and
//! the only export was a one-shot JSON dump. A [`Registry`] is the single
//! source of truth instead: producers hold cheap atomic instrument handles
//! ([`Counter`], [`Gauge`], [`Histogram`]), and every consumer — the
//! Prometheus-style text [`Registry::expose`], the serving `STATS` verb,
//! `--metrics-dump`, the JSON reports — renders the same instruments.
//!
//! Design rules:
//!
//! * **Zero external deps, lock-free hot path.** Counters are one
//!   `fetch_add`; gauges one `store` of f64 bits; histograms one short
//!   mutex-protected bucket increment into a [`StreamingHistogram`].
//! * **Bounded label cardinality.** A labeled family is created with a
//!   fixed vocabulary; values outside it are rejected and counted by the
//!   `ucudnn_telemetry_dropped_total` self-metric, so a hostile request
//!   string can never mint unbounded series.
//! * **Deterministic.** The registry reads no clock, so expositions are
//!   byte-reproducible under the deterministic sims.
//!
//! The log-bucket histogram itself ([`StreamingHistogram`]: record and the
//! quantile walk) is defined here once. The training reports and the
//! serving simulator own one directly; the registry's [`Histogram`] wraps
//! one behind a mutex, so quantiles agree across the training and serving
//! planes.

use crate::json;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Shared log-bucket geometry (one source of truth for all histograms).

/// Smallest representable observation, microseconds. Anything at or below
/// lands in bucket 0.
pub const HIST_LO_US: f64 = 0.01;
/// Geometric bucket growth factor; bounds the relative quantile error
/// (~5% per bucket).
pub const HIST_FACTOR: f64 = 1.05;
/// Bucket count: covers `HIST_LO_US * HIST_FACTOR^HIST_BUCKETS` ≈ 7e8 µs
/// (~12 minutes), far beyond any latency measured here.
pub const HIST_BUCKETS: usize = 512;

/// The bucket an observation lands in (clamped to the last bucket).
pub fn bucket_index(us: f64) -> usize {
    if us <= HIST_LO_US {
        0
    } else {
        (((us / HIST_LO_US).ln() / HIST_FACTOR.ln()).ceil() as usize).min(HIST_BUCKETS - 1)
    }
}

/// The representative (upper-edge) value of bucket `idx`, microseconds.
pub fn bucket_upper(idx: usize) -> f64 {
    HIST_LO_US * HIST_FACTOR.powi(idx as i32)
}

// ---------------------------------------------------------------------------
// Instrument kinds and internals.

/// The exposition type of an instrument family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone event count (`# TYPE … counter`).
    Counter,
    /// Point-in-time value (`# TYPE … gauge`).
    Gauge,
    /// Log-bucket latency distribution, exposed as a quantile summary
    /// (`# TYPE … summary`).
    Histogram,
}

impl Kind {
    fn prom(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "summary",
        }
    }
}

/// A single-owner log-bucket histogram over positive durations
/// (microseconds): O(1) `record` into the shared bucket geometry, fixed
/// memory, and quantiles with one bucket width (~5%) of relative error.
#[derive(Debug, Clone)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation, microseconds. Non-finite values are ignored.
    pub fn record(&mut self, us: f64) {
        if !us.is_finite() {
            return;
        }
        let idx = bucket_index(us);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += us;
        self.min = self.min.min(us);
        self.max = self.max.max(us);
    }

    /// The q-quantile (`0.0 ..= 1.0`) by the quantile walk: the
    /// representative value of the bucket holding the target rank, clamped
    /// to the observed `[min, max]` so single-sample histograms answer
    /// exactly. `None` when nothing has been recorded yet (no fake 0µs tail
    /// before the first sample).
    fn try_quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Cumulative summary (quantiles `None` when empty).
    pub fn cumulative(&self) -> HistStats {
        let q = |p| self.try_quantile(p);
        HistStats {
            count: self.total,
            sum: self.sum,
            p50_us: q(0.50),
            p95_us: q(0.95),
            p99_us: q(0.99),
        }
    }
}

/// Summary of a histogram's cumulative state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStats {
    /// Observations covered.
    pub count: u64,
    /// Sum of observations, microseconds.
    pub sum: f64,
    /// Median, or `None` when empty (no fake 0µs tails).
    pub p50_us: Option<f64>,
    /// 95th percentile, or `None` when empty.
    pub p95_us: Option<f64>,
    /// 99th percentile, or `None` when empty.
    pub p99_us: Option<f64>,
}

impl HistStats {
    /// Mean of the covered observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug)]
struct SeriesInner {
    /// Label value of this series (`None` for unlabeled families).
    label: Option<String>,
    /// Counter: integer count. Gauge: f64 bits.
    value: AtomicU64,
    hist: Option<Mutex<StreamingHistogram>>,
}

impl SeriesInner {
    fn new(label: Option<String>, kind: Kind) -> Self {
        Self {
            label,
            value: AtomicU64::new(0),
            hist: (kind == Kind::Histogram).then(|| Mutex::new(StreamingHistogram::new())),
        }
    }
}

#[derive(Debug)]
struct FamilyInner {
    name: String,
    help: String,
    kind: Kind,
    label_key: Option<String>,
    /// All series, fixed at creation (one per vocabulary entry); never
    /// grows, which is what bounds the cardinality.
    series: Vec<Arc<SeriesInner>>,
}

// ---------------------------------------------------------------------------
// Instrument handles.

/// A monotone event counter. Cloneable handle; all clones share the count.
#[derive(Debug, Clone)]
pub struct Counter {
    series: Arc<SeriesInner>,
}

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.series.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.series.value.load(Ordering::Relaxed)
    }

    /// Overwrite the count. For absolute syncs from an external tally
    /// (cache stats structs) and for `reset()`-style re-runs — the counter
    /// is still exposed as monotone, exactly like a process restart.
    pub fn set(&self, v: u64) {
        self.series.value.store(v, Ordering::Relaxed);
    }
}

/// A point-in-time value (f64). Cloneable handle; clones share the value.
#[derive(Debug, Clone)]
pub struct Gauge {
    series: Arc<SeriesInner>,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.series.value.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` to the gauge.
    pub(crate) fn add(&self, v: f64) {
        let _ = self
            .series
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Raise the gauge to `v` if above the current value (high-water mark).
    pub fn set_max(&self, v: f64) {
        let _ = self
            .series
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.series.value.load(Ordering::Relaxed))
    }
}

/// A registry latency histogram: a [`StreamingHistogram`] behind a mutex,
/// exposed as a quantile summary.
#[derive(Debug, Clone)]
pub struct Histogram {
    series: Arc<SeriesInner>,
}

impl Histogram {
    fn state(&self) -> &Mutex<StreamingHistogram> {
        self.series.hist.as_ref().expect("histogram series")
    }

    /// Record one observation, microseconds. Non-finite values are ignored.
    pub fn record(&self, us: f64) {
        self.state().lock().record(us);
    }

    /// Cumulative p50/p95/p99 bundle (quantiles `None` when empty).
    pub fn cumulative(&self) -> HistStats {
        self.state().lock().cumulative()
    }
}

/// A labeled counter family with a fixed vocabulary.
#[derive(Debug, Clone)]
pub struct CounterVec {
    family: Arc<FamilyInner>,
    registry: Registry,
}

impl CounterVec {
    /// The counter for `label`, or `None` (counted by the
    /// `telemetry_dropped` self-metric) when `label` is outside the
    /// family's vocabulary.
    pub fn with(&self, label: &str) -> Option<Counter> {
        match self
            .family
            .series
            .iter()
            .find(|s| s.label.as_deref() == Some(label))
        {
            Some(s) => Some(Counter {
                series: Arc::clone(s),
            }),
            None => {
                self.registry.inner.dropped.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The registry.

#[derive(Debug)]
struct RegistryInner {
    families: Mutex<Vec<Arc<FamilyInner>>>,
    /// The `ucudnn_telemetry_dropped_total` self-metric: label values
    /// rejected for being outside a family's vocabulary.
    dropped: AtomicU64,
}

/// An insertion-ordered registry of instrument families. Cloning shares
/// the underlying registry (cheap `Arc` clone).
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                families: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        label_key: Option<&str>,
        vocab: &[&str],
    ) -> Arc<FamilyInner> {
        let mut fams = self.inner.families.lock();
        if let Some(f) = fams.iter().find(|f| f.name == name) {
            assert!(
                f.kind == kind && f.label_key.as_deref() == label_key,
                "telemetry family {name:?} re-registered with a different shape"
            );
            return Arc::clone(f);
        }
        let series = if label_key.is_some() {
            vocab
                .iter()
                .map(|v| Arc::new(SeriesInner::new(Some((*v).to_string()), kind)))
                .collect()
        } else {
            vec![Arc::new(SeriesInner::new(None, kind))]
        };
        let fam = Arc::new(FamilyInner {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            label_key: label_key.map(str::to_string),
            series,
        });
        fams.push(Arc::clone(&fam));
        fam
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let fam = self.register(name, help, Kind::Counter, None, &[]);
        Counter {
            series: Arc::clone(&fam.series[0]),
        }
    }

    /// Register (or fetch) a counter family labeled by `label_key`, with
    /// the fixed vocabulary `vocab` (the cardinality bound).
    pub fn counter_vec(
        &self,
        name: &str,
        help: &str,
        label_key: &str,
        vocab: &[&str],
    ) -> CounterVec {
        let fam = self.register(name, help, Kind::Counter, Some(label_key), vocab);
        CounterVec {
            family: fam,
            registry: self.clone(),
        }
    }

    /// Register (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let fam = self.register(name, help, Kind::Gauge, None, &[]);
        Gauge {
            series: Arc::clone(&fam.series[0]),
        }
    }

    /// Register (or fetch) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let fam = self.register(name, help, Kind::Histogram, None, &[]);
        Histogram {
            series: Arc::clone(&fam.series[0]),
        }
    }

    /// Label values rejected so far (the `telemetry_dropped` self-metric).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Render every family into `out` in Prometheus text format (`# HELP`,
    /// `# TYPE`, escaped labels; histograms as quantile summaries). Emits
    /// no terminator, so multiple
    /// registries compose into one scrape; the caller appends the
    /// `telemetry_dropped` self-metric and `# EOF`.
    pub fn expose_into(&self, out: &mut String) {
        let fams: Vec<Arc<FamilyInner>> = self.inner.families.lock().clone();
        for fam in fams {
            out.push_str(&format!("# HELP {} {}\n", fam.name, escape_help(&fam.help)));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.prom()));
            for s in &fam.series {
                let label = |extra: Option<(&str, String)>| -> String {
                    let mut parts = Vec::new();
                    if let (Some(k), Some(v)) = (&fam.label_key, &s.label) {
                        parts.push(format!("{k}=\"{}\"", escape_label(v)));
                    }
                    if let Some((k, v)) = extra {
                        parts.push(format!("{k}=\"{}\"", escape_label(&v)));
                    }
                    if parts.is_empty() {
                        String::new()
                    } else {
                        format!("{{{}}}", parts.join(","))
                    }
                };
                match &s.hist {
                    None => {
                        let v = match fam.kind {
                            Kind::Gauge => f64::from_bits(s.value.load(Ordering::Relaxed)),
                            _ => s.value.load(Ordering::Relaxed) as f64,
                        };
                        out.push_str(&format!("{}{} {}\n", fam.name, label(None), fmt_num(v)));
                    }
                    Some(h) => {
                        let c = h.lock().cumulative();
                        for (v, qs) in [(c.p50_us, "0.5"), (c.p95_us, "0.95"), (c.p99_us, "0.99")] {
                            if let Some(v) = v {
                                out.push_str(&format!(
                                    "{}{} {}\n",
                                    fam.name,
                                    label(Some(("quantile", qs.to_string()))),
                                    fmt_num(v)
                                ));
                            }
                        }
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            fam.name,
                            label(None),
                            fmt_num(c.sum)
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            fam.name,
                            label(None),
                            fmt_num(c.count as f64)
                        ));
                    }
                }
            }
        }
    }

    /// Render the `telemetry_dropped` self-metric line(s) for a combined
    /// drop count (callers merging several registries sum their drops).
    pub fn expose_dropped_into(out: &mut String, dropped: u64) {
        out.push_str("# HELP ucudnn_telemetry_dropped_total Label values rejected for exceeding a family's fixed vocabulary.\n");
        out.push_str("# TYPE ucudnn_telemetry_dropped_total counter\n");
        out.push_str(&format!("ucudnn_telemetry_dropped_total {dropped}\n"));
    }

    /// A complete standalone scrape of this registry: families, the
    /// self-metric, and the `# EOF` terminator.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        self.expose_into(&mut out);
        Self::expose_dropped_into(&mut out, self.dropped());
        out.push_str("# EOF\n");
        out
    }
}

/// Prometheus number formatting via the JSON writer: whole numbers print
/// as integers, everything else shortest-round-trip.
fn fmt_num(v: f64) -> String {
    json::num(v).to_json()
}

/// Escape a label value per the Prometheus text format: backslash, double
/// quote, and newline.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a HELP string: backslash and newline.
fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_matches_the_streaming_histogram() {
        // Every histogram records through these; pin the geometry.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(HIST_LO_US), 0);
        assert_eq!(bucket_index(f64::MAX), HIST_BUCKETS - 1);
        for idx in [1usize, 17, 255, HIST_BUCKETS - 1] {
            let upper = bucket_upper(idx);
            assert_eq!(bucket_index(upper * 0.999), idx, "idx {idx}");
        }
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        // The cold-start defect: a 0.0 answer on an empty histogram cannot
        // be told apart from a real 0µs p99, so absence is explicit.
        let mut h = StreamingHistogram::new();
        assert_eq!(h.try_quantile(0.99), None);
        let c = h.cumulative();
        assert_eq!(
            (c.count, c.p50_us, c.p99_us, c.mean()),
            (0, None, None, 0.0)
        );
        // And the first sample flips them to real answers.
        h.record(42.0);
        assert_eq!(h.try_quantile(0.99), Some(42.0));
        let c = h.cumulative();
        assert_eq!(
            (c.p50_us, c.p95_us, c.p99_us),
            (Some(42.0), Some(42.0), Some(42.0))
        );
    }

    #[test]
    fn single_sample_is_exact() {
        let mut h = StreamingHistogram::new();
        h.record(123.4);
        assert_eq!(h.try_quantile(0.5), Some(123.4));
        assert_eq!(h.try_quantile(0.99), Some(123.4));
        assert!((h.cumulative().mean() - 123.4).abs() < 1e-9);
        // Exact across the whole quantile range, including a sub-LO sample.
        let mut lo = StreamingHistogram::new();
        lo.record(0.005);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(lo.try_quantile(q), Some(0.005));
        }
    }

    #[test]
    fn small_counts_match_a_sorted_vec_oracle() {
        // Before the first bucket accumulates bulk, quantiles must track
        // the exact order statistics within one bucket width (~5%).
        let samples = [830.0, 12.5, 96.0, 412.0, 3.3, 1550.0, 96.0, 7.1];
        let mut h = StreamingHistogram::new();
        let mut sorted = Vec::new();
        for (i, &v) in samples.iter().enumerate() {
            h.record(v);
            sorted.push(v);
            sorted.sort_by(f64::total_cmp);
            let n = i + 1;
            for q in [0.5, 0.95, 0.99] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = sorted[rank - 1];
                let got = h.try_quantile(q).unwrap();
                assert!(
                    (got - exact).abs() <= 0.06 * exact,
                    "n={n} q={q}: got {got}, exact {exact}"
                );
            }
            // p99 with n < 100 samples is the maximum, exactly.
            assert_eq!(h.try_quantile(0.99), sorted.last().copied(), "n={n}");
        }
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let mut h = StreamingHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        // p50 ≈ 500, p95 ≈ 950, p99 ≈ 990, each within ~5% relative error.
        for (q, want) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.try_quantile(q).unwrap();
            assert!(
                (got - want).abs() / want < 0.06,
                "q{q}: got {got}, want ~{want}"
            );
        }
        assert_eq!(h.cumulative().count, 1000);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = StreamingHistogram::new();
        for v in [0.5, 2.0, 8.0, 100.0, 5000.0, 5000.0] {
            h.record(v);
        }
        let p = h.cumulative();
        assert!(p.p50_us <= p.p95_us && p.p95_us <= p.p99_us);
        assert!(h.try_quantile(0.0) >= Some(0.5) && h.try_quantile(1.0) <= Some(5000.0));
    }

    #[test]
    fn extreme_and_nonfinite_values_are_safe() {
        let mut h = StreamingHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.cumulative().count, 0);
        h.record(0.0); // below LO -> bucket 0
        h.record(1e12); // beyond range -> clamped to last bucket
        assert_eq!(h.cumulative().count, 2);
        assert!(h.try_quantile(1.0) <= Some(1e12));
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let reg = Registry::new();
        let c = reg.counter("t_total", "test counter");
        let g = reg.gauge("t_gauge", "test gauge");
        let h = reg.histogram("t_hist", "test histogram");
        const THREADS: usize = 8;
        const PER: usize = 2_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (c, g, h) = (c.clone(), g.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..PER {
                        c.inc();
                        g.set_max((t * PER + i) as f64);
                        h.record(100.0);
                    }
                });
            }
        });
        assert_eq!(c.get(), (THREADS * PER) as u64);
        assert_eq!(g.get(), (THREADS * PER - 1) as f64);
        let c = h.cumulative();
        assert_eq!((c.count, c.p99_us), ((THREADS * PER) as u64, Some(100.0)));
    }

    #[test]
    fn exposition_golden_format() {
        let reg = Registry::new();
        let c = reg.counter("ucudnn_t_events_total", "Events seen.");
        c.add(3);
        let v = reg.counter_vec(
            "ucudnn_t_shed_total",
            "Sheds by reason.",
            "reason",
            &["queue_full", "with\"quote"],
        );
        v.with("queue_full").unwrap().add(2);
        v.with("with\"quote").unwrap().inc();
        let g = reg.gauge("ucudnn_t_depth", "Queue depth.");
        g.set(4.5);
        let h = reg.histogram("ucudnn_t_latency_us", "Latency.");
        h.record(100.0);
        let got = reg.expose();
        let want = "\
# HELP ucudnn_t_events_total Events seen.
# TYPE ucudnn_t_events_total counter
ucudnn_t_events_total 3
# HELP ucudnn_t_shed_total Sheds by reason.
# TYPE ucudnn_t_shed_total counter
ucudnn_t_shed_total{reason=\"queue_full\"} 2
ucudnn_t_shed_total{reason=\"with\\\"quote\"} 1
# HELP ucudnn_t_depth Queue depth.
# TYPE ucudnn_t_depth gauge
ucudnn_t_depth 4.5
# HELP ucudnn_t_latency_us Latency.
# TYPE ucudnn_t_latency_us summary
ucudnn_t_latency_us{quantile=\"0.5\"} 100
ucudnn_t_latency_us{quantile=\"0.95\"} 100
ucudnn_t_latency_us{quantile=\"0.99\"} 100
ucudnn_t_latency_us_sum 100
ucudnn_t_latency_us_count 1
# HELP ucudnn_telemetry_dropped_total Label values rejected for exceeding a family's fixed vocabulary.
# TYPE ucudnn_telemetry_dropped_total counter
ucudnn_telemetry_dropped_total 0
# EOF
";
        assert_eq!(got, want);
    }

    #[test]
    fn out_of_vocabulary_labels_are_rejected_and_counted() {
        let reg = Registry::new();
        let v = reg.counter_vec("t_total", "t", "reason", &["a", "b"]);
        assert!(v.with("a").is_some());
        assert!(v.with("hostile{injection=\"x\"}").is_none());
        assert!(v.with("c").is_none());
        assert_eq!(reg.dropped(), 2);
        let text = reg.expose();
        assert!(text.contains("ucudnn_telemetry_dropped_total 2"));
        // The rejected values minted no series.
        assert!(!text.contains("hostile"));
    }

    #[test]
    fn families_are_idempotent_and_shape_checked() {
        let reg = Registry::new();
        let a = reg.counter("t_total", "t");
        let b = reg.counter("t_total", "t");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same name shares the series");
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.gauge("t_total", "t")));
        assert!(r.is_err(), "kind mismatch must be loud");
    }
}
