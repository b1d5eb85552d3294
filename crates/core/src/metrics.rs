//! Optimization-time metrics: where does μ-cuDNN's setup cost go?
//!
//! The paper reports optimizer overhead as a single wall-clock number
//! (§IV-E); this module breaks it down by phase — micro-benchmarking, WR
//! dynamic programming, Pareto-front construction, and WD ILP solving — and
//! pairs it with the cache traffic counters so a training run can tell *why*
//! setup was fast or slow (e.g. 95% cache hits after a warm file DB load).
//!
//! Every number lives in a [`crate::telemetry::Registry`]: the optimizer
//! worker threads record into lock-free instrument handles, the JSON report
//! ([`OptimizerMetrics::to_json`]) and the Prometheus-style exposition
//! ([`OptimizerMetrics::registry`]) both read the same instruments — one
//! source of truth instead of parallel counter sets. Cache and fault
//! tallies owned elsewhere ([`CacheStats`], [`ExecCacheStats`], the fault
//! injector) are mirrored into the registry by
//! [`OptimizerMetrics::sync_cache`] at export time.
//!
//! Phase times are *aggregated over threads*, so with N workers the
//! per-phase sums can exceed the end-to-end wall clock; `total_wall` is the
//! actual elapsed time, to which each WR installation and each WD solve adds
//! its own interval once. The ratio between the two is the parallel speedup.

use crate::bench_cache::CacheStats;
use crate::json::{self, Value};
use crate::telemetry::{Counter, Gauge, Registry};
use ucudnn_cudnn_sim::ExecCacheStats;

/// The optimizer phases that are individually timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Micro-benchmark evaluation: benchmark-cache lookups, with `Find`
    /// on a miss.
    Benchmark,
    /// WR dynamic programming over batch divisions.
    Dp,
    /// WD's desirable-set DP, after its benchmark lookups.
    Pareto,
    /// Solving WD's multiple-choice knapsack (the 0-1 ILP).
    Ilp,
}

/// Immutable snapshot of the per-phase timings, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Micro-benchmarking time, summed across worker threads.
    pub benchmark_us: u64,
    /// WR dynamic-programming time, summed across worker threads.
    pub dp_us: u64,
    /// Desirable-set DP time (benchmark lookups excluded), summed across
    /// worker threads.
    pub pareto_us: u64,
    /// ILP solve time (always single-threaded).
    pub ilp_us: u64,
    /// End-to-end optimization wall clock (not a sum over threads).
    pub total_us: u64,
}

/// Shared, thread-safe metrics collector for one optimization run, backed
/// by a [`Registry`] of typed instruments.
#[derive(Debug)]
pub struct OptimizerMetrics {
    registry: Registry,
    benchmark_us: Counter,
    dp_us: Counter,
    pareto_us: Counter,
    ilp_us: Counter,
    total_wall_us: Gauge,
    threads: Gauge,
    kernels: Counter,
    degradations: Counter,
    // Mirrors of externally owned tallies, written by `sync_cache`.
    cache_hits: Counter,
    cache_misses: Counter,
    cache_single_flight: Counter,
    cache_points_dropped: Counter,
    cache_points_over_budget: Counter,
    cache_db_loaded: Counter,
    cache_db_quarantined: Counter,
    exec_cache_hits: Counter,
    exec_cache_misses: Counter,
    exec_cache_evictions: Counter,
    exec_cache_bytes: Gauge,
    faults_injected: Counter,
}

impl Default for OptimizerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl OptimizerMetrics {
    /// Fresh collector with all instruments at zero.
    pub fn new() -> Self {
        let registry = Registry::new();
        let phase = registry.counter_vec(
            "ucudnn_opt_phase_us_total",
            "Optimizer time by phase, microseconds, summed across worker threads.",
            "phase",
            &["benchmark", "dp", "pareto", "ilp"],
        );
        let known = |key: &str| phase.with(key).expect("phase in vocabulary");
        Self {
            benchmark_us: known("benchmark"),
            dp_us: known("dp"),
            pareto_us: known("pareto"),
            ilp_us: known("ilp"),
            total_wall_us: registry.gauge(
                "ucudnn_opt_total_wall_us",
                "End-to-end optimization wall clock, microseconds.",
            ),
            threads: registry.gauge(
                "ucudnn_opt_threads",
                "Worker threads used by the last optimization run.",
            ),
            kernels: registry.counter(
                "ucudnn_opt_kernels_total",
                "Kernels whose plans were (re)computed.",
            ),
            degradations: registry.counter(
                "ucudnn_opt_degradations_total",
                "Graceful-degradation ladder steps taken by the optimizer.",
            ),
            cache_hits: registry.counter("ucudnn_cache_hits_total", "Benchmark cache hits."),
            cache_misses: registry.counter(
                "ucudnn_cache_misses_total",
                "Benchmark cache misses (micro-benchmarks actually run).",
            ),
            cache_single_flight: registry.counter(
                "ucudnn_cache_single_flight_waits_total",
                "Threads that waited on another thread's in-flight benchmark.",
            ),
            cache_points_dropped: registry.counter(
                "ucudnn_cache_bench_points_dropped_total",
                "Benchmark points dropped after persistent faults.",
            ),
            cache_points_over_budget: registry.counter(
                "ucudnn_cache_bench_points_over_budget_total",
                "Benchmark points over the lookup's workspace budget, never run.",
            ),
            cache_db_loaded: registry.counter(
                "ucudnn_cache_db_rows_loaded_total",
                "Rows loaded from the benchmark file DB.",
            ),
            cache_db_quarantined: registry.counter(
                "ucudnn_cache_db_rows_quarantined_total",
                "File-DB rows quarantined as corrupt.",
            ),
            exec_cache_hits: registry
                .counter("ucudnn_exec_cache_hits_total", "Execution-plan cache hits."),
            exec_cache_misses: registry.counter(
                "ucudnn_exec_cache_misses_total",
                "Execution-plan cache misses.",
            ),
            exec_cache_evictions: registry.counter(
                "ucudnn_exec_cache_evictions_total",
                "Execution-plan cache evictions.",
            ),
            exec_cache_bytes: registry.gauge(
                "ucudnn_exec_cache_bytes",
                "Bytes resident in the execution-plan cache.",
            ),
            faults_injected: registry.counter(
                "ucudnn_faults_injected_total",
                "Faults injected by the deterministic fault injector.",
            ),
            registry,
        }
    }

    /// The registry backing this collector; clone it to scrape or compose
    /// expositions ([`Registry::expose_into`]).
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// Add `micros` to a phase counter.
    pub fn add(&self, phase: Phase, micros: u64) {
        let counter = match phase {
            Phase::Benchmark => &self.benchmark_us,
            Phase::Dp => &self.dp_us,
            Phase::Pareto => &self.pareto_us,
            Phase::Ilp => &self.ilp_us,
        };
        counter.add(micros);
    }

    /// Add one optimization's end-to-end wall clock (a WR installation or a
    /// WD solve) to the total.
    pub(crate) fn add_total_us(&self, micros: f64) {
        self.total_wall_us.add(micros);
    }

    /// End-to-end optimization wall clock recorded so far, microseconds.
    pub(crate) fn total_wall_us(&self) -> f64 {
        self.total_wall_us.get()
    }

    #[cfg(test)]
    fn set_total_us(&self, micros: u64) {
        self.total_wall_us.set(micros as f64);
    }

    /// Record how many worker threads the run used.
    pub fn set_threads(&self, n: usize) {
        self.threads.set(n as f64);
    }

    /// Count kernels whose plans were (re)computed.
    pub fn add_kernels(&self, n: usize) {
        self.kernels.add(n as u64);
    }

    /// Worker thread count of the last run.
    pub fn threads(&self) -> usize {
        self.threads.get() as usize
    }

    /// Total kernels optimized so far.
    pub fn kernels(&self) -> u64 {
        self.kernels.get()
    }

    /// Record one graceful degradation: a plan fell down a rung of the
    /// ladder (dropped benchmark point, undivided fallback, shrunk
    /// workspace) instead of failing the optimization.
    pub fn degradation(&self) {
        self.degradations.inc();
    }

    /// Degradations recorded so far.
    pub fn degradations(&self) -> u64 {
        self.degradations.get()
    }

    /// Snapshot the per-phase timings.
    pub fn timings(&self) -> PhaseTimings {
        PhaseTimings {
            benchmark_us: self.benchmark_us.get(),
            dp_us: self.dp_us.get(),
            pareto_us: self.pareto_us.get(),
            ilp_us: self.ilp_us.get(),
            total_us: self.total_wall_us.get() as u64,
        }
    }

    /// Mirror the externally owned tallies — benchmark cache, execution
    /// cache, fault injector — into the registry so a scrape sees them
    /// without knowing about those structs. Absolute sync: callers pass the
    /// current totals.
    pub fn sync_cache(&self, cache: &CacheStats, exec_cache: &ExecCacheStats, faults: u64) {
        self.cache_hits.set(cache.hits);
        self.cache_misses.set(cache.misses);
        self.cache_single_flight.set(cache.single_flight_waits);
        self.cache_points_dropped.set(cache.bench_points_dropped);
        self.cache_points_over_budget
            .set(cache.bench_points_over_budget);
        self.cache_db_loaded.set(cache.db_rows_loaded);
        self.cache_db_quarantined.set(cache.db_rows_quarantined);
        self.exec_cache_hits.set(exec_cache.hits);
        self.exec_cache_misses.set(exec_cache.misses);
        self.exec_cache_evictions.set(exec_cache.evictions);
        self.exec_cache_bytes.set(exec_cache.bytes as f64);
        self.faults_injected.set(faults);
    }

    /// Render the full metrics report as a JSON document: per-phase
    /// timings, cache traffic, per-kernel benchmark counts, the
    /// execution-plan cache counters, and the robustness ledger
    /// (degradations, injected faults, and DB quarantine counts).
    /// `faults_injected` comes from the substrate's fault injector
    /// ([`ucudnn_cudnn_sim::CudnnHandle::faults_injected`]); `exec_cache`
    /// from [`ucudnn_cudnn_sim::CudnnHandle::exec_cache_stats`]. The same
    /// call mirrors those tallies into the registry, so the JSON report and
    /// a subsequent exposition agree.
    pub fn to_json(
        &self,
        cache: CacheStats,
        bench_counts: &[(String, u64)],
        faults_injected: u64,
        exec_cache: ExecCacheStats,
    ) -> String {
        self.sync_cache(&cache, &exec_cache, faults_injected);
        let t = self.timings();
        // Degradations observed anywhere: explicit ladder steps recorded by
        // the optimizers plus benchmark points the cache had to drop. Points
        // over the lookup's budget are not among them: no plan within the
        // budget could have used them.
        let degradations = self.degradations() + cache.bench_points_dropped;
        json::obj([
            (
                "phases_us",
                json::obj([
                    ("benchmark", json::num(t.benchmark_us as f64)),
                    ("dp", json::num(t.dp_us as f64)),
                    ("pareto", json::num(t.pareto_us as f64)),
                    ("ilp", json::num(t.ilp_us as f64)),
                    ("total_wall", json::num(t.total_us as f64)),
                ]),
            ),
            ("threads", json::num(self.threads() as f64)),
            ("kernels_optimized", json::num(self.kernels() as f64)),
            (
                "cache",
                json::obj([
                    ("hits", json::num(cache.hits as f64)),
                    ("misses", json::num(cache.misses as f64)),
                    (
                        "single_flight_waits",
                        json::num(cache.single_flight_waits as f64),
                    ),
                    (
                        "bench_points_over_budget",
                        json::num(cache.bench_points_over_budget as f64),
                    ),
                ]),
            ),
            (
                "exec_cache",
                json::obj([
                    ("hits", json::num(exec_cache.hits as f64)),
                    ("misses", json::num(exec_cache.misses as f64)),
                    ("evictions", json::num(exec_cache.evictions as f64)),
                    ("bytes", json::num(exec_cache.bytes as f64)),
                ]),
            ),
            (
                "robustness",
                json::obj([
                    ("degradations", json::num(degradations as f64)),
                    ("faults_injected", json::num(faults_injected as f64)),
                    (
                        "bench_points_dropped",
                        json::num(cache.bench_points_dropped as f64),
                    ),
                    ("db_rows_loaded", json::num(cache.db_rows_loaded as f64)),
                    (
                        "db_rows_quarantined",
                        json::num(cache.db_rows_quarantined as f64),
                    ),
                ]),
            ),
            (
                "benchmark_counts",
                Value::Obj(
                    bench_counts
                        .iter()
                        .map(|(k, n)| (k.clone(), json::num(*n as f64)))
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_independently() {
        let m = OptimizerMetrics::new();
        m.add(Phase::Benchmark, 10);
        m.add(Phase::Benchmark, 5);
        m.add(Phase::Dp, 7);
        m.add(Phase::Pareto, 3);
        m.add(Phase::Ilp, 2);
        m.set_total_us(20);
        let t = m.timings();
        assert_eq!(t.benchmark_us, 15);
        assert_eq!(t.dp_us, 7);
        assert_eq!(t.pareto_us, 3);
        assert_eq!(t.ilp_us, 2);
        assert_eq!(t.total_us, 20);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = OptimizerMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.add(Phase::Dp, 1);
                    }
                });
            }
        });
        assert_eq!(m.timings().dp_us, 8000);
    }

    #[test]
    fn json_export_is_parseable_and_complete() {
        let m = OptimizerMetrics::new();
        m.add(Phase::Benchmark, 100);
        m.set_total_us(150);
        m.set_threads(4);
        m.add_kernels(9);
        m.degradation();
        let stats = crate::CacheStats {
            hits: 3,
            misses: 2,
            single_flight_waits: 1,
            bench_points_dropped: 4,
            bench_points_over_budget: 5,
            db_rows_loaded: 7,
            db_rows_quarantined: 2,
        };
        let counts = vec![("fwd[k]".to_string(), 1u64)];
        let exec = ExecCacheStats {
            hits: 12,
            misses: 3,
            evictions: 1,
            bytes: 2048,
        };
        let text = m.to_json(stats, &counts, 6, exec);
        let doc = Value::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("phases_us")
                .unwrap()
                .get("benchmark")
                .unwrap()
                .as_u64(),
            Some(100)
        );
        assert_eq!(
            doc.get("phases_us")
                .unwrap()
                .get("total_wall")
                .unwrap()
                .as_u64(),
            Some(150)
        );
        assert_eq!(doc.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("kernels_optimized").unwrap().as_u64(), Some(9));
        assert_eq!(
            doc.get("cache").unwrap().get("hits").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(
            doc.get("cache")
                .unwrap()
                .get("single_flight_waits")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            doc.get("benchmark_counts")
                .unwrap()
                .get("fwd[k]")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let ec = doc.get("exec_cache").unwrap();
        assert_eq!(ec.get("hits").unwrap().as_u64(), Some(12));
        assert_eq!(ec.get("misses").unwrap().as_u64(), Some(3));
        assert_eq!(ec.get("evictions").unwrap().as_u64(), Some(1));
        assert_eq!(ec.get("bytes").unwrap().as_u64(), Some(2048));
        assert_eq!(
            doc.get("cache")
                .unwrap()
                .get("bench_points_over_budget")
                .unwrap()
                .as_u64(),
            Some(5)
        );
        let rob = doc.get("robustness").unwrap();
        // 1 explicit degradation + 4 dropped benchmark points; the 5 points
        // over budget are not degradations.
        assert_eq!(rob.get("degradations").unwrap().as_u64(), Some(5));
        assert_eq!(rob.get("faults_injected").unwrap().as_u64(), Some(6));
        assert_eq!(rob.get("db_rows_loaded").unwrap().as_u64(), Some(7));
        assert_eq!(rob.get("db_rows_quarantined").unwrap().as_u64(), Some(2));
        // The same export mirrored the external tallies into the registry:
        // a scrape agrees with the JSON document (satellite: one schema).
        let text = m.registry().expose();
        for line in [
            "ucudnn_opt_phase_us_total{phase=\"benchmark\"} 100",
            "ucudnn_cache_hits_total 3",
            "ucudnn_cache_bench_points_over_budget_total 5",
            "ucudnn_exec_cache_hits_total 12",
            "ucudnn_exec_cache_bytes 2048",
            "ucudnn_faults_injected_total 6",
            "ucudnn_opt_degradations_total 1",
        ] {
            assert!(text.contains(line), "exposition missing {line:?}:\n{text}");
        }
    }
}
