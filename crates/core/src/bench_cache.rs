//! Concurrent benchmark-result caching (§III-D).
//!
//! μ-cuDNN benchmarks each (kernel, micro-batch size) pair once and caches
//! the per-algorithm results in memory, optionally persisting them to a
//! file-based database so repeated runs — or other nodes of a homogeneous
//! cluster sharing a network filesystem — skip the benchmark entirely.
//! Networks that replicate identically-shaped layers (ResNet) hit this cache
//! constantly.
//!
//! Every lookup carries a workspace budget, and the substrate's `Find` only
//! benchmarks algorithms that fit it ([`CudnnHandle::find_algorithms_within`]):
//! the optimizers only ever use `t*(m)` within their limit, so timing the
//! rest is wasted set-up. Each entry records the budget it has been
//! *measured up to*. A lookup at or below that budget is served from the
//! entry; a larger one benchmarks only the algorithms the larger budget
//! newly admits and merges them in. A lookup therefore returns exactly the
//! rows an unbudgeted `Find` would return with workspace within its budget,
//! and no algorithm is measured twice, whatever order the budgets arrive in.
//!
//! The cache is a shared, lock-sharded structure: any number of optimizer
//! threads may look entries up through `&BenchCache` concurrently. Per-key
//! *single-flight* arbitration guarantees that no algorithm is ever
//! measured twice — the first thread whose budget needs a benchmark becomes
//! the key's leader and runs it while later requesters block on a condition
//! variable until the result lands (counted in
//! [`CacheStats::single_flight_waits`]). Benchmarks always run outside every
//! lock, so independent keys never serialize behind each other.

use crate::json::{self, Value};
use crate::kernel::KernelKey;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ucudnn_cudnn_sim::{
    AlgoStatus, ConvOp, ConvolutionDescriptor, CudnnError, CudnnHandle, Engine, FilterDescriptor,
    TensorDescriptor,
};
use ucudnn_gpu_model::ConvAlgo;

/// File-DB format version. Bump on any incompatible layout change; files
/// with an unknown (or missing) version are quarantined wholesale rather
/// than half-parsed. Version 2 files, written before rows carried their
/// budget, still load: their rows came from complete `Find`s.
const DB_VERSION: usize = 3;

/// One cached benchmark row (a persistable `AlgoPerf`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchEntry {
    /// The algorithm.
    pub algo: ConvAlgo,
    /// Benchmarked time in microseconds.
    pub time_us: f64,
    /// Workspace requirement in bytes.
    pub memory_bytes: usize,
}

/// Cache key: the engine identity plus the micro-batch kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    engine: String,
    kernel: KernelKey,
}

/// Engine tag of `RealCpu` rows. Its suffix is the revision of the CPU
/// engines behind the algorithms: bump it whenever an algorithm's engine
/// changes, so rows timed on the old engine are measured again rather than
/// served. Revision 2 runs `IMPLICIT_GEMM` on the implicit-GEMM engine
/// instead of the seven-loop direct convolution; revision 3 runs `GEMM` and
/// `IMPLICIT_PRECOMP_GEMM` on it too, without their one-sample column
/// buffer; revision 4 runs no CPU kernel for `FFT` and `FFT_TILING`;
/// revision 5 runs every GEMM and Winograd algorithm on the 12x16 AVX-512
/// register tile where the build targets AVX-512.
const CPU_TAG: &str = "cpu:5";

/// Identity string of a handle's engine; results from different devices
/// must never be mixed.
fn engine_tag(handle: &CudnnHandle) -> String {
    match handle.engine() {
        Engine::Simulated(d) => format!("sim:{}", d.name),
        Engine::RealCpu => CPU_TAG.to_string(),
    }
}

/// Cache traffic counters. All counters are updated atomically, so a
/// snapshot taken while optimizer threads are running is internally
/// consistent per counter (not across counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory (or the loaded file DB) without blocking
    /// on an in-flight benchmark.
    pub hits: u64,
    /// Lookups that ran a benchmark (this thread was the key's leader).
    pub misses: u64,
    /// Lookups that found another thread already benchmarking the same key
    /// and blocked until its result landed.
    pub single_flight_waits: u64,
    /// (algo, micro-batch) measurements dropped because the algorithm
    /// failed while benchmarking — each is a degradation of the search
    /// space the optimizer would otherwise have explored.
    pub bench_points_dropped: u64,
    /// (algo, micro-batch) points a budgeted `Find` reported over the
    /// lookup's budget and never ran, summed over benchmark runs. Not a
    /// degradation: no plan within the budget could use them.
    pub bench_points_over_budget: u64,
    /// Rows accepted from the file DB at load time.
    pub db_rows_loaded: u64,
    /// Rows (or whole files counted as one) rejected at load time:
    /// malformed fields, truncation, a wrong/missing format version, or
    /// timings of an earlier CPU engine revision.
    pub db_rows_quarantined: u64,
}

/// What a lookup returns: the measurements within its budget, or the
/// failure every lookup at that budget observes (failures are cached too —
/// retrying a permanently faulted kernel on every lookup would serialize
/// the optimizer behind known-dead benchmarks).
type BenchOutcome = Result<Vec<BenchEntry>, CudnnError>;

/// The measurements of one (engine, kernel) key.
#[derive(Debug, Default)]
struct Measured {
    /// The budget the entry has been measured up to: every supported
    /// algorithm whose workspace fits it has been benchmarked.
    up_to: usize,
    /// Successful rows, by time, then algorithm id.
    rows: Vec<BenchEntry>,
    /// Smallest workspace among the algorithms that failed while
    /// benchmarking: a budget that admits a failure but no success is a
    /// failed benchmark.
    min_failed_bytes: Option<usize>,
}

impl Measured {
    /// The lookup result at a budget up to `up_to`.
    fn within(&self, budget: usize) -> BenchOutcome {
        let rows: Vec<BenchEntry> = self
            .rows
            .iter()
            .filter(|e| e.memory_bytes <= budget)
            .copied()
            .collect();
        if rows.is_empty() && self.min_failed_bytes.is_some_and(|b| b <= budget) {
            return Err(CudnnError::ExecutionFailed(
                "every algorithm failed while benchmarking".into(),
            ));
        }
        Ok(rows)
    }
}

/// Rows in lookup order: by time, then algorithm id.
fn sort_rows(rows: &mut [BenchEntry]) {
    rows.sort_by(|a, b| {
        a.time_us
            .total_cmp(&b.time_us)
            .then(a.algo.id().cmp(&b.algo.id()))
    });
}

/// A key's measurements plus whether a leader is widening them.
#[derive(Debug, Default)]
struct SlotState {
    /// `None` before the first benchmark; an error when the substrate
    /// refused the kernel itself, which no budget changes.
    measured: Option<Result<Measured, CudnnError>>,
    in_flight: bool,
}

impl SlotState {
    fn covers(&self, budget: usize) -> bool {
        match &self.measured {
            None => false,
            Some(Ok(m)) => m.up_to >= budget,
            Some(Err(_)) => true,
        }
    }

    /// The smallest workspace the entry has not been measured at.
    fn unmeasured_from(&self) -> usize {
        match &self.measured {
            Some(Ok(m)) => m.up_to + 1,
            _ => 0,
        }
    }

    /// The lookup result at a budget the entry covers.
    fn within(&self, budget: usize) -> BenchOutcome {
        match &self.measured {
            Some(Ok(m)) => m.within(budget),
            Some(Err(e)) => Err(e.clone()),
            None => Ok(Vec::new()),
        }
    }

    /// Fold in a benchmark of the algorithms up to `budget` that the entry
    /// was not measured at yet.
    fn merge(&mut self, run: Result<FindRun, CudnnError>, budget: usize) {
        self.measured = Some(match (self.measured.take(), run) {
            (_, Err(e)) => Err(e),
            (earlier, Ok(run)) => {
                let mut m = earlier.and_then(Result::ok).unwrap_or_default();
                m.rows.extend(run.rows);
                sort_rows(&mut m.rows);
                m.min_failed_bytes = m.min_failed_bytes.into_iter().chain(run.failed_bytes).min();
                m.up_to = budget;
                Ok(m)
            }
        });
    }
}

/// Per-key single-flight slot. Waiters sleep on `ready` while a leader
/// benchmarks outside the lock.
#[derive(Debug, Default)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
    /// How many times this key's benchmark actually ran: once per budget
    /// widening (0 for entries loaded from the file DB).
    runs: AtomicU64,
}

/// A slot's leadership: dropping it clears the in-flight mark and wakes the
/// waiters, also when the leader's benchmark panics, so that a panic never
/// leaves later lookups of the key waiting for good.
struct Lead<'a>(&'a Slot);

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        self.0.state.lock().in_flight = false;
        self.0.ready.notify_all();
    }
}

const SHARD_COUNT: usize = 16;

type Shard = RwLock<HashMap<CacheKey, Arc<Slot>>>;

/// The concurrent benchmark cache. Shared by reference across optimizer
/// threads; all methods take `&self`.
#[derive(Debug)]
pub struct BenchCache {
    shards: Vec<Shard>,
    file: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    single_flight_waits: AtomicU64,
    bench_points_dropped: AtomicU64,
    bench_points_over_budget: AtomicU64,
    db_rows_loaded: AtomicU64,
    db_rows_quarantined: AtomicU64,
}

impl BenchCache {
    /// In-memory-only cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            file: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            single_flight_waits: AtomicU64::new(0),
            bench_points_dropped: AtomicU64::new(0),
            bench_points_over_budget: AtomicU64::new(0),
            db_rows_loaded: AtomicU64::new(0),
            db_rows_quarantined: AtomicU64::new(0),
        }
    }

    /// Cache backed by a JSON database at `path`. Existing contents are
    /// loaded row by row: valid rows land in the cache
    /// ([`CacheStats::db_rows_loaded`]), malformed or stale rows are
    /// *quarantined* — skipped and counted
    /// ([`CacheStats::db_rows_quarantined`]) — never coerced into
    /// zero-valued measurements or served. A missing file is a cold
    /// cache; a file with an unknown or missing format version is
    /// quarantined wholesale.
    pub fn with_file(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().to_path_buf();
        let mut cache = Self::new();
        cache.file = Some(path.clone());
        if let Ok(text) = std::fs::read_to_string(&path) {
            let (rows, loaded, quarantined) = load_db(&text);
            cache.db_rows_loaded.store(loaded, Ordering::Relaxed);
            cache
                .db_rows_quarantined
                .store(quarantined, Ordering::Relaxed);
            for (key, up_to, rows) in rows {
                let slot = Slot::default();
                slot.state.lock().measured = Some(Ok(Measured {
                    up_to,
                    rows,
                    min_failed_bytes: None,
                }));
                let shard = &cache.shards[shard_index(&key)];
                shard.write().insert(key, Arc::new(slot));
            }
        }
        cache
    }

    /// Number of cached (kernel, micro-batch) entries holding at least one
    /// measurement (in-flight first benchmarks and failed keys are not
    /// counted).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|slot| {
                        matches!(&slot.state.lock().measured, Some(Ok(m)) if !m.rows.is_empty())
                    })
                    .count()
            })
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            single_flight_waits: self.single_flight_waits.load(Ordering::Relaxed),
            bench_points_dropped: self.bench_points_dropped.load(Ordering::Relaxed),
            bench_points_over_budget: self.bench_points_over_budget.load(Ordering::Relaxed),
            db_rows_loaded: self.db_rows_loaded.load(Ordering::Relaxed),
            db_rows_quarantined: self.db_rows_quarantined.load(Ordering::Relaxed),
        }
    }

    /// Every algorithm's benchmark for `kernel` (whose `input.n` *is* the
    /// micro-batch size), served from cache when possible, fastest-first:
    /// [`Self::try_get_or_bench`] with an unlimited budget, failures read
    /// as no rows.
    pub fn get_or_bench(&self, handle: &CudnnHandle, kernel: &KernelKey) -> Vec<BenchEntry> {
        self.try_get_or_bench(handle, kernel, usize::MAX)
            .unwrap_or_default()
    }

    /// The benchmark rows of the algorithms whose workspace fits `budget`,
    /// by time, then algorithm id — exactly the rows of an unbudgeted
    /// `Find` within the budget. Only algorithms the entry has not been
    /// measured up to are benchmarked.
    ///
    /// Safe to call from many threads at once: per-key single-flight
    /// arbitration ensures no algorithm is benchmarked twice, and
    /// benchmarks for distinct keys proceed in parallel.
    ///
    /// # Errors
    /// The substrate's refusal of the kernel, or — when every algorithm
    /// within the budget failed while benchmarking — an execution failure;
    /// cached like any other result.
    ///
    /// # Panics
    /// Panics when `kernel`'s geometry is invalid (a zero stride, mismatched
    /// channels, or a filter larger than the padded input): the benchmark
    /// builds it with `ConvGeometry::new`. Keys built from descriptors, and
    /// the keys `UcudnnHandle::optimize_network` takes, are validated before
    /// they reach the cache. The panic does not wedge the key's slot: the
    /// next lookup benchmarks again.
    pub fn try_get_or_bench(
        &self,
        handle: &CudnnHandle,
        kernel: &KernelKey,
        budget: usize,
    ) -> BenchOutcome {
        let slot = self.slot_for(CacheKey {
            engine: engine_tag(handle),
            kernel: *kernel,
        });
        let mut st = slot.state.lock();
        let mut waited = false;
        while !st.covers(budget) {
            if !st.in_flight {
                return self.lead(handle, kernel, &slot, st, budget);
            }
            // A leader is benchmarking; block until its result lands rather
            // than measuring the same algorithms twice. It may stop short
            // of this budget, in which case this thread leads next.
            waited = true;
            slot.ready.wait(&mut st);
        }
        let counter = if waited {
            &self.single_flight_waits
        } else {
            &self.hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        st.within(budget)
    }

    /// Benchmark, as the key's leader, the algorithms up to `budget` that
    /// the slot is not measured up to yet with one `Find`, count its failed
    /// rows into [`CacheStats::bench_points_dropped`] and its over-budget
    /// rows into [`CacheStats::bench_points_over_budget`], then publish them
    /// and wake the waiters.
    fn lead(
        &self,
        handle: &CudnnHandle,
        kernel: &KernelKey,
        slot: &Slot,
        mut st: parking_lot::MutexGuard<'_, SlotState>,
        budget: usize,
    ) -> BenchOutcome {
        self.misses.fetch_add(1, Ordering::Relaxed);
        st.in_flight = true;
        let window = st.unmeasured_from()..=budget;
        drop(st);
        let lead = Lead(slot);
        let run = run_benchmark(handle, kernel, window);
        slot.runs.fetch_add(1, Ordering::Relaxed);
        if let Ok(run) = &run {
            self.bench_points_dropped
                .fetch_add(run.failed_bytes.len() as u64, Ordering::Relaxed);
            self.bench_points_over_budget
                .fetch_add(run.over_budget, Ordering::Relaxed);
        }
        let mut st = slot.state.lock();
        st.merge(run, budget);
        let outcome = st.within(budget);
        drop(st);
        drop(lead);
        // Single-flight means exactly one such event per benchmarked
        // window of a micro kernel — the event set is thread-count-invariant.
        crate::trace::event("bench", "benchmark", || {
            (
                kernel.to_string(),
                crate::json::obj([
                    (
                        "entries",
                        crate::json::num(outcome.as_ref().map_or(0, Vec::len) as f64),
                    ),
                    ("failed", crate::json::Value::Bool(outcome.is_err())),
                ]),
            )
        });
        outcome
    }

    /// Find or create the slot for `key`.
    fn slot_for(&self, key: CacheKey) -> Arc<Slot> {
        let shard = &self.shards[shard_index(&key)];
        if let Some(slot) = shard.read().get(&key) {
            return Arc::clone(slot);
        }
        Arc::clone(shard.write().entry(key).or_default())
    }

    /// Benchmark many (kernel, micro-batch) pairs within `budget`,
    /// evaluating cache misses on parallel threads (at most one per core)
    /// — the analogue of μ-cuDNN's multi-GPU parallel micro-benchmark
    /// evaluation (§III-D). Redundant with looking keys up from worker
    /// threads, but kept as the warm-up entry point for callers that batch
    /// their keys up front.
    pub fn prefetch(
        &self,
        handle: &CudnnHandle,
        kernels: &[KernelKey],
        budget: usize,
        parallel: bool,
    ) {
        let threads = if parallel {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            1
        };
        // A key whose benchmark panics twice is left to the lookup that
        // needs it.
        let _ = crate::fanout::fan_out(kernels, threads, |k| {
            let _ = self.try_get_or_bench(handle, k, budget);
        });
    }

    /// Per-kernel benchmark-run counts, sorted by kernel label. Under the
    /// single-flight guarantee every count is the number of budgets that
    /// widened the entry — 1 when all lookups share one budget (file-DB
    /// entries that were never re-measured do not appear).
    pub fn benchmark_counts(&self) -> Vec<(String, u64)> {
        let mut counts: Vec<(String, u64)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .filter_map(|(key, slot)| {
                        let runs = slot.runs.load(Ordering::Relaxed);
                        (runs > 0).then(|| (format!("{}@{}", key.kernel, key.engine), runs))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        counts.sort();
        counts
    }

    /// Benchmark-run counts aggregated per *base* kernel — the micro-batch
    /// dimension is folded away, so one optimized layer kernel contributes
    /// one row whose count is the number of micro-batch sizes measured for
    /// it. This is the reporting granularity of
    /// [`crate::OptimizerMetrics::to_json`]; use
    /// [`Self::benchmark_counts`] for the per-entry invariant.
    pub fn benchmark_counts_by_kernel(&self) -> Vec<(String, u64)> {
        let mut counts: Vec<(String, u64)> = Vec::new();
        for shard in &self.shards {
            for (key, slot) in shard.read().iter() {
                let runs = slot.runs.load(Ordering::Relaxed);
                if runs == 0 {
                    continue;
                }
                let label = base_kernel_label(key);
                match counts.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, n)) => *n += runs,
                    None => counts.push((label, runs)),
                }
            }
        }
        counts.sort();
        counts
    }

    /// Persist the cache to its file DB (no-op for in-memory caches).
    /// Rows are sorted by key, so identical contents produce byte-identical
    /// files regardless of benchmarking order or thread count. Each row
    /// keeps the budget its entry was measured up to. Only successful
    /// measurements are persisted — cached benchmark *failures* are runtime
    /// state, not truth worth sharing with other nodes.
    ///
    /// The write is atomic: the document lands in a `<name>.tmp` sibling
    /// first and is renamed over the target, so a reader (or a crash)
    /// mid-save can never observe a torn database.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(&self) -> std::io::Result<()> {
        let Some(path) = &self.file else {
            return Ok(());
        };
        let mut rows: Vec<DbRow> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .filter_map(|(key, slot)| match &slot.state.lock().measured {
                        Some(Ok(m)) if !m.rows.is_empty() => {
                            Some((key.clone(), m.up_to, m.rows.clone()))
                        }
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        rows.sort_by_key(|(k, _, _)| (k.engine.clone(), format!("{}", k.kernel)));
        let doc = json::obj([
            ("version", json::num(DB_VERSION as f64)),
            (
                "rows",
                Value::Arr(
                    rows.iter()
                        .map(|(k, up_to, v)| row_to_json(k, *up_to, v))
                        .collect(),
                ),
            ),
        ]);
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        std::fs::write(&tmp, doc.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

impl Default for BenchCache {
    fn default() -> Self {
        Self::new()
    }
}

fn shard_index(key: &CacheKey) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARD_COUNT
}

/// Kernel label with the micro-batch size (`input.n`) elided, shared by
/// every micro-batch entry of one optimized layer kernel.
fn base_kernel_label(key: &CacheKey) -> String {
    let k = &key.kernel;
    format!(
        "{}[in=*x{}x{}x{} filt={}x{}x{}x{} pad={}x{} stride={}x{}]@{}",
        op_tag(k.op),
        k.input.c,
        k.input.h,
        k.input.w,
        k.filter.k,
        k.filter.c,
        k.filter.r,
        k.filter.s,
        k.pad_h,
        k.pad_w,
        k.stride_h,
        k.stride_w,
        key.engine,
    )
}

fn op_tag(op: ConvOp) -> &'static str {
    match op {
        ConvOp::Forward => "fwd",
        ConvOp::BackwardData => "bwd_data",
        ConvOp::BackwardFilter => "bwd_filter",
    }
}

fn op_from_tag(tag: &str) -> Option<ConvOp> {
    ConvOp::ALL.into_iter().find(|&op| op_tag(op) == tag)
}

fn row_to_json(key: &CacheKey, up_to: usize, entries: &[BenchEntry]) -> Value {
    let k = &key.kernel;
    json::obj([
        ("engine", Value::Str(key.engine.clone())),
        ("op", Value::Str(op_tag(k.op).to_string())),
        (
            "geometry",
            Value::Arr(
                [
                    k.input.n, k.input.c, k.input.h, k.input.w, k.filter.k, k.filter.c, k.filter.r,
                    k.filter.s, k.pad_h, k.pad_w, k.stride_h, k.stride_w,
                ]
                .iter()
                .map(|&v| json::num(v as f64))
                .collect(),
            ),
        ),
        // `null` is the unlimited budget of a complete `Find`. JSON numbers
        // hold byte counts exactly up to 2^53; capping there only forgets
        // part of a range no workspace reaches.
        (
            "budget",
            match up_to {
                usize::MAX => Value::Null,
                b => json::num(b.min(1 << 53) as f64),
            },
        ),
        (
            "entries",
            Value::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Value::Arr(vec![
                            json::num(e.algo.id() as f64),
                            json::num(e.time_us),
                            json::num(e.memory_bytes as f64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parse one DB row: its key, the budget it was measured up to, and its
/// entries. Version-2 rows carry no budget and came from complete `Find`s,
/// so they load as unlimited. Rows of an earlier CPU engine revision are
/// stale and rejected.
fn row_from_json(row: &Value, version: usize) -> Option<DbRow> {
    let engine = row.get("engine")?.as_str()?.to_string();
    if engine.starts_with("cpu") && engine != CPU_TAG {
        return None;
    }
    let op = op_from_tag(row.get("op")?.as_str()?)?;
    let g = row.get("geometry")?.as_arr()?;
    if g.len() != 12 {
        return None;
    }
    let d: Vec<usize> = g.iter().map(|v| v.as_usize()).collect::<Option<Vec<_>>>()?;
    let kernel = KernelKey {
        op,
        input: ucudnn_tensor::Shape4::new(d[0], d[1], d[2], d[3]),
        filter: ucudnn_tensor::FilterShape::new(d[4], d[5], d[6], d[7]),
        pad_h: d[8],
        pad_w: d[9],
        stride_h: d[10],
        stride_w: d[11],
    };
    let up_to = match (version, row.get("budget")) {
        (2, _) | (_, Some(Value::Null)) => usize::MAX,
        (_, budget) => budget?.as_usize()?,
    };
    let mut entries = row
        .get("entries")?
        .as_arr()?
        .iter()
        .map(|e| {
            let e = e.as_arr()?;
            if e.len() != 3 {
                return None;
            }
            let algo = *ConvAlgo::ALL.get(e[0].as_usize()?)?;
            let time_us = e[1].as_f64()?;
            // A non-finite or negative time can never be a measurement;
            // accepting it would hand the optimizer a fake free kernel.
            if !time_us.is_finite() || time_us < 0.0 {
                return None;
            }
            let memory_bytes = e[2].as_usize()?;
            // A row measured up to a budget holds nothing above it.
            (memory_bytes <= up_to).then_some(BenchEntry {
                algo,
                time_us,
                memory_bytes,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    // An entry-less row is a truncation artifact, not a benchmark result.
    if entries.is_empty() {
        return None;
    }
    sort_rows(&mut entries);
    Some((CacheKey { engine, kernel }, up_to, entries))
}

/// A DB row: key, the budget it was measured up to, entries.
type DbRow = (CacheKey, usize, Vec<BenchEntry>);

/// Parse a file DB: `(accepted rows, loaded count, quarantined count)`.
///
/// Only a well-formed document of version 2 or `DB_VERSION` contributes
/// rows; its malformed rows are skipped and counted individually. Anything
/// else — unparseable JSON, a bare legacy array, an unknown version —
/// quarantines the whole file, counted as the number of rows visible
/// (minimum 1).
fn load_db(text: &str) -> (Vec<DbRow>, u64, u64) {
    let Some(doc) = Value::parse(text) else {
        return (Vec::new(), 0, 1);
    };
    let version = match doc.get("version").and_then(|v| v.as_usize()) {
        Some(v @ (2 | DB_VERSION)) => v,
        _ => {
            let visible = doc
                .as_arr()
                .or_else(|| doc.get("rows").and_then(|r| r.as_arr()))
                .map_or(1, |a| a.len().max(1) as u64);
            return (Vec::new(), 0, visible);
        }
    };
    let Some(rows) = doc.get("rows").and_then(|r| r.as_arr()) else {
        return (Vec::new(), 0, 1);
    };
    let mut out = Vec::new();
    let (mut loaded, mut quarantined) = (0u64, 0u64);
    for row in rows {
        match row_from_json(row, version) {
            Some(parsed) => {
                out.push(parsed);
                loaded += 1;
            }
            None => quarantined += 1,
        }
    }
    (out, loaded, quarantined)
}

/// One budgeted `Find` run over a workspace window, as the cache keeps it.
#[derive(Debug)]
struct FindRun {
    /// Successful rows.
    rows: Vec<BenchEntry>,
    /// Workspace of each row that failed while benchmarking.
    failed_bytes: Vec<usize>,
    /// Rows over the window's budget, which never ran.
    over_budget: u64,
}

/// Run the substrate's budgeted `Find` benchmark for one micro-batch
/// kernel over the algorithms whose workspace lies in `window`.
///
/// # Errors
/// The substrate's own refusal (e.g. a degenerate geometry).
fn run_benchmark(
    handle: &CudnnHandle,
    kernel: &KernelKey,
    window: RangeInclusive<usize>,
) -> Result<FindRun, CudnnError> {
    let g = kernel.geometry();
    let xd = TensorDescriptor::from_shape(g.input)?;
    let wd = FilterDescriptor::from_shape(g.filter)?;
    let cd = ConvolutionDescriptor::new_2d(g.pad_h, g.pad_w, g.stride_h, g.stride_w)?;
    let mut run = FindRun {
        rows: Vec::new(),
        failed_bytes: Vec::new(),
        over_budget: 0,
    };
    for p in handle.find_algorithms_within(kernel.conv_op(), &xd, &wd, &cd, window)? {
        match p.status {
            AlgoStatus::Success => run.rows.push(BenchEntry {
                algo: p.algo,
                time_us: p.time_us,
                memory_bytes: p.memory_bytes,
            }),
            AlgoStatus::OverBudget => run.over_budget += 1,
            AlgoStatus::ExecutionFailed | AlgoStatus::AllocFailed => {
                run.failed_bytes.push(p.memory_bytes)
            }
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

    fn key(n: usize) -> KernelKey {
        let g = ConvGeometry::with_square(
            Shape4::new(n, 8, 16, 16),
            FilterShape::new(8, 8, 3, 3),
            1,
            1,
        );
        KernelKey::new(ConvOp::Forward, &g)
    }

    #[test]
    fn caches_after_first_benchmark() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let c = BenchCache::new();
        let a = c.get_or_bench(&h, &key(16));
        let b = c.get_or_bench(&h, &key(16));
        assert_eq!(a, b);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn different_micro_batches_are_distinct_entries() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let c = BenchCache::new();
        c.get_or_bench(&h, &key(16));
        c.get_or_bench(&h, &key(8));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn devices_do_not_share_entries() {
        let p = CudnnHandle::simulated(p100_sxm2());
        let v = CudnnHandle::simulated(ucudnn_gpu_model::v100_sxm2());
        let c = BenchCache::new();
        let tp = c.get_or_bench(&p, &key(16));
        let tv = c.get_or_bench(&v, &key(16));
        assert_eq!(c.stats().misses, 2, "each device must benchmark separately");
        // V100 is faster, so the cached times must differ.
        assert_ne!(tp[0].time_us, tv[0].time_us);
    }

    #[test]
    fn file_db_round_trips() {
        let dir = std::env::temp_dir().join(format!("ucudnn-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let h = CudnnHandle::simulated(p100_sxm2());
        let want = {
            let c = BenchCache::with_file(&path);
            let v = c.get_or_bench(&h, &key(32));
            c.save().unwrap();
            v
        };
        let c2 = BenchCache::with_file(&path);
        assert_eq!(c2.len(), 1, "offline benchmarking: entries load from disk");
        let got = c2.get_or_bench(&h, &key(32));
        // The hand-rolled JSON writer uses shortest round-trip float
        // formatting, so reloaded entries are bit-exact.
        assert_eq!(got, want);
        assert_eq!(
            c2.stats(),
            CacheStats {
                hits: 1,
                db_rows_loaded: 1,
                ..CacheStats::default()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_byte_deterministic_regardless_of_insertion_order() {
        let dir = std::env::temp_dir().join(format!("ucudnn-cache-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let h = CudnnHandle::simulated(p100_sxm2());
        let keys = [key(1), key(2), key(4), key(8), key(16)];
        let path_a = dir.join("a.json");
        let a = BenchCache::with_file(&path_a);
        for k in &keys {
            a.get_or_bench(&h, k);
        }
        a.save().unwrap();
        let path_b = dir.join("b.json");
        let b = BenchCache::with_file(&path_b);
        for k in keys.iter().rev() {
            b.get_or_bench(&h, k);
        }
        b.save().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path_a).unwrap(),
            std::fs::read_to_string(&path_b).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_means_cold_cache() {
        let dir = std::env::temp_dir().join(format!("ucudnn-cache-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        std::fs::write(&path, "not json").unwrap();
        let c = BenchCache::with_file(&path);
        assert!(c.is_empty());
        assert_eq!(c.stats().db_rows_quarantined, 1);
        assert_eq!(c.stats().db_rows_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_rows_are_quarantined_not_zeroed() {
        // A v2 document with one valid row, one row whose time field is
        // garbage, and one truncated row: the valid row loads, the other
        // two are counted — never parsed as zero-time configurations.
        let h = CudnnHandle::simulated(p100_sxm2());
        let dir = std::env::temp_dir().join(format!("ucudnn-cache-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let writer = BenchCache::with_file(&path);
        let good = writer.get_or_bench(&h, &key(8));
        writer.save().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Extract the one valid row and append two corrupted copies: one
        // with an unknown op tag, one truncated to an empty entry list.
        let row = Value::parse(&text)
            .unwrap()
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .to_json();
        let bad_op = row.replace("\"op\":\"fwd\"", "\"op\":\"bogus\"");
        assert_ne!(bad_op, row, "corruption must have applied");
        let entries_at = row.find("\"entries\":[").unwrap() + "\"entries\":[".len();
        let truncated = format!("{}]}}", &row[..entries_at]);
        let doctored = format!("{{\"version\":2,\"rows\":[{row},{bad_op},{truncated}]}}");
        std::fs::write(&path, &doctored).unwrap();

        let c = BenchCache::with_file(&path);
        assert_eq!(c.len(), 1, "only the intact row loads");
        assert_eq!(c.stats().db_rows_loaded, 1);
        assert_eq!(c.stats().db_rows_quarantined, 2);
        assert_eq!(c.get_or_bench(&h, &key(8)), good);
        assert_eq!(c.stats().misses, 0, "the good row still serves lookups");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_quarantines_the_whole_file() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let dir = std::env::temp_dir().join(format!("ucudnn-cache-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let writer = BenchCache::with_file(&path);
        writer.get_or_bench(&h, &key(8));
        writer.get_or_bench(&h, &key(16));
        writer.save().unwrap();
        let future = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&format!("\"version\":{DB_VERSION}"), "\"version\":99");
        std::fs::write(&path, future).unwrap();
        let c = BenchCache::with_file(&path);
        assert!(c.is_empty(), "a future format version must not half-parse");
        assert_eq!(c.stats().db_rows_quarantined, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_leaves_no_tmp_file_behind() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let dir = std::env::temp_dir().join(format!("ucudnn-cache-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let c = BenchCache::with_file(&path);
        c.get_or_bench(&h, &key(8));
        c.save().unwrap();
        assert!(path.exists());
        assert!(
            !dir.join("bench.json.tmp").exists(),
            "atomic save must rename its temp file away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_benchmarks_are_cached_and_never_persisted() {
        use ucudnn_cudnn_sim::{FaultPlan, FaultTarget};
        let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
            targets: vec![FaultTarget::any()],
            ..FaultPlan::default()
        });
        let dir = std::env::temp_dir().join(format!("ucudnn-cache-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let c = BenchCache::with_file(&path);
        assert!(c.try_get_or_bench(&h, &key(8), usize::MAX).is_err());
        assert!(
            c.try_get_or_bench(&h, &key(8), usize::MAX).is_err(),
            "the failure is cached"
        );
        let stats = c.stats();
        assert_eq!(stats.misses, 1, "the dead key is benchmarked only once");
        assert_eq!(stats.hits, 1);
        assert!(stats.bench_points_dropped > 0);
        assert!(c.is_empty(), "failed keys hold no measurements");
        c.save().unwrap();
        let reloaded = BenchCache::with_file(&path);
        assert!(reloaded.is_empty(), "failures must not be persisted");
        assert_eq!(reloaded.stats().db_rows_quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_benchmark_serves_every_smaller_budget() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let c = BenchCache::new();
        let full = c.get_or_bench(&h, &key(16));
        for budget in [0, 1 << 20, usize::MAX] {
            let want: Vec<BenchEntry> = full
                .iter()
                .filter(|e| e.memory_bytes <= budget)
                .copied()
                .collect();
            assert_eq!(c.try_get_or_bench(&h, &key(16), budget).unwrap(), want);
        }
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 3,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    /// Fault targets for the algorithms of `key(16)` on the simulated P100
    /// whose workspace need does (`true`) or does not exceed zero.
    fn targets_needing_workspace(needs: bool) -> Vec<ucudnn_cudnn_sim::FaultTarget> {
        let g = key(16).geometry();
        ConvAlgo::ALL
            .into_iter()
            .filter(|&a| {
                ucudnn_cudnn_sim::workspace_bytes_on(
                    &Engine::Simulated(p100_sxm2()),
                    a,
                    ConvOp::Forward,
                    &g,
                )
                .is_some_and(|b| (b > 0) == needs)
            })
            .map(ucudnn_cudnn_sim::FaultTarget::algo)
            .collect()
    }

    #[test]
    fn over_budget_points_are_neither_failures_nor_retried() {
        use ucudnn_cudnn_sim::FaultPlan;
        // Faults on every algorithm that needs a workspace: a zero-budget
        // lookup never attempts them, so nothing fails and nothing is
        // dropped.
        let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
            targets: targets_needing_workspace(true),
            ..FaultPlan::default()
        });
        let c = BenchCache::new();
        let rows = c.try_get_or_bench(&h, &key(16), 0).unwrap();
        assert!(!rows.is_empty() && rows.iter().all(|e| e.memory_bytes == 0));
        let stats = c.stats();
        assert!(stats.bench_points_over_budget > 0);
        assert_eq!(stats.bench_points_dropped, 0);
        assert_eq!(h.faults_injected(), 0);
    }

    #[test]
    fn a_budget_whose_every_algorithm_failed_is_a_failed_lookup() {
        use ucudnn_cudnn_sim::FaultPlan;
        let failed = targets_needing_workspace(false);
        let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
            targets: failed.clone(),
            ..FaultPlan::default()
        });
        let c = BenchCache::new();
        assert!(c.try_get_or_bench(&h, &key(16), 0).is_err());
        let wide = c.try_get_or_bench(&h, &key(16), usize::MAX).unwrap();
        assert!(!wide.is_empty());
        assert!(
            c.try_get_or_bench(&h, &key(16), 0).is_err(),
            "the zero budget still admits only failed algorithms"
        );
        assert_eq!(c.stats().bench_points_dropped, failed.len() as u64);
    }

    #[test]
    fn prefetch_parallel_matches_serial() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let keys: Vec<KernelKey> = [1usize, 2, 4, 8, 16].iter().map(|&n| key(n)).collect();
        let serial = BenchCache::new();
        serial.prefetch(&h, &keys, usize::MAX, false);
        let parallel = BenchCache::new();
        parallel.prefetch(&h, &keys, usize::MAX, true);
        for k in &keys {
            assert_eq!(serial.get_or_bench(&h, k), parallel.get_or_bench(&h, k));
        }
    }

    /// A leader whose benchmark panics must not leave its slot in flight:
    /// the next lookup of the key leads again (and here panics again)
    /// instead of waiting for good.
    #[test]
    fn a_panicking_benchmark_does_not_wedge_its_slot() {
        let h = Arc::new(CudnnHandle::simulated(p100_sxm2()));
        let c = Arc::new(BenchCache::new());
        // Stride 0 makes `KernelKey::geometry` panic inside the benchmark.
        let k = KernelKey {
            stride_h: 0,
            ..key(4)
        };
        let lookup = {
            let (c, h) = (Arc::clone(&c), Arc::clone(&h));
            move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.try_get_or_bench(&h, &k, usize::MAX)
                }))
                .is_err()
            }
        };
        assert!(lookup(), "the first lookup's benchmark panics");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(lookup()));
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the second lookup must not wait on the first's slot");
        assert!(panicked, "the second lookup leads and panics again");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn benchmark_counts_aggregate_over_micro_batches() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let c = BenchCache::new();
        for n in [1usize, 2, 4, 8] {
            c.get_or_bench(&h, &key(n));
        }
        assert_eq!(
            c.benchmark_counts().len(),
            4,
            "one entry per micro-batch size"
        );
        let agg = c.benchmark_counts_by_kernel();
        assert_eq!(agg.len(), 1, "one base kernel");
        assert_eq!(agg[0].1, 4, "four micro-batch sizes measured for it");
        assert!(
            agg[0].0.starts_with("fwd[in=*x8x16x16"),
            "batch folded out of {}",
            agg[0].0
        );
    }

    #[test]
    fn concurrent_lookups_benchmark_each_key_exactly_once() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let c = BenchCache::new();
        let keys: Vec<KernelKey> = [1usize, 2, 4, 8].iter().map(|&n| key(n)).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let keys = &keys;
                let (c, h) = (&c, &h);
                scope.spawn(move || {
                    for k in keys {
                        c.get_or_bench(h, k);
                    }
                });
            }
        });
        let stats = c.stats();
        assert_eq!(
            stats.misses,
            keys.len() as u64,
            "single-flight: one benchmark per key"
        );
        assert_eq!(
            stats.hits + stats.misses + stats.single_flight_waits,
            (8 * keys.len()) as u64,
            "every lookup is accounted for exactly once"
        );
        for (label, runs) in c.benchmark_counts() {
            assert_eq!(runs, 1, "{label} measured more than once");
        }
    }
}
