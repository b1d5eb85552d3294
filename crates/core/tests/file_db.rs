//! Integration tests for the file-backed benchmark database (§III-D):
//! concurrent save/load round-trips and graceful degradation on corruption.

use std::path::PathBuf;
use std::sync::Arc;
use ucudnn::{BenchCache, BenchEntry, KernelKey};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_gpu_model::{p100_sxm2, ConvAlgo};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

fn key(n: usize) -> KernelKey {
    let g = ConvGeometry::with_square(
        Shape4::new(n, 16, 16, 16),
        FilterShape::new(16, 16, 3, 3),
        1,
        1,
    );
    KernelKey::new(ConvOp::Forward, &g)
}

/// Fresh temp dir per test (std-only; no tempfile crate offline).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ucudnn-filedb-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn concurrent_benchmarking_with_interleaved_saves_round_trips() {
    let dir = TempDir::new("concurrent");
    let db = dir.path("bench.json");
    let h = CudnnHandle::simulated(p100_sxm2());
    let keys: Vec<KernelKey> = (0..10).map(|i| key(1 << i)).collect();

    let cache = BenchCache::with_file(&db);
    // Benchmark threads race with a saver thread that snapshots mid-flight:
    // save() must tolerate concurrent inserts and in-flight (unfilled) slots.
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let (cache, h, keys) = (&cache, &h, &keys);
            scope.spawn(move || {
                for k in keys {
                    cache.get_or_bench(h, k);
                }
            });
        }
        let cache = &cache;
        scope.spawn(move || {
            for _ in 0..5 {
                cache.save().unwrap();
                std::thread::yield_now();
            }
        });
    });
    cache.save().unwrap();

    // Reload: every entry must come back bit-exact, with zero benchmarks.
    let reloaded = BenchCache::with_file(&db);
    assert_eq!(reloaded.len(), keys.len());
    let want: Vec<Vec<BenchEntry>> = keys.iter().map(|k| cache.get_or_bench(&h, k)).collect();
    let got: Vec<Vec<BenchEntry>> = keys.iter().map(|k| reloaded.get_or_bench(&h, k)).collect();
    assert_eq!(got, want, "file DB round-trip must be bit-exact");
    assert_eq!(reloaded.stats().misses, 0, "warm cache never re-benchmarks");
    assert!(
        reloaded.benchmark_counts().is_empty(),
        "loaded entries count zero runs"
    );
}

#[test]
fn concurrent_loads_of_one_db_file_agree() {
    let dir = TempDir::new("multireader");
    let db = dir.path("bench.json");
    let h = CudnnHandle::simulated(p100_sxm2());
    let writer = BenchCache::with_file(&db);
    for i in 0..6 {
        writer.get_or_bench(&h, &key(1 << i));
    }
    writer.save().unwrap();

    // Homogeneous-cluster scenario: many processes load the same DB file.
    let snapshots: Vec<Vec<(String, Vec<BenchEntry>)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (db, h) = (&db, &h);
                scope.spawn(move || {
                    let c = BenchCache::with_file(db);
                    (0..6)
                        .map(|i| {
                            let k = key(1 << i);
                            (format!("{k}"), c.get_or_bench(h, &k))
                        })
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for s in &snapshots[1..] {
        assert_eq!(s, &snapshots[0]);
    }
}

#[test]
fn corrupted_db_degrades_to_cold_cache_and_recovers_on_save() {
    let dir = TempDir::new("corrupt");
    let db = dir.path("bench.json");
    for garbage in [
        "",
        "not json at all",
        "{\"truncated\":",
        "[{\"engine\":42}]",
        "[[1,2,3]]",
    ] {
        std::fs::write(&db, garbage).unwrap();
        let cache = BenchCache::with_file(&db);
        assert!(
            cache.is_empty(),
            "corrupt DB ({garbage:?}) must load as empty"
        );
        // The cache stays fully functional: benchmarks run and persist.
        let h = CudnnHandle::simulated(p100_sxm2());
        let entries = cache.get_or_bench(&h, &key(4));
        assert!(!entries.is_empty());
        assert_eq!(cache.stats().misses, 1, "cold cache re-benchmarks");
        cache.save().unwrap();
        let recovered = BenchCache::with_file(&db);
        assert_eq!(recovered.len(), 1, "save must repair the DB in place");
        assert_eq!(recovered.get_or_bench(&h, &key(4)), entries);
    }
}

#[test]
fn partially_valid_db_quarantines_bad_rows_and_keeps_the_rest() {
    // A torn write mangles one row. The intact rows still load — losing a
    // whole cluster-shared database to one bad record would force every
    // node to re-benchmark — and the damage stays visible in the
    // quarantine counter rather than being coerced into fake measurements.
    let dir = TempDir::new("torn");
    let db = dir.path("bench.json");
    let h = CudnnHandle::simulated(p100_sxm2());
    let writer = BenchCache::with_file(&db);
    let want8 = writer.get_or_bench(&h, &key(8));
    let want16 = writer.get_or_bench(&h, &key(16));
    writer.save().unwrap();
    let valid = std::fs::read_to_string(&db).unwrap();
    let torn = valid.replace("\"rows\":[", "\"rows\":[{\"engine\":\"x\"},");
    assert_ne!(torn, valid, "corruption must have applied");
    std::fs::write(&db, torn).unwrap();

    let cache = BenchCache::with_file(&db);
    assert_eq!(cache.len(), 2, "intact rows survive a torn sibling");
    assert_eq!(cache.stats().db_rows_loaded, 2);
    assert_eq!(cache.stats().db_rows_quarantined, 1);
    assert_eq!(cache.get_or_bench(&h, &key(8)), want8);
    assert_eq!(cache.get_or_bench(&h, &key(16)), want16);
    assert_eq!(cache.stats().misses, 0, "surviving rows serve lookups warm");

    // Saving the repaired cache writes a fully valid database again.
    cache.save().unwrap();
    let recovered = BenchCache::with_file(&db);
    assert_eq!(recovered.len(), 2);
    assert_eq!(recovered.stats().db_rows_quarantined, 0);
}

/// Rows of a saved DB document, parsed.
fn db_rows(db: &std::path::Path) -> Vec<ucudnn::json::Value> {
    let doc = ucudnn::json::Value::parse(&std::fs::read_to_string(db).unwrap()).unwrap();
    doc.get("rows").unwrap().as_arr().unwrap().to_vec()
}

#[test]
fn v3_rows_round_trip_with_their_budgets() {
    let dir = TempDir::new("v3");
    let db = dir.path("bench.json");
    let h = CudnnHandle::simulated(p100_sxm2());
    let budgets = [(key(8), 0), (key(16), 1 << 20), (key(32), usize::MAX)];
    let writer = BenchCache::with_file(&db);
    let want: Vec<Arc<[BenchEntry]>> = budgets
        .iter()
        .map(|(k, b)| writer.try_get_or_bench(&h, k, *b).unwrap())
        .collect();
    writer.save().unwrap();
    let text = std::fs::read_to_string(&db).unwrap();
    assert!(text.starts_with("{\"version\":3,"), "{text}");
    let saved: Vec<String> = db_rows(&db)
        .iter()
        .map(|r| r.get("budget").unwrap().to_json())
        .collect();
    assert_eq!(saved, ["1048576", "null", "0"], "rows sort by kernel label");

    // Every budget up to the persisted one is served warm, bit-exact.
    let reloaded = BenchCache::with_file(&db);
    assert_eq!(reloaded.stats().db_rows_loaded, 3);
    for ((k, b), want) in budgets.iter().zip(&want) {
        assert_eq!(&reloaded.try_get_or_bench(&h, k, *b).unwrap(), want);
        assert!(reloaded.try_get_or_bench(&h, k, 0).is_ok());
    }
    assert_eq!(
        reloaded.stats().misses,
        0,
        "no lookup exceeded its row's budget"
    );
    // A larger budget widens the loaded row, which then matches an
    // unbudgeted benchmark.
    let widened = reloaded.get_or_bench(&h, &key(8));
    assert_eq!(reloaded.stats().misses, 1);
    assert_eq!(widened, BenchCache::new().get_or_bench(&h, &key(8)));
}

#[test]
fn v2_rows_load_as_unlimited() {
    let dir = TempDir::new("v2");
    let db = dir.path("bench.json");
    let h = CudnnHandle::simulated(p100_sxm2());
    let writer = BenchCache::with_file(&db);
    let want = writer.get_or_bench(&h, &key(8));
    writer.save().unwrap();
    // The version-2 layout: the same rows without a budget field.
    let v2 = std::fs::read_to_string(&db)
        .unwrap()
        .replace("\"version\":3", "\"version\":2")
        .replace("\"budget\":null,", "");
    assert!(!v2.contains("budget"), "{v2}");
    std::fs::write(&db, v2).unwrap();

    let cache = BenchCache::with_file(&db);
    assert_eq!(cache.stats().db_rows_loaded, 1);
    assert_eq!(cache.get_or_bench(&h, &key(8)), want);
    assert_eq!(
        cache.try_get_or_bench(&h, &key(8), 0).unwrap(),
        want.iter()
            .filter(|e| e.memory_bytes == 0)
            .copied()
            .collect::<Arc<[_]>>()
    );
    assert_eq!(
        cache.stats().misses,
        0,
        "a v2 row came from a complete Find"
    );
}

#[test]
fn malformed_budgets_are_quarantined() {
    let dir = TempDir::new("badbudget");
    let db = dir.path("bench.json");
    let h = CudnnHandle::simulated(p100_sxm2());
    let writer = BenchCache::with_file(&db);
    let want = writer.try_get_or_bench(&h, &key(8), 1 << 20).unwrap();
    writer.save().unwrap();
    let valid = std::fs::read_to_string(&db).unwrap();
    let row = db_rows(&db)[0].to_json();
    let good = "\"budget\":1048576";
    assert!(row.contains(good), "{row}");
    // A budget that is no byte count, or one below a workspace its own
    // entries need, is quarantined; a v3 row must carry a budget.
    let bad: Vec<String> = [
        "\"budget\":\"big\"",
        "\"budget\":-1",
        "\"budget\":1.5",
        "\"budget\":0",
    ]
    .iter()
    .map(|b| row.replace(good, b))
    .chain([row.replace(&format!("{good},"), "")])
    .collect();
    let doctored = valid.replace(&row, &format!("{row},{}", bad.join(",")));
    std::fs::write(&db, doctored).unwrap();

    let cache = BenchCache::with_file(&db);
    assert_eq!(cache.stats().db_rows_loaded, 1);
    assert_eq!(cache.stats().db_rows_quarantined, bad.len() as u64);
    assert_eq!(cache.try_get_or_bench(&h, &key(8), 1 << 20).unwrap(), want);
    assert_eq!(
        cache.stats().misses,
        0,
        "the intact row still serves lookups"
    );
}

#[test]
fn cpu_rows_of_an_earlier_engine_revision_are_measured_again() {
    let dir = TempDir::new("cpurev");
    let db = dir.path("bench.json");
    let sim = CudnnHandle::simulated(p100_sxm2());
    let writer = BenchCache::with_file(&db);
    let want = writer.get_or_bench(&sim, &key(8));
    writer.save().unwrap();
    // v3 rows of four earlier engine revisions. Before the revision tag,
    // RealCpu rows were tagged "cpu", and IMPLICIT_GEMM timed the seven-loop
    // direct engine; under "cpu:2", GEMM timed its own engine with a
    // one-sample column buffer; under "cpu:3", FFT timed a CPU engine;
    // under "cpu:4", the GEMM micro-kernel ran a 6x16 tile on AVX-512.
    let stale = |tag: &str, algo: ConvAlgo, bytes: usize| {
        format!(
            "{{\"engine\":\"{tag}\",\"op\":\"fwd\",\
             \"geometry\":[1,16,16,16,16,16,3,3,1,1,1,1],\"budget\":{bytes},\
             \"entries\":[[{},1,{bytes}]]}}",
            algo.id()
        )
    };
    let stale = [
        stale("cpu", ConvAlgo::ImplicitGemm, 0),
        stale("cpu:2", ConvAlgo::Gemm, 147456),
        stale("cpu:3", ConvAlgo::Fft, 1572864),
        stale("cpu:4", ConvAlgo::ImplicitPrecompGemm, 0),
    ]
    .join(",");
    let text = std::fs::read_to_string(&db).unwrap();
    assert!(text.starts_with("{\"version\":3,"), "{text}");
    std::fs::write(
        &db,
        text.replace("\"rows\":[", &format!("\"rows\":[{stale},")),
    )
    .unwrap();

    let cache = BenchCache::with_file(&db);
    assert_eq!(cache.stats().db_rows_loaded, 1);
    assert_eq!(
        cache.stats().db_rows_quarantined,
        4,
        "the cpu rows are stale"
    );
    assert_eq!(cache.get_or_bench(&sim, &key(8)), want);
    assert_eq!(cache.stats().misses, 0, "the sim row is still served");

    let cpu = CudnnHandle::real_cpu();
    let rows = cache.try_get_or_bench(&cpu, &key(1), 0).unwrap();
    assert_eq!(cache.stats().misses, 1, "the cpu kernel is measured again");
    assert_eq!(
        rows.iter().map(|e| e.algo).collect::<Vec<_>>(),
        [
            ConvAlgo::ImplicitGemm,
            ConvAlgo::ImplicitPrecompGemm,
            ConvAlgo::Gemm
        ]
    );
    cache.save().unwrap();
    let engines: Vec<String> = db_rows(&db)
        .iter()
        .map(|r| r.get("engine").unwrap().to_json())
        .collect();
    assert_eq!(engines, ["\"cpu:5\"", "\"sim:P100-SXM2\""]);
}
