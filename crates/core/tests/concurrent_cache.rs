//! Stress test: the shared benchmark cache under heavy thread overlap.
//!
//! Many threads request overlapping kernel sets simultaneously. The
//! single-flight protocol must guarantee that every (kernel, micro-batch)
//! pair is benchmarked exactly once — every algorithm exactly once when the
//! lookups carry different workspace budgets — every lookup is classified
//! exactly once (hit, miss, or single-flight wait), and all threads observe
//! identical results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use ucudnn::{BenchCache, BenchEntry, CacheStats, KernelKey};
use ucudnn_cudnn_sim::{
    set_call_observer, supported_on, workspace_bytes_on, CallSite, ConvAlgo, ConvOp, CudnnHandle,
    Engine,
};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

/// A distinct kernel for each (channel, micro-batch) pair.
fn key(c: usize, n: usize) -> KernelKey {
    let g = ConvGeometry::with_square(
        Shape4::new(n, c, 16, 16),
        FilterShape::new(c, c, 3, 3),
        1,
        1,
    );
    KernelKey::new(ConvOp::Forward, &g)
}

#[test]
fn stress_each_kernel_benchmarked_exactly_once() {
    const THREADS: usize = 16;
    const ROUNDS: usize = 4;
    let h = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    // 24 distinct kernels; every thread walks all of them several times, so
    // the key sets overlap completely across threads.
    let keys: Vec<KernelKey> = [8usize, 16, 32]
        .iter()
        .flat_map(|&c| (0..8).map(move |i| key(c, 1 << i)))
        .collect();
    let lookups = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cache, h, keys, lookups) = (&cache, &h, &keys, &lookups);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger the starting point per thread so leaders vary.
                    for i in 0..keys.len() {
                        let k = &keys[(i + t + round) % keys.len()];
                        let entries = cache.get_or_bench(h, k);
                        assert!(!entries.is_empty());
                        lookups.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(
        stats.misses,
        keys.len() as u64,
        "single-flight: one benchmark per key"
    );
    assert_eq!(
        stats.hits + stats.misses + stats.single_flight_waits,
        lookups.load(Ordering::Relaxed) as u64,
        "every lookup classified exactly once"
    );
    for (label, runs) in cache.benchmark_counts() {
        assert_eq!(runs, 1, "{label} was measured {runs} times");
    }
    assert_eq!(cache.len(), keys.len());
}

#[test]
fn stress_all_threads_observe_identical_results() {
    const THREADS: usize = 12;
    let h = CudnnHandle::simulated(p100_sxm2());
    let cache = BenchCache::new();
    let keys: Vec<KernelKey> = (0..6).map(|i| key(16, 1 << i)).collect();
    let per_thread: Vec<Vec<Vec<BenchEntry>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, h, keys) = (&cache, &h, &keys);
                scope.spawn(move || keys.iter().map(|k| cache.get_or_bench(h, k)).collect())
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for results in &per_thread[1..] {
        assert_eq!(
            results, &per_thread[0],
            "cache must serve one truth to every thread"
        );
    }
    // A waiter is never misclassified as a hit: the three counters must
    // exactly cover all THREADS * keys.len() lookups even when most of them
    // blocked on an in-flight leader.
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses + stats.single_flight_waits,
        (THREADS * keys.len()) as u64
    );
    assert_eq!(stats.misses, keys.len() as u64);
}

#[test]
fn stress_matches_sequential_ground_truth() {
    let h = CudnnHandle::simulated(p100_sxm2());
    let keys: Vec<KernelKey> = (0..8).map(|i| key(8, 1 << i)).collect();

    let sequential = BenchCache::new();
    let want: Vec<Vec<BenchEntry>> = keys
        .iter()
        .map(|k| sequential.get_or_bench(&h, k))
        .collect();

    let concurrent = BenchCache::new();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (cache, h, keys) = (&concurrent, &h, &keys);
            scope.spawn(move || {
                for k in keys {
                    cache.get_or_bench(h, k);
                }
            });
        }
    });
    let got: Vec<Vec<BenchEntry>> = keys
        .iter()
        .map(|k| concurrent.get_or_bench(&h, k))
        .collect();
    assert_eq!(
        got, want,
        "concurrent benchmarking must not change any result"
    );
    assert_eq!(
        concurrent.stats().misses,
        sequential.stats().misses,
        "same number of benchmarks run"
    );
    assert_eq!(
        sequential.stats(),
        CacheStats {
            hits: 0,
            misses: keys.len() as u64,
            ..CacheStats::default()
        },
        "sequential pass benchmarks every key exactly once"
    );
}

/// Rows the substrate's `Find` calls actually benchmarked (rows over the
/// call's budget are not), summed per rendered geometry. The observer is
/// installed once for this test binary and never removed; each test that
/// reads it uses geometries no other test here does.
fn benchmarked_rows() -> &'static Mutex<HashMap<String, usize>> {
    static ROWS: OnceLock<Arc<Mutex<HashMap<String, usize>>>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let rows = Arc::new(Mutex::new(HashMap::new()));
        let sink = Arc::clone(&rows);
        set_call_observer(Some(Arc::new(move |e| {
            if e.site == CallSite::Find {
                *sink.lock().unwrap().entry(e.geometry.clone()).or_insert(0) += e.rows;
            }
        })));
        rows
    })
}

fn rows_benchmarked(keys: &[KernelKey]) -> usize {
    let rows = benchmarked_rows().lock().unwrap();
    keys.iter()
        .map(|k| rows.get(&k.geometry().to_string()).copied().unwrap_or(0))
        .sum()
}

#[test]
fn real_cpu_budgets_widen_without_re_measuring() {
    benchmarked_rows();
    // 12 channels on 16x16 at batch 16: the GEMM algorithms need no
    // workspace, and the middle budget fits the smaller Winograd tile's
    // workspace but not the larger one's.
    let k = key(12, 16);
    let g = k.geometry();
    let middle = ConvAlgo::ALL
        .into_iter()
        .filter_map(|a| workspace_bytes_on(&Engine::RealCpu, a, ConvOp::Forward, &g))
        .filter(|&b| b > 0)
        .min()
        .unwrap();
    let h = CudnnHandle::real_cpu();
    let cache = BenchCache::new();
    let mut earlier: Vec<BenchEntry> = Vec::new();
    for budget in [0, middle, usize::MAX] {
        let rows = cache.try_get_or_bench(&h, &k, budget).unwrap();
        assert!(rows.iter().all(|e| e.memory_bytes <= budget));
        assert!(
            rows.len() > earlier.len(),
            "budget {budget} admits new rows"
        );
        for e in &earlier {
            assert!(
                rows.iter().any(|r| r.algo == e.algo
                    && r.time_us.to_bits() == e.time_us.to_bits()
                    && r.memory_bytes == e.memory_bytes),
                "{e:?} changed after widening to {budget}"
            );
        }
        earlier = rows;
    }
    let supported = ConvAlgo::ALL
        .into_iter()
        .filter(|&a| supported_on(&Engine::RealCpu, a, ConvOp::Forward, &g))
        .count();
    assert_eq!(earlier.len(), supported, "one row per supported algorithm");
    assert_eq!(
        rows_benchmarked(&[k]),
        supported,
        "every algorithm benchmarked exactly once"
    );
    let stats = cache.stats();
    assert_eq!(stats.misses, 3, "one benchmark per widening");
    assert!(stats.bench_points_over_budget > 0);
    assert_eq!(stats.bench_points_dropped, 0);
    // Every budget up to the measured one is now served without a Find.
    for budget in [usize::MAX, middle, 0] {
        cache.try_get_or_bench(&h, &k, budget).unwrap();
    }
    assert_eq!(cache.stats().hits, 3);
    assert_eq!(rows_benchmarked(&[k]), earlier.len());
}

#[test]
fn stress_mixed_budget_lookups_measure_each_algorithm_once() {
    const THREADS: usize = 12;
    let budgets = [0usize, 512 << 10, 16 << 20, usize::MAX];
    let h = CudnnHandle::simulated(p100_sxm2());
    let keys: Vec<KernelKey> = (0..6).map(|i| key(24, 1 << i)).collect();
    let full: Vec<Vec<BenchEntry>> = keys
        .iter()
        .map(|k| BenchCache::new().get_or_bench(&h, k))
        .collect();
    let before = rows_benchmarked(&keys);
    let cache = BenchCache::new();
    let lookups = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cache, h, keys, full, lookups) = (&cache, &h, &keys, &full, &lookups);
            scope.spawn(move || {
                // Threads walk the budgets in different orders, so widenings
                // race with waiters and with lookups below the measured
                // budget.
                for i in 0..keys.len() * budgets.len() {
                    let (ki, bi) = ((i + t) % keys.len(), (i / keys.len() + t) % budgets.len());
                    let budget = if t % 2 == 0 {
                        budgets[bi]
                    } else {
                        budgets[budgets.len() - 1 - bi]
                    };
                    let got = cache.try_get_or_bench(h, &keys[ki], budget).unwrap();
                    let want: Vec<BenchEntry> = full[ki]
                        .iter()
                        .filter(|e| e.memory_bytes <= budget)
                        .copied()
                        .collect();
                    assert_eq!(got, want, "{} within {budget}", keys[ki]);
                    lookups.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(
        rows_benchmarked(&keys) - before,
        full.iter().map(Vec::len).sum::<usize>(),
        "every (kernel, algorithm) benchmarked exactly once"
    );
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses + stats.single_flight_waits,
        lookups.load(Ordering::Relaxed) as u64,
        "every lookup classified exactly once"
    );
    assert!(stats.misses >= keys.len() as u64);
    assert!(stats.misses <= (keys.len() * budgets.len()) as u64);
}
