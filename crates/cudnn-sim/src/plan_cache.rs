//! Geometry-keyed execution-plan cache.
//!
//! The CPU engines can derive call-invariant state once per
//! (engine, op, geometry) — packed filter panels, Winograd-transformed
//! filters — and reuse it on every subsequent call
//! ([`ucudnn_conv::EnginePlan`]). This cache owns those plans for a
//! [`crate::CudnnHandle`], so `convolution_forward` /
//! `convolution_backward_*` stop re-deriving per-call state across
//! micro-batches and training iterations.
//!
//! Keys normalize the batch dimension to 1: a layer split into micro-batches
//! of different sizes shares one plan (the cached state is batch-independent
//! by construction — exactly why the paper's WR scheme can share one
//! workspace across a layer's micro-batches).
//!
//! Capacity is byte-capped (`UCUDNN_EXEC_CACHE_BYTES`, binary suffixes,
//! default 64 MiB, `0` disables) with LRU eviction. Plans never change
//! numerical results, so caching — and eviction, and a disabled cache — are
//! all invisible to outputs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use ucudnn_conv::{ConvOp, EngineKind, EnginePlan};
use ucudnn_tensor::ConvGeometry;

/// Default byte capacity when `UCUDNN_EXEC_CACHE_BYTES` is unset.
pub const DEFAULT_EXEC_CACHE_BYTES: usize = 64 << 20;

/// Cache key: engine, operation, and the batch-1 geometry (micro-batches of
/// one layer collapse onto the same entry).
pub type PlanKey = (EngineKind, ConvOp, ConvGeometry);

/// Build the cache key for a call on geometry `g`.
pub fn plan_key(engine: EngineKind, op: ConvOp, g: &ConvGeometry) -> PlanKey {
    (engine, op, g.with_batch(1))
}

/// Counters exposed in `metrics_json` under `exec_cache`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCacheStats {
    /// Calls that found a warm plan.
    pub hits: u64,
    /// Calls that built a fresh plan (including cache-disabled calls).
    pub misses: u64,
    /// Plans dropped to respect the byte cap.
    pub evictions: u64,
    /// Bytes currently held by cached plans.
    pub bytes: u64,
}

struct Entry {
    plan: EnginePlan,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<PlanKey, Entry>,
    bytes: usize,
    tick: u64,
}

/// Byte-capped LRU cache of [`EnginePlan`]s. Thread-safe: entries are
/// checked out under a mutex and executed outside it, so concurrent calls on
/// one handle never serialize behind a running kernel (a second caller on
/// the same key simply takes a miss).
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &s)
            .finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` bytes of plan state (0 disables).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Capacity from `UCUDNN_EXEC_CACHE_BYTES` (binary suffixes accepted),
    /// defaulting to [`DEFAULT_EXEC_CACHE_BYTES`]; malformed values fall
    /// back to the default rather than silently disabling the cache.
    pub fn from_env() -> Self {
        let cap = std::env::var("UCUDNN_EXEC_CACHE_BYTES")
            .ok()
            .and_then(|v| parse_bytes(&v))
            .unwrap_or(DEFAULT_EXEC_CACHE_BYTES);
        Self::new(cap)
    }

    /// Configured byte capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ExecCacheStats {
        ExecCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.inner.lock().unwrap().bytes as u64,
        }
    }

    /// Run `body` with the plan cached under `key`, creating an empty plan
    /// for `engine` on a miss, and return the plan to the cache afterwards
    /// (LRU-evicting to the byte cap).
    ///
    /// `alloc_ok(bytes)` is consulted before retaining a grown plan; a
    /// `false` (e.g. an injected allocation fault) degrades that call to
    /// uncached execution — the result is still produced, the plan is just
    /// not kept. Cached execution is bit-identical to uncached execution, so
    /// none of this is observable in outputs.
    pub fn with_plan<R>(
        &self,
        key: PlanKey,
        engine: EngineKind,
        alloc_ok: impl Fn(usize) -> bool,
        body: impl FnOnce(&mut EnginePlan) -> R,
    ) -> R {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return body(&mut EnginePlan::for_engine(engine));
        }
        // Check the plan out so the lock is not held while kernels run.
        let checked_out = {
            let mut inner = self.inner.lock().unwrap();
            inner.map.remove(&key).map(|e| {
                inner.bytes -= e.bytes;
                e.plan
            })
        };
        let mut plan = match checked_out {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                p
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                EnginePlan::for_engine(engine)
            }
        };
        let r = body(&mut plan);
        let bytes = plan.bytes();
        if bytes > self.capacity || !alloc_ok(bytes) {
            // Too big to ever fit, or the allocation was vetoed: degrade to
            // uncached execution by dropping the plan.
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return r;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        // A concurrent call may have reinserted this key; replace (the
        // newer plan is at least as fresh) without double-counting bytes.
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                plan,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        while inner.bytes > self.capacity {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let e = inner.map.remove(&victim).unwrap();
            inner.bytes -= e.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.bytes = 0;
    }
}

/// Parse a byte size with optional binary suffix (`"64M"` → 64 MiB); local
/// duplicate of `ucudnn::env::parse_bytes` because the substrate crate sits
/// below the core crate in the dependency graph.
fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult): (&str, usize) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok().map(|v| v * mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_tensor::{FilterShape, Shape4};

    const GEMM: EngineKind = EngineKind::ImplicitGemm;

    fn key(n: usize, k: usize) -> PlanKey {
        let g =
            ConvGeometry::with_square(Shape4::new(n, 3, 8, 8), FilterShape::new(k, 3, 3, 3), 1, 1);
        plan_key(GEMM, ConvOp::Forward, &g)
    }

    /// Touch the plan so it holds some bytes, mimicking an engine call.
    fn warm(plan: &mut EnginePlan, k: usize) {
        if let EnginePlan::Gemm(p) = plan {
            let w = vec![1.0f32; k * 27];
            ucudnn_conv::im2col_gemm::forward_with_plan(
                &ConvGeometry::with_square(
                    Shape4::new(1, 3, 8, 8),
                    FilterShape::new(k, 3, 3, 3),
                    1,
                    1,
                ),
                &vec![0.0; 3 * 64],
                &w,
                &mut vec![0.0; k * 64],
                1.0,
                0.0,
                p,
            );
        }
    }

    #[test]
    fn hit_after_first_call() {
        let cache = PlanCache::new(1 << 20);
        for round in 0..3 {
            cache.with_plan(key(4, 4), GEMM, |_| true, |p| warm(p, 4));
            let s = cache.stats();
            assert_eq!(s.misses, 1, "round {round}");
            assert_eq!(s.hits, round);
        }
        assert!(cache.stats().bytes > 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn micro_batches_share_an_entry() {
        assert_eq!(key(64, 4), key(1, 4));
        assert_ne!(key(1, 4), key(1, 8));
        let cache = PlanCache::new(1 << 20);
        for n in [64, 32, 16, 1] {
            cache.with_plan(key(n, 4), GEMM, |_| true, |p| warm(p, 4));
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 3));
    }

    #[test]
    fn lru_evicts_at_byte_cap() {
        let cache = PlanCache::new(1 << 20);
        // Measure one entry's footprint, then cap the cache to two of them.
        cache.with_plan(key(1, 4), GEMM, |_| true, |p| warm(p, 4));
        let one = cache.stats().bytes as usize;
        assert!(one > 0);
        let cache = PlanCache::new(2 * one + one / 2);
        for k in [4, 5, 6] {
            cache.with_plan(key(1, k), GEMM, |_| true, |p| warm(p, k));
        }
        let s = cache.stats();
        assert!(s.evictions >= 1, "third entry must evict the LRU one");
        assert!(s.bytes as usize <= 2 * one + one / 2);
        // k=4 was least recently used; k=6 must still be warm.
        cache.with_plan(key(1, 6), GEMM, |_| true, |p| warm(p, 6));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn alloc_veto_degrades_to_uncached() {
        let cache = PlanCache::new(1 << 20);
        let r = cache.with_plan(
            key(1, 4),
            GEMM,
            |_| false, // every retention allocation fails
            |p| {
                warm(p, 4);
                42
            },
        );
        assert_eq!(r, 42, "execution result must survive the degradation");
        assert_eq!(cache.len(), 0, "vetoed plan must not be retained");
        let s = cache.stats();
        assert_eq!((s.misses, s.bytes), (1, 0));
    }

    #[test]
    fn concurrent_checkout_keeps_accounting_consistent() {
        // Serving workers share one handle, so several threads check the
        // same key out simultaneously. Checkout semantics mean a caller
        // that finds the plan gone takes a miss instead of blocking behind
        // the running kernel; the counters must still balance, byte
        // accounting must not drift, and one key converges to one entry.
        let cache = std::sync::Arc::new(PlanCache::new(1 << 20));
        let threads = 4;
        let rounds = 25u64;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..rounds {
                        cache.with_plan(key(4, 4), GEMM, |_| true, |p| warm(p, 4));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, threads as u64 * rounds);
        assert!(s.hits > 0, "steady state must reuse the plan");
        assert_eq!(cache.len(), 1, "one key converges to one entry");
        // Bytes held must equal exactly one warm plan's footprint — the
        // replace-on-reinsert path must not double-count under races.
        let single = PlanCache::new(1 << 20);
        single.with_plan(key(4, 4), GEMM, |_| true, |p| warm(p, 4));
        assert_eq!(s.bytes, single.stats().bytes, "byte accounting drifted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        for _ in 0..3 {
            cache.with_plan(key(1, 4), GEMM, |_| true, |p| warm(p, 4));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bytes), (0, 3, 0));
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes(" 2 G"), Some(2 << 30));
        assert_eq!(parse_bytes("123"), Some(123));
        assert_eq!(parse_bytes("0"), Some(0));
        assert_eq!(parse_bytes("nope"), None);
    }
}
