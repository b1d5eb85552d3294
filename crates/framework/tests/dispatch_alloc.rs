//! The dispatch path allocates nothing once warm.
//!
//! A counting global allocator tallies each thread's allocations (the test
//! harness runs every test on a thread of its own, so a count sees only its
//! own test). After one warm-up iteration on the simulated engine:
//!
//! * an intercepted convolution (`UcudnnHandle::convolution`, WR and WD)
//!   and a plain-cuDNN one (`BaselineCudnn::execute`) allocate nothing;
//! * a benchmark-cache hit allocates nothing;
//! * a simulated iteration (`time_iteration`) allocates the same number of
//!   times for AlexNet as for DenseNet-40: its report, not one string per
//!   layer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ucudnn::{BenchCache, KernelKey, OptimizerMode, UcudnnHandle, UcudnnOptions};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_framework::{
    alexnet, densenet40, setup_network, time_iteration, BaselineCudnn, ConvProvider, NetworkDef,
};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread that is exiting has no counter left; its allocations are
    // nobody's measurement.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; counting touches only a thread-local integer
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

const MIB: usize = 1024 * 1024;

/// Every convolution call of one iteration, in the order `time_iteration`
/// issues them.
fn conv_calls(net: &NetworkDef) -> Vec<(ConvOp, ConvGeometry)> {
    let layers = net.conv_layers();
    let mut calls: Vec<_> = layers
        .iter()
        .map(|&id| (ConvOp::Forward, net.conv_geometry(id)))
        .collect();
    for &id in layers.iter().rev() {
        let g = net.conv_geometry(id);
        calls.push((ConvOp::BackwardFilter, g));
        if net.needs_backward_data(id) {
            calls.push((ConvOp::BackwardData, g));
        }
    }
    calls
}

/// Set `provider` up on `net` and run one warm-up iteration.
fn warm(provider: &impl ConvProvider, net: &NetworkDef) {
    setup_network(provider, net).unwrap();
    time_iteration(provider, net).unwrap();
}

fn handle(mode: OptimizerMode) -> UcudnnHandle {
    UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()),
        UcudnnOptions {
            mode,
            workspace_limit_bytes: 64 * MIB,
            ..UcudnnOptions::default()
        },
    )
}

#[test]
fn intercepted_convolutions_do_not_allocate() {
    let net = alexnet(256);
    let calls = conv_calls(&net);
    for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
        let h = handle(mode);
        warm(&h, &net);
        let launched = h.inner().kernels_launched();
        let ((), n) = allocations(|| {
            for _ in 0..3 {
                for (op, g) in &calls {
                    h.convolution(*op, g, &[], &[], &mut [], 1.0, 0.0).unwrap();
                }
            }
        });
        let micro = h.inner().kernels_launched() - launched;
        assert!(
            micro > 3 * calls.len() as u64,
            "{mode:?}: no kernel was divided ({micro} launches for {} calls)",
            3 * calls.len()
        );
        assert_eq!(
            n,
            0,
            "{mode:?}: {n} allocations in {} calls",
            3 * calls.len()
        );
    }
}

#[test]
fn baseline_convolutions_do_not_allocate() {
    let net = alexnet(256);
    let calls = conv_calls(&net);
    let p = BaselineCudnn::new(CudnnHandle::simulated(p100_sxm2()), 64 * MIB);
    warm(&p, &net);
    let ((), n) = allocations(|| {
        for (op, g) in &calls {
            p.execute(*op, g, &[], &[], &mut [], 1.0, 0.0).unwrap();
        }
    });
    assert_eq!(n, 0, "{n} allocations in {} calls", calls.len());
}

#[test]
fn benchmark_cache_hits_do_not_allocate() {
    let g = ConvGeometry::with_square(Shape4::new(4, 3, 8, 8), FilterShape::new(4, 3, 3, 3), 1, 1);
    let sim = CudnnHandle::simulated(p100_sxm2());
    let cpu = CudnnHandle::real_cpu();
    let cache = BenchCache::new();
    let keys: Vec<KernelKey> = ConvOp::ALL
        .into_iter()
        .flat_map(|op| (1..=4).map(move |n| KernelKey::new(op, &g.with_batch(n))))
        .collect();
    let budget = 64 * MIB;
    for h in [&sim, &cpu] {
        for k in &keys {
            assert!(!cache.try_get_or_bench(h, k, budget).unwrap().is_empty());
        }
    }
    let misses = cache.stats().misses;
    let (rows, n) = allocations(|| {
        let mut rows = 0;
        for h in [&sim, &cpu] {
            for k in &keys {
                rows += cache.try_get_or_bench(h, k, budget).unwrap().len();
            }
        }
        rows
    });
    assert_eq!(cache.stats().misses, misses, "every lookup hit");
    assert!(rows > 0);
    assert_eq!(n, 0, "{n} allocations in {} hits", 2 * keys.len());
}

#[test]
fn a_simulated_iteration_allocates_the_same_for_any_network() {
    let count = |net: &NetworkDef| {
        let h = handle(OptimizerMode::Wd);
        warm(&h, net);
        let (t, n) = allocations(|| time_iteration(&h, net).unwrap());
        assert_eq!(t.layers.len(), net.len());
        n
    };
    let (small, large) = (alexnet(64), densenet40(16, 12));
    assert!(large.len() > 5 * small.len());
    let (a, d) = (count(&small), count(&large));
    assert_eq!(
        a,
        d,
        "{a} allocations for {} layers, {d} for {}",
        small.len(),
        large.len()
    );
}
