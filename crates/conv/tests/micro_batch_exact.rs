//! Micro-batching is exact on the CPU engines (DESIGN.md §6): a mini-batch
//! run as a sequence of micro-batches, each on its rows of the batch-split
//! buffers, gives the undivided call's output bit for bit. Backward-filter
//! micro-batches after the first accumulate with `beta = 1`, as the
//! μ-cuDNN replay does, so every micro-batch extends the same per-sample
//! chain onto `dW`.
//!
//! Covered: implicit GEMM (all three ops) and both Winograd tiles (forward
//! and backward-data) on the `train` network's conv2–conv4 at n=13, divided
//! as {5, 8}, 13 × {1} and {4, 4, 4, 1}, at thread caps 1, 2, 3 and 8,
//! with alpha 0.75 and beta −0.5. One plan serves every micro-batch of a
//! call, as the execution-plan cache serves the replay.

use std::sync::Mutex;
use ucudnn_conv::parallel::set_thread_cap;
use ucudnn_conv::{exec_with_plan, supports, workspace_floats, ConvOp, EngineKind, EnginePlan};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4, Tensor};

/// The thread cap is process-global: tests that sweep it take turns.
static CAP: Mutex<()> = Mutex::new(());

const N: usize = 13;
const ALPHA: f32 = 0.75;
const BETA: f32 = -0.5;

/// `train`'s conv2–conv4 at the mini-batch `N`.
fn layers() -> Vec<(&'static str, ConvGeometry)> {
    let layer = |c, hw, k| {
        let (input, filter) = (Shape4::new(N, c, hw, hw), FilterShape::new(k, c, 3, 3));
        ConvGeometry::with_square(input, filter, 1, 1)
    };
    let all = vec![
        ("conv2", layer(32, 16, 64)),
        ("conv3", layer(64, 8, 128)),
        ("conv4", layer(128, 8, 128)),
    ];
    // An unoptimized build runs the engines about a hundred times slower.
    if cfg!(debug_assertions) {
        all.into_iter().take(1).collect()
    } else {
        all
    }
}

fn caps() -> Vec<usize> {
    if cfg!(debug_assertions) {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 8]
    }
}

/// The divisions of `N` each call is replayed as.
fn divisions() -> Vec<Vec<usize>> {
    vec![vec![5, 8], vec![1; N], vec![4, 4, 4, 1]]
}

/// Rows `lo..lo + m` of a batch-split buffer with `sample_len` floats per
/// sample; a filter-shaped buffer (`None`) is used whole.
fn rows(v: &[f32], sample_len: Option<usize>, lo: usize, m: usize) -> &[f32] {
    sample_len.map_or(v, |len| &v[lo * len..(lo + m) * len])
}

fn rows_mut(v: &mut [f32], sample_len: Option<usize>, lo: usize, m: usize) -> &mut [f32] {
    match sample_len {
        Some(len) => &mut v[lo * len..(lo + m) * len],
        None => v,
    }
}

/// The output bits of `op` on `g`, run as the micro-batches `micros`.
fn replay(
    engine: EngineKind,
    op: ConvOp,
    g: &ConvGeometry,
    micros: &[usize],
    [a, b, init]: [&[f32]; 3],
) -> Vec<u32> {
    let (x_len, y_len) = (g.input.sample_len(), g.output().sample_len());
    let [a_len, b_len, out_len] = match op {
        ConvOp::Forward => [Some(x_len), None, Some(y_len)],
        ConvOp::BackwardData => [Some(y_len), None, Some(x_len)],
        ConvOp::BackwardFilter => [Some(x_len), Some(y_len), None],
    };
    let mut out = init.to_vec();
    let mut plan = EnginePlan::for_engine(engine);
    let mut lo = 0;
    for (i, &m) in micros.iter().enumerate() {
        let micro_g = g.with_batch(m);
        let beta = if op == ConvOp::BackwardFilter && i > 0 {
            1.0
        } else {
            BETA
        };
        let mut ws = vec![0.0; workspace_floats(engine, op, &micro_g)];
        exec_with_plan(
            engine,
            op,
            &micro_g,
            rows(a, a_len, lo, m),
            rows(b, b_len, lo, m),
            rows_mut(&mut out, out_len, lo, m),
            ALPHA,
            beta,
            &mut ws,
            &mut plan,
        )
        .unwrap();
        lo += m;
    }
    assert_eq!(lo, g.batch(), "a division tiles the batch");
    out.iter().map(|v| v.to_bits()).collect()
}

/// Compare every division of every layer against the undivided call, per
/// engine that supports `op` and per thread cap; returns the cells compared.
fn check_op(op: ConvOp) -> usize {
    let _serial = CAP.lock().unwrap_or_else(|e| e.into_inner());
    let mut cells = 0;
    let mut differ = Vec::new();
    for (name, g) in layers() {
        let x = Tensor::random(g.input, 1);
        let w = Tensor::random(g.filter.as_shape4(), 2);
        let dy = Tensor::random(g.output(), 3);
        let (a, b, out_shape) = match op {
            ConvOp::Forward => (x.as_slice(), w.as_slice(), g.output()),
            ConvOp::BackwardData => (dy.as_slice(), w.as_slice(), g.input),
            ConvOp::BackwardFilter => (x.as_slice(), dy.as_slice(), g.filter.as_shape4()),
        };
        let init = Tensor::random(out_shape, 4);
        let bufs = [a, b, init.as_slice()];
        for engine in EngineKind::ALL {
            if !supports(engine, op, &g) {
                continue;
            }
            for cap in caps() {
                set_thread_cap(Some(cap));
                let undivided = replay(engine, op, &g, &[N], bufs);
                for micros in divisions() {
                    cells += 1;
                    if replay(engine, op, &g, &micros, bufs) != undivided {
                        differ.push(format!("{engine:?} {name} {micros:?} cap {cap}"));
                    }
                }
            }
        }
    }
    set_thread_cap(None);
    assert!(
        differ.is_empty(),
        "{op}: divided calls differ from the undivided one:\n{}",
        differ.join("\n")
    );
    cells
}

#[test]
fn forward_micro_batches_are_exact() {
    // Implicit GEMM and both Winograd tiles.
    let per_engine = layers().len() * caps().len() * divisions().len();
    assert_eq!(check_op(ConvOp::Forward), 3 * per_engine);
}

#[test]
fn backward_data_micro_batches_are_exact() {
    let per_engine = layers().len() * caps().len() * divisions().len();
    assert_eq!(check_op(ConvOp::BackwardData), 3 * per_engine);
}

#[test]
fn backward_filter_micro_batches_are_exact() {
    // Only implicit GEMM: the CPU Winograd engine has no backward-filter.
    let per_engine = layers().len() * caps().len() * divisions().len();
    assert_eq!(check_op(ConvOp::BackwardFilter), per_engine);
}
