//! The im2col+GEMM engine splits every call across the execution workers
//! (forward by column panels, backward-data by input channels, backward-
//! filter by column-buffer rows) and lowers each worker's part in bounded
//! blocks. Neither the split nor the blocks may show: every op's output is
//! bit-identical at thread caps 1, 2, 3 and 8, through `exec` and through a
//! warm plan, for micro-batches 1 to 16 of the `train` layer shapes and of
//! shapes chosen to make the split awkward.

use std::sync::Mutex;
use ucudnn_conv::gemm::NR;
use ucudnn_conv::im2col::col_len;
use ucudnn_conv::im2col_gemm::BLOCK_FLOATS;
use ucudnn_conv::parallel::{set_thread_cap, MIN_MACS_PER_WORKER};
use ucudnn_conv::{exec, exec_with_plan, ConvOp, EngineKind, EnginePlan};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4, Tensor};

/// The thread cap is process-global: tests that sweep it take turns.
static CAP: Mutex<()> = Mutex::new(());

const CAPS: [usize; 4] = [1, 2, 3, 8];
const ALPHA: f32 = 0.75;
const BETA: f32 = -0.5;

/// One sample of a square layer: `c` input channels of `hw x hw`, `k`
/// filters of `r x r`.
fn layer(c: usize, hw: usize, k: usize, r: usize, pad: usize, stride: usize) -> ConvGeometry {
    let (input, filter) = (Shape4::new(1, c, hw, hw), FilterShape::new(k, c, r, r));
    ConvGeometry::with_square(input, filter, pad, stride)
}

/// Single-sample geometries, by name.
fn shapes() -> Vec<(&'static str, ConvGeometry)> {
    vec![
        // The four layers of the e2e `train` network.
        ("conv1", layer(3, 32, 32, 5, 2, 1)),
        ("conv2", layer(32, 16, 64, 3, 1, 1)),
        ("conv3", layer(64, 8, 128, 3, 1, 1)),
        ("conv4", layer(128, 8, 128, 3, 1, 1)),
        // Stride 2, with a ragged last panel (17x17 outputs).
        ("stride2", layer(16, 33, 48, 3, 1, 2)),
        // Seven channels: an even channel split never starts an MR row
        // panel of the 63 column-buffer rows, so it rounds to aligned blocks.
        ("odd_c", layer(7, 20, 96, 3, 1, 1)),
        // 2x2 outputs: fewer columns than one NR panel (8 or 16 lanes).
        ("tiny_howo", layer(64, 2, 128, 3, 1, 1)),
        // Two input channels: fewer than the workers at caps 3 and 8.
        ("two_c", layer(2, 48, 64, 3, 1, 1)),
        // A column buffer of 3.4 implicit-GEMM blocks: split workers lower
        // several blocks each, and the last one is short.
        ("blocks", layer(32, 28, 64, 3, 1, 1)),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Output bits of `op` on `g` at every cap: through `exec`, then through a
/// plan warmed by a first call (only the second call's output counts).
/// `exec` at cap 1 comes first.
fn outputs(op: ConvOp, g: &ConvGeometry) -> Vec<(String, Vec<u32>)> {
    let x = Tensor::random(g.input, 1);
    let w = Tensor::random(g.filter.as_shape4(), 2);
    let dy = Tensor::random(g.output(), 3);
    let (a, b, out_shape) = match op {
        ConvOp::Forward => (x.as_slice(), w.as_slice(), g.output()),
        ConvOp::BackwardData => (dy.as_slice(), w.as_slice(), g.input),
        ConvOp::BackwardFilter => (x.as_slice(), dy.as_slice(), g.filter.as_shape4()),
    };
    let init = Tensor::random(out_shape, 4);
    let mut runs = Vec::new();
    let engine = EngineKind::ImplicitGemm;
    for cap in CAPS {
        set_thread_cap(Some(cap));
        let mut out = init.as_slice().to_vec();
        exec(engine, op, g, a, b, &mut out, ALPHA, BETA, &mut []).unwrap();
        runs.push((format!("exec cap {cap}"), bits(&out)));
        let mut plan = EnginePlan::for_engine(engine);
        for pass in 0..2 {
            let mut out = init.as_slice().to_vec();
            exec_with_plan(
                engine,
                op,
                g,
                a,
                b,
                &mut out,
                ALPHA,
                BETA,
                &mut [],
                &mut plan,
            )
            .unwrap();
            if pass == 1 {
                runs.push((format!("warm plan cap {cap}"), bits(&out)));
            }
        }
    }
    set_thread_cap(None);
    runs
}

/// Micro-batch sizes: 1 to 16 in optimized builds (CI runs `--release`).
/// An unoptimized build runs the engines about a hundred times slower, so
/// it keeps 1 and 2, where `conv4` already splits.
fn micro_batches() -> Vec<usize> {
    if cfg!(debug_assertions) {
        vec![1, 2]
    } else {
        (1..=16).collect()
    }
}

fn check_op(op: ConvOp) {
    let _serial = CAP.lock().unwrap_or_else(|e| e.into_inner());
    let mut split_calls = 0;
    for (name, sample) in shapes() {
        for n in micro_batches() {
            let g = sample.with_batch(n);
            if g.macs() >= 2 * MIN_MACS_PER_WORKER {
                split_calls += 1;
            }
            let runs = outputs(op, &g);
            let (_, want) = &runs[0];
            for (label, got) in &runs[1..] {
                assert!(
                    got == want,
                    "{op} {name} n={n}: {label} differs from exec at cap 1"
                );
            }
        }
    }
    assert!(split_calls > 0, "no call large enough to split");
}

#[test]
fn forward_is_bit_identical_at_every_cap() {
    check_op(ConvOp::Forward);
}

#[test]
fn backward_data_is_bit_identical_at_every_cap() {
    check_op(ConvOp::BackwardData);
}

#[test]
fn backward_filter_is_bit_identical_at_every_cap() {
    check_op(ConvOp::BackwardFilter);
}

/// The awkward shapes are awkward where they claim to be.
#[test]
fn awkward_shapes_cover_the_split_edges() {
    let geoms: Vec<ConvGeometry> = shapes().into_iter().map(|(_, g)| g).collect();
    assert!(geoms.iter().any(|g| g.stride_h == 2));
    assert!(geoms.iter().any(|g| g.out_h() * g.out_w() < NR));
    assert!(geoms.iter().any(|g| g.input.c < 3));
    assert!(geoms.iter().any(|g| (g.out_h() * g.out_w()) % NR != 0));
    assert!(geoms.iter().any(|g| col_len(g) > 3 * BLOCK_FLOATS));
}
