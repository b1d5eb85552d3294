//! Property-based tests (proptest) on the convolution engines and the
//! micro-batching invariants, over randomized geometries.

use proptest::prelude::*;
use ucudnn_conv::{direct, exec, supports, workspace_floats, ConvOp, EngineKind};
use ucudnn_tensor::{max_rel_diff, ConvGeometry, FilterShape, Shape4, Tensor};

/// Random small-but-nontrivial convolution geometries.
fn geometries() -> impl Strategy<Value = ConvGeometry> {
    (
        1usize..=6,
        1usize..=4,
        4usize..=10,
        1usize..=4,
        1usize..=3,
        0usize..=2,
        1usize..=2,
    )
        .prop_map(|(n, c, hw, k, half_r, pad, stride)| {
            let r = 2 * half_r - 1; // odd kernels 1/3/5
            let pad = pad.min(r - 1);
            ConvGeometry::with_square(
                Shape4::new(n, c, hw.max(r), hw.max(r)),
                FilterShape::new(k, c, r, r),
                pad,
                stride,
            )
        })
}

/// The direct seven-loop oracle's result.
fn oracle(op: ConvOp, g: &ConvGeometry, a: &Tensor, b: &Tensor, out_shape: Shape4) -> Tensor {
    let mut out = Tensor::zeros(out_shape);
    direct::run(
        op,
        g,
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
        1.0,
        0.0,
    );
    out
}

fn run_engine(
    engine: EngineKind,
    op: ConvOp,
    g: &ConvGeometry,
    a: &Tensor,
    b: &Tensor,
    out_shape: Shape4,
) -> Tensor {
    let mut out = Tensor::zeros(out_shape);
    let mut ws = vec![0.0f32; workspace_floats(engine, op, g)];
    exec(
        engine,
        op,
        g,
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
        1.0,
        0.0,
        &mut ws,
    )
    .unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All supported engines agree with the direct oracle on all ops.
    #[test]
    fn engines_agree(g in geometries(), seed in 0u64..1000) {
        let x = Tensor::random(g.input, seed);
        let w = Tensor::random(g.filter.as_shape4(), seed + 1);
        let dy = Tensor::random(g.output(), seed + 2);
        for op in ConvOp::ALL {
            let (a, b, out_shape) = match op {
                ConvOp::Forward => (&x, &w, g.output()),
                ConvOp::BackwardData => (&dy, &w, g.input),
                ConvOp::BackwardFilter => (&x, &dy, g.filter.as_shape4()),
            };
            let reference = oracle(op, &g, a, b, out_shape);
            for engine in EngineKind::ALL {
                if supports(engine, op, &g) {
                    let got = run_engine(engine, op, &g, a, b, out_shape);
                    prop_assert!(
                        max_rel_diff(&reference, &got) < 1e-2,
                        "{engine:?} {op} diverges on {g}"
                    );
                }
            }
        }
    }

    /// Splitting the batch at any point and concatenating reproduces the
    /// undivided forward result exactly (bitwise, since per-sample
    /// arithmetic is identical), for every engine.
    #[test]
    fn forward_split_is_exact(g in geometries(), split_frac in 0.0f64..1.0, seed in 0u64..1000) {
        prop_assume!(g.input.n >= 2);
        let split = 1 + ((g.input.n - 1) as f64 * split_frac) as usize;
        let x = Tensor::random(g.input, seed);
        let w = Tensor::random(g.filter.as_shape4(), seed + 1);
        for engine in EngineKind::ALL {
            if !supports(engine, ConvOp::Forward, &g) {
                continue;
            }
            let full = run_engine(engine, ConvOp::Forward, &g, &x, &w, g.output());
            let mut pieces = Tensor::zeros(g.output());
            for (lo, hi) in [(0, split), (split, g.input.n)] {
                let mg = g.with_batch(hi - lo);
                let mut ws = vec![0.0f32; workspace_floats(engine, ConvOp::Forward, &mg)];
                exec(
                    engine,
                    ConvOp::Forward,
                    &mg,
                    x.batch_slice(lo, hi),
                    w.as_slice(),
                    pieces.batch_slice_mut(lo, hi),
                    1.0,
                    0.0,
                    &mut ws,
                )
                .unwrap();
            }
            prop_assert_eq!(full.as_slice(), pieces.as_slice(), "{:?} split mismatch", engine);
        }
    }

    /// BackwardFilter with beta=1 accumulation over any 2-way split matches
    /// the undivided oracle gradient within f32 reassociation error, on the
    /// im2col+GEMM engine.
    #[test]
    fn backward_filter_accumulation(g in geometries(), split_frac in 0.0f64..1.0, seed in 0u64..1000) {
        prop_assume!(g.input.n >= 2);
        let split = 1 + ((g.input.n - 1) as f64 * split_frac) as usize;
        let x = Tensor::random(g.input, seed);
        let dy = Tensor::random(g.output(), seed + 3);
        let full = oracle(ConvOp::BackwardFilter, &g, &x, &dy, g.filter.as_shape4());
        let mut acc = Tensor::zeros(g.filter.as_shape4());
        for (i, (lo, hi)) in [(0, split), (split, g.input.n)].into_iter().enumerate() {
            let mg = g.with_batch(hi - lo);
            exec(
                EngineKind::ImplicitGemm,
                ConvOp::BackwardFilter,
                &mg,
                x.batch_slice(lo, hi),
                dy.batch_slice(lo, hi),
                acc.as_mut_slice(),
                1.0,
                if i == 0 { 0.0 } else { 1.0 },
                &mut [],
            )
            .unwrap();
        }
        prop_assert!(max_rel_diff(&full, &acc) < 1e-3, "accumulation mismatch");
    }

    /// alpha/beta output scaling is uniform across engines.
    #[test]
    fn alpha_beta_uniform(g in geometries(), alpha in -2.0f32..2.0, beta in -2.0f32..2.0, seed in 0u64..1000) {
        let x = Tensor::random(g.input, seed);
        let w = Tensor::random(g.filter.as_shape4(), seed + 1);
        let init = Tensor::random(g.output(), seed + 2);
        let mut reference = init.clone();
        direct::forward(&g, x.as_slice(), w.as_slice(), reference.as_mut_slice(), alpha, beta);
        for engine in EngineKind::ALL {
            if supports(engine, ConvOp::Forward, &g) {
                let mut out = init.clone();
                let mut ws = vec![0.0f32; workspace_floats(engine, ConvOp::Forward, &g)];
                exec(engine, ConvOp::Forward, &g, x.as_slice(), w.as_slice(), out.as_mut_slice(), alpha, beta, &mut ws).unwrap();
                prop_assert!(max_rel_diff(&reference, &out) < 2e-2, "{engine:?} alpha/beta mismatch");
            }
        }
    }
}
