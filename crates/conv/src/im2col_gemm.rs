//! The im2col + GEMM convolution engine (cuDNN `ALGO_GEMM` analogue).
//!
//! Each sample is lowered in caller-provided workspace and multiplied
//! against the filter matrix. The forward path fuses the lowering with GEMM
//! operand packing ([`crate::im2col::im2col_packed_b`]): columns are written
//! straight into packed-B panels, so no separate `(C*R*S) x (Ho*Wo)` im2col
//! matrix is materialized and the GEMM skips its internal packing pass. The
//! backward paths still use the explicit column buffer (the data gradient
//! *produces* columns; the filter gradient consumes them as the transposed
//! operand). The explicit lowering is what gives this algorithm its
//! workspace appetite in cuDNN; the *model* of the GPU algorithm's workspace
//! lives in `ucudnn-gpu-model`.
//!
//! Every call runs on `parallel::workers_for` workers with one
//! fork/join, inside the same one-sample workspace. Each worker owns a slice
//! of the column buffer and the output elements it feeds, for every sample
//! of the call, so workers never wait for each other:
//!
//! * **Forward** splits the `NR`-column panels of the packed column buffer:
//!   a worker lowers its panels and multiplies them into its own columns of
//!   `y`.
//! * **BackwardData** splits the input channels at `MR` row panels of the
//!   packed `Wᵀ`: a worker computes its channels' rows of the column buffer
//!   and `col2im`s them into its own channels of `dx`.
//! * **BackwardFilter** splits the column-buffer rows (filter taps): a
//!   worker lowers its rows and accumulates its own columns of `dw`.
//!
//! Every output element keeps its micro-kernel chain and its `col2im`
//! accumulation order, so the result is bit-identical for every worker
//! count.

use crate::gemm::{
    scale_beta, sgemm_prepacked_a_rows, sgemm_prepacked_rows, sgemm_rows, Trans, MR, NR,
};
use crate::im2col::{col2im_add, im2col_packed_b, im2col_rows, packed_col_len};
use crate::parallel::{even_cuts, fork_join, split_at_cuts, split_columns, workers_for};
use crate::plan::GemmPlan;
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

/// Workspace (in `f32` elements) required by this engine for any of the
/// three convolution operations: the single-sample column buffer, rounded up
/// to whole packed-B panels for the fused forward path
/// (`packed_col_len >= col_len`, so the backward paths fit too).
pub fn workspace_floats(g: &ConvGeometry) -> usize {
    packed_col_len(g)
}

fn check_ws(g: &ConvGeometry, ws: &[f32]) {
    assert!(
        ws.len() >= workspace_floats(g),
        "workspace too small: {} < {}",
        ws.len(),
        workspace_floats(g)
    );
}

/// `cuts` scaled by `unit_len`: unit cut points as element offsets.
fn scaled(cuts: &[usize], unit_len: usize) -> Vec<usize> {
    cuts.iter().map(|&c| c * unit_len).collect()
}

/// `g` restricted to `c` input channels: the geometry of one worker's
/// channel range, for `col2im` over that range alone.
fn with_channels(g: &ConvGeometry, c: usize) -> ConvGeometry {
    ConvGeometry {
        input: Shape4 { c, ..g.input },
        filter: FilterShape { c, ..g.filter },
        ..*g
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `y = alpha * conv(x, w) + beta * y` via per-sample im2col + GEMM.
pub fn forward(
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) {
    forward_with_plan(g, x, w, y, alpha, beta, ws, &mut GemmPlan::default());
}

/// [`forward`] with a reusable plan: the filter is packed into GEMM panels
/// once (revalidated by fingerprint) and every sample — and every subsequent
/// micro-batch of the same layer — reuses the packed panels. Bit-identical
/// to the plan-free path (packing is deterministic).
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn forward_with_plan(
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut GemmPlan,
) {
    check_ws(g, ws);
    let n = g.input.n;
    let (k, crs) = (g.filter.k, g.input.c * g.filter.r * g.filter.s);
    let howo = g.out_h() * g.out_w();
    let in_sample = g.input.sample_len();
    assert_eq!(x.len(), g.input.len(), "x buffer mismatch");
    assert_eq!(w.len(), g.filter.len(), "w buffer mismatch");
    assert_eq!(y.len(), n * k * howo, "y buffer mismatch");

    let packed_w = plan.packed_forward(k, crs, w);
    // Worker i owns packed-B panels [cuts[i], cuts[i+1]) and the matching
    // columns of every output row.
    let panels = howo.div_ceil(NR);
    let cuts = even_cuts(panels, workers_for(g.macs(), panels));
    let cols: Vec<usize> = cuts.iter().map(|&p| (p * NR).min(howo)).collect();
    let pcols = split_at_cuts(&mut ws[..packed_col_len(g)], &scaled(&cuts, NR * crs));
    let parts: Vec<_> = cuts
        .windows(2)
        .zip(cols.windows(2))
        .zip(pcols)
        .zip(split_columns(y, n * k, &cols))
        .collect();
    fork_join(parts, |(((p, c), pcol), mut rows)| {
        for ni in 0..n {
            // Fused im2col + pack: columns land directly in packed-B panels.
            im2col_packed_b(
                g,
                &x[ni * in_sample..(ni + 1) * in_sample],
                p[0]..p[1],
                pcol,
            );
            // y[n] (K x cols) = alpha * W (K x CRS) @ col (CRS x cols) + beta * y[n]
            let yrows = &mut rows[ni * k..(ni + 1) * k];
            sgemm_prepacked_rows(packed_w, c[1] - c[0], alpha, pcol, beta, yrows);
        }
    });
}

/// `dx = alpha * grad_x + beta * dx` via GEMM + col2im.
pub fn backward_data(
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) {
    backward_data_with_plan(g, dy, w, dx, alpha, beta, ws, &mut GemmPlan::default());
}

/// [`backward_data`] with a reusable plan holding the packed `Wᵀ` panels.
/// Bit-identical to the plan-free path.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn backward_data_with_plan(
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut GemmPlan,
) {
    check_ws(g, ws);
    let n = g.input.n;
    let (c, rs, k) = (g.input.c, g.filter.r * g.filter.s, g.filter.k);
    let howo = g.out_h() * g.out_w();
    let (hw, out_sample) = (g.input.h * g.input.w, k * howo);
    assert_eq!(dy.len(), n * out_sample, "dy buffer mismatch");
    assert_eq!(w.len(), g.filter.len(), "w buffer mismatch");
    assert_eq!(dx.len(), g.input.len(), "dx buffer mismatch");

    let packed_wt = plan.packed_backward_data(c * rs, k, w);
    // Worker i owns input channels [cuts[i], cuts[i+1]): whole blocks of
    // `step` channels, the fewest whose column-buffer rows fill MR panels.
    let step = MR / gcd(rs, MR);
    let blocks = c.div_ceil(step);
    let cuts: Vec<usize> = even_cuts(blocks, workers_for(g.macs(), blocks))
        .iter()
        .map(|&b| (b * step).min(c))
        .collect();
    let cols = split_at_cuts(&mut ws[..c * rs * howo], &scaled(&cuts, rs * howo));
    let parts: Vec<_> = cuts
        .windows(2)
        .zip(cols)
        .zip(split_columns(dx, n, &scaled(&cuts, hw)))
        .collect();
    fork_join(parts, |((ch, col), mut dxs)| {
        let sub = with_channels(g, ch[1] - ch[0]);
        for (ni, dxs) in dxs.iter_mut().enumerate() {
            // col (rows x HoWo) = W^T[rows] (rows x K) @ dy[n] (K x HoWo)
            let dys = &dy[ni * out_sample..(ni + 1) * out_sample];
            sgemm_prepacked_a_rows(
                packed_wt,
                ch[0] * rs..ch[1] * rs,
                Trans::No,
                howo,
                1.0,
                dys,
                0.0,
                col,
            );
            // cuDNN semantics: beta == 0 must not read the output buffer.
            scale_beta(dxs, beta);
            col2im_add(&sub, col, dxs, alpha);
        }
    });
}

/// `dw = alpha * grad_w + beta * dw` via im2col + GEMM, reducing over the
/// batch inside the engine (beta applies once, further samples accumulate).
pub fn backward_filter(
    g: &ConvGeometry,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) {
    check_ws(g, ws);
    let n = g.input.n;
    let (k, crs) = (g.filter.k, g.input.c * g.filter.r * g.filter.s);
    let howo = g.out_h() * g.out_w();
    let in_sample = g.input.sample_len();
    let out_sample = k * howo;
    assert_eq!(x.len(), g.input.len(), "x buffer mismatch");
    assert_eq!(dy.len(), n * out_sample, "dy buffer mismatch");
    assert_eq!(dw.len(), g.filter.len(), "dw buffer mismatch");

    // Worker i owns column-buffer rows [cuts[i], cuts[i+1]) and the same
    // columns of dw.
    let cuts = even_cuts(crs, workers_for(g.macs(), crs));
    let cols = split_at_cuts(&mut ws[..crs * howo], &scaled(&cuts, howo));
    let parts: Vec<_> = cuts
        .windows(2)
        .zip(cols)
        .zip(split_columns(dw, k, &cuts))
        .collect();
    fork_join(parts, |((r, col), mut dw_rows)| {
        for seg in dw_rows.iter_mut() {
            // cuDNN semantics: beta == 0 must not read the output buffer.
            scale_beta(seg, beta);
        }
        for ni in 0..n {
            im2col_rows(g, &x[ni * in_sample..(ni + 1) * in_sample], r[0]..r[1], col);
            // dw[:, rows] (K x rows) += alpha * dy[n] (K x HoWo) @ col[rows]^T
            let dys = &dy[ni * out_sample..(ni + 1) * out_sample];
            sgemm_rows(
                Trans::No,
                Trans::Yes,
                k,
                r[1] - r[0],
                howo,
                alpha,
                dys,
                col,
                1.0,
                &mut dw_rows,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use ucudnn_tensor::{assert_all_close, FilterShape, Shape4, Tensor};

    fn geoms() -> Vec<ConvGeometry> {
        vec![
            ConvGeometry::with_square(Shape4::new(3, 3, 8, 8), FilterShape::new(4, 3, 3, 3), 1, 1),
            ConvGeometry::with_square(Shape4::new(2, 4, 9, 9), FilterShape::new(5, 4, 5, 5), 2, 2),
            ConvGeometry::with_square(Shape4::new(2, 2, 11, 7), FilterShape::new(3, 2, 3, 3), 0, 3),
            ConvGeometry::with_square(Shape4::new(1, 1, 5, 5), FilterShape::new(1, 1, 1, 1), 0, 1),
        ]
    }

    #[test]
    fn forward_matches_direct() {
        for g in geoms() {
            let x = Tensor::random(g.input, 1);
            let w = Tensor::random(g.filter.as_shape4(), 2);
            let mut y_ref = Tensor::zeros(g.output());
            direct::forward(
                &g,
                x.as_slice(),
                w.as_slice(),
                y_ref.as_mut_slice(),
                1.0,
                0.0,
            );
            let mut y = Tensor::zeros(g.output());
            let mut ws = vec![0.0; workspace_floats(&g)];
            forward(
                &g,
                x.as_slice(),
                w.as_slice(),
                y.as_mut_slice(),
                1.0,
                0.0,
                &mut ws,
            );
            assert_all_close(&y_ref, &y, 1e-4);
        }
    }

    #[test]
    fn backward_data_matches_direct() {
        for g in geoms() {
            let dy = Tensor::random(g.output(), 3);
            let w = Tensor::random(g.filter.as_shape4(), 4);
            let mut dx_ref = Tensor::zeros(g.input);
            direct::backward_data(
                &g,
                dy.as_slice(),
                w.as_slice(),
                dx_ref.as_mut_slice(),
                1.0,
                0.0,
            );
            let mut dx = Tensor::zeros(g.input);
            let mut ws = vec![0.0; workspace_floats(&g)];
            backward_data(
                &g,
                dy.as_slice(),
                w.as_slice(),
                dx.as_mut_slice(),
                1.0,
                0.0,
                &mut ws,
            );
            assert_all_close(&dx_ref, &dx, 1e-4);
        }
    }

    #[test]
    fn backward_filter_matches_direct() {
        for g in geoms() {
            let x = Tensor::random(g.input, 5);
            let dy = Tensor::random(g.output(), 6);
            let mut dw_ref = Tensor::zeros(g.filter.as_shape4());
            direct::backward_filter(
                &g,
                x.as_slice(),
                dy.as_slice(),
                dw_ref.as_mut_slice(),
                1.0,
                0.0,
            );
            let mut dw = Tensor::zeros(g.filter.as_shape4());
            let mut ws = vec![0.0; workspace_floats(&g)];
            backward_filter(
                &g,
                x.as_slice(),
                dy.as_slice(),
                dw.as_mut_slice(),
                1.0,
                0.0,
                &mut ws,
            );
            assert_all_close(&dw_ref, &dw, 1e-3);
        }
    }

    #[test]
    fn alpha_beta_semantics_match_direct() {
        let g = geoms()[0];
        let x = Tensor::random(g.input, 7);
        let w = Tensor::random(g.filter.as_shape4(), 8);
        let init = Tensor::random(g.output(), 9);
        let (alpha, beta) = (0.5, 2.0);
        let mut y_ref = init.clone();
        direct::forward(
            &g,
            x.as_slice(),
            w.as_slice(),
            y_ref.as_mut_slice(),
            alpha,
            beta,
        );
        let mut y = init.clone();
        let mut ws = vec![0.0; workspace_floats(&g)];
        forward(
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            alpha,
            beta,
            &mut ws,
        );
        assert_all_close(&y_ref, &y, 1e-4);
    }

    #[test]
    fn backward_filter_accumulation_across_micro_batches() {
        let g =
            ConvGeometry::with_square(Shape4::new(6, 2, 6, 6), FilterShape::new(3, 2, 3, 3), 1, 1);
        let x = Tensor::random(g.input, 10);
        let dy = Tensor::random(g.output(), 11);
        let mut ws = vec![0.0; workspace_floats(&g)];
        let mut dw_full = Tensor::zeros(g.filter.as_shape4());
        backward_filter(
            &g,
            x.as_slice(),
            dy.as_slice(),
            dw_full.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        );

        let mut dw_micro = Tensor::zeros(g.filter.as_shape4());
        for (i, (lo, hi)) in [(0usize, 1usize), (1, 4), (4, 6)].into_iter().enumerate() {
            let mg = g.with_batch(hi - lo);
            backward_filter(
                &mg,
                x.batch_slice(lo, hi),
                dy.batch_slice(lo, hi),
                dw_micro.as_mut_slice(),
                1.0,
                if i == 0 { 0.0 } else { 1.0 },
                &mut ws,
            );
        }
        assert_all_close(&dw_full, &dw_micro, 1e-3);
    }

    #[test]
    fn warm_plan_is_bit_identical() {
        for g in geoms() {
            let x = Tensor::random(g.input, 21);
            let w = Tensor::random(g.filter.as_shape4(), 22);
            let dy = Tensor::random(g.output(), 23);
            let mut ws = vec![0.0; workspace_floats(&g)];

            let mut cold_y = Tensor::zeros(g.output());
            forward(
                &g,
                x.as_slice(),
                w.as_slice(),
                cold_y.as_mut_slice(),
                1.0,
                0.0,
                &mut ws,
            );
            let mut plan = GemmPlan::default();
            for _ in 0..3 {
                let mut warm_y = Tensor::zeros(g.output());
                forward_with_plan(
                    &g,
                    x.as_slice(),
                    w.as_slice(),
                    warm_y.as_mut_slice(),
                    1.0,
                    0.0,
                    &mut ws,
                    &mut plan,
                );
                for (a, b) in cold_y.as_slice().iter().zip(warm_y.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "plan forward diverged ({g})");
                }
            }

            let mut cold_dx = Tensor::zeros(g.input);
            backward_data(
                &g,
                dy.as_slice(),
                w.as_slice(),
                cold_dx.as_mut_slice(),
                1.0,
                0.0,
                &mut ws,
            );
            for _ in 0..2 {
                let mut warm_dx = Tensor::zeros(g.input);
                backward_data_with_plan(
                    &g,
                    dy.as_slice(),
                    w.as_slice(),
                    warm_dx.as_mut_slice(),
                    1.0,
                    0.0,
                    &mut ws,
                    &mut plan,
                );
                for (a, b) in cold_dx.as_slice().iter().zip(warm_dx.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "plan bwd-data diverged ({g})");
                }
            }
            assert!(plan.bytes() > 0, "warm plan should hold packed panels");
        }
    }

    #[test]
    fn backward_data_beta_zero_ignores_garbage_output() {
        let g = geoms()[0];
        let dy = Tensor::random(g.output(), 25);
        let w = Tensor::random(g.filter.as_shape4(), 26);
        let mut ws = vec![0.0; workspace_floats(&g)];
        let mut clean = Tensor::zeros(g.input);
        backward_data(
            &g,
            dy.as_slice(),
            w.as_slice(),
            clean.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        );
        let mut dirty = Tensor::zeros(g.input);
        dirty.as_mut_slice().fill(f32::NAN);
        backward_data(
            &g,
            dy.as_slice(),
            w.as_slice(),
            dirty.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        );
        for (a, b) in clean.as_slice().iter().zip(dirty.as_slice()) {
            assert!(b.is_finite(), "beta=0 must not read the NaN-seeded output");
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn backward_filter_beta_zero_ignores_garbage_output() {
        let g = geoms()[0];
        let x = Tensor::random(g.input, 27);
        let dy = Tensor::random(g.output(), 28);
        let mut ws = vec![0.0; workspace_floats(&g)];
        let mut dw = Tensor::zeros(g.filter.as_shape4());
        dw.as_mut_slice().fill(f32::NAN);
        backward_filter(
            &g,
            x.as_slice(),
            dy.as_slice(),
            dw.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        );
        assert!(dw.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "workspace too small")]
    fn rejects_undersized_workspace() {
        let g = geoms()[0];
        let x = Tensor::zeros(g.input);
        let w = Tensor::zeros(g.filter.as_shape4());
        let mut y = Tensor::zeros(g.output());
        let mut ws = vec![0.0; workspace_floats(&g) - 1];
        forward(
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        );
    }
}
