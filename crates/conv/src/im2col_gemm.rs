//! The im2col + GEMM convolution engine. cuDNN's `IMPLICIT_GEMM`,
//! `IMPLICIT_PRECOMP_GEMM` and `GEMM` all run it, with no workspace.
//!
//! It lowers each sample's receptive fields into a `(C*R*S) x (Ho*Wo)`
//! column matrix and multiplies it against the filter matrix. The forward
//! path fuses the lowering with GEMM operand packing
//! ([`crate::im2col::im2col_packed_b`]): columns are written straight into
//! packed-B panels, and the GEMM skips its internal packing pass. The
//! backward paths use the explicit column layout (the data gradient
//! *produces* columns; the filter gradient consumes them as the transposed
//! operand). The *model* of the GPU algorithms' workspace lives in
//! `ucudnn-gpu-model`.
//!
//! The column matrix never exists whole. Each worker lowers its part of it
//! one block at a time into a buffer it owns, multiplies the block and
//! moves on, as cuDNN's `IMPLICIT_GEMM` forms tiles of the lowered matrix
//! on chip instead of the whole matrix (Chetlur et al.). A block holds at
//! most [`BLOCK_FLOATS`], or one aligned unit where a unit is larger, so
//! the buffer depends on the layer's shape and never on the batch.
//!
//! Every call runs on `parallel::workers_for` workers with one fork/join.
//! Each worker owns a slice of the column buffer and the output elements it
//! feeds, for every sample of the call, so workers never wait for each
//! other. The unit a worker owns, and a block is made of, depends on the
//! op:
//!
//! * **Forward** splits the `NR`-column panels of the packed column buffer:
//!   a worker lowers its panels and multiplies them into its own columns of
//!   `y`.
//! * **BackwardData** splits the input channels at `MR` row panels of the
//!   packed `Wᵀ`: a worker computes its channels' rows of the column buffer
//!   and `col2im`s them into its own channels of `dx`.
//! * **BackwardFilter** splits the column-buffer rows (filter taps): a
//!   worker lowers its rows and accumulates its own columns of `dw`. A
//!   block holds whole groups of `NR` rows, which fill the packed panels of
//!   the transposed operand.
//!
//! The backward paths pack each sample's `dy` once per worker, as the GEMM
//! operand all of the sample's blocks share.
//!
//! Every output element keeps its micro-kernel chain and its `col2im`
//! accumulation order whichever worker or block computes it, so the result
//! is bit-identical for every worker count and every block size.

use crate::gemm::{
    pack_b_into, scale_beta, sgemm_prepacked_a_cols, sgemm_prepacked_cols, sgemm_prepacked_rows,
    PackedA, Trans, MR, NR,
};
use crate::im2col::{col2im_add, im2col_packed_b, im2col_rows};
use crate::parallel::{even_cuts, fork_join, split_at_cuts, split_columns, workers_for};
use crate::plan::GemmPlan;
use core::cell::RefCell;
use core::ops::Range;
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

/// Column-buffer floats a worker lowers at a time: 256 KiB, an eighth of a
/// 2 MiB L2, so a block stays cache-resident between its lowering and its
/// multiply. A unit larger than this (one packed panel, one `MR`-aligned
/// group of channels, `NR` column-buffer rows) makes a block of its own.
pub const BLOCK_FLOATS: usize = 64 << 10;

/// `cuts` scaled by `unit_len`: unit cut points as element offsets.
fn scaled(cuts: &[usize], unit_len: usize) -> Vec<usize> {
    cuts.iter().map(|&c| c * unit_len).collect()
}

/// `g` restricted to `c` input channels: the geometry of one block's
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

thread_local! {
    // The block buffers of the calls this thread makes, one per worker.
    // They grow to the largest call the thread has made, which
    // `BLOCK_FLOATS` bounds per worker and layer shape.
    static BLOCKS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    // One sample's `dy`, packed once as the GEMM operand every block of
    // the sample shares: B panels for backward-data, A panels for
    // backward-filter.
    static DY_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static DY_A: RefCell<PackedA> = RefCell::default();
}

/// The calling thread's block buffers, out of `BLOCKS` for one call and
/// back in it when dropped. Workers borrow their blocks from it, so a
/// worker spawned for the call allocates none.
struct Blocks(Vec<f32>);

impl Blocks {
    fn take() -> Self {
        Blocks(BLOCKS.take())
    }

    /// One block buffer per worker of the unit `cuts`, each unit `unit_len`
    /// floats: a multiple of `align` units, at most `floats` floats or one
    /// `align` group where that is larger, and never more than the widest
    /// worker's part.
    fn split(
        &mut self,
        cuts: &[usize],
        unit_len: usize,
        align: usize,
        floats: usize,
    ) -> Vec<&mut [f32]> {
        let widest = cuts.windows(2).map(|c| c[1] - c[0]).max().unwrap_or(0);
        let units = (floats / (align * unit_len).max(1)).max(1) * align;
        let (workers, len) = (cuts.len() - 1, units.min(widest) * unit_len);
        let buf = &mut self.0;
        if buf.len() < workers * len {
            buf.resize(workers * len, 0.0);
        }
        let offsets: Vec<usize> = (0..=workers).map(|i| i * len).collect();
        split_at_cuts(&mut buf[..workers * len], &offsets)
    }
}

impl Drop for Blocks {
    fn drop(&mut self) {
        BLOCKS.set(std::mem::take(&mut self.0));
    }
}

/// Run `body` on consecutive blocks of the unit range `units`, as many
/// units at a time as `buf` holds (`unit_len` floats each), with exactly the
/// block's part of `buf`.
fn for_blocks(
    buf: &mut [f32],
    units: Range<usize>,
    unit_len: usize,
    mut body: impl FnMut(Range<usize>, &mut [f32]),
) {
    let per = (buf.len() / unit_len.max(1)).max(1);
    for start in units.clone().step_by(per) {
        let block = start..(start + per).min(units.end);
        body(block.clone(), &mut buf[..block.len() * unit_len]);
    }
}

/// `y = alpha * conv(x, w) + beta * y` via per-sample im2col + GEMM, with a
/// reusable plan: the filter is packed into GEMM panels once (revalidated
/// by fingerprint) and every sample — and every subsequent micro-batch of
/// the same layer — reuses the packed panels. Bit-identical to a fresh plan
/// (packing is deterministic).
pub fn forward_with_plan(
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    plan: &mut GemmPlan,
) {
    forward_in(g, x, w, y, alpha, beta, BLOCK_FLOATS, plan);
}

#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
fn forward_in(
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    block_floats: usize,
    plan: &mut GemmPlan,
) {
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
    let ycols: Vec<usize> = cuts.iter().map(|&p| (p * NR).min(howo)).collect();
    let mut blocks = Blocks::take();
    let parts: Vec<_> = cuts
        .windows(2)
        .zip(blocks.split(&cuts, NR * crs, 1, block_floats))
        .zip(split_columns(y, n * k, &ycols))
        .collect();
    fork_join(parts, |((p, buf), mut rows)| {
        for ni in 0..n {
            let xs = &x[ni * in_sample..(ni + 1) * in_sample];
            let yrows = &mut rows[ni * k..(ni + 1) * k];
            for_blocks(buf, p[0]..p[1], NR * crs, |block, pcol| {
                // Fused im2col + pack: columns land directly in packed-B panels.
                im2col_packed_b(g, xs, block.clone(), pcol);
                // y[n] (K x cols) = alpha * W (K x CRS) @ col (CRS x cols) + beta * y[n],
                // for the block's columns within the worker's.
                let at = (block.start - p[0]) * NR..(block.end * NR).min(howo) - p[0] * NR;
                sgemm_prepacked_cols(packed_w, at, alpha, pcol, beta, yrows);
            });
        }
    });
}

/// `dx = alpha * grad_x + beta * dx` via GEMM + col2im, with a reusable
/// plan holding the packed `Wᵀ` panels. Bit-identical to a fresh plan.
pub fn backward_data_with_plan(
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    plan: &mut GemmPlan,
) {
    backward_data_in(g, dy, w, dx, alpha, beta, BLOCK_FLOATS, plan);
}

#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
fn backward_data_in(
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    block_floats: usize,
    plan: &mut GemmPlan,
) {
    let n = g.input.n;
    let (c, rs, k) = (g.input.c, g.filter.r * g.filter.s, g.filter.k);
    let howo = g.out_h() * g.out_w();
    let (hw, out_sample) = (g.input.h * g.input.w, k * howo);
    assert_eq!(dy.len(), n * out_sample, "dy buffer mismatch");
    assert_eq!(w.len(), g.filter.len(), "w buffer mismatch");
    assert_eq!(dx.len(), g.input.len(), "dx buffer mismatch");

    let packed_wt = plan.packed_backward_data(c * rs, k, w);
    // Worker i owns input channels [cuts[i], cuts[i+1]). Its range, and
    // each block in it, starts on a whole group of `step` channels: the
    // fewest whose column-buffer rows fill MR panels.
    let step = MR / gcd(rs, MR);
    let groups = c.div_ceil(step);
    let cuts: Vec<usize> = even_cuts(groups, workers_for(g.macs(), groups))
        .iter()
        .map(|&b| (b * step).min(c))
        .collect();
    let mut blocks = Blocks::take();
    let parts: Vec<_> = cuts
        .windows(2)
        .zip(blocks.split(&cuts, rs * howo, step, block_floats))
        .zip(split_columns(dx, n, &scaled(&cuts, hw)))
        .collect();
    fork_join(parts, |((ch, buf), mut dxs)| {
        DY_B.with(|pdy| {
            let pdy = &mut *pdy.borrow_mut();
            for (ni, dxs) in dxs.iter_mut().enumerate() {
                let dys = &dy[ni * out_sample..(ni + 1) * out_sample];
                pack_b_into(Trans::No, k, howo, dys, pdy);
                for_blocks(buf, ch[0]..ch[1], rs * howo, |block, col| {
                    // col (rows x HoWo) = W^T[rows] (rows x K) @ dy[n] (K x HoWo)
                    let rows = block.start * rs..block.end * rs;
                    sgemm_prepacked_rows(packed_wt, rows, howo, 1.0, pdy, 0.0, col);
                    // cuDNN semantics: beta == 0 must not read the output buffer.
                    let dxb = &mut dxs[(block.start - ch[0]) * hw..(block.end - ch[0]) * hw];
                    scale_beta(dxb, beta);
                    col2im_add(&with_channels(g, block.len()), col, dxb, alpha);
                });
            }
        });
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
) {
    backward_filter_in(g, x, dy, dw, alpha, beta, BLOCK_FLOATS);
}

fn backward_filter_in(
    g: &ConvGeometry,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    alpha: f32,
    beta: f32,
    block_floats: usize,
) {
    let n = g.input.n;
    let (k, crs) = (g.filter.k, g.input.c * g.filter.r * g.filter.s);
    let howo = g.out_h() * g.out_w();
    let in_sample = g.input.sample_len();
    let out_sample = k * howo;
    assert_eq!(x.len(), g.input.len(), "x buffer mismatch");
    assert_eq!(dy.len(), n * out_sample, "dy buffer mismatch");
    assert_eq!(dw.len(), g.filter.len(), "dw buffer mismatch");

    // Worker i owns column-buffer rows [cuts[i], cuts[i+1]) and the same
    // columns of dw. A block holds whole groups of NR rows, which fill the
    // packed panels of the transposed operand.
    let cuts = even_cuts(crs, workers_for(g.macs(), crs));
    let mut blocks = Blocks::take();
    let parts: Vec<_> = cuts
        .windows(2)
        .zip(blocks.split(&cuts, howo, NR, block_floats))
        .zip(split_columns(dw, k, &cuts))
        .collect();
    fork_join(parts, |((r, buf), mut dw_rows)| {
        for seg in dw_rows.iter_mut() {
            // cuDNN semantics: beta == 0 must not read the output buffer.
            scale_beta(seg, beta);
        }
        DY_A.with(|pdy| {
            let pdy = &mut *pdy.borrow_mut();
            for ni in 0..n {
                let xs = &x[ni * in_sample..(ni + 1) * in_sample];
                pdy.repack(
                    Trans::No,
                    k,
                    howo,
                    &dy[ni * out_sample..(ni + 1) * out_sample],
                );
                for_blocks(buf, r[0]..r[1], howo, |block, col| {
                    im2col_rows(g, xs, block.clone(), col);
                    // dw[:, rows] (K x rows) += alpha * dy[n] (K x HoWo) @ col[rows]^T
                    let at = block.start - r[0]..block.end - r[0];
                    sgemm_prepacked_a_cols(pdy, Trans::Yes, at, alpha, col, 1.0, &mut dw_rows);
                });
            }
        });
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

    /// [`forward_with_plan`] on a fresh plan.
    fn cold_forward(g: &ConvGeometry, x: &[f32], w: &[f32], y: &mut [f32], alpha: f32, beta: f32) {
        forward_with_plan(g, x, w, y, alpha, beta, &mut GemmPlan::default());
    }

    /// [`backward_data_with_plan`] on a fresh plan.
    fn cold_backward_data(g: &ConvGeometry, dy: &[f32], w: &[f32], dx: &mut [f32], beta: f32) {
        backward_data_with_plan(g, dy, w, dx, 1.0, beta, &mut GemmPlan::default());
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
            cold_forward(&g, x.as_slice(), w.as_slice(), y.as_mut_slice(), 1.0, 0.0);
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
            cold_backward_data(&g, dy.as_slice(), w.as_slice(), dx.as_mut_slice(), 0.0);
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
            backward_filter(&g, x.as_slice(), dy.as_slice(), dw.as_mut_slice(), 1.0, 0.0);
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
        cold_forward(
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            alpha,
            beta,
        );
        assert_all_close(&y_ref, &y, 1e-4);
    }

    #[test]
    fn backward_filter_accumulation_across_micro_batches() {
        let g =
            ConvGeometry::with_square(Shape4::new(6, 2, 6, 6), FilterShape::new(3, 2, 3, 3), 1, 1);
        let x = Tensor::random(g.input, 10);
        let dy = Tensor::random(g.output(), 11);
        let mut dw_full = Tensor::zeros(g.filter.as_shape4());
        backward_filter(
            &g,
            x.as_slice(),
            dy.as_slice(),
            dw_full.as_mut_slice(),
            1.0,
            0.0,
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

            let mut cold_y = Tensor::zeros(g.output());
            cold_forward(
                &g,
                x.as_slice(),
                w.as_slice(),
                cold_y.as_mut_slice(),
                1.0,
                0.0,
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
                    &mut plan,
                );
                for (a, b) in cold_y.as_slice().iter().zip(warm_y.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "plan forward diverged ({g})");
                }
            }

            let mut cold_dx = Tensor::zeros(g.input);
            cold_backward_data(&g, dy.as_slice(), w.as_slice(), cold_dx.as_mut_slice(), 0.0);
            for _ in 0..2 {
                let mut warm_dx = Tensor::zeros(g.input);
                backward_data_with_plan(
                    &g,
                    dy.as_slice(),
                    w.as_slice(),
                    warm_dx.as_mut_slice(),
                    1.0,
                    0.0,
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
        let mut clean = Tensor::zeros(g.input);
        cold_backward_data(&g, dy.as_slice(), w.as_slice(), clean.as_mut_slice(), 0.0);
        let mut dirty = Tensor::zeros(g.input);
        dirty.as_mut_slice().fill(f32::NAN);
        cold_backward_data(&g, dy.as_slice(), w.as_slice(), dirty.as_mut_slice(), 0.0);
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
        let mut dw = Tensor::zeros(g.filter.as_shape4());
        dw.as_mut_slice().fill(f32::NAN);
        backward_filter(&g, x.as_slice(), dy.as_slice(), dw.as_mut_slice(), 1.0, 0.0);
        assert!(dw.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Output bits of every op on `g` with beta scaling a live output,
    /// lowering in blocks of at most `floats` floats.
    fn op_bits(g: &ConvGeometry, floats: usize) -> [Vec<u32>; 3] {
        let x = Tensor::random(g.input, 31);
        let w = Tensor::random(g.filter.as_shape4(), 32);
        let dy = Tensor::random(g.output(), 33);
        let (x, w, dy) = (x.as_slice(), w.as_slice(), dy.as_slice());
        let mut y = Tensor::random(g.output(), 34);
        let mut dx = Tensor::random(g.input, 35);
        let mut dw = Tensor::random(g.filter.as_shape4(), 36);
        let (alpha, beta) = (0.75, -0.5);
        let mut plan = GemmPlan::default();
        forward_in(g, x, w, y.as_mut_slice(), alpha, beta, floats, &mut plan);
        backward_data_in(g, dy, w, dx.as_mut_slice(), alpha, beta, floats, &mut plan);
        backward_filter_in(g, x, dy, dw.as_mut_slice(), alpha, beta, floats);
        [y, dx, dw].map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
    }

    /// Lowering in blocks — one unit per block, a few units, or
    /// `BLOCK_FLOATS` — computes the bits of lowering each worker's whole
    /// part at once (`usize::MAX`), as a one-sample workspace would.
    #[test]
    fn blocked_lowering_is_bit_identical_to_the_workspace() {
        let mut shapes = geoms();
        // Seven channels: backward-data blocks end off a channel group.
        shapes.push(ConvGeometry::with_square(
            Shape4::new(2, 7, 10, 10),
            FilterShape::new(9, 7, 3, 3),
            1,
            1,
        ));
        for g in shapes {
            let want = op_bits(&g, usize::MAX);
            for floats in [1, 100, 2000, BLOCK_FLOATS] {
                let got = op_bits(&g, floats);
                assert!(got == want, "{g}: blocks of {floats} floats diverged");
            }
        }
    }
}
