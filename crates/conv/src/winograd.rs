//! Winograd F(m×m, 3×3) convolution, one engine for two tile sizes (cuDNN
//! `ALGO_WINOGRAD` and `ALGO_WINOGRAD_NONFUSED` analogues).
//!
//! The minimal-filtering identity `Y = Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A` computes an
//! m×m output tile from an a×a input tile, a = m + 2, with a² multiplies
//! instead of 9m². A [`Tile`] is one member of that family: the output edge
//! `M`, the input edge `A` and the three transform tables. The engine is
//! written once, generic over the tile:
//!
//! - [`F2`], F(2×2, 3×3): 16 multiplies instead of 36, a 2.25× reduction;
//! - [`F4`], F(4×4, 3×3): 36 instead of 144, a 4× reduction. It needs fewer
//!   tiles and GEMMs than F(2×2) but has larger transform constants, the
//!   classic speed-vs-precision step up the Winograd ladder. Its tables
//!   follow Lavin & Gray (2016):
//!
//! ```text
//! Bᵀ = ⎡ 4  0 −5  0  1  0⎤   G = ⎡ 1/4     0     0 ⎤   Aᵀ = ⎡1  1  1  1  1  0⎤
//!      ⎢ 0 −4 −4  1  1  0⎥       ⎢−1/6  −1/6  −1/6 ⎥        ⎢0  1 −1  2 −2  0⎥
//!      ⎢ 0  4 −4 −1  1  0⎥       ⎢−1/6   1/6  −1/6 ⎥        ⎢0  1  1  4  4  0⎥
//!      ⎢ 0 −2 −1  2  1  0⎥       ⎢ 1/24  1/12  1/6 ⎥        ⎣0  1 −1  8 −8  1⎦
//!      ⎢ 0  2 −1 −2  1  0⎥       ⎢ 1/24 −1/12  1/6 ⎥
//!      ⎣ 0  4  0 −5  0  1⎦       ⎣ 0      0     1  ⎦
//! ```
//!
//! The per-ξ elementwise products over channels form the standard
//! "non-fused" layout `M[ξ] (K×T) = U[ξ] (K×C) @ V[ξ] (C×T)`, ξ < a², whose
//! transformed-tile buffers scale with the batch size (so micro-batching
//! shrinks them, as Fig. 9's `all` policy exploits).
//!
//! # Execution path
//!
//! The fast path runs the a² per-ξ products as **one batched multi-RHS
//! prepacked GEMM** ([`crate::gemm::sgemm_prepacked_batch`]): the input
//! transform processes tiles in [`NR`]-sized strips and writes `V` directly
//! in the ξ-major packed-B panel layout (contiguous `NR`-float runs, no
//! separate packing pass), while the transformed filter `U` is packed once
//! in the [`WinogradPlan`] and replayed across micro-batches. The output
//! transform gathers `NR` contiguous products per ξ and scatters clipped
//! m×m tiles.
//!
//! All three transforms are one two-sided product with a const table
//! (`sandwich`), run on `NR` lanes by the fast path and on one lane by
//! the reference, so the two apply the same per-element arithmetic and the
//! fast path is deterministic and plan-warm/plan-cold byte-identical.
//!
//! [`forward_ref`] / [`backward_data_ref`] retain the scalar per-tile
//! transforms and per-ξ [`sgemm_ref`] products as the naive baseline the
//! `hotpath` benchmark and the oracle tests compare against.
//!
//! Supported geometries mirror cuDNN: 3×3 filters, unit stride, pad ≤ 2;
//! Forward and BackwardData only (BackwardData is Forward on the
//! channel-transposed, 180°-rotated filter with complementary padding).

use crate::gemm::{packed_b_len, sgemm_prepacked_batch, sgemm_ref, Trans, NR};
use crate::plan::{WinogradDir, WinogradPlan};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

/// One member of the F(M×M, 3×3) family: output tile edge `M`, input tile
/// edge `A = M + 2`, and the transform tables. The edges are parameters
/// rather than associated consts because stable Rust cannot size an array
/// by a generic's associated const; the lane buffers are
/// `[[[f32; NR]; A]; A]`.
pub trait Tile<const M: usize, const A: usize>: Copy {
    /// Input transform `Bᵀ` (A×A).
    const BT: [[f32; A]; A];
    /// Filter transform `G` (A×3).
    const G: [[f32; 3]; A];
    /// Output transform `Aᵀ` (M×A).
    const AT: [[f32; A]; M];
}

/// F(2×2, 3×3), cuDNN's `WINOGRAD`.
#[derive(Debug, Clone, Copy)]
pub struct F2;

impl Tile<2, 4> for F2 {
    const BT: [[f32; 4]; 4] = [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ];
    const G: [[f32; 3]; 4] = [
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5],
        [0.0, 0.0, 1.0],
    ];
    const AT: [[f32; 4]; 2] = [[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]];
}

/// F(4×4, 3×3), cuDNN's `WINOGRAD_NONFUSED`.
#[derive(Debug, Clone, Copy)]
pub struct F4;

impl Tile<4, 6> for F4 {
    const BT: [[f32; 6]; 6] = [
        [4.0, 0.0, -5.0, 0.0, 1.0, 0.0],
        [0.0, -4.0, -4.0, 1.0, 1.0, 0.0],
        [0.0, 4.0, -4.0, -1.0, 1.0, 0.0],
        [0.0, -2.0, -1.0, 2.0, 1.0, 0.0],
        [0.0, 2.0, -1.0, -2.0, 1.0, 0.0],
        [0.0, 4.0, 0.0, -5.0, 0.0, 1.0],
    ];
    const G: [[f32; 3]; 6] = [
        [0.25, 0.0, 0.0],
        [-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0],
        [-1.0 / 6.0, 1.0 / 6.0, -1.0 / 6.0],
        [1.0 / 24.0, 1.0 / 12.0, 1.0 / 6.0],
        [1.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0],
        [0.0, 0.0, 1.0],
    ];
    const AT: [[f32; 6]; 4] = [
        [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 2.0, -2.0, 0.0],
        [0.0, 1.0, 1.0, 4.0, 4.0, 0.0],
        [0.0, 1.0, -1.0, 8.0, -8.0, 1.0],
    ];
}

/// True when the engine can run the geometry for forward / backward-data,
/// with either tile.
pub fn supports(g: &ConvGeometry) -> bool {
    g.filter.r == 3
        && g.filter.s == 3
        && g.stride_h == 1
        && g.stride_w == 1
        && g.pad_h <= 2
        && g.pad_w <= 2
}

fn assert_supported(g: &ConvGeometry) {
    assert!(
        supports(g),
        "Winograd F(m x m, 3x3) requires 3x3 filter, unit stride, pad<=2 ({g})"
    );
}

/// Output tile grid: `ceil(Ho/M) x ceil(Wo/M)` tiles per image.
fn tile_grid<const M: usize, const A: usize>(g: &ConvGeometry) -> (usize, usize) {
    const {
        assert!(
            A == M + 2,
            "an F(M×M, 3×3) tile reads M + 2 inputs per axis"
        )
    };
    (g.out_h().div_ceil(M), g.out_w().div_ceil(M))
}

/// Workspace in `f32` elements: filter-transform staging (A²·K·C, used by
/// the reference path), transformed input tiles in ξ-major packed-B panel
/// layout (`A² · packed_b_len(C, T) ≥ A²·C·T`) and product accumulators
/// (A²·K·T rounded up to a whole [`NR`]-tile strip), `T = N·th·tw`.
pub fn workspace_floats<T: Tile<M, A>, const M: usize, const A: usize>(
    _tile: T,
    g: &ConvGeometry,
) -> usize {
    let (th, tw) = tile_grid::<M, A>(g);
    let t = g.input.n * th * tw;
    let (k, c) = (g.filter.k, g.input.c);
    A * A * (k * c + k * t.div_ceil(NR) * NR) + A * A * packed_b_len(c, t)
}

/// Check a forward call's geometry and buffers; returns its tile grid.
fn check_forward<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &[f32],
    ws: &[f32],
) -> (usize, usize) {
    assert_supported(g);
    assert!(ws.len() >= workspace_floats(tile, g), "workspace too small");
    assert_eq!(x.len(), g.input.len(), "x buffer mismatch");
    assert_eq!(w.len(), g.filter.len(), "w buffer mismatch");
    assert_eq!(y.len(), g.output().len(), "y buffer mismatch");
    tile_grid::<M, A>(g)
}

/// cuDNN-semantics writeback: `beta == 0` must not read `y` — NaN or Inf
/// garbage in an uninitialized output buffer is overwritten, not propagated.
#[inline(always)]
fn write_out(y: &mut f32, v: f32, alpha: f32, beta: f32) {
    *y = if beta == 0.0 {
        alpha * v
    } else {
        alpha * v + beta * *y
    };
}

/// `L · X · Lᵀ` for a const table `L` (P×Q) and a Q×Q tile `X` whose
/// entries are `W`-lane vectors: `V = Bᵀ d B`, `U = G g Gᵀ` and
/// `Y = Aᵀ M A` are all this product.
#[inline(always)]
fn sandwich<const P: usize, const Q: usize, const W: usize>(
    l: &[[f32; Q]; P],
    x: &[[[f32; W]; Q]; Q],
) -> [[[f32; W]; P]; P] {
    // lx = L·X row by row, then y = lx·Lᵀ column by column: of the four
    // loop orders, the one the `hotpath` Winograd rows ran fastest.
    let mut lx = [[[0.0f32; W]; Q]; P];
    for (i, row) in l.iter().enumerate() {
        for (j, out) in lx[i].iter_mut().enumerate() {
            *out = dot(row, |k| &x[k][j]);
        }
    }
    let mut y = [[[0.0f32; W]; P]; P];
    for (j, row) in l.iter().enumerate() {
        for (yrow, lxrow) in y.iter_mut().zip(&lx) {
            yrow[j] = dot(row, |k| &lxrow[k]);
        }
    }
    y
}

/// `Σ_k row[k] · x(k)` lane-wise over the nonzero coefficients, in index
/// order. The sum starts from −0.0, the exact additive identity, so the
/// first term enters unrounded and, on a const table, the compiler drops
/// the start value along with the zero terms and the unit multiplies.
#[inline(always)]
fn dot<'a, const Q: usize, const W: usize>(
    row: &[f32; Q],
    x: impl Fn(usize) -> &'a [f32; W],
) -> [f32; W] {
    let mut acc = [-0.0f32; W];
    for (k, &coef) in row.iter().enumerate() {
        if coef != 0.0 {
            for (a, v) in acc.iter_mut().zip(x(k)) {
                *a += coef * v;
            }
        }
    }
    acc
}

/// `U = G g Gᵀ` for every `K·C` filter plane of `w`, into `u` in ξ-major
/// `[ξ][K][C]` layout.
fn transform_filter<T: Tile<M, A>, const M: usize, const A: usize>(
    w: &[f32],
    kc: usize,
    u: &mut [f32],
) {
    for (p, plane) in w.chunks_exact(9).enumerate() {
        let g: [[[f32; 1]; 3]; 3] =
            core::array::from_fn(|r| core::array::from_fn(|s| [plane[3 * r + s]]));
        for (xi, v) in sandwich(&T::G, &g).as_flattened().iter().enumerate() {
            u[xi * kc + p] = v[0];
        }
    }
}

/// `y = alpha * conv(x, w) + beta * y` via non-fused Winograd on `tile`.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn forward<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) {
    let mut plan = WinogradPlan::default();
    forward_with_plan(tile, g, x, w, y, alpha, beta, ws, &mut plan);
}

/// [`forward`] with a reusable plan: the transformed filter `U` is computed
/// and packed into GEMM panels once (revalidated by fingerprint), so every
/// micro-batch after the first skips both the `K·C` filter transforms and
/// the per-ξ `A`-panel packing. Bit-identical to the plan-free path.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn forward_with_plan<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut WinogradPlan,
) {
    forward_impl(tile, g, x, w, y, alpha, beta, ws, plan, WinogradDir::Fwd);
}

#[allow(clippy::too_many_arguments)]
fn forward_impl<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut WinogradPlan,
    dir: WinogradDir,
) {
    let (th, tw) = check_forward(tile, g, x, w, y, ws);
    let (n, c, h, wd) = (g.input.n, g.input.c, g.input.h, g.input.w);
    let k = g.filter.k;
    let (ho, wo) = (g.out_h(), g.out_w());
    let t = n * th * tw;

    // Live regions: Ustage[A²·K·C] (reference path only; the plan path
    // keeps U packed in the plan) | Vstrip[A²·C·NR] | Mstrip[A²·K·NR].
    // The pipeline is cache-blocked per tile strip: transform NR tiles,
    // run the batched GEMM on the strip, transform the products out — the
    // strip operands stay L1/L2-resident instead of streaming full-T
    // V and M buffers through memory between phases.
    let pbl_strip = NR * c; // one packed-B panel per ξ
    let (_, rest) = ws.split_at_mut(A * A * k * c);
    let (v_strip, m_rest) = rest.split_at_mut(A * A * pbl_strip);
    let m_strip = &mut m_rest[..A * A * k * NR];

    // 1. Filter transform: U[ξ][ki][ci] — derived and packed once per
    //    distinct filter, reused across micro-batches and iterations until
    //    the weights change.
    let u_packed = plan.packed_u(dir, A * A, k, c, w, |u| {
        transform_filter::<T, M, A>(w, k * c, u)
    });

    // 2. Per-strip fused pipeline. For each NR-tile strip: gather each
    //    lane's A×A tile into SoA registers, run Bᵀ·d·B lane-wise writing
    //    each ξ's strip as one contiguous NR-float packed-B panel; run the
    //    batched multi-RHS GEMM over all A² ξ on the strip; then gather the
    //    NR contiguous products per ξ and run Aᵀ·M·A lane-wise with clipped
    //    M×M scatter. Padding lanes of the edge strip stay zero, matching
    //    pack_b_into, so the GEMM on the full NR panel yields zeros there.
    let tpi = th * tw;
    let hw = h * wd;
    let span = A as isize - 1;
    for pj in 0..t.div_ceil(NR) {
        let lanes = NR.min(t - pj * NR);
        let mut plane0 = [0usize; NR];
        let mut loh = [0isize; NR];
        let mut low = [0isize; NR];
        for l in 0..lanes {
            let ti = pj * NR + l;
            let (ni, rem) = (ti / tpi, ti % tpi);
            let (tp, tq) = (rem / tw, rem % tw);
            plane0[l] = ni * c * hw;
            loh[l] = (M * tp) as isize - g.pad_h as isize;
            low[l] = (M * tq) as isize - g.pad_w as isize;
        }
        let mut d = [[[0.0f32; NR]; A]; A];
        for ci in 0..c {
            for l in 0..lanes {
                let plane = &x[plane0[l] + ci * hw..plane0[l] + (ci + 1) * hw];
                let (oh, ow) = (loh[l], low[l]);
                if oh >= 0 && ow >= 0 && oh + span < h as isize && ow + span < wd as isize {
                    // Interior tile: A contiguous A-float rows.
                    for (i, drow) in d.iter_mut().enumerate() {
                        let row = &plane[(oh as usize + i) * wd + ow as usize..][..A];
                        for (dv, &xv) in drow.iter_mut().zip(row) {
                            dv[l] = xv;
                        }
                    }
                } else {
                    for (i, drow) in d.iter_mut().enumerate() {
                        let ih = oh + i as isize;
                        let row_ok = ih >= 0 && ih < h as isize;
                        for (j, dv) in drow.iter_mut().enumerate() {
                            let iw = ow + j as isize;
                            dv[l] = if row_ok && iw >= 0 && iw < wd as isize {
                                plane[ih as usize * wd + iw as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
            let v = sandwich(&T::BT, &d);
            let pbase = ci * NR;
            for (xi, vrow) in v.as_flattened().iter().enumerate() {
                v_strip[xi * pbl_strip + pbase..][..NR].copy_from_slice(vrow);
            }
        }

        // Batched multi-RHS GEMM on the strip:
        // M[ξ] (K×NR) = U[ξ] (K×C) @ V[ξ] (C×NR), operands L2-resident.
        sgemm_prepacked_batch(u_packed, NR, 1.0, v_strip, 0.0, m_strip);

        for ki in 0..k {
            let mut m = [[[0.0f32; NR]; A]; A];
            for (xi, mrow) in m.as_flattened_mut().iter_mut().enumerate() {
                mrow.copy_from_slice(&m_strip[xi * k * NR + ki * NR..][..NR]);
            }
            let yt = sandwich(&T::AT, &m);
            for l in 0..lanes {
                let ti = pj * NR + l;
                let (ni, rem) = (ti / tpi, ti % tpi);
                let (tp, tq) = (rem / tw, rem % tw);
                for (i, yrow) in yt.iter().enumerate() {
                    let p = M * tp + i;
                    if p >= ho {
                        continue;
                    }
                    for (j, yv) in yrow.iter().enumerate() {
                        let q = M * tq + j;
                        if q >= wo {
                            continue;
                        }
                        let o = ((ni * k + ki) * ho + p) * wo + q;
                        write_out(&mut y[o], yv[l], alpha, beta);
                    }
                }
            }
        }
    }
}

/// The retained naive reference: scalar per-tile transforms with strided
/// scatter/gather and A² separate per-ξ [`sgemm_ref`] products, plan-free.
/// The `hotpath` benchmark reports the fast path's speedup over this and the
/// pad-envelope oracle tests pin both against [`crate::direct`]. Same
/// workspace contract as [`forward`].
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn forward_ref<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) {
    let (th, tw) = check_forward(tile, g, x, w, y, ws);
    let (n, c, h, wd) = (g.input.n, g.input.c, g.input.h, g.input.w);
    let k = g.filter.k;
    let (ho, wo) = (g.out_h(), g.out_w());
    let t = n * th * tw;

    // Dense layout U[A²][K][C] | V[A²][C][T] | M[A²][K][T] overlaid on the
    // same workspace (fits because packed_b_len(C, T) ≥ C·T).
    let xis = A * A;
    let (u_buf, rest) = ws.split_at_mut(xis * k * c);
    let (v_buf, m_rest) = rest.split_at_mut(xis * c * t);
    let m_buf = &mut m_rest[..xis * k * t];

    transform_filter::<T, M, A>(w, k * c, u_buf);

    for ni in 0..n {
        for ci in 0..c {
            let plane = &x[(ni * c + ci) * h * wd..(ni * c + ci + 1) * h * wd];
            for tp in 0..th {
                for tq in 0..tw {
                    let mut d = [[[0.0f32; 1]; A]; A];
                    let oh = (M * tp) as isize - g.pad_h as isize;
                    let ow = (M * tq) as isize - g.pad_w as isize;
                    for (i, drow) in d.iter_mut().enumerate() {
                        let ih = oh + i as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for (j, dv) in drow.iter_mut().enumerate() {
                            let iw = ow + j as isize;
                            if iw < 0 || iw >= wd as isize {
                                continue;
                            }
                            dv[0] = plane[ih as usize * wd + iw as usize];
                        }
                    }
                    let tile_idx = (ni * th + tp) * tw + tq;
                    let v = sandwich(&T::BT, &d);
                    for (xi, vv) in v.as_flattened().iter().enumerate() {
                        v_buf[xi * c * t + ci * t + tile_idx] = vv[0];
                    }
                }
            }
        }
    }

    // A² naive GEMMs: M[ξ] (K x T) = U[ξ] (K x C) @ V[ξ] (C x T).
    for xi in 0..xis {
        sgemm_ref(
            Trans::No,
            Trans::No,
            k,
            t,
            c,
            1.0,
            &u_buf[xi * k * c..(xi + 1) * k * c],
            &v_buf[xi * c * t..(xi + 1) * c * t],
            0.0,
            &mut m_buf[xi * k * t..(xi + 1) * k * t],
        );
    }

    for ni in 0..n {
        for ki in 0..k {
            for tp in 0..th {
                for tq in 0..tw {
                    let tile_idx = (ni * th + tp) * tw + tq;
                    let mut m = [[[0.0f32; 1]; A]; A];
                    for (xi, mv) in m.as_flattened_mut().iter_mut().enumerate() {
                        mv[0] = m_buf[xi * k * t + ki * t + tile_idx];
                    }
                    let yt = sandwich(&T::AT, &m);
                    for (i, yrow) in yt.iter().enumerate() {
                        let p = M * tp + i;
                        if p >= ho {
                            continue;
                        }
                        for (j, yv) in yrow.iter().enumerate() {
                            let q = M * tq + j;
                            if q >= wo {
                                continue;
                            }
                            let o = ((ni * k + ki) * ho + p) * wo + q;
                            write_out(&mut y[o], yv[0], alpha, beta);
                        }
                    }
                }
            }
        }
    }
}

/// Geometry of the equivalent forward pass used for the data gradient.
fn backward_geometry(g: &ConvGeometry) -> ConvGeometry {
    ConvGeometry::new(
        Shape4::new(g.input.n, g.filter.k, g.out_h(), g.out_w()),
        FilterShape::new(g.input.c, g.filter.k, 3, 3),
        2 - g.pad_h,
        2 - g.pad_w,
        1,
        1,
    )
}

/// Workspace in `f32` elements for [`backward_data`] (the equivalent forward
/// workspace plus the flipped-filter staging buffer).
pub fn workspace_floats_backward_data<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
) -> usize {
    workspace_floats(tile, &backward_geometry(g)) + g.filter.len()
}

/// Check `g` and the workspace for a data-gradient call, and flip `w` into
/// `w'[ci][ki][r][s] = w[ki][ci][2-r][2-s]` at the end of `ws`. Returns the
/// equivalent forward geometry, its workspace and the flipped filter.
fn stage_backward_data<'a, T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    w: &[f32],
    ws: &'a mut [f32],
) -> (ConvGeometry, &'a mut [f32], &'a mut [f32]) {
    assert_supported(g);
    assert!(
        ws.len() >= workspace_floats_backward_data(tile, g),
        "workspace too small"
    );
    let bg = backward_geometry(g);
    debug_assert_eq!(
        bg.output(),
        g.input,
        "backward geometry must recover the input shape"
    );
    let (k, c) = (g.filter.k, g.input.c);
    let (rest, wflip) = ws.split_at_mut(ws.len() - g.filter.len());
    for ci in 0..c {
        for ki in 0..k {
            for r in 0..3 {
                for s in 0..3 {
                    wflip[((ci * k + ki) * 3 + r) * 3 + s] =
                        w[((ki * c + ci) * 3 + (2 - r)) * 3 + (2 - s)];
                }
            }
        }
    }
    (bg, rest, wflip)
}

/// `dx = alpha * grad_x + beta * dx` — forward Winograd on the rotated,
/// channel-transposed filter with complementary padding.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn backward_data<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) {
    let mut plan = WinogradPlan::default();
    backward_data_with_plan(tile, g, dy, w, dx, alpha, beta, ws, &mut plan);
}

/// [`backward_data`] with a reusable plan. The plan fingerprints the flipped
/// filter (a deterministic function of the weights) in its own direction
/// slot, so the cached `U` stays valid across micro-batches — and a plan
/// shared between directions never thrashes or serves the wrong transform.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn backward_data_with_plan<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut WinogradPlan,
) {
    let (bg, rest, wflip) = stage_backward_data(tile, g, w, ws);
    forward_impl(
        tile,
        &bg,
        dy,
        wflip,
        dx,
        alpha,
        beta,
        rest,
        plan,
        WinogradDir::Bwd,
    );
}

/// Naive-baseline counterpart of [`backward_data`]: [`forward_ref`] on the
/// flipped filter. Same workspace contract as [`backward_data`].
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn backward_data_ref<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) {
    let (bg, rest, wflip) = stage_backward_data(tile, g, w, ws);
    forward_ref(tile, &bg, dy, wflip, dx, alpha, beta, rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use ucudnn_tensor::{assert_all_close, Tensor};

    /// Oracle tolerances: F(4×4)'s larger transform constants lose more
    /// precision than F(2×2)'s.
    const TOL_F2: f32 = 1e-3;
    const TOL_F4: f32 = 5e-3;

    /// Odd and non-multiple-of-tile spatial sizes exercise edge-tile
    /// clipping for both tiles; the last two shapes have more tiles than one
    /// NR strip, crossing image boundaries.
    fn geoms() -> Vec<ConvGeometry> {
        let sq = |n, c, h, w, k, pad| {
            let filter = FilterShape::new(k, c, 3, 3);
            ConvGeometry::with_square(Shape4::new(n, c, h, w), filter, pad, 1)
        };
        vec![
            sq(2, 3, 8, 8, 4, 1),
            sq(1, 2, 7, 9, 3, 1),
            sq(1, 2, 9, 11, 3, 1),
            sq(3, 1, 5, 5, 2, 0),
            sq(3, 1, 6, 6, 2, 0),
            sq(1, 2, 6, 6, 2, 2),
            sq(1, 2, 13, 13, 2, 2),
            sq(3, 2, 12, 10, 2, 1),
            sq(3, 2, 14, 18, 2, 1),
        ]
    }

    fn assert_same_bits(a: &Tensor, b: &Tensor, what: &str) {
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    fn forward_matches_direct_on<T: Tile<M, A>, const M: usize, const A: usize>(tile: T, tol: f32) {
        for g in geoms() {
            let x = Tensor::random(g.input, 1);
            let w = Tensor::random(g.filter.as_shape4(), 2);
            let (xs, wf) = (x.as_slice(), w.as_slice());
            let mut y_ref = Tensor::zeros(g.output());
            direct::forward(&g, xs, wf, y_ref.as_mut_slice(), 1.0, 0.0);
            let mut ws = vec![0.0; workspace_floats(tile, &g)];
            let mut y = Tensor::zeros(g.output());
            forward(tile, &g, xs, wf, y.as_mut_slice(), 1.0, 0.0, &mut ws);
            assert_all_close(&y_ref, &y, tol);
            // The retained naive baseline must agree too.
            let mut y_naive = Tensor::zeros(g.output());
            forward_ref(tile, &g, xs, wf, y_naive.as_mut_slice(), 1.0, 0.0, &mut ws);
            assert_all_close(&y_ref, &y_naive, tol);
        }
    }

    #[test]
    fn forward_matches_direct() {
        forward_matches_direct_on(F2, TOL_F2);
        forward_matches_direct_on(F4, TOL_F4);
    }

    fn backward_data_matches_direct_on<T: Tile<M, A>, const M: usize, const A: usize>(
        tile: T,
        tol: f32,
    ) {
        for g in geoms() {
            let dy = Tensor::random(g.output(), 3);
            let w = Tensor::random(g.filter.as_shape4(), 4);
            let (dys, wf) = (dy.as_slice(), w.as_slice());
            let mut dx_ref = Tensor::zeros(g.input);
            direct::backward_data(&g, dys, wf, dx_ref.as_mut_slice(), 1.0, 0.0);
            let mut ws = vec![0.0; workspace_floats_backward_data(tile, &g)];
            let mut dx = Tensor::zeros(g.input);
            backward_data(tile, &g, dys, wf, dx.as_mut_slice(), 1.0, 0.0, &mut ws);
            assert_all_close(&dx_ref, &dx, tol);
            let mut dx_naive = Tensor::zeros(g.input);
            let dxn = dx_naive.as_mut_slice();
            backward_data_ref(tile, &g, dys, wf, dxn, 1.0, 0.0, &mut ws);
            assert_all_close(&dx_ref, &dx_naive, tol);
        }
    }

    #[test]
    fn backward_data_matches_direct() {
        backward_data_matches_direct_on(F2, TOL_F2);
        backward_data_matches_direct_on(F4, TOL_F4);
    }

    fn alpha_beta_semantics_on<T: Tile<M, A>, const M: usize, const A: usize>(tile: T, tol: f32) {
        let g = geoms()[0];
        let x = Tensor::random(g.input, 7);
        let w = Tensor::random(g.filter.as_shape4(), 8);
        let (xs, wf) = (x.as_slice(), w.as_slice());
        let init = Tensor::random(g.output(), 9);
        let mut y_ref = init.clone();
        direct::forward(&g, xs, wf, y_ref.as_mut_slice(), 0.5, 2.0);
        let mut y = init.clone();
        let mut ws = vec![0.0; workspace_floats(tile, &g)];
        forward(tile, &g, xs, wf, y.as_mut_slice(), 0.5, 2.0, &mut ws);
        assert_all_close(&y_ref, &y, tol);
    }

    #[test]
    fn alpha_beta_semantics() {
        alpha_beta_semantics_on(F2, TOL_F2);
        alpha_beta_semantics_on(F4, TOL_F4);
    }

    fn beta_zero_ignores_garbage_output_on<T: Tile<M, A>, const M: usize, const A: usize>(tile: T) {
        let g = geoms()[0];
        let x = Tensor::random(g.input, 17);
        let w = Tensor::random(g.filter.as_shape4(), 18);
        let (xs, wf) = (x.as_slice(), w.as_slice());
        let mut ws = vec![0.0; workspace_floats(tile, &g)];
        let mut clean = Tensor::zeros(g.output());
        forward(tile, &g, xs, wf, clean.as_mut_slice(), 1.0, 0.0, &mut ws);
        let mut dirty = Tensor::full(g.output(), f32::NAN);
        forward(tile, &g, xs, wf, dirty.as_mut_slice(), 1.0, 0.0, &mut ws);
        assert!(
            dirty.as_slice().iter().all(|v| v.is_finite()),
            "beta=0 must not read the NaN-seeded output"
        );
        assert_same_bits(&clean, &dirty, "beta=0 output depends on prior contents");
    }

    #[test]
    fn beta_zero_ignores_garbage_output() {
        beta_zero_ignores_garbage_output_on(F2);
        beta_zero_ignores_garbage_output_on(F4);
    }

    fn warm_plan_is_bit_identical_on<T: Tile<M, A>, const M: usize, const A: usize>(tile: T) {
        for g in geoms() {
            let x = Tensor::random(g.input, 51);
            let w = Tensor::random(g.filter.as_shape4(), 52);
            let (xs, wf) = (x.as_slice(), w.as_slice());
            let mut ws = vec![0.0; workspace_floats(tile, &g)];
            let mut cold = Tensor::zeros(g.output());
            forward(tile, &g, xs, wf, cold.as_mut_slice(), 1.0, 0.0, &mut ws);
            let mut plan = WinogradPlan::default();
            for _ in 0..3 {
                let mut warm = Tensor::zeros(g.output());
                let out = warm.as_mut_slice();
                forward_with_plan(tile, &g, xs, wf, out, 1.0, 0.0, &mut ws, &mut plan);
                assert_same_bits(&cold, &warm, &format!("plan path diverged ({g})"));
            }
            assert!(plan.bytes() > 0, "warm plan should hold packed U panels");
        }
    }

    #[test]
    fn warm_plan_is_bit_identical() {
        warm_plan_is_bit_identical_on(F2);
        warm_plan_is_bit_identical_on(F4);
    }

    /// One plan serving forward and backward-data must fill separate
    /// direction slots — no thrash, no wrong-direction transforms.
    fn shared_plan_across_directions_on<T: Tile<M, A>, const M: usize, const A: usize>(tile: T) {
        let g = geoms()[0];
        let x = Tensor::random(g.input, 53);
        let w = Tensor::random(g.filter.as_shape4(), 54);
        let dy = Tensor::random(g.output(), 55);
        let (xs, wf, dys) = (x.as_slice(), w.as_slice(), dy.as_slice());
        let mut ws = vec![0.0; workspace_floats_backward_data(tile, &g)];
        let mut cold_y = Tensor::zeros(g.output());
        forward(tile, &g, xs, wf, cold_y.as_mut_slice(), 1.0, 0.0, &mut ws);
        let mut cold_dx = Tensor::zeros(g.input);
        backward_data(tile, &g, dys, wf, cold_dx.as_mut_slice(), 1.0, 0.0, &mut ws);
        let mut plan = WinogradPlan::default();
        for _ in 0..3 {
            let mut warm_y = Tensor::zeros(g.output());
            let out = warm_y.as_mut_slice();
            forward_with_plan(tile, &g, xs, wf, out, 1.0, 0.0, &mut ws, &mut plan);
            let mut warm_dx = Tensor::zeros(g.input);
            let out = warm_dx.as_mut_slice();
            backward_data_with_plan(tile, &g, dys, wf, out, 1.0, 0.0, &mut ws, &mut plan);
            assert_same_bits(&cold_y, &warm_y, "fwd diverged under shared plan");
            assert_same_bits(&cold_dx, &warm_dx, "bwd diverged under shared plan");
        }
    }

    #[test]
    fn shared_plan_across_directions_is_bit_identical() {
        shared_plan_across_directions_on(F2);
        shared_plan_across_directions_on(F4);
    }

    fn identity_kernel_recovers_input_on<T: Tile<M, A>, const M: usize, const A: usize>(tile: T) {
        let g =
            ConvGeometry::with_square(Shape4::new(1, 1, 8, 8), FilterShape::new(1, 1, 3, 3), 1, 1);
        let x = Tensor::random(g.input, 11);
        let mut w = Tensor::zeros(g.filter.as_shape4());
        w.set(0, 0, 1, 1, 1.0); // centre tap
        let mut y = Tensor::zeros(g.output());
        let mut ws = vec![0.0; workspace_floats(tile, &g)];
        let (xs, wf) = (x.as_slice(), w.as_slice());
        forward(tile, &g, xs, wf, y.as_mut_slice(), 1.0, 0.0, &mut ws);
        assert_all_close(&x, &y, 1e-4);
    }

    #[test]
    fn identity_kernel_recovers_input() {
        identity_kernel_recovers_input_on(F2);
        identity_kernel_recovers_input_on(F4);
    }

    #[test]
    fn rejects_non_3x3() {
        let g =
            ConvGeometry::with_square(Shape4::new(1, 1, 8, 8), FilterShape::new(1, 1, 5, 5), 2, 1);
        assert!(!supports(&g));
    }

    #[test]
    fn rejects_stride() {
        let g =
            ConvGeometry::with_square(Shape4::new(1, 1, 8, 8), FilterShape::new(1, 1, 3, 3), 1, 2);
        assert!(!supports(&g));
    }

    fn workspace_scales_with_batch_on<T: Tile<M, A>, const M: usize, const A: usize>(tile: T) {
        let g = ConvGeometry::with_square(
            Shape4::new(64, 16, 16, 16),
            FilterShape::new(32, 16, 3, 3),
            1,
            1,
        );
        let w64 = workspace_floats(tile, &g);
        let w8 = workspace_floats(tile, &g.with_batch(8));
        assert!(w8 < w64);
        // Fixed A²·K·C term keeps it from shrinking by the full 8x.
        assert!(w8 > w64 / 8);
    }

    #[test]
    fn workspace_scales_with_batch() {
        workspace_scales_with_batch_on(F2);
        workspace_scales_with_batch_on(F4);
    }

    /// forward_ref overlays U|V|M dense on the packed-layout workspace.
    fn workspace_covers_dense_reference_layout_on<T: Tile<M, A>, const M: usize, const A: usize>(
        tile: T,
    ) {
        for g in geoms() {
            let (th, tw) = tile_grid::<M, A>(&g);
            let t = g.input.n * th * tw;
            let (k, c) = (g.filter.k, g.input.c);
            assert!(workspace_floats(tile, &g) >= A * A * (k * c + c * t + k * t));
        }
    }

    #[test]
    fn workspace_covers_dense_reference_layout() {
        workspace_covers_dense_reference_layout_on(F2);
        workspace_covers_dense_reference_layout_on(F4);
    }

    #[test]
    fn f4_needs_fewer_tiles_than_f2() {
        // F(4×4) halves the tile count per axis vs F(2×2) — the reason the
        // non-fused workspace is not simply 36/16 of the fused layout.
        let g = ConvGeometry::with_square(
            Shape4::new(8, 16, 32, 32),
            FilterShape::new(16, 16, 3, 3),
            1,
            1,
        );
        let (f4, f2) = (workspace_floats(F4, &g), workspace_floats(F2, &g));
        // 36 elements on a quarter of the tiles vs 16 on all of them.
        assert!(
            f4 < f2,
            "F(4x4) ws {f4} should undercut F(2x2) ws {f2} here"
        );
    }
}
