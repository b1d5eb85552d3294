//! im2col / col2im transforms for the GEMM convolution engine.
//!
//! For one sample, `im2col` lowers the (C, H, W) activation into a
//! `(C*R*S) x (Ho*Wo)` matrix whose column `(p, q)` is the receptive field of
//! output position `(p, q)`; convolution then becomes a single GEMM with the
//! `(K, C*R*S)` filter matrix. `col2im` is the adjoint scatter-add used for
//! the data gradient.

use crate::gemm::NR;
use core::ops::Range;
use ucudnn_tensor::ConvGeometry;

/// Number of `f32` elements in the column matrix for a single sample.
pub fn col_len(g: &ConvGeometry) -> usize {
    g.input.c * g.filter.r * g.filter.s * g.out_h() * g.out_w()
}

/// Output positions along one axis whose filter tap `t` lands inside the
/// input: `o` in the returned range has `0 <= o*stride + t - pad < len`.
fn in_bounds(out: usize, stride: usize, pad: usize, t: usize, len: usize) -> Range<usize> {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = if len + pad > t {
        ((len + pad - t - 1) / stride + 1).min(out)
    } else {
        0
    };
    lo.min(hi)..hi
}

/// In-bounds output columns of every horizontal tap `si` of `g`.
fn col_ranges(g: &ConvGeometry) -> Vec<Range<usize>> {
    (0..g.filter.s)
        .map(|si| in_bounds(g.out_w(), g.stride_w, g.pad_w, si, g.input.w))
        .collect()
}

/// The input row of channel `xc` that output row `p` reads through vertical
/// tap `ri`, or `None` when it falls in the padding.
#[inline(always)]
fn input_row<'a>(g: &ConvGeometry, xc: &'a [f32], p: usize, ri: usize) -> Option<&'a [f32]> {
    let w = g.input.w;
    let ih = (p * g.stride_h + ri).checked_sub(g.pad_h)?;
    (ih < g.input.h).then(|| &xc[ih * w..(ih + 1) * w])
}

/// Lower one output row for horizontal tap `si` into `dst` (`Wo` lanes):
/// the in-bounds columns `valid` as one run read from `xrow` (the tap's
/// input row, `None` in the padding), zeros around it.
#[inline(always)]
fn lower_row(
    g: &ConvGeometry,
    xrow: Option<&[f32]>,
    si: usize,
    valid: &Range<usize>,
    dst: &mut [f32],
) {
    let Some(xrow) = xrow.filter(|_| !valid.is_empty()) else {
        dst.fill(0.0);
        return;
    };
    let (head, rest) = dst.split_at_mut(valid.start);
    let (run, tail) = rest.split_at_mut(valid.len());
    // Interior taps pad neither side; skipping the empty fills saves a
    // `memset` call per output row.
    if !head.is_empty() {
        head.fill(0.0);
    }
    let src = &xrow[valid.start * g.stride_w + si - g.pad_w..];
    if g.stride_w == 1 {
        run.copy_from_slice(&src[..run.len()]);
    } else {
        for (d, v) in run.iter_mut().zip(src.iter().step_by(g.stride_w)) {
            *d = *v;
        }
    }
    if !tail.is_empty() {
        tail.fill(0.0);
    }
}

/// Fused im2col + B-pack: lower the packed-B panels `panels` of one sample
/// `x` of shape (C, H, W) straight into the panel layout of
/// [`crate::gemm::sgemm_prepacked`], without materializing the
/// `(C*R*S) x (Ho*Wo)` column matrix first. `buf` holds exactly those
/// panels, so workers that own disjoint panel ranges lower side by side.
/// Bit-identical to `im2col` followed by `pack_b_into` (both zero-fill
/// out-of-bounds taps and the edge panel's padding columns).
///
/// A panel's `NR` lanes can span several short output rows, so it is
/// lowered lane-wise rather than by runs: each lane's input offset is
/// computed once per panel, and each tap's in-bounds lanes once per panel
/// as a bit mask, leaving one masked load per element.
///
/// # Panics
/// Panics when buffer sizes do not match the geometry and panel range.
pub fn im2col_packed_b(g: &ConvGeometry, x: &[f32], panels: Range<usize>, buf: &mut [f32]) {
    let (c, h, w) = (g.input.c, g.input.h, g.input.w);
    let (r, s) = (g.filter.r, g.filter.s);
    let wo = g.out_w();
    let crs = c * r * s;
    let howo = g.out_h() * wo;
    assert_eq!(x.len(), c * h * w, "sample buffer mismatch");
    assert!(panels.end <= howo.div_ceil(NR), "panel range out of bounds");
    assert_eq!(
        buf.len(),
        panels.len() * NR * crs,
        "packed col buffer mismatch"
    );

    const _: () = assert!(NR <= 32, "lane masks are u32");
    let (sh, sw) = (g.stride_h, g.stride_w);
    let corner = g.pad_h * w + g.pad_w;
    // Per panel: each lane's input offset at tap (0, 0) before padding, and
    // bit masks of the lanes whose row (column) lands inside the input for
    // each vertical (horizontal) tap.
    let mut base = [0usize; NR];
    let mut row_ok = vec![0u32; r];
    let mut col_ok = vec![0u32; s];
    for (i, pj) in panels.enumerate() {
        let panel = &mut buf[i * NR * crs..(i + 1) * NR * crs];
        let (col0, cols) = (pj * NR, NR.min(howo - pj * NR));
        row_ok.fill(0);
        col_ok.fill(0);
        for (j, b) in base.iter_mut().enumerate().take(cols) {
            let (p, q) = ((col0 + j) / wo, (col0 + j) % wo);
            *b = p * sh * w + q * sw;
            for (ri, m) in row_ok.iter_mut().enumerate() {
                if (g.pad_h..h + g.pad_h).contains(&(p * sh + ri)) {
                    *m |= 1 << j;
                }
            }
            for (si, m) in col_ok.iter_mut().enumerate() {
                if (g.pad_w..w + g.pad_w).contains(&(q * sw + si)) {
                    *m |= 1 << j;
                }
            }
        }
        let mut rows = panel.chunks_exact_mut(NR);
        for ci in 0..c {
            let xc = &x[ci * h * w..(ci + 1) * h * w];
            for (ri, &rm) in row_ok.iter().enumerate() {
                for (si, &cm) in col_ok.iter().enumerate() {
                    let dst = rows.next().expect("one panel row per (c, r, s)");
                    let (mask, off) = (rm & cm, ri * w + si);
                    // Lanes outside the input, and the edge panel's padding
                    // lanes, are zero, matching pack_b_into's zero-fill.
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = if mask >> j & 1 != 0 {
                            xc[base[j] + off - corner]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// Lower rows `rows` of the column matrix of one sample `x` of shape
/// (C, H, W) into `col` (row-major `rows.len() x (Ho*Wo)`; row
/// `(ci*R + ri)*S + si` is filter tap `(ri, si)` of channel `ci`),
/// zero-filling out-of-bounds taps.
///
/// # Panics
/// Panics when buffer sizes do not match the geometry and row range.
pub(crate) fn im2col_rows(g: &ConvGeometry, x: &[f32], rows: Range<usize>, col: &mut [f32]) {
    let (c, h, w) = (g.input.c, g.input.h, g.input.w);
    let (r, s) = (g.filter.r, g.filter.s);
    let wo = g.out_w();
    let howo = g.out_h() * wo;
    assert_eq!(x.len(), c * h * w, "sample buffer mismatch");
    assert!(rows.end <= c * r * s, "row range out of bounds");
    assert_eq!(col.len(), rows.len() * howo, "col buffer mismatch");

    let cols_valid = col_ranges(g);
    for (row, dst) in rows.zip(col.chunks_exact_mut(howo)) {
        let (ci, ri, si) = (row / (r * s), row / s % r, row % s);
        let xc = &x[ci * h * w..(ci + 1) * h * w];
        for (p, drow) in dst.chunks_exact_mut(wo).enumerate() {
            lower_row(g, input_row(g, xc, p, ri), si, &cols_valid[si], drow);
        }
    }
}

/// Lower one sample `x` of shape (C, H, W) into `col` (row-major
/// `(C*R*S) x (Ho*Wo)`), zero-filling out-of-bounds taps.
///
/// # Panics
/// Panics when buffer sizes do not match the geometry.
pub fn im2col(g: &ConvGeometry, x: &[f32], col: &mut [f32]) {
    im2col_rows(g, x, 0..g.input.c * g.filter.r * g.filter.s, col);
}

/// Adjoint of [`im2col`]: scatter-add `col` back into the (C, H, W) sample
/// gradient `dx` (which must be pre-scaled by the caller; this only adds).
/// Each in-bounds run of an output row adds as one slice; every `dx`
/// element accumulates its taps in `(ri, si, p, q)` order.
pub fn col2im_add(g: &ConvGeometry, col: &[f32], dx: &mut [f32], alpha: f32) {
    let (c, h, w) = (g.input.c, g.input.h, g.input.w);
    let r = g.filter.r;
    let wo = g.out_w();
    let howo = g.out_h() * wo;
    assert_eq!(dx.len(), c * h * w, "sample buffer mismatch");
    assert_eq!(col.len(), col_len(g), "col buffer mismatch");

    let cols_valid = col_ranges(g);
    let mut rows = col.chunks_exact(howo);
    for ci in 0..c {
        let dxc = &mut dx[ci * h * w..(ci + 1) * h * w];
        for ri in 0..r {
            for (si, valid) in cols_valid.iter().enumerate() {
                let src = rows.next().expect("one col row per (c, r, s)");
                if valid.is_empty() {
                    continue;
                }
                for (p, srow) in src.chunks_exact(wo).enumerate() {
                    let Some(ih) = (p * g.stride_h + ri).checked_sub(g.pad_h) else {
                        continue;
                    };
                    if ih >= h {
                        continue;
                    }
                    let run = &srow[valid.clone()];
                    let dxrow = &mut dxc[ih * w + valid.start * g.stride_w + si - g.pad_w..];
                    if g.stride_w == 1 {
                        for (d, v) in dxrow.iter_mut().zip(run) {
                            *d += alpha * v;
                        }
                    } else {
                        for (d, v) in dxrow.iter_mut().step_by(g.stride_w).zip(run) {
                            *d += alpha * v;
                        }
                    }
                }
            }
        }
    }
}

/// Per-element lowering loops (index math and bounds checks for every
/// element): the bit-exact oracle the tests pin the production loops to.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn im2col_packed_b(g: &ConvGeometry, x: &[f32], buf: &mut [f32]) {
        let (c, h, w) = (g.input.c, g.input.h, g.input.w);
        let (r, s) = (g.filter.r, g.filter.s);
        let (ho, wo) = (g.out_h(), g.out_w());
        let crs = c * r * s;
        let howo = ho * wo;
        for pj in 0..howo.div_ceil(NR) {
            let cols = NR.min(howo - pj * NR);
            let panel = &mut buf[pj * NR * crs..(pj + 1) * NR * crs];
            let mut op = [0usize; NR];
            let mut oq = [0usize; NR];
            for j in 0..cols {
                let col = pj * NR + j;
                op[j] = col / wo;
                oq[j] = col % wo;
            }
            let mut row = 0usize;
            for ci in 0..c {
                let xc = &x[ci * h * w..(ci + 1) * h * w];
                for ri in 0..r {
                    for si in 0..s {
                        let dst = &mut panel[row * NR..(row + 1) * NR];
                        row += 1;
                        for j in 0..cols {
                            let ih = (op[j] * g.stride_h + ri) as isize - g.pad_h as isize;
                            let iw = (oq[j] * g.stride_w + si) as isize - g.pad_w as isize;
                            dst[j] = if ih < 0 || ih >= h as isize || iw < 0 || iw >= w as isize {
                                0.0
                            } else {
                                xc[ih as usize * w + iw as usize]
                            };
                        }
                        dst[cols..].fill(0.0);
                    }
                }
            }
        }
    }

    pub fn im2col(g: &ConvGeometry, x: &[f32], col: &mut [f32]) {
        let (c, h, w) = (g.input.c, g.input.h, g.input.w);
        let (r, s) = (g.filter.r, g.filter.s);
        let (ho, wo) = (g.out_h(), g.out_w());
        let mut row = 0usize;
        for ci in 0..c {
            let xc = &x[ci * h * w..(ci + 1) * h * w];
            for ri in 0..r {
                for si in 0..s {
                    let dst = &mut col[row * ho * wo..(row + 1) * ho * wo];
                    row += 1;
                    for p in 0..ho {
                        let ih = (p * g.stride_h + ri) as isize - g.pad_h as isize;
                        if ih < 0 || ih >= h as isize {
                            dst[p * wo..(p + 1) * wo].fill(0.0);
                            continue;
                        }
                        let xrow = &xc[ih as usize * w..(ih as usize + 1) * w];
                        for q in 0..wo {
                            let iw = (q * g.stride_w + si) as isize - g.pad_w as isize;
                            dst[p * wo + q] = if iw < 0 || iw >= w as isize {
                                0.0
                            } else {
                                xrow[iw as usize]
                            };
                        }
                    }
                }
            }
        }
    }

    pub fn col2im_add(g: &ConvGeometry, col: &[f32], dx: &mut [f32], alpha: f32) {
        let (c, h, w) = (g.input.c, g.input.h, g.input.w);
        let (r, s) = (g.filter.r, g.filter.s);
        let (ho, wo) = (g.out_h(), g.out_w());
        let mut row = 0usize;
        for ci in 0..c {
            let dxc = &mut dx[ci * h * w..(ci + 1) * h * w];
            for ri in 0..r {
                for si in 0..s {
                    let src = &col[row * ho * wo..(row + 1) * ho * wo];
                    row += 1;
                    for p in 0..ho {
                        let ih = (p * g.stride_h + ri) as isize - g.pad_h as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for q in 0..wo {
                            let iw = (q * g.stride_w + si) as isize - g.pad_w as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            dxc[ih as usize * w + iw as usize] += alpha * src[p * wo + q];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_tensor::{FilterShape, Shape4, Tensor};

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// The lowering (row and panel sub-ranges included) and `col2im` are
    /// bit-identical to the per-element loops over strides 1–3, pads 0–2,
    /// rectangular filters, `HoWo` not a multiple of `NR`, and panels that
    /// span several output rows.
    #[test]
    fn lowering_matches_per_element_loops() {
        let mut cases = 0;
        for (h, w, r, s) in [
            (7, 5, 3, 3),
            (9, 11, 3, 2),
            (4, 4, 1, 1),
            (6, 13, 5, 3),
            (3, 3, 3, 3),
        ] {
            for pad in 0..=2 {
                for stride in 1..=3 {
                    if h + 2 * pad < r || w + 2 * pad < s {
                        continue;
                    }
                    let g = ConvGeometry::with_square(
                        Shape4::new(1, 3, h, w),
                        FilterShape::new(2, 3, r, s),
                        pad,
                        stride,
                    );
                    let tag = format!("{g}");
                    let x = Tensor::random(g.input, 3);
                    let crs = 3 * r * s;
                    let (wo, howo) = (g.out_w(), g.out_h() * g.out_w());

                    let mut want = vec![f32::NAN; col_len(&g)];
                    reference::im2col(&g, x.as_slice(), &mut want);
                    let mut got = vec![f32::NAN; col_len(&g)];
                    im2col(&g, x.as_slice(), &mut got);
                    assert_bits_eq(&got, &want, &format!("im2col {tag}"));
                    for rows in [0..crs, 1..crs - 1, crs / 2..crs] {
                        let mut part = vec![f32::NAN; rows.len() * howo];
                        im2col_rows(&g, x.as_slice(), rows.clone(), &mut part);
                        let slab = &want[rows.start * howo..rows.end * howo];
                        assert_bits_eq(&part, slab, &format!("im2col rows {rows:?} {tag}"));
                    }

                    let panels = howo.div_ceil(NR);
                    let mut want = vec![f32::NAN; panels * NR * crs];
                    reference::im2col_packed_b(&g, x.as_slice(), &mut want);
                    for range in [0..panels, panels / 2..panels, 0..panels.div_ceil(2)] {
                        let mut part = vec![f32::NAN; range.len() * NR * crs];
                        im2col_packed_b(&g, x.as_slice(), range.clone(), &mut part);
                        let slab = &want[range.start * NR * crs..range.end * NR * crs];
                        assert_bits_eq(&part, slab, &format!("packed {range:?} {tag}"));
                    }

                    let cvec = Tensor::random(Shape4::new(1, 1, 1, col_len(&g)), 4);
                    let init = Tensor::random(g.input, 5);
                    let mut want = init.as_slice().to_vec();
                    reference::col2im_add(&g, cvec.as_slice(), &mut want, 0.75);
                    let mut got = init.as_slice().to_vec();
                    col2im_add(&g, cvec.as_slice(), &mut got, 0.75);
                    assert_bits_eq(&got, &want, &format!("col2im {tag}"));

                    if howo % NR != 0 && wo < NR {
                        cases += 1;
                    }
                }
            }
        }
        assert!(
            cases > 0,
            "no geometry with a ragged edge panel spanning rows"
        );
    }

    #[test]
    fn im2col_identity_1x1() {
        // 1x1 kernel, no pad, stride 1: col is just the flattened sample.
        let g =
            ConvGeometry::with_square(Shape4::new(1, 3, 4, 4), FilterShape::new(2, 3, 1, 1), 0, 1);
        let x = Tensor::random(g.input.with_batch(1), 3);
        let mut col = vec![0.0; col_len(&g)];
        im2col(&g, x.as_slice(), &mut col);
        assert_eq!(col.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_zero_pads_border() {
        let g =
            ConvGeometry::with_square(Shape4::new(1, 1, 2, 2), FilterShape::new(1, 1, 3, 3), 1, 1);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut col = vec![-1.0; col_len(&g)];
        im2col(&g, &x, &mut col);
        // Row (ri=0, si=0): taps x[p-1, q-1] => only (p,q)=(1,1) hits x[0,0]=1.
        assert_eq!(&col[0..4], &[0.0, 0.0, 0.0, 1.0]);
        // Row (ri=1, si=1): centre taps reproduce the input.
        let centre = 4; // (ri*3+si) = 4
        assert_eq!(&col[centre * 4..centre * 4 + 4], &[1.0, 2.0, 3.0, 4.0]);
    }

    /// col2im_add must be the exact adjoint of im2col:
    /// <im2col(x), c> == <x, col2im(c)>.
    #[test]
    fn col2im_is_adjoint_of_im2col() {
        for (pad, stride) in [(0usize, 1usize), (1, 1), (2, 2), (1, 3)] {
            let g = ConvGeometry::with_square(
                Shape4::new(1, 3, 8, 8),
                FilterShape::new(2, 3, 3, 3),
                pad,
                stride,
            );
            let x = Tensor::random(g.input.with_batch(1), 1);
            let cvec = Tensor::random(Shape4::new(1, 1, 1, col_len(&g)), 2);
            let mut col = vec![0.0; col_len(&g)];
            im2col(&g, x.as_slice(), &mut col);
            let mut back = vec![0.0; x.shape().len()];
            col2im_add(&g, cvec.as_slice(), &mut back, 1.0);
            let lhs: f64 = col
                .iter()
                .zip(cvec.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            let rhs: f64 = x
                .as_slice()
                .iter()
                .zip(&back)
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            assert!(
                (lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0),
                "pad={pad} stride={stride}"
            );
        }
    }

    #[test]
    fn fused_pack_matches_im2col_then_pack_b() {
        use crate::gemm::{pack_b_into, packed_b_len, Trans};
        for (pad, stride) in [(0usize, 1usize), (1, 1), (2, 2), (1, 3)] {
            let g = ConvGeometry::with_square(
                Shape4::new(1, 3, 9, 7),
                FilterShape::new(2, 3, 3, 3),
                pad,
                stride,
            );
            let x = Tensor::random(g.input.with_batch(1), 41);
            let crs = g.input.c * g.filter.r * g.filter.s;
            let howo = g.out_h() * g.out_w();
            let mut col = vec![0.0; col_len(&g)];
            im2col(&g, x.as_slice(), &mut col);
            let mut unfused = Vec::new();
            pack_b_into(Trans::No, crs, howo, &col, &mut unfused);
            let mut fused = vec![f32::NAN; packed_b_len(crs, howo)];
            im2col_packed_b(&g, x.as_slice(), 0..howo.div_ceil(NR), &mut fused);
            assert_eq!(unfused.len(), fused.len());
            for (a, b) in unfused.iter().zip(&fused) {
                assert_eq!(a.to_bits(), b.to_bits(), "pad={pad} stride={stride}");
            }
        }
    }

    #[test]
    fn col_len_formula() {
        let g =
            ConvGeometry::with_square(Shape4::new(4, 3, 8, 8), FilterShape::new(2, 3, 3, 3), 1, 2);
        assert_eq!(col_len(&g), 3 * 3 * 3 * g.out_h() * g.out_w());
    }
}
