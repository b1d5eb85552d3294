//! A single-precision GEMM built around a register-blocked micro-kernel.
//!
//! `C = alpha * op(A) * op(B) + beta * C`, row-major, with optional
//! transposition of either operand. This is the compute core of the
//! im2col-based convolution engine (which runs cuDNN's three GEMM
//! algorithms) and of the Winograd engines' per-ξ batched products.
//!
//! # Structure
//!
//! [`sgemm`] follows the classic BLIS decomposition:
//!
//! 1. **Pack** `op(A)` into row panels of [`MR`] rows ([`pack_a`]) and
//!    `op(B)` into column panels of [`NR`] columns ([`pack_b_into`]). Panels
//!    are k-major, so the micro-kernel reads both operands with unit stride
//!    regardless of the original transpose; edge panels are zero-padded to
//!    full width.
//! 2. **Micro-kernel**: an `MR x NR` tile of C is accumulated in vector
//!    registers for the whole k loop. On AVX-512 the 12x16 tile is written
//!    with `core::arch` intrinsics, one zmm accumulator per row: LLVM
//!    prefers 256-bit vectors on Intel server cores and never put the
//!    array tile in zmm. Elsewhere the tile is a local `[[f32; NR]; MR]`
//!    array whose fixed-trip-count loops the autovectorizer unrolls into
//!    registers (two ymm per row with AVX, two 4-lane xmm per row on
//!    baseline x86-64 SSE2).
//! 3. **Masked tail**: edge tiles run the same full-width kernel over the
//!    zero-padded panels, then write back only the `rows x cols` valid
//!    corner.
//!
//! Filters are the `A` operand of every im2col GEMM and are identical across
//! a layer's micro-batches, so [`pack_a`] / [`sgemm_prepacked_a`] expose the
//! packing step: pack the filter once per layer execution and reuse the
//! panels for every micro-batch (the packed-weight analogue of the paper's
//! WR workspace reuse). [`sgemm_ref`], the previous cache-blocked ikj
//! kernel, is retained as the naive reference the property tests and the
//! `hotpath` benchmark compare against.
//!
//! # beta semantics
//!
//! Like cuDNN (and unlike BLAS), `beta == 0` means the prior contents of
//! `C` are *not read*: NaN or Inf garbage in an uninitialized output buffer
//! is overwritten, not propagated.

use core::cell::RefCell;
use core::ops::Range;

/// Whether an operand is used as stored or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the matrix as stored.
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

/// Micro-kernel tile rows. With AVX-512, 12 rows x 16 columns keeps one
/// zmm accumulator per row plus the B row and a broadcast inside the 32
/// vector registers. LLVM keeps an autovectorized tile in 256-bit ymm on
/// Intel server cores, so this tile is written with intrinsics (`tile`).
#[cfg(target_feature = "avx512f")]
pub const MR: usize = 12;
/// Micro-kernel tile rows. With AVX, 6 rows x 16 columns keeps 12 ymm
/// accumulators plus broadcast and B registers inside the 16 vector
/// registers.
#[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
pub const MR: usize = 6;
/// Micro-kernel tile columns: one zmm, or two ymm, per tile row.
#[cfg(target_feature = "avx")]
pub const NR: usize = 16;

/// Micro-kernel tile rows. On baseline x86-64 (SSE2) 4 rows x 8 columns =
/// 8 four-lane accumulator registers plus one broadcast and two B registers
/// — comfortably inside the 16 xmm registers.
#[cfg(not(target_feature = "avx"))]
pub const MR: usize = 4;
/// Micro-kernel tile columns.
#[cfg(not(target_feature = "avx"))]
pub const NR: usize = 8;

/// One fused (or mul+add) step of the accumulator update. `mul_add` maps to
/// a single hardware instruction only when the target has FMA; without it
/// LLVM calls libm per lane, so the plain two-op form is used instead.
#[cfg(not(target_feature = "avx512f"))]
#[inline(always)]
fn madd(acc: f32, a: f32, b: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The k block of [`sgemm_ref`]; the packed path does not block k.
const BLOCK: usize = 64;

/// Scale `c` by `beta` with cuDNN semantics: `beta == 0` writes zeros
/// without reading the prior contents.
pub(crate) fn scale_beta(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// `op(A)` (`m x k`) packed into `ceil(m/MR)` zero-padded row panels,
/// k-major within each panel: element `(r, p)` of panel `pi` lives at
/// `pi*MR*k + p*MR + r`. Pack once per layer execution and reuse across
/// micro-batches via [`sgemm_prepacked_a`].
#[derive(Debug, Clone, Default)]
pub struct PackedA {
    m: usize,
    k: usize,
    buf: Vec<f32>,
}

impl PackedA {
    /// Pack `op(A)` in place of the current panels, reusing their buffer:
    /// [`pack_a`] for an operand packed once per call rather than per layer.
    ///
    /// # Panics
    /// Panics when `a` is smaller than `m * k`.
    pub(crate) fn repack(&mut self, trans_a: Trans, m: usize, k: usize, a: &[f32]) {
        assert!(a.len() >= m * k, "A too small: {} < {}", a.len(), m * k);
        pack_a_into(trans_a, m, k, a, &mut self.buf);
        (self.m, self.k) = (m, k);
    }

    /// Rows of `op(A)`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inner (reduction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Heap bytes held by the packed panels (for cache accounting).
    pub fn bytes(&self) -> usize {
        self.buf.len() * core::mem::size_of::<f32>()
    }
}

fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Length in `f32` elements of a packed `op(B)` (`k x n`) operand:
/// `ceil(n/NR)` zero-padded column panels, k-major within each panel —
/// element `(p, j)` of panel `pj` lives at `pj*NR*k + p*NR + j`. Callers
/// that produce the packed layout directly (the Winograd input transform,
/// the fused im2col pack) size their buffers with this.
pub fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

fn pack_a_into(trans_a: Trans, m: usize, k: usize, a: &[f32], buf: &mut Vec<f32>) {
    buf.clear();
    buf.resize(packed_a_len(m, k), 0.0);
    for pi in 0..m.div_ceil(MR) {
        let rows = MR.min(m - pi * MR);
        let panel = &mut buf[pi * MR * k..(pi + 1) * MR * k];
        match trans_a {
            // op(A)[i][p] = a[i*k + p]: copy each source row at stride MR.
            Trans::No => {
                for r in 0..rows {
                    let arow = &a[(pi * MR + r) * k..][..k];
                    for (p, &v) in arow.iter().enumerate() {
                        panel[p * MR + r] = v;
                    }
                }
            }
            // op(A)[i][p] = a[p*m + i]: rows of a panel are contiguous in
            // the source, so each k step is a short memcpy.
            Trans::Yes => {
                for p in 0..k {
                    let src = &a[p * m + pi * MR..][..rows];
                    panel[p * MR..p * MR + rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Pack `op(B)` (`k x n`) into the [`packed_b_len`] panel layout. Exposed so
/// producers that write the packed layout directly (and the property tests
/// pinning them) can compare against the canonical packing of a dense matrix.
pub fn pack_b_into(trans_b: Trans, k: usize, n: usize, b: &[f32], buf: &mut Vec<f32>) {
    buf.clear();
    buf.resize(packed_b_len(k, n), 0.0);
    for pj in 0..n.div_ceil(NR) {
        let cols = NR.min(n - pj * NR);
        let panel = &mut buf[pj * NR * k..(pj + 1) * NR * k];
        match trans_b {
            // op(B)[p][j] = b[p*n + j]: each k step is a short memcpy.
            Trans::No => {
                for p in 0..k {
                    let src = &b[p * n + pj * NR..][..cols];
                    panel[p * NR..p * NR + cols].copy_from_slice(src);
                }
            }
            // op(B)[p][j] = b[j*k + p]: copy each source row at stride NR.
            Trans::Yes => {
                for c in 0..cols {
                    let src = &b[(pj * NR + c) * k..][..k];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * NR + c] = v;
                    }
                }
            }
        }
    }
}

/// Pack `op(A)` for reuse across multiple [`sgemm_prepacked_a`] calls.
///
/// # Panics
/// Panics when `a` is smaller than `m * k`.
pub fn pack_a(trans_a: Trans, m: usize, k: usize, a: &[f32]) -> PackedA {
    assert!(a.len() >= m * k, "A too small: {} < {}", a.len(), m * k);
    let mut buf = Vec::new();
    pack_a_into(trans_a, m, k, a, &mut buf);
    PackedA { m, k, buf }
}

/// Row access to the `C` operand of the macro loop: one loop serves a dense
/// row-major matrix and a column window of a wider one (one slice per row,
/// carved with `split_at_mut`).
trait OutRows {
    /// Row `i`, exactly as many elements long as `C` has columns.
    fn row(&mut self, i: usize) -> &mut [f32];
}

/// A dense row-major `C` with `n` columns.
struct Dense<'a> {
    c: &'a mut [f32],
    n: usize,
}

impl OutRows for Dense<'_> {
    #[inline(always)]
    fn row(&mut self, i: usize) -> &mut [f32] {
        &mut self.c[i * self.n..(i + 1) * self.n]
    }
}

/// The columns `cols` of one slice per row: a block of a worker's column
/// range of a wider output matrix.
struct Window<'a, 'b> {
    rows: &'a mut [&'b mut [f32]],
    cols: Range<usize>,
}

impl OutRows for Window<'_, '_> {
    #[inline(always)]
    fn row(&mut self, i: usize) -> &mut [f32] {
        &mut self.rows[i][self.cols.clone()]
    }
}

/// The product of one A panel and one B panel over `k` steps: element
/// `(r, j)` is one fused (or, without FMA, mul+add) chain from +0.0 over
/// `ap[p*MR + r] * bp[p*NR + j]` in `p` order.
#[cfg(not(target_feature = "avx512f"))]
#[inline(always)]
fn tile(k: usize, ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    // chunks_exact gives the optimizer fixed-size slices, so the r/j loops
    // fully unroll and `acc` stays in vector registers across the k loop.
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(k) {
        for r in 0..MR {
            let av = arow[r];
            for j in 0..NR {
                acc[r][j] = madd(acc[r][j], av, brow[j]);
            }
        }
    }
    acc
}

/// The product of one A panel and one B panel over `k` steps, in 12 zmm
/// accumulators: per k step one load of the 16-float B row, then one
/// broadcast and one fused multiply-add per row. Each lane is the same
/// fused chain from +0.0 in `p` order as the array tile computes.
#[cfg(target_feature = "avx512f")]
#[inline(always)]
fn tile(k: usize, ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    use core::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };
    const _: () = assert!(NR == 16, "one zmm holds one tile row");
    let mut out = [[0.0f32; NR]; MR];
    // SAFETY: the cfg gate compiles this only where the build enables
    // avx512f, so the CPU running it has the instructions. Each `brow` is a
    // `chunks_exact(NR)` row and each `out` row a `[f32; NR]`, and NR = 16
    // (asserted above), so every unaligned 16-lane load and store stays
    // inside its row.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); MR];
        for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(k) {
            let b = _mm512_loadu_ps(brow.as_ptr());
            for (acc, &a) in acc.iter_mut().zip(arow) {
                *acc = _mm512_fmadd_ps(_mm512_set1_ps(a), b, *acc);
            }
        }
        for (row, acc) in out.iter_mut().zip(acc) {
            _mm512_storeu_ps(row.as_mut_ptr(), acc);
        }
    }
    out
}

/// The `MR x NR` register tile: accumulate `alpha * panelA . panelB` into
/// the tile of C at `(i0, j0)`, writing back only `rows x cols` (edge tiles
/// run full-width over the zero padding and mask on writeback). Every
/// element of C is one fixed k-ordered chain whatever tile or lane it falls
/// in, so any split of C's rows or columns computes the same bits.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel<C: OutRows + ?Sized>(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    c: &mut C,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
) {
    let acc = tile(k, ap, bp);
    if rows == MR && cols == NR {
        for (r, accr) in acc.into_iter().enumerate() {
            let crow = &mut c.row(i0 + r)[j0..][..NR];
            for (cv, av) in crow.iter_mut().zip(accr) {
                *cv += alpha * av;
            }
        }
    } else {
        for (r, accr) in acc.into_iter().enumerate().take(rows) {
            let crow = &mut c.row(i0 + r)[j0..][..cols];
            for (cv, av) in crow.iter_mut().zip(accr) {
                *cv += alpha * av;
            }
        }
    }
}

/// Macro-loop over packed panels. B panels are the outer loop so each one
/// stays cache-hot while every A panel streams past it.
#[allow(clippy::too_many_arguments)]
fn gemm_packed<C: OutRows + ?Sized>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    pa: &[f32],
    pb: &[f32],
    beta: f32,
    c: &mut C,
) {
    for i in 0..m {
        scale_beta(c.row(i), beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    for pj in 0..n.div_ceil(NR) {
        let cols = NR.min(n - pj * NR);
        let bp = &pb[pj * NR * k..(pj + 1) * NR * k];
        for pi in 0..m.div_ceil(MR) {
            let rows = MR.min(m - pi * MR);
            let ap = &pa[pi * MR * k..(pi + 1) * MR * k];
            microkernel(k, ap, bp, alpha, c, pi * MR, pj * NR, rows, cols);
        }
    }
}

struct Scratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

thread_local! {
    // Reusable pack buffers: sgemm is called per sample / per ξ inside the
    // engines, so per-call allocation would dominate small problems.
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            a: Vec::new(),
            b: Vec::new(),
        })
    };
}

/// `C = alpha * op(A) * op(B) + beta * C` where `op(A)` is `m x k` and
/// `op(B)` is `k x n`; `C` is `m x n`. All matrices are dense row-major with
/// no padding (leading dimension equals the stored row width).
///
/// `beta == 0` overwrites `C` without reading it (cuDNN semantics — NaN in
/// an uninitialized output buffer does not propagate).
///
/// # Panics
/// Panics when a buffer is smaller than its shape requires.
#[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
pub fn sgemm(
    trans_a: Trans,
    trans_b: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert!(c.len() >= m * n, "C too small: {} < {}", c.len(), m * n);
    sgemm_into(
        trans_a,
        trans_b,
        m,
        n,
        k,
        alpha,
        a,
        b,
        beta,
        &mut Dense { c, n },
    );
}

/// The column window `cols` of the `m` rows `c_rows`.
fn window<'a, 'b>(c_rows: &'a mut [&'b mut [f32]], m: usize, cols: Range<usize>) -> Window<'a, 'b> {
    assert_eq!(c_rows.len(), m, "C has {} rows, not {m}", c_rows.len());
    assert!(
        cols.start <= cols.end && c_rows.iter().all(|r| r.len() >= cols.end),
        "C rows must hold the columns {cols:?}"
    );
    Window { rows: c_rows, cols }
}

#[allow(clippy::too_many_arguments)]
fn sgemm_into<C: OutRows + ?Sized>(
    trans_a: Trans,
    trans_b: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut C,
) {
    assert!(a.len() >= m * k, "A too small: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too small: {} < {}", b.len(), k * n);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        // Only beta applies; skip packing operands nothing reads.
        return gemm_packed(m, n, k, alpha, &[], &[], beta, c);
    }
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        pack_a_into(trans_a, m, k, a, &mut s.a);
        pack_b_into(trans_b, k, n, b, &mut s.b);
        gemm_packed(m, n, k, alpha, &s.a, &s.b, beta, c);
    });
}

/// [`sgemm`] with `op(A)` already packed by [`pack_a`]: `m` and `k` come
/// from the packed operand. The filter operand of a convolution layer is
/// identical across its micro-batches, so the engines pack it once and call
/// this per micro-batch.
///
/// # Panics
/// Panics when `b` or `c` is smaller than its shape requires.
pub fn sgemm_prepacked_a(
    pa: &PackedA,
    trans_b: Trans,
    n: usize,
    alpha: f32,
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    let k = pa.k;
    assert!(b.len() >= k * n, "B too small: {} < {}", b.len(), k * n);
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        pack_b_into(trans_b, k, n, b, &mut s.b);
        sgemm_prepacked_rows(pa, 0..pa.m, n, alpha, &s.b, beta, c);
    });
}

/// [`sgemm_prepacked`] for the rows `rows` of `op(A)` only, into the dense
/// `rows.len() x n` matrix `c`: a block of a worker's row range of the
/// product. The range must start an `MR` row panel, so its panels are a
/// sub-slice of the packed operand.
///
/// # Panics
/// Panics when `rows` does not start a panel or exceeds `op(A)`, or when
/// `pb` or `c` is smaller than its shape requires.
pub(crate) fn sgemm_prepacked_rows(
    pa: &PackedA,
    rows: Range<usize>,
    n: usize,
    alpha: f32,
    pb: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert!(
        rows.start.is_multiple_of(MR) && rows.start <= rows.end && rows.end <= pa.m,
        "rows {rows:?} must start an MR panel of a {}-row operand",
        pa.m
    );
    let (m, k) = (rows.len(), pa.k);
    assert!(
        pb.len() >= packed_b_len(k, n),
        "packed B too small: {} < {}",
        pb.len(),
        packed_b_len(k, n)
    );
    assert!(c.len() >= m * n, "C too small: {} < {}", c.len(), m * n);
    let pa = &pa.buf[rows.start * k..];
    gemm_packed(m, n, k, alpha, pa, pb, beta, &mut Dense { c, n });
}

/// [`sgemm_prepacked_a`] into the columns `cols` of one slice per row of
/// `C` (`pa.m()` rows, `n == cols.len()`): a block of a worker's column
/// range of a wider output matrix.
///
/// # Panics
/// Panics when `b` is smaller than its shape requires or `C` does not have
/// `pa.m()` rows that hold the columns `cols`.
pub(crate) fn sgemm_prepacked_a_cols(
    pa: &PackedA,
    trans_b: Trans,
    cols: Range<usize>,
    alpha: f32,
    b: &[f32],
    beta: f32,
    c_rows: &mut [&mut [f32]],
) {
    let (k, n) = (pa.k, cols.len());
    assert!(b.len() >= k * n, "B too small: {} < {}", b.len(), k * n);
    let c = &mut window(c_rows, pa.m, cols);
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        pack_b_into(trans_b, k, n, b, &mut s.b);
        gemm_packed(pa.m, n, k, alpha, &pa.buf, &s.b, beta, c);
    });
}

/// [`sgemm`] with *both* operands pre-packed: `op(A)` by [`pack_a`] and
/// `op(B)` already laid out in [`packed_b_len`] panels (by [`pack_b_into`]
/// or by a producer that writes panels directly, like the fused im2col
/// lowering). Skips the per-call B packing pass and its scratch copy;
/// bit-identical to the pack-then-multiply path because the macro loop and
/// micro-kernel are the same code.
///
/// # Panics
/// Panics when `pb` or `c` is smaller than its shape requires.
pub fn sgemm_prepacked(pa: &PackedA, n: usize, alpha: f32, pb: &[f32], beta: f32, c: &mut [f32]) {
    assert!(
        c.len() >= pa.m * n,
        "C too small: {} < {}",
        c.len(),
        pa.m * n
    );
    prepacked_into(pa, n, alpha, pb, beta, &mut Dense { c, n });
}

/// [`sgemm_prepacked`] into the columns `cols` of one slice per row of `C`:
/// a block of `NR`-column panels of `op(B)` multiplied into its own columns
/// of a worker's column range.
///
/// # Panics
/// Panics when `pb` is smaller than its shape requires or `C` does not have
/// `pa.m()` rows that hold the columns `cols`.
pub(crate) fn sgemm_prepacked_cols(
    pa: &PackedA,
    cols: Range<usize>,
    alpha: f32,
    pb: &[f32],
    beta: f32,
    c_rows: &mut [&mut [f32]],
) {
    let n = cols.len();
    prepacked_into(pa, n, alpha, pb, beta, &mut window(c_rows, pa.m, cols));
}

fn prepacked_into<C: OutRows + ?Sized>(
    pa: &PackedA,
    n: usize,
    alpha: f32,
    pb: &[f32],
    beta: f32,
    c: &mut C,
) {
    let (m, k) = (pa.m, pa.k);
    assert!(
        pb.len() >= packed_b_len(k, n),
        "packed B too small: {} < {}",
        pb.len(),
        packed_b_len(k, n)
    );
    gemm_packed(m, n, k, alpha, &pa.buf, pb, beta, c);
}

/// One batched multi-RHS GEMM over a ξ-major packed layout: for each ξ,
/// `C[ξ] = alpha * A[ξ] @ B[ξ] + beta * C[ξ]` where `pas[ξ]` is a packed
/// `m x k` operand (all ξ's must share `m` and `k`), `pb` holds `pas.len()`
/// consecutive [`packed_b_len`]`(k, n)` slabs, and `c` holds `pas.len()`
/// consecutive `m x n` result slabs.
///
/// This is the Winograd engines' execution shape: the 16/36 per-ξ tile
/// products run as one call over panels the input transform wrote in place,
/// with the packed filter panels (`pas`) replayed across micro-batches.
/// Bit-identical to looping [`sgemm_prepacked`] per ξ.
///
/// # Panics
/// Panics when the ξ's disagree on `m`/`k` or a buffer is undersized.
pub fn sgemm_prepacked_batch(
    pas: &[PackedA],
    n: usize,
    alpha: f32,
    pb: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    let Some(first) = pas.first() else { return };
    let (m, k) = (first.m, first.k);
    assert!(
        pas.iter().all(|p| p.m == m && p.k == k),
        "batched A operands must share m and k"
    );
    let pbl = packed_b_len(k, n);
    assert!(
        pb.len() >= pas.len() * pbl,
        "packed B too small: {} < {}",
        pb.len(),
        pas.len() * pbl
    );
    assert!(
        c.len() >= pas.len() * m * n,
        "C too small: {} < {}",
        c.len(),
        pas.len() * m * n
    );
    for (xi, pa) in pas.iter().enumerate() {
        gemm_packed(
            m,
            n,
            k,
            alpha,
            &pa.buf,
            &pb[xi * pbl..(xi + 1) * pbl],
            beta,
            &mut Dense {
                c: &mut c[xi * m * n..(xi + 1) * m * n],
                n,
            },
        );
    }
}

/// The retained naive reference: the cache-blocked ikj kernel that predates
/// the packed micro-kernel. Property tests pin [`sgemm`] against it and the
/// `hotpath` benchmark reports speedup over it. Same cuDNN beta semantics.
///
/// # Panics
/// Panics when a buffer is smaller than its shape requires.
#[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
pub fn sgemm_ref(
    trans_a: Trans,
    trans_b: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert!(a.len() >= m * k, "A too small: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too small: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too small: {} < {}", c.len(), m * n);

    scale_beta(&mut c[..m * n], beta);
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }

    // Index helpers for the four transpose combinations.
    let at = |i: usize, p: usize| match trans_a {
        Trans::No => a[i * k + p],
        Trans::Yes => a[p * m + i],
    };
    let bt = |p: usize, j: usize| match trans_b {
        Trans::No => b[p * n + j],
        Trans::Yes => b[j * k + p],
    };

    // Fast path: A as stored, B as stored — ikj with blocking so the inner
    // loop is a contiguous saxpy over C and B rows.
    if trans_a == Trans::No && trans_b == Trans::No {
        for pb in (0..k).step_by(BLOCK) {
            let pe = (pb + BLOCK).min(k);
            for i in 0..m {
                let crow = &mut c[i * n..i * n + n];
                for p in pb..pe {
                    let aip = alpha * a[i * k + p];
                    if aip == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..p * n + n];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += aip * *bv;
                    }
                }
            }
        }
        return;
    }

    // General path for transposed operands.
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += at(i, p) * bt(p, j);
            }
            c[i * n + j] += alpha * acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(
        trans_a: Trans,
        trans_b: Trans,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let at = |i: usize, p: usize| match trans_a {
            Trans::No => a[i * k + p],
            Trans::Yes => a[p * m + i],
        };
        let bt = |p: usize, j: usize| match trans_b {
            Trans::No => b[p * n + j],
            Trans::Yes => b[j * k + p],
        };
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += at(i, p) * bt(p, j);
                }
            }
        }
        c
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = ucudnn_tensor::DeterministicRng::new(seed);
        (0..len).map(|_| rng.next_uniform() * 2.0 - 1.0).collect()
    }

    fn check(trans_a: Trans, trans_b: Trans, m: usize, n: usize, k: usize) {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let want = naive(trans_a, trans_b, m, n, k, &a, &b);
        let mut c = vec![0.0; m * n];
        sgemm(trans_a, trans_b, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        let mut cr = vec![0.0; m * n];
        sgemm_ref(trans_a, trans_b, m, n, k, 1.0, &a, &b, 0.0, &mut cr);
        for (x, y) in cr.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4, "ref: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_no_trans() {
        check(Trans::No, Trans::No, 17, 23, 129);
    }

    #[test]
    fn matches_naive_a_trans() {
        check(Trans::Yes, Trans::No, 17, 23, 31);
    }

    #[test]
    fn matches_naive_b_trans() {
        check(Trans::No, Trans::Yes, 17, 23, 31);
    }

    #[test]
    fn matches_naive_both_trans() {
        check(Trans::Yes, Trans::Yes, 9, 11, 13);
    }

    #[test]
    fn tile_edges_are_masked() {
        // One past / one short of every tile boundary around MR and NR.
        for m in [1, MR - 1, MR, MR + 1, 2 * MR + 3] {
            for n in [1, NR - 1, NR, NR + 1, 2 * NR + 5] {
                for k in [1, 2, 7, 64] {
                    check(Trans::No, Trans::No, m, n, k);
                }
            }
        }
    }

    #[test]
    fn alpha_beta_scaling() {
        let a = vec![1.0, 2.0, 3.0, 4.0]; // 2x2
        let b = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let mut c = vec![10.0, 10.0, 10.0, 10.0];
        sgemm(Trans::No, Trans::No, 2, 2, 2, 2.0, &a, &b, 0.5, &mut c);
        assert_eq!(c, vec![2.0 + 5.0, 4.0 + 5.0, 6.0 + 5.0, 8.0 + 5.0]);
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        // cuDNN semantics: beta=0 means the prior contents of C are never
        // read, so NaN/Inf in an uninitialized buffer must not propagate.
        let a = vec![1.0];
        let b = vec![1.0];
        let mut c = vec![f32::NAN];
        sgemm(Trans::No, Trans::No, 1, 1, 1, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c[0], 1.0);
        let mut c = vec![f32::INFINITY];
        sgemm_ref(Trans::No, Trans::No, 1, 1, 1, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c[0], 1.0);
        // Even alpha=0 with beta=0 must clear garbage, not multiply it.
        let mut c = vec![f32::NAN; 4];
        sgemm(
            Trans::No,
            Trans::No,
            2,
            2,
            1,
            0.0,
            &[1.0; 2],
            &[1.0; 2],
            0.0,
            &mut c,
        );
        assert_eq!(c, vec![0.0; 4]);
    }

    #[test]
    fn prepacked_a_matches_fresh_pack() {
        let (m, n, k) = (13, 21, 37);
        let a = fill(m * k, 3);
        let pa = pack_a(Trans::No, m, k, &a);
        assert_eq!(pa.m(), m);
        assert_eq!(pa.k(), k);
        assert!(pa.bytes() >= m * k * 4);
        for (seed, trans_b) in [(4u64, Trans::No), (5, Trans::Yes)] {
            let b = fill(k * n, seed);
            let mut c = vec![1.0; m * n];
            let mut want = vec![1.0; m * n];
            sgemm(Trans::No, trans_b, m, n, k, 0.5, &a, &b, 2.0, &mut want);
            sgemm_prepacked_a(&pa, trans_b, n, 0.5, &b, 2.0, &mut c);
            assert_eq!(c, want, "prepacked path must be bit-identical");
        }
    }

    #[test]
    fn prepacked_transposed_a() {
        let (m, n, k) = (9, 14, 11);
        let a = fill(k * m, 6); // stored k x m, used transposed
        let b = fill(k * n, 7);
        let pa = pack_a(Trans::Yes, m, k, &a);
        let mut c = vec![0.0; m * n];
        sgemm_prepacked_a(&pa, Trans::No, n, 1.0, &b, 0.0, &mut c);
        let want = naive(Trans::Yes, Trans::No, m, n, k, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn prepacked_b_matches_pack_then_multiply() {
        let (m, n, k) = (11, 19, 23);
        let a = fill(m * k, 8);
        let b = fill(k * n, 9);
        let pa = pack_a(Trans::No, m, k, &a);
        let mut pb = Vec::new();
        pack_b_into(Trans::No, k, n, &b, &mut pb);
        assert_eq!(pb.len(), packed_b_len(k, n));
        let mut c = vec![3.0; m * n];
        let mut want = vec![3.0; m * n];
        sgemm_prepacked_a(&pa, Trans::No, n, 0.5, &b, 2.0, &mut want);
        sgemm_prepacked(&pa, n, 0.5, &pb, 2.0, &mut c);
        assert_eq!(c, want, "caller-packed B must be bit-identical");
    }

    #[test]
    fn batched_matches_per_xi_loop() {
        let (m, n, k, xis) = (7, 18, 5, 4);
        let pbl = packed_b_len(k, n);
        let mut pas = Vec::new();
        let mut pb_all = vec![0.0f32; xis * pbl];
        for xi in 0..xis {
            let a = fill(m * k, 100 + xi as u64);
            pas.push(pack_a(Trans::No, m, k, &a));
            let b = fill(k * n, 200 + xi as u64);
            let mut pb = Vec::new();
            pack_b_into(Trans::No, k, n, &b, &mut pb);
            pb_all[xi * pbl..(xi + 1) * pbl].copy_from_slice(&pb);
        }
        let mut want = vec![f32::NAN; xis * m * n];
        for (xi, pa) in pas.iter().enumerate() {
            sgemm_prepacked(
                pa,
                n,
                1.0,
                &pb_all[xi * pbl..(xi + 1) * pbl],
                0.0,
                &mut want[xi * m * n..(xi + 1) * m * n],
            );
        }
        let mut c = vec![f32::NAN; xis * m * n];
        sgemm_prepacked_batch(&pas, n, 1.0, &pb_all, 0.0, &mut c);
        assert!(c.iter().all(|v| v.is_finite()), "beta=0 must not read C");
        for (x, y) in c.iter().zip(&want) {
            assert_eq!(x.to_bits(), y.to_bits(), "batched path diverged");
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![5.0; 4];
        sgemm(
            Trans::No,
            Trans::No,
            0,
            4,
            3,
            1.0,
            &[],
            &[0.0; 12],
            1.0,
            &mut c,
        );
        assert_eq!(c, vec![5.0; 4]);
        // k == 0 still applies beta.
        let mut c = vec![5.0; 4];
        sgemm(Trans::No, Trans::No, 2, 2, 0, 1.0, &[], &[], 0.5, &mut c);
        assert_eq!(c, vec![2.5; 4]);
    }

    #[test]
    #[should_panic(expected = "A too small")]
    fn rejects_undersized_a() {
        let mut c = vec![0.0; 4];
        sgemm(
            Trans::No,
            Trans::No,
            2,
            2,
            2,
            1.0,
            &[0.0; 3],
            &[0.0; 4],
            0.0,
            &mut c,
        );
    }
}
