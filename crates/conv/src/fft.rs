//! Radix-2 complex FFT and 2-D helpers for the FFT convolution engine.

/// A single-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

#[allow(clippy::should_implement_trait)] // named like cuFFT helpers, not operator overloads
impl C32 {
    /// Construct from parts.
    pub const fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Complex multiplication.
    #[inline]
    pub fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    /// `self * conj(o)` — used by the correlation theorem.
    #[inline]
    pub fn mul_conj(self, o: Self) -> Self {
        Self::new(
            self.re * o.re + self.im * o.im,
            self.im * o.re - self.re * o.im,
        )
    }

    /// Complex addition.
    #[inline]
    pub fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }

    /// Complex subtraction.
    #[inline]
    pub fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }
}

/// Smallest power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place iterative radix-2 FFT. `buf.len()` must be a power of two.
/// The inverse transform includes the `1/n` normalization.
///
/// # Panics
/// Panics when the length is not a power of two.
pub fn fft(buf: &mut [C32], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            buf.swap(i, j);
        }
    }

    // Butterflies. Twiddles computed per stage in f64 for accuracy.
    let sign = if inverse { 1.0f64 } else { -1.0f64 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = C32::new(ang.cos() as f32, ang.sin() as f32);
        for start in (0..n).step_by(len) {
            let mut w = C32::new(1.0, 0.0);
            for i in 0..len / 2 {
                let a = buf[start + i];
                let b = buf[start + i + len / 2].mul(w);
                buf[start + i] = a.add(b);
                buf[start + i + len / 2] = a.sub(b);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }

    if inverse {
        let inv = 1.0 / n as f32;
        for v in buf.iter_mut() {
            v.re *= inv;
            v.im *= inv;
        }
    }
}

/// In-place 2-D FFT over an `fh x fw` row-major grid (both powers of two).
pub fn fft2d(buf: &mut [C32], fh: usize, fw: usize, inverse: bool) {
    assert_eq!(buf.len(), fh * fw, "grid size mismatch");
    for row in buf.chunks_exact_mut(fw) {
        fft(row, inverse);
    }
    let mut col = vec![C32::default(); fh];
    for j in 0..fw {
        for i in 0..fh {
            col[i] = buf[i * fw + j];
        }
        fft(&mut col, inverse);
        for i in 0..fh {
            buf[i * fw + j] = col[i];
        }
    }
}

/// Precomputed bit-reversal permutation and per-stage twiddle factors for
/// one radix-2 transform length, covering both directions.
///
/// The twiddles are generated by the *same* incremental recurrence
/// (`w ← w · w_len`) that [`fft`] evaluates on the fly, so the table-driven
/// transform is bit-identical to the table-free one — the property the
/// execution-plan cache relies on (cold vs. warm plans must not change
/// output bits).
#[derive(Debug, Clone)]
pub struct FftTables {
    n: usize,
    /// Bit-reversal target of each index.
    rev: Vec<u32>,
    /// Forward twiddles, one `Vec` per stage (`len = 2, 4, …, n`), each
    /// holding `w_0 … w_{len/2−1}`.
    fwd: Vec<Vec<C32>>,
    /// Inverse twiddles, same layout.
    inv: Vec<Vec<C32>>,
}

impl FftTables {
    /// Build tables for transforms of length `n` (a power of two).
    ///
    /// # Panics
    /// Panics when the length is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i| {
                if n <= 1 {
                    0
                } else {
                    (i.reverse_bits() >> (usize::BITS - bits)) as u32
                }
            })
            .collect();
        let stage_twiddles = |inverse: bool| -> Vec<Vec<C32>> {
            let sign = if inverse { 1.0f64 } else { -1.0f64 };
            let mut stages = Vec::new();
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
                let wlen = C32::new(ang.cos() as f32, ang.sin() as f32);
                let mut w = C32::new(1.0, 0.0);
                stages.push(
                    (0..len / 2)
                        .map(|_| {
                            let cur = w;
                            w = w.mul(wlen);
                            cur
                        })
                        .collect(),
                );
                len <<= 1;
            }
            stages
        };
        Self {
            n,
            rev,
            fwd: stage_twiddles(false),
            inv: stage_twiddles(true),
        }
    }

    /// Transform length the tables were built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the transform length is zero (never, by construction; kept
    /// for the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Heap bytes held (plan-cache accounting).
    pub fn bytes(&self) -> usize {
        let c32 = core::mem::size_of::<C32>();
        self.rev.capacity() * core::mem::size_of::<u32>()
            + self
                .fwd
                .iter()
                .chain(&self.inv)
                .map(|s| s.capacity() * c32)
                .sum::<usize>()
    }
}

/// [`fft`] driven by precomputed tables; bit-identical to the table-free
/// transform.
///
/// # Panics
/// Panics when `buf.len()` does not match the tables' length.
pub fn fft_with_tables(buf: &mut [C32], t: &FftTables, inverse: bool) {
    let n = buf.len();
    assert_eq!(n, t.n, "buffer length {n} vs tables for {}", t.n);
    if n <= 1 {
        return;
    }
    for i in 0..n {
        let j = t.rev[i] as usize;
        if i < j {
            buf.swap(i, j);
        }
    }
    let stages = if inverse { &t.inv } else { &t.fwd };
    let mut len = 2;
    for tw in stages {
        for start in (0..n).step_by(len) {
            for (i, &w) in tw.iter().enumerate() {
                let a = buf[start + i];
                let b = buf[start + i + len / 2].mul(w);
                buf[start + i] = a.add(b);
                buf[start + i + len / 2] = a.sub(b);
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f32;
        for v in buf.iter_mut() {
            v.re *= inv;
            v.im *= inv;
        }
    }
}

/// [`fft2d`] driven by precomputed tables: rows with `tw` (length `fw`),
/// columns with `th` (length `fh`), gathering columns through the reusable
/// `col` scratch. Bit-identical to [`fft2d`].
pub fn fft2d_with_tables(
    buf: &mut [C32],
    tw: &FftTables,
    th: &FftTables,
    inverse: bool,
    col: &mut Vec<C32>,
) {
    let (fh, fw) = (th.len(), tw.len());
    assert_eq!(buf.len(), fh * fw, "grid size mismatch");
    for row in buf.chunks_exact_mut(fw) {
        fft_with_tables(row, tw, inverse);
    }
    col.resize(fh, C32::default());
    for j in 0..fw {
        for i in 0..fh {
            col[i] = buf[i * fw + j];
        }
        fft_with_tables(col, th, inverse);
        for i in 0..fh {
            buf[i * fw + j] = col[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[C32], inverse: bool) -> Vec<C32> {
        let n = x.len();
        let sign = if inverse { 1.0f64 } else { -1.0 };
        let mut out = vec![C32::default(); n];
        for (k, o) in out.iter_mut().enumerate() {
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for (t, v) in x.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                re += v.re as f64 * c - v.im as f64 * s;
                im += v.re as f64 * s + v.im as f64 * c;
            }
            let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
            *o = C32::new((re * scale) as f32, (im * scale) as f32);
        }
        out
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<C32> {
        let mut rng = ucudnn_tensor::DeterministicRng::new(seed);
        (0..n)
            .map(|_| {
                C32::new(
                    rng.next_uniform() * 2.0 - 1.0,
                    rng.next_uniform() * 2.0 - 1.0,
                )
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let x = rand_signal(n, n as u64);
            let mut got = x.clone();
            fft(&mut got, false);
            let want = naive_dft(&x, false);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.re - w.re).abs() < 2e-3 && (g.im - w.im).abs() < 2e-3,
                    "n={n}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let x = rand_signal(64, 9);
        let mut y = x.clone();
        fft(&mut y, false);
        fft(&mut y, true);
        for (a, b) in x.iter().zip(&y) {
            assert!((a.re - b.re).abs() < 1e-4 && (a.im - b.im).abs() < 1e-4);
        }
    }

    /// `fft2d` on a non-square grid against the direct 2-D DFT sum.
    #[test]
    fn fft2d_nonsquare_matches_naive() {
        let (fh, fw) = (4usize, 8usize);
        let x: Vec<C32> = (0..fh * fw)
            .map(|i| C32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let mut got = x.clone();
        fft2d(&mut got, fh, fw, false);
        for (i, g) in got.iter().enumerate() {
            let (u, v) = (i / fw, i % fw);
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (t, xv) in x.iter().enumerate() {
                let (r, c) = (t / fw, t % fw);
                let ang = -2.0
                    * std::f64::consts::PI
                    * ((u * r) as f64 / fh as f64 + (v * c) as f64 / fw as f64);
                re += xv.re as f64 * ang.cos() - xv.im as f64 * ang.sin();
                im += xv.re as f64 * ang.sin() + xv.im as f64 * ang.cos();
            }
            assert!(
                (g.re as f64 - re).abs() < 1e-3 && (g.im as f64 - im).abs() < 1e-3,
                "mismatch at {i}: got ({}, {}), want ({re}, {im})",
                g.re,
                g.im
            );
        }
    }

    #[test]
    fn fft2d_roundtrip() {
        let (fh, fw) = (8, 16);
        let x = rand_signal(fh * fw, 3);
        let mut y = x.clone();
        fft2d(&mut y, fh, fw, false);
        fft2d(&mut y, fh, fw, true);
        for (a, b) in x.iter().zip(&y) {
            assert!((a.re - b.re).abs() < 1e-4 && (a.im - b.im).abs() < 1e-4);
        }
    }

    #[test]
    fn delta_transforms_to_ones() {
        let mut x = vec![C32::default(); 16];
        x[0] = C32::new(1.0, 0.0);
        fft(&mut x, false);
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-5 && v.im.abs() < 1e-5);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let x = rand_signal(256, 12);
        let time_e: f64 = x
            .iter()
            .map(|v| (v.re as f64).powi(2) + (v.im as f64).powi(2))
            .sum();
        let mut y = x.clone();
        fft(&mut y, false);
        let freq_e: f64 = y
            .iter()
            .map(|v| (v.re as f64).powi(2) + (v.im as f64).powi(2))
            .sum::<f64>()
            / 256.0;
        assert!((time_e - freq_e).abs() < 1e-2 * time_e);
    }

    #[test]
    fn mul_conj_is_correlation_kernel() {
        let a = C32::new(2.0, 3.0);
        let b = C32::new(5.0, -1.0);
        let want = a.mul(C32::new(b.re, -b.im));
        assert_eq!(a.mul_conj(b), want);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(31), 32);
        assert_eq!(next_pow2(32), 32);
        assert_eq!(next_pow2(33), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let mut x = vec![C32::default(); 6];
        fft(&mut x, false);
    }

    #[test]
    fn tables_reproduce_fft_bit_for_bit() {
        for n in [1usize, 2, 8, 64, 256] {
            let t = FftTables::new(n);
            assert_eq!(t.len(), n);
            assert!(t.bytes() > 0);
            for inverse in [false, true] {
                let x = rand_signal(n, 7 * n as u64 + inverse as u64);
                let mut plain = x.clone();
                fft(&mut plain, inverse);
                let mut tabled = x.clone();
                fft_with_tables(&mut tabled, &t, inverse);
                assert_eq!(plain, tabled, "n={n} inverse={inverse}");
            }
        }
    }

    #[test]
    fn tables_reproduce_fft2d_bit_for_bit() {
        let (fh, fw) = (8usize, 16usize);
        let (th, tw) = (FftTables::new(fh), FftTables::new(fw));
        let mut col = Vec::new();
        for inverse in [false, true] {
            let x = rand_signal(fh * fw, 21 + inverse as u64);
            let mut plain = x.clone();
            fft2d(&mut plain, fh, fw, inverse);
            let mut tabled = x.clone();
            fft2d_with_tables(&mut tabled, &tw, &th, inverse, &mut col);
            assert_eq!(plain, tabled, "inverse={inverse}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tables_reject_non_pow2() {
        let _ = FftTables::new(6);
    }
}
