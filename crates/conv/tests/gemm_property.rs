//! Property tests pinning the register-blocked packed GEMM to a plain
//! triple-loop oracle across the whole call surface: all four transpose
//! combinations, odd/tail-heavy shapes, and the alpha/beta values the
//! engines actually use.
//!
//! A second oracle replays the exact f32 chain every entry point computes,
//! and a sweep over shapes around each tile's edges compares it bit for
//! bit: the micro-kernel's tile shape changes no element's bits.

use proptest::prelude::*;
use ucudnn_conv::gemm::{
    pack_a, pack_b_into, packed_b_len, sgemm, sgemm_prepacked, sgemm_prepacked_a,
    sgemm_prepacked_batch, sgemm_ref, Trans,
};

/// `op(X)` (`rows x cols`) of the row-major `x` as an element getter: `x`
/// is stored transposed when `trans` is `Yes`.
fn op(trans: Trans, x: &[f32], rows: usize, cols: usize) -> impl Fn(usize, usize) -> f32 + '_ {
    move |r, c| match trans {
        Trans::No => x[r * cols + c],
        Trans::Yes => x[c * rows + r],
    }
}

/// Unblocked triple-loop oracle, deliberately independent of the library's
/// own `sgemm_ref` blocking. `op(A)` is `m x k`, `op(B)` is `k x n`,
/// row-major.
#[allow(clippy::too_many_arguments)]
fn gemm_oracle(
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
    let (op_a, op_b) = (op(trans_a, a, m, k), op(trans_b, b, k, n));
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for l in 0..k {
                acc += f64::from(op_a(i, l)) * f64::from(op_b(l, j));
            }
            let prior = if beta == 0.0 {
                0.0
            } else {
                beta * c[i * n + j]
            };
            c[i * n + j] = alpha * acc as f32 + prior;
        }
    }
}

/// The exact f32 chain of every GEMM entry point: each element of
/// `op(A) op(B)` is one accumulator from +0.0 that takes the `k` products
/// in order, fused where the target has FMA. C is first scaled as `beta`
/// says (0 writes 0 without reading C, 1 keeps C), then takes the unfused
/// `alpha * acc`.
#[allow(clippy::too_many_arguments)]
fn chain_oracle(
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
    let (op_a, op_b) = (op(trans_a, a, m, k), op(trans_b, b, k, n));
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                let (av, bv) = (op_a(i, l), op_b(l, j));
                acc = if cfg!(target_feature = "fma") {
                    av.mul_add(bv, acc)
                } else {
                    acc + av * bv
                };
            }
            let cv = &mut c[i * n + j];
            if beta == 0.0 {
                *cv = 0.0;
            } else if beta != 1.0 {
                *cv *= beta;
            }
            *cv += alpha * acc;
        }
    }
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Every entry point against [`chain_oracle`] bit for bit: rows on both
/// sides of the 4-, 6- and 12-row tiles, columns on both sides of the 8-
/// and 16-column tiles, all four transposes, and the engines' scalings,
/// with beta 0 also onto a NaN-filled C.
#[test]
fn every_entry_point_computes_the_exact_chain() {
    for m in [1, 5, 6, 7, 11, 12, 13, 25] {
        for n in [1, 15, 16, 17, 33] {
            for k in [1, 2, 75] {
                for ta in [Trans::No, Trans::Yes] {
                    for tb in [Trans::No, Trans::Yes] {
                        chain_case(ta, tb, m, n, k);
                    }
                }
            }
        }
    }
}

/// One shape and transpose pair of the chain sweep, over every scaling;
/// the batched call runs three ξ slabs.
fn chain_case(ta: Trans, tb: Trans, m: usize, n: usize, k: usize) {
    const XIS: usize = 3;
    let seed = (m * 1000 + n * 10 + k) as u64;
    let a: Vec<Vec<f32>> = (0..XIS).map(|x| filled(m * k, seed + x as u64)).collect();
    let b: Vec<Vec<f32>> = (0..XIS)
        .map(|x| filled(k * n, seed ^ (0x9e37_79b9 + x as u64)))
        .collect();
    let pas: Vec<_> = a.iter().map(|a| pack_a(ta, m, k, a)).collect();
    let pbl = packed_b_len(k, n);
    let mut pbs = vec![0.0f32; XIS * pbl];
    for (slab, b) in pbs.chunks_exact_mut(pbl).zip(&b) {
        let mut pb = Vec::new();
        pack_b_into(tb, k, n, b, &mut pb);
        slab.copy_from_slice(&pb);
    }
    let filled_c = filled(XIS * m * n, seed ^ 0x5bd1_e995);
    let nan_c = vec![f32::NAN; XIS * m * n];
    let scalings = [
        (0.0, &filled_c),
        (1.0, &filled_c),
        (-0.5, &filled_c),
        (0.0, &nan_c),
    ];
    for alpha in [1.0f32, 0.75] {
        for (beta, c_init) in scalings {
            let case = format!("m {m} n {n} k {k} {ta:?}/{tb:?} alpha {alpha} beta {beta}");
            let mut want = c_init.clone();
            for (x, c) in want.chunks_exact_mut(m * n).enumerate() {
                chain_oracle(ta, tb, m, n, k, alpha, &a[x], &b[x], beta, c);
            }
            let (want0, init0) = (&want[..m * n], &c_init[..m * n]);

            let mut got = init0.to_vec();
            sgemm(ta, tb, m, n, k, alpha, &a[0], &b[0], beta, &mut got);
            assert_bits(&got, want0, &format!("sgemm {case}"));

            let mut got = init0.to_vec();
            sgemm_prepacked_a(&pas[0], tb, n, alpha, &b[0], beta, &mut got);
            assert_bits(&got, want0, &format!("sgemm_prepacked_a {case}"));

            let mut got = init0.to_vec();
            sgemm_prepacked(&pas[0], n, alpha, &pbs[..pbl], beta, &mut got);
            assert_bits(&got, want0, &format!("sgemm_prepacked {case}"));

            let mut got = c_init.clone();
            sgemm_prepacked_batch(&pas, n, alpha, &pbs, beta, &mut got);
            assert_bits(&got, &want, &format!("sgemm_prepacked_batch {case}"));
        }
    }
}

fn trans() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::No), Just(Trans::Yes)]
}

/// The scale values the conv engines pass: identity, accumulate, halve,
/// negate — including the beta == 0 "do not read C" case.
fn scale() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), Just(1.0f32), Just(0.5f32), Just(-1.0f32)]
}

/// Odd, deliberately non-tile-aligned dimensions so every case exercises
/// the masked tail paths of the micro-kernel.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 1usize..40, 1usize..40).prop_map(|(m, n, k)| (m | 1, n | 1, k | 1))
}

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = proptest::TestRng::new(seed.max(1));
    (0..len)
        .map(|_| (rng.next_f64() as f32) * 2.0 - 1.0)
        .collect()
}

/// Absolute-plus-relative closeness against the f64 oracle: the packed
/// kernel reassociates sums (and may fuse multiplies), so exact equality
/// with a sequential f32 loop is not the contract — agreement to f32
/// rounding is.
fn assert_close(got: &[f32], want: &[f32], k: usize) {
    let tol = 1e-5 * (k as f32).sqrt().max(1.0);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        assert!(
            (g - w).abs() <= tol * scale,
            "element {i}: got {g}, oracle {w} (tol {tol})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Packed GEMM matches the triple loop on every transpose combination,
    /// odd shape, and engine scale value.
    #[test]
    fn sgemm_matches_triple_loop(
        mnk in dims(),
        ta in trans(),
        tb in trans(),
        alpha in scale(),
        beta in scale(),
        seed in 1u64..1_000_000,
    ) {
        let (m, n, k) = mnk;
        let a = filled(m * k, seed);
        let b = filled(k * n, seed ^ 0x9e37_79b9);
        // Seed C with garbage when beta == 0: cuDNN semantics say it must
        // be overwritten, never read.
        let c_init: Vec<f32> = if beta == 0.0 {
            vec![f32::NAN; m * n]
        } else {
            filled(m * n, seed ^ 0x5bd1_e995)
        };
        let mut want = c_init.clone();
        gemm_oracle(ta, tb, m, n, k, alpha, &a, &b, beta, &mut want);

        let mut got = c_init.clone();
        sgemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut got);
        assert_close(&got, &want, k);

        let mut refr = c_init.clone();
        sgemm_ref(ta, tb, m, n, k, alpha, &a, &b, beta, &mut refr);
        assert_close(&refr, &want, k);
    }

    /// Pre-packing A (the micro-batch filter-reuse path) is bit-identical
    /// to packing inside the call, and repeated calls are deterministic.
    #[test]
    fn prepacked_a_is_bit_identical_and_deterministic(
        mnk in dims(),
        ta in trans(),
        tb in trans(),
        seed in 1u64..1_000_000,
    ) {
        let (m, n, k) = mnk;
        let a = filled(m * k, seed);
        let b = filled(k * n, seed ^ 0xc2b2_ae35);
        let mut fresh = vec![0.0f32; m * n];
        sgemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut fresh);

        let pa = pack_a(ta, m, k, &a);
        for round in 0..2 {
            let mut warm = vec![f32::NAN; m * n];
            sgemm_prepacked_a(&pa, tb, n, 1.0, &b, 0.0, &mut warm);
            for (i, (f, w)) in fresh.iter().zip(&warm).enumerate() {
                prop_assert_eq!(
                    f.to_bits(),
                    w.to_bits(),
                    "element {} differs on round {}",
                    i,
                    round
                );
            }
        }
    }

    /// The fully-prepacked call (both operands packed — the Winograd fast
    /// path) is bit-identical to packing B inside the call, and beta == 0
    /// never reads the NaN-seeded output.
    #[test]
    fn prepacked_b_is_bit_identical_and_nan_safe(
        mnk in dims(),
        ta in trans(),
        tb in trans(),
        alpha in scale(),
        seed in 1u64..1_000_000,
    ) {
        let (m, n, k) = mnk;
        let a = filled(m * k, seed);
        let b = filled(k * n, seed ^ 0xc2b2_ae35);
        let mut fresh = vec![0.0f32; m * n];
        sgemm(ta, tb, m, n, k, alpha, &a, &b, 0.0, &mut fresh);

        let pa = pack_a(ta, m, k, &a);
        let mut pb = Vec::new();
        pack_b_into(tb, k, n, &b, &mut pb);
        let mut got = vec![f32::NAN; m * n];
        sgemm_prepacked(&pa, n, alpha, &pb, 0.0, &mut got);
        for (i, (f, g)) in fresh.iter().zip(&got).enumerate() {
            prop_assert!(!g.is_nan(), "element {} read NaN-seeded C at beta == 0", i);
            prop_assert_eq!(f.to_bits(), g.to_bits(), "element {} differs", i);
        }
    }

    /// The batched multi-RHS call over a ξ-major packed layout is
    /// bit-identical to looping `sgemm_prepacked` per ξ — slab offsets,
    /// edge panels, and the beta == 0 NaN contract all included.
    #[test]
    fn batched_multi_rhs_matches_per_xi_loop(
        mnk in dims(),
        xis in 1usize..6,
        alpha in scale(),
        beta in scale(),
        seed in 1u64..1_000_000,
    ) {
        let (m, n, k) = mnk;
        let pbl = packed_b_len(k, n);
        let mut pas = Vec::new();
        let mut pb = vec![0.0f32; xis * pbl];
        for xi in 0..xis {
            let a = filled(m * k, seed.wrapping_add(xi as u64 * 7919));
            let b = filled(k * n, seed ^ (0x9e37_79b9 + xi as u64));
            pas.push(pack_a(Trans::No, m, k, &a));
            let mut slab = Vec::new();
            pack_b_into(Trans::No, k, n, &b, &mut slab);
            pb[xi * pbl..(xi + 1) * pbl].copy_from_slice(&slab);
        }
        let c_init: Vec<f32> = if beta == 0.0 {
            vec![f32::NAN; xis * m * n]
        } else {
            filled(xis * m * n, seed ^ 0x5bd1_e995)
        };

        let mut want = c_init.clone();
        for xi in 0..xis {
            sgemm_prepacked(
                &pas[xi],
                n,
                alpha,
                &pb[xi * pbl..(xi + 1) * pbl],
                beta,
                &mut want[xi * m * n..(xi + 1) * m * n],
            );
        }

        let mut got = c_init.clone();
        sgemm_prepacked_batch(&pas, n, alpha, &pb, beta, &mut got);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            if beta == 0.0 {
                prop_assert!(!g.is_nan(), "element {} read NaN-seeded C at beta == 0", i);
            }
            prop_assert_eq!(w.to_bits(), g.to_bits(), "element {} differs", i);
        }
    }
}
