//! Golden digests of the two Winograd engines.
//!
//! For F(2×2, 3×3) (`EngineKind::Winograd`) and F(4×4, 3×3)
//! (`EngineKind::WinogradF4`), forward and backward-data, each path is
//! pinned by one FNV-1a-64 digest over the output bits of a fixed set of
//! cases:
//! - **cold:** the fast path on a fresh plan (`exec`);
//! - **warm:** the fast path on a plan that already holds the transformed
//!   filter (the second `exec_with_plan` call on one plan);
//! - **ref:** the retained scalar baseline (`exec_ref`).
//!
//! The cases are the pad envelope (pad 0–2 on each axis × the four
//! spatial sizes of `winograd_pad_envelope.rs`), a shape with more tiles
//! than one `NR` strip whose strips cross image boundaries, alpha 0.75 /
//! beta −0.5 onto a pre-filled output, and inputs and a filter plane with
//! a block of exact +0.0 and −0.0.
//!
//! The GEMM's multiply-add is the only arithmetic that depends on the
//! host: it is fused where the target has FMA. `MR` and `NR` change no
//! element's accumulation chain, so there is one set of output digests per
//! `cfg!(target_feature = "fma")`; without FMA the fast path and the
//! baseline agree bit for bit. Workspace sizes round up to whole `NR`
//! strips, so their digest is keyed on `NR`.
//!
//! A moved digest is a behaviour change, never a constant to update.

use ucudnn_conv::gemm::NR;
use ucudnn_conv::{
    exec, exec_ref, exec_with_plan, workspace_floats, ConvOp, EngineKind, EnginePlan,
};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4, Tensor};

/// Spatial sizes of the pad-envelope sweep: even/even, odd/odd, odd/even
/// and a sub-tile edge case.
const SPATIALS: [(usize, usize); 4] = [(6, 6), (7, 9), (9, 8), (5, 11)];

/// One pinned input set: geometry, seeds, scaling and whether the data
/// and filter carry a block of signed zeros.
struct Case {
    g: ConvGeometry,
    seed: u64,
    alpha: f32,
    beta: f32,
    zeros: bool,
}

fn cases() -> Vec<Case> {
    let plain = |g, seed| Case {
        g,
        seed,
        alpha: 1.0,
        beta: 0.0,
        zeros: false,
    };
    let mut cases = Vec::new();
    for pad_h in 0..=2 {
        for pad_w in 0..=2 {
            for (h, w) in SPATIALS {
                cases.push(plain(
                    ConvGeometry::new(
                        Shape4::new(2, 3, h, w),
                        FilterShape::new(4, 3, 3, 3),
                        pad_h,
                        pad_w,
                        1,
                        1,
                    ),
                    11,
                ));
            }
        }
    }
    // 189 F(2×2) tiles and 60 F(4×4) tiles over three images.
    cases.push(plain(
        ConvGeometry::with_square(
            Shape4::new(3, 5, 13, 17),
            FilterShape::new(6, 5, 3, 3),
            1,
            1,
        ),
        21,
    ));
    cases.push(Case {
        alpha: 0.75,
        beta: -0.5,
        ..plain(
            ConvGeometry::with_square(Shape4::new(2, 3, 8, 8), FilterShape::new(4, 3, 3, 3), 1, 1),
            31,
        )
    });
    cases.push(Case {
        zeros: true,
        ..plain(
            ConvGeometry::with_square(
                Shape4::new(2, 3, 10, 10),
                FilterShape::new(4, 3, 3, 3),
                1,
                1,
            ),
            41,
        )
    });
    cases
}

/// Overwrite a block of image 0, channel 1 with alternating +0.0 / −0.0.
fn signed_zero_block(t: &mut Tensor) {
    let s = t.shape();
    for h in s.h / 4..s.h - 1 {
        for w in 1..s.w - 2 {
            let z = if (h + w) % 2 == 0 { 0.0 } else { -0.0 };
            t.set(0, 1, h, w, z);
        }
    }
}

/// FNV-1a-64, fed the little-endian bytes of each value.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// Digests of `engine` in the order fwd cold, fwd warm, fwd ref, bwd
/// cold, bwd warm, bwd ref.
fn digests(engine: EngineKind) -> [u64; 6] {
    let mut hashes: [Fnv; 6] = std::array::from_fn(|_| Fnv::new());
    for case in cases() {
        let g = case.g;
        let x = {
            let mut x = Tensor::random(g.input, case.seed);
            if case.zeros {
                signed_zero_block(&mut x);
            }
            x
        };
        let dy = {
            let mut dy = Tensor::random(g.output(), case.seed + 2);
            if case.zeros {
                signed_zero_block(&mut dy);
            }
            dy
        };
        let mut w = Tensor::random(g.filter.as_shape4(), case.seed + 1);
        if case.zeros {
            for r in 0..3 {
                for s in 0..3 {
                    w.set(1, 2, r, s, if (r + s) % 2 == 0 { -0.0 } else { 0.0 });
                }
            }
        }
        for (oi, op) in [ConvOp::Forward, ConvOp::BackwardData]
            .into_iter()
            .enumerate()
        {
            let (a, out_shape) = match op {
                ConvOp::Forward => (&x, g.output()),
                _ => (&dy, g.input),
            };
            let prefill = || {
                if case.beta == 0.0 {
                    Tensor::zeros(out_shape)
                } else {
                    Tensor::random(out_shape, case.seed + 3)
                }
            };
            let mut ws = vec![0.0f32; workspace_floats(engine, op, &g)];
            let (ab, wb) = (a.as_slice(), w.as_slice());
            let (alpha, beta) = (case.alpha, case.beta);

            let mut cold = prefill();
            exec(
                engine,
                op,
                &g,
                ab,
                wb,
                cold.as_mut_slice(),
                alpha,
                beta,
                &mut ws,
            )
            .unwrap();

            let mut plan = EnginePlan::for_engine(engine);
            let mut run_on_plan = || {
                let mut out = prefill();
                let o = out.as_mut_slice();
                exec_with_plan(engine, op, &g, ab, wb, o, alpha, beta, &mut ws, &mut plan).unwrap();
                out
            };
            run_on_plan();
            let warm = run_on_plan();

            let mut naive = prefill();
            exec_ref(
                engine,
                op,
                &g,
                ab,
                wb,
                naive.as_mut_slice(),
                alpha,
                beta,
                &mut ws,
            )
            .unwrap();

            for (pi, out) in [&cold, &warm, &naive].into_iter().enumerate() {
                hashes[3 * oi + pi].f32s(out.as_slice());
            }
        }
    }
    hashes.map(|h| h.0)
}

fn check(engine: EngineKind, fma: [u64; 6], no_fma: [u64; 6]) {
    let pinned = if cfg!(target_feature = "fma") {
        fma
    } else {
        no_fma
    };
    let got = digests(engine);
    let names = [
        "fwd cold", "fwd warm", "fwd ref", "bwd cold", "bwd warm", "bwd ref",
    ];
    let table: String = names
        .iter()
        .zip(got.iter().zip(&pinned))
        .map(|(n, (g, p))| format!("  {n}: got {g:#018x}, pinned {p:#018x}\n"))
        .collect();
    assert_eq!(got, pinned, "{engine:?} digests moved:\n{table}");
}

#[test]
fn f2_output_digests() {
    check(
        EngineKind::Winograd,
        [
            0xde21_67bd_484b_a183,
            0xde21_67bd_484b_a183,
            0xcf3c_d627_88f1_e99e,
            0xae3b_06c7_8a12_6bb4,
            0xae3b_06c7_8a12_6bb4,
            0xd8c4_138a_ab83_64d3,
        ],
        [
            0xcf3c_d627_88f1_e99e,
            0xcf3c_d627_88f1_e99e,
            0xcf3c_d627_88f1_e99e,
            0xd8c4_138a_ab83_64d3,
            0xd8c4_138a_ab83_64d3,
            0xd8c4_138a_ab83_64d3,
        ],
    );
}

#[test]
fn f4_output_digests() {
    check(
        EngineKind::WinogradF4,
        [
            0x3269_3806_8d9a_773c,
            0x3269_3806_8d9a_773c,
            0xc9e6_c5fb_b950_a567,
            0xf44c_cd37_9ece_0d35,
            0xf44c_cd37_9ece_0d35,
            0x378f_ab38_0000_31dd,
        ],
        [
            0xc9e6_c5fb_b950_a567,
            0xc9e6_c5fb_b950_a567,
            0xc9e6_c5fb_b950_a567,
            0x378f_ab38_0000_31dd,
            0x378f_ab38_0000_31dd,
            0x378f_ab38_0000_31dd,
        ],
    );
}

/// Every case's `workspace_floats` for both engines and both ops.
#[test]
fn workspace_floats_digest() {
    let mut h = Fnv::new();
    let mut text = String::new();
    for case in cases() {
        for engine in [EngineKind::Winograd, EngineKind::WinogradF4] {
            for op in [ConvOp::Forward, ConvOp::BackwardData] {
                let ws = workspace_floats(engine, op, &case.g);
                h.bytes(&(ws as u64).to_le_bytes());
                text.push_str(&format!("{engine:?} {op} {}: {ws}\n", case.g));
            }
        }
    }
    let pinned = match NR {
        8 => 0xeb81_88f8_3414_53fd,
        16 => 0x3bf8_0932_003a_0a0f,
        _ => panic!("no workspace digest pinned for NR = {NR}"),
    };
    assert_eq!(
        h.0, pinned,
        "workspace digest moved: got {:#018x}, pinned {pinned:#018x}:\n{text}",
        h.0
    );
}
