//! Property tests for the tensor primitives the micro-batching machinery
//! leans on: contiguous batch views, axpby scaling, deterministic fills.

use proptest::prelude::*;
use ucudnn_tensor::{max_abs_diff, DeterministicRng, Shape4, Tensor};

fn shapes() -> impl Strategy<Value = Shape4> {
    (1usize..=8, 1usize..=8, 1usize..=8, 1usize..=8)
        .prop_map(|(n, c, h, w)| Shape4::new(n, c, h, w))
}

proptest! {
    /// Splitting into any two batch ranges and reassembling is the identity
    /// — the zero-copy property micro-batching relies on.
    #[test]
    fn batch_slices_partition_the_buffer(shape in shapes(), frac in 0.0f64..=1.0, seed in 0u64..500) {
        let t = Tensor::random(shape, seed);
        let split = ((shape.n as f64) * frac) as usize;
        let a = t.batch_slice(0, split);
        let b = t.batch_slice(split, shape.n);
        let mut rebuilt = Vec::with_capacity(shape.len());
        rebuilt.extend_from_slice(a);
        rebuilt.extend_from_slice(b);
        prop_assert_eq!(rebuilt.as_slice(), t.as_slice());
    }

    /// axpby is linear: (a·x + b·y) computed in one call equals the
    /// two-step computation.
    #[test]
    fn axpby_linearity(shape in shapes(), alpha in -3.0f32..3.0, beta in -3.0f32..3.0, seed in 0u64..500) {
        let x = Tensor::random(shape, seed);
        let y = Tensor::random(shape, seed + 1);
        let mut one_shot = y.clone();
        one_shot.axpby(alpha, &x, beta);
        // Elementwise reference.
        let mut want = Tensor::zeros(shape);
        for i in 0..shape.len() {
            want.as_mut_slice()[i] = alpha * x.as_slice()[i] + beta * y.as_slice()[i];
        }
        prop_assert!(max_abs_diff(&one_shot, &want) <= 1e-5);
    }

    /// Flat indexing agrees with coordinate indexing everywhere.
    #[test]
    fn index_is_consistent(shape in shapes(), seed in 0u64..500) {
        let t = Tensor::random(shape, seed);
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        prop_assert_eq!(t.get(n, c, h, w), t.as_slice()[shape.index(n, c, h, w)]);
                    }
                }
            }
        }
    }

    /// Distinct seeds give distinct streams; same seed is bit-identical.
    #[test]
    fn rng_streams(seed in 0u64..10_000) {
        let mut a = DeterministicRng::new(seed);
        let mut b = DeterministicRng::new(seed);
        let mut c = DeterministicRng::new(seed.wrapping_add(1));
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        prop_assert_eq!(&va, &vb);
        prop_assert_ne!(&va, &vc);
    }
}
