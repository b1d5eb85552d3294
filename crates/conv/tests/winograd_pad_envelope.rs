//! Exhaustive oracle sweep of the Winograd pad envelope.
//!
//! `supports()` advertises pad ≤ 2 for both F(2×2,3×3) and F(4×4,3×3); this
//! suite pins every combination of `pad_h × pad_w ∈ 0..=2`, odd and even
//! spatial sizes (edge tiles clip on one or both axes), Forward and
//! BackwardData, against the direct seven-loop reference — for the fast
//! strip-vectorized path *and* the retained scalar baseline. A tile-edge
//! indexing bug anywhere inside the advertised envelope fails here before
//! it can ship behind `supports()`.

use ucudnn_conv::direct;
use ucudnn_conv::winograd::{self, Tile, F2, F4};
use ucudnn_tensor::{assert_all_close, ConvGeometry, FilterShape, Shape4, Tensor};

/// Spatial sizes chosen so tile grids clip differently per axis: even/even,
/// odd/odd, odd/even, and a sub-tile-size edge case.
const SPATIALS: [(usize, usize); 4] = [(6, 6), (7, 9), (9, 8), (5, 11)];

fn envelope() -> Vec<ConvGeometry> {
    let mut gs = Vec::new();
    for pad_h in 0..=2 {
        for pad_w in 0..=2 {
            for (h, w) in SPATIALS {
                gs.push(ConvGeometry::new(
                    Shape4::new(2, 3, h, w),
                    FilterShape::new(4, 3, 3, 3),
                    pad_h,
                    pad_w,
                    1,
                    1,
                ));
            }
        }
    }
    gs
}

fn check_forward<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    tol: f32,
) {
    let x = Tensor::random(g.input, 11);
    let w = Tensor::random(g.filter.as_shape4(), 12);
    let (xs, wsl) = (x.as_slice(), w.as_slice());
    let mut y_ref = Tensor::zeros(g.output());
    direct::forward(g, xs, wsl, y_ref.as_mut_slice(), 1.0, 0.0);
    let mut ws = vec![0.0; winograd::workspace_floats(tile, g)];
    let mut y = Tensor::zeros(g.output());
    winograd::forward(tile, g, xs, wsl, y.as_mut_slice(), 1.0, 0.0, &mut ws);
    assert_all_close(&y_ref, &y, tol);
    let mut y_naive = Tensor::zeros(g.output());
    winograd::forward_ref(tile, g, xs, wsl, y_naive.as_mut_slice(), 1.0, 0.0, &mut ws);
    assert_all_close(&y_ref, &y_naive, tol);
}

fn check_backward<T: Tile<M, A>, const M: usize, const A: usize>(
    tile: T,
    g: &ConvGeometry,
    tol: f32,
) {
    let dy = Tensor::random(g.output(), 13);
    let w = Tensor::random(g.filter.as_shape4(), 14);
    let (dys, wsl) = (dy.as_slice(), w.as_slice());
    let mut dx_ref = Tensor::zeros(g.input);
    direct::backward_data(g, dys, wsl, dx_ref.as_mut_slice(), 1.0, 0.0);
    let mut ws = vec![0.0; winograd::workspace_floats_backward_data(tile, g)];
    let mut dx = Tensor::zeros(g.input);
    winograd::backward_data(tile, g, dys, wsl, dx.as_mut_slice(), 1.0, 0.0, &mut ws);
    assert_all_close(&dx_ref, &dx, tol);
    let mut dx_naive = Tensor::zeros(g.input);
    let dxn = dx_naive.as_mut_slice();
    winograd::backward_data_ref(tile, g, dys, wsl, dxn, 1.0, 0.0, &mut ws);
    assert_all_close(&dx_ref, &dx_naive, tol);
}

#[test]
fn f2_forward_covers_full_pad_envelope() {
    for g in envelope() {
        assert!(winograd::supports(&g), "{g} must be inside the envelope");
        check_forward(F2, &g, 1e-3);
    }
}

#[test]
fn f2_backward_data_covers_full_pad_envelope() {
    for g in envelope() {
        check_backward(F2, &g, 1e-3);
    }
}

#[test]
fn f4_forward_covers_full_pad_envelope() {
    for g in envelope() {
        check_forward(F4, &g, 5e-3);
    }
}

#[test]
fn f4_backward_data_covers_full_pad_envelope() {
    for g in envelope() {
        check_backward(F4, &g, 5e-3);
    }
}

/// Everything the envelope promises and nothing more: pad 3 is rejected.
#[test]
fn pad_three_is_outside_the_envelope() {
    let g = ConvGeometry::with_square(Shape4::new(1, 2, 8, 8), FilterShape::new(2, 2, 3, 3), 3, 1);
    assert!(!winograd::supports(&g));
}
