//! Per-(engine, op, geometry) execution plans.
//!
//! Every engine re-derives call-invariant state on each invocation: the GEMM
//! engine packs the filter panels, the Winograd engines re-transform (and
//! re-pack) the filters. A [`EnginePlan`] owns that state so it can be
//! derived once and reused — across the micro-batches of one layer execution
//! (the filter operand is identical for all of them, the packed-weight
//! analogue of WR's workspace reuse) and across training iterations (the
//! cuDNN-simulation layer keys plans by geometry and keeps them in an LRU
//! cache).
//!
//! Filter-dependent state is revalidated by a cheap 64-bit FNV fingerprint
//! of the filter bits: within an iteration every micro-batch hits; after an
//! SGD step the fingerprint changes and the state is re-derived once.
//! Plans never change numerical results — the cached state is bit-identical
//! to what the uncached path would recompute, so execution with and without
//! plans (or with a cold vs. warm plan) produces byte-identical outputs.

use crate::gemm::{pack_a, PackedA, Trans};
use crate::EngineKind;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Independent FNV chains of [`fingerprint_f32`].
const LANES: usize = 32;

/// One FNV-1a step: xor a word in, multiply by the prime.
#[inline(always)]
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// 64-bit FNV-1a-style fingerprint over the raw bits of an `f32` slice.
/// Used to revalidate filter-derived plan state on every call, so it runs
/// 32 independent chains over words of two floats (one serial chain
/// waits a multiply latency per element), then folds the chains and the
/// tail into one. Each step is a bijection of its chain, so changing any
/// single element always changes the fingerprint. Distinct filters collide
/// only if they share a geometry key and the 64-bit hashes, which FNV makes
/// vanishingly unlikely for non-adversarial training data.
pub fn fingerprint_f32(data: &[f32]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut groups = data.chunks_exact(2 * LANES);
    for group in &mut groups {
        for (h, pair) in lanes.iter_mut().zip(group.chunks_exact(2)) {
            let word = u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32;
            *h = fnv(*h, word);
        }
    }
    let folded = lanes.into_iter().fold(FNV_OFFSET, fnv);
    groups
        .remainder()
        .iter()
        .fold(folded, |h, v| fnv(h, u64::from(v.to_bits())))
}

/// Cached state for the im2col+GEMM engine: the filter packed as the `A`
/// operand of the forward (`W`, `K x CRS`) and backward-data (`Wᵀ`,
/// `CRS x K`) GEMMs.
#[derive(Debug, Default)]
pub struct GemmPlan {
    fp: Option<u64>,
    fwd: Option<PackedA>,
    bwd: Option<PackedA>,
}

impl GemmPlan {
    /// Drop filter-derived state when the filter bits changed.
    fn revalidate(&mut self, w: &[f32]) {
        let fp = fingerprint_f32(w);
        if self.fp != Some(fp) {
            self.fp = Some(fp);
            self.fwd = None;
            self.bwd = None;
        }
    }

    /// Packed `W` (`K x CRS`) for the forward GEMM, repacking only when the
    /// filter bits changed since the last call. A plan checked out with the
    /// wrong shape (or for the wrong direction) is repacked in place rather
    /// than trusted — there is no panicking checkout path.
    pub(crate) fn packed_forward(&mut self, k: usize, crs: usize, w: &[f32]) -> &PackedA {
        self.revalidate(w);
        if self.fwd.as_ref().is_none_or(|p| p.m() != k || p.k() != crs) {
            self.fwd = None;
        }
        self.fwd.get_or_insert_with(|| pack_a(Trans::No, k, crs, w))
    }

    /// Packed `Wᵀ` (`CRS x K`) for the backward-data GEMM.
    pub(crate) fn packed_backward_data(&mut self, crs: usize, k: usize, w: &[f32]) -> &PackedA {
        self.revalidate(w);
        if self.bwd.as_ref().is_none_or(|p| p.m() != crs || p.k() != k) {
            self.bwd = None;
        }
        self.bwd
            .get_or_insert_with(|| pack_a(Trans::Yes, crs, k, w))
    }

    /// Heap bytes held.
    pub fn bytes(&self) -> usize {
        self.fwd.as_ref().map_or(0, PackedA::bytes) + self.bwd.as_ref().map_or(0, PackedA::bytes)
    }
}

/// Which use of a Winograd plan a checkout is for. Forward transforms the
/// filter as stored; backward-data transforms the rotated, channel-transposed
/// filter — different bits, different fingerprint, so the two directions get
/// separate slots instead of thrashing (or worse, serving) each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WinogradDir {
    /// Forward convolution on the filter as stored.
    Fwd,
    /// Backward-data on the flipped filter.
    Bwd,
}

/// One direction's cached state: the transformed filter `U`, packed per ξ as
/// the `A` operand of the batched per-ξ GEMM. `tiles` is 16 for F(2×2, 3×3)
/// and 36 for F(4×4, 3×3), so a plan moved between the tiles re-derives.
#[derive(Debug, Default)]
struct WinogradSlot {
    fp: Option<u64>,
    tiles: usize,
    u_packed: Vec<PackedA>,
}

impl WinogradSlot {
    fn packed_u(
        &mut self,
        tiles: usize,
        k: usize,
        c: usize,
        w: &[f32],
        transform: impl FnOnce(&mut [f32]),
    ) -> &[PackedA] {
        let fp = fingerprint_f32(w);
        let stale = self.fp != Some(fp)
            || self.tiles != tiles
            || self.u_packed.len() != tiles
            || self
                .u_packed
                .first()
                .is_some_and(|p| p.m() != k || p.k() != c);
        if stale {
            let mut u = vec![0.0f32; tiles * k * c];
            transform(&mut u);
            self.u_packed = (0..tiles)
                .map(|xi| pack_a(Trans::No, k, c, &u[xi * k * c..(xi + 1) * k * c]))
                .collect();
            self.fp = Some(fp);
            self.tiles = tiles;
        }
        &self.u_packed
    }

    fn bytes(&self) -> usize {
        self.u_packed.iter().map(PackedA::bytes).sum()
    }
}

/// Cached state for the Winograd engine (either tile), one `WinogradSlot`
/// per direction. A plan checked out for the "wrong" direction simply fills
/// the other slot — every checkout path degrades to re-deriving state, never
/// to a panic.
#[derive(Debug, Default)]
pub struct WinogradPlan {
    fwd: WinogradSlot,
    bwd: WinogradSlot,
}

impl WinogradPlan {
    /// Packed `U[ξ]` panels for a filter in direction `dir`, re-deriving them
    /// via `transform` (which must fill a `tiles*k*c` buffer in ξ-major
    /// `[ξ][k][c]` layout) only when the filter bits changed.
    pub(crate) fn packed_u(
        &mut self,
        dir: WinogradDir,
        tiles: usize,
        k: usize,
        c: usize,
        w: &[f32],
        transform: impl FnOnce(&mut [f32]),
    ) -> &[PackedA] {
        let slot = match dir {
            WinogradDir::Fwd => &mut self.fwd,
            WinogradDir::Bwd => &mut self.bwd,
        };
        slot.packed_u(tiles, k, c, w, transform)
    }

    /// Heap bytes held across both direction slots (LRU byte accounting).
    pub fn bytes(&self) -> usize {
        self.fwd.bytes() + self.bwd.bytes()
    }
}

/// The cached execution state of one (engine, op, geometry) key. Constructed
/// empty; engines lazily populate it on first use and revalidate
/// filter-derived entries by fingerprint.
#[derive(Debug)]
pub enum EnginePlan {
    /// im2col+GEMM packed filter panels.
    Gemm(GemmPlan),
    /// Packed transformed filters, for both Winograd tiles.
    Winograd(WinogradPlan),
}

impl EnginePlan {
    /// An empty plan for `engine`.
    pub fn for_engine(engine: EngineKind) -> Self {
        match engine {
            EngineKind::ImplicitGemm => EnginePlan::Gemm(GemmPlan::default()),
            EngineKind::Winograd | EngineKind::WinogradF4 => {
                EnginePlan::Winograd(WinogradPlan::default())
            }
        }
    }

    /// Heap bytes held by the cached state (for LRU byte accounting).
    pub fn bytes(&self) -> usize {
        match self {
            EnginePlan::Gemm(p) => p.bytes(),
            EnginePlan::Winograd(p) => p.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_values_and_orders() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 2.0, 4.0];
        let c = [3.0f32, 2.0, 1.0];
        assert_eq!(fingerprint_f32(&a), fingerprint_f32(&a));
        assert_ne!(fingerprint_f32(&a), fingerprint_f32(&b));
        assert_ne!(fingerprint_f32(&a), fingerprint_f32(&c));
        // 0.0 and -0.0 have different bits — fingerprint sees raw bits.
        assert_ne!(fingerprint_f32(&[0.0]), fingerprint_f32(&[-0.0]));
    }

    /// A one-ulp change to any single element — first, middle, last of the
    /// lane groups, or in the tail after them — changes the fingerprint and
    /// invalidates the packed filter.
    #[test]
    fn one_ulp_change_anywhere_invalidates_the_packed_filter() {
        use crate::gemm::sgemm_prepacked_a;
        let group = 2 * LANES;
        for len in [3 * group, 3 * group + 5] {
            let (m, k) = (1, len);
            let w: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin() + 2.0).collect();
            let mut plan = GemmPlan::default();
            plan.packed_forward(m, k, &w);
            let tail = len - len % group;
            let mut at = vec![0, len / 2, tail - 1, len - 1];
            if tail < len {
                at.push(tail + 1);
            }
            for i in at {
                let mut w2 = w.clone();
                w2[i] = f32::from_bits(w[i].to_bits() + 1);
                assert_ne!(
                    fingerprint_f32(&w),
                    fingerprint_f32(&w2),
                    "len {len}, element {i}"
                );
                // W @ I reproduces the packed filter exactly.
                let mut eye = vec![0.0f32; k * k];
                eye.iter_mut().step_by(k + 1).for_each(|v| *v = 1.0);
                let mut got = vec![0.0f32; k];
                let packed = plan.packed_forward(m, k, &w2);
                sgemm_prepacked_a(packed, Trans::No, k, 1.0, &eye, 0.0, &mut got);
                assert_eq!(
                    got[i].to_bits(),
                    w2[i].to_bits(),
                    "len {len}: stale pack at {i}"
                );
                plan.packed_forward(m, k, &w);
            }
        }
    }

    #[test]
    fn gemm_plan_repacks_only_on_filter_change() {
        let w1 = vec![1.0f32; 12];
        let w2 = vec![2.0f32; 12];
        let mut plan = GemmPlan::default();
        let p1 = plan.packed_forward(3, 4, &w1) as *const PackedA;
        let p1b = plan.packed_forward(3, 4, &w1) as *const PackedA;
        assert_eq!(p1, p1b, "unchanged filter must not repack");
        plan.packed_forward(3, 4, &w2);
        assert!(plan.bytes() > 0);
        // Changing the filter invalidates both directions.
        plan.packed_backward_data(4, 3, &w2);
        let before = plan.bytes();
        plan.packed_forward(3, 4, &w1);
        assert!(plan.bytes() < before, "stale backward pack must be dropped");
    }

    #[test]
    fn gemm_plan_survives_wrong_shape_checkout() {
        // A plan checked out with a mismatched shape (e.g. reused across
        // geometries or directions) must repack, not panic.
        let w = vec![1.0f32; 24];
        let mut plan = GemmPlan::default();
        plan.packed_forward(4, 6, &w);
        let p = plan.packed_forward(2, 12, &w);
        assert_eq!((p.m(), p.k()), (2, 12));
        let p = plan.packed_backward_data(12, 2, &w);
        assert_eq!((p.m(), p.k()), (12, 2));
    }

    #[test]
    fn winograd_plan_keeps_both_directions_warm() {
        // Forward and backward-data transform different filter bits; with
        // per-direction slots, alternating directions must not thrash.
        let wf = vec![1.0f32; 2 * 3 * 9];
        let wb = vec![2.0f32; 3 * 2 * 9];
        let mut plan = WinogradPlan::default();
        let mut derived = 0u32;
        for _ in 0..3 {
            plan.packed_u(WinogradDir::Fwd, 16, 2, 3, &wf, |u| {
                derived += 1;
                u.fill(1.0);
            });
            plan.packed_u(WinogradDir::Bwd, 16, 3, 2, &wb, |u| {
                derived += 1;
                u.fill(2.0);
            });
        }
        assert_eq!(derived, 2, "each direction derives once, then stays warm");
        assert!(plan.bytes() > 0);
    }

    #[test]
    fn engine_plan_variants_report_bytes() {
        for e in EngineKind::ALL {
            let plan = EnginePlan::for_engine(e);
            assert_eq!(plan.bytes(), 0, "fresh plans hold no heap state");
        }
    }
}
