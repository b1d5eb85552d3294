//! Analytic GPU performance model for convolution kernels.
//!
//! This crate is the stand-in for "cuDNN on a real GPU" (see DESIGN.md §2):
//! a deterministic model of per-algorithm execution time and workspace size
//! for the devices in the paper's Table I. The μ-cuDNN optimizer consumes
//! only `(algorithm, time, workspace)` triples, so any substrate with a
//! faithful time×workspace surface exercises the same optimization paths the
//! paper's GPU experiments did.

pub mod algo;
pub mod device;
pub mod time;
pub mod workspace;

pub use algo::{algo_supported, ConvAlgo, ConvOp};
pub use device::{all_devices, k80, p100_sxm2, v100_sxm2, DeviceSpec};
pub use time::{kernel_time_us, memory_bound_time_us};
pub use workspace::workspace_bytes;

use ucudnn_tensor::ConvGeometry;

/// One benchmarked kernel variant: what `cudnnFindConvolution*Algorithm`
/// returns per algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// The algorithm.
    pub algo: ConvAlgo,
    /// Modeled execution time in microseconds.
    pub time_us: f64,
    /// Modeled workspace requirement in bytes.
    pub workspace_bytes: usize,
}

/// Profile a single algorithm, or `None` when unsupported.
pub fn profile(
    d: &DeviceSpec,
    algo: ConvAlgo,
    op: ConvOp,
    g: &ConvGeometry,
) -> Option<KernelProfile> {
    let time_us = kernel_time_us(d, algo, op, g)?;
    let workspace = workspace_bytes(algo, op, g)?;
    Some(KernelProfile {
        algo,
        time_us,
        workspace_bytes: workspace,
    })
}

/// Profile every supported algorithm, sorted fastest first — the result of
/// an exhaustive `Find` benchmark.
pub fn enumerate(d: &DeviceSpec, op: ConvOp, g: &ConvGeometry) -> Vec<KernelProfile> {
    let mut v: Vec<KernelProfile> = ConvAlgo::ALL
        .iter()
        .filter_map(|&a| profile(d, a, op, g))
        .collect();
    v.sort_by(|a, b| a.time_us.total_cmp(&b.time_us));
    v
}

/// The fastest algorithm whose workspace fits within `limit_bytes` — the
/// semantics of `cudnnGetConvolution*Algorithm` with
/// `SPECIFY_WORKSPACE_LIMIT`. Returns `None` when nothing fits (cuDNN can
/// always fall back to `IMPLICIT_GEMM`, so in practice this is `Some` for
/// any limit ≥ 0).
pub fn fastest_within(
    d: &DeviceSpec,
    op: ConvOp,
    g: &ConvGeometry,
    limit_bytes: usize,
) -> Option<KernelProfile> {
    enumerate(d, op, g)
        .into_iter()
        .find(|p| p.workspace_bytes <= limit_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_tensor::{FilterShape, Shape4};

    fn conv2() -> ConvGeometry {
        ConvGeometry::with_square(
            Shape4::new(256, 64, 27, 27),
            FilterShape::new(192, 64, 5, 5),
            2,
            1,
        )
    }

    const MIB: usize = 1024 * 1024;

    #[test]
    fn enumerate_is_sorted_and_nonempty() {
        let v = enumerate(&p100_sxm2(), ConvOp::Forward, &conv2());
        assert!(v.len() >= 3);
        assert!(v.windows(2).all(|w| w[0].time_us <= w[1].time_us));
        // DIRECT never appears.
        assert!(v.iter().all(|p| p.algo != ConvAlgo::Direct));
    }

    #[test]
    fn zero_limit_still_finds_implicit_gemm() {
        let p = fastest_within(&p100_sxm2(), ConvOp::Forward, &conv2(), 0).unwrap();
        assert_eq!(p.algo, ConvAlgo::ImplicitGemm);
        assert_eq!(p.workspace_bytes, 0);
    }

    #[test]
    fn workspace_cliff_exists() {
        // The Fig. 1 phenomenon: the best unconstrained algorithm needs a big
        // workspace; capping the limit 1 byte below it forces a slower one.
        let d = p100_sxm2();
        let best = enumerate(&d, ConvOp::Forward, &conv2())[0];
        assert!(best.workspace_bytes > 0);
        let constrained =
            fastest_within(&d, ConvOp::Forward, &conv2(), best.workspace_bytes - 1).unwrap();
        assert!(constrained.time_us > best.time_us);
        let slowdown = constrained.time_us / best.time_us;
        assert!(slowdown > 1.3, "cliff slowdown only {slowdown}");
    }

    #[test]
    fn sixty_four_mib_excludes_fft_at_full_batch() {
        // At 64 MiB undivided, cuDNN falls back to a GEMM-family algorithm
        // for conv2 — the situation μ-cuDNN fixes with micro-batching.
        let p = fastest_within(&p100_sxm2(), ConvOp::Forward, &conv2(), 64 * MIB).unwrap();
        assert!(
            matches!(
                p.algo,
                ConvAlgo::Gemm | ConvAlgo::ImplicitPrecompGemm | ConvAlgo::ImplicitGemm
            ),
            "got {}",
            p.algo
        );
        // But a micro-batch of 32 unlocks FFT within the same limit.
        let m = fastest_within(
            &p100_sxm2(),
            ConvOp::Forward,
            &conv2().with_batch(32),
            64 * MIB,
        )
        .unwrap();
        assert!(
            matches!(m.algo, ConvAlgo::Fft | ConvAlgo::FftTiling),
            "got {}",
            m.algo
        );
    }

    #[test]
    fn per_sample_cost_favors_micro_batched_fft_under_64mib() {
        // The WR DP can only choose 8×FFT@32 over 1×GEMM@256 if the total
        // modeled time is lower. This is the heart of Fig. 9.
        let d = p100_sxm2();
        let undivided = fastest_within(&d, ConvOp::Forward, &conv2(), 64 * MIB).unwrap();
        let micro = fastest_within(&d, ConvOp::Forward, &conv2().with_batch(32), 64 * MIB).unwrap();
        assert!(
            8.0 * micro.time_us < undivided.time_us,
            "8×{} ({}) must beat {} ({})",
            micro.algo,
            8.0 * micro.time_us,
            undivided.algo,
            undivided.time_us
        );
    }

    #[test]
    fn large_limit_matches_unconstrained_best() {
        let d = p100_sxm2();
        let best = enumerate(&d, ConvOp::Forward, &conv2())[0];
        let roomy = fastest_within(&d, ConvOp::Forward, &conv2(), 512 * MIB).unwrap();
        assert_eq!(best.algo, roomy.algo);
    }
}
