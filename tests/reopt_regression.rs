//! Online re-optimization regression suite (DESIGN.md §13).
//!
//! The deterministic drift-and-recover simulation is the proof artifact
//! behind the re-optimization headline, so its behavior is pinned here at
//! the serve_bench scale: same seed ⇒ byte-identical fire/shed/drift/swap
//! log; a 2× mid-run slowdown ⇒ the detector fires within its window
//! budget, a re-benchmarked plan hot-swaps in, and the re-optimized lane
//! serves violation-free after convergence while the frozen baseline breaks
//! its deadline promises; no drift ⇒ zero false-positive detections or
//! swaps across seeds.
//!
//! The latency table is the real pipeline's — AlexNet conv2 forward,
//! benchmarked on the simulated P100 through the Pareto-front cache — not a
//! synthetic stand-in, so the regression also covers the bench→plan→serve
//! seam.

use ucudnn::{forward_latency_table, BatchSizePolicy, BenchCache, KernelKey};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_gpu_model::{p100_sxm2, Perturbation};
use ucudnn_serve::{run_reopt_sim, ReoptConfig, ReoptSimConfig};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

const SLO_US: f64 = 20_000.0;
const MAX_BATCH: usize = 32;
const PERTURB_AT_US: f64 = 50_000.0;

/// The serve_bench serving table: AlexNet conv2 forward on the simulated
/// P100, power-of-two sizes up to 32.
fn p100_conv2_table() -> Vec<(usize, f64)> {
    let g = ConvGeometry::with_square(
        Shape4::new(MAX_BATCH, 64, 27, 27),
        FilterShape::new(192, 64, 5, 5),
        2,
        1,
    );
    let handle = CudnnHandle::simulated(p100_sxm2());
    let table = forward_latency_table(
        &handle,
        &BenchCache::new(),
        &[KernelKey::new(ConvOp::Forward, &g)],
        BatchSizePolicy::PowerOfTwo,
        MAX_BATCH,
        512 << 20,
    );
    assert!(
        !table.is_empty(),
        "the demo kernel must have feasible sizes"
    );
    table
}

/// The serve_bench reopt experiment config: one worker at 20k rps under a
/// 20ms SLO, deep queue, 2× slowdown at t=50ms.
fn experiment(seed: u64, reopt: Option<ReoptConfig>) -> ReoptSimConfig {
    ReoptSimConfig {
        seed,
        slo_us: SLO_US,
        queue_cap: 1024,
        workers: 1,
        max_batch: MAX_BATCH,
        arrival_rate_rps: 20_000.0,
        requests: 4_000,
        base_table: p100_conv2_table(),
        perturb: Perturbation::new(PERTURB_AT_US, 2.0),
        reopt,
        rebench_latency_us: 5_000.0,
        burn: None,
    }
}

#[test]
fn same_seed_gives_a_byte_identical_swap_and_shed_log() {
    for reopt in [None, Some(ReoptConfig::default())] {
        let cfg = experiment(2018, reopt);
        let a = run_reopt_sim(&cfg);
        let b = run_reopt_sim(&cfg);
        assert_eq!(a.log, b.log, "reopt={}: log diverged", reopt.is_some());
        assert_eq!(a.batch_sizes, b.batch_sizes);
        assert_eq!(a.shed, b.shed);
        assert_eq!(
            (
                a.violations,
                a.stats.swaps,
                a.stats.stale_detections,
                a.stats.final_version
            ),
            (
                b.violations,
                b.stats.swaps,
                b.stats.stale_detections,
                b.stats.final_version
            ),
        );
        assert_eq!(a.stats.swap_time_us, b.stats.swap_time_us);
    }
}

#[test]
fn a_2x_slowdown_is_detected_within_the_window_budget_and_reconverges() {
    let cfg = experiment(2018, Some(ReoptConfig::default()));
    let out = run_reopt_sim(&cfg);

    assert!(
        out.stats.stale_detections >= 1,
        "the drift must be detected"
    );
    let detect = out.stats.detect_time_us.expect("a detection timestamp");
    assert!(
        detect >= PERTURB_AT_US,
        "no detection before the drift exists (got t={detect})"
    );
    // Window budget: the detector needs at most one partially-pre-drift
    // window plus `consecutive` fully-drifted windows of post-drift
    // micro-batches. The slowest micro is t*(32)·2, so bound the detection
    // lag by (1 + consecutive) · window_samples · that time, with 2x slack
    // for scheduling gaps.
    let d = ReoptConfig::default();
    let worst_micro_us = 2.0
        * cfg
            .base_table
            .iter()
            .map(|&(_, t)| t)
            .fold(0.0f64, f64::max);
    let budget = 2.0 * (1 + d.consecutive) as f64 * d.window_samples as f64 * worst_micro_us;
    assert!(
        detect - PERTURB_AT_US <= budget,
        "detection lag {:.0}us exceeds the window budget {budget:.0}us",
        detect - PERTURB_AT_US
    );

    // The re-benchmark lands after its modeled latency and re-converges.
    assert!(out.stats.swaps >= 1, "a refreshed plan must hot-swap in");
    let swap = out.stats.swap_time_us.expect("a swap timestamp");
    assert!(swap >= detect + cfg.rebench_latency_us);
    assert_eq!(out.stats.final_version, 1 + out.stats.swaps);
    assert_eq!(
        out.stats.violations_post_swap, 0,
        "after re-convergence the plan and the device agree — violations must stop"
    );
    assert_eq!(out.completed + out.shed.total(), cfg.requests as u64);
}

#[test]
fn the_frozen_baseline_sheds_and_violates_where_reopt_stays_clean() {
    let frozen = run_reopt_sim(&experiment(2018, None));
    let reopt = run_reopt_sim(&experiment(2018, Some(ReoptConfig::default())));

    // Frozen: never notices the device halved; keeps promising 20ms
    // deadlines the device cannot meet.
    assert_eq!(frozen.stats.swaps, 0);
    assert_eq!(frozen.stats.stale_detections, 0);
    assert_eq!(frozen.stats.final_version, 1);
    assert!(frozen.shed.total() > 0, "overload must shed");
    assert!(
        frozen.violations > 0,
        "the stale plan must break deadline promises"
    );

    // Re-optimized: same load, same drift — zero violations after the swap,
    // and strictly fewer violations than the frozen lane overall.
    assert_eq!(reopt.stats.violations_post_swap, 0);
    assert!(
        reopt.violations < frozen.violations,
        "re-optimization must reduce violations ({} vs frozen {})",
        reopt.violations,
        frozen.violations
    );
    for out in [&frozen, &reopt] {
        assert_eq!(out.completed + out.shed.total(), 4_000);
    }
}

#[test]
fn no_drift_means_zero_false_positive_swaps_across_seeds() {
    for seed in [1u64, 7, 2018] {
        let mut cfg = experiment(seed, Some(ReoptConfig::default()));
        cfg.perturb = Perturbation::new(f64::INFINITY, 2.0); // never fires
        let out = run_reopt_sim(&cfg);
        assert_eq!(
            out.stats.stale_detections, 0,
            "seed {seed}: detector false-positived on an on-table device"
        );
        assert_eq!(out.stats.swaps, 0, "seed {seed}: spurious swap");
        assert_eq!(out.violations, 0, "seed {seed}: healthy lane violated");
        assert_eq!(out.stats.final_version, 1);
        // And with the detector observing but never firing, the reopt lane
        // is byte-identical to the frozen lane on the same seed.
        let mut frozen_cfg = experiment(seed, None);
        frozen_cfg.perturb = Perturbation::new(f64::INFINITY, 2.0);
        let frozen = run_reopt_sim(&frozen_cfg);
        assert_eq!(
            out.log, frozen.log,
            "seed {seed}: observation perturbed serving"
        );
    }
}
