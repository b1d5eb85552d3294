//! Golden digests of every deterministic serving-simulator log.
//!
//! Each lane `serve_bench` runs (at full and `--smoke` sizes), and each
//! configuration the simulator's own unit tests run, is pinned as `(line
//! count, FNV-1a-64 over every log line plus '\n')`. The logs are pure functions of their configs, so the digests are
//! the same on every machine and in debug and release builds; any change to
//! event order, clock rules or log formatting shows up here.

use ucudnn::{forward_latency_table, BatchSizePolicy, BenchCache, KernelKey};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_serve::{run_sim, BatchPolicy, SimConfig};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

const SEED: u64 = 2018;
const SLO_US: f64 = 20_000.0;
const MAX_BATCH: usize = 32;

/// FNV-1a-64 over each line followed by `'\n'`.
fn digest(log: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in log {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Compare every `(name, log)` against its pinned `(lines, digest)`,
/// reporting all mismatches at once.
fn check(lanes: &[(&str, Vec<String>)], golden: &[(&str, usize, u64)]) {
    assert_eq!(lanes.len(), golden.len(), "one golden entry per lane");
    let mut bad = Vec::new();
    for ((name, log), &(want_name, lines, hash)) in lanes.iter().zip(golden) {
        assert_eq!(*name, want_name, "lanes and goldens are listed in order");
        let got = (log.len(), digest(log));
        if got != (lines, hash) {
            bad.push(format!(
                "{name}: got ({}, {:#018x}), pinned ({lines}, {hash:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(bad.is_empty(), "log digests changed:\n{}", bad.join("\n"));
}

/// The serving table: AlexNet conv2 forward on the simulated P100,
/// power-of-two sizes up to 32, built as `serve_bench` builds it.
fn p100_conv2_table() -> Vec<(usize, f64)> {
    let handle = CudnnHandle::simulated(p100_sxm2());
    forward_latency_table(
        &handle,
        &BenchCache::new(),
        &[KernelKey::new(ConvOp::Forward, &conv2())],
        BatchSizePolicy::PowerOfTwo,
        MAX_BATCH,
        512 << 20,
    )
}

fn conv2() -> ConvGeometry {
    ConvGeometry::with_square(
        Shape4::new(MAX_BATCH, 64, 27, 27),
        FilterShape::new(192, 64, 5, 5),
        2,
        1,
    )
}

/// The synthetic table of the simulator's unit tests: t(m) = 480 + 20m.
fn unit_table() -> Vec<(usize, f64)> {
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|m| (m, 480.0 + 20.0 * m as f64))
        .collect()
}

#[test]
fn serve_bench_policy_lanes() {
    let table = p100_conv2_table();
    let mut lanes = Vec::new();
    for requests in [4_000, 600] {
        for policy in [
            BatchPolicy::Dynamic,
            BatchPolicy::FixedOne,
            BatchPolicy::FixedMax,
        ] {
            let cfg = SimConfig {
                seed: SEED,
                slo_us: SLO_US,
                queue_cap: 256,
                workers: 2,
                max_batch: MAX_BATCH,
                arrival_rate_rps: 20_000.0,
                requests,
                policy,
                table: table.clone(),
            };
            lanes.push((policy.name(), run_sim(&cfg).log));
        }
    }
    check(
        &lanes,
        &[
            ("dynamic", 604, 0x634f_06e3_65cf_ddd5),
            ("fixed1", 4_000, 0xa016_52a9_8927_b773),
            ("fixedmax", 125, 0xb6e1_4700_d216_805d),
            ("dynamic", 92, 0x8582_f76b_4064_2457),
            ("fixed1", 600, 0x5a68_a565_9d59_64e0),
            ("fixedmax", 20, 0xa228_7d2a_cc0a_56b5),
        ],
    );
}

#[test]
fn sim_unit_test_configs() {
    let base = SimConfig {
        seed: 7,
        slo_us: SLO_US,
        queue_cap: 256,
        workers: 2,
        max_batch: MAX_BATCH,
        arrival_rate_rps: 4_000.0,
        requests: 400,
        policy: BatchPolicy::Dynamic,
        table: unit_table(),
    };
    let overload = SimConfig {
        arrival_rate_rps: 400_000.0,
        queue_cap: 64,
        requests: 2_000,
        ..base.clone()
    };
    let fixed_one = SimConfig {
        policy: BatchPolicy::FixedOne,
        ..base.clone()
    };
    let tiny_queue = SimConfig {
        policy: BatchPolicy::FixedMax,
        queue_cap: 8,
        max_batch: 8,
        arrival_rate_rps: 1_000_000.0,
        requests: 200,
        ..base.clone()
    };
    let lanes = vec![
        ("dynamic", run_sim(&base).log),
        ("overload", run_sim(&overload).log),
        ("fixed1", run_sim(&fixed_one).log),
        ("tiny_queue", run_sim(&tiny_queue).log),
    ];
    check(
        &lanes,
        &[
            ("dynamic", 195, 0xfc38_40e1_cfeb_2ff3),
            ("overload", 1_678, 0xf09e_4502_80e6_7153),
            ("fixed1", 400, 0xedd2_236b_e126_a81a),
            ("tiny_queue", 179, 0xc280_b40a_6285_6e5f),
        ],
    );
}
