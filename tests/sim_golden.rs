//! Golden digests of every deterministic serving-simulator log.
//!
//! Each lane `serve_bench --reopt --ingress --fleet` runs (at full and
//! `--smoke` sizes), and each configuration the simulators' own unit tests
//! run, is pinned as `(line count, FNV-1a-64 over every log line plus
//! '\n')`. The logs are pure functions of their configs, so the digests are
//! the same on every machine and in debug and release builds; any change to
//! event order, clock rules or log formatting shows up here.

use ucudnn::{
    arbitrate_fleet_budget, fleet_budget_candidates, forward_latency_table, BatchSizePolicy,
    BenchCache, FleetRouterPolicy, KernelKey, ReplicaCandidates,
};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_gpu_model::{k80, p100_sxm2, v100_sxm2, Perturbation};
use ucudnn_serve::{
    run_fleet_sim, run_ingress_sim, run_reopt_sim, run_sim, BatchPolicy, BurnConfig,
    FleetReplicaConfig, FleetSimConfig, IngressSimConfig, ReoptConfig, ReoptSimConfig,
    ReplicaFailure, SimConfig,
};
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

/// The synthetic table of the simulators' unit tests: t(m) = 480 + 20m.
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
fn serve_bench_reopt_lanes() {
    let table = p100_conv2_table();
    let lane = |reopt: Option<ReoptConfig>| ReoptSimConfig {
        seed: SEED,
        slo_us: SLO_US,
        queue_cap: 1024,
        workers: 1,
        max_batch: MAX_BATCH,
        arrival_rate_rps: 20_000.0,
        requests: 4_000,
        base_table: table.clone(),
        perturb: Perturbation::new(50_000.0, 2.0),
        reopt,
        rebench_latency_us: 5_000.0,
        burn: Some(BurnConfig {
            budget: 0.01,
            fast_us: 20_000.0,
            slow_us: 100_000.0,
            threshold: 1.0,
        }),
    };
    let lanes = vec![
        ("frozen", run_reopt_sim(&lane(None)).log),
        (
            "reopt",
            run_reopt_sim(&lane(Some(ReoptConfig::default()))).log,
        ),
    ];
    check(
        &lanes,
        &[
            ("frozen", 1_512, 0xa20a_29dd_c2ea_065d),
            ("reopt", 1_684, 0xd62c_c8bd_b19a_0675),
        ],
    );
}

#[test]
fn serve_bench_ingress_lanes() {
    let table = p100_conv2_table();
    let nominal = |requests| IngressSimConfig {
        sim: SimConfig {
            seed: SEED,
            slo_us: SLO_US,
            queue_cap: 256,
            workers: 2,
            max_batch: MAX_BATCH,
            arrival_rate_rps: 20_000.0,
            requests,
            policy: BatchPolicy::Dynamic,
            table: table.clone(),
        },
        idle_conns: 10_000,
        churn_cycles: 1_000,
        churn_rate_cps: 2_000.0,
        churn_hold_us: 5_000.0,
        max_conns: 16_384,
        kernel_buf: 4_096,
    };
    let burst = IngressSimConfig {
        sim: SimConfig {
            arrival_rate_rps: 400_000.0,
            queue_cap: 32,
            ..nominal(4_000).sim
        },
        ..nominal(4_000)
    };
    let lanes = vec![
        ("nominal", run_ingress_sim(&nominal(4_000)).log),
        ("nominal_smoke", run_ingress_sim(&nominal(2_000)).log),
        ("burst", run_ingress_sim(&burst).log),
    ];
    check(
        &lanes,
        &[
            ("nominal", 2_604, 0x0c28_479f_338e_219d),
            ("nominal_smoke", 2_294, 0x22ba_b2f9_cafa_f92a),
            ("burst", 2_377, 0x08f4_cadf_f5bb_f34d),
        ],
    );
}

#[test]
fn serve_bench_fleet_lanes() {
    let kernels = [KernelKey::new(ConvOp::Forward, &conv2())];
    let shares: [usize; 5] = [0, 64 << 20, 128 << 20, 256 << 20, 512 << 20];
    let candidates: Vec<ReplicaCandidates> =
        [("k80", k80()), ("p100", p100_sxm2()), ("v100", v100_sxm2())]
            .into_iter()
            .map(|(name, dev)| ReplicaCandidates {
                name: name.to_string(),
                candidates: fleet_budget_candidates(
                    &CudnnHandle::simulated(dev),
                    &BenchCache::new(),
                    &kernels,
                    BatchSizePolicy::PowerOfTwo,
                    MAX_BATCH,
                    &shares,
                ),
            })
            .collect();
    let plan = arbitrate_fleet_budget(&candidates, 768 << 20).expect("fleet arbitration");
    let replicas: Vec<FleetReplicaConfig> = plan
        .shares
        .iter()
        .map(|s| FleetReplicaConfig {
            name: s.replica.clone(),
            table: s.table.clone(),
            workers: 2,
            queue_cap: 2048,
        })
        .collect();
    let lane = |policy, fail| FleetSimConfig {
        seed: SEED,
        slo_us: SLO_US,
        max_batch: MAX_BATCH,
        arrival_rate_rps: 220_000.0,
        requests: 20_000,
        policy,
        replicas: replicas.clone(),
        fail,
    };
    let failure = ReplicaFailure {
        replica: 1,
        at_us: 15_000.0,
    };
    let lanes = vec![
        (
            "feasibility",
            run_fleet_sim(&lane(FleetRouterPolicy::Feasibility, None)).log,
        ),
        (
            "least_loaded",
            run_fleet_sim(&lane(FleetRouterPolicy::LeastLoaded, None)).log,
        ),
        (
            "failover",
            run_fleet_sim(&lane(FleetRouterPolicy::Feasibility, Some(failure))).log,
        ),
    ];
    check(
        &lanes,
        &[
            ("feasibility", 642, 0x8e2b_ca58_1551_e187),
            ("least_loaded", 2_762, 0x8515_6aeb_fc3f_707c),
            ("failover", 12_022, 0x5d7b_db2f_8573_e87f),
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

#[test]
fn reopt_unit_test_configs() {
    let cfg = |reopt| ReoptSimConfig {
        seed: SEED,
        slo_us: SLO_US,
        queue_cap: 256,
        workers: 1,
        max_batch: MAX_BATCH,
        arrival_rate_rps: 20_000.0,
        requests: 4_000,
        base_table: unit_table(),
        perturb: Perturbation::new(50_000.0, 2.0),
        reopt,
        rebench_latency_us: 5_000.0,
        burn: None,
    };
    let burn = Some(BurnConfig {
        budget: 0.01,
        fast_us: 20_000.0,
        slow_us: 100_000.0,
        threshold: 1.0,
    });
    let mut lanes = vec![
        ("frozen", run_reopt_sim(&cfg(None)).log),
        (
            "reopt",
            run_reopt_sim(&cfg(Some(ReoptConfig::default()))).log,
        ),
        (
            "frozen_burn",
            run_reopt_sim(&ReoptSimConfig { burn, ..cfg(None) }).log,
        ),
    ];
    for (name, seed) in [("clean_1", 1), ("clean_7", 7), ("clean_2018", 2018)] {
        let c = ReoptSimConfig {
            seed,
            perturb: Perturbation::new(f64::INFINITY, 2.0),
            burn,
            ..cfg(Some(ReoptConfig::default()))
        };
        lanes.push((name, run_reopt_sim(&c).log));
    }
    check(
        &lanes,
        &[
            ("frozen", 717, 0x5bd4_4faa_4671_a991),
            ("reopt", 2_108, 0x65ae_1f07_6d06_52f0),
            ("frozen_burn", 718, 0xd2df_76bb_2d7e_bdb1),
            ("clean_1", 246, 0xc091_f473_6520_6dea),
            ("clean_7", 253, 0xe746_5217_4cc2_9147),
            ("clean_2018", 253, 0x51f4_ebf8_357f_6259),
        ],
    );
}

#[test]
fn ingress_unit_test_configs() {
    let base = IngressSimConfig {
        sim: SimConfig {
            seed: SEED,
            slo_us: SLO_US,
            queue_cap: 256,
            workers: 2,
            max_batch: MAX_BATCH,
            arrival_rate_rps: 20_000.0,
            requests: 2_000,
            policy: BatchPolicy::Dynamic,
            table: unit_table(),
        },
        idle_conns: 10_000,
        churn_cycles: 200,
        churn_rate_cps: 2_000.0,
        churn_hold_us: 5_000.0,
        max_conns: 16_384,
        kernel_buf: 4_096,
    };
    let burst = IngressSimConfig {
        sim: SimConfig {
            arrival_rate_rps: 400_000.0,
            queue_cap: 32,
            requests: 4_000,
            ..base.sim.clone()
        },
        ..base.clone()
    };
    let tiny_buffer = IngressSimConfig {
        sim: SimConfig {
            arrival_rate_rps: 400_000.0,
            queue_cap: 16,
            ..base.sim.clone()
        },
        kernel_buf: 8,
        ..base.clone()
    };
    let conn_cap = IngressSimConfig {
        idle_conns: 100,
        max_conns: 110,
        churn_cycles: 500,
        churn_rate_cps: 100_000.0,
        ..base.clone()
    };
    let churn = IngressSimConfig {
        churn_cycles: 500,
        ..base.clone()
    };
    let no_churn = IngressSimConfig {
        churn_cycles: 0,
        ..base.clone()
    };
    let lanes = vec![
        ("nominal", run_ingress_sim(&base).log),
        ("burst", run_ingress_sim(&burst).log),
        ("tiny_buffer", run_ingress_sim(&tiny_buffer).log),
        ("conn_cap", run_ingress_sim(&conn_cap).log),
        ("churn", run_ingress_sim(&churn).log),
        ("no_churn", run_ingress_sim(&no_churn).log),
    ];
    check(
        &lanes,
        &[
            ("nominal", 714, 0x44a1_09ee_67e0_a7e6),
            ("burst", 777, 0x2219_605a_e4f8_1a90),
            ("tiny_buffer", 2_228, 0x4769_aa18_8447_9e8e),
            ("conn_cap", 834, 0x5bcf_79be_9ea9_0f0c),
            ("churn", 1_314, 0xd094_3838_f200_0ca9),
            ("no_churn", 314, 0x3cb5_ea38_dbb4_6771),
        ],
    );
}

#[test]
fn fleet_unit_test_configs() {
    let replica = |name: &str, t1: f64, per: f64| FleetReplicaConfig {
        name: name.into(),
        table: [1usize, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|m| (m, t1 + per * (m as f64 - 1.0)))
            .collect(),
        workers: 2,
        queue_cap: 256,
    };
    let hetero = |policy, rate, requests| FleetSimConfig {
        seed: SEED,
        slo_us: SLO_US,
        max_batch: MAX_BATCH,
        arrival_rate_rps: rate,
        requests,
        policy,
        replicas: vec![
            replica("k80", 500.0, 200.0),
            replica("p100", 200.0, 80.0),
            replica("v100", 120.0, 40.0),
        ],
        fail: None,
    };
    let (feas, jsq) = (
        FleetRouterPolicy::Feasibility,
        FleetRouterPolicy::LeastLoaded,
    );
    let mut lanes = Vec::new();
    for (name, policy) in [("feasibility", feas), ("least_loaded", jsq)] {
        for (rate, requests) in [
            (20_000.0, 4_000),
            (60_000.0, 3_000),
            (80_000.0, 4_000),
            (100_000.0, 6_000),
            (120_000.0, 6_000),
            (250_000.0, 4_000),
        ] {
            lanes.push((name, run_fleet_sim(&hetero(policy, rate, requests)).log));
        }
        let failure = Some(ReplicaFailure {
            replica: 2,
            at_us: 15_000.0,
        });
        let failed = FleetSimConfig {
            fail: failure,
            ..hetero(policy, 120_000.0, 5_000)
        };
        lanes.push((name, run_fleet_sim(&failed).log));
    }
    let mid_burst_failure = FleetSimConfig {
        fail: Some(ReplicaFailure {
            replica: 1,
            at_us: 10_000.0,
        }),
        ..hetero(feas, 200_000.0, 5_000)
    };
    lanes.push(("mid_burst_failure", run_fleet_sim(&mid_burst_failure).log));
    check(
        &lanes,
        &[
            ("feasibility", 1_935, 0xf999_bc99_f2e8_9fd5),
            ("feasibility", 551, 0xa182_a842_74d5_b37f),
            ("feasibility", 213, 0x5014_4632_20e9_ed3f),
            ("feasibility", 789, 0x0113_addf_7bd4_585a),
            ("feasibility", 1_555, 0xb840_8df1_c495_7561),
            ("feasibility", 2_093, 0xef0e_485b_6e73_dba6),
            ("feasibility", 2_636, 0xe6c8_fd28_3605_f135),
            ("least_loaded", 1_956, 0x93fb_6674_1e49_9ba2),
            ("least_loaded", 539, 0x5d6d_8145_f3d1_e42f),
            ("least_loaded", 223, 0xfde4_3ce5_f520_7073),
            ("least_loaded", 962, 0xbe30_0a03_e307_f255),
            ("least_loaded", 1_641, 0xbd3f_d67c_0866_c137),
            ("least_loaded", 2_103, 0x06ed_618a_ae65_0c11),
            ("least_loaded", 2_646, 0xc370_6468_2fc0_4ef7),
            ("mid_burst_failure", 3_046, 0xe392_b35c_6150_a103),
        ],
    );
}
