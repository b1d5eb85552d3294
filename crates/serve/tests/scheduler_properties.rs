//! Property tests for the serving scheduler and its deterministic
//! simulation: SLO safety, policy conformance, and bit-reproducibility
//! across randomized latency tables and load shapes.

use proptest::prelude::*;
use ucudnn::BatchSizePolicy;
use ucudnn_serve::{poisson_arrivals, run_sim, BatchPolicy, SimConfig};

/// A latency table over `policy`'s candidate sizes with launch-overhead
/// economics: `t(m) = overhead + per_sample * m`, plus a deterministic
/// per-entry wobble so algorithm-switch-style non-monotonicity shows up.
fn table_for(
    policy: BatchSizePolicy,
    max_batch: usize,
    overhead: f64,
    per_sample: f64,
    wobble_seed: u64,
) -> Vec<(usize, f64)> {
    let mut rng = proptest::TestRng::new(wobble_seed.max(1));
    policy
        .candidate_sizes(max_batch)
        .into_iter()
        .map(|m| {
            let wobble = 1.0 + 0.2 * rng.next_f64();
            (m, (overhead + per_sample * m as f64) * wobble)
        })
        .collect()
}

fn policies() -> impl Strategy<Value = BatchSizePolicy> {
    prop_oneof![
        Just(BatchSizePolicy::All),
        Just(BatchSizePolicy::PowerOfTwo),
        Just(BatchSizePolicy::Undivided),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SLO-safety invariant of the tentpole: whatever the load, the
    /// dynamic scheduler never lets an *admitted* request finish past its
    /// deadline — overload turns into sheds, not violations — and every
    /// offered request is accounted for exactly once. And causality: no
    /// batch fires before its oldest request has arrived.
    #[test]
    fn dynamic_never_violates_the_slo(
        seed in 1u64..1_000_000,
        overhead in 50.0f64..400.0,
        per_sample in 2.0f64..40.0,
        slo_us in 2_000.0f64..50_000.0,
        rate in 500.0f64..200_000.0,
        workers in 1usize..4,
        queue_cap in 8usize..128,
        requests in 50usize..250,
    ) {
        let max_batch = 16;
        let table = table_for(BatchSizePolicy::PowerOfTwo, max_batch, overhead, per_sample, seed);
        let cfg = SimConfig {
            seed, slo_us, queue_cap, workers, max_batch,
            arrival_rate_rps: rate, requests, policy: BatchPolicy::Dynamic, table,
        };
        let out = run_sim(&cfg);
        prop_assert_eq!(out.violations, 0);
        prop_assert_eq!(out.completed + out.shed.total(), requests as u64);
        // Compared at the log's resolution: rounding to 3 decimals is
        // monotone, so a fire at or after the arrival never prints before it.
        let arrivals = poisson_arrivals(seed, requests, rate);
        for line in out.log.iter().filter(|l| l.starts_with("fire ")) {
            let field = |key: &str| {
                line.split_whitespace()
                    .find_map(|f| f.strip_prefix(key))
                    .expect("fire lines carry t= and ids=")
            };
            let t: f64 = field("t=").parse().unwrap();
            let first: usize = field("ids=").split("..").next().unwrap().parse().unwrap();
            let arrived: f64 = format!("{:.3}", arrivals[first]).parse().unwrap();
            prop_assert!(t >= arrived, "{} fires before id {} arrives at {}", line, first, arrived);
        }
    }

    /// Policy conformance: every fired micro-batch size is a candidate of
    /// the batch-size policy that built the table, and no coalesced batch
    /// exceeds `UCUDNN_SERVE_MAX_BATCH`.
    #[test]
    fn batches_respect_the_policy_and_the_cap(
        seed in 1u64..1_000_000,
        policy in policies(),
        max_batch in 2usize..32,
        rate in 1_000.0f64..100_000.0,
    ) {
        let table = table_for(policy, max_batch, 100.0, 10.0, seed);
        let candidates = policy.candidate_sizes(max_batch);
        let cfg = SimConfig {
            seed, slo_us: 30_000.0, queue_cap: 64, workers: 2, max_batch,
            arrival_rate_rps: rate, requests: 120, policy: BatchPolicy::Dynamic, table,
        };
        let out = run_sim(&cfg);
        for &b in &out.batch_sizes {
            prop_assert!(b <= max_batch, "batch {} exceeds cap {}", b, max_batch);
        }
        // Fired compositions appear in the log as micros=a+b+c; every part
        // must be a policy candidate.
        for line in out.log.iter().filter(|l| l.starts_with("fire")) {
            let micros = line
                .split("micros=")
                .nth(1)
                .and_then(|r| r.split_whitespace().next())
                .expect("fire lines carry micros");
            for part in micros.split('+') {
                let m: usize = part.parse().expect("numeric micro size");
                prop_assert!(
                    candidates.contains(&m),
                    "micro {} not a candidate of {:?}", m, candidates
                );
            }
        }
    }

    /// Reproducibility: the same seed and worker count give byte-identical
    /// batch compositions and shed decisions; a different seed diverges
    /// (so the log actually reflects the load, not a constant).
    #[test]
    fn same_seed_same_workers_is_byte_identical(
        seed in 1u64..1_000_000,
        workers in 1usize..4,
        rate in 2_000.0f64..80_000.0,
    ) {
        let max_batch = 16;
        let table = table_for(BatchSizePolicy::PowerOfTwo, max_batch, 150.0, 8.0, seed);
        let cfg = SimConfig {
            seed, slo_us: 15_000.0, queue_cap: 64, workers, max_batch,
            arrival_rate_rps: rate, requests: 150, policy: BatchPolicy::Dynamic, table,
        };
        let a = run_sim(&cfg);
        let b = run_sim(&cfg);
        prop_assert_eq!(&a.log, &b.log);
        prop_assert_eq!(&a.batch_sizes, &b.batch_sizes);
        prop_assert_eq!(a.shed, b.shed);
        let c = run_sim(&SimConfig { seed: seed + 1, ..cfg.clone() });
        prop_assert!(a.log != c.log, "different seed must produce a different load");
    }

    /// Overload behaviour: drive the queue far past capacity; the dynamic
    /// policy must shed (backpressure working) while still never violating
    /// the SLO for anything it chose to serve.
    #[test]
    fn overload_sheds_instead_of_violating(
        seed in 1u64..1_000_000,
        queue_cap in 4usize..32,
    ) {
        let max_batch = 8;
        let table = table_for(BatchSizePolicy::All, max_batch, 300.0, 30.0, seed);
        let cfg = SimConfig {
            seed, slo_us: 5_000.0, queue_cap, workers: 1, max_batch,
            arrival_rate_rps: 500_000.0, requests: 400, policy: BatchPolicy::Dynamic, table,
        };
        let out = run_sim(&cfg);
        prop_assert!(out.shed.total() > 0, "this load must overwhelm one worker");
        prop_assert_eq!(out.violations, 0);
        prop_assert_eq!(out.completed + out.shed.total(), 400);
    }
}
