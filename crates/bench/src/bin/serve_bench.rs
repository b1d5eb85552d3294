//! Serving benchmark: SLO-aware dynamic micro-batching against the two
//! fixed baselines (DESIGN.md §12).
//!
//! The latency table `t*(m)` comes from the real pipeline — the AlexNet
//! conv2 forward kernel's benchmarked Pareto front on the simulated
//! P100-SXM2 via [`ucudnn::forward_latency_table`] — and all three policies
//! replay the *same* seeded Poisson load through the deterministic
//! discrete-event simulator ([`ucudnn_serve::run_sim`]):
//!
//! * **dynamic** — the tentpole scheduler: fire/wait/shed from
//!   [`ucudnn::plan_batch`] under the per-request deadline;
//! * **fixed1** — every request alone, arrival order (no coalescing);
//! * **fixedmax** — classic static batching: wait for a full batch.
//!
//! Results go to stdout and `BENCH_serve.json` (override with `--out`).
//! The committed JSON backs README's Serving section: dynamic ≥ 1.3× the
//! fixed-batch-1 throughput at equal SLO, zero violations among admitted
//! requests, and a byte-identical decision log across two runs (asserted
//! here, recorded as `"deterministic"`). `--smoke` shrinks the offered load
//! for CI; `--tcp-smoke` additionally drives one request through the real
//! threaded server's TCP line-protocol front-end on loopback.
//!
//! `--reopt` adds the online re-optimization experiment (DESIGN.md §13): a
//! 2× device slowdown at t=50ms on a single worker at 20k rps / 20ms SLO,
//! frozen-plan baseline vs. the drift-detecting re-optimizer. The committed
//! `reopt` section backs the headline claim: the frozen plan sheds, the
//! re-optimizer detects, hot-swaps, and finishes with zero SLO violations
//! after re-convergence — byte-identically across runs. Both lanes also run
//! a multi-window SLO burn-rate monitor (DESIGN.md §14): the frozen lane's
//! sustained post-drift burn must fire an `slo_alert` at a replay-stable
//! virtual timestamp.
//!
//! `--ingress` adds the C10k ingress experiment (DESIGN.md §15), a
//! `connections` axis on top of the request axis. The committed `ingress`
//! section comes from the deterministic churn + fan-in simulator
//! ([`ucudnn_serve::run_ingress_sim`]): a nominal lane (10k idle
//! connections + 20k rps through the dynamic policy — zero pauses, zero
//! sheds, zero violations) and a burst lane (20× overload against a shallow
//! queue — admission pauses absorb it, admitted requests still meet the
//! SLO), byte-identical across replays. The same flag also drives the
//! *live* gate on real sockets: the epoll reactor must hold ≥5k idle
//! loopback connections (fd-budget permitting; the attempt raises
//! `RLIMIT_NOFILE` first) while pipelined traffic completes with zero sheds
//! and zero SLO violations. Live numbers are printed and asserted, not
//! committed — the JSON stays reproducible byte-for-byte.
//!
//! `--telemetry-smoke` exercises the live telemetry plane end to end: a
//! traced real server behind the TCP front-end, ~12 requests, and two
//! `STATS` scrapes whose exposition is asserted (required series present,
//! counters monotone) and written under the results directory together with
//! the JSONL trace. `--metrics-dump <path>` additionally writes the final
//! exposition to `<path>`.

use std::sync::Arc;
use ucudnn::json::{num, obj, Value};
use ucudnn::{
    arbitrate_fleet_budget, fleet_budget_candidates, forward_latency_table, BatchSizePolicy,
    BenchCache, FleetRouterPolicy, IngressOptions, KernelKey, Registry, ReplicaCandidates,
    ServeOptions, TraceConfig,
};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_gpu_model::{k80, p100_sxm2, v100_sxm2, Perturbation};
use ucudnn_serve::{
    run_fleet_sim, run_ingress_sim, run_reopt_sim, run_sim, sys, BatchPolicy, BatchRunner as _,
    BurnConfig, FleetMetrics, FleetOutcome, FleetReplicaConfig, FleetSimConfig, IngressOutcome,
    IngressSimConfig, RealModelRunner, ReoptConfig, ReoptOutcome, ReoptSimConfig, ReplicaFailure,
    Server, ShedCounts, SimConfig, SimOutcome, TcpFrontend,
};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

/// Load-generator seed: the only entropy source; fixed so the committed
/// JSON is reproducible byte-for-byte.
const SEED: u64 = 2018;
/// Per-request deadline budget, microseconds.
const SLO_US: f64 = 20_000.0;
/// Offered load, requests per second. ~5× the fixed-batch-1 capacity of
/// two workers on this table (t*(1) ≈ 534 µs ⇒ ~3.7k rps), comfortably
/// inside the dynamic policy's batched capacity (~60k rps) — the regime
/// where batching economics, not raw compute, decide throughput.
const RATE_RPS: f64 = 20_000.0;
const WORKERS: usize = 2;
const QUEUE_CAP: usize = 256;
const MAX_BATCH: usize = 32;

/// Run one lane twice: the reproducibility gate every lane passes is a
/// byte-identical decision log on a same-seed replay.
fn replayed<C, S>(run: fn(&C) -> SimOutcome<S>, cfg: &C, lane: &str) -> SimOutcome<S> {
    let out = run(cfg);
    assert_eq!(out.log, run(cfg).log, "{lane} replay diverged");
    out
}

/// A JSON number, or `null` when absent.
fn opt(v: Option<f64>) -> Value {
    v.map(num).unwrap_or(Value::Null)
}

/// The full shed ladder of one lane.
fn shed_ladder(shed: &ShedCounts) -> Value {
    obj([
        ("queue_full", num(shed.queue_full as f64)),
        ("deadline_infeasible", num(shed.deadline_infeasible as f64)),
        ("exec_failed", num(shed.exec_failed as f64)),
        ("draining", num(shed.draining as f64)),
        ("total", num(shed.total() as f64)),
    ])
}

fn policy_row(out: &SimOutcome, policy: BatchPolicy) -> Value {
    let pct = out.latencies.cumulative();
    obj([
        ("name", Value::Str(policy.name().to_string())),
        ("completed", num(out.completed as f64)),
        ("shed", shed_ladder(&out.shed)),
        ("violations", num(out.violations as f64)),
        ("throughput_rps", num(out.throughput_rps())),
        ("mean_batch", num(out.mean_batch())),
        ("p50_us", opt(pct.p50_us)),
        ("p95_us", opt(pct.p95_us)),
        ("p99_us", opt(pct.p99_us)),
        ("mean_us", opt((out.completed > 0).then(|| pct.mean()))),
    ])
}

fn reopt_lane_row(out: &ReoptOutcome) -> Value {
    let pct = out.latencies.cumulative();
    obj([
        ("completed", num(out.completed as f64)),
        (
            "shed",
            obj([
                ("queue_full", num(out.shed.queue_full as f64)),
                (
                    "deadline_infeasible",
                    num(out.shed.deadline_infeasible as f64),
                ),
                ("total", num(out.shed.total() as f64)),
            ]),
        ),
        ("violations", num(out.violations as f64)),
        (
            "violations_post_swap",
            num(out.stats.violations_post_swap as f64),
        ),
        ("stale_detections", num(out.stats.stale_detections as f64)),
        ("plan_swaps", num(out.stats.swaps as f64)),
        ("final_plan_version", num(out.stats.final_version as f64)),
        ("detect_time_us", opt(out.stats.detect_time_us)),
        ("swap_time_us", opt(out.stats.swap_time_us)),
        ("slo_alerts", num(out.stats.slo_alerts as f64)),
        ("first_alert_us", opt(out.stats.first_alert_us)),
        ("p50_us", opt(pct.p50_us)),
        ("p99_us", opt(pct.p99_us)),
    ])
}

/// The online re-optimization experiment: one worker, a 2× mid-run device
/// slowdown, frozen plan vs. drift-detecting re-optimizer on the same seeded
/// load. Pure virtual-clock computation, so the full 4000-request run is
/// cheap enough to keep even under `--smoke`.
fn reopt_experiment(table: &[(usize, f64)]) -> Value {
    const REOPT_WORKERS: usize = 1;
    const REOPT_REQUESTS: usize = 4_000;
    const PERTURB_AT_US: f64 = 50_000.0;
    const PERTURB_FACTOR: f64 = 2.0;
    const REBENCH_LATENCY_US: f64 = 5_000.0;
    // Deep queue: admission control must not mask the stale plan. With a
    // shallow queue the wait is capped below the violation threshold and the
    // damage shows only as queue_full sheds; at depth 1024 the frozen plan
    // keeps *promising* deadlines the 2x-slower device cannot meet (fired
    // batches land past the SLO), while the re-optimized plan knows the true
    // t*(m) and converts those doomed fires into honest deadline sheds.
    const REOPT_QUEUE_CAP: usize = 1024;
    // Burn monitor sized for the sim's ~200 ms horizon: 20 ms fast window,
    // 100 ms slow window, 1% budget. Both lanes watch through the same
    // config — the monitor is pure observation, so serving decisions (and
    // the frozen-vs-reopt comparison) are untouched.
    const BURN_BUDGET: f64 = 0.01;
    const BURN_FAST_US: f64 = 20_000.0;
    const BURN_SLOW_US: f64 = 100_000.0;
    let burn = BurnConfig {
        budget: BURN_BUDGET,
        fast_us: BURN_FAST_US,
        slow_us: BURN_SLOW_US,
        threshold: 1.0,
    };
    let lane = |reopt: Option<ReoptConfig>| ReoptSimConfig {
        seed: SEED,
        slo_us: SLO_US,
        queue_cap: REOPT_QUEUE_CAP,
        workers: REOPT_WORKERS,
        max_batch: MAX_BATCH,
        arrival_rate_rps: RATE_RPS,
        requests: REOPT_REQUESTS,
        base_table: table.to_vec(),
        perturb: Perturbation::new(PERTURB_AT_US, PERTURB_FACTOR),
        reopt,
        rebench_latency_us: REBENCH_LATENCY_US,
        burn: Some(burn),
    };
    let frozen = replayed(run_reopt_sim, &lane(None), "frozen");
    let reopt = replayed(run_reopt_sim, &lane(Some(ReoptConfig::default())), "reopt");

    println!("\nre-optimization under a {PERTURB_FACTOR}x slowdown at t={PERTURB_AT_US}us:");
    println!(
        "  frozen: completed={} shed={} violations={}",
        frozen.completed,
        frozen.shed.total(),
        frozen.violations
    );
    println!(
        "  reopt:  completed={} shed={} violations={} (post-swap: {}) \
         detections={} swaps={} detect_t={:.0}us swap_t={:.0}us",
        reopt.completed,
        reopt.shed.total(),
        reopt.violations,
        reopt.stats.violations_post_swap,
        reopt.stats.stale_detections,
        reopt.stats.swaps,
        reopt.stats.detect_time_us.unwrap_or(f64::NAN),
        reopt.stats.swap_time_us.unwrap_or(f64::NAN),
    );
    println!(
        "  burn:   frozen alerts={} first_t={:.0}us | reopt alerts={} first_t={:.0}us",
        frozen.stats.slo_alerts,
        frozen.stats.first_alert_us.unwrap_or(f64::NAN),
        reopt.stats.slo_alerts,
        reopt.stats.first_alert_us.unwrap_or(f64::NAN),
    );

    // The headline gates.
    assert!(
        frozen.shed.total() > 0,
        "the frozen plan must shed under the post-drift overload"
    );
    assert!(
        frozen.violations > 0,
        "the stale plan must break deadline promises it can no longer keep"
    );
    assert_eq!(frozen.stats.swaps, 0, "the frozen lane must never swap");
    assert!(
        reopt.stats.stale_detections >= 1,
        "the detector must flag the 2x drift"
    );
    assert!(reopt.stats.swaps >= 1, "a re-benchmarked plan must land");
    assert_eq!(
        reopt.stats.violations_post_swap, 0,
        "after re-convergence the re-optimized lane must serve violation-free"
    );
    // The observability gate: the sustained post-drift burn on the frozen
    // plan must page, after the drift exists, at a replay-stable timestamp
    // (the log byte-identity above already pins the exact microsecond).
    assert!(
        frozen.stats.slo_alerts >= 1,
        "the frozen lane's sustained burn must fire an slo_alert"
    );
    let first_alert = frozen
        .stats
        .first_alert_us
        .expect("an alert implies a first-alert timestamp");
    assert!(
        first_alert >= PERTURB_AT_US,
        "no alert may fire before the drift exists (got t={first_alert:.0}us)"
    );
    for out in [&frozen, &reopt] {
        assert_eq!(
            out.completed + out.shed.total(),
            REOPT_REQUESTS as u64,
            "ticket accounting must balance"
        );
    }

    obj([
        ("workers", num(REOPT_WORKERS as f64)),
        ("requests", num(REOPT_REQUESTS as f64)),
        ("queue_cap", num(REOPT_QUEUE_CAP as f64)),
        (
            "perturb",
            obj([
                ("at_us", num(PERTURB_AT_US)),
                ("factor", num(PERTURB_FACTOR)),
            ]),
        ),
        ("rebench_latency_us", num(REBENCH_LATENCY_US)),
        (
            "burn",
            obj([
                ("budget", num(BURN_BUDGET)),
                ("fast_us", num(BURN_FAST_US)),
                ("slow_us", num(BURN_SLOW_US)),
            ]),
        ),
        (
            "detector",
            obj([
                (
                    "window_samples",
                    num(ReoptConfig::default().window_samples as f64),
                ),
                ("p50_ratio", num(ReoptConfig::default().p50_ratio)),
                (
                    "consecutive",
                    num(f64::from(ReoptConfig::default().consecutive)),
                ),
            ]),
        ),
        ("frozen", reopt_lane_row(&frozen)),
        ("reopt", reopt_lane_row(&reopt)),
        ("deterministic", Value::Bool(true)),
    ])
}

fn ingress_lane_row(rate_rps: f64, queue_cap: usize, out: &IngressOutcome) -> Value {
    let pct = out.latencies.cumulative();
    obj([
        ("rate_rps", num(rate_rps)),
        ("queue_cap", num(queue_cap as f64)),
        ("completed", num(out.completed as f64)),
        ("shed_queue_full", num(out.shed.queue_full as f64)),
        ("shed_total", num(out.shed.total() as f64)),
        ("violations", num(out.violations as f64)),
        ("admission_pauses", num(out.stats.admission_pauses as f64)),
        ("buffered_peak", num(out.stats.buffered_peak as f64)),
        ("max_buffer_wait_us", num(out.stats.max_buffer_wait_us)),
        ("conns_opened", num(out.stats.conns_opened as f64)),
        ("conns_rejected", num(out.stats.conns_rejected as f64)),
        ("peak_conns", num(out.stats.peak_conns as f64)),
        ("throughput_rps", num(out.throughput_rps())),
        ("mean_batch", num(out.mean_batch())),
        ("p50_us", opt(pct.p50_us)),
        ("p99_us", opt(pct.p99_us)),
    ])
}

/// The C10k `connections` axis, simulated: the reactor's backpressure
/// policies (admission pause before the shed ladder, the listener cap,
/// kernel-buffer absorption) replayed on the virtual clock. Two lanes share
/// one seed: nominal fan-in (10k idle connections, 20k rps) and a 20×
/// burst against a shallow queue. `dynamic` is the dynamic policy lane.
fn ingress_experiment(dynamic: &SimConfig, smoke: bool) -> Value {
    const IDLE_CONNS: usize = 10_000;
    const CHURN_CYCLES: usize = 1_000;
    const CHURN_RATE_CPS: f64 = 2_000.0;
    const CHURN_HOLD_US: f64 = 5_000.0;
    const MAX_CONNS: usize = 16_384;
    const KERNEL_BUF: usize = 4_096;
    const BURST_RATE_RPS: f64 = 400_000.0;
    const BURST_QUEUE_CAP: usize = 32;
    let requests = if smoke { 2_000 } else { 4_000 };
    let base = IngressSimConfig {
        sim: SimConfig {
            requests,
            ..dynamic.clone()
        },
        idle_conns: IDLE_CONNS,
        churn_cycles: CHURN_CYCLES,
        churn_rate_cps: CHURN_RATE_CPS,
        churn_hold_us: CHURN_HOLD_US,
        max_conns: MAX_CONNS,
        kernel_buf: KERNEL_BUF,
    };
    let burst_cfg = IngressSimConfig {
        sim: SimConfig {
            arrival_rate_rps: BURST_RATE_RPS,
            queue_cap: BURST_QUEUE_CAP,
            requests: 4_000,
            ..base.sim.clone()
        },
        ..base.clone()
    };
    let nominal = replayed(run_ingress_sim, &base, "nominal ingress");
    let burst = replayed(run_ingress_sim, &burst_cfg, "burst ingress");

    println!("\ningress (connections axis, {IDLE_CONNS} idle + {CHURN_CYCLES} churn):");
    println!(
        "  nominal {:>7.0} rps: completed={} pauses={} shed={} violations={} peak_conns={}",
        RATE_RPS,
        nominal.completed,
        nominal.stats.admission_pauses,
        nominal.shed.total(),
        nominal.violations,
        nominal.stats.peak_conns,
    );
    println!(
        "  burst   {:>7.0} rps: completed={} pauses={} buffered_peak={} shed={} violations={}",
        BURST_RATE_RPS,
        burst.completed,
        burst.stats.admission_pauses,
        burst.stats.buffered_peak,
        burst.shed.total(),
        burst.violations,
    );

    // The headline gates. Nominal: the fan-in must be invisible — no pause,
    // no shed-by-accident, every deadline kept, p99 inside the SLO.
    assert_eq!(
        nominal.stats.admission_pauses, 0,
        "nominal load must not pause"
    );
    assert_eq!(nominal.shed.total(), 0, "nominal load must not shed");
    assert_eq!(nominal.violations, 0, "nominal load must not violate");
    assert_eq!(nominal.completed, requests as u64);
    assert!(
        nominal.stats.peak_conns >= IDLE_CONNS,
        "the C10k floor must hold"
    );
    let p99 = nominal
        .latencies
        .cumulative()
        .p99_us
        .expect("completions imply percentiles");
    assert!(
        p99 <= SLO_US,
        "nominal ingress p99 must sit inside the {SLO_US}us SLO, got {p99:.1}us"
    );
    // Burst: backpressure engages before the shed ladder and admitted
    // requests still meet their deadlines.
    assert!(
        burst.stats.admission_pauses > 0,
        "the burst must park admission"
    );
    assert_eq!(
        burst.violations, 0,
        "pauses delay admission; they never break the deadline contract"
    );
    assert_eq!(
        burst.completed + burst.shed.total(),
        4_000,
        "every offered request is accounted for"
    );

    obj([
        ("slo_us", num(SLO_US)),
        ("workers", num(WORKERS as f64)),
        ("max_batch", num(MAX_BATCH as f64)),
        ("requests", num(requests as f64)),
        ("idle_conns", num(IDLE_CONNS as f64)),
        ("churn_cycles", num(CHURN_CYCLES as f64)),
        ("churn_rate_cps", num(CHURN_RATE_CPS)),
        ("churn_hold_us", num(CHURN_HOLD_US)),
        ("max_conns", num(MAX_CONNS as f64)),
        ("kernel_buf", num(KERNEL_BUF as f64)),
        ("nominal", ingress_lane_row(RATE_RPS, QUEUE_CAP, &nominal)),
        (
            "burst",
            ingress_lane_row(BURST_RATE_RPS, BURST_QUEUE_CAP, &burst),
        ),
        ("deterministic", Value::Bool(true)),
    ])
}

/// The live half of the `--ingress` gate: real sockets against the epoll
/// reactor. Holds as many idle loopback connections as the fd budget
/// allows (target 10k, hard floor 5k) while pipelined traffic on a few
/// active connections completes with zero sheds and zero SLO violations.
/// Printed and asserted, never committed: wall-clock numbers belong to the
/// machine, the committed JSON stays deterministic.
fn ingress_live(smoke: bool) {
    use std::io::{BufRead, BufReader, Write};
    const ACTIVE_CONNS: usize = 4;
    let target_idle = if smoke { 5_000 } else { 10_000 };
    let active_requests = if smoke { 400 } else { 1_000 };

    let limit = sys::raise_nofile_limit().unwrap_or(1_024);
    // Each held connection costs two fds in-process (client + server end);
    // keep headroom for the listener, wakers, and whatever the harness has
    // open.
    let budget = (limit.saturating_sub(512) / 2) as usize;
    let idle = target_idle.min(budget);
    if idle < target_idle {
        println!(
            "[ingress-live] fd limit {limit} clamps idle connections: {target_idle} -> {idle}"
        );
    }
    assert!(
        idle >= 5_000,
        "the C10k gate needs >=5k held connections; fd limit {limit} allows only {idle}"
    );

    let runner = Arc::new(RealModelRunner::new(CudnnHandle::real_cpu(), 5, 8));
    let opts = ServeOptions {
        slo_us: 2_000_000.0,
        queue_cap: 256,
        workers: 2,
        max_batch: 8,
    };
    let server = Arc::new(Server::start(runner.clone(), &opts));
    let io = IngressOptions {
        max_conns: idle + 64,
        loops: 2,
        backend: None,
    };
    let tcp = TcpFrontend::start_with(Arc::clone(&server), "127.0.0.1:0", &io).expect("bind");
    let addr = tcp.local_addr();
    let backend = if sys::epoll_supported() {
        "epoll"
    } else {
        "poll"
    };

    let mut held = Vec::with_capacity(idle);
    for i in 0..idle {
        held.push(std::net::TcpStream::connect(addr).expect("idle connect"));
        if (i + 1) % 2_500 == 0 {
            println!("[ingress-live] holding {} connections...", i + 1);
        }
    }

    // Active traffic rides on top of the idle floor: pipelined frames on a
    // few extra connections, answered in order.
    let input = (0..runner.sample_len())
        .map(|j| format!("{}", (j % 7) as f32 * 0.1))
        .collect::<Vec<_>>()
        .join(",");
    let per_conn = active_requests / ACTIVE_CONNS;
    for c in 0..ACTIVE_CONNS {
        let mut s = std::net::TcpStream::connect(addr).expect("active connect");
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut frame = String::new();
        for i in 0..per_conn {
            frame.push_str(&format!(
                "{{\"id\":{},\"input\":[{input}]}}\n",
                c * per_conn + i
            ));
        }
        s.write_all(frame.as_bytes()).expect("send pipelined frame");
        for i in 0..per_conn {
            let mut line = String::new();
            r.read_line(&mut line).expect("read response");
            let v = Value::parse(line.trim()).expect("response must be valid JSON");
            assert_eq!(
                v.get("ok"),
                Some(&Value::Bool(true)),
                "active request {i} on conn {c} must succeed under the idle floor: {line}"
            );
        }
    }

    // The ledger and the SLO gates, from the server's own instruments.
    let active_now = tcp.active_connections();
    assert!(
        active_now >= idle,
        "the reactor must still hold the idle floor: {active_now} < {idle}"
    );
    let m = server.metrics();
    assert_eq!(m.shed_total(), 0, "nominal live load must not shed");
    assert_eq!(m.violations.get(), 0, "admitted requests must meet the SLO");
    assert!(m.completed.get() >= (per_conn * ACTIVE_CONNS) as u64);
    let p99 = m
        .latency
        .cumulative()
        .p99_us
        .expect("completions imply a p99");
    assert!(
        p99 <= opts.slo_us,
        "live p99 {p99:.0}us must sit inside the {}us SLO",
        opts.slo_us
    );
    println!(
        "[ingress-live] ok ({backend}): held {active_now} conns, {} active requests, \
         p99={p99:.0}us, sheds=0, violations=0",
        per_conn * ACTIVE_CONNS
    );

    drop(held);
    tcp.stop();
    server.drain();
}

/// One round-trip through the real threaded server's TCP front-end on
/// loopback — the CI smoke for the non-simulated path.
fn tcp_smoke() {
    use std::io::{BufRead, BufReader, Write};
    let runner = Arc::new(RealModelRunner::new(CudnnHandle::real_cpu(), 5, 4));
    let opts = ServeOptions {
        slo_us: 2_000_000.0,
        queue_cap: 64,
        workers: 2,
        max_batch: 4,
    };
    let server = Arc::new(Server::start(runner.clone(), &opts));
    let tcp = TcpFrontend::start(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let mut stream = std::net::TcpStream::connect(tcp.local_addr()).expect("connect loopback");
    let input = (0..runner.sample_len())
        .map(|j| format!("{}", (j % 7) as f32 * 0.1))
        .collect::<Vec<_>>()
        .join(",");
    writeln!(stream, "{{\"id\":1,\"input\":[{input}]}}").expect("send request line");
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .expect("read response line");
    let v = Value::parse(line.trim()).expect("response must be valid JSON");
    assert_eq!(
        v.get("ok"),
        Some(&Value::Bool(true)),
        "loopback request must succeed: {line}"
    );
    println!("[tcp-smoke] ok: {}", line.trim());
    drop(stream);
    tcp.stop();
    server.drain();
}

/// Issue one `STATS` scrape on an open connection and collect the reply up
/// to (and including) its `# EOF` terminator.
fn scrape_stats(
    writer: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
) -> String {
    use std::io::{BufRead, Write};
    writeln!(writer, "STATS").expect("send STATS");
    let mut out = String::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read scrape line") > 0,
            "connection closed mid-scrape"
        );
        let done = line.trim() == "# EOF";
        out.push_str(&line);
        if done {
            return out;
        }
    }
}

/// The first sample-valued line for `name` in an exposition, parsed.
fn scraped_value(scrape: &str, name: &str) -> f64 {
    scrape
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse::<f64>().ok())
        })
        .unwrap_or_else(|| panic!("series {name:?} missing from scrape"))
}

/// The live-telemetry smoke: a traced real server behind the TCP front-end,
/// scraped via `STATS` before and after a burst of requests. Asserts the
/// exposition contract and that the trace reconstructs request 0's
/// admission→batch→response timeline.
fn telemetry_smoke(metrics_dump: Option<&str>) {
    use std::io::{BufReader, Write};
    const REQUESTS: usize = 12;
    let dir = ucudnn_bench::results_dir();
    let trace_path = dir.join("serve_trace.jsonl");
    let session = ucudnn::trace::session(TraceConfig {
        path: Some(trace_path.clone()),
        ..TraceConfig::default()
    });

    let runner = Arc::new(RealModelRunner::new(CudnnHandle::real_cpu(), 5, 4));
    let opts = ServeOptions {
        slo_us: 2_000_000.0,
        queue_cap: 64,
        workers: 2,
        max_batch: 4,
    };
    let server = Arc::new(Server::start(runner.clone(), &opts));
    let tcp = TcpFrontend::start(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let stream = std::net::TcpStream::connect(tcp.local_addr()).expect("connect loopback");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    let first = scrape_stats(&mut writer, &mut reader);
    let input = (0..runner.sample_len())
        .map(|j| format!("{}", (j % 7) as f32 * 0.1))
        .collect::<Vec<_>>()
        .join(",");
    for i in 0..REQUESTS {
        writeln!(writer, "{{\"id\":{i},\"input\":[{input}]}}").expect("send request");
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).expect("read response");
        let v = Value::parse(line.trim()).expect("response must be valid JSON");
        assert_eq!(
            v.get("ok"),
            Some(&Value::Bool(true)),
            "request {i} must succeed: {line}"
        );
    }
    let second = scrape_stats(&mut writer, &mut reader);
    std::fs::write(dir.join("telemetry_scrape1.txt"), &first).expect("write scrape 1");
    std::fs::write(dir.join("telemetry_scrape2.txt"), &second).expect("write scrape 2");

    // The exposition contract: the series the dashboards key on are live…
    for series in [
        "# TYPE ucudnn_serve_queue_depth gauge",
        "ucudnn_serve_shed_total{reason=\"queue_full\"}",
        "ucudnn_serve_shed_total{reason=\"deadline_infeasible\"}",
        "ucudnn_serve_shed_total{reason=\"exec_failed\"}",
        "ucudnn_serve_shed_total{reason=\"draining\"}",
        "ucudnn_serve_plan_version ",
        "ucudnn_slo_alert_active ",
        "# ALERT slo_burn ",
        "ucudnn_serve_latency_us_count ",
        "ucudnn_telemetry_dropped_total ",
    ] {
        assert!(second.contains(series), "scrape missing {series:?}");
    }
    // …and counters are monotone across scrapes, with the burst accounted.
    for name in [
        "ucudnn_serve_submitted_total ",
        "ucudnn_serve_completed_total ",
    ] {
        let (before, after) = (scraped_value(&first, name), scraped_value(&second, name));
        assert!(
            after >= before + REQUESTS as f64,
            "{name}: {before} -> {after} must cover the {REQUESTS}-request burst"
        );
    }
    assert_eq!(scraped_value(&second, "ucudnn_serve_plan_version "), 1.0);

    if let Some(path) = metrics_dump {
        if let Some(parent) = std::path::Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(parent).expect("cannot create dump directory");
        }
        std::fs::write(path, server.exposition()).expect("cannot write metrics dump");
        println!("[telemetry] wrote {path}");
    }

    drop(writer);
    drop(reader);
    tcp.stop();
    server.drain();
    let trace = session.finish();
    let timeline = ucudnn_bench::report::request_timeline(&trace, 0)
        .expect("request 0 must have a timeline in the trace");
    assert!(
        timeline.contains("submit") && timeline.contains("complete"),
        "the timeline must span admission to response:\n{timeline}"
    );
    println!(
        "[telemetry-smoke] ok: {REQUESTS} requests, 2 scrapes, trace at {}",
        trace_path.display()
    );
}

fn fleet_lane_row(out: &FleetOutcome) -> Value {
    let pct = out.latencies.cumulative();
    obj([
        ("completed", num(out.completed as f64)),
        ("shed", shed_ladder(&out.shed)),
        ("violations", num(out.violations as f64)),
        ("requeued", num(out.stats.requeued as f64)),
        ("throughput_rps", num(out.throughput_rps())),
        ("mean_batch", num(out.mean_batch())),
        ("p50_us", opt(pct.p50_us)),
        ("p99_us", opt(pct.p99_us)),
        (
            "per_replica",
            Value::Arr(
                out.stats
                    .per_replica
                    .iter()
                    .map(|r| {
                        obj([
                            ("name", Value::Str(r.name.clone())),
                            ("routed", num(r.routed as f64)),
                            ("completed", num(r.completed as f64)),
                            ("shed", num(r.shed as f64)),
                            ("batches", num(r.batches as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The fleet-tier experiment (DESIGN.md §16): a 3-device heterogeneous
/// fleet (K80 + P100 + V100), each replica serving from its *own*
/// per-device latency table built under the workspace share a global-budget
/// ILP arbiter granted it, at 100k+ rps under the 20 ms SLO.
///
/// Three deterministic lanes share one seed:
/// * `feasibility` — the SLO-aware router: dispatch where the deadline
///   stays feasible, earliest estimated finish first;
/// * `least_loaded` — the join-shortest-queue baseline, rate-blind;
/// * `failover` — the feasibility router with the P100 replica killed
///   mid-run: its queue re-routes to the survivors, zero tickets lost.
///
/// Gates: zero violations on every lane, the feasibility router sheds
/// strictly less than least-loaded, byte-identical replays, and balanced
/// ticket accounting through the failure.
fn fleet_experiment() -> Value {
    const FLEET_WORKERS: usize = 2;
    const FLEET_QUEUE_CAP: usize = 2048;
    // Offered load: ≥100k rps and ~1.2–1.4× the arbitrated fleet's service
    // capacity — the moderate-overload regime a fleet is provisioned for,
    // where rate-aware routing visibly beats queue-depth routing.
    const FLEET_RATE_RPS: f64 = 220_000.0;
    const GLOBAL_BUDGET: usize = 768 << 20;
    const FAIL_AT_US: f64 = 15_000.0;
    // Pure virtual-clock computation (like the reopt experiment), so the
    // full 20k-request run is cheap enough to keep even under `--smoke` —
    // and the shed-count gap between the routers only emerges once the
    // backlog outgrows the slow replica's deadline-feasible depth, which
    // needs the full horizon.
    let requests = 20_000;

    // Per-device candidate tables: the same demo kernel benchmarked on
    // each device card at every candidate workspace share. The zero-byte
    // share (implicit-GEMM only) keeps the arbitration feasible under any
    // budget.
    let g = ConvGeometry::with_square(
        Shape4::new(MAX_BATCH, 64, 27, 27),
        FilterShape::new(192, 64, 5, 5),
        2,
        1,
    );
    let kernels = [KernelKey::new(ConvOp::Forward, &g)];
    let shares: [usize; 5] = [0, 64 << 20, 128 << 20, 256 << 20, 512 << 20];
    let cards = [("k80", k80()), ("p100", p100_sxm2()), ("v100", v100_sxm2())];
    let candidates: Vec<ReplicaCandidates> = cards
        .iter()
        .map(|(name, dev)| {
            let handle = CudnnHandle::simulated(dev.clone());
            ReplicaCandidates {
                name: name.to_string(),
                candidates: fleet_budget_candidates(
                    &handle,
                    &BenchCache::new(),
                    &kernels,
                    BatchSizePolicy::PowerOfTwo,
                    MAX_BATCH,
                    &shares,
                ),
            }
        })
        .collect();
    let plan =
        arbitrate_fleet_budget(&candidates, GLOBAL_BUDGET).expect("fleet arbitration succeeds");
    println!(
        "\nfleet arbiter: {} MiB global budget, {} vars, {} nodes, {:.0} us",
        GLOBAL_BUDGET >> 20,
        plan.ilp_variables,
        plan.ilp_nodes,
        plan.ilp_solve_us
    );
    for s in &plan.shares {
        println!(
            "  {:<5} granted {:>4} MiB  best {:>7.2} us/sample  (t*(1)={:.0}us t*({})={:.0}us)",
            s.replica,
            s.ws_limit_bytes >> 20,
            s.per_sample_us,
            s.table.first().map_or(f64::NAN, |&(_, t)| t),
            s.table.last().map_or(0, |&(m, _)| m),
            s.table.last().map_or(f64::NAN, |&(_, t)| t),
        );
    }
    assert!(
        plan.total_granted_bytes <= GLOBAL_BUDGET,
        "the arbiter must respect the global budget"
    );

    let replicas: Vec<FleetReplicaConfig> = plan
        .shares
        .iter()
        .map(|s| FleetReplicaConfig {
            name: s.replica.clone(),
            table: s.table.clone(),
            workers: FLEET_WORKERS,
            queue_cap: FLEET_QUEUE_CAP,
        })
        .collect();
    let lane = |policy: FleetRouterPolicy, fail: Option<ReplicaFailure>| FleetSimConfig {
        seed: SEED,
        slo_us: SLO_US,
        max_batch: MAX_BATCH,
        arrival_rate_rps: FLEET_RATE_RPS,
        requests,
        policy,
        replicas: replicas.clone(),
        fail,
    };
    let feasibility = lane(FleetRouterPolicy::Feasibility, None);
    let feas = replayed(run_fleet_sim, &feasibility, "feasibility");
    let least_loaded = lane(FleetRouterPolicy::LeastLoaded, None);
    let jsq = replayed(run_fleet_sim, &least_loaded, "least_loaded");
    let failure = ReplicaFailure {
        replica: 1,
        at_us: FAIL_AT_US,
    };
    let failover_cfg = lane(FleetRouterPolicy::Feasibility, Some(failure));
    let failover = replayed(run_fleet_sim, &failover_cfg, "failover");

    println!(
        "\nfleet: k80+p100+v100, {} req at {:.0}k rps, {:.0} ms SLO:",
        requests,
        FLEET_RATE_RPS / 1e3,
        SLO_US / 1e3
    );
    for (name, out) in [
        ("feasibility", &feas),
        ("least_loaded", &jsq),
        ("failover", &failover),
    ] {
        println!(
            "  {:<12} completed={:>6} shed={:>5} (qf {} di {} drain {}) violations={} \
             requeued={} tput={:.0}rps",
            name,
            out.completed,
            out.shed.total(),
            out.shed.queue_full,
            out.shed.deadline_infeasible,
            out.shed.draining,
            out.violations,
            out.stats.requeued,
            out.throughput_rps()
        );
        for r in &out.stats.per_replica {
            println!(
                "    {:<5} routed={:>6} completed={:>6} shed={:>5} batches={:>5}",
                r.name, r.routed, r.completed, r.shed, r.batches
            );
        }
    }

    // Per-replica instruments ride the closed-vocabulary registry path.
    let registry = Registry::new();
    let card_names: Vec<&str> = cards.iter().map(|(n, _)| *n).collect();
    let metrics = FleetMetrics::with_registry(registry.clone(), &card_names);
    feas.export(&metrics);
    let exposition = registry.expose();
    for name in &card_names {
        assert!(
            exposition.contains(&format!("ucudnn_fleet_routed_total{{replica=\"{name}\"}}")),
            "exposition must carry a routed series for every replica"
        );
    }
    assert_eq!(
        registry.dropped(),
        0,
        "configured replica names must be inside the label vocabulary"
    );

    // The headline gates.
    // Acceptance floor: the fleet bench must offer 100k+ rps.
    const _: () = assert!(FLEET_RATE_RPS >= 100_000.0);
    assert_eq!(
        feas.violations, 0,
        "the feasibility router must never violate the SLO for admitted requests"
    );
    assert_eq!(jsq.violations, 0);
    assert_eq!(failover.violations, 0);
    assert!(
        feas.shed.total() < jsq.shed.total(),
        "the feasibility router must shed less than least-loaded ({} vs {})",
        feas.shed.total(),
        jsq.shed.total()
    );
    for (name, out) in [
        ("feasibility", &feas),
        ("least_loaded", &jsq),
        ("failover", &failover),
    ] {
        assert_eq!(
            out.completed + out.shed.total(),
            requests as u64,
            "{name}: ticket accounting must balance"
        );
    }
    // Failure semantics: the dead replica's backlog re-routes or sheds on
    // the drain rung — and the fleet keeps serving on the survivors.
    assert!(
        failover.log.iter().any(|l| l.starts_with("fail ")),
        "the failover lane must log the replica death"
    );
    assert!(
        failover.stats.per_replica[0].completed + failover.stats.per_replica[2].completed > 0,
        "survivors must keep serving after the failure"
    );

    obj([
        ("workers_per_replica", num(FLEET_WORKERS as f64)),
        ("queue_cap_per_replica", num(FLEET_QUEUE_CAP as f64)),
        ("arrival_rate_rps", num(FLEET_RATE_RPS)),
        ("requests", num(requests as f64)),
        ("slo_us", num(SLO_US)),
        (
            "arbiter",
            obj([
                ("global_budget_bytes", num(GLOBAL_BUDGET as f64)),
                ("total_granted_bytes", num(plan.total_granted_bytes as f64)),
                ("ilp_variables", num(plan.ilp_variables as f64)),
                ("ilp_nodes", num(plan.ilp_nodes as f64)),
                (
                    "shares",
                    Value::Arr(
                        plan.shares
                            .iter()
                            .map(|s| {
                                obj([
                                    ("replica", Value::Str(s.replica.clone())),
                                    ("ws_limit_bytes", num(s.ws_limit_bytes as f64)),
                                    ("per_sample_us", num(s.per_sample_us)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "failure",
            obj([("replica", num(1.0)), ("at_us", num(FAIL_AT_US))]),
        ),
        ("feasibility", fleet_lane_row(&feas)),
        ("least_loaded", fleet_lane_row(&jsq)),
        ("failover", fleet_lane_row(&failover)),
        ("deterministic", Value::Bool(true)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let want_tcp = args.iter().any(|a| a == "--tcp-smoke");
    let want_reopt = args.iter().any(|a| a == "--reopt");
    let want_ingress = args.iter().any(|a| a == "--ingress");
    let want_fleet = args.iter().any(|a| a == "--fleet");
    let want_telemetry = args.iter().any(|a| a == "--telemetry-smoke");
    let usage = "serve_bench [--smoke] [--tcp-smoke] [--reopt] [--ingress] [--fleet] \
                 [--telemetry-smoke] [--metrics-dump <path>] [--out <path>]";
    let metrics_dump = ucudnn_bench::flag_value(&args, "--metrics-dump", usage);
    let out_path = ucudnn_bench::flag_value(&args, "--out", usage)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let requests = if smoke { 600 } else { 4_000 };

    // The demo model's serving table: AlexNet conv2 forward, benchmarked on
    // the simulated P100 across power-of-two micro-batch sizes.
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
    println!("latency table (AlexNet conv2 fwd, simulated P100):");
    for &(m, t) in &table {
        println!(
            "  t*({m:>2}) = {t:>8.2} us  ({:.2} us/sample)",
            t / m as f64
        );
    }

    let policies = [
        BatchPolicy::Dynamic,
        BatchPolicy::FixedOne,
        BatchPolicy::FixedMax,
    ];
    let lane = |policy| SimConfig {
        seed: SEED,
        slo_us: SLO_US,
        queue_cap: QUEUE_CAP,
        workers: WORKERS,
        max_batch: MAX_BATCH,
        arrival_rate_rps: RATE_RPS,
        requests,
        policy,
        table: table.clone(),
    };
    let outcomes: Vec<_> = policies
        .into_iter()
        .map(|policy| (policy, replayed(run_sim, &lane(policy), policy.name())))
        .collect();

    println!(
        "\n{:<10} {:>9} {:>6} {:>10} {:>14} {:>10} {:>9} {:>9}",
        "policy", "completed", "shed", "violations", "throughput", "mean_bat", "p50 us", "p99 us"
    );
    for (policy, out) in &outcomes {
        let pct = out.latencies.cumulative();
        println!(
            "{:<10} {:>9} {:>6} {:>10} {:>11.1}rps {:>10.2} {:>9.1} {:>9.1}",
            policy.name(),
            out.completed,
            out.shed.total(),
            out.violations,
            out.throughput_rps(),
            out.mean_batch(),
            pct.p50_us.unwrap_or(0.0),
            pct.p99_us.unwrap_or(0.0),
        );
    }

    let dynamic = &outcomes[0].1;
    let fixed1 = &outcomes[1].1;
    assert_eq!(
        dynamic.violations, 0,
        "dynamic batching must never violate the SLO for admitted requests"
    );
    let speedup = dynamic.throughput_rps() / fixed1.throughput_rps();
    println!("\ndynamic vs fixed1 throughput: {speedup:.2}x");
    assert!(
        speedup >= 1.3,
        "acceptance gate: dynamic must beat fixed-batch-1 by >= 1.3x, got {speedup:.3}"
    );

    let reopt_section = want_reopt.then(|| reopt_experiment(&table));
    let ingress_section =
        want_ingress.then(|| ingress_experiment(&lane(BatchPolicy::Dynamic), smoke));
    let fleet_section = want_fleet.then(fleet_experiment);

    let mut doc = obj([
        ("bench", Value::Str("serve".to_string())),
        ("smoke", Value::Bool(smoke)),
        ("seed", num(SEED as f64)),
        ("slo_us", num(SLO_US)),
        ("arrival_rate_rps", num(RATE_RPS)),
        ("workers", num(WORKERS as f64)),
        ("queue_cap", num(QUEUE_CAP as f64)),
        ("max_batch", num(MAX_BATCH as f64)),
        ("requests", num(requests as f64)),
        (
            "latency_table_us",
            Value::Arr(
                table
                    .iter()
                    .map(|&(m, t)| Value::Arr(vec![num(m as f64), num(t)]))
                    .collect(),
            ),
        ),
        (
            "policies",
            Value::Arr(
                outcomes
                    .iter()
                    .map(|(policy, out)| policy_row(out, *policy))
                    .collect(),
            ),
        ),
        ("speedup_vs_fixed1", num(speedup)),
        ("deterministic", Value::Bool(true)),
    ]);
    if let Value::Obj(fields) = &mut doc {
        if let Some(section) = reopt_section {
            fields.push(("reopt".to_string(), section));
        }
        if let Some(section) = ingress_section {
            fields.push(("ingress".to_string(), section));
        }
        if let Some(section) = fleet_section {
            fields.push(("fleet".to_string(), section));
        }
    }
    let body = doc.to_json() + "\n";
    if let Some(dir) = std::path::Path::new(&out_path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).expect("cannot create output directory");
    }
    std::fs::write(&out_path, body).expect("cannot write benchmark JSON");
    println!("[json] wrote {out_path}");

    if want_ingress {
        ingress_live(smoke);
    }
    if want_tcp {
        tcp_smoke();
    }
    if want_telemetry || metrics_dump.is_some() {
        telemetry_smoke(metrics_dump.as_deref());
    }
}
