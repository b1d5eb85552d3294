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
//! `--ingress` runs the C10k ingress gate (DESIGN.md §15) on real
//! sockets: the epoll reactor must hold ≥5k idle loopback connections
//! (fd-budget permitting; the attempt raises `RLIMIT_NOFILE` first) while
//! pipelined traffic completes with zero sheds and zero SLO violations.
//! Live numbers are printed and asserted, not committed — the JSON stays
//! reproducible byte-for-byte.
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
    forward_latency_table, BatchSizePolicy, BenchCache, ClockMode, IngressOptions, KernelKey,
    ServeOptions,
};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_serve::{
    run_sim, sys, BatchPolicy, BatchRunner as _, RealModelRunner, Server, SimConfig, SimOutcome,
    TcpFrontend,
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
fn replayed(cfg: &SimConfig, lane: &str) -> SimOutcome {
    let out = run_sim(cfg);
    assert_eq!(out.log, run_sim(cfg).log, "{lane} replay diverged");
    out
}

/// A JSON number, or `null` when absent.
fn opt(v: Option<f64>) -> Value {
    v.map(num).unwrap_or(Value::Null)
}

fn policy_row(out: &SimOutcome, policy: BatchPolicy) -> Value {
    let pct = out.latencies.cumulative();
    let shed = &out.shed;
    obj([
        ("name", Value::Str(policy.name().to_string())),
        ("completed", num(out.completed as f64)),
        (
            "shed",
            obj([
                ("queue_full", num(shed.queue_full as f64)),
                ("deadline_infeasible", num(shed.deadline_infeasible as f64)),
                ("exec_failed", num(shed.exec_failed as f64)),
                ("draining", num(shed.draining as f64)),
                ("total", num(shed.total() as f64)),
            ]),
        ),
        ("violations", num(out.violations as f64)),
        ("throughput_rps", num(out.throughput_rps())),
        ("mean_batch", num(out.mean_batch())),
        ("p50_us", opt(pct.p50_us)),
        ("p95_us", opt(pct.p95_us)),
        ("p99_us", opt(pct.p99_us)),
        ("mean_us", opt((out.completed > 0).then(|| pct.mean()))),
    ])
}

/// The `--ingress` gate: real sockets against the epoll reactor. Holds as many idle loopback connections as the fd budget
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
    let session = ucudnn::trace::session(ClockMode::Wall);

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
        "ucudnn_serve_violations_total ",
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
    std::fs::write(&trace_path, trace.to_jsonl()).expect("cannot write trace");
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let want_tcp = args.iter().any(|a| a == "--tcp-smoke");
    let want_ingress = args.iter().any(|a| a == "--ingress");
    let want_telemetry = args.iter().any(|a| a == "--telemetry-smoke");
    let usage = "serve_bench [--smoke] [--tcp-smoke] [--ingress] [--telemetry-smoke] \
                 [--metrics-dump <path>] [--out <path>]";
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
        .map(|policy| (policy, replayed(&lane(policy), policy.name())))
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

    let doc = obj([
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
