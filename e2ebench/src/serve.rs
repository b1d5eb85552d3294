//! `serve`: live serving over loopback TCP through the epoll reactor
//! (`TcpFrontend`), `Server` and the bundled `RealModelRunner` (3×8×8
//! inputs, max batch 32).
//!
//! One generator thread drives at most two pipelined connections: first a
//! seeded open-loop phase at a fixed rate (latency is timed from each
//! request's scheduled send time), then a closed-loop saturation phase.
//! Both phases run in slices with a reference sample between slices.

use crate::checks;
use crate::estimate::{max, median, quantile, Mix, Paired, RefLoop, RefSample};
use crate::report::{fingerprint, plan_text, rss_mib, Report};
use crate::settings::{
    self, SERVE_CONNS, SERVE_DEPTH, SERVE_MAX_BATCH, SERVE_OPEN_RPS, SERVE_REPLICAS,
    SERVE_SETUP_REPS,
};
use crate::spans::Tracer;
use crate::timed::TimedRunner;
use crate::Args;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucudnn::json::Value;
use ucudnn_serve::{BatchRunner, RealModelRunner, Server, TcpFrontend};
use ucudnn_tensor::DeterministicRng;

/// Distinct request inputs per run.
const POOL: usize = 64;
/// Smallest top-1/top-2 logit gap of a pool input: closer calls are left
/// out, since their argmax is not defined to float rounding.
const MIN_MARGIN: f32 = 1e-3;
/// Length of one open-loop or closed-loop slice, seconds.
const SLICE_S: f64 = 0.25;
/// How long to wait for outstanding replies before counting them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// A running serving stack.
struct Live {
    runner: Arc<RealModelRunner>,
    server: Arc<Server>,
    frontend: TcpFrontend,
}

impl Live {
    /// Build the runner (kernel registration and tuning), start the server
    /// (latency table, workers) and the reactor. `wrap` chooses what the
    /// server executes through.
    fn start(
        seed: u64,
        wrap: impl FnOnce(Arc<RealModelRunner>) -> Arc<dyn BatchRunner>,
    ) -> Result<Self, String> {
        let runner = Arc::new(
            RealModelRunner::try_new(settings::cpu_handle(), seed, SERVE_MAX_BATCH)
                .map_err(|e| e.to_string())?,
        );
        let server = Arc::new(Server::start(
            wrap(Arc::clone(&runner)),
            &settings::serve_options(),
        ));
        let frontend = TcpFrontend::start_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &settings::ingress_options(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Self {
            runner,
            server,
            frontend,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    fn plan_fingerprint(&self) -> String {
        fingerprint(&plan_text(self.runner.provider()))
    }

    fn stop(self) {
        self.frontend.stop();
        self.server.drain();
    }
}

/// Request inputs with their rendered JSON arrays and reference argmax.
struct Pool {
    rendered: Vec<String>,
    argmax: Vec<usize>,
}

impl Pool {
    /// Draw inputs from `seed`; the reference argmax is the in-process
    /// `RealModelRunner::run` output on exactly the values the server
    /// parses back from the request text.
    fn new(seed: u64, runner: &RealModelRunner) -> Result<Self, String> {
        let mut rng = DeterministicRng::new(seed ^ 0x5e7e);
        let len = runner.sample_len();
        let (mut rendered, mut argmax) = (Vec::new(), Vec::new());
        let mut skipped = 0;
        while rendered.len() < POOL {
            let text: Vec<String> = (0..len)
                .map(|_| format!("{}", rng.next_uniform() * 2.0 - 1.0))
                .collect();
            let values: Vec<f32> = text
                .iter()
                .map(|t| t.parse::<f64>().map(|v| v as f32))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let out = runner.run(1, &values)?;
            let (best, margin) = checks::argmax_with_margin(&out);
            if margin < MIN_MARGIN {
                skipped += 1;
                continue;
            }
            rendered.push(format!("[{}]", text.join(",")));
            argmax.push(best);
        }
        println!("request pool: {POOL} inputs ({skipped} near-ties skipped)");
        Ok(Self { rendered, argmax })
    }
}

struct Pending {
    input: usize,
    due: Instant,
    sent: Instant,
}

/// One reply as the client saw it.
#[derive(Debug, Clone)]
struct Reply {
    input: usize,
    due: Instant,
    sent: Instant,
    recv: Instant,
    ok: bool,
    argmax: Option<usize>,
    server_us: f64,
    batch: usize,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    pending: VecDeque<Pending>,
}

/// The single-threaded load generator over non-blocking connections.
struct Generator<'p> {
    pool: &'p Pool,
    conns: Vec<Conn>,
    next_id: u64,
    sent: u64,
    replies: Vec<Reply>,
    peak_rss: f64,
    last_rss: Instant,
}

impl<'p> Generator<'p> {
    fn connect(pool: &'p Pool, addr: SocketAddr) -> Result<Self, String> {
        let conns = (0..SERVE_CONNS)
            .map(|_| {
                let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                Ok(Conn {
                    stream,
                    out: Vec::new(),
                    inbuf: Vec::new(),
                    pending: VecDeque::new(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            pool,
            conns,
            next_id: 0,
            sent: 0,
            replies: Vec::new(),
            peak_rss: rss_mib(),
            last_rss: Instant::now(),
        })
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    fn send(&mut self, conn: usize, input: usize, due: Instant) {
        let c = &mut self.conns[conn];
        c.out.extend_from_slice(
            format!(
                "{{\"id\":{},\"input\":{}}}\n",
                self.next_id, self.pool.rendered[input]
            )
            .as_bytes(),
        );
        self.next_id += 1;
        self.sent += 1;
        c.pending.push_back(Pending {
            input,
            due,
            sent: Instant::now(),
        });
    }

    /// Write what the sockets accept and read every complete reply line.
    /// Returns whether anything moved.
    fn pump(&mut self) -> Result<bool, String> {
        let mut progress = false;
        let mut buf = [0u8; 16 * 1024];
        for c in &mut self.conns {
            while !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        c.out.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e.to_string()),
                }
            }
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        c.inbuf.extend_from_slice(&buf[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e.to_string()),
                }
            }
            let recv = Instant::now();
            while let Some(end) = c.inbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = c.inbuf.drain(..=end).collect();
                let p = c
                    .pending
                    .pop_front()
                    .ok_or("reply without an outstanding request")?;
                let v = Value::parse(String::from_utf8_lossy(&line).trim())
                    .ok_or("unparseable reply")?;
                self.replies.push(Reply {
                    input: p.input,
                    due: p.due,
                    sent: p.sent,
                    recv,
                    ok: v.get("ok") == Some(&Value::Bool(true)),
                    argmax: v.get("argmax").and_then(Value::as_usize),
                    server_us: v.get("latency_us").and_then(Value::as_f64).unwrap_or(0.0),
                    batch: v.get("batch").and_then(Value::as_usize).unwrap_or(0),
                });
            }
        }
        if self.last_rss.elapsed() > Duration::from_millis(50) {
            self.peak_rss = self.peak_rss.max(rss_mib());
            self.last_rss = Instant::now();
        }
        Ok(progress)
    }

    /// Wait for every outstanding reply; returns how many never came.
    fn drain(&mut self) -> Result<usize, String> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.outstanding() > 0 && Instant::now() < deadline {
            if !self.pump()? {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let lost = self.outstanding();
        for c in &mut self.conns {
            c.pending.clear();
        }
        Ok(lost)
    }

    /// One open-loop slice: Poisson arrivals at `rate` for `secs`, then
    /// drain. Returns the replies of the slice and the lost count.
    fn open_slice(
        &mut self,
        rng: &mut DeterministicRng,
        rate: f64,
        secs: f64,
    ) -> Result<(Vec<Reply>, usize), String> {
        let first = self.replies.len();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let gap = |rng: &mut DeterministicRng| {
            let u = f64::from(rng.next_uniform()).clamp(1e-9, 1.0 - 1e-9);
            Duration::from_secs_f64(-(1.0 - u).ln() / rate)
        };
        let mut due = start + gap(rng);
        let mut k = 0usize;
        while due < end {
            let now = Instant::now();
            while due <= now && due < end {
                let input = rng.next_below(POOL as u64) as usize;
                self.send(k % SERVE_CONNS, input, due);
                k += 1;
                due += gap(rng);
            }
            let moved = self.pump()?;
            let wait = due.saturating_duration_since(Instant::now());
            if !moved && wait > Duration::from_micros(200) {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let lost = self.drain()?;
        Ok((self.replies[first..].to_vec(), lost))
    }

    /// One closed-loop slice: keep [`SERVE_DEPTH`] requests in flight per
    /// connection for `secs`, then drain. Returns (replies, elapsed, lost).
    fn closed_slice(
        &mut self,
        rng: &mut DeterministicRng,
        secs: f64,
    ) -> Result<(Vec<Reply>, f64, usize), String> {
        let first = self.replies.len();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        while Instant::now() < end {
            for conn in 0..SERVE_CONNS {
                while self.conns[conn].pending.len() < SERVE_DEPTH {
                    let input = rng.next_below(POOL as u64) as usize;
                    self.send(conn, input, Instant::now());
                }
            }
            if !self.pump()? {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let lost = self.drain()?;
        let elapsed = start.elapsed().as_secs_f64();
        Ok((self.replies[first..].to_vec(), elapsed, lost))
    }
}

/// What one load run measured.
struct Load {
    open: Vec<Reply>,
    closed: Vec<Reply>,
    open_slices: Paired,
    closed_slices: Paired,
    lost: usize,
}

impl Load {
    fn all(&self) -> impl Iterator<Item = &Reply> {
        self.open.iter().chain(&self.closed)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Open loop for `open_s`, then closed loop for `closed_s`, in slices that
/// rotate over `gens` (one per serving replica).
fn drive_load(
    gens: &mut [Generator],
    rng: &mut DeterministicRng,
    reference: &mut RefLoop,
    open_s: f64,
    closed_s: f64,
) -> Result<Load, String> {
    // Serving traffic is copies and parsing: normalised by the memory part.
    let mut s = Load {
        open: Vec::new(),
        closed: Vec::new(),
        open_slices: Paired::new(Mix::Memory),
        closed_slices: Paired::new(Mix::Memory),
        lost: 0,
    };
    let start = Instant::now();
    while s.open_slices.len() < 2 || start.elapsed().as_secs_f64() < open_s {
        let gen = &mut gens[s.open_slices.len() % gens.len()];
        let (replies, lost) = gen.open_slice(rng, SERVE_OPEN_RPS, SLICE_S)?;
        let lat: Vec<f64> = replies.iter().map(|r| ms(r.recv - r.due) * 1e-3).collect();
        if !lat.is_empty() {
            s.open_slices.push(median(&lat), &reference.sample());
        }
        s.lost += lost;
        s.open.extend(replies);
    }
    let start = Instant::now();
    while s.closed_slices.len() < 2 || start.elapsed().as_secs_f64() < closed_s {
        let gen = &mut gens[s.closed_slices.len() % gens.len()];
        let (replies, secs, lost) = gen.closed_slice(rng, SLICE_S)?;
        let done = replies.iter().filter(|r| r.ok).count().max(1);
        s.closed_slices
            .push(secs / done as f64, &reference.sample());
        s.lost += lost;
        s.closed.extend(replies);
    }
    Ok(s)
}

/// Count the load's requests and check every reply against the pool.
fn account(report: &mut Report, pool: &Pool, gens: &[Generator], s: &Load) {
    let shed = s.all().filter(|r| !r.ok).count();
    let sent: u64 = gens.iter().map(|g| g.sent).sum();
    report.operations(sent, (shed + s.lost) as u64);
    let answered: Vec<(usize, usize)> = s
        .all()
        .filter(|r| r.ok)
        .map(|r| (r.input, r.argmax.unwrap_or(usize::MAX)))
        .collect();
    let (ok, detail) = match checks::replies_match(&answered, &pool.argmax) {
        Ok(d) => (true, d),
        Err(d) => (false, d),
    };
    report.check("serve.replies_match_reference", ok, detail);
    println!(
        "requests: {sent} sent, {} answered, {shed} shed or refused, {} lost",
        answered.len(),
        s.lost
    );
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut reference = RefLoop::new();
    reference.sample();
    if args.trace {
        return run_traced(args, report, &mut reference);
    }
    // Set-up: several fresh constructions. Each tunes its own plan, and
    // serving speed differs between plans by up to ~10%, so the last
    // SERVE_REPLICAS constructions all serve, in rotating slices.
    let mut setup = Paired::new(Mix::Whole);
    let mut live: VecDeque<Live> = VecDeque::new();
    let mut prints = Vec::new();
    for _ in 0..SERVE_SETUP_REPS {
        if live.len() == SERVE_REPLICAS {
            if let Some(oldest) = live.pop_front() {
                oldest.stop();
            }
        }
        let before = reference.sample();
        let t0 = Instant::now();
        let l = Live::start(args.seed, |r| r)?;
        let secs = t0.elapsed().as_secs_f64();
        setup.push(secs, &RefSample::mean(&before, &reference.sample()));
        prints.push(l.plan_fingerprint());
        live.push_back(l);
    }
    prints.sort();
    prints.dedup();
    println!(
        "{} distinct plans in {SERVE_SETUP_REPS} constructions; serving plans: {:?}",
        prints.len(),
        live.iter().map(Live::plan_fingerprint).collect::<Vec<_>>()
    );
    println!("setup: {}", setup.summary_ms());

    let pool = Pool::new(args.seed, &live[0].runner)?;
    let mut gens: Vec<Generator> = live
        .iter()
        .map(|l| Generator::connect(&pool, l.addr()))
        .collect::<Result<_, _>>()?;
    let mut rng = DeterministicRng::new(args.seed);
    let s = drive_load(
        &mut gens,
        &mut rng,
        &mut reference,
        0.5 * args.seconds,
        0.5 * args.seconds,
    )?;
    account(report, &pool, &gens, &s);
    let peak_rss = gens.iter().map(|g| g.peak_rss).fold(0.0, f64::max);
    drop(gens);
    live.into_iter().for_each(Live::stop);

    let open: Vec<f64> = s.open.iter().map(|r| ms(r.recv - r.due)).collect();
    println!(
        "open loop at {SERVE_OPEN_RPS} rps: raw p50 {:.4} ms, p99 {:.4} ms over {} requests; slices: low-quartile estimate {:.4} ms, {}",
        median(&open),
        quantile(&open, 0.99),
        open.len(),
        s.open_slices.low_estimate_s() * 1e3,
        s.open_slices.summary_ms()
    );
    println!(
        "closed loop: {} requests; seconds per request: {}",
        s.closed.len(),
        s.closed_slices.summary_ms()
    );
    println!("reference loop: {}", reference.summary());
    println!("peak RSS while serving: {peak_rss:.2} MiB");
    report.metric("setup_s", setup.estimate_s());
    report.metric("latency_p50_ms", s.open_slices.low_estimate_s() * 1e3);
    report.metric("throughput_per_s", 1.0 / s.closed_slices.estimate_s());
    report.metric("peak_rss_mib", peak_rss);
    Ok(())
}

fn run_traced(args: &Args, report: &mut Report, reference: &mut RefLoop) -> Result<(), String> {
    let tracer = Arc::new(Tracer::new());
    let mut timed_runner = None;
    let traced = Live::start(args.seed, |r| {
        let t = Arc::new(TimedRunner::new(r, Arc::clone(&tracer)));
        timed_runner = Some(Arc::clone(&t));
        t
    })?;
    let timed_runner = timed_runner.expect("the server wraps its runner");
    let untraced = Live::start(args.seed, |r| r)?;
    let provider = traced.runner.provider();
    let cache = provider.cache_stats();
    let timings = provider.metrics().timings();
    report.metric("core.tune_s", provider.optimization_wall_us() * 1e-6);
    report.metric("core.bench_hits", cache.hits as f64);
    report.metric("core.bench_misses", cache.misses as f64);
    report.metric("core.find_s", timings.benchmark_us as f64 * 1e-6);
    report.metric("core.dp_s", timings.dp_us as f64 * 1e-6);
    println!("plan fingerprint {}", traced.plan_fingerprint());

    let pool = Pool::new(args.seed, &traced.runner)?;
    let c0 = provider.inner().exec_cache_stats();
    let mut rng = DeterministicRng::new(args.seed);
    let mut gen = Generator::connect(&pool, traced.addr())?;
    let s = drive_load(
        std::slice::from_mut(&mut gen),
        &mut rng,
        reference,
        0.4 * args.seconds,
        0.2 * args.seconds,
    )?;
    account(report, &pool, std::slice::from_ref(&gen), &s);
    let c1 = provider.inner().exec_cache_stats();

    // Closed-loop slices alternating between the traced and the untraced
    // server: the tracing overhead.
    let mut gen_u = Generator::connect(&pool, untraced.addr())?;
    let sent_before = gen.sent;
    let (mut per_req_t, mut per_req_u) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let start = Instant::now();
    while per_req_t.len() < 2 || start.elapsed().as_secs_f64() < 0.3 * args.seconds {
        for (g, per_req) in [(&mut gen, &mut per_req_t), (&mut gen_u, &mut per_req_u)] {
            let (r, secs, lost) = g.closed_slice(&mut rng, SLICE_S)?;
            let ok = r.iter().filter(|x| x.ok).count();
            per_req.push(secs / ok.max(1) as f64);
            failed += r.len() - ok + lost;
        }
    }
    report.operations(gen.sent - sent_before + gen_u.sent, failed as u64);
    drop((gen, gen_u));
    traced.stop();
    untraced.stop();

    let calls = timed_runner.calls();
    let exec_ms = calls.iter().map(|c| c.secs * 1e3).sum::<f64>() / calls.len().max(1) as f64;
    // Mean execution time per batch size, for the queueing split.
    let exec_of = |batch: usize| -> f64 {
        let same: Vec<f64> = calls
            .iter()
            .filter(|c| c.n == batch)
            .map(|c| c.secs * 1e3)
            .collect();
        if same.is_empty() {
            exec_ms
        } else {
            same.iter().sum::<f64>() / same.len() as f64
        }
    };
    // The latency split is over the open loop (what latency_p50_ms times);
    // the batch size over the closed loop (what throughput_per_s times).
    let answered: Vec<&Reply> = s.open.iter().filter(|r| r.ok).collect();
    let queue: Vec<f64> = answered
        .iter()
        .map(|r| r.server_us * 1e-3 - exec_of(r.batch))
        .collect();
    let ingress: Vec<f64> = answered
        .iter()
        .map(|r| ms(r.recv - r.sent) - r.server_us * 1e-3)
        .collect();
    let open: Vec<f64> = s.open.iter().map(|r| ms(r.recv - r.due)).collect();
    let lag: Vec<f64> = s.open.iter().map(|r| ms(r.sent - r.due)).collect();
    let shed = s.all().filter(|r| !r.ok).count() + s.lost;
    let total = s.open.len() + s.closed.len() + s.lost;
    let closed: Vec<&Reply> = s.closed.iter().filter(|r| r.ok).collect();
    let batch_mean =
        closed.iter().map(|r| r.batch as f64).sum::<f64>() / closed.len().max(1) as f64;
    let (hits, lookups) = (
        c1.hits - c0.hits,
        (c1.hits + c1.misses) - (c0.hits + c0.misses),
    );
    println!(
        "runner: {} run calls, mean {exec_ms:.4} ms; exec plan cache during load: {hits} hits of {lookups} lookups",
        calls.len()
    );
    println!(
        "open loop: p99 {:.4} ms over {} requests ({} beyond it); shed {shed} of {total}",
        quantile(&open, 0.99),
        open.len(),
        open.len() / 100
    );
    println!(
        "overhead: closed-loop seconds per request traced {:.5} ms vs untraced {:.5} ms (medians of {} slices)",
        median(&per_req_t) * 1e3,
        median(&per_req_u) * 1e3,
        per_req_t.len()
    );
    report.metric("serve.exec_ms", exec_ms);
    report.metric("serve.batch_mean", batch_mean);
    report.metric("serve.queue_ms", median(&queue));
    report.metric("serve.ingress_ms", median(&ingress));
    report.metric("serve.latency_p99_ms", quantile(&open, 0.99));
    report.metric("serve.gen_lag_ms", max(&lag));
    report.metric("serve.shed_ratio", shed as f64 / total.max(1) as f64);
    report.metric(
        "cudnn-sim.exec_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    report.metric(
        "bench.trace_overhead",
        median(&per_req_t) / median(&per_req_u),
    );
    tracer.finish("serve");
    Ok(())
}
