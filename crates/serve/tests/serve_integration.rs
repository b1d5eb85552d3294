//! End-to-end tests of the threaded server: real CPU numerics through the
//! μ-cuDNN wrapper, concurrent submitters, graceful drain, fault injection,
//! and the TCP front-end.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ucudnn::ServeOptions;
use ucudnn_cudnn_sim::{CudnnHandle, FaultPlan, FaultSite, FaultTarget};
use ucudnn_serve::{BatchRunner, RealModelRunner, ServeMetrics, Server, ShedReason, TcpFrontend};

fn opts() -> ServeOptions {
    ServeOptions {
        slo_us: 2_000_000.0, // generous: these tests assert behaviour, not speed
        queue_cap: 256,
        workers: 2,
        max_batch: 8,
    }
}

fn sample(i: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|j| ((i * 31 + j) % 17) as f32 * 0.05)
        .collect()
}

#[test]
fn concurrent_submitters_all_complete_with_correct_outputs() {
    let runner = Arc::new(RealModelRunner::new(CudnnHandle::real_cpu(), 7, 8));
    let server = Arc::new(Server::start(runner.clone(), &opts()));
    let n_req = 48;
    let len = runner.sample_len();

    let mut handles = Vec::new();
    for t in 0..4 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            for i in 0..n_req / 4 {
                let idx = t * (n_req / 4) + i;
                let ticket = server.submit(sample(idx, len)).expect("admitted");
                out.push((idx, ticket.wait().expect("completed")));
            }
            out
        }));
    }
    let mut responses = Vec::new();
    for h in handles {
        responses.extend(h.join().unwrap());
    }
    assert_eq!(responses.len(), n_req);

    // Batch membership must not change the answer: every response matches
    // the same request run alone, up to f32 rounding (different batch
    // sizes reassociate the GEMM sums, so exact equality is not the
    // contract — agreement to float tolerance is).
    for (idx, resp) in &responses {
        let solo = runner.run(1, &sample(*idx, len)).unwrap();
        assert_eq!(resp.output.len(), solo.len());
        for (k, (got, want)) in resp.output.iter().zip(&solo).enumerate() {
            assert!(
                (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                "request {idx} (batch {}), logit {k}: {got} vs solo {want}",
                resp.batch
            );
        }
        assert!(resp.latency_us >= 0.0);
        assert!(resp.batch >= 1 && resp.batch <= 8);
    }

    let metrics = server.metrics();
    assert_eq!(metrics.completed.get(), n_req as u64);
    assert_eq!(metrics.shed_total(), 0);
    assert!(metrics.batches.get() >= 1);
    // A STATS scrape leaves the JSON snapshot's latency window alone.
    server.exposition();
    let json = ucudnn::json::Value::parse(&server.metrics_json()).unwrap();
    let window = json.get("latency_window_us").unwrap();
    assert_eq!(window.get("count").unwrap().as_u64(), Some(n_req as u64));
    // The shared plan cache saw every batch size the scheduler fired.
    let stats = runner.provider().inner().exec_cache_stats();
    assert!(stats.hits > 0, "plan cache must be reused across requests");
    server.drain();
}

#[test]
fn drain_finishes_queued_work_and_refuses_new_work() {
    let runner = Arc::new(RealModelRunner::new(CudnnHandle::real_cpu(), 3, 4));
    let server = Server::start(runner.clone(), &opts());
    let len = runner.sample_len();
    let tickets: Vec<_> = (0..12)
        .map(|i| server.submit(sample(i, len)).expect("admitted"))
        .collect();
    server.drain();
    // Everything admitted before the drain resolves successfully.
    for t in tickets {
        t.wait().expect("drained work must complete");
    }
    // New work is refused with the drain verdict.
    match server.submit(sample(0, len)) {
        Err(ShedReason::Draining) => {}
        Err(other) => panic!("expected Draining, got {other:?}"),
        Ok(_) => panic!("expected Draining, got an admitted ticket"),
    }
    assert!(server.metrics_json().contains("\"draining\":1"));
}

#[test]
fn transient_faults_are_retried_within_budget() {
    // Every execution-site fault key fails twice, then succeeds; the
    // wrapper's retry budget equals the plan's transient_tries, so the
    // serving path must absorb every fault without shedding anything.
    let handle = CudnnHandle::real_cpu().with_faults(FaultPlan {
        targets: vec![FaultTarget {
            site: Some(FaultSite::Execution),
            ..FaultTarget::any()
        }],
        transient_tries: 2,
        ..FaultPlan::default()
    });
    let runner = Arc::new(RealModelRunner::new(handle, 11, 4));
    let server = Server::start(runner.clone(), &opts());
    let len = runner.sample_len();
    let tickets: Vec<_> = (0..10)
        .map(|i| server.submit(sample(i, len)).expect("admitted"))
        .collect();
    for t in tickets {
        t.wait()
            .expect("transient faults must be retried to success");
    }
    assert!(
        runner.provider().inner().faults_injected() > 0,
        "the plan must actually have fired"
    );
    let m = server.metrics();
    assert_eq!(m.shed_total(), 0);
    server.drain();
}

/// A runner that permanently fails one micro-batch size — the serving-side
/// stand-in for a persistent `CUDNN_STATUS_EXECUTION_FAILED` on a specific
/// plan.
struct FaultyRunner {
    inner: RealModelRunner,
    poisoned: usize,
    failures: AtomicU64,
}

impl BatchRunner for FaultyRunner {
    fn sample_len(&self) -> usize {
        self.inner.sample_len()
    }
    fn output_len(&self) -> usize {
        self.inner.output_len()
    }
    fn batch_sizes(&self) -> Vec<usize> {
        self.inner.batch_sizes()
    }
    fn run(&self, n: usize, inputs: &[f32]) -> Result<Vec<f32>, String> {
        if n == self.poisoned {
            self.failures.fetch_add(1, Ordering::Relaxed);
            return Err(format!("injected permanent fault at micro-batch {n}"));
        }
        self.inner.run(n, inputs)
    }
    fn latency_table(&self) -> Vec<(usize, f64)> {
        self.inner.latency_table()
    }
}

#[test]
fn permanent_faults_shed_only_the_affected_micro_batch() {
    let runner = Arc::new(FaultyRunner {
        inner: RealModelRunner::new(CudnnHandle::real_cpu(), 5, 8),
        poisoned: 8,
        failures: AtomicU64::new(0),
    });
    let server = Server::start(runner.clone(), &opts());
    let len = runner.sample_len();
    // Submit in waves; some will coalesce to the poisoned size 8, others
    // ride smaller micro-batches and must succeed.
    let tickets: Vec<_> = (0..40)
        .map(|i| server.submit(sample(i, len)).expect("admitted"))
        .collect();
    let mut ok = 0u64;
    let mut exec_failed = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(_) => ok += 1,
            Err(ShedReason::ExecFailed) => exec_failed += 1,
            Err(other) => panic!("unexpected shed reason {other:?}"),
        }
    }
    assert_eq!(ok + exec_failed, 40);
    // The server survived the faults: whatever was shed is tallied, the
    // rest completed, and the degradation counter moved iff faults fired.
    let m: Arc<ServeMetrics> = server.metrics();
    assert_eq!(m.completed.get(), ok);
    assert_eq!(m.shed_exec_failed.get(), exec_failed);
    let fired = runner.failures.load(Ordering::Relaxed);
    assert_eq!(
        fired > 0,
        exec_failed > 0,
        "sheds must correspond to injected failures"
    );
    assert_eq!(m.degradations.get() > 0, fired > 0);
    // The server is still serving after the faults.
    server
        .submit(sample(99, len))
        .expect("admitted")
        .wait()
        .expect("post-fault request must complete");
    server.drain();
}

#[test]
fn tcp_frontend_serves_the_line_protocol() {
    let runner = Arc::new(RealModelRunner::new(CudnnHandle::real_cpu(), 13, 4));
    let server = Arc::new(Server::start(runner.clone(), &opts()));
    let tcp = TcpFrontend::start(Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let addr = tcp.local_addr();

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let len = runner.sample_len();

    for i in 0..3 {
        let input = sample(i, len)
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",");
        writeln!(stream, "{{\"id\":{i},\"input\":[{input}]}}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = ucudnn::json::Value::parse(line.trim()).expect("valid response JSON");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(i as u64));
        assert_eq!(v.get("ok"), Some(&ucudnn::json::Value::Bool(true)));
        let argmax = v.get("argmax").unwrap().as_usize().unwrap();
        assert!(argmax < runner.output_len());
    }

    // Malformed lines answer with an error instead of dropping the link,
    // including one nested deep enough to overflow a recursive parser.
    for bad in ["this is not json".to_string(), "[".repeat(100_000)] {
        writeln!(stream, "{bad}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = ucudnn::json::Value::parse(line.trim()).unwrap();
        assert_eq!(v.get("ok"), Some(&ucudnn::json::Value::Bool(false)));
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad_json"));
    }

    writeln!(stream, "{{\"id\":9,\"input\":[1.0]}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = ucudnn::json::Value::parse(line.trim()).unwrap();
    assert_eq!(v.get("error").unwrap().as_str(), Some("bad_input_len"));

    drop(stream);
    tcp.stop();
    server.drain();
}
