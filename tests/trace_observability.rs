//! Observability pipeline tests: logical-clock trace determinism across
//! optimizer thread counts, the JSONL / Chrome trace schemas, plan
//! provenance, and the metrics JSON golden schema.

use std::sync::Mutex;
use ucudnn::json::Value;
use ucudnn::{BatchSizePolicy, ClockMode, OptimizerMode, Trace, UcudnnHandle, UcudnnOptions};
use ucudnn_cudnn_sim::{ConvOp, CudnnHandle, FaultPlan, FaultSite, FaultTarget};
use ucudnn_framework::{setup_network, LayerSpec, NetworkDef};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_tensor::Shape4;

const MIB: usize = 1024 * 1024;

/// Trace enablement is process-global: a test that merely runs an optimizer
/// while another test's session is live would leak events into that trace.
/// Every test in this file serializes on this gate.
static GATE: Mutex<()> = Mutex::new(());

fn small_net(n: usize) -> NetworkDef {
    let mut net = NetworkDef::new("small", Shape4::new(n, 3, 32, 32));
    let c1 = net.conv_relu("conv1", net.input(), 16, 5, 1, 2);
    let p1 = net.add(
        "pool1",
        LayerSpec::Pool {
            max: true,
            kernel: 2,
            stride: 2,
            pad: 0,
        },
        &[c1],
    );
    let c2 = net.conv_relu("conv2", p1, 32, 5, 1, 2);
    let c3 = net.conv_relu("conv3", c2, 32, 3, 1, 1);
    net.add("fc", LayerSpec::FullyConnected { out: 10 }, &[c3]);
    net
}

fn handle(mode: OptimizerMode, threads: usize, limit: usize) -> UcudnnHandle {
    UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()),
        UcudnnOptions {
            policy: BatchSizePolicy::PowerOfTwo,
            workspace_limit_bytes: limit,
            mode,
            opt_threads: threads,
            ..Default::default()
        },
    )
}

/// Optimize the small net under a logical-clock session; return the
/// serialized trace.
fn traced_setup(mode: OptimizerMode, threads: usize) -> String {
    let session = ucudnn::trace::session(ClockMode::Logical);
    let h = handle(mode, threads, 64 * MIB);
    setup_network(&h, &small_net(64)).unwrap();
    session.finish().to_jsonl()
}

#[test]
fn wr_logical_traces_are_byte_identical_across_thread_counts() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let one = traced_setup(OptimizerMode::Wr, 1);
    assert!(!one.is_empty());
    for threads in [2, 8] {
        let t = traced_setup(OptimizerMode::Wr, threads);
        assert_eq!(one, t, "WR trace diverged at {threads} threads");
    }
}

#[test]
fn wd_logical_traces_are_byte_identical_across_thread_counts() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let one = traced_setup(OptimizerMode::Wd, 1);
    assert!(!one.is_empty());
    for threads in [2, 8] {
        let t = traced_setup(OptimizerMode::Wd, threads);
        assert_eq!(one, t, "WD trace diverged at {threads} threads");
    }
}

#[test]
fn jsonl_schema_is_stable() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let jsonl = traced_setup(OptimizerMode::Wr, 1);
    let trace = Trace::from_jsonl(&jsonl).expect("trace must re-parse");
    assert!(!trace.events.is_empty());
    // Golden schema: exactly these keys, in this order, on every line.
    for line in jsonl.lines() {
        let v = Value::parse(line).expect("line must be JSON");
        let Value::Obj(pairs) = &v else {
            panic!("line is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec!["ts_us", "dur_us", "cat", "name", "key", "tid", "args"]
        );
    }
    // Logical clock: ranks 0..n, durations and tids zeroed.
    for (i, e) in trace.events.iter().enumerate() {
        assert_eq!(e.ts_us, i as f64);
        assert_eq!(e.dur_us, 0.0);
        assert_eq!(e.tid, 0);
    }
    // The trace explains plans: every decision carries provenance.
    let plans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.cat == "plan" && e.name == "decision")
        .collect();
    assert!(!plans.is_empty(), "no plan decisions traced");
    for p in &plans {
        let prov = p.args.get("provenance").expect("decision lacks provenance");
        assert_eq!(prov.get("optimizer").unwrap().as_str(), Some("wr"));
        assert!(prov.get("candidate_sizes").unwrap().as_usize().unwrap() > 0);
        assert!(p.args.get("config").unwrap().as_str().is_some());
    }
    // Benchmark events ride the single-flight leader: one per kernel miss.
    assert!(trace
        .events
        .iter()
        .any(|e| e.cat == "bench" && e.name == "benchmark"));
}

#[test]
fn chrome_export_is_valid_trace_event_json() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let session = ucudnn::trace::session(ClockMode::Wall);
    let h = handle(OptimizerMode::Wr, 2, 64 * MIB);
    setup_network(&h, &small_net(64)).unwrap();
    let trace = session.finish();
    let chrome = trace.to_chrome_json();
    let v = Value::parse(&chrome).expect("chrome export must parse as JSON");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), trace.events.len());
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        for k in ["name", "cat", "ts", "dur", "pid", "tid", "args"] {
            assert!(e.get(k).is_some(), "chrome event missing {k}");
        }
    }
    assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
}

#[test]
fn metrics_json_golden_schema() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let h = handle(OptimizerMode::Wr, 2, 64 * MIB);
    setup_network(&h, &small_net(64)).unwrap();
    let v = Value::parse(&h.metrics_json()).expect("metrics JSON must parse");
    for k in ["benchmark", "dp", "pareto", "ilp", "total_wall"] {
        assert!(
            v.get("phases_us").unwrap().get(k).is_some(),
            "phases_us.{k} missing"
        );
    }
    assert_eq!(v.get("threads").unwrap().as_usize(), Some(2));
    assert!(v.get("kernels_optimized").unwrap().as_usize().unwrap() > 0);
    for k in [
        "hits",
        "misses",
        "single_flight_waits",
        "bench_points_over_budget",
    ] {
        assert!(
            v.get("cache").unwrap().get(k).is_some(),
            "cache.{k} missing"
        );
    }
    for k in [
        "degradations",
        "faults_injected",
        "bench_points_dropped",
        "db_rows_loaded",
        "db_rows_quarantined",
    ] {
        assert!(
            v.get("robustness").unwrap().get(k).is_some(),
            "robustness.{k} missing"
        );
    }
    assert!(v.get("benchmark_counts").is_some());
}

#[test]
fn plan_provenance_explains_normal_and_degraded_decisions() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let net = small_net(64);

    // Normal WR run: provenance names the optimizer and the search width,
    // and the granted workspace respects the limit.
    let h = handle(OptimizerMode::Wr, 1, 64 * MIB);
    setup_network(&h, &net).unwrap();
    let id = net.conv_layers()[1];
    let g = net.conv_geometry(id);
    let plan = h.plan(ConvOp::Forward, &g).unwrap();
    assert_eq!(plan.provenance.optimizer, "wr");
    assert!(plan.provenance.candidate_sizes > 0);
    assert!(plan.provenance.candidates_kept <= plan.provenance.candidate_sizes);
    assert!(plan.provenance.workspace_granted_bytes <= 64 * MIB);
    assert!(plan.provenance.degradations.is_empty());

    // Every benchmark faulted: the DP has no measurements, so the optimizer
    // has to take the last degradation rung — the undivided zero-workspace
    // configuration — and must say so in the provenance.
    let faults = FaultPlan {
        targets: vec![FaultTarget {
            site: Some(FaultSite::Benchmark),
            ..FaultTarget::any()
        }],
        ..FaultPlan::default()
    };
    let h0 = UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()).with_faults(faults),
        UcudnnOptions {
            policy: BatchSizePolicy::PowerOfTwo,
            workspace_limit_bytes: 64 * MIB,
            mode: OptimizerMode::Wr,
            opt_threads: 1,
            ..Default::default()
        },
    );
    setup_network(&h0, &net).unwrap();
    let plan0 = h0.plan(ConvOp::Forward, &g).unwrap();
    assert!(
        plan0
            .provenance
            .degradations
            .contains(&"undivided_fallback".to_string()),
        "degradations: {:?}",
        plan0.provenance.degradations
    );
    assert_eq!(plan0.provenance.workspace_granted_bytes, 0);

    // WD runs attach ILP provenance: the chosen index and the index WR
    // would have taken.
    let hwd = handle(OptimizerMode::Wd, 1, 64 * MIB);
    setup_network(&hwd, &net).unwrap();
    let planwd = hwd.plan(ConvOp::Forward, &g).unwrap();
    assert_eq!(planwd.provenance.optimizer, "wd");
    assert!(planwd.provenance.ilp_choice.is_some());
    assert!(planwd.provenance.wr_choice.is_some());
    assert!(planwd.provenance.pareto_kept <= planwd.provenance.pareto_generated);
}

/// The trace records each fact once: one `bench/benchmark` event per
/// benchmark the cache ran (its single-flight leader's), and none echoed
/// from the substrate's own calls.
#[test]
fn traces_hold_one_benchmark_event_per_cache_miss() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
        let session = ucudnn::trace::session(ClockMode::Logical);
        let h = handle(mode, 2, 64 * MIB);
        setup_network(&h, &small_net(64)).unwrap();
        let trace = session.finish();
        let benchmarks = trace
            .events
            .iter()
            .filter(|e| e.cat == "bench" && e.name == "benchmark")
            .count() as u64;
        let misses = h.cache_stats().misses;
        assert!(misses > 0, "{mode:?}: nothing was benchmarked");
        assert_eq!(benchmarks, misses, "{mode:?}");
        assert!(
            trace.events.iter().all(|e| e.cat != "substrate"),
            "{mode:?}: substrate calls echoed into the trace"
        );
    }
}

/// A session neither replaces nor removes a call observer the program
/// installed: the substrate's `Find` rows still reach it afterwards.
#[test]
fn sessions_leave_the_call_observer_alone() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use ucudnn_cudnn_sim::{
        set_call_observer, AlgoStatus, ConvolutionDescriptor, FilterDescriptor, TensorDescriptor,
    };
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // A geometry no other test in this binary benchmarks.
    let x = TensorDescriptor::new_4d(7, 3, 11, 13).unwrap();
    let w = FilterDescriptor::new_4d(5, 3, 3, 3).unwrap();
    let c = ConvolutionDescriptor::new_2d(1, 1, 1, 1).unwrap();
    let marker = c.geometry(&x, &w).unwrap().to_string();
    let rows = Arc::new(AtomicUsize::new(0));
    let sink = Arc::clone(&rows);
    set_call_observer(Some(Arc::new(move |e| {
        if e.geometry == marker {
            sink.fetch_add(e.rows, Ordering::Relaxed);
        }
    })));
    ucudnn::trace::session(ClockMode::Wall).finish();
    let h = CudnnHandle::simulated(p100_sxm2());
    let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
    set_call_observer(None);
    let want = perfs
        .iter()
        .filter(|p| p.status != AlgoStatus::OverBudget)
        .count();
    assert!(want > 0);
    assert_eq!(rows.load(Ordering::Relaxed), want);
}
