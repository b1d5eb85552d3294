//! `ucudnn-report`: render a profiling report from a μ-cuDNN trace.
//!
//! ```text
//! ucudnn-report <trace.jsonl> [--chrome <out.json>]   # report an existing trace
//! ucudnn-report <trace.jsonl> --request <id>          # one request's timeline
//! ucudnn-report --demo                                # trace a run, then report it
//! ```
//!
//! `--request <id>` switches to the request-correlated view: instead of the
//! aggregate profile, print the admission → batch → micro-batch → response
//! timeline of one serving request, reconstructed from the `req{id}` trace
//! keys and the `ids` lists stamped on batch/micro events.
//!
//! `--demo` traces a small AlexNet optimize+time run on the simulated P100
//! plus a few real SGD steps, writes `demo_trace.jsonl` and
//! `demo_trace.chrome.json` under the results directory, renders the report,
//! and exits non-zero if any artifact fails to round-trip — the CI smoke
//! check for the whole observability pipeline.

use std::process::ExitCode;
use ucudnn::json::Value;
use ucudnn::{ClockMode, Trace, UcudnnHandle, UcudnnOptions};
use ucudnn_bench::report::TraceReport;
use ucudnn_bench::{results_dir, MIB};
use ucudnn_cudnn_sim::CudnnHandle;
use ucudnn_framework::{
    alexnet, time_command, train, LayerSpec, NetworkDef, RealExecutor, SyntheticDataset,
};
use ucudnn_gpu_model::p100_sxm2;
use ucudnn_tensor::Shape4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--demo") => demo(),
        Some(path) if !path.starts_with("--") => {
            let mut chrome_out = None;
            let mut request = None;
            let mut rest = args[1..].iter();
            loop {
                match rest.next().map(String::as_str) {
                    None => break,
                    Some("--chrome") => match rest.next() {
                        Some(p) => chrome_out = Some(p.clone()),
                        None => return usage(),
                    },
                    Some("--request") => match rest.next().and_then(|s| s.parse::<u64>().ok()) {
                        Some(id) => request = Some(id),
                        None => return usage(),
                    },
                    Some(_) => return usage(),
                }
            }
            report_file(path, chrome_out.as_deref(), request)
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ucudnn-report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: ucudnn-report <trace.jsonl> [--chrome <out.json>] [--request <id>] | --demo");
    ExitCode::FAILURE
}

/// Report an existing JSONL trace; optionally also export Chrome JSON.
/// With `--request`, print that one request's timeline instead of the
/// aggregate profile.
fn report_file(path: &str, chrome_out: Option<&str>, request: Option<u64>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = Trace::from_jsonl(&text).ok_or_else(|| format!("{path}: malformed trace"))?;
    if let Some(id) = request {
        let timeline = ucudnn_bench::report::request_timeline(&trace, id)
            .ok_or_else(|| format!("request {id} does not appear in {path}"))?;
        print!("{timeline}");
        return Ok(());
    }
    print!("{}", TraceReport::from_trace(&trace).render());
    if let Some(out) = chrome_out {
        std::fs::write(out, trace.to_chrome_json())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("[chrome] wrote {out}");
    }
    Ok(())
}

/// The traced workload: optimize+time a small AlexNet on the simulated P100
/// (WR, 64 MiB — divides conv2), then a few real SGD steps on a tiny
/// classifier so training-layer spans and the workspace high-water mark
/// appear too.
fn traced_workload() -> Result<(), String> {
    let net = alexnet(64);
    let mu = UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()),
        UcudnnOptions {
            workspace_limit_bytes: 64 * MIB,
            ..Default::default()
        },
    );
    let timed = time_command(&mu, &net, 2).map_err(|e| e.to_string())?;
    println!("{}", timed.render());

    let mut tnet = NetworkDef::new("demo-clf", Shape4::new(8, 2, 8, 8));
    let c1 = tnet.conv_relu("conv1", tnet.input(), 6, 3, 1, 1);
    let gap = tnet.add("gap", LayerSpec::GlobalAvgPool, &[c1]);
    tnet.add("fc", LayerSpec::FullyConnected { out: 3 }, &[gap]);
    let mut exec = RealExecutor::new(tnet, 42);
    let cpu = UcudnnHandle::new(
        CudnnHandle::real_cpu(),
        UcudnnOptions {
            workspace_limit_bytes: MIB,
            ..Default::default()
        },
    );
    let mut data = SyntheticDataset::new(Shape4::new(1, 2, 8, 8), 3, 7);
    train(&mut exec, &cpu, &mut data, 3, 0.1).map_err(|e| e.to_string())?;
    Ok(())
}

fn demo() -> Result<(), String> {
    let dir = results_dir();
    let jsonl_path = dir.join("demo_trace.jsonl");
    let session = ucudnn::trace::session(ClockMode::Wall);
    let workload = traced_workload();
    let trace = session.finish();
    std::fs::write(&jsonl_path, trace.to_jsonl())
        .map_err(|e| format!("cannot write trace: {e}"))?;
    workload?;

    // The trace file must re-parse...
    let text =
        std::fs::read_to_string(&jsonl_path).map_err(|e| format!("trace file missing: {e}"))?;
    let reparsed = Trace::from_jsonl(&text).ok_or("written JSONL trace does not re-parse")?;
    if reparsed.events.len() != trace.events.len() {
        return Err("re-parsed trace lost events".to_string());
    }

    // ...the report must actually explain plans and executions...
    let report = TraceReport::from_trace(&trace);
    print!("{}", report.render());
    println!("[trace] wrote {}", jsonl_path.display());
    if report.kernels.is_empty() {
        return Err("no plan decisions in demo trace".to_string());
    }
    if report.execs.is_empty() {
        return Err("no micro-batch launches in demo trace".to_string());
    }
    if report.layers.is_empty() {
        return Err("no training-layer spans in demo trace".to_string());
    }

    // ...and the Chrome export must be valid trace-event JSON.
    let chrome_path = dir.join("demo_trace.chrome.json");
    let chrome = trace.to_chrome_json();
    std::fs::write(&chrome_path, &chrome).map_err(|e| format!("cannot write chrome: {e}"))?;
    let parsed = Value::parse(&chrome).ok_or("chrome export is not valid JSON")?;
    let n = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .map(<[Value]>::len)
        .ok_or("chrome export lacks traceEvents")?;
    if n != trace.events.len() {
        return Err(format!(
            "chrome export has {n} events, trace has {}",
            trace.events.len()
        ));
    }
    println!("[chrome] wrote {} ({n} events)", chrome_path.display());
    Ok(())
}
