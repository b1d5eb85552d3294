//! Self-tests of the benchmark: short runs of every workload print exactly
//! the metrics `BENCHMARK.json` names, with its units, and every
//! correctness check rejects a deliberately wrong reference.

use std::path::Path;
use std::process::{Command, Output};
use ucudnn::json::Value;
use ucudnn_e2ebench::checks::{self, StepOutcome};
use ucudnn_e2ebench::report::{END_TO_END, PER_LAYER};
use ucudnn_e2ebench::{plan_wd, settings, train, WORKLOADS};
use ucudnn_framework::{setup_network, BaselineCudnn, Params, RealExecutor, SyntheticDataset};
use ucudnn_serve::{BatchRunner, RealModelRunner};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn benchmark_json(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let v = Value::parse(&text).expect("BENCHMARK.json parses");
    v.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ucudnn-e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

/// The metrics of the result line, as `(name, unit)`, after checking the
/// line's shape.
fn result_metrics(out: &Output) -> Vec<(String, String)> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "run failed:\n{stdout}");
    let last = stdout.lines().last().expect("output");
    let v = Value::parse(last).expect("last line is JSON");
    let Value::Obj(fields) = &v else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert!(v.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some());
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn vocabulary_matches_benchmark_json() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(benchmark_json("end_to_end"), e2e);
    assert_eq!(benchmark_json("per_layer"), layers);
}

#[test]
fn short_runs_print_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        let untraced = result_metrics(&run(workload, false));
        assert_eq!(
            untraced,
            benchmark_json("end_to_end"),
            "{workload} untraced"
        );
        let traced = result_metrics(&run(workload, true));
        assert_eq!(traced, benchmark_json("per_layer"), "{workload} traced");
    }
}

#[test]
fn refuses_to_run_with_ucudnn_variables_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_ucudnn-e2ebench"))
        .args(["--workload", "plan_wd", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .env("UCUDNN_EXEC_THREADS", "1")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}

fn perturb_first_weight(grads: &mut [Params]) {
    for p in grads {
        if let Params::Conv { w, .. } | Params::Fc { w, .. } = p {
            w[0] += 0.5;
            return;
        }
    }
    panic!("no weights to perturb");
}

#[test]
fn step_check_rejects_a_wrong_reference() {
    let net = train::network(2);
    let provider = BaselineCudnn::new(settings::cpu_handle(), usize::MAX);
    setup_network(&provider, &net).unwrap();
    let mut exec = RealExecutor::new(net.clone(), 5);
    let sample = net.input_shape().with_batch(1);
    let mut data = SyntheticDataset::new(sample, settings::TRAIN_CLASSES, 5);
    let reference: StepOutcome = train::step(&mut exec, &provider, &mut data, None).unwrap();
    assert!(checks::step_matches(&reference, &reference).is_ok());

    let mut wrong = reference.clone();
    wrong.loss += 0.1;
    assert!(checks::step_matches(&reference, &wrong).is_err(), "loss");
    let mut wrong = reference.clone();
    wrong.dx.as_mut_slice()[0] += 0.5;
    assert!(
        checks::step_matches(&reference, &wrong).is_err(),
        "input gradient"
    );
    let mut wrong = reference.clone();
    perturb_first_weight(&mut wrong.grads);
    assert!(
        checks::step_matches(&reference, &wrong).is_err(),
        "parameter gradient"
    );
    assert!(checks::loss_decreased(&[2.3, 2.3, 2.4]).is_err());
}

#[test]
fn wd_check_rejects_a_wrong_reference() {
    let net = ucudnn_framework::densenet40(settings::WD_BATCH, settings::WD_GROWTH);
    let h = plan_wd::plan_once(&net).unwrap();
    let plan = h.wd_plan().unwrap();
    let mult: Vec<usize> = plan
        .assignments
        .iter()
        .map(|a| {
            h.plan(a.kernel.conv_op(), &a.kernel.geometry())
                .unwrap()
                .multiplicity
        })
        .collect();
    let zero: Vec<f64> = plan
        .assignments
        .iter()
        .map(|a| plan_wd::zero_workspace_us(h.inner(), &a.kernel).unwrap())
        .collect();
    let budget = settings::WD_BUDGET;
    assert!(checks::wd_plan_valid(&plan, budget, &mult, &zero).is_ok());

    let fast_zero: Vec<f64> = zero.iter().map(|t| t * 0.5).collect();
    assert!(checks::wd_plan_valid(&plan, budget, &mult, &fast_zero).is_err());
    assert!(checks::wd_plan_valid(&plan, budget / 4, &mult, &zero).is_err());
    let mut untiled = plan.clone();
    let a = untiled
        .assignments
        .iter_mut()
        .find(|a| a.config.micros.len() > 1)
        .expect("some kernel is divided");
    a.config.micros.pop();
    assert!(checks::wd_plan_valid(&untiled, budget, &mult, &zero).is_err());
}

#[test]
fn reply_check_rejects_a_wrong_reference() {
    let runner = RealModelRunner::new(settings::cpu_handle(), 7, settings::SERVE_MAX_BATCH);
    let inputs: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            (0..runner.sample_len())
                .map(|j| ((i * 31 + j * 7) % 17) as f32 / 17.0 - 0.5)
                .collect()
        })
        .collect();
    let argmax: Vec<usize> = inputs
        .iter()
        .map(|x| checks::argmax_with_margin(&runner.run(1, x).unwrap()).0)
        .collect();
    let batch: Vec<f32> = inputs.concat();
    let out = runner.run(inputs.len(), &batch).unwrap();
    let replies: Vec<(usize, usize)> = out
        .chunks(runner.output_len())
        .enumerate()
        .map(|(i, o)| (i, checks::argmax_with_margin(o).0))
        .collect();
    assert!(checks::replies_match(&replies, &argmax).is_ok());
    let wrong: Vec<usize> = argmax
        .iter()
        .map(|a| (a + 1) % runner.output_len())
        .collect();
    assert!(checks::replies_match(&replies, &wrong).is_err());
}
