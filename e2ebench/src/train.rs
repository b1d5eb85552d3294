//! `train`: real-CPU SGD through the μ-cuDNN handle under Workspace Reuse.
//!
//! An AlexNet-shaped CNN sized for CIFAR (3×32×32 inputs, 5×5 then 3×3
//! conv+ReLU layers with pooling, 32→64→128→128 channels, global average
//! pool, FC-10) trains at batch 16 with a 512 KiB per-kernel workspace
//! limit. Set-up is the RealCpu tuner plus the WR dynamic program that
//! `setup_network` triggers.

use crate::checks::{self, StepOutcome};
use crate::estimate::{median, Mix, Paired, RefLoop};
use crate::report::{fingerprint, plan_text, release_free_memory, rss_mib, Report};
use crate::settings::{self, TRAIN_BATCH, TRAIN_CLASSES, TRAIN_LR, TRAIN_WS_LIMIT};
use crate::spans::Tracer;
use crate::timed::{op_index, TimedProvider};
use crate::Args;
use std::cell::RefCell;
use std::time::Instant;
use ucudnn::UcudnnHandle;
use ucudnn_cudnn_sim::ConvOp;
use ucudnn_framework::{
    setup_network, sgd_step, softmax_cross_entropy, BaselineCudnn, ConvProvider, LayerSpec,
    NetworkDef, ProviderError, RealExecutor, SyntheticDataset,
};
use ucudnn_tensor::Shape4;

/// Fewest training steps per run, however short `--seconds` is: over fewer
/// steps minibatch noise can hide the loss decrease the correctness check
/// needs (see [`checks::loss_decreased`]).
const MIN_STEPS: usize = 60;

/// The CIFAR-sized AlexNet-shaped network at batch `n`.
pub fn network(n: usize) -> NetworkDef {
    let mut net = NetworkDef::new("cifar-alexnet", Shape4::new(n, 3, 32, 32));
    let pool = |net: &mut NetworkDef, name: &str, x| {
        let spec = LayerSpec::Pool {
            max: true,
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        net.add(name, spec, &[x])
    };
    let c1 = net.conv_relu("conv1", net.input(), 32, 5, 1, 2);
    let p1 = pool(&mut net, "pool1", c1);
    let c2 = net.conv_relu("conv2", p1, 64, 3, 1, 1);
    let p2 = pool(&mut net, "pool2", c2);
    let c3 = net.conv_relu("conv3", p2, 128, 3, 1, 1);
    let c4 = net.conv_relu("conv4", c3, 128, 3, 1, 1);
    let gap = net.add("gap", LayerSpec::GlobalAvgPool, &[c4]);
    net.add(
        "fc",
        LayerSpec::FullyConnected { out: TRAIN_CLASSES },
        &[gap],
    );
    net
}

/// One SGD step (data, forward, loss, backward, update); returns the step's
/// outcome. `tracer` wraps each phase in a `framework.*` span.
pub fn step(
    exec: &mut RealExecutor,
    provider: &impl ConvProvider,
    data: &mut SyntheticDataset,
    tracer: Option<&Tracer>,
) -> Result<StepOutcome, ProviderError> {
    fn span<R>(t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
        match t {
            Some(t) => t.span(name, f),
            None => f(),
        }
    }
    let n = exec.net().batch();
    let (x, labels) = span(tracer, "framework.data", || data.batch(n));
    let acts = span(tracer, "framework.forward", || exec.forward(provider, &x))?;
    let logits = acts.last().expect("the network has an output node");
    let (loss, dlogits) = softmax_cross_entropy(logits, &labels);
    let (grads, dx) = span(tracer, "framework.backward", || {
        exec.backward(provider, &acts, &dlogits)
    })?;
    span(tracer, "framework.sgd", || sgd_step(exec, &grads, TRAIN_LR));
    Ok(StepOutcome { loss, dx, grads })
}

/// A fresh WR handle, tuned for `net` through a [`TimedProvider`].
fn tuned_handle(
    net: &NetworkDef,
    tracer: Option<&Tracer>,
    reference: &RefCell<RefLoop>,
) -> Result<(UcudnnHandle, Vec<crate::timed::KernelSetup>), ProviderError> {
    let h = UcudnnHandle::new(settings::cpu_handle(), settings::train_options());
    let timed = TimedProvider::new(&h, tracer, Some(reference));
    setup_network(&timed, net)?;
    let setups = timed.setups();
    Ok((h, setups))
}

/// One step from fresh parameters and data, for the correctness check.
fn first_step(
    net: &NetworkDef,
    provider: &impl ConvProvider,
    seed: u64,
) -> Result<StepOutcome, ProviderError> {
    let mut exec = RealExecutor::new(net.clone(), seed);
    let sample = net.input_shape().with_batch(1);
    let mut data = SyntheticDataset::new(sample, TRAIN_CLASSES, seed ^ 0x5eed);
    step(&mut exec, provider, &mut data, None)
}

/// Correctness: one step through the WR handle equals the same step through
/// an unlimited plain-cuDNN baseline.
fn check_against_baseline(report: &mut Report, h: &UcudnnHandle, net: &NetworkDef, seed: u64) {
    let baseline = BaselineCudnn::new(settings::cpu_handle(), usize::MAX);
    let verdict = match (first_step(net, h, seed), first_step(net, &baseline, seed)) {
        (Ok(got), Ok(reference)) => checks::step_matches(&got, &reference),
        (got, reference) => Err(format!(
            "step failed: wr {:?}, baseline {:?}",
            got.err(),
            reference.err()
        )),
    };
    let (ok, detail) = match verdict {
        Ok(d) => (true, d),
        Err(d) => (false, d),
    };
    report.check("train.step_matches_unlimited_baseline", ok, detail);
}

fn print_plan(h: &UcudnnHandle) -> usize {
    let text = plan_text(h);
    let report = h.memory_report();
    let divided = report.iter().filter(|(_, c, _)| !c.is_undivided()).count();
    println!(
        "plan fingerprint {} ({divided} of {} kernels divided, workspace {} B)",
        fingerprint(&text),
        report.len(),
        h.total_workspace_bytes()
    );
    for line in text.lines() {
        println!("  plan {line}");
    }
    divided
}

/// Run the workload; untraced runs fill the end-to-end metrics, traced runs
/// the per-layer ones.
pub fn run(args: &Args, report: &mut Report) -> Result<(), ProviderError> {
    let net = network(TRAIN_BATCH);
    let reference = RefCell::new(RefLoop::new());
    reference.borrow_mut().sample(); // warm the reference buffers
    let tracer = args.trace.then(Tracer::new);

    let (h, setups) = tuned_handle(&net, tracer.as_ref(), &reference)?;
    let mut setup = Paired::new(Mix::Whole);
    for s in &setups {
        let r = s
            .reference
            .expect("set-ups are bracketed by reference samples");
        setup.push(s.secs, &r);
    }
    for (k, n) in setups.iter().zip(setup.normalised()) {
        println!(
            "  set-up {:?} {}: raw {:.4} s, normalised {n:.4} s",
            k.op, k.geometry, k.secs
        );
    }
    let setup_s: f64 = setup.normalised().iter().sum();
    let raw_setup_s: f64 = setup.raw.iter().sum();
    println!(
        "setup: {} kernels; estimate {setup_s:.4} s (sum of per-kernel reference-normalised set-ups), raw {raw_setup_s:.4} s",
        setups.len()
    );
    let divided = print_plan(&h);
    check_against_baseline(report, &h, &net, args.seed);
    if let Some(tracer) = &tracer {
        return run_traced(args, report, &net, &h, &setups, divided, tracer, &reference);
    }

    let sample = net.input_shape().with_batch(1);
    let mut exec = RealExecutor::new(net.clone(), args.seed);
    let mut data = SyntheticDataset::new(sample, TRAIN_CLASSES, args.seed);
    let mut losses = Vec::new();
    let mut failed = 0u64;
    release_free_memory();
    let mut peak_rss = rss_mib();
    let start = Instant::now();
    let mut steps = Paired::new(Mix::Whole);
    while steps.len() < MIN_STEPS || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let r = step(&mut exec, &h, &mut data, None);
        let secs = t0.elapsed().as_secs_f64();
        match r {
            Ok(o) => {
                losses.push(o.loss);
                steps.push(secs, &reference.borrow_mut().sample());
            }
            Err(e) => {
                failed += 1;
                println!("step failed: {e}");
                if failed > 3 {
                    break;
                }
            }
        }
        peak_rss = peak_rss.max(rss_mib());
    }
    report.operations(steps.len() as u64 + failed, failed);
    record_loss_check(report, &losses);

    let step_s = steps.estimate_s();
    println!("step: {}", steps.summary_ms());
    println!(
        "samples/s: estimate {:.3}, raw {:.3}",
        TRAIN_BATCH as f64 / step_s,
        TRAIN_BATCH as f64 / steps.raw_median_s()
    );
    println!("reference loop: {}", reference.borrow().summary());
    println!("peak RSS during training: {peak_rss:.2} MiB");
    report.metric("setup_s", setup_s);
    report.metric("latency_p50_ms", step_s * 1e3);
    report.metric("throughput_per_s", TRAIN_BATCH as f64 / step_s);
    report.metric("peak_rss_mib", peak_rss);
    Ok(())
}

fn record_loss_check(report: &mut Report, losses: &[f64]) {
    let (ok, detail) = match checks::loss_decreased(losses) {
        Ok(d) => (true, d),
        Err(d) => (false, d),
    };
    report.check("train.loss_finite_and_decreasing", ok, detail);
}

#[allow(clippy::too_many_arguments)]
fn run_traced(
    args: &Args,
    report: &mut Report,
    net: &NetworkDef,
    h: &UcudnnHandle,
    setups: &[crate::timed::KernelSetup],
    divided: usize,
    tracer: &Tracer,
    reference: &RefCell<RefLoop>,
) -> Result<(), ProviderError> {
    // Set-up breakdown of the first tuning.
    let tune_s: f64 = setups.iter().map(|s| s.secs).sum();
    let cache = h.cache_stats();
    let timings = h.metrics().timings();
    report.metric("core.tune_s", tune_s);
    report.metric("core.bench_hits", cache.hits as f64);
    report.metric("core.bench_misses", cache.misses as f64);
    report.metric("core.find_s", timings.benchmark_us as f64 * 1e-6);
    report.metric("core.dp_s", timings.dp_us as f64 * 1e-6);

    // A second, independent cold tuning: how many kernels get the same
    // division and algorithms (the measured times always differ).
    let (h2, _) = tuned_handle(net, None, reference)?;
    let (a, b) = (h.memory_report(), h2.memory_report());
    let same = a
        .iter()
        .zip(&b)
        .filter(|((ka, ca, _), (kb, cb, _))| ka == kb && ca.describe() == cb.describe())
        .count();
    println!(
        "plan repeat: {same} of {} kernels planned identically by a second cold tuning (fingerprint {})",
        a.len(),
        fingerprint(&plan_text(&h2))
    );
    report.metric("core.plan_repeat_ratio", same as f64 / a.len() as f64);
    drop(h2);
    report.metric("core.divided_kernels", divided as f64);
    println!("divided kernels: {divided} of {}", a.len());
    report.metric(
        "core.workspace_mib",
        h.total_workspace_bytes() as f64 / (1 << 20) as f64,
    );

    // Plain cuDNN at the same per-kernel limit, for the speed-up.
    let baseline = BaselineCudnn::new(settings::cpu_handle(), TRAIN_WS_LIMIT);
    setup_network(&baseline, net)?;

    // Interleave traced WR steps, untraced WR steps and baseline steps so
    // host phases hit all three alike.
    let timed = TimedProvider::new(h, Some(tracer), None);
    let sample = net.input_shape().with_batch(1);
    let fresh = || {
        (
            RealExecutor::new(net.clone(), args.seed),
            SyntheticDataset::new(sample, TRAIN_CLASSES, args.seed),
        )
    };
    let (mut ex_t, mut d_t) = fresh();
    let (mut ex_u, mut d_u) = fresh();
    let (mut ex_b, mut d_b) = fresh();
    let (mut traced, mut untraced, mut base) = (Vec::new(), Vec::new(), Vec::new());
    let (mut launches, mut hits, mut lookups) = (0u64, 0u64, 0u64);
    let mut losses = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while traced.len() < MIN_STEPS || start.elapsed().as_secs_f64() < args.seconds {
        let k0 = h.inner().kernels_launched();
        let c0 = h.inner().exec_cache_stats();
        let t0 = Instant::now();
        let r = tracer.span("framework.step", || {
            step(&mut ex_t, &timed, &mut d_t, Some(tracer))
        });
        let secs = t0.elapsed().as_secs_f64();
        let c1 = h.inner().exec_cache_stats();
        launches += h.inner().kernels_launched() - k0;
        hits += c1.hits - c0.hits;
        lookups += (c1.hits + c1.misses) - (c0.hits + c0.misses);
        match r {
            Ok(o) => {
                traced.push(secs);
                losses.push(o.loss);
            }
            Err(e) => {
                failed += 1;
                println!("traced step failed: {e}");
            }
        }
        let t0 = Instant::now();
        match step(&mut ex_u, h, &mut d_u, None) {
            Ok(_) => untraced.push(t0.elapsed().as_secs_f64()),
            Err(_) => failed += 1,
        }
        let t0 = Instant::now();
        match step(&mut ex_b, &baseline, &mut d_b, None) {
            Ok(_) => base.push(t0.elapsed().as_secs_f64()),
            Err(_) => failed += 1,
        }
        if failed > 3 {
            break;
        }
    }
    report.operations(
        (traced.len() + untraced.len() + base.len()) as u64 + failed,
        failed,
    );
    record_loss_check(report, &losses);

    let n = traced.len().max(1) as f64;
    let per_step_ms = |name: &str| tracer.total_s(name) * 1e3 / n;
    let work = timed.work();
    let conv_ms: f64 = work.iter().map(|w| w.secs * 1e3 / n).sum();
    report.metric("framework.forward_ms", per_step_ms("framework.forward"));
    report.metric("framework.backward_ms", per_step_ms("framework.backward"));
    report.metric("framework.sgd_ms", per_step_ms("framework.sgd"));
    report.metric("framework.data_ms", per_step_ms("framework.data"));
    report.metric(
        "framework.aux_ms",
        per_step_ms("framework.forward") + per_step_ms("framework.backward") - conv_ms,
    );
    let ops = [
        (
            ConvOp::Forward,
            "core.conv_fwd_ms",
            "conv.gflops_fwd",
            "core.pred_over_obs_fwd",
        ),
        (
            ConvOp::BackwardData,
            "core.conv_bwd_data_ms",
            "conv.gflops_bwd_data",
            "core.pred_over_obs_bwd_data",
        ),
        (
            ConvOp::BackwardFilter,
            "core.conv_bwd_filter_ms",
            "conv.gflops_bwd_filter",
            "core.pred_over_obs_bwd_filter",
        ),
    ];
    for (op, ms, gflops, pred) in ops {
        let w = work[op_index(op)];
        report.metric(ms, w.secs * 1e3 / n);
        report.metric(gflops, 2.0 * w.macs / w.secs / 1e9);
        let predicted_us: f64 = net
            .conv_layers()
            .into_iter()
            .filter_map(|id| h.plan(op, &net.conv_geometry(id)))
            .map(|p| p.config.time_us())
            .sum();
        let observed_us = w.secs * 1e6 / n;
        println!("{op:?}: predicted {predicted_us:.1} us/step, observed {observed_us:.1} us/step");
        report.metric(pred, predicted_us / observed_us);
    }
    report.metric("cudnn-sim.launches_per_step", launches as f64 / n);
    println!("exec plan cache over traced steps: {hits} hits of {lookups} lookups");
    report.metric(
        "cudnn-sim.exec_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    let (mt, mu, mb) = (median(&traced), median(&untraced), median(&base));
    println!(
        "interleaved steps: traced {:.3} ms, untraced {:.3} ms, baseline at {} KiB {:.3} ms (medians of {} each)",
        mt * 1e3,
        mu * 1e3,
        TRAIN_WS_LIMIT >> 10,
        mb * 1e3,
        traced.len()
    );
    report.metric("core.baseline_speedup", mb / mu);
    report.metric("bench.trace_overhead", mt / mu);
    tracer.finish("train");
    Ok(())
}
