//! `plan_wd`: cold Workspace Division planning of DenseNet-40 (k = 40, the
//! paper's Fig. 11 network) at batch 64 on the simulated P100, `all`
//! policy, 128 MiB total workspace.
//!
//! Every planning uses a fresh handle (and so a fresh benchmark cache). The
//! simulated costs make the plan deterministic; the wall time is the
//! Pareto/desirable-set construction and the ILP. After planning, the WD
//! plan is replayed through the handle on the simulated device: the wall
//! time of one replayed iteration is the wrapper's host-side dispatch cost.

use crate::checks;
use crate::estimate::{median, Mix, Paired, RefLoop, RefSample};
use crate::report::{fingerprint, rss_mib, Report};
use crate::settings::{self, WD_BATCH, WD_BUDGET, WD_GROWTH};
use crate::spans::Tracer;
use crate::timed::{op_index, TimedProvider};
use crate::Args;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ucudnn::{desirable_set, optimize_wd_weighted, BenchCache, KernelKey, UcudnnHandle, WdPlan};
use ucudnn_cudnn_sim::{
    set_call_observer, AlgoStatus, CallSite, ConvOp, ConvolutionDescriptor, CudnnHandle,
    FilterDescriptor, TensorDescriptor,
};
use ucudnn_framework::{densenet40, setup_network, time_iteration, NetworkDef, ProviderError};
use ucudnn_gpu_model::p100_sxm2;

/// Share of the run spent on plannings; the rest replays the plan.
const PLANNING_SHARE: f64 = 0.6;
/// Target wall time of one replay slice, seconds.
const REPLAY_SLICE_S: f64 = 0.02;
/// Traced replays per traced run; each records ~360 spans, kept in memory.
const TRACED_REPLAYS: usize = 500;

/// Modeled times agree up to the rounding of the handle's accumulating
/// virtual clock.
fn same_time(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn sim_handle() -> CudnnHandle {
    CudnnHandle::simulated(p100_sxm2())
}

/// One cold planning: a fresh handle, then `setup_network`.
pub fn plan_once(net: &NetworkDef) -> Result<UcudnnHandle, ProviderError> {
    let h = UcudnnHandle::new(sim_handle(), settings::wd_options());
    setup_network(&h, net)?;
    Ok(h)
}

/// Render a WD assignment, one kernel per line.
fn wd_plan_text(plan: &WdPlan) -> String {
    let mut text: String = plan
        .assignments
        .iter()
        .map(|a| format!("{} {} @{}\n", a.kernel, a.config.describe(), a.offset_bytes))
        .collect();
    text.push_str(&format!("total {}\n", plan.total_workspace_bytes));
    text
}

/// The kernels `setup_network` registers, folded with their multiplicity
/// (as the handle folds them).
fn weighted_kernels(net: &NetworkDef) -> Vec<(KernelKey, usize)> {
    let mut counts: Vec<(KernelKey, usize)> = Vec::new();
    for id in net.conv_layers() {
        let g = net.conv_geometry(id);
        let mut ops = vec![ConvOp::Forward];
        if net.needs_backward_data(id) {
            ops.push(ConvOp::BackwardData);
        }
        ops.push(ConvOp::BackwardFilter);
        for op in ops {
            let k = KernelKey::new(op, &g);
            match counts.iter_mut().find(|(kk, _)| *kk == k) {
                Some((_, c)) => *c += 1,
                None => counts.push((k, 1)),
            }
        }
    }
    counts
}

/// Fastest undivided zero-workspace time of a kernel on `h`'s device.
pub fn zero_workspace_us(h: &CudnnHandle, k: &KernelKey) -> Result<f64, ProviderError> {
    let g = k.geometry();
    let x = TensorDescriptor::from_shape(g.input)?;
    let w = FilterDescriptor::from_shape(g.filter)?;
    let c = ConvolutionDescriptor::new_2d(g.pad_h, g.pad_w, g.stride_h, g.stride_w)?;
    Ok(h.find_algorithms(k.conv_op(), &x, &w, &c)?
        .iter()
        .filter(|p| p.status == AlgoStatus::Success && p.memory_bytes == 0)
        .map(|p| p.time_us)
        .fold(f64::INFINITY, f64::min))
}

/// Correctness of one plan: budget, tiling, objective against zero
/// workspace.
fn check_plan(report: &mut Report, h: &UcudnnHandle) -> Result<(), ProviderError> {
    let Some(plan) = h.wd_plan() else {
        report.check("plan_wd.plan_valid", false, "no WD plan after set-up");
        return Ok(());
    };
    let mut mult = Vec::new();
    let mut zero = Vec::new();
    for a in &plan.assignments {
        let p = h.plan(a.kernel.conv_op(), &a.kernel.geometry());
        mult.push(p.map_or(0, |p| p.multiplicity));
        zero.push(zero_workspace_us(h.inner(), &a.kernel)?);
    }
    let (ok, detail) = match checks::wd_plan_valid(&plan, WD_BUDGET, &mult, &zero) {
        Ok(d) => (true, d),
        Err(d) => (false, d),
    };
    report.check("plan_wd.plan_valid", ok, detail);
    Ok(())
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), ProviderError> {
    let net = densenet40(WD_BATCH, WD_GROWTH);
    let mut reference = RefLoop::new();
    reference.sample();
    if args.trace {
        return run_traced(args, report, &net);
    }
    let start = Instant::now();
    let mut peak_rss = rss_mib();
    let mut plannings = Paired::new(Mix::Whole);
    let mut first: Option<(String, f64)> = None;
    let (mut failed, mut differing) = (0u64, 0u64);
    let mut last = None;
    while plannings.len() < 2 || start.elapsed().as_secs_f64() < PLANNING_SHARE * args.seconds {
        let before = reference.sample();
        let t0 = Instant::now();
        let planned = plan_once(&net);
        let secs = t0.elapsed().as_secs_f64();
        let after = reference.sample();
        peak_rss = peak_rss.max(rss_mib());
        let h = match planned {
            Ok(h) => h,
            Err(e) => {
                failed += 1;
                println!("planning failed: {e}");
                if failed > 2 {
                    break;
                }
                continue;
            }
        };
        plannings.push(secs, &RefSample::mean(&before, &after));
        let text = h.wd_plan().map(|p| wd_plan_text(&p)).unwrap_or_default();
        let modeled = time_iteration(&h, &net)?.total_us();
        match &first {
            None => {
                println!(
                    "plan fingerprint {}, modeled iteration {:.3} ms",
                    fingerprint(&text),
                    modeled * 1e-3
                );
                check_plan(report, &h)?;
                first = Some((text, modeled));
            }
            Some((t, m)) if *t != text || !same_time(*m, modeled) => differing += 1,
            Some(_) => {}
        }
        last = Some(h);
    }
    report.operations(plannings.len() as u64 + failed, failed);
    report.check(
        "plan_wd.plannings_identical",
        differing == 0 && plannings.len() >= 2,
        format!(
            "{differing} of {} plannings differ from the first",
            plannings.len()
        ),
    );
    let Some(h) = last else {
        return Ok(());
    };
    let modeled = first.as_ref().map_or(f64::NAN, |f| f.1);

    // Replay the plan: slices of whole simulated iterations.
    let t0 = Instant::now();
    time_iteration(&h, &net)?;
    let per_iter = t0.elapsed().as_secs_f64();
    let k = ((REPLAY_SLICE_S / per_iter).ceil() as usize).max(1);
    let mut replay = Paired::new(Mix::Whole);
    let mut replay_differ = 0u64;
    while replay.len() < 5 || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        for _ in 0..k {
            if !same_time(time_iteration(&h, &net)?.total_us(), modeled) {
                replay_differ += 1;
            }
        }
        let secs = t0.elapsed().as_secs_f64() / k as f64;
        replay.push(secs, &reference.sample());
    }
    report.operations((replay.len() * k) as u64, replay_differ);
    peak_rss = peak_rss.max(rss_mib());

    println!("planning: {}", plannings.summary_ms());
    println!(
        "replayed iteration ({k} per slice): {}",
        replay.summary_ms()
    );
    println!("reference loop: {}", reference.summary());
    println!("peak RSS while planning and replaying: {peak_rss:.2} MiB");
    let iter_s = replay.estimate_s();
    report.metric("setup_s", plannings.estimate_s());
    report.metric("latency_p50_ms", iter_s * 1e3);
    report.metric("throughput_per_s", WD_BATCH as f64 / iter_s);
    report.metric("peak_rss_mib", peak_rss);
    Ok(())
}

fn run_traced(args: &Args, report: &mut Report, net: &NetworkDef) -> Result<(), ProviderError> {
    let tracer = Tracer::new();

    // The planning decomposed into its public calls: one desirable set per
    // unique kernel, then the ILP over them.
    let counts = weighted_kernels(net);
    let sim = sim_handle();
    let cache = BenchCache::new();
    let rows = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&rows);
    set_call_observer(Some(Arc::new(move |ev| {
        if ev.site == CallSite::Find {
            counter.fetch_add(ev.rows as u64, Ordering::Relaxed);
        }
    })));
    let mut points = 0usize;
    for (k, _) in &counts {
        let set = tracer.span("core.pareto", || {
            desirable_set(&sim, &cache, k, WD_BUDGET, settings::wd_options().policy)
        });
        points += set.len();
    }
    set_call_observer(None);
    let plan = tracer.span("lp.optimize_wd", || {
        optimize_wd_weighted(
            &sim,
            &cache,
            &counts,
            WD_BUDGET,
            settings::wd_options().policy,
        )
    })?;
    report.metric("core.pareto_ms", tracer.total_s("core.pareto") * 1e3);
    report.metric("core.pareto_points", points as f64);
    report.metric("lp.ilp_ms", plan.ilp_solve_us * 1e-3);
    report.metric("lp.ilp_vars", plan.ilp_variables as f64);
    report.metric("lp.bb_nodes", plan.ilp_nodes as f64);
    report.metric("gpu-model.find_calls", rows.load(Ordering::Relaxed) as f64);
    report.metric(
        "core.wd_workspace_mib",
        plan.total_workspace_bytes as f64 / (1 << 20) as f64,
    );
    println!(
        "decomposed planning: {} unique kernels, {points} desirable configurations, desirable sets {:.1} ms, optimize_wd {:.1} ms (ILP {:.1} ms)",
        counts.len(),
        tracer.total_s("core.pareto") * 1e3,
        tracer.total_s("lp.optimize_wd") * 1e3,
        plan.ilp_solve_us * 1e-3
    );

    // The same planning through the handle must give the same assignment.
    let h = plan_once(net)?;
    check_plan(report, &h)?;
    let handle_text = h.wd_plan().map(|p| wd_plan_text(&p)).unwrap_or_default();
    report.check(
        "plan_wd.handle_matches_direct",
        handle_text == wd_plan_text(&plan),
        format!(
            "handle {} vs direct {}",
            fingerprint(&handle_text),
            fingerprint(&wd_plan_text(&plan))
        ),
    );
    let cache_stats = h.cache_stats();
    let timings = h.metrics().timings();
    report.metric("core.bench_hits", cache_stats.hits as f64);
    report.metric("core.bench_misses", cache_stats.misses as f64);
    report.metric("core.find_s", timings.benchmark_us as f64 * 1e-6);
    report.metric("core.dp_s", timings.dp_us as f64 * 1e-6);
    let modeled = time_iteration(&h, net)?.total_us();
    report.metric("core.wd_modeled_step_ms", modeled * 1e-3);

    // Replay: traced and untraced iterations interleaved.
    let timed = TimedProvider::new(&h, Some(&tracer), None);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut launches = 0u64;
    let mut differ = 0u64;
    let start = Instant::now();
    while traced.len() < 5
        || (traced.len() < TRACED_REPLAYS && start.elapsed().as_secs_f64() < args.seconds)
    {
        let k0 = h.inner().kernels_launched();
        let t0 = Instant::now();
        let m = tracer.span("framework.iteration", || time_iteration(&timed, net))?;
        traced.push(t0.elapsed().as_secs_f64());
        launches += h.inner().kernels_launched() - k0;
        let t0 = Instant::now();
        let u = time_iteration(&h, net)?;
        untraced.push(t0.elapsed().as_secs_f64());
        differ += u64::from(!same_time(m.total_us(), modeled))
            + u64::from(!same_time(u.total_us(), modeled));
    }
    report.operations((traced.len() + untraced.len()) as u64, differ);
    let n = traced.len() as f64;
    let work = timed.work();
    let conv_ms: f64 = work.iter().map(|w| w.secs * 1e3 / n).sum();
    for (op, name) in [
        (ConvOp::Forward, "core.conv_fwd_ms"),
        (ConvOp::BackwardData, "core.conv_bwd_data_ms"),
        (ConvOp::BackwardFilter, "core.conv_bwd_filter_ms"),
    ] {
        report.metric(name, work[op_index(op)].secs * 1e3 / n);
    }
    report.metric(
        "framework.aux_ms",
        tracer.total_s("framework.iteration") * 1e3 / n - conv_ms,
    );
    report.metric("cudnn-sim.launches_per_step", launches as f64 / n);
    let (mt, mu) = (median(&traced), median(&untraced));
    println!(
        "replayed iteration: traced {:.4} ms, untraced {:.4} ms (medians of {} each), modeled {:.3} ms",
        mt * 1e3,
        mu * 1e3,
        traced.len(),
        modeled * 1e-3
    );
    report.metric("bench.trace_overhead", mt / mu);
    tracer.finish("plan_wd");
    Ok(())
}
