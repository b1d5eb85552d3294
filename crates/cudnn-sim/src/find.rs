//! Algorithm selection: `cudnnGetConvolution*Algorithm`,
//! `cudnnFindConvolution*Algorithm` and workspace-size queries.

use crate::descriptor::{ConvolutionDescriptor, FilterDescriptor, TensorDescriptor};
use crate::error::{CudnnError, Result};
use crate::handle::{CudnnHandle, Engine};
use crate::map::{cpu_engine_for, workspace_bytes_on};
use std::ops::RangeInclusive;
use ucudnn_conv::{ConvOp, EngineKind};
use ucudnn_gpu_model::{kernel_time_us, ConvAlgo};
use ucudnn_tensor::{ConvGeometry, Tensor};

/// Per-algorithm outcome of a `Find` benchmark, mirroring the `status`
/// field of `cudnnConvolution*AlgoPerf_t`: real auto-tuners report the
/// kernels that crashed or could not get memory alongside the ones they
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoStatus {
    /// The algorithm ran and `time_us` is a valid measurement.
    Success,
    /// The kernel failed while benchmarking; `time_us` is meaningless.
    ExecutionFailed,
    /// The benchmark could not obtain the algorithm's workspace.
    AllocFailed,
    /// The algorithm needs more workspace than the `Find` call's budget, so
    /// it was never attempted; `time_us` is meaningless. Not a failure: a
    /// call with a larger budget measures it.
    OverBudget,
}

/// One row of a `Find` benchmark result (`cudnnConvolution*AlgoPerf_t`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoPerf {
    /// The algorithm.
    pub algo: ConvAlgo,
    /// Benchmarked (or modeled) execution time in microseconds. Only
    /// meaningful when `status` is [`AlgoStatus::Success`].
    pub time_us: f64,
    /// Workspace requirement in bytes.
    pub memory_bytes: usize,
    /// Whether the benchmark succeeded for this algorithm.
    pub status: AlgoStatus,
}

/// Algorithm-selection preference (`cudnnConvolutionFwdPreference_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoPreference {
    /// `PREFER_FASTEST`: ignore workspace size.
    PreferFastest,
    /// `SPECIFY_WORKSPACE_LIMIT`: fastest algorithm fitting the limit.
    SpecifyWorkspaceLimit(usize),
    /// `NO_WORKSPACE`: only zero-workspace algorithms.
    NoWorkspace,
}

impl CudnnHandle {
    /// Benchmark every supported algorithm for `op` on the described
    /// geometry and return them sorted fastest-first
    /// (`cudnnFindConvolution*Algorithm`): [`Self::find_algorithms_within`]
    /// with an unlimited budget.
    pub fn find_algorithms(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
    ) -> Result<Vec<AlgoPerf>> {
        self.find_algorithms_within(op, x, w, conv, 0..=usize::MAX)
    }

    /// Budgeted `Find`: benchmark the supported algorithms whose workspace
    /// lies in `workspace`. As cuDNN's `Find*Ex` benchmarks inside the
    /// workspace its caller supplies, an algorithm needing more than the
    /// range's end (the budget) is never attempted and comes back as an
    /// [`AlgoStatus::OverBudget`] row. Algorithms needing less than the
    /// range's start are left out, so a caller that measured up to some
    /// budget widens it without measuring anything twice.
    ///
    /// Successful rows come first, then failed rows, then rows over budget;
    /// each group is sorted by time, then algorithm id. On the simulated
    /// engine times come from the performance model; on the CPU engine each
    /// compute engine runs once on deterministic synthetic data and its wall
    /// time is shared by the algorithms that alias it (`IMPLICIT_GEMM`,
    /// `IMPLICIT_PRECOMP_GEMM` and `GEMM`) — the honest equivalent of
    /// cuDNN's exhaustive auto-tuner. Algorithms without a CPU kernel
    /// (`DIRECT`, `FFT`, `FFT_TILING`) return no row there.
    pub fn find_algorithms_within(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
        workspace: RangeInclusive<usize>,
    ) -> Result<Vec<AlgoPerf>> {
        let g = conv.geometry(x, w)?;
        let mut cpu_times: Vec<(EngineKind, Option<f64>)> = Vec::new();
        let mut perfs: Vec<AlgoPerf> = ConvAlgo::ALL
            .iter()
            .filter_map(|&algo| Some((algo, workspace_bytes_on(self.engine(), algo, op, &g)?)))
            .filter(|(_, mem)| mem >= workspace.start())
            .map(|(algo, mem)| {
                let mut status = if mem > *workspace.end() {
                    AlgoStatus::OverBudget
                } else {
                    self.bench_status(op, algo, g.input.n, mem)
                };
                let mut time_us = 0.0;
                if status == AlgoStatus::Success {
                    let measured = match self.engine() {
                        Engine::Simulated(d) => kernel_time_us(d, algo, op, &g),
                        Engine::RealCpu => cpu_engine_for(algo)
                            .and_then(|kind| cpu_time(&mut cpu_times, kind, op, &g, mem)),
                    };
                    // A kernel that dies mid-benchmark is a failed row, not
                    // a process abort — exactly how the real auto-tuner
                    // reports it.
                    match measured {
                        Some(t) => time_us = t,
                        None => status = AlgoStatus::ExecutionFailed,
                    }
                }
                AlgoPerf {
                    algo,
                    time_us,
                    memory_bytes: mem,
                    status,
                }
            })
            .collect();
        let group = |s: AlgoStatus| match s {
            AlgoStatus::Success => 0,
            AlgoStatus::ExecutionFailed | AlgoStatus::AllocFailed => 1,
            AlgoStatus::OverBudget => 2,
        };
        perfs.sort_by(|a, b| {
            group(a.status)
                .cmp(&group(b.status))
                .then(a.time_us.total_cmp(&b.time_us))
                .then(a.algo.id().cmp(&b.algo.id()))
        });
        crate::observe::emit_with(|| crate::observe::CallEvent {
            site: crate::observe::CallSite::Find,
            geometry: format!("{g}"),
            rows: perfs
                .iter()
                .filter(|p| p.status != AlgoStatus::OverBudget)
                .count(),
        });
        Ok(perfs)
    }

    /// Fault-plan verdict for benchmarking one algorithm: injected
    /// allocation failures (workspace above the plan's threshold) win over
    /// injected execution failures; no plan means success.
    fn bench_status(&self, op: ConvOp, algo: ConvAlgo, n: usize, mem: usize) -> AlgoStatus {
        if self.fault_check_alloc(mem).is_err() {
            AlgoStatus::AllocFailed
        } else if self.fault_bench(op, algo, n) {
            AlgoStatus::ExecutionFailed
        } else {
            AlgoStatus::Success
        }
    }

    /// `cudnnGetConvolution*Algorithm`: pick one algorithm under a
    /// workspace preference. The limit is the budget of the `Find` call, so
    /// algorithms that cannot fit are never benchmarked.
    pub fn get_algorithm(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
        pref: AlgoPreference,
    ) -> Result<ConvAlgo> {
        let limit = match pref {
            AlgoPreference::PreferFastest => usize::MAX,
            AlgoPreference::SpecifyWorkspaceLimit(b) => b,
            AlgoPreference::NoWorkspace => 0,
        };
        self.find_algorithms_within(op, x, w, conv, 0..=limit)?
            .into_iter()
            .find(|p| p.status == AlgoStatus::Success)
            .map(|p| p.algo)
            .ok_or_else(|| CudnnError::NotSupported("no algorithm fits the workspace limit".into()))
    }

    /// `cudnnGetConvolution*WorkspaceSize`: bytes required by `algo`.
    pub fn get_workspace_size(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
        algo: ConvAlgo,
    ) -> Result<usize> {
        let g = conv.geometry(x, w)?;
        let bytes = workspace_bytes_on(self.engine(), algo, op, &g)
            .ok_or_else(|| CudnnError::NotSupported(format!("{algo} cannot run {op} on {g}")))?;
        // The fault plan can fail workspace *queries* above its threshold,
        // modeling cudnnGetConvolution*WorkspaceSize returning ALLOC_FAILED.
        self.fault_check_alloc(bytes)?;
        Ok(bytes)
    }
}

/// Wall time of CPU engine `kind` within one `Find`: the first algorithm
/// that runs `kind` measures it, its aliases reuse the measurement. `None`
/// when the kernel failed.
fn cpu_time(
    times: &mut Vec<(EngineKind, Option<f64>)>,
    kind: EngineKind,
    op: ConvOp,
    g: &ConvGeometry,
    ws_bytes: usize,
) -> Option<f64> {
    if let Some(&(_, t)) = times.iter().find(|(k, _)| *k == kind) {
        return t;
    }
    let t = bench_cpu(kind, op, g, ws_bytes).ok();
    times.push((kind, t));
    t
}

/// Execute one CPU kernel on synthetic data and return wall microseconds,
/// or the kernel's own failure — benchmarking must never abort the process.
fn bench_cpu(kind: EngineKind, op: ConvOp, g: &ConvGeometry, ws_bytes: usize) -> Result<f64> {
    let x = Tensor::random(g.input, 0x5eed);
    let w = Tensor::random(g.filter.as_shape4(), 0x5eed + 1);
    let dy = Tensor::random(g.output(), 0x5eed + 2);
    let (a, b, mut out) = match op {
        ConvOp::Forward => (x.as_slice(), w.as_slice(), Tensor::zeros(g.output())),
        ConvOp::BackwardData => (dy.as_slice(), w.as_slice(), Tensor::zeros(g.input)),
        ConvOp::BackwardFilter => (
            x.as_slice(),
            dy.as_slice(),
            Tensor::zeros(g.filter.as_shape4()),
        ),
    };
    let mut ws = vec![0.0f32; ws_bytes.div_ceil(4)];
    let start = std::time::Instant::now();
    ucudnn_conv::exec(kind, op, g, a, b, out.as_mut_slice(), 1.0, 0.0, &mut ws)
        .map_err(|e| CudnnError::ExecutionFailed(e.to_string()))?;
    Ok(start.elapsed().as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;

    fn descs(n: usize) -> (TensorDescriptor, FilterDescriptor, ConvolutionDescriptor) {
        (
            TensorDescriptor::new_4d(n, 8, 16, 16).unwrap(),
            FilterDescriptor::new_4d(8, 8, 3, 3).unwrap(),
            ConvolutionDescriptor::new_2d(1, 1, 1, 1).unwrap(),
        )
    }

    #[test]
    fn simulated_find_is_sorted_and_deterministic() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (x, w, c) = descs(32);
        let a = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        let b = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0].time_us <= p[1].time_us));
        assert!(!a.is_empty());
    }

    #[test]
    fn real_cpu_find_runs_every_supported_algorithm() {
        let h = CudnnHandle::real_cpu();
        let (x, w, c) = descs(2);
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        // The GEMM family and both Winograd tiles apply; FFT has no CPU
        // kernel, so it returns no row.
        assert!(perfs.len() >= 4);
        assert!(perfs.iter().all(|p| p.time_us > 0.0));
        assert!(perfs
            .iter()
            .all(|p| !matches!(p.algo, ConvAlgo::Fft | ConvAlgo::FftTiling)));
    }

    #[test]
    fn budgeted_find_is_the_unlimited_find_cut_at_the_budget() {
        use crate::fault::{FaultPlan, FaultTarget};
        let (x, w, c) = descs(32);
        let full = CudnnHandle::simulated(p100_sxm2())
            .find_algorithms(ConvOp::Forward, &x, &w, &c)
            .unwrap();
        let mut budgets: Vec<usize> = full.iter().map(|p| p.memory_bytes).collect();
        budgets.sort_unstable();
        budgets.dedup();
        assert!(budgets.len() >= 3, "the sweep needs distinct workspaces");
        for budget in budgets {
            // Failing every attempted algorithm shows what was attempted:
            // rows over the budget never consult the fault plan.
            let faulted = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
                targets: vec![FaultTarget::any()],
                ..FaultPlan::default()
            });
            let rows = faulted
                .find_algorithms_within(ConvOp::Forward, &x, &w, &c, 0..=budget)
                .unwrap();
            let fits = full.iter().filter(|p| p.memory_bytes <= budget).count();
            assert_eq!(faulted.faults_injected(), fits as u64);
            assert!(rows[fits..]
                .iter()
                .all(|p| p.status == AlgoStatus::OverBudget && p.memory_bytes > budget));

            let h = CudnnHandle::simulated(p100_sxm2());
            let rows = h
                .find_algorithms_within(ConvOp::Forward, &x, &w, &c, 0..=budget)
                .unwrap();
            let want: Vec<&AlgoPerf> = full.iter().filter(|p| p.memory_bytes <= budget).collect();
            let got: Vec<&AlgoPerf> = rows
                .iter()
                .filter(|p| p.status == AlgoStatus::Success)
                .collect();
            assert_eq!(got, want, "budget {budget}");
            // The rest of the window, measured later, completes the sweep.
            let rest = h
                .find_algorithms_within(ConvOp::Forward, &x, &w, &c, budget + 1..=usize::MAX)
                .unwrap();
            assert_eq!(rest.len() + want.len(), full.len());
            assert!(rest.iter().all(|p| p.memory_bytes > budget));
        }
    }

    #[test]
    fn cpu_aliases_share_one_measurement() {
        let h = CudnnHandle::real_cpu();
        let (x, w, c) = descs(2);
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        let row = |a: ConvAlgo| *perfs.iter().find(|p| p.algo == a).unwrap();
        let at = |a: ConvAlgo| perfs.iter().position(|p| p.algo == a).unwrap();
        for (first, alias) in [
            (ConvAlgo::ImplicitGemm, ConvAlgo::ImplicitPrecompGemm),
            (ConvAlgo::ImplicitPrecompGemm, ConvAlgo::Gemm),
        ] {
            assert_eq!(row(first).time_us, row(alias).time_us);
            assert_eq!(row(first).memory_bytes, row(alias).memory_bytes);
            assert_eq!(at(first) + 1, at(alias), "ties break by algorithm id");
        }
    }

    #[test]
    fn no_workspace_preference_never_benchmarks_workspace_algorithms() {
        use crate::fault::{FaultPlan, FaultTarget};
        let h = CudnnHandle::real_cpu().with_faults(FaultPlan {
            targets: vec![
                FaultTarget::algo(ConvAlgo::Winograd),
                FaultTarget::algo(ConvAlgo::WinogradNonfused),
            ],
            ..FaultPlan::default()
        });
        let (x, w, c) = descs(2);
        let algo = h
            .get_algorithm(ConvOp::Forward, &x, &w, &c, AlgoPreference::NoWorkspace)
            .unwrap();
        assert_eq!(algo, ConvAlgo::ImplicitGemm);
        assert_eq!(h.faults_injected(), 0, "Winograd was never attempted");
    }

    #[test]
    fn get_algorithm_respects_workspace_limits() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (x, w, c) = descs(32);
        let free = h
            .get_algorithm(ConvOp::Forward, &x, &w, &c, AlgoPreference::NoWorkspace)
            .unwrap();
        assert_eq!(
            h.get_workspace_size(ConvOp::Forward, &x, &w, &c, free)
                .unwrap(),
            0,
            "NO_WORKSPACE must return a zero-workspace algorithm"
        );
        let fastest = h
            .get_algorithm(ConvOp::Forward, &x, &w, &c, AlgoPreference::PreferFastest)
            .unwrap();
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        assert_eq!(fastest, perfs[0].algo);
    }

    #[test]
    fn specify_limit_falls_back_to_slower_algorithm() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (x, w, c) = descs(64);
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        let best = perfs[0];
        if best.memory_bytes > 0 {
            let algo = h
                .get_algorithm(
                    ConvOp::Forward,
                    &x,
                    &w,
                    &c,
                    AlgoPreference::SpecifyWorkspaceLimit(best.memory_bytes - 1),
                )
                .unwrap();
            assert_ne!(algo, best.algo);
        }
    }

    #[test]
    fn faulted_benchmarks_report_failed_rows_instead_of_dying() {
        use crate::fault::{FaultPlan, FaultTarget};
        let (x, w, c) = descs(32);
        // FFT on the simulated engine; Winograd on the CPU, which has no
        // FFT kernel.
        for (h, pair) in [
            (
                CudnnHandle::simulated(p100_sxm2()),
                [ConvAlgo::Fft, ConvAlgo::FftTiling],
            ),
            (
                CudnnHandle::real_cpu(),
                [ConvAlgo::Winograd, ConvAlgo::WinogradNonfused],
            ),
        ] {
            let h = h.with_faults(FaultPlan {
                targets: pair.map(FaultTarget::algo).to_vec(),
                ..FaultPlan::default()
            });
            let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
            let (ok, failed): (Vec<&AlgoPerf>, Vec<&AlgoPerf>) =
                perfs.iter().partition(|p| p.status == AlgoStatus::Success);
            assert!(!ok.is_empty(), "non-targeted algorithms still succeed");
            assert_eq!(failed.len(), 2, "both faulted variants must be failed rows");
            assert!(failed.iter().all(|p| pair.contains(&p.algo)));
            // Failed rows sort after every successful row.
            let first_failed = perfs
                .iter()
                .position(|p| p.status != AlgoStatus::Success)
                .unwrap();
            assert_eq!(first_failed, ok.len());
            // get_algorithm never selects a failed row.
            let fastest = h
                .get_algorithm(ConvOp::Forward, &x, &w, &c, AlgoPreference::PreferFastest)
                .unwrap();
            assert!(!pair.contains(&fastest));
            assert!(h.faults_injected() > 0);
        }
    }

    #[test]
    fn alloc_threshold_faults_workspace_queries() {
        use crate::fault::FaultPlan;
        let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
            alloc_fail_above: Some(0),
            ..FaultPlan::default()
        });
        let (x, w, c) = descs(32);
        // Zero-workspace queries still succeed; any positive request fails.
        assert_eq!(
            h.get_workspace_size(ConvOp::Forward, &x, &w, &c, ConvAlgo::ImplicitGemm)
                .unwrap(),
            0
        );
        assert!(matches!(
            h.get_workspace_size(ConvOp::Forward, &x, &w, &c, ConvAlgo::WinogradNonfused),
            Err(CudnnError::AllocFailed { .. })
        ));
        // find_algorithms keeps only what fits: everything above the
        // threshold is an AllocFailed row.
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        assert!(perfs
            .iter()
            .all(|p| (p.status == AlgoStatus::Success) == (p.memory_bytes == 0)));
    }

    #[test]
    fn workspace_size_query_rejects_unsupported() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (x, w, c) = descs(4);
        assert!(matches!(
            h.get_workspace_size(ConvOp::Forward, &x, &w, &c, ConvAlgo::Direct),
            Err(CudnnError::NotSupported(_))
        ));
    }
}
