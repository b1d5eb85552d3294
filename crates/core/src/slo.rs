//! SLO-aware batch planning: the WR dynamic program repurposed from
//! workspace limits to latency limits.
//!
//! Training asks "what division of a *fixed* mini-batch is fastest within a
//! workspace budget?" (§III-B). Serving inverts the free variable: requests
//! arrive one sample at a time, and the scheduler must decide *how many* to
//! coalesce — a bigger batch amortizes launch overhead and unlocks the fast
//! FFT/Winograd engines (per-sample time falls), but takes longer in
//! absolute terms, which can push the oldest queued request past its
//! deadline. The same recurrence answers both questions:
//!
//! ```text
//! T(n) = min( t*(n),  min_m T(n−m) + t*(m) )      over candidate sizes m
//! ```
//!
//! where `t*(m)` now comes from the serving latency table — the forward
//! pass priced at micro-batch `m`, itself read off each kernel's Pareto
//! front ([`forward_latency_table`]). Instead of minimizing `T(B)` for a
//! fixed `B` under `workspace ≤ W`, the serve planner maximizes throughput
//! `n / T(n)` over the coalesced count `n` under `T(n) ≤ deadline`:
//! the workspace *limit* became a latency *limit*, and the objective
//! flipped from time to rate.

use crate::bench_cache::BenchCache;
use crate::kernel::KernelKey;
use crate::policy::BatchSizePolicy;
use crate::wr::best_micro;
use ucudnn_cudnn_sim::CudnnHandle;

/// The planner's verdict for one scheduling opportunity.
#[derive(Debug, Clone, PartialEq)]
pub struct SloDecision {
    /// How many queued requests to coalesce.
    pub batch: usize,
    /// The execution composition: micro-batch sizes (descending) whose sum
    /// is `batch`, each a candidate size from the latency table.
    pub micros: Vec<usize>,
    /// Modeled execution time of the composition, microseconds.
    pub exec_us: f64,
    /// The objective: `batch / exec_us` (requests per microsecond).
    pub throughput: f64,
}

/// Plan the best coalesced batch for one scheduling opportunity.
///
/// `table` is the `t*(m)` latency table: `(micro_batch, exec_us)` rows,
/// typically from [`forward_latency_table`]. `queue_depth` is how many
/// requests are waiting, `max_batch` caps the coalesced count
/// ([`crate::ServeOptions::max_batch`]), and `deadline_us` is the *oldest*
/// queued request's remaining budget — every younger request has more
/// slack, so a composition feasible for the oldest is feasible for the
/// whole batch.
///
/// Returns the feasible `n ≤ min(queue_depth, max_batch)` maximizing
/// throughput `n / T(n)` (ties broken toward larger `n`, so equal-rate
/// plans drain the queue faster), or `None` when even the cheapest
/// single-request plan misses the deadline — the caller's cue to shed.
pub fn plan_batch(
    table: &[(usize, f64)],
    queue_depth: usize,
    max_batch: usize,
    deadline_us: f64,
) -> Option<SloDecision> {
    let n_max = queue_depth.min(max_batch);
    if n_max == 0 || !deadline_us.is_finite() {
        return None;
    }
    let atoms: Vec<(usize, f64)> = table
        .iter()
        .copied()
        .filter(|&(m, t)| m >= 1 && m <= n_max && t.is_finite() && t > 0.0)
        .collect();
    if atoms.is_empty() {
        return None;
    }

    // The WR recurrence over coalesced counts, candidate sizes as atoms.
    const INF: f64 = f64::INFINITY;
    let mut t = vec![INF; n_max + 1];
    let mut step = vec![0usize; n_max + 1];
    t[0] = 0.0;
    for n in 1..=n_max {
        for &(m, tm) in &atoms {
            if m > n || t[n - m] == INF {
                continue;
            }
            let cand = t[n - m] + tm;
            if cand < t[n] {
                t[n] = cand;
                step[n] = m;
            }
        }
    }

    // Objective flip: among deadline-feasible counts, maximize n / T(n).
    let mut best: Option<(usize, f64)> = None;
    for (n, &tn) in t.iter().enumerate().take(n_max + 1).skip(1) {
        if tn > deadline_us {
            continue;
        }
        let rate = n as f64 / tn;
        // `n` ascends, so `>=` breaks rate ties toward the larger batch.
        if best.is_none_or(|(_, r)| rate >= r) {
            best = Some((n, rate));
        }
    }
    let (batch, throughput) = best?;

    let mut micros = Vec::new();
    let mut n = batch;
    while n > 0 {
        micros.push(step[n]);
        n -= step[n];
    }
    micros.sort_by_key(|&m| std::cmp::Reverse(m));
    Some(SloDecision {
        batch,
        micros,
        exec_us: t[batch],
        throughput,
    })
}

/// Build the serving latency table `t*(m)` from the kernels' Pareto fronts.
///
/// For each candidate micro-batch size of `policy` up to `max_batch`, the
/// forward latency is the sum over `kernels` of the fastest configuration
/// within `ws_limit` — [`best_micro`], i.e. the minimum of the benchmarked
/// time×workspace front at that size. Sizes where any kernel has no
/// feasible configuration are omitted (the planner simply never composes
/// with them — one rung of the shed ladder).
///
/// The table inherits the benchmark cache's determinism: same engine, same
/// kernels, same policy ⇒ byte-identical tables, which is what makes the
/// serve simulation reproducible.
pub fn forward_latency_table(
    handle: &CudnnHandle,
    cache: &BenchCache,
    kernels: &[KernelKey],
    policy: BatchSizePolicy,
    max_batch: usize,
    ws_limit: usize,
) -> Vec<(usize, f64)> {
    let mut table = Vec::new();
    for m in policy.candidate_sizes(max_batch) {
        let mut total = 0.0;
        let mut ok = true;
        for k in kernels {
            match best_micro(handle, cache, k, m, ws_limit) {
                Some(mc) => total += mc.time_us,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && total > 0.0 {
            table.push((m, total));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_cudnn_sim::ConvOp;
    use ucudnn_gpu_model::p100_sxm2;
    use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

    /// Launch-overhead-shaped table: t(m) = 12 + m (sub-linear per sample).
    fn overhead_table(sizes: &[usize]) -> Vec<(usize, f64)> {
        sizes.iter().map(|&m| (m, 12.0 + m as f64)).collect()
    }

    #[test]
    fn empty_inputs_yield_no_decision() {
        assert_eq!(plan_batch(&[], 4, 8, 1e6), None);
        assert_eq!(plan_batch(&[(1, 10.0)], 0, 8, 1e6), None);
        assert_eq!(plan_batch(&[(1, 10.0)], 4, 0, 1e6), None);
        assert_eq!(plan_batch(&[(1, 10.0)], 4, 8, f64::NAN), None);
        // Atoms larger than the feasible range are unusable.
        assert_eq!(plan_batch(&[(16, 10.0)], 4, 8, 1e6), None);
    }

    #[test]
    fn infeasible_deadline_sheds() {
        // Even one request misses a 5µs deadline when t(1) = 13.
        assert_eq!(plan_batch(&overhead_table(&[1, 2, 4]), 4, 8, 5.0), None);
        // Exactly on the boundary is feasible (≤, not <).
        let d = plan_batch(&overhead_table(&[1]), 1, 8, 13.0).unwrap();
        assert_eq!(d.batch, 1);
        assert_eq!(d.exec_us, 13.0);
    }

    #[test]
    fn sub_linear_table_prefers_the_largest_feasible_batch() {
        // Per-sample cost falls with m, so with ample deadline the planner
        // coalesces everything it can.
        let table = overhead_table(&[1, 2, 4, 8]);
        let d = plan_batch(&table, 8, 8, 1e6).unwrap();
        assert_eq!(d.batch, 8);
        assert_eq!(d.micros, vec![8]);
        assert_eq!(d.exec_us, 20.0);
    }

    #[test]
    fn tight_deadline_forces_a_smaller_batch() {
        let table = overhead_table(&[1, 2, 4, 8]);
        // t(8)=20 misses an 18µs budget; t(4)=16 fits.
        let d = plan_batch(&table, 8, 8, 18.0).unwrap();
        assert_eq!(d.batch, 4);
        assert!(d.exec_us <= 18.0);
    }

    #[test]
    fn composition_tiles_the_batch_with_table_sizes() {
        let table = overhead_table(&[1, 2, 4]);
        let d = plan_batch(&table, 7, 8, 1e6).unwrap();
        assert_eq!(d.micros.iter().sum::<usize>(), d.batch);
        for m in &d.micros {
            assert!(
                table.iter().any(|(s, _)| s == m),
                "micro {m} not a candidate"
            );
        }
        // Descending order, like WR configurations.
        let mut sorted = d.micros.clone();
        sorted.sort_by_key(|&m| std::cmp::Reverse(m));
        assert_eq!(d.micros, sorted);
    }

    #[test]
    fn dp_matches_brute_force_on_small_instances() {
        // Exhaustively enumerate compositions for every queue depth and a
        // few deadlines; the DP decision must achieve the optimal rate.
        let table = vec![(1, 14.0), (2, 17.0), (3, 25.0), (5, 28.0)];
        fn brute(table: &[(usize, f64)], n_max: usize, deadline: f64) -> Option<(usize, f64)> {
            // min total time per count via recursion over compositions
            fn t_min(table: &[(usize, f64)], n: usize) -> f64 {
                if n == 0 {
                    return 0.0;
                }
                let mut best = f64::INFINITY;
                for &(m, tm) in table {
                    if m <= n {
                        best = best.min(tm + t_min(table, n - m));
                    }
                }
                best
            }
            let mut best: Option<(usize, f64)> = None;
            for n in 1..=n_max {
                let t = t_min(table, n);
                if t.is_finite() && t <= deadline {
                    let rate = n as f64 / t;
                    // n ascends, so on ties the larger batch wins.
                    if best.is_none_or(|(_, r)| rate >= r) {
                        best = Some((n, rate));
                    }
                }
            }
            best
        }
        for n_max in 1..=9 {
            for deadline in [10.0, 20.0, 40.0, 80.0, 200.0] {
                let dp = plan_batch(&table, n_max, 16, deadline);
                let bf = brute(&table, n_max, deadline);
                match (dp, bf) {
                    (None, None) => {}
                    (Some(d), Some((n, rate))) => {
                        assert_eq!(d.batch, n, "n_max={n_max} deadline={deadline}");
                        assert!(
                            (d.throughput - rate).abs() < 1e-12,
                            "n_max={n_max} deadline={deadline}"
                        );
                        assert!(d.exec_us <= deadline);
                    }
                    (dp, bf) => panic!("n_max={n_max} deadline={deadline}: dp={dp:?} bf={bf:?}"),
                }
            }
        }
    }

    #[test]
    fn equal_rate_ties_break_toward_the_larger_batch() {
        // Perfectly linear table: every n has the same rate; the planner
        // must drain as much of the queue as feasibility allows.
        let table: Vec<(usize, f64)> = (1..=4).map(|m| (m, 10.0 * m as f64)).collect();
        let d = plan_batch(&table, 4, 8, 1e6).unwrap();
        assert_eq!(d.batch, 4);
    }

    #[test]
    fn latency_table_from_the_pareto_front_is_sane() {
        // AlexNet conv2 forward on the simulated P100: the table must be
        // positive, ascending in m, and sub-linear per sample somewhere
        // (launch overhead amortizes; FFT unlocks at larger m).
        let g = ConvGeometry::with_square(
            Shape4::new(32, 64, 27, 27),
            FilterShape::new(192, 64, 5, 5),
            2,
            1,
        );
        let handle = CudnnHandle::simulated(p100_sxm2());
        let cache = BenchCache::new();
        let kernels = [KernelKey::new(ConvOp::Forward, &g)];
        let table = forward_latency_table(
            &handle,
            &cache,
            &kernels,
            BatchSizePolicy::PowerOfTwo,
            32,
            512 << 20,
        );
        let sizes: Vec<usize> = table.iter().map(|&(m, _)| m).collect();
        assert_eq!(sizes, vec![1, 2, 4, 8, 16, 32]);
        for &(_, t) in &table {
            assert!(t.is_finite() && t > 0.0, "bad entry in {table:?}");
        }
        // Total time need not be monotone (algorithm switches), but the
        // per-sample cost must fall sharply from batch 1 to the largest
        // batch — the economics dynamic batching exploits.
        let (_, t1) = table[0];
        let (m_last, t_last) = *table.last().unwrap();
        let per_sample_last = t_last / m_last as f64;
        assert!(
            per_sample_last < 0.5 * t1,
            "per-sample cost must fall with batch: {table:?}"
        );
        // And the table is deterministic: a fresh cache reproduces it.
        let table2 = forward_latency_table(
            &handle,
            &BenchCache::new(),
            &kernels,
            BatchSizePolicy::PowerOfTwo,
            32,
            512 << 20,
        );
        assert_eq!(table, table2);
    }
}
