//! Fork/join for one engine call.
//!
//! An engine splits the output of a call into disjoint parts, one per
//! worker, and runs them with `fork_join`: the first part on the calling
//! thread, the others on scoped threads, one fork/join per call. Each part
//! owns `&mut` slices carved with `split_at_mut` (`split_at_cuts`,
//! `split_columns`), so the split is data-race free by construction and
//! needs no `unsafe`. The engines keep every output element's arithmetic and
//! reduction order independent of the split, so results are bit-identical
//! for every worker count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Multiply-adds each worker of a call must get before the call forks.
///
/// A scoped spawn and join costs 11–40 µs on a 2-vCPU x86-64 VM, and the
/// im2col+GEMM engine runs 8 Mi multiply-adds in 0.35–0.9 ms on one of its
/// cores. Forced splits below this lost up to a third; above it they lost
/// at most 14% while the second vCPU was busy and gained up to 1.9× while
/// it was free. A call below it runs inline as the one-worker case of the
/// same code: every call of a small serving model and every micro-batch of
/// a small layer (DESIGN.md §11).
pub const MIN_MACS_PER_WORKER: u128 = 8 << 20;

/// Hardware parallelism, probed once per process (`available_parallelism`
/// takes a syscall on some platforms — too hot for a per-call query).
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Process-wide execution-thread cap: 0 = unset (use `UCUDNN_EXEC_THREADS`
/// or the hardware count).
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Cap from the `UCUDNN_EXEC_THREADS` environment variable, read once.
fn env_thread_cap() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("UCUDNN_EXEC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&v| v > 0)
    })
}

/// Override the execution-thread cap programmatically (e.g. from tests or a
/// framework sweep). `Some(t)` caps workers at `t`; `None` restores the
/// default (`UCUDNN_EXEC_THREADS` env var, else hardware parallelism).
/// Returns the previous override. Process-global, like the env var.
pub fn set_thread_cap(cap: Option<usize>) -> Option<usize> {
    let prev = THREAD_CAP.swap(cap.unwrap_or(0), Ordering::SeqCst);
    (prev > 0).then_some(prev)
}

/// Effective maximum number of execution worker threads: the programmatic
/// override, else `UCUDNN_EXEC_THREADS`, else hardware parallelism.
pub fn max_workers() -> usize {
    let cap = THREAD_CAP.load(Ordering::SeqCst);
    if cap > 0 {
        return cap;
    }
    env_thread_cap().unwrap_or_else(hardware_threads)
}

/// Workers for a call of `macs` multiply-adds whose output splits into
/// `units` parts: at most [`max_workers`], at most one per unit, and at
/// least [`MIN_MACS_PER_WORKER`] multiply-adds each (never fewer than one).
pub(crate) fn workers_for(macs: u128, units: usize) -> usize {
    let by_work = usize::try_from(macs / MIN_MACS_PER_WORKER).unwrap_or(usize::MAX);
    max_workers().min(units).min(by_work).max(1)
}

/// Cut points `0 = c₀ ≤ c₁ ≤ … ≤ c_parts = units` splitting `units` into
/// `parts` contiguous ranges whose sizes differ by at most one.
pub(crate) fn even_cuts(units: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    (0..=parts).map(|i| units * i / parts).collect()
}

/// Split `buf` into the contiguous chunks `[cuts[i], cuts[i+1])`. `cuts`
/// starts at 0 and ends at `buf.len()`.
pub(crate) fn split_at_cuts<'a>(buf: &'a mut [f32], cuts: &[usize]) -> Vec<&'a mut [f32]> {
    assert_eq!(cuts.first(), Some(&0), "cuts must start at 0");
    assert_eq!(cuts.last(), Some(&buf.len()), "cuts must end at the length");
    let mut rest = buf;
    cuts.windows(2)
        .map(|c| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(c[1] - c[0]);
            rest = tail;
            chunk
        })
        .collect()
}

/// Split each of the `rows` rows of `buf` at the column `cuts` (starting at
/// 0, ending at the row length): part `i` gets, in row order, the segment
/// `[cuts[i], cuts[i+1])` of every row — a worker's column range of a
/// row-major matrix, or its channel range of every sample.
pub(crate) fn split_columns<'a>(
    buf: &'a mut [f32],
    rows: usize,
    cuts: &[usize],
) -> Vec<Vec<&'a mut [f32]>> {
    let row_len = cuts.last().copied().unwrap_or(0);
    assert_eq!(
        buf.len(),
        rows * row_len,
        "buffer must be rows x row length"
    );
    let mut parts: Vec<Vec<&mut [f32]>> =
        (1..cuts.len()).map(|_| Vec::with_capacity(rows)).collect();
    let mut rest = buf;
    for _ in 0..rows {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(row_len);
        rest = tail;
        for (part, seg) in parts.iter_mut().zip(split_at_cuts(row, cuts)) {
            part.push(seg);
        }
    }
    parts
}

/// Run `body` on every part: the first on the calling thread, the others on
/// scoped threads, and return when all are done. One part runs inline with
/// no spawn at all.
pub(crate) fn fork_join<T: Send>(parts: Vec<T>, body: impl Fn(T) + Sync) {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else { return };
    if parts.len() == 0 {
        body(first);
        return;
    }
    let body = &body;
    std::thread::scope(|scope| {
        for part in parts {
            scope.spawn(move || body(part));
        }
        body(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_cuts_cover_the_range_in_balanced_parts() {
        assert_eq!(even_cuts(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(even_cuts(2, 4), vec![0, 0, 1, 1, 2]);
        assert_eq!(even_cuts(7, 1), vec![0, 7]);
        assert_eq!(even_cuts(5, 0), vec![0, 5], "zero parts means one");
        for (units, parts) in [(37, 2), (37, 3), (64, 8), (1, 1)] {
            let c = even_cuts(units, parts);
            let sizes: Vec<usize> = c.windows(2).map(|w| w[1] - w[0]).collect();
            assert_eq!(sizes.iter().sum::<usize>(), units);
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn split_columns_hands_out_every_element_once() {
        let (rows, row_len) = (5, 7);
        let mut buf = vec![0.0f32; rows * row_len];
        let cuts = [0, 2, 3, 7];
        let parts = split_columns(&mut buf, rows, &cuts);
        assert_eq!(parts.len(), 3);
        fork_join(parts.into_iter().enumerate().collect(), |(i, segs)| {
            assert_eq!(segs.len(), rows);
            for seg in segs {
                assert_eq!(seg.len(), cuts[i + 1] - cuts[i]);
                for v in seg.iter_mut() {
                    *v += (i + 1) as f32;
                }
            }
        });
        for row in buf.chunks(row_len) {
            assert_eq!(row, &[1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 3.0]);
        }
    }

    #[test]
    fn fork_join_runs_each_part_once() {
        let mut out = vec![0.0f32; 12];
        let cuts = even_cuts(12, 4);
        let chunks = split_at_cuts(&mut out, &cuts);
        fork_join(cuts.windows(2).zip(chunks).collect(), |(c, chunk)| {
            for (v, i) in chunk.iter_mut().zip(c[0]..) {
                *v += i as f32;
            }
        });
        assert_eq!(out, (0..12).map(|i| i as f32).collect::<Vec<_>>());
        fork_join(Vec::<()>::new(), |()| panic!("no parts, no calls"));
    }

    #[test]
    #[should_panic(expected = "cuts must end at the length")]
    fn split_at_cuts_rejects_short_cuts() {
        let mut out = vec![0.0f32; 5];
        split_at_cuts(&mut out, &[0, 3]);
    }

    /// The cap bounds the worker count, and work below the per-worker
    /// minimum never forks.
    #[test]
    fn workers_follow_the_cap_the_units_and_the_work() {
        let prev = set_thread_cap(Some(3));
        assert_eq!(max_workers(), 3);
        let big = 100 * MIN_MACS_PER_WORKER;
        assert_eq!(workers_for(big, 100), 3);
        assert_eq!(workers_for(big, 2), 2, "at most one worker per unit");
        assert_eq!(workers_for(big, 0), 1);
        assert_eq!(workers_for(MIN_MACS_PER_WORKER - 1, 100), 1);
        assert_eq!(workers_for(2 * MIN_MACS_PER_WORKER, 100), 2);
        set_thread_cap(Some(1));
        assert_eq!(workers_for(big, 100), 1);
        set_thread_cap(prev);
    }
}
