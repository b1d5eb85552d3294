//! The optimizer's one worker fan-out (DESIGN.md §8): WR installation, WR's
//! per-size benchmark lookups and WD desirable sets all map their items
//! through [`fan_out`].

use crate::error::UcudnnError;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Best-effort text of a caught panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// `f` over every item, on up to `threads` scoped workers that pull item
/// indices off a shared counter; results come back in item order whatever
/// the schedule. A panic in a worker loses only its item, which is then
/// run again on the calling thread (where every item runs when there is
/// one worker or one item); a panic there is returned as
/// [`UcudnnError::WorkerPanicked`] naming the item and the panic message.
///
/// # Errors
/// [`UcudnnError::WorkerPanicked`] for the first item, in item order, that
/// panicked on the calling thread.
pub(crate) fn fan_out<T, R>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, UcudnnError>
where
    T: Display + Sync,
    R: Send,
{
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let workers = threads.min(items.len());
    if workers > 1 {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            if let Ok(r) = catch_unwind(AssertUnwindSafe(|| f(item))) {
                                done.push((i, r));
                            }
                        }
                        done
                    })
                })
                .collect();
            for (i, r) in handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
            {
                slots[i] = Some(r);
            }
        });
    }
    items
        .iter()
        .zip(slots)
        .map(|(item, slot)| match slot {
            Some(r) => Ok(r),
            None => catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| {
                UcudnnError::WorkerPanicked(format!("{item}: {}", panic_message(p.as_ref())))
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 3, 8] {
            let got = fan_out(&items, threads, |&i| i * i).unwrap();
            let want: Vec<usize> = items.iter().map(|&i| i * i).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn a_worker_panic_loses_only_its_item_and_a_second_is_an_error() {
        let items: Vec<usize> = (0..8).collect();
        // Item 3 panics on its first run only: its worker loses it, the
        // calling thread runs it again, and every result comes back.
        let runs = Mutex::new(vec![0usize; items.len()]);
        let got = fan_out(&items, 4, |&i| {
            let first = {
                let mut runs = runs.lock().unwrap();
                runs[i] += 1;
                runs[i] == 1
            };
            assert!(!(i == 3 && first), "transient failure of item {i}");
            i + 100
        })
        .unwrap();
        assert_eq!(got, (100..108).collect::<Vec<_>>());
        let runs = runs.into_inner().unwrap();
        assert_eq!(runs[3], 2, "the lost item is retried once");
        assert!(runs.iter().enumerate().all(|(i, &n)| i == 3 || n == 1));

        // Item 5 panics every time: the retry's panic is the error.
        for threads in [1, 4] {
            let err = fan_out(&items, threads, |&i| {
                assert!(i != 5, "permanent failure of item {i}");
                i
            })
            .unwrap_err();
            let UcudnnError::WorkerPanicked(msg) = err else {
                panic!("expected WorkerPanicked, got {err:?}");
            };
            assert_eq!(msg, "5: permanent failure of item 5", "{threads} threads");
        }
    }
}
