//! Deterministic fan-out over independent work items.
//!
//! The grid battery measures dozens of independent layouts and K-fold
//! cross-validation fits K independent folds; this module runs either
//! on a fixed-size pool of scoped worker threads and reduces the
//! results **in the original item order**, so the bytes that reach the
//! on-disk grid cache, and every CV error, are identical for every
//! worker count. Determinism rests on three properties:
//!
//! 1. *No shared mutable state*: each closure invocation builds its
//!    own engine or fit from its own inputs; workers share only the
//!    read-only inputs and a work-stealing index.
//! 2. *Fixed reduction order*: every item writes into its own
//!    pre-allocated slot, and the slots are drained in index order after
//!    all workers join — thread scheduling can reorder the *computation*
//!    but never the *result vector*.
//! 3. *Worker-count-independent work*: the item→result function receives
//!    only the item and its index, never the worker id or the job count.
//!
//! The worker count comes from [`resolve_jobs`]: an explicit `--jobs`
//! value wins, then the `MOSAIC_JOBS` environment variable, then
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Fallback worker count when the OS cannot report its parallelism.
const FALLBACK_JOBS: usize = 4;

/// Resolves the fan-out worker count: an explicit override (e.g. a
/// `--jobs` flag) wins, then a positive integer in the `MOSAIC_JOBS`
/// environment variable, then the machine's available parallelism.
/// Zero and unparsable values fall through to the next source, so
/// `MOSAIC_JOBS=0` means "decide for me", never "no workers".
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    let env = || {
        std::env::var("MOSAIC_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    };
    match explicit.filter(|&n| n >= 1).or_else(env) {
        Some(n) => n,
        None => std::thread::available_parallelism().map_or(FALLBACK_JOBS, |n| n.get()),
    }
}

/// Maps `f` over `items` on at most `jobs` scoped worker threads and
/// returns the results in item order. `f` gets `(index, &item)` and must
/// be a pure function of them for the output to be deterministic.
///
/// Returns `None` only if a worker exited without completing its item,
/// which scoped threads make unreachable: a panicking closure propagates
/// out of the scope instead of leaving an empty slot behind. Callers
/// treat `None` as the infallible-invariant breach it is.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let workers = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let (Some(item), Some(slot)) = (items.get(i), slots.get(i)) else {
                    break;
                };
                let result = f(i, item);
                // Nothing panics while a slot is locked, so slots are
                // never poisoned (and a poisoned one still holds its value).
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    // Drain in index order: the reduction order is the item order, no
    // matter which worker produced which result.
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_for_every_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64, 1000] {
            let got = parallel_map(&items, jobs, |_, &x| x * x).expect("all slots filled");
            assert_eq!(got, expected, "order broke at jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u64> = parallel_map(&[], 8, |_, &x: &u64| x).expect("empty is trivially done");
        assert!(got.is_empty());
    }

    #[test]
    fn index_argument_matches_item_position() {
        let items = ["a", "b", "c", "d"];
        let got = parallel_map(&items, 2, |i, s| format!("{i}:{s}")).expect("all slots filled");
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn explicit_jobs_override_wins() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(1)), 1);
        // Zero is not a usable worker count; fall through to defaults.
        assert!(resolve_jobs(Some(0)) >= 1);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn worker_panic_propagates_out_of_the_scope() {
        let caught = std::panic::catch_unwind(|| {
            let items: Vec<u32> = (0..16).collect();
            parallel_map(&items, 4, |_, &x| {
                assert!(x != 7, "injected worker failure");
                x
            })
        });
        assert!(caught.is_err(), "a worker panic must not be swallowed");
    }
}
