//! Deterministic fan-out over independent work items, and the
//! singleflight memo that runs each expensive item once.
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
//!
//! [`Singleflight`] memoizes per-key results that cost seconds to
//! compute, such as a grid battery or a registry fit: concurrent
//! callers for one cold key share a single run.

// Cold fits and `recommend` run the fan-out on mosaicd worker threads,
// where a panic kills the worker: panicking shortcuts are banned here.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation
    )
)]

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// A memo that computes each key at most once at a time and keeps every
/// success.
///
/// The first caller for a cold key claims it and runs its closure with
/// no lock held. Callers for the same key meanwhile park on that run's
/// once-latch and share its result; callers for other keys never wait
/// on it. A warm key resolves under the read lock alone.
///
/// A run that returns `Err`, or panics, leaves nothing behind: its slot
/// is removed and every waiter wakes with the error, so a later call
/// runs again instead of hanging on a dead latch. A panic is caught and
/// becomes an `E` through the memo's `on_panic` mapper. The map is a
/// `BTreeMap` so listings never depend on a hasher seed, and a poisoned
/// lock is recovered with [`PoisonError::into_inner`]: no closure runs
/// under it, so a poisoned map is never half-written.
#[derive(Debug)]
pub struct Singleflight<K, V, E> {
    slots: RwLock<BTreeMap<K, Slot<V, E>>>,
    on_panic: fn(String) -> E,
}

/// One key's state: a run in flight, or its published value.
#[derive(Clone, Debug)]
enum Slot<V, E> {
    Pending(Arc<OnceLock<Result<V, E>>>),
    Ready(V),
}

/// How a [`Singleflight::get_or_run`] call was served.
#[derive(Debug)]
#[must_use]
pub enum Flight<V, E> {
    /// The key was already computed.
    Hit(V),
    /// Another caller's run was in flight; this is its outcome.
    Waited(Result<V, E>),
    /// This caller ran the closure; this is its outcome.
    Ran(Result<V, E>),
}

impl<V: Clone, E: Clone> Slot<V, E> {
    /// Resolves a slot found in the map, parking on a pending run.
    fn join(self) -> Flight<V, E> {
        match self {
            Slot::Ready(value) => Flight::Hit(value),
            Slot::Pending(latch) => Flight::Waited(latch.wait().clone()),
        }
    }
}

impl<K: Ord + Clone, V: Clone, E: Clone> Singleflight<K, V, E> {
    /// An empty memo; `on_panic` turns a panicking run's message into
    /// the error every caller of that run receives.
    pub const fn new(on_panic: fn(String) -> E) -> Self {
        Singleflight {
            slots: RwLock::new(BTreeMap::new()),
            on_panic,
        }
    }

    /// Returns `key`'s value, running `run` if no caller has computed
    /// it yet and none is computing it now.
    pub fn get_or_run(&self, key: &K, run: impl FnOnce() -> Result<V, E>) -> Flight<V, E> {
        if let Some(slot) = self.lookup(key) {
            return slot.join();
        }
        let latch = Arc::new(OnceLock::new());
        if let Some(slot) = self.claim(key, &latch) {
            return slot.join();
        }
        let result = catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|payload| Err((self.on_panic)(panic_message(payload.as_ref()))));
        let mut slots = self.write();
        match &result {
            Ok(value) => slots.insert(key.clone(), Slot::Ready(value.clone())),
            Err(_) => slots.remove(key),
        };
        drop(slots);
        // Only the claiming caller ever sets the latch, so this set
        // cannot find it full.
        let _ = latch.set(result.clone());
        Flight::Ran(result)
    }

    /// The key's slot, found under the read lock alone.
    fn lookup(&self, key: &K) -> Option<Slot<V, E>> {
        self.read().get(key).cloned()
    }

    /// Installs `latch` as the key's run in flight, or returns the slot
    /// of a caller that claimed the key first.
    fn claim(&self, key: &K, latch: &Arc<OnceLock<Result<V, E>>>) -> Option<Slot<V, E>> {
        let mut slots = self.write();
        match slots.entry(key.clone()) {
            Entry::Occupied(slot) => Some(slot.get().clone()),
            Entry::Vacant(slot) => {
                slot.insert(Slot::Pending(Arc::clone(latch)));
                None
            }
        }
    }

    /// Every key in order, with its value once computed (`None` while
    /// its run is in flight).
    pub fn snapshot(&self) -> Vec<(K, Option<V>)> {
        self.read()
            .iter()
            .map(|(key, slot)| {
                let value = match slot {
                    Slot::Ready(value) => Some(value.clone()),
                    Slot::Pending(_) => None,
                };
                (key.clone(), value)
            })
            .collect()
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<K, Slot<V, E>>> {
        self.slots.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<K, Slot<V, E>>> {
        self.slots.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The text a panic was raised with; panics carry `&str` or `String`
/// messages in practice.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
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

    /// Callers racing for one key in the singleflight tests.
    const RACERS: usize = 8;

    /// Runs `test` on its own thread and fails if it has not finished
    /// within a minute, so a memo test that deadlocks (say, on a lock
    /// held across a run) fails instead of hanging the suite.
    fn within_a_minute(test: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{self, RecvTimeoutError};
        let limit = std::time::Duration::from_secs(60);
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
            panic!("no result within {limit:?}: deadlock");
        }
        if let Err(panic) = runner.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// How the caller that claims the raced key finishes its run.
    type Outcome = fn() -> Result<u64, String>;

    /// Callers parked on key 7's run in flight: each holds a clone of
    /// its latch, next to the map's and the running caller's.
    fn parked(memo: &Singleflight<u32, u64, String>) -> usize {
        match memo.read().get(&7) {
            Some(Slot::Pending(latch)) => Arc::strong_count(latch).saturating_sub(2),
            _ => 0,
        }
    }

    /// Releases `RACERS` callers for key 7 at once. Whichever claims the
    /// key waits until every other caller is parked on its run, then
    /// finishes with `outcome`. Only a `Ran` flight ran the closure.
    fn race(memo: &Singleflight<u32, u64, String>, outcome: Outcome) -> Vec<Flight<u64, String>> {
        let start = std::sync::Barrier::new(RACERS);
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..RACERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.get_or_run(&7, || {
                            while parked(memo) < RACERS - 1 {
                                std::thread::yield_now();
                            }
                            outcome()
                        })
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|caller| caller.join().expect("caller thread"))
                .collect()
        })
    }

    #[test]
    fn racing_callers_share_one_run() {
        within_a_minute(|| {
            let memo: Singleflight<u32, u64, String> = Singleflight::new(|msg| msg);
            let flights = race(&memo, || Ok(42));
            let ran = flights
                .iter()
                .filter(|f| matches!(f, Flight::Ran(Ok(42))))
                .count();
            let waited = flights
                .iter()
                .filter(|f| matches!(f, Flight::Waited(Ok(42))))
                .count();
            assert_eq!((ran, waited), (1, RACERS - 1), "{flights:?}");
            // The value is kept: the next caller is a hit and runs nothing.
            let again = memo.get_or_run(&7, || Err("warm keys must not run".to_string()));
            assert!(matches!(again, Flight::Hit(42)), "{again:?}");
            assert_eq!(memo.snapshot(), vec![(7, Some(42))]);
        });
    }

    #[test]
    fn failed_runs_wake_every_waiter_and_allow_a_retry() {
        within_a_minute(|| {
            let failures: [(Outcome, &str); 2] = [
                (|| Err("returned error".to_string()), "returned error"),
                (|| panic!("injected run panic"), "injected run panic"),
            ];
            for (outcome, message) in failures {
                let memo: Singleflight<u32, u64, String> = Singleflight::new(|msg| msg);
                let flights = race(&memo, outcome);
                let ran = flights
                    .iter()
                    .filter(|f| matches!(f, Flight::Ran(Err(m)) if m == message))
                    .count();
                let waited = flights
                    .iter()
                    .filter(|f| matches!(f, Flight::Waited(Err(m)) if m == message))
                    .count();
                assert_eq!((ran, waited), (1, RACERS - 1), "{flights:?}");
                // Nothing is left behind, so the next caller runs again.
                assert!(memo.snapshot().is_empty());
                let retry = memo.get_or_run(&7, || Ok(5));
                assert!(matches!(retry, Flight::Ran(Ok(5))), "{retry:?}");
            }
        });
    }

    #[test]
    fn a_run_may_use_the_memo_for_another_key() {
        within_a_minute(|| {
            // With a lock held across the run, the inner call would
            // deadlock (or panic) on the memo's own lock.
            let memo: Singleflight<u32, u64, String> = Singleflight::new(|msg| msg);
            let outer = memo.get_or_run(&1, || match memo.get_or_run(&2, || Ok(20)) {
                Flight::Ran(inner) => inner.map(|v| v + 1),
                other => Err(format!("{other:?}")),
            });
            assert!(matches!(outer, Flight::Ran(Ok(21))), "{outer:?}");
            assert_eq!(memo.snapshot(), vec![(1, Some(21)), (2, Some(20))]);
        });
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
