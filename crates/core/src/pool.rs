//! The scenario fan-out: an ordered parallel map over a slice on plain
//! [`std`] threads (the build environment is offline, so no `rayon`).
//!
//! Design:
//!
//! * the grain is a **whole scenario**: the callers are the scenario
//!   executor ([`crate::durable`], one [`map`] per batch) and the sweeps
//!   ([`crate::sweep`]), while one analysis always runs on one thread.
//!   Each call spawns its helpers in a [`std::thread::scope`] and joins
//!   them before it returns — no persistent workers. The calling thread
//!   is always worker 0, so one worker spawns nothing and degenerates to
//!   a serial loop;
//! * workers take item indices from **one shared cursor, in ascending
//!   order**. A worker checks `stop` *before* it takes an index, and an
//!   index once taken always runs, so the items that ran are a prefix of
//!   the input: every index below a taken index was taken earlier and
//!   ran to the end. A caller that sets `stop` at a failure therefore
//!   finds every item ahead of the first failure in input order done;
//! * results are returned in input order, so the output is
//!   **bit-identical for any worker count** — the determinism guarantee
//!   the batch runner and the sweeps build on;
//! * a panic inside the closure is caught on the worker, and the payload
//!   of the **lowest-indexed** panicking item is re-raised on the calling
//!   thread after every worker has finished — exactly what a serial
//!   left-to-right loop would have surfaced, so `catch_unwind` isolation
//!   in [`crate::durable`] keeps working unchanged.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The number of hardware threads, with a serial fallback when the
/// platform cannot say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a user-facing thread-count knob: `0` means "use every
/// hardware thread", anything else is taken literally (minimum 1).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_parallelism()
    } else {
        threads
    }
}

/// Applies `f(index, item)` to the items on up to `threads` workers
/// (`0` = every hardware thread, never more workers than items) and
/// returns the results **in input order**.
///
/// Before taking each index a worker checks `stop`: once it is set, no
/// further item starts and the untaken ones come back as `None`, while
/// items already running finish and keep their results. The `Some`
/// results are therefore always a prefix of the output. With
/// `stop = None` every item runs.
///
/// # Panics
/// If `f` panics for one or more items, the payload of the
/// lowest-indexed panicking item is re-raised on the calling thread once
/// every worker has finished (matching what a serial loop would have
/// done first).
pub fn map<T, R, F>(threads: usize, items: &[T], stop: Option<&AtomicBool>, f: F) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while !stop.is_some_and(|stop| stop.load(Ordering::Acquire)) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(i, item)))));
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("crystal-pool-{w}"))
                    .spawn_scoped(s, work)
                    .expect("spawn pool worker")
            })
            .collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("pool workers catch item panics"));
        }
        done
    });
    // The taken indices are `0..n`, so in index order they are the
    // output's prefix, and the first panic met is the lowest-indexed one.
    done.sort_unstable_by_key(|&(i, _)| i);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    for (i, outcome) in done {
        debug_assert_eq!(i, results.len(), "the taken indices are a prefix");
        results.push(Some(
            outcome.unwrap_or_else(|payload| resume_unwind(payload)),
        ));
    }
    results.resize_with(items.len(), || None);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on every item at `workers`, with no stop flag, and
    /// unwraps the results (each item ran).
    fn map_all<T: Sync, R: Send>(
        workers: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        map(workers, items, None, f)
            .into_iter()
            .map(|r| r.expect("no stop flag, so every item runs"))
            .collect()
    }

    /// Burns CPU for a while, so other workers run ahead.
    fn spin(rounds: u64) -> u64 {
        let mut acc = 0u64;
        for k in 0..rounds {
            acc = std::hint::black_box(acc.wrapping_add(k ^ (acc << 1)));
        }
        acc
    }

    #[test]
    fn map_preserves_order_for_any_worker_count() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 4, 8] {
            let got = map_all(workers, &items, |_, &x| x * 3);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn map_handles_tiny_inputs() {
        assert_eq!(map_all(4, &[] as &[usize], |_, &x| x), Vec::<usize>::new());
        assert_eq!(map_all(4, &[7usize], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        map_all(4, &items, |_, &i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn dispatch_in_order_leaves_every_item_before_a_stop_done() {
        // Item 1 spins while the other workers run ahead; item `k` sets
        // the flag. Dispatch is in index order, so everything below `k`
        // was taken before the flag fired and ran to the end, and what
        // ran is a prefix of the input.
        let k = 20;
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 2, 3, 8] {
            let stop = AtomicBool::new(false);
            let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            let got = map(workers, &items, Some(&stop), |i, &x| {
                counters[i].fetch_add(1, Ordering::SeqCst);
                if i == 1 {
                    std::hint::black_box(spin(2_000_000));
                }
                if i == k {
                    stop.store(true, Ordering::Release);
                }
                x * 3
            });
            assert_eq!(got.len(), items.len(), "workers={workers}");
            for (i, r) in got.iter().enumerate() {
                if i <= k {
                    assert_eq!(*r, Some(i * 3), "workers={workers} item {i}");
                } else if let Some(r) = r {
                    assert_eq!(*r, i * 3, "workers={workers} item {i} out of order");
                }
            }
            let ran = got.iter().take_while(|r| r.is_some()).count();
            assert!(
                got[ran..].iter().all(Option::is_none),
                "workers={workers}: the items that ran are not a prefix"
            );
            for (i, c) in counters.iter().enumerate() {
                let runs = c.load(Ordering::SeqCst);
                assert!(runs <= 1, "workers={workers} item {i} ran {runs} times");
                assert_eq!(runs == 1, got[i].is_some(), "workers={workers} item {i}");
            }
        }
    }

    #[test]
    fn the_caller_is_worker_0_and_helpers_are_named() {
        let caller = std::thread::current().name().map(str::to_string);
        let items: Vec<usize> = (0..32).collect();
        let names = |workers| {
            map_all(workers, &items, |_, _| {
                std::thread::current().name().map(str::to_string)
            })
        };
        assert!(
            names(1).iter().all(|name| *name == caller),
            "one worker spawns nothing"
        );
        let helpers = ["crystal-pool-1", "crystal-pool-2", "crystal-pool-3"];
        for name in names(4) {
            let helper = name.as_deref().is_some_and(|n| helpers.contains(&n));
            assert!(name == caller || helper, "{name:?}");
        }
    }

    #[test]
    fn lowest_index_panic_wins() {
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            map_all(4, &items, |_, &i| {
                if i == 5 || i == 20 {
                    panic!("boom {i}");
                }
                i
            })
        });
        let payload = result.expect_err("panic propagates");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, "boom 5");
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            map_all(3, &items, |_, &i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
        let got = map_all(3, &items, |_, &x| x * 2);
        let expect: Vec<usize> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn map_with_clear_flag_runs_every_item() {
        let items: Vec<usize> = (0..40).collect();
        let stop = AtomicBool::new(false);
        for workers in [1, 4] {
            let got = map(workers, &items, Some(&stop), |_, &x| x * 2);
            let expect: Vec<Option<usize>> = items.iter().map(|&x| Some(x * 2)).collect();
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn map_skips_everything_when_pre_stopped() {
        let items: Vec<usize> = (0..16).collect();
        let stop = AtomicBool::new(true);
        for workers in [1, 4] {
            let got = map(workers, &items, Some(&stop), |_, &x| x);
            assert!(got.iter().all(Option::is_none), "workers={workers}");
        }
    }

    #[test]
    fn map_stops_dispatching_after_flag_fires() {
        // The third item sets the flag; with one worker the remaining
        // items must be skipped, while everything before it completed.
        let items: Vec<usize> = (0..10).collect();
        let stop = AtomicBool::new(false);
        let got = map(1, &items, Some(&stop), |i, &x| {
            if i == 2 {
                stop.store(true, Ordering::Release);
            }
            x
        });
        assert_eq!(got[0], Some(0));
        assert_eq!(got[1], Some(1));
        assert_eq!(got[2], Some(2));
        assert!(got[3..].iter().all(Option::is_none));
    }

    #[test]
    fn zero_resolves_to_hardware_threads() {
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
    }
}
