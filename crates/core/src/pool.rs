//! A dependency-free work-stealing thread pool for the timing engine.
//!
//! The build environment is offline, so no `rayon`: this module provides
//! the small slice of data parallelism crystal needs — an ordered
//! parallel map over a slice — on plain [`std`] threads.
//!
//! Design:
//!
//! * the grain is a **whole scenario**: the callers are the scenario
//!   executor ([`crate::durable`], one `map` per batch or per fail-fast
//!   chunk) and the sweeps ([`crate::sweep`]), while one analysis always
//!   runs on one thread. Each `map` call therefore spawns its helpers in
//!   a [`std::thread::scope`] and joins them before it returns — no
//!   persistent workers and no lifetime erasure. The calling thread is
//!   always worker 0, so a 1-worker pool spawns nothing and degenerates
//!   to a serial loop;
//! * jobs (item indices) are pre-split into one contiguous deque per
//!   worker; a worker pops from the **front** of its own deque and, once
//!   empty, steals from the **back** of its siblings', so imbalanced
//!   workloads (one pathological scenario among many cheap ones) still
//!   keep every core busy;
//! * results carry their item index and are re-assembled in input order,
//!   so the output of [`ThreadPool::map`] is **bit-identical for any
//!   worker count** — the determinism guarantee the batch runner and the
//!   sweeps build on;
//! * a panic inside the closure is caught on the worker, and the payload
//!   of the **lowest-indexed** panicking item is re-raised on the calling
//!   thread after every worker has drained — exactly what a serial
//!   left-to-right loop would have surfaced, so `catch_unwind` isolation
//!   in [`crate::durable`] keeps working unchanged.

use crate::obs::{Phase, TraceSink};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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

/// A configured worker count plus the machinery to fan a slice across it.
///
/// The pool holds no threads between calls: every [`ThreadPool::map`]
/// spawns up to `workers - 1` scoped helpers and joins them before it
/// returns, with the calling thread as worker 0.
#[derive(Debug)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    /// `0` resolves to the hardware thread count.
    pub fn new(workers: usize) -> ThreadPool {
        ThreadPool {
            workers: resolve_threads(workers).max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**, regardless of which worker ran which item.
    ///
    /// # Panics
    /// If `f` panics for one or more items, the payload of the
    /// lowest-indexed panicking item is re-raised on the calling thread
    /// (matching what a serial loop would have done first).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let slots = fan_out(items.len(), self.workers, |i| {
            catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
        });
        collect_in_order(slots)
            .into_iter()
            .map(|s| s.expect("every index was executed"))
            .collect()
    }

    /// Like [`ThreadPool::map`], but checks `stop` before **starting**
    /// each item: once the flag is set, not-yet-started items are skipped
    /// and come back as `None`, while items already running are left to
    /// finish normally (their results are kept). This is the graceful
    /// drain the durable batch layer uses on shutdown — stop dispatching,
    /// finish in-flight work, lose nothing already computed.
    ///
    /// Results are in input order; a skipped item is `None`, a completed
    /// one `Some(r)`.
    ///
    /// # Panics
    /// As with [`ThreadPool::map`], the payload of the lowest-indexed
    /// panicking item is re-raised after all workers drain.
    pub fn map_until<T, R, F>(&self, items: &[T], stop: &AtomicBool, f: F) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let slots = fan_out(items.len(), self.workers, |i| {
            if stop.load(Ordering::Acquire) {
                None
            } else {
                Some(catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))))
            }
        });
        collect_in_order(slots.into_iter().map(Option::flatten).collect())
    }

    /// [`ThreadPool::map`] wrapped in a [`Phase::Pool`] span recording
    /// the fan-out envelope (worker count, item count, wall time) into
    /// `trace`. With `trace = None` this is exactly `map`.
    pub fn map_traced<T, R, F>(
        &self,
        trace: Option<&TraceSink>,
        label: &str,
        items: &[T],
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let _span = trace.map(|t| {
            let mut span = t.span(Phase::Pool, label.to_string());
            span.field("workers", self.workers.min(items.len().max(1)));
            span.field("items", items.len());
            span
        });
        self.map(items, f)
    }
}

/// The shared fan-out: splits `0..len` into one deque per worker (at
/// most `workers`, at most one per item), runs `job` for every index on
/// the calling thread plus a scoped helper per further deque (stealing
/// included), and returns the raw per-index outcomes in input order
/// (`None` for an index no worker produced — only possible when `job`
/// itself chose to return nothing, as in the drained tail of
/// `map_until`). `job` catches item panics, so no worker unwinds. With
/// one deque nothing is spawned.
fn fan_out<R, J>(len: usize, workers: usize, job: J) -> Vec<Option<R>>
where
    R: Send,
    J: Fn(usize) -> R + Sync,
{
    let parts = workers.min(len).max(1);
    // One deque of item indices per worker, pre-filled with contiguous
    // chunks so unstolen work retains memory locality.
    let queues: Vec<Mutex<VecDeque<usize>>> = split_indices(len, parts)
        .into_iter()
        .map(Mutex::new)
        .collect();
    let work = |w: usize| {
        let mut local: Vec<(usize, R)> = Vec::new();
        while let Some(i) = next_job(&queues, w) {
            local.push((i, job(i)));
        }
        local
    };
    let collected: Vec<(usize, R)> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..parts)
            .map(|w| {
                let work = &work;
                std::thread::Builder::new()
                    .name(format!("crystal-pool-{w}"))
                    .spawn_scoped(s, move || work(w))
                    .expect("spawn pool worker")
            })
            .collect();
        let mut all = work(0);
        for helper in helpers {
            all.extend(helper.join().expect("pool workers catch item panics"));
        }
        all
    });
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for (i, r) in collected {
        slots[i] = Some(r);
    }
    slots
}

type Caught = Box<dyn std::any::Any + Send + 'static>;

/// Unwraps per-index `catch_unwind` outcomes, re-raising the payload of
/// the lowest-indexed panic (matching serial left-to-right order).
fn collect_in_order<R>(mut slots: Vec<Option<Result<R, Caught>>>) -> Vec<Option<R>> {
    if let Some(first_panic) = slots.iter().position(|s| matches!(s, Some(Err(_)))) {
        match slots.swap_remove(first_panic) {
            Some(Err(payload)) => resume_unwind(payload),
            _ => unreachable!("position() found an Err slot"),
        }
    }
    slots
        .into_iter()
        .map(|s| match s {
            None => None,
            Some(Ok(r)) => Some(r),
            Some(Err(_)) => unreachable!("panics re-raised above"),
        })
        .collect()
}

/// Splits `0..len` into `workers` contiguous runs (sizes differing by at
/// most one).
fn split_indices(len: usize, workers: usize) -> Vec<VecDeque<usize>> {
    let base = len / workers;
    let extra = len % workers;
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let size = base + usize::from(w < extra);
            let q: VecDeque<usize> = (start..start + size).collect();
            start += size;
            q
        })
        .collect()
}

/// Pops the next job for worker `w`: front of its own deque, else steal
/// from the back of a sibling's. Returns `None` when every deque is empty
/// — no job spawns further jobs, so empty-everywhere is terminal.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("queue lock").pop_front() {
        return Some(i);
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (w + offset) % n;
        if let Some(i) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order_for_any_worker_count() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(workers);
            let got = pool.map(&items, |_, &x| x * 3);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn map_handles_tiny_inputs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.map(&[] as &[usize], |_, &x| x), Vec::<usize>::new());
        assert_eq!(pool.map(&[7usize], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        ThreadPool::new(4).map(&items, |_, &i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn unbalanced_work_is_stolen() {
        // One expensive item at the front of worker 0's chunk: the rest of
        // the chunk must be stolen while worker 0 grinds. We can't observe
        // the stealing directly, but the run must complete with correct
        // results (a non-stealing pool with per-worker fixed chunks also
        // passes; this is a smoke check that heavy skew is safe).
        let items: Vec<u64> = (0..32).map(|i| if i == 0 { 200_000 } else { 10 }).collect();
        let got = ThreadPool::new(4).map(&items, |_, &spin| {
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k ^ (acc << 1));
            }
            std::hint::black_box(acc);
            spin
        });
        assert_eq!(got, items);
    }

    #[test]
    fn lowest_index_panic_wins() {
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            ThreadPool::new(4).map(&items, |_, &i| {
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
        // A panic re-raised on the caller must leave the pool usable
        // for the next batch.
        let pool = ThreadPool::new(3);
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_, &i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        let got = pool.map(&items, |_, &x| x * 2);
        let expect: Vec<usize> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn map_until_with_clear_flag_matches_map() {
        let items: Vec<usize> = (0..40).collect();
        let stop = AtomicBool::new(false);
        for workers in [1, 4] {
            let got = ThreadPool::new(workers).map_until(&items, &stop, |_, &x| x * 2);
            let expect: Vec<Option<usize>> = items.iter().map(|&x| Some(x * 2)).collect();
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn map_until_skips_everything_when_pre_stopped() {
        let items: Vec<usize> = (0..16).collect();
        let stop = AtomicBool::new(true);
        for workers in [1, 4] {
            let got = ThreadPool::new(workers).map_until(&items, &stop, |_, &x| x);
            assert!(got.iter().all(Option::is_none), "workers={workers}");
        }
    }

    #[test]
    fn map_until_stops_dispatching_after_flag_fires() {
        // The third item sets the flag; with one worker the remaining
        // items must be skipped, while everything before it completed.
        let items: Vec<usize> = (0..10).collect();
        let stop = AtomicBool::new(false);
        let got = ThreadPool::new(1).map_until(&items, &stop, |i, &x| {
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
        assert_eq!(ThreadPool::new(0).workers(), available_parallelism());
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn split_covers_all_indices() {
        for len in [0usize, 1, 5, 16, 17] {
            for workers in [1usize, 2, 3, 7] {
                let qs = split_indices(len, workers);
                let mut all: Vec<usize> = qs.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..len).collect::<Vec<_>>());
            }
        }
    }
}
