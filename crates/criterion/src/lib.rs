//! Offline stand-in for the `criterion` bench harness.
//!
//! The build environment cannot reach the crates.io registry, so this
//! crate implements the minimal API surface the workspace's benches use —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — with plain
//! `std::time::Instant` timing and a one-line median report per bench.
//! It produces no statistics, plots, or baselines; it exists so
//! `cargo bench --features bench-harness` runs and reports useful
//! numbers without any registry access.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Re-export mirroring `criterion::black_box` (deprecated upstream in
/// favor of the std version, which is what it is here).
pub use std::hint::black_box;

/// The bench driver handed to each registered bench function.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Opens a named group of related benches.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Runs a standalone bench outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&id.into(), self.sample_size, f);
        self
    }
}

/// A group of benches sharing a name prefix and sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples per bench.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times one bench within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into());
        run_bench(&label, self.sample_size, f);
        self
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Passed to the bench closure; [`Bencher::iter`] times the workload.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Mean wall-clock time per iteration of the last `iter` call.
    per_iter: Duration,
}

impl Bencher {
    /// Times `f`, choosing an iteration count that keeps each sample
    /// short, and records the mean per-iteration cost.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One warm-up call also sizes the batch.
        let probe = Instant::now();
        black_box(f());
        let once = probe.elapsed().max(Duration::from_nanos(1));
        let target = Duration::from_millis(5);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        // Sub-nanosecond bodies would truncate to zero: report at least
        // the clock's resolution.
        self.per_iter = (start.elapsed() / iters).max(Duration::from_nanos(1));
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher::default();
        f(&mut b);
        times.push(b.per_iter);
    }
    times.sort();
    let median = times[times.len() / 2];
    println!("bench {label:<40} median {median:>12.3?} ({samples} samples)");
}

/// Collects bench functions into a runnable group, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Expands to `main` running the listed groups, as in criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_positive_time() {
        let mut b = Bencher::default();
        b.iter(|| std::hint::black_box(17u64.wrapping_mul(31)));
        assert!(b.per_iter > Duration::ZERO);
    }

    #[test]
    fn group_api_composes() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(2)
            .bench_function("noop", |b| b.iter(|| 1 + 1));
        group.finish();
    }
}
