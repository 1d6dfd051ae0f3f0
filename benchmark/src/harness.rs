//! Measurement plumbing the workloads share: the host-speed probe,
//! set-up timing, per-key latencies, the run clock, and the worker count.
//!
//! The host is shared, and its speed follows the other tenants: a fixed
//! computation was seen to take from 1.0× to 1.7× its calm time, for
//! minutes at a time, so a whole run can be slow and no best-of or
//! median inside one run removes that. Every timed operation is
//! therefore bracketed by probes — a fixed computation of the
//! benchmark's own, timed just before and just after it — and the
//! reported time is the wall time divided by the probes' slowdown over
//! their calm time: what the operation takes at the reference speed. The
//! probe runs no program code, so a change to the program moves the
//! reported times as it moves wall time. The wall times and the median
//! slowdown are printed beside the metrics.
//!
//! Operations do not all slow alike, so the probe is shaped like the
//! workload's operations ([`Probe`]): allocation-bound work slows with
//! the host's memory traffic more than arithmetic does, a two-thread
//! analysis slows with both threads' cores, and one large extraction
//! slows more than the probe does.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::report::{ms, RunReport};
use crate::stats::{median, percentile};

/// Passes a measured run makes at least, so that every operation's
/// time is a median of three or more.
pub const MIN_PASSES: usize = 3;

/// Set-up repeats of the slot at the start of a run, at least.
pub const SETUP_REPEATS: usize = 5;

/// Seconds a set-up slot repeats set-up for, at least: short beside a
/// pass, long beside a sub-millisecond parse.
pub const SETUP_SLOT_SECONDS: f64 = 0.1;

/// Worker threads and client connections: `min(2, hardware threads)`.
pub fn workers() -> usize {
    crystal::pool::available_parallelism().clamp(1, 2)
}

/// Calm times (ms) of the probe's two parts on one thread of a 2-vCPU
/// Xeon VM at 2.0 GHz. They fix the scale of every reported time.
const ALLOCATION_REF_MS: f64 = 3.0;
const ARITHMETIC_REF_MS: f64 = 0.22;

/// The probe's two parts on this thread, in ms: 20,000 small
/// allocations inserted into a fresh hash map and as many lookups, as
/// the program's own bookkeeping does; then independent integer chains,
/// which only the core's speed limits.
fn probe_parts() -> (f64, f64) {
    let step = |x: u64| x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let started = Instant::now();
    let n = black_box(20_000u64);
    let mut map = HashMap::new();
    let mut x = 7;
    for i in 0..n {
        x = step(x);
        map.insert(x >> 40, vec![i; 2]);
    }
    let (mut sum, mut x) = (0, 7);
    for _ in 0..n {
        x = step(x);
        sum += map.get(&(x >> 40)).map_or(0, |v| v[0]);
    }
    black_box(sum);
    drop(map);
    let allocation = ms(started.elapsed());

    let started = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..black_box(60_000u64) {
        for (k, x) in lanes.iter_mut().enumerate() {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x = x.wrapping_add(i ^ k as u64);
        }
    }
    black_box(lanes);
    (allocation, ms(started.elapsed()))
}

/// How a workload's operations use the host, so that the probe can
/// stand in for them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// The operations keep every worker thread busy, not just the
    /// calling one.
    pub all_workers: bool,
    /// The share of their time that is arithmetic rather than
    /// allocation and memory traffic.
    pub arithmetic: f64,
    /// How much more the operations slow than the probe, as a power:
    /// an operation's slowdown is the probe's raised to it.
    pub sensitivity: f64,
}

/// One busy thread, bound by allocation and memory traffic: set-up, the
/// daemon's edits and the reference transients.
pub const ALLOCATION_BOUND: Probe = Probe {
    all_workers: false,
    arithmetic: 0.0,
    sensitivity: 1.0,
};

impl Probe {
    /// How many times slower than the reference the host runs now: the
    /// probe's two parts over their calm times, weighted geometrically
    /// by [`Probe::arithmetic`], averaged over the threads probed at
    /// once.
    pub fn slowdown(&self) -> f64 {
        let one = || {
            let (allocation, arithmetic) = probe_parts();
            (allocation / ALLOCATION_REF_MS).powf(1.0 - self.arithmetic)
                * (arithmetic / ARITHMETIC_REF_MS).powf(self.arithmetic)
        };
        let threads = if self.all_workers { workers() } else { 1 };
        if threads < 2 {
            return one();
        }
        std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads).map(|_| scope.spawn(one)).collect();
            let mine = one();
            let sum: f64 = others
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .sum();
            (mine + sum) / threads as f64
        })
    }
}

/// Times one caller's operations, one after another, probing the host
/// between them. An operation's slowdown is the mean of the probes just
/// before and just after it, so a change of the host's speed while it
/// runs counts half; consecutive operations share the probe between
/// them.
#[derive(Debug)]
pub struct Pacer {
    probe: Probe,
    /// The probe after the previous operation.
    last: Option<f64>,
}

impl Pacer {
    /// A pacer with no probe taken yet.
    pub fn new(probe: Probe) -> Pacer {
        Pacer { probe, last: None }
    }

    /// Times `op` between two probes.
    pub fn timed<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timing) {
        let before = match self.last.take() {
            Some(slowdown) => slowdown,
            None => self.probe.slowdown(),
        };
        let started = Instant::now();
        let value = op();
        let wall_ms = ms(started.elapsed());
        let after = self.probe.slowdown();
        self.last = Some(after);
        let slowdown = ((before + after) / 2.0).powf(self.probe.sensitivity);
        (value, Timing { wall_ms, slowdown })
    }
}

/// One timed operation: its wall time and how much slower than at the
/// reference speed the probes say it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Wall time, ms.
    pub wall_ms: f64,
    /// The operation's slowdown, from the probes around it.
    pub slowdown: f64,
}

impl Timing {
    /// The time at the reference speed, ms.
    pub fn paced_ms(&self) -> f64 {
        self.wall_ms / self.slowdown
    }
}

/// Median of one quantity over timings, 0 for none.
fn median_of(timings: &[Timing], f: impl Fn(&Timing) -> f64) -> f64 {
    median(&timings.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Set-up timings collected over a run, in slots spread over it.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<Timing>);

impl SetupTimes {
    /// One slot: runs `once` at least `min_repeats` times (and at least
    /// once) and for at least [`SETUP_SLOT_SECONDS`], and returns the
    /// last result. Each earlier result is dropped, untimed, before the
    /// next repeat starts.
    ///
    /// # Errors
    /// The first error `once` returns.
    pub fn slot<T>(
        &mut self,
        min_repeats: usize,
        mut once: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let slot = Instant::now();
        let mut pacer = Pacer::new(ALLOCATION_BOUND);
        let mut repeats = 0;
        loop {
            let (value, timing) = pacer.timed(&mut once);
            let value = value?;
            self.0.push(timing);
            repeats += 1;
            if repeats >= min_repeats && slot.elapsed().as_secs_f64() >= SETUP_SLOT_SECONDS {
                return Ok(value);
            }
        }
    }

    /// Sets `setup_s` to the median paced time over every repeat.
    pub fn set_metric(&self, report: &mut RunReport) {
        let paced = median_of(&self.0, Timing::paced_ms);
        report.set("setup_s", paced / 1e3, self.0.len());
        report.notes.push(format!(
            "set-up: wall p50 {:.3} ms at host slowdown {:.3}",
            median_of(&self.0, |t| t.wall_ms),
            median_of(&self.0, |t| t.slowdown)
        ));
    }
}

/// Every operation's timings over a run, by key. A workload has at
/// least 100 keys, so ten lie beyond the reported p90.
#[derive(Debug, Default)]
pub struct Latencies(BTreeMap<String, Vec<Timing>>);

impl Latencies {
    /// Records one run of `key`.
    pub fn record(&mut self, key: String, timing: Timing) {
        self.0.entry(key).or_default().push(timing);
    }

    /// Folds another caller's records in.
    pub fn merge(&mut self, other: Latencies) {
        for (key, timings) in other.0 {
            self.0.entry(key).or_default().extend(timings);
        }
    }

    /// Distinct keys recorded.
    pub fn keys(&self) -> usize {
        self.0.len()
    }

    /// Sets the latency metrics: the median, p90 and mean over keys of
    /// each key's median paced time.
    pub fn set_metrics(&self, report: &mut RunReport) {
        let per_key = |f: fn(&Timing) -> f64| {
            let mut v: Vec<f64> = self.0.values().map(|t| median_of(t, f)).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let paced = per_key(Timing::paced_ms);
        let n = paced.len();
        let mean = if n == 0 {
            0.0
        } else {
            paced.iter().sum::<f64>() / n as f64
        };
        report.set("op_p50_ms", percentile(&paced, 0.5).unwrap_or(0.0), n);
        report.set("op_p90_ms", percentile(&paced, 0.9).unwrap_or(0.0), n);
        report.set("op_mean_ms", mean, n);
        let wall = per_key(|t| t.wall_ms);
        let all: Vec<Timing> = self.0.values().flatten().copied().collect();
        report.notes.push(format!(
            "ops: wall p50 {:.3} ms, p90 {:.3} ms at host slowdown {:.3}",
            percentile(&wall, 0.5).unwrap_or(0.0),
            percentile(&wall, 0.9).unwrap_or(0.0),
            median_of(&all, |t| t.slowdown)
        ));
    }
}

/// When a measured phase may stop: after `seconds` and `min_count`
/// counted units (passes, or operations), both.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    seconds: f64,
    min_count: usize,
}

impl Clock {
    /// Starts the clock.
    pub fn start(seconds: f64, min_count: usize) -> Clock {
        Clock {
            start: Instant::now(),
            seconds,
            min_count,
        }
    }

    /// `true` once both the time and the count are reached.
    pub fn done(&self, count: usize) -> bool {
        count >= self.min_count && self.start.elapsed().as_secs_f64() >= self.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(wall_ms: f64, slowdown: f64) -> Timing {
        Timing { wall_ms, slowdown }
    }

    #[test]
    fn a_setup_slot_repeats_for_its_time_and_keeps_the_last() {
        let mut times = SetupTimes::default();
        let mut n = 0;
        let slot = Instant::now();
        let last = times
            .slot(SETUP_REPEATS, || {
                n += 1;
                Ok(n)
            })
            .unwrap();
        assert!(slot.elapsed().as_secs_f64() >= SETUP_SLOT_SECONDS);
        assert!(last >= SETUP_REPEATS);
        assert_eq!(times.0.len(), last);
        // A set-up slower than the slot still runs its minimum.
        let slow = || {
            std::thread::sleep(std::time::Duration::from_secs_f64(SETUP_SLOT_SECONDS));
            Ok(())
        };
        assert_eq!(times.slot(2, slow), Ok(()));
        assert_eq!(times.0.len(), last + 2);
        assert!(times.slot(1, || Err::<(), _>("bad".into())).is_err());
    }

    #[test]
    fn setup_reports_the_median_paced_repeat_in_seconds() {
        let times = SetupTimes(vec![
            timing(2.0, 2.0),
            timing(1.5, 1.0),
            timing(9.0, 3.0),
            timing(4.0, 1.0),
        ]);
        let mut report = RunReport::default();
        times.set_metric(&mut report);
        // Paced: 1, 1.5, 3, 4 ms.
        assert!((report.values["setup_s"].value - 0.00225).abs() < 1e-15);
        assert_eq!(report.values["setup_s"].samples, 4);
    }

    #[test]
    fn latencies_take_each_keys_median_paced_time() {
        let mut a = Latencies::default();
        a.record("x".into(), timing(10.0, 2.0));
        a.record("x".into(), timing(3.0, 1.0));
        a.record("x".into(), timing(8.0, 1.0));
        a.record("y".into(), timing(9.0, 1.0));
        let mut b = Latencies::default();
        b.record("y".into(), timing(14.0, 2.0));
        a.merge(b);
        assert_eq!(a.keys(), 2);
        let mut report = RunReport::default();
        a.set_metrics(&mut report);
        // x: paced 5, 3, 8 → 5; y: paced 9, 7 → 8.
        assert_eq!(report.values["op_p50_ms"].value, 5.0);
        assert_eq!(report.values["op_p90_ms"].value, 8.0);
        assert_eq!(report.values["op_mean_ms"].value, 6.5);
    }

    #[test]
    fn every_probe_pairs_an_operation_with_a_positive_slowdown() {
        let both = Probe {
            all_workers: true,
            arithmetic: 0.5,
            sensitivity: 1.25,
        };
        for probe in [ALLOCATION_BOUND, both] {
            let mut pacer = Pacer::new(probe);
            for _ in 0..2 {
                let (value, t) = pacer.timed(|| 42);
                assert_eq!(value, 42);
                assert!(t.slowdown > 0.0 && t.slowdown.is_finite());
                assert!(t.paced_ms() >= 0.0);
            }
        }
        assert_eq!(timing(36.0, 1.5).paced_ms(), 24.0);
    }

    #[test]
    fn consecutive_operations_share_the_probe_between_them() {
        let mut pacer = Pacer::new(ALLOCATION_BOUND);
        pacer.timed(|| ());
        let between = pacer.last.expect("probed after the operation");
        pacer.last = Some(between * 9.0);
        let (_, t) = pacer.timed(|| ());
        // The mean of 9×, carried over, and a fresh probe near 1×.
        assert!(t.slowdown > between * 4.5, "{} vs {between}", t.slowdown);
    }

    #[test]
    fn clock_needs_both_time_and_count() {
        let clock = Clock::start(0.0, 3);
        assert!(!clock.done(2));
        assert!(clock.done(3));
        assert!(!Clock::start(3600.0, 0).done(10));
    }
}
