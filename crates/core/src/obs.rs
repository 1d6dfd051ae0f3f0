//! Zero-dependency structured observability for the timing engine.
//!
//! Every optimized path in crystal (dirty-set propagation, the memo
//! caches, batched scenario fan-out) is a place where a wrong answer can
//! hide behind a fast one. This module provides the instrumentation the
//! differential self-check harness ([`crate::selfcheck`]) and every perf
//! PR lean on: span-style timers and per-phase counters collected into a
//! thread-safe [`TraceSink`], renderable as JSON lines (machine) or an
//! aligned metrics table (human).
//!
//! Design constraints, in order:
//!
//! 1. **zero dependencies** — the build environment is offline, so the
//!    event model and the aggregation are local, and the JSON lines go
//!    through the workspace's one codec ([`crate::fingerprint::JsonLine`]);
//! 2. **cheap when off** — the analyzer threads an
//!    `Option<&TraceSink>`; a `None` costs one branch per span site;
//! 3. **safe under parallelism** — events are pushed under a mutex from
//!    any worker thread, counters are merged under the same lock, and
//!    the event buffer is bounded (overflow increments a drop counter
//!    instead of reallocating forever).
//!
//! ## Event schema
//!
//! [`TraceSink::to_json_lines`] emits one JSON object per line:
//!
//! ```json
//! {"seq":3,"t_ns":18250,"kind":"span","phase":"extraction","label":"extract","dur_ns":17098,"fields":{"targets":"5"}}
//! {"seq":9,"t_ns":61774,"kind":"counter","phase":"cache","label":"hits","value":12}
//! ```
//!
//! * `seq` — global emission order (monotone per sink);
//! * `t_ns` — nanoseconds since the sink was created (span start time);
//! * `kind` — `"span"` (has `dur_ns`), `"instant"`, or `"counter"`
//!   (has `value`);
//! * `phase` — one of the [`Phase`] names;
//! * `fields` — free-form string key/value annotations.

// Trace lines go through the codec the journals and the wire share.
use crate::fingerprint::JsonLine;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default bound on buffered events before overflow counting starts.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// The analysis phases instrumentation is grouped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Switch-level steady-state solving (before/after input vectors).
    Logic,
    /// Stage extraction (building RC trees for every switching node).
    Extraction,
    /// Per-stage delay-model evaluation.
    Evaluation,
    /// Arrival propagation (Jacobi rounds to the fixpoint).
    Propagation,
    /// Stage-memo-cache traffic.
    Cache,
    /// Thread-pool fan-out envelopes.
    Pool,
    /// Batch orchestration (one envelope per scenario).
    Batch,
    /// Differential self-checking.
    Check,
    /// Durable execution: journal appends, resume skips, watchdog
    /// timeouts, retries, and quarantines.
    Durable,
    /// Incremental re-analysis: netlist diffing, dependency-index
    /// invalidation, and arrival replay.
    Incremental,
    /// The analysis daemon: connections accepted, requests served or
    /// shed, deadlines fired, panics isolated, sessions recovered.
    Server,
    /// The cross-run result store: records written, read, resumed, and
    /// diffed.
    RunStore,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; 12] = [
        Phase::Logic,
        Phase::Extraction,
        Phase::Evaluation,
        Phase::Propagation,
        Phase::Cache,
        Phase::Pool,
        Phase::Batch,
        Phase::Check,
        Phase::Durable,
        Phase::Incremental,
        Phase::Server,
        Phase::RunStore,
    ];

    /// The stable lowercase name used in JSON events and metrics rows.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Logic => "logic",
            Phase::Extraction => "extraction",
            Phase::Evaluation => "evaluation",
            Phase::Propagation => "propagation",
            Phase::Cache => "cache",
            Phase::Pool => "pool",
            Phase::Batch => "batch",
            Phase::Check => "check",
            Phase::Durable => "durable",
            Phase::Incremental => "incremental",
            Phase::Server => "server",
            Phase::RunStore => "runstore",
        }
    }
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A timed region; `dur_ns` is meaningful.
    Span,
    /// A point-in-time marker.
    Instant,
    /// A counter increment; `value` is meaningful.
    Counter,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }
}

/// One recorded observation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global emission order within the sink.
    pub seq: u64,
    /// Nanoseconds since the sink was created (span start time).
    pub t_ns: u64,
    /// Which event this is.
    pub kind: EventKind,
    /// The phase the event belongs to.
    pub phase: Phase,
    /// Event label (span name or counter name).
    pub label: String,
    /// Span duration in nanoseconds ([`EventKind::Span`] only).
    pub dur_ns: u64,
    /// Counter increment ([`EventKind::Counter`] only).
    pub value: u64,
    /// Free-form string annotations.
    pub fields: Vec<(String, String)>,
}

/// A thread-safe collector of spans and counters.
///
/// Share one sink (behind an [`std::sync::Arc`]) across an analysis, a
/// batch, or a whole self-check run; snapshot it afterwards with
/// [`TraceSink::events`], [`TraceSink::metrics`], or
/// [`TraceSink::to_json_lines`].
#[derive(Debug)]
pub struct TraceSink {
    origin: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    capacity: usize,
    events: Mutex<Vec<TraceEvent>>,
    counters: Mutex<BTreeMap<(Phase, String), u64>>,
}

impl TraceSink {
    /// A sink with the [`DEFAULT_EVENT_CAPACITY`].
    pub fn new() -> TraceSink {
        TraceSink::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A sink buffering at most `capacity` events; once full, further
    /// events are dropped (and counted) rather than growing unboundedly.
    /// Counters are unaffected by the event cap.
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            origin: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            capacity: capacity.max(1),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace event lock");
        if events.len() >= self.capacity {
            drop(events);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(event);
    }

    /// Opens a timed span; the span records itself into the sink when
    /// dropped (or explicitly [`SpanGuard::finish`]ed).
    pub fn span(&self, phase: Phase, label: impl Into<String>) -> SpanGuard<'_> {
        SpanGuard {
            sink: self,
            phase,
            label: label.into(),
            start_ns: self.now_ns(),
            started: Instant::now(),
            fields: Vec::new(),
        }
    }

    /// Records a point-in-time marker.
    pub fn instant(&self, phase: Phase, label: impl Into<String>) {
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            t_ns: self.now_ns(),
            kind: EventKind::Instant,
            phase,
            label: label.into(),
            dur_ns: 0,
            value: 0,
            fields: Vec::new(),
        };
        self.push(event);
    }

    /// Adds `n` to the `(phase, name)` counter. Counters are aggregated
    /// (one total per name), not buffered per increment, so they are safe
    /// to bump from hot paths.
    pub fn count(&self, phase: Phase, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut counters = self.counters.lock().expect("trace counter lock");
        *counters.entry((phase, name.to_string())).or_insert(0) += n;
    }

    /// Snapshot of every buffered event, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace event lock").clone()
    }

    /// Snapshot of the aggregated counters.
    pub fn counters(&self) -> BTreeMap<(Phase, String), u64> {
        self.counters.lock().expect("trace counter lock").clone()
    }

    /// Events dropped after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Aggregates spans and counters into per-phase metrics.
    ///
    /// Two time totals are produced per phase: `total_ns` sums every
    /// span (CPU-like — overlapping workers count multiply) and
    /// `wall_ns` is the union of the span intervals (elapsed time the
    /// phase was active at all). With one worker the two coincide; at N
    /// workers `total_ns` can approach `N × wall_ns`, which is why perf
    /// gates must compare `wall_ns`.
    pub fn metrics(&self) -> Metrics {
        let events = self.events.lock().expect("trace event lock");
        let mut per_phase: BTreeMap<Phase, PhaseMetrics> = BTreeMap::new();
        let mut intervals: BTreeMap<Phase, Vec<(u64, u64)>> = BTreeMap::new();
        fn entry(map: &mut BTreeMap<Phase, PhaseMetrics>, phase: Phase) -> &mut PhaseMetrics {
            map.entry(phase).or_insert_with(|| PhaseMetrics {
                phase,
                spans: 0,
                total_ns: 0,
                wall_ns: 0,
                counters: Vec::new(),
            })
        }
        for event in events.iter() {
            if event.kind == EventKind::Span {
                let m = entry(&mut per_phase, event.phase);
                m.spans += 1;
                m.total_ns = m.total_ns.saturating_add(event.dur_ns);
                intervals
                    .entry(event.phase)
                    .or_default()
                    .push((event.t_ns, event.t_ns.saturating_add(event.dur_ns)));
            }
        }
        drop(events);
        for (phase, spans) in intervals {
            entry(&mut per_phase, phase).wall_ns = interval_union_ns(spans);
        }
        for ((phase, name), value) in self.counters.lock().expect("trace counter lock").iter() {
            entry(&mut per_phase, *phase)
                .counters
                .push((name.clone(), *value));
        }
        Metrics {
            phases: per_phase.into_values().collect(),
            events_dropped: self.dropped(),
        }
    }

    /// Renders every event (and then every counter total) as JSON lines —
    /// the `--trace` file format.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            let mut line = JsonLine::new()
                .num("seq", event.seq)
                .num("t_ns", event.t_ns)
                .str("kind", event.kind.name())
                .str("phase", event.phase.name())
                .str("label", &event.label);
            if event.kind == EventKind::Span {
                line = line.num("dur_ns", event.dur_ns);
            }
            if event.kind == EventKind::Counter {
                line = line.num("value", event.value);
            }
            if !event.fields.is_empty() {
                let fields = event.fields.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                line = line.object("fields", fields);
            }
            out.push_str(&line.finish());
            out.push('\n');
        }
        // Counter totals come last so a consumer replaying the file sees
        // final values after every span they summarize.
        let first_seq = self.seq.load(Ordering::Relaxed);
        for (offset, ((phase, name), value)) in self.counters().into_iter().enumerate() {
            let line = JsonLine::new()
                .num("seq", first_seq + offset as u64)
                .num("t_ns", self.now_ns())
                .str("kind", "counter")
                .str("phase", phase.name())
                .str("label", &name)
                .num("value", value);
            out.push_str(&line.finish());
            out.push('\n');
        }
        out
    }
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::new()
    }
}

/// An open span; records itself into the sink on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sink: &'a TraceSink,
    phase: Phase,
    label: String,
    start_ns: u64,
    started: Instant,
    fields: Vec<(String, String)>,
}

impl SpanGuard<'_> {
    /// Attaches a string annotation to the span.
    pub fn field(&mut self, key: &str, value: impl ToString) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let event = TraceEvent {
            seq: self.sink.seq.fetch_add(1, Ordering::Relaxed),
            t_ns: self.start_ns,
            kind: EventKind::Span,
            phase: self.phase,
            label: std::mem::take(&mut self.label),
            dur_ns: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            value: 0,
            fields: std::mem::take(&mut self.fields),
        };
        self.sink.push(event);
    }
}

/// Aggregated per-phase timing and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// The phase.
    pub phase: Phase,
    /// Number of spans recorded for the phase.
    pub spans: u64,
    /// Total span time in nanoseconds (sum over spans; overlapping
    /// concurrent spans count multiply, like CPU time).
    pub total_ns: u64,
    /// Span-union time in nanoseconds: the elapsed time during which at
    /// least one span of the phase was open. Overlap counts once, so
    /// `wall_ns <= total_ns` always holds.
    pub wall_ns: u64,
    /// `(name, total)` counters of the phase, name-sorted.
    pub counters: Vec<(String, u64)>,
}

/// Length of the union of `[start, end)` intervals, in nanoseconds.
fn interval_union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut union = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match cur {
            Some((cs, ce)) if start <= ce => cur = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                union = union.saturating_add(ce - cs);
                cur = Some((start, end));
            }
            None => cur = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = cur {
        union = union.saturating_add(ce - cs);
    }
    union
}

/// A full metrics snapshot ([`TraceSink::metrics`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Per-phase aggregates, phase-ordered.
    pub phases: Vec<PhaseMetrics>,
    /// Events lost to the buffer cap (0 in healthy runs).
    pub events_dropped: u64,
}

impl Metrics {
    /// Total span nanoseconds recorded for `phase` (0 when absent).
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .find(|m| m.phase == phase)
            .map_or(0, |m| m.total_ns)
    }

    /// Span-union (wall) nanoseconds recorded for `phase` (0 when absent).
    pub fn phase_wall_ns(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .find(|m| m.phase == phase)
            .map_or(0, |m| m.wall_ns)
    }

    /// The value of a `(phase, name)` counter (0 when absent).
    pub fn counter(&self, phase: Phase, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|m| m.phase == phase)
            .and_then(|m| m.counters.iter().find(|(n, _)| n == name))
            .map_or(0, |(_, v)| *v)
    }

    /// Renders the human-readable `--metrics` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>12}  counters",
            "phase", "spans", "cpu (ms)", "wall (ms)"
        );
        for m in &self.phases {
            let counters = m
                .counters
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12.3} {:>12.3}  {}",
                m.phase.name(),
                m.spans,
                m.total_ns as f64 / 1e6,
                m.wall_ns as f64 / 1e6,
                counters
            );
        }
        if self.events_dropped > 0 {
            let _ = writeln!(out, "({} events dropped at capacity)", self.events_dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_phase_label_and_duration() {
        let sink = TraceSink::new();
        {
            let mut span = sink.span(Phase::Extraction, "extract");
            span.field("targets", 5);
        }
        let events = sink.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, EventKind::Span);
        assert_eq!(e.phase, Phase::Extraction);
        assert_eq!(e.label, "extract");
        assert_eq!(e.fields, vec![("targets".to_string(), "5".to_string())]);
    }

    #[test]
    fn counters_aggregate_per_phase_and_name() {
        let sink = TraceSink::new();
        sink.count(Phase::Cache, "hits", 3);
        sink.count(Phase::Cache, "hits", 4);
        sink.count(Phase::Cache, "misses", 1);
        sink.count(Phase::Evaluation, "stage_evals", 9);
        sink.count(Phase::Evaluation, "noop", 0); // zero increments vanish
        let metrics = sink.metrics();
        assert_eq!(metrics.counter(Phase::Cache, "hits"), 7);
        assert_eq!(metrics.counter(Phase::Cache, "misses"), 1);
        assert_eq!(metrics.counter(Phase::Evaluation, "stage_evals"), 9);
        assert_eq!(metrics.counter(Phase::Evaluation, "noop"), 0);
    }

    #[test]
    fn json_lines_are_parseable_shape() {
        let sink = TraceSink::new();
        sink.span(Phase::Logic, "steady \"states\"").finish();
        sink.count(Phase::Cache, "hits", 2);
        sink.instant(Phase::Batch, "scenario done");
        let json = sink.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 3, "{json}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"phase\":\""), "{line}");
        }
        // Escaping: the embedded quotes survive as \".
        assert!(lines[0].contains("steady \\\"states\\\""), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\":\"instant\""), "{}", lines[1]);
        assert!(lines[2].contains("\"value\":2"), "{}", lines[2]);
        // The exact bytes, with the clock readings masked.
        let mask = |line: &str| {
            let mut out = String::new();
            let mut rest = line;
            while let Some(at) = ["\"t_ns\":", "\"dur_ns\":"]
                .iter()
                .filter_map(|key| rest.find(key).map(|i| i + key.len()))
                .min()
            {
                out.push_str(&rest[..at]);
                out.push('#');
                rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
            }
            out + rest
        };
        let sink = TraceSink::new();
        let mut span = sink.span(Phase::Extraction, "extract");
        span.field("targets", 5);
        span.field("k\"ey", "v\\al");
        span.finish();
        sink.count(Phase::Cache, "hits", 12);
        let masked: Vec<String> = sink.to_json_lines().lines().map(mask).collect();
        assert_eq!(
            masked,
            [
                concat!(
                    r#"{"seq":0,"t_ns":#,"kind":"span","phase":"extraction","label":"extract","#,
                    r#""dur_ns":#,"fields":{"targets":"5","k\"ey":"v\\al"}}"#
                ),
                r#"{"seq":1,"t_ns":#,"kind":"counter","phase":"cache","label":"hits","value":12}"#,
            ]
        );
    }

    #[test]
    fn event_capacity_bounds_memory_and_counts_drops() {
        let sink = TraceSink::with_capacity(4);
        for i in 0..10 {
            sink.instant(Phase::Pool, format!("e{i}"));
        }
        assert_eq!(sink.events().len(), 4);
        assert_eq!(sink.dropped(), 6);
        assert_eq!(sink.metrics().events_dropped, 6);
    }

    #[test]
    fn metrics_render_lists_every_recorded_phase() {
        let sink = TraceSink::new();
        sink.span(Phase::Extraction, "extract").finish();
        sink.span(Phase::Propagation, "round").finish();
        sink.count(Phase::Cache, "hits", 5);
        let text = sink.metrics().render();
        for needle in ["extraction", "propagation", "cache", "hits=5"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn wall_ns_counts_overlap_once() {
        // Two fully overlapping unit intervals, one adjacent, one disjoint.
        assert_eq!(interval_union_ns(vec![(0, 10), (0, 10)]), 10);
        assert_eq!(interval_union_ns(vec![(0, 10), (10, 20)]), 20);
        assert_eq!(interval_union_ns(vec![(0, 10), (5, 15), (30, 40)]), 25);
        assert_eq!(interval_union_ns(vec![]), 0);
    }

    #[test]
    fn overlapping_spans_report_wall_below_total() {
        let sink = TraceSink::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    let span = sink.span(Phase::Evaluation, "eval");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    span.finish();
                });
            }
        });
        let metrics = sink.metrics();
        let total = metrics.phase_total_ns(Phase::Evaluation);
        let wall = metrics.phase_wall_ns(Phase::Evaluation);
        assert!(wall > 0);
        assert!(wall <= total, "wall {wall} > total {total}");
        // Four concurrent ~20ms spans: total is ~80ms, wall ~20ms. Leave
        // generous slack for scheduling noise, but overlap must show.
        assert!(
            wall < total * 3 / 4,
            "expected clear overlap: wall {wall}, total {total}"
        );
    }

    #[test]
    fn concurrent_emission_is_safe() {
        let sink = TraceSink::new();
        std::thread::scope(|s| {
            for w in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..100 {
                        sink.span(Phase::Pool, format!("w{w}e{i}")).finish();
                        sink.count(Phase::Pool, "jobs", 1);
                    }
                });
            }
        });
        assert_eq!(sink.events().len(), 400);
        assert_eq!(sink.metrics().counter(Phase::Pool, "jobs"), 400);
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 400);
    }

    #[test]
    fn phase_names_are_stable() {
        for phase in Phase::ALL {
            assert!(!phase.name().is_empty());
        }
        assert_eq!(Phase::Extraction.name(), "extraction");
        assert_eq!(Phase::Check.name(), "check");
    }
}
