//! Exclusive (self) time per layer, computed from the spans an
//! `obs::TraceSink` collected during one traced call.
//!
//! The benchmark opens a root span (labelled [`ROOT_LABEL`]) around each
//! call it traces; the program's own spans nest inside it. A span's self
//! time is its duration minus the part of it its direct children cover,
//! which is well defined because spans recorded on one thread nest. The
//! traced runs use one thread, so every span of a call lies on it.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use crystal::obs::{EventKind, Phase, TraceEvent, TraceSink};

/// Label of the span the benchmark opens around each traced call.
pub const ROOT_LABEL: &str = "benchmark.call";

/// Layer name of the root span's self time: time inside the traced call
/// that no span of the program covers.
pub const UNSPANNED: &str = "crystal.unspanned";

/// Start and end of one span, in nanoseconds on the sink's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Span start.
    pub start: u64,
    /// Span end.
    pub end: u64,
}

/// Self time of every interval, in input order: its length minus the
/// part its direct children cover. A child that overruns its parent
/// (the two ends are read from separate clock samples) is clipped to it.
pub fn self_times(intervals: &[Interval]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| (intervals[i].start, Reverse(intervals[i].end)));
    let mut covered = vec![0u64; intervals.len()];
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let span = intervals[i];
        while let Some(&top) = open.last() {
            if span.start >= intervals[top].end {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = open.last() {
            covered[parent] += span.end.min(intervals[parent].end) - span.start;
        }
        open.push(i);
    }
    intervals
        .iter()
        .zip(covered)
        .map(|(span, c)| (span.end - span.start).saturating_sub(c))
        .collect()
}

/// The layer a span's self time belongs to. Thread-pool fan-out spans
/// wrap the per-item work itself (there are no per-item spans), so their
/// self time is the work of the layer that fanned out.
pub fn layer_of(event: &TraceEvent) -> &'static str {
    match (event.phase, event.label.as_str()) {
        (Phase::Batch, ROOT_LABEL) => UNSPANNED,
        (Phase::Logic, _) => "crystal.logic",
        (Phase::Extraction, _) | (Phase::Pool, "extract_fanout") => "crystal.extract",
        (Phase::Evaluation, _) | (Phase::Pool, "evaluate_fanout") => "crystal.models",
        (Phase::Propagation, _) => "crystal.analyzer.propagate",
        (Phase::Incremental, _) => "crystal.incremental",
        _ => "other",
    }
}

/// Self time and counters summed over many traced calls.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Traced calls (root spans) seen.
    pub calls: u64,
    /// Summed wall time of the root spans.
    pub root_ns: u64,
    /// Summed self time per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Thread-pool fan-outs and the items they carried.
    pub fanouts: u64,
    /// Items carried by those fan-outs.
    pub fanout_items: u64,
    /// Program counters, keyed `phase.name`.
    pub counters: BTreeMap<String, u64>,
}

impl Attribution {
    /// Folds in one call's sink. Returns `false` when the sink dropped
    /// events, which leaves the attribution incomplete.
    pub fn add(&mut self, sink: &TraceSink) -> bool {
        let spans: Vec<TraceEvent> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Span)
            .collect();
        let intervals: Vec<Interval> = spans
            .iter()
            .map(|e| Interval {
                start: e.t_ns,
                end: e.t_ns + e.dur_ns,
            })
            .collect();
        for (event, self_ns) in spans.iter().zip(self_times(&intervals)) {
            let layer = layer_of(event);
            if layer == UNSPANNED {
                self.calls += 1;
                self.root_ns += event.dur_ns;
            }
            *self.self_ns.entry(layer).or_default() += self_ns;
            if event.phase == Phase::Pool {
                self.fanouts += 1;
                self.fanout_items += event
                    .fields
                    .iter()
                    .find(|(k, _)| k == "items")
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        for ((phase, name), value) in sink.counters() {
            *self
                .counters
                .entry(format!("{}.{name}", phase.name()))
                .or_default() += value;
        }
        sink.dropped() == 0
    }

    /// Mean self time of `layer` per traced call, in milliseconds.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.per_call(self.self_ns.get(layer).copied().unwrap_or(0)) / 1e6
    }

    /// Mean of a summed counter per traced call.
    pub fn counter_per_call(&self, key: &str) -> f64 {
        self.per_call(self.counters.get(key).copied().unwrap_or(0))
    }

    /// Share of the root wall time that the program's own spans explain.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        let spanned: u64 = self
            .self_ns
            .iter()
            .filter(|(layer, _)| **layer != UNSPANNED)
            .map(|(_, ns)| ns)
            .sum();
        spanned as f64 / self.root_ns as f64
    }

    fn per_call(&self, total: u64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            total as f64 / self.calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,25);  root > b [50,90)
        let spans = [iv(0, 100), iv(10, 40), iv(15, 25), iv(50, 90)];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn input_order_and_shared_starts_do_not_matter() {
        // A child starting with its parent sorts after it (longer first).
        let spans = [iv(0, 10), iv(0, 100), iv(10, 100)];
        assert_eq!(self_times(&spans), vec![10, 0, 90]);
    }

    #[test]
    fn siblings_after_a_closed_span_attach_to_the_right_parent() {
        let spans = [iv(0, 50), iv(0, 20), iv(20, 30), iv(60, 70)];
        // [0,50) has children [0,20) and [20,30); [60,70) is a new root.
        assert_eq!(self_times(&spans), vec![20, 20, 10, 10]);
    }

    #[test]
    fn overrunning_child_is_clipped_to_its_parent() {
        let spans = [iv(0, 100), iv(90, 103)];
        assert_eq!(self_times(&spans), vec![90, 13]);
    }

    #[test]
    fn layers_follow_phase_and_fanout_label() {
        let event = |phase, label: &str| TraceEvent {
            seq: 0,
            t_ns: 0,
            kind: EventKind::Span,
            phase,
            label: label.to_string(),
            dur_ns: 0,
            value: 0,
            fields: Vec::new(),
        };
        assert_eq!(layer_of(&event(Phase::Batch, ROOT_LABEL)), UNSPANNED);
        assert_eq!(
            layer_of(&event(Phase::Pool, "extract_fanout")),
            "crystal.extract"
        );
        assert_eq!(
            layer_of(&event(Phase::Pool, "evaluate_fanout")),
            "crystal.models"
        );
        assert_eq!(
            layer_of(&event(Phase::Logic, "steady_states")),
            "crystal.logic"
        );
        assert_eq!(layer_of(&event(Phase::Server, "x")), "other");
    }

    #[test]
    fn real_sink_attribution_sums_to_the_root() {
        let sink = TraceSink::new();
        {
            let _root = sink.span(Phase::Batch, ROOT_LABEL);
            {
                let _extract = sink.span(Phase::Extraction, "extract");
                let _fanout = sink.span(Phase::Pool, "extract_fanout");
            }
            let _logic = sink.span(Phase::Logic, "steady_states");
        }
        sink.count(Phase::Extraction, "stages_extracted", 7);
        let mut attribution = Attribution::default();
        assert!(attribution.add(&sink));
        assert_eq!(attribution.calls, 1);
        assert_eq!(attribution.fanouts, 1);
        assert_eq!(
            attribution.counter_per_call("extraction.stages_extracted"),
            7.0
        );
        let spanned = attribution.root_ns - attribution.self_ns[UNSPANNED];
        let program: u64 = attribution
            .self_ns
            .iter()
            .filter(|(layer, _)| **layer != UNSPANNED)
            .map(|(_, ns)| ns)
            .sum();
        // Clipping only trims clock overrun past the root's end.
        assert!(program >= spanned);
        assert!(attribution.coverage() > 0.0);
    }
}
