//! What one workload run reports, and the three forms it is written in:
//! readable lines, the closing JSON object, and flat result records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::contract::{self, MetricSpec};
use crate::selftime::{Attribution, UNSPANNED};

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it summarizes.
    pub samples: usize,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Informational lines printed with the run (not metrics).
    pub notes: Vec<String>,
}

impl RunReport {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            contract::spec(name).is_some(),
            "{name} is not in the contract"
        );
        self.values.insert(name, Value { value, samples });
    }

    /// Records `ops` failed operations and why.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }

    /// Records a wrong output that is not tied to one operation.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// `true` when every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Sets the analyzer-internal per-layer metrics from traced calls.
    pub fn set_analyzer_layers(&mut self, a: &Attribution) {
        let calls = a.calls as usize;
        let stages = a.counter_per_call("extraction.stages_extracted");
        let evals = a.counter_per_call("evaluation.stage_evals_charged");
        let hits = a.counter_per_call("cache.hits");
        let misses = a.counter_per_call("cache.misses");
        let extract_ms = a.self_ms("crystal.extract");
        self.set("crystal.logic.self_ms", a.self_ms("crystal.logic"), calls);
        self.set("crystal.extract.self_ms", extract_ms, calls);
        self.set("crystal.extract.stages_per_op", stages, calls);
        self.set(
            "crystal.extract.us_per_stage",
            ratio(extract_ms * 1e3, stages),
            calls,
        );
        self.set("crystal.models.self_ms", a.self_ms("crystal.models"), calls);
        self.set("crystal.models.evals_per_op", evals, calls);
        self.set("crystal.analyzer.eval_ratio", ratio(evals, stages), calls);
        self.set(
            "crystal.analyzer.propagate_self_ms",
            a.self_ms("crystal.analyzer.propagate"),
            calls,
        );
        self.set(
            "crystal.incremental.self_ms",
            a.self_ms("crystal.incremental"),
            calls,
        );
        self.set("crystal.unspanned_ms", a.self_ms(UNSPANNED), calls);
        self.set("crystal.analyzer.self_coverage", a.coverage(), calls);
        self.set(
            "crystal.pool.items_per_fanout",
            ratio(a.fanout_items as f64, a.fanouts as f64),
            a.fanouts as usize,
        );
        self.set("crystal.memo.hits_per_op", hits, calls);
        self.set("crystal.memo.misses_per_op", misses, calls);
        self.set("crystal.memo.hit_rate", ratio(hits, hits + misses), calls);
        self.set("trace.calls", a.calls as f64, calls);
    }

    /// Sets `trace.overhead_pct`: the median over calls of a traced
    /// call's time relative to the untraced run of the same call.
    pub fn set_trace_overhead(&mut self, traced_ms: &[f64], untraced_ms: &[f64]) {
        let relative: Vec<f64> = traced_ms
            .iter()
            .zip(untraced_ms)
            .map(|(t, u)| 100.0 * (t / u - 1.0))
            .collect();
        self.set(
            "trace.overhead_pct",
            median_or_zero(&relative),
            relative.len(),
        );
    }

    /// Sets the parser metrics from the set-up's parse times.
    pub fn set_parse_metrics(&mut self, parse_s: &[f64], bytes: usize) {
        let parse = median_or_zero(parse_s);
        self.set("mosnet.parse_ms", parse * 1e3, parse_s.len());
        self.set(
            "mosnet.parse_mb_per_s",
            ratio(bytes as f64 / 1e6, parse),
            parse_s.len(),
        );
    }

    /// The metrics this run must print: the end-to-end table untraced,
    /// the per-layer table traced. A layer the workload never entered
    /// reads 0; a missing end-to-end metric means the run failed early,
    /// and reads 0 beside `correct: false`.
    pub fn table(&self, traced: bool) -> Vec<(&'static MetricSpec, Value)> {
        let specs: &'static [MetricSpec] = if traced {
            &contract::PER_LAYER
        } else {
            &contract::END_TO_END
        };
        specs
            .iter()
            .map(|spec| {
                let value = self.values.get(spec.name).copied().unwrap_or(Value {
                    value: 0.0,
                    samples: 0,
                });
                (spec, value)
            })
            .collect()
    }

    /// The closing line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the table with its unit.
    pub fn json_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (spec, value)) in self.table(traced).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                json_number(value.value),
                spec.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Flat one-line JSON records, one per metric, for result files.
    pub fn records(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = String::new();
        for (spec, value) in self.table(traced) {
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\
                 \"metric\":\"{}\",\"unit\":\"{}\",\"value\":{},\"samples\":{},\
                 \"correct\":{}}}",
                u8::from(traced),
                spec.name,
                spec.unit,
                json_number(value.value),
                value.samples,
                self.correct()
            );
        }
        out
    }
}

/// Median of unsorted values, or 0 when there are none.
pub fn median_or_zero(values: &[f64]) -> f64 {
    crate::stats::median(values).unwrap_or(0.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A finite number in full precision (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The process's peak resident set in MB, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_of_the_table() {
        let mut report = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        report.set("setup_s", 0.5, 5);
        let line = report.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for spec in contract::END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", spec.name)));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(crystal::fingerprint::parse_json_object(
            report.records("w", 1, true).lines().next().unwrap()
        )
        .is_some());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut report = RunReport {
            attempted: 4,
            ..RunReport::default()
        };
        report.fail(2, "boom".into());
        assert!(!report.correct());
        assert!(report
            .json_line(true)
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 2"));
    }
}
