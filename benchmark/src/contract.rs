//! The benchmark's contract: its workloads and metrics. `BENCHMARK.json`
//! at the repository root states the same contract; a unit test keeps
//! the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, ratios of useful work).
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name, unique across the contract.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for the
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// Workload names and why each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sta-decoder9",
        "decoder-9 (10,258 devices) slope STA at 2 threads: extraction-bound, so it shows changes to extract, stages and pool fan-out",
    ),
    (
        "sta-sram64",
        "SRAM 64x64 (24,704 devices) STA: fixed per-scenario logic solves and one huge extraction region, where threads and caching do not help",
    ),
    (
        "serve-decoder7",
        "daemon write path: two clients edit decoder-7 sessions over TCP, through wire decode, admission, incremental re-analysis and journal fsync",
    ),
    (
        "spice-decoder6",
        "nanospice reference transients (about 500 unknowns) of the latest-switching path per decoder-6 scenario: isolates the simulator",
    ),
];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_p90_ms", "ms", Better::Lower, 0.25),
    e2e("op_mean_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Per-layer metrics, reported by every workload from the separate
/// traced run. A layer a workload never enters reads 0.
pub const PER_LAYER: [MetricSpec; 34] = [
    layer("mosnet.parse_ms", "ms", Better::Lower),
    layer("mosnet.parse_mb_per_s", "MB/s", Better::Higher),
    layer("crystal.logic.self_ms", "ms", Better::Lower),
    layer("crystal.extract.self_ms", "ms", Better::Lower),
    layer("crystal.extract.stages_per_op", "count", Better::Lower),
    layer("crystal.extract.us_per_stage", "us", Better::Lower),
    layer("crystal.models.self_ms", "ms", Better::Lower),
    layer("crystal.models.evals_per_op", "count", Better::Lower),
    layer("crystal.analyzer.eval_ratio", "ratio", Better::Lower),
    layer("crystal.analyzer.propagate_self_ms", "ms", Better::Lower),
    layer("crystal.unspanned_ms", "ms", Better::Lower),
    layer("crystal.analyzer.self_coverage", "ratio", Better::Higher),
    layer("crystal.pool.items_per_fanout", "count", Better::Higher),
    layer("crystal.memo.hits_per_op", "count", Better::Higher),
    layer("crystal.memo.misses_per_op", "count", Better::Lower),
    layer("crystal.memo.hit_rate", "ratio", Better::Higher),
    layer("crystal.incremental.self_ms", "ms", Better::Lower),
    layer("crystal.incremental.apply_ms", "ms", Better::Lower),
    layer("crystal.incremental.reuse_ratio", "ratio", Better::Higher),
    layer("crystal.session.apply_ms", "ms", Better::Lower),
    layer("crystal.session.journal_ms", "ms", Better::Lower),
    layer("crystal.server.rtt_ms", "ms", Better::Lower),
    layer("crystal.server.wire_ms", "ms", Better::Lower),
    layer("nanospice.circuit.elaborate_ms", "ms", Better::Lower),
    layer("nanospice.circuit.unknowns", "count", Better::Lower),
    layer("nanospice.engine.op_ms", "ms", Better::Lower),
    layer("nanospice.engine.tran_ms", "ms", Better::Lower),
    layer("nanospice.engine.us_per_step", "us", Better::Lower),
    layer("crystal.sta_serial_ms", "ms", Better::Lower),
    layer("e6.speedup_vs_spice", "x", Better::Higher),
    layer("e6.delay_err_p50_pct", "%", Better::Lower),
    layer("e6.delay_err_p90_pct", "%", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
    layer("trace.calls", "count", Better::Higher),
];

/// Looks a metric up by name in either table.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    fn line(spec: &MetricSpec) -> String {
        let better = match spec.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let mut out = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            spec.name, spec.unit
        );
        if let Some(bound) = spec.bound {
            out.push_str(&format!(", \"bound\": {bound}"));
        }
        out.push('}');
        out
    }

    #[test]
    fn benchmark_json_states_this_contract() {
        for spec in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(CONTRACT.contains(&line(spec)), "missing {}", line(spec));
        }
        for (name, why) in WORKLOADS {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(CONTRACT.contains(&entry), "missing {entry}");
        }
        assert!(CONTRACT.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        let metrics = CONTRACT.matches("\"name\": ").count();
        assert_eq!(
            metrics,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        let setup = spec("setup_s")
            .and_then(|s| s.bound)
            .expect("setup_s bounded");
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= setup && b <= 0.25)));
    }
}
