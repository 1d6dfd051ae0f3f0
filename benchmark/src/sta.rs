//! `sta-decoder9` and `sta-sram64`: a closed loop of slope-model timing
//! analyses of one large netlist, one scenario per call.
//!
//! The seed fixes a run's scenarios; each pass runs all of them in a
//! fresh seeded order against one fresh `StageCache`, and the measured
//! phase runs whole passes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crystal::analyzer::{analyze, analyze_with_options, AnalyzerOptions};
use crystal::fingerprint::{result_digest, SplitMix64};
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::obs::{Phase, TraceSink};
use crystal::tech::Technology;
use mosnet::Network;

use crate::harness::{
    workers, Clock, Latencies, Pacer, Probe, SetupTimes, MIN_PASSES, SETUP_REPEATS,
};
use crate::inputs::{self, load, scenario, shuffle, ScenarioSpec, STA_TRANSITIONS_NS};
use crate::report::{median_or_zero, ms, peak_rss_mb, RunReport};
use crate::selftime::{Attribution, ROOT_LABEL};

/// One STA workload: its netlist and the scenarios a run analyzes.
#[derive(Debug)]
pub struct StaWorkload {
    /// Netlist file name, as the parser reports it.
    pub file: &'static str,
    /// The netlist text.
    pub sim: fn() -> String,
    /// A run's scenarios over the netlist's inputs.
    pub scenarios: fn(&[String], &mut SplitMix64) -> Vec<ScenarioSpec>,
    /// How an analysis uses the host.
    pub probe: Probe,
}

/// decoder-9: every address input × edge × transition, 108 scenarios.
/// An analysis extracts hundreds of small stages on both threads.
pub const DECODER9: StaWorkload = StaWorkload {
    file: "decoder9.sim",
    sim: || inputs::decoder_sim(9),
    scenarios: |names, _| inputs::every_scenario(names, &STA_TRANSITIONS_NS),
    probe: Probe {
        all_workers: true,
        arithmetic: 0.5,
        sensitivity: 1.0,
    },
};

/// SRAM 64×64: every row select × edge, each with a seeded transition,
/// 128 scenarios. Each switches one word line; the scenarios cost alike,
/// so a run need not cover every transition. An analysis extracts one
/// large stage on one thread, through more memory than the probe
/// touches, and slows about as the probe's allocation part to the power
/// 1.25.
pub const SRAM64: StaWorkload = StaWorkload {
    file: "sram64x64.sim",
    sim: || inputs::sram_sim(64, 64),
    scenarios: |names, rng| inputs::each_input_edge(names, &STA_TRANSITIONS_NS, rng),
    probe: Probe {
        all_workers: false,
        arithmetic: 0.0,
        sensitivity: 1.25,
    },
};

/// Technology and netlist parsed from text, with the input names.
struct Loaded {
    tech: Technology,
    net: Network,
    inputs: Vec<String>,
}

/// Runs the workload: the timed loop, or with `traced` the per-layer
/// run.
pub fn run(workload: &StaWorkload, seed: u64, seconds: f64, traced: bool) -> RunReport {
    let mut report = RunReport::default();
    let text = (workload.sim)();
    let mut parse_s = Vec::new();
    let mut setup_times = SetupTimes::default();
    let mut setup = || {
        let (tech, net, parse) = load(&text, workload.file)?;
        parse_s.push(parse);
        let inputs = net
            .inputs()
            .into_iter()
            .map(|id| net.node(id).name().to_string())
            .collect();
        Ok(Loaded { tech, net, inputs })
    };
    let outcome = setup_times
        .slot(SETUP_REPEATS, &mut setup)
        .and_then(|loaded| {
            let mut rng = SplitMix64::new(seed);
            let scenarios = (workload.scenarios)(&loaded.inputs, &mut rng);
            if traced {
                run_traced(&loaded, &scenarios, &mut rng, seconds, &mut report);
                Ok(())
            } else {
                let setup_again = || setup_times.slot(1, &mut setup).map(drop);
                run_timed(
                    &loaded,
                    &scenarios,
                    &mut rng,
                    seconds,
                    workload.probe,
                    &mut report,
                    setup_again,
                )
            }
        });
    if let Err(e) = outcome {
        report.attempted = report.attempted.max(1);
        report.fail(1, format!("set-up failed: {e}"));
    }
    if !traced {
        setup_times.set_metric(&mut report);
        report.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), 1);
    }
    report.set_parse_metrics(&parse_s, text.len());
    report
}

/// Digest of every completed operation, per scenario.
#[derive(Default)]
struct Digests(BTreeMap<String, (ScenarioSpec, u64, u64)>);

impl Digests {
    /// Records one op's digest; a digest that differs from the one the
    /// same scenario gave before is a wrong output.
    fn record(&mut self, spec: &ScenarioSpec, digest: u64, report: &mut RunReport) {
        let entry = self
            .0
            .entry(spec.key())
            .or_insert_with(|| (spec.clone(), digest, 0));
        entry.2 += 1;
        if entry.1 != digest {
            report.fail(1, format!("[{}] digest changed between runs", spec.key()));
        }
    }

    /// Re-analyzes a seeded 1-in-8 sample of the scenarios serially and
    /// uncached; every op of a sampled scenario must match it.
    fn check_sample(&self, loaded: &Loaded, rng: &mut SplitMix64, report: &mut RunReport) {
        let mut sample: Vec<&(ScenarioSpec, u64, u64)> =
            self.0.values().filter(|_| rng.next_below(8) == 0).collect();
        if sample.is_empty() {
            sample.extend(self.0.values().next());
        }
        for (spec, digest, ops) in sample {
            let fresh = scenario(&loaded.net, spec).and_then(|s| {
                analyze(&loaded.net, &loaded.tech, ModelKind::Slope, &s).map_err(|e| e.to_string())
            });
            match fresh {
                Ok(result) if result_digest(&loaded.net, &result) == *digest => {}
                Ok(_) => report.fail(
                    *ops,
                    format!("[{}] differs from a serial uncached analysis", spec.key()),
                ),
                Err(e) => report.fail(*ops, format!("[{}] reference analysis: {e}", spec.key())),
            }
        }
    }
}

/// Whole passes at `min(2, hardware threads)` analyzer threads; after
/// each pass `setup_again` times another set-up slot.
fn run_timed(
    loaded: &Loaded,
    scenarios: &[ScenarioSpec],
    rng: &mut SplitMix64,
    seconds: f64,
    probe: Probe,
    report: &mut RunReport,
    mut setup_again: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let threads = workers();
    let mut latencies = Latencies::default();
    let mut digests = Digests::default();
    let mut passes = 0;
    let clock = Clock::start(seconds, MIN_PASSES);
    while !clock.done(passes) {
        let mut order = scenarios.to_vec();
        shuffle(&mut order, rng);
        let cache = Arc::new(StageCache::new());
        let mut pacer = Pacer::new(probe);
        for spec in order {
            report.attempted += 1;
            let scenario = scenario(&loaded.net, &spec)?;
            let options = AnalyzerOptions {
                threads,
                cache: Some(Arc::clone(&cache)),
                ..AnalyzerOptions::default()
            };
            let (outcome, timing) = pacer.timed(|| {
                analyze_with_options(
                    &loaded.net,
                    &loaded.tech,
                    ModelKind::Slope,
                    &scenario,
                    options,
                )
            });
            match outcome {
                Ok(result) => {
                    latencies.record(spec.key(), timing);
                    digests.record(&spec, result_digest(&loaded.net, &result), report);
                }
                Err(e) => report.fail(1, format!("[{}] {e}", spec.key())),
            }
        }
        passes += 1;
        setup_again()?;
    }
    latencies.set_metrics(report);
    digests.check_sample(loaded, rng, report);
    report.notes.push(format!(
        "{threads} analyzer threads; {} scenarios, median of {passes} passes",
        latencies.keys()
    ));
    Ok(())
}

/// One thread; per scenario an untraced and a traced analysis, each leg
/// with its own cache so neither warms the other's.
fn run_traced(
    loaded: &Loaded,
    scenarios: &[ScenarioSpec],
    rng: &mut SplitMix64,
    seconds: f64,
    report: &mut RunReport,
) {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut attribution = Attribution::default();
    let clock = Clock::start(seconds, 1);
    'passes: loop {
        let mut order = scenarios.to_vec();
        shuffle(&mut order, rng);
        let (plain_cache, traced_cache) =
            (Arc::new(StageCache::new()), Arc::new(StageCache::new()));
        for spec in order {
            if clock.done(report.attempted as usize) {
                break 'passes;
            }
            report.attempted += 1;
            let scenario = match scenario(&loaded.net, &spec) {
                Ok(s) => s,
                Err(e) => {
                    report.fail(1, e);
                    continue;
                }
            };
            let analyze_once = |cache: &Arc<StageCache>, trace: Option<Arc<TraceSink>>| {
                let options = AnalyzerOptions {
                    cache: Some(Arc::clone(cache)),
                    trace: trace.clone(),
                    ..AnalyzerOptions::default()
                };
                let started = Instant::now();
                let root = trace.as_ref().map(|t| t.span(Phase::Batch, ROOT_LABEL));
                let outcome = analyze_with_options(
                    &loaded.net,
                    &loaded.tech,
                    ModelKind::Slope,
                    &scenario,
                    options,
                );
                drop(root);
                (outcome, ms(started.elapsed()))
            };
            // The legs alternate which runs first, so neither always
            // finds the processor caches warm.
            let sink = Arc::new(TraceSink::new());
            let traced_leg = || analyze_once(&traced_cache, Some(Arc::clone(&sink)));
            let ((plain, plain_ms), (with_trace, traced_ms)) = if report.attempted.is_multiple_of(2)
            {
                let plain = analyze_once(&plain_cache, None);
                (plain, traced_leg())
            } else {
                let traced = traced_leg();
                (analyze_once(&plain_cache, None), traced)
            };
            match (plain, with_trace) {
                (Ok(a), Ok(b))
                    if result_digest(&loaded.net, &a) == result_digest(&loaded.net, &b) =>
                {
                    untraced.push(plain_ms);
                    traced.push(traced_ms);
                    if !attribution.add(&sink) {
                        report.problem("trace sink dropped events".to_string());
                    }
                }
                (Ok(_), Ok(_)) => {
                    report.fail(1, format!("[{}] tracing changed arrivals", spec.key()))
                }
                (Err(e), _) | (_, Err(e)) => report.fail(1, format!("[{}] {e}", spec.key())),
            }
        }
    }
    report.set_analyzer_layers(&attribution);
    report.set(
        "crystal.sta_serial_ms",
        median_or_zero(&untraced),
        untraced.len(),
    );
    report.set_trace_overhead(&traced, &untraced);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::min_samples_for_tail;

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn each_workload_has_enough_scenarios_for_a_p90() {
        let mut rng = SplitMix64::new(1);
        let decoder = (DECODER9.scenarios)(&names("a", 9), &mut rng).len();
        let sram = (SRAM64.scenarios)(&names("row", 64), &mut rng).len();
        assert_eq!((decoder, sram), (108, 128));
        assert!(decoder.min(sram) >= min_samples_for_tail(0.9, 10));
    }
}
