//! `spice-decoder6`: reference transients of decoder-6 paths. For each
//! scenario a serial slope analysis picks the latest-switching node and
//! predicts its delay; a nanospice transient then measures that path.
//! The window scales with the prediction (a fixed 10 ns window leaves
//! larger decoders with no output swing).
//!
//! A pass is every address input × edge × transition (108 paths) in a
//! seeded order; `min(2, hardware threads)` callers take paths from a
//! shared queue, and the measured phase runs whole passes, so the delay
//! error is computed over the same paths whatever the seed.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario, TimingResult};
use crystal::fingerprint::{result_digest, SplitMix64};
use crystal::models::ModelKind;
use crystal::obs::{Phase, TraceSink};
use crystal::tech::Technology;
use mosnet::units::Seconds;
use mosnet::{Network, NodeId};
use nanospice::analysis::{measure_transition, Edge as SimEdge, TransitionSpec};
use nanospice::devices::Waveshape;
use nanospice::engine::Simulator;
use nanospice::{elaborate, MosModelSet};

use crate::harness::{
    workers, Clock, Latencies, Pacer, SetupTimes, ALLOCATION_BOUND, MIN_PASSES, SETUP_REPEATS,
};
use crate::inputs::{
    decoder_sim, every_scenario, load, scenario, shuffle, ScenarioSpec, SPICE_TRANSITIONS_NS,
};
use crate::report::{median_or_zero, ms, peak_rss_mb, ratio, RunReport};
use crate::selftime::{Attribution, ROOT_LABEL};
use crate::stats::percentile;

const BITS: usize = 6;
const FILE: &str = "decoder6.sim";
/// Transient window: this multiple of the predicted delay, at least
/// [`MIN_WINDOW_S`], in [`STEPS`] fixed steps.
const WINDOW_FACTOR: f64 = 8.0;
const MIN_WINDOW_S: f64 = 10e-9;
const STEPS: f64 = 1000.0;
/// A p90 delay error above this marks the run incorrect: a model or
/// simulator change that lands here has broken the comparison.
const MAX_ERR_P90_PCT: f64 = 75.0;

/// Technology, netlist and simulator models, ready to measure.
struct Loaded {
    tech: Technology,
    net: Network,
    inputs: Vec<NodeId>,
    models: MosModelSet,
}

/// One measured path.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Path {
    predicted_s: f64,
    reference_s: f64,
}

impl Path {
    fn error_pct(&self) -> f64 {
        100.0 * (self.predicted_s - self.reference_s).abs() / self.reference_s
    }
}

/// The slope scenario of a path: the spec's input switches, every other
/// input sits at 0 — the levels the transient holds them at.
fn path_scenario(loaded: &Loaded, spec: &ScenarioSpec) -> Result<Scenario, String> {
    let mut scenario = scenario(&loaded.net, spec)?;
    for &other in &loaded.inputs {
        if other != scenario.input {
            scenario = scenario.with_static(other, false);
        }
    }
    Ok(scenario)
}

/// A reference measurement: the path it measured, the transition it
/// drove, and how long it took.
struct Reference {
    path: Path,
    transition: TransitionSpec,
    ms: f64,
}

/// Measures the latest-switching node of a slope result with a nanospice
/// transient.
fn reference(
    loaded: &Loaded,
    scenario: &Scenario,
    result: &TimingResult,
) -> Result<Reference, String> {
    let (output, arrival) = result.max_arrival().ok_or("nothing switches")?;
    let sim_edge = |edge| match edge {
        Edge::Rising => SimEdge::Rising,
        Edge::Falling => SimEdge::Falling,
    };
    let statics = scenario
        .statics
        .iter()
        .map(|(&node, &high)| (node, if high { loaded.models.vdd } else { 0.0 }))
        .collect();
    let transition = TransitionSpec {
        input: scenario.input,
        input_edge: sim_edge(scenario.edge),
        input_transition: scenario.input_transition,
        output,
        output_edge: sim_edge(arrival.edge),
        statics,
        expected_final: None,
    };
    let predicted_s = arrival.time.value();
    let window_s = (WINDOW_FACTOR * predicted_s).max(MIN_WINDOW_S);
    let started = Instant::now();
    let measured = measure_transition(
        &loaded.net,
        &loaded.models,
        &transition,
        Seconds(window_s),
        Seconds(window_s / STEPS),
    )
    .map_err(|e| e.to_string())?;
    let ms = ms(started.elapsed());
    let path = Path {
        predicted_s,
        reference_s: measured.delay.value(),
    };
    if path.reference_s <= 0.0 {
        return Err(format!("non-positive reference delay {}", path.reference_s));
    }
    Ok(Reference {
        path,
        transition,
        ms,
    })
}

/// One path end to end: serial slope analysis, then the reference.
/// Returns the path and the slope and reference times.
fn measure(loaded: &Loaded, spec: &ScenarioSpec) -> Result<(Path, f64, f64), String> {
    let scenario = path_scenario(loaded, spec)?;
    let started = Instant::now();
    let result = analyze_with_options(
        &loaded.net,
        &loaded.tech,
        ModelKind::Slope,
        &scenario,
        AnalyzerOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let slope_ms = ms(started.elapsed());
    let reference = reference(loaded, &scenario, &result)?;
    Ok((reference.path, slope_ms, reference.ms))
}

/// Runs the workload: the timed loop, or with `traced` the per-layer
/// run.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunReport {
    let mut report = RunReport::default();
    let text = decoder_sim(BITS);
    let mut parse_s = Vec::new();
    let mut setup_times = SetupTimes::default();
    let mut setup = || {
        let (tech, net, parse) = load(&text, FILE)?;
        parse_s.push(parse);
        let inputs = net.inputs();
        Ok(Loaded {
            tech,
            net,
            inputs,
            models: MosModelSet::default(),
        })
    };
    let outcome = setup_times
        .slot(SETUP_REPEATS, &mut setup)
        .and_then(|loaded| {
            let names: Vec<String> = loaded
                .inputs
                .iter()
                .map(|&id| loaded.net.node(id).name().to_string())
                .collect();
            let paths = every_scenario(&names, &SPICE_TRANSITIONS_NS);
            if traced {
                run_traced(&loaded, &paths, seed, seconds, &mut report);
                Ok(())
            } else {
                let setup_again = || setup_times.slot(1, &mut setup).map(drop);
                run_timed(&loaded, &paths, seed, seconds, &mut report, setup_again)
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

/// What one caller measured.
#[derive(Default)]
struct CallerLog {
    latencies: Latencies,
    slope_ms: Vec<f64>,
    reference_ms: Vec<f64>,
    paths: Vec<(String, Path)>,
    failures: Vec<String>,
}

/// Whole passes over `paths`, each shared by `min(2, hardware threads)`
/// callers; after each pass `setup_again` times another set-up slot.
fn run_timed(
    loaded: &Loaded,
    paths: &[ScenarioSpec],
    seed: u64,
    seconds: f64,
    report: &mut RunReport,
    mut setup_again: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let callers = workers();
    let mut rng = SplitMix64::new(seed);
    let mut logs: Vec<CallerLog> = Vec::new();
    let mut passes = 0;
    let clock = Clock::start(seconds, MIN_PASSES);
    while !clock.done(passes) {
        let mut order = paths.to_vec();
        shuffle(&mut order, &mut rng);
        let next = AtomicUsize::new(0);
        let caller = || {
            let mut log = CallerLog::default();
            let mut pacer = Pacer::new(ALLOCATION_BOUND);
            while let Some(spec) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                let (outcome, timing) = pacer.timed(|| measure(loaded, spec));
                match outcome {
                    Ok((path, slope, reference)) => {
                        log.latencies.record(spec.key(), timing);
                        log.slope_ms.push(slope);
                        log.reference_ms.push(reference);
                        log.paths.push((spec.key(), path));
                    }
                    Err(e) => log.failures.push(format!("[{}] {e}", spec.key())),
                }
            }
            log
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers).map(|_| scope.spawn(caller)).collect();
            for handle in handles {
                logs.push(handle.join().expect("caller thread panicked"));
            }
        });
        report.attempted += order.len() as u64;
        passes += 1;
        setup_again()?;
    }

    let mut latencies = Latencies::default();
    let mut distinct: BTreeMap<String, Path> = BTreeMap::new();
    let (mut slope, mut reference) = (Vec::new(), Vec::new());
    for log in logs {
        for failure in &log.failures {
            report.fail(1, failure.clone());
        }
        for (key, path) in &log.paths {
            if *distinct.entry(key.clone()).or_insert(*path) != *path {
                report.fail(1, format!("[{key}] measurement changed between passes"));
            }
        }
        latencies.merge(log.latencies);
        slope.extend(log.slope_ms);
        reference.extend(log.reference_ms);
    }
    latencies.set_metrics(report);
    let mut errors: Vec<f64> = distinct.values().map(Path::error_pct).collect();
    errors.sort_by(f64::total_cmp);
    if let (Some(p50), Some(p90)) = (percentile(&errors, 0.5), percentile(&errors, 0.9)) {
        report.notes.push(format!(
            "slope vs reference |error| over {} paths: p50 {p50:.2}%, p90 {p90:.2}%",
            errors.len()
        ));
        if p90 > MAX_ERR_P90_PCT {
            report.problem(format!(
                "p90 delay error {p90:.1}% exceeds {MAX_ERR_P90_PCT}%"
            ));
        }
    }
    slope.sort_by(f64::total_cmp);
    reference.sort_by(f64::total_cmp);
    if let (Some(s), Some(r)) = (percentile(&slope, 0.5), percentile(&reference, 0.5)) {
        report.notes.push(format!(
            "E6 (informational): reference {r:.1} ms / slope {s:.3} ms = {:.0}x at p50",
            r / s
        ));
    }
    report.notes.push(format!(
        "{callers} callers; {} paths, median of {passes} passes",
        latencies.keys()
    ));
    Ok(())
}

/// The per-layer run, one caller: per path an untraced and a traced
/// slope analysis, the reference measurement, and — timed on their own —
/// the elaboration and the operating point the transient starts from.
fn run_traced(
    loaded: &Loaded,
    paths: &[ScenarioSpec],
    seed: u64,
    seconds: f64,
    report: &mut RunReport,
) {
    let mut rng = SplitMix64::new(seed);
    let (mut plain_ms, mut traced_ms, mut reference_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut elaborate_ms, mut op_ms, mut tran_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut errors = Vec::new();
    let mut unknowns = 0usize;
    let mut attribution = Attribution::default();
    let clock = Clock::start(seconds, 1);
    'passes: loop {
        let mut order = paths.to_vec();
        shuffle(&mut order, &mut rng);
        for spec in order {
            if clock.done(report.attempted as usize) {
                break 'passes;
            }
            report.attempted += 1;
            match trace_path(
                loaded,
                &spec,
                report.attempted.is_multiple_of(2),
                &mut attribution,
            ) {
                Ok(t) => {
                    plain_ms.push(t.plain_ms);
                    traced_ms.push(t.traced_ms);
                    reference_ms.push(t.reference_ms);
                    elaborate_ms.push(t.elaborate_ms);
                    op_ms.push(t.op_ms);
                    tran_ms.push(t.reference_ms - t.elaborate_ms);
                    errors.push(t.path.error_pct());
                    unknowns = t.unknowns;
                }
                Err(e) => report.fail(1, format!("[{}] {e}", spec.key())),
            }
        }
    }
    report.set_analyzer_layers(&attribution);
    report.set_trace_overhead(&traced_ms, &plain_ms);
    let n = reference_ms.len();
    let (slope, reference, tran) = (
        median_or_zero(&plain_ms),
        median_or_zero(&reference_ms),
        median_or_zero(&tran_ms),
    );
    report.set("crystal.sta_serial_ms", slope, n);
    report.set("e6.speedup_vs_spice", ratio(reference, slope), n);
    report.set(
        "nanospice.circuit.elaborate_ms",
        median_or_zero(&elaborate_ms),
        n,
    );
    report.set("nanospice.circuit.unknowns", unknowns as f64, n);
    report.set("nanospice.engine.op_ms", median_or_zero(&op_ms), n);
    report.set("nanospice.engine.tran_ms", tran, n);
    report.set("nanospice.engine.us_per_step", tran * 1e3 / STEPS, n);
    errors.sort_by(f64::total_cmp);
    report.set(
        "e6.delay_err_p50_pct",
        percentile(&errors, 0.5).unwrap_or(0.0),
        n,
    );
    report.set(
        "e6.delay_err_p90_pct",
        percentile(&errors, 0.9).unwrap_or(0.0),
        n,
    );
}

/// Timings of one path in the per-layer run.
struct TracedPath {
    path: Path,
    plain_ms: f64,
    traced_ms: f64,
    reference_ms: f64,
    elaborate_ms: f64,
    op_ms: f64,
    unknowns: usize,
}

fn trace_path(
    loaded: &Loaded,
    spec: &ScenarioSpec,
    plain_first: bool,
    attribution: &mut Attribution,
) -> Result<TracedPath, String> {
    let scenario = path_scenario(loaded, spec)?;
    let analyze_once = |trace: Option<Arc<TraceSink>>| {
        let started = Instant::now();
        let root = trace.as_ref().map(|t| t.span(Phase::Batch, ROOT_LABEL));
        let options = AnalyzerOptions {
            trace: trace.clone(),
            ..AnalyzerOptions::default()
        };
        let outcome = analyze_with_options(
            &loaded.net,
            &loaded.tech,
            ModelKind::Slope,
            &scenario,
            options,
        );
        drop(root);
        outcome
            .map(|result| (result, ms(started.elapsed())))
            .map_err(|e| e.to_string())
    };
    // The legs alternate which runs first, so neither always finds the
    // processor caches warm.
    let sink = Arc::new(TraceSink::new());
    let ((plain, plain_ms), (traced, traced_ms)) = if plain_first {
        let plain = analyze_once(None)?;
        (plain, analyze_once(Some(Arc::clone(&sink)))?)
    } else {
        let traced = analyze_once(Some(Arc::clone(&sink)))?;
        (analyze_once(None)?, traced)
    };
    if result_digest(&loaded.net, &plain) != result_digest(&loaded.net, &traced) {
        return Err("tracing changed arrivals".to_string());
    }
    if !attribution.add(&sink) {
        return Err("trace sink dropped events".to_string());
    }

    let Reference {
        path,
        transition,
        ms: reference_ms,
    } = reference(loaded, &scenario, &plain)?;

    // The circuit the transient starts from: every input at the level it
    // holds before the edge. Elaboration stamps one source per input
    // whatever its shape, and this operating point is the transient's
    // initial one.
    let before_edge = match transition.input_edge {
        SimEdge::Rising => 0.0,
        SimEdge::Falling => loaded.models.vdd,
    };
    let mut drives: HashMap<NodeId, Waveshape> = transition
        .statics
        .iter()
        .map(|(&node, &v)| (node, Waveshape::Dc(v)))
        .collect();
    drives.insert(transition.input, Waveshape::Dc(before_edge));
    let started = Instant::now();
    let elaboration = elaborate(&loaded.net, &loaded.models, &drives);
    let elaborate_ms = ms(started.elapsed());
    let started = Instant::now();
    Simulator::new(&elaboration.circuit)
        .op()
        .map_err(|e| format!("operating point: {e}"))?;
    let op_ms = ms(started.elapsed());

    Ok(TracedPath {
        path,
        plain_ms,
        traced_ms,
        reference_ms,
        elaborate_ms,
        op_ms,
        unknowns: elaboration.circuit.unknown_count(),
    })
}
