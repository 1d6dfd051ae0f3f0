//! Worst-case sweeps: run many single-input scenarios and keep the
//! latest arrival — how a Crystal-class tool finds a circuit's critical
//! path without being told which input matters.
//!
//! The `*_with_options` sweeps fan their scenarios across
//! [`AnalyzerOptions::threads`] workers with [`crate::pool::map`], one
//! serial analysis per scenario; runs come back in scenario order at any
//! thread count. A failing scenario stops the dispatch of later ones,
//! and since the pool dispatches in scenario order, the sweep's error is
//! the first failure in scenario order at every thread count.

use crate::analyzer::{
    analyze_with_options, AnalyzerOptions, Arrival, Edge, Scenario, TimingResult,
};
use crate::error::TimingError;
use crate::models::ModelKind;
use crate::obs::Phase;
use crate::pool;
use crate::tech::Technology;
use mosnet::units::Seconds;
use mosnet::{Network, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Upper bound on primary inputs for the exhaustive sweep (2^(n−1) static
/// vectors per switching input would explode beyond this).
pub const MAX_EXHAUSTIVE_INPUTS: usize = 12;

/// The outcome of a sweep: every analyzed scenario with its result.
#[derive(Debug)]
pub struct SweepResult {
    runs: Vec<(Scenario, TimingResult)>,
}

impl SweepResult {
    /// All `(scenario, result)` pairs, in scenario order.
    pub fn runs(&self) -> &[(Scenario, TimingResult)] {
        &self.runs
    }

    /// The worst (latest) arrival at any primary output across all runs:
    /// `(output, arrival, scenario index)`.
    pub fn worst_output_arrival(&self, net: &Network) -> Option<(NodeId, Arrival, usize)> {
        let outputs = net.outputs();
        let mut worst: Option<(NodeId, Arrival, usize)> = None;
        for (i, (_, result)) in self.runs.iter().enumerate() {
            for &out in &outputs {
                if let Some(a) = result.arrival(out) {
                    if worst.as_ref().is_none_or(|w| a.time > w.1.time) {
                        worst = Some((out, *a, i));
                    }
                }
            }
        }
        worst
    }

    /// The worst arrival at a specific node across all runs.
    pub fn worst_arrival_at(&self, node: NodeId) -> Option<(Arrival, usize)> {
        let mut worst: Option<(Arrival, usize)> = None;
        for (i, (_, result)) in self.runs.iter().enumerate() {
            if let Some(a) = result.arrival(node) {
                if worst.as_ref().is_none_or(|w| a.time > w.0.time) {
                    worst = Some((*a, i));
                }
            }
        }
        worst
    }
}

/// Sweeps both edges of every primary input, holding the remaining inputs
/// at `base_statics` (unlisted inputs low).
///
/// # Errors
/// Propagates analyzer failures; scenarios in which nothing switches are
/// kept (their results simply carry no arrivals).
pub fn sweep_inputs(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    input_transition: Seconds,
    base_statics: &HashMap<NodeId, bool>,
) -> Result<SweepResult, TimingError> {
    sweep_inputs_with_options(
        net,
        tech,
        model,
        input_transition,
        base_statics,
        &AnalyzerOptions::default(),
    )
}

/// [`sweep_inputs`] with explicit [`AnalyzerOptions`] — in particular a
/// shared stage cache, which pays off across a sweep's many
/// near-identical scenarios, and the scenario worker count.
///
/// # Errors
/// See [`sweep_inputs`]; of several failing scenarios, the first in
/// sweep order is reported.
pub fn sweep_inputs_with_options(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    input_transition: Seconds,
    base_statics: &HashMap<NodeId, bool>,
    options: &AnalyzerOptions,
) -> Result<SweepResult, TimingError> {
    let mut scenarios = Vec::new();
    for input in net.inputs() {
        for edge in [Edge::Rising, Edge::Falling] {
            let mut scenario = Scenario::step(input, edge).with_input_transition(input_transition);
            for (&n, &v) in base_statics {
                if n != input {
                    scenario = scenario.with_static(n, v);
                }
            }
            scenarios.push(scenario);
        }
    }
    run_all(net, tech, model, scenarios, options)
}

/// Exhaustive sweep: for every primary input, both edges, over **all**
/// static assignments of the remaining inputs — the true worst case for
/// circuits with few inputs.
///
/// # Errors
/// Returns [`TimingError::BadParameter`] when the circuit has more than
/// [`MAX_EXHAUSTIVE_INPUTS`] primary inputs; propagates analyzer errors.
pub fn sweep_exhaustive(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    input_transition: Seconds,
) -> Result<SweepResult, TimingError> {
    sweep_exhaustive_with_options(
        net,
        tech,
        model,
        input_transition,
        &AnalyzerOptions::default(),
    )
}

/// [`sweep_exhaustive`] with explicit [`AnalyzerOptions`].
///
/// # Errors
/// See [`sweep_exhaustive`]; of several failing scenarios, the first in
/// sweep order is reported.
pub fn sweep_exhaustive_with_options(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    input_transition: Seconds,
    options: &AnalyzerOptions,
) -> Result<SweepResult, TimingError> {
    let inputs = net.inputs();
    if inputs.len() > MAX_EXHAUSTIVE_INPUTS {
        return Err(TimingError::BadParameter {
            message: format!(
                "exhaustive sweep limited to {MAX_EXHAUSTIVE_INPUTS} inputs, circuit has {}",
                inputs.len()
            ),
        });
    }
    let mut scenarios = Vec::new();
    for &input in inputs.iter() {
        let others: Vec<NodeId> = inputs.iter().copied().filter(|&n| n != input).collect();
        for vector in 0u64..(1u64 << others.len()) {
            for edge in [Edge::Rising, Edge::Falling] {
                let mut scenario =
                    Scenario::step(input, edge).with_input_transition(input_transition);
                for (bit, &other) in others.iter().enumerate() {
                    scenario = scenario.with_static(other, vector >> bit & 1 == 1);
                }
                scenarios.push(scenario);
            }
        }
    }
    run_all(net, tech, model, scenarios, options)
}

/// Analyzes every scenario across `options.threads` workers and pairs
/// each with its result, in scenario order; the first failure in that
/// order is the sweep's error. A failure stops the dispatch of later
/// scenarios, and the pool dispatches in scenario order, so every
/// scenario ahead of the first failure has run.
fn run_all(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    scenarios: Vec<Scenario>,
    options: &AnalyzerOptions,
) -> Result<SweepResult, TimingError> {
    let failed = AtomicBool::new(false);
    let _span = options.trace.as_deref().map(|t| {
        let mut span = t.span(Phase::Pool, "sweep");
        let workers = pool::resolve_threads(options.threads).min(scenarios.len().max(1));
        span.field("workers", workers);
        span.field("items", scenarios.len());
        span
    });
    let results = pool::map(options.threads, &scenarios, Some(&failed), |_, scenario| {
        let result = analyze_with_options(net, tech, model, scenario, options.clone());
        if result.is_err() {
            failed.store(true, Ordering::Release);
        }
        result
    });
    let mut runs = Vec::with_capacity(scenarios.len());
    // The scenarios that ran are a prefix holding the first failure, so
    // the `?` returns before the loop reaches a skipped one.
    for (scenario, result) in scenarios.into_iter().zip(results.into_iter().flatten()) {
        runs.push((scenario, result?));
    }
    Ok(SweepResult { runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosnet::generators::{decoder2to4, inverter_chain, nand, Style};
    use mosnet::units::Farads;

    fn tech() -> Technology {
        Technology::nominal()
    }

    #[test]
    fn sweep_covers_both_edges_of_each_input() {
        let net = inverter_chain(Style::Cmos, 2, 1.0, Farads::from_femto(100.0)).unwrap();
        let sweep = sweep_inputs(
            &net,
            &tech(),
            ModelKind::Slope,
            Seconds::ZERO,
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(sweep.runs().len(), 2); // one input × two edges
        let (out, arrival, _) = sweep.worst_output_arrival(&net).expect("output switches");
        assert_eq!(net.node(out).name(), "out");
        assert!(arrival.time.value() > 0.0);
    }

    #[test]
    fn exhaustive_finds_sensitized_nand_path() {
        // A plain sweep with all-low statics never sensitizes a NAND
        // (side inputs must be high); the exhaustive sweep must find it.
        let net = nand(Style::Cmos, 3, Farads::from_femto(100.0)).unwrap();
        let out = net.node_by_name("out").unwrap();
        let plain = sweep_inputs(
            &net,
            &tech(),
            ModelKind::Slope,
            Seconds::ZERO,
            &HashMap::new(),
        )
        .unwrap();
        assert!(plain.worst_arrival_at(out).is_none());

        let full = sweep_exhaustive(&net, &tech(), ModelKind::Slope, Seconds::ZERO).unwrap();
        // 3 inputs × 4 static vectors × 2 edges = 24 runs.
        assert_eq!(full.runs().len(), 24);
        let (arrival, idx) = full.worst_arrival_at(out).expect("sensitized path found");
        assert!(arrival.time.value() > 0.0);
        // The winning scenario must hold both side inputs high.
        let (scenario, _) = &full.runs()[idx];
        assert!(scenario.statics.values().all(|&v| v));
    }

    #[test]
    fn decoder_worst_case_is_a_word_line() {
        let net = decoder2to4(Style::Cmos, Farads::from_femto(150.0)).unwrap();
        let sweep = sweep_exhaustive(&net, &tech(), ModelKind::Slope, Seconds::ZERO).unwrap();
        // 2 inputs × 2 vectors × 2 edges = 8 runs.
        assert_eq!(sweep.runs().len(), 8);
        let (node, arrival, _) = sweep.worst_output_arrival(&net).expect("decodes");
        assert!(net.node(node).name().starts_with('w'));
        assert!(arrival.time.value() > 0.0);
    }

    #[test]
    fn exhaustive_rejects_too_many_inputs() {
        use mosnet::generators::barrel_shifter;
        // A 8×8 shifter has 16 inputs.
        let net = barrel_shifter(Style::Cmos, 8, Farads::from_femto(100.0)).unwrap();
        assert!(matches!(
            sweep_exhaustive(&net, &tech(), ModelKind::Slope, Seconds::ZERO),
            Err(TimingError::BadParameter { .. })
        ));
    }

    #[test]
    fn worst_arrival_is_max_over_runs() {
        let net = inverter_chain(Style::Cmos, 3, 1.0, Farads::from_femto(100.0)).unwrap();
        let out = net.node_by_name("out").unwrap();
        let sweep = sweep_inputs(
            &net,
            &tech(),
            ModelKind::Slope,
            Seconds::ZERO,
            &HashMap::new(),
        )
        .unwrap();
        let (worst, _) = sweep.worst_arrival_at(out).unwrap();
        for (_, result) in sweep.runs() {
            if let Some(a) = result.arrival(out) {
                assert!(a.time <= worst.time);
            }
        }
    }
}
