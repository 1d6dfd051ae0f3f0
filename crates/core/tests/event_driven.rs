//! Property tests for event-driven (dirty-set) propagation: the
//! analyzer must reproduce an independent full-Jacobi oracle bit for bit
//! at every thread count, while charging strictly fewer stage
//! evaluations on multi-round circuits, and tripped budgets must land on
//! the identical partial result whether the run is cold or warm, serial
//! or parallel.

use crystal::analyzer::{
    analyze_with_options, AnalyzerOptions, Arrival, Edge, Scenario, TimingResult,
    NON_SWITCHING_CAP_WEIGHT,
};
use crystal::budget::AnalysisBudget;
use crystal::extract::stages_to_full;
use crystal::logic::{self, LogicValue};
use crystal::memo::StageCache;
use crystal::models::{estimate_with_fallback, ModelKind, TriggerContext};
use crystal::obs::{Phase, TraceSink};
use crystal::stage::Stage;
use crystal::tech::{Direction, Technology};
use crystal::TimingError;
use mosnet::generators::{inverter_chain, random_pass_mesh, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::{Network, NodeId, TransistorKind};
use std::collections::HashMap;
use std::sync::Arc;

/// What the full-Jacobi oracle computed: the fixpoint arrivals (indexed
/// by node), the stage evaluations it charged, and the rounds it ran,
/// the settling round included.
struct Oracle {
    arrivals: Vec<Option<Arrival>>,
    charged: usize,
    rounds: usize,
}

/// The propagation the dirty set replaced, rebuilt from public API only:
/// every switching target is re-evaluated every round against the
/// previous round's arrivals until no arrival moves by more than 1e-18 s.
/// Worst-case analysis with the analyzer's extraction rules (conduction
/// after the edge, non-switching capacitance weight, charge reservoirs)
/// and trigger rule (switching path gates, then releasing channel
/// neighbours; the latest trigger wins).
fn full_jacobi(net: &Network, tech: &Technology, model: ModelKind, scenario: &Scenario) -> Oracle {
    let (before, after) = logic::steady_states(net, scenario);
    let mut edge_of: HashMap<NodeId, Edge> = HashMap::new();
    for (id, node) in net.nodes() {
        let (b, a) = (before.value(id), after.value(id));
        if !node.kind().is_rail() && a.is_known() && b != a {
            let edge = if a == LogicValue::One {
                Edge::Rising
            } else {
                Edge::Falling
            };
            edge_of.insert(id, edge);
        }
    }
    let conducting = |tid| after.transistor_on(net, tid);
    let cap_scale = |n: NodeId| {
        let (b, a) = (before.value(n), after.value(n));
        if a.is_known() && b == a {
            NON_SWITCHING_CAP_WEIGHT
        } else {
            1.0
        }
    };
    let mut targets: Vec<(NodeId, Edge)> = edge_of
        .iter()
        .filter(|(&n, _)| n != scenario.input && !net.node(n).kind().is_driven_externally())
        .map(|(&n, &e)| (n, e))
        .collect();
    targets.sort_by_key(|&(n, _)| n);
    let work: Vec<(NodeId, Edge, Vec<Stage>)> = targets
        .into_iter()
        .map(|(node, edge)| {
            let direction = if edge == Edge::Rising {
                Direction::PullUp
            } else {
                Direction::PullDown
            };
            let reservoir = |n: NodeId| {
                edge == Edge::Rising
                    && before.value(n) == LogicValue::One
                    && after.value(n) == LogicValue::One
            };
            let stages = stages_to_full(
                net,
                tech,
                &conducting,
                node,
                direction,
                &cap_scale,
                &reservoir,
            );
            (node, edge, stages)
        })
        .collect();

    let mut arrivals: Vec<Option<Arrival>> = vec![None; net.node_count()];
    arrivals[scenario.input.index()] = Some(Arrival {
        time: Seconds::ZERO,
        transition: scenario.input_transition,
        edge: scenario.edge,
        cause: None,
        model,
    });
    let first_kind = |stage: &Stage| {
        stage
            .path
            .first()
            .map_or(TransistorKind::NEnhancement, |&t| net.transistor(t).kind())
    };
    let max_rounds = work.len() + 2;
    let mut charged = 0;
    for round in 0..=max_rounds {
        let mut candidates: Vec<Option<Arrival>> = Vec::with_capacity(work.len());
        for (node, edge, stages) in &work {
            charged += stages.len();
            let node = *node;
            let mut best: Option<Arrival> = None;
            for stage in stages {
                // (time, transition, trigger kind, trigger node)
                let mut trigger: Option<(Seconds, Seconds, TransistorKind, NodeId)> = None;
                let mut waiting = false;
                let mut offer = |gate: NodeId, kind: TransistorKind| {
                    if gate == node || !edge_of.contains_key(&gate) {
                        return;
                    }
                    match &arrivals[gate.index()] {
                        Some(a) if trigger.is_none_or(|t| a.time > t.0) => {
                            trigger = Some((a.time, a.transition, kind, gate));
                        }
                        Some(_) => {}
                        None => waiting = true,
                    }
                };
                for (&tid, &gate) in stage.path.iter().zip(&stage.path_gates) {
                    offer(gate, net.transistor(tid).kind());
                }
                for &tid in net.channel_neighbors(node) {
                    if before.transistor_on(net, tid) && !after.transistor_on(net, tid) {
                        offer(net.transistor(tid).gate(), first_kind(stage));
                    }
                }
                if waiting && trigger.is_none() {
                    continue;
                }
                let (t_trig, transition, kind, cause) =
                    trigger.unwrap_or((Seconds::ZERO, Seconds::ZERO, first_kind(stage), node));
                let ctx = TriggerContext {
                    input_transition: transition,
                    trigger_kind: kind,
                };
                let Ok((delay, used)) = estimate_with_fallback(model, tech, stage, ctx) else {
                    continue;
                };
                let candidate = Arrival {
                    time: t_trig + delay.delay,
                    transition: delay.output_transition,
                    edge: *edge,
                    cause: (cause != node).then_some(cause),
                    model: used,
                };
                if best.is_none_or(|b| candidate.time > b.time) {
                    best = Some(candidate);
                }
            }
            candidates.push(best);
        }
        let mut changed = false;
        for ((node, _, _), candidate) in work.iter().zip(candidates) {
            let Some(candidate) = candidate else { continue };
            let moved = arrivals[node.index()].is_none_or(|prev| {
                (candidate.time.value() - prev.time.value()).abs() > 1e-18
                    || (candidate.transition.value() - prev.transition.value()).abs() > 1e-18
            });
            if moved {
                arrivals[node.index()] = Some(candidate);
                changed = true;
            }
        }
        if !changed {
            return Oracle {
                arrivals,
                charged,
                rounds: round + 1,
            };
        }
    }
    panic!("full Jacobi found no fixpoint in {max_rounds} rounds");
}

/// A result's arrivals in the oracle's node-indexed layout.
fn arrivals_of(net: &Network, result: &TimingResult) -> Vec<Option<Arrival>> {
    (0..net.node_count())
        .map(|i| result.arrival(NodeId::from_index(i)).copied())
        .collect()
}

fn mesh_scenario(net: &Network) -> Scenario {
    let inp = net.node_by_name("in").unwrap();
    let ctl = net.node_by_name("ctl").unwrap();
    Scenario::step(inp, Edge::Rising).with_static(ctl, true)
}

#[test]
fn dirty_set_matches_full_jacobi_bit_for_bit() {
    let tech = Technology::nominal();
    for seed in 0..6u64 {
        let net = random_pass_mesh(seed, 22);
        let scenario = mesh_scenario(&net);
        for model in [ModelKind::Lumped, ModelKind::RcTree, ModelKind::Slope] {
            let reference = full_jacobi(&net, &tech, model, &scenario).arrivals;
            for threads in [1, 2, 4] {
                let options = AnalyzerOptions {
                    threads,
                    ..AnalyzerOptions::default()
                };
                let dirty = analyze_with_options(&net, &tech, model, &scenario, options)
                    .unwrap_or_else(|e| panic!("seed {seed}, threads {threads}: {e}"));
                assert_eq!(dirty.model(), model);
                assert_eq!(
                    arrivals_of(&net, &dirty),
                    reference,
                    "seed {seed}, model {model:?}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn dirty_set_charges_strictly_fewer_evals_over_the_same_rounds() {
    // A 24-stage inverter chain needs ~25 propagation rounds; full
    // Jacobi re-evaluates all ~24 work items every round, the dirty set
    // only the wavefront. Rounds must agree exactly — the saving comes
    // from skipped re-evaluations, never from converging differently.
    let tech = Technology::nominal();
    let net =
        inverter_chain(Style::Cmos, 24, 2.0, Farads::from_femto(100.0)).expect("chain generates");
    let input = net.node_by_name("in").unwrap();
    let scenario = Scenario::step(input, Edge::Rising);

    let sink = Arc::new(TraceSink::new());
    let opts = AnalyzerOptions {
        trace: Some(Arc::clone(&sink)),
        ..AnalyzerOptions::default()
    };
    let dirty_result = analyze_with_options(&net, &tech, ModelKind::Slope, &scenario, opts)
        .expect("analysis succeeds");
    let dirty_charged = sink
        .metrics()
        .counter(Phase::Evaluation, "stage_evals_charged") as usize;
    let dirty_rounds = sink
        .events()
        .iter()
        .filter(|e| e.phase == Phase::Propagation && e.label == "round")
        .count();
    let full = full_jacobi(&net, &tech, ModelKind::Slope, &scenario);
    let (full_charged, full_rounds) = (full.charged, full.rounds);

    assert_eq!(arrivals_of(&net, &dirty_result), full.arrivals);
    assert_eq!(dirty_rounds, full_rounds, "round counts must agree");
    assert!(full_rounds > 2, "the chain must be a multi-round circuit");
    assert!(
        dirty_charged < full_charged,
        "dirty set charged {dirty_charged} evals, full Jacobi {full_charged}"
    );
    // The wavefront on a chain is O(1) wide: the saving is massive, not
    // marginal. Full Jacobi is quadratic in rounds here.
    assert!(
        dirty_charged * 5 <= full_charged,
        "expected at least 5x fewer charged evals: {dirty_charged} vs {full_charged}"
    );
}

#[test]
fn tripped_budget_is_identical_cold_or_warm_serial_or_parallel() {
    // The stage cap trips in a later round on the chain, so the serial
    // pre-charge order is what decides which evaluations land under the
    // cap. Cold vs warm cache and serial vs parallel must all produce
    // the identical partial result.
    let tech = Technology::nominal();
    let net =
        inverter_chain(Style::Cmos, 24, 2.0, Farads::from_femto(100.0)).expect("chain generates");
    let input = net.node_by_name("in").unwrap();
    let scenario = Scenario::step(input, Edge::Rising);

    for cap in [5, 17, 40] {
        let budget = AnalysisBudget {
            max_stage_evals: Some(cap),
            ..AnalysisBudget::unlimited()
        };
        let run = |threads: usize, cache: Option<Arc<StageCache>>| {
            let opts = AnalyzerOptions {
                threads,
                budget,
                cache,
                ..AnalyzerOptions::default()
            };
            match analyze_with_options(&net, &tech, ModelKind::Slope, &scenario, opts) {
                Err(TimingError::BudgetExhausted { partial }) => partial,
                other => panic!("cap {cap}: expected a tripped budget, got {other:?}"),
            }
        };
        let reference = run(1, None);
        let warm = Arc::new(StageCache::new());
        // Prime the cache with a full unbudgeted run.
        analyze_with_options(
            &net,
            &tech,
            ModelKind::Slope,
            &scenario,
            AnalyzerOptions {
                cache: Some(Arc::clone(&warm)),
                ..AnalyzerOptions::default()
            },
        )
        .expect("priming run succeeds");
        assert!(warm.stats().misses > 0);
        for threads in [1, 2, 4] {
            for cache in [None, Some(Arc::clone(&warm))] {
                let label = if cache.is_some() { "warm" } else { "cold" };
                let partial = run(threads, cache);
                assert_eq!(
                    partial.result, reference.result,
                    "cap {cap}, threads {threads}, {label}: partial arrivals differ"
                );
                assert_eq!(partial.exceeded, reference.exceeded);
                assert_eq!(partial.rounds_completed, reference.rounds_completed);
            }
        }
    }
}
