//! Property tests for event-driven (dirty-set) propagation: the
//! dirty-set engine must reproduce the reference full-Jacobi engine bit
//! for bit at every thread count, while charging strictly fewer stage
//! evaluations on multi-round circuits, and tripped budgets must land on
//! the identical partial result whether the run is cold or warm, serial
//! or parallel.

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, PropagationMode, Scenario};
use crystal::budget::AnalysisBudget;
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::obs::{Phase, TraceSink};
use crystal::tech::Technology;
use crystal::TimingError;
use mosnet::generators::{inverter_chain, Style};
use mosnet::network::NetworkBuilder;
use mosnet::units::Farads;
use mosnet::{Geometry, Network, NodeKind, TransistorKind};
use std::sync::Arc;

/// Same irregular random mesh the determinism suite uses.
fn random_pass_mesh(seed: u64, nodes: usize) -> Network {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut b = NetworkBuilder::new("pass-mesh");
    let vdd = b.power();
    let gnd = b.ground();
    let inp = b.node("in", NodeKind::Input);
    let ctl = b.node("ctl", NodeKind::Input);
    let drv = b.node("drv", NodeKind::Internal);
    b.set_capacitance(drv, Farads::from_femto(20.0));
    b.add_transistor(
        TransistorKind::NEnhancement,
        inp,
        drv,
        gnd,
        Geometry::from_microns(8.0, 2.0),
    );
    b.add_transistor(
        TransistorKind::PEnhancement,
        inp,
        drv,
        vdd,
        Geometry::from_microns(16.0, 2.0),
    );
    let mut mesh = vec![drv];
    for i in 0..nodes {
        let kind = if i + 1 == nodes {
            NodeKind::Output
        } else {
            NodeKind::Internal
        };
        let n = b.node(&format!("m{i}"), kind);
        b.set_capacitance(n, Farads::from_femto(20.0 + (next() % 1000) as f64 * 0.1));
        let from = mesh[next() as usize % mesh.len()];
        b.add_transistor(
            TransistorKind::NEnhancement,
            ctl,
            from,
            n,
            Geometry::from_microns(8.0, 2.0),
        );
        mesh.push(n);
    }
    b.build().expect("pass mesh is a valid network")
}

fn mesh_scenario(net: &Network) -> Scenario {
    let inp = net.node_by_name("in").unwrap();
    let ctl = net.node_by_name("ctl").unwrap();
    Scenario::step(inp, Edge::Rising).with_static(ctl, true)
}

fn options(propagation: PropagationMode, threads: usize) -> AnalyzerOptions {
    AnalyzerOptions {
        propagation,
        threads,
        ..AnalyzerOptions::default()
    }
}

#[test]
fn dirty_set_matches_full_jacobi_bit_for_bit() {
    let tech = Technology::nominal();
    for seed in 0..6u64 {
        let net = random_pass_mesh(seed, 22);
        let scenario = mesh_scenario(&net);
        for model in [ModelKind::Lumped, ModelKind::RcTree, ModelKind::Slope] {
            let reference = analyze_with_options(
                &net,
                &tech,
                model,
                &scenario,
                options(PropagationMode::FullJacobi, 1),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: full-Jacobi analysis failed: {e}"));
            for threads in [1, 2, 4] {
                let dirty = analyze_with_options(
                    &net,
                    &tech,
                    model,
                    &scenario,
                    options(PropagationMode::DirtySet, threads),
                )
                .unwrap_or_else(|e| panic!("seed {seed}, threads {threads}: {e}"));
                assert_eq!(
                    dirty, reference,
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

    let charged_and_rounds = |propagation: PropagationMode| {
        let sink = Arc::new(TraceSink::new());
        let opts = AnalyzerOptions {
            propagation,
            trace: Some(Arc::clone(&sink)),
            ..AnalyzerOptions::default()
        };
        let result = analyze_with_options(&net, &tech, ModelKind::Slope, &scenario, opts)
            .expect("analysis succeeds");
        let charged = sink
            .metrics()
            .counter(Phase::Evaluation, "stage_evals_charged");
        let rounds = sink
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Propagation && e.label == "round")
            .count();
        (result, charged, rounds)
    };

    let (full_result, full_charged, full_rounds) = charged_and_rounds(PropagationMode::FullJacobi);
    let (dirty_result, dirty_charged, dirty_rounds) = charged_and_rounds(PropagationMode::DirtySet);

    assert_eq!(dirty_result, full_result);
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
