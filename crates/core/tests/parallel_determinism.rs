//! Property tests for the parallel timing engine: every observable
//! output — full results, tripped-budget partial results, and fail-soft
//! batch runs (through the scenario executor) with injected panics —
//! must be bit-identical whether the analysis runs on one thread or many.

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario};
use crystal::budget::{AnalysisBudget, CancelToken};
use crystal::durable::{
    run_durable, run_durable_with, AttemptOutcome, DurableOptions, DurableRun, FailureKind,
    Outcome, ScenarioRecord,
};
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::tech::Technology;
use crystal::TimingError;
use mosnet::generators::{carry_chain, Style};
use mosnet::network::NetworkBuilder;
use mosnet::units::Farads;
use mosnet::{Geometry, Network, NodeKind, TransistorKind};
use std::sync::Arc;

/// Thread counts the suite compares against the serial baseline:
/// two workers, a deliberate oversubscription, and `0` (= all hardware
/// threads, whatever this host has).
const THREAD_COUNTS: [usize; 3] = [2, 8, 0];

/// A random pass mesh (SplitMix64-driven, no PRNG dependency): a CMOS
/// inverter anchors the mesh to the rails and `nodes` mesh nodes hang
/// off random earlier nodes through `ctl`-gated n-pass devices —
/// irregular per-node stage counts, the worst case for scheduling
/// determinism.
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

#[test]
fn analyzer_is_bit_identical_at_any_thread_count() {
    let tech = Technology::nominal();
    for seed in 0..6u64 {
        let net = random_pass_mesh(seed, 22);
        let scenario = mesh_scenario(&net);
        for model in [ModelKind::Lumped, ModelKind::RcTree, ModelKind::Slope] {
            let serial =
                analyze_with_options(&net, &tech, model, &scenario, AnalyzerOptions::default())
                    .unwrap_or_else(|e| panic!("seed {seed}: serial analysis failed: {e}"));
            for threads in THREAD_COUNTS {
                let par = analyze_with_options(
                    &net,
                    &tech,
                    model,
                    &scenario,
                    AnalyzerOptions {
                        threads,
                        ..AnalyzerOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("seed {seed}, threads {threads}: {e}"));
                assert_eq!(
                    par, serial,
                    "seed {seed}, model {model:?}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn analyzer_with_shared_cache_is_bit_identical_at_any_thread_count() {
    let tech = Technology::nominal();
    let net = random_pass_mesh(11, 22);
    let scenario = mesh_scenario(&net);
    let serial = analyze_with_options(
        &net,
        &tech,
        ModelKind::Slope,
        &scenario,
        AnalyzerOptions::default(),
    )
    .expect("serial analysis succeeds");
    // One cache shared across every parallel run: warm hits must not
    // perturb the arrivals either.
    let cache = Arc::new(StageCache::new());
    for threads in THREAD_COUNTS {
        for _ in 0..2 {
            let par = analyze_with_options(
                &net,
                &tech,
                ModelKind::Slope,
                &scenario,
                AnalyzerOptions {
                    threads,
                    cache: Some(Arc::clone(&cache)),
                    ..AnalyzerOptions::default()
                },
            )
            .expect("parallel analysis succeeds");
            assert_eq!(par, serial, "threads {threads}");
        }
    }
    assert!(cache.stats().hits > 0, "second passes hit the cache");
}

#[test]
fn tripped_stage_budget_is_bit_identical_at_any_thread_count() {
    let tech = Technology::nominal();
    for seed in 0..4u64 {
        let net = random_pass_mesh(seed, 22);
        let scenario = mesh_scenario(&net);
        for cap in [1, 3, 7, 20] {
            let budget = AnalysisBudget {
                max_stage_evals: Some(cap),
                ..AnalysisBudget::unlimited()
            };
            let options = |threads| AnalyzerOptions {
                threads,
                budget,
                ..AnalyzerOptions::default()
            };
            let serial = analyze_with_options(&net, &tech, ModelKind::Slope, &scenario, options(1));
            let serial_partial = match &serial {
                Err(TimingError::BudgetExhausted { partial }) => partial,
                other => panic!("seed {seed}, cap {cap}: expected a tripped budget, got {other:?}"),
            };
            for threads in THREAD_COUNTS {
                let par = analyze_with_options(
                    &net,
                    &tech,
                    ModelKind::Slope,
                    &scenario,
                    options(threads),
                );
                match &par {
                    Err(TimingError::BudgetExhausted { partial }) => {
                        assert_eq!(
                            partial.result, serial_partial.result,
                            "seed {seed}, cap {cap}, threads {threads}: partial arrivals differ"
                        );
                        assert_eq!(partial.exceeded, serial_partial.exceeded);
                        assert_eq!(partial.rounds_completed, serial_partial.rounds_completed);
                    }
                    other => panic!(
                        "seed {seed}, cap {cap}, threads {threads}: expected a tripped \
                         budget, got {other:?}"
                    ),
                }
            }
        }
    }
}

/// The records with their wall clocks zeroed: everything else, results
/// included, must match across thread counts.
fn record_keys(run: &DurableRun) -> Vec<ScenarioRecord> {
    let timeless = |r: &ScenarioRecord| ScenarioRecord {
        wall_ms: 0,
        ..r.clone()
    };
    run.records.iter().map(timeless).collect()
}

#[test]
fn batch_with_injected_panic_is_bit_identical_at_any_thread_count() {
    let items: Vec<(String, usize)> = (0..24).map(|i| (format!("item{i}"), i)).collect();
    let f = |&i: &usize, _: &CancelToken, _| -> AttemptOutcome {
        match i {
            7 => panic!("injected panic in item {i}"),
            13 => AttemptOutcome::Failed {
                kind: FailureKind::Analysis,
                message: format!("injected error in item {i}"),
            },
            _ => AttemptOutcome::Ok {
                digest: i as u64 * 3,
                summary: format!("ok {i}"),
                result: None,
            },
        }
    };
    let run_at = |threads: usize| {
        let durable = DurableOptions {
            threads,
            max_retries: 0,
            ..DurableOptions::default()
        };
        run_durable_with(&items, 7, f, &durable, None).expect("no journal, no I/O")
    };
    let serial = run_at(1);
    assert!(!serial.all_ok());
    assert_eq!(serial.records[7].outcome, Outcome::Poisoned);
    assert_eq!(serial.records[7].taxonomy, Some(FailureKind::Panic));
    assert_eq!(serial.records[13].outcome, Outcome::Error);
    for threads in THREAD_COUNTS {
        let par = run_at(threads);
        assert_eq!(par.interrupted, serial.interrupted);
        assert_eq!(record_keys(&par), record_keys(&serial), "threads {threads}");
    }
}

#[test]
fn scenario_batch_with_tripped_budgets_is_bit_identical_at_any_thread_count() {
    // A carry chain batch in which half the scenarios run unbudgeted and
    // the analyzer trips the stage cap on the rest — the fail-soft
    // parallel batch must reproduce the serial mix exactly.
    let tech = Technology::nominal();
    let net = carry_chain(Style::Cmos, 8, Farads::from_femto(100.0)).expect("chain generates");
    let cin = net.node_by_name("cin").unwrap();
    let statics: Vec<_> = net
        .inputs()
        .into_iter()
        .filter(|&n| n != cin)
        .map(|n| (n, net.node(n).name().starts_with('p')))
        .collect();
    let mut scenarios = Vec::new();
    for edge in [Edge::Rising, Edge::Falling] {
        let mut scenario = Scenario::step(cin, edge);
        for &(n, v) in &statics {
            scenario = scenario.with_static(n, v);
        }
        scenarios.push((format!("cin {edge:?}"), scenario));
    }
    let run_at = |threads: usize, cap: Option<usize>| {
        run_durable(
            &net,
            &tech,
            ModelKind::Slope,
            &scenarios,
            AnalyzerOptions {
                budget: AnalysisBudget {
                    max_stage_evals: cap,
                    ..AnalysisBudget::unlimited()
                },
                ..AnalyzerOptions::default()
            },
            &DurableOptions {
                threads,
                ..DurableOptions::default()
            },
        )
        .expect("no journal, no I/O")
    };
    for cap in [None, Some(2)] {
        let serial = run_at(1, cap);
        if cap.is_some() {
            assert!(!serial.all_ok(), "cap {cap:?} should trip");
        }
        for threads in THREAD_COUNTS {
            let par = run_at(threads, cap);
            assert_eq!(par.interrupted, serial.interrupted);
            assert_eq!(
                record_keys(&par),
                record_keys(&serial),
                "cap {cap:?}, threads {threads}"
            );
        }
    }
}
