//! Property tests for scenario-level parallelism: every observable
//! output — full results, tripped-budget partial results, and fail-soft
//! batch runs (through the scenario executor) with injected panics —
//! must be bit-identical whether the scenarios run on one thread or
//! many. One analysis always runs on one thread; the workers of
//! `run_durable` and the sweeps each take whole scenarios.

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario, TimingResult};
use crystal::budget::{AnalysisBudget, CancelToken};
use crystal::durable::{
    run_durable, run_durable_with, AttemptOutcome, DurableOptions, DurableRun, FailureKind,
    Outcome, ScenarioRecord,
};
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::sweep::{sweep_exhaustive_with_options, sweep_inputs_with_options, SweepResult};
use crystal::tech::Technology;
use crystal::TimingError;
use mosnet::generators::{carry_chain, decoder, random_pass_mesh, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::Network;
use std::collections::HashMap;
use std::sync::Arc;

/// Thread counts the suite compares against the serial baseline:
/// two workers, a deliberate oversubscription, and `0` (= all hardware
/// threads, whatever this host has).
const THREAD_COUNTS: [usize; 3] = [2, 8, 0];

/// Scenario-worker counts of the analyzer-level tests, serial included.
const SCENARIO_THREADS: [usize; 3] = [1, 2, 4];

/// The mesh's scenarios: both edges of `in` with `ctl` high, then both
/// edges of `ctl` with `in` low. The first is the mesh scenario the
/// single-analysis tests used.
fn mesh_scenarios(net: &Network) -> Vec<(String, Scenario)> {
    let inp = net.node_by_name("in").unwrap();
    let ctl = net.node_by_name("ctl").unwrap();
    let mut scenarios = Vec::new();
    for edge in [Edge::Rising, Edge::Falling] {
        let label = format!("in {edge:?}");
        scenarios.push((label, Scenario::step(inp, edge).with_static(ctl, true)));
    }
    for edge in [Edge::Rising, Edge::Falling] {
        scenarios.push((format!("ctl {edge:?}"), Scenario::step(ctl, edge)));
    }
    scenarios
}

/// `scenarios` through the scenario executor at `threads` workers; the
/// result of every record, which must all succeed.
fn batch_results(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    scenarios: &[(String, Scenario)],
    options: AnalyzerOptions,
    threads: usize,
) -> Vec<TimingResult> {
    let durable = DurableOptions {
        threads,
        ..DurableOptions::default()
    };
    let run = run_durable(net, tech, model, scenarios, options, &durable).expect("no journal");
    (run.records.into_iter())
        .map(|r| (r.result).unwrap_or_else(|| panic!("{}: {}", r.label, r.summary)))
        .collect()
}

#[test]
fn analyzer_is_bit_identical_at_any_thread_count() {
    let tech = Technology::nominal();
    for seed in 0..6u64 {
        let net = random_pass_mesh(seed, 22);
        let scenarios = mesh_scenarios(&net);
        for model in [ModelKind::Lumped, ModelKind::RcTree, ModelKind::Slope] {
            let serial: Vec<TimingResult> = (scenarios.iter())
                .map(|(_, scenario)| {
                    analyze_with_options(&net, &tech, model, scenario, AnalyzerOptions::default())
                        .unwrap_or_else(|e| panic!("seed {seed}: serial analysis failed: {e}"))
                })
                .collect();
            for threads in SCENARIO_THREADS {
                let par = batch_results(
                    &net,
                    &tech,
                    model,
                    &scenarios,
                    AnalyzerOptions::default(),
                    threads,
                );
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
    let scenarios = mesh_scenarios(&net);
    let serial: Vec<TimingResult> = (scenarios.iter())
        .map(|(_, scenario)| {
            analyze_with_options(
                &net,
                &tech,
                ModelKind::Slope,
                scenario,
                AnalyzerOptions::default(),
            )
            .expect("serial analysis succeeds")
        })
        .collect();
    // One cache shared across every parallel run: warm hits must not
    // perturb the arrivals either.
    let cache = Arc::new(StageCache::new());
    for threads in SCENARIO_THREADS {
        for _ in 0..2 {
            let options = AnalyzerOptions {
                cache: Some(Arc::clone(&cache)),
                ..AnalyzerOptions::default()
            };
            let par = batch_results(&net, &tech, ModelKind::Slope, &scenarios, options, threads);
            assert_eq!(par, serial, "threads {threads}");
        }
    }
    assert!(cache.stats().hits > 0, "second passes hit the cache");
}

#[test]
fn tripped_stage_budget_is_bit_identical_at_any_thread_count() {
    // The mesh sweep leads with the mesh scenario (`in` rising, `ctl`
    // high), so its first error is that scenario's partial result.
    let tech = Technology::nominal();
    for seed in 0..4u64 {
        let net = random_pass_mesh(seed, 22);
        let ctl = net.node_by_name("ctl").unwrap();
        let statics = HashMap::from([(ctl, true)]);
        let (_, scenario) = mesh_scenarios(&net).swap_remove(0);
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
            for threads in SCENARIO_THREADS {
                let par = sweep_inputs_with_options(
                    &net,
                    &tech,
                    ModelKind::Slope,
                    Seconds::ZERO,
                    &statics,
                    &options(threads),
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

fn decoder4() -> Network {
    decoder(Style::Cmos, 4, Farads::from_femto(100.0)).expect("decoder-4 generates")
}

#[test]
fn sweep_is_bit_identical_at_any_thread_count() {
    // Runs come back in scenario order: a sweep that collected them in
    // completion order would pair scenarios and results differently at
    // four workers.
    let tech = Technology::nominal();
    let net = decoder4();
    let sweep_at = |threads| {
        let options = AnalyzerOptions {
            threads,
            cache: Some(Arc::new(StageCache::new())),
            ..AnalyzerOptions::default()
        };
        let transition = Seconds::from_nanos(0.5);
        sweep_exhaustive_with_options(&net, &tech, ModelKind::Slope, transition, &options)
            .expect("decoder-4 sweeps")
    };
    // Each run as its scenario's fields plus its result.
    let keys = |sweep: &SweepResult| -> Vec<_> {
        (sweep.runs().iter())
            .map(|(s, result)| (s.input, s.edge, s.statics.clone(), result.clone()))
            .collect()
    };
    let serial = sweep_at(1);
    assert_eq!(serial.runs().len(), 4 * 8 * 2);
    let parallel = sweep_at(4);
    assert_eq!(keys(&parallel), keys(&serial));
    assert_eq!(
        parallel.worst_output_arrival(&net),
        serial.worst_output_arrival(&net)
    );
}

#[test]
fn sweep_reports_the_first_error_in_scenario_order() {
    // At a 30-evaluation cap the exhaustive decoder-4 sweep mixes
    // passing and failing scenarios: every falling edge of `a0` and of
    // `a3` trips, everything else passes. The first to trip in scenario
    // order is `a0` falling with every other input low (the second
    // scenario); at four workers `a3`'s share races it.
    let tech = Technology::nominal();
    let net = decoder4();
    let a0 = net.node_by_name("a0").unwrap();
    let options = |threads| AnalyzerOptions {
        threads,
        budget: AnalysisBudget {
            max_stage_evals: Some(30),
            ..AnalysisBudget::unlimited()
        },
        ..AnalyzerOptions::default()
    };
    let first_error = |threads| match sweep_exhaustive_with_options(
        &net,
        &tech,
        ModelKind::Slope,
        Seconds::ZERO,
        &options(threads),
    ) {
        Err(TimingError::BudgetExhausted { partial }) => partial,
        other => panic!("threads {threads}: expected a tripped budget, got {other:?}"),
    };
    let serial = first_error(1);
    let seeded = serial
        .result
        .arrival(a0)
        .expect("the input arrival is seeded");
    assert_eq!(
        seeded.edge,
        Edge::Falling,
        "the second scenario trips first"
    );
    let parallel = first_error(4);
    assert_eq!(parallel.result, serial.result);
    assert_eq!(parallel.exceeded, serial.exceeded);
    assert_eq!(parallel.rounds_completed, serial.rounds_completed);
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
