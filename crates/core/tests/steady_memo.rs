//! The steady-state memo in `StageCache`: analyses sharing a cache solve
//! each distinct input assignment once and still give bit-identical
//! results, one cache serves several networks without handing one
//! network's states to another, and assignments that `logic::solve`
//! reads alike share one entry. The first miss of a topology is solved
//! from scratch and every later one is replayed against it.

use std::collections::HashMap;
use std::sync::Arc;

use crystal::analyzer::{analyze, analyze_with_options, AnalyzerOptions, Edge, Scenario};
use crystal::error::TimingError;
use crystal::fingerprint::result_digest;
use crystal::logic;
use crystal::memo::{StageCache, SteadyLookup};
use crystal::models::ModelKind;
use crystal::obs::{Phase, TraceSink};
use crystal::tech::Technology;
use mosnet::diff::{apply_edit, Edit, TransistorDesc};
use mosnet::generators::{decoder, memory_array, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::{Geometry, Network, TransistorKind};

fn decoder_net(bits: usize) -> Network {
    decoder(Style::Cmos, bits, Farads::from_femto(50.0)).expect("decoder generates")
}

/// Every input × edge of `net`. With `statics`, every other input is
/// held at a level alternating with its position.
fn every_scenario(net: &Network, statics: bool) -> Vec<Scenario> {
    let inputs = net.inputs();
    let mut out = Vec::new();
    for &input in &inputs {
        for edge in [Edge::Rising, Edge::Falling] {
            let mut s = Scenario::step(input, edge).with_input_transition(Seconds::from_nanos(0.5));
            if statics {
                for (k, &other) in inputs.iter().enumerate() {
                    if other != input {
                        s = s.with_static(other, k % 2 == 1);
                    }
                }
            }
            out.push(s);
        }
    }
    out
}

/// Options sharing `cache`, tracing into `trace`.
fn cached(cache: &Arc<StageCache>, threads: usize, trace: &Arc<TraceSink>) -> AnalyzerOptions {
    AnalyzerOptions {
        threads,
        cache: Some(Arc::clone(cache)),
        trace: Some(Arc::clone(trace)),
        ..AnalyzerOptions::default()
    }
}

/// `(hits, misses)` of the steady-state memo recorded into `trace`.
fn steady_counts(trace: &TraceSink) -> (u64, u64) {
    let (hits, misses, _) = steady_lookups(trace);
    (hits, misses)
}

/// `(hits, misses, replays)` of the steady-state memo recorded into
/// `trace`; the replays are counted among the misses.
fn steady_lookups(trace: &TraceSink) -> (u64, u64, u64) {
    let counters = trace.counters();
    let get = |name: &str| {
        counters
            .get(&(Phase::Logic, name.to_string()))
            .copied()
            .unwrap_or(0)
    };
    (
        get("steady_hits"),
        get("steady_misses"),
        get("steady_replays"),
    )
}

fn uncached_digest(net: &Network, tech: &Technology, scenario: &Scenario) -> u64 {
    let result = analyze(net, tech, ModelKind::Slope, scenario).expect("scenario analyzes");
    result_digest(net, &result)
}

#[test]
fn shared_cache_results_match_uncached_bit_for_bit() {
    let tech = Technology::nominal();
    let nets = [
        ("decoder-5", decoder_net(5)),
        (
            "sram-8x8",
            memory_array(Style::Cmos, 8, 8, Farads::from_femto(50.0)).expect("sram generates"),
        ),
    ];
    for (name, net) in &nets {
        for statics in [false, true] {
            let scenarios = every_scenario(net, statics);
            let fresh: Vec<u64> = scenarios
                .iter()
                .map(|s| uncached_digest(net, &tech, s))
                .collect();
            for threads in [1, 2] {
                let cache = Arc::new(StageCache::new());
                let trace = Arc::new(TraceSink::new());
                for (scenario, &want) in scenarios.iter().zip(&fresh) {
                    let options = cached(&cache, threads, &trace);
                    let result =
                        analyze_with_options(net, &tech, ModelKind::Slope, scenario, options)
                            .expect("cached scenario analyzes");
                    assert_eq!(
                        result_digest(net, &result),
                        want,
                        "{name} statics={statics} threads={threads}: cached differs from uncached"
                    );
                }
                let (hits, misses, replays) = steady_lookups(&trace);
                assert_eq!(
                    hits + misses,
                    2 * scenarios.len() as u64,
                    "{name}: two lookups per analysis"
                );
                assert_eq!(
                    replays,
                    misses - 1,
                    "{name}: one scratch solve, every later miss replayed"
                );
                if !statics {
                    // All inputs low, then each input alone high.
                    assert_eq!(
                        misses,
                        1 + net.inputs().len() as u64,
                        "{name}: one solve per distinct assignment"
                    );
                }
            }
        }
    }
}

#[test]
fn one_cache_keeps_two_topologies_with_the_same_names_apart() {
    let tech = Technology::nominal();
    let base = decoder_net(4);
    // Same node names, one more device: `a0` high now also pulls `w1` low.
    let edited = apply_edit(
        &base,
        &Edit::Add(TransistorDesc {
            kind: TransistorKind::NEnhancement,
            gate: "a0".to_string(),
            source: "w1".to_string(),
            drain: "gnd".to_string(),
            geometry: Geometry::from_microns(2.0, 8.0),
        }),
    )
    .expect("add applies");
    assert_eq!(base.node_count(), edited.node_count());
    assert_ne!(base.topology_fingerprint(), edited.topology_fingerprint());
    let a0 = base.node_by_name("a0").unwrap();
    let high = HashMap::from([(a0, true)]);
    assert_ne!(
        logic::solve(&base, &high),
        logic::solve(&edited, &high),
        "the edit must change a steady state, or the test proves nothing"
    );

    let cache = Arc::new(StageCache::new());
    let traces = [Arc::new(TraceSink::new()), Arc::new(TraceSink::new())];
    for scenario in every_scenario(&base, false) {
        for (net, trace) in [&base, &edited].into_iter().zip(&traces) {
            let result = analyze_with_options(
                net,
                &tech,
                ModelKind::Slope,
                &scenario,
                cached(&cache, 1, trace),
            )
            .expect("scenario analyzes");
            assert_eq!(
                result_digest(net, &result),
                uncached_digest(net, &tech, &scenario),
                "{}: a shared cache changed the result",
                net.node(scenario.input).name()
            );
        }
    }
    // Each network solved its own all-low state and each input alone
    // high, though the other network had asked for the same assignment
    // under the same names just before.
    for trace in &traces {
        let (_, misses, replays) = steady_lookups(trace);
        assert_eq!(misses, 1 + base.inputs().len() as u64);
        assert_eq!(
            replays,
            misses - 1,
            "each topology solved once from scratch"
        );
    }
}

#[test]
fn assignments_solve_reads_alike_share_one_entry() {
    let tech = Technology::nominal();
    let net = decoder_net(4);
    let (a0, a1) = (
        net.node_by_name("a0").unwrap(),
        net.node_by_name("a1").unwrap(),
    );
    let cache = Arc::new(StageCache::new());
    let run = |scenario: Scenario| {
        let trace = Arc::new(TraceSink::new());
        analyze_with_options(
            &net,
            &tech,
            ModelKind::Slope,
            &scenario,
            cached(&cache, 1, &trace),
        )
        .expect("scenario analyzes");
        steady_counts(&trace)
    };
    // Before `{a0: 0}`, after `{a0: 1}`: both new.
    assert_eq!(run(Scenario::step(a0, Edge::Rising)), (0, 2));
    // Before `{a1: 0, a0: 1}` reads as `{a0: 1}`, after `{a1: 0, a0: 0}`
    // as all low: a zero static changes no key.
    assert_eq!(
        run(Scenario::step(a0, Edge::Falling).with_static(a1, false)),
        (2, 0)
    );
    // `{}` and `{a0: 0, a1: 0}` hit the all-low entry directly.
    assert_eq!(
        cache.steady_state(&net, &HashMap::new()).1,
        SteadyLookup::Hit
    );
    assert_eq!(
        cache
            .steady_state(&net, &HashMap::from([(a0, false), (a1, false)]))
            .1,
        SteadyLookup::Hit
    );
}

#[test]
fn a_static_on_a_non_input_is_still_rejected_with_a_cache() {
    let tech = Technology::nominal();
    let net = decoder_net(4);
    let a0 = net.node_by_name("a0").unwrap();
    let na1 = net.node_by_name("na1").unwrap();
    let cache = Arc::new(StageCache::new());
    let trace = Arc::new(TraceSink::new());
    // Warm the memo so the bad scenario's assignments all hit.
    analyze_with_options(
        &net,
        &tech,
        ModelKind::Slope,
        &Scenario::step(a0, Edge::Rising),
        cached(&cache, 1, &trace),
    )
    .expect("scenario analyzes");
    let bad = Scenario::step(a0, Edge::Rising).with_static(na1, true);
    let err = analyze_with_options(
        &net,
        &tech,
        ModelKind::Slope,
        &bad,
        cached(&cache, 1, &trace),
    )
    .expect_err("a static on `na1` is rejected");
    assert!(
        matches!(&err, TimingError::NotAnInput { name } if name == "na1"),
        "{err}"
    );
}
