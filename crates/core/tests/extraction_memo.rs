//! The stage-set memo in `StageCache`: a plain cached analysis extracts
//! each steady pair once, whatever its input transition, and still gives
//! bit-identical results. The key must change with everything extraction
//! reads (capacitances, geometry, the technology, the non-switching
//! capacitance weight, the inputs high before and after the edge) and
//! with nothing else, and a budget must trip alike on a hit and a miss.

use std::sync::Arc;
use std::time::Duration;

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario, TimingResult};
use crystal::budget::{AnalysisBudget, BudgetExceeded};
use crystal::error::TimingError;
use crystal::fingerprint::result_digest;
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::obs::{Phase, TraceSink};
use crystal::tech::{Direction, DriveParams, Technology};
use mosnet::diff::{apply_edit, Edit};
use mosnet::generators::{decoder, memory_array, Style};
use mosnet::units::{Farads, Ohms, Seconds};
use mosnet::{Geometry, Network, TransistorKind};

const TRANSITIONS_NS: [f64; 3] = [0.0, 0.5, 2.0];

fn decoder5() -> Network {
    decoder(Style::Cmos, 5, Farads::from_femto(50.0)).expect("decoder generates")
}

/// Options for one analysis: `cache` when given, tracing into `trace`.
fn options(
    cache: Option<&Arc<StageCache>>,
    threads: usize,
    trace: &Arc<TraceSink>,
) -> AnalyzerOptions {
    AnalyzerOptions {
        threads,
        cache: cache.map(Arc::clone),
        trace: Some(Arc::clone(trace)),
        ..AnalyzerOptions::default()
    }
}

/// `(work_hits, work_misses)` recorded into `trace`.
fn work_counts(trace: &TraceSink) -> (u64, u64) {
    let counters = trace.counters();
    let get = |name: &str| {
        counters
            .get(&(Phase::Extraction, name.to_string()))
            .copied()
            .unwrap_or(0)
    };
    (get("work_hits"), get("work_misses"))
}

#[test]
fn swept_transitions_match_uncached_and_extract_once_per_pair() {
    let tech = Technology::nominal();
    let nets = [
        ("decoder-5", decoder5()),
        (
            "sram-8x8",
            memory_array(Style::Cmos, 8, 8, Farads::from_femto(50.0)).expect("sram generates"),
        ),
    ];
    for (name, net) in &nets {
        let mut scenarios = Vec::new();
        for &input in &net.inputs() {
            for edge in [Edge::Rising, Edge::Falling] {
                for ns in TRANSITIONS_NS {
                    let t = Seconds::from_nanos(ns);
                    scenarios.push(Scenario::step(input, edge).with_input_transition(t));
                }
            }
        }
        let quiet = Arc::new(TraceSink::new());
        let fresh: Vec<u64> = (scenarios.iter())
            .map(|s| {
                let r =
                    analyze_with_options(net, &tech, ModelKind::Slope, s, options(None, 1, &quiet))
                        .expect("uncached scenario analyzes");
                result_digest(net, &r)
            })
            .collect();
        assert_eq!(work_counts(&quiet), (0, 0), "{name}: no lookups uncached");
        for threads in [1, 2] {
            let cache = Arc::new(StageCache::new());
            let trace = Arc::new(TraceSink::new());
            for (scenario, &want) in scenarios.iter().zip(&fresh) {
                let options = options(Some(&cache), threads, &trace);
                let result = analyze_with_options(net, &tech, ModelKind::Slope, scenario, options)
                    .expect("cached scenario analyzes");
                assert_eq!(
                    result_digest(net, &result),
                    want,
                    "{name} threads={threads}: cached differs from uncached"
                );
            }
            // Each (input, edge) pair is one steady pair: the first of
            // its transitions extracts, the rest hit.
            let pairs = 2 * net.inputs().len() as u64;
            assert_eq!(
                work_counts(&trace),
                (scenarios.len() as u64 - pairs, pairs),
                "{name} threads={threads}"
            );
        }
    }
}

/// What one step of the shared-cache walk observed.
struct Step {
    digests: Vec<u64>,
    hits: u64,
    misses: u64,
}

/// Runs every scenario through `cache` and checks each against an
/// uncached analysis under the same network, technology and weight.
fn step(
    cache: &Arc<StageCache>,
    net: &Network,
    tech: &Technology,
    weight: f64,
    scenarios: &[Scenario],
) -> Step {
    let trace = Arc::new(TraceSink::new());
    let with_weight = |cache: Option<&Arc<StageCache>>| AnalyzerOptions {
        non_switching_cap_weight: weight,
        ..options(cache, 1, &trace)
    };
    let mut digests = Vec::new();
    for scenario in scenarios {
        let analyze = |options| {
            let r = analyze_with_options(net, tech, ModelKind::Slope, scenario, options)
                .expect("scenario analyzes");
            result_digest(net, &r)
        };
        let cached = analyze(with_weight(Some(cache)));
        let uncached = analyze(with_weight(None));
        assert_eq!(cached, uncached, "cached differs from uncached");
        digests.push(cached);
    }
    let (hits, misses) = work_counts(&trace);
    Step {
        digests,
        hits,
        misses,
    }
}

#[test]
fn one_cache_keys_everything_extraction_reads() {
    let net = decoder5();
    let tech = Technology::nominal();
    let node = |name: &str| net.node_by_name(name).expect("node exists");
    let (a0, a1) = (node("a0"), node("a1"));
    // Four distinct steady pairs. The third shares its *after* inputs
    // with the first ({a0}) and the fourth its *before* inputs with the
    // second ({a0}), so a key missing either half of the pair aliases.
    let scenarios = [
        Scenario::step(a0, Edge::Rising),
        Scenario::step(a0, Edge::Falling),
        Scenario::step(a1, Edge::Falling).with_static(a0, true),
        Scenario::step(a1, Edge::Rising).with_static(a0, true),
    ];
    let cache = Arc::new(StageCache::new());
    let base = step(&cache, &net, &tech, 0.0, &scenarios);
    assert_eq!((base.hits, base.misses), (0, 4), "four pairs extract");

    // The transition, the model and a static held low share the entry.
    let trace = Arc::new(TraceSink::new());
    let same_pair = [
        scenarios[0]
            .clone()
            .with_input_transition(Seconds::from_nanos(2.0)),
        scenarios[0].clone().with_static(a1, false),
    ];
    for (scenario, model) in same_pair.iter().zip([ModelKind::Slope, ModelKind::RcTree]) {
        analyze_with_options(
            &net,
            &tech,
            model,
            scenario,
            options(Some(&cache), 1, &trace),
        )
        .expect("scenario analyzes");
    }
    assert_eq!(work_counts(&trace), (2, 0), "{{a1: 0}} and {{}} share");
    let again = step(&cache, &net, &tech, 0.0, &scenarios);
    assert_eq!((again.hits, again.misses), (4, 0));
    assert_eq!(again.digests, base.digests);

    // A `cap` copy and a `resize` copy keep the topology but not the
    // electrical fingerprint: each must miss, and each moves arrivals.
    let w1 = node("w1");
    let capped = apply_edit(
        &net,
        &Edit::SetCapacitance {
            node: "w1".to_string(),
            capacitance: Farads::from_femto(140.0),
        },
    )
    .expect("cap applies");
    let driver = net.transistor(net.channel_neighbors(w1)[0]);
    let name = |id| net.node(id).name().to_string();
    let resized = apply_edit(
        &net,
        &Edit::Resize {
            gate: name(driver.gate()),
            source: name(driver.source()),
            drain: name(driver.drain()),
            geometry: Geometry::from_microns(30.0, 2.0),
        },
    )
    .expect("resize applies");
    for (what, edited) in [("cap", &capped), ("resize", &resized)] {
        assert_eq!(edited.topology_fingerprint(), net.topology_fingerprint());
        let s = step(&cache, edited, &tech, 0.0, &scenarios);
        assert_eq!((s.hits, s.misses), (0, 4), "a {what} copy must miss");
        assert_ne!(s.digests, base.digests, "the {what} edit moves arrivals");
    }

    // Another r_square, and another non-switching capacitance weight.
    let mut slow = Technology::nominal();
    let drive = slow.drive(TransistorKind::PEnhancement, Direction::PullUp);
    let drive = DriveParams {
        r_square: Ohms(drive.r_square.value() * 1.5),
        ..drive.clone()
    };
    slow.set_drive(TransistorKind::PEnhancement, Direction::PullUp, drive);
    let s = step(&cache, &net, &slow, 0.0, &scenarios);
    assert_eq!((s.hits, s.misses), (0, 4), "another r_square must miss");
    assert_ne!(s.digests, base.digests);
    let s = step(&cache, &net, &tech, 0.5, &scenarios);
    assert_eq!((s.hits, s.misses), (0, 4), "another weight must miss");
    assert_ne!(s.digests, base.digests);

    // The base entries are still there.
    let last = step(&cache, &net, &tech, 0.0, &scenarios);
    assert_eq!((last.hits, last.misses), (4, 0));
    assert_eq!(last.digests, base.digests);
}

/// The budget partial of one analysis, with the trace's work counts.
fn tripped(
    net: &Network,
    scenario: &Scenario,
    cache: &Arc<StageCache>,
    threads: usize,
    budget: AnalysisBudget,
) -> (BudgetExceeded, usize, TimingResult, (u64, u64)) {
    let trace = Arc::new(TraceSink::new());
    let options = AnalyzerOptions {
        budget,
        ..options(Some(cache), threads, &trace)
    };
    let err = analyze_with_options(
        net,
        &Technology::nominal(),
        ModelKind::Slope,
        scenario,
        options,
    )
    .expect_err("the budget trips");
    let TimingError::BudgetExhausted { partial } = err else {
        panic!("expected BudgetExhausted, got {err:?}");
    };
    let counts = work_counts(&trace);
    (
        partial.exceeded,
        partial.rounds_completed,
        partial.result,
        counts,
    )
}

#[test]
fn budgets_trip_alike_on_a_hit_and_a_miss() {
    let net = decoder5();
    let scenario = Scenario::step(net.node_by_name("a0").unwrap(), Edge::Rising);
    let budgets = [
        AnalysisBudget {
            max_paths_per_node: Some(1),
            ..AnalysisBudget::default()
        },
        AnalysisBudget {
            deadline: Some(Duration::ZERO),
            ..AnalysisBudget::default()
        },
    ];
    for budget in budgets {
        for threads in [1, 2] {
            let cache = Arc::new(StageCache::new());
            let (exceeded, rounds, partial, counts) =
                tripped(&net, &scenario, &cache, threads, budget);
            assert_eq!(counts, (0, 1), "{budget:?}: a cold cache misses");
            match exceeded {
                BudgetExceeded::PathsPerNode { limit: 1, found } => assert!(found > 1),
                BudgetExceeded::Deadline { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
            // The tripped extraction was not stored: an unbudgeted
            // analysis misses, and stores its complete set.
            let trace = Arc::new(TraceSink::new());
            analyze_with_options(
                &net,
                &Technology::nominal(),
                ModelKind::Slope,
                &scenario,
                options(Some(&cache), threads, &trace),
            )
            .expect("unbudgeted analysis succeeds");
            assert_eq!(work_counts(&trace), (0, 1), "{budget:?}: not stored");
            let hit = tripped(&net, &scenario, &cache, threads, budget);
            assert_eq!(hit.3, (1, 0), "{budget:?}: a warm cache hits");
            assert_eq!(hit.0, exceeded, "{budget:?} threads={threads}");
            assert_eq!(hit.1, rounds, "{budget:?} threads={threads}");
            assert_eq!(hit.2, partial, "{budget:?} threads={threads}");
        }
    }
}
