//! Oracles on the large generator tier (10k–25k devices): pinned result
//! digests for a fixed scenario set on a 9-bit decoder and a 64×64 SRAM,
//! bit-identity of cached batches at one and two scenario workers
//! against serial uncached analyses (one cache per network, and one
//! shared by both),
//! and the cost bound of stage extraction on a wordline whose rail also
//! feeds thousands of unrelated cells.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario};
use crystal::durable::{run_durable, DurableOptions};
use crystal::extract::stages_to;
use crystal::fingerprint::result_digest;
use crystal::logic;
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::tech::{Direction, Technology};
use mosnet::generators::{decoder, memory_array, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::{Network, TransistorId};

/// Load on every decoder word line and every SRAM bitline.
const LOAD_FF: f64 = 100.0;

/// `(input, rising, input transition ns, result digest)`. The digests
/// were recorded with the unbounded rail-rooted path search that
/// preceded region-bounded extraction; any change to extraction, the
/// slope model or propagation that moves one bit of an arrival shows
/// here.
type Golden = [(&'static str, bool, f64, u64)];

const DECODER9: &Golden = &[
    ("a0", true, 0.0, 0x287239b789dc83dc),
    ("a0", false, 0.5, 0xdcf99c18db4b4ba8),
    ("a4", true, 1.0, 0x1e4af047fa43bb11),
    ("a4", false, 2.0, 0x4d74a680375c8a8c),
    ("a8", true, 0.25, 0x795cb20cc007e056),
    ("a8", false, 4.0, 0x3a16f2ef9ec6d295),
];

const SRAM64: &Golden = &[
    ("row0", false, 0.5, 0x45967df90e8f0e23),
    ("row0", true, 1.0, 0x348c71b84adfd86a),
    ("row31", false, 2.0, 0xbe7c99366014d07b),
    ("row63", true, 0.25, 0x936df0c6c7cbe45a),
];

fn calibrated() -> Technology {
    crystal::tech_format::parse(include_str!("../../../examples/netlists/calibrated.tech"))
        .expect("calibrated technology parses")
}

fn decoder9() -> Network {
    decoder(Style::Cmos, 9, Farads::from_femto(LOAD_FF)).expect("decoder-9 generates")
}

fn sram64() -> Network {
    memory_array(Style::Cmos, 64, 64, Farads::from_femto(LOAD_FF)).expect("sram-64x64 generates")
}

fn scenario(net: &Network, input: &str, rising: bool, transition_ns: f64) -> Scenario {
    let node = net.node_by_name(input).expect("scenario input exists");
    let edge = if rising { Edge::Rising } else { Edge::Falling };
    Scenario::step(node, edge).with_input_transition(Seconds::from_nanos(transition_ns))
}

fn digest(net: &Network, tech: &Technology, scenario: &Scenario, options: AnalyzerOptions) -> u64 {
    let result = analyze_with_options(net, tech, ModelKind::Slope, scenario, options)
        .expect("large-tier scenario analyzes");
    result_digest(net, &result)
}

/// Serial uncached digests must match the pinned ones, and batches of
/// the same scenarios at one and two scenario workers sharing `cache`
/// must match the serial ones.
fn check(name: &str, net: &Network, golden: &Golden, cache: &Arc<StageCache>) {
    let tech = calibrated();
    let mut observed = Vec::new();
    let mut scenarios = Vec::new();
    for &(input, rising, transition_ns, _) in golden {
        let scenario = scenario(net, input, rising, transition_ns);
        let serial = digest(net, &tech, &scenario, AnalyzerOptions::default());
        observed.push((input, rising, transition_ns, serial));
        scenarios.push((format!("{input} rising={rising}"), scenario));
    }
    for threads in [1, 2] {
        let options = AnalyzerOptions {
            cache: Some(Arc::clone(cache)),
            ..AnalyzerOptions::default()
        };
        let durable = DurableOptions {
            threads,
            ..DurableOptions::default()
        };
        let run = run_durable(net, &tech, ModelKind::Slope, &scenarios, options, &durable)
            .expect("no journal");
        for (record, &(.., serial)) in run.records.iter().zip(&observed) {
            assert_eq!(
                record.digest,
                Some(serial),
                "{name} {}: threads={threads} with a cache",
                record.label
            );
        }
    }
    let expected: Vec<_> = golden.to_vec();
    assert_eq!(observed, expected, "{name}: pinned digests moved");
}

#[test]
fn decoder9_digests_are_pinned_and_thread_cache_invariant() {
    check(
        "decoder-9",
        &decoder9(),
        DECODER9,
        &Arc::new(StageCache::new()),
    );
}

#[test]
fn sram64_digests_are_pinned_and_thread_cache_invariant() {
    check(
        "sram-64x64",
        &sram64(),
        SRAM64,
        &Arc::new(StageCache::new()),
    );
}

/// One `StageCache` serves both networks, each visited twice: its
/// steady-state memo keys on the network's topology, so neither network
/// is handed the other's states and the pins hold.
#[test]
fn digests_hold_through_one_cache_shared_by_both_networks() {
    let cache = Arc::new(StageCache::new());
    let (decoder, sram) = (decoder9(), sram64());
    for _ in 0..2 {
        check("decoder-9", &decoder, DECODER9, &cache);
        check("sram-64x64", &sram, SRAM64, &cache);
    }
}

/// `wl0`'s stage is its driver's pull-up. Its rail also feeds 8,256
/// other devices, with X-valued cells behind them; extraction must not
/// ask about any of them.
#[test]
fn wordline_extraction_probes_only_its_region() {
    let net = sram64();
    let tech = calibrated();
    let wl0 = net.node_by_name("wl0").expect("wl0 exists");
    // Every row select low: every wordline high, every cell X.
    let after = logic::solve(&net, &HashMap::new());
    let calls = Cell::new(0usize);
    let conducting = |tid: TransistorId| {
        calls.set(calls.get() + 1);
        after.transistor_on(&net, tid)
    };
    let stages = stages_to(&net, &tech, &conducting, wl0, Direction::PullUp);
    assert_eq!(stages.len(), 1, "one driver pull-up path");
    assert_eq!(stages[0].path_length(), 1);
    assert!(
        calls.get() < 64,
        "predicate called {} times for one wordline stage",
        calls.get()
    );
}
