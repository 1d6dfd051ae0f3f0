//! Bit-identity pin for the reference simulator: one sparse-path circuit
//! (a decoder-4 path, above `DENSE_SPARSE_THRESHOLD` unknowns) and one
//! dense-path circuit (an inverter chain) must keep the exact f64 bits
//! of their measured delay and output transition, and of every sample of
//! every node's waveform. A solver change that reorders a single
//! floating-point operation moves these values; one that only changes
//! how the same arithmetic is dispatched does not.

use std::collections::HashMap;

use mosnet::generators::{decoder, inverter_chain, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::Network;
use nanospice::analysis::{measure_transition, Edge, NetSim, TransitionSpec};
use nanospice::devices::{NodeRef, Waveshape};
use nanospice::{elaborate, MosModelSet, DENSE_SPARSE_THRESHOLD};

/// The share of the window `measure_transition` settles for before the
/// input edge; the digest run repeats its drive exactly (and checks that
/// it did against the measured initial output level).
const SETTLE_FRACTION: f64 = 0.25;

struct Pin {
    delay_bits: u64,
    transition_bits: u64,
    samples_digest: u64,
}

/// FNV-1a over the bits of every time point and every node's sample.
fn digest(sim: &NetSim) -> u64 {
    let result = sim.result();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &t in result.times() {
        eat(t.to_bits());
    }
    for i in 0..result.names().len() {
        for &v in result.voltage(NodeRef::Node(i)).values() {
            eat(v.to_bits());
        }
    }
    h
}

fn measure(net: &Network, spec: &TransitionSpec, tstop: Seconds, dt: Seconds) -> Pin {
    let models = MosModelSet::default();
    let m = measure_transition(net, &models, spec, tstop, dt).expect("transition measures");

    let (v0, v1) = match spec.input_edge {
        Edge::Rising => (0.0, models.vdd),
        Edge::Falling => (models.vdd, 0.0),
    };
    let mut drives: HashMap<_, _> = spec
        .statics
        .iter()
        .map(|(&n, &v)| (n, Waveshape::Dc(v)))
        .collect();
    drives.insert(
        spec.input,
        Waveshape::ramp(
            v0,
            v1,
            tstop.value() * SETTLE_FRACTION,
            spec.input_transition.value() / 0.8,
        ),
    );
    let sim = NetSim::run(net, &models, &drives, tstop, dt).expect("transient runs");
    let out = sim.voltage(spec.output);
    assert_eq!(
        out.value_at(tstop.value() * SETTLE_FRACTION).to_bits(),
        m.v_initial.to_bits(),
        "the digest run must be the measured run"
    );
    Pin {
        delay_bits: m.delay.value().to_bits(),
        transition_bits: m.output_transition.value().to_bits(),
        samples_digest: digest(&sim),
    }
}

fn unknowns(net: &Network, spec: &TransitionSpec) -> usize {
    let mut drives: HashMap<_, _> = spec
        .statics
        .iter()
        .map(|(&n, &v)| (n, Waveshape::Dc(v)))
        .collect();
    drives.insert(spec.input, Waveshape::Dc(0.0));
    elaborate(net, &MosModelSet::default(), &drives)
        .circuit
        .unknown_count()
}

fn check(name: &str, pin: &Pin, expected: (u64, u64, u64)) {
    let got = (pin.delay_bits, pin.transition_bits, pin.samples_digest);
    assert_eq!(
        got,
        expected,
        "{name}: (delay {:e} s, transition {:e} s, digest {:#018x}) moved",
        f64::from_bits(got.0),
        f64::from_bits(got.1),
        got.2
    );
}

#[test]
fn decoder4_sparse_path_is_bit_identical() {
    let net = decoder(Style::Cmos, 4, Farads::from_femto(50.0)).expect("decoder");
    let node = |name: &str| net.node_by_name(name).expect("generated node");
    let spec = TransitionSpec {
        input: node("a0"),
        input_edge: Edge::Rising,
        input_transition: Seconds::from_picos(500.0),
        output: node("w1"),
        output_edge: Edge::Rising,
        statics: ["a1", "a2", "a3"]
            .iter()
            .map(|name| (node(name), 0.0))
            .collect(),
        expected_final: None,
    };
    assert!(unknowns(&net, &spec) > DENSE_SPARSE_THRESHOLD);
    let pin = measure(
        &net,
        &spec,
        Seconds::from_nanos(8.0),
        Seconds::from_picos(20.0),
    );
    // 1.0432370002468395e-9 s and 7.966600452682966e-10 s.
    check(
        "decoder-4 a0↑ → w1↑",
        &pin,
        (
            0x3e11_ec34_70ff_1c96,
            0x3e0b_5f7e_f106_8358,
            0xfae6_fce2_1a7c_de21,
        ),
    );
}

#[test]
fn inverter_chain_dense_path_is_bit_identical() {
    let net = inverter_chain(Style::Cmos, 4, 2.0, Farads::from_femto(100.0)).expect("chain");
    let spec = TransitionSpec {
        input: net.node_by_name("in").expect("in"),
        input_edge: Edge::Rising,
        input_transition: Seconds::from_picos(500.0),
        output: net.node_by_name("out").expect("out"),
        output_edge: Edge::Rising,
        statics: HashMap::new(),
        expected_final: None,
    };
    assert!(unknowns(&net, &spec) <= DENSE_SPARSE_THRESHOLD);
    let pin = measure(
        &net,
        &spec,
        Seconds::from_nanos(10.0),
        Seconds::from_picos(20.0),
    );
    // 1.931295697486728e-9 s and 5.098226382366652e-10 s.
    check(
        "inverter chain in↑ → out↑",
        &pin,
        (
            0x3e20_96f6_d2ac_635b,
            0x3e01_8472_8594_4808,
            0x2328_5591_7ef7_cf73,
        ),
    );
}
