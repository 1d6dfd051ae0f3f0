//! Differential oracle for the switch-level logic solve: the dirty-set
//! relaxation in `crystal::logic::solve` must leave every node at the
//! very value and strength of a relaxation that evaluates every node on
//! every sweep, in ascending id order, until a sweep changes nothing or
//! the sweep cap is reached. Visiting order is part of the contract:
//! where a feedback circuit has several fixpoints, the order picks one.

use std::collections::HashMap;

use crystal::fingerprint::SplitMix64;
use crystal::logic::{conducts, solve, LogicState, LogicValue, Strength};
use crystal::memo::{StageCache, SteadyLookup};
use mosnet::generators::{
    barrel_shifter, carry_chain, decoder, decoder2to4, inverter, inverter_chain, memory_array,
    mux_tree, nand, nor, pass_chain, random_network, superbuffer, wordline, xor2,
    RandomNetworkConfig, Style,
};
use mosnet::network::NetworkBuilder;
use mosnet::units::Farads;
use mosnet::{Geometry, Network, NodeId, NodeKind, TransistorKind};

/// Sweep cap of the reference, equal to the solver's.
const MAX_SWEEPS: usize = 10_000;

/// The full-sweep reference: every node on every sweep. Returns the
/// values, the strengths and the number of sweeps run.
fn reference_solve(
    net: &Network,
    inputs: &HashMap<NodeId, bool>,
) -> (Vec<LogicValue>, Vec<Strength>, usize) {
    let n = net.node_count();
    let mut values = vec![LogicValue::X; n];
    let mut strengths = vec![Strength::None; n];

    values[net.power().index()] = LogicValue::One;
    strengths[net.power().index()] = Strength::Driven;
    values[net.ground().index()] = LogicValue::Zero;
    strengths[net.ground().index()] = Strength::Driven;
    for (id, node) in net.nodes() {
        if node.kind() == NodeKind::Input {
            values[id.index()] = LogicValue::from_bool(inputs.get(&id).copied().unwrap_or(false));
            strengths[id.index()] = Strength::Driven;
        }
    }

    let mut sweeps = 0;
    for _sweep in 0..MAX_SWEEPS {
        sweeps += 1;
        let mut changed = false;
        for (id, node) in net.nodes() {
            if node.kind().is_driven_externally() {
                continue;
            }
            let mut best_strength = Strength::None;
            let mut best_value = LogicValue::X;
            let mut conflict = false;
            for &tid in net.channel_neighbors(id) {
                let t = net.transistor(tid);
                let gate_v = values[t.gate().index()];
                let on = conducts(t.kind(), gate_v);
                if on == LogicValue::Zero {
                    continue;
                }
                let other = t.other_terminal(id);
                let mut v = values[other.index()];
                if on == LogicValue::X {
                    v = LogicValue::X;
                }
                let device_strength = if t.kind() == TransistorKind::Depletion
                    || net.node(t.gate()).kind().is_rail()
                {
                    Strength::Weak
                } else {
                    Strength::Pass
                };
                let s = device_strength.min(strengths[other.index()]);
                if s == Strength::None {
                    continue;
                }
                if s > best_strength {
                    best_strength = s;
                    best_value = v;
                    conflict = false;
                } else if s == best_strength && v != best_value {
                    conflict = true;
                }
            }
            let new_value = if conflict { LogicValue::X } else { best_value };
            if new_value != values[id.index()] || best_strength != strengths[id.index()] {
                values[id.index()] = new_value;
                strengths[id.index()] = best_strength;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (values, strengths, sweeps)
}

/// Asserts that `solve` and the reference agree on every node; returns
/// the reference's sweep count.
fn check(net: &Network, inputs: &HashMap<NodeId, bool>, what: &str) -> usize {
    check_state(net, inputs, &solve(net, inputs), what)
}

/// Asserts that `state` and the reference agree on every node; returns
/// the reference's sweep count.
fn check_state(
    net: &Network,
    inputs: &HashMap<NodeId, bool>,
    state: &LogicState,
    what: &str,
) -> usize {
    let (values, strengths, sweeps) = reference_solve(net, inputs);
    for (id, node) in net.nodes() {
        assert_eq!(
            (state.value(id), state.strength(id)),
            (values[id.index()], strengths[id.index()]),
            "{what}: node `{}`",
            node.name()
        );
    }
    sweeps
}

/// A seeded level for every primary input.
fn random_levels(net: &Network, rng: &mut SplitMix64) -> HashMap<NodeId, bool> {
    net.inputs()
        .into_iter()
        .map(|id| (id, rng.next_below(2) == 1))
        .collect()
}

/// Every assignment of up to eight inputs; otherwise all low, each input
/// high alone, and a few seeded assignments.
fn assignments(net: &Network, rng: &mut SplitMix64) -> Vec<HashMap<NodeId, bool>> {
    let inputs = net.inputs();
    if inputs.len() <= 8 {
        return (0..1u32 << inputs.len())
            .map(|bits| {
                inputs
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| (id, bits >> k & 1 == 1))
                    .collect()
            })
            .collect();
    }
    let mut all = vec![HashMap::new()];
    all.extend(inputs.iter().map(|&id| HashMap::from([(id, true)])));
    all.extend((0..8).map(|_| random_levels(net, rng)));
    all
}

#[test]
fn random_networks_match_the_full_sweep() {
    let mut rng = SplitMix64::new(0x5eed_0014);
    let mut multi_sweep = 0;
    for seed in 0..200u64 {
        let net = seeded_network(seed, &mut rng);
        for k in 0..8 {
            let mut inputs = random_levels(&net, &mut rng);
            // Levels on nodes that are not inputs must be ignored alike.
            let stray = NodeId::from_index(rng.next_below(net.node_count() as u64) as usize);
            inputs.entry(stray).or_insert(true);
            let sweeps = check(&net, &inputs, &format!("seed {seed} assignment {k}"));
            multi_sweep += usize::from(sweeps > 2);
        }
    }
    assert!(
        multi_sweep > 100,
        "only {multi_sweep} solves needed more than two sweeps"
    );
}

#[test]
fn small_generators_match_the_full_sweep() {
    let load = Farads::from_femto(20.0);
    let mut rng = SplitMix64::new(14);
    for style in Style::ALL {
        let nets = [
            inverter(style, load),
            inverter_chain(style, 4, 3.0, load).unwrap(),
            superbuffer(style, 3, 3.0, load).unwrap(),
            nand(style, 3, load).unwrap(),
            nor(style, 3, load).unwrap(),
            xor2(style, load).unwrap(),
            decoder2to4(style, load).unwrap(),
            decoder(style, 4, load).unwrap(),
            pass_chain(style, 4, load, load).unwrap(),
            mux_tree(style, 3, load).unwrap(),
            barrel_shifter(style, 4, load).unwrap(),
            carry_chain(style, 4, load).unwrap(),
            wordline(style, 8).unwrap(),
            memory_array(style, 4, 4, load).unwrap(),
        ];
        for net in &nets {
            for (k, inputs) in assignments(net, &mut rng).iter().enumerate() {
                check(net, inputs, &format!("{} assignment {k}", net.name()));
            }
        }
    }
}

/// A seeded random network of 4 to 31 nodes, CMOS for even seeds.
fn seeded_network(seed: u64, rng: &mut SplitMix64) -> Network {
    let nodes = 4 + rng.next_below(28) as usize;
    let config = RandomNetworkConfig {
        nodes,
        transistors: nodes + rng.next_below(2 * nodes as u64) as usize,
        style: if seed.is_multiple_of(2) {
            Style::Cmos
        } else {
            Style::Nmos
        },
        seed,
    };
    random_network(config).expect("random network builds")
}

/// The memoized path: one `StageCache` serves every network, each state
/// is checked as solved on a miss and again as found on a hit.
#[test]
fn cached_steady_states_match_the_full_sweep() {
    let cache = StageCache::new();
    let cached = |net: &Network, inputs: &HashMap<NodeId, bool>, what: &str| {
        let (solved, _) = cache.steady_state(net, inputs);
        check_state(net, inputs, &solved, what);
        let (hit, lookup) = cache.steady_state(net, inputs);
        assert_eq!(lookup, SteadyLookup::Hit, "{what}: memoized");
        assert_eq!(hit, solved, "{what}: found in the memo");
    };
    let mut rng = SplitMix64::new(0x5eed_0022);
    for seed in 0..100u64 {
        let net = seeded_network(seed, &mut rng);
        for k in 0..4 {
            let inputs = random_levels(&net, &mut rng);
            cached(&net, &inputs, &format!("seed {seed} assignment {k}"));
        }
    }
    let sram = memory_array(Style::Cmos, 64, 64, Farads::from_femto(100.0)).unwrap();
    cached(&sram, &HashMap::new(), "SRAM-64 all low");
    for id in sram.inputs() {
        let what = format!("SRAM-64 {} high", sram.node(id).name());
        cached(&sram, &HashMap::from([(id, true)]), &what);
    }
}

/// All inputs low, then each input high alone.
fn each_input_high(net: &Network) {
    check(net, &HashMap::new(), &format!("{} all low", net.name()));
    for id in net.inputs() {
        let inputs = HashMap::from([(id, true)]);
        check(
            net,
            &inputs,
            &format!("{} {} high", net.name(), net.node(id).name()),
        );
    }
}

#[test]
fn decoder9_matches_the_full_sweep() {
    each_input_high(&decoder(Style::Cmos, 9, Farads::from_femto(100.0)).unwrap());
}

#[test]
fn sram64_matches_the_full_sweep() {
    each_input_high(&memory_array(Style::Cmos, 64, 64, Farads::from_femto(100.0)).unwrap());
}

fn add(b: &mut NetworkBuilder, kind: TransistorKind, gate: NodeId, s: NodeId, d: NodeId) {
    b.add_transistor(kind, gate, s, d, Geometry::default());
}

/// A CMOS inverter from `input` to `output`.
fn cmos_inverter(b: &mut NetworkBuilder, input: NodeId, output: NodeId) {
    let (vdd, gnd) = (b.power(), b.ground());
    add(b, TransistorKind::NEnhancement, input, output, gnd);
    add(b, TransistorKind::PEnhancement, input, output, vdd);
}

fn every_assignment(net: &Network) {
    let mut rng = SplitMix64::new(0);
    for (k, inputs) in assignments(net, &mut rng).iter().enumerate() {
        check(net, inputs, &format!("{} assignment {k}", net.name()));
    }
}

#[test]
fn device_gated_by_its_own_channel_terminal() {
    let mut b = NetworkBuilder::new("diode");
    let gnd = b.ground();
    let a = b.node("a", NodeKind::Input);
    let en = b.node("en", NodeKind::Input);
    let x = b.node("x", NodeKind::Internal);
    let y = b.node("y", NodeKind::Output);
    cmos_inverter(&mut b, a, x);
    // Diode-connected devices: the gate is a channel terminal.
    add(&mut b, TransistorKind::NEnhancement, x, x, y);
    add(&mut b, TransistorKind::PEnhancement, y, y, x);
    add(&mut b, TransistorKind::NEnhancement, en, y, gnd);
    every_assignment(&b.build().unwrap());
}

#[test]
fn device_with_source_equal_to_drain() {
    let mut b = NetworkBuilder::new("self-loop");
    let a = b.node("a", NodeKind::Input);
    let g = b.node("g", NodeKind::Input);
    let x = b.node("x", NodeKind::Internal);
    let f = b.node("f", NodeKind::Internal);
    let y = b.node("y", NodeKind::Output);
    cmos_inverter(&mut b, a, x);
    add(&mut b, TransistorKind::NEnhancement, g, x, x);
    // On an otherwise floating node, and gated by its own node.
    add(&mut b, TransistorKind::NEnhancement, f, f, f);
    add(&mut b, TransistorKind::Depletion, x, f, f);
    cmos_inverter(&mut b, x, y);
    every_assignment(&b.build().unwrap());
}

#[test]
fn cross_coupled_latch_behind_a_pass_gate_write() {
    for order in [false, true] {
        // Both node orders: the storage nodes before and after the
        // write path, so the sweep meets them in either order.
        let mut b = NetworkBuilder::new(if order { "latch-qb-first" } else { "latch" });
        let (d, we, q, qb);
        if order {
            qb = b.node("qb", NodeKind::Output);
            q = b.node("q", NodeKind::Internal);
            d = b.node("d", NodeKind::Input);
            we = b.node("we", NodeKind::Input);
        } else {
            d = b.node("d", NodeKind::Input);
            we = b.node("we", NodeKind::Input);
            q = b.node("q", NodeKind::Internal);
            qb = b.node("qb", NodeKind::Output);
        }
        let web = b.node("web", NodeKind::Internal);
        cmos_inverter(&mut b, we, web);
        cmos_inverter(&mut b, q, qb);
        cmos_inverter(&mut b, qb, q);
        // A transmission-gate write from `d` into `q`.
        add(&mut b, TransistorKind::NEnhancement, we, d, q);
        add(&mut b, TransistorKind::PEnhancement, web, d, q);
        every_assignment(&b.build().unwrap());
    }
}

#[test]
fn depletion_load_pass_loop() {
    let mut b = NetworkBuilder::new("pass-loop");
    let (vdd, gnd) = (b.power(), b.ground());
    let g: Vec<NodeId> = (0..3)
        .map(|k| b.node(&format!("g{k}"), NodeKind::Input))
        .collect();
    let pd = b.node("pd", NodeKind::Input);
    let ring: Vec<NodeId> = (0..3)
        .map(|k| b.node(&format!("r{k}"), NodeKind::Internal))
        .collect();
    let out = b.node("out", NodeKind::Output);
    // A depletion load on r0, a ring of pass devices, a pull-down on r2,
    // and an nMOS inverter reading the ring.
    add(&mut b, TransistorKind::Depletion, ring[0], ring[0], vdd);
    for k in 0..3 {
        add(
            &mut b,
            TransistorKind::NEnhancement,
            g[k],
            ring[k],
            ring[(k + 1) % 3],
        );
    }
    add(&mut b, TransistorKind::NEnhancement, pd, ring[2], gnd);
    add(&mut b, TransistorKind::Depletion, out, out, vdd);
    add(&mut b, TransistorKind::NEnhancement, ring[1], out, gnd);
    every_assignment(&b.build().unwrap());
}
