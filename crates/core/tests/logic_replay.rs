//! Replay oracle for the steady-state memo: a `StageCache` solves the
//! first steady-state miss of a topology from scratch and records it, and
//! replays every later miss of that topology against the recording. Each
//! replayed state must carry every node's very value and strength of
//! `logic::solve`, the scratch solve, on the same network and inputs.
//!
//! Each network is replayed from three bases (no input high, one input
//! high, every input high), each in a fresh cache, against every single
//! input high, every pair of inputs high (up to 16 inputs), and every
//! input high.

use std::collections::{HashMap, HashSet};

use crystal::fingerprint::SplitMix64;
use crystal::logic::{solve, LogicState};
use crystal::memo::{StageCache, SteadyLookup};
use mosnet::generators::{
    barrel_shifter, carry_chain, decoder, decoder2to4, inverter, inverter_chain, memory_array,
    mux_tree, nand, nor, pass_chain, random_network, random_pass_mesh, superbuffer, wordline, xor2,
    RandomNetworkConfig, Style,
};
use mosnet::network::NetworkBuilder;
use mosnet::units::Farads;
use mosnet::{Geometry, Network, NodeId, NodeKind, TransistorKind};

/// The inputs driven high, as `solve` reads them.
type Assignment = Vec<NodeId>;

fn levels(high: &[NodeId]) -> HashMap<NodeId, bool> {
    high.iter().map(|&id| (id, true)).collect()
}

/// Asserts that `state` agrees with `want` on every node.
fn assert_same(net: &Network, state: &LogicState, want: &LogicState, what: &str) {
    for (id, node) in net.nodes() {
        assert_eq!(
            (state.value(id), state.strength(id)),
            (want.value(id), want.strength(id)),
            "{what}: node `{}`",
            node.name()
        );
    }
}

/// The three bases: no input high, the first input high, every input
/// high.
fn bases(net: &Network) -> [Assignment; 3] {
    let inputs = net.inputs();
    [Vec::new(), inputs[..1].to_vec(), inputs]
}

/// Every single input high, every pair high when there are at most 16
/// inputs, and every input high.
fn targets(net: &Network) -> Vec<Assignment> {
    let inputs = net.inputs();
    let mut out: Vec<Assignment> = inputs.iter().map(|&id| vec![id]).collect();
    if inputs.len() <= 16 {
        for (k, &a) in inputs.iter().enumerate() {
            out.extend(inputs[k + 1..].iter().map(|&b| vec![a, b]));
        }
    }
    out.push(inputs);
    out
}

/// Replays `targets` from every base of `net`, each base in a fresh
/// cache, and checks each state against `solve`. Returns the node
/// evaluations the replays from each base made.
fn check_replays(net: &Network, targets: &[Assignment], what: &str) -> [u64; 3] {
    let mut replayed = [0; 3];
    let want: Vec<LogicState> = targets.iter().map(|t| solve(net, &levels(t))).collect();
    for (b, base) in bases(net).into_iter().enumerate() {
        let cache = StageCache::new();
        let (state, lookup) = cache.steady_state(net, &levels(&base));
        assert!(
            matches!(lookup, SteadyLookup::Solved { .. }),
            "{what}: the first miss solves from scratch, got {lookup:?}"
        );
        assert_same(net, &state, &solve(net, &levels(&base)), what);
        let mut seen = HashSet::from([base.clone()]);
        for (target, want) in targets.iter().zip(&want) {
            let what = format!(
                "{what}: base {} target {}",
                names(net, &base),
                names(net, target)
            );
            let (state, lookup) = cache.steady_state(net, &levels(target));
            match lookup {
                SteadyLookup::Replayed { evals } => replayed[b] += evals,
                SteadyLookup::Hit => assert!(seen.contains(target), "{what}: hit on a new key"),
                SteadyLookup::Solved { .. } => panic!("{what}: a later miss solved from scratch"),
            }
            seen.insert(target.clone());
            assert_same(net, &state, want, &what);
        }
    }
    replayed
}

fn names(net: &Network, high: &[NodeId]) -> String {
    let names: Vec<&str> = high.iter().map(|&id| net.node(id).name()).collect();
    format!("{{{}}}", names.join(","))
}

fn check_every_target(net: &Network) -> [u64; 3] {
    check_replays(net, &targets(net), net.name())
}

#[test]
fn every_generator_family_replays_as_it_solves() {
    let load = Farads::from_femto(20.0);
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
            check_every_target(net);
        }
    }
}

#[test]
fn random_networks_and_pass_meshes_replay_as_they_solve() {
    let mut rng = SplitMix64::new(0x5eed_0028);
    for seed in 0..150u64 {
        let nodes = 4 + rng.next_below(28) as usize;
        let net = random_network(RandomNetworkConfig {
            nodes,
            transistors: nodes + rng.next_below(2 * nodes as u64) as usize,
            style: if seed.is_multiple_of(2) {
                Style::Cmos
            } else {
                Style::Nmos
            },
            seed,
        })
        .expect("random network builds");
        check_replays(&net, &targets(&net), &format!("random seed {seed}"));
    }
    for seed in 0..100u64 {
        let net = random_pass_mesh(seed, 4 + rng.next_below(40) as usize);
        check_replays(&net, &targets(&net), &format!("pass mesh seed {seed}"));
    }
}

fn add(b: &mut NetworkBuilder, kind: TransistorKind, gate: NodeId, s: NodeId, d: NodeId) {
    b.add_transistor(kind, gate, s, d, Geometry::default());
}

/// A three-stage ring with enable `en`: `r0` is an nMOS NAND of `r2` and
/// `en` (a depletion load over a series pull-down through `m`), `r1` and
/// `r2` CMOS inverters. With `en` high the relaxation never settles: `r0`
/// alternates between `1`/`Weak` and `0`/`Pass` from one sweep to the
/// next, so the codes after the sweep cap differ from those one sweep
/// before or after it. With `en` low it settles in two sweeps.
fn ring_oscillator() -> Network {
    let mut b = NetworkBuilder::new("ring");
    let (vdd, gnd) = (b.power(), b.ground());
    let en = b.node("en", NodeKind::Input);
    let r: Vec<NodeId> = (0..3)
        .map(|k| b.node(&format!("r{k}"), NodeKind::Internal))
        .collect();
    let m = b.node("m", NodeKind::Internal);
    add(&mut b, TransistorKind::Depletion, r[0], r[0], vdd);
    add(&mut b, TransistorKind::NEnhancement, r[2], r[0], m);
    add(&mut b, TransistorKind::NEnhancement, en, m, gnd);
    for k in 1..3 {
        add(&mut b, TransistorKind::NEnhancement, r[k - 1], r[k], gnd);
        add(&mut b, TransistorKind::PEnhancement, r[k - 1], r[k], vdd);
    }
    b.build().unwrap()
}

#[test]
fn a_ring_oscillator_replays_to_the_same_sweep_cap() {
    let net = ring_oscillator();
    let en = net.node_by_name("en").unwrap();
    let (_, lookup) = StageCache::new().steady_state(&net, &levels(&[en]));
    let SteadyLookup::Solved { evals } = lookup else {
        panic!("a fresh cache solves, got {lookup:?}");
    };
    assert!(evals > 10_000, "the ring settled after {evals} evaluations");
    // From the settled base (`en` low) the replay outruns the base's
    // schedule; from the oscillating ones it replays 10,000 sweeps.
    check_every_target(&net);
}

/// `net` written as `.sim` text with its input, output and capacitance
/// lines reversed ahead of the devices, then parsed back: the same
/// circuit, numbered in another order.
fn renumbered(net: &Network) -> Network {
    let text = mosnet::sim_format::write(net);
    let (mut named, rest): (Vec<&str>, Vec<&str>) = text
        .lines()
        .partition(|line| line.starts_with(['i', 'o', 'C']));
    named.reverse();
    let (header, devices): (Vec<&str>, Vec<&str>) = rest
        .into_iter()
        .partition(|line| line.starts_with(['|', 'v', 'g']));
    let lines: Vec<&str> = header.into_iter().chain(named).chain(devices).collect();
    mosnet::sim_format::parse(&lines.join("\n"), "renumbered.sim").expect("reparses")
}

#[test]
fn renumbered_decoders_replay_as_they_solve() {
    for bits in 3..=5 {
        let net = decoder(Style::Cmos, bits, Farads::from_femto(50.0)).unwrap();
        let renumbered = renumbered(&net);
        assert!(
            (0..net.node_count()).any(|i| {
                let id = NodeId::from_index(i);
                renumbered.node_by_name(net.node(id).name()) != Some(id)
            }),
            "decoder-{bits}: the rewrite must renumber nodes"
        );
        check_every_target(&renumbered);
    }
}

#[test]
fn sram64_rows_replay_as_they_solve() {
    let net = memory_array(Style::Cmos, 64, 64, Farads::from_femto(100.0)).unwrap();
    let [from_all_low, _, _] = check_every_target(&net);
    // Replaying a row against the all-low state, which differs from it
    // in a few nodes, is what the memo is for: it must cost a small part
    // of solving every target from scratch.
    let scratch: u64 = (targets(&net).iter())
        .map(
            |target| match StageCache::new().steady_state(&net, &levels(target)).1 {
                SteadyLookup::Solved { evals } => evals,
                lookup => panic!("a fresh cache solves, got {lookup:?}"),
            },
        )
        .sum();
    assert!(
        10 * from_all_low < scratch,
        "replays from all low evaluated {from_all_low} nodes, scratch solves {scratch}"
    );
}

#[test]
fn decoder9_addresses_replay_as_they_solve() {
    let net = decoder(Style::Cmos, 9, Farads::from_femto(100.0)).unwrap();
    let inputs = net.inputs();
    assert_eq!(inputs.len(), 9);
    let addresses: Vec<Assignment> = (0..1u32 << inputs.len())
        .map(|bits| {
            (inputs.iter().enumerate())
                .filter(|&(k, _)| bits >> k & 1 == 1)
                .map(|(_, &id)| id)
                .collect()
        })
        .collect();
    check_replays(&net, &addresses, "decoder-9");
}
