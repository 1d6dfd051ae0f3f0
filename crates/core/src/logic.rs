//! Switch-level logic simulation with signal strengths.
//!
//! A three-valued (`0`, `1`, `X`) relaxation over the channel graph, with
//! the classic strength lattice: rail/input drive beats an enhancement
//! pass path, which beats a depletion load. The analyzer uses the
//! steady states before and after an input change to decide which nodes
//! switch and which transistors conduct.

use crate::analyzer::Scenario;
use crate::error::TimingError;
use mosnet::{Network, NodeId, NodeKind, TransistorKind};
use std::collections::HashMap;
use std::fmt;

/// A ternary logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicValue {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown / uninitialized / conflict.
    X,
}

impl LogicValue {
    /// Converts a boolean level.
    #[inline]
    pub fn from_bool(b: bool) -> LogicValue {
        if b {
            LogicValue::One
        } else {
            LogicValue::Zero
        }
    }

    /// `true` when the value is `0` or `1`.
    #[inline]
    pub fn is_known(self) -> bool {
        self != LogicValue::X
    }
}

impl fmt::Display for LogicValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LogicValue::Zero => "0",
            LogicValue::One => "1",
            LogicValue::X => "X",
        })
    }
}

/// Drive strength, strongest wins. `Driven` (rails and primary inputs)
/// beats `Pass` (an enhancement channel) beats `Weak` (a depletion load)
/// beats `None` (floating).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strength {
    /// Floating (charge storage keeps `X` here).
    None,
    /// Driven through a depletion load.
    Weak,
    /// Driven through an enhancement pass path.
    Pass,
    /// A rail or primary input.
    Driven,
}

/// Whether a transistor conducts for given gate value.
pub fn conducts(kind: TransistorKind, gate: LogicValue) -> LogicValue {
    match kind {
        TransistorKind::Depletion => LogicValue::One,
        TransistorKind::NEnhancement => gate,
        TransistorKind::PEnhancement => match gate {
            LogicValue::Zero => LogicValue::One,
            LogicValue::One => LogicValue::Zero,
            LogicValue::X => LogicValue::X,
        },
    }
}

/// The steady logic state of every node.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicState {
    values: Vec<LogicValue>,
    strengths: Vec<Strength>,
}

impl LogicState {
    /// The settled value of `node`.
    #[inline]
    pub fn value(&self, node: NodeId) -> LogicValue {
        self.values[node.index()]
    }

    /// The strength with which `node` is driven.
    #[inline]
    pub fn strength(&self, node: NodeId) -> Strength {
        self.strengths[node.index()]
    }

    /// `true` when the transistor's channel conducts in this state
    /// (X gates count as conducting — the worst case for timing).
    pub fn transistor_on(&self, net: &Network, t: mosnet::TransistorId) -> bool {
        let tr = net.transistor(t);
        conducts(tr.kind(), self.value(tr.gate())) != LogicValue::Zero
    }
}

/// Maximum relaxation sweeps before the solve gives up and returns the
/// state the last sweep left (an oscillating feedback loop never settles).
const MAX_SWEEPS: usize = 10_000;

/// Computes the steady switch-level state of `net` for the given primary
/// input assignment. Unlisted inputs default to `0`; levels given for
/// nodes that are not primary inputs are ignored.
///
/// A Gauss–Seidel relaxation: every sweep visits the nodes in ascending
/// id order, and each node takes the strongest contribution over its
/// conducting channels, reading its neighbours' current values. Nodes
/// contested at equal strength read `X`, and floating nodes read `X` at
/// strength `None`. The relaxation is not monotone: an `X` gate that
/// resolves to off withdraws a contribution, so a node's strength can
/// fall. The solve ends after the first sweep that changes nothing, or
/// after `MAX_SWEEPS` sweeps.
///
/// A sweep evaluates only the nodes with an input that changed since
/// their last evaluation; any other node would recompute exactly its
/// stored value and strength, so the states are those of evaluating every
/// node on every sweep.
pub fn solve(net: &Network, inputs: &HashMap<NodeId, bool>) -> LogicState {
    let n = net.node_count();
    let mut values = vec![LogicValue::X; n];
    let mut strengths = vec![Strength::None; n];
    // An undriven node starts at `X`/`None`, which is what it computes
    // until a driven node reaches it: only the driven nodes' dependents
    // start dirty.
    let mut dirty = DirtySet::new(n);
    let mut drive = |id: NodeId, value: LogicValue| {
        values[id.index()] = value;
        strengths[id.index()] = Strength::Driven;
        mark_dependents(net, id, &mut dirty);
    };
    drive(net.power(), LogicValue::One);
    drive(net.ground(), LogicValue::Zero);
    for (id, node) in net.nodes() {
        if node.kind() == NodeKind::Input {
            drive(
                id,
                LogicValue::from_bool(inputs.get(&id).copied().unwrap_or(false)),
            );
        }
    }

    for _sweep in 0..MAX_SWEEPS {
        // A dependent marked at or below the cursor waits for the next
        // sweep, exactly when a full sweep would first see the change.
        let mut cursor = 0;
        while let Some(i) = dirty.take_from(cursor) {
            cursor = i + 1;
            let id = NodeId::from_index(i);
            // Collect the strongest contribution through each conducting
            // adjacent channel.
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
                // A "maybe conducting" channel contributes X.
                if on == LogicValue::X {
                    v = LogicValue::X;
                }
                // Depletion devices are loads; so is an enhancement device
                // whose gate is tied to a rail (a CMOS keeper/pull-up):
                // both only hold a node, they never win against a switched
                // path.
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
            if new_value != values[i] || best_strength != strengths[i] {
                values[i] = new_value;
                strengths[i] = best_strength;
                mark_dependents(net, id, &mut dirty);
            }
        }
        if cursor == 0 {
            // Nothing was dirty: the previous sweep changed nothing.
            break;
        }
    }

    LogicState { values, strengths }
}

/// A [`LogicState`] packed four bits per node, two nodes a byte (the
/// even id in the low half): the value in the low two bits, the strength
/// above them. The steady-state memo stores states this way, a quarter
/// of their unpacked size, and unpacks a copy for each hit, so analyses
/// read states at full speed.
#[derive(Debug)]
pub(crate) struct PackedState {
    nodes: usize,
    bytes: Box<[u8]>,
}

impl PackedState {
    /// Packs `state`. The enum discriminants are the codes:
    /// `Zero, One, X` and `None, Weak, Pass, Driven` count from 0.
    pub(crate) fn pack(state: &LogicState) -> PackedState {
        let code = |i: usize| state.values[i] as u8 | (state.strengths[i] as u8) << 2;
        let nodes = state.values.len();
        let bytes = (0..nodes.div_ceil(2))
            .map(|b| {
                let high = if 2 * b + 1 < nodes {
                    code(2 * b + 1)
                } else {
                    0
                };
                code(2 * b) | high << 4
            })
            .collect();
        PackedState { nodes, bytes }
    }

    /// The state [`PackedState::pack`] was given.
    pub(crate) fn unpack(&self) -> LogicState {
        const VALUES: [LogicValue; 4] = [
            LogicValue::Zero,
            LogicValue::One,
            LogicValue::X,
            LogicValue::X,
        ];
        const STRENGTHS: [Strength; 4] = [
            Strength::None,
            Strength::Weak,
            Strength::Pass,
            Strength::Driven,
        ];
        let code = |i: usize| usize::from((self.bytes[i / 2] >> (4 * (i % 2))) & 0xf);
        LogicState {
            values: (0..self.nodes).map(|i| VALUES[code(i) & 0b11]).collect(),
            strengths: (0..self.nodes).map(|i| STRENGTHS[code(i) >> 2]).collect(),
        }
    }

    /// Bytes the packed state holds: one per two nodes.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

/// What [`solve`] reads of an input assignment: the primary inputs it
/// drives high, in ascending id order. `solve` reads a level only as
/// `inputs.get(&id).unwrap_or(false)` on an `Input` node, so assignments
/// with the same set settle to the same state: `{a: 0}`, `{}` and a zero
/// static all give the empty set. This is the steady-state memo's key
/// (see [`crate::memo`]).
pub(crate) fn driven_high(net: &Network, inputs: &HashMap<NodeId, bool>) -> Vec<NodeId> {
    let mut high: Vec<NodeId> = inputs
        .iter()
        .filter(|&(&id, &level)| {
            level && id.index() < net.node_count() && net.node(id).kind() == NodeKind::Input
        })
        .map(|(&id, _)| id)
        .collect();
    high.sort_unstable();
    high
}

/// The steady states before and after the scenario's input edge, solved
/// from scratch.
pub fn steady_states(net: &Network, scenario: &Scenario) -> (LogicState, LogicState) {
    steady_states_by(scenario, |inputs| solve(net, inputs))
}

/// [`steady_states`] with `state_of` settling each of the two input
/// assignments, so a caller can memoize them.
pub(crate) fn steady_states_by(
    scenario: &Scenario,
    mut state_of: impl FnMut(&HashMap<NodeId, bool>) -> LogicState,
) -> (LogicState, LogicState) {
    let mut inputs = scenario.statics.clone();
    inputs.insert(scenario.input, !scenario.edge.final_value());
    let before = state_of(&inputs);
    inputs.insert(scenario.input, scenario.edge.final_value());
    (before, state_of(&inputs))
}

/// Rejects a level on a node that is not a primary input, which
/// [`solve`] would silently ignore. Names the lowest such node id.
///
/// # Errors
/// [`TimingError::NotAnInput`] for the first offending node.
pub fn require_inputs(net: &Network, levels: &HashMap<NodeId, bool>) -> Result<(), TimingError> {
    match levels
        .keys()
        .filter(|&&id| net.node(id).kind() != NodeKind::Input)
        .min()
    {
        Some(&id) => Err(TimingError::NotAnInput {
            name: net.node(id).name().to_string(),
        }),
        None => Ok(()),
    }
}

/// Marks every node whose update rule reads `node`: the far terminal of
/// each channel at `node`, and both terminals of each device it gates.
/// Externally driven nodes are never evaluated, so never marked.
fn mark_dependents(net: &Network, node: NodeId, dirty: &mut DirtySet) {
    let mut mark = |n: NodeId| {
        if !net.node(n).kind().is_driven_externally() {
            dirty.insert(n.index());
        }
    };
    for &tid in net.channel_neighbors(node) {
        mark(net.transistor(tid).other_terminal(node));
    }
    for &tid in net.gated_by(node) {
        let t = net.transistor(tid);
        mark(t.source());
        mark(t.drain());
    }
}

/// The nodes awaiting evaluation, as a bitset over node indices.
struct DirtySet {
    words: Vec<u64>,
}

impl DirtySet {
    fn new(n: usize) -> DirtySet {
        DirtySet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes and returns the lowest member at or above `from`.
    fn take_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        let bit = bits.trailing_zeros() as usize;
        self.words[w] &= !(1 << bit);
        Some(w * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosnet::generators::{decoder2to4, inverter, nand, nor, pass_chain, Style};
    use mosnet::units::Farads;

    fn set(net: &Network, pairs: &[(&str, bool)]) -> HashMap<NodeId, bool> {
        pairs
            .iter()
            .map(|&(name, v)| (net.node_by_name(name).expect("node exists"), v))
            .collect()
    }

    #[test]
    fn packed_states_unpack_to_every_value_and_strength() {
        let values = [LogicValue::Zero, LogicValue::One, LogicValue::X];
        let strengths = [
            Strength::None,
            Strength::Weak,
            Strength::Pass,
            Strength::Driven,
        ];
        let pairs: Vec<(LogicValue, Strength)> = values
            .iter()
            .flat_map(|&v| strengths.iter().map(move |&s| (v, s)))
            .collect();
        // An even and an odd node count: the last byte is half used.
        for pairs in [&pairs[..], &pairs[1..]] {
            let (values, strengths) = pairs.iter().copied().unzip();
            let state = LogicState { values, strengths };
            let packed = PackedState::pack(&state);
            assert_eq!(packed.byte_len(), pairs.len().div_ceil(2));
            assert_eq!(packed.unpack(), state);
        }
    }

    #[test]
    fn cmos_inverter_inverts() {
        let net = inverter(Style::Cmos, Farads::from_femto(10.0));
        let out = net.node_by_name("out").unwrap();
        let st = solve(&net, &set(&net, &[("in", false)]));
        assert_eq!(st.value(out), LogicValue::One);
        let st = solve(&net, &set(&net, &[("in", true)]));
        assert_eq!(st.value(out), LogicValue::Zero);
    }

    #[test]
    fn nmos_inverter_ratioed_logic() {
        let net = inverter(Style::Nmos, Farads::from_femto(10.0));
        let out = net.node_by_name("out").unwrap();
        // Input low: only the weak load drives — high at weak strength.
        let st = solve(&net, &set(&net, &[("in", false)]));
        assert_eq!(st.value(out), LogicValue::One);
        assert_eq!(st.strength(out), Strength::Weak);
        // Input high: the strong pull-down wins over the weak load.
        let st = solve(&net, &set(&net, &[("in", true)]));
        assert_eq!(st.value(out), LogicValue::Zero);
        assert_eq!(st.strength(out), Strength::Pass);
    }

    #[test]
    fn nand_truth_table() {
        let net = nand(Style::Cmos, 2, Farads::from_femto(10.0)).unwrap();
        let out = net.node_by_name("out").unwrap();
        for (a, b, expect) in [
            (false, false, LogicValue::One),
            (false, true, LogicValue::One),
            (true, false, LogicValue::One),
            (true, true, LogicValue::Zero),
        ] {
            let st = solve(&net, &set(&net, &[("a0", a), ("a1", b)]));
            assert_eq!(st.value(out), expect, "nand({a},{b})");
        }
    }

    #[test]
    fn nor_truth_table() {
        let net = nor(Style::Nmos, 2, Farads::from_femto(10.0)).unwrap();
        let out = net.node_by_name("out").unwrap();
        for (a, b, expect) in [
            (false, false, LogicValue::One),
            (false, true, LogicValue::Zero),
            (true, false, LogicValue::Zero),
            (true, true, LogicValue::Zero),
        ] {
            let st = solve(&net, &set(&net, &[("a0", a), ("a1", b)]));
            assert_eq!(st.value(out), expect, "nor({a},{b})");
        }
    }

    #[test]
    fn pass_chain_transmits_when_enabled() {
        let net = pass_chain(
            Style::Cmos,
            4,
            Farads::from_femto(10.0),
            Farads::from_femto(10.0),
        )
        .unwrap();
        let out = net.node_by_name("out").unwrap();
        // ctl on, in low ⇒ driver output high propagates.
        let st = solve(&net, &set(&net, &[("in", false), ("ctl", true)]));
        assert_eq!(st.value(out), LogicValue::One);
        assert_eq!(st.strength(out), Strength::Pass);
        // ctl off ⇒ out floats (X, no drive).
        let st = solve(&net, &set(&net, &[("in", false), ("ctl", false)]));
        assert_eq!(st.value(out), LogicValue::X);
        assert_eq!(st.strength(out), Strength::None);
    }

    #[test]
    fn decoder_selects_one_hot() {
        let net = decoder2to4(Style::Cmos, Farads::from_femto(10.0)).unwrap();
        for k in 0..4usize {
            let st = solve(&net, &set(&net, &[("a0", k & 1 != 0), ("a1", k & 2 != 0)]));
            for j in 0..4usize {
                let w = net.node_by_name(&format!("w{j}")).unwrap();
                let expect = if j == k {
                    LogicValue::One
                } else {
                    LogicValue::Zero
                };
                assert_eq!(st.value(w), expect, "address {k}, line {j}");
            }
        }
    }

    #[test]
    fn unlisted_inputs_default_low() {
        let net = inverter(Style::Cmos, Farads::from_femto(10.0));
        let out = net.node_by_name("out").unwrap();
        let st = solve(&net, &HashMap::new());
        assert_eq!(st.value(out), LogicValue::One);
    }

    #[test]
    fn conduction_rules() {
        assert_eq!(
            conducts(TransistorKind::NEnhancement, LogicValue::One),
            LogicValue::One
        );
        assert_eq!(
            conducts(TransistorKind::NEnhancement, LogicValue::Zero),
            LogicValue::Zero
        );
        assert_eq!(
            conducts(TransistorKind::PEnhancement, LogicValue::Zero),
            LogicValue::One
        );
        assert_eq!(
            conducts(TransistorKind::Depletion, LogicValue::Zero),
            LogicValue::One
        );
        assert_eq!(
            conducts(TransistorKind::NEnhancement, LogicValue::X),
            LogicValue::X
        );
    }

    #[test]
    fn rail_gated_keeper_loses_to_switched_path() {
        // A pMOS keeper (gate at ground) holds `x` high, but an n pull-down
        // must win: the keeper is a load, not a driver.
        use mosnet::network::NetworkBuilder;
        use mosnet::node::NodeKind;
        use mosnet::{Geometry, TransistorKind};
        let mut b = NetworkBuilder::new("keeper");
        let vdd = b.power();
        let gnd = b.ground();
        let en = b.node("en", NodeKind::Input);
        let x = b.node("x", NodeKind::Output);
        b.add_transistor(
            TransistorKind::PEnhancement,
            gnd,
            x,
            vdd,
            Geometry::default(),
        );
        b.add_transistor(
            TransistorKind::NEnhancement,
            en,
            x,
            gnd,
            Geometry::default(),
        );
        let net = b.build().unwrap();
        let st = solve(&net, &set(&net, &[("en", true)]));
        assert_eq!(st.value(x), LogicValue::Zero);
        let st = solve(&net, &set(&net, &[("en", false)]));
        assert_eq!(st.value(x), LogicValue::One);
        assert_eq!(st.strength(x), Strength::Weak);
    }

    #[test]
    fn contested_node_reads_x() {
        // Two always-on enhancement transistors tie a node to both rails.
        use mosnet::network::NetworkBuilder;
        use mosnet::node::NodeKind;
        use mosnet::{Geometry, TransistorKind};
        let mut b = NetworkBuilder::new("fight");
        let vdd = b.power();
        let gnd = b.ground();
        let en = b.node("en", NodeKind::Input);
        let x = b.node("x", NodeKind::Output);
        b.add_transistor(
            TransistorKind::NEnhancement,
            en,
            x,
            vdd,
            Geometry::default(),
        );
        b.add_transistor(
            TransistorKind::NEnhancement,
            en,
            x,
            gnd,
            Geometry::default(),
        );
        let net = b.build().unwrap();
        let st = solve(&net, &set(&net, &[("en", true)]));
        assert_eq!(st.value(x), LogicValue::X);
    }
}
