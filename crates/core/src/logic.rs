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
use std::sync::Arc;

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

/// The steady logic state of every node: the solve's node codes, one
/// byte per node in id order, held once and shared, so a clone (a memo
/// hit, a session's copy) copies no node.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicState {
    codes: Arc<[u8]>,
}

impl LogicState {
    /// The settled value of `node`.
    #[inline]
    pub fn value(&self, node: NodeId) -> LogicValue {
        decode(self.codes[node.index()]).0
    }

    /// The strength with which `node` is driven.
    #[inline]
    pub fn strength(&self, node: NodeId) -> Strength {
        decode(self.codes[node.index()]).1
    }

    /// `true` when the transistor's channel conducts in this state
    /// (X gates count as conducting — the worst case for timing).
    pub fn transistor_on(&self, net: &Network, t: mosnet::TransistorId) -> bool {
        let tr = net.transistor(t);
        conducts(tr.kind(), self.value(tr.gate())) != LogicValue::Zero
    }

    /// Bytes the state holds: one per node.
    pub(crate) fn byte_len(&self) -> usize {
        self.codes.len()
    }

    /// Calls `f(node, value)` for every node whose value in `after`
    /// differs from its value here, in id order. Eight codes are compared
    /// as one word, and only the codes whose value bits differ are
    /// decoded: a strength-only change costs nothing, and value bits `2`
    /// and `3` (both `X`) are told apart by the decode.
    ///
    /// # Panics
    /// Panics when the two states have different node counts.
    pub(crate) fn for_each_value_change(
        &self,
        after: &LogicState,
        mut f: impl FnMut(NodeId, LogicValue),
    ) {
        const VALUE_BITS: u64 = u64::from_ne_bytes([0b11; 8]);
        assert_eq!(self.codes.len(), after.codes.len(), "states of one network");
        let mut visit = |i: usize| {
            let (b, a) = (decode(self.codes[i]).0, decode(after.codes[i]).0);
            if b != a {
                f(NodeId::from_index(i), a);
            }
        };
        let words = self.codes.chunks_exact(8).zip(after.codes.chunks_exact(8));
        for (w, (b, a)) in words.enumerate() {
            let word = |codes: &[u8]| u64::from_ne_bytes(codes.try_into().expect("eight codes"));
            let differ = (word(b) ^ word(a)) & VALUE_BITS;
            if differ == 0 {
                continue;
            }
            // A differing byte sits where its code does whatever the byte
            // order, so the word is read back as bytes.
            for (k, byte) in differ.to_ne_bytes().into_iter().enumerate() {
                if byte != 0 {
                    visit(8 * w + k);
                }
            }
        }
        (self.codes.len() / 8 * 8..self.codes.len()).for_each(visit);
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
///
/// Builds the network's switch graph for this one call and always solves
/// from scratch. A [`crate::memo::StageCache`] keeps one graph per
/// topology instead, records the topology's first solve, and replays
/// every later miss against that recording (`SwitchGraph::replay`),
/// which gives these very states; `solve` and [`steady_states`] stay
/// scratch solves, so they check the replay independently.
pub fn solve(net: &Network, inputs: &HashMap<NodeId, bool>) -> LogicState {
    SwitchGraph::new(net).solve(inputs).state
}

/// A node's state as one byte: the [`LogicValue`] discriminant in the
/// low two bits, the [`Strength`] discriminant above them. A node no
/// channel drives reads `X` at `None`.
const FLOATING: u8 = LogicValue::X as u8;

/// A driven rail or input at `value`.
const fn driven(value: LogicValue) -> u8 {
    value as u8 | (Strength::Driven as u8) << 2
}

/// Decodes a node code's value and strength; value bits `3` (never
/// written) read as `X`.
#[inline]
fn decode(code: u8) -> (LogicValue, Strength) {
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
    (
        VALUES[usize::from(code & 0b11)],
        STRENGTHS[usize::from(code >> 2 & 0b11)],
    )
}

/// An edge class bit: the device only holds its node (a depletion load,
/// or an enhancement device whose gate is tied to a rail, such as a CMOS
/// keeper), so it contributes at `Weak` rather than `Pass`. The low two
/// class bits are the device's [`TransistorKind::index`].
const LOAD: u32 = 0b100;

/// Bits of an [`Edge`]'s `gate_class` that hold the gate's node index;
/// the three above hold the class.
const GATE_BITS: u32 = 29;

/// What one channel contributes to the node it serves, for each
/// `(class, gate value bits, far node code)`, indexed as
/// `class << 6 | gate << 4 | far`. A contribution at strength `s` with
/// value `v` is the bit `1 << (4 * s + v)`; an off channel, or one whose
/// far node is floating, contributes nothing.
static CONTRIBUTION: [u16; 512] = contribution_table();

const fn contribution_table() -> [u16; 512] {
    let mut table = [0; 512];
    let mut index = 0;
    while index < 512 {
        let (class, gate, far) = (index >> 6, index >> 4 & 0b11, index & 0xf);
        let kind = class & 0b11;
        // Conduction as `conducts` rules it: 0 off, 1 on, 2 maybe (an X
        // gate, whose channel passes X).
        let x = LogicValue::X as usize;
        let on = match kind {
            0 if gate >= x => 2,
            0 => gate,
            1 if gate >= x => 2,
            1 => 1 - gate,
            2 => 1,
            _ => 0,
        };
        let value = if on == 2 || far & 0b11 >= x {
            x
        } else {
            far & 0b11
        };
        let device = if kind == 2 || class as u32 & LOAD != 0 {
            Strength::Weak as usize
        } else {
            Strength::Pass as usize
        };
        let strength = if far >> 2 < device { far >> 2 } else { device };
        if on != 0 && strength != 0 {
            table[index] = 1 << (4 * strength + value);
        }
        index += 1;
    }
    table
}

/// The node code of the contributions in `mask`, seeded with the
/// floating contribution (`X` at `None`): the strongest non-empty
/// strength, at its one value, or at `X` when that strength carries two.
#[inline]
fn resolve(mask: u16) -> u8 {
    let strength = (15 - mask.leading_zeros()) / 4;
    let values = mask >> (4 * strength) & 0xf;
    let value = if values.is_power_of_two() {
        values.trailing_zeros()
    } else {
        LogicValue::X as u32
    };
    (value | strength << 2) as u8
}

/// One channel as seen from the node it serves: the far terminal, and
/// the gate with the device's class in the top bits.
#[derive(Debug, Clone, Copy)]
struct Edge {
    far: u32,
    gate_class: u32,
}

impl Edge {
    /// This edge's [`CONTRIBUTION`] under the node codes `codes`.
    #[inline]
    fn contribution(self, codes: &[u8]) -> u16 {
        let class = (self.gate_class >> GATE_BITS) as usize;
        let gate = codes[(self.gate_class & ((1 << GATE_BITS) - 1)) as usize] & 0b11;
        let far = codes[self.far as usize] & 0xf;
        CONTRIBUTION[class << 6 | usize::from(gate) << 4 | usize::from(far)]
    }
}

/// The network as the logic solve reads it, flat: per node, the channels
/// that can drive it (compressed sparse rows; none for rails and inputs,
/// which are never evaluated) and the nodes whose update reads it. It is
/// a function of exactly what
/// [`Network::topology_fingerprint`](mosnet::Network::topology_fingerprint)
/// covers — node kinds, and each device's kind and terminals — so one
/// graph serves every network with that fingerprint.
#[derive(Debug)]
pub(crate) struct SwitchGraph {
    edge_start: Box<[u32]>,
    edges: Box<[Edge]>,
    dependent_start: Box<[u32]>,
    dependents: Box<[u32]>,
    inputs: Box<[u32]>,
    power: u32,
    ground: u32,
}

impl SwitchGraph {
    /// The graph of `net`, in one pass over its nodes.
    ///
    /// # Panics
    /// Panics when `net` has `2^29` nodes or more.
    pub(crate) fn new(net: &Network) -> SwitchGraph {
        let n = net.node_count();
        assert!(n < 1 << GATE_BITS, "{n} nodes exceed the switch graph");
        let index = |id: NodeId| id.index() as u32;
        let kinds: Vec<NodeKind> = net.nodes().map(|(_, node)| node.kind()).collect();
        let evaluated = |id: NodeId| !kinds[id.index()].is_driven_externally();
        let channels = |id: NodeId| net.channel_neighbors(id).len();
        let mut edge_start = Vec::with_capacity(n + 1);
        // Sized up front (the dependents to a bound), so neither list
        // reallocates as it grows.
        let mut edges = Vec::with_capacity(
            net.nodes()
                .map(|(id, _)| if evaluated(id) { channels(id) } else { 0 })
                .sum(),
        );
        let mut dependent_start = Vec::with_capacity(n + 1);
        let mut dependents = Vec::with_capacity(
            net.nodes()
                .map(|(id, _)| channels(id) + 2 * net.gated_by(id).len())
                .sum(),
        );
        let mut inputs = Vec::new();
        // The node whose dependents last listed each node, so each lists
        // a node once.
        let mut listed_by = vec![u32::MAX; n];
        edge_start.push(0);
        dependent_start.push(0);
        for (id, node) in net.nodes() {
            if node.kind() == NodeKind::Input {
                inputs.push(index(id));
            }
            if evaluated(id) {
                edges.extend(net.channel_neighbors(id).iter().map(|&tid| {
                    let t = net.transistor(tid);
                    let load =
                        t.kind() == TransistorKind::Depletion || kinds[t.gate().index()].is_rail();
                    let class = t.kind().index() as u32 | if load { LOAD } else { 0 };
                    Edge {
                        far: index(t.other_terminal(id)),
                        gate_class: index(t.gate()) | class << GATE_BITS,
                    }
                }));
            }
            edge_start.push(edges.len() as u32);
            // The nodes whose update rule reads this one: the far terminal
            // of each channel here, and both terminals of each device it
            // gates. Externally driven nodes are never evaluated.
            let mut list = |m: NodeId| {
                if evaluated(m) && listed_by[m.index()] != index(id) {
                    listed_by[m.index()] = index(id);
                    dependents.push(index(m));
                }
            };
            for &tid in net.channel_neighbors(id) {
                list(net.transistor(tid).other_terminal(id));
            }
            for &tid in net.gated_by(id) {
                let t = net.transistor(tid);
                list(t.source());
                list(t.drain());
            }
            dependent_start.push(dependents.len() as u32);
        }
        SwitchGraph {
            edge_start: edge_start.into(),
            edges: edges.into(),
            dependent_start: dependent_start.into(),
            dependents: dependents.into(),
            inputs: inputs.into(),
            power: index(net.power()),
            ground: index(net.ground()),
        }
    }

    /// Settles the graph under `inputs`, as [`solve`] documents: the same
    /// evaluations in the same order, each one ORing the [`CONTRIBUTION`]
    /// of the node's channels and keeping the strongest.
    pub(crate) fn solve(&self, inputs: &HashMap<NodeId, bool>) -> Settled {
        self.relax(&self.levels(inputs), None)
    }

    /// [`SwitchGraph::solve`], and its [`Schedule`] for
    /// [`SwitchGraph::replay`].
    pub(crate) fn solve_recorded(&self, inputs: &HashMap<NodeId, bool>) -> (Settled, Schedule) {
        let levels = self.levels(inputs);
        let mut schedule = Schedule::default();
        let settled = self.relax(&levels, Some(&mut schedule));
        schedule.sweep_start.push(schedule.nodes.len() as u32);
        schedule.sweep_start.shrink_to_fit();
        schedule.nodes.shrink_to_fit();
        schedule.codes.shrink_to_fit();
        schedule.levels = levels.into();
        (settled, schedule)
    }

    /// The one sweep loop of a scratch solve, appending each sweep's
    /// evaluations to `record` when there is one.
    fn relax(&self, levels: &[bool], mut record: Option<&mut Schedule>) -> Settled {
        let mut codes = self.driven_codes(levels);
        // An undriven node starts at `X`/`None`, which is what it computes
        // until a driven node reaches it: only the driven nodes' dependents
        // start dirty.
        let mut dirty = DirtySet::new(codes.len());
        for &node in [self.power, self.ground].iter().chain(self.inputs.iter()) {
            self.mark_dependents(node as usize, &mut dirty);
        }

        let mut evals = 0;
        for _sweep in 0..MAX_SWEEPS {
            if let Some(record) = record.as_deref_mut() {
                record.sweep_start.push(record.nodes.len() as u32);
            }
            // A dependent marked at or below the cursor waits for the next
            // sweep, exactly when a full sweep would first see the change.
            let mut cursor = 0;
            while let Some(i) = dirty.take_from(cursor) {
                cursor = i + 1;
                evals += 1;
                let code = self.evaluate(i, &codes);
                if let Some(record) = record.as_deref_mut() {
                    record.nodes.push(i as u32);
                    record.codes.push(code);
                }
                if code != codes[i] {
                    codes[i] = code;
                    self.mark_dependents(i, &mut dirty);
                }
            }
            if cursor == 0 {
                // Nothing was dirty: the previous sweep changed nothing.
                break;
            }
        }
        Settled::new(codes, evals)
    }

    /// Settles the graph under `inputs` by replaying `base`, a recorded
    /// solve of this graph under other levels: the states of
    /// [`SwitchGraph::solve`] under `inputs`, code for code, after the
    /// same number of sweeps.
    ///
    /// The replay walks the base's sweeps in node order beside its own
    /// candidates. A node is *diverged* while its code differs from the
    /// base's at the same point of the same sweep, and *active* while it
    /// is diverged or reads a diverged node. Invariant: a node that reads
    /// no diverged node computes the base's code, whether or not it is
    /// evaluated, so an inactive node takes the base's code where the
    /// base evaluated it and is never evaluated itself. An active node is
    /// evaluated where the base evaluated it, and so is every candidate:
    /// a dependent of a node that changed code while or after diverging,
    /// in this sweep when it lies above the cursor and in the next one
    /// otherwise, as [`SwitchGraph::solve`] marks its dirty set. Every
    /// node the target's own solve would find dirty is then evaluated or
    /// takes the code it would compute, so each sweep leaves the
    /// target's state; the replay stops after a sweep that changes no
    /// code, or after [`MAX_SWEEPS`].
    pub(crate) fn replay(&self, base: &Schedule, inputs: &HashMap<NodeId, bool>) -> Settled {
        let levels = self.levels(inputs);
        let mut codes = self.driven_codes(&levels);
        let mut base_codes = self.driven_codes(&base.levels);
        // Per node, how many of the nodes it reads are diverged.
        let mut reads = vec![0u32; codes.len()];
        for (k, &input) in self.inputs.iter().enumerate() {
            if levels[k] != base.levels[k] {
                self.count_reads(input as usize, &mut reads, true);
            }
        }
        let mut candidates = DirtySet::new(codes.len());
        let mut evals = 0;
        for sweep in 0..MAX_SWEEPS {
            let (steps, step_codes) = base.sweep(sweep);
            let mut step = 0;
            // The lowest candidate at or above the cursor, kept up to date
            // by every mark so the set is scanned only once it is taken.
            let mut next = candidates.first_from(0);
            let mut changed = false;
            loop {
                let scheduled = steps.get(step).map_or(usize::MAX, |&i| i as usize);
                let i = scheduled.min(next);
                if i == usize::MAX {
                    break;
                }
                let was = codes[i];
                let was_diverged = was != base_codes[i];
                if scheduled == i {
                    let base = step_codes[step];
                    step += 1;
                    base_codes[i] = base;
                    if i != next && !was_diverged && reads[i] == 0 {
                        // Inactive: the base's code, without evaluating.
                        changed |= base != was;
                        codes[i] = base;
                        continue;
                    }
                }
                let cursor = i + 1;
                if i == next {
                    candidates.remove(i);
                    next = candidates.first_from(cursor);
                }
                evals += 1;
                let code = self.evaluate(i, &codes);
                let diverged = code != base_codes[i];
                if diverged != was_diverged {
                    self.count_reads(i, &mut reads, diverged);
                }
                if code != was {
                    codes[i] = code;
                    changed = true;
                    if was_diverged || diverged {
                        for m in self.dependents_of(i) {
                            candidates.insert(m);
                            if m >= cursor {
                                next = next.min(m);
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Settled::new(codes, evals)
    }

    /// The level of each primary input under `inputs`, in graph order:
    /// `inputs.get(&id).unwrap_or(false)`.
    fn levels(&self, inputs: &HashMap<NodeId, bool>) -> Vec<bool> {
        (self.inputs.iter())
            .map(|&id| inputs.get(&NodeId::from_index(id as usize)) == Some(&true))
            .collect()
    }

    /// Every node floating but the rails and the inputs, driven at
    /// `levels`.
    fn driven_codes(&self, levels: &[bool]) -> Vec<u8> {
        let mut codes = vec![FLOATING; self.edge_start.len() - 1];
        codes[self.power as usize] = driven(LogicValue::One);
        codes[self.ground as usize] = driven(LogicValue::Zero);
        for (&id, &high) in self.inputs.iter().zip(levels) {
            codes[id as usize] = driven(LogicValue::from_bool(high));
        }
        codes
    }

    /// Node `i`'s code under `codes`: the strongest of its channels'
    /// contributions.
    #[inline]
    fn evaluate(&self, i: usize, codes: &[u8]) -> u8 {
        let channels = self.edge_start[i] as usize..self.edge_start[i + 1] as usize;
        resolve(
            self.edges[channels]
                .iter()
                .fold(1 << FLOATING, |mask, e| mask | e.contribution(codes)),
        )
    }

    /// Counts `node` into (or, unless `diverged`, out of) the diverged
    /// reads of every node whose update rule reads it.
    fn count_reads(&self, node: usize, reads: &mut [u32], diverged: bool) {
        for m in self.dependents_of(node) {
            if diverged {
                reads[m] += 1;
            } else {
                reads[m] -= 1;
            }
        }
    }

    /// The nodes whose update rule reads `node`.
    #[inline]
    fn dependents_of(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let range = self.dependent_start[node] as usize..self.dependent_start[node + 1] as usize;
        self.dependents[range].iter().map(|&m| m as usize)
    }

    /// Marks every node whose update rule reads `node`.
    #[inline]
    fn mark_dependents(&self, node: usize, dirty: &mut DirtySet) {
        for m in self.dependents_of(node) {
            dirty.insert(m);
        }
    }

    /// Bytes the graph holds.
    pub(crate) fn byte_len(&self) -> usize {
        std::mem::size_of::<SwitchGraph>()
            + std::mem::size_of_val(&*self.edges)
            + 4 * (self.edge_start.len()
                + self.dependent_start.len()
                + self.dependents.len()
                + self.inputs.len())
    }
}

/// A settled graph: its state, and the node evaluations it took.
#[derive(Debug)]
pub(crate) struct Settled {
    pub(crate) state: LogicState,
    /// Node evaluations over all sweeps.
    pub(crate) evals: u64,
}

impl Settled {
    fn new(codes: Vec<u8>, evals: u64) -> Settled {
        Settled {
            state: LogicState {
                codes: codes.into(),
            },
            evals,
        }
    }
}

/// A recorded scratch solve of a [`SwitchGraph`], the base
/// [`SwitchGraph::replay`] replays: every sweep's evaluations in order, as
/// `(node, code)` pairs, and the input levels it ran under.
#[derive(Debug, Default)]
pub(crate) struct Schedule {
    /// Where each sweep's evaluations start in `nodes`, and where the
    /// last one ends.
    sweep_start: Vec<u32>,
    nodes: Vec<u32>,
    codes: Vec<u8>,
    /// The base's level of each primary input, in graph order.
    levels: Box<[bool]>,
}

impl Schedule {
    /// The nodes sweep `sweep` evaluated and the codes it gave them; both
    /// empty past the last sweep.
    fn sweep(&self, sweep: usize) -> (&[u32], &[u8]) {
        match self.sweep_start.get(sweep..sweep + 2) {
            Some(&[start, end]) => {
                let steps = start as usize..end as usize;
                (&self.nodes[steps.clone()], &self.codes[steps])
            }
            _ => (&[], &[]),
        }
    }

    /// Bytes the schedule holds.
    pub(crate) fn byte_len(&self) -> usize {
        std::mem::size_of::<Schedule>()
            + 4 * (self.sweep_start.capacity() + self.nodes.capacity())
            + self.codes.capacity()
            + self.levels.len()
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
    let graph = SwitchGraph::new(net);
    steady_states_by(scenario, |inputs| graph.solve(inputs).state)
}

/// `state_of` applied to each of the two input assignments
/// [`steady_states`] settles, before and after the edge, so a caller can
/// memoize the states or key them.
pub(crate) fn steady_states_by<T>(
    scenario: &Scenario,
    mut state_of: impl FnMut(&HashMap<NodeId, bool>) -> T,
) -> (T, T) {
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

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// The lowest member at or above `from`, or `usize::MAX` when there
    /// is none.
    fn first_from(&self, from: usize) -> usize {
        let mut w = from / 64;
        let Some(&word) = self.words.get(w) else {
            return usize::MAX;
        };
        let mut bits = word & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            match self.words.get(w) {
                Some(&word) => bits = word,
                None => return usize::MAX,
            }
        }
        w * 64 + bits.trailing_zeros() as usize
    }

    /// Removes and returns the lowest member at or above `from`.
    fn take_from(&mut self, from: usize) -> Option<usize> {
        let i = self.first_from(from);
        (i != usize::MAX).then(|| {
            self.remove(i);
            i
        })
    }
}

#[cfg(test)]
impl LogicState {
    /// `true` when `self` and `other` share one allocation of codes.
    pub(crate) fn shares_codes_with(&self, other: &LogicState) -> bool {
        Arc::ptr_eq(&self.codes, &other.codes)
    }

    /// A state holding `codes`, one per node in id order.
    pub(crate) fn from_codes(codes: Vec<u8>) -> LogicState {
        LogicState {
            codes: codes.into(),
        }
    }

    /// The node codes, one per node in id order.
    pub(crate) fn codes(&self) -> &[u8] {
        &self.codes
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

    const VALUES: [LogicValue; 3] = [LogicValue::Zero, LogicValue::One, LogicValue::X];
    const STRENGTHS: [Strength; 4] = [
        Strength::None,
        Strength::Weak,
        Strength::Pass,
        Strength::Driven,
    ];

    #[test]
    fn value_changes_are_the_nodes_whose_decoded_values_differ() {
        // Every length from one code to two words and one: each position
        // of a word and of the tail, with strength-only changes, changes
        // between the two `X` encodings, and changes to and from `X`.
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 32) as u8
        };
        for n in 1..=17 {
            for round in 0..128 {
                let before: Vec<u8> = (0..n).map(|_| next() % 16).collect();
                let after: Vec<u8> = (before.iter())
                    .map(|&c| match next() % 5 {
                        0 => c,
                        1 => c ^ 0b1000,
                        2 => c ^ 0b0001,
                        3 => c & !0b11 | 0b10,
                        _ => next() % 16,
                    })
                    .collect();
                let want: Vec<(NodeId, LogicValue)> = (0..n)
                    .map(|i| (decode(before[i]).0, decode(after[i]).0, i))
                    .filter(|&(b, a, _)| b != a)
                    .map(|(_, a, i)| (NodeId::from_index(i), a))
                    .collect();
                let (before, after) = (
                    LogicState::from_codes(before),
                    LogicState::from_codes(after),
                );
                let mut got = Vec::new();
                before.for_each_value_change(&after, |id, a| got.push((id, a)));
                assert_eq!(got, want, "{n} nodes, round {round}");
            }
        }
    }

    #[test]
    fn every_node_code_decodes_through_the_state() {
        // A code is the value discriminant in the low two bits and the
        // strength discriminant above them; value bits `3`, never
        // written, read `X`.
        let mut cases = Vec::new();
        for s in STRENGTHS {
            for v in VALUES {
                cases.push((v as u8 | (s as u8) << 2, v, s));
            }
            cases.push((0b11 | (s as u8) << 2, LogicValue::X, s));
        }
        let state = LogicState {
            codes: cases.iter().map(|&(code, ..)| code).collect(),
        };
        let mut codes: Vec<u8> = cases.iter().map(|&(code, ..)| code).collect();
        codes.sort_unstable();
        assert_eq!(codes, (0..16).collect::<Vec<u8>>(), "all 16 codes");
        for (i, &(code, v, s)) in cases.iter().enumerate() {
            let node = NodeId::from_index(i);
            assert_eq!(
                (state.value(node), state.strength(node)),
                (v, s),
                "code {code:04b}"
            );
        }
        assert_eq!(state.byte_len(), 16);
    }

    /// The contribution rule stated over the enums, as the per-node loop
    /// before the table applied it: a channel that `conducts` passes its
    /// far node's value (`X` through a maybe-on channel) at the weaker of
    /// its device strength (`Weak` for a load, `Pass` otherwise) and the
    /// far node's strength; an off channel or a floating far node gives
    /// nothing.
    fn scalar_contribution(class: usize, gate: u8, far: u8) -> Option<(LogicValue, Strength)> {
        let kind = *TransistorKind::ALL.get(class & 0b11)?;
        let on = conducts(kind, decode(gate).0);
        if on == LogicValue::Zero {
            return None;
        }
        let (far_value, far_strength) = decode(far);
        let value = if on == LogicValue::X {
            LogicValue::X
        } else {
            far_value
        };
        let device = if kind == TransistorKind::Depletion || class as u32 & LOAD != 0 {
            Strength::Weak
        } else {
            Strength::Pass
        };
        let strength = device.min(far_strength);
        (strength != Strength::None).then_some((value, strength))
    }

    #[test]
    fn contribution_table_states_the_scalar_rule() {
        for (index, &bits) in CONTRIBUTION.iter().enumerate() {
            let (class, gate, far) = (index >> 6, (index >> 4 & 0b11) as u8, (index & 0xf) as u8);
            let expected = scalar_contribution(class, gate, far)
                .map_or(0, |(v, s)| 1 << (4 * s as u32 + v as u32));
            assert_eq!(
                bits, expected,
                "class {class:03b} gate {gate} far {far:04b}"
            );
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
