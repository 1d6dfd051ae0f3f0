//! The switch-level network: nodes plus transistors, with the adjacency
//! indices every analysis needs.

use crate::error::NetworkError;
use crate::node::{Node, NodeId, NodeKind};
use crate::transistor::{Geometry, Transistor, TransistorId, TransistorKind};
use crate::units::Farads;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Conventional names accepted for the power rail by the builder's
/// name-based lookup helpers.
pub const POWER_NAMES: &[&str] = &["vdd", "VDD", "Vdd", "vcc", "VCC"];
/// Conventional names accepted for the ground rail.
pub const GROUND_NAMES: &[&str] = &["gnd", "GND", "Gnd", "vss", "VSS", "0"];

/// An immutable switch-level network.
///
/// Construct one with [`NetworkBuilder`] or by parsing a netlist
/// ([`crate::sim_format`], [`crate::spice_format`]). A network always has
/// exactly one power rail and one ground rail.
///
/// ```
/// use mosnet::network::NetworkBuilder;
/// use mosnet::node::NodeKind;
/// use mosnet::transistor::{Geometry, TransistorKind};
/// use mosnet::units::Farads;
///
/// # fn main() -> Result<(), mosnet::error::NetworkError> {
/// let mut b = NetworkBuilder::new("inverter");
/// let vdd = b.power();
/// let gnd = b.ground();
/// let a = b.node("a", NodeKind::Input);
/// let out = b.node("out", NodeKind::Output);
/// b.set_capacitance(out, Farads::from_femto(50.0));
/// b.add_transistor(TransistorKind::NEnhancement, a, out, gnd,
///                  Geometry::from_microns(8.0, 2.0));
/// b.add_transistor(TransistorKind::PEnhancement, a, out, vdd,
///                  Geometry::from_microns(16.0, 2.0));
/// let net = b.build()?;
/// assert_eq!(net.node_count(), 4);
/// assert_eq!(net.transistor_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    /// Per node, in id order: what a capacitance edit may change.
    nodes: Vec<NodeAttrs>,
    transistors: Vec<Transistor>,
    /// What no capacitance or geometry edit changes, shared by a network
    /// and every [`Network::copy_for_edit`] of it.
    index: Arc<NameIndex>,
    /// Extra names of the rails (`VDD` beside `vdd`, say), kept apart
    /// from the shared index so an edited copy can drop them.
    aliases: HashMap<String, NodeId>,
    power: NodeId,
    ground: NodeId,
    /// See [`Network::topology_fingerprint`].
    topology: u128,
    /// See [`Network::electrical_fingerprint`]: computed on first use,
    /// and never carried into an edited copy.
    electrical: OnceLock<u128>,
}

/// A node's kind and explicit capacitance; its name lives in the
/// [`NameIndex`].
#[derive(Debug, Clone, Copy)]
struct NodeAttrs {
    kind: NodeKind,
    capacitance: Farads,
}

/// Node names and adjacency: fixed by the node and device lists.
#[derive(Debug)]
struct NameIndex {
    /// Every node's own name, in id order.
    names: Vec<String>,
    /// Each node's own name to its id (no aliases).
    by_name: HashMap<String, NodeId>,
    /// For each node: transistors whose source or drain touches it.
    channel_index: Vec<Vec<TransistorId>>,
    /// For each node: transistors whose gate it drives.
    gate_index: Vec<Vec<TransistorId>>,
}

impl Network {
    /// The network's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes, including the two rails.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of transistors.
    #[inline]
    pub fn transistor_count(&self) -> usize {
        self.transistors.len()
    }

    /// The power rail.
    #[inline]
    pub fn power(&self) -> NodeId {
        self.power
    }

    /// The ground rail.
    #[inline]
    pub fn ground(&self) -> NodeId {
        self.ground
    }

    /// Looks a node up by netlist name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.index
            .by_name
            .get(name)
            .or_else(|| self.aliases.get(name))
            .copied()
    }

    /// Returns the node data for `id`.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this network.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let NodeAttrs { kind, capacitance } = self.nodes[id.index()];
        Node::new(&self.index.names[id.index()], kind, capacitance)
    }

    /// Returns the transistor data for `id`.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this network.
    #[inline]
    pub fn transistor(&self, id: TransistorId) -> &Transistor {
        &self.transistors[id.index()]
    }

    /// Iterates over `(NodeId, Node)` in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> {
        (0..self.nodes.len()).map(|i| {
            let id = NodeId(i as u32);
            (id, self.node(id))
        })
    }

    /// Iterates over `(TransistorId, &Transistor)` in id order.
    pub fn transistors(&self) -> impl Iterator<Item = (TransistorId, &Transistor)> {
        self.transistors
            .iter()
            .enumerate()
            .map(|(i, t)| (TransistorId(i as u32), t))
    }

    /// Transistors whose channel (source or drain) touches `node`.
    #[inline]
    pub fn channel_neighbors(&self, node: NodeId) -> &[TransistorId] {
        &self.index.channel_index[node.index()]
    }

    /// Transistors whose gate is driven by `node`.
    #[inline]
    pub fn gated_by(&self, node: NodeId) -> &[TransistorId] {
        &self.index.gate_index[node.index()]
    }

    /// All primary inputs, in id order.
    pub fn inputs(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind() == NodeKind::Input)
            .map(|(id, _)| id)
            .collect()
    }

    /// All primary outputs, in id order.
    pub fn outputs(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind() == NodeKind::Output)
            .map(|(id, _)| id)
            .collect()
    }

    /// A 128-bit hash of the network's switch topology: the node count,
    /// every node's kind, and every device's kind, gate, source and drain,
    /// all in id order. Names, geometry and capacitance are left out, so a
    /// capacitance or geometry edit keeps the fingerprint while adding,
    /// removing or re-kinding a device or node changes it. Computed once,
    /// when the network is built.
    #[inline]
    pub fn topology_fingerprint(&self) -> u128 {
        self.topology
    }

    /// A 128-bit hash of everything stage extraction reads from the
    /// network: what [`Network::topology_fingerprint`] covers, plus every
    /// node's capacitance and every device's width and length, as bits.
    /// Names are left out. Adjacency follows from the device list in id
    /// order, so it is covered too. Computed on the first call and kept
    /// for the life of this instance, so an edited copy that is never
    /// asked for it never pays for it.
    pub fn electrical_fingerprint(&self) -> u128 {
        *self.electrical.get_or_init(|| {
            let mut h = Words::new();
            kinds_and_terminals(&mut h, &self.nodes, &self.transistors);
            for node in &self.nodes {
                h.bits(node.capacitance.value());
            }
            for t in &self.transistors {
                h.bits(t.geometry().width.value());
                h.bits(t.geometry().length.value());
            }
            h.finish()
        })
    }

    /// Total explicit capacitance in the network (diagnostic).
    pub fn total_capacitance(&self) -> Farads {
        self.nodes.iter().map(|n| n.capacitance).sum()
    }

    /// A copy to edit in place, for an edit that keeps every node and
    /// device (a capacitance or geometry change). It shares this
    /// network's names and adjacency and copies only the per-node kinds
    /// and capacitances and the device list. It drops the rail aliases,
    /// keeping the node names only, exactly as a network rebuilt node by
    /// node would, so the copy equals that rebuild. Such an edit changes
    /// no kind or terminal, so the copy keeps the topology fingerprint.
    pub(crate) fn copy_for_edit(&self) -> Network {
        Network {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            transistors: self.transistors.clone(),
            index: Arc::clone(&self.index),
            aliases: HashMap::new(),
            power: self.power,
            ground: self.ground,
            topology: self.topology,
            electrical: OnceLock::new(),
        }
    }

    pub(crate) fn set_capacitance(&mut self, id: NodeId, c: Farads) {
        self.electrical = OnceLock::new();
        self.nodes[id.index()].capacitance = c;
    }

    pub(crate) fn transistor_mut(&mut self, id: TransistorId) -> &mut Transistor {
        self.electrical = OnceLock::new();
        &mut self.transistors[id.index()]
    }
}

/// Incrementally builds a [`Network`].
///
/// Node names must be unique; [`NetworkBuilder::node`] returns the existing
/// id when called again with the same name and a compatible kind, so
/// generator code can freely re-reference nets by name.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    names: Vec<String>,
    nodes: Vec<NodeAttrs>,
    transistors: Vec<Transistor>,
    by_name: HashMap<String, NodeId>,
    power: Option<NodeId>,
    ground: Option<NodeId>,
}

impl NetworkBuilder {
    /// Starts an empty network with the given name.
    pub fn new(name: impl Into<String>) -> NetworkBuilder {
        NetworkBuilder {
            name: name.into(),
            names: Vec::new(),
            nodes: Vec::new(),
            transistors: Vec::new(),
            by_name: HashMap::new(),
            power: None,
            ground: None,
        }
    }

    /// Returns the power rail, creating a node named `vdd` on first use.
    pub fn power(&mut self) -> NodeId {
        if let Some(id) = self.power {
            return id;
        }
        let id = self.insert_node("vdd", NodeKind::Power);
        self.power = Some(id);
        id
    }

    /// Returns the ground rail, creating a node named `gnd` on first use.
    pub fn ground(&mut self) -> NodeId {
        if let Some(id) = self.ground {
            return id;
        }
        let id = self.insert_node("gnd", NodeKind::Ground);
        self.ground = Some(id);
        id
    }

    /// Returns the node named `name`, creating it with `kind` if new.
    ///
    /// Re-declaring an existing node upgrades `Internal` to a more specific
    /// kind but never downgrades; conventional rail names (`vdd`, `gnd`,
    /// `vss`, ...) are routed to the corresponding rail.
    pub fn node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        if POWER_NAMES.contains(&name) {
            return self.power_named(name);
        }
        if GROUND_NAMES.contains(&name) {
            return self.ground_named(name);
        }
        if let Some(&id) = self.by_name.get(name) {
            let node = &mut self.nodes[id.index()];
            if node.kind == NodeKind::Internal && kind != NodeKind::Internal {
                node.kind = kind;
            }
            return id;
        }
        self.insert_node(name, kind)
    }

    /// Declares the power rail under an arbitrary name (netlists may use
    /// nonconventional rail names). Returns the rail's id; if a rail
    /// already exists the name becomes an alias for it.
    pub fn declare_power(&mut self, name: &str) -> NodeId {
        self.power_named(name)
    }

    /// Declares the ground rail under an arbitrary name; see
    /// [`Self::declare_power`].
    pub fn declare_ground(&mut self, name: &str) -> NodeId {
        self.ground_named(name)
    }

    fn power_named(&mut self, name: &str) -> NodeId {
        if let Some(id) = self.power {
            // Register the alias so later name lookups resolve.
            self.by_name.entry(name.to_string()).or_insert(id);
            return id;
        }
        let id = self.insert_node(name, NodeKind::Power);
        self.power = Some(id);
        id
    }

    fn ground_named(&mut self, name: &str) -> NodeId {
        if let Some(id) = self.ground {
            self.by_name.entry(name.to_string()).or_insert(id);
            return id;
        }
        let id = self.insert_node(name, NodeKind::Ground);
        self.ground = Some(id);
        id
    }

    fn insert_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.names.push(name.to_string());
        self.nodes.push(NodeAttrs {
            kind,
            capacitance: Farads::ZERO,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Sets the explicit capacitance of `node`, replacing any prior value.
    pub fn set_capacitance(&mut self, node: NodeId, c: Farads) {
        self.nodes[node.index()].capacitance = c;
    }

    /// Adds capacitance to `node` on top of its current value.
    pub fn add_capacitance(&mut self, node: NodeId, c: Farads) {
        self.nodes[node.index()].capacitance += c;
    }

    /// Adds a transistor and returns its id.
    pub fn add_transistor(
        &mut self,
        kind: TransistorKind,
        gate: NodeId,
        source: NodeId,
        drain: NodeId,
        geometry: Geometry,
    ) -> TransistorId {
        let id = TransistorId(self.transistors.len() as u32);
        self.transistors
            .push(Transistor::new(kind, gate, source, drain, geometry));
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of transistors added so far.
    pub fn transistor_count(&self) -> usize {
        self.transistors.len()
    }

    /// Finishes the network, building adjacency indices.
    ///
    /// # Errors
    /// Returns [`NetworkError::MissingRail`] if no power or ground node was
    /// ever created. (Rails are created implicitly by [`Self::power`],
    /// [`Self::ground`], or by naming a node `vdd`/`gnd`.)
    pub fn build(self) -> Result<Network, NetworkError> {
        let power = self
            .power
            .ok_or(NetworkError::MissingRail { rail: "power" })?;
        let ground = self
            .ground
            .ok_or(NetworkError::MissingRail { rail: "ground" })?;

        let mut channel_index = vec![Vec::new(); self.nodes.len()];
        let mut gate_index = vec![Vec::new(); self.nodes.len()];
        for (i, t) in self.transistors.iter().enumerate() {
            let tid = TransistorId(i as u32);
            channel_index[t.source().index()].push(tid);
            if t.drain() != t.source() {
                channel_index[t.drain().index()].push(tid);
            }
            gate_index[t.gate().index()].push(tid);
        }
        let mut topology = Words::new();
        kinds_and_terminals(&mut topology, &self.nodes, &self.transistors);
        let names = self.names;
        let mut by_name = self.by_name;
        let mut aliases = HashMap::new();
        by_name.retain(|name, &mut id| {
            let own = names[id.index()] == *name;
            if !own {
                aliases.insert(name.clone(), id);
            }
            own
        });

        Ok(Network {
            name: self.name,
            nodes: self.nodes,
            transistors: self.transistors,
            index: Arc::new(NameIndex {
                names,
                by_name,
                channel_index,
                gate_index,
            }),
            aliases,
            power,
            ground,
            topology: topology.finish(),
            electrical: OnceLock::new(),
        })
    }
}

/// The 128-bit hash behind both network fingerprints, fed one 32-bit
/// word per field. Two multiply-rotate streams with distinct constants,
/// the second folding in each word's position, finished by the
/// SplitMix64 mixer so every input bit reaches every output bit.
struct Words {
    a: u64,
    b: u64,
    n: u64,
}

impl Words {
    fn new() -> Words {
        Words {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
            n: 0,
        }
    }

    fn word(&mut self, w: u32) {
        self.a = (self.a ^ u64::from(w))
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(23);
        self.b = (self.b ^ u64::from(w) ^ self.n)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(31);
        self.n += 1;
    }

    /// An `f64` as its bits, low word first.
    fn bits(&mut self, v: f64) {
        let bits = v.to_bits();
        self.word(bits as u32);
        self.word((bits >> 32) as u32);
    }

    fn finish(&self) -> u128 {
        let mix = |mut x: u64| {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        (u128::from(mix(self.a)) << 64) | u128::from(mix(self.b))
    }
}

/// Feeds what [`Network::topology_fingerprint`] covers: the node count,
/// every node's kind, and every device's kind and terminals, in id order.
fn kinds_and_terminals(h: &mut Words, nodes: &[NodeAttrs], transistors: &[Transistor]) {
    h.word(nodes.len() as u32);
    for node in nodes {
        h.word(match node.kind {
            NodeKind::Ground => 0,
            NodeKind::Power => 1,
            NodeKind::Input => 2,
            NodeKind::Output => 3,
            NodeKind::Internal => 4,
        });
    }
    h.word(transistors.len() as u32);
    for t in transistors {
        h.word(t.kind().index() as u32);
        h.word(t.gate().0);
        h.word(t.source().0);
        h.word(t.drain().0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter() -> Network {
        let mut b = NetworkBuilder::new("inv");
        let vdd = b.power();
        let gnd = b.ground();
        let a = b.node("a", NodeKind::Input);
        let out = b.node("out", NodeKind::Output);
        b.set_capacitance(out, Farads::from_femto(50.0));
        b.add_transistor(
            TransistorKind::NEnhancement,
            a,
            out,
            gnd,
            Geometry::default(),
        );
        b.add_transistor(
            TransistorKind::PEnhancement,
            a,
            out,
            vdd,
            Geometry::default(),
        );
        b.build().expect("valid inverter")
    }

    #[test]
    fn builds_inverter_with_indices() {
        let net = inverter();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.transistor_count(), 2);
        let a = net.node_by_name("a").unwrap();
        let out = net.node_by_name("out").unwrap();
        // Both transistors are gated by `a` and touch `out`.
        assert_eq!(net.gated_by(a).len(), 2);
        assert_eq!(net.channel_neighbors(out).len(), 2);
        assert_eq!(net.gated_by(out).len(), 0);
    }

    #[test]
    fn rails_are_unique_and_aliased() {
        let mut b = NetworkBuilder::new("t");
        let vdd = b.power();
        let also_vdd = b.node("VDD", NodeKind::Internal);
        assert_eq!(vdd, also_vdd);
        let gnd = b.node("vss", NodeKind::Internal);
        let also_gnd = b.ground();
        assert_eq!(gnd, also_gnd);
        let net = b.build().unwrap();
        assert_eq!(net.power(), vdd);
        assert_eq!(net.ground(), gnd);
        assert_eq!(net.node_by_name("VDD"), Some(vdd));
    }

    #[test]
    fn node_kind_upgrades_but_never_downgrades() {
        let mut b = NetworkBuilder::new("t");
        b.power();
        b.ground();
        let x = b.node("x", NodeKind::Internal);
        let x2 = b.node("x", NodeKind::Output);
        assert_eq!(x, x2);
        let x3 = b.node("x", NodeKind::Internal);
        assert_eq!(x, x3);
        let net = b.build().unwrap();
        assert_eq!(net.node(x).kind(), NodeKind::Output);
    }

    #[test]
    fn build_requires_rails() {
        let b = NetworkBuilder::new("empty");
        assert_eq!(
            b.build().unwrap_err(),
            NetworkError::MissingRail { rail: "power" }
        );
        let mut b = NetworkBuilder::new("half");
        b.power();
        assert_eq!(
            b.build().unwrap_err(),
            NetworkError::MissingRail { rail: "ground" }
        );
    }

    #[test]
    fn capacitance_accumulates() {
        let mut b = NetworkBuilder::new("c");
        b.power();
        b.ground();
        let x = b.node("x", NodeKind::Internal);
        b.set_capacitance(x, Farads::from_femto(10.0));
        b.add_capacitance(x, Farads::from_femto(5.0));
        let net = b.build().unwrap();
        assert!((net.node(x).capacitance().femto() - 15.0).abs() < 1e-9);
        assert!((net.total_capacitance().femto() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn inputs_and_outputs_enumerate() {
        let net = inverter();
        assert_eq!(net.inputs().len(), 1);
        assert_eq!(net.outputs().len(), 1);
        assert_eq!(net.node(net.inputs()[0]).name(), "a");
        assert_eq!(net.node(net.outputs()[0]).name(), "out");
    }

    #[test]
    fn topology_fingerprint_tracks_kinds_and_terminals_only() {
        use crate::diff::{apply_edit, Edit, TransistorDesc};
        use crate::sim_format;
        let text = "i in\no y\nn in out gnd 2 4\np in out vdd 2 8\n\
                    n out y gnd 2 4\np out y vdd 2 8\nC out 30\n";
        let net = sim_format::parse(text, "two.sim").unwrap();
        let fp = net.topology_fingerprint();
        assert_eq!(
            sim_format::parse(text, "again.sim")
                .unwrap()
                .topology_fingerprint(),
            fp,
            "two parses of one text"
        );
        let edit = |e: Edit| apply_edit(&net, &e).unwrap().topology_fingerprint();
        let site = |g: &str, s: &str, d: &str| (g.to_string(), s.to_string(), d.to_string());
        let (gate, source, drain) = site("in", "out", "gnd");
        assert_eq!(
            edit(Edit::SetCapacitance {
                node: "out".to_string(),
                capacitance: Farads::from_femto(99.0),
            }),
            fp,
            "a cap edit keeps the fingerprint"
        );
        assert_eq!(
            edit(Edit::Resize {
                gate: gate.clone(),
                source: source.clone(),
                drain: drain.clone(),
                geometry: Geometry::from_microns(20.0, 2.0),
            }),
            fp,
            "a resize keeps the fingerprint"
        );
        // A rebuild device by device from the parsed network.
        let mut b = NetworkBuilder::new("rebuilt");
        for (id, node) in net.nodes() {
            let nid = if id == net.power() {
                b.declare_power(node.name())
            } else if id == net.ground() {
                b.declare_ground(node.name())
            } else {
                b.node(node.name(), node.kind())
            };
            assert_eq!(nid, id);
        }
        let rebuild = |flip: Option<TransistorId>| {
            let mut b = b.clone();
            for (tid, t) in net.transistors() {
                let kind = match (Some(tid) == flip, t.kind()) {
                    (true, TransistorKind::NEnhancement) => TransistorKind::Depletion,
                    (_, kind) => kind,
                };
                b.add_transistor(kind, t.gate(), t.source(), t.drain(), Geometry::default());
            }
            b.build().unwrap().topology_fingerprint()
        };
        assert_eq!(rebuild(None), fp, "a rebuild matches");
        let pull_down = TransistorId(0);
        assert_eq!(
            net.transistor(pull_down).kind(),
            TransistorKind::NEnhancement
        );
        assert_ne!(rebuild(Some(pull_down)), fp, "a device-kind change");
        assert_ne!(
            edit(Edit::Add(TransistorDesc {
                kind: TransistorKind::NEnhancement,
                gate: "y".to_string(),
                source: "out".to_string(),
                drain: "gnd".to_string(),
                geometry: Geometry::default(),
            })),
            fp,
            "an add"
        );
        assert_ne!(
            edit(Edit::Remove {
                gate,
                source,
                drain
            }),
            fp,
            "a remove"
        );
    }

    #[test]
    fn electrical_fingerprint_adds_capacitance_and_geometry() {
        use crate::diff::{apply_edit, Edit};
        use crate::sim_format;
        let text = "i in\no y\nn in out gnd 2 4\np in out vdd 2 8\n\
                    n out y gnd 2 4\np out y vdd 2 8\nC out 30\n";
        let net = sim_format::parse(text, "two.sim").unwrap();
        // Asked first, so a copy made after it must not inherit it.
        let fp = net.electrical_fingerprint();
        assert_eq!(net.electrical_fingerprint(), fp, "kept per instance");
        assert_eq!(net.clone().electrical_fingerprint(), fp, "a clone");
        assert_eq!(
            sim_format::parse(text, "again.sim")
                .unwrap()
                .electrical_fingerprint(),
            fp,
            "two parses of one text"
        );
        assert_ne!(fp, net.topology_fingerprint());
        let edited = |e: Edit| {
            let copy = apply_edit(&net, &e).unwrap();
            assert_eq!(copy.topology_fingerprint(), net.topology_fingerprint());
            copy.electrical_fingerprint()
        };
        let cap = |femto: f64| Edit::SetCapacitance {
            node: "out".to_string(),
            capacitance: Farads::from_femto(femto),
        };
        assert_ne!(edited(cap(99.0)), fp, "a cap edit");
        assert_eq!(edited(cap(30.0)), fp, "a cap edit to the same value");
        let resize = |w: f64, l: f64| Edit::Resize {
            gate: "in".to_string(),
            source: "out".to_string(),
            drain: "gnd".to_string(),
            geometry: Geometry::from_microns(w, l),
        };
        assert_ne!(edited(resize(20.0, 2.0)), fp, "a wider device");
        assert_ne!(edited(resize(4.0, 3.0)), fp, "a longer device");
        assert_eq!(edited(resize(4.0, 2.0)), fp, "a resize to the same size");
        // Reordered device lines: the same sites, other adjacency order.
        let reordered = "i in\no y\np in out vdd 2 8\nn in out gnd 2 4\n\
                         n out y gnd 2 4\np out y vdd 2 8\nC out 30\n";
        let reordered = sim_format::parse(reordered, "reordered.sim").unwrap();
        assert_ne!(
            reordered.electrical_fingerprint(),
            fp,
            "another device order"
        );
    }

    #[test]
    fn cap_and_resize_copies_share_the_name_index() {
        use crate::diff::{apply_edit, Edit, TransistorDesc};
        let base = inverter();
        let out = base.node_by_name("out").unwrap();
        let pull_down = TransistorId(0);
        let cap = Edit::SetCapacitance {
            node: "out".into(),
            capacitance: Farads::from_femto(75.0),
        };
        let wide = Geometry::from_microns(9.0, 2.0);
        let resize = Edit::Resize {
            gate: "a".into(),
            source: "out".into(),
            drain: "gnd".into(),
            geometry: wide,
        };
        let capped = apply_edit(&base, &cap).unwrap();
        let resized = apply_edit(&base, &resize).unwrap();
        assert_eq!(capped.node(out).capacitance(), Farads::from_femto(75.0));
        assert_eq!(resized.transistor(pull_down).geometry(), wide);
        for copy in [&capped, &resized] {
            assert!(Arc::ptr_eq(&copy.index, &base.index));
            assert_eq!(copy.topology_fingerprint(), base.topology_fingerprint());
            for (id, node) in base.nodes() {
                assert_eq!(copy.node_by_name(node.name()), Some(id));
                assert_eq!(copy.channel_neighbors(id), base.channel_neighbors(id));
                assert_eq!(copy.gated_by(id), base.gated_by(id));
            }
        }
        // The base keeps its own capacitance and geometry.
        assert_eq!(base.node(out).capacitance(), Farads::from_femto(50.0));
        assert_eq!(base.transistor(pull_down).geometry(), Geometry::default());

        let added = apply_edit(
            &base,
            &Edit::Add(TransistorDesc {
                kind: TransistorKind::NEnhancement,
                gate: "out".into(),
                source: "a".into(),
                drain: "gnd".into(),
                geometry: Geometry::default(),
            }),
        )
        .unwrap();
        assert!(!Arc::ptr_eq(&added.index, &base.index), "an add rebuilds");
    }

    #[test]
    fn self_loop_channel_indexed_once() {
        // A degenerate transistor with source == drain must not appear twice
        // in the channel index of that node.
        let mut b = NetworkBuilder::new("loop");
        b.power();
        let gnd = b.ground();
        let x = b.node("x", NodeKind::Internal);
        b.add_transistor(TransistorKind::NEnhancement, gnd, x, x, Geometry::default());
        let net = b.build().unwrap();
        assert_eq!(net.channel_neighbors(x).len(), 1);
    }
}
