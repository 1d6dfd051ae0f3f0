//! Structural diff between two switch-level networks, plus single edits.
//!
//! Node and transistor ids are dense per-network indices assigned in
//! insertion order, so the same circuit re-parsed from a re-ordered
//! netlist renumbers everything. A comparison of two independently built
//! networks therefore keys on *names*:
//! [`diff`] compares two [`Network`]s and reports added/removed nodes,
//! capacitance and role changes, and added/removed/re-sized transistors,
//! all described by node names; [`apply`] replays a diff onto a base
//! network to reproduce the edited one. Channel terminals are matched as
//! an unordered pair (source and drain are interchangeable at the switch
//! level), and parallel devices between the same terminals are handled
//! as a multiset.
//!
//! An [`Edit`] is different: it keeps every node id and kind and only
//! appends new nodes, so [`apply_edits_with_diff`] computes the same
//! [`NetworkDiff`] by id over just the nodes and sites the script
//! touched, for the cost of the edit rather than of the network.
//!
//! The `crystal` crate's incremental analyzer consumes
//! [`NetworkDiff::touched_nodes`] to decide which timing stages an edit
//! can possibly affect. [`Edit`] and [`apply_edits_with_diff`] are the
//! unit of change its session API and the CLI's scripted-edit mode
//! speak; [`diff`] serves only a wholesale replacement network (the
//! CLI's file-watching mode).

use crate::error::NetworkError;
use crate::network::{Network, NetworkBuilder};
use crate::node::{NodeId, NodeKind};
use crate::transistor::{Geometry, Transistor, TransistorId, TransistorKind};
use crate::units::Farads;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Diff data model
// ---------------------------------------------------------------------------

/// A transistor described by node names — portable across networks.
#[derive(Debug, Clone, PartialEq)]
pub struct TransistorDesc {
    /// Device kind.
    pub kind: TransistorKind,
    /// Gate node name.
    pub gate: String,
    /// Source node name.
    pub source: String,
    /// Drain node name.
    pub drain: String,
    /// Channel geometry.
    pub geometry: Geometry,
}

/// A node present in one network but not the other.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeChange {
    /// The node name.
    pub name: String,
    /// Its electrical role.
    pub kind: NodeKind,
    /// Its explicit capacitance.
    pub capacitance: Farads,
}

/// A node whose explicit capacitance changed.
#[derive(Debug, Clone, PartialEq)]
pub struct CapChange {
    /// The node name.
    pub name: String,
    /// Capacitance in the base network.
    pub from: Farads,
    /// Capacitance in the edited network.
    pub to: Farads,
}

/// A node whose electrical role changed (e.g. `Internal` → `Output`).
#[derive(Debug, Clone, PartialEq)]
pub struct KindChange {
    /// The node name.
    pub name: String,
    /// Role in the base network.
    pub from: NodeKind,
    /// Role in the edited network.
    pub to: NodeKind,
}

/// A transistor whose terminals are unchanged but whose geometry differs.
#[derive(Debug, Clone, PartialEq)]
pub struct Resize {
    /// Device kind.
    pub kind: TransistorKind,
    /// Gate node name.
    pub gate: String,
    /// Source node name.
    pub source: String,
    /// Drain node name.
    pub drain: String,
    /// Geometry in the base network.
    pub from: Geometry,
    /// Geometry in the edited network.
    pub to: Geometry,
}

/// The structural difference between two networks, keyed on node names.
///
/// Produced by [`diff`]; replayable with [`apply`]. An empty diff
/// ([`NetworkDiff::is_empty`]) means the two networks are structurally
/// identical up to node/transistor numbering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkDiff {
    /// Nodes present only in the edited network.
    pub added_nodes: Vec<NodeChange>,
    /// Names of nodes present only in the base network.
    pub removed_nodes: Vec<String>,
    /// Nodes whose electrical role changed.
    pub kind_changed: Vec<KindChange>,
    /// Nodes whose explicit capacitance changed.
    pub cap_changed: Vec<CapChange>,
    /// Transistors present only in the edited network.
    pub added: Vec<TransistorDesc>,
    /// Transistors present only in the base network.
    pub removed: Vec<TransistorDesc>,
    /// Transistors with unchanged terminals but different geometry.
    pub resized: Vec<Resize>,
}

impl NetworkDiff {
    /// `true` when the two networks are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.added_nodes.is_empty()
            && self.removed_nodes.is_empty()
            && self.kind_changed.is_empty()
            && self.cap_changed.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
            && self.resized.is_empty()
    }

    /// Total number of individual changes.
    pub fn change_count(&self) -> usize {
        self.added_nodes.len()
            + self.removed_nodes.len()
            + self.kind_changed.len()
            + self.cap_changed.len()
            + self.added.len()
            + self.removed.len()
            + self.resized.len()
    }

    /// Every node name an edit in this diff touches: added/removed nodes,
    /// capacitance and role changes, and all three terminals of every
    /// added, removed, or re-sized transistor.
    ///
    /// This is the seed set for incremental invalidation: a timing stage
    /// whose support contains none of these names cannot change.
    pub fn touched_nodes(&self) -> BTreeSet<String> {
        let mut touched = BTreeSet::new();
        for n in &self.added_nodes {
            touched.insert(n.name.clone());
        }
        for name in &self.removed_nodes {
            touched.insert(name.clone());
        }
        for k in &self.kind_changed {
            touched.insert(k.name.clone());
        }
        for c in &self.cap_changed {
            touched.insert(c.name.clone());
        }
        for t in self.added.iter().chain(&self.removed) {
            touched.insert(t.gate.clone());
            touched.insert(t.source.clone());
            touched.insert(t.drain.clone());
        }
        for r in &self.resized {
            touched.insert(r.gate.clone());
            touched.insert(r.source.clone());
            touched.insert(r.drain.clone());
        }
        touched
    }
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Site key: device kind plus gate and the *unordered* channel pair, so a
/// netlist that lists source/drain in the opposite order still matches.
type SiteKey = (u8, String, String, String);

fn site_key(desc: &TransistorDesc) -> SiteKey {
    let (lo, hi) = if desc.source <= desc.drain {
        (desc.source.clone(), desc.drain.clone())
    } else {
        (desc.drain.clone(), desc.source.clone())
    };
    (desc.kind.index() as u8, desc.gate.clone(), lo, hi)
}

fn geom_bits(g: Geometry) -> (u64, u64) {
    // Width and length are validated positive and finite, so bit order
    // equals numeric order and bit equality equals numeric equality.
    (g.width.value().to_bits(), g.length.value().to_bits())
}

fn desc_of(net: &Network, t: &Transistor) -> TransistorDesc {
    TransistorDesc {
        kind: t.kind(),
        gate: net.node(t.gate()).name().to_string(),
        source: net.node(t.source()).name().to_string(),
        drain: net.node(t.drain()).name().to_string(),
        geometry: t.geometry(),
    }
}

/// One site's devices in the base and the edited network, as
/// `(geometry bits, desc)` entries.
type SiteEntries = (
    Vec<((u64, u64), TransistorDesc)>,
    Vec<((u64, u64), TransistorDesc)>,
);
type Sites = BTreeMap<SiteKey, SiteEntries>;

fn add_site_entry(sites: &mut Sites, net: &Network, t: &Transistor, edited: bool) {
    let desc = desc_of(net, t);
    let entry = (geom_bits(desc.geometry), desc);
    let (in_a, in_b) = sites.entry(site_key(&entry.1)).or_default();
    if edited { in_b } else { in_a }.push(entry);
}

/// Compares every site as a geometry multiset, in site-key order:
/// geometries present on both sides cancel, equal-count leftovers pair up
/// as [`Resize`]s (smallest-first on both sides, so the pairing is
/// deterministic), and any excess becomes an addition or removal.
fn diff_sites(sites: Sites, out: &mut NetworkDiff) {
    for (_, (mut in_a, mut in_b)) in sites {
        in_a.sort_by_key(|e| e.0);
        in_b.sort_by_key(|e| e.0);
        // Cancel geometries present on both sides (multiset intersection).
        let (mut i, mut j) = (0usize, 0usize);
        let mut only_a = Vec::new();
        let mut only_b = Vec::new();
        while i < in_a.len() && j < in_b.len() {
            match in_a[i].0.cmp(&in_b[j].0) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    only_a.push(in_a[i].1.clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    only_b.push(in_b[j].1.clone());
                    j += 1;
                }
            }
        }
        only_a.extend(in_a[i..].iter().map(|e| e.1.clone()));
        only_b.extend(in_b[j..].iter().map(|e| e.1.clone()));
        // Equal-count leftovers pair up as resizes; excess is add/remove.
        let paired = only_a.len().min(only_b.len());
        for (before, after) in only_a.iter().zip(&only_b).take(paired) {
            out.resized.push(Resize {
                kind: after.kind,
                gate: after.gate.clone(),
                source: after.source.clone(),
                drain: after.drain.clone(),
                from: before.geometry,
                to: after.geometry,
            });
        }
        out.removed.extend(only_a.into_iter().skip(paired));
        out.added.extend(only_b.into_iter().skip(paired));
    }
}

/// Computes the structural difference from `a` (base) to `b` (edited).
///
/// Transistors are grouped per *site* — `(kind, gate, {source, drain})`
/// with the channel pair unordered — and compared as geometry multisets:
/// geometries present on both sides cancel, equal-count leftovers pair up
/// as [`Resize`]s (smallest-first on both sides, so the pairing is
/// deterministic), and any excess becomes an addition or removal.
///
/// This walks both networks whole; when the edited network came from an
/// edit script, [`apply_edits_with_diff`] returns the same diff for the
/// cost of the sites the script touched.
pub fn diff(a: &Network, b: &Network) -> NetworkDiff {
    let mut out = NetworkDiff::default();

    // Nodes, by name.
    let nodes_of = |net: &Network| -> BTreeMap<String, (NodeKind, Farads)> {
        net.nodes()
            .map(|(_, n)| (n.name().to_string(), (n.kind(), n.capacitance())))
            .collect()
    };
    let a_nodes = nodes_of(a);
    let b_nodes = nodes_of(b);
    for (name, &(kind, cap)) in &b_nodes {
        match a_nodes.get(name) {
            None => out.added_nodes.push(NodeChange {
                name: name.clone(),
                kind,
                capacitance: cap,
            }),
            Some(&(a_kind, a_cap)) => {
                if a_kind != kind {
                    out.kind_changed.push(KindChange {
                        name: name.clone(),
                        from: a_kind,
                        to: kind,
                    });
                }
                if a_cap.value().to_bits() != cap.value().to_bits() {
                    out.cap_changed.push(CapChange {
                        name: name.clone(),
                        from: a_cap,
                        to: cap,
                    });
                }
            }
        }
    }
    for name in a_nodes.keys() {
        if !b_nodes.contains_key(name) {
            out.removed_nodes.push(name.clone());
        }
    }

    // Transistors, as per-site geometry multisets.
    let mut sites = Sites::new();
    for (_, t) in a.transistors() {
        add_site_entry(&mut sites, a, t, false);
    }
    for (_, t) in b.transistors() {
        add_site_entry(&mut sites, b, t, true);
    }
    diff_sites(sites, &mut out);
    out
}

// ---------------------------------------------------------------------------
// apply
// ---------------------------------------------------------------------------

fn invalid(message: String) -> NetworkError {
    NetworkError::Invalid { message }
}

/// Replays a [`diff`] onto `base`, producing the edited network.
///
/// `diff(apply(a, &diff(a, b))?, b)` is empty for any two well-formed
/// networks: the result reproduces `b` up to node/transistor numbering.
///
/// # Errors
/// Returns [`NetworkError::Invalid`] when the diff does not fit the base
/// network — a removed or re-sized transistor that is not present, an
/// added node that already exists, or a surviving transistor that still
/// references a removed node — and [`NetworkError::MissingRail`] if the
/// diff removes a supply rail.
pub fn apply(base: &Network, diff: &NetworkDiff) -> Result<Network, NetworkError> {
    let removed_nodes: BTreeSet<&str> = diff.removed_nodes.iter().map(String::as_str).collect();
    for name in &removed_nodes {
        if base.node_by_name(name).is_none() {
            return Err(NetworkError::UnknownNode {
                name: (*name).to_string(),
            });
        }
    }
    let kind_of: BTreeMap<&str, NodeKind> = diff
        .kind_changed
        .iter()
        .map(|k| (k.name.as_str(), k.to))
        .collect();
    let cap_of: BTreeMap<&str, Farads> = diff
        .cap_changed
        .iter()
        .map(|c| (c.name.as_str(), c.to))
        .collect();

    let mut b = NetworkBuilder::new(base.name());
    // Surviving base nodes, in id order (ids shift where nodes were
    // removed; everything below works by name, so that is fine).
    for (id, node) in base.nodes() {
        if removed_nodes.contains(node.name()) {
            continue;
        }
        let kind = kind_of.get(node.name()).copied().unwrap_or(node.kind());
        let nid = if id == base.power() {
            b.declare_power(node.name())
        } else if id == base.ground() {
            b.declare_ground(node.name())
        } else {
            b.node(node.name(), kind)
        };
        let cap = cap_of
            .get(node.name())
            .copied()
            .unwrap_or(node.capacitance());
        b.set_capacitance(nid, cap);
    }
    for n in &diff.added_nodes {
        if base.node_by_name(&n.name).is_some() {
            return Err(invalid(format!("added node `{}` already exists", n.name)));
        }
        let nid = match n.kind {
            NodeKind::Power => b.declare_power(&n.name),
            NodeKind::Ground => b.declare_ground(&n.name),
            kind => b.node(&n.name, kind),
        };
        b.set_capacitance(nid, n.capacitance);
    }

    // Removal and resize multisets, consumed as base transistors match.
    let mut to_remove: BTreeMap<(SiteKey, (u64, u64)), usize> = BTreeMap::new();
    for desc in &diff.removed {
        *to_remove
            .entry((site_key(desc), geom_bits(desc.geometry)))
            .or_default() += 1;
    }
    let mut to_resize: BTreeMap<(SiteKey, (u64, u64)), Vec<Geometry>> = BTreeMap::new();
    for r in &diff.resized {
        let desc = TransistorDesc {
            kind: r.kind,
            gate: r.gate.clone(),
            source: r.source.clone(),
            drain: r.drain.clone(),
            geometry: r.from,
        };
        to_resize
            .entry((site_key(&desc), geom_bits(r.from)))
            .or_default()
            .push(r.to);
    }

    let lookup = |name: &str, b: &mut NetworkBuilder| -> Result<NodeId, NetworkError> {
        if removed_nodes.contains(name) {
            return Err(invalid(format!(
                "node `{name}` is removed but still referenced by a transistor"
            )));
        }
        Ok(b.node(name, NodeKind::Internal))
    };
    for (_, t) in base.transistors() {
        let desc = desc_of(base, t);
        let key = (site_key(&desc), geom_bits(desc.geometry));
        if let Some(count) = to_remove.get_mut(&key) {
            if *count > 0 {
                *count -= 1;
                continue;
            }
        }
        let geometry = match to_resize.get_mut(&key) {
            Some(tos) if !tos.is_empty() => tos.remove(0),
            _ => desc.geometry,
        };
        let gate = lookup(&desc.gate, &mut b)?;
        let source = lookup(&desc.source, &mut b)?;
        let drain = lookup(&desc.drain, &mut b)?;
        b.add_transistor(desc.kind, gate, source, drain, geometry);
    }
    if let Some((((_, gate, lo, hi), _), _)) = to_remove.iter().find(|(_, &n)| n > 0) {
        return Err(invalid(format!(
            "removed transistor (gate `{gate}`, channel `{lo}`/`{hi}`) is not present"
        )));
    }
    if let Some((((_, gate, lo, hi), _), _)) = to_resize.iter().find(|(_, tos)| !tos.is_empty()) {
        return Err(invalid(format!(
            "re-sized transistor (gate `{gate}`, channel `{lo}`/`{hi}`) is not present"
        )));
    }

    for desc in &diff.added {
        let gate = lookup(&desc.gate, &mut b)?;
        let source = lookup(&desc.source, &mut b)?;
        let drain = lookup(&desc.drain, &mut b)?;
        b.add_transistor(desc.kind, gate, source, drain, desc.geometry);
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Single edits
// ---------------------------------------------------------------------------

/// One netlist edit, the unit of change the incremental analyzer and the
/// CLI's scripted-edit mode speak. All references are by node name; the
/// channel pair of [`Edit::Resize`] and [`Edit::Remove`] is unordered.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Re-size every transistor matching `(gate, {source, drain})`.
    Resize {
        /// Gate node name.
        gate: String,
        /// One channel terminal name.
        source: String,
        /// The other channel terminal name.
        drain: String,
        /// The new geometry.
        geometry: Geometry,
    },
    /// Replace a node's explicit capacitance.
    SetCapacitance {
        /// The node name.
        node: String,
        /// The new capacitance.
        capacitance: Farads,
    },
    /// Add a transistor (unknown terminal names create `Internal` nodes).
    Add(
        /// The transistor to add.
        TransistorDesc,
    ),
    /// Remove every transistor matching `(gate, {source, drain})`.
    Remove {
        /// Gate node name.
        gate: String,
        /// One channel terminal name.
        source: String,
        /// The other channel terminal name.
        drain: String,
    },
}

fn matches_site(net: &Network, t: &Transistor, gate: &str, a: &str, b: &str) -> bool {
    let g = net.node(t.gate()).name();
    let s = net.node(t.source()).name();
    let d = net.node(t.drain()).name();
    g == gate && ((s == a && d == b) || (s == b && d == a))
}

/// The devices at a site, in id order. Only the node named `gate` can
/// gate them, so only its gate list is searched.
fn site_devices(net: &Network, gate: &str, a: &str, b: &str) -> Vec<TransistorId> {
    let Some(g) = net.node_by_name(gate) else {
        return Vec::new();
    };
    (net.gated_by(g).iter().copied())
        .filter(|&tid| matches_site(net, net.transistor(tid), gate, a, b))
        .collect()
}

/// Applies one [`Edit`] to `base`, returning the edited network.
///
/// # Errors
/// Returns [`NetworkError::UnknownNode`] for a capacitance edit on a
/// missing node and [`NetworkError::Invalid`] when a resize/remove
/// matches no transistor.
pub fn apply_edit(base: &Network, edit: &Edit) -> Result<Network, NetworkError> {
    let require_match = |gate: &str, source: &str, drain: &str| {
        let devices = site_devices(base, gate, source, drain);
        if devices.is_empty() {
            return Err(invalid(format!(
                "no transistor matches gate `{gate}`, channel `{source}`/`{drain}`"
            )));
        }
        Ok(devices)
    };
    // Capacitance and geometry edits keep every node and device, so they
    // edit a copy in place; only device membership rebuilds the network.
    match edit {
        Edit::Resize {
            gate,
            source,
            drain,
            geometry,
        } => {
            let devices = require_match(gate, source, drain)?;
            let mut net = base.copy_for_edit();
            for tid in devices {
                let t = base.transistor(tid);
                *net.transistor_mut(tid) =
                    Transistor::new(t.kind(), t.gate(), t.source(), t.drain(), *geometry);
            }
            Ok(net)
        }
        Edit::SetCapacitance { node, capacitance } => {
            let id = base
                .node_by_name(node)
                .ok_or_else(|| NetworkError::UnknownNode { name: node.clone() })?;
            let mut net = base.copy_for_edit();
            net.set_capacitance(id, *capacitance);
            Ok(net)
        }
        Edit::Add(desc) => rebuild(base, |b| {
            for (_, t) in base.transistors() {
                b.add_transistor(t.kind(), t.gate(), t.source(), t.drain(), t.geometry());
            }
            let gate = b.node(&desc.gate, NodeKind::Internal);
            let source = b.node(&desc.source, NodeKind::Internal);
            let drain = b.node(&desc.drain, NodeKind::Internal);
            b.add_transistor(desc.kind, gate, source, drain, desc.geometry);
        }),
        Edit::Remove {
            gate,
            source,
            drain,
        } => {
            require_match(gate, source, drain)?;
            rebuild(base, |b| {
                for (_, t) in base.transistors() {
                    if !matches_site(base, t, gate, source, drain) {
                        b.add_transistor(t.kind(), t.gate(), t.source(), t.drain(), t.geometry());
                    }
                }
            })
        }
    }
}

/// Rebuilds `base` node by node, so every node keeps its id, and lets
/// `devices` add the transistors.
fn rebuild(
    base: &Network,
    devices: impl FnOnce(&mut NetworkBuilder),
) -> Result<Network, NetworkError> {
    let mut b = NetworkBuilder::new(base.name());
    for (id, node) in base.nodes() {
        let nid = if id == base.power() {
            b.declare_power(node.name())
        } else if id == base.ground() {
            b.declare_ground(node.name())
        } else {
            b.node(node.name(), node.kind())
        };
        debug_assert_eq!(nid, id);
        b.set_capacitance(nid, node.capacitance());
    }
    devices(&mut b);
    b.build()
}

/// Applies a sequence of edits left to right.
///
/// # Errors
/// Propagates the first failing [`apply_edit`].
pub fn apply_edits(base: &Network, edits: &[Edit]) -> Result<Network, NetworkError> {
    apply_edits_with_diff(base, edits).map(|(net, _)| net)
}

/// Applies a sequence of edits left to right and returns the edited
/// network with its [`NetworkDiff`] against `base`, equal to
/// `diff(base, &edited)`.
///
/// Edits keep every node id and kind and only append new nodes, so the
/// diff is computed by id over what the script touched: the appended
/// nodes, the nodes whose capacitance it set, and every site gated by the
/// gate of a resized, removed, or added device. A device's site carries
/// its gate, so no other site can differ; sites the script restored
/// compare equal and drop out, exactly as in [`diff`].
///
/// # Errors
/// Propagates the first failing [`apply_edit`].
pub fn apply_edits_with_diff(
    base: &Network,
    edits: &[Edit],
) -> Result<(Network, NetworkDiff), NetworkError> {
    let mut edited: Option<Network> = None;
    let mut capped = Vec::new();
    let mut gates = Vec::new();
    for edit in edits {
        let net = edited.as_ref().unwrap_or(base);
        match edit {
            Edit::SetCapacitance { node, .. } => capped.extend(net.node_by_name(node)),
            Edit::Resize { gate, .. } | Edit::Remove { gate, .. } => {
                gates.extend(net.node_by_name(gate))
            }
            Edit::Add(_) => {}
        }
        let next = apply_edit(net, edit)?;
        if let Edit::Add(_) = edit {
            let (_, added) = next.transistors().last().expect("an add leaves a device");
            gates.push(added.gate());
        }
        edited = Some(next);
    }
    let net = edited.unwrap_or_else(|| base.clone());

    let mut out = NetworkDiff::default();
    let old_count = base.node_count();
    for (_, node) in net.nodes().skip(old_count) {
        out.added_nodes.push(NodeChange {
            name: node.name().to_string(),
            kind: node.kind(),
            capacitance: node.capacitance(),
        });
    }
    capped.sort_unstable();
    capped.dedup();
    for id in capped.into_iter().filter(|id| id.index() < old_count) {
        let (from, to) = (base.node(id), net.node(id));
        if from.capacitance().value().to_bits() != to.capacitance().value().to_bits() {
            out.cap_changed.push(CapChange {
                name: to.name().to_string(),
                from: from.capacitance(),
                to: to.capacitance(),
            });
        }
    }
    out.added_nodes.sort_by(|x, y| x.name.cmp(&y.name));
    out.cap_changed.sort_by(|x, y| x.name.cmp(&y.name));

    gates.sort_unstable();
    gates.dedup();
    let mut sites = Sites::new();
    for &gate in &gates {
        if gate.index() < old_count {
            for &tid in base.gated_by(gate) {
                add_site_entry(&mut sites, base, base.transistor(tid), false);
            }
        }
        for &tid in net.gated_by(gate) {
            add_site_entry(&mut sites, &net, net.transistor(tid), true);
        }
    }
    diff_sites(sites, &mut out);
    Ok((net, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{inverter_chain, Style};

    fn chain() -> Network {
        inverter_chain(Style::Cmos, 3, 2.0, Farads::from_femto(80.0)).expect("generates")
    }

    #[test]
    fn identical_networks_diff_empty() {
        let a = chain();
        let b = chain();
        let d = diff(&a, &b);
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(d.change_count(), 0);
        assert!(d.touched_nodes().is_empty());
    }

    #[test]
    fn renumbering_does_not_show_up_in_a_diff() {
        // The same circuit rebuilt with nodes and transistors inserted in
        // reverse order gets entirely different ids but must diff empty.
        let a = chain();
        let mut b = NetworkBuilder::new(a.name());
        let nodes: Vec<_> = a.nodes().collect();
        for (id, node) in nodes.into_iter().rev() {
            let nid = if id == a.power() {
                b.declare_power(node.name())
            } else if id == a.ground() {
                b.declare_ground(node.name())
            } else {
                b.node(node.name(), node.kind())
            };
            b.set_capacitance(nid, node.capacitance());
        }
        let transistors: Vec<_> = a.transistors().collect();
        for (_, t) in transistors.into_iter().rev() {
            let gate = b.node(a.node(t.gate()).name(), NodeKind::Internal);
            let source = b.node(a.node(t.source()).name(), NodeKind::Internal);
            let drain = b.node(a.node(t.drain()).name(), NodeKind::Internal);
            b.add_transistor(t.kind(), gate, source, drain, t.geometry());
        }
        let b = b.build().unwrap();
        assert!(diff(&a, &b).is_empty());
    }

    #[test]
    fn resize_is_reported_as_a_resize_not_add_remove() {
        let a = chain();
        let t = a.transistors().next().map(|(_, t)| desc_of(&a, t)).unwrap();
        let b = apply_edit(
            &a,
            &Edit::Resize {
                gate: t.gate.clone(),
                source: t.source.clone(),
                drain: t.drain.clone(),
                geometry: Geometry::from_microns(11.0, 3.0),
            },
        )
        .unwrap();
        let d = diff(&a, &b);
        assert!(d.added.is_empty() && d.removed.is_empty(), "{d:?}");
        assert_eq!(d.resized.len(), 1);
        assert_eq!(d.resized[0].to, Geometry::from_microns(11.0, 3.0));
        assert!(d.touched_nodes().contains(&t.gate));
    }

    #[test]
    fn cap_change_and_membership_changes_are_reported() {
        let a = chain();
        let mut b = apply_edit(
            &a,
            &Edit::SetCapacitance {
                node: "out".into(),
                capacitance: Farads::from_femto(123.0),
            },
        )
        .unwrap();
        b = apply_edit(
            &b,
            &Edit::Add(TransistorDesc {
                kind: TransistorKind::NEnhancement,
                gate: "out".into(),
                source: "extra".into(),
                drain: "gnd".into(),
                geometry: Geometry::default(),
            }),
        )
        .unwrap();
        let d = diff(&a, &b);
        assert_eq!(d.cap_changed.len(), 1);
        assert_eq!(d.cap_changed[0].to, Farads::from_femto(123.0));
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added_nodes.len(), 1);
        assert_eq!(d.added_nodes[0].name, "extra");
        let touched = d.touched_nodes();
        assert!(touched.contains("out") && touched.contains("extra"));
    }

    #[test]
    fn swapped_channel_terminals_still_match() {
        // Rebuild the chain with every transistor's source/drain swapped:
        // structurally the same switch-level circuit, so the diff is empty.
        let a = chain();
        let mut b = NetworkBuilder::new(a.name());
        for (id, node) in a.nodes() {
            let nid = if id == a.power() {
                b.declare_power(node.name())
            } else if id == a.ground() {
                b.declare_ground(node.name())
            } else {
                b.node(node.name(), node.kind())
            };
            b.set_capacitance(nid, node.capacitance());
        }
        for (_, t) in a.transistors() {
            b.add_transistor(t.kind(), t.gate(), t.drain(), t.source(), t.geometry());
        }
        let b = b.build().unwrap();
        assert!(diff(&a, &b).is_empty());
    }

    #[test]
    fn apply_round_trips_arbitrary_membership_changes() {
        let a = chain();
        // b: remove one inverter's pull-down, resize its pull-up, retarget
        // the load cap.
        let edits = [
            Edit::Remove {
                gate: "s1".into(),
                source: "s2".into(),
                drain: "gnd".into(),
            },
            Edit::Resize {
                gate: "s1".into(),
                source: "s2".into(),
                drain: "vdd".into(),
                geometry: Geometry::from_microns(9.0, 2.0),
            },
            Edit::SetCapacitance {
                node: "s2".into(),
                capacitance: Farads::from_femto(41.0),
            },
        ];
        let b = apply_edits(&a, &edits).unwrap();
        let d = diff(&a, &b);
        let rebuilt = apply(&a, &d).unwrap();
        assert!(diff(&rebuilt, &b).is_empty());
        // And the reverse diff round-trips too.
        let back = apply(&b, &diff(&b, &a)).unwrap();
        assert!(diff(&back, &a).is_empty());
    }

    #[test]
    fn apply_rejects_a_diff_that_does_not_fit() {
        let a = chain();
        let d = NetworkDiff {
            removed: vec![TransistorDesc {
                kind: TransistorKind::Depletion,
                gate: "nope".into(),
                source: "x".into(),
                drain: "y".into(),
                geometry: Geometry::default(),
            }],
            ..NetworkDiff::default()
        };
        assert!(matches!(apply(&a, &d), Err(NetworkError::Invalid { .. })));
    }

    #[test]
    fn edits_that_match_nothing_are_errors() {
        let a = chain();
        assert!(matches!(
            apply_edit(
                &a,
                &Edit::Remove {
                    gate: "ghost".into(),
                    source: "x".into(),
                    drain: "y".into(),
                },
            ),
            Err(NetworkError::Invalid { .. })
        ));
        assert!(matches!(
            apply_edit(
                &a,
                &Edit::SetCapacitance {
                    node: "ghost".into(),
                    capacitance: Farads::ZERO,
                },
            ),
            Err(NetworkError::UnknownNode { .. })
        ));
    }

    #[test]
    fn parallel_duplicate_devices_diff_as_a_multiset() {
        // Two identical parallel transistors; removing one must show up as
        // exactly one removal, not zero or two.
        let mut builder = NetworkBuilder::new("par");
        let vdd = builder.power();
        builder.ground();
        let g = builder.node("g", NodeKind::Input);
        let y = builder.node("y", NodeKind::Output);
        builder.add_transistor(TransistorKind::NEnhancement, g, y, vdd, Geometry::default());
        builder.add_transistor(TransistorKind::NEnhancement, g, y, vdd, Geometry::default());
        let two = builder.build().unwrap();

        let mut builder = NetworkBuilder::new("par");
        let vdd = builder.power();
        builder.ground();
        let g = builder.node("g", NodeKind::Input);
        let y = builder.node("y", NodeKind::Output);
        builder.add_transistor(TransistorKind::NEnhancement, g, y, vdd, Geometry::default());
        let one = builder.build().unwrap();

        let d = diff(&two, &one);
        assert_eq!(d.removed.len(), 1);
        assert!(d.added.is_empty() && d.resized.is_empty());
        let rebuilt = apply(&two, &d).unwrap();
        assert!(diff(&rebuilt, &one).is_empty());
    }

    /// `apply_edits_with_diff` must return exactly the whole-network
    /// diff of what it built.
    fn assert_exact(base: &Network, edits: &[Edit]) -> NetworkDiff {
        let (edited, d) = apply_edits_with_diff(base, edits).expect("script fits");
        assert_eq!(d, diff(base, &edited), "script {edits:?}");
        d
    }

    fn site_of(net: &Network, t: &Transistor) -> (String, String, String) {
        let name = |id| net.node(id).name().to_string();
        (name(t.gate()), name(t.source()), name(t.drain()))
    }

    #[test]
    fn in_place_edits_equal_a_rebuild() {
        // `apply` rebuilds node by node in id order, which drops rail
        // aliases; the in-place capacitance and geometry edits must give
        // that same network.
        let mut b = NetworkBuilder::new("alias");
        b.power();
        b.declare_power("pwr");
        let gnd = b.ground();
        let a = b.node("a", NodeKind::Input);
        let y = b.node("y", NodeKind::Output);
        b.add_transistor(TransistorKind::NEnhancement, a, y, gnd, Geometry::default());
        let base = b.build().unwrap();
        assert!(base.node_by_name("pwr").is_some());
        for edit in [
            Edit::SetCapacitance {
                node: "y".into(),
                capacitance: Farads::from_femto(30.0),
            },
            Edit::Resize {
                gate: "a".into(),
                source: "gnd".into(),
                drain: "y".into(),
                geometry: Geometry::from_microns(6.0, 2.0),
            },
        ] {
            let edited = apply_edit(&base, &edit).unwrap();
            let rebuilt = apply(&base, &diff(&base, &edited)).unwrap();
            let write = crate::sim_format::write;
            assert_eq!(write(&edited), write(&rebuilt), "{edit:?}");
            for (id, node) in rebuilt.nodes() {
                assert_eq!(edited.node_by_name(node.name()), Some(id));
                assert_eq!(edited.channel_neighbors(id), rebuilt.channel_neighbors(id));
                assert_eq!(edited.gated_by(id), rebuilt.gated_by(id));
            }
            assert_eq!(edited.node_by_name("pwr"), rebuilt.node_by_name("pwr"));
        }
    }

    #[test]
    fn self_cancelling_scripts_diff_empty() {
        let a = chain();
        let (gate, source, drain) = site_of(&a, a.transistors().next().unwrap().1);
        let geometry = a.transistors().next().unwrap().1.geometry();
        let script = [
            Edit::SetCapacitance {
                node: "s1".into(),
                capacitance: Farads::from_femto(7.0),
            },
            Edit::Resize {
                gate: gate.clone(),
                source: source.clone(),
                drain: drain.clone(),
                geometry: Geometry::from_microns(13.0, 2.0),
            },
            Edit::Add(TransistorDesc {
                kind: TransistorKind::NEnhancement,
                gate: "s1".into(),
                source: "out".into(),
                drain: "gnd".into(),
                geometry: Geometry::default(),
            }),
            Edit::Remove {
                gate: "s1".into(),
                source: "gnd".into(),
                drain: "out".into(),
            },
            Edit::Resize {
                gate,
                source: drain,
                drain: source,
                geometry,
            },
            Edit::SetCapacitance {
                node: "s1".into(),
                capacitance: a.node(a.node_by_name("s1").unwrap()).capacitance(),
            },
        ];
        assert!(assert_exact(&a, &script).is_empty());
    }

    #[test]
    fn resizing_a_mixed_parallel_site_diffs_exactly() {
        // Two extra parallel devices of different widths beside the
        // original: the resize sets all three to one geometry.
        let a = chain();
        let (gate, source, drain) = site_of(&a, a.transistors().nth(2).unwrap().1);
        let kind = a.transistors().nth(2).unwrap().1.kind();
        let parallel = |w: f64| {
            Edit::Add(TransistorDesc {
                kind,
                gate: gate.clone(),
                source: drain.clone(),
                drain: source.clone(),
                geometry: Geometry::from_microns(w, 2.0),
            })
        };
        let mixed = apply_edits(&a, &[parallel(3.0), parallel(9.0)]).unwrap();
        let d = assert_exact(&a, &[parallel(3.0), parallel(9.0)]);
        assert_eq!(d.added.len(), 2);
        let resize = Edit::Resize {
            gate,
            source,
            drain,
            geometry: Geometry::from_microns(9.0, 2.0),
        };
        let d = assert_exact(&mixed, std::slice::from_ref(&resize));
        assert_eq!(d.resized.len(), 2, "the 9 µm device cancels: {d:?}");
    }

    #[test]
    fn edit_diffs_match_whole_network_diffs() {
        // Property: for seeded random scripts of one to four edits — add
        // (on new and existing names), remove, resize, cap — over three
        // generator families, the touched-site diff equals `diff`.
        use crate::generators::{carry_chain, decoder};
        let corpus: Vec<Network> = vec![
            inverter_chain(Style::Cmos, 6, 2.0, Farads::from_femto(90.0)).unwrap(),
            carry_chain(Style::Cmos, 4, Farads::from_femto(60.0)).unwrap(),
            decoder(Style::Cmos, 3, Farads::from_femto(50.0)).unwrap(),
        ];
        let mut state = 0x9b05_688c_2b3e_6c1fu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seen = [0usize; 4];
        for base in corpus {
            let mut net = base;
            for round in 0..40 {
                let mut script = Vec::new();
                let mut scratch = net.clone();
                for _ in 0..1 + rng() % 4 {
                    let r = rng();
                    let names: Vec<String> =
                        scratch.nodes().map(|(_, n)| n.name().to_string()).collect();
                    let pick = |k: u64| names[(k as usize) % names.len()].clone();
                    let (_, t) = scratch
                        .transistors()
                        .nth((r as usize / 4) % scratch.transistor_count())
                        .unwrap();
                    let (gate, source, drain) = site_of(&scratch, t);
                    let width = Geometry::from_microns(2.0 + (r % 5) as f64, 2.0);
                    let edit = match r % 4 {
                        0 => Edit::Add(TransistorDesc {
                            kind: TransistorKind::ALL[(r as usize / 7) % 3],
                            gate: pick(r / 11),
                            source: if r % 3 == 0 {
                                format!("new{round}_{}", r % 97)
                            } else {
                                pick(r / 13)
                            },
                            drain: pick(r / 17),
                            geometry: width,
                        }),
                        1 if scratch.transistor_count() > 4 => Edit::Remove {
                            gate,
                            source,
                            drain,
                        },
                        2 => Edit::SetCapacitance {
                            node: pick(r / 19),
                            capacitance: Farads::from_femto((r % 40) as f64),
                        },
                        _ => Edit::Resize {
                            gate,
                            source,
                            drain,
                            geometry: width,
                        },
                    };
                    seen[(r % 4) as usize] += 1;
                    scratch = apply_edit(&scratch, &edit).expect("generated edit fits");
                    script.push(edit);
                }
                assert_exact(&net, &script);
                net = scratch;
            }
        }
        assert!(
            seen.iter().all(|&n| n > 10),
            "every edit kind drawn: {seen:?}"
        );
    }

    #[test]
    fn randomized_edit_sequences_round_trip_through_diff_and_apply() {
        // Property: for any reachable edit sequence, `apply(base,
        // diff(base, edited)) == edited` (up to renumbering), and the
        // re-diff of the result is empty. Edits are drawn from a
        // deterministic xorshift stream over the seed corpus.
        use crate::generators::{carry_chain, pass_chain};
        let corpus: Vec<Network> = vec![
            inverter_chain(Style::Cmos, 5, 2.0, Farads::from_femto(90.0)).unwrap(),
            carry_chain(Style::Cmos, 4, Farads::from_femto(60.0)).unwrap(),
            pass_chain(
                Style::Nmos,
                5,
                Farads::from_femto(40.0),
                Farads::from_femto(80.0),
            )
            .unwrap(),
        ];
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for base in corpus {
            let mut edited = base.clone();
            for _ in 0..8 {
                let r = rng();
                let edit = match r % 4 {
                    0 => {
                        // Retune a random non-rail node's capacitance.
                        let internals: Vec<&str> = edited
                            .nodes()
                            .filter(|(_, n)| !n.kind().is_rail())
                            .map(|(_, n)| n.name())
                            .collect();
                        let name = internals[(r as usize / 7) % internals.len()];
                        Edit::SetCapacitance {
                            node: name.to_string(),
                            capacitance: Farads::from_femto(1.0 + (r % 97) as f64),
                        }
                    }
                    1 => {
                        // Hang a fresh device off a random node.
                        let internals: Vec<&str> = edited
                            .nodes()
                            .filter(|(_, n)| !n.kind().is_rail())
                            .map(|(_, n)| n.name())
                            .collect();
                        let at = internals[(r as usize / 11) % internals.len()];
                        Edit::Add(TransistorDesc {
                            kind: TransistorKind::NEnhancement,
                            gate: at.to_string(),
                            source: format!("aux{}", r % 1000),
                            drain: "gnd".to_string(),
                            geometry: Geometry::from_microns(2.0 + (r % 7) as f64, 2.0),
                        })
                    }
                    _ => {
                        // Resize a random existing device.
                        let idx = (r as usize / 13) % edited.transistor_count();
                        let (_, t) = edited.transistors().nth(idx).unwrap();
                        Edit::Resize {
                            gate: edited.node(t.gate()).name().to_string(),
                            source: edited.node(t.source()).name().to_string(),
                            drain: edited.node(t.drain()).name().to_string(),
                            geometry: Geometry::from_microns(1.0 + (r % 11) as f64, 2.0),
                        }
                    }
                };
                edited = apply_edit(&edited, &edit).expect("edit fits");
            }
            let d = diff(&base, &edited);
            let rebuilt = apply(&base, &d).expect("diff fits its own base");
            assert!(
                diff(&rebuilt, &edited).is_empty(),
                "round trip left a residue: {:?}",
                diff(&rebuilt, &edited)
            );
            // And the reverse direction restores the base.
            let back = apply(&edited, &diff(&edited, &base)).expect("reverse diff fits");
            assert!(diff(&back, &base).is_empty());
        }
    }
}
