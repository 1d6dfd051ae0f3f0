//! Circuit nodes: the electrical nets a switch-level network connects.

use crate::units::Farads;
use std::fmt;

/// Index of a node within a [`Network`](crate::network::Network).
///
/// Node ids are dense, stable, and assigned in insertion order, so they can
/// be used to index side tables (`Vec`s) kept by analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `NodeId` from a dense index.
    ///
    /// Intended for analyses that store per-node data in `Vec`s; passing an
    /// index that does not belong to the network the id is used with will
    /// cause lookups to panic or return unrelated nodes.
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The electrical role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The ground rail (0 V). Exactly one per network.
    Ground,
    /// The positive supply rail (VDD). Exactly one per network.
    Power,
    /// A primary input driven from outside the network.
    Input,
    /// A primary output observed from outside the network.
    Output,
    /// An ordinary internal net.
    Internal,
}

impl NodeKind {
    /// `true` for the two supply rails, which are infinitely strong drivers.
    #[inline]
    pub fn is_rail(self) -> bool {
        matches!(self, NodeKind::Ground | NodeKind::Power)
    }

    /// `true` when the node's value is imposed from outside the network
    /// (rails and primary inputs).
    #[inline]
    pub fn is_driven_externally(self) -> bool {
        matches!(self, NodeKind::Ground | NodeKind::Power | NodeKind::Input)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Ground => "ground",
            NodeKind::Power => "power",
            NodeKind::Input => "input",
            NodeKind::Output => "output",
            NodeKind::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// A single electrical net with its name, role, and lumped capacitance,
/// as [`Network::node`](crate::network::Network::node) reads it: a view
/// borrowing the name from the network.
///
/// The capacitance recorded here is the *explicit* node capacitance (wiring
/// plus any annotated load). Device capacitances contributed by transistor
/// gates and diffusions are added on top by the technology model in the
/// `crystal` crate and by the device models in `nanospice`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node<'a> {
    name: &'a str,
    kind: NodeKind,
    capacitance: Farads,
}

impl<'a> Node<'a> {
    /// Creates a node view. Networks hand these out; build nodes through
    /// [`NetworkBuilder`](crate::network::NetworkBuilder), which also
    /// registers the name for lookup.
    pub fn new(name: &'a str, kind: NodeKind, capacitance: Farads) -> Node<'a> {
        Node {
            name,
            kind,
            capacitance,
        }
    }

    /// The node's name as given in the netlist.
    #[inline]
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The node's electrical role.
    #[inline]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Explicit (wiring + annotated) capacitance to ground.
    #[inline]
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_classification() {
        assert!(NodeKind::Ground.is_rail());
        assert!(NodeKind::Power.is_rail());
        assert!(!NodeKind::Input.is_rail());
        assert!(NodeKind::Input.is_driven_externally());
        assert!(!NodeKind::Output.is_driven_externally());
        assert!(!NodeKind::Internal.is_driven_externally());
    }

    #[test]
    fn node_accessors() {
        let n = Node::new("out", NodeKind::Output, Farads::from_femto(25.0));
        assert_eq!(n.name(), "out");
        assert_eq!(n.kind(), NodeKind::Output);
        assert!((n.capacitance().femto() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "n7");
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(NodeKind::Ground.to_string(), "ground");
        assert_eq!(NodeKind::Internal.to_string(), "internal");
    }
}
