//! Graph utilities over the channel connectivity of a network.
//!
//! The *channel graph* has an edge between the source and drain of every
//! transistor. Its connected components — computed while treating the supply
//! rails as barriers — are the classical *channel-connected components*
//! (also called "stages" or "transistor groups") that switch-level tools
//! partition a circuit into.

use crate::network::Network;
use crate::node::NodeId;
use crate::transistor::TransistorId;
use std::collections::VecDeque;

/// The channel-connected components of a network.
///
/// Rails belong to no component (component id `NONE`); every other node has
/// exactly one component id, and every transistor belongs to the component
/// of its channel terminals.
#[derive(Debug, Clone)]
pub struct ChannelComponents {
    component_of: Vec<u32>,
    members: Vec<Vec<NodeId>>,
}

const NONE: u32 = u32::MAX;

impl ChannelComponents {
    /// Partitions `net` into channel-connected components.
    pub fn compute(net: &Network) -> ChannelComponents {
        let mut component_of = vec![NONE; net.node_count()];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        let power = net.power();
        let ground = net.ground();

        for (start, _) in net.nodes() {
            if start == power || start == ground || component_of[start.index()] != NONE {
                continue;
            }
            let id = members.len() as u32;
            let mut group = Vec::new();
            let mut queue = VecDeque::new();
            component_of[start.index()] = id;
            queue.push_back(start);
            while let Some(n) = queue.pop_front() {
                group.push(n);
                for &tid in net.channel_neighbors(n) {
                    let other = net.transistor(tid).other_terminal(n);
                    if other == power || other == ground {
                        continue;
                    }
                    if component_of[other.index()] == NONE {
                        component_of[other.index()] = id;
                        queue.push_back(other);
                    }
                }
            }
            group.sort();
            members.push(group);
        }

        ChannelComponents {
            component_of,
            members,
        }
    }

    /// Number of components.
    #[inline]
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// The component id of `node`, or `None` for rails.
    pub fn component(&self, node: NodeId) -> Option<usize> {
        let c = self.component_of[node.index()];
        (c != NONE).then_some(c as usize)
    }

    /// The member nodes of component `id`, sorted by node id.
    ///
    /// # Panics
    /// Panics if `id >= self.count()`.
    pub fn members(&self, id: usize) -> &[NodeId] {
        &self.members[id]
    }

    /// `true` when the two nodes are channel-connected (and neither is a
    /// rail).
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        match (self.component(a), self.component(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// Breadth-first search over channel edges from `start`, stopping at rails.
///
/// Returns `(node, via)` pairs in visit order, where `via` is the transistor
/// crossed to first reach `node` (`None` for `start` itself).
pub fn channel_bfs(net: &Network, start: NodeId) -> Vec<(NodeId, Option<TransistorId>)> {
    let mut seen = vec![false; net.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back((start, None));
    let power = net.power();
    let ground = net.ground();
    while let Some((n, via)) = queue.pop_front() {
        order.push((n, via));
        if n == power || n == ground {
            continue;
        }
        for &tid in net.channel_neighbors(n) {
            let other = net.transistor(tid).other_terminal(n);
            if !seen[other.index()] {
                seen[other.index()] = true;
                queue.push_back((other, Some(tid)));
            }
        }
    }
    order
}

/// Enumerates every acyclic channel path from `from` to `to` through
/// transistors for which `conducting` returns `true`, as sequences of
/// transistor ids, up to `limit` paths (guarding against the exponential
/// worst case).
///
/// Paths never pass *through* a rail: a rail may only be an endpoint.
/// They come in depth-first order, each node's devices taken in
/// ascending id order, so truncation at `limit` keeps a fixed prefix.
///
/// The search stays inside the *conducting region* of `to`: the nodes
/// that reach `to` through conducting channels without crossing a rail,
/// found by one breadth-first search from `to`. Every path lies inside
/// it, so the paths and their order are unchanged, but the cost is
/// O(region + devices from `from` into it) instead of everything `from`
/// reaches: one stage, not the fan-out of a supply rail. When `to` is a
/// rail the region is that of `from`, which the search cannot leave
/// anyway, so no region search runs.
pub fn channel_paths(
    net: &Network,
    conducting: &dyn Fn(TransistorId) -> bool,
    from: NodeId,
    to: NodeId,
    limit: usize,
) -> Vec<Vec<TransistorId>> {
    let to_rail = is_rail(net, to);
    // Nodes start closed and the region search opens them; with `to` a
    // rail, all start open.
    let mut closed = vec![!to_rail; net.node_count()];
    // The conducting devices from `from` into the region, in id order:
    // the subset of `from`'s channel devices the search can use.
    let mut entries = Vec::new();
    if !to_rail {
        closed[to.index()] = false;
        let mut queue = VecDeque::from([to]);
        while let Some(n) = queue.pop_front() {
            if is_rail(net, n) {
                continue;
            }
            for &tid in net.channel_neighbors(n).iter().filter(|&&t| conducting(t)) {
                let other = net.transistor(tid).other_terminal(n);
                if other == from {
                    entries.push(tid);
                }
                if closed[other.index()] {
                    closed[other.index()] = false;
                    queue.push_back(other);
                }
            }
        }
        entries.sort_unstable();
    }
    closed[from.index()] = true;
    if to_rail {
        entries.extend_from_slice(net.channel_neighbors(from));
    }
    let mut search = PathSearch {
        net,
        conducting,
        to,
        limit,
        closed,
        stack: Vec::new(),
        paths: Vec::new(),
    };
    search.dfs(from, &entries);
    search.paths
}

fn is_rail(net: &Network, node: NodeId) -> bool {
    node == net.power() || node == net.ground()
}

/// The depth-first half of [`channel_paths`]. `closed[n]` holds when `n`
/// is on the current path or outside the region.
struct PathSearch<'a> {
    net: &'a Network,
    conducting: &'a dyn Fn(TransistorId) -> bool,
    to: NodeId,
    limit: usize,
    closed: Vec<bool>,
    stack: Vec<TransistorId>,
    paths: Vec<Vec<TransistorId>>,
}

impl PathSearch<'_> {
    /// Extends the current path from `at` over `devices`, `at`'s channel
    /// devices in id order (or the subset of them that enters the region).
    fn dfs(&mut self, at: NodeId, devices: &[TransistorId]) {
        if self.paths.len() >= self.limit {
            return;
        }
        if at == self.to {
            self.paths.push(self.stack.clone());
            return;
        }
        if is_rail(self.net, at) && !self.stack.is_empty() {
            return;
        }
        for &tid in devices {
            let other = self.net.transistor(tid).other_terminal(at);
            if self.closed[other.index()] || !(self.conducting)(tid) {
                continue;
            }
            self.closed[other.index()] = true;
            self.stack.push(tid);
            self.dfs(other, self.net.channel_neighbors(other));
            self.stack.pop();
            self.closed[other.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::node::NodeKind;
    use crate::transistor::{Geometry, TransistorKind};

    /// Two independent inverters: two channel components of one node each.
    fn two_inverters() -> Network {
        let mut b = NetworkBuilder::new("two");
        let vdd = b.power();
        let gnd = b.ground();
        for i in 0..2 {
            let a = b.node(&format!("a{i}"), NodeKind::Input);
            let y = b.node(&format!("y{i}"), NodeKind::Output);
            b.add_transistor(TransistorKind::NEnhancement, a, y, gnd, Geometry::default());
            b.add_transistor(TransistorKind::PEnhancement, a, y, vdd, Geometry::default());
        }
        b.build().unwrap()
    }

    /// A 3-transistor pass chain: in -> x1 -> x2 -> out (one component).
    fn pass_chain() -> Network {
        let mut b = NetworkBuilder::new("chain");
        let vdd = b.power();
        b.ground();
        let mut prev = b.node("in", NodeKind::Input);
        for i in 0..3 {
            let next = b.node(&format!("x{i}"), NodeKind::Internal);
            b.add_transistor(
                TransistorKind::NEnhancement,
                vdd,
                prev,
                next,
                Geometry::default(),
            );
            prev = next;
        }
        b.build().unwrap()
    }

    #[test]
    fn components_split_at_rails() {
        let net = two_inverters();
        let cc = ChannelComponents::compute(&net);
        // a0, a1 have no channel edges => singleton components; y0, y1 are
        // isolated from each other because paths would go through rails.
        assert_eq!(cc.count(), 4);
        let y0 = net.node_by_name("y0").unwrap();
        let y1 = net.node_by_name("y1").unwrap();
        assert!(!cc.connected(y0, y1));
        assert!(cc.component(net.power()).is_none());
        assert!(cc.component(net.ground()).is_none());
    }

    #[test]
    fn chain_is_single_component() {
        let net = pass_chain();
        let cc = ChannelComponents::compute(&net);
        let inn = net.node_by_name("in").unwrap();
        let out = net.node_by_name("x2").unwrap();
        assert!(cc.connected(inn, out));
        let comp = cc.component(inn).unwrap();
        assert_eq!(cc.members(comp).len(), 4); // in, x0, x1, x2
    }

    #[test]
    fn bfs_visits_whole_chain() {
        let net = pass_chain();
        let inn = net.node_by_name("in").unwrap();
        let order = channel_bfs(&net, inn);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], (inn, None));
        // Every later entry records the transistor used to reach it.
        assert!(order[1..].iter().all(|(_, via)| via.is_some()));
    }

    #[test]
    fn paths_enumerate_and_respect_limit() {
        let net = pass_chain();
        let inn = net.node_by_name("in").unwrap();
        let out = net.node_by_name("x2").unwrap();
        let paths = channel_paths(&net, &|_| true, inn, out, 10);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 3);
        assert!(channel_paths(&net, &|_| true, inn, out, 0).is_empty());
    }

    #[test]
    fn parallel_branches_yield_multiple_paths() {
        // in ==(two parallel transistors)== out
        let mut b = NetworkBuilder::new("par");
        let vdd = b.power();
        b.ground();
        let inn = b.node("in", NodeKind::Input);
        let out = b.node("out", NodeKind::Output);
        b.add_transistor(
            TransistorKind::NEnhancement,
            vdd,
            inn,
            out,
            Geometry::default(),
        );
        b.add_transistor(
            TransistorKind::NEnhancement,
            vdd,
            inn,
            out,
            Geometry::default(),
        );
        let net = b.build().unwrap();
        let paths = channel_paths(&net, &|_| true, inn, out, 10);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn paths_do_not_route_through_rails() {
        // a -- t1 -- vdd -- t2 -- b : no a->b path exists because it would
        // pass through the rail.
        let mut b = NetworkBuilder::new("rail");
        let vdd = b.power();
        b.ground();
        let a = b.node("a", NodeKind::Input);
        let c = b.node("c", NodeKind::Output);
        let g = b.node("g", NodeKind::Input);
        b.add_transistor(TransistorKind::NEnhancement, g, a, vdd, Geometry::default());
        b.add_transistor(TransistorKind::NEnhancement, g, vdd, c, Geometry::default());
        let net = b.build().unwrap();
        assert!(channel_paths(&net, &|_| true, a, c, 10).is_empty());
        // But a path *ending* at the rail is found.
        assert_eq!(channel_paths(&net, &|_| true, a, vdd, 10).len(), 1);
    }
}
