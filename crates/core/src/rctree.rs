//! RC trees and their moment-based delay quantities: Elmore delay and
//! Rubinstein–Penfield-style bounds.
//!
//! A stage is modeled as a tree of resistances rooted at the driving rail,
//! with a capacitance at every tree node. The three classical time
//! constants are
//!
//! * `T_P  = Σ_k R_ke·C_k` — the Elmore delay (first moment) at output `e`,
//! * `T_DI = Σ_k R_kk·C_k` — resistance-to-each-cap sum,
//! * `T_RI = Σ_k R_ke²·C_k / R_ee`,
//!
//! where `R_ke` is the resistance shared between the root→k and root→e
//! paths. All three collapse to `R·C` for a single lumped segment, for
//! which the bounds below are exact.

use mosnet::units::{Farads, Ohms, Seconds};
use mosnet::NodeId;

/// Sentinel in the compact parent and label fields: "no parent" (the
/// root) or "no label". Kept internal — the public API speaks `Option`.
const NONE: u32 = u32::MAX;

/// One tree node: its parent and label interned as `u32` indices beside
/// the entering edge's resistance and the node's capacitance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TreeNode {
    /// Parent tree index; [`NONE`] for the root.
    parent: u32,
    /// Network-node index; [`NONE`] when unlabeled.
    label: u32,
    resistance: Ohms,
    capacitance: Farads,
}

/// An RC tree rooted at the stage's driving source.
///
/// Tree index `0` is the root (the rail or driving node); it carries no
/// series resistance and, conventionally, no capacitance (rail capacitance
/// is irrelevant to the transition).
///
/// Storage is compact: parents and node labels are interned as `u32`
/// indices (24 bytes per tree node), all in one allocation, so the
/// analyzer can hold stage trees for 10k+ transistor circuits without the
/// `Option<usize>` overhead the naive layout pays.
#[derive(Debug, Clone, PartialEq)]
pub struct RcTree {
    nodes: Vec<TreeNode>,
}

impl RcTree {
    /// Creates a tree containing only the root.
    pub fn new() -> RcTree {
        RcTree::with_capacity(1)
    }

    /// Creates a tree containing only the root, with room reserved for
    /// `nodes` tree nodes.
    pub fn with_capacity(nodes: usize) -> RcTree {
        let mut tree = RcTree {
            nodes: Vec::with_capacity(nodes.max(1)),
        };
        tree.nodes.push(TreeNode {
            parent: NONE,
            label: NONE,
            resistance: Ohms::ZERO,
            capacitance: Farads::ZERO,
        });
        tree
    }

    /// Drops the slack capacity — call once a tree is fully built and
    /// will be kept around.
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    /// Bytes the tree holds on the heap.
    pub fn byte_len(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<TreeNode>()
    }

    /// The root index (always `0`).
    #[inline]
    pub fn root(&self) -> usize {
        0
    }

    /// Number of tree nodes including the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when only the root exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Adds a child under `parent` reached through `resistance`, loaded
    /// with `capacitance`, optionally labeled with the network node it
    /// represents. Returns the new tree index.
    ///
    /// # Panics
    /// Panics if `parent` is out of range or `resistance` is negative.
    pub fn add_child(
        &mut self,
        parent: usize,
        resistance: Ohms,
        capacitance: Farads,
        label: Option<NodeId>,
    ) -> usize {
        assert!(parent < self.nodes.len(), "parent index out of range");
        assert!(resistance.value() >= 0.0, "resistance must be non-negative");
        let idx = self.nodes.len();
        assert!(idx < NONE as usize, "RC tree exceeds u32 node indices");
        self.nodes.push(TreeNode {
            parent: parent as u32,
            label: label.map_or(NONE, |n| n.index() as u32),
            resistance,
            capacitance,
        });
        idx
    }

    /// Adds extra capacitance to an existing tree node.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn add_capacitance(&mut self, index: usize, c: Farads) {
        self.nodes[index].capacitance += c;
    }

    /// The network node a tree node represents, if labeled.
    pub fn label(&self, index: usize) -> Option<NodeId> {
        match self.nodes[index].label {
            NONE => None,
            i => Some(NodeId::from_index(i as usize)),
        }
    }

    /// The parent of `index` (`None` for the root).
    pub fn parent(&self, index: usize) -> Option<usize> {
        match self.nodes[index].parent {
            NONE => None,
            p => Some(p as usize),
        }
    }

    /// Series resistance of the edge entering `index` from its parent
    /// (zero for the root).
    pub fn edge_resistance(&self, index: usize) -> Ohms {
        self.nodes[index].resistance
    }

    /// The capacitance loaded at `index`.
    pub fn capacitance(&self, index: usize) -> Farads {
        self.nodes[index].capacitance
    }

    /// Finds the tree index labeled with `node`.
    pub fn find_label(&self, node: NodeId) -> Option<usize> {
        let want = node.index() as u32;
        self.nodes.iter().position(|n| n.label == want)
    }

    /// Total capacitance of the whole tree.
    pub fn total_capacitance(&self) -> Farads {
        self.nodes.iter().map(|n| n.capacitance).sum()
    }

    /// Series resistance along the root→`index` path.
    pub fn path_resistance(&self, index: usize) -> Ohms {
        let mut r = Ohms::ZERO;
        let mut at = index;
        while self.nodes[at].parent != NONE {
            r += self.nodes[at].resistance;
            at = self.nodes[at].parent as usize;
        }
        r
    }

    /// Resistance shared between the root→`a` and root→`b` paths.
    pub fn shared_resistance(&self, a: usize, b: usize) -> Ohms {
        // Collect a's ancestor chain, then walk b's and sum edges common
        // to both (edges above the lowest common ancestor).
        let mut a_chain = Vec::new();
        let mut at = a;
        a_chain.push(at);
        while self.nodes[at].parent != NONE {
            at = self.nodes[at].parent as usize;
            a_chain.push(at);
        }
        let mut bt = b;
        loop {
            if a_chain.contains(&bt) {
                // bt is the LCA; shared resistance is root→LCA.
                return self.path_resistance(bt);
            }
            match self.nodes[bt].parent {
                NONE => return Ohms::ZERO,
                p => bt = p as usize,
            }
        }
    }

    /// Total capacitance of the subtree rooted at `index` (the node
    /// itself plus every descendant).
    pub fn subtree_capacitance(&self, index: usize) -> Farads {
        let mut total = self.nodes[index].capacitance;
        // Children always have larger indices than their parents.
        for k in (index + 1)..self.len() {
            let mut at = k;
            while self.nodes[at].parent != NONE {
                let p = self.nodes[at].parent as usize;
                if p == index {
                    total += self.nodes[k].capacitance;
                    break;
                }
                at = p;
            }
        }
        total
    }

    /// Scales the series resistance of the edge entering `index` (from
    /// its parent) by `factor`.
    ///
    /// # Panics
    /// Panics if `index` is out of range or `factor` is negative.
    pub fn scale_resistance(&mut self, index: usize, factor: f64) {
        assert!(index < self.len(), "index out of range");
        assert!(factor >= 0.0, "factor must be non-negative");
        self.nodes[index].resistance = self.nodes[index].resistance * factor;
    }

    /// The Elmore delay `T_P` at `target`.
    pub fn elmore(&self, target: usize) -> Seconds {
        let mut t = Seconds::ZERO;
        for k in 0..self.len() {
            t += self.shared_resistance(k, target) * self.nodes[k].capacitance;
        }
        t
    }

    /// `T_DI = Σ_k R_kk · C_k`.
    pub fn t_di(&self) -> Seconds {
        let mut t = Seconds::ZERO;
        for k in 0..self.len() {
            t += self.path_resistance(k) * self.nodes[k].capacitance;
        }
        t
    }

    /// `T_RI = Σ_k R_ke² · C_k / R_ee` at `target`. Zero when the target
    /// sits at the root.
    pub fn t_ri(&self, target: usize) -> Seconds {
        let r_ee = self.path_resistance(target).value();
        if r_ee <= 0.0 {
            return Seconds::ZERO;
        }
        let mut t = 0.0;
        for k in 0..self.len() {
            let r_ke = self.shared_resistance(k, target).value();
            t += r_ke * r_ke * self.nodes[k].capacitance.value() / r_ee;
        }
        Seconds(t)
    }

    /// Lumped-model quantities: the series resistance root→target and the
    /// total tree capacitance, whose product is the lumped RC delay.
    pub fn lumped(&self, target: usize) -> (Ohms, Farads) {
        (self.path_resistance(target), self.total_capacitance())
    }

    /// Rubinstein–Penfield-style bounds on the time for `target` to reach
    /// fraction `v` of its final value under a step at the root. Returns
    /// `(lower, upper)`.
    ///
    /// For a single lumped RC both bounds equal `RC·ln(1/(1−v))` — the
    /// exact answer.
    ///
    /// # Panics
    /// Panics unless `0 < v < 1`.
    pub fn delay_bounds(&self, target: usize, v: f64) -> (Seconds, Seconds) {
        assert!(v > 0.0 && v < 1.0, "fraction must be in (0, 1), got {v}");
        let tp = self.elmore(target).value();
        let tdi = self.t_di().value();
        let tri = self.t_ri(target).value();
        let q = 1.0 - v;

        // Upper candidates: the simple moment bound and the exponential
        // tail bound; both hold for any RC tree.
        let upper_simple = tp / q;
        let upper_log = tdi - tri + tp * (1.0 / q).ln();
        let upper = upper_simple.min(upper_log);

        // Lower candidates (Rubinstein–Penfield table: the log branch
        // applies when 1−v ≤ T_RI/T_DI and must use T_DI, not T_P, in
        // the logarithm — T_P there would overshoot the true bound).
        let lower_linear = (tp - tdi * q).max(0.0);
        let lower_log = if tri > 0.0 && tri >= tdi * q {
            tp - tri + tri * (tri / (tdi * q)).ln()
        } else {
            0.0
        };
        let lower = lower_linear.max(lower_log).min(upper);

        (Seconds(lower), Seconds(upper))
    }
}

impl Default for RcTree {
    fn default() -> RcTree {
        RcTree::new()
    }
}

/// Builds the RC tree of a uniform n-segment ladder (handy for tests and
/// the pass-chain experiments): `n` segments of `r` each, `c` at every
/// intermediate node and `c_end` at the far end. Returns `(tree, target)`.
pub fn uniform_ladder(n: usize, r: Ohms, c: Farads, c_end: Farads) -> (RcTree, usize) {
    let mut tree = RcTree::new();
    let mut at = tree.root();
    for i in 0..n {
        let cap = if i + 1 == n { c_end } else { c };
        at = tree.add_child(at, r, cap, None);
    }
    (tree, at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rc_moments_coincide() {
        let (tree, e) = uniform_ladder(1, Ohms(1000.0), Farads(1e-12), Farads(1e-12));
        let tp = tree.elmore(e);
        assert!((tp.value() - 1e-9).abs() < 1e-21);
        assert_eq!(tree.t_di(), tp);
        assert!((tree.t_ri(e).value() - tp.value()).abs() < 1e-21);
    }

    #[test]
    fn single_rc_bounds_are_exact_ln2() {
        let (tree, e) = uniform_ladder(1, Ohms(1000.0), Farads(1e-12), Farads(1e-12));
        let (lo, hi) = tree.delay_bounds(e, 0.5);
        let exact = 1e-9 * std::f64::consts::LN_2;
        assert!((lo.value() - exact).abs() < 1e-15, "lower {lo:?}");
        assert!((hi.value() - exact).abs() < 1e-15, "upper {hi:?}");
    }

    #[test]
    fn ladder_elmore_matches_hand_computation() {
        // Two segments R-C-R-C: T_P(end) = R·(C1+C2) + R·C2 = 3RC.
        let (tree, e) = uniform_ladder(2, Ohms(1.0), Farads(1.0), Farads(1.0));
        assert!((tree.elmore(e).value() - 3.0).abs() < 1e-12);
        // T_DI = R·C1 + 2R·C2 = 3RC too for a chain.
        assert!((tree.t_di().value() - 3.0).abs() < 1e-12);
        // T_RI = (1²·1 + 2²·1)/2 = 2.5.
        assert!((tree.t_ri(e).value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn side_branch_loads_elmore_through_shared_resistance_only() {
        // root -R1- a -R2- e, with branch a -R3- b (C_b).
        let mut tree = RcTree::new();
        let a = tree.add_child(tree.root(), Ohms(1.0), Farads(0.0), None);
        let e = tree.add_child(a, Ohms(1.0), Farads(1.0), None);
        let _b = tree.add_child(a, Ohms(5.0), Farads(2.0), None);
        // T_P(e) = shared(a,e)*C_a + shared(e,e)*C_e + shared(b,e)*C_b
        //        = 1*0 + 2*1 + 1*2 = 4.
        assert!((tree.elmore(e).value() - 4.0).abs() < 1e-12);
        // b's own resistance never appears in e's Elmore delay.
    }

    #[test]
    fn shared_resistance_cases() {
        let mut tree = RcTree::new();
        let a = tree.add_child(tree.root(), Ohms(1.0), Farads(0.0), None);
        let b = tree.add_child(a, Ohms(2.0), Farads(0.0), None);
        let c = tree.add_child(a, Ohms(4.0), Farads(0.0), None);
        assert_eq!(tree.shared_resistance(b, c), Ohms(1.0)); // LCA = a
        assert_eq!(tree.shared_resistance(b, b), Ohms(3.0));
        assert_eq!(tree.shared_resistance(tree.root(), b), Ohms::ZERO);
        assert_eq!(tree.shared_resistance(b, a), Ohms(1.0));
    }

    #[test]
    fn bounds_bracket_elmore_times_ln2_for_chains() {
        // For RC chains the true 50% delay is near 0.69·T_P; the bounds
        // must bracket a plausible region around it.
        for n in 1..=8 {
            let (tree, e) = uniform_ladder(n, Ohms(1000.0), Farads(1e-13), Farads(1e-13));
            let (lo, hi) = tree.delay_bounds(e, 0.5);
            assert!(lo <= hi, "n={n}");
            let tp = tree.elmore(e).value();
            assert!(lo.value() <= tp, "lower must not exceed T_P (n={n})");
            assert!(hi.value() >= 0.5 * tp, "upper suspiciously small (n={n})");
        }
    }

    #[test]
    fn lumped_is_pessimistic_versus_elmore_on_chains() {
        // The paper's observation: lumped R_total × C_total roughly doubles
        // the distributed delay for long chains.
        let (tree, e) = uniform_ladder(8, Ohms(1.0), Farads(1.0), Farads(1.0));
        let (r, c) = tree.lumped(e);
        let lumped = r.value() * c.value();
        let elmore = tree.elmore(e).value();
        assert!(lumped > 1.7 * elmore, "lumped {lumped} vs elmore {elmore}");
    }

    #[test]
    fn labels_roundtrip() {
        let mut tree = RcTree::new();
        let node = NodeId::from_index(7);
        let a = tree.add_child(tree.root(), Ohms(1.0), Farads(1.0), Some(node));
        assert_eq!(tree.label(a), Some(node));
        assert_eq!(tree.find_label(node), Some(a));
        assert_eq!(tree.find_label(NodeId::from_index(8)), None);
    }

    #[test]
    fn subtree_capacitance_counts_descendants() {
        let mut tree = RcTree::new();
        let a = tree.add_child(tree.root(), Ohms(1.0), Farads(1.0), None);
        let b = tree.add_child(a, Ohms(1.0), Farads(2.0), None);
        let _c = tree.add_child(a, Ohms(1.0), Farads(4.0), None);
        let d = tree.add_child(b, Ohms(1.0), Farads(8.0), None);
        assert_eq!(tree.subtree_capacitance(a), Farads(15.0));
        assert_eq!(tree.subtree_capacitance(b), Farads(10.0));
        assert_eq!(tree.subtree_capacitance(d), Farads(8.0));
        assert_eq!(tree.subtree_capacitance(tree.root()), Farads(15.0));
    }

    #[test]
    fn scale_resistance_affects_elmore() {
        let (mut tree, e) = uniform_ladder(2, Ohms(1.0), Farads(1.0), Farads(1.0));
        // Elmore = 3 RC; halving the first edge removes 0.5·(C1+C2) = 1.
        tree.scale_resistance(1, 0.5);
        assert!((tree.elmore(e).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn add_capacitance_accumulates() {
        let mut tree = RcTree::new();
        let a = tree.add_child(tree.root(), Ohms(1.0), Farads(1.0), None);
        tree.add_capacitance(a, Farads(2.0));
        assert_eq!(tree.total_capacitance(), Farads(3.0));
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1)")]
    fn bounds_reject_bad_fraction() {
        let (tree, e) = uniform_ladder(1, Ohms(1.0), Farads(1.0), Farads(1.0));
        let _ = tree.delay_bounds(e, 1.5);
    }
}
