//! Stages: the unit of switch-level delay calculation.
//!
//! A *stage* is one resistive path from a strong source (a supply rail)
//! through conducting transistor channels to a target node, together with
//! the capacitive side branches hanging off that path. When the stage's
//! trigger transistor turns on (or a holding path releases), the path
//! charges or discharges the target; the delay models in
//! [`crate::models`] turn the stage's RC tree into a delay estimate.

use crate::analyzer::Edge;
use crate::rctree::RcTree;
use crate::tech::Direction;
use mosnet::{NodeId, TransistorId};
use std::collections::HashMap;

/// One extracted stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The node this stage drives.
    pub target: NodeId,
    /// Whether the stage charges ([`Direction::PullUp`]) or discharges the
    /// target.
    pub direction: Direction,
    /// The stage's RC tree, rooted at the driving rail.
    pub tree: RcTree,
    /// Tree index of the target within [`Stage::tree`].
    pub target_index: usize,
    /// Transistors along the root→target path, in order from the rail.
    pub path: Vec<TransistorId>,
    /// Gate nodes of the path transistors, parallel to [`Stage::path`].
    pub path_gates: Vec<NodeId>,
}

impl Stage {
    /// Number of series transistors between the rail and the target.
    pub fn path_length(&self) -> usize {
        self.path.len()
    }

    /// Total capacitance the stage must move.
    pub fn total_capacitance(&self) -> mosnet::units::Farads {
        self.tree.total_capacitance()
    }
}

/// The stages of every switching target of one analysis, in one arena.
///
/// Each target in node order owns a run of stage slots. A slot names its
/// electrical stage (the tree, direction and target index the delay
/// models read) and the end of its run of [`StageSet::path`], which
/// starts where the previous slot's ends. Path gates are not kept: a
/// stage's gates are its transistors' gates. When built with
/// fingerprints, electrical stages are interned by
/// [`stage_fingerprint`](crate::memo::stage_fingerprint): stages that
/// fingerprint alike share the first one's tree, which evaluates bit for
/// bit like their own because the fingerprint covers all the models
/// read. That stage keeps its own target and labels, which no model
/// reads, and gives up its path to the arena.
#[derive(Debug, Default)]
pub(crate) struct StageSet {
    targets: Vec<TargetStages>,
    slots: Vec<StageSlot>,
    path: Vec<TransistorId>,
    electrical: Vec<Stage>,
    /// Parallel to `electrical`; empty when built without fingerprints.
    fingerprints: Vec<u128>,
}

/// One target's extraction: the node, its edge, its stages, and their
/// fingerprints when the set should intern them.
pub(crate) type ExtractedTarget = (NodeId, Edge, Vec<Stage>, Option<Vec<u128>>);

/// One target of a [`StageSet`]: the node, its edge, and its slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TargetStages {
    pub node: NodeId,
    pub edge: Edge,
    slots: (u32, u32),
}

impl TargetStages {
    /// How many stages drive this target.
    pub fn len(&self) -> usize {
        (self.slots.1 - self.slots.0) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct StageSlot {
    electrical: u32,
    path_end: u32,
}

/// An arena length as a stored `u32` index.
fn arena_index(len: usize) -> u32 {
    u32::try_from(len).expect("stage arena exceeds u32 indices")
}

/// One stage of a [`StageSet`], as the analyzer reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageView<'a> {
    /// What the delay models read: tree, direction and target index.
    pub electrical: &'a Stage,
    /// The electrical stage's fingerprint, when the set keeps them.
    pub fingerprint: Option<u128>,
    /// Transistors along the root→target path, from the rail.
    pub path: &'a [TransistorId],
}

impl StageSet {
    /// The stages of every `(node, edge, stages, fingerprints)` target,
    /// in the order given. Either every target comes with fingerprints
    /// (parallel to its stages), and the electrical stages are interned
    /// across the whole set, or none does, and every stage keeps its own.
    ///
    /// # Panics
    /// Panics when only some targets come with fingerprints.
    pub fn new(targets: impl IntoIterator<Item = ExtractedTarget>) -> StageSet {
        let mut set = StageSet::default();
        let mut interned: HashMap<u128, u32> = HashMap::new();
        for (node, edge, stages, fingerprints) in targets {
            let start = arena_index(set.slots.len());
            let mut fingerprints = fingerprints.map(Vec::into_iter);
            for mut stage in stages {
                // Taken, not drained, so a kept stage holds no empty
                // buffers.
                set.path.extend(std::mem::take(&mut stage.path));
                stage.path_gates = Vec::new();
                let next = arena_index(set.electrical.len());
                let electrical = match fingerprints.as_mut().and_then(Iterator::next) {
                    Some(fingerprint) => *interned.entry(fingerprint).or_insert_with(|| {
                        set.fingerprints.push(fingerprint);
                        set.electrical.push(stage);
                        next
                    }),
                    None => {
                        set.electrical.push(stage);
                        next
                    }
                };
                set.slots.push(StageSlot {
                    electrical,
                    path_end: arena_index(set.path.len()),
                });
            }
            set.targets.push(TargetStages {
                node,
                edge,
                slots: (start, arena_index(set.slots.len())),
            });
        }
        assert!(
            set.fingerprints.is_empty() || set.fingerprints.len() == set.electrical.len(),
            "every target of a stage set comes with fingerprints, or none does"
        );
        set.targets.shrink_to_fit();
        set.slots.shrink_to_fit();
        set.path.shrink_to_fit();
        set.electrical.shrink_to_fit();
        set.fingerprints.shrink_to_fit();
        set
    }

    /// The targets, in the order given.
    pub fn targets(&self) -> &[TargetStages] {
        &self.targets
    }

    /// The stages of `target`, in extraction order.
    pub fn stages<'a>(&'a self, target: &TargetStages) -> impl Iterator<Item = StageView<'a>> + 'a {
        let (first, end) = (target.slots.0 as usize, target.slots.1 as usize);
        let mut path_start = match first {
            0 => 0,
            _ => self.slots[first - 1].path_end as usize,
        };
        self.slots[first..end].iter().map(move |slot| {
            let path = &self.path[path_start..slot.path_end as usize];
            path_start = slot.path_end as usize;
            let e = slot.electrical as usize;
            StageView {
                electrical: &self.electrical[e],
                fingerprint: self.fingerprints.get(e).copied(),
                path,
            }
        })
    }

    /// Stages over every target.
    pub fn stage_count(&self) -> usize {
        self.slots.len()
    }

    /// Distinct electrical stages: one per stage unless interned.
    #[cfg(test)]
    pub fn electrical_count(&self) -> usize {
        self.electrical.len()
    }

    /// Heap and inline bytes this set holds, for the memo's budget.
    pub fn byte_len(&self) -> usize {
        use std::mem::size_of;
        let trees: usize = (self.electrical.iter())
            .map(|stage| stage.tree.byte_len())
            .sum();
        size_of::<StageSet>()
            + self.targets.capacity() * size_of::<TargetStages>()
            + self.slots.capacity() * size_of::<StageSlot>()
            + self.path.capacity() * size_of::<TransistorId>()
            + self.electrical.capacity() * size_of::<Stage>()
            + self.fingerprints.capacity() * size_of::<u128>()
            + trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::stages_to;
    use crate::memo::stage_fingerprint;
    use crate::models::{estimate_with_fallback, ModelKind, TriggerContext};
    use crate::tech::Technology;
    use mosnet::generators::{decoder, Style};
    use mosnet::units::{Farads, Seconds};

    #[test]
    fn interned_stages_evaluate_and_read_like_their_originals() {
        let net = decoder(Style::Cmos, 4, Farads::from_femto(50.0)).unwrap();
        let tech = Technology::nominal();
        let all_on = |_| true;
        let mut originals = Vec::new();
        for (node, _) in net.nodes().filter(|(_, n)| !n.kind().is_rail()) {
            for (edge, direction) in [
                (Edge::Rising, Direction::PullUp),
                (Edge::Falling, Direction::PullDown),
            ] {
                originals.push((node, edge, stages_to(&net, &tech, &all_on, node, direction)));
            }
        }
        let plain = StageSet::new(
            (originals.iter()).map(|(node, edge, stages)| (*node, *edge, stages.clone(), None)),
        );
        let interned = StageSet::new(originals.iter().map(|(node, edge, stages)| {
            let fingerprints = stages.iter().map(stage_fingerprint).collect();
            (*node, *edge, stages.clone(), Some(fingerprints))
        }));
        assert_eq!(plain.electrical_count(), plain.stage_count());
        assert!(interned.electrical_count() < interned.stage_count() / 4);
        let ctx = TriggerContext {
            input_transition: Seconds::from_nanos(0.5),
            trigger_kind: mosnet::TransistorKind::NEnhancement,
        };
        let eval = |stage: &Stage| {
            let (d, _) = estimate_with_fallback(ModelKind::Slope, &tech, stage, ctx).unwrap();
            (
                d.delay.value().to_bits(),
                d.output_transition.value().to_bits(),
            )
        };
        for (set, keeps_fingerprints) in [(&plain, false), (&interned, true)] {
            assert_eq!(set.targets().len(), originals.len());
            for (target, (node, _, stages)) in set.targets().iter().zip(&originals) {
                assert_eq!(target.node, *node);
                let views: Vec<StageView<'_>> = set.stages(target).collect();
                assert_eq!(views.len(), stages.len());
                for (view, stage) in views.iter().zip(stages) {
                    assert_eq!(view.path, &stage.path[..]);
                    assert_eq!(eval(view.electrical), eval(stage));
                    assert_eq!(view.electrical.direction, stage.direction);
                    let fingerprint = keeps_fingerprints.then(|| stage_fingerprint(stage));
                    assert_eq!(view.fingerprint, fingerprint);
                }
            }
        }
    }
}
