//! Incremental re-analysis: dependency-tracked invalidation over netlist
//! edits.
//!
//! An [`IncrementalAnalyzer`] holds a network, a technology, and named
//! scenarios with their analyzed [`TimingResult`]s. An edit script
//! ([`mosnet::diff::Edit`]) or a replacement network is mapped onto the
//! switching targets whose stages can change, and **only those targets**
//! are re-extracted and re-evaluated; every other arrival is replayed
//! bit-identically from the previous result.
//!
//! Everything a scenario keeps is indexed by [`NodeId`]. Edit scripts keep
//! every node id and only append nodes, so the edit path compares states
//! index by index and [`diff::apply_edits_with_diff`] diffs only what the
//! script touched. Only [`IncrementalAnalyzer::replace_network`] (a
//! re-parsed file may renumber everything) matches nodes by name, once,
//! and then runs the same id-keyed core.
//!
//! ## The dependency index
//!
//! A target's stages and their evaluation depend on the nodes reachable
//! from it through *potentially conducting* transistors (conducting in
//! the before **or** after steady state), which carry the stage's
//! resistances and capacitances, and on the gates of every transistor
//! whose channel touches one of those nodes: gate arrivals trigger
//! stages, gate logic selects conduction, and (via
//! [`Technology::node_capacitance`](crate::tech::Technology::node_capacitance))
//! a resize changes the load on the node that gates the device. That
//! union is the **support** of the target's component of the
//! potentially-conducting channel graph (rails are barriers).
//!
//! An edit dirties every node the diff touches and every node whose
//! steady-state pair changed. A node `d` is in the support of component
//! `c` exactly when it is a member of `c` or gates a device with a channel
//! terminal in `c`, so marking `comp[d]` and the components of the
//! channel terminals of `gated_by(d)` marks every component whose support
//! meets the dirt. A worklist marks from the dirty nodes and the fresh
//! targets (no previous arrival, changed edge, vanished cause), then from
//! the targets of every newly marked component, because a replayed
//! arrival they read may change. The targets of the marked components
//! re-analyze; the rest are seeded with their previous arrivals and the
//! Jacobi fixpoint runs over the subset, so results are bit-identical to
//! a fresh analysis — what [`crate::selfcheck`]'s incremental mode checks.
//!
//! **Steady-state reuse.** [`logic::steady_states`](crate::logic::steady_states)
//! reads topology and node kinds in node order, never geometry or
//! capacitance. When ids are stable and the diff adds or removes no node
//! or device and changes no kind (every `cap` and `resize` script), each
//! scenario keeps its steady pair: a new solve would read the same inputs
//! and return the same states. With the pair it keeps everything derived
//! from the pair alone — the switching set, the targets with their edges,
//! the component labels and each component's targets — so such an edit
//! costs the dirty nodes' worklist and the re-analyzed targets, not a
//! pass over every node. Any other edit re-solves through the options'
//! cache, whose steady-state memo is keyed by the new network's topology
//! fingerprint ([`crate::memo`]), and rebuilds that index.
//!
//! **The delta.** Only a re-analyzed target, a target that left the
//! switching set, or the input can change its arrival; every other
//! arrival was replayed bit for bit. The delta compares those rows only
//! (none leave when the index is kept).
//!
//! Budget caps in [`AnalyzerOptions`] apply to each re-analysis pass; a
//! tripped budget aborts the edit and leaves the session untouched.

use crate::analyzer::{
    analyze_subset, switching_targets, traced_steady_states, AnalyzerOptions, Arrival, Edge,
    IncrementalStats, Scenario, SubsetSpec, Switching, TimingResult,
};
use crate::error::TimingError;
use crate::logic::LogicState;
use crate::models::ModelKind;
use crate::obs::{Phase, TraceSink};
use crate::tech::Technology;
use mosnet::diff::{self, Edit, NetworkDiff};
use mosnet::{Network, NodeId, NodeKind, TransistorId};
use std::fmt;
use std::sync::Arc;

/// One arrival that changed across an edit, keyed by node name.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalChange {
    /// Node name (stable across renumbering).
    pub node: String,
    /// The arrival before the edit (`None`: the node did not switch).
    pub before: Option<Arrival>,
    /// The arrival after the edit (`None`: it no longer switches).
    pub after: Option<Arrival>,
}

/// Per-scenario outcome of one edit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDelta {
    /// The scenario's label.
    pub label: String,
    /// Arrivals that differ from the pre-edit result, in name order.
    /// Compared bit-exactly (times, transitions, edge, model, cause).
    pub changed: Vec<ArrivalChange>,
    /// Invalidation/reuse accounting for this re-analysis pass.
    pub stats: IncrementalStats,
}

/// What one edit did to every scenario of the session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeltaReport {
    /// Number of structural changes in the netlist diff.
    pub netlist_changes: usize,
    /// One delta per scenario, in session order.
    pub scenarios: Vec<ScenarioDelta>,
}

impl DeltaReport {
    /// Total arrivals changed across all scenarios.
    pub fn total_changed(&self) -> usize {
        self.scenarios.iter().map(|s| s.changed.len()).sum()
    }
}

impl fmt::Display for DeltaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "edit: {} netlist change(s)", self.netlist_changes)?;
        for s in &self.scenarios {
            let st = &s.stats;
            writeln!(
                f,
                "  {}: re-evaluated {} target(s) / {} stage(s), replayed {} / {}, \
                 {} arrival(s) changed, {} round(s)",
                s.label,
                st.invalidated_targets,
                st.invalidated_stages,
                st.reused_targets,
                st.reused_stages,
                s.changed.len(),
                st.rounds,
            )?;
        }
        Ok(())
    }
}

/// Component label of a rail: rails are barriers, in no component.
const RAIL: u32 = u32::MAX;

/// What a scenario derives from its steady pair alone. A scenario keeps
/// it exactly when it keeps the pair, and then shares it with the
/// previous state.
#[derive(Debug, PartialEq)]
struct SwitchingIndex {
    /// The `(before, after)` steady states.
    steady: (LogicState, LogicState),
    /// The switching set.
    switching: Switching,
    /// The switching targets with their edges, in node order: exactly
    /// the nodes the analyzer extracts stages for.
    targets: Vec<(NodeId, Edge)>,
    /// Component of every node ([`RAIL`] for the rails).
    comp: Vec<u32>,
    /// Each component's targets.
    by_comp: Vec<Vec<NodeId>>,
}

impl SwitchingIndex {
    fn new(
        net: &Network,
        steady: (LogicState, LogicState),
        trace: Option<&TraceSink>,
    ) -> SwitchingIndex {
        let switching = Switching::new(net, &steady, trace);
        let targets: Vec<(NodeId, Edge)> = switching_targets(net, &switching.edges).collect();
        let (comp, n_comp) = components(net, &steady);
        let mut by_comp = vec![Vec::new(); n_comp];
        for &(id, _) in &targets {
            by_comp[comp[id.index()] as usize].push(id);
        }
        SwitchingIndex {
            steady,
            switching,
            targets,
            comp,
            by_comp,
        }
    }

    /// `id`'s position in `targets`.
    fn position(&self, id: NodeId) -> Option<usize> {
        self.targets.binary_search_by_key(&id, |&(n, _)| n).ok()
    }
}

/// Per-scenario persistent state, indexed by node id of the current
/// network.
#[derive(Debug, Clone)]
struct ScenarioState {
    label: String,
    scenario: Scenario,
    result: TimingResult,
    index: Arc<SwitchingIndex>,
    /// Extracted stage count of every target, parallel to
    /// `index.targets`.
    stage_counts: Vec<usize>,
}

/// How the next network's node ids relate to the current network's.
enum Ids {
    /// Every current node keeps its id; ids past the current count are
    /// new nodes. Always true of edit scripts.
    Stable { count: usize },
    /// Matched by name: `old[next id]` and `new[current id]`.
    ByName {
        old: Vec<Option<NodeId>>,
        new: Vec<Option<NodeId>>,
    },
}

impl Ids {
    /// The name match of `next` against `cur`, or [`Ids::Stable`] when
    /// every node kept its id.
    fn by_name(cur: &Network, next: &Network) -> Ids {
        let mut pairs = cur.nodes().zip(next.nodes());
        if cur.node_count() == next.node_count()
            && pairs.all(|((_, a), (_, b))| a.name() == b.name())
        {
            return Ids::Stable {
                count: cur.node_count(),
            };
        }
        let lookup = |from: &Network, to: &Network| -> Vec<Option<NodeId>> {
            from.nodes()
                .map(|(_, n)| to.node_by_name(n.name()))
                .collect()
        };
        Ids::ByName {
            old: lookup(next, cur),
            new: lookup(cur, next),
        }
    }

    /// The current id of the next network's node `id`.
    fn to_old(&self, id: NodeId) -> Option<NodeId> {
        match self {
            Ids::Stable { count } => (id.index() < *count).then_some(id),
            Ids::ByName { old, .. } => old[id.index()],
        }
    }

    /// The next network's id of the current node `id`.
    fn to_new(&self, id: NodeId) -> Option<NodeId> {
        match self {
            Ids::Stable { .. } => Some(id),
            Ids::ByName { new, .. } => new[id.index()],
        }
    }
}

/// A persistent analysis session that re-analyzes incrementally across
/// netlist edits. See the [module docs](self) for the invalidation model.
#[derive(Debug)]
pub struct IncrementalAnalyzer {
    net: Network,
    tech: Technology,
    model: ModelKind,
    options: AnalyzerOptions,
    scenarios: Vec<ScenarioState>,
}

impl IncrementalAnalyzer {
    /// Builds a session by fully analyzing every `(label, scenario)` pair
    /// against `net`. Scenario node ids refer to `net`.
    ///
    /// # Errors
    /// Any error of [`crate::analyze_with_options`] for any scenario.
    pub fn new(
        net: Network,
        tech: Technology,
        model: ModelKind,
        scenarios: Vec<(String, Scenario)>,
        options: AnalyzerOptions,
    ) -> Result<IncrementalAnalyzer, TimingError> {
        let mut states = Vec::with_capacity(scenarios.len());
        let trace = options.trace.as_deref();
        for (label, scenario) in scenarios {
            let steady = traced_steady_states(&net, &scenario, options.cache.as_deref(), trace);
            let index = SwitchingIndex::new(&net, steady, trace);
            let outcome = analyze_subset(
                &net,
                &tech,
                model,
                &scenario,
                options.clone(),
                None,
                &index.steady,
                Some(&index.switching),
            )?;
            states.push(ScenarioState {
                label,
                scenario,
                result: outcome.result,
                stage_counts: outcome.target_stages.iter().map(|&(_, n)| n).collect(),
                index: Arc::new(index),
            });
        }
        Ok(IncrementalAnalyzer {
            net,
            tech,
            model,
            options,
            scenarios: states,
        })
    }

    /// The current network (after all applied edits).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Replaces the per-analysis [`AnalysisBudget`](crate::budget::AnalysisBudget) and
    /// [`CancelToken`](crate::budget::CancelToken) used by subsequent
    /// edits.
    ///
    /// This is the server's per-request admission-control hook: each
    /// request brings its own budget and a watchdog-armed token, and a
    /// budget- or deadline-aborted edit leaves the session untouched.
    /// Only these two knobs are exposed — result-affecting options
    /// (model, mode, cap weight) stay fixed for the session's lifetime
    /// so its journal fingerprint remains valid. Budgets and tokens can
    /// only *abort* an edit, never change a successful result, so a
    /// journaled replay without them still reproduces identical bits.
    pub fn set_request_controls(
        &mut self,
        budget: crate::budget::AnalysisBudget,
        cancel: Option<crate::budget::CancelToken>,
    ) {
        self.options.budget = budget;
        self.options.cancel = cancel;
    }

    /// The scenario labels, in session order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.scenarios.iter().map(|s| s.label.as_str())
    }

    /// The current [`TimingResult`] for the labelled scenario. Node ids
    /// inside refer to [`Self::network`].
    pub fn result(&self, label: &str) -> Option<&TimingResult> {
        self.state(label).map(|s| &s.result)
    }

    /// The labelled scenario resolved against the current network —
    /// exactly what a fresh [`crate::analyze_with_options`] run needs to
    /// cross-check an incremental result.
    ///
    /// # Errors
    /// [`TimingError::UnknownNode`] if the label is unknown.
    pub fn scenario(&self, label: &str) -> Result<Scenario, TimingError> {
        self.state(label)
            .map(|s| s.scenario.clone())
            .ok_or_else(|| TimingError::UnknownNode {
                name: label.to_string(),
            })
    }

    fn state(&self, label: &str) -> Option<&ScenarioState> {
        self.scenarios.iter().find(|s| s.label == label)
    }

    /// Applies one structural edit and incrementally re-analyzes every
    /// scenario.
    ///
    /// # Errors
    /// [`TimingError::BadParameter`] when the edit does not fit the
    /// current network; any analysis error otherwise. On error the
    /// session state is unchanged.
    pub fn apply_edit(&mut self, edit: &Edit) -> Result<DeltaReport, TimingError> {
        self.apply_edits(std::slice::from_ref(edit))
    }

    /// Applies a sequence of edits as one step (one diff, one
    /// re-analysis).
    ///
    /// # Errors
    /// See [`Self::apply_edit`].
    pub fn apply_edits(&mut self, edits: &[Edit]) -> Result<DeltaReport, TimingError> {
        self.reanalyze(|net| {
            let (next, d) =
                diff::apply_edits_with_diff(net, edits).map_err(|e| TimingError::BadParameter {
                    message: e.to_string(),
                })?;
            let count = net.node_count();
            // A script keeps the order of every device it does not
            // touch, so no untouched node's devices move.
            Ok((next, d, Ids::Stable { count }, Vec::new()))
        })
    }

    /// Replaces the whole network (e.g. a re-parsed file in watch mode),
    /// re-analyzing only what the structural diff invalidates, plus every
    /// node whose devices the new netlist lists in another order: such a
    /// node sums its loads in the new order. An empty diff with no
    /// reordered node re-analyzes nothing and keeps the current network.
    ///
    /// # Errors
    /// See [`Self::apply_edit`].
    pub fn replace_network(&mut self, next: Network) -> Result<DeltaReport, TimingError> {
        self.reanalyze(|net| {
            let d = diff::diff(net, &next);
            let ids = Ids::by_name(net, &next);
            let reordered = reordered_nodes(net, &next, &ids);
            Ok((next, d, ids, reordered))
        })
    }

    /// The id-keyed core of both edit paths: builds the next network, its
    /// diff and its reordered nodes inside the `apply_edit` span,
    /// re-analyzes every scenario against it, and commits only when all
    /// of them succeed.
    fn reanalyze(
        &mut self,
        build: impl FnOnce(&Network) -> Result<(Network, NetworkDiff, Ids, Vec<NodeId>), TimingError>,
    ) -> Result<DeltaReport, TimingError> {
        let trace = self.options.trace.clone();
        let mut span = trace
            .as_deref()
            .map(|t| t.span(Phase::Incremental, "apply_edit"));
        let (next, d, ids, reordered) = build(&self.net)?;
        if let Some(span) = span.as_mut() {
            span.field("changes", d.change_count());
        }
        if d.is_empty() && reordered.is_empty() {
            let scenarios = self.scenarios.iter().map(|st| ScenarioDelta {
                label: st.label.clone(),
                changed: Vec::new(),
                stats: IncrementalStats {
                    reused_targets: st.index.targets.len(),
                    reused_stages: st.stage_counts.iter().sum(),
                    ..IncrementalStats::default()
                },
            });
            let report = DeltaReport {
                netlist_changes: 0,
                scenarios: scenarios.collect(),
            };
            self.record_counters(&report, 0, 0);
            return Ok(report);
        }

        // Scenario-independent dirt: the nodes the diff touches and the
        // reordered nodes. Rails are excluded (their logic is fixed and
        // stage roots carry no capacitance); a node changing kind to or
        // from a rail is drastic enough to invalidate everything instead.
        let touched = d.touched_nodes();
        let pass = Pass {
            session: self,
            next: &next,
            ids: &ids,
            dirty: (touched.iter())
                .filter_map(|name| next.node_by_name(name))
                .chain(reordered.iter().copied())
                .filter(|&id| !next.node(id).kind().is_rail())
                .collect(),
            invalidate_all: d
                .kind_changed
                .iter()
                .any(|k| k.from.is_rail() != k.to.is_rail()),
            keep_steady: matches!(ids, Ids::Stable { .. })
                && reordered.is_empty()
                && d.added.is_empty()
                && d.removed.is_empty()
                && d.added_nodes.is_empty()
                && d.removed_nodes.is_empty()
                && d.kind_changed.is_empty(),
        };
        let mut states = Vec::with_capacity(self.scenarios.len());
        let mut deltas = Vec::with_capacity(self.scenarios.len());
        let mut rows = 0;
        for st in &self.scenarios {
            let (state, delta, compared) = pass.scenario(st)?;
            states.push(state);
            deltas.push(delta);
            rows += compared;
        }

        // All scenarios succeeded — commit atomically.
        let kept = usize::from(pass.keep_steady) * states.len();
        let report = DeltaReport {
            netlist_changes: d.change_count(),
            scenarios: deltas,
        };
        self.scenarios = states;
        self.net = next;
        self.record_counters(&report, kept, rows);
        Ok(report)
    }

    /// `kept`: scenarios that kept their steady pair and switching index;
    /// `rows`: arrival rows the deltas compared.
    fn record_counters(&self, report: &DeltaReport, kept: usize, rows: usize) {
        let Some(t) = self.options.trace.as_deref() else {
            return;
        };
        t.count(Phase::Incremental, "steady_reused", kept as u64);
        t.count(Phase::Incremental, "index_reused", kept as u64);
        t.count(Phase::Incremental, "delta_rows", rows as u64);
        for s in &report.scenarios {
            let st = &s.stats;
            for (name, n) in [
                ("invalidated_targets", st.invalidated_targets),
                ("reused_targets", st.reused_targets),
                ("invalidated_stages", st.invalidated_stages),
                ("reused_stages", st.reused_stages),
                ("arrivals_changed", s.changed.len()),
            ] {
                t.count(Phase::Incremental, name, n as u64);
            }
        }
    }
}

/// The nodes of `next` whose devices `next` lists in another order than
/// `cur` does, each device read as its kind, gate and channel terminals
/// carried back to `cur`'s ids. A node sums its loads
/// ([`Technology::node_capacitance`](crate::tech::Technology::node_capacitance))
/// and enumerates its channels in that order, so a reordered node can
/// move the last bits of every stage through it even though
/// [`diff::diff`], which matches devices by site, sees no change. A node
/// new to `next` is left out: the diff touches it.
fn reordered_nodes(cur: &Network, next: &Network, ids: &Ids) -> Vec<NodeId> {
    type Site = (usize, Option<NodeId>, Option<NodeId>, Option<NodeId>);
    let site = |net: &Network, tid, to_cur: &dyn Fn(NodeId) -> Option<NodeId>| -> Site {
        let t = net.transistor(tid);
        let (s, d) = (to_cur(t.source()), to_cur(t.drain()));
        (t.kind().index(), to_cur(t.gate()), s.min(d), s.max(d))
    };
    let same = |a: &[TransistorId], b: &[TransistorId]| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(&x, &y)| site(cur, x, &|id| Some(id)) == site(next, y, &|id| ids.to_old(id)))
    };
    (next.nodes())
        .filter_map(|(id, _)| ids.to_old(id).map(|o| (id, o)))
        .filter(|&(id, o)| {
            !same(cur.channel_neighbors(o), next.channel_neighbors(id))
                || !same(cur.gated_by(o), next.gated_by(id))
        })
        .map(|(id, _)| id)
        .collect()
}

/// Component labels of the potentially-conducting channel graph
/// (conducting before OR after — both states can shape stages and
/// releasing devices), rails as barriers, numbered in node order, with
/// the number of components.
fn components(net: &Network, (before, after): &(LogicState, LogicState)) -> (Vec<u32>, usize) {
    let cond: Vec<bool> = net
        .transistors()
        .map(|(tid, _)| before.transistor_on(net, tid) || after.transistor_on(net, tid))
        .collect();
    let mut comp = vec![RAIL; net.node_count()];
    let mut n_comp = 0u32;
    let mut queue = Vec::new();
    for (id, node) in net.nodes() {
        if node.kind().is_rail() || comp[id.index()] != RAIL {
            continue;
        }
        comp[id.index()] = n_comp;
        queue.push(id);
        while let Some(at) = queue.pop() {
            for &tid in net.channel_neighbors(at) {
                let other = net.transistor(tid).other_terminal(at);
                if cond[tid.index()]
                    && !net.node(other).kind().is_rail()
                    && comp[other.index()] == RAIL
                {
                    comp[other.index()] = n_comp;
                    queue.push(other);
                }
            }
        }
        n_comp += 1;
    }
    (comp, n_comp as usize)
}

/// One re-analysis pass: what every scenario shares about the edit.
struct Pass<'a> {
    session: &'a IncrementalAnalyzer,
    next: &'a Network,
    ids: &'a Ids,
    /// Structural dirt, as ids of `next`.
    dirty: Vec<NodeId>,
    invalidate_all: bool,
    /// Keep every steady pair and its switching index.
    keep_steady: bool,
}

impl Pass<'_> {
    /// Re-analyzes one scenario against the next network, invalidating
    /// only targets whose support meets the dirty set (see the
    /// [module docs](self)), with the arrival rows its delta compared.
    fn scenario(
        &self,
        st: &ScenarioState,
    ) -> Result<(ScenarioState, ScenarioDelta, usize), TimingError> {
        let (session, next, ids) = (self.session, self.next, self.ids);
        let (cur, options) = (&session.net, &session.options);
        let trace = options.trace.as_deref();
        let scenario = self.resolve(&st.scenario)?;
        let old = &st.index;
        let mut work = self.dirty.clone();
        let index = if self.keep_steady {
            Arc::clone(old)
        } else {
            let steady = traced_steady_states(next, &scenario, options.cache.as_deref(), trace);
            // Logic dirt: every node whose steady-state pair changed
            // (conduction, edge membership, cap discounts, and reservoir
            // status all derive from it).
            let (b0, a0) = &old.steady;
            let (b1, a1) = &steady;
            for (id, node) in next.nodes() {
                if node.kind().is_rail() {
                    continue;
                }
                let kept = ids.to_old(id).is_some_and(|o| {
                    !cur.node(o).kind().is_rail()
                        && (b0.value(o), a0.value(o)) == (b1.value(id), a1.value(id))
                });
                if !kept {
                    work.push(id);
                }
            }
            Arc::new(SwitchingIndex::new(next, steady, trace))
        };

        // Invalidation: dirty nodes and fresh targets (no previous
        // arrival, changed edge, vanished cause) mark the components
        // whose support holds them; each marked component's targets mark
        // in turn, until the worklist drains.
        for &(id, edge) in &index.targets {
            let fresh = match ids.to_old(id).and_then(|o| st.result.arrival(o)) {
                None => true,
                Some(a) => a.edge != edge || a.cause.is_some_and(|c| ids.to_new(c).is_none()),
            };
            if self.invalidate_all || fresh {
                work.push(id);
            }
        }
        let mut marked = vec![false; index.by_comp.len()];
        while let Some(x) = work.pop() {
            let mut mark = |c: u32, work: &mut Vec<NodeId>| {
                if c != RAIL && !marked[c as usize] {
                    marked[c as usize] = true;
                    work.extend_from_slice(&index.by_comp[c as usize]);
                }
            };
            mark(index.comp[x.index()], &mut work);
            for &tid in next.gated_by(x) {
                let t = next.transistor(tid);
                mark(index.comp[t.source().index()], &mut work);
                mark(index.comp[t.drain().index()], &mut work);
            }
        }
        // Partition: affected targets re-analyze, the rest replay their
        // arrival and stage count.
        let mut affected = Vec::new();
        let mut seeded = Vec::new();
        let mut stage_counts = vec![0; index.targets.len()];
        let mut reused_stages = 0;
        for (at, &(id, _)) in index.targets.iter().enumerate() {
            if marked[index.comp[id.index()] as usize] {
                affected.push((at, id));
                continue;
            }
            let o = ids
                .to_old(id)
                .expect("unaffected target existed before the edit");
            let a = *st
                .result
                .arrival(o)
                .expect("unaffected target had an arrival");
            let cause = a.cause.map(|c| {
                ids.to_new(c)
                    .expect("unaffected target's cause survived the edit")
            });
            seeded.push((id, Arrival { cause, ..a }));
            let n = old.position(o).map_or(0, |p| st.stage_counts[p]);
            reused_stages += n;
            stage_counts[at] = n;
        }
        let invalidated_targets = affected.len();
        let reused_targets = index.targets.len() - invalidated_targets;
        let spec = SubsetSpec {
            affected: affected.iter().map(|&(_, id)| id).collect(),
            seeded,
        };
        let outcome = analyze_subset(
            next,
            &session.tech,
            session.model,
            &scenario,
            options.clone(),
            Some(&spec),
            &index.steady,
            Some(&index.switching),
        )?;
        let mut result = outcome.result;
        let mut invalidated_stages = 0usize;
        for (&(at, id), &(evaluated, n)) in affected.iter().zip(&outcome.target_stages) {
            debug_assert_eq!(id, evaluated);
            invalidated_stages += n;
            stage_counts[at] = n;
        }
        let stats = IncrementalStats {
            invalidated_targets,
            reused_targets,
            invalidated_stages,
            reused_stages,
            rounds: outcome.rounds,
        };
        result.incremental = Some(stats);

        // Arrival delta, bit-exact, in name order. Only three kinds of
        // row can differ: a re-analyzed target, a target that left the
        // set (one that entered had no arrival, so it re-analyzed), and
        // the input. Every other arrival was replayed with its cause
        // carried over by id. A kept index has the same targets, so
        // none left.
        let same = |x: Option<&Arrival>, y: Option<&Arrival>| match (x, y) {
            (Some(x), Some(y)) => {
                x.time.value().to_bits() == y.time.value().to_bits()
                    && x.transition.value().to_bits() == y.transition.value().to_bits()
                    && (x.edge, x.model) == (y.edge, y.model)
                    && x.cause.map(|c| ids.to_new(c)) == y.cause.map(Some)
            }
            (x, y) => x.is_none() && y.is_none(),
        };
        let row = |id: NodeId| {
            let before = ids.to_old(id).and_then(|o| st.result.arrival(o));
            (next.node(id).name(), before, result.arrival(id))
        };
        let mut rows: Vec<_> = affected.iter().map(|&(_, id)| row(id)).collect();
        rows.push(row(scenario.input));
        if !self.keep_steady {
            for &(o, _) in &old.targets {
                match ids.to_new(o) {
                    None => rows.push((cur.node(o).name(), st.result.arrival(o), None)),
                    Some(id) if index.position(id).is_none() => rows.push(row(id)),
                    Some(_) => {}
                }
            }
        }
        let compared = rows.len();
        let mut changed: Vec<ArrivalChange> = rows
            .into_iter()
            .filter(|&(_, before, after)| !same(before, after))
            .map(|(node, before, after)| ArrivalChange {
                node: node.to_string(),
                before: before.copied(),
                after: after.copied(),
            })
            .collect();
        changed.sort_by(|x, y| x.node.cmp(&y.node));

        let delta = ScenarioDelta {
            label: st.label.clone(),
            changed,
            stats,
        };
        let state = ScenarioState {
            label: st.label.clone(),
            scenario,
            result,
            index,
            stage_counts,
        };
        Ok((state, delta, compared))
    }

    /// The scenario with its nodes carried over to the next network: the
    /// input must survive as an input, and every static must survive.
    fn resolve(&self, scenario: &Scenario) -> Result<Scenario, TimingError> {
        let name = |id: NodeId| self.session.net.node(id).name().to_string();
        let carry = |id| {
            self.ids
                .to_new(id)
                .ok_or_else(|| TimingError::UnknownNode { name: name(id) })
        };
        let input = carry(scenario.input)?;
        if self.next.node(input).kind() != NodeKind::Input {
            let name = name(scenario.input);
            return Err(TimingError::NotAnInput { name });
        }
        let mut statics: Vec<_> = scenario.statics.iter().collect();
        statics.sort_unstable_by_key(|&(&id, _)| self.session.net.node(id).name());
        let statics = statics
            .into_iter()
            .map(|(&id, &level)| Ok((carry(id)?, level)));
        Ok(Scenario {
            input,
            edge: scenario.edge,
            input_transition: scenario.input_transition,
            statics: statics.collect::<Result<_, TimingError>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze_with_options;
    use crate::fingerprint::result_digest;
    use crate::logic;
    use crate::obs::TraceSink;
    use crate::selfcheck::standard_scenarios;
    use mosnet::diff::TransistorDesc;
    use mosnet::generators::{carry_chain, decoder, inverter_chain, Style};
    use mosnet::units::{Farads, Seconds};
    use mosnet::{Geometry, TransistorKind};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn session(net: Network, scenario: Scenario, options: AnalyzerOptions) -> IncrementalAnalyzer {
        IncrementalAnalyzer::new(
            net,
            Technology::nominal(),
            ModelKind::Slope,
            vec![("t".to_string(), scenario)],
            options,
        )
        .expect("session builds")
    }

    fn fresh(analyzer: &IncrementalAnalyzer) -> TimingResult {
        analyze_with_options(
            analyzer.network(),
            &Technology::nominal(),
            ModelKind::Slope,
            &analyzer.scenario("t").expect("scenario resolves"),
            AnalyzerOptions::default(),
        )
        .expect("fresh analysis succeeds")
    }

    /// The seed adder with only the first two propagate inputs on: the
    /// conducting region is `c0..c2`, everything past the off `p3` pass
    /// transistor is out of reach.
    fn adder_session() -> IncrementalAnalyzer {
        let net = carry_chain(Style::Cmos, 4, Farads::from_femto(60.0)).unwrap();
        let cin = net.node_by_name("cin").unwrap();
        let p1 = net.node_by_name("p1").unwrap();
        let p2 = net.node_by_name("p2").unwrap();
        let scenario = Scenario::step(cin, Edge::Rising)
            .with_static(p1, true)
            .with_static(p2, true);
        session(net, scenario, AnalyzerOptions::default())
    }

    #[test]
    fn empty_diff_invalidates_zero_stages() {
        let mut analyzer = adder_session();
        let baseline = analyzer.result("t").unwrap().clone();
        let same = carry_chain(Style::Cmos, 4, Farads::from_femto(60.0)).unwrap();
        let report = analyzer.replace_network(same).expect("no-op edit");
        assert_eq!(report.netlist_changes, 0);
        assert_eq!(report.total_changed(), 0);
        let stats = &report.scenarios[0].stats;
        assert_eq!(stats.invalidated_targets, 0);
        assert_eq!(stats.invalidated_stages, 0);
        assert!(stats.reused_stages > 0, "replayed stages are counted");
        assert_eq!(analyzer.result("t").unwrap(), &baseline);
    }

    #[test]
    fn resize_outside_the_conducting_region_reuses_everything() {
        let mut analyzer = adder_session();
        assert!(fresh(&analyzer).arrivals().count() > 0);
        // p4's pass transistor sits beyond the off p3 switch: no target's
        // support reaches it.
        let report = analyzer
            .apply_edit(&Edit::Resize {
                gate: "p4".to_string(),
                source: "c3".to_string(),
                drain: "cout".to_string(),
                geometry: Geometry::from_microns(8.0, 2.0),
            })
            .expect("edit applies");
        let stats = &report.scenarios[0].stats;
        assert_eq!(stats.invalidated_targets, 0);
        assert_eq!(stats.invalidated_stages, 0);
        assert_eq!(stats.reused_targets, 3, "c0, c1, c2 replay");
        assert!(stats.reused_stages > 0);
        assert_eq!(report.total_changed(), 0);
        // Bit-identical to a fresh full analysis of the edited network.
        assert_eq!(analyzer.result("t").unwrap(), &fresh(&analyzer));
    }

    #[test]
    fn resize_inside_the_conducting_region_invalidates_it() {
        let mut analyzer = adder_session();
        let report = analyzer
            .apply_edit(&Edit::Resize {
                gate: "p1".to_string(),
                source: "c0".to_string(),
                drain: "c1".to_string(),
                geometry: Geometry::from_microns(6.0, 2.0),
            })
            .expect("edit applies");
        let stats = &report.scenarios[0].stats;
        assert_eq!(stats.invalidated_targets, 3, "whole conducting region");
        assert!(report.total_changed() > 0, "a real resize moves arrivals");
        assert_eq!(analyzer.result("t").unwrap(), &fresh(&analyzer));
    }

    #[test]
    fn chain_edit_cascades_only_downstream() {
        let net = inverter_chain(Style::Cmos, 8, 2.0, Farads::from_femto(100.0)).unwrap();
        let input = net.node_by_name("in").unwrap();
        let mut analyzer = session(
            net,
            Scenario::step(input, Edge::Rising),
            AnalyzerOptions::default(),
        );
        // Resize the 7th inverter's nMOS (gate s6, output s7): s6 is
        // invalidated (the device's gate load sits on s6), and the change
        // cascades to s7 and out — but never back to s1..s5.
        let report = analyzer
            .apply_edit(&Edit::Resize {
                gate: "s6".to_string(),
                source: "s7".to_string(),
                drain: "gnd".to_string(),
                geometry: Geometry::from_microns(6.0, 2.0),
            })
            .expect("edit applies");
        let stats = &report.scenarios[0].stats;
        assert_eq!(stats.invalidated_targets, 3, "s6, s7, out");
        assert_eq!(stats.reused_targets, 5, "s1..s5 replay");
        assert!(stats.invalidated_stages < stats.invalidated_stages + stats.reused_stages);
        assert!(report.total_changed() > 0);
        assert_eq!(analyzer.result("t").unwrap(), &fresh(&analyzer));
    }

    #[test]
    fn membership_edits_stay_bit_identical() {
        let net = inverter_chain(Style::Cmos, 6, 2.0, Farads::from_femto(80.0)).unwrap();
        let input = net.node_by_name("in").unwrap();
        let mut analyzer = session(
            net,
            Scenario::step(input, Edge::Rising),
            AnalyzerOptions::default(),
        );
        // Double up the third inverter's pull-down, then remove it again,
        // then retune a wire capacitance. Each step must match a fresh
        // full analysis bit for bit.
        let add = Edit::Add(TransistorDesc {
            kind: TransistorKind::NEnhancement,
            gate: "s2".to_string(),
            source: "s3".to_string(),
            drain: "gnd".to_string(),
            geometry: Geometry::from_microns(3.0, 2.0),
        });
        let report = analyzer.apply_edit(&add).expect("add applies");
        assert!(report.scenarios[0].stats.reused_targets > 0);
        assert_eq!(analyzer.result("t").unwrap(), &fresh(&analyzer));

        let report = analyzer
            .apply_edit(&Edit::Remove {
                gate: "s2".to_string(),
                source: "s3".to_string(),
                drain: "gnd".to_string(),
            })
            .expect("remove applies");
        // Removing *both* matching devices (the original + the double) is
        // rejected upstream only when nothing matches; here both go, and
        // s3 loses its pull-down entirely — logic changes, arrivals must
        // still match a fresh run.
        assert_eq!(analyzer.result("t").unwrap(), &fresh(&analyzer));
        drop(report);

        let report = analyzer
            .apply_edit(&Edit::SetCapacitance {
                node: "s4".to_string(),
                capacitance: Farads::from_femto(12.0),
            })
            .expect("cap edit applies");
        assert!(report.scenarios[0].stats.reused_targets > 0);
        assert_eq!(analyzer.result("t").unwrap(), &fresh(&analyzer));
    }

    #[test]
    fn failed_edits_leave_the_session_untouched() {
        let mut analyzer = adder_session();
        let baseline = analyzer.result("t").unwrap().clone();
        let err = analyzer
            .apply_edit(&Edit::Resize {
                gate: "nope".to_string(),
                source: "c0".to_string(),
                drain: "c1".to_string(),
                geometry: Geometry::from_microns(4.0, 2.0),
            })
            .unwrap_err();
        assert!(matches!(err, TimingError::BadParameter { .. }));
        assert_eq!(analyzer.result("t").unwrap(), &baseline);
        assert_eq!(
            analyzer.network().transistor_count(),
            carry_chain(Style::Cmos, 4, Farads::from_femto(60.0))
                .unwrap()
                .transistor_count()
        );
    }

    /// A decoder-4 session over every input × edge scenario.
    fn decoder_session(options: AnalyzerOptions) -> IncrementalAnalyzer {
        let net = decoder(Style::Cmos, 4, Farads::from_femto(50.0)).unwrap();
        let scenarios = standard_scenarios(&net, &HashMap::new(), Seconds::ZERO);
        IncrementalAnalyzer::new(
            net,
            Technology::nominal(),
            ModelKind::Slope,
            scenarios,
            options,
        )
        .expect("session builds")
    }

    /// Every scenario equals a fresh serial uncached analysis.
    fn assert_fresh(analyzer: &IncrementalAnalyzer, what: &str) {
        for label in analyzer.labels() {
            let fresh = analyze_with_options(
                analyzer.network(),
                &Technology::nominal(),
                ModelKind::Slope,
                &analyzer.scenario(label).unwrap(),
                AnalyzerOptions::default(),
            )
            .expect("fresh analysis succeeds");
            assert_eq!(
                analyzer.result(label).unwrap(),
                &fresh,
                "`{label}` diverged after {what}"
            );
        }
    }

    /// An inverter chain written as `.sim` text with its inverters listed
    /// in reverse and parsed back: the same circuit, with the internal
    /// nodes renumbered in their new order of first appearance. Each
    /// inverter's two device lines keep their order, so every node sums
    /// its loads in the same order and the analysis is bit-identical.
    fn reversed_chain(net: &Network) -> Network {
        let text = mosnet::sim_format::write(net);
        let (devices, rest): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|line| line.starts_with(['n', 'p']));
        let inverters = devices.chunks(2).rev().flatten();
        let text: Vec<&str> = rest.into_iter().chain(inverters.copied()).collect();
        mosnet::sim_format::parse(&text.join("\n"), "reversed.sim").expect("reparses")
    }

    /// Per-label digests, which key arrivals by node name.
    fn digests(analyzer: &IncrementalAnalyzer) -> Vec<(String, u64)> {
        analyzer
            .labels()
            .map(|label| {
                let result = analyzer.result(label).unwrap();
                (label.to_string(), result_digest(analyzer.network(), result))
            })
            .collect()
    }

    #[test]
    fn self_cancelling_script_reanalyzes_nothing() {
        let mut analyzer = adder_session();
        let baseline = analyzer.result("t").unwrap().clone();
        let resize = |geometry| Edit::Resize {
            gate: "p1".to_string(),
            source: "c0".to_string(),
            drain: "c1".to_string(),
            geometry,
        };
        let net = analyzer.network();
        let (_, pass) = net
            .transistors()
            .find(|(_, t)| net.node(t.gate()).name() == "p1")
            .unwrap();
        let c1 = net.node(net.node_by_name("c1").unwrap()).capacitance();
        let script = [
            Edit::SetCapacitance {
                node: "c1".to_string(),
                capacitance: Farads::from_femto(3.0),
            },
            resize(Geometry::from_microns(13.0, 2.0)),
            resize(pass.geometry()),
            Edit::SetCapacitance {
                node: "c1".to_string(),
                capacitance: c1,
            },
        ];
        let report = analyzer.apply_edits(&script).expect("script applies");
        assert_eq!(report.netlist_changes, 0);
        assert_eq!(report.total_changed(), 0);
        let stats = &report.scenarios[0].stats;
        assert_eq!((stats.invalidated_targets, stats.rounds), (0, 0));
        assert!(stats.reused_targets > 0);
        assert_eq!(analyzer.result("t").unwrap(), &baseline);
    }

    #[test]
    fn renumbered_replacement_matches_the_edit_path() {
        // A chain has no series stacks, so its steady states do not
        // depend on node order and a renumbered copy analyzes the same.
        let net = inverter_chain(Style::Cmos, 8, 2.0, Farads::from_femto(100.0)).unwrap();
        let chain = || {
            let scenarios = standard_scenarios(&net, &HashMap::new(), Seconds::ZERO);
            IncrementalAnalyzer::new(
                net.clone(),
                Technology::nominal(),
                ModelKind::Slope,
                scenarios,
                AnalyzerOptions::default(),
            )
            .expect("session builds")
        };
        let (mut by_id, mut by_name) = (chain(), chain());
        let edit = Edit::Resize {
            gate: "s5".to_string(),
            source: "s6".to_string(),
            drain: "gnd".to_string(),
            geometry: Geometry::from_microns(7.0, 2.0),
        };
        let edited = reversed_chain(&diff::apply_edit(&net, &edit).unwrap());
        assert_ne!(
            edited.node_by_name("s6"),
            net.node_by_name("s6"),
            "ids moved"
        );
        let id_report = by_id.apply_edit(&edit).expect("edit applies");
        let name_report = by_name
            .replace_network(edited)
            .expect("replacement applies");
        assert!(id_report.total_changed() > 0, "the resize moves arrivals");
        assert!(id_report
            .scenarios
            .iter()
            .any(|s| s.stats.reused_targets > 0));
        // `after` causes are ids of each session's own network.
        let split = |mut report: DeltaReport, net: &Network| {
            let mut causes = Vec::new();
            for change in report.scenarios.iter_mut().flat_map(|s| &mut s.changed) {
                let cause = change.after.as_mut().and_then(|a| a.cause.take());
                causes.push(cause.map(|id| net.node(id).name().to_string()));
            }
            (report, causes)
        };
        assert_eq!(
            split(name_report, by_name.network()),
            split(id_report, by_id.network())
        );
        assert_eq!(digests(&by_name), digests(&by_id));
        assert_fresh(&by_name, "a renumbered replacement");

        // Renumbering back with no edit diffs empty.
        let report = by_name
            .replace_network(by_id.network().clone())
            .expect("no-op replacement");
        assert_eq!(report.netlist_changes, 0);
    }

    #[test]
    fn kept_steady_pairs_match_a_fresh_solve() {
        let sink = Arc::new(TraceSink::with_capacity(1 << 12));
        let mut analyzer = decoder_session(AnalyzerOptions {
            trace: Some(Arc::clone(&sink)),
            ..AnalyzerOptions::default()
        });
        let edits = [
            Edit::SetCapacitance {
                node: "w3".to_string(),
                capacitance: Farads::from_femto(95.0),
            },
            Edit::Resize {
                gate: "nw9".to_string(),
                source: "w9".to_string(),
                drain: "vdd".to_string(),
                geometry: Geometry::from_microns(3.0, 2.0),
            },
            Edit::Resize {
                gate: "a1".to_string(),
                source: "na1".to_string(),
                drain: "gnd".to_string(),
                geometry: Geometry::from_microns(5.0, 2.0),
            },
        ];
        let mut expected_rows = 0;
        for edit in &edits {
            let report = analyzer.apply_edit(edit).expect("edit applies");
            let rows = report
                .scenarios
                .iter()
                .map(|s| s.stats.invalidated_targets + 1);
            expected_rows += rows.sum::<usize>();
            for st in &analyzer.scenarios {
                let net = analyzer.network();
                let steady = logic::steady_states(net, &st.scenario);
                assert_eq!(*st.index, SwitchingIndex::new(net, steady, None));
            }
            assert_fresh(&analyzer, &format!("{edit:?}"));
        }
        let counters = sink.counters();
        let count = |name: &str| counters[&(Phase::Incremental, name.to_string())] as usize;
        assert_eq!(
            count("steady_reused"),
            edits.len() * analyzer.scenarios.len()
        );
        assert_eq!(count("index_reused"), count("steady_reused"));
        // A kept index compares only the re-analyzed targets and the
        // input.
        assert_eq!(count("delta_rows"), expected_rows);
    }

    #[test]
    fn randomized_edit_sequences_match_fresh_analysis() {
        // Deterministic xorshift over a resize / cap / add / remove edit
        // vocabulary, on a one-scenario inverter chain and a
        // multi-scenario decoder-4 session: after every edit every
        // incremental result must equal a fresh serial uncached analysis
        // of the current network, bit for bit.
        let net = inverter_chain(Style::Cmos, 10, 2.5, Farads::from_femto(120.0)).unwrap();
        let input = net.node_by_name("in").unwrap();
        let chain = session(
            net,
            Scenario::step(input, Edge::Rising),
            AnalyzerOptions::default(),
        );
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for mut analyzer in [chain, decoder_session(AnalyzerOptions::default())] {
            let mut reused_total = 0usize;
            let mut added: Vec<(String, String)> = Vec::new();
            for step in 0..16 {
                let net = analyzer.network();
                let r = rng();
                let names: Vec<&str> = net
                    .nodes()
                    .filter(|(_, n)| !n.kind().is_rail())
                    .map(|(_, n)| n.name())
                    .collect();
                let (_, t) = net
                    .transistors()
                    .nth((r as usize / 5) % net.transistor_count())
                    .expect("index in range");
                let edit = match r % 6 {
                    0 | 1 => Edit::SetCapacitance {
                        node: names[(r as usize / 7) % names.len()].to_string(),
                        capacitance: Farads::from_femto(4.0 + (r % 17) as f64),
                    },
                    2 => {
                        // A pull-down on an existing node, gated by an
                        // existing or a brand-new node.
                        let gate = names[(r as usize / 11) % names.len()].to_string();
                        let source = if r % 2 == 0 {
                            format!("x{step}")
                        } else {
                            names[(r as usize / 13) % names.len()].to_string()
                        };
                        added.push((gate.clone(), source.clone()));
                        Edit::Add(TransistorDesc {
                            kind: TransistorKind::NEnhancement,
                            gate,
                            source,
                            drain: "gnd".to_string(),
                            geometry: Geometry::from_microns(3.0, 2.0),
                        })
                    }
                    3 if !added.is_empty() => {
                        let (gate, source) = added.swap_remove((r as usize / 17) % added.len());
                        Edit::Remove {
                            gate,
                            source,
                            drain: "gnd".to_string(),
                        }
                    }
                    _ => {
                        let scale = if r % 2 == 0 { 1.5 } else { 0.75 };
                        Edit::Resize {
                            gate: net.node(t.gate()).name().to_string(),
                            source: net.node(t.source()).name().to_string(),
                            drain: net.node(t.drain()).name().to_string(),
                            geometry: Geometry {
                                width: mosnet::units::Metres(t.geometry().width.value() * scale),
                                length: t.geometry().length,
                            },
                        }
                    }
                };
                let report = match analyzer.apply_edit(&edit) {
                    Ok(report) => report,
                    // Two adds on one site went out with the first remove.
                    Err(TimingError::BadParameter { .. })
                        if matches!(edit, Edit::Remove { .. }) =>
                    {
                        continue
                    }
                    Err(e) => panic!("{edit:?}: {e}"),
                };
                reused_total += report
                    .scenarios
                    .iter()
                    .map(|s| s.stats.reused_stages)
                    .sum::<usize>();
                assert_fresh(&analyzer, &format!("{edit:?}"));
            }
            assert!(reused_total > 0, "the sequence reused work somewhere");
        }
    }
}
