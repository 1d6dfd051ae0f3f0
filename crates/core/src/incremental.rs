//! Incremental re-analysis: dependency-tracked invalidation over netlist
//! edits.
//!
//! An [`IncrementalAnalyzer`] holds a network, a technology, and a set of
//! named scenarios with their fully analyzed [`TimingResult`]s. Applying
//! an edit ([`mosnet::diff::Edit`], or a wholesale replacement network)
//! diffs the new netlist against the old one, maps the structural and
//! logic-state changes onto the set of switching targets whose stages can
//! change, and re-extracts/re-evaluates **only those targets** — every
//! untouched target's arrival is replayed bit-identically from the
//! previous result.
//!
//! ## The dependency index
//!
//! A target's extracted stages and its evaluation depend on:
//!
//! * the nodes reachable from it through *potentially conducting*
//!   transistors (conducting in the before **or** after steady state) —
//!   these carry the stage's resistances and capacitances;
//! * the gates of every transistor whose channel touches one of those
//!   nodes — gate arrivals trigger stages, gate logic selects conduction,
//!   and (via [`Technology::node_capacitance`](crate::tech::Technology::node_capacitance))
//!   a device resize changes the loading of the node that gates it.
//!
//! The union of the two is the target's **support set** (of node names —
//! names survive renumbering, ids do not). An edit dirties the gate and
//! channel terminals of every added/removed/resized device, every node
//! with a capacitance or kind change, and every node whose steady-state
//! logic pair changed; a target is invalidated when its support meets the
//! dirty set. Invalidation then closes transitively: a target whose
//! support contains an invalidated target is invalidated too, because a
//! replayed arrival may no longer match what re-evaluation would produce.
//!
//! The subset re-analysis seeds every unaffected target's previous
//! arrival and runs the ordinary Jacobi fixpoint over the affected
//! targets only, so results are bit-identical to a fresh full analysis —
//! the property [`crate::selfcheck`]'s incremental mode checks after
//! every edit.
//!
//! Budget caps in [`AnalyzerOptions`] apply to each re-analysis pass
//! individually; a tripped budget aborts the edit and leaves the session
//! state untouched. Incremental sessions normally run unlimited.

use crate::analyzer::{
    analyze_subset, traced_steady_states, AnalyzerOptions, Arrival, Edge, IncrementalStats,
    Scenario, SubsetSpec, TimingResult,
};
use crate::error::TimingError;
use crate::logic::{LogicState, LogicValue};
use crate::models::ModelKind;
use crate::obs::Phase;
use crate::tech::Technology;
use mosnet::diff::{self, Edit, NetworkDiff};
use mosnet::units::Seconds;
use mosnet::{Network, NodeId, NodeKind};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

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

/// Per-scenario persistent state: the definition (by node *name*, so it
/// survives renumbering) plus the last result and the bookkeeping the
/// dependency index needs.
#[derive(Debug, Clone)]
struct ScenarioState {
    label: String,
    input: String,
    edge: Edge,
    input_transition: Seconds,
    statics: Vec<(String, bool)>,
    result: TimingResult,
    /// `(before, after)` steady-state pair per non-rail node name.
    logic: HashMap<String, (LogicValue, LogicValue)>,
    /// Extracted stage count per target name, for reuse accounting.
    stage_counts: HashMap<String, usize>,
}

/// Replacement state computed for one scenario before any commit.
struct NewState {
    result: TimingResult,
    logic: HashMap<String, (LogicValue, LogicValue)>,
    stage_counts: HashMap<String, usize>,
    delta: ScenarioDelta,
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
    /// against `net`. Scenario node ids refer to `net`; they are stored
    /// by name internally.
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
        for (label, scenario) in scenarios {
            let input = net.node(scenario.input).name().to_string();
            let mut statics: Vec<(String, bool)> = scenario
                .statics
                .iter()
                .map(|(&id, &level)| (net.node(id).name().to_string(), level))
                .collect();
            statics.sort();
            let steady = traced_steady_states(&net, &scenario, options.trace.as_deref());
            let outcome = analyze_subset(
                &net,
                &tech,
                model,
                &scenario,
                options.clone(),
                None,
                &steady,
            )?;
            let logic = logic_pairs(&net, &steady);
            let stage_counts = outcome
                .target_stages
                .iter()
                .map(|&(id, n)| (net.node(id).name().to_string(), n))
                .collect();
            states.push(ScenarioState {
                label,
                input,
                edge: scenario.edge,
                input_transition: scenario.input_transition,
                statics,
                result: outcome.result,
                logic,
                stage_counts,
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
        self.scenarios
            .iter()
            .find(|s| s.label == label)
            .map(|s| &s.result)
    }

    /// The labelled scenario resolved against the current network —
    /// exactly what a fresh [`crate::analyze_with_options`] run needs to
    /// cross-check an incremental result.
    ///
    /// # Errors
    /// [`TimingError::UnknownNode`] if the label is unknown or a scenario
    /// node no longer exists.
    pub fn scenario(&self, label: &str) -> Result<Scenario, TimingError> {
        let st = self
            .scenarios
            .iter()
            .find(|s| s.label == label)
            .ok_or_else(|| TimingError::UnknownNode {
                name: label.to_string(),
            })?;
        resolve_scenario(&self.net, st)
    }

    /// Applies one structural edit and incrementally re-analyzes every
    /// scenario.
    ///
    /// # Errors
    /// [`TimingError::BadParameter`] when the edit does not fit the
    /// current network; any analysis error otherwise. On error the
    /// session state is unchanged.
    pub fn apply_edit(&mut self, edit: &Edit) -> Result<DeltaReport, TimingError> {
        let next = diff::apply_edit(&self.net, edit).map_err(|e| TimingError::BadParameter {
            message: e.to_string(),
        })?;
        self.replace_network(next)
    }

    /// Applies a sequence of edits as one step (one diff, one
    /// re-analysis).
    ///
    /// # Errors
    /// See [`Self::apply_edit`].
    pub fn apply_edits(&mut self, edits: &[Edit]) -> Result<DeltaReport, TimingError> {
        let next = diff::apply_edits(&self.net, edits).map_err(|e| TimingError::BadParameter {
            message: e.to_string(),
        })?;
        self.replace_network(next)
    }

    /// Replaces the whole network (e.g. a re-parsed file in watch mode),
    /// re-analyzing only what the structural diff invalidates. An empty
    /// diff re-analyzes nothing and keeps the current network.
    ///
    /// # Errors
    /// See [`Self::apply_edit`].
    pub fn replace_network(&mut self, next: Network) -> Result<DeltaReport, TimingError> {
        let d = diff::diff(&self.net, &next);
        let trace = self.options.trace.clone();
        let _span = trace.as_deref().map(|t| {
            let mut span = t.span(Phase::Incremental, "apply_edit");
            span.field("changes", d.change_count());
            span
        });
        if d.is_empty() {
            let report = DeltaReport {
                netlist_changes: 0,
                scenarios: self
                    .scenarios
                    .iter()
                    .map(|st| ScenarioDelta {
                        label: st.label.clone(),
                        changed: Vec::new(),
                        stats: IncrementalStats {
                            invalidated_targets: 0,
                            reused_targets: st.stage_counts.len(),
                            invalidated_stages: 0,
                            reused_stages: st.stage_counts.values().sum(),
                            rounds: 0,
                        },
                    })
                    .collect(),
            };
            self.record_counters(&report);
            return Ok(report);
        }

        let (dirty_base, invalidate_all) = structural_dirt(&self.net, &next, &d);
        let mut new_states = Vec::with_capacity(self.scenarios.len());
        for st in &self.scenarios {
            new_states.push(reanalyze_scenario(
                &self.net,
                &next,
                &self.tech,
                self.model,
                &self.options,
                st,
                &dirty_base,
                invalidate_all,
            )?);
        }

        // All scenarios succeeded — commit atomically.
        let mut report = DeltaReport {
            netlist_changes: d.change_count(),
            scenarios: Vec::with_capacity(new_states.len()),
        };
        for (st, new_state) in self.scenarios.iter_mut().zip(new_states) {
            st.result = new_state.result;
            st.logic = new_state.logic;
            st.stage_counts = new_state.stage_counts;
            report.scenarios.push(new_state.delta);
        }
        self.net = next;
        self.record_counters(&report);
        Ok(report)
    }

    fn record_counters(&self, report: &DeltaReport) {
        if let Some(t) = self.options.trace.as_deref() {
            for s in &report.scenarios {
                t.count(
                    Phase::Incremental,
                    "invalidated_targets",
                    s.stats.invalidated_targets as u64,
                );
                t.count(
                    Phase::Incremental,
                    "reused_targets",
                    s.stats.reused_targets as u64,
                );
                t.count(
                    Phase::Incremental,
                    "invalidated_stages",
                    s.stats.invalidated_stages as u64,
                );
                t.count(
                    Phase::Incremental,
                    "reused_stages",
                    s.stats.reused_stages as u64,
                );
                t.count(
                    Phase::Incremental,
                    "arrivals_changed",
                    s.changed.len() as u64,
                );
            }
        }
    }
}

/// Resolves a name-based scenario definition against `net`.
fn resolve_scenario(net: &Network, st: &ScenarioState) -> Result<Scenario, TimingError> {
    let lookup = |name: &str| {
        net.node_by_name(name)
            .ok_or_else(|| TimingError::UnknownNode {
                name: name.to_string(),
            })
    };
    let input = lookup(&st.input)?;
    if net.node(input).kind() != NodeKind::Input {
        return Err(TimingError::NotAnInput {
            name: st.input.clone(),
        });
    }
    let mut statics = HashMap::new();
    for (name, level) in &st.statics {
        statics.insert(lookup(name)?, *level);
    }
    Ok(Scenario {
        input,
        edge: st.edge,
        input_transition: st.input_transition,
        statics,
    })
}

/// The `(before, after)` steady-state pair of every non-rail node, keyed
/// by name.
fn logic_pairs(
    net: &Network,
    (before, after): &(LogicState, LogicState),
) -> HashMap<String, (LogicValue, LogicValue)> {
    net.nodes()
        .filter(|(_, node)| !node.kind().is_rail())
        .map(|(id, node)| (node.name().to_string(), (before.value(id), after.value(id))))
        .collect()
}

/// Scenario-independent dirt: the node names an edit touches
/// structurally. Rails are excluded (their logic is fixed and stage
/// roots carry no capacitance); a node changing kind to or from a rail
/// is drastic enough to invalidate everything instead.
fn structural_dirt(
    old_net: &Network,
    new_net: &Network,
    d: &NetworkDiff,
) -> (BTreeSet<String>, bool) {
    let mut rails = BTreeSet::new();
    for net in [old_net, new_net] {
        rails.insert(net.node(net.power()).name().to_string());
        rails.insert(net.node(net.ground()).name().to_string());
    }
    let dirty: BTreeSet<String> = d
        .touched_nodes()
        .into_iter()
        .filter(|n| !rails.contains(n))
        .collect();
    let invalidate_all = d
        .kind_changed
        .iter()
        .any(|k| k.from.is_rail() != k.to.is_rail());
    (dirty, invalidate_all)
}

/// Re-analyzes one scenario against `new_net`, invalidating only targets
/// whose support meets the dirty set (see the [module docs](self)).
#[allow(clippy::too_many_arguments)]
fn reanalyze_scenario(
    old_net: &Network,
    new_net: &Network,
    tech: &Technology,
    model: ModelKind,
    options: &AnalyzerOptions,
    st: &ScenarioState,
    dirty_base: &BTreeSet<String>,
    invalidate_all: bool,
) -> Result<NewState, TimingError> {
    let scenario = resolve_scenario(new_net, st)?;
    let steady = traced_steady_states(new_net, &scenario, options.trace.as_deref());
    let new_logic = logic_pairs(new_net, &steady);

    // Scenario dirt: structural dirt plus every node whose steady-state
    // pair changed (conduction, edge membership, cap discounts, and
    // reservoir status all derive from it).
    let mut dirty = dirty_base.clone();
    for (name, pair) in &new_logic {
        if st.logic.get(name) != Some(pair) {
            dirty.insert(name.clone());
        }
    }
    for name in st.logic.keys() {
        if !new_logic.contains_key(name) {
            dirty.insert(name.clone());
        }
    }

    // Switching targets of the new network, exactly as the analyzer
    // selects them, in node order.
    let (before, after) = &steady;
    let mut targets: Vec<(NodeId, Edge)> = new_net
        .nodes()
        .filter(|(_, node)| !node.kind().is_rail())
        .filter_map(|(id, node)| {
            let (b, a) = (before.value(id), after.value(id));
            if !a.is_known() || b == a {
                return None;
            }
            if id == scenario.input || node.kind().is_driven_externally() {
                return None;
            }
            let edge = if a == LogicValue::One {
                Edge::Rising
            } else {
                Edge::Falling
            };
            Some((id, edge))
        })
        .collect();
    targets.sort_by_key(|&(id, _)| id);

    // Support sets. Components of the potentially-conducting channel
    // graph (conducting before OR after — both states can shape stages
    // and releasing devices), rails as barriers; a component's support is
    // its member names plus the gate names of every transistor whose
    // channel touches a member.
    let cond: Vec<bool> = new_net
        .transistors()
        .map(|(tid, _)| before.transistor_on(new_net, tid) || after.transistor_on(new_net, tid))
        .collect();
    let mut comp = vec![usize::MAX; new_net.node_count()];
    let mut n_comp = 0usize;
    for (id, node) in new_net.nodes() {
        if node.kind().is_rail() || comp[id.index()] != usize::MAX {
            continue;
        }
        let c = n_comp;
        n_comp += 1;
        comp[id.index()] = c;
        let mut queue = vec![id];
        while let Some(at) = queue.pop() {
            for &tid in new_net.channel_neighbors(at) {
                if !cond[tid.index()] {
                    continue;
                }
                let other = new_net.transistor(tid).other_terminal(at);
                if new_net.node(other).kind().is_rail() || comp[other.index()] != usize::MAX {
                    continue;
                }
                comp[other.index()] = c;
                queue.push(other);
            }
        }
    }
    let mut support: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); n_comp];
    for (id, node) in new_net.nodes() {
        if !node.kind().is_rail() {
            support[comp[id.index()]].insert(node.name());
        }
    }
    for (_, t) in new_net.transistors() {
        let gate = new_net.node(t.gate()).name();
        for term in [t.source(), t.drain()] {
            if !new_net.node(term).kind().is_rail() {
                support[comp[term.index()]].insert(gate);
            }
        }
    }

    // Invalidation: dirty support, brand-new targets, and targets whose
    // previous cause no longer exists — then the transitive closure over
    // affected targets.
    let dirty_ref: BTreeSet<&str> = dirty.iter().map(String::as_str).collect();
    let mut affected: BTreeSet<&str> = BTreeSet::new();
    for &(id, edge) in &targets {
        let name = new_net.node(id).name();
        let sup = &support[comp[id.index()]];
        let prev = old_net
            .node_by_name(name)
            .and_then(|oid| st.result.arrival(oid));
        let fresh_target = match prev {
            None => true,
            Some(a) => {
                a.edge != edge
                    || a.cause
                        .is_some_and(|c| new_net.node_by_name(old_net.node(c).name()).is_none())
            }
        };
        if invalidate_all || fresh_target || !sup.is_disjoint(&dirty_ref) {
            affected.insert(name);
        }
    }
    loop {
        let mut grown = false;
        for &(id, _) in &targets {
            let name = new_net.node(id).name();
            if affected.contains(name) {
                continue;
            }
            if !support[comp[id.index()]].is_disjoint(&affected) {
                affected.insert(name);
                grown = true;
            }
        }
        if !grown {
            break;
        }
    }

    // Partition: affected targets re-analyze, the rest replay.
    let mut affected_ids = Vec::new();
    let mut seeded = Vec::new();
    let mut reused_stages = 0usize;
    let mut stage_counts: HashMap<String, usize> = HashMap::new();
    for &(id, _) in &targets {
        let name = new_net.node(id).name();
        if affected.contains(name) {
            affected_ids.push(id);
            continue;
        }
        let oid = old_net
            .node_by_name(name)
            .expect("unaffected target existed before the edit");
        let a = *st
            .result
            .arrival(oid)
            .expect("unaffected target had an arrival");
        let cause = a.cause.map(|c| {
            new_net
                .node_by_name(old_net.node(c).name())
                .expect("unaffected target's cause survived the edit")
        });
        seeded.push((id, Arrival { cause, ..a }));
        let n = st.stage_counts.get(name).copied().unwrap_or(0);
        reused_stages += n;
        stage_counts.insert(name.to_string(), n);
    }
    let invalidated_targets = affected_ids.len();
    let reused_targets = targets.len() - invalidated_targets;
    let spec = SubsetSpec {
        affected: affected_ids,
        seeded,
    };
    let outcome = analyze_subset(
        new_net,
        tech,
        model,
        &scenario,
        options.clone(),
        Some(&spec),
        &steady,
    )?;
    let mut result = outcome.result;
    let mut invalidated_stages = 0usize;
    for &(id, n) in &outcome.target_stages {
        invalidated_stages += n;
        stage_counts.insert(new_net.node(id).name().to_string(), n);
    }
    let stats = IncrementalStats {
        invalidated_targets,
        reused_targets,
        invalidated_stages,
        reused_stages,
        rounds: outcome.rounds,
    };
    result.incremental = Some(stats);

    // Arrival delta, bit-exact, by name.
    let mut names: BTreeSet<&str> = st
        .result
        .arrivals()
        .map(|(id, _)| old_net.node(id).name())
        .collect();
    names.extend(result.arrivals().map(|(id, _)| new_net.node(id).name()));
    let mut changed = Vec::new();
    for name in names {
        let before_a = old_net
            .node_by_name(name)
            .and_then(|id| st.result.arrival(id))
            .copied();
        let after_a = new_net
            .node_by_name(name)
            .and_then(|id| result.arrival(id))
            .copied();
        let same = match (&before_a, &after_a) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.time.value().to_bits() == y.time.value().to_bits()
                    && x.transition.value().to_bits() == y.transition.value().to_bits()
                    && x.edge == y.edge
                    && x.model == y.model
                    && x.cause.map(|c| old_net.node(c).name())
                        == y.cause.map(|c| new_net.node(c).name())
            }
            _ => false,
        };
        if !same {
            changed.push(ArrivalChange {
                node: name.to_string(),
                before: before_a,
                after: after_a,
            });
        }
    }

    Ok(NewState {
        result,
        logic: new_logic,
        stage_counts,
        delta: ScenarioDelta {
            label: st.label.clone(),
            changed,
            stats,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze_with_options;
    use mosnet::diff::TransistorDesc;
    use mosnet::generators::{carry_chain, inverter_chain, Style};
    use mosnet::units::Farads;
    use mosnet::{Geometry, TransistorKind};

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

    #[test]
    fn randomized_edit_sequences_match_fresh_analysis() {
        // Deterministic xorshift over a resize/cap-tweak edit vocabulary:
        // after every edit the incremental result must equal a fresh
        // serial uncached analysis of the current network, bit for bit.
        let net = inverter_chain(Style::Cmos, 10, 2.5, Farads::from_femto(120.0)).unwrap();
        let input = net.node_by_name("in").unwrap();
        let mut analyzer = session(
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
        let mut reused_total = 0usize;
        for _ in 0..12 {
            let net = analyzer.network();
            let r = rng();
            let edit = if r % 3 == 0 {
                let stage = 1 + (r / 3) as usize % 9;
                let node = if stage == 9 {
                    "s9".to_string()
                } else {
                    format!("s{stage}")
                };
                Edit::SetCapacitance {
                    node,
                    capacitance: Farads::from_femto(4.0 + (r % 17) as f64),
                }
            } else {
                let idx = (r as usize / 5) % net.transistor_count();
                let t = net
                    .transistors()
                    .nth(idx)
                    .map(|(_, t)| t)
                    .expect("index in range");
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
            };
            let report = analyzer.apply_edit(&edit).expect("edit applies");
            reused_total += report.scenarios[0].stats.reused_stages;
            assert_eq!(
                analyzer.result("t").unwrap(),
                &fresh(&analyzer),
                "incremental diverged after {edit:?}"
            );
        }
        assert!(reused_total > 0, "the sequence reused work somewhere");
    }
}
