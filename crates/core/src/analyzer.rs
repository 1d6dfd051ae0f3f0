//! The switch-level static timing analyzer.
//!
//! Given a single-input switching scenario (one primary input transitions,
//! every other input is held at a static level — the same setup the
//! reference simulator measures), the analyzer:
//!
//! 1. solves the switch-level logic state before and after the transition
//!    ([`crate::logic`]), giving the set of *switching nodes* and the
//!    final conduction state of every transistor;
//! 2. extracts, for every switching node, the stages that drive it to its
//!    final value ([`crate::extract`]);
//! 3. propagates `(arrival time, transition time)` pairs from the input
//!    through the stages to a fixpoint, applying the chosen delay model
//!    per stage. For the slope model the propagated transition time feeds
//!    the next stage's slope ratio — the paper's key mechanism.
//!
//! Arrival times are 50%-crossing times; stage delays are 50%→50%.

use crate::budget::{AnalysisBudget, BudgetTracker, CancelToken, PartialTiming};
use crate::error::TimingError;
use crate::extract::stages_to_full;
use crate::logic::{self, LogicState, LogicValue};
use crate::memo::{
    stage_fingerprint, tech_stamp, CacheStats, CachedEval, StageCache, StageKey, StageSetKey,
    SteadyLookup,
};
use crate::models::{estimate_with_fallback, ModelKind, TriggerContext};
use crate::obs::{Phase, TraceSink};
use crate::stage::{StageSet, SwitchingBits};
use crate::tech::{Direction, Technology};
use mosnet::units::Seconds;
use mosnet::{Network, NodeId, NodeKind, TransistorKind};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Weight applied to the capacitance of stage nodes whose logic value is
/// the same before and after the transition. Such nodes (e.g. the
/// pre-discharged internal nodes of a series stack) only redistribute
/// charge transiently instead of swinging rail to rail, so they are
/// fully discounted by default; `1.0` restores the classical fully
/// pessimistic treatment (count every stage capacitance). The
/// `exp_ablation` experiment measures the trade: mean gate error 7.0%
/// (0.0) vs 12.2% (0.5) vs 17.8% (1.0), with worst-case optimism at 0.0
/// of only -1.5%.
pub const NON_SWITCHING_CAP_WEIGHT: f64 = 0.0;

/// Whether the analysis computes the latest (setup-style) or earliest
/// (hold-style) arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnalysisMode {
    /// Latest arrivals: max over stages and triggers (the default).
    #[default]
    WorstCase,
    /// Earliest arrivals: min over stages and triggers — the fast-path
    /// bound used for hold/race checking.
    BestCase,
}

/// Tunable knobs of the analysis; [`AnalyzerOptions::default`] matches
/// the behavior of [`analyze`].
#[derive(Debug, Clone)]
pub struct AnalyzerOptions {
    /// Capacitance weight for nodes whose logic value does not change
    /// across the transition (see [`NON_SWITCHING_CAP_WEIGHT`]).
    pub non_switching_cap_weight: f64,
    /// Latest- or earliest-arrival analysis.
    pub mode: AnalysisMode,
    /// Hard caps on the work this analysis may perform; unlimited by
    /// default. When a cap fires the analyzer returns
    /// [`TimingError::BudgetExhausted`] carrying every arrival computed
    /// so far.
    pub budget: AnalysisBudget,
    /// Scenario-level worker count, read by the entry points that run
    /// many scenarios under one set of options ([`crate::sweep`]'s
    /// `*_with_options` sweeps): `1` (the default) runs them serially,
    /// `0` uses every hardware thread, any other value is taken
    /// literally. One analysis always runs on one thread and ignores it;
    /// results are **bit-identical for every thread count**. Batches
    /// take their worker count from
    /// [`DurableOptions::threads`](crate::durable::DurableOptions).
    pub threads: usize,
    /// Shared stage-evaluation and steady-state memo cache. `None` (the
    /// default) disables memoization; pass a clone of one
    /// [`Arc<StageCache>`] to every analysis that should pool its
    /// evaluations and logic solves. Cached results are bit-identical to
    /// fresh ones (stage keys include the exact input-slope bits and a
    /// technology content stamp, steady-state keys the network's topology
    /// fingerprint and the inputs driven high), so attaching a cache
    /// never changes arrivals.
    pub cache: Option<Arc<StageCache>>,
    /// Observability sink ([`crate::obs`]). `None` (the default) records
    /// nothing; pass a shared [`Arc<TraceSink>`] to collect span timings
    /// and per-phase counters for the logic, extraction, evaluation,
    /// propagation, and cache phases. Tracing never affects arrivals.
    pub trace: Option<Arc<TraceSink>>,
    /// External cooperative-cancellation token. `None` (the default)
    /// never cancels. When the token fires, the analysis stops at its
    /// next budget checkpoint and returns
    /// [`TimingError::BudgetExhausted`] whose partial result carries
    /// [`BudgetExceeded::Cancelled`](crate::budget::BudgetExceeded::Cancelled)
    /// — the hook the durable batch watchdog uses to impose per-scenario
    /// wall-clock deadlines from outside the analysis.
    pub cancel: Option<CancelToken>,
}

impl Default for AnalyzerOptions {
    fn default() -> AnalyzerOptions {
        AnalyzerOptions {
            non_switching_cap_weight: NON_SWITCHING_CAP_WEIGHT,
            mode: AnalysisMode::WorstCase,
            budget: AnalysisBudget::unlimited(),
            threads: 1,
            cache: None,
            trace: None,
            cancel: None,
        }
    }
}

/// A signal transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Low → high.
    Rising,
    /// High → low.
    Falling,
}

impl Edge {
    /// The logic value after the edge.
    #[inline]
    pub fn final_value(self) -> bool {
        self == Edge::Rising
    }

    /// The opposite edge.
    #[inline]
    pub fn inverted(self) -> Edge {
        match self {
            Edge::Rising => Edge::Falling,
            Edge::Falling => Edge::Rising,
        }
    }

    /// The spelling labels, journals and the daemon use: `rise`, `fall`.
    pub fn name(self) -> &'static str {
        match self {
            Edge::Rising => "rise",
            Edge::Falling => "fall",
        }
    }
}

/// The edge-name table the CLI, the daemon and the journals share.
impl std::str::FromStr for Edge {
    type Err = String;

    fn from_str(name: &str) -> Result<Edge, String> {
        match name {
            "rise" | "rising" => Ok(Edge::Rising),
            "fall" | "falling" => Ok(Edge::Falling),
            other => Err(format!("unknown edge `{other}`")),
        }
    }
}

/// One timing scenario: which input switches, how fast, and the static
/// levels of the other inputs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The switching primary input.
    pub input: NodeId,
    /// Direction of the input edge.
    pub edge: Edge,
    /// 10–90% transition time of the input edge.
    pub input_transition: Seconds,
    /// Static levels for the remaining inputs (unlisted inputs are `0`).
    pub statics: HashMap<NodeId, bool>,
}

impl Scenario {
    /// A step scenario: `input` switches with `edge`, everything else low.
    pub fn step(input: NodeId, edge: Edge) -> Scenario {
        Scenario {
            input,
            edge,
            input_transition: Seconds::ZERO,
            statics: HashMap::new(),
        }
    }

    /// Sets a static input level (builder style).
    #[must_use]
    pub fn with_static(mut self, node: NodeId, level: bool) -> Scenario {
        self.statics.insert(node, level);
        self
    }

    /// Sets the input transition time (builder style).
    #[must_use]
    pub fn with_input_transition(mut self, t: Seconds) -> Scenario {
        self.input_transition = t;
        self
    }
}

/// A computed arrival at a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// 50%-crossing time, measured from the input's 50% point.
    pub time: Seconds,
    /// Estimated 10–90% transition time of this node.
    pub transition: Seconds,
    /// Direction of this node's transition.
    pub edge: Edge,
    /// The gate node whose transition triggered the driving stage
    /// (`None` for the scenario input itself).
    pub cause: Option<NodeId>,
    /// The delay model that actually produced this arrival. Matches the
    /// requested model unless fallback degraded the driving stage.
    pub model: ModelKind,
}

/// Accounting of one incremental re-analysis pass over a scenario:
/// how much work the dependency index invalidated versus replayed.
/// Attached to a [`TimingResult`] only by
/// [`IncrementalAnalyzer`](crate::incremental::IncrementalAnalyzer);
/// plain [`analyze`] runs leave it absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Switching targets whose stages were re-extracted and re-evaluated.
    pub invalidated_targets: usize,
    /// Switching targets whose previous arrival was replayed untouched.
    pub reused_targets: usize,
    /// Stages re-extracted for the invalidated targets.
    pub invalidated_stages: usize,
    /// Stages whose previous evaluation was reused via arrival replay.
    pub reused_stages: usize,
    /// Propagation rounds of the subset fixpoint.
    pub rounds: usize,
}

/// The outcome of a timing analysis.
///
/// Equality compares arrivals and the model only: cache statistics and
/// incremental accounting are observability data whose exact counts
/// depend on thread interleaving (two workers can miss on the same key
/// simultaneously) or on edit history, so they are excluded from `==` to
/// keep "same analysis ⇒ equal results" true under concurrency and
/// under incremental replay.
#[derive(Debug, Clone)]
pub struct TimingResult {
    pub(crate) arrivals: Vec<Option<Arrival>>,
    pub(crate) model: ModelKind,
    pub(crate) cache_stats: Option<CacheStats>,
    pub(crate) incremental: Option<IncrementalStats>,
}

impl PartialEq for TimingResult {
    fn eq(&self, other: &TimingResult) -> bool {
        self.arrivals == other.arrivals && self.model == other.model
    }
}

#[cfg(test)]
impl TimingResult {
    /// An empty result for error-formatting tests.
    pub(crate) fn empty_for_tests() -> TimingResult {
        TimingResult {
            arrivals: Vec::new(),
            model: ModelKind::Slope,
            cache_stats: None,
            incremental: None,
        }
    }
}

impl TimingResult {
    /// The model that produced this result.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// Stage-cache hit/miss/eviction counts accrued by *this* analysis
    /// (a delta, not the cache's lifetime totals). `None` when the
    /// analysis ran without a cache.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache_stats
    }

    /// Invalidation/reuse accounting when this result was produced by an
    /// incremental re-analysis
    /// ([`IncrementalAnalyzer`](crate::incremental::IncrementalAnalyzer));
    /// `None` for ordinary full analyses.
    pub fn incremental(&self) -> Option<IncrementalStats> {
        self.incremental
    }

    /// The arrival at `node`, if it switches in this scenario.
    pub fn arrival(&self, node: NodeId) -> Option<&Arrival> {
        self.arrivals[node.index()].as_ref()
    }

    /// The arrival at `node`, as an error when absent.
    ///
    /// # Errors
    /// Returns [`TimingError::NoArrival`] when the node never switches.
    pub fn delay_to(&self, net: &Network, node: NodeId) -> Result<Arrival, TimingError> {
        self.arrival(node)
            .copied()
            .ok_or_else(|| TimingError::NoArrival {
                name: net.node(node).name().to_string(),
            })
    }

    /// The latest-switching node and its arrival.
    pub fn max_arrival(&self) -> Option<(NodeId, &Arrival)> {
        self.arrivals
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|a| (NodeId::from_index(i), a)))
            .max_by(|a, b| {
                a.1.time
                    .partial_cmp(&b.1.time)
                    .expect("arrival times are finite")
            })
    }

    /// Back-traces the chain of triggering nodes from `node` to the
    /// scenario input (inclusive), latest first.
    pub fn critical_path(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut at = Some(node);
        while let Some(n) = at {
            if path.contains(&n) {
                break; // defensive: never loop
            }
            path.push(n);
            at = self.arrivals[n.index()].as_ref().and_then(|a| a.cause);
        }
        path
    }

    /// Iterates over all `(node, arrival)` pairs.
    pub fn arrivals(&self) -> impl Iterator<Item = (NodeId, &Arrival)> {
        self.arrivals
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|a| (NodeId::from_index(i), a)))
    }
}

/// Runs the analysis.
///
/// # Errors
/// * [`TimingError::NotAnInput`] if the scenario's switching node, or a
///   node it gives a static level, is not a primary input.
/// * [`TimingError::NoFixpoint`] if arrival propagation fails to settle
///   (pathological feedback).
pub fn analyze(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    scenario: &Scenario,
) -> Result<TimingResult, TimingError> {
    analyze_with_options(net, tech, model, scenario, AnalyzerOptions::default())
}

/// Runs the analysis with explicit [`AnalyzerOptions`].
///
/// # Errors
/// See [`analyze`].
pub fn analyze_with_options(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    scenario: &Scenario,
    options: AnalyzerOptions,
) -> Result<TimingResult, TimingError> {
    let trace = options.trace.as_deref();
    let steady = traced_steady_states(net, scenario, options.cache.as_deref(), trace);
    analyze_subset(net, tech, model, scenario, options, None, &steady, None)
        .map(|outcome| outcome.result)
}

/// The switching set of a steady pair: the final edge of every non-rail
/// node whose after value is known and differs from its before value,
/// dense by node id (`None` for every other node), and the same set as
/// one bit per node, which the plans built from it share.
#[derive(Debug, PartialEq)]
pub(crate) struct Switching {
    pub edges: Vec<Option<Edge>>,
    pub bits: Arc<SwitchingBits>,
}

impl Switching {
    /// The switching set of `(before, after)`. Only the nodes whose codes
    /// differ in value bits are decoded
    /// ([`LogicState::for_each_value_change`]). Inside a logic-phase trace
    /// span when `trace` is given.
    pub(crate) fn new(
        net: &Network,
        (before, after): &(LogicState, LogicState),
        trace: Option<&TraceSink>,
    ) -> Switching {
        let _span = trace.map(|t| t.span(Phase::Logic, "switching_set"));
        let mut edges = vec![None; net.node_count()];
        before.for_each_value_change(after, |id, a| {
            if a.is_known() && !net.node(id).kind().is_rail() {
                edges[id.index()] = Some(if a == LogicValue::One {
                    Edge::Rising
                } else {
                    Edge::Falling
                });
            }
        });
        let bits = Arc::new(SwitchingBits::new(&edges));
        Switching { edges, bits }
    }
}

/// The targets of stage extraction, in node order: the switching nodes
/// (see [`Switching`]) that are not driven from outside.
pub(crate) fn switching_targets<'a>(
    net: &'a Network,
    switching: &'a [Option<Edge>],
) -> impl Iterator<Item = (NodeId, Edge)> + 'a {
    (switching.iter().enumerate())
        .filter_map(|(i, edge)| edge.map(|edge| (NodeId::from_index(i), edge)))
        .filter(|&(id, _)| !net.node(id).kind().is_driven_externally())
}

/// The scenario's steady states, inside a logic-phase trace span: every
/// analysis gets them here. With a `cache`, each of the two is looked up
/// in its steady-state memo and solved only on a miss, counted as
/// `logic.steady_hits` and `logic.steady_misses`; the misses replayed
/// against their topology's recorded solve are also counted as
/// `logic.steady_replays`, and the node evaluations the misses made as
/// `logic.node_evals`. Without one, both are solved from scratch
/// ([`logic::steady_states`]). Either way the states are the ones a
/// fresh solve gives.
pub(crate) fn traced_steady_states(
    net: &Network,
    scenario: &Scenario,
    cache: Option<&StageCache>,
    trace: Option<&TraceSink>,
) -> (LogicState, LogicState) {
    let _span = trace.map(|t| t.span(Phase::Logic, "steady_states"));
    let Some(cache) = cache else {
        return logic::steady_states(net, scenario);
    };
    let (mut misses, mut replays, mut evals) = (0, 0, 0);
    let steady = logic::steady_states_by(scenario, |inputs| {
        let (state, lookup) = cache.steady_state(net, inputs);
        if let SteadyLookup::Solved { evals: n } | SteadyLookup::Replayed { evals: n } = lookup {
            misses += 1;
            replays += u64::from(matches!(lookup, SteadyLookup::Replayed { .. }));
            evals += n;
        }
        state
    });
    if let Some(t) = trace {
        t.count(Phase::Logic, "steady_hits", 2 - misses);
        t.count(Phase::Logic, "steady_misses", misses);
        t.count(Phase::Logic, "steady_replays", replays);
        t.count(Phase::Logic, "node_evals", evals);
    }
    steady
}

/// Restriction of one analysis to a dependency-closed subset of the
/// switching targets, with every other target's arrival replayed from a
/// previous result. Built only by [`crate::incremental`], which is
/// responsible for the closure invariant: every target whose evaluation
/// can observe a changed input (stage structure, logic state, or the
/// arrival of another affected target) must be in `affected`.
pub(crate) struct SubsetSpec {
    /// Targets to re-extract and re-evaluate, sorted by node id.
    pub affected: Vec<NodeId>,
    /// Replayed `(node, arrival)` pairs for the targets outside
    /// `affected`, installed before propagation starts.
    pub seeded: Vec<(NodeId, Arrival)>,
}

/// A [`TimingResult`] plus the per-target accounting the incremental
/// engine needs to maintain its dependency index across edits.
pub(crate) struct AnalysisOutcome {
    pub result: TimingResult,
    /// `(target, extracted stage count)` for every evaluated target.
    pub target_stages: Vec<(NodeId, usize)>,
    /// Propagation rounds until the fixpoint settled.
    pub rounds: usize,
}

/// The full analysis pipeline, optionally restricted to a subset of
/// targets (see [`SubsetSpec`]), given the scenario's
/// [`logic::steady_states`] and, from a caller that keeps it, their
/// [`Switching`] set. Without it, the switching set is the memoized
/// stage set's, or is derived inside the extraction span on a miss.
/// `analyze_with_options` is the public entry point;
/// [`crate::incremental`] calls this directly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze_subset(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    scenario: &Scenario,
    options: AnalyzerOptions,
    subset: Option<&SubsetSpec>,
    steady: &(LogicState, LogicState),
    switching: Option<&Switching>,
) -> Result<AnalysisOutcome, TimingError> {
    if net.node(scenario.input).kind() != NodeKind::Input {
        return Err(TimingError::NotAnInput {
            name: net.node(scenario.input).name().to_string(),
        });
    }
    logic::require_inputs(net, &scenario.statics)?;

    let trace: Option<&TraceSink> = options.trace.as_deref();

    // The input arrival is seeded before any budgeted work so that a
    // budget-exhausted partial result is never empty.
    let seed_span = trace.map(|t| t.span(Phase::Propagation, "seed_arrivals"));
    let mut arrivals: Vec<Option<Arrival>> = vec![None; net.node_count()];
    arrivals[scenario.input.index()] = Some(Arrival {
        time: Seconds::ZERO,
        transition: scenario.input_transition,
        edge: scenario.edge,
        cause: None,
        model,
    });
    // Replayed arrivals of untouched targets go in before propagation:
    // affected targets read them as settled trigger inputs from round 0.
    if let Some(spec) = subset {
        for &(node, arrival) in &spec.seeded {
            arrivals[node.index()] = Some(arrival);
        }
    }
    drop(seed_span);
    let tracker = BudgetTracker::new(options.budget, options.cancel.clone());
    let cache_ref: Option<&StageCache> = options.cache.as_deref();
    // This analysis's share of the cache traffic is counted in private
    // counters bumped at the probe site — *not* as a start/end delta of
    // the shared cache's lifetime counters. The cache typically serves a
    // whole batch of concurrent scenarios, and a window delta also counts
    // every probe the neighbors made in the meantime (observed as ~1.6×
    // inflated hit counts at threads ≥ 2 for identical work).
    let cache_ctx: Option<CacheCtx<'_>> = cache_ref.map(|c| CacheCtx {
        cache: c,
        stamp: tech_stamp(tech),
        hits: Cell::new(0),
        misses: Cell::new(0),
        evictions: Cell::new(0),
    });
    // Recorded into the trace sink on every exit path, success or
    // budget-exhausted alike.
    let cache_stats_now = || {
        let stats = cache_ctx.as_ref().map(CacheCtx::stats);
        if let (Some(t), Some(s)) = (trace, stats.as_ref()) {
            t.count(Phase::Cache, "hits", s.hits);
            t.count(Phase::Cache, "misses", s.misses);
            t.count(Phase::Cache, "evictions", s.evictions);
        }
        stats
    };
    // Packages whatever has been computed so far into the partial-result
    // error, preserving the prefix property: arrivals are only added or
    // refined, never removed, so the partial node set is a subset of what
    // an unbudgeted run would produce.
    let exhausted = |arrivals: Vec<Option<Arrival>>,
                     exceeded: crate::budget::BudgetExceeded,
                     rounds_completed: usize| {
        TimingError::BudgetExhausted {
            partial: Box::new(PartialTiming {
                result: TimingResult {
                    arrivals,
                    model,
                    cache_stats: cache_stats_now(),
                    incremental: None,
                },
                exceeded,
                rounds_completed,
            }),
        }
    };

    // A plain cached analysis looks its stage set up before extracting:
    // extraction reads only what the key covers, so a hit is the set a
    // miss would extract (see `crate::memo`). Incremental subsets and
    // uncached analyses always extract.
    let mut extract_span = trace.map(|t| t.span(Phase::Extraction, "extract"));
    let memo: Option<(&StageCache, StageSetKey)> = match (subset, cache_ctx.as_ref()) {
        (None, Some(cc)) => Some((
            cc.cache,
            StageSetKey::new(net, cc.stamp, options.non_switching_cap_weight, scenario),
        )),
        _ => None,
    };
    let memoized = memo.as_ref().and_then(|(cache, key)| cache.stage_set(key));
    if let Some(t) = trace.filter(|_| memo.is_some()) {
        let hit = u64::from(memoized.is_some());
        t.count(Phase::Extraction, "work_hits", hit);
        t.count(Phase::Extraction, "work_misses", 1 - hit);
    }

    if let Err(e) = tracker.check_deadline() {
        return Err(exhausted(arrivals, e, 0));
    }
    let stage_set: Arc<StageSet> = match memoized {
        // The budget trips as on a miss: the deadline above, then each
        // target's path count in node order.
        Some(set) => {
            for target in set.targets() {
                if let Err(e) = tracker.check_paths(target.len()) {
                    return Err(exhausted(arrivals, e, 0));
                }
            }
            set
        }
        None => {
            let derived;
            let switching = match switching {
                Some(kept) => kept,
                None => {
                    derived = Switching::new(net, steady, None);
                    &derived
                }
            };
            // Targets in deterministic node order. Under a subset
            // restriction only the affected targets are (re-)extracted;
            // the rest keep their replayed arrivals.
            let targets: Vec<(NodeId, Edge)> = match subset {
                Some(spec) => (spec.affected.iter())
                    .filter_map(|&node| switching.edges[node.index()].map(|edge| (node, edge)))
                    .filter(|&(node, _)| !net.node(node).kind().is_driven_externally())
                    .collect(),
                None => switching_targets(net, &switching.edges).collect(),
            };
            let set = extract_stage_set(
                net,
                tech,
                steady,
                &switching.bits,
                &targets,
                options.non_switching_cap_weight,
                cache_ctx.is_some(),
                &tracker,
            );
            let set = match set {
                Ok(set) => Arc::new(set),
                Err(e) => return Err(exhausted(arrivals, e, 0)),
            };
            if let Some((cache, key)) = memo {
                cache.insert_stage_set(key, Arc::clone(&set));
            }
            set
        }
    };
    let targets = stage_set.targets();
    let plan = stage_set.plan();
    if let Some(span) = extract_span.as_mut() {
        span.field("targets", targets.len());
    }
    if let Some(t) = trace {
        let stages = stage_set.stage_count() as u64;
        t.count(Phase::Extraction, "stages_extracted", stages);
    }
    drop(extract_span);
    let mut target_stages: Vec<(NodeId, usize)> =
        targets.iter().map(|t| (t.node, t.len())).collect();

    // Propagation evaluates against the previous round's arrival
    // snapshot, then merges the updates in node order. The snapshot
    // rounds define the results (every pinned digest was recorded under
    // them): in-round (Gauss-Seidel) updates would converge to other
    // last bits. Round 0 examines every target; each later round
    // examines only the plan's observers of a target whose arrival the
    // previous round's merge changed (Crystal's rule): a target whose
    // observed arrivals did not change would reproduce its previous
    // candidate bit for bit, so skipping it cannot alter the fixpoint or
    // the round count.
    let max_rounds = targets.len() + 2;
    let mut dirty: Vec<usize> = (0..targets.len()).collect();
    for round in 0..=max_rounds {
        let _round_span = trace.map(|t| {
            let mut span = t.span(Phase::Propagation, "round");
            span.field("round", round);
            span.field("dirty", dirty.len());
            span
        });
        if let Err(e) = tracker.check_deadline() {
            return Err(exhausted(arrivals, e, round));
        }
        // Budget is committed in node order (`dirty` holds ascending
        // target indices and `targets` is sorted by node id) before the
        // round evaluates: the round evaluates exactly the prefix of
        // dirty nodes whose charges fit, so a tripped budget yields a
        // prefix of the unbudgeted result, cold cache or warm.
        let mut cutoff = dirty.len();
        let mut tripped = None;
        for (i, &wi) in dirty.iter().enumerate() {
            if let Err(e) = tracker.charge_stage_evals(targets[wi].len()) {
                cutoff = i;
                tripped = Some(e);
                break;
            }
        }
        let ready = &dirty[..cutoff];
        if let Some(t) = trace {
            let evals: usize = ready.iter().map(|&wi| targets[wi].len()).sum();
            t.count(Phase::Evaluation, "stage_evals_charged", evals as u64);
        }
        let eval_span = trace.map(|t| {
            let mut span = t.span(Phase::Evaluation, "evaluate");
            span.field("nodes", cutoff);
            span
        });
        let candidates: Vec<Option<Arrival>> = ready
            .iter()
            .map(|&wi| {
                evaluate_node(
                    net,
                    tech,
                    model,
                    &arrivals,
                    &stage_set,
                    wi,
                    options.mode,
                    cache_ctx.as_ref(),
                )
            })
            .collect();
        drop(eval_span);
        let mut changed = false;
        let mut next_dirty: Vec<usize> = Vec::new();
        for (&wi, candidate) in ready.iter().zip(candidates) {
            if let Some(candidate) = candidate {
                let node = targets[wi].node;
                let update = match &arrivals[node.index()] {
                    None => true,
                    Some(prev) => {
                        (candidate.time.value() - prev.time.value()).abs() > 1e-18
                            || (candidate.transition.value() - prev.transition.value()).abs()
                                > 1e-18
                    }
                };
                if update {
                    arrivals[node.index()] = Some(candidate);
                    changed = true;
                    next_dirty.extend(plan.observers(wi).iter().map(|&o| o as usize));
                }
            }
        }
        if let Some(e) = tripped {
            return Err(exhausted(arrivals, e, round));
        }
        if !changed {
            // Free the stages inside the last round's span: releasing
            // hundreds of stage trees is the propagation's teardown, and
            // otherwise the largest cost no span explains. A memoized set
            // only drops a reference.
            drop(stage_set);
            return Ok(AnalysisOutcome {
                result: TimingResult {
                    arrivals,
                    model,
                    cache_stats: cache_stats_now(),
                    incremental: None,
                },
                target_stages: std::mem::take(&mut target_stages),
                rounds: round,
            });
        }
        if round == max_rounds {
            return Err(TimingError::NoFixpoint {
                iterations: max_rounds,
            });
        }
        next_dirty.sort_unstable();
        next_dirty.dedup();
        dirty = next_dirty;
    }
    unreachable!("loop always returns");
}

/// Extracts the stages of every target in node order, with their
/// fingerprints when `fingerprinted` (the set then interns its trees),
/// and the plan of the steady pair, whose switching set is `switching`.
/// The first target whose extraction trips the budget ends it.
#[allow(clippy::too_many_arguments)]
fn extract_stage_set(
    net: &Network,
    tech: &Technology,
    steady: &(LogicState, LogicState),
    switching: &Arc<SwitchingBits>,
    targets: &[(NodeId, Edge)],
    non_switching_cap_weight: f64,
    fingerprinted: bool,
    tracker: &BudgetTracker,
) -> Result<StageSet, crate::budget::BudgetExceeded> {
    let (before, after) = steady;
    let conducting = |tid| after.transistor_on(net, tid);
    // Capacitance on nodes whose logic value does not change (e.g. a
    // pre-discharged series-stack internal node) only redistributes
    // charge transiently; counting it in full makes gate stages
    // noticeably pessimistic. Known-static nodes are down-weighted.
    let cap_scale = |node: NodeId| -> f64 {
        let (b, a) = (before.value(node), after.value(node));
        if a.is_known() && b == a {
            non_switching_cap_weight
        } else {
            1.0
        }
    };
    let extracted = targets
        .iter()
        .map(|&(node, edge)| {
            tracker.check_deadline()?;
            let direction = if edge == Edge::Rising {
                Direction::PullUp
            } else {
                Direction::PullDown
            };
            // A path node already sitting (and staying) at logic One is a
            // charge reservoir for a pull-up stage: its stored charge
            // (C·Vdd) supplies the early transition. The discount applies
            // only to charging — a discharged node holds no charge to
            // donate, and treating it as a source makes pull-down stacks
            // optimistic (see `extract::stages_to_full`).
            let reservoir = |n: NodeId| -> bool {
                edge == Edge::Rising
                    && before.value(n) == LogicValue::One
                    && after.value(n) == LogicValue::One
            };
            let stages = stages_to_full(
                net,
                tech,
                &conducting,
                node,
                direction,
                &cap_scale,
                &reservoir,
            );
            tracker.check_paths(stages.len())?;
            let fingerprints =
                fingerprinted.then(|| stages.iter().map(stage_fingerprint).collect());
            Ok((stages, fingerprints))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let set = StageSet::new(
        targets
            .iter()
            .zip(extracted)
            .map(|(&(node, edge), (stages, fingerprints))| (node, edge, stages, fingerprints)),
    );
    Ok(set.with_plan(net, steady, Arc::clone(switching)))
}

/// Shared stage-memo handle plus this analysis's private probe counters
/// (see `analyze_subset` for why the counters are not read off the
/// shared cache). One thread probes per analysis, so plain cells do.
struct CacheCtx<'a> {
    cache: &'a StageCache,
    stamp: u64,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

impl CacheCtx<'_> {
    /// Exact per-analysis counts.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }
}

/// Computes the worst-case arrival of the `wi`th target of `stage_set`,
/// or `None` if no driving stage is ready yet.
#[allow(clippy::too_many_arguments)]
fn evaluate_node(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    arrivals: &[Option<Arrival>],
    stage_set: &StageSet,
    wi: usize,
    mode: AnalysisMode,
    cache: Option<&CacheCtx<'_>>,
) -> Option<Arrival> {
    let target = &stage_set.targets()[wi];
    let plan = stage_set.plan();
    let node = target.node;
    let trigger_wins = |candidate: Seconds, best: Seconds| match mode {
        AnalysisMode::WorstCase => candidate > best,
        AnalysisMode::BestCase => candidate < best,
    };
    let mut worst: Option<Arrival> = None;
    for stage in stage_set.stages(target) {
        // Trigger candidates: switching gates along the path (self-gates —
        // a load whose gate is the target itself — excluded)…
        let mut trigger: Option<(Seconds, Seconds, TransistorKind, NodeId)> = None;
        let mut waiting = false;
        for &tid in stage.path {
            let t = net.transistor(tid);
            let gate = t.gate();
            if gate == node || !plan.switches(gate) {
                continue;
            }
            match &arrivals[gate.index()] {
                Some(a) => {
                    let kind = t.kind();
                    if trigger.as_ref().is_none_or(|t| trigger_wins(a.time, t.0)) {
                        trigger = Some((a.time, a.transition, kind, gate));
                    }
                }
                None => waiting = true,
            }
        }
        // …plus the plan's releasing gates: devices touching the target
        // that conducted before but not after (the old holding path
        // turning off), e.g. the pull-down under an nMOS depletion load.
        for &gate in plan.releasing(wi) {
            match &arrivals[gate.index()] {
                Some(a) => {
                    let kind = stage
                        .path
                        .first()
                        .map(|&t| net.transistor(t).kind())
                        .unwrap_or(TransistorKind::NEnhancement);
                    if trigger.as_ref().is_none_or(|t| trigger_wins(a.time, t.0)) {
                        trigger = Some((a.time, a.transition, kind, gate));
                    }
                }
                None => waiting = true,
            }
        }

        if waiting && trigger.is_none() {
            continue; // not ready this round
        }
        let (t_trig, transition, kind, cause) = trigger.unwrap_or((
            Seconds::ZERO,
            Seconds::ZERO,
            stage
                .path
                .first()
                .map(|&t| net.transistor(t).kind())
                .unwrap_or(TransistorKind::NEnhancement),
            node,
        ));
        let ctx = TriggerContext {
            input_transition: transition,
            trigger_kind: kind,
        };
        // The memo key covers everything the models consume (stage
        // topology, technology stamp, slope bucket, model, trigger kind),
        // and the slope bucket is exact, so a hit is bit-identical to a
        // fresh evaluation. Failed evaluations are not cached: they are
        // rare (broken technology tables) and skipping them is cheap.
        let key = cache.zip(stage.fingerprint).map(|(cc, fingerprint)| {
            StageKey::new(
                fingerprint,
                cc.stamp,
                ctx.input_transition,
                model,
                ctx.trigger_kind,
            )
        });
        let memoized = match (cache, &key) {
            (Some(cc), Some(k)) => match cc.cache.lookup(k) {
                Some(v) => {
                    cc.hits.set(cc.hits.get() + 1);
                    Some((v.delay, v.used_model))
                }
                None => {
                    cc.misses.set(cc.misses.get() + 1);
                    None
                }
            },
            _ => None,
        };
        let (d, used_model) = match memoized {
            Some(pair) => pair,
            None => {
                let computed = match estimate_with_fallback(model, tech, stage.electrical, ctx) {
                    Ok(pair) => pair,
                    // Fail-soft: when even the lumped model cannot
                    // produce a usable number for this stage, skip it
                    // rather than poisoning the whole analysis with
                    // NaN/negative times.
                    Err(_) => continue,
                };
                if let (Some(cc), Some(k)) = (cache, &key) {
                    let evicted = cc.cache.insert(
                        *k,
                        CachedEval {
                            delay: computed.0,
                            used_model: computed.1,
                        },
                    );
                    if evicted {
                        cc.evictions.set(cc.evictions.get() + 1);
                    }
                }
                computed
            }
        };
        let candidate = Arrival {
            time: t_trig + d.delay,
            transition: d.output_transition,
            edge: target.edge,
            cause: if cause == node { None } else { Some(cause) },
            model: used_model,
        };
        if worst
            .as_ref()
            .is_none_or(|w| trigger_wins(candidate.time, w.time))
        {
            worst = Some(candidate);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosnet::generators::{decoder2to4, inverter, inverter_chain, nand, pass_chain, Style};
    use mosnet::units::Farads;

    fn tech() -> Technology {
        Technology::nominal()
    }

    #[test]
    fn inverter_falls_when_input_rises() {
        let net = inverter(Style::Cmos, Farads::from_femto(100.0));
        let inp = net.node_by_name("in").unwrap();
        let out = net.node_by_name("out").unwrap();
        let result = analyze(
            &net,
            &tech(),
            ModelKind::Slope,
            &Scenario::step(inp, Edge::Rising),
        )
        .unwrap();
        let a = result.delay_to(&net, out).unwrap();
        assert_eq!(a.edge, Edge::Falling);
        assert!(a.time.value() > 0.0);
        assert_eq!(a.cause, Some(inp));
    }

    #[test]
    fn chain_arrival_accumulates_per_stage() {
        let net = inverter_chain(Style::Cmos, 4, 1.0, Farads::from_femto(100.0)).unwrap();
        let inp = net.node_by_name("in").unwrap();
        let out = net.node_by_name("out").unwrap();
        let result = analyze(
            &net,
            &tech(),
            ModelKind::Slope,
            &Scenario::step(inp, Edge::Rising),
        )
        .unwrap();
        // Arrivals strictly increase along the chain.
        let mut last = Seconds::ZERO;
        for name in ["s1", "s2", "s3", "out"] {
            let n = net.node_by_name(name).unwrap();
            let a = result.delay_to(&net, n).unwrap();
            assert!(a.time > last, "{name} must arrive after its driver");
            last = a.time;
        }
        // Output edge after an even number of inversions matches input.
        assert_eq!(result.delay_to(&net, out).unwrap().edge, Edge::Rising);
        // Critical path traces back to the input.
        let path = result.critical_path(out);
        assert_eq!(path.last(), Some(&inp));
        assert_eq!(path.len(), 5);
    }

    #[test]
    fn nand_only_switches_with_sensitized_side_input() {
        let net = nand(Style::Cmos, 2, Farads::from_femto(100.0)).unwrap();
        let a0 = net.node_by_name("a0").unwrap();
        let a1 = net.node_by_name("a1").unwrap();
        let out = net.node_by_name("out").unwrap();
        // a1 = 1: output responds to a0.
        let result = analyze(
            &net,
            &tech(),
            ModelKind::Slope,
            &Scenario::step(a0, Edge::Rising).with_static(a1, true),
        )
        .unwrap();
        assert_eq!(result.delay_to(&net, out).unwrap().edge, Edge::Falling);
        // a1 = 0: output stays high; no arrival.
        let result = analyze(
            &net,
            &tech(),
            ModelKind::Slope,
            &Scenario::step(a0, Edge::Rising).with_static(a1, false),
        )
        .unwrap();
        assert!(result.arrival(out).is_none());
        assert!(result.delay_to(&net, out).is_err());
    }

    #[test]
    fn nmos_rising_output_is_triggered_by_releasing_pulldown() {
        let net = inverter(Style::Nmos, Farads::from_femto(100.0));
        let inp = net.node_by_name("in").unwrap();
        let out = net.node_by_name("out").unwrap();
        // Input falls ⇒ pull-down releases ⇒ depletion load pulls up.
        let result = analyze(
            &net,
            &tech(),
            ModelKind::Slope,
            &Scenario::step(inp, Edge::Falling),
        )
        .unwrap();
        let a = result.delay_to(&net, out).unwrap();
        assert_eq!(a.edge, Edge::Rising);
        assert!(a.time.value() > 0.0);
        assert_eq!(a.cause, Some(inp));
    }

    #[test]
    fn pass_chain_delay_grows_with_length() {
        let mut last = 0.0;
        for n in [1, 2, 4, 8] {
            let net = pass_chain(
                Style::Cmos,
                n,
                Farads::from_femto(50.0),
                Farads::from_femto(100.0),
            )
            .unwrap();
            let inp = net.node_by_name("in").unwrap();
            let ctl = net.node_by_name("ctl").unwrap();
            let out = net.node_by_name("out").unwrap();
            let result = analyze(
                &net,
                &tech(),
                ModelKind::Slope,
                &Scenario::step(inp, Edge::Falling).with_static(ctl, true),
            )
            .unwrap();
            let t = result.delay_to(&net, out).unwrap().time.value();
            assert!(t > last, "length {n}: {t} not > {last}");
            last = t;
        }
    }

    #[test]
    fn lumped_exceeds_rctree_on_pass_chain_analysis() {
        let net = pass_chain(
            Style::Cmos,
            8,
            Farads::from_femto(50.0),
            Farads::from_femto(100.0),
        )
        .unwrap();
        let inp = net.node_by_name("in").unwrap();
        let ctl = net.node_by_name("ctl").unwrap();
        let out = net.node_by_name("out").unwrap();
        let scenario = Scenario::step(inp, Edge::Falling).with_static(ctl, true);
        let lumped = analyze(&net, &tech(), ModelKind::Lumped, &scenario)
            .unwrap()
            .delay_to(&net, out)
            .unwrap()
            .time;
        let rctree = analyze(&net, &tech(), ModelKind::RcTree, &scenario)
            .unwrap()
            .delay_to(&net, out)
            .unwrap()
            .time;
        assert!(lumped.value() > 1.3 * rctree.value());
    }

    #[test]
    fn slope_model_propagates_transition_times() {
        // A slow input must lengthen the first stage's delay under the
        // slope model but not under lumped/rc-tree.
        let net = inverter_chain(Style::Cmos, 2, 1.0, Farads::from_femto(100.0)).unwrap();
        let inp = net.node_by_name("in").unwrap();
        let out = net.node_by_name("out").unwrap();
        let fast = Scenario::step(inp, Edge::Rising);
        let slow =
            Scenario::step(inp, Edge::Rising).with_input_transition(Seconds::from_nanos(20.0));
        let t_fast = analyze(&net, &tech(), ModelKind::Slope, &fast)
            .unwrap()
            .delay_to(&net, out)
            .unwrap()
            .time;
        let t_slow = analyze(&net, &tech(), ModelKind::Slope, &slow)
            .unwrap()
            .delay_to(&net, out)
            .unwrap()
            .time;
        assert!(t_slow > t_fast);
        for model in [ModelKind::Lumped, ModelKind::RcTree] {
            let a = analyze(&net, &tech(), model, &fast)
                .unwrap()
                .delay_to(&net, out)
                .unwrap()
                .time;
            let b = analyze(&net, &tech(), model, &slow)
                .unwrap()
                .delay_to(&net, out)
                .unwrap()
                .time;
            assert_eq!(a, b, "{model} ignores input slope");
        }
    }

    #[test]
    fn decoder_word_lines_switch_appropriately() {
        let net = decoder2to4(Style::Cmos, Farads::from_femto(100.0)).unwrap();
        let a0 = net.node_by_name("a0").unwrap();
        // a0: 0→1 with a1=0 selects w1 (rising) and deselects w0 (falling).
        let result = analyze(
            &net,
            &tech(),
            ModelKind::Slope,
            &Scenario::step(a0, Edge::Rising),
        )
        .unwrap();
        let w0 = net.node_by_name("w0").unwrap();
        let w1 = net.node_by_name("w1").unwrap();
        assert_eq!(result.delay_to(&net, w0).unwrap().edge, Edge::Falling);
        assert_eq!(result.delay_to(&net, w1).unwrap().edge, Edge::Rising);
        let w3 = net.node_by_name("w3").unwrap();
        assert!(result.arrival(w3).is_none());
        // Something is the global maximum.
        assert!(result.max_arrival().is_some());
    }

    #[test]
    fn rejects_non_input_scenario() {
        let net = inverter(Style::Cmos, Farads::from_femto(10.0));
        let out = net.node_by_name("out").unwrap();
        assert!(matches!(
            analyze(
                &net,
                &tech(),
                ModelKind::Slope,
                &Scenario::step(out, Edge::Rising)
            ),
            Err(TimingError::NotAnInput { .. })
        ));
    }

    #[test]
    fn rejects_static_level_on_non_input() {
        let net = inverter_chain(Style::Cmos, 2, 2.0, Farads::from_femto(100.0)).unwrap();
        let input = net.node_by_name("in").unwrap();
        let out = net.node_by_name("out").unwrap();
        let scenario = Scenario::step(input, Edge::Rising).with_static(out, true);
        assert_eq!(
            analyze(&net, &tech(), ModelKind::Slope, &scenario).unwrap_err(),
            TimingError::NotAnInput { name: "out".into() }
        );
        let sweep = crate::sweep::sweep_inputs(
            &net,
            &tech(),
            ModelKind::Slope,
            Seconds::ZERO,
            &HashMap::from([(out, false)]),
        );
        assert!(matches!(sweep, Err(TimingError::NotAnInput { .. })));
    }

    #[test]
    fn best_case_arrivals_never_exceed_worst_case() {
        use crate::analyzer::{analyze_with_options, AnalysisMode, AnalyzerOptions};
        use mosnet::generators::barrel_shifter;
        let circuits: Vec<(mosnet::Network, &str, Scenario)> = vec![
            {
                let net = inverter_chain(Style::Cmos, 3, 2.0, Farads::from_femto(100.0)).unwrap();
                let s = Scenario::step(net.node_by_name("in").unwrap(), Edge::Rising);
                (net, "out", s)
            },
            {
                let net = barrel_shifter(Style::Cmos, 4, Farads::from_femto(100.0)).unwrap();
                let s = Scenario::step(net.node_by_name("d0").unwrap(), Edge::Falling)
                    .with_static(net.node_by_name("sh1").unwrap(), true);
                (net, "q3", s)
            },
        ];
        for (net, out_name, scenario) in circuits {
            let out = net.node_by_name(out_name).unwrap();
            let worst = analyze(&net, &tech(), ModelKind::Slope, &scenario)
                .unwrap()
                .delay_to(&net, out)
                .unwrap()
                .time;
            let best = analyze_with_options(
                &net,
                &tech(),
                ModelKind::Slope,
                &scenario,
                AnalyzerOptions {
                    mode: AnalysisMode::BestCase,
                    ..AnalyzerOptions::default()
                },
            )
            .unwrap()
            .delay_to(&net, out)
            .unwrap()
            .time;
            assert!(best <= worst, "{out_name}: best {best:?} > worst {worst:?}");
            assert!(best.value() > 0.0);
        }
    }

    #[test]
    fn best_case_is_strictly_earlier_with_racing_parallel_paths() {
        use crate::analyzer::{analyze_with_options, AnalysisMode, AnalyzerOptions};
        use mosnet::network::NetworkBuilder;
        use mosnet::node::NodeKind;
        use mosnet::{Geometry, TransistorKind};
        // Two parallel pull-ups to `out`: an n-pass gated directly by the
        // input (fires at t = 0) and a p-pass gated by an inverted copy
        // (fires one inverter delay later). Worst case waits for the
        // slower trigger; best case takes the fast one.
        let mut b = NetworkBuilder::new("race");
        let vdd = b.power();
        let gnd = b.ground();
        let inp = b.node("in", NodeKind::Input);
        let ninp = b.node("nin", NodeKind::Internal);
        let out = b.node("out", NodeKind::Output);
        b.set_capacitance(ninp, Farads::from_femto(30.0));
        b.set_capacitance(out, Farads::from_femto(100.0));
        // Inverter producing nin.
        b.add_transistor(
            TransistorKind::NEnhancement,
            inp,
            ninp,
            gnd,
            Geometry::from_microns(8.0, 2.0),
        );
        b.add_transistor(
            TransistorKind::PEnhancement,
            inp,
            ninp,
            vdd,
            Geometry::from_microns(16.0, 2.0),
        );
        // Fast path: n-pass gated by in.
        b.add_transistor(
            TransistorKind::NEnhancement,
            inp,
            vdd,
            out,
            Geometry::from_microns(8.0, 2.0),
        );
        // Slow path: p-pass gated by nin (turns on when nin falls).
        b.add_transistor(
            TransistorKind::PEnhancement,
            ninp,
            vdd,
            out,
            Geometry::from_microns(16.0, 2.0),
        );
        let net = b.build().unwrap();
        let scenario = Scenario::step(inp, Edge::Rising);
        let worst = analyze(&net, &tech(), ModelKind::Slope, &scenario)
            .unwrap()
            .delay_to(&net, out)
            .unwrap();
        let best = analyze_with_options(
            &net,
            &tech(),
            ModelKind::Slope,
            &scenario,
            AnalyzerOptions {
                mode: AnalysisMode::BestCase,
                ..AnalyzerOptions::default()
            },
        )
        .unwrap()
        .delay_to(&net, out)
        .unwrap();
        assert!(
            best.time < worst.time,
            "best {:?} must beat worst {:?}",
            best.time,
            worst.time
        );
        // The two modes pick different winning paths (the weak n-pass
        // fires first but drives slowly; the p-pass fires later but
        // drives hard).
        assert_ne!(worst.cause, best.cause);
    }

    #[test]
    fn best_equals_worst_on_single_path_circuits() {
        use crate::analyzer::{analyze_with_options, AnalysisMode, AnalyzerOptions};
        // A plain inverter has exactly one stage and one trigger: the two
        // modes must coincide.
        let net = inverter(Style::Cmos, Farads::from_femto(100.0));
        let inp = net.node_by_name("in").unwrap();
        let out = net.node_by_name("out").unwrap();
        let scenario = Scenario::step(inp, Edge::Rising);
        let worst = analyze(&net, &tech(), ModelKind::Slope, &scenario)
            .unwrap()
            .delay_to(&net, out)
            .unwrap()
            .time;
        let best = analyze_with_options(
            &net,
            &tech(),
            ModelKind::Slope,
            &scenario,
            AnalyzerOptions {
                mode: AnalysisMode::BestCase,
                ..AnalyzerOptions::default()
            },
        )
        .unwrap()
        .delay_to(&net, out)
        .unwrap()
        .time;
        assert_eq!(best, worst);
    }

    #[test]
    fn unlimited_budget_matches_plain_analyze() {
        let net = decoder2to4(Style::Cmos, Farads::from_femto(100.0)).unwrap();
        let a0 = net.node_by_name("a0").unwrap();
        let s = Scenario::step(a0, Edge::Rising);
        let plain = analyze(&net, &tech(), ModelKind::Slope, &s).unwrap();
        let budgeted = analyze_with_options(
            &net,
            &tech(),
            ModelKind::Slope,
            &s,
            AnalyzerOptions::default(),
        )
        .unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn stage_eval_cap_returns_nonempty_partial_prefix() {
        use crate::budget::{AnalysisBudget, BudgetExceeded};
        let net = decoder2to4(Style::Cmos, Farads::from_femto(100.0)).unwrap();
        let a0 = net.node_by_name("a0").unwrap();
        let s = Scenario::step(a0, Edge::Rising);
        let full = analyze(&net, &tech(), ModelKind::Slope, &s).unwrap();
        let options = AnalyzerOptions {
            budget: AnalysisBudget {
                max_stage_evals: Some(2),
                ..AnalysisBudget::default()
            },
            ..AnalyzerOptions::default()
        };
        let err = analyze_with_options(&net, &tech(), ModelKind::Slope, &s, options)
            .expect_err("a 2-eval cap cannot finish a decoder");
        let TimingError::BudgetExhausted { partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(partial.exceeded, BudgetExceeded::StageEvals { limit: 2 });
        // Non-empty: at least the input arrival is present…
        let partial_nodes: Vec<_> = partial.result.arrivals().map(|(n, _)| n).collect();
        assert!(!partial_nodes.is_empty());
        // …and every partial node also switches in the full result.
        for node in partial_nodes {
            assert!(
                full.arrival(node).is_some(),
                "partial arrival at {node:?} missing from the full result"
            );
        }
    }

    #[test]
    fn budget_trips_identically_with_cache_hits_serial_and_parallel() {
        use crate::budget::{AnalysisBudget, BudgetExceeded};
        use crate::memo::StageCache;
        // A warm cache turns stage evaluations into hits, but a hit must
        // charge the budget exactly like a computed evaluation (charges
        // are committed in node order before evaluation, upstream of the
        // cache probe): the budget trips at the same point and the
        // partial prefix is bit-identical across cache off/warm. The
        // partial comes back as a sweep's first error (`a0` rising leads
        // the sweep), at one scenario thread and at four.
        use crate::sweep::sweep_inputs_with_options;
        let net = decoder2to4(Style::Cmos, Farads::from_femto(100.0)).unwrap();
        let a0 = net.node_by_name("a0").unwrap();
        let s = Scenario::step(a0, Edge::Rising);
        let warm = Arc::new(StageCache::new());
        analyze_with_options(
            &net,
            &tech(),
            ModelKind::Slope,
            &s,
            AnalyzerOptions {
                cache: Some(Arc::clone(&warm)),
                ..AnalyzerOptions::default()
            },
        )
        .unwrap();
        assert!(warm.stats().misses > 0, "warm-up populated the cache");

        let budget = AnalysisBudget {
            max_stage_evals: Some(3),
            ..AnalysisBudget::default()
        };
        let mut partials = Vec::new();
        for threads in [1, 4] {
            for cache in [None, Some(Arc::clone(&warm))] {
                let cached = cache.is_some();
                let options = AnalyzerOptions {
                    budget,
                    threads,
                    cache,
                    ..AnalyzerOptions::default()
                };
                let err = sweep_inputs_with_options(
                    &net,
                    &tech(),
                    ModelKind::Slope,
                    Seconds::ZERO,
                    &HashMap::new(),
                    &options,
                )
                .expect_err("a 3-eval cap cannot finish a decoder");
                let TimingError::BudgetExhausted { partial } = err else {
                    panic!("expected BudgetExhausted, got {err:?}");
                };
                partials.push((threads, cached, partial));
            }
        }
        let (_, _, first) = &partials[0];
        assert_eq!(first.exceeded, BudgetExceeded::StageEvals { limit: 3 });
        for (threads, cached, partial) in &partials[1..] {
            let tag = format!("threads={threads} cached={cached}");
            assert_eq!(partial.exceeded, first.exceeded, "{tag}");
            assert_eq!(partial.rounds_completed, first.rounds_completed, "{tag}");
            assert_eq!(partial.result, first.result, "{tag}");
        }
    }

    #[test]
    fn paths_per_node_cap_fires_during_extraction() {
        use crate::budget::{AnalysisBudget, BudgetExceeded};
        let net = decoder2to4(Style::Cmos, Farads::from_femto(100.0)).unwrap();
        let a0 = net.node_by_name("a0").unwrap();
        let s = Scenario::step(a0, Edge::Rising);
        let options = AnalyzerOptions {
            budget: AnalysisBudget {
                max_paths_per_node: Some(0),
                ..AnalysisBudget::default()
            },
            ..AnalyzerOptions::default()
        };
        let err = analyze_with_options(&net, &tech(), ModelKind::Slope, &s, options)
            .expect_err("a zero-path cap fires on the first extracted node");
        let TimingError::BudgetExhausted { partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert!(matches!(
            partial.exceeded,
            BudgetExceeded::PathsPerNode { limit: 0, .. }
        ));
        assert_eq!(partial.rounds_completed, 0);
        // The input arrival was seeded before extraction, so even this
        // earliest possible stop carries a non-empty partial.
        assert!(partial.result.arrival(a0).is_some());
    }

    #[test]
    fn expired_deadline_stops_immediately_with_partial() {
        use crate::budget::{AnalysisBudget, BudgetExceeded};
        use std::time::Duration;
        let net = decoder2to4(Style::Cmos, Farads::from_femto(100.0)).unwrap();
        let a0 = net.node_by_name("a0").unwrap();
        let s = Scenario::step(a0, Edge::Rising);
        let options = AnalyzerOptions {
            budget: AnalysisBudget {
                deadline: Some(Duration::ZERO),
                ..AnalysisBudget::default()
            },
            ..AnalyzerOptions::default()
        };
        let err = analyze_with_options(&net, &tech(), ModelKind::Slope, &s, options)
            .expect_err("an already-expired deadline must stop the analysis");
        let TimingError::BudgetExhausted { partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert!(matches!(partial.exceeded, BudgetExceeded::Deadline { .. }));
        assert!(partial.result.arrival(a0).is_some());
    }

    /// A technology whose slope reff tables are all non-monotone, so every
    /// slope-model stage must degrade to rc-tree.
    fn broken_slope_tech() -> Technology {
        use crate::tech::{DriveParams, SlopeTable};
        use mosnet::units::Ohms;
        use mosnet::TransistorKind;
        let mut t = Technology::nominal();
        let broken = DriveParams {
            r_square: Ohms(20_000.0),
            reff: SlopeTable::new(vec![(0.0, 1.0), (1.0, 3.0), (2.0, 0.5)])
                .expect("non-monotone values pass construction"),
            tout: SlopeTable::constant(1.0),
        };
        for kind in [
            TransistorKind::NEnhancement,
            TransistorKind::PEnhancement,
            TransistorKind::Depletion,
        ] {
            for dir in [Direction::PullUp, Direction::PullDown] {
                t.set_drive(kind, dir, broken.clone());
            }
        }
        t
    }

    #[test]
    fn arrival_records_fallback_model() {
        let net = inverter(Style::Cmos, Farads::from_femto(100.0));
        let inp = net.node_by_name("in").unwrap();
        let out = net.node_by_name("out").unwrap();
        let s = Scenario::step(inp, Edge::Rising);
        // Healthy technology: the requested model is recorded.
        let healthy = analyze(&net, &tech(), ModelKind::Slope, &s).unwrap();
        assert_eq!(healthy.delay_to(&net, out).unwrap().model, ModelKind::Slope);
        // Broken slope tables: the stage degrades to rc-tree and says so.
        let degraded = analyze(&net, &broken_slope_tech(), ModelKind::Slope, &s).unwrap();
        let a = degraded.delay_to(&net, out).unwrap();
        assert_eq!(a.model, ModelKind::RcTree);
        assert!(a.time.value() > 0.0);
    }

    #[test]
    fn results_are_deterministic() {
        let net = decoder2to4(Style::Cmos, Farads::from_femto(100.0)).unwrap();
        let a0 = net.node_by_name("a0").unwrap();
        let s = Scenario::step(a0, Edge::Rising);
        let r1 = analyze(&net, &tech(), ModelKind::Slope, &s).unwrap();
        let r2 = analyze(&net, &tech(), ModelKind::Slope, &s).unwrap();
        for (id, a) in r1.arrivals() {
            let b = r2.arrival(id).expect("same arrival set");
            assert_eq!(a, b);
        }
    }

    /// The switching set by its definition, one decoded node at a time.
    fn switching_by_node(
        net: &Network,
        (before, after): &(LogicState, LogicState),
    ) -> Vec<Option<Edge>> {
        net.nodes()
            .map(|(id, node)| {
                let (b, a) = (before.value(id), after.value(id));
                let switches = !node.kind().is_rail() && a.is_known() && b != a;
                switches.then_some(if a == LogicValue::One {
                    Edge::Rising
                } else {
                    Edge::Falling
                })
            })
            .collect()
    }

    /// [`Switching`] by its definition: the edges one decoded node at a
    /// time, and a bit for each node with an edge.
    fn switching_by_definition(net: &Network, steady: &(LogicState, LogicState)) -> Switching {
        let edges = switching_by_node(net, steady);
        let mut bits = vec![0u64; edges.len().div_ceil(64)];
        for (i, edge) in edges.iter().enumerate() {
            bits[i / 64] |= u64::from(edge.is_some()) << (i % 64);
        }
        Switching {
            bits: Arc::new(SwitchingBits::from_words(bits)),
            edges,
        }
    }

    /// A node code: `value` in the low two bits, `strength` above them.
    fn code(value: u8, strength: u8) -> u8 {
        value | strength << 2
    }

    #[test]
    fn switching_sets_match_the_per_node_definition() {
        // Networks of 2 to 17 nodes, with the rails at varying ids, and
        // seeded code pairs: every kind of change a word can hold, in
        // every position of the word and its tail.
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in 2..=17 {
            let mut b = mosnet::NetworkBuilder::new("flat");
            let rails = (n / 3, n - 1);
            for i in 0..n {
                match i {
                    _ if i == rails.0 => drop(b.power()),
                    _ if i == rails.1 => drop(b.ground()),
                    _ => drop(b.node(&format!("n{i}"), NodeKind::Internal)),
                }
            }
            let net = b.build().expect("rails given");
            assert_eq!(net.node_count(), n);
            for round in 0..64 {
                let before: Vec<u8> = (0..n).map(|_| (next() % 16) as u8).collect();
                let after: Vec<u8> = (before.iter())
                    .map(|&c| match next() % 6 {
                        0 => c,
                        1 => c ^ 0b0100,                 // strength only
                        2 => code(2, c >> 2),            // to X
                        3 => c & !0b11 | (c & 0b11) ^ 1, // 0 <-> 1, 2 <-> 3
                        _ => (next() % 16) as u8,
                    })
                    .collect();
                let pair = (
                    LogicState::from_codes(before),
                    LogicState::from_codes(after),
                );
                assert_eq!(
                    Switching::new(&net, &pair, None),
                    switching_by_definition(&net, &pair),
                    "{n} nodes, round {round}"
                );
            }
        }
        // Decoder-5: every steady pair of every scenario, and one pair
        // edited so that the rails flip, one node changes strength only,
        // and one goes to X.
        let net = mosnet::generators::decoder(Style::Cmos, 5, Farads::from_femto(50.0)).unwrap();
        let mut flips = 0;
        for (_, scenario) in
            crate::selfcheck::standard_scenarios(&net, &HashMap::new(), Seconds::ZERO)
        {
            let pair = logic::steady_states(&net, &scenario);
            let switching = Switching::new(&net, &pair, None);
            assert_eq!(switching, switching_by_definition(&net, &pair));
            let edges = switching.edges;
            flips += edges.iter().flatten().count();
        }
        assert!(flips > 0);
        let (before, _) =
            logic::steady_states(&net, &Scenario::step(net.inputs()[0], Edge::Rising));
        let mut after = before.codes().to_vec();
        let strong = (net.nodes())
            .find(|(id, n)| !n.kind().is_rail() && before.value(*id).is_known())
            .map(|(id, _)| id.index())
            .expect("a known node");
        let to_x = (net.nodes())
            .filter(|(id, n)| !n.kind().is_rail() && before.value(*id).is_known())
            .nth(1)
            .map(|(id, _)| id.index())
            .expect("a second known node");
        for rail in [net.power(), net.ground()] {
            after[rail.index()] ^= 1;
        }
        after[strong] = code(after[strong] & 0b11, (after[strong] >> 2) ^ 0b01);
        after[to_x] = code(2, after[to_x] >> 2);
        let pair = (before, LogicState::from_codes(after));
        let switching = Switching::new(&net, &pair, None);
        assert_eq!(switching, switching_by_definition(&net, &pair));
        assert!(
            switching.edges.iter().all(Option::is_none),
            "no rail, strength or X change switches"
        );
    }

    /// A plan as plain rows: the switching set, then each target's
    /// releasing gates and observers.
    type PlanRows = (Vec<Option<Edge>>, Vec<Vec<NodeId>>, Vec<Vec<u32>>);

    /// The plan of `set` recomputed from the steady pair the way
    /// propagation once derived it per call: the releasing gates from
    /// both states' decodes, the observers through a map keyed by gate.
    fn plan_by_definition(
        net: &Network,
        steady: &(LogicState, LogicState),
        set: &StageSet,
    ) -> PlanRows {
        let (before, after) = steady;
        let switching = switching_by_node(net, steady);
        let switches = |gate: NodeId| switching[gate.index()].is_some();
        let targets = set.targets();
        let releasing: Vec<Vec<NodeId>> = (targets.iter())
            .map(|w| {
                let mut gates = Vec::new();
                for &tid in net.channel_neighbors(w.node) {
                    if before.transistor_on(net, tid) && !after.transistor_on(net, tid) {
                        let gate = net.transistor(tid).gate();
                        if gate != w.node && switches(gate) {
                            gates.push(gate);
                        }
                    }
                }
                gates
            })
            .collect();
        let mut dependents: HashMap<NodeId, Vec<u32>> = HashMap::new();
        for (wi, w) in targets.iter().enumerate() {
            let mut observed: Vec<NodeId> = releasing[wi].clone();
            for stage in set.stages(w) {
                for &tid in stage.path {
                    let gate = net.transistor(tid).gate();
                    if gate != w.node && switches(gate) {
                        observed.push(gate);
                    }
                }
            }
            observed.sort_unstable();
            observed.dedup();
            for gate in observed {
                dependents.entry(gate).or_default().push(wi as u32);
            }
        }
        let observers = (targets.iter())
            .map(|w| dependents.remove(&w.node).unwrap_or_default())
            .collect();
        (switching, releasing, observers)
    }

    const TWIN_FED_NOR: &str = "i a\no y\n\
        n a g1 gnd 2 8\nd g1 vdd g1 8 2\nn a g2 gnd 2 8\nd g2 vdd g2 8 2\n\
        n g1 y gnd 2 8\nn g2 y gnd 2 8\nd y vdd y 8 2\nC g1 20\nC g2 20\nC y 50\n";

    #[test]
    fn memoized_plans_equal_recomputed_ones_and_hits_analyze_bit_for_bit() {
        const TRANSITIONS_NS: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];
        let tech = tech();
        let nets = [
            (
                "decoder-5",
                mosnet::generators::decoder(Style::Cmos, 5, Farads::from_femto(50.0)),
            ),
            (
                "cmos sram-8x8",
                mosnet::generators::memory_array(Style::Cmos, 8, 8, Farads::from_femto(50.0)),
            ),
            (
                "nmos sram-8x8",
                mosnet::generators::memory_array(Style::Nmos, 8, 8, Farads::from_femto(50.0)),
            ),
            // Two like inverters of `a` feed an nMOS NOR: when `a` rises,
            // `y` has two releasing gates whose arrivals tie, so their
            // order decides the cause.
            (
                "twin-fed nor",
                mosnet::sim_format::parse(TWIN_FED_NOR, "twin"),
            ),
        ];
        for (name, net) in nets {
            let net = net.expect("generates");
            let cache = Arc::new(StageCache::new());
            let (mut releasing_gates, mut observer_links, mut ordered) = (0, 0, 0);
            let scenarios =
                crate::selfcheck::standard_scenarios(&net, &HashMap::new(), Seconds::ZERO);
            for (label, scenario) in scenarios {
                for ns in TRANSITIONS_NS {
                    let scenario = scenario
                        .clone()
                        .with_input_transition(Seconds::from_nanos(ns));
                    let fresh = analyze(&net, &tech, ModelKind::Slope, &scenario).unwrap();
                    let options = AnalyzerOptions {
                        cache: Some(Arc::clone(&cache)),
                        ..AnalyzerOptions::default()
                    };
                    let cached =
                        analyze_with_options(&net, &tech, ModelKind::Slope, &scenario, options)
                            .unwrap();
                    assert_eq!(
                        crate::fingerprint::result_digest(&net, &cached),
                        crate::fingerprint::result_digest(&net, &fresh),
                        "{name} {label} at {ns} ns"
                    );
                    assert_eq!(cached, fresh, "{name} {label} at {ns} ns");
                }
                let key =
                    StageSetKey::new(&net, tech_stamp(&tech), NON_SWITCHING_CAP_WEIGHT, &scenario);
                let memoized = cache
                    .stage_set(&key)
                    .expect("memoized after its first transition");
                let steady = logic::steady_states(&net, &scenario);
                let plan = memoized.plan();
                let (switching, releasing, observers) =
                    plan_by_definition(&net, &steady, &memoized);
                for (id, _) in net.nodes() {
                    let switches = switching[id.index()].is_some();
                    assert_eq!(plan.switches(id), switches, "{name} {label}: switching set");
                }
                for (i, target) in memoized.targets().iter().enumerate() {
                    let at = format!("{name} {label}, target {}", net.node(target.node).name());
                    assert_eq!(
                        plan.releasing(i),
                        &releasing[i][..],
                        "{at}: releasing gates"
                    );
                    assert_eq!(plan.observers(i), &observers[i][..], "{at}: observers");
                }
                releasing_gates += releasing.iter().map(Vec::len).sum::<usize>();
                ordered += releasing.iter().filter(|gates| gates.len() > 1).count();
                observer_links += observers.iter().map(Vec::len).sum::<usize>();

                // The plan is charged to the set: a fresh extraction of the
                // pair weighs its plan's bytes more than the bare set.
                let switching = Switching::new(&net, &steady, None);
                let targets: Vec<(NodeId, Edge)> =
                    switching_targets(&net, &switching.edges).collect();
                let tracker = BudgetTracker::new(AnalysisBudget::default(), None);
                let mut set = extract_stage_set(
                    &net,
                    &tech,
                    &steady,
                    &switching.bits,
                    &targets,
                    NON_SWITCHING_CAP_WEIGHT,
                    true,
                    &tracker,
                )
                .unwrap();
                let planned = set.byte_len();
                let plan = set.take_plan();
                assert_eq!(&plan, memoized.plan(), "{name} {label}");
                let rows = |n: usize, items: usize| 4 * (n + items);
                let targets = memoized.targets().len();
                let plan_bytes = 8 * net.node_count().div_ceil(64)
                    + rows(targets, releasing.iter().map(Vec::len).sum())
                    + rows(targets, observers.iter().map(Vec::len).sum());
                assert_eq!(plan.byte_len(), plan_bytes, "{name} {label}");
                assert_eq!(planned - set.byte_len(), plan_bytes, "{name} {label}");
            }
            // The decoder's gates observe its predecoders, and the nMOS
            // array's depletion loads release; the CMOS array's X cells
            // leave every target driven by an input alone.
            if name == "decoder-5" {
                assert!(observer_links > 0, "{name}: some target observes another");
            }
            if name.starts_with("nmos") {
                assert!(releasing_gates > 0, "{name}: depletion loads release");
            }
            if name == "twin-fed nor" {
                assert!(ordered > 0, "{name}: a target releases through two gates");
            }
        }
    }
}
