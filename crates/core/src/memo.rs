//! Sharded memoization of stage-delay evaluations.
//!
//! Repeated sweeps and batch runs evaluate the *same* stage — same RC
//! topology, same model, same input slope — thousands of times: every
//! scenario of a batch re-extracts near-identical stages, and a node the
//! dirty set re-examines re-evaluates all its stages, including those
//! whose triggers did not move. A [`StageCache`] memoizes
//! `(stage, model, slope, technology) → delay`, turning those
//! re-evaluations into a hash lookup.
//!
//! ## Keying
//!
//! A cache key ([`StageKey`]) combines:
//!
//! * a 128-bit **stage fingerprint** ([`stage_fingerprint`]): the RC
//!   tree's shape (parent indices), exact resistance/capacitance bit
//!   patterns, the drive direction, and the target's tree index. Node
//!   *labels* are deliberately excluded — two stages with identical
//!   electrical topology share an entry even when they drive different
//!   network nodes;
//! * a 64-bit **technology stamp** ([`tech_stamp`]): a content hash over
//!   every field the models consult (supply, capacitance coefficients,
//!   and all per-kind/per-direction drive tables). Editing the
//!   technology — e.g. [`Technology::set_drive`] after a calibration
//!   pass — changes the stamp, so stale entries can never be returned;
//!   they simply stop being referenced and age out by eviction;
//! * the **slope bucket** ([`slope_bucket`]): the exact bit pattern of
//!   the input transition time (with `-0.0` canonicalized to `+0.0`), so
//!   a cache hit returns *bit-identical* results to a fresh evaluation;
//! * the model kind and the trigger device kind.
//!
//! ## Concurrency
//!
//! The map is split into [`SHARDS`] independently locked shards selected
//! by key hash, so parallel analyzer workers rarely contend. Hit, miss,
//! and eviction counters are relaxed atomics; under concurrency two
//! workers can miss on the same key simultaneously and both insert —
//! counters are exact event counts, not a deduplicated key census, and
//! may differ run to run. [`StageCache::stats`] reads the three counters
//! one at a time, so a snapshot taken under traffic is approximate;
//! per-analysis counts come from the analyzer's own counters instead.
//! Cached *values* never differ: an entry is only ever written with the
//! result its key deterministically produces.
//!
//! ## Steady states
//!
//! Beside the stage shards, a cache memoizes [`logic::solve`] per network
//! and input assignment: every scenario of a batch solves the states
//! before and after its edge, and most of those assignments recur (an
//! SRAM-64 pass asks for 256 states of 65 distinct assignments, a
//! decoder-9 pass for 216 of 10). The key is the network's
//! [`topology_fingerprint`](mosnet::Network::topology_fingerprint) and
//! the ascending ids of the primary inputs driven high
//! (`logic::driven_high`) — exactly what `solve` reads — so a hit
//! returns the state a fresh solve would, and one cache can serve several
//! networks. A state is the solve's node codes, one byte per node, held
//! once: a hit shares the memo's copy. A miss solves on the topology's
//! flat switch graph (`logic::SwitchGraph`), which depends on nothing but
//! what the fingerprint covers. All entries share one budget,
//! [`STEADY_MEMO_BYTES`], and an arbitrary entry of any kind is displaced
//! when the memo is full, as the shards do.
//!
//! ## Topologies
//!
//! The first miss of a topology builds its graph, solves from scratch and
//! records the solve's schedule (`logic::Schedule`: each sweep's
//! evaluations in order, as node and code, and the input levels it ran
//! under). Graph and schedule are stored together as one entry keyed by
//! the topology fingerprint alone. Every later miss of that topology
//! replays the schedule under its own inputs
//! (`logic::SwitchGraph::replay`), evaluating only where its state
//! diverges from the recorded one, and settles to the very state a
//! scratch solve gives: a selected SRAM-64 row differs from the all-low
//! state in two nodes. The entry is charged its real size: the graph,
//! and five bytes per recorded evaluation and four per sweep for the
//! schedule (about 83 kB on SRAM-64). One that does not fit, or that was
//! displaced, leaves the next miss a scratch solve on a new graph that
//! records a new one. [`StageCache::steady_state`] says which way a state
//! was found.
//!
//! ## Stage sets
//!
//! The same memo holds one more kind of entry: the stages a plain cached
//! analysis extracts for every switching target, as one
//! `stage::StageSet`. Extraction depends on the steady pair, not on the
//! input transition, so a slope sweep over one input and edge extracts
//! once. The key (`StageSetKey`) is what extraction reads: the network's
//! [`electrical_fingerprint`](mosnet::Network::electrical_fingerprint)
//! (kinds, terminals, capacitances and geometry; the topology fingerprint
//! leaves the last two out on purpose), the [`tech_stamp`], the bits of
//! the non-switching capacitance weight, and the inputs driven high
//! before and after the edge. The input transition, the model, the mode
//! and the thread count are not in it: extraction reads none of them. An
//! entry interns its RC trees by [`stage_fingerprint`], and is charged to
//! the same byte budget as states and topologies. An extraction
//! that tripped a budget is never stored.

use crate::analyzer::Scenario;
use crate::fingerprint::{Fnv64, FNV_OFFSET, FNV_PRIME};
use crate::logic::{self, LogicState, Schedule, SwitchGraph};
use crate::models::{ModelKind, StageDelay};
use crate::stage::{Stage, StageSet};
use crate::tech::{Direction, Technology};
use mosnet::units::Seconds;
use mosnet::{Network, NodeId, TransistorKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards.
pub const SHARDS: usize = 16;

/// Default total entry capacity of a [`StageCache`].
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Byte budget of a [`StageCache`]'s steady-state memo, topology entries
/// and stage sets included: about 1,900 states of an SRAM 64×64 (8,450
/// nodes at one byte each).
pub const STEADY_MEMO_BYTES: usize = 16 << 20;

/// Bytes charged per memo entry on top of its payload and key ids: the
/// key's fingerprint and vector header, the entry's header, and a map
/// slot.
const STEADY_ENTRY_OVERHEAD: usize = 96;

/// A dual-stream FNV-1a hasher producing 128 bits: the second stream
/// uses a different offset basis and folds the byte position in, so the
/// two halves decorrelate.
struct Fnv128 {
    a: u64,
    b: u64,
    n: u64,
}

impl Fnv128 {
    fn new() -> Fnv128 {
        Fnv128 {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
            n: 0,
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(byte) ^ self.n).wrapping_mul(FNV_PRIME);
        self.n = self.n.wrapping_add(1);
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Fingerprints everything a delay model consumes from a [`Stage`]: the
/// RC tree's shape and element values, the drive direction, and the
/// target index. Node labels and the trigger path are excluded — they
/// identify *which* network nodes are involved, not the electrical
/// problem being solved — so electrically identical stages collide (and
/// share a cache entry) by design.
pub fn stage_fingerprint(stage: &Stage) -> u128 {
    let mut h = Fnv128::new();
    h.write_u8(match stage.direction {
        Direction::PullUp => 0,
        Direction::PullDown => 1,
    });
    h.write_usize(stage.target_index);
    h.write_usize(stage.tree.len());
    for i in 0..stage.tree.len() {
        match stage.tree.parent(i) {
            // The +1 offset keeps "no parent" distinct from "parent 0".
            Some(p) => h.write_usize(p + 1),
            None => h.write_usize(0),
        }
        h.write_f64(stage.tree.edge_resistance(i).value());
        h.write_f64(stage.tree.capacitance(i).value());
    }
    h.finish()
}

/// Content-hashes every [`Technology`] field the delay models consult.
/// Any change to the technology — a recalibrated drive table, a new
/// supply voltage — yields a different stamp and thereby invalidates all
/// cached evaluations made under the old tables.
pub fn tech_stamp(tech: &Technology) -> u64 {
    let mut h = Fnv64::new();
    for byte in tech.name.as_bytes() {
        h.write_u8(*byte);
    }
    h.write_u8(0xff); // terminator so name/field boundaries can't alias
    h.write_f64(tech.vdd.value());
    h.write_f64(tech.cox_per_area);
    h.write_f64(tech.cj_per_width);
    for kind in TransistorKind::ALL {
        for direction in Direction::ALL {
            let drive = tech.drive(kind, direction);
            h.write_f64(drive.r_square.value());
            for table in [&drive.reff, &drive.tout] {
                h.write_u64(table.points().len() as u64);
                for &(r, v) in table.points() {
                    h.write_f64(r);
                    h.write_f64(v);
                }
            }
        }
    }
    h.finish()
}

/// The single bit pattern every NaN slope is keyed under (the standard
/// quiet NaN). Without this, the 2^52 distinct NaN payloads would each
/// mint their own cache entry for one and the same (meaningless) slope,
/// and a poisoned evaluation could never be deduplicated.
const CANONICAL_NAN_BITS: u64 = 0x7ff8_0000_0000_0000;

/// Maps an input transition time to its cache bucket: the exact bit
/// pattern, so a hit returns a result bit-identical to a fresh
/// evaluation. `-0.0` maps to `+0.0` (the same physical slope, so the
/// two encodings of a step input share one entry) and every NaN payload
/// maps to one quiet-NaN pattern. Infinities keep their sign — they are
/// distinct (if equally impossible) values.
pub fn slope_bucket(input_transition: Seconds) -> u64 {
    let v = input_transition.value();
    if v.is_nan() {
        CANONICAL_NAN_BITS
    } else {
        // `+ 0.0` turns a negative zero into positive zero (IEEE 754
        // round-to-nearest) and leaves every other value untouched.
        (v + 0.0).to_bits()
    }
}

/// The complete lookup key for one stage evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageKey {
    fingerprint: u128,
    tech: u64,
    slope: u64,
    model: u8,
    trigger: u8,
}

impl StageKey {
    /// Builds the key for evaluating `stage_fingerprint` under the given
    /// model, trigger, and technology stamp.
    pub fn new(
        fingerprint: u128,
        tech_stamp: u64,
        input_transition: Seconds,
        model: ModelKind,
        trigger_kind: TransistorKind,
    ) -> StageKey {
        StageKey {
            fingerprint,
            tech: tech_stamp,
            slope: slope_bucket(input_transition),
            model: model_tag(model),
            trigger: trigger_kind.index() as u8,
        }
    }

    fn shard(&self) -> usize {
        // Mix every field so distinct keys spread across shards even when
        // fingerprints collide in their low bits.
        let mut x = (self.fingerprint as u64)
            ^ (self.fingerprint >> 64) as u64
            ^ self.tech.rotate_left(17)
            ^ self.slope.rotate_left(31)
            ^ u64::from(self.model) << 8
            ^ u64::from(self.trigger) << 16;
        // SplitMix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (x ^ (x >> 31)) as usize % SHARDS
    }
}

fn model_tag(model: ModelKind) -> u8 {
    match model {
        ModelKind::Lumped => 0,
        ModelKind::RcTree => 1,
        ModelKind::Slope => 2,
    }
}

/// A memoized evaluation: the delay plus the model that actually
/// produced it (which differs from the requested model when fallback
/// degraded the stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedEval {
    /// The memoized stage delay.
    pub delay: StageDelay,
    /// The model that produced `delay`.
    pub used_model: ModelKind,
}

/// A snapshot of the cache's hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced to stay under the capacity cap.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (zero when nothing was looked
    /// up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How [`StageCache::steady_state`] found a steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyLookup {
    /// Found in the memo, shared with it.
    Hit,
    /// Solved from scratch, and recorded as the topology's base when the
    /// recording fits the budget.
    Solved {
        /// Node evaluations the solve made.
        evals: u64,
    },
    /// Replayed against the topology's recorded solve.
    Replayed {
        /// Node evaluations the replay made.
        evals: u64,
    },
}

/// A steady-state memo key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SteadyKey {
    /// A state, by what [`logic::solve`] reads: the network's topology
    /// and the inputs driven high.
    State { topology: u128, high: Vec<NodeId> },
    /// The switch graph of every network with this topology, and the
    /// recorded solve every later miss of the topology replays.
    Topology(u128),
    /// A stage set, by what extraction reads (see [`StageSetKey`]).
    Stages {
        network: u128,
        tech: u64,
        weight: u64,
        before: Vec<NodeId>,
        after: Vec<NodeId>,
    },
}

impl SteadyKey {
    fn bytes(&self) -> usize {
        let ids = match self {
            SteadyKey::State { high, .. } => high.len(),
            SteadyKey::Topology(_) => 0,
            SteadyKey::Stages { before, after, .. } => before.len() + after.len(),
        };
        ids * std::mem::size_of::<NodeId>() + STEADY_ENTRY_OVERHEAD
    }
}

/// The key of a memoized [`StageSet`]: the network's electrical
/// fingerprint, the technology stamp, the bits of the non-switching
/// capacitance weight, and the inputs driven high before and after the
/// scenario's edge. See the [module docs](self) for why that is all
/// extraction reads.
#[derive(Debug)]
pub(crate) struct StageSetKey(SteadyKey);

impl StageSetKey {
    pub(crate) fn new(
        net: &Network,
        tech_stamp: u64,
        non_switching_cap_weight: f64,
        scenario: &Scenario,
    ) -> StageSetKey {
        let (before, after) =
            logic::steady_states_by(scenario, |inputs| logic::driven_high(net, inputs));
        StageSetKey(SteadyKey::Stages {
            network: net.electrical_fingerprint(),
            tech: tech_stamp,
            weight: non_switching_cap_weight.to_bits(),
            before,
            after,
        })
    }
}

/// A topology's switch graph and the recorded solve of its first miss,
/// which every later miss replays.
#[derive(Debug)]
struct Topology {
    graph: SwitchGraph,
    base: Schedule,
}

/// A steady-state memo entry.
#[derive(Debug)]
enum Steady {
    State(LogicState),
    Topology(Arc<Topology>),
    Stages(Arc<StageSet>),
}

impl Steady {
    fn byte_len(&self) -> usize {
        match self {
            Steady::State(state) => state.byte_len(),
            Steady::Topology(topology) => topology.graph.byte_len() + topology.base.byte_len(),
            Steady::Stages(set) => set.byte_len(),
        }
    }
}

/// Memoized steady states, topology entries and stage sets within a byte
/// budget.
#[derive(Debug, Default)]
struct SteadyMemo {
    entries: HashMap<SteadyKey, Steady>,
    bytes: usize,
}

impl SteadyMemo {
    /// Stores `entry` under `key`, displacing arbitrary entries until it
    /// fits in `budget`. An entry larger than the whole budget, or a key
    /// already present, is not stored.
    fn insert(&mut self, key: SteadyKey, entry: Steady, budget: usize) {
        let size = key.bytes() + entry.byte_len();
        if size > budget || self.entries.contains_key(&key) {
            return;
        }
        while self.bytes + size > budget {
            let Some(victim) = self.entries.keys().next().cloned() else {
                break;
            };
            let gone = self.entries.remove(&victim).expect("victim is resident");
            self.bytes -= victim.bytes() + gone.byte_len();
        }
        self.bytes += size;
        self.entries.insert(key, entry);
    }
}

/// The sharded stage-evaluation cache, with the steady-state memo beside
/// it. Cheap to share: wrap it in an [`std::sync::Arc`] and hand clones
/// to every analysis that should pool its evaluations (the CLI does this
/// across a whole batch).
#[derive(Debug)]
pub struct StageCache {
    shards: Vec<Mutex<HashMap<StageKey, CachedEval>>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    steady: Mutex<SteadyMemo>,
}

impl StageCache {
    /// A cache with the [`DEFAULT_CAPACITY`] and exact slope keying.
    pub fn new() -> StageCache {
        StageCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` entries in total (rounded up
    /// to a multiple of [`SHARDS`], minimum one entry per shard), with
    /// exact slope keying.
    pub fn with_capacity(capacity: usize) -> StageCache {
        StageCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            steady: Mutex::new(SteadyMemo::default()),
        }
    }

    /// The state [`logic::solve`] settles `net` to under `inputs`, found
    /// as the [module docs](self) say, and how it was found: a hit, the
    /// topology's first miss solved from scratch (and recorded), or a
    /// later miss replayed against that recording. Two threads missing on
    /// one key at once both settle it; the states are equal, so either
    /// may stay.
    pub fn steady_state(
        &self,
        net: &Network,
        inputs: &HashMap<NodeId, bool>,
    ) -> (LogicState, SteadyLookup) {
        self.steady_state_within(net, inputs, STEADY_MEMO_BYTES)
    }

    /// [`StageCache::steady_state`], storing what a miss makes within
    /// `budget` bytes.
    fn steady_state_within(
        &self,
        net: &Network,
        inputs: &HashMap<NodeId, bool>,
        budget: usize,
    ) -> (LogicState, SteadyLookup) {
        let fingerprint = net.topology_fingerprint();
        let key = SteadyKey::State {
            topology: fingerprint,
            high: logic::driven_high(net, inputs),
        };
        let topology = {
            let memo = self.steady_memo();
            if let Some(Steady::State(state)) = memo.entries.get(&key) {
                return (state.clone(), SteadyLookup::Hit);
            }
            match memo.entries.get(&SteadyKey::Topology(fingerprint)) {
                Some(Steady::Topology(topology)) => Some(Arc::clone(topology)),
                _ => None,
            }
        };
        let (settled, lookup) = match topology {
            Some(topology) => {
                let settled = topology.graph.replay(&topology.base, inputs);
                let evals = settled.evals;
                (settled, SteadyLookup::Replayed { evals })
            }
            None => {
                let graph = SwitchGraph::new(net);
                let (settled, base) = graph.solve_recorded(inputs);
                self.steady_memo().insert(
                    SteadyKey::Topology(fingerprint),
                    Steady::Topology(Arc::new(Topology { graph, base })),
                    budget,
                );
                let evals = settled.evals;
                (settled, SteadyLookup::Solved { evals })
            }
        };
        self.steady_memo()
            .insert(key, Steady::State(settled.state.clone()), budget);
        (settled.state, lookup)
    }

    /// The stage set memoized under `key`, if any (see the
    /// [module docs](self)).
    pub(crate) fn stage_set(&self, key: &StageSetKey) -> Option<Arc<StageSet>> {
        match self.steady_memo().entries.get(&key.0) {
            Some(Steady::Stages(set)) => Some(Arc::clone(set)),
            _ => None,
        }
    }

    /// Memoizes the stage set of a complete extraction under `key`,
    /// within the memo's byte budget.
    pub(crate) fn insert_stage_set(&self, key: StageSetKey, set: Arc<StageSet>) {
        self.steady_memo()
            .insert(key.0, Steady::Stages(set), STEADY_MEMO_BYTES);
    }

    fn steady_memo(&self) -> std::sync::MutexGuard<'_, SteadyMemo> {
        self.steady.lock().expect("steady memo lock")
    }

    /// Looks `key` up, counting a hit or a miss.
    pub fn lookup(&self, key: &StageKey) -> Option<CachedEval> {
        let found = self.shards[key.shard()]
            .lock()
            .expect("cache shard lock")
            .get(key)
            .copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts an evaluation, displacing an arbitrary resident entry of
    /// the same shard when the shard is full (counted as an eviction).
    /// Returns `true` when an entry was evicted, so callers keeping
    /// per-analysis accounting (the analyzer's own [`CacheStats`]) can
    /// attribute the eviction without re-reading the shared counters.
    pub fn insert(&self, key: StageKey, value: CachedEval) -> bool {
        let mut shard = self.shards[key.shard()].lock().expect("cache shard lock");
        let mut evicted = false;
        if shard.len() >= self.per_shard_capacity && !shard.contains_key(&key) {
            if let Some(&victim) = shard.keys().next() {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted = true;
            }
        }
        shard.insert(key, value);
        evicted
    }

    /// Current resident entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARDS
    }

    /// The lifetime hit/miss/eviction counters. Each is read on its
    /// own, so under concurrent traffic the three may come from slightly
    /// different instants.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl Default for StageCache {
    fn default() -> StageCache {
        StageCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::stages_to;
    use mosnet::generators::{inverter, Style};
    use mosnet::units::Farads;
    use mosnet::TransistorId;

    const ALL_ON: fn(TransistorId) -> bool = |_| true;

    fn inverter_stage() -> Stage {
        let net = inverter(Style::Cmos, Farads::from_femto(100.0));
        let tech = Technology::nominal();
        let out = net.node_by_name("out").unwrap();
        stages_to(&net, &tech, &ALL_ON, out, Direction::PullDown)
            .pop()
            .expect("inverter has a pull-down stage")
    }

    fn sample_value() -> CachedEval {
        CachedEval {
            delay: StageDelay {
                delay: Seconds::from_nanos(1.0),
                output_transition: Seconds::from_nanos(2.0),
                bounds: None,
            },
            used_model: ModelKind::Slope,
        }
    }

    fn key_n(i: u64) -> StageKey {
        StageKey::new(
            u128::from(i) * 0x1_0000_0001,
            42,
            Seconds::ZERO,
            ModelKind::Slope,
            TransistorKind::NEnhancement,
        )
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let stage = inverter_stage();
        assert_eq!(stage_fingerprint(&stage), stage_fingerprint(&stage));
        let mut other = stage.clone();
        other
            .tree
            .add_capacitance(other.target_index, Farads(1e-15));
        assert_ne!(stage_fingerprint(&stage), stage_fingerprint(&other));
        let mut flipped = stage.clone();
        flipped.direction = Direction::PullUp;
        assert_ne!(stage_fingerprint(&stage), stage_fingerprint(&flipped));
    }

    #[test]
    fn fingerprint_ignores_labels() {
        use crate::rctree::RcTree;
        use mosnet::units::Ohms;
        use mosnet::NodeId;
        let build = |label: Option<NodeId>| {
            let mut tree = RcTree::new();
            let t = tree.add_child(tree.root(), Ohms(100.0), Farads(1e-14), label);
            Stage {
                target: NodeId::from_index(0),
                direction: Direction::PullDown,
                tree,
                target_index: t,
                path: Vec::new(),
                path_gates: Vec::new(),
            }
        };
        let a = build(Some(NodeId::from_index(3)));
        let b = build(Some(NodeId::from_index(9)));
        assert_eq!(stage_fingerprint(&a), stage_fingerprint(&b));
    }

    #[test]
    fn tech_stamp_changes_with_drive_tables() {
        use crate::tech::{DriveParams, SlopeTable};
        use mosnet::units::Ohms;
        let nominal = Technology::nominal();
        let s0 = tech_stamp(&nominal);
        assert_eq!(s0, tech_stamp(&Technology::nominal()), "stamp is stable");
        let mut edited = Technology::nominal();
        edited.set_drive(
            TransistorKind::NEnhancement,
            Direction::PullDown,
            DriveParams {
                r_square: Ohms(9_999.0),
                reff: SlopeTable::constant(1.0),
                tout: SlopeTable::constant(2.0),
            },
        );
        assert_ne!(s0, tech_stamp(&edited));
        let mut renamed = Technology::nominal();
        renamed.name = "other".to_string();
        assert_ne!(s0, tech_stamp(&renamed));
    }

    #[test]
    fn lookup_and_insert_count_correctly() {
        let cache = StageCache::new();
        let key = key_n(1);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key, sample_value());
        assert_eq!(cache.lookup(&key), Some(sample_value()));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_keys_do_not_collide() {
        let cache = StageCache::new();
        let base = (
            7u128,
            42u64,
            Seconds::ZERO,
            ModelKind::Slope,
            TransistorKind::NEnhancement,
        );
        let keys = [
            StageKey::new(base.0, base.1, base.2, base.3, base.4),
            StageKey::new(8, base.1, base.2, base.3, base.4),
            StageKey::new(base.0, 43, base.2, base.3, base.4),
            StageKey::new(base.0, base.1, Seconds::from_nanos(1.0), base.3, base.4),
            StageKey::new(base.0, base.1, base.2, ModelKind::Lumped, base.4),
            StageKey::new(base.0, base.1, base.2, base.3, TransistorKind::PEnhancement),
        ];
        cache.insert(keys[0], sample_value());
        for key in &keys[1..] {
            assert!(cache.lookup(key).is_none(), "{key:?} aliased the base key");
        }
    }

    #[test]
    fn exact_bucketing_canonicalizes_negative_zero() {
        // -0.0 and +0.0 encode the same physical slope; they must share
        // one bucket (and therefore one cache entry) instead of
        // duplicating the evaluation under two keys.
        assert_eq!(slope_bucket(Seconds(-0.0)), slope_bucket(Seconds(0.0)));
        // Any genuinely different bit pattern still gets its own bucket.
        assert_ne!(
            slope_bucket(Seconds(1.0e-9)),
            slope_bucket(Seconds(1.0000000000000002e-9)),
        );
    }

    #[test]
    fn negative_transitions_never_alias_positive_ones() {
        // Negative transition times are physically impossible but must
        // not silently collide with real slopes if one ever leaks in.
        for t in [0.6e-9, 1.4e-9, 3.0e-9] {
            assert_ne!(
                slope_bucket(Seconds(-t)),
                slope_bucket(Seconds(t)),
                "-{t} aliased +{t}"
            );
        }
    }

    #[test]
    fn shard_selection_spreads_slope_only_variation() {
        // 10k keys identical in every field except the slope bits — the
        // exact pattern a transition sweep produces. No shard may take
        // more than twice its fair share, or parallel workers would
        // serialize on one mutex (and, at capacity, evictions would
        // concentrate there).
        let fingerprint = 0xdead_beef_cafe_f00d_u128;
        let mut counts = [0usize; SHARDS];
        for i in 0..10_000 {
            // Realistic slope values: 0..10 ns in 1 ps steps.
            let slope = Seconds(i as f64 * 1.0e-12);
            let key = StageKey::new(
                fingerprint,
                42,
                slope,
                ModelKind::Slope,
                TransistorKind::NEnhancement,
            );
            counts[key.shard()] += 1;
        }
        let fair = 10_000 / SHARDS;
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count <= 2 * fair,
                "shard {shard} took {count} of 10000 keys (fair share {fair})"
            );
        }
    }

    #[test]
    fn shard_selection_spreads_fingerprint_variation() {
        // The same distribution bound for keys differing only in their
        // stage fingerprint (a batch over many distinct stages).
        let mut counts = [0usize; SHARDS];
        for i in 0..10_000u64 {
            let key = StageKey::new(
                u128::from(i) << 3 | 0x5,
                42,
                Seconds::ZERO,
                ModelKind::Slope,
                TransistorKind::NEnhancement,
            );
            counts[key.shard()] += 1;
        }
        let fair = 10_000 / SHARDS;
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count <= 2 * fair,
                "shard {shard} took {count} of 10000 keys (fair share {fair})"
            );
        }
    }

    #[test]
    fn capacity_forces_evictions() {
        let cache = StageCache::with_capacity(SHARDS); // one entry per shard
        assert_eq!(cache.capacity(), SHARDS);
        for i in 0..200 {
            cache.insert(key_n(i), sample_value());
        }
        assert!(cache.len() <= cache.capacity());
        let stats = cache.stats();
        assert!(
            stats.evictions > 0,
            "200 inserts into {SHARDS} slots must evict"
        );
        // Every insert beyond a full shard evicts exactly one entry.
        assert_eq!(200 - cache.len() as u64, stats.evictions);
    }

    /// The topology entry of `net`, as its first miss stores it, and the
    /// state that miss settles to.
    fn topology_entry(net: &Network) -> (Steady, LogicState) {
        let graph = SwitchGraph::new(net);
        let (settled, base) = graph.solve_recorded(&HashMap::new());
        let entry = Steady::Topology(Arc::new(Topology { graph, base }));
        (entry, settled.state)
    }

    #[test]
    fn steady_memo_stays_within_its_byte_budget() {
        let net = inverter(Style::Cmos, Farads::from_femto(100.0));
        let state = SwitchGraph::new(&net).solve(&HashMap::new()).state;
        let shared = || Steady::State(state.clone());
        let key = |i: u32| SteadyKey::State {
            topology: u128::from(i),
            high: Vec::new(),
        };
        let entry = key(0).bytes() + shared().byte_len();
        assert_eq!(shared().byte_len(), net.node_count(), "a byte a node");
        let mut memo = SteadyMemo::default();
        for i in 0..10 {
            memo.insert(key(i), shared(), 3 * entry);
        }
        assert_eq!((memo.entries.len(), memo.bytes), (3, 3 * entry));
        // Re-inserting a resident key charges nothing.
        let resident = memo.entries.keys().next().cloned().unwrap();
        memo.insert(resident, shared(), 3 * entry);
        assert_eq!(memo.bytes, 3 * entry);
        // A state larger than the whole budget is not stored.
        let mut small = SteadyMemo::default();
        small.insert(key(0), shared(), entry - 1);
        assert!(small.entries.is_empty());
        // A topology entry is charged and displaced like a state, at its
        // real size: the graph, and one code byte and one node word per
        // recorded evaluation and the sweep bounds.
        let (topology, settled) = topology_entry(&net);
        let graph = SwitchGraph::new(&net);
        let evals = graph.solve(&HashMap::new()).evals as usize;
        assert!(topology.byte_len() >= graph.byte_len() + 5 * evals);
        assert_eq!(settled, state);
        let topology_size = SteadyKey::Topology(0).bytes() + topology.byte_len();
        memo.insert(SteadyKey::Topology(0), topology, 3 * entry + topology_size);
        assert!(memo.entries.contains_key(&SteadyKey::Topology(0)));
        assert_eq!(memo.bytes, 3 * entry + topology_size);
        memo.insert(key(10), shared(), 3 * entry);
        assert!(memo.bytes <= 3 * entry);
        assert!(!memo.entries.contains_key(&SteadyKey::Topology(0)));
    }

    #[test]
    fn a_schedule_over_the_budget_is_not_stored_and_misses_solve_from_scratch() {
        use mosnet::generators::decoder;
        let net = decoder(Style::Cmos, 3, Farads::from_femto(100.0)).unwrap();
        let topology = net.topology_fingerprint();
        // One byte short of the topology entry, graph and schedule
        // together: states still fit.
        let tight = SteadyKey::Topology(0).bytes() + topology_entry(&net).0.byte_len() - 1;
        let cache = StageCache::new();
        for (k, &input) in net.inputs().iter().enumerate() {
            let inputs = HashMap::from([(input, true)]);
            let (state, lookup) = cache.steady_state_within(&net, &inputs, tight);
            assert!(
                matches!(lookup, SteadyLookup::Solved { .. }),
                "miss {k}: {lookup:?}"
            );
            assert_eq!(state, logic::solve(&net, &inputs));
        }
        let memo = cache.steady_memo();
        assert!(!memo.entries.contains_key(&SteadyKey::Topology(topology)));
        assert_eq!(memo.entries.len(), net.inputs().len(), "only the states");
        assert!(memo.bytes <= tight);
        drop(memo);
        // With room for it, the first miss records and the later ones
        // replay.
        let cache = StageCache::new();
        let lookups: Vec<SteadyLookup> = (net.inputs().iter())
            .map(|&input| cache.steady_state(&net, &HashMap::from([(input, true)])).1)
            .collect();
        assert!(matches!(lookups[0], SteadyLookup::Solved { .. }));
        assert!(lookups[1..]
            .iter()
            .all(|lookup| matches!(lookup, SteadyLookup::Replayed { .. })));
    }

    #[test]
    fn hits_share_the_state_the_miss_stored() {
        use mosnet::generators::decoder;
        let net = decoder(Style::Cmos, 3, Farads::from_femto(100.0)).unwrap();
        let inputs = HashMap::from([(net.inputs()[1], true)]);
        let cache = StageCache::new();
        let (missed, lookup) = cache.steady_state(&net, &inputs);
        assert!(matches!(lookup, SteadyLookup::Solved { .. }));
        for hit in 0..2 {
            let (state, lookup) = cache.steady_state(&net, &inputs);
            assert_eq!(lookup, SteadyLookup::Hit);
            assert!(state.shares_codes_with(&missed), "hit {hit} copied");
        }
    }

    #[test]
    fn stage_sets_are_charged_to_the_steady_budget() {
        use crate::analyzer::Edge;
        let stage = inverter_stage();
        let fingerprint = stage_fingerprint(&stage);
        // Three targets with one electrical stage each, all alike: the
        // set interns them into one tree.
        let set = StageSet::new((0..3).map(|i| {
            let stages = vec![stage.clone()];
            (
                NodeId::from_index(i),
                Edge::Falling,
                stages,
                Some(vec![fingerprint]),
            )
        }));
        assert_eq!((set.stage_count(), set.electrical_count()), (3, 1));
        let set = Arc::new(set);
        let key = |i: u32| SteadyKey::Stages {
            network: u128::from(i),
            tech: 7,
            weight: 0,
            before: Vec::new(),
            after: vec![NodeId::from_index(1)],
        };
        let entry = key(0).bytes() + set.byte_len();
        assert!(set.byte_len() > stage.tree.byte_len());
        let stages = || Steady::Stages(Arc::clone(&set));
        let mut memo = SteadyMemo::default();
        for i in 0..10 {
            memo.insert(key(i), stages(), 3 * entry);
        }
        assert_eq!((memo.entries.len(), memo.bytes), (3, 3 * entry));
        // A state displaces a stage set to fit, and is charged alike.
        let (topology, settled) = topology_entry(&inverter(Style::Cmos, Farads::from_femto(1.0)));
        let state = SteadyKey::State {
            topology: 1,
            high: Vec::new(),
        };
        let state_size = state.bytes() + settled.byte_len();
        memo.insert(state.clone(), Steady::State(settled), 3 * entry);
        assert!(memo.entries.contains_key(&state));
        assert_eq!(memo.bytes, 2 * entry + state_size);
        // A set larger than the whole budget is not stored.
        let mut small = SteadyMemo::default();
        small.insert(key(0), stages(), entry - 1);
        assert!(small.entries.is_empty());
        // Through the cache: stored, found, and a different key misses.
        let cache = StageCache::new();
        let lookup = |i| StageSetKey(key(i));
        assert!(cache.stage_set(&lookup(0)).is_none());
        cache.insert_stage_set(lookup(0), Arc::clone(&set));
        let found = cache.stage_set(&lookup(0)).expect("stored");
        assert!(Arc::ptr_eq(&found, &set));
        assert!(cache.stage_set(&lookup(1)).is_none());
        assert_eq!(cache.steady_memo().bytes, entry);
        // A topology entry displaces stage sets to fit, and is charged
        // alike.
        let topology_size = SteadyKey::Topology(1).bytes() + topology.byte_len();
        memo.insert(SteadyKey::Topology(1), topology, 3 * entry);
        assert!(memo.entries.contains_key(&SteadyKey::Topology(1)));
        let charged: usize = (memo.entries.iter())
            .map(|(key, entry)| key.bytes() + entry.byte_len())
            .sum();
        assert_eq!(memo.bytes, charged);
        assert!(memo.bytes <= 3 * entry && memo.bytes >= topology_size);
    }

    #[test]
    fn steady_memo_holds_one_graph_per_topology() {
        use mosnet::diff::{apply_edit, Edit, TransistorDesc};
        use mosnet::generators::decoder;
        use mosnet::Geometry;
        let base = decoder(Style::Cmos, 4, Farads::from_femto(100.0)).unwrap();
        let edited = apply_edit(
            &base,
            &Edit::Add(TransistorDesc {
                kind: TransistorKind::NEnhancement,
                gate: "a0".to_string(),
                source: "w1".to_string(),
                drain: "gnd".to_string(),
                geometry: Geometry::from_microns(2.0, 8.0),
            }),
        )
        .expect("add applies");
        let cache = StageCache::new();
        for net in [&base, &edited] {
            for &input in &net.inputs() {
                for level in [false, true] {
                    let inputs = HashMap::from([(input, level)]);
                    assert_eq!(
                        cache.steady_state(net, &inputs).0,
                        logic::solve(net, &inputs)
                    );
                }
            }
        }
        let memo = cache.steady_memo();
        let topologies: Vec<usize> = (memo.entries.values())
            .filter_map(|entry| match entry {
                Steady::Topology(_) => Some(entry.byte_len()),
                _ => None,
            })
            .collect();
        assert_eq!(topologies.len(), 2, "one entry per topology");
        for net in [&base, &edited] {
            let key = SteadyKey::Topology(net.topology_fingerprint());
            assert!(memo.entries.contains_key(&key));
        }
        let charged: usize = memo
            .entries
            .iter()
            .map(|(key, entry)| key.bytes() + entry.byte_len())
            .sum();
        assert_eq!(memo.bytes, charged);
        assert!(topologies.iter().sum::<usize>() < memo.bytes);
        assert!(memo.bytes <= STEADY_MEMO_BYTES);
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let cache = StageCache::with_capacity(SHARDS);
        let key = key_n(5);
        cache.insert(key, sample_value());
        cache.insert(key, sample_value());
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn negative_zero_slope_aliases_positive_zero_in_stage_keys() {
        // -0.0 and +0.0 are the same physical (step) slope: the full
        // StageKey — not just the bucket — must be identical, so the two
        // encodings share one cache entry instead of duplicating the
        // evaluation and reporting a spurious miss.
        let at =
            |t: Seconds| StageKey::new(7, 42, t, ModelKind::Slope, TransistorKind::NEnhancement);
        assert_eq!(at(Seconds(-0.0)), at(Seconds(0.0)));
        let cache = StageCache::new();
        cache.insert(at(Seconds(0.0)), sample_value());
        assert!(
            cache.lookup(&at(Seconds(-0.0))).is_some(),
            "-0.0 must hit the +0.0 entry"
        );
    }

    #[test]
    fn nan_slopes_collapse_to_one_hittable_key() {
        // Every NaN payload is the same "meaningless slope": they must
        // share one canonical key, so a poisoned evaluation is stored
        // (and found) once instead of minting an unbounded family of
        // unreachable entries.
        let payloads = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff8_dead_beef_cafe),
        ];
        let canonical = slope_bucket(Seconds(f64::NAN));
        for &p in &payloads {
            assert_eq!(slope_bucket(Seconds(p)), canonical, "payload {p:?}");
        }
        // NaN never aliases a real slope.
        assert_ne!(canonical, slope_bucket(Seconds(0.0)));
        assert_ne!(canonical, slope_bucket(Seconds(1e-9)));
        // Insertion under one NaN payload is found under another.
        let cache = StageCache::new();
        let at =
            |t: Seconds| StageKey::new(7, 42, t, ModelKind::Slope, TransistorKind::NEnhancement);
        cache.insert(at(Seconds(f64::NAN)), sample_value());
        assert!(cache
            .lookup(&at(Seconds(f64::from_bits(0x7ff8_0000_0000_0001))))
            .is_some());
    }
}
