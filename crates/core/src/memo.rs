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

use crate::fingerprint::{Fnv64, FNV_OFFSET, FNV_PRIME};
use crate::models::{ModelKind, StageDelay};
use crate::stage::Stage;
use crate::tech::{Direction, Technology};
use mosnet::units::Seconds;
use mosnet::TransistorKind;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards.
pub const SHARDS: usize = 16;

/// Default total entry capacity of a [`StageCache`].
pub const DEFAULT_CAPACITY: usize = 65_536;

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

/// The sharded stage-evaluation cache. Cheap to share: wrap it in an
/// [`std::sync::Arc`] and hand clones to every analysis that should pool
/// its evaluations (the CLI does this across a whole batch).
#[derive(Debug)]
pub struct StageCache {
    shards: Vec<Mutex<HashMap<StageKey, CachedEval>>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
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
        }
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
