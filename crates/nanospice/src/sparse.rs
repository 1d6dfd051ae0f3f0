//! CSC sparse LU: the large-circuit path for modified nodal analysis.
//!
//! Left-looking Gilbert–Peierls factorization with threshold partial
//! pivoting over an explicit-clique minimum-degree column ordering
//! (budget-capped; not approximate minimum degree), plus KLU-style
//! numeric *refactorization*: the first `factor()` records the fill
//! pattern and the pivot sequence in the L and U factors themselves;
//! subsequent factors walk that pattern value-only — column `j`'s U
//! entries are its elimination steps in the topological order the full
//! factor used, its L entries are the rows pivoted after it — with no
//! graph traversal and no reallocation. The full factor resolves each U
//! entry's step up front (the original row it reads, the L entries it
//! updates), so a refactor step makes no dependent lookups. A recorded
//! pivot that falls below `REFACTOR_PIVOT_TOL` of its column's current
//! candidate maximum (or fails the absolute or relative singular test)
//! sends the factor back to a full re-pivoting pass.
//!
//! The refactor is also partial: a column whose A values are bit for bit
//! those of the last successful factor, and whose U steps are all columns
//! the refactor also left, keeps the values it holds, because the same
//! inputs through the same arithmetic in the same order would give them
//! again. A stale-pivot fallback or a pattern rebuild ends that tracking
//! until the next successful factor. Within a column, a U step whose
//! multiplier is exactly zero is left out while every L entry it could
//! read is finite: `l·(±0)` is then ±0, and the work column never holds
//! −0.0, so the subtraction would change no bit.
//!
//! Assembly reuses the engine's determinism the same way. The first
//! assembly ([`RecordStamp`]) records the `(row, col)` stamp sequence and
//! where each device's *block* of stamps begins and ends, under an exact
//! [`BlockKey`] (the device kind and its terminals; the gmin diagonal is
//! one block); `analyze` maps each stamp event to its CSC value slot.
//! Every later assembly ([`ReplayStamp`]) compares each block's key and
//! start with the next recorded block once, then adds the block's stamps
//! straight into their recorded slots. Anything else — another key or
//! start, a stamp past a block's end, a block that ends early, a stamp
//! outside any block — is checked stamp by stamp for the rest of the
//! assembly, and a sequence that stops matching (never the case for a
//! fixed circuit and analysis mode, but handled anyway) triggers a
//! pattern rebuild instead of wrong answers. The rebuilt pattern records
//! the sequence just stamped, so the next assembly in that order replays
//! without a rebuild; the block table goes with the old sequence, so it
//! replays stamp by stamp.
//!
//! On replay, a block whose values are all exactly zero (a MOSFET in
//! cutoff) is left out, right-hand side included. That is exact: every
//! slot and right-hand-side entry starts at +0.0, a round-to-nearest sum
//! that starts at +0.0 is never −0.0, and adding ±0.0 to anything but
//! −0.0 changes no bit. A NaN is not zero, so it is never left out. The
//! recording assembly needs every stamp for the pattern, and the dense
//! backend never skips, so small circuits keep their arithmetic.

use crate::error::SimError;
use crate::matrix::{ABS_PIVOT_MIN, REL_PIVOT_MIN};
use crate::solver::{BlockKey, LinearSolver, Stamp, Stamper};

/// Sentinel for "row not yet pivoted" in `pinv`.
const UNSET: u32 = u32::MAX;

/// A recorded pivot must stay within this factor of its column's current
/// candidate maximum for the value-only refactorization to be accepted;
/// otherwise the factor falls back to full re-pivoting. 1e-3 mirrors
/// KLU's default partial-pivoting tolerance.
const REFACTOR_PIVOT_TOL: f64 = 1e-3;

/// Threshold pivoting bias toward the structural diagonal: the diagonal
/// row is taken whenever its magnitude is at least this fraction of the
/// best off-diagonal candidate. MNA matrices are near diagonally
/// dominant, and keeping rows paired with their own columns prevents
/// *pivot stranding* — partial pivoting stealing a weakly-coupled row's
/// natural pivot, leaving that row to surface at a late elimination step
/// as a catastrophically cancelled (spuriously "singular") Schur entry.
const DIAG_PIVOT_PREF: f64 = 0.1;

/// How often [`SparseLu`] took each path, since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseCounters {
    /// Symbolic analyses: triplet compression plus the ordering (the
    /// first factor, and every pattern rebuild).
    pub analyses: u64,
    /// Assemblies that diverged from the recorded stamp sequence and
    /// rebuilt the pattern.
    pub rebuilds: u64,
    /// Assemblies that met a block other than the next recorded one and
    /// checked the rest of their stamps one by one.
    pub per_stamp_fallbacks: u64,
    /// Device blocks left out of a replayed assembly as exactly zero.
    pub skipped_blocks: u64,
    /// Full re-pivoting factorizations.
    pub full_factors: u64,
    /// Value-only refactorizations that succeeded.
    pub refactors: u64,
    /// Columns a refactorization left as they were: the same A values,
    /// bit for bit, and updated only by columns it also left.
    pub skipped_columns: u64,
    /// Refactorizations abandoned on a stale pivot (each followed by a
    /// full factor).
    pub stale_pivot_fallbacks: u64,
}

/// Sentinel for a block still open while it is recorded.
const OPEN: u32 = u32::MAX;

/// Sentinel `next_block`: the replay has left the block table, and every
/// stamp goes through the per-stamp check.
const NO_BLOCKS: usize = usize::MAX;

/// CSC sparse LU with symbolic-pattern reuse, behind [`LinearSolver`].
#[derive(Debug)]
pub struct SparseLu {
    n: usize,

    // --- assembly ---
    /// True until the first `factor()`: stamps are recorded as triplets.
    recording: bool,
    /// The recorded stamp sequence, one event per stamp.
    trip: Vec<Event>,
    /// Stamp values for the recording assembly only.
    trip_v: Vec<f64>,
    /// The recorded device blocks, in stamping order; empty after a
    /// rebuild.
    blocks: Vec<Block>,
    /// Replay position in `trip`: after a divergence, the length of the
    /// prefix that still matched.
    cursor: usize,
    /// The block the replay expects next, or [`NO_BLOCKS`].
    next_block: usize,
    /// Out-of-sequence stamps of the current assembly; nonempty exactly
    /// when it diverged from the recorded sequence.
    pending: Vec<(u32, u32, f64)>,

    // --- the assembled matrix, compressed sparse column ---
    ap: Vec<usize>,
    ai: Vec<u32>,
    av: Vec<f64>,
    /// The values of the last successful factor, once the next assembly
    /// has begun (`begin` swaps them out of `av`).
    av_factored: Vec<f64>,
    /// True while `av_factored` holds the matrix the factors were
    /// computed from.
    tracked: bool,

    // --- symbolic analysis ---
    /// Column elimination order: step `j` eliminates original column
    /// `q[j]` (minimum degree on the pattern of A + Aᵀ).
    q: Vec<u32>,

    // --- factors ---
    // L column-wise in *original* row indices, unit diagonal entry first
    // (the pivot row), then the rows pivoted later, in the order the full
    // factor met them; U column-wise in pivot-step indices, the steps
    // that update the column in topological order, diagonal entry last,
    // with each entry's elimination step resolved beside it in `usteps`.
    // Together they are the recorded pattern the refactor walks.
    lp: Vec<usize>,
    li: Vec<u32>,
    lx: Vec<f64>,
    up: Vec<usize>,
    ui: Vec<u32>,
    usteps: Vec<UStep>,
    ux: Vec<f64>,
    /// Original row → pivot step ([`UNSET`] while unpivoted).
    pinv: Vec<u32>,
    /// Pivot step → original row.
    prow: Vec<u32>,
    /// Per pivot step: the refactor under way left the column as it was
    /// (written before any later column reads it).
    clean: Vec<bool>,
    /// Per pivot step: every L entry of the column is finite.
    l_finite: Vec<bool>,
    have_factors: bool,
    factored: bool,
    counters: SparseCounters,

    // --- workspaces (allocated once) ---
    work: Vec<f64>,
    mark: Vec<u32>,
    mark_gen: u32,
    stack: Vec<(u32, usize)>,
    topo: Vec<u32>,
    y: Vec<f64>,
    z: Vec<f64>,
}

/// One event of the recorded stamp sequence: where the stamp landed,
/// and the CSC value slot it adds into (filled by `analyze`).
#[derive(Debug, Clone, Copy)]
struct Event {
    row: u32,
    col: u32,
    slot: u32,
}

/// One U entry's elimination step, resolved by the full factor so the
/// refactor reads it with no indirection: the original row it reads (the
/// pivot row, for a diagonal entry), and the L entries `lstart..lend` it
/// updates (empty for a diagonal entry).
#[derive(Debug, Clone, Copy)]
struct UStep {
    row: u32,
    lstart: u32,
    lend: u32,
}

/// One device's block of the recorded stamp sequence: its key and the
/// events `start..end` it stamped.
#[derive(Debug, Clone, Copy)]
struct Block {
    key: BlockKey,
    start: u32,
    end: u32,
}

/// [`SparseLu`]'s stamper for the first assembly: records every stamp
/// and where each device's block begins and ends.
#[derive(Debug)]
pub struct RecordStamp<'a> {
    n: usize,
    trip: &'a mut Vec<Event>,
    trip_v: &'a mut Vec<f64>,
    blocks: &'a mut Vec<Block>,
}

impl Stamp for RecordStamp<'_> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.n && c < self.n,
            "sparse stamp ({r}, {c}) out of bounds for n = {}",
            self.n
        );
        self.trip.push(Event {
            row: r as u32,
            col: c as u32,
            slot: 0,
        });
        self.trip_v.push(v);
    }

    fn block(&mut self, key: BlockKey) {
        self.close_block();
        self.blocks.push(Block {
            key,
            start: self.trip.len() as u32,
            end: OPEN,
        });
    }
}

impl RecordStamp<'_> {
    /// Ends the block still open, if any, at the next event.
    fn close_block(&mut self) {
        let at = self.trip.len() as u32;
        if let Some(b) = self.blocks.last_mut().filter(|b| b.end == OPEN) {
            b.end = at;
        }
    }
}

impl Drop for RecordStamp<'_> {
    fn drop(&mut self) {
        self.close_block();
    }
}

/// [`SparseLu`]'s stamper for every later assembly. A block whose key
/// and start match the next recorded block adds its stamps straight into
/// the recorded slots, up to the block's recorded end. Every other stamp
/// (outside a block, past a block's end, or after a block that did not
/// match) is checked against the recorded sequence and added into that
/// event's value slot; from the first stamp that does not match, every
/// stamp goes to the pending list and the next `factor()` rebuilds the
/// pattern. The replay position lives here for the assembly and goes
/// back to the solver when the stamper is dropped.
#[derive(Debug)]
pub struct ReplayStamp<'a> {
    n: usize,
    trip: &'a [Event],
    blocks: &'a [Block],
    av: &'a mut [f64],
    pending: &'a mut Vec<(u32, u32, f64)>,
    counters: &'a mut SparseCounters,
    skipped: u64,
    cursor: usize,
    /// The open block's recorded end: stamps below it take the fast path.
    block_end: usize,
    next_block: usize,
    diverged: bool,
    home: (&'a mut usize, &'a mut usize),
}

impl Stamp for ReplayStamp<'_> {
    /// Inside a matched block the stamp goes straight to its recorded
    /// slot (debug builds still compare its coordinate). Elsewhere the
    /// bounds check is the match itself: every recorded coordinate passed
    /// the bounds assert when it was stamped, so a stamp equal to one is
    /// in bounds, and every other stamp reaches the assert in
    /// `off_sequence`.
    #[inline(always)]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        if self.cursor < self.block_end {
            let e = self.trip[self.cursor];
            debug_assert_eq!(
                (e.row as usize, e.col as usize),
                (r, c),
                "a block stamped off its recorded sequence"
            );
            self.av[e.slot as usize] += v;
            self.cursor += 1;
            return;
        }
        match self.trip.get(self.cursor) {
            Some(e) if !self.diverged && (e.row as usize, e.col as usize) == (r, c) => {
                self.av[e.slot as usize] += v;
                self.cursor += 1;
            }
            _ => {
                self.diverged = true;
                self.next_block = NO_BLOCKS;
                off_sequence(self.n, self.pending, r, c, v);
            }
        }
    }

    #[inline(always)]
    fn block(&mut self, key: BlockKey) {
        match self.blocks.get(self.next_block) {
            Some(b) if b.key == key && b.start as usize == self.cursor => {
                self.block_end = b.end as usize;
                self.next_block += 1;
            }
            _ => {
                self.block_end = 0;
                self.next_block = unmatched_block(self.counters, self.next_block);
            }
        }
    }

    /// Leaving the block's stamps out is exact. Every slot and
    /// right-hand-side entry starts the assembly at +0.0, and a
    /// round-to-nearest sum that starts at +0.0 is never −0.0 (an exact
    /// zero sum of nonzero terms is +0.0). Adding ±0.0 to a value that is
    /// not −0.0 returns it unchanged. A NaN is not zero, so it is never
    /// offered.
    #[inline(always)]
    fn skip_zero(&mut self, key: BlockKey) -> bool {
        match self.blocks.get(self.next_block) {
            Some(b) if b.key == key && b.start as usize == self.cursor => {
                self.cursor = b.end as usize;
                self.next_block += 1;
                self.skipped += 1;
                true
            }
            _ => false,
        }
    }
}

/// A block that is not the next recorded one: the rest of the assembly
/// takes the per-stamp check, so the next block becomes [`NO_BLOCKS`].
/// Out of line, like [`off_sequence`], so the replay fast path stays in
/// registers.
#[cold]
#[inline(never)]
fn unmatched_block(counters: &mut SparseCounters, next_block: usize) -> usize {
    if next_block != NO_BLOCKS {
        counters.per_stamp_fallbacks += 1;
    }
    NO_BLOCKS
}

/// A stamp that is not the next recorded one: the bounds panic, or the
/// divergence into `pending`. Kept out of line, and off the stamper's
/// address, so the replay fast path stays in registers.
#[cold]
#[inline(never)]
fn off_sequence(n: usize, pending: &mut Vec<(u32, u32, f64)>, r: usize, c: usize, v: f64) {
    assert!(
        r < n && c < n,
        "sparse stamp ({r}, {c}) out of bounds for n = {n}"
    );
    pending.push((r as u32, c as u32, v));
}

impl Drop for ReplayStamp<'_> {
    fn drop(&mut self) {
        *self.home.0 = self.cursor;
        *self.home.1 = self.next_block;
        self.counters.skipped_blocks += self.skipped;
    }
}

impl SparseLu {
    /// Creates a sparse solver for an `n × n` system.
    pub fn new(n: usize) -> SparseLu {
        SparseLu {
            n,
            recording: true,
            trip: Vec::new(),
            trip_v: Vec::new(),
            blocks: Vec::new(),
            cursor: 0,
            next_block: 0,
            pending: Vec::new(),
            ap: Vec::new(),
            ai: Vec::new(),
            av: Vec::new(),
            av_factored: Vec::new(),
            tracked: false,
            q: Vec::new(),
            lp: Vec::new(),
            li: Vec::new(),
            lx: Vec::new(),
            up: Vec::new(),
            ui: Vec::new(),
            usteps: Vec::new(),
            ux: Vec::new(),
            pinv: Vec::new(),
            prow: Vec::new(),
            clean: vec![false; n],
            l_finite: vec![false; n],
            have_factors: false,
            factored: false,
            counters: SparseCounters::default(),
            work: Vec::new(),
            mark: vec![0; n],
            mark_gen: 0,
            stack: Vec::new(),
            topo: Vec::new(),
            y: Vec::new(),
            z: Vec::new(),
        }
    }

    /// Number of stored nonzeros in the assembled matrix (after the first
    /// `factor`).
    pub fn nnz(&self) -> usize {
        self.ai.len()
    }

    /// Number of stored nonzeros in the L and U factors combined.
    pub fn factor_nnz(&self) -> usize {
        self.li.len() + self.ui.len()
    }

    /// How often each path ran: analyses, pattern rebuilds, per-stamp
    /// fallbacks, skipped blocks, full factors, refactors, skipped
    /// columns and stale-pivot fallbacks.
    pub fn counters(&self) -> SparseCounters {
        self.counters
    }

    /// Compresses the recorded triplets into CSC (duplicates merged, rows
    /// sorted within each column), maps every stamp event to its value
    /// slot, and computes the column elimination order.
    fn analyze(&mut self) {
        self.counters.analyses += 1;
        let n = self.n;
        let mut order: Vec<u32> = (0..self.trip.len() as u32).collect();
        {
            let trip = &self.trip;
            order.sort_unstable_by_key(|&t| {
                let e = trip[t as usize];
                ((e.col as u64) << 32) | e.row as u64
            });
        }
        self.ai.clear();
        self.av.clear();
        let mut counts = vec![0usize; n];
        let mut last: Option<(u32, u32)> = None;
        for &t in &order {
            let Event { row: r, col: c, .. } = self.trip[t as usize];
            if last != Some((r, c)) {
                self.ai.push(r);
                self.av.push(0.0);
                counts[c as usize] += 1;
                last = Some((r, c));
            }
            let slot = self.ai.len() - 1;
            self.trip[t as usize].slot = slot as u32;
            self.av[slot] += self.trip_v[t as usize];
        }
        self.ap.clear();
        self.ap.push(0);
        let mut total = 0usize;
        for &cnt in &counts {
            total += cnt;
            self.ap.push(total);
        }
        self.trip_v.clear();
        self.trip_v.shrink_to_fit();
        self.q = min_degree(n, &self.ap, &self.ai);
        self.have_factors = false;
    }

    /// Rebuilds the pattern when an assembly diverged from the recorded
    /// stamp sequence. The new recorded sequence is the one just stamped
    /// — the matched prefix `trip[..cursor]`, then the pending stamps —
    /// so the next assembly in that order replays without diverging. The
    /// matrix is the same as assembled: the prefix's values, already
    /// summed per slot in `av`, go to each slot's first prefix event.
    /// The block table goes with the old sequence, so later assemblies
    /// take the per-stamp check.
    fn rebuild_from_current(&mut self) {
        self.counters.rebuilds += 1;
        self.blocks.clear();
        let prefix = self.cursor;
        let mut taken = vec![false; self.av.len()];
        let mut trip_v = Vec::with_capacity(prefix + self.pending.len());
        for e in &self.trip[..prefix] {
            let slot = e.slot as usize;
            let first = !std::mem::replace(&mut taken[slot], true);
            trip_v.push(if first { self.av[slot] } else { 0.0 });
        }
        self.trip.truncate(prefix);
        for &(row, col, v) in &self.pending {
            self.trip.push(Event { row, col, slot: 0 });
            trip_v.push(v);
        }
        self.trip_v = trip_v;
        self.pending.clear();
        self.cursor = self.trip.len();
        self.analyze();
    }

    /// Fills `self.topo` with the topological order of the nonzero
    /// pattern of `L⁻¹·A(:, col)` — the rows this column's triangular
    /// solve touches — by DFS over the partially built L.
    fn compute_reach(&mut self, col: usize) {
        self.topo.clear();
        self.mark_gen += 1;
        let gen = self.mark_gen;
        let SparseLu {
            ref ap,
            ref ai,
            ref lp,
            ref li,
            ref pinv,
            ref mut stack,
            ref mut mark,
            ref mut topo,
            ..
        } = *self;
        let child_start = |node: u32| -> usize {
            let k = pinv[node as usize];
            if k == UNSET {
                0
            } else {
                lp[k as usize] + 1
            }
        };
        let child_end = |node: u32| -> usize {
            let k = pinv[node as usize];
            if k == UNSET {
                0
            } else {
                lp[k as usize + 1]
            }
        };
        for &root in &ai[ap[col]..ap[col + 1]] {
            if mark[root as usize] == gen {
                continue;
            }
            mark[root as usize] = gen;
            stack.push((root, child_start(root)));
            while let Some(&(node, ptr)) = stack.last() {
                let end = child_end(node);
                let mut next_ptr = ptr;
                let mut descend = None;
                while next_ptr < end {
                    let child = li[next_ptr];
                    next_ptr += 1;
                    if mark[child as usize] != gen {
                        mark[child as usize] = gen;
                        descend = Some(child);
                        break;
                    }
                }
                stack.last_mut().expect("nonempty").1 = next_ptr;
                match descend {
                    Some(child) => stack.push((child, child_start(child))),
                    None => {
                        topo.push(node);
                        stack.pop();
                    }
                }
            }
        }
        // Reverse finish order = parents before the rows they update.
        topo.reverse();
    }

    /// Full Gilbert–Peierls factorization with partial pivoting. The L
    /// and U patterns it emits record the reach sets and the pivot
    /// sequence for later value-only refactorization.
    // The negated `>=` in the singular test is deliberate: it sends NaN
    // pivots to the error arm too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn factor_full(&mut self) -> Result<(), SimError> {
        self.counters.full_factors += 1;
        let n = self.n;
        self.lp.clear();
        self.li.clear();
        self.lx.clear();
        self.up.clear();
        self.ui.clear();
        self.usteps.clear();
        self.ux.clear();
        self.lp.push(0);
        self.up.push(0);
        self.pinv.clear();
        self.pinv.resize(n, UNSET);
        self.prow.clear();
        self.prow.resize(n, 0);
        self.work.clear();
        self.work.resize(n, 0.0);
        self.have_factors = false;
        for j in 0..n {
            let col = self.q[j] as usize;
            self.compute_reach(col);
            // Scatter A(:, col), taking its scale for the relative
            // singular test (same policy as the dense path), then
            // eliminate in topological order: a sparse triangular solve
            // x = L⁻¹·A(:, col).
            let mut col_scale = 0.0f64;
            for p in self.ap[col]..self.ap[col + 1] {
                self.work[self.ai[p] as usize] = self.av[p];
                col_scale = col_scale.max(self.av[p].abs());
            }
            for t in 0..self.topo.len() {
                let i = self.topo[t] as usize;
                let k = self.pinv[i];
                if k == UNSET {
                    continue;
                }
                let xk = self.work[i];
                for p in self.lp[k as usize] + 1..self.lp[k as usize + 1] {
                    self.work[self.li[p] as usize] -= self.lx[p] * xk;
                }
            }
            // Threshold pivot among the rows not yet assigned to a column:
            // largest magnitude wins, except that the structural diagonal
            // is preferred whenever it is within [`DIAG_PIVOT_PREF`] of it.
            let mut pmag = -1.0f64;
            let mut choice = UNSET;
            for t in 0..self.topo.len() {
                let i = self.topo[t] as usize;
                if self.pinv[i] == UNSET {
                    let m = self.work[i].abs();
                    if m > pmag {
                        pmag = m;
                        choice = i as u32;
                    }
                }
            }
            if choice != col as u32 && self.pinv[col] == UNSET {
                let dm = self.work[col].abs();
                if dm >= DIAG_PIVOT_PREF * pmag {
                    pmag = dm;
                    choice = col as u32;
                }
            }
            if choice == UNSET || pmag < ABS_PIVOT_MIN || !(pmag >= REL_PIVOT_MIN * col_scale) {
                for t in 0..self.topo.len() {
                    self.work[self.topo[t] as usize] = 0.0;
                }
                return Err(SimError::SingularMatrix { column: col });
            }
            // Emit U column j (already-pivoted rows in topo order, then
            // the diagonal) and L column j (unit diagonal first, then the
            // remaining rows divided by the pivot).
            for t in 0..self.topo.len() {
                let i = self.topo[t] as usize;
                let k = self.pinv[i];
                if k != UNSET {
                    self.ui.push(k);
                    self.usteps.push(UStep {
                        row: i as u32,
                        lstart: self.lp[k as usize] as u32 + 1,
                        lend: self.lp[k as usize + 1] as u32,
                    });
                    self.ux.push(self.work[i]);
                }
            }
            let pivot = self.work[choice as usize];
            self.ui.push(j as u32);
            self.usteps.push(UStep {
                row: choice,
                lstart: 0,
                lend: 0,
            });
            self.ux.push(pivot);
            self.up.push(self.ui.len());
            self.li.push(choice);
            self.lx.push(1.0);
            for t in 0..self.topo.len() {
                let i = self.topo[t];
                if self.pinv[i as usize] == UNSET && i != choice {
                    self.li.push(i);
                    self.lx.push(self.work[i as usize] / pivot);
                }
            }
            self.lp.push(self.li.len());
            self.l_finite[j] = self.lx[self.lp[j] + 1..].iter().all(|l| l.is_finite());
            self.pinv[choice as usize] = j as u32;
            self.prow[j] = choice;
            for t in 0..self.topo.len() {
                self.work[self.topo[t] as usize] = 0.0;
            }
        }
        self.have_factors = true;
        Ok(())
    }

    /// Value-only refactorization along the recorded L/U pattern and
    /// pivot sequence: the same arithmetic in the same order as the full
    /// factor that recorded them. Column `j`'s U steps
    /// `ui[up[j]..up[j+1]-1]` are its eliminations in topological order
    /// (entry `p` reads original row `usteps[p].row` and updates the L
    /// entries `usteps[p].lstart..lend`), its pivot row is
    /// `usteps[up[j+1]-1].row`, and `li[lp[j]+1..lp[j+1]]` are its L rows.
    ///
    /// With `tracked` (`av_factored` holds the factored matrix), a column
    /// whose A values are bit for bit those of the last successful
    /// factor, and whose U steps are all columns left as they were, is
    /// left as it is: the same inputs through the same arithmetic give
    /// the values it already holds. Returns `false`
    /// (without touching the recorded pattern) when a recorded pivot went
    /// numerically stale, in which case the caller runs
    /// [`Self::factor_full`] again.
    fn refactor(&mut self, tracked: bool) -> bool {
        let SparseLu {
            n,
            ref ap,
            ref ai,
            ref av,
            ref av_factored,
            ref q,
            ref lp,
            ref li,
            ref mut lx,
            ref up,
            ref ui,
            ref usteps,
            ref mut ux,
            ref mut clean,
            ref mut l_finite,
            ref mut work,
            ref mut counters,
            ..
        } = *self;
        work.clear();
        work.resize(n, 0.0);
        let mut skipped = 0;
        // Every L entry of the columns before `j` is finite.
        let mut finite_before = true;
        for j in 0..n {
            let col = q[j] as usize;
            let a = ap[col]..ap[col + 1];
            let diag = up[j + 1] - 1;
            clean[j] = tracked
                && av[a.clone()]
                    .iter()
                    .zip(&av_factored[a.clone()])
                    .all(|(v, w)| v.to_bits() == w.to_bits())
                && ui[up[j]..diag].iter().all(|&k| clean[k as usize]);
            if clean[j] {
                skipped += 1;
                finite_before &= l_finite[j];
                continue;
            }
            // Scatter A(:, col) and take its scale.
            let mut col_scale = 0.0f64;
            for (&i, &v) in ai[a.clone()].iter().zip(&av[a]) {
                work[i as usize] = v;
                col_scale = col_scale.max(v.abs());
            }
            // Eliminate over U. A row is final once its step reads it
            // (topological order: nothing later updates it), so it is
            // zeroed on the way. A step whose multiplier is exactly zero,
            // over finite L entries (each step reads an earlier column),
            // changes no bit and is left out: `l·(±0)` is ±0, and `work`
            // never holds −0.0 (it starts at +0.0 and takes A values and
            // round-to-nearest differences, none of which is −0.0).
            for (step, u) in usteps[up[j]..diag].iter().zip(&mut ux[up[j]..diag]) {
                let xk = std::mem::take(&mut work[step.row as usize]);
                *u = xk;
                if xk == 0.0 && finite_before {
                    continue;
                }
                let (ls, le) = (step.lstart as usize, step.lend as usize);
                for (&i, &l) in li[ls..le].iter().zip(&lx[ls..le]) {
                    work[i as usize] -= l * xk;
                }
            }
            let pivot = std::mem::take(&mut work[usteps[diag].row as usize]);
            let pmag = pivot.abs();
            let lrows = lp[j] + 1..lp[j + 1];
            // The candidates are the pivot row and the L rows.
            let cmax = li[lrows.clone()]
                .iter()
                .fold(pmag, |m, &i| m.max(work[i as usize].abs()));
            let stable = pmag >= ABS_PIVOT_MIN
                && pmag >= REL_PIVOT_MIN * col_scale
                && pmag >= REFACTOR_PIVOT_TOL * cmax;
            if !stable {
                for &i in &li[lrows] {
                    work[i as usize] = 0.0;
                }
                return false;
            }
            ux[diag] = pivot;
            let mut finite = true;
            for (&i, l) in li[lrows.clone()].iter().zip(&mut lx[lrows]) {
                *l = std::mem::take(&mut work[i as usize]) / pivot;
                finite &= l.is_finite();
            }
            l_finite[j] = finite;
            finite_before &= finite;
        }
        counters.skipped_columns += skipped;
        true
    }
}

impl LinearSolver for SparseLu {
    fn dim(&self) -> usize {
        self.n
    }

    fn begin(&mut self) {
        if self.recording {
            self.trip.clear();
            self.trip_v.clear();
            self.blocks.clear();
        } else {
            // The matrix just factored becomes the one the next refactor
            // compares its columns with.
            if self.factored {
                std::mem::swap(&mut self.av, &mut self.av_factored);
                self.tracked = true;
            }
            self.av.clear();
            self.av.resize(self.ai.len(), 0.0);
            self.cursor = 0;
            self.next_block = 0;
            self.pending.clear();
        }
        self.factored = false;
    }

    fn stamper(&mut self) -> Stamper<'_> {
        if self.recording {
            return Stamper::Record(RecordStamp {
                n: self.n,
                trip: &mut self.trip,
                trip_v: &mut self.trip_v,
                blocks: &mut self.blocks,
            });
        }
        let diverged = !self.pending.is_empty();
        Stamper::Replay(ReplayStamp {
            n: self.n,
            trip: &self.trip,
            blocks: &self.blocks,
            av: &mut self.av,
            pending: &mut self.pending,
            counters: &mut self.counters,
            skipped: 0,
            cursor: self.cursor,
            block_end: 0,
            next_block: self.next_block,
            diverged,
            home: (&mut self.cursor, &mut self.next_block),
        })
    }

    fn factor(&mut self) -> Result<(), SimError> {
        let tracked = std::mem::replace(&mut self.tracked, false);
        if self.recording {
            self.analyze();
            self.recording = false;
        } else if !self.pending.is_empty() {
            self.rebuild_from_current();
        }
        if self.have_factors {
            if self.refactor(tracked) {
                self.counters.refactors += 1;
                self.factored = true;
                return Ok(());
            }
            self.counters.stale_pivot_fallbacks += 1;
        }
        self.factor_full()?;
        self.factored = true;
        Ok(())
    }
    fn solve_in_place(&mut self, b: &mut [f64]) {
        assert!(self.factored, "solve_in_place before a successful factor");
        let n = self.n;
        assert_eq!(b.len(), n);
        // Forward solve L·z = b with L in original row space: z lives in
        // pivot order, the running right-hand side in original order.
        self.y.clear();
        self.y.extend_from_slice(b);
        self.z.clear();
        self.z.resize(n, 0.0);
        for j in 0..n {
            let zj = self.y[self.prow[j] as usize];
            self.z[j] = zj;
            if zj != 0.0 {
                for p in self.lp[j] + 1..self.lp[j + 1] {
                    self.y[self.li[p] as usize] -= self.lx[p] * zj;
                }
            }
        }
        // Back solve U·w = z (columns in reverse, diagonal stored last).
        for j in (0..n).rev() {
            let zj = self.z[j] / self.ux[self.up[j + 1] - 1];
            self.z[j] = zj;
            if zj != 0.0 {
                for p in self.up[j]..self.up[j + 1] - 1 {
                    self.z[self.ui[p] as usize] -= self.ux[p] * zj;
                }
            }
        }
        // Undo the column permutation.
        for j in 0..n {
            b[self.q[j] as usize] = self.z[j];
        }
    }

    fn name(&self) -> &'static str {
        "sparse"
    }
}

/// Minimum-degree ordering on the symmetrized pattern of the assembled
/// matrix (A + Aᵀ, diagonal ignored): repeatedly eliminates a node of
/// minimum current degree and forms the resulting clique among its live
/// neighbors. Clique formation is budget-capped so pathological dense
/// rows degrade to plain degree ordering instead of quadratic blowup.
fn min_degree(n: usize, ap: &[usize], ai: &[u32]) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for c in 0..n {
        for &row in &ai[ap[c]..ap[c + 1]] {
            let r = row as usize;
            if r != c {
                adj[r].push(c as u32);
                adj[c].push(r as u32);
            }
        }
    }
    let mut edges = 0usize;
    for l in adj.iter_mut() {
        l.sort_unstable();
        l.dedup();
        edges += l.len();
    }
    let mut cur_deg: Vec<u32> = adj.iter().map(|l| l.len() as u32).collect();
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> =
        (0..n).map(|i| Reverse((cur_deg[i], i as u32))).collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut budget = 32 * edges + 4096;
    let mut scratch: Vec<u32> = Vec::new();
    while let Some(Reverse((d, v))) = heap.pop() {
        let vu = v as usize;
        if eliminated[vu] || d != cur_deg[vu] {
            continue;
        }
        eliminated[vu] = true;
        order.push(v);
        if budget == 0 {
            continue;
        }
        let live: Vec<u32> = adj[vu]
            .iter()
            .copied()
            .filter(|&u| !eliminated[u as usize])
            .collect();
        for &u in &live {
            let uu = u as usize;
            scratch.clear();
            scratch.extend(adj[uu].iter().copied().filter(|&w| !eliminated[w as usize]));
            scratch.extend(live.iter().copied().filter(|&w| w != u));
            scratch.sort_unstable();
            scratch.dedup();
            budget = budget.saturating_sub(scratch.len());
            std::mem::swap(&mut adj[uu], &mut scratch);
            cur_deg[uu] = adj[uu].len() as u32;
            heap.push(Reverse((cur_deg[uu], u)));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{solve as dense_solve, Matrix};

    /// Stamps the same triplets into a dense matrix and a sparse solver,
    /// solves both, and checks agreement to tight tolerance.
    fn check_against_dense(n: usize, stamps: &[(usize, usize, f64)], b: &[f64]) -> Vec<f64> {
        let mut dense = Matrix::zeros(n, n);
        for &(r, c, v) in stamps {
            dense.add(r, c, v);
        }
        let reference = dense_solve(dense, b).unwrap();

        let mut sp = SparseLu::new(n);
        sp.begin();
        for &(r, c, v) in stamps {
            sp.add(r, c, v);
        }
        sp.factor().unwrap();
        let mut x = b.to_vec();
        sp.solve_in_place(&mut x);
        for (i, (p, q)) in reference.iter().zip(&x).enumerate() {
            assert!(
                (p - q).abs() <= 1e-9 * (1.0 + p.abs()),
                "x[{i}]: dense {p} vs sparse {q}"
            );
        }
        x
    }

    #[test]
    fn matches_dense_on_small_system() {
        check_against_dense(
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 3.0),
                (1, 2, -0.5),
                (2, 1, -0.5),
                (2, 2, 1.25),
            ],
            &[1.0, 0.25, -2.0],
        );
    }

    #[test]
    fn handles_zero_diagonal_rows_like_vsource_branches() {
        // MNA with an ideal source: the branch row/column has a
        // structurally zero diagonal, so pivoting is mandatory.
        check_against_dense(
            3,
            &[
                (0, 0, 1e-3),
                (0, 2, 1.0),
                (2, 0, 1.0),
                (0, 1, -1e-3),
                (1, 0, -1e-3),
                (1, 1, 2e-3),
            ],
            &[0.0, 1e-3, 5.0],
        );
    }

    #[test]
    fn pattern_reuse_replays_new_values() {
        let n = 4;
        let stamps = |g: f64| {
            vec![
                (0usize, 0usize, 1.0 + g),
                (0, 1, -g),
                (1, 0, -g),
                (1, 1, 2.0 * g + 0.5),
                (1, 2, -g),
                (2, 1, -g),
                (2, 2, g + 0.25),
                (3, 3, 1.0),
                (0, 3, 0.125),
            ]
        };
        let b = [1.0, -1.0, 0.5, 2.0];
        let mut sp = SparseLu::new(n);
        for round in 0..5 {
            let g = 0.5 + round as f64;
            sp.begin();
            for &(r, c, v) in &stamps(g) {
                sp.add(r, c, v);
            }
            sp.factor().unwrap();
            let mut x = b.to_vec();
            sp.solve_in_place(&mut x);

            let mut dense = Matrix::zeros(n, n);
            for &(r, c, v) in &stamps(g) {
                dense.add(r, c, v);
            }
            let reference = dense_solve(dense, &b).unwrap();
            for (p, q) in reference.iter().zip(&x) {
                assert!((p - q).abs() < 1e-12, "round {round}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn refactor_falls_back_when_pivot_order_goes_stale() {
        // First factor pivots column 0 on row 1: the diagonal 1e-3 is
        // under `DIAG_PIVOT_PREF` of |1|. The second assembly flips the
        // magnitudes so the recorded pivot is 1e4× smaller than the new
        // candidate — refactor must bail and a full re-pivoting factor
        // must still produce the right answer. A third assembly with the
        // same magnitudes refactors along the new pivots.
        let b = [1.0, 2.0];
        let mut sp = SparseLu::new(2);
        let rounds = [
            [1e-3, 2.0, 1.0, 4.0],
            [10.0, 2.0, 1e-3, 4.0],
            [9.0, 2.0, 2e-3, 4.0],
        ];
        for (round, a) in rounds.iter().enumerate() {
            sp.begin();
            sp.add(0, 0, a[0]);
            sp.add(0, 1, a[1]);
            sp.add(1, 0, a[2]);
            sp.add(1, 1, a[3]);
            sp.factor().unwrap();
            let mut x = b.to_vec();
            sp.solve_in_place(&mut x);
            let mut dense = Matrix::zeros(2, 2);
            dense.add(0, 0, a[0]);
            dense.add(0, 1, a[1]);
            dense.add(1, 0, a[2]);
            dense.add(1, 1, a[3]);
            let reference = dense_solve(dense, &b).unwrap();
            for (p, q) in reference.iter().zip(&x) {
                assert!((p - q).abs() < 1e-12, "round {round}: {p} vs {q}");
            }
        }
        let c = sp.counters();
        assert_eq!(
            (c.full_factors, c.refactors, c.stale_pivot_fallbacks),
            (2, 1, 1)
        );
    }

    #[test]
    fn diverged_stamp_sequence_rebuilds_pattern() {
        let b = [1.0, 2.0, 3.0];
        let mut sp = SparseLu::new(3);
        sp.begin();
        sp.add(0, 0, 2.0);
        sp.add(1, 1, 3.0);
        sp.add(2, 2, 4.0);
        sp.factor().unwrap();
        let mut x = b.to_vec();
        sp.solve_in_place(&mut x);
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert_eq!(sp.counters().analyses, 1);

        // New assemblies with a different sequence and an extra entry: the
        // first diverges and rebuilds; the pattern it records is the new
        // sequence, so the next two replay it without diverging.
        let stamps = |g: f64| {
            [
                (1, 1, 3.0),
                (0, 0, 2.0 * g),
                (0, 1, -g),
                (2, 2, 4.0),
                (1, 1, g),
            ]
        };
        for round in 1..=3 {
            let g = round as f64;
            sp.begin();
            for &(r, c, v) in &stamps(g) {
                sp.add(r, c, v);
            }
            sp.factor().unwrap();
            let counters = sp.counters();
            assert_eq!(counters.rebuilds, 1, "round {round} diverged again");
            assert_eq!(counters.analyses, 2, "round {round} re-analyzed");
            let mut x = b.to_vec();
            sp.solve_in_place(&mut x);
            let mut dense = Matrix::zeros(3, 3);
            for &(r, c, v) in &stamps(g) {
                dense.add(r, c, v);
            }
            let reference = dense_solve(dense, &b).unwrap();
            for (p, q) in reference.iter().zip(&x) {
                assert!((p - q).abs() < 1e-12, "round {round}: {p} vs {q}");
            }
        }
        // One full factor per analysis; the rest refactored in place.
        let counters = sp.counters();
        assert_eq!(counters.full_factors, 2);
        assert_eq!(counters.refactors, 2);
        assert_eq!(counters.stale_pivot_fallbacks, 0);
    }

    #[test]
    fn diverged_mid_sequence_keeps_the_matched_prefix() {
        // The second assembly matches the first two recorded stamps, then
        // diverges; the rebuilt sequence is that prefix plus the pending
        // stamps, and the matrix is the one just stamped (the prefix's
        // duplicate stamps already summed).
        let first = [(0, 0, 1.0), (0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)];
        let second = [
            (0, 0, 1.5),
            (0, 0, 0.5),
            (2, 2, 2.0),
            (1, 0, -0.25),
            (1, 1, 3.0),
        ];
        let b = [1.0, -1.0, 0.5];
        let mut sp = SparseLu::new(3);
        for stamps in [&first[..], &second[..], &second[..]] {
            sp.begin();
            for &(r, c, v) in stamps {
                sp.add(r, c, v);
            }
            sp.factor().unwrap();
            let mut x = b.to_vec();
            sp.solve_in_place(&mut x);
            let mut dense = Matrix::zeros(3, 3);
            for &(r, c, v) in stamps {
                dense.add(r, c, v);
            }
            let reference = dense_solve(dense, &b).unwrap();
            for (p, q) in reference.iter().zip(&x) {
                assert!((p - q).abs() < 1e-12, "{p} vs {q}");
            }
        }
        assert_eq!(sp.counters().rebuilds, 1);
        let recorded: Vec<_> = sp.trip.iter().map(|e| (e.row, e.col)).collect();
        assert_eq!(recorded, [(0, 0), (0, 0), (2, 2), (1, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn replayed_stamp_out_of_bounds_panics() {
        let mut sp = SparseLu::new(2);
        sp.begin();
        sp.add(0, 0, 1.0);
        sp.add(1, 1, 1.0);
        sp.factor().unwrap();
        sp.begin();
        sp.add(0, 0, 1.0);
        sp.add(1, 2, 1.0);
    }

    /// One assembly as device blocks: each block's key word and stamps.
    type Assembly = Vec<(u32, Vec<(usize, usize, f64)>)>;

    /// Stamps `blocks` through the solver's own stamper, one block per
    /// device, factors, and checks the solution against dense LU.
    fn solve_blocks(sp: &mut SparseLu, blocks: &Assembly, b: &[f64]) -> Vec<f64> {
        sp.begin();
        {
            let mut stamper = sp.stamper();
            for (key, stamps) in blocks {
                stamper.block(BlockKey([*key, 0, 0, 0]));
                for &(r, c, v) in stamps {
                    stamper.add(r, c, v);
                }
            }
        }
        sp.factor().unwrap();
        let mut x = b.to_vec();
        sp.solve_in_place(&mut x);
        let mut dense = Matrix::zeros(sp.n, sp.n);
        for &(r, c, v) in blocks.iter().flat_map(|(_, stamps)| stamps) {
            dense.add(r, c, v);
        }
        let reference = dense_solve(dense, b).unwrap();
        for (p, q) in reference.iter().zip(&x) {
            assert!((p - q).abs() < 1e-12, "{p} vs {q}");
        }
        x
    }

    /// Three device blocks over a 3-unknown system.
    fn three_blocks() -> Assembly {
        vec![
            (1, vec![(0, 0, 2.0), (0, 1, -0.5)]),
            (2, vec![(1, 1, 3.0), (1, 0, -0.5), (1, 2, -1.0)]),
            (3, vec![(2, 2, 4.0), (2, 1, -1.0)]),
        ]
    }

    #[test]
    fn each_block_mismatch_falls_back_rebuilds_and_solves_like_dense() {
        let b = [1.0, -2.0, 0.5];
        let mut changed_key = three_blocks();
        changed_key[1] = (9, vec![(1, 1, 3.0), (1, 2, -1.0), (2, 0, 0.25)]);
        let mut runs_long = three_blocks();
        runs_long[1].1.push((0, 2, 0.75));
        let mut ends_early = three_blocks();
        ends_early[1].1.pop();
        let mut reordered = three_blocks();
        reordered.rotate_left(1);
        for (name, variant) in [
            ("changed key", changed_key),
            ("runs long", runs_long),
            ("ends early", ends_early),
            ("reordered", reordered),
        ] {
            let mut sp = SparseLu::new(3);
            solve_blocks(&mut sp, &three_blocks(), &b);
            // The first variant assembly leaves the blocks and rebuilds;
            // the rebuilt sequence replays stamp by stamp from then on.
            for _ in 0..4 {
                solve_blocks(&mut sp, &variant, &b);
            }
            let c = sp.counters();
            assert_eq!((c.rebuilds, c.analyses), (1, 2), "{name}: {c:?}");
            assert!(c.per_stamp_fallbacks >= 3, "{name}: {c:?}");
            assert!(sp.blocks.is_empty(), "{name}: blocks kept past a rebuild");
        }
    }

    #[test]
    fn only_a_replay_skips_zero_blocks() {
        let key = |k| BlockKey([k, 0, 0, 0]);
        let mut dense = crate::solver::DenseSolver::new(3);
        dense.begin();
        assert!(!dense.stamper().skip_zero(key(1)), "dense never skips");
        let mut sp = SparseLu::new(3);
        sp.begin();
        assert!(
            !sp.stamper().skip_zero(key(1)),
            "recording needs every stamp"
        );

        // Block 2 all zero (either sign), stamped by one solver and left
        // out by another with the same history: the same bits.
        let mut base = three_blocks();
        base[0].1.push((1, 1, 1.0));
        let mut zeroed = base.clone();
        zeroed[1].1 = vec![(1, 1, 0.0), (1, 0, -0.0), (1, 2, 0.0)];
        let b = [1.0, -2.0, 0.5];
        let mut stamped = SparseLu::new(3);
        solve_blocks(&mut stamped, &base, &b);
        let expected = solve_blocks(&mut stamped, &zeroed, &b);
        let mut skipping = SparseLu::new(3);
        solve_blocks(&mut skipping, &base, &b);
        skipping.begin();
        {
            let mut stamper = skipping.stamper();
            for (k, stamps) in &zeroed {
                if *k == 2 {
                    assert!(!stamper.skip_zero(key(3)), "only the next block");
                    assert!(stamper.skip_zero(key(2)));
                    continue;
                }
                stamper.block(key(*k));
                for &(r, c, v) in stamps {
                    stamper.add(r, c, v);
                }
            }
        }
        skipping.factor().unwrap();
        let mut x = b.to_vec();
        skipping.solve_in_place(&mut x);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&expected));
        let c = skipping.counters();
        assert_eq!((c.skipped_blocks, c.per_stamp_fallbacks), (1, 0), "{c:?}");

        // A rebuild drops the block table, so nothing skips after it.
        let mut reordered = base.clone();
        reordered.rotate_left(1);
        solve_blocks(&mut skipping, &reordered, &b);
        skipping.begin();
        assert!(!skipping.stamper().skip_zero(key(2)), "after a rebuild");
    }

    /// Factors each assembly of `rounds` in one solver (refactoring, and
    /// leaving settled columns as they were) and in a fresh one (a full
    /// factor), and checks that the factors and the solutions agree bit
    /// for bit. Returns the reused solver's counters.
    fn refactor_rounds_match_fresh_factors(
        n: usize,
        rounds: &[Vec<(usize, usize, f64)>],
    ) -> SparseCounters {
        let b: Vec<f64> = (0..n).map(|i| 1.0 - 0.125 * i as f64).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut reused = SparseLu::new(n);
        for (round, stamps) in rounds.iter().enumerate() {
            let mut fresh = SparseLu::new(n);
            let mut solutions = Vec::new();
            for sp in [&mut reused, &mut fresh] {
                sp.begin();
                for &(r, c, v) in stamps {
                    sp.add(r, c, v);
                }
                sp.factor().unwrap();
                let mut x = b.clone();
                sp.solve_in_place(&mut x);
                solutions.push(bits(&x));
            }
            assert_eq!(reused.prow, fresh.prow, "round {round}: pivots");
            assert_eq!(bits(&reused.lx), bits(&fresh.lx), "round {round}: L");
            assert_eq!(bits(&reused.ux), bits(&fresh.ux), "round {round}: U");
            assert_eq!(solutions[0], solutions[1], "round {round}: solution");
        }
        reused.counters()
    }

    #[test]
    fn partial_refactor_equals_a_fresh_full_factor_bit_for_bit() {
        // A diagonally dominant system (so a full factor keeps the
        // recorded diagonal pivots) whose rounds change a seeded third of
        // the columns, rescaled or with their off-diagonal entries set to
        // exact zeros, and leave the rest bit for bit alone.
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 10_000) as f64 / 10_000.0
        };
        let n = 40;
        let mut stamps = Vec::new();
        for r in 0..n {
            for _ in 0..3 {
                let c = (next() * n as f64) as usize % n;
                if c != r {
                    stamps.push((r, c, -(0.01 + next())));
                }
            }
            stamps.push((r, r, 8.0 + next()));
        }
        let mut rounds = vec![stamps.clone()];
        for _ in 0..12 {
            let scale: Vec<f64> = (0..n)
                .map(|_| match next() {
                    x if x < 0.17 => 0.0,
                    x if x < 0.33 => 0.5 + next(),
                    _ => 1.0,
                })
                .collect();
            let round = stamps
                .iter()
                .map(|&(r, c, v)| match scale[c] {
                    0.0 if r == c => (r, c, v),
                    s => (r, c, v * s),
                })
                .collect();
            rounds.push(round);
        }
        let c = refactor_rounds_match_fresh_factors(n, &rounds);
        assert_eq!((c.full_factors, c.stale_pivot_fallbacks), (1, 0), "{c:?}");
        assert!(c.skipped_columns > 0, "{c:?}");
        assert!(c.skipped_columns < 12 * n as u64, "{c:?}");
    }

    #[test]
    fn partial_refactor_after_a_stale_pivot_equals_a_fresh_full_factor() {
        // Column 0 first pivots on row 1; the second round makes that
        // pivot stale, and the full factor it falls back to pivots on
        // row 0. Later rounds change column 1 only, then nothing, so
        // column 0 is left as it was.
        let round = |a: [f64; 4]| vec![(0, 0, a[0]), (0, 1, a[1]), (1, 0, a[2]), (1, 1, a[3])];
        let rounds = [
            round([1e-3, 2.0, 1.0, 4.0]),
            round([10.0, 2.0, 1e-3, 4.0]),
            round([10.0, 3.0, 1e-3, 5.0]),
            round([10.0, 3.0, 1e-3, 5.0]),
            round([10.0, 2.5, 1e-3, 5.0]),
        ];
        let c = refactor_rounds_match_fresh_factors(2, &rounds);
        assert_eq!((c.full_factors, c.stale_pivot_fallbacks), (2, 1), "{c:?}");
        assert_eq!(c.skipped_columns, 4, "{c:?}");
    }

    #[test]
    fn zero_multiplier_over_a_nan_l_entry_still_reaches_the_column() {
        // The second assembly's L entry for row 1 is NaN, and column 1's
        // one U step multiplies it by an exact zero. NaN·0 is NaN, so
        // column 1 has no pivot: in the refactor, which must not leave
        // that step out, as in a fresh full factor.
        let round = |a01: f64, a10: f64| [(0, 0, 2.0), (0, 1, a01), (1, 0, a10), (1, 1, 3.0)];
        let mut reused = SparseLu::new(2);
        reused.begin();
        for (r, c, v) in round(0.5, 1.0) {
            reused.add(r, c, v);
        }
        reused.factor().unwrap();
        for sp in [&mut reused, &mut SparseLu::new(2)] {
            sp.begin();
            for (r, c, v) in round(0.0, f64::NAN) {
                sp.add(r, c, v);
            }
            assert_eq!(sp.factor(), Err(SimError::SingularMatrix { column: 1 }));
        }
        assert_eq!(reused.counters().stale_pivot_fallbacks, 1);
    }

    #[test]
    fn structurally_singular_reports_column() {
        // Column 1 has no entries at all.
        let mut sp = SparseLu::new(3);
        sp.begin();
        sp.add(0, 0, 1.0);
        sp.add(2, 2, 1.0);
        sp.add(0, 2, 0.5);
        assert_eq!(sp.factor(), Err(SimError::SingularMatrix { column: 1 }));
    }

    #[test]
    fn detects_singular_at_large_scale_like_dense() {
        let mut sp = SparseLu::new(2);
        sp.begin();
        sp.add(0, 0, 1e8);
        sp.add(0, 1, 2e8);
        sp.add(1, 0, 3e8);
        sp.add(1, 1, 6e8 + 1e-6);
        assert!(matches!(sp.factor(), Err(SimError::SingularMatrix { .. })));
    }

    #[test]
    fn diagonal_preference_avoids_pivot_stranding() {
        // Newton Jacobian of a 12-stage CMOS inverter chain at a
        // gmin-rescue rung, captured from the engine. Pure partial
        // pivoting steals row 2's natural pivot (column 2's off-diagonal
        // is 1.05× its diagonal), strands row 2 until the last
        // elimination step, and lands on a catastrophically cancelled
        // ~5e-17 Schur entry — a spurious singular verdict on a matrix
        // the dense path factors. Diagonal-preference threshold pivoting
        // must keep row 2 paired with column 2 and factor it.
        let stamps: &[(usize, usize, f64)] = &[
            (0, 0, 0.06359240667920467),
            (2, 0, 0.0),
            (3, 0, -0.0005461881826892369),
            (4, 0, -0.0007963339066800706),
            (5, 0, -0.0011789902425160038),
            (6, 0, -0.001732513642059966),
            (7, 0, -0.0025237565619911848),
            (8, 0, -0.0036332583373447657),
            (9, 0, -0.0051530622530034376),
            (10, 0, -0.007180974487468129),
            (11, 0, -0.009818655776366172),
            (12, 0, -0.01319624415311309),
            (13, 0, -0.017732429135972613),
            (14, 0, 1.0),
            (0, 1, 0.0),
            (1, 1, 0.0001),
            (2, 1, 0.0),
            (15, 1, 1.0),
            (0, 2, -0.0005269881826892368),
            (2, 2, 0.0005),
            (3, 2, 0.0005269881826892368),
            (0, 3, -0.0007882316370549976),
            (3, 3, 0.00011920000000000001),
            (4, 3, 0.0007690316370549976),
            (0, 4, -0.0011662666397694666),
            (4, 4, 0.00012730226962507298),
            (5, 4, 0.0011389643701443936),
            (0, 5, -0.0017146489779710252),
            (5, 5, 0.00014002587237161034),
            (6, 5, 0.001674623105599415),
            (0, 6, -0.0024992233761252022),
            (6, 6, 0.000157890536460551),
            (7, 6, 0.0024413328396646512),
            (0, 7, -0.0036008174827751446),
            (7, 7, 0.00018242372232653368),
            (8, 7, 0.003518393760448611),
            (0, 8, -0.005112192558799465),
            (8, 8, 0.0002148645768961548),
            (9, 8, 0.00499732798190331),
            (0, 9, -0.0071324135800083675),
            (9, 9, 0.00025573427110012756),
            (10, 9, 0.00697667930890824),
            (0, 10, -0.009764505197743434),
            (10, 10, 0.0003042951785598896),
            (11, 10, 0.009959738495211017),
            (0, 11, -0.013138907994343372),
            (11, 11, 0.0003588389122668803),
            (12, 11, 0.015165521653874383),
            (0, 12, -0.017663178095821453),
            (12, 12, 0.0004242704121514973),
            (13, 12, 0.02309958535023213),
            (0, 13, -0.0003850329561035009),
            (13, 13, 0.0005205887655440257),
            (0, 14, 1.0),
            (1, 15, 1.0),
        ];
        let b: Vec<f64> = (0..16).map(|i| 0.25 * (i as f64) - 1.0).collect();
        check_against_dense(16, stamps, &b);
    }

    #[test]
    fn random_diagonally_dominant_systems_match_dense() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 10_000) as f64 / 10_000.0
        };
        for &n in &[5usize, 17, 40, 90] {
            let mut stamps = Vec::new();
            let mut b = vec![0.0; n];
            for (r, rhs) in b.iter_mut().enumerate() {
                // A few off-diagonal couplings per row, diagonally dominant.
                for _ in 0..3 {
                    let c = (next() * n as f64) as usize % n;
                    if c != r {
                        let g = 0.01 + next();
                        stamps.push((r, c, -g));
                        stamps.push((r, r, g));
                    }
                }
                stamps.push((r, r, 1.0 + next()));
                *rhs = next() - 0.5;
            }
            check_against_dense(n, &stamps, &b);
        }
    }

    #[test]
    fn empty_system_is_trivial() {
        let mut sp = SparseLu::new(0);
        sp.begin();
        sp.factor().unwrap();
        let mut x: Vec<f64> = vec![];
        sp.solve_in_place(&mut x);
    }
}
