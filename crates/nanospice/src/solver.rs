//! The `LinearSolver` trait: one assembly/factor/solve interface over
//! interchangeable dense and sparse LU backends.
//!
//! The MNA system's sparsity pattern is fixed per (circuit, analysis
//! mode), so the lifecycle is: create one solver per analysis, then per
//! Newton iteration call [`LinearSolver::begin`], stamp through the
//! backend's [`Stamper`], [`LinearSolver::factor`], and
//! [`LinearSolver::solve_in_place`]. Backends exploit the repetition —
//! the dense path reuses its matrix and permutation allocations, the
//! sparse path ([`SparseLu`]) additionally reuses its symbolic
//! analysis (fill pattern, elimination order, pivot sequence) so that
//! iterations after the first are value-only refactorizations.
//!
//! Stamping is statically dispatched: [`LinearSolver::stamper`] is the
//! one virtual call per assembly, and it hands out a concrete [`Stamp`]
//! implementation that the assembler is generic over. Each backend has
//! exactly one stamping implementation; [`LinearSolver::add`] is a
//! single stamp through it. The assembler groups each device's stamps
//! into a block named by a [`BlockKey`], which lets the sparse replay
//! check one key per device instead of one coordinate per stamp.

use crate::error::SimError;
use crate::matrix::{lu_factor_in_place, lu_solve_in_place, Matrix};
use crate::sparse::{RecordStamp, ReplayStamp, SparseLu};

/// Unknown count at or below which [`SolverChoice::Auto`] picks the
/// dense backend. Dense LU is O(n³) but cache-friendly with zero
/// symbolic overhead; profiling across the generator circuits puts the
/// crossover in the dozens of unknowns.
pub const DENSE_SPARSE_THRESHOLD: usize = 64;

/// Which linear-solver backend the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverChoice {
    /// Dense at or below [`DENSE_SPARSE_THRESHOLD`] unknowns, sparse above.
    #[default]
    Auto,
    /// Always dense LU — the small-circuit fast path and the differential
    /// test oracle.
    Dense,
    /// Always CSC sparse LU with pattern reuse.
    Sparse,
}

/// A direct solver for one fixed-size linear system `A·x = b`, reused
/// across many assemble/factor/solve rounds.
pub trait LinearSolver {
    /// Dimension of the square system.
    fn dim(&self) -> usize;

    /// Starts a fresh assembly: every coefficient returns to zero while
    /// allocations (and, for the sparse backend, the symbolic pattern)
    /// are kept.
    fn begin(&mut self);

    /// Borrows the backend's stamper for the current assembly (after
    /// [`Self::begin`]). Stamps made through it land exactly as
    /// [`Self::add`] would place them, one after another.
    fn stamper(&mut self) -> Stamper<'_>;

    /// Adds `v` to entry `(r, c)` — the MNA stamp primitive, one stamp
    /// through [`Self::stamper`].
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of bounds.
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.stamper().add(r, c, v);
    }

    /// Factors the assembled matrix.
    ///
    /// # Errors
    /// Returns [`SimError::SingularMatrix`] when some column has no
    /// usable pivot relative to its scale (see
    /// [`REL_PIVOT_MIN`](crate::matrix::REL_PIVOT_MIN)).
    fn factor(&mut self) -> Result<(), SimError>;

    /// Solves with the factors from the last successful [`Self::factor`],
    /// overwriting `b` with the solution.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()` or no factorization is current.
    fn solve_in_place(&mut self, b: &mut [f64]);

    /// Short backend name for diagnostics ("dense" / "sparse").
    fn name(&self) -> &'static str;
}

/// The exact identity of one device's block of stamps: the device kind,
/// then its terminal unknowns (ground as `u32::MAX`), a source's branch
/// row among them. The assembler stamps the same `(row, col)` sequence
/// for every block with the same key; that is what lets a replay trust a
/// block after one key comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockKey(pub [u32; 4]);

/// Adds values into the matrix being assembled: the MNA stamp
/// primitive, implemented once per backend.
pub trait Stamp {
    /// Adds `v` to entry `(r, c)`.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of bounds.
    fn add(&mut self, r: usize, c: usize, v: f64);

    /// Starts one device's block of stamps: every stamp up to the next
    /// `block` call, or the end of this stamper, belongs to `key`. Only
    /// the sparse backend uses blocks; stamps made outside any block are
    /// checked one by one.
    #[inline(always)]
    fn block(&mut self, key: BlockKey) {
        let _ = key;
    }

    /// Offers to leave out the whole block `key`, its right-hand-side
    /// updates included, because every value in it is exactly zero.
    /// Returns `true` when the block was left out: the caller then stamps
    /// nothing for it, and calls [`Self::block`] otherwise. Only the
    /// replaying sparse stamper accepts, and only where the block is the
    /// next one it recorded; the recording stamper needs every stamp for
    /// the pattern, and the dense one never skips.
    #[inline(always)]
    fn skip_zero(&mut self, key: BlockKey) -> bool {
        let _ = key;
        false
    }
}

/// The concrete stamper a backend lends for one assembly. Matching on it
/// once lets the assembler run generic over [`Stamp`], so every stamp
/// inside the assembly is a direct, inlinable call.
#[derive(Debug)]
pub enum Stamper<'a> {
    /// Dense LU: `a[r][c] += v`.
    Dense(DenseStamp<'a>),
    /// Sparse LU, first assembly: records the stamp sequence.
    Record(RecordStamp<'a>),
    /// Sparse LU, later assemblies: replays the recorded sequence into
    /// value slots.
    Replay(ReplayStamp<'a>),
}

impl Stamp for Stamper<'_> {
    fn add(&mut self, r: usize, c: usize, v: f64) {
        match self {
            Stamper::Dense(s) => s.add(r, c, v),
            Stamper::Record(s) => s.add(r, c, v),
            Stamper::Replay(s) => s.add(r, c, v),
        }
    }

    fn block(&mut self, key: BlockKey) {
        match self {
            Stamper::Dense(s) => s.block(key),
            Stamper::Record(s) => s.block(key),
            Stamper::Replay(s) => s.block(key),
        }
    }

    fn skip_zero(&mut self, key: BlockKey) -> bool {
        match self {
            Stamper::Dense(s) => s.skip_zero(key),
            Stamper::Record(s) => s.skip_zero(key),
            Stamper::Replay(s) => s.skip_zero(key),
        }
    }
}

/// [`DenseSolver`]'s stamper: adds straight into the dense matrix.
#[derive(Debug)]
pub struct DenseStamp<'a>(&'a mut Matrix);

impl Stamp for DenseStamp<'_> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.0.add(r, c, v);
    }
}

impl std::fmt::Debug for dyn LinearSolver + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LinearSolver({}, n={})", self.name(), self.dim())
    }
}

/// Creates the backend for an `n`-unknown system according to `choice`.
pub fn create_solver(choice: SolverChoice, n: usize) -> Box<dyn LinearSolver> {
    match choice {
        SolverChoice::Dense => Box::new(DenseSolver::new(n)),
        SolverChoice::Sparse => Box::new(SparseLu::new(n)),
        SolverChoice::Auto if n <= DENSE_SPARSE_THRESHOLD => Box::new(DenseSolver::new(n)),
        SolverChoice::Auto => Box::new(SparseLu::new(n)),
    }
}

/// Dense LU behind the [`LinearSolver`] interface: owns the matrix, the
/// permutation, and the substitution scratch, so the whole
/// begin/stamp/factor/solve round trip allocates nothing.
#[derive(Debug)]
pub struct DenseSolver {
    a: Matrix,
    perm: Vec<usize>,
    col_scale: Vec<f64>,
    scratch: Vec<f64>,
    factored: bool,
}

impl DenseSolver {
    /// Creates a dense solver for an `n × n` system.
    pub fn new(n: usize) -> DenseSolver {
        DenseSolver {
            a: Matrix::zeros(n, n),
            perm: Vec::with_capacity(n),
            col_scale: Vec::with_capacity(n),
            scratch: Vec::with_capacity(n),
            factored: false,
        }
    }
}

impl LinearSolver for DenseSolver {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn begin(&mut self) {
        self.a.clear();
        self.factored = false;
    }

    fn stamper(&mut self) -> Stamper<'_> {
        Stamper::Dense(DenseStamp(&mut self.a))
    }

    fn factor(&mut self) -> Result<(), SimError> {
        lu_factor_in_place(&mut self.a, &mut self.perm, &mut self.col_scale)?;
        self.factored = true;
        Ok(())
    }

    fn solve_in_place(&mut self, b: &mut [f64]) {
        assert!(self.factored, "solve_in_place before a successful factor");
        lu_solve_in_place(&self.a, &self.perm, b, &mut self.scratch);
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{matrix_copy_count, LuFactors};

    #[test]
    fn auto_picks_dense_small_sparse_large() {
        assert_eq!(create_solver(SolverChoice::Auto, 8).name(), "dense");
        assert_eq!(
            create_solver(SolverChoice::Auto, DENSE_SPARSE_THRESHOLD).name(),
            "dense"
        );
        assert_eq!(
            create_solver(SolverChoice::Auto, DENSE_SPARSE_THRESHOLD + 1).name(),
            "sparse"
        );
        assert_eq!(create_solver(SolverChoice::Dense, 1000).name(), "dense");
        assert_eq!(create_solver(SolverChoice::Sparse, 2).name(), "sparse");
    }

    #[test]
    fn dense_round_trip_matches_lufactors_bitwise() {
        // The trait path must produce the identical bits to the historical
        // LuFactors oracle — small-circuit arrivals depend on it.
        let stamps = [
            (0usize, 0usize, 2.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 3.0),
            (1, 2, -0.5),
            (2, 1, -0.5),
            (2, 2, 1.25),
        ];
        let b = [1.0, 0.25, -2.0];

        let mut reference = Matrix::zeros(3, 3);
        for &(r, c, v) in &stamps {
            reference.add(r, c, v);
        }
        let oracle = LuFactors::factor(reference).unwrap().solve(&b);

        let mut solver = DenseSolver::new(3);
        for round in 0..3 {
            solver.begin();
            for &(r, c, v) in &stamps {
                solver.add(r, c, v);
            }
            solver.factor().unwrap();
            let mut x = b.to_vec();
            solver.solve_in_place(&mut x);
            for (p, q) in oracle.iter().zip(&x) {
                assert_eq!(p.to_bits(), q.to_bits(), "round {round}");
            }
        }
    }

    #[test]
    fn dense_round_trip_never_copies_the_matrix() {
        let mut solver = DenseSolver::new(4);
        let before = matrix_copy_count();
        for _ in 0..5 {
            solver.begin();
            for i in 0..4 {
                solver.add(i, i, 2.0 + i as f64);
            }
            solver.factor().unwrap();
            let mut x = vec![1.0; 4];
            solver.solve_in_place(&mut x);
        }
        assert_eq!(matrix_copy_count(), before);
    }

    #[test]
    fn dense_reports_singular() {
        let mut solver = DenseSolver::new(2);
        solver.begin();
        solver.add(0, 0, 1.0);
        solver.add(0, 1, 2.0);
        solver.add(1, 0, 2.0);
        solver.add(1, 1, 4.0);
        assert!(matches!(
            solver.factor(),
            Err(SimError::SingularMatrix { .. })
        ));
    }
}
