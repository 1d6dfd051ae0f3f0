//! Shared plumbing for the experiment binaries (`exp_*`): the calibrated
//! technology, the standard benchmark suite, and
//! table/CSV output helpers; and the smoke bench's measurements, shared
//! by `bench_smoke` and the `bench_gates` tests.
//!
//! Each experiment binary regenerates one table or figure of the paper's
//! evaluation; see `DESIGN.md` §3 for the experiment index.

#![warn(missing_docs)]

pub mod smoke;
pub mod suite;
