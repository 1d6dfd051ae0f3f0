//! # crystal — switch-level delay models for digital MOS VLSI
//!
//! A Rust reproduction of the delay models of J. Ousterhout,
//! *"Switch-level delay models for digital MOS VLSI"*, Proc. 21st Design
//! Automation Conference, 1984 — the models behind the **Crystal** timing
//! analyzer.
//!
//! The crate provides:
//!
//! * a [`tech::Technology`] description: per device-kind, per-direction
//!   static effective resistances and the paper's **slope tables**;
//! * stage extraction ([`extract`]) from a switch-level
//!   [`mosnet::Network`] into RC trees ([`rctree`]);
//! * the three delay [`models`] the paper compares — lumped RC, RC-tree
//!   (Elmore + Penfield–Rubinstein bounds), and the **slope model**;
//! * a static timing [`analyzer`] that propagates `(arrival, transition)`
//!   pairs through stages, with switch-level [`logic`] simulation to
//!   determine conduction, and [`report`]ing of critical paths.
//!
//! ## Quick example
//!
//! ```
//! use crystal::analyzer::{analyze, Edge, Scenario};
//! use crystal::models::ModelKind;
//! use crystal::tech::Technology;
//! use mosnet::generators::{inverter_chain, Style};
//! use mosnet::units::Farads;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = inverter_chain(Style::Cmos, 4, 2.0, Farads::from_femto(100.0))?;
//! let tech = Technology::nominal();
//! let input = net.node_by_name("in").expect("generated");
//! let output = net.node_by_name("out").expect("generated");
//!
//! let result = analyze(
//!     &net,
//!     &tech,
//!     ModelKind::Slope,
//!     &Scenario::step(input, Edge::Rising),
//! )?;
//! let arrival = result.delay_to(&net, output)?;
//! assert!(arrival.time.value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyzer;
pub mod applog;
pub mod budget;
pub mod charge;
pub mod durable;
pub mod editscript;
pub mod error;
pub mod extract;
pub mod fingerprint;
pub mod incremental;
pub mod logic;
pub mod memo;
pub mod models;
pub mod obs;
pub mod pool;
pub mod rctree;
pub mod report;
pub mod runstore;
pub mod selfcheck;
pub mod server;
pub mod session;
pub mod stage;
pub mod sweep;
pub mod tech;
pub mod tech_format;

pub use analyzer::{
    analyze, analyze_with_options, AnalysisMode, AnalyzerOptions, Arrival, Edge, IncrementalStats,
    Scenario, TimingResult,
};
pub use budget::{AnalysisBudget, BudgetExceeded, CancelToken, PartialTiming};
pub use durable::{
    install_signal_handlers, run_durable, run_durable_with, run_fingerprint, run_fingerprint_parts,
    AttemptOutcome, DurableError, DurableOptions, DurableRun, FailureKind, Journal, MismatchSource,
    Outcome, RunFingerprint, ScenarioRecord, ShutdownFlag,
};
pub use editscript::parse_edit_script;
pub use error::TimingError;
pub use fingerprint::Fnv64;
pub use incremental::{ArrivalChange, DeltaReport, IncrementalAnalyzer, ScenarioDelta};
pub use memo::{stage_fingerprint, tech_stamp, CacheStats, StageCache};
pub use models::{estimate_with_fallback, try_estimate, ModelFailure, ModelKind, StageDelay};
pub use obs::{Metrics, Phase, TraceEvent, TraceSink};
pub use pool::ThreadPool;
pub use rctree::RcTree;
pub use runstore::{
    diff as diff_runs, read_run, DiffThresholds, DiffVerdict, RunDiff, RunRecord, RunStore,
    RunStoreError,
};
pub use selfcheck::{Divergence, SelfCheckConfig, SelfCheckReport, ToleranceBands};
pub use server::{serve, ServerHandle, ServerOptions, ServerStats, Status};
pub use session::{Session, SessionConfig, SessionError, SessionManager};
pub use stage::Stage;
pub use tech::{Direction, DriveParams, SlopeTable, Technology};
