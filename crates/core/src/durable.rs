//! The scenario executor: every batch of timing scenarios runs here,
//! with an optional journal for checkpoint/resume, per-scenario
//! watchdogs, a bounded retry ladder, and poison quarantine.
//!
//! Every scenario is *fail-soft*: it runs behind
//! [`std::panic::catch_unwind`], so one panicking or failing scenario
//! cannot take down its siblings. On top of that the run is *durable*:
//!
//! * with [`DurableOptions::journal`] set, every scenario outcome is
//!   appended to a JSON-lines **journal** with an fsync'd write, so a
//!   `SIGKILL`ed run loses at most the in-flight scenarios (an
//!   [`AppendLog`] with a fingerprinted run header);
//! * a resumed run ([`DurableOptions::resume`]) recovers the journal —
//!   including a **torn tail** left by a crash mid-append — and replays
//!   completed scenarios bit-identically instead of re-running them;
//! * a **watchdog** thread enforces a per-scenario wall-clock deadline
//!   by firing the scenario's [`CancelToken`], which the analyzer polls
//!   at its budget checkpoints — a wedged scenario becomes a `timed_out`
//!   record instead of a stalled worker;
//! * retryable failures (panics, timeouts) climb a bounded **retry
//!   ladder** with exponential backoff — retries run under relaxed
//!   options (no memo cache), mirroring the calibration runner's
//!   relaxation retry — and are **quarantined** as `poisoned` records
//!   when the ladder is exhausted, so reruns skip and report them;
//! * a [`ShutdownFlag`] (wired to `SIGINT`/`SIGTERM` by
//!   [`install_signal_handlers`]) triggers a **graceful drain**: no new
//!   scenario starts, in-flight scenarios finish and are journaled, and
//!   the run reports itself interrupted;
//! * [`DurableOptions::fail_fast`] stops the run at the first failure in
//!   input order; the scenarios after it are skipped, not journaled.
//!
//! Determinism contract: a run killed at any point and resumed produces
//! the same set of `(label, outcome, digest, summary)` records as an
//! uninterrupted run, at any thread count. The journal header pins a
//! [`run_fingerprint`] over the netlist, technology, model, and the
//! result-affecting analyzer options (thread count, cache, and tracing
//! are excluded — they never change arrivals), so a resume against
//! different inputs is rejected instead of silently mixing results.

use crate::analyzer::{analyze_with_options, AnalyzerOptions, Scenario, TimingResult};
use crate::applog::{AppendLog, Fields, LogError, LogFault};
use crate::budget::CancelToken;
use crate::error::TimingError;
use crate::fingerprint::{JsonLine, ReadFields};
use crate::models::ModelKind;
use crate::obs::{Phase, TraceSink};
use crate::pool;
use crate::tech::Technology;
use mosnet::Network;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Journal format version written into the run header.
pub const JOURNAL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

/// Set by the process signal handler; merged into every [`ShutdownFlag`].
static GLOBAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// A graceful-shutdown request flag.
///
/// Cloning shares the same flag. [`ShutdownFlag::is_requested`] also
/// observes the process-global signal flag set by
/// [`install_signal_handlers`], so one durable run reacts both to an
/// in-process [`ShutdownFlag::request`] (tests, embedding) and to a
/// `SIGINT`/`SIGTERM` delivered to the process.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    local: Arc<AtomicBool>,
}

impl ShutdownFlag {
    /// A fresh flag with no shutdown requested.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Requests a graceful drain: stop dispatching, finish in-flight work.
    pub fn request(&self) {
        self.local.store(true, Ordering::SeqCst);
    }

    /// `true` once [`ShutdownFlag::request`] was called on any clone or a
    /// handled shutdown signal arrived.
    pub fn is_requested(&self) -> bool {
        self.local.load(Ordering::SeqCst) || GLOBAL_SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// Installs `SIGINT`/`SIGTERM` handlers that set the process-global
/// shutdown flag observed by every [`ShutdownFlag`]. Safe to call more
/// than once. On non-Unix platforms this is a no-op (the in-process
/// [`ShutdownFlag::request`] path still works everywhere).
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn handle(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        GLOBAL_SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        let handler = handle as extern "C" fn(i32) as *const () as usize;
        let _ = signal(SIGINT, handler);
        let _ = signal(SIGTERM, handler);
    }
}

/// Non-Unix stub; see the Unix version.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

// ---------------------------------------------------------------------------
// Taxonomy and records
// ---------------------------------------------------------------------------

/// Failure taxonomy recorded in the journal and used to decide retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FailureKind {
    /// The scenario panicked (caught on the worker). Retryable.
    Panic,
    /// The watchdog (or shutdown) cancelled the scenario past its
    /// wall-clock deadline. Retryable.
    Timeout,
    /// A configured [`AnalysisBudget`](crate::budget::AnalysisBudget) cap
    /// fired. Deterministic — never retried.
    Budget,
    /// Any other analysis error (unknown node, no fixpoint, ...).
    /// Deterministic — never retried.
    Analysis,
}

impl FailureKind {
    /// Stable lowercase name used in journal records.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Budget => "budget",
            FailureKind::Analysis => "analysis",
        }
    }

    fn from_name(name: &str) -> Option<FailureKind> {
        Some(match name {
            "panic" => FailureKind::Panic,
            "timeout" => FailureKind::Timeout,
            "budget" => FailureKind::Budget,
            "analysis" => FailureKind::Analysis,
            _ => return None,
        })
    }

    /// `true` when the retry ladder applies: panics and timeouts are
    /// environmental, everything else is deterministic and retrying it
    /// would only reproduce the same failure slower.
    pub fn is_retryable(self) -> bool {
        matches!(self, FailureKind::Panic | FailureKind::Timeout)
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Final disposition of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Outcome {
    /// Analysis succeeded; the record carries the arrival digest.
    Ok,
    /// A deterministic analysis error (budget, unknown node, ...).
    Error,
    /// Timed out with retries disabled (`max_retries = 0`); kept
    /// distinct from [`Outcome::Poisoned`] so the exit code can tell a
    /// plain timeout from an exhausted quarantine.
    TimedOut,
    /// Quarantined: a retryable failure survived the whole retry ladder.
    /// Resumed runs skip and report poisoned scenarios.
    Poisoned,
    /// Never started: a shutdown request arrived first, or a fail-fast
    /// stop came before it. Not journaled — a later resume runs the
    /// scenario for real.
    Skipped,
}

impl Outcome {
    /// Stable lowercase name used in journal records.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::TimedOut => "timed_out",
            Outcome::Poisoned => "poisoned",
            Outcome::Skipped => "skipped",
        }
    }

    fn from_name(name: &str) -> Option<Outcome> {
        Some(match name {
            "ok" => Outcome::Ok,
            "error" => Outcome::Error,
            "timed_out" => Outcome::TimedOut,
            "poisoned" => Outcome::Poisoned,
            "skipped" => Outcome::Skipped,
            _ => return None,
        })
    }
}

/// One journaled (or skipped) scenario outcome.
///
/// Equality covers the result too, which only fresh successes carry.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// The scenario label (journal key for resume).
    pub label: String,
    /// Final disposition.
    pub outcome: Outcome,
    /// Failure taxonomy for non-`Ok` outcomes.
    pub taxonomy: Option<FailureKind>,
    /// FNV-1a digest over the result's arrival bit patterns (`Ok` only);
    /// the resume-equivalence self-check recomputes and compares it.
    pub digest: Option<u64>,
    /// Human-readable outcome, exactly as the CLI prints it after
    /// `"{label}: "` — stored so a resume replays bit-identical output.
    pub summary: String,
    /// Attempts made (1 = first try succeeded or failed undeterred).
    pub attempts: u32,
    /// Wall-clock time spent on this scenario, all attempts included.
    pub wall_ms: u64,
    /// `true` when this record was replayed from the journal rather than
    /// computed in this run. Not serialized.
    pub resumed: bool,
    /// The analysis result of a fresh success, for callers that need
    /// more than the digest (per-node arrival rows). `None` for failures,
    /// skips, and replayed records. Not serialized.
    pub result: Option<TimingResult>,
}

impl ScenarioRecord {
    /// A record that carries no digest and no result: a failure or a
    /// skip.
    fn unfinished(
        label: &str,
        outcome: Outcome,
        taxonomy: Option<FailureKind>,
        summary: String,
        attempts: u32,
        wall_ms: u64,
    ) -> ScenarioRecord {
        ScenarioRecord {
            label: label.to_string(),
            outcome,
            taxonomy,
            digest: None,
            summary,
            attempts,
            wall_ms,
            resumed: false,
            result: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failures of the durable layer itself (never of a scenario).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DurableError {
    /// Journal file I/O failed.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error text.
        message: String,
    },
    /// A non-tail journal line failed to parse. (A broken *final* line is
    /// torn-tail damage and recovered silently; damage anywhere else
    /// means the file is not trustworthy.)
    CorruptJournal {
        /// The journal path.
        path: PathBuf,
        /// 1-based line number of the first bad line.
        line: usize,
    },
    /// The journal was written by a run over different inputs (netlist,
    /// technology, model, or result-affecting options).
    FingerprintMismatch {
        /// The journal path.
        path: PathBuf,
        /// Fingerprint in the journal header.
        found: u64,
        /// Fingerprint of the current inputs.
        expected: u64,
        /// Which input(s) changed, when both the journal header and the
        /// current run carry component fingerprints. Empty when the
        /// source cannot be attributed (legacy header or opaque
        /// fingerprint).
        sources: Vec<MismatchSource>,
    },
}

/// Which input a [`DurableError::FingerprintMismatch`] traces back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MismatchSource {
    /// The netlist content changed (e.g. the `.sim` file was edited on
    /// disk after the journal was written).
    Netlist,
    /// The technology description changed.
    Technology,
    /// The delay model or a result-affecting analyzer option changed.
    Options,
}

impl MismatchSource {
    /// Human-readable name of the changed input.
    pub fn describe(self) -> &'static str {
        match self {
            MismatchSource::Netlist => "netlist",
            MismatchSource::Technology => "technology",
            MismatchSource::Options => "model/options",
        }
    }
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, message } => {
                write!(f, "journal `{}`: {message}", path.display())
            }
            DurableError::CorruptJournal { path, line } => write!(
                f,
                "journal `{}` is corrupt at line {line} (not a torn tail; \
                 delete the file or run without --resume to start over)",
                path.display()
            ),
            DurableError::FingerprintMismatch {
                path,
                found,
                expected,
                sources,
            } => {
                write!(
                    f,
                    "journal `{}` belongs to a different run \
                     (fingerprint {found:016x}, current inputs {expected:016x})",
                    path.display()
                )?;
                if !sources.is_empty() {
                    let names: Vec<&str> = sources.iter().map(|s| s.describe()).collect();
                    write!(
                        f,
                        "; the {} changed since the journal was written",
                        names.join(" and ")
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DurableError {}

// ---------------------------------------------------------------------------
// Fingerprints and digests (shared helpers live in `crate::fingerprint`)
// ---------------------------------------------------------------------------

// Re-exported under their historical `durable::` paths: the fingerprint
// code is shared with server sessions now and lives in one place.
pub use crate::fingerprint::{
    result_digest, run_fingerprint, run_fingerprint_parts, RunFingerprint,
};

/// The CLI's per-scenario success line suffix (after `"{label}: "`),
/// shared by the fresh path, the journal, and the server's report op so
/// replays are bit-identical.
pub fn scenario_summary(net: &Network, result: &TimingResult) -> String {
    match result.max_arrival() {
        Some((node, arrival)) => format!(
            "ok, latest `{}` at {:.4} ns",
            net.node(node).name(),
            arrival.time.nanos()
        ),
        None => "ok, nothing switches".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

// Re-exported under its historical `durable::` path: the fault plan
// belongs to the append log every durable store shares.
pub use crate::applog::JournalFaultPlan;

impl From<LogError> for DurableError {
    fn from(e: LogError) -> DurableError {
        let path = e.path;
        match e.fault {
            LogFault::Io(error) => DurableError::Io {
                path,
                message: error.to_string(),
            },
            LogFault::Corrupt(line) => DurableError::CorruptJournal { path, line },
            // Unreachable: a batch journal without a header starts over.
            LogFault::NoHeader => DurableError::CorruptJournal { path, line: 1 },
        }
    }
}

/// Opens the batch journal: an [`AppendLog`] whose header pins the
/// format version and the [`run_fingerprint`], then one line per
/// scenario record. A fresh run truncates; a resume returns the
/// replayable records, starts over when the file has no header, and
/// rejects a header over other inputs (naming the changed input when
/// both sides carry [`run_fingerprint_parts`]).
fn open_journal(
    path: &Path,
    resume: bool,
    fingerprint: &RunFingerprint,
) -> Result<(AppendLog, Vec<ScenarioRecord>), DurableError> {
    let header = header_line(fingerprint);
    let faults = JournalFaultPlan::none();
    if !resume {
        return Ok((AppendLog::create(path, &header, &faults)?, Vec::new()));
    }
    let record = |fields: Fields| record_from_fields(&fields);
    AppendLog::resume(path, "run", Some(&header), &faults, record, |recovered| {
        check_header(path, &recovered.header, fingerprint)?;
        Ok(recovered.records)
    })
}

/// Checks the header's fingerprint against the current inputs,
/// attributing a mismatch wherever both sides carry the component
/// fingerprint.
fn check_header(
    path: &Path,
    header: &Fields,
    fingerprint: &RunFingerprint,
) -> Result<(), DurableError> {
    let hex = |key: &str| header.hex(key);
    let found = hex("fingerprint").ok_or(DurableError::CorruptJournal {
        path: path.to_path_buf(),
        line: 1,
    })?;
    if found == fingerprint.combined {
        return Ok(());
    }
    let parts = [
        ("net", fingerprint.netlist, MismatchSource::Netlist),
        ("tech", fingerprint.tech, MismatchSource::Technology),
        ("opts", fingerprint.options, MismatchSource::Options),
    ];
    let sources = parts
        .into_iter()
        .filter(|&(key, current, _)| matches!((hex(key), current), (Some(r), Some(c)) if r != c))
        .map(|(_, _, source)| source)
        .collect();
    Err(DurableError::FingerprintMismatch {
        path: path.to_path_buf(),
        found,
        expected: fingerprint.combined,
        sources,
    })
}

fn header_line(fingerprint: &RunFingerprint) -> String {
    let mut line = JsonLine::new()
        .str("kind", "run")
        .num("v", JOURNAL_VERSION)
        .hex("fingerprint", fingerprint.combined);
    for (key, part) in [
        ("net", fingerprint.netlist),
        ("tech", fingerprint.tech),
        ("opts", fingerprint.options),
    ] {
        if let Some(part) = part {
            line = line.hex(key, part);
        }
    }
    line.finish() + "\n"
}

fn record_line(record: &ScenarioRecord) -> String {
    let mut line = JsonLine::new()
        .str("kind", "scenario")
        .str("label", &record.label)
        .str("outcome", record.outcome.name());
    if let Some(kind) = record.taxonomy {
        line = line.str("taxonomy", kind.name());
    }
    if let Some(digest) = record.digest {
        line = line.hex("digest", digest);
    }
    line.str("summary", &record.summary)
        .num("attempts", u64::from(record.attempts))
        .num("wall_ms", record.wall_ms)
        .finish()
        + "\n"
}

fn record_from_fields(fields: &Fields) -> Option<ScenarioRecord> {
    if fields.str("kind") != Some("scenario") {
        return None;
    }
    let taxonomy = match fields.str("taxonomy") {
        Some(name) => Some(FailureKind::from_name(name)?),
        None => None,
    };
    Some(ScenarioRecord {
        label: fields.string("label")?,
        outcome: Outcome::from_name(fields.str("outcome")?)?,
        taxonomy,
        digest: fields.opt_hex("digest")?,
        summary: fields.string("summary")?,
        attempts: fields.num("attempts")?,
        wall_ms: fields.num("wall_ms")?,
        resumed: true,
        result: None,
    })
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Deadline slots scanned by the watchdog thread. Workers register a
/// `(deadline, token)` pair per attempt and clear it when the attempt
/// finishes; the watchdog fires expired tokens and mirrors shutdown
/// requests into the pool's dispatch-stop flag.
///
/// Shared with [`crate::server`], which registers one slot per in-flight
/// request to enforce per-request deadlines.
#[derive(Debug, Default)]
pub(crate) struct Watchdog {
    slots: Mutex<Vec<Option<(Instant, CancelToken)>>>,
    done: AtomicBool,
}

impl Watchdog {
    pub(crate) fn register(&self, deadline: Instant, token: CancelToken) -> usize {
        let mut slots = self.slots.lock().expect("watchdog lock");
        if let Some(index) = slots.iter().position(Option::is_none) {
            slots[index] = Some((deadline, token));
            index
        } else {
            slots.push(Some((deadline, token)));
            slots.len() - 1
        }
    }

    pub(crate) fn clear(&self, index: usize) {
        self.slots.lock().expect("watchdog lock")[index] = None;
    }

    pub(crate) fn finish(&self) {
        self.done.store(true, Ordering::Release);
    }

    pub(crate) fn run(&self, shutdown: Option<&ShutdownFlag>, stop: &AtomicBool) {
        while !self.done.load(Ordering::Acquire) {
            if let Some(flag) = shutdown {
                if flag.is_requested() {
                    stop.store(true, Ordering::Release);
                }
            }
            let now = Instant::now();
            {
                let mut slots = self.slots.lock().expect("watchdog lock");
                for slot in slots.iter_mut() {
                    if let Some((deadline, token)) = slot {
                        if *deadline <= now {
                            token.cancel();
                            *slot = None;
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

// ---------------------------------------------------------------------------
// Options, run outcome, and the generic executor
// ---------------------------------------------------------------------------

/// Knobs of one durable run.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Journal file path; `None` runs without checkpointing.
    pub journal: Option<PathBuf>,
    /// Replay completed scenarios from an existing journal instead of
    /// truncating it. Does nothing without a journal.
    pub resume: bool,
    /// Stop at the first failing scenario in input order: the scenarios
    /// after it become [`Outcome::Skipped`] records that are neither
    /// journaled nor counted as an interrupted drain. A failure stops the
    /// dispatch of later scenarios; scenarios are dispatched in input
    /// order, so every one ahead of the first failure runs. The journal
    /// receives the in-order prefix of finished records as they complete,
    /// ending with that first failure.
    pub fail_fast: bool,
    /// Per-scenario wall-clock deadline enforced by the watchdog.
    /// `None` never times out. `Some(ZERO)` cancels every attempt before
    /// it starts — a deterministic timeout for tests and fault drills.
    pub scenario_timeout: Option<Duration>,
    /// Retry-ladder length for retryable (panic/timeout) failures; `0`
    /// records the first failure directly.
    pub max_retries: usize,
    /// Base backoff before the first retry; doubles per further retry.
    pub retry_backoff: Duration,
    /// Scenario workers (same semantics as
    /// [`AnalyzerOptions::threads`](crate::analyzer::AnalyzerOptions));
    /// each scenario's analysis runs serially on its worker.
    pub threads: usize,
    /// Graceful-shutdown flag to honor; `None` never drains early.
    pub shutdown: Option<ShutdownFlag>,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            journal: None,
            resume: false,
            fail_fast: false,
            scenario_timeout: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(25),
            threads: 1,
            shutdown: None,
        }
    }
}

/// What one attempt of one scenario produced (the closure contract of
/// [`run_durable_with`]).
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// Success: digest plus the display summary to journal.
    Ok {
        /// [`result_digest`] of the produced result.
        digest: u64,
        /// [`scenario_summary`]-style display text.
        summary: String,
        /// The analysis result, handed back in [`ScenarioRecord::result`].
        result: Option<TimingResult>,
    },
    /// Failure, classified; [`FailureKind::is_retryable`] kinds climb the
    /// retry ladder.
    Failed {
        /// The taxonomy bucket.
        kind: FailureKind,
        /// Human-readable error text.
        message: String,
    },
}

/// The assembled outcome of a durable run: one record per input scenario,
/// in input order, whether computed, replayed, or skipped.
#[derive(Debug, Clone)]
pub struct DurableRun {
    /// One record per scenario, in input order.
    pub records: Vec<ScenarioRecord>,
    /// How many records were replayed from the journal.
    pub resumed: usize,
    /// `true` when a shutdown request skipped at least one scenario.
    pub interrupted: bool,
}

impl DurableRun {
    /// `true` when every scenario completed with [`Outcome::Ok`].
    pub fn all_ok(&self) -> bool {
        !self.interrupted && self.records.iter().all(|r| r.outcome == Outcome::Ok)
    }

    /// Records with the given outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }
}

/// The generic executor: panic isolation, the optional journal, resume,
/// watchdog, retry ladder, fail-fast stop, and graceful drain over an
/// arbitrary attempt closure.
///
/// `attempt(item, cancel, attempt_number)` runs one attempt; it should
/// poll `cancel` (or hand it to the analyzer) so the watchdog can stop
/// it, and is called with `attempt_number` starting at 1 so retries can
/// relax their options. Panics inside the closure are caught and
/// classified [`FailureKind::Panic`].
///
/// `fingerprint` pins the journal to the run's inputs — use
/// [`run_fingerprint_parts`] for real scenarios so a later mismatch can
/// name its source (a bare [`run_fingerprint`] `u64` also works but
/// reports generic mismatches).
///
/// Records come back in input order and are identical at every thread
/// count (wall clocks aside); with `fail_fast` the run truncates at the
/// first failure in input order, even when a later scenario failed first
/// on another worker.
pub fn run_durable_with<T, F>(
    items: &[(String, T)],
    fingerprint: impl Into<RunFingerprint>,
    attempt: F,
    durable: &DurableOptions,
    trace: Option<&TraceSink>,
) -> Result<DurableRun, DurableError>
where
    T: Sync,
    F: Fn(&T, &CancelToken, u32) -> AttemptOutcome + Sync,
{
    let fingerprint = fingerprint.into();
    let (journal, prior) = match &durable.journal {
        None => (None, Vec::new()),
        Some(path) => {
            let (journal, prior) = open_journal(path, durable.resume, &fingerprint)?;
            (Some(journal), prior)
        }
    };
    // Later records win (a rerun may append a fresh outcome for a label).
    let mut replay: HashMap<&str, &ScenarioRecord> = HashMap::new();
    for record in &prior {
        replay.insert(record.label.as_str(), record);
    }

    let mut pending: Vec<&(String, T)> = Vec::new();
    let mut resumed = 0usize;
    for item in items {
        if replay.contains_key(item.0.as_str()) {
            resumed += 1;
        } else {
            pending.push(item);
        }
    }
    if let Some(t) = trace {
        t.count(Phase::Durable, "resumed_skips", resumed as u64);
    }

    let journal = journal.map(Mutex::new);
    let journal_error: Mutex<Option<DurableError>> = Mutex::new(None);
    let append = |line: &str| {
        let Some(journal) = &journal else { return };
        match journal.lock().expect("journal lock").append(line) {
            Ok(()) => {
                if let Some(t) = trace {
                    t.count(Phase::Durable, "journal_appends", 1);
                }
            }
            Err(e) => {
                let mut slot = journal_error.lock().expect("journal error lock");
                slot.get_or_insert(e.into());
            }
        }
    };
    // Without fail-fast each record is journaled the moment it exists.
    // Fail-fast journals the in-order prefix of finished records, up to
    // and including the first failure in input order: the next index to
    // journal (`usize::MAX` once that failure is written) and the lines
    // of finished records waiting for it.
    let prefix = Mutex::new((0usize, BTreeMap::new()));
    let journal_record = |i: usize, record: &ScenarioRecord| {
        if journal.is_none() {
            return;
        }
        let line = record_line(record);
        if !durable.fail_fast {
            return append(&line);
        }
        let mut prefix = prefix.lock().expect("prefix lock");
        let (next, waiting) = &mut *prefix;
        waiting.insert(i, (line, record.outcome == Outcome::Ok));
        while let Some((line, ok)) = waiting.remove(next) {
            append(&line);
            *next = if ok { *next + 1 } else { usize::MAX };
        }
    };
    // The ticker mirrors a shutdown request into `stop`; one requested
    // before dispatch stops the run before any scenario starts. Fail-fast
    // sets it at a failure; the pool dispatches in input order, so every
    // scenario ahead of the first failure in input order still runs.
    let stop = AtomicBool::new((durable.shutdown.as_ref()).is_some_and(ShutdownFlag::is_requested));
    let watchdog = Watchdog::default();
    // The 1 ms ticker only runs when there is a deadline or a shutdown
    // flag to watch; a zero timeout pre-cancels without it.
    let ticker_needed = durable.shutdown.is_some()
        || durable
            .scenario_timeout
            .is_some_and(|limit| !limit.is_zero());
    let mut fresh: Vec<Option<ScenarioRecord>> = std::thread::scope(|s| {
        let watchdog = &watchdog;
        let ticker =
            ticker_needed.then(|| s.spawn(|| watchdog.run(durable.shutdown.as_ref(), &stop)));
        let fresh = pool::map(durable.threads, &pending, Some(&stop), |i, item| {
            let (label, payload) = *item;
            // One Batch-phase span per scenario; the attempts and the
            // analyzer's own phase spans nest inside it.
            let _span = trace.map(|t| t.span(Phase::Batch, "scenario"));
            let record = run_ladder(label, payload, &attempt, durable, watchdog, trace);
            journal_record(i, &record);
            if durable.fail_fast && record.outcome != Outcome::Ok {
                stop.store(true, Ordering::Release);
            }
            record
        });
        watchdog.finish();
        if let Some(ticker) = ticker {
            let _ = ticker.join();
        }
        fresh
    });
    // Fail-fast truncates at the first failure in input order, even when
    // a later scenario failed first on another worker.
    if durable.fail_fast {
        let failed =
            |r: &Option<ScenarioRecord>| r.as_ref().is_some_and(|r| r.outcome != Outcome::Ok);
        if let Some(first) = fresh.iter().position(failed) {
            fresh.truncate(first + 1);
        }
    }
    if let Some(e) = journal_error.into_inner().expect("journal error lock") {
        return Err(e);
    }
    if let Some(t) = trace {
        let attempted = fresh.iter().flatten();
        let failed = attempted.clone().filter(|r| r.outcome != Outcome::Ok);
        t.count(
            Phase::Batch,
            "scenarios_attempted",
            attempted.count() as u64,
        );
        t.count(Phase::Batch, "scenarios_failed", failed.count() as u64);
    }

    // Reassemble in input order: replayed + computed + skipped. Pending
    // scenarios past the end of `fresh` were cut off by fail-fast.
    let mut fresh = fresh.into_iter();
    let mut records = Vec::with_capacity(items.len());
    let mut interrupted = false;
    for (label, _) in items {
        if let Some(record) = replay.get(label.as_str()) {
            records.push((*record).clone());
            continue;
        }
        let skipped = |why: &str| {
            let summary = format!("SKIPPED ({why})");
            ScenarioRecord::unfinished(label, Outcome::Skipped, None, summary, 0, 0)
        };
        records.push(match fresh.next() {
            Some(Some(record)) => record,
            Some(None) => {
                interrupted = true;
                if let Some(t) = trace {
                    t.count(Phase::Durable, "skipped_shutdown", 1);
                }
                skipped("shutdown before start")
            }
            None => skipped("fail-fast stop"),
        });
    }
    Ok(DurableRun {
        records,
        resumed,
        interrupted,
    })
}
/// One scenario through the retry ladder; see [`run_durable_with`].
fn run_ladder<T, F>(
    label: &str,
    payload: &T,
    attempt: &F,
    durable: &DurableOptions,
    watchdog: &Watchdog,
    trace: Option<&TraceSink>,
) -> ScenarioRecord
where
    F: Fn(&T, &CancelToken, u32) -> AttemptOutcome,
{
    let started = Instant::now();
    let max_attempts = durable.max_retries + 1;
    let mut attempts = 0u32;
    let mut last_failure = (FailureKind::Panic, String::new());
    for number in 1..=max_attempts {
        attempts = number as u32;
        let token = CancelToken::new();
        let slot = match durable.scenario_timeout {
            Some(limit) if limit.is_zero() => {
                // Deterministic timeout: the attempt sees a fired token
                // at its very first checkpoint regardless of speed.
                token.cancel();
                None
            }
            Some(limit) => Some(watchdog.register(Instant::now() + limit, token.clone())),
            None => None,
        };
        let outcome = {
            let _span = trace.map(|t| {
                let mut span = t.span(Phase::Durable, "attempt");
                span.field("scenario", label);
                span.field("attempt", number);
                span
            });
            match catch_unwind(AssertUnwindSafe(|| attempt(payload, &token, attempts))) {
                Ok(outcome) => outcome,
                Err(payload) => AttemptOutcome::Failed {
                    kind: FailureKind::Panic,
                    message: panic_message(payload.as_ref()),
                },
            }
        };
        if let Some(slot) = slot {
            watchdog.clear(slot);
        }
        let wall_ms = || started.elapsed().as_millis() as u64;
        match outcome {
            AttemptOutcome::Ok {
                digest,
                summary,
                result,
            } => {
                return ScenarioRecord {
                    label: label.to_string(),
                    outcome: Outcome::Ok,
                    taxonomy: None,
                    digest: Some(digest),
                    summary,
                    attempts,
                    wall_ms: wall_ms(),
                    resumed: false,
                    result,
                };
            }
            AttemptOutcome::Failed { kind, message } if kind.is_retryable() => {
                if let Some(t) = trace {
                    if kind == FailureKind::Timeout {
                        t.count(Phase::Durable, "timeouts", 1);
                    }
                }
                last_failure = (kind, message);
                if number < max_attempts {
                    if let Some(t) = trace {
                        t.count(Phase::Durable, "retries", 1);
                    }
                    // Exponential backoff: base, 2x, 4x, ...
                    let backoff = durable
                        .retry_backoff
                        .saturating_mul(1 << (number - 1).min(16));
                    std::thread::sleep(backoff);
                }
            }
            AttemptOutcome::Failed { kind, message } => {
                // Deterministic failure: record immediately, never retry.
                let summary = format!("FAILED ({message})");
                return ScenarioRecord::unfinished(
                    label,
                    Outcome::Error,
                    Some(kind),
                    summary,
                    attempts,
                    wall_ms(),
                );
            }
        }
    }
    // Retry ladder exhausted on a retryable failure.
    let (kind, message) = last_failure;
    let wall_ms = started.elapsed().as_millis() as u64;
    let (outcome, summary) = if kind == FailureKind::Timeout && durable.max_retries == 0 {
        (Outcome::TimedOut, format!("TIMED OUT ({message})"))
    } else {
        if let Some(t) = trace {
            t.count(Phase::Durable, "quarantined", 1);
        }
        let summary = format!("POISONED after {attempts} attempts ({kind}: {message})");
        (Outcome::Poisoned, summary)
    };
    ScenarioRecord::unfinished(label, outcome, Some(kind), summary, attempts, wall_ms)
}

/// Renders a caught panic payload as text: the retry ladder records it
/// in scenario records, the server in its `internal` responses.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Classifies one analysis outcome into an [`AttemptOutcome`].
fn classify(net: &Network, result: Result<TimingResult, TimingError>) -> AttemptOutcome {
    match result {
        Ok(result) => AttemptOutcome::Ok {
            digest: result_digest(net, &result),
            summary: scenario_summary(net, &result),
            result: Some(result),
        },
        Err(e) if e.was_cancelled() => AttemptOutcome::Failed {
            kind: FailureKind::Timeout,
            message: e.to_string(),
        },
        Err(e @ TimingError::BudgetExhausted { .. }) => AttemptOutcome::Failed {
            kind: FailureKind::Budget,
            message: e.to_string(),
        },
        Err(e) => AttemptOutcome::Failed {
            kind: FailureKind::Analysis,
            message: e.to_string(),
        },
    }
}

/// The timing batch: [`run_durable_with`] over real scenarios, each
/// analyzed against one network.
///
/// `durable.threads` workers run whole scenarios, and each analysis runs
/// serially on its worker. A shared `options.cache` pools stage
/// evaluations across all scenarios; retries drop it — the
/// relaxed-options rung of the ladder — which is safe because cached
/// results are bit-identical to fresh ones.
pub fn run_durable(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    scenarios: &[(String, Scenario)],
    options: AnalyzerOptions,
    durable: &DurableOptions,
) -> Result<DurableRun, DurableError> {
    // The fingerprint only pins a journal; without one, skip serializing
    // the netlist to hash it.
    let fingerprint = match durable.journal {
        Some(_) => run_fingerprint_parts(net, tech, model, &options),
        None => RunFingerprint::from(0),
    };
    let trace = options.trace.clone();
    run_durable_with(
        scenarios,
        fingerprint,
        |scenario, token, attempt| {
            let mut attempt_options = options.clone();
            attempt_options.cancel = Some(token.clone());
            if attempt > 1 {
                attempt_options.cache = None;
            }
            classify(
                net,
                analyze_with_options(net, tech, model, scenario, attempt_options),
            )
        },
        durable,
        trace.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::parse_json_object;
    use mosnet::sim_format;
    use std::sync::atomic::AtomicUsize;

    fn temp_journal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "crystal_durable_{name}_{}_{:?}.journal",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    type Opened = Result<(AppendLog, Vec<ScenarioRecord>), DurableError>;

    fn open_resume(path: &Path, fingerprint: impl Into<RunFingerprint>) -> Opened {
        open_journal(path, true, &fingerprint.into())
    }

    fn create_journal(path: &Path, fingerprint: impl Into<RunFingerprint>) -> Opened {
        open_journal(path, false, &fingerprint.into())
    }

    fn items(labels: &[&str]) -> Vec<(String, usize)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.to_string(), i))
            .collect()
    }

    fn ok_attempt(i: &usize) -> AttemptOutcome {
        AttemptOutcome::Ok {
            digest: *i as u64 + 10,
            summary: format!("ok, item {i}"),
            result: None,
        }
    }

    #[test]
    fn journal_record_round_trips() {
        let record = ScenarioRecord {
            label: "a \"rise\"\nweird".to_string(),
            outcome: Outcome::Poisoned,
            taxonomy: Some(FailureKind::Panic),
            digest: Some(0xdead_beef),
            summary: "POISONED after 3 attempts (panic: \\boom\\)".to_string(),
            attempts: 3,
            wall_ms: 41,
            resumed: true,
            result: None,
        };
        let line = record_line(&record);
        assert_eq!(
            line,
            concat!(
                r#"{"kind":"scenario","label":"a \"rise\"\nweird","outcome":"poisoned","#,
                r#""taxonomy":"panic","digest":"00000000deadbeef","#,
                r#""summary":"POISONED after 3 attempts (panic: \\boom\\)","#,
                r#""attempts":3,"wall_ms":41}"#,
                "\n"
            )
        );
        let fields = parse_json_object(line.trim_end()).expect("parses");
        let back = record_from_fields(&fields).expect("reconstructs");
        assert_eq!(back, record);

        let header = header_line(&RunFingerprint {
            combined: 0xabc,
            netlist: Some(1),
            tech: None,
            options: Some(u64::MAX),
        });
        assert_eq!(
            header,
            concat!(
                r#"{"kind":"run","v":1,"fingerprint":"0000000000000abc","#,
                r#""net":"0000000000000001","opts":"ffffffffffffffff"}"#,
                "\n"
            )
        );
    }

    #[test]
    fn fresh_run_journals_and_resume_replays() {
        let path = temp_journal("resume");
        let calls = AtomicUsize::new(0);
        let run = |resume: bool| {
            run_durable_with(
                &items(&["a", "b", "c"]),
                7,
                |i, _, _| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    ok_attempt(i)
                },
                &DurableOptions {
                    journal: Some(path.clone()),
                    resume,
                    ..DurableOptions::default()
                },
                None,
            )
            .expect("runs")
        };
        let first = run(false);
        assert!(first.all_ok());
        assert_eq!(first.resumed, 0);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let second = run(true);
        assert!(second.all_ok());
        assert_eq!(second.resumed, 3);
        // Nothing re-ran; the records are bit-identical minus the flag.
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        for (a, b) in first.records.iter().zip(&second.records) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.summary, b.summary);
            assert!(b.resumed);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_recovered_and_scenario_rerun() {
        let path = temp_journal("torn");
        let full = run_durable_with(
            &items(&["a", "b"]),
            7,
            |i, _, _| ok_attempt(i),
            &DurableOptions {
                journal: Some(path.clone()),
                ..DurableOptions::default()
            },
            None,
        )
        .expect("runs");
        // Tear the final record mid-line.
        let bytes = std::fs::read(&path).expect("journal exists");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncates");
        let calls = AtomicUsize::new(0);
        let resumed = run_durable_with(
            &items(&["a", "b"]),
            7,
            |i, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                ok_attempt(i)
            },
            &DurableOptions {
                journal: Some(path.clone()),
                resume: true,
                ..DurableOptions::default()
            },
            None,
        )
        .expect("recovers");
        // Only the torn scenario re-ran; results match the full run.
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.records.len(), full.records.len());
        for (a, b) in full.records.iter().zip(&resumed.records) {
            assert_eq!((a.label.as_str(), a.digest), (b.label.as_str(), b.digest));
            assert_eq!(a.summary, b.summary);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_line_is_an_error_not_a_recovery() {
        let path = temp_journal("corrupt");
        run_durable_with(
            &items(&["a", "b"]),
            7,
            |i, _, _| ok_attempt(i),
            &DurableOptions {
                journal: Some(path.clone()),
                ..DurableOptions::default()
            },
            None,
        )
        .expect("runs");
        // Damage line 2 of 3 — not the tail, so not recoverable.
        let text = std::fs::read_to_string(&path).expect("reads");
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"kind\":\"scenario\",busted";
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("writes");
        let err = open_resume(&path, 7).expect_err("corrupt");
        assert!(
            matches!(err, DurableError::CorruptJournal { line: 2, .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let path = temp_journal("fp");
        run_durable_with(
            &items(&["a"]),
            7,
            |i, _, _| ok_attempt(i),
            &DurableOptions {
                journal: Some(path.clone()),
                ..DurableOptions::default()
            },
            None,
        )
        .expect("runs");
        let err = open_resume(&path, 8).expect_err("different inputs");
        assert!(matches!(
            err,
            DurableError::FingerprintMismatch {
                found: 7,
                expected: 8,
                ..
            }
        ));
        let _ = std::fs::remove_file(&path);
    }

    const INVERTER: &str = "| one inverter\ni a\no y\n\
        n a y gnd 2 8\np a y vdd 2 16\nC y 50\n";

    fn tiny_net(text: &str) -> Network {
        sim_format::parse(text, "tiny").expect("fixture parses")
    }

    #[test]
    fn netlist_edited_on_disk_mismatch_names_the_netlist() {
        let path = temp_journal("fp_net_source");
        let tech = Technology::nominal();
        let options = AnalyzerOptions::default();
        let before = tiny_net(INVERTER);
        create_journal(
            &path,
            run_fingerprint_parts(&before, &tech, ModelKind::Slope, &options),
        )
        .expect("creates");
        // The netlist file is edited between runs: the load doubles.
        let after = tiny_net(&INVERTER.replace("C y 50", "C y 100"));
        let current = run_fingerprint_parts(&after, &tech, ModelKind::Slope, &options);
        let err = open_resume(&path, current).expect_err("edited netlist");
        match &err {
            DurableError::FingerprintMismatch { sources, .. } => {
                assert_eq!(sources, &[MismatchSource::Netlist]);
            }
            other => panic!("unexpected error {other:?}"),
        }
        let text = err.to_string();
        assert!(
            text.contains("the netlist changed since the journal was written"),
            "{text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tech_and_option_mismatches_name_their_sources() {
        let path = temp_journal("fp_other_sources");
        let tech = Technology::nominal();
        let options = AnalyzerOptions::default();
        let net = tiny_net(INVERTER);
        create_journal(
            &path,
            run_fingerprint_parts(&net, &tech, ModelKind::Slope, &options),
        )
        .expect("creates");

        let mut other_tech = tech.clone();
        other_tech.name = "perturbed".to_string();
        let err = open_resume(
            &path,
            run_fingerprint_parts(&net, &other_tech, ModelKind::Slope, &options),
        )
        .expect_err("tech changed");
        assert!(
            matches!(&err, DurableError::FingerprintMismatch { sources, .. }
                if sources == &[MismatchSource::Technology]),
            "{err:?}"
        );
        assert!(err.to_string().contains("the technology changed"), "{err}");

        let err = open_resume(
            &path,
            run_fingerprint_parts(&net, &tech, ModelKind::Lumped, &options),
        )
        .expect_err("model changed");
        assert!(
            matches!(&err, DurableError::FingerprintMismatch { sources, .. }
                if sources == &[MismatchSource::Options]),
            "{err:?}"
        );
        assert!(
            err.to_string().contains("the model/options changed"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_header_mismatch_stays_unattributed() {
        // A journal written with an opaque fingerprint (no component
        // fields) still rejects mismatches, just without a source.
        let path = temp_journal("fp_opaque");
        create_journal(&path, 7u64).expect("creates");
        let net = tiny_net(INVERTER);
        let current = run_fingerprint_parts(
            &net,
            &Technology::nominal(),
            ModelKind::Slope,
            &AnalyzerOptions::default(),
        );
        let err = open_resume(&path, current).expect_err("mismatch");
        match &err {
            DurableError::FingerprintMismatch { found, sources, .. } => {
                assert_eq!(*found, 7);
                assert!(sources.is_empty());
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(!err.to_string().contains("changed since"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retry_ladder_recovers_from_transient_panics() {
        let path = temp_journal("retry_panic");
        let calls = AtomicUsize::new(0);
        let run = run_durable_with(
            &items(&["flaky"]),
            7,
            |i, _, _| {
                // Panic on the first two attempts, succeed on the third.
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("injected flake");
                }
                ok_attempt(i)
            },
            &DurableOptions {
                journal: Some(path.clone()),
                max_retries: 2,
                retry_backoff: Duration::from_millis(1),
                ..DurableOptions::default()
            },
            None,
        )
        .expect("runs");
        assert!(run.all_ok());
        assert_eq!(run.records[0].attempts, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persistent_panic_is_quarantined_with_taxonomy() {
        let path = temp_journal("poison");
        let trace = TraceSink::new();
        let run = run_durable_with(
            &items(&["bad"]),
            7,
            |_: &usize, _: &CancelToken, _| -> AttemptOutcome { panic!("always broken") },
            &DurableOptions {
                journal: Some(path.clone()),
                max_retries: 1,
                retry_backoff: Duration::from_millis(1),
                ..DurableOptions::default()
            },
            Some(&trace),
        )
        .expect("runs");
        let record = &run.records[0];
        assert_eq!(record.outcome, Outcome::Poisoned);
        assert_eq!(record.taxonomy, Some(FailureKind::Panic));
        assert_eq!(record.attempts, 2);
        assert!(
            record.summary.contains("always broken"),
            "{}",
            record.summary
        );
        let metrics = trace.metrics();
        assert_eq!(metrics.counter(Phase::Durable, "quarantined"), 1);
        assert_eq!(metrics.counter(Phase::Durable, "retries"), 1);
        // A resumed run skips the quarantined scenario entirely.
        let calls = AtomicUsize::new(0);
        let resumed = run_durable_with(
            &items(&["bad"]),
            7,
            |i, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                ok_attempt(i)
            },
            &DurableOptions {
                journal: Some(path.clone()),
                resume: true,
                ..DurableOptions::default()
            },
            None,
        )
        .expect("resumes");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(resumed.records[0].outcome, Outcome::Poisoned);
        assert!(resumed.records[0].resumed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let path = temp_journal("noretry");
        let calls = AtomicUsize::new(0);
        let run = run_durable_with(
            &items(&["capped"]),
            7,
            |_, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                AttemptOutcome::Failed {
                    kind: FailureKind::Budget,
                    message: "stage cap".to_string(),
                }
            },
            &DurableOptions {
                journal: Some(path.clone()),
                max_retries: 5,
                retry_backoff: Duration::from_millis(1),
                ..DurableOptions::default()
            },
            None,
        )
        .expect("runs");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "budget errors never retry");
        assert_eq!(run.records[0].outcome, Outcome::Error);
        assert_eq!(run.records[0].taxonomy, Some(FailureKind::Budget));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn watchdog_cancels_an_overrunning_attempt() {
        let path = temp_journal("watchdog");
        let trace = TraceSink::new();
        let run = run_durable_with(
            &items(&["wedged"]),
            7,
            |_, token, _| {
                // Simulate a wedged analysis that honors cooperative
                // cancellation: spin until the watchdog fires the token.
                let start = Instant::now();
                while !token.is_cancelled() {
                    if start.elapsed() > Duration::from_secs(10) {
                        return AttemptOutcome::Failed {
                            kind: FailureKind::Analysis,
                            message: "watchdog never fired".to_string(),
                        };
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                AttemptOutcome::Failed {
                    kind: FailureKind::Timeout,
                    message: "cancelled".to_string(),
                }
            },
            &DurableOptions {
                journal: Some(path.clone()),
                scenario_timeout: Some(Duration::from_millis(10)),
                max_retries: 1,
                retry_backoff: Duration::from_millis(1),
                ..DurableOptions::default()
            },
            Some(&trace),
        )
        .expect("runs");
        let record = &run.records[0];
        assert_eq!(record.outcome, Outcome::Poisoned);
        assert_eq!(record.taxonomy, Some(FailureKind::Timeout));
        assert_eq!(trace.metrics().counter(Phase::Durable, "timeouts"), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_timeout_with_no_retries_is_a_timed_out_record() {
        let path = temp_journal("timeout0");
        let run = run_durable_with(
            &items(&["instant"]),
            7,
            |i, token, _| {
                if token.is_cancelled() {
                    AttemptOutcome::Failed {
                        kind: FailureKind::Timeout,
                        message: "pre-cancelled".to_string(),
                    }
                } else {
                    ok_attempt(i)
                }
            },
            &DurableOptions {
                journal: Some(path.clone()),
                scenario_timeout: Some(Duration::ZERO),
                max_retries: 0,
                ..DurableOptions::default()
            },
            None,
        )
        .expect("runs");
        assert_eq!(run.records[0].outcome, Outcome::TimedOut);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shutdown_drains_without_starting_new_scenarios() {
        let path = temp_journal("shutdown");
        let shutdown = ShutdownFlag::new();
        shutdown.request();
        let calls = AtomicUsize::new(0);
        let run = run_durable_with(
            &items(&["a", "b", "c"]),
            7,
            |i, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                ok_attempt(i)
            },
            &DurableOptions {
                journal: Some(path.clone()),
                threads: 1,
                shutdown: Some(shutdown),
                ..DurableOptions::default()
            },
            None,
        )
        .expect("runs");
        // Pre-requested shutdown: no scenario starts, every one is
        // skipped, and the run reports interruption.
        assert!(run.interrupted);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(run.count(Outcome::Skipped), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        let labels: Vec<String> = (0..12).map(|i| format!("s{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let baseline_path = temp_journal("threads1");
        let baseline = run_durable_with(
            &items(&label_refs),
            7,
            |i, _, _| ok_attempt(i),
            &DurableOptions {
                journal: Some(baseline_path.clone()),
                threads: 1,
                ..DurableOptions::default()
            },
            None,
        )
        .expect("runs");
        for threads in [2, 4] {
            let path = temp_journal(&format!("threads{threads}"));
            let run = run_durable_with(
                &items(&label_refs),
                7,
                |i, _, _| ok_attempt(i),
                &DurableOptions {
                    journal: Some(path.clone()),
                    threads,
                    ..DurableOptions::default()
                },
                None,
            )
            .expect("runs");
            assert_eq!(run.records, baseline.records, "threads={threads}");
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_file(&baseline_path);
    }

    // --- fail-soft batches (no journal) ---

    fn numbered(n: usize) -> Vec<(String, usize)> {
        (0..n).map(|i| (format!("item{i}"), i)).collect()
    }

    /// Item `error` fails deterministically, item `panic_at` panics, the
    /// rest succeed.
    fn error_at(i: usize, error: usize, panic_at: usize) -> AttemptOutcome {
        if i == error {
            AttemptOutcome::Failed {
                kind: FailureKind::Analysis,
                message: format!("ordinary failure {i}"),
            }
        } else if i == panic_at {
            panic!("injected panic {i}");
        } else {
            ok_attempt(&i)
        }
    }

    /// No journal, no retries, and the given workers and fail-fast mode.
    fn soft(threads: usize, fail_fast: bool) -> DurableOptions {
        DurableOptions {
            max_retries: 0,
            threads,
            fail_fast,
            ..DurableOptions::default()
        }
    }

    /// The records with their wall clocks zeroed: everything else must
    /// match across thread counts.
    fn keys(run: &DurableRun) -> Vec<ScenarioRecord> {
        let timeless = |r: &ScenarioRecord| ScenarioRecord {
            wall_ms: 0,
            ..r.clone()
        };
        run.records.iter().map(timeless).collect()
    }

    #[test]
    fn batch_continues_past_errors_and_panics() {
        let run = run_durable_with(
            &numbered(5),
            7,
            |&i, _, _| error_at(i, 1, 3),
            &soft(1, false),
            None,
        )
        .expect("no journal, no I/O");
        assert_eq!(run.records.len(), 5, "every item was attempted");
        assert!(!run.all_ok());
        assert!(!run.interrupted);
        assert_eq!(run.count(Outcome::Ok), 3);
        let failed = &run.records[1];
        assert_eq!(
            (failed.outcome, failed.taxonomy),
            (Outcome::Error, Some(FailureKind::Analysis))
        );
        assert_eq!(failed.summary, "FAILED (ordinary failure 1)");
        let panicked = &run.records[3];
        assert_eq!(panicked.outcome, Outcome::Poisoned);
        assert_eq!(panicked.taxonomy, Some(FailureKind::Panic));
        assert!(
            panicked.summary.contains("injected panic 3"),
            "{}",
            panicked.summary
        );
    }

    #[test]
    fn fail_fast_stops_at_the_first_failure() {
        let attempted = Mutex::new(Vec::new());
        let run = run_durable_with(
            &numbered(4),
            7,
            |&i, _, _| {
                attempted.lock().unwrap().push(i);
                error_at(i, 1, usize::MAX)
            },
            &soft(1, true),
            None,
        )
        .expect("runs");
        let attempted = attempted.into_inner().unwrap();
        assert_eq!(attempted, vec![0, 1], "items after the failure are skipped");
        assert_eq!(run.records.len(), 4, "one record per item");
        assert_eq!(run.records[1].outcome, Outcome::Error);
        for record in &run.records[2..] {
            assert_eq!(record.outcome, Outcome::Skipped);
            assert_eq!(record.summary, "SKIPPED (fail-fast stop)");
        }
        assert!(!run.interrupted, "a fail-fast stop is not a drain");
        assert!(!run.all_ok());
    }

    #[test]
    fn clean_batch_is_all_ok() {
        let run = run_durable_with(
            &numbered(3),
            7,
            |i, _, _| ok_attempt(i),
            &soft(1, false),
            None,
        )
        .expect("runs");
        assert!(run.all_ok());
        assert_eq!(run.count(Outcome::Ok), 3);
    }

    #[test]
    fn parallel_batch_matches_serial_output() {
        let f = |&i: &usize, _: &CancelToken, _| error_at(i, 2, 5);
        let serial = run_durable_with(&numbered(12), 7, f, &soft(1, false), None).expect("runs");
        for threads in [2, 3, 8] {
            let par =
                run_durable_with(&numbered(12), 7, f, &soft(threads, false), None).expect("runs");
            assert_eq!(par.interrupted, serial.interrupted);
            assert_eq!(keys(&par), keys(&serial), "threads={threads}");
        }
    }

    #[test]
    fn parallel_fail_fast_stops_at_first_input_order_failure() {
        let f = |&i: &usize, _: &CancelToken, _| error_at(i, 3, usize::MAX);
        let serial = run_durable_with(&numbered(20), 7, f, &soft(1, true), None).expect("runs");
        assert_eq!(serial.count(Outcome::Skipped), 16);
        for threads in [2, 4] {
            let par =
                run_durable_with(&numbered(20), 7, f, &soft(threads, true), None).expect("runs");
            assert_eq!(keys(&par), keys(&serial), "threads={threads}");
            assert_eq!(par.records[3].outcome, Outcome::Error);
            assert!(!par.interrupted);
        }
    }

    /// The journal's text with every `wall_ms` value masked.
    fn journal_without_wall_clocks(path: &Path) -> String {
        let text = std::fs::read_to_string(path).expect("journal exists");
        let key = "\"wall_ms\":";
        let mut masked = String::with_capacity(text.len());
        let mut rest = text.as_str();
        while let Some(at) = rest.find(key) {
            let (head, tail) = rest.split_at(at + key.len());
            masked.push_str(head);
            masked.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        masked.push_str(rest);
        masked
    }

    #[test]
    fn parallel_fail_fast_panic_truncates_and_journals_the_serial_prefix() {
        // The panic at index 6 is the first failure in input order; the
        // error at index 9 may run on another worker but must never
        // surface — truncation is input-order-first even when the failure
        // is a panic rather than an ordinary error. At every thread count
        // the journal holds the records up to the panic, exactly as the
        // serial run writes them, and a resume replays them.
        let items = numbered(16);
        let attempt = |&i: &usize, _: &CancelToken, _| match i {
            9 => error_at(i, 9, usize::MAX),
            _ => error_at(i, usize::MAX, 6),
        };
        let mut serial = None;
        for threads in [1, 2, 4, 8] {
            let path = temp_journal(&format!("fail_fast_prefix_{threads}"));
            let options = DurableOptions {
                journal: Some(path.clone()),
                ..soft(threads, true)
            };
            let run = run_durable_with(&items, 7, attempt, &options, None).expect("runs");
            assert!(!run.all_ok(), "a panicking scenario fails the batch");
            assert!(!run.interrupted);
            assert_eq!(run.count(Outcome::Ok), 6, "threads={threads}");
            let last = &run.records[6];
            assert_eq!(last.outcome, Outcome::Poisoned);
            assert!(
                last.summary.contains("injected panic 6"),
                "{}",
                last.summary
            );
            assert_eq!(
                run.count(Outcome::Skipped),
                9,
                "truncates right after the panic"
            );
            assert_eq!(
                run.count(Outcome::Error),
                0,
                "the later failure never surfaces"
            );
            let journal = journal_without_wall_clocks(&path);
            assert_eq!(
                journal.lines().count(),
                1 + 7,
                "header plus the records up to the panic"
            );

            let resume = DurableOptions {
                resume: true,
                ..options
            };
            let resumed = run_durable_with(&items, 7, attempt, &resume, None).expect("resumes");
            assert_eq!(resumed.resumed, 7, "threads={threads}");
            for (fresh, replayed) in run.records[..7].iter().zip(&resumed.records) {
                assert!(replayed.resumed, "{}", replayed.label);
                let replayed = ScenarioRecord {
                    resumed: false,
                    ..replayed.clone()
                };
                assert_eq!(&replayed, fresh, "threads={threads}");
            }
            let _ = std::fs::remove_file(&path);

            // The serial run is the reference for the journal and for
            // what a resume over it computes.
            let resumed = keys(&resumed);
            let (serial_journal, serial_resumed) =
                serial.get_or_insert_with(|| (journal.clone(), resumed.clone()));
            assert_eq!(&journal, serial_journal, "threads={threads}");
            assert_eq!(&resumed, serial_resumed, "threads={threads}");
        }
    }

    #[test]
    fn timing_batch_analyzes_scenarios() {
        use crate::analyzer::Edge;
        let net = tiny_net(INVERTER);
        let (a, y) = (
            net.node_by_name("a").unwrap(),
            net.node_by_name("y").unwrap(),
        );
        let scenarios = vec![
            ("a rise".to_string(), Scenario::step(a, Edge::Rising)),
            ("a fall".to_string(), Scenario::step(a, Edge::Falling)),
        ];
        let run = run_durable(
            &net,
            &Technology::nominal(),
            ModelKind::Slope,
            &scenarios,
            AnalyzerOptions::default(),
            &DurableOptions::default(),
        )
        .expect("no journal, no I/O");
        assert!(run.all_ok());
        // Fresh successes hand their result back, digested as journaled.
        for record in &run.records {
            let result = record
                .result
                .as_ref()
                .expect("fresh success carries its result");
            assert!(result.arrival(y).is_some());
            assert_eq!(record.digest, Some(result_digest(&net, result)));
        }
    }
}
