//! `crystal-cli` — command-line switch-level timing analysis.
//!
//! ```text
//! crystal-cli lint   <file.sim>
//! crystal-cli logic  <file.sim> [--set NAME=0|1]...
//! crystal-cli report <file.sim> --input NAME --edge rise|fall
//!                    [--model lumped|rctree|slope] [--transition NS]
//!                    [--set NAME=0|1]... [--output NAME] [--tech FILE]
//! crystal-cli sweep  <file.sim> [--model ...] [--transition NS]
//! crystal-cli batch  <file.sim> [--set NAME=0|1]... [--fail-fast]
//!                    [--journal FILE [--resume] [--scenario-timeout MS]
//!                     [--max-retries N] [--retry-backoff-ms MS]
//!                     [--selfcheck-resume]]
//! crystal-cli check  <file.sim> [--tech FILE] [--sample N]
//!                    [--inject MODEL=FACTOR] [--input NAME] [--edge ...]
//! crystal-cli spice  <file.sim>
//! crystal-cli watch  <file.sim> [--edits SCRIPT [--selfcheck]] [--once]
//!                    [--set NAME=0|1]... [--input NAME] [--edge ...]
//! crystal-cli serve  [--addr HOST:PORT] [--max-sessions N] [--max-inflight N]
//!                    [--journal-dir DIR [--resume]] [--request-timeout MS]
//!                    [--session-ttl MS] [--compact-after K] [--chaos-ops]
//!                    [--tech FILE]
//! crystal-cli client [--addr HOST:PORT] [--script FILE]
//!                    [--retries N] [--backoff-ms MS]
//! crystal-cli chaos-proxy --upstream HOST:PORT [--listen HOST:PORT]
//!                    [--drop P] [--delay-ms D] [--truncate P] [--seed N]
//! crystal-cli diff-runs <A> <B> [--run-db DIR] [--json FILE]
//!                    [--fail-on-timing-regression PCT]
//!                    [--fail-on-perf-regression PCT] [--fail-on-digest-mismatch]
//! ```
//!
//! `report`, `sweep`, `batch`, `check` and `watch` accept `--trace FILE`
//! (JSON-lines event trace) and `--metrics` (per-phase timing summary on
//! stdout).
//!
//! `watch` keeps a persistent incremental session over every (input ×
//! edge) scenario. With `--edits SCRIPT` it applies a scripted edit
//! sequence (`resize`/`cap`/`add`/`remove` lines) and prints a delta
//! report per edit; `--selfcheck` additionally proves every edited state
//! bit-identical to a fresh full analysis (exit 4 on divergence).
//! Without `--edits` it polls the netlist file and incrementally
//! re-analyzes on every change (`--once` exits after the first).
//!
//! `batch --journal FILE` turns the batch durable: every scenario outcome
//! is appended to the journal with an fsync'd write, `--resume` replays
//! completed scenarios bit-identically after a crash or kill,
//! `--scenario-timeout` arms a per-scenario watchdog, and retryable
//! failures climb a bounded retry ladder before being quarantined as
//! poisoned records. `SIGINT`/`SIGTERM` drain gracefully.
//!
//! `batch`, `check`, and `serve` accept `--run-db DIR`: every run appends
//! a persistent record (per-scenario arrival digests and times, phase
//! timings, cache counters, git/host/hardware provenance, exit status)
//! to the run database. `diff-runs A B` compares two records — per-node
//! timing deltas, digest mismatches, per-phase and wall-clock perf
//! deltas, cache-stat deltas — where `A`/`B` are record paths, run IDs,
//! or unique ID prefixes. `--fail-on-timing-regression PCT` exits 4 on a
//! timing regression, `--fail-on-perf-regression PCT` exits 1 on a
//! comparable wall-clock regression (threshold precedence: timing >
//! digest > perf; see `crystal::runstore`). `batch --inject MODEL=FACTOR`
//! corrupts the *recorded* arrivals of one model — a drill proving the
//! regression gate fires.
//!
//! `serve` hosts concurrent journal-backed incremental sessions over a
//! JSON-lines TCP protocol with admission control, per-request
//! deadlines, panic isolation, and crash-safe `--resume` recovery (see
//! the `crystal::server` module docs for the protocol and the
//! status-to-exit-code table). `client` replays a request script
//! against a daemon and exits with the analog of the last response's
//! status.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success |
//! | 1 | usage or any unclassified error |
//! | 2 | parse error (netlist or technology file) |
//! | 3 | analysis budget exhausted |
//! | 4 | self-check divergence (`check`, `--selfcheck-resume`) |
//! | 5 | scenario timed out (watchdog, retries disabled) |
//! | 6 | scenario poisoned (retry ladder exhausted) |
//! | 7 | I/O error (unreadable input, unwritable trace/journal, `client` transport failure) |
//! | 8 | interrupted (graceful shutdown drained the batch early) |
//! | 9 | overloaded (`client`: the daemon shed the last request) |
//! | 10 | storage error (`client`: a session journal write failed; the session degraded) |

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario};
use crystal::batch::run_batch;
use crystal::budget::AnalysisBudget;
use crystal::durable::{
    install_signal_handlers, run_durable, DurableOptions, FailureKind, JournalFaultPlan, Outcome,
    ShutdownFlag,
};
use crystal::editscript::parse_edit_script;
use crystal::fingerprint::{escape_json_into, SplitMix64};
use crystal::incremental::IncrementalAnalyzer;
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::obs::TraceSink;
use crystal::report::{critical_path_report, full_report};
use crystal::runstore::{self, DiffThresholds, DiffVerdict, RunRecord, RunStore, RunStoreError};
use crystal::selfcheck::{
    check_incremental, check_network, check_resume_equivalence, standard_scenarios, SelfCheckConfig,
};
use crystal::server::{serve, ServerOptions, Status};
use crystal::sweep::{
    sweep_exhaustive_with_options, sweep_inputs_with_options, MAX_EXHAUSTIVE_INPUTS,
};
use crystal::tech::Technology;
use crystal::TimingError;
use mosnet::units::Seconds;
use mosnet::{sim_format, spice_format, validate, Network, NodeId};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stable exit-code taxonomy (see the module docs). Scripts and CI key
/// off these numbers; change them only with a major version bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExitKind {
    Generic,
    Parse,
    Budget,
    Divergence,
    Timeout,
    Poisoned,
    Io,
    Interrupted,
    /// Server-only: admission control shed the request (`client` exits
    /// with the analog of the last response's protocol status).
    Overloaded,
    /// Server-only: a journal write or compaction failed and the
    /// session degraded to ephemeral (`storage_error`, not retryable).
    Storage,
}

impl ExitKind {
    fn code(self) -> u8 {
        match self {
            ExitKind::Generic => 1,
            ExitKind::Parse => 2,
            ExitKind::Budget => 3,
            ExitKind::Divergence => 4,
            ExitKind::Timeout => 5,
            ExitKind::Poisoned => 6,
            ExitKind::Io => 7,
            ExitKind::Interrupted => 8,
            ExitKind::Overloaded => 9,
            ExitKind::Storage => 10,
        }
    }

    /// The exit classification of a protocol [`Status`] (`client`).
    fn from_status(status: Status) -> Option<ExitKind> {
        match status {
            Status::Ok => None,
            Status::ParseError => Some(ExitKind::Parse),
            Status::Budget => Some(ExitKind::Budget),
            Status::Divergence => Some(ExitKind::Divergence),
            Status::Timeout => Some(ExitKind::Timeout),
            Status::Poisoned => Some(ExitKind::Poisoned),
            Status::Io => Some(ExitKind::Io),
            Status::Interrupted => Some(ExitKind::Interrupted),
            Status::Overloaded => Some(ExitKind::Overloaded),
            Status::Storage => Some(ExitKind::Storage),
            _ => Some(ExitKind::Generic),
        }
    }
}

/// A classified CLI failure: the message goes to stderr, the kind picks
/// the exit code.
#[derive(Debug)]
struct CliError {
    kind: ExitKind,
    message: String,
}

impl CliError {
    fn new(kind: ExitKind, message: impl Into<String>) -> CliError {
        CliError {
            kind,
            message: message.into(),
        }
    }
}

/// Unclassified errors (usage mistakes, bad flag values) exit 1.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::new(ExitKind::Generic, message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::new(ExitKind::Generic, message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("crystal-cli: {}", e.message);
            ExitCode::from(e.kind.code())
        }
    }
}

const USAGE: &str =
    "usage: crystal-cli <lint|logic|report|sweep|batch|check|spice|watch> <file.sim> [options]
       crystal-cli serve  [--addr HOST:PORT] [--max-sessions N] [--max-inflight N]
                          [--journal-dir DIR [--resume]] [--request-timeout MS]
                          [--session-ttl MS] [--compact-after K] [--chaos-ops]
                          [--tech FILE] [--no-cache] [budget flags]
       crystal-cli client [--addr HOST:PORT] [--script FILE]
                          [--retries N] [--backoff-ms MS]
       crystal-cli chaos-proxy --upstream HOST:PORT [--listen HOST:PORT]
                          [--drop P] [--delay-ms D] [--truncate P] [--seed N]
       crystal-cli diff-runs <A> <B> [--run-db DIR] [--json FILE]
                          [--fail-on-timing-regression PCT]
                          [--fail-on-perf-regression PCT] [--fail-on-digest-mismatch]
  --input NAME          switching input (report)
  --edge rise|fall      input edge direction (report)
  --model lumped|rctree|slope   delay model (default slope)
  --transition NS       input 10-90% transition time in ns (default 0)
  --set NAME=0|1        static input level (repeatable)
  --output NAME         report only this output (default: all arrivals)
  --tech FILE           calibrated technology file (default: built-in nominal)
  --max-stages N        analysis budget: max stage evaluations per scenario
  --max-paths N         analysis budget: max driving paths per node
  --deadline-ms MS      analysis budget: wall-clock deadline per scenario
  --fail-fast           batch: stop at the first failing scenario
  --threads N           worker threads (1 = serial default, 0 = all hardware threads);
                        batch fans out across scenarios, report across trigger nodes
  --no-cache            disable the shared stage-evaluation memo cache
  --trace FILE          write a JSON-lines trace of every analysis phase to FILE
  --metrics             print a per-phase timing/counter summary after the output
  --sample N            check: scenarios given the transient reference comparison (default 4)
  --inject MODEL=F      check: scale MODEL's predictions by F (fault injection;
                        a working harness must flag the corrupted model)
  --journal FILE        batch: append every scenario outcome to FILE (JSON lines,
                        fsync'd) so a killed run can be resumed
  --resume              batch: replay scenarios already completed in --journal
                        (bit-identical output) instead of re-running them
  --scenario-timeout MS batch: per-scenario wall-clock deadline enforced by a
                        watchdog (0 = cancel immediately, for fault drills)
  --max-retries N       batch: retry ladder length for panics/timeouts
                        (default 2; deterministic errors never retry)
  --retry-backoff-ms MS batch: base backoff before the first retry, doubling
                        per further retry (default 25)
  --selfcheck-resume    batch: after a --journal run, re-analyze journaled
                        outcomes fresh and fail (exit 4) on any mismatch
  --edits SCRIPT        watch: apply the edit script through the incremental
                        session (lines: `resize GATE SRC DRN W_UM L_UM`,
                        `cap NODE FEMTOFARADS`, `add n|p|d GATE SRC DRN W L`,
                        `remove GATE SRC DRN`; `|` starts a comment)
  --selfcheck           watch: after the edits, prove every edited state
                        bit-identical to a fresh full analysis across
                        serial/parallel and cold/warm-cache sessions;
                        any mismatch exits 4
  --once                watch: exit after the first processed file change
  --addr HOST:PORT      serve/client: daemon address (default 127.0.0.1:7878;
                        serve on port 0 picks a free port and prints it)
  --max-sessions N      serve: concurrent session cap; opens past it are shed
                        with an `overloaded` response (default 16)
  --max-inflight N      serve: global in-flight request cap; excess work is
                        shed with `overloaded` instead of queueing (default 4)
  --journal-dir DIR     serve: per-session fsync'd journals for crash recovery
                        (with --resume, sessions replay bit-identically)
  --request-timeout MS  serve: default per-request deadline (a request's own
                        `deadline_ms` field wins; 0 cancels immediately)
  --session-ttl MS      serve: evict sessions idle past MS (journal kept;
                        re-attachable by id — the lease model)
  --compact-after K     serve: auto-compact a session journal once K edits
                        accumulated since the last checkpoint
  --fault-writes-after N  serve: inject a journal write failure after N good
                        writes (disk-fault drills; requires --chaos-ops)
  --fault-syncs-after N serve: inject an fsync failure after N good syncs
                        (requires --chaos-ops)
  --fault-count M       serve: cap the injected failures at M, then heal
  --chaos-ops           serve: enable the fault-injection `sleep`/`crash` ops
                        and the --fault-* flags
  --script FILE         client: request script (default: stdin); lines:
                        `open SESSION FILE [k=v...]`, `edit SESSION <edit-line>`,
                        `report|batch|check|compact|close SESSION`, `ping`,
                        `stats`, `health`, `history`, `diff A B [k=v...]`,
                        `sleep MS`, `crash [SESSION]`, `wait MS`; `|` comments
  --retries N           client: re-send retryable requests up to N times,
                        reconnecting on refused/reset/timed-out transport
                        (edits carry req_id so a retry never double-applies)
  --backoff-ms MS       client: base retry backoff, doubling per attempt
                        with jitter (default 100)
  --listen HOST:PORT    chaos-proxy: listen address (default 127.0.0.1:0;
                        port 0 picks a free port and prints it)
  --upstream HOST:PORT  chaos-proxy: the daemon to forward to
  --drop P              chaos-proxy: probability a forwarded line is dropped
                        and its connection cut (default 0)
  --delay-ms D          chaos-proxy: fixed delay before each forwarded line
  --truncate P          chaos-proxy: probability a line is cut mid-byte and
                        the connection closed (default 0)
  --seed N              chaos-proxy: fault-sequence seed (default 1)
  --run-db DIR          batch/check/serve/diff-runs: persistent run database —
                        every run appends a record (scenario digests + arrival
                        times, phase timings, cache stats, provenance, exit
                        status) that diff-runs can compare later
  --json FILE           diff-runs: write the machine-readable diff report
  --fail-on-timing-regression PCT   diff-runs: exit 4 when any node's arrival
                        moved by more than PCT percent (or appeared/vanished)
  --fail-on-perf-regression PCT     diff-runs: exit 1 when comparable wall
                        clocks regressed by more than PCT percent (skipped
                        with a note when the runs saw different hardware)
  --fail-on-digest-mismatch         diff-runs: exit 4 on any digest mismatch
exit codes: 0 ok, 1 usage/other, 2 parse, 3 budget, 4 divergence,
            5 timeout, 6 poisoned, 7 I/O, 8 interrupted, 9 overloaded,
            10 storage
";

/// Parsed common options.
struct Options {
    model: ModelKind,
    transition: Seconds,
    statics: Vec<(String, bool)>,
    input: Option<String>,
    edge: Option<Edge>,
    output: Option<String>,
    tech: Option<String>,
    budget: AnalysisBudget,
    fail_fast: bool,
    threads: usize,
    no_cache: bool,
    trace: Option<String>,
    metrics: bool,
    sample: usize,
    inject: Option<(ModelKind, f64)>,
    journal: Option<PathBuf>,
    resume: bool,
    scenario_timeout: Option<Duration>,
    max_retries: usize,
    retry_backoff: Duration,
    selfcheck_resume: bool,
    edits: Option<String>,
    watch_selfcheck: bool,
    once: bool,
    addr: String,
    max_sessions: usize,
    max_inflight: usize,
    journal_dir: Option<PathBuf>,
    request_timeout: Option<Duration>,
    session_ttl: Option<Duration>,
    compact_after: Option<u64>,
    fault_writes_after: Option<u64>,
    fault_syncs_after: Option<u64>,
    fault_count: Option<u64>,
    chaos_ops: bool,
    script: Option<String>,
    retries: u32,
    backoff_ms: u64,
    listen: String,
    upstream: Option<String>,
    drop_p: f64,
    delay_ms: u64,
    truncate_p: f64,
    seed: u64,
    run_db: Option<PathBuf>,
    json_out: Option<String>,
    fail_timing: Option<f64>,
    fail_perf: Option<f64>,
    fail_digest: bool,
}

impl Options {
    fn analyzer_options(&self, sink: &Option<Arc<TraceSink>>) -> AnalyzerOptions {
        AnalyzerOptions {
            budget: self.budget,
            threads: self.threads,
            cache: if self.no_cache {
                None
            } else {
                Some(Arc::new(StageCache::new()))
            },
            trace: sink.clone(),
            ..AnalyzerOptions::default()
        }
    }

    /// A shared trace sink when `--trace` or `--metrics` asked for one —
    /// or when `--run-db` did: run records always carry phase timings.
    fn trace_sink(&self) -> Option<Arc<TraceSink>> {
        (self.trace.is_some() || self.metrics || self.run_db.is_some())
            .then(|| Arc::new(TraceSink::new()))
    }

    /// Writes the `--trace` file and appends the `--metrics` summary.
    /// Called on both the success and failure paths so a failing batch or
    /// a diverging check still leaves its trace behind.
    fn emit_observability(
        &self,
        out: &mut String,
        sink: &Option<Arc<TraceSink>>,
    ) -> Result<(), CliError> {
        let Some(sink) = sink else { return Ok(()) };
        if let Some(path) = self.trace.as_deref() {
            fs::write(path, sink.to_json_lines()).map_err(|e| {
                CliError::new(ExitKind::Io, format!("cannot write trace `{path}`: {e}"))
            })?;
        }
        if self.metrics {
            out.push_str(&sink.metrics().render());
        }
        Ok(())
    }
}

fn parse_model(name: &str) -> Result<ModelKind, String> {
    match name {
        "lumped" => Ok(ModelKind::Lumped),
        "rctree" | "rc-tree" => Ok(ModelKind::RcTree),
        "slope" => Ok(ModelKind::Slope),
        other => Err(format!("unknown model `{other}`")),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        model: ModelKind::Slope,
        transition: Seconds::ZERO,
        statics: Vec::new(),
        input: None,
        edge: None,
        output: None,
        tech: None,
        budget: AnalysisBudget::unlimited(),
        fail_fast: false,
        threads: 1,
        no_cache: false,
        trace: None,
        metrics: false,
        sample: 4,
        inject: None,
        journal: None,
        resume: false,
        scenario_timeout: None,
        max_retries: 2,
        retry_backoff: Duration::from_millis(25),
        selfcheck_resume: false,
        edits: None,
        watch_selfcheck: false,
        once: false,
        addr: "127.0.0.1:7878".to_string(),
        max_sessions: 16,
        max_inflight: 4,
        journal_dir: None,
        request_timeout: None,
        session_ttl: None,
        compact_after: None,
        fault_writes_after: None,
        fault_syncs_after: None,
        fault_count: None,
        chaos_ops: false,
        script: None,
        retries: 0,
        backoff_ms: 100,
        listen: "127.0.0.1:0".to_string(),
        upstream: None,
        drop_p: 0.0,
        delay_ms: 0,
        truncate_p: 0.0,
        seed: 1,
        run_db: None,
        json_out: None,
        fail_timing: None,
        fail_perf: None,
        fail_digest: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--model" => options.model = parse_model(value("--model")?.as_str())?,
            "--transition" => {
                let ns: f64 = value("--transition")?
                    .parse()
                    .map_err(|_| "cannot parse --transition".to_string())?;
                if !(ns >= 0.0 && ns.is_finite()) {
                    return Err("--transition must be a non-negative number of ns".into());
                }
                options.transition = Seconds::from_nanos(ns);
            }
            "--set" => {
                let pair = value("--set")?;
                let (name, level) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects NAME=0|1, got `{pair}`"))?;
                let level = match level {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--set level must be 0 or 1, got `{other}`")),
                };
                options.statics.push((name.to_string(), level));
            }
            "--max-stages" => {
                let n: usize = value("--max-stages")?
                    .parse()
                    .map_err(|_| "cannot parse --max-stages".to_string())?;
                options.budget.max_stage_evals = Some(n);
            }
            "--max-paths" => {
                let n: usize = value("--max-paths")?
                    .parse()
                    .map_err(|_| "cannot parse --max-paths".to_string())?;
                options.budget.max_paths_per_node = Some(n);
            }
            "--deadline-ms" => {
                let ms: f64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "cannot parse --deadline-ms".to_string())?;
                if !(ms >= 0.0 && ms.is_finite()) {
                    return Err("--deadline-ms must be a non-negative number".into());
                }
                options.budget.deadline = Some(Duration::from_secs_f64(ms / 1e3));
            }
            "--threads" => {
                options.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "cannot parse --threads".to_string())?;
            }
            "--no-cache" => options.no_cache = true,
            "--fail-fast" => options.fail_fast = true,
            "--trace" => options.trace = Some(value("--trace")?),
            "--metrics" => options.metrics = true,
            "--sample" => {
                options.sample = value("--sample")?
                    .parse()
                    .map_err(|_| "cannot parse --sample".to_string())?;
            }
            "--inject" => {
                let pair = value("--inject")?;
                let (model, factor) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("--inject expects MODEL=FACTOR, got `{pair}`"))?;
                let factor: f64 = factor
                    .parse()
                    .map_err(|_| format!("cannot parse --inject factor `{factor}`"))?;
                if !(factor > 0.0 && factor.is_finite()) {
                    return Err("--inject factor must be a positive number".into());
                }
                options.inject = Some((parse_model(model)?, factor));
            }
            "--journal" => options.journal = Some(PathBuf::from(value("--journal")?)),
            "--resume" => options.resume = true,
            "--scenario-timeout" => {
                let ms: f64 = value("--scenario-timeout")?
                    .parse()
                    .map_err(|_| "cannot parse --scenario-timeout".to_string())?;
                if !(ms >= 0.0 && ms.is_finite()) {
                    return Err("--scenario-timeout must be a non-negative number".into());
                }
                options.scenario_timeout = Some(Duration::from_secs_f64(ms / 1e3));
            }
            "--max-retries" => {
                options.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|_| "cannot parse --max-retries".to_string())?;
            }
            "--retry-backoff-ms" => {
                let ms: f64 = value("--retry-backoff-ms")?
                    .parse()
                    .map_err(|_| "cannot parse --retry-backoff-ms".to_string())?;
                if !(ms >= 0.0 && ms.is_finite()) {
                    return Err("--retry-backoff-ms must be a non-negative number".into());
                }
                options.retry_backoff = Duration::from_secs_f64(ms / 1e3);
            }
            "--selfcheck-resume" => options.selfcheck_resume = true,
            "--addr" => options.addr = value("--addr")?,
            "--max-sessions" => {
                options.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|_| "cannot parse --max-sessions".to_string())?;
            }
            "--max-inflight" => {
                options.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|_| "cannot parse --max-inflight".to_string())?;
            }
            "--journal-dir" => {
                options.journal_dir = Some(PathBuf::from(value("--journal-dir")?));
            }
            "--request-timeout" => {
                let ms: u64 = value("--request-timeout")?
                    .parse()
                    .map_err(|_| "cannot parse --request-timeout".to_string())?;
                options.request_timeout = Some(Duration::from_millis(ms));
            }
            "--session-ttl" => {
                let ms: u64 = value("--session-ttl")?
                    .parse()
                    .map_err(|_| "cannot parse --session-ttl".to_string())?;
                options.session_ttl = Some(Duration::from_millis(ms));
            }
            "--compact-after" => {
                let k: u64 = value("--compact-after")?
                    .parse()
                    .map_err(|_| "cannot parse --compact-after".to_string())?;
                if k == 0 {
                    return Err("--compact-after must be at least 1".into());
                }
                options.compact_after = Some(k);
            }
            "--fault-writes-after" => {
                options.fault_writes_after = Some(
                    value("--fault-writes-after")?
                        .parse()
                        .map_err(|_| "cannot parse --fault-writes-after".to_string())?,
                );
            }
            "--fault-syncs-after" => {
                options.fault_syncs_after = Some(
                    value("--fault-syncs-after")?
                        .parse()
                        .map_err(|_| "cannot parse --fault-syncs-after".to_string())?,
                );
            }
            "--fault-count" => {
                options.fault_count = Some(
                    value("--fault-count")?
                        .parse()
                        .map_err(|_| "cannot parse --fault-count".to_string())?,
                );
            }
            "--chaos-ops" => options.chaos_ops = true,
            "--script" => options.script = Some(value("--script")?),
            "--retries" => {
                options.retries = value("--retries")?
                    .parse()
                    .map_err(|_| "cannot parse --retries".to_string())?;
            }
            "--backoff-ms" => {
                options.backoff_ms = value("--backoff-ms")?
                    .parse()
                    .map_err(|_| "cannot parse --backoff-ms".to_string())?;
            }
            "--listen" => options.listen = value("--listen")?,
            "--upstream" => options.upstream = Some(value("--upstream")?),
            "--drop" => {
                let p: f64 = value("--drop")?
                    .parse()
                    .map_err(|_| "cannot parse --drop".to_string())?;
                if !(0.0..=1.0).contains(&p) {
                    return Err("--drop must be a probability in [0, 1]".into());
                }
                options.drop_p = p;
            }
            "--delay-ms" => {
                options.delay_ms = value("--delay-ms")?
                    .parse()
                    .map_err(|_| "cannot parse --delay-ms".to_string())?;
            }
            "--truncate" => {
                let p: f64 = value("--truncate")?
                    .parse()
                    .map_err(|_| "cannot parse --truncate".to_string())?;
                if !(0.0..=1.0).contains(&p) {
                    return Err("--truncate must be a probability in [0, 1]".into());
                }
                options.truncate_p = p;
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "cannot parse --seed".to_string())?;
            }
            "--run-db" => options.run_db = Some(PathBuf::from(value("--run-db")?)),
            "--json" => options.json_out = Some(value("--json")?),
            "--fail-on-timing-regression" => {
                let pct: f64 = value("--fail-on-timing-regression")?
                    .parse()
                    .map_err(|_| "cannot parse --fail-on-timing-regression".to_string())?;
                if !(pct >= 0.0 && pct.is_finite()) {
                    return Err(
                        "--fail-on-timing-regression must be a non-negative percentage".into(),
                    );
                }
                options.fail_timing = Some(pct);
            }
            "--fail-on-perf-regression" => {
                let pct: f64 = value("--fail-on-perf-regression")?
                    .parse()
                    .map_err(|_| "cannot parse --fail-on-perf-regression".to_string())?;
                if !(pct >= 0.0 && pct.is_finite()) {
                    return Err(
                        "--fail-on-perf-regression must be a non-negative percentage".into(),
                    );
                }
                options.fail_perf = Some(pct);
            }
            "--fail-on-digest-mismatch" => options.fail_digest = true,
            "--edits" => options.edits = Some(value("--edits")?),
            "--selfcheck" => options.watch_selfcheck = true,
            "--once" => options.once = true,
            "--input" => options.input = Some(value("--input")?),
            "--tech" => options.tech = Some(value("--tech")?),
            "--output" => options.output = Some(value("--output")?),
            "--edge" => {
                options.edge = Some(match value("--edge")?.as_str() {
                    "rise" | "rising" => Edge::Rising,
                    "fall" | "falling" => Edge::Falling,
                    other => return Err(format!("unknown edge `{other}`")),
                });
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    Ok(options)
}

/// Whether the configured worker count exceeds the machine's hardware
/// threads. Such runs' wall clocks measure scheduler contention, so the
/// run-db marks them and `diff-runs` keeps them out of perf gates.
fn oversubscribed(threads: usize) -> bool {
    crystal::pool::resolve_threads(threads) > crystal::pool::available_parallelism()
}

fn load_technology(options: &Options) -> Result<Technology, CliError> {
    match options.tech.as_deref() {
        None => Ok(Technology::nominal()),
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| CliError::new(ExitKind::Io, format!("cannot read `{path}`: {e}")))?;
            crystal::tech_format::parse(&text)
                .map_err(|e| CliError::new(ExitKind::Parse, format!("{path}: {e}")))
        }
    }
}

fn load(path: &str) -> Result<Network, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::new(ExitKind::Io, format!("cannot read `{path}`: {e}")))?;
    let name = path.rsplit('/').next().unwrap_or(path);
    sim_format::parse(&text, name)
        .map_err(|e| CliError::new(ExitKind::Parse, format!("{path}: {e}")))
}

/// Exit-code classification of an analysis error: budget exhaustion has
/// its own code, everything else is generic.
fn timing_exit_kind(e: &TimingError) -> ExitKind {
    match e {
        TimingError::BudgetExhausted { .. } => ExitKind::Budget,
        _ => ExitKind::Generic,
    }
}

fn resolve(net: &Network, name: &str) -> Result<NodeId, String> {
    net.node_by_name(name)
        .ok_or_else(|| format!("no node named `{name}` in the netlist"))
}

/// Runs a full CLI invocation; returns the stdout text.
fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args.split_first().ok_or(USAGE.to_string())?;
    // The daemon commands take no netlist file — sessions upload theirs
    // — and `diff-runs` compares stored records, not netlists.
    match command.as_str() {
        "serve" => return run_serve(rest),
        "client" => return run_client(rest),
        "chaos-proxy" => return run_chaos_proxy(rest),
        "diff-runs" => return run_diff_runs(rest),
        _ => {}
    }
    let (path, rest) = rest
        .split_first()
        .ok_or_else(|| format!("`{command}` needs a netlist file\n{USAGE}"))?;
    let net = load(path)?;
    let options = parse_options(rest)?;
    let sink = options.trace_sink();

    match command.as_str() {
        "lint" => {
            let warnings = validate::validate(&net).map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{}: {} nodes, {} transistors",
                net.name(),
                net.node_count(),
                net.transistor_count()
            );
            if warnings.is_empty() {
                out.push_str("clean\n");
            } else {
                for w in &warnings {
                    let _ = writeln!(out, "warning: {w:?}");
                }
            }
            Ok(out)
        }
        "logic" => {
            let mut levels = HashMap::new();
            for (name, level) in &options.statics {
                levels.insert(resolve(&net, name)?, *level);
            }
            crystal::logic::require_inputs(&net, &levels).map_err(|e| e.to_string())?;
            let state = crystal::logic::solve(&net, &levels);
            let mut out = String::new();
            for (id, node) in net.nodes() {
                let _ = writeln!(out, "{:<16} {}", node.name(), state.value(id));
            }
            Ok(out)
        }
        "report" => {
            let input_name = options
                .input
                .as_deref()
                .ok_or("`report` needs --input NAME")?;
            let edge = options.edge.ok_or("`report` needs --edge rise|fall")?;
            let input = resolve(&net, input_name)?;
            let mut scenario =
                Scenario::step(input, edge).with_input_transition(options.transition);
            for (name, level) in &options.statics {
                scenario = scenario.with_static(resolve(&net, name)?, *level);
            }
            let tech = load_technology(&options)?;
            let result = analyze_with_options(
                &net,
                &tech,
                options.model,
                &scenario,
                options.analyzer_options(&sink),
            )
            .map_err(|e| CliError::new(timing_exit_kind(&e), e.to_string()))?;
            let mut out = match options.output.as_deref() {
                Some(name) => {
                    let output = resolve(&net, name)?;
                    critical_path_report(&net, &result, output)
                }
                None => full_report(&net, &result),
            };
            options.emit_observability(&mut out, &sink)?;
            Ok(out)
        }
        "sweep" => {
            let tech = load_technology(&options)?;
            // One shared cache (and thread setting) across the whole
            // sweep: repeated stages amortize beautifully here.
            let analyzer_options = options.analyzer_options(&sink);
            let sweep = if net.inputs().len() <= MAX_EXHAUSTIVE_INPUTS {
                sweep_exhaustive_with_options(
                    &net,
                    &tech,
                    options.model,
                    options.transition,
                    &analyzer_options,
                )
            } else {
                sweep_inputs_with_options(
                    &net,
                    &tech,
                    options.model,
                    options.transition,
                    &HashMap::new(),
                    &analyzer_options,
                )
            }
            .map_err(|e| CliError::new(timing_exit_kind(&e), e.to_string()))?;
            let mut out = String::new();
            let _ = writeln!(out, "{} scenarios analyzed", sweep.runs().len());
            match sweep.worst_output_arrival(&net) {
                Some((node, arrival, idx)) => {
                    let (scenario, result) = &sweep.runs()[idx];
                    let _ = writeln!(
                        out,
                        "worst output arrival: `{}` at {:.4} ns (input `{}` {})",
                        net.node(node).name(),
                        arrival.time.nanos(),
                        net.node(scenario.input).name(),
                        if scenario.edge == Edge::Rising {
                            "rising"
                        } else {
                            "falling"
                        },
                    );
                    out.push_str(&critical_path_report(&net, result, node));
                }
                None => out.push_str("no output ever switches\n"),
            }
            options.emit_observability(&mut out, &sink)?;
            Ok(out)
        }
        "batch" => {
            let tech = load_technology(&options)?;
            // Every (input × edge) scenario; unlisted inputs sit at their
            // --set level (default 0).
            let mut statics = HashMap::new();
            for (name, level) in &options.statics {
                statics.insert(resolve(&net, name)?, *level);
            }
            let scenarios = standard_scenarios(&net, &statics, options.transition);
            if scenarios.is_empty() {
                return Err("netlist has no primary inputs to batch over"
                    .to_string()
                    .into());
            }
            if options.journal.is_some() {
                return run_durable_batch(&net, &tech, &options, &scenarios, &sink);
            }
            let started = Instant::now();
            let analyzer_options = options.analyzer_options(&sink);
            let cache = analyzer_options.cache.clone();
            let batch = run_batch(
                &net,
                &tech,
                options.model,
                &scenarios,
                analyzer_options.clone(),
                options.fail_fast,
            );
            let mut out = String::new();
            for (label, outcome) in &batch.results {
                match outcome {
                    Ok(result) => match result.max_arrival() {
                        Some((node, arrival)) => {
                            let _ = writeln!(
                                out,
                                "{label}: ok, latest `{}` at {:.4} ns",
                                net.node(node).name(),
                                arrival.time.nanos()
                            );
                        }
                        None => {
                            let _ = writeln!(out, "{label}: ok, nothing switches");
                        }
                    },
                    Err(failure) => {
                        let _ = writeln!(out, "{label}: FAILED ({failure})");
                    }
                }
            }
            let kind = if batch.all_ok() {
                None
            } else if batch.results.iter().any(|(_, r)| {
                matches!(
                    r,
                    Err(crystal::BatchFailure::Error(
                        TimingError::BudgetExhausted { .. }
                    ))
                )
            }) {
                Some(ExitKind::Budget)
            } else {
                Some(ExitKind::Generic)
            };
            if batch.all_ok() {
                let _ = writeln!(out, "{} scenarios, all ok", batch.results.len());
            }
            if let Some(db) = options.run_db.clone() {
                let fp = crystal::fingerprint::run_fingerprint(
                    &net,
                    &tech,
                    options.model,
                    &analyzer_options,
                );
                let mut record = RunRecord::new(runstore::new_meta(
                    "batch",
                    fp,
                    &options.model.to_string(),
                    options.threads,
                ));
                for (label, outcome) in &batch.results {
                    match outcome {
                        Ok(result) => {
                            let summary = crystal::durable::scenario_summary(&net, result);
                            record.push_result(&net, label, result, &summary, options.inject);
                        }
                        Err(failure) => record.scenarios.push(runstore::ScenarioRow {
                            label: label.clone(),
                            outcome: "error".to_string(),
                            digest: None,
                            summary: failure.to_string(),
                            wall_us: 0,
                            oversubscribed: oversubscribed(options.threads),
                        }),
                    }
                }
                record.cache = cache.as_ref().map(|c| c.stats());
                record_run(&db, record, &sink, kind, started, &mut out)?;
            }
            // Completed scenarios stay visible either way; the failure
            // summary drives the non-zero exit. The trace file still
            // gets written — failing runs are the ones worth inspecting.
            options.emit_observability(&mut out, &sink)?;
            match kind {
                None => Ok(out),
                Some(kind) => Err(CliError::new(
                    kind,
                    format!("{out}{}", batch.failure_summary()),
                )),
            }
        }
        "check" => {
            let tech = load_technology(&options)?;
            let mut statics = HashMap::new();
            for (name, level) in &options.statics {
                statics.insert(resolve(&net, name)?, *level);
            }
            let mut scenarios = standard_scenarios(&net, &statics, options.transition);
            // --input / --edge narrow the audit to sensitized transitions
            // (ratioed or floating scenarios measure the test setup, not
            // the model; see the selfcheck module docs).
            if let Some(name) = options.input.as_deref() {
                let input = resolve(&net, name)?;
                scenarios.retain(|(_, s)| s.input == input);
            }
            if let Some(edge) = options.edge {
                scenarios.retain(|(_, s)| s.edge == edge);
            }
            if scenarios.is_empty() {
                return Err("no scenarios to check (no inputs, or filters exclude all)"
                    .to_string()
                    .into());
            }
            let config = SelfCheckConfig {
                // The parallel leg needs real parallelism to be a check;
                // `--threads` overrides, otherwise all hardware threads.
                threads: if options.threads <= 1 {
                    0
                } else {
                    options.threads
                },
                reference_sample: options.sample,
                inject_scale: options.inject,
                trace: sink.clone(),
                ..SelfCheckConfig::default()
            };
            let started = Instant::now();
            let report = check_network(&net, &tech, &scenarios, &config);
            let mut out = report.render();
            let kind = (!report.ok()).then_some(ExitKind::Divergence);
            if let Some(db) = options.run_db.clone() {
                let fp = crystal::fingerprint::run_fingerprint(
                    &net,
                    &tech,
                    options.model,
                    &options.analyzer_options(&sink),
                );
                let mut record = RunRecord::new(runstore::new_meta(
                    "check",
                    fp,
                    &options.model.to_string(),
                    options.threads,
                ));
                // The harness compares legs instead of producing one
                // result set, so the record carries its verdict counters
                // rather than arrivals.
                for (name, value) in [
                    ("checks_run", report.checks_run as u64),
                    ("divergences", report.divergences.len() as u64),
                    ("skipped", report.skipped.len() as u64),
                ] {
                    record.counters.push(runstore::CounterRow {
                        phase: "check".to_string(),
                        name: name.to_string(),
                        value,
                    });
                }
                record_run(&db, record, &sink, kind, started, &mut out)?;
            }
            options.emit_observability(&mut out, &sink)?;
            match kind {
                None => Ok(out),
                Some(kind) => Err(CliError::new(kind, out)),
            }
        }
        "spice" => Ok(spice_format::write(&net)),
        "watch" => {
            let tech = load_technology(&options)?;
            let mut statics = HashMap::new();
            for (name, level) in &options.statics {
                statics.insert(resolve(&net, name)?, *level);
            }
            let mut scenarios = standard_scenarios(&net, &statics, options.transition);
            // --input / --edge narrow the session, exactly as in `check`.
            if let Some(name) = options.input.as_deref() {
                let input = resolve(&net, name)?;
                scenarios.retain(|(_, s)| s.input == input);
            }
            if let Some(edge) = options.edge {
                scenarios.retain(|(_, s)| s.edge == edge);
            }
            if scenarios.is_empty() {
                return Err("no scenarios to watch (no inputs, or filters exclude all)"
                    .to_string()
                    .into());
            }
            let session = IncrementalAnalyzer::new(
                net.clone(),
                tech.clone(),
                options.model,
                scenarios.clone(),
                options.analyzer_options(&sink),
            )
            .map_err(|e| CliError::new(timing_exit_kind(&e), e.to_string()))?;
            let mut out = String::new();
            let _ = writeln!(out, "watching `{path}`: {} scenario(s)", scenarios.len());
            for (label, _) in &scenarios {
                let result = session.result(label).expect("scenario just analyzed");
                match result.max_arrival() {
                    Some((node, arrival)) => {
                        let _ = writeln!(
                            out,
                            "{label}: latest `{}` at {:.4} ns",
                            session.network().node(node).name(),
                            arrival.time.nanos()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{label}: nothing switches");
                    }
                }
            }
            match options.edits.clone() {
                Some(script) => run_scripted_edits(
                    session, &net, &tech, &options, &scenarios, &script, out, &sink,
                ),
                None => run_watch_loop(session, path, &options, out, &sink),
            }
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

/// The `watch --edits` path: apply a scripted edit sequence through the
/// incremental session, reporting the invalidation accounting per edit,
/// and optionally (`--selfcheck`) prove every edited state bit-identical
/// to fresh full analysis.
#[allow(clippy::too_many_arguments)]
fn run_scripted_edits(
    mut session: IncrementalAnalyzer,
    net: &Network,
    tech: &Technology,
    options: &Options,
    scenarios: &[(String, Scenario)],
    script: &str,
    mut out: String,
    sink: &Option<Arc<TraceSink>>,
) -> Result<String, CliError> {
    let text = fs::read_to_string(script)
        .map_err(|e| CliError::new(ExitKind::Io, format!("cannot read `{script}`: {e}")))?;
    let edits = parse_edit_script(&text)?;
    if edits.is_empty() {
        return Err(format!("edit script `{script}` contains no edits").into());
    }
    let (mut reevaluated, mut reused) = (0usize, 0usize);
    for (i, edit) in edits.iter().enumerate() {
        let delta = session
            .apply_edit(edit)
            .map_err(|e| CliError::new(timing_exit_kind(&e), format!("edit {}: {e}", i + 1)))?;
        for s in &delta.scenarios {
            reevaluated += s.stats.invalidated_stages;
            reused += s.stats.reused_stages;
        }
        // DeltaReport renders as "edit: ..."; number it for the script.
        out.push_str(
            &delta
                .to_string()
                .replacen("edit:", &format!("edit {}:", i + 1), 1),
        );
    }
    let _ = writeln!(
        out,
        "{} edit(s) applied: {} stage(s) re-evaluated, {} stage(s) reused",
        edits.len(),
        reevaluated,
        reused
    );
    if options.watch_selfcheck {
        let config = SelfCheckConfig {
            threads: if options.threads <= 1 {
                0
            } else {
                options.threads
            },
            trace: sink.clone(),
            ..SelfCheckConfig::default()
        };
        let report = check_incremental(net, tech, options.model, scenarios, &edits, &config);
        out.push_str(&report.render());
        options.emit_observability(&mut out, sink)?;
        if !report.ok() {
            return Err(CliError::new(ExitKind::Divergence, out));
        }
        return Ok(out);
    }
    options.emit_observability(&mut out, sink)?;
    Ok(out)
}

/// The plain `watch` path: poll the netlist file and push every change
/// through the incremental session. `--once` returns after the first
/// successfully processed change; otherwise the loop streams its reports
/// to stdout and only ends with the process.
fn run_watch_loop(
    mut session: IncrementalAnalyzer,
    path: &str,
    options: &Options,
    mut out: String,
    sink: &Option<Arc<TraceSink>>,
) -> Result<String, CliError> {
    use std::io::Write as _;
    let poll = Duration::from_millis(100);
    let stamp = |path: &str| {
        fs::metadata(path)
            .and_then(|m| m.modified())
            .map_err(|e| CliError::new(ExitKind::Io, format!("cannot stat `{path}`: {e}")))
    };
    let mut last = stamp(path)?;
    if !options.once {
        // Streaming mode: flush eagerly, nothing accumulates.
        print!("{out}");
        let _ = std::io::stdout().flush();
        out.clear();
    }
    loop {
        std::thread::sleep(poll);
        // A vanished file (editors swap on save) just means "not yet".
        let Ok(now) = fs::metadata(path).and_then(|m| m.modified()) else {
            continue;
        };
        if now == last {
            continue;
        }
        last = now;
        let mut chunk = String::new();
        match load(path)
            .map_err(|e| e.message)
            .and_then(|next| session.replace_network(next).map_err(|e| e.to_string()))
        {
            // A broken intermediate save keeps the session on the last
            // good netlist; the next change gets diffed against it.
            Err(e) => {
                let _ = writeln!(chunk, "change rejected: {e}");
            }
            Ok(delta) => {
                chunk.push_str(&delta.to_string().replacen("edit:", "change:", 1));
                if options.once {
                    out.push_str(&chunk);
                    options.emit_observability(&mut out, sink)?;
                    return Ok(out);
                }
            }
        }
        if options.once {
            out.push_str(&chunk);
        } else {
            print!("{chunk}");
            let _ = std::io::stdout().flush();
        }
    }
}

// The `watch --edits` / server edit-script grammar lives in
// `crystal::editscript` (the server journals the same text verbatim).

/// The `serve` command: start the timing-analysis daemon, print the
/// bound address (parsed by scripts when `--addr` ends in `:0`), block
/// until a `SIGINT`/`SIGTERM` drain, then print the final counters.
fn run_serve(args: &[String]) -> Result<String, CliError> {
    let options = parse_options(args)?;
    install_signal_handlers();
    let tech = load_technology(&options)?;
    let sink = options.trace_sink();
    let started = Instant::now();
    let fault_flags = options.fault_writes_after.is_some()
        || options.fault_syncs_after.is_some()
        || options.fault_count.is_some();
    if fault_flags && !options.chaos_ops {
        return Err(
            "--fault-writes-after/--fault-syncs-after/--fault-count require --chaos-ops"
                .to_string()
                .into(),
        );
    }
    let mut journal_faults = JournalFaultPlan::none();
    if let Some(n) = options.fault_writes_after {
        journal_faults = journal_faults.fail_writes_after(n);
    }
    if let Some(n) = options.fault_syncs_after {
        journal_faults = journal_faults.fail_syncs_after(n);
    }
    if let Some(m) = options.fault_count {
        journal_faults = journal_faults.fail_count(m);
    }
    let server_options = ServerOptions {
        addr: options.addr.clone(),
        max_sessions: options.max_sessions,
        max_inflight: options.max_inflight,
        journal_dir: options.journal_dir.clone(),
        resume: options.resume,
        request_timeout: options.request_timeout,
        budget: options.budget,
        tech,
        threads: options.threads,
        cache: if options.no_cache {
            None
        } else {
            Some(Arc::new(StageCache::new()))
        },
        trace: sink.clone(),
        shutdown: ShutdownFlag::new(),
        chaos_ops: options.chaos_ops,
        run_db: options.run_db.clone(),
        session_ttl: options.session_ttl,
        compact_after: options.compact_after,
        journal_faults,
    };
    let handle = serve(server_options)
        .map_err(|e| CliError::new(ExitKind::Io, format!("cannot start server: {e}")))?;

    // Streamed (not returned) so scripts can read the port immediately.
    println!("crystal-cli: listening on {}", handle.addr());
    for id in &handle.recovery().recovered {
        println!("crystal-cli: recovered session `{id}`");
    }
    for (path, reason) in &handle.recovery().failed {
        eprintln!(
            "crystal-cli: skipped journal `{}`: {reason}",
            path.display()
        );
    }
    let _ = std::io::stdout().flush();

    let stats = handle.join();
    let mut out = format!(
        "drained: {} connection(s), {} request(s), {} shed, {} cancelled, \
         {} panic(s), {} interrupted, {} session(s) recovered\n",
        stats.accepted,
        stats.requests,
        stats.shed,
        stats.cancelled,
        stats.panics,
        stats.interrupted,
        stats.recovered,
    );
    if let Some(db) = &options.run_db {
        let mut record = RunRecord::new(runstore::new_meta("serve", 0, "-", options.threads));
        for (name, value) in [
            ("accepted", stats.accepted),
            ("requests", stats.requests),
            ("shed", stats.shed),
            ("cancelled", stats.cancelled),
            ("panics", stats.panics),
            ("interrupted", stats.interrupted),
            ("parse_errors", stats.parse_errors),
            ("sessions_opened", stats.sessions_opened),
            ("sessions_closed", stats.sessions_closed),
            ("recovered", stats.recovered),
            ("recovery_failed", stats.recovery_failed),
            ("compactions", stats.compactions),
            ("dedup_hits", stats.dedup_hits),
            ("leases_expired", stats.leases_expired),
            ("degraded_sessions", stats.degraded_sessions),
            ("edits_replayed", stats.edits_replayed),
            ("retries", stats.retries),
        ] {
            record.counters.push(runstore::CounterRow {
                phase: "server".to_string(),
                name: name.to_string(),
                value,
            });
        }
        record_run(db, record, &sink, None, started, &mut out)?;
    }
    options.emit_observability(&mut out, &sink)?;
    Ok(out)
}

/// The `client` command: replay a request script against a daemon,
/// streaming raw response lines to stdout. The process exit code is the
/// exit analog of the **last** response's protocol status, so shell
/// scripts compose with the daemon exactly like with `batch`.
fn run_client(args: &[String]) -> Result<String, CliError> {
    use std::io::{BufRead as _, BufReader, Read as _};

    /// One live connection: a cloned writer plus a buffered reader.
    struct Conn {
        writer: std::net::TcpStream,
        reader: BufReader<std::net::TcpStream>,
    }

    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = std::net::TcpStream::connect(addr)?;
        // Each request is one small write answered before the next is
        // sent; Nagle would hold it for the daemon's delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Marks a transport failure retryable for scripts: the hint goes to
    /// stderr with the error, mirroring the wire `retryable` field.
    fn transport_error(out: &str, what: &str) -> CliError {
        CliError::new(
            ExitKind::Io,
            format!("{out}{what} (retryable: true; use --retries N to auto-retry)"),
        )
    }

    let options = parse_options(args)?;
    let script = match options.script.as_deref() {
        Some(path) => fs::read_to_string(path)
            .map_err(|e| CliError::new(ExitKind::Io, format!("cannot read `{path}`: {e}")))?,
        None => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| CliError::new(ExitKind::Io, format!("cannot read stdin: {e}")))?;
            text
        }
    };
    let mut rng = SplitMix64::new(options.seed ^ u64::from(std::process::id()));
    let backoff = |attempt: u32, rng: &mut SplitMix64| {
        let base = options
            .backoff_ms
            .saturating_mul(1u64 << attempt.min(6))
            .min(5_000);
        std::thread::sleep(Duration::from_millis(base + rng.next_below(base / 2 + 1)));
    };
    let mut conn: Option<Conn> = None;

    let mut out = String::new();
    let mut last_status = Status::Ok;
    for (index, raw) in script.lines().enumerate() {
        let line = raw.split('|').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| CliError::from(format!("client script line {}: {msg}", index + 1));
        // `wait MS` is client-side pacing, not a request.
        if let Some(ms) = line.strip_prefix("wait ") {
            let ms: u64 = ms
                .trim()
                .parse()
                .map_err(|_| err(format!("cannot parse wait `{}`", ms.trim())))?;
            std::thread::sleep(Duration::from_millis(ms));
            continue;
        }
        let request = client_request(line).map_err(err)?;
        let op = line.split_whitespace().next().unwrap_or("");
        // A lost response to `close` or `crash` must not be re-sent:
        // neither is idempotent (edits carry `req_id`, `open` dedups on
        // fingerprint, reads are naturally safe).
        let resend_safe = !matches!(op, "close" | "crash");
        // `req_id` makes an edit retry dedupe server-side instead of
        // double-applying; deterministic per line so re-runs correlate.
        let request = if options.retries > 0 && op == "edit" {
            let mut with_id = request[..request.len() - 1].to_string();
            let _ = write!(
                with_id,
                ",\"req_id\":\"q{}-{}\"}}",
                std::process::id(),
                index + 1
            );
            with_id
        } else {
            request
        };

        let mut attempt: u32 = 0;
        let response = loop {
            if conn.is_none() {
                match connect(&options.addr) {
                    Ok(c) => conn = Some(c),
                    Err(e) => {
                        if attempt < options.retries {
                            attempt += 1;
                            backoff(attempt, &mut rng);
                            continue;
                        }
                        return Err(transport_error(
                            &out,
                            &format!("cannot connect to `{}`: {e}", options.addr),
                        ));
                    }
                }
            }
            let live = conn.as_mut().expect("connection just established");
            // Retransmissions are marked so the daemon's `retries`
            // counter sees them.
            // The frame and its newline go out in one write.
            let wire = if attempt > 0 {
                format!(
                    "{},\"retry\":\"{attempt}\"}}\n",
                    &request[..request.len() - 1]
                )
            } else {
                format!("{request}\n")
            };
            let sent = live
                .writer
                .write_all(wire.as_bytes())
                .and_then(|_| live.writer.flush());
            let mut response = String::new();
            let received = match sent {
                Ok(()) => live.reader.read_line(&mut response),
                Err(e) => Err(e),
            };
            // A frame is only a response if the line is complete (the
            // trailing newline arrived) and parses as a flat JSON
            // object; a connection cut mid-line yields a partial read
            // that must count as a transport failure, not an answer.
            let complete = response.ends_with('\n')
                && crystal::fingerprint::parse_json_object(response.trim_end()).is_some();
            match received {
                Ok(n) if n > 0 && complete => {
                    let response = response.trim_end().to_string();
                    let status = crystal::fingerprint::parse_json_object(&response)
                        .and_then(|fields| fields.get("status").cloned())
                        .and_then(|name| Status::from_name(&name))
                        .unwrap_or(Status::Error);
                    if status.is_retryable() && attempt < options.retries {
                        attempt += 1;
                        backoff(attempt, &mut rng);
                        continue;
                    }
                    break response;
                }
                // Reset, refused, timed out, a clean close mid-script,
                // or a torn frame: reconnect and re-send when the op
                // permits it.
                Ok(_) | Err(_) => {
                    conn = None;
                    let what = match received {
                        Ok(0) => "server closed the connection".to_string(),
                        Ok(_) => "server sent a torn response frame".to_string(),
                        Err(e) => format!("transport failure: {e}"),
                    };
                    if resend_safe && attempt < options.retries {
                        attempt += 1;
                        backoff(attempt, &mut rng);
                        continue;
                    }
                    return Err(transport_error(&out, &what));
                }
            }
        };
        let _ = writeln!(out, "{response}");
        last_status = crystal::fingerprint::parse_json_object(&response)
            .and_then(|fields| fields.get("status").cloned())
            .and_then(|name| Status::from_name(&name))
            .unwrap_or(Status::Error);
    }
    match ExitKind::from_status(last_status) {
        None => Ok(out),
        Some(kind) => Err(CliError::new(kind, out)),
    }
}

/// The `chaos-proxy` command: a line-oriented TCP proxy that injects
/// network faults between a client and the daemon — per-line drop
/// (connection cut), fixed delay, and mid-line truncation — all from a
/// seeded deterministic schedule so a failing soak reproduces exactly.
fn run_chaos_proxy(args: &[String]) -> Result<String, CliError> {
    use std::io::{BufRead as _, BufReader};
    use std::sync::atomic::{AtomicU64, Ordering};

    let options = parse_options(args)?;
    let Some(upstream) = options.upstream.clone() else {
        return Err("chaos-proxy requires --upstream HOST:PORT".into());
    };
    install_signal_handlers();
    let shutdown = ShutdownFlag::new();
    let listener = std::net::TcpListener::bind(&options.listen).map_err(|e| {
        CliError::new(
            ExitKind::Io,
            format!("cannot listen on `{}`: {e}", options.listen),
        )
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::new(ExitKind::Io, format!("cannot configure listener: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::new(ExitKind::Io, format!("cannot resolve listen address: {e}")))?;
    // Streamed (not returned) so scripts can read the port immediately,
    // same contract as `serve`.
    println!("crystal-cli: chaos-proxy listening on {local} -> {upstream}");
    let _ = std::io::stdout().flush();

    // One pump per direction per connection; each draws from its own
    // seeded stream so fault schedules are stable per (connection,
    // direction) regardless of thread interleaving.
    fn pump(
        from: std::net::TcpStream,
        mut to: std::net::TcpStream,
        mut rng: SplitMix64,
        drop_p: f64,
        delay: Duration,
        truncate_p: f64,
    ) {
        let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
        let mut reader = BufReader::new(from);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return,
                Ok(_) => {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    let roll = rng.next_f64();
                    if roll < drop_p {
                        // Drop: swallow the line and cut the connection —
                        // the harshest honest failure a network gives.
                        let _ = to.shutdown(std::net::Shutdown::Both);
                        return;
                    }
                    if roll < drop_p + truncate_p {
                        let cut = line.len() / 2;
                        let _ = to.write_all(&line.as_bytes()[..cut]);
                        let _ = to.flush();
                        let _ = to.shutdown(std::net::Shutdown::Both);
                        return;
                    }
                    if to
                        .write_all(line.as_bytes())
                        .and_then(|_| to.flush())
                        .is_err()
                    {
                        return;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    }

    let connection_seq = AtomicU64::new(0);
    while !shutdown.is_requested() {
        match listener.accept() {
            Ok((client, _peer)) => {
                let Ok(server) = std::net::TcpStream::connect(&upstream) else {
                    drop(client);
                    continue;
                };
                let n = connection_seq.fetch_add(1, Ordering::Relaxed);
                let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                let seed = options.seed;
                let (drop_p, delay, truncate_p) = (
                    options.drop_p,
                    Duration::from_millis(options.delay_ms),
                    options.truncate_p,
                );
                std::thread::spawn(move || {
                    pump(
                        client_r,
                        server,
                        SplitMix64::new(seed ^ (n << 1)),
                        drop_p,
                        delay,
                        truncate_p,
                    );
                });
                std::thread::spawn(move || {
                    pump(
                        server_r,
                        client,
                        SplitMix64::new(seed ^ (n << 1) ^ 1),
                        drop_p,
                        delay,
                        truncate_p,
                    );
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    Ok("chaos-proxy: drained\n".to_string())
}

/// Translates one client-script line into a wire request. The grammar
/// mirrors the ops table in the `crystal::server` docs; trailing
/// `key=value` words pass through as extra request fields (`model=`,
/// `deadline_ms=`, `set=a=1`, ...).
fn client_request(line: &str) -> Result<String, String> {
    let mut request = String::from("{\"op\":\"");
    let push_field = |request: &mut String, key: &str, value: &str| {
        request.push_str("\",\"");
        request.push_str(key);
        request.push_str("\":\"");
        let mut escaped = String::new();
        escape_json_into(value, &mut escaped);
        request.push_str(&escaped);
    };
    let push_extras = |request: &mut String, words: &[&str]| -> Result<(), String> {
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{word}`"))?;
            let mut escaped = String::new();
            escape_json_into(value, &mut escaped);
            request.push_str(&format!("\",\"{key}\":\"{escaped}"));
        }
        Ok(())
    };
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        ["ping"] => request.push_str("ping"),
        ["stats"] => request.push_str("stats"),
        ["health"] => request.push_str("health"),
        ["history"] => request.push_str("history"),
        ["diff", a, b, extras @ ..] => {
            request.push_str("diff");
            push_field(&mut request, "a", a);
            push_field(&mut request, "b", b);
            push_extras(&mut request, extras)?;
        }
        ["open", session, file, extras @ ..] => {
            let netlist = fs::read_to_string(file)
                .map_err(|e| format!("cannot read netlist `{file}`: {e}"))?;
            let name = file.rsplit('/').next().unwrap_or(file);
            request.push_str("open");
            push_field(&mut request, "session", session);
            push_field(&mut request, "name", name);
            push_field(&mut request, "netlist", &netlist);
            push_extras(&mut request, extras)?;
        }
        ["edit", session, edit_line @ ..] if !edit_line.is_empty() => {
            request.push_str("edit");
            push_field(&mut request, "session", session);
            push_field(&mut request, "script", &edit_line.join(" "));
        }
        [op @ ("report" | "batch" | "check" | "compact" | "close"), session, extras @ ..] => {
            request.push_str(op);
            push_field(&mut request, "session", session);
            push_extras(&mut request, extras)?;
        }
        ["sleep", ms, extras @ ..] => {
            request.push_str("sleep");
            push_field(&mut request, "ms", ms);
            push_extras(&mut request, extras)?;
        }
        ["crash"] => request.push_str("crash"),
        ["crash", session] => {
            request.push_str("crash");
            push_field(&mut request, "session", session);
        }
        _ => return Err(format!("cannot parse client command `{line}`")),
    }
    request.push_str("\"}");
    Ok(request)
}

/// The wire-taxonomy status name and exit code a run record stores for a
/// CLI outcome (`None` = success).
fn exit_status(kind: Option<ExitKind>) -> (&'static str, u8) {
    match kind {
        None => ("ok", 0),
        Some(ExitKind::Generic) => ("error", 1),
        Some(ExitKind::Parse) => ("parse_error", 2),
        Some(ExitKind::Budget) => ("budget", 3),
        Some(ExitKind::Divergence) => ("divergence", 4),
        Some(ExitKind::Timeout) => ("timeout", 5),
        Some(ExitKind::Poisoned) => ("poisoned", 6),
        Some(ExitKind::Io) => ("io_error", 7),
        Some(ExitKind::Interrupted) => ("interrupted", 8),
        Some(ExitKind::Overloaded) => ("overloaded", 9),
        Some(ExitKind::Storage) => ("storage_error", 10),
    }
}

/// Classifies a run-store failure: damaged records parse-error, missing
/// or ambiguous specs are usage errors, the rest is I/O.
fn runstore_exit_kind(e: &RunStoreError) -> ExitKind {
    match e {
        RunStoreError::Io { .. } => ExitKind::Io,
        RunStoreError::Corrupt { .. } => ExitKind::Parse,
        _ => ExitKind::Generic,
    }
}

/// Finalizes and persists one run record: stamps the phase/counter
/// metrics from the shared sink, the exit footer, and the wall clock,
/// then appends the record to the `--run-db` database and echoes its ID.
fn record_run(
    db: &Path,
    mut record: RunRecord,
    sink: &Option<Arc<TraceSink>>,
    kind: Option<ExitKind>,
    started: Instant,
    out: &mut String,
) -> Result<(), CliError> {
    if let Some(sink) = sink {
        sink.count(crystal::obs::Phase::RunStore, "runs_recorded", 1);
        record.set_metrics(&sink.metrics());
    }
    let (status, code) = exit_status(kind);
    record.exit = Some(runstore::ExitRow {
        status: status.to_string(),
        code,
        wall_us: started.elapsed().as_micros() as u64,
    });
    let store =
        RunStore::open(db).map_err(|e| CliError::new(runstore_exit_kind(&e), e.to_string()))?;
    let path = store
        .record(&record)
        .map_err(|e| CliError::new(runstore_exit_kind(&e), e.to_string()))?;
    let _ = writeln!(
        out,
        "run-db: recorded {} -> {}",
        record.meta.id,
        path.display()
    );
    Ok(())
}

/// The `diff-runs` command: resolve two run records (paths, run IDs, or
/// unique ID prefixes against `--run-db`), diff them, apply the
/// regression thresholds, and optionally write the JSON report. Exit
/// codes follow the threshold precedence: timing regression and digest
/// mismatch exit 4 (the divergence analog), perf regression exits 1.
fn run_diff_runs(args: &[String]) -> Result<String, CliError> {
    let spec = |args: &[String], which: &str| -> Result<(String, Vec<String>), CliError> {
        match args.split_first() {
            Some((first, rest)) if !first.starts_with("--") => Ok((first.clone(), rest.to_vec())),
            _ => Err(format!("`diff-runs` needs two run specs ({which} missing)\n{USAGE}").into()),
        }
    };
    let (a_spec, rest) = spec(args, "baseline A")?;
    let (b_spec, rest) = spec(&rest, "candidate B")?;
    let options = parse_options(&rest)?;
    let store = RunStore::open(options.run_db.as_deref().unwrap_or(Path::new(".")))
        .map_err(|e| CliError::new(runstore_exit_kind(&e), e.to_string()))?;
    let read = |spec: &str| -> Result<RunRecord, CliError> {
        let path = store
            .resolve(spec)
            .map_err(|e| CliError::new(runstore_exit_kind(&e), e.to_string()))?;
        runstore::read_run(&path).map_err(|e| CliError::new(runstore_exit_kind(&e), e.to_string()))
    };
    let a = read(&a_spec)?;
    let b = read(&b_spec)?;
    let thresholds = DiffThresholds {
        timing_pct: options.fail_timing,
        perf_pct: options.fail_perf,
        digest: options.fail_digest,
    };
    let d = runstore::diff(&a, &b);
    let mut out = d.render();
    if let Some(path) = options.json_out.as_deref() {
        fs::write(path, d.to_json(&thresholds)).map_err(|e| {
            CliError::new(ExitKind::Io, format!("cannot write report `{path}`: {e}"))
        })?;
        let _ = writeln!(out, "json report: {path}");
    }
    match d.verdict(&thresholds) {
        DiffVerdict::Clean => {
            let _ = writeln!(out, "verdict: clean");
            Ok(out)
        }
        DiffVerdict::TimingRegression => {
            let _ = writeln!(
                out,
                "verdict: TIMING REGRESSION ({:.4}% worst arrival change exceeds {}%)",
                d.max_timing_pct,
                options.fail_timing.unwrap_or(0.0)
            );
            Err(CliError::new(ExitKind::Divergence, out))
        }
        DiffVerdict::DigestMismatch => {
            let _ = writeln!(
                out,
                "verdict: DIGEST MISMATCH ({} scenario(s))",
                d.digest_mismatches.len() + d.only_in_a.len() + d.only_in_b.len()
            );
            Err(CliError::new(ExitKind::Divergence, out))
        }
        DiffVerdict::PerfRegression => {
            let _ = writeln!(
                out,
                "verdict: PERF REGRESSION ({:+.1}% worst comparable wall-clock change exceeds {}%)",
                d.max_perf_pct,
                options.fail_perf.unwrap_or(0.0)
            );
            Err(CliError::new(ExitKind::Generic, out))
        }
    }
}

/// The `batch --journal` path: durable execution with checkpoint/resume,
/// watchdog timeouts, the retry ladder, and graceful shutdown. See the
/// module docs for the exit-code precedence.
fn run_durable_batch(
    net: &Network,
    tech: &Technology,
    options: &Options,
    scenarios: &[(String, Scenario)],
    sink: &Option<Arc<TraceSink>>,
) -> Result<String, CliError> {
    install_signal_handlers();
    let started = Instant::now();
    let journal = options.journal.clone().expect("caller checked --journal");
    let analyzer_options = options.analyzer_options(sink);
    let cache = analyzer_options.cache.clone();
    let durable = DurableOptions {
        journal,
        resume: options.resume,
        scenario_timeout: options.scenario_timeout,
        max_retries: options.max_retries,
        retry_backoff: options.retry_backoff,
        threads: options.threads,
        shutdown: Some(ShutdownFlag::new()),
    };
    let run = run_durable(
        net,
        tech,
        options.model,
        scenarios,
        analyzer_options.clone(),
        &durable,
    )
    .map_err(|e| CliError::new(ExitKind::Io, e.to_string()))?;

    // Scenario lines replay bit-identically on resume: the summary text
    // comes from the journal record either way.
    let mut out = String::new();
    for record in &run.records {
        let _ = writeln!(out, "{}: {}", record.label, record.summary);
    }
    let oks = run.count(Outcome::Ok);
    if run.all_ok() {
        let _ = write!(out, "{} scenarios, all ok", run.records.len());
    } else {
        let _ = write!(
            out,
            "{} scenarios, {oks} ok, {} error, {} timed out, {} poisoned, {} skipped",
            run.records.len(),
            run.count(Outcome::Error),
            run.count(Outcome::TimedOut),
            run.count(Outcome::Poisoned),
            run.count(Outcome::Skipped),
        );
    }
    if run.resumed > 0 {
        let _ = write!(out, " ({} resumed from journal)", run.resumed);
    }
    out.push('\n');

    let mut divergences = 0usize;
    if options.selfcheck_resume {
        let report =
            check_resume_equivalence(net, tech, options.model, scenarios, &analyzer_options, &run);
        divergences = report.divergences.len();
        out.push_str(&report.render());
    }
    options.emit_observability(&mut out, sink)?;

    // Exit precedence: an interrupted drain beats everything (the run is
    // incomplete), then quarantine, timeout, divergence, budget.
    let kind = if run.interrupted {
        Some(ExitKind::Interrupted)
    } else if run.count(Outcome::Poisoned) > 0 {
        Some(ExitKind::Poisoned)
    } else if run.count(Outcome::TimedOut) > 0 {
        Some(ExitKind::Timeout)
    } else if divergences > 0 {
        Some(ExitKind::Divergence)
    } else if run
        .records
        .iter()
        .any(|r| r.outcome == Outcome::Error && r.taxonomy == Some(FailureKind::Budget))
    {
        Some(ExitKind::Budget)
    } else if run.count(Outcome::Error) > 0 {
        Some(ExitKind::Generic)
    } else {
        None
    };
    if let Some(db) = options.run_db.clone() {
        let fp = crystal::fingerprint::run_fingerprint(net, tech, options.model, &analyzer_options);
        let mut record = RunRecord::new(runstore::new_meta(
            "batch",
            fp,
            &options.model.to_string(),
            options.threads,
        ));
        // Durable records carry digests and per-scenario wall clocks but
        // not retained arrivals — the journal is the arrival source.
        for scenario in &run.records {
            record.scenarios.push(runstore::ScenarioRow {
                label: scenario.label.clone(),
                outcome: match scenario.outcome {
                    Outcome::Ok => "ok",
                    Outcome::Error => "error",
                    Outcome::TimedOut => "timeout",
                    Outcome::Poisoned => "poisoned",
                    Outcome::Skipped => "skipped",
                    _ => "error",
                }
                .to_string(),
                digest: scenario.digest,
                summary: scenario.summary.clone(),
                wall_us: scenario.wall_ms.saturating_mul(1000),
                oversubscribed: oversubscribed(options.threads),
            });
        }
        record.cache = cache.as_ref().map(|c| c.stats());
        record_run(&db, record, sink, kind, started, &mut out)?;
    }
    match kind {
        None => Ok(out),
        Some(kind) => Err(CliError::new(kind, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const INVERTER_CHAIN: &str = "| two inverters\ni a\no y\n\
        n a m gnd 2 8\np a m vdd 2 16\nC m 20\n\
        n m y gnd 2 8\np m y vdd 2 16\nC y 100\n";

    fn fixture(name: &str, contents: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("crystal_cli_{name}_{}.sim", std::process::id()));
        fs::write(&path, contents).expect("temp file writes");
        path
    }

    fn cli(parts: &[&str]) -> Result<String, String> {
        let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        run(&args).map_err(|e| e.message)
    }

    /// Like [`cli`], but keeps the exit-code classification.
    fn cli_err(parts: &[&str]) -> CliError {
        let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        run(&args).expect_err("invocation must fail")
    }

    #[test]
    fn lint_reports_clean_circuit() {
        let path = fixture("lint", INVERTER_CHAIN);
        let out = cli(&["lint", path.to_str().expect("utf8 path")]).unwrap();
        assert!(out.contains("clean"));
        assert!(out.contains("4 transistors"), "{out}");
    }

    #[test]
    fn logic_prints_steady_state() {
        let path = fixture("logic", INVERTER_CHAIN);
        let out = cli(&["logic", path.to_str().unwrap(), "--set", "a=1"]).unwrap();
        // a=1 -> m=0 -> y=1.
        assert!(out.contains('m'));
        let line_of = |node: &str| {
            out.lines()
                .find(|l| l.starts_with(&format!("{node} ")))
                .unwrap_or_else(|| panic!("missing {node}"))
                .to_string()
        };
        assert!(line_of("m").ends_with('0'));
        assert!(line_of("y").ends_with('1'));
    }

    #[test]
    fn report_prints_critical_path() {
        let path = fixture("report", INVERTER_CHAIN);
        let out = cli(&[
            "report",
            path.to_str().unwrap(),
            "--input",
            "a",
            "--edge",
            "rise",
            "--output",
            "y",
            "--transition",
            "1.0",
        ])
        .unwrap();
        assert!(out.contains("critical path to `y`"));
        assert!(out.contains("slope model"));
    }

    #[test]
    fn report_honors_model_choice() {
        let path = fixture("model", INVERTER_CHAIN);
        let out = cli(&[
            "report",
            path.to_str().unwrap(),
            "--input",
            "a",
            "--edge",
            "fall",
            "--model",
            "lumped",
        ])
        .unwrap();
        assert!(out.contains("lumped model"));
    }

    #[test]
    fn sweep_finds_worst_output() {
        let path = fixture("sweep", INVERTER_CHAIN);
        let out = cli(&["sweep", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("worst output arrival: `y`"));
        // 1 input × 1 static vector × 2 edges.
        assert!(out.contains("2 scenarios"));
    }

    #[test]
    fn report_accepts_a_technology_file() {
        let tech_text = crystal::tech_format::write(&Technology::nominal());
        let tech_path =
            std::env::temp_dir().join(format!("crystal_cli_tech_{}.tech", std::process::id()));
        fs::write(&tech_path, tech_text).expect("tech file writes");
        let path = fixture("techfile", INVERTER_CHAIN);
        let out = cli(&[
            "report",
            path.to_str().unwrap(),
            "--input",
            "a",
            "--edge",
            "rise",
            "--tech",
            tech_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("arrivals"));
        // A corrupt file is a clean error.
        fs::write(&tech_path, "garbage record\n").expect("tech file writes");
        assert!(cli(&[
            "report",
            path.to_str().unwrap(),
            "--input",
            "a",
            "--edge",
            "rise",
            "--tech",
            tech_path.to_str().unwrap(),
        ])
        .is_err());
    }

    #[test]
    fn batch_analyzes_every_input_edge_pair() {
        let path = fixture("batch", INVERTER_CHAIN);
        let out = cli(&["batch", path.to_str().unwrap()]).unwrap();
        // One input × two edges.
        assert!(out.contains("a rise: ok"), "{out}");
        assert!(out.contains("a fall: ok"), "{out}");
        assert!(out.contains("2 scenarios, all ok"), "{out}");
    }

    #[test]
    fn batch_with_tight_budget_fails_soft_with_summary() {
        let path = fixture("batch_budget", INVERTER_CHAIN);
        let err = cli(&["batch", path.to_str().unwrap(), "--max-stages", "0"])
            .expect_err("a zero-stage budget fails every scenario");
        // Both scenarios were still attempted (fail-soft)…
        assert!(err.contains("a rise: FAILED"), "{err}");
        assert!(err.contains("a fall: FAILED"), "{err}");
        assert!(err.contains("budget exhausted"), "{err}");
        // …and the structured summary counts them.
        assert!(err.contains("2 of 2 attempted scenarios failed"), "{err}");
    }

    #[test]
    fn batch_fail_fast_stops_at_the_first_failure() {
        let path = fixture("batch_ff", INVERTER_CHAIN);
        let err = cli(&[
            "batch",
            path.to_str().unwrap(),
            "--max-stages",
            "0",
            "--fail-fast",
        ])
        .expect_err("failures propagate");
        assert!(err.contains("1 of 1 attempted scenarios failed"), "{err}");
        assert!(err.contains("aborted early"), "{err}");
        // The second scenario never ran.
        assert!(!err.contains("a fall"), "{err}");
    }

    #[test]
    fn report_honors_budget_flags() {
        let path = fixture("report_budget", INVERTER_CHAIN);
        let p = path.to_str().unwrap();
        let base = ["report", p, "--input", "a", "--edge", "rise"];
        // Unlimited: succeeds.
        assert!(cli(&base).is_ok());
        // A zero-stage cap: budget-exhausted error.
        let mut capped = base.to_vec();
        capped.extend(["--max-stages", "0"]);
        let err = cli(&capped).expect_err("budget fires");
        assert!(err.contains("budget exhausted"), "{err}");
        // Bad values are parse errors.
        assert!(cli(&["report", p, "--max-stages", "x"]).is_err());
        assert!(cli(&["report", p, "--deadline-ms", "-5"]).is_err());
    }

    #[test]
    fn report_cache_flag_controls_cache_stats_line() {
        let path = fixture("cacheline", INVERTER_CHAIN);
        let p = path.to_str().unwrap();
        let base = ["report", p, "--input", "a", "--edge", "rise"];
        // Default: cached analysis, stats surfaced in the report.
        let cached = cli(&base).unwrap();
        assert!(cached.contains("stage cache:"), "{cached}");
        // --no-cache: no stats line.
        let mut plain = base.to_vec();
        plain.push("--no-cache");
        let uncached = cli(&plain).unwrap();
        assert!(!uncached.contains("stage cache:"), "{uncached}");
        // The arrivals themselves are identical either way.
        let rows = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("stage cache:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(rows(&cached), rows(&uncached));
    }

    #[test]
    fn batch_threads_flag_matches_serial_output() {
        let path = fixture("batch_threads", INVERTER_CHAIN);
        let p = path.to_str().unwrap();
        let serial = cli(&["batch", p]).unwrap();
        for threads in ["0", "2", "4"] {
            let par = cli(&["batch", p, "--threads", threads]).unwrap();
            assert_eq!(par, serial, "--threads {threads}");
        }
        // Bad values are parse errors.
        assert!(cli(&["batch", p, "--threads", "lots"]).is_err());
        assert!(cli(&["batch", p, "--threads"]).is_err());
    }

    #[test]
    fn check_exact_legs_pass_on_clean_circuit() {
        let path = fixture("check_ok", INVERTER_CHAIN);
        // --sample 0 keeps this to the exact (cache/parallel) legs, which
        // must hold for any technology; the banded reference legs are
        // exercised against the calibrated technology in selfcheck tests.
        let out = cli(&["check", path.to_str().unwrap(), "--sample", "0"]).unwrap();
        assert!(out.contains("0 divergences"), "{out}");
        assert!(out.contains("comparisons"), "{out}");
    }

    #[test]
    fn check_flags_an_injected_fault_with_nonzero_exit() {
        let path = fixture("check_inject", INVERTER_CHAIN);
        let err = cli(&[
            "check",
            path.to_str().unwrap(),
            "--sample",
            "1",
            "--inject",
            "lumped=1000",
        ])
        .expect_err("a 1000x corruption must be flagged");
        assert!(err.contains("DIVERGENCE"), "{err}");
        assert!(err.contains("lumped"), "{err}");
        // Malformed injections are parse errors.
        let p = path.to_str().unwrap();
        assert!(cli(&["check", p, "--inject", "lumped"]).is_err());
        assert!(cli(&["check", p, "--inject", "lumped=-2"]).is_err());
        assert!(cli(&["check", p, "--inject", "bogus=2"]).is_err());
    }

    #[test]
    fn trace_file_covers_every_analysis_phase() {
        let path = fixture("trace", INVERTER_CHAIN);
        let trace_path =
            std::env::temp_dir().join(format!("crystal_cli_trace_{}.jsonl", std::process::id()));
        let out = cli(&[
            "report",
            path.to_str().unwrap(),
            "--input",
            "a",
            "--edge",
            "rise",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("arrivals"), "{out}");
        let trace = fs::read_to_string(&trace_path).expect("trace file written");
        for line in trace.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object line: {line}"
            );
        }
        for phase in ["logic", "extraction", "evaluation", "propagation", "cache"] {
            assert!(
                trace.contains(&format!("\"phase\":\"{phase}\"")),
                "phase `{phase}` missing from trace:\n{trace}"
            );
        }
        let _ = fs::remove_file(&trace_path);
    }

    #[test]
    fn metrics_flag_prints_phase_summary() {
        let path = fixture("metrics", INVERTER_CHAIN);
        let out = cli(&["batch", path.to_str().unwrap(), "--metrics"]).unwrap();
        assert!(out.contains("2 scenarios, all ok"), "{out}");
        assert!(out.contains("cpu (ms)"), "{out}");
        assert!(out.contains("wall (ms)"), "{out}");
        assert!(out.contains("batch"), "{out}");
        assert!(out.contains("scenarios_attempted=2"), "{out}");
        // Without the flag the summary stays out of the way.
        let plain = cli(&["batch", path.to_str().unwrap()]).unwrap();
        assert!(!plain.contains("cpu (ms)"), "{plain}");
    }

    #[test]
    fn spice_emits_deck() {
        let path = fixture("spice", INVERTER_CHAIN);
        let out = cli(&["spice", path.to_str().unwrap()]).unwrap();
        assert!(out.contains(".model NMOS"));
        assert!(out.contains(".end"));
    }

    fn temp_journal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "crystal_cli_journal_{name}_{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn durable_batch_matches_plain_batch_output() {
        let path = fixture("durable_plain", INVERTER_CHAIN);
        let journal = temp_journal("plain");
        let p = path.to_str().unwrap();
        let plain = cli(&["batch", p]).unwrap();
        let durable = cli(&["batch", p, "--journal", journal.to_str().unwrap()]).unwrap();
        assert_eq!(durable, plain, "journaling must not change the output");
        let _ = fs::remove_file(&journal);
    }

    #[test]
    fn durable_batch_resume_replays_bit_identically() {
        let path = fixture("durable_resume", INVERTER_CHAIN);
        let journal = temp_journal("resume");
        let p = path.to_str().unwrap();
        let j = journal.to_str().unwrap();
        let first = cli(&["batch", p, "--journal", j]).unwrap();
        let resumed = cli(&["batch", p, "--journal", j, "--resume"]).unwrap();
        // Scenario lines are identical; only the final summary carries
        // the resumed count.
        let scenario_lines = |s: &str| s.lines().map(String::from).collect::<Vec<_>>();
        let first_lines = scenario_lines(&first);
        let resumed_lines = scenario_lines(&resumed);
        assert_eq!(first_lines.len(), resumed_lines.len());
        assert_eq!(
            first_lines[..first_lines.len() - 1],
            resumed_lines[..resumed_lines.len() - 1]
        );
        assert!(resumed.contains("(2 resumed from journal)"), "{resumed}");
        let _ = fs::remove_file(&journal);
    }

    #[test]
    fn durable_batch_selfcheck_resume_passes_on_honest_journal() {
        let path = fixture("durable_selfcheck", INVERTER_CHAIN);
        let journal = temp_journal("selfcheck");
        let p = path.to_str().unwrap();
        let j = journal.to_str().unwrap();
        cli(&["batch", p, "--journal", j]).unwrap();
        let out = cli(&["batch", p, "--journal", j, "--resume", "--selfcheck-resume"]).unwrap();
        assert!(out.contains("0 divergences"), "{out}");
        let _ = fs::remove_file(&journal);
    }

    #[test]
    fn durable_batch_selfcheck_flags_a_tampered_journal() {
        let path = fixture("durable_tamper", INVERTER_CHAIN);
        let journal = temp_journal("tamper");
        let p = path.to_str().unwrap();
        let j = journal.to_str().unwrap();
        cli(&["batch", p, "--journal", j]).unwrap();
        // Corrupt one journaled digest; the resume self-check must fail
        // with the divergence exit code.
        let text = fs::read_to_string(&journal).unwrap();
        let marker = "\"digest\":\"";
        let at = text.find(marker).expect("journal carries a digest") + marker.len();
        let mut tampered = text.clone();
        let flipped = if &text[at..at + 1] == "0" { "f" } else { "0" };
        tampered.replace_range(at..at + 1, flipped);
        fs::write(&journal, tampered).unwrap();
        let err = cli_err(&["batch", p, "--journal", j, "--resume", "--selfcheck-resume"]);
        assert_eq!(err.kind, ExitKind::Divergence, "{}", err.message);
        assert!(err.message.contains("DIVERGENCE"), "{}", err.message);
        let _ = fs::remove_file(&journal);
    }

    #[test]
    fn durable_batch_zero_timeout_classifies_timeout_and_poison() {
        let path = fixture("durable_timeout", INVERTER_CHAIN);
        let p = path.to_str().unwrap();
        // No retries: a pre-cancelled scenario is a plain timeout.
        let journal = temp_journal("timeout");
        let err = cli_err(&[
            "batch",
            p,
            "--journal",
            journal.to_str().unwrap(),
            "--scenario-timeout",
            "0",
            "--max-retries",
            "0",
        ]);
        assert_eq!(err.kind, ExitKind::Timeout, "{}", err.message);
        assert!(err.message.contains("TIMED OUT"), "{}", err.message);
        let _ = fs::remove_file(&journal);
        // With retries: the ladder exhausts and quarantines.
        let journal = temp_journal("poison");
        let err = cli_err(&[
            "batch",
            p,
            "--journal",
            journal.to_str().unwrap(),
            "--scenario-timeout",
            "0",
            "--max-retries",
            "1",
            "--retry-backoff-ms",
            "1",
        ]);
        assert_eq!(err.kind, ExitKind::Poisoned, "{}", err.message);
        assert!(
            err.message.contains("POISONED after 2 attempts"),
            "{}",
            err.message
        );
        let _ = fs::remove_file(&journal);
    }

    fn edit_script(name: &str, contents: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("crystal_cli_{name}_{}.edits", std::process::id()));
        fs::write(&path, contents).expect("edit script writes");
        path
    }

    #[test]
    fn watch_applies_an_edit_script_and_reports_reuse() {
        let path = fixture("watch_edits", INVERTER_CHAIN);
        let script = edit_script(
            "watch_edits",
            "| widen the output pulldown, then trim the load\n\
             resize m y gnd 12 2\n\
             cap y 80\n",
        );
        let out = cli(&[
            "watch",
            path.to_str().unwrap(),
            "--edits",
            script.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("watching"), "{out}");
        // One input × two edges, reported before the edits run.
        assert!(out.contains("a rise: latest"), "{out}");
        assert!(out.contains("a fall: latest"), "{out}");
        assert!(out.contains("edit 1: 1 netlist change(s)"), "{out}");
        assert!(out.contains("edit 2: 1 netlist change(s)"), "{out}");
        assert!(out.contains("2 edit(s) applied"), "{out}");
        // The first stage (`m`) is untouched by both edits: its arrival
        // replays, so the reused-stage count is non-zero.
        assert!(!out.contains("0 stage(s) reused"), "{out}");
        let _ = fs::remove_file(&script);
    }

    #[test]
    fn watch_selfcheck_proves_the_session_against_full_analysis() {
        let path = fixture("watch_check", INVERTER_CHAIN);
        let script = edit_script(
            "watch_check",
            "resize a m gnd 4 2\n\
             add n a y gnd 8 2\n\
             remove a y gnd\n\
             cap m 35\n",
        );
        let out = cli(&[
            "watch",
            path.to_str().unwrap(),
            "--edits",
            script.to_str().unwrap(),
            "--selfcheck",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("0 divergences"), "{out}");
        let _ = fs::remove_file(&script);
    }

    #[test]
    fn watch_rejects_malformed_edit_scripts() {
        let path = fixture("watch_bad", INVERTER_CHAIN);
        let p = path.to_str().unwrap();
        for (body, needle) in [
            ("resize m y gnd 12\n", "expected"),
            ("resize m y gnd 0 2\n", "positive"),
            ("cap y -3\n", "non-negative"),
            ("add q a y gnd 8 2\n", "device kind"),
            ("frobnicate y\n", "expected"),
            ("", "no edits"),
        ] {
            let script = edit_script("watch_bad", body);
            let err = cli(&["watch", p, "--edits", script.to_str().unwrap()])
                .expect_err("malformed script must fail");
            assert!(err.contains(needle), "`{body}` -> {err}");
            let _ = fs::remove_file(&script);
        }
        // An edit naming an unknown site is an analysis-time error that
        // carries the edit number.
        let script = edit_script("watch_bad_site", "remove zz zz zz\n");
        let err = cli(&["watch", p, "--edits", script.to_str().unwrap()])
            .expect_err("unknown site must fail");
        assert!(err.contains("edit 1"), "{err}");
        let _ = fs::remove_file(&script);
    }

    #[test]
    fn watch_once_picks_up_a_file_change() {
        let path = fixture("watch_once", INVERTER_CHAIN);
        let p = path.to_str().unwrap().to_string();
        let writer = std::thread::spawn({
            let path = path.clone();
            move || {
                std::thread::sleep(std::time::Duration::from_millis(400));
                // Atomic replace, as editors do, so the watcher never
                // sees a half-written netlist.
                let tmp = path.with_extension("tmp");
                fs::write(&tmp, INVERTER_CHAIN.replace("C y 100", "C y 250")).expect("temp write");
                fs::rename(&tmp, &path).expect("rename over watched file");
            }
        });
        let out = cli(&["watch", &p, "--once"]).unwrap();
        writer.join().expect("writer thread");
        assert!(out.contains("watching"), "{out}");
        assert!(out.contains("change: 1 netlist change(s)"), "{out}");
        // The load-cap bump re-evaluates the output stage in both
        // scenarios and changes its arrival.
        assert!(out.contains("1 arrival(s) changed"), "{out}");
    }

    #[test]
    fn exit_kinds_classify_common_failures() {
        let path = fixture("exit_kinds", INVERTER_CHAIN);
        let p = path.to_str().unwrap();
        assert_eq!(
            cli_err(&["lint", "/nonexistent/file.sim"]).kind,
            ExitKind::Io
        );
        let bad = fixture("exit_kinds_bad", "n a\n");
        assert_eq!(
            cli_err(&["lint", bad.to_str().unwrap()]).kind,
            ExitKind::Parse
        );
        assert_eq!(
            cli_err(&["batch", p, "--max-stages", "0"]).kind,
            ExitKind::Budget
        );
        assert_eq!(
            cli_err(&[
                "report",
                p,
                "--input",
                "a",
                "--edge",
                "rise",
                "--max-stages",
                "0"
            ])
            .kind,
            ExitKind::Budget
        );
        assert_eq!(cli_err(&["frobnicate", p]).kind, ExitKind::Generic);
        let journal = std::env::temp_dir()
            .join("no_such_dir_crystal")
            .join("j.jsonl");
        assert_eq!(
            cli_err(&["batch", p, "--journal", journal.to_str().unwrap()]).kind,
            ExitKind::Io
        );
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["lint"]).is_err());
        assert!(cli(&["lint", "/nonexistent/file.sim"]).is_err());
        let path = fixture("err", INVERTER_CHAIN);
        let p = path.to_str().unwrap();
        assert!(cli(&["report", p]).is_err()); // missing --input
        assert!(cli(&["report", p, "--input", "zzz", "--edge", "rise"]).is_err());
        assert!(cli(&["report", p, "--input", "a", "--edge", "sideways"]).is_err());
        assert!(cli(&["report", p, "--input", "a", "--edge", "rise", "--model", "x"]).is_err());
        assert!(cli(&["frobnicate", p]).is_err());
        assert!(cli(&["lint", p, "--set", "a"]).is_err());
        assert!(cli(&["lint", p, "--transition", "-1"]).is_err());
    }

    /// Runs `batch` against a run database and returns the recorded id.
    fn batch_into(db: &str, netlist: &str, extra: &[&str]) -> String {
        let mut parts = vec!["batch", netlist, "--run-db", db];
        parts.extend_from_slice(extra);
        let out = cli(&parts).unwrap();
        out.lines()
            .find_map(|l| l.strip_prefix("run-db: recorded "))
            .unwrap_or_else(|| panic!("no run-db line in {out}"))
            .split_whitespace()
            .next()
            .expect("run id")
            .to_string()
    }

    fn temp_db(tag: &str) -> PathBuf {
        let db =
            std::env::temp_dir().join(format!("crystal_cli_rundb_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&db);
        db
    }

    #[test]
    fn diff_runs_identical_batches_are_clean() {
        let path = fixture("rundb_clean", INVERTER_CHAIN);
        let db = temp_db("clean");
        let db = db.to_str().unwrap();
        let a = batch_into(db, path.to_str().unwrap(), &[]);
        let b = batch_into(db, path.to_str().unwrap(), &[]);
        let out = cli(&[
            "diff-runs",
            &a,
            &b,
            "--run-db",
            db,
            "--fail-on-timing-regression",
            "0.5",
            "--fail-on-digest-mismatch",
        ])
        .unwrap();
        assert!(out.contains("0 mismatch(es)"), "{out}");
        assert!(out.contains("verdict: clean"), "{out}");
        let _ = fs::remove_dir_all(db);
    }

    #[test]
    fn diff_runs_injected_fault_exits_divergence() {
        let path = fixture("rundb_inject", INVERTER_CHAIN);
        let db = temp_db("inject");
        let db = db.to_str().unwrap();
        let p = path.to_str().unwrap();
        let a = batch_into(db, p, &["--model", "lumped"]);
        let b = batch_into(db, p, &["--model", "lumped", "--inject", "lumped=2"]);
        let err = cli_err(&[
            "diff-runs",
            &a,
            &b,
            "--run-db",
            db,
            "--fail-on-timing-regression",
            "0.5",
        ]);
        assert_eq!(err.kind, ExitKind::Divergence, "{}", err.message);
        assert!(err.message.contains("TIMING REGRESSION"), "{}", err.message);
        // A doubled lumped model doubles every non-zero arrival: the
        // per-node delta section must spell out the +100% moves.
        assert!(err.message.contains("+100.0000%"), "{}", err.message);
        assert!(err.message.contains("digest mismatch"), "{}", err.message);
        let _ = fs::remove_dir_all(db);
    }

    #[test]
    fn diff_runs_resolves_prefixes_and_rejects_ambiguity() {
        let path = fixture("rundb_resolve", INVERTER_CHAIN);
        let db = temp_db("resolve");
        let db_s = db.to_str().unwrap();
        let a = batch_into(db_s, path.to_str().unwrap(), &[]);
        let b = batch_into(db_s, path.to_str().unwrap(), &[]);
        // Unique prefix resolves; the shared "run-" prefix is ambiguous.
        let out = cli(&["diff-runs", &a[..12], &b, "--run-db", db_s]).unwrap();
        assert!(out.contains("verdict: clean"), "{out}");
        let err = cli_err(&["diff-runs", "run-", &b, "--run-db", db_s]);
        assert_eq!(err.kind, ExitKind::Generic, "{}", err.message);
        assert!(err.message.contains("ambiguous"), "{}", err.message);
        // A literal record path bypasses the store entirely.
        let literal = db.join(format!("{a}.run"));
        let out = cli(&["diff-runs", literal.to_str().unwrap(), &b, "--run-db", db_s]).unwrap();
        assert!(out.contains("verdict: clean"), "{out}");
        let _ = fs::remove_dir_all(&db);
    }

    #[test]
    fn diff_runs_json_report_is_written() {
        let path = fixture("rundb_json", INVERTER_CHAIN);
        let db = temp_db("json");
        let db_s = db.to_str().unwrap();
        let a = batch_into(db_s, path.to_str().unwrap(), &[]);
        let b = batch_into(db_s, path.to_str().unwrap(), &[]);
        let report = db.join("diff.json");
        let out = cli(&[
            "diff-runs",
            &a,
            &b,
            "--run-db",
            db_s,
            "--json",
            report.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("json report:"), "{out}");
        let text = fs::read_to_string(&report).expect("json report exists");
        assert!(text.contains("\"verdict\""), "{text}");
        assert!(text.contains(&a), "{text}");
        assert!(text.contains(&b), "{text}");
        let _ = fs::remove_dir_all(&db);
    }

    #[test]
    fn check_records_runs_with_counters() {
        let path = fixture("rundb_check", INVERTER_CHAIN);
        let db = temp_db("check");
        let db_s = db.to_str().unwrap();
        // The tiny fixture may legitimately diverge from the transient
        // reference; the run is recorded either way.
        let out = match cli(&["check", path.to_str().unwrap(), "--run-db", db_s]) {
            Ok(out) => out,
            Err(message) => message,
        };
        let id = out
            .lines()
            .find_map(|l| l.strip_prefix("run-db: recorded "))
            .unwrap_or_else(|| panic!("no run-db line in {out}"))
            .split_whitespace()
            .next()
            .unwrap();
        let record =
            crystal::runstore::read_run(&db.join(format!("{id}.run"))).expect("record reads");
        assert_eq!(record.meta.command, "check");
        assert!(record.complete(), "check record must carry an exit footer");
        assert!(
            record
                .counters
                .iter()
                .any(|c| c.phase == "check" && c.name == "checks_run" && c.value > 0),
            "{:?}",
            record.counters
        );
        let _ = fs::remove_dir_all(&db);
    }
}
