//! `crystal-cli` — command-line switch-level timing analysis.
//!
//! `USAGE` below is the synopsis and the flag reference. Flags are per
//! subcommand: `COMMANDS` lists the flags each one takes, and any other
//! flag is a usage error (exit 1) instead of being silently dropped. So
//! is a combination in which one flag would do nothing (`REQUIRES`,
//! `EXCLUDES`).
//!
//! `watch` keeps a persistent incremental session over every (input ×
//! edge) scenario. With `--edits SCRIPT` it applies a scripted edit
//! sequence (`resize`/`cap`/`add`/`remove` lines) and prints a delta
//! report per edit; `--selfcheck` additionally proves every edited state
//! bit-identical to a fresh full analysis (exit 4 on divergence).
//! Without `--edits` it polls the netlist file and incrementally
//! re-analyzes on every change (`--once` exits after the first).
//!
//! `batch` runs every scenario through one executor
//! (`crystal::durable::run_durable`). `--scenario-timeout` arms a
//! per-scenario watchdog, retryable failures (panics, timeouts) climb a
//! bounded retry ladder before being quarantined as poisoned records,
//! and `SIGINT`/`SIGTERM` drain gracefully. `--journal FILE` adds the
//! checkpoint: every scenario outcome is appended to the journal with an
//! fsync'd write, and `--resume` replays completed scenarios
//! bit-identically after a crash or kill.
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
//! digest > perf; see `crystal::runstore`). `batch --run-db DIR --inject
//! MODEL=FACTOR` corrupts the *recorded* arrivals of one model — a drill
//! proving the regression gate fires.
//!
//! `serve` hosts concurrent journal-backed incremental sessions over a
//! JSON-lines TCP protocol with admission control, per-request
//! deadlines, panic isolation, and crash-safe `--resume` recovery (see
//! the `crystal::server` module docs for the protocol). `client` replays
//! a request script against a daemon and exits with the analog of the
//! last response's status.
//!
//! ## Exit codes
//!
//! A failure carries a `crystal::server::Status`; the process exits with
//! its `exit_code()`, and a run record stores its wire `name()`.
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
use crystal::budget::AnalysisBudget;
use crystal::durable::{
    install_signal_handlers, run_durable, DurableOptions, FailureKind, JournalFaultPlan, Outcome,
    ShutdownFlag,
};
use crystal::editscript::parse_edit_script;
use crystal::fingerprint::{JsonLine, ReadFields, SplitMix64};
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
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A classified CLI failure: the message goes to stderr, the status picks
/// the exit code.
#[derive(Debug)]
struct CliError {
    status: Status,
    message: String,
}

impl CliError {
    fn new(status: Status, message: impl Into<String>) -> CliError {
        CliError {
            status,
            message: message.into(),
        }
    }
}

/// Unclassified errors (usage mistakes, bad flag values) exit 1.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::new(Status::Error, message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::new(Status::Error, message)
    }
}

/// A finished command: `out` is its stdout on success, else its error
/// message under `status`.
fn conclude(status: Status, out: String) -> Result<String, CliError> {
    match status {
        Status::Ok => Ok(out),
        status => Err(CliError::new(status, out)),
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
            ExitCode::from(e.status.exit_code() as u8)
        }
    }
}

const USAGE: &str = "usage: crystal-cli <lint|spice> <file.sim>
       crystal-cli <logic|report|sweep|batch|check|watch> <file.sim> [flags]
       crystal-cli <serve|client|chaos-proxy> [flags]
       crystal-cli diff-runs <A> <B> [flags]
flags are per subcommand; one the subcommand does not take exits 1.
analysis flags (report, sweep, batch, watch; serve takes all but --model,
--transition and --threads; check takes --transition --tech --threads --trace
--metrics; report does not take --threads):
  --model lumped|rctree|slope   delay model (default slope)
  --transition NS       input 10-90% transition time in ns (default 0)
  --tech FILE           calibrated technology file (default: built-in nominal)
  --max-stages N        analysis budget: max stage evaluations per scenario
  --max-paths N         analysis budget: max driving paths per node
  --deadline-ms MS      analysis budget: wall-clock deadline per scenario
  --threads N           scenario workers (1 = serial default, 0 = all hardware
                        threads) for sweep, batch, check and watch --selfcheck;
                        each analysis runs on one thread
  --no-cache            disable the shared stage-evaluation memo cache
  --trace FILE          write a JSON-lines trace of every analysis phase to FILE
  --metrics             print a per-phase timing/counter summary after the output
other flags (each names the subcommands that take it):
  --set NAME=0|1        logic/report/batch/check/watch: static input level
                        (repeatable)
  --input NAME          switching input (report); only this input (check, watch)
  --edge rise|fall      input edge direction (report); only this edge (check, watch)
  --output NAME         report: report only this output (default: all arrivals)
  --fail-fast           batch: stop at the first failing scenario
  --sample N            check: scenarios given the transient reference comparison (default 4)
  --inject MODEL=F      check: scale MODEL's predictions by F (fault injection;
                        a working harness must flag the corrupted model);
                        batch with --run-db: scale MODEL's recorded arrivals by F
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
                        (this flag and --resume need --journal)
  --edits SCRIPT        watch: apply the edit script through the incremental
                        session (lines: `resize GATE SRC DRN W_UM L_UM`,
                        `cap NODE FEMTOFARADS`, `add n|p|d GATE SRC DRN W L`,
                        `remove GATE SRC DRN`; `|` starts a comment)
  --selfcheck           watch: after the --edits, prove every edited state
                        bit-identical to a fresh full analysis across
                        serial and cold/warm-cache sessions and a
                        --threads scenario fan-out; any mismatch exits 4
  --once                watch: without --edits, exit after the first
                        processed file change
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
                        (requires --chaos-ops)
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
  --upstream HOST:PORT  chaos-proxy: the daemon to forward to (required)
  --drop P              chaos-proxy: probability a forwarded line is dropped
                        and its connection cut (default 0)
  --delay-ms D          chaos-proxy: fixed delay before each forwarded line
  --truncate P          chaos-proxy: probability a line is cut mid-byte and
                        the connection closed (default 0)
  --seed N              chaos-proxy/client: fault and jitter seed (default 1)
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

// Flag sets, each written once. A trailing `=` marks a flag that takes a
// value; the others are switches.
const MODEL_FLAGS: &str = "--model= --transition=";
/// The rest of the analysis group: everything `serve` and `report` take
/// of it. `--threads` only reaches commands that run many scenarios.
const ENGINE_FLAGS: &str = "--tech= --no-cache --max-stages= --max-paths= \
    --deadline-ms= --trace= --metrics";
const SCENARIO_FLAGS: &str = "--set= --input= --edge=";

/// The flags each subcommand takes, as a list of flag sets.
const COMMANDS: &[(&str, &[&str])] = &[
    ("lint", &[]),
    ("spice", &[]),
    ("logic", &["--set="]),
    (
        "report",
        &[MODEL_FLAGS, ENGINE_FLAGS, SCENARIO_FLAGS, "--output="],
    ),
    ("sweep", &[MODEL_FLAGS, ENGINE_FLAGS, "--threads="]),
    (
        "batch",
        &[
            MODEL_FLAGS,
            ENGINE_FLAGS,
            "--threads= --set= --fail-fast --run-db= --inject= --journal= --resume --scenario-timeout= \
             --max-retries= --retry-backoff-ms= --selfcheck-resume",
        ],
    ),
    (
        "check",
        &[
            "--tech= --transition= --threads= --trace= --metrics",
            SCENARIO_FLAGS,
            "--sample= --inject= --run-db=",
        ],
    ),
    (
        "watch",
        &[
            MODEL_FLAGS,
            ENGINE_FLAGS,
            SCENARIO_FLAGS,
            "--threads= --edits= --selfcheck --once",
        ],
    ),
    (
        "serve",
        &[
            "--addr= --max-sessions= --max-inflight= --journal-dir= --resume \
             --request-timeout= --session-ttl= --compact-after= --fault-writes-after= \
             --fault-syncs-after= --fault-count= --chaos-ops",
            ENGINE_FLAGS,
            "--run-db=",
        ],
    ),
    (
        "client",
        &["--addr= --script= --retries= --backoff-ms= --seed="],
    ),
    (
        "chaos-proxy",
        &["--listen= --upstream= --drop= --delay-ms= --truncate= --seed="],
    ),
    (
        "diff-runs",
        &[
            "--run-db= --json= --fail-on-timing-regression= --fail-on-perf-regression= \
           --fail-on-digest-mismatch",
        ],
    ),
];

/// `(command, flag, needed)`: on `command`, `flag` does nothing without
/// `needed`.
const REQUIRES: &[(&str, &str, &str)] = &[
    ("batch", "--resume", "--journal"),
    ("batch", "--selfcheck-resume", "--journal"),
    ("batch", "--inject", "--run-db"),
    ("watch", "--selfcheck", "--edits"),
    ("watch", "--threads", "--selfcheck"),
    ("serve", "--fault-writes-after", "--chaos-ops"),
    ("serve", "--fault-syncs-after", "--chaos-ops"),
    ("serve", "--fault-count", "--chaos-ops"),
];

/// `(command, flag, other)`: on `command`, `flag` does nothing together
/// with `other`.
const EXCLUDES: &[(&str, &str, &str)] = &[
    ("batch", "--inject", "--journal"),
    ("watch", "--once", "--edits"),
];

/// The daemon address `serve` and `client` default to.
const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// The flags of one invocation, in command-line order.
struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    /// Walks `args` left to right against `command`'s flag sets; a value
    /// flag takes the next argument, whatever it looks like. A flag the
    /// command does not take, or a combination `REQUIRES`/`EXCLUDES`
    /// forbids, is a usage error.
    fn parse(command: &str, args: &[String]) -> Result<Flags, String> {
        let (_, sets) = COMMANDS
            .iter()
            .find(|(name, _)| *name == command)
            .ok_or_else(|| format!("unknown command `{command}`\n{USAGE}"))?;
        let mut flags = Flags(Vec::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let spec = sets
                .iter()
                .flat_map(|set| set.split_whitespace())
                .find(|spec| spec.trim_end_matches('=') == arg)
                .ok_or_else(|| format!("`{command}` does not take `{arg}`"))?;
            let value = match spec.strip_suffix('=') {
                Some(name) => Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))?,
                ),
                None => None,
            };
            flags.0.push((spec.trim_end_matches('='), value));
        }
        for &(_, flag, needed) in REQUIRES.iter().filter(|rule| rule.0 == command) {
            if flags.has(flag) && !flags.has(needed) {
                return Err(format!("`{command}`: `{flag}` requires `{needed}`"));
            }
        }
        for &(_, flag, other) in EXCLUDES.iter().filter(|rule| rule.0 == command) {
            if flags.has(flag) && flags.has(other) {
                return Err(format!(
                    "`{command}`: `{flag}` cannot be combined with `{other}`"
                ));
            }
        }
        Ok(flags)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(flag, _)| *flag == name)
    }

    /// Every value given for `name`, in order.
    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.0
            .iter()
            .filter(move |(flag, _)| *flag == name)
            .filter_map(|(_, value)| value.as_deref())
    }

    /// The last value given for `name`: a repeated flag overrides.
    fn get<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).last()
    }

    /// Reads every value of `name` with `read`, so each is checked; the
    /// last one wins.
    fn read<T>(
        &self,
        name: &str,
        read: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.all(name)
            .try_fold(None, |_, value| read(value).map(Some))
    }

    fn parse_as<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.read(name, |value| parse_value(name, value))
    }

    /// A finite number `>= 0`; `what` ends the error text.
    fn non_negative(&self, name: &str, what: &str) -> Result<Option<f64>, String> {
        self.read(name, |value| {
            let x: f64 = parse_value(name, value)?;
            if x >= 0.0 && x.is_finite() {
                Ok(x)
            } else {
                Err(format!("{name} must be a non-negative {what}"))
            }
        })
    }

    /// Non-negative (possibly fractional) milliseconds.
    fn millis(&self, name: &str) -> Result<Option<Duration>, String> {
        Ok(self
            .non_negative(name, "number")?
            .map(|ms| Duration::from_secs_f64(ms / 1e3)))
    }

    fn percent(&self, name: &str) -> Result<Option<f64>, String> {
        self.non_negative(name, "percentage")
    }

    /// A probability in `[0, 1]`, 0 when absent.
    fn probability(&self, name: &str) -> Result<f64, String> {
        let p = self.read(name, |value| {
            let p: f64 = parse_value(name, value)?;
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(format!("{name} must be a probability in [0, 1]"))
            }
        })?;
        Ok(p.unwrap_or(0.0))
    }
}

fn parse_value<T: FromStr>(name: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("cannot parse {name}"))
}

/// `--inject MODEL=FACTOR`.
fn parse_inject(pair: &str) -> Result<(ModelKind, f64), String> {
    let (model, factor) = pair
        .split_once('=')
        .ok_or_else(|| format!("--inject expects MODEL=FACTOR, got `{pair}`"))?;
    let factor: f64 = factor
        .parse()
        .map_err(|_| format!("cannot parse --inject factor `{factor}`"))?;
    if !(factor > 0.0 && factor.is_finite()) {
        return Err("--inject factor must be a positive number".into());
    }
    Ok((model.parse()?, factor))
}

/// The `--set NAME=0|1` levels, resolved against the netlist; a later
/// level for the same node wins.
fn statics(flags: &Flags, net: &Network) -> Result<HashMap<NodeId, bool>, String> {
    let mut levels = HashMap::new();
    for pair in flags.all("--set") {
        let (name, level) = pair
            .split_once('=')
            .ok_or_else(|| format!("--set expects NAME=0|1, got `{pair}`"))?;
        let level = match level {
            "0" => false,
            "1" => true,
            other => return Err(format!("--set level must be 0 or 1, got `{other}`")),
        };
        levels.insert(resolve(net, name)?, level);
    }
    Ok(levels)
}

/// Every (input × edge) scenario under the `--set` levels, narrowed to
/// `--input` / `--edge` where the command takes them. Narrowing keeps an
/// audit to sensitized transitions: ratioed or floating scenarios
/// measure the test setup, not the model (see the selfcheck module docs).
fn scenarios(
    flags: &Flags,
    net: &Network,
    transition: Seconds,
) -> Result<Vec<(String, Scenario)>, String> {
    let mut scenarios = standard_scenarios(net, &statics(flags, net)?, transition);
    if let Some(name) = flags.get("--input") {
        let input = resolve(net, name)?;
        scenarios.retain(|(_, s)| s.input == input);
    }
    if let Some(edge) = flags.read("--edge", str::parse)? {
        scenarios.retain(|(_, s)| s.edge == edge);
    }
    Ok(scenarios)
}

/// The analysis group of flags and the trace sink they ask for. A
/// command that does not take one of these flags gets its default.
struct Analysis {
    model: ModelKind,
    transition: Seconds,
    tech: Option<String>,
    budget: AnalysisBudget,
    threads: usize,
    no_cache: bool,
    trace: Option<String>,
    metrics: bool,
    sink: Option<Arc<TraceSink>>,
}

impl Analysis {
    fn read(flags: &Flags) -> Result<Analysis, String> {
        let trace = flags.get("--trace").map(String::from);
        let metrics = flags.has("--metrics");
        Ok(Analysis {
            model: flags
                .read("--model", str::parse)?
                .unwrap_or(ModelKind::Slope),
            transition: flags
                .non_negative("--transition", "number of ns")?
                .map_or(Seconds::ZERO, Seconds::from_nanos),
            tech: flags.get("--tech").map(String::from),
            budget: AnalysisBudget {
                max_stage_evals: flags.parse_as("--max-stages")?,
                max_paths_per_node: flags.parse_as("--max-paths")?,
                deadline: flags.millis("--deadline-ms")?,
            },
            threads: flags.parse_as("--threads")?.unwrap_or(1),
            no_cache: flags.has("--no-cache"),
            // Run records always carry phase timings, so `--run-db` asks
            // for a sink as well.
            sink: (trace.is_some() || metrics || flags.has("--run-db"))
                .then(|| Arc::new(TraceSink::new())),
            trace,
            metrics,
        })
    }

    fn cache(&self) -> Option<Arc<StageCache>> {
        (!self.no_cache).then(|| Arc::new(StageCache::new()))
    }

    fn analyzer_options(&self) -> AnalyzerOptions {
        AnalyzerOptions {
            budget: self.budget,
            threads: self.threads,
            cache: self.cache(),
            trace: self.sink.clone(),
            ..AnalyzerOptions::default()
        }
    }

    fn technology(&self) -> Result<Technology, CliError> {
        match self.tech.as_deref() {
            None => Ok(Technology::nominal()),
            Some(path) => {
                let text = fs::read_to_string(path)
                    .map_err(|e| CliError::new(Status::Io, format!("cannot read `{path}`: {e}")))?;
                crystal::tech_format::parse(&text)
                    .map_err(|e| CliError::new(Status::ParseError, format!("{path}: {e}")))
            }
        }
    }

    /// The self-check harness settings. Its parallel leg needs real
    /// parallelism to be a check, so `--threads` 0 or 1 means all
    /// hardware threads.
    fn selfcheck_config(&self) -> SelfCheckConfig {
        SelfCheckConfig {
            threads: if self.threads <= 1 { 0 } else { self.threads },
            trace: self.sink.clone(),
            ..SelfCheckConfig::default()
        }
    }

    /// An empty run record of `command` under this configuration.
    fn run_record(&self, command: &str, net: &Network, tech: &Technology) -> RunRecord {
        let fp =
            crystal::fingerprint::run_fingerprint(net, tech, self.model, &self.analyzer_options());
        RunRecord::new(runstore::new_meta(
            command,
            fp,
            &self.model.to_string(),
            self.threads,
        ))
    }

    /// Writes the `--trace` file and appends the `--metrics` summary.
    /// Called on both the success and failure paths so a failing batch or
    /// a diverging check still leaves its trace behind.
    fn emit_observability(&self, out: &mut String) -> Result<(), CliError> {
        let Some(sink) = &self.sink else {
            return Ok(());
        };
        if let Some(path) = self.trace.as_deref() {
            fs::write(path, sink.to_json_lines()).map_err(|e| {
                CliError::new(Status::Io, format!("cannot write trace `{path}`: {e}"))
            })?;
        }
        if self.metrics {
            out.push_str(&sink.metrics().render());
        }
        Ok(())
    }
}

/// Whether the configured worker count exceeds the machine's hardware
/// threads. Such runs' wall clocks measure scheduler contention, so the
/// run-db marks them and `diff-runs` keeps them out of perf gates.
fn oversubscribed(threads: usize) -> bool {
    crystal::pool::resolve_threads(threads) > crystal::pool::available_parallelism()
}

fn load(path: &str) -> Result<Network, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::new(Status::Io, format!("cannot read `{path}`: {e}")))?;
    let name = path.rsplit('/').next().unwrap_or(path);
    sim_format::parse(&text, name)
        .map_err(|e| CliError::new(Status::ParseError, format!("{path}: {e}")))
}

/// Exit classification of an analysis error: budget exhaustion has its
/// own code, everything else is generic.
fn timing_status(e: &TimingError) -> Status {
    match e {
        TimingError::BudgetExhausted { .. } => Status::Budget,
        _ => Status::Error,
    }
}

fn timing_error(e: TimingError) -> CliError {
    CliError::new(timing_status(&e), e.to_string())
}

fn resolve(net: &Network, name: &str) -> Result<NodeId, String> {
    net.node_by_name(name)
        .ok_or_else(|| format!("no node named `{name}` in the netlist"))
}

/// Runs a full CLI invocation; returns the stdout text.
fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    // The daemon commands take no netlist file — sessions upload theirs
    // — and `diff-runs` compares stored records, not netlists.
    match command.as_str() {
        "serve" => return run_serve(&Flags::parse(command, rest)?),
        "client" => return run_client(&Flags::parse(command, rest)?),
        "chaos-proxy" => return run_chaos_proxy(&Flags::parse(command, rest)?),
        "diff-runs" => return run_diff_runs(rest),
        _ => {}
    }
    let (path, rest) = rest
        .split_first()
        .ok_or_else(|| format!("`{command}` needs a netlist file\n{USAGE}"))?;
    let flags = Flags::parse(command, rest)?;
    let net = load(path)?;

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
            let levels = statics(&flags, &net)?;
            crystal::logic::require_inputs(&net, &levels).map_err(|e| e.to_string())?;
            let state = crystal::logic::solve(&net, &levels);
            let mut out = String::new();
            for (id, node) in net.nodes() {
                let _ = writeln!(out, "{:<16} {}", node.name(), state.value(id));
            }
            Ok(out)
        }
        "report" => {
            let analysis = Analysis::read(&flags)?;
            let input_name = flags.get("--input").ok_or("`report` needs --input NAME")?;
            let edge = flags
                .read("--edge", str::parse)?
                .ok_or("`report` needs --edge rise|fall")?;
            let scenario = Scenario {
                statics: statics(&flags, &net)?,
                ..Scenario::step(resolve(&net, input_name)?, edge)
                    .with_input_transition(analysis.transition)
            };
            let tech = analysis.technology()?;
            let result = analyze_with_options(
                &net,
                &tech,
                analysis.model,
                &scenario,
                analysis.analyzer_options(),
            )
            .map_err(timing_error)?;
            let mut out = match flags.get("--output") {
                Some(name) => critical_path_report(&net, &result, resolve(&net, name)?),
                None => full_report(&net, &result),
            };
            analysis.emit_observability(&mut out)?;
            Ok(out)
        }
        "sweep" => {
            let analysis = Analysis::read(&flags)?;
            let tech = analysis.technology()?;
            // One shared cache across the whole sweep, whose scenarios
            // fan across the --threads workers: repeated stages amortize
            // beautifully here.
            let analyzer_options = analysis.analyzer_options();
            let sweep = if net.inputs().len() <= MAX_EXHAUSTIVE_INPUTS {
                sweep_exhaustive_with_options(
                    &net,
                    &tech,
                    analysis.model,
                    analysis.transition,
                    &analyzer_options,
                )
            } else {
                sweep_inputs_with_options(
                    &net,
                    &tech,
                    analysis.model,
                    analysis.transition,
                    &HashMap::new(),
                    &analyzer_options,
                )
            }
            .map_err(timing_error)?;
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
            analysis.emit_observability(&mut out)?;
            Ok(out)
        }
        "batch" => {
            let analysis = Analysis::read(&flags)?;
            let tech = analysis.technology()?;
            // Every (input × edge) scenario; unlisted inputs sit at their
            // --set level (default 0).
            let scenarios = scenarios(&flags, &net, analysis.transition)?;
            if scenarios.is_empty() {
                return Err("netlist has no primary inputs to batch over".into());
            }
            batch_command(&net, &tech, &analysis, &flags, &scenarios)
        }
        "check" => {
            let analysis = Analysis::read(&flags)?;
            let tech = analysis.technology()?;
            let scenarios = scenarios(&flags, &net, analysis.transition)?;
            if scenarios.is_empty() {
                return Err("no scenarios to check (no inputs, or filters exclude all)".into());
            }
            let defaults = analysis.selfcheck_config();
            let config = SelfCheckConfig {
                reference_sample: flags
                    .parse_as("--sample")?
                    .unwrap_or(defaults.reference_sample),
                inject_scale: flags.read("--inject", parse_inject)?,
                ..defaults
            };
            let started = Instant::now();
            let report = check_network(&net, &tech, &scenarios, &config);
            let mut out = report.render();
            let status = if report.ok() {
                Status::Ok
            } else {
                Status::Divergence
            };
            if let Some(db) = flags.get("--run-db") {
                let mut record = analysis.run_record("check", &net, &tech);
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
                record_run(db, record, &analysis, status, started, &mut out)?;
            }
            analysis.emit_observability(&mut out)?;
            conclude(status, out)
        }
        "spice" => Ok(spice_format::write(&net)),
        "watch" => {
            let watch = Watch {
                analysis: Analysis::read(&flags)?,
                edits: flags.get("--edits").map(String::from),
                selfcheck: flags.has("--selfcheck"),
                once: flags.has("--once"),
            };
            let analysis = &watch.analysis;
            let tech = analysis.technology()?;
            let scenarios = scenarios(&flags, &net, analysis.transition)?;
            if scenarios.is_empty() {
                return Err("no scenarios to watch (no inputs, or filters exclude all)".into());
            }
            let session = IncrementalAnalyzer::new(
                net.clone(),
                tech.clone(),
                analysis.model,
                scenarios.clone(),
                analysis.analyzer_options(),
            )
            .map_err(timing_error)?;
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
            match watch.edits.as_deref() {
                Some(script) => {
                    run_scripted_edits(session, &net, &tech, &scenarios, &watch, script, out)
                }
                None => run_watch_loop(session, path, &watch, out),
            }
        }
        other => unreachable!("`{other}` has a flag table but no handler"),
    }
}

/// The parsed `watch` flags.
struct Watch {
    analysis: Analysis,
    edits: Option<String>,
    selfcheck: bool,
    once: bool,
}

/// The `watch --edits` path: apply a scripted edit sequence through the
/// incremental session, reporting the invalidation accounting per edit,
/// and optionally (`--selfcheck`) prove every edited state bit-identical
/// to fresh full analysis.
fn run_scripted_edits(
    mut session: IncrementalAnalyzer,
    net: &Network,
    tech: &Technology,
    scenarios: &[(String, Scenario)],
    watch: &Watch,
    script: &str,
    mut out: String,
) -> Result<String, CliError> {
    let text = fs::read_to_string(script)
        .map_err(|e| CliError::new(Status::Io, format!("cannot read `{script}`: {e}")))?;
    let edits = parse_edit_script(&text)?;
    if edits.is_empty() {
        return Err(format!("edit script `{script}` contains no edits").into());
    }
    let (mut reevaluated, mut reused) = (0usize, 0usize);
    for (i, edit) in edits.iter().enumerate() {
        let delta = session
            .apply_edit(edit)
            .map_err(|e| CliError::new(timing_status(&e), format!("edit {}: {e}", i + 1)))?;
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
    let analysis = &watch.analysis;
    let mut status = Status::Ok;
    if watch.selfcheck {
        let config = analysis.selfcheck_config();
        let report = check_incremental(net, tech, analysis.model, scenarios, &edits, &config);
        out.push_str(&report.render());
        if !report.ok() {
            status = Status::Divergence;
        }
    }
    analysis.emit_observability(&mut out)?;
    conclude(status, out)
}

/// The plain `watch` path: poll the netlist file and push every change
/// through the incremental session. `--once` returns after the first
/// successfully processed change; otherwise the loop streams its reports
/// to stdout and only ends with the process.
fn run_watch_loop(
    mut session: IncrementalAnalyzer,
    path: &str,
    watch: &Watch,
    mut out: String,
) -> Result<String, CliError> {
    let poll = Duration::from_millis(100);
    let stamp = |path: &str| {
        fs::metadata(path)
            .and_then(|m| m.modified())
            .map_err(|e| CliError::new(Status::Io, format!("cannot stat `{path}`: {e}")))
    };
    let mut last = stamp(path)?;
    if !watch.once {
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
                if watch.once {
                    out.push_str(&chunk);
                    watch.analysis.emit_observability(&mut out)?;
                    return Ok(out);
                }
            }
        }
        if watch.once {
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
fn run_serve(flags: &Flags) -> Result<String, CliError> {
    let analysis = Analysis::read(flags)?;
    let mut journal_faults = JournalFaultPlan::none();
    if let Some(n) = flags.parse_as("--fault-writes-after")? {
        journal_faults = journal_faults.fail_writes_after(n);
    }
    if let Some(n) = flags.parse_as("--fault-syncs-after")? {
        journal_faults = journal_faults.fail_syncs_after(n);
    }
    if let Some(m) = flags.parse_as("--fault-count")? {
        journal_faults = journal_faults.fail_count(m);
    }
    let run_db = flags.get("--run-db");
    let defaults = ServerOptions::default();
    let server_options = ServerOptions {
        addr: flags.get("--addr").unwrap_or(DEFAULT_ADDR).to_string(),
        max_sessions: flags
            .parse_as("--max-sessions")?
            .unwrap_or(defaults.max_sessions),
        max_inflight: flags
            .parse_as("--max-inflight")?
            .unwrap_or(defaults.max_inflight),
        journal_dir: flags.get("--journal-dir").map(PathBuf::from),
        resume: flags.has("--resume"),
        request_timeout: flags
            .parse_as("--request-timeout")?
            .map(Duration::from_millis),
        budget: analysis.budget,
        tech: analysis.technology()?,
        cache: analysis.cache(),
        trace: analysis.sink.clone(),
        chaos_ops: flags.has("--chaos-ops"),
        run_db: run_db.map(PathBuf::from),
        session_ttl: flags.parse_as("--session-ttl")?.map(Duration::from_millis),
        compact_after: flags.read("--compact-after", |value| {
            match parse_value::<u64>("--compact-after", value)? {
                0 => Err("--compact-after must be at least 1".to_string()),
                k => Ok(k),
            }
        })?,
        journal_faults,
        ..defaults
    };
    install_signal_handlers();
    let started = Instant::now();
    let handle = serve(server_options)
        .map_err(|e| CliError::new(Status::Io, format!("cannot start server: {e}")))?;

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
    if let Some(db) = run_db {
        let mut record = RunRecord::new(runstore::new_meta("serve", 0, "-", 1));
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
        record_run(db, record, &analysis, Status::Ok, started, &mut out)?;
    }
    analysis.emit_observability(&mut out)?;
    Ok(out)
}

/// The `client` command: replay a request script against a daemon,
/// streaming raw response lines to stdout. The process exit code is the
/// exit analog of the **last** response's protocol status, so shell
/// scripts compose with the daemon exactly like with `batch`.
fn run_client(flags: &Flags) -> Result<String, CliError> {
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
            Status::Io,
            format!("{out}{what} (retryable: true; use --retries N to auto-retry)"),
        )
    }

    let addr = flags.get("--addr").unwrap_or(DEFAULT_ADDR);
    let retries: u32 = flags.parse_as("--retries")?.unwrap_or(0);
    let backoff_ms: u64 = flags.parse_as("--backoff-ms")?.unwrap_or(100);
    let seed: u64 = flags.parse_as("--seed")?.unwrap_or(1);
    let script = match flags.get("--script") {
        Some(path) => fs::read_to_string(path)
            .map_err(|e| CliError::new(Status::Io, format!("cannot read `{path}`: {e}")))?,
        None => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| CliError::new(Status::Io, format!("cannot read stdin: {e}")))?;
            text
        }
    };
    let mut rng = SplitMix64::new(seed ^ u64::from(std::process::id()));
    let backoff = |attempt: u32, rng: &mut SplitMix64| {
        let base = backoff_ms.saturating_mul(1u64 << attempt.min(6)).min(5_000);
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
        let request = if retries > 0 && op == "edit" {
            request.str("req_id", &format!("q{}-{}", std::process::id(), index + 1))
        } else {
            request
        };

        let mut attempt: u32 = 0;
        let (response, status) = loop {
            if conn.is_none() {
                match connect(addr) {
                    Ok(c) => conn = Some(c),
                    Err(e) => {
                        if attempt < retries {
                            attempt += 1;
                            backoff(attempt, &mut rng);
                            continue;
                        }
                        return Err(transport_error(
                            &out,
                            &format!("cannot connect to `{addr}`: {e}"),
                        ));
                    }
                }
            }
            let live = conn.as_mut().expect("connection just established");
            // Retransmissions are marked so the daemon's `retries`
            // counter sees them.
            // The frame and its newline go out in one write.
            let frame = if attempt > 0 {
                request.clone().str("retry", &attempt.to_string())
            } else {
                request.clone()
            };
            let wire = frame.finish() + "\n";
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
            let parsed = response
                .strip_suffix('\n')
                .and_then(crystal::fingerprint::parse_json_object);
            match (received, parsed) {
                (Ok(n), Some(fields)) if n > 0 => {
                    let response = response.trim_end().to_string();
                    let status = fields
                        .str("status")
                        .and_then(Status::from_name)
                        .unwrap_or(Status::Error);
                    if status.is_retryable() && attempt < retries {
                        attempt += 1;
                        backoff(attempt, &mut rng);
                        continue;
                    }
                    break (response, status);
                }
                // Reset, refused, timed out, a clean close mid-script,
                // or a torn frame: reconnect and re-send when the op
                // permits it.
                (received, _) => {
                    conn = None;
                    let what = match received {
                        Ok(0) => "server closed the connection".to_string(),
                        Ok(_) => "server sent a torn response frame".to_string(),
                        Err(e) => format!("transport failure: {e}"),
                    };
                    if resend_safe && attempt < retries {
                        attempt += 1;
                        backoff(attempt, &mut rng);
                        continue;
                    }
                    return Err(transport_error(&out, &what));
                }
            }
        };
        let _ = writeln!(out, "{response}");
        last_status = status;
    }
    conclude(last_status, out)
}

/// The `chaos-proxy` command: a line-oriented TCP proxy that injects
/// network faults between a client and the daemon — per-line drop
/// (connection cut), fixed delay, and mid-line truncation — all from a
/// seeded deterministic schedule so a failing soak reproduces exactly.
fn run_chaos_proxy(flags: &Flags) -> Result<String, CliError> {
    use std::io::{BufRead as _, BufReader};
    use std::sync::atomic::{AtomicU64, Ordering};

    let Some(upstream) = flags.get("--upstream").map(String::from) else {
        return Err("chaos-proxy requires --upstream HOST:PORT".into());
    };
    let listen = flags.get("--listen").unwrap_or("127.0.0.1:0");
    let drop_p = flags.probability("--drop")?;
    let truncate_p = flags.probability("--truncate")?;
    let delay = Duration::from_millis(flags.parse_as("--delay-ms")?.unwrap_or(0));
    let seed: u64 = flags.parse_as("--seed")?.unwrap_or(1);
    install_signal_handlers();
    let shutdown = ShutdownFlag::new();
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| CliError::new(Status::Io, format!("cannot listen on `{listen}`: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::new(Status::Io, format!("cannot configure listener: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::new(Status::Io, format!("cannot resolve listen address: {e}")))?;
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

/// Translates one client-script line into a wire request, left open so
/// the caller can add `req_id`/`retry`. The grammar mirrors the ops
/// table in the `crystal::server` docs; trailing `key=value` words pass
/// through as extra request fields (`model=`, `deadline_ms=`,
/// `set=a=1`, ...).
fn client_request(line: &str) -> Result<JsonLine, String> {
    let op = |name: &str| JsonLine::new().str("op", name);
    let with_extras = |mut request: JsonLine, words: &[&str]| -> Result<JsonLine, String> {
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{word}`"))?;
            request = request.str(key, value);
        }
        Ok(request)
    };
    let words: Vec<&str> = line.split_whitespace().collect();
    Ok(match words.as_slice() {
        [name @ ("ping" | "stats" | "health" | "history" | "crash")] => op(name),
        ["diff", a, b, extras @ ..] => with_extras(op("diff").str("a", a).str("b", b), extras)?,
        ["open", session, file, extras @ ..] => {
            let netlist = fs::read_to_string(file)
                .map_err(|e| format!("cannot read netlist `{file}`: {e}"))?;
            let name = file.rsplit('/').next().unwrap_or(file);
            let request = op("open")
                .str("session", session)
                .str("name", name)
                .str("netlist", &netlist);
            with_extras(request, extras)?
        }
        ["edit", session, edit_line @ ..] if !edit_line.is_empty() => op("edit")
            .str("session", session)
            .str("script", &edit_line.join(" ")),
        [name @ ("report" | "batch" | "check" | "compact" | "close"), session, extras @ ..] => {
            with_extras(op(name).str("session", session), extras)?
        }
        ["sleep", ms, extras @ ..] => with_extras(op("sleep").str("ms", ms), extras)?,
        ["crash", session] => op("crash").str("session", session),
        _ => return Err(format!("cannot parse client command `{line}`")),
    })
}

/// Classifies a run-store failure: damaged records parse-error, missing
/// or ambiguous specs are usage errors, the rest is I/O.
fn runstore_error(e: RunStoreError) -> CliError {
    let status = match e {
        RunStoreError::Io { .. } => Status::Io,
        RunStoreError::Corrupt { .. } => Status::ParseError,
        _ => Status::Error,
    };
    CliError::new(status, e.to_string())
}

/// Finalizes and persists one run record: stamps the phase/counter
/// metrics from the shared sink, the exit footer, and the wall clock,
/// then appends the record to the `--run-db` database and echoes its ID.
fn record_run(
    db: &str,
    mut record: RunRecord,
    analysis: &Analysis,
    status: Status,
    started: Instant,
    out: &mut String,
) -> Result<(), CliError> {
    if let Some(sink) = &analysis.sink {
        sink.count(crystal::obs::Phase::RunStore, "runs_recorded", 1);
        record.set_metrics(&sink.metrics());
    }
    record.exit = Some(runstore::ExitRow {
        status: status.name().to_string(),
        code: status.exit_code() as u8,
        wall_us: started.elapsed().as_micros() as u64,
    });
    let store = RunStore::open(Path::new(db)).map_err(runstore_error)?;
    let path = store.record(&record).map_err(runstore_error)?;
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
    let flags = Flags::parse("diff-runs", &rest)?;
    let thresholds = DiffThresholds {
        timing_pct: flags.percent("--fail-on-timing-regression")?,
        perf_pct: flags.percent("--fail-on-perf-regression")?,
        digest: flags.has("--fail-on-digest-mismatch"),
    };
    let store =
        RunStore::open(Path::new(flags.get("--run-db").unwrap_or("."))).map_err(runstore_error)?;
    let read = |spec: &str| -> Result<RunRecord, CliError> {
        let path = store.resolve(spec).map_err(runstore_error)?;
        runstore::read_run(&path).map_err(runstore_error)
    };
    let a = read(&a_spec)?;
    let b = read(&b_spec)?;
    let d = runstore::diff(&a, &b);
    let mut out = d.render();
    if let Some(path) = flags.get("--json") {
        fs::write(path, d.to_json(&thresholds))
            .map_err(|e| CliError::new(Status::Io, format!("cannot write report `{path}`: {e}")))?;
        let _ = writeln!(out, "json report: {path}");
    }
    let status = match d.verdict(&thresholds) {
        DiffVerdict::Clean => {
            let _ = writeln!(out, "verdict: clean");
            Status::Ok
        }
        DiffVerdict::TimingRegression => {
            let _ = writeln!(
                out,
                "verdict: TIMING REGRESSION ({:.4}% worst arrival change exceeds {}%)",
                d.max_timing_pct,
                thresholds.timing_pct.unwrap_or(0.0)
            );
            Status::Divergence
        }
        DiffVerdict::DigestMismatch => {
            let _ = writeln!(
                out,
                "verdict: DIGEST MISMATCH ({} scenario(s))",
                d.digest_mismatches.len() + d.only_in_a.len() + d.only_in_b.len()
            );
            Status::Divergence
        }
        DiffVerdict::PerfRegression => {
            let _ = writeln!(
                out,
                "verdict: PERF REGRESSION ({:+.1}% worst comparable wall-clock change exceeds {}%)",
                d.max_perf_pct,
                thresholds.perf_pct.unwrap_or(0.0)
            );
            Status::Error
        }
    };
    conclude(status, out)
}

/// The `batch` command: every scenario through the one executor, with
/// the journal, resume, watchdog, retry ladder, fail-fast stop and
/// graceful drain as the flags ask. See the module docs for the exit
/// codes.
fn batch_command(
    net: &Network,
    tech: &Technology,
    analysis: &Analysis,
    flags: &Flags,
    scenarios: &[(String, Scenario)],
) -> Result<String, CliError> {
    let defaults = DurableOptions::default();
    let durable = DurableOptions {
        journal: flags.get("--journal").map(PathBuf::from),
        resume: flags.has("--resume"),
        fail_fast: flags.has("--fail-fast"),
        scenario_timeout: flags.millis("--scenario-timeout")?,
        max_retries: flags
            .parse_as("--max-retries")?
            .unwrap_or(defaults.max_retries),
        retry_backoff: flags
            .millis("--retry-backoff-ms")?
            .unwrap_or(defaults.retry_backoff),
        threads: analysis.threads,
        shutdown: Some(ShutdownFlag::new()),
    };
    install_signal_handlers();
    let started = Instant::now();
    let analyzer_options = analysis.analyzer_options();
    let cache = analyzer_options.cache.clone();
    let run = run_durable(
        net,
        tech,
        analysis.model,
        scenarios,
        analyzer_options.clone(),
        &durable,
    )
    .map_err(|e| CliError::new(Status::Io, e.to_string()))?;

    // Scenario lines replay bit-identically on resume: the summary text
    // comes from the journal record either way. A fail-fast stop lists
    // only what ran; a drain also lists what it skipped.
    let mut out = String::new();
    for record in &run.records {
        if run.interrupted || record.outcome != Outcome::Skipped {
            let _ = writeln!(out, "{}: {}", record.label, record.summary);
        }
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
    if flags.has("--selfcheck-resume") {
        let report = check_resume_equivalence(
            net,
            tech,
            analysis.model,
            scenarios,
            &analyzer_options,
            &run,
        );
        divergences = report.divergences.len();
        out.push_str(&report.render());
    }

    // Exit precedence: an interrupted drain beats everything (the run is
    // incomplete), then quarantine, timeout, divergence, budget.
    let status = if run.interrupted {
        Status::Interrupted
    } else if run.count(Outcome::Poisoned) > 0 {
        Status::Poisoned
    } else if run.count(Outcome::TimedOut) > 0 {
        Status::Timeout
    } else if divergences > 0 {
        Status::Divergence
    } else if run
        .records
        .iter()
        .any(|r| r.outcome == Outcome::Error && r.taxonomy == Some(FailureKind::Budget))
    {
        Status::Budget
    } else if run.count(Outcome::Error) > 0 {
        Status::Error
    } else {
        Status::Ok
    };
    if let Some(db) = flags.get("--run-db") {
        let inject = flags.read("--inject", parse_inject)?;
        let mut record = analysis.run_record("batch", net, tech);
        // Fresh successes record their arrival rows (and the digest of
        // exactly what was recorded); replayed ones keep the journal's
        // digest.
        for scenario in &run.records {
            let mut digest = scenario.digest;
            if let Some(result) = &scenario.result {
                let rows = runstore::arrival_rows(net, &scenario.label, result, inject);
                digest = Some(runstore::arrival_digest(&rows));
                record.arrivals.extend(rows);
            }
            record.scenarios.push(runstore::ScenarioRow {
                label: scenario.label.clone(),
                outcome: match scenario.outcome {
                    Outcome::Ok => "ok",
                    Outcome::TimedOut => "timeout",
                    Outcome::Poisoned => "poisoned",
                    Outcome::Skipped => "skipped",
                    _ => "error",
                }
                .to_string(),
                digest,
                summary: scenario.summary.clone(),
                wall_us: scenario.wall_ms.saturating_mul(1000),
                oversubscribed: oversubscribed(analysis.threads),
            });
        }
        record.cache = cache.as_ref().map(|c| c.stats());
        record_run(db, record, analysis, status, started, &mut out)?;
    }
    // The trace file still gets written on failure — failing runs are
    // the ones worth inspecting.
    analysis.emit_observability(&mut out)?;
    conclude(status, out)
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
    fn client_requests_escape_extra_keys_and_values() {
        let request = client_request(r#"report s1 k"ey=v\al deadline_ms=5"#)
            .expect("parses")
            .finish();
        assert_eq!(
            request,
            r#"{"op":"report","session":"s1","k\"ey":"v\\al","deadline_ms":"5"}"#
        );
        let fields = crystal::fingerprint::parse_json_object(&request).expect("flat JSON");
        assert_eq!(fields.get("k\"ey").map(String::as_str), Some("v\\al"));
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
        // …and the tally line counts them.
        assert!(
            err.contains("2 scenarios, 0 ok, 2 error, 0 timed out, 0 poisoned, 0 skipped"),
            "{err}"
        );
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
        assert!(
            err.contains("2 scenarios, 0 ok, 1 error, 0 timed out, 0 poisoned, 1 skipped"),
            "{err}"
        );
        // The second scenario never ran.
        assert!(!err.contains("a fall"), "{err}");
    }

    #[test]
    fn fail_fast_journals_what_ran_and_resume_runs_the_rest() {
        let path = fixture("batch_ff_journal", INVERTER_CHAIN);
        let journal = temp_journal("fail_fast");
        let (p, j) = (path.to_str().unwrap(), journal.to_str().unwrap());
        let base = ["batch", p, "--journal", j, "--max-stages", "0"];
        let err = cli_err(&[&base[..], &["--fail-fast"]].concat());
        assert_eq!(err.status, Status::Budget, "{}", err.message);
        let records = || {
            let text = fs::read_to_string(&journal).expect("journal exists");
            text.matches("\"kind\":\"scenario\"").count()
        };
        assert_eq!(records(), 1, "the skipped scenario is not journaled");
        // The resume replays the failure and runs the skipped scenario.
        let err = cli_err(&[&base[..], &["--resume"]].concat());
        assert_eq!(err.status, Status::Budget, "{}", err.message);
        assert!(err.message.contains("a fall: FAILED"), "{}", err.message);
        assert!(
            err.message.contains("(1 resumed from journal)"),
            "{}",
            err.message
        );
        assert_eq!(records(), 2);
        let _ = fs::remove_file(&journal);
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
        assert_eq!(err.status, Status::Divergence, "{}", err.message);
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
        assert_eq!(err.status, Status::Timeout, "{}", err.message);
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
        assert_eq!(err.status, Status::Poisoned, "{}", err.message);
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
            cli_err(&["lint", "/nonexistent/file.sim"]).status,
            Status::Io
        );
        let bad = fixture("exit_kinds_bad", "n a\n");
        assert_eq!(
            cli_err(&["lint", bad.to_str().unwrap()]).status,
            Status::ParseError
        );
        assert_eq!(
            cli_err(&["batch", p, "--max-stages", "0"]).status,
            Status::Budget
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
            .status,
            Status::Budget
        );
        assert_eq!(cli_err(&["frobnicate", p]).status, Status::Error);
        let journal = std::env::temp_dir()
            .join("no_such_dir_crystal")
            .join("j.jsonl");
        assert_eq!(
            cli_err(&["batch", p, "--journal", journal.to_str().unwrap()]).status,
            Status::Io
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
    fn journaled_batch_records_carry_arrival_rows() {
        let path = fixture("rundb_journal", INVERTER_CHAIN);
        let db = temp_db("journal");
        let journal = temp_journal("rundb");
        let (p, j) = (path.to_str().unwrap(), journal.to_str().unwrap());
        let id = batch_into(db.to_str().unwrap(), p, &["--journal", j]);
        let record = runstore::read_run(&db.join(format!("{id}.run"))).expect("record reads");
        // Two scenarios, each recording its arrivals and their digest.
        assert_eq!(record.scenarios.len(), 2);
        for scenario in &record.scenarios {
            let rows: Vec<_> = record
                .arrivals
                .iter()
                .filter(|a| a.scenario == scenario.label)
                .cloned()
                .collect();
            assert!(!rows.is_empty(), "no arrivals for {}", scenario.label);
            assert_eq!(scenario.digest, Some(runstore::arrival_digest(&rows)));
        }
        let _ = fs::remove_file(&journal);
        let _ = fs::remove_dir_all(&db);
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
        assert_eq!(err.status, Status::Divergence, "{}", err.message);
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
        assert_eq!(err.status, Status::Error, "{}", err.message);
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
