//! Persistent cross-run result store and regression diffing.
//!
//! Every CLI entry point that produces measurements — `batch`, `check`,
//! `serve`, and the bench harness — can append one **run record** to a
//! run database directory (`--run-db DIR`). A record is a single
//! append-only JSON-lines file, `<run-id>.run`, written through the
//! [`crate::applog`] append log the journals share, in the same
//! flat-object codec ([`crate::fingerprint::JsonLine`] out,
//! [`crate::fingerprint::parse_json_object`] in):
//!
//! ```text
//! {"kind":"run","v":1,"id":"run-3f…","command":"batch","fingerprint":"…",…}
//! {"kind":"scenario","label":"a rise","outcome":"ok","digest":"…",…}
//! {"kind":"arrival","scenario":"a rise","node":"y","time":"…","time_ns":0.54,…}
//! {"kind":"phase","phase":"evaluation","spans":64,"total_ns":282200,"wall_ns":141100}
//! {"kind":"counter","phase":"cache","name":"hits","value":663}
//! {"kind":"cache","hits":663,"misses":39,"evictions":0}
//! {"kind":"exit","status":"ok","code":0,"wall_us":1285}
//! ```
//!
//! The `exit` footer marks a complete record; a run that crashed
//! mid-write is recognizable by its absence. Reads and
//! [`RunStore::resume`] follow the [`crate::applog`] recovery contract
//! (a torn final line is dropped; damage earlier is
//! [`RunStoreError::Corrupt`]), and resume re-appends the missing suffix
//! bit-identically, because every line is a deterministic function of
//! the in-memory [`RunRecord`].
//!
//! [`diff`] compares two records: per-node arrival deltas (absolute and
//! relative, with a digest-mismatch section), per-phase span-time
//! deltas, per-scenario wall-clock deltas, and cache-counter deltas.
//! [`RunDiff::verdict`] applies the regression thresholds with a fixed
//! precedence — **timing > digest > perf** — so CI can gate on
//! `diff-runs` against a committed baseline instead of on single-run
//! absolutes:
//!
//! * a *timing* regression (any matched node's arrival moved by more
//!   than the threshold percentage, or an arrival appeared/vanished) is
//!   the divergence analog and exits 4 from the CLI;
//! * a *digest* mismatch alone is report-only by default (bit-level
//!   drift across toolchains/libm is expected and harmless below the
//!   timing threshold) and only fails under `--fail-on-digest-mismatch`;
//! * a *perf* regression (wall-clock) exits 1, and is only gated when
//!   both runs recorded the same `hardware_threads` — comparing wall
//!   clocks across different machines is noise, so incomparable runs are
//!   skipped with an explicit note instead of silently passed.

use crate::analyzer::{Edge, TimingResult};
use crate::applog::{self, AppendLog, Fields, JournalFaultPlan, LogError, LogFault};
use crate::fingerprint::{
    hash_arrival_row, run_id, sorted_arrivals, Fnv64, Json, JsonDocument, JsonLine, ReadFields,
};
use crate::memo::CacheStats;
use crate::models::ModelKind;
use crate::obs::Metrics;
use mosnet::Network;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Run-record format version (the `"v"` header field).
pub const RUN_VERSION: u32 = 1;

/// File extension of run records inside a run database directory.
pub const RUN_EXTENSION: &str = "run";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failures of the run store.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunStoreError {
    /// An I/O error reading or writing the run database.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// A run record is damaged before its final line — torn tails are
    /// recoverable, mid-file damage is not.
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// 1-based line number of the first damaged line.
        line: usize,
    },
    /// No run matched a `diff-runs` operand.
    NotFound {
        /// The operand (path, run ID, or ID prefix).
        spec: String,
    },
    /// A run-ID prefix matched more than one run.
    Ambiguous {
        /// The operand.
        spec: String,
        /// Every matching run ID.
        matches: Vec<String>,
    },
}

impl fmt::Display for RunStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStoreError::Io { path, message } => {
                write!(f, "run store I/O error at `{}`: {message}", path.display())
            }
            RunStoreError::Corrupt { path, line } => write!(
                f,
                "run record `{}` is corrupt at line {line} (only a torn final line is recoverable)",
                path.display()
            ),
            RunStoreError::NotFound { spec } => {
                write!(
                    f,
                    "no run matches `{spec}` (not a file, run ID, or unique ID prefix)"
                )
            }
            RunStoreError::Ambiguous { spec, matches } => {
                write!(
                    f,
                    "run spec `{spec}` is ambiguous: {} runs match:",
                    matches.len()
                )?;
                for id in matches {
                    write!(f, "\n  {id}")?;
                }
                write!(f, "\nuse a longer prefix or the full run ID")
            }
        }
    }
}

impl std::error::Error for RunStoreError {}

fn io_err(path: &Path, e: std::io::Error) -> RunStoreError {
    RunStoreError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Record model
// ---------------------------------------------------------------------------

/// Identity and provenance of one run (the header line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Unique run ID (`run-<hex16>`), also the record's file stem.
    pub id: String,
    /// The producing command: `batch`, `check`, `serve`, `bench_smoke`.
    pub command: String,
    /// Content fingerprint of the analyzed configuration
    /// ([`crate::fingerprint::run_fingerprint`]); 0 when the command has
    /// no single netlist configuration (`serve`, `bench_smoke`).
    pub fingerprint: u64,
    /// `git describe --always --dirty` of the working tree, or
    /// `"unknown"` outside a repository.
    pub git: String,
    /// Hostname, or `"unknown"`.
    pub host: String,
    /// Hardware threads of the recording machine — wall-clock numbers
    /// from runs with different values are never gate-compared.
    pub hardware_threads: u64,
    /// Configured scenario worker threads.
    pub threads: u64,
    /// Delay model name (`lumped`/`rc-tree`/`slope`), or `-` when the
    /// run spans several models.
    pub model: String,
    /// Unix timestamp (seconds) when the run started.
    pub started_unix: u64,
}

/// One scenario outcome row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioRow {
    /// Scenario label (shared with batch journals and server reports).
    pub label: String,
    /// Outcome name (`ok`, `error`, `timeout`, `poisoned`, `skipped`).
    pub outcome: String,
    /// Digest over the scenario's recorded arrival rows, when arrivals
    /// were recorded ([`arrival_digest`]).
    pub digest: Option<u64>,
    /// Human-readable outcome summary.
    pub summary: String,
    /// Scenario wall clock in microseconds (0 when not measured).
    pub wall_us: u64,
    /// The run asked for more worker threads than the machine has
    /// hardware threads. Wall clocks from oversubscribed rows measure
    /// scheduler contention, not the engine, so perf gates skip them.
    pub oversubscribed: bool,
}

/// One recorded arrival: the exact bit pattern of a node's
/// `(time, transition, edge, model)` tuple in one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalRow {
    /// The owning scenario's label.
    pub scenario: String,
    /// Node name.
    pub node: String,
    /// `f64::to_bits` of the arrival time in seconds.
    pub time_bits: u64,
    /// `f64::to_bits` of the transition time in seconds.
    pub transition_bits: u64,
    /// Rising (`true`) or falling edge.
    pub rising: bool,
    /// The model that produced the arrival (fallback is per-arrival).
    pub model: String,
}

impl ArrivalRow {
    /// The arrival time in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        f64::from_bits(self.time_bits) * 1e9
    }
}

/// Aggregated span time of one observability phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase name ([`crate::obs::Phase::name`]).
    pub phase: String,
    /// Spans recorded.
    pub spans: u64,
    /// Total span nanoseconds (CPU-like: concurrent spans sum).
    pub total_ns: u64,
    /// Span-union nanoseconds (wall: overlap counts once). Old records
    /// without the field read back as `total_ns`.
    pub wall_ns: u64,
}

/// One observability counter total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Phase name the counter belongs to.
    pub phase: String,
    /// Counter name.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// The footer: how the run ended. A record without one is incomplete
/// (the producing process died before finishing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitRow {
    /// Status name from the CLI/server taxonomy (`ok`, `error`,
    /// `budget`, `divergence`, …).
    pub status: String,
    /// The process exit code the status maps to.
    pub code: u8,
    /// Total run wall clock in microseconds.
    pub wall_us: u64,
}

/// One complete run record — everything a regression diff needs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Identity and provenance.
    pub meta: RunMeta,
    /// Per-scenario outcomes.
    pub scenarios: Vec<ScenarioRow>,
    /// Per-node arrivals (empty when the command records digests only).
    pub arrivals: Vec<ArrivalRow>,
    /// Per-phase span aggregates.
    pub phases: Vec<PhaseRow>,
    /// Counter totals.
    pub counters: Vec<CounterRow>,
    /// Stage-cache counters, when a cache was attached.
    pub cache: Option<CacheStats>,
    /// The exit footer; `None` marks an incomplete record.
    pub exit: Option<ExitRow>,
}

impl RunRecord {
    /// A record with the given header and no content rows yet.
    pub fn new(meta: RunMeta) -> RunRecord {
        RunRecord {
            meta,
            scenarios: Vec::new(),
            arrivals: Vec::new(),
            phases: Vec::new(),
            counters: Vec::new(),
            cache: None,
            exit: None,
        }
    }

    /// Whether the record carries its exit footer.
    pub fn complete(&self) -> bool {
        self.exit.is_some()
    }

    /// Appends a [`Metrics`] snapshot as phase and counter rows
    /// (appending, so command-specific counters pushed beforehand
    /// survive).
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.phases.extend(metrics.phases.iter().map(|p| PhaseRow {
            phase: p.phase.name().to_string(),
            spans: p.spans,
            total_ns: p.total_ns,
            wall_ns: p.wall_ns,
        }));
        self.counters.extend(metrics.phases.iter().flat_map(|p| {
            p.counters.iter().map(|(name, value)| CounterRow {
                phase: p.phase.name().to_string(),
                name: name.clone(),
                value: *value,
            })
        }));
    }

    /// Every line of the record, in file order. Deterministic: the same
    /// record always serializes to the same bytes, which is what makes
    /// [`RunStore::resume`] bit-identical.
    pub fn lines(&self) -> Vec<String> {
        let mut lines =
            Vec::with_capacity(2 + self.scenarios.len() + self.arrivals.len() + self.phases.len());
        let row = |kind: &str| JsonLine::new().str("kind", kind);
        let m = &self.meta;
        lines.push(
            row("run")
                .num("v", u64::from(RUN_VERSION))
                .str("id", &m.id)
                .str("command", &m.command)
                .hex("fingerprint", m.fingerprint)
                .str("git", &m.git)
                .str("host", &m.host)
                .num("hardware_threads", m.hardware_threads)
                .num("threads", m.threads)
                .str("model", &m.model)
                .num("started_unix", m.started_unix)
                .finish(),
        );
        for s in &self.scenarios {
            let mut line = row("scenario")
                .str("label", &s.label)
                .str("outcome", &s.outcome);
            if let Some(digest) = s.digest {
                line = line.hex("digest", digest);
            }
            line = line.str("summary", &s.summary).num("wall_us", s.wall_us);
            if s.oversubscribed {
                line = line.bool("oversubscribed", true);
            }
            lines.push(line.finish());
        }
        for a in &self.arrivals {
            lines.push(
                row("arrival")
                    .str("scenario", &a.scenario)
                    .str("node", &a.node)
                    .hex("time", a.time_bits)
                    .formatted("time_ns", &format!("{:.6}", a.time_ns()))
                    .hex("transition", a.transition_bits)
                    .str("edge", if a.rising { "rise" } else { "fall" })
                    .str("model", &a.model)
                    .finish(),
            );
        }
        for p in &self.phases {
            lines.push(
                row("phase")
                    .str("phase", &p.phase)
                    .num("spans", p.spans)
                    .num("total_ns", p.total_ns)
                    .num("wall_ns", p.wall_ns)
                    .finish(),
            );
        }
        for c in &self.counters {
            lines.push(
                row("counter")
                    .str("phase", &c.phase)
                    .str("name", &c.name)
                    .num("value", c.value)
                    .finish(),
            );
        }
        if let Some(cache) = &self.cache {
            lines.push(
                row("cache")
                    .num("hits", cache.hits)
                    .num("misses", cache.misses)
                    .num("evictions", cache.evictions)
                    // The retired counter epoch; 0 is the only value any
                    // record ever carried.
                    .num("generation", 0)
                    .finish(),
            );
        }
        if let Some(exit) = &self.exit {
            lines.push(
                row("exit")
                    .str("status", &exit.status)
                    .num("code", u64::from(exit.code))
                    .num("wall_us", exit.wall_us)
                    .finish(),
            );
        }
        lines
    }

    /// The record's file text from line `skip` on (0 for the whole file).
    fn text(&self, skip: usize) -> String {
        let mut text = String::new();
        for line in self.lines().into_iter().skip(skip) {
            text.push_str(&line);
            text.push('\n');
        }
        text
    }
}

/// The arrival rows of one result, node-name-sorted. `inject` scales the
/// recorded time of every arrival whose producing model matches — the
/// recording-layer analog of the self-check harness's fault injection,
/// used to drill that a regression gate can actually fire. The analysis
/// itself stays honest; only the recorded bits are corrupted.
pub fn arrival_rows(
    net: &Network,
    label: &str,
    result: &TimingResult,
    inject: Option<(ModelKind, f64)>,
) -> Vec<ArrivalRow> {
    sorted_arrivals(net, result)
        .into_iter()
        .map(|(node, a)| {
            let mut time_bits = a.time.value().to_bits();
            if let Some((model, factor)) = inject {
                if a.model == model {
                    time_bits = (f64::from_bits(time_bits) * factor).to_bits();
                }
            }
            ArrivalRow {
                scenario: label.to_string(),
                node: node.to_string(),
                time_bits,
                transition_bits: a.transition.value().to_bits(),
                rising: a.edge == Edge::Rising,
                model: a.model.label().to_string(),
            }
        })
        .collect()
}

/// FNV-1a digest over arrival rows, in the row layout of
/// [`crate::fingerprint::result_digest`]: without an injected fault the
/// two digests are identical, so a recorded digest matches the journal's.
pub fn arrival_digest(rows: &[ArrivalRow]) -> u64 {
    let mut h = Fnv64::new();
    for row in rows {
        hash_arrival_row(
            &mut h,
            &row.node,
            row.time_bits,
            row.transition_bits,
            row.rising,
            &row.model,
        );
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Environment capture
// ---------------------------------------------------------------------------

/// Provenance of the recording machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    /// `git describe --always --dirty`, or `"unknown"`.
    pub git: String,
    /// Hostname, or `"unknown"`.
    pub host: String,
    /// Hardware threads.
    pub hardware_threads: u64,
}

/// Captures the recording environment: git description, hostname, and
/// hardware-thread count. Never fails — unavailable facts degrade to
/// `"unknown"`.
pub fn environment() -> Environment {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .ok()
        .or_else(|| std::env::var("HOSTNAME").ok())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    Environment {
        git,
        host,
        hardware_threads,
    }
}

/// A fresh run header: captures the environment, stamps the start time,
/// and derives a unique run ID from the command, the configuration
/// fingerprint, the clock, and the PID.
pub fn new_meta(command: &str, fingerprint: u64, model: &str, threads: usize) -> RunMeta {
    let env = environment();
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    let mut h = Fnv64::new();
    h.write(command.as_bytes());
    h.write_u64(fingerprint);
    h.write_u64(now.as_nanos() as u64);
    h.write_u64(u64::from(std::process::id()));
    RunMeta {
        id: run_id("run", h.finish()),
        command: command.to_string(),
        fingerprint,
        git: env.git,
        host: env.host,
        hardware_threads: env.hardware_threads,
        threads: threads as u64,
        model: model.to_string(),
        started_unix: now.as_secs(),
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A run database directory: one `<run-id>.run` record per run.
#[derive(Debug, Clone)]
pub struct RunStore {
    dir: PathBuf,
}

/// One row of [`RunStore::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Run ID.
    pub id: String,
    /// Producing command.
    pub command: String,
    /// Start time (Unix seconds).
    pub started_unix: u64,
    /// Whether the record carries its exit footer.
    pub complete: bool,
    /// Scenario rows recorded.
    pub scenarios: usize,
    /// The record's path.
    pub path: PathBuf,
}

impl RunStore {
    /// Opens (creating if necessary) a run database directory.
    pub fn open(dir: &Path) -> Result<RunStore, RunStoreError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        Ok(RunStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one record as `<id>.run`, fsync'd before returning, and
    /// returns the record's path.
    pub fn record(&self, record: &RunRecord) -> Result<PathBuf, RunStoreError> {
        let path = self.dir.join(format!("{}.{RUN_EXTENSION}", record.meta.id));
        AppendLog::create(&path, &record.text(0), &JournalFaultPlan::none())?;
        Ok(path)
    }

    /// Lists every readable record, oldest first (damaged or foreign
    /// files are skipped, not errors — the store must stay listable
    /// after a crash left a torn record behind).
    pub fn list(&self) -> Result<Vec<RunSummary>, RunStoreError> {
        let mut runs = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(RUN_EXTENSION) {
                continue;
            }
            if let Ok(record) = read_run(&path) {
                runs.push(RunSummary {
                    id: record.meta.id.clone(),
                    command: record.meta.command.clone(),
                    started_unix: record.meta.started_unix,
                    complete: record.complete(),
                    scenarios: record.scenarios.len(),
                    path,
                });
            }
        }
        runs.sort_by(|a, b| {
            a.started_unix
                .cmp(&b.started_unix)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(runs)
    }

    /// Resolves a `diff-runs` operand: a literal record path wins;
    /// otherwise an exact run ID, then a unique ID prefix, within the
    /// database.
    pub fn resolve(&self, spec: &str) -> Result<PathBuf, RunStoreError> {
        let literal = Path::new(spec);
        if literal.is_file() {
            return Ok(literal.to_path_buf());
        }
        let runs = self.list()?;
        if let Some(run) = runs.iter().find(|r| r.id == spec) {
            return Ok(run.path.clone());
        }
        let matches: Vec<&RunSummary> = runs.iter().filter(|r| r.id.starts_with(spec)).collect();
        match matches.as_slice() {
            [] => Err(RunStoreError::NotFound {
                spec: spec.to_string(),
            }),
            [one] => Ok(one.path.clone()),
            many => Err(RunStoreError::Ambiguous {
                spec: spec.to_string(),
                matches: many.iter().map(|r| r.id.clone()).collect(),
            }),
        }
    }

    /// Recovers a (possibly torn) record file and re-appends the missing
    /// suffix from `record`, reproducing the complete file bit for bit.
    /// Follows the [`crate::applog`] recovery contract: only a torn final
    /// line is dropped, damage earlier in the file is
    /// [`RunStoreError::Corrupt`], and a file with no complete header
    /// line starts over from the record's header.
    pub fn resume(&self, path: &Path, record: &RunRecord) -> Result<(), RunStoreError> {
        let header = format!("{}\n", record.lines()[0]);
        let faults = JournalFaultPlan::none();
        let (mut log, valid_lines) =
            AppendLog::resume(path, "run", Some(&header), &faults, Some, |recovered| {
                Ok::<_, RunStoreError>(recovered.records.len() + 1)
            })?;
        Ok(log.append(&record.text(valid_lines))?)
    }
}

impl From<LogError> for RunStoreError {
    fn from(e: LogError) -> RunStoreError {
        let path = e.path;
        match e.fault {
            LogFault::Io(error) => io_err(&path, error),
            LogFault::Corrupt(line) => RunStoreError::Corrupt { path, line },
            LogFault::NoHeader => RunStoreError::Corrupt { path, line: 1 },
        }
    }
}

/// Reads one record, applying torn-tail recovery (in memory only — the
/// file is not truncated; [`RunStore::resume`] is the repairing path).
pub fn read_run(path: &Path) -> Result<RunRecord, RunStoreError> {
    let recovered = applog::recover(path, "run", Some)?;
    let corrupt = |line: usize| RunStoreError::Corrupt {
        path: path.to_path_buf(),
        line,
    };
    let meta = meta_from_fields(&recovered.header).ok_or_else(|| corrupt(1))?;
    let mut record = RunRecord::new(meta);
    for (index, fields) in recovered.records.iter().enumerate() {
        push_row(&mut record, fields).ok_or_else(|| corrupt(index + 2))?;
    }
    Ok(record)
}

/// Decodes the header line; `None` when it is malformed.
fn meta_from_fields(head: &Fields) -> Option<RunMeta> {
    Some(RunMeta {
        id: head.string("id")?,
        command: head.string("command")?,
        fingerprint: head.hex("fingerprint")?,
        git: head.string("git")?,
        host: head.string("host")?,
        hardware_threads: head.num("hardware_threads")?,
        threads: head.num("threads")?,
        model: head.string("model")?,
        started_unix: head.num("started_unix")?,
    })
}

/// Decodes one content line into `record`; `None` when it is malformed.
fn push_row(record: &mut RunRecord, fields: &Fields) -> Option<()> {
    match fields.str("kind")? {
        "scenario" => record.scenarios.push(ScenarioRow {
            label: fields.string("label")?,
            outcome: fields.string("outcome")?,
            digest: fields.opt_hex("digest")?,
            summary: fields.string("summary")?,
            wall_us: fields.num("wall_us")?,
            oversubscribed: fields.str("oversubscribed") == Some("true"),
        }),
        "arrival" => record.arrivals.push(ArrivalRow {
            scenario: fields.string("scenario")?,
            node: fields.string("node")?,
            time_bits: fields.hex("time")?,
            transition_bits: fields.hex("transition")?,
            rising: match fields.str("edge")? {
                "rise" => true,
                "fall" => false,
                _ => return None,
            },
            model: fields.string("model")?,
        }),
        "phase" => {
            let total_ns = fields.num("total_ns")?;
            record.phases.push(PhaseRow {
                phase: fields.string("phase")?,
                spans: fields.num("spans")?,
                total_ns,
                // Records predating the field: wall was unmeasured,
                // total is the conservative stand-in.
                wall_ns: fields.opt_num("wall_ns")?.unwrap_or(total_ns),
            })
        }
        "counter" => record.counters.push(CounterRow {
            phase: fields.string("phase")?,
            name: fields.string("name")?,
            value: fields.num("value")?,
        }),
        "cache" => {
            record.cache = Some(CacheStats {
                hits: fields.num("hits")?,
                misses: fields.num("misses")?,
                evictions: fields.num("evictions")?,
            })
        }
        "exit" => {
            record.exit = Some(ExitRow {
                status: fields.string("status")?,
                code: fields.num("code")?,
                wall_us: fields.num("wall_us")?,
            })
        }
        _ => return None,
    }
    Some(())
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// Regression thresholds for [`RunDiff::verdict`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiffThresholds {
    /// Fail when any matched node's arrival moved by more than this
    /// percentage (or appeared/vanished). `None` disables the gate.
    pub timing_pct: Option<f64>,
    /// Fail when comparable wall clocks regressed by more than this
    /// percentage. `None` disables the gate.
    pub perf_pct: Option<f64>,
    /// Fail on any digest mismatch, even below the timing threshold.
    pub digest: bool,
}

/// How a diff gates, in precedence order (worst first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// A timing regression tripped [`DiffThresholds::timing_pct`].
    TimingRegression,
    /// A digest mismatch tripped [`DiffThresholds::digest`].
    DigestMismatch,
    /// A wall-clock regression tripped [`DiffThresholds::perf_pct`].
    PerfRegression,
    /// Every enabled gate passed.
    Clean,
}

impl DiffVerdict {
    /// The verdict's name in `diff-runs --json` and the daemon's `diff`
    /// response.
    pub fn name(self) -> &'static str {
        match self {
            DiffVerdict::Clean => "clean",
            DiffVerdict::TimingRegression => "timing_regression",
            DiffVerdict::DigestMismatch => "digest_mismatch",
            DiffVerdict::PerfRegression => "perf_regression",
        }
    }
}

/// One matched node whose recorded arrival differs between the runs.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDelta {
    /// Scenario label.
    pub scenario: String,
    /// Node name.
    pub node: String,
    /// Arrival time in run A, nanoseconds.
    pub a_ns: f64,
    /// Arrival time in run B, nanoseconds.
    pub b_ns: f64,
    /// Relative change in percent (`(b-a)/a*100`); infinite when the
    /// baseline arrival is exactly zero.
    pub pct: f64,
}

/// One phase's span time in both runs. Compared on the wall (span-union)
/// clock, not summed span time — summed time scales with worker count
/// and would flag a parallel run as a regression.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Phase name.
    pub phase: String,
    /// Wall (span-union) nanoseconds in run A.
    pub a_ns: u64,
    /// Wall (span-union) nanoseconds in run B.
    pub b_ns: u64,
}

impl PhaseDelta {
    /// Relative change in percent (0 when A recorded no time).
    pub fn pct(&self) -> f64 {
        if self.a_ns == 0 {
            0.0
        } else {
            (self.b_ns as f64 - self.a_ns as f64) / self.a_ns as f64 * 100.0
        }
    }
}

/// One scenario's wall clock in both runs (only scenarios measured in
/// both, i.e. `wall_us > 0` on each side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioPerfDelta {
    /// Scenario label.
    pub label: String,
    /// Run A wall microseconds.
    pub a_us: u64,
    /// Run B wall microseconds.
    pub b_us: u64,
}

impl ScenarioPerfDelta {
    /// Relative change in percent.
    pub fn pct(&self) -> f64 {
        (self.b_us as f64 - self.a_us as f64) / self.a_us as f64 * 100.0
    }
}

/// The full comparison of two run records.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Run A's (the baseline's) ID.
    pub a_id: String,
    /// Run B's (the candidate's) ID.
    pub b_id: String,
    /// Whether both runs recorded the same configuration fingerprint.
    pub fingerprint_match: bool,
    /// Labels whose scenario digests differ.
    pub digest_mismatches: Vec<String>,
    /// Scenario labels only run A has.
    pub only_in_a: Vec<String>,
    /// Scenario labels only run B has.
    pub only_in_b: Vec<String>,
    /// Matched nodes whose recorded arrival changed, worst first.
    pub node_deltas: Vec<NodeDelta>,
    /// Arrivals recorded in A with no counterpart in B, and vice versa
    /// (`(scenario, node)` pairs).
    pub arrivals_only_a: Vec<(String, String)>,
    /// Arrivals recorded in B with no counterpart in A.
    pub arrivals_only_b: Vec<(String, String)>,
    /// The worst relative arrival change, percent (infinite when an
    /// arrival appeared, vanished, or moved off a zero baseline).
    pub max_timing_pct: f64,
    /// Per-phase span-time deltas (phases present in either run).
    pub phase_deltas: Vec<PhaseDelta>,
    /// Per-scenario wall-clock deltas (measured in both runs).
    pub scenario_perf: Vec<ScenarioPerfDelta>,
    /// Total wall clock of both runs, microseconds, when both recorded
    /// an exit footer.
    pub wall_us: Option<(u64, u64)>,
    /// The worst comparable wall-clock regression, percent (0 when
    /// nothing regressed or nothing is comparable).
    pub max_perf_pct: f64,
    /// Whether wall clocks are gate-comparable (same
    /// `hardware_threads` on both runs).
    pub perf_comparable: bool,
    /// Hardware threads of run A and run B.
    pub hardware_threads: (u64, u64),
    /// Cache counters of both runs, when both recorded them.
    pub cache: Option<(CacheStats, CacheStats)>,
    /// Explicit notes about skipped comparisons — an honest gate says
    /// what it did not check.
    pub notes: Vec<String>,
}

/// Compares two run records. Pure — thresholds are applied afterwards
/// by [`RunDiff::verdict`].
pub fn diff(a: &RunRecord, b: &RunRecord) -> RunDiff {
    let mut notes = Vec::new();

    // Scenario matching by label.
    let a_scenarios: BTreeMap<&str, &ScenarioRow> =
        a.scenarios.iter().map(|s| (s.label.as_str(), s)).collect();
    let b_scenarios: BTreeMap<&str, &ScenarioRow> =
        b.scenarios.iter().map(|s| (s.label.as_str(), s)).collect();
    let only_in_a: Vec<String> = a_scenarios
        .keys()
        .filter(|label| !b_scenarios.contains_key(**label))
        .map(|label| label.to_string())
        .collect();
    let only_in_b: Vec<String> = b_scenarios
        .keys()
        .filter(|label| !a_scenarios.contains_key(**label))
        .map(|label| label.to_string())
        .collect();
    let mut digest_mismatches = Vec::new();
    for (label, sa) in &a_scenarios {
        if let Some(sb) = b_scenarios.get(label) {
            if sa.digest != sb.digest {
                digest_mismatches.push(label.to_string());
            }
        }
    }

    // Arrival matching by (scenario, node).
    let key = |r: &ArrivalRow| (r.scenario.clone(), r.node.clone());
    let a_arrivals: BTreeMap<(String, String), &ArrivalRow> =
        a.arrivals.iter().map(|r| (key(r), r)).collect();
    let b_arrivals: BTreeMap<(String, String), &ArrivalRow> =
        b.arrivals.iter().map(|r| (key(r), r)).collect();
    let mut node_deltas = Vec::new();
    let mut max_timing_pct = 0.0f64;
    for (k, ra) in &a_arrivals {
        let Some(rb) = b_arrivals.get(k) else {
            continue;
        };
        if ra.time_bits == rb.time_bits {
            continue;
        }
        let a_ns = ra.time_ns();
        let b_ns = rb.time_ns();
        let pct = if a_ns == 0.0 {
            f64::INFINITY
        } else {
            (b_ns - a_ns) / a_ns * 100.0
        };
        max_timing_pct = max_timing_pct.max(pct.abs());
        node_deltas.push(NodeDelta {
            scenario: k.0.clone(),
            node: k.1.clone(),
            a_ns,
            b_ns,
            pct,
        });
    }
    node_deltas.sort_by(|x, y| {
        y.pct
            .abs()
            .partial_cmp(&x.pct.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (x.scenario.as_str(), x.node.as_str()).cmp(&(&y.scenario, &y.node)))
    });
    // Only pairs whose scenario exists on both sides count as appeared/
    // vanished arrivals; whole missing scenarios are reported above.
    let arrivals_only_a: Vec<(String, String)> = a_arrivals
        .keys()
        .filter(|(s, _)| b_scenarios.contains_key(s.as_str()))
        .filter(|k| !b_arrivals.contains_key(*k))
        .cloned()
        .collect();
    let arrivals_only_b: Vec<(String, String)> = b_arrivals
        .keys()
        .filter(|(s, _)| a_scenarios.contains_key(s.as_str()))
        .filter(|k| !a_arrivals.contains_key(*k))
        .cloned()
        .collect();
    if !arrivals_only_a.is_empty() || !arrivals_only_b.is_empty() {
        max_timing_pct = f64::INFINITY;
    }
    if a.arrivals.is_empty() && b.arrivals.is_empty() && !a.scenarios.is_empty() {
        notes.push(
            "no arrival rows recorded on either side; timing compared by digest only".to_string(),
        );
    }

    // Phase deltas.
    let a_phases: BTreeMap<&str, &PhaseRow> =
        a.phases.iter().map(|p| (p.phase.as_str(), p)).collect();
    let b_phases: BTreeMap<&str, &PhaseRow> =
        b.phases.iter().map(|p| (p.phase.as_str(), p)).collect();
    let mut phase_names: Vec<&str> = a_phases.keys().chain(b_phases.keys()).copied().collect();
    phase_names.sort_unstable();
    phase_names.dedup();
    let phase_deltas: Vec<PhaseDelta> = phase_names
        .into_iter()
        .map(|name| PhaseDelta {
            phase: name.to_string(),
            a_ns: a_phases.get(name).map_or(0, |p| p.wall_ns),
            b_ns: b_phases.get(name).map_or(0, |p| p.wall_ns),
        })
        .collect();

    // Perf: scenario wall clocks measured on both sides, plus the total.
    let hardware_threads = (a.meta.hardware_threads, b.meta.hardware_threads);
    let perf_comparable = hardware_threads.0 == hardware_threads.1;
    if !perf_comparable {
        notes.push(format!(
            "perf gate skipped: runs recorded different hardware_threads ({} vs {})",
            hardware_threads.0, hardware_threads.1
        ));
    }
    if hardware_threads.0 == 1 || hardware_threads.1 == 1 {
        notes.push(
            "parallel-speedup comparison skipped: at least one run was recorded on a \
             single-hardware-thread machine"
                .to_string(),
        );
    }
    let mut scenario_perf = Vec::new();
    let mut max_perf_pct = 0.0f64;
    let mut oversubscribed_skipped = 0usize;
    for (label, sa) in &a_scenarios {
        let Some(sb) = b_scenarios.get(label) else {
            continue;
        };
        if sa.wall_us == 0 || sb.wall_us == 0 {
            continue;
        }
        let delta = ScenarioPerfDelta {
            label: label.to_string(),
            a_us: sa.wall_us,
            b_us: sb.wall_us,
        };
        // Oversubscribed rows (threads > hardware threads) measure
        // scheduler contention; report them but never gate on them.
        if sa.oversubscribed || sb.oversubscribed {
            oversubscribed_skipped += 1;
        } else if perf_comparable {
            max_perf_pct = max_perf_pct.max(delta.pct());
        }
        scenario_perf.push(delta);
    }
    if oversubscribed_skipped > 0 {
        notes.push(format!(
            "perf gate skipped {oversubscribed_skipped} oversubscribed scenario(s) \
             (threads > hardware threads)"
        ));
    }
    scenario_perf.sort_by(|x, y| {
        y.pct()
            .partial_cmp(&x.pct())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.label.cmp(&y.label))
    });
    let wall_us = match (&a.exit, &b.exit) {
        (Some(ea), Some(eb)) => Some((ea.wall_us, eb.wall_us)),
        _ => None,
    };
    if let Some((wa, wb)) = wall_us {
        if perf_comparable && wa > 0 {
            max_perf_pct = max_perf_pct.max((wb as f64 - wa as f64) / wa as f64 * 100.0);
        }
    }

    let cache = match (&a.cache, &b.cache) {
        (Some(ca), Some(cb)) => Some((*ca, *cb)),
        _ => None,
    };

    RunDiff {
        a_id: a.meta.id.clone(),
        b_id: b.meta.id.clone(),
        fingerprint_match: a.meta.fingerprint == b.meta.fingerprint,
        digest_mismatches,
        only_in_a,
        only_in_b,
        node_deltas,
        arrivals_only_a,
        arrivals_only_b,
        max_timing_pct,
        phase_deltas,
        scenario_perf,
        wall_us,
        max_perf_pct,
        perf_comparable,
        hardware_threads,
        cache,
        notes,
    }
}

impl RunDiff {
    /// Applies the thresholds, worst verdict first: timing, then
    /// digest, then perf. This precedence is part of the CLI contract —
    /// a run that is both slower *and* wrong reports wrong.
    pub fn verdict(&self, thresholds: &DiffThresholds) -> DiffVerdict {
        if let Some(pct) = thresholds.timing_pct {
            if self.max_timing_pct > pct {
                return DiffVerdict::TimingRegression;
            }
        }
        if thresholds.digest
            && (!self.digest_mismatches.is_empty()
                || !self.only_in_a.is_empty()
                || !self.only_in_b.is_empty())
        {
            return DiffVerdict::DigestMismatch;
        }
        if let Some(pct) = thresholds.perf_pct {
            if self.perf_comparable && self.max_perf_pct > pct {
                return DiffVerdict::PerfRegression;
            }
        }
        DiffVerdict::Clean
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "diff {} -> {}", self.a_id, self.b_id);
        if !self.fingerprint_match {
            let _ = writeln!(
                out,
                "note: configuration fingerprints differ (the inputs or their serialization changed; the digests below compare results)"
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }

        let _ = writeln!(
            out,
            "digests: {} mismatch(es), {} scenario(s) only in A, {} only in B",
            self.digest_mismatches.len(),
            self.only_in_a.len(),
            self.only_in_b.len()
        );
        for label in &self.digest_mismatches {
            let _ = writeln!(out, "  digest mismatch: {label}");
        }
        for label in &self.only_in_a {
            let _ = writeln!(out, "  only in A: {label}");
        }
        for label in &self.only_in_b {
            let _ = writeln!(out, "  only in B: {label}");
        }

        const MAX_ROWS: usize = 20;
        if self.node_deltas.is_empty()
            && self.arrivals_only_a.is_empty()
            && self.arrivals_only_b.is_empty()
        {
            let _ = writeln!(out, "timing: no per-node arrival changes");
        } else {
            let _ = writeln!(
                out,
                "timing: {} node arrival(s) changed, worst {:+.4}%",
                self.node_deltas.len(),
                self.max_timing_pct
            );
            for d in self.node_deltas.iter().take(MAX_ROWS) {
                let _ = writeln!(
                    out,
                    "  {} `{}`: {:.4} ns -> {:.4} ns ({:+.4} ns, {:+.4}%)",
                    d.scenario,
                    d.node,
                    d.a_ns,
                    d.b_ns,
                    d.b_ns - d.a_ns,
                    d.pct
                );
            }
            if self.node_deltas.len() > MAX_ROWS {
                let _ = writeln!(
                    out,
                    "  … and {} more changed node(s) (full list in --json)",
                    self.node_deltas.len() - MAX_ROWS
                );
            }
            for (scenario, node) in &self.arrivals_only_a {
                let _ = writeln!(out, "  arrival vanished in B: {scenario} `{node}`");
            }
            for (scenario, node) in &self.arrivals_only_b {
                let _ = writeln!(out, "  arrival appeared in B: {scenario} `{node}`");
            }
        }

        let _ = writeln!(out, "phases (span time, A -> B):");
        for p in &self.phase_deltas {
            let _ = writeln!(
                out,
                "  {:<12} {:>10.3} ms -> {:>10.3} ms ({:+.1}%)",
                p.phase,
                p.a_ns as f64 / 1e6,
                p.b_ns as f64 / 1e6,
                p.pct()
            );
        }
        if let Some((wa, wb)) = self.wall_us {
            let _ = writeln!(
                out,
                "wall clock: {:.3} ms -> {:.3} ms",
                wa as f64 / 1e3,
                wb as f64 / 1e3
            );
        }
        for s in self.scenario_perf.iter().take(MAX_ROWS) {
            let _ = writeln!(
                out,
                "  {}: {:.3} ms -> {:.3} ms ({:+.1}%)",
                s.label,
                s.a_us as f64 / 1e3,
                s.b_us as f64 / 1e3,
                s.pct()
            );
        }
        if self.scenario_perf.len() > MAX_ROWS {
            let _ = writeln!(
                out,
                "  … and {} more timed scenario(s) (full list in --json)",
                self.scenario_perf.len() - MAX_ROWS
            );
        }
        if self.perf_comparable {
            let _ = writeln!(
                out,
                "perf: worst comparable regression {:+.1}%",
                self.max_perf_pct
            );
        }

        if let Some((ca, cb)) = &self.cache {
            let _ = writeln!(
                out,
                "cache: hits {} -> {}, misses {} -> {}, evictions {} -> {}, \
                 hit rate {:.1}% -> {:.1}%",
                ca.hits,
                cb.hits,
                ca.misses,
                cb.misses,
                ca.evictions,
                cb.evictions,
                ca.hit_rate() * 100.0,
                cb.hit_rate() * 100.0
            );
        }
        out
    }

    /// Renders the machine-readable JSON report (`--json FILE`). Unlike
    /// the wire format this is a pretty document, like `BENCH.json`.
    pub fn to_json(&self, thresholds: &DiffThresholds) -> String {
        let pct = |v: f64| Json::fixed(v, 6);
        let cache = |c: &CacheStats| {
            Json::object()
                .with("hits", c.hits)
                .with("misses", c.misses)
                .with("evictions", c.evictions)
        };
        JsonDocument::default()
            .field("a", self.a_id.as_str())
            .field("b", self.b_id.as_str())
            .field("fingerprint_match", self.fingerprint_match)
            .field(
                "hardware_threads",
                vec![self.hardware_threads.0, self.hardware_threads.1],
            )
            .field("perf_comparable", self.perf_comparable)
            .field("verdict", self.verdict(thresholds).name())
            .field("max_timing_pct", pct(self.max_timing_pct))
            .field("max_perf_pct", pct(self.max_perf_pct))
            .field("digest_mismatches", self.digest_mismatches.clone())
            .field("only_in_a", self.only_in_a.clone())
            .field("only_in_b", self.only_in_b.clone())
            .rows(
                "node_deltas",
                self.node_deltas.iter().map(|d| {
                    Json::object()
                        .with("scenario", d.scenario.as_str())
                        .with("node", d.node.as_str())
                        .with("a_ns", pct(d.a_ns))
                        .with("b_ns", pct(d.b_ns))
                        .with("pct", pct(d.pct))
                }),
            )
            .rows(
                "phase_deltas",
                self.phase_deltas.iter().map(|p| {
                    Json::object()
                        .with("phase", p.phase.as_str())
                        .with("a_ns", p.a_ns)
                        .with("b_ns", p.b_ns)
                        .with("pct", pct(p.pct()))
                }),
            )
            .rows(
                "scenario_perf",
                self.scenario_perf.iter().map(|s| {
                    Json::object()
                        .with("label", s.label.as_str())
                        .with("a_us", s.a_us)
                        .with("b_us", s.b_us)
                        .with("pct", pct(s.pct()))
                }),
            )
            .field(
                "cache",
                (self.cache.as_ref())
                    .map(|(a, b)| Json::object().with("a", cache(a)).with("b", cache(b))),
            )
            .field("notes", self.notes.clone())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(id: &str, scale: f64) -> RunRecord {
        let mut record = RunRecord::new(RunMeta {
            id: id.to_string(),
            command: "batch".to_string(),
            fingerprint: 0xfeed,
            git: "deadbee-dirty".to_string(),
            host: "testhost".to_string(),
            hardware_threads: 4,
            threads: 2,
            model: "slope".to_string(),
            started_unix: 1_700_000_000,
        });
        let rows = vec![
            ArrivalRow {
                scenario: "a rise".to_string(),
                node: "m".to_string(),
                time_bits: (1.0e-9 * scale).to_bits(),
                transition_bits: (0.4e-9f64).to_bits(),
                rising: false,
                model: "slope".to_string(),
            },
            ArrivalRow {
                scenario: "a rise".to_string(),
                node: "y".to_string(),
                time_bits: (2.5e-9 * scale).to_bits(),
                transition_bits: (0.6e-9f64).to_bits(),
                rising: true,
                model: "slope".to_string(),
            },
        ];
        record.scenarios.push(ScenarioRow {
            label: "a rise".to_string(),
            outcome: "ok".to_string(),
            digest: Some(arrival_digest(&rows)),
            summary: "ok, latest `y` at 2.5000 ns".to_string(),
            wall_us: 1500,
            oversubscribed: false,
        });
        record.arrivals = rows;
        record.phases.push(PhaseRow {
            phase: "evaluation".to_string(),
            spans: 8,
            total_ns: 420_000,
            wall_ns: 300_000,
        });
        record.counters.push(CounterRow {
            phase: "cache".to_string(),
            name: "hits".to_string(),
            value: 12,
        });
        record.cache = Some(CacheStats {
            hits: 12,
            misses: 3,
            evictions: 0,
        });
        record.exit = Some(ExitRow {
            status: "ok".to_string(),
            code: 0,
            wall_us: 2000,
        });
        record
    }

    fn temp_store(name: &str) -> RunStore {
        let dir =
            std::env::temp_dir().join(format!("crystal_runstore_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::open(&dir).expect("store opens")
    }

    #[test]
    fn arrival_digest_is_the_result_digest_until_injected() {
        use crate::analyzer::{analyze, Scenario};
        use mosnet::generators::{carry_chain, Style};
        let net = carry_chain(Style::Cmos, 4, mosnet::units::Farads::from_femto(60.0)).unwrap();
        let tech = crate::tech::Technology::nominal();
        let input = net.inputs()[0];
        let result = analyze(
            &net,
            &tech,
            ModelKind::Slope,
            &Scenario::step(input, Edge::Rising),
        )
        .unwrap();
        let rows = arrival_rows(&net, "s", &result, None);
        assert!(rows.windows(2).all(|w| w[0].node < w[1].node));
        let digest = crate::fingerprint::result_digest(&net, &result);
        assert_eq!(arrival_digest(&rows), digest);
        let injected = arrival_rows(&net, "s", &result, Some((ModelKind::Slope, 2.0)));
        assert_ne!(arrival_digest(&injected), digest);
    }

    #[test]
    fn committed_baselines_reserialize_byte_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines");
        for name in ["adder-slope.run", "bench-smoke.run"] {
            let path = dir.join(name);
            let bytes = std::fs::read_to_string(&path).expect("baseline reads");
            let record = read_run(&path).expect("baseline decodes");
            assert!(record.complete(), "{name}");
            assert!(
                record.text(0) == bytes,
                "{name} does not re-serialize byte-identically"
            );
        }
    }

    #[test]
    fn record_read_round_trips() {
        let store = temp_store("roundtrip");
        let record = sample_record("run-0000000000000001", 1.0);
        let path = store.record(&record).expect("records");
        let back = read_run(&path).expect("reads");
        assert_eq!(back, record);
        assert!(back.complete());
    }

    #[test]
    fn phase_rows_without_wall_ns_read_back_as_total() {
        // A record written before the wall_ns field existed.
        let dir =
            std::env::temp_dir().join(format!("crystal_runstore_oldfmt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run-old.run");
        std::fs::write(
            &path,
            "{\"kind\":\"run\",\"v\":1,\"id\":\"run-old\",\"command\":\"batch\",\
             \"fingerprint\":\"feed\",\"git\":\"g\",\"host\":\"h\",\"hardware_threads\":4,\
             \"threads\":2,\"model\":\"slope\",\"started_unix\":1}\n\
             {\"kind\":\"phase\",\"phase\":\"evaluation\",\"spans\":8,\"total_ns\":420000}\n\
             {\"kind\":\"exit\",\"status\":\"ok\",\"code\":0,\"wall_us\":10}\n",
        )
        .expect("writes");
        let back = read_run(&path).expect("reads");
        assert_eq!(back.phases[0].total_ns, 420_000);
        assert_eq!(back.phases[0].wall_ns, 420_000);
        // Scenario rows without the flag default to not oversubscribed.
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversubscribed_scenarios_round_trip_and_skip_the_perf_gate() {
        let store = temp_store("oversub");
        let mut a = sample_record("run-00000000000000aa", 1.0);
        let mut b = sample_record("run-00000000000000ab", 1.0);
        a.scenarios[0].oversubscribed = true;
        b.scenarios[0].oversubscribed = true;
        b.scenarios[0].wall_us = a.scenarios[0].wall_us * 10; // huge "regression"
        let path = store.record(&a).expect("records");
        let back = read_run(&path).expect("reads");
        assert!(back.scenarios[0].oversubscribed);
        assert_eq!(back, a);
        let d = diff(&a, &b);
        // The only measured scenario is oversubscribed: the row is shown
        // but never gates, and the skip is noted.
        assert_eq!(d.scenario_perf.len(), 1);
        assert_eq!(d.max_perf_pct, 0.0);
        assert!(
            d.notes.iter().any(|n| n.contains("oversubscribed")),
            "{:?}",
            d.notes
        );
        assert_eq!(
            d.verdict(&DiffThresholds {
                timing_pct: None,
                perf_pct: Some(50.0),
                digest: false,
            }),
            DiffVerdict::Clean
        );
    }

    #[test]
    fn identical_records_diff_clean() {
        let a = sample_record("run-000000000000000a", 1.0);
        let b = sample_record("run-000000000000000b", 1.0);
        let d = diff(&a, &b);
        assert!(d.digest_mismatches.is_empty());
        assert!(d.node_deltas.is_empty());
        assert_eq!(d.max_timing_pct, 0.0);
        assert_eq!(
            d.verdict(&DiffThresholds {
                timing_pct: Some(0.5),
                perf_pct: Some(50.0),
                digest: true,
            }),
            DiffVerdict::Clean
        );
    }

    #[test]
    fn scaled_arrivals_trip_the_timing_gate_with_precedence() {
        let a = sample_record("run-000000000000000a", 1.0);
        let b = sample_record("run-000000000000000b", 2.0);
        let d = diff(&a, &b);
        assert_eq!(d.digest_mismatches, vec!["a rise".to_string()]);
        assert_eq!(d.node_deltas.len(), 2);
        assert!(
            (d.max_timing_pct - 100.0).abs() < 1e-9,
            "{}",
            d.max_timing_pct
        );
        let thresholds = DiffThresholds {
            timing_pct: Some(0.5),
            perf_pct: Some(0.0),
            digest: true,
        };
        // Timing outranks digest outranks perf.
        assert_eq!(d.verdict(&thresholds), DiffVerdict::TimingRegression);
        let digest_only = DiffThresholds {
            timing_pct: None,
            perf_pct: None,
            digest: true,
        };
        assert_eq!(d.verdict(&digest_only), DiffVerdict::DigestMismatch);
        assert_eq!(
            d.verdict(&DiffThresholds::default()),
            DiffVerdict::Clean,
            "no thresholds, no failure"
        );
    }

    #[test]
    fn perf_gate_skipped_across_hardware() {
        let a = sample_record("run-000000000000000a", 1.0);
        let mut b = sample_record("run-000000000000000b", 1.0);
        b.meta.hardware_threads = 1;
        b.scenarios[0].wall_us = 100 * a.scenarios[0].wall_us;
        b.exit.as_mut().unwrap().wall_us = 100 * 2000;
        let d = diff(&a, &b);
        assert!(!d.perf_comparable);
        assert_eq!(d.max_perf_pct, 0.0, "incomparable runs never gate perf");
        assert_eq!(
            d.verdict(&DiffThresholds {
                timing_pct: None,
                perf_pct: Some(10.0),
                digest: false,
            }),
            DiffVerdict::Clean
        );
        assert!(d.notes.iter().any(|n| n.contains("hardware_threads")));
        assert!(d.notes.iter().any(|n| n.contains("parallel-speedup")));
    }

    /// The `diff-runs --json` bytes, pinned on fixed reports: an
    /// infinite pct, every list non-empty, `cache` present and absent,
    /// and labels that need escaping.
    #[test]
    fn diff_json_report_bytes_are_pinned() {
        let full = RunDiff {
            a_id: "run-000000000000000a".to_string(),
            b_id: "run-\"b\"\\tab\t".to_string(),
            fingerprint_match: false,
            digest_mismatches: vec!["a rise".to_string(), "b \"fall\"".to_string()],
            only_in_a: vec!["gone".to_string()],
            only_in_b: vec!["new\nline".to_string()],
            node_deltas: vec![
                NodeDelta {
                    scenario: "a rise".to_string(),
                    node: "y".to_string(),
                    a_ns: 0.0,
                    b_ns: 1.25,
                    pct: f64::INFINITY,
                },
                NodeDelta {
                    scenario: "a rise".to_string(),
                    node: "m\\1".to_string(),
                    a_ns: 1.0,
                    b_ns: 2.0 / 3.0,
                    pct: -100.0 / 3.0,
                },
            ],
            arrivals_only_a: Vec::new(),
            arrivals_only_b: Vec::new(),
            max_timing_pct: f64::INFINITY,
            phase_deltas: vec![
                PhaseDelta {
                    phase: "evaluation".to_string(),
                    a_ns: 300_000,
                    b_ns: 450_000,
                },
                PhaseDelta {
                    phase: "logic".to_string(),
                    a_ns: 0,
                    b_ns: 7,
                },
            ],
            scenario_perf: vec![ScenarioPerfDelta {
                label: "a rise".to_string(),
                a_us: 1500,
                b_us: 1750,
            }],
            wall_us: Some((2000, 2100)),
            max_perf_pct: 16.666_666_666_666_668,
            perf_comparable: true,
            hardware_threads: (4, 4),
            cache: Some((
                CacheStats {
                    hits: 12,
                    misses: 3,
                    evictions: 0,
                },
                CacheStats {
                    hits: 10,
                    misses: 5,
                    evictions: 1,
                },
            )),
            notes: vec!["perf gate skipped 1 oversubscribed scenario(s)".to_string()],
        };
        let thresholds = DiffThresholds {
            timing_pct: Some(0.5),
            perf_pct: Some(200.0),
            digest: true,
        };
        let expected = r#"{
  "a": "run-000000000000000a",
  "b": "run-\"b\"\\tab\t",
  "fingerprint_match": false,
  "hardware_threads": [4, 4],
  "perf_comparable": true,
  "verdict": "timing_regression",
  "max_timing_pct": 1e999,
  "max_perf_pct": 16.666667,
  "digest_mismatches": ["a rise", "b \"fall\""],
  "only_in_a": ["gone"],
  "only_in_b": ["new\nline"],
  "node_deltas": [
    {"scenario": "a rise", "node": "y", "a_ns": 0.000000, "b_ns": 1.250000, "pct": 1e999},
    {"scenario": "a rise", "node": "m\\1", "a_ns": 1.000000, "b_ns": 0.666667, "pct": -33.333333}
  ],
  "phase_deltas": [
    {"phase": "evaluation", "a_ns": 300000, "b_ns": 450000, "pct": 50.000000},
    {"phase": "logic", "a_ns": 0, "b_ns": 7, "pct": 0.000000}
  ],
  "scenario_perf": [
    {"label": "a rise", "a_us": 1500, "b_us": 1750, "pct": 16.666667}
  ],
  "cache": {"a": {"hits": 12, "misses": 3, "evictions": 0}, "b": {"hits": 10, "misses": 5, "evictions": 1}},
  "notes": ["perf gate skipped 1 oversubscribed scenario(s)"]
}
"#;
        assert_eq!(full.to_json(&thresholds), expected);

        let empty = RunDiff {
            a_id: "a".to_string(),
            b_id: "b".to_string(),
            fingerprint_match: true,
            digest_mismatches: Vec::new(),
            only_in_a: Vec::new(),
            only_in_b: Vec::new(),
            node_deltas: Vec::new(),
            arrivals_only_a: Vec::new(),
            arrivals_only_b: Vec::new(),
            max_timing_pct: 0.0,
            phase_deltas: Vec::new(),
            scenario_perf: Vec::new(),
            wall_us: None,
            max_perf_pct: 0.0,
            perf_comparable: false,
            hardware_threads: (1, 2),
            cache: None,
            notes: Vec::new(),
        };
        let expected = r#"{
  "a": "a",
  "b": "b",
  "fingerprint_match": true,
  "hardware_threads": [1, 2],
  "perf_comparable": false,
  "verdict": "clean",
  "max_timing_pct": 0.000000,
  "max_perf_pct": 0.000000,
  "digest_mismatches": [],
  "only_in_a": [],
  "only_in_b": [],
  "node_deltas": [
  ],
  "phase_deltas": [
  ],
  "scenario_perf": [
  ],
  "cache": null,
  "notes": []
}
"#;
        assert_eq!(empty.to_json(&thresholds), expected);
    }

    #[test]
    fn torn_tail_resume_is_bit_identical_at_every_offset() {
        let store = temp_store("torn");
        let record = sample_record("run-00000000000000aa", 1.0);
        let path = store.record(&record).expect("records");
        let full = std::fs::read(&path).expect("reads");
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncates");
            store.resume(&path, &record).expect("resumes");
            let repaired = std::fs::read(&path).expect("reads");
            assert_eq!(repaired, full, "cut at byte {cut}");
        }
    }

    #[test]
    fn mid_file_damage_is_corruption_not_recovery() {
        let store = temp_store("corrupt");
        let record = sample_record("run-00000000000000bb", 1.0);
        let path = store.record(&record).expect("records");
        let text = std::fs::read_to_string(&path).expect("reads");
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"kind\":\"scenario\" garbage";
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("writes");
        match read_run(&path) {
            Err(RunStoreError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn resolve_finds_ids_prefixes_and_paths() {
        let store = temp_store("resolve");
        let a = sample_record("run-00000000000000aa", 1.0);
        let b = sample_record("run-00000000000000ab", 1.0);
        let path_a = store.record(&a).expect("records");
        store.record(&b).expect("records");
        assert_eq!(
            store.resolve(path_a.to_str().unwrap()).expect("path"),
            path_a
        );
        assert_eq!(store.resolve("run-00000000000000aa").expect("id"), path_a);
        assert!(matches!(
            store.resolve("run-00000000000000a"),
            Err(RunStoreError::Ambiguous { .. })
        ));
        assert!(matches!(
            store.resolve("run-ffff"),
            Err(RunStoreError::NotFound { .. })
        ));
    }

    /// Pins the ambiguous-prefix message shape: scripts grep for the
    /// word "ambiguous", and operators need every matching ID listed so
    /// they can pick a longer prefix without a second lookup.
    #[test]
    fn ambiguous_prefix_error_lists_every_match() {
        let store = temp_store("ambiguous");
        store
            .record(&sample_record("run-00000000000000aa", 1.0))
            .expect("records");
        store
            .record(&sample_record("run-00000000000000ab", 1.0))
            .expect("records");
        let err = store
            .resolve("run-00000000000000a")
            .expect_err("two matches");
        let message = err.to_string();
        assert_eq!(
            message,
            "run spec `run-00000000000000a` is ambiguous: 2 runs match:\n  \
             run-00000000000000aa\n  run-00000000000000ab\n\
             use a longer prefix or the full run ID"
        );
    }

    #[test]
    fn list_orders_and_flags_completeness() {
        let store = temp_store("list");
        let mut early = sample_record("run-00000000000000aa", 1.0);
        early.meta.started_unix = 100;
        let mut late = sample_record("run-00000000000000ab", 1.0);
        late.meta.started_unix = 200;
        late.exit = None;
        store.record(&late).expect("records");
        store.record(&early).expect("records");
        let runs = store.list().expect("lists");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].id, "run-00000000000000aa");
        assert!(runs[0].complete);
        assert!(!runs[1].complete);
    }
}
