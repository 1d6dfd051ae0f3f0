//! Journal-backed analysis sessions: the crash-safe state behind the
//! [`crate::server`] daemon.
//!
//! A **session** is one [`IncrementalAnalyzer`] owned by a client: a
//! netlist uploaded once, analyzed over its standard scenarios, then
//! edited incrementally request by request. Sessions are the unit of
//! isolation (a panicking request poisons its session, nothing else)
//! and the unit of durability:
//!
//! * every session journals its *inputs* — the uploaded netlist text,
//!   the session configuration, and each applied edit script — to an
//!   fsync'd [`crate::applog`] file, pinned by a fingerprint built from
//!   the shared [`crate::fingerprint`] hasher;
//! * each edit record also stores the post-edit [`Session::digest`], so
//!   a recovery does not just rebuild state, it **proves** the rebuild:
//!   [`Session::resume`] re-parses the journaled netlist, re-applies
//!   every edit, and verifies each recorded digest bit-for-bit;
//! * recovery follows the [`crate::applog`] contract: a torn tail
//!   (daemon killed mid-append) drops exactly the final, unacknowledged
//!   record, while damage anywhere earlier — or a header torn before it
//!   was complete, which no client ever saw acknowledged — marks the
//!   journal untrustworthy ([`SessionError::Corrupt`]).
//!
//! The journal stores inputs rather than results because results are
//! deterministic: the netlist plus the edit sequence *is* the state.
//! That keeps records small, makes recovery self-verifying, and reuses
//! the bit-identity contract the incremental engine already proves.
//!
//! [`SessionManager`] adds the concurrency layer: a name-keyed map of
//! sessions behind per-session locks, so requests against distinct
//! sessions run in parallel while requests against one session
//! serialize, plus a session cap and directory-wide recovery.

use crate::analyzer::{AnalyzerOptions, Edge};
use crate::applog::{AppendLog, Fields, JournalFaultPlan, LogError, LogFault, Recovered};
use crate::budget::{AnalysisBudget, CancelToken};
use crate::durable::scenario_summary;
use crate::editscript::parse_edit_script;
use crate::error::TimingError;
use crate::fingerprint::{hex64, parse_hex64, result_digest, run_id, Fnv64, JsonLine, ReadFields};
use crate::incremental::{DeltaReport, IncrementalAnalyzer};
use crate::models::ModelKind;
use crate::selfcheck::standard_scenarios;
use crate::tech::Technology;
use mosnet::sim_format;
use mosnet::units::Seconds;
use mosnet::{Edit, Network};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Session journal format version written into the header record.
pub const SESSION_JOURNAL_VERSION: u64 = 1;

/// File extension of per-session journals inside `--journal-dir`.
pub const SESSION_JOURNAL_EXT: &str = "session";

/// How many `(req_id, seq, digest)` replies each session retains for
/// duplicate-delivery detection. Bounded so a chatty client cannot grow
/// the daemon without bound; 64 comfortably covers any realistic retry
/// window (a client re-sends at most the in-flight request).
pub const REPLY_CACHE_LIMIT: usize = 64;

// ---------------------------------------------------------------------------
// Configuration and errors
// ---------------------------------------------------------------------------

/// What a session analyzes: the delay model plus the scenario shape.
///
/// Scenarios are the same standard corpus the CLI's `batch`/`check`
/// commands use — every `(input × edge)` pair under the given static
/// levels — optionally narrowed to one input and/or one edge.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Delay model for every scenario.
    pub model: ModelKind,
    /// Input 10–90% transition time.
    pub transition: Seconds,
    /// Static input levels by node name (unlisted inputs sit at 0).
    pub statics: Vec<(String, bool)>,
    /// Restrict scenarios to this switching input, when set.
    pub input: Option<String>,
    /// Restrict scenarios to this edge, when set.
    pub edge: Option<Edge>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            model: ModelKind::Slope,
            transition: Seconds::ZERO,
            statics: Vec::new(),
            input: None,
            edge: None,
        }
    }
}

/// Failures of the session layer, classified the way the wire protocol
/// needs them.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionError {
    /// The uploaded netlist failed to parse; the message carries the
    /// parser's line and column.
    Parse(String),
    /// An analysis failed (budget, cancellation, bad edit target, ...).
    /// [`TimingError::was_cancelled`] distinguishes deadline kills.
    Timing(TimingError),
    /// A malformed request: bad session id, unknown node name, empty or
    /// unparseable edit script.
    BadRequest(String),
    /// The session cap is reached; retry after closing a session.
    Limit {
        /// Sessions currently open.
        active: usize,
        /// The configured cap.
        max: usize,
    },
    /// The session was poisoned by an earlier panicking request; the
    /// message describes the panic. Close and re-open to recover.
    Poisoned(String),
    /// Journal file I/O failed.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error text.
        message: String,
    },
    /// A journal write or compaction failed *after* the session state
    /// changed: the session transitioned to degraded (journaling
    /// suspended, state ephemeral). Not retryable — retrying cannot
    /// restore durability; the client must decide whether ephemeral
    /// results are acceptable or re-open the session elsewhere.
    Storage {
        /// The journal path that failed.
        path: PathBuf,
        /// The underlying error text.
        message: String,
    },
    /// A journal failed verification during recovery: damaged beyond
    /// the torn tail, fingerprint mismatch, or a replay digest that no
    /// longer matches what was recorded.
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// What failed to verify.
        message: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(m) => write!(f, "netlist parse error: {m}"),
            SessionError::Timing(e) => write!(f, "{e}"),
            SessionError::BadRequest(m) => f.write_str(m),
            SessionError::Limit { active, max } => {
                write!(f, "session limit reached ({active} of {max} open)")
            }
            SessionError::Poisoned(m) => {
                write!(f, "session poisoned by an earlier panic: {m}")
            }
            SessionError::Io { path, message } => {
                write!(f, "session journal `{}`: {message}", path.display())
            }
            SessionError::Storage { path, message } => {
                write!(
                    f,
                    "session storage failure on `{}`: {message} \
                     (session degraded: journaling suspended, state is now ephemeral)",
                    path.display()
                )
            }
            SessionError::Corrupt { path, message } => {
                write!(
                    f,
                    "session journal `{}` failed verification: {message}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<TimingError> for SessionError {
    fn from(e: TimingError) -> SessionError {
        SessionError::Timing(e)
    }
}

/// `true` when `id` is usable as a session id (and thus a journal file
/// stem): 1–64 characters from `[A-Za-z0-9_.-]`, not starting with a
/// dot or dash. Rejecting everything else keeps ids printable and makes
/// path traversal through a client-chosen id impossible.
pub fn valid_session_id(id: &str) -> bool {
    (1..=64).contains(&id.len())
        && !id.starts_with(['.', '-'])
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// Content fingerprint of a session: the uploaded netlist text, the
/// technology stamp, and every result-affecting piece of the
/// [`SessionConfig`]. Built from the same [`Fnv64`] stream as
/// [`crate::fingerprint::run_fingerprint`]; per-request budgets and
/// cancel tokens are excluded, because they can only abort a request,
/// never change a successful result.
pub fn session_fingerprint(netlist_text: &str, tech: &Technology, config: &SessionConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write(netlist_text.as_bytes());
    h.write_u64(crate::memo::tech_stamp(tech));
    h.write(format!("{:?}", config.model).as_bytes());
    h.write_f64(config.transition.value());
    let mut statics = config.statics.clone();
    statics.sort();
    for (name, level) in &statics {
        h.write(name.as_bytes());
        h.write(&[0, u8::from(*level)]);
    }
    h.write(config.input.as_deref().unwrap_or("").as_bytes());
    h.write(&[0]);
    h.write(config.edge.map_or("any", Edge::name).as_bytes());
    h.finish()
}

/// The static-level list as the session journal header stores it:
/// `name=0|1` pairs, sorted, comma-separated.
fn statics_text(statics: &[(String, bool)]) -> String {
    let mut statics = statics.to_vec();
    statics.sort();
    let pairs: Vec<String> = statics
        .iter()
        .map(|(name, level)| format!("{name}={}", u8::from(*level)))
        .collect();
    pairs.join(",")
}

/// Parses a `name=0|1,...` static-level list — the daemon's `set`
/// request field and the journal header's `statics`.
pub(crate) fn parse_statics(text: &str) -> Result<Vec<(String, bool)>, String> {
    text.split(',')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (name, level) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad static `{pair}` (want name=0|1)"))?;
            match level {
                "0" => Ok((name.to_string(), false)),
                "1" => Ok((name.to_string(), true)),
                other => Err(format!("bad static level `{other}` (want 0 or 1)")),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------------

impl From<LogError> for SessionError {
    fn from(e: LogError) -> SessionError {
        let (path, message) = (e.path.clone(), e.to_string());
        match e.fault {
            LogFault::Io(_) => SessionError::Io { path, message },
            _ => SessionError::Corrupt { path, message },
        }
    }
}

/// The self-contained header record. `base_seq`/`checkpoint` are only
/// written by compaction (`base_seq > 0`), so fresh journals stay
/// byte-compatible with the v1 format and old journals resume
/// unchanged: a header without them is a checkpoint at seq 0 whose
/// digest needs no verification (the netlist *is* the state).
fn session_header_line(
    id: &str,
    fingerprint: u64,
    netlist_name: &str,
    netlist_text: &str,
    config: &SessionConfig,
    base_seq: u64,
    checkpoint: Option<u64>,
) -> String {
    let mut line = JsonLine::new()
        .str("kind", "session")
        .num("v", SESSION_JOURNAL_VERSION)
        .str("id", id)
        .str("run", &run_id("session", fingerprint))
        .hex("fingerprint", fingerprint)
        .str("model", config.model.name())
        .hex("transition", config.transition.value().to_bits())
        .str("statics", &statics_text(&config.statics));
    if let Some(input) = &config.input {
        line = line.str("input", input);
    }
    if let Some(edge) = config.edge {
        line = line.str("edge", edge.name());
    }
    if base_seq > 0 {
        line = line.num("base_seq", base_seq);
        if let Some(digest) = checkpoint {
            line = line.hex("checkpoint", digest);
        }
    }
    line.str("name", netlist_name)
        .str("netlist", netlist_text)
        .finish()
        + "\n"
}

fn edit_record_line(seq: u64, script: &str, digest: u64, req_id: Option<&str>) -> String {
    let mut line = JsonLine::new()
        .str("kind", "edit")
        .num("seq", seq)
        .str("script", script)
        .hex("digest", digest);
    if let Some(req_id) = req_id {
        line = line.str("req", req_id);
    }
    line.finish() + "\n"
}

/// Decodes one edit record: `(seq, script, digest, req_id)`.
fn edit_from_fields(fields: &Fields) -> Option<(u64, String, u64, Option<String>)> {
    if fields.str("kind") != Some("edit") {
        return None;
    }
    Some((
        fields.num("seq")?,
        fields.string("script")?,
        fields.hex("digest")?,
        fields.string("req"),
    ))
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// One client's persistent, journal-backed incremental analysis.
///
/// See the [module docs](self) for the durability contract. All methods
/// take `&mut self`; concurrent access is the [`SessionManager`]'s job.
#[derive(Debug)]
pub struct Session {
    id: String,
    config: SessionConfig,
    fingerprint: u64,
    netlist_name: String,
    analyzer: IncrementalAnalyzer,
    /// Every scenario's [`result_digest`], in session order.
    digests: Vec<u64>,
    journal: Option<AppendLog>,
    seq: u64,
    /// Seq of the journal's checkpoint header: replay after a restart
    /// starts here, so recovery work is O(seq - base_seq).
    base_seq: u64,
    /// Edit records replayed by the last [`Session::resume`].
    replayed: u64,
    poisoned: Option<String>,
    /// Why journaling was suspended, when a storage fault degraded the
    /// session. A degraded session keeps answering (ephemeral state)
    /// but is no longer durable.
    degraded: Option<String>,
    /// Bounded `(req_id, seq, digest)` history for duplicate-delivery
    /// detection; rebuilt from the journal tail on resume.
    replies: VecDeque<(String, u64, u64)>,
    last_used: Instant,
}

impl Session {
    /// Opens a fresh session: parses `netlist_text`, analyzes every
    /// standard scenario the config selects, and (when `journal_path`
    /// is given) creates the journal with the session header. The
    /// journal file is created with `create_new`, so two opens racing
    /// on one id cannot silently share a file.
    ///
    /// # Errors
    /// [`SessionError::Parse`] on netlist errors (message carries line
    /// and column); [`SessionError::BadRequest`] on bad ids, unknown
    /// node names, or an empty scenario set; [`SessionError::Timing`]
    /// when the initial analysis fails (including budget/deadline
    /// aborts — no session or journal is left behind);
    /// [`SessionError::Io`] when the journal cannot be written.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        id: &str,
        netlist_text: &str,
        netlist_name: &str,
        tech: &Technology,
        config: &SessionConfig,
        options: AnalyzerOptions,
        journal_path: Option<&Path>,
        faults: &JournalFaultPlan,
    ) -> Result<Session, SessionError> {
        if !valid_session_id(id) {
            return Err(SessionError::BadRequest(format!(
                "invalid session id `{id}` (want 1-64 chars of [A-Za-z0-9_.-], \
                 not starting with `.` or `-`)"
            )));
        }
        for (name, _) in &config.statics {
            if name.contains(['=', ',']) {
                return Err(SessionError::BadRequest(format!(
                    "static input name `{name}` may not contain `=` or `,`"
                )));
            }
        }
        // Pin the session to the *canonical* netlist text from the
        // start. Edits preserve node ids, and `sim_format::write` is a
        // fixed point on its own output, so the canonical text a later
        // checkpoint writes rebuilds this exact network — same node
        // order, same capacitance bits — which is what makes a
        // compacted resume bit-identical.
        let netlist_text = canonical_netlist(netlist_text, netlist_name)?;
        let netlist_text = netlist_text.as_str();
        let analyzer = build_analyzer(netlist_text, netlist_name, tech, config, options)?;
        let fingerprint = session_fingerprint(netlist_text, tech, config);
        let journal = match journal_path {
            None => None,
            Some(path) => {
                let header = session_header_line(
                    id,
                    fingerprint,
                    netlist_name,
                    netlist_text,
                    config,
                    0,
                    None,
                );
                Some(AppendLog::create_new(path, &header, faults)?)
            }
        };
        Ok(Session {
            id: id.to_string(),
            config: config.clone(),
            fingerprint,
            netlist_name: netlist_name.to_string(),
            digests: result_digests(&analyzer),
            analyzer,
            journal,
            seq: 0,
            base_seq: 0,
            replayed: 0,
            poisoned: None,
            degraded: None,
            replies: VecDeque::new(),
            last_used: Instant::now(),
        })
    }

    /// Recovers a session from its journal: re-parses the recorded
    /// netlist, re-applies every journaled edit, and verifies each
    /// recorded digest bit-for-bit. A torn final line (daemon killed
    /// mid-append) is dropped and truncated away — that edit was never
    /// acknowledged; any earlier damage, a fingerprint mismatch (the
    /// server's technology changed), or a digest that fails to
    /// reproduce is [`SessionError::Corrupt`].
    pub fn resume(
        path: &Path,
        tech: &Technology,
        options: AnalyzerOptions,
        faults: &JournalFaultPlan,
    ) -> Result<Session, SessionError> {
        let edit = |fields: Fields| edit_from_fields(&fields);
        let (journal, mut session) =
            AppendLog::resume(path, "session", None, faults, edit, |recovered| {
                Session::replay(path, tech, options, recovered)
            })?;
        session.journal = Some(journal);
        Ok(session)
    }

    /// The check behind [`Session::resume`]: rebuilds the session from
    /// the recovered header and replays every edit, verifying each
    /// recorded digest. The journal is reopened only after this passes.
    fn replay(
        path: &Path,
        tech: &Technology,
        options: AnalyzerOptions,
        recovered: Recovered<(u64, String, u64, Option<String>)>,
    ) -> Result<Session, SessionError> {
        let corrupt = |message: String| SessionError::Corrupt {
            path: path.to_path_buf(),
            message,
        };
        let header = recovered.header;
        if header.num("v") != Some(SESSION_JOURNAL_VERSION) {
            return Err(corrupt("not a session journal header".to_string()));
        }

        // Rebuild the configuration from the self-contained header.
        let field = |key: &str| {
            header
                .string(key)
                .ok_or_else(|| corrupt(format!("header missing `{key}`")))
        };
        let id = field("id")?;
        if !valid_session_id(&id) {
            return Err(corrupt(format!("invalid session id `{id}`")));
        }
        let recorded_fingerprint =
            parse_hex64(&field("fingerprint")?).ok_or_else(|| corrupt("bad fingerprint".into()))?;
        let transition = Seconds(f64::from_bits(
            parse_hex64(&field("transition")?).ok_or_else(|| corrupt("bad transition".into()))?,
        ));
        let config = SessionConfig {
            model: field("model")?.parse().map_err(corrupt)?,
            transition,
            statics: parse_statics(&field("statics")?).map_err(corrupt)?,
            input: header.string("input"),
            edge: header
                .str("edge")
                .map(str::parse)
                .transpose()
                .map_err(corrupt)?,
        };
        let netlist_name = field("name")?;
        let netlist_text = field("netlist")?;
        let base_seq = header
            .opt_num("base_seq")
            .ok_or_else(|| corrupt(format!("bad base_seq `{}`", header["base_seq"])))?
            .unwrap_or(0);
        let checkpoint = header
            .opt_hex("checkpoint")
            .ok_or_else(|| corrupt("bad checkpoint digest".into()))?;

        // The journal is self-contained except for the technology, which
        // belongs to the daemon: recompute the fingerprint and refuse to
        // resume a session whose inputs no longer hash the same.
        let fingerprint = session_fingerprint(&netlist_text, tech, &config);
        if fingerprint != recorded_fingerprint {
            return Err(corrupt(format!(
                "fingerprint {} does not match recorded {} \
                 (the server technology changed since the journal was written?)",
                hex64(fingerprint),
                hex64(recorded_fingerprint)
            )));
        }

        // Rebuild and verify: replay is only a recovery if the digests
        // prove bit-identity with what the client was told.
        let analyzer = build_analyzer(&netlist_text, &netlist_name, tech, &config, options)
            .map_err(|e| corrupt(format!("journaled netlist no longer analyzes: {e}")))?;
        let mut session = Session {
            id,
            config,
            fingerprint,
            netlist_name,
            digests: result_digests(&analyzer),
            analyzer,
            journal: None,
            seq: base_seq,
            base_seq,
            replayed: 0,
            poisoned: None,
            degraded: None,
            replies: VecDeque::new(),
            last_used: Instant::now(),
        };
        // A compacted header *is* a verified state: the checkpoint
        // digest proves the rewritten netlist reproduces what the
        // client was last told, bit for bit.
        if let Some(recorded) = checkpoint {
            let digest = session.digest();
            if digest != recorded {
                return Err(corrupt(format!(
                    "checkpoint rebuilt to digest {} but the journal recorded {}",
                    hex64(digest),
                    hex64(recorded)
                )));
            }
        }
        for (seq, script, recorded_digest, req_id) in recovered.records {
            let parsed = parse_edit_script(&script)
                .map_err(|e| corrupt(format!("edit {seq} no longer parses: {e}")))?;
            session
                .apply_edits(&parsed)
                .map_err(|e| corrupt(format!("edit {seq} no longer applies: {e}")))?;
            let digest = session.digest();
            if digest != recorded_digest {
                return Err(corrupt(format!(
                    "edit {seq} replayed to digest {} but the journal recorded {}",
                    hex64(digest),
                    hex64(recorded_digest)
                )));
            }
            session.seq = seq;
            session.replayed += 1;
            if let Some(req_id) = req_id {
                session.record_reply(&req_id, seq, digest);
            }
        }
        Ok(session)
    }

    /// The session id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The session fingerprint pinning its journal.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of edit records applied (and journaled) so far.
    pub fn edits_applied(&self) -> u64 {
        self.seq
    }

    /// Seq of the journal's checkpoint header (0 for a never-compacted
    /// session): a restart replays only `edits_applied() - base_seq()`
    /// edits.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Edits the journal tail still carries — the replay cost a restart
    /// would pay right now.
    pub fn edits_since_checkpoint(&self) -> u64 {
        self.seq - self.base_seq
    }

    /// Edit records the last [`Session::resume`] actually replayed
    /// through the engine (0 for a freshly opened session).
    pub fn edits_replayed(&self) -> u64 {
        self.replayed
    }

    /// The name the netlist was uploaded under.
    pub fn netlist_name(&self) -> &str {
        &self.netlist_name
    }

    /// The panic message that poisoned this session, if any.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Why the session is degraded (journaling suspended after a
    /// storage fault), if it is.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Marks the session as touched by a request; leases count idleness
    /// from here.
    pub fn touch(&mut self) {
        self.last_used = Instant::now();
    }

    /// Time since the last [`Session::touch`] (or open/resume).
    pub fn idle_for(&self) -> Duration {
        self.last_used.elapsed()
    }

    /// The journaled reply for a previously applied request id: a
    /// duplicate delivery (client retry after a lost response) gets the
    /// original `(seq, digest)` back instead of a second application.
    pub fn cached_reply(&self, req_id: &str) -> Option<(u64, u64)> {
        self.replies
            .iter()
            .rev()
            .find(|(id, _, _)| id == req_id)
            .map(|(_, seq, digest)| (*seq, *digest))
    }

    fn record_reply(&mut self, req_id: &str, seq: u64, digest: u64) {
        if self.replies.len() >= REPLY_CACHE_LIMIT {
            self.replies.pop_front();
        }
        self.replies.push_back((req_id.to_string(), seq, digest));
    }

    /// Suspends journaling after a storage fault: the journal handle is
    /// dropped (the on-disk file keeps its last consistent state), the
    /// session keeps answering, and every later response can see the
    /// degradation via [`Session::degraded`].
    fn degrade(&mut self, message: impl Into<String>) {
        self.degraded.get_or_insert(message.into());
        self.journal = None;
    }

    /// Marks the session poisoned: a request against it panicked, so
    /// its in-memory state can no longer be trusted. Every subsequent
    /// operation fails with [`SessionError::Poisoned`] until the client
    /// closes it. The journal keeps only acknowledged edits, so a
    /// daemon restart recovers the pre-panic state.
    pub fn poison(&mut self, message: impl Into<String>) {
        self.poisoned.get_or_insert(message.into());
    }

    /// The underlying analyzer (current network, per-scenario results).
    pub fn analyzer(&self) -> &IncrementalAnalyzer {
        &self.analyzer
    }

    /// Sets the per-request budget and cancel token for the next
    /// operation; see [`IncrementalAnalyzer::set_request_controls`].
    pub fn set_request_controls(&mut self, budget: AnalysisBudget, cancel: Option<CancelToken>) {
        self.analyzer.set_request_controls(budget, cancel);
    }

    /// Applies an edit script (one or more grammar lines) as a single
    /// journaled step and returns the incremental delta with the session
    /// digest it journaled (the value [`Session::digest`] now returns).
    ///
    /// Ordering is the durability contract: the edit is journaled
    /// (fsync'd) *before* the caller can acknowledge it, so a crash
    /// after the response loses nothing and a crash before the append
    /// loses only an unacknowledged edit.
    ///
    /// # Errors
    /// [`SessionError::Poisoned`] after an earlier panic;
    /// [`SessionError::BadRequest`] when the script does not parse or
    /// is empty (session untouched); [`SessionError::Timing`] when the
    /// re-analysis fails or is cancelled (session untouched);
    /// [`SessionError::Storage`] when the journal append fails: the
    /// edit *is* applied in memory, but durability is gone — the
    /// session degrades (journaling suspended, ephemeral) and the
    /// caller must surface the non-retryable failure to the client.
    ///
    /// A `req_id` (when the client sends one) is journaled with the
    /// edit and remembered in the bounded reply cache, so a duplicate
    /// delivery of the same request returns the original `(seq,
    /// digest)` instead of re-applying — see [`Session::cached_reply`].
    pub fn apply_script(
        &mut self,
        script: &str,
        req_id: Option<&str>,
    ) -> Result<(DeltaReport, u64), SessionError> {
        if let Some(message) = &self.poisoned {
            return Err(SessionError::Poisoned(message.clone()));
        }
        let edits = parse_edit_script(script).map_err(SessionError::BadRequest)?;
        if edits.is_empty() {
            return Err(SessionError::BadRequest(
                "edit script contains no edits".to_string(),
            ));
        }
        let delta = self.apply_edits(&edits)?;
        self.seq += 1;
        let digest = self.digest();
        if let Some(journal) = &mut self.journal {
            let line = edit_record_line(self.seq, script, digest, req_id);
            if let Err(e) = journal.append(&line) {
                let path = journal.path().to_path_buf();
                let e = SessionError::from(e);
                self.degrade(e.to_string());
                return Err(SessionError::Storage {
                    path,
                    message: format!("edit {} applied but not journaled: {e}", self.seq),
                });
            }
        }
        if let Some(req_id) = req_id {
            self.record_reply(req_id, self.seq, digest);
        }
        Ok((delta, digest))
    }

    /// Applies parsed edits and re-digests only the scenarios whose
    /// delta is non-empty: a scenario with no changed arrival keeps its
    /// digest, since edits never rename a node.
    fn apply_edits(&mut self, edits: &[Edit]) -> Result<DeltaReport, TimingError> {
        let delta = self.analyzer.apply_edits(edits)?;
        let net = self.analyzer.network();
        for (digest, scenario) in self.digests.iter_mut().zip(&delta.scenarios) {
            if !scenario.changed.is_empty() {
                let result =
                    (self.analyzer.result(&scenario.label)).expect("every label has a result");
                *digest = result_digest(net, result);
            }
        }
        Ok(delta)
    }

    /// Compacts the journal: atomically rewrites it as one checkpoint
    /// header — the *current* netlist text, configuration, fingerprint,
    /// and result digest — with an empty edit tail, via
    /// write-temp/fsync/rename ([`AppendLog::replace`]). A crash at any
    /// byte leaves either the old journal or the new one, both valid;
    /// a resume afterwards replays O(edits since checkpoint) instead of
    /// the session's lifetime. On success the session fingerprint is
    /// re-pinned to the checkpoint netlist and `base_seq` advances to
    /// the current seq.
    ///
    /// # Errors
    /// [`SessionError::BadRequest`] when the session has no journal
    /// (never had one, or already degraded);
    /// [`SessionError::Poisoned`] after an earlier panic;
    /// [`SessionError::Storage`] when the rewrite fails — the session
    /// degrades, but the on-disk journal keeps its pre-compaction
    /// state, so a restart still recovers everything acknowledged.
    pub fn compact(&mut self, tech: &Technology) -> Result<(), SessionError> {
        if let Some(message) = &self.poisoned {
            return Err(SessionError::Poisoned(message.clone()));
        }
        if self.journal.is_none() {
            return Err(SessionError::BadRequest(match &self.degraded {
                Some(reason) => format!("session is degraded ({reason}); nothing to compact"),
                None => "session has no journal to compact".to_string(),
            }));
        }
        let netlist_text = sim_format::write(self.analyzer.network());
        // Prove the checkpoint rebuilds this exact network before
        // committing to it: sessions open on canonical text and edits
        // preserve node ids, so this always holds — but if it ever did
        // not (a capacitance with no exact decimal preimage, say), a
        // committed checkpoint would refuse to resume. Declining is
        // harmless: the session keeps journaling, replay just stays
        // longer.
        match sim_format::parse(&netlist_text, &self.netlist_name) {
            Ok(reparsed) if networks_identical(self.analyzer.network(), &reparsed) => {}
            _ => {
                return Err(SessionError::BadRequest(
                    "checkpoint text does not rebuild the network bit-identically; \
                     compaction skipped (the journal is intact)"
                        .to_string(),
                ));
            }
        }
        let fingerprint = session_fingerprint(&netlist_text, tech, &self.config);
        let header = session_header_line(
            &self.id,
            fingerprint,
            &self.netlist_name,
            &netlist_text,
            &self.config,
            self.seq,
            Some(self.digest()),
        );
        let replaced = self.journal.as_mut().map_or(Ok(()), |j| j.replace(&header));
        if let Err(e) = replaced {
            self.degrade(e.to_string());
            return Err(SessionError::Storage {
                message: format!("compaction failed: {e}"),
                path: e.path,
            });
        }
        self.fingerprint = fingerprint;
        self.base_seq = self.seq;
        Ok(())
    }

    /// Combined digest over every scenario's [`result_digest`], in
    /// session order — the value journaled per edit, reported to
    /// clients, and verified on recovery.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for (label, &digest) in self.analyzer.labels().zip(&self.digests) {
            h.write(label.as_bytes());
            h.write(&[0]);
            h.write_u64(digest);
        }
        h.finish()
    }

    /// Per-scenario `(label, digest, summary)` rows in session order —
    /// the payload of the server's `report` op.
    pub fn scenario_rows(&self) -> Vec<(String, u64, String)> {
        let net = self.analyzer.network();
        (self.analyzer.labels().zip(&self.digests))
            .map(|(label, &digest)| {
                let result = self
                    .analyzer
                    .result(label)
                    .expect("every session label has a result");
                (label.to_string(), digest, scenario_summary(net, result))
            })
            .collect()
    }

    /// Deletes the journal file (used when the client closes the
    /// session — a closed session has nothing to recover).
    pub fn remove_journal(&mut self) -> Result<(), SessionError> {
        if let Some(journal) = self.journal.take() {
            let path = journal.path().to_path_buf();
            drop(journal);
            std::fs::remove_file(&path).map_err(|e| SessionError::Io {
                message: e.to_string(),
                path,
            })?;
        }
        Ok(())
    }
}

/// Parses a netlist and re-serializes it in canonical `.sim` form — the
/// text [`Session::open`] pins its state to, and the form a journal
/// checkpoint stores. The canonical form is a fixed point of
/// write∘parse (rails first, then declared inputs/outputs, transistors,
/// capacitances; round-trip-exact decimals), so open, compaction, and
/// resume all rebuild the identical network, node ids and all.
///
/// # Errors
/// [`SessionError::Parse`] when the text does not parse.
pub fn canonical_netlist(netlist_text: &str, netlist_name: &str) -> Result<String, SessionError> {
    let net = sim_format::parse(netlist_text, netlist_name)
        .map_err(|e| SessionError::Parse(format!("{netlist_name}: {e}")))?;
    Ok(sim_format::write(&net))
}

/// Bitwise structural equality: same node ids, names, kinds, and
/// capacitance bits; same transistors with the same terminals and
/// geometry bits. This is the property a checkpoint needs — anything
/// weaker and the rebuilt analyzer could hash results differently.
fn networks_identical(a: &Network, b: &Network) -> bool {
    a.node_count() == b.node_count()
        && a.transistor_count() == b.transistor_count()
        && a.power() == b.power()
        && a.ground() == b.ground()
        && a.nodes().zip(b.nodes()).all(|((ia, na), (ib, nb))| {
            ia == ib
                && na.name() == nb.name()
                && na.kind() == nb.kind()
                && na.capacitance() == nb.capacitance()
        })
        && a.transistors()
            .zip(b.transistors())
            .all(|((_, ta), (_, tb))| {
                ta.kind() == tb.kind()
                    && ta.gate() == tb.gate()
                    && ta.source() == tb.source()
                    && ta.drain() == tb.drain()
                    && ta.geometry() == tb.geometry()
            })
}

/// Every scenario's [`result_digest`], in session order.
fn result_digests(analyzer: &IncrementalAnalyzer) -> Vec<u64> {
    let net = analyzer.network();
    (analyzer.labels())
        .map(|label| {
            result_digest(
                net,
                analyzer.result(label).expect("every label has a result"),
            )
        })
        .collect()
}

/// Parses the netlist and builds the analyzer over the configured
/// scenario subset — shared by [`Session::open`] and
/// [`Session::resume`].
fn build_analyzer(
    netlist_text: &str,
    netlist_name: &str,
    tech: &Technology,
    config: &SessionConfig,
    options: AnalyzerOptions,
) -> Result<IncrementalAnalyzer, SessionError> {
    let net = sim_format::parse(netlist_text, netlist_name)
        .map_err(|e| SessionError::Parse(format!("{netlist_name}: {e}")))?;
    let mut statics = HashMap::new();
    for (name, level) in &config.statics {
        let id = net.node_by_name(name).ok_or_else(|| {
            SessionError::BadRequest(format!("no node named `{name}` in the netlist"))
        })?;
        statics.insert(id, *level);
    }
    let mut scenarios = standard_scenarios(&net, &statics, config.transition);
    if let Some(name) = config.input.as_deref() {
        let input = net.node_by_name(name).ok_or_else(|| {
            SessionError::BadRequest(format!("no node named `{name}` in the netlist"))
        })?;
        scenarios.retain(|(_, s)| s.input == input);
    }
    if let Some(edge) = config.edge {
        scenarios.retain(|(_, s)| s.edge == edge);
    }
    if scenarios.is_empty() {
        return Err(SessionError::BadRequest(
            "no scenarios to analyze (no inputs, or filters exclude all)".to_string(),
        ));
    }
    IncrementalAnalyzer::new(net, tech.clone(), config.model, scenarios, options)
        .map_err(SessionError::Timing)
}

// ---------------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------------

/// What a directory-wide recovery found: sessions restored and journals
/// that failed verification (skipped, never fatal to the daemon).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Ids of sessions recovered and re-registered.
    pub recovered: Vec<String>,
    /// `(journal path, reason)` for every journal that failed.
    pub failed: Vec<(PathBuf, String)>,
    /// Total edit records replayed through the engine — the work
    /// compaction exists to bound.
    pub edits_replayed: u64,
}

/// The daemon's name-keyed session table.
///
/// The map lock is held only for lookups and registration; each session
/// sits behind its own mutex, so requests against distinct sessions run
/// concurrently while requests against one session serialize.
#[derive(Debug)]
pub struct SessionManager {
    tech: Technology,
    journal_dir: Option<PathBuf>,
    max_sessions: usize,
    faults: JournalFaultPlan,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
}

impl SessionManager {
    /// Creates the manager, creating `journal_dir` if it does not exist.
    ///
    /// # Errors
    /// [`SessionError::Io`] when the directory cannot be created.
    pub fn new(
        tech: Technology,
        journal_dir: Option<PathBuf>,
        max_sessions: usize,
        faults: JournalFaultPlan,
    ) -> Result<SessionManager, SessionError> {
        if let Some(dir) = &journal_dir {
            std::fs::create_dir_all(dir).map_err(|e| SessionError::Io {
                path: dir.clone(),
                message: e.to_string(),
            })?;
        }
        Ok(SessionManager {
            tech,
            journal_dir,
            max_sessions,
            faults,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        })
    }

    /// The daemon technology sessions analyze against.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().expect("session map lock").len()
    }

    /// Open session ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .sessions
            .lock()
            .expect("session map lock")
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids
    }

    /// The journal path a session id maps to, when journaling is on.
    pub fn journal_path(&self, id: &str) -> Option<PathBuf> {
        self.journal_dir
            .as_ref()
            .map(|dir| dir.join(format!("{id}.{SESSION_JOURNAL_EXT}")))
    }

    /// Opens a new session and registers it; `id: None` allocates
    /// `s1`, `s2`, … skipping taken names.
    ///
    /// # Errors
    /// [`SessionError::Limit`] at the session cap;
    /// [`SessionError::BadRequest`] when the id is taken or invalid;
    /// plus everything [`Session::open`] returns.
    pub fn open(
        &self,
        id: Option<&str>,
        netlist_text: &str,
        netlist_name: &str,
        config: &SessionConfig,
        options: AnalyzerOptions,
    ) -> Result<(String, Arc<Mutex<Session>>), SessionError> {
        // Cheap pre-checks under the map lock; the expensive analysis
        // runs unlocked and registration re-validates.
        let id = {
            let sessions = self.sessions.lock().expect("session map lock");
            if sessions.len() >= self.max_sessions {
                return Err(SessionError::Limit {
                    active: sessions.len(),
                    max: self.max_sessions,
                });
            }
            match id {
                Some(id) => {
                    if sessions.contains_key(id) {
                        return Err(SessionError::BadRequest(format!(
                            "session `{id}` already exists"
                        )));
                    }
                    id.to_string()
                }
                None => loop {
                    let n = self.next_id.fetch_add(1, Ordering::Relaxed);
                    let candidate = format!("s{n}");
                    if !sessions.contains_key(&candidate) {
                        break candidate;
                    }
                },
            }
        };
        let journal_path = self.journal_path(&id);
        let session = Session::open(
            &id,
            netlist_text,
            netlist_name,
            &self.tech,
            config,
            options,
            journal_path.as_deref(),
            &self.faults,
        )?;
        let session = Arc::new(Mutex::new(session));
        let mut sessions = self.sessions.lock().expect("session map lock");
        if sessions.len() >= self.max_sessions {
            // Lost a race to the cap while analyzing: shed, and leave no
            // journal behind for a session that never existed.
            drop(sessions);
            let _ = session.lock().expect("fresh session lock").remove_journal();
            return Err(SessionError::Limit {
                active: self.max_sessions,
                max: self.max_sessions,
            });
        }
        if sessions.contains_key(&id) {
            drop(sessions);
            let _ = session.lock().expect("fresh session lock").remove_journal();
            return Err(SessionError::BadRequest(format!(
                "session `{id}` already exists"
            )));
        }
        sessions.insert(id.clone(), session.clone());
        Ok((id, session))
    }

    /// Looks up an open session.
    pub fn get(&self, id: &str) -> Option<Arc<Mutex<Session>>> {
        self.sessions
            .lock()
            .expect("session map lock")
            .get(id)
            .cloned()
    }

    /// Closes a session: unregisters it and deletes its journal. An
    /// operation already in flight on the session finishes on its own
    /// `Arc`.
    ///
    /// # Errors
    /// [`SessionError::BadRequest`] for an unknown id.
    pub fn close(&self, id: &str) -> Result<(), SessionError> {
        let session = self
            .sessions
            .lock()
            .expect("session map lock")
            .remove(id)
            .ok_or_else(|| SessionError::BadRequest(format!("unknown session `{id}`")))?;
        let removed = session
            .lock()
            .expect("closing session lock")
            .remove_journal();
        removed
    }

    /// Deletes every `*.{SESSION_JOURNAL_EXT}` file in the journal
    /// directory — the non-`--resume` daemon start, mirroring how
    /// a fresh batch run truncates its journal: a journal dir
    /// belongs to one daemon lineage, and starting fresh means fresh.
    pub fn discard_journals(&self) -> usize {
        let Some(dir) = &self.journal_dir else {
            return 0;
        };
        let mut removed = 0usize;
        for path in session_journal_files(dir) {
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Recovers every session journal in the directory. Failures are
    /// collected, never fatal: one corrupt journal must not keep the
    /// daemon (or the other sessions) down. Stray `.tmp` files left by
    /// a compaction interrupted before its rename are swept away first —
    /// the journal at the real path is the authoritative state.
    pub fn recover(&self, options: &AnalyzerOptions) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Some(dir) = &self.journal_dir else {
            return report;
        };
        for path in stray_compaction_temps(dir) {
            let _ = std::fs::remove_file(&path);
        }
        for path in session_journal_files(dir) {
            match Session::resume(&path, &self.tech, options.clone(), &self.faults) {
                Ok(session) => {
                    let id = session.id().to_string();
                    report.edits_replayed += session.edits_replayed();
                    let mut sessions = self.sessions.lock().expect("session map lock");
                    if sessions.contains_key(&id) {
                        report
                            .failed
                            .push((path, format!("duplicate session id `{id}`")));
                    } else {
                        sessions.insert(id.clone(), Arc::new(Mutex::new(session)));
                        report.recovered.push(id);
                    }
                }
                Err(e) => report.failed.push((path, e.to_string())),
            }
        }
        report.recovered.sort();
        report
    }

    /// Evicts sessions idle past `ttl`, freeing their admission slots.
    /// Journals are **kept**: an evicted session is re-attachable by id
    /// via [`SessionManager::reattach`]. Sessions with a request in
    /// flight (their mutex is held) are never evicted. Returns the
    /// evicted ids, sorted.
    pub fn evict_idle(&self, ttl: Duration) -> Vec<String> {
        let mut evicted = Vec::new();
        let mut sessions = self.sessions.lock().expect("session map lock");
        sessions.retain(|id, slot| {
            let Ok(session) = slot.try_lock() else {
                return true;
            };
            if session.idle_for() < ttl {
                return true;
            }
            evicted.push(id.clone());
            false
        });
        drop(sessions);
        evicted.sort();
        evicted
    }

    /// Re-attaches an evicted (or crashed-out) session from its kept
    /// journal: resumes it, verifies every digest, and re-registers it
    /// under the same id — the lease counterpart of [`Self::recover`].
    ///
    /// # Errors
    /// [`SessionError::BadRequest`] when no journal exists for the id;
    /// [`SessionError::Limit`] at the session cap; plus everything
    /// [`Session::resume`] returns.
    pub fn reattach(
        &self,
        id: &str,
        options: &AnalyzerOptions,
    ) -> Result<(Arc<Mutex<Session>>, u64), SessionError> {
        let path = self
            .journal_path(id)
            .filter(|p| p.exists())
            .ok_or_else(|| SessionError::BadRequest(format!("unknown session `{id}`")))?;
        {
            let sessions = self.sessions.lock().expect("session map lock");
            if let Some(existing) = sessions.get(id) {
                return Ok((existing.clone(), 0));
            }
            if sessions.len() >= self.max_sessions {
                return Err(SessionError::Limit {
                    active: sessions.len(),
                    max: self.max_sessions,
                });
            }
        }
        let session = Session::resume(&path, &self.tech, options.clone(), &self.faults)?;
        let replayed = session.edits_replayed();
        let slot = Arc::new(Mutex::new(session));
        let mut sessions = self.sessions.lock().expect("session map lock");
        if let Some(existing) = sessions.get(id) {
            // Lost a re-attach race; the winner's state is as good.
            return Ok((existing.clone(), 0));
        }
        if sessions.len() >= self.max_sessions {
            return Err(SessionError::Limit {
                active: sessions.len(),
                max: self.max_sessions,
            });
        }
        sessions.insert(id.to_string(), slot.clone());
        Ok((slot, replayed))
    }

    /// Ids of currently degraded sessions (journaling suspended),
    /// sorted. Sessions with a request in flight are skipped rather
    /// than waited on — this feeds ungated `health`/`stats` responses,
    /// which must never block behind analysis.
    pub fn degraded_ids(&self) -> Vec<String> {
        let sessions = self.sessions.lock().expect("session map lock");
        let mut ids: Vec<String> = sessions
            .iter()
            .filter_map(|(id, slot)| {
                let session = slot.try_lock().ok()?;
                session.degraded().map(|_| id.clone())
            })
            .collect();
        drop(sessions);
        ids.sort();
        ids
    }
}

/// Stray `{id}.session.tmp` files: a compaction's temp file whose
/// rename never happened. Ignored by [`session_journal_files`] (their
/// extension is `tmp`), swept by recovery.
fn stray_compaction_temps(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(&format!(".{SESSION_JOURNAL_EXT}.tmp")))
                && path.is_file()
        })
        .collect()
}

/// The session journal files in `dir`, sorted for deterministic
/// recovery order.
fn session_journal_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            path.extension().and_then(|e| e.to_str()) == Some(SESSION_JOURNAL_EXT) && path.is_file()
        })
        .collect();
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    const INVERTER_CHAIN: &str = "| two inverters\ni a\no y\n\
        n a m gnd 2 8\np a m vdd 2 16\nC m 20\n\
        n m y gnd 2 8\np m y vdd 2 16\nC y 100\n";

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "crystal_session_{name}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn open_session(dir: &Path, id: &str) -> Session {
        Session::open(
            id,
            INVERTER_CHAIN,
            "chain.sim",
            &Technology::nominal(),
            &SessionConfig::default(),
            AnalyzerOptions::default(),
            Some(&dir.join(format!("{id}.{SESSION_JOURNAL_EXT}"))),
            &JournalFaultPlan::none(),
        )
        .expect("opens")
    }

    #[test]
    fn session_ids_are_validated() {
        assert!(valid_session_id("s1"));
        assert!(valid_session_id("client_7.retry-2"));
        assert!(!valid_session_id(""));
        assert!(!valid_session_id(".hidden"));
        assert!(!valid_session_id("-dash"));
        assert!(!valid_session_id("a/b"));
        assert!(!valid_session_id("x".repeat(65).as_str()));
    }

    #[test]
    fn open_edit_resume_replays_bit_identically() {
        let dir = temp_dir("resume");
        let mut session = open_session(&dir, "s1");
        let digest0 = session.digest();
        session
            .apply_script("resize a m gnd 4 8", None)
            .expect("edit 1");
        session.apply_script("cap y 150", None).expect("edit 2");
        let digest2 = session.digest();
        assert_ne!(digest0, digest2);
        let rows = session.scenario_rows();
        drop(session);

        let resumed = Session::resume(
            &dir.join(format!("s1.{SESSION_JOURNAL_EXT}")),
            &Technology::nominal(),
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect("resumes");
        assert_eq!(resumed.id(), "s1");
        assert_eq!(resumed.edits_applied(), 2);
        assert_eq!(resumed.digest(), digest2, "bit-identical replay");
        assert_eq!(resumed.scenario_rows(), rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_lines_keep_their_bytes() {
        let config = SessionConfig {
            model: ModelKind::RcTree,
            transition: Seconds(0.5e-9),
            statics: vec![("b".to_string(), true), ("a".to_string(), false)],
            input: Some("in \"x\"".to_string()),
            edge: Some(Edge::Falling),
        };
        let header =
            session_header_line("s1", 0x1234, "chain.sim", "i a\n", &config, 3, Some(0xbeef));
        assert_eq!(
            header,
            concat!(
                r#"{"kind":"session","v":1,"id":"s1","run":"session-0000000000001234","#,
                r#""fingerprint":"0000000000001234","model":"rctree","#,
                r#""transition":"3e012e0be826d695","statics":"a=0,b=1","#,
                r#""input":"in \"x\"","edge":"fall","base_seq":3,"#,
                r#""checkpoint":"000000000000beef","name":"chain.sim","netlist":"i a\n"}"#,
                "\n"
            )
        );
        let edit = edit_record_line(4, "cap y 150\nresize a m gnd 4 8", 0xdead, Some("q7-2"));
        assert_eq!(
            edit,
            concat!(
                r#"{"kind":"edit","seq":4,"script":"cap y 150\nresize a m gnd 4 8","#,
                r#""digest":"000000000000dead","req":"q7-2"}"#,
                "\n"
            )
        );
        let fields = crate::fingerprint::parse_json_object(edit.trim_end()).expect("parses");
        assert_eq!(
            edit_from_fields(&fields),
            Some((
                4,
                "cap y 150\nresize a m gnd 4 8".to_string(),
                0xdead,
                Some("q7-2".to_string())
            ))
        );
    }

    #[test]
    fn statics_whose_names_need_escaping_survive_resume() {
        let netlist = "i a\ni q\"x\ni b\\s\no y\n\
            n a m gnd 2 8\np a m vdd 2 16\nC m 20\n\
            n m y gnd 2 8\np m y vdd 2 16\n\
            n q\"x y gnd 2 8\nn b\\s y gnd 2 8\nC y 100\n";
        let dir = temp_dir("escaped_statics");
        let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
        let config = SessionConfig {
            statics: vec![("b\\s".to_string(), false), ("q\"x".to_string(), false)],
            input: Some("a".to_string()),
            ..SessionConfig::default()
        };
        let mut session = Session::open(
            "s1",
            netlist,
            "escaped.sim",
            &Technology::nominal(),
            &config,
            AnalyzerOptions::default(),
            Some(&path),
            &JournalFaultPlan::none(),
        )
        .expect("opens");
        session.apply_script("cap y 150", None).expect("edit");
        let digest = session.digest();
        drop(session);
        let resumed = Session::resume(
            &path,
            &Technology::nominal(),
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect("resumes");
        assert_eq!(resumed.config(), &config);
        assert_eq!(resumed.digest(), digest, "bit-identical replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_drops_only_the_unacknowledged_edit() {
        let dir = temp_dir("torn");
        let mut session = open_session(&dir, "s1");
        session.apply_script("cap y 150", None).expect("edit 1");
        let digest1 = session.digest();
        session.apply_script("cap y 200", None).expect("edit 2");
        drop(session);
        let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
        // Tear the final record mid-line, as a crash mid-append would.
        let text = std::fs::read_to_string(&path).expect("journal reads");
        let torn = &text[..text.len() - 7];
        std::fs::write(&path, torn).expect("tears");

        let resumed = Session::resume(
            &path,
            &Technology::nominal(),
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect("resumes");
        assert_eq!(resumed.edits_applied(), 1, "torn edit dropped");
        assert_eq!(resumed.digest(), digest1);
        // The torn bytes are truncated away, so a re-resume is clean.
        let replay = Session::resume(
            &path,
            &Technology::nominal(),
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect("re-resumes");
        assert_eq!(replay.digest(), digest1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_damage_and_tech_changes_are_corrupt() {
        let dir = temp_dir("corrupt");
        let mut session = open_session(&dir, "s1");
        session.apply_script("cap y 150", None).expect("edit 1");
        session.apply_script("cap y 200", None).expect("edit 2");
        drop(session);
        let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
        let text = std::fs::read_to_string(&path).expect("journal reads");

        // Damage a non-tail line: corruption, not recovery.
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        let damaged = format!("{}garbage\n", lines[1].trim_end());
        lines[1] = &damaged;
        std::fs::write(&path, lines.concat()).expect("writes");
        let err = Session::resume(
            &path,
            &Technology::nominal(),
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect_err("corrupt");
        assert!(matches!(err, SessionError::Corrupt { .. }), "{err}");

        // Restore, then resume under a different technology: refused.
        std::fs::write(&path, &text).expect("restores");
        let mut other = Technology::nominal();
        other.name = "other".to_string();
        let err = Session::resume(
            &path,
            &other,
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect_err("tech mismatch");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_edits_leave_session_and_journal_untouched() {
        let dir = temp_dir("atomic");
        let mut session = open_session(&dir, "s1");
        let digest0 = session.digest();
        // Unparseable script.
        let err = session
            .apply_script("flip everything", None)
            .expect_err("rejects");
        assert!(matches!(err, SessionError::BadRequest(_)), "{err}");
        // Parseable but inapplicable (no such device).
        let err = session
            .apply_script("remove zz zz zz", None)
            .expect_err("rejects");
        assert!(matches!(err, SessionError::Timing(_)), "{err}");
        assert_eq!(session.digest(), digest0);
        assert_eq!(session.edits_applied(), 0);
        drop(session);
        let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
        let resumed = Session::resume(
            &path,
            &Technology::nominal(),
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect("resumes");
        assert_eq!(resumed.digest(), digest0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_sessions_refuse_work_but_recover_from_journal() {
        let dir = temp_dir("poison");
        let mut session = open_session(&dir, "s1");
        session.apply_script("cap y 150", None).expect("edit 1");
        let digest1 = session.digest();
        session.poison("injected panic");
        let err = session
            .apply_script("cap y 200", None)
            .expect_err("poisoned");
        assert!(matches!(err, SessionError::Poisoned(_)), "{err}");
        drop(session);
        let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
        let resumed = Session::resume(
            &path,
            &Technology::nominal(),
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect("resumes");
        assert!(resumed.poisoned().is_none(), "poison is not durable");
        assert_eq!(resumed.digest(), digest1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manager_enforces_cap_uniqueness_and_close() {
        let dir = temp_dir("manager");
        let manager = SessionManager::new(
            Technology::nominal(),
            Some(dir.clone()),
            2,
            JournalFaultPlan::none(),
        )
        .expect("creates");
        let open = |id: Option<&str>| {
            manager.open(
                id,
                INVERTER_CHAIN,
                "chain.sim",
                &SessionConfig::default(),
                AnalyzerOptions::default(),
            )
        };
        let (id1, _s1) = open(None).expect("first");
        assert_eq!(id1, "s1");
        let err = open(Some("s1")).expect_err("duplicate");
        assert!(matches!(err, SessionError::BadRequest(_)), "{err}");
        let (_id2, _s2) = open(Some("other")).expect("second");
        let err = open(None).expect_err("cap");
        assert!(matches!(err, SessionError::Limit { max: 2, .. }), "{err}");
        // Close frees the slot and deletes the journal.
        manager.close("other").expect("closes");
        assert!(!dir.join(format!("other.{SESSION_JOURNAL_EXT}")).exists());
        assert_eq!(manager.session_count(), 1);
        let _ = open(None).expect("slot freed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manager_recovers_good_journals_and_skips_bad_ones() {
        let dir = temp_dir("recover");
        let manager = SessionManager::new(
            Technology::nominal(),
            Some(dir.clone()),
            8,
            JournalFaultPlan::none(),
        )
        .expect("creates");
        let (_, s1) = manager
            .open(
                Some("good"),
                INVERTER_CHAIN,
                "chain.sim",
                &SessionConfig::default(),
                AnalyzerOptions::default(),
            )
            .expect("opens");
        s1.lock()
            .expect("lock")
            .apply_script("cap y 175", None)
            .expect("edit");
        let digest = s1.lock().expect("lock").digest();
        drop(s1);
        std::fs::write(
            dir.join(format!("bad.{SESSION_JOURNAL_EXT}")),
            "not a journal\n",
        )
        .expect("writes");

        let fresh = SessionManager::new(
            Technology::nominal(),
            Some(dir.clone()),
            8,
            JournalFaultPlan::none(),
        )
        .expect("creates");
        let report = fresh.recover(&AnalyzerOptions::default());
        assert_eq!(report.recovered, vec!["good".to_string()]);
        assert_eq!(report.failed.len(), 1);
        let recovered = fresh.get("good").expect("registered");
        assert_eq!(recovered.lock().expect("lock").digest(), digest);
        // discard_journals wipes the directory for a non-resume start.
        assert_eq!(fresh.discard_journals(), 2);
        assert!(session_journal_files(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
