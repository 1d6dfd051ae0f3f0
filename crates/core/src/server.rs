//! The timing-analysis daemon: fault-tolerant concurrent sessions over
//! a JSON-lines TCP protocol.
//!
//! `crystal-cli serve` hosts many [`crate::session::Session`]s at once,
//! each an [`crate::incremental::IncrementalAnalyzer`] a client edits
//! request by request. The daemon's job is to stay up: every failure
//! mode the batch pipeline handles per-process, the server handles
//! per-request, with an explicit status instead of a crash.
//!
//! ## Robustness surface
//!
//! * **Crash-safe sessions** — every session journals its inputs
//!   (fsync'd before the response); `kill -9` the daemon, restart with
//!   `--resume`, and [`SessionManager::recover`] replays each journal
//!   and *verifies* the replay digest-for-digest.
//! * **Admission control** — work-carrying requests are counted
//!   against a global in-flight cap; past the cap the daemon sheds the
//!   request with an [`Status::Overloaded`] response instead of
//!   queueing, so latency stays bounded and clients know to retry.
//! * **Deadlines** — each request can carry `deadline_ms` (or inherit
//!   the server default); the shared durable watchdog fires the
//!   request's [`CancelToken`] and the analysis unwinds cooperatively
//!   to [`Status::Timeout`]. `deadline_ms:0` pre-cancels — the
//!   deterministic-timeout idiom the durable tests use.
//! * **Panic isolation** — every request body runs under
//!   `catch_unwind`; a panic poisons *its session only*
//!   ([`Status::Poisoned`] from then on) while the daemon keeps
//!   serving every other session.
//! * **Graceful drain** — `SIGINT`/`SIGTERM` (or
//!   [`ServerHandle::stop`]) stops accepting connections and fails new
//!   work-carrying requests with [`Status::Interrupted`], while
//!   requests already in flight finish, journal, and respond.
//!
//! ## Protocol
//!
//! One flat JSON object per line, both directions — the same
//! [`crate::fingerprint`] codec ([`crate::fingerprint::JsonLine`] out,
//! [`crate::fingerprint::parse_json_object`] in) the journals use;
//! there is no second wire format to fuzz. Requests carry an
//! `op` plus op-specific fields; every response carries `status`
//! (see [`Status`]), `retryable`, and echoes the request's `id` field
//! for correlation.
//!
//! | op       | fields | effect |
//! |----------|--------|--------|
//! | `ping`   | — | liveness probe |
//! | `stats`  | — | counters: accepted/shed/cancelled/recovered/… |
//! | `open`   | `netlist`, opt `session`, `name`, `model`, `transition_ns`, `set`, `input`, `edge` | parse + analyze, start a session |
//! | `edit`   | `session`, `script` | apply an edit script, journal it, return the delta |
//! | `report` | `session` | per-scenario labels, digests, summaries |
//! | `batch`  | `session` | fresh serial recompute, cross-checked against the incremental state |
//! | `check`  | `session`, opt `sample`, `inject` | self-check harness over the session's scenarios |
//! | `close`  | `session` | unregister + delete the journal |
//! | `sleep`  | `ms` | *(chaos builds)* hold an in-flight slot |
//! | `crash`  | opt `session` | *(chaos builds)* deliberate panic |
//! | `history`| — | list the `--run-db` records (ID, command, completeness) |
//! | `diff`   | `a`, `b`, opt `fail_on_timing_pct`, `fail_on_perf_pct`, `fail_on_digest` | regression-diff two run records |
//!
//! Work-carrying ops (`open`/`edit`/`report`/`batch`/`check`/`history`/
//! `diff`/`sleep`/`crash`) pass admission control; `ping`/`stats`/
//! `close` always run, so health checks and cleanup work even under
//! full load or drain. `history`/`diff` answer [`Status::Error`] unless
//! the daemon was started with `--run-db`; a diff that trips a timing
//! or digest threshold answers [`Status::Divergence`] (the same status
//! a failing `check` earns), a tripped perf threshold answers
//! [`Status::Error`].

use std::fmt;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::analyzer::AnalyzerOptions;
use crate::applog::Fields;
use crate::budget::{AnalysisBudget, CancelToken};
use crate::durable::{panic_message, JournalFaultPlan, ShutdownFlag, Watchdog};
use crate::error::TimingError;
use crate::fingerprint::{hex64, parse_json_object, JsonLine, ReadFields};
use crate::memo::StageCache;
use crate::obs::{Phase, TraceSink};
use crate::runstore::{self, DiffThresholds, DiffVerdict, RunStore, RunStoreError};
use crate::selfcheck::{audit_incremental, check_network, Audit, SelfCheckConfig};
use crate::session::{
    parse_statics, session_fingerprint, RecoveryReport, Session, SessionConfig, SessionError,
    SessionManager,
};
use crate::tech::Technology;
use mosnet::units::Seconds;

/// Largest request line the daemon will buffer before failing the
/// connection — a malformed or hostile client must not balloon memory.
pub const MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Status taxonomy
// ---------------------------------------------------------------------------

/// Protocol status of one response, mirroring the CLI's stable
/// exit-code taxonomy so scripted clients can key on either surface.
///
/// [`Status::exit_code`] maps each status onto the exit code the
/// batch pipeline would have used for the same failure; `overloaded`
/// is the one server-only status (exit analog 9 — there is no batch
/// equivalent of shedding). [`Status::is_retryable`] is the
/// machine-readable retry hint every response also carries inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Status {
    /// The request succeeded.
    Ok,
    /// Generic failure: bad request fields, unknown session, an edit
    /// that does not apply. Not retryable — the request itself is wrong.
    Error,
    /// The netlist or the request line failed to parse (exit analog 2).
    ParseError,
    /// An analysis work cap fired (exit analog 3).
    Budget,
    /// A cross-check disagreed: `batch` vs the incremental state, or a
    /// `check` divergence (exit analog 4).
    Divergence,
    /// The request deadline fired (exit analog 5). Retryable.
    Timeout,
    /// The session was poisoned by an earlier panic (exit analog 6);
    /// close and re-open it.
    Poisoned,
    /// Journal or socket I/O failed (exit analog 7). Retryable.
    Io,
    /// The daemon is draining after `SIGINT`/`SIGTERM` (exit analog 8).
    /// Retryable — against the restarted daemon.
    Interrupted,
    /// Admission control shed the request: the global in-flight cap is
    /// reached (exit analog 9, server-only). Retryable after backoff.
    Overloaded,
    /// A journal write or compaction failed after the session state
    /// changed: the session is now degraded (journaling suspended,
    /// ephemeral) — exit analog 10. **Not** retryable: the request
    /// already took effect in memory; re-sending cannot restore
    /// durability.
    Storage,
}

impl Status {
    /// Every status, in exit-code order.
    pub const ALL: [Status; 11] = [
        Status::Ok,
        Status::Error,
        Status::ParseError,
        Status::Budget,
        Status::Divergence,
        Status::Timeout,
        Status::Poisoned,
        Status::Io,
        Status::Interrupted,
        Status::Overloaded,
        Status::Storage,
    ];

    /// The wire name carried in the `status` response field.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::ParseError => "parse_error",
            Status::Budget => "budget",
            Status::Divergence => "divergence",
            Status::Timeout => "timeout",
            Status::Poisoned => "poisoned",
            Status::Io => "io",
            Status::Interrupted => "interrupted",
            Status::Overloaded => "overloaded",
            Status::Storage => "storage_error",
        }
    }

    /// Parses a wire name back into a status (clients, tests).
    pub fn from_name(name: &str) -> Option<Status> {
        Status::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The CLI exit code this status corresponds to; `overloaded` (9)
    /// is server-only, every other value matches the batch taxonomy.
    pub fn exit_code(self) -> i32 {
        match self {
            Status::Ok => 0,
            Status::Error => 1,
            Status::ParseError => 2,
            Status::Budget => 3,
            Status::Divergence => 4,
            Status::Timeout => 5,
            Status::Poisoned => 6,
            Status::Io => 7,
            Status::Interrupted => 8,
            Status::Overloaded => 9,
            Status::Storage => 10,
        }
    }

    /// `true` when retrying the same request can succeed: transient
    /// conditions (deadline, shed, drain, I/O), not wrong requests.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            Status::Timeout | Status::Io | Status::Interrupted | Status::Overloaded
        )
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The status a [`SessionError`] maps onto.
fn status_for(err: &SessionError) -> Status {
    match err {
        SessionError::Parse(_) => Status::ParseError,
        SessionError::Timing(e) => {
            if e.was_cancelled() {
                Status::Timeout
            } else if matches!(e, TimingError::BudgetExhausted { .. }) {
                Status::Budget
            } else {
                Status::Error
            }
        }
        SessionError::BadRequest(_) => Status::Error,
        SessionError::Limit { .. } => Status::Overloaded,
        SessionError::Poisoned(_) => Status::Poisoned,
        SessionError::Io { .. } => Status::Io,
        SessionError::Storage { .. } => Status::Storage,
        SessionError::Corrupt { .. } => Status::Io,
    }
}

// ---------------------------------------------------------------------------
// Options, stats, handle
// ---------------------------------------------------------------------------

/// Configuration of one daemon.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; port `0` picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Cap on concurrently open sessions; opens past it are shed with
    /// [`Status::Overloaded`].
    pub max_sessions: usize,
    /// Global cap on in-flight work-carrying requests; requests past it
    /// are shed with [`Status::Overloaded`] instead of queueing.
    pub max_inflight: usize,
    /// Directory for per-session journals; `None` disables durability.
    /// Without [`ServerOptions::resume`], leftover `*.session` files in
    /// it are deleted at startup (a fresh start means fresh, exactly
    /// like a fresh batch run truncating its journal).
    pub journal_dir: Option<PathBuf>,
    /// Recover (and digest-verify) every journal in
    /// [`ServerOptions::journal_dir`] before accepting connections.
    pub resume: bool,
    /// Default per-request deadline when the request carries no
    /// `deadline_ms`; `None` means no deadline.
    pub request_timeout: Option<Duration>,
    /// Default per-request analysis budget; requests may tighten it
    /// with `max_stage_evals` / `max_paths_per_node` fields.
    pub budget: AnalysisBudget,
    /// Technology every session analyzes against.
    pub tech: Technology,
    /// Shared stage-evaluation cache pooled across all sessions;
    /// cached results are bit-identical, so this never changes answers.
    pub cache: Option<Arc<StageCache>>,
    /// Observability sink; the daemon counts accepted/shed/cancelled/
    /// recovered (and more) under [`Phase::Server`].
    pub trace: Option<Arc<TraceSink>>,
    /// Drain flag. Clones share state, and every clone also observes
    /// the process-global signal flag once
    /// [`crate::durable::install_signal_handlers`] ran.
    pub shutdown: ShutdownFlag,
    /// Enable the fault-injection ops (`sleep`, `crash`) used by the
    /// chaos gate; off by default so production daemons cannot be
    /// crashed or stalled by request.
    pub chaos_ops: bool,
    /// Run database the `history`/`diff` ops read (and the CLI records
    /// the serve run into); `None` disables both ops.
    pub run_db: Option<PathBuf>,
    /// Lease TTL: sessions idle past it are evicted from memory
    /// (journal kept; re-attachable by id). `None` disables leases.
    pub session_ttl: Option<Duration>,
    /// Auto-compact a session's journal once this many edits have
    /// accumulated since the last checkpoint. `None` disables
    /// auto-compaction (the explicit `compact` op still works).
    pub compact_after: Option<u64>,
    /// Fault-injection plan for journal writes/fsyncs (tests and chaos
    /// drills); [`JournalFaultPlan::none`] in production.
    pub journal_faults: JournalFaultPlan,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 16,
            max_inflight: 4,
            journal_dir: None,
            resume: false,
            request_timeout: None,
            budget: AnalysisBudget::unlimited(),
            tech: Technology::nominal(),
            cache: None,
            trace: None,
            shutdown: ShutdownFlag::new(),
            chaos_ops: false,
            run_db: None,
            session_ttl: None,
            compact_after: None,
            journal_faults: JournalFaultPlan::none(),
        }
    }
}

/// A snapshot of the daemon's robustness counters (also exported to
/// the [`Phase::Server`] trace counters when a sink is attached).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Request lines received (including malformed ones).
    pub requests: u64,
    /// Requests shed by admission control ([`Status::Overloaded`]).
    pub shed: u64,
    /// Requests cancelled by a deadline ([`Status::Timeout`]).
    pub cancelled: u64,
    /// Requests that panicked (and poisoned their session).
    pub panics: u64,
    /// Work-carrying requests refused during drain.
    pub interrupted: u64,
    /// Request lines that were not valid flat JSON.
    pub parse_errors: u64,
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions closed by clients.
    pub sessions_closed: u64,
    /// Sessions recovered from journals at startup.
    pub recovered: u64,
    /// Journals that failed verification at startup (skipped).
    pub recovery_failed: u64,
    /// Journal checkpoints written (explicit `compact` + automatic).
    pub compactions: u64,
    /// Duplicate `req_id` deliveries answered from the reply cache.
    pub dedup_hits: u64,
    /// Sessions evicted by the idle-lease sweep.
    pub leases_expired: u64,
    /// Sessions that entered degraded mode (journaling suspended).
    pub degraded_sessions: u64,
    /// Edits replayed through the engine during recovery/reattach —
    /// the observable cost compaction bounds.
    pub edits_replayed: u64,
    /// Requests that declared themselves retransmissions (`retry` field).
    pub retries: u64,
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
    interrupted: AtomicU64,
    parse_errors: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    recovered: AtomicU64,
    recovery_failed: AtomicU64,
    compactions: AtomicU64,
    dedup_hits: AtomicU64,
    leases_expired: AtomicU64,
    degraded_sessions: AtomicU64,
    edits_replayed: AtomicU64,
    retries: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    manager: SessionManager,
    watchdog: Watchdog,
    inflight: AtomicUsize,
    conn_active: AtomicUsize,
    max_inflight: usize,
    request_timeout: Option<Duration>,
    budget: AnalysisBudget,
    cache: Option<Arc<StageCache>>,
    trace: Option<Arc<TraceSink>>,
    shutdown: ShutdownFlag,
    chaos_ops: bool,
    run_db: Option<PathBuf>,
    session_ttl: Option<Duration>,
    compact_after: Option<u64>,
    counters: Counters,
}

impl Inner {
    fn bump(&self, counter: &AtomicU64, name: &'static str) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            trace.count(Phase::Server, name, 1);
        }
    }

    /// Analyzer options for one request: server-wide sharing knobs plus
    /// the request's budget and cancel token.
    fn request_options(
        &self,
        budget: AnalysisBudget,
        cancel: Option<CancelToken>,
    ) -> AnalyzerOptions {
        AnalyzerOptions {
            budget,
            cancel,
            cache: self.cache.clone(),
            trace: self.trace.clone(),
            ..AnalyzerOptions::default()
        }
    }

    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServerStats {
            accepted: get(&c.accepted),
            requests: get(&c.requests),
            shed: get(&c.shed),
            cancelled: get(&c.cancelled),
            panics: get(&c.panics),
            interrupted: get(&c.interrupted),
            parse_errors: get(&c.parse_errors),
            sessions_opened: get(&c.sessions_opened),
            sessions_closed: get(&c.sessions_closed),
            recovered: get(&c.recovered),
            recovery_failed: get(&c.recovery_failed),
            compactions: get(&c.compactions),
            dedup_hits: get(&c.dedup_hits),
            leases_expired: get(&c.leases_expired),
            degraded_sessions: get(&c.degraded_sessions),
            edits_replayed: get(&c.edits_replayed),
            retries: get(&c.retries),
        }
    }
}

/// A running daemon: its bound address, its drain switch, and the
/// thread handles [`ServerHandle::join`] waits on.
///
/// Dropping the handle requests a drain and joins the daemon — a test
/// that forgets to call [`ServerHandle::join`] still shuts down clean.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    recovery: RecoveryReport,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("recovery", &self.recovery)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup recovery found (empty without `--resume`).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Requests a graceful drain: stop accepting, refuse new work,
    /// finish what is in flight. Equivalent to `SIGINT`/`SIGTERM`.
    pub fn stop(&self) {
        self.inner.shutdown.request();
    }

    /// A snapshot of the robustness counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// Blocks until the daemon has drained (after a signal or
    /// [`ServerHandle::stop`]) and returns the final counters.
    pub fn join(mut self) -> ServerStats {
        self.join_threads();
        self.inner.stats()
    }

    fn join_threads(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // The accept loop ends the ticker; repeat here in case it died.
        self.inner.watchdog.finish();
        if let Some(handle) = self.ticker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.inner.shutdown.request();
        self.join_threads();
    }
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// Starts the daemon: recovers (or discards) session journals, binds
/// the listener, and spawns the accept loop and the watchdog ticker.
/// Returns immediately; [`ServerHandle::join`] waits for drain.
///
/// # Errors
/// I/O errors from creating the journal directory or binding the
/// address. Individual journal recovery failures are *not* errors —
/// they are skipped and reported in [`ServerHandle::recovery`].
pub fn serve(options: ServerOptions) -> std::io::Result<ServerHandle> {
    let manager = SessionManager::new(
        options.tech.clone(),
        options.journal_dir.clone(),
        options.max_sessions,
        options.journal_faults.clone(),
    )
    .map_err(|e| std::io::Error::other(e.to_string()))?;

    let inner = Arc::new(Inner {
        manager,
        watchdog: Watchdog::default(),
        inflight: AtomicUsize::new(0),
        conn_active: AtomicUsize::new(0),
        max_inflight: options.max_inflight.max(1),
        request_timeout: options.request_timeout,
        budget: options.budget,
        cache: options.cache.clone(),
        trace: options.trace.clone(),
        shutdown: options.shutdown.clone(),
        chaos_ops: options.chaos_ops,
        run_db: options.run_db.clone(),
        session_ttl: options.session_ttl,
        compact_after: options.compact_after,
        counters: Counters::default(),
    });

    // Recovery replays with the server's sharing knobs but no budget:
    // a journaled edit was acknowledged, so its replay must not be
    // subject to per-request caps.
    let recovery = if options.resume {
        let report = inner
            .manager
            .recover(&inner.request_options(AnalysisBudget::unlimited(), None));
        for _ in &report.recovered {
            inner.bump(&inner.counters.recovered, "recovered");
        }
        for _ in &report.failed {
            inner.bump(&inner.counters.recovery_failed, "recovery_failed");
        }
        inner
            .counters
            .edits_replayed
            .fetch_add(report.edits_replayed, Ordering::Relaxed);
        if let Some(trace) = &inner.trace {
            trace.count(Phase::Server, "edits_replayed", report.edits_replayed);
        }
        report
    } else {
        inner.manager.discard_journals();
        RecoveryReport::default()
    };

    let listener = TcpListener::bind(&options.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let ticker = {
        let inner = inner.clone();
        std::thread::spawn(move || {
            // The server imposes deadlines purely through tokens; drain
            // must let in-flight work finish, so no shutdown mirroring.
            let unused_stop = AtomicBool::new(false);
            inner.watchdog.run(None, &unused_stop);
        })
    };

    let accept = {
        let inner = inner.clone();
        std::thread::spawn(move || {
            accept_loop(&inner, listener);
        })
    };

    Ok(ServerHandle {
        addr,
        inner,
        recovery,
        accept: Some(accept),
        ticker: Some(ticker),
    })
}

/// Decrements a counter on drop, so panics cannot leak a slot.
struct SlotGuard<'a>(&'a AtomicUsize);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    let mut last_sweep = Instant::now();
    while !inner.shutdown.is_requested() {
        // Lease sweep: piggybacks on the accept poll so no extra thread
        // is needed; ~4 sweeps per second is plenty for TTLs ≥ 1ms.
        if let Some(ttl) = inner.session_ttl {
            if last_sweep.elapsed() >= Duration::from_millis(250).min(ttl) {
                last_sweep = Instant::now();
                for _ in inner.manager.evict_idle(ttl) {
                    inner.bump(&inner.counters.leases_expired, "leases_expired");
                }
            }
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.bump(&inner.counters.accepted, "accepted");
                inner.conn_active.fetch_add(1, Ordering::SeqCst);
                let conn_inner = inner.clone();
                std::thread::spawn(move || {
                    let _active = SlotGuard(&conn_inner.conn_active);
                    handle_connection(&conn_inner, stream);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Drain: the dropped listener refuses new connections; in-flight
    // requests finish and respond, then their connections close.
    drop(listener);
    while inner.conn_active.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    inner.watchdog.finish();
}

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let response = handle_line(inner, line);
            if stream
                .write_all(response.as_bytes())
                .and_then(|_| stream.write_all(b"\n"))
                .and_then(|_| stream.flush())
                .is_err()
            {
                return;
            }
        }
        // Drain closes idle connections once buffered requests are
        // answered; a request mid-read still gets its response above.
        if inner.shutdown.is_requested() {
            return;
        }
        if pending.len() > MAX_REQUEST_BYTES {
            inner.bump(&inner.counters.parse_errors, "parse_errors");
            let response = Response::new(Status::ParseError)
                .field("error", "request line exceeds the size limit")
                .finish(None);
            let _ = stream.write_all(response.as_bytes());
            let _ = stream.write_all(b"\n");
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// One response frame on the shared [`JsonLine`] writer: `status` and
/// `retryable` always lead, the request's `id` (when present) is echoed
/// last.
struct Response {
    status: Status,
    line: JsonLine,
}

impl Response {
    fn new(status: Status) -> Response {
        Response {
            status,
            line: JsonLine::new()
                .str("status", status.name())
                .bool("retryable", status.is_retryable()),
        }
    }

    fn field(mut self, key: &str, value: &str) -> Response {
        self.line = self.line.str(key, value);
        self
    }

    fn num(mut self, key: &str, value: u64) -> Response {
        self.line = self.line.num(key, value);
        self
    }

    fn finish(self, correlation: Option<&str>) -> String {
        match correlation {
            Some(id) => self.line.str("id", id).finish(),
            None => self.line.finish(),
        }
    }
}

fn error_response(err: &SessionError) -> Response {
    Response::new(status_for(err)).field("error", &err.to_string())
}

fn handle_line(inner: &Arc<Inner>, line: &str) -> String {
    inner.bump(&inner.counters.requests, "requests");
    let Some(request) = parse_json_object(line) else {
        inner.bump(&inner.counters.parse_errors, "parse_errors");
        return Response::new(Status::ParseError)
            .field("error", "request is not a flat one-line JSON object")
            .finish(None);
    };
    let correlation = request.string("id");
    if request.contains_key("retry") {
        inner.bump(&inner.counters.retries, "retries");
    }
    let op = request.str("op").unwrap_or("");
    let response = match op {
        // Ungated ops: health checks and cleanup must work even under
        // full load and during drain.
        "ping" => Response::new(Status::Ok).field("op", "ping"),
        "stats" => stats_response(inner),
        "health" => health_response(inner),
        "close" => op_close(inner, &request),
        "open" | "edit" | "report" | "batch" | "check" | "compact" | "history" | "diff"
        | "sleep" | "crash" => gated_request(inner, op, &request),
        other => Response::new(Status::Error).field(
            "error",
            &format!(
                "unknown op `{other}` \
                 (want ping/stats/health/open/edit/report/batch/check/compact/history/diff/close)"
            ),
        ),
    };
    if response.status == Status::Timeout {
        inner.bump(&inner.counters.cancelled, "cancelled");
    }
    response.finish(correlation.as_deref())
}

/// Admission control, deadline registration, and panic isolation around
/// one work-carrying op.
fn gated_request(inner: &Arc<Inner>, op: &str, request: &Fields) -> Response {
    if matches!(op, "sleep" | "crash") && !inner.chaos_ops {
        return Response::new(Status::Error)
            .field("error", &format!("op `{op}` requires --chaos-ops"));
    }
    if inner.shutdown.is_requested() {
        inner.bump(&inner.counters.interrupted, "interrupted");
        return Response::new(Status::Interrupted).field(
            "error",
            "server is draining; retry against the restarted daemon",
        );
    }
    let previous = inner.inflight.fetch_add(1, Ordering::SeqCst);
    let _slot = SlotGuard(&inner.inflight);
    if previous >= inner.max_inflight {
        inner.bump(&inner.counters.shed, "shed");
        return Response::new(Status::Overloaded).field(
            "error",
            &format!(
                "{} requests in flight (cap {}); shed instead of queueing",
                previous + 1,
                inner.max_inflight
            ),
        );
    }

    // Per-request deadline: the request's `deadline_ms` wins over the
    // server default; 0 pre-cancels (the deterministic-timeout idiom).
    let token = CancelToken::new();
    let deadline = match opt_field(request, "deadline_ms") {
        Ok(ms) => ms.map(Duration::from_millis).or(inner.request_timeout),
        Err(message) => return Response::new(Status::Error).field("error", &message),
    };
    let watchdog_slot = match deadline {
        Some(d) if d.is_zero() => {
            token.cancel();
            None
        }
        Some(d) => Some(inner.watchdog.register(Instant::now() + d, token.clone())),
        None => None,
    };

    let outcome = catch_unwind(AssertUnwindSafe(|| execute_op(inner, op, request, &token)));
    if let Some(slot) = watchdog_slot {
        inner.watchdog.clear(slot);
    }
    match outcome {
        Ok(response) => response,
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            inner.bump(&inner.counters.panics, "panics");
            // Poison exactly the session the request was operating on;
            // its mutex may itself be poisoned by the unwinding — that
            // is recoverable, the marker is what matters.
            if let Some(id) = request.get("session") {
                if let Some(session) = inner.manager.get(id) {
                    lock_session(&session).poison(message.clone());
                }
            }
            Response::new(Status::Poisoned)
                .field("error", &format!("request panicked: {message}"))
                .field("session", request.str("session").unwrap_or(""))
        }
    }
}

fn lock_session(session: &Arc<Mutex<Session>>) -> MutexGuard<'_, Session> {
    match session.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn execute_op(inner: &Arc<Inner>, op: &str, request: &Fields, token: &CancelToken) -> Response {
    match op {
        "open" => op_open(inner, request, token),
        "edit" => op_edit(inner, request, token),
        "report" => op_report(inner, request),
        "batch" => op_batch(inner, request, token),
        "check" => op_check(inner, request),
        "compact" => op_compact(inner, request),
        "history" => op_history(inner),
        "diff" => op_diff(inner, request),
        "sleep" => op_sleep(request, token),
        "crash" => panic!("injected crash via the `crash` op"),
        _ => unreachable!("gated_request only dispatches known ops"),
    }
}

fn stats_response(inner: &Arc<Inner>) -> Response {
    let stats = inner.stats();
    Response::new(Status::Ok)
        .num("accepted", stats.accepted)
        .num("requests", stats.requests)
        .num("shed", stats.shed)
        .num("cancelled", stats.cancelled)
        .num("panics", stats.panics)
        .num("interrupted", stats.interrupted)
        .num("parse_errors", stats.parse_errors)
        .num("sessions_opened", stats.sessions_opened)
        .num("sessions_closed", stats.sessions_closed)
        .num("recovered", stats.recovered)
        .num("recovery_failed", stats.recovery_failed)
        .num("compactions", stats.compactions)
        .num("dedup_hits", stats.dedup_hits)
        .num("leases_expired", stats.leases_expired)
        .num("degraded_sessions", stats.degraded_sessions)
        .num("edits_replayed", stats.edits_replayed)
        .num("retries", stats.retries)
        .num("degraded", inner.manager.degraded_ids().len() as u64)
        .num("sessions", inner.manager.session_count() as u64)
        .num("inflight", inner.inflight.load(Ordering::SeqCst) as u64)
}

/// The `health` op: ungated liveness + degradation summary. A daemon
/// under full load or drain still answers it, so operators can always
/// see which sessions lost durability.
fn health_response(inner: &Arc<Inner>) -> Response {
    let degraded = inner.manager.degraded_ids();
    let mut response = Response::new(Status::Ok)
        .field("op", "health")
        .field("draining", &inner.shutdown.is_requested().to_string())
        .num("sessions", inner.manager.session_count() as u64)
        .num("inflight", inner.inflight.load(Ordering::SeqCst) as u64)
        .num("degraded", degraded.len() as u64);
    for (index, id) in degraded.iter().enumerate() {
        response = response.field(&format!("degraded.{index}"), id);
    }
    response
}

/// The protocol status of a run-store failure: damaged records are
/// parse errors, I/O is I/O, bad specs are plain errors.
fn runstore_error(e: &RunStoreError) -> Response {
    let status = match e {
        RunStoreError::Io { .. } => Status::Io,
        RunStoreError::Corrupt { .. } => Status::ParseError,
        _ => Status::Error,
    };
    Response::new(status).field("error", &e.to_string())
}

/// The `history` op: one row per record in the daemon's run database,
/// using the same `prefix.N.key` multi-row idiom as `report`.
fn op_history(inner: &Arc<Inner>) -> Response {
    let Some(db) = &inner.run_db else {
        return Response::new(Status::Error).field(
            "error",
            "history requires the daemon to run with --run-db DIR",
        );
    };
    let store = match RunStore::open(db) {
        Ok(store) => store,
        Err(e) => return runstore_error(&e),
    };
    match store.list() {
        Err(e) => runstore_error(&e),
        Ok(runs) => {
            let mut response = Response::new(Status::Ok).num("runs", runs.len() as u64);
            for (index, run) in runs.iter().enumerate() {
                response = response
                    .field(&format!("run.{index}.id"), &run.id)
                    .field(&format!("run.{index}.command"), &run.command)
                    .num(&format!("run.{index}.started_unix"), run.started_unix)
                    .num(&format!("run.{index}.scenarios"), run.scenarios as u64)
                    .field(&format!("run.{index}.complete"), &run.complete.to_string());
            }
            response
        }
    }
}

/// The `diff` op: regression-diff run `a` against run `b` (record
/// paths, run IDs, or unique ID prefixes). Threshold fields mirror the
/// CLI flags; a tripped timing/digest threshold answers
/// [`Status::Divergence`], a tripped perf threshold [`Status::Error`].
fn op_diff(inner: &Arc<Inner>, request: &Fields) -> Response {
    let Some(db) = &inner.run_db else {
        return Response::new(Status::Error)
            .field("error", "diff requires the daemon to run with --run-db DIR");
    };
    let (Some(a_spec), Some(b_spec)) = (request.get("a"), request.get("b")) else {
        return Response::new(Status::Error).field("error", "diff requires `a` and `b` run specs");
    };
    let mut thresholds = DiffThresholds::default();
    for (field, slot) in [
        ("fail_on_timing_pct", &mut thresholds.timing_pct),
        ("fail_on_perf_pct", &mut thresholds.perf_pct),
    ] {
        match request.opt_num::<f64>(field) {
            Some(None) => {}
            Some(Some(pct)) if pct >= 0.0 && pct.is_finite() => *slot = Some(pct),
            _ => {
                return Response::new(Status::Error).field(
                    "error",
                    &format!("cannot parse {field} `{}`", request[field]),
                )
            }
        }
    }
    thresholds.digest = request.str("fail_on_digest") == Some("true");
    let store = match RunStore::open(db) {
        Ok(store) => store,
        Err(e) => return runstore_error(&e),
    };
    let read = |spec: &str| {
        store
            .resolve(spec)
            .and_then(|path| runstore::read_run(&path))
    };
    let (a, b) = match (read(a_spec), read(b_spec)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return runstore_error(&e),
    };
    let d = runstore::diff(&a, &b);
    let verdict = d.verdict(&thresholds);
    let status = match verdict {
        DiffVerdict::Clean => Status::Ok,
        DiffVerdict::TimingRegression | DiffVerdict::DigestMismatch => Status::Divergence,
        DiffVerdict::PerfRegression => Status::Error,
    };
    Response::new(status)
        .field("a", &d.a_id)
        .field("b", &d.b_id)
        .field("verdict", verdict.name())
        .num("digest_mismatches", d.digest_mismatches.len() as u64)
        .num("only_in_a", d.only_in_a.len() as u64)
        .num("only_in_b", d.only_in_b.len() as u64)
        .num("node_deltas", d.node_deltas.len() as u64)
        .field("max_timing_pct", &format!("{:.4}", d.max_timing_pct))
        .field("max_perf_pct", &format!("{:.4}", d.max_perf_pct))
        .field("perf_comparable", &d.perf_comparable.to_string())
}

/// An optional numeric request field; a value that does not parse is
/// the "cannot parse" request error.
fn opt_field<T: FromStr>(request: &Fields, key: &str) -> Result<Option<T>, String> {
    request
        .opt_num(key)
        .ok_or_else(|| format!("cannot parse {key} `{}`", request[key]))
}

/// Parses the `model`/`transition_ns`/`set`/`input`/`edge` request
/// fields into a [`SessionConfig`].
fn parse_config(request: &Fields) -> Result<SessionConfig, String> {
    let mut config = SessionConfig::default();
    if let Some(name) = request.str("model") {
        config.model = name.parse()?;
    }
    if let Some(ns) = opt_field::<f64>(request, "transition_ns")? {
        if !(ns >= 0.0 && ns.is_finite()) {
            let raw = &request["transition_ns"];
            return Err(format!("transition_ns must be non-negative, got `{raw}`"));
        }
        config.transition = Seconds::from_nanos(ns);
    }
    config.statics = parse_statics(request.str("set").unwrap_or(""))?;
    config.input = request.string("input");
    config.edge = request.str("edge").map(str::parse).transpose()?;
    Ok(config)
}

/// The request's analysis budget: the server default, tightened by the
/// optional `max_stage_evals` / `max_paths_per_node` fields.
fn parse_budget(inner: &Inner, request: &Fields) -> Result<AnalysisBudget, String> {
    let mut budget = inner.budget;
    budget.max_stage_evals = opt_field(request, "max_stage_evals")?.or(budget.max_stage_evals);
    budget.max_paths_per_node =
        opt_field(request, "max_paths_per_node")?.or(budget.max_paths_per_node);
    Ok(budget)
}

fn resolve_session(
    inner: &Arc<Inner>,
    request: &Fields,
) -> Result<(String, Arc<Mutex<Session>>), Response> {
    let id = request
        .get("session")
        .ok_or_else(|| Response::new(Status::Error).field("error", "missing `session` field"))?;
    if let Some(session) = inner.manager.get(id) {
        return Ok((id.clone(), session));
    }
    // Lease fallback: an evicted session left its journal behind, so a
    // client coming back after the TTL transparently reattaches.
    let options = inner.request_options(AnalysisBudget::unlimited(), None);
    match inner.manager.reattach(id, &options) {
        Ok((session, replayed)) => {
            inner.bump(&inner.counters.recovered, "recovered");
            inner
                .counters
                .edits_replayed
                .fetch_add(replayed, Ordering::Relaxed);
            if let Some(trace) = &inner.trace {
                trace.count(Phase::Server, "edits_replayed", replayed);
            }
            Ok((id.clone(), session))
        }
        Err(e) => Err(error_response(&e)),
    }
}

fn op_open(inner: &Arc<Inner>, request: &Fields, token: &CancelToken) -> Response {
    let Some(netlist) = request.get("netlist") else {
        return Response::new(Status::Error)
            .field("error", "open requires a `netlist` field (.sim text)");
    };
    let name = request.str("name").unwrap_or("upload.sim");
    let config = match parse_config(request) {
        Ok(config) => config,
        Err(message) => return Response::new(Status::Error).field("error", &message),
    };
    let budget = match parse_budget(inner, request) {
        Ok(budget) => budget,
        Err(message) => return Response::new(Status::Error).field("error", &message),
    };
    // Idempotent re-open: a retried `open` whose original response was
    // lost finds the session already live with the same fingerprint —
    // answer from current state instead of failing on the duplicate id.
    if let Some(id) = request.str("session") {
        if let Some(session) = inner.manager.get(id) {
            // Sessions pin their fingerprint to the canonical netlist
            // text; canonicalize the submitted text the same way so a
            // byte-different but structurally identical retry matches.
            let canonical = crate::session::canonical_netlist(netlist, name)
                .unwrap_or_else(|_| netlist.to_string());
            let fingerprint = session_fingerprint(&canonical, inner.manager.technology(), &config);
            let mut guard = lock_session(&session);
            if guard.poisoned().is_none() && guard.fingerprint() == fingerprint {
                inner.bump(&inner.counters.dedup_hits, "dedup_hits");
                guard.touch();
                return opened(id, &guard).field("dedup", "true");
            }
        }
    }
    let options = inner.request_options(budget, Some(token.clone()));
    match inner
        .manager
        .open(request.str("session"), netlist, name, &config, options)
    {
        Ok((id, session)) => {
            inner.bump(&inner.counters.sessions_opened, "sessions_opened");
            opened(&id, &lock_session(&session))
        }
        Err(e) => error_response(&e),
    }
}

/// The `open` answer, fresh or deduplicated.
fn opened(id: &str, session: &Session) -> Response {
    Response::new(Status::Ok)
        .field("session", id)
        .field("model", session.config().model.name())
        .num("scenarios", session.scenario_rows().len() as u64)
        .field("fingerprint", &hex64(session.fingerprint()))
        .field("digest", &hex64(session.digest()))
}

fn op_edit(inner: &Arc<Inner>, request: &Fields, token: &CancelToken) -> Response {
    let (id, session) = match resolve_session(inner, request) {
        Ok(found) => found,
        Err(response) => return response,
    };
    let Some(script) = request.get("script") else {
        return Response::new(Status::Error).field(
            "error",
            "edit requires a `script` field (edit-grammar lines)",
        );
    };
    let budget = match parse_budget(inner, request) {
        Ok(budget) => budget,
        Err(message) => return Response::new(Status::Error).field("error", &message),
    };
    let req_id = request.str("req_id");
    let mut guard = lock_session(&session);
    guard.touch();
    // Idempotent retry: a duplicate `req_id` means the edit was already
    // applied and journaled but the response was lost in transit —
    // answer from the reply cache instead of re-applying.
    if let Some(rid) = req_id {
        if let Some((seq, digest)) = guard.cached_reply(rid) {
            inner.bump(&inner.counters.dedup_hits, "dedup_hits");
            return Response::new(Status::Ok)
                .field("session", &id)
                .num("seq", seq)
                .field("digest", &hex64(digest))
                .field("dedup", "true");
        }
    }
    guard.set_request_controls(budget, Some(token.clone()));
    match guard.apply_script(script, req_id) {
        Ok((delta, digest)) => {
            let changed: usize = delta.scenarios.iter().map(|s| s.changed.len()).sum();
            let invalidated: usize = delta
                .scenarios
                .iter()
                .map(|s| s.stats.invalidated_targets)
                .sum();
            let reused: usize = delta.scenarios.iter().map(|s| s.stats.reused_targets).sum();
            let response = Response::new(Status::Ok)
                .field("session", &id)
                .num("seq", guard.edits_applied())
                .num("netlist_changes", delta.netlist_changes as u64)
                .num("changed", changed as u64)
                .num("invalidated_targets", invalidated as u64)
                .num("reused_targets", reused as u64)
                .field("digest", &hex64(digest));
            // Auto-compaction: once enough edits accumulated since the
            // last checkpoint, fold them into one. The edit above is
            // already acknowledged-by-journal, so a compaction failure
            // here degrades the session (visible in `health`) without
            // turning the successful edit into an error.
            if let Some(after) = inner.compact_after {
                if guard.degraded().is_none() && guard.edits_since_checkpoint() >= after {
                    match guard.compact(inner.manager.technology()) {
                        Ok(()) => inner.bump(&inner.counters.compactions, "compactions"),
                        // Only a storage failure degrades; a declined
                        // compaction (e.g. the round-trip self-check)
                        // leaves the journal intact and keeps growing.
                        Err(SessionError::Storage { .. }) => {
                            inner.bump(&inner.counters.degraded_sessions, "degraded_sessions")
                        }
                        Err(_) => {}
                    }
                }
            }
            response
        }
        Err(e) => {
            if matches!(e, SessionError::Storage { .. }) {
                inner.bump(&inner.counters.degraded_sessions, "degraded_sessions");
            }
            error_response(&e)
        }
    }
}

/// The `compact` op: fold the session's journaled history into one
/// checkpoint header via write-temp/fsync/rename, re-pinning the
/// fingerprint to the canonical netlist text. Replay cost after this is
/// O(edits since checkpoint).
fn op_compact(inner: &Arc<Inner>, request: &Fields) -> Response {
    let (id, session) = match resolve_session(inner, request) {
        Ok(found) => found,
        Err(response) => return response,
    };
    let mut guard = lock_session(&session);
    guard.touch();
    match guard.compact(inner.manager.technology()) {
        Ok(()) => {
            inner.bump(&inner.counters.compactions, "compactions");
            Response::new(Status::Ok)
                .field("session", &id)
                .num("base_seq", guard.base_seq())
                .field("fingerprint", &hex64(guard.fingerprint()))
                .field("digest", &hex64(guard.digest()))
        }
        Err(e) => {
            if matches!(e, SessionError::Storage { .. }) {
                inner.bump(&inner.counters.degraded_sessions, "degraded_sessions");
            }
            error_response(&e)
        }
    }
}

fn op_report(inner: &Arc<Inner>, request: &Fields) -> Response {
    let (id, session) = match resolve_session(inner, request) {
        Ok(found) => found,
        Err(response) => return response,
    };
    let mut guard = lock_session(&session);
    guard.touch();
    if let Some(message) = guard.poisoned() {
        return error_response(&SessionError::Poisoned(message.to_string()));
    }
    let rows = guard.scenario_rows();
    let mut response = Response::new(Status::Ok)
        .field("session", &id)
        .num("edits", guard.edits_applied())
        .num("scenarios", rows.len() as u64)
        .field("digest", &hex64(guard.digest()));
    for (index, (label, digest, summary)) in rows.iter().enumerate() {
        response = response
            .field(&format!("scenario.{index}.label"), label)
            .field(&format!("scenario.{index}.digest"), &hex64(*digest))
            .field(&format!("scenario.{index}.summary"), summary);
    }
    response
}

/// Fresh recompute of every scenario, cross-checked against the
/// session's incremental state through [`audit_incremental`]: if
/// incremental maintenance ever drifted from from-scratch analysis, this
/// op reports `divergence`.
fn op_batch(inner: &Arc<Inner>, request: &Fields, token: &CancelToken) -> Response {
    let (id, session) = match resolve_session(inner, request) {
        Ok(found) => found,
        Err(response) => return response,
    };
    let budget = match parse_budget(inner, request) {
        Ok(budget) => budget,
        Err(message) => return Response::new(Status::Error).field("error", &message),
    };
    let mut guard = lock_session(&session);
    guard.touch();
    if let Some(message) = guard.poisoned() {
        return error_response(&SessionError::Poisoned(message.to_string()));
    }
    // The request's budget and deadline, but not the shared
    // cache: the reference must not reuse what the session memoized.
    let reference = AnalyzerOptions {
        cache: None,
        ..inner.request_options(budget, Some(token.clone()))
    };
    let tech = inner.manager.technology();
    let (mut scenarios, mut mismatches) = (0u64, Vec::new());
    for (label, audit) in
        audit_incremental(guard.analyzer(), tech, guard.config().model, &reference)
    {
        scenarios += 1;
        match audit {
            Audit::Equal => {}
            Audit::Differs => mismatches.push(label),
            Audit::ReferenceError(e) => return error_response(&SessionError::Timing(e)),
        }
    }
    if mismatches.is_empty() {
        Response::new(Status::Ok)
            .field("session", &id)
            .num("scenarios", scenarios)
            .field("digest", &hex64(guard.digest()))
    } else {
        Response::new(Status::Divergence)
            .field("session", &id)
            .num("mismatches", mismatches.len() as u64)
            .field(
                "error",
                &format!(
                    "incremental state diverged from fresh analysis on `{}`",
                    mismatches[0]
                ),
            )
    }
}

fn op_check(inner: &Arc<Inner>, request: &Fields) -> Response {
    let (id, session) = match resolve_session(inner, request) {
        Ok(found) => found,
        Err(response) => return response,
    };
    let mut guard = lock_session(&session);
    guard.touch();
    if let Some(message) = guard.poisoned() {
        return error_response(&SessionError::Poisoned(message.to_string()));
    }
    let mut config = SelfCheckConfig {
        models: vec![guard.config().model],
        threads: 2,
        trace: inner.trace.clone(),
        ..SelfCheckConfig::default()
    };
    match opt_field(request, "sample") {
        Ok(sample) => config.reference_sample = sample.unwrap_or(config.reference_sample),
        Err(message) => return Response::new(Status::Error).field("error", &message),
    }
    if let Some(raw) = request.str("inject") {
        let parsed = raw
            .split_once(':')
            .and_then(|(model, factor)| Some((model.parse().ok()?, factor.parse::<f64>().ok()?)));
        match parsed {
            Some(inject) => config.inject_scale = Some(inject),
            None => {
                return Response::new(Status::Error)
                    .field("error", &format!("bad inject `{raw}` (want model:factor)"))
            }
        }
    }
    let analyzer = guard.analyzer();
    let mut scenarios = Vec::new();
    for label in analyzer.labels().map(str::to_string).collect::<Vec<_>>() {
        match analyzer.scenario(&label) {
            Ok(scenario) => scenarios.push((label, scenario)),
            Err(e) => return error_response(&SessionError::Timing(e)),
        }
    }
    let report = check_network(
        analyzer.network(),
        inner.manager.technology(),
        &scenarios,
        &config,
    );
    if report.ok() {
        Response::new(Status::Ok)
            .field("session", &id)
            .num("checks", report.checks_run as u64)
            .num("skipped", report.skipped.len() as u64)
    } else {
        Response::new(Status::Divergence)
            .field("session", &id)
            .num("checks", report.checks_run as u64)
            .num("divergences", report.divergences.len() as u64)
            .field("error", &format!("{:?}", report.divergences[0]))
    }
}

fn op_close(inner: &Arc<Inner>, request: &Fields) -> Response {
    let Some(id) = request.get("session") else {
        return Response::new(Status::Error).field("error", "missing `session` field");
    };
    match inner.manager.close(id) {
        Ok(()) => {
            inner.bump(&inner.counters.sessions_closed, "sessions_closed");
            Response::new(Status::Ok).field("session", id)
        }
        Err(e) => error_response(&e),
    }
}

/// Chaos op: holds an in-flight slot for `ms`, polling the request's
/// cancel token — the knob the shed, deadline, and drain tests turn.
fn op_sleep(request: &Fields, token: &CancelToken) -> Response {
    let Some(ms) = request.num::<u64>("ms") else {
        return Response::new(Status::Error).field("error", "sleep requires integer `ms`");
    };
    let total = Duration::from_millis(ms);
    let start = Instant::now();
    while start.elapsed() < total {
        if token.is_cancelled() {
            return Response::new(Status::Timeout).field("error", "sleep cancelled by deadline");
        }
        std::thread::sleep(Duration::from_millis(5).min(total.saturating_sub(start.elapsed())));
    }
    Response::new(Status::Ok).num("slept_ms", ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_round_trip_and_mirror_exit_codes() {
        for (index, status) in Status::ALL.into_iter().enumerate() {
            assert_eq!(status.exit_code(), index as i32);
            assert_eq!(Status::from_name(status.name()), Some(status));
        }
        assert!(Status::Overloaded.is_retryable());
        assert!(Status::Timeout.is_retryable());
        assert!(Status::Interrupted.is_retryable());
        assert!(!Status::Poisoned.is_retryable());
        assert!(!Status::ParseError.is_retryable());
        // storage_error must never invite a retry: the edit already took
        // effect in memory, only its durability was lost.
        assert!(!Status::Storage.is_retryable());
        assert_eq!(Status::Storage.exit_code(), 10);
        assert_eq!(Status::from_name("storage_error"), Some(Status::Storage));
    }

    #[test]
    fn responses_are_flat_json_and_echo_correlation() {
        let line = Response::new(Status::Overloaded)
            .field("error", "too \"busy\"")
            .num("inflight", 7)
            .finish(Some("req-1"));
        assert_eq!(
            line,
            r#"{"status":"overloaded","retryable":true,"error":"too \"busy\"","inflight":7,"id":"req-1"}"#
        );
        let fields = parse_json_object(&line).expect("parses");
        assert_eq!(fields.get("status").map(String::as_str), Some("overloaded"));
        assert_eq!(fields.get("retryable").map(String::as_str), Some("true"));
        assert_eq!(
            fields.get("error").map(String::as_str),
            Some("too \"busy\"")
        );
        assert_eq!(fields.get("inflight").map(String::as_str), Some("7"));
        assert_eq!(fields.get("id").map(String::as_str), Some("req-1"));
        assert_eq!(
            Response::new(Status::Ok).field("op", "ping").finish(None),
            r#"{"status":"ok","retryable":false,"op":"ping"}"#
        );
    }

    #[test]
    fn session_errors_map_onto_the_taxonomy() {
        assert_eq!(
            status_for(&SessionError::Parse("x".into())),
            Status::ParseError
        );
        assert_eq!(
            status_for(&SessionError::Limit { active: 4, max: 4 }),
            Status::Overloaded
        );
        assert_eq!(
            status_for(&SessionError::Poisoned("x".into())),
            Status::Poisoned
        );
        assert_eq!(
            status_for(&SessionError::Io {
                path: PathBuf::from("j"),
                message: "x".into()
            }),
            Status::Io
        );
        assert_eq!(
            status_for(&SessionError::Storage {
                path: PathBuf::from("j"),
                message: "fsync failed".into()
            }),
            Status::Storage
        );
    }
}
