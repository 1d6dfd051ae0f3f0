//! `serve-decoder7`: the journaled timing daemon under a closed loop of
//! edit requests. Each of `min(2, hardware threads)` client connections
//! opens its own decoder-7 session and then sends seeded one-line edits,
//! waiting for each reply before sending the next.
//!
//! The daemon runs in this process with the CLI's defaults (shared stage
//! cache, one analyzer thread per request, four requests in flight) and
//! a journal directory, so every acknowledged edit is fsync'd.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crystal::analyzer::AnalyzerOptions;
use crystal::durable::JournalFaultPlan;
use crystal::editscript::parse_edit_script;
use crystal::fingerprint::{escape_json, hex64, parse_json_object, result_digest};
use crystal::incremental::IncrementalAnalyzer;
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::obs::{Phase, TraceSink};
use crystal::selfcheck::standard_scenarios;
use crystal::server::{serve, ServerHandle, ServerOptions};
use crystal::session::{Session, SessionConfig};
use mosnet::units::Seconds;

use crate::harness::{
    workers, Clock, Latencies, Pacer, SetupTimes, ALLOCATION_BOUND, MIN_PASSES, SETUP_REPEATS,
};
use crate::inputs::{decoder_sim, edit_plan, load, EditPair};
use crate::report::{median_or_zero, ms, peak_rss_mb, RunReport};
use crate::selftime::{Attribution, ROOT_LABEL};

const BITS: usize = 7;
const FILE: &str = "decoder7.sim";

/// Traced edits in the per-layer run; the sink holds every span of them.
const TRACED_EDITS: usize = 200;

/// Where runs keep their scratch directories: inside this package,
/// wherever the command runs from.
const SCRATCH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scratch");

/// A scratch directory under [`SCRATCH`], removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(what: &str) -> Result<ScratchDir, String> {
        let dir = Path::new(SCRATCH).join(format!("{what}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// A subdirectory, created.
    fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

/// One client connection: one write per request frame, no Nagle delay.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line, waits for its reply, and requires it to
    /// answer `ok`.
    fn call_ok(&mut self, request: &str) -> Result<HashMap<String, String>, String> {
        let mut frame = String::with_capacity(request.len() + 1);
        frame.push_str(request);
        frame.push('\n');
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        let reply = parse_json_object(line.trim_end())
            .ok_or_else(|| format!("torn reply `{}`", line.trim_end()))?;
        match reply.get("status").map(String::as_str) {
            Some("ok") => Ok(reply),
            status => Err(format!(
                "{}: {}",
                status.unwrap_or("no status"),
                reply.get("error").map_or("", String::as_str)
            )),
        }
    }
}

/// A flat JSON request line.
fn request(op: &str, fields: &[(&str, &str)]) -> String {
    let mut line = format!("{{\"op\":\"{op}\"");
    for (key, value) in fields {
        line.push_str(&format!(",\"{key}\":\"{}\"", escape_json(value)));
    }
    line.push('}');
    line
}

/// A daemon with the CLI's defaults and one open session per client.
struct Daemon {
    clients: Vec<Client>,
    // Dropped after the clients: drains the daemon and joins its threads.
    handle: ServerHandle,
}

fn session_id(client: usize) -> String {
    format!("c{client}")
}

/// Text in to ready: parse the technology, start the daemon, and open
/// one session per client.
fn start_daemon(text: &str, journal_dir: &Path, clients: usize) -> Result<Daemon, String> {
    let tech =
        crystal::tech_format::parse(crate::inputs::TECH).map_err(|e| format!("tech: {e}"))?;
    let handle = serve(ServerOptions {
        journal_dir: Some(journal_dir.to_path_buf()),
        cache: Some(Arc::new(StageCache::new())),
        tech,
        ..ServerOptions::default()
    })
    .map_err(|e| format!("serve: {e}"))?;
    let mut daemon = Daemon {
        clients: Vec::new(),
        handle,
    };
    for c in 0..clients {
        let mut client = Client::connect(daemon.handle.addr())?;
        client.call_ok(&request(
            "open",
            &[
                ("session", &session_id(c)),
                ("name", FILE),
                ("netlist", text),
            ],
        ))?;
        daemon.clients.push(client);
    }
    Ok(daemon)
}

/// Runs the workload: the timed loop, or with `traced` the per-layer
/// run.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunReport {
    let mut report = RunReport::default();
    let text = decoder_sim(BITS);
    let outcome = if traced {
        run_traced(&text, seed, seconds, &mut report)
    } else {
        run_timed(&text, seed, seconds, &mut report)
    };
    if let Err(e) = outcome {
        report.attempted = report.attempted.max(1);
        report.fail(1, e);
    }
    report
}

/// Word lines each client's plan edits; a pass sends one edit for each.
const PLAN_EDITS: usize = 50;

/// What one client sent and saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    latencies: Latencies,
    /// Edits the daemon acknowledged, in order.
    applied: Vec<String>,
    failures: Vec<String>,
    last_digest: Option<String>,
}

/// The scripts of a client's pass `pass`: the plan's forward edits on
/// even passes, its reverts on odd ones, so every edit repeats from the
/// same session state.
fn pass_scripts(plan: &[EditPair], pass: usize) -> impl Iterator<Item = (String, &String)> {
    let direction = if pass.is_multiple_of(2) {
        "forward"
    } else {
        "revert"
    };
    plan.iter().enumerate().map(move |(i, pair)| {
        let script = if pass.is_multiple_of(2) {
            &pair.forward
        } else {
            &pair.revert
        };
        (format!("{direction} {i}"), script)
    })
}

/// Sends one pass of a client's plan.
fn send_pass(client: &mut Client, c: usize, plan: &[EditPair], pass: usize, log: &mut ClientLog) {
    let id = session_id(c);
    let mut pacer = Pacer::new(ALLOCATION_BOUND);
    for (key, script) in pass_scripts(plan, pass) {
        log.attempted += 1;
        let line = request("edit", &[("session", &id), ("script", script)]);
        let (reply, timing) = pacer.timed(|| client.call_ok(&line));
        match reply {
            Ok(reply) => {
                log.latencies.record(format!("{id} {key}"), timing);
                log.last_digest = reply.get("digest").cloned();
                log.applied.push(script.clone());
            }
            Err(e) => log.failures.push(format!("[{id}] `{script}`: {e}")),
        }
    }
}

/// Set-up slots before the passes, and again after them.
const SETUP_SLOTS: usize = 2;

/// Whole passes, the clients sending theirs side by side. Set-up is
/// timed in slots before the passes and after the measured daemon is
/// gone, so no two daemons are ever up at once and the peak resident set
/// is the measured daemon's.
fn run_timed(text: &str, seed: u64, seconds: f64, report: &mut RunReport) -> Result<(), String> {
    let dir = ScratchDir::new("serve")?;
    let clients = workers();
    let mut setup_times = SetupTimes::default();
    let start = || start_daemon(text, &dir.0, clients);
    for _ in 1..SETUP_SLOTS {
        drop(setup_times.slot(SETUP_REPEATS, start)?);
    }
    let mut daemon = setup_times.slot(SETUP_REPEATS, start)?;

    let plans: Vec<Vec<EditPair>> = (0..clients)
        .map(|c| edit_plan(seed, c, 1 << BITS, PLAN_EDITS))
        .collect();
    let mut logs: Vec<ClientLog> = (0..clients).map(|_| ClientLog::default()).collect();
    let mut passes = 0;
    let clock = Clock::start(seconds, MIN_PASSES);
    while !clock.done(passes) {
        std::thread::scope(|scope| {
            for (c, (client, log)) in daemon.clients.iter_mut().zip(&mut logs).enumerate() {
                let plan = &plans[c];
                scope.spawn(move || send_pass(client, c, plan, passes, log));
            }
        });
        passes += 1;
    }

    let mut latencies = Latencies::default();
    for (c, log) in logs.into_iter().enumerate() {
        report.attempted += log.attempted;
        for failure in &log.failures {
            report.fail(1, failure.clone());
        }
        check_session(text, &mut daemon.clients[c], c, &log, report);
        latencies.merge(log.latencies);
    }
    latencies.set_metrics(report);
    for (c, client) in daemon.clients.iter_mut().enumerate() {
        if let Err(e) = client.call_ok(&request("close", &[("session", &session_id(c))])) {
            report.problem(format!("close: {e}"));
        }
    }
    drop(daemon);
    for _ in 0..SETUP_SLOTS {
        drop(setup_times.slot(SETUP_REPEATS, start)?);
    }
    setup_times.set_metric(report);
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), 1);
    report.notes.push(format!(
        "{clients} clients; {} edits, median of {passes} passes",
        latencies.keys()
    ));
    Ok(())
}

/// The session's `batch` op must cross-check clean, and its digest must
/// equal a fresh analysis of the base netlist with every acknowledged
/// edit applied.
fn check_session(
    text: &str,
    client: &mut Client,
    c: usize,
    log: &ClientLog,
    report: &mut RunReport,
) {
    let id = session_id(c);
    let batch = match client.call_ok(&request("batch", &[("session", &id)])) {
        Ok(reply) => reply,
        Err(e) => return report.problem(format!("[{id}] batch: {e}")),
    };
    if batch.get("digest") != log.last_digest.as_ref() {
        report.problem(format!(
            "[{id}] batch digest differs from the last edit reply"
        ));
    }
    let fresh = fresh_digest(text, &log.applied);
    match fresh {
        Ok(digest) if batch.get("digest") == Some(&hex64(digest)) => {}
        Ok(_) => report.problem(format!(
            "[{id}] digest differs from a fresh analysis of the edited netlist"
        )),
        Err(e) => report.problem(format!("[{id}] fresh analysis: {e}")),
    }
}

/// The session digest of a fresh, journal-less session opened on the
/// edited netlist.
fn fresh_digest(text: &str, edits: &[String]) -> Result<u64, String> {
    let base = mosnet::sim_format::parse(text, FILE).map_err(|e| e.to_string())?;
    let edits = parse_edit_script(&edits.join("\n"))?;
    let edited = mosnet::diff::apply_edits(&base, &edits).map_err(|e| e.to_string())?;
    let tech = crystal::tech_format::parse(crate::inputs::TECH).map_err(|e| e.to_string())?;
    let session = Session::open(
        "fresh",
        &mosnet::sim_format::write(&edited),
        FILE,
        &tech,
        &SessionConfig::default(),
        AnalyzerOptions::default(),
        None,
        &JournalFaultPlan::none(),
    )
    .map_err(|e| e.to_string())?;
    Ok(session.digest())
}

/// Per-label result digests of an incremental analyzer.
fn label_digests(analyzer: &IncrementalAnalyzer) -> Vec<(String, u64)> {
    analyzer
        .labels()
        .map(|label| {
            let result = analyzer.result(label).expect("every label has a result");
            (label.to_string(), result_digest(analyzer.network(), result))
        })
        .collect()
}

/// The per-layer run: the same edit stream through four legs in turn,
/// one thread each edit, every leg with its own cache — incremental
/// analysis untraced and traced, a journaled session, and the daemon
/// over one connection. Differences of their medians attribute an edit's
/// round trip to the journal and the wire.
fn run_traced(text: &str, seed: u64, seconds: f64, report: &mut RunReport) -> Result<(), String> {
    let mut parse_s = Vec::new();
    let (tech, net) = SetupTimes::default().slot(SETUP_REPEATS, || {
        let (tech, net, parse) = load(text, FILE)?;
        parse_s.push(parse);
        Ok((tech, net))
    })?;
    report.set_parse_metrics(&parse_s, text.len());

    let incremental = |trace: Option<Arc<TraceSink>>| -> Result<IncrementalAnalyzer, String> {
        let scenarios = standard_scenarios(&net, &HashMap::new(), Seconds::ZERO);
        let options = AnalyzerOptions {
            cache: Some(Arc::new(StageCache::new())),
            trace,
            ..AnalyzerOptions::default()
        };
        IncrementalAnalyzer::new(
            net.clone(),
            tech.clone(),
            ModelKind::Slope,
            scenarios,
            options,
        )
        .map_err(|e| e.to_string())
    };
    let sink = Arc::new(TraceSink::with_capacity(1 << 18));
    let mut plain = incremental(None)?;
    let mut traced = incremental(Some(Arc::clone(&sink)))?;
    let dir = ScratchDir::new("serve-trace")?;
    let mut session = Session::open(
        "leg",
        text,
        FILE,
        &tech,
        &SessionConfig::default(),
        AnalyzerOptions {
            cache: Some(Arc::new(StageCache::new())),
            ..AnalyzerOptions::default()
        },
        Some(&dir.0.join("leg.session")),
        &JournalFaultPlan::none(),
    )
    .map_err(|e| e.to_string())?;
    let mut daemon = start_daemon(text, &dir.sub("daemon")?, 1)?;

    let (mut plain_ms, mut traced_ms, mut session_ms, mut rtt_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reused, mut invalidated) = (0usize, 0usize);
    let plan = edit_plan(seed, 0, 1 << BITS, PLAN_EDITS);
    let scripts = (0..).flat_map(|pass| pass_scripts(&plan, pass).map(|(_, script)| script));
    let clock = Clock::start(seconds, 1);
    for script in scripts {
        if clock.done(report.attempted as usize) {
            break;
        }
        report.attempted += 1;
        let edits = parse_edit_script(script)?;
        let started = Instant::now();
        let delta = plain
            .apply_edits(&edits)
            .map_err(|e| format!("`{script}`: {e}"))?;
        plain_ms.push(ms(started.elapsed()));
        for scenario in &delta.scenarios {
            reused += scenario.stats.reused_targets;
            invalidated += scenario.stats.invalidated_targets;
        }
        if traced_ms.len() < TRACED_EDITS {
            let started = Instant::now();
            let root = sink.span(Phase::Batch, ROOT_LABEL);
            traced
                .apply_edits(&edits)
                .map_err(|e| format!("`{script}`: {e}"))?;
            drop(root);
            traced_ms.push(ms(started.elapsed()));
            if label_digests(&traced) != label_digests(&plain) {
                report.fail(1, format!("`{script}`: tracing changed arrivals"));
            }
        }
        let started = Instant::now();
        session
            .apply_script(script, None)
            .map_err(|e| format!("`{script}`: {e}"))?;
        session_ms.push(ms(started.elapsed()));
        let line = request("edit", &[("session", &session_id(0)), ("script", script)]);
        let started = Instant::now();
        let reply = daemon.clients[0].call_ok(&line)?;
        rtt_ms.push(ms(started.elapsed()));
        if reply.get("digest") != Some(&hex64(session.digest())) {
            report.fail(1, format!("`{script}`: daemon and session digests differ"));
        }
    }
    if label_digests(&plain) != label_digests(session.analyzer()) {
        report.problem("incremental analyzer and session disagree".to_string());
    }
    let mut attribution = Attribution::default();
    if !attribution.add(&sink) {
        report.problem("trace sink dropped events".to_string());
    }
    report.set_analyzer_layers(&attribution);
    report.set_trace_overhead(&traced_ms, &plain_ms);

    // Paired per edit: each edit ran through every leg back to back.
    let difference =
        |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(a, b)| a - b).collect() };
    let n = plain_ms.len();
    report.set("crystal.incremental.apply_ms", median_or_zero(&plain_ms), n);
    report.set(
        "crystal.incremental.reuse_ratio",
        crate::report::ratio(reused as f64, (reused + invalidated) as f64),
        n,
    );
    report.set("crystal.session.apply_ms", median_or_zero(&session_ms), n);
    report.set(
        "crystal.session.journal_ms",
        median_or_zero(&difference(&session_ms, &plain_ms)),
        n,
    );
    report.set("crystal.server.rtt_ms", median_or_zero(&rtt_ms), n);
    report.set(
        "crystal.server.wire_ms",
        median_or_zero(&difference(&rtt_ms, &session_ms)),
        n,
    );
    Ok(())
}
