//! The daemon smoke gates, run against the built `crystal-cli`: four
//! legs against one journal directory and run database.
//!
//! 1. A scripted `client --script` session uploads a netlist, edits it,
//!    pulls `report`s and a `batch` cross-check that must not diverge.
//! 2. The run-database ops: `history` lists the recorded runs and `diff`
//!    of the committed `results/baselines/adder-slope.run` against
//!    itself answers `clean` on the wire.
//! 3. SIGTERM lands while a chaos `sleep` is in flight: the request is
//!    still answered, the daemon exits 0 and prints its drain summary.
//! 4. SIGKILL (no drain at all), then a restart with `--resume` replays
//!    the journaled session to a byte-identical report.
//!
//! Every daemon's `serve.log`/`serve.err` and every client's output
//! land in `serve_smoke/` under `CARGO_TARGET_TMPDIR`, where CI picks
//! them up as an artifact.

mod common;

use common::{client, fresh_dir, repo_file, send_signal, spawn_client, SIGKILL, SIGTERM};
use std::fs;
use std::path::Path;
use std::process::Child;
use std::time::Duration;

/// `crystal-cli serve` in `dir` with the journal directory, the run
/// database and the chaos ops, logging to `serve.log`/`serve.err`;
/// returns once it printed its address.
fn start_daemon(dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut args = vec![
        "--journal-dir",
        "journals",
        "--run-db",
        "rundb",
        "--chaos-ops",
    ];
    args.extend(extra);
    common::start_daemon(dir, &args)
}

/// The line of a `report` reply after two edits.
fn report_line(out: &str) -> String {
    (out.lines().find(|line| line.contains("\"edits\":2")))
        .unwrap_or_else(|| panic!("no report after two edits:\n{out}"))
        .to_string()
}

#[test]
fn scripted_session_drain_and_resume() {
    let dir = fresh_dir("serve_smoke");
    fs::create_dir_all(dir.join("journals")).expect("journal dir");
    let net = repo_file("examples/netlists/inverter_chain.sim");

    // Leg 1: upload -> edits -> DeltaReports -> batch cross-check.
    let (daemon, addr) = start_daemon(&dir, &[]);
    let script = format!(
        "ping\nopen s1 {}\nedit s1 cap out 150\nreport s1\nedit s1 cap out 220\nreport s1\n\
         batch s1\nstats\n",
        net.display()
    );
    let client1 = client(&dir, &addr, "client1", &script, &[]);
    assert!(
        client1.contains("\"status\":\"ok\",\"retryable\":false,\"session\":\"s1\""),
        "{client1}"
    );
    assert!(
        !client1.contains("\"status\":\"divergence\""),
        "batch cross-check diverged from the incremental session:\n{client1}"
    );
    let report_before = report_line(&client1);

    // Leg 2: the run-database wire ops against the seeded baseline.
    fs::create_dir_all(dir.join("rundb")).expect("run db");
    fs::copy(
        repo_file("results/baselines/adder-slope.run"),
        dir.join("rundb/adder-slope.run"),
    )
    .expect("baseline copied");
    let client2 = client(
        &dir,
        &addr,
        "client2",
        "history\ndiff rundb/adder-slope.run rundb/adder-slope.run fail_on_timing_pct=0.5\n",
        &[],
    );
    assert!(client2.contains("\"status\":\"ok\""), "{client2}");
    assert!(client2.contains("\"verdict\":\"clean\""), "{client2}");

    // Leg 3: SIGTERM mid-sleep — the in-flight request finishes.
    let mut sleeper = spawn_client(&dir, &addr, "drained", "sleep 700\n", &[]);
    std::thread::sleep(Duration::from_millis(200));
    let mut daemon = daemon;
    send_signal(&daemon, SIGTERM);
    assert!(sleeper.wait().expect("client runs").success());
    let drained = fs::read_to_string(dir.join("drained.txt")).expect("client output");
    assert!(
        drained.contains("\"status\":\"ok\",\"retryable\":false,\"slept_ms\":700"),
        "{drained}"
    );
    let status = daemon.wait().expect("daemon reaped");
    assert!(status.success(), "drained daemon should exit 0: {status:?}");
    let log = fs::read_to_string(dir.join("serve.log")).expect("serve.log");
    assert!(log.lines().any(|l| l.starts_with("drained: ")), "{log}");
    assert!(
        log.lines().any(|l| l.starts_with("run-db: recorded ")),
        "{log}"
    );

    // Leg 4: SIGKILL a fresh daemon, restart with --resume, and require
    // the replayed report byte-identical to the original.
    let (mut daemon, _) = start_daemon(&dir, &["--resume"]);
    let log = fs::read_to_string(dir.join("serve.log")).expect("serve.log");
    assert!(log.contains("recovered session `s1`"), "{log}");
    send_signal(&daemon, SIGKILL);
    let _ = daemon.wait();
    let (mut daemon, addr) = start_daemon(&dir, &["--resume"]);
    let client3 = client(&dir, &addr, "client3", "report s1\nstats\n", &[]);
    assert_eq!(
        report_line(&client3),
        report_before,
        "resumed session report differs from the original"
    );
    assert!(client3.contains("\"recovered\":1"), "{client3}");
    send_signal(&daemon, SIGTERM);
    let status = daemon.wait().expect("daemon reaped");
    assert!(status.success(), "drained daemon should exit 0: {status:?}");
}
