//! The chaos drills, run against the built `crystal-cli`.
//!
//! 1. A journaled `adder.sim` batch is SIGKILLed at 5, 20 and 100 ms,
//!    and a complete journal is cut mid-record; each resume with
//!    `--selfcheck-resume` must print the reference's scenario lines.
//!    Wherever a kill lands (before the first record, mid-run, after
//!    completion), the resume must reproduce the reference.
//! 2. A 200-op session soak runs once directly and once through
//!    `chaos-proxy` (dropped connections, latency, truncated frames)
//!    with the client's auto-retry: both clients must see the same
//!    digest sequence. Retries may resend, but request-id dedup means
//!    nothing is applied twice.
//! 3. A session is compacted, the daemon SIGKILLed, and `--resume` must
//!    reproduce the pre-kill report while replaying no edit.
//!
//! Journals, logs and client output land in `chaos_gate/` under
//! `CARGO_TARGET_TMPDIR`; the kill and torn journals are kept as
//! `chaos_*.journal`, where CI picks them up as an artifact.

mod common;

use common::{client, fresh_dir, repo_file, send_signal, start_daemon, start_listener};
use common::{BIN, SIGKILL, SIGTERM};
use std::fs;
use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

/// `crystal-cli batch adder.sim --tech calibrated.tech extra` in `dir`.
fn batch(dir: &Path, extra: &[&str]) -> Command {
    let (net, tech) = (
        repo_file("examples/netlists/adder.sim"),
        repo_file("examples/netlists/calibrated.tech"),
    );
    let mut command = Command::new(BIN);
    command
        .current_dir(dir)
        .arg("batch")
        .arg(net)
        .arg("--tech")
        .arg(tech)
        .args(extra);
    command
}

/// Runs `command` to a successful exit and returns its stdout.
fn succeeds(command: &mut Command) -> String {
    let out: Output = command.output().expect("crystal-cli runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "exited {:?}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The scenario lines of a batch's output, without the summary and the
/// self-check lines, which legitimately differ after a resume.
fn scenario_lines(stdout: &str) -> Vec<&str> {
    (stdout.lines())
        .filter(|l| !l.contains(" scenarios, ") && !l.starts_with("self-check:"))
        .collect()
}

#[test]
fn killed_and_torn_batches_resume_to_the_reference() {
    let dir = fresh_dir("chaos_gate/batch");
    let reference = succeeds(&mut batch(&dir, &[]));
    let resume = ["--resume", "--selfcheck-resume"];
    let journal = dir.join("chaos.journal");

    for delay_ms in [5, 20, 100] {
        let _ = fs::remove_file(&journal);
        let mut child = (batch(&dir, &["--journal", "chaos.journal"]))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("batch spawns");
        std::thread::sleep(Duration::from_millis(delay_ms));
        let _ = child.kill();
        let _ = child.wait();
        let text = fs::read_to_string(&journal).unwrap_or_default();
        let records = text.matches("\"kind\":\"scenario\"").count();
        eprintln!("kill after {delay_ms} ms left {records} journaled records");
        let _ = fs::copy(
            &journal,
            dir.join(format!("chaos_kill_{delay_ms}ms.journal")),
        );
        let resumed = succeeds(&mut batch(
            &dir,
            &[&["--journal", "chaos.journal"], &resume[..]].concat(),
        ));
        assert_eq!(
            scenario_lines(&resumed),
            scenario_lines(&reference),
            "resume after a kill at {delay_ms} ms diverged from the reference"
        );
    }

    // A complete journal cut mid-record, as a kill landing mid-append
    // leaves it.
    let _ = fs::remove_file(&journal);
    succeeds(&mut batch(&dir, &["--journal", "chaos.journal"]));
    let bytes = fs::read(&journal).expect("journal");
    let torn = &bytes[..bytes.len() * 3 / 5 + 7];
    fs::write(dir.join("torn.journal"), torn).expect("torn journal");
    fs::write(dir.join("chaos_torn.journal"), torn).expect("torn journal copy");
    let resumed = succeeds(&mut batch(
        &dir,
        &[&["--journal", "torn.journal"], &resume[..]].concat(),
    ));
    assert!(resumed.contains("resumed from journal"), "{resumed}");
    assert_eq!(scenario_lines(&resumed), scenario_lines(&reference));
}

/// The `"digest":"…"` values of a client's replies, in order.
fn digests(replies: &str) -> Vec<&str> {
    (replies.split("\"digest\":\"").skip(1))
        .map(|rest| rest.split('"').next().unwrap_or_default())
        .collect()
}

#[test]
fn the_chaos_proxy_soak_matches_the_direct_run() {
    let dir = fresh_dir("chaos_gate/soak");
    let net = repo_file("examples/netlists/inverter_chain.sim");
    let mut script = format!("open s1 {}\n", net.display());
    for i in 1..=99 {
        script += &format!("edit s1 cap out {}\nreport s1\n", 100 + i);
    }
    script += "report s1\n";
    assert_eq!(script.lines().count(), 200);

    // Direct: the reference digests.
    let direct_dir = dir.join("direct");
    fs::create_dir_all(&direct_dir).expect("direct dir");
    let (mut daemon, addr) = start_daemon(&direct_dir, &["--journal-dir", "journals"]);
    let direct = client(&direct_dir, &addr, "client", &script, &[]);
    send_signal(&daemon, SIGTERM);
    assert!(daemon.wait().expect("daemon reaped").success());

    // Proxied: the same script over a hostile link, with auto-retry.
    let proxied_dir = dir.join("proxied");
    fs::create_dir_all(&proxied_dir).expect("proxied dir");
    let (mut daemon, addr) = start_daemon(&proxied_dir, &["--journal-dir", "journals"]);
    let proxy_args = [
        "chaos-proxy",
        "--listen",
        "127.0.0.1:0",
        "--upstream",
        &addr,
        "--drop",
        "0.05",
        "--delay-ms",
        "20",
        "--truncate",
        "0.02",
        "--seed",
        "7",
    ];
    let prefix = "crystal-cli: chaos-proxy listening on ";
    let (mut proxy, proxy_addr) = start_listener(&proxied_dir, "proxy", &proxy_args, prefix);
    let retry = ["--retries", "5", "--backoff-ms", "50"];
    let proxied = client(&proxied_dir, &proxy_addr, "client", &script, &retry);
    let stats = client(&proxied_dir, &addr, "stats", "stats\n", &[]);
    eprintln!("daemon after soak: {stats}");
    let _ = proxy.kill();
    let _ = proxy.wait();
    send_signal(&daemon, SIGTERM);
    assert!(daemon.wait().expect("daemon reaped").success());

    assert!(!digests(&direct).is_empty(), "{direct}");
    assert_eq!(
        digests(&direct),
        digests(&proxied),
        "the chaos-proxy soak diverged from the direct run"
    );
}

/// The reply to `report s2` after three edits.
fn report_line(out: &str) -> &str {
    (out.lines().find(|line| line.contains("\"edits\":3")))
        .unwrap_or_else(|| panic!("no report after three edits:\n{out}"))
}

#[test]
fn a_compacted_session_resumes_after_sigkill_without_replaying_edits() {
    let dir = fresh_dir("chaos_gate/compact");
    let net = repo_file("examples/netlists/inverter_chain.sim");
    let journals = ["--journal-dir", "journals"];
    let (mut daemon, addr) = start_daemon(&dir, &journals);
    let script = format!(
        "open s2 {}\nedit s2 cap out 150\nedit s2 cap out 220\nedit s2 cap out 300\n\
         report s2\ncompact s2\n",
        net.display()
    );
    let before = client(&dir, &addr, "compact", &script, &[]);
    assert!(
        before.contains("\"status\":\"ok\",\"retryable\":false,\"session\":\"s2\",\"base_seq\":3"),
        "{before}"
    );
    send_signal(&daemon, SIGKILL);
    let _ = daemon.wait();

    let (mut daemon, addr) = start_daemon(&dir, &[&journals[..], &["--resume"]].concat());
    let log = fs::read_to_string(dir.join("serve.log")).expect("serve.log");
    assert!(log.contains("recovered session `s2`"), "{log}");
    let after = client(&dir, &addr, "replay", "report s2\nstats\n", &[]);
    assert_eq!(
        report_line(&after),
        report_line(&before),
        "the compacted resume differs from the pre-kill report"
    );
    assert!(after.contains("\"recovered\":1"), "{after}");
    assert!(after.contains("\"edits_replayed\":0"), "{after}");
    send_signal(&daemon, SIGTERM);
    assert!(daemon.wait().expect("daemon reaped").success());
}
