//! Asserts the CLI's stable exit-code taxonomy against the real binary.
//!
//! Scripts and CI depend on these numbers; a change here is a breaking
//! interface change:
//!
//! | code | meaning |
//! | ---- | ------- |
//! | 0 | success |
//! | 1 | generic failure |
//! | 2 | parse error |
//! | 3 | analysis budget exhausted |
//! | 4 | self-check divergence |
//! | 5 | scenario timeout |
//! | 6 | scenario poisoned (retry ladder exhausted) |
//! | 7 | I/O failure |
//! | 8 | interrupted by SIGINT/SIGTERM |
//! | 9 | overloaded (`client`: the daemon shed the last request) |
//! | 10 | storage error (`client`: a session journal write failed) |
//!
//! Flags are per subcommand: a flag the subcommand does not take, or a
//! combination in which one flag would do nothing, is a usage error (1).

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_crystal-cli");

const INVERTER_CHAIN: &str = "| two inverters\ni a\no y\n\
    n a m gnd 2 8\np a m vdd 2 16\nC m 20\n\
    n m y gnd 2 8\np m y vdd 2 16\nC y 100\n";

fn fixture(tag: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "crystal_exit_codes_{tag}_{}.sim",
        std::process::id()
    ));
    std::fs::write(&path, contents).expect("fixture writes");
    path
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "crystal_exit_codes_{tag}_{}.journal",
        std::process::id()
    ))
}

/// Runs the binary to completion, killing it (and failing the test) if
/// it is still running after 30 s: an invocation that should be refused
/// must not block instead.
fn run_bounded(args: &[&str]) -> Output {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

/// Asserts a usage error: exit 1, and stderr names every one of `names`.
fn assert_usage_error(args: &[&str], names: &[&str]) {
    let out = run_bounded(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    for name in names {
        assert!(stderr.contains(name), "{args:?}: `{name}` not in {stderr}");
    }
}

fn exit_code(args: &[&str]) -> i32 {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
        .expect("binary exits with a code")
}

#[test]
fn success_is_zero() {
    let path = fixture("ok", INVERTER_CHAIN);
    assert_eq!(exit_code(&["batch", path.to_str().unwrap()]), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_command_is_one() {
    let path = fixture("generic", INVERTER_CHAIN);
    assert_eq!(exit_code(&["frobnicate", path.to_str().unwrap()]), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn static_level_on_a_non_input_is_one() {
    // `m` and `y` are internal/output nodes: the logic solve only reads
    // levels on primary inputs, so such a level must be refused, not
    // silently ignored.
    let path = fixture("static", INVERTER_CHAIN);
    let path = path.to_str().unwrap();
    for (args, node) in [
        (
            vec![
                "report", path, "--input", "a", "--edge", "rise", "--output", "y", "--set", "m=0",
            ],
            "m",
        ),
        (vec!["batch", path, "--set", "y=1"], "y"),
        (vec!["logic", path, "--set", "y=0"], "y"),
    ] {
        let out = Command::new(BIN).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("node `{node}` is not a primary input")),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn foreign_flags_are_refused() {
    let path = fixture("foreign", INVERTER_CHAIN);
    let p = path.to_str().unwrap();
    let db = temp_journal("foreign_db");
    let journal = temp_journal("foreign_journal");
    let _ = std::fs::remove_dir_all(&db);
    let _ = std::fs::remove_file(&journal);
    let (db_s, journal_s) = (db.to_str().unwrap(), journal.to_str().unwrap());
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/baselines/adder-slope.run"
    );
    let report = ["report", p, "--input", "a", "--edge", "rise"];
    for (args, command, flag) in [
        (vec!["sweep", p, "--set", "a=1"], "sweep", "--set"),
        (
            [&report[..], &["--run-db", db_s]].concat(),
            "report",
            "--run-db",
        ),
        (
            [&report[..], &["--journal", journal_s]].concat(),
            "report",
            "--journal",
        ),
        (vec!["lint", p, "--threads", "2"], "lint", "--threads"),
        (vec!["spice", p, "--model", "lumped"], "spice", "--model"),
        (
            vec!["logic", p, "--transition", "1"],
            "logic",
            "--transition",
        ),
        (
            vec!["diff-runs", baseline, baseline, "--threads", "2"],
            "diff-runs",
            "--threads",
        ),
    ] {
        assert_usage_error(&args, &[&format!("`{command}`"), flag]);
    }
    assert!(!db.exists(), "a refused --run-db must record nothing");
    assert!(!journal.exists(), "a refused --journal must write nothing");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flags_that_would_do_nothing_are_refused() {
    let path = fixture("inert", INVERTER_CHAIN);
    let p = path.to_str().unwrap();
    let journal = temp_journal("inert");
    let j = journal.to_str().unwrap();
    let db = temp_journal("inert_db");
    let db_s = db.to_str().unwrap();
    let script = temp_journal("inert_edits");
    std::fs::write(&script, "cap y 80\n").expect("edit script writes");
    let edits = script.to_str().unwrap();
    let _ = std::fs::remove_file(&journal);
    for (args, flag, other) in [
        (vec!["batch", p, "--resume"], "--resume", "--journal"),
        (
            vec!["batch", p, "--scenario-timeout", "0"],
            "--scenario-timeout",
            "--journal",
        ),
        (
            vec!["batch", p, "--max-retries", "0"],
            "--max-retries",
            "--journal",
        ),
        (
            vec!["batch", p, "--retry-backoff-ms", "1"],
            "--retry-backoff-ms",
            "--journal",
        ),
        (
            vec!["batch", p, "--selfcheck-resume"],
            "--selfcheck-resume",
            "--journal",
        ),
        (
            vec!["batch", p, "--journal", j, "--fail-fast"],
            "--fail-fast",
            "--journal",
        ),
        (
            vec![
                "batch",
                p,
                "--journal",
                j,
                "--run-db",
                db_s,
                "--inject",
                "slope=2",
            ],
            "--inject",
            "--journal",
        ),
        (
            vec!["batch", p, "--inject", "slope=2"],
            "--inject",
            "--run-db",
        ),
        (vec!["watch", p, "--selfcheck"], "--selfcheck", "--edits"),
        (
            vec!["watch", p, "--once", "--edits", edits],
            "--once",
            "--edits",
        ),
    ] {
        assert_usage_error(&args, &[flag, other]);
    }
    assert!(!journal.exists(), "a refused batch must not journal");
    assert!(!db.exists(), "a refused batch must not record");
    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn parse_error_is_two() {
    let path = fixture("parse", "n a\n");
    assert_eq!(exit_code(&["batch", path.to_str().unwrap()]), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn budget_exhaustion_is_three() {
    let path = fixture("budget", INVERTER_CHAIN);
    assert_eq!(
        exit_code(&["batch", path.to_str().unwrap(), "--max-stages", "0"]),
        3
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_divergence_is_four() {
    let path = fixture("diverge", INVERTER_CHAIN);
    let journal = temp_journal("diverge");
    let journal_s = journal.to_str().unwrap().to_string();
    assert_eq!(
        exit_code(&["batch", path.to_str().unwrap(), "--journal", &journal_s]),
        0
    );
    // Flip one hex digit of the first journaled digest: the resumed
    // record no longer matches a fresh analysis.
    let mut text = std::fs::read_to_string(&journal).expect("journal exists");
    let marker = "\"digest\":\"";
    let at = text.find(marker).expect("journal has a digest") + marker.len();
    let flipped = if &text[at..at + 1] == "0" { "f" } else { "0" };
    text.replace_range(at..at + 1, flipped);
    std::fs::write(&journal, text).expect("tampers journal");
    assert_eq!(
        exit_code(&[
            "batch",
            path.to_str().unwrap(),
            "--journal",
            &journal_s,
            "--resume",
            "--selfcheck-resume",
        ]),
        4
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn scenario_timeout_is_five() {
    let path = fixture("timeout", INVERTER_CHAIN);
    let journal = temp_journal("timeout");
    assert_eq!(
        exit_code(&[
            "batch",
            path.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--scenario-timeout",
            "0",
            "--max-retries",
            "0",
        ]),
        5
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn poisoned_quarantine_is_six() {
    let path = fixture("poison", INVERTER_CHAIN);
    let journal = temp_journal("poison");
    assert_eq!(
        exit_code(&[
            "batch",
            path.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--scenario-timeout",
            "0",
            "--max-retries",
            "1",
            "--retry-backoff-ms",
            "1",
        ]),
        6
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn io_failure_is_seven() {
    assert_eq!(
        exit_code(&["batch", "/nonexistent/crystal_exit_codes.sim"]),
        7
    );
}

#[cfg(unix)]
#[test]
fn sigterm_drains_and_exits_eight() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let path = fixture("sigterm", INVERTER_CHAIN);
    let journal = temp_journal("sigterm");
    // A zero deadline times out every attempt, and the backoff ladder
    // (100+200+400+800+1600 ms) keeps the first scenario busy for
    // seconds — plenty of runway to land a signal mid-run. The second
    // scenario is then skipped by the drain.
    let mut child = Command::new(BIN)
        .args([
            "batch",
            path.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--scenario-timeout",
            "0",
            "--max-retries",
            "5",
            "--retry-backoff-ms",
            "100",
        ])
        .spawn()
        .expect("binary spawns");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let rc = unsafe { kill(child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "signal delivered");
    let status = child.wait().expect("child exits");
    assert_eq!(status.code(), Some(8), "graceful drain exits 8");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&journal);
}
