//! The cross-run regression gates, run against the built `crystal-cli`.
//! Every arrival of the committed baseline record
//! `results/baselines/adder-slope.run` is compared per node against a
//! fresh analysis of the same netlist under the same configuration, at
//! `--fail-on-timing-regression 0.5`:
//!
//! * a fresh batch must diff clean (exit 0);
//! * a journaled batch must diff clean too: its run record must carry
//!   the per-node arrivals the gate compares, not digests alone;
//! * a batch with the slope model's recorded arrivals doubled
//!   (`--inject slope=2`) must trip the gate: exit 4, verdict
//!   `timing_regression`. This proves the gate can fire.
//!
//! Digest mismatches are report-only (cross-toolchain libm drift is
//! legitimate below the timing threshold). Each leg keeps its run
//! database and its `diff-runs --json` report under
//! `regression_gate/<leg>/` in `CARGO_TARGET_TMPDIR`, where CI picks
//! them up as an artifact.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_crystal-cli");

fn repo_path(rel: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.join(rel).to_string_lossy().into_owned()
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("crystal-cli runs")
}

fn text(out: &Output) -> String {
    format!(
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// A fresh directory for one leg.
fn leg_dir(leg: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("regression_gate")
        .join(leg);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("leg directory");
    dir
}

/// Batches `adder.sim` under the calibrated technology into the leg's
/// run database with `extra` appended; the batch must exit 0. Returns
/// the recorded run's ID.
fn record(dir: &Path, extra: &[&str]) -> String {
    let (sim, tech) = (
        repo_path("examples/netlists/adder.sim"),
        repo_path("examples/netlists/calibrated.tech"),
    );
    let mut args = vec!["batch", &sim, "--tech", &tech, "--run-db", "rundb"];
    args.extend(extra);
    let out = run(dir, &args);
    assert_eq!(out.status.code(), Some(0), "batch failed:\n{}", text(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let id = stdout
        .lines()
        .find_map(|line| line.strip_prefix("run-db: recorded "))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no `run-db: recorded` line:\n{stdout}"));
    id.to_string()
}

/// `diff-runs` of the committed baseline against `run`, with its JSON
/// report at `report` in the leg's directory.
fn diff_against_baseline(dir: &Path, run_id: &str, report: &str) -> Output {
    let baseline = repo_path("results/baselines/adder-slope.run");
    let args = [
        "diff-runs",
        &baseline,
        run_id,
        "--run-db",
        "rundb",
        "--fail-on-timing-regression",
        "0.5",
        "--json",
        report,
    ];
    run(dir, &args)
}

#[test]
fn fresh_run_diffs_clean_against_the_baseline() {
    let dir = leg_dir("fresh");
    let id = record(&dir, &[]);
    let out = diff_against_baseline(&dir, &id, "regression_clean.json");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out));
}

#[test]
fn journaled_run_diffs_clean_against_the_baseline() {
    let dir = leg_dir("journaled");
    let id = record(&dir, &["--journal", "j"]);
    let out = diff_against_baseline(&dir, &id, "regression_journaled.json");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out));
}

#[test]
fn injected_2x_fault_trips_the_gate() {
    let dir = leg_dir("injected");
    let id = record(&dir, &["--inject", "slope=2"]);
    let out = diff_against_baseline(&dir, &id, "regression_fault.json");
    assert_eq!(
        out.status.code(),
        Some(4),
        "injected 2x slope fault: expected exit 4 (divergence):\n{}",
        text(&out)
    );
    let report = std::fs::read_to_string(dir.join("regression_fault.json")).expect("JSON report");
    assert!(
        report.contains(r#""verdict": "timing_regression""#),
        "{report}"
    );
}
