//! The incremental-session gates, run against the built `crystal-cli`.
//! Each seed corpus replays a committed 20-edit script through one
//! persistent session with `--selfcheck` on: after every edit the
//! session must be bit-identical to a fresh full analysis across the
//! serial, parallel, cold-cache and warm-cache legs (any mismatch exits
//! 4). On top of that the summary's reused-stage count must be positive:
//! an incremental engine that re-evaluates everything would pass the
//! equivalence gate while delivering no speedup.
//!
//! Each run writes its report to `incremental_<netlist>.txt` under
//! `CARGO_TARGET_TMPDIR`, where CI picks the reports up as an artifact.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_crystal-cli");

fn example(dir: &str, name: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    root.join(dir).join(name).to_string_lossy().into_owned()
}

/// `crystal-cli watch NETLIST --tech calibrated.tech --transition 0.5
/// SETS --edits NAME.edits --selfcheck --threads 2`: requires exit 0 and
/// a positive reused-stage count in the `edit(s) applied` line.
fn replay_passes(name: &str, sets: &[&str]) {
    let mut args = vec![
        "watch".to_string(),
        example("netlists", &format!("{name}.sim")),
        "--tech".to_string(),
        example("netlists", "calibrated.tech"),
        "--transition".to_string(),
        "0.5".to_string(),
    ];
    for set in sets {
        args.extend(["--set".to_string(), set.to_string()]);
    }
    args.extend([
        "--edits".to_string(),
        example("edits", &format!("{name}.edits")),
        "--selfcheck".to_string(),
        "--threads".to_string(),
        "2".to_string(),
    ]);
    let out = Command::new(BIN)
        .args(&args)
        .output()
        .expect("crystal-cli runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let report = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("incremental_{name}.txt"));
    std::fs::write(&report, stdout.as_bytes()).expect("report writes");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{name} diverged:\n{stdout}\n{stderr}"
    );
    // `20 edit(s) applied: R stage(s) re-evaluated, N stage(s) reused`:
    // the reused count is the third field from the end.
    let summary = stdout
        .lines()
        .find(|line| line.contains("edit(s) applied"))
        .unwrap_or_else(|| panic!("{name}: no `edit(s) applied` line:\n{stdout}"));
    let fields: Vec<&str> = summary.split_whitespace().collect();
    let reused: u64 = fields
        .len()
        .checked_sub(3)
        .and_then(|at| fields[at].parse().ok())
        .unwrap_or(0);
    assert!(
        reused > 0,
        "{name}: no stage reuse across the edit sequence: {summary}"
    );
}

/// Adder: statics de-conduct the carry tail (p3=p4=0), so the script's
/// tail edits must replay the head targets.
#[test]
fn adder_edit_script_stays_exact_and_reuses_stages() {
    replay_passes(
        "adder",
        &[
            "p1=1", "p2=1", "p3=0", "p4=0", "g1=0", "g2=0", "g3=0", "g4=0",
        ],
    );
}

/// Pass chain: ctl=0 de-conducts the chain, so the tail cap edits must
/// replay the driver scenarios.
#[test]
fn pass_mesh_edit_script_stays_exact_and_reuses_stages() {
    replay_passes("pass_mesh", &["ctl=0"]);
}
