//! The differential self-check gates, run against the built
//! `crystal-cli`. Each seed netlist runs the full harness of `check`:
//! cached vs fresh, parallel vs serial, and per-model tolerance bands
//! against the nanospice transient reference under the committed
//! calibrated technology. The seed corpus must report zero divergences
//! (exit 0), and a deliberately corrupted lumped prediction must be
//! flagged (exit 4, `DIVERGENCE`), which proves the harness can fire.
//!
//! Each seed run writes its `--trace` to
//! `selfcheck_trace.<netlist>.jsonl` under `CARGO_TARGET_TMPDIR`, where CI
//! picks the traces up as an artifact.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_crystal-cli");

fn netlist(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/netlists");
    dir.join(name).to_string_lossy().into_owned()
}

/// `crystal-cli check NETLIST --tech calibrated.tech --transition 0.5`
/// with `extra` appended.
fn check(name: &str, extra: &[&str]) -> Output {
    let tech = netlist("calibrated.tech");
    let mut args = vec![
        "check".to_string(),
        netlist(name),
        "--tech".to_string(),
        tech,
        "--transition".to_string(),
        "0.5".to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    Command::new(BIN)
        .args(&args)
        .output()
        .expect("crystal-cli runs")
}

/// Runs one seed netlist with its trace and `--metrics`, and requires a
/// clean exit and a written trace.
fn seed_passes(name: &str, extra: &[&str]) {
    let stem = name.trim_end_matches(".sim");
    let trace =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selfcheck_trace.{stem}.jsonl"));
    let _ = std::fs::remove_file(&trace);
    let trace_arg = trace.to_string_lossy().into_owned();
    let mut args = extra.to_vec();
    args.extend(["--trace", &trace_arg, "--metrics"]);
    let out = check(name, &args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{name} diverged:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains(", 0 divergences"), "{name}:\n{stdout}");
    let written = std::fs::read_to_string(&trace).expect("trace written");
    assert!(!written.is_empty(), "{name}: empty trace");
}

#[test]
fn seed_corpus_has_zero_divergences() {
    seed_passes("inverter_chain.sim", &[]);
    seed_passes("pass_mesh.sim", &["--set", "ctl=1"]);
    seed_passes(
        "adder.sim",
        &[
            "--set", "p1=1", "--set", "p2=1", "--set", "p3=1", "--set", "p4=1", "--set", "g1=0",
            "--set", "g2=0", "--set", "g3=0", "--set", "g4=0", "--input", "cin", "--edge", "rise",
        ],
    );
}

#[test]
fn injected_lumped_divergence_is_flagged() {
    let out = check("pass_mesh.sim", &["--set", "ctl=1", "--inject", "lumped=2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(4),
        "an injected 2x lumped divergence must exit 4:\n{stderr}"
    );
    assert!(stderr.contains("DIVERGENCE"), "{stderr}");
}
