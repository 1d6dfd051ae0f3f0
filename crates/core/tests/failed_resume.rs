//! A resume that fails leaves its file byte-identical.
//!
//! Every durable store resumes in one order: recover the valid prefix,
//! check the store's header (and, for sessions, replay every edit), and
//! only then reopen the file, truncating a torn tail away. A resume that
//! fails at the recovery or the check must therefore not touch the file:
//! the torn tail a crash left behind stays on disk, byte for byte, for
//! the operator to inspect. Each case here carries such a torn tail,
//! triggers one failure, and compares the bytes before and after.

use crystal::analyzer::AnalyzerOptions;
use crystal::durable::JournalFaultPlan;
use crystal::runstore::{self, new_meta, RunRecord, RunStore};
use crystal::selfcheck::standard_scenarios;
use crystal::session::SESSION_JOURNAL_EXT;
use crystal::tech::Technology;
use crystal::{run_durable, DurableOptions, ModelKind, Session, SessionConfig};
use mosnet::units::Seconds;
use mosnet::Network;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const CHAIN: &str = "| three inverters\ni a\no y\n\
    n a m gnd 2 8\np a m vdd 2 16\nC m 20\n\
    n m w gnd 2 8\np m w vdd 2 16\nC w 35\n\
    n w y gnd 2 8\np w y vdd 2 16\nC y 100\n";

/// A crash mid-append: an unterminated final line.
const TORN_TAIL: &str = "{\"kind\":\"scenario\",\"label\":\"a ri";

fn chain() -> Network {
    mosnet::sim_format::parse(CHAIN, "chain").expect("fixture parses")
}

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "crystal_failed_resume_{tag}_{}.{ext}",
        std::process::id()
    ))
}

/// Replaces line `index` (0-based) of the file with `line`.
fn replace_line(path: &Path, index: usize, line: &str) {
    let text = std::fs::read_to_string(path).expect("file reads");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[index] = line;
    std::fs::write(path, format!("{}\n", lines.join("\n"))).expect("file writes");
}

/// Appends a torn tail, runs `resume` (which must fail), and asserts the
/// file is byte-identical afterwards. Returns the error text.
fn fails_untouched<E: std::fmt::Display>(
    path: &Path,
    resume: impl FnOnce() -> Result<(), E>,
) -> String {
    let mut bytes = std::fs::read(path).expect("file reads");
    bytes.extend_from_slice(TORN_TAIL.as_bytes());
    std::fs::write(path, &bytes).expect("torn tail writes");
    let error = match resume() {
        Ok(()) => panic!("resume of {} succeeded", path.display()),
        Err(e) => e.to_string(),
    };
    let after = std::fs::read(path).expect("file reads");
    assert_eq!(
        after,
        bytes,
        "a failed resume changed {} ({error})",
        path.display()
    );
    let _ = std::fs::remove_file(path);
    error
}

/// A journaled batch of the chain's two scenarios under `model`.
fn batch(net: &Network, journal: &Path, model: ModelKind, resume: bool) -> Result<(), String> {
    let scenarios = standard_scenarios(net, &HashMap::new(), Seconds::ZERO);
    run_durable(
        net,
        &Technology::nominal(),
        model,
        &scenarios,
        AnalyzerOptions::default(),
        &DurableOptions {
            journal: Some(journal.to_path_buf()),
            resume,
            ..DurableOptions::default()
        },
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

#[test]
fn batch_journal_fingerprint_mismatch_leaves_the_file_untouched() {
    let net = chain();
    let path = temp_path("batch_fp", "journal");
    batch(&net, &path, ModelKind::Slope, false).expect("fresh run");
    let error = fails_untouched(&path, || batch(&net, &path, ModelKind::Lumped, true));
    assert!(error.contains("belongs to a different run"), "{error}");
}

#[test]
fn batch_journal_mid_file_damage_leaves_the_file_untouched() {
    let net = chain();
    let path = temp_path("batch_mid", "journal");
    batch(&net, &path, ModelKind::Slope, false).expect("fresh run");
    replace_line(&path, 1, "{\"kind\":\"scenario\",busted");
    let error = fails_untouched(&path, || batch(&net, &path, ModelKind::Slope, true));
    assert!(error.contains("is corrupt at line 2"), "{error}");
}

/// A journaled session on the chain with two applied edits.
fn session_journal(tag: &str) -> PathBuf {
    let path = temp_path(tag, SESSION_JOURNAL_EXT);
    let _ = std::fs::remove_file(&path);
    let mut session = Session::open(
        "s1",
        CHAIN,
        "chain.sim",
        &Technology::nominal(),
        &SessionConfig::default(),
        AnalyzerOptions::default(),
        Some(&path),
        &JournalFaultPlan::none(),
    )
    .expect("session opens");
    for edit in ["cap y 150", "cap m 40"] {
        session.apply_script(edit, None).expect("edit applies");
    }
    path
}

fn resume_session(path: &Path, tech: &Technology) -> Result<(), String> {
    Session::resume(
        path,
        tech,
        AnalyzerOptions::default(),
        &JournalFaultPlan::none(),
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

#[test]
fn session_technology_change_leaves_the_file_untouched() {
    let path = session_journal("session_tech");
    let mut other = Technology::nominal();
    other.name = "perturbed".to_string();
    let error = fails_untouched(&path, || resume_session(&path, &other));
    assert!(error.contains("does not match recorded"), "{error}");
}

#[test]
fn session_mid_file_damage_leaves_the_file_untouched() {
    let path = session_journal("session_mid");
    replace_line(&path, 1, "{\"kind\":\"edit\",busted");
    let error = fails_untouched(&path, || resume_session(&path, &Technology::nominal()));
    assert!(error.contains("damaged at line 2"), "{error}");
}

#[test]
fn session_replay_digest_mismatch_leaves_the_file_untouched() {
    let path = session_journal("session_digest");
    let text = std::fs::read_to_string(&path).expect("journal reads");
    let edit = text.lines().nth(1).expect("first edit record");
    let at = edit.find("\"digest\":\"").expect("digest field") + "\"digest\":\"".len();
    let flipped = if &edit[at..at + 1] == "0" { "1" } else { "0" };
    let damaged = format!("{}{flipped}{}", &edit[..at], &edit[at + 1..]);
    replace_line(&path, 1, &damaged);
    let error = fails_untouched(&path, || resume_session(&path, &Technology::nominal()));
    assert!(error.contains("edit 1 replayed to digest"), "{error}");
}

#[test]
fn run_record_mid_file_damage_leaves_the_file_untouched() {
    let dir = temp_path("rundb", "d");
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("store opens");
    let mut record = RunRecord::new(new_meta("batch", 7, "slope", 1));
    record.exit = Some(runstore::ExitRow {
        status: "ok".to_string(),
        code: 0,
        wall_us: 1,
    });
    for label in ["a rise", "a fall"] {
        record.scenarios.push(runstore::ScenarioRow {
            label: label.to_string(),
            outcome: "ok".to_string(),
            digest: Some(1),
            summary: "ok".to_string(),
            wall_us: 0,
            oversubscribed: false,
        });
    }
    let path = store.record(&record).expect("record writes");
    replace_line(&path, 1, "{\"kind\":\"scenario\",busted");
    let error = fails_untouched(&path, || store.resume(&path, &record));
    assert!(error.contains("is corrupt at line 2"), "{error}");
    let _ = std::fs::remove_dir_all(&dir);
}
