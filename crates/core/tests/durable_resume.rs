//! Kill-and-resume property test for the durable batch engine.
//!
//! A reference batch runs to completion under a journal. The journal is
//! then truncated at many byte offsets — simulating a `SIGKILL` landing
//! mid-append — and each wreck is resumed. Every resume must reproduce
//! the reference records bit-identically (label, outcome, digest,
//! summary), at one worker thread and at several, and leave a journal
//! that a second resume replays in full.

use crystal::analyzer::AnalyzerOptions;
use crystal::selfcheck::standard_scenarios;
use crystal::tech::Technology;
use crystal::{run_durable, DurableOptions, ModelKind, Outcome};
use mosnet::units::Seconds;
use mosnet::Network;
use std::collections::HashMap;
use std::path::PathBuf;

const CHAIN: &str = "| three inverters\ni a\no y\n\
    n a m gnd 2 8\np a m vdd 2 16\nC m 20\n\
    n m w gnd 2 8\np m w vdd 2 16\nC w 35\n\
    n w y gnd 2 8\np w y vdd 2 16\nC y 100\n";

fn chain() -> Network {
    mosnet::sim_format::parse(CHAIN, "chain").expect("fixture parses")
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "crystal_durable_resume_{tag}_{}.journal",
        std::process::id()
    ))
}

fn run(net: &Network, journal: PathBuf, resume: bool, threads: usize) -> crystal::DurableRun {
    let tech = Technology::nominal();
    let scenarios = standard_scenarios(net, &HashMap::new(), Seconds::ZERO);
    assert_eq!(scenarios.len(), 2, "one input, two edges");
    run_durable(
        net,
        &tech,
        ModelKind::Slope,
        &scenarios,
        AnalyzerOptions::default(),
        &DurableOptions {
            journal: Some(journal),
            resume,
            threads,
            ..DurableOptions::default()
        },
    )
    .expect("durable run succeeds")
}

fn record_keys(run: &crystal::DurableRun) -> Vec<(String, Outcome, Option<u64>, String)> {
    run.records
        .iter()
        .map(|r| (r.label.clone(), r.outcome, r.digest, r.summary.clone()))
        .collect()
}

#[test]
fn every_truncation_point_resumes_bit_identically() {
    let net = chain();
    let reference_path = temp_journal("reference");
    let reference = run(&net, reference_path.clone(), false, 1);
    assert!(reference.all_ok());
    let expected = record_keys(&reference);
    let bytes = std::fs::read(&reference_path).expect("journal exists");
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("journal has a header line")
        + 1;

    // Cut everywhere: inside the header (a crash while the journal was
    // being created), mid-record, at record boundaries, and one byte
    // short of complete — every wreck a crash could leave.
    let mut cuts: Vec<usize> = (1..header_end).collect();
    cuts.extend((header_end..bytes.len()).step_by(23));
    cuts.extend([header_end, bytes.len() - 1, bytes.len()]);
    for (i, cut) in cuts.into_iter().enumerate() {
        for threads in [1usize, 4] {
            let path = temp_journal(&format!("cut{i}_t{threads}"));
            std::fs::write(&path, &bytes[..cut]).expect("writes wreck");
            let resumed = run(&net, path.clone(), true, threads);
            assert_eq!(
                record_keys(&resumed),
                expected,
                "cut at byte {cut}, {threads} threads"
            );
            // The repaired journal must itself be a complete one: a
            // second resume replays every record and recomputes none.
            let again = run(&net, path.clone(), true, threads);
            assert_eq!(
                again.resumed,
                expected.len(),
                "second resume after cut at byte {cut}, {threads} threads"
            );
            assert!(again.records.iter().all(|r| r.resumed));
            assert_eq!(record_keys(&again), expected, "second resume, cut {cut}");
            let _ = std::fs::remove_file(&path);
        }
    }
    let _ = std::fs::remove_file(&reference_path);
}

#[test]
fn complete_journal_resumes_without_recomputing() {
    let net = chain();
    let path = temp_journal("complete");
    let reference = run(&net, path.clone(), false, 1);
    let resumed = run(&net, path.clone(), true, 4);
    assert_eq!(resumed.resumed, reference.records.len());
    assert!(resumed.records.iter().all(|r| r.resumed));
    assert_eq!(record_keys(&resumed), record_keys(&reference));
    let _ = std::fs::remove_file(&path);
}
