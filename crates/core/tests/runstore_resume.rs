//! Kill-and-resume and regression-diff property tests for the run store.
//!
//! Mirrors `durable_resume.rs` for run records: a reference record of a
//! real analysis is written, then truncated at every byte offset —
//! simulating a `SIGKILL` landing mid-append — and each wreck is
//! resumed. Every resume must restore the reference file bit-identically.
//! On top of that, golden diff checks: a re-analysis under the same
//! configuration must diff clean, and a 2x model fault injected into the
//! recording must trip the timing threshold with per-node deltas.

use crystal::analyzer::{analyze, AnalyzerOptions};
use crystal::durable::scenario_summary;
use crystal::fingerprint::run_fingerprint;
use crystal::runstore::{self, new_meta, DiffThresholds, DiffVerdict, RunRecord, RunStore};
use crystal::selfcheck::standard_scenarios;
use crystal::tech::Technology;
use crystal::ModelKind;
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

fn temp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "crystal_runstore_resume_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Analyzes the fixture and builds a full run record (arrivals, digests,
/// exit footer), optionally with a recording-layer model fault.
fn record_of(net: &Network, inject: Option<(ModelKind, f64)>) -> RunRecord {
    let tech = Technology::nominal();
    let options = AnalyzerOptions::default();
    let fingerprint = run_fingerprint(net, &tech, ModelKind::Slope, &options);
    let mut record = RunRecord::new(new_meta("batch", fingerprint, "slope", 1));
    for (label, scenario) in standard_scenarios(net, &HashMap::new(), Seconds::ZERO) {
        let result = analyze(net, &tech, ModelKind::Slope, &scenario).expect("analysis succeeds");
        let rows = runstore::arrival_rows(net, &label, &result, inject);
        record.scenarios.push(runstore::ScenarioRow {
            label,
            outcome: "ok".to_string(),
            digest: Some(runstore::arrival_digest(&rows)),
            summary: scenario_summary(net, &result),
            wall_us: 0,
            oversubscribed: false,
        });
        record.arrivals.extend(rows);
    }
    record.exit = Some(runstore::ExitRow {
        status: "ok".to_string(),
        code: 0,
        wall_us: 1234,
    });
    record
}

#[test]
fn torn_tail_resume_is_bit_identical_at_every_offset() {
    let net = chain();
    let record = record_of(&net, None);
    let store = RunStore::open(&temp_db("torn")).expect("store opens");
    let reference_path = store.record(&record).expect("record writes");
    let reference = std::fs::read(&reference_path).expect("reference reads");
    assert!(
        reference.len() > 200,
        "fixture record should be non-trivial, got {} bytes",
        reference.len()
    );

    let wreck = reference_path.with_extension("wreck.run");
    for cut in 0..reference.len() {
        std::fs::write(&wreck, &reference[..cut]).expect("wreck writes");
        store
            .resume(&wreck, &record)
            .unwrap_or_else(|e| panic!("resume at offset {cut} failed: {e}"));
        let resumed = std::fs::read(&wreck).expect("resumed file reads");
        assert_eq!(
            resumed, reference,
            "resume at offset {cut} is not bit-identical"
        );
    }
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn reanalysis_under_same_config_diffs_clean() {
    let net = chain();
    let a = record_of(&net, None);
    let b = record_of(&net, None);
    let d = runstore::diff(&a, &b);
    assert!(d.digest_mismatches.is_empty(), "{:?}", d.digest_mismatches);
    assert!(d.node_deltas.is_empty(), "{:?}", d.node_deltas);
    assert_eq!(d.max_timing_pct, 0.0);
    assert_eq!(
        d.verdict(&DiffThresholds {
            timing_pct: Some(0.5),
            perf_pct: None,
            digest: true,
        }),
        DiffVerdict::Clean
    );
}

#[test]
fn injected_model_fault_trips_timing_threshold() {
    let net = chain();
    let a = record_of(&net, None);
    let b = record_of(&net, Some((ModelKind::Slope, 2.0)));
    let d = runstore::diff(&a, &b);
    assert!(
        !d.digest_mismatches.is_empty(),
        "a 2x fault must change digests"
    );
    assert!(
        !d.node_deltas.is_empty(),
        "per-node deltas must be reported"
    );
    // Every non-zero arrival exactly doubles, so the worst relative
    // change is exactly +100%.
    assert!(
        (d.max_timing_pct - 100.0).abs() < 1e-9,
        "worst delta {} should be +100%",
        d.max_timing_pct
    );
    for delta in &d.node_deltas {
        assert!(delta.b_ns > delta.a_ns, "{delta:?} should regress");
    }
    assert_eq!(
        d.verdict(&DiffThresholds {
            timing_pct: Some(0.5),
            perf_pct: None,
            digest: false,
        }),
        DiffVerdict::TimingRegression
    );
    // Report-only digests: without a timing threshold the mismatches
    // alone do not trip the gate unless explicitly requested.
    assert_eq!(
        d.verdict(&DiffThresholds {
            timing_pct: None,
            perf_pct: None,
            digest: false,
        }),
        DiffVerdict::Clean
    );
    assert_eq!(
        d.verdict(&DiffThresholds {
            timing_pct: None,
            perf_pct: None,
            digest: true,
        }),
        DiffVerdict::DigestMismatch
    );
}
