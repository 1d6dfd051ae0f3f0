//! The smoke bench's bounds, asserted on one [`Report`] measured by the
//! same code `bench_smoke` records with.
//!
//! The report is measured once, inside a `OnceLock`: every test waits
//! for it before doing anything, so no sibling test runs while the
//! timed legs run. `bench_smoke_records_and_diffs_clean_against_the_baseline`
//! writes `BENCH.json`, the traces, the run database and the
//! `diff-runs --json` report under `bench_gates/` in
//! `CARGO_TARGET_TMPDIR`, where CI picks them up as artifacts.

use std::path::Path;
use std::sync::OnceLock;

use bench::smoke::{Report, Tier};
use crystal::runstore::{diff, read_run, DiffThresholds, DiffVerdict};

/// Repetitions per timed row; bounds compare the fastest ones.
const REPS: usize = 3;

fn report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| Report::measure(Tier::All, REPS))
}

#[test]
fn every_leg_produces_a_result() {
    assert_eq!(report().failures(), Vec::<String>::new());
}

/// Dirty-set propagation charges at most three evaluations per
/// extracted stage; a schedule that re-evaluates every stage every
/// round blows through it.
#[test]
fn charged_evaluations_stay_at_or_below_three_per_stage() {
    for run in &report().traced {
        assert!(
            run.stages_extracted > 0,
            "{}: nothing extracted",
            run.circuit
        );
        assert!(
            run.eval_ratio() <= 3.0,
            "{}: {} charged evaluations over {} extracted stages",
            run.circuit,
            run.stage_evals_charged,
            run.stages_extracted
        );
    }
}

#[test]
fn the_edit_loop_beats_full_reanalysis_by_1_5x() {
    let edit = report().edit_loop.as_ref().expect("smoke tier ran");
    assert!(edit.identical, "the session diverged from full re-analysis");
    assert!(
        edit.speedup() >= 1.5,
        "incremental {:?} vs full {:?}: {:.2}x",
        edit.incremental,
        edit.full,
        edit.speedup()
    );
    assert!(edit.stages_reused > 0, "no stage was ever reused");
}

/// Dense LU grows as n³ against the sparse chain factorization, so the
/// sparse speedup must grow with circuit size, beyond the spread of the
/// repetitions: the 800-stage chain's least favourable pairing (fastest
/// dense, slowest sparse) against the 200-stage chain's most favourable.
/// Two speedups of about 1× (the dense solver in both legs) differ by
/// noise alone and must not pass.
#[test]
fn the_sparse_speedup_grows_from_200_to_800_stages() {
    let [small, large] = &report().solver[..] else {
        panic!("two pass chains");
    };
    let large_low = large.dense_op.min_ms / large.sparse_op.max_ms;
    let small_high = small.dense_op.max_ms / small.sparse_op.min_ms;
    assert!(
        large_low > small_high,
        "{small_high:.2}x at {} unknowns vs {large_low:.2}x at {}",
        small.unknowns,
        large.unknowns
    );
}

#[test]
fn dense_and_sparse_operating_points_agree_to_a_microvolt() {
    for row in &report().solver {
        assert!(
            row.max_abs_diff_v < 1e-6,
            "{}: {} V",
            row.circuit,
            row.max_abs_diff_v
        );
    }
}

#[test]
fn peak_rss_after_the_sparse_operating_points_stays_under_2_gb() {
    assert_eq!(report().sparse_ops.len(), 3);
    if let Some(mb) = report().peak_rss_mb {
        assert!(mb <= 2048.0, "peak RSS {mb:.1} MB");
    }
}

#[test]
fn batches_are_identical_across_thread_counts() {
    assert_eq!(report().batches.len(), 4);
    for row in &report().batches {
        assert!(row.identical, "{} x{}", row.circuit, row.threads);
    }
}

/// The parallel path may cost overhead, never more than 1.35× the
/// serial batch.
#[test]
fn two_threads_are_no_slower_than_one_by_more_than_1_35x() {
    for pair in report().batches.chunks(2) {
        let [serial, parallel] = pair else {
            panic!("1- and 2-thread rows");
        };
        assert_eq!((serial.threads, parallel.threads), (1, 2));
        assert!(
            parallel.wall.min_ms <= serial.wall.min_ms * 1.35,
            "{}: {:?} at 2 threads vs {:?} at 1",
            serial.circuit,
            parallel.wall,
            serial.wall
        );
    }
}

/// Records the report like `bench_smoke --tier all --trace bench_trace
/// --run-db rundb` and diffs the run against the committed baseline at
/// `--fail-on-perf-regression 200`. A debug build's wall clocks are not
/// comparable with the release-built baseline, so there only the row
/// set is compared.
#[test]
fn bench_smoke_records_and_diffs_clean_against_the_baseline() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_gates");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("artifact directory");
    let trace = dir.join("bench_trace");
    let (_, path) = (report())
        .write(
            &dir.join("BENCH.json"),
            Some(&trace.to_string_lossy()),
            Some(&dir.join("rundb")),
        )
        .expect("artifacts write")
        .expect("a run record");
    for run in &report().traced {
        assert!(dir
            .join(format!("bench_trace.{}.jsonl", run.circuit))
            .exists());
    }

    let baseline =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines/bench-smoke.run");
    let baseline = read_run(&baseline).expect("baseline reads");
    let fresh = read_run(&path).expect("fresh record reads");
    let report = diff(&baseline, &fresh);
    let thresholds = DiffThresholds {
        perf_pct: (!cfg!(debug_assertions)).then_some(200.0),
        ..DiffThresholds::default()
    };
    std::fs::write(dir.join("bench_diff.json"), report.to_json(&thresholds)).expect("diff report");
    assert!(
        report.only_in_a.is_empty() && report.only_in_b.is_empty(),
        "the baseline's rows differ from the bench's: re-record it\n{}",
        report.render()
    );
    assert_eq!(
        report.verdict(&thresholds),
        DiffVerdict::Clean,
        "{}",
        report.render()
    );
}
