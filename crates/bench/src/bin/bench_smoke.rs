//! **Smoke bench** — records the legs of [`bench::smoke`]: the traced
//! eval counts of three small circuits, the incremental edit loop, and
//! (large tier) the dense-vs-sparse pass chains, the sparse-only
//! operating points with the peak RSS after them, and the decoder-9 /
//! SRAM-64 batches at 1 and 2 scenario threads. Every timed row keeps
//! the min, median and max over `--reps`.
//!
//! ```text
//! cargo run --release -p bench --bin bench_smoke -- [options]
//!   --tier NAME     `smoke` (default: eval counts and edit loop),
//!                   `large` (solver legs and batches), or `all`
//!   --reps N        repetitions per timed row (default 3)
//!   --out PATH      output file (default BENCH.json)
//!   --run-db DIR    also append a run record (one row per leg and
//!                   circuit) to the run database, so
//!                   `crystal-cli diff-runs` can compare bench runs
//!   --trace PREFIX  write each traced run to PREFIX.<circuit>.jsonl
//! ```
//!
//! It records and does not gate: the bounds are the `bench_gates`
//! tests. Exit status 1 when a leg produced no valid result (a
//! non-converged operating point, results that differ across thread
//! counts) or an output could not be written.

use bench::smoke::{Report, Tier, BENCH_LABEL};
use std::path::Path;

fn main() {
    let mut tier = Tier::Smoke;
    let mut reps = 3usize;
    let mut out = "BENCH.json".to_string();
    let mut run_db: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--tier" => {
                tier = match value().as_str() {
                    "smoke" => Tier::Smoke,
                    "large" => Tier::Large,
                    "all" => Tier::All,
                    other => fail(&format!("unknown tier `{other}` (smoke|large|all)")),
                }
            }
            "--reps" => {
                reps = (value().parse().ok())
                    .unwrap_or_else(|| fail("--reps needs a positive integer"))
            }
            "--out" => out = value(),
            "--run-db" => run_db = Some(value()),
            "--trace" => trace = Some(value()),
            other => fail(&format!("unknown option `{other}`")),
        }
    }

    let report = Report::measure(tier, reps);
    let (hw, reps) = (report.hardware_threads, report.reps);
    println!("{BENCH_LABEL} — {hw} hardware thread(s), {reps} rep(s)");
    for row in report.run_record().scenarios {
        println!("{:<28} {:<5} {}", row.label, row.outcome, row.summary);
    }
    if let Some(mb) = report.peak_rss_mb {
        println!("peak RSS after the sparse operating points: {mb:.1} MB");
    }
    let run_db = run_db.as_deref().map(Path::new);
    let recorded =
        (report.write(Path::new(&out), trace.as_deref(), run_db)).unwrap_or_else(|e| fail(&e));
    println!("wrote {out}");
    if let Some((id, path)) = recorded {
        println!("run-db: recorded {id} -> {}", path.display());
    }
    let failures = report.failures();
    for f in &failures {
        eprintln!("bench_smoke: FAIL: {f} produced no valid result");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn fail(message: &str) -> ! {
    eprintln!("bench_smoke: {message}");
    std::process::exit(1);
}
