//! **Smoke bench** — wall-clock and cache behaviour of the parallel
//! batch engine with the stage-evaluation memo cache, plus the
//! incremental-session edit loop.
//!
//! Runs the `run_durable` scenario fan-out over three netlists
//! (inverter chain, random pass mesh, Manchester-carry adder) at 1, 2,
//! and all hardware threads, then replays a 10-edit resize sequence
//! through an `IncrementalAnalyzer` session against full re-analysis,
//! and writes the measurements to `BENCH.json` for the CI artifact.
//!
//! ```text
//! cargo run --release -p bench --bin bench_smoke -- [options]
//!   --tier NAME           which tier to run: `smoke` (the default batch
//!                         and edit-loop suite), `large` (the sparse-
//!                         solver scaling tier: dense-vs-sparse circuit
//!                         simulation on mid-size chains plus sparse-only
//!                         operating points on 10k+ transistor
//!                         generators), or `all`
//!   --max-rss-mb X        gate (large tier): the process peak RSS after
//!                         the 10k+ transistor legs must stay at or
//!                         below X MB (skipped where /proc/self/status
//!                         is unreadable)
//!   --out PATH            output file (default BENCH.json)
//!   --run-db DIR          also append a run record (one scenario row per
//!                         circuit x thread-count plus the edit loop) to
//!                         the persistent run database, so
//!                         `crystal-cli diff-runs` can compare bench runs
//!   --reps N              timing repetitions, best-of (default 3)
//!   --check               gate: parallel runs must not be slower than
//!                         serial beyond a noise tolerance, and parallel
//!                         results must be bit-identical to serial
//!   --require-speedup X   gate: pass-mesh batch speedup at max threads
//!                         must reach X (skipped on hosts with fewer
//!                         than 4 hardware threads)
//!   --require-edit-speedup X   gate: the incremental edit loop must beat
//!                         full re-analysis by X on wall clock
//!   --max-eval-ratio X    gate: charged stage evaluations per extracted
//!                         stage must stay at or below X on every run —
//!                         the dirty-set propagation regression gate (a
//!                         full-Jacobi engine re-evaluates every stage
//!                         every round and blows straight through it)
//!   --trace PREFIX        write a JSON-lines analysis trace per circuit
//!                         (max threads) to PREFIX.<circuit>.jsonl
//! ```
//!
//! Per-run phase breakdowns (extraction/evaluation/propagation/cache
//! span times and counters, from an untimed instrumented run) are
//! embedded in the BENCH JSON under `"phases"`.
//!
//! Exit status 0 when all requested gates pass, 1 otherwise.

use std::collections::HashMap;

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario};
use crystal::durable::{run_durable, DurableOptions};
use crystal::incremental::IncrementalAnalyzer;
use crystal::memo::{CacheStats, StageCache};
use crystal::models::ModelKind;
use crystal::obs::{Metrics, TraceSink};
use crystal::pool::available_parallelism;
use crystal::tech::Technology;
use mosnet::generators::{
    barrel_shifter, carry_chain, decoder, inverter_chain, memory_array, pass_chain,
    random_pass_mesh, Style,
};
use mosnet::units::{Farads, Seconds};
use mosnet::{Geometry, Network};
use nanospice::circuit::MosModelSet;
use nanospice::devices::Waveshape;
use nanospice::{elaborate, Circuit, Options, Simulator, SolverChoice};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Noise tolerance for the "parallel is not slower than serial" gate:
/// on a single-core container the parallel path is pure overhead, so we
/// only fail when it costs more than this factor.
const SLOWDOWN_TOLERANCE: f64 = 1.35;

/// The bench label embedded in the JSON and run records: derived from
/// the crate version so regenerated artifacts never claim a stale PR.
const BENCH_LABEL: &str = concat!("bench_smoke v", env!("CARGO_PKG_VERSION"));

/// Which benchmark tiers a run covers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Smoke,
    Large,
    All,
}

impl Tier {
    fn runs_smoke(self) -> bool {
        self != Tier::Large
    }
    fn runs_large(self) -> bool {
        self != Tier::Smoke
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH.json".to_string();
    let mut run_db: Option<String> = None;
    let mut reps = 3usize;
    let mut check = false;
    let mut require_speedup: Option<f64> = None;
    let mut require_edit_speedup: Option<f64> = None;
    let mut max_eval_ratio: Option<f64> = None;
    let mut trace_prefix: Option<String> = None;
    let mut tier = Tier::Smoke;
    let mut max_rss_mb: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().expect("--out needs a value").clone(),
            "--tier" => {
                tier = match it.next().expect("--tier needs a value").as_str() {
                    "smoke" => Tier::Smoke,
                    "large" => Tier::Large,
                    "all" => Tier::All,
                    other => {
                        eprintln!("bench_smoke: unknown tier `{other}` (smoke|large|all)");
                        std::process::exit(1);
                    }
                };
            }
            "--max-rss-mb" => {
                max_rss_mb = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-rss-mb needs a number"),
                );
            }
            "--run-db" => run_db = Some(it.next().expect("--run-db needs a value").clone()),
            "--trace" => trace_prefix = Some(it.next().expect("--trace needs a value").clone()),
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a positive integer");
            }
            "--check" => check = true,
            "--require-speedup" => {
                require_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--require-speedup needs a number"),
                );
            }
            "--require-edit-speedup" => {
                require_edit_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--require-edit-speedup needs a number"),
                );
            }
            "--max-eval-ratio" => {
                max_eval_ratio = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-eval-ratio needs a number"),
                );
            }
            other => {
                eprintln!("bench_smoke: unknown option `{other}`");
                std::process::exit(1);
            }
        }
    }
    let reps = reps.max(1);

    let hw = available_parallelism();
    let mut thread_counts = vec![1, 2, hw];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let tech = Technology::nominal();
    let circuits = if tier.runs_smoke() {
        circuits()
    } else {
        Vec::new()
    };
    let mut failures: Vec<String> = Vec::new();
    let mut json_circuits: Vec<String> = Vec::new();
    let bench_started = Instant::now();
    let mut rows: Vec<crystal::runstore::ScenarioRow> = Vec::new();

    println!("{BENCH_LABEL} — {hw} hardware thread(s), best of {reps} rep(s)");
    println!(
        "{:<16} {:>8} {:>10} {:>8} {:>12} {:>9} {:>10}",
        "circuit", "threads", "wall (ms)", "speedup", "cache h/m", "hit rate", "identical"
    );

    for (name, net, scenarios) in &circuits {
        let mut serial_ms = 0.0;
        let mut serial_run: Option<Vec<(String, crystal::analyzer::TimingResult)>> = None;
        let mut json_runs: Vec<String> = Vec::new();
        for &threads in &thread_counts {
            let (secs, stats, run) = measure(net, &tech, scenarios, threads, reps);
            let wall_ms = secs * 1e3;
            let speedup = if threads == 1 || wall_ms <= 0.0 {
                1.0
            } else {
                serial_ms / wall_ms
            };
            // Arrivals must be bit-identical to the serial run at every
            // thread count (cache counters are excluded from equality).
            let identical = match &serial_run {
                Some(s) => runs_identical(s, &run),
                None => true, // this IS the serial run
            };
            if threads == 1 {
                serial_ms = wall_ms;
                serial_run = Some(run);
            }
            println!(
                "{:<16} {:>8} {:>10.2} {:>7.2}x {:>12} {:>8.1}% {:>10}",
                name,
                threads,
                wall_ms,
                speedup,
                format!("{}/{}", stats.hits, stats.misses),
                stats.hit_rate() * 100.0,
                if identical { "yes" } else { "NO" }
            );
            if !identical {
                failures.push(format!(
                    "{name}: results at {threads} threads differ from serial"
                ));
            }
            if check && threads > 1 && wall_ms > serial_ms * SLOWDOWN_TOLERANCE {
                failures.push(format!(
                    "{name}: {threads} threads took {wall_ms:.2} ms vs {serial_ms:.2} ms serial \
                     (more than {SLOWDOWN_TOLERANCE}x slower)"
                ));
            }
            if let Some(min) = require_speedup {
                let max_threads = *thread_counts.last().expect("non-empty");
                if *name == "pass-mesh" && threads == max_threads && threads >= 4 {
                    if speedup < min {
                        failures.push(format!(
                            "{name}: speedup {speedup:.2}x at {threads} threads is below \
                             the required {min:.2}x"
                        ));
                    }
                } else if *name == "pass-mesh" && threads == max_threads {
                    println!(
                        "  (speedup gate skipped: only {threads} hardware thread(s), \
                         need at least 4)"
                    );
                }
            }
            // Phase-level timing breakdown from a separate instrumented
            // run, so the tracing mutexes never contaminate the wall
            // clock measured above.
            let (metrics, trace_lines) = traced_metrics(net, &tech, scenarios, threads);
            if let (Some(prefix), true) = (&trace_prefix, threads == *thread_counts.last().unwrap())
            {
                let path = format!("{prefix}.{name}.jsonl");
                std::fs::write(&path, trace_lines).expect("trace file writes");
                println!("  wrote {path}");
            }
            let extracted = metrics.counter(crystal::obs::Phase::Extraction, "stages_extracted");
            let charged = metrics.counter(crystal::obs::Phase::Evaluation, "stage_evals_charged");
            let eval_ratio = if extracted > 0 {
                charged as f64 / extracted as f64
            } else {
                0.0
            };
            if let Some(max) = max_eval_ratio {
                if eval_ratio > max {
                    failures.push(format!(
                        "{name}: {charged} charged evaluations over {extracted} extracted \
                         stages at {threads} threads ({eval_ratio:.2} per stage, max {max:.2}) \
                         — dirty-set propagation has regressed"
                    ));
                }
            }
            let oversub = threads > hw;
            json_runs.push(format!(
                "{{\"threads\": {threads}, \"oversubscribed\": {oversub}, \
                 \"wall_ms\": {wall_ms:.4}, \
                 \"speedup\": {speedup:.4}, \"cache_hits\": {}, \"cache_misses\": {}, \
                 \"cache_evictions\": {}, \"cache_hit_rate\": {:.4}, \
                 \"eval_ratio\": {eval_ratio:.4}, \
                 \"identical_to_serial\": {identical}, \"phases\": {}}}",
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.hit_rate(),
                phases_json(&metrics)
            ));
            rows.push(crystal::runstore::ScenarioRow {
                label: format!("{name} x{threads}"),
                outcome: if identical { "ok" } else { "error" }.to_string(),
                digest: None,
                summary: format!(
                    "wall {wall_ms:.2} ms, speedup {speedup:.2}x, cache {}/{}",
                    stats.hits, stats.misses
                ),
                wall_us: (secs * 1e6) as u64,
                oversubscribed: oversub,
            });
        }
        json_circuits.push(format!(
            "{{\"name\": \"{name}\", \"transistors\": {}, \"scenarios\": {}, \"runs\": [{}]}}",
            net.transistor_count(),
            scenarios.len(),
            json_runs.join(", ")
        ));
    }

    let edit_loop = if tier.runs_smoke() {
        edit_loop_bench(&tech, reps, require_edit_speedup, &mut failures, &mut rows)
    } else {
        "null".to_string()
    };
    let large = if tier.runs_large() {
        large_tier_bench(reps, max_rss_mb, &mut failures, &mut rows)
    } else {
        "null".to_string()
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"{BENCH_LABEL}\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hw},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"circuits\": [");
    for (i, c) in json_circuits.iter().enumerate() {
        let comma = if i + 1 < json_circuits.len() { "," } else { "" };
        let _ = writeln!(json, "    {c}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"edit_loop\": {edit_loop},");
    let _ = writeln!(json, "  \"large\": {large}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("bench output file writes");
    println!("wrote {out_path}");

    if let Some(db) = &run_db {
        use crystal::runstore::{new_meta, ExitRow, RunRecord, RunStore};
        let mut record = RunRecord::new(new_meta("bench_smoke", 0, "slope", hw));
        record.scenarios = rows;
        let (status, code) = if failures.is_empty() {
            ("ok", 0)
        } else {
            ("error", 1)
        };
        record.exit = Some(ExitRow {
            status: status.to_string(),
            code,
            wall_us: bench_started.elapsed().as_micros() as u64,
        });
        let store = RunStore::open(std::path::Path::new(db)).expect("run database opens");
        let path = store.record(&record).expect("run record writes");
        println!("run-db: recorded {} -> {}", record.meta.id, path.display());
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_smoke: FAIL: {f}");
        }
        std::process::exit(1);
    }
    if check || require_speedup.is_some() || require_edit_speedup.is_some() {
        println!("all gates passed");
    }
}

/// Pass-chain lengths for the dense-vs-sparse comparison legs: both
/// above the auto-dispatch threshold so the dense path is genuinely the
/// O(n³) regime it left behind, far enough apart that the sparse win
/// must grow with circuit size to pass the super-linear gate. Pass
/// chains (every gate driven directly by an input) keep the DC solve
/// well-conditioned at any length, unlike long inverter cascades whose
/// Newton trajectory passes through an exponentially ill-conditioned
/// uniform-bias amplifier state.
const LARGE_COMPARE_STAGES: [usize; 2] = [200, 800];

/// Transient horizon for the comparison legs: long enough for a few
/// implicit steps through the factor/solve path, short enough that the
/// dense leg at 800 unknowns stays in CI budget.
const LARGE_TRAN_STOP: f64 = 1.0e-9;
const LARGE_TRAN_DT: f64 = 2.0e-10;

/// The sparse-solver scaling tier: dense-vs-sparse operating points and
/// short transients on mid-size inverter chains (the super-linear gate:
/// the sparse speedup must grow with circuit size), then sparse-only
/// operating points on the 10k+ transistor generators dense LU cannot
/// hold in memory, with the process peak RSS recorded after them.
/// Returns the `"large"` JSON object and appends gate failures.
fn large_tier_bench(
    reps: usize,
    max_rss_mb: Option<f64>,
    failures: &mut Vec<String>,
    rows: &mut Vec<crystal::runstore::ScenarioRow>,
) -> String {
    let models = MosModelSet::default();
    let mut compare_json: Vec<String> = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();

    for &stages in &LARGE_COMPARE_STAGES {
        let net = pass_chain(
            Style::Cmos,
            stages,
            Farads::from_femto(10.0),
            Farads::from_femto(50.0),
        )
        .expect("chain generates");
        // `ctl` high keeps the whole chain conducting; `in` ramps low to
        // high early in the transient window so the driver switches.
        let mut drives = HashMap::new();
        drives.insert(
            net.node_by_name("ctl").expect("generated"),
            Waveshape::Dc(models.vdd),
        );
        drives.insert(
            net.node_by_name("in").expect("generated"),
            Waveshape::Pwl(vec![(0.0, 0.0), (2.0e-10, models.vdd)]),
        );
        let elab = elaborate(&net, &models, &drives);
        let n = elab.circuit.unknown_count();
        let name = format!("pass-chain-{stages}");

        let (dense_op_s, dense_x) = time_op(&elab.circuit, SolverChoice::Dense, reps);
        let (sparse_op_s, sparse_x) = time_op(&elab.circuit, SolverChoice::Sparse, reps);
        let agree = max_abs_diff(&dense_x, &sparse_x) < 1e-6;
        if !agree {
            failures.push(format!(
                "large {name}: dense and sparse operating points diverge"
            ));
        }
        let dense_tran_s = time_tran(&elab.circuit, SolverChoice::Dense);
        let sparse_tran_s = time_tran(&elab.circuit, SolverChoice::Sparse);

        let op_speedup = dense_op_s / sparse_op_s.max(1e-9);
        let tran_speedup = dense_tran_s / sparse_tran_s.max(1e-9);
        speedups.push((n, op_speedup));
        println!(
            "large {:<10} {:>6} unknowns  op {:>9.2} ms dense / {:>8.2} ms sparse ({:>6.1}x)  \
             tran {:>9.2} ms / {:>8.2} ms ({:>6.1}x)",
            name,
            n,
            dense_op_s * 1e3,
            sparse_op_s * 1e3,
            op_speedup,
            dense_tran_s * 1e3,
            sparse_tran_s * 1e3,
            tran_speedup,
        );
        compare_json.push(format!(
            "{{\"circuit\": \"{name}\", \"unknowns\": {n}, \"transistors\": {}, \
             \"dense_op_ms\": {:.4}, \"sparse_op_ms\": {:.4}, \"op_speedup\": {op_speedup:.4}, \
             \"dense_tran_ms\": {:.4}, \"sparse_tran_ms\": {:.4}, \
             \"tran_speedup\": {tran_speedup:.4}, \"agree\": {agree}}}",
            net.transistor_count(),
            dense_op_s * 1e3,
            sparse_op_s * 1e3,
            dense_tran_s * 1e3,
            sparse_tran_s * 1e3,
        ));
        rows.push(crystal::runstore::ScenarioRow {
            label: format!("large {name}"),
            outcome: if agree { "ok" } else { "error" }.to_string(),
            digest: None,
            summary: format!(
                "op dense {:.2} ms vs sparse {:.2} ms ({op_speedup:.1}x), \
                 tran {:.2} ms vs {:.2} ms",
                dense_op_s * 1e3,
                sparse_op_s * 1e3,
                dense_tran_s * 1e3,
                sparse_tran_s * 1e3,
            ),
            wall_us: (sparse_op_s * 1e6) as u64,
            oversubscribed: false,
        });
    }

    // The super-linear gate: dense LU grows as n³ against the sparse
    // path's near-linear chain factorization, so the speedup itself must
    // grow with circuit size — if it flattens, pattern reuse or the
    // ordering has regressed.
    let (small_n, small_speedup) = speedups[0];
    let (large_n, large_speedup) = speedups[1];
    let superlinear = large_speedup > small_speedup;
    if !superlinear {
        failures.push(format!(
            "large: sparse op speedup did not scale super-linearly \
             ({small_speedup:.2}x at {small_n} unknowns vs {large_speedup:.2}x at {large_n})"
        ));
    }

    // The 10k+ transistor generators: dense LU at these sizes would need
    // hundreds of megabytes for the matrix alone; only the sparse path
    // runs them.
    let big: Vec<(&str, Network)> = vec![
        (
            "decoder-9",
            decoder(Style::Cmos, 9, Farads::from_femto(100.0)).expect("decoder generates"),
        ),
        (
            "sram-64x64",
            memory_array(Style::Cmos, 64, 64, Farads::from_femto(400.0)).expect("array generates"),
        ),
        (
            "barrel-128",
            barrel_shifter(Style::Cmos, 128, Farads::from_femto(100.0)).expect("barrel generates"),
        ),
    ];
    let mut sparse_only_json: Vec<String> = Vec::new();
    for (name, net) in &big {
        let elab = elaborate(net, &models, &drive_inputs(net, &models));
        let n = elab.circuit.unknown_count();
        let start = Instant::now();
        let opts = Options {
            solver: SolverChoice::Sparse,
            ..Options::default()
        };
        let converged = Simulator::with_options(&elab.circuit, opts).op().is_ok();
        let secs = start.elapsed().as_secs_f64();
        if !converged {
            failures.push(format!("large {name}: sparse operating point failed"));
        }
        println!(
            "large {:<10} {:>6} unknowns  {:>6} transistors  sparse op {:>9.2} ms  {}",
            name,
            n,
            net.transistor_count(),
            secs * 1e3,
            if converged { "ok" } else { "FAILED" }
        );
        sparse_only_json.push(format!(
            "{{\"circuit\": \"{name}\", \"unknowns\": {n}, \"transistors\": {}, \
             \"sparse_op_ms\": {:.4}, \"converged\": {converged}}}",
            net.transistor_count(),
            secs * 1e3,
        ));
        rows.push(crystal::runstore::ScenarioRow {
            label: format!("large {name}"),
            outcome: if converged { "ok" } else { "error" }.to_string(),
            digest: None,
            summary: format!(
                "sparse op {:.2} ms, {} unknowns, {} transistors",
                secs * 1e3,
                n,
                net.transistor_count()
            ),
            wall_us: (secs * 1e6) as u64,
            oversubscribed: false,
        });
    }

    // Peak RSS after the big legs: the memory-scaling record (and gate).
    let rss = peak_rss_mb();
    match (rss, max_rss_mb) {
        (Some(mb), Some(max)) if mb > max => failures.push(format!(
            "large: peak RSS {mb:.1} MB exceeds the {max:.1} MB ceiling"
        )),
        (Some(mb), _) => println!("large peak RSS: {mb:.1} MB"),
        (None, Some(_)) => {
            println!("  (peak-RSS gate skipped: /proc/self/status unreadable on this host)");
        }
        (None, None) => {}
    }

    format!(
        "{{\"comparison\": [{}], \
         \"superlinear\": {{\"small_unknowns\": {small_n}, \"small_speedup\": {small_speedup:.4}, \
         \"large_unknowns\": {large_n}, \"large_speedup\": {large_speedup:.4}, \
         \"pass\": {superlinear}}}, \
         \"sparse_only\": [{}], \"peak_rss_mb\": {}}}",
        compare_json.join(", "),
        sparse_only_json.join(", "),
        rss.map_or("null".to_string(), |mb| format!("{mb:.1}")),
    )
}

/// DC drives for every declared input of a generator network: power is
/// driven by [`elaborate`] itself; inputs alternate between the rails so
/// both polarities of every stage see bias current.
fn drive_inputs(net: &Network, models: &MosModelSet) -> HashMap<mosnet::NodeId, Waveshape> {
    net.inputs()
        .into_iter()
        .enumerate()
        .map(|(k, input)| {
            let level = if k % 2 == 0 { models.vdd } else { 0.0 };
            (input, Waveshape::Dc(level))
        })
        .collect()
}

/// Best-of-`reps` wall time for one operating point under `choice`,
/// plus the solved node voltages for cross-backend agreement checks.
fn time_op(circuit: &Circuit, choice: SolverChoice, reps: usize) -> (f64, Vec<f64>) {
    let opts = Options {
        solver: choice,
        ..Options::default()
    };
    let mut best = f64::INFINITY;
    let mut x = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        x = Simulator::with_options(circuit, opts)
            .op()
            .expect("operating point converges");
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, x)
}

/// Wall time of one short fixed-step transient under `choice` (single
/// rep: the dense leg at the larger comparison size dominates the tier's
/// budget already).
fn time_tran(circuit: &Circuit, choice: SolverChoice) -> f64 {
    let opts = Options {
        solver: choice,
        ..Options::default()
    };
    let start = Instant::now();
    Simulator::with_options(circuit, opts)
        .transient(LARGE_TRAN_STOP, LARGE_TRAN_DT)
        .expect("transient completes");
    start.elapsed().as_secs_f64()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

/// The process peak resident-set size in megabytes, from the `VmHWM`
/// line of `/proc/self/status` (`None` off Linux or in a container
/// that masks procfs).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Chain length of the edit-loop circuit. Sized so dependency-tracked
/// invalidation has something to skip: with event-driven propagation a
/// full re-analysis is linear in the chain, so on a short chain both
/// legs cost about the same and the measurement is noise — the regime
/// incremental analysis exists for is the large design with local edits.
const EDIT_CHAIN_STAGES: usize = 192;

/// The incremental edit loop: a 10-edit resize/cap sequence near the tail
/// of a [`EDIT_CHAIN_STAGES`]-stage inverter chain, replayed through a
/// persistent [`IncrementalAnalyzer`] session versus a fresh full
/// analysis of every scenario after every edit. Both legs run serially
/// and uncached, so the difference is pure dependency-tracked
/// invalidation. Returns the `"edit_loop"` JSON object and appends gate
/// failures.
fn edit_loop_bench(
    tech: &Technology,
    reps: usize,
    require_speedup: Option<f64>,
    failures: &mut Vec<String>,
    rows: &mut Vec<crystal::runstore::ScenarioRow>,
) -> String {
    use mosnet::diff::{apply_edit, Edit};

    let load = Farads::from_femto(100.0);
    let net = inverter_chain(Style::Cmos, EDIT_CHAIN_STAGES, 2.0, load).expect("chain generates");
    let scenarios = transition_scenarios(&net, "in", &[], 4);
    // Ten edits confined to the last three inverters: a realistic tuning
    // loop — all the stages before them replay from the previous result
    // on every edit.
    let edits: Vec<Edit> = (0..10)
        .map(|i| {
            let gate_index = EDIT_CHAIN_STAGES - 3 + i % 3;
            if i % 2 == 0 {
                Edit::Resize {
                    gate: format!("s{gate_index}"),
                    source: tail_output(gate_index),
                    drain: "gnd".to_string(),
                    geometry: Geometry::from_microns(8.0 + i as f64, 2.0),
                }
            } else {
                Edit::SetCapacitance {
                    node: tail_output(gate_index),
                    capacitance: Farads::from_femto(100.0 + 10.0 * i as f64),
                }
            }
        })
        .collect();
    let options = AnalyzerOptions::default(); // serial, uncached: both legs

    // Full leg: re-analyze every scenario from scratch after each edit.
    let mut full_secs = f64::INFINITY;
    let mut full_final: Vec<(String, crystal::analyzer::TimingResult)> = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let mut edited = net.clone();
        for edit in &edits {
            edited = apply_edit(&edited, edit).expect("edit applies");
            full_final = scenarios
                .iter()
                .map(|(label, scenario)| {
                    let result = analyze_with_options(
                        &edited,
                        tech,
                        ModelKind::Slope,
                        scenario,
                        options.clone(),
                    )
                    .expect("scenario analyzes");
                    (label.clone(), result)
                })
                .collect();
        }
        full_secs = full_secs.min(start.elapsed().as_secs_f64());
    }

    // Incremental leg: one persistent session absorbs the same edits.
    let mut inc_secs = f64::INFINITY;
    let mut reevaluated = 0usize;
    let mut reused = 0usize;
    let mut session = None;
    for _ in 0..reps {
        let mut s = IncrementalAnalyzer::new(
            net.clone(),
            tech.clone(),
            ModelKind::Slope,
            scenarios.clone(),
            options.clone(),
        )
        .expect("session builds");
        let start = Instant::now();
        (reevaluated, reused) = (0, 0);
        for edit in &edits {
            let delta = s.apply_edit(edit).expect("edit applies");
            for sc in &delta.scenarios {
                reevaluated += sc.stats.invalidated_stages;
                reused += sc.stats.reused_stages;
            }
        }
        inc_secs = inc_secs.min(start.elapsed().as_secs_f64());
        session = Some(s);
    }
    let session = session.expect("at least one rep");

    // The session's final arrivals must be bit-identical to the last
    // full analysis — the speedup is worthless otherwise.
    let inc_final: Vec<(String, crystal::analyzer::TimingResult)> = scenarios
        .iter()
        .map(|(label, _)| {
            (
                label.clone(),
                session.result(label).expect("scenario present").clone(),
            )
        })
        .collect();
    let identical = runs_identical(&full_final, &inc_final);
    if !identical {
        failures.push("edit-loop: incremental session diverged from full re-analysis".to_string());
    }

    let full_ms = full_secs * 1e3;
    let inc_ms = inc_secs * 1e3;
    let speedup = if inc_ms > 0.0 { full_ms / inc_ms } else { 1.0 };
    println!(
        "edit-loop        {:>8} {:>10.2} {:>7.2}x {:>12} {:>8}   {:>8}",
        "10 edits",
        inc_ms,
        speedup,
        format!("{reevaluated}/{reused}"),
        "re/reuse",
        if identical { "yes" } else { "NO" }
    );
    if let Some(min) = require_speedup {
        if speedup < min {
            failures.push(format!(
                "edit-loop: incremental speedup {speedup:.2}x over full re-analysis is below \
                 the required {min:.2}x"
            ));
        }
    }
    if reused == 0 {
        failures.push("edit-loop: no stage was ever reused".to_string());
    }
    rows.push(crystal::runstore::ScenarioRow {
        label: "edit-loop".to_string(),
        outcome: if identical { "ok" } else { "error" }.to_string(),
        digest: None,
        summary: format!(
            "incremental {inc_ms:.2} ms vs full {full_ms:.2} ms, speedup {speedup:.2}x"
        ),
        wall_us: (inc_secs * 1e6) as u64,
        oversubscribed: false, // both legs run serially
    });

    format!(
        "{{\"circuit\": \"inverter-chain-{EDIT_CHAIN_STAGES}\", \"edits\": {}, \"scenarios\": {}, \
         \"full_ms\": {full_ms:.4}, \"incremental_ms\": {inc_ms:.4}, \
         \"speedup\": {speedup:.4}, \"stages_reevaluated\": {reevaluated}, \
         \"stages_reused\": {reused}, \"identical\": {identical}}}",
        edits.len(),
        scenarios.len()
    )
}

/// The node an inverter of the edit-loop chain drives: `s{i}` for inner
/// stages, `out` for the last.
fn tail_output(gate_index: usize) -> String {
    if gate_index + 1 >= EDIT_CHAIN_STAGES {
        "out".to_string()
    } else {
        format!("s{}", gate_index + 1)
    }
}

/// Times one batch configuration, best-of-`reps`, with a fresh shared
/// cache per repetition (so the hit rate reflects a single batch, not
/// earlier repetitions). Returns the best wall-clock seconds, the cache
/// counters, and the results of the final repetition.
fn measure(
    net: &Network,
    tech: &Technology,
    scenarios: &[(String, Scenario)],
    threads: usize,
    reps: usize,
) -> (
    f64,
    CacheStats,
    Vec<(String, crystal::analyzer::TimingResult)>,
) {
    let mut best = f64::INFINITY;
    let mut stats = CacheStats::default();
    let mut results = Vec::new();
    for _ in 0..reps {
        let cache = Arc::new(StageCache::new());
        let options = AnalyzerOptions {
            threads,
            cache: Some(Arc::clone(&cache)),
            ..AnalyzerOptions::default()
        };
        let start = Instant::now();
        results = analyze_all(net, tech, scenarios, options);
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        stats = cache.stats();
    }
    (best, stats, results)
}

/// One instrumented (untimed) batch run: returns the per-phase metrics
/// and the raw JSON-lines trace.
fn traced_metrics(
    net: &Network,
    tech: &Technology,
    scenarios: &[(String, Scenario)],
    threads: usize,
) -> (Metrics, String) {
    let sink = Arc::new(TraceSink::new());
    let options = AnalyzerOptions {
        threads,
        cache: Some(Arc::new(StageCache::new())),
        trace: Some(Arc::clone(&sink)),
        ..AnalyzerOptions::default()
    };
    analyze_all(net, tech, scenarios, options);
    (sink.metrics(), sink.to_json_lines())
}

/// Analyzes every scenario with the slope model through the scenario
/// executor (no journal), fanning `options.threads` workers out at the
/// executor's grain. Panics on a failed scenario: every bench circuit
/// analyzes cleanly.
fn analyze_all(
    net: &Network,
    tech: &Technology,
    scenarios: &[(String, Scenario)],
    options: AnalyzerOptions,
) -> Vec<(String, crystal::analyzer::TimingResult)> {
    let durable = DurableOptions {
        threads: options.threads,
        ..DurableOptions::default()
    };
    let run = run_durable(net, tech, ModelKind::Slope, scenarios, options, &durable)
        .expect("a run without a journal has no I/O to fail");
    run.records
        .into_iter()
        .map(|r| match r.result {
            Some(result) => (r.label, result),
            None => panic!("scenario `{}` failed: {}", r.label, r.summary),
        })
        .collect()
}

/// The `"phases"` JSON array for one run: span counts, summed span time
/// (`total_ms`, CPU-like — concurrent workers count multiply), span-union
/// time (`wall_ms`, overlap counts once) and counters per analysis phase.
fn phases_json(metrics: &Metrics) -> String {
    let entries: Vec<String> = metrics
        .phases
        .iter()
        .map(|p| {
            let counters = p
                .counters
                .iter()
                .map(|(n, v)| format!("\"{n}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{{\"phase\": \"{}\", \"spans\": {}, \"total_ms\": {:.4}, \
                 \"wall_ms\": {:.4}, \"counters\": {{{counters}}}}}",
                p.phase.name(),
                p.spans,
                p.total_ns as f64 / 1e6,
                p.wall_ns as f64 / 1e6
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

fn runs_identical(
    a: &[(String, crystal::analyzer::TimingResult)],
    b: &[(String, crystal::analyzer::TimingResult)],
) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((la, ra), (lb, rb))| la == lb && ra == rb)
}

/// The three benchmark netlists with their scenario batches.
#[allow(clippy::type_complexity)]
fn circuits() -> Vec<(&'static str, Network, Vec<(String, Scenario)>)> {
    let load = Farads::from_femto(100.0);

    // A 24-stage inverter chain; scenarios vary the input transition so
    // the batch has enough items to fan out, while topologically
    // identical stages feed the memo cache.
    let chain = inverter_chain(Style::Cmos, 24, 2.0, load).expect("chain generates");
    let chain_scenarios = transition_scenarios(&chain, "in", &[], 16);

    // A random 24-transistor pass mesh: every mesh node hangs off a
    // random earlier node through an n-pass device gated by `ctl`.
    let mesh = random_pass_mesh(7, 22);
    let mesh_scenarios = {
        let ctl = mesh.node_by_name("ctl").expect("mesh has ctl");
        transition_scenarios(&mesh, "in", &[(ctl, true)], 16)
    };

    // A 12-bit Manchester carry adder chain: every input switched on both
    // edges with the propagate inputs held high and the generates low —
    // the carry path stays sensitized.
    let adder = carry_chain(Style::Cmos, 12, load).expect("adder generates");
    let adder_scenarios = {
        let statics: Vec<(mosnet::NodeId, bool)> = adder
            .inputs()
            .into_iter()
            .map(|n| (n, adder.node(n).name().starts_with('p')))
            .collect();
        let mut scenarios = Vec::new();
        for input in adder.inputs() {
            for edge in [Edge::Rising, Edge::Falling] {
                let mut scenario = Scenario::step(input, edge);
                for &(node, level) in &statics {
                    if node != input {
                        scenario = scenario.with_static(node, level);
                    }
                }
                let label = format!(
                    "{} {}",
                    adder.node(input).name(),
                    if edge == Edge::Rising { "rise" } else { "fall" }
                );
                scenarios.push((label, scenario));
            }
        }
        scenarios
    };

    vec![
        ("inverter-chain", chain, chain_scenarios),
        ("pass-mesh", mesh, mesh_scenarios),
        ("adder", adder, adder_scenarios),
    ]
}

/// Both edges of `input` at `steps` evenly spaced input transitions
/// (0 .. 0.25·steps ns), with the given statics applied.
fn transition_scenarios(
    net: &Network,
    input: &str,
    statics: &[(mosnet::NodeId, bool)],
    steps: usize,
) -> Vec<(String, Scenario)> {
    let input = net.node_by_name(input).expect("input exists");
    let mut scenarios = Vec::new();
    for step in 0..steps {
        let transition = Seconds::from_nanos(0.25 * step as f64);
        for edge in [Edge::Rising, Edge::Falling] {
            let mut scenario = Scenario::step(input, edge).with_input_transition(transition);
            for &(node, level) in statics {
                scenario = scenario.with_static(node, level);
            }
            let label = format!(
                "tr{step} {}",
                if edge == Edge::Rising { "rise" } else { "fall" }
            );
            scenarios.push((label, scenario));
        }
    }
    scenarios
}
