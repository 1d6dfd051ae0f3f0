//! The smoke bench's measurements, shared by the `bench_smoke` binary,
//! which records them (`BENCH.json`, traces, a run record), and the
//! `bench_gates` tests, which assert their bounds.
//!
//! Each leg returns plain structs: the traced eval counts of three
//! small circuits, the incremental edit loop, the dense-vs-sparse pass
//! chains, the sparse-only operating points of the 10k+ transistor
//! generators with the peak RSS after them, and the decoder-9 / SRAM-64
//! batches at 1 and 2 scenario threads. Every timed row keeps the min,
//! median and max over its repetitions.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario, TimingResult};
use crystal::durable::{run_durable, DurableOptions};
use crystal::fingerprint::{Json, JsonDocument};
use crystal::incremental::IncrementalAnalyzer;
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::obs::{Metrics, Phase, TraceSink};
use crystal::pool::available_parallelism;
use crystal::runstore::{new_meta, ExitRow, RunRecord, RunStore, ScenarioRow};
use crystal::tech::Technology;
use mosnet::diff::{apply_edit, Edit};
use mosnet::generators::{
    barrel_shifter, carry_chain, decoder, inverter_chain, memory_array, pass_chain,
    random_pass_mesh, Style,
};
use mosnet::units::{Farads, Seconds};
use mosnet::{Geometry, Network, NodeId};
use nanospice::circuit::MosModelSet;
use nanospice::devices::Waveshape;
use nanospice::{elaborate, Circuit, Options, Simulator, SolverChoice};

/// The bench label in `BENCH.json` and run records, from the crate
/// version so regenerated artifacts never claim a stale one.
pub const BENCH_LABEL: &str = concat!("bench_smoke v", env!("CARGO_PKG_VERSION"));

/// Chain length of the edit-loop circuit. Sized so dependency-tracked
/// invalidation has something to skip: a full re-analysis is linear in
/// the chain, so on a short chain both legs cost about the same and the
/// measurement is noise.
pub const EDIT_CHAIN_STAGES: usize = 192;

/// Pass-chain lengths of the dense-vs-sparse legs: both above the
/// auto-dispatch threshold, so the dense path is the O(n³) regime, and
/// far enough apart that the sparse win must grow with size. Pass
/// chains (every gate driven by an input) keep the DC solve
/// well-conditioned at any length, unlike long inverter cascades.
pub const LARGE_COMPARE_STAGES: [usize; 2] = [200, 800];

/// Transient horizon of the dense-vs-sparse legs: a few implicit steps
/// through the factor/solve path.
const LARGE_TRAN_STOP: f64 = 1.0e-9;
const LARGE_TRAN_DT: f64 = 2.0e-10;

/// Which legs a run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The traced eval counts and the edit loop.
    Smoke,
    /// The solver legs and the large batches.
    Large,
    /// Both.
    All,
}

/// Wall-clock spread over repetitions, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Fastest repetition.
    pub min_ms: f64,
    /// Median repetition (the upper one of an even count).
    pub median_ms: f64,
    /// Slowest repetition.
    pub max_ms: f64,
}

impl Spread {
    fn json(self) -> Json {
        Json::object()
            .with("min", Json::fixed(self.min_ms, 4))
            .with("median", Json::fixed(self.median_ms, 4))
            .with("max", Json::fixed(self.max_ms, 4))
    }
}

/// Runs `setup`, then times `run` on what it returned, `reps` times (at
/// least once). Returns the spread and the last run's result.
fn timed<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> (Spread, T) {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let input = setup();
        let start = Instant::now();
        last = Some(run(input));
        walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    walls.sort_by(f64::total_cmp);
    let spread = Spread {
        min_ms: walls[0],
        median_ms: walls[walls.len() / 2],
        max_ms: walls[walls.len() - 1],
    };
    (spread, last.expect("at least one repetition"))
}

type Results = Vec<(String, TimingResult)>;
type Scenarios = Vec<(String, Scenario)>;

/// One traced, untimed batch of a small circuit: the eval-count record.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Circuit name.
    pub circuit: &'static str,
    /// Transistor count.
    pub transistors: usize,
    /// Scenarios in the batch.
    pub scenarios: usize,
    /// Stages extracted over the batch.
    pub stages_extracted: u64,
    /// Stage evaluations charged over the batch.
    pub stage_evals_charged: u64,
    /// Per-phase spans and counters.
    pub metrics: Metrics,
    /// The JSON-lines trace.
    pub trace: String,
}

impl TracedRun {
    /// Charged evaluations per extracted stage (0 when nothing was
    /// extracted). A schedule that re-evaluates every stage every round
    /// drives it up.
    pub fn eval_ratio(&self) -> f64 {
        self.stage_evals_charged as f64 / self.stages_extracted.max(1) as f64
    }
}

/// The traced batch of each small circuit, serial and with a fresh
/// cache.
pub fn traced_runs() -> Vec<TracedRun> {
    let tech = Technology::nominal();
    small_circuits()
        .into_iter()
        .map(|(circuit, net, scenarios)| {
            let sink = Arc::new(TraceSink::new());
            let options = AnalyzerOptions {
                cache: Some(Arc::new(StageCache::new())),
                trace: Some(Arc::clone(&sink)),
                ..AnalyzerOptions::default()
            };
            analyze_all(&net, &tech, &scenarios, options, 1);
            let metrics = sink.metrics();
            TracedRun {
                circuit,
                transistors: net.transistor_count(),
                scenarios: scenarios.len(),
                stages_extracted: metrics.counter(Phase::Extraction, "stages_extracted"),
                stage_evals_charged: metrics.counter(Phase::Evaluation, "stage_evals_charged"),
                metrics,
                trace: sink.to_json_lines(),
            }
        })
        .collect()
}

/// The incremental edit loop against full re-analysis.
#[derive(Debug, Clone)]
pub struct EditLoop {
    /// Transistors of the chain.
    pub transistors: usize,
    /// Edits applied.
    pub edits: usize,
    /// Scenarios re-analyzed after each edit.
    pub scenarios: usize,
    /// Full re-analysis of every scenario after every edit.
    pub full: Spread,
    /// The same edits through one persistent session.
    pub incremental: Spread,
    /// Stages the session re-evaluated.
    pub stages_reevaluated: usize,
    /// Stages the session replayed from the previous result.
    pub stages_reused: usize,
    /// Whether the session's final results equal the last full
    /// analysis bit for bit.
    pub identical: bool,
}

impl EditLoop {
    /// Fastest full leg over fastest incremental leg.
    pub fn speedup(&self) -> f64 {
        self.full.min_ms / self.incremental.min_ms.max(1e-6)
    }
}

/// Ten resize/cap edits near the tail of an [`EDIT_CHAIN_STAGES`]-stage
/// inverter chain, through a persistent [`IncrementalAnalyzer`] and
/// through a fresh analysis of every scenario after every edit. Both
/// legs run serial and uncached, so the difference is the
/// dependency-tracked invalidation alone.
pub fn edit_loop(reps: usize) -> EditLoop {
    let tech = Technology::nominal();
    let load = Farads::from_femto(100.0);
    let net = inverter_chain(Style::Cmos, EDIT_CHAIN_STAGES, 2.0, load).expect("chain generates");
    let scenarios = transition_scenarios(&net, "in", &[], 4);
    // The node an inverter drives: `s{i+1}` inside the chain, `out` last.
    let output = |gate: usize| match gate + 1 {
        EDIT_CHAIN_STAGES => "out".to_string(),
        next => format!("s{next}"),
    };
    // Ten edits confined to the last three inverters: every stage before
    // them replays from the previous result.
    let edits: Vec<Edit> = (0..10)
        .map(|i| {
            let gate = EDIT_CHAIN_STAGES - 3 + i % 3;
            if i % 2 == 0 {
                Edit::Resize {
                    gate: format!("s{gate}"),
                    source: output(gate),
                    drain: "gnd".to_string(),
                    geometry: Geometry::from_microns(8.0 + i as f64, 2.0),
                }
            } else {
                Edit::SetCapacitance {
                    node: output(gate),
                    capacitance: Farads::from_femto(100.0 + 10.0 * i as f64),
                }
            }
        })
        .collect();
    let options = AnalyzerOptions::default();

    let (full, full_final) = timed(
        reps,
        || (),
        |()| {
            let mut edited = net.clone();
            let mut results = Results::new();
            for edit in &edits {
                edited = apply_edit(&edited, edit).expect("edit applies");
                results = scenarios
                    .iter()
                    .map(|(label, scenario)| {
                        let result = analyze_with_options(
                            &edited,
                            &tech,
                            ModelKind::Slope,
                            scenario,
                            options.clone(),
                        )
                        .expect("scenario analyzes");
                        (label.clone(), result)
                    })
                    .collect();
            }
            results
        },
    );
    let (incremental, (session, reevaluated, reused)) = timed(
        reps,
        || {
            IncrementalAnalyzer::new(
                net.clone(),
                tech.clone(),
                ModelKind::Slope,
                scenarios.clone(),
                options.clone(),
            )
            .expect("session builds")
        },
        |mut session| {
            let (mut reevaluated, mut reused) = (0, 0);
            for edit in &edits {
                let delta = session.apply_edit(edit).expect("edit applies");
                for sc in &delta.scenarios {
                    reevaluated += sc.stats.invalidated_stages;
                    reused += sc.stats.reused_stages;
                }
            }
            (session, reevaluated, reused)
        },
    );
    let inc_final: Results = scenarios
        .iter()
        .map(|(label, _)| {
            let result = session.result(label).expect("scenario present");
            (label.clone(), result.clone())
        })
        .collect();
    EditLoop {
        transistors: net.transistor_count(),
        edits: edits.len(),
        scenarios: scenarios.len(),
        full,
        incremental,
        stages_reevaluated: reevaluated,
        stages_reused: reused,
        identical: full_final == inc_final,
    }
}

/// One pass chain through the dense and the sparse solver.
#[derive(Debug, Clone)]
pub struct SolverRow {
    /// Circuit name.
    pub circuit: String,
    /// MNA unknowns.
    pub unknowns: usize,
    /// Transistor count.
    pub transistors: usize,
    /// Dense operating point.
    pub dense_op: Spread,
    /// Sparse operating point.
    pub sparse_op: Spread,
    /// Dense short transient.
    pub dense_tran: Spread,
    /// Sparse short transient.
    pub sparse_tran: Spread,
    /// Largest node-voltage difference between the two operating
    /// points, volts.
    pub max_abs_diff_v: f64,
}

impl SolverRow {
    /// Fastest dense operating point over fastest sparse one.
    pub fn op_speedup(&self) -> f64 {
        self.dense_op.min_ms / self.sparse_op.min_ms.max(1e-6)
    }

    /// Fastest dense transient over fastest sparse one.
    pub fn tran_speedup(&self) -> f64 {
        self.dense_tran.min_ms / self.sparse_tran.min_ms.max(1e-6)
    }
}

/// The [`LARGE_COMPARE_STAGES`] pass chains, `ctl` high and `in`
/// ramping early, through both solvers: operating points and a short
/// fixed-step transient.
pub fn solver_rows(reps: usize) -> Vec<SolverRow> {
    let models = MosModelSet::default();
    LARGE_COMPARE_STAGES
        .iter()
        .map(|&stages| {
            let ff = Farads::from_femto;
            let net = pass_chain(Style::Cmos, stages, ff(10.0), ff(50.0)).expect("chain generates");
            let mut drives = HashMap::new();
            let node = |name| net.node_by_name(name).expect("generated");
            drives.insert(node("ctl"), Waveshape::Dc(models.vdd));
            drives.insert(
                node("in"),
                Waveshape::Pwl(vec![(0.0, 0.0), (2.0e-10, models.vdd)]),
            );
            let circuit = elaborate(&net, &models, &drives).circuit;
            let op = |choice| {
                timed(
                    reps,
                    || (),
                    |()| {
                        simulator(&circuit, choice)
                            .op()
                            .expect("operating point converges")
                    },
                )
            };
            let tran = |choice| {
                timed(
                    reps,
                    || (),
                    |()| {
                        (simulator(&circuit, choice))
                            .transient(LARGE_TRAN_STOP, LARGE_TRAN_DT)
                            .expect("transient completes");
                    },
                )
                .0
            };
            let ((dense_op, dense_x), (sparse_op, sparse_x)) =
                (op(SolverChoice::Dense), op(SolverChoice::Sparse));
            SolverRow {
                circuit: format!("pass-chain-{stages}"),
                unknowns: circuit.unknown_count(),
                transistors: net.transistor_count(),
                dense_op,
                sparse_op,
                dense_tran: tran(SolverChoice::Dense),
                sparse_tran: tran(SolverChoice::Sparse),
                max_abs_diff_v: dense_x
                    .iter()
                    .zip(&sparse_x)
                    .fold(0.0f64, |m, (x, y)| m.max((x - y).abs())),
            }
        })
        .collect()
}

fn simulator(circuit: &Circuit, solver: SolverChoice) -> Simulator<'_> {
    let options = Options {
        solver,
        ..Options::default()
    };
    Simulator::with_options(circuit, options)
}

/// One sparse-only operating point of a 10k+ transistor generator.
#[derive(Debug, Clone)]
pub struct SparseOp {
    /// Circuit name.
    pub circuit: &'static str,
    /// MNA unknowns.
    pub unknowns: usize,
    /// Transistor count.
    pub transistors: usize,
    /// The operating point.
    pub op: Spread,
    /// Whether it converged.
    pub converged: bool,
}

/// Sparse operating points of decoder-9, SRAM-64×64 and barrel-128,
/// sizes whose dense matrix alone would take hundreds of megabytes.
/// Inputs alternate between the rails so both polarities of every
/// stage see bias current.
pub fn sparse_ops(reps: usize) -> Vec<SparseOp> {
    let models = MosModelSet::default();
    let ff = Farads::from_femto;
    let big = [
        ("decoder-9", decoder(Style::Cmos, 9, ff(100.0))),
        ("sram-64x64", memory_array(Style::Cmos, 64, 64, ff(400.0))),
        ("barrel-128", barrel_shifter(Style::Cmos, 128, ff(100.0))),
    ];
    big.into_iter()
        .map(|(circuit, net)| {
            let net = net.expect("large generator builds");
            let level = |k: usize| if k.is_multiple_of(2) { models.vdd } else { 0.0 };
            let drives: HashMap<NodeId, Waveshape> = (net.inputs().into_iter().enumerate())
                .map(|(k, input)| (input, Waveshape::Dc(level(k))))
                .collect();
            let elab = elaborate(&net, &models, &drives);
            let (op, result) = timed(
                reps,
                || (),
                |()| simulator(&elab.circuit, SolverChoice::Sparse).op(),
            );
            SparseOp {
                circuit,
                unknowns: elab.circuit.unknown_count(),
                transistors: net.transistor_count(),
                op,
                converged: result.is_ok(),
            }
        })
        .collect()
}

/// The process peak resident-set size in megabytes, from the `VmHWM`
/// line of `/proc/self/status` (`None` off Linux or where procfs is
/// masked).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = (line.trim_start_matches("VmHWM:").trim())
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One large batch at one scenario-thread count.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Circuit name.
    pub circuit: &'static str,
    /// Transistor count.
    pub transistors: usize,
    /// Scenarios in the batch.
    pub scenarios: usize,
    /// Scenario threads.
    pub threads: usize,
    /// The batch, each repetition with a fresh shared cache.
    pub wall: Spread,
    /// Whether the results equal the 1-thread batch bit for bit.
    pub identical: bool,
}

/// A 108-scenario decoder-9 batch (every input × edge × six
/// transitions) and a 128-scenario SRAM-64 batch (every row select ×
/// edge, transitions taken in turn) through the scenario executor at 1
/// and 2 threads.
pub fn batch_rows(reps: usize) -> Vec<BatchRow> {
    const TRANSITIONS_NS: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];
    let tech = Technology::nominal();
    let load = Farads::from_femto(100.0);
    let batches = [
        ("decoder-9", decoder(Style::Cmos, 9, load), 6),
        ("sram-64x64", memory_array(Style::Cmos, 64, 64, load), 1),
    ];
    let mut rows = Vec::new();
    for (circuit, net, per_edge) in batches {
        let net = net.expect("large generator builds");
        let mut scenarios = Vec::new();
        for input in net.inputs() {
            for edge in [Edge::Rising, Edge::Falling] {
                let first = scenarios.len();
                for k in 0..per_edge {
                    let ns = TRANSITIONS_NS[(first + k) % 6];
                    let label = format!("{} {edge:?} {ns}", net.node(input).name());
                    let step = Scenario::step(input, edge);
                    scenarios.push((label, step.with_input_transition(Seconds::from_nanos(ns))));
                }
            }
        }
        let mut serial = None;
        for threads in [1, 2] {
            let (wall, results) = timed(
                reps,
                || AnalyzerOptions {
                    cache: Some(Arc::new(StageCache::new())),
                    ..AnalyzerOptions::default()
                },
                |options| analyze_all(&net, &tech, &scenarios, options, threads),
            );
            rows.push(BatchRow {
                circuit,
                transistors: net.transistor_count(),
                scenarios: scenarios.len(),
                threads,
                wall,
                identical: *serial.get_or_insert_with(|| results.clone()) == results,
            });
        }
    }
    rows
}

/// Analyzes every scenario with the slope model through the scenario
/// executor (no journal) on `threads` workers. Panics on a failed
/// scenario: every bench circuit analyzes cleanly.
fn analyze_all(
    net: &Network,
    tech: &Technology,
    scenarios: &[(String, Scenario)],
    options: AnalyzerOptions,
    threads: usize,
) -> Results {
    let durable = DurableOptions {
        threads,
        ..DurableOptions::default()
    };
    let run = run_durable(net, tech, ModelKind::Slope, scenarios, options, &durable)
        .expect("a run without a journal has no I/O to fail");
    (run.records.into_iter())
        .map(|r| match r.result {
            Some(result) => (r.label, result),
            None => panic!("scenario `{}` failed: {}", r.label, r.summary),
        })
        .collect()
}

/// Every leg of one bench run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The host's hardware threads.
    pub hardware_threads: usize,
    /// Repetitions per timed row.
    pub reps: usize,
    /// The traced small-circuit batches (smoke tier).
    pub traced: Vec<TracedRun>,
    /// The edit loop (smoke tier).
    pub edit_loop: Option<EditLoop>,
    /// The dense-vs-sparse pass chains (large tier).
    pub solver: Vec<SolverRow>,
    /// The sparse-only operating points (large tier).
    pub sparse_ops: Vec<SparseOp>,
    /// The peak RSS right after the sparse-only operating points.
    pub peak_rss_mb: Option<f64>,
    /// The large batches (large tier).
    pub batches: Vec<BatchRow>,
    /// Wall clock of the whole run, microseconds.
    pub wall_us: u64,
}

/// One row: its `BENCH.json` section, its JSON, and its run-record row.
type Row = (&'static str, Json, ScenarioRow);

impl Report {
    /// Runs the legs of `tier`, each timed row `reps` times.
    pub fn measure(tier: Tier, reps: usize) -> Report {
        let started = Instant::now();
        let mut report = Report {
            hardware_threads: available_parallelism(),
            reps: reps.max(1),
            ..Report::default()
        };
        if tier != Tier::Large {
            report.traced = traced_runs();
            report.edit_loop = Some(edit_loop(reps));
        }
        if tier != Tier::Smoke {
            report.solver = solver_rows(reps);
            report.sparse_ops = sparse_ops(reps);
            report.peak_rss_mb = peak_rss_mb();
            report.batches = batch_rows(reps);
        }
        report.wall_us = started.elapsed().as_micros() as u64;
        report
    }

    /// The rows that produced no valid result: a non-converged
    /// operating point, or results that differ where they must be
    /// identical.
    pub fn failures(&self) -> Vec<String> {
        (self.rows().into_iter())
            .filter(|(.., row)| row.outcome != "ok")
            .map(|(.., row)| row.label)
            .collect()
    }

    /// Every leg as rows: circuit and counts, the measurements, then the
    /// row's threads, the host's hardware threads and whether the row
    /// ran more threads than the host has. The run-record row carries the
    /// same JSON as its summary and the median of a timed row as its wall
    /// clock.
    fn rows(&self) -> Vec<Row> {
        let hw = self.hardware_threads;
        let ms = |v: f64| Json::fixed(v, 4);
        let sci = |v: f64| Json::Num(format!("{v:.3e}"));
        let circuit = |name: &str, transistors: usize| {
            Json::object()
                .with("circuit", name)
                .with("transistors", transistors)
        };
        let mut rows = Vec::new();
        let mut row =
            |section, label, ok: bool, wall: Option<Spread>, threads: usize, json: Json| {
                let json = (json.with("threads", threads))
                    .with("hardware_threads", hw)
                    .with("oversubscribed", threads > hw);
                let record = ScenarioRow {
                    label,
                    outcome: if ok { "ok" } else { "error" }.to_string(),
                    digest: None,
                    summary: json.to_string(),
                    wall_us: wall.map_or(0, |w| (w.median_ms * 1e3) as u64),
                    oversubscribed: threads > hw,
                };
                rows.push((section, json, record));
            };
        for t in &self.traced {
            let json = circuit(t.circuit, t.transistors)
                .with("scenarios", t.scenarios)
                .with("stages_extracted", t.stages_extracted)
                .with("stage_evals_charged", t.stage_evals_charged)
                .with("eval_ratio", ms(t.eval_ratio()));
            row("evals", format!("evals {}", t.circuit), true, None, 1, json);
        }
        if let Some(e) = &self.edit_loop {
            let name = format!("inverter-chain-{EDIT_CHAIN_STAGES}");
            let json = circuit(&name, e.transistors)
                .with("edits", e.edits)
                .with("scenarios", e.scenarios)
                .with("full_ms", e.full.json())
                .with("incremental_ms", e.incremental.json())
                .with("speedup", ms(e.speedup()))
                .with("stages_reevaluated", e.stages_reevaluated)
                .with("stages_reused", e.stages_reused)
                .with("identical", e.identical);
            let (label, ok) = ("edit-loop".to_string(), e.identical);
            row("edit_loop", label, ok, Some(e.incremental), 1, json);
        }
        for s in &self.solver {
            let json = circuit(&s.circuit, s.transistors)
                .with("unknowns", s.unknowns)
                .with("dense_op_ms", s.dense_op.json())
                .with("sparse_op_ms", s.sparse_op.json())
                .with("op_speedup", ms(s.op_speedup()))
                .with("dense_tran_ms", s.dense_tran.json())
                .with("sparse_tran_ms", s.sparse_tran.json())
                .with("tran_speedup", ms(s.tran_speedup()))
                .with("max_abs_diff_v", sci(s.max_abs_diff_v));
            let label = format!("large {}", s.circuit);
            row("solver", label, true, Some(s.sparse_op), 1, json);
        }
        for op in &self.sparse_ops {
            let json = circuit(op.circuit, op.transistors)
                .with("unknowns", op.unknowns)
                .with("op_ms", op.op.json())
                .with("converged", op.converged);
            let label = format!("large {}", op.circuit);
            row("sparse_ops", label, op.converged, Some(op.op), 1, json);
        }
        for b in &self.batches {
            let json = circuit(b.circuit, b.transistors)
                .with("scenarios", b.scenarios)
                .with("wall_ms", b.wall.json())
                .with("identical", b.identical);
            let label = format!("large batch {} x{}", b.circuit, b.threads);
            row("batches", label, b.identical, Some(b.wall), b.threads, json);
        }
        rows
    }

    /// The `BENCH.json` document: one top-level array per leg, one row
    /// per line, and the traced batches' phase breakdowns.
    pub fn to_json(&self) -> String {
        let rows = self.rows();
        let section = |name| {
            (rows.iter())
                .filter(move |(section, ..)| *section == name)
                .map(|(_, json, _)| json.clone())
        };
        let phases = self.traced.iter().flat_map(|t| {
            t.metrics.phases.iter().map(|p| {
                let counters = (p.counters.iter()).map(|(n, v)| (n.clone(), Json::from(*v)));
                Json::object()
                    .with("circuit", t.circuit)
                    .with("phase", p.phase.name())
                    .with("spans", p.spans)
                    .with("total_ms", Json::fixed(p.total_ns as f64 / 1e6, 4))
                    .with("wall_ms", Json::fixed(p.wall_ns as f64 / 1e6, 4))
                    .with("counters", Json::Object(counters.collect()))
            })
        });
        JsonDocument::default()
            .field("bench", BENCH_LABEL)
            .field("hardware_threads", self.hardware_threads)
            .field("reps", self.reps)
            .rows("evals", section("evals"))
            .rows("phases", phases)
            .rows("edit_loop", section("edit_loop"))
            .rows("solver", section("solver"))
            .rows("sparse_ops", section("sparse_ops"))
            .field("peak_rss_mb", self.peak_rss_mb.map(|mb| Json::fixed(mb, 1)))
            .rows("batches", section("batches"))
            .finish()
    }

    /// The run record: one scenario row per `BENCH.json` row, so
    /// `crystal-cli diff-runs` can compare bench runs.
    pub fn run_record(&self) -> RunRecord {
        let hw = self.hardware_threads;
        let mut record = RunRecord::new(new_meta("bench_smoke", 0, "slope", hw));
        record.scenarios = self.rows().into_iter().map(|(.., row)| row).collect();
        let failed = record.scenarios.iter().any(|s| s.outcome != "ok");
        record.exit = Some(ExitRow {
            status: if failed { "error" } else { "ok" }.to_string(),
            code: u8::from(failed),
            wall_us: self.wall_us,
        });
        record
    }

    /// Writes `BENCH.json` to `out`, each traced run to
    /// `{prefix}.{circuit}.jsonl`, and the run record into `run_db`.
    /// Returns the record's ID and path when one was written.
    pub fn write(
        &self,
        out: &Path,
        trace_prefix: Option<&str>,
        run_db: Option<&Path>,
    ) -> Result<Option<(String, PathBuf)>, String> {
        std::fs::write(out, self.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
        if let Some(prefix) = trace_prefix {
            for t in &self.traced {
                let path = format!("{prefix}.{}.jsonl", t.circuit);
                std::fs::write(&path, &t.trace).map_err(|e| format!("{path}: {e}"))?;
            }
        }
        let Some(db) = run_db else {
            return Ok(None);
        };
        let record = self.run_record();
        let store = RunStore::open(db).map_err(|e| e.to_string())?;
        let path = store.record(&record).map_err(|e| e.to_string())?;
        Ok(Some((record.meta.id, path)))
    }
}

/// The three small circuits of the traced legs, with their scenario
/// batches.
fn small_circuits() -> Vec<(&'static str, Network, Scenarios)> {
    let load = Farads::from_femto(100.0);

    // A 24-stage inverter chain over 16 input transitions: topologically
    // identical stages feed the memo cache.
    let chain = inverter_chain(Style::Cmos, 24, 2.0, load).expect("chain generates");
    let chain_scenarios = transition_scenarios(&chain, "in", &[], 16);

    // A random 24-transistor pass mesh: every mesh node hangs off a
    // random earlier node through an n-pass device gated by `ctl`.
    let mesh = random_pass_mesh(7, 22);
    let ctl = mesh.node_by_name("ctl").expect("mesh has ctl");
    let mesh_scenarios = transition_scenarios(&mesh, "in", &[(ctl, true)], 16);

    // A 12-bit Manchester carry chain, every input on both edges with the
    // propagates held high and the generates low: the carry path stays
    // sensitized.
    let adder = carry_chain(Style::Cmos, 12, load).expect("adder generates");
    let statics: Vec<(NodeId, bool)> = (adder.inputs().into_iter())
        .map(|n| (n, adder.node(n).name().starts_with('p')))
        .collect();
    let mut adder_scenarios = Vec::new();
    for input in adder.inputs() {
        for edge in [Edge::Rising, Edge::Falling] {
            let mut scenario = Scenario::step(input, edge);
            for &(node, level) in statics.iter().filter(|&&(node, _)| node != input) {
                scenario = scenario.with_static(node, level);
            }
            let label = format!("{} {edge:?}", adder.node(input).name());
            adder_scenarios.push((label, scenario));
        }
    }

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
    statics: &[(NodeId, bool)],
    steps: usize,
) -> Scenarios {
    let input = net.node_by_name(input).expect("input exists");
    let mut scenarios = Vec::new();
    for step in 0..steps {
        let transition = Seconds::from_nanos(0.25 * step as f64);
        for edge in [Edge::Rising, Edge::Falling] {
            let mut scenario = Scenario::step(input, edge).with_input_transition(transition);
            for &(node, level) in statics {
                scenario = scenario.with_static(node, level);
            }
            scenarios.push((format!("tr{step} {edge:?}"), scenario));
        }
    }
    scenarios
}
