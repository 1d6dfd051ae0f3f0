//! Differential self-checking of the timing engine.
//!
//! The paper's claim — slope tracks the reference simulator closely while
//! lumped RC can be off by 2× — is only worth anything if the *optimized*
//! paths (sharded memo cache, parallel propagation) still produce it.
//! This harness re-runs analyzed scenarios three ways and reports every
//! divergence:
//!
//! 1. **cached vs. fresh** — the same scenario analyzed with a shared
//!    [`StageCache`] (twice, so the second run actually hits) must be
//!    bit-identical to an uncached run;
//! 2. **parallel vs. serial** — `threads = N` must be bit-identical to
//!    `threads = 1` (the Jacobi snapshot-round guarantee);
//! 3. **model vs. reference** — each delay model's prediction at the
//!    latest-switching output must sit inside its per-model tolerance
//!    band around a nanospice transient measurement.
//!
//! The first two checks are exact (any difference is a bug); the third is
//! banded, with defaults wide enough for the honest model error on the
//! seed corpus yet tight enough that an off-by-2× result trips them.
//! [`SelfCheckConfig::inject_scale`] deliberately corrupts one model's
//! predictions so CI can verify the harness actually fires.

use crate::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario, TimingResult};
use crate::memo::StageCache;
use crate::models::ModelKind;
use crate::obs::{Phase, TraceSink};
use crate::tech::Technology;
use mosnet::units::Seconds;
use mosnet::{Network, NodeId, NodeKind};
use nanospice::analysis::{
    measure_transition, operating_voltages, Edge as SimEdge, TransitionSpec,
};
use nanospice::MosModelSet;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-model tolerance bands: the maximum |percent error| against the
/// transient reference that still counts as agreement.
///
/// The defaults are calibrated on the seed corpus (inverter chain, pass
/// mesh, carry-chain adder) using a [`Technology`] fitted to the
/// reference simulator's device parameters (see
/// `examples/netlists/calibrated.tech`): each band clears the honest
/// worst-case error of its model with margin, while a 2× corruption of a
/// prediction still lands outside. An uncalibrated technology carries a
/// systematic scale error that these bands will (correctly) flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceBands {
    /// Band for [`ModelKind::Slope`], in percent.
    pub slope_pct: f64,
    /// Band for [`ModelKind::RcTree`], in percent.
    pub rctree_pct: f64,
    /// Band for [`ModelKind::Lumped`], in percent.
    pub lumped_pct: f64,
}

impl Default for ToleranceBands {
    fn default() -> ToleranceBands {
        ToleranceBands {
            // Honest worst cases on the calibrated seed corpus (input
            // transitions 0–2 ns): slope 10.5%; rc-tree 24.3% on trees
            // but −55.6% on inverter chains, where it degenerates to the
            // lumped value and ignores input slope; lumped
            // −55.6%..+65.9%. A 2× corruption of the worst honest lumped
            // overestimate (+66% → +232%) still clears the 80% band.
            slope_pct: 25.0,
            rctree_pct: 65.0,
            lumped_pct: 80.0,
        }
    }
}

impl ToleranceBands {
    /// The band of one model, in percent.
    pub fn band(&self, model: ModelKind) -> f64 {
        match model {
            ModelKind::Slope => self.slope_pct,
            ModelKind::RcTree => self.rctree_pct,
            ModelKind::Lumped => self.lumped_pct,
        }
    }
}

/// Configuration of a self-check run.
#[derive(Debug, Clone)]
pub struct SelfCheckConfig {
    /// Models to audit (default: all three).
    pub models: Vec<ModelKind>,
    /// Reference-agreement bands.
    pub bands: ToleranceBands,
    /// Worker threads for the parallel leg of the parallel-vs-serial
    /// check (`0` = every hardware thread, the default).
    pub threads: usize,
    /// Cap on the number of scenarios per netlist that get the (much
    /// more expensive) transient reference comparison; the exact checks
    /// run on every scenario regardless.
    pub reference_sample: usize,
    /// Deliberately scale `(model, factor)` predictions before the
    /// reference comparison — a fault-injection hook proving the harness
    /// detects a wrong answer. `None` (default) checks honestly.
    pub inject_scale: Option<(ModelKind, f64)>,
    /// Observability sink for [`Phase::Check`] spans and counters.
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for SelfCheckConfig {
    fn default() -> SelfCheckConfig {
        SelfCheckConfig {
            models: ModelKind::ALL.to_vec(),
            bands: ToleranceBands::default(),
            threads: 0,
            reference_sample: 4,
            inject_scale: None,
            trace: None,
        }
    }
}

/// One detected divergence.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Divergence {
    /// A cached analysis differed from the uncached one.
    Cache {
        /// Scenario label.
        scenario: String,
        /// The model being audited.
        model: ModelKind,
        /// Which cached pass differed (1 = populating, 2 = hitting).
        pass: usize,
    },
    /// A parallel analysis differed from the serial one.
    Parallel {
        /// Scenario label.
        scenario: String,
        /// The model being audited.
        model: ModelKind,
        /// The worker-thread setting of the diverging run.
        threads: usize,
    },
    /// A model prediction fell outside its reference tolerance band.
    Reference {
        /// Scenario label.
        scenario: String,
        /// The model being audited.
        model: ModelKind,
        /// Name of the measured output node.
        output: String,
        /// The model's 50%→50% delay prediction.
        predicted: Seconds,
        /// The transient reference delay.
        reference: Seconds,
        /// Signed percent error of the prediction.
        percent_error: f64,
        /// The band it had to stay inside, in percent.
        band_pct: f64,
    },
    /// An analysis leg failed outright (one leg erroring while another
    /// succeeds is itself a divergence).
    Failed {
        /// Scenario label.
        scenario: String,
        /// The model being audited.
        model: ModelKind,
        /// Which leg failed.
        leg: &'static str,
        /// The error text.
        error: String,
    },
    /// A journal record replayed on resume does not match a fresh
    /// re-analysis of the same scenario (see
    /// [`check_resume_equivalence`]).
    Resume {
        /// Scenario label.
        scenario: String,
        /// What disagreed (digest, summary, or outcome).
        detail: String,
    },
    /// An incremental re-analysis differed from a fresh full analysis of
    /// the same edited network (see [`check_incremental`]).
    Incremental {
        /// Scenario label.
        scenario: String,
        /// The model being audited.
        model: ModelKind,
        /// 1-based index of the edit after which the divergence appeared
        /// (0 = before any edit, right after session construction).
        edit: usize,
        /// Which session variant diverged (`serial`, `parallel`,
        /// `cache-cold`, `cache-warm`).
        leg: &'static str,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Cache {
                scenario,
                model,
                pass,
            } => write!(
                f,
                "[{scenario}] {model}: cached pass {pass} differs from fresh analysis"
            ),
            Divergence::Parallel {
                scenario,
                model,
                threads,
            } => write!(
                f,
                "[{scenario}] {model}: threads={threads} differs from serial analysis"
            ),
            Divergence::Reference {
                scenario,
                model,
                output,
                predicted,
                reference,
                percent_error,
                band_pct,
            } => write!(
                f,
                "[{scenario}] {model}: `{output}` predicted {:.4} ns vs reference {:.4} ns \
                 ({percent_error:+.1}%, band ±{band_pct:.0}%)",
                predicted.nanos(),
                reference.nanos(),
            ),
            Divergence::Failed {
                scenario,
                model,
                leg,
                error,
            } => write!(f, "[{scenario}] {model}: {leg} leg failed: {error}"),
            Divergence::Resume { scenario, detail } => {
                write!(f, "[{scenario}] resumed journal record: {detail}")
            }
            Divergence::Incremental {
                scenario,
                model,
                edit,
                leg,
            } => write!(
                f,
                "[{scenario}] {model}: incremental {leg} session differs from fresh \
                 full analysis after edit {edit}"
            ),
        }
    }
}

/// The outcome of a self-check run.
#[derive(Debug, Clone, Default)]
pub struct SelfCheckReport {
    /// Total individual comparisons performed.
    pub checks_run: usize,
    /// Scenarios whose reference leg was skipped, with reasons (e.g.
    /// nothing switches, or the transient measurement failed).
    pub skipped: Vec<String>,
    /// Every detected divergence.
    pub divergences: Vec<Divergence>,
}

impl SelfCheckReport {
    /// `true` when no divergence was detected.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Merges another report (e.g. from a second netlist) into this one.
    pub fn merge(&mut self, other: SelfCheckReport) {
        self.checks_run += other.checks_run;
        self.skipped.extend(other.skipped);
        self.divergences.extend(other.divergences);
    }

    /// A human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "self-check: {} comparisons, {} divergences, {} reference legs skipped",
            self.checks_run,
            self.divergences.len(),
            self.skipped.len()
        );
        for d in &self.divergences {
            let _ = writeln!(out, "  DIVERGENCE {d}");
        }
        for s in &self.skipped {
            let _ = writeln!(out, "  skipped: {s}");
        }
        out
    }
}

/// The every-input × both-edges scenario set the CLI's `batch` and
/// `check` commands audit — the standard corpus shape.
pub fn standard_scenarios(
    net: &Network,
    statics: &HashMap<NodeId, bool>,
    input_transition: Seconds,
) -> Vec<(String, Scenario)> {
    let mut scenarios = Vec::new();
    for input in net.inputs() {
        for edge in [Edge::Rising, Edge::Falling] {
            let label = format!("{} {}", net.node(input).name(), edge.name());
            let mut scenario = Scenario::step(input, edge).with_input_transition(input_transition);
            for (&node, &level) in statics {
                if node != input {
                    scenario = scenario.with_static(node, level);
                }
            }
            scenarios.push((label, scenario));
        }
    }
    scenarios
}

/// Audits one netlist: every scenario gets the exact cached-vs-fresh and
/// parallel-vs-serial checks per model, and the first
/// [`SelfCheckConfig::reference_sample`] switching scenarios also get the
/// model-vs-transient-reference band check.
pub fn check_network(
    net: &Network,
    tech: &Technology,
    scenarios: &[(String, Scenario)],
    config: &SelfCheckConfig,
) -> SelfCheckReport {
    let trace = config.trace.as_deref();
    let mut report = SelfCheckReport::default();
    // One shared cache per model across all scenarios, mirroring how
    // batch runs actually share it.
    let caches: Vec<Arc<StageCache>> = config
        .models
        .iter()
        .map(|_| Arc::new(StageCache::new()))
        .collect();
    let mut references_done = 0usize;
    for (label, scenario) in scenarios {
        let _span = trace.map(|t| {
            let mut span = t.span(Phase::Check, "scenario");
            span.field("scenario", label);
            span
        });
        let mut fresh_for_reference: Vec<(ModelKind, TimingResult)> = Vec::new();
        for (model, cache) in config.models.iter().copied().zip(&caches) {
            let serial = AnalyzerOptions {
                threads: 1,
                cache: None,
                trace: config.trace.clone(),
                ..AnalyzerOptions::default()
            };
            let fresh = match analyze_with_options(net, tech, model, scenario, serial.clone()) {
                Ok(r) => r,
                Err(e) => {
                    report.divergences.push(Divergence::Failed {
                        scenario: label.clone(),
                        model,
                        leg: "fresh",
                        error: e.to_string(),
                    });
                    continue;
                }
            };

            // Cached vs. fresh: pass 1 populates the shared cache, pass 2
            // must hit it; both must be bit-identical to the fresh run.
            let cached_options = AnalyzerOptions {
                cache: Some(Arc::clone(cache)),
                ..serial.clone()
            };
            for pass in 1..=2 {
                report.checks_run += 1;
                match analyze_with_options(net, tech, model, scenario, cached_options.clone()) {
                    Ok(cached) => {
                        if cached != fresh {
                            report.divergences.push(Divergence::Cache {
                                scenario: label.clone(),
                                model,
                                pass,
                            });
                        }
                    }
                    Err(e) => report.divergences.push(Divergence::Failed {
                        scenario: label.clone(),
                        model,
                        leg: "cached",
                        error: e.to_string(),
                    }),
                }
            }

            // Parallel vs. serial.
            report.checks_run += 1;
            let parallel_options = AnalyzerOptions {
                threads: config.threads,
                cache: None,
                trace: config.trace.clone(),
                ..AnalyzerOptions::default()
            };
            match analyze_with_options(net, tech, model, scenario, parallel_options) {
                Ok(parallel) => {
                    if parallel != fresh {
                        report.divergences.push(Divergence::Parallel {
                            scenario: label.clone(),
                            model,
                            threads: config.threads,
                        });
                    }
                }
                Err(e) => report.divergences.push(Divergence::Failed {
                    scenario: label.clone(),
                    model,
                    leg: "parallel",
                    error: e.to_string(),
                }),
            }

            fresh_for_reference.push((model, fresh));
        }

        // Reference leg: bounded sample, latest-switching output node.
        if references_done < config.reference_sample {
            match check_against_reference(net, scenario, label, &fresh_for_reference, config) {
                ReferenceOutcome::Checked(mut divergences, checks) => {
                    references_done += 1;
                    report.checks_run += checks;
                    report.divergences.append(&mut divergences);
                }
                ReferenceOutcome::Skipped(reason) => report.skipped.push(reason),
            }
        }
    }
    if let Some(t) = trace {
        t.count(Phase::Check, "comparisons", report.checks_run as u64);
        t.count(Phase::Check, "divergences", report.divergences.len() as u64);
        t.count(Phase::Check, "reference_skips", report.skipped.len() as u64);
    }
    report
}

/// Audits a durable run against fresh re-analysis: every journaled `ok`
/// record (resumed or just computed) must match a serial, uncached
/// re-analysis of its scenario bit-for-bit (digest and display summary),
/// and every journaled deterministic `error` must reproduce. Timed-out,
/// poisoned, and skipped records have nothing to compare against and are
/// reported in [`SelfCheckReport::skipped`].
///
/// This is the gate behind `crystal-cli batch --journal --resume
/// --selfcheck-resume` and the CI chaos job: it proves a kill-and-resume
/// run is equivalent to an uninterrupted one.
pub fn check_resume_equivalence(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    scenarios: &[(String, Scenario)],
    options: &AnalyzerOptions,
    run: &crate::durable::DurableRun,
) -> SelfCheckReport {
    use crate::durable::Outcome;
    let trace = options.trace.as_deref();
    let by_label: HashMap<&str, &Scenario> = scenarios
        .iter()
        .map(|(label, scenario)| (label.as_str(), scenario))
        .collect();
    let mut report = SelfCheckReport::default();
    for record in &run.records {
        let _span = trace.map(|t| {
            let mut span = t.span(Phase::Check, "resume-equivalence");
            span.field("scenario", &record.label);
            span
        });
        let Some(scenario) = by_label.get(record.label.as_str()) else {
            report.divergences.push(Divergence::Resume {
                scenario: record.label.clone(),
                detail: "journal names a scenario absent from this run".to_string(),
            });
            continue;
        };
        // The reference leg: serial, uncached, unbounded by any watchdog —
        // the most deterministic configuration the analyzer has.
        let fresh_options = AnalyzerOptions {
            threads: 1,
            cache: None,
            cancel: None,
            ..options.clone()
        };
        match record.outcome {
            Outcome::Ok => {
                report.checks_run += 1;
                match analyze_with_options(net, tech, model, scenario, fresh_options) {
                    Ok(result) => {
                        let digest = crate::durable::result_digest(net, &result);
                        let summary = crate::durable::scenario_summary(net, &result);
                        if Some(digest) != record.digest {
                            report.divergences.push(Divergence::Resume {
                                scenario: record.label.clone(),
                                detail: format!(
                                    "digest {:016x} journaled, fresh re-analysis gives {digest:016x}",
                                    record.digest.unwrap_or(0)
                                ),
                            });
                        } else if summary != record.summary {
                            report.divergences.push(Divergence::Resume {
                                scenario: record.label.clone(),
                                detail: format!(
                                    "summary `{}` journaled, fresh re-analysis gives `{summary}`",
                                    record.summary
                                ),
                            });
                        }
                    }
                    Err(e) => report.divergences.push(Divergence::Resume {
                        scenario: record.label.clone(),
                        detail: format!("journaled ok, but fresh re-analysis fails: {e}"),
                    }),
                }
            }
            Outcome::Error => {
                report.checks_run += 1;
                if analyze_with_options(net, tech, model, scenario, fresh_options).is_ok() {
                    report.divergences.push(Divergence::Resume {
                        scenario: record.label.clone(),
                        detail: "journaled a deterministic error, but fresh re-analysis succeeds"
                            .to_string(),
                    });
                }
            }
            _ => report.skipped.push(format!(
                "{}: journaled `{}` has no deterministic reference",
                record.label,
                record.outcome.name()
            )),
        }
    }
    if let Some(t) = trace {
        t.count(Phase::Check, "resume_comparisons", report.checks_run as u64);
        t.count(Phase::Check, "divergences", report.divergences.len() as u64);
    }
    report
}

/// Audits the incremental engine over a scripted edit sequence: four
/// independent [`IncrementalAnalyzer`](crate::incremental::IncrementalAnalyzer)
/// sessions — serial, parallel
/// (`config.threads`), cold shared cache, and a cache pre-warmed by a
/// full pass over every scenario — apply the same edits, and after every
/// edit (plus once right after construction) each session's result for
/// every scenario must be **bit-identical** to a fresh serial, uncached
/// full analysis of the edited network. Any mismatch, and any leg that
/// errors where the reference succeeds, is a divergence.
pub fn check_incremental(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    scenarios: &[(String, Scenario)],
    edits: &[mosnet::diff::Edit],
    config: &SelfCheckConfig,
) -> SelfCheckReport {
    use crate::incremental::IncrementalAnalyzer;
    let trace = config.trace.as_deref();
    let mut report = SelfCheckReport::default();
    let base = AnalyzerOptions {
        threads: 1,
        cache: None,
        trace: config.trace.clone(),
        ..AnalyzerOptions::default()
    };
    let warm_cache = Arc::new(StageCache::new());
    for (_, scenario) in scenarios {
        // Pre-warm: one full pass per scenario; errors surface later via
        // the session itself.
        let _ = analyze_with_options(
            net,
            tech,
            model,
            scenario,
            AnalyzerOptions {
                cache: Some(Arc::clone(&warm_cache)),
                ..base.clone()
            },
        );
    }
    let variants: [(&'static str, AnalyzerOptions); 4] = [
        ("serial", base.clone()),
        (
            "parallel",
            AnalyzerOptions {
                threads: config.threads,
                ..base.clone()
            },
        ),
        (
            "cache-cold",
            AnalyzerOptions {
                cache: Some(Arc::new(StageCache::new())),
                ..base.clone()
            },
        ),
        (
            "cache-warm",
            AnalyzerOptions {
                cache: Some(warm_cache),
                ..base.clone()
            },
        ),
    ];
    for (leg, options) in variants {
        let _span = trace.map(|t| {
            let mut span = t.span(Phase::Check, "incremental");
            span.field("leg", leg);
            span
        });
        let mut session = match IncrementalAnalyzer::new(
            net.clone(),
            tech.clone(),
            model,
            scenarios.to_vec(),
            options,
        ) {
            Ok(session) => session,
            Err(e) => {
                report.divergences.push(Divergence::Failed {
                    scenario: format!("incremental {leg} session"),
                    model,
                    leg: "incremental-init",
                    error: e.to_string(),
                });
                continue;
            }
        };
        // Edit 0 is the freshly built session; then one audit per edit.
        let audit = |session: &IncrementalAnalyzer, edit: usize, report: &mut SelfCheckReport| {
            for (label, _) in scenarios {
                report.checks_run += 1;
                let reference = session.scenario(label).and_then(|scenario| {
                    analyze_with_options(
                        session.network(),
                        tech,
                        model,
                        &scenario,
                        AnalyzerOptions {
                            trace: config.trace.clone(),
                            ..AnalyzerOptions::default()
                        },
                    )
                });
                let diverged = match (session.result(label), &reference) {
                    (Some(incremental), Ok(fresh)) => incremental != fresh,
                    _ => true,
                };
                if diverged {
                    report.divergences.push(Divergence::Incremental {
                        scenario: label.clone(),
                        model,
                        edit,
                        leg,
                    });
                }
            }
        };
        audit(&session, 0, &mut report);
        for (i, edit) in edits.iter().enumerate() {
            match session.apply_edit(edit) {
                Ok(_) => audit(&session, i + 1, &mut report),
                Err(e) => {
                    report.divergences.push(Divergence::Failed {
                        scenario: format!("edit {}", i + 1),
                        model,
                        leg: "incremental-edit",
                        error: e.to_string(),
                    });
                    break;
                }
            }
        }
    }
    if let Some(t) = trace {
        t.count(
            Phase::Check,
            "incremental_comparisons",
            report.checks_run as u64,
        );
        t.count(Phase::Check, "divergences", report.divergences.len() as u64);
    }
    report
}

enum ReferenceOutcome {
    Checked(Vec<Divergence>, usize),
    Skipped(String),
}

/// Picks the measured output: the latest-arriving [`NodeKind::Output`]
/// node, falling back to the latest arrival of any kind.
fn pick_output(net: &Network, result: &TimingResult) -> Option<(NodeId, Edge)> {
    let mut best: Option<(NodeId, Seconds, Edge)> = None;
    for (node, arrival) in result.arrivals() {
        if net.node(node).kind() != NodeKind::Output {
            continue;
        }
        if best.as_ref().is_none_or(|(_, t, _)| arrival.time > *t) {
            best = Some((node, arrival.time, arrival.edge));
        }
    }
    if let Some((node, _, edge)) = best {
        return Some((node, edge));
    }
    result
        .max_arrival()
        .map(|(node, arrival)| (node, arrival.edge))
}

fn check_against_reference(
    net: &Network,
    scenario: &Scenario,
    label: &str,
    fresh: &[(ModelKind, TimingResult)],
    config: &SelfCheckConfig,
) -> ReferenceOutcome {
    let trace = config.trace.as_deref();
    let _span = trace.map(|t| {
        let mut span = t.span(Phase::Check, "reference");
        span.field("scenario", label);
        span
    });
    // The output must switch under every audited model for the delays to
    // be comparable.
    let Some((_, first)) = fresh.first() else {
        return ReferenceOutcome::Skipped(format!("[{label}] no successful analysis"));
    };
    let Some((output, output_edge)) = pick_output(net, first) else {
        return ReferenceOutcome::Skipped(format!("[{label}] nothing switches"));
    };
    // When no downstream node switches, `pick_output` falls back to the
    // scenario's own trigger — comparing the forced input against itself
    // measures simulator edge placement, not a delay model.
    if output == scenario.input {
        return ReferenceOutcome::Skipped(format!(
            "[{label}] only the driven input itself switches"
        ));
    }
    let mut predictions: Vec<(ModelKind, Seconds)> = Vec::new();
    for (model, result) in fresh {
        match result.arrival(output) {
            Some(a) => predictions.push((*model, a.time)),
            None => {
                return ReferenceOutcome::Skipped(format!(
                    "[{label}] `{}` does not switch under {model}",
                    net.node(output).name()
                ))
            }
        }
    }

    // Transient window from the first model's own estimate, exactly the
    // shape the paper-evaluation harness uses (8× the predicted delay,
    // floor 10 ns, stretched for slow input ramps).
    let predicted = predictions
        .iter()
        .map(|(_, t)| t.value())
        .fold(0.0_f64, f64::max);
    let horizon = (8.0 * predicted)
        .max(10e-9)
        .max(4.0 * scenario.input_transition.value())
        + 2.0 * scenario.input_transition.value();
    let (tstop, dt) = (Seconds(horizon), Seconds(horizon / 4000.0));

    // The MOS level-1 parameters `calibrated.tech` was fit against.
    let models = &MosModelSet::default();
    let statics: HashMap<NodeId, f64> = scenario
        .statics
        .iter()
        .map(|(&n, &b)| (n, if b { models.vdd } else { 0.0 }))
        .collect();
    // The settled output level comes from a DC operating point at the
    // final input vector, making the 50% crossing immune to slow settling
    // tails (threshold-dropped pass outputs, ratioed lows).
    let mut final_levels = statics.clone();
    final_levels.insert(
        scenario.input,
        if scenario.edge == Edge::Rising {
            models.vdd
        } else {
            0.0
        },
    );
    // Sanity gates: the reference comparison is only meaningful when the
    // transient measurement itself is well-conditioned. A floating output
    // (cut off mid-scenario), a barely-swinging node (already near its
    // final level), or a crossing found only in the stretched simulation
    // tail all produce delays that measure the test setup, not the model
    // — those scenarios are recorded as skips, never as divergences.
    let mut before_levels: HashMap<NodeId, f64> = scenario
        .statics
        .iter()
        .map(|(&n, &b)| (n, if b { models.vdd } else { 0.0 }))
        .collect();
    before_levels.insert(
        scenario.input,
        if scenario.edge == Edge::Rising {
            0.0
        } else {
            models.vdd
        },
    );
    let v_before = match operating_voltages(net, models, &before_levels) {
        Ok(v) => v[output.index()],
        Err(e) => {
            return ReferenceOutcome::Skipped(format!(
                "[{label}] initial operating point failed: {e}"
            ))
        }
    };
    let v_after = match operating_voltages(net, models, &final_levels) {
        Ok(v) => v[output.index()],
        Err(e) => {
            return ReferenceOutcome::Skipped(format!(
                "[{label}] final operating point failed: {e}"
            ))
        }
    };
    if (v_after - v_before).abs() < 0.5 * models.vdd {
        return ReferenceOutcome::Skipped(format!(
            "[{label}] `{}` swings only {:.2} V (needs >= {:.2} V for a clean 50% crossing)",
            net.node(output).name(),
            (v_after - v_before).abs(),
            0.5 * models.vdd
        ));
    }
    let expected_final = Some(v_after);
    let spec = TransitionSpec {
        input: scenario.input,
        input_edge: match scenario.edge {
            Edge::Rising => SimEdge::Rising,
            Edge::Falling => SimEdge::Falling,
        },
        input_transition: scenario.input_transition,
        output,
        output_edge: match output_edge {
            Edge::Rising => SimEdge::Rising,
            Edge::Falling => SimEdge::Falling,
        },
        statics,
        expected_final,
    };
    let reference = match measure_transition(net, models, &spec, tstop, dt) {
        Ok(m) => m.delay,
        Err(e) => {
            return ReferenceOutcome::Skipped(format!("[{label}] reference simulation failed: {e}"))
        }
    };
    if reference.value() < 1e-12 {
        return ReferenceOutcome::Skipped(format!(
            "[{label}] reference delay below the 1 ps noise floor"
        ));
    }
    if reference.value() > 0.6 * tstop.value() {
        return ReferenceOutcome::Skipped(format!(
            "[{label}] reference crossing found only in the simulation tail \
             ({:.2} ns of a {:.2} ns window)",
            reference.nanos(),
            tstop.nanos()
        ));
    }

    let mut divergences = Vec::new();
    let mut checks = 0usize;
    for (model, mut predicted) in predictions {
        if let Some((inject_model, factor)) = config.inject_scale {
            if inject_model == model {
                predicted = Seconds(predicted.value() * factor);
            }
        }
        checks += 1;
        let percent_error = 100.0 * (predicted.value() - reference.value()) / reference.value();
        let band_pct = config.bands.band(model);
        if percent_error.abs() > band_pct {
            divergences.push(Divergence::Reference {
                scenario: label.to_string(),
                model,
                output: net.node(output).name().to_string(),
                predicted,
                reference,
                percent_error,
                band_pct,
            });
        }
    }
    ReferenceOutcome::Checked(divergences, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosnet::generators::{carry_chain, inverter_chain, pass_chain, Style};
    use mosnet::units::Farads;

    /// The committed calibrated technology (generated once by
    /// `examples/calibrate_tech.rs` against `MosModelSet::default()`);
    /// reference-agreement checks are only meaningful against it.
    fn calibrated() -> Technology {
        crate::tech_format::parse(include_str!("../../../examples/netlists/calibrated.tech"))
            .expect("committed tech file parses")
    }

    /// The three seed circuits with their static-input requirements.
    fn seed_corpus() -> Vec<(&'static str, Network, HashMap<NodeId, bool>)> {
        let mut corpus = Vec::new();
        let chain = inverter_chain(Style::Cmos, 4, 1.5, Farads::from_femto(100.0)).unwrap();
        corpus.push(("inverter-chain", chain, HashMap::new()));
        let mesh = pass_chain(
            Style::Cmos,
            6,
            Farads::from_femto(50.0),
            Farads::from_femto(100.0),
        )
        .unwrap();
        let ctl = mesh.node_by_name("ctl").unwrap();
        corpus.push(("pass-mesh", mesh, HashMap::from([(ctl, true)])));
        let adder = carry_chain(Style::Cmos, 4, Farads::from_femto(60.0)).unwrap();
        let statics: HashMap<NodeId, bool> = adder
            .inputs()
            .into_iter()
            .map(|n| (n, adder.node(n).name().starts_with('p')))
            .collect();
        corpus.push(("adder", adder, statics));
        corpus
    }

    #[test]
    #[ignore = "probe"]
    fn probe_honest_errors() {
        let tech = calibrated();
        for (name, net, statics) in seed_corpus() {
            for tr in [0.0, 0.5, 2.0] {
                let scenarios = standard_scenarios(&net, &statics, Seconds::from_nanos(tr));
                let config = SelfCheckConfig {
                    reference_sample: usize::MAX,
                    bands: ToleranceBands {
                        slope_pct: 0.0,
                        rctree_pct: 0.0,
                        lumped_pct: 0.0,
                    },
                    ..SelfCheckConfig::default()
                };
                let report = check_network(&net, &tech, &scenarios, &config);
                for d in &report.divergences {
                    if matches!(d, Divergence::Reference { .. }) {
                        println!("{name} tr={tr} {d}");
                    }
                }
                for s in &report.skipped {
                    println!("{name} tr={tr} SKIP {s}");
                }
            }
        }
    }

    /// Sensitized scenario lists per seed circuit — the transitions whose
    /// transient measurement is well-conditioned, mirroring the
    /// hand-sensitized approach of `tests/accuracy.rs`. The adder's
    /// `cin fall` / `g* fall` transitions fight the ratioed restorer and
    /// are genuine (documented) model divergences, so they stay out of
    /// the pass/fail corpus.
    fn sensitized_scenarios(
        name: &str,
        net: &Network,
        statics: &HashMap<NodeId, bool>,
        input_transition: Seconds,
    ) -> Vec<(String, Scenario)> {
        let all = standard_scenarios(net, statics, input_transition);
        match name {
            "adder" => all
                .into_iter()
                .filter(|(label, _)| label == "cin rise")
                .collect(),
            // Pass-mesh `ctl fall` stays in deliberately: nothing
            // downstream switches, so it must come back as a skip, not a
            // divergence.
            _ => all,
        }
    }

    #[test]
    fn seed_corpus_passes_all_three_models() {
        let tech = calibrated();
        let mut total = SelfCheckReport::default();
        for (name, net, statics) in seed_corpus() {
            let scenarios = sensitized_scenarios(name, &net, &statics, Seconds::from_nanos(0.5));
            let config = SelfCheckConfig {
                reference_sample: 2,
                ..SelfCheckConfig::default()
            };
            let report = check_network(&net, &tech, &scenarios, &config);
            assert!(report.ok(), "{name} diverged:\n{}", report.render());
            assert!(report.checks_run > 0, "{name} ran no checks");
            total.merge(report);
        }
        assert!(
            total.checks_run > 20,
            "corpus too small: {}",
            total.checks_run
        );
    }

    #[test]
    fn injected_2x_lumped_is_flagged() {
        let tech = calibrated();
        // Pass-transistor chains are where honest lumped error runs
        // largest (+60..66%); doubling the prediction must clearly trip
        // the 80% band while slope and rc-tree stay honest and in-band.
        let net = pass_chain(
            Style::Cmos,
            6,
            Farads::from_femto(50.0),
            Farads::from_femto(100.0),
        )
        .unwrap();
        let ctl = net.node_by_name("ctl").unwrap();
        let statics = HashMap::from([(ctl, true)]);
        let input = net.node_by_name("in").unwrap();
        let scenarios: Vec<(String, Scenario)> =
            standard_scenarios(&net, &statics, Seconds::from_nanos(0.5))
                .into_iter()
                .filter(|(_, s)| s.input == input)
                .collect();
        let config = SelfCheckConfig {
            inject_scale: Some((ModelKind::Lumped, 2.0)),
            ..SelfCheckConfig::default()
        };
        let report = check_network(&net, &tech, &scenarios, &config);
        assert!(!report.ok(), "2x lumped injection went undetected");
        assert!(
            report.divergences.iter().any(|d| matches!(
                d,
                Divergence::Reference {
                    model: ModelKind::Lumped,
                    ..
                }
            )),
            "divergences blame the wrong model: {}",
            report.render()
        );
        // Only the injected model trips; slope and rc-tree stay clean.
        assert!(
            report.divergences.iter().all(
                |d| matches!(d, Divergence::Reference { model, .. } if *model == ModelKind::Lumped)
            ),
            "{}",
            report.render()
        );
    }

    #[test]
    fn trace_records_check_phase() {
        let tech = Technology::nominal();
        let net = inverter_chain(Style::Cmos, 2, 1.0, Farads::from_femto(50.0)).unwrap();
        let scenarios = standard_scenarios(&net, &HashMap::new(), Seconds::ZERO);
        let sink = Arc::new(TraceSink::new());
        let config = SelfCheckConfig {
            reference_sample: 1,
            trace: Some(Arc::clone(&sink)),
            ..SelfCheckConfig::default()
        };
        let report = check_network(&net, &tech, &scenarios, &config);
        let metrics = sink.metrics();
        assert_eq!(
            metrics.counter(Phase::Check, "comparisons"),
            report.checks_run as u64
        );
        assert!(metrics.phase_total_ns(Phase::Check) > 0);
    }

    #[test]
    fn incremental_sessions_match_full_analysis() {
        use mosnet::diff::Edit;
        use mosnet::Geometry;
        let tech = Technology::nominal();
        let net = carry_chain(Style::Cmos, 4, Farads::from_femto(60.0)).unwrap();
        let statics: HashMap<NodeId, bool> = net
            .inputs()
            .into_iter()
            .map(|n| (n, net.node(n).name().starts_with('p')))
            .collect();
        let scenarios: Vec<(String, Scenario)> =
            standard_scenarios(&net, &statics, Seconds::from_nanos(0.2))
                .into_iter()
                .filter(|(label, _)| label == "cin rise" || label == "g2 rise")
                .collect();
        assert_eq!(scenarios.len(), 2);
        let edits = vec![
            Edit::Resize {
                gate: "p2".into(),
                source: "c1".into(),
                drain: "c2".into(),
                geometry: Geometry::from_microns(6.0, 2.0),
            },
            Edit::SetCapacitance {
                node: "c3".into(),
                capacitance: Farads::from_femto(35.0),
            },
            Edit::Remove {
                gate: "g4".into(),
                source: "cout".into(),
                drain: "gnd".into(),
            },
        ];
        let config = SelfCheckConfig {
            threads: 4,
            ..SelfCheckConfig::default()
        };
        let report = check_incremental(&net, &tech, ModelKind::Slope, &scenarios, &edits, &config);
        assert!(report.ok(), "{}", report.render());
        // 4 session variants × 2 scenarios × (1 initial + 3 edits).
        assert_eq!(report.checks_run, 4 * 2 * 4);
    }

    #[test]
    fn report_render_names_divergences() {
        let mut report = SelfCheckReport {
            checks_run: 3,
            ..Default::default()
        };
        report.divergences.push(Divergence::Cache {
            scenario: "a rise".into(),
            model: ModelKind::Slope,
            pass: 2,
        });
        report.skipped.push("[b fall] nothing switches".into());
        let text = report.render();
        assert!(text.contains("1 divergences"), "{text}");
        assert!(text.contains("cached pass 2"), "{text}");
        assert!(text.contains("nothing switches"), "{text}");
        assert!(!report.ok());
    }
}
