//! `benchmark compare --parent FILE... --change FILE...`: for every
//! workload and metric in two sets of result files, each side's median
//! and quartiles, and for the end-to-end metrics a verdict against the
//! contract's bound. Runs that were not correct are listed and left out.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use crystal::fingerprint::parse_json_object;

use crate::contract::{self, Better};
use crate::stats::{quartiles, relative_spread};

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// A gain by the benchmark's rule.
    Better,
    /// Worse than the bound allows.
    Worse,
    /// The runs spread wider than the bound, so no claim holds.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `to` is worse than `from` (negative when better).
fn worse_by(from: f64, to: f64, better: Better) -> f64 {
    let delta = if from == 0.0 {
        0.0
    } else {
        (to - from) / from.abs()
    };
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// The verdict on one metric, runs listed in the order they were made
/// (parent and change runs alternate, so run `i` of each side pairs up).
///
/// * `unresolved` when either side's quartile spread exceeds the bound,
///   unless every change run beats every parent run (`better`), or every
///   change run loses to every parent run and the median is worse by
///   more than the bound (`worse`);
/// * `worse` when the change's median is worse by more than the bound;
/// * `better` when it is better by more than the bound, or when it wins
///   at least nine tenths of ten or more pairs and the medians differ by
///   more than the parent's own quartile spread;
/// * `same` otherwise.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some((p1, pm, p3)), Some((_, cm, _))) = (quartiles(parent), quartiles(change)) else {
        return Verdict::Unresolved;
    };
    let beats = |c: f64, p: f64| worse_by(p, c, better) < 0.0;
    let dominates = |pred: &dyn Fn(f64, f64) -> bool| {
        change.iter().all(|&c| parent.iter().all(|&p| pred(c, p)))
    };
    let delta = worse_by(pm, cm, better);
    let spread = relative_spread(parent)
        .unwrap_or(0.0)
        .max(relative_spread(change).unwrap_or(0.0));
    if spread > bound {
        return if dominates(&beats) {
            Verdict::Better
        } else if delta > bound && dominates(&|c, p| worse_by(p, c, better) > 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if delta > bound {
        return Verdict::Worse;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    let paired_gain = pairs >= 10 && wins * 10 >= pairs * 9 && (cm - pm).abs() > p3 - p1;
    if -delta > bound || (delta < 0.0 && paired_gain) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The records of one side.
#[derive(Debug, Default)]
struct Runs {
    /// Values per `(workload, metric)` of the correct runs, in file and
    /// line order.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// The runs that were not correct, by file, workload, seed and
    /// trace. Their values are left out: a run that failed reports 0
    /// for what it never measured.
    incorrect: BTreeSet<String>,
}

impl Runs {
    /// Adds the records of one result file.
    fn add(&mut self, file: &str, text: &str) -> Result<(), String> {
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = || format!("{file}:{}: not a result record", i + 1);
            let record = parse_json_object(line).ok_or_else(bad)?;
            let field = |k: &str| record.get(k).cloned().ok_or_else(bad);
            let workload = field("workload")?;
            if field("correct")? != "true" {
                self.incorrect.insert(format!(
                    "{file}: {workload} seed {} trace {}",
                    field("seed")?,
                    field("trace")?
                ));
                continue;
            }
            let value: f64 = field("value")?.parse().map_err(|_| bad())?;
            self.values
                .entry((workload, field("metric")?))
                .or_default()
                .push(value);
        }
        Ok(())
    }

    fn read(files: &[String]) -> Result<Runs, String> {
        let mut runs = Runs::default();
        for file in files {
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            runs.add(file, &text)?;
        }
        Ok(runs)
    }
}

/// One line of the comparison.
struct Row {
    workload: String,
    metric: String,
    parent: Vec<f64>,
    change: Vec<f64>,
    /// `None` for a per-layer metric, which has no bound.
    verdict: Option<Verdict>,
}

/// A row for every `(workload, metric)` both sides measured.
fn rows(parent: &Runs, change: &Runs) -> Vec<Row> {
    parent
        .values
        .iter()
        .filter_map(|(key, p)| {
            let c = change.values.get(key)?;
            let (workload, metric) = key.clone();
            let verdict = contract::spec(&metric)
                .and_then(|s| s.bound.map(|bound| verdict(p, c, s.better, bound)));
            Some(Row {
                workload,
                metric,
                parent: p.clone(),
                change: c.clone(),
                verdict,
            })
        })
        .collect()
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, m, q3)) => format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        None => "-".to_string(),
    }
}

/// Runs the subcommand; exits 1 when any end-to-end metric is worse or
/// any run on either side was not correct.
pub fn main(args: &[String]) -> ExitCode {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            file => match side.as_mut() {
                Some(files) => files.push(file.to_string()),
                None => return usage(&format!("unexpected argument `{file}`")),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return usage("need result files on both sides");
    }
    let (parent, change) = match (Runs::read(&parent), Runs::read(&change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let mut worse = false;
    println!("workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tverdict");
    for row in rows(&parent, &change) {
        worse |= row.verdict == Some(Verdict::Worse);
        let delta = match (quartiles(&row.parent), quartiles(&row.change)) {
            (Some((_, pm, _)), Some((_, cm, _))) if pm != 0.0 => {
                format!("{:+.2}%", 100.0 * (cm - pm) / pm.abs())
            }
            _ => "-".to_string(),
        };
        println!(
            "{}\t{}\t{}\t{}\t{delta}\t{}",
            row.workload,
            row.metric,
            summary(&row.parent),
            summary(&row.change),
            row.verdict.map_or("-", Verdict::name)
        );
    }
    for (side, runs) in [("parent", &parent), ("change", &change)] {
        for run in &runs.incorrect {
            println!("{side} run not correct, left out: {run}");
        }
    }
    if worse || !parent.incorrect.is_empty() || !change.incorrect.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("benchmark compare: {problem}");
    eprintln!("usage: benchmark compare --parent FILE... --change FILE...");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_same() {
        let p = [10.0, 10.2, 9.9];
        let c = [10.3, 10.4, 10.2];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn beyond_the_bound_is_worse_or_better_by_direction() {
        let p = [10.0, 10.1, 9.9];
        let slower = [12.0, 12.1, 11.9];
        assert_eq!(verdict(&p, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&p, &slower, Better::Higher, 0.1), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_dominates() {
        let p = [5.0, 10.0, 15.0, 20.0];
        let c = [6.0, 11.0, 14.0, 21.0];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Unresolved);
        let all_faster = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            verdict(&p, &all_faster, Better::Lower, 0.1),
            Verdict::Better
        );
        // Every change run is slower, but the median moved by less than
        // the bound (+22.5% against 25%): no regression is shown.
        let (p, c) = ([8.0, 9.0, 11.0, 12.0], [12.1, 12.2, 12.3, 12.4]);
        assert_eq!(verdict(&p, &c, Better::Lower, 0.25), Verdict::Unresolved);
        assert_eq!(verdict(&p, &c, Better::Lower, 0.2), Verdict::Worse);
    }

    fn record(workload: &str, metric: &str, value: f64, correct: bool) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":0,\"metric\":\"{metric}\",\
             \"unit\":\"ms\",\"value\":{value},\"samples\":1,\"correct\":{correct}}}\n"
        )
    }

    #[test]
    fn an_incorrect_run_is_left_out_and_never_reads_better() {
        let mut parent = Runs::default();
        parent
            .add("p", &record("w", "op_p50_ms", 10.0, true))
            .unwrap();
        // A broken change reports 0 for what it never measured.
        let mut change = Runs::default();
        change
            .add("c", &record("w", "op_p50_ms", 0.0, false))
            .unwrap();
        assert!(rows(&parent, &change)
            .iter()
            .all(|r| r.verdict != Some(Verdict::Better)));
        assert_eq!(change.incorrect.len(), 1);
        // Mixed with correct runs, only those are compared.
        change
            .add("c2", &record("w", "op_p50_ms", 10.1, true))
            .unwrap();
        let rows = rows(&parent, &change);
        assert_eq!(rows[0].change, [10.1]);
        assert_eq!(rows[0].verdict, Some(Verdict::Same));
        assert!(change.add("c3", "{\"workload\":\"w\"}").is_err());
    }

    #[test]
    fn a_paired_gain_needs_nine_of_ten_wins_beyond_the_parent_spread() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 2)).collect();
        let c: Vec<f64> = p.iter().map(|v| v - 5.0).collect();
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Better);
        // Three narrow losses in ten pairs: no claim.
        let mut mixed = c.clone();
        for v in mixed.iter_mut().take(3) {
            *v += 5.5;
        }
        assert_eq!(verdict(&p, &mixed, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn single_runs_compare_by_bound_alone() {
        assert_eq!(verdict(&[10.0], &[10.5], Better::Lower, 0.1), Verdict::Same);
        assert_eq!(verdict(&[10.0], &[9.5], Better::Lower, 0.1), Verdict::Same);
        assert_eq!(
            verdict(&[], &[9.5], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
