//! The repository benchmark: four workloads through the public APIs of
//! `mosnet`, `crystal` and `nanospice`, end-to-end metrics with tracing
//! off and per-layer metrics from a separate traced run. See README.md.
//!
//! ```text
//! benchmark --workload W --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --seed N --out FILE [--seconds S]     every workload, traced and not
//! benchmark compare --parent FILE... --change FILE...
//! ```
//!
//! One workload runs in this process and ends its output with one JSON
//! line. Without `--workload`, every workload runs in a child process of
//! its own, one at a time, and their result records go to `--out`.

mod compare;
mod contract;
mod harness;
mod inputs;
mod report;
mod selftime;
mod serve;
mod spice;
mod sta;
mod stats;

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::{Command, ExitCode};

use report::RunReport;

/// Command-line settings of a run.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: contract::RUN_SECONDS as f64,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if runner(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be non-negative".to_string());
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// What a workload runs, given the seed, the seconds, and whether the
/// run is traced.
type Runner = fn(u64, f64, bool) -> RunReport;

/// The runner of a contract workload name.
fn runner(workload: &str) -> Option<Runner> {
    Some(match workload {
        "sta-decoder9" => |seed, seconds, traced| sta::run(&sta::DECODER9, seed, seconds, traced),
        "sta-sram64" => |seed, seconds, traced| sta::run(&sta::SRAM64, seed, seconds, traced),
        "serve-decoder7" => serve::run,
        "spice-decoder6" => spice::run,
        _ => return None,
    })
}

/// Runs one workload in this process.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let run = runner(workload).expect("workload names are checked when parsed");
    let report = run(args.seed, args.seconds, args.traced);
    let mode = if args.traced { "traced" } else { "untraced" };
    println!("{workload} seed {} ({mode})", args.seed);
    for note in &report.notes {
        println!("  {note}");
    }
    for (spec, value) in report.table(args.traced) {
        println!(
            "  {:<36} {:>14.6} {:<6} ({} samples)",
            spec.name, value.value, spec.unit, value.samples
        );
    }
    for problem in &report.problems {
        println!("  FAILED: {problem}");
    }
    if let Some(out) = &args.out {
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| {
                f.write_all(report.records(workload, args.seed, args.traced).as_bytes())
            });
        if let Err(e) = appended {
            eprintln!("benchmark: {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.json_line(args.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, each in a child process,
/// one at a time; their records accumulate in `--out`.
fn run_all(args: &Args) -> ExitCode {
    let Some(out) = &args.out else {
        eprintln!("benchmark: running every workload needs --out FILE");
        return ExitCode::from(2);
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "hardware threads {}, workers {}",
        crystal::pool::available_parallelism(),
        harness::workers()
    );
    let mut ok = true;
    for (workload, _) in contract::WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace, "--out", out])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("benchmark: {workload} --trace {trace} exited with {s}");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("benchmark: cannot run {workload}: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = args(&[
            "--workload",
            "sta-sram64",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sta-sram64"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn every_contract_workload_runs() {
        for (name, _) in contract::WORKLOADS {
            assert!(runner(name).is_some(), "{name}");
        }
    }
}
