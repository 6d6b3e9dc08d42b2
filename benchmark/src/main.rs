//! `mixtlb-benchmark`: runs the benchmark and compares run sets.
//!
//! ```text
//! mixtlb-benchmark run [--workload W] [--seed N] [--seconds S]
//!                      [--trace 0|1] [--events N]
//! mixtlb-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run --workload W` measures one workload in this process and prints
//! one JSON line per metric, ending with a result line
//! `{"correct", "attempted", "failed", "metrics"}`. Without `--workload`
//! every workload runs in its own child process, untraced and then
//! traced (or only the mode `--trace` names). The exit code is 0 only
//! when every output check passed.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

use mixtlb_benchmark::compare::compare;
use mixtlb_benchmark::run::{run_workload, RunConfig};
use mixtlb_benchmark::workload::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  mixtlb-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                       [--events N]
  mixtlb-benchmark compare A.jsonl B.jsonl";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("mixtlb-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Parsed `run` options.
struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    events: Option<usize>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: None,
        events: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--events" => out.events = Some(value.parse().ok().filter(|n| *n > 0).ok_or_else(bad)?),
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    match a.workload {
        Some(workload) => run_one(&a, workload),
        None => run_all(&a),
    }
}

fn run_one(a: &RunArgs, workload: &'static Workload) -> Result<ExitCode, String> {
    let mut cfg = RunConfig::new(workload, a.seed);
    cfg.seconds = a.seconds;
    cfg.events = a.events;
    cfg.traced = a.trace.unwrap_or(false);
    let outcome = run_workload(&cfg).map_err(|e| format!("{}: {e}", workload.name))?;
    for f in outcome.failures.iter().take(20) {
        eprintln!("check failed: {} {f}", workload.name);
    }
    if outcome.failures.len() > 20 {
        eprintln!("check failed: … {} more", outcome.failures.len() - 20);
    }
    for w in &outcome.warnings {
        eprintln!("warning: {} {w}", workload.name);
    }
    for line in outcome.lines() {
        println!("{line}");
    }
    Ok(if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in its own child process (this executable with
/// `--workload`), untraced then traced, and waits for each.
fn run_all(a: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let modes: Vec<bool> = a.trace.map_or_else(|| vec![false, true], |t| vec![t]);
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in &modes {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if *traced { "1" } else { "0" }]);
            if let Some(n) = a.events {
                cmd.args(["--events", &n.to_string()]);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_owned());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let c = compare(&read(a)?, &read(b)?)?;
    print!("{}", c.render());
    Ok(if c.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
