//! `mixtlb-check` — the workspace's offline checker CLI.
//!
//! ```text
//! mixtlb-check --analyze [ROOT] [--format text|json] [--stats]
//!                                # structural static analysis (4 rules)
//! mixtlb-check --model           # bounded model-check of the shootdown protocol
//! mixtlb-check --list-rules      # print the analysis rule identifiers
//! ```
//!
//! Exit codes are uniform across `--analyze` and `--model`:
//! **0** — clean; **1** — findings (or a model failure) remain; **2** —
//! internal error (bad arguments, unreadable root, a hot-path root that
//! matches no workspace fn). CI gates on "non-zero" without
//! distinguishing, while scripts that want to separate "the code is
//! dirty" from "the tool is broken" can.
//!
//! `--analyze` has no suppressions: every finding counts. `--stats`
//! prints per-rule finding counts and analysis wall time. `--model` runs
//! the time-boxed subset of the interleaving exploration (the full suites
//! live in `cargo test -p mixtlb-check --features model`): the correct
//! two-core shootdown protocol must pass *every* schedule up to the
//! preemption bound, and each seeded bug must be caught.

use std::path::PathBuf;
use std::process::ExitCode;

use mixtlb_check::analysis;
use mixtlb_check::protocol::{SeededBug, ShootdownScenario};
use mixtlb_check::sched::{Config, FailureKind};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.len()) {
        (Some("--analyze"), _) => run_analyze(&args[1..]),
        (Some("--model"), 1) => run_model(),
        (Some("--list-rules"), 1) => {
            for rule in analysis::ANALYSIS_RULES {
                println!("{rule}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Prints the usage line; exit code 2 (bad arguments).
fn usage() -> ExitCode {
    eprintln!(
        "usage: mixtlb-check --analyze [ROOT] [--format text|json] [--stats] \
         | --model | --list-rules"
    );
    ExitCode::from(2)
}

/// Parses and runs `--analyze`; see the module docs for the contract.
fn run_analyze(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut show_stats = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => {
                    eprintln!("analyze: --format needs text|json");
                    return usage();
                }
            },
            "--stats" => show_stats = true,
            other if !other.starts_with("--") && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("analyze: unknown argument `{other}`");
                return usage();
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    let report = match analysis::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if !report.unresolved_hot_roots.is_empty() {
        eprintln!(
            "analyze: hot-path root(s) {} match no workspace fn — update the \
             root list in crates/check/src/analysis/dataflow.rs",
            report.unresolved_hot_roots.join(", ")
        );
        return ExitCode::from(2);
    }

    if json {
        print!("{}", analysis::to_json(&report));
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        println!(
            "analyze: {} file(s), {} fn(s), {} symbol(s), {} call edge(s); \
             {} finding(s)",
            report.stats.files,
            report.stats.functions,
            report.stats.symbols,
            report.stats.call_edges,
            report.findings.len()
        );
        if show_stats {
            print_stats(&report);
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the `--stats` block: per-rule finding counts plus front-end
/// shape and per-phase and per-rule wall time.
fn print_stats(report: &analysis::AnalysisReport) {
    let stats = &report.stats;
    println!("analyze: per-rule findings:");
    for rule in analysis::ANALYSIS_RULES {
        let n = report.findings.iter().filter(|f| f.rule == rule).count();
        println!("  {rule:<17} {n}");
    }
    println!("analyze: front end: {} hot-reachable fn(s)", stats.hot_fns);
    let per_rule: Vec<String> = stats
        .rule_nanos
        .iter()
        .map(|(rule, ns)| format!("{rule} {:.1} ms", *ns as f64 / 1e6))
        .collect();
    println!(
        "analyze: wall time: parse {:.1} ms, rules {:.1} ms ({})",
        stats.parse_nanos as f64 / 1e6,
        stats.rules_nanos as f64 / 1e6,
        per_rule.join(", ")
    );
}

fn run_model() -> ExitCode {
    let cfg = Config::exhaustive();
    let mut ok = true;

    // The correct protocol: every interleaving must be clean.
    let clean = ShootdownScenario::two_core(SeededBug::None).explore(&cfg);
    match &clean.failure {
        None => println!(
            "model: correct 2-core shootdown clean over {} schedule(s){}",
            clean.schedules,
            if clean.complete { " (exhaustive)" } else { "" }
        ),
        Some(f) => {
            ok = false;
            println!(
                "model: FAILURE — correct protocol failed ({:?}): {}",
                f.kind, f.message
            );
        }
    }

    // Each seeded bug must be caught.
    for (bug, expect) in [
        (SeededBug::DoorbellBeforeRemap, FailureKind::Assertion),
        (SeededBug::PartialSweep, FailureKind::Assertion),
        (SeededBug::MissingAck, FailureKind::Deadlock),
    ] {
        let report = ShootdownScenario::two_core(bug).explore(&cfg);
        match &report.failure {
            Some(f) if f.kind == expect => println!(
                "model: seeded {bug:?} caught as {:?} after {} schedule(s)",
                f.kind, report.schedules
            ),
            Some(f) => {
                ok = false;
                println!(
                    "model: FAILURE — seeded {bug:?} caught as {:?}, expected {expect:?}: {}",
                    f.kind, f.message
                );
            }
            None => {
                ok = false;
                println!(
                    "model: FAILURE — seeded {bug:?} NOT caught in {} schedule(s)",
                    report.schedules
                );
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
