//! `mixtlb-check` — the workspace's offline checker CLI.
//!
//! ```text
//! mixtlb-check --analyze [ROOT]  # structural static analysis (12 semantic rules)
//!               [--format text|json|sarif] [--baseline PATH]
//!               [--update-baseline] [--locks] [--stats]
//! mixtlb-check --model           # bounded model-check of the shootdown protocol
//! mixtlb-check --list-rules      # print the analysis rule identifiers
//! ```
//!
//! Exit codes are uniform across `--analyze` and `--model`:
//! **0** — clean; **1** — findings (or a model failure) remain; **2** —
//! internal error (bad arguments, unreadable root or baseline, a hot-path
//! root that matches no workspace fn). CI gates
//! on "non-zero" without distinguishing, while scripts that want to
//! separate "the code is dirty" from "the tool is broken" can.
//!
//! `--analyze` loads `ROOT/check-baseline.json` (or
//! `--baseline PATH`) and reports only non-baselined findings;
//! `--update-baseline` rewrites that file from the current findings —
//! the committed diff is the audit trail. `--locks` additionally prints
//! the extracted static lock-acquisition order; `--stats` prints
//! per-rule finding counts and analysis wall time. `--model` runs the
//! time-boxed subset of the interleaving exploration (the full suites
//! live in `cargo test -p mixtlb-check --features model`): the correct
//! two-core shootdown protocol must pass *every* schedule up to the
//! preemption bound, and each seeded bug must be caught.

use std::path::PathBuf;
use std::process::ExitCode;

use mixtlb_check::analysis;
use mixtlb_check::handoff::{HandoffBug, HandoffScenario};
use mixtlb_check::protocol::{SeededBug, ShootdownScenario};
use mixtlb_check::sched::{Config, FailureKind};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--analyze") => run_analyze(&args[1..]),
        Some("--model") => run_model(),
        Some("--list-rules") => {
            for rule in analysis::ANALYSIS_RULES {
                println!("{rule}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: mixtlb-check --analyze [ROOT] \
                 [--format text|json|sarif] [--baseline PATH] \
                 [--update-baseline] [--locks] [--stats] | --model | \
                 --list-rules"
            );
            ExitCode::from(2)
        }
    }
}

/// Parses and runs `--analyze`; see the module docs for the contract.
fn run_analyze(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_owned();
    let mut baseline_path: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut show_locks = false;
    let mut show_stats = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(f) if ["text", "json", "sarif"].contains(&f.as_str()) => {
                    format = f.clone();
                }
                _ => {
                    eprintln!("analyze: --format needs text|json|sarif");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("analyze: --baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--update-baseline" => update_baseline = true,
            "--locks" => show_locks = true,
            "--stats" => show_stats = true,
            other if !other.starts_with("--") && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("analyze: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("check-baseline.json"));

    let mut report = match analysis::analyze_workspace(&root) {
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

    if update_baseline {
        if let Some(c) = analysis::find_collision(&report.findings) {
            eprintln!("analyze: refusing to update the baseline: {c}");
            return ExitCode::from(2);
        }
        if let Err(e) = analysis::Baseline::write(&baseline_path, &report.findings) {
            eprintln!("analyze: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "analyze: baseline {} updated with {} finding(s)",
            baseline_path.display(),
            report.findings.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match analysis::Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("analyze: cannot read {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    if let Err(c) = report.apply_baseline(&baseline) {
        eprintln!("analyze: {c}");
        return ExitCode::from(2);
    }

    match format.as_str() {
        "json" => print!("{}", analysis::to_json(&report)),
        "sarif" => print!("{}", analysis::to_sarif(&report)),
        _ => {
            for finding in &report.findings {
                println!("{finding}");
            }
            if show_locks {
                println!("analyze: static lock-acquisition order:");
                if report.lock_edges.is_empty() {
                    println!("  (no multi-lock functions outside crates/check)");
                }
                for edge in &report.lock_edges {
                    println!("  {edge}");
                }
            }
            println!(
                "analyze: {} file(s), {} fn(s), {} symbol(s), {} call edge(s); \
                 {} finding(s), {} baselined",
                report.stats.files,
                report.stats.functions,
                report.stats.symbols,
                report.stats.call_edges,
                report.findings.len(),
                report.baselined
            );
            if show_stats {
                print_stats(&report);
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the `--stats` block: per-rule finding counts (live and
/// baselined) plus front-end shape and phase wall time.
fn print_stats(report: &analysis::AnalysisReport) {
    println!("analyze: per-rule findings:");
    for rule in analysis::ANALYSIS_RULES {
        let live = report.findings.iter().filter(|f| f.rule == rule).count();
        let baselined = report
            .baselined_by_rule
            .iter()
            .find(|(r, _)| *r == rule)
            .map_or(0, |&(_, n)| n);
        println!("  {rule:<16} {live} live, {baselined} baselined");
    }
    println!(
        "analyze: front end: {} struct(s), {} shared, {} SCC(s), {} hot-reachable fn(s)",
        report.stats.structs,
        report.stats.shared_structs,
        report.stats.sccs,
        report.stats.hot_fns
    );
    println!(
        "analyze: abstract interpretation: {} value-summarized fn(s)",
        report.stats.summarized_fns
    );
    println!(
        "analyze: wall time: parse {:.1} ms, rules {:.1} ms, absint {:.1} ms \
         (bit-pack-overflow {:.1} ms, tag-range {:.1} ms, index-bound {:.1} ms, \
         blocking-in-lock {:.1} ms)",
        report.stats.parse_nanos as f64 / 1e6,
        report.stats.rules_nanos as f64 / 1e6,
        report.stats.absint_nanos as f64 / 1e6,
        report.stats.value_rule_nanos[0] as f64 / 1e6,
        report.stats.value_rule_nanos[1] as f64 / 1e6,
        report.stats.value_rule_nanos[2] as f64 / 1e6,
        report.stats.blocking_nanos as f64 / 1e6
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

    // The streaming pipeline's bounded hand-off (producer/consumer +
    // buffer recycling over two BoundedQueues). Semaphore schedule points
    // are instrumented feature-independently, so this binary explores the
    // hand-off protocol's blocking structure directly.
    let handoff_cfg = Config::with_preemption_bound(3);
    let clean = HandoffScenario::with_bug(HandoffBug::None).explore(&handoff_cfg);
    match &clean.failure {
        None => println!(
            "model: bounded hand-off clean over {} schedule(s){}",
            clean.schedules,
            if clean.complete {
                " (complete at preemption bound 3)"
            } else {
                ""
            }
        ),
        Some(f) => {
            ok = false;
            println!(
                "model: FAILURE — bounded hand-off failed ({:?}): {}",
                f.kind, f.message
            );
        }
    }
    for bug in [HandoffBug::MissingPublish, HandoffBug::LeakedBuffer] {
        let report = HandoffScenario::with_bug(bug).explore(&handoff_cfg);
        match &report.failure {
            Some(f) if f.kind == FailureKind::Deadlock => println!(
                "model: seeded {bug:?} caught as {:?} after {} schedule(s)",
                f.kind, report.schedules
            ),
            Some(f) => {
                ok = false;
                println!(
                    "model: FAILURE — seeded {bug:?} caught as {:?}, expected Deadlock: {}",
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
