//! Degenerate `perfgate` arguments get a usage error, not a silent
//! fallback.
//!
//! Each row runs `perfgate` with arguments it must reject and asserts
//! exit code 2, a message on stderr, no panic text and nothing on stdout:
//! the binary stopped before any work. A malformed `--tolerance` that
//! fell back to the default, or a misspelt flag that was ignored, would
//! change or disable the regression gate without a word.

use std::path::{Path, PathBuf};
use std::process::Command;

use mixtlb_perf::{BenchRecord, BenchReport, PATH_SCALAR};

const PERFGATE: &str = env!("CARGO_BIN_EXE_perfgate");

/// Runs `perfgate` with `args` and checks the clean usage-error contract,
/// describing the first breach.
fn usage_error(args: &[&str]) -> Result<(), String> {
    let call = format!("perfgate {}", args.join(" "));
    let out = Command::new(PERFGATE)
        .args(args)
        .output()
        .map_err(|e| format!("{call}: cannot run: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if out.status.code() != Some(2) {
        return Err(format!("{call}: exit {:?}, stderr {stderr}", out.status.code()));
    }
    if !stderr.contains("usage: perfgate") {
        return Err(format!("{call}: no usage text on stderr: {stderr}"));
    }
    if stderr.contains("panicked") {
        return Err(format!("{call}: {stderr}"));
    }
    if !out.stdout.is_empty() {
        let stdout = String::from_utf8_lossy(&out.stdout);
        return Err(format!("{call}: output on stdout: {stdout}"));
    }
    Ok(())
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfgate-degenerate-{name}"))
}

/// A two-design report, so `gate` has a triple to compare against the
/// scalar-split anchor.
fn report_file() -> std::io::Result<String> {
    let record = |design: &str| BenchRecord {
        design: design.into(),
        workload: "gups".into(),
        path: PATH_SCALAR.into(),
        accesses: 1000,
        median_ns: 10.0,
        min_ns: 9.5,
    };
    let report = BenchReport {
        records: vec![record("split"), record("mix")],
        ..BenchReport::default()
    };
    let path = tmp("report.json");
    std::fs::write(&path, report.to_json())?;
    Ok(path.to_string_lossy().into_owned())
}

#[test]
fn gate_rejects_malformed_tolerances_and_unknown_flags() {
    let report = report_file().unwrap();
    let gate = ["gate", "--prev", &report, "--curr", &report];
    // The fixture is sound: a valid tolerance gates the report against
    // itself and passes.
    let out = Command::new(PERFGATE).args(gate).args(["--tolerance", "0.4"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    for tolerance in ["abc", "NaN", "inf", "-inf", "5", "1", "-1", "-0.1", ""] {
        let args = [&gate[..], &["--tolerance", tolerance]].concat();
        assert_eq!(usage_error(&args), Ok(()));
    }
    for extra in [
        &["--tolerence", "0.1"][..],
        &["--tolerance"],
        &["--tolerance", "0.1", "--tolerance", "0.2"],
        &["--aggregate", "extra"],
    ] {
        assert_eq!(usage_error(&[&gate[..], extra].concat()), Ok(()));
    }
}

#[test]
fn measure_rejects_malformed_counts_before_measuring() {
    let out = tmp("measure.json");
    let out = out.to_string_lossy();
    for extra in [
        &["--warmup", "abc"][..],
        &["--warmup", "-1"],
        &["--reps", "abc"],
        &["--reps", "0"],
        &["--pr", "-3"],
        &["--pr", "x"],
        &["--quick", "extra"],
        &["--qiuck"],
    ] {
        assert_eq!(usage_error(&[&["measure", "--out", &out][..], extra].concat()), Ok(()));
    }
    assert!(!Path::new(&*out).exists(), "a rejected measure wrote {out}");
}

#[test]
fn other_subcommands_reject_stray_arguments() {
    let dir = tmp("corpus");
    let dir = dir.to_string_lossy();
    assert_eq!(usage_error(&["gen-corpus", "--dir", &dir, "--bogus"]), Ok(()));
    assert!(!Path::new(&*dir).exists(), "a rejected gen-corpus created {dir}");
    assert_eq!(usage_error(&["self-test", "extra"]), Ok(()));
    assert_eq!(usage_error(&["bogus"]), Ok(()));
}
