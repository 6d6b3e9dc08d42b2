//! Smoke test: every workload at 20k events and one rep, untraced and
//! traced, emits every metric `BENCHMARK.json` declares — once, finite,
//! with its declared unit — and passes every output check; a damaged
//! trace file is counted as failed operations, never a panic.

use std::path::PathBuf;
use std::process::Command;

use mixtlb_benchmark::json::Json;
use mixtlb_benchmark::metrics::{Better, END_TO_END};
use mixtlb_benchmark::run::{run_workload, RunConfig, RunOutcome};
use mixtlb_benchmark::workload::{Workload, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of each declared metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tmp_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

fn small(workload: &'static Workload, traced: bool) -> RunConfig {
    let mut cfg = RunConfig::new(workload, 7);
    cfg.events = Some(20_000);
    cfg.reps = Some(1);
    cfg.traced = traced;
    cfg.work_dir = tmp_dir();
    cfg
}

/// Checks one run's lines against the declared metrics.
fn assert_reports(out: &RunOutcome, expected: &[(String, String)]) {
    assert_eq!(
        out.failed, 0,
        "{} traced={}: {:?}",
        out.workload, out.traced, out.failures
    );
    assert!(out.attempted > 0);
    let lines = out.lines();
    let result = Json::parse(lines.last().expect("a result line")).expect("result line parses");
    let Json::Obj(fields) = &result else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(reported, wanted, "{}", out.workload);
    for ((name, unit), (_, m)) in expected.iter().zip(metrics) {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{} {name}: {value:?}",
            out.workload
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
    // Each declared metric also has exactly one per-metric line, and the
    // error rate is zero.
    let metric_lines: Vec<Json> = lines
        .iter()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|j| j.get("metric").is_some())
        .collect();
    for (name, unit) in expected {
        let matching: Vec<&Json> = metric_lines
            .iter()
            .filter(|j| j.get("metric").and_then(Json::as_str) == Some(name))
            .collect();
        assert_eq!(matching.len(), 1, "{} {name}", out.workload);
        assert_eq!(
            matching[0].get("unit").and_then(Json::as_str),
            Some(unit.as_str())
        );
        assert!(matching[0]
            .get("samples")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0));
    }
    let error_rate: Vec<f64> = metric_lines
        .iter()
        .filter(|j| j.get("metric").and_then(Json::as_str) == Some("error_rate"))
        .filter_map(|j| j.get("value").and_then(Json::as_f64))
        .collect();
    assert_eq!(error_rate, [0.0], "{}", out.workload);
    assert_eq!(metric_lines.len(), expected.len() + 1, "{}", out.workload);
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(per_layer.len(), 78);
    for w in &WORKLOADS {
        let untraced = run_workload(&small(w, false)).expect("untraced run completes");
        assert_reports(&untraced, &end_to_end);
        let traced = run_workload(&small(w, true)).expect("traced run completes");
        assert_reports(&traced, &per_layer);
    }
}

#[test]
fn benchmark_json_matches_the_workload_and_metric_tables() {
    let doc = benchmark_json();
    let declared: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?, w.get("why")?.as_str()?)))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, ours);

    // `compare` judges rows by the Rust table's directions and bounds.
    let end_to_end = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (json, def) in end_to_end.iter().zip(&END_TO_END) {
        let better = match def.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        assert_eq!(json.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(json.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(json.get("better").and_then(Json::as_str), Some(better));
        assert_eq!(json.get("bound").and_then(Json::as_f64), Some(def.bound));
    }
}

#[test]
fn damaged_trace_is_counted_not_a_panic() {
    for traced in [false, true] {
        let mut cfg = small(&WORKLOADS[2], traced);
        cfg.damage_trace = true;
        let out = run_workload(&cfg).expect("damage is not an I/O error");
        assert!(out.failed > 0 && out.failed <= out.attempted, "{out:?}");
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("trace replay failed")),
            "{:?}",
            out.failures
        );
        let result = Json::parse(out.lines().last().expect("result")).expect("parses");
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    }
}

#[test]
fn binary_ends_with_the_result_line_and_compares_runs() {
    let exe = env!("CARGO_BIN_EXE_mixtlb-benchmark");
    let run = |seed: &str| {
        Command::new(exe)
            .args(["run", "--workload", "gpu-coalesce", "--seed", seed])
            .args(["--seconds", "1", "--trace", "0", "--events", "20000"])
            .env("CARGO_TARGET_DIR", tmp_dir())
            .output()
            .expect("benchmark runs")
    };
    let out = run("3");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = Json::parse(stdout.lines().last().expect("output")).expect("JSON result line");
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert!(last
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 48.0));

    let a = tmp_dir().join("smoke-a.jsonl");
    std::fs::write(&a, &stdout).expect("write A");
    let cmp = Command::new(exe)
        .arg("compare")
        .args([&a, &a])
        .output()
        .expect("compare runs");
    let report = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{report}");
    assert!(
        report.contains("gpu-coalesce") && report.contains("within bound"),
        "{report}"
    );
    assert!(report.contains("0 differ"), "{report}");

    let bad = Command::new(exe)
        .args(["run", "--workload", "no-such-workload"])
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
