//! perfgate — replay the pinned corpus through every design and gate
//! throughput regressions against the previously committed report.
//!
//! Each design × workload cell records four paths: `scalar` (one
//! `access` per event), `batched` (one `translate_batch` over the
//! buffered corpus), `stream-batched` (the block-streamed pipeline,
//! decode and translate together in constant memory), and one
//! multi-core point, `ws-batched@<cores>`, at the host's core count.
//!
//! ```text
//! perfgate gen-corpus [--dir DIR]
//! perfgate measure --out FILE [--corpus DIR] [--pr N]
//!                  [--reps N] [--warmup N] [--quick]
//! perfgate gate --prev FILE --curr FILE [--tolerance FRAC]
//! perfgate self-test
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use mixtlb_perf::{
    config_fingerprint, corpus_catalog, corpus_path, default_corpus_dir, file_fingerprint, gate,
    gate_aggregate, load_events, path_at_cores, prepare_scenario, replay_batched, replay_scalar,
    replay_stream_batched, replay_ws, time_reps, write_corpus_file, BenchRecord, BenchReport,
    CorpusFileInfo, CorpusWorkload, PATH_BATCHED, PATH_SCALAR, PATH_STREAM_BATCHED,
    PATH_WS_BATCHED,
};
use mixtlb_sim::designs::all_cpu_designs;

/// Events per stealable chunk of the ws-batched measurement; matches the
/// bench binary's corpus replay.
const WS_CHUNK_EVENTS: usize = 1024;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfgate <gen-corpus [--dir DIR]\n\
         \x20               | measure --out FILE [--corpus DIR] [--pr N] [--reps N] [--warmup N]\n\
         \x20                         [--quick]\n\
         \x20               | gate --prev FILE --curr FILE [--tolerance FRAC] [--aggregate]\n\
         \x20               | self-test>"
    );
    ExitCode::from(2)
}

/// Pulls the value following `flag` out of `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen-corpus") => gen_corpus(&args[1..]),
        Some("measure") => measure(&args[1..]),
        Some("gate") => gate_cmd(&args[1..]),
        Some("self-test") => self_test(),
        _ => usage(),
    }
}

fn gen_corpus(args: &[String]) -> ExitCode {
    let dir = flag_value(args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(default_corpus_dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfgate: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    println!("regenerating pinned corpus into {}", dir.display());
    println!("config: {}", config_fingerprint());
    for w in corpus_catalog() {
        match write_corpus_file(&dir, &w) {
            Ok(n) => {
                let path = corpus_path(&dir, w.name);
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let fp = file_fingerprint(&path).unwrap_or_else(|_| "?".into());
                println!("  {:<14} {n:>7} events {bytes:>8} bytes fnv1a={fp}", w.name);
            }
            Err(e) => {
                eprintln!("perfgate: generating {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The workload subset and rep counts a measurement sweep uses.
struct MeasurePlan {
    workloads: Vec<CorpusWorkload>,
    warmup: usize,
    reps: usize,
}

fn measure_plan(args: &[String]) -> MeasurePlan {
    let quick = has_flag(args, "--quick");
    let workloads: Vec<CorpusWorkload> = corpus_catalog()
        .into_iter()
        .filter(|w| !quick || w.name == "streamcluster" || w.name == "gups")
        .collect();
    let parse = |flag: &str, default: usize| {
        flag_value(args, flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    MeasurePlan {
        workloads,
        warmup: parse("--warmup", if quick { 1 } else { 2 }),
        reps: parse("--reps", if quick { 3 } else { 5 }),
    }
}

fn measure(args: &[String]) -> ExitCode {
    let dir = flag_value(args, "--corpus")
        .map(PathBuf::from)
        .unwrap_or_else(default_corpus_dir);
    // No default output: a bare `measure` must never overwrite a
    // committed baseline.
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("perfgate: measure needs --out FILE");
        return usage();
    };
    let pr: u32 = flag_value(args, "--pr")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let plan = measure_plan(args);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ws_path = path_at_cores(PATH_WS_BATCHED, cores);
    println!("host cores: {cores} (multi-core point {ws_path})");

    let mut report = BenchReport {
        pr,
        config: config_fingerprint(),
        corpus: Vec::new(),
        records: Vec::new(),
    };

    let mut best_speedup: Option<(f64, String, String)> = None;
    for w in &plan.workloads {
        let path = corpus_path(&dir, w.name);
        let events = match load_events(&path) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!(
                    "perfgate: cannot load {} (run `perfgate gen-corpus` first?): {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let fp = match file_fingerprint(&path) {
            Ok(fp) => fp,
            Err(e) => {
                eprintln!("perfgate: fingerprinting {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let accesses = events.len() as u64;
        report.corpus.push(CorpusFileInfo {
            workload: w.name.to_owned(),
            fingerprint: fp,
            events: accesses,
        });
        let Some(scenario) = prepare_scenario(w.name) else {
            eprintln!("perfgate: {} is not in the workload catalog", w.name);
            return ExitCode::FAILURE;
        };
        println!("{} ({} events):", w.name, events.len());
        let ws_pt = scenario.clone_page_table();
        for (design, factory) in all_cpu_designs() {
            let mut stream_err: Option<std::io::Error> = None;
            let paths = [
                PATH_SCALAR,
                PATH_BATCHED,
                PATH_STREAM_BATCHED,
                ws_path.as_str(),
            ];
            let timings = paths.map(|p| {
                time_reps(plan.warmup, plan.reps, || match p {
                    PATH_SCALAR => {
                        replay_scalar(factory(), &mut scenario.clone_page_table(), &events)
                    }
                    PATH_BATCHED => {
                        replay_batched(factory(), &mut scenario.clone_page_table(), &events)
                    }
                    PATH_STREAM_BATCHED => {
                        let mut pt = scenario.clone_page_table();
                        replay_stream_batched(factory(), &mut pt, &path)
                            .unwrap_or_else(|e| {
                                stream_err = Some(e);
                                f64::NAN
                            })
                    }
                    _ => replay_ws(factory, &ws_pt, &events, cores, WS_CHUNK_EVENTS),
                })
            });
            if let Some(e) = &stream_err {
                eprintln!("perfgate: streaming replay of {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            let [Some(scalar), Some(batched), Some(stream), Some(ws)] = timings else {
                eprintln!("perfgate: zero reps requested");
                return ExitCode::FAILURE;
            };
            let speedup = scalar.median_ns / batched.median_ns.max(1e-9);
            println!(
                "  {design:<12} scalar {:>8.2}  batched {:>8.2} ({speedup:.1}x)  \
                 stream {:>8.2}  {ws_path} {:>8.2}",
                scalar.median_ns, batched.median_ns, stream.median_ns, ws.median_ns
            );
            if best_speedup.as_ref().is_none_or(|(s, _, _)| speedup > *s) {
                best_speedup = Some((speedup, design.to_owned(), w.name.to_owned()));
            }
            for (p, t) in paths.into_iter().zip([scalar, batched, stream, ws]) {
                report
                    .records
                    .push(BenchRecord::new(design, w.name, p, accesses, t));
            }
        }
    }

    if let Some((s, design, wl)) = &best_speedup {
        println!("best batched/scalar speedup: {s:.1}x ({design} on {wl})");
    }
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("perfgate: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out} ({} records)", report.records.len());
    ExitCode::SUCCESS
}

fn load_report(path: &str) -> Option<BenchReport> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfgate: reading {path}: {e}");
            return None;
        }
    };
    let parsed = BenchReport::parse_json(&text);
    if parsed.is_none() {
        eprintln!("perfgate: {path} contains no benchmark records");
    }
    parsed
}

fn gate_cmd(args: &[String]) -> ExitCode {
    let (Some(prev_path), Some(curr_path)) =
        (flag_value(args, "--prev"), flag_value(args, "--curr"))
    else {
        return usage();
    };
    let tolerance: f64 = flag_value(args, "--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let (Some(prev), Some(curr)) = (load_report(&prev_path), load_report(&curr_path)) else {
        return ExitCode::FAILURE;
    };
    // --aggregate gates per-path geomeans instead of individual triples:
    // robust to the per-process layout noise of shared runners, still
    // trips when a whole path (a lost optimization, a broken probe loop)
    // regresses. CI uses this mode.
    let aggregate = has_flag(args, "--aggregate");
    let outcome = if aggregate {
        gate_aggregate(&prev, &curr, tolerance)
    } else {
        gate(&prev, &curr, tolerance)
    };
    println!(
        "gate: {} triples compared against {} (tolerance {:.0}%{})",
        outcome.compared,
        prev_path,
        tolerance * 100.0,
        if aggregate { ", per-path geomean" } else { "" }
    );
    if outcome.passed() {
        println!("gate: PASS");
        ExitCode::SUCCESS
    } else {
        if outcome.compared == 0 {
            eprintln!("gate: FAIL — no comparable triples between the two reports");
        }
        for f in &outcome.failures {
            eprintln!("gate: FAIL — {f}");
        }
        ExitCode::FAILURE
    }
}

/// Exercises the gate logic on synthetic reports — no measurement, so it
/// is deterministic and fast enough for every CI run: a report gated
/// against itself must pass, and a single design's 20% batched
/// degradation must trip the 10% gate.
fn self_test() -> ExitCode {
    let mk = |mix_batched_ns: f64| {
        let mut report = BenchReport {
            pr: 0,
            config: config_fingerprint(),
            corpus: Vec::new(),
            records: Vec::new(),
        };
        for wl in ["streamcluster", "gups"] {
            report
                .records
                .push(synthetic_record("split", wl, PATH_SCALAR, 100.0));
            report
                .records
                .push(synthetic_record("split", wl, PATH_BATCHED, 12.0));
            report
                .records
                .push(synthetic_record("mix", wl, PATH_SCALAR, 110.0));
            report
                .records
                .push(synthetic_record("mix", wl, PATH_BATCHED, mix_batched_ns));
        }
        report
    };

    let baseline = mk(10.0);

    let roundtrip = BenchReport::parse_json(&baseline.to_json());
    if roundtrip.as_ref() != Some(&baseline) {
        eprintln!("self-test: FAIL — JSON round-trip altered the report");
        return ExitCode::FAILURE;
    }

    let same = gate(&baseline, &baseline, 0.10);
    if !same.passed() {
        eprintln!(
            "self-test: FAIL — identical reports did not pass: {:?}",
            same.failures
        );
        return ExitCode::FAILURE;
    }

    // Degrade only mix/batched by 20% (10 ns -> 12.5 ns); must trip.
    let degraded = mk(12.5);
    let tripped = gate(&baseline, &degraded, 0.10);
    if tripped.passed() || tripped.failures.len() != 2 {
        eprintln!(
            "self-test: FAIL — 20% single-design regression not caught ({:?})",
            tripped.failures
        );
        return ExitCode::FAILURE;
    }

    // A uniformly 2x slower machine must NOT trip the normalized gate.
    let mut slower = baseline.clone();
    for r in &mut slower.records {
        r.median_ns *= 2.0;
        r.min_ns *= 2.0;
    }
    let scaled = gate(&baseline, &slower, 0.10);
    if !scaled.passed() {
        eprintln!(
            "self-test: FAIL — uniform machine slowdown tripped the gate: {:?}",
            scaled.failures
        );
        return ExitCode::FAILURE;
    }

    // The aggregate gate must absorb offsetting per-triple swings (layout
    // luck) yet trip when one whole path degrades across the board.
    let mut swung = baseline.clone();
    swung.records[1].median_ns *= 2.0; // split/streamcluster/batched slower
    swung.records[7].median_ns /= 2.0; // mix/gups/batched faster
    if !gate_aggregate(&baseline, &swung, 0.10).passed() {
        eprintln!("self-test: FAIL — offsetting swings tripped the aggregate gate");
        return ExitCode::FAILURE;
    }
    let mut path_broken = baseline.clone();
    for r in &mut path_broken.records {
        if r.path == PATH_BATCHED {
            r.median_ns *= 2.0;
        }
    }
    let agg = gate_aggregate(&baseline, &path_broken, 0.40);
    if agg.passed() || agg.failures.len() != 1 {
        eprintln!(
            "self-test: FAIL — whole-path regression not caught by the aggregate gate ({:?})",
            agg.failures
        );
        return ExitCode::FAILURE;
    }

    println!(
        "self-test: PASS (round-trip, self-gate, {}-triple regression catch, machine-speed \
         invariance, aggregate swing absorption + path-regression catch)",
        tripped.failures.len()
    );
    ExitCode::SUCCESS
}

fn synthetic_record(design: &str, workload: &str, path: &str, median_ns: f64) -> BenchRecord {
    BenchRecord {
        design: design.to_owned(),
        workload: workload.to_owned(),
        path: path.to_owned(),
        accesses: 150_000,
        median_ns,
        // A dyadic offset (exact in binary and at the 3 decimals the JSON
        // keeps), so the synthetic report survives a round-trip bit-exactly.
        min_ns: median_ns - 0.5,
    }
}
