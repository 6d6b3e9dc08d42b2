//! One workload run: set-up, the trace file, the measurement loop and
//! the output checks.
//!
//! An untraced run measures the end-to-end metrics; a traced run (a
//! separate process) measures the per-layer breakdown. Both repeat whole
//! reps — every design on every path, back to back, with the design order
//! rotated each rep so host phases hit every design alike — until the
//! time budget is spent. Throughputs report each design's fastest rep;
//! everything else reports medians over reps.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mixtlb_sim::designs::{all_cpu_designs, DesignFactory};
use mixtlb_trace::{TraceEvent, TraceFileV2};

use crate::layers::{self, DesignTrace};
use crate::metrics::{self, Summary, MTPS};
use crate::replay::{self, Digest, Replay, REFERENCE_DESIGN};
use crate::workload::{Setup, Workload};

/// Runs started by this process (names their trace files).
static RUNS: AtomicU64 = AtomicU64::new(0);

/// Reps an untraced run makes at least, whatever its time budget.
const MIN_REPS: usize = 3;

/// Set-up time sampled after each untraced rep (at least one set-up), so
/// `setup_s` samples the host across the whole run rather than in one
/// burst: cheap machines get dozens of samples per rep, the fragmented
/// 16 GB machine one.
const SETUP_PER_REP: Duration = Duration::from_millis(100);

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the machine's fragmentation and of the trace.
    pub seed: u64,
    /// Measurement budget in seconds: reps repeat while another rep fits.
    pub seconds: f64,
    /// A fixed rep count instead of the time budget.
    pub reps: Option<usize>,
    /// Trace events, instead of the workload's own count.
    pub events: Option<usize>,
    /// Measure the per-layer breakdown instead of end-to-end metrics.
    pub traced: bool,
    /// Flip a bit of the trace file before replaying it (robustness
    /// check: damage must surface as failed operations, never a panic).
    pub damage_trace: bool,
    /// Where the trace file is written (and removed again).
    pub work_dir: PathBuf,
}

impl RunConfig {
    /// The default run of `workload`: 20 s budget, the workload's own
    /// event count, untraced.
    pub fn new(workload: &'static Workload, seed: u64) -> RunConfig {
        RunConfig {
            workload,
            seed,
            seconds: 20.0,
            reps: None,
            events: None,
            traced: false,
            damage_trace: false,
            work_dir: default_work_dir(),
        }
    }
}

/// `$CARGO_TARGET_DIR/mixtlb-benchmark`, or `target/mixtlb-benchmark`
/// relative to the working directory.
pub fn default_work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("mixtlb-benchmark")
}

/// Host hardware threads, as `available_parallelism` reports them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Trace events per replay.
    pub events: usize,
    /// Reps measured.
    pub reps: usize,
    /// Host hardware threads.
    pub host_cores: usize,
    /// Operations (one design's replay on one path in one rep) attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Non-fatal observations (a negative median calibrated layer time).
    pub warnings: Vec<String>,
    /// The declared metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Summary>,
    /// Exact deterministic counts (engine counters, digests) of rep 0.
    pub counts: Vec<(String, String)>,
}

impl RunOutcome {
    /// Failed ÷ attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The run's stdout: a header, the exact counts, one line per metric
    /// (declared, then `error_rate`), and the result line last.
    pub fn lines(&self) -> Vec<String> {
        let w = self.workload;
        let mut out = vec![format!(
            "{{\"workload\":{},\"seed\":{},\"traced\":{},\"host_cores\":{},\"events\":{},\"reps\":{}}}",
            metrics::json_str(w),
            self.seed,
            self.traced,
            self.host_cores,
            self.events,
            self.reps
        )];
        out.extend(
            self.counts
                .iter()
                .map(|(name, value)| metrics::count_line(w, self.seed, name, value)),
        );
        let reported: Vec<Summary> = self
            .metrics
            .iter()
            .filter(|s| !s.samples.is_empty())
            .cloned()
            .collect();
        out.extend(
            reported
                .iter()
                .map(|s| metrics::metric_line(w, self.seed, s)),
        );
        let errors = Summary::new("error_rate", "fraction", vec![self.error_rate()]);
        out.push(metrics::metric_line(w, self.seed, &errors));
        out.push(metrics::result_line(self.attempted, self.failed, &reported));
        out
    }
}

/// Operation bookkeeping: every replay is one operation, failed when any
/// of its output checks fails.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn op(&mut self, label: impl FnOnce() -> String, errors: &[String]) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{}: {}", label(), errors.join("; ")));
        }
    }
}

/// Sets the workload up, writes its trace file, measures, checks, and
/// removes the trace file again.
///
/// # Errors
///
/// Propagates set-up and trace-file I/O failures (not damaged-trace
/// replays, which are counted as failed operations).
pub fn run_workload(cfg: &RunConfig) -> io::Result<RunOutcome> {
    let w = cfg.workload;
    let setup = w.prepare(cfg.seed)?;
    let events = setup.trace_events(cfg.events.unwrap_or(w.events));
    fs::create_dir_all(&cfg.work_dir)?;
    // Unique per run, also when several runs share a process.
    let run = RUNS.fetch_add(1, Ordering::SeqCst);
    let trace = cfg.work_dir.join(format!(
        "{}-seed{}-{}-{run}.mtc2",
        w.name,
        cfg.seed,
        std::process::id()
    ));
    TraceFileV2::record(&trace, events.iter().copied())?;
    let outcome = if cfg.damage_trace {
        damage(&trace).and_then(|()| measure(cfg, &setup, &events, &trace))
    } else {
        measure(cfg, &setup, &events, &trace)
    };
    let removed = fs::remove_file(&trace);
    let outcome = outcome?;
    removed?;
    Ok(outcome)
}

fn measure(
    cfg: &RunConfig,
    setup: &Setup,
    events: &[TraceEvent],
    trace: &Path,
) -> io::Result<RunOutcome> {
    if cfg.traced {
        measure_traced(cfg, setup, events, trace)
    } else {
        measure_untraced(cfg, setup, events, trace)
    }
}

/// Flips one bit in the middle of a file.
fn damage(path: &Path) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    let mid = bytes.len() / 2;
    if let Some(b) = bytes.get_mut(mid) {
        *b ^= 0x10;
    }
    fs::write(path, bytes)
}

/// Whether to stop after `reps` reps.
fn done(cfg: &RunConfig, reps: usize, min_reps: usize, start: Instant, last: Duration) -> bool {
    match cfg.reps {
        Some(r) => reps >= r,
        None => reps >= min_reps && start.elapsed() + last > Duration::from_secs_f64(cfg.seconds),
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// One design's two end-to-end replays in one rep.
struct DesignRep {
    stream: Result<Replay, String>,
    scalar: Replay,
}

impl DesignRep {
    /// Wall time of the stream and scalar replays, in ns.
    fn walls(&self) -> [Option<u64>; 2] {
        [
            self.stream.as_ref().ok().map(|s| s.wall_ns),
            Some(self.scalar.wall_ns),
        ]
    }
}

/// Million translations per second for `translations` over the summed
/// walls (ns), or `None` when any wall is missing.
fn throughput(translations: f64, walls: impl Iterator<Item = Option<u64>>) -> Option<f64> {
    let ns: u64 = walls.sum::<Option<u64>>()?;
    (ns > 0).then(|| translations * 1e3 / ns as f64)
}

fn measure_untraced(
    cfg: &RunConfig,
    setup: &Setup,
    events: &[TraceEvent],
    trace: &Path,
) -> io::Result<RunOutcome> {
    let designs = all_cpu_designs();
    let pt = &setup.page_table;
    let n = events.len() as u64;
    let translations = (events.len() * designs.len()) as f64;
    let mut ledger = Ledger::default();
    let mut mtps: [Vec<f64>; 2] = Default::default();
    // Fastest wall per design and path across reps, in ns.
    let mut best: Vec<[Option<u64>; 2]> = vec![[None; 2]; designs.len()];
    let mut first: Option<Vec<DesignRep>> = None;
    let mut setup_s = Vec::new();
    let mut peak_rss = None;
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let rep_start = Instant::now();
        let mut slots: Vec<Option<DesignRep>> = designs.iter().map(|_| None).collect();
        for k in 0..designs.len() {
            let d = (reps + k) % designs.len();
            let factory = designs[d].1;
            slots[d] = Some(DesignRep {
                stream: replay::stream(factory(), pt, trace, None)
                    .map_err(|e| format!("trace replay failed: {e}")),
                scalar: replay::scalar(factory(), pt, events),
            });
        }
        let rep: Vec<DesignRep> = slots.into_iter().flatten().collect();
        check_rep(&designs, &rep, first.as_deref(), n, reps, &mut ledger);
        let walls: Vec<[Option<u64>; 2]> = rep.iter().map(DesignRep::walls).collect();
        for (b, w) in best.iter_mut().zip(&walls) {
            for (b, w) in b.iter_mut().zip(w) {
                *b = match (*b, *w) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                };
            }
        }
        for (path, samples) in mtps.iter_mut().enumerate() {
            if let Some(mtps) = throughput(translations, walls.iter().map(|w| w[path])) {
                samples.push(mtps);
            }
        }
        first.get_or_insert(rep);
        reps += 1;
        // The peak is read before the first timed set-up, which builds a
        // second machine beside the live one and would set the peak itself.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
        let setup_start = Instant::now();
        while setup_start.elapsed() < SETUP_PER_REP {
            setup_s.push(cfg.workload.time_setup(cfg.seed)?);
        }
        if done(cfg, reps, MIN_REPS, start, rep_start.elapsed()) {
            break;
        }
    }
    // A throughput reports each design's fastest rep: host interference
    // only ever slows a replay, so the fastest of its reps is the least
    // perturbed measurement of what the design costs.
    let [replay_mtps, scalar_mtps] = mtps;
    let fastest = |path: usize| throughput(translations, best.iter().map(|b| b[path]));
    let with_fastest = |summary: Summary, path: usize| Summary {
        reported: fastest(path),
        ..summary
    };
    // In END_TO_END order.
    let metrics = vec![
        with_fastest(Summary::new("replay_mtps", MTPS, replay_mtps), 0),
        with_fastest(Summary::new("scalar_mtps", MTPS, scalar_mtps), 1),
        Summary::new("setup_s", "s", setup_s),
        Summary::new("peak_rss_mib", "MiB", peak_rss.into_iter().collect()),
    ];
    let counts = first.map_or_else(Vec::new, |rep| exact_counts(&designs, &rep));
    Ok(RunOutcome {
        workload: cfg.workload.name,
        seed: cfg.seed,
        traced: false,
        events: events.len(),
        reps,
        host_cores: host_cores(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        warnings: Vec::new(),
        metrics,
        counts,
    })
}

/// The output checks of one untraced rep. Every design must translate
/// exactly like the reference design on both paths, conserve its
/// counters, agree between stream and scalar (stall cycles excepted where
/// allowed), and repeat rep 0 exactly.
fn check_rep(
    designs: &[(&'static str, DesignFactory)],
    rep: &[DesignRep],
    first: Option<&[DesignRep]>,
    n: u64,
    r: usize,
    ledger: &mut Ledger,
) {
    let reference = designs
        .iter()
        .position(|(name, _)| *name == REFERENCE_DESIGN)
        .and_then(|i| rep.get(i));
    let ref_digest: Option<Digest> = reference.map(|d| d.scalar.digest);
    for (i, ((name, _), dr)) in designs.iter().zip(rep).enumerate() {
        let earlier = first.and_then(|f| f.get(i));
        let digest_error = |digest: Digest| match ref_digest {
            Some(d) if d == digest => None,
            Some(_) => Some(format!("PA digest differs from {REFERENCE_DESIGN}'s")),
            None => Some(format!("no {REFERENCE_DESIGN} replay to check against")),
        };

        let mut errors = Vec::new();
        match &dr.stream {
            Err(e) => errors.push(e.clone()),
            Ok(s) => {
                errors.extend(replay::conservation_error(&s.stats, n));
                errors.extend(digest_error(s.digest));
                if !replay::same_engine_stats(name, &s.stats, &dr.scalar.stats) {
                    errors.push("engine stats differ from the scalar path's".to_owned());
                }
                if let Some(Ok(e)) = earlier.map(|e| &e.stream) {
                    if e.digest != s.digest || e.stats != s.stats {
                        errors.push("differs from rep 0".to_owned());
                    }
                }
            }
        }
        ledger.op(|| format!("{name}/stream/rep{r}"), &errors);

        let s = &dr.scalar;
        let mut errors: Vec<String> = replay::conservation_error(&s.stats, n)
            .into_iter()
            .collect();
        errors.extend(digest_error(s.digest));
        if let Some(e) = earlier {
            if e.scalar.digest != s.digest || e.scalar.stats != s.stats {
                errors.push("differs from rep 0".to_owned());
            }
        }
        ledger.op(|| format!("{name}/scalar/rep{r}"), &errors);
    }
}

/// Deterministic counters of rep 0, by design.
fn exact_counts(
    designs: &[(&'static str, DesignFactory)],
    rep: &[DesignRep],
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for ((name, _), dr) in designs.iter().zip(rep) {
        let mut push = |what: &str, value: String| out.push((format!("{name}.{what}"), value));
        if let Ok(s) = &dr.stream {
            let st = &s.stats;
            push("digest", s.digest.hex());
            push("l1_hits", st.l1_hits.to_string());
            push("l2_hits", st.l2_hits.to_string());
            push("walks", st.walks.to_string());
            push("dirty_microops", st.dirty_microops.to_string());
            push("walk_reads", st.walk_traffic.total_reads().to_string());
            push("pte_writes", st.walk_traffic.pte_writes.to_string());
            push("stream_stall_cycles", st.stall_cycles.to_string());
        }
        push(
            "scalar_stall_cycles",
            dr.scalar.stats.stall_cycles.to_string(),
        );
    }
    out
}

fn measure_traced(
    cfg: &RunConfig,
    setup: &Setup,
    events: &[TraceEvent],
    trace: &Path,
) -> io::Result<RunOutcome> {
    let designs = all_cpu_designs();
    let cores = host_cores();
    let pt = &setup.page_table;
    let n = events.len() as u64;
    let trace_bytes = fs::metadata(trace)?.len();
    let names = metrics::per_layer_names();
    let mut samples: Vec<Vec<f64>> = names.iter().map(|_| Vec::new()).collect();
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let rep_start = Instant::now();
        let cost = layers::calibrate();
        let mut slots: Vec<Option<DesignTrace>> = designs.iter().map(|_| None).collect();
        for k in 0..designs.len() {
            let d = (reps + k) % designs.len();
            let (name, factory) = designs[d];
            match layers::trace_design(name, factory, pt, trace, events, cores) {
                Ok(t) => slots[d] = Some(t),
                Err(e) => {
                    let errors = [format!("trace replay failed: {e}")];
                    ledger.op(|| format!("{name}/traced/rep{reps}"), &errors);
                    ledger.op(|| format!("{name}/parallel/rep{reps}"), &errors);
                }
            }
        }
        let traces: Vec<DesignTrace> = slots.into_iter().flatten().collect();
        let ref_digest = traces
            .iter()
            .find(|t| t.design == REFERENCE_DESIGN)
            .map(|t| t.reference.digest);
        for t in &traces {
            let mut errors = t.faithfulness_errors();
            errors.extend(replay::conservation_error(&t.reference.stats, n));
            if ref_digest != Some(t.reference.digest) {
                errors.push(format!("PA digest differs from {REFERENCE_DESIGN}'s"));
            }
            ledger.op(|| format!("{}/traced/rep{reps}", t.design), &errors);
            let errors: Vec<String> = replay::parallel_error(&t.parallel.report, n)
                .into_iter()
                .collect();
            ledger.op(|| format!("{}/parallel/rep{reps}", t.design), &errors);
        }
        if traces.len() == designs.len() {
            let values = layers::layer_values(&traces, cost, trace_bytes, events.len());
            for (s, v) in samples.iter_mut().zip(values) {
                s.push(v);
            }
        }
        reps += 1;
        if done(cfg, reps, 1, start, rep_start.elapsed()) {
            break;
        }
    }
    let metrics: Vec<Summary> = names
        .into_iter()
        .zip(samples)
        .map(|((name, unit), s)| Summary::new(name, unit, s))
        .collect();
    // Calibration is an estimate; a layer time whose median comes out
    // negative means it over-corrected, and the breakdown says so.
    let warnings = metrics
        .iter()
        .filter(|s| s.unit == metrics::NS && !s.samples.is_empty() && s.value() < 0.0)
        .map(|s| format!("negative calibrated layer time: {} = {}", s.name, s.value()))
        .collect();
    Ok(RunOutcome {
        workload: cfg.workload.name,
        seed: cfg.seed,
        traced: true,
        events: events.len(),
        reps,
        host_cores: cores,
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        warnings,
        metrics,
        counts: Vec::new(),
    })
}
