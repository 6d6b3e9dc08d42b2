//! The bounded interleaving explorer (a "mini-loom").
//!
//! [`explore`] runs a multi-threaded scenario under every thread
//! interleaving up to a preemption bound, using stateless re-execution:
//! each schedule spawns fresh OS threads whose instrumented synchronization
//! operations ([`crate::sync::instrumented`]) park at *schedule points*; a
//! controller grants exactly one thread the right to run between points, so
//! an execution is fully determined by the sequence of grant decisions. A
//! depth-first search over those decisions enumerates the interleavings.
//!
//! # What it checks
//!
//! * **Assertions** in scenario code (stale-translation probes, counter
//!   sums, [`mixtlb_core::MixTlb::check_invariants`] calls, …): a panic in
//!   any managed thread fails the schedule and the failing decision trace
//!   is reported.
//! * **Deadlocks**: a state where every live thread is parked at a disabled
//!   operation (a held lock, an unset event) is reported with the parked
//!   ops.
//! * **Lock-order inversions**: each execution accumulates held-lock →
//!   acquired-lock edges; a cycle in that graph is reported even when no
//!   explored schedule happened to realize the deadlock.
//! * **Livelocks**: executions exceeding [`Config::max_steps`] schedule
//!   points fail with [`FailureKind::StepLimit`].
//!
//! # Memory model
//!
//! Execution is serialized at synchronization-operation granularity, so the
//! explorer checks *logic* races (check-then-act windows, missing
//! acknowledgement edges, partial invalidation sweeps) under sequential
//! consistency. It does **not** model weak-memory reorderings, which is
//! why every `Ordering::Relaxed` site carries a written `// Relaxed: …`
//! justification.

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once, PoisonError};

/// Bounds on one exploration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum number of *preemptions* per schedule (context switches away
    /// from a thread that could have kept running). `None` explores every
    /// interleaving. Iyer/Musuvathi-style bounding: most concurrency bugs
    /// manifest within 2 preemptions.
    pub preemption_bound: Option<u32>,
    /// Hard cap on explored schedules (time-boxing for CI).
    pub max_schedules: u64,
    /// Per-schedule step cap; exceeding it is reported as a livelock.
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: Some(3),
            max_schedules: 100_000,
            max_steps: 2_000,
        }
    }
}

impl Config {
    /// A configuration with the given preemption bound.
    pub fn with_preemption_bound(bound: u32) -> Config {
        Config {
            preemption_bound: Some(bound),
            ..Config::default()
        }
    }

    /// Exhaustive exploration (no preemption bound).
    pub fn exhaustive() -> Config {
        Config {
            preemption_bound: None,
            ..Config::default()
        }
    }

    /// Caps the number of schedules (time-boxing).
    pub fn max_schedules(mut self, n: u64) -> Config {
        self.max_schedules = n;
        self
    }
}

/// Why a schedule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A managed thread (or the [`Sim::finally`] validator) panicked.
    Assertion,
    /// Every live thread was parked at a disabled operation.
    Deadlock,
    /// The union of held-lock → acquired-lock edges of an execution
    /// contains a cycle.
    LockOrderInversion,
    /// The schedule exceeded [`Config::max_steps`] points (livelock).
    StepLimit,
}

/// A failing schedule, with the decision trace that reproduces it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Classification.
    pub kind: FailureKind,
    /// Human-readable description (panic message, deadlock state, …).
    pub message: String,
    /// The granted `(step, thread name, operation)` decisions of the
    /// failing schedule.
    pub trace: Vec<String>,
}

/// The outcome of one exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules executed.
    pub schedules: u64,
    /// `true` when the search space up to the preemption bound was
    /// exhausted (i.e. the run was not truncated by
    /// [`Config::max_schedules`]).
    pub complete: bool,
    /// The first failing schedule, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics with a readable account if the exploration found a failure.
    ///
    /// # Panics
    ///
    /// Panics when `self.failure` is some — that is the point.
    #[expect(clippy::panic, reason = "test-harness API, panicking is the contract")]
    pub fn assert_clean(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model checking failed after {} schedule(s): {:?}: {}\nschedule:\n  {}",
                self.schedules,
                f.kind,
                f.message,
                f.trace.join("\n  ")
            );
        }
    }
}

/// One scenario instance: the set of threads (and an optional final
/// validator) to run under one schedule. The scenario factory passed to
/// [`explore`] is invoked afresh for every schedule, so shared state
/// created inside it cannot leak between schedules.
#[derive(Default)]
pub struct Sim {
    threads: Vec<(String, Box<dyn FnOnce() + Send>)>,
    finale: Option<Box<dyn FnOnce() + Send>>,
}

impl Sim {
    /// Registers a managed thread.
    pub fn thread(&mut self, name: &str, f: impl FnOnce() + Send + 'static) {
        self.threads.push((name.to_owned(), Box::new(f)));
    }

    /// Registers a validator that runs on the controller thread after every
    /// managed thread finished (e.g. aggregate-statistics invariants).
    pub fn finally(&mut self, f: impl FnOnce() + Send + 'static) {
        self.finale = Some(Box::new(f));
    }
}

/// A schedule point declared by an instrumented operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The thread is about to run its first instruction.
    Start,
    /// About to acquire the mutex with this object id.
    Lock(u64),
    /// An atomic load.
    AtomicLoad(u64),
    /// An atomic store.
    AtomicStore(u64),
    /// An atomic read-modify-write.
    AtomicRmw(u64),
    /// Blocking wait until the event is set.
    EventWait(u64),
    /// Setting an event.
    EventSet(u64),
    /// Non-blocking poll of an event.
    EventPoll(u64),
}

impl Op {
    fn enabled(self, st: &CtlState) -> bool {
        match self {
            Op::Lock(id) => !st.held.contains_key(&id),
            Op::EventWait(id) => st.events.contains(&id),
            _ => true,
        }
    }
}

#[derive(Debug, Clone)]
enum TStatus {
    /// Executing between schedule points (or not yet at its Start point).
    Running,
    /// Parked at a schedule point, waiting for a grant.
    Parked(Op),
    Finished,
    Panicked(String),
}

struct CtlState {
    status: Vec<TStatus>,
    names: Vec<String>,
    grant: Option<usize>,
    abort: bool,
    /// mutex object id -> owning tid.
    held: HashMap<u64, usize>,
    /// Per-thread stack of held mutex ids (for lock-order edges).
    held_stack: Vec<Vec<u64>>,
    /// Set events.
    events: HashSet<u64>,
    /// Granted decisions of this execution.
    trace: Vec<(usize, Op)>,
    /// held-lock -> acquired-lock edges observed this execution.
    lock_edges: HashSet<(u64, u64)>,
}

pub(crate) struct Controller {
    state: StdMutex<CtlState>,
    cv: Condvar,
}

fn relock(e: PoisonError<StdMutexGuard<'_, CtlState>>) -> StdMutexGuard<'_, CtlState> {
    // A managed thread panicked while holding the controller lock is
    // impossible (no panicking code runs under it), but recover anyway.
    e.into_inner()
}

impl Controller {
    fn new(names: Vec<String>) -> Controller {
        let n = names.len();
        Controller {
            state: StdMutex::new(CtlState {
                status: vec![TStatus::Running; n],
                names,
                grant: None,
                abort: false,
                held: HashMap::new(),
                held_stack: vec![Vec::new(); n],
                events: HashSet::new(),
                trace: Vec::new(),
                lock_edges: HashSet::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Parks the calling managed thread at a schedule point and blocks
    /// until the controller grants it the right to perform `op`.
    pub(crate) fn reach_point(&self, tid: usize, op: Op) {
        let mut st = self.state.lock().unwrap_or_else(relock);
        if st.abort {
            return; // free-running teardown
        }
        st.status[tid] = TStatus::Parked(op);
        self.cv.notify_all();
        loop {
            if st.abort {
                st.status[tid] = TStatus::Running;
                if matches!(op, Op::Lock(_)) {
                    // Taking the real lock during teardown could deadlock
                    // for real (that may be exactly the bug under test);
                    // unwind this thread instead.
                    drop(st);
                    #[expect(
                        clippy::panic,
                        reason = "unwinding is how a managed thread leaves a torn-down run; the explorer catches AbortRun"
                    )]
                    panic::panic_any(AbortRun);
                }
                return;
            }
            if st.grant == Some(tid) {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(relock);
        }
        st.grant = None;
        st.status[tid] = TStatus::Running;
        st.trace.push((tid, op));
        if let Op::EventSet(id) = op {
            st.events.insert(id);
        }
    }

    /// Records a completed mutex acquisition (lock-order bookkeeping).
    pub(crate) fn acquired(&self, tid: usize, id: u64) {
        let mut st = self.state.lock().unwrap_or_else(relock);
        let edges: Vec<(u64, u64)> =
            st.held_stack[tid].iter().map(|&h| (h, id)).collect();
        st.lock_edges.extend(edges);
        st.held.insert(id, tid);
        st.held_stack[tid].push(id);
    }

    /// Records a mutex release; may enable parked threads.
    pub(crate) fn released(&self, tid: usize, id: u64) {
        let mut st = self.state.lock().unwrap_or_else(relock);
        st.held.remove(&id);
        st.held_stack[tid].retain(|&h| h != id);
        self.cv.notify_all();
    }

    fn finish(&self, tid: usize, outcome: Result<(), String>) {
        let mut st = self.state.lock().unwrap_or_else(relock);
        st.status[tid] = match outcome {
            Ok(()) => TStatus::Finished,
            Err(msg) => TStatus::Panicked(msg),
        };
        self.cv.notify_all();
    }

    fn describe(&self, st: &CtlState) -> Vec<String> {
        st.trace
            .iter()
            .enumerate()
            .map(|(i, (tid, op))| format!("{i:3}: {} {:?}", st.names[*tid], op))
            .collect()
    }
}

/// Sentinel panic payload used to unwind parked threads during teardown.
struct AbortRun;

thread_local! {
    static CURRENT: std::cell::RefCell<Option<ThreadCtx>> =
        const { std::cell::RefCell::new(None) };
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// Handle every instrumented operation uses to reach its schedule point.
#[derive(Clone)]
pub(crate) struct ThreadCtx {
    pub(crate) ctl: Arc<Controller>,
    pub(crate) tid: usize,
}

/// The calling thread's managed context, if it runs under an explorer.
pub(crate) fn current() -> Option<ThreadCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Exploration of failing scenarios catches panics in managed threads; the
/// default panic hook would spam stderr with one backtrace per explored
/// failing schedule. Install (once, chained) a hook that stays silent for
/// managed threads.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// One decision of an execution, for the DFS over schedules.
#[derive(Debug, Clone)]
struct StepRecord {
    /// Enabled tids at this point: the previously running one first (if
    /// enabled), then the rest ascending, so every other thread is an
    /// alternative *after* the default choice.
    enabled: Vec<usize>,
    /// Index into `enabled` that was granted.
    chosen: usize,
    /// Previously running tid (granted at the prior step), if any.
    prev: Option<usize>,
    /// Preemptions accumulated *after* this decision.
    preemptions: u32,
}

fn is_preemption(prev: Option<usize>, chosen: usize, enabled: &[usize]) -> bool {
    match prev {
        Some(p) => p != chosen && enabled.contains(&p),
        None => false,
    }
}

struct RunOutcome {
    decisions: Vec<StepRecord>,
    failure: Option<Failure>,
    /// The executed decision trace, kept even on success so a failing
    /// *final validator* can still report the schedule that led to it.
    trace: Vec<String>,
}

fn run_once(cfg: &Config, sim: Sim, prefix: &[usize]) -> RunOutcome {
    let names: Vec<String> = sim.threads.iter().map(|(n, _)| n.clone()).collect();
    let ctl = Arc::new(Controller::new(names));
    let mut handles = Vec::new();
    for (tid, (_, body)) in sim.threads.into_iter().enumerate() {
        let ctl2 = Arc::clone(&ctl);
        handles.push(std::thread::spawn(move || {
            CURRENT.with(|c| {
                *c.borrow_mut() = Some(ThreadCtx {
                    ctl: Arc::clone(&ctl2),
                    tid,
                })
            });
            SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
            ctl2.reach_point(tid, Op::Start);
            let result = panic::catch_unwind(AssertUnwindSafe(body));
            let outcome = match result {
                Ok(()) => Ok(()),
                Err(p) if p.is::<AbortRun>() => Ok(()), // teardown unwind
                Err(p) => Err(payload_message(p.as_ref())),
            };
            ctl2.finish(tid, outcome);
        }));
    }

    let mut decisions: Vec<StepRecord> = Vec::new();
    let mut failure: Option<Failure> = None;
    let mut prev: Option<usize> = None;
    let mut preemptions: u32 = 0;
    {
        let mut st = ctl.state.lock().unwrap_or_else(relock);
        'steps: loop {
            // Wait until nothing is running and no grant is outstanding.
            while st.grant.is_some()
                || st.status.iter().any(|s| matches!(s, TStatus::Running))
            {
                st = ctl.cv.wait(st).unwrap_or_else(relock);
            }
            // A panic anywhere fails the schedule.
            for (tid, s) in st.status.iter().enumerate() {
                if let TStatus::Panicked(msg) = s {
                    failure = Some(Failure {
                        kind: FailureKind::Assertion,
                        message: format!("thread '{}' panicked: {msg}", st.names[tid]),
                        trace: ctl.describe(&st),
                    });
                    break 'steps;
                }
            }
            if st
                .status
                .iter()
                .all(|s| matches!(s, TStatus::Finished))
            {
                break 'steps; // schedule complete
            }
            let mut enabled: Vec<usize> = st
                .status
                .iter()
                .enumerate()
                .filter_map(|(tid, s)| match s {
                    TStatus::Parked(op) if op.enabled(&st) => Some(tid),
                    _ => None,
                })
                .collect();
            if enabled.is_empty() {
                let parked: Vec<String> = st
                    .status
                    .iter()
                    .enumerate()
                    .filter_map(|(tid, s)| match s {
                        TStatus::Parked(op) => {
                            Some(format!("{} blocked at {op:?}", st.names[tid]))
                        }
                        _ => None,
                    })
                    .collect();
                failure = Some(Failure {
                    kind: FailureKind::Deadlock,
                    message: format!("deadlock: {}", parked.join("; ")),
                    trace: ctl.describe(&st),
                });
                break 'steps;
            }
            if decisions.len() >= cfg.max_steps {
                failure = Some(Failure {
                    kind: FailureKind::StepLimit,
                    message: format!(
                        "schedule exceeded {} points (possible livelock)",
                        cfg.max_steps
                    ),
                    trace: ctl.describe(&st),
                });
                break 'steps;
            }
            if let Some(at) = prev.and_then(|p| enabled.iter().position(|&t| t == p)) {
                enabled[..=at].rotate_right(1);
            }
            // Choose: replay the prefix, then default to run-to-completion
            // (index 0 keeps the previous thread going — zero preemptions).
            let step = decisions.len();
            let chosen = match prefix.get(step) {
                // The replayed enabled sets are identical (deterministic
                // scenarios), so the recorded index stays valid; clamp
                // defensively anyway.
                Some(&idx) => idx.min(enabled.len() - 1),
                None => 0,
            };
            let tid = enabled[chosen];
            if is_preemption(prev, tid, &enabled) {
                preemptions += 1;
            }
            decisions.push(StepRecord {
                enabled: enabled.clone(),
                chosen,
                prev,
                preemptions,
            });
            prev = Some(tid);
            st.grant = Some(tid);
            ctl.cv.notify_all();
        }
        if failure.is_some() {
            st.abort = true;
            ctl.cv.notify_all();
        }
    }
    for h in handles {
        let _ = h.join();
    }
    // Lock-order cycle detection over this execution's edges, plus the
    // final decision trace (kept for finale-validator failures).
    let trace = {
        let st = ctl.state.lock().unwrap_or_else(relock);
        if failure.is_none() {
            if let Some(cycle) = find_cycle(&st.lock_edges) {
                failure = Some(Failure {
                    kind: FailureKind::LockOrderInversion,
                    message: format!(
                        "lock-order inversion: acquisition cycle through mutex ids {cycle:?}"
                    ),
                    trace: ctl.describe(&st),
                });
            }
        }
        ctl.describe(&st)
    };
    RunOutcome {
        decisions,
        failure,
        trace,
    }
}

/// Detects a cycle in the held→acquired edge set of observed mutex
/// object ids; returns its nodes.
fn find_cycle(edges: &HashSet<(u64, u64)>) -> Option<Vec<u64>> {
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default();
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut mark: HashMap<u64, u8> = adj.keys().map(|&k| (k, 0u8)).collect();
    let mut order: Vec<u64> = adj.keys().copied().collect();
    order.sort_unstable();
    for start in order {
        if mark.get(&start).copied() != Some(0) {
            continue;
        }
        // Iterative DFS with an explicit stack of (node, next-child index).
        let mut stack: Vec<(u64, usize)> = vec![(start, 0)];
        mark.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *next < children.len() {
                let child = children[*next];
                *next += 1;
                match mark.get(&child).copied() {
                    Some(1) => {
                        let mut cycle: Vec<u64> =
                            stack.iter().map(|&(n, _)| n).collect();
                        cycle.push(child);
                        return Some(cycle);
                    }
                    Some(0) => {
                        mark.insert(child, 1);
                        stack.push((child, 0));
                    }
                    _ => {}
                }
            } else {
                mark.insert(node, 2);
                stack.pop();
            }
        }
    }
    None
}

/// Computes the next DFS prefix: the deepest decision with an untried,
/// preemption-admissible alternative.
fn next_prefix(decisions: &[StepRecord], bound: Option<u32>) -> Option<Vec<usize>> {
    for k in (0..decisions.len()).rev() {
        let rec = &decisions[k];
        let before = if k == 0 { 0 } else { decisions[k - 1].preemptions };
        for alt in rec.chosen + 1..rec.enabled.len() {
            let delta =
                u32::from(is_preemption(rec.prev, rec.enabled[alt], &rec.enabled));
            if bound.is_none_or(|b| before + delta <= b) {
                let mut prefix: Vec<usize> =
                    decisions[..k].iter().map(|r| r.chosen).collect();
                prefix.push(alt);
                return Some(prefix);
            }
        }
    }
    None
}

/// Explores every interleaving of the scenario up to the configured
/// preemption bound. The `scenario` factory is called once per schedule and
/// must register its threads (and shared state) on the given [`Sim`];
/// executions must be deterministic given the schedule (no wall-clock, no
/// uncontrolled randomness).
pub fn explore(cfg: &Config, scenario: impl Fn(&mut Sim)) -> Report {
    install_quiet_hook();
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules: u64 = 0;
    loop {
        let mut sim = Sim::default();
        scenario(&mut sim);
        let finale = sim.finale.take();
        let outcome = run_once(cfg, sim, &prefix);
        schedules += 1;
        let mut failure = outcome.failure;
        if failure.is_none() {
            if let Some(f) = finale {
                let trace = outcome.trace;
                let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
                    f();
                    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
                }));
                SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
                if let Err(p) = caught {
                    failure = Some(Failure {
                        kind: FailureKind::Assertion,
                        message: format!(
                            "final validator panicked: {}",
                            payload_message(p.as_ref())
                        ),
                        trace,
                    });
                }
            }
        }
        if let Some(f) = failure {
            return Report {
                schedules,
                complete: false,
                failure: Some(f),
            };
        }
        if schedules >= cfg.max_schedules {
            return Report {
                schedules,
                complete: false,
                failure: None,
            };
        }
        match next_prefix(&outcome.decisions, cfg.preemption_bound) {
            Some(p) => prefix = p,
            None => {
                return Report {
                    schedules,
                    complete: true,
                    failure: None,
                }
            }
        }
    }
}

/// Monotonic object-id source for instrumented primitives.
pub(crate) fn next_object_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    // Relaxed: pure unique-id counter; only
    // atomicity matters, no ordering with any other memory access.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::instrumented::AtomicU64;

    /// Two threads of four schedule points each (`Start` plus three
    /// atomic loads) interleave in C(8, 4) = 70 ways; an exhaustive
    /// search must run each exactly once. Under a bound of 0 each thread
    /// runs to completion (2 orders); a bound of 1 adds, per order, one
    /// switch after the first thread's 1st, 2nd or 3rd point (2 × 4 = 8).
    #[test]
    fn search_runs_every_interleaving_within_the_bound() {
        for (cfg, expect) in [
            (Config::exhaustive(), 70),
            (Config::with_preemption_bound(0), 2),
            (Config::with_preemption_bound(1), 8),
        ] {
            let report = explore(&cfg, |sim| {
                let cell = Arc::new(AtomicU64::new(0));
                for name in ["a", "b"] {
                    let cell = Arc::clone(&cell);
                    sim.thread(name, move || {
                        for _ in 0..3 {
                            cell.load(Ordering::SeqCst);
                        }
                    });
                }
            });
            report.assert_clean();
            assert!(report.complete);
            assert_eq!(report.schedules, expect, "{:?}", cfg.preemption_bound);
        }
    }
}
