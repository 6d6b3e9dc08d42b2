//! Work-stealing many-core trace replay.
//!
//! The [`crate::SmpMachine`] replay gives every core its own infinite
//! generator, so load balance is trivial and static. Real many-core
//! replay over a *finite* recorded trace is lumpier: chunks differ in
//! locality, walk depth, and shootdown pressure, so a static split leaves
//! cores idle at the tail. This module replays a finite event stream
//! through one [`mixtlb_sim::TranslationEngine`] per core, with the
//! chunks distributed through per-core [`ChunkDeque`]s: each core drains
//! its own deque LIFO and, when empty, steals the oldest chunk from the
//! next non-empty victim.
//!
//! # Determinism under stealing
//!
//! Which core executes which chunk is scheduling-dependent, so per-core
//! statistics of a free-running parallel replay are not reproducible run
//! to run. What *is* reproducible is the mapping from a **steal
//! schedule** — the per-core chunk execution order the parallel run
//! records — to statistics: every per-core counter is a pure function of
//! the ordered chunk list that core executed, because workers share no
//! mutable simulation state (each owns its TLBs, caches, and page-table
//! clone). [`replay_scheduled`] replays a recorded [`StealSchedule`]
//! serially and must reproduce the parallel run's per-core
//! [`mixtlb_sim::EngineStats`] and TLB statistics bit for bit — pinned by
//! `tests/ws_determinism.rs`.

use std::time::{Duration, Instant};

use mixtlb_core::TlbStats;
use mixtlb_pagetable::PageTable;
use mixtlb_sim::{EngineStats, TlbHierarchy, TranslationEngine, WalkBackend};
use mixtlb_trace::TraceEvent;
use mixtlb_types::{Asid, PhysAddr};

use crate::deque::{claim, run_workers, seed_round_robin, ChunkDeque};

/// Shape of a work-stealing replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WsConfig {
    /// Worker cores (one OS thread each in [`replay_parallel`]).
    pub cores: usize,
    /// Events per chunk (the unit of stealing and of batched
    /// translation).
    pub chunk_events: usize,
}

impl WsConfig {
    /// A configuration; panics on a degenerate shape.
    pub fn new(cores: usize, chunk_events: usize) -> WsConfig {
        assert!(cores > 0, "need at least one core");
        assert!(chunk_events > 0, "need at least one event per chunk");
        WsConfig {
            cores,
            chunk_events,
        }
    }

    /// Round-robin home of a chunk: the deque it is seeded into.
    fn owner_of(&self, chunk: u64) -> usize {
        (chunk as usize) % self.cores
    }
}

/// The per-core chunk execution order of one parallel replay — enough to
/// reproduce its per-core statistics exactly (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealSchedule {
    /// `per_core[i]` = chunk ids core `i` executed, in execution order.
    pub per_core: Vec<Vec<u64>>,
}

/// One core's slice of a [`WsReport`].
#[derive(Debug, Clone)]
pub struct WsCoreReport {
    /// Core index.
    pub core: usize,
    /// The ASID the core's engine ran under.
    pub asid: Asid,
    /// Chunk ids executed, in order (own pops and steals interleaved).
    pub chunks: Vec<u64>,
    /// How many of those chunks were stolen from another core's deque.
    pub chunks_stolen: u64,
    /// The engine's replay counters.
    pub engine: EngineStats,
    /// L1 TLB statistics.
    pub l1: TlbStats,
    /// L2 TLB statistics, if the design has an L2.
    pub l2: Option<TlbStats>,
}

/// The result of one work-stealing replay.
#[derive(Debug, Clone)]
pub struct WsReport {
    /// Per-core reports, indexed by core id.
    pub cores: Vec<WsCoreReport>,
    /// Total events in the replayed stream.
    pub events: u64,
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
}

impl WsReport {
    /// The steal schedule this run followed — feed it to
    /// [`replay_scheduled`] to reproduce the per-core statistics.
    pub fn schedule(&self) -> StealSchedule {
        StealSchedule {
            per_core: self.cores.iter().map(|c| c.chunks.clone()).collect(),
        }
    }

    /// Total chunks executed off another core's deque.
    pub fn total_steals(&self) -> u64 {
        self.cores.iter().map(|c| c.chunks_stolen).sum()
    }

    /// Aggregate replay throughput in million events per second.
    pub fn throughput_meps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.events as f64 / secs / 1.0e6
    }
}

/// How a worker obtains its chunks: live from the deques, or a fixed
/// recorded order.
enum Work<'a> {
    Stealing(&'a [ChunkDeque]),
    Fixed(&'a [u64]),
}

/// The per-thread replay loop. A named type so the steal loop is a
/// registered hot root for `mixtlb-check`'s hot-path analysis: nothing in
/// [`WsWorker::run`] may allocate or format.
struct WsWorker<'e> {
    id: usize,
    cfg: WsConfig,
    engine: TranslationEngine<'e>,
    events: &'e [TraceEvent],
    /// Reused per-chunk output buffer (cleared, never reallocated).
    out: Vec<Option<PhysAddr>>,
    /// Chunks executed, in order. Pre-sized for every chunk of the run.
    executed: Vec<u64>,
    stolen: u64,
}

impl WsWorker<'_> {
    /// The steal loop: drain the own deque, then rob victims in a fixed
    /// ring order. Termination is stable because owners never push once
    /// workers run — an empty deque stays empty.
    fn run(&mut self, deques: &[ChunkDeque]) {
        while let Some((chunk, _)) = claim(deques, self.id) {
            self.execute(chunk);
        }
    }

    /// Replays a recorded chunk order (the serial determinism driver).
    fn run_fixed(&mut self, chunks: &[u64]) {
        for &chunk in chunks {
            self.execute(chunk);
        }
    }

    fn execute(&mut self, chunk: u64) {
        if self.cfg.owner_of(chunk) != self.id {
            self.stolen += 1;
        }
        self.executed.push(chunk);
        let start = chunk as usize * self.cfg.chunk_events;
        let end = (start + self.cfg.chunk_events).min(self.events.len());
        self.out.clear();
        self.engine
            .translate_batch(&self.events[start..end], &mut self.out);
    }
}

/// Builds one worker around its private engine, runs it to completion,
/// and snapshots its report. `pt` is the worker's own page-table clone;
/// nothing here is shared, so per-core statistics depend only on the
/// chunk order.
fn run_core(
    id: usize,
    events: &[TraceEvent],
    cfg: WsConfig,
    mut pt: PageTable,
    factory: fn() -> TlbHierarchy,
    work: Work<'_>,
) -> WsCoreReport {
    let asid = Asid::for_index(id);
    let mut engine = TranslationEngine::new(factory(), WalkBackend::Native(&mut pt));
    engine.set_asid(asid);
    let chunk_count = events.len().div_ceil(cfg.chunk_events);
    let mut worker = WsWorker {
        id,
        cfg,
        engine,
        events,
        out: Vec::with_capacity(cfg.chunk_events),
        executed: Vec::with_capacity(chunk_count),
        stolen: 0,
    };
    match work {
        Work::Stealing(deques) => worker.run(deques),
        Work::Fixed(chunks) => worker.run_fixed(chunks),
    }
    let (l1, l2) = worker.engine.hierarchy().stats();
    WsCoreReport {
        core: id,
        asid,
        chunks: worker.executed,
        chunks_stolen: worker.stolen,
        engine: worker.engine.stats(),
        l1,
        l2,
    }
}

/// Replays `events` across `cfg.cores` worker threads with work
/// stealing: chunk `c` is seeded into deque `c % cores` (pushed in
/// reverse, so each owner pops its range in ascending order while
/// thieves steal from the range's tail). Each worker owns a clone of
/// `pt` and a fresh `factory()` hierarchy.
pub fn replay_parallel(
    events: &[TraceEvent],
    pt: &PageTable,
    factory: fn() -> TlbHierarchy,
    cfg: &WsConfig,
) -> WsReport {
    let cfg = *cfg;
    let start = Instant::now();
    let chunk_count = events.len().div_ceil(cfg.chunk_events);
    let deques = seed_round_robin(cfg.cores, chunk_count as u64);
    let cores = run_workers(cfg.cores, |id| {
        run_core(id, events, cfg, pt.clone(), factory, Work::Stealing(&deques))
    });
    debug_assert!(deques.iter().all(ChunkDeque::is_empty));
    WsReport {
        cores,
        events: events.len() as u64,
        elapsed: start.elapsed(),
    }
}

/// Replays a recorded [`StealSchedule`] serially — core 0's chunk list
/// to completion, then core 1's, … — and returns per-core statistics
/// that must match the parallel run that recorded the schedule bit for
/// bit (workers share nothing; see the module docs).
pub fn replay_scheduled(
    events: &[TraceEvent],
    pt: &PageTable,
    factory: fn() -> TlbHierarchy,
    cfg: &WsConfig,
    schedule: &StealSchedule,
) -> WsReport {
    assert_eq!(
        schedule.per_core.len(),
        cfg.cores,
        "schedule core count must match the configuration"
    );
    let start = Instant::now();
    let cores = schedule
        .per_core
        .iter()
        .enumerate()
        .map(|(id, chunks)| run_core(id, events, *cfg, pt.clone(), factory, Work::Fixed(chunks)))
        .collect();
    WsReport {
        cores,
        events: events.len() as u64,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiProgrammedScenario, SmpScenarioConfig};
    use mixtlb_sim::designs;

    fn fixture(events_n: usize) -> (Vec<TraceEvent>, PageTable) {
        let scenario =
            MultiProgrammedScenario::gups_times(1, &SmpScenarioConfig::quick());
        let events: Vec<TraceEvent> = scenario.generator(0).take(events_n).collect();
        (events, scenario.clone_page_table(0))
    }

    #[test]
    fn every_chunk_is_executed_exactly_once() {
        let (events, pt) = fixture(6_000);
        let cfg = WsConfig::new(3, 256);
        let report = replay_parallel(&events, &pt, designs::mix, &cfg);
        let mut seen: Vec<u64> = report.cores.iter().flat_map(|c| c.chunks.clone()).collect();
        seen.sort_unstable();
        let expected: Vec<u64> = (0..6_000u64.div_ceil(256)).collect();
        assert_eq!(seen, expected, "chunks lost or duplicated");
        let replayed: u64 = report.cores.iter().map(|c| c.engine.accesses).sum();
        assert_eq!(replayed, 6_000, "every event replayed exactly once");
    }

    #[test]
    fn single_core_schedule_is_the_identity() {
        let (events, pt) = fixture(2_000);
        let cfg = WsConfig::new(1, 128);
        let report = replay_parallel(&events, &pt, designs::mix, &cfg);
        assert_eq!(report.total_steals(), 0);
        let expected: Vec<u64> = (0..2_000u64.div_ceil(128)).collect();
        assert_eq!(report.cores[0].chunks, expected, "one core pops in seed order");
    }
}
