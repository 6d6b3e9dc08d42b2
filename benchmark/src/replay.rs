//! The replay paths and the output checks every replay must pass.
//!
//! * **stream** — the corpus replay path: the v2 trace file streamed
//!   through `stream_chunks(StreamConfig::synchronous())`, one
//!   `translate_batch` per block.
//! * **scalar** — per-event `TranslationEngine::access` over in-memory
//!   events, the path `NativeScenario::run` and the figure binaries use.
//! * **parallel** — `replay_parallel` with one worker per host core over
//!   2048-event chunks; only the traced run replays it, for the
//!   work-stealing counters.
//!
//! Each single-engine replay gets a fresh engine over a fresh page-table
//! clone built outside its timed region.

use std::io;
use std::path::Path;
use std::time::Instant;

use mixtlb_cache::HierarchyStats;
use mixtlb_core::TlbStats;
use mixtlb_pagetable::PageTable;
use mixtlb_sim::{EngineStats, TlbHierarchy, TranslationEngine, WalkBackend};
use mixtlb_smp::{replay_parallel, stream_chunks, StreamConfig, WsConfig, WsReport};
use mixtlb_trace::{TraceEvent, V2_BLOCK_EVENTS};
use mixtlb_types::PhysAddr;

/// Events per work-stealing chunk on the parallel path.
pub const PARALLEL_CHUNK_EVENTS: usize = 2048;

/// Designs whose batched path may account predictor stalls differently
/// from the scalar path (the exemption documented on
/// `TranslationEngine::translate_batch`): only their `stall_cycles` may
/// differ between the stream and scalar replays.
pub const STALL_EXEMPT: [&str; 2] = ["hr+pred", "skew+pred"];

/// The design every other design's translations are checked against.
pub const REFERENCE_DESIGN: &str = "oracle";

/// FNV-1a over the per-event physical addresses of a replay, one 64-bit
/// word per event; a fault hashes as `u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one translation result in.
    #[inline]
    pub fn add(&mut self, pa: Option<PhysAddr>) {
        let word = pa.map_or(u64::MAX, PhysAddr::raw);
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a block of results in, in order.
    pub fn add_all(&mut self, pas: &[Option<PhysAddr>]) {
        for pa in pas {
            self.add(*pa);
        }
    }

    /// The digest as fixed-width hex.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Everything one single-engine replay produced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Wall time of the timed region, in nanoseconds.
    pub wall_ns: u64,
    /// Digest of the translated physical addresses.
    pub digest: Digest,
    /// Engine counters.
    pub stats: EngineStats,
    /// L1 TLB statistics.
    pub l1: TlbStats,
    /// L2 TLB statistics.
    pub l2: Option<TlbStats>,
    /// Walk-path cache statistics.
    pub caches: HierarchyStats,
}

/// A duration in whole nanoseconds (saturating).
pub(crate) fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn finish(engine: TranslationEngine<'_>, wall_ns: u64, digest: Digest) -> Replay {
    let (stats, l1, l2, caches) = engine.finish();
    Replay {
        wall_ns,
        digest,
        stats,
        l1,
        l2,
        caches,
    }
}

/// Streams the v2 trace at `trace` through `hierarchy` on the stream path.
/// With `block_ns`, also records each block's `translate_batch` time (one
/// clock pair per 2048 events).
///
/// # Errors
///
/// Propagates open/read/decode failures of the trace file.
pub fn stream(
    hierarchy: TlbHierarchy,
    pt: &PageTable,
    trace: &Path,
    mut block_ns: Option<&mut Vec<u64>>,
) -> io::Result<Replay> {
    let mut pt = pt.clone();
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
    let mut out: Vec<Option<PhysAddr>> = Vec::with_capacity(V2_BLOCK_EVENTS);
    let mut digest = Digest::default();
    let start = Instant::now();
    stream_chunks(trace, &StreamConfig::synchronous(), |_, events| {
        out.clear();
        match block_ns.as_deref_mut() {
            Some(times) => {
                let t = Instant::now();
                engine.translate_batch(events, &mut out);
                times.push(nanos(t.elapsed()));
            }
            None => engine.translate_batch(events, &mut out),
        }
        digest.add_all(&out);
    })?;
    let wall_ns = nanos(start.elapsed());
    Ok(finish(engine, wall_ns, digest))
}

/// Replays in-memory `events` through per-event
/// `TranslationEngine::access` calls.
pub fn scalar(hierarchy: TlbHierarchy, pt: &PageTable, events: &[TraceEvent]) -> Replay {
    let mut pt = pt.clone();
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
    let mut digest = Digest::default();
    let start = Instant::now();
    for ev in events {
        digest.add(engine.access(ev));
    }
    let wall_ns = nanos(start.elapsed());
    finish(engine, wall_ns, digest)
}

/// One work-stealing replay and its wall time.
#[derive(Debug, Clone)]
pub struct Parallel {
    /// Wall time of the `replay_parallel` call, in nanoseconds.
    pub wall_ns: u64,
    /// The per-core report.
    pub report: WsReport,
}

/// Replays in-memory `events` on `cores` work-stealing workers.
pub fn parallel(
    factory: fn() -> TlbHierarchy,
    pt: &PageTable,
    events: &[TraceEvent],
    cores: usize,
) -> Parallel {
    let cfg = WsConfig::new(cores, PARALLEL_CHUNK_EVENTS);
    let start = Instant::now();
    let report = replay_parallel(events, pt, factory, &cfg);
    Parallel {
        wall_ns: nanos(start.elapsed()),
        report,
    }
}

/// Why a replay's counters are inconsistent, if they are: every access
/// resolves exactly once (L1 hit, L2 hit or walk), nothing faults on a
/// pre-faulted footprint, and every event was translated.
pub fn conservation_error(stats: &EngineStats, events: u64) -> Option<String> {
    if stats.accesses != events {
        return Some(format!("{} accesses for {events} events", stats.accesses));
    }
    let resolved = stats.l1_hits + stats.l2_hits + stats.walks;
    if resolved != stats.accesses {
        return Some(format!(
            "l1_hits + l2_hits + walks = {resolved} != accesses {}",
            stats.accesses
        ));
    }
    if stats.faults != 0 {
        return Some(format!(
            "{} faults on a pre-faulted footprint",
            stats.faults
        ));
    }
    None
}

/// Whether the stream and scalar replays of `design` produced the same
/// engine counters (stall cycles excepted on [`STALL_EXEMPT`] designs).
pub fn same_engine_stats(design: &str, stream: &EngineStats, scalar: &EngineStats) -> bool {
    if STALL_EXEMPT.contains(&design) {
        let mut a = *stream;
        let mut b = *scalar;
        a.stall_cycles = 0;
        b.stall_cycles = 0;
        a == b
    } else {
        stream == scalar
    }
}

/// Why a work-stealing replay is inconsistent, if it is: the per-core
/// access counts sum to the event count and each core's counters
/// conserve.
pub fn parallel_error(report: &WsReport, events: u64) -> Option<String> {
    let total: u64 = report.cores.iter().map(|c| c.engine.accesses).sum();
    if total != events {
        return Some(format!("per-core accesses sum to {total}, not {events}"));
    }
    report.cores.iter().find_map(|c| {
        conservation_error(&c.engine, c.engine.accesses).map(|e| format!("core {}: {e}", c.core))
    })
}
