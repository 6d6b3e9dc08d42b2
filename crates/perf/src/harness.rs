//! Replay timing: warmup + repeated timed runs with median/min reporting.
//!
//! Each timed run replays the full pinned trace through a *fresh* engine
//! over a fresh clone of the scenario's page table, so runs are
//! independent and identically distributed; the harness reports the
//! median (robust central tendency on a shared machine) and the min (the
//! least-perturbed run) of nanoseconds per translation.

use std::io;
use std::path::Path;
use std::time::Instant;

use mixtlb_pagetable::PageTable;
use mixtlb_sim::{TlbHierarchy, TranslationEngine, WalkBackend};
use mixtlb_smp::{stream_chunks, StreamConfig};
use mixtlb_trace::{TraceEvent, V2_BLOCK_EVENTS};
use mixtlb_types::PhysAddr;

/// Aggregated timing of repeated runs, in nanoseconds per translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median across the timed runs.
    pub median_ns: f64,
    /// Fastest run.
    pub min_ns: f64,
}

impl Timing {
    /// Aggregates per-run ns/translation samples. Returns `None` for an
    /// empty sample set.
    pub fn from_samples(mut samples: Vec<f64>) -> Option<Timing> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let min_ns = samples[0];
        let mid = samples.len() / 2;
        let median_ns = if samples.len() % 2 == 1 {
            samples[mid]
        } else {
            (samples[mid - 1] + samples[mid]) / 2.0
        };
        Some(Timing { median_ns, min_ns })
    }

    /// Million translations per second at the median.
    pub fn median_maccesses_per_sec(&self) -> f64 {
        if self.median_ns <= 0.0 {
            0.0
        } else {
            1e3 / self.median_ns
        }
    }
}

/// One timed scalar replay: per-event [`TranslationEngine::access`] calls.
/// Returns ns per translation.
pub fn replay_scalar(hierarchy: TlbHierarchy, pt: &mut PageTable, events: &[TraceEvent]) -> f64 {
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(pt));
    let start = Instant::now();
    for ev in events {
        engine.access(ev);
    }
    per_access_ns(start.elapsed().as_nanos(), events.len())
}

/// One timed batched replay through
/// [`TranslationEngine::translate_batch`]. Returns ns per translation.
///
/// The output buffer is written once before the clock starts, so its
/// pages are faulted in outside the timed region: `translate_batch`
/// pre-sizes the output, and first-touching ~2.4 MB of fresh pages there
/// would time the kernel's page faults, not the engine.
pub fn replay_batched(hierarchy: TlbHierarchy, pt: &mut PageTable, events: &[TraceEvent]) -> f64 {
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(pt));
    let mut out: Vec<Option<PhysAddr>> = vec![None; events.len()];
    out.clear();
    let start = Instant::now();
    engine.translate_batch(events, &mut out);
    per_access_ns(start.elapsed().as_nanos(), out.len())
}

/// One timed work-stealing multi-core replay: the trace is chunked over
/// `cores` worker threads with Chase–Lev deques
/// ([`mixtlb_smp::replay_parallel`]), each worker driving its own
/// engine's batched path over the chunks it wins. Returns *aggregate* ns
/// per translation — wall-clock over all events — so the record is
/// directly comparable to the single-core paths: smaller means the
/// multi-core replay is faster end to end.
pub fn replay_ws(
    factory: fn() -> TlbHierarchy,
    pt: &PageTable,
    events: &[TraceEvent],
    cores: usize,
    chunk_events: usize,
) -> f64 {
    let cfg = mixtlb_smp::WsConfig::new(cores, chunk_events);
    let report = mixtlb_smp::replay_parallel(events, pt, factory, &cfg);
    per_access_ns(report.elapsed.as_nanos(), events.len())
}

/// One timed streaming decode→translate run: blocks stream through
/// [`mixtlb_smp::stream_chunks`] straight into per-block
/// [`TranslationEngine::translate_batch`] calls, one cache-resident
/// chunk at a time — decode and translation interleave on one thread
/// without any O(corpus) buffer. Returns end-to-end ns per translation.
pub fn replay_stream_batched(
    hierarchy: TlbHierarchy,
    pt: &mut PageTable,
    trace: &Path,
) -> io::Result<f64> {
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(pt));
    let mut out: Vec<Option<PhysAddr>> = Vec::with_capacity(V2_BLOCK_EVENTS);
    let start = Instant::now();
    let report = stream_chunks(trace, &StreamConfig::synchronous(), |_, events| {
        out.clear();
        engine.translate_batch(events, &mut out);
    })?;
    Ok(per_access_ns(start.elapsed().as_nanos(), report.events as usize))
}

fn per_access_ns(elapsed_ns: u128, accesses: usize) -> f64 {
    if accesses == 0 {
        0.0
    } else {
        elapsed_ns as f64 / accesses as f64
    }
}

/// Runs `warmup` untimed then `reps` timed invocations of `run` (each
/// returning ns per translation) and aggregates them. Returns `None`
/// when `reps` is zero.
pub fn time_reps(warmup: usize, reps: usize, mut run: impl FnMut() -> f64) -> Option<Timing> {
    for _ in 0..warmup {
        let _ = run();
    }
    Timing::from_samples((0..reps).map(|_| run()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_aggregates_median_and_min() {
        let t = Timing::from_samples(vec![30.0, 10.0, 20.0]).unwrap();
        assert_eq!(t.min_ns, 10.0);
        assert_eq!(t.median_ns, 20.0);
        let t = Timing::from_samples(vec![40.0, 10.0, 20.0, 30.0]).unwrap();
        assert_eq!(t.median_ns, 25.0);
        assert!(Timing::from_samples(vec![]).is_none());
    }

    #[test]
    fn throughput_inverts_latency() {
        let t = Timing {
            median_ns: 10.0,
            min_ns: 8.0,
        };
        assert!((t.median_maccesses_per_sec() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn time_reps_warms_then_measures() {
        let mut calls = 0;
        let t = time_reps(2, 3, || {
            calls += 1;
            calls as f64
        })
        .unwrap();
        assert_eq!(calls, 5);
        // Timed samples are 3.0, 4.0, 5.0.
        assert_eq!(t.min_ns, 3.0);
        assert_eq!(t.median_ns, 4.0);
    }
}
