//! Differential regression for the streaming decode→translate loop:
//! replaying a corpus block-by-block through [`stream_chunks`] into
//! per-block `translate_batch` calls must be observably indistinguishable
//! from decoding the whole corpus and translating it with one call —
//! for EVERY design and every pinned corpus workload.
//!
//! The comparison mirrors `tests/batched_differential.rs`:
//!
//! * Physical addresses must match element-wise — the batched path's
//!   reuse window is per-call-local, so chunking the call sequence can
//!   never change an answer, only how cheaply it was produced.
//! * Engine counters must match exactly, except `stall_cycles` on the
//!   prediction-based designs: a smaller per-call window changes which
//!   accesses skip predictor training, which may reorder later serial
//!   probes but never changes presence or miss traffic.
//! * L1 device stats are compared on their architectural-state facets;
//!   probe-effort facets legitimately differ with window size.
//! * L2 stats must match on every field.

#![expect(
    clippy::expect_used,
    reason = "helpers outside `#[test]` fns report a broken fixture by panicking, which fails the calling test"
)]

use std::path::PathBuf;

use mixtlb_core::TlbStats;
use mixtlb_perf::{corpus_catalog, prepare_scenario};
use mixtlb_sim::designs::all_cpu_designs;
use mixtlb_sim::{TranslationEngine, WalkBackend};
use mixtlb_smp::{stream_chunks, StreamConfig};
use mixtlb_trace::{TraceEvent, TraceFileV2, TraceGenerator};
use mixtlb_types::PhysAddr;

/// Events per (design, workload) replay: enough to span many v2 blocks
/// (so the stream actually chunks) while the 8-design × 6-workload sweep
/// stays inside tier-1 test budget.
const EVENTS: usize = 20_000;

fn l1_architectural_facets(s: &TlbStats) -> [u64; 8] {
    [
        s.misses,
        s.fills,
        s.entries_written,
        s.evictions,
        s.dup_merges,
        s.coalesce_merges,
        s.invalidations,
        s.dirty_microops,
    ]
}

/// A unique temp path for this test binary's scratch corpora.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mixtlb-stream-diff-{}-{name}.mtc2",
        std::process::id()
    ))
}

struct Observed {
    out: Vec<Option<PhysAddr>>,
    stats: mixtlb_sim::EngineStats,
    l1: TlbStats,
    l2: Option<TlbStats>,
}

/// Streams `path` through a fresh engine, concatenating per-block
/// outputs in seq order (the consumer callback is guaranteed in-order).
fn observe_streamed(
    path: &std::path::Path,
    scenario: &mixtlb_perf::CorpusWorkload,
    factory: fn() -> mixtlb_sim::TlbHierarchy,
) -> Observed {
    let native = prepare_scenario(scenario.name).expect("workload in catalog");
    let mut pt = native.clone_page_table();
    let mut engine = TranslationEngine::new(factory(), WalkBackend::Native(&mut pt));
    let mut all: Vec<Option<PhysAddr>> = Vec::new();
    let mut block_out: Vec<Option<PhysAddr>> = Vec::new();
    let mut next_seq = 0u64;
    stream_chunks(path, &StreamConfig::synchronous(), |seq, events| {
        assert_eq!(seq, next_seq, "consumer sees blocks out of order");
        next_seq += 1;
        block_out.clear();
        engine.translate_batch(events, &mut block_out);
        all.extend_from_slice(&block_out);
    })
    .expect("streaming an intact corpus");
    Observed {
        out: all,
        stats: engine.stats(),
        l1: engine.hierarchy().l1.stats(),
        l2: engine.hierarchy().l2.as_ref().map(|l2| l2.stats()),
    }
}

#[test]
fn streamed_replay_is_differentially_identical_to_buffered() {
    for w in corpus_catalog() {
        let native = prepare_scenario(w.name).expect("workload in catalog");
        let events: Vec<TraceEvent> =
            TraceGenerator::new(native.spec(), native.seed(), native.region())
                .take(EVENTS)
                .collect();
        let path = temp(w.name);
        TraceFileV2::record(&path, events.iter().copied()).expect("record scratch corpus");

        for (design, factory) in all_cpu_designs() {
            let predictive = matches!(design, "hr+pred" | "skew+pred");

            // Reference: whole corpus buffered, one translate_batch call.
            let mut pt = native.clone_page_table();
            let mut buffered = TranslationEngine::new(factory(), WalkBackend::Native(&mut pt));
            let mut buffered_out = Vec::new();
            buffered.translate_batch(&events, &mut buffered_out);
            let buffered_stats = buffered.stats();
            let buffered_l1 = buffered.hierarchy().l1.stats();
            let buffered_l2 = buffered.hierarchy().l2.as_ref().map(|l2| l2.stats());

            let streamed = observe_streamed(&path, &w, factory);

            assert_eq!(
                streamed.out.len(),
                buffered_out.len(),
                "{design}/{}/sync: output length",
                w.name
            );
            for (i, (s, b)) in streamed.out.iter().zip(buffered_out.iter()).enumerate() {
                assert_eq!(
                    s, b,
                    "{design}/{}/sync: physical address diverges at access {i}",
                    w.name
                );
            }

            if predictive {
                let mut s = streamed.stats;
                let mut b = buffered_stats;
                s.stall_cycles = 0;
                b.stall_cycles = 0;
                assert_eq!(
                    s, b,
                    "{design}/{}/sync: engine stats (stall-exempt)",
                    w.name
                );
            } else {
                assert_eq!(
                    streamed.stats, buffered_stats,
                    "{design}/{}/sync: engine stats",
                    w.name
                );
            }

            assert_eq!(
                l1_architectural_facets(&streamed.l1),
                l1_architectural_facets(&buffered_l1),
                "{design}/{}/sync: L1 architectural stats",
                w.name
            );
            assert_eq!(streamed.l2, buffered_l2, "{design}/{}/sync: L2 stats", w.name);
        }
        let _ = std::fs::remove_file(&path);
    }
}
