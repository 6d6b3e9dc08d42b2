//! Differential regression for the streaming decode→translate pipeline:
//! replaying a corpus block-by-block through [`stream_chunks`] into
//! per-block `translate_batch` calls must be observably indistinguishable
//! from decoding the whole corpus and translating it with one call —
//! for EVERY design and every pinned corpus workload, in the
//! synchronous shape and the threaded shape at one and two decoders.
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
//!
//! Also here: the memory bound (the buffer pool's resident footprint is
//! O(depth × block size), independent of corpus length).

#![expect(
    clippy::expect_used,
    reason = "helpers outside `#[test]` fns report a broken fixture by panicking, which fails the calling test"
)]

use std::path::PathBuf;

use mixtlb_core::TlbStats;
use mixtlb_perf::{corpus_catalog, prepare_scenario};
use mixtlb_sim::designs::all_cpu_designs;
use mixtlb_sim::{TranslationEngine, WalkBackend};
use mixtlb_smp::{stream_chunks, StreamConfig, V2_BLOCK_MAX_PAYLOAD};
use mixtlb_trace::{TraceEvent, TraceFileV2, TraceGenerator, V2_BLOCK_EVENTS};
use mixtlb_types::PhysAddr;

/// Events per (design, workload) replay: enough to span many v2 blocks
/// (so the stream actually chunks) while the 8-design × 6-workload × 2-
/// shape sweep stays inside tier-1 test budget.
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
    cfg: &StreamConfig,
) -> Observed {
    let native = prepare_scenario(scenario.name).expect("workload in catalog");
    let mut pt = native.clone_page_table();
    let mut engine = TranslationEngine::new(factory(), WalkBackend::Native(&mut pt));
    let mut all: Vec<Option<PhysAddr>> = Vec::new();
    let mut block_out: Vec<Option<PhysAddr>> = Vec::new();
    let mut next_seq = 0u64;
    stream_chunks(path, cfg, |seq, events| {
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

            // The in-order consumer must make the decoder count
            // observably irrelevant (bit-identical outputs and counters
            // at one and two decoders).
            for (shape, cfg) in [
                ("sync", StreamConfig::synchronous()),
                ("threaded-1", StreamConfig::threaded(1, 8)),
                ("threaded-2", StreamConfig::threaded(2, 4)),
            ] {
                let streamed = observe_streamed(&path, &w, factory, &cfg);

                assert_eq!(
                    streamed.out.len(),
                    buffered_out.len(),
                    "{design}/{}/{shape}: output length",
                    w.name
                );
                for (i, (s, b)) in streamed.out.iter().zip(buffered_out.iter()).enumerate() {
                    assert_eq!(
                        s, b,
                        "{design}/{}/{shape}: physical address diverges at access {i}",
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
                        "{design}/{}/{shape}: engine stats (stall-exempt)",
                        w.name
                    );
                } else {
                    assert_eq!(
                        streamed.stats, buffered_stats,
                        "{design}/{}/{shape}: engine stats",
                        w.name
                    );
                }

                assert_eq!(
                    l1_architectural_facets(&streamed.l1),
                    l1_architectural_facets(&buffered_l1),
                    "{design}/{}/{shape}: L1 architectural stats",
                    w.name
                );
                assert_eq!(streamed.l2, buffered_l2, "{design}/{}/{shape}: L2 stats", w.name);
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The memory bound: the pipeline's resident event-buffer footprint is
/// O(depth × block size) and independent of corpus length — every buffer
/// the pool ever allocates is accounted for in `StreamReport::pool`, so
/// the bound is asserted on the pool totals for two corpora 4x apart in
/// length.
#[test]
fn pool_footprint_is_bounded_by_depth_not_corpus_length() {
    let native = prepare_scenario("gups").expect("workload in catalog");
    let cfg = StreamConfig::threaded(2, 4);
    let depth = 4;

    let mut pools = Vec::new();
    for (label, n) in [("short", 8 * V2_BLOCK_EVENTS), ("long", 32 * V2_BLOCK_EVENTS)] {
        let events: Vec<TraceEvent> =
            TraceGenerator::new(native.spec(), native.seed(), native.region())
                .take(n)
                .collect();
        let path = temp(label);
        TraceFileV2::record(&path, events.iter().copied()).expect("record scratch corpus");
        let mut seen = 0u64;
        let report = stream_chunks(&path, &cfg, |_, events| seen += events.len() as u64)
            .expect("streaming an intact corpus");
        let _ = std::fs::remove_file(&path);
        assert_eq!(seen, n as u64, "{label}: every event consumed");
        assert_eq!(report.pool.buffers, depth, "{label}: pool holds exactly depth buffers");
        assert!(
            report.pool.event_capacity <= depth * V2_BLOCK_EVENTS,
            "{label}: event capacity {} exceeds depth × block events",
            report.pool.event_capacity
        );
        assert!(
            report.pool.payload_capacity <= depth * V2_BLOCK_MAX_PAYLOAD,
            "{label}: payload capacity {} exceeds depth × max payload",
            report.pool.payload_capacity
        );
        pools.push(report.pool.event_capacity);
    }
    // Event capacity is exactly depth × block size on both corpora: the
    // pool pre-sizes each buffer to one full block and counts never
    // exceed it, so the footprint cannot grow with corpus length. (The
    // payload vectors' *capacities* may differ by a few bytes between
    // runs — each tracks the largest payload it happened to carry — but
    // both stay under the hard bound asserted above.)
    assert_eq!(
        pools[0], pools[1],
        "resident event footprint must not grow with corpus length"
    );
    assert_eq!(pools[0], depth * V2_BLOCK_EVENTS);

    // The synchronous shape runs on a single reused buffer.
    let events: Vec<TraceEvent> =
        TraceGenerator::new(native.spec(), native.seed(), native.region())
            .take(4 * V2_BLOCK_EVENTS)
            .collect();
    let path = temp("sync");
    TraceFileV2::record(&path, events.iter().copied()).expect("record scratch corpus");
    let report = stream_chunks(&path, &StreamConfig::synchronous(), |_, _| {})
        .expect("streaming an intact corpus");
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.pool.buffers, 1, "synchronous shape reuses one buffer");
}
