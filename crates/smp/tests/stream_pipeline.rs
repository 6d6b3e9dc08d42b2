//! Fault propagation for the streaming decode→translate
//! pipeline: a corpus damaged mid-stream (truncated or bit-flipped) must
//! surface a clean [`std::io::ErrorKind::InvalidData`] from the consumer
//! side of the threaded pipeline — no hang, no partially decoded chunk
//! ever reaching translation — with exactly the intact prefix consumed.

#![expect(
    clippy::expect_used,
    reason = "helpers outside `#[test]` fns report a broken fixture by panicking, which fails the calling test"
)]

use std::io;
use std::path::PathBuf;

use mixtlb_smp::{stream_chunks, MultiProgrammedScenario, SmpScenarioConfig, StreamConfig};
use mixtlb_trace::{decode_block, BlockReader, RawBlock, TraceEvent, TraceFileV2};

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mixtlb-stream-pipe-{}-{name}.mtc2",
        std::process::id()
    ))
}

/// A recorded scratch corpus and the events it holds.
fn fixture(events_n: usize, name: &str) -> (PathBuf, Vec<TraceEvent>) {
    let scenario = MultiProgrammedScenario::gups_times(1, &SmpScenarioConfig::quick());
    let events: Vec<TraceEvent> = scenario.generator(0).take(events_n).collect();
    let path = temp(name);
    TraceFileV2::record(&path, events.iter().copied()).expect("record scratch corpus");
    (path, events)
}

/// Counts the events in the intact block prefix of `path` — the blocks a
/// correct pipeline must deliver before surfacing the damage.
fn intact_prefix_events(path: &std::path::Path) -> u64 {
    let mut blocks = BlockReader::open(path).expect("damaged mid-stream, not in the header");
    let mut raw = RawBlock::default();
    let mut decoded = Vec::new();
    let mut events = 0u64;
    loop {
        match blocks.read_block(&mut raw) {
            Ok(true) => {}
            Ok(false) | Err(_) => return events,
        }
        if decode_block(&raw, &mut decoded).is_err() {
            return events;
        }
        events += decoded.len() as u64;
    }
}

/// Streams `path` through the threaded pipeline, asserting in-order
/// delivery, and returns (events consumed, result).
fn stream_counting(
    path: &std::path::Path,
    cfg: &StreamConfig,
) -> (u64, io::Result<()>) {
    let mut consumed = 0u64;
    let mut next_seq = 0u64;
    let result = stream_chunks(path, cfg, |seq, events| {
        assert_eq!(seq, next_seq, "consumer saw a block out of order");
        assert!(!events.is_empty(), "a partial/empty chunk reached the consumer");
        next_seq += 1;
        consumed += events.len() as u64;
    })
    .map(|_| ());
    (consumed, result)
}

#[test]
fn truncation_mid_corpus_surfaces_invalid_data_after_intact_prefix() {
    let (path, events) = fixture(10_000, "trunc");
    let bytes = std::fs::read(&path).expect("read back scratch corpus");
    // Cut inside a later block's payload: past the first half, mid-file.
    let cut = bytes.len() * 3 / 5;
    std::fs::write(&path, &bytes[..cut]).expect("write truncated corpus");
    let expected = intact_prefix_events(&path);
    assert!(
        expected > 0 && expected < events.len() as u64,
        "cut must land mid-corpus (intact prefix {expected} of {})",
        events.len()
    );

    for (shape, cfg) in [
        ("sync", StreamConfig::synchronous()),
        ("threaded", StreamConfig::threaded(2, 4)),
    ] {
        let (consumed, result) = stream_counting(&path, &cfg);
        let err = result.expect_err("truncated corpus must fail");
        assert_eq!(
            err.kind(),
            io::ErrorKind::InvalidData,
            "{shape}: clean InvalidData, got {err}"
        );
        assert_eq!(
            consumed, expected,
            "{shape}: exactly the intact prefix is consumed"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flip_mid_corpus_surfaces_invalid_data_after_intact_prefix() {
    let (path, events) = fixture(10_000, "flip");
    let mut bytes = std::fs::read(&path).expect("read back scratch corpus");
    let flip = bytes.len() / 2;
    bytes[flip] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted corpus");
    let expected = intact_prefix_events(&path);
    assert!(
        expected < events.len() as u64,
        "flip must damage at least one block"
    );

    for (shape, cfg) in [
        ("sync", StreamConfig::synchronous()),
        ("threaded", StreamConfig::threaded(2, 4)),
    ] {
        let (consumed, result) = stream_counting(&path, &cfg);
        let err = result.expect_err("corrupted corpus must fail");
        assert_eq!(
            err.kind(),
            io::ErrorKind::InvalidData,
            "{shape}: clean InvalidData, got {err}"
        );
        assert_eq!(
            consumed, expected,
            "{shape}: exactly the intact prefix is consumed"
        );
    }
    let _ = std::fs::remove_file(&path);
}
