//! End-of-stream behaviour of the streaming decode→translate loop.
//!
//! An intact corpus is delivered whole, in file order, and the report
//! counts exactly its events and blocks. A corpus damaged mid-stream
//! (truncated or bit-flipped) must surface a clean
//! [`std::io::ErrorKind::InvalidData`] — no partially decoded chunk ever
//! reaching translation — with exactly the intact prefix consumed.

#![expect(
    clippy::expect_used,
    reason = "helpers outside `#[test]` fns report a broken fixture by panicking, which fails the calling test"
)]

use std::io;
use std::path::PathBuf;

use mixtlb_smp::{stream_chunks, MultiProgrammedScenario, SmpScenarioConfig, StreamConfig};
use mixtlb_trace::{decode_block, BlockReader, RawBlock, TraceEvent, TraceFileV2, V2_BLOCK_EVENTS};

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

/// Streams `path`, asserting in-order delivery, and returns (events
/// consumed, result).
fn stream_counting(path: &std::path::Path) -> (u64, io::Result<()>) {
    let mut consumed = 0u64;
    let mut next_seq = 0u64;
    let result = stream_chunks(path, &StreamConfig::synchronous(), |seq, events| {
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

    let (consumed, result) = stream_counting(&path);
    let err = result.expect_err("truncated corpus must fail");
    assert_eq!(
        err.kind(),
        io::ErrorKind::InvalidData,
        "sync: clean InvalidData, got {err}"
    );
    assert_eq!(
        consumed, expected,
        "sync: exactly the intact prefix is consumed"
    );
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

    let (consumed, result) = stream_counting(&path);
    let err = result.expect_err("corrupted corpus must fail");
    assert_eq!(
        err.kind(),
        io::ErrorKind::InvalidData,
        "sync: clean InvalidData, got {err}"
    );
    assert_eq!(
        consumed, expected,
        "sync: exactly the intact prefix is consumed"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn intact_corpus_streams_whole_in_file_order() {
    let n = 2 * V2_BLOCK_EVENTS + 904;
    assert_ne!(n % V2_BLOCK_EVENTS, 0, "the last block must be partial");
    let (path, events) = fixture(n, "clean");
    let mut seen = Vec::with_capacity(n);
    let report = stream_chunks(&path, &StreamConfig::synchronous(), |seq, chunk| {
        assert_eq!(
            seq,
            (seen.len() / V2_BLOCK_EVENTS) as u64,
            "blocks arrive in file order"
        );
        seen.extend_from_slice(chunk);
    })
    .expect("intact corpus streams cleanly");
    assert_eq!(seen, events, "every event, in recorded order");
    assert_eq!(report.events, n as u64);
    assert_eq!(report.blocks, n.div_ceil(V2_BLOCK_EVENTS) as u64);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_corpus_streams_zero_blocks() {
    let (path, _) = fixture(0, "empty");
    let mut calls = 0u32;
    let report = stream_chunks(&path, &StreamConfig::synchronous(), |_, _| calls += 1)
        .expect("a 0-event trace streams cleanly");
    assert_eq!(calls, 0, "no block reaches the consumer");
    assert_eq!((report.events, report.blocks), (0, 0));
    let _ = std::fs::remove_file(&path);
}
