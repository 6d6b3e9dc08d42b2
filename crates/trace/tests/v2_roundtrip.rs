//! Property coverage of the v2 compact trace format: arbitrary event
//! streams round-trip exactly and re-encode byte-stably, and corrupted or
//! truncated files are rejected with clean `io::Error`s, never a panic or
//! garbage records.

use std::io::Read;

use mixtlb_trace::{TraceEvent, TraceFileV2};
use mixtlb_types::{AccessKind, PageSize, VirtAddr, Vpn};
use proptest::prelude::*;

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        // 4 KB page numbers across the canonical low half, including
        // far-apart pages that need wide zigzag deltas.
        0u64..(1u64 << 35),
        0u64..PageSize::Size4K.bytes(),
        prop_oneof![
            Just(AccessKind::Load),
            Just(AccessKind::Store),
            Just(AccessKind::Fetch)
        ],
        any::<u64>(),
    )
        .prop_map(|(page, off, kind, pc)| TraceEvent {
            va: VirtAddr::from_page(Vpn::new(page), off),
            kind,
            pc,
        })
}

fn temp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mixtlb-v2-props-{}-{name}.mtc2", std::process::id()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_and_byte_stability(
        events in proptest::collection::vec(event_strategy(), 0..600),
        case in 0u32..u32::MAX,
    ) {
        let path = temp(&format!("rt-{case}"));
        let written = TraceFileV2::record(&path, events.iter().copied()).unwrap();
        prop_assert_eq!(written, events.len() as u64);

        let reader = TraceFileV2::open(&path).unwrap();
        prop_assert_eq!(reader.event_count(), events.len() as u64);
        let decoded: Vec<TraceEvent> = reader.map(|r| r.unwrap()).collect();
        prop_assert_eq!(&decoded, &events);

        // Re-encoding the decoded stream must reproduce the bytes exactly
        // (the corpus-pinning property the golden test relies on).
        let first = std::fs::read(&path).unwrap();
        let path2 = temp(&format!("rt2-{case}"));
        TraceFileV2::record(&path2, decoded).unwrap();
        let second = std::fs::read(&path2).unwrap();
        prop_assert_eq!(first, second);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic(
        events in proptest::collection::vec(event_strategy(), 1..300),
        cut_fraction in 0.0f64..1.0,
        case in 0u32..u32::MAX,
    ) {
        let path = temp(&format!("trunc-{case}"));
        TraceFileV2::record(&path, events.iter().copied()).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Cut strictly inside the file, but keep at least the header so
        // open() succeeds and the damage surfaces during iteration.
        let min = 24usize.min(bytes.len().saturating_sub(1));
        let cut = min + ((bytes.len() - 1 - min) as f64 * cut_fraction) as usize;
        let chopped = &bytes[..cut];
        std::fs::write(&path, chopped).unwrap();

        match TraceFileV2::open(&path) {
            Err(_) => {} // header itself unreadable: fine, clean error
            Ok(reader) => {
                let mut decoded = 0u64;
                let mut errored = false;
                for item in reader {
                    match item {
                        Ok(_) => decoded += 1,
                        Err(e) => {
                            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                            errored = true;
                            break;
                        }
                    }
                }
                // A chopped file must either lose events (reported as an
                // error) or — if the cut landed exactly on the end of the
                // stream — decode fully; it may never invent events.
                prop_assert!(decoded <= events.len() as u64);
                if !errored {
                    prop_assert_eq!(decoded, events.len() as u64);
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The same truncation sweep through the streaming block interface
    /// ([`BlockReader`] + [`decode_block`]) the pipeline consumes: every
    /// event delivered before the damage surfaces must be an exact
    /// prefix of the original stream (block granular — a damaged block
    /// contributes nothing), the failure must be a clean
    /// `InvalidData`, and an uncut file must stream back in full with
    /// `events_remaining()` reaching zero.
    #[test]
    fn block_reader_truncation_yields_an_exact_prefix(
        events in proptest::collection::vec(event_strategy(), 1..5000),
        cut_fraction in 0.0f64..1.0,
        keep_all in any::<bool>(),
        case in 0u32..u32::MAX,
    ) {
        use mixtlb_trace::{decode_block, BlockReader, RawBlock};

        let path = temp(&format!("blk-trunc-{case}"));
        TraceFileV2::record(&path, events.iter().copied()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let min = 24usize.min(bytes.len().saturating_sub(1));
        let cut = if keep_all {
            bytes.len() // uncut: the clean full-stream case
        } else {
            min + ((bytes.len() - min) as f64 * cut_fraction) as usize
        };
        std::fs::write(&path, &bytes[..cut]).unwrap();

        match BlockReader::open(&path) {
            Err(_) => {} // header itself chopped: clean error at open
            Ok(mut blocks) => {
                let mut raw = RawBlock::default();
                let mut chunk: Vec<TraceEvent> = Vec::new();
                let mut streamed: Vec<TraceEvent> = Vec::new();
                let mut error = None;
                loop {
                    match blocks.read_block(&mut raw) {
                        Ok(true) => {}
                        Ok(false) => break,
                        Err(e) => { error = Some(e); break; }
                    }
                    match decode_block(&raw, &mut chunk) {
                        Ok(()) => streamed.extend_from_slice(&chunk),
                        Err(e) => {
                            prop_assert!(chunk.is_empty(), "failed decode must not leave a partial chunk");
                            error = Some(e);
                            break;
                        }
                    }
                }
                prop_assert!(streamed.len() <= events.len());
                prop_assert_eq!(&streamed[..], &events[..streamed.len()],
                    "streamed events must be an exact prefix");
                match error {
                    Some(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
                    None => {
                        // Clean end: only legal when nothing was lost.
                        prop_assert_eq!(streamed.len(), events.len());
                        prop_assert_eq!(blocks.events_remaining(), 0);
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Truncation landing *exactly* on a block boundary is the nastiest
    /// cut: every byte the reader sees is self-consistent (whole blocks,
    /// valid checksums), so only the header's event count can expose the
    /// chopped tail. The reader must decode the surviving whole blocks
    /// and then report the missing events — never a clean EOF, never a
    /// panic.
    #[test]
    fn chunk_boundary_truncation_reports_the_missing_tail(
        tail in 1usize..400,
        case in 0u32..u32::MAX,
    ) {
        // One full 2048-event block plus a ragged tail block.
        const BLOCK_EVENTS: usize = 2048;
        let events: Vec<TraceEvent> = {
            let mut v = Vec::with_capacity(BLOCK_EVENTS + tail);
            for i in 0..(BLOCK_EVENTS + tail) as u64 {
                v.push(TraceEvent {
                    va: VirtAddr::from_page(Vpn::new(0x4000 + i * 3), (i * 7) % 4096),
                    kind: AccessKind::Load,
                    pc: 0x40_0000 + i * 4,
                });
            }
            v
        };
        let path = temp(&format!("boundary-{case}"));
        TraceFileV2::record(&path, events.iter().copied()).unwrap();

        // Find the exact boundary after block 1 by encoding block 1 alone:
        // deltas reset per block, so the first block's bytes are identical.
        let head = temp(&format!("boundary-head-{case}"));
        TraceFileV2::record(&head, events.iter().copied().take(BLOCK_EVENTS)).unwrap();
        let cut = std::fs::metadata(&head).unwrap().len() as usize;
        let bytes = std::fs::read(&path).unwrap();
        prop_assert!(cut < bytes.len(), "tail block must exist past the cut");
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let reader = TraceFileV2::open(&path).unwrap();
        let mut decoded = 0usize;
        let mut err = None;
        for item in reader {
            match item {
                Ok(ev) => {
                    prop_assert_eq!(ev, events[decoded], "surviving events must be intact");
                    decoded += 1;
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        prop_assert_eq!(decoded, BLOCK_EVENTS, "the whole first block still decodes");
        let err = err.expect("the chopped tail must surface as an error, not clean EOF");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("truncated"), "{}", err);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&head);
    }

    #[test]
    fn corruption_is_an_error_not_garbage(
        events in proptest::collection::vec(event_strategy(), 1..300),
        victim_fraction in 0.0f64..1.0,
        bit in 0u8..8,
        case in 0u32..u32::MAX,
    ) {
        let path = temp(&format!("corrupt-{case}"));
        TraceFileV2::record(&path, events.iter().copied()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip one bit somewhere after the header.
        if bytes.len() <= 24 {
            let _ = std::fs::remove_file(&path);
            return Ok(());
        }
        let victim = 24 + ((bytes.len() - 25) as f64 * victim_fraction) as usize;
        bytes[victim] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // Every decoded event must be one the checksummed blocks vouch
        // for; the flip either surfaces as a clean InvalidData error or
        // (if it struck slack the decoder never trusts, e.g. the reserved
        // header word) changes nothing.
        match TraceFileV2::open(&path) {
            Err(_) => {}
            Ok(reader) => {
                for item in reader {
                    if let Err(e) = item {
                        prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                        break;
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Non-property check: a plain byte read confirms the header layout —
/// the container magic, the version field `BlockReader::open` keys its
/// rejection of other versions on, and the patched event count.
#[test]
fn header_layout_is_stable() {
    let path = temp("header");
    TraceFileV2::record(
        &path,
        [TraceEvent {
            va: VirtAddr::from_page(Vpn::new(7), 42),
            kind: AccessKind::Load,
            pc: 0x1000,
        }],
    )
    .unwrap();
    let mut head = [0u8; 24];
    let mut f = std::fs::File::open(&path).unwrap();
    f.read_exact(&mut head).unwrap();
    assert_eq!(&head[..8], b"MXTLBTRC");
    assert_eq!(u32::from_le_bytes([head[8], head[9], head[10], head[11]]), 2);
    assert_eq!(
        u64::from_le_bytes(head[16..24].try_into().unwrap()),
        1,
        "event count at offset 16"
    );
    let _ = std::fs::remove_file(&path);
}
