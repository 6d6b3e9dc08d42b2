//! Property coverage of the v2 compact trace format: arbitrary event
//! streams round-trip exactly and re-encode byte-stably, and corrupted or
//! truncated files are rejected with clean `io::Error`s, never a panic or
//! garbage records.

use std::io::Read;

use mixtlb_trace::{TraceEvent, TraceFileV2};
use mixtlb_types::{AccessKind, PageSize, VirtAddr, Vpn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn gen_event(rng: &mut SmallRng) -> TraceEvent {
    // 4 KB page numbers across the canonical low half, including
    // far-apart pages that need wide zigzag deltas.
    let page = rng.gen_range(0..1u64 << 35);
    let off = rng.gen_range(0..PageSize::Size4K.bytes());
    let kind = [AccessKind::Load, AccessKind::Store, AccessKind::Fetch][rng.gen_range(0..3usize)];
    TraceEvent { va: VirtAddr::from_page(Vpn::new(page), off), kind, pc: rng.gen() }
}

fn gen_events(rng: &mut SmallRng, len: std::ops::Range<usize>) -> Vec<TraceEvent> {
    (0..rng.gen_range(len)).map(|_| gen_event(rng)).collect()
}

fn temp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mixtlb-v2-props-{}-{name}.mtc2", std::process::id()));
    p
}

#[test]
fn roundtrip_and_byte_stability() {
    for case in 0..48 {
        let mut rng = SmallRng::seed_from_u64(case);
        let events = gen_events(&mut rng, 0..600);
        let path = temp(&format!("rt-{case}"));
        let written = TraceFileV2::record(&path, events.iter().copied()).unwrap();
        assert_eq!(written, events.len() as u64, "case {case}");

        let reader = TraceFileV2::open(&path).unwrap();
        assert_eq!(reader.event_count(), events.len() as u64, "case {case}");
        let decoded: Vec<TraceEvent> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(&decoded, &events, "case {case}");

        // Re-encoding the decoded stream must reproduce the bytes exactly
        // (the corpus-pinning property the golden test relies on).
        let first = std::fs::read(&path).unwrap();
        let path2 = temp(&format!("rt2-{case}"));
        TraceFileV2::record(&path2, decoded).unwrap();
        let second = std::fs::read(&path2).unwrap();
        assert_eq!(first, second, "case {case}");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }
}

#[test]
fn truncation_is_an_error_not_a_panic() {
    for case in 0..48 {
        let mut rng = SmallRng::seed_from_u64(case);
        let events = gen_events(&mut rng, 1..300);
        let cut_fraction: f64 = rng.gen_range(0.0..1.0);
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
                            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "case {case}");
                            errored = true;
                            break;
                        }
                    }
                }
                // A chopped file must either lose events (reported as an
                // error) or — if the cut landed exactly on the end of the
                // stream — decode fully; it may never invent events.
                assert!(decoded <= events.len() as u64, "case {case}");
                if !errored {
                    assert_eq!(decoded, events.len() as u64, "case {case}");
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The same truncation sweep through the streaming block interface
/// ([`BlockReader`] + [`decode_block`]) the pipeline consumes: every
/// event delivered before the damage surfaces must be an exact
/// prefix of the original stream (block granular — a damaged block
/// contributes nothing), the failure must be a clean
/// `InvalidData`, and an uncut file must stream back in full with
/// `events_remaining()` reaching zero.
#[test]
fn block_reader_truncation_yields_an_exact_prefix() {
    use mixtlb_trace::{decode_block, BlockReader, RawBlock};

    for case in 0..48 {
        let mut rng = SmallRng::seed_from_u64(case);
        let events = gen_events(&mut rng, 1..5000);
        let cut_fraction: f64 = rng.gen_range(0.0..1.0);
        let keep_all: bool = rng.gen();
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
                            assert!(chunk.is_empty(), "case {case}: failed decode must not leave a partial chunk");
                            error = Some(e);
                            break;
                        }
                    }
                }
                assert!(streamed.len() <= events.len(), "case {case}");
                assert_eq!(&streamed[..], &events[..streamed.len()],
                    "case {case}: streamed events must be an exact prefix");
                match error {
                    Some(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "case {case}"),
                    None => {
                        // Clean end: only legal when nothing was lost.
                        assert_eq!(streamed.len(), events.len(), "case {case}");
                        assert_eq!(blocks.events_remaining(), 0, "case {case}");
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Truncation landing *exactly* on a block boundary is the nastiest
/// cut: every byte the reader sees is self-consistent (whole blocks,
/// valid checksums), so only the header's event count can expose the
/// chopped tail. The reader must decode the surviving whole blocks
/// and then report the missing events — never a clean EOF, never a
/// panic.
#[test]
fn chunk_boundary_truncation_reports_the_missing_tail() {
    // One full 2048-event block plus a ragged tail block.
    const BLOCK_EVENTS: usize = 2048;
    for case in 0..48 {
        let mut rng = SmallRng::seed_from_u64(case);
        let tail = rng.gen_range(1..400usize);
        let events: Vec<TraceEvent> = (0..(BLOCK_EVENTS + tail) as u64)
            .map(|i| TraceEvent {
                va: VirtAddr::from_page(Vpn::new(0x4000 + i * 3), (i * 7) % 4096),
                kind: AccessKind::Load,
                pc: 0x40_0000 + i * 4,
            })
            .collect();
        let path = temp(&format!("boundary-{case}"));
        TraceFileV2::record(&path, events.iter().copied()).unwrap();

        // Find the exact boundary after block 1 by encoding block 1 alone:
        // deltas reset per block, so the first block's bytes are identical.
        let head = temp(&format!("boundary-head-{case}"));
        TraceFileV2::record(&head, events.iter().copied().take(BLOCK_EVENTS)).unwrap();
        let cut = std::fs::metadata(&head).unwrap().len() as usize;
        let bytes = std::fs::read(&path).unwrap();
        assert!(cut < bytes.len(), "case {case}: tail block must exist past the cut");
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let reader = TraceFileV2::open(&path).unwrap();
        let mut decoded = 0usize;
        let mut err = None;
        for item in reader {
            match item {
                Ok(ev) => {
                    assert_eq!(ev, events[decoded], "case {case}: surviving events must be intact");
                    decoded += 1;
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(decoded, BLOCK_EVENTS, "case {case}: the whole first block still decodes");
        let err = err.expect("the chopped tail must surface as an error, not clean EOF");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "case {case}");
        assert!(err.to_string().contains("truncated"), "case {case}: {err}");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&head);
    }
}

#[test]
fn corruption_is_an_error_not_garbage() {
    for case in 0..48 {
        let mut rng = SmallRng::seed_from_u64(case);
        let events = gen_events(&mut rng, 1..300);
        let victim_fraction: f64 = rng.gen_range(0.0..1.0);
        let bit = rng.gen_range(0..8u8);
        let path = temp(&format!("corrupt-{case}"));
        TraceFileV2::record(&path, events.iter().copied()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip one bit somewhere after the header.
        assert!(bytes.len() > 24, "case {case}: a non-empty trace has blocks past the header");
        let victim = 24 + ((bytes.len() - 25) as f64 * victim_fraction) as usize;
        bytes[victim] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // Every decoded event must be one the checksummed blocks vouch
        // for; the flip either surfaces as a clean InvalidData error or
        // (if it struck slack the decoder never trusts, e.g. the reserved
        // header word) changes nothing.
        if let Ok(reader) = TraceFileV2::open(&path) {
            for (i, item) in reader.enumerate() {
                match item {
                    Ok(ev) => assert_eq!(Some(&ev), events.get(i), "case {case}: event {i} altered"),
                    Err(e) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "case {case}");
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
