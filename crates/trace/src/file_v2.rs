//! The on-disk trace format: delta coding, varints, checksummed blocks.
//!
//! The paper's methodology records Pin memory traces once and replays
//! them through many TLB configurations (Sec. 6.2). This module is the
//! equivalent tooling for our synthetic traces: record any event stream
//! to a file, then replay it any number of times, so every design sees
//! byte-identical input. Each event is encoded relative to its
//! predecessor, so the sequential and strided streams that dominate the
//! fig. 9 workloads compress to a few bytes per access (the retired v1
//! format spent a fixed 17):
//!
//! ```text
//! header  : magic "MXTLBTRC" | u32 version = 2 | u32 reserved | u64 events
//! block   : varint event_count | varint payload_len | payload | u64 fnv1a
//! event   : zigzag-varint Δ(4 KB page) | varint (offset << 2 | kind)
//!           | zigzag-varint Δ(pc)
//! ```
//!
//! Deltas reset at each block boundary (previous page and PC start at
//! zero), so any block can be decoded — and its FNV-1a checksum audited —
//! without touching earlier blocks. A truncated or corrupted block is a
//! clean [`io::ErrorKind::InvalidData`] error from the streaming reader,
//! never a panic, and the header's event count lets a reader distinguish
//! honest end-of-file from a chopped tail.
//!
//! # Examples
//!
//! ```no_run
//! use mixtlb_trace::{TraceFileV2, TraceGenerator, WorkloadSpec};
//! use mixtlb_types::Vpn;
//!
//! let spec = WorkloadSpec::by_name("gups").unwrap().with_footprint(1 << 24);
//! let gen = TraceGenerator::new(&spec, 42, Vpn::new(0x1000));
//! TraceFileV2::record("gups.mtc2", gen.take(100_000))?;
//! for event in TraceFileV2::open("gups.mtc2")? {
//!     let _event = event?;
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use mixtlb_types::{AccessKind, PageSize, VirtAddr, Vpn};

use crate::generator::TraceEvent;

const MAGIC: &[u8; 8] = b"MXTLBTRC";
/// Format version stamped in (and required from) every v2 header.
const VERSION: u32 = 2;
/// Events per block. Deliberately *not* a page-sized count: 2048 events
/// keep a block's payload in the ten-kilobyte range, small enough that a
/// checksum failure localizes the damage and a streaming reader never
/// buffers more than one block of decoded events. Public (re-exported as
/// `V2_BLOCK_EVENTS`) so streaming consumers can pre-size reusable decode
/// buffers that never reallocate.
pub const BLOCK_EVENTS: usize = 2048;
/// Byte offset of the u64 event count patched after the stream is written.
const COUNT_OFFSET: u64 = 16;

/// FNV-1a over a byte slice — the per-block payload checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Zigzag-encodes a signed delta so small magnitudes of either sign stay
/// in one varint byte.
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn un_zigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Wrapping difference `now - before`, reinterpreted as a signed delta.
fn delta(now: u64, before: u64) -> i64 {
    now.wrapping_sub(before) as i64
}

/// Appends an LEB128 varint to `out`.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `buf` starting at `*pos`, advancing it.
fn read_varint_slice(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(invalid("varint runs past the end of its block"));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(invalid("varint longer than 64 bits"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads one LEB128 varint from a byte stream. Returns `Ok(None)` when the
/// stream is already at EOF (a clean end between blocks), and an error if
/// EOF interrupts a varint midway.
fn read_varint_stream(r: &mut impl Read) -> io::Result<Option<u64>> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                if shift == 0 {
                    return Ok(None);
                }
                return Err(invalid("varint truncated by end of file"));
            }
            Err(e) => return Err(e),
        }
        if shift >= 64 {
            return Err(invalid("varint longer than 64 bits"));
        }
        v |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
}

/// Shorthand for the [`io::ErrorKind::InvalidData`] errors this module
/// reports on malformed input.
fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one fixed-size header field. A file that ends inside the header
/// is malformed input, so EOF here is [`io::ErrorKind::InvalidData`],
/// not the bare `UnexpectedEof` of `read_exact`.
fn read_header(r: &mut impl Read, field: &mut [u8]) -> io::Result<()> {
    r.read_exact(field).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid("trace truncated in header")
        } else {
            e
        }
    })
}

// Per-site corruption errors live in `#[cold]` constructors: malformed
// input is not the replay loop's fast path, and isolating the `format!`
// here keeps formatting machinery out of the hot decode functions.

#[cold]
fn bad_kind_code(code: u64) -> io::Error {
    invalid(format!("invalid access kind code {code}"))
}

#[cold]
fn bad_page_offset(off: u64) -> io::Error {
    invalid(format!("page offset {off} exceeds a 4 KB page"))
}

#[cold]
fn truncated(remaining: u64) -> io::Error {
    invalid(format!(
        "trace truncated: header promises {remaining} more events"
    ))
}

#[cold]
fn bad_block_count(count: u64, remaining: u64) -> io::Error {
    invalid(format!(
        "block event count {count} outside the {remaining} events remaining"
    ))
}

#[cold]
fn oversized_block(count: u64) -> io::Error {
    invalid(format!(
        "block event count {count} exceeds the {BLOCK_EVENTS}-event block size"
    ))
}

#[cold]
fn implausible_payload(payload_len: u64, count: u64) -> io::Error {
    invalid(format!(
        "block payload length {payload_len} implausible for {count} events"
    ))
}

/// Width of the access-kind code below the page offset in an event's
/// packed offset/kind word.
const KIND_BITS: u32 = 2;

/// Wire code for an access kind; fits in [`KIND_BITS`].
const fn kind_code(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
        AccessKind::Fetch => 2,
    }
}

// A code that outgrows its field would corrupt the page offset above it.
const _: () = assert!(
    kind_code(AccessKind::Load) >> KIND_BITS == 0
        && kind_code(AccessKind::Store) >> KIND_BITS == 0
        && kind_code(AccessKind::Fetch) >> KIND_BITS == 0,
    "access-kind code overflows its wire field"
);

/// Inverse of [`kind_code`].
fn code_kind(code: u64) -> io::Result<AccessKind> {
    match code {
        0 => Ok(AccessKind::Load),
        1 => Ok(AccessKind::Store),
        2 => Ok(AccessKind::Fetch),
        other => Err(bad_kind_code(other)),
    }
}

/// Encodes one event into `payload`, returning the (page, pc) pair the
/// next event's deltas are taken against.
fn encode_event(payload: &mut Vec<u8>, ev: &TraceEvent, prev_page: u64, prev_pc: u64) -> (u64, u64) {
    let page = ev.va.vpn().raw();
    let off = ev.va.page_offset(PageSize::Size4K);
    write_varint(payload, zigzag(delta(page, prev_page)));
    write_varint(payload, (off << KIND_BITS) | kind_code(ev.kind));
    write_varint(payload, zigzag(delta(ev.pc, prev_pc)));
    (page, ev.pc)
}

/// Decodes one event from `buf` at `*pos` against the running deltas.
fn decode_event(
    buf: &[u8],
    pos: &mut usize,
    prev_page: &mut u64,
    prev_pc: &mut u64,
) -> io::Result<TraceEvent> {
    let dp = un_zigzag(read_varint_slice(buf, pos)?);
    let page = prev_page.wrapping_add(dp as u64);
    let meta = read_varint_slice(buf, pos)?;
    let off = meta >> KIND_BITS;
    let kind = code_kind(meta & ((1 << KIND_BITS) - 1))?;
    if off >= PageSize::Size4K.bytes() {
        return Err(bad_page_offset(off));
    }
    let dpc = un_zigzag(read_varint_slice(buf, pos)?);
    let pc = prev_pc.wrapping_add(dpc as u64);
    *prev_page = page;
    *prev_pc = pc;
    Ok(TraceEvent {
        pc,
        va: VirtAddr::from_page(Vpn::new(page), off),
        kind,
    })
}

/// One framed block of a v2 trace: the raw payload bytes plus the framing
/// the wire carried (event count, on-wire checksum, 0-based sequence
/// number within the file).
///
/// The internal payload buffer is reused across [`BlockReader::read_block`]
/// calls, so one `RawBlock` gives a streaming consumer zero steady-state
/// allocation: decode of a corpus of any length touches only one block's
/// resident bytes.
#[derive(Debug, Default)]
pub struct RawBlock {
    count: u64,
    seq: u64,
    checksum: u64,
    payload: Vec<u8>,
}

impl RawBlock {
    /// An empty block buffer, ready to be filled by
    /// [`BlockReader::read_block`].
    pub fn new() -> RawBlock {
        RawBlock::default()
    }

    /// Events framed in this block.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// 0-based sequence number of this block within its file.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Encoded payload size in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Audits the payload against the on-wire FNV-1a checksum.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a mismatch.
    pub fn verify(&self) -> io::Result<()> {
        if self.checksum != fnv1a(&self.payload) {
            return Err(invalid("block checksum mismatch (corrupted payload)"));
        }
        Ok(())
    }
}

/// Decodes a framed block into `out` (cleared first, allocation reused),
/// verifying the checksum before trusting a single byte.
///
/// Deltas reset at block boundaries, so any block decodes independently
/// of the blocks before it. Decode errors leave `out` cleared (never a
/// partial chunk).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a checksum mismatch, a
/// malformed event, or trailing garbage after the framed event count.
pub fn decode_block(block: &RawBlock, out: &mut Vec<TraceEvent>) -> io::Result<()> {
    out.clear();
    block.verify()?;
    let mut pos = 0usize;
    let mut prev_page = 0u64;
    let mut prev_pc = 0u64;
    for _ in 0..block.count {
        match decode_event(&block.payload, &mut pos, &mut prev_page, &mut prev_pc) {
            Ok(ev) => out.push(ev),
            Err(e) => {
                out.clear();
                return Err(e);
            }
        }
    }
    if pos != block.payload.len() {
        out.clear();
        return Err(invalid("block payload has trailing garbage"));
    }
    Ok(())
}

/// Block-granular streaming reader for the v2 format: hands out framed,
/// checksummed payloads one at a time without buffering the whole file.
///
/// This is the corpus-scale entry point: [`TraceFileV2`] (whole events,
/// one block resident) and the `mixtlb-smp` streaming loop (one recycled
/// [`RawBlock`] decoded block by block) are both built on it.
/// After the first error the stream should be abandoned; the reader does
/// not resynchronize inside damaged input.
#[derive(Debug)]
pub struct BlockReader {
    reader: BufReader<File>,
    total: u64,
    remaining: u64,
    next_seq: u64,
}

impl BlockReader {
    /// Opens a v2 trace for block-granular streaming.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the file is not a v2
    /// trace (bad magic, wrong version, or short header), or propagates
    /// I/O errors.
    pub fn open(path: impl AsRef<Path>) -> io::Result<BlockReader> {
        let file = File::open(&path)?;
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 8];
        read_header(&mut reader, &mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("not a mixtlb trace file (bad magic)"));
        }
        let mut word = [0u8; 4];
        read_header(&mut reader, &mut word)?;
        let version = u32::from_le_bytes(word);
        if version != VERSION {
            return Err(invalid(format!(
                "unsupported trace version {version} (only v{VERSION} is readable; \
                 re-record the trace with `tracectl record`)"
            )));
        }
        read_header(&mut reader, &mut word)?; // reserved
        let mut count = [0u8; 8];
        read_header(&mut reader, &mut count)?;
        let total = u64::from_le_bytes(count);
        Ok(BlockReader {
            reader,
            total,
            remaining: total,
            next_seq: 0,
        })
    }

    /// Total number of events the header promises.
    pub fn event_count(&self) -> u64 {
        self.total
    }

    /// Events the header promises beyond the blocks read so far.
    pub fn events_remaining(&self) -> u64 {
        self.remaining
    }

    /// Blocks handed out so far — equivalently, the sequence number the
    /// next successful [`Self::read_block`] will assign. A pipeline that
    /// hits a read error reports this as the damaged block's sequence.
    pub fn blocks_read(&self) -> u64 {
        self.next_seq
    }

    /// Reads the next framed block into `block`, reusing its payload
    /// buffer. Returns `Ok(false)` on a clean end of stream (every
    /// promised event delivered). The checksum is carried, not audited —
    /// verification happens in [`decode_block`] / [`RawBlock::verify`],
    /// wherever the consuming worker runs.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on truncated framing, a
    /// count outside the header's promise, or an implausible payload
    /// length (all before any oversized allocation happens).
    pub fn read_block(&mut self, block: &mut RawBlock) -> io::Result<bool> {
        let Some(count) = read_varint_stream(&mut self.reader)? else {
            if self.remaining == 0 {
                return Ok(false);
            }
            return Err(truncated(self.remaining));
        };
        if count == 0 || count > self.remaining {
            return Err(bad_block_count(count, self.remaining));
        }
        // The writer never frames more than BLOCK_EVENTS per block, and
        // enforcing that here keeps the plausibility arithmetic below free
        // of overflow: without this cap, a crafted count near u64::MAX / 22
        // wraps `count * 22` small enough to smuggle an arbitrary
        // payload_len past the bound and into a giant allocation.
        if count > BLOCK_EVENTS as u64 {
            return Err(oversized_block(count));
        }
        let Some(payload_len) = read_varint_stream(&mut self.reader)? else {
            return Err(invalid("block header truncated before payload length"));
        };
        // An event encodes to at most 22 bytes (two worst-case 10-byte
        // zigzag varints plus a 2-byte offset/kind word); a longer claim is
        // corruption, not a big block.
        if payload_len > count * 22 + 64 {
            return Err(implausible_payload(payload_len, count));
        }
        block.payload.clear();
        block.payload.resize(payload_len as usize, 0);
        self.reader
            .read_exact(&mut block.payload)
            .map_err(|_| invalid("block payload truncated"))?;
        let mut sum = [0u8; 8];
        self.reader
            .read_exact(&mut sum)
            .map_err(|_| invalid("block checksum truncated"))?;
        block.checksum = u64::from_le_bytes(sum);
        block.count = count;
        block.seq = self.next_seq;
        self.next_seq += 1;
        self.remaining -= count;
        Ok(true)
    }
}

/// Streaming reader/writer for the compact v2 trace format.
///
/// Iterating yields [`TraceEvent`]s in recorded order; blocks are
/// checksum-verified as they stream. Built on
/// [`BlockReader`] + [`decode_block`], with one block of decoded events
/// resident at a time.
#[derive(Debug)]
pub struct TraceFileV2 {
    blocks: BlockReader,
    raw: RawBlock,
    block: Vec<TraceEvent>,
    cursor: usize,
    /// Set after the first decode error; iteration ends rather than
    /// resynchronizing inside a damaged stream.
    poisoned: bool,
}

impl TraceFileV2 {
    /// Records an event stream to `path` in v2 format. Returns the number
    /// of events written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn record<I: IntoIterator<Item = TraceEvent>>(
        path: impl AsRef<Path>,
        events: I,
    ) -> io::Result<u64> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u32.to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?; // patched with the count below
        let mut total = 0u64;
        let mut payload = Vec::with_capacity(BLOCK_EVENTS * 8);
        let mut framing = Vec::with_capacity(16);
        let mut in_block = 0u64;
        let mut prev_page = 0u64;
        let mut prev_pc = 0u64;
        for ev in events {
            let (page, pc) = encode_event(&mut payload, &ev, prev_page, prev_pc);
            prev_page = page;
            prev_pc = pc;
            in_block += 1;
            total += 1;
            if in_block as usize == BLOCK_EVENTS {
                flush_block(&mut out, &mut framing, in_block, &mut payload)?;
                in_block = 0;
                prev_page = 0;
                prev_pc = 0;
            }
        }
        if in_block > 0 {
            flush_block(&mut out, &mut framing, in_block, &mut payload)?;
        }
        out.flush()?;
        out.seek(SeekFrom::Start(COUNT_OFFSET))?;
        out.write_all(&total.to_le_bytes())?;
        out.flush()?;
        Ok(total)
    }

    /// Opens a v2 trace for streaming replay.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the file is not a v2
    /// trace (bad magic, wrong version, or short header), or propagates
    /// I/O errors.
    pub fn open(path: impl AsRef<Path>) -> io::Result<TraceFileV2> {
        Ok(TraceFileV2 {
            blocks: BlockReader::open(path)?,
            raw: RawBlock::new(),
            block: Vec::new(),
            cursor: 0,
            poisoned: false,
        })
    }

    /// Total number of events the header promises.
    pub fn event_count(&self) -> u64 {
        self.blocks.event_count()
    }

    /// Loads and verifies the next block into the decode buffer.
    fn load_block(&mut self) -> io::Result<bool> {
        if !self.blocks.read_block(&mut self.raw)? {
            return Ok(false);
        }
        decode_block(&self.raw, &mut self.block)?;
        self.cursor = 0;
        Ok(true)
    }
}

/// Writes one framed block (count, payload length, payload, checksum) and
/// clears `payload` for reuse.
fn flush_block(
    out: &mut impl Write,
    framing: &mut Vec<u8>,
    count: u64,
    payload: &mut Vec<u8>,
) -> io::Result<()> {
    framing.clear();
    write_varint(framing, count);
    write_varint(framing, payload.len() as u64);
    out.write_all(framing)?;
    out.write_all(payload)?;
    out.write_all(&fnv1a(payload).to_le_bytes())?;
    payload.clear();
    Ok(())
}

impl Iterator for TraceFileV2 {
    type Item = io::Result<TraceEvent>;

    fn next(&mut self) -> Option<io::Result<TraceEvent>> {
        if self.poisoned {
            return None;
        }
        if self.cursor == self.block.len() {
            match self.load_block() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.poisoned = true;
                    return Some(Err(e));
                }
            }
        }
        let ev = self.block[self.cursor];
        self.cursor += 1;
        Some(Ok(ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::workloads::WorkloadSpec;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mixtlb-test-v2-{}-{name}", std::process::id()));
        p
    }

    fn sample_events(n: usize) -> Vec<TraceEvent> {
        let spec = WorkloadSpec::by_name("gups")
            .unwrap()
            .with_footprint(1 << 24);
        TraceGenerator::new(&spec, 7, Vpn::new(0x1000)).take(n).collect()
    }

    #[test]
    fn roundtrip_across_block_boundaries() {
        // Spans three blocks with a ragged tail.
        let original = sample_events(BLOCK_EVENTS * 2 + 123);
        let path = temp("roundtrip.mtc2");
        let written = TraceFileV2::record(&path, original.iter().copied()).unwrap();
        assert_eq!(written as usize, original.len());
        let file = TraceFileV2::open(&path).unwrap();
        assert_eq!(file.event_count() as usize, original.len());
        let replayed: Vec<TraceEvent> = file.map(|e| e.unwrap()).collect();
        assert_eq!(replayed, original);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_is_valid() {
        let path = temp("empty.mtc2");
        TraceFileV2::record(&path, std::iter::empty()).unwrap();
        let mut file = TraceFileV2::open(&path).unwrap();
        assert_eq!(file.event_count(), 0);
        assert!(file.next().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encodes_a_random_access_stream_in_a_few_bytes_per_event() {
        // gups is the least compressible catalogued pattern (uniformly
        // random pages): 5.2 B/event on this sample, where the v1 fixed
        // records spent 17.
        let original = sample_events(20_000);
        let path = temp("ratio.mtc2");
        TraceFileV2::record(&path, original.iter().copied()).unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        let per_event = bytes as f64 / original.len() as f64;
        assert!(per_event < 6.0, "{per_event:.2} B/event");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let original = sample_events(100);
        let path = temp("trunc.mtc2");
        TraceFileV2::record(&path, original.iter().copied()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let mut file = TraceFileV2::open(&path).unwrap();
        let err = file.find_map(|e| e.err()).expect("must surface an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_fails_its_checksum() {
        let original = sample_events(100);
        let path = temp("corrupt.mtc2");
        TraceFileV2::record(&path, original.iter().copied()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut file = TraceFileV2::open(&path).unwrap();
        let err = file.find_map(|e| e.err()).expect("must surface an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chopped_tail_block_is_reported_missing() {
        let original = sample_events(BLOCK_EVENTS + 500);
        let path = temp("tail.mtc2");
        TraceFileV2::record(&path, original.iter().copied()).unwrap();
        // Find where block 2 starts by re-encoding block 1 alone.
        let head = temp("tail-head.mtc2");
        TraceFileV2::record(&head, original.iter().copied().take(BLOCK_EVENTS)).unwrap();
        let cut = std::fs::metadata(&head).unwrap().len();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();
        let file = TraceFileV2::open(&path).unwrap();
        let mut ok = 0usize;
        let mut err = None;
        for e in file {
            match e {
                Ok(_) => ok += 1,
                Err(x) => err = Some(x),
            }
        }
        assert_eq!(ok, BLOCK_EVENTS, "first block still decodes");
        let err = err.expect("the missing tail must be an error");
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&head).ok();
    }

    #[test]
    fn overflowing_block_count_is_rejected_before_allocating() {
        // A crafted header promises u64::MAX events and a block claims a
        // count chosen so `count * 22` wraps past u64::MAX, which used to
        // slip an enormous payload_len past the plausibility bound and
        // into `vec![0u8; payload_len]`. The block-size cap must reject
        // the count before any allocation happens.
        let path = temp("overflow-count.mtc2");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        // ceil(2^64 / 22) wraps `count * 22` back to ~0; the extra term
        // pushes the wrapped product to ~2^61 so the old bound accepted a
        // multi-exabyte payload_len (and the reader aborted trying to
        // allocate it).
        let count = u64::MAX / 22 + 1 + ((1u64 << 61) / 22 + 1);
        write_varint(&mut bytes, count);
        let payload_len = 1u64 << 61;
        assert!(
            payload_len <= count.wrapping_mul(22) + 64,
            "crafted payload must have passed the pre-fix wrapped bound"
        );
        write_varint(&mut bytes, payload_len);
        std::fs::write(&path, &bytes).unwrap();
        let mut file = TraceFileV2::open(&path).unwrap();
        let err = file.find_map(|e| e.err()).expect("must surface an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("block size"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_rejected_with_a_rerecord_hint() {
        // The 16-byte header the retired v1 format wrote for an empty
        // trace: magic, version 1, reserved word.
        let path = temp("v1.trc");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceFileV2::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("version 1"), "{msg}");
        assert!(msg.contains("tracectl record"), "{msg}");
        assert!(
            !msg.contains("TraceFile ") && !msg.contains("convert"),
            "{msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_header_is_invalid_data() {
        let path = temp("header.mtc2");
        TraceFileV2::record(&path, sample_events(10)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = temp("header-cut.mtc2");
        for len in 0..24 {
            std::fs::write(&cut, &bytes[..len]).unwrap();
            let err = BlockReader::open(&cut).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "BlockReader at {len} B: {err}"
            );
            let err = TraceFileV2::open(&cut).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "TraceFileV2 at {len} B: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut).ok();
    }
}
