//! Streaming decode→translate over one block-sized buffer.
//!
//! [`crate::replay_parallel`] and the perf harness's batched replay both
//! assume the whole event corpus sits decoded in one `Vec` before any
//! translation starts. That costs an O(corpus) resident buffer that
//! defeats the cache for corpora past the LLC and defeats the machine for
//! corpora past RAM.
//!
//! This module streams instead. The v2 trace format frames independently
//! decodable, checksummed blocks, so [`stream_chunks`] reads one framed
//! block into a raw buffer, verifies and decodes it into one pre-sized
//! event `Vec`, and hands the events to a caller-supplied closure before
//! it reads the next — all on the caller's thread. Both buffers are sized
//! once and reused for the whole run: resident memory is one block,
//! independent of corpus length, with zero steady-state allocation, and
//! the chunk stays cache-hot between decode and translation. One
//! [`mixtlb_sim::TranslationEngine::translate_batch`] per block gives the
//! perfgate `stream-batched` path and the benchmark's `replay_mtps`.
//! Multi-core translation is [`crate::replay_parallel`]'s job, over a
//! pre-decoded event slice.
//!
//! # Fault propagation
//!
//! Damage anywhere — truncated framing, a corrupted payload failing its
//! checksum — surfaces as the stream's `Err`
//! ([`std::io::ErrorKind::InvalidData`]), never as a partially decoded
//! chunk: [`mixtlb_trace::decode_block`] clears its output on any error,
//! and the loop stops before consuming the damaged block.

use std::io;
use std::path::Path;

use mixtlb_trace::{decode_block, BlockReader, RawBlock, TraceEvent, V2_BLOCK_EVENTS};

/// Shape of a streaming run. There is one shape — read, verify, decode
/// and consume each block on the caller's thread — so this carries no
/// settings; it keeps [`stream_chunks`]'s signature stable for callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig;

impl StreamConfig {
    /// The synchronous single-thread shape.
    pub fn synchronous() -> StreamConfig {
        StreamConfig
    }
}

/// Outcome of a [`stream_chunks`] run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Events delivered to the consumer.
    pub events: u64,
    /// Blocks delivered to the consumer.
    pub blocks: u64,
}

/// Streams the v2 trace at `path`, invoking `consume(seq, events)` on
/// every block **in file order**. The perfgate `stream-batched` path
/// wraps this with one
/// [`mixtlb_sim::TranslationEngine::translate_batch`] call per block.
///
/// # Errors
///
/// Propagates open/read/decode failures ([`io::ErrorKind::InvalidData`]
/// for damaged input). Blocks preceding the damage are consumed; nothing
/// at or past it is.
pub fn stream_chunks<F>(
    path: &Path,
    _cfg: &StreamConfig,
    mut consume: F,
) -> io::Result<StreamReport>
where
    F: FnMut(u64, &[TraceEvent]),
{
    let mut blocks = BlockReader::open(path)?;
    let mut raw = RawBlock::new();
    // Pre-size for the largest block the format frames: decode never
    // reallocates, which the hot-path analyzer enforces on the loop.
    let mut events = Vec::with_capacity(V2_BLOCK_EVENTS);
    let (events, blocks) = stream_sync(&mut blocks, &mut raw, &mut events, &mut consume)?;
    Ok(StreamReport { events, blocks })
}

/// The per-block loop: read → verify+decode → consume on one thread, one
/// block resident. Returns `(events, blocks)` delivered.
fn stream_sync<F: FnMut(u64, &[TraceEvent])>(
    blocks: &mut BlockReader,
    raw: &mut RawBlock,
    events: &mut Vec<TraceEvent>,
    consume: &mut F,
) -> io::Result<(u64, u64)> {
    let mut nevents = 0u64;
    let mut nblocks = 0u64;
    while blocks.read_block(raw)? {
        decode_block(raw, events)?;
        consume(raw.seq(), events);
        nevents += events.len() as u64;
        nblocks += 1;
    }
    Ok((nevents, nblocks))
}
