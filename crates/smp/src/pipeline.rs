//! Streaming decode→translate pipeline over a recycled buffer pool.
//!
//! [`crate::replay_parallel`] and the perf harness's batched replay both
//! assume the whole event corpus sits decoded in one `Vec` before any
//! translation starts. That serializes two phases that have no data
//! dependency at block granularity — the v2 trace format frames
//! independently decodable, checksummed blocks precisely so decode of
//! block *k+1* can overlap translation of block *k* — and it costs an
//! O(corpus) resident buffer that defeats the cache for corpora past the
//! LLC and defeats the machine for corpora past RAM.
//!
//! This module streams instead. A [`mixtlb_trace::BlockReader`] feeds raw
//! framed blocks into a fixed pool of [`ChunkBuf`]s (each one raw payload
//! plus one decoded-event `Vec`, both pre-sized and reused for the whole
//! run — zero steady-state allocation); decoder workers verify checksums
//! and decode; a consumer translates. Every hand-off rides a
//! [`BoundedQueue`] from `mixtlb_check::handoff`, the two-semaphore
//! protocol whose blocking structure the model checker explores
//! (`mixtlb-check --model`), so back-pressure — the property that bounds
//! resident memory at O(depth × block) independent of corpus length — is
//! a checked invariant, not a hope.
//!
//! [`stream_chunks`] delivers blocks in file order to a caller-supplied
//! closure; one [`mixtlb_sim::TranslationEngine::translate_batch`] per
//! block gives the perfgate `stream-batched` path. With `decoders == 0`
//! the stages run synchronously on the caller's thread (still constant
//! memory; the right shape on a single hardware thread, where the win is
//! cache-resident chunks, not overlap). Multi-core translation is
//! [`crate::replay_parallel`]'s job, over a pre-decoded event slice.
//!
//! # Fault propagation
//!
//! Damage anywhere — truncated framing, a corrupted payload failing its
//! checksum — surfaces on the consumer side as the stream's `Err`
//! ([`std::io::ErrorKind::InvalidData`]), never as a hang and never as a
//! partially decoded chunk: [`mixtlb_trace::decode_block`] clears its
//! output on any error, the in-order consumer translates nothing at or
//! past the damaged block's sequence number, and a cancel flag walks the
//! failure back to the reader so every stage drains and joins.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use mixtlb_check::handoff::BoundedQueue;
use mixtlb_check::sync::{AtomicU64, Ordering};
use mixtlb_trace::{decode_block, BlockReader, RawBlock, TraceEvent, V2_BLOCK_EVENTS};

/// Worst-case encoded bytes per v2 block (count × max event encoding +
/// framing slack), mirroring the reader's plausibility bound. Used only
/// for pool-accounting assertions.
pub const V2_BLOCK_MAX_PAYLOAD: usize = V2_BLOCK_EVENTS * 22 + 64;

/// One pool buffer: a raw framed block and its decoded events, both
/// reused across the whole run.
#[derive(Debug)]
pub struct ChunkBuf {
    raw: RawBlock,
    events: Vec<TraceEvent>,
}

impl ChunkBuf {
    fn new() -> ChunkBuf {
        ChunkBuf {
            raw: RawBlock::new(),
            // Pre-size for the largest block the format frames: decode
            // never reallocates, which the hot-path analyzer enforces on
            // the stage functions below.
            events: Vec::with_capacity(V2_BLOCK_EVENTS),
        }
    }

    /// The carried block's sequence number (position in the file).
    pub fn seq(&self) -> u64 {
        self.raw.seq()
    }

    /// The decoded events (empty until decoded, cleared on decode error).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

/// Shape of a streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Decoder worker threads. `0` = fully synchronous: read, verify,
    /// decode, and consume on the caller's thread, one block resident.
    pub decoders: usize,
    /// Buffers in the pool (the pipeline depth). Resident event memory is
    /// bounded by `depth × V2_BLOCK_EVENTS` events regardless of corpus
    /// length. Ignored (one buffer) when `decoders == 0`.
    pub depth: usize,
}

impl StreamConfig {
    /// The synchronous single-thread shape.
    pub fn synchronous() -> StreamConfig {
        StreamConfig {
            decoders: 0,
            depth: 1,
        }
    }

    /// A threaded shape: `decoders` decode workers over a pool of
    /// `depth` buffers (raised to `decoders + 1` if smaller, so every
    /// decoder can hold a buffer while the consumer holds one).
    pub fn threaded(decoders: usize, depth: usize) -> StreamConfig {
        assert!(decoders >= 1, "threaded shape needs at least one decoder");
        StreamConfig {
            decoders,
            depth: depth.max(decoders + 1),
        }
    }
}

/// Buffer-pool accounting, measured after the run quiesces. The
/// memory-bound acceptance test asserts `buffers` equals the configured
/// depth and the capacities respect the per-block maxima — i.e. peak
/// resident footprint is O(depth × block), independent of corpus length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers that returned to the free queue (must equal the pool size:
    /// no leaks, nothing stranded in a stage).
    pub buffers: usize,
    /// Summed capacity of the decoded-event `Vec`s, in events.
    pub event_capacity: usize,
    /// Summed capacity of the raw payload buffers, in bytes.
    pub payload_capacity: usize,
}

/// Outcome of a [`stream_chunks`] run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Events delivered to the consumer.
    pub events: u64,
    /// Blocks delivered to the consumer.
    pub blocks: u64,
    /// Wall-clock time for the whole stream (decode + consume together).
    pub elapsed: Duration,
    /// Buffer-pool accounting.
    pub pool: PoolStats,
}

/// Reader→decoder hand-off.
#[derive(Debug)]
enum DecodeMsg {
    /// A framed block to verify and decode.
    Block(ChunkBuf),
    /// No more blocks; one per decoder.
    Shutdown,
}

/// Decoder→consumer hand-off.
#[derive(Debug)]
enum ReadyMsg {
    /// A verified, decoded block.
    Chunk(ChunkBuf),
    /// Reading or decoding block `seq` failed. The buffer (if any) went
    /// back to the free pool with its events cleared.
    Failed {
        /// Sequence number of the damaged block.
        seq: u64,
        /// The underlying error, surfaced as the stream's result.
        error: io::Error,
    },
    /// One decoder exited; the consumer is done after seeing them all.
    DecoderDone,
}

/// Reader stage: pulls free buffers, frames blocks into them, and feeds
/// the decoders. On a read error it reports the damaged sequence and
/// stops; on `cancel` (a downstream failure) it stops early. Either way
/// it sends every decoder a shutdown and exits — queue capacities
/// guarantee the control pushes never block.
fn feed_blocks(
    blocks: &mut BlockReader,
    free: &BoundedQueue<ChunkBuf>,
    decode: &BoundedQueue<DecodeMsg>,
    ready: &BoundedQueue<ReadyMsg>,
    cancel: &AtomicU64,
    decoders: usize,
) {
    loop {
        let mut buf = free.pop();
        if cancel.load(Ordering::Acquire) != 0 {
            free.push(buf);
            break;
        }
        match blocks.read_block(&mut buf.raw) {
            Ok(true) => decode.push(DecodeMsg::Block(buf)),
            Ok(false) => {
                free.push(buf);
                break;
            }
            Err(error) => {
                let seq = blocks.blocks_read();
                free.push(buf);
                ready.push(ReadyMsg::Failed { seq, error });
                break;
            }
        }
    }
    for _ in 0..decoders {
        decode.push(DecodeMsg::Shutdown);
    }
}

/// Decoder stage: checksum-verify and decode blocks into their buffer's
/// event `Vec`. A failed block's buffer is recycled immediately (its
/// events cleared by `decode_block` — no partial chunk ever travels
/// downstream) and the failure is published to the consumer.
fn decode_blocks(
    decode: &BoundedQueue<DecodeMsg>,
    ready: &BoundedQueue<ReadyMsg>,
    free: &BoundedQueue<ChunkBuf>,
) {
    loop {
        match decode.pop() {
            DecodeMsg::Block(mut buf) => match decode_block(&buf.raw, &mut buf.events) {
                Ok(()) => ready.push(ReadyMsg::Chunk(buf)),
                Err(error) => {
                    let seq = buf.seq();
                    free.push(buf);
                    ready.push(ReadyMsg::Failed { seq, error });
                }
            },
            DecodeMsg::Shutdown => {
                ready.push(ReadyMsg::DecoderDone);
                return;
            }
        }
    }
}

/// In-order consumer stage: re-sequences out-of-order decoder output
/// through a depth-bounded stash and hands each block to `consume` in
/// file order. After a failure at sequence `f`, blocks below `f` are
/// still consumed (they are intact by the format's framing) and blocks
/// at or past `f` are recycled unconsumed.
///
/// Returns `(events, blocks, first_error)`.
fn consume_in_order<F: FnMut(u64, &[TraceEvent])>(
    ready: &BoundedQueue<ReadyMsg>,
    free: &BoundedQueue<ChunkBuf>,
    stash: &mut [Option<ChunkBuf>],
    cancel: &AtomicU64,
    decoders: usize,
    consume: &mut F,
) -> (u64, u64, Option<io::Error>) {
    let mut next_seq = 0u64;
    let mut events = 0u64;
    let mut blocks = 0u64;
    let mut done = 0usize;
    let mut fail: Option<(u64, io::Error)> = None;
    loop {
        // Serve everything already deliverable in order.
        loop {
            if let Some((fs, _)) = &fail {
                if next_seq >= *fs {
                    break;
                }
            }
            let Some(pos) = stash
                .iter()
                .position(|s| s.as_ref().is_some_and(|b| b.seq() == next_seq))
            else {
                break;
            };
            let Some(buf) = stash[pos].take() else { break };
            consume(buf.seq(), &buf.events);
            events += buf.events.len() as u64;
            blocks += 1;
            next_seq += 1;
            free.push(buf);
        }
        if done == decoders {
            break;
        }
        match ready.pop() {
            ReadyMsg::Chunk(buf) => {
                let discard = match &fail {
                    Some((fs, _)) => buf.seq() >= *fs,
                    None => false,
                };
                if discard {
                    free.push(buf);
                } else if let Some(slot) = stash.iter_mut().find(|s| s.is_none()) {
                    *slot = Some(buf);
                } else {
                    // Unreachable: the stash has one slot per pool buffer.
                    debug_assert!(false, "stash full with a buffer in flight");
                    free.push(buf);
                }
            }
            ReadyMsg::Failed { seq, error } => {
                let keep = match &fail {
                    Some((fs, _)) => seq < *fs,
                    None => true,
                };
                if keep {
                    fail = Some((seq, error));
                }
                cancel.store(1, Ordering::Release);
            }
            ReadyMsg::DecoderDone => done += 1,
        }
    }
    // Recycle whatever the failure stranded in the stash.
    for slot in stash.iter_mut() {
        if let Some(buf) = slot.take() {
            free.push(buf);
        }
    }
    (events, blocks, fail.map(|(_, e)| e))
}

/// Drains the free queue and sums the pool accounting.
fn pool_stats(free: &BoundedQueue<ChunkBuf>) -> PoolStats {
    let mut stats = PoolStats {
        buffers: 0,
        event_capacity: 0,
        payload_capacity: 0,
    };
    for _ in 0..free.len() {
        let buf = free.pop();
        stats.buffers += 1;
        stats.event_capacity += buf.events.capacity();
        stats.payload_capacity += buf.raw.payload_capacity();
    }
    stats
}

/// Streams the v2 trace at `path` through the decode pipeline, invoking
/// `consume(seq, events)` on every block **in file order**. The perfgate
/// `stream-batched` path wraps this with one
/// [`mixtlb_sim::TranslationEngine::translate_batch`] call per block.
///
/// With `cfg.decoders == 0` every stage runs synchronously on the
/// caller's thread; otherwise a reader thread and `cfg.decoders` decode
/// threads overlap with the consuming caller, hand-offs bounded by the
/// `cfg.depth`-buffer pool.
///
/// # Errors
///
/// Propagates open/read/decode failures ([`io::ErrorKind::InvalidData`]
/// for damaged input). Blocks preceding the damage are consumed; nothing
/// at or past it is.
pub fn stream_chunks<F>(path: &Path, cfg: &StreamConfig, mut consume: F) -> io::Result<StreamReport>
where
    F: FnMut(u64, &[TraceEvent]),
{
    let start = Instant::now();
    let mut blocks = BlockReader::open(path)?;
    if cfg.decoders == 0 {
        return stream_sync(&mut blocks, start, &mut consume);
    }
    let decoders = cfg.decoders;
    let depth = cfg.depth.max(decoders + 1);
    let free = BoundedQueue::with_capacity(depth);
    for _ in 0..depth {
        free.push(ChunkBuf::new());
    }
    // Sized so control messages never block: the decode queue holds at
    // most `depth` blocks (each needs a pool buffer) plus one shutdown
    // per decoder; the ready queue at most `depth` chunks plus one
    // failure each from the reader and every decoder plus the done marks.
    let decode_q = BoundedQueue::with_capacity(depth + decoders);
    let ready_q = BoundedQueue::with_capacity(depth + 2 * decoders + 1);
    let cancel = AtomicU64::new(0);
    let mut stash: Vec<Option<ChunkBuf>> = (0..depth).map(|_| None).collect();
    let mut outcome = (0u64, 0u64, None);
    std::thread::scope(|s| {
        s.spawn(|| feed_blocks(&mut blocks, &free, &decode_q, &ready_q, &cancel, decoders));
        for _ in 0..decoders {
            s.spawn(|| decode_blocks(&decode_q, &ready_q, &free));
        }
        outcome = consume_in_order(&ready_q, &free, &mut stash, &cancel, decoders, &mut consume);
    });
    let (events, blocks, err) = outcome;
    if let Some(e) = err {
        return Err(e);
    }
    Ok(StreamReport {
        events,
        blocks,
        elapsed: start.elapsed(),
        pool: pool_stats(&free),
    })
}

/// The `decoders == 0` shape: read → verify+decode → consume per block on
/// one thread, one buffer resident. On a single hardware thread this is
/// the fastest streaming shape — the chunk stays cache-hot between decode
/// and translation and there is no hand-off cost — while keeping the same
/// constant-memory and fault-propagation contract as the threaded
/// pipeline.
fn stream_sync<F: FnMut(u64, &[TraceEvent])>(
    blocks: &mut BlockReader,
    start: Instant,
    consume: &mut F,
) -> io::Result<StreamReport> {
    let mut buf = ChunkBuf::new();
    let mut events = 0u64;
    let mut nblocks = 0u64;
    while blocks.read_block(&mut buf.raw)? {
        decode_block(&buf.raw, &mut buf.events)?;
        consume(buf.seq(), &buf.events);
        events += buf.events.len() as u64;
        nblocks += 1;
    }
    Ok(StreamReport {
        events,
        blocks: nblocks,
        elapsed: start.elapsed(),
        pool: PoolStats {
            buffers: 1,
            event_capacity: buf.events.capacity(),
            payload_capacity: buf.raw.payload_capacity(),
        },
    })
}
