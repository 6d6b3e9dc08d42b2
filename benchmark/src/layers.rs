//! The traced run: where each design's replay time goes, layer by layer,
//! measured from outside the program by timing calls into its public
//! functions.
//!
//! Per design, a traced rep makes five replays of the same trace file:
//!
//! 1. **reference** — the untraced stream path, plus one clock pair per
//!    block around `translate_batch` (block latency percentiles; the
//!    denominator of coverage and overhead).
//! 2. **timed** — the synchronous stream loop spelled out with
//!    `BlockReader::read_block` → `decode_block` → `translate_batch`,
//!    each call spanned, with the design's L1 and L2 wrapped in a
//!    [`TlbDevice`] adapter that times probe calls
//!    (`lookup_batch`/`lookup_asid`) and fill calls (`fill_asid`/
//!    `peek_run`) into fixed counters inside the real engine.
//! 3. **logged** — the stream path with the adapters logging lookup
//!    outcomes instead: every L2 miss is a walk, every dirty hit a PTE
//!    dirty-bit micro-op, in engine order.
//! 4. **walk and cache replay** — the engine reaches its walker and
//!    caches privately, so the logged walks and micro-ops are replayed
//!    in order through `Walker::walk`/`PageTable::set_dirty` on a fresh
//!    page-table clone, their upper-level PTE reads through a fresh
//!    `PageWalkCache::new(32)`, and every reference that reaches memory
//!    through a fresh `CacheHierarchy::new(HierarchyConfig::haswell())` —
//!    each loop timed in bulk. The replay must reproduce the engine's
//!    walk count, walk traffic and cache statistics exactly.
//! 5. **parallel** — `replay_parallel` for the work-stealing counters.
//!
//! Adapter calls are sampled (one in [`ADAPTER_SAMPLE`]) and scaled by
//! the exact call count. Tracing cost comes off every layer and every
//! enclosing span: each timed call measures its own clock cost in place
//! (two back-to-back reads before the call), and [`calibrate`] supplies
//! how that clock cost scales to the wall it adds and what the adapter's
//! extra dispatch costs. The engine's own share is the remainder:
//! `sim.self = translate − core − pagetable − cache`.

use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mixtlb_cache::{CacheHierarchy, HierarchyConfig, PageWalkCache};
use mixtlb_core::{BatchAccess, CoalescedRun, Lookup, TlbDevice, TlbStats};
use mixtlb_pagetable::{PageTable, Walker};
use mixtlb_sim::{TlbHierarchy, TranslationEngine, WalkBackend};
use mixtlb_trace::{decode_block, BlockReader, RawBlock, TraceEvent, V2_BLOCK_EVENTS};
use mixtlb_types::{AccessKind, Asid, PageSize, PhysAddr, Translation, VirtAddr, Vpn};

use crate::metrics::{median, DESIGN_LAYER, LAYER_DESIGNS, SHARED_LAYER};
use crate::replay::{self, nanos, Digest, Parallel, Replay};

/// The adapters time one call in this many, chosen pseudo-randomly (so a
/// periodic access pattern cannot alias with the sampling), and scale by
/// the exact call count: a clock read costs more than many of the calls
/// it would time.
pub const ADAPTER_SAMPLE: u64 = 32;

/// Calls through one layer boundary: how many were made, how many were
/// timed, and the timed ones' summed durations and clock cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub spans: u64,
    /// Summed durations of the timed calls, in nanoseconds.
    pub ns: u64,
    /// Summed cost of one clock read, measured right before each timed
    /// call (the part of its duration that is the clock, not the call).
    pub clock_ns: u64,
}

impl Span {
    /// Estimated time inside all calls: each timed duration less its own
    /// clock cost, scaled from the timed calls to all calls.
    pub fn estimate_ns(&self) -> f64 {
        if self.spans == 0 {
            return 0.0;
        }
        (self.ns as f64 - self.clock_ns as f64) * self.calls as f64 / self.spans as f64
    }

    /// Wall time the clock reads of the timed calls added to the code
    /// around them.
    fn clock_overhead_ns(&self, cost: &SpanCost) -> f64 {
        cost.per_clock * self.clock_ns as f64
    }
}

/// A sampled call that took longer than this was interrupted — no TLB
/// operation takes a tenth of a millisecond — so it is dropped rather than
/// scaled up by the sampling period into a phantom layer cost.
const INTERRUPTED_NS: u64 = 100_000;

/// Distinct sampler seeds per timer, so the reps of a deterministic replay
/// time different calls and their medians average the sampling error out.
static NEXT_SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

/// A span accumulator timing one call in `period`. Interior-mutable so
/// `&self` trait methods (`peek_run`) can be timed too.
///
/// A timed call reads the clock three times: twice back to back before
/// the call, once after. The first interval is one clock read in the
/// call's own context (cache and pipeline state included), which a
/// tight-loop calibration cannot see.
#[derive(Debug)]
struct Timer {
    period: u64,
    rng: Cell<u64>,
    calls: Cell<u64>,
    spans: Cell<u64>,
    ns: Cell<u64>,
    clock_ns: Cell<u64>,
}

impl Timer {
    fn every(period: u64) -> Timer {
        // xorshift needs a nonzero state; odd increments never reach zero.
        let seed = NEXT_SEED.fetch_add(0x6A09_E667_F3BC_C909, Ordering::SeqCst) | 1;
        Timer {
            period,
            rng: Cell::new(seed),
            calls: Cell::new(0),
            spans: Cell::new(0),
            ns: Cell::new(0),
            clock_ns: Cell::new(0),
        }
    }

    /// Counts a call and opens a span if this call is sampled: the start
    /// instant and the in-place cost of one clock read.
    #[inline]
    fn start(&self) -> Option<(Instant, u64)> {
        self.calls.set(self.calls.get() + 1);
        if self.period > 1 {
            let mut x = self.rng.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng.set(x);
            if !(x >> 32).is_multiple_of(self.period) {
                return None;
            }
        }
        let t0 = Instant::now();
        let t1 = Instant::now();
        Some((t1, nanos(t1.duration_since(t0))))
    }

    /// Closes the span [`Timer::start`] opened, if any. Sampled spans
    /// longer than [`INTERRUPTED_NS`] are dropped.
    #[inline]
    fn stop(&self, start: Option<(Instant, u64)>) {
        if let Some((t1, clock)) = start {
            let d = nanos(t1.elapsed());
            if self.period > 1 && d.max(clock) > INTERRUPTED_NS {
                return;
            }
            self.ns.set(self.ns.get().saturating_add(d));
            self.clock_ns.set(self.clock_ns.get().saturating_add(clock));
            self.spans.set(self.spans.get() + 1);
        }
    }

    fn total(&self) -> Span {
        Span {
            calls: self.calls.get(),
            spans: self.spans.get(),
            ns: self.ns.get(),
            clock_ns: self.clock_ns.get(),
        }
    }
}

/// What tracing costs beyond what each span measures about itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Wall time a timed span costs the code around it, per nanosecond of
    /// its own clock reading (three clock reads plus bookkeeping).
    pub per_clock: f64,
    /// Wall time an untimed wrapped call adds: the adapter's extra
    /// dispatch and sampling.
    pub dispatch_ns: f64,
}

/// A TLB that holds nothing: the wrapped device of the adapter
/// calibration.
struct Null;

impl TlbDevice for Null {
    fn name(&self) -> &str {
        "null"
    }

    fn lookup(&mut self, _vpn: Vpn, _kind: AccessKind) -> Lookup {
        Lookup::Miss
    }

    fn fill(&mut self, _vpn: Vpn, _requested: &Translation, _line: &[Translation]) {}

    fn invalidate(&mut self, _vpn: Vpn, _size: PageSize) {}

    fn flush(&mut self) {}

    fn invalidate_sets(&self, _vpn: Vpn, _size: PageSize) -> u64 {
        1
    }

    fn stats(&self) -> TlbStats {
        TlbStats::default()
    }

    fn reset_stats(&mut self) {}
}

/// Wall time per `lookup_asid` call on `device`, over `calls` calls.
fn per_call_ns(device: &mut dyn TlbDevice, calls: u32) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        let vpn = Vpn::new(u64::from(i));
        std::hint::black_box(device.lookup_asid(Asid::UNTAGGED, vpn, AccessKind::Load, 0));
    }
    start.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// Measures [`SpanCost`] as the median of seven rounds of 100k empty
/// timed spans, and of 100k lookups through a never-sampling wrapped
/// versus a bare no-op device.
pub fn calibrate() -> SpanCost {
    const CALLS: u32 = 100_000;
    let mut per_clock = Vec::with_capacity(7);
    let mut dispatch = Vec::with_capacity(7);
    for _ in 0..7 {
        let timer = Timer::every(1);
        let start = Instant::now();
        for _ in 0..CALLS {
            let t = timer.start();
            std::hint::black_box(&timer).stop(t);
        }
        let wall = start.elapsed().as_nanos() as f64;
        per_clock.push(wall / timer.total().clock_ns.max(1) as f64);

        let mut bare: Box<dyn TlbDevice> = std::hint::black_box(Box::new(Null));
        let bare_ns = per_call_ns(bare.as_mut(), CALLS);
        let null = TlbHierarchy::new("null", Box::new(Null), None);
        let (wrapped, _probes) = wrap_sampled(null, Mode::Time, u64::MAX);
        let mut l1 = std::hint::black_box(wrapped).l1;
        dispatch.push((per_call_ns(l1.as_mut(), CALLS) - bare_ns).max(0.0));
    }
    SpanCost {
        per_clock: median(&per_clock),
        dispatch_ns: median(&dispatch),
    }
}

/// What a wrapped TLB level does besides forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Time probe and fill calls.
    Time,
    /// Log lookup outcomes for the walk replay.
    Log,
}

/// One logged lookup outcome, in engine order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Logged {
    /// An L1 miss; the next L2 record says how it resolved.
    L1Miss,
    /// An L2 hit without a micro-op.
    L2Hit,
    /// A store hit a clean entry: a PTE dirty-bit micro-op.
    Dirty(Vpn),
    /// An L2 miss: a page-table walk.
    Walk(Vpn, AccessKind),
}

/// Page-table work the engine did below the TLBs, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOp {
    /// A walk for the page, with the access kind that missed.
    Walk(Vpn, AccessKind),
    /// A dirty-bit micro-op on the page's PTE.
    Dirty(Vpn),
}

/// Where an adapter leaves its counters when the engine drops it.
#[derive(Debug, Default)]
struct Sink {
    probe: Span,
    fill: Span,
    log: Vec<Logged>,
}

/// A [`TlbDevice`] that forwards every trait method unchanged to the
/// wrapped level and records probe/fill spans (or lookup outcomes) into
/// fixed counters, handing them to a shared sink once, when dropped.
struct Traced {
    inner: Box<dyn TlbDevice>,
    mode: Mode,
    is_l1: bool,
    probe: Timer,
    fill: Timer,
    log: Vec<Logged>,
    sink: Arc<Mutex<Sink>>,
}

impl Traced {
    fn note(&mut self, vpn: Vpn, kind: AccessKind, result: &Lookup) {
        if self.mode != Mode::Log {
            return;
        }
        let logged = match *result {
            Lookup::Hit {
                dirty_microop: true,
                ..
            } => Some(Logged::Dirty(vpn)),
            Lookup::Hit { .. } if self.is_l1 => None,
            Lookup::Hit { .. } => Some(Logged::L2Hit),
            Lookup::Miss if self.is_l1 => Some(Logged::L1Miss),
            Lookup::Miss => Some(Logged::Walk(vpn, kind)),
        };
        if let Some(logged) = logged {
            self.log.push(logged);
        }
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        sink.probe = self.probe.total();
        sink.fill = self.fill.total();
        sink.log = std::mem::take(&mut self.log);
    }
}

impl TlbDevice for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        let t = self.probe.start();
        let result = self.inner.lookup(vpn, kind);
        self.probe.stop(t);
        self.note(vpn, kind, &result);
        result
    }

    fn lookup_pc(&mut self, vpn: Vpn, kind: AccessKind, pc: u64) -> Lookup {
        let t = self.probe.start();
        let result = self.inner.lookup_pc(vpn, kind, pc);
        self.probe.stop(t);
        self.note(vpn, kind, &result);
        result
    }

    fn fill(&mut self, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        let t = self.fill.start();
        self.inner.fill(vpn, requested, line);
        self.fill.stop(t);
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.inner.invalidate(vpn, size);
    }

    fn peek_run(&self, vpn: Vpn) -> Option<CoalescedRun> {
        let t = self.fill.start();
        let run = self.inner.peek_run(vpn);
        self.fill.stop(t);
        run
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn lookup_asid(&mut self, asid: Asid, vpn: Vpn, kind: AccessKind, pc: u64) -> Lookup {
        let t = self.probe.start();
        let result = self.inner.lookup_asid(asid, vpn, kind, pc);
        self.probe.stop(t);
        self.note(vpn, kind, &result);
        result
    }

    fn fill_asid(&mut self, asid: Asid, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        let t = self.fill.start();
        self.inner.fill_asid(asid, vpn, requested, line);
        self.fill.stop(t);
    }

    fn invalidate_asid(&mut self, asid: Asid, vpn: Vpn, size: PageSize) {
        self.inner.invalidate_asid(asid, vpn, size);
    }

    fn flush_asid(&mut self, asid: Asid) {
        self.inner.flush_asid(asid);
    }

    fn supports_asids(&self) -> bool {
        self.inner.supports_asids()
    }

    fn lookup_batch(&mut self, asid: Asid, batch: &[BatchAccess], out: &mut Vec<Lookup>) -> usize {
        let base = out.len();
        let t = self.probe.start();
        let consumed = self.inner.lookup_batch(asid, batch, out);
        self.probe.stop(t);
        if self.mode == Mode::Log {
            for (access, result) in batch.iter().zip(&out[base..]) {
                self.note(access.vpn, access.kind, result);
            }
        }
        consumed
    }

    fn invalidate_sets(&self, vpn: Vpn, size: PageSize) -> u64 {
        self.inner.invalidate_sets(vpn, size)
    }

    fn flush_sets(&self) -> u64 {
        self.inner.flush_sets()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn stats(&self) -> TlbStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// The shared sinks of one wrapped hierarchy.
#[derive(Debug)]
pub struct Probes {
    l1: Arc<Mutex<Sink>>,
    l2: Arc<Mutex<Sink>>,
}

/// Probe and fill spans of both TLB levels, plus the page-table work the
/// logged lookups imply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreSpans {
    /// L1 probe calls.
    pub l1_probe: Span,
    /// L1 fill calls.
    pub l1_fill: Span,
    /// L2 probe calls.
    pub l2_probe: Span,
    /// L2 fill and `peek_run` calls.
    pub l2_fill: Span,
    /// Walks and dirty micro-ops in engine order ([`Mode::Log`] only).
    pub ops: Vec<WalkOp>,
}

impl Probes {
    /// Reads the sinks after the engine (and with it the adapters) has
    /// been dropped, merging the two levels' logs into engine order: each
    /// L1 miss is resolved by the next L2 record.
    pub fn collect(self) -> CoreSpans {
        let l1 = self.l1.lock().unwrap_or_else(PoisonError::into_inner);
        let l2 = self.l2.lock().unwrap_or_else(PoisonError::into_inner);
        let mut l2_log = l2.log.iter();
        let mut ops = Vec::with_capacity(l2.log.len());
        for logged in &l1.log {
            let resolved = match *logged {
                Logged::L1Miss => l2_log.next().copied(),
                other => Some(other),
            };
            match resolved {
                Some(Logged::Dirty(vpn)) => ops.push(WalkOp::Dirty(vpn)),
                Some(Logged::Walk(vpn, kind)) => ops.push(WalkOp::Walk(vpn, kind)),
                _ => {}
            }
        }
        CoreSpans {
            l1_probe: l1.probe,
            l1_fill: l1.fill,
            l2_probe: l2.probe,
            l2_fill: l2.fill,
            ops,
        }
    }
}

/// Wraps both levels of `hierarchy` in the tracing adapter, timing one
/// call in [`ADAPTER_SAMPLE`].
pub fn wrap(hierarchy: TlbHierarchy, mode: Mode) -> (TlbHierarchy, Probes) {
    wrap_sampled(hierarchy, mode, ADAPTER_SAMPLE)
}

fn wrap_sampled(hierarchy: TlbHierarchy, mode: Mode, period: u64) -> (TlbHierarchy, Probes) {
    let name = hierarchy.name().to_owned();
    let entries = hierarchy.total_entries();
    let probes = Probes {
        l1: Arc::default(),
        l2: Arc::default(),
    };
    let adapt = |inner: Box<dyn TlbDevice>, is_l1: bool, sink: &Arc<Mutex<Sink>>| {
        Box::new(Traced {
            inner,
            mode,
            is_l1,
            probe: Timer::every(period),
            fill: Timer::every(period),
            log: Vec::new(),
            sink: Arc::clone(sink),
        }) as Box<dyn TlbDevice>
    };
    let l1 = adapt(hierarchy.l1, true, &probes.l1);
    let l2 = hierarchy.l2.map(|l2| adapt(l2, false, &probes.l2));
    (
        TlbHierarchy::new(&name, l1, l2).with_entries(entries),
        probes,
    )
}

/// Spans of one timed stream replay (whose wall time, open to last
/// block, is the replay's `wall_ns`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSpans {
    /// `BlockReader::read_block` calls.
    pub read: Span,
    /// `decode_block` calls.
    pub decode: Span,
    /// `translate_batch` calls.
    pub translate: Span,
    /// Adapter spans inside the engine.
    pub core: CoreSpans,
}

/// The synchronous stream loop with every stage spanned, over a
/// hierarchy wrapped in [`Mode::Time`] adapters.
///
/// # Errors
///
/// Propagates open/read/decode failures of the trace file.
pub fn timed_stream(
    hierarchy: TlbHierarchy,
    pt: &PageTable,
    trace: &Path,
) -> io::Result<(Replay, StreamSpans)> {
    let (hierarchy, probes) = wrap(hierarchy, Mode::Time);
    let mut pt = pt.clone();
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
    let mut raw = RawBlock::new();
    let mut events: Vec<TraceEvent> = Vec::with_capacity(V2_BLOCK_EVENTS);
    let mut out: Vec<Option<PhysAddr>> = Vec::with_capacity(V2_BLOCK_EVENTS);
    let mut digest = Digest::default();
    let (read, decode, translate) = (Timer::every(1), Timer::every(1), Timer::every(1));
    let start = Instant::now();
    let mut reader = BlockReader::open(trace)?;
    loop {
        let t = read.start();
        let more = reader.read_block(&mut raw)?;
        read.stop(t);
        if !more {
            break;
        }
        let t = decode.start();
        decode_block(&raw, &mut events)?;
        decode.stop(t);
        out.clear();
        let t = translate.start();
        engine.translate_batch(&events, &mut out);
        translate.stop(t);
        digest.add_all(&out);
    }
    let wall_ns = nanos(start.elapsed());
    let (stats, l1, l2, caches) = engine.finish();
    let replay = Replay {
        wall_ns,
        digest,
        stats,
        l1,
        l2,
        caches,
    };
    let spans = StreamSpans {
        read: read.total(),
        decode: decode.total(),
        translate: translate.total(),
        core: probes.collect(),
    };
    Ok((replay, spans))
}

/// The stream path over a hierarchy wrapped in [`Mode::Log`] adapters:
/// the replay plus its walks and dirty micro-ops in engine order.
///
/// # Errors
///
/// Propagates open/read/decode failures of the trace file.
pub fn logged_stream(
    hierarchy: TlbHierarchy,
    pt: &PageTable,
    trace: &Path,
) -> io::Result<(Replay, Vec<WalkOp>)> {
    let (hierarchy, probes) = wrap(hierarchy, Mode::Log);
    let replay = replay::stream(hierarchy, pt, trace, None)?;
    Ok((replay, probes.collect().ops))
}

/// The walk and cache replay of one design's logged page-table work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalkReplay {
    /// Time in `Walker::walk` and `PageTable::set_dirty`, in ns.
    pub walk_ns: u64,
    /// Time in `PageWalkCache::access`, in ns.
    pub pwc_ns: u64,
    /// Time in `CacheHierarchy::access`, in ns.
    pub mem_ns: u64,
    /// Walks replayed.
    pub walks: u64,
    /// PTE reads the walker issued.
    pub pte_reads: u64,
    /// PTE accessed/dirty-bit writes the walker issued.
    pub walk_writes: u64,
    /// Dirty micro-ops replayed.
    pub dirty_ops: u64,
    /// Of which found the PTE's dirty bit clear and wrote it.
    pub dirty_writes: u64,
    /// Upper-level reads offered to the PWC.
    pub pwc_lookups: u64,
    /// Of which hit.
    pub pwc_hits: u64,
    /// Reads that reached the cache hierarchy, by hit level.
    pub read_hits: [u64; 3],
    /// Reads that went to DRAM.
    pub dram_reads: u64,
    /// Statistics of the replayed cache hierarchy.
    pub caches: mixtlb_cache::HierarchyStats,
}

/// Replays `ops` in order on a fresh clone of `pt`, then the resulting
/// memory references through a fresh PWC and cache hierarchy, exactly as
/// the engine issues them.
pub fn replay_walks(pt: &PageTable, ops: &[WalkOp]) -> WalkReplay {
    let mut pt = pt.clone();
    // Memory references in engine order: a walk's reads (all but the last
    // are upper-level and probe the PWC first), then its writes; a dirty
    // micro-op writes its PTE when the bit was still clear. The buffer is
    // touched before the timed loop (a walk issues at most four reads and
    // two writes), and each walk result is dropped as soon as its
    // references are copied out, as in the engine — so the loop times
    // walks, not page faults or allocator growth.
    let mut refs: Vec<(PhysAddr, Ref)> = vec![(PhysAddr::new(0), Ref::Write); ops.len() * 6];
    refs.clear();
    let (mut walks, mut pte_reads, mut walk_writes) = (0u64, 0u64, 0u64);
    let (mut dirty_ops, mut dirty_writes) = (0u64, 0u64);
    let start = Instant::now();
    for op in ops {
        match *op {
            WalkOp::Walk(vpn, kind) => {
                let walk = Walker::walk(&mut pt, VirtAddr::from_page(vpn, 0), kind);
                let last = walk.pte_reads.len().saturating_sub(1);
                for (i, pa) in walk.pte_reads.iter().enumerate() {
                    refs.push((*pa, if i == last { Ref::Leaf } else { Ref::Upper }));
                }
                refs.extend(walk.pte_writes.iter().map(|pa| (*pa, Ref::Write)));
                walks += 1;
                pte_reads += walk.pte_reads.len() as u64;
                walk_writes += walk.pte_writes.len() as u64;
            }
            WalkOp::Dirty(vpn) => {
                if let Some(pa) = pt.set_dirty(vpn) {
                    refs.push((pa, Ref::Write));
                    dirty_writes += 1;
                }
                dirty_ops += 1;
            }
        }
    }
    let walk_ns = nanos(start.elapsed());

    let upper: Vec<PhysAddr> = refs
        .iter()
        .filter(|(_, r)| *r == Ref::Upper)
        .map(|(pa, _)| *pa)
        .collect();
    let mut pwc = PageWalkCache::new(32);
    let mut pwc_hit = Vec::with_capacity(upper.len());
    let start = Instant::now();
    for pa in &upper {
        pwc_hit.push(pwc.access(*pa));
    }
    let pwc_ns = nanos(start.elapsed());

    let mut hits = pwc_hit.iter();
    let mem: Vec<(PhysAddr, bool)> = refs
        .iter()
        .filter(|(_, r)| *r != Ref::Upper || hits.next() == Some(&false))
        .map(|(pa, r)| (*pa, *r != Ref::Write))
        .collect();
    let mut caches = CacheHierarchy::new(HierarchyConfig::haswell());
    let mut read_hits = [0u64; 3];
    let mut dram_reads = 0u64;
    let start = Instant::now();
    for (pa, is_read) in &mem {
        let result = caches.access(*pa);
        if *is_read {
            match result.level_hit {
                Some(level) => read_hits[level.min(2)] += 1,
                None => dram_reads += 1,
            }
        }
    }
    let mem_ns = nanos(start.elapsed());
    WalkReplay {
        walk_ns,
        pwc_ns,
        mem_ns,
        walks,
        pte_reads,
        walk_writes,
        dirty_ops,
        dirty_writes,
        pwc_lookups: upper.len() as u64,
        pwc_hits: pwc_hit.iter().filter(|h| **h).count() as u64,
        read_hits,
        dram_reads,
        caches: caches.stats(),
    }
}

impl WalkReplay {
    /// PTE reads that reached the cache hierarchy: PWC misses plus the
    /// leaf read of every walk.
    pub fn memory_reads(&self) -> u64 {
        (self.pwc_lookups - self.pwc_hits) + (self.pte_reads - self.pwc_lookups)
    }
}

/// Kind of a replayed memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ref {
    Upper,
    Leaf,
    Write,
}

/// One design's traced rep.
#[derive(Debug, Clone)]
pub struct DesignTrace {
    /// Design name.
    pub design: &'static str,
    /// The untraced stream replay.
    pub reference: Replay,
    /// Its per-block `translate_batch` times, in ns.
    pub block_ns: Vec<u64>,
    /// The span-timed stream replay.
    pub timed: Replay,
    /// Its spans.
    pub spans: StreamSpans,
    /// The logging replay.
    pub logged: Replay,
    /// Walk and cache replay of the logged page-table work.
    pub walks: WalkReplay,
    /// The work-stealing replay.
    pub parallel: Parallel,
}

/// Runs one design's traced rep.
///
/// # Errors
///
/// Propagates trace-file failures of any of the stream replays.
pub fn trace_design(
    design: &'static str,
    factory: fn() -> TlbHierarchy,
    pt: &PageTable,
    trace: &Path,
    events: &[TraceEvent],
    cores: usize,
) -> io::Result<DesignTrace> {
    let mut block_ns = Vec::with_capacity(events.len().div_ceil(V2_BLOCK_EVENTS));
    let reference = replay::stream(factory(), pt, trace, Some(&mut block_ns))?;
    let (timed, spans) = timed_stream(factory(), pt, trace)?;
    let (logged, ops) = logged_stream(factory(), pt, trace)?;
    let walks = replay_walks(pt, &ops);
    let parallel = replay::parallel(factory, pt, events, cores);
    Ok(DesignTrace {
        design,
        reference,
        block_ns,
        timed,
        spans,
        logged,
        walks,
        parallel,
    })
}

impl DesignTrace {
    /// Every way the traced replays differ from the untraced one: the
    /// wrapped hierarchies must translate and count exactly like the
    /// unwrapped one, and the walk/cache replay must reproduce the
    /// engine's walk count, walk traffic and cache statistics.
    pub fn faithfulness_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let r = &self.reference;
        for (label, other) in [("timed", &self.timed), ("logged", &self.logged)] {
            if other.digest != r.digest {
                errors.push(format!("{label} replay translated differently"));
            }
            if other.stats != r.stats {
                errors.push(format!("{label} replay engine stats differ"));
            }
            if other.l1 != r.l1 || other.l2 != r.l2 {
                errors.push(format!("{label} replay TLB stats differ"));
            }
        }
        let w = &self.walks;
        let traffic = r.stats.walk_traffic;
        let mut check = |ok: bool, what: String| {
            if !ok {
                errors.push(what);
            }
        };
        check(
            w.walks == r.stats.walks,
            format!(
                "{} walks replayed, engine walked {}",
                w.walks, r.stats.walks
            ),
        );
        check(
            w.dirty_ops == r.stats.dirty_microops,
            format!(
                "{} micro-ops replayed, engine raised {}",
                w.dirty_ops, r.stats.dirty_microops
            ),
        );
        check(
            w.memory_reads() == traffic.total_reads(),
            format!(
                "{} PWC misses + leaf reads replayed, engine read {}",
                w.memory_reads(),
                traffic.total_reads()
            ),
        );
        check(
            w.read_hits == traffic.cache_hits && w.dram_reads == traffic.dram_accesses,
            "replayed read hit levels differ from the engine's walk traffic".to_owned(),
        );
        check(
            w.walk_writes + w.dirty_writes == traffic.pte_writes,
            format!(
                "{} walker + {} micro-op PTE writes replayed, engine wrote {}",
                w.walk_writes, w.dirty_writes, traffic.pte_writes
            ),
        );
        check(
            w.caches == r.caches,
            "replayed cache hierarchy statistics differ from the engine's".to_owned(),
        );
        errors
    }

    /// Calibrated layer times of this design, in ns.
    fn layer_ns(&self, cost: SpanCost) -> LayerNs {
        let s = &self.spans;
        let core_spans = [
            s.core.l1_probe,
            s.core.l1_fill,
            s.core.l2_probe,
            s.core.l2_fill,
        ];
        let core = core_spans.map(|sp| sp.estimate_ns());
        // Each wrapped call costs the enclosing translate span its extra
        // dispatch, and each timed one its clock reads.
        let core_overhead: f64 = core_spans
            .iter()
            .map(|sp| sp.clock_overhead_ns(&cost) + sp.calls as f64 * cost.dispatch_ns)
            .sum();
        let translate = s.translate.estimate_ns() - core_overhead;
        let outer: f64 = [s.read, s.decode, s.translate]
            .iter()
            .map(|sp| sp.estimate_ns() + sp.clock_overhead_ns(&cost))
            .sum();
        let (walk, pwc, mem) = (
            self.walks.walk_ns as f64,
            self.walks.pwc_ns as f64,
            self.walks.mem_ns as f64,
        );
        LayerNs {
            read: s.read.estimate_ns(),
            decode: s.decode.estimate_ns(),
            handoff: self.timed.wall_ns as f64 - outer,
            translate,
            core,
            walk,
            pwc,
            mem,
            engine_self: translate - core.iter().sum::<f64>() - walk - pwc - mem,
        }
    }
}

/// One design's calibrated layer times, in ns.
#[derive(Debug, Clone, Copy)]
struct LayerNs {
    read: f64,
    decode: f64,
    handoff: f64,
    translate: f64,
    /// L1 probe, L1 fill, L2 probe, L2 fill.
    core: [f64; 4],
    walk: f64,
    pwc: f64,
    mem: f64,
    engine_self: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The nearest-rank percentile `p` (0–100) of `xs`.
fn percentile(xs: &mut [u64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1] as f64
}

/// The 23 design-dependent per-layer values over a set of designs, in
/// [`DESIGN_LAYER`] order.
fn design_values(traces: &[&DesignTrace], cost: SpanCost) -> [f64; DESIGN_LAYER.len()] {
    let mut sum = [0.0f64; 9];
    let mut blocks: Vec<u64> = Vec::new();
    let (mut acc, mut window, mut stall, mut l1_hits, mut l1_lookups) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut l2_hits, mut read, mut probes, mut written, mut fills) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut dirty, mut serial, mut walks, mut pte_reads) = (0u64, 0u64, 0u64, 0u64);
    let (mut pwc_lookups, mut pwc_hits, mut dram) = (0u64, 0u64, 0u64);
    for t in traces {
        let l = t.layer_ns(cost);
        let times = [
            l.translate,
            l.engine_self,
            l.core[0],
            l.core[1],
            l.core[2],
            l.core[3],
            l.walk,
            l.pwc,
            l.mem,
        ];
        for (s, x) in sum.iter_mut().zip(times) {
            *s += x;
        }
        blocks.extend_from_slice(&t.block_ns);
        let r = &t.reference;
        let l2 = r.l2.unwrap_or_default();
        acc += r.stats.accesses;
        window += r.stats.accesses.saturating_sub(r.l1.lookups);
        stall += r.stats.stall_cycles;
        l1_hits += r.l1.hits;
        l1_lookups += r.l1.lookups;
        l2_hits += r.stats.l2_hits;
        read += r.l1.entries_read + l2.entries_read;
        probes += r.l1.lookups + l2.lookups;
        written += r.l1.entries_written + l2.entries_written;
        fills += r.l1.fills + l2.fills;
        dirty += r.stats.dirty_microops;
        serial += r.l1.serial_probes + l2.serial_probes;
        walks += r.stats.walks;
        pte_reads += t.walks.pte_reads;
        pwc_lookups += t.walks.pwc_lookups;
        pwc_hits += t.walks.pwc_hits;
        dram += t.walks.dram_reads;
    }
    let n = acc as f64;
    let per_k = |x: u64| ratio(1000.0 * x as f64, n);
    [
        ratio(sum[0], n),
        ratio(sum[1], n),
        percentile(&mut blocks, 50.0) / 1000.0,
        percentile(&mut blocks, 99.0) / 1000.0,
        ratio(window as f64, n),
        ratio(stall as f64, n),
        ratio(sum[2], n),
        ratio(sum[3], n),
        ratio(sum[4], n),
        ratio(sum[5], n),
        ratio(l1_hits as f64, l1_lookups as f64),
        per_k(l2_hits),
        ratio(read as f64, probes as f64),
        ratio(written as f64, fills as f64),
        per_k(dirty),
        per_k(serial),
        ratio(sum[6], n),
        per_k(walks),
        ratio(pte_reads as f64, walks as f64),
        ratio(sum[7], n),
        ratio(sum[8], n),
        ratio(pwc_hits as f64, pwc_lookups as f64),
        ratio(dram as f64, walks as f64),
    ]
}

/// Every per-layer value of one traced rep, in the order
/// [`crate::metrics::per_layer_names`] names them.
pub fn layer_values(
    traces: &[DesignTrace],
    cost: SpanCost,
    trace_bytes: u64,
    events: usize,
) -> Vec<f64> {
    let (mut read, mut decode, mut handoff, mut translate) = (0.0, 0.0, 0.0, 0.0);
    let (mut timed_wall, mut ref_wall, mut par_wall) = (0.0, 0.0, 0.0);
    let (mut steals, mut chunks, mut imbalance, mut acc) = (0u64, 0u64, 0.0, 0u64);
    for t in traces {
        let l = t.layer_ns(cost);
        read += l.read;
        decode += l.decode;
        handoff += l.handoff;
        translate += l.translate;
        timed_wall += t.timed.wall_ns as f64;
        ref_wall += t.reference.wall_ns as f64;
        par_wall += t.parallel.wall_ns as f64;
        acc += t.reference.stats.accesses;
        let cores = &t.parallel.report.cores;
        steals += t.parallel.report.total_steals();
        chunks += cores.iter().map(|c| c.chunks.len() as u64).sum::<u64>();
        let per_core = cores.iter().map(|c| c.engine.accesses);
        let (lo, hi) = per_core.fold((u64::MAX, 0), |(lo, hi), a| (lo.min(a), hi.max(a)));
        imbalance += ratio(hi as f64, lo.max(1) as f64);
    }
    let n = acc as f64;
    let mut values = vec![
        ratio(read, n),
        ratio(decode, n),
        ratio(trace_bytes as f64, events as f64),
        ratio(handoff, n),
        ratio(translate, par_wall),
        ratio(1000.0 * steals as f64, chunks as f64),
        ratio(imbalance, traces.len() as f64),
        ratio(timed_wall, ref_wall) - 1.0,
        ratio(read + decode + handoff + translate, ref_wall),
    ];
    debug_assert_eq!(values.len(), SHARED_LAYER.len());
    let all: Vec<&DesignTrace> = traces.iter().collect();
    values.extend(design_values(&all, cost));
    for (design, _) in LAYER_DESIGNS {
        let one: Vec<&DesignTrace> = traces.iter().filter(|t| t.design == design).collect();
        values.extend(design_values(&one, cost));
    }
    values
}
