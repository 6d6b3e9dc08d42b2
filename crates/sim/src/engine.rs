//! The translation engine: trace replay against a TLB hierarchy with
//! page-table walks through the cache hierarchy.

use mixtlb_cache::{AccessResult, CacheHierarchy, HierarchyConfig, HierarchyStats, PageWalkCache};
use mixtlb_core::{BatchAccess, Lookup, MixTlb, MixTlbConfig, TlbDevice, TlbStats};
use mixtlb_energy::WalkTraffic;
use mixtlb_pagetable::{
    NestedTranslationCache, NestedWalkResult, NestedWalker, PageTable, WalkResult, Walker,
};
use mixtlb_trace::TraceEvent;
use mixtlb_types::{AccessKind, Asid, PageSize, Pfn, PhysAddr, Translation, VirtAddr, Vpn};

/// The batched-replay reuse window: one resolved 4 KB page whose frame is
/// precomputed, so consecutive accesses to the same page splice their
/// offset onto the frame instead of re-probing. `serves_stores` is set
/// only when the seeding probe *hit* an already-dirty entry — then a
/// consecutive store's probe provably cannot raise a dirty micro-op, so
/// skipping it is invisible. Miss-resolved seeds never serve stores: a
/// coalescing fill may merge into a clean run entry, and the first store
/// must probe so the entry's own dirty bit transitions.
#[derive(Clone, Copy)]
struct ReuseWindow {
    vpn: Vpn,
    frame: Pfn,
    serves_stores: bool,
}

/// Seeds the reuse window from a just-resolved access, precomputing the
/// backing frame of its 4 KB page.
#[inline]
fn seed_window(vpn: Vpn, translation: &Translation, from_dirty_hit: bool) -> Option<ReuseWindow> {
    translation.frame_for(vpn).map(|frame| ReuseWindow {
        vpn,
        frame,
        serves_stores: from_dirty_hit,
    })
}

/// A two-level TLB hierarchy under test.
pub struct TlbHierarchy {
    name: String,
    /// The L1 TLB.
    pub l1: Box<dyn TlbDevice>,
    /// The L2 TLB, if present.
    pub l2: Option<Box<dyn TlbDevice>>,
    total_entries: usize,
}

impl std::fmt::Debug for TlbHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlbHierarchy")
            .field("name", &self.name)
            .field("l1", &self.l1.name())
            .field("l2", &self.l2.as_ref().map(|t| t.name().to_owned()))
            .finish()
    }
}

impl TlbHierarchy {
    /// Assembles a hierarchy. `total_entries` (for leakage) is derived from
    /// the devices' [`TlbDevice::capacity`]; designs that do not report a
    /// capacity fall back to the Haswell budget of 644. Override with
    /// [`TlbHierarchy::with_entries`].
    pub fn new(
        name: &str,
        l1: Box<dyn TlbDevice>,
        l2: Option<Box<dyn TlbDevice>>,
    ) -> TlbHierarchy {
        let derived = l1.capacity() + l2.as_ref().map_or(0, |t| t.capacity());
        TlbHierarchy {
            name: name.to_owned(),
            l1,
            l2,
            total_entries: if derived > 0 { derived } else { 644 },
        }
    }

    /// Sets the total entry count used for leakage accounting.
    pub fn with_entries(mut self, entries: usize) -> TlbHierarchy {
        self.total_entries = entries;
        self
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total entries across levels (leakage accounting).
    pub fn total_entries(&self) -> usize {
        self.total_entries
    }

    /// Number of TLB sets a shootdown of the page at `vpn`/`size` must
    /// probe across both levels — the per-core hardware invalidation cost
    /// during an IPI (MIX hierarchies sweep every set for superpages).
    pub fn invalidate_sets(&self, vpn: Vpn, size: PageSize) -> u64 {
        self.l1.invalidate_sets(vpn, size)
            + self.l2.as_ref().map_or(0, |t| t.invalidate_sets(vpn, size))
    }

    /// Sets a full flush of both levels must visit — the saturation point
    /// of a batched shootdown sweep (see [`mixtlb_core::TlbDevice::flush_sets`]).
    pub fn flush_sets(&self) -> u64 {
        self.l1.flush_sets() + self.l2.as_ref().map_or(0, |t| t.flush_sets())
    }

    /// Both levels' statistics (the L2's when there is one).
    pub fn stats(&self) -> (TlbStats, Option<TlbStats>) {
        (self.l1.stats(), self.l2.as_ref().map(|t| t.stats()))
    }

    /// The stall cycles of the serial probes an L1 and an L2 counted: 2
    /// cycles per L1 rehash, an L2 access per L2 rehash. Callers charge
    /// them when their stats are read, never per access.
    pub fn serial_stall_cycles(l1: &TlbStats, l2: Option<&TlbStats>) -> u64 {
        2 * l1.serial_probes + L2_HIT_CYCLES * l2.map_or(0, |t| t.serial_probes)
    }

    /// [`TlbHierarchy::serial_stall_cycles`] of both levels' counts so
    /// far. It only grows.
    pub fn serial_stalls(&self) -> u64 {
        let (l1, l2) = self.stats();
        TlbHierarchy::serial_stall_cycles(&l1, l2.as_ref())
    }

    /// Whether every level honours ASID tags — only then can a context
    /// switch skip the flush (x86 PCID semantics).
    pub fn supports_asids(&self) -> bool {
        self.l1.supports_asids() && self.l2.as_ref().is_none_or(|t| t.supports_asids())
    }
}

/// The L2 TLB's access latency in cycles (Sec. 4): charged on every L1
/// miss that probes it, and once more per serial L2 rehash.
const L2_HIT_CYCLES: u64 = 7;

/// What sits below the TLBs on a miss: how a walk is produced, where a PTE
/// read or write goes and what it costs, and how a dirty-bit write reaches
/// the page table. [`TlbHierarchy::access`] sequences everything above it
/// once, for every caller; [`EngineBelow`] is the single-core side, an SMP
/// core supplies its private caches and the shared LLC.
pub trait BelowTlbs {
    /// Walks the page table for `va` (through [`WalkBackend::walk`]).
    fn walk(&mut self, va: VirtAddr, kind: AccessKind) -> UnifiedWalk;
    /// Whether the paging-structure cache serves the upper-level PTE read
    /// at `pa` (always `false` without one).
    fn pwc_hit(&mut self, pa: PhysAddr) -> bool;
    /// One walk reference through the data caches: the stall cycles it
    /// charges and the cache level that served it (`None`: memory).
    fn reference(&mut self, pa: PhysAddr) -> AccessResult;
    /// Sets the dirty bit in `vpn`'s PTE (through
    /// [`WalkBackend::set_dirty`]) and sends the write through the caches,
    /// off the critical path. Returns whether a PTE was written.
    fn write_dirty_bit(&mut self, vpn: Vpn) -> bool;

    /// A store hit an entry whose dirty bit is clear: write the PTE's
    /// dirty bit (off the critical path — cache traffic and energy, not
    /// stall cycles; Sec. 4.4).
    #[inline]
    fn dirty_microop(&mut self, stats: &mut EngineStats, vpn: Vpn) {
        stats.dirty_microops += 1;
        if self.write_dirty_bit(vpn) {
            stats.walk_traffic.pte_writes += 1;
        }
    }

    /// Walks for `ev` and charges the walk's references. All PTE reads but
    /// the last are upper-level paging structures; the paging-structure
    /// cache serves most of them in a cycle without touching the memory
    /// hierarchy. A fault (no translation) is counted.
    fn charged_walk(&mut self, stats: &mut EngineStats, ev: &TraceEvent) -> UnifiedWalk {
        stats.walks += 1;
        let walk = self.walk(ev.va, ev.kind);
        let last = walk.pte_reads().len().saturating_sub(1);
        for (i, pa) in walk.pte_reads().iter().enumerate() {
            if i != last && self.pwc_hit(*pa) {
                stats.stall_cycles += 1;
                continue;
            }
            let result = self.reference(*pa);
            stats.stall_cycles += result.cycles;
            match result.level_hit {
                Some(level) => stats.walk_traffic.cache_hits[level.min(2)] += 1,
                None => stats.walk_traffic.dram_accesses += 1,
            }
        }
        for pa in walk.pte_writes() {
            stats.stall_cycles += self.reference(*pa).cycles;
            stats.walk_traffic.pte_writes += 1;
        }
        stats.faults += u64::from(walk.translation().is_none());
        walk
    }
}

impl TlbHierarchy {
    /// Translates one trace event under `asid`: the L1 probe, then on a
    /// miss the L2 probe, walk and fills. Returns the physical address,
    /// or `None` on a page fault (which is also counted). Charges no
    /// serial-probe stalls; the caller reads those from the devices
    /// ([`TlbHierarchy::serial_stall_cycles`]).
    #[inline]
    pub fn access<B: BelowTlbs>(
        &mut self,
        asid: Asid,
        below: &mut B,
        stats: &mut EngineStats,
        ev: &TraceEvent,
    ) -> Option<PhysAddr> {
        stats.accesses += 1;
        let vpn = ev.va.vpn();
        if let Lookup::Hit {
            translation,
            dirty_microop: dirty,
            ..
        } = self.l1.lookup_asid(asid, vpn, ev.kind, ev.pc)
        {
            if dirty {
                below.dirty_microop(stats, vpn);
            }
            stats.l1_hits += 1;
            return translation.translate(ev.va).ok();
        }
        self.resolve_miss(asid, below, stats, ev)
            .and_then(|translation| translation.translate(ev.va).ok())
    }

    /// Everything below an L1 miss: the L2 probe, the page-table walk, and
    /// the refills, with their stall/traffic accounting. Shared verbatim by
    /// [`TlbHierarchy::access`] and [`TranslationEngine::translate_batch`]
    /// so the paths cannot drift. Returns the resolving translation, or
    /// `None` on a fault.
    fn resolve_miss<B: BelowTlbs>(
        &mut self,
        asid: Asid,
        below: &mut B,
        stats: &mut EngineStats,
        ev: &TraceEvent,
    ) -> Option<Translation> {
        let vpn = ev.va.vpn();
        if let Some(l2) = self.l2.as_mut() {
            stats.stall_cycles += L2_HIT_CYCLES;
            if let Lookup::Hit {
                translation,
                dirty_microop: dirty,
                run,
            } = l2.lookup_asid(asid, vpn, ev.kind, ev.pc)
            {
                if dirty {
                    below.dirty_microop(stats, vpn);
                }
                stats.l2_hits += 1;
                // Refill L1 from the L2 hit. A coalescing L2 entry hands
                // its whole run down, so a MIX L1 can absorb the bundle
                // instead of a lone translation.
                match run {
                    Some(run) if run.len > 1 => {
                        self.l1.fill_run_asid(asid, vpn, &translation, &run);
                    }
                    _ => self.l1.fill_asid(asid, vpn, &translation, &[translation]),
                }
                return Some(translation);
            }
        }
        let walk = below.charged_walk(stats, ev);
        let translation = walk.translation()?;
        if let Some(l2) = self.l2.as_mut() {
            l2.fill_asid(asid, vpn, &translation, walk.line());
            // A coalescing L2 may have merged this fill into an entry that
            // already covered neighbouring translations; hand the merged
            // run down so the L1 absorbs the full extent (same datapath
            // as an L2-hit handdown).
            if let Some(run) = l2.peek_run_asid(asid, vpn) {
                if run.len as usize > walk.line().len() {
                    self.l1.fill_run_asid(asid, vpn, &translation, &run);
                    return Some(translation);
                }
            }
        }
        self.l1.fill_asid(asid, vpn, &translation, walk.line());
        Some(translation)
    }
}

/// Which page-table structure misses walk.
pub enum WalkBackend<'a> {
    /// A native 4-level walk.
    Native(&'a mut PageTable),
    /// A virtualized 2-D walk: guest table + host (EPT) table.
    Nested {
        /// The guest's page table (guest virtual → guest physical).
        guest: &'a mut PageTable,
        /// The host's nested table (guest physical → system physical).
        host: &'a mut PageTable,
    },
}

impl std::fmt::Debug for WalkBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkBackend::Native(_) => write!(f, "WalkBackend::Native"),
            WalkBackend::Nested { .. } => write!(f, "WalkBackend::Nested"),
        }
    }
}

impl WalkBackend<'_> {
    /// Walks `va`. A 2-D walk looks guest-physical addresses up in
    /// `ntlb` first, when there is one.
    pub fn walk(
        &mut self,
        ntlb: Option<&mut dyn TlbDevice>,
        va: VirtAddr,
        kind: AccessKind,
    ) -> UnifiedWalk {
        match self {
            WalkBackend::Native(pt) => UnifiedWalk::Native(Walker::walk(pt, va, kind)),
            WalkBackend::Nested { guest, host } => UnifiedWalk::Nested(match ntlb {
                Some(ntlb) => {
                    NestedWalker::walk_cached(guest, host, va, kind, &mut NtlbAdapter(ntlb))
                }
                None => NestedWalker::walk(guest, host, va, kind),
            }),
        }
    }

    /// Sets the dirty bit in `vpn`'s leaf PTE. Returns the PTE's
    /// (system-)physical address, or `None` if `vpn` is unmapped.
    pub fn set_dirty(&mut self, vpn: Vpn) -> Option<PhysAddr> {
        match self {
            WalkBackend::Native(pt) => pt.set_dirty(vpn),
            WalkBackend::Nested { guest, host } => {
                // The guest PTE's dirty bit lives at a guest-physical
                // address; route the write through the EPT mapping.
                guest.set_dirty(vpn).and_then(|gpa| {
                    host.lookup(Vpn::new(gpa.pfn().raw()))
                        .and_then(|h| h.translate(VirtAddr::new(gpa.raw())).ok())
                })
            }
        }
    }
}

/// Adapts any [`TlbDevice`] into the nested-walker's gPA→sPA cache.
struct NtlbAdapter<'a>(&'a mut dyn TlbDevice);

impl NestedTranslationCache for NtlbAdapter<'_> {
    fn lookup_gpa(&mut self, gpn: Vpn) -> Option<Translation> {
        match self.0.lookup(gpn, AccessKind::Load) {
            Lookup::Hit { translation, .. } => Some(translation),
            Lookup::Miss => None,
        }
    }

    fn fill_gpa(&mut self, gpn: Vpn, t: &Translation, line: &[Translation]) {
        self.0.fill(gpn, t, line);
    }
}

impl std::fmt::Debug for TranslationEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranslationEngine")
            .field("hierarchy", &self.hierarchy)
            .field("backend", &self.below.backend)
            .finish()
    }
}

/// A native or nested walk's result, read through one interface.
#[expect(
    clippy::large_enum_variant,
    reason = "a walk result lives on the stack for one miss; boxing the nested one would allocate per walk"
)]
#[derive(Debug)]
pub enum UnifiedWalk {
    /// A native 4-level walk.
    Native(WalkResult),
    /// A 2-D walk.
    Nested(NestedWalkResult),
}

impl UnifiedWalk {
    /// The translation found, or `None` on a fault.
    pub fn translation(&self) -> Option<Translation> {
        match self {
            UnifiedWalk::Native(w) => w.translation,
            UnifiedWalk::Nested(w) => w.translation,
        }
    }

    /// PTE reads, root first: all but the last are upper-level paging
    /// structures.
    pub fn pte_reads(&self) -> &[PhysAddr] {
        match self {
            UnifiedWalk::Native(w) => &w.pte_reads,
            UnifiedWalk::Nested(w) => &w.pte_reads,
        }
    }

    /// PTE writes (accessed/dirty-bit updates).
    pub fn pte_writes(&self) -> &[PhysAddr] {
        match self {
            UnifiedWalk::Native(w) => &w.pte_writes,
            UnifiedWalk::Nested(w) => &w.pte_writes,
        }
    }

    /// The leaf translations of the requested PTE's cache line, which a
    /// coalescing TLB may fill together.
    pub fn line(&self) -> &[Translation] {
        match self {
            UnifiedWalk::Native(w) => &w.line_translations,
            UnifiedWalk::Nested(w) => &w.line_translations,
        }
    }
}

/// Event counters for one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Trace events replayed.
    pub accesses: u64,
    /// L1 TLB hits.
    pub l1_hits: u64,
    /// L2 TLB hits (on L1 misses).
    pub l2_hits: u64,
    /// Page-table walks (misses at every level).
    pub walks: u64,
    /// Walks that faulted (should be zero after pre-faulting).
    pub faults: u64,
    /// Translation stall cycles: L2 probe latency on L1 misses plus the
    /// memory-reference latency of walks.
    pub stall_cycles: u64,
    /// Walk memory traffic, for the energy model.
    pub walk_traffic: WalkTraffic,
    /// Dirty-bit update micro-ops injected on store hits.
    pub dirty_microops: u64,
}

/// A single core's side below the TLBs: a walk backend, the Haswell cache
/// hierarchy PTE references go through, and the MMU caches.
pub struct EngineBelow<'a> {
    caches: CacheHierarchy,
    /// Paging-structure cache: upper-level PTE reads that hit here cost
    /// one cycle and no memory reference (Haswell's MMU caches). `None`
    /// disables it (an ablation: pre-MMU-cache hardware).
    pwc: Option<PageWalkCache>,
    /// Nested TLB (gPA → sPA, AMD-NPT style), consulted by 2-D walks so
    /// guest PTE reads do not each pay a full host walk. Part of the MMU,
    /// shared by every design under test. `None` disables it.
    ntlb: Option<Box<dyn TlbDevice>>,
    backend: WalkBackend<'a>,
}

impl<'a> EngineBelow<'a> {
    /// Walks `backend` behind a 32-entry PWC, a nested TLB for 2-D walks,
    /// and the Haswell cache hierarchy.
    pub fn new(backend: WalkBackend<'a>) -> EngineBelow<'a> {
        EngineBelow {
            caches: CacheHierarchy::new(HierarchyConfig::haswell()),
            pwc: Some(PageWalkCache::new(32)),
            ntlb: Some(Box::new(MixTlb::new(
                MixTlbConfig::l1(8, 4).named("nested-tlb"),
            ))),
            backend,
        }
    }
}

impl BelowTlbs for EngineBelow<'_> {
    fn walk(&mut self, va: VirtAddr, kind: AccessKind) -> UnifiedWalk {
        let ntlb = self.ntlb.as_deref_mut().map(|t| t as &mut dyn TlbDevice);
        self.backend.walk(ntlb, va, kind)
    }

    fn pwc_hit(&mut self, pa: PhysAddr) -> bool {
        self.pwc.as_mut().is_some_and(|pwc| pwc.access(pa))
    }

    fn reference(&mut self, pa: PhysAddr) -> AccessResult {
        self.caches.access(pa)
    }

    fn write_dirty_bit(&mut self, vpn: Vpn) -> bool {
        let pte = self.backend.set_dirty(vpn);
        pte.map(|pa| self.caches.access(pa)).is_some()
    }
}

/// Replays trace events against a [`TlbHierarchy`], walking the configured
/// [`WalkBackend`] on misses. PTE references go through a functional cache
/// hierarchy; the latencies they see become translation stall cycles
/// (paper Sec. 6.2).
pub struct TranslationEngine<'a> {
    hierarchy: TlbHierarchy,
    below: EngineBelow<'a>,
    /// The devices' serial-probe stalls when the engine took them.
    serial_base: u64,
    /// Tag for lookups and fills. [`Asid::UNTAGGED`] (the default)
    /// reproduces untagged hardware exactly.
    asid: Asid,
    stats: EngineStats,
    /// `translate_batch`'s staging buffers: one chunk of probes and their
    /// results, allocated once here rather than per call.
    batch_scratch: Vec<BatchAccess>,
    lookup_scratch: Vec<Lookup>,
}

/// `translate_batch`'s probe-chunk cap: keeps the staging buffers
/// cache-resident.
const CHUNK: usize = 256;

impl<'a> TranslationEngine<'a> {
    /// Creates an engine over a hierarchy and a walk backend, with the
    /// Haswell cache hierarchy and a 7-cycle L2 TLB latency (Sec. 4).
    pub fn new(hierarchy: TlbHierarchy, backend: WalkBackend<'a>) -> TranslationEngine<'a> {
        let serial_base = hierarchy.serial_stalls();
        TranslationEngine {
            hierarchy,
            below: EngineBelow::new(backend),
            serial_base,
            asid: Asid::UNTAGGED,
            stats: EngineStats::default(),
            batch_scratch: Vec::with_capacity(CHUNK),
            lookup_scratch: Vec::with_capacity(CHUNK),
        }
    }

    /// Sets the address-space identifier tagging subsequent lookups and
    /// fills — the PCID of the running process. On designs whose devices
    /// ignore tags this is a no-op (see [`TlbHierarchy::supports_asids`]).
    pub fn set_asid(&mut self, asid: Asid) {
        self.asid = asid;
    }

    /// Whether the hierarchy under test honours ASID tags.
    pub fn supports_asids(&self) -> bool {
        self.hierarchy.supports_asids()
    }

    /// The hierarchy under test.
    pub fn hierarchy(&self) -> &TlbHierarchy {
        &self.hierarchy
    }

    /// Disables the paging-structure cache (ablation: every walk reference
    /// goes through the memory hierarchy).
    pub fn disable_pwc(&mut self) {
        self.below.pwc = None;
    }

    /// Disables the nested TLB (ablation: every guest-physical access of a
    /// 2-D walk pays a full host walk — the canonical 24 references).
    pub fn disable_nested_tlb(&mut self) {
        self.below.ntlb = None;
    }

    /// Flushes every TLB level (a context switch on hardware without
    /// ASIDs/PCIDs, or a full shootdown). MMU caches (PWC, nested TLB)
    /// are flushed too; data caches survive, as on real hardware.
    pub fn flush_tlbs(&mut self) {
        self.hierarchy.l1.flush();
        if let Some(l2) = self.hierarchy.l2.as_mut() {
            l2.flush();
        }
        if let Some(pwc) = self.below.pwc.as_mut() {
            pwc.flush();
        }
        if let Some(ntlb) = self.below.ntlb.as_mut() {
            ntlb.flush();
        }
    }

    /// Translates one trace event. Returns the physical address, or `None`
    /// on a page fault (which is also counted). Serial-probe stalls are
    /// charged when the stats are read ([`TranslationEngine::stats`]).
    pub fn access(&mut self, ev: &TraceEvent) -> Option<PhysAddr> {
        self.hierarchy
            .access(self.asid, &mut self.below, &mut self.stats, ev)
    }

    /// Replays a batch of events.
    pub fn run<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        for ev in events {
            self.access(&ev);
        }
    }

    /// Translates a slice of trace events, appending one physical address
    /// (or `None` for a fault) per event to `out` — the batched
    /// counterpart of calling [`TranslationEngine::access`] in a loop,
    /// with two hot-loop savings:
    ///
    /// * L1 probes go through [`TlbDevice::lookup_batch`], so the replay
    ///   loop pays one dynamic dispatch per chunk instead of per access.
    /// * A run of *immediately consecutive* accesses to the same 4 KB page
    ///   reuses the previous access's resolution instead of re-probing —
    ///   sound because nothing can intervene between consecutive accesses
    ///   of one batch: the scalar path's repeat probe is a guaranteed hit
    ///   on the same entry, its LRU re-touch preserves relative recency
    ///   order, and its duplicate sweep is a no-op. Stores take the window
    ///   only when it was seeded by a probe hit on an already-dirty entry
    ///   (so no dirty micro-op can fire). A fault, or an access left to
    ///   the scalar fallback, clears it.
    ///
    /// Per-access results and [`EngineStats`] match the scalar path
    /// exactly for every non-predictive design whose L1 hits never rehash
    /// (window hits count as L1 hits). A window hit skips its probe, so it
    /// skips an L1 rehash's stall and a predictor's training, which can
    /// only alter serial-probe stalls, never presence or translations.
    pub fn translate_batch(&mut self, events: &[TraceEvent], out: &mut Vec<Option<PhysAddr>>) {
        // Pre-size the output and write by index: every event owns exactly
        // one slot (slot i = events[i]), faults simply stay `None`, and the
        // hot loops avoid `push`'s per-element capacity check — on the
        // replay fast path that check costs more than the translation.
        let base = out.len();
        out.resize(base + events.len(), None);
        let out = &mut out[base..];
        // The staging buffers live in the engine, sized once at
        // construction; taken here so the miss path may borrow the engine.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        let mut lookups = std::mem::take(&mut self.lookup_scratch);
        let mut window: Option<ReuseWindow> = None;
        let mut i = 0usize;
        while i < events.len() {
            // Fast path: drain the whole run of accesses the reuse window
            // serves in one tight loop — the frame of the window's 4 KB
            // page is precomputed at seed time, so each served access is a
            // page-number compare plus an offset splice, with one stats
            // update for the run.
            if let Some(w) = window {
                let run_start = i;
                while let Some(ev) = events.get(i) {
                    if ev.va.vpn() != w.vpn || (!w.serves_stores && ev.kind.is_store()) {
                        break;
                    }
                    out[i] = Some(PhysAddr::from_page(
                        w.frame,
                        ev.va.page_offset(PageSize::Size4K),
                    ));
                    i += 1;
                }
                let served = (i - run_start) as u64;
                self.stats.accesses += served;
                self.stats.l1_hits += served;
                if i >= events.len() {
                    break;
                }
            }
            // Stage a chunk of probes, stopping before any access the
            // reuse window should serve (same page as its predecessor,
            // not a store) so the fast path above gets it.
            batch.clear();
            let mut j = i;
            while j < events.len() && batch.len() < CHUNK {
                let e = &events[j];
                if j > i && e.va.vpn() == events[j - 1].va.vpn() && !e.kind.is_store() {
                    break;
                }
                batch.push(BatchAccess {
                    vpn: e.va.vpn(),
                    kind: e.kind,
                    pc: e.pc,
                });
                j += 1;
            }
            // Probe the staged chunk. The device consumes accesses up to
            // and including its first miss; after resolving that miss,
            // continue from the next staged access — the staged copies
            // are immutable, so nothing needs re-staging.
            let mut pos = 0usize;
            while pos < batch.len() {
                lookups.clear();
                let consumed =
                    self.hierarchy
                        .l1
                        .lookup_batch(self.asid, &batch[pos..], &mut lookups);
                if consumed == 0 {
                    // A conforming device always consumes at least one
                    // access; fall back to the scalar path so a degenerate
                    // implementation still makes forward progress. The
                    // window must not outlive the access it skips.
                    out[i + pos] = self.access(&events[i + pos]);
                    window = None;
                    pos += 1;
                    continue;
                }
                for (k, result) in lookups.iter().enumerate() {
                    let ev = &events[i + pos + k];
                    self.stats.accesses += 1;
                    match *result {
                        Lookup::Hit {
                            translation,
                            dirty_microop: dirty,
                            ..
                        } => {
                            if dirty {
                                self.below.dirty_microop(&mut self.stats, ev.va.vpn());
                            }
                            self.stats.l1_hits += 1;
                            out[i + pos + k] = translation.translate(ev.va).ok();
                            window = seed_window(ev.va.vpn(), &translation, translation.dirty);
                        }
                        Lookup::Miss => {
                            let resolved = self.hierarchy.resolve_miss(
                                self.asid,
                                &mut self.below,
                                &mut self.stats,
                                ev,
                            );
                            out[i + pos + k] = resolved.and_then(|t| t.translate(ev.va).ok());
                            window = resolved.and_then(|t| seed_window(ev.va.vpn(), &t, false));
                        }
                    }
                }
                pos += consumed;
            }
            i += batch.len();
        }
        self.batch_scratch = batch;
        self.lookup_scratch = lookups;
    }

    /// Finishes the run: engine counters, per-level TLB stats, and cache
    /// statistics.
    pub fn finish(self) -> (EngineStats, TlbStats, Option<TlbStats>, HierarchyStats) {
        let (l1, l2) = self.hierarchy.stats();
        (self.stats(), l1, l2, self.below.caches.stats())
    }

    /// The running counters (without consuming the engine). Serial-probe
    /// stalls are charged here, from the probes the devices counted since
    /// the engine took them ([`TlbHierarchy::serial_stalls`]).
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.stall_cycles += self.hierarchy.serial_stalls() - self.serial_base;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixtlb_core::{MixTlb, MixTlbConfig};
    use mixtlb_pagetable::BumpFrameSource;
    use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation};

    fn small_world() -> (PageTable, BumpFrameSource) {
        let mut frames = BumpFrameSource::new(0x10_0000);
        let mut pt = PageTable::new(&mut frames);
        for i in 0..4u64 {
            pt.map(
                Translation::new(
                    Vpn::new(0x400 + i * 512),
                    Pfn::new(0x8000 + i * 512),
                    PageSize::Size2M,
                    Permissions::rw_user(),
                ),
                &mut frames,
            )
            .unwrap();
        }
        (pt, frames)
    }

    fn hierarchy() -> TlbHierarchy {
        TlbHierarchy::new(
            "mix-test",
            Box::new(MixTlb::new(MixTlbConfig::l1(4, 2))),
            Some(Box::new(MixTlb::new(MixTlbConfig::l2(16, 4)))),
        )
    }

    #[test]
    fn with_entries_overrides_leakage_accounting() {
        let h = hierarchy();
        let derived = h.total_entries();
        assert!(derived > 0);
        let h = h.with_entries(1000);
        assert_eq!(h.total_entries(), 1000);
    }

    fn ev(va: u64, kind: AccessKind) -> TraceEvent {
        TraceEvent {
            pc: 0x40_0000,
            va: VirtAddr::new(va),
            kind,
        }
    }

    #[test]
    fn translation_is_correct_through_all_paths() {
        let (mut pt, _frames) = small_world();
        let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
        let va = 0x400u64 * 4096 + 0x123;
        // Cold: walk.
        let pa = engine.access(&ev(va, AccessKind::Load)).unwrap();
        assert_eq!(pa.raw(), 0x8000u64 * 4096 + 0x123);
        // Warm: L1 hit yields the same PA.
        let pa2 = engine.access(&ev(va, AccessKind::Load)).unwrap();
        assert_eq!(pa, pa2);
        let stats = engine.stats();
        assert_eq!(stats.walks, 1);
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.faults, 0);
    }

    #[test]
    fn a_merged_run_is_handed_only_to_its_own_space() {
        // Space 1 maps four contiguous 2 MB pages; space 2 maps only the
        // first, on the same frame. Space 1's run sits in the L2 first.
        let (p1, p2) = (Asid::new(1), Asid::new(2));
        let mut hierarchy = hierarchy();
        let run: Vec<Translation> = (0..4u64)
            .map(|i| {
                Translation::new(
                    Vpn::new(0x400 + i * 512),
                    Pfn::new(0x8000 + i * 512),
                    PageSize::Size2M,
                    Permissions::rw_user(),
                )
            })
            .collect();
        if let Some(l2) = hierarchy.l2.as_mut() {
            l2.fill_asid(p1, run[0].vpn, &run[0], &run);
        }
        let mut frames = BumpFrameSource::new(0x10_0000);
        let mut pt = PageTable::new(&mut frames);
        pt.map(run[0], &mut frames).unwrap();
        let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
        engine.set_asid(p2);
        // Space 2's walk fills the L2; the L1 refill must take space 2's
        // one-page run, not space 1's four pages.
        assert!(engine.access(&ev(0x400 * 4096, AccessKind::Load)).is_some());
        // So space 2's unmapped neighbour faults instead of hitting a
        // translation it never had.
        assert_eq!(engine.access(&ev(0x600 * 4096, AccessKind::Load)), None);
        let stats = engine.stats();
        assert_eq!((stats.l1_hits, stats.walks, stats.faults), (0, 2, 1));
    }

    #[test]
    fn stall_cycles_shrink_as_tlbs_warm() {
        let (mut pt, _frames) = small_world();
        let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
        let va = 0x400u64 * 4096;
        engine.access(&ev(va, AccessKind::Load));
        let cold = engine.stats().stall_cycles;
        engine.access(&ev(va, AccessKind::Load));
        assert_eq!(engine.stats().stall_cycles, cold, "L1 hits stall nothing");
    }

    #[test]
    fn faults_are_counted_not_fatal() {
        let (mut pt, _frames) = small_world();
        let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
        assert!(engine.access(&ev(0x9999_9000, AccessKind::Load)).is_none());
        assert_eq!(engine.stats().faults, 1);
    }

    #[test]
    fn store_dirty_microops_touch_the_page_table() {
        let (mut pt, _frames) = small_world();
        {
            let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
            let va = 0x400u64 * 4096;
            engine.access(&ev(va, AccessKind::Load)); // fill (clean)
            engine.access(&ev(va, AccessKind::Store)); // hit: micro-op
            let stats = engine.stats();
            assert_eq!(stats.dirty_microops, 1);
            assert_eq!(stats.walk_traffic.pte_writes, 1);
        }
        assert!(pt.lookup(Vpn::new(0x400)).unwrap().dirty);
    }

    #[test]
    fn walk_traffic_reaches_dram_when_cold() {
        let (mut pt, _frames) = small_world();
        let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
        engine.access(&ev(0x400u64 * 4096, AccessKind::Load));
        let t = engine.stats().walk_traffic;
        assert!(t.dram_accesses > 0);
        assert_eq!(t.total_reads(), 3); // 2 MB leaf: 3 PTE reads
    }

    #[test]
    fn coalescing_turns_neighbour_misses_into_hits() {
        // After walking superpage 0 (whose PTE cache line holds all 4
        // contiguous superpages), the other three are TLB hits: the L1's
        // 4-superpage bundle covers two of them, and the L2's 16-superpage
        // bundle covers the rest — no further walks.
        let (mut pt, _frames) = small_world();
        let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
        engine.access(&ev(0x400u64 * 4096, AccessKind::Load));
        for i in 1..4u64 {
            engine.access(&ev((0x400 + i * 512) * 4096, AccessKind::Load));
        }
        let stats = engine.stats();
        assert_eq!(stats.walks, 1);
        assert_eq!(stats.l1_hits + stats.l2_hits, 3);
        assert!(stats.l1_hits >= 1);
    }

    /// Two 2 MB pages sharing PML4/PDPT/PD nodes but living in different
    /// PTE cache lines *and* different coalescing bundles, so the second
    /// access misses the TLBs and walks.
    fn two_distant_superpages() -> (PageTable, mixtlb_pagetable::BumpFrameSource) {
        use mixtlb_types::{PageSize, Permissions, Pfn};
        let mut frames = mixtlb_pagetable::BumpFrameSource::new(0x10_0000);
        let mut pt = PageTable::new(&mut frames);
        for idx in [2u64, 18] {
            pt.map(
                Translation::new(
                    Vpn::new(idx * 512),
                    Pfn::new(0x8000 + idx * 512),
                    PageSize::Size2M,
                    Permissions::rw_user(),
                ),
                &mut frames,
            )
            .unwrap();
        }
        (pt, frames)
    }

    #[test]
    fn pwc_serves_upper_levels_after_warmup() {
        let (mut pt, _frames) = two_distant_superpages();
        let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
        // First walk: all 3 PTE reads go through the memory hierarchy.
        engine.access(&ev(2 * 512 * 4096, AccessKind::Load));
        let first = engine.stats().walk_traffic.total_reads();
        assert_eq!(first, 3);
        // The distant superpage misses the TLBs; its walk's PML4 and PDPT
        // reads hit the PWC, so only the leaf PD read touches memory.
        engine.access(&ev(18 * 512 * 4096, AccessKind::Load));
        assert_eq!(engine.stats().walks, 2, "second access must walk");
        let second = engine.stats().walk_traffic.total_reads() - first;
        assert_eq!(second, 1, "PWC must absorb the upper-level reads");
    }

    #[test]
    fn disabling_the_pwc_restores_full_walk_traffic() {
        let (mut pt, _frames) = two_distant_superpages();
        let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
        engine.disable_pwc();
        engine.access(&ev(2 * 512 * 4096, AccessKind::Load));
        engine.access(&ev(18 * 512 * 4096, AccessKind::Load));
        assert_eq!(engine.stats().walks, 2);
        assert_eq!(engine.stats().walk_traffic.total_reads(), 6);
    }

    #[test]
    fn serial_probes_cost_extra_l2_latency() {
        use mixtlb_core::{MultiProbeConfig, MultiProbeTlb};
        // L2 = hash-rehash of all sizes: a 2 MB hit needs 2 serial probes.
        let (mut pt, _frames) = small_world();
        let h = TlbHierarchy::new(
            "hr-test",
            Box::new(MixTlb::new(MixTlbConfig::l1(4, 2))),
            Some(Box::new(MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4)))),
        );
        let mut engine = TranslationEngine::new(h, WalkBackend::Native(&mut pt));
        let va = 0x400u64 * 4096;
        engine.access(&ev(va, AccessKind::Load)); // cold walk
        let after_walk = engine.stats().stall_cycles;
        // Evict from L1 by flushing it, then hit the hash-rehash L2: the
        // 2 MB entry is found on the SECOND probe, costing 2 x 7 cycles.
        engine.hierarchy.l1.flush();
        engine.access(&ev(va, AccessKind::Load));
        assert_eq!(engine.stats().stall_cycles - after_walk, 14);
        assert_eq!(engine.stats().l2_hits, 1);
    }

    fn hash_rehash_hierarchy(l1_ways: usize) -> TlbHierarchy {
        use mixtlb_core::{MultiProbeConfig, MultiProbeTlb};
        TlbHierarchy::new(
            "hr-test",
            Box::new(MultiProbeTlb::new(MultiProbeConfig::all_sizes(4, l1_ways))),
            Some(Box::new(MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4)))),
        )
    }

    #[test]
    fn stall_cycles_charge_each_serial_probe_when_read() {
        // Both levels probe 4 KB, then 2 MB, then 1 GB, so a 2 MB hit is
        // one rehash and a miss is two.
        let (mut pt, _frames) = small_world();
        let mut engine =
            TranslationEngine::new(hash_rehash_hierarchy(2), WalkBackend::Native(&mut pt));
        let va = 0x400u64 * 4096;
        engine.access(&ev(va, AccessKind::Load)); // cold walk
        let mut expected = engine.stats().stall_cycles;
        // L1 miss (2 rehashes), the L2 access, and an L2 miss (2 rehashes
        // at 7 cycles each) come before the walk's own cycles.
        assert!(expected > 2 * 2 + 7 + 7 * 2);
        // (flush the L1 first?, address, stall cycles the access adds)
        let steps = [
            (false, va, 2),            // L1 hit on the second probe
            (false, va + 0x1000, 2),   // same 2 MB page
            (true, va, 2 * 2 + 7 + 7), // L1 miss, L2 hit on the second probe
            (false, va + 0x2345, 2),
        ];
        for (flush, addr, charge) in steps {
            if flush {
                engine.hierarchy.l1.flush();
            }
            engine.access(&ev(addr, AccessKind::Load));
            expected += charge;
            assert_eq!(engine.stats().stall_cycles, expected, "after {addr:#x}");
        }
        let (stats, ..) = engine.finish();
        assert_eq!(stats.stall_cycles, expected);
    }

    #[test]
    fn serial_probes_counted_before_the_engine_are_not_charged() {
        use mixtlb_core::{MultiProbeConfig, MultiProbeTlb};
        let (mut pt, _frames) = small_world();
        let superpage = Translation::new(
            Vpn::new(0x400),
            Pfn::new(0x8000),
            PageSize::Size2M,
            Permissions::rw_user(),
        );
        let mut l1 = MultiProbeTlb::new(MultiProbeConfig::all_sizes(4, 2));
        l1.fill(superpage.vpn, &superpage, &[superpage]);
        l1.lookup(Vpn::new(0x400), AccessKind::Load); // hit: 1 rehash
        l1.lookup(Vpn::new(0x9_9999), AccessKind::Load); // miss: 2 rehashes
        let mut l2 = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4));
        l2.lookup(Vpn::new(0x9_9999), AccessKind::Load); // miss: 2 rehashes
        let h = TlbHierarchy::new("hr-used", Box::new(l1), Some(Box::new(l2)));
        let mut engine = TranslationEngine::new(h, WalkBackend::Native(&mut pt));
        assert_eq!(engine.stats().stall_cycles, 0);
        engine.access(&ev(0x400 * 4096, AccessKind::Load)); // hit: 1 rehash
        assert_eq!(engine.stats().stall_cycles, 2);
        let (stats, l1, l2, _) = engine.finish();
        assert_eq!(stats.stall_cycles, 2);
        assert_eq!(l1.serial_probes, 4);
        assert_eq!(l2.map(|s| s.serial_probes), Some(2));
    }

    /// Delegates to an inner device, except that its `lookup_batch`
    /// consumes nothing on every other call — the degenerate device the
    /// scalar fallback in `translate_batch` exists for.
    struct HalfStalled {
        inner: Box<dyn TlbDevice>,
        stall: bool,
    }

    impl TlbDevice for HalfStalled {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
            self.inner.lookup(vpn, kind)
        }
        fn lookup_pc(&mut self, vpn: Vpn, kind: AccessKind, pc: u64) -> Lookup {
            self.inner.lookup_pc(vpn, kind, pc)
        }
        fn lookup_asid(&mut self, asid: Asid, vpn: Vpn, kind: AccessKind, pc: u64) -> Lookup {
            self.inner.lookup_asid(asid, vpn, kind, pc)
        }
        fn lookup_batch(
            &mut self,
            asid: Asid,
            batch: &[BatchAccess],
            out: &mut Vec<Lookup>,
        ) -> usize {
            self.stall = !self.stall;
            if self.stall {
                0
            } else {
                self.inner.lookup_batch(asid, batch, out)
            }
        }
        fn fill(&mut self, vpn: Vpn, requested: &Translation, line: &[Translation]) {
            self.inner.fill(vpn, requested, line);
        }
        fn fill_asid(
            &mut self,
            asid: Asid,
            vpn: Vpn,
            requested: &Translation,
            line: &[Translation],
        ) {
            self.inner.fill_asid(asid, vpn, requested, line);
        }
        fn fill_run_asid(
            &mut self,
            asid: Asid,
            vpn: Vpn,
            requested: &Translation,
            run: &mixtlb_core::CoalescedRun,
        ) {
            self.inner.fill_run_asid(asid, vpn, requested, run);
        }
        fn peek_run(&self, vpn: Vpn) -> Option<mixtlb_core::CoalescedRun> {
            self.inner.peek_run(vpn)
        }
        fn peek_run_asid(&self, asid: Asid, vpn: Vpn) -> Option<mixtlb_core::CoalescedRun> {
            self.inner.peek_run_asid(asid, vpn)
        }
        fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
            self.inner.invalidate(vpn, size);
        }
        fn flush(&mut self) {
            self.inner.flush();
        }
        fn invalidate_sets(&self, vpn: Vpn, size: PageSize) -> u64 {
            self.inner.invalidate_sets(vpn, size)
        }
        fn stats(&self) -> TlbStats {
            self.inner.stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats();
        }
    }

    /// A store-heavy trace over 48 scattered 4 KB pages, the four 2 MB
    /// pages of [`small_world`] and one unmapped page. Most of it is
    /// `page, other page, page (load)` triples whose middle page indexes
    /// the same L1 set as the outer one, so a 1-way L1 evicts the outer
    /// page in between; the rest is superpage accesses, faults and a few
    /// same-page loads.
    fn store_heavy_trace(len: usize) -> Vec<TraceEvent> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let small = |k: u64, r: u64| ((0x1_0000 + k % 48 * 5) << 12) | (r % 4096);
        let mut events: Vec<TraceEvent> = Vec::with_capacity(len + 2);
        while events.len() < len {
            let r = next();
            let mut kind = || {
                if next() % 8 < 5 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                }
            };
            match r % 32 {
                0..=23 => {
                    let k = r >> 8;
                    let va = small(k, r >> 3);
                    events.push(ev(va, kind()));
                    events.push(ev(small(k + 4 * (1 + r % 11), r >> 5), kind()));
                    events.push(ev(va ^ 0x88, AccessKind::Load));
                }
                24..=27 => {
                    let page = 0x400 + (r >> 3) % 4 * 512 + (r >> 5) % 512;
                    events.push(ev((page << 12) | ((r >> 14) % 4096), kind()));
                }
                28..=30 => events.push(ev(0x9999_9000, kind())),
                _ => {
                    let va = events.last().map_or(0, |e| e.va.raw() ^ 0x40);
                    events.push(ev(va, AccessKind::Load));
                }
            }
        }
        events
    }

    #[test]
    fn batch_fallback_matches_scalar() {
        let events = store_heavy_trace(4000);
        // Without same-page runs every probe chunk is full, and the
        // window serves nothing unless it goes stale.
        let mut distinct = events.clone();
        distinct.dedup_by_key(|e| e.va.vpn());
        fn half_stalled(l1: Box<dyn TlbDevice>, stalled: bool) -> Box<dyn TlbDevice> {
            if stalled {
                Box::new(HalfStalled {
                    inner: l1,
                    stall: false,
                })
            } else {
                l1
            }
        }
        let mix: fn(bool) -> TlbHierarchy = |stalled| {
            let l1 = Box::new(MixTlb::new(MixTlbConfig::l1(4, 1)));
            let l2 = Box::new(MixTlb::new(MixTlbConfig::l2(16, 4)));
            TlbHierarchy::new("mix-1way", half_stalled(l1, stalled), Some(l2))
        };
        let hash_rehash: fn(bool) -> TlbHierarchy = |stalled| {
            let h = hash_rehash_hierarchy(1);
            TlbHierarchy::new("hr-1way", half_stalled(h.l1, stalled), h.l2)
        };
        // A window hit skips its probe, and on a hash-rehash L1 also the
        // rehash stall the scalar path charges with it: over same-page
        // runs only batched `stall_cycles` may differ, and only downward.
        for (build, events, window_skips_rehash) in [
            (mix, &events, false),
            (mix, &distinct, false),
            (hash_rehash, &distinct, false),
            (hash_rehash, &events, true),
        ] {
            let (mut pt_a, mut frames) = small_world();
            for k in 0..48u64 {
                pt_a.map(
                    Translation::new(
                        Vpn::new(0x1_0000 + k * 5),
                        Pfn::new(0x2_0000 + k * 7),
                        PageSize::Size4K,
                        Permissions::rw_user(),
                    ),
                    &mut frames,
                )
                .unwrap();
            }
            let mut pt_b = pt_a.clone();
            let mut scalar = TranslationEngine::new(build(false), WalkBackend::Native(&mut pt_a));
            let expected: Vec<_> = events.iter().map(|e| scalar.access(e)).collect();
            let mut batched = TranslationEngine::new(build(true), WalkBackend::Native(&mut pt_b));
            let mut got = Vec::new();
            batched.translate_batch(events, &mut got);
            let name = scalar.hierarchy().name().to_owned();
            assert_eq!(got, expected, "{name}: physical addresses");
            let (want, got) = (scalar.stats(), batched.stats());
            assert!(
                want.faults > 0 && want.dirty_microops > 0 && want.l2_hits > 0,
                "{name}: {want:?}"
            );
            if window_skips_rehash {
                assert!(
                    got.stall_cycles < want.stall_cycles,
                    "{name}: {got:?} vs {want:?}"
                );
                let got = EngineStats {
                    stall_cycles: want.stall_cycles,
                    ..got
                };
                assert_eq!(got, want, "{name}: engine stats but stalls");
            } else {
                assert_eq!(got, want, "{name}: engine stats");
            }
        }
    }

    #[test]
    fn nested_backend_charges_two_dimensional_walks() {
        use mixtlb_pagetable::BumpFrameSource;
        use mixtlb_types::Permissions;
        // Guest: one 4 KB page; host: 4 KB identity-with-offset backing.
        let mut gframes = BumpFrameSource::new(0x1000);
        let mut guest = PageTable::new(&mut gframes);
        let mut hframes = BumpFrameSource::new(0x80_0000);
        let mut host = PageTable::new(&mut hframes);
        for gpn in 0..0x3000u64 {
            host.map(
                Translation::new(
                    Vpn::new(gpn),
                    mixtlb_types::Pfn::new(0x10_0000 + gpn),
                    mixtlb_types::PageSize::Size4K,
                    Permissions::rw_user(),
                ),
                &mut hframes,
            )
            .unwrap();
        }
        guest
            .map(
                Translation::new(
                    Vpn::new(5),
                    mixtlb_types::Pfn::new(0x50),
                    mixtlb_types::PageSize::Size4K,
                    Permissions::rw_user(),
                ),
                &mut gframes,
            )
            .unwrap();
        let mut engine = TranslationEngine::new(
            hierarchy(),
            WalkBackend::Nested {
                guest: &mut guest,
                host: &mut host,
            },
        );
        let pa = engine.access(&ev(5 * 4096 + 0x42, AccessKind::Load)).unwrap();
        assert_eq!(pa.raw(), (0x10_0000 + 0x50) * 4096 + 0x42);
        // 24 PTE reads, some PWC-absorbed, the rest through the caches.
        let t = engine.stats().walk_traffic;
        assert!(t.total_reads() <= 24 && t.total_reads() >= 4);
    }

    #[test]
    fn nested_tlb_cuts_two_dimensional_walk_traffic() {
        use mixtlb_pagetable::BumpFrameSource;
        use mixtlb_types::{PageSize, Permissions, Pfn};
        let build = || {
            let mut gframes = BumpFrameSource::new(0x1000);
            let mut guest = PageTable::new(&mut gframes);
            let mut hframes = BumpFrameSource::new(0x80_0000);
            let mut host = PageTable::new(&mut hframes);
            for gpn in (0..0x3000u64).step_by(512) {
                host.map(
                    Translation::new(
                        Vpn::new(gpn),
                        Pfn::new(0x10_0000 + gpn),
                        PageSize::Size2M,
                        Permissions::rw_user(),
                    ),
                    &mut hframes,
                )
                .unwrap();
            }
            // Guest pages in different guest PT nodes to force repeated
            // guest-PTE host translations.
            for slot in 0..4u64 {
                guest
                    .map(
                        Translation::new(
                            Vpn::new(slot << 18),
                            Pfn::new(0x100 + slot * 8),
                            PageSize::Size4K,
                            Permissions::rw_user(),
                        ),
                        &mut gframes,
                    )
                    .unwrap();
            }
            (guest, host)
        };
        let run = |disable: bool| {
            let (mut guest, mut host) = build();
            let mut engine = TranslationEngine::new(
                hierarchy(),
                WalkBackend::Nested {
                    guest: &mut guest,
                    host: &mut host,
                },
            );
            engine.disable_pwc();
            if disable {
                engine.disable_nested_tlb();
            }
            for slot in 0..4u64 {
                engine.access(&ev((slot << 18) * 4096, AccessKind::Load));
            }
            engine.stats().walk_traffic.total_reads()
        };
        let with_ntlb = run(false);
        let without = run(true);
        assert!(
            with_ntlb < without,
            "nested TLB must reduce walk references: {with_ntlb} vs {without}"
        );
    }

    #[test]
    fn finish_exposes_all_statistics() {
        let (mut pt, _frames) = small_world();
        let mut engine = TranslationEngine::new(hierarchy(), WalkBackend::Native(&mut pt));
        engine.run([ev(0x400u64 * 4096, AccessKind::Load)]);
        let (stats, l1, l2, caches) = engine.finish();
        assert_eq!(stats.accesses, 1);
        assert_eq!(l1.lookups, 1);
        assert_eq!(l2.unwrap().lookups, 1);
        assert!(caches.total_cycles > 0);
    }
}
