//! One simulated core: private TLB hierarchy, private caches, PWC, its
//! own page table, and its trace stream.

// Atomics come from mixtlb-check's facade (instrumented under the `model`
// feature, plain `std::sync::atomic` re-exports otherwise).
use mixtlb_check::sync::{AtomicU64, Ordering};

use mixtlb_cache::{AccessResult, CacheHierarchy, HierarchyConfig, PageWalkCache, SharedCache};
use mixtlb_pagetable::PageTable;
use mixtlb_sim::{BelowTlbs, EngineStats, TlbHierarchy, UnifiedWalk, WalkBackend, REGION};
use mixtlb_trace::{TraceEvent, TraceGenerator};
use mixtlb_types::{AccessKind, Asid, PhysAddr, Pfn, VirtAddr, Vpn};

use crate::shootdown::{ShootdownModel, SweepWidths};

/// Counters of one core's replay.
///
/// Every field except [`CoreStats::llc_stall_cycles`] is a pure function
/// of the core's own stream and private state — identical between serial
/// and parallel replay. `llc_stall_cycles` depends on how the cores'
/// accesses interleave in the shared LLC and is reported separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// The datapath's counters, read through this struct too. Their
    /// `stall_cycles` are the deterministic ones: L2 TLB probe latency,
    /// serial-probe stalls (charged as the engine charges them) and
    /// private-cache latency of walk references. Walk traffic counts a
    /// shared-LLC hit as a third-level cache hit.
    pub engine: EngineStats,
    /// Stall cycles from shared-LLC/DRAM walk references
    /// (interleaving-dependent; excluded from determinism comparisons).
    pub llc_stall_cycles: u64,
    /// Shootdowns this core initiated.
    pub shootdowns_initiated: u64,
    /// Cycles this core paid initiating them (IPIs + own sweep + waiting
    /// for remote acknowledgements).
    pub shootdown_cycles_initiated: u64,
    /// TLB sets this core swept in its own hierarchy for its own
    /// shootdowns.
    pub sets_swept_local: u64,
    /// Machine-wide TLB sets swept per shootdown this core initiated
    /// (own + every remote) — the paper's Sec. 5.1 mirrored-sweep cost.
    pub sets_swept_global: u64,
    /// Invalidation epochs this core closed (epoch-batched shootdown
    /// model; 0 when epochs are disabled).
    pub epochs_closed: u64,
    /// Cycles the *epoch-batched* model charges this core as initiator
    /// for the same invalidations `shootdown_cycles_initiated` prices
    /// eagerly: one IPI round per closed epoch, sweeps capped at the
    /// full-flush ceiling. Accumulated side by side with the eager
    /// counters in the same replay, so the two models are directly
    /// comparable on one run.
    pub shootdown_cycles_epoch: u64,
    /// Machine-wide TLB sets swept under the epoch-batched model for
    /// epochs this core closed (eager counterpart: `sets_swept_global`).
    pub sets_swept_global_epoch: u64,
}

impl std::ops::Deref for CoreStats {
    type Target = EngineStats;

    fn deref(&self) -> &EngineStats {
        &self.engine
    }
}

/// What one core must know about one *remote* core to charge shootdown
/// costs without inspecting its state: precomputed eager per-size costs,
/// and the geometry (sweep widths, full-flush ceiling) the epoch-batched
/// model prices at epoch close.
#[derive(Debug, Clone, Default)]
pub(crate) struct RemoteTables {
    /// The remote core's index (into the absorbed-cost ledgers).
    pub core: usize,
    /// Cycles the remote absorbs for one eager shootdown, by size code.
    pub eager_cycles_by_size: [u64; 3],
    /// The remote's sweep width by size code (sets per invalidated page).
    pub sweep_by_size: [u64; 3],
    /// The remote's full-flush ceiling: sets one whole-device flush
    /// visits, which caps a batched epoch sweep.
    pub flush_sets: u64,
}

/// Cost tables a core needs to charge shootdowns without touching any
/// other core's state: everything is precomputed from TLB geometry by
/// [`crate::SmpMachine`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ShootdownTables {
    /// Cycles the initiator pays, by page-size code.
    pub initiated_cost_by_size: [u64; 3],
    /// Machine-wide sets swept, by page-size code.
    pub global_sets_by_size: [u64; 3],
    /// This core's own full-flush ceiling (see [`RemoteTables::flush_sets`]).
    pub own_flush_sets: u64,
    /// The cycle-cost model, for pricing epoch closes whose sweep extents
    /// depend on run-time pending counts and cannot be precomputed.
    pub model: ShootdownModel,
    /// Per remote core, in a fixed order.
    pub remotes: Vec<RemoteTables>,
}

/// The machine's absorbed-shootdown-cost ledgers, one counter per core
/// per pricing model. Workers publish remote costs here with commutative
/// atomic adds, so totals are interleaving-independent.
#[derive(Debug, Default)]
pub(crate) struct AbsorbedLedger {
    /// Cycles absorbed under the eager per-shootdown IPI model.
    pub eager: Vec<AtomicU64>,
    /// Cycles absorbed under the epoch-batched model, for the same
    /// invalidations.
    pub epoch: Vec<AtomicU64>,
}

impl AbsorbedLedger {
    pub fn with_cores(n: usize) -> AbsorbedLedger {
        AbsorbedLedger {
            eager: (0..n).map(|_| AtomicU64::new(0)).collect(),
            epoch: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One core of an [`crate::SmpMachine`].
pub struct SmpCore {
    pub(crate) id: usize,
    pub(crate) asid: Asid,
    pub(crate) hierarchy: TlbHierarchy,
    caches: CacheHierarchy,
    pwc: PageWalkCache,
    pub(crate) pt: PageTable,
    generator: TraceGenerator,
    footprint_pages: u64,
    /// Initiate a shootdown every this many accesses (0 = never).
    shootdown_interval: u64,
    shootdown_count: u64,
    /// Close an invalidation epoch every this many accesses (0 = never).
    /// A trailing partial epoch is closed at the end of the run, so over
    /// one run both pricing models cover the same invalidations.
    epoch_interval: u64,
    /// Invalidations accumulated in the open epoch, by page-size code.
    pending_invalidations: [u64; 3],
    pub(crate) sweep: SweepWidths,
    pub(crate) tables: ShootdownTables,
    /// The TLBs' serial-probe stalls when the core took them.
    serial_base: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for SmpCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmpCore")
            .field("id", &self.id)
            .field("asid", &self.asid)
            .field("design", &self.hierarchy.name())
            .finish()
    }
}

impl SmpCore {
    /// Assembles a core. The private cache hierarchy is the Haswell
    /// L1D+L2 ([`HierarchyConfig::haswell_private`]); misses continue into
    /// the machine's shared LLC.
    pub fn new(
        id: usize,
        hierarchy: TlbHierarchy,
        pt: PageTable,
        generator: TraceGenerator,
        footprint_pages: u64,
    ) -> SmpCore {
        SmpCore {
            id,
            // Wrapping index→tag mapping: core ids are unbounded, hardware
            // tags are 12-bit. `Asid::new(id as u16 + 1)` panicked at id
            // 4095 and silently truncated ids ≥ 65536; wrapped collisions
            // are harmless here because each core's TLBs are private and
            // run exactly one space.
            asid: Asid::for_index(id),
            serial_base: hierarchy.serial_stalls(),
            hierarchy,
            caches: CacheHierarchy::new(HierarchyConfig::haswell_private()),
            pwc: PageWalkCache::new(32),
            pt,
            generator,
            footprint_pages: footprint_pages.max(1),
            shootdown_interval: 0,
            shootdown_count: 0,
            epoch_interval: 0,
            pending_invalidations: [0; 3],
            sweep: SweepWidths::default(),
            tables: ShootdownTables::default(),
            stats: CoreStats::default(),
        }
    }

    /// Sets the shootdown cadence: one initiated shootdown every
    /// `interval` accesses (0 disables).
    pub fn with_shootdown_interval(mut self, interval: u64) -> SmpCore {
        self.shootdown_interval = interval;
        self
    }

    /// Sets the epoch cadence: the epoch-batched pricing model closes an
    /// invalidation epoch every `interval` accesses (0 disables epoch
    /// accounting entirely). Epoch closes are a pure function of the
    /// core's own access count, so they preserve serial/parallel
    /// determinism.
    pub fn with_epoch_interval(mut self, interval: u64) -> SmpCore {
        self.epoch_interval = interval;
        self
    }

    /// The core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The core's address-space identifier.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The running counters. Serial-probe stalls are charged here, from
    /// the probes the TLBs counted since the core took them
    /// ([`TlbHierarchy::serial_stalls`]).
    pub fn stats(&self) -> CoreStats {
        let mut stats = self.stats;
        stats.engine.stall_cycles += self.hierarchy.serial_stalls() - self.serial_base;
        stats
    }

    /// Replays `refs` events, initiating shootdowns on the configured
    /// cadence. Remote shootdown costs are published into `absorbed`
    /// (one counter per core per pricing model) — the only cross-core
    /// communication, and a commutative sum, so totals are
    /// interleaving-independent. When an epoch cadence is configured, a
    /// trailing partial epoch is closed before returning, so the eager
    /// and epoch-batched ledgers cover the same invalidations.
    pub(crate) fn run(&mut self, refs: u64, llc: &SharedCache, absorbed: &AbsorbedLedger) {
        for _ in 0..refs {
            #[expect(clippy::expect_used, reason = "trace generators are infinite iterators")]
            let ev = self.generator.next().expect("generator is infinite");
            self.step(&ev, llc);
            if self.shootdown_interval > 0 && self.stats.accesses.is_multiple_of(self.shootdown_interval)
            {
                self.initiate_shootdown(absorbed);
            }
            if self.epoch_interval > 0 && self.stats.accesses.is_multiple_of(self.epoch_interval) {
                self.close_epoch(absorbed);
            }
        }
        if self.epoch_interval > 0 {
            self.close_epoch(absorbed);
        }
    }

    /// Translates one event through TLBs, walks, private caches, and the
    /// shared LLC. Returns the physical address (`None` on a fault).
    pub(crate) fn step(&mut self, ev: &TraceEvent, llc: &SharedCache) -> Option<PhysAddr> {
        let mut below = CoreBelow {
            table: WalkBackend::Native(&mut self.pt),
            caches: &mut self.caches,
            pwc: &mut self.pwc,
            llc,
            llc_stall_cycles: &mut self.stats.llc_stall_cycles,
        };
        self.hierarchy
            .access(self.asid, &mut below, &mut self.stats.engine, ev)
    }

    /// Initiates one shootdown: deterministically pick a mapped page of
    /// this core's footprint, migrate it to a new frame, invalidate the
    /// local TLBs, and charge the machine-wide cost under the eager
    /// model. The invalidation is also appended to the open epoch, so
    /// the batched model prices the same event at the next epoch close.
    pub(crate) fn initiate_shootdown(&mut self, absorbed: &AbsorbedLedger) {
        self.shootdown_count += 1;
        // Weyl-style scramble: deterministic, spreads over the footprint.
        let idx = self
            .shootdown_count
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> 11;
        let vpn = Vpn::new(REGION.raw() + idx % self.footprint_pages);
        let Some(t) = self.pt.lookup(vpn) else { return };
        // Migrate to a different frame (functional model: the new frame
        // only needs to be distinct).
        let new_pfn = Pfn::new(t.pfn.raw() ^ (1 << 33));
        #[expect(
            clippy::expect_used,
            reason = "the mapping was just looked up on this core's table"
        )]
        self.pt
            .remap(t.vpn, t.size, new_pfn)
            .expect("page was just looked up");
        self.apply_local_invalidation(t.vpn, t.size);
        let code = t.size.encode() as usize;
        self.charge_initiated(code, absorbed);
        self.pending_invalidations[code] += 1;
    }

    /// Charges one shootdown of a page of size `code` that this core
    /// initiated, under the eager model: its own counters, and every
    /// remote's absorbed cycles.
    pub(crate) fn charge_initiated(&mut self, code: usize, absorbed: &AbsorbedLedger) {
        self.stats.shootdowns_initiated += 1;
        self.stats.sets_swept_local += self.sweep.by_size[code];
        self.stats.sets_swept_global += self.tables.global_sets_by_size[code];
        self.stats.shootdown_cycles_initiated += self.tables.initiated_cost_by_size[code];
        for remote in &self.tables.remotes {
            // Relaxed: commutative cost tally into
            // another core's absorbed counter. Nothing reads these during
            // replay; reports load them after `thread::scope` joins, which
            // already orders every increment. Only atomicity is needed,
            // and Relaxed keeps the hot replay loop free of fences.
            absorbed.eager[remote.core].fetch_add(remote.eager_cycles_by_size[code], Ordering::Relaxed);
        }
    }

    /// Closes the open invalidation epoch under the batched pricing
    /// model: one IPI round for every invalidation accumulated since the
    /// last close, each core's sweep capped at its full-flush ceiling
    /// ([`ShootdownModel::batched_sweep_sets`]). A close with nothing
    /// pending is free — no IPI round is sent, mirroring a kernel that
    /// skips quiescent epochs. Pure function of this core's own stream
    /// plus precomputed remote geometry, so serial/parallel determinism
    /// is preserved.
    pub(crate) fn close_epoch(&mut self, absorbed: &AbsorbedLedger) {
        if self.pending_invalidations == [0; 3] {
            return;
        }
        let model = self.tables.model;
        let own_pending: u64 = (0..3)
            .map(|code| self.pending_invalidations[code] * self.sweep.by_size[code])
            .sum();
        let own_swept = ShootdownModel::batched_sweep_sets(own_pending, self.tables.own_flush_sets);
        let mut global_swept = own_swept;
        let mut cost = model.initiator_cycles + own_swept * model.per_set_cycles;
        for remote in &self.tables.remotes {
            let pending_sets: u64 = (0..3)
                .map(|code| self.pending_invalidations[code] * remote.sweep_by_size[code])
                .sum();
            let swept = ShootdownModel::batched_sweep_sets(pending_sets, remote.flush_sets);
            let remote_cycles = model.remote_cost(swept);
            global_swept += swept;
            cost += remote_cycles;
            // Relaxed: same commutative tally as the
            // eager ledger above: written during replay, read only after
            // the join edge of `thread::scope` orders every increment.
            absorbed.epoch[remote.core].fetch_add(remote_cycles, Ordering::Relaxed);
        }
        self.stats.epochs_closed += 1;
        self.stats.shootdown_cycles_epoch += cost;
        self.stats.sets_swept_global_epoch += global_swept;
        self.pending_invalidations = [0; 3];
    }

    /// Sweeps the local TLBs and MMU caches for a shootdown of
    /// `vpn`/`size` (used both for self-initiated shootdowns and for the
    /// quiesced broadcast path).
    pub(crate) fn apply_local_invalidation(&mut self, vpn: Vpn, size: mixtlb_types::PageSize) {
        // Untagged invalidation: a shootdown removes the page for every
        // space (the kernel does not know which ASIDs cached it).
        self.hierarchy.l1.invalidate(vpn, size);
        if let Some(l2) = self.hierarchy.l2.as_mut() {
            l2.invalidate(vpn, size);
        }
        self.pwc.flush();
    }
}

/// A core's side below its TLBs for one access: its own page table, its
/// private caches and PWC, and the shared LLC behind them.
struct CoreBelow<'a> {
    table: WalkBackend<'a>,
    caches: &'a mut CacheHierarchy,
    pwc: &'a mut PageWalkCache,
    llc: &'a SharedCache,
    /// Where LLC latency is booked: it depends on how the cores'
    /// accesses interleave, so it stays out of the datapath's stalls.
    llc_stall_cycles: &'a mut u64,
}

impl BelowTlbs for CoreBelow<'_> {
    fn walk(&mut self, va: VirtAddr, kind: AccessKind) -> UnifiedWalk {
        self.table.walk(None, va, kind)
    }

    fn pwc_hit(&mut self, pa: PhysAddr) -> bool {
        self.pwc.access(pa)
    }

    fn reference(&mut self, pa: PhysAddr) -> AccessResult {
        let private = self.caches.access(pa);
        if !private.dram {
            return private;
        }
        // The private hierarchy missed everywhere; `dram` here means
        // "left the core" — the LLC answers (or DRAM behind it).
        let shared = self.llc.access(pa);
        *self.llc_stall_cycles += shared.cycles;
        AccessResult {
            // The LLC is the level after the two private ones.
            level_hit: (!shared.dram).then_some(2),
            dram: shared.dram,
            cycles: private.cycles,
        }
    }

    fn write_dirty_bit(&mut self, vpn: Vpn) -> bool {
        let Some(pa) = self.table.set_dirty(vpn) else {
            return false;
        };
        if self.caches.access(pa).dram {
            self.llc.access(pa);
        }
        true
    }
}
