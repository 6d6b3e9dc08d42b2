//! The interface every TLB design implements.

use mixtlb_types::{AccessKind, Asid, PageSize, Translation, Vpn};

/// A maximal run of contiguous same-size translations that a coalescing
/// TLB entry knows about around a hit. When an outer (L2) MIX TLB hits,
/// this is the information an inner (L1) MIX TLB can absorb wholesale on
/// refill — both entries store the same anchor + extent representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescedRun {
    /// The first translation of the run.
    pub first: Translation,
    /// Number of contiguous pages in the run (≥ 1).
    pub len: u32,
}

impl CoalescedRun {
    /// Expands the run into individual translations (for fill lines).
    pub fn translations(&self) -> Vec<Translation> {
        let step = self.first.size.pages_4k();
        (0..u64::from(self.len))
            .map(|i| Translation {
                vpn: self.first.vpn.add_4k(i * step),
                pfn: self.first.pfn.add_4k(i * step),
                ..self.first
            })
            .collect()
    }
}

/// The default [`TlbDevice::fill_run_asid`]: materializes the run as a
/// fill line. No shipped hierarchy takes it on the replay path: every
/// design whose L2 hands runs down has a MIX L1, which absorbs runs
/// directly. Only a wrapper device that does not forward
/// `fill_run_asid` lands here, so it is kept off the hot path.
#[cold]
fn fill_expanded<T: TlbDevice + ?Sized>(
    tlb: &mut T,
    asid: Asid,
    vpn: Vpn,
    requested: &Translation,
    run: &CoalescedRun,
) {
    let line = run.translations();
    tlb.fill_asid(asid, vpn, requested, &line);
}

/// One access of a batched lookup: the page probed, the access kind, and
/// the requesting PC (for prediction-based designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAccess {
    /// The 4 KB virtual page to probe.
    pub vpn: Vpn,
    /// Load, store, or instruction fetch.
    pub kind: AccessKind,
    /// The requesting instruction's PC.
    pub pc: u64,
}

/// The outcome of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The TLB holds a mapping covering the page.
    Hit {
        /// The covering mapping (base VPN/PFN of the page, its size and
        /// permissions) — everything needed to form the physical address
        /// and to fill an inner TLB level.
        translation: Translation,
        /// `true` when a store hit an entry whose dirty bit is clear: the
        /// hardware must inject a PTE dirty-bit update micro-op
        /// (paper Sec. 4.4).
        dirty_microop: bool,
        /// The coalesced run the hit entry covers, when the design tracks
        /// one (MIX and COLT entries do; conventional entries report
        /// `None`, equivalent to a run of 1).
        run: Option<CoalescedRun>,
    },
    /// No covering entry; the page table must be walked.
    Miss,
}

impl Lookup {
    /// Returns the hit translation, if any.
    pub fn translation(&self) -> Option<&Translation> {
        match self {
            Lookup::Hit { translation, .. } => Some(translation),
            Lookup::Miss => None,
        }
    }

    /// Returns `true` on a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit { .. })
    }
}

/// Event counters for performance and energy accounting.
///
/// `entries_read` counts tag+data reads across all probes (the dominant
/// dynamic-energy term: a probe of a 4-way set reads 4 entries; a skewed
/// TLB reads one entry per way of every group; hash-rehash pays per probe).
/// `entries_written` counts fill writes — for MIX TLBs this exceeds `fills`
/// because of mirroring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Hits by page size (index by [`PageSize::encode`]).
    pub hits_by_size: [u64; 3],
    /// Set probes across all lookups (hash-rehash pays several per lookup).
    pub sets_probed: u64,
    /// Entries (tag+data) read across all probes.
    pub entries_read: u64,
    /// Fill operations.
    pub fills: u64,
    /// Entry writes (≥ fills when mirroring).
    pub entries_written: u64,
    /// Valid entries displaced by fills.
    pub evictions: u64,
    /// Same-tag duplicate entries merged during lookups or fills
    /// (paper Sec. 4.3).
    pub dup_merges: u64,
    /// Translations absorbed into existing coalesced entries.
    pub coalesce_merges: u64,
    /// Invalidation operations.
    pub invalidations: u64,
    /// Dirty-bit update micro-ops signalled on store hits.
    pub dirty_microops: u64,
    /// Extra *serial* probes beyond the first within single lookups —
    /// hash-rehash designs pay one rehash latency per unit (the
    /// variable-latency problem of Sec. 5.1). Parallel probes (split
    /// sub-TLBs, skew ways) do not count.
    pub serial_probes: u64,
    /// Page-size predictor reads (prediction-based designs only).
    pub predictor_reads: u64,
    /// Page-size mispredictions (prediction-based designs only).
    pub predictor_misses: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Records a hit of the given size (helper for [`TlbDevice`]
    /// implementations, including those in other crates).
    pub fn record_hit(&mut self, size: PageSize) {
        self.hits += 1;
        self.hits_by_size[size.encode() as usize] += 1;
    }
}

impl std::ops::AddAssign for TlbStats {
    /// Sums every counter: several devices' statistics read as one.
    fn add_assign(&mut self, other: TlbStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        for (sum, h) in self.hits_by_size.iter_mut().zip(other.hits_by_size) {
            *sum += h;
        }
        self.sets_probed += other.sets_probed;
        self.entries_read += other.entries_read;
        self.fills += other.fills;
        self.entries_written += other.entries_written;
        self.evictions += other.evictions;
        self.dup_merges += other.dup_merges;
        self.coalesce_merges += other.coalesce_merges;
        self.invalidations += other.invalidations;
        self.dirty_microops += other.dirty_microops;
        self.serial_probes += other.serial_probes;
        self.predictor_reads += other.predictor_reads;
        self.predictor_misses += other.predictor_misses;
    }
}

/// A TLB design: the single interface the translation engine, the energy
/// model, and the differential tests drive.
///
/// Implementations are *functional* models — they track which translations
/// are cached and what each operation costs, not cycle-level timing.
///
/// `Send` is a supertrait so boxed devices can migrate to the worker
/// threads of the SMP engine (every design is plain owned data).
///
/// # ASIDs
///
/// The `*_asid` methods thread an address-space identifier through the
/// device. Their defaults fall back to the untagged behaviour — lookups and
/// fills ignore the tag and `flush_asid` degenerates to a full flush — so
/// every design keeps compiling (and behaving exactly as before) without
/// changes. Designs that store per-entry tags override them and report
/// [`TlbDevice::supports_asids`] as `true`.
///
/// # Shootdown cost
///
/// [`TlbDevice::invalidate_sets`] has no default: every design must state
/// how many sets a shootdown sweeps, or MIX's every-set superpage sweep
/// (Sec. 5.1) would silently be priced as one set. An impl that omits it
/// does not compile:
///
/// ```compile_fail,E0046
/// use mixtlb_core::{Lookup, TlbDevice, TlbStats};
/// use mixtlb_types::{AccessKind, PageSize, Translation, Vpn};
///
/// struct Forgetful(TlbStats);
///
/// impl TlbDevice for Forgetful {
///     fn name(&self) -> &str { "forgetful" }
///     fn lookup(&mut self, _: Vpn, _: AccessKind) -> Lookup { Lookup::Miss }
///     fn fill(&mut self, _: Vpn, _: &Translation, _: &[Translation]) {}
///     fn invalidate(&mut self, _: Vpn, _: PageSize) {}
///     fn flush(&mut self) {}
///     fn stats(&self) -> TlbStats { self.0 }
///     fn reset_stats(&mut self) {}
/// }
/// ```
pub trait TlbDevice: Send {
    /// A short human-readable design name (e.g. `"mix-l1"`).
    fn name(&self) -> &str;

    /// Looks up the 4 KB virtual page `vpn`.
    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup;

    /// Lookup with the requesting instruction's PC. Prediction-based
    /// designs (which index a page-size predictor by PC, Sec. 5.1)
    /// override this; everything else ignores the PC. The translation
    /// engine always calls this form.
    fn lookup_pc(&mut self, vpn: Vpn, kind: AccessKind, _pc: u64) -> Lookup {
        self.lookup(vpn, kind)
    }

    /// Fills the TLB after a page-table walk. `vpn` is the 4 KB page whose
    /// lookup missed (it determines the probed set); `requested` is the
    /// leaf that resolved the miss; `line` is every leaf in the same PTE
    /// cache line (including `requested`), which coalescing designs scan.
    fn fill(&mut self, vpn: Vpn, requested: &Translation, line: &[Translation]);

    /// Invalidates any cached translation for the page of the given size at
    /// `vpn` (an OS shootdown).
    fn invalidate(&mut self, vpn: Vpn, size: PageSize);

    /// The coalesced run covering `vpn` in this TLB right now, without
    /// touching statistics or replacement state. Coalescing designs
    /// implement this so that, after a walk fills an outer level whose
    /// entry already held neighbouring translations, the *merged* run can
    /// be handed down to inner levels (the same datapath as a hit
    /// handdown). Default: none.
    fn peek_run(&self, _vpn: Vpn) -> Option<CoalescedRun> {
        None
    }

    /// [`TlbDevice::peek_run`] as seen from address space `asid`: only
    /// entries a lookup from `asid` could hit (its own, or untagged ones)
    /// may supply the run, so one space's run is never handed to
    /// another's refill. Default: the untagged [`TlbDevice::peek_run`],
    /// which is exact for designs that keep no ASID tags.
    fn peek_run_asid(&self, _asid: Asid, vpn: Vpn) -> Option<CoalescedRun> {
        self.peek_run(vpn)
    }

    /// Drops every entry (a full shootdown / context switch without ASIDs).
    fn flush(&mut self);

    /// ASID-tagged lookup. Untagged designs ignore the ASID entirely
    /// (every entry is visible to every space — correct only while a
    /// single space runs between flushes, which is exactly the legacy
    /// single-core contract).
    fn lookup_asid(&mut self, _asid: Asid, vpn: Vpn, kind: AccessKind, pc: u64) -> Lookup {
        self.lookup_pc(vpn, kind, pc)
    }

    /// ASID-tagged fill: the installed entries belong to `asid`.
    /// Untagged designs ignore the tag.
    fn fill_asid(&mut self, _asid: Asid, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        self.fill(vpn, requested, line);
    }

    /// ASID-tagged fill from a coalesced run an outer level handed down
    /// (an L2 hit's run, or the merged run after an L2 fill): exactly
    /// [`TlbDevice::fill_asid`] with `run.translations()` as the line.
    /// The default expands the run; coalescing designs override it to
    /// absorb the run without materializing it.
    fn fill_run_asid(&mut self, asid: Asid, vpn: Vpn, requested: &Translation, run: &CoalescedRun) {
        fill_expanded(self, asid, vpn, requested, run);
    }

    /// ASID-tagged invalidation: drops the page's entries if they belong
    /// to `asid` (or unconditionally on untagged designs).
    fn invalidate_asid(&mut self, _asid: Asid, vpn: Vpn, size: PageSize) {
        self.invalidate(vpn, size);
    }

    /// Drops every entry belonging to `asid`, keeping other spaces
    /// resident. Untagged designs cannot tell entries apart and must
    /// flush everything — the exact cost ASIDs exist to avoid.
    fn flush_asid(&mut self, _asid: Asid) {
        self.flush();
    }

    /// `true` when the design stores per-entry ASID tags (so
    /// [`TlbDevice::flush_asid`] is selective and context switches keep
    /// entries resident).
    fn supports_asids(&self) -> bool {
        false
    }

    /// Batched lookup: probes the accesses of `batch` in order, appending
    /// one [`Lookup`] per probed access to `out`, and stops after the
    /// first miss (whose `Lookup::Miss` is appended and counted).
    /// Returns how many accesses were consumed.
    ///
    /// Semantically this is exactly a loop over
    /// [`TlbDevice::lookup_asid`] — same statistics, same replacement
    /// updates, same dirty micro-ops — but the caller pays one dynamic
    /// dispatch per *chunk* instead of per access: the default body is
    /// monomorphized per design, so its inner `lookup_asid` calls are
    /// static. Replay engines drive this from their hot loop.
    fn lookup_batch(&mut self, asid: Asid, batch: &[BatchAccess], out: &mut Vec<Lookup>) -> usize {
        let mut consumed = 0usize;
        for access in batch {
            let result = self.lookup_asid(asid, access.vpn, access.kind, access.pc);
            let missed = !result.is_hit();
            out.push(result);
            consumed += 1;
            if missed {
                break;
            }
        }
        consumed
    }

    /// Number of sets a shootdown of the page at `vpn`/`size` must probe
    /// in this device — the hardware invalidation cost a remote core pays
    /// during an IPI, before acknowledging. Conventional set-associative
    /// designs touch a single set; MIX TLBs must visit **every** set for a
    /// superpage because mirroring may have spread its entries across all
    /// of them (the paper's Sec. 5.1 caveat). Required, with no default
    /// (see the trait docs).
    fn invalidate_sets(&self, vpn: Vpn, size: PageSize) -> u64;

    /// Number of sets a *full flush* of this device must visit — every
    /// set once. This is the ceiling a batched shootdown sweep saturates
    /// at: once an epoch's accumulated per-page sweeps would exceed it,
    /// the kernel flushes the whole device in one pass instead (the
    /// `tlb_single_page_flush_ceiling` heuristic real kernels apply).
    ///
    /// The default derives the ceiling from [`TlbDevice::invalidate_sets`]
    /// geometry: the widest single-page sweep already visits every set a
    /// page of *some* size can reach. For MIX this is exact (a superpage
    /// sweep is a full sweep by construction); for per-size split designs
    /// it is a lower bound, which only *under*-prices their batched
    /// flushes — conservative for the paper's MIX-vs-split comparison.
    fn flush_sets(&self) -> u64 {
        PageSize::ALL
            .into_iter()
            .map(|size| self.invalidate_sets(Vpn::new(0), size))
            .max()
            .unwrap_or(1)
    }

    /// Total entry capacity of the device (0 when unknown). Used to derive
    /// hardware budgets instead of hard-coding them.
    fn capacity(&self) -> usize {
        0
    }

    /// A copy of the accumulated statistics.
    fn stats(&self) -> TlbStats;

    /// Zeroes the statistics (entries are preserved).
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixtlb_types::{Permissions, Pfn};

    #[test]
    fn lookup_accessors() {
        let t = Translation::new(
            Vpn::new(4),
            Pfn::new(9),
            PageSize::Size4K,
            Permissions::rw_user(),
        );
        let hit = Lookup::Hit {
            translation: t,
            dirty_microop: false,
            run: None,
        };
        assert!(hit.is_hit());
        assert_eq!(hit.translation(), Some(&t));
        assert!(!Lookup::Miss.is_hit());
        assert_eq!(Lookup::Miss.translation(), None);
    }

    #[test]
    fn hit_rate() {
        let mut s = TlbStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.lookups = 4;
        s.hits = 3;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn add_assign_sums_every_counter() {
        // Every counter gets its own multiple of `k`, so a field left out
        // of the sum, or assigned instead of added, shows. The literal
        // names every field, so a new counter must be added here too.
        let distinct = |k: u64| TlbStats {
            lookups: k,
            hits: 2 * k,
            misses: 3 * k,
            hits_by_size: [4 * k, 5 * k, 6 * k],
            sets_probed: 7 * k,
            entries_read: 8 * k,
            fills: 9 * k,
            entries_written: 10 * k,
            evictions: 11 * k,
            dup_merges: 12 * k,
            coalesce_merges: 13 * k,
            invalidations: 14 * k,
            dirty_microops: 15 * k,
            serial_probes: 16 * k,
            predictor_reads: 17 * k,
            predictor_misses: 18 * k,
        };
        let mut sum = TlbStats::default();
        sum += distinct(1);
        sum += distinct(2);
        assert_eq!(sum, distinct(3));
    }

    #[test]
    fn record_hit_tracks_sizes() {
        let mut s = TlbStats::default();
        s.record_hit(PageSize::Size2M);
        s.record_hit(PageSize::Size2M);
        s.record_hit(PageSize::Size1G);
        assert_eq!(s.hits_by_size, [0, 2, 1]);
        assert_eq!(s.hits, 3);
    }
}
