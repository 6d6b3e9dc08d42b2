//! COLT-style coalesced TLBs (Pham et al., MICRO 2012) and the split
//! hierarchies built from them (paper Secs. 5.2 and 7.2).

use mixtlb_types::{AccessKind, PageSize, Permissions, Translation, Vpn};

use mixtlb_core::{Lookup, SingleSizeTlbConfig, SingleSizeTlb, TlbDevice, TlbStats};

/// Geometry of a [`CoalescedSizeTlb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedSizeTlbConfig {
    /// The one page size cached.
    pub size: PageSize,
    /// Number of sets (a power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Maximum contiguous pages coalesced per entry (a power of two,
    /// ≤ 128; the paper compares against 4).
    pub bundle: u32,
    /// Design name for reports.
    pub name: String,
}

impl CoalescedSizeTlbConfig {
    /// A COLT array for one size with bundle 4 (the paper's comparison
    /// point).
    pub fn colt4(size: PageSize, sets: usize, ways: usize) -> CoalescedSizeTlbConfig {
        CoalescedSizeTlbConfig {
            size,
            sets,
            ways,
            bundle: 4,
            name: format!("colt-{size}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Bundle-base page number (aligned to `bundle` pages of `size`).
    bundle_base: Vpn,
    /// PFN anchor for the bundle base (wrapping arithmetic).
    anchor_pfn: u64,
    bits: u128,
    perms: Permissions,
    dirty: bool,
}

/// A per-size COLT TLB: a set-associative array whose entries coalesce up
/// to `bundle` virtually- and physically-contiguous pages of one size,
/// indexed at bundle granularity (each bundle maps to exactly one set — no
/// mirroring, unlike MIX TLBs, because the page size is fixed).
///
/// # Examples
///
/// ```
/// use mixtlb_baselines::{CoalescedSizeTlb, CoalescedSizeTlbConfig};
/// use mixtlb_core::TlbDevice;
/// use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};
///
/// let cfg = CoalescedSizeTlbConfig::colt4(PageSize::Size4K, 16, 4);
/// let mut tlb = CoalescedSizeTlb::new(cfg);
/// let line: Vec<_> = (0..4)
///     .map(|i| Translation::new(Vpn::new(0x100 + i), Pfn::new(0x900 + i),
///                               PageSize::Size4K, Permissions::rw_user()))
///     .collect();
/// tlb.fill(line[0].vpn, &line[0], &line); // 4 pages in one entry
/// assert!(tlb.lookup(Vpn::new(0x103), AccessKind::Load).is_hit());
/// assert_eq!(tlb.occupancy(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CoalescedSizeTlb {
    config: CoalescedSizeTlbConfig,
    /// `slots[set * ways + way]`.
    slots: Vec<Option<Entry>>,
    stamps: Vec<u64>,
    tick: u64,
    stats: TlbStats,
}

impl CoalescedSizeTlb {
    /// Creates an empty COLT array.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (non-power-of-two sets/bundle, or
    /// bundle above 128).
    pub fn new(config: CoalescedSizeTlbConfig) -> CoalescedSizeTlb {
        assert!(config.sets.is_power_of_two(), "set count must be a power of two");
        assert!(config.bundle.is_power_of_two() && config.bundle <= 128,
            "bundle must be a power of two ≤ 128");
        assert!(config.ways > 0, "ways must be non-zero");
        let slots = config.sets * config.ways;
        CoalescedSizeTlb {
            slots: vec![None; slots],
            stamps: vec![0; slots],
            tick: 0,
            config,
            stats: TlbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoalescedSizeTlbConfig {
        &self.config
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn bundle_pages(&self) -> u64 {
        u64::from(self.config.bundle) * self.config.size.pages_4k()
    }

    fn bundle_base(&self, vpn: Vpn) -> Vpn {
        vpn.align_down_pages(self.bundle_pages())
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        let idx = vpn.chunk_index(self.bundle_pages());
        (idx as usize) & (self.config.sets - 1)
    }

    fn pos_of(&self, vpn: Vpn) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "bundle_base aligns downward, so vpn >= base by construction"
        )]
        let pos = vpn
            .page_offset_from(self.bundle_base(vpn), self.config.size)
            .expect("vpn precedes its own bundle base");
        #[expect(
            clippy::expect_used,
            reason = "bundle positions are bounded by the configured bundle size (<= 8 for COLT)"
        )]
        u32::try_from(pos)
            .expect("bundle position exceeds the configured bundle size")
    }

    fn find(&self, set: usize, base: Vpn) -> Option<usize> {
        (0..self.config.ways)
            .find(|&w| matches!(&self.slots[set * self.config.ways + w],
                Some(e) if e.bundle_base == base))
    }
}

impl TlbDevice for CoalescedSizeTlb {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        self.stats.lookups += 1;
        self.stats.sets_probed += 1;
        self.stats.entries_read += self.config.ways as u64;
        let base = self.bundle_base(vpn);
        let set = self.set_of(vpn);
        let pos = self.pos_of(vpn);
        if let Some(way) = self.find(set, base) {
            let slot = set * self.config.ways + way;
            let covers = self.slots[slot].as_ref().is_some_and(|e| e.bits & (1 << pos) != 0);
            if covers {
                self.tick += 1;
                self.stamps[slot] = self.tick;
                #[expect(
                    clippy::expect_used,
                    reason = "slot was just found occupied by the probe above"
                )]
                let entry = self.slots[slot].as_mut().expect("slot is valid");
                let singleton = entry.bits.count_ones() == 1;
                let mut dirty_microop = false;
                if kind.is_store() && !entry.dirty {
                    dirty_microop = true;
                    self.stats.dirty_microops += 1;
                    if singleton {
                        entry.dirty = true;
                    }
                }
                let entry = *entry;
                let size = self.config.size;
                self.stats.record_hit(size);
                // Maximal contiguous run of set bits around the hit.
                let mut run_start = pos;
                while run_start > 0 && entry.bits & (1 << (run_start - 1)) != 0 {
                    run_start -= 1;
                }
                let mut run_end = pos + 1;
                while run_end < self.config.bundle && entry.bits & (1 << run_end) != 0 {
                    run_end += 1;
                }
                let run = Some(mixtlb_core::CoalescedRun {
                    first: Translation {
                        vpn: Vpn::new(base.raw() + u64::from(run_start) * size.pages_4k()),
                        pfn: mixtlb_types::Pfn::new(
                            entry
                                .anchor_pfn
                                .wrapping_add(u64::from(run_start) * size.pages_4k()),
                        ),
                        size,
                        perms: entry.perms,
                        accessed: true,
                        dirty: entry.dirty,
                    },
                    len: run_end - run_start,
                });
                return Lookup::Hit {
                    translation: Translation {
                        vpn: Vpn::new(base.raw() + u64::from(pos) * size.pages_4k()),
                        pfn: mixtlb_types::Pfn::new(
                            entry.anchor_pfn.wrapping_add(u64::from(pos) * size.pages_4k()),
                        ),
                        size,
                        perms: entry.perms,
                        accessed: true,
                        dirty: entry.dirty,
                    },
                    dirty_microop,
                    run,
                };
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    fn fill(&mut self, _vpn: Vpn, requested: &Translation, line: &[Translation]) {
        if requested.size != self.config.size {
            return;
        }
        self.stats.fills += 1;
        let base = self.bundle_base(requested.vpn);
        let anchor = requested
            .pfn
            .raw()
            .wrapping_sub(requested.vpn.raw() - base.raw());
        // Coalesce qualifying line neighbours (same bundle, contiguous,
        // same permissions, accessed).
        let mut bits = 0u128;
        let mut all_dirty = true;
        let take = |t: &Translation, bits: &mut u128, all_dirty: &mut bool| {
            if t.size == self.config.size
                && t.perms == requested.perms
                && t.accessed
                && self.bundle_base(t.vpn) == base
                && t.pfn.raw() == anchor.wrapping_add(t.vpn.raw() - base.raw())
            {
                *bits |= 1 << self.pos_of(t.vpn);
                *all_dirty &= t.dirty;
            }
        };
        for t in line {
            take(t, &mut bits, &mut all_dirty);
        }
        take(requested, &mut bits, &mut all_dirty);
        let set = self.set_of(requested.vpn);
        if let Some(way) = self.find(set, base) {
            let slot = set * self.config.ways + way;
            self.tick += 1;
            self.stamps[slot] = self.tick;
            #[expect(
                clippy::expect_used,
                reason = "slot was just found occupied by the probe above"
            )]
            let entry = self.slots[slot].as_mut().expect("slot is valid");
            if entry.anchor_pfn == anchor && entry.perms == requested.perms {
                let before = entry.bits.count_ones();
                entry.bits |= bits;
                entry.dirty = entry.dirty && all_dirty;
                if entry.bits.count_ones() > before {
                    self.stats.coalesce_merges += 1;
                }
            } else {
                *entry = Entry {
                    bundle_base: base,
                    anchor_pfn: anchor,
                    bits,
                    perms: requested.perms,
                    dirty: all_dirty,
                };
            }
            self.stats.entries_written += 1;
            return;
        }
        // Insert into an empty way or evict LRU.
        let ways = self.config.ways;
        let way = (0..ways)
            .find(|&w| self.slots[set * ways + w].is_none())
            .unwrap_or_else(|| {
                #[expect(
                    clippy::expect_used,
                    reason = "ways >= 1 by construction, the min always exists"
                )]
                (0..ways)
                    .min_by_key(|&w| self.stamps[set * ways + w])
                    .expect("at least one way")
            });
        let slot = set * ways + way;
        if self.slots[slot].is_some() {
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.stamps[slot] = self.tick;
        self.slots[slot] = Some(Entry {
            bundle_base: base,
            anchor_pfn: anchor,
            bits,
            perms: requested.perms,
            dirty: all_dirty,
        });
        self.stats.entries_written += 1;
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.stats.invalidations += 1;
        if size != self.config.size {
            return;
        }
        let base = self.bundle_base(vpn);
        let set = self.set_of(vpn);
        let pos = self.pos_of(vpn);
        if let Some(way) = self.find(set, base) {
            let slot = set * self.config.ways + way;
            let empty = {
                #[expect(
                    clippy::expect_used,
                    reason = "slot occupancy established by the surrounding branch"
                )]
                let entry = self.slots[slot].as_mut().expect("slot is valid");
                entry.bits &= !(1 << pos);
                entry.bits == 0
            };
            if empty {
                self.slots[slot] = None;
            }
        }
    }

    fn flush(&mut self) {
        self.slots.fill(None);
        self.stamps.fill(0);
        self.tick = 0;
    }

    fn invalidate_sets(&self, _vpn: Vpn, size: PageSize) -> u64 {
        // Bundle indexing still puts the page in exactly one set; sizes this
        // array does not cache cost nothing.
        u64::from(size == self.config.size)
    }

    fn capacity(&self) -> usize {
        self.config.sets * self.config.ways
    }

    fn stats(&self) -> TlbStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

/// A split TLB whose parts are arbitrary [`TlbDevice`]s — used to assemble
/// the COLT and COLT++ hierarchies. All parts are probed in parallel on
/// lookup; fills reach every part (each part ignores sizes it does not
/// cache).
pub struct HeteroSplitTlb {
    parts: Vec<Box<dyn TlbDevice>>,
    name: String,
    lookups: u64,
    hits: u64,
    misses: u64,
    hits_by_size: [u64; 3],
    dirty_microops: u64,
    invalidations: u64,
    fills: u64,
}

impl std::fmt::Debug for HeteroSplitTlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeteroSplitTlb")
            .field("name", &self.name)
            .field("parts", &self.parts.len())
            .finish()
    }
}

impl HeteroSplitTlb {
    /// Assembles a split TLB from parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(name: &str, parts: Vec<Box<dyn TlbDevice>>) -> HeteroSplitTlb {
        assert!(!parts.is_empty(), "a split TLB needs at least one part");
        HeteroSplitTlb {
            parts,
            name: name.to_owned(),
            lookups: 0,
            hits: 0,
            misses: 0,
            hits_by_size: [0; 3],
            dirty_microops: 0,
            invalidations: 0,
            fills: 0,
        }
    }
}

impl TlbDevice for HeteroSplitTlb {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        self.lookups += 1;
        let mut result = Lookup::Miss;
        for part in &mut self.parts {
            let probe = part.lookup(vpn, kind);
            if probe.is_hit() {
                debug_assert!(!result.is_hit(), "two parts hit the same page");
                result = probe;
            }
        }
        match &result {
            Lookup::Hit { translation, dirty_microop, .. } => {
                self.hits += 1;
                self.hits_by_size[translation.size.encode() as usize] += 1;
                if *dirty_microop {
                    self.dirty_microops += 1;
                }
            }
            Lookup::Miss => self.misses += 1,
        }
        result
    }

    fn fill(&mut self, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        self.fills += 1;
        for part in &mut self.parts {
            part.fill(vpn, requested, line);
        }
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.invalidations += 1;
        for part in &mut self.parts {
            part.invalidate(vpn, size);
        }
    }

    fn flush(&mut self) {
        for part in &mut self.parts {
            part.flush();
        }
    }

    fn invalidate_sets(&self, vpn: Vpn, size: PageSize) -> u64 {
        self.parts.iter().map(|p| p.invalidate_sets(vpn, size)).sum()
    }

    fn capacity(&self) -> usize {
        self.parts.iter().map(|p| p.capacity()).sum()
    }

    fn stats(&self) -> TlbStats {
        // Top-level lookup/hit/miss tallies + probe/write costs from parts
        // (the parts' own lookup tallies describe probes, not logical
        // lookups, and are intentionally discarded).
        let mut merged = TlbStats {
            lookups: self.lookups,
            hits: self.hits,
            misses: self.misses,
            hits_by_size: self.hits_by_size,
            dirty_microops: self.dirty_microops,
            invalidations: self.invalidations,
            fills: self.fills,
            ..TlbStats::default()
        };
        for part in &self.parts {
            let ps = part.stats();
            merged.sets_probed += ps.sets_probed;
            merged.entries_read += ps.entries_read;
            merged.entries_written += ps.entries_written;
            merged.evictions += ps.evictions;
            merged.coalesce_merges += ps.coalesce_merges;
            merged.dup_merges += ps.dup_merges;
            merged.serial_probes += ps.serial_probes;
        }
        merged
    }

    fn reset_stats(&mut self) {
        self.lookups = 0;
        self.hits = 0;
        self.misses = 0;
        self.hits_by_size = [0; 3];
        self.dirty_microops = 0;
        self.invalidations = 0;
        self.fills = 0;
        for part in &mut self.parts {
            part.reset_stats();
        }
    }
}

/// The original COLT design in a Haswell-style split: a coalescing 4 KB
/// part (bundle 4) next to conventional 2 MB and 1 GB parts.
pub fn colt_split() -> HeteroSplitTlb {
    HeteroSplitTlb::new(
        "colt",
        vec![
            Box::new(CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
                PageSize::Size4K,
                16,
                4,
            ))),
            Box::new(SingleSizeTlb::new(SingleSizeTlbConfig::set_associative(
                PageSize::Size2M,
                8,
                4,
            ))),
            Box::new(SingleSizeTlb::new(SingleSizeTlbConfig::fully_associative(
                PageSize::Size1G,
                4,
            ))),
        ],
    )
}

/// COLT++ (paper Sec. 7.2): every split part coalesces its own size —
/// contiguous superpages too — but the parts remain split, so capacity is
/// still partitioned by page size.
pub fn colt_plus_plus_split() -> HeteroSplitTlb {
    HeteroSplitTlb::new(
        "colt++",
        vec![
            Box::new(CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
                PageSize::Size4K,
                16,
                4,
            ))),
            Box::new(CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
                PageSize::Size2M,
                8,
                4,
            ))),
            Box::new(CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
                PageSize::Size1G,
                1,
                4,
            ))),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixtlb_types::Pfn;

    fn rw() -> Permissions {
        Permissions::rw_user()
    }

    fn t4k(vpn: u64, pfn: u64) -> Translation {
        Translation::new(Vpn::new(vpn), Pfn::new(pfn), PageSize::Size4K, rw())
    }

    fn sp2m(vpn: u64, pfn: u64) -> Translation {
        Translation::new(Vpn::new(vpn), Pfn::new(pfn), PageSize::Size2M, rw())
    }

    #[test]
    fn colt_coalesces_contiguous_small_pages() {
        let mut tlb = CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
            PageSize::Size4K,
            16,
            4,
        ));
        let line: Vec<Translation> = (0..4).map(|i| t4k(0x100 + i, 0x900 + i)).collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        assert_eq!(tlb.occupancy(), 1);
        for i in 0..4u64 {
            let hit = tlb.lookup(Vpn::new(0x100 + i), AccessKind::Load);
            assert_eq!(
                hit.translation().unwrap().pfn,
                Pfn::new(0x900 + i),
                "page {i}"
            );
        }
    }

    #[test]
    fn colt_respects_bundle_alignment() {
        let mut tlb = CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
            PageSize::Size4K,
            16,
            4,
        ));
        // 0x102 and 0x104 are contiguous but in different aligned bundles
        // ([0x100,0x104) vs [0x104,0x108)).
        let a = t4k(0x102, 0x902);
        let b = t4k(0x104, 0x904);
        tlb.fill(a.vpn, &a, &[a, b]);
        assert!(tlb.lookup(Vpn::new(0x102), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(0x104), AccessKind::Load).is_hit());
    }

    #[test]
    fn colt_non_contiguous_frames_do_not_coalesce() {
        let mut tlb = CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
            PageSize::Size4K,
            16,
            4,
        ));
        let a = t4k(0x100, 0x900);
        let b = t4k(0x101, 0x777); // not anchor-consistent
        tlb.fill(a.vpn, &a, &[a, b]);
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(0x101), AccessKind::Load).is_hit());
    }

    #[test]
    fn colt_superpage_array_coalesces_superpages() {
        let mut tlb = CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
            PageSize::Size2M,
            8,
            4,
        ));
        let line: Vec<Translation> = (0..4)
            .map(|i| sp2m(0x4000 + i * 512, 0x10_0000 + i * 512))
            .collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        assert_eq!(tlb.occupancy(), 1);
        for i in 0..4u64 {
            assert!(tlb
                .lookup(Vpn::new(0x4000 + i * 512 + 99), AccessKind::Load)
                .is_hit());
        }
    }

    #[test]
    fn colt_invalidation_clears_one_bit() {
        let mut tlb = CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
            PageSize::Size4K,
            16,
            4,
        ));
        let line: Vec<Translation> = (0..4).map(|i| t4k(0x100 + i, 0x900 + i)).collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        tlb.invalidate(Vpn::new(0x101), PageSize::Size4K);
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(0x101), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(0x102), AccessKind::Load).is_hit());
    }

    #[test]
    fn colt_extension_merges_later_fills() {
        let mut tlb = CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
            PageSize::Size4K,
            16,
            4,
        ));
        let a = t4k(0x100, 0x900);
        let b = t4k(0x101, 0x901);
        tlb.fill(a.vpn, &a, &[a]);
        tlb.fill(b.vpn, &b, &[b]);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.stats().coalesce_merges, 1);
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(0x101), AccessKind::Load).is_hit());
    }

    #[test]
    fn colt_split_routes_sizes() {
        let mut tlb = colt_split();
        let s = sp2m(0x400, 0x2000);
        let line: Vec<Translation> = (0..4).map(|i| t4k(0x100 + i, 0x900 + i)).collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        tlb.fill(s.vpn, &s, &[s]);
        assert!(tlb.lookup(Vpn::new(0x103), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(0x433), AccessKind::Load).is_hit());
        assert_eq!(tlb.stats().hits_by_size, [1, 1, 0]);
    }

    #[test]
    fn colt_plus_plus_coalesces_superpages_in_split() {
        let mut tlb = colt_plus_plus_split();
        let line: Vec<Translation> = (0..4)
            .map(|i| sp2m(0x4000 + i * 512, 0x10_0000 + i * 512))
            .collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        for i in 0..4u64 {
            assert!(tlb
                .lookup(Vpn::new(0x4000 + i * 512), AccessKind::Load)
                .is_hit());
        }
        // But capacity remains partitioned: small-page parts are idle.
        let s = tlb.stats();
        assert_eq!(s.hits_by_size[1], 4);
    }

    #[test]
    fn hetero_split_stats_merge_probe_costs() {
        let mut tlb = colt_split();
        tlb.lookup(Vpn::new(0), AccessKind::Load);
        let s = tlb.stats();
        assert_eq!(s.lookups, 1);
        assert_eq!(s.misses, 1);
        // 4 (colt) + 4 (2M) + 4 (1G FA) entries read.
        assert_eq!(s.entries_read, 12);
    }

    #[test]
    fn hetero_invalidation_reaches_every_part() {
        let mut tlb = colt_plus_plus_split();
        let line: Vec<Translation> = (0..4).map(|i| t4k(0x100 + i, 0x900 + i)).collect();
        let s = sp2m(0x400, 0x2000);
        tlb.fill(line[0].vpn, &line[0], &line);
        tlb.fill(s.vpn, &s, &[s]);
        tlb.invalidate(Vpn::new(0x101), PageSize::Size4K);
        tlb.invalidate(Vpn::new(0x433), PageSize::Size2M);
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(0x101), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(0x400), AccessKind::Load).is_hit());
        assert_eq!(tlb.stats().invalidations, 2);
    }

    #[test]
    fn hetero_reset_stats_clears_parts_too() {
        let mut tlb = colt_split();
        let t = t4k(0x100, 0x900);
        tlb.fill(t.vpn, &t, &[t]);
        tlb.lookup(Vpn::new(0x100), AccessKind::Load);
        tlb.reset_stats();
        let s = tlb.stats();
        assert_eq!((s.lookups, s.hits, s.entries_read, s.entries_written), (0, 0, 0, 0));
        // Entries survive a stats reset.
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
    }

    #[test]
    fn colt_run_reporting_matches_contiguity() {
        let mut tlb = CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(
            PageSize::Size4K,
            8,
            2,
        ));
        let line: Vec<Translation> = (0..3).map(|i| t4k(0x200 + i, 0x700 + i)).collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        match tlb.lookup(Vpn::new(0x201), AccessKind::Load) {
            Lookup::Hit { run: Some(run), .. } => {
                assert_eq!(run.len, 3);
                assert_eq!(run.first.vpn, Vpn::new(0x200));
                assert_eq!(run.translations().len(), 3);
            }
            other => panic!("expected a hit with a run, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn empty_split_rejected() {
        let _ = HeteroSplitTlb::new("x", Vec::new());
    }
}
