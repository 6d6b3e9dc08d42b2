//! COLT-style coalesced TLB arrays (Pham et al., MICRO 2012): the
//! coalescing parts of the COLT and COLT++ split TLBs (paper Secs. 5.2
//! and 7.2).

use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};

use crate::api::{CoalescedRun, Lookup, TlbDevice, TlbStats};
use crate::storage::SetStorage;

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
/// use mixtlb_core::{CoalescedSizeTlb, CoalescedSizeTlbConfig, TlbDevice};
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
    storage: SetStorage<Entry>,
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
        let storage = SetStorage::new(config.sets, config.ways);
        CoalescedSizeTlb {
            config,
            storage,
            stats: TlbStats::default(),
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.storage.occupancy()
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
            reason = "bundle positions are bounded by the configured bundle size (<= 128)"
        )]
        u32::try_from(pos)
            .expect("bundle position exceeds the configured bundle size")
    }

    /// The way of `set` holding the bundle at `base`, if any.
    fn find(&self, set: usize, base: Vpn) -> Option<usize> {
        self.storage.find(set, |e| e.bundle_base == base)
    }

    /// The page at bundle position `pos` of `entry`.
    fn translation_at(&self, base: Vpn, entry: &Entry, pos: u32) -> Translation {
        let size = self.config.size;
        let offset = u64::from(pos) * size.pages_4k();
        Translation {
            vpn: Vpn::new(base.raw() + offset),
            pfn: Pfn::new(entry.anchor_pfn.wrapping_add(offset)),
            size,
            perms: entry.perms,
            accessed: true,
            dirty: entry.dirty,
        }
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
        // A set holds at most one entry per bundle (fills merge into it).
        let covering = self
            .storage
            .find(set, |e| e.bundle_base == base && e.bits & (1 << pos) != 0);
        let Some(way) = covering else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        self.storage.touch(set, way);
        #[expect(
            clippy::expect_used,
            reason = "way index came from the find() above"
        )]
        let entry = self.storage.get_mut(set, way).expect("found way is valid");
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
        self.stats.record_hit(self.config.size);
        // Maximal contiguous run of set bits around the hit.
        let mut run_start = pos;
        while run_start > 0 && entry.bits & (1 << (run_start - 1)) != 0 {
            run_start -= 1;
        }
        let mut run_end = pos + 1;
        while run_end < self.config.bundle && entry.bits & (1 << run_end) != 0 {
            run_end += 1;
        }
        Lookup::Hit {
            translation: self.translation_at(base, &entry, pos),
            dirty_microop,
            run: Some(CoalescedRun {
                first: self.translation_at(base, &entry, run_start),
                len: run_end - run_start,
            }),
        }
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
        for t in line.iter().chain(std::iter::once(requested)) {
            if t.size == self.config.size
                && t.perms == requested.perms
                && t.accessed
                && self.bundle_base(t.vpn) == base
                && t.pfn.raw() == anchor.wrapping_add(t.vpn.raw() - base.raw())
            {
                bits |= 1 << self.pos_of(t.vpn);
                all_dirty &= t.dirty;
            }
        }
        let fresh = Entry {
            bundle_base: base,
            anchor_pfn: anchor,
            bits,
            perms: requested.perms,
            dirty: all_dirty,
        };
        self.stats.entries_written += 1;
        let set = self.set_of(requested.vpn);
        let Some(way) = self.find(set, base) else {
            if self.storage.insert_lru(set, fresh) {
                self.stats.evictions += 1;
            }
            return;
        };
        self.storage.touch(set, way);
        #[expect(
            clippy::expect_used,
            reason = "way index came from the find() above"
        )]
        let entry = self.storage.get_mut(set, way).expect("found way is valid");
        if entry.anchor_pfn == anchor && entry.perms == requested.perms {
            let before = entry.bits.count_ones();
            entry.bits |= bits;
            entry.dirty = entry.dirty && all_dirty;
            if entry.bits.count_ones() > before {
                self.stats.coalesce_merges += 1;
            }
        } else {
            *entry = fresh;
        }
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.stats.invalidations += 1;
        if size != self.config.size {
            return;
        }
        let base = self.bundle_base(vpn);
        let set = self.set_of(vpn);
        let pos = self.pos_of(vpn);
        let Some(way) = self.find(set, base) else {
            return;
        };
        if let Some(entry) = self.storage.get_mut(set, way) {
            entry.bits &= !(1 << pos);
            if entry.bits == 0 {
                self.storage.remove(set, way);
            }
        }
    }

    fn flush(&mut self) {
        self.storage.clear();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rw() -> Permissions {
        Permissions::rw_user()
    }

    fn t4k(vpn: u64, pfn: u64) -> Translation {
        Translation::new(Vpn::new(vpn), Pfn::new(pfn), PageSize::Size4K, rw())
    }

    fn sp2m(vpn: u64, pfn: u64) -> Translation {
        Translation::new(Vpn::new(vpn), Pfn::new(pfn), PageSize::Size2M, rw())
    }

    fn colt(size: PageSize, sets: usize, ways: usize) -> CoalescedSizeTlb {
        CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(size, sets, ways))
    }

    #[test]
    fn colt_coalesces_contiguous_small_pages() {
        let mut tlb = colt(PageSize::Size4K, 16, 4);
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
        let mut tlb = colt(PageSize::Size4K, 16, 4);
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
        let mut tlb = colt(PageSize::Size4K, 16, 4);
        let a = t4k(0x100, 0x900);
        let b = t4k(0x101, 0x777); // not anchor-consistent
        tlb.fill(a.vpn, &a, &[a, b]);
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(0x101), AccessKind::Load).is_hit());
    }

    #[test]
    fn colt_superpage_array_coalesces_superpages() {
        let mut tlb = colt(PageSize::Size2M, 8, 4);
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
        let mut tlb = colt(PageSize::Size4K, 16, 4);
        let line: Vec<Translation> = (0..4).map(|i| t4k(0x100 + i, 0x900 + i)).collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        tlb.invalidate(Vpn::new(0x101), PageSize::Size4K);
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(0x101), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(0x102), AccessKind::Load).is_hit());
    }

    #[test]
    fn colt_invalidating_the_last_page_frees_the_way() {
        let mut tlb = colt(PageSize::Size4K, 1, 1);
        let a = t4k(0x100, 0x900);
        tlb.fill(a.vpn, &a, &[a]);
        tlb.invalidate(a.vpn, PageSize::Size4K);
        assert_eq!(tlb.occupancy(), 0);
        // The freed way takes the next bundle without an eviction.
        let b = t4k(0x200, 0xA00);
        tlb.fill(b.vpn, &b, &[b]);
        assert_eq!(tlb.stats().evictions, 0);
    }

    #[test]
    fn colt_extension_merges_later_fills() {
        let mut tlb = colt(PageSize::Size4K, 16, 4);
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
    fn colt_evicts_the_least_recently_used_bundle() {
        // One set, two ways: bundles 0x100, 0x200, then a hit on 0x100
        // makes 0x200 the victim of the third bundle.
        let mut tlb = colt(PageSize::Size4K, 1, 2);
        for vpn in [0x100, 0x200] {
            let t = t4k(vpn, vpn + 0x800);
            tlb.fill(t.vpn, &t, &[t]);
        }
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
        let c = t4k(0x300, 0xB00);
        tlb.fill(c.vpn, &c, &[c]);
        assert_eq!(tlb.stats().evictions, 1);
        assert!(tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(0x200), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(0x300), AccessKind::Load).is_hit());
    }

    #[test]
    fn colt_run_reporting_matches_contiguity() {
        let mut tlb = colt(PageSize::Size4K, 8, 2);
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
    fn colt_flush_empties_the_array() {
        let mut tlb = colt(PageSize::Size4K, 16, 4);
        let line: Vec<Translation> = (0..4).map(|i| t4k(0x100 + i, 0x900 + i)).collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert!(!tlb.lookup(Vpn::new(0x100), AccessKind::Load).is_hit());
    }
}
