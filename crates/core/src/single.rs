//! A conventional TLB for a single page size.

use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};

use crate::api::{Lookup, TlbDevice, TlbStats};
use crate::storage::SetStorage;

/// Geometry of a [`SingleSizeTlb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleSizeTlbConfig {
    /// The one page size this TLB caches.
    pub size: PageSize,
    /// Number of sets (1 = fully associative). Must be a power of two.
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Design name for reports.
    pub name: String,
}

impl SingleSizeTlbConfig {
    /// A set-associative configuration.
    pub fn set_associative(size: PageSize, sets: usize, ways: usize) -> SingleSizeTlbConfig {
        SingleSizeTlbConfig {
            size,
            sets,
            ways,
            name: format!("sa-{size}"),
        }
    }

    /// A fully-associative configuration with `entries` entries.
    pub fn fully_associative(size: PageSize, entries: usize) -> SingleSizeTlbConfig {
        SingleSizeTlbConfig {
            size,
            sets: 1,
            ways: entries,
            name: format!("fa-{size}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: Vpn,
    pfn: Pfn,
    perms: Permissions,
    dirty: bool,
}

/// A conventional set-associative (or fully-associative) TLB caching
/// exactly one page size — the building block of split TLBs.
///
/// Index bits are taken at the TLB's page-size granularity, e.g. a 16-set
/// 2 MB TLB indexes with virtual address bits 24-21.
///
/// # Examples
///
/// ```
/// use mixtlb_core::{Lookup, SingleSizeTlb, SingleSizeTlbConfig, TlbDevice};
/// use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};
///
/// let cfg = SingleSizeTlbConfig::set_associative(PageSize::Size4K, 16, 4);
/// let mut tlb = SingleSizeTlb::new(cfg);
/// let t = Translation::new(Vpn::new(7), Pfn::new(70), PageSize::Size4K,
///                          Permissions::rw_user());
/// tlb.fill(t.vpn, &t, &[t]);
/// assert!(tlb.lookup(Vpn::new(7), AccessKind::Load).is_hit());
/// assert!(!tlb.lookup(Vpn::new(8), AccessKind::Load).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct SingleSizeTlb {
    config: SingleSizeTlbConfig,
    storage: SetStorage<Entry>,
    stats: TlbStats,
}

impl SingleSizeTlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or the geometry is zero.
    pub fn new(config: SingleSizeTlbConfig) -> SingleSizeTlb {
        assert!(config.sets.is_power_of_two(), "set count must be a power of two");
        let storage = SetStorage::new(config.sets, config.ways);
        SingleSizeTlb {
            config,
            storage,
            stats: TlbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SingleSizeTlbConfig {
        &self.config
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.storage.occupancy()
    }

    fn set_of(&self, base: Vpn) -> usize {
        let idx = base.page_number(self.config.size);
        (idx as usize) & (self.config.sets - 1)
    }

    /// Probes without recording a lookup (used by split TLBs, which probe
    /// all sub-TLBs in parallel but count a single logical lookup).
    pub(crate) fn probe(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        let base = vpn.align_down(self.config.size);
        let set = self.set_of(base);
        self.stats.sets_probed += 1;
        self.stats.entries_read += self.config.ways as u64;
        if let Some(way) = self.storage.find(set, |e| e.vpn == base) {
            self.storage.touch(set, way);
            #[expect(
                clippy::expect_used,
                reason = "way index came from the find() in the surrounding condition"
            )]
            let entry = self.storage.get_mut(set, way).expect("found way is valid");
            let mut dirty_microop = false;
            if kind.is_store() && !entry.dirty {
                dirty_microop = true;
                entry.dirty = true;
                self.stats.dirty_microops += 1;
            }
            let entry = *entry;
            return Lookup::Hit {
                translation: Translation {
                    vpn: entry.vpn,
                    pfn: entry.pfn,
                    size: self.config.size,
                    perms: entry.perms,
                    accessed: true,
                    dirty: entry.dirty,
                },
                dirty_microop,
                run: None,
            };
        }
        Lookup::Miss
    }

    /// Inserts a translation without recording a fill (split TLB plumbing).
    pub(crate) fn insert(&mut self, t: &Translation) {
        debug_assert_eq!(t.size, self.config.size);
        let set = self.set_of(t.vpn);
        // Refresh an existing entry instead of duplicating it.
        if let Some(way) = self.storage.find(set, |e| e.vpn == t.vpn) {
            self.storage.touch(set, way);
            #[expect(
                clippy::expect_used,
                reason = "way index came from the find() in the surrounding condition"
            )]
            let entry = self.storage.get_mut(set, way).expect("found way is valid");
            entry.pfn = t.pfn;
            entry.perms = t.perms;
            entry.dirty = t.dirty;
            self.stats.entries_written += 1;
            return;
        }
        let evicted = self.storage.insert_lru(
            set,
            Entry {
                vpn: t.vpn,
                pfn: t.pfn,
                perms: t.perms,
                dirty: t.dirty,
            },
        );
        self.stats.entries_written += 1;
        if evicted {
            self.stats.evictions += 1;
        }
    }

    pub(crate) fn invalidate_inner(&mut self, vpn: Vpn) {
        let base = vpn.align_down(self.config.size);
        let set = self.set_of(base);
        for way in self.storage.find_all(set, |e| e.vpn == base) {
            self.storage.remove(set, way);
        }
    }
}

impl TlbDevice for SingleSizeTlb {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        self.stats.lookups += 1;
        let result = self.probe(vpn, kind);
        match &result {
            Lookup::Hit { .. } => self.stats.record_hit(self.config.size),
            Lookup::Miss => self.stats.misses += 1,
        }
        result
    }

    fn fill(&mut self, _vpn: Vpn, requested: &Translation, _line: &[Translation]) {
        if requested.size != self.config.size {
            return; // not cacheable here
        }
        self.stats.fills += 1;
        self.insert(requested);
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.stats.invalidations += 1;
        if size == self.config.size {
            self.invalidate_inner(vpn);
        }
    }

    fn flush(&mut self) {
        self.storage.clear();
    }

    fn invalidate_sets(&self, _vpn: Vpn, size: PageSize) -> u64 {
        // A conventional single-size TLB computes the index from the page
        // number directly: a shootdown probes exactly one set when the size
        // matches, and zero when this sub-TLB cannot hold the page at all.
        if size == self.config.size {
            1
        } else {
            0
        }
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

    fn t4k(vpn: u64, pfn: u64) -> Translation {
        Translation::new(
            Vpn::new(vpn),
            Pfn::new(pfn),
            PageSize::Size4K,
            Permissions::rw_user(),
        )
    }

    fn tlb(sets: usize, ways: usize) -> SingleSizeTlb {
        SingleSizeTlb::new(SingleSizeTlbConfig::set_associative(
            PageSize::Size4K,
            sets,
            ways,
        ))
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut tlb = tlb(4, 2);
        let t = t4k(5, 50);
        tlb.fill(t.vpn, &t, &[t]);
        assert!(tlb.lookup(Vpn::new(5), AccessKind::Load).is_hit());
        assert!(!tlb.lookup(Vpn::new(6), AccessKind::Load).is_hit());
        let s = tlb.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.entries_read, 4); // 2 lookups x 2 ways
    }

    #[test]
    fn conflict_eviction_within_set() {
        let mut tlb = tlb(4, 2);
        // VPNs 0, 4, 8 all map to set 0.
        for vpn in [0u64, 4, 8] {
            let t = t4k(vpn, 100 + vpn);
            tlb.fill(t.vpn, &t, &[t]);
        }
        assert!(!tlb.lookup(Vpn::new(0), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(4), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(8), AccessKind::Load).is_hit());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn superpage_tlb_indexes_at_its_granularity() {
        let mut tlb = SingleSizeTlb::new(SingleSizeTlbConfig::set_associative(
            PageSize::Size2M,
            2,
            1,
        ));
        let b = Translation::new(
            Vpn::new(0x400),
            Pfn::new(0),
            PageSize::Size2M,
            Permissions::rw_user(),
        );
        tlb.fill(b.vpn, &b, &[b]);
        // Any 4 KB page inside B hits.
        let hit = tlb.lookup(Vpn::new(0x4FF), AccessKind::Load);
        assert_eq!(hit.translation().unwrap().vpn, Vpn::new(0x400));
        // The next superpage (same set only if index differs) misses.
        assert!(!tlb.lookup(Vpn::new(0x600), AccessKind::Load).is_hit());
    }

    #[test]
    fn wrong_size_fills_are_ignored() {
        let mut tlb = tlb(4, 2);
        let b = Translation::new(
            Vpn::new(0x400),
            Pfn::new(0),
            PageSize::Size2M,
            Permissions::rw_user(),
        );
        tlb.fill(b.vpn, &b, &[b]);
        assert_eq!(tlb.occupancy(), 0);
        assert_eq!(tlb.stats().fills, 0);
    }

    #[test]
    fn dirty_microop_fires_once() {
        let mut tlb = tlb(4, 2);
        let t = t4k(5, 50);
        tlb.fill(t.vpn, &t, &[t]);
        match tlb.lookup(Vpn::new(5), AccessKind::Store) {
            Lookup::Hit { dirty_microop, .. } => assert!(dirty_microop),
            Lookup::Miss => panic!("expected hit"),
        }
        match tlb.lookup(Vpn::new(5), AccessKind::Store) {
            Lookup::Hit { dirty_microop, .. } => assert!(!dirty_microop),
            Lookup::Miss => panic!("expected hit"),
        }
        assert_eq!(tlb.stats().dirty_microops, 1);
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut tlb = tlb(1, 4);
        let t = t4k(5, 50);
        tlb.fill(t.vpn, &t, &[t]);
        let t2 = t4k(5, 99);
        tlb.fill(t2.vpn, &t2, &[t2]);
        assert_eq!(tlb.occupancy(), 1);
        let hit = tlb.lookup(Vpn::new(5), AccessKind::Load);
        assert_eq!(hit.translation().unwrap().pfn, Pfn::new(99));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = tlb(4, 2);
        let t = t4k(5, 50);
        tlb.fill(t.vpn, &t, &[t]);
        tlb.invalidate(Vpn::new(5), PageSize::Size4K);
        assert!(!tlb.lookup(Vpn::new(5), AccessKind::Load).is_hit());
        tlb.fill(t.vpn, &t, &[t]);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn fully_associative_has_one_set() {
        let mut tlb = SingleSizeTlb::new(SingleSizeTlbConfig::fully_associative(
            PageSize::Size1G,
            4,
        ));
        for i in 0..5u64 {
            let t = Translation::new(
                Vpn::new(i << 18),
                Pfn::new(i << 18),
                PageSize::Size1G,
                Permissions::rw_user(),
            );
            tlb.fill(t.vpn, &t, &[t]);
        }
        // 4 entries: the first (LRU) was evicted.
        assert!(!tlb.lookup(Vpn::new(0), AccessKind::Load).is_hit());
        for i in 1..5u64 {
            assert!(tlb.lookup(Vpn::new(i << 18), AccessKind::Load).is_hit());
        }
    }
}
