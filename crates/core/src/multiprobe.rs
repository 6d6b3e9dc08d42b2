//! A hash-rehash (multi-probe) TLB array.
//!
//! One set-associative array holds translations of several page sizes, each
//! indexed with its own size's index bits. Lookup probes once per supported
//! size, in a configurable order, until a probe hits (paper Sec. 5.1). Used
//! both as the Haswell-style partly-split L2 (4 KB + 2 MB together) and as
//! the full hash-rehash baseline; the predictor enhancement lives in
//! `mixtlb-baselines`.

use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};

use crate::api::{Lookup, TlbDevice, TlbStats};
use crate::storage::SetStorage;

/// Geometry of a [`MultiProbeTlb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiProbeConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Page sizes cached, in default probe order.
    pub sizes: Vec<PageSize>,
    /// Design name for reports.
    pub name: String,
}

impl MultiProbeConfig {
    /// The Haswell-style shared L2: 512 entries (128 sets × 4 ways) caching
    /// 4 KB and 2 MB pages via hash-rehash; 1 GB pages live in a separate
    /// TLB (paper Secs. 1, 6.1).
    pub fn haswell_l2() -> MultiProbeConfig {
        MultiProbeConfig {
            sets: 128,
            ways: 4,
            sizes: vec![PageSize::Size4K, PageSize::Size2M],
            name: "hr-l2".to_owned(),
        }
    }

    /// A hash-rehash array covering all three page sizes.
    pub fn all_sizes(sets: usize, ways: usize) -> MultiProbeConfig {
        MultiProbeConfig {
            sets,
            ways,
            sizes: PageSize::ALL.to_vec(),
            name: "hash-rehash".to_owned(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: PageSize,
    vpn: Vpn,
    pfn: Pfn,
    perms: Permissions,
    dirty: bool,
}

/// A hash-rehash TLB. Probe costs accumulate per size tried, making the
/// energy and latency penalty of rehashing visible in [`TlbStats`].
///
/// # Examples
///
/// ```
/// use mixtlb_core::{MultiProbeConfig, MultiProbeTlb, TlbDevice};
/// use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};
///
/// let mut tlb = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4));
/// let b = Translation::new(Vpn::new(0x400), Pfn::new(0), PageSize::Size2M,
///                          Permissions::rw_user());
/// tlb.fill(b.vpn, &b, &[b]);
/// assert!(tlb.lookup(Vpn::new(0x433), AccessKind::Load).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct MultiProbeTlb {
    config: MultiProbeConfig,
    storage: SetStorage<Entry>,
    stats: TlbStats,
}

impl MultiProbeTlb {
    /// Creates an empty array.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or no sizes are given.
    pub fn new(config: MultiProbeConfig) -> MultiProbeTlb {
        assert!(config.sets.is_power_of_two(), "set count must be a power of two");
        assert!(!config.sizes.is_empty(), "at least one page size is required");
        let storage = SetStorage::new(config.sets, config.ways);
        MultiProbeTlb {
            config,
            storage,
            stats: TlbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MultiProbeConfig {
        &self.config
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.storage.occupancy()
    }

    /// Returns `true` if this array caches the given size.
    pub fn caches(&self, size: PageSize) -> bool {
        self.config.sizes.contains(&size)
    }

    fn set_of(&self, vpn: Vpn, size: PageSize) -> usize {
        let idx = vpn.page_number(size);
        (idx as usize) & (self.config.sets - 1)
    }

    /// Probes assuming one page size. Records the probe cost; the caller
    /// decides the probe order (this is where prediction plugs in).
    pub fn probe_size(&mut self, vpn: Vpn, size: PageSize, kind: AccessKind) -> Lookup {
        let base = vpn.align_down(size);
        let set = self.set_of(base, size);
        self.stats.sets_probed += 1;
        self.stats.entries_read += self.config.ways as u64;
        if let Some(way) = self
            .storage
            .find(set, |e| e.size == size && e.vpn == base)
        {
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
                    size: entry.size,
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

    /// Probes every supported size in `order` until one hits, recording a
    /// logical lookup. `order` must be a subset of the configured sizes.
    pub fn lookup_ordered(&mut self, vpn: Vpn, kind: AccessKind, order: &[PageSize]) -> Lookup {
        self.stats.lookups += 1;
        for (i, &size) in order.iter().enumerate() {
            debug_assert!(self.caches(size), "probe order includes uncached size");
            if i > 0 {
                self.stats.serial_probes += 1; // a rehash: serial latency
            }
            let result = self.probe_size(vpn, size, kind);
            if result.is_hit() {
                self.stats.record_hit(size);
                return result;
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Inserts without recording a fill (plumbing for composite designs).
    pub(crate) fn insert(&mut self, t: &Translation) {
        let set = self.set_of(t.vpn, t.size);
        if let Some(way) = self
            .storage
            .find(set, |e| e.size == t.size && e.vpn == t.vpn)
        {
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
                size: t.size,
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
}

impl TlbDevice for MultiProbeTlb {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        // Copy the probe order to the stack (at most one slot per page
        // size) so the per-lookup path stays allocation-free.
        let mut order = [PageSize::Size4K; PageSize::ALL.len()];
        let n = self.config.sizes.len().min(order.len());
        order[..n].copy_from_slice(&self.config.sizes[..n]);
        self.lookup_ordered(vpn, kind, &order[..n])
    }

    fn fill(&mut self, _vpn: Vpn, requested: &Translation, _line: &[Translation]) {
        if !self.caches(requested.size) {
            return;
        }
        self.stats.fills += 1;
        self.insert(requested);
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.stats.invalidations += 1;
        if !self.caches(size) {
            return;
        }
        let base = vpn.align_down(size);
        let set = self.set_of(base, size);
        for way in self
            .storage
            .find_all(set, |e| e.size == size && e.vpn == base)
        {
            self.storage.remove(set, way);
        }
    }

    fn flush(&mut self) {
        self.storage.clear();
    }

    fn invalidate_sets(&self, _vpn: Vpn, size: PageSize) -> u64 {
        // Each size indexes a single set; uncached sizes cost nothing.
        u64::from(self.caches(size))
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

    fn trans(vpn: u64, pfn: u64, size: PageSize) -> Translation {
        Translation::new(Vpn::new(vpn), Pfn::new(pfn), size, rw())
    }

    #[test]
    fn rehash_probe_costs_accumulate() {
        let mut tlb = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4));
        let b = trans(0x400, 0x2000, PageSize::Size2M);
        tlb.fill(b.vpn, &b, &[b]);
        // Hit needs 2 probes (4 KB first, then 2 MB).
        assert!(tlb.lookup(Vpn::new(0x400), AccessKind::Load).is_hit());
        assert_eq!(tlb.stats().sets_probed, 2);
        // A miss pays for all 3 probes.
        assert!(!tlb.lookup(Vpn::new(0x9999), AccessKind::Load).is_hit());
        assert_eq!(tlb.stats().sets_probed, 5);
        assert_eq!(tlb.stats().entries_read, 5 * 4);
    }

    #[test]
    fn all_sizes_share_one_array() {
        let mut tlb = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4));
        let ts = [
            trans(7, 70, PageSize::Size4K),
            trans(0x400, 0x2000, PageSize::Size2M),
            trans(1 << 18, 2 << 18, PageSize::Size1G),
        ];
        for t in ts {
            tlb.fill(t.vpn, &t, &[t]);
        }
        assert_eq!(tlb.occupancy(), 3);
        for t in ts {
            let hit = tlb.lookup(t.vpn, AccessKind::Load);
            assert_eq!(hit.translation().unwrap().size, t.size);
        }
    }

    #[test]
    fn sizes_with_same_index_can_conflict() {
        // 4 KB page at vpn 3 and another at vpn 19 share set 3 in a
        // 16-set array; a 2 MB page indexes by vpn >> 9 instead.
        let mut tlb = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 1));
        let a = trans(3, 30, PageSize::Size4K);
        let b = trans(19, 40, PageSize::Size4K);
        tlb.fill(a.vpn, &a, &[a]);
        tlb.fill(b.vpn, &b, &[b]);
        assert!(!tlb.lookup(Vpn::new(3), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(19), AccessKind::Load).is_hit());
    }

    #[test]
    fn haswell_l2_rejects_1g() {
        let mut tlb = MultiProbeTlb::new(MultiProbeConfig::haswell_l2());
        let g = trans(1 << 18, 2 << 18, PageSize::Size1G);
        tlb.fill(g.vpn, &g, &[g]);
        assert_eq!(tlb.occupancy(), 0);
        assert!(!tlb.caches(PageSize::Size1G));
    }

    #[test]
    fn custom_probe_order_finds_superpages_first() {
        let mut tlb = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4));
        let b = trans(0x400, 0x2000, PageSize::Size2M);
        tlb.fill(b.vpn, &b, &[b]);
        let hit = tlb.lookup_ordered(
            Vpn::new(0x400),
            AccessKind::Load,
            &[PageSize::Size2M, PageSize::Size4K, PageSize::Size1G],
        );
        assert!(hit.is_hit());
        assert_eq!(tlb.stats().sets_probed, 1); // first probe hit
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4));
        let b = trans(0x400, 0x2000, PageSize::Size2M);
        tlb.fill(b.vpn, &b, &[b]);
        tlb.invalidate(Vpn::new(0x4FF), PageSize::Size2M);
        assert!(!tlb.lookup(Vpn::new(0x400), AccessKind::Load).is_hit());
        tlb.fill(b.vpn, &b, &[b]);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn serial_probe_accounting() {
        let mut tlb = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4));
        let b = trans(0x400, 0x2000, PageSize::Size2M);
        tlb.fill(b.vpn, &b, &[b]);
        // Hit on the second probe: one serial rehash.
        tlb.lookup(Vpn::new(0x400), AccessKind::Load);
        assert_eq!(tlb.stats().serial_probes, 1);
        // A miss tries all 3 sizes: two more serial rehashes.
        tlb.lookup(Vpn::new(0x0099_9999), AccessKind::Load);
        assert_eq!(tlb.stats().serial_probes, 3);
        // A first-probe hit adds none.
        let a = trans(7, 70, PageSize::Size4K);
        tlb.fill(a.vpn, &a, &[a]);
        tlb.lookup(Vpn::new(7), AccessKind::Load);
        assert_eq!(tlb.stats().serial_probes, 3);
    }

    #[test]
    fn dirty_microop_semantics() {
        let mut tlb = MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4));
        let t = trans(7, 70, PageSize::Size4K);
        tlb.fill(t.vpn, &t, &[t]);
        match tlb.lookup(Vpn::new(7), AccessKind::Store) {
            Lookup::Hit { dirty_microop, .. } => assert!(dirty_microop),
            Lookup::Miss => panic!("expected hit"),
        }
        assert_eq!(tlb.stats().dirty_microops, 1);
    }
}
