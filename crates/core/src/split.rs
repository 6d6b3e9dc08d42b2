//! Split (partitioned) TLBs: the commercial baseline, the Haswell L2 and
//! the COLT family.

use mixtlb_types::{AccessKind, PageSize, Translation, Vpn};

use crate::api::{Lookup, TlbDevice, TlbStats};
use crate::colt::{CoalescedSizeTlb, CoalescedSizeTlbConfig};
use crate::multiprobe::{MultiProbeConfig, MultiProbeTlb};

/// A split TLB: separate parts, each caching its own page sizes, all
/// probed in parallel. Fills and invalidations reach every part, and each
/// part ignores the sizes it does not cache.
///
/// This sidesteps the index-bits problem (each part knows its page size)
/// but underutilizes capacity: when the OS allocates mostly one page size,
/// the other parts sit idle — the problem MIX TLBs solve (paper Sec. 1).
///
/// [`TlbDevice::stats`] reports logical lookups, hits, misses, fills,
/// invalidations and dirty micro-ops counted here, plus the parts' probe,
/// write, eviction, merge and serial-probe costs (the parts' own lookup
/// tallies describe probes, not logical lookups, and are discarded).
///
/// # Examples
///
/// ```
/// use mixtlb_core::{SplitTlb, TlbDevice};
/// use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};
///
/// let mut tlb = SplitTlb::haswell_l1();
/// let b = Translation::new(Vpn::new(0x400), Pfn::new(0), PageSize::Size2M,
///                          Permissions::rw_user());
/// tlb.fill(b.vpn, &b, &[b]);
/// assert!(tlb.lookup(Vpn::new(0x4F0), AccessKind::Load).is_hit());
/// ```
pub struct SplitTlb {
    parts: Vec<Box<dyn TlbDevice>>,
    name: String,
    stats: TlbStats,
}

impl std::fmt::Debug for SplitTlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitTlb")
            .field("name", &self.name)
            .field("parts", &self.parts.iter().map(|p| p.name()).collect::<Vec<_>>())
            .finish()
    }
}

/// A conventional array for one page size, as a split part.
fn one_size(size: PageSize, sets: usize, ways: usize) -> Box<dyn TlbDevice> {
    Box::new(MultiProbeTlb::new(MultiProbeConfig::one_size(size, sets, ways)))
}

/// A fully associative array for one page size, as a split part.
fn fully_associative(size: PageSize, entries: usize) -> Box<dyn TlbDevice> {
    Box::new(MultiProbeTlb::new(MultiProbeConfig::fully_associative(size, entries)))
}

/// A COLT array with bundle 4 for one page size, as a split part.
fn colt4(size: PageSize, sets: usize, ways: usize) -> Box<dyn TlbDevice> {
    Box::new(CoalescedSizeTlb::new(CoalescedSizeTlbConfig::colt4(size, sets, ways)))
}

impl SplitTlb {
    /// Assembles a split TLB from parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(name: &str, parts: Vec<Box<dyn TlbDevice>>) -> SplitTlb {
        assert!(!parts.is_empty(), "a split TLB needs at least one part");
        SplitTlb {
            parts,
            name: name.to_owned(),
            stats: TlbStats::default(),
        }
    }

    /// The paper's evaluation machine's L1: 4-way split TLBs with 64
    /// entries for 4 KB pages and 32 entries for 2 MB pages, plus a 4-entry
    /// fully-associative 1 GB TLB (Sec. 6.1).
    pub fn haswell_l1() -> SplitTlb {
        SplitTlb::new(
            "split-l1",
            vec![
                one_size(PageSize::Size4K, 16, 4),
                one_size(PageSize::Size2M, 8, 4),
                fully_associative(PageSize::Size1G, 4),
            ],
        )
    }

    /// The GPU per-shader-core L1 of the paper's Sec. 6.3: 128-entry 4-way
    /// for 4 KB pages, 32-entry 4-way for 2 MB, 4-entry fully-associative
    /// for 1 GB.
    pub fn gpu_l1() -> SplitTlb {
        SplitTlb::new(
            "split-gpu-l1",
            vec![
                one_size(PageSize::Size4K, 32, 4),
                one_size(PageSize::Size2M, 8, 4),
                fully_associative(PageSize::Size1G, 4),
            ],
        )
    }

    /// The Haswell partly split L2: a 512-entry hash-rehash array for
    /// 4 KB and 2 MB pages beside a 32-entry 1 GB array (Secs. 1, 6.1).
    pub fn haswell_l2() -> SplitTlb {
        SplitTlb::new(
            "haswell-l2",
            vec![
                Box::new(MultiProbeTlb::new(MultiProbeConfig::haswell_l2())),
                one_size(PageSize::Size1G, 8, 4),
            ],
        )
    }

    /// The original COLT design in a Haswell-style split L1: a coalescing
    /// 4 KB part (bundle 4) next to conventional 2 MB and 1 GB parts.
    pub fn colt_l1() -> SplitTlb {
        SplitTlb::new(
            "colt",
            vec![
                colt4(PageSize::Size4K, 16, 4),
                one_size(PageSize::Size2M, 8, 4),
                fully_associative(PageSize::Size1G, 4),
            ],
        )
    }

    /// COLT++ (paper Sec. 7.2): every split part coalesces its own size —
    /// contiguous superpages too — but the parts remain split, so capacity
    /// is still partitioned by page size.
    pub fn colt_plus_plus_l1() -> SplitTlb {
        SplitTlb::new(
            "colt++",
            vec![
                colt4(PageSize::Size4K, 16, 4),
                colt4(PageSize::Size2M, 8, 4),
                colt4(PageSize::Size1G, 1, 4),
            ],
        )
    }
}

impl TlbDevice for SplitTlb {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        self.stats.lookups += 1;
        // All parts are probed in parallel; at most one can hit.
        let mut result = Lookup::Miss;
        for part in &mut self.parts {
            let probe = part.lookup(vpn, kind);
            if probe.is_hit() {
                debug_assert!(
                    !result.is_hit(),
                    "two parts hit the same page — mapping changed without invalidation"
                );
                result = probe;
            }
        }
        match &result {
            Lookup::Hit { translation, dirty_microop, .. } => {
                self.stats.record_hit(translation.size);
                if *dirty_microop {
                    self.stats.dirty_microops += 1;
                }
            }
            Lookup::Miss => self.stats.misses += 1,
        }
        result
    }

    fn fill(&mut self, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        self.stats.fills += 1;
        for part in &mut self.parts {
            part.fill(vpn, requested, line);
        }
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.stats.invalidations += 1;
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
        // Only the parts caching the page's size are probed, each in a
        // single set: split TLBs pay the minimum shootdown cost (Sec. 5.1
        // contrasts this with MIX's mirrored sweep).
        self.parts.iter().map(|p| p.invalidate_sets(vpn, size)).sum()
    }

    fn capacity(&self) -> usize {
        self.parts.iter().map(|p| p.capacity()).sum()
    }

    fn stats(&self) -> TlbStats {
        let mut merged = self.stats;
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
        self.stats = TlbStats::default();
        for part in &mut self.parts {
            part.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixtlb_types::{Permissions, Pfn};

    fn rw() -> Permissions {
        Permissions::rw_user()
    }

    fn trans(vpn: u64, pfn: u64, size: PageSize) -> Translation {
        Translation::new(Vpn::new(vpn), Pfn::new(pfn), size, rw())
    }

    fn t4k(vpn: u64, pfn: u64) -> Translation {
        trans(vpn, pfn, PageSize::Size4K)
    }

    fn sp2m(vpn: u64, pfn: u64) -> Translation {
        trans(vpn, pfn, PageSize::Size2M)
    }

    #[test]
    fn each_size_lands_in_its_part() {
        let mut tlb = SplitTlb::haswell_l1();
        let t4 = t4k(7, 70);
        let t2 = sp2m(0x400, 0x2000);
        let t1 = trans(1 << 18, 2 << 18, PageSize::Size1G);
        for t in [t4, t2, t1] {
            tlb.fill(t.vpn, &t, &[t]);
        }
        // One entry written per fill: only the matching part takes it.
        assert_eq!(tlb.stats().entries_written, 3);
        for t in [t4, t2, t1] {
            let hit = tlb.lookup(t.vpn, AccessKind::Load);
            assert_eq!(hit.translation().unwrap().size, t.size);
        }
        assert_eq!(tlb.stats().hits_by_size, [1, 1, 1]);
    }

    #[test]
    fn superpage_pressure_cannot_use_small_page_entries() {
        // The paper's core complaint: the 2 MB part has 32 entries; a 33rd
        // 2 MB translation thrashes even though the 64-entry 4 KB part is
        // idle.
        let mut tlb = SplitTlb::haswell_l1();
        for i in 0..33u64 {
            let t = sp2m(i * 512, i * 512);
            tlb.fill(t.vpn, &t, &[t]);
        }
        let hits = (0..33u64)
            .filter(|&i| tlb.lookup(Vpn::new(i * 512), AccessKind::Load).is_hit())
            .count();
        assert_eq!(hits, 32);
    }

    #[test]
    fn probe_energy_counts_all_parts() {
        let mut tlb = SplitTlb::haswell_l1();
        tlb.lookup(Vpn::new(0), AccessKind::Load);
        let s = tlb.stats();
        // 4 ways + 4 ways + 4 FA entries read on the one lookup.
        assert_eq!(s.entries_read, 12);
        assert_eq!(s.sets_probed, 3);
        assert_eq!((s.lookups, s.misses), (1, 1));
    }

    #[test]
    fn invalidation_targets_the_right_part() {
        let mut tlb = SplitTlb::haswell_l1();
        let t2 = sp2m(0x400, 0x2000);
        tlb.fill(t2.vpn, &t2, &[t2]);
        // Invalidating a 4 KB page at the same address leaves the 2 MB
        // entry alone.
        tlb.invalidate(Vpn::new(0x400), PageSize::Size4K);
        assert!(tlb.lookup(Vpn::new(0x400), AccessKind::Load).is_hit());
        tlb.invalidate(Vpn::new(0x400), PageSize::Size2M);
        assert!(!tlb.lookup(Vpn::new(0x400), AccessKind::Load).is_hit());
        assert_eq!(tlb.stats().invalidations, 2);
    }

    #[test]
    fn flush_clears_all_parts() {
        let mut tlb = SplitTlb::haswell_l1();
        let t = t4k(7, 70);
        tlb.fill(t.vpn, &t, &[t]);
        tlb.flush();
        assert!(!tlb.lookup(Vpn::new(7), AccessKind::Load).is_hit());
    }

    #[test]
    fn capacity_for_area_equivalence() {
        assert_eq!(SplitTlb::haswell_l1().capacity(), 64 + 32 + 4);
        assert_eq!(SplitTlb::gpu_l1().capacity(), 128 + 32 + 4);
        assert_eq!(SplitTlb::haswell_l2().capacity(), 512 + 32);
    }

    #[test]
    fn haswell_l2_rehashes_only_in_its_shared_array() {
        let mut tlb = SplitTlb::haswell_l2();
        let g = trans(1 << 18, 2 << 18, PageSize::Size1G);
        tlb.fill(g.vpn, &g, &[g]);
        assert!(tlb.lookup(Vpn::new((1 << 18) + 5), AccessKind::Load).is_hit());
        let s = tlb.stats();
        // The 4 KB/2 MB array probes twice (one serial rehash), the 1 GB
        // array once.
        assert_eq!((s.sets_probed, s.serial_probes), (3, 1));
        assert_eq!(s.hits_by_size, [0, 0, 1]);
    }

    #[test]
    fn colt_split_routes_sizes() {
        let mut tlb = SplitTlb::colt_l1();
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
        let mut tlb = SplitTlb::colt_plus_plus_l1();
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
        assert_eq!(s.entries_written, 1);
    }

    #[test]
    fn colt_split_stats_merge_probe_costs() {
        let mut tlb = SplitTlb::colt_l1();
        tlb.lookup(Vpn::new(0), AccessKind::Load);
        let s = tlb.stats();
        assert_eq!(s.lookups, 1);
        assert_eq!(s.misses, 1);
        // 4 (colt) + 4 (2M) + 4 (1G FA) entries read.
        assert_eq!(s.entries_read, 12);
    }

    #[test]
    fn invalidation_reaches_every_coalescing_part() {
        let mut tlb = SplitTlb::colt_plus_plus_l1();
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
    fn reset_stats_clears_parts_too() {
        let mut tlb = SplitTlb::colt_l1();
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
    #[should_panic(expected = "at least one part")]
    fn empty_split_rejected() {
        let _ = SplitTlb::new("x", Vec::new());
    }
}
