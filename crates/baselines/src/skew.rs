//! A skew-associative TLB supporting multiple page sizes concurrently
//! (Seznec, IEEE ToC 2004; paper Sec. 5.1).

use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};

use mixtlb_core::{Lookup, TlbDevice, TlbStats};

/// Geometry of a [`SkewTlb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewTlbConfig {
    /// Ways dedicated to each page size (total ways = 3 × this).
    pub ways_per_size: usize,
    /// Entries per way (a power of two).
    pub way_sets: usize,
    /// Design name for reports.
    pub name: String,
}

impl SkewTlbConfig {
    /// A skew TLB with `ways_per_size` ways per page size and `way_sets`
    /// entries per way.
    pub fn new(ways_per_size: usize, way_sets: usize) -> SkewTlbConfig {
        SkewTlbConfig {
            ways_per_size,
            way_sets,
            name: "skew".to_owned(),
        }
    }

    /// Total entries.
    pub fn total_entries(&self) -> usize {
        self.ways_per_size * PageSize::ALL.len() * self.way_sets
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: Vpn,
    pfn: Pfn,
    perms: Permissions,
    dirty: bool,
}

/// A skew-associative TLB.
///
/// Each page size owns `ways_per_size` ways; way `w` indexes entries with
/// its own hash of the size-aligned VPN, so translations that conflict in
/// one way usually do not conflict in another. Every lookup reads **all**
/// ways in parallel (`entries_read` grows with the sum of associativities —
/// the design's energy weakness), and replacement uses global timestamps
/// (its area weakness, which area-equivalent comparisons in the benchmarks
/// charge as fewer entries).
#[derive(Debug, Clone)]
pub struct SkewTlb {
    config: SkewTlbConfig,
    /// `slots[way][index]`; ways are grouped by size:
    /// `way = size_class * ways_per_size + k`.
    slots: Vec<Vec<Option<Entry>>>,
    stamps: Vec<Vec<u64>>,
    tick: u64,
    stats: TlbStats,
}

impl SkewTlb {
    /// Creates an empty skew TLB.
    ///
    /// # Panics
    ///
    /// Panics if `way_sets` is not a power of two or the geometry is zero.
    pub fn new(config: SkewTlbConfig) -> SkewTlb {
        assert!(config.way_sets.is_power_of_two(), "way_sets must be a power of two");
        assert!(config.ways_per_size > 0, "ways_per_size must be non-zero");
        let total_ways = config.ways_per_size * PageSize::ALL.len();
        SkewTlb {
            slots: vec![vec![None; config.way_sets]; total_ways],
            stamps: vec![vec![0; config.way_sets]; total_ways],
            tick: 0,
            config,
            stats: TlbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SkewTlbConfig {
        &self.config
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.slots
            .iter()
            .map(|w| w.iter().filter(|s| s.is_some()).count())
            .sum()
    }

    fn ways_of(&self, size: PageSize) -> std::ops::Range<usize> {
        let class = size.encode() as usize;
        let start = class * self.config.ways_per_size;
        start..start + self.config.ways_per_size
    }

    /// The skewing hash of way `w`: a way-salted multiplicative hash of the
    /// size-granular page number. (Real implementations use simple XOR
    /// skews; behaviourally what matters is that different ways disperse
    /// conflicting translations differently.)
    fn index(&self, way: usize, base: Vpn, size: PageSize) -> usize {
        let x = base.page_number(size);
        let salt = 0x9E37_79B9_7F4A_7C15u64 ^ ((way as u64 + 1) * 0x00C2_B2AE_3D27_D4EB);
        let mut h = x.wrapping_mul(salt);
        h ^= h >> 31;
        (h as usize) & (self.config.way_sets - 1)
    }

    /// Records one serial (rehash) probe driven externally.
    pub(crate) fn note_serial_probe(&mut self) {
        self.stats.serial_probes += 1;
    }

    /// Records a logical lookup outcome driven externally (the predictive
    /// wrapper probes sizes itself via [`SkewTlb::probe_size`]).
    pub(crate) fn record_external_lookup(&mut self, hit: Option<&Lookup>) {
        self.stats.lookups += 1;
        match hit {
            Some(Lookup::Hit { translation, .. }) => self.stats.record_hit(translation.size),
            _ => self.stats.misses += 1,
        }
    }

    /// Probes only the ways of one size (prediction plumbing). Counts probe
    /// cost for those ways.
    pub(crate) fn probe_size(&mut self, vpn: Vpn, size: PageSize, kind: AccessKind) -> Lookup {
        let base = vpn.align_down(size);
        self.stats.sets_probed += 1;
        self.stats.entries_read += self.config.ways_per_size as u64;
        for way in self.ways_of(size) {
            let idx = self.index(way, base, size);
            let hit = matches!(&self.slots[way][idx], Some(e) if e.vpn == base);
            if hit {
                self.tick += 1;
                self.stamps[way][idx] = self.tick;
                #[expect(
                    clippy::expect_used,
                    reason = "index returned by the hit probe, entry is occupied"
                )]
                let entry = self.slots[way][idx].as_mut().expect("hit slot is valid");
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
                        size,
                        perms: entry.perms,
                        accessed: true,
                        dirty: entry.dirty,
                    },
                    dirty_microop,
                    run: None,
                };
            }
        }
        Lookup::Miss
    }
}

impl TlbDevice for SkewTlb {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        self.stats.lookups += 1;
        // All ways of all sizes are read in parallel.
        let mut result = Lookup::Miss;
        for size in PageSize::ALL {
            let probe = self.probe_size(vpn, size, kind);
            if probe.is_hit() {
                debug_assert!(!result.is_hit(), "two sizes hit the same page");
                result = probe;
            }
        }
        match &result {
            Lookup::Hit { translation, .. } => self.stats.record_hit(translation.size),
            Lookup::Miss => self.stats.misses += 1,
        }
        result
    }

    fn fill(&mut self, _vpn: Vpn, requested: &Translation, _line: &[Translation]) {
        self.stats.fills += 1;
        let base = requested.vpn;
        // Refresh an existing copy if present.
        for way in self.ways_of(requested.size) {
            let idx = self.index(way, base, requested.size);
            if matches!(&self.slots[way][idx], Some(e) if e.vpn == base) {
                self.tick += 1;
                self.stamps[way][idx] = self.tick;
                self.slots[way][idx] = Some(Entry {
                    vpn: base,
                    pfn: requested.pfn,
                    perms: requested.perms,
                    dirty: requested.dirty,
                });
                self.stats.entries_written += 1;
                return;
            }
        }
        // Choose the emptiest/oldest candidate slot across this size's
        // ways (timestamp replacement).
        #[expect(
            clippy::expect_used,
            reason = "every size class owns >= 1 way, the candidate list is never empty"
        )]
        let (way, idx) = self
            .ways_of(requested.size)
            .map(|way| {
                let idx = self.index(way, base, requested.size);
                let key = match &self.slots[way][idx] {
                    None => 0,
                    Some(_) => self.stamps[way][idx] + 1,
                };
                (key, way, idx)
            })
            .min()
            .map(|(_, way, idx)| (way, idx))
            .expect("at least one way per size");
        if self.slots[way][idx].is_some() {
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.stamps[way][idx] = self.tick;
        self.slots[way][idx] = Some(Entry {
            vpn: base,
            pfn: requested.pfn,
            perms: requested.perms,
            dirty: requested.dirty,
        });
        self.stats.entries_written += 1;
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.stats.invalidations += 1;
        let base = vpn.align_down(size);
        for way in self.ways_of(size) {
            let idx = self.index(way, base, size);
            if matches!(&self.slots[way][idx], Some(e) if e.vpn == base) {
                self.slots[way][idx] = None;
            }
        }
    }

    fn flush(&mut self) {
        for way in &mut self.slots {
            way.fill(None);
        }
        for way in &mut self.stamps {
            way.fill(0);
        }
    }

    fn invalidate_sets(&self, _vpn: Vpn, _size: PageSize) -> u64 {
        // The skew hashes pinpoint one candidate slot per way of the page's
        // size; all ways are probed in parallel, so the sweep is one "set"
        // wide, like a conventional design.
        1
    }

    fn capacity(&self) -> usize {
        self.config.total_entries()
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
    fn all_sizes_coexist() {
        let mut tlb = SkewTlb::new(SkewTlbConfig::new(2, 16));
        let ts = [
            trans(7, 70, PageSize::Size4K),
            trans(0x400, 0x2000, PageSize::Size2M),
            trans(1 << 18, 2 << 18, PageSize::Size1G),
        ];
        for t in ts {
            tlb.fill(t.vpn, &t, &[t]);
        }
        for t in ts {
            let hit = tlb.lookup(t.vpn, AccessKind::Load);
            assert_eq!(hit.translation().unwrap().size, t.size);
        }
        assert_eq!(tlb.occupancy(), 3);
    }

    #[test]
    fn lookup_reads_every_way() {
        let mut tlb = SkewTlb::new(SkewTlbConfig::new(2, 16));
        tlb.lookup(Vpn::new(0), AccessKind::Load);
        // 3 sizes x 2 ways read per lookup.
        assert_eq!(tlb.stats().entries_read, 6);
    }

    #[test]
    fn skewing_disperses_conflicts() {
        // Translations that would collide under modulo indexing land in
        // different slots across ways; with 2 ways x 64 slots we expect to
        // hold far more than 2 of a 64-entry stride-conflict set.
        let mut tlb = SkewTlb::new(SkewTlbConfig::new(2, 64));
        let n = 32u64;
        for i in 0..n {
            // Stride chosen to alias badly under modulo-64 indexing.
            let t = trans(i * 64, i * 64, PageSize::Size4K);
            tlb.fill(t.vpn, &t, &[t]);
        }
        let hits = (0..n)
            .filter(|&i| tlb.lookup(Vpn::new(i * 64), AccessKind::Load).is_hit())
            .count();
        assert!(hits > n as usize / 2, "only {hits}/{n} survived skewing");
    }

    #[test]
    fn timestamps_give_lru_like_replacement() {
        let mut tlb = SkewTlb::new(SkewTlbConfig::new(1, 1));
        // One way of one slot per size: a second 4 KB fill evicts the first.
        let a = trans(1, 10, PageSize::Size4K);
        let b = trans(2, 20, PageSize::Size4K);
        tlb.fill(a.vpn, &a, &[a]);
        tlb.fill(b.vpn, &b, &[b]);
        assert!(!tlb.lookup(Vpn::new(1), AccessKind::Load).is_hit());
        assert!(tlb.lookup(Vpn::new(2), AccessKind::Load).is_hit());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = SkewTlb::new(SkewTlbConfig::new(2, 16));
        let b = trans(0x400, 0x2000, PageSize::Size2M);
        tlb.fill(b.vpn, &b, &[b]);
        tlb.invalidate(Vpn::new(0x433), PageSize::Size2M);
        assert!(!tlb.lookup(Vpn::new(0x400), AccessKind::Load).is_hit());
        tlb.fill(b.vpn, &b, &[b]);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn dirty_microop_semantics() {
        let mut tlb = SkewTlb::new(SkewTlbConfig::new(2, 16));
        let t = trans(7, 70, PageSize::Size4K);
        tlb.fill(t.vpn, &t, &[t]);
        match tlb.lookup(Vpn::new(7), AccessKind::Store) {
            Lookup::Hit { dirty_microop, .. } => assert!(dirty_microop),
            Lookup::Miss => panic!("expected hit"),
        }
        match tlb.lookup(Vpn::new(7), AccessKind::Store) {
            Lookup::Hit { dirty_microop, .. } => assert!(!dirty_microop),
            Lookup::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn total_entries() {
        assert_eq!(SkewTlbConfig::new(2, 16).total_entries(), 96);
    }
}
