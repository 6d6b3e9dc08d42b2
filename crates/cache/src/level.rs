//! A single set-associative cache level.

use mixtlb_types::PhysAddr;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (64 on every machine we model).
    pub line_bytes: u64,
    /// Access latency in cycles when this level hits.
    pub hit_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry. Indexing is modulo, so
    /// non-power-of-two set counts (e.g. a 24 MB sliced LLC) are fine.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    pub fn sets(&self) -> u64 {
        let sets = self.capacity_bytes / (u64::from(self.ways) * self.line_bytes);
        assert!(sets > 0, "cache geometry yields zero sets");
        sets
    }
}

/// One functional set-associative cache with true-LRU replacement.
///
/// Tracks presence only (no data, no dirty writeback modeling) — exactly
/// what is needed to decide where a PTE read hits.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    config: CacheConfig,
    sets: u64,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl CacheLevel {
    /// Creates an empty cache of the given geometry.
    pub fn new(config: CacheConfig) -> CacheLevel {
        let sets = config.sets();
        let slots = (sets * u64::from(config.ways)) as usize;
        CacheLevel {
            config,
            sets,
            tags: vec![u64::MAX; slots],
            stamps: vec![0; slots],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks up a physical address, filling the line on a miss.
    /// Returns `true` on a hit.
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        self.tick += 1;
        let line = pa.line_index(self.config.line_bytes);
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let slots = &mut self.tags[base..base + ways];
        if let Some(way) = slots.iter().position(|&t| t == tag) {
            self.stamps[base + way] = self.tick;
            self.hits += 1;
            return true;
        }
        // Miss: fill the LRU way.
        #[expect(clippy::expect_used, reason = "ways >= 1 by construction, the min always exists")]
        let victim = (0..ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("cache has at least one way");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.tick;
        self.misses += 1;
        false
    }

    /// Probes without modifying state. Returns `true` if present.
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let line = pa.line_index(self.config.line_bytes);
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let ways = self.config.ways as usize;
        let base = set * ways;
        self.tags[base..base + ways].contains(&tag)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Empties the cache, preserving statistics.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheLevel {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        CacheLevel::new(CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_cycles: 1,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(tiny().config().sets(), 2);
    }

    #[test]
    #[should_panic(expected = "zero sets")]
    fn bad_geometry_panics() {
        let _ = CacheLevel::new(CacheConfig {
            capacity_bytes: 32,
            ways: 1,
            line_bytes: 64,
            hit_cycles: 1,
        });
    }

    #[test]
    fn non_power_of_two_set_counts_work() {
        // 3 sets x 1 way.
        let mut c = CacheLevel::new(CacheConfig {
            capacity_bytes: 192,
            ways: 1,
            line_bytes: 64,
            hit_cycles: 1,
        });
        assert_eq!(c.config().sets(), 3);
        assert!(!c.access(PhysAddr::new(0)));
        assert!(c.access(PhysAddr::new(0)));
        assert!(!c.access(PhysAddr::new(3 * 64))); // same set, evicts
        assert!(!c.probe(PhysAddr::new(0)));
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(PhysAddr::new(0)));
        assert!(c.access(PhysAddr::new(0)));
        assert!(c.access(PhysAddr::new(63))); // same line
        assert!(!c.access(PhysAddr::new(64))); // next line, different set
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line % 2 == 0): lines 0, 2, 4.
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(2 * 64));
        c.access(PhysAddr::new(0)); // refresh line 0
        c.access(PhysAddr::new(4 * 64)); // evicts line 2
        assert!(c.probe(PhysAddr::new(0)));
        assert!(!c.probe(PhysAddr::new(2 * 64)));
        assert!(c.probe(PhysAddr::new(4 * 64)));
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = tiny();
        c.access(PhysAddr::new(0));
        c.flush();
        assert!(!c.probe(PhysAddr::new(0)));
    }
}
