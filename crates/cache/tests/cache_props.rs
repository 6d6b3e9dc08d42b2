//! Property tests for the cache hierarchy: LRU behaviour matches a model,
//! inclusion-by-fill holds, and latency accounting is consistent.

use mixtlb_cache::{CacheConfig, CacheHierarchy, CacheLevel, HierarchyConfig, PageWalkCache};
use mixtlb_types::PhysAddr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A reference fully-associative LRU of `capacity` lines.
struct ModelLru {
    lines: VecDeque<u64>,
    capacity: usize,
}

impl ModelLru {
    fn access(&mut self, line: u64) -> bool {
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
            self.lines.push_back(line);
            true
        } else {
            if self.lines.len() == self.capacity {
                self.lines.pop_front();
            }
            self.lines.push_back(line);
            false
        }
    }
}

/// A single-set cache is exactly a fully-associative LRU.
#[test]
fn single_set_cache_is_lru() {
    for case in 0..128 {
        let mut rng = SmallRng::seed_from_u64(case);
        let ways = rng.gen_range(1..8u32);
        let mut cache = CacheLevel::new(CacheConfig {
            capacity_bytes: u64::from(ways) * 64,
            ways,
            line_bytes: 64,
            hit_cycles: 1,
        });
        let mut model = ModelLru { lines: VecDeque::new(), capacity: ways as usize };
        for _ in 0..rng.gen_range(1..200) {
            let line = rng.gen_range(0..32);
            let hit = cache.access(PhysAddr::new(line * 64));
            assert_eq!(hit, model.access(line), "case {case}: line {line}");
        }
    }
}

/// The PWC is exactly a fully-associative LRU too.
#[test]
fn pwc_is_lru() {
    for case in 0..128 {
        let mut rng = SmallRng::seed_from_u64(case);
        let capacity = rng.gen_range(1..8usize);
        let accesses = rng.gen_range(1..200);
        let mut pwc = PageWalkCache::new(capacity);
        let mut model = ModelLru { lines: VecDeque::new(), capacity };
        for _ in 0..accesses {
            let key = rng.gen_range(0..24);
            assert_eq!(pwc.access(PhysAddr::new(key * 8)), model.access(key), "case {case}");
        }
        let (hits, misses) = pwc.stats();
        assert_eq!(hits + misses, accesses, "case {case}");
    }
}

/// Hierarchy latency equals the sum of traversed levels (+ DRAM), and
/// an immediate re-access always hits L1.
#[test]
fn hierarchy_latency_accounting() {
    for case in 0..128 {
        let mut rng = SmallRng::seed_from_u64(case);
        let cfg = HierarchyConfig::tiny();
        let l1 = cfg.levels[0].hit_cycles;
        let l2 = cfg.levels[1].hit_cycles;
        let dram = cfg.dram_cycles;
        let mut h = CacheHierarchy::new(cfg);
        let mut total = 0;
        for _ in 0..rng.gen_range(1..100) {
            let pa = PhysAddr::new(rng.gen_range(0..4096u64) * 64);
            let r = h.access(pa);
            let expected = match (r.level_hit, r.dram) {
                (Some(0), false) => l1,
                (Some(1), false) => l1 + l2,
                (None, true) => l1 + l2 + dram,
                other => panic!("case {case}: impossible outcome {other:?}"),
            };
            assert_eq!(r.cycles, expected, "case {case}");
            total += expected;
            // The line is now resident in L1.
            let again = h.access(pa);
            assert_eq!(again.level_hit, Some(0), "case {case}");
            total += l1;
        }
        assert_eq!(h.stats().total_cycles, total, "case {case}");
    }
}
