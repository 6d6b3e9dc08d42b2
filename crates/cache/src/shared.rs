//! A thread-safe shared last-level cache for multicore simulation.
//!
//! The SMP engine gives each core a *private* L1D/L2 [`CacheHierarchy`]
//! (see [`HierarchyConfig::haswell_private`]) and routes private-side
//! misses into one [`SharedCache`] — the LLC all cores contend on, with
//! DRAM behind it. The LLC is sharded by line address (like the sliced
//! ring/mesh LLCs of real parts): each shard is an independent
//! set-associative slice behind its own lock, so cores touching different
//! slices never serialize on each other.
//!
//! Contents are a function of *which* lines were accessed, not of the
//! interleaving order of cores — only LRU decisions inside one slice are
//! order-dependent. The SMP engine therefore treats LLC latency as a
//! stall-cycle estimate; architectural state (TLBs, page tables) never
//! depends on it, which is what keeps parallel replay deterministic.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use mixtlb_cache::{SharedCache, SharedCacheConfig};
//! use mixtlb_types::PhysAddr;
//!
//! let llc = Arc::new(SharedCache::new(SharedCacheConfig::haswell_llc()));
//! let cold = llc.access(PhysAddr::new(0x1000));
//! assert!(cold.dram);
//! let warm = llc.access(PhysAddr::new(0x1000));
//! assert!(!warm.dram);
//! assert!(warm.cycles < cold.cycles);
//! ```

// The sync primitives come from mixtlb-check's facade: plain `std::sync`
// re-exports in production, instrumented schedule-point wrappers under the
// `model` feature so the bounded interleaving explorer can drive this
// module through every schedule (see crates/check).
use mixtlb_check::sync::{AtomicU64, Mutex, Ordering};

use mixtlb_types::PhysAddr;

use crate::hierarchy::HierarchyConfig;
use crate::level::{CacheConfig, CacheLevel};

/// Geometry of a [`SharedCache`]: one LLC slice repeated per shard, plus
/// the DRAM latency paid behind a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedCacheConfig {
    /// Total LLC capacity in bytes, divided evenly across shards.
    pub capacity_bytes: u64,
    /// Associativity of every shard.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Latency of an LLC hit.
    pub hit_cycles: u64,
    /// Extra latency when the LLC misses and DRAM answers.
    pub dram_cycles: u64,
    /// Number of independent slices (a power of two).
    pub shards: usize,
}

impl SharedCacheConfig {
    /// The paper's Haswell 24 MB 16-way LLC (42-cycle hit, ~200-cycle
    /// DRAM), sliced 8 ways like the ring-stop LLC of the real part.
    pub fn haswell_llc() -> SharedCacheConfig {
        SharedCacheConfig {
            capacity_bytes: 24 << 20,
            ways: 16,
            line_bytes: 64,
            hit_cycles: 42,
            dram_cycles: 200,
            shards: 8,
        }
    }

    /// A small sliced LLC for unit tests.
    pub fn tiny() -> SharedCacheConfig {
        SharedCacheConfig {
            capacity_bytes: 8 << 10,
            ways: 4,
            line_bytes: 64,
            hit_cycles: 10,
            dram_cycles: 100,
            shards: 2,
        }
    }
}

impl HierarchyConfig {
    /// The *private* portion of the paper's Haswell hierarchy — L1D and L2
    /// only, with `dram_cycles` zeroed because misses fall through to a
    /// [`SharedCache`] LLC instead of DRAM. Every core of an SMP machine
    /// owns one of these.
    pub fn haswell_private() -> HierarchyConfig {
        let mut config = HierarchyConfig::haswell();
        config.levels.truncate(2);
        config.dram_cycles = 0;
        config
    }
}

/// Outcome of one shared-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedAccess {
    /// `true` when the LLC missed and DRAM answered.
    pub dram: bool,
    /// Latency in cycles (LLC hit latency, plus DRAM on a miss).
    pub cycles: u64,
}

/// Aggregate statistics of a [`SharedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// LLC hits across all shards.
    pub hits: u64,
    /// LLC misses (= DRAM accesses).
    pub misses: u64,
    /// Total cycles charged across all accesses.
    pub total_cycles: u64,
}

/// A sharded, lock-per-slice shared LLC. `&self` methods are thread-safe;
/// wrap it in an [`std::sync::Arc`] and clone the handle into each core's
/// worker thread.
#[derive(Debug)]
pub struct SharedCache {
    shards: Vec<Mutex<CacheLevel>>,
    shard_mask: u64,
    hit_cycles: u64,
    dram_cycles: u64,
    dram_accesses: AtomicU64,
    total_cycles: AtomicU64,
}

impl SharedCache {
    /// Builds an empty sharded LLC.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not a power of two or a shard's geometry
    /// yields zero sets.
    pub fn new(config: SharedCacheConfig) -> SharedCache {
        assert!(
            config.shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        let slice = CacheConfig {
            capacity_bytes: config.capacity_bytes / config.shards as u64,
            ways: config.ways,
            line_bytes: config.line_bytes,
            hit_cycles: config.hit_cycles,
        };
        SharedCache {
            shards: (0..config.shards)
                .map(|_| Mutex::new(CacheLevel::new(slice)))
                .collect(),
            shard_mask: config.shards as u64 - 1,
            hit_cycles: config.hit_cycles,
            dram_cycles: config.dram_cycles,
            dram_accesses: AtomicU64::new(0),
            total_cycles: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, pa: PhysAddr) -> usize {
        // Slice by line number, like address-hashed LLC slices.
        let line = pa.line_index(64);
        (line & self.shard_mask) as usize
    }

    /// Accesses a physical address, filling the owning slice on a miss.
    pub fn access(&self, pa: PhysAddr) -> SharedAccess {
        let shard = &self.shards[self.shard_of(pa)];
        // A poisoned shard means another worker panicked mid-access; its
        // slice contents stay consistent (CacheLevel::access completes or
        // not at all), so recover the guard rather than cascade the panic.
        let hit = shard.lock().unwrap_or_else(|e| e.into_inner()).access(pa);
        let mut cycles = self.hit_cycles;
        if !hit {
            cycles += self.dram_cycles;
            // Relaxed: pure statistics counter: each
            // increment is independent, nothing reads it to make a decision,
            // and the final total is observed only after thread join (which
            // synchronizes). Only atomicity is required.
            self.dram_accesses.fetch_add(1, Ordering::Relaxed);
        }
        // Relaxed: same statistics-counter argument
        // as dram_accesses above: monotonic tally, read only post-join.
        self.total_cycles.fetch_add(cycles, Ordering::Relaxed);
        SharedAccess { dram: !hit, cycles }
    }

    /// Accumulated statistics across every shard.
    pub fn stats(&self) -> SharedCacheStats {
        let (mut hits, mut misses) = (0, 0);
        for shard in &self.shards {
            // Recover poisoned guards: see `access` for why this is sound.
            let (h, m) = shard.lock().unwrap_or_else(|e| e.into_inner()).stats();
            hits += h;
            misses += m;
        }
        SharedCacheStats {
            hits,
            misses,
            // Relaxed: statistics read; callers that
            // need an exact total call this after joining the workers, and
            // the join edge already orders every increment before the load.
            total_cycles: self.total_cycles.load(Ordering::Relaxed),
        }
    }

    /// Empties every slice (statistics are preserved).
    pub fn flush(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn hit_after_fill_skips_dram() {
        let llc = SharedCache::new(SharedCacheConfig::tiny());
        let cold = llc.access(PhysAddr::new(0x40));
        assert!(cold.dram);
        assert_eq!(cold.cycles, 110);
        let warm = llc.access(PhysAddr::new(0x40));
        assert!(!warm.dram);
        assert_eq!(warm.cycles, 10);
        let s = llc.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.total_cycles, 120);
    }

    #[test]
    fn lines_spread_across_shards() {
        let llc = SharedCache::new(SharedCacheConfig::tiny());
        // Consecutive lines alternate between the 2 shards.
        assert_ne!(llc.shard_of(PhysAddr::new(0)), llc.shard_of(PhysAddr::new(64)));
        assert_eq!(llc.shard_of(PhysAddr::new(0)), llc.shard_of(PhysAddr::new(128)));
    }

    #[test]
    fn concurrent_access_from_many_threads() {
        let llc = Arc::new(SharedCache::new(SharedCacheConfig::tiny()));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let llc = Arc::clone(&llc);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        llc.access(PhysAddr::new((t * 256 + i) * 64));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        let s = llc.stats();
        assert_eq!(s.hits + s.misses, 4 * 256);
        // 4 disjoint 256-line streams overflow the 128-line LLC: all miss.
        assert_eq!(s.misses, 4 * 256);
    }

    #[test]
    fn haswell_private_has_no_llc_or_dram() {
        let cfg = HierarchyConfig::haswell_private();
        assert_eq!(cfg.levels.len(), 2);
        assert_eq!(cfg.dram_cycles, 0);
        // L1 miss + L2 miss costs only the traversal latency; the SMP
        // engine adds the SharedCache access on top.
        let mut h = crate::CacheHierarchy::new(cfg);
        let r = h.access(PhysAddr::new(0x1000));
        assert!(r.dram);
        assert_eq!(r.cycles, 4 + 12);
    }

    #[test]
    fn flush_preserves_stats() {
        let llc = SharedCache::new(SharedCacheConfig::tiny());
        llc.access(PhysAddr::new(0));
        llc.flush();
        let cold = llc.access(PhysAddr::new(0));
        assert!(cold.dram);
        assert_eq!(llc.stats().misses, 2);
    }
}
