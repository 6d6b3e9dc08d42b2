//! The paper's `memhog` fragmentation microbenchmark (Sec. 7.1).
//!
//! `memhog(p%)` occupies `p` percent of physical memory with chunks scattered
//! at random addresses, degrading the OS' ability to form superpages. A small
//! share of the pressure is modeled as *unmovable* (kernel-side allocations —
//! slab, page cache metadata — that grow under memory pressure and that
//! compaction cannot migrate); the rest is movable anonymous memory that
//! compaction can work around at a cost.
//!
//! The default chunk geometry and unmovable share are calibration constants:
//! together with the THS compaction budget they reproduce the paper's three
//! regimes (Figure 9): superpages dominate up to ~40% fragmentation, mixed
//! distributions around 60%, mostly small pages at 80%.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mixtlb_types::Pfn;

use crate::frame::FrameKind;
use crate::physmem::PhysicalMemory;

/// Random placement attempts per chunk before falling back to the buddy
/// allocator's choice.
const PLACEMENT_ATTEMPTS: u32 = 16;
/// Movable chunks are placed one slot at a time: uniform scatter, the
/// classic memhog.
const MOVABLE_CLUSTER: u64 = 1;
/// Adjacent chunk slots per placement for the *unmovable* share. Real
/// kernels group unmovable allocations into shared pageblocks by
/// migratetype, so kernel-side pressure pins whole clustered regions
/// rather than sprinkling un-compactable holes everywhere — which is why
/// the paper can measure 80+ contiguous superpages even under substantial
/// fragmentation (Fig. 11).
const UNMOVABLE_CLUSTER: u64 = 32;

/// Configuration for a [`Memhog`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemhogConfig {
    /// Fraction of total memory to occupy, in `[0, 1)`.
    pub fraction: f64,
    /// Buddy order of each chunk (default 6 → 256 KB).
    pub chunk_order: u8,
    /// Share of chunks pinned as unmovable (default 20%).
    pub unmovable_share: f64,
    /// RNG seed; `Memhog` is deterministic given the seed.
    pub seed: u64,
}

impl MemhogConfig {
    /// A `memhog` run occupying `fraction` of memory with default geometry.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1)`.
    pub fn with_fraction(fraction: f64) -> MemhogConfig {
        assert!(
            (0.0..1.0).contains(&fraction),
            "memhog fraction must be in [0, 1)"
        );
        MemhogConfig {
            fraction,
            chunk_order: 6,
            unmovable_share: 0.20,
            seed: 0x6d65_6d68_6f67, // "memhog"
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> MemhogConfig {
        self.seed = seed;
        self
    }
}

impl Default for MemhogConfig {
    fn default() -> MemhogConfig {
        MemhogConfig::with_fraction(0.0)
    }
}

/// A live `memhog` footprint: the chunks it allocated, so they can be
/// released.
///
/// # Examples
///
/// ```
/// use mixtlb_mem::{Memhog, MemhogConfig, MemoryConfig, PhysicalMemory};
///
/// let mut mem = PhysicalMemory::new(MemoryConfig::with_bytes(256 << 20));
/// let hog = Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.4));
/// assert!(mem.stats().free_frames < mem.total_frames() * 61 / 100);
/// hog.release(&mut mem);
/// assert_eq!(mem.stats().free_frames, mem.total_frames());
/// ```
#[derive(Debug)]
pub struct Memhog {
    chunks: Vec<(Pfn, u8)>,
}

impl Memhog {
    /// Fragments `mem` per the configuration and returns the footprint.
    pub fn fragment(mem: &mut PhysicalMemory, config: MemhogConfig) -> Memhog {
        let total = mem.total_frames();
        let chunk_frames = 1u64 << config.chunk_order;
        let target_frames = (total as f64 * config.fraction) as u64;
        let n_chunks = target_frames / chunk_frames;
        let slots = total / chunk_frames;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut chunks = Vec::with_capacity(n_chunks as usize);
        let unmovable_target = (config.unmovable_share * n_chunks as f64) as u64;
        let phases = [
            (unmovable_target, FrameKind::Unmovable, UNMOVABLE_CLUSTER),
            (n_chunks - unmovable_target, FrameKind::Movable, MOVABLE_CLUSTER),
        ];
        for (target, kind, cluster) in phases {
            let mut i = 0u64;
            'phase: while i < target {
                // Pick a cluster start, then fill adjacent slots.
                let mut start = None;
                for _ in 0..PLACEMENT_ATTEMPTS {
                    let slot = rng.gen_range(0..slots);
                    let base = Pfn::new(slot * chunk_frames);
                    if mem.is_range_free(base, config.chunk_order) {
                        start = Some(slot);
                        break;
                    }
                }
                let Some(start) = start else {
                    // Memory too full for random placement; take what the
                    // buddy allocator gives (or stop when exhausted).
                    match mem.alloc_block(config.chunk_order, kind) {
                        Ok(base) => {
                            chunks.push((base, config.chunk_order));
                            i += 1;
                            continue;
                        }
                        Err(_) => break 'phase,
                    }
                };
                for j in 0..cluster {
                    if i >= target {
                        break;
                    }
                    let slot = start + j;
                    if slot >= slots {
                        break;
                    }
                    let base = Pfn::new(slot * chunk_frames);
                    if mem.alloc_block_at(base, config.chunk_order, kind).is_ok() {
                        chunks.push((base, config.chunk_order));
                        i += 1;
                    }
                }
            }
        }
        Memhog { chunks }
    }

    /// Number of chunks held.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Releases every chunk back to the allocator.
    ///
    /// Only valid while no compaction has run since [`Memhog::fragment`]:
    /// compaction may migrate the hog's movable chunks, and (unlike a real
    /// process, whose page table the kernel patches) the hog has no page
    /// table to forward it to the new locations. Experiments that compact
    /// tear down the whole [`PhysicalMemory`] instead of releasing.
    ///
    /// # Panics
    ///
    /// Panics if a chunk is no longer allocated at its original base (i.e.
    /// compaction moved it).
    pub fn release(self, mem: &mut PhysicalMemory) {
        for (base, order) in self.chunks {
            mem.free_block(base, order);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;

    fn memory(frames: u64) -> PhysicalMemory {
        PhysicalMemory::new(MemoryConfig::with_bytes(frames * 4096))
    }

    #[test]
    fn occupies_requested_fraction() {
        let mut mem = memory(1 << 16);
        let _hog = Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.5));
        let used = mem.total_frames() - mem.free_frames();
        let expected = mem.total_frames() / 2;
        assert!(
            used >= expected - 64 && used <= expected,
            "used {used}, expected about {expected}"
        );
    }

    #[test]
    fn zero_fraction_touches_nothing() {
        let mut mem = memory(4096);
        let hog = Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.0));
        assert_eq!(hog.chunk_count(), 0);
        assert_eq!(mem.free_frames(), 4096);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut mem = memory(1 << 14);
            let hog = Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.3).seed(seed));
            let first = hog.chunks.first().copied();
            (hog.chunk_count(), first)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).1, run(2).1);
    }

    #[test]
    fn fragmentation_destroys_free_superpage_blocks() {
        let mut mem = memory(1 << 16);
        let clean = mem.stats().free_2m_blocks;
        let _hog = Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.4));
        let fragged = mem.stats().free_2m_blocks;
        assert!(
            fragged < clean / 2,
            "expected <{} free 2MB blocks, got {fragged}",
            clean / 2
        );
    }

    #[test]
    fn mixes_movable_and_unmovable_chunks() {
        let mut mem = memory(1 << 16);
        let _hog = Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.5));
        let stats = mem.stats();
        assert!(stats.unmovable_frames > 0);
        // Movable dominates: the default unmovable share is 20%.
        assert!(stats.movable_frames > stats.unmovable_frames * 3);
    }

    #[test]
    fn unmovable_chunks_cluster_by_default() {
        let mut mem = memory(1 << 16);
        let _hog = Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.4));
        // Unmovable frames should occupy few distinct 2 MB windows
        // relative to their total (migratetype grouping).
        let stats = mem.stats();
        let mut pinned_windows = 0u64;
        for w in 0..mem.total_frames() / 512 {
            let (_, pinned) = mem.window_occupancy(mixtlb_types::Pfn::new(w * 512), 9);
            if pinned > 0 {
                pinned_windows += 1;
            }
        }
        let min_windows = stats.unmovable_frames / 512;
        assert!(
            pinned_windows <= min_windows * 3 + 4,
            "unmovable pressure too scattered: {pinned_windows} windows for {} frames",
            stats.unmovable_frames
        );
    }

    #[test]
    fn release_restores_all_memory() {
        let mut mem = memory(1 << 15);
        let hog = Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.7));
        hog.release(&mut mem);
        let stats = mem.stats();
        assert_eq!(stats.free_frames, mem.total_frames());
        assert_eq!(stats.unmovable_frames, 0);
        assert_eq!(stats.movable_frames, 0);
    }
}
