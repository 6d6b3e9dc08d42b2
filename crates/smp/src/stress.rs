//! Many-space ASID rollover stress.
//!
//! A machine serves far more address spaces than the 12-bit PCID space
//! has tags, so tags are recycled through the generation-counter scheme
//! in [`mixtlb_types::AsidAllocator`]. The hazard of recycling is the
//! *stale hit*: a TLB entry installed by space A under generation `g`
//! answering a lookup by space B that received the same tag under
//! generation `g+1`. The protocol that prevents it is flush-on-rollover:
//! a core that observes an allocation from a newer generation than it
//! has flushed for sweeps its TLBs once before running the new space.
//!
//! This module drives that protocol hard: `spaces` address spaces (a
//! million in the headline run) are distributed over per-core
//! [`ChunkDeque`]s and claimed by work-stealing workers, each of which
//! owns a private TLB hierarchy. Every space runs a short deterministic
//! access slice under a freshly allocated `(generation, asid)` pair from
//! one shared allocator. Because every space maps the *same* virtual
//! region, any stale entry that survives a rollover is guaranteed to
//! alias a later space's lookups.
//!
//! Staleness is **detected, not assumed**: the frame number each space
//! installs encodes the space id, so a hit whose frame decodes to a
//! different space is a protocol violation, counted in
//! [`StressCoreStats::stale_hits`]. With the protocol on the count must
//! be zero; `tests/asid_rollover.rs` also runs the deliberately broken
//! [`StressConfig::skip_rollover_flush`] mode to prove the detector
//! actually fires when the flush is omitted.

use std::time::{Duration, Instant};

use mixtlb_check::sync::Mutex;
use mixtlb_sim::{TlbHierarchy, REGION};
use mixtlb_types::{AccessKind, Asid, AsidAllocator, Permissions, Pfn, Translation, Vpn};

use crate::deque::{claim, run_workers, seed_round_robin, ChunkDeque};

/// Frames encode `(space, page)` so stale entries self-identify: the
/// physical region is carved into footprint-sized chunks and space `s`
/// owns chunk `STALE_SPACE_BASE + s`, i.e.
/// `pfn = (STALE_SPACE_BASE + space) * footprint + page`. The base
/// offsets detector frames clear of every legitimately mapped chunk.
const STALE_SPACE_BASE: u64 = 1 << 24;

/// Shape of one rollover stress run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressConfig {
    /// Worker cores (one OS thread each).
    pub cores: usize,
    /// Address spaces to run (each gets one allocation and one slice).
    pub spaces: u64,
    /// TLB accesses per space slice.
    pub accesses_per_space: u64,
    /// Pages of the shared virtual region each slice touches.
    pub footprint_pages: u64,
    /// Hardware tag space handed to the allocator. The real 12-bit space
    /// is [`Asid::CAPACITY`]; tests shrink it to force dense reuse while
    /// entries are still TLB-resident.
    pub asid_capacity: u16,
    /// **Seeded-bug mode**: skip the flush-on-rollover protocol so tag
    /// reuse goes undetected by the cores. The stale-hit detector must
    /// then fire (and must stay silent when this is `false`).
    pub skip_rollover_flush: bool,
    /// Seed decorrelating the per-space access scrambles.
    pub seed: u64,
}

impl StressConfig {
    /// Defaults sized so `cores * spaces` dominates the run: short
    /// slices, small footprint, the full hardware tag space.
    pub fn new(cores: usize, spaces: u64) -> StressConfig {
        assert!(cores > 0, "need at least one core");
        assert!(spaces > 0, "need at least one space");
        StressConfig {
            cores,
            spaces,
            accesses_per_space: 24,
            footprint_pages: 48,
            asid_capacity: Asid::CAPACITY,
            skip_rollover_flush: false,
            seed: 42,
        }
    }
}

/// One worker core's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StressCoreStats {
    /// Core index.
    pub core: usize,
    /// Spaces this core ran.
    pub spaces_run: u64,
    /// Spaces claimed from another core's deque.
    pub spaces_stolen: u64,
    /// Allocations on this core that rolled the generation over.
    pub rollovers_triggered: u64,
    /// Flushes performed to catch up with a newer generation.
    pub generation_flushes: u64,
    /// TLB lookups issued.
    pub lookups: u64,
    /// Lookups that hit (either level).
    pub hits: u64,
    /// Hits whose frame decoded to a *different* space — stale entries
    /// surviving tag reuse. Must be zero with the protocol on.
    pub stale_hits: u64,
}

/// The result of one rollover stress run.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Per-core counters, indexed by core id.
    pub cores: Vec<StressCoreStats>,
    /// Generations the shared allocator went through.
    pub generations: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl StressReport {
    /// Spaces run across all cores.
    pub fn total_spaces(&self) -> u64 {
        self.cores.iter().map(|c| c.spaces_run).sum()
    }

    /// Stale hits across all cores (must be 0 with the protocol on).
    pub fn total_stale_hits(&self) -> u64 {
        self.cores.iter().map(|c| c.stale_hits).sum()
    }

    /// Generation-catch-up flushes across all cores.
    pub fn total_flushes(&self) -> u64 {
        self.cores.iter().map(|c| c.generation_flushes).sum()
    }

    /// Spaces claimed off another core's deque.
    pub fn total_steals(&self) -> u64 {
        self.cores.iter().map(|c| c.spaces_stolen).sum()
    }
}

/// SplitMix-style scramble: which page of the footprint access `k` of
/// space `s` touches. Deterministic and decorrelated across spaces.
fn scramble(seed: u64, space: u64, k: u64) -> u64 {
    let mut x = seed
        ^ space.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ k.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The frame space `s` installs for page `p` of its footprint: page `p`
/// of the space's own footprint-sized physical chunk.
fn frame_for(space: u64, page: u64, footprint: u64) -> Pfn {
    Pfn::new((STALE_SPACE_BASE + space) * footprint + page)
}

/// Which space installed `pfn` (inverse of [`frame_for`]): the frame's
/// footprint-chunk index, minus the detector base.
fn space_of(pfn: Pfn, footprint: u64) -> u64 {
    pfn.chunk_index(footprint) - STALE_SPACE_BASE
}

/// One worker: claims spaces from the deques, allocates a tag per space,
/// runs the flush-on-rollover protocol, and replays the space's slice
/// against its private TLB hierarchy while checking every hit for
/// staleness.
fn run_stress_core(
    id: usize,
    cfg: StressConfig,
    factory: fn() -> TlbHierarchy,
    deques: &[ChunkDeque],
    allocator: &Mutex<AsidAllocator>,
) -> StressCoreStats {
    let mut hierarchy = factory();
    assert!(
        hierarchy.supports_asids(),
        "rollover stress needs an ASID-tagged design — untagged TLBs must flush on every space switch"
    );
    let mut stats = StressCoreStats {
        core: id,
        ..StressCoreStats::default()
    };
    let mut flushed_generation = 0u64;
    while let Some((space, stolen)) = claim(deques, id) {
        stats.spaces_stolen += u64::from(stolen);
        stats.spaces_run += 1;
        let allocation = {
            #[expect(
                clippy::expect_used,
                reason = "a poisoned allocator lock means a worker already panicked"
            )]
            let mut guard = allocator.lock().expect("allocator lock poisoned");
            guard.allocate()
        };
        if allocation.rolled_over {
            stats.rollovers_triggered += 1;
        }
        // Flush-on-rollover: catch up with the allocator's generation
        // before trusting any tag of this generation. Skipping this is
        // the seeded bug the stale-hit detector exists to catch.
        if allocation.generation > flushed_generation {
            if !cfg.skip_rollover_flush {
                hierarchy.l1.flush();
                if let Some(l2) = hierarchy.l2.as_mut() {
                    l2.flush();
                }
                stats.generation_flushes += 1;
            }
            flushed_generation = allocation.generation;
        }
        run_slice(&mut hierarchy, allocation.asid, space, &cfg, &mut stats);
    }
    stats
}

/// One space's access slice under its freshly allocated tag.
fn run_slice(
    hierarchy: &mut TlbHierarchy,
    asid: Asid,
    space: u64,
    cfg: &StressConfig,
    stats: &mut StressCoreStats,
) {
    use mixtlb_core::Lookup;
    for k in 0..cfg.accesses_per_space {
        let page = scramble(cfg.seed, space, k) % cfg.footprint_pages;
        let vpn = Vpn::new(REGION.raw() + page);
        stats.lookups += 1;
        let hit = match hierarchy.l1.lookup_asid(asid, vpn, AccessKind::Load, 0) {
            Lookup::Hit { translation, .. } => Some(translation),
            Lookup::Miss => match hierarchy.l2.as_mut() {
                Some(l2) => match l2.lookup_asid(asid, vpn, AccessKind::Load, 0) {
                    Lookup::Hit { translation, .. } => Some(translation),
                    Lookup::Miss => None,
                },
                None => None,
            },
        };
        match hit {
            Some(t) => {
                stats.hits += 1;
                if space_of(t.pfn, cfg.footprint_pages) != space {
                    // A tag-aliased entry from an earlier generation
                    // answered this space's lookup: protocol violation.
                    stats.stale_hits += 1;
                }
            }
            None => {
                // Simulated walk: install this space's mapping, whose
                // frame encodes the space id for the detector.
                let t = Translation::new(
                    vpn,
                    frame_for(space, page, cfg.footprint_pages),
                    mixtlb_types::PageSize::Size4K,
                    Permissions::rw_user(),
                );
                if let Some(l2) = hierarchy.l2.as_mut() {
                    l2.fill_asid(asid, vpn, &t, &[t]);
                }
                hierarchy.l1.fill_asid(asid, vpn, &t, &[t]);
            }
        }
    }
}

/// Runs the rollover stress: `cfg.spaces` spaces over `cfg.cores`
/// work-stealing workers, one shared generation-counter allocator.
pub fn run_asid_stress(factory: fn() -> TlbHierarchy, cfg: &StressConfig) -> StressReport {
    let cfg = *cfg;
    let start = Instant::now();
    let deques = seed_round_robin(cfg.cores, cfg.spaces);
    let allocator = Mutex::new(AsidAllocator::with_capacity(cfg.asid_capacity));
    let cores = run_workers(cfg.cores, |id| {
        run_stress_core(id, cfg, factory, &deques, &allocator)
    });
    #[expect(
        clippy::expect_used,
        reason = "all workers joined; the lock cannot be poisoned or held"
    )]
    let generations = allocator.lock().expect("allocator lock poisoned").generation();
    StressReport {
        cores,
        generations,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixtlb_sim::designs;

    #[test]
    fn protocol_keeps_every_hit_fresh_across_rollovers() {
        // Tiny tag space: 7 tags over 600 spaces forces ~85 rollovers
        // while entries are still resident.
        let mut cfg = StressConfig::new(4, 600);
        cfg.asid_capacity = 8;
        let report = run_asid_stress(designs::mix, &cfg);
        assert_eq!(report.total_spaces(), 600);
        assert!(report.generations >= 80, "rollover under-exercised");
        assert!(report.total_flushes() > 0, "protocol never engaged");
        assert_eq!(report.total_stale_hits(), 0, "stale TLB hit after rollover");
    }

    #[test]
    fn detector_fires_when_the_flush_is_skipped() {
        // Same pressure, protocol disabled: tag reuse must now be visible
        // as stale hits — proving the zero above is meaningful.
        let mut cfg = StressConfig::new(4, 600);
        cfg.asid_capacity = 8;
        cfg.skip_rollover_flush = true;
        let report = run_asid_stress(designs::mix, &cfg);
        assert!(
            report.total_stale_hits() > 0,
            "seeded bug not detected — the stale-hit oracle is vacuous"
        );
    }
}
