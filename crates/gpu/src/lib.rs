//! GPU address-translation scenarios: multi-SM machines with per-shader-
//! core L1 TLBs, a shared L2 TLB, and a shared page-table walker.
//!
//! The paper's Sec. 6.3 models CPU-GPU systems with shared virtual memory:
//! each shader core (SM) has its own L1 TLBs (128-entry 4-way for 4 KB
//! pages plus split superpage TLBs — or an area-equivalent MIX TLB), all
//! SMs share an L2 TLB and the walker, and hundreds of concurrent threads
//! make TLB misses both frequent and expensive.
//!
//! A [`GpuScenario`] is a [`NativeScenario`] with SMs: the GPU shares the
//! process' virtual address space, so the machine set-up is the native
//! one (figures that only inspect the set-up prepare a `NativeScenario`
//! from [`GpuConfig::scenario`]). Per-SM Rodinia-like access streams are
//! interleaved round-robin through one [`TlbHierarchy`] whose L2 is the
//! shared TLB and whose L1 is the running SM's, so every miss takes the
//! engine's datapath ([`TlbHierarchy::access`]). Walker serialization is
//! charged as a queueing penalty proportional to miss concurrency (a
//! functional stand-in for gem5-gpu's cycle-level port model; see
//! DESIGN.md substitution 5).
//!
//! # Examples
//!
//! ```
//! use mixtlb_gpu::{GpuConfig, GpuScenario};
//! use mixtlb_sim::designs;
//! use mixtlb_trace::WorkloadSpec;
//!
//! let spec = WorkloadSpec::by_name("bfs").unwrap();
//! let mut scenario = GpuScenario::prepare(&spec, &GpuConfig::quick());
//! let split = scenario.run(designs::gpu_split_l1, 20_000);
//! let mix = scenario.run(designs::gpu_mix_l1, 20_000);
//! assert!(mix.total_cycles <= split.total_cycles * 1.05);
//! ```

#![warn(missing_docs)]

use std::collections::VecDeque;

use mixtlb_cache::AccessResult;
use mixtlb_core::{TlbDevice, TlbStats};
use mixtlb_sim::{
    designs, BelowTlbs, EngineBelow, EngineStats, NativeScenario, PerfReport, ScenarioConfig,
    TlbHierarchy, UnifiedWalk, WalkBackend,
};
use mixtlb_trace::{TraceEvent, TraceGenerator, WorkloadSpec};
use mixtlb_types::{AccessKind, Asid, PhysAddr, VirtAddr, Vpn};

/// GPU scenario parameters: the machine's, plus the SMs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// The machine and its OS set-up (the paper's GPU studies use 24 GB).
    pub scenario: ScenarioConfig,
    /// Shader cores (SMs). The evaluation uses 16.
    pub sms: u32,
    /// Extra walker-queueing cycles charged per walk per concurrent SM
    /// (the shared-walker serialization penalty).
    pub walk_queue_cycles: u64,
}

impl GpuConfig {
    /// A tiny configuration for tests (256 MB, 4 SMs).
    pub fn quick() -> GpuConfig {
        GpuConfig {
            scenario: ScenarioConfig {
                mem_bytes: 256 << 20,
                footprint_cap: Some(128 << 20),
                ..ScenarioConfig::quick()
            },
            sms: 4,
            walk_queue_cycles: 4,
        }
    }

    /// The benchmark default: 16 SMs over 4 GB (scaled from 24 GB).
    pub fn standard() -> GpuConfig {
        GpuConfig {
            scenario: ScenarioConfig {
                mem_bytes: 4 << 30,
                ..ScenarioConfig::standard()
            },
            sms: 16,
            walk_queue_cycles: 4,
        }
    }
}

/// A prepared GPU scenario: a native scenario whose faulted footprint all
/// SMs share.
#[derive(Debug)]
pub struct GpuScenario {
    native: NativeScenario,
    sms: u32,
    walk_queue_cycles: u64,
}

impl GpuScenario {
    /// Builds the scenario with [`NativeScenario::prepare`]: the GPU
    /// shares the process' virtual address space.
    pub fn prepare(spec: &WorkloadSpec, cfg: &GpuConfig) -> GpuScenario {
        GpuScenario {
            native: NativeScenario::prepare(spec, &cfg.scenario),
            sms: cfg.sms,
            walk_queue_cycles: cfg.walk_queue_cycles,
        }
    }

    /// The workload (with its final footprint).
    pub fn spec(&self) -> &WorkloadSpec {
        self.native.spec()
    }

    /// Replays `refs` references (interleaved round-robin over the SMs)
    /// against per-SM L1 TLBs from `l1_factory` and the shared L2
    /// ([`designs::gpu_shared_l2`]).
    pub fn run(&mut self, l1_factory: fn() -> Box<dyn TlbDevice>, refs: u64) -> PerfReport {
        let (hierarchy, stats, l1) = self.replay(l1_factory, refs);
        let l2 = hierarchy.stats().1;
        PerfReport::build(
            hierarchy.name(),
            self.spec(),
            &stats,
            &l1,
            l2.as_ref(),
            hierarchy.total_entries(),
        )
    }

    /// The replay behind [`GpuScenario::run`]: the hierarchy (shared L2,
    /// one SM's L1), the counters with serial-probe stalls charged, and
    /// the L1 statistics summed over the SMs.
    fn replay(
        &self,
        l1_factory: fn() -> Box<dyn TlbDevice>,
        refs: u64,
    ) -> (TlbHierarchy, EngineStats, TlbStats) {
        let mut pt = self.native.clone_page_table();
        let mut below = SharedWalker {
            engine: EngineBelow::new(WalkBackend::Native(&mut pt)),
            queue_cycles: self.walk_queue_cycles,
            sweep_walks: 0,
        };
        let sms = self.sms as usize;
        let first = l1_factory();
        let name = format!("{}x{}", first.name(), sms);
        // Entry budget: per-SM L1s (164 split-equivalent each) + shared L2.
        let mut hierarchy = TlbHierarchy::new(&name, first, Some(designs::gpu_shared_l2()))
            .with_entries(sms * 164 + 512);
        // The other SMs' L1s, in the order they run next.
        let mut parked: VecDeque<Box<dyn TlbDevice>> = (1..sms).map(|_| l1_factory()).collect();
        let seed = |sm: usize| self.native.seed().wrapping_add(sm as u64 * 0x9E37);
        let mut generators: Vec<TraceGenerator> = (0..sms)
            .map(|sm| TraceGenerator::new(self.spec(), seed(sm), self.native.region()))
            .collect();
        let mut stats = EngineStats::default();
        for i in 0..refs {
            let sm = (i % sms as u64) as usize;
            // Walks outstanding in the current round-robin sweep
            // approximate walker queue depth.
            if sm == 0 {
                below.sweep_walks = 0;
            }
            #[expect(clippy::expect_used, reason = "access generators are infinite iterators")]
            let ev = generators[sm].next().expect("generators are infinite");
            hierarchy.access(Asid::UNTAGGED, &mut below, &mut stats, &ev);
            // Swap the next SM's L1 in.
            if let Some(next) = parked.pop_front() {
                parked.push_back(std::mem::replace(&mut hierarchy.l1, next));
            }
        }
        let mut l1 = hierarchy.l1.stats();
        for parked in &parked {
            l1 += parked.stats();
        }
        let l2 = hierarchy.stats().1;
        stats.stall_cycles += TlbHierarchy::serial_stall_cycles(&l1, l2.as_ref());
        (hierarchy, stats, l1)
    }
}

/// The shared walker below every SM's TLBs: the engine's walk, MMU caches
/// and cache hierarchy, plus queueing that grows with the number of walks
/// already issued this sweep.
struct SharedWalker<'a> {
    engine: EngineBelow<'a>,
    queue_cycles: u64,
    sweep_walks: u64,
}

impl BelowTlbs for SharedWalker<'_> {
    fn walk(&mut self, va: VirtAddr, kind: AccessKind) -> UnifiedWalk {
        self.engine.walk(va, kind)
    }

    fn pwc_hit(&mut self, pa: PhysAddr) -> bool {
        self.engine.pwc_hit(pa)
    }

    fn reference(&mut self, pa: PhysAddr) -> AccessResult {
        self.engine.reference(pa)
    }

    fn write_dirty_bit(&mut self, vpn: Vpn) -> bool {
        self.engine.write_dirty_bit(vpn)
    }

    fn charged_walk(&mut self, stats: &mut EngineStats, ev: &TraceEvent) -> UnifiedWalk {
        stats.stall_cycles += self.sweep_walks * self.queue_cycles;
        self.sweep_walks += 1;
        self.engine.charged_walk(stats, ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixtlb_sim::{PolicyChoice, TranslationEngine};

    fn spec(name: &str) -> WorkloadSpec {
        WorkloadSpec::by_name(name).unwrap()
    }

    #[test]
    fn gpu_scenario_prepares_and_runs() {
        let mut s = GpuScenario::prepare(&spec("bfs"), &GpuConfig::quick());
        assert!(s.native.distribution().superpage_fraction() > 0.9);
        let r = s.run(designs::gpu_split_l1, 10_000);
        assert_eq!(r.accesses, 10_000);
        assert_eq!(r.design, "split-gpu-l1x4");
    }

    #[test]
    fn one_sm_replays_exactly_like_the_engine() {
        // One SM and no walker queueing leave nothing GPU-specific: the
        // replay must be the engine's, counter for counter. memhog mixes
        // 4 KB pages in, so the stream walks.
        let mut cfg = GpuConfig::quick();
        cfg.sms = 1;
        cfg.walk_queue_cycles = 0;
        cfg.scenario.memhog_fraction = 0.45;
        let s = GpuScenario::prepare(&spec("bfs"), &cfg);
        for l1_factory in [designs::gpu_split_l1, designs::gpu_mix_l1] {
            let (hierarchy, stats, l1) = s.replay(l1_factory, 20_000);
            let mut pt = s.native.clone_page_table();
            let reference =
                TlbHierarchy::new("engine", l1_factory(), Some(designs::gpu_shared_l2()));
            let mut engine = TranslationEngine::new(reference, WalkBackend::Native(&mut pt));
            let generator = TraceGenerator::new(s.spec(), s.native.seed(), s.native.region());
            engine.run(generator.take(20_000));
            let (want, want_l1, want_l2, _) = engine.finish();
            // Walks, L2 hits, and stores that dirty an L2 entry: every
            // step the old GPU loop sequenced differently is exercised.
            assert!(want.walks > 100 && want.l2_hits > 100, "{want:?}");
            assert!(want_l2.is_some_and(|t| t.dirty_microops > 0), "{want_l2:?}");
            let name = hierarchy.name();
            assert_eq!(stats, want, "{name}: EngineStats");
            assert_eq!(l1, want_l1, "{name}: L1 TlbStats");
            assert_eq!(hierarchy.stats().1, want_l2, "{name}: L2 TlbStats");
        }
    }

    #[test]
    fn mix_l1s_do_not_lose_to_split_l1s() {
        let mut s = GpuScenario::prepare(&spec("backprop"), &GpuConfig::quick());
        let split = s.run(designs::gpu_split_l1, 20_000);
        let mix = s.run(designs::gpu_mix_l1, 20_000);
        assert!(
            mix.total_cycles <= split.total_cycles * 1.05,
            "mix {} vs split {}",
            mix.total_cycles,
            split.total_cycles
        );
    }

    #[test]
    fn fragmentation_reduces_gpu_superpages() {
        let clean = GpuScenario::prepare(&spec("bfs"), &GpuConfig::quick());
        let mut cfg = GpuConfig::quick();
        cfg.scenario.memhog_fraction = 0.7;
        let fragged = GpuScenario::prepare(&spec("bfs"), &cfg);
        assert!(
            fragged.native.distribution().superpage_fraction()
                < clean.native.distribution().superpage_fraction()
        );
    }

    #[test]
    fn small_only_policy_applies() {
        let mut cfg = GpuConfig::quick();
        cfg.scenario.policy = PolicyChoice::SmallOnly;
        let s = GpuScenario::prepare(&spec("kmeans"), &cfg);
        assert_eq!(s.native.distribution().superpage_fraction(), 0.0);
    }

    #[test]
    fn per_sm_l1s_are_independent_but_share_the_l2() {
        let mut s = GpuScenario::prepare(&spec("kmeans"), &GpuConfig::quick());
        let r = s.run(designs::gpu_mix_l1, 20_000);
        // All SMs looked up: aggregated L1 lookups equal total accesses.
        assert_eq!(r.accesses, 20_000);
        // The shared L2 absorbed some of the L1 misses.
        assert!(r.l2_hit_rate > 0.0 || r.l1_hit_rate > 0.99);
    }

    #[test]
    fn hugetlbfs_pools_apply_to_gpu_scenarios() {
        let mut cfg = GpuConfig::quick();
        cfg.scenario.policy = PolicyChoice::Huge2M;
        let s = GpuScenario::prepare(&spec("backprop"), &cfg);
        let d = s.native.distribution();
        assert!(d.superpage_fraction() > 0.9, "{d:?}");
        assert_eq!(d.pages_1g, 0);
    }

    #[test]
    fn reports_are_consistent() {
        let mut s = GpuScenario::prepare(&spec("bfs"), &GpuConfig::quick());
        let r = s.run(designs::gpu_split_l1, 10_000);
        assert!((r.total_cycles - (r.base_cycles + r.stall_cycles)).abs() < 1e-6);
        assert!(r.l1_hit_rate >= 0.0 && r.l1_hit_rate <= 1.0);
        assert!(r.total_energy_pj > 0.0);
        assert!(r.design.starts_with("split-gpu-l1x"));
    }

    #[test]
    fn more_sms_spread_the_same_reference_budget() {
        let mut cfg = GpuConfig::quick();
        cfg.sms = 2;
        let mut two = GpuScenario::prepare(&spec("pathfinder"), &cfg);
        cfg.sms = 8;
        let mut eight = GpuScenario::prepare(&spec("pathfinder"), &cfg);
        let r2 = two.run(designs::gpu_split_l1, 8_000);
        let r8 = eight.run(designs::gpu_split_l1, 8_000);
        assert_eq!(r2.accesses, r8.accesses);
    }

    #[test]
    fn walker_queueing_charges_concurrent_misses() {
        // With queue cycles zero vs high, cold-start stall cycles differ.
        let mut cfg = GpuConfig::quick();
        cfg.walk_queue_cycles = 0;
        let mut a = GpuScenario::prepare(&spec("bfs"), &cfg);
        let ra = a.run(designs::gpu_split_l1, 5_000);
        cfg.walk_queue_cycles = 50;
        let mut b = GpuScenario::prepare(&spec("bfs"), &cfg);
        let rb = b.run(designs::gpu_split_l1, 5_000);
        assert!(rb.stall_cycles > ra.stall_cycles);
    }
}
