//! GPU address-translation scenarios: multi-SM machines with per-shader-
//! core L1 TLBs, a shared L2 TLB, and a shared page-table walker.
//!
//! The paper's Sec. 6.3 models CPU-GPU systems with shared virtual memory:
//! each shader core (SM) has its own L1 TLBs (128-entry 4-way for 4 KB
//! pages plus split superpage TLBs — or an area-equivalent MIX TLB), all
//! SMs share an L2 TLB and the walker, and hundreds of concurrent threads
//! make TLB misses both frequent and expensive. This crate reproduces
//! that functionally: per-SM Rodinia-like access streams are interleaved
//! round-robin, misses contend for the shared L2/walker, and walker
//! serialization is charged as a queueing penalty proportional to miss
//! concurrency (a functional stand-in for gem5-gpu's cycle-level port
//! model; see DESIGN.md substitution 5).
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

use mixtlb_core::{Lookup, MixTlb, MixTlbConfig, TlbDevice, TlbStats};

use mixtlb_mem::{Memhog, MemhogConfig, MemoryConfig, PhysicalMemory};
use mixtlb_os::scan::{ContiguityStats, PageSizeDistribution};
use mixtlb_os::{Kernel, SpaceId};
use mixtlb_pagetable::PageTable;
use mixtlb_sim::{BelowTlbs, EngineBelow, EngineStats, PerfReport, PolicyChoice, WalkBackend};
use mixtlb_trace::{TraceGenerator, WorkloadSpec};
use mixtlb_types::{Asid, PageSize, Permissions, Vpn, PAGE_SIZE_4K};

/// GPU scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Shader cores (SMs). The evaluation uses 16.
    pub sms: u32,
    /// Device-visible memory in bytes (the paper's GPU studies use 24 GB).
    pub mem_bytes: u64,
    /// memhog fragmentation fraction.
    pub memhog_fraction: f64,
    /// OS paging policy backing the shared virtual address space.
    pub policy: PolicyChoice,
    /// Cap on the workload footprint.
    pub footprint_cap: Option<u64>,
    /// RNG seed.
    pub seed: u64,
    /// Extra walker-queueing cycles charged per walk per concurrent SM
    /// (the shared-walker serialization penalty).
    pub walk_queue_cycles: u64,
}

impl GpuConfig {
    /// A tiny configuration for tests (256 MB, 4 SMs).
    pub fn quick() -> GpuConfig {
        GpuConfig {
            sms: 4,
            mem_bytes: 256 << 20,
            memhog_fraction: 0.0,
            policy: PolicyChoice::Ths,
            footprint_cap: Some(128 << 20),
            seed: 42,
            walk_queue_cycles: 4,
        }
    }

    /// The benchmark default: 16 SMs over 4 GB (scaled from 24 GB).
    pub fn standard() -> GpuConfig {
        GpuConfig {
            sms: 16,
            mem_bytes: 4 << 30,
            memhog_fraction: 0.0,
            policy: PolicyChoice::Ths,
            footprint_cap: None,
            seed: 42,
            walk_queue_cycles: 4,
        }
    }

    /// Sets the memhog fraction.
    pub fn with_memhog(mut self, fraction: f64) -> GpuConfig {
        self.memhog_fraction = fraction;
        self
    }

    /// Sets the policy.
    pub fn with_policy(mut self, policy: PolicyChoice) -> GpuConfig {
        self.policy = policy;
        self
    }
}

/// A prepared GPU scenario: OS state and a faulted footprint shared by all
/// SMs.
pub struct GpuScenario {
    kernel: Kernel,
    space: SpaceId,
    spec: WorkloadSpec,
    region: Vpn,
    config: GpuConfig,
}

impl std::fmt::Debug for GpuScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuScenario")
            .field("workload", &self.spec.name)
            .field("sms", &self.config.sms)
            .finish()
    }
}

impl GpuScenario {
    /// Builds the scenario (same OS pipeline as a native CPU scenario: the
    /// GPU shares the process' virtual address space).
    pub fn prepare(spec: &WorkloadSpec, cfg: &GpuConfig) -> GpuScenario {
        let mem = PhysicalMemory::new(MemoryConfig::with_bytes(cfg.mem_bytes));
        let mut kernel = Kernel::new(mem);
        if cfg.memhog_fraction > 0.0 {
            let _hog = Memhog::fragment(
                kernel.mem_mut(),
                MemhogConfig::with_fraction(cfg.memhog_fraction).seed(cfg.seed),
            );
        }
        let free_bytes = kernel.mem().free_frames() * PAGE_SIZE_4K;
        let mut footprint = spec.footprint_bytes.min(free_bytes * 85 / 100);
        if let Some(cap) = cfg.footprint_cap {
            footprint = footprint.min(cap);
        }
        footprint = footprint.max(PAGE_SIZE_4K);
        let spec = spec.clone().with_footprint(footprint);
        let policy = match cfg.policy {
            PolicyChoice::SmallOnly => mixtlb_os::PagingPolicy::SmallOnly,
            PolicyChoice::Huge2M => mixtlb_os::PagingPolicy::Hugetlbfs {
                size: PageSize::Size2M,
                pool_bytes: footprint,
            },
            PolicyChoice::Huge1G => mixtlb_os::PagingPolicy::Hugetlbfs {
                size: PageSize::Size1G,
                pool_bytes: footprint,
            },
            PolicyChoice::Ths => {
                mixtlb_os::PagingPolicy::TransparentHuge(mixtlb_os::ThsConfig::default())
            }
            PolicyChoice::Mixed => mixtlb_os::PagingPolicy::Mixed {
                gb_pool_bytes: footprint / 2,
                ths: mixtlb_os::ThsConfig::default(),
            },
        };
        let space = kernel.create_space(policy);
        let region = Vpn::new(1 << 18);
        #[expect(
            clippy::expect_used,
            reason = "a freshly created address space has no VMAs to overlap"
        )]
        kernel
            .mmap(space, region, spec.footprint_pages(), Permissions::rw_user())
            .expect("fresh address space");
        kernel.fault_all(space);
        GpuScenario {
            kernel,
            space,
            spec,
            region,
            config: *cfg,
        }
    }

    /// The workload (with its final footprint).
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Page-size distribution (the GPU series of Figure 9).
    pub fn distribution(&self) -> PageSizeDistribution {
        PageSizeDistribution::of(self.kernel.space(self.space).page_table())
    }

    /// Superpage contiguity (GPU series of Figures 11, 13).
    pub fn contiguity(&self, size: PageSize) -> ContiguityStats {
        ContiguityStats::of(self.kernel.space(self.space).page_table(), size)
    }

    /// Replays `refs` references (interleaved round-robin over the SMs)
    /// against per-SM L1 TLBs from `l1_factory` and a shared MIX-geometry
    /// L2 (512 entries, matching the paper's shared L2 assumption).
    pub fn run(&mut self, l1_factory: fn() -> Box<dyn TlbDevice>, refs: u64) -> PerfReport {
        let shared_l2: Box<dyn TlbDevice> = Box::new(MixTlb::new(MixTlbConfig {
            kind: mixtlb_core::CoalesceKind::Bitmap,
            ..MixTlbConfig::l2(64, 8)
        }));
        self.run_with_l2(l1_factory, shared_l2, refs)
    }

    /// Like [`GpuScenario::run`] with an explicit shared L2 TLB.
    pub fn run_with_l2(
        &mut self,
        l1_factory: fn() -> Box<dyn TlbDevice>,
        mut shared_l2: Box<dyn TlbDevice>,
        refs: u64,
    ) -> PerfReport {
        let mut pt: PageTable = self.kernel.space(self.space).page_table().clone();
        // The shared walker, its MMU cache and the memory hierarchy.
        let mut below = EngineBelow::new(WalkBackend::Native(&mut pt));
        let sms = self.config.sms as usize;
        let mut l1s: Vec<Box<dyn TlbDevice>> = (0..sms).map(|_| l1_factory()).collect();
        let design = format!("{}x{}", l1s[0].name(), sms);
        let mut generators: Vec<TraceGenerator> = (0..sms)
            .map(|sm| {
                TraceGenerator::new(
                    &self.spec,
                    self.config.seed.wrapping_add(sm as u64 * 0x9E37),
                    self.region,
                )
            })
            .collect();
        let mut stats = EngineStats::default();
        // Misses outstanding in the current round-robin sweep approximate
        // walker queue depth.
        let mut sweep_walks = 0u64;
        for i in 0..refs {
            let sm = (i % sms as u64) as usize;
            if sm == 0 {
                sweep_walks = 0;
            }
            #[expect(clippy::expect_used, reason = "access generators are infinite iterators")]
            let ev = generators[sm].next().expect("generators are infinite");
            stats.accesses += 1;
            let vpn = ev.va.vpn();
            match l1s[sm].lookup_pc(vpn, ev.kind, ev.pc) {
                Lookup::Hit { translation, dirty_microop, .. } => {
                    if dirty_microop {
                        below.dirty_microop(&mut stats, vpn);
                    }
                    stats.l1_hits += 1;
                    let _ = translation;
                    continue;
                }
                Lookup::Miss => {}
            }
            stats.stall_cycles += 7; // shared L2 probe
            match shared_l2.lookup_pc(vpn, ev.kind, ev.pc) {
                Lookup::Hit { translation, run, .. } => {
                    stats.l2_hits += 1;
                    match run {
                        Some(run) if run.len > 1 => {
                            l1s[sm].fill_run_asid(Asid::UNTAGGED, vpn, &translation, &run);
                        }
                        _ => l1s[sm].fill(vpn, &translation, &[translation]),
                    }
                    continue;
                }
                Lookup::Miss => {}
            }
            // Shared walker: base memory latency plus queueing that grows
            // with the number of walks already issued this sweep.
            stats.stall_cycles += sweep_walks * self.config.walk_queue_cycles;
            sweep_walks += 1;
            let walk = below.charged_walk(&mut stats, &ev);
            let Some(translation) = walk.translation() else { continue };
            shared_l2.fill(vpn, &translation, walk.line());
            l1s[sm].fill(vpn, &translation, walk.line());
        }
        // Aggregate per-SM L1 stats.
        let mut l1_total = TlbStats::default();
        for l1 in &l1s {
            l1_total += l1.stats();
        }
        let l2_stats = shared_l2.stats();
        // Entry budget: per-SM L1s (164 split-equivalent each) + shared L2.
        let entries = sms * 164 + 512;
        PerfReport::build(&design, &self.spec, &stats, &l1_total, Some(&l2_stats), entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixtlb_sim::designs;

    fn spec(name: &str) -> WorkloadSpec {
        WorkloadSpec::by_name(name).unwrap()
    }

    #[test]
    fn gpu_scenario_prepares_and_runs() {
        let mut s = GpuScenario::prepare(&spec("bfs"), &GpuConfig::quick());
        assert!(s.distribution().superpage_fraction() > 0.9);
        let r = s.run(designs::gpu_split_l1, 10_000);
        assert_eq!(r.accesses, 10_000);
        assert_eq!(r.design, "split-gpu-l1x4");
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
        let fragged =
            GpuScenario::prepare(&spec("bfs"), &GpuConfig::quick().with_memhog(0.7));
        assert!(
            fragged.distribution().superpage_fraction()
                < clean.distribution().superpage_fraction()
        );
    }

    #[test]
    fn small_only_policy_applies() {
        let s = GpuScenario::prepare(
            &spec("kmeans"),
            &GpuConfig::quick().with_policy(PolicyChoice::SmallOnly),
        );
        assert_eq!(s.distribution().superpage_fraction(), 0.0);
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
        let s = GpuScenario::prepare(
            &spec("backprop"),
            &GpuConfig::quick().with_policy(PolicyChoice::Huge2M),
        );
        let d = s.distribution();
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
