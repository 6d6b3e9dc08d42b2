//! Native-CPU experiment scenarios: fragmentation, OS state, pre-faulted
//! footprints, and per-design trace replay.

use mixtlb_mem::{Memhog, MemhogConfig, MemoryConfig, PhysicalMemory};
use mixtlb_os::scan::{ContiguityStats, PageSizeDistribution};
use mixtlb_os::{FaultStats, Kernel, PagingPolicy, SpaceId, ThsConfig};
use mixtlb_trace::{TraceGenerator, WorkloadSpec};
use mixtlb_types::{Asid, PageSize, Permissions, Vpn, PAGE_SIZE_4K};

use crate::engine::{TlbHierarchy, TranslationEngine, WalkBackend};
use crate::model::PerfReport;

/// How the OS chooses page sizes in a scenario — the paper's Figure 14
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// 4 KB pages only (libhugetlbfs disabled, THS off).
    SmallOnly,
    /// libhugetlbfs with a 2 MB pool covering the footprint.
    Huge2M,
    /// libhugetlbfs with a 1 GB pool covering the footprint.
    Huge1G,
    /// Transparent hugepage support (2 MB + 4 KB fallback).
    Ths,
    /// A 1 GB pool for part of the footprint plus THS — all three sizes.
    Mixed,
}

impl PolicyChoice {
    fn to_policy(self, footprint_bytes: u64) -> PagingPolicy {
        match self {
            PolicyChoice::SmallOnly => PagingPolicy::SmallOnly,
            PolicyChoice::Huge2M => PagingPolicy::Hugetlbfs {
                size: PageSize::Size2M,
                pool_bytes: footprint_bytes,
            },
            PolicyChoice::Huge1G => PagingPolicy::Hugetlbfs {
                size: PageSize::Size1G,
                pool_bytes: footprint_bytes,
            },
            PolicyChoice::Ths => PagingPolicy::TransparentHuge(ThsConfig::default()),
            PolicyChoice::Mixed => PagingPolicy::Mixed {
                gb_pool_bytes: footprint_bytes / 2,
                ths: ThsConfig::default(),
            },
        }
    }
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Machine memory in bytes. The paper's machine has 80 GB; scaled-down
    /// runs keep footprint ≈ memory so allocation behaviour is preserved.
    pub mem_bytes: u64,
    /// Fraction of memory `memhog` fragments in the background.
    pub memhog_fraction: f64,
    /// Page-size policy.
    pub policy: PolicyChoice,
    /// Cap on the workload footprint (None = as much as fits).
    pub footprint_cap: Option<u64>,
    /// RNG seed (memhog placement and the trace share it).
    pub seed: u64,
}

impl ScenarioConfig {
    /// A tiny configuration for doc tests and unit tests (512 MB).
    pub fn quick() -> ScenarioConfig {
        ScenarioConfig {
            mem_bytes: 512 << 20,
            memhog_fraction: 0.0,
            policy: PolicyChoice::Ths,
            footprint_cap: Some(256 << 20),
            seed: 42,
        }
    }

    /// The benchmark default: 8 GB machine (experiments note the scaling
    /// from the paper's 80 GB; allocation-pattern figures run at 80 GB).
    pub fn standard() -> ScenarioConfig {
        ScenarioConfig {
            mem_bytes: 8 << 30,
            memhog_fraction: 0.0,
            policy: PolicyChoice::Ths,
            footprint_cap: None,
            seed: 42,
        }
    }

    /// The paper's full machine scale (80 GB). Slow; used by the
    /// allocation-characterization figures.
    pub fn paper_scale() -> ScenarioConfig {
        ScenarioConfig {
            mem_bytes: 80 << 30,
            memhog_fraction: 0.0,
            policy: PolicyChoice::Ths,
            footprint_cap: None,
            seed: 42,
        }
    }

    /// Sets the memhog fraction.
    pub fn with_memhog(mut self, fraction: f64) -> ScenarioConfig {
        self.memhog_fraction = fraction;
        self
    }

    /// Sets the policy.
    pub fn with_policy(mut self, policy: PolicyChoice) -> ScenarioConfig {
        self.policy = policy;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> ScenarioConfig {
        self.seed = seed;
        self
    }
}

/// The 1 GB-aligned virtual base every scenario maps its footprint at,
/// so every page size is usable.
pub const REGION: Vpn = Vpn::new(1 << 18);

/// Sizes a workload's footprint to a machine with `free_bytes` free: the
/// workload's own footprint, held to an even share of 85% of free memory
/// over `shares` footprints (the rest is headroom for the kernel and the
/// page tables) and to `cap`, and at least one 4 KB page. The result need
/// not be a page multiple.
pub fn fit_footprint(spec_bytes: u64, free_bytes: u64, shares: u64, cap: Option<u64>) -> u64 {
    spec_bytes
        .min(free_bytes * 85 / 100 / shares)
        .min(cap.unwrap_or(u64::MAX))
        .max(PAGE_SIZE_4K)
}

/// Maps `footprint` bytes of `spec` at [`REGION`] in the fresh `space`
/// and pre-faults every page in ascending order (the paper measures steady
/// state, after the OS has made its page-size decisions). Returns the
/// workload with its final footprint.
pub fn prefault(
    kernel: &mut Kernel,
    space: SpaceId,
    spec: &WorkloadSpec,
    footprint: u64,
) -> WorkloadSpec {
    let spec = spec.clone().with_footprint(footprint);
    let pages = spec.footprint_pages();
    #[expect(
        clippy::expect_used,
        reason = "a freshly created address space has no VMAs to overlap"
    )]
    kernel
        .mmap(space, REGION, pages, Permissions::rw_user())
        .expect("fresh address space has no overlapping VMAs");
    kernel.fault_all(space);
    spec
}

/// A prepared native scenario: fragmented memory, OS state, and a fully
/// faulted footprint, ready to replay traces against any design.
pub struct NativeScenario {
    kernel: Kernel,
    space: SpaceId,
    spec: WorkloadSpec,
    seed: u64,
}

impl std::fmt::Debug for NativeScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeScenario")
            .field("workload", &self.spec.name)
            .field("footprint_bytes", &self.spec.footprint_bytes)
            .finish()
    }
}

impl NativeScenario {
    /// Builds the scenario: fragment with memhog, create the address space
    /// under the configured policy, and pre-fault the whole footprint
    /// ([`prefault`]), sized by [`fit_footprint`] to post-memhog free
    /// memory.
    pub fn prepare(spec: &WorkloadSpec, cfg: &ScenarioConfig) -> NativeScenario {
        let mem = PhysicalMemory::new(MemoryConfig::with_bytes(cfg.mem_bytes));
        let mut kernel = Kernel::new(mem);
        // 1 GB hugepage pools are reserved at boot, while memory is
        // pristine (`hugepagesz=1G` is a kernel parameter precisely
        // because 1 GB regions cannot be assembled after fragmentation).
        let est_free = (cfg.mem_bytes as f64 * (1.0 - cfg.memhog_fraction)) as u64;
        let est_footprint = fit_footprint(spec.footprint_bytes, est_free, 1, cfg.footprint_cap);
        let boot_pool = match cfg.policy {
            PolicyChoice::Huge1G => {
                Some(kernel.reserve_boot_pool(PageSize::Size1G, est_footprint))
            }
            PolicyChoice::Mixed => {
                Some(kernel.reserve_boot_pool(PageSize::Size1G, est_footprint / 2))
            }
            _ => None,
        };
        if cfg.memhog_fraction > 0.0 {
            let _hog = Memhog::fragment(
                kernel.mem_mut(),
                MemhogConfig::with_fraction(cfg.memhog_fraction).seed(cfg.seed),
            );
            // The hog stays resident for the scenario's lifetime.
        }
        let free_bytes = kernel.mem().free_frames() * PAGE_SIZE_4K
            + boot_pool
                .as_ref()
                .map_or(0, |p| p.len() as u64 * PageSize::Size1G.bytes());
        let footprint = fit_footprint(spec.footprint_bytes, free_bytes, 1, cfg.footprint_cap);
        let space = match boot_pool {
            Some(pool) => kernel.create_space_with_pool(
                cfg.policy.to_policy(footprint),
                PageSize::Size1G,
                pool,
            ),
            None => kernel.create_space(cfg.policy.to_policy(footprint)),
        };
        let spec = prefault(&mut kernel, space, spec, footprint);
        NativeScenario {
            kernel,
            space,
            spec,
            seed: cfg.seed,
        }
    }

    /// The workload (with its final footprint).
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// A clone of the faulted page table, for engines that own their
    /// replay state (the SMP engine clones one per core so every core
    /// sees identical A/D state).
    pub fn clone_page_table(&self) -> mixtlb_pagetable::PageTable {
        self.page_table().clone()
    }

    /// The faulted page table.
    pub(crate) fn page_table(&self) -> &mixtlb_pagetable::PageTable {
        self.kernel.space(self.space).page_table()
    }

    /// First 4 KB page of the mapped footprint.
    pub fn region(&self) -> Vpn {
        REGION
    }

    /// The scenario's RNG seed (trace streams derive from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The page-size distribution the OS produced (Figures 1, 9).
    pub fn distribution(&self) -> PageSizeDistribution {
        PageSizeDistribution::of(self.page_table())
    }

    /// Superpage contiguity for one size (Figures 11-13).
    pub fn contiguity(&self, size: PageSize) -> ContiguityStats {
        ContiguityStats::of(self.page_table(), size)
    }

    /// Fault statistics (THS fallbacks, compactions, pool hits).
    pub fn fault_stats(&self) -> FaultStats {
        self.kernel.space(self.space).stats()
    }

    /// Replays `refs` trace events against a design and reports. The page
    /// table is cloned per run, so every design sees identical A/D state
    /// and the scenario can be reused.
    pub fn run(&mut self, hierarchy: TlbHierarchy, refs: u64) -> PerfReport {
        self.run_configured(hierarchy, refs, |_| {})
    }

    /// Like [`NativeScenario::run`], flushing all translation structures
    /// every `interval` references — context switches on hardware without
    /// address-space identifiers. Exercises each design's *refill*
    /// efficiency: a coalescing TLB rebuilds its reach with far fewer
    /// walks after a flush.
    pub fn run_with_flushes(
        &mut self,
        hierarchy: TlbHierarchy,
        refs: u64,
        interval: u64,
    ) -> PerfReport {
        assert!(interval > 0, "flush interval must be non-zero");
        self.drive(hierarchy, |engine, generator| {
            let mut done = 0u64;
            while done < refs {
                let burst = interval.min(refs - done);
                engine.run(generator.by_ref().take(burst as usize));
                done += burst;
                if done < refs {
                    engine.flush_tlbs();
                }
            }
        })
    }

    /// Like [`NativeScenario::run_with_flushes`], but context switches go
    /// through the **ASID path**: the workload runs under PCID 1, and at
    /// every switch an intruder process (PCID 2, a decorrelated stream of
    /// the same workload class) runs a short burst. On hierarchies that
    /// honour tags ([`TlbHierarchy::supports_asids`]) no flush happens —
    /// both processes' entries coexist, tagged, and the workload's reach
    /// survives the switch. Hierarchies without tag support must still
    /// flush around the intruder, exactly as untagged hardware would.
    ///
    /// The intruder burst is `interval / 8` references, identical for
    /// every design, so reports stay comparable side by side with
    /// [`NativeScenario::run_with_flushes`].
    pub fn run_with_asid_switches(
        &mut self,
        hierarchy: TlbHierarchy,
        refs: u64,
        interval: u64,
    ) -> PerfReport {
        assert!(interval > 0, "switch interval must be non-zero");
        let mut intruder_gen = TraceGenerator::new(&self.spec, self.seed ^ 0xDEAD_BEEF, REGION);
        self.drive(hierarchy, |engine, generator| {
            let tagged = engine.supports_asids();
            let workload = Asid::new(1);
            let intruder = Asid::new(2);
            let intruder_burst = (interval / 8).max(1);
            let mut done = 0u64;
            while done < refs {
                engine.set_asid(workload);
                let burst = interval.min(refs - done);
                engine.run(generator.by_ref().take(burst as usize));
                done += burst;
                if done < refs {
                    if !tagged {
                        engine.flush_tlbs();
                    }
                    engine.set_asid(intruder);
                    engine.run(intruder_gen.by_ref().take(intruder_burst as usize));
                    if !tagged {
                        engine.flush_tlbs();
                    }
                }
            }
        })
    }

    /// Like [`NativeScenario::run`], with a hook to reconfigure the engine
    /// before replay (e.g. [`TranslationEngine::disable_pwc`] for
    /// ablations).
    pub fn run_configured(
        &mut self,
        hierarchy: TlbHierarchy,
        refs: u64,
        configure: impl FnOnce(&mut TranslationEngine<'_>),
    ) -> PerfReport {
        self.drive(hierarchy, |engine, generator| {
            configure(engine);
            engine.run(generator.take(refs as usize));
        })
    }

    /// The one driver behind every `run*`: an engine over a clone of the
    /// page table, handed with the scenario's trace generator to `replay`,
    /// then reported.
    fn drive(
        &self,
        hierarchy: TlbHierarchy,
        replay: impl FnOnce(&mut TranslationEngine<'_>, &mut TraceGenerator),
    ) -> PerfReport {
        let mut pt = self.clone_page_table();
        let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
        let mut generator = TraceGenerator::new(&self.spec, self.seed, REGION);
        replay(&mut engine, &mut generator);
        PerfReport::from_engine(&self.spec, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs;

    fn spec(name: &str) -> WorkloadSpec {
        WorkloadSpec::by_name(name).unwrap()
    }

    #[test]
    fn ths_scenario_produces_superpages_when_clean() {
        let s = NativeScenario::prepare(&spec("gups"), &ScenarioConfig::quick());
        let d = s.distribution();
        assert!(d.superpage_fraction() > 0.95, "{d:?}");
        // The fault-path counters must agree: a clean THS run maps 2 MB pages.
        let fs = s.fault_stats();
        assert!(fs.mapped_2m > 0, "{fs:?}");
    }

    #[test]
    fn small_only_scenario_produces_no_superpages() {
        let cfg = ScenarioConfig::quick().with_policy(PolicyChoice::SmallOnly);
        let s = NativeScenario::prepare(&spec("gups"), &cfg);
        assert_eq!(s.distribution().superpage_fraction(), 0.0);
    }

    #[test]
    fn fragmentation_reduces_superpage_fraction() {
        let clean = NativeScenario::prepare(&spec("gups"), &ScenarioConfig::quick());
        let cfg = ScenarioConfig::quick().with_memhog(0.7);
        let fragged = NativeScenario::prepare(&spec("gups"), &cfg);
        assert!(
            fragged.distribution().superpage_fraction()
                < clean.distribution().superpage_fraction()
        );
    }

    #[test]
    fn superpages_come_out_contiguous() {
        let s = NativeScenario::prepare(&spec("gups"), &ScenarioConfig::quick());
        let c = s.contiguity(PageSize::Size2M);
        assert!(c.average_contiguity() > 8.0, "{}", c.average_contiguity());
    }

    #[test]
    fn mix_beats_split_under_superpage_pressure() {
        let mut s = NativeScenario::prepare(&spec("gups"), &ScenarioConfig::quick());
        let split = s.run(designs::haswell_split(), 30_000);
        let mix = s.run(designs::mix(), 30_000);
        assert!(
            mix.total_cycles <= split.total_cycles,
            "mix {} vs split {}",
            mix.total_cycles,
            split.total_cycles
        );
        assert!(mix.l1_hit_rate >= split.l1_hit_rate);
    }

    #[test]
    fn scenario_is_reusable_across_designs() {
        let mut s = NativeScenario::prepare(&spec("streamcluster"), &ScenarioConfig::quick());
        let a = s.run(designs::mix(), 10_000);
        let b = s.run(designs::mix(), 10_000);
        assert_eq!(a.total_cycles, b.total_cycles, "same design, same result");
    }

    #[test]
    fn footprint_respects_memory() {
        let mut cfg = ScenarioConfig::quick();
        cfg.footprint_cap = None;
        let s = NativeScenario::prepare(&spec("gups"), &cfg);
        assert!(s.spec().footprint_bytes < cfg.mem_bytes);
    }
}
