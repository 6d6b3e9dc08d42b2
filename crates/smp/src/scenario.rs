//! Multi-programmed SMP scenarios: one kernel, one address space per
//! core, each running its own workload (the paper's consolidation
//! set-up, where distinct processes pressure distinct page tables but
//! share the last-level cache and the shootdown fabric).

use mixtlb_mem::{MemoryConfig, PhysicalMemory};
use mixtlb_os::{Kernel, PagingPolicy, SpaceId, ThsConfig};
use mixtlb_trace::{TraceGenerator, WorkloadSpec};
use mixtlb_types::{Vpn, PAGE_SIZE_4K};

use mixtlb_cache::SharedCacheConfig;
use mixtlb_sim::{fit_footprint, prefault, TlbHierarchy, REGION};

use crate::core::SmpCore;
use crate::machine::SmpMachine;
use crate::shootdown::ShootdownModel;

/// Seed decorrelation identical to `mixtlb-trace`'s per-core streams:
/// each core's stream derives from the scenario seed but is statistically
/// independent of the others.
fn core_seed(seed: u64, core: usize) -> u64 {
    seed ^ (core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Configuration of a multi-programmed scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmpScenarioConfig {
    /// Machine memory in bytes, shared by all cores' footprints.
    pub mem_bytes: u64,
    /// Cap on each core's footprint (None = its fair share of memory).
    pub per_core_cap: Option<u64>,
    /// RNG seed; per-core streams decorrelate from it.
    pub seed: u64,
    /// Initiate one shootdown every this many accesses per core
    /// (0 = never). Models migration/compaction churn.
    pub shootdown_interval: u64,
    /// Close one invalidation epoch every this many accesses per core
    /// (0 = no epoch accounting). The epoch-batched shootdown model is
    /// priced side by side with the eager model over the same run; this
    /// sets how many eager shootdowns one batched IPI round absorbs.
    pub epoch_interval: u64,
}

impl SmpScenarioConfig {
    /// A tiny configuration for unit tests (512 MB machine).
    pub fn quick() -> SmpScenarioConfig {
        SmpScenarioConfig {
            mem_bytes: 512 << 20,
            per_core_cap: Some(64 << 20),
            seed: 42,
            shootdown_interval: 0,
            epoch_interval: 0,
        }
    }

    /// The benchmark default: a 4 GB machine with periodic shootdowns.
    pub fn standard() -> SmpScenarioConfig {
        SmpScenarioConfig {
            mem_bytes: 4 << 30,
            per_core_cap: None,
            seed: 42,
            shootdown_interval: 10_000,
            // Five eager shootdowns batched per epoch at the default
            // cadence — churny enough that the full-flush ceiling bites
            // on every-set-sweep designs.
            epoch_interval: 50_000,
        }
    }

    /// Sets the shootdown cadence.
    pub fn with_shootdown_interval(mut self, interval: u64) -> SmpScenarioConfig {
        self.shootdown_interval = interval;
        self
    }

    /// Sets the epoch cadence (0 disables epoch accounting).
    pub fn with_epoch_interval(mut self, interval: u64) -> SmpScenarioConfig {
        self.epoch_interval = interval;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> SmpScenarioConfig {
        self.seed = seed;
        self
    }
}

/// A prepared multi-programmed scenario: one address space per core,
/// each pre-faulted under transparent hugepage support, ready to build
/// [`SmpMachine`]s for any TLB design.
pub struct MultiProgrammedScenario {
    kernel: Kernel,
    spaces: Vec<SpaceId>,
    specs: Vec<WorkloadSpec>,
    cfg: SmpScenarioConfig,
}

impl std::fmt::Debug for MultiProgrammedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiProgrammedScenario")
            .field(
                "workloads",
                &self.specs.iter().map(|s| s.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl MultiProgrammedScenario {
    /// Prepares one address space per named workload, sharing free
    /// memory fairly between them ([`fit_footprint`]) and pre-faulting
    /// every footprint (the paper measures steady state).
    ///
    /// # Panics
    ///
    /// Panics if a workload name is unknown or `workloads` is empty.
    pub fn prepare(workloads: &[&str], cfg: &SmpScenarioConfig) -> MultiProgrammedScenario {
        assert!(!workloads.is_empty(), "need at least one workload");
        let mem = PhysicalMemory::new(MemoryConfig::with_bytes(cfg.mem_bytes));
        let mut kernel = Kernel::new(mem);
        let free_bytes = kernel.mem().free_frames() * PAGE_SIZE_4K;
        let shares = workloads.len() as u64;
        // Every space maps the same virtual region (separate address
        // spaces — this is what the ASIDs tag).
        let mut spaces = Vec::new();
        let mut specs = Vec::new();
        for name in workloads {
            #[expect(
                clippy::panic,
                reason = "an unknown workload name is a caller configuration bug surfaced immediately"
            )]
            let base = WorkloadSpec::by_name(name)
                .unwrap_or_else(|| panic!("unknown workload {name:?}"));
            let footprint =
                fit_footprint(base.footprint_bytes, free_bytes, shares, cfg.per_core_cap);
            let space = kernel.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
            let spec = prefault(&mut kernel, space, &base, footprint);
            spaces.push(space);
            specs.push(spec);
        }
        MultiProgrammedScenario {
            kernel,
            spaces,
            specs,
            cfg: *cfg,
        }
    }

    /// The paper's homogeneous consolidation combo: `cores` copies of
    /// gups, the workload with the worst TLB behaviour.
    pub fn gups_times(cores: usize, cfg: &SmpScenarioConfig) -> MultiProgrammedScenario {
        let names = vec!["gups"; cores];
        MultiProgrammedScenario::prepare(&names, cfg)
    }

    /// The heterogeneous combo: gups alongside graph500 (random-access
    /// vs. pointer-chasing pressure on the shared fabric).
    pub fn gups_graph500(cfg: &SmpScenarioConfig) -> MultiProgrammedScenario {
        MultiProgrammedScenario::prepare(&["gups", "graph500"], cfg)
    }

    /// Number of cores (= workloads = address spaces).
    pub fn core_count(&self) -> usize {
        self.specs.len()
    }

    /// The per-core workload specs (with their final footprints).
    pub fn specs(&self) -> &[WorkloadSpec] {
        &self.specs
    }

    /// First page of the shared virtual region every space maps.
    pub fn region(&self) -> Vpn {
        REGION
    }

    /// A clone of core `index`'s faulted page table — what the
    /// work-stealing replay drivers hand to each worker.
    pub fn clone_page_table(&self, index: usize) -> mixtlb_pagetable::PageTable {
        self.kernel.space(self.spaces[index]).page_table().clone()
    }

    /// Core `index`'s trace generator, seeded exactly as
    /// [`MultiProgrammedScenario::build_machine`] seeds it.
    pub fn generator(&self, index: usize) -> TraceGenerator {
        TraceGenerator::new(&self.specs[index], core_seed(self.cfg.seed, index), REGION)
    }

    /// Builds an [`SmpMachine`] whose cores all run `factory`'s TLB
    /// design. Each core gets a clone of its space's faulted page table,
    /// so machines for different designs replay identical system state.
    pub fn build_machine(
        &self,
        factory: fn() -> TlbHierarchy,
        llc: SharedCacheConfig,
        model: ShootdownModel,
    ) -> SmpMachine {
        let cores = self
            .specs
            .iter()
            .zip(&self.spaces)
            .enumerate()
            .map(|(i, (spec, space))| {
                let pt = self.kernel.space(*space).page_table().clone();
                SmpCore::new(i, factory(), pt, self.generator(i), spec.footprint_pages())
                    .with_shootdown_interval(self.cfg.shootdown_interval)
                    .with_epoch_interval(self.cfg.epoch_interval)
            })
            .collect();
        SmpMachine::new(cores, llc, model)
    }
}
