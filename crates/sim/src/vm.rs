//! Virtualized scenarios: guest OSes over a hypervisor, nested page
//! tables, and 2-D walks (paper Secs. 2, 7.1-7.2).

use mixtlb_mem::{MemoryConfig, PhysicalMemory};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use mixtlb_os::scan::{self, ContiguityStats, PageSizeDistribution};
use mixtlb_os::{Kernel, PagingPolicy, SpaceId, ThsConfig};
use mixtlb_trace::{TraceGenerator, WorkloadSpec};
use mixtlb_types::{PageSize, Permissions, Vpn, PAGE_SIZE_4K};

use crate::engine::{TlbHierarchy, TranslationEngine, WalkBackend};
use crate::model::PerfReport;
use crate::scenario::{NativeScenario, PolicyChoice, ScenarioConfig};

/// Virtualized-scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtConfig {
    /// System (host) memory in bytes.
    pub mem_bytes: u64,
    /// Number of consolidated VMs (the paper consolidates 1-8).
    pub vms: u32,
    /// memhog fraction *inside each VM* (Figure 10's `M mh`).
    pub memhog_in_vm: f64,
    /// RNG seed.
    pub seed: u64,
    /// Cap on each VM's workload footprint.
    pub footprint_cap: Option<u64>,
}

impl VirtConfig {
    /// A tiny configuration for tests (512 MB host, 1 VM).
    pub fn quick() -> VirtConfig {
        VirtConfig {
            mem_bytes: 512 << 20,
            vms: 1,
            memhog_in_vm: 0.0,
            seed: 42,
            footprint_cap: Some(128 << 20),
        }
    }

    /// The benchmark default: 2 GB of host memory per consolidated VM
    /// (the paper gives each VM a fixed 10 GB; keeping per-VM memory
    /// constant across consolidation levels preserves the regime where
    /// footprints exceed every TLB's reach).
    pub fn standard(vms: u32, memhog_in_vm: f64) -> VirtConfig {
        VirtConfig {
            mem_bytes: (2u64 << 30) * u64::from(vms),
            vms,
            memhog_in_vm,
            seed: 42,
            footprint_cap: None,
        }
    }
}

struct GuestVm {
    /// The guest OS managing guest-physical memory: a native scenario.
    os: NativeScenario,
    /// The EPT for this VM inside the host kernel.
    ept_space: SpaceId,
}

/// A prepared virtualized scenario: a host kernel whose memory backs `N`
/// guest OS images (each with its own guest page table), connected by
/// per-VM nested (EPT) tables built with host THS.
///
/// Consolidation pressure is modeled two ways: each VM gets `1/N` of host
/// memory, and host-level fragmentation grows with `N` (standing in for
/// the page-sharing and migration churn the paper cites [47-49]).
pub struct VirtScenario {
    host: Kernel,
    guests: Vec<GuestVm>,
}

impl std::fmt::Debug for VirtScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtScenario")
            .field("vms", &self.guests.len())
            .finish()
    }
}

impl VirtScenario {
    /// Builds the scenario: host kernel, per-VM guest kernels with memhog
    /// and THS, guest footprints faulted in, and EPTs backing every
    /// guest-physical page through host THS.
    pub fn prepare(spec: &WorkloadSpec, cfg: &VirtConfig) -> VirtScenario {
        assert!(cfg.vms >= 1, "at least one VM required");
        let mut host = Kernel::new(PhysicalMemory::new(MemoryConfig::with_bytes(cfg.mem_bytes)));
        // Consolidation pressure is modeled as host-level page-size
        // *splintering*: as more VMs share the machine, hypervisor page
        // sharing proactively breaks host 2 MB pages into 4 KB pages
        // (Guo et al., VEE 2015 — the paper's [48]; also the NUMA
        // migration effects of [49]). 8% of each VM's EPT superpages per
        // consolidated VM beyond the first are splintered in place after
        // the EPT is built (below).
        let splinter_fraction = (0.08 * (cfg.vms - 1) as f64).min(0.8);
        // Leave the host 1/8 headroom for EPT pages and its own needs.
        let guest_mem = (cfg.mem_bytes / u64::from(cfg.vms)) * 7 / 8;
        let guest_mem = guest_mem - guest_mem % PAGE_SIZE_4K;
        let mut guests = Vec::with_capacity(cfg.vms as usize);
        for vm in 0..cfg.vms {
            // Each guest is a native machine under THS, its memhog and
            // trace seeded per VM.
            let os = NativeScenario::prepare(
                spec,
                &ScenarioConfig {
                    mem_bytes: guest_mem,
                    memhog_fraction: cfg.memhog_in_vm,
                    policy: PolicyChoice::Ths,
                    footprint_cap: cfg.footprint_cap,
                    seed: cfg.seed.wrapping_add(u64::from(vm)),
                },
            );
            // EPT: back the whole guest-physical space through host THS.
            let ept_space =
                host.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
            let guest_frames = guest_mem / PAGE_SIZE_4K;
            #[expect(
                clippy::expect_used,
                reason = "the EPT space was created empty two lines above"
            )]
            host.mmap(ept_space, Vpn::new(0), guest_frames, Permissions::rw_user())
                .expect("fresh EPT space");
            host.fault_all(ept_space);
            if splinter_fraction > 0.0 {
                let mut superpages = Vec::new();
                host.space(ept_space).page_table().for_each_leaf(|t| {
                    if t.size.is_superpage() {
                        superpages.push(t.vpn);
                    }
                });
                let mut rng = SmallRng::seed_from_u64(
                    cfg.seed ^ 0x7368_6172 ^ u64::from(vm), // "shar"
                );
                // Sharing victims cluster (zero pages and identical content
                // come in groups), so splinter runs of adjacent superpages
                // rather than sprinkling breaks uniformly — the same
                // splintered *fraction* with far less damage to the
                // contiguity of what remains 2 MB.
                const SPLINTER_CLUSTER: usize = 16;
                let mut i = 0;
                while i < superpages.len() {
                    if rng.gen_bool(splinter_fraction) {
                        for j in 0..SPLINTER_CLUSTER.min(superpages.len() - i) {
                            #[expect(
                                clippy::expect_used,
                                reason = "the superpage leaf was just enumerated from the live table"
                            )]
                            host.splinter(ept_space, superpages[i + j])
                                .expect("leaf just enumerated");
                        }
                        i += SPLINTER_CLUSTER;
                    } else {
                        i += SPLINTER_CLUSTER;
                    }
                }
            }
            guests.push(GuestVm { os, ept_space });
        }
        VirtScenario { host, guests }
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.guests.len()
    }

    /// The workload of VM `vm` (with its final footprint).
    pub fn spec(&self, vm: usize) -> &WorkloadSpec {
        self.guests[vm].os.spec()
    }

    /// The *effective* (splintered) page-size distribution seen by nested
    /// translation for VM `vm` — Figure 10's metric.
    pub fn effective_distribution(&self, vm: usize) -> PageSizeDistribution {
        let guest = &self.guests[vm];
        scan::effective_distribution(
            guest.os.page_table(),
            self.host.space(guest.ept_space).page_table(),
        )
    }

    /// Effective superpage contiguity for VM `vm` (Figures 11, 13).
    pub fn effective_contiguity(&self, vm: usize, size: PageSize) -> ContiguityStats {
        let guest = &self.guests[vm];
        scan::effective_contiguity(
            guest.os.page_table(),
            self.host.space(guest.ept_space).page_table(),
            size,
        )
    }

    /// Debug helper: raw guest and host(EPT) contiguity for a VM.
    pub fn debug_contiguity(
        &self,
        vm: usize,
        size: PageSize,
    ) -> (ContiguityStats, ContiguityStats) {
        let guest = &self.guests[vm];
        (
            ContiguityStats::of(guest.os.page_table(), size),
            ContiguityStats::of(self.host.space(guest.ept_space).page_table(), size),
        )
    }

    /// Replays `refs` events of VM `vm`'s workload through 2-D translation
    /// against a design.
    pub fn run(&mut self, vm: usize, hierarchy: TlbHierarchy, refs: u64) -> PerfReport {
        let (guest, ept_space) = (&self.guests[vm].os, self.guests[vm].ept_space);
        let mut guest_pt = guest.clone_page_table();
        let mut host_pt = self.host.space(ept_space).page_table().clone();
        let mut engine = TranslationEngine::new(
            hierarchy,
            WalkBackend::Nested {
                guest: &mut guest_pt,
                host: &mut host_pt,
            },
        );
        let generator = TraceGenerator::new(guest.spec(), guest.seed(), guest.region());
        engine.run(generator.take(refs as usize));
        PerfReport::from_engine(guest.spec(), engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::by_name("gups").unwrap()
    }

    #[test]
    fn clean_vm_sees_matched_superpages() {
        let s = VirtScenario::prepare(&spec(), &VirtConfig::quick());
        let d = s.effective_distribution(0);
        assert!(d.superpage_fraction() > 0.9, "{d:?}");
        // A clean guest on a clean host has real 2 MB contiguity in both
        // dimensions, and the guest view never claims more translations
        // than its own raw page table holds.
        let (guest, host) = s.debug_contiguity(0, PageSize::Size2M);
        assert!(guest.translations() > 0, "{guest:?}");
        assert!(host.translations() > 0, "{host:?}");
    }

    #[test]
    fn guest_memhog_splinters_pages() {
        let mut cfg = VirtConfig::quick();
        cfg.memhog_in_vm = 0.7;
        let s = VirtScenario::prepare(&spec(), &cfg);
        let clean = VirtScenario::prepare(&spec(), &VirtConfig::quick());
        assert!(
            s.effective_distribution(0).superpage_fraction()
                < clean.effective_distribution(0).superpage_fraction()
        );
    }

    #[test]
    fn consolidation_splits_memory() {
        let mut cfg = VirtConfig::quick();
        cfg.mem_bytes = 1 << 30;
        cfg.vms = 4;
        cfg.footprint_cap = Some(32 << 20);
        let s = VirtScenario::prepare(&spec(), &cfg);
        assert_eq!(s.vm_count(), 4);
        for vm in 0..4 {
            assert!(s.spec(vm).footprint_bytes <= 32 << 20);
        }
    }

    #[test]
    fn nested_translation_runs_and_mix_wins() {
        let mut s = VirtScenario::prepare(&spec(), &VirtConfig::quick());
        let split = s.run(0, designs::haswell_split(), 15_000);
        let mix = s.run(0, designs::mix(), 15_000);
        assert_eq!(split.accesses, 15_000);
        assert!(split.walks_per_kilo >= 0.0);
        assert!(
            mix.total_cycles <= split.total_cycles * 1.02,
            "mix {} vs split {}",
            mix.total_cycles,
            split.total_cycles
        );
    }
}
