//! N-core shootdown coherence: after the OS migrates a page and runs the
//! shootdown protocol, **every** core must serve the new frame — no core
//! may ever return a stale translation out of its TLBs. This lifts the
//! single-TLB property `remap_after_shootdown_serves_the_new_frame`
//! (mixtlb-core's mix.rs) to the whole machine.

use mixtlb_cache::SharedCacheConfig;
use mixtlb_sim::designs;
use mixtlb_sim::TlbHierarchy;
use mixtlb_smp::{MultiProgrammedScenario, ShootdownModel, SmpScenarioConfig};
use mixtlb_trace::TraceEvent;
use mixtlb_types::{AccessKind, VirtAddr, Vpn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Pages in each core's 8 MB footprint.
const FOOTPRINT_PAGES: u64 = (8 << 20) / 4096;

fn cfg(seed: u64) -> SmpScenarioConfig {
    SmpScenarioConfig {
        mem_bytes: 256 << 20,
        per_core_cap: Some(8 << 20),
        seed,
        shootdown_interval: 0,
        epoch_interval: 0,
    }
}

fn design(index: usize) -> (&'static str, fn() -> TlbHierarchy) {
    match index % 3 {
        0 => ("mix", designs::mix as fn() -> TlbHierarchy),
        1 => ("split", designs::haswell_split),
        _ => ("colt", designs::colt),
    }
}

fn event(vpn: Vpn, pc: u64) -> TraceEvent {
    TraceEvent {
        pc,
        va: VirtAddr::from_page(vpn, 0x123),
        kind: AccessKind::Load,
    }
}

/// Warm every core's TLBs on a page, migrate it with a broadcast
/// shootdown, and check every core immediately serves the new frame
/// (the migrated frame differs in exactly bit 33 of the PFN, i.e.
/// bit 45 of the physical address).
#[test]
fn every_core_serves_the_new_frame_after_shootdown() {
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(case);
        let cores = rng.gen_range(2..=4);
        let (name, factory) = design(rng.gen_range(0..3));
        let (page, initiator_sel) = (rng.gen_range(0..FOOTPRINT_PAGES), rng.gen_range(0..16usize));
        let scenario = MultiProgrammedScenario::gups_times(cores, &cfg(rng.gen_range(0..1_000)));
        let mut machine = scenario.build_machine(
            factory,
            SharedCacheConfig::tiny(),
            ShootdownModel::default(),
        );
        let vpn = Vpn::new(scenario.region().raw() + page);
        let ev = event(vpn, 0x40_1000);

        // Warm: every core caches the translation in its TLBs.
        let mut before = Vec::new();
        for core in 0..cores {
            let pa = machine.access(core, &ev);
            assert!(pa.is_some(), "case {case}: {name}: pre-faulted page must translate");
            // Touch again: now it is an L1 hit for sure.
            assert_eq!(machine.access(core, &ev), pa, "case {case}");
            before.push(pa.unwrap());
        }

        // Migrate + shootdown from an arbitrary initiator.
        let initiator = initiator_sel % cores;
        let size = machine.broadcast_remap(initiator, vpn);
        assert!(size.is_some(), "case {case}: {name}: page was mapped");

        // Every core — initiator and remotes alike — serves the new frame.
        for (core, old_pa) in before.iter().enumerate() {
            let pa = machine.access(core, &ev);
            assert!(pa.is_some(), "case {case}");
            let pa = pa.unwrap();
            assert_ne!(
                pa, *old_pa,
                "case {case}: {}: core {} returned the stale frame after the shootdown",
                name, core
            );
            assert_eq!(
                pa.raw(),
                old_pa.raw() ^ (1 << 45),
                "case {case}: {}: core {} translated to an unexpected frame",
                name, core
            );
        }

        // The initiator paid the machine-wide cost; remotes absorbed IPIs.
        let report = machine.run_serial(0);
        assert_eq!(report.cores[initiator].stats.shootdowns_initiated, 1, "case {case}");
        assert!(report.cores[initiator].stats.shootdown_cycles_initiated > 0, "case {case}");
        for core in 0..cores {
            if core != initiator {
                assert!(
                    report.cores[core].shootdown_cycles_absorbed > 0,
                    "case {case}: {}: remote {} absorbed no shootdown cycles",
                    name, core
                );
            }
        }
    }
}
