//! An SMP core resolves an access exactly like the single-core engine:
//! the same L1 probe, L2 probe with run hand-down, walk and fills, and
//! the same serial-probe stalls. The two differ only below the TLBs — an
//! SMP core's walk references go to private caches backed by a shared
//! LLC, whose latency it books apart. With one LLC slice the size of the
//! engine's LLC, every translation, every counter (the core's two stall
//! counts summed) and every TLB statistic must agree on one core.

use mixtlb_cache::SharedCacheConfig;
use mixtlb_sim::designs::all_cpu_designs;
use mixtlb_sim::{EngineStats, TranslationEngine, WalkBackend};
use mixtlb_smp::{MultiProgrammedScenario, ShootdownModel, SmpScenarioConfig};
use mixtlb_trace::TraceEvent;
use mixtlb_types::Asid;

const EVENTS: usize = 30_000;

fn config() -> SmpScenarioConfig {
    SmpScenarioConfig {
        mem_bytes: 2 << 30,
        // A 1 GB footprint: a smaller one fits the TLBs' reach and walks
        // only a handful of times per design.
        per_core_cap: Some(1 << 30),
        seed: 42,
        shootdown_interval: 0,
        epoch_interval: 0,
    }
}

fn assert_agreement(workload: &str) {
    let scenario = MultiProgrammedScenario::prepare(&[workload], &config());
    let events: Vec<TraceEvent> = scenario.generator(0).take(EVENTS).collect();
    for (name, factory) in all_cpu_designs() {
        let mut machine = scenario.build_machine(
            factory,
            SharedCacheConfig {
                shards: 1,
                ..SharedCacheConfig::haswell_llc()
            },
            ShootdownModel::default(),
        );
        let mut pt = scenario.clone_page_table(0);
        let mut engine = TranslationEngine::new(factory(), WalkBackend::Native(&mut pt));
        engine.set_asid(Asid::for_index(0));
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(
                machine.access(0, ev),
                engine.access(ev),
                "{workload}/{name}: event {i} translated differently"
            );
        }
        let (want, l1, l2, _) = engine.finish();
        let report = machine.run_serial(0);
        let core = &report.cores[0];
        let got = EngineStats {
            stall_cycles: core.stats.stall_cycles + core.stats.llc_stall_cycles,
            ..core.stats.engine
        };
        assert!(
            want.walks > 50,
            "{workload}/{name}: only {} walks",
            want.walks
        );
        assert_eq!(got, want, "{workload}/{name}: EngineStats");
        assert_eq!(core.l1, l1, "{workload}/{name}: L1 TlbStats");
        assert_eq!(core.l2, l2, "{workload}/{name}: L2 TlbStats");
    }
}

#[test]
fn gups_agrees_with_the_engine() {
    assert_agreement("gups");
}

#[test]
fn memcached_agrees_with_the_engine() {
    assert_agreement("memcached");
}

#[test]
fn mcf_agrees_with_the_engine() {
    assert_agreement("mcf");
}
