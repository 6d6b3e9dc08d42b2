//! Exact-count pins for every MIX geometry and every split-family
//! hierarchy the simulator ships.
//!
//! A fixed seeded trace over a fragmented THS address space (a mix of
//! 4 KB and 2 MB pages) replays through each configuration. For each
//! the test pins the digest of every physical address the engine
//! returned, the [`EngineStats`] and both levels' [`TlbStats`] — so a
//! change to a MIX, split or COLT fill or probe datapath that moves a
//! single translation, counter, LRU stamp or eviction choice fails here.
//!
//! Covered: `mix` and `mix+colt` (bitmap L2s; COLT's 4 KB bundles take
//! the partial-mirror path), `mix_scaled(512)` (length-kind L2 with 512
//! bundle positions), the superpage-indexed strawman, the GPU per-SM MIX
//! L1 geometry alone and over the GPU's shared L2, and the nested-TLB MIX
//! that 2-D walks consult. The split family: `split` (the Haswell split
//! L1 over the partly split L2), `colt` and `colt++` (coalescing split
//! L1s over the same L2, which also pins the split TLB's stats merge), and
//! the GPU per-SM split L1 alone.

use mixtlb_core::TlbStats;
use mixtlb_sim::{
    designs, EngineStats, NativeScenario, PolicyChoice, ScenarioConfig, TlbHierarchy,
    TranslationEngine, VirtConfig, VirtScenario, WalkBackend,
};
use mixtlb_trace::{TraceEvent, TraceGenerator, WorkloadSpec};

const EVENTS: usize = 20_000;

/// gups under THS at 70% memhog: a 256 MB footprint backed by runs of
/// 2 MB pages interleaved with 4 KB strips.
fn scenario() -> NativeScenario {
    let spec = WorkloadSpec::by_name("gups").unwrap_or_else(|| unreachable!("gups is built in"));
    let cfg = ScenarioConfig::quick()
        .with_policy(PolicyChoice::Ths)
        .with_memhog(0.7)
        .with_seed(7);
    NativeScenario::prepare(&spec, &cfg)
}

fn trace(s: &NativeScenario) -> Vec<TraceEvent> {
    TraceGenerator::new(s.spec(), s.seed(), s.region())
        .take(EVENTS)
        .collect()
}

/// Replays `events` and returns the FNV-1a digest of the returned
/// physical addresses (`u64::MAX` for a fault), the engine counters and
/// both levels' TLB counters.
fn replay(
    s: &NativeScenario,
    events: &[TraceEvent],
    hierarchy: TlbHierarchy,
) -> (u64, EngineStats, TlbStats, Option<TlbStats>) {
    let mut pt = s.clone_page_table();
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for ev in events {
        let pa = engine.access(ev).map_or(u64::MAX, |pa| pa.raw());
        for byte in pa.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let (stats, l1, l2, _) = engine.finish();
    (digest, stats, l1, l2)
}

/// Asserts one design's replay against its pinned rendering.
fn check(name: &str, got: (u64, EngineStats, TlbStats, Option<TlbStats>), want: &str) {
    let rendered = format!("{:#018x} {:?} L1 {:?} L2 {:?}", got.0, got.1, got.2, got.3);
    assert_eq!(rendered, want, "{name}: replay moved");
}

#[test]
fn mix_geometries_replay_exactly_as_pinned() {
    let s = scenario();
    let events = trace(&s);
    let designs: [(&str, TlbHierarchy, &str); 10] = [
        ("mix", designs::mix(), MIX),
        ("mix+colt", designs::mix_colt(), MIX_COLT),
        ("mix_scaled(512)", designs::mix_scaled(512), MIX_SCALED_512),
        ("sp-indexed", designs::superpage_indexed(), SP_INDEXED),
        (
            "gpu-mix-l1",
            TlbHierarchy::new("gpu-mix-l1", designs::gpu_mix_l1(), None),
            GPU_MIX_L1,
        ),
        (
            "gpu-shared-l2",
            TlbHierarchy::new(
                "gpu-shared-l2",
                designs::gpu_mix_l1(),
                Some(designs::gpu_shared_l2()),
            ),
            GPU_SHARED_L2,
        ),
        ("split", designs::haswell_split(), SPLIT),
        ("colt", designs::colt(), COLT),
        ("colt++", designs::colt_plus_plus(), COLT_PLUS_PLUS),
        (
            "gpu-split-l1",
            TlbHierarchy::new("gpu-split-l1", designs::gpu_split_l1(), None),
            GPU_SPLIT_L1,
        ),
    ];
    for (name, hierarchy, want) in designs {
        check(name, replay(&s, &events, hierarchy), want);
    }
}

#[test]
fn nested_tlb_mix_replays_exactly_as_pinned() {
    // A 2-D walk consults the engine's nested-TLB MIX before each host
    // traversal, so its fills and hits show in the stall cycles, walk
    // traffic and energy of the report.
    let spec = WorkloadSpec::by_name("gups").unwrap_or_else(|| unreachable!("gups is built in"));
    let cfg = VirtConfig {
        memhog_in_vm: 0.4,
        seed: 7,
        ..VirtConfig::quick()
    };
    let mut vm = VirtScenario::prepare(&spec, &cfg);
    for (hierarchy, want) in [(designs::mix(), NESTED_MIX), (designs::haswell_split(), NESTED_SPLIT)] {
        let report = vm.run(0, hierarchy, EVENTS as u64);
        assert_eq!(format!("{report:?}"), want, "nested {}: replay moved", report.design);
    }
}

const MIX: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 5081, l2_hits: 1008, walks: 13911, faults: 0, stall_cycles: 1067573, ",
    "walk_traffic: WalkTraffic { cache_hits: [7179, 8043, 326], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 975 } ",
    "L1 TlbStats { lookups: 20000, hits: 5081, misses: 14919, ",
    "hits_by_size: [21, 5060, 0], sets_probed: 20000, entries_read: 120000, ",
    "fills: 14919, entries_written: 36759, evictions: 31282, ",
    "dup_merges: 5275, coalesce_merges: 106, invalidations: 0, dirty_microops: 827, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 Some(TlbStats { lookups: 14919, hits: 1008, misses: 13911, ",
    "hits_by_size: [204, 804, 0], sets_probed: 14919, entries_read: 119352, ",
    "fills: 13911, entries_written: 34378, evictions: 13696, ",
    "dup_merges: 0, coalesce_merges: 402, invalidations: 0, dirty_microops: 148, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 })",
);
const MIX_COLT: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 5166, l2_hits: 1531, walks: 13303, faults: 0, stall_cycles: 1060307, ",
    "walk_traffic: WalkTraffic { cache_hits: [6396, 7990, 325], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 1310 } ",
    "L1 TlbStats { lookups: 20000, hits: 5166, misses: 14834, ",
    "hits_by_size: [92, 5074, 0], sets_probed: 20000, entries_read: 120000, ",
    "fills: 14834, entries_written: 36464, evictions: 31019, ",
    "dup_merges: 5255, coalesce_merges: 94, invalidations: 0, dirty_microops: 853, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 Some(TlbStats { lookups: 14834, hits: 1531, misses: 13303, ",
    "hits_by_size: [743, 788, 0], sets_probed: 14834, entries_read: 118672, ",
    "fills: 13303, entries_written: 32972, evictions: 13084, ",
    "dup_merges: 0, coalesce_merges: 398, invalidations: 0, dirty_microops: 457, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 })",
);
const MIX_SCALED_512: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 5094, l2_hits: 1380, walks: 13526, faults: 0, stall_cycles: 1060495, ",
    "walk_traffic: WalkTraffic { cache_hits: [6908, 7771, 323], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 2289 } ",
    "L1 TlbStats { lookups: 20000, hits: 5094, misses: 14906, ",
    "hits_by_size: [22, 5072, 0], sets_probed: 20000, entries_read: 120000, ",
    "fills: 14906, entries_written: 36566, evictions: 31082, ",
    "dup_merges: 5268, coalesce_merges: 120, invalidations: 0, dirty_microops: 1857, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 Some(TlbStats { lookups: 14906, hits: 1380, misses: 13526, ",
    "hits_by_size: [611, 769, 0], sets_probed: 14906, entries_read: 59624, ",
    "fills: 13526, entries_written: 157478, evictions: 13497, ",
    "dup_merges: 0, coalesce_merges: 1316, invalidations: 0, dirty_microops: 432, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 })",
);
const SP_INDEXED: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 5904, l2_hits: 718, walks: 13378, faults: 0, stall_cycles: 1058714, ",
    "walk_traffic: WalkTraffic { cache_hits: [6666, 8031, 326], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 2895 } ",
    "L1 TlbStats { lookups: 20000, hits: 5904, misses: 14096, ",
    "hits_by_size: [43, 5861, 0], sets_probed: 20000, entries_read: 120000, ",
    "fills: 14096, entries_written: 16323, evictions: 14471, ",
    "dup_merges: 1756, coalesce_merges: 0, invalidations: 0, dirty_microops: 2620, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 Some(TlbStats { lookups: 14096, hits: 718, misses: 13378, ",
    "hits_by_size: [70, 648, 0], sets_probed: 14096, entries_read: 56384, ",
    "fills: 13378, entries_written: 13392, evictions: 13191, ",
    "dup_merges: 0, coalesce_merges: 0, invalidations: 0, dirty_microops: 275, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 })",
);
const GPU_MIX_L1: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 4997, l2_hits: 0, walks: 15003, faults: 0, stall_cycles: 970213, ",
    "walk_traffic: WalkTraffic { cache_hits: [8332, 8039, 326], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 38 } ",
    "L1 TlbStats { lookups: 20000, hits: 4997, misses: 15003, ",
    "hits_by_size: [19, 4978, 0], sets_probed: 20000, entries_read: 100000, ",
    "fills: 15003, entries_written: 62681, evictions: 48708, ",
    "dup_merges: 13208, coalesce_merges: 605, invalidations: 0, dirty_microops: 38, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 None",
);
const GPU_SHARED_L2: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 5363, l2_hits: 769, walks: 13868, faults: 0, stall_cycles: 1065208, ",
    "walk_traffic: WalkTraffic { cache_hits: [7134, 8037, 326], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 611 } ",
    "L1 TlbStats { lookups: 20000, hits: 5363, misses: 14637, ",
    "hits_by_size: [22, 5341, 0], sets_probed: 20000, entries_read: 100000, ",
    "fills: 14637, entries_written: 51062, evictions: 41930, ",
    "dup_merges: 8765, coalesce_merges: 207, invalidations: 0, dirty_microops: 508, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 Some(TlbStats { lookups: 14637, hits: 769, misses: 13868, ",
    "hits_by_size: [220, 549, 0], sets_probed: 14637, entries_read: 117096, ",
    "fills: 13868, entries_written: 31131, evictions: 13654, ",
    "dup_merges: 0, coalesce_merges: 411, invalidations: 0, dirty_microops: 103, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 })",
);
const SPLIT: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 6528, l2_hits: 269, walks: 13203, faults: 0, stall_cycles: 1144844, ",
    "walk_traffic: WalkTraffic { cache_hits: [6482, 7996, 326], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 70 } ",
    "L1 TlbStats { lookups: 20000, hits: 6528, misses: 13472, ",
    "hits_by_size: [33, 6495, 0], sets_probed: 60000, entries_read: 240000, ",
    "fills: 13472, entries_written: 13472, evictions: 13387, ",
    "dup_merges: 0, coalesce_merges: 0, invalidations: 0, dirty_microops: 13, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 Some(TlbStats { lookups: 13472, hits: 269, misses: 13203, ",
    "hits_by_size: [269, 0, 0], sets_probed: 40147, entries_read: 160588, ",
    "fills: 13203, entries_written: 13203, evictions: 12691, ",
    "dup_merges: 0, coalesce_merges: 0, invalidations: 0, dirty_microops: 57, ",
    "serial_probes: 13203, predictor_reads: 0, predictor_misses: 0 })",
);
const COLT: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 6641, l2_hits: 267, walks: 13092, faults: 0, stall_cycles: 1142216, ",
    "walk_traffic: WalkTraffic { cache_hits: [6352, 7994, 326], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 133 } ",
    "L1 TlbStats { lookups: 20000, hits: 6641, misses: 13359, ",
    "hits_by_size: [146, 6495, 0], sets_probed: 60000, entries_read: 240000, ",
    "fills: 13359, entries_written: 13359, evictions: 13271, ",
    "dup_merges: 0, coalesce_merges: 0, invalidations: 0, dirty_microops: 75, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 Some(TlbStats { lookups: 13359, hits: 267, misses: 13092, ",
    "hits_by_size: [267, 0, 0], sets_probed: 39810, entries_read: 159240, ",
    "fills: 13092, entries_written: 13092, evictions: 12580, ",
    "dup_merges: 0, coalesce_merges: 0, invalidations: 0, dirty_microops: 58, ",
    "serial_probes: 13092, predictor_reads: 0, predictor_misses: 0 })",
);
const COLT_PLUS_PLUS: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 4950, l2_hits: 1953, walks: 13097, faults: 0, stall_cycles: 1166047, ",
    "walk_traffic: WalkTraffic { cache_hits: [6355, 8001, 326], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 1996 } ",
    "L1 TlbStats { lookups: 20000, hits: 4950, misses: 15050, ",
    "hits_by_size: [146, 4804, 0], sets_probed: 60000, entries_read: 240000, ",
    "fills: 15050, entries_written: 15050, evictions: 13271, ",
    "dup_merges: 0, coalesce_merges: 318, invalidations: 0, dirty_microops: 1937, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 Some(TlbStats { lookups: 15050, hits: 1953, misses: 13097, ",
    "hits_by_size: [261, 1692, 0], sets_probed: 44889, entries_read: 179556, ",
    "fills: 13097, entries_written: 13097, evictions: 12585, ",
    "dup_merges: 0, coalesce_merges: 0, invalidations: 0, dirty_microops: 59, ",
    "serial_probes: 14789, predictor_reads: 0, predictor_misses: 0 })",
);
const GPU_SPLIT_L1: &str = concat!(
    "0xf1fe747bc4110f44 EngineStats { accesses: 20000, l1_hits: 6567, l2_hits: 0, walks: 13433, faults: 0, stall_cycles: 960585, ",
    "walk_traffic: WalkTraffic { cache_hits: [6752, 8032, 326], dram_accesses: 2820, pte_writes: 5725 }, dirty_microops: 21 } ",
    "L1 TlbStats { lookups: 20000, hits: 6567, misses: 13433, ",
    "hits_by_size: [72, 6495, 0], sets_probed: 60000, entries_read: 240000, ",
    "fills: 13433, entries_written: 13433, evictions: 13284, ",
    "dup_merges: 0, coalesce_merges: 0, invalidations: 0, dirty_microops: 21, ",
    "serial_probes: 0, predictor_reads: 0, predictor_misses: 0 } ",
    "L2 None",
);
const NESTED_MIX: &str = concat!(
    "PerfReport { design: \"mix\", accesses: 20000, base_cycles: 355555.55555555556, stall_cycles: 44182.0, total_cycles: 399737.55555555556, ",
    "translation_overhead: 0.11052751833286173, l1_hit_rate: 0.7506, ",
    "l2_hit_rate: 0.9410585404971933, walks_per_kilo: 14.7, ",
    "dynamic_energy: EnergyBreakdown { lookup_pj: 105937.6, walk_pj: 56740.0, fill_pj: 42727.049999999996, other_pj: 26709.0 }, leakage_pj: 243040.4337777778, total_energy_pj: 475154.0837777778 }",
);
const NESTED_SPLIT: &str = concat!(
    "PerfReport { design: \"split\", accesses: 20000, base_cycles: 355555.55555555556, stall_cycles: 147566.0, total_cycles: 503121.55555555556, ",
    "translation_overhead: 0.293300889955023, l1_hit_rate: 0.50035, ",
    "l2_hit_rate: 0.9935955168618033, walks_per_kilo: 3.2, ",
    "dynamic_energy: EnergyBreakdown { lookup_pj: 251941.2, walk_pj: 54448.0, fill_pj: 4525.650000000001, other_pj: 132.0 }, leakage_pj: 324010.2817777778, total_energy_pj: 635057.1317777778 }",
);
