//! Exact-outcome pins for fragmented machine set-up.
//!
//! A THS and a mixed-pool (1 GB pool plus THS) address space are
//! pre-faulted on a machine that `memhog` has fragmented to 60%. That is
//! the regime where most 2 MB faults miss their hint window and fall back
//! to the compaction scanner, and where most 4 KB faults take the hinted
//! path. For each, the test pins the [`FaultStats`] and a digest of every
//! page-table leaf, so a change to the buddy allocator, the compaction
//! scanner or the frame bookkeeping that moves one allocation decision
//! fails here.

use mixtlb_os::FaultStats;
use mixtlb_sim::{NativeScenario, PolicyChoice, ScenarioConfig};
use mixtlb_trace::WorkloadSpec;

/// Prepares gups under `policy` on a `gb` GB machine at 60% memhog and
/// returns its fault counters, leaf count and FNV-1a leaf digest.
fn prepare(policy: PolicyChoice, gb: u64) -> (FaultStats, u64, u64) {
    let spec = WorkloadSpec::by_name("gups").unwrap_or_else(|| unreachable!("gups is built in"));
    let cfg = ScenarioConfig {
        mem_bytes: gb << 30,
        footprint_cap: None,
        ..ScenarioConfig::quick()
    }
    .with_policy(policy)
    .with_memhog(0.6)
    .with_seed(42);
    let scenario = NativeScenario::prepare(&spec, &cfg);
    let mut leaves = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    scenario.clone_page_table().for_each_leaf(|t| {
        leaves += 1;
        for word in [t.vpn.raw(), t.pfn.raw(), t.size.pages_4k()] {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    });
    (scenario.fault_stats(), leaves, digest)
}

#[test]
fn fragmented_ths_setup_is_pinned() {
    let (stats, leaves, digest) = prepare(PolicyChoice::Ths, 2);
    assert_eq!(
        stats,
        FaultStats {
            faults: 93_953,
            mapped_4k: 93_788,
            mapped_2m: 165,
            mapped_1g: 0,
            compactions: 60,
            ths_fallbacks: 183,
            pool_hits: 0,
        }
    );
    assert_eq!((leaves, digest), (93_953, 0x893e_daad_f712_853e));
}

#[test]
fn fragmented_mixed_setup_is_pinned() {
    let (stats, leaves, digest) = prepare(PolicyChoice::Mixed, 6);
    assert_eq!(
        stats,
        FaultStats {
            faults: 178_128,
            mapped_4k: 177_942,
            mapped_2m: 185,
            mapped_1g: 1,
            compactions: 23,
            ths_fallbacks: 347,
            pool_hits: 1,
        }
    );
    assert_eq!((leaves, digest), (178_128, 0x1e82_1cde_1268_c871));
}
