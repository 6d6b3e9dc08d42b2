//! Named, always-run promotions of the shrunken counterexamples recorded
//! in `differential.proptest-regressions`.
//!
//! Proptest replays that seed file only when the property tests run with
//! the same harness; promoting each case to a deterministic unit test
//! makes the regression permanent, self-describing, and independent of
//! the proptest dependency. Keep this file in sync: every `cc` line in
//! the seed file gets a named test documenting what it caught.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "helpers outside `#[test]` fns report a broken fixture by panicking, which fails the calling test"
)]

use mixtlb::baselines::{
    colt_plus_plus_split, colt_split, superpage_indexed_mix, PredictiveHashRehash,
    PredictiveSkew, SkewTlb, SkewTlbConfig,
};
use mixtlb::core::{
    CoalesceKind, Lookup, MixTlb, MixTlbConfig, MultiProbeConfig, MultiProbeTlb,
    OracleUnifiedTlb, SplitTlb, SplitTlbConfig, TlbDevice,
};
use mixtlb::pagetable::{BumpFrameSource, PageTable, Walker};
use mixtlb::types::{AccessKind, PageSize, Permissions, Pfn, Translation, VirtAddr, Vpn};

/// The same device zoo the differential property suite uses.
fn all_devices() -> Vec<Box<dyn TlbDevice>> {
    vec![
        Box::new(MixTlb::new(MixTlbConfig::l1(4, 2))),
        Box::new(MixTlb::new(MixTlbConfig::l1(16, 4))),
        Box::new(MixTlb::new(MixTlbConfig::l2(16, 4))),
        Box::new(MixTlb::new(MixTlbConfig {
            kind: CoalesceKind::Bitmap,
            ..MixTlbConfig::l2(8, 8)
        })),
        Box::new(MixTlb::new(MixTlbConfig::l1(8, 4).with_small_coalescing(4))),
        Box::new(superpage_indexed_mix(8, 4)),
        Box::new(SplitTlb::new(SplitTlbConfig::haswell_l1())),
        Box::new(MultiProbeTlb::new(MultiProbeConfig::all_sizes(8, 4))),
        Box::new(SkewTlb::new(SkewTlbConfig::new(2, 8))),
        Box::new(PredictiveHashRehash::new(8, 4, 64)),
        Box::new(PredictiveSkew::new(2, 8, 64)),
        Box::new(OracleUnifiedTlb::new(8, 4)),
        Box::new(colt_split()),
        Box::new(colt_plus_plus_split()),
    ]
}

/// Replays one recorded access sequence against the page-table oracle on
/// every design, with the exact assertions of the differential property.
fn replay(mappings: &[Translation], accesses: &[(usize, u64, bool)]) {
    let mut frames = BumpFrameSource::new(0x4000_0000);
    let mut pt = PageTable::new(&mut frames);
    for t in mappings {
        pt.map(*t, &mut frames).expect("regression mappings never overlap");
    }
    for mut device in all_devices() {
        for &(which, offset4k, store) in accesses {
            let mapping = &mappings[which % mappings.len()];
            let vpn = mapping.vpn.add_4k(offset4k % mapping.size.pages_4k());
            let va = VirtAddr::from_page(vpn, offset4k % 4096);
            let kind = if store { AccessKind::Store } else { AccessKind::Load };
            let expected = mapping.translate(va).expect("inside the mapping");
            match device.lookup(vpn, kind) {
                Lookup::Hit { translation, .. } => {
                    assert_eq!(
                        translation.translate(va),
                        Ok(expected),
                        "{}: wrong hit for {}",
                        device.name(),
                        va
                    );
                }
                Lookup::Miss => {
                    let walk = Walker::walk(&mut pt, va, kind);
                    let t = walk.translation.expect("mapped page cannot fault");
                    device.fill(vpn, &t, &walk.line_translations);
                    match device.lookup(vpn, AccessKind::Load) {
                        Lookup::Hit { translation, .. } => assert_eq!(
                            translation.translate(va),
                            Ok(expected),
                            "{}: wrong post-fill hit for {}",
                            device.name(),
                            va
                        ),
                        Lookup::Miss => panic!(
                            "{}: miss immediately after fill of {}",
                            device.name(),
                            va
                        ),
                    }
                }
            }
        }
    }
}

/// Seed `02fc5474…`: a single 1 GB mapping hammered with stores at varied
/// 4 KB offsets. The shrunken failure caught a dirty-bit update path that
/// rewrote a superpage entry's physical anchor on a store *hit*: the
/// post-fill lookup then translated offsets in other 4 KB regions with
/// the stale anchor. A pure-load sequence never exposed it (the dirty
/// micro-op is store-only), and a 4 KB mapping never exposed it either
/// (one region, one offset). Promoted 2026-08-06.
#[test]
fn store_hits_on_a_1g_mapping_keep_the_physical_anchor() {
    let mappings = [Translation {
        vpn: Vpn::new(262_144),
        pfn: Pfn::new(1_310_720),
        size: PageSize::Size1G,
        perms: Permissions::rw_user(),
        accessed: true,
        dirty: false,
    }];
    let accesses: [(usize, u64, bool); 18] = [
        (16, 1960, true),
        (27, 1805, true),
        (37, 722, true),
        (59, 1128, true),
        (33, 643, false),
        (52, 909, true),
        (40, 19, false),
        (12, 751, true),
        (7, 1913, true),
        (21, 1121, true),
        (3, 1831, true),
        (24, 1912, true),
        (13, 1831, true),
        (40, 192, true),
        (30, 265, false),
        (35, 1336, false),
        (56, 1651, true),
        (15, 1203, true),
    ];
    replay(&mappings, &accesses);
}

/// The same 1 GB space, reduced to its essence: one store miss + fill,
/// then a store *hit* at a different 4 KB offset, then a load at a third
/// offset. This is the minimal sequence the shrunken seed exercises and
/// is cheap enough to run first for fast bisection.
#[test]
fn minimal_store_hit_then_load_on_a_1g_mapping() {
    let mappings = [Translation {
        vpn: Vpn::new(262_144),
        pfn: Pfn::new(1_310_720),
        size: PageSize::Size1G,
        perms: Permissions::rw_user(),
        accessed: true,
        dirty: false,
    }];
    replay(&mappings, &[(0, 1960, true), (0, 722, true), (0, 643, false)]);
}
