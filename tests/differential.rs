//! The load-bearing correctness invariant: **every TLB design, on a hit,
//! returns exactly the physical address the page table defines** — under
//! randomized address spaces (mixed page sizes), random access streams,
//! random fill orders, and interleaved invalidations.

#![expect(
    clippy::expect_used,
    reason = "helpers outside `#[test]` fns report a broken fixture by panicking, which fails the calling test"
)]

use mixtlb::baselines::{
    superpage_indexed_mix, PredictiveHashRehash, PredictiveSkew, SkewTlb, SkewTlbConfig,
};
use mixtlb::core::{
    CoalesceKind, Lookup, MixTlb, MixTlbConfig, MultiProbeConfig, MultiProbeTlb,
    OracleUnifiedTlb, SplitTlb, TlbDevice,
};
use mixtlb::pagetable::{BumpFrameSource, PageTable, Walker};
use mixtlb::types::{AccessKind, PageSize, Permissions, Translation, VirtAddr, Vpn};
use proptest::prelude::*;

/// Every design under test, freshly constructed.
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
        Box::new(SplitTlb::haswell_l1()),
        Box::new(SplitTlb::haswell_l2()),
        Box::new(MultiProbeTlb::new(MultiProbeConfig::all_sizes(8, 4))),
        Box::new(SkewTlb::new(SkewTlbConfig::new(2, 8))),
        Box::new(PredictiveHashRehash::new(8, 4, 64)),
        Box::new(PredictiveSkew::new(2, 8, 64)),
        Box::new(OracleUnifiedTlb::new(8, 4)),
        // The standalone per-size COLT array (`CoalescedSizeTlb`) only
        // caches one size (it is a `SplitTlb` *part*), so it cannot satisfy
        // the universal fill-then-hit contract; it is exercised through
        // the COLT and COLT++ split L1s.
        Box::new(SplitTlb::colt_l1()),
        Box::new(SplitTlb::colt_plus_plus_l1()),
    ]
}

/// A randomized, overlap-free address space: each slot of a coarse 1 GB
/// grid independently becomes a 1 GB page, a run of 2 MB pages, a strip of
/// 4 KB pages, or stays unmapped. Physical placement is randomized with
/// occasional contiguity (so coalescing paths trigger) and occasional
/// discontiguity (so anchor checks trigger).
#[derive(Debug, Clone)]
struct Space {
    mappings: Vec<Translation>,
}

fn space_strategy() -> impl Strategy<Value = Space> {
    let slot = prop_oneof![
        2 => Just(0u8), // unmapped
        2 => Just(1),   // 1 GB page
        4 => Just(2),   // 2 MB pages
        4 => Just(3),   // 4 KB pages
    ];
    (
        proptest::collection::vec(slot, 4),
        any::<u64>(), // phys seed
        0.0f64..1.0,  // contiguity bias
    )
        .prop_map(|(slots, phys_seed, contig)| {
            let rw = Permissions::rw_user();
            let ro = Permissions::ro_user();
            let mut mappings = Vec::new();
            let mut next_pfn: u64 = 0x10_0000;
            let mut stride = phys_seed | 1;
            for (i, kind) in slots.iter().enumerate() {
                let base = Vpn::new((i as u64) << 18); // 1 GB-aligned slots
                match kind {
                    1 => {
                        let pfn = (next_pfn + (stride & 0xFFFF)) & !((1 << 18) - 1);
                        let pfn = pfn + (1 << 18);
                        mappings.push(Translation::new(
                            base,
                            mixtlb::types::Pfn::new(pfn),
                            PageSize::Size1G,
                            rw,
                        ));
                        next_pfn = pfn + (1 << 18);
                    }
                    2 => {
                        // Up to 12 2 MB pages, sometimes contiguous.
                        let count = 2 + (stride % 11);
                        let mut pfn = (next_pfn + (stride & 0xFFF) * 512) & !511;
                        for j in 0..count {
                            let perms = if j == count / 2 && stride & 4 != 0 { ro } else { rw };
                            mappings.push(Translation {
                                vpn: base.add_4k(j * 512),
                                pfn: mixtlb::types::Pfn::new(pfn),
                                size: PageSize::Size2M,
                                perms,
                                accessed: true,
                                dirty: stride & 2 != 0,
                            });
                            // Mostly contiguous, with occasional jumps.
                            if (j as f64) / (count as f64) < contig {
                                pfn += 512;
                            } else {
                                pfn += 1024 + (stride & 0x3F) * 512;
                            }
                        }
                        next_pfn = pfn + 512;
                    }
                    3 => {
                        let count = 3 + (stride % 14);
                        let mut pfn = next_pfn + (stride & 0xFF);
                        for j in 0..count {
                            mappings.push(Translation::new(
                                base.add_4k(j),
                                mixtlb::types::Pfn::new(pfn),
                                PageSize::Size4K,
                                rw,
                            ));
                            pfn += if stride & 8 != 0 { 1 } else { 3 + (stride & 7) };
                        }
                        next_pfn = pfn + 1;
                    }
                    _ => {}
                }
                stride = stride.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            }
            Space { mappings }
        })
}

fn build_page_table(space: &Space) -> PageTable {
    let mut frames = BumpFrameSource::new(0x4000_0000);
    let mut pt = PageTable::new(&mut frames);
    for t in &space.mappings {
        pt.map(*t, &mut frames).expect("grid slots never overlap");
    }
    pt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hits agree with the page table, misses get filled and then agree,
    /// across every design.
    #[test]
    fn every_design_translates_exactly_like_the_page_table(
        space in space_strategy(),
        accesses in proptest::collection::vec((0usize..64, 0u64..2048, any::<bool>()), 1..150),
    ) {
        prop_assume!(!space.mappings.is_empty());
        let mut pt = build_page_table(&space);
        for mut device in all_devices() {
            for &(which, offset4k, store) in &accesses {
                let mapping = &space.mappings[which % space.mappings.len()];
                let vpn = mapping.vpn.add_4k(offset4k % mapping.size.pages_4k());
                let va = VirtAddr::from_page(vpn, offset4k % 4096);
                let kind = if store { AccessKind::Store } else { AccessKind::Load };
                let expected = mapping.translate(va).expect("inside the mapping");
                match device.lookup(vpn, kind) {
                    Lookup::Hit { translation, .. } => {
                        let got = translation.translate(va);
                        prop_assert_eq!(
                            got, Ok(expected),
                            "{}: wrong hit for {}", device.name(), va
                        );
                    }
                    Lookup::Miss => {
                        let walk = Walker::walk(&mut pt, va, kind);
                        let t = walk.translation.expect("mapped page cannot fault");
                        prop_assert_eq!(t.translate(va), Ok(expected));
                        device.fill(vpn, &t, &walk.line_translations);
                        // A refill immediately after the fill must hit with
                        // the right PA (the fill wrote the probed set).
                        match device.lookup(vpn, AccessKind::Load) {
                            Lookup::Hit { translation, .. } => {
                                prop_assert_eq!(
                                    translation.translate(va), Ok(expected),
                                    "{}: wrong post-fill hit for {}", device.name(), va
                                );
                            }
                            Lookup::Miss => {
                                prop_assert!(
                                    false,
                                    "{}: miss immediately after fill of {}",
                                    device.name(), va
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// After an invalidation, the invalidated page misses in every design
    /// (until refilled), while the page table is unchanged.
    #[test]
    fn invalidation_makes_pages_miss(
        space in space_strategy(),
        victims in proptest::collection::vec(0usize..64, 1..20),
    ) {
        prop_assume!(!space.mappings.is_empty());
        let mut pt = build_page_table(&space);
        for mut device in all_devices() {
            // Fill everything.
            for t in &space.mappings {
                let va = VirtAddr::from_page(t.vpn, 0);
                let walk = Walker::walk(&mut pt, va, AccessKind::Load);
                device.fill(t.vpn, &walk.translation.expect("mapped"), &walk.line_translations);
            }
            for &v in &victims {
                let t = &space.mappings[v % space.mappings.len()];
                device.invalidate(t.vpn, t.size);
                prop_assert!(
                    !device.lookup(t.vpn, AccessKind::Load).is_hit(),
                    "{}: hit after invalidating {}",
                    device.name(), t.vpn
                );
            }
        }
    }

    /// flush() empties every design.
    #[test]
    fn flush_empties_everything(space in space_strategy()) {
        prop_assume!(!space.mappings.is_empty());
        let mut pt = build_page_table(&space);
        for mut device in all_devices() {
            for t in &space.mappings {
                let va = VirtAddr::from_page(t.vpn, 0);
                let walk = Walker::walk(&mut pt, va, AccessKind::Load);
                device.fill(t.vpn, &walk.translation.expect("mapped"), &walk.line_translations);
            }
            device.flush();
            for t in &space.mappings {
                prop_assert!(
                    !device.lookup(t.vpn, AccessKind::Load).is_hit(),
                    "{}: hit after flush", device.name()
                );
            }
        }
    }
}
