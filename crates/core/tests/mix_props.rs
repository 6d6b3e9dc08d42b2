//! MIX-TLB-specific property tests: coalesced entries never invent
//! translations, statistics stay consistent, and mirroring respects the
//! array geometry.

use mixtlb_core::{
    CoalesceKind, CoalescedRun, FillMerge, Lookup, MirrorPolicy, MixTlb, MixTlbConfig, TlbDevice,
};
use mixtlb_types::{AccessKind, Asid, PageSize, Permissions, Pfn, Translation, Vpn};
use proptest::prelude::*;
use std::collections::HashMap;

fn config_strategy() -> impl Strategy<Value = MixTlbConfig> {
    (
        prop_oneof![Just(2usize), Just(4), Just(8), Just(16)],
        1usize..5,
        prop_oneof![Just(CoalesceKind::Bitmap), Just(CoalesceKind::Length)],
        prop_oneof![Just(FillMerge::ProbedSetOnly), Just(FillMerge::AllSets)],
        prop_oneof![Just(MirrorPolicy::Evicting), Just(MirrorPolicy::NonEvicting)],
        prop_oneof![Just(1u32), Just(4)],
    )
        .prop_map(|(sets, ways, kind, fill_merge, mirror_policy, small_bundle)| {
            MixTlbConfig {
                kind,
                fill_merge,
                mirror_policy,
                small_bundle,
                ..MixTlbConfig::l1(sets, ways)
            }
        })
}

/// A consistent world: superpages on a grid, occasionally contiguous.
fn world(seed: u64) -> Vec<Translation> {
    let rw = Permissions::rw_user();
    let mut out = Vec::new();
    let mut x = seed | 1;
    let mut pfn = 1u64 << 21;
    for i in 0..24u64 {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        match x % 3 {
            0 => out.push(Translation::new(
                Vpn::new(i << 12),
                Pfn::new(pfn + (x % 512)),
                PageSize::Size4K,
                rw,
            )),
            1 => out.push(Translation::new(
                Vpn::new((i << 12) & !511),
                Pfn::new((pfn + (x % 4096)) & !511),
                PageSize::Size2M,
                rw,
            )),
            _ => {}
        }
        pfn += 8192;
    }
    // Deduplicate overlapping grid picks: keep first mapping per base page.
    let mut seen: HashMap<u64, Translation> = HashMap::new();
    out.retain(|t| {
        let key = t.vpn.align_down(PageSize::Size2M).raw();
        if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(key) {
            e.insert(*t);
            true
        } else {
            false
        }
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No MIX configuration ever returns a translation that disagrees with
    /// what was filled — coalescing must never *invent* mappings.
    #[test]
    fn hits_never_invent_translations(
        config in config_strategy(),
        seed in any::<u64>(),
        ops in proptest::collection::vec((0usize..32, 0u64..512, any::<bool>()), 1..120),
    ) {
        let truth = world(seed);
        prop_assume!(!truth.is_empty());
        let mut tlb = MixTlb::new(config.clone());
        for &(which, off, fill_line) in &ops {
            let t = truth[which % truth.len()];
            let vpn = t.vpn.add_4k(off % t.size.pages_4k());
            match tlb.lookup(vpn, AccessKind::Load) {
                Lookup::Hit { translation, run, .. } => {
                    // The hit must reproduce the true frame for this page.
                    prop_assert_eq!(
                        translation.frame_for(vpn),
                        t.frame_for(vpn),
                        "invented translation for {}", vpn
                    );
                    // And any advertised run must consist of true mappings.
                    if let Some(run) = run {
                        for rt in run.translations() {
                            let origin = truth.iter().find(|x| x.covers(rt.vpn));
                            prop_assert!(
                                origin.is_some_and(|o| o.frame_for(rt.vpn) == Some(rt.pfn)),
                                "run advertises unmapped page {}", rt.vpn
                            );
                        }
                    }
                }
                Lookup::Miss => {
                    // Fill, optionally with a multi-translation line drawn
                    // from the truth (as a walker cache line would be).
                    if fill_line {
                        let line: Vec<Translation> = truth
                            .iter()
                            .copied()
                            .filter(|x| x.size == t.size)
                            .take(8)
                            .collect();
                        tlb.fill(vpn, &t, &line);
                    } else {
                        tlb.fill(vpn, &t, &[t]);
                    }
                }
            }
            // Geometry invariant: occupancy never exceeds the array.
            prop_assert!(tlb.occupancy() <= config.sets * config.ways);
            // Statistics invariants.
            let s = tlb.stats();
            prop_assert_eq!(s.hits + s.misses, s.lookups);
            prop_assert!(s.entries_written >= s.fills || s.fills == 0 || config.mirror_policy == MirrorPolicy::NonEvicting);
            prop_assert_eq!(s.sets_probed, s.lookups);
            prop_assert_eq!(s.entries_read, s.lookups * config.ways as u64);
        }
    }

    /// Filling the same translation repeatedly is idempotent for hits:
    /// once it hits, it keeps hitting with the same PA (absent eviction
    /// pressure from other fills).
    #[test]
    fn refills_are_stable(config in config_strategy(), seed in any::<u64>()) {
        let truth = world(seed);
        prop_assume!(!truth.is_empty());
        let mut tlb = MixTlb::new(config);
        let t = truth[0];
        for _ in 0..4 {
            tlb.fill(t.vpn, &t, &[t]);
            match tlb.lookup(t.vpn, AccessKind::Load) {
                Lookup::Hit { translation, .. } => {
                    prop_assert_eq!(translation.frame_for(t.vpn), Some(t.pfn));
                }
                Lookup::Miss => prop_assert!(false, "fill must establish the entry"),
            }
        }
    }

    /// Absorbing a handed-down run (`fill_run_asid`) installs exactly what
    /// a fill with the run's expanded translations would: same counters,
    /// same hits, same runs, interleaved with the same probes. Runs start
    /// anywhere around the bundle, reach past it, and may disagree with
    /// the requested translation's physical offset, permissions or bits.
    #[test]
    fn run_fills_equal_expanded_line_fills(
        config in config_strategy(),
        ops in proptest::collection::vec(
            (0u64..96, 1u32..70, 0u64..96, any::<bool>(), any::<u8>(), 0u64..96),
            1..40,
        ),
    ) {
        let rw = Permissions::rw_user();
        let mut by_run = MixTlb::new(config.clone());
        let mut by_line = MixTlb::new(config);
        let page = |i: u64| Vpn::new(0x10_0000 + i * 512);
        let frame = |i: u64| Pfn::new(0x40_0000 + i * 512);
        for &(first, len, req, dirty, bits, probe) in &ops {
            let mut first_t = Translation::new(page(first), frame(first), PageSize::Size2M, rw);
            first_t.dirty = dirty;
            let run = CoalescedRun { first: first_t, len };
            let mut requested = Translation::new(page(req), frame(req), PageSize::Size2M, rw);
            if bits & 1 != 0 {
                requested.pfn = frame(req + 1); // physically off the run
            }
            if bits & 2 != 0 {
                requested.perms = Permissions::ro_user();
            }
            requested.dirty = bits & 4 != 0;
            requested.accessed = bits & 8 == 0 || bits & 16 != 0;
            by_run.fill_run_asid(Asid::UNTAGGED, requested.vpn, &requested, &run);
            by_line.fill(requested.vpn, &requested, &run.translations());
            let vpn = page(probe).add_4k(probe % 512);
            prop_assert_eq!(by_run.peek_run(vpn), by_line.peek_run(vpn));
            let kind = if bits & 32 != 0 { AccessKind::Store } else { AccessKind::Load };
            prop_assert_eq!(by_run.lookup(vpn, kind), by_line.lookup(vpn, kind));
            prop_assert_eq!(by_run.stats(), by_line.stats());
        }
        prop_assert_eq!(by_run.occupancy(), by_line.occupancy());
        // Off-run requests remap pages without a shootdown, so the arrays
        // may legitimately break mirror coherence — but identically.
        prop_assert_eq!(by_run.check_invariants(), by_line.check_invariants());
    }
}
