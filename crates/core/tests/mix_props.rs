//! MIX-TLB-specific property tests: coalesced entries never invent
//! translations, statistics stay consistent, and mirroring respects the
//! array geometry.

use mixtlb_core::{
    CoalesceKind, CoalescedRun, FillMerge, Lookup, MirrorPolicy, MixTlb, MixTlbConfig, TlbDevice,
};
use mixtlb_types::{AccessKind, Asid, PageSize, Permissions, Pfn, Translation, Vpn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn gen_config(rng: &mut SmallRng) -> MixTlbConfig {
    let (sets, ways) = ([2, 4, 8, 16][rng.gen_range(0..4usize)], rng.gen_range(1..5));
    MixTlbConfig {
        kind: [CoalesceKind::Bitmap, CoalesceKind::Length][rng.gen_range(0..2usize)],
        fill_merge: [FillMerge::ProbedSetOnly, FillMerge::AllSets][rng.gen_range(0..2usize)],
        mirror_policy: [MirrorPolicy::Evicting, MirrorPolicy::NonEvicting][rng.gen_range(0..2usize)],
        small_bundle: [1, 4][rng.gen_range(0..2usize)],
        ..MixTlbConfig::l1(sets, ways)
    }
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

/// No MIX configuration ever returns a translation that disagrees with
/// what was filled — coalescing must never *invent* mappings.
#[test]
fn hits_never_invent_translations() {
    for case in 0..96 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (config, truth) = (gen_config(&mut rng), world(rng.gen()));
        assert!(!truth.is_empty(), "case {case}: the world maps no page");
        let mut tlb = MixTlb::new(config.clone());
        for _ in 0..rng.gen_range(1..120) {
            let t = truth[rng.gen_range(0..32usize) % truth.len()];
            let vpn = t.vpn.add_4k(rng.gen_range(0..512u64) % t.size.pages_4k());
            match tlb.lookup(vpn, AccessKind::Load) {
                Lookup::Hit { translation, run, .. } => {
                    // The hit must reproduce the true frame for this page.
                    assert_eq!(
                        translation.frame_for(vpn),
                        t.frame_for(vpn),
                        "case {case}: invented translation for {}", vpn
                    );
                    // And any advertised run must consist of true mappings.
                    if let Some(run) = run {
                        for rt in run.translations() {
                            let origin = truth.iter().find(|x| x.covers(rt.vpn));
                            assert!(
                                origin.is_some_and(|o| o.frame_for(rt.vpn) == Some(rt.pfn)),
                                "case {case}: run advertises unmapped page {}", rt.vpn
                            );
                        }
                    }
                }
                Lookup::Miss => {
                    // Fill, optionally with a multi-translation line drawn
                    // from the truth (as a walker cache line would be).
                    if rng.gen() {
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
            assert!(tlb.occupancy() <= config.sets * config.ways, "case {case}");
            // Statistics invariants.
            let s = tlb.stats();
            assert_eq!(s.hits + s.misses, s.lookups, "case {case}");
            assert!(s.entries_written >= s.fills || s.fills == 0 || config.mirror_policy == MirrorPolicy::NonEvicting, "case {case}");
            assert_eq!(s.sets_probed, s.lookups, "case {case}");
            assert_eq!(s.entries_read, s.lookups * config.ways as u64, "case {case}");
        }
    }
}

/// Filling the same translation repeatedly is idempotent for hits:
/// once it hits, it keeps hitting with the same PA (absent eviction
/// pressure from other fills).
#[test]
fn refills_are_stable() {
    for case in 0..96 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (config, truth) = (gen_config(&mut rng), world(rng.gen()));
        assert!(!truth.is_empty(), "case {case}: the world maps no page");
        let mut tlb = MixTlb::new(config);
        let t = truth[0];
        for _ in 0..4 {
            tlb.fill(t.vpn, &t, &[t]);
            match tlb.lookup(t.vpn, AccessKind::Load) {
                Lookup::Hit { translation, .. } => {
                    assert_eq!(translation.frame_for(t.vpn), Some(t.pfn), "case {case}");
                }
                Lookup::Miss => panic!("case {case}: fill must establish the entry"),
            }
        }
    }
}

/// Absorbing a handed-down run (`fill_run_asid`) installs exactly what
/// a fill with the run's expanded translations would: same counters,
/// same hits, same runs, interleaved with the same probes. Runs start
/// anywhere around the bundle, reach past it, and may disagree with
/// the requested translation's physical offset, permissions or bits.
#[test]
fn run_fills_equal_expanded_line_fills() {
    for case in 0..96 {
        let mut rng = SmallRng::seed_from_u64(case);
        let config = gen_config(&mut rng);
        let rw = Permissions::rw_user();
        let mut by_run = MixTlb::new(config.clone());
        let mut by_line = MixTlb::new(config);
        let page = |i: u64| Vpn::new(0x10_0000 + i * 512);
        let frame = |i: u64| Pfn::new(0x40_0000 + i * 512);
        for _ in 0..rng.gen_range(1..40) {
            let (first, len, req) = (rng.gen_range(0..96), rng.gen_range(1..70), rng.gen_range(0..96));
            let (bits, probe): (u8, u64) = (rng.gen(), rng.gen_range(0..96));
            let mut first_t = Translation::new(page(first), frame(first), PageSize::Size2M, rw);
            first_t.dirty = rng.gen();
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
            assert_eq!(by_run.peek_run(vpn), by_line.peek_run(vpn), "case {case}");
            let kind = if bits & 32 != 0 { AccessKind::Store } else { AccessKind::Load };
            assert_eq!(by_run.lookup(vpn, kind), by_line.lookup(vpn, kind), "case {case}");
            assert_eq!(by_run.stats(), by_line.stats(), "case {case}");
        }
        assert_eq!(by_run.occupancy(), by_line.occupancy(), "case {case}");
        // Off-run requests remap pages without a shootdown, so the arrays
        // may legitimately break mirror coherence — but identically.
        assert_eq!(by_run.check_invariants(), by_line.check_invariants(), "case {case}");
    }
}
