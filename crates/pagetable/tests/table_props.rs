//! Property tests for the page table: map/lookup/unmap agree with a naive
//! model, and walks agree with lookups while maintaining A/D bits.

use std::collections::HashMap;

use mixtlb_pagetable::{BumpFrameSource, MapError, PageTable, Walker};
use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, VirtAddr, Vpn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug)]
enum Op {
    Map { slot: u64, size: PageSize, pfn: u64 },
    Unmap { slot: u64, size: PageSize },
    Lookup { slot: u64, offset: u64 },
    Walk { slot: u64, offset: u64, store: bool },
}

fn gen_size(rng: &mut SmallRng) -> PageSize {
    match rng.gen_range(0..8) {
        0..=3 => PageSize::Size4K,
        4..=6 => PageSize::Size2M,
        _ => PageSize::Size1G,
    }
}

fn gen_op(rng: &mut SmallRng) -> Op {
    let slot = rng.gen_range(0..32);
    match rng.gen_range(0..4) {
        0 => Op::Map { slot, size: gen_size(rng), pfn: rng.gen_range(1..1 << 20) },
        1 => Op::Unmap { slot, size: gen_size(rng) },
        2 => Op::Lookup { slot, offset: rng.gen_range(0..262_144) },
        _ => Op::Walk { slot, offset: rng.gen_range(0..262_144), store: rng.gen() },
    }
}

/// Slots are 1 GB-aligned regions, so same-slot mappings of different
/// sizes conflict exactly when the model says they overlap.
fn slot_base(slot: u64) -> Vpn {
    Vpn::new(slot << 18)
}

#[test]
fn page_table_agrees_with_a_naive_model() {
    for case in 0..64 {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut frames = BumpFrameSource::new(0x1000_0000);
        let mut pt = PageTable::new(&mut frames);
        // Model: per (slot) an optional (size, translation).
        let mut model: HashMap<u64, Translation> = HashMap::new();
        for _ in 0..rng.gen_range(1..120) {
            match gen_op(&mut rng) {
                Op::Map { slot, size, pfn } => {
                    let base = slot_base(slot);
                    let pfn = Pfn::new((pfn << (size.shift() - 12)) & ((1 << 36) - 1));
                    let t = Translation::new(base, pfn, size, Permissions::rw_user());
                    let result = pt.map(t, &mut frames);
                    match model.get(&slot) {
                        None => {
                            assert!(result.is_ok(), "case {case}: map into empty slot failed: {result:?}");
                            model.insert(slot, t);
                        }
                        Some(existing) => {
                            // Any same-slot mapping overlaps (all mappings
                            // share the slot's base page).
                            let expected = if existing.size == size {
                                MapError::AlreadyMapped
                            } else if existing.size > size {
                                MapError::Shadowed
                            } else {
                                MapError::Obstructed
                            };
                            assert_eq!(result, Err(expected), "case {case}");
                        }
                    }
                }
                Op::Unmap { slot, size } => {
                    let result = pt.unmap(slot_base(slot), size);
                    match model.get(&slot) {
                        Some(existing) if existing.size == size => {
                            let removed = result.expect("model says mapped");
                            assert_eq!(removed.pfn, existing.pfn, "case {case}");
                            model.remove(&slot);
                        }
                        _ => assert_eq!(result, Err(MapError::NotMapped), "case {case}"),
                    }
                }
                Op::Lookup { slot, offset } => {
                    let vpn = slot_base(slot).add_4k(offset);
                    let got = pt.lookup(vpn);
                    let expected = model
                        .get(&slot)
                        .filter(|t| t.covers(vpn))
                        .map(|t| (t.pfn, t.size));
                    assert_eq!(got.map(|t| (t.pfn, t.size)), expected, "case {case}");
                }
                Op::Walk { slot, offset, store } => {
                    let vpn = slot_base(slot).add_4k(offset);
                    let va = VirtAddr::from_page(vpn, 0x80);
                    let kind = if store { AccessKind::Store } else { AccessKind::Load };
                    let walk = Walker::walk(&mut pt, va, kind);
                    match model.get(&slot).filter(|t| t.covers(vpn)) {
                        Some(t) => {
                            let found = walk.translation.expect("model says mapped");
                            assert_eq!(found.pfn, t.pfn, "case {case}");
                            assert!(found.accessed, "case {case}: walks set the accessed bit");
                            if store {
                                assert!(found.dirty, "case {case}: store walks set the dirty bit");
                            }
                            // Walk depth matches the leaf level.
                            let expected_reads = match t.size {
                                PageSize::Size4K => 4,
                                PageSize::Size2M => 3,
                                PageSize::Size1G => 2,
                            };
                            assert_eq!(walk.pte_reads.len(), expected_reads, "case {case}");
                        }
                        None => assert!(walk.is_fault(), "case {case}"),
                    }
                }
            }
            // Mapped counts always equal the model's.
            let (c4, c2, c1) = pt.mapped_counts();
            let m4 = model.values().filter(|t| t.size == PageSize::Size4K).count() as u64;
            let m2 = model.values().filter(|t| t.size == PageSize::Size2M).count() as u64;
            let m1 = model.values().filter(|t| t.size == PageSize::Size1G).count() as u64;
            assert_eq!((c4, c2, c1), (m4, m2, m1), "case {case}");
        }
    }
}

/// The walker's line translations are always true leaves of the table and
/// include the requested translation.
#[test]
fn line_translations_are_true_leaves() {
    for case in 0..64 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (count, stride) = (rng.gen_range(1..16u64), rng.gen_range(1..3u64));
        let probe = rng.gen_range(0..16u64);
        let mut frames = BumpFrameSource::new(0x1000_0000);
        let mut pt = PageTable::new(&mut frames);
        for i in 0..count {
            let t = Translation::new(
                Vpn::new(i * stride * 512),
                Pfn::new(0x80_0000 + i * 512),
                PageSize::Size2M,
                Permissions::rw_user(),
            );
            pt.map(t, &mut frames).expect("strided mappings never overlap");
        }
        let target = (probe % count) * stride * 512;
        let walk = Walker::walk(&mut pt, VirtAddr::new(target * 4096), AccessKind::Load);
        let requested = walk.translation.expect("mapped");
        assert!(walk.line_translations.contains(&requested), "case {case}");
        for t in &walk.line_translations {
            assert_eq!(pt.lookup(t.vpn).map(|x| x.pfn), Some(t.pfn), "case {case}");
        }
        // Ascending VA order.
        for pair in walk.line_translations.windows(2) {
            assert!(pair[0].vpn < pair[1].vpn, "case {case}");
        }
    }
}
