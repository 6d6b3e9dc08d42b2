//! Seeded random walks over [`PhysicalMemory`] that check its derived
//! bookkeeping after every step against a brute-force recount:
//!
//! * the block-head orders ([`PhysicalMemory::block_order`]) and frame
//!   kinds against the test's own map of live blocks;
//! * the compaction-candidate index
//!   ([`PhysicalMemory::next_compaction_candidate`]) against per-window
//!   counts recomputed from the frame kinds.
//!
//! The steps mix lowest-first, top-down and placed allocations, frees and
//! `compact_window` calls with budgets on both sides of every window's
//! movable count.

use std::collections::BTreeMap;

use mixtlb_mem::{
    CompactionOutcome, FrameKind, MemoryConfig, PhysicalMemory, DIRECT_COMPACTION_BUDGET,
};
use mixtlb_types::Pfn;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Eight full 2 MB windows plus a partial one, which is never a candidate.
const FRAMES: u64 = 8 * 512 + 300;
const STEPS: usize = 1_000;

fn random_kind(rng: &mut SmallRng) -> FrameKind {
    match rng.gen_range(0u32..10) {
        0 => FrameKind::Unmovable,
        1 => FrameKind::PageTable,
        _ => FrameKind::Movable,
    }
}

/// Small orders dominate so windows fill up unevenly.
fn random_order(rng: &mut SmallRng) -> u8 {
    match rng.gen_range(0u32..10) {
        0..=5 => rng.gen_range(0u8..=2),
        6..=8 => rng.gen_range(3u8..=7),
        _ => rng.gen_range(8u8..=10),
    }
}

/// Checks every derived structure and returns the number of candidate
/// windows.
fn check(mem: &PhysicalMemory, live: &BTreeMap<u64, (u8, FrameKind)>) -> usize {
    let mut expected_kind = vec![FrameKind::Free; FRAMES as usize];
    for (&base, &(order, kind)) in live {
        for f in base..base + (1u64 << order) {
            expected_kind[f as usize] = kind;
        }
    }
    for f in 0..FRAMES {
        let pfn = Pfn::new(f);
        assert_eq!(
            mem.kind_of(pfn),
            expected_kind[f as usize],
            "kind of frame {f}"
        );
        assert_eq!(
            mem.block_order(pfn),
            live.get(&f).map(|&(order, _)| order),
            "block order at frame {f}"
        );
    }
    let windows = FRAMES / 512;
    let mut expected = Vec::new();
    for w in 0..=windows {
        let frames = &expected_kind[(w * 512) as usize..((w + 1) * 512).min(FRAMES) as usize];
        let movable = frames.iter().filter(|k| k.is_movable()).count() as u64;
        let pinned = frames
            .iter()
            .filter(|k| matches!(k, FrameKind::Unmovable | FrameKind::PageTable))
            .count();
        let candidate =
            w < windows && pinned == 0 && (1..=DIRECT_COMPACTION_BUDGET).contains(&movable);
        assert_eq!(
            mem.next_compaction_candidate(w, w + 1),
            candidate.then_some(w),
            "candidate bit of window {w} (movable {movable}, pinned {pinned})"
        );
        expected.push(candidate);
    }
    // Range queries: every [from, to) agrees with the first set flag.
    for from in 0..=windows + 1 {
        for to in from..=windows + 2 {
            let first = (from..to.min(windows + 1)).find(|&w| expected[w as usize]);
            assert_eq!(
                mem.next_compaction_candidate(from, to),
                first,
                "range {from}..{to}"
            );
        }
    }
    expected.iter().filter(|&&c| c).count()
}

/// Runs one walk; returns `(candidate windows summed over steps,
/// successful compactions)` so the caller can see the walk was not
/// vacuous.
fn random_walk(seed: u64) -> (usize, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mem = PhysicalMemory::new(MemoryConfig::with_bytes(FRAMES * 4096));
    let mut live: BTreeMap<u64, (u8, FrameKind)> = BTreeMap::new();
    let (mut candidates, mut compactions) = (0, 0);
    for _ in 0..STEPS {
        match rng.gen_range(0u32..100) {
            0..=24 => {
                let (order, kind) = (random_order(&mut rng), random_kind(&mut rng));
                if let Ok(pfn) = mem.alloc_block(order, kind) {
                    live.insert(pfn.raw(), (order, kind));
                }
            }
            25..=31 => {
                let (order, kind) = (random_order(&mut rng), random_kind(&mut rng));
                if let Ok(pfn) = mem.alloc_block_top(order, kind) {
                    live.insert(pfn.raw(), (order, kind));
                }
            }
            32..=47 => {
                let (order, kind) = (random_order(&mut rng), random_kind(&mut rng));
                let base = rng.gen_range(0..FRAMES) & !((1u64 << order) - 1);
                if mem.alloc_block_at(Pfn::new(base), order, kind).is_ok() {
                    live.insert(base, (order, kind));
                }
            }
            48..=84 => {
                if !live.is_empty() {
                    let i = rng.gen_range(0..live.len());
                    let (&base, &(order, _)) = live
                        .iter()
                        .nth(i)
                        .unwrap_or_else(|| unreachable!("index in range"));
                    mem.free_block(Pfn::new(base), order);
                    live.remove(&base);
                }
            }
            _ => {
                let order = [8u8, 9, 9, 9, 10][rng.gen_range(0usize..5)];
                let base = rng.gen_range(0..FRAMES) & !((1u64 << order) - 1);
                let budget = match rng.gen_range(0u32..4) {
                    0 => u64::MAX,
                    1 => DIRECT_COMPACTION_BUDGET,
                    _ => rng.gen_range(0u64..600),
                };
                let kind = random_kind(&mut rng);
                if let CompactionOutcome::Freed { relocations } =
                    mem.compact_window(Pfn::new(base), order, kind, budget)
                {
                    let olds: Vec<u64> = relocations.iter().map(|r| r.0.raw()).collect();
                    assert!(olds.windows(2).all(|p| p[0] < p[1]), "relocations ascend");
                    for (old, new, o) in relocations {
                        let (recorded, k) = live
                            .remove(&old.raw())
                            .unwrap_or_else(|| unreachable!("relocated a live block"));
                        assert_eq!(recorded, o);
                        live.insert(new.raw(), (o, k));
                    }
                    live.insert(base, (order, kind));
                    compactions += 1;
                }
            }
        }
        candidates += check(&mem, &live);
    }
    let stats = mem.stats();
    let allocated: u64 = live.values().map(|&(o, _)| 1u64 << o).sum();
    assert_eq!(stats.free_frames, FRAMES - allocated);
    (candidates, compactions)
}

#[test]
fn candidate_index_and_block_orders_match_a_recount() {
    for seed in [1, 7, 42, 1234] {
        let (candidates, compactions) = random_walk(seed);
        assert!(
            candidates > STEPS / 4,
            "seed {seed}: only {candidates} candidate windows seen"
        );
        assert!(
            compactions > 10,
            "seed {seed}: only {compactions} compactions"
        );
    }
}
