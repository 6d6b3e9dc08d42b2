//! Property tests for the buddy allocator: no overlap, alignment,
//! conservation of frames, and merge correctness.

use std::collections::HashMap;

use mixtlb_mem::{AllocError, BuddyAllocator, MAX_ORDER};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug)]
enum Op {
    Alloc(u8),
    /// Free the i-th live allocation (modulo the live count).
    Free(usize),
    AllocAt(u64, u8),
}

fn gen_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0..3) {
        0 => Op::Alloc(rng.gen_range(0..=10)),
        1 => Op::Free(rng.gen_range(0..64)),
        _ => Op::AllocAt(rng.gen_range(0..4096), rng.gen_range(0..=9)),
    }
}

#[test]
fn allocations_never_overlap_and_frames_are_conserved() {
    for case in 0..128 {
        let mut rng = SmallRng::seed_from_u64(case);
        let total = rng.gen_range(1024..4096u64);
        let mut buddy = BuddyAllocator::new(total);
        let mut live: Vec<(u64, u8)> = Vec::new();
        for _ in 0..rng.gen_range(1..200) {
            match gen_op(&mut rng) {
                Op::Alloc(order) => {
                    match buddy.alloc(order) {
                        Ok(base) => {
                            assert_eq!(base % (1u64 << order), 0, "case {case}: misaligned block");
                            assert!(base + (1u64 << order) <= total, "case {case}: out of bounds");
                            live.push((base, order));
                        }
                        Err(AllocError::OutOfMemory) => {
                            assert!(
                                buddy.largest_free_order().is_none_or(|o| o < order),
                                "case {case}: OutOfMemory although a block of order {} exists", order
                            );
                        }
                        Err(e) => panic!("case {case}: unexpected {e:?}"),
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (base, order) = live.swap_remove(i % live.len());
                        buddy.free(base, order);
                    }
                }
                Op::AllocAt(base, order) => {
                    let base = base & !((1u64 << order) - 1);
                    if buddy.alloc_at(base, order).is_ok() {
                        live.push((base, order));
                    }
                }
            }
            // Conservation: free + live allocated frames == total.
            let allocated: u64 = live.iter().map(|&(_, o)| 1u64 << o).sum();
            assert_eq!(buddy.free_frames() + allocated, total, "case {case}");
            // No two live blocks overlap.
            let mut seen: HashMap<u64, ()> = HashMap::new();
            for &(base, order) in &live {
                for f in base..base + (1u64 << order) {
                    assert!(seen.insert(f, ()).is_none(), "case {case}: frame {} double-allocated", f);
                }
            }
        }
        // Freeing everything restores a fully free, fully merged allocator.
        for (base, order) in live {
            buddy.free(base, order);
        }
        assert_eq!(buddy.free_frames(), total, "case {case}");
        let fresh = BuddyAllocator::new(total);
        for order in 0..=MAX_ORDER {
            let blocks = buddy.free_blocks_of_order(order);
            assert_eq!(blocks, fresh.free_blocks_of_order(order), "case {case}: order {order}");
        }
    }
}

#[test]
fn is_range_free_agrees_with_alloc_at() {
    for case in 0..128 {
        let mut rng = SmallRng::seed_from_u64(case);
        let total = rng.gen_range(512..2048u64);
        let mut buddy = BuddyAllocator::new(total);
        for _ in 0..rng.gen_range(0..20) {
            let o = rng.gen_range(0..6u8);
            let b = rng.gen_range(0..2048u64) & !((1u64 << o) - 1);
            let _ = buddy.alloc_at(b, o);
        }
        let (probe_base, probe_order) = (rng.gen_range(0..2048u64), rng.gen_range(0..9u8));
        let probe_base = probe_base & !((1u64 << probe_order) - 1);
        let claimed_free = buddy.is_range_free(probe_base, probe_order);
        let alloc_result = buddy.alloc_at(probe_base, probe_order);
        assert_eq!(claimed_free, alloc_result.is_ok(), "case {case}");
    }
}
