//! The disciplined twin of `hot_path_collect_dirty.rs`: the fill helper
//! keeps its candidate positions and target sets in stack bitmasks, and
//! only the constructor and a `#[cold]` report allocate.

use std::collections::BTreeSet;

pub struct Tlb {
    sets: usize,
    slots: Vec<u64>,
}

impl Tlb {
    fn new(sets: usize) -> Tlb {
        let slots: Vec<u64> = (0..sets as u64).collect();
        Tlb { sets, slots }
    }

    fn lookup_batch(&mut self, vpns: &[u64]) -> usize {
        let mut hits = 0;
        for &vpn in vpns {
            hits += self.fill(vpn);
            if hits > self.sets {
                let _ = self.occupied_sets();
            }
        }
        hits
    }

    fn fill(&mut self, vpn: u64) -> usize {
        let positions: u128 = 1u128 << (vpn % 8);
        let mut targets = 0u64;
        for set in 0..self.sets.min(64) {
            targets |= 1u64 << set;
        }
        self.slots[0] = vpn;
        (positions.count_ones() + targets.count_ones()) as usize
    }

    #[cold]
    fn occupied_sets(&self) -> Vec<usize> {
        let unique: BTreeSet<u64> = self.slots.iter().copied().collect();
        unique.iter().map(|&s| s as usize).collect()
    }
}
