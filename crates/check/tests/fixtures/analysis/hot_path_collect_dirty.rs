//! Seeded hot-path bugs of the collection kind: a fill helper reachable
//! from the `lookup_batch` hot root builds its scratch state on the heap
//! per call. Expected findings, all in `fill`:
//!   1. `Vec::with_capacity` for the candidate positions.
//!   2. `BTreeSet::new` to deduplicate them.
//!   3. `HashMap::new`, `HashSet::new` and `BTreeMap::new` for lookups.
//!   4. `.collect()` into a vector of sets, and a turbofish
//!      `.collect::<Vec<_>>()` of the result.
//! `Tlb::new` builds the same collections, but constructors are where
//! allocation belongs, so it must NOT fire.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

pub struct Tlb {
    sets: usize,
    slots: Vec<u64>,
}

impl Tlb {
    pub fn new(sets: usize) -> Tlb {
        let slots: Vec<u64> = (0..sets as u64).collect();
        let _index: HashMap<u64, usize> = HashMap::new();
        Tlb { sets, slots }
    }

    fn lookup_batch(&mut self, vpns: &[u64]) -> usize {
        let mut hits = 0;
        for &vpn in vpns {
            hits += self.fill(vpn);
        }
        hits
    }

    fn fill(&mut self, vpn: u64) -> usize {
        let mut positions = Vec::with_capacity(8);
        positions.push(vpn % 8);
        let mut unique = BTreeSet::new();
        unique.insert(positions[0]);
        let mut seen: HashMap<u64, u64> = HashMap::new();
        seen.insert(vpn, vpn);
        let mut dup: HashSet<u64> = HashSet::new();
        dup.insert(vpn);
        let mut order: BTreeMap<u64, u64> = BTreeMap::new();
        order.insert(vpn, vpn);
        let targets: Vec<usize> = (0..self.sets).collect();
        let again = targets.iter().map(|s| s + 1).collect::<Vec<_>>();
        self.slots[0] = vpn;
        unique.len() + seen.len() + dup.len() + order.len() + again.len()
    }
}
