//! Generic set-associative storage with per-set true-LRU replacement,
//! shared by every TLB design in the workspace.
//!
//! Layout is structure-of-arrays: entries, LRU stamps, and a per-set
//! validity bitmask live in three dense direct-indexed planes. The
//! bitmask is the probe fast path — `valid_mask` hands a whole set's
//! occupancy to the caller as one `u64`, so hot loops iterate set bits
//! instead of testing `Option`s way by way, and an empty or singleton
//! set is recognized without touching the entry plane at all.

/// A set of way indices as a bitmask, yielded in ascending order.
/// Returned by [`SetStorage::find_all`]; being `Copy` and detached from
/// the storage, it stays valid across entry removal and insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WayMask(u64);

impl Iterator for WayMask {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let w = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for WayMask {}

/// Set-associative slots of entries `E` with LRU stamps and a validity
/// bitmask plane (one `u64` per set, hence at most 64 ways).
#[derive(Debug, Clone)]
pub(crate) struct SetStorage<E> {
    ways: usize,
    slots: Vec<Option<E>>,
    stamps: Vec<u64>,
    valid: Vec<u64>,
    tick: u64,
}

impl<E> SetStorage<E> {
    pub(crate) fn new(sets: usize, ways: usize) -> SetStorage<E> {
        assert!(sets > 0 && ways > 0, "TLB geometry must be non-zero");
        assert!(ways <= 64, "validity bitmask plane holds at most 64 ways");
        let slots = sets * ways;
        SetStorage {
            ways,
            slots: std::iter::repeat_with(|| None).take(slots).collect(),
            stamps: vec![0; slots],
            valid: vec![0; sets],
            tick: 0,
        }
    }

    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Bitmask with one bit set per way this set could hold.
    fn ways_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    /// Occupancy bitmask of `set`: bit `w` is set iff way `w` holds an
    /// entry. The allocation-free alternative to [`Self::find_all`] for
    /// hot probe loops.
    pub(crate) fn valid_mask(&self, set: usize) -> u64 {
        self.valid[set]
    }

    /// Immutable view of a way's slot.
    pub(crate) fn get(&self, set: usize, way: usize) -> Option<&E> {
        self.slots[set * self.ways + way].as_ref()
    }

    /// Mutable view of a way's slot.
    pub(crate) fn get_mut(&mut self, set: usize, way: usize) -> Option<&mut E> {
        self.slots[set * self.ways + way].as_mut()
    }

    /// Marks a way most-recently-used.
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.stamps[set * self.ways + way] = self.tick;
    }

    /// Index of the first way in `set` whose entry satisfies `pred`.
    pub(crate) fn find(&self, set: usize, mut pred: impl FnMut(&E) -> bool) -> Option<usize> {
        let mut mask = self.valid[set];
        while mask != 0 {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.get(set, w).is_some_and(&mut pred) {
                return Some(w);
            }
        }
        None
    }

    /// All ways in `set` whose entries satisfy `pred`, as a detached way
    /// bitmask. The mask is `Copy`, so callers may mutate the storage
    /// (remove, re-insert) while iterating — and nothing is allocated,
    /// which keeps invalidation sweeps off the heap.
    pub(crate) fn find_all(&self, set: usize, mut pred: impl FnMut(&E) -> bool) -> WayMask {
        let mut out = 0u64;
        let mut mask = self.valid[set];
        while mask != 0 {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.get(set, w).is_some_and(&mut pred) {
                out |= 1u64 << w;
            }
        }
        WayMask(out)
    }

    /// Inserts into an empty way, or evicts the LRU way, marking the new
    /// entry most-recently-used. Returns the displaced entry, if any.
    pub(crate) fn insert_lru(&mut self, set: usize, entry: E) -> Option<E> {
        self.insert_with_priority(set, entry, true)
    }

    /// Inserts into an empty way, or evicts the LRU way. With `mru =
    /// false` the new entry lands at the LRU position (LIP-style): it is
    /// the next eviction candidate until a lookup touches it. Mirrored
    /// fill copies in non-probed sets use this so a burst of mirrors
    /// cannot displace entries that lookups are actually using.
    pub(crate) fn insert_with_priority(&mut self, set: usize, entry: E, mru: bool) -> Option<E> {
        self.tick += 1;
        let base = set * self.ways;
        let free = !self.valid[set] & self.ways_mask();
        let way = if free != 0 {
            free.trailing_zeros() as usize
        } else {
            #[expect(
                clippy::expect_used,
                reason = "ways >= 1 by construction, the min always exists"
            )]
            (0..self.ways)
                .min_by_key(|&w| self.stamps[base + w])
                .expect("at least one way")
        };
        let evicted = self.slots[base + way].replace(entry);
        self.valid[set] |= 1u64 << way;
        self.stamps[base + way] = if mru { self.tick } else { 0 };
        evicted
    }

    /// Writes an entry into a specific way (assumed invalid or
    /// replaceable), marking it least-recently-used so a lookup must touch
    /// it before it outranks anything.
    pub(crate) fn insert_at(&mut self, set: usize, way: usize, entry: E) {
        self.slots[set * self.ways + way] = Some(entry);
        self.valid[set] |= 1u64 << way;
        self.stamps[set * self.ways + way] = 0;
    }

    /// Removes and returns the entry in a way.
    pub(crate) fn remove(&mut self, set: usize, way: usize) -> Option<E> {
        self.stamps[set * self.ways + way] = 0;
        self.valid[set] &= !(1u64 << way);
        self.slots[set * self.ways + way].take()
    }

    /// Clears every slot.
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.stamps.fill(0);
        self.valid.fill(0);
        self.tick = 0;
    }

    /// Number of valid entries.
    pub(crate) fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Number of valid entries in one set, straight off the bitmask.
    pub(crate) fn set_occupancy(&self, set: usize) -> usize {
        self.valid[set].count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_prefers_empty_ways() {
        let mut s: SetStorage<u32> = SetStorage::new(2, 2);
        assert_eq!(s.insert_lru(0, 10), None);
        assert_eq!(s.insert_lru(0, 11), None);
        assert_eq!(s.occupancy(), 2);
        // Set full now: LRU (10) evicted.
        assert_eq!(s.insert_lru(0, 12), Some(10));
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 2);
        s.insert_lru(0, 1);
        s.insert_lru(0, 2);
        let w1 = s.find(0, |&e| e == 1).unwrap();
        s.touch(0, w1);
        assert_eq!(s.insert_lru(0, 3), Some(2));
    }

    #[test]
    fn find_and_remove() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 4);
        s.insert_lru(0, 5);
        s.insert_lru(0, 6);
        s.insert_lru(0, 5);
        assert_eq!(s.find_all(0, |&e| e == 5).len(), 2);
        assert_eq!(s.find_all(0, |&e| e == 5).collect::<Vec<_>>(), [0, 2]);
        let w = s.find(0, |&e| e == 6).unwrap();
        assert_eq!(s.remove(0, w), Some(6));
        assert_eq!(s.find(0, |&e| e == 6), None);
        assert_eq!(s.occupancy(), 2);
    }

    #[test]
    fn clear_empties_everything() {
        let mut s: SetStorage<u32> = SetStorage::new(2, 2);
        s.insert_lru(0, 1);
        s.insert_lru(1, 2);
        s.clear();
        assert_eq!(s.occupancy(), 0);
        assert_eq!(s.valid_mask(0), 0);
        assert_eq!(s.valid_mask(1), 0);
    }

    #[test]
    fn validity_mask_tracks_mutations() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 4);
        assert_eq!(s.valid_mask(0), 0b0000);
        s.insert_lru(0, 1);
        s.insert_lru(0, 2);
        assert_eq!(s.valid_mask(0), 0b0011);
        assert_eq!(s.set_occupancy(0), 2);
        s.insert_at(0, 3, 9);
        assert_eq!(s.valid_mask(0), 0b1011);
        s.remove(0, 0);
        assert_eq!(s.valid_mask(0), 0b1010);
        assert_eq!(s.set_occupancy(0), 2);
    }

    #[test]
    fn full_64_way_set_works() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 64);
        for i in 0..64 {
            assert_eq!(s.insert_lru(0, i), None);
        }
        assert_eq!(s.valid_mask(0), u64::MAX);
        // 65th insert evicts the LRU (the first inserted).
        assert_eq!(s.insert_lru(0, 64), Some(0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        let _: SetStorage<u32> = SetStorage::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn over_wide_geometry_panics() {
        let _: SetStorage<u32> = SetStorage::new(1, 65);
    }
}
