//! Generic set-associative storage with per-set true-LRU replacement,
//! shared by every TLB design in the workspace.
//!
//! Layout is structure-of-arrays: entries, LRU stamps, and a per-set
//! validity bitmask live in three dense direct-indexed planes. The
//! bitmask is the probe fast path — `valid_mask` hands a whole set's
//! occupancy to the caller as one `u64`, so hot loops iterate set bits
//! instead of testing `Option`s way by way, and an empty or singleton
//! set is recognized without touching the entry plane at all.
//!
//! A design may add a fourth plane, the *tag plane*: one `u64` per slot
//! holding a packed key of the entry (see [`TagPlane`]). Scans that only
//! need to know which ways might match a key then read 8 bytes per way
//! instead of the whole entry. The plane is chosen by a type parameter,
//! so designs without one ([`NoTags`], the default) pay nothing for it.
//!
//! On top of the tag plane a storage may keep a *key index*
//! ([`SetStorage::with_key_index`]): which sets might hold a key, and
//! which sets still have a free way, each as a bitmask over sets. A fill
//! that may only merge into key-holding sets or claim free ways then
//! visits those sets alone instead of every set.

/// How a storage derives the packed key of its tag plane. Equal entries
/// by the design's own tag compare must get equal keys; unequal keys
/// prove a mismatch, so a key match is always re-checked on the entry.
pub(crate) trait TagPlane<E> {
    /// Whether the storage keeps a tag plane at all.
    const ENABLED: bool;

    /// The packed key of `entry`.
    fn key(entry: &E) -> u64;
}

/// No tag plane: the storage keeps entries, stamps and validity only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoTags;

impl<E> TagPlane<E> for NoTags {
    const ENABLED: bool = false;

    fn key(_entry: &E) -> u64 {
        0
    }
}

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

/// Set-associative slots of entries `E` with LRU stamps, a validity
/// bitmask plane (one `u64` per set, hence at most 64 ways) and, when `K`
/// enables one, a tag plane.
#[derive(Debug, Clone)]
pub(crate) struct SetStorage<E, K = NoTags> {
    ways: usize,
    slots: Vec<Option<E>>,
    stamps: Vec<u64>,
    valid: Vec<u64>,
    /// `K::key` of each slot's entry; stale where the slot is invalid,
    /// and empty when `K` keeps no plane.
    tags: Vec<u64>,
    /// With a tag plane, one bit per set: changed since its last
    /// [`SetStorage::mark_swept`]. Empty without a plane.
    unswept: Vec<u64>,
    tick: u64,
    /// Present only when built [`SetStorage::with_key_index`].
    index: Option<KeyIndex>,
    plane: std::marker::PhantomData<K>,
}

/// Per-set key summaries, inverted into set bitmasks (see the module
/// docs). A set's summary is a 64-bit Bloom filter of its valid keys, one
/// bit per key; `sets_with_bit[b]` is the bitmask of sets whose summary
/// holds bit `b`, so the sets that might hold a key are one lookup. Both
/// are recomputed from the set's tags whenever the set changes.
#[derive(Debug, Clone)]
struct KeyIndex {
    /// `u64` words per set bitmask.
    words: usize,
    /// Each set's summary.
    summary: Vec<u64>,
    /// 64 set bitmasks, `words` words each: sets whose summary has bit `b`.
    sets_with_bit: Vec<u64>,
    /// Sets with no free way.
    full: Vec<u64>,
}

/// The summary bit of a key: its top 6 bits after a multiplicative hash.
fn summary_bit(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
}

impl<E, K: TagPlane<E>> SetStorage<E, K> {
    pub(crate) fn new(sets: usize, ways: usize) -> SetStorage<E, K> {
        assert!(sets > 0 && ways > 0, "TLB geometry must be non-zero");
        assert!(ways <= 64, "validity bitmask plane holds at most 64 ways");
        let slots = sets * ways;
        SetStorage {
            ways,
            slots: std::iter::repeat_with(|| None).take(slots).collect(),
            stamps: vec![0; slots],
            valid: vec![0; sets],
            tags: if K::ENABLED { vec![0; slots] } else { Vec::new() },
            unswept: if K::ENABLED { vec![0; sets.div_ceil(64)] } else { Vec::new() },
            tick: 0,
            index: None,
            plane: std::marker::PhantomData,
        }
    }

    /// Adds the key index (see the module docs) to an empty storage.
    pub(crate) fn with_key_index(mut self) -> SetStorage<E, K> {
        let sets = self.valid.len();
        let words = sets.div_ceil(64);
        self.index = K::ENABLED.then(|| KeyIndex {
            words,
            summary: vec![0; sets],
            sets_with_bit: vec![0; 64 * words],
            full: vec![0; words],
        });
        self
    }

    /// Word `word` of the bitmask of sets that might hold a valid entry
    /// keyed `key` or still have a free way — every set a fill that only
    /// merges or claims free ways can change. Without a key index, every
    /// set.
    pub(crate) fn sets_keyed_or_free(&self, word: usize, key: u64) -> u64 {
        let sets = self.valid.len();
        let in_range = if sets >= (word + 1) * 64 {
            u64::MAX
        } else {
            (1u64 << (sets - word * 64)) - 1
        };
        let Some(index) = &self.index else {
            return in_range;
        };
        let keyed = index.sets_with_bit[summary_bit(key) * index.words + word];
        (keyed | !index.full[word]) & in_range
    }

    /// Brings the key index up to date after `set` changed.
    fn reindex(&mut self, set: usize) {
        let Some(index) = &mut self.index else {
            return;
        };
        let base = set * self.ways;
        let valid = self.valid[set];
        let mut summary = 0u64;
        let mut rest = valid;
        while rest != 0 {
            let w = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            summary |= 1u64 << summary_bit(self.tags[base + w]);
        }
        let (word, bit) = (set / 64, 1u64 << (set % 64));
        let mut changed = index.summary[set] ^ summary;
        index.summary[set] = summary;
        while changed != 0 {
            let b = changed.trailing_zeros() as usize;
            changed &= changed - 1;
            index.sets_with_bit[b * index.words + word] ^= bit;
        }
        let ways_mask = if self.ways == 64 { u64::MAX } else { (1u64 << self.ways) - 1 };
        if valid == ways_mask {
            index.full[word] |= bit;
        } else {
            index.full[word] &= !bit;
        }
    }

    /// Writes `entry` into way `way` of `set` (which `valid` already or
    /// now marks), keeping the tag plane in step.
    fn put(&mut self, set: usize, way: usize, entry: E) {
        let i = set * self.ways + way;
        if K::ENABLED {
            self.tags[i] = K::key(&entry);
            self.mark_changed(set);
        }
        self.slots[i] = Some(entry);
    }

    /// Ways of `set` holding a valid entry whose tag-plane key is `key`,
    /// read from the tag plane alone. A superset of the ways whose entries
    /// match by the design's full tag compare; without a plane, every
    /// valid way.
    pub(crate) fn ways_keyed(&self, set: usize, key: u64) -> u64 {
        self.ways_keyed_any(set, [key])
    }

    /// Ways of `set` holding a valid entry keyed by any of `keys` (see
    /// [`Self::ways_keyed`]).
    pub(crate) fn ways_keyed_any<const N: usize>(&self, set: usize, keys: [u64; N]) -> u64 {
        if !K::ENABLED {
            return self.valid[set];
        }
        let base = set * self.ways;
        // Highest way first, shifting by one: no variable shifts and no
        // branches, so the compare runs at load speed.
        let keyed = self.tags[base..base + self.ways]
            .iter()
            .rev()
            .fold(0u64, |acc, &tag| (acc << 1) | u64::from(keys.contains(&tag)));
        keyed & self.valid[set]
    }

    /// Whether two valid ways of `set` share a tag-plane key — without
    /// that, no two entries of the set can match each other. Always
    /// `true` without a plane (nothing is proven).
    pub(crate) fn has_shared_key(&self, set: usize) -> bool {
        if !K::ENABLED {
            return true;
        }
        let base = set * self.ways;
        let mut rest = self.valid[set];
        while rest != 0 {
            let w = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let tag = self.tags[base + w];
            let mut later = rest;
            while later != 0 {
                let v = later.trailing_zeros() as usize;
                later &= later - 1;
                if self.tags[base + v] == tag {
                    return true;
                }
            }
        }
        false
    }

    /// Whether `set` may have changed since [`Self::mark_swept`] was
    /// last called on it: an entry was written, removed or borrowed
    /// mutably. Always `true` without a tag plane.
    pub(crate) fn needs_sweep(&self, set: usize) -> bool {
        !K::ENABLED || self.unswept[set / 64] >> (set % 64) & 1 != 0
    }

    /// Records that a sweep of `set` found nothing to change.
    pub(crate) fn mark_swept(&mut self, set: usize) {
        if K::ENABLED {
            self.unswept[set / 64] &= !(1u64 << (set % 64));
        }
    }

    /// Flags `set` as changed (see [`Self::needs_sweep`]).
    fn mark_changed(&mut self, set: usize) {
        if K::ENABLED {
            self.unswept[set / 64] |= 1u64 << (set % 64);
        }
    }

    /// Whether a key other than `key` in `set` shares its summary bit.
    #[cfg(test)]
    fn summary_collides(&self, set: usize, key: u64) -> bool {
        let base = set * self.ways;
        let bit = summary_bit(key);
        (0..self.ways).any(|w| {
            self.valid[set] >> w & 1 != 0
                && self.tags[base + w] != key
                && summary_bit(self.tags[base + w]) == bit
        })
    }

    /// Lowest-numbered invalid way of `set`, if any.
    pub(crate) fn free_way(&self, set: usize) -> Option<usize> {
        let free = !self.valid[set] & self.ways_mask();
        (free != 0).then(|| free.trailing_zeros() as usize)
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

    /// Mutable view of a way's slot (flags the set as changed).
    pub(crate) fn get_mut(&mut self, set: usize, way: usize) -> Option<&mut E> {
        self.mark_changed(set);
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

    /// Inserts into an empty way, or evicts the LRU way (the first way
    /// with the oldest stamp), marking the new entry most-recently-used.
    /// Returns whether a valid entry was displaced. The victim is
    /// overwritten in place, never moved out.
    pub(crate) fn insert_lru(&mut self, set: usize, entry: E) -> bool {
        self.tick += 1;
        let base = set * self.ways;
        let (way, evicted) = match self.free_way(set) {
            Some(way) => (way, false),
            None => {
                // Branch-free running minimum: the victim is the first way
                // with the oldest stamp.
                let stamps = &self.stamps[base..base + self.ways];
                let (mut way, mut oldest) = (0, stamps[0]);
                for (w, &stamp) in stamps.iter().enumerate().skip(1) {
                    let older = stamp < oldest;
                    way = if older { w } else { way };
                    oldest = oldest.min(stamp);
                }
                (way, true)
            }
        };
        self.put(set, way, entry);
        self.valid[set] |= 1u64 << way;
        self.stamps[base + way] = self.tick;
        self.reindex(set);
        evicted
    }

    /// Writes an entry into a specific way (assumed invalid or
    /// replaceable), marking it least-recently-used so a lookup must touch
    /// it before it outranks anything.
    pub(crate) fn insert_at(&mut self, set: usize, way: usize, entry: E) {
        self.put(set, way, entry);
        self.valid[set] |= 1u64 << way;
        self.stamps[set * self.ways + way] = 0;
        self.reindex(set);
    }

    /// Removes and returns the entry in a way.
    pub(crate) fn remove(&mut self, set: usize, way: usize) -> Option<E> {
        self.stamps[set * self.ways + way] = 0;
        self.valid[set] &= !(1u64 << way);
        self.reindex(set);
        self.mark_changed(set);
        self.slots[set * self.ways + way].take()
    }

    /// Clears every slot.
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.stamps.fill(0);
        self.valid.fill(0);
        self.unswept.fill(0);
        self.tick = 0;
        if let Some(index) = &mut self.index {
            index.summary.fill(0);
            index.sets_with_bit.fill(0);
            index.full.fill(0);
        }
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

    /// The entries of `set`, in way order.
    fn set_entries<K: TagPlane<u32>>(s: &SetStorage<u32, K>, set: usize) -> Vec<u32> {
        (0..s.ways()).filter_map(|w| s.get(set, w).copied()).collect()
    }

    #[test]
    fn insert_prefers_empty_ways() {
        let mut s: SetStorage<u32> = SetStorage::new(2, 2);
        assert!(!s.insert_lru(0, 10));
        assert!(!s.insert_lru(0, 11));
        assert_eq!(s.occupancy(), 2);
        // Set full now: LRU (10) evicted.
        assert!(s.insert_lru(0, 12));
        assert_eq!(set_entries(&s, 0), [12, 11]);
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 2);
        s.insert_lru(0, 1);
        s.insert_lru(0, 2);
        let w1 = s.find(0, |&e| e == 1).unwrap();
        s.touch(0, w1);
        assert!(s.insert_lru(0, 3));
        assert_eq!(set_entries(&s, 0), [1, 3]);
    }

    #[test]
    fn lru_ties_evict_the_lowest_way() {
        // `insert_at` stamps 0, so two such entries tie as LRU: the first
        // way goes.
        let mut s: SetStorage<u32> = SetStorage::new(1, 3);
        s.insert_lru(0, 1);
        s.insert_at(0, 1, 2);
        s.insert_at(0, 2, 3);
        assert!(s.insert_lru(0, 4));
        assert_eq!(set_entries(&s, 0), [1, 4, 3]);
    }

    /// A tag plane keyed on the entry's value divided by ten.
    struct Tens;

    impl TagPlane<u32> for Tens {
        const ENABLED: bool = true;

        fn key(entry: &u32) -> u64 {
            u64::from(*entry / 10)
        }
    }

    #[test]
    fn tag_plane_tracks_inserts_and_removals() {
        let mut s: SetStorage<u32, Tens> = SetStorage::new(2, 4);
        s.insert_lru(0, 11);
        s.insert_lru(0, 25);
        s.insert_at(0, 3, 17);
        s.insert_lru(1, 12);
        assert_eq!(s.ways_keyed(0, 1), 0b1001);
        assert_eq!(s.ways_keyed(0, 2), 0b0010);
        assert_eq!(s.ways_keyed(1, 2), 0);
        assert_eq!(s.ways_keyed_any(0, [2, 1]), 0b1011);
        assert!(s.has_shared_key(0));
        assert!(!s.has_shared_key(1));
        s.remove(0, 3);
        assert_eq!(s.ways_keyed(0, 1), 0b0001);
        assert!(!s.has_shared_key(0));
        assert_eq!(s.free_way(0), Some(2));
        s.clear();
        assert_eq!(s.ways_keyed(0, 1), 0);
    }

    /// The sets `sets_keyed_or_free` reports for `key`, as a list.
    fn keyed_or_free(s: &SetStorage<u32, Tens>, key: u64) -> Vec<usize> {
        let sets = s.valid.len();
        (0..sets.div_ceil(64))
            .flat_map(|w| WayMask(s.sets_keyed_or_free(w, key)).map(move |b| w * 64 + b))
            .collect()
    }

    #[test]
    fn key_index_names_key_holding_and_non_full_sets() {
        let mut s: SetStorage<u32, Tens> = SetStorage::new(70, 2).with_key_index();
        // Every set starts with a free way.
        assert_eq!(keyed_or_free(&s, 1).len(), 70);
        for set in 0..70 {
            s.insert_lru(set, 50);
            s.insert_lru(set, 60);
        }
        assert!(keyed_or_free(&s, 1).is_empty());
        // Key 1 lands in sets 3 and 66; set 7 loses a way.
        s.insert_lru(3, 11);
        s.insert_lru(66, 19);
        s.remove(7, 0);
        let found = keyed_or_free(&s, 1);
        for set in [3, 7, 66] {
            assert!(found.contains(&set), "{set} missing from {found:?}");
        }
        // A Bloom summary may name extra sets, but never one that both
        // lacks the key and is full.
        for &set in &found {
            assert!(set == 7 || s.ways_keyed(set, 1) != 0 || s.summary_collides(set, 1));
        }
        // Evicting the key clears its summary bit.
        s.insert_lru(3, 70);
        s.insert_lru(3, 80);
        assert_eq!(s.ways_keyed(3, 1), 0);
        assert!(!keyed_or_free(&s, 1).contains(&3) || s.summary_collides(3, 1));
        s.clear();
        assert_eq!(keyed_or_free(&s, 1).len(), 70);
    }

    #[test]
    fn sweep_flags_follow_changes() {
        let mut s: SetStorage<u32, Tens> = SetStorage::new(2, 2);
        assert!(!s.needs_sweep(0));
        s.insert_lru(0, 11);
        assert!(s.needs_sweep(0) && !s.needs_sweep(1));
        s.mark_swept(0);
        s.touch(0, 0);
        assert!(!s.needs_sweep(0), "recency is not a change");
        let _ = s.get_mut(0, 0);
        assert!(s.needs_sweep(0));
        s.mark_swept(0);
        s.remove(0, 0);
        assert!(s.needs_sweep(0));
        s.clear();
        assert!(!s.needs_sweep(0));
    }

    #[test]
    fn no_plane_proves_nothing() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 2);
        s.insert_lru(0, 11);
        s.insert_lru(0, 25);
        assert_eq!(s.ways_keyed(0, 1), 0b11);
        assert!(s.has_shared_key(0));
        s.mark_swept(0);
        assert!(s.needs_sweep(0));
        assert_eq!(s.free_way(0), None);
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
            assert!(!s.insert_lru(0, i));
        }
        assert_eq!(s.valid_mask(0), u64::MAX);
        // 65th insert evicts the LRU (the first inserted).
        assert!(s.insert_lru(0, 64));
        assert_eq!(s.find(0, |&e| e == 0), None);
        assert_eq!(s.find(0, |&e| e == 64), Some(0));
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
