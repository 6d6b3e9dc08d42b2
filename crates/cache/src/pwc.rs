//! A paging-structure cache (MMU cache / page-walk cache).
//!
//! Intel and AMD cores cache upper-level page-table entries in small
//! dedicated structures so that most walks only reference memory for the
//! *leaf* PTE. The paper's Haswell baseline has these, and its analytical
//! model inherits their effect through performance-counter weighting; we
//! model them explicitly as a small fully-associative LRU over upper-level
//! PTE addresses.

use mixtlb_types::PhysAddr;

/// A fully-associative LRU cache of upper-level PTE physical addresses.
///
/// # Examples
///
/// ```
/// use mixtlb_cache::PageWalkCache;
/// use mixtlb_types::PhysAddr;
///
/// let mut pwc = PageWalkCache::new(4);
/// assert!(!pwc.access(PhysAddr::new(0x1000)));
/// assert!(pwc.access(PhysAddr::new(0x1000)));
/// ```
#[derive(Debug, Clone)]
pub struct PageWalkCache {
    entries: Vec<(u64, u64)>, // (pte address, stamp)
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PageWalkCache {
    /// Creates an empty PWC with the given entry count (Haswell-class
    /// cores hold a few tens of paging-structure entries).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PageWalkCache {
        assert!(capacity > 0, "PWC needs at least one entry");
        PageWalkCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up (and on miss, fills) an upper-level PTE address. Returns
    /// `true` on a hit.
    pub fn access(&mut self, pte: PhysAddr) -> bool {
        self.tick += 1;
        let key = pte.raw();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push((key, self.tick));
        } else {
            #[expect(clippy::expect_used, reason = "capacity is validated > 0 at construction")]
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            self.entries[victim] = (key, self.tick);
        }
        false
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Empties the cache (statistics preserved).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_replacement() {
        let mut pwc = PageWalkCache::new(2);
        pwc.access(PhysAddr::new(1));
        pwc.access(PhysAddr::new(2));
        pwc.access(PhysAddr::new(1)); // refresh 1
        pwc.access(PhysAddr::new(3)); // evicts 2 (LRU)
        assert!(pwc.access(PhysAddr::new(1)), "1 was refreshed, must stay");
        assert!(pwc.access(PhysAddr::new(3)), "3 was just filled, must stay");
        assert!(!pwc.access(PhysAddr::new(2)), "2 was the LRU victim");
    }

    #[test]
    fn stats_and_flush() {
        let mut pwc = PageWalkCache::new(2);
        pwc.access(PhysAddr::new(1));
        pwc.access(PhysAddr::new(1));
        assert_eq!(pwc.stats(), (1, 1));
        pwc.flush();
        assert!(!pwc.access(PhysAddr::new(1)));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = PageWalkCache::new(0);
    }
}
