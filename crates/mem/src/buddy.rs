//! A buddy allocator over 4 KB frames.
//!
//! Free blocks of each order are kept in ascending address order
//! (`BTreeSet`), so allocation prefers the lowest available address. This is
//! the property that makes consecutive superpage allocations come out
//! physically adjacent on a defragmented system — the contiguity MIX TLBs
//! coalesce (paper Sec. 7.1).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Largest supported block order: `2^18` frames = 1 GB.
pub const MAX_ORDER: u8 = 18;

/// Errors returned by [`BuddyAllocator`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free block large enough exists.
    OutOfMemory,
    /// The requested specific range is not entirely free.
    RangeBusy,
    /// The request was malformed (order too large, misaligned or
    /// out-of-bounds base).
    BadRequest,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "no free block of the requested order"),
            AllocError::RangeBusy => write!(f, "requested frame range is not free"),
            AllocError::BadRequest => write!(f, "malformed allocation request"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Hashes frame numbers with one folded multiply (the 64×64→128-bit
/// product's halves XORed) instead of SipHash. The free-block map is only
/// probed, never iterated, and its keys are our own frame numbers, so
/// neither flooding resistance nor a stable order matters. Folding the
/// high half in keeps aligned bases (low bits all zero) apart.
#[derive(Default)]
struct FrameHasher(u64);

impl Hasher for FrameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

/// A buddy allocator managing `total_frames` 4 KB frames.
///
/// # Examples
///
/// ```
/// use mixtlb_mem::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(1024);
/// let a = buddy.alloc(0)?; // one 4 KB frame
/// let b = buddy.alloc(9)?; // one 2 MB block
/// assert_ne!(a, b);
/// buddy.free(a, 0);
/// buddy.free(b, 9);
/// assert_eq!(buddy.free_frames(), 1024);
/// # Ok::<(), mixtlb_mem::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    total_frames: u64,
    free_lists: Vec<BTreeSet<u64>>,
    /// base → order for every free block; the membership test that buddy
    /// merging needs.
    free_blocks: HashMap<u64, u8, BuildHasherDefault<FrameHasher>>,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator over `total_frames` frames, all initially free.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero.
    pub fn new(total_frames: u64) -> BuddyAllocator {
        assert!(total_frames > 0, "allocator must manage at least one frame");
        let mut buddy = BuddyAllocator {
            total_frames,
            free_lists: vec![BTreeSet::new(); MAX_ORDER as usize + 1],
            free_blocks: HashMap::default(),
            free_frames: 0,
        };
        // Greedy decomposition of [0, total_frames) into aligned blocks.
        let mut base = 0u64;
        while base < total_frames {
            let align_order = if base == 0 {
                MAX_ORDER
            } else {
                (base.trailing_zeros() as u8).min(MAX_ORDER)
            };
            let mut order = align_order;
            while base + (1u64 << order) > total_frames {
                order -= 1;
            }
            buddy.insert_free(base, order);
            base += 1u64 << order;
        }
        buddy.free_frames = total_frames;
        buddy
    }

    /// Total frames under management.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// The largest order with at least one free block, or `None` when full.
    pub fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER).rev().find(|&o| !self.free_lists[o as usize].is_empty())
    }

    /// Number of free blocks of exactly the given order.
    pub fn free_blocks_of_order(&self, order: u8) -> usize {
        self.free_lists
            .get(order as usize)
            .map_or(0, |set| set.len())
    }

    /// Allocates the lowest-addressed free block of `2^order` frames.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadRequest`] if `order > MAX_ORDER`;
    /// [`AllocError::OutOfMemory`] if no sufficiently large block is free.
    pub fn alloc(&mut self, order: u8) -> Result<u64, AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::BadRequest);
        }
        // Lowest-addressed block across all sufficient orders. (Pure
        // smallest-order-first would consume scattered fragments before
        // splitting large low blocks, destroying the ascending-address
        // behaviour that makes consecutive allocations contiguous.)
        let (base, from_order) = (order..=MAX_ORDER)
            .filter_map(|o| {
                self.free_lists[o as usize]
                    .first()
                    .map(|&b| (b, o))
            })
            .min()
            .ok_or(AllocError::OutOfMemory)?;
        self.remove_free(base, from_order);
        // Split down, returning the low half each time.
        let mut cur = from_order;
        while cur > order {
            cur -= 1;
            self.insert_free(base + (1u64 << cur), cur);
        }
        self.free_frames -= 1u64 << order;
        Ok(base)
    }

    /// Allocates the highest-addressed free block of `2^order` frames.
    /// Used for allocations that should stay away from the ascending
    /// low-address stream the buddy allocator feeds to data pages — e.g.
    /// page-table frames, which real kernels segregate by migratetype so
    /// they do not puncture superpage runs.
    ///
    /// # Errors
    ///
    /// Same as [`BuddyAllocator::alloc`].
    pub fn alloc_from_top(&mut self, order: u8) -> Result<u64, AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::BadRequest);
        }
        let from_order = (order..=MAX_ORDER)
            .find(|&o| !self.free_lists[o as usize].is_empty())
            .ok_or(AllocError::OutOfMemory)?;
        #[expect(
            clippy::expect_used,
            reason = "the search above selected this order because its free list is non-empty"
        )]
        let mut base = *self.free_lists[from_order as usize]
            .last()
            .expect("order was found non-empty");
        self.remove_free(base, from_order);
        // Split down, keeping the HIGH half each time.
        let mut cur = from_order;
        while cur > order {
            cur -= 1;
            self.insert_free(base, cur);
            base += 1u64 << cur;
        }
        self.free_frames -= 1u64 << order;
        Ok(base)
    }

    /// Allocates the specific block `[base, base + 2^order)`.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadRequest`] for misaligned/out-of-bounds requests;
    /// [`AllocError::RangeBusy`] if the range is not entirely free.
    pub fn alloc_at(&mut self, base: u64, order: u8) -> Result<(), AllocError> {
        if order > MAX_ORDER
            || !base.is_multiple_of(1u64 << order)
            || base + (1u64 << order) > self.total_frames
        {
            return Err(AllocError::BadRequest);
        }
        // Find the free block containing the requested range. Free blocks
        // are order-aligned, so the candidates are base aligned down at each
        // order >= `order`.
        let mut found = None;
        for k in order..=MAX_ORDER {
            let candidate = base & !((1u64 << k) - 1);
            if self.free_blocks.get(&candidate) == Some(&k) {
                found = Some((candidate, k));
                break;
            }
        }
        let (block_base, block_order) = found.ok_or(AllocError::RangeBusy)?;
        self.remove_free(block_base, block_order);
        // Split, keeping the half that contains the target, freeing the rest.
        let mut cur_base = block_base;
        let mut cur_order = block_order;
        while cur_order > order {
            cur_order -= 1;
            let half = 1u64 << cur_order;
            if base < cur_base + half {
                self.insert_free(cur_base + half, cur_order);
            } else {
                self.insert_free(cur_base, cur_order);
                cur_base += half;
            }
        }
        debug_assert_eq!(cur_base, base);
        self.free_frames -= 1u64 << order;
        Ok(())
    }

    /// Frees the block `[base, base + 2^order)`, merging buddies eagerly.
    ///
    /// # Panics
    ///
    /// Panics if the block (or part of it) is already free — double frees
    /// always indicate a simulator bug.
    pub fn free(&mut self, base: u64, order: u8) {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        assert_eq!(base % (1u64 << order), 0, "freed block is misaligned");
        assert!(
            base + (1u64 << order) <= self.total_frames,
            "freed block out of bounds"
        );
        let freed_frames = 1u64 << order;
        let mut base = base;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = base ^ (1u64 << order);
            if buddy + (1u64 << order) > self.total_frames
                || self.free_blocks.get(&buddy) != Some(&order)
            {
                break;
            }
            self.remove_free(buddy, order);
            base = base.min(buddy);
            order += 1;
        }
        assert!(
            !self.free_blocks.contains_key(&base),
            "double free of block {base:#x}"
        );
        self.insert_free(base, order);
        self.free_frames += freed_frames;
    }

    /// Returns `true` if the exact block `[base, base + 2^order)` could be
    /// carved out of free space right now.
    pub fn is_range_free(&self, base: u64, order: u8) -> bool {
        if order > MAX_ORDER
            || !base.is_multiple_of(1u64 << order)
            || base + (1u64 << order) > self.total_frames
        {
            return false;
        }
        (order..=MAX_ORDER).any(|k| {
            let candidate = base & !((1u64 << k) - 1);
            self.free_blocks.get(&candidate) == Some(&k)
        })
    }

    fn insert_free(&mut self, base: u64, order: u8) {
        self.free_lists[order as usize].insert(base);
        self.free_blocks.insert(base, order);
    }

    fn remove_free(&mut self, base: u64, order: u8) {
        let was_in_list = self.free_lists[order as usize].remove(&base);
        let was_in_map = self.free_blocks.remove(&base).is_some();
        debug_assert!(was_in_list && was_in_map, "free-list bookkeeping desync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocator_is_fully_free() {
        let buddy = BuddyAllocator::new(4096);
        assert_eq!(buddy.free_frames(), 4096);
        assert_eq!(buddy.largest_free_order(), Some(12));
    }

    #[test]
    fn non_power_of_two_totals_decompose() {
        // 20 GiB worth of frames: 5 * 2^20.
        let buddy = BuddyAllocator::new(5 << 20);
        assert_eq!(buddy.free_frames(), 5 << 20);
        assert_eq!(buddy.largest_free_order(), Some(18));
    }

    #[test]
    fn alloc_prefers_low_addresses() {
        let mut buddy = BuddyAllocator::new(1 << 12);
        assert_eq!(buddy.alloc(0).unwrap(), 0);
        assert_eq!(buddy.alloc(0).unwrap(), 1);
        assert_eq!(buddy.alloc(9).unwrap(), 512);
    }

    #[test]
    fn sequential_superpage_allocs_are_adjacent() {
        let mut buddy = BuddyAllocator::new(1 << 14);
        let a = buddy.alloc(9).unwrap();
        let b = buddy.alloc(9).unwrap();
        let c = buddy.alloc(9).unwrap();
        assert_eq!(b, a + 512);
        assert_eq!(c, b + 512);
    }

    #[test]
    fn free_merges_buddies() {
        let mut buddy = BuddyAllocator::new(1024);
        let a = buddy.alloc(0).unwrap();
        let b = buddy.alloc(0).unwrap();
        buddy.free(a, 0);
        buddy.free(b, 0);
        assert_eq!(buddy.free_frames(), 1024);
        // Everything merged back into the single top block.
        assert_eq!(buddy.free_blocks_of_order(10), 1);
    }

    #[test]
    fn alloc_at_carves_specific_ranges() {
        let mut buddy = BuddyAllocator::new(1 << 12);
        buddy.alloc_at(512, 9).unwrap();
        assert_eq!(buddy.free_frames(), (1 << 12) - 512);
        // The carved range is busy now.
        assert_eq!(buddy.alloc_at(512, 9), Err(AllocError::RangeBusy));
        assert_eq!(buddy.alloc_at(768, 8), Err(AllocError::RangeBusy));
        // Its neighbours are still free.
        buddy.alloc_at(0, 9).unwrap();
        buddy.alloc_at(1024, 10).unwrap();
    }

    #[test]
    fn alloc_at_rejects_bad_requests() {
        let mut buddy = BuddyAllocator::new(1024);
        assert_eq!(buddy.alloc_at(3, 2), Err(AllocError::BadRequest));
        assert_eq!(buddy.alloc_at(1024, 0), Err(AllocError::BadRequest));
        assert_eq!(buddy.alloc_at(0, MAX_ORDER + 1), Err(AllocError::BadRequest));
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut buddy = BuddyAllocator::new(512);
        assert_eq!(buddy.alloc(10), Err(AllocError::OutOfMemory));
        buddy.alloc(9).unwrap();
        assert_eq!(buddy.alloc(0), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn is_range_free_tracks_state() {
        let mut buddy = BuddyAllocator::new(1024);
        assert!(buddy.is_range_free(0, 9));
        assert!(buddy.is_range_free(256, 8));
        buddy.alloc_at(256, 8).unwrap();
        assert!(!buddy.is_range_free(0, 9));
        assert!(!buddy.is_range_free(256, 8));
        assert!(buddy.is_range_free(0, 8));
        assert!(buddy.is_range_free(512, 9));
    }

    #[test]
    fn alloc_from_top_takes_high_addresses() {
        let mut buddy = BuddyAllocator::new(1 << 12);
        let top = buddy.alloc_from_top(0).unwrap();
        assert_eq!(top, (1 << 12) - 1);
        let next = buddy.alloc_from_top(0).unwrap();
        assert_eq!(next, (1 << 12) - 2);
        // Low allocations are untouched by the top split.
        assert_eq!(buddy.alloc(0).unwrap(), 0);
        // Freeing the top frames merges back.
        buddy.free(top, 0);
        buddy.free(next, 0);
        assert_eq!(buddy.free_frames(), (1 << 12) - 1);
    }

    #[test]
    fn alloc_from_top_respects_order_alignment() {
        let mut buddy = BuddyAllocator::new(1 << 12);
        let block = buddy.alloc_from_top(9).unwrap();
        assert_eq!(block % 512, 0);
        assert_eq!(block, (1 << 12) - 512);
        assert_eq!(buddy.alloc_from_top(MAX_ORDER + 1), Err(AllocError::BadRequest));
    }

    #[test]
    fn lowest_address_first_across_orders() {
        // Carve a small free fragment at a high address and leave a big
        // block at 0: alloc must pick the LOW block, not the small
        // fragment (ascending-address allocation keeps runs contiguous).
        let mut buddy = BuddyAllocator::new(1 << 12);
        buddy.alloc_at(512, 9).unwrap(); // [512, 1024) busy
        // Free lists now hold o9@0 and larger blocks above 1024.
        let a = buddy.alloc(0).unwrap();
        assert_eq!(a, 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut buddy = BuddyAllocator::new(1024);
        let a = buddy.alloc(0).unwrap();
        buddy.free(a, 0);
        buddy.free(a, 0);
    }

    #[test]
    fn boundary_blocks_do_not_merge_past_the_end() {
        // 768 frames = a 512 block + a 256 block; the 256 block's "buddy"
        // would lie beyond the end of memory.
        let mut buddy = BuddyAllocator::new(768);
        buddy.alloc_at(512, 8).unwrap();
        buddy.free(512, 8);
        assert_eq!(buddy.free_frames(), 768);
        assert_eq!(buddy.free_blocks_of_order(9), 1);
        assert_eq!(buddy.free_blocks_of_order(8), 1);
    }
}
