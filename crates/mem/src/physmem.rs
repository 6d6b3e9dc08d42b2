//! Physical memory: buddy allocation plus frame-ownership tracking and
//! compaction.

use mixtlb_types::{PageSize, Pfn};

use crate::buddy::{AllocError, BuddyAllocator, MAX_ORDER};
use crate::config::MemoryConfig;
use crate::frame::FrameKind;

/// Maximum movable frames direct compaction may migrate to free one 2 MB
/// window during a fault (Linux's bounded direct-compaction effort). A
/// window is a compaction candidate
/// ([`PhysicalMemory::next_compaction_candidate`]) when it holds no pinned
/// frame and between 1 and this many movable ones.
pub const DIRECT_COMPACTION_BUDGET: u64 = 160;

/// Frames per 2 MB window, the unit of the per-window counters.
const WINDOW_FRAMES: u64 = 512;

/// One frame's state, packed in a byte: its [`FrameKind`] in the low two
/// bits and, at the base frame of an allocated block, the block's order
/// plus one above them (0 on every other frame).
#[derive(Debug, Clone, Copy)]
struct FrameCell(u8);

impl FrameCell {
    const FREE: FrameCell = FrameCell(0);

    const fn body(kind: FrameKind) -> FrameCell {
        FrameCell(match kind {
            FrameKind::Free => 0,
            FrameKind::Movable => 1,
            FrameKind::Unmovable => 2,
            FrameKind::PageTable => 3,
        })
    }

    const fn head(kind: FrameKind, order: u8) -> FrameCell {
        FrameCell(FrameCell::body(kind).0 | ((order + 1) << 2))
    }

    const fn kind(self) -> FrameKind {
        match self.0 & 3 {
            0 => FrameKind::Free,
            1 => FrameKind::Movable,
            2 => FrameKind::Unmovable,
            _ => FrameKind::PageTable,
        }
    }

    /// The order of the block this frame is the base of, if any.
    const fn head_order(self) -> Option<u8> {
        match self.0 >> 2 {
            0 => None,
            n => Some(n - 1),
        }
    }
}

const _: () = assert!(
    FrameCell::head(FrameKind::PageTable, MAX_ORDER).0 >> 2 == MAX_ORDER + 1,
    "the largest block order must fit above the kind bits"
);

/// Aggregate occupancy statistics for a [`PhysicalMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Total frames under management.
    pub total_frames: u64,
    /// Free frames.
    pub free_frames: u64,
    /// Frames holding movable (user) data.
    pub movable_frames: u64,
    /// Frames pinned as unmovable.
    pub unmovable_frames: u64,
    /// Frames holding page tables.
    pub page_table_frames: u64,
    /// Number of 2 MB-aligned, fully free 2 MB regions.
    pub free_2m_blocks: u64,
    /// Number of 1 GB-aligned, fully free 1 GB regions.
    pub free_1g_blocks: u64,
}

/// Result of a compaction attempt on one aligned window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactionOutcome {
    /// The window was freed. Each `(old_base, new_base, order)` entry is a
    /// movable block whose frames migrated; the caller must remap them.
    Freed {
        /// Relocated blocks: `(old_base_pfn, new_base_pfn, order)`.
        relocations: Vec<(Pfn, Pfn, u8)>,
    },
    /// The window contains unmovable frames (or an in-use block larger than
    /// the window) and can never be compacted.
    Pinned,
    /// Migrating the window's movable data would exceed the given budget.
    OverBudget,
    /// There was nowhere to migrate the movable data to.
    NoSpace,
}

impl CompactionOutcome {
    /// Returns `true` if the window was successfully freed.
    pub fn is_freed(&self) -> bool {
        matches!(self, CompactionOutcome::Freed { .. })
    }
}

/// The machine's physical memory: a buddy allocator with per-frame ownership
/// states, fragmentation queries, and Linux-style compaction of aligned
/// superpage windows.
///
/// # Examples
///
/// ```
/// use mixtlb_mem::{FrameKind, MemoryConfig, PhysicalMemory};
/// use mixtlb_types::PageSize;
///
/// let mut mem = PhysicalMemory::new(MemoryConfig::with_bytes(16 << 20));
/// let pfn = mem.alloc_page(PageSize::Size4K, FrameKind::Movable)?;
/// assert_eq!(mem.kind_of(pfn), FrameKind::Movable);
/// mem.free_page(pfn, PageSize::Size4K);
/// assert_eq!(mem.kind_of(pfn), FrameKind::Free);
/// # Ok::<(), mixtlb_mem::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    config: MemoryConfig,
    buddy: BuddyAllocator,
    /// Per-frame kind and block-head order. Blocks are buddy-aligned, so
    /// walking a window's frames in ascending order finds its blocks in
    /// address order.
    frames: Vec<FrameCell>,
    /// Cached per-2MB-window occupancy, indexed by `pfn / 512`: movable
    /// frame count and pinned (unmovable + page-table) frame count. Only
    /// `mark` and `unmark` change them.
    window_movable: Vec<u32>,
    window_pinned: Vec<u32>,
    /// Bitset over the full 2 MB windows, refreshed with the counters:
    /// bit `w` is set when window `w` is a direct-compaction candidate
    /// (no pinned frame, 1..=[`DIRECT_COMPACTION_BUDGET`] movable ones).
    /// The fault path's scanner walks set bits, so a search costs what it
    /// finds rather than the size of memory.
    candidates: Vec<u64>,
    movable_frames: u64,
    unmovable_frames: u64,
    page_table_frames: u64,
}

impl PhysicalMemory {
    /// Creates a fully free physical memory of the configured size.
    pub fn new(config: MemoryConfig) -> PhysicalMemory {
        let total = config.total_frames();
        let windows = total.div_ceil(512) as usize;
        PhysicalMemory {
            config,
            buddy: BuddyAllocator::new(total),
            frames: vec![FrameCell::FREE; total as usize],
            window_movable: vec![0; windows],
            window_pinned: vec![0; windows],
            candidates: vec![0; windows.div_ceil(64)],
            movable_frames: 0,
            unmovable_frames: 0,
            page_table_frames: 0,
        }
    }

    /// The configuration this memory was created with.
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> u64 {
        self.config.total_frames()
    }

    /// Currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.buddy.free_frames()
    }

    /// The ownership state of a frame.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of bounds.
    pub fn kind_of(&self, pfn: Pfn) -> FrameKind {
        self.frames[pfn.raw() as usize].kind()
    }

    /// The order of the allocated block whose base frame is `pfn`, or
    /// `None` when no allocated block starts there.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of bounds.
    pub fn block_order(&self, pfn: Pfn) -> Option<u8> {
        self.frames[pfn.raw() as usize].head_order()
    }

    /// Allocates one page of the given size (order 0 / 9 / 18).
    ///
    /// # Errors
    ///
    /// See [`BuddyAllocator::alloc`].
    pub fn alloc_page(&mut self, size: PageSize, kind: FrameKind) -> Result<Pfn, AllocError> {
        self.alloc_block(Self::order_for(size), kind)
    }

    /// Allocates a block of `2^order` frames.
    ///
    /// # Errors
    ///
    /// See [`BuddyAllocator::alloc`].
    pub fn alloc_block(&mut self, order: u8, kind: FrameKind) -> Result<Pfn, AllocError> {
        let base = self.buddy.alloc(order)?;
        self.mark(base, order, kind);
        Ok(Pfn::new(base))
    }

    /// Allocates a block of `2^order` frames from the top of memory (see
    /// [`BuddyAllocator::alloc_from_top`]).
    ///
    /// # Errors
    ///
    /// See [`BuddyAllocator::alloc`].
    pub fn alloc_block_top(&mut self, order: u8, kind: FrameKind) -> Result<Pfn, AllocError> {
        let base = self.buddy.alloc_from_top(order)?;
        self.mark(base, order, kind);
        Ok(Pfn::new(base))
    }

    /// Allocates the specific block `[base, base + 2^order)`.
    ///
    /// # Errors
    ///
    /// See [`BuddyAllocator::alloc_at`].
    pub fn alloc_block_at(&mut self, base: Pfn, order: u8, kind: FrameKind) -> Result<(), AllocError> {
        self.buddy.alloc_at(base.raw(), order)?;
        self.mark(base.raw(), order, kind);
        Ok(())
    }

    /// Frees one page of the given size.
    pub fn free_page(&mut self, base: Pfn, size: PageSize) {
        self.free_block(base, Self::order_for(size));
    }

    /// Frees a block of `2^order` frames.
    ///
    /// # Panics
    ///
    /// Panics if the block was not allocated as a unit at this base/order.
    pub fn free_block(&mut self, base: Pfn, order: u8) {
        #[expect(
            clippy::panic,
            reason = "freeing an untracked block is a simulator bug; failing loudly is the allocator's contract"
        )]
        let recorded_order = self
            .block_order(base)
            .unwrap_or_else(|| panic!("freeing unallocated block at {base}"));
        assert_eq!(recorded_order, order, "free order mismatch at {base}");
        self.unmark(base.raw(), order);
        self.buddy.free(base.raw(), order);
    }

    /// Returns `true` if the aligned range `[base, base + 2^order)` is
    /// entirely free.
    pub fn is_range_free(&self, base: Pfn, order: u8) -> bool {
        self.buddy.is_range_free(base.raw(), order)
    }

    /// Counts `(movable, pinned)` frames within an aligned window.
    ///
    /// For windows of 2 MB and larger this reads the cached per-window
    /// counters (`window_movable` and `window_pinned`, which only block
    /// allocation and release change) and is O(window / 2 MB); smaller
    /// windows scan frame states directly.
    pub fn window_occupancy(&self, base: Pfn, order: u8) -> (u64, u64) {
        if order >= 9 && base.raw().is_multiple_of(512) {
            let first = base.page_number(PageSize::Size2M) as usize;
            let count = 1usize << (order - 9);
            let last = (first + count).min(self.window_movable.len());
            let mut movable = 0u64;
            let mut pinned = 0u64;
            for w in first..last {
                movable += u64::from(self.window_movable[w]);
                pinned += u64::from(self.window_pinned[w]);
            }
            return (movable, pinned);
        }
        let start = base.raw() as usize;
        let end = (base.raw() + (1u64 << order)).min(self.total_frames()) as usize;
        let mut movable = 0;
        let mut pinned = 0;
        for cell in &self.frames[start..end] {
            match cell.kind() {
                FrameKind::Free => {}
                FrameKind::Movable => movable += 1,
                FrameKind::Unmovable | FrameKind::PageTable => pinned += 1,
            }
        }
        (movable, pinned)
    }

    /// Attempts to free the aligned window `[base, base + 2^order)` by
    /// migrating movable blocks elsewhere, then reserves the window for the
    /// caller with the given `kind` (like Linux compaction feeding a THP
    /// allocation).
    ///
    /// `budget_frames` caps how many frames may be migrated.
    ///
    /// On [`CompactionOutcome::Freed`], the window is *allocated to the
    /// caller* and the returned relocations must be applied to page tables.
    pub fn compact_window(
        &mut self,
        base: Pfn,
        order: u8,
        kind: FrameKind,
        budget_frames: u64,
    ) -> CompactionOutcome {
        if !base.raw().is_multiple_of(1u64 << order)
            || base.raw() + (1u64 << order) > self.total_frames()
        {
            return CompactionOutcome::Pinned;
        }
        let window_start = base.raw();
        let window_end = window_start + (1u64 << order);
        let (movable, pinned) = self.window_occupancy(base, order);
        if pinned > 0 {
            return CompactionOutcome::Pinned;
        }
        if movable > budget_frames {
            return CompactionOutcome::OverBudget;
        }
        // Net frames consumed: the whole window minus what is already free
        // inside it will come out of the free pool elsewhere.
        if self.buddy.free_frames() < (1u64 << order) {
            return CompactionOutcome::NoSpace;
        }
        // Collect allocated blocks overlapping the window. Blocks are
        // buddy-aligned, so any block not larger than the window is either
        // fully inside or fully outside; a larger containing block means an
        // in-use superpage we will not split.
        if self.covered_from_below(window_start, order) {
            return CompactionOutcome::Pinned;
        }
        // Ascending address order: relocation order decides where
        // `alloc_from_top` puts each block.
        let mut inside: Vec<(u64, u8, FrameKind)> = Vec::new();
        let mut frame = window_start;
        while frame < window_end {
            let cell = self.frames[frame as usize];
            match cell.head_order() {
                Some(o) if o > order => return CompactionOutcome::Pinned,
                Some(o) => {
                    inside.push((frame, o, cell.kind()));
                    frame += 1u64 << o;
                }
                None => frame += 1,
            }
        }
        // Phase 1: release every block inside the window.
        for &(b, o, _) in &inside {
            self.unmark(b, o);
            self.buddy.free(b, o);
        }
        // Phase 2: reserve the window itself.
        if self.buddy.alloc_at(window_start, order).is_err() {
            // Cannot happen: we just freed everything inside it.
            unreachable!("window not free after releasing its contents");
        }
        // Phase 3: find new homes for the displaced blocks.
        let mut relocations = Vec::with_capacity(inside.len());
        let mut placed: Vec<(u64, u8)> = Vec::with_capacity(inside.len());
        let mut failed = false;
        for &(old, o, k) in &inside {
            // Linux compaction's free scanner works from the top of the
            // zone down: displaced pages migrate to high addresses, so the
            // low-address space the allocation scanner feeds on stays
            // clean instead of being re-polluted by displaced data.
            match self.buddy.alloc_from_top(o) {
                Ok(new) => {
                    self.mark(new, o, k);
                    placed.push((new, o));
                    relocations.push((Pfn::new(old), Pfn::new(new), o));
                }
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            // Roll back: undo placements, release the window, restore the
            // original blocks.
            for (new, o) in placed {
                self.unmark(new, o);
                self.buddy.free(new, o);
            }
            self.buddy.free(window_start, order);
            for &(b, o, k) in &inside {
                #[expect(
                    clippy::expect_used,
                    reason = "rollback re-allocates a block this very function just freed, so the region is free"
                )]
                self.buddy
                    .alloc_at(b, o)
                    .expect("original block location must still be free during rollback");
                self.mark(b, o, k);
            }
            return CompactionOutcome::NoSpace;
        }
        self.mark(window_start, order, kind);
        CompactionOutcome::Freed { relocations }
    }

    /// Occupancy and fragmentation statistics.
    pub fn stats(&self) -> MemoryStats {
        let mut free_2m = 0u64;
        let mut free_1g = 0u64;
        for order in 9..=MAX_ORDER {
            let blocks = self.buddy.free_blocks_of_order(order) as u64;
            free_2m += blocks << (order - 9);
            if order >= 18 {
                free_1g += blocks << (order - 18);
            }
        }
        MemoryStats {
            total_frames: self.total_frames(),
            free_frames: self.buddy.free_frames(),
            movable_frames: self.movable_frames,
            unmovable_frames: self.unmovable_frames,
            page_table_frames: self.page_table_frames,
            free_2m_blocks: free_2m,
            free_1g_blocks: free_1g,
        }
    }

    /// The first direct-compaction candidate window (see
    /// [`DIRECT_COMPACTION_BUDGET`]) with index in `[from, to)`, or `None`.
    /// Window `w` covers frames `[w * 512, (w + 1) * 512)`; a partial last
    /// window is never a candidate.
    pub fn next_compaction_candidate(&self, from: u64, to: u64) -> Option<u64> {
        let to = to.min(self.total_frames() / WINDOW_FRAMES);
        let mut w = from;
        while w < to {
            let word = (w / 64) as usize;
            let bits = self.candidates[word] & (u64::MAX << (w % 64));
            if bits != 0 {
                let found = (w & !63) + u64::from(bits.trailing_zeros());
                return (found < to).then_some(found);
            }
            w = (w | 63) + 1;
        }
        None
    }

    fn order_for(size: PageSize) -> u8 {
        size.buddy_order()
    }

    /// Returns `true` if an allocated block that starts below `frame`
    /// covers it. Such a block is larger than `2^order` frames when
    /// `frame` is `2^order`-aligned, so its base is `frame` aligned down
    /// to one of the orders above.
    fn covered_from_below(&self, frame: u64, order: u8) -> bool {
        (order + 1..=MAX_ORDER).any(|k| {
            let base = frame & !((1u64 << k) - 1);
            base < frame
                && self.frames[base as usize]
                    .head_order()
                    .is_some_and(|o| base + (1u64 << o) > frame)
        })
    }

    fn mark(&mut self, base: u64, order: u8, kind: FrameKind) {
        debug_assert!(kind.is_allocated());
        let n = 1u64 << order;
        self.frames[base as usize..(base + n) as usize].fill(FrameCell::body(kind));
        self.frames[base as usize] = FrameCell::head(kind, order);
        self.count_in_windows(base, n, kind, true);
        match kind {
            FrameKind::Movable => self.movable_frames += n,
            FrameKind::Unmovable => self.unmovable_frames += n,
            FrameKind::PageTable => self.page_table_frames += n,
            FrameKind::Free => {}
        }
    }

    fn unmark(&mut self, base: u64, order: u8) {
        let head = self.frames[base as usize];
        #[expect(
            clippy::panic,
            reason = "unmarking an untracked block is a simulator bug surfaced immediately"
        )]
        if head.head_order().is_none() {
            panic!("unmark of untracked block {base:#x}");
        }
        let kind = head.kind();
        let n = 1u64 << order;
        self.frames[base as usize..(base + n) as usize].fill(FrameCell::FREE);
        self.count_in_windows(base, n, kind, false);
        match kind {
            FrameKind::Movable => self.movable_frames -= n,
            FrameKind::Unmovable => self.unmovable_frames -= n,
            FrameKind::PageTable => self.page_table_frames -= n,
            FrameKind::Free => {}
        }
    }

    /// Adds (or removes) the block `[base, base + n)` of `kind` to the
    /// per-window counters and refreshes the candidate bit of every window
    /// it touches. A buddy-aligned block lies inside one window or covers
    /// whole windows.
    fn count_in_windows(&mut self, base: u64, n: u64, kind: FrameKind, add: bool) {
        let per_window = n.min(WINDOW_FRAMES) as u32;
        let first = base / WINDOW_FRAMES;
        let last = (base + n - 1) / WINDOW_FRAMES;
        for w in first..=last {
            let w = w as usize;
            let counter = if kind.is_movable() {
                &mut self.window_movable[w]
            } else {
                &mut self.window_pinned[w]
            };
            if add {
                *counter += per_window;
            } else {
                *counter -= per_window;
            }
            let candidate = self.window_pinned[w] == 0
                && (1..=DIRECT_COMPACTION_BUDGET).contains(&u64::from(self.window_movable[w]))
                && (w as u64) < self.total_frames() / WINDOW_FRAMES;
            let bit = 1u64 << (w % 64);
            if candidate {
                self.candidates[w / 64] |= bit;
            } else {
                self.candidates[w / 64] &= !bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with_frames(frames: u64) -> PhysicalMemory {
        PhysicalMemory::new(MemoryConfig::with_bytes(frames * 4096))
    }

    #[test]
    fn alloc_free_roundtrip_updates_kinds() {
        let mut mem = mem_with_frames(4096);
        let p = mem.alloc_page(PageSize::Size2M, FrameKind::Movable).unwrap();
        assert_eq!(mem.kind_of(p), FrameKind::Movable);
        assert_eq!(mem.kind_of(p.add_4k(511)), FrameKind::Movable);
        assert_eq!(mem.stats().movable_frames, 512);
        mem.free_page(p, PageSize::Size2M);
        assert_eq!(mem.kind_of(p), FrameKind::Free);
        assert_eq!(mem.stats().movable_frames, 0);
    }

    #[test]
    fn stats_count_free_superpage_blocks() {
        let mut mem = mem_with_frames(4096);
        assert_eq!(mem.stats().free_2m_blocks, 8);
        // Pin one frame inside the second 2 MB window.
        mem.alloc_block_at(Pfn::new(600), 0, FrameKind::Unmovable).unwrap();
        assert_eq!(mem.stats().free_2m_blocks, 7);
        assert_eq!(mem.stats().unmovable_frames, 1);
    }

    #[test]
    fn compaction_moves_movable_data_out() {
        let mut mem = mem_with_frames(4096);
        // Occupy a frame in window [512, 1024) with movable data.
        mem.alloc_block_at(Pfn::new(700), 0, FrameKind::Movable).unwrap();
        let outcome = mem.compact_window(Pfn::new(512), 9, FrameKind::Movable, 512);
        assert!(outcome.is_freed());
        match outcome {
            CompactionOutcome::Freed { relocations } => {
                assert_eq!(relocations.len(), 1);
                let (old, new, order) = relocations[0];
                assert_eq!(old, Pfn::new(700));
                assert_eq!(order, 0);
                assert!(new.raw() < 512 || new.raw() >= 1024, "migrated inside the window");
                assert_eq!(mem.kind_of(new), FrameKind::Movable);
            }
            other => panic!("expected Freed, got {other:?}"),
        }
        // The window now belongs to the caller.
        assert_eq!(mem.kind_of(Pfn::new(512)), FrameKind::Movable);
        assert_eq!(mem.kind_of(Pfn::new(1023)), FrameKind::Movable);
    }

    #[test]
    fn compaction_refuses_pinned_windows() {
        let mut mem = mem_with_frames(4096);
        mem.alloc_block_at(Pfn::new(700), 0, FrameKind::Unmovable).unwrap();
        assert_eq!(
            mem.compact_window(Pfn::new(512), 9, FrameKind::Movable, 512),
            CompactionOutcome::Pinned
        );
    }

    #[test]
    fn compaction_respects_budget() {
        let mut mem = mem_with_frames(4096);
        mem.alloc_block_at(Pfn::new(512), 0, FrameKind::Movable).unwrap();
        mem.alloc_block_at(Pfn::new(513), 0, FrameKind::Movable).unwrap();
        assert_eq!(
            mem.compact_window(Pfn::new(512), 9, FrameKind::Movable, 1),
            CompactionOutcome::OverBudget
        );
    }

    #[test]
    fn compaction_will_not_split_inuse_superpages() {
        let mut mem = mem_with_frames(1 << 19);
        // A movable 1 GB page in use covers the candidate 2 MB window.
        let gig = mem.alloc_page(PageSize::Size1G, FrameKind::Movable).unwrap();
        assert_eq!(
            mem.compact_window(gig, 9, FrameKind::Movable, u64::MAX),
            CompactionOutcome::Pinned
        );
    }

    #[test]
    fn compaction_fails_cleanly_when_memory_is_full() {
        let mut mem = mem_with_frames(1024);
        // Fill all of memory with movable 4 KB pages.
        let mut pages = Vec::new();
        while let Ok(p) = mem.alloc_page(PageSize::Size4K, FrameKind::Movable) {
            pages.push(p);
        }
        assert_eq!(mem.free_frames(), 0);
        let before = mem.stats();
        assert_eq!(
            mem.compact_window(Pfn::new(0), 9, FrameKind::Movable, u64::MAX),
            CompactionOutcome::NoSpace
        );
        // State unchanged after the failed attempt.
        assert_eq!(mem.stats(), before);
        assert_eq!(mem.kind_of(Pfn::new(0)), FrameKind::Movable);
    }

    #[test]
    fn free_block_validates_order() {
        let mut mem = mem_with_frames(1024);
        let p = mem.alloc_page(PageSize::Size2M, FrameKind::Movable).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = mem.clone();
            m.free_block(p, 0);
        }));
        assert!(result.is_err(), "mismatched free order must panic");
    }
}
