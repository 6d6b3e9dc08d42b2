//! The kernel: address spaces, demand paging, THS, and compaction routing.

use std::collections::{HashSet, VecDeque};
use std::fmt;

use mixtlb_mem::{CompactionOutcome, FrameKind, PhysicalMemory, DIRECT_COMPACTION_BUDGET};
use mixtlb_pagetable::{FrameSource, PageTable};
use mixtlb_types::{FrameOwner, PageSize, Permissions, Pfn, Translation, Vpn};

use crate::policy::PagingPolicy;
use crate::vma::{VmaError, VmaSet};

/// Candidate windows the fault path's compaction scanner examines per
/// fault before giving up.
const COMPACTION_SCAN_LIMIT: u32 = 64;

/// Identifier of an [`AddressSpace`] within a [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpaceId(pub(crate) usize);

/// Errors from fault handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// The page is not inside any VMA (a segfault).
    NoVma,
    /// Physical memory is exhausted.
    OutOfMemory,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NoVma => write!(f, "page is outside every virtual memory area"),
            FaultError::OutOfMemory => write!(f, "physical memory exhausted"),
        }
    }
}

impl std::error::Error for FaultError {}

/// Counters describing how an address space's faults were served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Demand faults handled (excluding already-mapped hits).
    pub faults: u64,
    /// 4 KB mappings created.
    pub mapped_4k: u64,
    /// 2 MB mappings created.
    pub mapped_2m: u64,
    /// 1 GB mappings created.
    pub mapped_1g: u64,
    /// 2 MB mappings that required compaction.
    pub compactions: u64,
    /// THS attempts that fell back to 4 KB pages.
    pub ths_fallbacks: u64,
    /// Superpages served from a hugetlbfs pool.
    pub pool_hits: u64,
}

/// One process (or guest OS image) with its page table, VMAs, and policy.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    page_table: PageTable,
    vmas: VmaSet,
    policy: PagingPolicy,
    pool: VecDeque<Pfn>,
    pool_size: Option<PageSize>,
    /// 2 MB-aligned region bases where THS has already been attempted.
    ths_attempted: HashSet<u64>,
    /// Compaction scanner position (2 MB window index), Linux-style.
    scan_cursor: u64,
    /// Frame just past the last 2 MB allocation: sequential faults try to
    /// continue here, producing the contiguous superpage runs the paper
    /// measures (Sec. 7.1 — ascending faults get contiguous frames).
    hint_2m: Option<u64>,
    /// Frame just past the last 4 KB allocation (small-page contiguity,
    /// which COLT exploits).
    hint_4k: Option<u64>,
    stats: FaultStats,
}

impl AddressSpace {
    /// The space's page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The space's VMAs.
    pub fn vmas(&self) -> &VmaSet {
        &self.vmas
    }

    /// The paging policy.
    pub fn policy(&self) -> PagingPolicy {
        self.policy
    }

    /// Fault-handling statistics.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Superpages remaining in the hugetlbfs pool.
    pub fn pool_remaining(&self) -> usize {
        self.pool.len()
    }

    /// Mutable page-table access — the hardware walker needs it to
    /// maintain accessed/dirty bits during simulation.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }
}

/// Adapter giving page tables frames from [`PhysicalMemory`].
struct PtFrames<'a>(&'a mut PhysicalMemory);

impl FrameSource for PtFrames<'_> {
    fn alloc_page_table_frame(&mut self) -> Pfn {
        // Top-of-memory allocation keeps page-table frames from splitting
        // the ascending low-address blocks that back data pages — real
        // kernels segregate these by migratetype for the same reason
        // (puncturing a 2 MB run with one PTE page destroys a superpage
        // candidate and breaks physical contiguity).
        #[expect(
            clippy::expect_used,
            reason = "page-table frames come from a reserved top-of-memory region sized at construction; exhaustion is a configuration bug"
        )]
        self.0
            .alloc_block_top(0, FrameKind::PageTable)
            .expect("out of memory for page-table frames")
    }
}

/// The kernel: owns physical memory and all address spaces, handles demand
/// faults, and routes compaction relocations to the right page tables.
pub struct Kernel {
    mem: PhysicalMemory,
    spaces: Vec<AddressSpace>,
    /// `rmap[pfn]` holds the packed [`FrameOwner`] of the *block base*
    /// frame of each mapped page, 0 when unowned (free, memhog, page
    /// tables).
    rmap: Vec<u64>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("spaces", &self.spaces.len())
            .field("free_frames", &self.mem.free_frames())
            .finish()
    }
}

impl Kernel {
    /// Boots a kernel over the given physical memory.
    pub fn new(mem: PhysicalMemory) -> Kernel {
        let frames = mem.total_frames() as usize;
        Kernel {
            mem,
            spaces: Vec::new(),
            rmap: vec![0; frames],
        }
    }

    /// The physical memory (e.g. to inspect fragmentation).
    pub fn mem(&self) -> &PhysicalMemory {
        &self.mem
    }

    /// Mutable access to physical memory (e.g. to run `memhog`).
    pub fn mem_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.mem
    }

    /// A created address space.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this kernel.
    pub fn space(&self, id: SpaceId) -> &AddressSpace {
        &self.spaces[id.0]
    }

    /// Mutable access to an address space (e.g. its page table, for the
    /// hardware walker's accessed/dirty updates).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this kernel.
    pub fn space_mut(&mut self, id: SpaceId) -> &mut AddressSpace {
        &mut self.spaces[id.0]
    }

    /// Number of address spaces.
    pub fn space_count(&self) -> usize {
        self.spaces.len()
    }

    /// Reserves a boot-time hugepage pool (the `hugepagesz=1G
    /// hugepages=N` kernel parameter): pages are carved out while memory
    /// is pristine, before any fragmentation, and handed to the next
    /// space created with a matching hugetlbfs policy via
    /// [`Kernel::create_space_with_pool`]. Returns the reserved pages
    /// (possibly fewer than requested).
    pub fn reserve_boot_pool(&mut self, size: PageSize, bytes: u64) -> Vec<Pfn> {
        let mut pool = Vec::new();
        let want = bytes / size.bytes();
        let mut hint: Option<u64> = None;
        let order = size.buddy_order();
        for _ in 0..want {
            let next = hint.and_then(|h| {
                self.mem
                    .alloc_block_at(Pfn::new(h), order, FrameKind::Movable)
                    .ok()
                    .map(|()| Pfn::new(h))
            });
            let pfn = match next {
                Some(pfn) => pfn,
                None => match self.mem.alloc_page(size, FrameKind::Movable) {
                    Ok(pfn) => pfn,
                    Err(_) => break,
                },
            };
            hint = Some(pfn.raw() + size.pages_4k());
            pool.push(pfn);
        }
        pool
    }

    /// Like [`Kernel::create_space`], with an explicit pre-reserved
    /// hugepage pool (see [`Kernel::reserve_boot_pool`]) that replaces the
    /// policy's own reservation.
    pub fn create_space_with_pool(
        &mut self,
        policy: PagingPolicy,
        pool_size: PageSize,
        pool: Vec<Pfn>,
    ) -> SpaceId {
        let id = self.create_space(PagingPolicy::SmallOnly);
        // Rebuild the space with the right policy but the injected pool.
        let space = &mut self.spaces[id.0];
        space.policy = policy;
        space.pool_size = Some(pool_size);
        space.pool = pool.into_iter().collect();
        // Run the background-compaction daemon the normal path would run.
        self.run_daemon(policy);
        id
    }

    /// khugepaged-style background compaction for THS policies.
    fn run_daemon(&mut self, policy: PagingPolicy) {
        if let Some(ths) = policy.ths() {
            if ths.daemon_budget_share > 0.0 {
                let mut budget =
                    (self.mem.free_frames() as f64 * ths.daemon_budget_share) as u64;
                let windows = self.mem.total_frames() / 512;
                for w in 0..windows {
                    if budget == 0 {
                        break;
                    }
                    let base = Pfn::new(w * 512);
                    let (movable, pinned) = self.mem.window_occupancy(base, 9);
                    if pinned > 0 || movable == 0 || movable > budget {
                        continue;
                    }
                    if let CompactionOutcome::Freed { relocations } =
                        self.mem.compact_window(base, 9, FrameKind::Movable, movable)
                    {
                        self.apply_relocations(&relocations);
                        self.mem.free_block(base, 9);
                        budget = budget.saturating_sub(movable);
                    }
                }
            }
        }
    }

    /// Creates an address space with the given policy, reserving its
    /// hugetlbfs pool (if any) immediately — like `libhugetlbfs` reserving
    /// at program link/start time.
    ///
    /// # Panics
    ///
    /// Panics when the kernel already has [`FrameOwner::MAX_SPACES`]
    /// spaces: the reverse map could not tell the new one apart.
    pub fn create_space(&mut self, policy: PagingPolicy) -> SpaceId {
        if self.spaces.len() >= FrameOwner::MAX_SPACES {
            #[expect(
                clippy::panic,
                reason = "more address spaces than the reverse map can name is a configuration bug surfaced immediately"
            )]
            {
                panic!(
                    "at most {} address spaces fit the reverse map",
                    FrameOwner::MAX_SPACES
                );
            }
        }
        let page_table = PageTable::new(&mut PtFrames(&mut self.mem));
        let mut pool = VecDeque::new();
        let mut pool_size = None;
        if let Some((size, bytes)) = policy.pool_request() {
            pool_size = Some(size);
            let want = bytes / size.bytes();
            let order = size.buddy_order();
            let mut hint: Option<u64> = None;
            for _ in 0..want {
                // Continue right after the previous page when possible, so
                // the pool comes out physically contiguous.
                let next = hint.and_then(|h| {
                    self.mem
                        .alloc_block_at(Pfn::new(h), order, FrameKind::Movable)
                        .ok()
                        .map(|()| Pfn::new(h))
                });
                let pfn = match next {
                    Some(pfn) => pfn,
                    None => match self.mem.alloc_page(size, FrameKind::Movable) {
                        Ok(pfn) => pfn,
                        Err(_) => break, // fragmentation limited the pool
                    },
                };
                hint = Some(pfn.raw() + size.pages_4k());
                pool.push_back(pfn);
            }
        }
        // Background (khugepaged-style) compaction: consolidate ascending
        // windows within a bounded migration budget before the space
        // starts faulting, so whatever superpages can form will form in
        // long runs.
        self.run_daemon(policy);
        self.spaces.push(AddressSpace {
            page_table,
            vmas: VmaSet::new(),
            policy,
            pool,
            pool_size,
            ths_attempted: HashSet::new(),
            scan_cursor: 0,
            hint_2m: None,
            hint_4k: None,
            stats: FaultStats::default(),
        });
        SpaceId(self.spaces.len() - 1)
    }

    /// Adds a VMA to a space (the model's `mmap`).
    ///
    /// # Errors
    ///
    /// See [`VmaSet::insert`].
    pub fn mmap(
        &mut self,
        id: SpaceId,
        start: Vpn,
        pages: u64,
        perms: Permissions,
    ) -> Result<(), VmaError> {
        self.spaces[id.0].vmas.insert(start, pages, perms)
    }

    /// Handles a demand fault at `vpn`, returning the mapping that now
    /// covers the page (possibly pre-existing).
    ///
    /// # Errors
    ///
    /// [`FaultError::NoVma`] outside every VMA; [`FaultError::OutOfMemory`]
    /// when no frame can be allocated.
    pub fn fault(&mut self, id: SpaceId, vpn: Vpn) -> Result<Translation, FaultError> {
        let sid = id.0;
        let vma = *self.spaces[sid].vmas.find(vpn).ok_or(FaultError::NoVma)?;
        if let Some(existing) = self.spaces[sid].page_table.lookup(vpn) {
            return Ok(existing);
        }
        self.spaces[sid].stats.faults += 1;
        // 1. hugetlbfs pool.
        if let Some(pool_size) = self.spaces[sid].pool_size {
            if vma.covers_aligned_region(vpn, pool_size)
                && vpn
                    .align_down(pool_size)
                    .is_aligned(pool_size)
                && !self.spaces[sid].pool.is_empty()
            {
                #[expect(
                    clippy::expect_used,
                    reason = "pool non-emptiness is checked in the surrounding condition"
                )]
                let pfn = self.spaces[sid].pool.pop_front().expect("non-empty pool");
                let t = Translation::new(vpn.align_down(pool_size), pfn, pool_size, vma.perms);
                self.install(sid, t)?;
                let space = &mut self.spaces[sid];
                space.stats.pool_hits += 1;
                match pool_size {
                    PageSize::Size2M => space.stats.mapped_2m += 1,
                    PageSize::Size1G => space.stats.mapped_1g += 1,
                    PageSize::Size4K => space.stats.mapped_4k += 1,
                }
                return Ok(t);
            }
        }
        // 2. transparent hugepages (2 MB).
        if self.spaces[sid].policy.ths().is_some() {
            let region = vpn.align_down(PageSize::Size2M);
            if vma.covers_aligned_region(vpn, PageSize::Size2M)
                && !self.spaces[sid].ths_attempted.contains(&region.raw())
            {
                self.spaces[sid].ths_attempted.insert(region.raw());
                if let Some((pfn, compacted)) = self.alloc_2m_with_compaction(sid) {
                    let t = Translation::new(region, pfn, PageSize::Size2M, vma.perms);
                    self.install(sid, t)?;
                    let space = &mut self.spaces[sid];
                    space.stats.mapped_2m += 1;
                    if compacted {
                        space.stats.compactions += 1;
                    }
                    return Ok(t);
                }
                self.spaces[sid].stats.ths_fallbacks += 1;
            }
        }
        // 3. 4 KB fallback (hinted: sequential small-page faults get
        // contiguous frames — the behaviour COLT exploits).
        let hinted = self.spaces[sid].hint_4k.and_then(|h| {
            if h < self.mem.total_frames()
                && self
                    .mem
                    .alloc_block_at(Pfn::new(h), 0, FrameKind::Movable)
                    .is_ok()
            {
                Some(Pfn::new(h))
            } else {
                None
            }
        });
        let pfn = match hinted {
            Some(pfn) => pfn,
            None => self
                .mem
                .alloc_page(PageSize::Size4K, FrameKind::Movable)
                .map_err(|_| FaultError::OutOfMemory)?,
        };
        self.spaces[sid].hint_4k = Some(pfn.raw() + 1);
        let t = Translation::new(vpn, pfn, PageSize::Size4K, vma.perms);
        self.install(sid, t)?;
        self.spaces[sid].stats.mapped_4k += 1;
        Ok(t)
    }

    /// Faults in every page of every VMA of a space, in ascending virtual
    /// address order (the common access pattern the paper notes leads to
    /// contiguous physical allocation). Returns the number of 4 KB pages
    /// mapped; stops early if memory runs out.
    pub fn fault_all(&mut self, id: SpaceId) -> u64 {
        let vmas: Vec<_> = self.spaces[id.0].vmas.iter().copied().collect();
        let mut mapped = 0;
        for vma in vmas {
            let mut vpn = vma.start;
            while vpn < vma.end() {
                match self.fault(id, vpn) {
                    Ok(t) => {
                        let next = t.vpn.add_4k(t.size.pages_4k());
                        mapped += next.raw().saturating_sub(vpn.raw());
                        vpn = next.max(vpn.add_4k(1));
                    }
                    Err(FaultError::OutOfMemory) => return mapped,
                    Err(FaultError::NoVma) => unreachable!("faulting inside a VMA"),
                }
            }
        }
        mapped
    }

    /// Unmaps the page covering `vpn`, freeing its frames. Returns the
    /// removed mapping (for TLB invalidation).
    ///
    /// # Errors
    ///
    /// [`FaultError::NoVma`] if nothing is mapped at `vpn`.
    pub fn unmap_page(&mut self, id: SpaceId, vpn: Vpn) -> Result<Translation, FaultError> {
        let sid = id.0;
        let existing = self.spaces[sid]
            .page_table
            .lookup(vpn)
            .ok_or(FaultError::NoVma)?;
        #[expect(clippy::expect_used, reason = "the lookup just above found this exact mapping")]
        let removed = self.spaces[sid]
            .page_table
            .unmap(existing.vpn, existing.size)
            .expect("lookup just found the mapping");
        self.mem.free_page(removed.pfn, removed.size);
        self.rmap[removed.pfn.raw() as usize] = 0;
        if removed.size == PageSize::Size2M {
            // Allow THS to try this region again if it is re-faulted.
            self.spaces[sid].ths_attempted.remove(&removed.vpn.raw());
        }
        Ok(removed)
    }

    /// Splinters the superpage mapping covering `vpn` into its constituent
    /// 4 KB mappings, in place (same frames). This is what hypervisor page
    /// sharing does to host large pages under consolidation pressure
    /// (Guo et al., VEE 2015 — the paper's reference 48).
    ///
    /// # Errors
    ///
    /// [`FaultError::NoVma`] if no superpage mapping covers `vpn`.
    pub fn splinter(&mut self, id: SpaceId, vpn: Vpn) -> Result<(), FaultError> {
        let sid = id.0;
        let existing = self.spaces[sid]
            .page_table
            .lookup(vpn)
            .filter(|t| t.size.is_superpage())
            .ok_or(FaultError::NoVma)?;
        #[expect(clippy::expect_used, reason = "the lookup just above found this exact mapping")]
        let removed = self.spaces[sid]
            .page_table
            .unmap(existing.vpn, existing.size)
            .expect("lookup just found the mapping");
        self.rmap[removed.pfn.raw() as usize] = 0;
        let Kernel { mem, spaces, rmap } = self;
        for i in 0..removed.size.pages_4k() {
            let small = Translation {
                vpn: removed.vpn.add_4k(i),
                pfn: removed.pfn.add_4k(i),
                size: PageSize::Size4K,
                perms: removed.perms,
                accessed: removed.accessed,
                dirty: removed.dirty,
            };
            #[expect(
                clippy::expect_used,
                reason = "the covering superpage was unmapped above, so the 4 KB remaps cannot collide"
            )]
            spaces[sid]
                .page_table
                .map(small, &mut PtFrames(mem))
                .expect("region was just unmapped");
            rmap[small.pfn.raw() as usize] = FrameOwner {
                space: sid,
                size: PageSize::Size4K,
                vpn: small.vpn,
            }
            .pack();
        }
        Ok(())
    }

    /// Installs a translation in a space's page table and registers the
    /// reverse mapping.
    fn install(&mut self, sid: usize, t: Translation) -> Result<(), FaultError> {
        // Split borrows: page table in `spaces`, frames from `mem`.
        let Kernel { mem, spaces, rmap } = self;
        #[expect(
            clippy::expect_used,
            reason = "the fault path runs only for VPNs the walk just reported unmapped"
        )]
        spaces[sid]
            .page_table
            .map(t, &mut PtFrames(mem))
            .expect("fault path never double-maps");
        rmap[t.pfn.raw() as usize] = FrameOwner {
            space: sid,
            size: t.size,
            vpn: t.vpn,
        }
        .pack();
        Ok(())
    }

    /// Allocates a 2 MB block, trying the buddy allocator first and then a
    /// bounded compaction scan. Returns `(pfn, used_compaction)`.
    ///
    /// The scan resumes at the space's `scan_cursor` and walks the 2 MB
    /// windows cyclically, examining only compaction candidates (no pinned
    /// frame, 1..=[`DIRECT_COMPACTION_BUDGET`] movable frames) and at most
    /// [`COMPACTION_SCAN_LIMIT`] of them. It reads the candidates from
    /// [`PhysicalMemory::next_compaction_candidate`], so a search costs
    /// O(candidates), not O(memory). The cursor ends one past the last
    /// window examined, or where it started when the walk went all the way
    /// round.
    fn alloc_2m_with_compaction(&mut self, sid: usize) -> Option<(Pfn, bool)> {
        // Sequential-fault fast path: continue right after the previous
        // 2 MB allocation, skipping over scattered small fragment blocks
        // the buddy allocator would otherwise hand out first.
        if let Some(hint) = self.spaces[sid].hint_2m {
            if hint + 512 <= self.mem.total_frames() {
                if self
                    .mem
                    .alloc_block_at(Pfn::new(hint), 9, FrameKind::Movable)
                    .is_ok()
                {
                    self.spaces[sid].hint_2m = Some(hint + 512);
                    return Some((Pfn::new(hint), false));
                }
                // The hint window is occupied: try compacting *it* before
                // jumping elsewhere (Linux compaction works near the
                // allocation scanner, which is what keeps sequential
                // faults physically sequential through mixed terrain).
                let window = hint / 512;
                if hint % 512 == 0
                    && self.mem.next_compaction_candidate(window, window + 1) == Some(window)
                {
                    if let CompactionOutcome::Freed { relocations } = self.mem.compact_window(
                        Pfn::new(hint),
                        9,
                        FrameKind::Movable,
                        DIRECT_COMPACTION_BUDGET,
                    ) {
                        self.apply_relocations(&relocations);
                        self.spaces[sid].hint_2m = Some(hint + 512);
                        self.spaces[sid].stats.compactions += 1;
                        return Some((Pfn::new(hint), true));
                    }
                }
            }
        }
        if let Ok(pfn) = self.mem.alloc_page(PageSize::Size2M, FrameKind::Movable) {
            self.spaces[sid].hint_2m = Some(pfn.raw() + 512);
            return Some((pfn, false));
        }
        let windows = self.mem.total_frames() / 512;
        if windows == 0 {
            return None;
        }
        let start = self.spaces[sid].scan_cursor % windows;
        let mut examined = 0u32;
        // Cyclic order from `start`: up to the last window, then round.
        for (from, to) in [(start, windows), (0, start)] {
            let mut next = from;
            while let Some(window) = self.mem.next_compaction_candidate(next, to) {
                next = window + 1;
                examined += 1;
                let base = Pfn::new(window * 512);
                self.spaces[sid].scan_cursor = next % windows;
                match self
                    .mem
                    .compact_window(base, 9, FrameKind::Movable, DIRECT_COMPACTION_BUDGET)
                {
                    CompactionOutcome::Freed { relocations } => {
                        self.apply_relocations(&relocations);
                        self.spaces[sid].hint_2m = Some(base.raw() + 512);
                        return Some((base, true));
                    }
                    CompactionOutcome::NoSpace => return None,
                    _ if examined == COMPACTION_SCAN_LIMIT => return None,
                    _ => {}
                }
            }
        }
        self.spaces[sid].scan_cursor = start;
        None
    }

    /// Updates page tables and the reverse map after compaction moved
    /// movable blocks. Blocks without an owner (e.g. `memhog` data) need no
    /// page-table update.
    fn apply_relocations(&mut self, relocations: &[(Pfn, Pfn, u8)]) {
        for &(old, new, _order) in relocations {
            let packed = self.rmap[old.raw() as usize];
            if let Some(FrameOwner { space, size, vpn }) = FrameOwner::unpack(packed) {
                #[expect(
                    clippy::expect_used,
                    reason = "reverse-map entries are maintained to point at live mappings"
                )]
                self.spaces[space]
                    .page_table
                    .remap(vpn, size, new)
                    .expect("reverse map points at a live mapping");
                self.rmap[old.raw() as usize] = 0;
                self.rmap[new.raw() as usize] = packed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ThsConfig;
    use mixtlb_mem::{Memhog, MemhogConfig, MemoryConfig};

    fn kernel_mb(mb: u64) -> Kernel {
        Kernel::new(PhysicalMemory::new(MemoryConfig::with_bytes(mb << 20)))
    }

    fn rw() -> Permissions {
        Permissions::rw_user()
    }

    #[test]
    fn small_only_maps_4k() {
        let mut k = kernel_mb(64);
        let s = k.create_space(PagingPolicy::SmallOnly);
        k.mmap(s, Vpn::new(0x400), 1024, rw()).unwrap();
        assert_eq!(k.fault_all(s), 1024);
        assert_eq!(k.space(s).page_table().mapped_counts(), (1024, 0, 0));
        assert_eq!(k.space(s).stats().mapped_4k, 1024);
    }

    #[test]
    fn mutable_space_access_reaches_page_table() {
        let mut k = kernel_mb(64);
        let s = k.create_space(PagingPolicy::SmallOnly);
        assert_eq!(k.space_count(), 1);
        k.mmap(s, Vpn::new(0x400), 16, rw()).unwrap();
        assert_eq!(k.fault_all(s), 16);
        // The mutable accessors expose the live table: dirtying a mapped
        // page through them must report the backing PTE address.
        let pa = k.space_mut(s).page_table_mut().set_dirty(Vpn::new(0x400));
        assert!(pa.is_some(), "mapped vpn must have a PTE to dirty");
    }

    #[test]
    fn ths_maps_2m_on_clean_memory() {
        let mut k = kernel_mb(64);
        let s = k.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
        k.mmap(s, Vpn::new(0x400), 2048, rw()).unwrap();
        k.fault_all(s);
        assert_eq!(k.space(s).page_table().mapped_counts(), (0, 4, 0));
        // Contiguity: 4 adjacent virtual superpages got adjacent frames.
        let pt = k.space(s).page_table();
        let mut leaves = Vec::new();
        pt.for_each_leaf(|t| leaves.push(*t));
        for pair in leaves.windows(2) {
            assert!(pair[0].is_coalescible_successor(&pair[1]));
        }
    }

    #[test]
    fn ths_unaligned_edges_fall_back_to_4k() {
        let mut k = kernel_mb(64);
        let s = k.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
        // VMA [100, 1224): covers 2 MB region [512, 1024) fully; edges are 4 KB.
        k.mmap(s, Vpn::new(100), 1124, rw()).unwrap();
        k.fault_all(s);
        let (p4k, p2m, _) = k.space(s).page_table().mapped_counts();
        assert_eq!(p2m, 1);
        assert_eq!(p4k, 1124 - 512);
    }

    #[test]
    fn hugetlbfs_pool_serves_then_falls_back() {
        let mut k = kernel_mb(64);
        // Pool of exactly two 2 MB pages.
        let s = k.create_space(PagingPolicy::Hugetlbfs {
            size: PageSize::Size2M,
            pool_bytes: 4 << 20,
        });
        assert_eq!(k.space(s).pool_remaining(), 2);
        k.mmap(s, Vpn::new(0x400), 512 * 3, rw()).unwrap();
        k.fault_all(s);
        let (p4k, p2m, _) = k.space(s).page_table().mapped_counts();
        assert_eq!(p2m, 2);
        assert_eq!(p4k, 512);
        assert_eq!(k.space(s).stats().pool_hits, 2);
        assert_eq!(k.space(s).pool_remaining(), 0);
    }

    #[test]
    fn fragmentation_forces_small_pages_and_compaction_recovers_some() {
        let mut k = kernel_mb(128);
        // The hog is never released: compaction will migrate its chunks.
        let _hog = Memhog::fragment(
            k.mem_mut(),
            MemhogConfig {
                chunk_order: 4,
                unmovable_share: 0.08,
                seed: 7,
                ..MemhogConfig::with_fraction(0.5)
            },
        );
        // Footprint nearly fills the remaining memory, so the clean windows
        // run out and some regions must fall back to 4 KB pages.
        let s = k.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
        k.mmap(s, Vpn::new(0), 15_000, rw()).unwrap();
        k.fault_all(s);
        let stats = k.space(s).stats();
        let (p4k, p2m, _) = k.space(s).page_table().mapped_counts();
        assert!(p2m > 0, "some 2 MB pages expected, got {stats:?}");
        assert!(p4k > 0, "heavy fragmentation must force some 4 KB pages");
        assert!(stats.compactions > 0, "compaction should have fired: {stats:?}");
    }

    #[test]
    fn compaction_updates_page_tables_of_relocated_pages() {
        let mut k = kernel_mb(64); // 32 windows of 2 MB
        // Space A maps 512 pages; its page-table frames plus most data land
        // in window 0, and a handful of movable data pages spill into
        // window 1 — the compactable window.
        let a = k.create_space(PagingPolicy::SmallOnly);
        k.mmap(a, Vpn::new(0), 512, rw()).unwrap();
        k.fault_all(a);
        let spill: Vec<u64> = {
            let mut v = Vec::new();
            k.space(a).page_table().for_each_leaf(|t| {
                if t.pfn.raw() >= 512 && t.pfn.raw() < 1024 {
                    v.push(t.vpn.raw());
                }
            });
            v
        };
        assert!(!spill.is_empty(), "expected A pages spilling into window 1");
        // Pin windows 2..=30 entirely, and poke one unmovable frame into
        // window 31 so no aligned free 2 MB block remains anywhere, while
        // plenty of scattered free frames exist.
        for w in 2..=30u64 {
            k.mem_mut()
                .alloc_block_at(Pfn::new(w * 512), 9, FrameKind::Unmovable)
                .unwrap();
        }
        k.mem_mut()
            .alloc_block_at(Pfn::new(31 * 512), 0, FrameKind::Unmovable)
            .unwrap();
        assert_eq!(k.mem().stats().free_2m_blocks, 0);
        // B's 2 MB fault must go through *direct* compaction of window 1
        // (background/khugepaged compaction disabled so the fault path is
        // the one exercised).
        let b = k.create_space(PagingPolicy::TransparentHuge(ThsConfig {
            daemon_budget_share: 0.0,
        }));
        k.mmap(b, Vpn::new(0x8000), 512, rw()).unwrap();
        k.fault_all(b);
        let (_, p2m, _) = k.space(b).page_table().mapped_counts();
        assert_eq!(p2m, 1, "compaction should have freed a window");
        assert_eq!(k.space(b).stats().compactions, 1);
        // A's spilled pages were relocated out of window 1 and A's page
        // table was updated to their new frames.
        let mut count = 0;
        k.space(a).page_table().for_each_leaf(|t| {
            count += 1;
            if spill.contains(&t.vpn.raw()) {
                assert!(
                    t.pfn.raw() < 512 || t.pfn.raw() >= 1024,
                    "page {} still maps into the compacted window",
                    t.vpn
                );
            }
        });
        assert_eq!(count, 512);
    }

    #[test]
    fn fallback_scan_walks_candidates_cyclically_from_the_cursor() {
        let mut k = kernel_mb(64); // 32 windows of 2 MB
        let s = k.create_space(PagingPolicy::TransparentHuge(ThsConfig {
            daemon_budget_share: 0.0,
        }));
        k.mmap(s, Vpn::new(0), 4 * 512, rw()).unwrap();
        // No window is free: each holds one pinned frame, except the
        // candidates 3, 10 and 20, which hold one movable frame.
        for w in 0..32u64 {
            let kind = if [3, 10, 20].contains(&w) {
                FrameKind::Movable
            } else {
                FrameKind::Unmovable
            };
            k.mem_mut()
                .alloc_block_at(Pfn::new(w * 512), 0, kind)
                .unwrap();
        }
        let fault_window = |k: &mut Kernel, region: u64| {
            let t = k.fault(s, Vpn::new(region * 512)).unwrap();
            assert_eq!(t.size, PageSize::Size2M);
            t.pfn.raw() / 512
        };
        assert_eq!(fault_window(&mut k, 0), 3);
        assert_eq!(fault_window(&mut k, 1), 10);
        // Window 5 turns into a candidate behind the cursor: the scan
        // still continues forward to 20, then wraps round to 5.
        k.mem_mut().free_block(Pfn::new(5 * 512), 0);
        k.mem_mut()
            .alloc_block_at(Pfn::new(5 * 512), 0, FrameKind::Movable)
            .unwrap();
        assert_eq!(fault_window(&mut k, 2), 20);
        assert_eq!(fault_window(&mut k, 3), 5);
        assert_eq!(k.space(s).stats().compactions, 4);
    }

    #[test]
    fn unmap_frees_and_allows_refault() {
        let mut k = kernel_mb(64);
        let s = k.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
        k.mmap(s, Vpn::new(0x400), 512, rw()).unwrap();
        k.fault_all(s);
        let free_before = k.mem().free_frames();
        let removed = k.unmap_page(s, Vpn::new(0x450)).unwrap();
        assert_eq!(removed.size, PageSize::Size2M);
        assert_eq!(k.mem().free_frames(), free_before + 512);
        // Re-fault maps it again.
        let t = k.fault(s, Vpn::new(0x450)).unwrap();
        assert_eq!(t.size, PageSize::Size2M);
    }

    #[test]
    fn fault_outside_vma_errors() {
        let mut k = kernel_mb(64);
        let s = k.create_space(PagingPolicy::SmallOnly);
        assert_eq!(k.fault(s, Vpn::new(0x123)), Err(FaultError::NoVma));
    }

    #[test]
    fn boot_pools_survive_fragmentation() {
        let mut k = kernel_mb(64);
        // Reserve 8 MB of 2 MB pages at "boot", then fragment heavily.
        let pool = k.reserve_boot_pool(PageSize::Size2M, 8 << 20);
        assert_eq!(pool.len(), 4);
        // Pool pages are physically contiguous (reserved on pristine memory).
        for pair in pool.windows(2) {
            assert_eq!(pair[1].raw(), pair[0].raw() + 512);
        }
        let _hog = Memhog::fragment(k.mem_mut(), MemhogConfig::with_fraction(0.6).seed(3));
        let s = k.create_space_with_pool(
            PagingPolicy::Hugetlbfs {
                size: PageSize::Size2M,
                pool_bytes: 8 << 20,
            },
            PageSize::Size2M,
            pool,
        );
        k.mmap(s, Vpn::new(0x400), 4 * 512, rw()).unwrap();
        k.fault_all(s);
        let (_, p2m, _) = k.space(s).page_table().mapped_counts();
        assert_eq!(p2m, 4, "all faults served from the boot pool");
        assert_eq!(k.space(s).stats().pool_hits, 4);
    }

    #[test]
    fn splinter_preserves_translation_and_frames() {
        let mut k = kernel_mb(64);
        let s = k.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
        k.mmap(s, Vpn::new(0x400), 512, rw()).unwrap();
        k.fault_all(s);
        let before = k.space(s).page_table().lookup(Vpn::new(0x450)).unwrap();
        assert_eq!(before.size, PageSize::Size2M);
        k.splinter(s, Vpn::new(0x400)).unwrap();
        let (p4k, p2m, _) = k.space(s).page_table().mapped_counts();
        assert_eq!((p4k, p2m), (512, 0));
        // Every 4 KB page maps to the same frame it had inside the
        // superpage.
        for off in [0u64, 1, 80, 511] {
            let t = k.space(s).page_table().lookup(Vpn::new(0x400 + off)).unwrap();
            assert_eq!(t.size, PageSize::Size4K);
            assert_eq!(Some(t.pfn), before.frame_for(Vpn::new(0x400 + off)));
        }
        // Splintering a non-superpage errors.
        assert!(k.splinter(s, Vpn::new(0x400)).is_err());
    }

    #[test]
    fn oom_is_reported() {
        let mut k = kernel_mb(1);
        let s = k.create_space(PagingPolicy::SmallOnly);
        k.mmap(s, Vpn::new(0), 1024, rw()).unwrap();
        let mapped = k.fault_all(s);
        assert!(mapped < 1024);
        assert_eq!(k.fault(s, Vpn::new(1023)), Err(FaultError::OutOfMemory));
    }
}
