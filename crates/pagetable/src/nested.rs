//! Two-dimensional (nested) page-table walks for virtualized systems.
//!
//! Under virtualization a guest virtual address is translated twice: guest
//! virtual → guest physical through the guest page table, and every guest
//! physical address (including the guest's own PTE locations) → system
//! physical through the host (EPT/NPT) table. An x86 nested walk of two
//! 4-level tables therefore reads up to 24 PTEs — 4 guest levels × (4 host
//! PTE reads + 1 guest PTE read) + 4 host reads for the final data address
//! (paper Sec. 2).

use mixtlb_types::{AccessKind, PageSize, PhysAddr, Translation, VirtAddr, Vpn};

use crate::table::{Entry, PageTable};
use crate::bounded::Bounded;
use crate::walker::{LineLeaves, Walker, NO_ADDR, NO_LEAF};

/// Result of one nested walk.
#[derive(Debug, Clone)]
pub struct NestedWalkResult {
    /// The combined guest-virtual → system-physical translation, valid over
    /// the *smaller* of the guest and host page sizes (page-size
    /// splintering), or `None` on a fault in either dimension.
    pub translation: Option<Translation>,
    /// The guest page size, when the guest walk completed.
    pub guest_size: Option<PageSize>,
    /// The host page size backing the data page, when the walk completed.
    pub host_size: Option<PageSize>,
    /// System-physical addresses of every PTE read (guest PTE reads appear
    /// at their host-translated addresses).
    pub pte_reads: Bounded<PhysAddr, 24>,
    /// System-physical addresses of PTE writes (A/D updates in both
    /// dimensions: one per host walk and one for the guest leaf).
    pub pte_writes: Bounded<PhysAddr, 8>,
    /// Leaf translations (guest-virtual → system-physical, splintered size)
    /// co-resident in the guest leaf's PTE cache line and contiguous in
    /// *both* dimensions — what nested MIX TLB coalescing can use.
    pub line_translations: Bounded<Translation, 8>,
}

impl NestedWalkResult {
    /// Returns `true` if the walk ended in a fault in either dimension.
    pub fn is_fault(&self) -> bool {
        self.translation.is_none()
    }
}

/// A cache of guest-physical → system-physical translations consulted
/// before each host walk of a nested traversal — the *nested TLB* real
/// MMUs (e.g. AMD NPT hardware) maintain, which is what keeps 2-D walks
/// from paying the full 24 references every time.
pub trait NestedTranslationCache {
    /// Returns a cached host mapping covering the guest-physical page, if
    /// any. Must return exactly what a host walk would.
    fn lookup_gpa(&mut self, gpn: mixtlb_types::Vpn) -> Option<Translation>;

    /// Caches a host mapping discovered by a walk (with the PTE line its
    /// walk fetched, for coalescing nested TLBs).
    fn fill_gpa(&mut self, gpn: mixtlb_types::Vpn, t: &Translation, line: &[Translation]);
}

/// A no-op cache: every guest-physical access pays a full host walk.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoNestedCache;

impl NestedTranslationCache for NoNestedCache {
    fn lookup_gpa(&mut self, _gpn: mixtlb_types::Vpn) -> Option<Translation> {
        None
    }

    fn fill_gpa(&mut self, _gpn: mixtlb_types::Vpn, _t: &Translation, _line: &[Translation]) {}
}

/// Walks a guest page table through a host (nested) page table.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedWalker;

impl NestedWalker {
    /// Performs the 2-D walk of `gva` with no nested TLB (the canonical
    /// worst-case reference counts: up to 24 PTE reads).
    ///
    /// A/D bits are maintained in both tables: the guest leaf like a native
    /// walk, and the host leaves for each translated guest-physical access.
    pub fn walk(
        guest: &mut PageTable,
        host: &mut PageTable,
        gva: VirtAddr,
        access: AccessKind,
    ) -> NestedWalkResult {
        Self::walk_cached(guest, host, gva, access, &mut NoNestedCache)
    }

    /// Performs the 2-D walk of `gva`, consulting `ncache` before each
    /// host traversal (guest PTE reads and the final data read).
    pub fn walk_cached(
        guest: &mut PageTable,
        host: &mut PageTable,
        gva: VirtAddr,
        access: AccessKind,
        ncache: &mut dyn NestedTranslationCache,
    ) -> NestedWalkResult {
        let vpn = gva.vpn();
        let mut pte_reads = Bounded::new(NO_ADDR);
        let mut pte_writes = Bounded::new(NO_ADDR);
        let mut node = 0usize;
        for level in (0..=3u8).rev() {
            let idx = PageTable::index_at(vpn, level);
            let node_pfn = guest.nodes()[node].pfn;
            let gpa_pte = PhysAddr::pte_address(node_pfn, idx);
            // The guest PTE lives at a guest-physical address: translate it
            // through the host table (a full host walk).
            let gpn = mixtlb_types::Vpn::new(gpa_pte.pfn().raw());
            let host_mapping = match ncache.lookup_gpa(gpn) {
                Some(t) => Some(t),
                None => {
                    let host_walk =
                        Walker::walk(host, VirtAddr::new(gpa_pte.raw()), AccessKind::Load);
                    pte_reads.extend_from_slice(&host_walk.pte_reads);
                    pte_writes.extend_from_slice(&host_walk.pte_writes);
                    if let Some(t) = &host_walk.translation {
                        ncache.fill_gpa(gpn, t, &host_walk.line_translations);
                    }
                    host_walk.translation
                }
            };
            let spa_pte = match &host_mapping {
                #[expect(
                    clippy::expect_used,
                    reason = "the host table is pre-faulted to cover every guest page-table frame"
                )]
                Some(t) => t
                    .translate(VirtAddr::new(gpa_pte.raw()))
                    .expect("host leaf covers the guest PTE address"),
                None => {
                    return Self::fault_result(pte_reads, pte_writes);
                }
            };
            // The guest PTE read itself, at its system-physical address.
            pte_reads.push(PhysAddr::new(spa_pte.raw()));
            let entry = guest.nodes()[node].entries[idx];
            match entry {
                Entry::Empty => return Self::fault_result(pte_reads, pte_writes),
                Entry::Table(child) => node = child,
                Entry::Leaf(_) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "the walker only yields leaf entries at levels 0-2"
                    )]
                    let gsize = PageSize::from_level(level)
                        .expect("leaf entries exist only at levels 0-2");
                    // Guest A/D update.
                    if let Entry::Leaf(leaf) = guest.node_entry_mut(node, idx) {
                        if leaf.touch(access) {
                            pte_writes.push(PhysAddr::new(spa_pte.raw()));
                        }
                    }
                    let gleaf = match &guest.nodes()[node].entries[idx] {
                        Entry::Leaf(leaf) => *leaf,
                        _ => unreachable!("guest leaf vanished mid-walk"),
                    };
                    let gtrans = gleaf.translation(vpn.align_down(gsize), gsize);
                    // Final host walk for the data's guest-physical address
                    // (through the nested TLB too). Stores must still reach
                    // the host PTE's dirty bit, so they bypass the cache.
                    #[expect(
                        clippy::expect_used,
                        reason = "the guest walk just produced this covering leaf"
                    )]
                    let data_gpa = gtrans
                        .translate(gva)
                        .expect("guest leaf covers the request");
                    let data_gpn = mixtlb_types::Vpn::new(data_gpa.pfn().raw());
                    let cached = if access.is_store() {
                        None
                    } else {
                        ncache.lookup_gpa(data_gpn)
                    };
                    let htrans = match cached {
                        Some(t) => t,
                        None => {
                            let final_walk =
                                Walker::walk(host, VirtAddr::new(data_gpa.raw()), access);
                            pte_reads.extend_from_slice(&final_walk.pte_reads);
                            pte_writes.extend_from_slice(&final_walk.pte_writes);
                            match final_walk.translation {
                                Some(t) => {
                                    ncache.fill_gpa(data_gpn, &t, &final_walk.line_translations);
                                    t
                                }
                                None => return Self::fault_result(pte_reads, pte_writes),
                            }
                        }
                    };
                    let combined = Self::combine(vpn, &gtrans, host);
                    let line_translations =
                        Self::combine_line(guest, host, node, idx, level, vpn);
                    return NestedWalkResult {
                        translation: combined,
                        guest_size: Some(gsize),
                        host_size: Some(htrans.size),
                        pte_reads,
                        pte_writes,
                        line_translations,
                    };
                }
            }
        }
        unreachable!("nested walk descended past level 0");
    }

    /// Builds the combined (splintered) translation for the guest page
    /// containing `vpn`, or `None` if the host does not map the data page.
    fn combine(vpn: Vpn, gtrans: &Translation, host: &PageTable) -> Option<Translation> {
        let data_gpn = gtrans.frame_for(vpn)?;
        let htrans = host.lookup(Vpn::new(data_gpn.raw()))?;
        let combined_size = gtrans.size.min(htrans.size);
        let base_vpn = vpn.align_down(combined_size);
        let base_gpn = gtrans.frame_for(base_vpn)?;
        let base_spn = htrans.frame_for(Vpn::new(base_gpn.raw()))?;
        Some(Translation {
            vpn: base_vpn,
            pfn: base_spn,
            size: combined_size,
            perms: gtrans.perms & htrans.perms,
            accessed: true,
            dirty: gtrans.dirty && htrans.dirty,
        })
    }

    /// Combined translations for the guest leaf's cache line, for nested
    /// coalescing. Only entries whose host backing exists are included.
    fn combine_line(
        guest: &PageTable,
        host: &PageTable,
        node: usize,
        idx: usize,
        level: u8,
        vpn: Vpn,
    ) -> LineLeaves {
        let line_start = idx & !7;
        let pages_per_entry = 1u64 << (9 * u64::from(level));
        let node_base = vpn.align_down_pages(pages_per_entry << 9);
        let mut out = Bounded::new(NO_LEAF);
        for i in line_start..line_start + 8 {
            if let Entry::Leaf(leaf) = &guest.nodes()[node].entries[i] {
                if let Some(gsize) = PageSize::from_level(level) {
                    let entry_vpn = node_base.add_4k((i as u64) * pages_per_entry);
                    let gtrans = leaf.translation(entry_vpn, gsize);
                    if let Some(combined) = Self::combine(entry_vpn, &gtrans, host) {
                        out.push(combined);
                    }
                }
            }
        }
        out
    }

    /// Builds the nested-fault result. Faults leave the replay loop for
    /// the OS fault handler, so this constructor is off the hot path.
    #[cold]
    fn fault_result(pte_reads: Bounded<PhysAddr, 24>, pte_writes: Bounded<PhysAddr, 8>) -> NestedWalkResult {
        NestedWalkResult {
            translation: None,
            guest_size: None,
            host_size: None,
            pte_reads,
            pte_writes,
            line_translations: Bounded::new(NO_LEAF),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::BumpFrameSource;
    use mixtlb_types::{Permissions, Pfn};

    fn rw() -> Permissions {
        Permissions::rw_user()
    }

    /// Builds a guest table (nodes in guest-physical frames from 0x1000)
    /// and a host table (nodes in system-physical frames from 0x8000)
    /// where the host identity-maps guest-physical memory with `hsize`
    /// pages at a fixed offset.
    fn setup(hsize: PageSize, hoffset: u64) -> (PageTable, PageTable) {
        let mut gframes = BumpFrameSource::new(0x1000);
        let guest = PageTable::new(&mut gframes);
        let mut hframes = BumpFrameSource::new(0x80_0000);
        let mut host = PageTable::new(&mut hframes);
        // Map guest-physical [0, 64 MB) through the host at `hoffset`.
        let span = 16_384u64; // 64 MB in 4 KB frames
        let step = hsize.pages_4k();
        let mut gpn = 0;
        while gpn < span {
            host.map(
                Translation::new(Vpn::new(gpn), Pfn::new(hoffset + gpn), hsize, rw()),
                &mut hframes,
            )
            .unwrap();
            gpn += step;
        }
        (guest, host)
    }

    #[test]
    fn canonical_24_reference_walk() {
        let (mut guest, mut host) = setup(PageSize::Size4K, 0x10_0000);
        let mut gframes = BumpFrameSource::new(0x2000);
        guest
            .map(
                Translation::new(Vpn::new(5), Pfn::new(0x50), PageSize::Size4K, rw()),
                &mut gframes,
            )
            .unwrap();
        let w = NestedWalker::walk(&mut guest, &mut host, VirtAddr::new(5 * 4096), AccessKind::Load);
        assert!(!w.is_fault());
        // 4 guest levels x (4 host + 1 guest) + 4 final host = 24.
        assert_eq!(w.pte_reads.len(), 24);
        assert_eq!(w.guest_size, Some(PageSize::Size4K));
        assert_eq!(w.host_size, Some(PageSize::Size4K));
    }

    #[test]
    fn combined_translation_is_correct() {
        let (mut guest, mut host) = setup(PageSize::Size4K, 0x10_0000);
        let mut gframes = BumpFrameSource::new(0x2000);
        guest
            .map(
                Translation::new(Vpn::new(5), Pfn::new(0x50), PageSize::Size4K, rw()),
                &mut gframes,
            )
            .unwrap();
        let gva = VirtAddr::new(5 * 4096 + 0x123);
        let w = NestedWalker::walk(&mut guest, &mut host, gva, AccessKind::Load);
        let t = w.translation.unwrap();
        // gva → gpa frame 0x50 → spa frame 0x10_0000 + 0x50.
        assert_eq!(t.translate(gva).unwrap().raw(), (0x10_0000 + 0x50) * 4096 + 0x123);
    }

    #[test]
    fn splintering_takes_the_smaller_size() {
        // Guest maps a 2 MB page; host backs memory with 4 KB pages.
        let (mut guest, mut host) = setup(PageSize::Size4K, 0x10_0000);
        let mut gframes = BumpFrameSource::new(0x2000);
        guest
            .map(
                Translation::new(Vpn::new(0x400), Pfn::new(0x800), PageSize::Size2M, rw()),
                &mut gframes,
            )
            .unwrap();
        let w = NestedWalker::walk(
            &mut guest,
            &mut host,
            VirtAddr::new(0x400 * 4096),
            AccessKind::Load,
        );
        assert_eq!(w.guest_size, Some(PageSize::Size2M));
        assert_eq!(w.host_size, Some(PageSize::Size4K));
        assert_eq!(w.translation.unwrap().size, PageSize::Size4K);
    }

    #[test]
    fn matched_superpages_stay_super() {
        let (mut guest, mut host) = setup(PageSize::Size2M, 0x10_0000);
        let mut gframes = BumpFrameSource::new(0x2000);
        guest
            .map(
                Translation::new(Vpn::new(0x400), Pfn::new(0x800), PageSize::Size2M, rw()),
                &mut gframes,
            )
            .unwrap();
        let gva = VirtAddr::new(0x400 * 4096 + 0x777);
        let w = NestedWalker::walk(&mut guest, &mut host, gva, AccessKind::Load);
        let t = w.translation.unwrap();
        assert_eq!(t.size, PageSize::Size2M);
        assert_eq!(t.translate(gva).unwrap().raw(), (0x10_0000 + 0x800) * 4096 + 0x777);
        // Fewer reads: the guest's 2 MB leaf cuts one guest level, and the
        // host's 2 MB leaves cut one read per host walk:
        // 3 guest levels x (3 host + 1 guest) + 3 final host = 15.
        assert_eq!(w.pte_reads.len(), 15);
    }

    #[test]
    fn host_fault_propagates() {
        let (mut guest, mut host) = setup(PageSize::Size4K, 0x10_0000);
        let mut gframes = BumpFrameSource::new(0x2000);
        // Guest maps data at a guest-physical frame the host does not back.
        guest
            .map(
                Translation::new(Vpn::new(7), Pfn::new(1 << 24), PageSize::Size4K, rw()),
                &mut gframes,
            )
            .unwrap();
        let w = NestedWalker::walk(&mut guest, &mut host, VirtAddr::new(7 * 4096), AccessKind::Load);
        assert!(w.is_fault());
    }

    #[test]
    fn guest_fault_propagates() {
        let (mut guest, mut host) = setup(PageSize::Size4K, 0x10_0000);
        let w = NestedWalker::walk(&mut guest, &mut host, VirtAddr::new(0x9000), AccessKind::Load);
        assert!(w.is_fault());
        // Only the first guest PTE was attempted: 4 host reads + 1 guest read.
        assert_eq!(w.pte_reads.len(), 5);
    }

    #[test]
    fn nested_line_translations_require_both_dimensions_contiguous() {
        let (mut guest, mut host) = setup(PageSize::Size2M, 0x10_0000);
        let mut gframes = BumpFrameSource::new(0x2000);
        // Two adjacent guest 2 MB pages, contiguous in guest-physical too.
        for i in 0..2u64 {
            guest
                .map(
                    Translation::new(
                        Vpn::new(0x400 + i * 512),
                        Pfn::new(0x800 + i * 512),
                        PageSize::Size2M,
                        rw(),
                    ),
                    &mut gframes,
                )
                .unwrap();
        }
        let w = NestedWalker::walk(
            &mut guest,
            &mut host,
            VirtAddr::new(0x400 * 4096),
            AccessKind::Load,
        );
        let line = w.line_translations;
        assert_eq!(line.len(), 2);
        assert!(line[0].is_coalescible_successor(&line[1]));
    }

    #[test]
    fn store_dirties_both_dimensions() {
        let (mut guest, mut host) = setup(PageSize::Size4K, 0x10_0000);
        let mut gframes = BumpFrameSource::new(0x2000);
        guest
            .map(
                Translation::new(Vpn::new(5), Pfn::new(0x50), PageSize::Size4K, rw()),
                &mut gframes,
            )
            .unwrap();
        let w = NestedWalker::walk(&mut guest, &mut host, VirtAddr::new(5 * 4096), AccessKind::Store);
        assert!(!w.is_fault());
        assert!(guest.lookup(Vpn::new(5)).unwrap().dirty);
        assert!(host.lookup(Vpn::new(0x50)).unwrap().dirty);
        assert!(!w.pte_writes.is_empty());
    }
}
