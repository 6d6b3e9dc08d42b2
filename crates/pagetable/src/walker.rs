//! The hardware page-table walker.

use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, PhysAddr, Translation, VirtAddr, Vpn};

use crate::bounded::Bounded;
use crate::table::{Entry, PageTable};

/// Filler for the unused slots of an address buffer.
pub(crate) const NO_ADDR: PhysAddr = PhysAddr::new(0);

/// Filler for the unused slots of a PTE-line buffer.
pub(crate) const NO_LEAF: Translation = Translation {
    vpn: Vpn::new(0),
    pfn: Pfn::new(0),
    size: PageSize::Size4K,
    perms: Permissions::from_bits(0),
    accessed: false,
    dirty: false,
};

/// The leaf translations of one 64-byte PTE cache line (8 PTEs).
pub(crate) type LineLeaves = Bounded<Translation, 8>;

/// The outcome of one hardware page-table walk.
#[derive(Debug, Clone)]
pub struct WalkResult {
    /// The translation found, or `None` on a page fault.
    pub translation: Option<Translation>,
    /// Physical addresses of the PTEs read, in order (root first). These are
    /// the memory references that hit or miss in the cache hierarchy.
    pub pte_reads: Bounded<PhysAddr, 4>,
    /// Physical addresses of PTE *writes* performed by the walker: accessed
    /// and dirty bit updates (the paper's dirty-bit micro-ops, Sec. 4.4).
    pub pte_writes: Bounded<PhysAddr, 2>,
    /// All leaf translations residing in the same 64-byte PTE cache line as
    /// the requested leaf, in ascending virtual-address order (the requested
    /// translation included). This is the 8-PTE window the MIX TLB
    /// coalescing logic scans on a fill (paper Fig. 3).
    pub line_translations: Bounded<Translation, 8>,
}

impl WalkResult {
    /// Returns `true` if the walk ended in a page fault.
    pub fn is_fault(&self) -> bool {
        self.translation.is_none()
    }
}

/// The hardware walker. Stateless; all state lives in the [`PageTable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Walker;

impl Walker {
    /// Walks `pt` for `va`, applying x86 accessed/dirty semantics: the
    /// accessed bit of the leaf is set (a PTE write if it was clear), and a
    /// store sets the dirty bit (another PTE write if it was clear).
    pub fn walk(pt: &mut PageTable, va: VirtAddr, access: AccessKind) -> WalkResult {
        let vpn = va.vpn();
        let mut pte_reads = Bounded::new(NO_ADDR);
        let mut pte_writes = Bounded::new(NO_ADDR);
        let mut node = 0usize;
        for level in (0..=3u8).rev() {
            let idx = PageTable::index_at(vpn, level);
            let node_pfn = pt.nodes()[node].pfn;
            let pte_addr = PhysAddr::pte_address(node_pfn, idx);
            pte_reads.push(pte_addr);
            let entry = pt.nodes()[node].entries[idx];
            match entry {
                Entry::Empty => {
                    return Self::fault_result(pte_reads, pte_writes);
                }
                Entry::Table(child) => {
                    node = child;
                }
                Entry::Leaf(_) => {
                    let size = match PageSize::from_level(level) {
                        Some(size) => size,
                        // A leaf at PML4 level is architecturally impossible.
                        None => unreachable!("leaf entry at level {level}"),
                    };
                    // Update A/D bits in place.
                    if let Entry::Leaf(leaf) = pt.node_entry_mut(node, idx) {
                        if leaf.touch(access) {
                            pte_writes.push(pte_addr);
                        }
                    }
                    let line_translations = Self::line_leaves(pt, node, idx, level, vpn);
                    let leaf = match &pt.nodes()[node].entries[idx] {
                        Entry::Leaf(leaf) => *leaf,
                        _ => unreachable!("leaf vanished mid-walk"),
                    };
                    return WalkResult {
                        translation: Some(leaf.translation(vpn.align_down(size), size)),
                        pte_reads,
                        pte_writes,
                        line_translations,
                    };
                }
            }
        }
        unreachable!("walk descended past level 0");
    }

    /// Builds the page-fault result. Faults leave the replay loop for the
    /// OS fault handler, so this constructor is off the hot path.
    #[cold]
    fn fault_result(pte_reads: Bounded<PhysAddr, 4>, pte_writes: Bounded<PhysAddr, 2>) -> WalkResult {
        WalkResult {
            translation: None,
            pte_reads,
            pte_writes,
            line_translations: Bounded::new(NO_LEAF),
        }
    }

    /// Collects the leaf translations in the 8-PTE cache line around the
    /// leaf at `(node, idx)`.
    fn line_leaves(
        pt: &PageTable,
        node: usize,
        idx: usize,
        level: u8,
        vpn: Vpn,
    ) -> LineLeaves {
        let line_start = idx & !7;
        let pages_per_entry = 1u64 << (9 * u64::from(level));
        // VPN of entry 0 of this node at this level's granularity.
        let node_base = vpn.align_down_pages(pages_per_entry << 9);
        let mut out = Bounded::new(NO_LEAF);
        for i in line_start..line_start + 8 {
            if let Entry::Leaf(leaf) = &pt.nodes()[node].entries[i] {
                if let Some(size) = PageSize::from_level(level) {
                    out.push(leaf.translation(node_base.add_4k((i as u64) * pages_per_entry), size));
                }
            }
        }
        out
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

    fn setup() -> (PageTable, BumpFrameSource) {
        let mut frames = BumpFrameSource::new(0x10_0000);
        let pt = PageTable::new(&mut frames);
        (pt, frames)
    }

    #[test]
    fn walk_depth_matches_page_size() {
        let (mut pt, mut frames) = setup();
        pt.map(
            Translation::new(Vpn::new(1), Pfn::new(10), PageSize::Size4K, rw()),
            &mut frames,
        )
        .unwrap();
        pt.map(
            Translation::new(Vpn::new(0x400), Pfn::new(0x400), PageSize::Size2M, rw()),
            &mut frames,
        )
        .unwrap();
        pt.map(
            Translation::new(
                Vpn::new(1 << 18),
                Pfn::new(1 << 18),
                PageSize::Size1G,
                rw(),
            ),
            &mut frames,
        )
        .unwrap();
        let w4k = Walker::walk(&mut pt, VirtAddr::new(0x1000), AccessKind::Load);
        assert_eq!(w4k.pte_reads.len(), 4);
        let w2m = Walker::walk(&mut pt, VirtAddr::new(0x0040_0000), AccessKind::Load);
        assert_eq!(w2m.pte_reads.len(), 3); // PML4 + PDPT + PD leaf
        let w1g = Walker::walk(&mut pt, VirtAddr::new(1 << 30), AccessKind::Load);
        assert_eq!(w1g.pte_reads.len(), 2); // PML4 + PDPT leaf
        assert_eq!(w1g.translation.unwrap().size, PageSize::Size1G);
    }

    #[test]
    fn fault_reports_partial_reads() {
        let (mut pt, _frames) = setup();
        let w = Walker::walk(&mut pt, VirtAddr::new(0x1234_5000), AccessKind::Load);
        assert!(w.is_fault());
        assert_eq!(w.pte_reads.len(), 1); // stopped at the empty PML4 slot
    }

    #[test]
    fn accessed_and_dirty_bits_follow_x86() {
        let (mut pt, mut frames) = setup();
        let mut t = Translation::new(Vpn::new(1), Pfn::new(10), PageSize::Size4K, rw());
        t.accessed = false;
        pt.map(t, &mut frames).unwrap();

        // First load sets A (one PTE write).
        let w = Walker::walk(&mut pt, VirtAddr::new(0x1000), AccessKind::Load);
        assert_eq!(w.pte_writes.len(), 1);
        assert!(w.translation.unwrap().accessed);
        // Second load writes nothing.
        let w = Walker::walk(&mut pt, VirtAddr::new(0x1000), AccessKind::Load);
        assert!(w.pte_writes.is_empty());
        assert!(!w.translation.unwrap().dirty);
        // First store sets D.
        let w = Walker::walk(&mut pt, VirtAddr::new(0x1000), AccessKind::Store);
        assert_eq!(w.pte_writes.len(), 1);
        assert!(w.translation.unwrap().dirty);
        // Second store writes nothing.
        let w = Walker::walk(&mut pt, VirtAddr::new(0x1000), AccessKind::Store);
        assert!(w.pte_writes.is_empty());
    }

    #[test]
    fn pte_addresses_lie_in_node_frames() {
        let (mut pt, mut frames) = setup();
        pt.map(
            Translation::new(Vpn::new(0), Pfn::new(10), PageSize::Size4K, rw()),
            &mut frames,
        )
        .unwrap();
        let w = Walker::walk(&mut pt, VirtAddr::new(0), AccessKind::Load);
        let node_pfns: Vec<u64> = pt.nodes().iter().map(|n| n.pfn.raw()).collect();
        for pa in &w.pte_reads {
            assert!(node_pfns.contains(&pa.pfn().raw()));
        }
        // VPN 0 uses index 0 at every level: each PTE is at frame offset 0.
        assert!(w.pte_reads.iter().all(|pa| pa.raw() % 4096 == 0));
    }

    #[test]
    fn line_translations_expose_contiguous_superpage_neighbours() {
        let (mut pt, mut frames) = setup();
        // Map 4 contiguous 2 MB pages: PD indices 2-5 share a cache line
        // (indices 0-7).
        for i in 2..6u64 {
            pt.map(
                Translation::new(
                    Vpn::new(i * 512),
                    Pfn::new(0x1000 + i * 512),
                    PageSize::Size2M,
                    rw(),
                ),
                &mut frames,
            )
            .unwrap();
        }
        let w = Walker::walk(&mut pt, VirtAddr::new(3 * 512 * 4096), AccessKind::Load);
        let line = w.line_translations;
        assert_eq!(line.len(), 4);
        assert_eq!(line[0].vpn, Vpn::new(2 * 512));
        assert_eq!(line[3].vpn, Vpn::new(5 * 512));
        // Ascending and mutually contiguous.
        for pair in line.windows(2) {
            assert!(pair[0].is_coalescible_successor(&pair[1]));
        }
    }

    #[test]
    fn line_translations_split_at_cache_line_boundaries() {
        let (mut pt, mut frames) = setup();
        // PD indices 7 and 8 are adjacent but in different cache lines.
        for i in [7u64, 8] {
            pt.map(
                Translation::new(Vpn::new(i * 512), Pfn::new(i * 512), PageSize::Size2M, rw()),
                &mut frames,
            )
            .unwrap();
        }
        let w = Walker::walk(&mut pt, VirtAddr::new(7 * 512 * 4096), AccessKind::Load);
        assert_eq!(w.line_translations.len(), 1);
        let w = Walker::walk(&mut pt, VirtAddr::new(8 * 512 * 4096), AccessKind::Load);
        assert_eq!(w.line_translations.len(), 1);
    }

    #[test]
    fn line_translations_for_4k_pages() {
        let (mut pt, mut frames) = setup();
        for i in 0..8u64 {
            pt.map(
                Translation::new(Vpn::new(i), Pfn::new(100 + i), PageSize::Size4K, rw()),
                &mut frames,
            )
            .unwrap();
        }
        let w = Walker::walk(&mut pt, VirtAddr::new(0), AccessKind::Load);
        assert_eq!(w.line_translations.len(), 8);
        assert_eq!(w.line_translations[7].vpn, Vpn::new(7));
    }
}
