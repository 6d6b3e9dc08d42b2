//! The 4-level x86-64 radix page table.

use std::fmt;

use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};

/// A source of physical frames for page-table pages.
///
/// Implemented by the OS memory manager; [`BumpFrameSource`] is a trivial
/// implementation for tests and examples.
pub trait FrameSource {
    /// Allocates one 4 KB frame to hold a page-table node.
    fn alloc_page_table_frame(&mut self) -> Pfn;
}

/// A [`FrameSource`] that hands out frames from a monotonically increasing
/// counter. Useful when no full physical-memory model is needed.
///
/// # Examples
///
/// ```
/// use mixtlb_pagetable::{BumpFrameSource, FrameSource};
///
/// let mut src = BumpFrameSource::new(100);
/// assert_eq!(src.alloc_page_table_frame().raw(), 100);
/// assert_eq!(src.alloc_page_table_frame().raw(), 101);
/// ```
#[derive(Debug, Clone)]
pub struct BumpFrameSource {
    next: u64,
}

impl BumpFrameSource {
    /// Creates a source whose first frame is `first`.
    pub fn new(first: u64) -> BumpFrameSource {
        BumpFrameSource { next: first }
    }
}

impl FrameSource for BumpFrameSource {
    fn alloc_page_table_frame(&mut self) -> Pfn {
        let pfn = Pfn::new(self.next);
        self.next += 1;
        pfn
    }
}

impl<T: FrameSource + ?Sized> FrameSource for &mut T {
    fn alloc_page_table_frame(&mut self) -> Pfn {
        (**self).alloc_page_table_frame()
    }
}

/// Errors from mapping and unmapping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The exact slot already holds a mapping.
    AlreadyMapped,
    /// An existing larger mapping covers the requested range.
    Shadowed,
    /// Smaller mappings (a child table) occupy the requested range.
    Obstructed,
    /// No mapping exists at the given page.
    NotMapped,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::AlreadyMapped => write!(f, "page is already mapped"),
            MapError::Shadowed => write!(f, "range is covered by an existing larger mapping"),
            MapError::Obstructed => write!(f, "range contains existing smaller mappings"),
            MapError::NotMapped => write!(f, "page is not mapped"),
        }
    }
}

impl std::error::Error for MapError {}

/// Leaf PTE payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafData {
    pub pfn: Pfn,
    pub perms: Permissions,
    pub accessed: bool,
    pub dirty: bool,
}

impl LeafData {
    /// The translation this leaf maps: the `size` page at `vpn`.
    pub fn translation(&self, vpn: Vpn, size: PageSize) -> Translation {
        Translation {
            vpn,
            pfn: self.pfn,
            size,
            perms: self.perms,
            accessed: self.accessed,
            dirty: self.dirty,
        }
    }

    /// A hardware walk's A/D update: sets the accessed bit, and the dirty
    /// bit on a store. Returns whether the PTE changed (and is written).
    pub fn touch(&mut self, access: AccessKind) -> bool {
        let store = access.is_store();
        let wrote = !self.accessed || (store && !self.dirty);
        self.accessed = true;
        self.dirty |= store;
        wrote
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Entry {
    Empty,
    Table(usize),
    Leaf(LeafData),
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Physical frame holding this node's 512 8-byte PTEs.
    pub pfn: Pfn,
    pub entries: Vec<Entry>,
}

impl Node {
    fn new(pfn: Pfn) -> Node {
        Node {
            pfn,
            entries: vec![Entry::Empty; 512],
        }
    }
}

/// A 4-level x86-64 page table mapping 4 KB, 2 MB, and 1 GB pages.
///
/// Levels are numbered 3 (PML4, the root) down to 0 (PT). Leaves live at
/// level 0 (4 KB), level 1 (2 MB), or level 2 (1 GB).
///
/// # Examples
///
/// ```
/// use mixtlb_pagetable::{BumpFrameSource, PageTable};
/// use mixtlb_types::{PageSize, Permissions, Pfn, Translation, Vpn};
///
/// let mut frames = BumpFrameSource::new(0);
/// let mut pt = PageTable::new(&mut frames);
/// let t = Translation::new(Vpn::new(5), Pfn::new(9), PageSize::Size4K, Permissions::rw_user());
/// pt.map(t, &mut frames)?;
/// assert_eq!(pt.lookup(Vpn::new(5)), Some(t));
/// assert_eq!(pt.lookup(Vpn::new(6)), None);
/// # Ok::<(), mixtlb_pagetable::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<Node>,
    mapped_4k: u64,
    mapped_2m: u64,
    mapped_1g: u64,
}

impl PageTable {
    const ROOT: usize = 0;

    /// Creates an empty page table, allocating the root node's frame.
    pub fn new<F: FrameSource>(frames: &mut F) -> PageTable {
        let root_pfn = frames.alloc_page_table_frame();
        PageTable {
            nodes: vec![Node::new(root_pfn)],
            mapped_4k: 0,
            mapped_2m: 0,
            mapped_1g: 0,
        }
    }

    /// The leaf level (0-2) for a page size.
    #[inline]
    pub(crate) fn leaf_level(size: PageSize) -> u8 {
        match size {
            PageSize::Size4K => 0,
            PageSize::Size2M => 1,
            PageSize::Size1G => 2,
        }
    }

    /// Index of `vpn` within a node at `level`.
    #[inline]
    pub(crate) fn index_at(vpn: Vpn, level: u8) -> usize {
        vpn.table_index(level)
    }

    /// Installs a mapping.
    ///
    /// # Errors
    ///
    /// [`MapError::AlreadyMapped`] if the leaf slot is taken;
    /// [`MapError::Shadowed`] if a larger mapping covers the range;
    /// [`MapError::Obstructed`] if smaller mappings exist inside the range.
    pub fn map<F: FrameSource>(&mut self, t: Translation, frames: &mut F) -> Result<(), MapError> {
        let leaf_level = Self::leaf_level(t.size);
        let mut node = Self::ROOT;
        for level in (leaf_level + 1..=3).rev() {
            let idx = Self::index_at(t.vpn, level);
            match self.nodes[node].entries[idx] {
                Entry::Table(child) => node = child,
                Entry::Leaf(_) => return Err(MapError::Shadowed),
                Entry::Empty => {
                    let child = self.nodes.len();
                    let pfn = frames.alloc_page_table_frame();
                    self.nodes.push(Node::new(pfn));
                    self.nodes[node].entries[idx] = Entry::Table(child);
                    node = child;
                }
            }
        }
        let idx = Self::index_at(t.vpn, leaf_level);
        match self.nodes[node].entries[idx] {
            Entry::Empty => {
                self.nodes[node].entries[idx] = Entry::Leaf(LeafData {
                    pfn: t.pfn,
                    perms: t.perms,
                    accessed: t.accessed,
                    dirty: t.dirty,
                });
                match t.size {
                    PageSize::Size4K => self.mapped_4k += 1,
                    PageSize::Size2M => self.mapped_2m += 1,
                    PageSize::Size1G => self.mapped_1g += 1,
                }
                Ok(())
            }
            Entry::Leaf(_) => Err(MapError::AlreadyMapped),
            Entry::Table(_) => Err(MapError::Obstructed),
        }
    }

    /// Removes the mapping of the given size at `vpn` and returns it.
    ///
    /// Child tables left empty by the removal are pruned from their
    /// parents (so a later map of a larger page at the same address
    /// succeeds, as after a real `munmap`). The pruned nodes' arena slots
    /// and frames are not recycled — a simulator simplification; tables
    /// are rebuilt per experiment.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no mapping of that size exists at `vpn`.
    pub fn unmap(&mut self, vpn: Vpn, size: PageSize) -> Result<Translation, MapError> {
        let leaf_level = Self::leaf_level(size);
        let mut node = Self::ROOT;
        // (parent node, entry index within it) for each descent step.
        let mut path: Vec<(usize, usize)> = Vec::with_capacity(3);
        for level in (leaf_level + 1..=3).rev() {
            let idx = Self::index_at(vpn, level);
            match self.nodes[node].entries[idx] {
                Entry::Table(child) => {
                    path.push((node, idx));
                    node = child;
                }
                _ => return Err(MapError::NotMapped),
            }
        }
        let idx = Self::index_at(vpn, leaf_level);
        match self.nodes[node].entries[idx] {
            Entry::Leaf(leaf) => {
                self.nodes[node].entries[idx] = Entry::Empty;
                match size {
                    PageSize::Size4K => self.mapped_4k -= 1,
                    PageSize::Size2M => self.mapped_2m -= 1,
                    PageSize::Size1G => self.mapped_1g -= 1,
                }
                // Prune now-empty tables bottom-up.
                let mut child = node;
                for (parent, entry_idx) in path.into_iter().rev() {
                    let empty = self.nodes[child]
                        .entries
                        .iter()
                        .all(|e| matches!(e, Entry::Empty));
                    if !empty {
                        break;
                    }
                    self.nodes[parent].entries[entry_idx] = Entry::Empty;
                    child = parent;
                }
                Ok(leaf.translation(vpn.align_down(size), size))
            }
            _ => Err(MapError::NotMapped),
        }
    }

    /// Looks up the mapping covering a 4 KB virtual page, without touching
    /// accessed/dirty bits (a software walk).
    pub fn lookup(&self, vpn: Vpn) -> Option<Translation> {
        let mut node = Self::ROOT;
        for level in (0..=3u8).rev() {
            let idx = Self::index_at(vpn, level);
            match &self.nodes[node].entries[idx] {
                Entry::Table(child) => node = *child,
                Entry::Leaf(leaf) => {
                    let size = PageSize::from_level(level)?;
                    return Some(leaf.translation(vpn.align_down(size), size));
                }
                Entry::Empty => return None,
            }
        }
        None
    }

    /// Number of mappings of each size: `(4 KB, 2 MB, 1 GB)`.
    pub fn mapped_counts(&self) -> (u64, u64, u64) {
        (self.mapped_4k, self.mapped_2m, self.mapped_1g)
    }

    /// Number of page-table nodes (frames) in use.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Visits every leaf mapping in ascending virtual-address order.
    ///
    /// Streaming, so it works for tables with tens of millions of leaves.
    pub fn for_each_leaf<F: FnMut(&Translation)>(&self, mut f: F) {
        self.visit(Self::ROOT, 3, 0, &mut f);
    }

    fn visit<F: FnMut(&Translation)>(&self, node: usize, level: u8, base_vpn: u64, f: &mut F) {
        for (idx, entry) in self.nodes[node].entries.iter().enumerate() {
            let vpn = base_vpn + ((idx as u64) << (9 * u64::from(level)));
            match entry {
                Entry::Empty => {}
                Entry::Table(child) => self.visit(*child, level - 1, vpn, f),
                Entry::Leaf(leaf) => {
                    if let Some(size) = PageSize::from_level(level) {
                        f(&leaf.translation(Vpn::new(vpn), size));
                    }
                }
            }
        }
    }

    /// Rewrites the physical frame of an existing mapping (used when
    /// compaction migrates a page).
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no mapping of that size exists at `vpn`.
    pub fn remap(&mut self, vpn: Vpn, size: PageSize, new_pfn: Pfn) -> Result<(), MapError> {
        let leaf_level = Self::leaf_level(size);
        let mut node = Self::ROOT;
        for level in (leaf_level + 1..=3).rev() {
            let idx = Self::index_at(vpn, level);
            match self.nodes[node].entries[idx] {
                Entry::Table(child) => node = child,
                _ => return Err(MapError::NotMapped),
            }
        }
        let idx = Self::index_at(vpn, leaf_level);
        match &mut self.nodes[node].entries[idx] {
            Entry::Leaf(leaf) => {
                leaf.pfn = new_pfn;
                Ok(())
            }
            _ => Err(MapError::NotMapped),
        }
    }

    /// Sets the dirty bit of the mapping covering `vpn` (the effect of the
    /// hardware dirty-bit update micro-op, paper Sec. 4.4). Returns the
    /// physical address of the PTE written, or `None` if the bit was
    /// already set or the page is unmapped.
    pub fn set_dirty(&mut self, vpn: Vpn) -> Option<mixtlb_types::PhysAddr> {
        let mut node = Self::ROOT;
        for level in (0..=3u8).rev() {
            let idx = Self::index_at(vpn, level);
            let pte_addr = mixtlb_types::PhysAddr::pte_address(self.nodes[node].pfn, idx);
            match &mut self.nodes[node].entries[idx] {
                Entry::Table(child) => node = *child,
                Entry::Leaf(leaf) => {
                    if leaf.dirty {
                        return None;
                    }
                    leaf.dirty = true;
                    return Some(pte_addr);
                }
                Entry::Empty => return None,
            }
        }
        None
    }

    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub(crate) fn node_entry_mut(&mut self, node: usize, idx: usize) -> &mut Entry {
        &mut self.nodes[node].entries[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw() -> Permissions {
        Permissions::rw_user()
    }

    fn table() -> (PageTable, BumpFrameSource) {
        let mut frames = BumpFrameSource::new(0x100000);
        let pt = PageTable::new(&mut frames);
        (pt, frames)
    }

    #[test]
    fn map_lookup_roundtrip_all_sizes() {
        let (mut pt, mut frames) = table();
        let cases = [
            Translation::new(Vpn::new(7), Pfn::new(1000), PageSize::Size4K, rw()),
            Translation::new(Vpn::new(0x400), Pfn::new(0x4000), PageSize::Size2M, rw()),
            Translation::new(
                Vpn::new(1 << 18),
                Pfn::new(2 << 18),
                PageSize::Size1G,
                rw(),
            ),
        ];
        for t in cases {
            pt.map(t, &mut frames).unwrap();
        }
        assert_eq!(pt.lookup(Vpn::new(7)).unwrap().size, PageSize::Size4K);
        // Interior page of a 2 MB mapping resolves to the superpage.
        let hit = pt.lookup(Vpn::new(0x400 + 13)).unwrap();
        assert_eq!(hit.size, PageSize::Size2M);
        assert_eq!(hit.vpn, Vpn::new(0x400));
        assert_eq!(hit.frame_for(Vpn::new(0x400 + 13)), Some(Pfn::new(0x4000 + 13)));
        let g = pt.lookup(Vpn::new((1 << 18) + 99_999)).unwrap();
        assert_eq!(g.size, PageSize::Size1G);
        assert_eq!(pt.mapped_counts(), (1, 1, 1));
    }

    #[test]
    fn conflicting_maps_are_rejected() {
        let (mut pt, mut frames) = table();
        let small = Translation::new(Vpn::new(0x400), Pfn::new(1), PageSize::Size4K, rw());
        let big = Translation::new(Vpn::new(0x400), Pfn::new(0x200), PageSize::Size2M, rw());
        pt.map(small, &mut frames).unwrap();
        // Superpage over existing small page: the PD slot holds a table.
        assert_eq!(pt.map(big, &mut frames), Err(MapError::Obstructed));
        // Small page under an existing superpage.
        let (mut pt2, mut frames2) = table();
        pt2.map(big, &mut frames2).unwrap();
        assert_eq!(pt2.map(small, &mut frames2), Err(MapError::Shadowed));
        // Exact duplicate.
        assert_eq!(pt2.map(big, &mut frames2), Err(MapError::AlreadyMapped));
    }

    #[test]
    fn unmap_removes_and_returns_mapping() {
        let (mut pt, mut frames) = table();
        let t = Translation::new(Vpn::new(0x400), Pfn::new(0x200), PageSize::Size2M, rw());
        pt.map(t, &mut frames).unwrap();
        let removed = pt.unmap(Vpn::new(0x400), PageSize::Size2M).unwrap();
        assert_eq!(removed.pfn, t.pfn);
        assert_eq!(pt.lookup(Vpn::new(0x400)), None);
        assert_eq!(
            pt.unmap(Vpn::new(0x400), PageSize::Size2M),
            Err(MapError::NotMapped)
        );
        assert_eq!(pt.mapped_counts(), (0, 0, 0));
    }

    #[test]
    fn remap_changes_frame_in_place() {
        let (mut pt, mut frames) = table();
        let t = Translation::new(Vpn::new(9), Pfn::new(1), PageSize::Size4K, rw());
        pt.map(t, &mut frames).unwrap();
        pt.remap(Vpn::new(9), PageSize::Size4K, Pfn::new(77)).unwrap();
        assert_eq!(pt.lookup(Vpn::new(9)).unwrap().pfn, Pfn::new(77));
        assert_eq!(
            pt.remap(Vpn::new(10), PageSize::Size4K, Pfn::new(1)),
            Err(MapError::NotMapped)
        );
    }

    #[test]
    fn for_each_leaf_visits_in_va_order() {
        let (mut pt, mut frames) = table();
        let ts = [
            Translation::new(Vpn::new(0x600), Pfn::new(0x200), PageSize::Size2M, rw()),
            Translation::new(Vpn::new(3), Pfn::new(30), PageSize::Size4K, rw()),
            Translation::new(Vpn::new(0x400), Pfn::new(0), PageSize::Size2M, rw()),
        ];
        for t in ts {
            pt.map(t, &mut frames).unwrap();
        }
        let mut seen = Vec::new();
        pt.for_each_leaf(|t| seen.push(t.vpn));
        assert_eq!(seen, vec![Vpn::new(3), Vpn::new(0x400), Vpn::new(0x600)]);
    }

    #[test]
    fn set_dirty_writes_once() {
        let (mut pt, mut frames) = table();
        pt.map(
            Translation::new(Vpn::new(0x400), Pfn::new(0x200), PageSize::Size2M, rw()),
            &mut frames,
        )
        .unwrap();
        let pa = pt.set_dirty(Vpn::new(0x450)).expect("first set_dirty writes");
        // The PTE lives inside one of the table's node frames.
        assert!(pt.nodes().iter().any(|n| n.pfn == pa.pfn()));
        assert!(pt.lookup(Vpn::new(0x400)).unwrap().dirty);
        assert_eq!(pt.set_dirty(Vpn::new(0x450)), None);
        assert_eq!(pt.set_dirty(Vpn::new(0x999_999)), None);
    }

    #[test]
    fn nodes_get_distinct_frames() {
        let (mut pt, mut frames) = table();
        pt.map(
            Translation::new(Vpn::new(0), Pfn::new(0), PageSize::Size4K, rw()),
            &mut frames,
        )
        .unwrap();
        // Root + PDPT + PD + PT = 4 nodes.
        assert_eq!(pt.node_count(), 4);
        let mut pfns: Vec<u64> = pt.nodes().iter().map(|n| n.pfn.raw()).collect();
        pfns.sort_unstable();
        pfns.dedup();
        assert_eq!(pfns.len(), 4);
    }
}
