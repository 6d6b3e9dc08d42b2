//! x86-64 page tables, the hardware page-table walker, and nested (2-D)
//! walks for virtualized systems.
//!
//! Three design points matter for the MIX TLB paper:
//!
//! * **Page-table pages live at real physical addresses.** Every node is
//!   backed by a frame from a [`FrameSource`], so a walk produces the exact
//!   physical addresses of the PTEs it reads — the references the cache
//!   hierarchy (and the energy model) see.
//! * **Walks return the leaf PTE's cache line.** A 64-byte line holds 8
//!   PTEs; the walker reports all leaf translations co-resident with the
//!   requested one ([`WalkResult::line_translations`]). This is the window
//!   MIX TLB fill-time coalescing logic scans for contiguous superpages
//!   (paper Fig. 3, step 2).
//! * **Accessed/dirty semantics follow x86** (paper Sec. 4.4): the walker
//!   sets the accessed bit on every fill path, and a store through a clean
//!   translation triggers an extra PTE write (a dirty-bit update micro-op).
//!
//! # Examples
//!
//! ```
//! use mixtlb_pagetable::{BumpFrameSource, PageTable, Walker};
//! use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, VirtAddr, Vpn};
//!
//! let mut frames = BumpFrameSource::new(0x10_0000);
//! let mut pt = PageTable::new(&mut frames);
//! pt.map(
//!     Translation::new(Vpn::new(0x400), Pfn::new(0), PageSize::Size2M, Permissions::rw_user()),
//!     &mut frames,
//! )?;
//! let walk = Walker::walk(&mut pt, VirtAddr::new(0x0040_0123), AccessKind::Load);
//! assert_eq!(walk.translation.unwrap().size, PageSize::Size2M);
//! assert_eq!(walk.pte_reads.len(), 3); // PML4 + PDPT + PD (2 MB leaf)
//! # Ok::<(), mixtlb_pagetable::MapError>(())
//! ```

#![warn(missing_docs)]

mod bounded;
mod nested;
mod table;
mod walker;

pub use bounded::Bounded;
pub use nested::{NestedTranslationCache, NestedWalkResult, NestedWalker, NoNestedCache};
pub use table::{BumpFrameSource, FrameSource, MapError, PageTable};
pub use walker::{WalkResult, Walker};
