//! Primitive types shared by every crate in the MIX TLB simulator.
//!
//! This crate defines the address arithmetic the rest of the workspace builds
//! on: virtual/physical addresses, 4 KB-granular page/frame numbers, the
//! x86-64 page sizes (4 KB / 2 MB / 1 GB), access permissions, and translation
//! (PTE) summaries as they flow from the page table into TLBs.
//!
//! Two conventions (mirroring the paper's Figure 2) hold everywhere:
//!
//! * **Page numbers are always 4 KB-granular.** A 2 MB superpage's base
//!   [`Vpn`] is a multiple of 512; a 1 GB superpage's base is a multiple of
//!   262,144. This makes the mirroring/coalescing arithmetic of MIX TLBs
//!   direct: the "mirror ID" of an address within a superpage is just the low
//!   bits of its 4 KB VPN.
//! * **Addresses are 48-bit x86-64 canonical-lower-half** values; the
//!   simulator does not model the sign-extended upper half.
//!
//! # Examples
//!
//! ```
//! use mixtlb_types::{PageSize, VirtAddr};
//!
//! let va = VirtAddr::new(0x0040_0123);
//! assert_eq!(va.vpn().raw(), 0x400);
//! assert_eq!(va.page_offset(PageSize::Size4K), 0x123);
//! assert_eq!(PageSize::Size2M.pages_4k(), 512);
//! ```

#![warn(missing_docs)]

mod addr;
mod asid;
mod owner;
mod page;
mod perms;
mod pte;

pub use addr::{PhysAddr, VirtAddr, PTES_PER_NODE, PTE_BYTES};
pub use asid::{Asid, AsidAllocation, AsidAllocator};
pub use owner::FrameOwner;
pub use page::{PageSize, Pfn, Vpn, PAGE_SHIFT, PAGE_SIZE_4K};
pub use perms::{AccessKind, Permissions};
pub use pte::{Translation, TranslationError};
