//! Physical-memory model: buddy allocation, fragmentation, and compaction.
//!
//! The MIX TLB paper's evaluation hinges on *how the OS allocates physical
//! memory*: whether superpages can be formed at all, and whether consecutive
//! superpage allocations land in adjacent physical frames. This crate models
//! the physical side of that story:
//!
//! * [`PhysicalMemory`] — a buddy allocator over the machine's frames with
//!   per-frame ownership states ([`FrameKind`]). Free lists are kept in
//!   ascending address order, which reproduces the emergent behaviour the
//!   paper leans on: once memory is defragmented, back-to-back superpage
//!   allocations receive *contiguous* physical frames.
//! * [`Memhog`] — the paper's fragmentation microbenchmark (Sec. 7.1):
//!   unmovable chunks scattered at random until a target fraction of memory
//!   is occupied.
//! * Compaction ([`PhysicalMemory::compact_window`]) — migrates movable
//!   frames out of a candidate superpage window, the way Linux compaction
//!   frees 2 MB blocks for transparent hugepages.
//!
//! # Examples
//!
//! ```
//! use mixtlb_mem::{FrameKind, MemoryConfig, PhysicalMemory};
//! use mixtlb_types::PageSize;
//!
//! let mut mem = PhysicalMemory::new(MemoryConfig::with_bytes(64 << 20));
//! let a = mem.alloc_page(PageSize::Size2M, FrameKind::Movable).unwrap();
//! let b = mem.alloc_page(PageSize::Size2M, FrameKind::Movable).unwrap();
//! // Ascending free lists make consecutive superpages physically adjacent.
//! assert_eq!(b.raw(), a.raw() + 512);
//! ```

#![warn(missing_docs)]

mod buddy;
mod config;
mod frame;
mod memhog;
mod physmem;

pub use buddy::{AllocError, BuddyAllocator, MAX_ORDER};
pub use config::MemoryConfig;
pub use frame::FrameKind;
pub use memhog::{Memhog, MemhogConfig};
pub use physmem::{CompactionOutcome, MemoryStats, PhysicalMemory, DIRECT_COMPACTION_BUDGET};
