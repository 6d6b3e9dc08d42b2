//! The OS memory-management model: virtual memory areas, demand paging,
//! transparent hugepages, `libhugetlbfs`-style pools, and the page-table
//! scanners behind the paper's allocation-characterization figures.
//!
//! The paper's Sec. 7.1 argument is entirely about OS behaviour: *which page
//! sizes does the OS produce under fragmentation, and when it produces
//! superpages, are they contiguous?* This crate reproduces the mechanisms
//! that generate those distributions:
//!
//! * [`Kernel`] owns the machine's [`PhysicalMemory`] and a set of
//!   [`AddressSpace`]s (processes or guest OSes). Demand faults pick page
//!   sizes per the space's [`PagingPolicy`]:
//!   - [`PagingPolicy::SmallOnly`] — 4 KB everywhere;
//!   - [`PagingPolicy::Hugetlbfs`] — a pool of 2 MB or 1 GB pages reserved
//!     up front, small pages once the pool runs dry;
//!   - [`PagingPolicy::TransparentHuge`] — Linux THS: try a 2 MB block on
//!     the first fault in each aligned 2 MB region, invoking compaction
//!     (within a budget) when the buddy allocator is fragmented, falling
//!     back to 4 KB pages;
//!   - [`PagingPolicy::Mixed`] — a 1 GB pool for part of the footprint plus
//!     THS for the rest, exercising all three sizes concurrently.
//! * [`scan`] walks page tables to produce the page-size distributions
//!   (Figs. 9-10), average superpage contiguity (Fig. 11), and contiguity
//!   CDFs (Figs. 12-13).
//!
//! # Examples
//!
//! ```
//! use mixtlb_mem::{MemoryConfig, PhysicalMemory};
//! use mixtlb_os::{Kernel, PagingPolicy, ThsConfig};
//! use mixtlb_types::{Permissions, Vpn};
//!
//! let mem = PhysicalMemory::new(MemoryConfig::with_bytes(256 << 20));
//! let mut kernel = Kernel::new(mem);
//! let space = kernel.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
//! kernel.mmap(space, Vpn::new(0x400), 1024, Permissions::rw_user()).unwrap();
//! kernel.fault_all(space);
//! let (p4k, p2m, _p1g) = kernel.space(space).page_table().mapped_counts();
//! assert_eq!((p4k, p2m), (0, 2)); // two 2 MB pages, no fragmentation
//! ```

#![warn(missing_docs)]

mod kernel;
mod policy;
pub mod scan;
mod vma;

pub use kernel::{AddressSpace, FaultError, FaultStats, Kernel, SpaceId};
pub use policy::{PagingPolicy, ThsConfig};
pub use vma::{Vma, VmaError, VmaSet};

pub use mixtlb_mem::PhysicalMemory;
