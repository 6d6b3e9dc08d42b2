//! A functional set-associative cache hierarchy.
//!
//! The MIX TLB paper's analytical performance model weighs TLB misses by the
//! cost of their page-table walks, and each walk's cost depends on where the
//! PTE reads land in the data-cache hierarchy (paper Sec. 6.2). This crate
//! provides that substrate: a functional (hit/miss + latency, not
//! cycle-accurate) model of the L1D/L2/LLC hierarchy of the paper's Haswell
//! evaluation machine.
//!
//! # Examples
//!
//! ```
//! use mixtlb_cache::{CacheHierarchy, HierarchyConfig};
//! use mixtlb_types::PhysAddr;
//!
//! let mut caches = CacheHierarchy::new(HierarchyConfig::haswell());
//! let cold = caches.access(PhysAddr::new(0x1000));
//! assert!(cold.dram); // first touch misses everywhere
//! let warm = caches.access(PhysAddr::new(0x1000));
//! assert_eq!(warm.level_hit, Some(0)); // now in L1
//! assert!(warm.cycles < cold.cycles);
//! ```

#![warn(missing_docs)]

mod hierarchy;
mod level;
mod pwc;
mod shared;

pub use hierarchy::{AccessResult, CacheHierarchy, HierarchyConfig, HierarchyStats};
pub use level::{CacheConfig, CacheLevel};
pub use pwc::PageWalkCache;
pub use shared::{SharedAccess, SharedCache, SharedCacheConfig, SharedCacheStats};
