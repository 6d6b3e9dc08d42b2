//! Page-size selection policies.

use mixtlb_types::PageSize;

/// Transparent-hugepage tuning knobs.
///
/// Together with `memhog`'s chunk geometry in `mixtlb-mem`, the direct
/// compaction budget ([`mixtlb_mem::DIRECT_COMPACTION_BUDGET`], 160
/// frames) and the fault-path scanner's limit (64 candidate windows per
/// fault), these are the calibration constants that reproduce the paper's
/// Figure 9 regimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThsConfig {
    /// Background-compaction (khugepaged-style) migration budget, as a
    /// share of the free frames at address-space creation. The daemon
    /// consolidates ascending windows until the budget runs out, which is
    /// why the superpages that *do* form under fragmentation form in long
    /// contiguous runs (the paper's Fig. 11 observation that any system
    /// able to produce superpages at all produces them adjacently).
    pub daemon_budget_share: f64,
}

impl Default for ThsConfig {
    fn default() -> ThsConfig {
        ThsConfig {
            daemon_budget_share: 0.15,
        }
    }
}

/// How an address space's demand faults choose page sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PagingPolicy {
    /// 4 KB pages only.
    SmallOnly,
    /// `libhugetlbfs`: reserve a pool of superpages of one size up front;
    /// allocate from the pool, falling back to 4 KB when it is exhausted.
    Hugetlbfs {
        /// Pool page size (2 MB or 1 GB).
        size: PageSize,
        /// Pool capacity in bytes to attempt to reserve.
        pool_bytes: u64,
    },
    /// Linux transparent hugepage support: opportunistic 2 MB pages with
    /// compaction, 4 KB fallback.
    TransparentHuge(ThsConfig),
    /// A 1 GB `hugetlbfs` pool for part of the footprint plus THS for the
    /// rest: all three page sizes concurrently (the paper's "mixed" setup).
    Mixed {
        /// Bytes of 1 GB pool to attempt to reserve.
        gb_pool_bytes: u64,
        /// THS knobs for the rest of memory.
        ths: ThsConfig,
    },
}

impl PagingPolicy {
    /// Returns the hugetlbfs pool request `(size, bytes)`, if any.
    pub fn pool_request(&self) -> Option<(PageSize, u64)> {
        match *self {
            PagingPolicy::Hugetlbfs { size, pool_bytes } => Some((size, pool_bytes)),
            PagingPolicy::Mixed { gb_pool_bytes, .. } => Some((PageSize::Size1G, gb_pool_bytes)),
            _ => None,
        }
    }

    /// Returns the THS configuration, if transparent hugepages are active.
    pub fn ths(&self) -> Option<ThsConfig> {
        match *self {
            PagingPolicy::TransparentHuge(cfg) => Some(cfg),
            PagingPolicy::Mixed { ths, .. } => Some(ths),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_requests() {
        assert_eq!(PagingPolicy::SmallOnly.pool_request(), None);
        assert_eq!(
            PagingPolicy::Hugetlbfs {
                size: PageSize::Size1G,
                pool_bytes: 8 << 30
            }
            .pool_request(),
            Some((PageSize::Size1G, 8 << 30))
        );
        let mixed = PagingPolicy::Mixed {
            gb_pool_bytes: 4 << 30,
            ths: ThsConfig::default(),
        };
        assert_eq!(mixed.pool_request(), Some((PageSize::Size1G, 4 << 30)));
    }

    #[test]
    fn ths_configs() {
        assert!(PagingPolicy::SmallOnly.ths().is_none());
        assert!(PagingPolicy::TransparentHuge(ThsConfig::default()).ths().is_some());
        assert!(
            PagingPolicy::Mixed {
                gb_pool_bytes: 0,
                ths: ThsConfig::default()
            }
            .ths()
            .is_some()
        );
        assert!(
            PagingPolicy::Hugetlbfs {
                size: PageSize::Size2M,
                pool_bytes: 1 << 30
            }
            .ths()
            .is_none()
        );
    }
}
