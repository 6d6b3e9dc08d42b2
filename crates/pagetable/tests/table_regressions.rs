//! Named, always-run counterexamples that the page-table property suite
//! (`table_props.rs`) once found.

use mixtlb_pagetable::{BumpFrameSource, PageTable};
use mixtlb_types::{PageSize, Permissions, Pfn, Translation, Vpn};

/// Unmapping the only 4 KB page of a 2 MB region must prune the page
/// table it leaves empty, so a 2 MB page can then map over the region
/// instead of being rejected as obstructed.
#[test]
fn unmapping_the_last_small_page_frees_the_region_for_a_superpage() {
    let mut frames = BumpFrameSource::new(0x1000_0000);
    let mut pt = PageTable::new(&mut frames);
    let base = Vpn::new(20 << 18);
    let rw = Permissions::rw_user();
    let small = Translation::new(base, Pfn::new(1), PageSize::Size4K, rw);
    pt.map(small, &mut frames).unwrap();
    pt.unmap(base, PageSize::Size4K).unwrap();
    let big = Translation::new(base, Pfn::new(512), PageSize::Size2M, rw);
    assert_eq!(pt.map(big, &mut frames), Ok(()));
    assert_eq!(pt.lookup(base).map(|t| (t.pfn, t.size)), Some((big.pfn, PageSize::Size2M)));
    assert_eq!(pt.mapped_counts(), (0, 1, 0));
}
