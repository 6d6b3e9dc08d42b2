//! Reverse-map owner words: which address space maps a physical frame.
//!
//! Compaction moves physical blocks, and the kernel must then remap the
//! page table of whichever space owned each moved block. It keeps one
//! `u64` per frame for that, and this module owns the packing so the
//! bit layout lives in one audited place.

use crate::addr::VA_BITS;
use crate::{PageSize, Vpn, PAGE_SHIFT};

/// Width of the address-space field: what the word has left after the
/// valid bit, the 2-bit size and a 36-bit (48-bit VA) page number.
const SPACE_BITS: u32 = 25;
const SIZE_BITS: u32 = 2;
const VPN_BITS: u32 = VA_BITS - PAGE_SHIFT;
const SPACE_SHIFT: u32 = 1;
const SIZE_SHIFT: u32 = SPACE_SHIFT + SPACE_BITS;
const VPN_SHIFT: u32 = SIZE_SHIFT + SIZE_BITS;

// The fields must fit the word: widening one without narrowing another
// fails the build here instead of silently dropping high VPN bits.
const _: () = assert!(
    VPN_SHIFT + VPN_BITS <= u64::BITS,
    "FrameOwner fields overflow u64"
);
const _: () = assert!(
    (PageSize::Size1G.encode() as u32) < 1 << SIZE_BITS,
    "page-size code overflows its FrameOwner field"
);

/// The owner of a mapped physical frame: the address space that maps it,
/// at which page size, from which base VPN.
///
/// # Examples
///
/// ```
/// use mixtlb_types::{FrameOwner, PageSize, Vpn};
///
/// let owner = FrameOwner { space: 300, size: PageSize::Size2M, vpn: Vpn::new(0x400) };
/// assert_eq!(FrameOwner::unpack(owner.pack()), Some(owner));
/// assert_eq!(FrameOwner::unpack(0), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameOwner {
    /// Index of the owning address space; below [`FrameOwner::MAX_SPACES`].
    pub space: usize,
    /// Size of the page the frame is the base of.
    pub size: PageSize,
    /// Base VPN of that page.
    pub vpn: Vpn,
}

impl FrameOwner {
    /// Number of address spaces a packed word can name.
    pub const MAX_SPACES: usize = 1 << SPACE_BITS;

    /// Packs the owner as `valid(1) | space(25) | size(2) | vpn(36)`,
    /// low bit first. The word is never 0, so 0 can mean "unowned".
    /// `space` must be below [`FrameOwner::MAX_SPACES`]; the kernel
    /// refuses to create more spaces than that.
    pub fn pack(self) -> u64 {
        let space = self.space as u64 & ((1 << SPACE_BITS) - 1);
        1 | (space << SPACE_SHIFT)
            | (u64::from(self.size.encode()) << SIZE_SHIFT)
            | (self.vpn.raw() << VPN_SHIFT)
    }

    /// Unpacks a word written by [`FrameOwner::pack`]; `None` for an
    /// unowned (0) word.
    pub fn unpack(word: u64) -> Option<FrameOwner> {
        if word & 1 == 0 {
            return None;
        }
        let space = ((word >> SPACE_SHIFT) & ((1 << SPACE_BITS) - 1)) as usize;
        let size = PageSize::decode(((word >> SIZE_SHIFT) & ((1 << SIZE_BITS) - 1)) as u8)?;
        let vpn = Vpn::new(word >> VPN_SHIFT);
        Some(FrameOwner { space, size, vpn })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_packing_roundtrip() {
        let cases = [
            (0usize, PageSize::Size4K, Vpn::new(0)),
            (7, PageSize::Size2M, Vpn::new(0x400)),
            (255, PageSize::Size1G, Vpn::new((1 << 36) - 1)),
            // An 8-bit space field aliased this to space 0.
            (256, PageSize::Size4K, Vpn::new(0x1234)),
            (
                FrameOwner::MAX_SPACES - 1,
                PageSize::Size1G,
                Vpn::new((1 << 36) - 1),
            ),
        ];
        for (space, size, vpn) in cases {
            let owner = FrameOwner { space, size, vpn };
            assert_eq!(FrameOwner::unpack(owner.pack()), Some(owner));
        }
        assert_eq!(FrameOwner::unpack(0), None);
    }
}
