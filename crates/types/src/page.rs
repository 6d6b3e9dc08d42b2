//! Page sizes and 4 KB-granular page/frame numbers.

use std::fmt;

/// Log2 of the base (small) page size: 4 KB.
pub const PAGE_SHIFT: u32 = 12;

/// The base (small) page size in bytes: 4 KB.
pub const PAGE_SIZE_4K: u64 = 1 << PAGE_SHIFT;

/// An x86-64 page size.
///
/// The simulator supports the three sizes of the x86-64 architecture, which
/// the paper's 2-bit page-size field distinguishes (Figure 5).
///
/// # Examples
///
/// ```
/// use mixtlb_types::PageSize;
///
/// assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
/// assert_eq!(PageSize::Size1G.pages_4k(), 262_144);
/// assert!(PageSize::Size4K < PageSize::Size2M);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageSize {
    /// 4 KB base page.
    Size4K,
    /// 2 MB superpage (x86-64 PD-level leaf).
    Size2M,
    /// 1 GB superpage (x86-64 PDPT-level leaf).
    Size1G,
}

impl PageSize {
    /// All supported page sizes, smallest first.
    pub const ALL: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    /// Log2 of the page size in bytes (12, 21, or 30).
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
            PageSize::Size1G => 30,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        1 << self.shift()
    }

    /// Number of constituent 4 KB pages (the paper's `N`): 1, 512, or 262,144.
    #[inline]
    pub const fn pages_4k(self) -> u64 {
        1 << (self.shift() - PAGE_SHIFT)
    }

    /// Returns `true` for 2 MB and 1 GB pages.
    #[inline]
    pub const fn is_superpage(self) -> bool {
        !matches!(self, PageSize::Size4K)
    }

    /// Encodes the size as the paper's 2-bit TLB entry field.
    #[inline]
    pub const fn encode(self) -> u8 {
        match self {
            PageSize::Size4K => 0b00,
            PageSize::Size2M => 0b01,
            PageSize::Size1G => 0b10,
        }
    }

    /// Decodes a 2-bit page-size field. Returns `None` for the reserved
    /// encoding `0b11`.
    #[inline]
    pub const fn decode(bits: u8) -> Option<PageSize> {
        match bits {
            0b00 => Some(PageSize::Size4K),
            0b01 => Some(PageSize::Size2M),
            0b10 => Some(PageSize::Size1G),
            _ => None,
        }
    }

    /// Page size mapped at a given radix page-table level, if that level can
    /// hold a leaf (level 0 = PT → 4 KB, level 1 = PD → 2 MB,
    /// level 2 = PDPT → 1 GB, level 3 = PML4 → no leaf).
    #[inline]
    pub const fn from_level(level: u8) -> Option<PageSize> {
        match level {
            0 => Some(PageSize::Size4K),
            1 => Some(PageSize::Size2M),
            2 => Some(PageSize::Size1G),
            _ => None,
        }
    }

    /// Buddy-allocator order of this page size: log2 of its 4 KB page
    /// count (0, 9, or 18). This is the `order` argument every
    /// buddy/physical-memory call takes — the typed replacement for
    /// hand-rolled `(size.shift() - 12) as u8`.
    #[inline]
    pub const fn buddy_order(self) -> u8 {
        (self.shift() - PAGE_SHIFT) as u8
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KB"),
            PageSize::Size2M => write!(f, "2MB"),
            PageSize::Size1G => write!(f, "1GB"),
        }
    }
}

macro_rules! page_number {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 4 KB-granular page number.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw 4 KB-granular page number.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Aligns this page number down to the base of the page of the
            /// given size that contains it.
            ///
            /// ```
            /// # use mixtlb_types::{PageSize, Vpn};
            /// let v = Vpn::new(0x400 + 37);
            /// assert_eq!(v.align_down(PageSize::Size2M), Vpn::new(0x400));
            /// ```
            #[inline]
            pub const fn align_down(self, size: PageSize) -> Self {
                Self(self.0 & !(size.pages_4k() - 1))
            }

            /// Returns `true` if this page number is aligned to the given
            /// page size.
            #[inline]
            pub const fn is_aligned(self, size: PageSize) -> bool {
                self.0 & (size.pages_4k() - 1) == 0
            }

            /// Offset in 4 KB pages from the base of the containing page of
            /// the given size (the paper's *mirror ID* for superpages).
            #[inline]
            pub const fn offset_within(self, size: PageSize) -> u64 {
                self.0 & (size.pages_4k() - 1)
            }

            /// This page number advanced by `n` 4 KB pages.
            #[inline]
            pub const fn add_4k(self, n: u64) -> Self {
                Self(self.0 + n)
            }

            /// Checked subtraction, in 4 KB pages.
            #[inline]
            pub fn checked_sub(self, other: Self) -> Option<u64> {
                self.0.checked_sub(other.0)
            }

            /// The `size`-granular page number of this 4 KB page number
            /// (drops the low index bits) — the typed replacement for
            /// hand-rolled `raw() >> (size.shift() - 12)`.
            ///
            /// ```
            /// # use mixtlb_types::{PageSize, Vpn};
            /// assert_eq!(Vpn::new(0x400 + 37).page_number(PageSize::Size2M), 2);
            /// assert_eq!(Vpn::new(5).page_number(PageSize::Size4K), 5);
            /// ```
            #[inline]
            pub const fn page_number(self, size: PageSize) -> u64 {
                self.0 >> (size.shift() - PAGE_SHIFT)
            }

            /// x86-64 radix page-table index of this page number at
            /// `level` (9 bits per level; level 0 = PT, 1 = PD, 2 = PDPT,
            /// 3 = PML4) — the typed replacement for hand-rolled
            /// `(raw() >> (9 * level)) & 0x1FF`.
            ///
            /// ```
            /// # use mixtlb_types::Vpn;
            /// let v = Vpn::new((3 << 9) | 7);
            /// assert_eq!(v.table_index(0), 7);
            /// assert_eq!(v.table_index(1), 3);
            /// assert_eq!(v.table_index(3), 0);
            /// ```
            #[inline]
            pub const fn table_index(self, level: u8) -> usize {
                ((self.0 >> (9 * level as u32)) & 0x1FF) as usize
            }

            /// The page number with its `bits` low bits dropped — the set
            /// index bit extraction used by set-associative TLB indexing
            /// (shift 0 indexes at small-page granularity; shift 9 with the
            /// 2 MB superpage's bits, the rejected alternative of the
            /// paper's Sec. 3).
            #[inline]
            pub const fn index_bits(self, bits: u32) -> u64 {
                self.0 >> bits
            }

            /// Aligns down to a multiple of `pages` 4 KB pages (`pages`
            /// must be a power of two) — the generalized
            /// [`align_down`](Self::align_down) used by bundle framing,
            /// where the extent is `bundle × page-size` rather than one
            /// architectural page size.
            #[inline]
            pub fn align_down_pages(self, pages: u64) -> Self {
                debug_assert!(pages.is_power_of_two(), "alignment must be a power of two");
                Self(self.0 & !(pages - 1))
            }

            /// Index of the `pages`-sized chunk of the page-number space
            /// containing this page (plain Euclidean division; `pages` need
            /// not be a power of two).
            #[inline]
            pub const fn chunk_index(self, pages: u64) -> u64 {
                self.0 / pages
            }

            /// Number of whole `unit`-sized pages between `base` and
            /// `self`, or `None` when `base > self`. This is the paper's
            /// bundle-position arithmetic: which `unit`-page of the bundle
            /// framed at `base` contains `self`.
            #[inline]
            pub fn page_offset_from(self, base: Self, unit: PageSize) -> Option<u64> {
                match self.0.checked_sub(base.0) {
                    Some(delta) => Some(delta / unit.pages_4k()),
                    None => None,
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

page_number! {
    /// A 4 KB-granular **virtual** page number.
    ///
    /// Superpages are identified by their (aligned) base VPN; use
    /// [`Vpn::align_down`] and [`Vpn::offset_within`] to navigate inside a
    /// superpage.
    Vpn
}

page_number! {
    /// A 4 KB-granular **physical** frame number.
    Pfn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_x86_64() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Size1G.bytes(), 1024 * 1024 * 1024);
        assert_eq!(PageSize::Size4K.pages_4k(), 1);
        assert_eq!(PageSize::Size2M.pages_4k(), 512);
        assert_eq!(PageSize::Size1G.pages_4k(), 262_144);
    }

    #[test]
    fn size_ordering_is_by_magnitude() {
        assert!(PageSize::Size4K < PageSize::Size2M);
        assert!(PageSize::Size2M < PageSize::Size1G);
        let mut v = vec![PageSize::Size1G, PageSize::Size4K, PageSize::Size2M];
        v.sort();
        assert_eq!(v, PageSize::ALL.to_vec());
    }

    #[test]
    fn encode_decode_roundtrip() {
        for size in PageSize::ALL {
            assert_eq!(PageSize::decode(size.encode()), Some(size));
        }
        assert_eq!(PageSize::decode(0b11), None);
    }

    #[test]
    fn level_mapping() {
        assert_eq!(PageSize::from_level(0), Some(PageSize::Size4K));
        assert_eq!(PageSize::from_level(1), Some(PageSize::Size2M));
        assert_eq!(PageSize::from_level(2), Some(PageSize::Size1G));
        assert_eq!(PageSize::from_level(3), None);
    }

    #[test]
    fn vpn_alignment() {
        let v = Vpn::new(0x400 + 511);
        assert_eq!(v.align_down(PageSize::Size2M), Vpn::new(0x400));
        assert_eq!(v.offset_within(PageSize::Size2M), 511);
        assert!(Vpn::new(0x400).is_aligned(PageSize::Size2M));
        assert!(!Vpn::new(0x401).is_aligned(PageSize::Size2M));
        assert!(Vpn::new(0).is_aligned(PageSize::Size1G));
    }

    #[test]
    fn vpn_arithmetic() {
        let v = Vpn::new(10);
        assert_eq!(v.add_4k(5), Vpn::new(15));
        assert_eq!(Vpn::new(15).checked_sub(v), Some(5));
        assert_eq!(v.checked_sub(Vpn::new(15)), None);
    }

    #[test]
    fn buddy_orders() {
        assert_eq!(PageSize::Size4K.buddy_order(), 0);
        assert_eq!(PageSize::Size2M.buddy_order(), 9);
        assert_eq!(PageSize::Size1G.buddy_order(), 18);
        for size in PageSize::ALL {
            assert_eq!(1u64 << size.buddy_order(), size.pages_4k());
        }
    }

    #[test]
    fn size_granular_page_numbers() {
        let v = Vpn::new(3 * 512 + 17);
        assert_eq!(v.page_number(PageSize::Size2M), 3);
        assert_eq!(v.page_number(PageSize::Size4K), v.raw());
        assert_eq!(Vpn::new(262_144 + 1).page_number(PageSize::Size1G), 1);
    }

    #[test]
    fn index_bit_extraction() {
        let v = Vpn::new(0b1010_1100);
        assert_eq!(v.index_bits(0), v.raw());
        assert_eq!(v.index_bits(2), 0b10_1011);
    }

    #[test]
    fn bundle_alignment_and_chunks() {
        let v = Vpn::new(5 * 512 + 100);
        assert_eq!(v.align_down_pages(512), Vpn::new(5 * 512));
        assert_eq!(v.align_down_pages(1), v);
        assert_eq!(v.chunk_index(512), 5);
        // Non-power-of-two chunking is plain division.
        assert_eq!(Vpn::new(30).chunk_index(7), 4);
    }

    #[test]
    fn bundle_position_offsets() {
        let base = Vpn::new(4 * 512);
        let v = Vpn::new(7 * 512 + 3);
        assert_eq!(v.page_offset_from(base, PageSize::Size2M), Some(3));
        assert_eq!(v.page_offset_from(base, PageSize::Size4K), Some(3 * 512 + 3));
        assert_eq!(base.page_offset_from(v, PageSize::Size2M), None);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Vpn::new(0x400).to_string(), "0x400");
        assert_eq!(format!("{:x}", Pfn::new(0xBEEF)), "beef");
        assert_eq!(format!("{:b}", Pfn::new(0b101)), "101");
    }

    #[test]
    fn conversion_traits() {
        let v: Vpn = 7u64.into();
        assert_eq!(u64::from(v), 7);
    }
}
