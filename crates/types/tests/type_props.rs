//! Property tests for the address/page primitives.

use mixtlb_types::{PageSize, Permissions, Pfn, Translation, VirtAddr, Vpn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn gen_size(rng: &mut SmallRng) -> PageSize {
    [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G][rng.gen_range(0..3usize)]
}

#[test]
fn address_page_offset_roundtrip() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let raw = rng.gen_range(0..1u64 << 48);
        let va = VirtAddr::new(raw);
        assert!(va.is_canonical(), "case {case}");
        let offset_4k = va.page_offset(PageSize::Size4K);
        assert_eq!(va.vpn().raw() * 4096 + offset_4k, raw, "case {case}");
        assert_eq!(VirtAddr::from_page(va.vpn(), offset_4k), va, "case {case}");
        // Page offsets nest: the 4 KB offset is the low part of every
        // larger page offset.
        for size in [PageSize::Size2M, PageSize::Size1G] {
            assert_eq!(va.page_offset(size) % 4096, offset_4k, "case {case}");
        }
    }
}

#[test]
fn alignment_laws() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (v, size) = (Vpn::new(rng.gen_range(0..1 << 36)), gen_size(&mut rng));
        let base = v.align_down(size);
        assert!(base.is_aligned(size), "case {case}");
        assert!(base <= v, "case {case}");
        assert!(v.raw() - base.raw() < size.pages_4k(), "case {case}");
        assert_eq!(base.add_4k(v.offset_within(size)), v, "case {case}");
        // Idempotent.
        assert_eq!(base.align_down(size), base, "case {case}");
    }
}

#[test]
fn translation_covers_exactly_its_extent() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (slot, size) = (rng.gen_range(0..64u64), gen_size(&mut rng));
        let probe = rng.gen_range(0..1u64 << 20);
        let vpn = Vpn::new(slot << 18);
        let pfn = Pfn::new((slot + 64) << 18);
        let t = Translation::new(vpn, pfn, size, Permissions::rw_user());
        let p = Vpn::new((slot << 18) + probe);
        assert_eq!(t.covers(p), probe < size.pages_4k(), "case {case}");
        match t.frame_for(p) {
            Some(f) => {
                assert!(t.covers(p), "case {case}");
                assert_eq!(f.raw() - t.pfn.raw(), p.raw() - t.vpn.raw(), "case {case}");
            }
            None => assert!(!t.covers(p), "case {case}"),
        }
    }
}

#[test]
fn translate_preserves_page_offsets() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (slot, size) = (rng.gen_range(0..64u64), gen_size(&mut rng));
        let offset = rng.gen_range(0..1u64 << 30);
        let t = Translation::new(
            Vpn::new(slot << 18),
            Pfn::new((slot + 64) << 18),
            size,
            Permissions::rw_user(),
        );
        let offset = offset % size.bytes();
        let va = VirtAddr::new((slot << 30) + offset);
        let pa = t.translate(va).expect("offset within the page");
        assert_eq!(pa.page_offset(size), va.page_offset(size), "case {case}");
        assert_eq!(pa.raw() - ((slot + 64) << 30), offset, "case {case}");
    }
}

#[test]
fn coalescible_successor_is_exactly_adjacency() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let slot = rng.gen_range(0..32u64);
        let (gap_v, gap_p) = (rng.gen_range(0..4u64), rng.gen_range(0..4u64));
        let size = PageSize::Size2M;
        let a = Translation::new(
            Vpn::new(slot << 18),
            Pfn::new((slot + 40) << 18),
            size,
            Permissions::rw_user(),
        );
        let mut b = Translation::new(
            a.vpn.add_4k(512 * (1 + gap_v)),
            a.pfn.add_4k(512 * (1 + gap_p)),
            size,
            Permissions::rw_user(),
        );
        b.dirty = rng.gen();
        assert_eq!(
            a.is_coalescible_successor(&b),
            gap_v == 0 && gap_p == 0,
            "case {case}: adjacency must be both virtual and physical"
        );
    }
}

#[test]
fn permission_bits_roundtrip() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let bits = rng.gen_range(0..16u8);
        let p = Permissions::from_bits(bits);
        assert_eq!(p.bits(), bits, "case {case}");
        assert_eq!(Permissions::from_bits(p.bits()), p, "case {case}");
        // contains is reflexive and NONE is bottom.
        assert!(p.contains(p), "case {case}");
        assert!(p.contains(Permissions::NONE), "case {case}");
    }
}
