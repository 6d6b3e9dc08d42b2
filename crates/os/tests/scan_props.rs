//! Property tests for the page-table scanners: run detection agrees with
//! a naive recomputation, and the CDF is a valid distribution.

use mixtlb_os::scan::{ContiguityStats, PageSizeDistribution, RunFinder};
use mixtlb_pagetable::{BumpFrameSource, PageTable};
use mixtlb_types::{PageSize, Permissions, Pfn, Translation, Vpn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a 2 MB mapping stream from run-length encoded input: each entry
/// is `(run_length, gap_pages, phys_jump)`.
fn mappings_from_rle(rle: &[(u8, u8, bool)]) -> Vec<Translation> {
    let mut out = Vec::new();
    let mut vpn = 0u64;
    let mut pfn = 1u64 << 20;
    for &(len, gap, jump) in rle {
        let len = u64::from(len % 6) + 1;
        for _ in 0..len {
            out.push(Translation::new(
                Vpn::new(vpn),
                Pfn::new(pfn),
                PageSize::Size2M,
                Permissions::rw_user(),
            ));
            vpn += 512;
            pfn += 512;
        }
        // Break the run: a virtual gap and/or a physical jump.
        vpn += 512 * (1 + u64::from(gap % 4));
        if jump {
            pfn += 512 * 7;
        } else {
            pfn += 512 * (1 + u64::from(gap % 4)); // keep phys in lockstep
        }
    }
    out
}

fn gen_rle(rng: &mut SmallRng) -> Vec<(u8, u8, bool)> {
    (0..rng.gen_range(1..24)).map(|_| (rng.gen(), rng.gen(), rng.gen())).collect()
}

/// Naive O(n²)-ish reference: recompute runs directly from the list.
fn naive_runs(mappings: &[Translation]) -> Vec<u64> {
    let mut runs = Vec::new();
    let mut current = 0u64;
    for (i, t) in mappings.iter().enumerate() {
        if i > 0 && mappings[i - 1].is_coalescible_successor(t) {
            current += 1;
        } else {
            if current > 0 {
                runs.push(current);
            }
            current = 1;
        }
    }
    if current > 0 {
        runs.push(current);
    }
    runs
}

#[test]
fn run_finder_matches_naive_recomputation() {
    for case in 0..128 {
        let mappings = mappings_from_rle(&gen_rle(&mut SmallRng::seed_from_u64(case)));
        // Through the page table scanner...
        let mut frames = BumpFrameSource::new(0x40_0000);
        let mut pt = PageTable::new(&mut frames);
        for t in &mappings {
            pt.map(*t, &mut frames).expect("RLE mappings never overlap");
        }
        let via_table = ContiguityStats::of(&pt, PageSize::Size2M);
        // ...and directly through the RunFinder.
        let mut finder = RunFinder::new(PageSize::Size2M);
        for t in &mappings {
            finder.feed(t);
        }
        let direct = finder.finish();
        let naive = naive_runs(&mappings);
        assert_eq!(&via_table.runs, &naive, "case {case}");
        assert_eq!(&direct.runs, &naive, "case {case}");
        // Invariants of the statistics.
        assert_eq!(via_table.translations(), mappings.len() as u64, "case {case}");
        let avg = via_table.average_contiguity();
        let max = via_table.max_run() as f64;
        assert!(avg >= 1.0 - 1e-12 && avg <= max + 1e-12, "case {case}");
    }
}

#[test]
fn cdf_is_a_valid_distribution() {
    for case in 0..128 {
        let mappings = mappings_from_rle(&gen_rle(&mut SmallRng::seed_from_u64(case)));
        let mut finder = RunFinder::new(PageSize::Size2M);
        for t in &mappings {
            finder.feed(t);
        }
        let stats = finder.finish();
        let cdf = stats.cdf();
        assert!(!cdf.is_empty(), "case {case}");
        // Monotone in both coordinates, ending at exactly 1.
        for pair in cdf.windows(2) {
            assert!(pair[0].0 < pair[1].0, "case {case}");
            assert!(pair[0].1 <= pair[1].1 + 1e-12, "case {case}");
        }
        let last = cdf.last().expect("non-empty");
        assert!((last.1 - 1.0).abs() < 1e-9, "case {case}");
        assert_eq!(last.0, stats.max_run(), "case {case}");
    }
}

#[test]
fn distribution_bytes_are_consistent() {
    for case in 0..128 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (n4k, n2m, n1g) = (rng.gen_range(0..64u64), rng.gen_range(0..16u64), rng.gen_range(0..3u64));
        assert!(n4k + n2m + n1g > 0, "case {case}: an empty table has no distribution");
        let mut frames = BumpFrameSource::new(0x40_0000);
        let mut pt = PageTable::new(&mut frames);
        // Disjoint regions per size class.
        for i in 0..n4k {
            pt.map(
                Translation::new(Vpn::new(i), Pfn::new(0x10_0000 + i), PageSize::Size4K,
                                 Permissions::rw_user()),
                &mut frames,
            ).expect("disjoint");
        }
        for i in 0..n2m {
            pt.map(
                Translation::new(Vpn::new((1 << 18) + i * 512), Pfn::new(0x20_0000 + i * 512),
                                 PageSize::Size2M, Permissions::rw_user()),
                &mut frames,
            ).expect("disjoint");
        }
        for i in 0..n1g {
            pt.map(
                Translation::new(Vpn::new((8 + i) << 18), Pfn::new((16 + i) << 18),
                                 PageSize::Size1G, Permissions::rw_user()),
                &mut frames,
            ).expect("disjoint");
        }
        let d = PageSizeDistribution::of(&pt);
        assert_eq!((d.pages_4k, d.pages_2m, d.pages_1g), (n4k, n2m, n1g), "case {case}");
        let expected_bytes = n4k * 4096 + n2m * (2 << 20) + n1g * (1 << 30);
        assert_eq!(d.total_bytes(), expected_bytes, "case {case}");
        let sp = d.superpage_fraction();
        assert!((0.0..=1.0).contains(&sp), "case {case}");
        if n2m + n1g == 0 {
            assert_eq!(sp, 0.0, "case {case}");
        }
        if n4k == 0 {
            assert!((sp - 1.0).abs() < 1e-12, "case {case}");
        }
    }
}
