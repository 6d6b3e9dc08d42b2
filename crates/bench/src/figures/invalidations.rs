//! In-text experiment (Sec. 4.4, "Invalidations"): when the OS shoots down
//! one superpage of a coalesced bundle, an L1 bitmap entry clears a single
//! bit — neighbouring superpages stay cached — while the paper's simple L2
//! length-field approach drops the whole coalesced entry. This benchmark
//! quantifies the collateral damage of each representation, plus the
//! mirrored invalidation cost (an invalidation must visit every set).

use crate::{banner, pct, Scale, Table};
use mixtlb_core::{CoalesceKind, Lookup, MixTlb, MixTlbConfig, TlbDevice};
use mixtlb_sim::{designs, REGION};
use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fills `tlb` with `n` contiguous 2 MB superpages (fed in walker-style
/// 8-PTE lines) and returns the translations.
fn fill_run(tlb: &mut dyn TlbDevice, n: u64) -> Vec<Translation> {
    let rw = Permissions::rw_user();
    let run: Vec<Translation> = (0..n)
        .map(|i| {
            Translation::new(
                Vpn::new(REGION.raw() + i * 512),
                Pfn::new((2 << 18) + i * 512),
                PageSize::Size2M,
                rw,
            )
        })
        .collect();
    for chunk in run.chunks(8) {
        tlb.fill(chunk[0].vpn, &chunk[0], chunk);
    }
    // Touch everything so extension merges settle.
    for t in &run {
        let _ = tlb.lookup(t.vpn, AccessKind::Load);
    }
    run
}

fn surviving_fraction(tlb: &mut dyn TlbDevice, run: &[Translation], invalidated: &[usize]) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for (i, t) in run.iter().enumerate() {
        if invalidated.contains(&i) {
            continue; // the shot-down page must miss (asserted below)
        }
        total += 1;
        if let Lookup::Hit { translation, .. } = tlb.lookup(t.vpn, AccessKind::Load) {
            assert_eq!(translation.pfn, t.pfn, "stale translation after shootdown");
            hits += 1;
        }
    }
    hits as f64 / total.max(1) as f64
}

/// Prints the invalidation experiment (Sec. 4.4) at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Invalidations (Sec. 4.4)",
        "collateral damage of shooting down one page of a coalesced bundle",
        scale,
    );
    let n = 64u64;
    let mut table = Table::new(&[
        "design",
        "invalidations",
        "survivors (neighbours still hitting)",
    ]);
    for kills in [1usize, 4, 16] {
        for (label, kind) in [
            ("L1 bitmap", CoalesceKind::Bitmap),
            ("L2 length", CoalesceKind::Length),
        ] {
            let mut tlb = MixTlb::new(MixTlbConfig {
                kind,
                ..MixTlbConfig::l2(16, 8)
            });
            let run = fill_run(&mut tlb, n);
            let mut rng = SmallRng::seed_from_u64(7);
            let victims: Vec<usize> = (0..kills).map(|_| rng.gen_range(0..n as usize)).collect();
            for &v in &victims {
                tlb.invalidate(run[v].vpn, PageSize::Size2M);
                assert!(
                    !tlb.lookup(run[v].vpn, AccessKind::Load).is_hit(),
                    "invalidated page must miss"
                );
            }
            let survivors = surviving_fraction(&mut tlb, &run, &victims);
            table.row(vec![label.to_owned(), kills.to_string(), pct(survivors)]);
        }
    }
    table.print();
    println!(
        "\nPaper claim: bitmap entries let superpages adjacent to an invalidated\n\
         one remain cached; the length-field's whole-bundle invalidation is\n\
         simpler but loses the neighbours — acceptable because invalidations\n\
         are rare in practice."
    );

    // The other Sec. 5.1 invalidation cost: how many TLB sets the hardware
    // sweeps per shootdown. Small-page-indexed (MIX) arrays mirror
    // superpages into every set, so a superpage shootdown must visit all
    // of them; split and COLT probe only the indexed set per level.
    println!("\nTLB sets swept per shootdown (one core, L1 + L2), by page size:");
    let mut sets = Table::new(&["design", "4K", "2M", "1G"]);
    for (name, factory) in designs::all_cpu_designs() {
        let h = factory();
        // Sweep width is a function of geometry, not contents; Vpn 0 is
        // aligned for every page size.
        sets.row(vec![
            name.to_owned(),
            h.invalidate_sets(Vpn::new(0), PageSize::Size4K).to_string(),
            h.invalidate_sets(Vpn::new(0), PageSize::Size2M).to_string(),
            h.invalidate_sets(Vpn::new(0), PageSize::Size1G).to_string(),
        ]);
    }
    sets.print();
    println!(
        "\nMIX's mirroring turns a superpage shootdown into a sweep of every\n\
         set in both levels — orders of magnitude more sets than split or\n\
         COLT probe — the one hardware cost of small-page indexing the\n\
         paper concedes (Sec. 5.1). The SMP benchmark (`smp`) prices this\n\
         in cycles across cores."
    );
}
