//! Quickstart: the MIX TLB mechanism on the paper's own example (Fig. 2-4).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![expect(
    clippy::expect_used,
    reason = "examples keep the happy path readable; a failed setup aborts the demo with its message"
)]

use mixtlb::core::{Lookup, MixTlb, MixTlbConfig, SplitTlb, TlbDevice};
use mixtlb::types::{AccessKind, PageSize, Permissions, Pfn, Translation, VirtAddr, Vpn};

fn main() {
    // The paper's Figure 2 address space (4 KB frame numbers, hex):
    //   A: a 4 KB page,  virtual 0x00000 → physical 0x00400
    //   B: a 2 MB page,  virtual 0x00400 → physical 0x00000
    //   C: a 2 MB page,  virtual 0x00600 → physical 0x00200  (contiguous with B!)
    let rw = Permissions::rw_user();
    let a = Translation::new(Vpn::new(0x000), Pfn::new(0x400), PageSize::Size4K, rw);
    let b = Translation::new(Vpn::new(0x400), Pfn::new(0x000), PageSize::Size2M, rw);
    let c = Translation::new(Vpn::new(0x600), Pfn::new(0x200), PageSize::Size2M, rw);

    println!("== The problem: a commercial split TLB ==");
    let mut split = SplitTlb::haswell_l1();
    for t in [a, b, c] {
        split.fill(t.vpn, &t, &[t]);
    }
    println!(
        "three translations consume three entries across three separate\n\
         per-size TLBs; whichever page size your workload skips, its TLB\n\
         idles. Entries used: 4KB-part=1, 2MB-part=2, 1GB-part=0\n"
    );

    println!("== MIX TLBs: one array, all sizes, coalescing ==");
    // A 2-set MIX TLB, exactly as drawn in the paper's Figure 3.
    let mut mix = MixTlb::new(MixTlbConfig::l1(2, 2));
    mix.fill(a.vpn, &a, &[a]);
    // A page-table walk for B reads a 64-byte PTE cache line — which also
    // contains C. The coalescing logic spots that B and C are contiguous
    // (virtually AND physically) and builds ONE entry for both, mirrored
    // into each set.
    mix.fill(b.vpn, &b, &[b, c]);
    println!("filled A, then B (whose PTE cache line also held C)");
    println!("TLB now holds {} entries (A + a B-C mirror per set)\n", mix.occupancy());

    // Lookups probe exactly one set — bit 12 routes even/odd 4 KB regions.
    for va in [0x0000_0123u64, 0x0040_0000, 0x0047_3123, 0x0060_0000, 0x007F_FFFF] {
        let va = VirtAddr::new(va);
        match mix.lookup(va.vpn(), AccessKind::Load) {
            Lookup::Hit { translation, .. } => {
                let pa = translation.translate(va).expect("hit covers the address");
                println!("  {va} -> {pa}  ({} page, one set probed)", translation.size);
            }
            Lookup::Miss => println!("  {va} -> MISS"),
        }
    }

    let stats = mix.stats();
    println!(
        "\nstats: {} lookups, {} hits, {} fills, {} entry writes (mirroring), \
         {} sets probed",
        stats.lookups, stats.hits, stats.fills, stats.entries_written, stats.sets_probed
    );
    println!(
        "\nCoalescing offset mirroring: B and C together cost one entry per\n\
         set — the same net capacity a split design spends on B and C alone,\n\
         but usable by ANY page-size distribution."
    );
}
