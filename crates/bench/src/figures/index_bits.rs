//! In-text experiment (Sec. 3): indexing with the 2 MB superpage's bits
//! instead of the small page's increases TLB misses 4-8x on average,
//! because groups of 512 spatially-adjacent small pages collide in one
//! set.

use crate::{banner, Scale, Table};
use mixtlb_sim::{designs, NativeScenario, PolicyChoice};
use mixtlb_trace::{AccessPattern, WorkloadClass, WorkloadSpec};

/// The experiment needs workloads whose 4 KB working set is cacheable by a
/// correctly-indexed TLB but *spatially adjacent*: superpage index bits
/// dump groups of 512 adjacent pages into single sets (Sec. 3). Looping
/// window sweeps of various sizes model hot buffers (cluster centres,
/// blocked tiles, adjacency slices) that real programs re-traverse.
fn windowed(name: &'static str, window_kb: u64) -> WorkloadSpec {
    WorkloadSpec {
        name,
        class: WorkloadClass::SpecParsec,
        footprint_bytes: window_kb << 10,
        pattern: AccessPattern::LoopedStream {
            window_bytes: window_kb << 10,
            stride: 256,
        },
        base_cpi: 1.5,
        mem_ops_per_instr: 0.35,
        store_fraction: 0.2,
    }
}

/// Prints the index-bits experiment (Sec. 3) at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Index bits (Sec. 3)",
        "superpage-index-bits MIX vs small-page-index MIX: L1+L2 miss ratio",
        scale,
    );
    let refs = scale.refs();
    let mut table = Table::new(&["hot window", "mix walks/k", "sp-indexed walks/k", "ratio"]);
    let mut ratio_sum = 0.0;
    let mut n = 0.0;
    for (name, window_kb) in [
        ("64 KB", 64u64),
        ("256 KB", 256),
        ("512 KB", 512),
        ("1 MB", 1024),
        ("2 MB", 2048),
    ] {
        let spec = windowed("loopstream", window_kb);
        // Small pages are where the damage shows: force a 4 KB world.
        let mut cfg = scale.native_cfg(PolicyChoice::SmallOnly, 0.0);
        cfg.footprint_cap = Some(window_kb << 10);
        let mut scenario = NativeScenario::prepare(&spec, &cfg);
        let mix = scenario.run(designs::mix(), refs);
        let spi = scenario.run(designs::superpage_indexed(), refs);
        let ratio = if mix.walks_per_kilo > 0.0 {
            spi.walks_per_kilo / mix.walks_per_kilo
        } else if spi.walks_per_kilo > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        ratio_sum += ratio.min(1000.0);
        n += 1.0;
        table.row(vec![
            name.to_owned(),
            format!("{:.2}", mix.walks_per_kilo),
            format!("{:.2}", spi.walks_per_kilo),
            format!("{:.1}x", ratio),
        ]);
    }
    table.print();
    println!("\naverage miss increase: {:.1}x", ratio_sum / n);
    println!(
        "\nPaper claim: superpage index bits increase TLB misses by 4-8x on \
         average versus small-page index bits, because spatially-adjacent \
         small pages collide in one set."
    );
}
