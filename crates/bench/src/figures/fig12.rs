//! Figure 12: CDF of 2 MB superpage contiguity for native CPU workloads as
//! memhog varies. Each point `(run length, fraction)` gives the share of
//! superpage translations living in runs of at most that length.

use super::cdf_row;
use crate::{banner, Scale, Table};
use mixtlb_sim::{NativeScenario, PolicyChoice};
use mixtlb_types::PageSize;

/// Prints Figure 12 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 12",
        "2 MB superpage contiguity CDF, native CPU, memhog sweep",
        scale,
    );
    let points = [1u64, 4, 16, 64, 256, 1024];
    let mut table = Table::new(&["memhog", "run<=1", "<=4", "<=16", "<=64", "<=256", "<=1024"]);
    for hog in [0.2, 0.4, 0.6] {
        let mut runs: Vec<u64> = Vec::new();
        for (w, spec) in scale.cpu_workloads().into_iter().enumerate() {
            let cfg = scale
                .alloc_cfg(PolicyChoice::Ths, hog)
                .with_seed(42 + w as u64);
            let scenario = NativeScenario::prepare(&spec, &cfg);
            runs.extend(scenario.contiguity(PageSize::Size2M).runs.iter().copied());
        }
        table.row(cdf_row(hog, &runs, &points));
    }
    table.print();
    println!(
        "\nPaper shape: considerable contiguity even under fragmentation — the CDF \
         stays low at small run lengths (most translations live in long runs) and \
         shifts left as memhog grows."
    );
}
