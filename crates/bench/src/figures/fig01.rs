//! Figure 1: percentage of runtime devoted to address translation on a
//! commercial split-TLB hierarchy (green bars) versus a hypothetical ideal
//! set-associative TLB supporting all page sizes (blue bars), for mcf,
//! graph500, and memcached under 4 KB-only, 2 MB-only, 1 GB-only, and
//! mixed page-size policies.

use crate::{banner, pct, Scale, Table};
use mixtlb_sim::{designs, NativeScenario, PolicyChoice};
use mixtlb_trace::WorkloadSpec;

/// Prints Figure 1 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 1",
        "% runtime on address translation: split vs ideal unified TLB",
        scale,
    );
    // In catalog order, so a filter over the catalog keeps the rows' order.
    let workloads = ["mcf", "graph500", "memcached"];
    let policies = [
        ("4KB", PolicyChoice::SmallOnly),
        ("2MB", PolicyChoice::Huge2M),
        ("1GB", PolicyChoice::Huge1G),
        ("Mixed", PolicyChoice::Mixed),
    ];
    let mut table = Table::new(&["workload", "pages", "split (green)", "ideal (blue)"]);
    for spec in WorkloadSpec::catalog()
        .into_iter()
        .filter(|w| workloads.contains(&w.name))
    {
        for (label, policy) in policies {
            let cfg = scale.native_cfg(policy, 0.0);
            let mut scenario = NativeScenario::prepare(&spec, &cfg);
            let split = scenario.run(designs::haswell_split(), scale.refs());
            let ideal = scenario.run(designs::oracle(), scale.refs());
            table.row(vec![
                spec.name.to_owned(),
                label.to_owned(),
                pct(split.translation_overhead),
                pct(ideal.translation_overhead),
            ]);
        }
    }
    table.print();
    println!(
        "\nPaper shape: translation overhead stays substantial on split TLBs even \
         with superpages, while the ideal unified TLB cuts it sharply — the gap \
         is the utilization lost to static partitioning."
    );
}
