//! Figure 17: breakdown of address-translation dynamic energy into
//! lookups, page-table walks (misses), fills, and other operations, for
//! GPU workloads, normalized to the split baseline's total.

use crate::{banner, pct, Scale, Table};
use mixtlb_gpu::GpuScenario;
use mixtlb_sim::{designs, PolicyChoice};

/// Prints Figure 17 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 17",
        "dynamic translation energy breakdown (normalized to split total)",
        scale,
    );
    let refs = scale.refs();
    let mut table = Table::new(&[
        "workload", "design", "lookup", "walk", "fill", "other", "total",
    ]);
    for spec in scale.gpu_workloads() {
        let cfg = scale.gpu_cfg(PolicyChoice::Ths, 0.2);
        let mut scenario = GpuScenario::prepare(&spec, &cfg);
        let split = scenario.run(designs::gpu_split_l1, refs);
        let mix = scenario.run(designs::gpu_mix_l1, refs);
        let split_total = split.dynamic_energy.total_pj().max(f64::MIN_POSITIVE);
        for (label, report) in [("split", &split), ("mix", &mix)] {
            let e = report.dynamic_energy;
            table.row(vec![
                spec.name.to_owned(),
                label.to_owned(),
                pct(e.lookup_pj / split_total),
                pct(e.walk_pj / split_total),
                pct(e.fill_pj / split_total),
                pct(e.other_pj / split_total),
                pct(e.total_pj() / split_total),
            ]);
        }
    }
    table.print();
    println!(
        "\nPaper shape: lookups and misses (walks) dominate dynamic energy; fill \
         energy — where MIX mirroring lives — stays small, so MIX's big walk \
         reductions dwarf its mirroring overhead, and MIX lookup energy is \
         unchanged (single-set probes, no predictor)."
    );
}
