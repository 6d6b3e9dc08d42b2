//! Figure 11: average superpage contiguity (the translation-weighted mean
//! run length) per workload, for 2 MB and 1 GB superpages, as memhog
//! fragmentation varies. Workloads are ordered by ascending contiguity,
//! as in the paper.

use crate::{banner, Scale, Table};
use mixtlb_sim::{NativeScenario, PolicyChoice, ScenarioConfig};
use mixtlb_types::PageSize;

/// Prints Figure 11 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 11",
        "average superpage contiguity per workload vs memhog",
        scale,
    );
    for (size, policy, label) in [
        (PageSize::Size2M, PolicyChoice::Ths, "2MB (THS)"),
        (PageSize::Size1G, PolicyChoice::Mixed, "1GB (mixed pools)"),
    ] {
        println!("\n--- {label} ---");
        let mut table = Table::new(&["workload", "memhog 20%", "memhog 40%", "memhog 60%"]);
        let mut rows: Vec<(String, [f64; 3])> = Vec::new();
        for (w, spec) in scale.cpu_workloads().into_iter().enumerate() {
            let mut avg = [0.0; 3];
            for (i, hog) in [0.2, 0.4, 0.6].into_iter().enumerate() {
                let mut cfg = scale.alloc_cfg(policy, hog).with_seed(42 + w as u64);
                // 1 GB contiguity is a machine-scale property: tens of
                // 1 GB pages need the paper's 80 GB machine.
                if size == PageSize::Size1G && scale != Scale::Quick {
                    cfg.mem_bytes = ScenarioConfig::paper_scale().mem_bytes;
                }
                let scenario = NativeScenario::prepare(&spec, &cfg);
                avg[i] = scenario.contiguity(size).average_contiguity();
            }
            rows.push((spec.name.to_owned(), avg));
        }
        // Paper orders workloads by ascending contiguity.
        rows.sort_by(|a, b| a.1[0].total_cmp(&b.1[0]));
        for (name, avg) in rows {
            table.row(vec![
                name,
                format!("{:.1}", avg[0]),
                format!("{:.1}", avg[1]),
                format!("{:.1}", avg[2]),
            ]);
        }
        table.print();
    }
    println!(
        "\nPaper shape: when superpages form at all they form contiguously — most \
         workloads see 80+ contiguous 2 MB pages at 20% memhog (enough to offset \
         16-128 mirrors), degrading but staying useful as fragmentation grows; \
         1 GB contiguity is lower (tens) but covers a large footprint share."
    );
}
