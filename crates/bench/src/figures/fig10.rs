//! Figure 10: fraction of the footprint backed by (effective) superpages
//! under virtualization, as VM consolidation and in-VM memhog vary.
//! `N VM : M mh` = N consolidated VMs, each running memhog at M%.

use crate::{banner, pct, Scale, Table};
use mixtlb_sim::VirtScenario;

/// Prints Figure 10 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 10",
        "effective superpage fraction vs VM consolidation x memhog",
        scale,
    );
    let configs: &[(u32, f64)] = &[
        (1, 0.0),
        (1, 0.4),
        (2, 0.2),
        (2, 0.4),
        (4, 0.2),
        (4, 0.4),
        (8, 0.4),
        (8, 0.6),
    ];
    let specs = scale.big_memory_workloads();
    let mut table = Table::new(&["config", "superpage fraction (avg)"]);
    for &(vms, hog) in configs {
        let mut sum = 0.0f64;
        let mut n = 0.0f64;
        for (i, spec) in specs.iter().enumerate() {
            let mut cfg = scale.virt_cfg(vms, hog);
            cfg.seed = 42 + i as u64;
            let scenario = VirtScenario::prepare(spec, &cfg);
            // Average the effective distribution over the VMs.
            for vm in 0..scenario.vm_count() {
                sum += scenario.effective_distribution(vm).superpage_fraction();
                n += 1.0;
            }
        }
        table.row(vec![
            format!("{vms} VM : {:.0} mh", hog * 100.0),
            pct(sum / n.max(1.0)),
        ]);
    }
    table.print();
    println!(
        "\nPaper shape: guests counter non-trivial fragmentation (70%+ superpages \
         at 4 VMs / 40% memhog), but heavy consolidation + memhog splinters pages."
    );
}
