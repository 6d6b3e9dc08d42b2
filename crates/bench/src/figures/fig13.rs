//! Figure 13: 2 MB superpage contiguity CDFs for virtualized CPU
//! (effective, nested) and GPU workloads, as memhog varies.

use super::cdf_row;
use crate::{banner, Scale, Table};
use mixtlb_sim::{NativeScenario, PolicyChoice, VirtScenario};
use mixtlb_types::PageSize;

/// Prints Figure 13 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 13",
        "2 MB contiguity CDFs: virtualized CPU and GPU, memhog sweep",
        scale,
    );
    let points = [1u64, 4, 16, 64, 256];
    println!("\n--- virtualized CPU (effective nested contiguity, 2 VMs) ---");
    let mut table = Table::new(&["memhog", "run<=1", "<=4", "<=16", "<=64", "<=256"]);
    let virt_specs = scale.big_memory_workloads();
    for hog in [0.2, 0.4, 0.6] {
        let mut runs = Vec::new();
        for spec in &virt_specs {
            let cfg = scale.virt_cfg(2, hog);
            let scenario = VirtScenario::prepare(spec, &cfg);
            for vm in 0..scenario.vm_count() {
                runs.extend(
                    scenario
                        .effective_contiguity(vm, PageSize::Size2M)
                        .runs
                        .iter()
                        .copied(),
                );
            }
        }
        table.row(cdf_row(hog, &runs, &points));
    }
    table.print();

    println!("\n--- GPU ---");
    let mut table = Table::new(&["memhog", "run<=1", "<=4", "<=16", "<=64", "<=256"]);
    for hog in [0.2, 0.4, 0.6] {
        let mut runs = Vec::new();
        for spec in scale.gpu_workloads() {
            // A GPU's set-up is a native one on the GPU's machine.
            let cfg = scale.gpu_cfg(PolicyChoice::Ths, hog).scenario;
            let scenario = NativeScenario::prepare(&spec, &cfg);
            runs.extend(scenario.contiguity(PageSize::Size2M).runs.iter().copied());
        }
        table.row(cdf_row(hog, &runs, &points));
    }
    table.print();
    println!(
        "\nPaper shape: virtualized and GPU workloads also see considerable \
         contiguity even at high fragmentation (splintering trims but does not \
         erase the runs)."
    );
}
