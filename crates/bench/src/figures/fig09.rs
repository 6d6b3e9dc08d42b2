//! Figure 9: fraction of the memory footprint backed by superpages as
//! `memhog` fragmentation varies, for native CPU workload classes and
//! GPUs.

use crate::{banner, pct, Scale, Table};
use mixtlb_sim::{NativeScenario, PolicyChoice};
use mixtlb_trace::{WorkloadClass, WorkloadSpec};

/// Prints Figure 9 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 9",
        "fraction of footprint backed by superpages vs memhog",
        scale,
    );
    let memhogs = [0.0, 0.2, 0.4, 0.6, 0.8];
    let mut table = Table::new(&["memhog", "Spec+Parsec", "big-memory", "GPU"]);
    for hog in memhogs {
        let class_avg = |class: WorkloadClass| -> f64 {
            let specs: Vec<WorkloadSpec> = match class {
                WorkloadClass::Gpu => scale.gpu_workloads(),
                _ => scale
                    .cpu_workloads()
                    .into_iter()
                    .filter(|w| w.class == class)
                    .collect(),
            };
            let mut sum = 0.0;
            let mut n = 0.0;
            for (i, spec) in specs.iter().enumerate() {
                // A GPU's set-up is a native one on the GPU's machine.
                let mut cfg = match class {
                    // The paper's GPU sweep stops at 60%.
                    WorkloadClass::Gpu if hog > 0.6 => continue,
                    WorkloadClass::Gpu => scale.gpu_cfg(PolicyChoice::Ths, hog).scenario,
                    _ => scale.alloc_cfg(PolicyChoice::Ths, hog),
                };
                cfg.seed = 42 + i as u64;
                sum += NativeScenario::prepare(spec, &cfg)
                    .distribution()
                    .superpage_fraction();
                n += 1.0;
            }
            if n > 0.0 {
                sum / n
            } else {
                f64::NAN
            }
        };
        let spec_parsec = class_avg(WorkloadClass::SpecParsec);
        let bigmem = class_avg(WorkloadClass::BigMemory);
        let gpu = class_avg(WorkloadClass::Gpu);
        table.row(vec![
            format!("{:.0}%", hog * 100.0),
            pct(spec_parsec),
            pct(bigmem),
            if gpu.is_nan() { "-".into() } else { pct(gpu) },
        ]);
    }
    table.print();
    println!(
        "\nPaper shape: three regimes — superpages dominate (≥80%) up to moderate \
         fragmentation, a mixed region near 60% memhog, and mostly small pages at 80%."
    );
}
