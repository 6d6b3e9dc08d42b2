//! Figure 18: MIX TLBs versus (and combined with) COLT — average percent
//! improvement over the split baseline for COLT, COLT++, MIX, and
//! MIX+COLT, native and virtualized, as memhog varies.

use crate::{banner, signed_pct, Scale, Table};
use mixtlb_sim::{designs, improvement_percent, NativeScenario, PolicyChoice, VirtScenario};

/// Prints Figure 18 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 18",
        "COLT vs COLT++ vs MIX vs MIX+COLT, average improvement over split",
        scale,
    );
    let refs = scale.refs();
    let contenders: [(&str, designs::DesignFactory); 4] = [
        ("colt", designs::colt),
        ("colt++", designs::colt_plus_plus),
        ("mix", designs::mix),
        ("mix+colt", designs::mix_colt),
    ];
    let mut table = Table::new(&["setup", "colt", "colt++", "mix", "mix+colt"]);
    for (label, virt, hog) in [
        ("native, memhog 20%", false, 0.2),
        ("native, memhog 60%", false, 0.6),
        ("virtual, memhog 20%", true, 0.2),
        ("virtual, memhog 60%", true, 0.6),
    ] {
        let mut sums = [0.0f64; 4];
        let mut n = 0.0;
        let specs = if virt {
            scale.big_memory_workloads()
        } else {
            scale.cpu_workloads()
        };
        for spec in specs {
            if virt {
                let cfg = scale.virt_cfg(2, hog);
                let mut scenario = VirtScenario::prepare(&spec, &cfg);
                let split = scenario.run(0, designs::haswell_split(), refs);
                for (i, (_, factory)) in contenders.iter().enumerate() {
                    let report = scenario.run(0, factory(), refs);
                    sums[i] += improvement_percent(&split, &report);
                }
            } else {
                let cfg = scale.native_cfg(PolicyChoice::Ths, hog);
                let mut scenario = NativeScenario::prepare(&spec, &cfg);
                let split = scenario.run(designs::haswell_split(), refs);
                for (i, (_, factory)) in contenders.iter().enumerate() {
                    let report = scenario.run(factory(), refs);
                    sums[i] += improvement_percent(&split, &report);
                }
            }
            n += 1.0;
        }
        table.row(vec![
            label.to_owned(),
            signed_pct(sums[0] / n),
            signed_pct(sums[1] / n),
            signed_pct(sums[2] / n),
            signed_pct(sums[3] / n),
        ]);
    }
    table.print();
    println!(
        "\nPaper shape: COLT helps mostly when small pages dominate (high \
         fragmentation); COLT++ adds superpage coalescing within the split \
         (8-10% over COLT); MIX beats both by using *all* hardware for any \
         distribution; MIX+COLT is best (>20% in the paper's setup)."
    );
}
