//! Figure 16: performance-energy scatter. For each workload, percent
//! performance improvement (x) and percent translation-energy savings (y)
//! versus the split baseline — for skew+prediction and hash-rehash+
//! prediction (left plot) and MIX TLBs (right plot). Points in the upper
//! right are better.

use crate::{banner, signed_pct, Scale, Table};
use mixtlb_sim::{designs, improvement_percent, NativeScenario, PerfReport, PolicyChoice};

/// Prints Figure 16 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 16",
        "perf (x) vs translation-energy savings (y), relative to split",
        scale,
    );
    let refs = scale.refs();
    // In `designs::all_cpu_designs` order; the averages follow it too.
    let contenders: [(&str, designs::DesignFactory); 3] = [
        ("mix", designs::mix),
        ("hr+pred", designs::hash_rehash_pred),
        ("skew+pred", designs::skew_pred),
    ];
    let mut table = Table::new(&["workload", "design", "perf vs split", "energy saved"]);
    // Per contender: (perf sum, energy sum, workload count).
    let mut sums = [(0.0f64, 0.0f64, 0.0f64); 3];
    for spec in scale.cpu_workloads() {
        let cfg = scale.native_cfg(PolicyChoice::Ths, 0.2);
        let mut scenario = NativeScenario::prepare(&spec, &cfg);
        let split: PerfReport = scenario.run(designs::haswell_split(), refs);
        for (&(name, factory), entry) in contenders.iter().zip(&mut sums) {
            let report = scenario.run(factory(), refs);
            let perf = improvement_percent(&split, &report);
            let energy = report.energy_savings_vs(&split);
            entry.0 += perf;
            entry.1 += energy;
            entry.2 += 1.0;
            table.row(vec![
                spec.name.to_owned(),
                name.to_owned(),
                signed_pct(perf),
                signed_pct(energy),
            ]);
        }
    }
    table.print();
    println!("\naverages:");
    let mut avg = Table::new(&["design", "perf vs split", "energy saved"]);
    for (&(name, _), (p, e, n)) in contenders.iter().zip(sums) {
        avg.row(vec![name.to_owned(), signed_pct(p / n), signed_pct(e / n)]);
    }
    avg.print();
    println!(
        "\nPaper shape: MIX lands in the top-right quadrant (better performance \
         AND energy); skew burns lookup energy reading every way, hash-rehash \
         pays predictor + rehash probes, and both can even lose performance \
         when predictions miss."
    );
}
