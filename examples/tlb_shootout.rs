//! TLB shootout: every design in the workspace against one workload —
//! runtime, hit rates, walks, and translation energy side by side.
//!
//! ```text
//! cargo run --release --example tlb_shootout [workload]
//! ```

use mixtlb::sim::{designs, improvement_percent, NativeScenario, PolicyChoice, ScenarioConfig};
use mixtlb::trace::WorkloadSpec;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gups".to_owned());
    let spec = WorkloadSpec::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload '{name}'; try one of:");
        for w in WorkloadSpec::catalog() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(1);
    });
    let mut cfg = ScenarioConfig::standard();
    cfg.mem_bytes = 2 << 30;
    cfg.policy = PolicyChoice::Ths;
    println!("workload: {} | THS | 2 GB machine | 200k references\n", spec.name);
    let mut scenario = NativeScenario::prepare(&spec, &cfg);
    let split = scenario.run(designs::haswell_split(), 200_000);
    println!(
        "{:<12} {:>12} {:>9} {:>8} {:>8} {:>9} {:>11}",
        "design", "cycles", "vs split", "L1 hit", "L2 hit", "walks/k", "energy(µJ)"
    );
    let all = designs::all_cpu_designs();
    for (_, factory) in all {
        let report = scenario.run(factory(), 200_000);
        println!(
            "{:<12} {:>12.0} {:>+8.1}% {:>7.1}% {:>7.1}% {:>9.1} {:>11.2}",
            report.design,
            report.total_cycles,
            improvement_percent(&split, &report),
            report.l1_hit_rate * 100.0,
            report.l2_hit_rate * 100.0,
            report.walks_per_kilo,
            report.total_energy_pj / 1e6,
        );
    }
    println!(
        "\n(oracle = the unrealizable ideal of the paper's Figure 1; the gap\n\
         between split and oracle is the utilization lost to partitioning,\n\
         and MIX TLBs close most of it.)"
    );
}
