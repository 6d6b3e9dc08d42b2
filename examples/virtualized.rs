//! Virtualized translation: guest page tables, EPTs, 24-reference 2-D
//! walks, page-size splintering, and MIX vs split under consolidation.
//!
//! ```text
//! cargo run --release --example virtualized
//! ```

#![expect(
    clippy::expect_used,
    reason = "examples keep the happy path readable; a failed setup aborts the demo with its message"
)]

use mixtlb::sim::{designs, improvement_percent, VirtConfig, VirtScenario};
use mixtlb::trace::WorkloadSpec;
use mixtlb::types::PageSize;

fn main() {
    let spec = WorkloadSpec::by_name("memcached").expect("catalog workload");
    println!("workload: {} in consolidated VMs (THS guests over a THS host)\n", spec.name);
    println!(
        "{:>4}  {:>15}  {:>12}  {:>12}  {:>14}",
        "VMs", "superpage frac", "avg contig", "split cycles", "MIX improvement"
    );
    for vms in [1u32, 2, 4] {
        let mut cfg = VirtConfig::standard(vms, 0.0);
        cfg.footprint_cap = Some(1 << 30);
        let mut scenario = VirtScenario::prepare(&spec, &cfg);
        let dist = scenario.effective_distribution(0);
        let contig = scenario.effective_contiguity(0, PageSize::Size2M);
        let split = scenario.run(0, designs::haswell_split(), 100_000);
        let mix = scenario.run(0, designs::mix(), 100_000);
        println!(
            "{:>4}  {:>14.1}%  {:>12.1}  {:>12.0}  {:>+13.1}%",
            vms,
            dist.superpage_fraction() * 100.0,
            contig.average_contiguity(),
            split.total_cycles,
            improvement_percent(&split, &mix),
        );
    }
    println!(
        "\nEvery miss costs a 2-D walk of up to 24 PTE references, so the TLB\n\
         hits MIX recovers are worth more under virtualization (paper Sec. 2).\n\
         Consolidation splinters host superpages (page sharing), shrinking the\n\
         effective superpage fraction — the trend of the paper's Figure 10."
    );
}
