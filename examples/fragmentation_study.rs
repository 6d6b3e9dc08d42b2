//! Fragmentation study: how memory fragmentation shapes the OS' page-size
//! distribution and superpage contiguity — a miniature of the paper's
//! Figures 9, 11, and 12.
//!
//! ```text
//! cargo run --release --example fragmentation_study
//! ```

#![expect(
    clippy::expect_used,
    reason = "examples keep the happy path readable; a failed setup aborts the demo with its message"
)]

use mixtlb::sim::{NativeScenario, PolicyChoice, ScenarioConfig};
use mixtlb::trace::WorkloadSpec;
use mixtlb::types::PageSize;

fn main() {
    let spec = WorkloadSpec::by_name("memcached").expect("catalog workload");
    println!("workload: {} (THS, 2 GB machine)\n", spec.name);
    println!(
        "{:>8}  {:>12}  {:>14}  {:>10}  {:>9}",
        "memhog", "2MB pages", "superpage frac", "avg contig", "max run"
    );
    for hog in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut cfg = ScenarioConfig::standard();
        cfg.mem_bytes = 2 << 30;
        cfg.policy = PolicyChoice::Ths;
        cfg.memhog_fraction = hog;
        let scenario = NativeScenario::prepare(&spec, &cfg);
        let dist = scenario.distribution();
        let contig = scenario.contiguity(PageSize::Size2M);
        println!(
            "{:>7.0}%  {:>12}  {:>13.1}%  {:>10.1}  {:>9}",
            hog * 100.0,
            dist.pages_2m,
            dist.superpage_fraction() * 100.0,
            contig.average_contiguity(),
            contig.max_run()
        );
    }
    println!(
        "\nThe paper's two observations reproduce: (1) three regimes — \n\
         superpages dominate, then mix with small pages, then vanish — and\n\
         (2) when the OS can make superpages at all, it makes them in\n\
         contiguous runs, which is exactly what MIX TLB coalescing needs."
    );
}
