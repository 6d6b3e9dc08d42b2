//! GPU address translation: per-SM L1 TLBs (split vs MIX) under Rodinia-
//! like kernels sharing one virtual address space with the CPU.
//!
//! ```text
//! cargo run --release --example gpu_translation
//! ```

use mixtlb::gpu::{GpuConfig, GpuScenario};
use mixtlb::sim::{designs, improvement_percent};
use mixtlb::trace::{WorkloadClass, WorkloadSpec};

fn main() {
    let mut cfg = GpuConfig::standard();
    cfg.scenario.mem_bytes = 1 << 30;
    println!(
        "{} SMs | per-SM L1 TLBs | shared L2 TLB + walker | THS\n",
        cfg.sms
    );
    println!(
        "{:<12} {:>13} {:>13} {:>10} {:>13}",
        "kernel", "split cycles", "mix cycles", "mix L1", "improvement"
    );
    for spec in WorkloadSpec::of_class(WorkloadClass::Gpu) {
        let mut scenario = GpuScenario::prepare(&spec, &cfg);
        let split = scenario.run(designs::gpu_split_l1, 100_000);
        let mix = scenario.run(designs::gpu_mix_l1, 100_000);
        println!(
            "{:<12} {:>13.0} {:>13.0} {:>9.1}% {:>+12.1}%",
            spec.name,
            split.total_cycles,
            mix.total_cycles,
            mix.l1_hit_rate * 100.0,
            improvement_percent(&split, &mix),
        );
    }
    println!(
        "\nThe coalesced-stream kernels (backprop, kmeans, srad) keep more\n\
         concurrent 2 MB tiles in flight than a split design's superpage TLB\n\
         holds; MIX coalesces the adjacent tiles into a couple of entries\n\
         and serves them from the L1 (paper Sec. 7.2, GPU results)."
    );
}
