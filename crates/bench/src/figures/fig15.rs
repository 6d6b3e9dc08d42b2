//! Figure 15: (left) MIX improvement over split with memhog fragmenting
//! memory, workloads in ascending order of benefit; (right) performance
//! overhead of split and MIX versus an ideal never-miss TLB.

use crate::{banner, pct, signed_pct, Scale, Table};
use mixtlb_gpu::GpuScenario;
use mixtlb_sim::{designs, improvement_percent, NativeScenario, PolicyChoice};

/// Prints Figure 15 at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Figure 15",
        "(L) MIX vs split under memhog; (R) overhead vs ideal TLB",
        scale,
    );
    let refs = scale.refs();

    println!("\n--- left: % improvement of MIX over split, memhog sweep ---");
    let mut cpu_rows: Vec<(String, f64, f64)> = Vec::new();
    for spec in scale.cpu_workloads() {
        let mut vals = [0.0f64; 2];
        for (i, hog) in [0.2, 0.8].into_iter().enumerate() {
            let cfg = scale.native_cfg(PolicyChoice::Ths, hog);
            let mut scenario = NativeScenario::prepare(&spec, &cfg);
            let split = scenario.run(designs::haswell_split(), refs);
            let mix = scenario.run(designs::mix(), refs);
            vals[i] = improvement_percent(&split, &mix);
        }
        cpu_rows.push((spec.name.to_owned(), vals[0], vals[1]));
    }
    cpu_rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut table = Table::new(&["CPU workload (asc)", "memhog 20%", "memhog 80%"]);
    for (name, a, b) in &cpu_rows {
        table.row(vec![name.clone(), signed_pct(*a), signed_pct(*b)]);
    }
    table.print();

    let mut gpu_rows: Vec<(String, f64, f64)> = Vec::new();
    for spec in scale.gpu_workloads() {
        let mut vals = [0.0f64; 2];
        for (i, hog) in [0.2, 0.6].into_iter().enumerate() {
            let cfg = scale.gpu_cfg(PolicyChoice::Ths, hog);
            let mut scenario = GpuScenario::prepare(&spec, &cfg);
            let split = scenario.run(designs::gpu_split_l1, refs);
            let mix = scenario.run(designs::gpu_mix_l1, refs);
            vals[i] = improvement_percent(&split, &mix);
        }
        gpu_rows.push((spec.name.to_owned(), vals[0], vals[1]));
    }
    gpu_rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut table = Table::new(&["GPU workload (asc)", "memhog 20%", "memhog 60%"]);
    for (name, a, b) in &gpu_rows {
        table.row(vec![name.clone(), signed_pct(*a), signed_pct(*b)]);
    }
    table.print();

    println!("\n--- right: overhead vs ideal (never-miss) TLB, THS, no memhog ---");
    // Overhead = stall / total: an ideal TLB that never misses has zero
    // translation stalls, so this is exactly the deviation from ideal.
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for spec in scale.cpu_workloads() {
        let cfg = scale.native_cfg(PolicyChoice::Ths, 0.2);
        let mut scenario = NativeScenario::prepare(&spec, &cfg);
        let split = scenario.run(designs::haswell_split(), refs);
        let mix = scenario.run(designs::mix(), refs);
        rows.push((
            spec.name.to_owned(),
            split.translation_overhead,
            mix.translation_overhead,
        ));
    }
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut table = Table::new(&["workload (asc split)", "split overhead", "mix overhead"]);
    let mut split_over_10 = 0;
    let mut mix_over_10 = 0;
    for (name, s, m) in &rows {
        if *s > 0.10 {
            split_over_10 += 1;
        }
        if *m > 0.10 {
            mix_over_10 += 1;
        }
        table.row(vec![name.clone(), pct(*s), pct(*m)]);
    }
    table.print();
    println!(
        "\nworkloads >10% from ideal: split {} / {}, mix {} / {}",
        split_over_10,
        rows.len(),
        mix_over_10,
        rows.len()
    );
    println!(
        "\nPaper shape: MIX consistently outperforms split under fragmentation \
         (20%+ in the paper's setup), and while ~a third of split runs deviate \
         >10% from ideal, MIX stays under 10%."
    );
}
