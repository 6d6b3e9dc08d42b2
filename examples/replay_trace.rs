//! Record-once, replay-many: the Pin-style trace methodology (paper
//! Sec. 6.2) on our binary trace format. Records a workload trace to a
//! temporary file, then replays the identical reference stream through
//! two TLB designs via the translation engine.
//!
//! ```text
//! cargo run --release --example replay_trace [workload]
//! ```

use mixtlb::sim::{designs, NativeScenario, ScenarioConfig, TranslationEngine, WalkBackend};
use mixtlb::trace::{TraceFileV2, TraceGenerator, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "redis".to_owned());
    let spec = WorkloadSpec::by_name(&name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload '{name}'");
            std::process::exit(1);
        })
        .with_footprint(192 << 20);

    // Build the OS state the trace will run against: a 256 MB THS machine.
    let cfg = ScenarioConfig {
        mem_bytes: 256 << 20,
        ..ScenarioConfig::quick()
    };
    let scenario = NativeScenario::prepare(&spec, &cfg);

    // Record once...
    let path = std::env::temp_dir().join("mixtlb-replay-example.mtc2");
    let events = TraceFileV2::record(
        &path,
        TraceGenerator::new(&spec, 7, scenario.region()).take(150_000),
    )?;
    println!("recorded {events} events of '{}' to {}\n", spec.name, path.display());

    // ...replay many times, one engine per design, byte-identical input.
    for hierarchy in [designs::haswell_split(), designs::mix()] {
        let mut pt = scenario.clone_page_table();
        let design = hierarchy.name().to_owned();
        let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
        for event in TraceFileV2::open(&path)? {
            engine.access(&event?);
        }
        let (stats, l1, _, _) = engine.finish();
        println!(
            "{design:>6}: {} accesses | L1 hit {:>5.1}% | walks {:>6} | stall cycles {}",
            stats.accesses,
            l1.hit_rate() * 100.0,
            stats.walks,
            stats.stall_cycles
        );
    }
    std::fs::remove_file(&path).ok();
    println!(
        "\nIdentical inputs, different designs: exactly how the paper's\n\
         Pin-trace methodology compares TLBs (Sec. 6.2)."
    );
    Ok(())
}
