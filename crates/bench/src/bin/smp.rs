//! SMP experiment (Secs. 5.1 and 6): multi-programmed cores with
//! ASID-tagged TLBs, a shared LLC, and periodic TLB shootdowns.
//!
//! Two modes:
//!
//! * **Default** (no flags): for each design, a 4-core machine runs four
//!   gups instances (and a heterogeneous gups+graph500 pair) with one
//!   shootdown every 10k accesses per core. Reported per design:
//!   per-core L1/L2 TLB miss rates, walks per 1k accesses, eager vs
//!   epoch-batched shootdown cycles side by side, and machine-wide TLB
//!   sets swept per shootdown — the paper's Sec. 5.1 cost asymmetry.
//! * **Stress** (`--cores N [--spaces M] ...`): the many-core scale-out.
//!   A work-stealing replay drives the pinned gups corpus across `N`
//!   worker cores; `M` address spaces then hammer the generation-counter
//!   ASID allocator (12-bit PCID reuse with flush-on-rollover, stale
//!   hits detected by frame encoding); and an `N`-core machine prices
//!   eager vs epoch-batched shootdowns over one replay. The headline
//!   configuration is `--cores 256 --spaces 1_000_000`.
//!
//! Flags (stress mode): `--cores N` (1..=256: each core is one OS
//! thread), `--spaces M` (default 100_000),
//! `--accesses-per-space K`, `--asid-capacity C` (default 4096, the full
//! 12-bit space), `--refs R` (machine replay length per core),
//! `--chunk-events E` (work-stealing chunk size). Numbers may use `_`
//! separators. A malformed flag prints the usage and exits with 2.

use mixtlb_bench::{banner, Scale, Table};
use mixtlb_cache::SharedCacheConfig;
use mixtlb_perf::{corpus_path, default_corpus_dir, load_events, prepare_scenario};
use mixtlb_sim::designs;
use mixtlb_smp::{
    replay_parallel, run_asid_stress, MultiProgrammedScenario, ShootdownModel, SmpReport,
    SmpScenarioConfig, StressConfig, WsConfig,
};
use mixtlb_types::{Asid, PageSize};

fn scenario_cfg(scale: Scale, refs: u64) -> SmpScenarioConfig {
    SmpScenarioConfig {
        mem_bytes: scale.perf_mem_bytes(),
        per_core_cap: Some(match scale {
            Scale::Quick => 16 << 20,
            _ => 256 << 20,
        }),
        seed: 42,
        // ~8 shootdowns per core per run regardless of scale.
        shootdown_interval: (refs / 8).max(1),
        // Batch four eager shootdowns per epoch close.
        epoch_interval: (refs / 2).max(1),
    }
}

fn report_combo(label: &str, scenario: &MultiProgrammedScenario, refs: u64) {
    println!("\n== {label} ({} cores, {refs} refs/core) ==", scenario.core_count());
    let mut table = Table::new(&[
        "design",
        "core",
        "L1 miss%",
        "L2 miss%",
        "walks/1k",
        "shootdown cycles",
        "epoch cycles",
        "sets/shootdown",
    ]);
    let mut sweep_table = Table::new(&["design", "4K sets/shootdown", "2M", "1G"]);
    for (name, factory) in designs::all_cpu_designs() {
        let mut machine = scenario.build_machine(
            factory,
            SharedCacheConfig::haswell_llc(),
            ShootdownModel::default(),
        );
        sweep_table.row(vec![
            name.to_owned(),
            machine.global_sweep_width(PageSize::Size4K).to_string(),
            machine.global_sweep_width(PageSize::Size2M).to_string(),
            machine.global_sweep_width(PageSize::Size1G).to_string(),
        ]);
        let report = machine.run_parallel(refs);
        for core in &report.cores {
            let l2_miss = core.l2.map_or(f64::NAN, |l2| {
                if l2.lookups == 0 {
                    0.0
                } else {
                    l2.misses as f64 * 100.0 / l2.lookups as f64
                }
            });
            table.row(vec![
                name.to_owned(),
                core.id.to_string(),
                format!("{:.2}", core.l1_miss_pct()),
                format!("{l2_miss:.2}"),
                format!("{:.1}", core.walks_per_kilo_access()),
                format!(
                    "{}",
                    core.stats.shootdown_cycles_initiated + core.shootdown_cycles_absorbed
                ),
                format!(
                    "{}",
                    core.stats.shootdown_cycles_epoch + core.shootdown_cycles_absorbed_epoch
                ),
                format!("{:.0}", core.sets_per_shootdown()),
            ]);
        }
        if report.total_shootdowns() > 0 {
            println!(
                "{name}: eager {} cycles vs epoch-batched {} cycles over {} shootdowns in {} epochs ({:.1}% saved)",
                report.total_shootdown_cycles(),
                report.total_shootdown_cycles_epoch(),
                report.total_shootdowns(),
                report.total_epochs_closed(),
                report.epoch_savings_pct(),
            );
        }
    }
    table.print();
    println!("\nMachine-wide TLB sets swept per shootdown, by page size:");
    sweep_table.print();
}

fn speedup(scenario: &MultiProgrammedScenario, refs: u64) -> (SmpReport, SmpReport) {
    let mut par = scenario.build_machine(
        designs::mix,
        SharedCacheConfig::haswell_llc(),
        ShootdownModel::default(),
    );
    let mut ser = scenario.build_machine(
        designs::mix,
        SharedCacheConfig::haswell_llc(),
        ShootdownModel::default(),
    );
    (par.run_parallel(refs), ser.run_serial(refs))
}

/// Work-stealing replay of the pinned gups corpus across `cores`
/// workers.
fn ws_corpus_replay(cores: usize, chunk_events: usize) {
    let path = corpus_path(&default_corpus_dir(), "gups");
    let events = match load_events(&path) {
        Ok(ev) => ev,
        Err(e) => {
            println!("\n[ws] corpus {} unavailable ({e}); skipping work-stealing replay", path.display());
            return;
        }
    };
    let Some(scenario) = prepare_scenario("gups") else {
        println!("\n[ws] gups missing from the workload catalog; skipping");
        return;
    };
    let pt = scenario.clone_page_table();
    let cfg = WsConfig::new(cores, chunk_events);
    let report = replay_parallel(&events, &pt, designs::mix, &cfg);
    let busy = report.cores.iter().filter(|c| !c.chunks.is_empty()).count();
    println!(
        "\n[ws] gups corpus ({} events) over {} cores (chunk {}): {:.2} M events/s, {} chunks, {} stolen, {} cores busy",
        report.events,
        cores,
        chunk_events,
        report.throughput_meps(),
        report.cores.iter().map(|c| c.chunks.len()).sum::<usize>(),
        report.total_steals(),
        busy,
    );
}

/// The many-core stress: ASID rollover at scale plus eager-vs-epoch
/// shootdown pricing on an N-core machine.
fn stress(args: &StressArgs) {
    println!(
        "== SMP stress: {} cores, {} spaces, tag capacity {} ==",
        args.cores, args.spaces, args.asid_capacity
    );

    ws_corpus_replay(args.cores, args.chunk_events);

    let mut cfg = StressConfig::new(args.cores, args.spaces);
    cfg.accesses_per_space = args.accesses_per_space;
    cfg.asid_capacity = args.asid_capacity;
    let report = run_asid_stress(designs::mix, &cfg);
    println!(
        "\n[asid] {} spaces over {} cores in {:.2} s: {} generations, {} rollover flushes, {} steals, {} lookups",
        report.total_spaces(),
        args.cores,
        report.elapsed.as_secs_f64(),
        report.generations,
        report.total_flushes(),
        report.total_steals(),
        report.cores.iter().map(|c| c.lookups).sum::<u64>(),
    );
    println!(
        "[asid] stale hits after rollover: {} (must be 0)",
        report.total_stale_hits()
    );
    assert_eq!(
        report.total_stale_hits(),
        0,
        "stale TLB hit survived an ASID rollover"
    );

    // Eager vs epoch-batched shootdowns on an N-core machine. The
    // footprint cap keeps N pre-faulted spaces inside the quick memory
    // budget even at 256 cores.
    let machine_cfg = SmpScenarioConfig {
        mem_bytes: 1 << 30,
        per_core_cap: Some(2 << 20),
        seed: 42,
        shootdown_interval: (args.refs / 8).max(1),
        epoch_interval: (args.refs / 2).max(1),
    };
    let scenario = MultiProgrammedScenario::gups_times(args.cores, &machine_cfg);
    let mut machine = scenario.build_machine(
        designs::mix,
        SharedCacheConfig::haswell_llc(),
        ShootdownModel::default(),
    );
    let run = machine.run_parallel(args.refs);
    println!(
        "\n[shootdown] mix, {} cores x {} refs: eager {} cycles vs epoch-batched {} cycles \
         over {} shootdowns in {} epochs ({:.1}% saved; {:.0} vs {:.0} sets swept per shootdown)",
        args.cores,
        args.refs,
        run.total_shootdown_cycles(),
        run.total_shootdown_cycles_epoch(),
        run.total_shootdowns(),
        run.total_epochs_closed(),
        run.epoch_savings_pct(),
        run.sets_per_shootdown(),
        run.total_sets_swept_epoch() as f64 / run.total_shootdowns().max(1) as f64,
    );
    println!("\nstress OK");
}

/// Largest `--cores`: the headline run. Each core is one OS thread in
/// every stage, and the machine model's remote tables grow as cores².
const MAX_CORES: usize = 256;

struct StressArgs {
    cores: usize,
    spaces: u64,
    accesses_per_space: u64,
    asid_capacity: u16,
    refs: u64,
    chunk_events: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: smp [--cores N [--spaces M] [--accesses-per-space K] [--asid-capacity C]\n\
         \x20          [--refs R] [--chunk-events E]]\n\
         N is 1..={MAX_CORES}; without --cores, runs the default 4-core design sweep;\n\
         numbers may use _ separators"
    );
    std::process::exit(2);
}

/// Parses `1_000_000`-style numbers; anything else is a usage error.
fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.map(|v| v.replace('_', "")).map(|v| v.parse()) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("smp: {flag} needs a numeric argument in range");
            usage();
        }
    }
}

fn parse_args() -> Option<StressArgs> {
    let mut args = std::env::args().skip(1);
    let mut cores = None;
    let mut out = StressArgs {
        cores: 0,
        spaces: 100_000,
        accesses_per_space: 24,
        asid_capacity: 4096,
        refs: 2_000,
        chunk_events: 1_024,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--cores" => cores = Some(parse_num(&flag, args.next())),
            "--spaces" => out.spaces = parse_num(&flag, args.next()),
            "--accesses-per-space" => out.accesses_per_space = parse_num(&flag, args.next()),
            "--asid-capacity" => out.asid_capacity = parse_num(&flag, args.next()),
            "--refs" => out.refs = parse_num(&flag, args.next()),
            "--chunk-events" => out.chunk_events = parse_num(&flag, args.next()),
            other => {
                eprintln!("smp: unknown flag {other:?}");
                usage();
            }
        }
    }
    if cores.is_some_and(|c| !(1..=MAX_CORES).contains(&c))
        || out.spaces == 0
        || out.chunk_events == 0
        || !(2..=Asid::CAPACITY).contains(&out.asid_capacity)
    {
        eprintln!(
            "smp: --cores must be 1..={MAX_CORES}, --spaces and --chunk-events positive, \
             --asid-capacity 2..={}",
            Asid::CAPACITY
        );
        usage();
    }
    cores.map(|cores| StressArgs { cores, ..out })
}

fn main() {
    if let Some(args) = parse_args() {
        stress(&args);
        return;
    }

    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    banner(
        "SMP (Secs. 5.1, 6)",
        "multi-programmed cores, ASID-tagged TLBs, shootdowns, shared LLC",
        scale,
    );
    let refs = scale.refs() / 4;
    let cfg = scenario_cfg(scale, refs);

    let gups4 = MultiProgrammedScenario::gups_times(4, &cfg);
    report_combo("gups x4", &gups4, refs);

    let pair = MultiProgrammedScenario::gups_graph500(&cfg);
    report_combo("gups + graph500", &pair, refs);

    // Work-stealing corpus replay on the host's cores.
    let host_cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    ws_corpus_replay(host_cores.min(8), 1_024);

    // Replay-throughput speedup of the simulator itself.
    let (par, ser) = speedup(&gups4, refs);
    let ratio = ser.elapsed.as_secs_f64() / par.elapsed.as_secs_f64().max(1e-9);
    println!(
        "\nReplay wall-clock (mix, gups x4): parallel {:.1} ms, serial {:.1} ms, speedup {ratio:.2}x \
         ({} host CPUs available)",
        par.elapsed.as_secs_f64() * 1e3,
        ser.elapsed.as_secs_f64() * 1e3,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "\nPaper takeaways: ASID tagging keeps multi-programmed miss rates at\n\
         single-program levels without context-switch flushes (Sec. 6); the\n\
         one real MIX cost is shootdowns — a superpage invalidation sweeps\n\
         every set of every core's MIX TLB, orders of magnitude more sets\n\
         than a split TLB probes (Sec. 5.1), though batching invalidations\n\
         into per-epoch rounds caps each core's sweep at one full flush and\n\
         recovers most of that cost."
    );
}
