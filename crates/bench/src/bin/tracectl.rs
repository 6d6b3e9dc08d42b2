//! Trace tooling CLI: record synthetic workload traces to the binary
//! on-disk (v2) format, inspect them, and verify replay determinism.
//!
//! ```text
//! tracectl record <workload> <events> <path> [footprint_mb] [seed]
//! tracectl info <path>
//! tracectl verify <workload> <events> <path> [footprint_mb] [seed]
//! ```
//!
//! `info` audits a trace through the streaming block reader in constant
//! memory — one block buffer reused across the whole file regardless of
//! corpus length — verifying every block's FNV-1a and reporting
//! per-block event/byte statistics.

use std::collections::HashSet;
use std::process::exit;

use mixtlb_sim::REGION;
use mixtlb_trace::{
    decode_block, BlockReader, RawBlock, TraceEvent, TraceFileV2, TraceGenerator, WorkloadSpec,
};
use mixtlb_types::VirtAddr;

fn usage() -> ! {
    eprintln!(
        "usage:\n  tracectl record <workload> <events> <path> [footprint_mb] [seed]\n  \
         tracectl info <path>\n  \
         tracectl verify <workload> <events> <path> [footprint_mb] [seed]\n\n\
         workloads: {}",
        WorkloadSpec::catalog()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    exit(2);
}

fn generator(args: &[String]) -> (TraceGenerator, u64) {
    let spec = WorkloadSpec::by_name(&args[0]).unwrap_or_else(|| {
        eprintln!("unknown workload '{}'", args[0]);
        usage();
    });
    let events: u64 = args[1].parse().unwrap_or_else(|_| usage());
    let footprint_mb: u64 = args
        .get(3)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(256);
    let seed: u64 = args
        .get(4)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(42);
    // Every address of the footprint must fit the modeled address space.
    let base = VirtAddr::from_page(REGION, 0).raw();
    let fits = |bytes: u64| {
        base.checked_add(bytes - 1)
            .is_some_and(|last| VirtAddr::new(last).is_canonical())
    };
    let Some(footprint) = footprint_mb
        .checked_mul(1 << 20)
        .filter(|&bytes| bytes > 0 && fits(bytes))
    else {
        eprintln!(
            "tracectl: footprint_mb must be at least 1, and the footprint must fit the \
             48-bit address space above {base:#x}"
        );
        usage();
    };
    let spec = spec.with_footprint(footprint);
    (TraceGenerator::new(&spec, seed, REGION), events)
}

/// Stream statistics reported by `info`.
#[derive(Default)]
struct StreamStats {
    events: u64,
    stores: u64,
    pages: HashSet<u64>,
    pcs: HashSet<u64>,
    min_va: u64,
    max_va: u64,
}

impl StreamStats {
    fn new() -> StreamStats {
        StreamStats {
            min_va: u64::MAX,
            ..StreamStats::default()
        }
    }

    fn add(&mut self, ev: &TraceEvent) {
        self.events += 1;
        if ev.kind.is_store() {
            self.stores += 1;
        }
        self.pages.insert(ev.va.vpn().raw());
        self.pcs.insert(ev.pc);
        self.min_va = self.min_va.min(ev.va.raw());
        self.max_va = self.max_va.max(ev.va.raw());
    }

    fn print(&self) {
        if self.events == 0 {
            return;
        }
        println!(
            "stores:         {} ({:.1}%)",
            self.stores,
            self.stores as f64 / self.events as f64 * 100.0
        );
        println!("distinct pages: {}", self.pages.len());
        println!("distinct PCs:   {}", self.pcs.len());
        println!("va range:       {:#x}..{:#x}", self.min_va, self.max_va);
    }
}

fn info(path: &str) {
    // Stream the file block by block through one reused buffer: the
    // audit runs in constant memory no matter how long the corpus is,
    // while still verifying every block's checksum and accumulating
    // per-block shape statistics.
    let mut blocks = BlockReader::open(path).unwrap_or_else(|e| {
        eprintln!("open failed: {e}");
        exit(1);
    });
    let promised = blocks.event_count();
    let mut raw = RawBlock::default();
    let mut decoded: Vec<TraceEvent> = Vec::new();
    let mut stats = StreamStats::new();
    let mut nblocks = 0u64;
    let mut payload_bytes = 0u64;
    let mut min_block = u64::MAX;
    let mut max_block = 0u64;
    loop {
        match blocks.read_block(&mut raw) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                eprintln!("corrupt block {}: {e}", blocks.blocks_read());
                exit(1);
            }
        }
        decode_block(&raw, &mut decoded).unwrap_or_else(|e| {
            eprintln!("corrupt block {}: {e}", raw.seq());
            exit(1);
        });
        nblocks += 1;
        payload_bytes += raw.payload_bytes() as u64;
        min_block = min_block.min(raw.count());
        max_block = max_block.max(raw.count());
        for ev in &decoded {
            stats.add(ev);
        }
    }
    if blocks.events_remaining() != 0 {
        eprintln!(
            "truncated: header promises {promised} events, {} never arrived",
            blocks.events_remaining()
        );
        exit(1);
    }
    let on_disk = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("format:         v2");
    println!(
        "events:         {} (header promises {promised})",
        stats.events
    );
    println!(
        "size:           {on_disk} B ({:.2} B/event)",
        on_disk as f64 / stats.events.max(1) as f64
    );
    if nblocks > 0 {
        println!(
            "blocks:         {nblocks} ({min_block}..={max_block} events, {:.1} B/event payload)",
            payload_bytes as f64 / stats.events.max(1) as f64
        );
    }
    println!("checksums:      OK (every block audited, constant memory)");
    stats.print();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") if args.len() >= 4 => {
            let (generator, events) = generator(&args[1..]);
            let path = &args[3];
            let written = TraceFileV2::record(path, generator.take(events as usize))
                .unwrap_or_else(|e| {
                    eprintln!("record failed: {e}");
                    exit(1);
                });
            println!("wrote {written} events to {path}");
        }
        Some("info") if args.len() == 2 => info(&args[1]),
        Some("verify") if args.len() >= 4 => {
            let (generator, events) = generator(&args[1..]);
            let path = &args[3];
            let file = TraceFileV2::open(path).unwrap_or_else(|e| {
                eprintln!("open failed: {e}");
                exit(1);
            });
            let mut mismatches = 0u64;
            let mut compared = 0u64;
            for (expected, got) in generator.take(events as usize).zip(file) {
                let got = got.unwrap_or_else(|e| {
                    eprintln!("corrupt record: {e}");
                    exit(1);
                });
                compared += 1;
                if expected != got {
                    mismatches += 1;
                }
            }
            if mismatches == 0 && compared == events {
                println!("OK: {compared} events match the regenerated stream");
            } else {
                eprintln!("MISMATCH: {mismatches} of {compared} differ (wanted {events})");
                exit(1);
            }
        }
        _ => usage(),
    }
}
