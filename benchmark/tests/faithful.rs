//! The traced run's instruments must not change what they measure: for
//! all eight designs on all four workloads (small traces), the
//! adapter-wrapped hierarchies translate and count exactly like the
//! unwrapped one, and the walk/cache replay reproduces the engine's walk
//! count, walk traffic and cache statistics.

use std::path::PathBuf;

use mixtlb_benchmark::layers::{trace_design, wrap, Mode};
use mixtlb_benchmark::workload::WORKLOADS;
use mixtlb_sim::designs::all_cpu_designs;
use mixtlb_trace::TraceFileV2;
use mixtlb_types::{PageSize, Vpn};

#[test]
fn traced_replays_are_faithful_on_every_design_and_workload() {
    for w in &WORKLOADS {
        let setup = w.prepare(11).expect("workload prepares");
        let events = setup.trace_events(8_000);
        let path =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("faithful-{}.mtc2", w.name));
        TraceFileV2::record(&path, events.iter().copied()).expect("trace written");
        for (design, factory) in all_cpu_designs() {
            let t = trace_design(design, factory, &setup.page_table, &path, &events, 2)
                .expect("traced replay");
            let at = format!("{} / {design}", w.name);
            assert!(
                t.faithfulness_errors().is_empty(),
                "{at}: {:?}",
                t.faithfulness_errors()
            );

            let r = &t.reference;
            for wrapped in [&t.timed, &t.logged] {
                assert_eq!(wrapped.digest, r.digest, "{at}: PA digest");
                assert_eq!(wrapped.stats, r.stats, "{at}: engine stats");
                assert_eq!((wrapped.l1, wrapped.l2), (r.l1, r.l2), "{at}: TLB stats");
            }
            let walks = &t.walks;
            let traffic = r.stats.walk_traffic;
            assert_eq!(walks.walks, r.stats.walks, "{at}: walk count");
            assert_eq!(
                walks.memory_reads(),
                traffic.total_reads(),
                "{at}: PWC misses + leaf reads"
            );
            assert_eq!(walks.dirty_ops, r.stats.dirty_microops, "{at}: micro-ops");
            assert_eq!(
                walks.walk_writes + walks.dirty_writes,
                traffic.pte_writes,
                "{at}: PTE writes"
            );
            assert_eq!(walks.caches, r.caches, "{at}: cache hierarchy stats");
            assert_eq!(
                t.spans.read.spans,
                t.spans.decode.spans + 1,
                "{at}: one read per block + EOF"
            );
            assert_eq!(
                t.block_ns.len() as u64,
                t.spans.translate.spans,
                "{at}: blocks"
            );
        }
        std::fs::remove_file(&path).expect("trace removed");
    }
}

#[test]
fn adapters_forward_device_metadata() {
    for (design, factory) in all_cpu_designs() {
        let plain = factory();
        for mode in [Mode::Time, Mode::Log] {
            let (wrapped, _probes) = wrap(factory(), mode);
            assert_eq!(wrapped.name(), plain.name());
            assert_eq!(wrapped.total_entries(), plain.total_entries(), "{design}");
            assert_eq!(wrapped.supports_asids(), plain.supports_asids(), "{design}");
            assert_eq!(wrapped.flush_sets(), plain.flush_sets(), "{design}");
            assert_eq!(wrapped.l1.capacity(), plain.l1.capacity(), "{design}");
            assert_eq!(wrapped.l1.name(), plain.l1.name(), "{design}");
            for size in PageSize::ALL {
                let vpn = Vpn::new(0x4_0200);
                assert_eq!(
                    wrapped.invalidate_sets(vpn, size),
                    plain.invalidate_sets(vpn, size)
                );
            }
        }
    }
}
