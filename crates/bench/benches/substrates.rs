//! Criterion micro-benchmarks for the substrates: page-table walks,
//! demand faults (THS vs 4 KB), buddy allocation, memhog fragmentation,
//! and trace generation. These size the simulator, not modeled hardware.

#![expect(
    clippy::unwrap_used,
    reason = "benchmark setup runs on fixed inputs; a failure aborts the harness"
)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mixtlb_mem::{FrameKind, Memhog, MemhogConfig, MemoryConfig, PhysicalMemory};
use mixtlb_os::{Kernel, PagingPolicy, ThsConfig};
use mixtlb_pagetable::{BumpFrameSource, PageTable, Walker};
use mixtlb_trace::{TraceGenerator, WorkloadSpec};
use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, VirtAddr, Vpn};

fn bench_walks(c: &mut Criterion) {
    let mut frames = BumpFrameSource::new(0x100_0000);
    let mut pt = PageTable::new(&mut frames);
    for i in 0..1024u64 {
        pt.map(
            Translation::new(
                Vpn::new(i),
                Pfn::new(0x20_0000 + i),
                PageSize::Size4K,
                Permissions::rw_user(),
            ),
            &mut frames,
        )
        .unwrap();
    }
    let mut group = c.benchmark_group("pagetable");
    group.bench_function("walk-4k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(Walker::walk(
                &mut pt,
                VirtAddr::new(i * 4096),
                AccessKind::Load,
            ))
        })
    });
    group.bench_function("lookup-4k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(pt.lookup(Vpn::new(i)))
        })
    });
    group.finish();
}

fn bench_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem");
    group.bench_function("buddy-alloc-free-4k", |b| {
        let mut mem = PhysicalMemory::new(MemoryConfig::with_bytes(256 << 20));
        b.iter(|| {
            let p = mem.alloc_page(PageSize::Size4K, FrameKind::Movable).unwrap();
            mem.free_page(black_box(p), PageSize::Size4K);
        })
    });
    group.bench_function("buddy-alloc-free-2m", |b| {
        let mut mem = PhysicalMemory::new(MemoryConfig::with_bytes(256 << 20));
        b.iter(|| {
            let p = mem.alloc_page(PageSize::Size2M, FrameKind::Movable).unwrap();
            mem.free_page(black_box(p), PageSize::Size2M);
        })
    });
    group.sample_size(10);
    group.bench_function("memhog-40pct-256mb", |b| {
        b.iter(|| {
            let mut mem = PhysicalMemory::new(MemoryConfig::with_bytes(256 << 20));
            black_box(Memhog::fragment(&mut mem, MemhogConfig::with_fraction(0.4)))
        })
    });
    group.finish();
}

fn bench_faulting(c: &mut Criterion) {
    let mut group = c.benchmark_group("os-fault-64mb");
    group.sample_size(10);
    group.bench_function("ths", |b| {
        b.iter(|| {
            let mut k = Kernel::new(PhysicalMemory::new(MemoryConfig::with_bytes(128 << 20)));
            let s = k.create_space(PagingPolicy::TransparentHuge(ThsConfig::default()));
            k.mmap(s, Vpn::new(1 << 18), 16_384, Permissions::rw_user()).unwrap();
            black_box(k.fault_all(s))
        })
    });
    group.bench_function("small-only", |b| {
        b.iter(|| {
            let mut k = Kernel::new(PhysicalMemory::new(MemoryConfig::with_bytes(128 << 20)));
            let s = k.create_space(PagingPolicy::SmallOnly);
            k.mmap(s, Vpn::new(1 << 18), 16_384, Permissions::rw_user()).unwrap();
            black_box(k.fault_all(s))
        })
    });
    group.finish();
}

fn bench_tracegen(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracegen");
    for name in ["gups", "memcached", "mcf", "backprop"] {
        let spec = WorkloadSpec::by_name(name).unwrap().with_footprint(256 << 20);
        let mut generator = TraceGenerator::new(&spec, 42, Vpn::new(1 << 18));
        group.bench_function(name, |b| {
            b.iter(|| black_box(generator.next()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_walks,
    bench_allocation,
    bench_faulting,
    bench_tracegen
);
criterion_main!(benches);
