//! Criterion micro-benchmarks: lookup and fill throughput of each TLB
//! design, plus an end-to-end translation-engine replay. These measure the
//! *simulator's* speed (useful when sizing experiments), not modeled
//! hardware latency — hardware costs are what `TlbStats` counts.

#![expect(
    clippy::unwrap_used,
    reason = "benchmark setup runs on fixed inputs; a failure aborts the harness"
)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mixtlb_baselines::{colt_split, PredictiveHashRehash, SkewTlb, SkewTlbConfig};
use mixtlb_core::{
    MixTlb, MixTlbConfig, MultiProbeConfig, MultiProbeTlb, SplitTlb, SplitTlbConfig, TlbDevice,
};
use mixtlb_sim::{designs, NativeScenario, ScenarioConfig};
use mixtlb_trace::WorkloadSpec;
use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};

fn devices() -> Vec<(&'static str, Box<dyn TlbDevice>)> {
    vec![
        ("split", Box::new(SplitTlb::new(SplitTlbConfig::haswell_l1()))),
        ("mix-l1", Box::new(MixTlb::new(MixTlbConfig::l1(16, 4)))),
        ("mix-l2", Box::new(MixTlb::new(MixTlbConfig::l2(128, 4)))),
        (
            "hash-rehash",
            Box::new(MultiProbeTlb::new(MultiProbeConfig::all_sizes(16, 4))),
        ),
        ("skew", Box::new(SkewTlb::new(SkewTlbConfig::new(2, 16)))),
        ("hr+pred", Box::new(PredictiveHashRehash::new(16, 4, 256))),
        ("colt", Box::new(colt_split())),
    ]
}

fn mixed_translations() -> Vec<Translation> {
    let rw = Permissions::rw_user();
    let mut out = Vec::new();
    for i in 0..64u64 {
        out.push(Translation::new(
            Vpn::new(0x10_0000 + i),
            Pfn::new(0x20_0000 + i),
            PageSize::Size4K,
            rw,
        ));
    }
    for i in 0..16u64 {
        out.push(Translation::new(
            Vpn::new((0x800 + i) * 512),
            Pfn::new((0x900 + i) * 512),
            PageSize::Size2M,
            rw,
        ));
    }
    out.push(Translation::new(
        Vpn::new(4 << 18),
        Pfn::new(5 << 18),
        PageSize::Size1G,
        rw,
    ));
    out
}

fn bench_lookups(c: &mut Criterion) {
    let translations = mixed_translations();
    let mut group = c.benchmark_group("lookup");
    for (name, mut tlb) in devices() {
        for t in &translations {
            tlb.fill(t.vpn, t, std::slice::from_ref(t));
        }
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let t = &translations[i % translations.len()];
                i += 1;
                black_box(tlb.lookup(black_box(t.vpn), AccessKind::Load))
            })
        });
    }
    group.finish();
}

fn bench_fills(c: &mut Criterion) {
    let translations = mixed_translations();
    let mut group = c.benchmark_group("fill");
    for (name, mut tlb) in devices() {
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let t = &translations[i % translations.len()];
                i += 1;
                tlb.fill(black_box(t.vpn), black_box(t), std::slice::from_ref(t));
            })
        });
    }
    group.finish();
}

fn bench_engine_replay(c: &mut Criterion) {
    let spec = WorkloadSpec::by_name("gups").unwrap();
    let mut scenario = NativeScenario::prepare(&spec, &ScenarioConfig::quick());
    let mut group = c.benchmark_group("engine-replay-10k");
    group.sample_size(10);
    group.bench_function("split", |b| {
        b.iter(|| black_box(scenario.run(designs::haswell_split(), 10_000)))
    });
    group.bench_function("mix", |b| {
        b.iter(|| black_box(scenario.run(designs::mix(), 10_000)))
    });
    group.finish();
}

criterion_group!(benches, bench_lookups, bench_fills, bench_engine_replay);
criterion_main!(benches);
