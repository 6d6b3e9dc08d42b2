//! Ablations over the MIX TLB design choices DESIGN.md calls out:
//!
//! * L2 coalescing representation — bitmap vs the paper's length field;
//! * L2 geometry — 128 sets × 4 ways vs 64 sets × 8 ways (same entries);
//! * mirror eviction policy — evicting (the paper's Fig. 8 behaviour) vs
//!   non-evicting (invalid-way-only mirror writes);
//! * fill-time merging — probed-set-only vs all-sets tag checks;
//! * superpage bundle size;
//! * the paging-structure cache (on vs off).

use crate::{banner, signed_pct, Scale, Table};
use mixtlb_core::{CoalesceKind, DirtyPolicy, FillMerge, MirrorPolicy, MixTlb, MixTlbConfig};
use mixtlb_sim::{designs, improvement_percent, NativeScenario, PolicyChoice, TlbHierarchy};
use mixtlb_trace::WorkloadSpec;

fn mix_with(l2: MixTlbConfig, name: &str) -> TlbHierarchy {
    TlbHierarchy::new(
        name,
        Box::new(MixTlb::new(MixTlbConfig::l1(16, 6))),
        Some(Box::new(MixTlb::new(l2))),
    )
}

/// Prints the MIX design-choice ablations at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Ablations",
        "MIX design choices, % improvement over the split baseline",
        scale,
    );
    let refs = scale.refs();
    let workloads = ["gups", "memcached", "mcf", "graph500"];
    let default_l2 = MixTlbConfig {
        kind: CoalesceKind::Bitmap,
        ..MixTlbConfig::l2(64, 8)
    };
    // (row label, hierarchy name, L2 configuration); the L1 is the same.
    let variants = [
        ("default (bitmap 64x8)", "mix", default_l2.clone()),
        ("length L2 (paper)", "mix-len", MixTlbConfig::l2(64, 8)),
        (
            "bitmap 128x4",
            "mix-128x4",
            MixTlbConfig {
                kind: CoalesceKind::Bitmap,
                ..MixTlbConfig::l2(128, 4)
            },
        ),
        (
            "evicting mirrors",
            "mix-evict",
            MixTlbConfig {
                mirror_policy: MirrorPolicy::Evicting,
                ..default_l2.clone()
            },
        ),
        (
            "probed-set-only merge",
            "mix-psom",
            MixTlbConfig {
                fill_merge: FillMerge::ProbedSetOnly,
                ..default_l2.clone()
            },
        ),
        (
            "match-only dirty",
            "mix-dirty",
            MixTlbConfig {
                dirty_policy: DirtyPolicy::MatchOnly,
                ..default_l2.clone()
            },
        ),
        (
            "bundle 16",
            "mix-b16",
            MixTlbConfig {
                super_bundle: 16,
                ..default_l2.clone()
            },
        ),
    ];

    let mut header = vec!["variant"];
    header.extend(workloads.iter().copied());
    let mut table = Table::new(&header);
    // Prepare scenarios once, reuse for every variant.
    let cfg = scale.native_cfg(PolicyChoice::Ths, 0.2);
    let mut scenarios: Vec<(NativeScenario, _)> = workloads
        .iter()
        .map(|name| {
            #[expect(clippy::expect_used, reason = "the names above are catalog workloads")]
            let spec = WorkloadSpec::by_name(name).expect("catalog workload");
            let mut scenario = NativeScenario::prepare(&spec, &cfg);
            let split = scenario.run(designs::haswell_split(), refs);
            (scenario, split)
        })
        .collect();
    for (label, name, l2) in &variants {
        let mut cells = vec![label.to_string()];
        for (scenario, split) in &mut scenarios {
            let report = scenario.run(mix_with(l2.clone(), name), refs);
            cells.push(signed_pct(improvement_percent(split, &report)));
        }
        table.row(cells);
    }
    // PWC ablation runs the default design with the MMU cache disabled.
    let mut cells = vec!["default, no PWC".to_owned()];
    for (scenario, split) in &mut scenarios {
        let report = scenario.run_configured(mix_with(default_l2.clone(), "mix"), refs, |e| {
            e.disable_pwc()
        });
        cells.push(signed_pct(improvement_percent(split, &report)));
    }
    table.row(cells);
    table.print();
    println!(
        "\nReading: the bitmap representation and non-evicting mirrors are what\n\
         let the L2 converge under scattered misses; 64x8 tolerates more\n\
         same-bundle fragments than 128x4; small bundles cap coalesced reach;\n\
         and without the paging-structure cache (which the split baseline\n\
         benefits from equally), all walk costs inflate."
    );
}
