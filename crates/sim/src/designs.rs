//! Area-equivalent L1 + L2 hierarchies for every design the paper
//! compares.
//!
//! Area equivalence follows the paper's Sec. 6.2: every design gets
//! (roughly) the entry budget of the commercial Haswell configuration —
//! 100 L1 entries (64 × 4 KB + 32 × 2 MB + 4 × 1 GB) and 544 L2 entries
//! (512 shared 4 KB/2 MB + 32 × 1 GB). Set counts must be powers of two,
//! so budgets land on the nearest feasible geometry (documented per
//! design). The skew designs are additionally charged for their timestamp
//! replacement metadata with a ~25% entry reduction at L2 (Sec. 7.2).

use mixtlb_baselines::{superpage_indexed_mix, PredictiveHashRehash, PredictiveSkew};
use mixtlb_core::{CoalesceKind, MixTlb, MixTlbConfig, OracleUnifiedTlb, SplitTlb, TlbDevice};

use crate::engine::TlbHierarchy;

/// A split L1 over the partly split Haswell L2 (a hash-rehash 4 KB/2 MB
/// array plus a separate 1 GB TLB) — the shape of every split design.
fn over_haswell_l2(name: &str, l1: SplitTlb) -> TlbHierarchy {
    TlbHierarchy::new(name, Box::new(l1), Some(Box::new(SplitTlb::haswell_l2())))
}

/// The commercial baseline: split L1 TLBs + the partly split Haswell L2.
pub fn haswell_split() -> TlbHierarchy {
    over_haswell_l2("split", SplitTlb::haswell_l1())
}

/// The paper's contribution: MIX L1 (bitmap, 16 sets × 6 ways = 96
/// entries ≈ the split L1's 100) and MIX L2 (64 sets × 8 ways = 512
/// entries ≈ the Haswell L2's 544, at Haswell's own 8-way associativity).
/// The L2 uses bitmap coalescing: an ablation against the paper's
/// length-field L2 showed length maps cannot converge under scattered
/// misses (disjoint fragments are unrepresentable), and the 64-set
/// geometry needs only 64 contiguous superpages to offset mirroring —
/// matching the ~80 the OS actually delivers (Fig. 11).
pub fn mix() -> TlbHierarchy {
    TlbHierarchy::new(
        "mix",
        Box::new(MixTlb::new(MixTlbConfig::l1(16, 6))),
        Some(Box::new(MixTlb::new(MixTlbConfig {
            kind: CoalesceKind::Bitmap,
            ..MixTlbConfig::l2(64, 8)
        }))),
    )
}

/// MIX combined with COLT small-page coalescing (bundle 4) at both levels
/// (Sec. 7.2's best configuration).
pub fn mix_colt() -> TlbHierarchy {
    TlbHierarchy::new(
        "mix+colt",
        Box::new(MixTlb::new(
            MixTlbConfig::l1(16, 6).with_small_coalescing(4),
        )),
        Some(Box::new(MixTlb::new(MixTlbConfig {
            kind: CoalesceKind::Bitmap,
            ..MixTlbConfig::l2(64, 8).with_small_coalescing(4)
        }))),
    )
}

/// Hash-rehash for all page sizes at both levels, enhanced with a
/// PC-indexed page-size predictor (Sec. 5.1).
pub fn hash_rehash_pred() -> TlbHierarchy {
    TlbHierarchy::new(
        "hr+pred",
        Box::new(PredictiveHashRehash::new(16, 6, 256)),
        Some(Box::new(PredictiveHashRehash::new(128, 4, 256))),
    )
}

/// Skew-associative for all page sizes with prediction. Area-equivalent
/// after charging timestamp metadata: L1 2 ways/size × 16 = 96 entries;
/// L2 2 ways/size × 64 = 384 entries (≈ 544 − 25% timestamp overhead).
pub fn skew_pred() -> TlbHierarchy {
    TlbHierarchy::new(
        "skew+pred",
        Box::new(PredictiveSkew::new(2, 16, 256)),
        Some(Box::new(PredictiveSkew::new(2, 64, 256))),
    )
}

/// The original COLT design: split hierarchy whose 4 KB L1 part coalesces.
pub fn colt() -> TlbHierarchy {
    over_haswell_l2("colt", SplitTlb::colt_l1())
}

/// COLT++: every split L1 part coalesces its own page size (Sec. 7.2).
pub fn colt_plus_plus() -> TlbHierarchy {
    over_haswell_l2("colt++", SplitTlb::colt_plus_plus_l1())
}

/// The unrealizable ideal of Figure 1: a unified set-associative TLB that
/// magically indexes with the right page size at both levels.
pub fn oracle() -> TlbHierarchy {
    TlbHierarchy::new(
        "oracle",
        Box::new(OracleUnifiedTlb::new(16, 6)),
        Some(Box::new(OracleUnifiedTlb::new(128, 4))),
    )
}

/// The Sec. 3 strawman: MIX geometry but indexed with 2 MB superpage bits.
pub fn superpage_indexed() -> TlbHierarchy {
    TlbHierarchy::new(
        "sp-indexed",
        Box::new(superpage_indexed_mix(16, 6)),
        Some(Box::new({
            let config = MixTlbConfig {
                extra_index_shift: 9,
                ..MixTlbConfig::l2(128, 4)
            }
            .named("sp-indexed-l2");
            MixTlb::new(config)
        })),
    )
}

/// A scaled MIX hierarchy with the given L2 set count (the Sec. 7.2
/// "Scaling TLBs" study; 512 sets stresses coalescing).
pub fn mix_scaled(l2_sets: usize) -> TlbHierarchy {
    TlbHierarchy::new(
        "mix-scaled",
        Box::new(MixTlb::new(MixTlbConfig::l1(16, 6))),
        Some(Box::new(MixTlb::new(MixTlbConfig::l2(l2_sets, 4)))),
    )
}

/// GPU per-SM L1 designs (Sec. 6.3 geometries): split 128+32+4 entries vs
/// an area-equivalent MIX (32 sets × 5 ways = 160).
pub fn gpu_split_l1() -> Box<dyn TlbDevice> {
    Box::new(SplitTlb::gpu_l1())
}

/// GPU per-SM MIX L1.
pub fn gpu_mix_l1() -> Box<dyn TlbDevice> {
    Box::new(MixTlb::new(MixTlbConfig::l1(32, 5).named("mix-gpu-l1")))
}

/// The GPU's shared L2: a MIX geometry of 64 sets × 8 ways = 512 entries
/// with bitmap coalescing (the paper's shared-L2 assumption), behind
/// every SM's L1.
pub fn gpu_shared_l2() -> Box<dyn TlbDevice> {
    Box::new(MixTlb::new(MixTlbConfig {
        kind: CoalesceKind::Bitmap,
        ..MixTlbConfig::l2(64, 8)
    }))
}

/// A design constructor, as stored in the sweep tables.
pub type DesignFactory = fn() -> TlbHierarchy;

/// Every CPU design keyed by name — the sweep the figure benchmarks run.
pub fn all_cpu_designs() -> Vec<(&'static str, DesignFactory)> {
    vec![
        ("split", haswell_split as fn() -> TlbHierarchy),
        ("mix", mix),
        ("mix+colt", mix_colt),
        ("hr+pred", hash_rehash_pred),
        ("skew+pred", skew_pred),
        ("colt", colt),
        ("colt++", colt_plus_plus),
        ("oracle", oracle),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_build() {
        for (name, f) in all_cpu_designs() {
            let h = f();
            assert_eq!(h.name(), name);
        }
        let _ = superpage_indexed();
        let _ = mix_scaled(512);
        let _ = gpu_split_l1();
        let _ = gpu_mix_l1();
        let _ = gpu_shared_l2();
    }

    #[test]
    fn area_budgets_match_the_baseline() {
        // L1 budget: split = 100 entries; everyone else within ±10%.
        assert_eq!(SplitTlb::haswell_l1().capacity(), 100);
        assert_eq!(MixTlbConfig::l1(16, 6).total_entries(), 96);
        // L2 budget: split = 544; MIX 512; skew charged for timestamps.
        assert_eq!(SplitTlb::haswell_l2().capacity(), 544);
        assert_eq!(MixTlbConfig::l2(128, 4).total_entries(), 512);
    }
}
