//! ASID generation-counter recycling must never let a stale-generation
//! TLB entry hit after rollover. The stress harness detects staleness
//! structurally — every installed frame encodes its owning space, so a
//! hit whose frame decodes to another space is a protocol violation —
//! and this property is driven over random core counts, space counts,
//! tag-space sizes, and seeds. Only the MIX design is ASID-tagged in
//! this codebase (untagged designs flush on every space switch and
//! cannot go stale), so it is the design under test. The deliberately
//! broken `skip_rollover_flush` mode proves the detector is not vacuous.

use mixtlb_sim::designs;
use mixtlb_smp::{run_asid_stress, StressConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The headline property: with flush-on-rollover on, no lookup ever
/// hits an entry installed by a different space, no matter how small
/// the tag space or how dense the reuse.
#[test]
fn recycling_never_serves_a_stale_generation() {
    for case in 0..16 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (cores, spaces) = (rng.gen_range(1..=6), rng.gen_range(50..600));
        let asid_capacity = rng.gen_range(4..=32u16);
        let mut cfg = StressConfig::new(cores, spaces);
        cfg.asid_capacity = asid_capacity;
        cfg.seed = rng.gen();
        let report = run_asid_stress(designs::mix, &cfg);
        assert_eq!(report.cores.len(), cores, "case {case}");
        assert_eq!(
            report.total_spaces(), spaces,
            "case {case}: spaces lost or duplicated by the work-stealing claim"
        );
        assert_eq!(
            report.total_stale_hits(), 0,
            "case {case}: a stale-generation entry answered a lookup after rollover"
        );
        // Tag demand pins the generation count: rollover is lazy (it
        // happens on the allocation *after* a generation's last tag), so
        // `spaces` allocations over `capacity - 1` usable tags reach
        // generation (spaces - 1) / tags exactly.
        let tags = u64::from(asid_capacity) - 1;
        assert_eq!(report.generations, (spaces - 1) / tags, "case {case}: generation count off");
        if report.generations > 0 {
            assert!(
                report.total_flushes() > 0,
                "case {case}: rollover happened but no core ran the catch-up flush"
            );
        }
    }
}

/// Non-vacuity: the same random pressure with the flush protocol
/// disabled must make the detector fire — provided reuse is dense
/// enough that recycled tags alias entries still resident.
#[test]
fn detector_fires_without_the_flush() {
    for case in 0..16 {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut cfg = StressConfig::new(rng.gen_range(1..=4), 600);
        cfg.asid_capacity = 8;
        cfg.skip_rollover_flush = true;
        cfg.seed = rng.gen();
        let report = run_asid_stress(designs::mix, &cfg);
        assert!(
            report.total_stale_hits() > 0,
            "case {case}: seeded bug escaped the stale-hit oracle — the zero above would be vacuous"
        );
    }
}
