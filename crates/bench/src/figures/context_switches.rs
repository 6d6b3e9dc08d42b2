//! Extension experiment: TLB refill efficiency across context switches,
//! with and without address-space identifiers.
//!
//! On hardware without ASIDs/PCIDs a context switch flushes the TLBs; the
//! paper argues MIX TLBs simplify such OS interactions. Two mechanisms
//! are compared side by side at each switch frequency:
//!
//! * **flush** — every switch flushes all translation structures; the
//!   design's *refill* efficiency decides the damage. One MIX walk
//!   re-coalesces a whole superpage run, so MIX rebuilds reach in a
//!   handful of walks where split refills entry by entry.
//! * **ASID** — switches go through the tagged path: the workload (PCID 1)
//!   is interrupted by an intruder process (PCID 2) whose entries coexist
//!   in the same arrays. Tagged hierarchies (MIX) keep their reach across
//!   the switch; designs without tag support still flush, exactly as the
//!   hardware would.

use crate::{banner, signed_pct, Scale, Table};
use mixtlb_sim::{designs, improvement_percent, NativeScenario, PolicyChoice};
use mixtlb_trace::WorkloadSpec;

/// Prints the context-switch experiment at `scale`.
pub fn run(scale: Scale) {
    banner(
        "Context switches (extension)",
        "MIX vs split as switch frequency grows: full flush vs ASID path",
        scale,
    );
    let refs = scale.refs();
    let workloads = ["memcached", "gups", "mcf"];
    let intervals: [u64; 3] = [50_000, 10_000, 2_000];
    println!(
        "MIX supports ASIDs: {}; split supports ASIDs: {}\n",
        designs::mix().supports_asids(),
        designs::haswell_split().supports_asids(),
    );
    let mut table = Table::new(&[
        "workload",
        "switch every",
        "flush: MIX vs split",
        "ASID: MIX vs split",
        "MIX walks/1k (flush)",
        "MIX walks/1k (ASID)",
    ]);
    for name in workloads {
        #[expect(clippy::expect_used, reason = "the names above are catalog workloads")]
        let spec = WorkloadSpec::by_name(name).expect("catalog workload");
        let cfg = scale.native_cfg(PolicyChoice::Ths, 0.0);
        let mut scenario = NativeScenario::prepare(&spec, &cfg);
        for interval in intervals {
            let split_flush = scenario.run_with_flushes(designs::haswell_split(), refs, interval);
            let mix_flush = scenario.run_with_flushes(designs::mix(), refs, interval);
            let split_asid =
                scenario.run_with_asid_switches(designs::haswell_split(), refs, interval);
            let mix_asid = scenario.run_with_asid_switches(designs::mix(), refs, interval);
            table.row(vec![
                name.to_owned(),
                format!("{interval}"),
                signed_pct(improvement_percent(&split_flush, &mix_flush)),
                signed_pct(improvement_percent(&split_asid, &mix_asid)),
                format!("{:.2}", mix_flush.walks_per_kilo),
                format!("{:.2}", mix_asid.walks_per_kilo),
            ]);
        }
    }
    table.print();
    println!(
        "\nReading: \"flush\" cells are MIX's improvement over split when every\n\
         switch wipes the TLBs — MIX wins because one walk re-coalesces a\n\
         whole run. \"ASID\" cells repeat the experiment through the tagged\n\
         path: MIX entries survive the switch (walks/1k drops toward the\n\
         switch-free rate), while split lacks PCID support in these arrays\n\
         and must still flush. The two columns bracket the OS choice the\n\
         paper leaves open in Sec. 5.1."
    );
}
