//! The analytical performance model (paper Sec. 6.2).

use mixtlb_core::TlbStats;
use mixtlb_energy::{EnergyBreakdown, EnergyModel};
use mixtlb_trace::WorkloadSpec;

use crate::engine::{EngineStats, TranslationEngine};

/// Converts functional-simulation stall cycles into runtime, weighting
/// them against a workload's base CPI and memory intensity — the same
/// construction the paper uses with performance-counter data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Cycles per instruction with ideal translation.
    pub base_cpi: f64,
    /// Memory operations per instruction.
    pub mem_ops_per_instr: f64,
}

impl PerfModel {
    /// The model constants of a workload.
    pub fn from_spec(spec: &WorkloadSpec) -> PerfModel {
        PerfModel {
            base_cpi: spec.base_cpi,
            mem_ops_per_instr: spec.mem_ops_per_instr,
        }
    }

    /// Instructions implied by a number of memory accesses.
    pub fn instructions(&self, accesses: u64) -> f64 {
        accesses as f64 / self.mem_ops_per_instr
    }

    /// Runtime in cycles: base work plus translation stalls.
    pub fn total_cycles(&self, accesses: u64, stall_cycles: u64) -> f64 {
        self.instructions(accesses) * self.base_cpi + stall_cycles as f64
    }
}

/// The full per-(workload, design) result: runtime decomposition, hit
/// rates, and energy.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Design name.
    pub design: String,
    /// Trace events replayed.
    pub accesses: u64,
    /// Cycles with ideal translation.
    pub base_cycles: f64,
    /// Translation stall cycles.
    pub stall_cycles: f64,
    /// `base + stall`.
    pub total_cycles: f64,
    /// `stall / total` — the paper's "% runtime on address translation".
    pub translation_overhead: f64,
    /// L1 TLB hit rate.
    pub l1_hit_rate: f64,
    /// L2 TLB hit rate (of L1 misses); 0 with no L2.
    pub l2_hit_rate: f64,
    /// Page-table walks per 1000 accesses.
    pub walks_per_kilo: f64,
    /// Dynamic translation energy decomposition.
    pub dynamic_energy: EnergyBreakdown,
    /// Static (leakage) translation energy.
    pub leakage_pj: f64,
    /// Dynamic + leakage.
    pub total_energy_pj: f64,
}

impl PerfReport {
    /// Builds a report from the engine's output.
    pub fn build(
        design: &str,
        spec: &WorkloadSpec,
        engine: &EngineStats,
        l1: &TlbStats,
        l2: Option<&TlbStats>,
        total_entries: usize,
    ) -> PerfReport {
        let model = PerfModel::from_spec(spec);
        let base_cycles = model.instructions(engine.accesses) * model.base_cpi;
        let stall_cycles = engine.stall_cycles as f64;
        let total_cycles = base_cycles + stall_cycles;
        let energy_model = EnergyModel::default();
        let mut levels = vec![*l1];
        if let Some(l2) = l2 {
            levels.push(*l2);
        }
        let dynamic = energy_model.dynamic(&levels, &engine.walk_traffic);
        let leakage = energy_model.leakage(total_entries, total_cycles);
        let l1_misses = engine.accesses - engine.l1_hits;
        PerfReport {
            design: design.to_owned(),
            accesses: engine.accesses,
            base_cycles,
            stall_cycles,
            total_cycles,
            translation_overhead: if total_cycles > 0.0 {
                stall_cycles / total_cycles
            } else {
                0.0
            },
            l1_hit_rate: if engine.accesses > 0 {
                engine.l1_hits as f64 / engine.accesses as f64
            } else {
                0.0
            },
            l2_hit_rate: if l1_misses > 0 {
                engine.l2_hits as f64 / l1_misses as f64
            } else {
                0.0
            },
            walks_per_kilo: if engine.accesses > 0 {
                engine.walks as f64 * 1000.0 / engine.accesses as f64
            } else {
                0.0
            },
            dynamic_energy: dynamic,
            leakage_pj: leakage,
            total_energy_pj: dynamic.total_pj() + leakage,
        }
    }

    /// Builds a report from a finished engine: its design's name and
    /// entry budget, its counters and its TLB statistics.
    pub fn from_engine(spec: &WorkloadSpec, engine: TranslationEngine<'_>) -> PerfReport {
        let design = engine.hierarchy().name().to_owned();
        let total_entries = engine.hierarchy().total_entries();
        let (stats, l1, l2, _caches) = engine.finish();
        PerfReport::build(&design, spec, &stats, &l1, l2.as_ref(), total_entries)
    }

    /// Percent energy saved versus a baseline report (positive = better).
    pub fn energy_savings_vs(&self, baseline: &PerfReport) -> f64 {
        if baseline.total_energy_pj <= 0.0 {
            return 0.0;
        }
        (baseline.total_energy_pj - self.total_energy_pj) / baseline.total_energy_pj * 100.0
    }
}

/// Percent runtime improvement of `new` over `baseline` (positive = `new`
/// is faster) — the y-axis of the paper's Figures 14, 15, and 18.
pub fn improvement_percent(baseline: &PerfReport, new: &PerfReport) -> f64 {
    if baseline.total_cycles <= 0.0 {
        return 0.0;
    }
    (baseline.total_cycles - new.total_cycles) / baseline.total_cycles * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixtlb_energy::WalkTraffic;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::by_name("gups").unwrap()
    }

    fn engine_stats(accesses: u64, stalls: u64, l1_hits: u64, walks: u64) -> EngineStats {
        EngineStats {
            accesses,
            l1_hits,
            l2_hits: accesses - l1_hits - walks,
            walks,
            stall_cycles: stalls,
            walk_traffic: WalkTraffic::default(),
            ..EngineStats::default()
        }
    }

    #[test]
    fn overhead_fraction_matches_definition() {
        let e = engine_stats(1000, 5000, 900, 50);
        let r = PerfReport::build("x", &spec(), &e, &TlbStats::default(), None, 100);
        assert!((r.translation_overhead - r.stall_cycles / r.total_cycles).abs() < 1e-12);
        assert!(r.translation_overhead > 0.0 && r.translation_overhead < 1.0);
    }

    #[test]
    fn improvement_is_symmetric_sane() {
        let fast = PerfReport::build(
            "fast",
            &spec(),
            &engine_stats(1000, 100, 990, 1),
            &TlbStats::default(),
            None,
            100,
        );
        let slow = PerfReport::build(
            "slow",
            &spec(),
            &engine_stats(1000, 50_000, 400, 500),
            &TlbStats::default(),
            None,
            100,
        );
        assert!(improvement_percent(&slow, &fast) > 0.0);
        assert!(improvement_percent(&fast, &slow) < 0.0);
        assert_eq!(improvement_percent(&fast, &fast), 0.0);
    }

    #[test]
    fn hit_rates() {
        let e = engine_stats(1000, 0, 800, 100);
        let r = PerfReport::build("x", &spec(), &e, &TlbStats::default(), None, 100);
        assert!((r.l1_hit_rate - 0.8).abs() < 1e-12);
        assert!((r.l2_hit_rate - 0.5).abs() < 1e-12);
        assert!((r.walks_per_kilo - 100.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_grows_with_runtime() {
        let quick = PerfReport::build(
            "q",
            &spec(),
            &engine_stats(1000, 10, 999, 1),
            &TlbStats::default(),
            None,
            644,
        );
        let slow = PerfReport::build(
            "s",
            &spec(),
            &engine_stats(1000, 100_000, 100, 900),
            &TlbStats::default(),
            None,
            644,
        );
        assert!(slow.leakage_pj > quick.leakage_pj);
        assert!(quick.energy_savings_vs(&slow) > 0.0);
    }
}
