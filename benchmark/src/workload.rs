//! The four benchmark workloads and their set-up.
//!
//! Every workload is a native scenario under transparent hugepages: a
//! catalogued access pattern on a prepared machine, replayed for a fixed
//! number of trace events. They differ in which layers carry the cost —
//! see the crate README for the per-workload layer profile.

use std::io;
use std::time::Instant;

use mixtlb_pagetable::PageTable;
use mixtlb_sim::{NativeScenario, PolicyChoice, ScenarioConfig};
use mixtlb_trace::{TraceEvent, TraceGenerator, WorkloadSpec};
use mixtlb_types::PAGE_SIZE_4K;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Benchmark name (`--workload`).
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one line.
    pub why: &'static str,
    /// The catalogued trace pattern it replays.
    pub spec: &'static str,
    /// Simulated machine memory.
    pub mem_bytes: u64,
    /// Fraction of memory fragmented by `memhog` before the workload runs.
    pub memhog: f64,
    /// Trace events replayed per design and path.
    pub events: usize,
}

/// The benchmark's workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stream-local",
        why: "streamcluster on 2 MB pages: the reuse window serves almost every access, so decode, hand-off and the engine loop carry the cost",
        spec: "streamcluster",
        mem_bytes: 4 << 30,
        memhog: 0.0,
        events: 2_000_000,
    },
    Workload {
        name: "gpu-coalesce",
        why: "backprop grid-stride tiles: every access is a new page but TLB reach covers it, so L1/L2 probe and fill kernels carry the cost",
        spec: "backprop",
        mem_bytes: 4 << 30,
        memhog: 0.0,
        events: 1_000_000,
    },
    Workload {
        name: "server-zipf",
        why: "memcached Zipf lookups, read-mostly: L2 probes and a walk on most accesses, so L2, walker, PWC and cache layers carry the cost",
        spec: "memcached",
        mem_bytes: 4 << 30,
        memhog: 0.0,
        events: 200_000,
    },
    Workload {
        name: "walk-frag",
        why: "gups stores on a memhog-fragmented 16 GB machine: mixed 4 KB and 2 MB pages, a walk on almost every access, write-heavy",
        spec: "gups",
        mem_bytes: 16 << 30,
        memhog: 0.6,
        events: 100_000,
    },
];

/// A prepared machine: the scenario (for the trace generator) and its
/// faulted page table.
#[derive(Debug)]
pub struct Setup {
    /// The prepared scenario.
    pub scenario: NativeScenario,
    /// A clone of its faulted page table, shared read-only by every replay.
    pub page_table: PageTable,
}

impl Workload {
    /// Looks a workload up by benchmark name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The scenario configuration for one seed: transparent hugepages,
    /// uncapped footprint (the machine bounds it), memhog and trace
    /// seeded alike.
    fn scenario_config(&self, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            mem_bytes: self.mem_bytes,
            memhog_fraction: self.memhog,
            policy: PolicyChoice::Ths,
            footprint_cap: None,
            seed,
        }
    }

    fn trace_spec(&self) -> io::Result<WorkloadSpec> {
        WorkloadSpec::by_name(self.spec).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("trace pattern {} is not in the catalog", self.spec),
            )
        })
    }

    /// Prepares the machine the replays run on.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] when the workload's trace
    /// pattern is missing from the catalog.
    pub fn prepare(&self, seed: u64) -> io::Result<Setup> {
        let scenario = NativeScenario::prepare(&self.trace_spec()?, &self.scenario_config(seed));
        let page_table = scenario.clone_page_table();
        Ok(Setup {
            scenario,
            page_table,
        })
    }

    /// Times one set-up: `NativeScenario::prepare` + `clone_page_table`,
    /// in seconds. The machine is dropped outside the timed region.
    ///
    /// # Errors
    ///
    /// As [`Workload::prepare`].
    pub fn time_setup(&self, seed: u64) -> io::Result<f64> {
        let (spec, cfg) = (self.trace_spec()?, self.scenario_config(seed));
        let start = Instant::now();
        let scenario = NativeScenario::prepare(&spec, &cfg);
        let page_table = scenario.clone_page_table();
        let seconds = start.elapsed().as_secs_f64();
        drop((scenario, page_table));
        Ok(seconds)
    }
}

impl Setup {
    /// The first `n` events of the scenario's trace (seeded by the
    /// scenario's seed, confined to its faulted footprint).
    ///
    /// `NativeScenario::prepare` sizes the footprint in bytes, which need
    /// not be a whole number of pages, and maps only its whole 4 KB pages;
    /// the trace is generated over those pages alone, so no access lands
    /// on the unmapped tail and faults.
    pub fn trace_events(&self, n: usize) -> Vec<TraceEvent> {
        let s = &self.scenario;
        let mapped = s.spec().footprint_pages() * PAGE_SIZE_4K;
        let spec = s.spec().clone().with_footprint(mapped);
        TraceGenerator::new(&spec, s.seed(), s.region())
            .take(n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed 15's stream-local trace starts within reach of the end of a
    /// footprint that is not a whole number of pages; generated over the
    /// full byte length, 39 of its accesses fell on the unmapped tail.
    #[test]
    fn traces_stay_on_mapped_pages() {
        let w = Workload::by_name("stream-local").expect("workload");
        let setup = w.prepare(15).expect("prepare");
        let spec = setup.scenario.spec();
        assert_ne!(
            spec.footprint_bytes % PAGE_SIZE_4K,
            0,
            "footprint is page-aligned"
        );
        let first = setup.scenario.region().raw();
        let end = first + spec.footprint_pages();
        let events = setup.trace_events(w.events);
        assert!(events
            .iter()
            .all(|e| (first..end).contains(&(e.va.raw() / PAGE_SIZE_4K))));
    }
}
