//! The N-core machine: per-core private state, a shared sharded LLC,
//! and the parallel / serial replay drivers.

// Atomics come from mixtlb-check's facade: plain `std::sync::atomic`
// re-exports in production, instrumented schedule-point wrappers under the
// `model` feature (see crates/check).
use mixtlb_check::sync::Ordering;
use std::time::{Duration, Instant};

use mixtlb_cache::{SharedCache, SharedCacheConfig, SharedCacheStats};
use mixtlb_core::TlbStats;
use mixtlb_trace::TraceEvent;
use mixtlb_types::{Asid, PageSize, PhysAddr, Pfn, Vpn};

use crate::core::{AbsorbedLedger, CoreStats, RemoteTables, ShootdownTables, SmpCore};
use crate::shootdown::{ShootdownModel, SweepWidths};

/// An N-core machine sharing one LLC.
///
/// Each [`SmpCore`] owns its TLB hierarchy, private caches, page-walk
/// cache, page table, and trace generator; the only shared mutable state
/// is the sharded [`SharedCache`] and the per-core absorbed-shootdown
/// counters (atomics). Both replay drivers —
/// [`SmpMachine::run_parallel`] and [`SmpMachine::run_serial`] — produce
/// bit-identical per-core [`CoreStats`] (modulo the documented
/// `llc_stall_cycles` field) and [`TlbStats`], because everything a
/// worker thread reads about *other* cores is precomputed geometry.
pub struct SmpMachine {
    cores: Vec<SmpCore>,
    llc: SharedCache,
    model: ShootdownModel,
    /// Shootdown cycles absorbed by each core from *other* cores'
    /// shootdowns, under both pricing models. Atomic adds are
    /// commutative, so the totals are independent of thread interleaving.
    absorbed: AbsorbedLedger,
}

/// One core's slice of an [`SmpReport`].
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// Core index.
    pub id: usize,
    /// The core's address-space identifier.
    pub asid: Asid,
    /// Replay counters.
    pub stats: CoreStats,
    /// L1 TLB statistics.
    pub l1: TlbStats,
    /// L2 TLB statistics, if the design has an L2.
    pub l2: Option<TlbStats>,
    /// Shootdown cycles this core absorbed on behalf of other cores'
    /// shootdowns (IPI + its own sweep), under the eager per-shootdown
    /// model.
    pub shootdown_cycles_absorbed: u64,
    /// Shootdown cycles this core absorbed under the epoch-batched model
    /// for the same invalidations (0 when epochs are disabled).
    pub shootdown_cycles_absorbed_epoch: u64,
}

impl CoreReport {
    /// L1 TLB miss rate in percent.
    pub fn l1_miss_pct(&self) -> f64 {
        if self.l1.lookups == 0 {
            return 0.0;
        }
        self.l1.misses as f64 * 100.0 / self.l1.lookups as f64
    }

    /// Walks per thousand accesses.
    pub fn walks_per_kilo_access(&self) -> f64 {
        if self.stats.accesses == 0 {
            return 0.0;
        }
        self.stats.walks as f64 * 1000.0 / self.stats.accesses as f64
    }

    /// Mean machine-wide TLB sets swept per shootdown this core
    /// initiated.
    pub fn sets_per_shootdown(&self) -> f64 {
        if self.stats.shootdowns_initiated == 0 {
            return 0.0;
        }
        self.stats.sets_swept_global as f64 / self.stats.shootdowns_initiated as f64
    }
}

/// The result of one replay.
#[derive(Debug, Clone)]
pub struct SmpReport {
    /// Per-core reports, indexed by core id.
    pub cores: Vec<CoreReport>,
    /// Shared-LLC statistics (machine-wide).
    pub llc: SharedCacheStats,
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
}

impl SmpReport {
    /// Total shootdown cycles across the machine (initiated + absorbed).
    pub fn total_shootdown_cycles(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.stats.shootdown_cycles_initiated + c.shootdown_cycles_absorbed)
            .sum()
    }

    /// Total shootdowns initiated across the machine.
    pub fn total_shootdowns(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.shootdowns_initiated).sum()
    }

    /// Total shootdown cycles under the epoch-batched model
    /// (initiated + absorbed) — the batched counterpart of
    /// [`SmpReport::total_shootdown_cycles`], over the same
    /// invalidations of the same run.
    pub fn total_shootdown_cycles_epoch(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.stats.shootdown_cycles_epoch + c.shootdown_cycles_absorbed_epoch)
            .sum()
    }

    /// Total invalidation epochs closed across the machine.
    pub fn total_epochs_closed(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.epochs_closed).sum()
    }

    /// Machine-wide sets swept under the epoch-batched model.
    pub fn total_sets_swept_epoch(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.sets_swept_global_epoch).sum()
    }

    /// Cycles the epoch-batched model saves over eager shootdowns, as a
    /// percentage of the eager total (0 when nothing was priced).
    pub fn epoch_savings_pct(&self) -> f64 {
        let eager = self.total_shootdown_cycles();
        if eager == 0 {
            return 0.0;
        }
        let epoch = self.total_shootdown_cycles_epoch();
        (eager.saturating_sub(epoch)) as f64 * 100.0 / eager as f64
    }

    /// Mean machine-wide sets swept per shootdown, across all cores.
    pub fn sets_per_shootdown(&self) -> f64 {
        let shots = self.total_shootdowns();
        if shots == 0 {
            return 0.0;
        }
        let sets: u64 = self.cores.iter().map(|c| c.stats.sets_swept_global).sum();
        sets as f64 / shots as f64
    }
}

impl SmpMachine {
    /// Builds a machine from assembled cores, wiring the shootdown cost
    /// tables: for each core and page size, how many sets its own sweep
    /// touches, what the initiator pays machine-wide, and what each
    /// remote absorbs. All of it is geometry — `invalidate_sets` depends
    /// on TLB configuration, never contents — so worker threads never
    /// inspect another core's state during replay.
    pub fn new(mut cores: Vec<SmpCore>, llc_config: SharedCacheConfig, model: ShootdownModel) -> SmpMachine {
        assert!(!cores.is_empty(), "an SMP machine needs at least one core");
        // Per-core sweep widths per size. Vpn 0 is aligned for every page
        // size, and sweep width is content-independent, so one probe per
        // size suffices.
        let widths: Vec<SweepWidths> = cores
            .iter()
            .map(|c| {
                let mut w = SweepWidths::default();
                for size in PageSize::ALL {
                    w.by_size[size.encode() as usize] =
                        c.hierarchy.invalidate_sets(Vpn::new(0), size);
                }
                w
            })
            .collect();
        // Full-flush ceilings per core: what one whole-hierarchy flush
        // costs in set visits, which caps a batched epoch sweep.
        let flush_ceilings: Vec<u64> = cores.iter().map(|c| c.hierarchy.flush_sets()).collect();
        let n = cores.len();
        for (i, core) in cores.iter_mut().enumerate() {
            core.sweep = widths[i];
            let mut tables = ShootdownTables {
                own_flush_sets: flush_ceilings[i],
                model,
                ..ShootdownTables::default()
            };
            for size in PageSize::ALL {
                let code = size.encode() as usize;
                let own = widths[i].for_size(size);
                let remote_sets: Vec<u64> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| widths[j].for_size(size))
                    .collect();
                tables.initiated_cost_by_size[code] = model.initiator_cost(own, &remote_sets);
                tables.global_sets_by_size[code] = own + remote_sets.iter().sum::<u64>();
            }
            tables.remotes = (0..n)
                .filter(|&j| j != i)
                .map(|j| {
                    let mut eager = [0u64; 3];
                    for size in PageSize::ALL {
                        let code = size.encode() as usize;
                        eager[code] = model.remote_cost(widths[j].by_size[code]);
                    }
                    RemoteTables {
                        core: j,
                        eager_cycles_by_size: eager,
                        sweep_by_size: widths[j].by_size,
                        flush_sets: flush_ceilings[j],
                    }
                })
                .collect();
            core.tables = tables;
        }
        SmpMachine {
            cores,
            llc: SharedCache::new(llc_config),
            model,
            absorbed: AbsorbedLedger::with_cores(n),
        }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The shootdown cost model in effect.
    pub fn model(&self) -> ShootdownModel {
        self.model
    }

    /// The machine-wide sweep width (sets across every core's hierarchy)
    /// for one page size — what one shootdown of that size costs in set
    /// probes.
    pub fn global_sweep_width(&self, size: PageSize) -> u64 {
        let code = size.encode() as usize;
        self.cores.iter().map(|c| c.sweep.by_size[code]).sum()
    }

    /// Replays `refs` events on every core **in parallel**, one OS thread
    /// per core, sharing the sharded LLC. Returns per-core reports and
    /// the wall-clock time.
    pub fn run_parallel(&mut self, refs: u64) -> SmpReport {
        let start = Instant::now();
        let llc = &self.llc;
        let absorbed = &self.absorbed;
        std::thread::scope(|s| {
            for core in self.cores.iter_mut() {
                s.spawn(move || core.run(refs, llc, absorbed));
            }
        });
        self.report(start.elapsed())
    }

    /// Replays `refs` events on every core **serially** (core 0 to
    /// completion, then core 1, …). Produces bit-identical per-core
    /// [`CoreStats`] (except `llc_stall_cycles`) and [`TlbStats`] to
    /// [`SmpMachine::run_parallel`].
    pub fn run_serial(&mut self, refs: u64) -> SmpReport {
        let start = Instant::now();
        let llc = &self.llc;
        let absorbed = &self.absorbed;
        for core in self.cores.iter_mut() {
            core.run(refs, llc, absorbed);
        }
        self.report(start.elapsed())
    }

    /// Snapshot the current per-core state into a report.
    fn report(&self, elapsed: Duration) -> SmpReport {
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (l1, l2) = c.hierarchy.stats();
                CoreReport {
                    id: c.id(),
                    asid: c.asid(),
                    stats: c.stats(),
                    l1,
                    l2,
                    // Relaxed: statistics read taken
                    // while the machine is quiesced: `report` runs after
                    // `thread::scope` joined every worker, and the join edge
                    // orders all absorbed-counter increments before this load.
                    shootdown_cycles_absorbed: self.absorbed.eager[i].load(Ordering::Relaxed),
                    // Relaxed: same quiesced read as above.
                    shootdown_cycles_absorbed_epoch: self.absorbed.epoch[i].load(Ordering::Relaxed),
                }
            })
            .collect();
        SmpReport {
            cores,
            llc: self.llc.stats(),
            elapsed,
        }
    }

    // ------------------------------------------------------------------
    // Quiesced single-step APIs (used by tests; no threads running).
    // ------------------------------------------------------------------

    /// Translates one event on one core while the machine is quiesced.
    pub fn access(&mut self, core: usize, ev: &TraceEvent) -> Option<PhysAddr> {
        let llc = &self.llc;
        self.cores[core].step(ev, llc)
    }

    /// Migrates the page covering `vpn` to a fresh frame in **every**
    /// core's page table (flipping a high frame bit, which preserves
    /// alignment) and runs the full shootdown protocol: the initiator
    /// pays the IPI + acknowledgement cost, every core sweeps its TLBs
    /// and MMU caches. Returns the page size of the initiator's mapping,
    /// or `None` if `vpn` is unmapped on the initiator.
    pub fn broadcast_remap(&mut self, initiator: usize, vpn: Vpn) -> Option<PageSize> {
        let t = self.cores[initiator].pt.lookup(vpn)?;
        let code = t.size.encode() as usize;
        for core in self.cores.iter_mut() {
            // Each core's space maps the region with its own frames (and
            // possibly its own page size); migrate its local mapping.
            if let Some(local) = core.pt.lookup(vpn) {
                let new_pfn = Pfn::new(local.pfn.raw() ^ (1 << 33));
                #[expect(
                    clippy::expect_used,
                    reason = "the mapping was just looked up on this core's table"
                )]
                core.pt
                    .remap(local.vpn, local.size, new_pfn)
                    .expect("mapping was just looked up");
                core.apply_local_invalidation(local.vpn, local.size);
            } else {
                core.apply_local_invalidation(t.vpn, t.size);
            }
        }
        // Charge the initiator's precomputed machine-wide cost.
        self.cores[initiator].charge_initiated(code, &self.absorbed);
        Some(t.size)
    }
}
