//! Executable TLB-shootdown protocol scenarios for the model checker.
//!
//! The SMP simulator's correctness story (and the paper's Sec. 5.1 caveat)
//! is a *protocol*: when the OS remaps a superpage, it must (1) update the
//! page table, (2) ring a doorbell IPI on every remote core, (3) have each
//! remote sweep **all** sets of its MIX TLB (mirroring may have spread the
//! entry everywhere) and acknowledge, and (4) only after the last
//! acknowledgement consider the shootdown complete. Each step is easy to
//! get wrong in a way that only specific interleavings expose.
//!
//! [`ShootdownScenario`] builds that protocol out of the instrumented
//! primitives ([`crate::sync::instrumented`]) over *real* [`MixTlb`]
//! instances, so [`crate::sched::explore`] can replay it under every
//! schedule up to the preemption bound and assert, after completion:
//!
//! * **No stale translation**: every core's TLB either misses on the
//!   remapped superpage or serves the *new* frame — for every 4 KB region,
//!   whichever set it routes to.
//! * **No orphan mirror**: [`MixTlb::check_invariants`] holds on every
//!   core (no two entries any lookup could both serve disagree on the
//!   physical anchor).
//! * **Counters sum**: the acknowledgement counter equals the number of
//!   remote cores, and every core swept exactly once.
//!
//! [`SeededBug`] re-introduces the classic mistakes; the model-check test
//! suite proves the explorer catches each one and passes the correct
//! protocol clean.

use std::sync::Arc;

use mixtlb_core::{Lookup, MixTlb, MixTlbConfig, TlbDevice};
use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};

use crate::sched::Sim;
use crate::sync::instrumented::{AtomicU64, Event, Mutex};
use crate::sync::Ordering;

/// The remapped superpage: base VPN of a 2 MB page.
const SUPER_VPN: u64 = 0x400;
/// Frame before the remap.
const OLD_PFN: u64 = 0x2000;
/// Frame after the remap (e.g. compaction moved the superpage).
const NEW_PFN: u64 = 0x8000;

/// A deliberately seeded protocol bug for the explorer's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeededBug {
    /// The correct protocol: remap before doorbell, full sweeps, every
    /// remote acknowledges. Must pass **all** schedules.
    #[default]
    None,
    /// The initiator rings the doorbell *before* writing the new mapping.
    /// A fast remote can sweep and demand-refill from the stale page table
    /// — the lost-update interleaving the acknowledgement edge exists to
    /// prevent. Only some schedules expose it.
    DoorbellBeforeRemap,
    /// Remotes sweep only the probed set, as a conventional TLB would —
    /// forgetting MIX mirrors superpage entries into every set (Sec. 5.1).
    /// The refill then coexists with stale mirrors: an orphan-mirror
    /// conflict and stale hits in unswept sets.
    PartialSweep,
    /// One remote sweeps but never acknowledges: the initiator waits for a
    /// completion signal that can never come. Every schedule deadlocks.
    MissingAck,
}

/// A 2–3 core shootdown scenario over real MIX TLBs (see the module docs).
#[derive(Debug, Clone)]
pub struct ShootdownScenario {
    /// Total cores; core 0 initiates, the rest are remotes. Must be ≥ 2.
    pub cores: usize,
    /// Which mistake (if any) to seed.
    pub bug: SeededBug,
    /// TLB geometry (kept tiny to keep the schedule space tractable).
    pub config: MixTlbConfig,
}

impl ShootdownScenario {
    /// A two-core scenario with the given seeded bug over a 2-set, 2-way
    /// L1 MIX TLB.
    pub fn two_core(bug: SeededBug) -> ShootdownScenario {
        ShootdownScenario {
            cores: 2,
            bug,
            config: MixTlbConfig::l1(2, 2),
        }
    }

    /// A three-core scenario (two remotes racing their sweeps and
    /// acknowledgements against the initiator).
    pub fn three_core(bug: SeededBug) -> ShootdownScenario {
        ShootdownScenario {
            cores: 3,
            bug,
            config: MixTlbConfig::l1(2, 2),
        }
    }

    /// Registers the scenario's threads and final validator on `sim`.
    /// Called once per explored schedule, so all shared state is fresh.
    ///
    /// # Panics
    ///
    /// Panics if `cores < 2` (there must be at least one remote).
    pub fn install(&self, sim: &mut Sim) {
        assert!(self.cores >= 2, "a shootdown needs at least one remote core");
        let remotes = self.cores - 1;
        let bug = self.bug;

        let superpage = |pfn: u64| {
            Translation::new(
                Vpn::new(SUPER_VPN),
                Pfn::new(pfn),
                PageSize::Size2M,
                Permissions::rw_user(),
            )
        };

        // Shared state. Construction runs on the controller thread (no
        // managed context), so the instrumented ops here are dormant and
        // cost no schedule points.
        let pt = Arc::new(Mutex::new(OLD_PFN));
        let tlbs: Arc<Vec<Mutex<MixTlb>>> = Arc::new(
            (0..self.cores)
                .map(|_| {
                    let mut tlb = MixTlb::new(self.config.clone());
                    let t = superpage(OLD_PFN);
                    tlb.fill(t.vpn, &t, &[t]); // warm: old mapping mirrored everywhere
                    Mutex::new(tlb)
                })
                .collect(),
        );
        let doorbells: Arc<Vec<Event>> = Arc::new((0..remotes).map(|_| Event::new()).collect());
        let acks = Arc::new(AtomicU64::new(0));
        let complete = Arc::new(Event::new());
        let sweeps = Arc::new(AtomicU64::new(0));

        fn lock(m: &Mutex<MixTlb>) -> crate::sync::instrumented::MutexGuard<'_, MixTlb> {
            m.lock().unwrap_or_else(|e| e.into_inner())
        }

        // Core 0: the initiator.
        {
            let (pt, tlbs, doorbells, complete, sweeps) = (
                Arc::clone(&pt),
                Arc::clone(&tlbs),
                Arc::clone(&doorbells),
                Arc::clone(&complete),
                Arc::clone(&sweeps),
            );
            sim.thread("initiator", move || {
                let remap = |pt: &Mutex<u64>| {
                    *pt.lock().unwrap_or_else(|e| e.into_inner()) = NEW_PFN;
                };
                if bug == SeededBug::DoorbellBeforeRemap {
                    for d in doorbells.iter() {
                        d.set();
                    }
                    remap(&pt); // BUG: remotes may refill from the old mapping
                } else {
                    remap(&pt);
                    for d in doorbells.iter() {
                        d.set();
                    }
                }
                // Sweep the local TLB (the initiator is a core too).
                lock(&tlbs[0]).invalidate(Vpn::new(SUPER_VPN), PageSize::Size2M);
                sweeps.fetch_add(1, Ordering::SeqCst);
                // The shootdown returns only after every remote acked.
                complete.wait();
            });
        }

        // Remote cores: sweep on the doorbell, acknowledge, resume work.
        for r in 0..remotes {
            let (pt, tlbs, doorbells, acks, complete, sweeps) = (
                Arc::clone(&pt),
                Arc::clone(&tlbs),
                Arc::clone(&doorbells),
                Arc::clone(&acks),
                Arc::clone(&complete),
                Arc::clone(&sweeps),
            );
            let core = r + 1;
            sim.thread(&format!("core{core}"), move || {
                doorbells[r].wait();
                {
                    let mut tlb = lock(&tlbs[core]);
                    if bug == SeededBug::PartialSweep {
                        // BUG: sweeps one set; mirrors elsewhere survive.
                        tlb.buggy_invalidate_probed_set_only(
                            Vpn::new(SUPER_VPN),
                            PageSize::Size2M,
                        );
                    } else {
                        tlb.invalidate(Vpn::new(SUPER_VPN), PageSize::Size2M);
                    }
                }
                sweeps.fetch_add(1, Ordering::SeqCst);
                let skip_ack = bug == SeededBug::MissingAck && r == 0;
                if !skip_ack {
                    // The last acknowledgement completes the shootdown.
                    if acks.fetch_add(1, Ordering::SeqCst) + 1 == remotes as u64 {
                        complete.set();
                    }
                }
                // Resume user work: touch the superpage, demand-refilling
                // from the page table on a miss — exactly what a core does
                // right after acknowledging an IPI.
                let frame = *pt.lock().unwrap_or_else(|e| e.into_inner());
                let mut tlb = lock(&tlbs[core]);
                let vpn = Vpn::new(SUPER_VPN);
                if !tlb.lookup(vpn, AccessKind::Load).is_hit() {
                    let t = Translation::new(
                        vpn,
                        Pfn::new(frame),
                        PageSize::Size2M,
                        Permissions::rw_user(),
                    );
                    tlb.fill(vpn, &t, &[t]);
                }
            });
        }

        // Validation after every thread finished (dormant instrumentation:
        // runs on the controller thread, costs no schedule points).
        let remotes_u64 = remotes as u64;
        sim.finally(move || {
            assert_eq!(
                acks.load(Ordering::SeqCst),
                remotes_u64,
                "acknowledgement counter must equal the remote core count"
            );
            assert_eq!(
                sweeps.load(Ordering::SeqCst),
                remotes_u64 + 1,
                "every core sweeps exactly once"
            );
            #[expect(
                clippy::panic,
                reason = "the validator reports invariant violations by panicking into the explorer's catch_unwind, which turns them into a Failure"
            )]
            for (core, tlb) in tlbs.iter().enumerate() {
                let mut tlb = tlb.lock().unwrap_or_else(|e| e.into_inner());
                // Probe one 4 KB region per set: with 2 sets, offsets 0
                // and 1 route to different sets, so a stale mirror in any
                // set is observed.
                for off in 0..tlb.config().sets as u64 {
                    let vpn = Vpn::new(SUPER_VPN + off);
                    if let Lookup::Hit { translation, .. } =
                        tlb.lookup(vpn, AccessKind::Load)
                    {
                        let frame = translation
                            .frame_for(vpn)
                            .map(|p| p.raw())
                            .unwrap_or(u64::MAX);
                        assert_eq!(
                            frame,
                            NEW_PFN + off,
                            "core {core}: stale translation for {vpn:?} after \
                             the shootdown completed"
                        );
                    }
                }
                if let Err(v) = tlb.check_invariants() {
                    panic!("core {core}: {v}");
                }
                if let Err(v) = tlb.check_invariants_strict() {
                    panic!("core {core} (post-probe quiescence): {v}");
                }
            }
        });
    }

    /// Explores the scenario under the given bounds.
    pub fn explore(&self, cfg: &crate::sched::Config) -> crate::sched::Report {
        crate::sched::explore(cfg, |sim| self.install(sim))
    }
}
