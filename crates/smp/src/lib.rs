//! Multicore (SMP) simulation of the paper's TLB designs.
//!
//! The single-core engine in `mixtlb-sim` answers the paper's main
//! question — miss rates and walk overheads per design — but several of
//! its system-level arguments are inherently multicore:
//!
//! * **Context switches / consolidation** (Sec. 6): multiple processes
//!   share translation hardware. Entries here are ASID-tagged
//!   ([`mixtlb_types::Asid`]), so a core running process A does not hit
//!   on process B's translations and a context switch need not flush.
//! * **TLB shootdowns** (Sec. 5.1): when the OS remaps a page, every
//!   core sweeps its TLBs. A conventional split or COLT TLB probes one
//!   set per level; a MIX TLB must visit **every** set for a superpage
//!   because mirroring may have spread it across all of them. The
//!   [`ShootdownModel`] prices that asymmetry in cycles.
//! * **Shared fabric**: all cores contend on one sharded LLC
//!   ([`mixtlb_cache::SharedCache`]) behind their private caches.
//!
//! # Determinism
//!
//! [`SmpMachine::run_parallel`] (one OS thread per core) and
//! [`SmpMachine::run_serial`] produce **bit-identical** per-core
//! [`CoreStats`] and TLB statistics: everything a worker reads about
//! other cores is precomputed from TLB *geometry* (sweep widths are a
//! function of configuration, never contents), cross-core shootdown
//! charges are commutative atomic adds, and the one genuinely
//! interleaving-dependent quantity — shared-LLC latency — is isolated in
//! [`CoreStats::llc_stall_cycles`] and excluded from the comparison.
//!
//! # Examples
//!
//! ```
//! use mixtlb_cache::SharedCacheConfig;
//! use mixtlb_sim::designs;
//! use mixtlb_smp::{MultiProgrammedScenario, ShootdownModel, SmpScenarioConfig};
//!
//! let cfg = SmpScenarioConfig::quick().with_shootdown_interval(500);
//! let scenario = MultiProgrammedScenario::gups_times(2, &cfg);
//! let mut machine =
//!     scenario.build_machine(designs::mix, SharedCacheConfig::tiny(), ShootdownModel::default());
//! let report = machine.run_parallel(2_000);
//! assert_eq!(report.cores.len(), 2);
//! assert!(report.total_shootdowns() > 0);
//! ```

#![warn(missing_docs)]

mod core;
mod deque;
mod machine;
mod pipeline;
mod scenario;
mod shootdown;
mod stress;
mod ws;

pub use crate::core::{CoreStats, SmpCore};
pub use deque::ChunkDeque;
pub use pipeline::{stream_chunks, StreamConfig, StreamReport};
pub use machine::{CoreReport, SmpMachine, SmpReport};
pub use scenario::{MultiProgrammedScenario, SmpScenarioConfig};
pub use shootdown::{ShootdownModel, SweepWidths};
pub use stress::{run_asid_stress, StressConfig, StressCoreStats, StressReport};
pub use ws::{replay_parallel, replay_scheduled, StealSchedule, WsConfig, WsCoreReport, WsReport};
