//! The translation engine, analytical performance model, and the native /
//! virtualized experiment scenarios that tie the whole simulator together.
//!
//! This is the crate the benchmarks drive. It provides:
//!
//! * [`TlbHierarchy`] and the [`designs`] factory — the area-equivalent
//!   L1+L2 configurations of every design the paper compares (split
//!   Haswell, MIX, hash-rehash + prediction, skew + prediction, COLT,
//!   COLT++, MIX+COLT, the unified oracle, and the superpage-indexed
//!   strawman).
//! * [`TranslationEngine`] — replays a trace against a hierarchy, walking
//!   the page table (native or nested 2-D) on misses, sending every PTE
//!   reference through the cache hierarchy, and maintaining x86 A/D-bit
//!   semantics, including the MIX dirty-bit micro-op traffic.
//! * [`PerfReport`] / [`PerfModel`] — the paper's analytical runtime model
//!   (Sec. 6.2): translation stall cycles from the functional simulation
//!   weighted against per-workload base CPI and memory intensity, plus the
//!   energy model's dynamic + leakage totals.
//! * [`NativeScenario`] and [`VirtScenario`] — end-to-end experiment
//!   builders: fragment memory with `memhog`, build the OS state (THS /
//!   hugetlbfs / mixed policies), pre-fault the footprint, and replay a
//!   workload trace for each design.
//!
//! # Examples
//!
//! ```
//! use mixtlb_sim::{designs, NativeScenario, ScenarioConfig};
//! use mixtlb_trace::WorkloadSpec;
//!
//! let cfg = ScenarioConfig::quick();
//! let spec = WorkloadSpec::by_name("gups").unwrap();
//! let mut scenario = NativeScenario::prepare(&spec, &cfg);
//! let split = scenario.run(designs::haswell_split(), 20_000);
//! let mix = scenario.run(designs::mix(), 20_000);
//! // MIX TLBs should not lose to the split design.
//! assert!(mix.total_cycles <= split.total_cycles * 1.05);
//! ```

#![warn(missing_docs)]

pub mod designs;
mod engine;
mod model;
mod scenario;
mod vm;

pub use engine::{
    BelowTlbs, EngineBelow, EngineStats, TlbHierarchy, TranslationEngine, UnifiedWalk, WalkBackend,
};
pub use model::{improvement_percent, PerfModel, PerfReport};
pub use scenario::{fit_footprint, prefault, NativeScenario, PolicyChoice, ScenarioConfig, REGION};
pub use vm::{VirtConfig, VirtScenario};
