//! Synthetic workload trace generation.
//!
//! The paper drives its functional simulations with Pin memory traces of
//! Spec/PARSEC, big-memory server workloads (80 GB footprints), and Rodinia
//! GPU kernels (24 GB). Those traces cannot be regenerated here, so this
//! crate substitutes seeded synthetic generators that reproduce each
//! workload's *access-pattern class* — the property that determines TLB
//! behaviour: reach, locality, stride, and hot-set skew (see DESIGN.md,
//! substitution 2). Every generator:
//!
//! * emits [`TraceEvent`]s (PC, virtual address, load/store) confined to a
//!   configurable footprint,
//! * is deterministic for a given seed,
//! * carries a plausible PC stream (a small set of instruction addresses),
//!   which the page-size-predictor baselines index.
//!
//! Per-workload analytical-model constants (base CPI, memory ops per
//! instruction) live in [`WorkloadSpec`]; they weight translation stalls
//! into runtime the way the paper's performance-counter data does.
//!
//! # Examples
//!
//! ```
//! use mixtlb_trace::{TraceGenerator, WorkloadSpec};
//! use mixtlb_types::Vpn;
//!
//! let spec = WorkloadSpec::by_name("gups").unwrap().with_footprint(1 << 30);
//! let mut gen = TraceGenerator::new(&spec, 42, Vpn::new(0x10_0000));
//! let events: Vec<_> = gen.by_ref().take(1000).collect();
//! assert!(events.iter().all(|e| {
//!     let page = e.va.vpn().raw() - 0x10_0000;
//!     page < (1 << 30) / 4096
//! }));
//! ```

#![warn(missing_docs)]

mod file_v2;
mod generator;
mod percore;
mod workloads;

pub use file_v2::{
    decode_block, BlockReader, RawBlock, TraceFileV2, BLOCK_EVENTS as V2_BLOCK_EVENTS,
};
pub use generator::{TraceEvent, TraceGenerator};
pub use percore::{split_partitioned, split_shared, CoreStream};
pub use workloads::{AccessPattern, WorkloadClass, WorkloadSpec};
