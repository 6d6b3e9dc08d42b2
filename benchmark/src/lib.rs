//! The mixtlb benchmark: what translation costs end to end when several
//! page sizes are live, and which layer spends it.
//!
//! Four Std-scale native workloads ([`workload::WORKLOADS`]) are replayed
//! through all eight CPU designs ([`replay`]). An untraced run reports
//! end-to-end throughput on the stream and scalar paths, set-up time and
//! peak memory; a separate traced run ([`layers`]) splits each design's replay
//! time into the crates it passes through — trace decode, stream
//! hand-off, the engine loop, TLB probe and fill, page walk, and the
//! walk-path caches. Every replay's output is checked ([`run`]), and
//! `compare` ([`compare`]) judges two sets of runs against each metric's
//! bound.
//!
//! The benchmark measures the program from outside: it only calls public
//! functions of the repository's crates and times those calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod workload;
