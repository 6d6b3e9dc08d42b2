//! # mixtlb-check — concurrency model checker and structural analyzer
//!
//! PR 1 made the simulator genuinely parallel: a sharded, thread-safe
//! shared LLC (`mixtlb-cache`'s `shared` module), per-core ASID-tagged
//! TLBs, and an atomic shootdown-absorption cost model in `mixtlb-smp`.
//! The paper's central correctness claim — MIX's mirrored superpage
//! entries stay coherent across sets and cores after invalidation sweeps
//! (Cox & Bhattacharjee, ASPLOS 2017, §5.1) — therefore now rests on
//! lock/atomic discipline. This crate verifies that discipline, fully
//! offline (no registry dependencies), in three layers:
//!
//! 1. **[`sched`] + [`sync`] — a mini-loom.** Concurrent crates import
//!    `Mutex`/`AtomicU64` from the [`sync`] facade; with the `model`
//!    feature those resolve to instrumented wrappers whose operations are
//!    schedule points, and [`sched::explore`] replays small 2–3-core
//!    shootdown and shared-LLC scenarios over every interleaving up to
//!    a preemption bound, asserting the coherence invariants (no stale
//!    translation after a shootdown acknowledges, no orphan mirror after a
//!    mirrored-set sweep, absorbed counters sum consistently, no
//!    lock-order inversion across LLC shards). Without the feature the
//!    facade is a zero-overhead `std::sync` re-export.
//! 2. **[`analysis`] — structural static analysis** (`mixtlb-check
//!    --analyze`): four project rules that `rustc`/`clippy` cannot see
//!    (address-bit arithmetic, truncating casts, dead exports, hot-path
//!    allocation). There are no suppressions: CI fails on any finding.
//!    The unsafe and panic policy is not here: `[workspace.lints]` hands
//!    it to rustc and clippy, and every exception is a compiler-checked
//!    `#[expect(..., reason = "...")]`; packed bit widths are `const`
//!    assertions rustc evaluates.
//! 3. **[`protocol`] + [`handoff`] — executable protocol scenarios**
//!    shared by the model-check test suites: the shootdown protocol and
//!    the streaming pipeline's bounded hand-off, with seeded bugs
//!    (doorbell-before-remap reordering, partial mirrored-set sweeps, a
//!    missing publish) proving the explorer actually catches the failure
//!    modes it claims to.
//!
//! The structural TLB invariants themselves (`check_invariants`) live in
//! `mixtlb-core` next to `MixTlb`, so unit tests and the model checker
//! share one implementation.
//!
//! ## Running the checkers
//!
//! ```text
//! cargo run -p mixtlb-check -- --analyze .   # structural analysis
//! cargo test -p mixtlb-check --features model # bounded model checking
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod handoff;
pub mod protocol;
pub mod sched;
pub mod sync;
