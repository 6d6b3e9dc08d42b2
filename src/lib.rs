//! **mixtlb** — a full reproduction of *Efficient Address Translation for
//! Architectures with Multiple Page Sizes* (Cox & Bhattacharjee,
//! ASPLOS 2017) as a Rust workspace.
//!
//! MIX TLBs are single set-associative TLBs that concurrently support all
//! page sizes: every translation is indexed with the small-page index
//! bits, superpage entries are *mirrored* across the sets their 4 KB
//! regions stripe over, and the capacity cost of mirroring is offset by
//! *coalescing* contiguous superpages into single entries — contiguity the
//! OS produces naturally whenever it can produce superpages at all.
//!
//! This facade crate re-exports every layer of the reproduction:
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | addresses, page sizes, permissions, translations |
//! | [`mem`] | buddy allocator, `memhog` fragmentation, compaction |
//! | [`pagetable`] | x86-64 radix tables, hardware walker, nested (2-D) walks |
//! | [`os`] | VMAs, demand paging, THS/`libhugetlbfs`, contiguity scanners |
//! | [`cache`] | functional L1D/L2/LLC hierarchy for walk references |
//! | [`core`] | **MIX TLBs** + split/oracle designs and the `TlbDevice` trait |
//! | [`baselines`] | hash-rehash, skew, predictor, COLT/COLT++ comparators |
//! | [`trace`] | synthetic workload generators (Spec/PARSEC/server/Rodinia classes) |
//! | [`energy`] | CACTI-style parametric energy model |
//! | [`sim`] | translation engine, analytical perf model, native/virt scenarios |
//! | [`gpu`] | multi-SM GPU scenarios with per-SM L1 TLBs |
//! | [`perf`] | perfgate benchmarking: pinned corpora, batched replay timing, regression gate |
//!
//! # Quick start
//!
//! ```
//! use mixtlb::core::{Lookup, MixTlb, MixTlbConfig, TlbDevice};
//! use mixtlb::types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};
//!
//! // A 16-set, 4-way MIX TLB (L1 flavour: bitmap coalescing).
//! let mut tlb = MixTlb::new(MixTlbConfig::l1(16, 4));
//!
//! // Two contiguous 2 MB superpages, as a page-table walk would find them
//! // in one PTE cache line.
//! let b = Translation::new(Vpn::new(0x400), Pfn::new(0x8000), PageSize::Size2M,
//!                          Permissions::rw_user());
//! let c = Translation::new(Vpn::new(0x600), Pfn::new(0x8200), PageSize::Size2M,
//!                          Permissions::rw_user());
//! tlb.fill(b.vpn, &b, &[b, c]); // coalesced into one (mirrored) entry
//!
//! // One set probe serves any 4 KB region of either superpage.
//! assert!(tlb.lookup(Vpn::new(0x7A3), AccessKind::Load).is_hit());
//! ```
//!
//! For end-to-end experiments (fragmented memory, OS page-size policies,
//! trace replay, runtime/energy reports) see [`sim::NativeScenario`],
//! [`sim::VirtScenario`], and [`gpu::GpuScenario`], and the `examples/`
//! directory. The `mixtlb-bench` crate regenerates every figure of the
//! paper (see `EXPERIMENTS.md`).

#![warn(missing_docs)]

pub use mixtlb_baselines as baselines;
pub use mixtlb_cache as cache;
pub use mixtlb_core as core;
pub use mixtlb_energy as energy;
pub use mixtlb_gpu as gpu;
pub use mixtlb_mem as mem;
pub use mixtlb_os as os;
pub use mixtlb_pagetable as pagetable;
pub use mixtlb_perf as perf;
pub use mixtlb_sim as sim;
pub use mixtlb_trace as trace;
pub use mixtlb_types as types;
