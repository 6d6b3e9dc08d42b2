//! **MIX TLBs**: energy-frugal set-associative TLBs that concurrently
//! support all page sizes — the primary contribution of Cox &
//! Bhattacharjee, *Efficient Address Translation for Architectures with
//! Multiple Page Sizes* (ASPLOS 2017) — together with the conventional TLB
//! designs they are measured against.
//!
//! # The mechanism
//!
//! Set-associative TLBs need the page size to pick index bits, but the page
//! size is only known after lookup. MIX TLBs cut the knot by indexing
//! *every* translation with the small-page index bits. A superpage then no
//! longer maps to one set: its 4 KB-granular regions spread across
//! (typically all) sets, so its entry is **mirrored** into each of them.
//! Mirroring would waste capacity — except that OSes usually allocate
//! superpages *contiguously*, and contiguous superpages are **coalesced**
//! into a single entry (detected for free in the 8-PTE cache line the page
//! walker already fetched). With roughly as many coalesced superpages as
//! mirror copies, the redundancy cancels out, and lookups still probe
//! exactly one set ([`MixTlb`]).
//!
//! # What lives here
//!
//! * [`TlbDevice`] — the interface every design implements, with
//!   energy-relevant event counters in [`TlbStats`].
//! * [`MixTlb`] — the contribution; L1 flavour ([`CoalesceKind::Bitmap`])
//!   and L2 flavour ([`CoalesceKind::Length`]), optional small-page (COLT)
//!   coalescing for the MIX+COLT design of Sec. 7.2.
//! * [`SingleSizeTlb`] — a conventional set-associative (or
//!   fully-associative) TLB for one page size.
//! * [`SplitTlb`] — the commercial baseline: parallel per-size TLBs.
//! * [`MultiProbeTlb`] — a hash-rehash array (used by the Haswell-style
//!   partly-split L2 and by the multi-indexing baselines).
//! * [`OracleUnifiedTlb`] — the hypothetical ideal of the paper's Figure 1:
//!   one set-associative array that magically indexes with the correct page
//!   size.
//!
//! # Examples
//!
//! ```
//! use mixtlb_core::{CoalesceKind, Lookup, MixTlb, MixTlbConfig, TlbDevice};
//! use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};
//!
//! let mut tlb = MixTlb::new(MixTlbConfig::l1(16, 4));
//! // The paper's Figure 2: contiguous 2 MB superpages B and C.
//! let b = Translation::new(Vpn::new(0x400), Pfn::new(0x000), PageSize::Size2M,
//!                          Permissions::rw_user());
//! let c = Translation::new(Vpn::new(0x600), Pfn::new(0x200), PageSize::Size2M,
//!                          Permissions::rw_user());
//! tlb.fill(b.vpn, &b, &[b, c]); // B and C coalesce into one (mirrored) entry
//! match tlb.lookup(Vpn::new(0x6F3), AccessKind::Load) {
//!     Lookup::Hit { translation, .. } => {
//!         assert_eq!(translation.frame_for(Vpn::new(0x6F3)), Some(Pfn::new(0x2F3)));
//!     }
//!     Lookup::Miss => panic!("C coalesced with B must hit"),
//! }
//! ```

#![warn(missing_docs)]

mod api;
mod mix;
mod multiprobe;
mod oracle;
mod single;
mod split;
mod storage;

pub use api::{BatchAccess, CoalescedRun, Lookup, TlbDevice, TlbStats};
pub use mix::{
    CoalesceKind, DirtyPolicy, FillMerge, InvariantViolation, MirrorPolicy, MixTlb, MixTlbConfig,
};
pub use multiprobe::{MultiProbeConfig, MultiProbeTlb};
pub use oracle::OracleUnifiedTlb;
pub use single::{SingleSizeTlb, SingleSizeTlbConfig};
pub use split::{SplitTlb, SplitTlbConfig};
