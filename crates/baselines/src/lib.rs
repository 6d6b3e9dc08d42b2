//! Comparator TLB designs from the MIX TLB paper's Sec. 5: multi-indexing
//! schemes (hash-rehash, skew-associative, and their prediction-enhanced
//! variants) and the rejected superpage-index-bits alternative. The split
//! designs — the Haswell baseline, COLT and COLT++ — are
//! [`SplitTlb`](mixtlb_core::SplitTlb) presets in `mixtlb-core`.
//!
//! Everything here implements the same [`TlbDevice`] interface as the
//! designs in `mixtlb-core`, so the translation engine, energy model, and
//! differential tests treat them interchangeably:
//!
//! * [`SkewTlb`] — Seznec-style skew-associative TLB: every page size gets
//!   its own ways, each with its own hash function; lookups read *all* ways
//!   in parallel (the energy cost Sec. 5.1 criticizes) and replacement uses
//!   timestamps.
//! * [`SizePredictor`] — a PC-indexed page-size predictor with hysteresis
//!   (Papadopoulou et al., HPCA 2014).
//! * [`PredictiveHashRehash`] / [`PredictiveSkew`] — probe the predicted
//!   size first, paying extra probes only on mispredictions.
//! * [`superpage_indexed_mix`] — the Sec. 3 strawman that indexes with
//!   2 MB bits, mapping 512 adjacent small pages to one set.
//!
//! # Examples
//!
//! ```
//! use mixtlb_baselines::{SkewTlb, SkewTlbConfig};
//! use mixtlb_core::TlbDevice;
//! use mixtlb_types::{AccessKind, PageSize, Permissions, Pfn, Translation, Vpn};
//!
//! let mut tlb = SkewTlb::new(SkewTlbConfig::new(2, 16));
//! let b = Translation::new(Vpn::new(0x400), Pfn::new(0), PageSize::Size2M,
//!                          Permissions::rw_user());
//! tlb.fill(b.vpn, &b, &[b]);
//! assert!(tlb.lookup(Vpn::new(0x433), AccessKind::Load).is_hit());
//! ```

#![warn(missing_docs)]

mod predictive;
mod predictor;
mod skew;
mod spindex;

pub use predictive::{PredictiveHashRehash, PredictiveSkew};
pub use predictor::SizePredictor;
pub use skew::{SkewTlb, SkewTlbConfig};
pub use spindex::superpage_indexed_mix;

pub use mixtlb_core::TlbDevice;
