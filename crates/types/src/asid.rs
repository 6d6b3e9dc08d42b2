//! Address-space identifiers (x86 PCID / ARM ASID).
//!
//! An [`Asid`] tags TLB entries with the address space that installed them,
//! so a context switch no longer has to flush the TLB: entries of the
//! outgoing space stay resident and are simply ignored by lookups of the
//! incoming space. x86 calls the 12-bit variant a PCID; ARM and RISC-V call
//! it an ASID. The simulator follows the hardware convention that ASID `0`
//! means *untagged*: a device that has never been given a real ASID behaves
//! exactly as before the API existed (global entries, full flushes on
//! context switch).

/// An address-space identifier (PCID). `Asid::UNTAGGED` (zero) denotes the
/// legacy untagged mode; real address spaces use `1..=4095` (x86 PCIDs are
/// 12-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Asid(u16);

impl Asid {
    /// Number of distinct ASID values hardware tags can hold (12-bit PCID).
    pub const CAPACITY: u16 = 4096;

    /// The untagged / global address space (legacy behaviour).
    pub const UNTAGGED: Asid = Asid(0);

    /// Creates an ASID.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit the 12-bit PCID space. Callers whose
    /// identifier comes from an unbounded source (core ids, space ids)
    /// should use [`Asid::try_new`] or [`Asid::for_index`] instead.
    pub const fn new(raw: u16) -> Asid {
        assert!(raw < Asid::CAPACITY, "ASID out of the 12-bit PCID range");
        Asid(raw)
    }

    /// Fallible constructor: `None` when `raw` does not fit the 12-bit
    /// PCID space.
    pub const fn try_new(raw: u16) -> Option<Asid> {
        if raw < Asid::CAPACITY {
            Some(Asid(raw))
        } else {
            None
        }
    }

    /// Maps an unbounded index (core id, space id) into the non-zero
    /// 12-bit tag space by wrapping: indices `0..4094` map to tags
    /// `1..=4095`, index `4095` wraps back to tag `1`, and so on. Never
    /// panics and never silently truncates — the reduction happens in
    /// full `usize` width *before* narrowing, unlike `raw as u16`.
    ///
    /// Wrapped tags collide, so this is only correct where reuse is
    /// harmless (per-core private TLBs running one space each) or where a
    /// generation scheme ([`AsidAllocator`]) tracks the reuse.
    pub const fn for_index(index: usize) -> Asid {
        Asid((index % (Asid::CAPACITY as usize - 1)) as u16 + 1)
    }

    /// The raw identifier.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// `true` for the untagged/global pseudo-ASID.
    pub const fn is_untagged(self) -> bool {
        self.0 == 0
    }

    /// `true` when an entry tagged `self` is visible to a lookup from
    /// `other`: untagged entries are global, tagged entries require an
    /// exact match.
    pub const fn matches(self, other: Asid) -> bool {
        self.0 == 0 || other.0 == 0 || self.0 == other.0
    }
}

impl core::fmt::Display for Asid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_untagged() {
            write!(f, "asid#global")
        } else {
            write!(f, "asid#{}", self.0)
        }
    }
}

/// One allocation handed out by an [`AsidAllocator`]: the hardware tag,
/// the rollover generation it belongs to, and whether this allocation
/// *caused* a rollover (in which case every core must flush stale-tagged
/// entries before running under the new generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsidAllocation {
    /// The hardware tag (never [`Asid::UNTAGGED`]).
    pub asid: Asid,
    /// The generation the tag is valid in. Tags from older generations
    /// may alias this one and must not be trusted after a flush.
    pub generation: u64,
    /// `true` when handing out this tag exhausted the previous generation:
    /// the hardware tag space wrapped, and TLB entries installed under any
    /// older generation are now stale.
    pub rolled_over: bool,
}

/// The generation-counter ASID recycling scheme kernels use for small
/// hardware tag spaces (Linux's arm64 ASID allocator, x86 PCID reuse).
///
/// Hardware tags are 12–16 bits, but a machine serves millions of address
/// spaces, so tags must be reused. The allocator hands out tags
/// `1..capacity` in order; when the space is exhausted it bumps a
/// *generation* counter and starts over. A `(generation, asid)` pair is
/// globally unique, so a core can detect that its TLB still holds entries
/// tagged under an older generation — the aliasing hazard — and flush
/// exactly once per rollover (see [`AsidAllocation::rolled_over`]).
///
/// # Examples
///
/// ```
/// use mixtlb_types::{Asid, AsidAllocator};
///
/// let mut alloc = AsidAllocator::with_capacity(4); // tags 1..=3
/// let tags: Vec<_> = (0..4).map(|_| alloc.allocate()).collect();
/// assert_eq!(tags[0].asid, Asid::new(1));
/// assert_eq!(tags[3].asid, Asid::new(1)); // wrapped...
/// assert!(tags[3].rolled_over); // ...and says so
/// assert_eq!(tags[3].generation, tags[0].generation + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsidAllocator {
    /// Next raw tag to hand out (`1..capacity`).
    next: u16,
    /// One past the largest tag handed out (≤ [`Asid::CAPACITY`]).
    capacity: u16,
    /// Current rollover generation.
    generation: u64,
}

impl AsidAllocator {
    /// An allocator over the full 12-bit PCID space (tags `1..=4095`).
    pub fn new() -> AsidAllocator {
        AsidAllocator::with_capacity(Asid::CAPACITY)
    }

    /// An allocator over tags `1..capacity`. Small capacities force
    /// frequent rollovers, which is exactly what rollover tests want.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` leaves no allocatable tag (< 2) or exceeds
    /// the hardware tag space.
    pub fn with_capacity(capacity: u16) -> AsidAllocator {
        assert!(
            (2..=Asid::CAPACITY).contains(&capacity),
            "ASID capacity must leave at least one non-zero 12-bit tag"
        );
        AsidAllocator {
            next: 1,
            capacity,
            generation: 0,
        }
    }

    /// Hands out the next tag, rolling the generation over when the tag
    /// space is exhausted. Never fails and never reuses a
    /// `(generation, asid)` pair.
    pub fn allocate(&mut self) -> AsidAllocation {
        let rolled_over = self.next >= self.capacity;
        if rolled_over {
            self.generation += 1;
            self.next = 1;
        }
        // `next` is in `1..capacity <= CAPACITY` by construction
        let asid = Asid::new(self.next);
        self.next += 1;
        AsidAllocation {
            asid,
            generation: self.generation,
            rolled_over,
        }
    }

    /// The current rollover generation (starts at 0).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of distinct tags one generation can hand out.
    pub fn tags_per_generation(&self) -> u64 {
        u64::from(self.capacity) - 1
    }
}

impl Default for AsidAllocator {
    fn default() -> AsidAllocator {
        AsidAllocator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::{Asid, AsidAllocator};

    #[test]
    fn untagged_is_global() {
        let a = Asid::new(3);
        let b = Asid::new(7);
        assert!(Asid::UNTAGGED.matches(a));
        assert!(a.matches(Asid::UNTAGGED));
        assert!(a.matches(a));
        assert!(!a.matches(b));
        assert!(Asid::default().is_untagged());
    }

    #[test]
    #[should_panic(expected = "12-bit")]
    fn oversized_asid_panics() {
        let _ = Asid::new(4096);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Asid::UNTAGGED.to_string(), "asid#global");
        assert_eq!(Asid::new(42).to_string(), "asid#42");
    }

    #[test]
    fn try_new_is_fallible_not_panicking() {
        assert_eq!(Asid::try_new(4095), Some(Asid::new(4095)));
        assert_eq!(Asid::try_new(4096), None);
        assert_eq!(Asid::try_new(u16::MAX), None);
    }

    /// The regression for the SMP core-id mapping: the old
    /// `Asid::new(id as u16 + 1)` panicked at id 4095 and silently
    /// truncated ids ≥ 65536. `for_index` must wrap instead — at the
    /// boundary and far past the `u16` range.
    #[test]
    fn for_index_wraps_at_the_pcid_boundary() {
        assert_eq!(Asid::for_index(0), Asid::new(1));
        assert_eq!(Asid::for_index(4094), Asid::new(4095)); // largest tag
        assert_eq!(Asid::for_index(4095), Asid::new(1)); // wraps, no panic
        assert_eq!(Asid::for_index(4096), Asid::new(2));
        // Far beyond u16: no `as u16` truncation artifacts.
        assert_eq!(Asid::for_index(65_536), Asid::new((65_536 % 4095 + 1) as u16));
        assert_eq!(
            Asid::for_index(1_000_000),
            Asid::new((1_000_000 % 4095 + 1) as u16)
        );
        for idx in 0..20_000 {
            assert!(!Asid::for_index(idx).is_untagged());
        }
    }

    #[test]
    fn allocator_hands_out_unique_pairs_and_rolls_over() {
        let mut alloc = AsidAllocator::with_capacity(8); // tags 1..=7
        let mut seen = std::collections::HashSet::new();
        let mut rollovers = 0u64;
        for i in 0..50 {
            let a = alloc.allocate();
            assert!(!a.asid.is_untagged());
            assert!(a.asid.raw() < 8);
            assert!(
                seen.insert((a.generation, a.asid)),
                "(generation, asid) pair reused at allocation {i}"
            );
            if a.rolled_over {
                rollovers += 1;
            }
        }
        // 50 allocations over 7 tags per generation: 7 rollovers.
        assert_eq!(rollovers, 50 / 7);
        assert_eq!(alloc.generation(), rollovers);
        assert_eq!(alloc.tags_per_generation(), 7);
    }

    #[test]
    fn full_capacity_allocator_covers_a_million_spaces() {
        let mut alloc = AsidAllocator::new();
        let mut rollovers = 0u64;
        for _ in 0..1_000_000u64 {
            if alloc.allocate().rolled_over {
                rollovers += 1;
            }
        }
        // 4095 tags per generation: 1M spaces force 244 rollovers.
        assert_eq!(rollovers, 1_000_000 / 4095);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn degenerate_allocator_capacity_panics() {
        let _ = AsidAllocator::with_capacity(1);
    }
}
