//! The MIX TLB: one set-associative array for all page sizes.

use std::fmt;

use mixtlb_types::{AccessKind, Asid, PageSize, Permissions, Pfn, Translation, Vpn};

use crate::api::{CoalescedRun, Lookup, TlbDevice, TlbStats};
use crate::storage::{SetStorage, TagPlane};

/// How a MIX TLB entry records coalesced translations (paper Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceKind {
    /// L1 flavour: a bitmap with one bit per bundle position. Can represent
    /// "holes", and invalidations clear single bits.
    Bitmap,
    /// L2 flavour: a (start, length) range. Denser for long runs, but
    /// invalidation drops the whole entry (the paper's simple approach).
    Length,
}

/// When a fill writes a mirror into a set, may it first tag-check that
/// set for an existing same-bundle entry to merge into?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillMerge {
    /// Only the set the missing lookup probed is checked; every other set
    /// is mirrored blindly and duplicates are eliminated on later probes —
    /// the paper's L1 behaviour (Sec. 4.3, Fig. 8).
    ProbedSetOnly,
    /// Every target set is tag-checked during the fill. The victim-way
    /// selection already reads the set's replacement state, so the added
    /// cost is a tag compare per way; L2 MIX TLBs (which tolerate more
    /// complexity, Sec. 4) use this, and it is what lets length-field
    /// entries converge to long runs under scattered miss patterns.
    AllSets,
}

/// May a blind mirror write into a non-probed set evict a valid entry?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorPolicy {
    /// Mirrors pick an LRU victim like any fill — the paper's L1
    /// behaviour (Fig. 8 shows a mirror evicting a small-page entry).
    Evicting,
    /// Mirrors write only into invalid ways (write-enable = way invalid ∨
    /// tag match) and never displace a valid entry; only the probed set
    /// runs full replacement. This keeps the fill traffic of mirroring —
    /// which reaches every set, while lookups touch only one — from
    /// monopolizing the replacement state when the footprint exceeds the
    /// TLB's coalesced reach. Cheap in hardware (no victim selection on
    /// the mirror path) and the default for L2 MIX TLBs.
    NonEvicting,
}

/// How coalescing treats dirty bits (paper Sec. 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyPolicy {
    /// The entry's dirty bit is the AND of the bundle's dirty bits; stores
    /// to not-all-dirty bundles inject PTE dirty micro-ops. The paper's
    /// choice: full coalescing at the cost of some extra cache traffic.
    AndOfBundle,
    /// Only translations with *matching* dirty bits coalesce. No micro-op
    /// ambiguity, but — as the paper found — it drastically reduces
    /// coalescing opportunity (kept here to reproduce that claim).
    MatchOnly,
}

/// Geometry and policy of a [`MixTlb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixTlbConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Bitmap (L1) or length (L2) coalescing.
    pub kind: CoalesceKind,
    /// Maximum superpages coalesced per entry (the *bundle* size; power of
    /// two). The alignment restriction of Sec. 4.1 frames bundles at
    /// `super_bundle × page-size` virtual boundaries. Defaults to the set
    /// count — enough coalescing to offset mirroring.
    pub super_bundle: u32,
    /// Maximum 4 KB pages coalesced per entry: 1 disables small-page
    /// coalescing (plain MIX); 4 gives the MIX+COLT design of Sec. 7.2.
    /// Also a power of two. Small-page index bits shift accordingly.
    pub small_bundle: u32,
    /// Fill-time merge policy (see [`FillMerge`]).
    pub fill_merge: FillMerge,
    /// Mirror eviction policy (see [`MirrorPolicy`]).
    pub mirror_policy: MirrorPolicy,
    /// Dirty-bit coalescing policy (see [`DirtyPolicy`]).
    pub dirty_policy: DirtyPolicy,
    /// Extra left-shift applied to the index bits. 0 (the MIX design)
    /// indexes at small-page granularity; 9 indexes with the 2 MB
    /// superpage's bits — the rejected alternative of Sec. 3, which maps
    /// groups of 512 adjacent small pages to one set (the
    /// `superpage-indexed` baseline of the in-text experiment).
    pub extra_index_shift: u32,
    /// Design name for reports.
    pub name: String,
}

impl MixTlbConfig {
    /// An L1 MIX TLB (bitmap coalescing, bundle = set count).
    pub fn l1(sets: usize, ways: usize) -> MixTlbConfig {
        MixTlbConfig {
            sets,
            ways,
            kind: CoalesceKind::Bitmap,
            #[expect(
                clippy::expect_used,
                reason = "set counts are small powers of two; a 4-billion-set TLB is not a meaningful geometry"
            )]
            super_bundle: u32::try_from(sets)
                .expect("set count exceeds u32"),
            small_bundle: 1,
            fill_merge: FillMerge::ProbedSetOnly,
            mirror_policy: MirrorPolicy::Evicting,
            dirty_policy: DirtyPolicy::AndOfBundle,
            extra_index_shift: 0,
            name: "mix-l1".to_owned(),
        }
    }

    /// An L2 MIX TLB (length coalescing, bundle = set count).
    pub fn l2(sets: usize, ways: usize) -> MixTlbConfig {
        MixTlbConfig {
            sets,
            ways,
            kind: CoalesceKind::Length,
            #[expect(
                clippy::expect_used,
                reason = "set counts are small powers of two; a 4-billion-set TLB is not a meaningful geometry"
            )]
            super_bundle: u32::try_from(sets)
                .expect("set count exceeds u32"),
            small_bundle: 1,
            fill_merge: FillMerge::AllSets,
            mirror_policy: MirrorPolicy::NonEvicting,
            dirty_policy: DirtyPolicy::AndOfBundle,
            extra_index_shift: 0,
            name: "mix-l2".to_owned(),
        }
    }

    /// Enables COLT-style coalescing of up to `n` contiguous 4 KB pages
    /// (the paper compares against `n = 4`).
    pub fn with_small_coalescing(mut self, n: u32) -> MixTlbConfig {
        self.small_bundle = n;
        self.name = format!("{}+colt", self.name);
        self
    }

    /// Renames the design.
    pub fn named(mut self, name: &str) -> MixTlbConfig {
        self.name = name.to_owned();
        self
    }

    /// Total entries (for area-equivalence arguments).
    pub fn total_entries(&self) -> usize {
        self.sets * self.ways
    }

    fn validate(&self) {
        assert!(self.sets.is_power_of_two(), "set count must be a power of two");
        assert!(self.super_bundle.is_power_of_two(), "super_bundle must be a power of two");
        assert!(self.small_bundle.is_power_of_two(), "small_bundle must be a power of two");
        assert!(
            self.kind == CoalesceKind::Length || self.super_bundle <= 128,
            "bitmap entries support at most 128 bundle positions"
        );
        assert!(
            self.super_bundle <= MAX_POSITIONS,
            "length entries support at most 512 bundle positions"
        );
        assert!(self.small_bundle <= 128, "small bundles above 128 are not supported");
    }
}

/// The most bundle positions an entry may have: bitmap entries stop at
/// 128 (one `u128`), length entries at 512 (`mix_scaled(512)` frames
/// 512-superpage bundles).
const MAX_POSITIONS: u32 = 512;

/// A set of bundle positions: a fixed 512-bit mask, so building a fill
/// allocates nothing whatever the bundle size.
#[derive(Debug, Clone, Copy, Default)]
struct PosSet([u64; (MAX_POSITIONS / 64) as usize]);

impl PosSet {
    fn contains(&self, pos: u32) -> bool {
        (self.0[(pos / 64) as usize] >> (pos % 64)) & 1 != 0
    }

    fn insert(&mut self, pos: u32) {
        self.0[(pos / 64) as usize] |= 1u64 << (pos % 64);
    }

    /// Inserts every position in `start..end`, a word at a time.
    fn insert_range(&mut self, start: u32, end: u32) {
        let mut pos = start;
        while pos < end {
            let word = pos / 64;
            let lo = pos % 64;
            let hi = (end - word * 64).min(64);
            let width = hi - lo;
            let bits = if width == 64 { u64::MAX } else { ((1u64 << width) - 1) << lo };
            self.0[word as usize] |= bits;
            pos = word * 64 + hi;
        }
    }

    /// Positions 0..128 as a bitmap entry's map.
    fn low_bits(&self) -> u128 {
        u128::from(self.0[0]) | (u128::from(self.0[1]) << 64)
    }

    /// `true` when every position of `self` is also in `other`.
    fn is_subset(&self, other: &PosSet) -> bool {
        self.0.iter().zip(&other.0).all(|(mine, theirs)| mine & !theirs == 0)
    }
}

/// The translations a fill may coalesce, as bundle positions: which are
/// present, and which of those are dirty. Each position keeps the first
/// qualifying translation that named it.
#[derive(Debug, Clone, Copy, Default)]
struct Candidates {
    present: PosSet,
    dirty: PosSet,
}

impl Candidates {
    fn add(&mut self, pos: u32, dirty: bool) {
        if self.present.contains(pos) {
            return;
        }
        self.present.insert(pos);
        if dirty {
            self.dirty.insert(pos);
        }
    }
}

/// A bitmap map's 128 position bits, kept as two `u64` words: a `u128`
/// field would force 16-byte alignment and round every entry up to 64
/// bytes, where the words keep it at 48.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Bits([u64; 2]);

impl Bits {
    fn new(bits: u128) -> Bits {
        Bits([bits as u64, (bits >> 64) as u64])
    }

    fn get(self) -> u128 {
        u128::from(self.0[0]) | (u128::from(self.0[1]) << 64)
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.get())
    }
}

/// Coalescing state of one entry: which bundle positions are present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Map {
    Bits(Bits),
    Range { start: u32, len: u32 },
}

impl Map {
    fn contains(&self, pos: u32) -> bool {
        match *self {
            Map::Bits(bits) => bits.get() & (1u128 << pos) != 0,
            Map::Range { start, len } => pos >= start && pos < start + len,
        }
    }

    fn count(&self) -> u32 {
        match *self {
            Map::Bits(bits) => bits.get().count_ones(),
            Map::Range { len, .. } => len,
        }
    }

    /// Merges `other` into `self` where the representation allows. Returns
    /// `true` if the merge succeeded (bitmaps always merge; ranges merge
    /// only when the union is contiguous).
    fn merge(&mut self, other: &Map) -> bool {
        match (&mut *self, other) {
            (Map::Bits(mine), Map::Bits(theirs)) => {
                *mine = Bits::new(mine.get() | theirs.get());
                true
            }
            (Map::Range { start, len }, Map::Range { start: s2, len: l2 }) => {
                let (a1, e1) = (*start, *start + *len);
                let (a2, e2) = (*s2, *s2 + *l2);
                if a2 > e1 || a1 > e2 {
                    return false; // disjoint, non-adjacent
                }
                let a = a1.min(a2);
                let e = e1.max(e2);
                *start = a;
                *len = e - a;
                true
            }
            _ => false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct MixEntry {
    size: PageSize,
    /// Bundle-base VPN (aligned to the bundle span).
    bundle_base: Vpn,
    /// PFN anchor for `bundle_base`: present position `p` maps to
    /// `anchor + p × pages_4k` (wrapping arithmetic; the anchor itself may
    /// be synthetic when position 0 is absent).
    anchor_pfn: u64,
    map: Map,
    perms: Permissions,
    /// Set only when *every* coalesced translation is dirty (Sec. 4.4).
    dirty: bool,
    /// Address space that installed the entry. [`Asid::UNTAGGED`] entries
    /// are global (the pre-ASID behaviour).
    asid: Asid,
}

impl MixEntry {
    fn tag_matches(&self, size: PageSize, bundle_base: Vpn) -> bool {
        self.size == size && self.bundle_base == bundle_base
    }

    fn pfn_for(&self, pos: u32) -> Pfn {
        Pfn::new(
            self.anchor_pfn
                .wrapping_add(u64::from(pos) * self.size.pages_4k()),
        )
    }

    /// The maximal contiguous run of present positions around `pos`.
    /// `pos` must be present.
    fn run_around(&self, pos: u32, bundle_count: u32) -> CoalescedRun {
        let (run_start, run_end) = match self.map {
            // The run ends at the first clear bit above `pos` and starts
            // after the first clear bit below it (`pos < 128` here).
            Map::Bits(bits) => {
                let bits = bits.get();
                let end = pos + (!(bits >> pos)).trailing_zeros();
                let ones_below = if pos == 0 {
                    0
                } else {
                    (!(bits << (128 - pos))).leading_zeros()
                };
                (pos - ones_below, end.min(bundle_count))
            }
            Map::Range { start, len } => (start, (start + len).min(bundle_count)),
        };
        CoalescedRun {
            first: Translation {
                vpn: Vpn::new(self.bundle_base.raw() + u64::from(run_start) * self.size.pages_4k()),
                pfn: self.pfn_for(run_start),
                size: self.size,
                perms: self.perms,
                accessed: true,
                dirty: self.dirty,
            },
            len: run_end - run_start,
        }
    }
}

/// Packs a (bundle base, size) tag into one `u64` for the tag plane: the
/// base's page number at `size` granularity above the 2-bit size code. A
/// 48-bit virtual address space leaves that page number at most 36 bits,
/// so the packing is injective for every real address; for the rest a key
/// match is re-checked against the entry anyway.
fn tag_key(size: PageSize, bundle_base: Vpn) -> u64 {
    (bundle_base.page_number(size) << 2) | u64::from(size.encode())
}

/// The MIX tag plane: one packed (bundle base, size) key per slot, so a
/// fill's merge check and a probe's duplicate check read 8 bytes per way.
#[derive(Debug, Clone, Copy)]
struct MixTags;

impl TagPlane<MixEntry> for MixTags {
    const ENABLED: bool = true;

    fn key(entry: &MixEntry) -> u64 {
        tag_key(entry.size, entry.bundle_base)
    }
}

/// The MIX TLB (paper Secs. 3-4): small-page index bits for every page
/// size, superpage entries mirrored across sets, contiguous superpages
/// coalesced into single entries, duplicates merged lazily on lookup.
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct MixTlb {
    config: MixTlbConfig,
    storage: SetStorage<MixEntry, MixTags>,
    /// One bit per set: the sets a partial mirror (a page narrower than
    /// the set count's regions) targets, gathered so they are visited
    /// once each in ascending order. All zero between fills.
    mirror_sets: Vec<u64>,
    stats: TlbStats,
}

impl MixTlb {
    /// Creates an empty MIX TLB.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (non-power-of-two
    /// geometry, bitmap bundles above 128, or bundles above 512).
    pub fn new(config: MixTlbConfig) -> MixTlb {
        config.validate();
        let storage = SetStorage::new(config.sets, config.ways);
        // Mirrors that only merge or claim free ways leave every other set
        // alone, so such fills visit the sets the key index names.
        let storage = if config.fill_merge == FillMerge::AllSets
            && config.mirror_policy == MirrorPolicy::NonEvicting
        {
            storage.with_key_index()
        } else {
            storage
        };
        let mirror_sets = vec![0; config.sets.div_ceil(64)];
        MixTlb {
            config,
            storage,
            mirror_sets,
            stats: TlbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MixTlbConfig {
        &self.config
    }

    /// Number of valid entries (mirrors counted individually).
    pub fn occupancy(&self) -> usize {
        self.storage.occupancy()
    }

    /// Index shift: small-page coalescing groups `small_bundle` consecutive
    /// 4 KB pages per set.
    fn index_shift(&self) -> u32 {
        self.config.small_bundle.trailing_zeros() + self.config.extra_index_shift
    }

    /// The probed set for a 4 KB virtual page — one probe, no page size
    /// needed (the design's point; paper Fig. 4).
    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.index_bits(self.index_shift()) as usize) & (self.config.sets - 1)
    }

    /// Number of bundle positions for `size`: the configured
    /// `super_bundle` for superpages, `small_bundle` for 4 KB pages.
    /// Derived straight from the validated config fields — no narrowing
    /// arithmetic on page counts.
    fn bundle_count(&self, size: PageSize) -> u32 {
        if size.is_superpage() {
            self.config.super_bundle
        } else {
            self.config.small_bundle
        }
    }

    fn bundle_pages(&self, size: PageSize) -> u64 {
        u64::from(self.bundle_count(size)) * size.pages_4k()
    }

    fn bundle_base(&self, vpn: Vpn, size: PageSize) -> Vpn {
        vpn.align_down_pages(self.bundle_pages(size))
    }

    fn pos_of(&self, vpn: Vpn, size: PageSize) -> u32 {
        // The base is a whole number of `size` pages below `vpn`, so the
        // offset is a difference of page numbers — shifts, no division.
        let base = self.bundle_base(vpn, size);
        let pos = vpn.page_number(size) - base.page_number(size);
        #[expect(
            clippy::expect_used,
            reason = "bundle positions are bounded by the validated bundle size (<= 512)"
        )]
        u32::try_from(pos)
            .expect("bundle position exceeds the validated bundle size")
    }

    /// Merges same-tag duplicate entries in a set into the first, removing
    /// the rest (paper Sec. 4.3: duplicates from blind mirroring are
    /// eliminated when the set is next probed).
    fn eliminate_duplicates(&mut self, set: usize) {
        type DupKey = (PageSize, Vpn, u64, Asid);
        // Fast paths, proven without touching the entry plane: a set that
        // has not changed since a sweep merged nothing in it is at a fixed
        // point, and a set with at most one entry, or whose tag plane holds
        // no key twice, cannot hold duplicates.
        if !self.storage.needs_sweep(set) {
            return;
        }
        if self.storage.set_occupancy(set) <= 1 || !self.storage.has_shared_key(set) {
            self.storage.mark_swept(set);
            return;
        }
        let mut merged_any = false;
        // Ways are capped at 64 by the storage plane, so the seen-list
        // lives on the stack — the probe loop allocates nothing.
        let mut seen: [Option<(usize, DupKey)>; 64] = [None; 64];
        let mut seen_len = 0usize;
        let mut mask = self.storage.valid_mask(set);
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let Some(e) = self.storage.get(set, way) else { continue };
            let key: DupKey = (e.size, e.bundle_base, e.anchor_pfn, e.asid);
            let hit = seen[..seen_len]
                .iter()
                .flatten()
                .find(|&&(_, k)| k == key)
                .copied();
            let mut merged = false;
            if let Some((first_way, _)) = hit {
                // Merge when the representation allows. Disjoint length
                // ranges are *not* duplicates — they are different
                // coalesced fragments of the bundle — and both stay.
                #[expect(
                    clippy::expect_used,
                    reason = "way index came from the duplicate scan over the same storage"
                )]
                let dup_map = self.storage.get(set, way).expect("way is valid").map;
                #[expect(clippy::expect_used, reason = "same occupied way as the line above")]
                let dup_dirty = self.storage.get(set, way).expect("way is valid").dirty;
                #[expect(
                    clippy::expect_used,
                    reason = "first_way was recorded from an occupied slot in this scan"
                )]
                let first = self
                    .storage
                    .get_mut(set, first_way)
                    .expect("first entry is valid");
                let mut merged_map = first.map;
                if merged_map.merge(&dup_map) {
                    first.map = merged_map;
                    first.dirty = first.dirty && dup_dirty;
                    self.storage.remove(set, way);
                    self.stats.dup_merges += 1;
                    merged = true;
                    merged_any = true;
                }
            }
            if !merged {
                // Each way records at most once and `mask` is a u64, so
                // the seen-list cannot outgrow its 64 slots.
                // restates the storage plane's way cap
                assert!(seen_len < 64, "seen-list outgrew the 64-way cap");
                seen[seen_len] = Some((way, key));
                seen_len += 1;
            }
        }
        // A pass that merged something may have enabled another merge
        // (a grown map can become adjacent to a fragment scanned before
        // it), so only a pass that merged nothing proves a fixed point.
        if !merged_any {
            self.storage.mark_swept(set);
        }
    }

    /// Whether `t` may coalesce into a fill of `requested` whose bundle
    /// starts at `base` with physical anchor `anchor`: same size and
    /// permissions, accessed, dirty-compatible, in the bundle, and
    /// physically consistent with the anchor.
    fn coalescible(&self, t: &Translation, requested: &Translation, base: Vpn, anchor: u64) -> bool {
        t.size == requested.size
            && t.perms == requested.perms
            && t.accessed
            && (self.config.dirty_policy == DirtyPolicy::AndOfBundle
                || t.dirty == requested.dirty)
            && self.bundle_base(t.vpn, t.size) == base
            && t.pfn.raw() == anchor.wrapping_add(t.vpn.raw() - base.raw())
    }

    /// The bundle base and physical anchor of a fill of `requested`.
    fn fill_frame(&self, requested: &Translation) -> (Vpn, u64) {
        let base = self.bundle_base(requested.vpn, requested.size);
        let anchor = requested
            .pfn
            .raw()
            .wrapping_sub(requested.vpn.raw() - base.raw());
        (base, anchor)
    }

    /// The candidates of a fill from a PTE line: every translation in
    /// `line` that may coalesce with `requested`, then `requested` itself.
    fn line_candidates(&self, requested: &Translation, line: &[Translation]) -> Candidates {
        let (base, anchor) = self.fill_frame(requested);
        let mut c = Candidates::default();
        for t in line.iter().chain(std::iter::once(requested)) {
            if self.coalescible(t, requested, base, anchor) {
                c.add(self.pos_of(t.vpn, t.size), t.dirty);
            }
        }
        c
    }

    /// The candidates of a fill from a coalesced run — exactly
    /// [`Self::line_candidates`] over `run.translations()`, in O(1): the
    /// run's members share size, permissions, bits and physical offset,
    /// so either all of them pass the per-translation checks or none
    /// does, and those that do are the ones inside the bundle.
    fn run_candidates(&self, requested: &Translation, run: &CoalescedRun) -> Candidates {
        let (base, anchor) = self.fill_frame(requested);
        let mut c = Candidates::default();
        let size = run.first.size;
        let step = size.pages_4k();
        let first = run.first.vpn.raw();
        let len = u64::from(run.len);
        // The members at or past the bundle base: skip the ones before it,
        // and the first remaining one sits at position `first_pos`.
        let (skip, first_pos) = match first.checked_sub(base.raw()) {
            Some(offset) => (0, offset / step),
            None => ((base.raw() - first).div_ceil(step), 0),
        };
        let uniform = Translation {
            vpn: Vpn::new(first + skip * step),
            pfn: run.first.pfn.add_4k(skip * step),
            ..run.first
        };
        if skip < len && self.coalescible(&uniform, requested, base, anchor) {
            let bundle_count = u64::from(self.bundle_count(size));
            let end = (first_pos + (len - skip)).min(bundle_count);
            // Both bounds are at most the bundle count (<= 512).
            let (lo, hi) = (first_pos as u32, end as u32);
            c.present.insert_range(lo, hi);
            if run.first.dirty {
                c.dirty.insert_range(lo, hi);
            }
        }
        if self.coalescible(requested, requested, base, anchor) {
            c.add(self.pos_of(requested.vpn, requested.size), requested.dirty);
        }
        c
    }

    /// Builds the entry a fill installs from its candidates: a bitmap of
    /// every present position, or the maximal present range around the
    /// requested position, dirty only if every coalesced translation is.
    fn build_entry(&self, asid: Asid, requested: &Translation, c: &Candidates) -> MixEntry {
        let size = requested.size;
        let (base, anchor) = self.fill_frame(requested);
        let req_pos = self.pos_of(requested.vpn, size);
        let (map, dirty) = match self.config.kind {
            CoalesceKind::Bitmap => (Map::Bits(Bits::new(c.present.low_bits())), c.present.is_subset(&c.dirty)),
            CoalesceKind::Length => {
                let bundle_count = self.bundle_count(size);
                let mut start = req_pos;
                while start > 0 && c.present.contains(start - 1) {
                    start -= 1;
                }
                let mut end = req_pos + 1;
                while end < bundle_count && c.present.contains(end) {
                    end += 1;
                }
                let dirty = (start..end).all(|p| !c.present.contains(p) || c.dirty.contains(p));
                (Map::Range { start, len: end - start }, dirty)
            }
        };
        MixEntry {
            size,
            bundle_base: base,
            anchor_pfn: anchor,
            map,
            perms: requested.perms,
            dirty,
            asid,
        }
    }

    /// The ASID-aware lookup body; `lookup`/`lookup_asid` both land here.
    fn lookup_tagged(&mut self, asid: Asid, vpn: Vpn, kind: AccessKind) -> Lookup {
        self.stats.lookups += 1;
        let set = self.set_of(vpn);
        self.stats.sets_probed += 1;
        self.stats.entries_read += self.config.ways as u64;
        // All entries in the probed set are tag-checked in parallel; this
        // is also when duplicate mirrors are detected and merged.
        self.eliminate_duplicates(set);
        let Some(way) = self.visible_way(set, asid, vpn) else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        self.storage.touch(set, way);
        #[expect(
            clippy::expect_used,
            reason = "way index came from the hit probe over the same storage"
        )]
        let mut e = *self.storage.get(set, way).expect("hit way is valid");
        let mut dirty_microop = false;
        if kind.is_store() && !e.dirty {
            dirty_microop = true;
            self.stats.dirty_microops += 1;
            // Only a singleton entry can flip its dirty bit: for a
            // coalesced bundle the bit means "all members dirty", which
            // one store cannot establish (Sec. 4.4).
            if e.map.count() == 1 {
                e.dirty = true;
                if let Some(slot) = self.storage.get_mut(set, way) {
                    slot.dirty = true;
                }
            }
        }
        let pos = self.pos_of(vpn, e.size);
        self.stats.record_hit(e.size);
        // The maximal contiguous run around the hit: what an inner MIX TLB
        // can absorb on refill.
        let run = e.run_around(pos, self.bundle_count(e.size));
        Lookup::Hit {
            translation: Translation {
                vpn: Vpn::new(e.bundle_base.raw() + u64::from(pos) * e.size.pages_4k()),
                pfn: e.pfn_for(pos),
                size: e.size,
                perms: e.perms,
                accessed: true,
                dirty: e.dirty,
            },
            dirty_microop,
            run: Some(run),
        }
    }

    /// The first way of `set` whose entry is visible to `asid` and covers
    /// `vpn` — the hit a lookup would take.
    fn visible_way(&self, set: usize, asid: Asid, vpn: Vpn) -> Option<usize> {
        // Only a way keyed by `vpn`'s bundle at its own size can cover
        // `vpn`: the tag plane names those without reading an entry.
        let keys = PageSize::ALL.map(|size| tag_key(size, self.bundle_base(vpn, size)));
        let mut mask = self.storage.ways_keyed_any(set, keys);
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let Some(e) = self.storage.get(set, way) else { continue };
            if !e.asid.matches(asid) {
                continue;
            }
            let base = self.bundle_base(vpn, e.size);
            if e.bundle_base == base && e.map.contains(self.pos_of(vpn, e.size)) {
                return Some(way);
            }
        }
        None
    }

    /// The coalesced run covering `vpn` that a lookup from `asid` would
    /// hit, without touching statistics or replacement state.
    fn peek_tagged(&self, asid: Asid, vpn: Vpn) -> Option<CoalescedRun> {
        let set = self.set_of(vpn);
        let way = self.visible_way(set, asid, vpn)?;
        let e = self.storage.get(set, way)?;
        Some(e.run_around(self.pos_of(vpn, e.size), self.bundle_count(e.size)))
    }

    /// The fill body every fill entry point lands in: installs the entry
    /// built from `c` into each set it mirrors to.
    fn fill_candidates(&mut self, asid: Asid, vpn: Vpn, requested: &Translation, c: &Candidates) {
        self.stats.fills += 1;
        let entry = self.build_entry(asid, requested, c);
        let probed = self.set_of(vpn);
        // A page spans `regions` index regions. With at least one per set
        // (every superpage in every real configuration) it mirrors into
        // every set; otherwise into the sets its present positions'
        // regions index, gathered in the set mask first so each is
        // visited once, in ascending order.
        let shift = self.index_shift();
        let regions = (entry.size.pages_4k() >> shift).max(1);
        if regions >= self.config.sets as u64 {
            // Every set is a target, but a set other than the probed one
            // that holds no same-key entry and has no free way is left
            // alone by the fill; the key index (when kept) skips those.
            let key = tag_key(entry.size, entry.bundle_base);
            for word in 0..self.mirror_sets.len() {
                let mut sets = self.storage.sets_keyed_or_free(word, key);
                if probed / 64 == word {
                    sets |= 1u64 << (probed % 64);
                }
                while sets != 0 {
                    let bit = sets.trailing_zeros() as usize;
                    sets &= sets - 1;
                    self.fill_set(word * 64 + bit, probed, &entry);
                }
            }
            return;
        }
        match entry.map {
            Map::Bits(bits) => {
                let mut rest = bits.get();
                while rest != 0 {
                    let pos = rest.trailing_zeros();
                    rest &= rest - 1;
                    self.mark_mirror_sets(&entry, pos, regions);
                }
            }
            Map::Range { start, len } => {
                for pos in start..start + len {
                    self.mark_mirror_sets(&entry, pos, regions);
                }
            }
        }
        for word in 0..self.mirror_sets.len() {
            let mut sets = std::mem::take(&mut self.mirror_sets[word]);
            while sets != 0 {
                let bit = sets.trailing_zeros() as usize;
                sets &= sets - 1;
                self.fill_set(word * 64 + bit, probed, &entry);
            }
        }
    }

    /// Marks the sets indexed by the `regions` index regions of the page
    /// at bundle position `pos` of `entry`.
    fn mark_mirror_sets(&mut self, entry: &MixEntry, pos: u32, regions: u64) {
        let shift = self.index_shift();
        let first_vpn = entry.bundle_base.raw() + u64::from(pos) * entry.size.pages_4k();
        for r in 0..regions {
            let set = self.set_of(Vpn::new(first_vpn + (r << shift)));
            self.mirror_sets[set / 64] |= 1u64 << (set % 64);
        }
    }

    /// The first way of `set` whose entry `entry` may merge into: same
    /// bundle, physical anchor, permissions and ASID tag, and
    /// dirty-compatible. The tag plane narrows the scan to the ways with
    /// the right (bundle, size) key before any entry is read.
    fn mergeable_way(&self, set: usize, entry: &MixEntry) -> Option<usize> {
        let dirty_policy = self.config.dirty_policy;
        let mut ways = self
            .storage
            .ways_keyed(set, tag_key(entry.size, entry.bundle_base));
        while ways != 0 {
            let way = ways.trailing_zeros() as usize;
            ways &= ways - 1;
            let Some(e) = self.storage.get(set, way) else { continue };
            if e.tag_matches(entry.size, entry.bundle_base)
                && e.anchor_pfn == entry.anchor_pfn
                && e.perms == entry.perms
                && e.asid == entry.asid
                && (dirty_policy == DirtyPolicy::AndOfBundle || e.dirty == entry.dirty)
            {
                return Some(way);
            }
        }
        None
    }

    /// Writes one mirror of a fill into `set`.
    fn fill_set(&mut self, set: usize, probed: usize, entry: &MixEntry) {
        // Only the set the missing lookup probed is tag-checked for a
        // same-bundle entry to merge into — this is how coalescing
        // extends past one cache line (Sec. 4.2). Other sets are mirrored
        // *blindly*: checking them all would be an energy-expensive
        // full-TLB scan, so duplicates may arise and are eliminated when
        // those sets are next probed (Sec. 4.3, Fig. 8).
        if set == probed || self.config.fill_merge == FillMerge::AllSets {
            // Merge only into an entry of the same bundle *and the same
            // physical anchor*: bundles whose physical backing is
            // piecewise-linear (common under nested translation, where
            // host runs break guest runs) legitimately hold several
            // fragments with different anchors side by side. ASID tags
            // must match exactly — a global entry never absorbs a tagged
            // fragment or vice versa.
            if let Some(way) = self.mergeable_way(set, entry) {
                self.storage.touch(set, way);
                #[expect(
                    clippy::expect_used,
                    reason = "way index came from mergeable_way() just above"
                )]
                let existing = self.storage.get_mut(set, way).expect("found way is valid");
                let before = existing.map;
                if existing.map.merge(&entry.map) {
                    existing.dirty = existing.dirty && entry.dirty;
                    // A merge only ever grows a map, so a changed map is
                    // one that absorbed new translations.
                    if existing.map != before {
                        self.stats.coalesce_merges += 1;
                    }
                    self.stats.entries_written += 1;
                    return;
                }
                // Disjoint length ranges of the same bundle cannot be
                // represented in one entry: fall through and insert a
                // separate fragment entry.
            }
        }
        if set != probed && self.config.mirror_policy == MirrorPolicy::NonEvicting {
            // Opportunistic mirror: only an invalid way may take it.
            if let Some(way) = self.storage.free_way(set) {
                self.storage.insert_at(set, way, *entry);
                self.stats.entries_written += 1;
            }
            return;
        }
        if self.storage.insert_lru(set, *entry) {
            self.stats.evictions += 1;
        }
        self.stats.entries_written += 1;
    }

    /// The ASID-aware invalidation body; `invalidate`/`invalidate_asid`
    /// both land here. Entries whose tag is visible to `asid` (same space,
    /// or either side untagged) are cleared.
    fn invalidate_tagged(&mut self, asid: Asid, vpn: Vpn, size: PageSize) {
        self.stats.invalidations += 1;
        let base = self.bundle_base(vpn, size);
        let pos = self.pos_of(vpn, size);
        for set in 0..self.config.sets {
            for way in self
                .storage
                .find_all(set, |e| e.tag_matches(size, base) && e.asid.matches(asid))
            {
                match self.config.kind {
                    CoalesceKind::Bitmap => {
                        let remove = {
                            #[expect(
                                clippy::expect_used,
                                reason = "way was recorded from an occupied slot earlier in this sweep"
                            )]
                            let e = self.storage.get_mut(set, way).expect("way is valid");
                            if let Map::Bits(bits) = &mut e.map {
                                *bits = Bits::new(bits.get() & !(1u128 << pos));
                                bits.get() == 0
                            } else {
                                true
                            }
                        };
                        if remove {
                            self.storage.remove(set, way);
                        }
                    }
                    CoalesceKind::Length => {
                        // The paper's simple approach: drop the whole
                        // coalesced bundle if it contains the page.
                        let covers = self
                            .storage
                            .get(set, way)
                            .is_some_and(|e| e.map.contains(pos));
                        if covers {
                            self.storage.remove(set, way);
                        }
                    }
                }
            }
        }
    }
}

/// A broken structural invariant of a [`MixTlb`], reported by
/// [`MixTlb::check_invariants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant broke (a short stable identifier:
    /// `"representation"`, `"empty-entry"`, `"extent"`,
    /// `"mirror-conflict"`, `"unmerged-duplicate"`).
    pub rule: &'static str,
    /// Human-readable description with entry coordinates.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MixTlb invariant '{}' violated: {}", self.rule, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

/// Structural invariant checkers (debug-mode validation).
///
/// These walk the whole array — O(entries²) in the worst case — so they are
/// meant for tests and the model checker, not for per-operation
/// `debug_assert!`s on the hot path.
impl MixTlb {
    /// Checks the *safety* invariants of the array. These must hold at
    /// every point of every execution, including mid-protocol states with
    /// transient blind-mirror duplicates (paper Sec. 4.3, Fig. 8):
    ///
    /// 1. **Representation**: every entry's map matches the configured
    ///    [`CoalesceKind`] (bitmap entries in L1 arrays, ranges in L2), is
    ///    non-empty, and stays within the bundle extent.
    /// 2. **Mirror coherence**: no two entries — within a set or across
    ///    sets — that a single lookup could both serve (same size, same
    ///    bundle, ASID-visible to a common address space, overlapping
    ///    coalesced positions) disagree on the physical anchor or the
    ///    permissions. A violation means some probed set would return a
    ///    *different translation* than another for the same access — the
    ///    stale-mirror failure mode a partial shootdown sweep leaves
    ///    behind (Sec. 5.1).
    ///
    /// Exact same-anchor duplicates are legal here (blind mirroring
    /// creates them transiently); [`MixTlb::check_invariants_strict`]
    /// additionally rejects those.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let entries = self.collect_entries();
        // 1. Per-entry representation and extent.
        for &(set, way, e) in &entries {
            let bundle_count = self.bundle_count(e.size);
            match (self.config.kind, e.map) {
                (CoalesceKind::Bitmap, Map::Bits(bits)) => {
                    let bits = bits.get();
                    if bits == 0 {
                        return Err(InvariantViolation {
                            rule: "empty-entry",
                            detail: format!("set {set} way {way}: bitmap entry with no positions"),
                        });
                    }
                    if bundle_count < 128 && bits >> bundle_count != 0 {
                        return Err(InvariantViolation {
                            rule: "extent",
                            detail: format!(
                                "set {set} way {way}: bitmap {bits:#x} exceeds bundle of {bundle_count}"
                            ),
                        });
                    }
                }
                (CoalesceKind::Length, Map::Range { start, len }) => {
                    if len == 0 {
                        return Err(InvariantViolation {
                            rule: "empty-entry",
                            detail: format!("set {set} way {way}: zero-length range entry"),
                        });
                    }
                    if start + len > bundle_count {
                        return Err(InvariantViolation {
                            rule: "extent",
                            detail: format!(
                                "set {set} way {way}: range [{start}, {}) exceeds bundle of {bundle_count}",
                                start + len
                            ),
                        });
                    }
                }
                (kind, map) => {
                    return Err(InvariantViolation {
                        rule: "representation",
                        detail: format!(
                            "set {set} way {way}: {map:?} entry in a {kind:?} array"
                        ),
                    });
                }
            }
        }
        // 2. Pairwise mirror coherence (covers within-set conflicting
        //    duplicates and cross-set stale mirrors alike).
        for (i, &(s1, w1, a)) in entries.iter().enumerate() {
            for &(s2, w2, b) in &entries[i + 1..] {
                if a.size != b.size
                    || a.bundle_base != b.bundle_base
                    || !asids_can_collide(a.asid, b.asid)
                {
                    continue;
                }
                let Some(pos) = map_overlap(&a.map, &b.map) else {
                    continue;
                };
                if a.anchor_pfn != b.anchor_pfn || a.perms != b.perms {
                    return Err(InvariantViolation {
                        rule: "mirror-conflict",
                        detail: format!(
                            "entries (set {s1}, way {w1}) and (set {s2}, way {w2}) both cover \
                             bundle {:#x} position {pos} ({:?}) but disagree: \
                             anchors {:#x} vs {:#x}, perms {:?} vs {:?} — a lookup would \
                             observe a stale translation",
                            a.bundle_base.raw(), a.size, a.anchor_pfn, b.anchor_pfn,
                            a.perms, b.perms
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// [`MixTlb::check_invariants`] plus the *quiescence* invariant: no
    /// two entries in the same set that duplicate elimination would merge
    /// (same tag, anchor and ASID with mergeable maps). Transient
    /// duplicates from blind mirroring are expected between operations;
    /// after every relevant set has been probed — e.g. at the end of a
    /// shootdown protocol's validation phase — none may remain.
    pub fn check_invariants_strict(&self) -> Result<(), InvariantViolation> {
        self.check_invariants()?;
        let entries = self.collect_entries();
        for (i, &(s1, w1, a)) in entries.iter().enumerate() {
            for &(s2, w2, b) in &entries[i + 1..] {
                if s1 != s2
                    || a.size != b.size
                    || a.bundle_base != b.bundle_base
                    || a.anchor_pfn != b.anchor_pfn
                    || a.asid != b.asid
                {
                    continue;
                }
                // Mergeable representations are duplicates; disjoint length
                // ranges are distinct fragments and may stay.
                let mut merged = a.map;
                if merged.merge(&b.map) {
                    return Err(InvariantViolation {
                        rule: "unmerged-duplicate",
                        detail: format!(
                            "set {s1} ways {w1}/{w2}: duplicate entries for bundle {:#x} \
                             ({:?}) survived a probe",
                            a.bundle_base.raw(), a.size
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Every entry, rendered, for tests that compare two arrays.
    #[cfg(test)]
    fn collect_entries_debug(&self) -> Vec<String> {
        self.collect_entries().iter().map(|e| format!("{e:?}")).collect()
    }

    fn collect_entries(&self) -> Vec<(usize, usize, MixEntry)> {
        let mut out = Vec::new();
        for set in 0..self.config.sets {
            for way in 0..self.storage.ways() {
                if let Some(e) = self.storage.get(set, way) {
                    out.push((set, way, *e));
                }
            }
        }
        out
    }

    /// **Test-only seeded bug** for the model checker's self-test: an
    /// invalidation that sweeps *only the probed set*, as a conventional
    /// TLB would — forgetting that MIX superpage entries are mirrored into
    /// every set (Sec. 5.1). After a remap, the unswept sets keep serving
    /// the old frame; [`MixTlb::check_invariants`] reports the
    /// mirror-conflict and the bounded explorer finds the interleavings
    /// where a core consumes the stale translation. Never call this from
    /// production code (the workspace lint's fixture tests keep it out).
    #[doc(hidden)]
    pub fn buggy_invalidate_probed_set_only(&mut self, vpn: Vpn, size: PageSize) {
        self.stats.invalidations += 1;
        let base = self.bundle_base(vpn, size);
        let pos = self.pos_of(vpn, size);
        let set = self.set_of(vpn); // BUG: superpage entries live in *all* sets
        for way in self
            .storage
            .find_all(set, |e| e.tag_matches(size, base) && e.asid.matches(Asid::UNTAGGED))
        {
            let remove = {
                let Some(e) = self.storage.get_mut(set, way) else { continue };
                match &mut e.map {
                    Map::Bits(bits) => {
                        *bits = Bits::new(bits.get() & !(1u128 << pos));
                        bits.get() == 0
                    }
                    Map::Range { .. } => e.map.contains(pos),
                }
            };
            if remove {
                self.storage.remove(set, way);
            }
        }
    }
}

/// Could a single lookup observe entries with these two ASID tags? True
/// when the tags are equal or either is global ([`Asid::UNTAGGED`] entries
/// are visible to every space).
fn asids_can_collide(a: Asid, b: Asid) -> bool {
    a == b || a.is_untagged() || b.is_untagged()
}

/// First coalesced position present in both maps, if any.
fn map_overlap(a: &Map, b: &Map) -> Option<u32> {
    match (*a, *b) {
        (Map::Bits(x), Map::Bits(y)) => {
            let both = x.get() & y.get();
            (both != 0).then(|| both.trailing_zeros())
        }
        (Map::Range { start: s1, len: l1 }, Map::Range { start: s2, len: l2 }) => {
            let start = s1.max(s2);
            let end = (s1 + l1).min(s2 + l2);
            (start < end).then_some(start)
        }
        // Mixed representations cannot coexist in a well-formed array (the
        // representation check rejects them first); conservatively scan.
        (x, y) => (0..128).find(|&p| x.contains(p) && y.contains(p)),
    }
}

impl TlbDevice for MixTlb {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        self.lookup_tagged(Asid::UNTAGGED, vpn, kind)
    }

    fn lookup_asid(&mut self, asid: Asid, vpn: Vpn, kind: AccessKind, _pc: u64) -> Lookup {
        self.lookup_tagged(asid, vpn, kind)
    }

    fn lookup_batch(
        &mut self,
        asid: Asid,
        batch: &[crate::api::BatchAccess],
        out: &mut Vec<Lookup>,
    ) -> usize {
        // Straight to the tagged probe body: one dynamic dispatch covers
        // the whole chunk, and each probe runs the mask-driven SoA loop.
        let mut consumed = 0usize;
        for access in batch {
            let result = self.lookup_tagged(asid, access.vpn, access.kind);
            let missed = !result.is_hit();
            out.push(result);
            consumed += 1;
            if missed {
                break;
            }
        }
        consumed
    }

    fn fill(&mut self, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        let c = self.line_candidates(requested, line);
        self.fill_candidates(Asid::UNTAGGED, vpn, requested, &c);
    }

    fn fill_asid(&mut self, asid: Asid, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        let c = self.line_candidates(requested, line);
        self.fill_candidates(asid, vpn, requested, &c);
    }

    fn fill_run_asid(&mut self, asid: Asid, vpn: Vpn, requested: &Translation, run: &CoalescedRun) {
        let c = self.run_candidates(requested, run);
        self.fill_candidates(asid, vpn, requested, &c);
    }

    fn peek_run(&self, vpn: Vpn) -> Option<CoalescedRun> {
        self.peek_tagged(Asid::UNTAGGED, vpn)
    }

    fn peek_run_asid(&self, asid: Asid, vpn: Vpn) -> Option<CoalescedRun> {
        self.peek_tagged(asid, vpn)
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        self.invalidate_tagged(Asid::UNTAGGED, vpn, size);
    }

    fn invalidate_asid(&mut self, asid: Asid, vpn: Vpn, size: PageSize) {
        self.invalidate_tagged(asid, vpn, size);
    }

    fn flush(&mut self) {
        self.storage.clear();
    }

    fn flush_asid(&mut self, asid: Asid) {
        if asid.is_untagged() {
            self.flush();
            return;
        }
        for set in 0..self.config.sets {
            for way in self.storage.find_all(set, |e| e.asid == asid) {
                self.storage.remove(set, way);
            }
        }
    }

    fn supports_asids(&self) -> bool {
        true
    }

    fn invalidate_sets(&self, _vpn: Vpn, size: PageSize) -> u64 {
        // Superpages are mirrored: their entries may sit in *every* set, so
        // a shootdown must sweep the whole array (Sec. 5.1). Small pages
        // index a single set (after small-page coalescing groups regions).
        if size.is_superpage() {
            self.config.sets as u64
        } else {
            1
        }
    }

    fn capacity(&self) -> usize {
        self.config.total_entries()
    }

    fn stats(&self) -> TlbStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw() -> Permissions {
        Permissions::rw_user()
    }

    fn sp2m(vpn: u64, pfn: u64) -> Translation {
        Translation::new(Vpn::new(vpn), Pfn::new(pfn), PageSize::Size2M, rw())
    }

    fn t4k(vpn: u64, pfn: u64) -> Translation {
        Translation::new(Vpn::new(vpn), Pfn::new(pfn), PageSize::Size4K, rw())
    }

    fn hit_pfn(tlb: &mut MixTlb, vpn: u64) -> Option<u64> {
        match tlb.lookup(Vpn::new(vpn), AccessKind::Load) {
            Lookup::Hit { translation, .. } => {
                translation.frame_for(Vpn::new(vpn)).map(|p| p.raw())
            }
            Lookup::Miss => None,
        }
    }

    #[test]
    fn paper_figure_2_scenario() {
        // 2-set MIX TLB; contiguous superpages B (0x400→0x000) and
        // C (0x600→0x200) coalesce; A is a small page.
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let a = t4k(0x0, 0x400);
        tlb.fill(a.vpn, &a, &[a]);
        let b = sp2m(0x400, 0x000);
        let c = sp2m(0x600, 0x200);
        tlb.fill(b.vpn, &b, &[b, c]);
        // B's even 4 KB regions route to set 0, odd to set 1 — all hit.
        assert_eq!(hit_pfn(&mut tlb, 0x400), Some(0x000));
        assert_eq!(hit_pfn(&mut tlb, 0x401), Some(0x001));
        assert_eq!(hit_pfn(&mut tlb, 0x473), Some(0x073));
        // C hits through the same coalesced entry.
        assert_eq!(hit_pfn(&mut tlb, 0x600), Some(0x200));
        assert_eq!(hit_pfn(&mut tlb, 0x7FF), Some(0x3FF));
        // A still hits: MIX TLBs cache all sizes concurrently.
        assert_eq!(hit_pfn(&mut tlb, 0x0), Some(0x400));
        // One fill for B+C, mirrored into both sets.
        let s = tlb.stats();
        assert_eq!(s.fills, 2);
        assert_eq!(s.entries_written, 1 + 2);
    }

    #[test]
    fn lookup_probes_exactly_one_set() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(16, 4));
        let b = sp2m(0x400, 0x2000);
        tlb.fill(b.vpn, &b, &[b]);
        tlb.lookup(Vpn::new(0x400), AccessKind::Load);
        let s = tlb.stats();
        assert_eq!(s.sets_probed, 1);
        assert_eq!(s.entries_read, 4);
    }

    #[test]
    fn superpage_mirrors_into_every_set() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(16, 4));
        let b = sp2m(0x400, 0x2000);
        tlb.fill(b.vpn, &b, &[b]);
        assert_eq!(tlb.occupancy(), 16);
        assert_eq!(tlb.stats().entries_written, 16);
        // Every 4 KB region of B hits, whichever set it routes to.
        for off in [0u64, 1, 7, 100, 255, 511] {
            assert_eq!(hit_pfn(&mut tlb, 0x400 + off), Some(0x2000 + off));
        }
    }

    #[test]
    fn coalescing_counteracts_mirroring() {
        // 16 contiguous superpages fill a 16-set TLB with ONE logical
        // entry (16 mirrors) — net capacity of 16 superpages in 16 slots,
        // with 3 ways left free everywhere.
        let mut tlb = MixTlb::new(MixTlbConfig::l1(16, 4));
        let line1: Vec<Translation> =
            (0..8).map(|i| sp2m(0x4000 + i * 512, 0x10_0000 + i * 512)).collect();
        let line2: Vec<Translation> =
            (8..16).map(|i| sp2m(0x4000 + i * 512, 0x10_0000 + i * 512)).collect();
        tlb.fill(line1[0].vpn, &line1[0], &line1);
        // The second fill merges in its probed set and blindly mirrors
        // elsewhere, transiently duplicating until those sets are probed.
        tlb.fill(line2[0].vpn, &line2[0], &line2); // extension beyond one cache line
        // Touch every set (offset i routes superpage i's region to set i):
        // all 16 superpages hit and duplicates get merged on the way.
        for i in 0..16u64 {
            let vpn = 0x4000 + i * 512 + i;
            assert_eq!(hit_pfn(&mut tlb, vpn), Some(0x10_0000 + i * 512 + i));
        }
        assert_eq!(tlb.occupancy(), 16);
        assert!(tlb.stats().coalesce_merges > 0);
    }

    #[test]
    fn alignment_restriction_frames_bundles() {
        // Bundle = 2 superpages → only superpages in the same aligned pair
        // coalesce. 0x600 and 0x800 are contiguous but straddle a bundle
        // boundary (pairs are [0x400,0x800) and [0x800,0xC00)).
        let mut tlb = MixTlb::new(MixTlbConfig {
            super_bundle: 2,
            ..MixTlbConfig::l1(2, 4)
        });
        let x = sp2m(0x600, 0x1200);
        let y = sp2m(0x800, 0x1400);
        tlb.fill(x.vpn, &x, &[x, y]);
        // x cached; y NOT coalesced (different bundle) and not filled.
        assert_eq!(hit_pfn(&mut tlb, 0x600), Some(0x1200));
        assert_eq!(hit_pfn(&mut tlb, 0x800), None);
    }

    #[test]
    fn non_contiguous_superpages_do_not_coalesce() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 4));
        let b = sp2m(0x400, 0x2000);
        let c_far = sp2m(0x600, 0x9000); // virtually adjacent, physically not
        tlb.fill(b.vpn, &b, &[b, c_far]);
        assert_eq!(hit_pfn(&mut tlb, 0x400), Some(0x2000));
        assert_eq!(hit_pfn(&mut tlb, 0x600), None);
        // A separate fill caches C as its own entry under the same bundle
        // tag but different anchor.
        tlb.fill(c_far.vpn, &c_far, &[c_far]);
        assert_eq!(hit_pfn(&mut tlb, 0x600), Some(0x9000));
    }

    #[test]
    fn different_permissions_do_not_coalesce() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 4));
        let b = sp2m(0x400, 0x2000);
        let mut c = sp2m(0x600, 0x2200);
        c.perms = Permissions::ro_user();
        tlb.fill(b.vpn, &b, &[b, c]);
        assert_eq!(hit_pfn(&mut tlb, 0x400), Some(0x2000));
        assert_eq!(hit_pfn(&mut tlb, 0x600), None);
    }

    #[test]
    fn unaccessed_translations_are_not_coalesced() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 4));
        let b = sp2m(0x400, 0x2000);
        let mut c = sp2m(0x600, 0x2200);
        c.accessed = false;
        tlb.fill(b.vpn, &b, &[b, c]);
        assert_eq!(hit_pfn(&mut tlb, 0x600), None);
    }

    #[test]
    fn bitmap_entries_support_holes() {
        // Bundle of 4; positions 0 and 2 contiguous-with-anchor, 1 absent.
        let mut tlb = MixTlb::new(MixTlbConfig {
            super_bundle: 4,
            ..MixTlbConfig::l1(2, 4)
        });
        let p0 = sp2m(0x1000, 0x20000);
        let p2 = sp2m(0x1400, 0x20400);
        tlb.fill(p0.vpn, &p0, &[p0, p2]);
        assert_eq!(hit_pfn(&mut tlb, 0x1000), Some(0x20000));
        assert_eq!(hit_pfn(&mut tlb, 0x1200), None); // the hole
        assert_eq!(hit_pfn(&mut tlb, 0x1400), Some(0x20400));
    }

    #[test]
    fn length_entries_keep_only_the_run_around_the_request() {
        let mut tlb = MixTlb::new(MixTlbConfig {
            super_bundle: 4,
            ..MixTlbConfig::l2(2, 4)
        });
        let p0 = sp2m(0x1000, 0x20000);
        let p2 = sp2m(0x1400, 0x20400);
        let p3 = sp2m(0x1600, 0x20600);
        // Request p2: run {2,3}; the disjoint p0 is not representable.
        tlb.fill(p2.vpn, &p2, &[p0, p2, p3]);
        assert_eq!(hit_pfn(&mut tlb, 0x1400), Some(0x20400));
        assert_eq!(hit_pfn(&mut tlb, 0x1600), Some(0x20600));
        assert_eq!(hit_pfn(&mut tlb, 0x1000), None);
    }

    #[test]
    fn paper_figure_8_duplicates_are_merged_on_probe() {
        // 2-set, 2-way. B-C coalesced; then D and E (small, set 1) evict
        // set 1's mirror; a B1 miss refills, duplicating in set 0; the next
        // set-0 probe merges duplicates.
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let a = t4k(0x0, 0x400);
        tlb.fill(a.vpn, &a, &[a]);
        let b = sp2m(0x400, 0x000);
        let c = sp2m(0x600, 0x200);
        tlb.fill(b.vpn, &b, &[b, c]);
        // D, E: small pages mapping to set 1 (odd VPNs).
        let d = t4k(0x801, 0x900);
        let e = t4k(0x803, 0x901);
        tlb.fill(d.vpn, &d, &[d]);
        tlb.fill(e.vpn, &e, &[e]);
        // Set 1's B-C mirror is gone: B1 (odd region) misses.
        assert_eq!(hit_pfn(&mut tlb, 0x401), None);
        // Refill after the B1 miss (probed set = 1): set 1 merges/inserts,
        // set 0 is mirrored *blindly*, creating a duplicate (evicting A).
        tlb.fill(Vpn::new(0x401), &b, &[b, c]);
        assert_eq!(hit_pfn(&mut tlb, 0x401), Some(0x001));
        // Probing set 0 merges the duplicate copies.
        assert_eq!(hit_pfn(&mut tlb, 0x400), Some(0x000));
        assert!(tlb.stats().dup_merges >= 1);
        let dups = tlb
            .storage
            .find_all(0, |en| en.tag_matches(PageSize::Size2M, Vpn::new(0x400)));
        assert_eq!(dups.len(), 1, "duplicates must be eliminated");
    }

    #[test]
    fn a_sweep_that_merged_repeats_on_the_next_probe() {
        // Set 0 ends up holding three fragments of one bundle and anchor,
        // in way order [0,2), [3,4), [2,3). The first probe's sweep merges
        // [2,3) into [0,2); only then is [3,4) adjacent, and the second
        // probe's sweep merges it. A third probe finds nothing to do.
        let mut tlb = MixTlb::new(MixTlbConfig {
            super_bundle: 4,
            fill_merge: FillMerge::ProbedSetOnly,
            mirror_policy: MirrorPolicy::Evicting,
            ..MixTlbConfig::l2(2, 4)
        });
        let p: Vec<Translation> = (0..4).map(|i| sp2m(0x1000 + i * 512, 0x20000 + i * 512)).collect();
        tlb.fill(p[0].vpn, &p[0], &[p[0], p[1]]);
        tlb.fill(p[3].vpn.add_4k(1), &p[3], &[p[3]]);
        tlb.fill(p[2].vpn.add_4k(1), &p[2], &[p[2]]);
        assert_eq!(tlb.storage.set_occupancy(0), 3);
        for expected in [1, 2, 2] {
            assert_eq!(hit_pfn(&mut tlb, 0x1000), Some(0x20000));
            assert_eq!(tlb.stats().dup_merges, expected);
        }
        assert_eq!(tlb.storage.set_occupancy(0), 1);
        assert_eq!(hit_pfn(&mut tlb, 0x1600), Some(0x20600));
    }

    #[test]
    fn replacement_is_independent_per_set() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 1));
        let b = sp2m(0x400, 0x2000);
        tlb.fill(b.vpn, &b, &[b]);
        // A small page in set 1 evicts only that mirror.
        let d = t4k(0x801, 0x900);
        tlb.fill(d.vpn, &d, &[d]);
        assert_eq!(hit_pfn(&mut tlb, 0x400), Some(0x2000)); // set 0 intact
        assert_eq!(hit_pfn(&mut tlb, 0x801), Some(0x900));
        assert_eq!(hit_pfn(&mut tlb, 0x403), None); // set 1 mirror gone
    }

    #[test]
    fn bitmap_invalidation_clears_single_superpages() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let b = sp2m(0x400, 0x000);
        let c = sp2m(0x600, 0x200);
        tlb.fill(b.vpn, &b, &[b, c]);
        tlb.invalidate(Vpn::new(0x400), PageSize::Size2M);
        // B gone from every set; C remains cached (Sec. 4.4).
        assert_eq!(hit_pfn(&mut tlb, 0x400), None);
        assert_eq!(hit_pfn(&mut tlb, 0x401), None);
        assert_eq!(hit_pfn(&mut tlb, 0x600), Some(0x200));
    }

    #[test]
    fn length_invalidation_drops_the_bundle() {
        let mut tlb = MixTlb::new(MixTlbConfig::l2(2, 2));
        let b = sp2m(0x400, 0x000);
        let c = sp2m(0x600, 0x200);
        tlb.fill(b.vpn, &b, &[b, c]);
        tlb.invalidate(Vpn::new(0x400), PageSize::Size2M);
        assert_eq!(hit_pfn(&mut tlb, 0x400), None);
        assert_eq!(hit_pfn(&mut tlb, 0x600), None);
    }

    #[test]
    fn small_page_invalidation() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let a = t4k(0x5, 0x50);
        tlb.fill(a.vpn, &a, &[a]);
        tlb.invalidate(Vpn::new(0x5), PageSize::Size4K);
        assert_eq!(hit_pfn(&mut tlb, 0x5), None);
    }

    #[test]
    fn dirty_bit_is_and_of_bundle() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let mut b = sp2m(0x400, 0x000);
        b.dirty = true;
        let c = sp2m(0x600, 0x200); // clean
        tlb.fill(b.vpn, &b, &[b, c]);
        // Store to B: entry dirty bit is clear (AND), so a micro-op fires —
        // and keeps firing, because one store cannot dirty the whole bundle.
        for _ in 0..2 {
            match tlb.lookup(Vpn::new(0x400), AccessKind::Store) {
                Lookup::Hit { dirty_microop, .. } => assert!(dirty_microop),
                Lookup::Miss => panic!("expected hit"),
            }
        }
        assert_eq!(tlb.stats().dirty_microops, 2);
    }

    #[test]
    fn match_only_dirty_policy_blocks_mixed_coalescing() {
        // B dirty, C clean: under MatchOnly they do not coalesce (the
        // paper evaluated and rejected this for losing coalescing).
        let mut tlb = MixTlb::new(MixTlbConfig {
            dirty_policy: DirtyPolicy::MatchOnly,
            ..MixTlbConfig::l1(2, 2)
        });
        let mut b = sp2m(0x400, 0x000);
        b.dirty = true;
        let c = sp2m(0x600, 0x200);
        tlb.fill(b.vpn, &b, &[b, c]);
        assert_eq!(hit_pfn(&mut tlb, 0x400), Some(0x000));
        assert_eq!(hit_pfn(&mut tlb, 0x600), None, "mixed dirty must not coalesce");
        // Same-dirty pairs still coalesce.
        let mut tlb2 = MixTlb::new(MixTlbConfig {
            dirty_policy: DirtyPolicy::MatchOnly,
            ..MixTlbConfig::l1(2, 2)
        });
        tlb2.fill(b.vpn, &b, &[b, { let mut c2 = c; c2.dirty = true; c2 }]);
        assert_eq!(hit_pfn(&mut tlb2, 0x600), Some(0x200));
    }

    #[test]
    fn all_dirty_bundle_needs_no_microops() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let mut b = sp2m(0x400, 0x000);
        b.dirty = true;
        let mut c = sp2m(0x600, 0x200);
        c.dirty = true;
        tlb.fill(b.vpn, &b, &[b, c]);
        match tlb.lookup(Vpn::new(0x400), AccessKind::Store) {
            Lookup::Hit { dirty_microop, .. } => assert!(!dirty_microop),
            Lookup::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn singleton_entries_set_dirty_after_microop() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let a = t4k(0x5, 0x50);
        tlb.fill(a.vpn, &a, &[a]);
        match tlb.lookup(Vpn::new(0x5), AccessKind::Store) {
            Lookup::Hit { dirty_microop, .. } => assert!(dirty_microop),
            Lookup::Miss => panic!("expected hit"),
        }
        match tlb.lookup(Vpn::new(0x5), AccessKind::Store) {
            Lookup::Hit { dirty_microop, .. } => assert!(!dirty_microop),
            Lookup::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn colt_coalesces_small_pages() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(4, 2).with_small_coalescing(4));
        let line: Vec<Translation> = (0..4).map(|i| t4k(0x100 + i, 0x900 + i)).collect();
        tlb.fill(line[0].vpn, &line[0], &line);
        for i in 0..4u64 {
            assert_eq!(hit_pfn(&mut tlb, 0x100 + i), Some(0x900 + i));
        }
        // One entry, one set: aligned groups of 4 small pages share a set.
        assert_eq!(tlb.occupancy(), 1);
        // Superpages still work and still mirror into all sets.
        let b = sp2m(0x400, 0x2000);
        tlb.fill(b.vpn, &b, &[b]);
        assert_eq!(hit_pfn(&mut tlb, 0x4F0), Some(0x20F0));
        assert_eq!(tlb.occupancy(), 1 + 4);
    }

    #[test]
    fn one_gigabyte_pages_are_supported() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(16, 4));
        let g0 = Translation::new(
            Vpn::new(0),
            Pfn::new(2 << 18),
            PageSize::Size1G,
            rw(),
        );
        let g1 = Translation::new(
            Vpn::new(1 << 18),
            Pfn::new(3 << 18),
            PageSize::Size1G,
            rw(),
        );
        tlb.fill(g0.vpn, &g0, &[g0, g1]);
        assert_eq!(hit_pfn(&mut tlb, 123_456), Some((2 << 18) + 123_456));
        assert_eq!(
            hit_pfn(&mut tlb, (1 << 18) + 77),
            Some((3 << 18) + 77)
        );
        assert_eq!(tlb.occupancy(), 16);
    }

    #[test]
    fn remap_after_shootdown_serves_the_new_frame() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let b = sp2m(0x400, 0x2000);
        tlb.fill(b.vpn, &b, &[b]);
        // The OS moved B (e.g. compaction): x86 requires a shootdown
        // before the new mapping is used. Without it, same-bundle entries
        // with different anchors may coexist (legitimate for piecewise
        // bundles) and stale hits would be architecturally undefined.
        tlb.invalidate(Vpn::new(0x400), PageSize::Size2M);
        let b2 = sp2m(0x400, 0x8000);
        tlb.fill(b2.vpn, &b2, &[b2]);
        assert_eq!(hit_pfn(&mut tlb, 0x400), Some(0x8000));
    }

    #[test]
    fn piecewise_bundles_hold_fragments_with_different_anchors() {
        // Positions 0-1 of a bundle back to one physical run, positions
        // 2-3 to another (the normal nested-translation situation): both
        // fragments coexist and both hit.
        let mut tlb = MixTlb::new(MixTlbConfig {
            super_bundle: 4,
            ..MixTlbConfig::l1(2, 4)
        });
        let p0 = sp2m(0x1000, 0x20000);
        let p1 = sp2m(0x1200, 0x20200);
        let p2 = sp2m(0x1400, 0x90000);
        let p3 = sp2m(0x1600, 0x90200);
        tlb.fill(p0.vpn, &p0, &[p0, p1]);
        tlb.fill(p2.vpn, &p2, &[p2, p3]);
        assert_eq!(hit_pfn(&mut tlb, 0x1000), Some(0x20000));
        assert_eq!(hit_pfn(&mut tlb, 0x1200), Some(0x20200));
        assert_eq!(hit_pfn(&mut tlb, 0x1400), Some(0x90000));
        assert_eq!(hit_pfn(&mut tlb, 0x1600), Some(0x90200));
    }

    #[test]
    fn flush_empties_the_array() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(4, 2));
        let b = sp2m(0x400, 0x2000);
        tlb.fill(b.vpn, &b, &[b]);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert_eq!(hit_pfn(&mut tlb, 0x400), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_is_rejected() {
        let _ = MixTlb::new(MixTlbConfig {
            sets: 3,
            ..MixTlbConfig::l1(2, 2)
        });
    }

    #[test]
    fn asid_tagged_entries_are_isolated_per_space() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(4, 2));
        let (p1, p2) = (Asid::new(1), Asid::new(2));
        let b = sp2m(0x400, 0x2000);
        tlb.fill_asid(p1, b.vpn, &b, &[b]);
        // Visible to its own space, invisible to the other.
        assert!(tlb
            .lookup_asid(p1, Vpn::new(0x400), AccessKind::Load, 0)
            .is_hit());
        assert!(!tlb
            .lookup_asid(p2, Vpn::new(0x400), AccessKind::Load, 0)
            .is_hit());
        // Same VPN in the other space caches independently.
        let b2 = sp2m(0x400, 0x9000);
        tlb.fill_asid(p2, b2.vpn, &b2, &[b2]);
        match tlb.lookup_asid(p2, Vpn::new(0x400), AccessKind::Load, 0) {
            Lookup::Hit { translation, .. } => assert_eq!(translation.pfn.raw(), 0x9000),
            Lookup::Miss => panic!("expected hit"),
        }
        match tlb.lookup_asid(p1, Vpn::new(0x400), AccessKind::Load, 0) {
            Lookup::Hit { translation, .. } => assert_eq!(translation.pfn.raw(), 0x2000),
            Lookup::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn flush_asid_is_selective() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(4, 2));
        let (p1, p2) = (Asid::new(1), Asid::new(2));
        let a = t4k(0x5, 0x50);
        let b = t4k(0x6, 0x60);
        tlb.fill_asid(p1, a.vpn, &a, &[a]);
        tlb.fill_asid(p2, b.vpn, &b, &[b]);
        tlb.flush_asid(p1);
        assert!(!tlb.lookup_asid(p1, a.vpn, AccessKind::Load, 0).is_hit());
        assert!(tlb.lookup_asid(p2, b.vpn, AccessKind::Load, 0).is_hit());
        // Untagged flush_asid degenerates to a full flush.
        tlb.flush_asid(Asid::UNTAGGED);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn peek_run_asid_only_sees_the_spaces_own_run() {
        // Space 1 fills a 4-superpage run; space 2 then fills one page of
        // the same bundle. Each space must see its own run: the first
        // same-bundle entry of the probed set belongs to space 1.
        let mut tlb = MixTlb::new(MixTlbConfig::l2(16, 4));
        let (p1, p2) = (Asid::new(1), Asid::new(2));
        let run: Vec<Translation> =
            (0..4).map(|i| sp2m(0x4000 + i * 512, 0x10_0000 + i * 512)).collect();
        tlb.fill_asid(p1, run[0].vpn, &run[0], &run);
        tlb.fill_asid(p2, run[0].vpn, &run[0], &[run[0]]);
        let vpn = Vpn::new(0x4000);
        assert_eq!(tlb.peek_run_asid(p1, vpn).map(|r| r.len), Some(4));
        assert_eq!(tlb.peek_run_asid(p2, vpn).map(|r| r.len), Some(1));
        assert_eq!(tlb.peek_run_asid(Asid::new(3), vpn), None);
        // The untagged peek sees every space, as an untagged lookup does.
        assert_eq!(tlb.peek_run(vpn).map(|r| r.len), Some(4));
    }

    #[test]
    fn run_fills_match_expanded_line_fills() {
        // Absorbing a handed-down run must install exactly what filling
        // with the run's expanded translations would, including runs that
        // start before or reach past the L1 bundle and runs whose physical
        // offset disagrees with the requested translation.
        let l1 = MixTlbConfig::l1(4, 2);
        let l2_run = |start: u64, len: u32, pfn: u64, dirty: bool| CoalescedRun {
            first: Translation { dirty, ..sp2m(start, pfn) },
            len,
        };
        let cases = [
            (l2_run(0x4000, 4, 0x10_0000, false), sp2m(0x4400, 0x10_0400)),
            (l2_run(0x3800, 8, 0x0F_F800, true), sp2m(0x4200, 0x10_0200)),
            (l2_run(0x4600, 6, 0x10_0600, false), sp2m(0x4600, 0x10_0600)),
            (l2_run(0x4000, 4, 0x20_0000, false), sp2m(0x4400, 0x10_0400)),
            (l2_run(0x4000, 2, 0x10_0000, true), sp2m(0x4200, 0x10_0200)),
        ];
        for kind in [CoalesceKind::Bitmap, CoalesceKind::Length] {
            for (run, requested) in cases {
                let config = MixTlbConfig { kind, ..l1.clone() };
                let mut by_run = MixTlb::new(config.clone());
                let mut by_line = MixTlb::new(config);
                for requested in [requested, Translation { dirty: true, ..requested }] {
                    by_run.fill_run_asid(Asid::UNTAGGED, requested.vpn, &requested, &run);
                    by_line.fill(requested.vpn, &requested, &run.translations());
                }
                assert_eq!(by_run.stats(), by_line.stats(), "{kind:?} {run:?}");
                assert_eq!(by_run.collect_entries_debug(), by_line.collect_entries_debug());
            }
        }
    }

    #[test]
    fn invalidate_asid_only_touches_visible_entries() {
        let mut tlb = MixTlb::new(MixTlbConfig::l1(4, 2));
        let (p1, p2) = (Asid::new(1), Asid::new(2));
        let b = sp2m(0x400, 0x2000);
        let b2 = sp2m(0x400, 0x9000);
        tlb.fill_asid(p1, b.vpn, &b, &[b]);
        tlb.fill_asid(p2, b2.vpn, &b2, &[b2]);
        tlb.invalidate_asid(p1, Vpn::new(0x400), PageSize::Size2M);
        assert!(!tlb.lookup_asid(p1, Vpn::new(0x400), AccessKind::Load, 0).is_hit());
        assert!(tlb.lookup_asid(p2, Vpn::new(0x400), AccessKind::Load, 0).is_hit());
    }

    #[test]
    fn untagged_api_behaves_as_before() {
        // The legacy entry points must ignore ASIDs entirely.
        let mut tlb = MixTlb::new(MixTlbConfig::l1(2, 2));
        let b = sp2m(0x400, 0x2000);
        tlb.fill(b.vpn, &b, &[b]);
        assert!(tlb.lookup_asid(Asid::new(9), Vpn::new(0x400), AccessKind::Load, 0).is_hit());
        assert!(tlb.supports_asids());
    }

    #[test]
    fn shootdown_cost_reflects_mirroring() {
        let tlb = MixTlb::new(MixTlbConfig::l1(16, 4));
        // A superpage shootdown must sweep every set; a 4 KB one probes one.
        assert_eq!(tlb.invalidate_sets(Vpn::new(0x400), PageSize::Size2M), 16);
        assert_eq!(tlb.invalidate_sets(Vpn::new(0x5), PageSize::Size4K), 1);
        assert_eq!(tlb.capacity(), 64);
    }

    #[test]
    fn entries_stay_at_48_bytes() {
        assert_eq!(std::mem::size_of::<Option<MixEntry>>(), 48);
        let bits = (1u128 << 127) | (1 << 64) | 5;
        assert_eq!(Bits::new(bits).get(), bits);
    }

    #[test]
    fn map_range_merge_semantics() {
        let mut r = Map::Range { start: 2, len: 2 };
        assert!(r.merge(&Map::Range { start: 4, len: 1 })); // adjacent
        assert_eq!(r, Map::Range { start: 2, len: 3 });
        assert!(r.merge(&Map::Range { start: 0, len: 3 })); // overlapping
        assert_eq!(r, Map::Range { start: 0, len: 5 });
        assert!(!r.merge(&Map::Range { start: 7, len: 1 })); // disjoint
        let mut b = Map::Bits(Bits::new(0b101));
        assert!(b.merge(&Map::Bits(Bits::new(0b010))));
        assert_eq!(b, Map::Bits(Bits::new(0b111)));
        assert!(!b.merge(&Map::Range { start: 0, len: 1 }));
    }
}
