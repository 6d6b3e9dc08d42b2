//! A Chase–Lev work-stealing deque of work-item ids, in safe Rust.
//!
//! The classic Chase–Lev deque stores arbitrary values in a growable
//! circular buffer, which forces `unsafe` reclamation. This workspace
//! forbids `unsafe`, and the replay engines never need it: their work
//! items are small integers (trace-chunk ids, address-space ids), so
//! slots are plain `AtomicU64`s in a fixed array and no reclamation ever
//! happens. Both replay drivers size each deque for the whole run, and
//! [`ChunkDeque::push`] reports a full deque rather than wrapping into a
//! slot the thief-side `top` has not yet passed. That tames the one
//! hazard that makes the textbook algorithm subtle. What remains is the
//! Chase–Lev protocol itself:
//!
//! * the **owner** pushes and pops at the *bottom* (LIFO, cache-warm),
//! * **thieves** steal at the *top* (FIFO, the oldest work), claiming an
//!   item by compare-exchanging `top` forward,
//! * the owner's pop of the *last* item races a thief for the same claim
//!   and resolves it through the same compare-exchange.
//!
//! Atomics come from the `mixtlb_check::sync` facade, so the model
//! checker can explore deque interleavings under the `model` feature;
//! in production they are plain `std` atomics. All operations use
//! acquire/release or stronger — the replay loops work at trace-chunk
//! granularity, so fence cost is irrelevant and the stronger orderings
//! keep the protocol auditable.

use mixtlb_check::sync::{AtomicU64, Ordering};

/// A fixed-capacity work-stealing deque of `u64` work-item ids.
///
/// One logical owner seeds and pops it; any number of thieves steal from
/// it. All methods take `&self` (the type is a pure atomic protocol), but
/// the accounting only makes sense under the one-owner discipline the
/// replay drivers follow.
#[derive(Debug)]
pub struct ChunkDeque {
    /// One past the owner-side end. Only the owner writes it (except the
    /// transient decrement/restore inside `pop`).
    bottom: AtomicU64,
    /// The thief-side end. Advanced only through compare-exchange claims.
    top: AtomicU64,
    /// Power-of-two slot array; slot `i & mask` holds item `i`.
    slots: Box<[AtomicU64]>,
    mask: u64,
}

impl ChunkDeque {
    /// A deque able to hold `capacity` items at once. The replay drivers
    /// size it for the whole run, so no slot position is ever reused.
    pub fn with_capacity(capacity: usize) -> ChunkDeque {
        let len = capacity.max(1).next_power_of_two();
        let slots: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        ChunkDeque {
            bottom: AtomicU64::new(0),
            top: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
            mask: len as u64 - 1,
        }
    }

    /// Number of items currently in the deque (racy under concurrency,
    /// exact while quiesced).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Acquire);
        let t = self.top.load(Ordering::Acquire);
        // `bottom` transiently sits one below `top` inside `pop` (and
        // wraps below zero when popping an empty deque at 0), so the
        // difference is signed.
        (b as i64).wrapping_sub(t as i64).max(0) as usize
    }

    /// `true` when no unclaimed items remain. Owners never push once
    /// workers run, so emptiness is stable: thieves only remove.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner-side push. Returns `false` when the deque is full (the
    /// drivers pre-size for the whole run, so a full deque is a caller
    /// bug they surface rather than spin on).
    pub fn push(&self, item: u64) -> bool {
        let b = self.bottom.load(Ordering::Acquire);
        let t = self.top.load(Ordering::Acquire);
        if b.wrapping_sub(t) >= self.slots.len() as u64 {
            return false;
        }
        self.slots[(b & self.mask) as usize].store(item, Ordering::Release);
        // A single-step RMW (rather than a store of `b + 1`) keeps every
        // update of `bottom` an indivisible read-modify-write, so the
        // owner's view can never be clobbered between a read and a
        // dependent write.
        self.bottom.fetch_add(1, Ordering::Release);
        true
    }

    /// Owner-side pop: the most recently pushed unclaimed item. `None`
    /// when the deque is empty (stable — see [`ChunkDeque::is_empty`]).
    pub fn pop(&self) -> Option<u64> {
        // Reserve slot `nb` by atomically decrementing `bottom` first,
        // then read the thief-side end. SeqCst on both gives the RMW/load
        // pair the single total order the Chase–Lev argument needs:
        // either a racing thief sees the decremented bottom and backs
        // off, or we see its advanced top and fall into the CAS
        // arbitration below. When the deque sat empty at position 0 the
        // decrement wraps `bottom` to `u64::MAX`, so every comparison
        // against `top` reinterprets the counters as signed.
        let nb = self.bottom.fetch_sub(1, Ordering::SeqCst).wrapping_sub(1);
        let t = self.top.load(Ordering::SeqCst);
        if (t as i64) > (nb as i64) {
            // Empty, or thieves drained everything while we were
            // deciding: undo the reservation.
            self.bottom.store(nb.wrapping_add(1), Ordering::SeqCst);
            return None;
        }
        // The owner is the only writer of slots, its pushes are
        // sequential, and `bottom` is currently `nb + 1` — so no push can
        // have lapped position `nb` and this read is the item for `nb`
        // whether or not we still win it below.
        let item = self.slots[(nb & self.mask) as usize].load(Ordering::Acquire);
        if (t as i64) == (nb as i64) {
            // Exactly one item left: arbitrate with any thief through the
            // same compare-exchange a steal uses.
            let won = self
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            // Either way the deque is now empty; restore bottom to match
            // the advanced top.
            self.bottom.store(nb.wrapping_add(1), Ordering::SeqCst);
            return won.then_some(item);
        }
        // More than one item remained: slot `nb` is exclusively ours.
        Some(item)
    }

    /// Thief-side steal: the oldest unclaimed item, or `None` when the
    /// deque is (stably) empty. Internally retries claims lost to other
    /// thieves or to the owner's last-item pop.
    pub fn steal(&self) -> Option<u64> {
        loop {
            let t = self.top.load(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::SeqCst);
            // Signed comparison: the owner's in-flight pop may have
            // wrapped `bottom` below zero (see [`ChunkDeque::pop`]).
            if (t as i64) >= (b as i64) {
                return None;
            }
            // While `top == t` the owner's push cannot have lapped slot
            // `t & mask` (push refuses to wrap past `top`), so this read
            // is the item for position `t`. If the slot *was* overwritten
            // meanwhile, `top` has moved and the claim below fails, and
            // the possibly-stale value is discarded.
            let item = self.slots[(t & self.mask) as usize].load(Ordering::Acquire);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(item);
            }
            // Lost the claim; some other party took position `t`. Retry
            // from the new top.
        }
    }
}

/// One deque per worker, seeded with the items `0..items` round-robin:
/// item `i` goes to deque `i % workers`, pushed in reverse so each owner
/// pops its own items in ascending order while thieves take the tail.
pub(crate) fn seed_round_robin(workers: usize, items: u64) -> Vec<ChunkDeque> {
    let per_deque = (items as usize).div_ceil(workers).max(1);
    let deques: Vec<ChunkDeque> = (0..workers)
        .map(|_| ChunkDeque::with_capacity(per_deque))
        .collect();
    for item in (0..items).rev() {
        let seeded = deques[(item as usize) % workers].push(item);
        assert!(seeded, "deques are sized for every item");
    }
    deques
}

/// Worker `id`'s next item: the newest of its own deque, else the oldest
/// of the first non-empty victim in ring order after `id`. The flag says
/// whether it was stolen. `None` is final: nothing is pushed once
/// workers run, so an empty deque stays empty.
pub(crate) fn claim(deques: &[ChunkDeque], id: usize) -> Option<(u64, bool)> {
    if let Some(item) = deques[id].pop() {
        return Some((item, false));
    }
    let n = deques.len();
    (1..n)
        .find_map(|k| deques[(id + k) % n].steal())
        .map(|item| (item, true))
}

/// Runs `work(id)` for every worker `0..workers`, each on its own scoped
/// thread, and returns the results in worker order. A worker's panic is
/// a simulator bug; it propagates.
pub(crate) fn run_workers<T: Send>(workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..workers).map(|id| s.spawn(move || work(id))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_for_the_owner_fifo_for_thieves() {
        let d = ChunkDeque::with_capacity(8);
        for i in 0..4 {
            assert!(d.push(i));
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.steal(), Some(0), "thieves take the oldest");
        assert_eq!(d.pop(), Some(3), "the owner takes the newest");
        assert_eq!(d.steal(), Some(1));
        assert_eq!(d.pop(), Some(2));
        assert!(d.is_empty());
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn push_reports_full() {
        let d = ChunkDeque::with_capacity(2);
        assert!(d.push(1));
        assert!(d.push(2));
        assert!(!d.push(3), "capacity-2 deque is full");
        assert_eq!(d.steal(), Some(1));
        assert!(d.push(3), "a claim frees a slot");
    }

    /// Every item is claimed exactly once no matter how many thieves
    /// fight the owner for it.
    #[test]
    fn concurrent_claims_are_exclusive() {
        use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
        const ITEMS: u64 = 20_000;
        const THIEVES: usize = 4;
        let d = ChunkDeque::with_capacity(ITEMS as usize);
        for i in 0..ITEMS {
            assert!(d.push(i));
        }
        // One claim counter per item; each must end at exactly 1.
        let claims: Vec<StdAtomicU64> = (0..ITEMS).map(|_| StdAtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..THIEVES {
                s.spawn(|| {
                    while let Some(item) = d.steal() {
                        claims[item as usize].fetch_add(1, StdOrdering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                while let Some(item) = d.pop() {
                    claims[item as usize].fetch_add(1, StdOrdering::Relaxed);
                }
            });
        });
        assert!(d.is_empty());
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(StdOrdering::Relaxed),
                1,
                "item {i} claimed a wrong number of times"
            );
        }
    }
}
