//! Model-checking the work-stealing [`ChunkDeque`] under the
//! interleaving explorer.
//!
//! Built only with this crate's `model` feature
//! (`cargo test -p mixtlb-smp --features model --test model_deque`),
//! which turns the deque's `bottom`/`top`/slot atomics into schedule
//! points. The explorer then drives the owner's push/pop against a
//! thief's steal and checks the deque's one safety property: every
//! pushed chunk is taken exactly once, never lost and never duplicated.
//!
//! The explorer runs every atomic `SeqCst`, so this covers interleavings
//! only, not weak-memory reordering; DESIGN.md §8 says what argues the
//! orderings.

#![cfg(feature = "model")]

use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

use mixtlb_check::sched::{explore, Config, Report, Sim};
use mixtlb_smp::ChunkDeque;

/// Explores the owner (pushes `pushed`, then pops until empty) against
/// one thief (steals until empty), with `seeded` chunks pushed before
/// either starts, and checks that chunks `0..seeded + pushed.len()` are
/// each taken exactly once.
fn owner_vs_thief(cfg: &Config, seeded: u64, pushed: &'static [u64]) -> Report {
    explore(cfg, |sim: &mut Sim| {
        let total = seeded as usize + pushed.len();
        let deque = Arc::new(ChunkDeque::with_capacity(4));
        for chunk in 0..seeded {
            assert!(deque.push(chunk));
        }
        // Plain `std` atomics: bookkeeping, not part of the protocol
        // under test, so they add no schedule points.
        let claims: Arc<Vec<StdAtomicU64>> =
            Arc::new((0..total).map(|_| StdAtomicU64::new(0)).collect());
        let owner = {
            let (deque, claims) = (Arc::clone(&deque), Arc::clone(&claims));
            move || {
                for &chunk in pushed {
                    assert!(deque.push(chunk), "a capacity-4 deque holds every chunk");
                }
                while let Some(chunk) = deque.pop() {
                    claims[chunk as usize].fetch_add(1, StdOrdering::Relaxed);
                }
            }
        };
        let thief = {
            let (deque, claims) = (Arc::clone(&deque), Arc::clone(&claims));
            move || {
                while let Some(chunk) = deque.steal() {
                    claims[chunk as usize].fetch_add(1, StdOrdering::Relaxed);
                }
            }
        };
        sim.thread("owner", owner);
        sim.thread("thief", thief);
        sim.finally(move || {
            for (chunk, c) in claims.iter().enumerate() {
                assert_eq!(
                    c.load(StdOrdering::Relaxed),
                    1,
                    "chunk {chunk} must be taken exactly once"
                );
            }
            assert!(deque.is_empty());
        });
    })
}

fn assert_explored_clean(report: &Report) {
    report.assert_clean();
    assert!(report.complete, "the search must not hit the schedule cap");
    assert!(
        report.schedules > 1,
        "owner and thief have real choice points"
    );
}

#[test]
fn last_chunk_race_is_exclusive() {
    // One seeded chunk: the owner's pop and the thief's steal both go
    // for it, and the compare-exchange on `top` must pick one winner.
    // Small enough to explore every interleaving.
    assert_explored_clean(&owner_vs_thief(&Config::exhaustive(), 1, &[]));
}

#[test]
fn push_pop_against_steal_takes_every_chunk_once() {
    // The owner pushes while the thief already steals the seeded chunk,
    // then drains what is left against the thief. Unbounded, this
    // outgrows the schedule cap; three preemptions finish in seconds.
    assert_explored_clean(&owner_vs_thief(
        &Config::with_preemption_bound(3),
        1,
        &[1, 2],
    ));
}
