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
//! Two limits apply. The explorer runs every atomic `SeqCst`, so this
//! covers interleavings only, not weak-memory reordering; DESIGN.md §8
//! says what argues the orderings. And the explorer's search only ever
//! switches from a thread to a later-registered one, which then runs to
//! completion (a known gap, see DESIGN.md §8), so every scenario runs twice: owner
//! registered first, then thief registered first. That covers the owner
//! preempted at any point by whole steals, and the thief preempted at any
//! point by the owner's whole push/pop sequence. It does not cover an
//! owner pop and a steal both stopped between their reads and their
//! compare-exchange, so a `pop` that skips its own compare-exchange on
//! the last chunk still passes here.

#![cfg(feature = "model")]

use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

use mixtlb_check::sched::{explore, Config, Report, Sim};
use mixtlb_smp::ChunkDeque;

/// Explores the owner (pushes `pushed`, then pops until empty) against
/// one thief (steals until empty), with `seeded` chunks pushed before
/// either starts, and checks that chunks `0..seeded + pushed.len()` are
/// each taken exactly once. Returns one report per registration order.
fn owner_vs_thief(seeded: u64, pushed: &'static [u64]) -> [Report; 2] {
    [false, true].map(|thief_first| {
        explore(&Config::exhaustive(), |sim: &mut Sim| {
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
            if thief_first {
                sim.thread("thief", thief);
                sim.thread("owner", owner);
            } else {
                sim.thread("owner", owner);
                sim.thread("thief", thief);
            }
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
    })
}

fn assert_explored_clean(reports: &[Report; 2]) {
    for report in reports {
        report.assert_clean();
        assert!(report.complete, "the search must not hit the schedule cap");
        assert!(
            report.schedules > 1,
            "owner and thief have real choice points"
        );
    }
}

#[test]
fn last_chunk_race_is_exclusive() {
    // One seeded chunk: the owner's pop and the thief's steal both go
    // for it, and the compare-exchange on `top` must pick one winner.
    assert_explored_clean(&owner_vs_thief(1, &[]));
}

#[test]
fn push_pop_against_steal_takes_every_chunk_once() {
    // The owner pushes while the thief already steals the seeded chunk,
    // then drains what is left against the thief.
    assert_explored_clean(&owner_vs_thief(1, &[1, 2]));
}
