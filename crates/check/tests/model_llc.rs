//! Model-checking the *real* shared LLC under the interleaving explorer,
//! plus lock-discipline fixtures for the explorer's lock-order-inversion
//! check.
//!
//! These tests compile `mixtlb-cache` with its `model` feature (see this
//! crate's dev-dependencies): the LLC's shard mutexes and statistics
//! atomics become instrumented schedule points, so the explorer can drive
//! every bounded interleaving of concurrent `SharedCache::access` calls
//! and check the module's central claim — contents and statistics are a
//! function of *which* lines were accessed, never of the order cores
//! interleaved.

use std::sync::Arc;

use mixtlb_cache::{SharedCache, SharedCacheConfig};
use mixtlb_check::sched::{explore, Config, FailureKind, Sim};
use mixtlb_check::sync::instrumented::Mutex;
use mixtlb_types::PhysAddr;

#[test]
fn disjoint_shard_traffic_is_clean_exhaustively() {
    // Two cores touching lines that hash to different shards: no shared
    // lock, every interleaving must produce the same (all-cold) totals.
    let report = explore(&Config::exhaustive(), |sim: &mut Sim| {
        let llc = Arc::new(SharedCache::new(SharedCacheConfig::tiny()));
        for t in 0..2u64 {
            let llc = Arc::clone(&llc);
            sim.thread(&format!("core{t}"), move || {
                llc.access(PhysAddr::new(t * 64));
            });
        }
        sim.finally(move || {
            let s = llc.stats();
            assert_eq!(s.hits + s.misses, 2);
            assert_eq!(s.misses, 2, "disjoint cold lines must both miss");
            assert_eq!(s.total_cycles, 2 * 110);
        });
    });
    assert!(report.complete, "tiny scenario must be exhaustible");
    assert!(report.schedules > 1, "two cores have real choice points");
    report.assert_clean();
}

#[test]
fn same_shard_contention_totals_are_order_independent() {
    // Both cores hammer the *same* line: whoever arrives first misses and
    // fills, the other hits — but the totals (1 miss, 1 hit, 120 cycles)
    // are identical under every schedule. This is exactly the property
    // that lets the SMP engine treat LLC latency as a stall estimate
    // without breaking parallel-replay determinism.
    let report = explore(&Config::exhaustive(), |sim: &mut Sim| {
        let llc = Arc::new(SharedCache::new(SharedCacheConfig::tiny()));
        for t in 0..2u64 {
            let llc = Arc::clone(&llc);
            sim.thread(&format!("core{t}"), move || {
                llc.access(PhysAddr::new(0x40));
            });
        }
        sim.finally(move || {
            let s = llc.stats();
            assert_eq!((s.hits, s.misses), (1, 1));
            assert_eq!(s.total_cycles, 110 + 10);
        });
    });
    assert!(report.complete);
    report.assert_clean();
}

#[test]
fn consistent_lock_order_is_clean() {
    // Two mutexes, both threads acquire in the same (id) order: no cycle
    // in the held→acquired edges, no deadlock — the discipline the LLC's
    // one-lock-at-a-time sharding enforces by construction.
    let report = explore(&Config::exhaustive(), |sim: &mut Sim| {
        let a = Arc::new(Mutex::new(0u64));
        let b = Arc::new(Mutex::new(0u64));
        for t in 0..2 {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            sim.thread(&format!("t{t}"), move || {
                let mut ga = a.lock().unwrap_or_else(|e| e.into_inner());
                let mut gb = b.lock().unwrap_or_else(|e| e.into_inner());
                *ga += 1;
                *gb += 1;
            });
        }
        sim.finally(move || {
            assert_eq!(*a.lock().unwrap_or_else(|e| e.into_inner()), 2);
            assert_eq!(*b.lock().unwrap_or_else(|e| e.into_inner()), 2);
        });
    });
    assert!(report.complete);
    report.assert_clean();
}

#[test]
fn opposite_lock_order_is_flagged_as_inversion() {
    // The classic AB/BA pattern. Even on schedules where the race never
    // materializes (one thread runs to completion first), the execution's
    // acquisition edges contain the a→b and b→a cycle — the analysis
    // flags the *hazard*, not just a lucky deadlock.
    let report = explore(&Config::exhaustive(), |sim: &mut Sim| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            sim.thread("ab", move || {
                let _ga = a.lock().unwrap_or_else(|e| e.into_inner());
                let _gb = b.lock().unwrap_or_else(|e| e.into_inner());
            });
        }
        sim.thread("ba", move || {
            let _gb = b.lock().unwrap_or_else(|e| e.into_inner());
            let _ga = a.lock().unwrap_or_else(|e| e.into_inner());
        });
    });
    let failure = report.failure.expect("AB/BA must be flagged");
    assert_eq!(failure.kind, FailureKind::LockOrderInversion);
    assert!(
        failure.message.contains("mutex ids"),
        "inversion report should name the cycle: {}",
        failure.message
    );
}
