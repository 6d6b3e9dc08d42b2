//! Contention stress for the sharded shared LLC: many OS threads hammer
//! one [`SharedCache`] with overlapping deterministic streams, and the
//! aggregate statistics must match a serial replay of the same accesses
//! on a fresh instance — the order-independence the SMP engine's
//! parallel-replay determinism rests on (the bounded model checker
//! proves the same property exhaustively at small scale; this test
//! batters it at native-thread scale).

#![expect(
    clippy::expect_used,
    reason = "helpers outside `#[test]` fns report a broken fixture by panicking, which fails the calling test"
)]

use std::sync::Arc;

use mixtlb_cache::{SharedCache, SharedCacheConfig, SharedCacheStats};
use mixtlb_types::PhysAddr;

/// The deterministic access stream of one worker: walks `lines` line
/// addresses starting at an offset, `rounds` times, so every line is
/// touched by every thread and threads collide on shards constantly.
fn stream(thread: u64, threads: u64, lines: u64, rounds: u64) -> Vec<PhysAddr> {
    let mut out = Vec::new();
    for r in 0..rounds {
        for i in 0..lines {
            // Each thread starts its sweep elsewhere, so shard locks are
            // contended from the first access on.
            let line = (i + thread * lines / threads + r) % lines;
            out.push(PhysAddr::new(line * 64));
        }
    }
    out
}

fn run_parallel(config: SharedCacheConfig, threads: u64, lines: u64, rounds: u64) -> SharedCacheStats {
    let llc = Arc::new(SharedCache::new(config));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let llc = Arc::clone(&llc);
            std::thread::spawn(move || {
                for pa in stream(t, threads, lines, rounds) {
                    llc.access(pa);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    llc.stats()
}

fn run_serial(config: SharedCacheConfig, threads: u64, lines: u64, rounds: u64) -> SharedCacheStats {
    let llc = SharedCache::new(config);
    for t in 0..threads {
        for pa in stream(t, threads, lines, rounds) {
            llc.access(pa);
        }
    }
    llc.stats()
}

#[test]
fn in_capacity_contention_matches_serial_replay_exactly() {
    // 64 distinct lines fit the tiny 128-line LLC: no evictions, so hit
    // and miss totals are a pure function of the line set — every
    // interleaving, including the serial one, must agree bit-for-bit.
    let (threads, lines, rounds) = (8, 64, 16);
    let par = run_parallel(SharedCacheConfig::tiny(), threads, lines, rounds);
    let ser = run_serial(SharedCacheConfig::tiny(), threads, lines, rounds);
    assert_eq!(par, ser, "parallel and serial statistics diverged");
    assert_eq!(par.misses, lines, "each distinct line misses exactly once");
    assert_eq!(par.hits + par.misses, threads * lines * rounds);
}

#[test]
fn over_capacity_contention_conserves_accesses_and_cycles() {
    // 4096 distinct lines thrash the 128-line LLC: LRU decisions inside a
    // slice are interleaving-dependent, so exact hit counts may differ —
    // but conservation laws may not. Every access is either a hit or a
    // miss, and the cycle tally must equal the closed-form function of
    // those counts under any interleaving.
    let config = SharedCacheConfig::tiny();
    let (hit_cycles, dram_cycles) = (config.hit_cycles, config.dram_cycles);
    let (threads, lines, rounds) = (8, 4096, 4);
    let par = run_parallel(config, threads, lines, rounds);
    let total = threads * lines * rounds;
    assert_eq!(par.hits + par.misses, total);
    assert_eq!(
        par.total_cycles,
        total * hit_cycles + par.misses * dram_cycles,
        "cycle accounting must balance against the hit/miss split"
    );
    // The working set is 32x capacity: the overwhelming majority misses.
    assert!(par.misses > total * 9 / 10, "expected thrash, got {par:?}");
}

#[test]
fn flush_under_load_is_safe_and_preserves_conservation() {
    // Concurrent flushes race the access streams: contents may be emptied
    // at any point, but conservation and poisoning-freedom must hold.
    let llc = Arc::new(SharedCache::new(SharedCacheConfig::tiny()));
    let accesses = 4 * 512;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let llc = Arc::clone(&llc);
            s.spawn(move || {
                for i in 0..512u64 {
                    llc.access(PhysAddr::new(((i + t * 17) % 96) * 64));
                }
            });
        }
        let llc = Arc::clone(&llc);
        s.spawn(move || {
            for _ in 0..32 {
                llc.flush();
                std::thread::yield_now();
            }
        });
    });
    let s = llc.stats();
    assert_eq!(s.hits + s.misses, accesses);
}
