//! The disciplined twin of `atomic_ordering_dirty.rs`: the publication
//! pairs `Release` with `Acquire`, and the counter uses a single
//! `fetch_add` RMW instead of a split load/store.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Mailbox {
    seq: AtomicU64,
    delivered: AtomicU64,
    payload: u64,
}

impl Mailbox {
    fn publish(&mut self, value: u64) {
        self.payload = value;
        self.seq.store(1, Ordering::Release);
    }

    fn consume(&self) -> u64 {
        if self.seq.load(Ordering::Acquire) == 1 {
            return self.payload;
        }
        0
    }

    fn bump_delivered(&self) {
        // Relaxed: pure counter, read after join
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
}
