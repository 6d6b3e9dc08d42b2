//! Seeded atomic-ordering bugs around a message-passing mailbox.
//! Expected findings:
//!   1. `publish` writes the plain `payload` field and then stores the
//!      `seq` flag with `Relaxed` — a release-free publication, whatever
//!      the comment above the store claims.
//!   2. `consume` loads `seq` with `Relaxed` and then reads `payload` —
//!      the acquire-free half of the same publication.
//!   3. `bump_delivered` updates `delivered` as a separate load then
//!      store: a lost-update window; should be a `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Mailbox {
    seq: AtomicU64,
    delivered: AtomicU64,
    payload: u64,
}

impl Mailbox {
    fn publish(&mut self, value: u64) {
        self.payload = value;
        // Relaxed: flag claimed independent of payload
        self.seq.store(1, Ordering::Relaxed);
    }

    fn consume(&self) -> u64 {
        if self.seq.load(Ordering::Relaxed) == 1 {
            return self.payload;
        }
        0
    }

    fn bump_delivered(&self) {
        let d = self.delivered.load(Ordering::Relaxed);
        self.delivered.store(d + 1, Ordering::Relaxed);
    }
}
