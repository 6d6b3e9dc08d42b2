//! The synchronization facade adopted by the concurrent crates.
//!
//! Production crates (`mixtlb-cache`'s sharded LLC, `mixtlb-smp`'s shootdown
//! counters) import their primitives from here instead of `std::sync`:
//!
//! ```ignore
//! use mixtlb_check::sync::{AtomicU64, Mutex, Ordering};
//! ```
//!
//! Without the `model` feature — the production default — every alias is a
//! plain re-export of the `std` type, so adoption is zero-overhead and
//! binary-identical. With `model` enabled (the model-check test suites turn
//! it on through their dev-dependencies), the aliases resolve to the
//! [`instrumented`] wrappers below, whose operations park at schedule
//! points of the bounded interleaving explorer ([`crate::sched::explore`]).
//!
//! The wrappers are *dormant* outside an exploration: when the calling
//! thread is not managed by a running explorer (no
//! `crate::sched::current` context), they pass straight through to `std`.
//! That makes a `model`-enabled test binary safe to run ordinary
//! (non-model-check) tests in.

pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "model"))]
pub use std::sync::atomic::AtomicU64;
#[cfg(not(feature = "model"))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(feature = "model")]
pub use instrumented::{AtomicU64, Mutex, MutexGuard};

pub use instrumented::Event;

/// Instrumented drop-in replacements for the `std::sync` primitives the
/// workspace's concurrent code uses, plus an [`Event`] signal for protocol
/// scenarios. Always compiled (so scenario code can name the types
/// feature-independently); only *aliased* as `sync::{Mutex, AtomicU64}`
/// under the `model` feature.
pub mod instrumented {
    use crate::sched::{current, next_object_id, Op};
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
    use std::sync::{
        Condvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
    };

    fn relock<T>(e: PoisonError<StdMutexGuard<'_, T>>) -> StdMutexGuard<'_, T> {
        e.into_inner()
    }

    /// A mutex whose acquisition is a schedule point.
    ///
    /// API-compatible with the `std::sync::Mutex` surface the workspace
    /// uses (`new`, `lock`, `into_inner`, `get_mut`). Under an explorer,
    /// `lock` parks at [`Op::Lock`] and is granted only when the model
    /// considers the mutex free, so the real acquisition below never
    /// blocks; acquisition/release are reported for lock-order analysis.
    pub struct Mutex<T> {
        id: u64,
        inner: StdMutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new instrumented mutex.
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                id: next_object_id(),
                inner: StdMutex::new(value),
            }
        }

        /// Acquires the mutex (schedule point under an explorer).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            match current() {
                Some(ctx) => {
                    ctx.ctl.reach_point(ctx.tid, Op::Lock(self.id));
                    // The controller grants `Lock` only when no managed
                    // thread holds this id, and managed threads are
                    // serialized, so this never blocks.
                    let guard = self.inner.lock().unwrap_or_else(relock);
                    ctx.ctl.acquired(ctx.tid, self.id);
                    Ok(MutexGuard {
                        release: Some((ctx, self.id)),
                        inner: guard,
                    })
                }
                None => match self.inner.lock() {
                    Ok(inner) => Ok(MutexGuard {
                        release: None,
                        inner,
                    }),
                    Err(e) => Err(PoisonError::new(MutexGuard {
                        release: None,
                        inner: e.into_inner(),
                    })),
                },
            }
        }

        /// Consumes the mutex, returning the underlying data.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }

        /// Returns a mutable reference to the underlying data.
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Mutex").field("id", &self.id).finish()
        }
    }

    /// Guard returned by [`Mutex::lock`]; releases the model's view of the
    /// lock on drop (the real unlock follows when the inner guard drops).
    pub struct MutexGuard<'a, T> {
        release: Option<(crate::sched::ThreadCtx, u64)>,
        inner: StdMutexGuard<'a, T>,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if let Some((ctx, id)) = self.release.take() {
                // Safe to report before the real unlock: no other managed
                // thread can attempt the real acquisition until the
                // controller reaches quiescence, which requires this
                // thread to park first — long after `inner` dropped.
                ctx.ctl.released(ctx.tid, id);
            }
        }
    }

    /// An atomic `u64` whose loads/stores/RMWs are schedule points.
    ///
    /// Under an explorer all operations execute `SeqCst` (the explorer
    /// checks interleavings under sequential consistency; see the module
    /// docs of [`crate::sched`]); dormant, the caller's ordering is used
    /// unchanged.
    pub struct AtomicU64 {
        id: u64,
        inner: StdAtomicU64,
    }

    impl AtomicU64 {
        /// Creates a new instrumented atomic.
        pub fn new(value: u64) -> AtomicU64 {
            AtomicU64 {
                id: next_object_id(),
                inner: StdAtomicU64::new(value),
            }
        }

        /// Atomic load (schedule point under an explorer).
        pub fn load(&self, order: Ordering) -> u64 {
            match current() {
                Some(ctx) => {
                    ctx.ctl.reach_point(ctx.tid, Op::AtomicLoad(self.id));
                    self.inner.load(Ordering::SeqCst)
                }
                None => self.inner.load(order),
            }
        }

        /// Atomic store (schedule point under an explorer).
        pub fn store(&self, value: u64, order: Ordering) {
            match current() {
                Some(ctx) => {
                    ctx.ctl.reach_point(ctx.tid, Op::AtomicStore(self.id));
                    self.inner.store(value, Ordering::SeqCst);
                }
                None => self.inner.store(value, order),
            }
        }

        /// Atomic fetch-add (schedule point under an explorer).
        pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
            match current() {
                Some(ctx) => {
                    ctx.ctl.reach_point(ctx.tid, Op::AtomicRmw(self.id));
                    self.inner.fetch_add(value, Ordering::SeqCst)
                }
                None => self.inner.fetch_add(value, order),
            }
        }

        /// Atomic fetch-sub (schedule point under an explorer). The
        /// work-stealing deque's owner-side bottom reservation drives
        /// this.
        pub fn fetch_sub(&self, value: u64, order: Ordering) -> u64 {
            match current() {
                Some(ctx) => {
                    ctx.ctl.reach_point(ctx.tid, Op::AtomicRmw(self.id));
                    self.inner.fetch_sub(value, Ordering::SeqCst)
                }
                None => self.inner.fetch_sub(value, order),
            }
        }

        /// Atomic compare-exchange (schedule point under an explorer).
        /// The work-stealing deque's steal claim drives this.
        pub fn compare_exchange(
            &self,
            current_val: u64,
            new: u64,
            success: Ordering,
            failure: Ordering,
        ) -> Result<u64, u64> {
            match current() {
                Some(ctx) => {
                    ctx.ctl.reach_point(ctx.tid, Op::AtomicRmw(self.id));
                    self.inner
                        .compare_exchange(current_val, new, Ordering::SeqCst, Ordering::SeqCst)
                }
                None => self.inner.compare_exchange(current_val, new, success, failure),
            }
        }

        /// Returns a mutable reference to the underlying value.
        pub fn get_mut(&mut self) -> &mut u64 {
            self.inner.get_mut()
        }

        /// Consumes the atomic, returning the value.
        pub fn into_inner(self) -> u64 {
            self.inner.into_inner()
        }
    }

    impl fmt::Debug for AtomicU64 {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("AtomicU64")
                .field("id", &self.id)
                .field("value", &self.inner.load(Ordering::SeqCst))
                .finish()
        }
    }

    /// A one-shot signal (doorbell / acknowledgement line) for shootdown
    /// protocol scenarios. `wait` is a *blocking-capable* schedule point:
    /// under an explorer, a thread parked at [`Op::EventWait`] is disabled
    /// until some thread performs [`Event::set`], which is exactly how the
    /// explorer detects lost-wakeup deadlocks.
    pub struct Event {
        id: u64,
        state: StdMutex<bool>,
        cv: Condvar,
    }

    impl Event {
        /// Creates an unset event.
        pub fn new() -> Event {
            Event {
                id: next_object_id(),
                state: StdMutex::new(false),
                cv: Condvar::new(),
            }
        }

        /// Sets the event, waking all waiters.
        pub fn set(&self) {
            match current() {
                Some(ctx) => {
                    ctx.ctl.reach_point(ctx.tid, Op::EventSet(self.id));
                    // The controller records the set in its model on
                    // grant; mirror it locally for `is_set` reads.
                    *self.state.lock().unwrap_or_else(relock) = true;
                }
                None => {
                    *self.state.lock().unwrap_or_else(relock) = true;
                    self.cv.notify_all();
                }
            }
        }

        /// Blocks until the event is set.
        pub fn wait(&self) {
            match current() {
                Some(ctx) => {
                    // Granted only once the event is set in the model; the
                    // local flag is then already true.
                    ctx.ctl.reach_point(ctx.tid, Op::EventWait(self.id));
                }
                None => {
                    let mut set = self.state.lock().unwrap_or_else(relock);
                    while !*set {
                        set = self.cv.wait(set).unwrap_or_else(relock);
                    }
                }
            }
        }

        /// Non-blocking poll (schedule point under an explorer).
        pub fn is_set(&self) -> bool {
            if let Some(ctx) = current() {
                ctx.ctl.reach_point(ctx.tid, Op::EventPoll(self.id));
            }
            *self.state.lock().unwrap_or_else(relock)
        }
    }

    impl Default for Event {
        fn default() -> Event {
            Event::new()
        }
    }

    impl fmt::Debug for Event {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Event")
                .field("id", &self.id)
                .field("set", &*self.state.lock().unwrap_or_else(relock))
                .finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Event;

    #[test]
    fn event_set_is_observable_by_polling() {
        // Outside an explorer the facade passes straight through to std:
        // `is_set` must observe `set` without blocking in `wait`.
        let ev = Event::new();
        assert!(!ev.is_set());
        ev.set();
        assert!(ev.is_set());
        ev.wait(); // already set: returns immediately
    }
}
