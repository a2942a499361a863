//! Barrier-free publication of immutable artifacts.
//!
//! [`HotSwap`] is the slot through which a retraining defender publishes
//! a freshly compiled artifact (a rule pack) to a running ingest pipeline
//! **without any barrier**: readers take an [`Arc`] snapshot once (at
//! fork/admission time) and keep evaluating against it for as long as
//! they like; a writer swaps the slot's `Arc` atomically with respect to
//! readers and never waits for in-flight evaluations to finish. In-flight
//! shard workers therefore finish their stream on the pack they started
//! with, while every chain built after the swap sees the new one — the
//! exact mid-round semantics the closed-loop arena needs.
//!
//! The implementation is a `std::sync::RwLock<Arc<T>>`: `load` holds
//! the read lock only long enough to clone the `Arc` (a refcount bump),
//! `swap` holds the write lock only for the pointer exchange. Neither
//! ever blocks on an evaluation, because evaluations run against the
//! cloned `Arc`, never against the slot. Neither can panic while holding
//! the lock either, so a poisoned lock is recovered, not propagated.

use std::sync::{Arc, PoisonError, RwLock};

/// An atomically swappable `Arc<T>` slot (see the module docs for the
/// publication semantics).
pub struct HotSwap<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> HotSwap<T> {
    /// A slot initially holding `value`.
    pub fn new(value: T) -> HotSwap<T> {
        HotSwap::from_arc(Arc::new(value))
    }

    /// A slot initially holding an existing `Arc` (no re-allocation).
    pub fn from_arc(value: Arc<T>) -> HotSwap<T> {
        HotSwap {
            slot: RwLock::new(value),
        }
    }

    /// Snapshot the current artifact. The returned `Arc` stays valid (and
    /// unchanged) across any number of subsequent [`HotSwap::swap`]s —
    /// that is the no-barrier property.
    pub fn load(&self) -> Arc<T> {
        self.slot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publish `next`, returning the previously published artifact (so
    /// the writer can diff old vs new for its ledger). Readers holding
    /// snapshots are unaffected.
    pub fn swap(&self, next: Arc<T>) -> Arc<T> {
        let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, next)
    }

    /// Convenience: publish an owned value.
    pub fn store(&self, value: T) -> Arc<T> {
        self.swap(Arc::new(value))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for HotSwap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("HotSwap").field(&*self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_snapshot_survives_swap() {
        let slot = HotSwap::new(1u32);
        let before = slot.load();
        let old = slot.store(2);
        assert_eq!(*old, 1);
        assert_eq!(*before, 1, "in-flight snapshot keeps the old artifact");
        assert_eq!(*slot.load(), 2, "new admissions see the new artifact");
    }

    #[test]
    fn swap_returns_previous() {
        let slot = HotSwap::new("a".to_string());
        let prev = slot.swap(Arc::new("b".to_string()));
        assert_eq!(*prev, "a");
        assert_eq!(*slot.load(), "b");
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        let slot = Arc::new(HotSwap::new(0u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let slot = slot.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let v = *slot.load();
                        assert!(v >= last, "published values only move forward");
                        last = v;
                    }
                })
            })
            .collect();
        for v in 1..=500u64 {
            slot.store(v);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*slot.load(), 500);
    }
}
