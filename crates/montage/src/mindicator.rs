//! Mindicator: tracks, across threads, the oldest epoch for which
//! unpersisted payloads still exist (paper Sec. 5.2, after Liu et al.,
//! "Mindicators: A scalable approach to quiescence").
//!
//! The original mindicator is a SNZI-style tree whose payoff appears at
//! hundreds of threads. At the thread counts this reproduction runs (≤ 128),
//! an exact flat scan over cache-padded per-thread slots is both faster and
//! trivially linearizable, so that is what we implement; the tree would be a
//! drop-in replacement behind the same two-method interface. Correctness
//! requirement (unlike the approximate tree): `min()` must never report a
//! value **larger** than a concurrently-published slot that was set before
//! the scan began — the flat scan with acquire loads provides this.
//!
//! **Owner-only publish discipline.** Since the write-back buffers became
//! lock-free rings, only a slot's owning thread publishes to it (after each
//! `push_persist`). Drainers — the background advancer, helping `sync`
//! callers — never publish: with two writers per slot, a drainer's "raised"
//! publish could overwrite an owner's concurrent lower publish and make
//! `min()` report too-high, skipping a needed boundary write-back. Under
//! owner-only publishing a slot can only be *stale-low* (entries drained but
//! the slot still naming their epoch), which is conservative: the advancer
//! treats the mindicator as a monotone hint and confirms against the exact
//! per-thread ring scan (`Buffers::min_pending`).

use crate::sync::{weaken, AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

/// Slot value for "nothing unpersisted".
const EMPTY: u64 = u64::MAX;

pub struct Mindicator {
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl Mindicator {
    pub fn new(max_threads: usize) -> Self {
        Mindicator {
            slots: (0..max_threads)
                .map(|_| CachePadded::new(AtomicU64::new(EMPTY)))
                .collect(),
        }
    }

    /// Publishes thread `tid`'s oldest unpersisted epoch (`u64::MAX` if none).
    #[inline]
    pub fn publish(&self, tid: usize, oldest: u64) {
        // ord(publish): the ring entries this slot summarizes must be visible
        // to an advancer that trusts the published epoch.
        self.slots[tid].store(oldest, weaken("mindicator.publish", Ordering::Release));
    }

    /// Oldest unpersisted epoch across all threads (`u64::MAX` if none).
    pub fn min(&self) -> u64 {
        self.slots
            .iter()
            // ord(acquire): pairs with the Release in `publish`.
            .map(|s| s.load(Ordering::Acquire))
            .min()
            .unwrap_or(EMPTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_by_default() {
        let m = Mindicator::new(8);
        assert_eq!(m.min(), EMPTY);
    }

    #[test]
    fn min_across_threads() {
        let m = Mindicator::new(4);
        m.publish(0, 10);
        m.publish(1, 7);
        m.publish(3, 12);
        assert_eq!(m.min(), 7);
        m.publish(1, EMPTY);
        assert_eq!(m.min(), 10);
    }

    #[test]
    fn concurrent_publishes_never_lose_a_minimum() {
        let m = std::sync::Arc::new(Mindicator::new(8));
        let mut handles = vec![];
        for t in 0..4usize {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    m.publish(t, 100 + (i % 5));
                }
                m.publish(t, EMPTY);
            }));
        }
        // While publishers run, min must always be ≥ 100 (or EMPTY).
        for _ in 0..1000 {
            let v = m.min();
            assert!(v >= 100);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.min(), EMPTY);
    }
}
