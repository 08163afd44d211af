//! The operation tracker: each thread's active epoch (paper Fig. 3).

use crate::sync::{weaken, AtomicU64, Ordering};

use crate::sync::CachePadded;

/// Slot value meaning "no active operation".
pub const IDLE: u64 = u64::MAX;

/// Per-thread active-epoch slots.
pub struct Tracker {
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl Tracker {
    pub fn new(max_threads: usize) -> Self {
        Tracker {
            slots: (0..max_threads)
                .map(|_| CachePadded::new(AtomicU64::new(IDLE)))
                .collect(),
        }
    }

    /// Announces `tid` in `epoch`; SeqCst, so `BEGIN_OP`'s clock re-read
    /// cannot move before it (a StoreLoad edge).
    #[inline]
    pub fn register(&self, tid: usize, epoch: u64) {
        self.slots[tid].store(epoch, Ordering::SeqCst);
    }

    /// Clears thread `tid`'s announcement.
    #[inline]
    pub fn unregister(&self, tid: usize) {
        // ord(publish): the op's ring pushes (bucket label, tail publish)
        // must be visible to any advancer that observes this slot as idle —
        // this edge is what keeps the advance's `min_pending` gate from
        // reading a stale empty ring and skipping a needed drain.
        self.slots[tid].store(IDLE, weaken("tracker.unregister", Ordering::Release));
    }

    /// Epoch thread `tid` is registered in, or [`IDLE`].
    #[inline]
    pub fn load(&self, tid: usize) -> u64 {
        // ord(acquire): pairs with the Release in `unregister`.
        self.slots[tid].load(weaken("tracker.idle.acquire", Ordering::Acquire))
    }

    /// The advance step `operation_tracker.wait_all(curr_epoch - 1)`, bounded
    /// (nbMontage's liveness property; the paper's unbounded wait is its
    /// documented caveat): gives each slot at most `spins` spin/yield steps to
    /// leave epochs `<= epoch`, then returns how many are still there — the
    /// stragglers the caller is about to bypass.
    pub fn wait_all_bounded(&self, epoch: u64, spins: usize) -> usize {
        let mut stragglers = 0usize;
        for slot in self.slots.iter() {
            let mut tries = 0usize;
            loop {
                // ord(acquire): seeing the slot leave `epoch` must also show
                // us the finished op's writes before we retire its blocks —
                // pairs with the Release in `unregister`.
                if slot.load(weaken("tracker.idle.acquire", Ordering::Acquire)) > epoch {
                    break;
                }
                tries += 1;
                if tries > spins {
                    stragglers += 1;
                    break;
                }
                if tries.is_multiple_of(64) {
                    crate::sync::yield_now();
                } else {
                    crate::sync::spin_loop();
                }
            }
        }
        stragglers
    }

    /// Smallest epoch any thread is registered in ([`IDLE`] if none): the
    /// reclamation frontier a bypassed straggler pins without blocking the
    /// clock.
    pub fn oldest_active(&self) -> u64 {
        self.slots
            .iter()
            // ord(acquire): the frontier gates reclamation; pairs with the
            // Release in `unregister`.
            .map(|s| s.load(Ordering::Acquire))
            .min()
            .unwrap_or(IDLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_unregister_roundtrip() {
        let t = Tracker::new(4);
        assert_eq!(t.load(2), IDLE);
        t.register(2, 7);
        assert_eq!(t.load(2), 7);
        assert_eq!(t.oldest_active(), 7);
        t.unregister(2);
        assert_eq!(t.load(2), IDLE);
        assert_eq!(t.oldest_active(), IDLE);
    }

    #[test]
    fn bounded_wait_passes_newer_ops_and_counts_stragglers() {
        let t = Tracker::new(4);
        t.register(0, 10);
        assert_eq!(t.wait_all_bounded(9, 8), 0, "nothing ≤ 9");
        assert_eq!(t.wait_all_bounded(10, 8), 1, "bypassed after the grace");
    }
}
