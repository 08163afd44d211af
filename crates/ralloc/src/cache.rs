//! Per-thread block caches.
//!
//! Each thread keeps, per size class, a small vector of ready-to-hand-out
//! block offsets. Hitting the cache involves no synchronization at all, which
//! is what gives Ralloc its near-malloc fast path. Caches are keyed by
//! allocator instance id so multiple pools coexist in one process.

use std::cell::RefCell;

use pmem::POff;

use crate::size_class::{class_size, NUM_CLASSES};

/// Refill batch for class `c`: keep roughly 32 KB of blocks in flight,
/// between 4 and 64 blocks.
#[inline]
pub fn batch_for_class(c: usize) -> usize {
    (32 * 1024 / class_size(c)).clamp(4, 64)
}

/// Cache capacity before we spill half back to the shared structures.
#[inline]
pub fn cap_for_class(c: usize) -> usize {
    batch_for_class(c) * 2
}

pub(crate) struct ThreadCache {
    pub bins: [Vec<POff>; NUM_CLASSES],
}

impl ThreadCache {
    fn new() -> Self {
        ThreadCache {
            bins: std::array::from_fn(|_| Vec::new()),
        }
    }
}

thread_local! {
    static CACHES: RefCell<Vec<(u64, ThreadCache)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's cache for allocator instance `id`.
pub fn with_cache<R>(id: u64, f: impl FnOnce(&mut ThreadCache) -> R) -> R {
    CACHES.with(|c| {
        let mut caches = c.borrow_mut();
        if let Some(pos) = caches.iter().position(|(i, _)| *i == id) {
            f(&mut caches[pos].1)
        } else {
            caches.push((id, ThreadCache::new()));
            let last = caches.len() - 1;
            f(&mut caches[last].1)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_bounded() {
        for c in 0..NUM_CLASSES {
            let b = batch_for_class(c);
            assert!((4..=64).contains(&b), "class {c} batch {b}");
        }
    }

    #[test]
    fn caches_are_per_instance() {
        with_cache(901, |c| c.bins[0].push(POff::new(64)));
        with_cache(902, |c| assert!(c.bins[0].is_empty()));
        with_cache(901, |c| assert_eq!(c.bins[0].len(), 1));
    }
}
