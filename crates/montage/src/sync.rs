//! Synchronization facade for the lock-free protocol core.
//!
//! Protocol code in this crate and in `montage-ds` takes its atomics and
//! mutexes from here: zero-cost re-exports of the real primitives, or, with
//! the `interleave-check` feature, the `interleave` model checker's
//! instrumented types — so the *actual* protocol code runs under exhaustive
//! bounded-preemption search. `weaken(site, ord)` (identity in real builds)
//! downgrades a named ordering to `Relaxed` in a configured checker run, and
//! `seeded(site)` (`false` in real builds) takes a named deliberately wrong
//! branch: the CI fixtures' proof that the checker would catch each bug.
//! Stats counters that are never a cross-thread handoff stay on raw `std`
//! atomics via [`uninstrumented`], keeping the state space on synchronization.

#[cfg(feature = "interleave-check")]
pub use interleave::sync::{
    seeded, spin_loop, thread, weaken, yield_now, AtomicBool, AtomicPtr, AtomicU32, AtomicU64,
    AtomicUsize, Mutex, MutexGuard,
};

#[cfg(feature = "interleave-check")]
pub use interleave::sync::from_std;

#[cfg(not(feature = "interleave-check"))]
mod real {
    pub use parking_lot::{Mutex, MutexGuard};
    pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize};
    pub use std::thread;

    /// Identity in real builds; the checker build swaps in the fixture hook.
    #[inline(always)]
    pub fn weaken(_site: &str, ord: std::sync::atomic::Ordering) -> std::sync::atomic::Ordering {
        ord
    }

    /// Never set in real builds; the checker build swaps in the fixture hook.
    #[inline(always)]
    pub fn seeded(_site: &str) -> bool {
        false
    }

    /// View a `std` atomic (e.g. one living in pmem pool metadata) as a
    /// facade atomic. A no-op here; the checker build wraps it.
    #[inline(always)]
    pub fn from_std(a: &std::sync::atomic::AtomicU64) -> &AtomicU64 {
        a
    }

    #[inline(always)]
    pub fn spin_loop() {
        std::hint::spin_loop();
    }

    #[inline(always)]
    pub fn yield_now() {
        std::thread::yield_now();
    }
}

#[cfg(not(feature = "interleave-check"))]
pub use real::*;

// The `Ordering` enum is shared between both worlds: the facade types take the
// real `std` orderings, and the checker maps them onto its memory model.
pub use std::sync::atomic::Ordering;

/// Pads and aligns a value to 128 bytes (two x86-64 prefetch lines), so
/// per-thread hot atomics never share a cache line.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Raw `std` atomics for stats/counters that are not part of any cross-thread
/// protocol handoff. Deliberately NOT instrumented: bumping an op tally must
/// not become a schedule point, or the model-checked state space explodes on
/// bookkeeping instead of synchronization.
pub mod uninstrumented {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}
