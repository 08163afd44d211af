//! Offline shim for the `crossbeam` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the two crossbeam facilities it uses:
//!
//! * [`utils::CachePadded`] — alignment padding for per-thread hot atomics;
//! * [`epoch`] — a small but real epoch-based reclamation (EBR) runtime with
//!   the `pin` / `Guard::defer_unchecked` subset.
//!
//! The EBR core is the textbook three-era scheme: threads publish the global
//! era into a slot while pinned; deferred destructors are tagged with the era
//! current at `defer` time and executed only once every slot has been
//! observed at a strictly later era (or idle). This gives the same safety
//! contract as crossbeam-epoch for the usage here (unlink before defer,
//! access only through a pinned guard).
//!
//! Its one user is `baselines::friedman`, which reproduces its own paper's
//! reclamation. Montage's structures retire transient memory through
//! Montage's epoch system instead (`EpochSys::retire_transient`).

pub mod utils {
    use std::fmt;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes (two x86-64 prefetch lines),
    /// mirroring `crossbeam_utils::CachePadded`.
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        pub const fn new(value: T) -> CachePadded<T> {
            CachePadded { value }
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.value.fmt(f)
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }
}

pub mod epoch {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Maximum simultaneously-registered threads (slot array size).
    const MAX_THREADS: usize = 1024;
    /// Slot value: unclaimed.
    const FREE: u64 = u64::MAX;
    /// Slot value: claimed by a thread that is not currently pinned.
    const IDLE: u64 = u64::MAX - 1;
    /// Collect every this-many pins per thread.
    const PINS_BETWEEN_COLLECT: u64 = 64;

    /// Global era clock. Starts at 1 so a 0 slot value is never ambiguous.
    static ERA: AtomicU64 = AtomicU64::new(1);
    /// Per-thread published eras (`FREE`, `IDLE`, or the pinned era).
    static SLOTS: [AtomicU64; MAX_THREADS] = [const { AtomicU64::new(FREE) }; MAX_THREADS];

    struct Deferred {
        era: u64,
        call: Box<dyn FnOnce() + 'static>,
    }
    // SAFETY: deferred closures may close over raw pointers; executing them on
    // another thread is exactly the (unsafe) contract of `defer_unchecked`,
    // identical to crossbeam-epoch's internal `Deferred`.
    unsafe impl Send for Deferred {}

    fn garbage() -> &'static Mutex<Vec<Deferred>> {
        static GARBAGE: Mutex<Vec<Deferred>> = Mutex::new(Vec::new());
        &GARBAGE
    }

    thread_local! {
        /// (slot index + 1, nesting depth, pins since last collect).
        static TLS: Cell<(usize, usize, u64)> = const { Cell::new((0, 0, 0)) };
        /// Releases this thread's slot on exit.
        static SLOT_RELEASER: SlotReleaser = const { SlotReleaser };
    }

    struct SlotReleaser;
    impl Drop for SlotReleaser {
        fn drop(&mut self) {
            let (slot1, _, _) = TLS.get();
            if slot1 != 0 {
                SLOTS[slot1 - 1].store(FREE, Ordering::SeqCst);
            }
        }
    }

    fn claim_slot() -> usize {
        let (slot1, depth, pins) = TLS.get();
        if slot1 != 0 {
            return slot1 - 1;
        }
        for (i, s) in SLOTS.iter().enumerate() {
            if s.load(Ordering::Relaxed) == FREE
                && s.compare_exchange(FREE, IDLE, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                TLS.set((i + 1, depth, pins));
                SLOT_RELEASER.with(|_| {}); // force registration of the destructor
                return i;
            }
        }
        panic!("crossbeam shim: more than {MAX_THREADS} concurrent threads");
    }

    /// Oldest era any pinned thread may still be reading under, or the
    /// current era when nobody is pinned.
    fn min_pinned_era() -> u64 {
        let now = ERA.load(Ordering::SeqCst);
        SLOTS
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .filter(|&v| v < IDLE)
            .min()
            .unwrap_or(now)
    }

    /// Advances the era and runs every deferred destructor whose era is
    /// strictly older than every pinned thread's era.
    fn collect() {
        ERA.fetch_add(1, Ordering::SeqCst);
        let min = min_pinned_era();
        let ready: Vec<Deferred> = {
            let mut g = match garbage().lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let mut ready = Vec::new();
            let mut i = 0;
            while i < g.len() {
                if g[i].era < min {
                    ready.push(g.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            ready
        };
        // Run destructors outside the lock: they may themselves defer.
        for d in ready {
            (d.call)();
        }
    }

    /// An RAII epoch pin (subset of `crossbeam_epoch::Guard`).
    pub struct Guard {
        _pinned: (),
    }

    /// Pins the current thread and returns a guard; memory deferred by other
    /// threads cannot be freed while the guard lives.
    pub fn pin() -> Guard {
        let slot = claim_slot();
        let (slot1, depth, pins) = TLS.get();
        if depth == 0 {
            // Publish the era, re-reading until it is stable so a concurrent
            // collector either sees our slot or we see its newer era.
            let mut e = ERA.load(Ordering::SeqCst);
            loop {
                SLOTS[slot].store(e, Ordering::SeqCst);
                let e2 = ERA.load(Ordering::SeqCst);
                if e2 == e {
                    break;
                }
                e = e2;
            }
        }
        TLS.set((slot1, depth + 1, pins + 1));
        if depth == 0 && pins.is_multiple_of(PINS_BETWEEN_COLLECT) {
            collect();
        }
        Guard { _pinned: () }
    }

    impl Guard {
        /// Defers `f` until all currently-pinned threads unpin.
        ///
        /// # Safety
        /// `f` will be called from an arbitrary thread once no guard from
        /// before this call is live; the closure (typically a deallocation of
        /// an already-unlinked node) must be sound under that contract.
        pub unsafe fn defer_unchecked<F, R>(&self, f: F)
        where
            F: FnOnce() -> R,
        {
            let call: Box<dyn FnOnce() + '_> = Box::new(move || {
                let _ = f();
            });
            // SAFETY: lifetime erasure is the documented contract of
            // defer_unchecked — the caller vouches the closure stays valid
            // until it runs.
            let call: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(call) };
            let era = ERA.load(Ordering::SeqCst);
            match garbage().lock() {
                Ok(mut g) => g.push(Deferred { era, call }),
                Err(p) => p.into_inner().push(Deferred { era, call }),
            }
        }
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            let (slot1, depth, pins) = TLS.get();
            debug_assert!(slot1 != 0 && depth > 0, "guard dropped off-thread");
            TLS.set((slot1, depth - 1, pins));
            if depth == 1 {
                SLOTS[slot1 - 1].store(IDLE, Ordering::SeqCst);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::AtomicU64 as StdAtomicU64;
        use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

        /// The epoch is process-global: a pin held by one test legitimately
        /// stalls collection in every other, so the tests of this module run
        /// one at a time. Each takes this first. (A failed test poisons the
        /// lock; the rest still run.)
        fn serial() -> MutexGuard<'static, ()> {
            static SERIAL: Mutex<()> = Mutex::new(());
            SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
        }

        #[test]
        fn deferred_work_eventually_runs() {
            let _serial = serial();
            let hits = Arc::new(StdAtomicU64::new(0));
            {
                let g = pin();
                for _ in 0..10 {
                    let hits = hits.clone();
                    unsafe {
                        g.defer_unchecked(move || {
                            hits.fetch_add(1, Ordering::SeqCst);
                        })
                    };
                }
            }
            // Unpinned now: repeated pins must eventually collect all 10.
            for _ in 0..(PINS_BETWEEN_COLLECT * 4) {
                drop(pin());
            }
            assert_eq!(hits.load(Ordering::SeqCst), 10);
        }

        #[test]
        fn pinned_reader_blocks_reclamation() {
            let _serial = serial();
            let hits = Arc::new(StdAtomicU64::new(0));
            let reader = pin();
            {
                let h = hits.clone();
                let g = pin();
                unsafe {
                    g.defer_unchecked(move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    })
                };
            }
            // Our own pin (from before the defer) must hold the garbage live.
            collect();
            collect();
            assert_eq!(hits.load(Ordering::SeqCst), 0);
            drop(reader);
            collect();
            assert_eq!(hits.load(Ordering::SeqCst), 1);
        }

        #[test]
        fn concurrent_defer_and_collect_stress() {
            let _serial = serial();
            let freed = Arc::new(StdAtomicU64::new(0));
            let mut handles = vec![];
            for _ in 0..4 {
                let freed = freed.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..500 {
                        let g = pin();
                        let f = freed.clone();
                        unsafe {
                            g.defer_unchecked(move || {
                                f.fetch_add(1, Ordering::SeqCst);
                            })
                        };
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            for _ in 0..(PINS_BETWEEN_COLLECT * 4) {
                drop(pin());
            }
            assert_eq!(freed.load(Ordering::SeqCst), 2000);
        }
    }
}
