//! Offline shim for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! a minimal, API-compatible subset of `parking_lot` on top of `std::sync`.
//! Poisoning is swallowed (parking_lot mutexes are poison-free): a panicked
//! critical section yields the inner data as-is, matching parking_lot
//! semantics closely enough for this workspace's usage (plain `lock()`,
//! `Mutex::default`, guards held across scopes, `Condvar` waits).

use std::ops::{Deref, DerefMut};

/// Poison-free mutual exclusion, API-compatible with `parking_lot::Mutex`.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(val: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(val),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            },
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable, API-compatible with `parking_lot::Condvar` (the
/// `&mut MutexGuard` waiting style, rather than `std`'s by-value style).
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Aborts the process if dropped; armed around the by-value wait below so a
/// panic inside `std`'s wait cannot unwind past a duplicated guard (which
/// would double-unlock the mutex — UB). Disarmed with `mem::forget` on the
/// normal path.
struct AbortBomb;

impl Drop for AbortBomb {
    fn drop(&mut self) {
        std::process::abort();
    }
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Bridges parking_lot's `&mut guard` wait to `std`'s by-value wait:
    /// moves the inner guard out, runs `f`, writes the returned guard back.
    fn requeue<'a, T, F>(&self, guard: &mut MutexGuard<'a, T>, f: F) -> bool
    where
        F: FnOnce(std::sync::MutexGuard<'a, T>) -> (std::sync::MutexGuard<'a, T>, bool),
    {
        // SAFETY: `inner` is moved out by value and unconditionally written
        // back before the borrow ends; the moved-from slot is overwritten
        // with `ptr::write`, never dropped. If `f` unwinds after consuming
        // the guard the bomb aborts instead of letting the duplicate drop.
        unsafe {
            let taken = std::ptr::read(&guard.inner);
            let bomb = AbortBomb;
            let (new, timed_out) = f(taken);
            std::mem::forget(bomb);
            std::ptr::write(&mut guard.inner, new);
            timed_out
        }
    }

    /// Blocks until notified. Like parking_lot (and unlike raw futexes in
    /// general), spurious wakeups are possible; callers loop on a predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.requeue(guard, |g| {
            let g = match self.inner.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            (g, false)
        });
    }

    /// Blocks until notified or `deadline` passes; reports which happened.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: std::time::Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(std::time::Instant::now());
        let timed_out = self.requeue(guard, |g| match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r.timed_out())
            }
        });
        WaitTimeoutResult(timed_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn default_holds_the_default() {
        let m: Mutex<u64> = Mutex::default();
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn condvar_notify_and_timeout() {
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*pair;
            let mut g = m.lock();
            *g = true;
            cv.notify_all();
        }
        t.join().unwrap();

        // Timed wait on a predicate that never turns true must time out and
        // hand the (still-locked) guard back.
        let (m, cv) = &*pair;
        let mut g = m.lock();
        let deadline = Instant::now() + Duration::from_millis(10);
        let res = cv.wait_until(&mut g, deadline);
        assert!(res.timed_out());
        assert!(*g, "guard still protects the data after a timeout");
    }
}
