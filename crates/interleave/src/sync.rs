//! Instrumented drop-in replacements for the std/parking_lot primitives the
//! protocol code uses. Outside a checker run (or in abort mode) every type
//! falls straight through to the real primitive with the caller's ordering,
//! so a binary compiled with the facade but not under `interleave::check`
//! behaves identically to one compiled without it.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;

use crate::exec::{current_ctx, set_ctx, Ctx};
use crate::model::MOrd;

pub(crate) fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Seeded-weakening hook: returns `ord` unless the current checker run was
/// configured to weaken `site`, in which case it returns `Relaxed`. The
/// protocol code tags its interesting publishes with this so CI fixtures
/// can prove the checker would catch a mis-ordering there.
///
/// The configured site may be a comma-separated list: the lock-free core
/// double-publishes some facts (e.g. the ring's slot `seq` and `tail`),
/// and a fixture for such a site has to weaken every delivering edge at
/// once to make the loss observable.
#[inline]
pub fn weaken(site: &str, ord: Ordering) -> Ordering {
    if seeded(site) {
        Ordering::Relaxed
    } else {
        ord
    }
}

/// Seeded-bug hook for bugs that are not orderings: true when the current
/// checker run was configured to weaken `site` (same comma-separated list as
/// [`weaken`]), so the protocol code can take its deliberately wrong branch.
#[inline]
pub fn seeded(site: &str) -> bool {
    current_ctx().is_some_and(|c| {
        c.exec
            .weaken_site
            .as_ref()
            .is_some_and(|w| w.split(',').any(|s| s.trim() == site))
    })
}

/// Voluntary yield point: under the checker this is a zero-cost context
/// switch the scheduler *must* take if another thread can run (livelock
/// fairness for spin loops); outside it is `std::hint::spin_loop`.
#[inline]
pub fn spin_loop() {
    if let Some(c) = current_ctx() {
        c.exec.yield_point(c.tid);
    } else {
        std::hint::spin_loop();
    }
}

/// Like [`spin_loop`] but maps to `std::thread::yield_now` outside a run.
#[inline]
pub fn yield_now() {
    if let Some(c) = current_ctx() {
        c.exec.yield_point(c.tid);
    } else {
        std::thread::yield_now();
    }
}

macro_rules! atomic_int {
    ($name:ident, $std:ident, $ty:ty) => {
        /// Instrumented atomic; `repr(transparent)` over the std type.
        #[repr(transparent)]
        #[derive(Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            pub const fn new(v: $ty) -> Self {
                Self {
                    inner: std::sync::atomic::$std::new(v),
                }
            }

            #[inline]
            fn loc(&self) -> usize {
                self as *const _ as usize
            }

            #[inline]
            fn cur(&self) -> u64 {
                self.inner.load(Ordering::Relaxed) as u64
            }

            pub fn load(&self, ord: Ordering) -> $ty {
                if let Some(c) = current_ctx() {
                    if let Some(v) = c
                        .exec
                        .load(c.tid, self.loc(), MOrd::from_std(ord), self.cur())
                    {
                        return v as $ty;
                    }
                }
                self.inner.load(ord)
            }

            pub fn store(&self, val: $ty, ord: Ordering) {
                if let Some(c) = current_ctx() {
                    if c.exec.store(
                        c.tid,
                        self.loc(),
                        MOrd::from_std(ord),
                        val as u64,
                        self.cur(),
                    ) {
                        self.inner.store(val, Ordering::SeqCst);
                        return;
                    }
                }
                self.inner.store(val, ord)
            }

            fn rmw_op(
                &self,
                ord: Ordering,
                f: &mut dyn FnMut(u64) -> Option<u64>,
                real: impl FnOnce() -> $ty,
            ) -> $ty {
                if let Some(c) = current_ctx() {
                    let m = MOrd::from_std(ord);
                    if let Some((old, new)) = c.exec.rmw(c.tid, self.loc(), m, m, self.cur(), f) {
                        if let Some(n) = new {
                            self.inner.store(n as $ty, Ordering::SeqCst);
                        }
                        return old as $ty;
                    }
                }
                real()
            }

            pub fn swap(&self, val: $ty, ord: Ordering) -> $ty {
                self.rmw_op(ord, &mut |_| Some(val as u64), || self.inner.swap(val, ord))
            }

            pub fn fetch_add(&self, val: $ty, ord: Ordering) -> $ty {
                self.rmw_op(
                    ord,
                    &mut |o| Some((o as $ty).wrapping_add(val) as u64),
                    || self.inner.fetch_add(val, ord),
                )
            }

            pub fn fetch_sub(&self, val: $ty, ord: Ordering) -> $ty {
                self.rmw_op(
                    ord,
                    &mut |o| Some((o as $ty).wrapping_sub(val) as u64),
                    || self.inner.fetch_sub(val, ord),
                )
            }

            pub fn fetch_max(&self, val: $ty, ord: Ordering) -> $ty {
                self.rmw_op(ord, &mut |o| Some((o as $ty).max(val) as u64), || {
                    self.inner.fetch_max(val, ord)
                })
            }

            /// Strong CAS. (`compare_exchange_weak` maps here too: spurious
            /// failure only adds retry paths the search covers anyway.)
            pub fn compare_exchange(
                &self,
                expected: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                if let Some(c) = current_ctx() {
                    let mut f = |o: u64| {
                        if o as $ty == expected {
                            Some(new as u64)
                        } else {
                            None
                        }
                    };
                    if let Some((old, wrote)) = c.exec.rmw(
                        c.tid,
                        self.loc(),
                        MOrd::from_std(success),
                        MOrd::from_std(failure),
                        self.cur(),
                        &mut f,
                    ) {
                        return if wrote.is_some() {
                            self.inner.store(new, Ordering::SeqCst);
                            Ok(old as $ty)
                        } else {
                            Err(old as $ty)
                        };
                    }
                }
                self.inner.compare_exchange(expected, new, success, failure)
            }

            pub fn compare_exchange_weak(
                &self,
                expected: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(expected, new, success, failure)
            }

            pub fn get_mut(&mut self) -> &mut $ty {
                self.inner.get_mut()
            }

            pub fn into_inner(self) -> $ty {
                self.inner.into_inner()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name))
                    .field(&self.inner.load(Ordering::Relaxed))
                    .finish()
            }
        }
    };
}

atomic_int!(AtomicU64, AtomicU64, u64);
atomic_int!(AtomicUsize, AtomicUsize, usize);
atomic_int!(AtomicU32, AtomicU32, u32);

impl AtomicU64 {
    /// Reinterprets a foreign `std` atomic (e.g. a word inside a
    /// memory-mapped pool) as an instrumented one. Sound because the type
    /// is `repr(transparent)`.
    pub fn from_std(a: &std::sync::atomic::AtomicU64) -> &AtomicU64 {
        // SAFETY: repr(transparent) over std::sync::atomic::AtomicU64.
        unsafe { &*(a as *const std::sync::atomic::AtomicU64 as *const AtomicU64) }
    }
}

/// Free-function alias for [`AtomicU64::from_std`] so downstream facades can
/// re-export one name for both the real and instrumented builds.
pub fn from_std(a: &std::sync::atomic::AtomicU64) -> &AtomicU64 {
    AtomicU64::from_std(a)
}

/// Instrumented atomic bool (modeled as 0/1 in the value history).
#[repr(transparent)]
#[derive(Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub const fn new(v: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }
    fn loc(&self) -> usize {
        self as *const _ as usize
    }
    pub fn load(&self, ord: Ordering) -> bool {
        if let Some(c) = current_ctx() {
            let cur = self.inner.load(Ordering::Relaxed) as u64;
            if let Some(v) = c.exec.load(c.tid, self.loc(), MOrd::from_std(ord), cur) {
                return v != 0;
            }
        }
        self.inner.load(ord)
    }
    pub fn store(&self, val: bool, ord: Ordering) {
        if let Some(c) = current_ctx() {
            let cur = self.inner.load(Ordering::Relaxed) as u64;
            if c.exec
                .store(c.tid, self.loc(), MOrd::from_std(ord), val as u64, cur)
            {
                self.inner.store(val, Ordering::SeqCst);
                return;
            }
        }
        self.inner.store(val, ord)
    }
    pub fn swap(&self, val: bool, ord: Ordering) -> bool {
        if let Some(c) = current_ctx() {
            let cur = self.inner.load(Ordering::Relaxed) as u64;
            let mut f = |_| Some(val as u64);
            let m = MOrd::from_std(ord);
            if let Some((old, _)) = c.exec.rmw(c.tid, self.loc(), m, m, cur, &mut f) {
                self.inner.store(val, Ordering::SeqCst);
                return old != 0;
            }
        }
        self.inner.swap(val, ord)
    }
    pub fn compare_exchange(
        &self,
        expected: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        if let Some(c) = current_ctx() {
            let cur = self.inner.load(Ordering::Relaxed) as u64;
            let mut f = |o: u64| {
                if (o != 0) == expected {
                    Some(new as u64)
                } else {
                    None
                }
            };
            if let Some((old, wrote)) = c.exec.rmw(
                c.tid,
                self.loc(),
                MOrd::from_std(success),
                MOrd::from_std(failure),
                cur,
                &mut f,
            ) {
                return if wrote.is_some() {
                    self.inner.store(new, Ordering::SeqCst);
                    Ok(old != 0)
                } else {
                    Err(old != 0)
                };
            }
        }
        self.inner.compare_exchange(expected, new, success, failure)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicBool")
            .field(&self.inner.load(Ordering::Relaxed))
            .finish()
    }
}

/// Instrumented atomic pointer (modeled as the address value).
#[repr(transparent)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    pub const fn new(p: *mut T) -> Self {
        Self {
            inner: std::sync::atomic::AtomicPtr::new(p),
        }
    }
    fn loc(&self) -> usize {
        self as *const _ as usize
    }
    pub fn load(&self, ord: Ordering) -> *mut T {
        if let Some(c) = current_ctx() {
            let cur = self.inner.load(Ordering::Relaxed) as usize as u64;
            if let Some(v) = c.exec.load(c.tid, self.loc(), MOrd::from_std(ord), cur) {
                return v as usize as *mut T;
            }
        }
        self.inner.load(ord)
    }
    pub fn store(&self, p: *mut T, ord: Ordering) {
        if let Some(c) = current_ctx() {
            let cur = self.inner.load(Ordering::Relaxed) as usize as u64;
            if c.exec.store(
                c.tid,
                self.loc(),
                MOrd::from_std(ord),
                p as usize as u64,
                cur,
            ) {
                self.inner.store(p, Ordering::SeqCst);
                return;
            }
        }
        self.inner.store(p, ord)
    }
    pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
        if let Some(c) = current_ctx() {
            let cur = self.inner.load(Ordering::Relaxed) as usize as u64;
            let mut f = |_| Some(p as usize as u64);
            let m = MOrd::from_std(ord);
            if let Some((old, _)) = c.exec.rmw(c.tid, self.loc(), m, m, cur, &mut f) {
                self.inner.store(p, Ordering::SeqCst);
                return old as usize as *mut T;
            }
        }
        self.inner.swap(p, ord)
    }
    pub fn compare_exchange(
        &self,
        expected: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        if let Some(c) = current_ctx() {
            let cur = self.inner.load(Ordering::Relaxed) as usize as u64;
            let mut f = |o: u64| {
                if o == expected as usize as u64 {
                    Some(new as usize as u64)
                } else {
                    None
                }
            };
            if let Some((old, wrote)) = c.exec.rmw(
                c.tid,
                self.loc(),
                MOrd::from_std(success),
                MOrd::from_std(failure),
                cur,
                &mut f,
            ) {
                return if wrote.is_some() {
                    self.inner.store(new, Ordering::SeqCst);
                    Ok(old as usize as *mut T)
                } else {
                    Err(old as usize as *mut T)
                };
            }
        }
        self.inner.compare_exchange(expected, new, success, failure)
    }
    pub fn compare_exchange_weak(
        &self,
        expected: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        self.compare_exchange(expected, new, success, failure)
    }
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

/// Instrumented mutex with a parking_lot-style infallible `lock()`.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    // Declared before `release` so the model unlock in `release`'s Drop
    // runs while... see Drop impl: we implement Drop manually to order the
    // model unlock before the real unlock.
    guard: Option<std::sync::MutexGuard<'a, T>>,
    ctx: Option<(Ctx, usize)>,
}

impl<T> Mutex<T> {
    pub const fn new(v: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(v),
        }
    }
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn loc(&self) -> usize {
        self as *const _ as *const () as usize
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let loc = self.loc();
        if let Some(c) = current_ctx() {
            if c.exec.mutex_lock(c.tid, loc) {
                // The model serializes lock grants, so the real lock below
                // is uncontended (every other in-run thread is parked).
                let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                return MutexGuard {
                    guard: Some(guard),
                    ctx: Some((c, loc)),
                };
            }
        }
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            ctx: None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<'a, T: ?Sized> std::ops::Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard live")
    }
}

impl<'a, T: ?Sized> std::ops::DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard live")
    }
}

impl<'a, T: ?Sized> Drop for MutexGuard<'a, T> {
    fn drop(&mut self) {
        // Model unlock first (a schedule point), then the real unlock. No
        // other in-run thread is granted until this thread parks again, so
        // the window where model-free ≠ real-free is unobservable.
        if let Some((c, loc)) = self.ctx.take() {
            c.exec.mutex_unlock(c.tid, loc);
        }
        self.guard = None;
    }
}

/// Cooperative thread handles: spawns a real OS thread registered with the
/// current execution (plain `std::thread::spawn` outside a run).
pub mod thread {
    use super::*;

    pub struct JoinHandle<T> {
        inner: Option<std::thread::JoinHandle<T>>,
        tid: Option<usize>,
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if let Some(c) = current_ctx() {
            if let Some(child) = c.exec.op_spawn(c.tid) {
                let exec = c.exec.clone();
                let h = std::thread::spawn(move || {
                    set_ctx(Some(Ctx {
                        exec: exec.clone(),
                        tid: child,
                    }));
                    exec.op_begin(child);
                    let r = std::panic::catch_unwind(AssertUnwindSafe(f));
                    match r {
                        Ok(v) => {
                            exec.op_finish(child);
                            v
                        }
                        Err(p) => {
                            exec.record_panic(child, panic_msg(p.as_ref()));
                            exec.op_finish(child);
                            std::panic::resume_unwind(p)
                        }
                    }
                });
                return JoinHandle {
                    inner: Some(h),
                    tid: Some(child),
                };
            }
        }
        JoinHandle {
            inner: Some(std::thread::spawn(f)),
            tid: None,
        }
    }

    impl<T> JoinHandle<T> {
        pub fn join(mut self) -> std::thread::Result<T> {
            if let Some(tid) = self.tid {
                if let Some(c) = current_ctx() {
                    c.exec.op_join(c.tid, tid);
                }
            }
            self.inner.take().expect("handle not yet joined").join()
        }
    }
}
