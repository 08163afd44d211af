//! The pool: working image, durable image, flush/fence, crash.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{PmemConfig, PmemMode};
use crate::fault::PmemFault;
use crate::layout::{line_of, lines_spanned, POff, CACHE_LINE};
#[cfg(feature = "persist-san")]
use crate::san::{ProbeGuard, SanReport, SanState};
use crate::stats::PmemStats;

/// Unique id per pool instance ([`PmemPool::id`]).
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

struct Working {
    /// The image: the first page boundary inside the block at `base`.
    ptr: *mut u8,
    base: *mut u8,
    layout: Layout,
}

impl Drop for Working {
    fn drop(&mut self) {
        // SAFETY: `base` came from `alloc_zeroed(self.layout)` in
        // `PmemPool::new` (`ptr` is the page boundary inside it) and is freed
        // exactly once (Working is owned by the pool's Arc'd Inner).
        unsafe { dealloc(self.base, self.layout) };
    }
}

// SAFETY: the working image models shared physical memory; concurrent access
// discipline is the responsibility of the code running on top of it (exactly
// as with real DAX-mapped NVM). The pointer itself is never reallocated.
unsafe impl Send for Working {}
unsafe impl Sync for Working {}

/// Parking state for the stall fault plan
/// ([`crate::ChaosConfig::stall_at_event`]).
#[derive(Default)]
struct StallState {
    /// Set (once) by the thread whose event charge crossed the threshold;
    /// guarantees exactly one victim parks per pool.
    claimed: AtomicBool,
    flags: Mutex<StallFlags>,
    cv: Condvar,
}

#[derive(Default)]
struct StallFlags {
    /// A victim is currently parked inside `charge_events`.
    parked: bool,
    /// [`PmemPool::release_stalled`] was called (sticky; a victim arriving
    /// after the release never parks).
    released: bool,
}

struct Inner {
    id: u64,
    config: PmemConfig,
    stats: PmemStats,
    working: Working,
    /// Durable shadow image, present only in [`PmemMode::Strict`].
    durable: Option<Mutex<Box<[u8]>>>,
    /// Strict mode: the end of the highest line ever drained (clamped to the
    /// pool size); `durable` is zero past it, and a `crash` copies only up to
    /// it.
    durable_hwm: AtomicUsize,
    /// Strict mode: lines `clwb`'d but not yet made durable by a fence. A
    /// **pool-global** set: `CLWB` starts a write-back that completes whoever
    /// fences, and Montage's epoch protocol depends on exactly that (the
    /// boundary fence "waits for the writes-back to complete", paper Sec.
    /// 3.2), so a fence drains every pending line; lines no fence follows
    /// before a crash are lost. A set, as re-`clwb`ing a pending line is
    /// idempotent on hardware (`lines_drained` counts unique lines).
    pending: Mutex<HashSet<u64>>,
    /// Running persistence-event count. Only advanced while the fault plan
    /// ([`crate::ChaosConfig::crash_at_event`]) is armed; see
    /// [`PmemPool::persistence_events`].
    events: AtomicU64,
    /// Set once the event count reaches the fault plan's crash point. From
    /// then on flushes and fences are dropped (the durable image is frozen)
    /// and the checked operations report [`PmemFault::Crashed`].
    poisoned: AtomicBool,
    /// Parking state for the stall fault plan; see
    /// [`crate::ChaosConfig::stall_at_event`].
    stall: StallState,
    /// Fast mode's stand-in for `pending`: the `clwbs` count the last fence
    /// drained up to. Feeds only `lines_drained`; timing is `device_busy`'s.
    fenced_clwbs: AtomicU64,
    /// Timebase for the simulated device timeline below.
    origin: Instant,
    /// Nanosecond (since `origin`) at which this pool's simulated NVM device
    /// finishes everything queued so far — the DIMM's write-pending queue as
    /// one serial timeline. A write-back joins it at `clwb` and drains from
    /// then on, whatever the CPU does next; bulk reads queue on it too. A
    /// fence reserves nothing: it blocks — sleeping, not spinning — for what
    /// the timeline still holds at issue. Fences on one pool wait out one
    /// shared queue; distinct pools drain side by side.
    device_busy: AtomicU64,
    /// Per-cache-line shadow persistency state (the `persist-san`
    /// sanitizer); see the [`crate::san`] module docs.
    #[cfg(feature = "persist-san")]
    san: SanState,
}

/// A simulated persistent-memory pool. Cheap to clone (it is an `Arc`).
///
/// See the [crate docs](crate) for the semantics. All accessor methods take
/// offsets ([`POff`]); raw-pointer access is available via [`PmemPool::at`]
/// for code that needs atomics or in-place structs, with the same aliasing
/// obligations as real shared memory.
#[derive(Clone)]
pub struct PmemPool {
    inner: Arc<Inner>,
}

impl PmemPool {
    /// Allocates a fresh, zero-filled pool. Its images are zeroed lazily, as
    /// a DAX mapping is: `config.size + 4096` bytes at alignment 16 take
    /// std's `calloc` path, whose large blocks are fresh anonymous pages, so
    /// a page becomes resident only when first touched. The working image
    /// starts at the first page boundary inside that block, which keeps each
    /// simulated 64-byte line one hardware line.
    pub fn new(config: PmemConfig) -> Self {
        assert!(config.size >= crate::ROOT_AREA_SIZE, "pool too small");
        assert_eq!(
            config.size % CACHE_LINE,
            0,
            "pool size must be line-aligned"
        );
        let layout = Layout::from_size_align(config.size + 4096, 16).expect("pool layout");
        // SAFETY: the layout has non-zero size.
        let base = unsafe { alloc_zeroed(layout) };
        assert!(!base.is_null(), "pool allocation failed");
        // SAFETY: `base` is 16-aligned, so the pad is at most 4080 bytes and
        // `pad + config.size` stays inside the block.
        let ptr = unsafe { base.add(base.addr().wrapping_neg() & 4095) };
        let durable = match config.mode {
            PmemMode::Strict => Some(Mutex::new(vec![0u8; config.size].into_boxed_slice())),
            PmemMode::Fast => None,
        };
        PmemPool {
            inner: Arc::new(Inner {
                id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
                config,
                stats: PmemStats::default(),
                working: Working { ptr, base, layout },
                durable,
                durable_hwm: AtomicUsize::new(0),
                pending: Mutex::new(HashSet::new()),
                events: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
                stall: StallState::default(),
                fenced_clwbs: AtomicU64::new(0),
                origin: Instant::now(),
                device_busy: AtomicU64::new(0),
                #[cfg(feature = "persist-san")]
                san: SanState::new(config.size),
            }),
        }
    }

    /// Pool size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.inner.config.size
    }

    /// Process-unique pool id. Multi-pool front-ends (the sharded kv store)
    /// use this to tell shards' pools apart in reports and stats keys.
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The pool's configuration.
    #[inline]
    pub fn config(&self) -> &PmemConfig {
        &self.inner.config
    }

    /// Persistence statistics.
    #[inline]
    pub fn stats(&self) -> &PmemStats {
        &self.inner.stats
    }

    // ---- fault plan ---------------------------------------------------------

    /// Charges `n` persistence events against the fault plans and returns
    /// how many of them take effect. With no plan armed, accounting is
    /// skipped and all `n` take effect. Once the running count reaches the
    /// crash plan's point the pool is poisoned and every later event is
    /// dropped — a partial charge models a crash landing *inside* a
    /// multi-line flush. The stall plan parks the thread whose charge
    /// crossed its threshold (after the crash-plan check, so a charge that
    /// crosses both poisons first and the park becomes a no-op); straggler
    /// mode injects a seeded per-event delay.
    #[inline]
    fn charge_events(&self, n: u64) -> u64 {
        let chaos = &self.inner.config.chaos;
        if chaos.crash_at_event.is_none()
            && chaos.stall_at_event.is_none()
            && chaos.straggler_permille == 0
        {
            return n;
        }
        let before = self.inner.events.fetch_add(n, Ordering::Relaxed);
        if chaos.straggler_permille > 0
            && event_roll(chaos.seed, before) < chaos.straggler_permille as u64
        {
            std::thread::sleep(std::time::Duration::from_micros(
                chaos.straggler_delay_us as u64,
            ));
        }
        let eff = match chaos.crash_at_event {
            None => n,
            Some(plan) => {
                if before.saturating_add(n) >= plan
                    && self
                        .inner
                        .poisoned
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    self.inner.stats.on_injected_crash();
                    // A parked victim belongs to the execution that just
                    // died; wake it so its thread can observe the fault and
                    // unwind instead of hanging past the crash.
                    self.wake_stalled();
                }
                if before >= plan {
                    0
                } else {
                    (plan - before).min(n)
                }
            }
        };
        if let Some(stall) = chaos.stall_at_event {
            if before < stall && before.saturating_add(n) >= stall {
                self.park_at_stall_point();
            }
        }
        eff
    }

    /// Parks the calling thread — the stall fault plan tripped on its event
    /// charge — until [`PmemPool::release_stalled`] or pool poisoning. Cold
    /// and outlined: fires at most once per pool. The park happens *inside*
    /// the flush/fence/store that crossed the threshold, before any pool
    /// lock is taken, so peers' persistence primitives keep working; any
    /// locks the victim holds in the layers above (a bucket mutex, an open
    /// operation's epoch reservation) stay held, which is exactly the
    /// adversarial schedule liveness tests need.
    #[cold]
    fn park_at_stall_point(&self) {
        let st = &self.inner.stall;
        if st
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        self.inner.stats.on_stall();
        let mut flags = st.flags.lock();
        flags.parked = true;
        st.cv.notify_all(); // wake `await_stalled` watchers
        while !flags.released && !self.is_poisoned() {
            st.cv.wait(&mut flags);
        }
        flags.parked = false;
        st.cv.notify_all();
    }

    /// Wakes a parked stall victim so it can re-check its wait condition
    /// (used by the poisoning paths; does not itself release the stall).
    fn wake_stalled(&self) {
        let st = &self.inner.stall;
        let _flags = st.flags.lock();
        st.cv.notify_all();
    }

    /// Blocks until the stall fault plan has parked its victim or `timeout`
    /// elapses; returns whether a thread is parked. Harness entry point:
    /// arm [`crate::ChaosConfig::stall_at_event`], start the workload, and
    /// `await_stalled` before exercising the peers.
    pub fn await_stalled(&self, timeout: std::time::Duration) -> bool {
        let st = &self.inner.stall;
        let deadline = Instant::now() + timeout;
        let mut flags = st.flags.lock();
        while !flags.parked {
            if st.cv.wait_until(&mut flags, deadline).timed_out() {
                return flags.parked;
            }
        }
        true
    }

    /// Number of threads currently parked by the stall plan (0 or 1).
    pub fn stalled_count(&self) -> usize {
        usize::from(self.inner.stall.flags.lock().parked)
    }

    /// Releases a thread parked by the stall fault plan. Idempotent, and
    /// safe to call before the victim parks — the release is sticky, so a
    /// victim arriving later passes straight through.
    pub fn release_stalled(&self) {
        let st = &self.inner.stall;
        let mut flags = st.flags.lock();
        flags.released = true;
        st.cv.notify_all();
    }

    /// Persistence events charged so far. Counting happens only while a
    /// fault plan is armed (`chaos.crash_at_event` / `chaos.stall_at_event`
    /// is `Some`, or straggler mode is on); a sweep harness's counting pass
    /// arms `Some(u64::MAX)` to count without ever crashing.
    #[inline]
    pub fn persistence_events(&self) -> u64 {
        self.inner.events.load(Ordering::Relaxed)
    }

    /// Whether the fault plan has tripped.
    #[inline]
    fn is_poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Acquire)
    }

    /// The pending fault, if the fault plan has tripped.
    #[inline]
    pub fn fault(&self) -> Option<PmemFault> {
        if self.is_poisoned() {
            Some(PmemFault::Crashed {
                at_event: self.inner.config.chaos.crash_at_event.unwrap_or(0),
            })
        } else {
            None
        }
    }

    /// `Err` once the fault plan has tripped; for cooperative early exits in
    /// code that wants to stop doing doomed work.
    #[inline]
    pub fn check_fault(&self) -> Result<(), PmemFault> {
        match self.fault() {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    #[inline]
    fn check(&self, off: POff, len: usize) {
        debug_assert!(
            (off.raw() as usize)
                .checked_add(len)
                .is_some_and(|end| end <= self.inner.config.size),
            "pmem access out of bounds: off={off:?} len={len}"
        );
    }

    /// Raw pointer to offset `off`, viewed as `T`.
    ///
    /// # Safety
    /// The caller must respect `T`'s alignment at `off`, stay in bounds, and
    /// coordinate concurrent access exactly as it would for shared memory.
    #[inline]
    pub unsafe fn at<T>(&self, off: POff) -> *mut T {
        self.check(off, std::mem::size_of::<T>());
        self.inner.working.ptr.add(off.raw() as usize).cast::<T>()
    }

    /// Reads a `Copy` value at `off`.
    ///
    /// # Safety
    /// As for [`PmemPool::at`]; additionally the bytes must be a valid `T`.
    #[inline]
    #[track_caller]
    pub unsafe fn read<T: Copy>(&self, off: POff) -> T {
        #[cfg(feature = "persist-san")]
        self.inner.san.on_read(
            off.raw(),
            std::mem::size_of::<T>(),
            std::panic::Location::caller(),
        );
        self.at::<T>(off).read()
    }

    /// Writes a `Copy` value at `off` (store only; not persistent until
    /// flushed and fenced).
    ///
    /// The store always reaches the *working* image, even on a poisoned
    /// pool: a real crash discards the caches (our working image) anyway,
    /// so letting the doomed execution keep storing is indistinguishable
    /// from the recovered pool's point of view, and it keeps in-memory
    /// structures coherent for threads that have not yet observed the
    /// fault. What a poisoned pool cuts off is *durability* (flush/fence).
    ///
    /// # Safety
    /// As for [`PmemPool::at`].
    #[inline]
    #[track_caller]
    pub unsafe fn write<T: Copy>(&self, off: POff, val: &T) {
        self.charge_events(1);
        #[cfg(feature = "persist-san")]
        self.inner.san.on_write(
            off.raw(),
            std::mem::size_of::<T>(),
            std::panic::Location::caller(),
        );
        self.at::<T>(off).write(*val);
    }

    /// Like [`PmemPool::write`], but declares the store *transient by
    /// design*: never flushed, reconstructed from scratch on recovery
    /// (allocator free-list links are the canonical case). Charges the same
    /// single persistence event as `write`, so fault-plan sweep points are
    /// identical whichever of the two a call site uses; under `persist-san`
    /// the line is exempt from the epoch-boundary check (unless it also
    /// holds an unflushed tracked store).
    ///
    /// # Safety
    /// As for [`PmemPool::at`].
    #[inline]
    pub unsafe fn write_transient<T: Copy>(&self, off: POff, val: &T) {
        self.charge_events(1);
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_write_transient(off.raw(), std::mem::size_of::<T>());
        self.at::<T>(off).write(*val);
    }

    /// Copies `src` into the pool at `off`. Like [`PmemPool::write`], the
    /// store lands in the working image even on a poisoned pool.
    #[track_caller]
    pub fn write_bytes(&self, off: POff, src: &[u8]) {
        self.charge_events(1);
        self.check(off, src.len());
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_write(off.raw(), src.len(), std::panic::Location::caller());
        // SAFETY: `check` verified `[off, off+len)` is in bounds; nothing
        // stores to `src` while it is borrowed (see `bytes` when it lies in
        // the working image), so it cannot overlap the destination.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.inner.working.ptr.add(off.raw() as usize),
                src.len(),
            );
        }
    }

    /// Copies `dst.len()` bytes out of the pool at `off`.
    #[track_caller]
    pub fn read_bytes(&self, off: POff, dst: &mut [u8]) {
        self.check(off, dst.len());
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_read(off.raw(), dst.len(), std::panic::Location::caller());
        // SAFETY: `check` verified `[off, off+len)` is in bounds; `dst` is an
        // exclusive borrow, so it cannot alias the working image.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.inner.working.ptr.add(off.raw() as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
    }

    /// Borrows `len` bytes of the working image at `off`: a read where the
    /// bytes lie (one sanitizer read over the extent), no copy out.
    ///
    /// # Safety
    /// As for [`PmemPool::at`]; additionally nothing may store to the extent
    /// while the borrow lives.
    #[inline]
    #[track_caller]
    pub unsafe fn bytes(&self, off: POff, len: usize) -> &[u8] {
        self.check(off, len);
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_read(off.raw(), len, std::panic::Location::caller());
        std::slice::from_raw_parts(self.inner.working.ptr.add(off.raw() as usize), len)
    }

    /// An atomic `u64` view of the 8 bytes at `off` (must be 8-aligned).
    ///
    /// # Safety
    /// `off` must be 8-byte aligned and in bounds; all accesses to those
    /// bytes must go through atomics while this view is in use.
    #[inline]
    pub unsafe fn atomic_u64(&self, off: POff) -> &AtomicU64 {
        debug_assert_eq!(off.raw() % 8, 0, "atomic_u64 requires 8-byte alignment");
        &*(self.at::<u64>(off) as *const AtomicU64)
    }

    /// Models a dependent load that misses the CPU caches into NVM media.
    /// Pointer-chasing structures call this once per node dereference; it
    /// charges `media_read_ns` (a latency, not a bandwidth, cost).
    #[inline]
    pub fn touch(&self) {
        PmemStats::on_read(&self.inner.stats.touches, 1);
        charge_issue(self.inner.config.latency.media_read_ns, false);
    }

    /// Models a bulk payload read of `len` bytes from NVM media: reserves
    /// `media_read_line_ns` per cache line on the pool's device queue, so
    /// large reads contend with fence drains for the DIMM's bandwidth.
    /// Free when the latency model's `media_read_line_ns` is zero.
    #[inline]
    pub fn media_read(&self, len: usize) {
        let lines = lines_spanned(0, len);
        PmemStats::on_read(&self.inner.stats.media_read_lines, lines);
        let media_ns = self.inner.config.latency.media_read_line_ns * lines;
        if media_ns > 0 {
            wait_until(self.reserve_device(media_ns));
        }
    }

    // ---- persistence primitives -------------------------------------------

    /// `CLWB`: start the write-back of the cache line containing `off`. The
    /// line is durable once a later [`PmemPool::sfence`] — any thread's —
    /// has returned.
    #[inline]
    #[track_caller]
    pub fn clwb(&self, off: POff) {
        self.clwb_range(off, 1);
    }

    /// `CLWB` every cache line in `[off, off+len)`.
    #[track_caller]
    pub fn clwb_range(&self, off: POff, len: usize) {
        self.check(off, len);
        let first = line_of(off.raw());
        self.write_back_lines(first.., lines_spanned(off.raw(), len));
    }

    /// Exactly `offs.len()` back-to-back [`PmemPool::clwb`]s (events, records,
    /// counts per line), at one issue charge and one device reservation.
    #[track_caller]
    pub fn clwb_lines(&self, offs: &[POff]) {
        offs.iter().for_each(|&off| self.check(off, 1));
        let lines = offs.iter().map(|off| line_of(off.raw()));
        self.write_back_lines(lines, offs.len() as u64);
    }

    /// Starts the write-back of the first `n` of `lines`: their issue cost at
    /// once, their drain on the device timeline, where it runs down on its own.
    #[track_caller]
    fn write_back_lines(&self, lines: impl Iterator<Item = u64> + Clone, n: u64) {
        if n == 0 {
            return;
        }
        // One event per line, so a crash point can land *inside* the batch:
        // the first `eff` lines get their write-back, the rest never start.
        let eff = self.charge_events(n);
        let lines = lines.take(eff as usize);
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_clwb(lines.clone(), std::panic::Location::caller());
        // A line already pending in the queue takes no second slot.
        let queued = if self.inner.durable.is_some() {
            let mut p = self.inner.pending.lock();
            lines.filter(|&line| p.insert(line)).count() as u64
        } else {
            eff
        };
        self.inner.stats.on_clwb(n);
        let lat = &self.inner.config.latency;
        charge_issue(lat.clwb_issue_ns * n, false);
        // Reserved from the thread's virtual time, after the issue cost, so
        // a fence that follows at once still waits the whole configured drain.
        let drain_ns = queued * (lat.fence_per_line_ns + lat.media_write_ns);
        if drain_ns > 0 {
            self.reserve_device(drain_ns);
        }
    }

    /// `SFENCE`: returns once every write-back started before it has drained.
    #[track_caller]
    pub fn sfence(&self) {
        let ticket = self.sfence_issue();
        ticket.wait();
    }

    /// The issue half of [`PmemPool::sfence`]: everything a fence does
    /// except block on the device. The ticket holds when the pool's timeline
    /// runs out as of now (`None`: already idle). A thread may issue fences
    /// on several pools before waiting on any (the drains overlap, as under
    /// one hardware `SFENCE` over lines headed to different DIMMs), but may
    /// claim nothing durable before the wait.
    #[track_caller]
    pub fn sfence_issue(&self) -> FenceTicket {
        // A fence is a single event: either the whole drain happens before
        // the crash point or none of it does (pending lines die unfenced).
        if self.charge_events(1) == 0 {
            self.inner.stats.on_sfence(0);
            return FenceTicket { done: None };
        }
        #[cfg(feature = "persist-san")]
        self.inner.san.on_sfence(std::panic::Location::caller());
        let drained = if let Some(durable) = &self.inner.durable {
            let lines = std::mem::take(&mut *self.inner.pending.lock());
            let mut dur = durable.lock();
            for &line in &lines {
                self.drain_line_prefix(&mut dur, line, CACHE_LINE);
            }
            lines.len() as u64
        } else {
            let clwbs = self.inner.stats.clwbs.load(Ordering::Relaxed);
            let fenced = self.inner.fenced_clwbs.fetch_max(clwbs, Ordering::Relaxed);
            clwbs.saturating_sub(fenced)
        };
        self.inner.stats.on_sfence(drained);
        // The fence instruction itself is CPU time for the calling thread.
        charge_issue(self.inner.config.latency.fence_base_ns, true);
        let backlog = self.device_backlog();
        FenceTicket {
            done: (!backlog.is_zero()).then(|| Instant::now() + backlog),
        }
    }

    /// How far behind the medium is: the time this pool's device still needs
    /// for everything queued on it (zero when idle).
    pub fn device_backlog(&self) -> std::time::Duration {
        let busy = self.inner.device_busy.load(Ordering::Acquire);
        std::time::Duration::from_nanos(busy).saturating_sub(self.inner.origin.elapsed())
    }

    /// Queues `media_ns` on the `device_busy` timeline from the thread's
    /// virtual time (clock + owed issue time); returns when it will be done.
    fn reserve_device(&self, media_ns: u64) -> Instant {
        let owed = OWED_NS.with(|o| o.get().max(0) as u64);
        let now = self.inner.origin.elapsed().as_nanos() as u64 + owed;
        let done = self
            .inner
            .device_busy
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |busy| {
                Some(busy.max(now) + media_ns)
            })
            .expect("device reservation always succeeds")
            .max(now)
            + media_ns;
        self.inner.origin + std::time::Duration::from_nanos(done)
    }

    /// Convenience: `clwb_range` + `sfence`.
    #[track_caller]
    pub fn persist_range(&self, off: POff, len: usize) {
        self.clwb_range(off, len);
        self.sfence();
    }

    /// Runs `op` as a *checked operation*: `Err` without running it once the
    /// fault plan has tripped, and `Err` after it when `op` itself is what
    /// trips the plan — so cooperative code (sweep workloads, chaos
    /// harnesses) unwinds instead of continuing a doomed execution. On an
    /// unpoisoned pool it is exactly `Ok(op())`. The one checked path: wrap
    /// any plain verb of this pool or of a structure living in it.
    #[inline]
    pub fn checked<R>(&self, op: impl FnOnce() -> R) -> Result<R, PmemFault> {
        self.check_fault()?;
        let out = op();
        self.check_fault().map(|()| out)
    }

    /// Copies the first `bytes` bytes of `line` from the working image to
    /// the durable image (whole line for a normal drain, a prefix for a
    /// torn write-back).
    fn drain_line_prefix(&self, durable: &mut [u8], line: u64, bytes: usize) {
        let start = (line as usize) * CACHE_LINE;
        let end = (start + bytes.min(CACHE_LINE)).min(self.inner.config.size);
        self.inner.durable_hwm.fetch_max(end, Ordering::Relaxed);
        // SAFETY: `start..end` is clamped to the pool size; `durable` is a
        // separate heap allocation of the same size.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.inner.working.ptr.add(start),
                durable.as_mut_ptr().add(start),
                end - start,
            );
        }
    }

    // ---- crash simulation --------------------------------------------------

    /// Simulates a whole-machine power failure and restart.
    ///
    /// Returns a new pool whose contents are exactly the durable image: only
    /// data that was `clwb`'d and fenced (plus chaos-mode spontaneous
    /// evictions) survives. Panics in [`PmemMode::Fast`], which has no
    /// durable image.
    ///
    /// All other threads must have stopped using the old pool; lingering
    /// writes after the crash point would be lost on real hardware too, but
    /// here they would race with the image copy.
    pub fn crash(&self) -> PmemPool {
        let durable = self
            .inner
            .durable
            .as_ref()
            .expect("crash() requires PmemMode::Strict");
        self.inner.stats.on_crash();

        let mut dur = durable.lock();
        let chaos = self.inner.config.chaos;
        let crashes = self.inner.stats.crashes.load(Ordering::Relaxed);
        let rng = |salt: u64| SmallRng::seed_from_u64(chaos.seed ^ crashes.wrapping_mul(salt));
        // Chaos: the power cut may catch in-flight write-backs part-way
        // through a line. Each pending (clwb'd, unfenced) line may persist
        // only a prefix of itself, at 8-byte ECC-word granularity.
        if chaos.torn_line_permille > 0 {
            let mut rng = rng(0xA24BAED4963EE407);
            // HashSet iteration order is not deterministic; sort so the same
            // seed always tears the same lines the same way.
            let mut lines: Vec<u64> = self.inner.pending.lock().iter().copied().collect();
            lines.sort_unstable();
            for line in lines {
                if rng.gen_range(0..1000) < chaos.torn_line_permille as u32 {
                    let words = rng.gen_range(1u64..8); // strict prefix
                    self.drain_line_prefix(&mut dur, line, words as usize * 8);
                    self.inner.stats.on_torn_line();
                }
            }
        }
        // Chaos: arbitrary cache evictions may have persisted unflushed lines.
        if chaos.spontaneous_evict_permille > 0 {
            let mut rng = rng(0x9E3779B97F4A7C15);
            let nlines = self.inner.config.size / CACHE_LINE;
            for line in 0..nlines as u64 {
                if rng.gen_range(0..1000) < chaos.spontaneous_evict_permille as u32 {
                    self.drain_line_prefix(&mut dur, line, CACHE_LINE);
                }
            }
        }

        // The restarted machine gets a disarmed fault plan: the plan applied
        // to the execution that just died, not to recovery code running
        // after the reboot (which would otherwise re-poison at event N).
        let mut cfg = self.inner.config;
        cfg.chaos.crash_at_event = None;
        cfg.chaos.stall_at_event = None;
        let new = PmemPool::new(cfg);
        // Raw image copy: machine-internal, not a program store — it must
        // not charge persistence events or perturb sanitizer shadow state.
        // Past the high-water mark both images are zero, and stay untouched.
        let hwm = self.inner.durable_hwm.load(Ordering::Relaxed);
        // SAFETY: both images are `config.size` bytes (same config) and live
        // in distinct allocations; `hwm` is a drain's end, clamped to that.
        unsafe {
            std::ptr::copy_nonoverlapping(dur.as_ptr(), new.inner.working.ptr, hwm);
        }
        new.inner.durable.as_ref().unwrap().lock()[..hwm].copy_from_slice(&dur[..hwm]);
        new.inner.durable_hwm.store(hwm, Ordering::Relaxed);
        // Hand the restarted pool the crash cut's shadow knowledge: which
        // lines' contents were never made durable before the power failed.
        #[cfg(feature = "persist-san")]
        self.inner.san.arm_restart(&new.inner.san);
        // Pending-but-unfenced flushes die with the machine.
        self.inner.pending.lock().clear();
        // A thread parked by the stall plan belongs to the execution that
        // just died; release it so its (joinable) OS thread can unwind. Its
        // post-release activity lands only in the dead pool's images.
        self.release_stalled();
        new
    }

    // ---- cross-process persistence ------------------------------------------

    /// Writes the **durable image** to a file, making persistence survive
    /// process exit (standing in for the file that a DAX mapping would be
    /// backed by). Strict mode only. Format: `"PMEMSNAP"` magic, size, image.
    pub fn save_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let durable = self
            .inner
            .durable
            .as_ref()
            .expect("save_to_file requires PmemMode::Strict");
        let dur = durable.lock();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(b"PMEMSNAP")?;
        f.write_all(&(self.inner.config.size as u64).to_le_bytes())?;
        f.write_all(&dur)?;
        f.flush()?;
        Ok(())
    }

    /// Loads a pool from a [`PmemPool::save_to_file`] snapshot. The restored
    /// pool starts from the snapshot in both images (as if freshly rebooted
    /// from that persistent state).
    pub fn load_from_file(path: &std::path::Path, config: PmemConfig) -> std::io::Result<PmemPool> {
        use std::io::Read;
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic)?;
        if &magic != b"PMEMSNAP" {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not a pmem snapshot",
            ));
        }
        let mut szb = [0u8; 8];
        f.read_exact(&mut szb)?;
        let size = u64::from_le_bytes(szb) as usize;
        if size != config.size {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("snapshot is {size} B but config.size is {} B", config.size),
            ));
        }
        let pool = PmemPool::new(config);
        // Raw image fill, as in `crash()`: not a program store.
        // SAFETY: the working image is `config.size == size` bytes, and no
        // other handle to this fresh pool exists while the slice lives.
        let image = unsafe { std::slice::from_raw_parts_mut(pool.inner.working.ptr, size) };
        f.read_exact(image)?;
        if let Some(durable) = &pool.inner.durable {
            durable.lock().copy_from_slice(image);
            pool.inner.durable_hwm.store(size, Ordering::Relaxed);
        }
        // Everything in a snapshot is by definition the durable image, so a
        // recovery-time read of any of it is legitimate prefix semantics.
        #[cfg(feature = "persist-san")]
        pool.inner.san.mark_all_durable();
        Ok(pool)
    }

    // ---- persistency sanitizer ----------------------------------------------
    //
    // The `san_*` methods below exist unconditionally so instrumentation
    // points in higher crates (the epoch system, recovery, the allocator)
    // need no feature gates of their own; without the `persist-san` feature
    // they compile to nothing.

    /// Reports the epoch boundary at which the clock read `tick`, and — when
    /// the boundary was `quiescent` (no bypassed straggler, whose unfinished
    /// op may hold dirty lines it has not queued yet) — asserts its
    /// invariant: every tracked store from before the *previous* boundary has
    /// been flushed by now. Every advancer calls this after its boundary
    /// fence and before it tries to bump the clock, so the first report of a
    /// tick precedes the tick; later reports of the same tick are ignored,
    /// which keeps a store's age in boundaries equal to its age in epochs.
    /// No-op without the `persist-san` feature.
    #[inline]
    #[track_caller]
    pub fn san_epoch_boundary(&self, tick: u64, quiescent: bool) {
        #[cfg(not(feature = "persist-san"))]
        let _ = (tick, quiescent);
        #[cfg(feature = "persist-san")]
        {
            // Once the fault plan trips, flushes and fences are dropped —
            // including the boundary fence this call follows — so the
            // boundary never actually declared anything durable. Unflushed
            // lines are not protocol violations then; they are the crash.
            if self.is_poisoned() {
                return;
            }
            self.inner
                .san
                .on_epoch_boundary(tick, quiescent, std::panic::Location::caller());
        }
    }

    /// Declares `[off, off+len)` stored-to by an untracked mechanism (an
    /// atomic store through [`PmemPool::atomic_u64`], a raw write through
    /// [`PmemPool::at`], a pool-to-pool copy), so the sanitizer sees the
    /// store that a following flush is for. No-op without the feature.
    #[inline]
    #[track_caller]
    pub fn san_mark_dirty(&self, off: POff, len: usize) {
        #[cfg(not(feature = "persist-san"))]
        let _ = (off, len);
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_write(off.raw(), len, std::panic::Location::caller());
    }

    /// Runs `f` in a *probe scope*: recovery-time reads inside it are exempt
    /// from the dirty-read check, for recovery code that validates before it
    /// trusts (checksummed header probes over a block sweep). A transparent
    /// wrapper without the feature.
    #[inline]
    pub fn san_probe<R>(&self, f: impl FnOnce() -> R) -> R {
        #[cfg(feature = "persist-san")]
        let _guard = ProbeGuard::enter();
        f()
    }

    /// Opens the recovery window: until [`PmemPool::san_end_recovery`],
    /// reads are checked against the set of lines whose pre-crash content
    /// never became durable. No-op without the feature.
    #[inline]
    pub fn san_begin_recovery(&self) {
        #[cfg(feature = "persist-san")]
        self.inner.san.begin_recovery();
    }

    /// Closes the recovery window opened by [`PmemPool::san_begin_recovery`].
    #[inline]
    pub fn san_end_recovery(&self) {
        #[cfg(feature = "persist-san")]
        self.inner.san.end_recovery();
    }

    /// Snapshot of everything the sanitizer has recorded so far.
    #[cfg(feature = "persist-san")]
    pub fn san_report(&self) -> SanReport {
        self.inner.san.report()
    }

    /// Enables or disables deny mode: panic at the violation site for the
    /// correctness classes ([`crate::SanClass::DirtyAtEpochBoundary`],
    /// [`crate::SanClass::RecoveryDirtyRead`]). On by default.
    #[cfg(feature = "persist-san")]
    pub fn san_set_deny(&self, deny: bool) {
        self.inner.san.set_deny(deny);
    }

    /// Clears recorded violations and counters; shadow line states are kept.
    /// Audits use this to delimit a measurement window.
    #[cfg(feature = "persist-san")]
    pub fn san_reset_counts(&self) {
        self.inner.san.reset_counts();
    }
}

/// A fence issued by [`PmemPool::sfence_issue`] and not yet waited for.
#[must_use = "a fence orders nothing until its ticket is waited on"]
pub struct FenceTicket {
    done: Option<Instant>,
}

impl FenceTicket {
    /// When the device finishes what was queued ahead of this fence (`None`:
    /// it was idle), so a holder of several tickets can wait on the earliest.
    pub fn ready_at(&self) -> Option<Instant> {
        self.done
    }

    /// Blocks until the device has drained everything queued ahead of the fence.
    pub fn wait(self) {
        if let Some(done) = self.done {
            wait_until(done);
        }
    }
}

/// Blocks until `done`: sleeps while the deadline is far enough out to make
/// a syscall worthwhile, so other threads keep the CPU while a pool's queue
/// drains, and spins the final stretch for accuracy.
fn wait_until(done: Instant) {
    charge_issue(0, true);
    // OS sleeps overshoot by tens of microseconds (timer slack), so a
    // `sleep(remaining)` would charge a 6µs drain ~70µs of real blocking —
    // a 10x penalty that lands precisely on callers who batch their drain
    // work into one fence. Sleep only the stretch the OS can deliver
    // without running past the deadline, then spin the accurate tail.
    const SLEEP_SLACK: std::time::Duration = std::time::Duration::from_micros(200);
    loop {
        let remaining = done.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return;
        }
        if remaining > SLEEP_SLACK {
            std::thread::sleep(remaining - SLEEP_SLACK);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Deterministic per-event roll in `0..1000` for straggler injection
/// (splitmix64 finalizer over `seed ^ event`): a given (seed, workload)
/// pair delays the same events on every run.
#[inline]
fn event_roll(seed: u64, event: u64) -> u64 {
    let mut z = seed ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1000
}

/// The least a thread spins its issue charges off in: a spin's two clock
/// reads (≈ 40 ns) are noise against it.
const QUANTUM_NS: i64 = 1_000;
/// The most a spin's overrun (never a preemption's ms) credits later charges.
const MAX_CREDIT_NS: i64 = 200;

thread_local! {
    /// Issue time the thread was charged and has not spun off yet; negative,
    /// the last spin's overrun, credited to the next charges.
    static OWED_NS: Cell<i64> = const { Cell::new(0) };
}

/// Charges `ns` of the calling thread's CPU and spins off all it owes once
/// that is a quantum, or at once when `settle` (before a device wait).
#[inline]
fn charge_issue(ns: u64, settle: bool) {
    OWED_NS.with(|o| {
        let owed = o.get() + ns as i64;
        if owed < QUANTUM_NS && !(settle && owed > 0) {
            return o.set(owed);
        }
        let start = Instant::now();
        let spent = loop {
            let spent = start.elapsed().as_nanos() as i64;
            if spent >= owed {
                break spent;
            }
            std::hint::spin_loop();
        };
        o.set(-(spent - owed).min(MAX_CREDIT_NS));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChaosConfig;

    fn strict_pool() -> PmemPool {
        PmemPool::new(PmemConfig::strict_for_test(1 << 20))
    }

    /// Test-only safe store. Every offset used in this module is a
    /// hardcoded, in-bounds, 8-aligned scratch slot — exactly the contract
    /// the unsafe accessor asks the caller to uphold.
    #[track_caller]
    fn w(p: &PmemPool, off: POff, v: u64) {
        // SAFETY: see the doc comment — in-bounds, aligned, plain data.
        unsafe { p.write(off, &v) }
    }

    /// Test-only safe load; same contract as [`w`].
    #[track_caller]
    fn r(p: &PmemPool, off: POff) -> u64 {
        // SAFETY: see `w`.
        unsafe { p.read::<u64>(off) }
    }

    #[test]
    fn write_read_roundtrip() {
        let p = strict_pool();
        let off = POff::new(8192);
        w(&p, off, 0xDEADBEEFu64);
        assert_eq!(r(&p, off), 0xDEADBEEF);
    }

    #[test]
    fn unflushed_data_lost_on_crash() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 42u64);
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 0, "unflushed line must not survive");
    }

    #[test]
    fn flushed_but_unfenced_data_lost_on_crash() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 42u64);
        p.clwb(off);
        // No sfence.
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 0, "clwb without fence is not durable");
    }

    #[test]
    fn flushed_and_fenced_data_survives() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 42u64);
        p.persist_range(off, 8);
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 42);
    }

    #[test]
    fn flush_granularity_is_whole_lines() {
        let p = strict_pool();
        let a = POff::new(4096); // same line
        let b = POff::new(4096 + 32);
        w(&p, a, 1);
        w(&p, b, 2);
        p.persist_range(a, 8); // flushing a's line also captures b
        let p2 = p.crash();
        assert_eq!(r(&p2, a), 1);
        assert_eq!(r(&p2, b), 2);
    }

    #[test]
    fn fence_captures_value_at_fence_time() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 1u64);
        p.clwb(off);
        w(&p, off, 2u64); // re-dirty before the fence
        p.sfence();
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 2);
    }

    #[test]
    fn crash_preserves_durable_across_two_crashes() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 7u64);
        p.persist_range(off, 8);
        let p2 = p.crash();
        let p3 = p2.crash();
        assert_eq!(r(&p3, off), 7);
    }

    #[test]
    fn any_threads_fence_drains_pending_clwbs() {
        // CLWB write-backs are asynchronous: a later fence from *any* thread
        // covers them (the epoch advancer's boundary fence relies on this).
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 9u64);
        p.clwb(off);
        let p_clone = p.clone();
        std::thread::spawn(move || p_clone.sfence()).join().unwrap();
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 9);
    }

    #[test]
    fn clwb_never_fenced_is_lost() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 9u64);
        std::thread::scope(|s| {
            let p = p.clone();
            s.spawn(move || p.clwb(off)); // flushing thread exits, no fence anywhere
        });
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 0);
    }

    #[test]
    fn repeated_clwbs_of_one_line_drain_once() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 3u64);
        for _ in 0..5 {
            p.clwb(off);
        }
        p.sfence();
        let snap = p.stats().snapshot();
        let clwbs = snap.clwbs;
        let drained = snap.lines_drained;
        assert_eq!(clwbs, 5, "every issued clwb is counted");
        assert_eq!(drained, 1, "the fence drains the dirty line once");
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 3);
    }

    #[test]
    fn stats_count_flushes_and_fences() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 1u64);
        p.clwb_range(off, 200); // 4 lines
        p.sfence();
        let snap = p.stats().snapshot();
        let clwbs = snap.clwbs;
        let fences = snap.sfences;
        let drained = snap.lines_drained;
        assert_eq!(clwbs, 4);
        assert_eq!(fences, 1);
        assert_eq!(drained, 4);
    }

    /// A pool whose write-backs cost `per_line_ns` of device time each —
    /// callers pick it large enough to dominate scheduler noise.
    fn slow_pool(per_line_ns: u64) -> PmemPool {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.crash_at_event = Some(u64::MAX); // count events
        cfg.latency.fence_per_line_ns = per_line_ns;
        PmemPool::new(cfg)
    }

    /// [`slow_pool`] with `lines` lines flushed and awaiting a fence.
    fn slow_pool_with_pending(per_line_ns: u64, lines: usize) -> PmemPool {
        let p = slow_pool(per_line_ns);
        p.clwb_range(POff::new(4096), lines * CACHE_LINE);
        p
    }

    fn busy(p: &PmemPool) -> u64 {
        p.inner.device_busy.load(Ordering::Acquire)
    }

    fn ms(n: u64) -> std::time::Duration {
        std::time::Duration::from_millis(n)
    }

    #[test]
    fn issued_fences_on_two_pools_drain_side_by_side() {
        // 65 us of drain per pool: short enough that a wait spins it out,
        // where a `sleep` would overshoot by the timer's slack (>= 50 us),
        // and few lines, so a write-back's own host time stays small.
        const PER_LINE_NS: u64 = 5_000;
        const LINES: u64 = 10;
        let now = |p: &PmemPool| p.inner.origin.elapsed().as_nanos() as u64;
        let one_pool = std::time::Duration::from_nanos((LINES + 3) * PER_LINE_NS);
        // Every run must wait out one pool's drain; the ceiling holds for
        // the fastest of five, since a descheduled waiter overshoots one run
        // while pools drained one after the other pay 2x on every run.
        let fastest = (0..5)
            .map(|_| {
                let pools = [slow_pool(PER_LINE_NS), slow_pool(PER_LINE_NS)];
                let start = Instant::now();
                let mut tickets = Vec::new();
                for p in &pools {
                    // Conservation: the pool's timeline takes exactly what
                    // a write-back queues, at the write-back — from that
                    // instant on an idle device, from the previous
                    // reservation on a busy one — and a fence adds nothing,
                    // whoever waits, whenever.
                    let before = now(p);
                    p.clwb_range(POff::new(4096), LINES as usize * CACHE_LINE);
                    let reserved_at = busy(p) - LINES * PER_LINE_NS;
                    assert!((before..=now(p)).contains(&reserved_at));
                    let queued = busy(p);
                    tickets.push(p.sfence_issue());
                    assert_eq!(busy(p), queued, "a fence reserves nothing");
                    p.clwb_range(POff::new(4096), 3 * CACHE_LINE);
                    assert_eq!(busy(p), queued + 3 * PER_LINE_NS);
                    tickets.push(p.sfence_issue());
                    assert_eq!(busy(p), queued + 3 * PER_LINE_NS);
                }
                for t in tickets {
                    t.wait();
                }
                let wall = start.elapsed();
                assert!(wall >= one_pool, "a wait returned early: {wall:?}");
                assert!(pools.iter().all(|p| p.device_backlog().is_zero()));
                wall
            })
            .min()
            .unwrap();
        assert!(
            fastest < one_pool * 3 / 2,
            "the waits overran one pool's {one_pool:?} drain: {fastest:?} (serial: {:?})",
            one_pool * 2
        );
    }

    #[test]
    fn fence_right_after_clwb_pays_the_whole_drain() {
        // The calibration shape: 200 lines x 100 us = 20 ms of drain. Every
        // run must pay it all; the ceiling holds for the fastest of five,
        // since a descheduled waiter overshoots one run while a drain
        // charged twice costs >= 40 ms on every run.
        let fastest = (0..5)
            .map(|_| {
                let p = slow_pool(100_000);
                let start = Instant::now();
                p.clwb_range(POff::new(4096), 200 * CACHE_LINE);
                let issued = start.elapsed();
                assert!(p.device_backlog() > ms(20) - issued - ms(1));
                p.sfence();
                let wall = start.elapsed();
                assert!(wall >= ms(20), "the fence returned early: {wall:?}");
                assert!(
                    wall - issued >= ms(19),
                    "the fence paid {:?}",
                    wall - issued
                );
                wall
            })
            .min()
            .unwrap();
        assert!(
            fastest < ms(40),
            "the fence paid more than the drain: {fastest:?}"
        );
    }

    #[test]
    fn fence_pays_only_what_is_left() {
        // 40 ms of drain; the CPU does something else for half of it. Every
        // run must wait the drain out; the ceiling holds for the fastest of
        // five, since a descheduled waiter overshoots one run while a fence
        // charging the whole drain pays >= 40 ms on every run.
        let fastest = (0..5)
            .map(|_| {
                let p = slow_pool_with_pending(100_000, 400);
                let start = Instant::now();
                std::thread::sleep(ms(20));
                let fence = Instant::now();
                p.sfence();
                assert!(start.elapsed() >= ms(39), "the fence returned early");
                fence.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest <= ms(20 + 10),
            "the fence paid {fastest:?} of a 40 ms drain"
        );
    }

    #[test]
    fn unfenced_clwbs_do_not_land_on_a_later_fence() {
        // Thread A writes back 10 ms worth of lines and never fences (a map
        // user's ring-overflow write-backs). Once the device has had its 10
        // ms, thread B's fence (the allocator's superblock carve) finds it
        // idle and waits for nothing, and each later one pays only the 50 us
        // line B wrote back itself: short enough to spin out, where a
        // `sleep` would overshoot by >= 50 us.
        // Every run must pay B's drains; the ceiling holds for the fastest
        // of five, since a descheduled waiter overshoots one run.
        const PER_LINE_NS: u64 = 50_000;
        const ROUNDS: u32 = 4;
        let own = std::time::Duration::from_nanos(PER_LINE_NS) * ROUNDS;
        let fastest = (0..5)
            .map(|_| {
                let p = slow_pool(PER_LINE_NS);
                std::thread::scope(|s| {
                    s.spawn(|| p.clwb_range(POff::new(4096), 200 * CACHE_LINE));
                });
                std::thread::sleep(ms(15));
                let ticket = p.sfence_issue();
                assert!(ticket.ready_at().is_none(), "the device is idle");
                ticket.wait();
                assert_eq!(
                    p.stats().snapshot().lines_drained,
                    200,
                    "and made A's write-backs durable"
                );
                let fences = Instant::now();
                for _ in 0..ROUNDS {
                    p.clwb(POff::new(65536));
                    p.sfence();
                }
                let paid = fences.elapsed();
                assert!(paid >= own, "B's fences returned early: {paid:?}");
                assert_eq!(p.stats().snapshot().lines_drained, 200 + ROUNDS as u64);
                paid
            })
            .min()
            .unwrap();
        assert!(
            fastest < own * 13 / 10,
            "B's fences paid {fastest:?} for their own {own:?} of drain"
        );
    }

    // Neither the sanitizer's per-line bookkeeping nor an unoptimized build,
    // whose own bookkeeping drowns a 20 ns charge, is a timing mode.
    #[cfg(not(any(debug_assertions, feature = "persist-san")))]
    #[test]
    fn touch_and_clwb_issue_charges_cost_what_they_are_configured_to() {
        // 10 k back-to-back charges, closed by a fence, on a pool that
        // queues no device time: the fence pays what the thread still owes
        // and waits for nothing. Every run must take at least the charges,
        // and the fastest of five (a preempted run overshoots) at most 1.3x
        // them: for `touch`, its whole loop. A `clwb`'s own bookkeeping
        // (bounds check, event and stat counters) is of the order of its
        // 20 ns charge, so there the ceiling holds for what the charges add
        // over the same loop on a free pool (its fastest of five). A clock
        // read per charge costs `touch` 1.5x and `clwb` 3x.
        const N: u64 = 10_000;
        let zero = crate::LatencyModel::ZERO;
        let touch = crate::LatencyModel {
            media_read_ns: 150,
            ..zero
        };
        let clwb = crate::LatencyModel {
            clwb_issue_ns: 20,
            ..zero
        };
        for (name, latency, charge_ns) in [("touch", touch, 150), ("clwb", clwb, 20)] {
            let time = |latency| {
                let p = PmemPool::new(PmemConfig {
                    size: 1 << 20,
                    mode: PmemMode::Fast,
                    latency,
                    chaos: ChaosConfig::default(),
                });
                let start = Instant::now();
                for _ in 0..N {
                    match name {
                        "touch" => p.touch(),
                        _ => p.clwb(POff::new(4096)),
                    }
                }
                p.sfence();
                start.elapsed().as_nanos() as f64
            };
            let charges = (N * charge_ns) as f64;
            let host = match name {
                "clwb" => (0..5).map(|_| time(zero)).fold(f64::INFINITY, f64::min),
                _ => 0.0,
            };
            let charged = (0..5)
                .map(|_| {
                    let paid = time(latency) / charges;
                    assert!(paid >= 0.98, "{name}: the loop took {paid:.3}x its charges");
                    paid
                })
                .fold(f64::INFINITY, f64::min);
            let added = charged - host / charges;
            assert!(
                added <= 1.3,
                "{name}: a charge cost {added:.3}x what it is configured to \
                 (the whole loop {charged:.3}x)"
            );
        }
    }

    #[test]
    fn repeated_clwb_of_a_pending_line_reserves_once() {
        let p = slow_pool(1_000_000);
        let off = POff::new(4096);
        p.clwb(off);
        let queued = busy(&p);
        for _ in 0..4 {
            p.clwb(off);
        }
        assert_eq!(busy(&p), queued, "a pending line takes no second slot");
        p.clwb(off.add(CACHE_LINE as u64));
        assert_eq!(busy(&p), queued + 1_000_000);
        p.sfence();
        p.clwb(off);
        assert!(busy(&p) > queued + 1_000_000, "drained: a fresh write-back");
        assert_eq!(
            p.stats().snapshot().clwbs,
            7,
            "every issued clwb is counted"
        );
    }

    #[test]
    fn poisoned_pool_reserves_nothing() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.latency.fence_per_line_ns = 1_000_000;
        cfg.chaos.crash_at_event = Some(2); // two lines start, then the crash
        let p = PmemPool::new(cfg);
        p.clwb_range(POff::new(4096), 4 * CACHE_LINE); // lands inside the range
        assert!(p.is_poisoned());
        let queued = busy(&p);
        assert!(
            (2_000_000..3_000_000).contains(&queued),
            "the two that started"
        );
        p.clwb_range(POff::new(8192), 4 * CACHE_LINE);
        assert_eq!(busy(&p), queued);
        assert!(
            p.sfence_issue().ready_at().is_none(),
            "a dropped fence waits for nothing"
        );
    }

    #[test]
    fn sfence_is_issue_then_wait() {
        let whole = slow_pool_with_pending(1_000, 7);
        let split = slow_pool_with_pending(1_000, 7);
        whole.sfence();
        split.sfence_issue().wait();
        assert_eq!(whole.stats().snapshot(), split.stats().snapshot());
        assert_eq!(whole.persistence_events(), split.persistence_events());
        assert_eq!(whole.stats().snapshot().lines_drained, 7);
        let (whole, split) = (whole.crash(), split.crash());
        let mut images = [[0u8; 7 * CACHE_LINE]; 2];
        whole.read_bytes(POff::new(4096), &mut images[0]);
        split.read_bytes(POff::new(4096), &mut images[1]);
        assert_eq!(images[0], images[1]);
    }

    #[test]
    fn chaos_mode_may_persist_unflushed_lines() {
        let p = PmemPool::new(PmemConfig {
            size: 1 << 20,
            mode: PmemMode::Strict,
            latency: crate::LatencyModel::ZERO,
            chaos: ChaosConfig {
                spontaneous_evict_permille: 1000, // evict everything
                seed: 1,
                ..Default::default()
            },
        });
        let off = POff::new(4096);
        w(&p, off, 5u64);
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 5, "100% eviction persists all lines");
    }

    #[test]
    fn fast_mode_counts_but_does_not_shadow() {
        let p = PmemPool::new(PmemConfig::default());
        let off = POff::new(4096);
        w(&p, off, 1u64);
        p.persist_range(off, 8);
        assert_eq!(p.stats().snapshot().clwbs, 1);
        p.clwb_lines(&[off, off]);
        p.sfence();
        p.sfence();
        let snap = p.stats().snapshot();
        assert_eq!((snap.clwbs, snap.lines_drained), (3, 3), "every clwb, once");
    }

    #[test]
    fn atomic_view_is_shared_with_plain_writes() {
        let p = strict_pool();
        let off = POff::new(4096);
        // SAFETY: `off` is 8-aligned and in bounds; the view is only used
        // from this thread.
        let a = unsafe { p.atomic_u64(off) };
        a.store(11, Ordering::SeqCst);
        assert_eq!(r(&p, off), 11);
    }

    #[test]
    fn snapshot_roundtrips_across_processes() {
        let dir = std::env::temp_dir().join(format!("pmem-snap-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("pool.img");

        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 0xC0FFEEu64);
        p.persist_range(off, 8);
        w(&p, off.add(8), 1u64); // never persisted
        p.save_to_file(&path).unwrap();

        let p2 = PmemPool::load_from_file(&path, PmemConfig::strict_for_test(1 << 20)).unwrap();
        assert_eq!(r(&p2, off), 0xC0FFEE);
        assert_eq!(r(&p2, off.add(8)), 0, "snapshot holds durable image only");
        // And the restored pool has normal crash semantics.
        w(&p2, off, 7u64);
        let p3 = p2.crash();
        assert_eq!(r(&p3, off), 0xC0FFEE);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_rejects_wrong_geometry() {
        let dir = std::env::temp_dir().join(format!("pmem-snap2-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("pool.img");
        strict_pool().save_to_file(&path).unwrap();
        assert!(PmemPool::load_from_file(&path, PmemConfig::strict_for_test(2 << 20)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_pool_is_zeroed() {
        let p = strict_pool();
        let mut buf = [1u8; 256];
        p.read_bytes(POff::new(12345 & !63), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn image_base_is_page_aligned_and_zero_to_the_end() {
        for size in [1 << 20, (64 << 20) + 64] {
            let p = PmemPool::new(PmemConfig {
                size,
                ..PmemConfig::default()
            });
            // SAFETY: offset 0 is in bounds; only the address is inspected.
            let base = unsafe { p.at::<u8>(POff::new(0)) };
            assert_eq!(base.addr() % 4096, 0, "size {size}");
            let (mut first, mut last) = ([1u8], [1u8]);
            p.read_bytes(POff::new(0), &mut first);
            p.read_bytes(POff::new(size as u64 - 1), &mut last);
            assert_eq!((first, last), ([0], [0]), "size {size}");
        }
    }

    // ---- fault plan ---------------------------------------------------------

    fn faulted_pool(crash_at: u64) -> PmemPool {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.crash_at_event = Some(crash_at);
        PmemPool::new(cfg)
    }

    #[test]
    fn event_counting_is_free_until_armed() {
        let p = strict_pool();
        w(&p, POff::new(4096), 1u64);
        p.persist_range(POff::new(4096), 8);
        assert_eq!(p.persistence_events(), 0, "no plan, no accounting");
        assert!(p.fault().is_none());
    }

    #[test]
    fn counting_pass_counts_without_crashing() {
        let p = faulted_pool(u64::MAX);
        let off = POff::new(4096);
        w(&p, off, 1u64); // 1 event
        p.clwb_range(off, 200); // 4 lines = 4 events
        p.sfence(); // 1 event
        assert_eq!(p.persistence_events(), 6);
        assert!(!p.is_poisoned());
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 1);
    }

    #[test]
    fn clwb_lines_acts_as_looped_clwbs_at_every_crash_point() {
        // Scattered lines, one of them twice and one twice through another
        // offset: 6 stores + 6 per-line write-backs + 1 fence = 13 events.
        let offs = [4096, 8256, 4224, 16384, 8256, 4104].map(POff::new);
        let run = |crash_at: u64, batched: bool| {
            let p = faulted_pool(crash_at);
            for (i, &off) in offs.iter().enumerate() {
                w(&p, off, i as u64 + 1);
            }
            if batched {
                p.clwb_lines(&offs);
            } else {
                for &off in &offs {
                    p.clwb(off);
                }
            }
            p.sfence();
            let mut image = vec![0u8; 16384];
            p.crash().read_bytes(POff::new(4096), &mut image);
            #[cfg(feature = "persist-san")]
            let san = {
                let report = p.san_report();
                let records: Vec<_> = report
                    .violations
                    .iter()
                    .map(|v| (v.class, v.line))
                    .collect();
                (records, report.count(crate::SanClass::RedundantClwb))
            };
            #[cfg(not(feature = "persist-san"))]
            let san = ();
            (image, p.persistence_events(), p.stats().snapshot(), san)
        };
        for crash_at in (1..=14).chain([u64::MAX]) {
            assert!(
                run(crash_at, true) == run(crash_at, false),
                "crash at event {crash_at}: the batch and the loop differ"
            );
        }
    }

    #[test]
    fn poisoned_pool_freezes_durable_image() {
        // Plan: write(1) + clwb(1) + sfence(1) = 3 events make `a` durable;
        // everything after event 3 must be dropped.
        let p = faulted_pool(3);
        let a = POff::new(4096);
        let b = POff::new(8192);
        w(&p, a, 7u64);
        p.clwb(a);
        p.sfence();
        assert!(p.is_poisoned(), "plan trips exactly at event N");
        assert_eq!(p.fault(), Some(PmemFault::Crashed { at_event: 3 }));
        w(&p, b, 9u64);
        p.persist_range(b, 8); // dropped: pool already crashed
        let p2 = p.crash();
        assert_eq!(r(&p2, a), 7, "events 1..=3 took effect");
        assert_eq!(r(&p2, b), 0, "post-crash events dropped");
        assert!(p2.fault().is_none(), "restarted pool has a clean plan");
        assert_eq!(p2.stats().snapshot().injected_crashes, 0);
    }

    #[test]
    fn crash_point_can_land_inside_a_range_flush() {
        // write a (1) + write b (1) = 2 events; plan 3 lets exactly one of
        // the four clwb_range lines start its write-back.
        let p = faulted_pool(3);
        let a = POff::new(4096);
        let b = POff::new(4096 + 64);
        w(&p, a, 1);
        w(&p, b, 2);
        p.clwb_range(a, 256); // 4 lines, only the first survives the plan
        p.sfence(); // dropped (pool poisoned)
        let p2 = p.crash();
        assert_eq!(r(&p2, a), 0, "line flushed, never fenced");
        assert_eq!(r(&p2, b), 0);
    }

    #[test]
    fn dropped_fence_leaves_lines_pending_not_durable() {
        let p = faulted_pool(2); // write + clwb allowed, fence dropped
        let a = POff::new(4096);
        w(&p, a, 5u64);
        p.clwb(a);
        p.sfence();
        assert!(p.is_poisoned());
        let p2 = p.crash();
        assert_eq!(r(&p2, a), 0);
    }

    #[test]
    fn checked_ops_report_the_fault() {
        let healthy = strict_pool();
        assert_eq!(healthy.checked(|| 7), Ok(7), "healthy pool: Ok(value)");

        let p = faulted_pool(1);
        let a = POff::new(4096);
        assert!(
            p.checked(|| p.write_bytes(a, &[1, 2, 3])).is_err(),
            "trips the plan inside the closure: Err after it"
        );
        // The store itself still landed in the working image (caches).
        // SAFETY: `a` is in bounds; u8 has no alignment requirement.
        assert_eq!(unsafe { p.read::<u8>(a) }, 1);
        let clwbs = p.stats().snapshot().clwbs;
        assert_eq!(
            p.checked(|| p.clwb(a)),
            Err(PmemFault::Crashed { at_event: 1 }),
            "already poisoned"
        );
        assert!(p.checked(|| p.sfence()).is_err());
        assert!(p.checked(|| p.persist_range(a, 8)).is_err());
        assert_eq!(
            p.stats().snapshot().clwbs,
            clwbs,
            "a tripped plan refuses without running the closure"
        );
    }

    #[test]
    fn torn_line_persists_a_prefix_only() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.torn_line_permille = 1000; // tear every pending line
        cfg.chaos.seed = 42;
        let p = PmemPool::new(cfg);
        let off = POff::new(4096); // line-aligned
        let full = [0xABu8; 64];
        p.write_bytes(off, &full);
        p.clwb(off);
        // No fence: the line is pending at crash time, so it tears.
        let p2 = p.crash();
        let mut got = [0u8; 64];
        p2.read_bytes(off, &mut got);
        let persisted = got.iter().take_while(|&&b| b == 0xAB).count();
        assert!(
            (8..64).contains(&persisted),
            "a torn line persists a strict, non-empty prefix (got {persisted} bytes)"
        );
        assert_eq!(persisted % 8, 0, "tears happen at ECC-word granularity");
        assert!(got[persisted..].iter().all(|&b| b == 0), "suffix lost");
        assert_eq!(p.stats().snapshot().torn_lines, 1);
    }

    #[test]
    fn fenced_lines_do_not_tear() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.torn_line_permille = 1000;
        let p = PmemPool::new(cfg);
        let off = POff::new(4096);
        p.write_bytes(off, &[0xCDu8; 64]);
        p.persist_range(off, 64); // fence drains it: no longer pending
        let p2 = p.crash();
        let mut got = [0u8; 64];
        p2.read_bytes(off, &mut got);
        assert!(got.iter().all(|&b| b == 0xCD), "fenced data is whole");
        assert_eq!(p.stats().snapshot().torn_lines, 0);
    }

    #[test]
    fn sweep_points_are_deterministic() {
        // Identical plans + identical single-threaded workloads must leave
        // identical durable images.
        let run = |crash_at: u64| -> Vec<u8> {
            let p = faulted_pool(crash_at);
            for i in 0..8u64 {
                let off = POff::new(4096 + i * 64);
                w(&p, off, i + 1);
                p.clwb(off);
                if i % 3 == 2 {
                    p.sfence();
                }
            }
            p.sfence();
            let crashed = p.crash();
            let mut img = vec![0u8; 4096];
            crashed.read_bytes(POff::new(4096), &mut img);
            img
        };
        for point in [0, 1, 5, 9, 13, 20] {
            assert_eq!(run(point), run(point), "crash point {point} not replayable");
        }
    }

    #[test]
    fn stall_parks_exactly_one_thread_and_releases() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.stall_at_event = Some(3);
        let p = PmemPool::new(cfg);
        let p2 = p.clone();
        let victim = std::thread::spawn(move || {
            let off = POff::new(4096);
            w(&p2, off, 1); // event 1
            p2.clwb(off); // event 2
            p2.sfence(); // event 3: parks inside the fence
            7u64
        });
        assert!(p.await_stalled(std::time::Duration::from_secs(10)));
        assert_eq!(p.stalled_count(), 1);
        // Peers keep full use of the pool while the victim is parked —
        // including the fence path the victim is parked inside of.
        let off2 = POff::new(8192);
        w(&p, off2, 9);
        p.persist_range(off2, 8);
        assert_eq!(p.stalled_count(), 1, "peer traffic must not unpark");
        p.release_stalled();
        assert_eq!(victim.join().unwrap(), 7);
        assert_eq!(p.stalled_count(), 0);
        assert_eq!(p.stats().snapshot().stalls_injected, 1);
        // Once released, the victim's fence completed normally: its line is
        // durable alongside the peer's.
        let crashed = p.crash();
        assert_eq!(r(&crashed, POff::new(4096)), 1);
        assert_eq!(r(&crashed, off2), 9);
    }

    #[test]
    fn poisoning_releases_a_parked_victim() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.stall_at_event = Some(2);
        cfg.chaos.crash_at_event = Some(5);
        let p = PmemPool::new(cfg);
        let p2 = p.clone();
        let victim = std::thread::spawn(move || {
            let off = POff::new(4096);
            w(&p2, off, 1);
            p2.clwb(off); // crosses event 2: parks
        });
        assert!(p.await_stalled(std::time::Duration::from_secs(10)));
        // Peer activity trips the crash plan; the victim must come back on
        // its own (a dead execution's threads cannot stay parked forever).
        for i in 0..4u64 {
            w(&p, POff::new(8192 + i * 8), i);
        }
        assert!(p.is_poisoned());
        victim.join().unwrap();
        assert_eq!(p.stalled_count(), 0);
    }

    #[test]
    fn explicit_crash_releases_a_parked_victim() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.stall_at_event = Some(1);
        let p = PmemPool::new(cfg);
        let p2 = p.clone();
        let victim = std::thread::spawn(move || w(&p2, POff::new(4096), 1));
        assert!(p.await_stalled(std::time::Duration::from_secs(10)));
        let crashed = p.crash();
        victim.join().unwrap();
        assert!(
            crashed.config().chaos.stall_at_event.is_none(),
            "the restarted machine must not inherit the stall plan"
        );
    }

    #[test]
    fn straggler_rolls_are_deterministic_and_calibrated() {
        assert_eq!(event_roll(42, 7), event_roll(42, 7));
        let hits = (0..10_000u64).filter(|&e| event_roll(42, e) < 100).count();
        assert!(
            (700..1300).contains(&hits),
            "a 100-permille plan should hit ~10% of events (got {hits}/10000)"
        );
    }

    #[test]
    fn straggler_mode_counts_events_and_stays_functional() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.straggler_permille = 1000;
        cfg.chaos.straggler_delay_us = 0;
        let p = PmemPool::new(cfg);
        let off = POff::new(4096);
        w(&p, off, 5);
        p.persist_range(off, 8);
        assert!(p.persistence_events() >= 3, "straggler mode arms counting");
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 5);
    }
}
