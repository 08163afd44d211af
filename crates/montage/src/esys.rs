//! `EpochSys`: the Montage epoch system (paper Fig. 3 and Sec. 5).
//!
//! Responsibilities, mirroring the paper:
//!
//! 1. every payload created or modified by an operation is labelled with the
//!    operation's epoch (`PNEW` / `set`);
//! 2. all payloads of epoch *e* persist together when the clock ticks from
//!    *e+1* to *e+2* (`advance_epoch`), and recovery discards epochs *e* and
//!    *e−1* after a crash in *e*;
//! 3. operations linearize in the epoch in which they created payloads —
//!    supported by `CHECK_EPOCH`, the `OldSeeNewException`, and the
//!    [`crate::dcss`] primitives.

use std::collections::VecDeque;
use std::sync::Arc;

use std::cell::Cell;

use crate::sync::CachePadded;
use crate::sync::{
    seeded, uninstrumented as raw, weaken, AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering,
};
use pmem::{POff, PmemFault, PmemPool};
use ralloc::Ralloc;

use crate::buffers::Buffers;
use crate::config::{EsysConfig, FreeStrategy, PersistStrategy};
use crate::errors::{EpochChanged, OldSeeNewException};
use crate::payload::{Header, PHandle, PayloadKind, HDR_SIZE};
use crate::tracker::{Tracker, IDLE};

/// Root-area slot holding the Montage format magic.
pub(crate) const MAGIC_SLOT: usize = 0;
/// Root-area slot holding the persistent epoch clock.
pub(crate) const CLOCK_SLOT: usize = 1;

const MONTAGE_MAGIC: u64 = 0x4D4F_4E54_4147_4531; // "MONTAGE1"

/// Epochs start here so that epoch values 0..FIRST_EPOCH never appear on
/// payloads (zeroed memory is unambiguously dead) and `e - 2` never
/// underflows in recovery.
pub const FIRST_EPOCH: u64 = 4;

/// uid space is handed to threads in blocks of this size.
const UID_BLOCK: u64 = 1 << 20;

thread_local! {
    /// Test seam: armed by a unit test to tick the clock once inside
    /// `enter`'s announce/validate window — the one interleaving a single
    /// thread cannot otherwise produce. Read only under `cfg!(test)`, a
    /// constant, so it folds to nothing outside this crate's unit tests.
    static TICK_AFTER_ANNOUNCE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A registered thread's identity within an [`EpochSys`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadId(pub usize);

// uid handout is allocation bookkeeping, never a cross-thread protocol
// handoff, so it stays on uninstrumented atomics (see `sync::uninstrumented`).
struct PerThreadUid {
    next: raw::AtomicU64,
    limit: raw::AtomicU64,
}

/// Operation counters (transient, relaxed).
#[derive(Debug, Default)]
pub struct EsysStats {
    pub pnews: raw::AtomicU64,
    pub sets_in_place: raw::AtomicU64,
    pub sets_copied: raw::AtomicU64,
    pub pdeletes: raw::AtomicU64,
    pub advances: raw::AtomicU64,
    pub syncs: raw::AtomicU64,
    /// Payload blocks the background advancer reclaimed in its slices
    /// between ticks ([`EpochSys::reclaim_slice`]), and at boundaries.
    pub reclaimed_paced: raw::AtomicU64,
    pub reclaimed_at_boundary: raw::AtomicU64,
    /// Cache-line flushes avoided by write-back buffer coalescing: a `set`
    /// whose extent was already covered by a same-epoch buffered entry
    /// enqueues nothing, so the boundary issues one `clwb_range` for all of
    /// them. Counted in lines (what the skipped `clwb_range` would have
    /// flushed).
    pub flushes_coalesced: raw::AtomicU64,
}

/// The epoch system. Shared via `Arc`; one instance manages all Montage
/// structures living in one pool.
pub struct EpochSys {
    pool: PmemPool,
    ralloc: Arc<Ralloc>,
    cfg: EsysConfig,
    tracker: Tracker,
    buffers: Buffers,
    /// Highest clock value known to be *flushed* (clwb + fence issued on a
    /// healthy pool). The transient clock may run ahead of this when an
    /// advance's winner is preempted between its clock store and its clwb;
    /// `sync` waits on this mirror, not the clock, because durability can
    /// only be claimed for epochs whose closing tick reached the media.
    durable_clock: AtomicU64,
    /// Highest epoch some in-flight `sync` wants persisted (0 = none); a
    /// hint that makes workers help with write-back in `BEGIN_OP`.
    sync_requested: AtomicU64,
    next_tid: AtomicUsize,
    /// Thread ids handed back via [`EpochSys::unregister_thread`], available
    /// for reuse. Lets connection-oriented front-ends lease ids per session
    /// without exhausting the `max_threads` table under churn.
    free_tids: Mutex<Vec<usize>>,
    uid_block: raw::AtomicU64,
    uids: Box<[CachePadded<PerThreadUid>]>,
    last_epoch: Box<[CachePadded<AtomicU64>]>,
    /// Set while thread `tid` holds an [`EpochPin`]. Only the owning thread
    /// reads or writes its slot (Relaxed); the flag routes that thread's
    /// `begin_op` onto the nested (non-owning) path.
    pinned: Box<[CachePadded<AtomicBool>]>,
    /// Unlinked transient objects and their labels, in label order, waiting
    /// for the reclamation frontier (`retire_transient`), or for this system
    /// to drop; the count is the one load an idle advance pays.
    retired: Mutex<VecDeque<(u64, Retired)>>,
    retired_len: AtomicUsize,
    /// Under the model checker a freed retirement is parked here instead.
    #[cfg(feature = "interleave-check")]
    poisoned: Mutex<Vec<Retired>>,
    stats: EsysStats,
}

/// A type-erased unlinked object (see [`EpochSys::retire_transient`]).
type Retired = Box<dyn Send>;

impl EpochSys {
    /// Formats a fresh pool: ralloc heap + Montage clock.
    pub fn format(pool: PmemPool, cfg: EsysConfig) -> Arc<EpochSys> {
        let ralloc = Ralloc::format(pool.clone());
        // SAFETY: the root slots are reserved in-bounds words, and no other
        // thread touches the pool while it is being formatted.
        unsafe {
            pool.write(POff::root_slot(CLOCK_SLOT), &FIRST_EPOCH);
            pool.write(POff::root_slot(MAGIC_SLOT), &MONTAGE_MAGIC);
        }
        pool.clwb(POff::root_slot(CLOCK_SLOT));
        pool.clwb(POff::root_slot(MAGIC_SLOT));
        pool.sfence();
        Arc::new(Self::from_parts(pool, ralloc, cfg, 1))
    }

    pub(crate) fn from_parts(
        pool: PmemPool,
        ralloc: Arc<Ralloc>,
        cfg: EsysConfig,
        uid_base: u64,
    ) -> EpochSys {
        let cap = match cfg.persist {
            PersistStrategy::Buffered(n) => n,
            _ => 1,
        };
        // SAFETY: the clock slot is a reserved in-bounds word, written before
        // from_parts both at format and at recovery. Its current value is
        // durable by construction (format fences it; recovery read it from
        // the durable image), so it seeds the durable-clock mirror.
        let clock_now = unsafe { pool.read::<u64>(POff::root_slot(CLOCK_SLOT)) };
        EpochSys {
            tracker: Tracker::new(cfg.max_threads),
            buffers: Buffers::new(cfg.max_threads, cap),
            durable_clock: AtomicU64::new(clock_now),
            sync_requested: AtomicU64::new(0),
            next_tid: AtomicUsize::new(0),
            free_tids: Mutex::new(Vec::new()),
            uid_block: raw::AtomicU64::new(uid_base),
            uids: (0..cfg.max_threads)
                .map(|_| {
                    CachePadded::new(PerThreadUid {
                        next: raw::AtomicU64::new(0),
                        limit: raw::AtomicU64::new(0),
                    })
                })
                .collect(),
            last_epoch: (0..cfg.max_threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            pinned: (0..cfg.max_threads)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            retired: Mutex::new(VecDeque::new()),
            retired_len: AtomicUsize::new(0),
            #[cfg(feature = "interleave-check")]
            poisoned: Mutex::new(Vec::new()),
            stats: EsysStats::default(),
            pool,
            ralloc,
            cfg,
        }
    }

    /// Checks a pool for the Montage format magic.
    pub fn is_formatted(pool: &PmemPool) -> bool {
        // SAFETY: the magic slot is a reserved in-bounds word; reading
        // arbitrary bytes as u64 is fine.
        unsafe { pool.read::<u64>(POff::root_slot(MAGIC_SLOT)) == MONTAGE_MAGIC }
    }

    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    pub fn allocator(&self) -> &Arc<Ralloc> {
        &self.ralloc
    }

    pub fn config(&self) -> &EsysConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &EsysStats {
        &self.stats
    }

    fn clock(&self) -> &AtomicU64 {
        // SAFETY: the clock slot is a reserved, 8-aligned root word accessed
        // only through this atomic view after format.
        crate::sync::from_std(unsafe { self.pool.atomic_u64(POff::root_slot(CLOCK_SLOT)) })
    }

    /// Current epoch (transient read of the persistent clock).
    #[inline]
    pub fn curr_epoch(&self) -> u64 {
        // ord(acquire): an epoch read implies visibility of the boundary
        // drains that preceded the tick (pairs with the SeqCst clock CAS).
        self.clock().load(Ordering::Acquire)
    }

    /// Durable-frontier mirror: the highest clock value whose boundary clwb
    /// is known to have reached the media. Exposed for the model-check
    /// harnesses, which assert its ordering contract (observing `d` implies
    /// every epoch `<= d - 2` write-back is visible).
    #[doc(hidden)]
    pub fn durable_epoch(&self) -> u64 {
        // ord(acquire): pairs with the winner's durable-clock release.
        self.durable_clock.load(Ordering::Acquire)
    }

    /// Oldest buffered (not yet written back) epoch of `tid`'s ring, or
    /// `u64::MAX` when empty. A model-check probe, not an API.
    #[doc(hidden)]
    pub fn debug_min_pending(&self, tid: ThreadId) -> u64 {
        self.buffers.min_pending(tid.0)
    }

    /// Registers the calling thread, returning its id. Panics when
    /// `max_threads` is exceeded.
    pub fn register_thread(&self) -> ThreadId {
        self.try_register_thread().unwrap_or_else(|| {
            panic!(
                "more than max_threads={} threads registered",
                self.cfg.max_threads
            )
        })
    }

    /// Like [`EpochSys::register_thread`] but returns `None` instead of
    /// panicking when all `max_threads` ids are currently leased. Ids handed
    /// back via [`EpochSys::unregister_thread`] are reused.
    pub fn try_register_thread(&self) -> Option<ThreadId> {
        if let Some(tid) = self.free_tids.lock().pop() {
            return Some(ThreadId(tid));
        }
        // CAS loop (rather than fetch_add) so repeated over-capacity attempts
        // never push next_tid past max_threads: the counter stays an exact
        // high-water mark and `registered()` an exact drain bound.
        // ord(acquire): see the exact high-water-mark argument above.
        let mut cur = self.next_tid.load(Ordering::Acquire);
        loop {
            if cur >= self.cfg.max_threads {
                return None;
            }
            // ord(acqrel): the claimed id's slot state must be visible to
            // whoever scans `registered()`; acquire on failure re-reads.
            match self.next_tid.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(ThreadId(cur)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns a leased id to the free pool. The caller must have finished
    /// every operation on `tid` (no live [`OpGuard`]); buffered write-backs
    /// the thread left behind are still drained by the epoch advancer, so an
    /// id can be re-leased immediately without losing durability of its past
    /// work.
    pub fn unregister_thread(&self, tid: ThreadId) {
        debug_assert!(tid.0 < self.cfg.max_threads, "unregister of bogus tid");
        debug_assert_eq!(
            self.tracker.load(tid.0),
            IDLE,
            "unregister_thread with an operation in flight"
        );
        let mut free = self.free_tids.lock();
        debug_assert!(!free.contains(&tid.0), "double unregister of {tid:?}");
        free.push(tid.0);
    }

    fn registered(&self) -> usize {
        self.next_tid
            // ord(acquire): pairs with the registration CAS; the drain scan
            // must cover every handed-out id.
            .load(Ordering::Acquire)
            .min(self.cfg.max_threads)
    }

    // ---- BEGIN_OP / END_OP --------------------------------------------------

    /// The one way into an epoch, shared by `BEGIN_OP` and the pin: announces
    /// `tid` in the current epoch, then pays the two cooperative duties every
    /// entry owes — help a waiting sync persist our older buffered payloads,
    /// and run worker-local reclamation. Returns the validated epoch; the
    /// caller owns the tracker registration (`end_op` releases it).
    ///
    /// Lock freedom: the announce/validate loop only retries when the epoch
    /// clock advanced, which implies system-wide progress (paper Thm. 4.4).
    #[inline]
    fn enter(&self, tid: ThreadId) -> u64 {
        debug_assert_eq!(
            self.tracker.load(tid.0),
            IDLE,
            "nested operations are not allowed"
        );
        let epoch = loop {
            let e = self.clock().load(Ordering::SeqCst);
            self.tracker.register(tid.0, e);
            if cfg!(test) && TICK_AFTER_ANNOUNCE.replace(false) {
                self.advance_epoch();
            }
            if self.clock().load(Ordering::SeqCst) == e {
                break e;
            }
        };

        // Help any waiting sync persist our older buffered payloads
        // ("at the beginning of each operation, a worker also helps to
        // persist its payloads from the previous epoch if they are needed by
        // any active sync").
        if matches!(self.cfg.persist, PersistStrategy::Buffered(_)) {
            // ord(relaxed): a hint; a missed request is caught by the next
            // boundary (sync never relies on this edge for durability).
            let want = self.sync_requested.load(Ordering::Relaxed);
            if want != 0 && self.buffers.min_pending(tid.0) < epoch {
                self.buffers
                    .drain_persist_upto(&self.pool, tid.0, epoch - 1);
            }
        }

        // Worker-local reclamation (the "+LocalFree" configuration).
        if self.cfg.free == FreeStrategy::WorkerLocal {
            // ord(relaxed): last_epoch[tid] is owner-only.
            let last = self.last_epoch[tid.0].swap(epoch, Ordering::Relaxed);
            if epoch > last {
                // The frontier scan runs *after* the announce/validate loop
                // confirmed clock == epoch, so every thread still registered
                // in an older epoch is visible to it (see `reclaim_limit`);
                // a bypassed straggler pins the frontier instead of being
                // freed out from under.
                let limit = Self::reclaim_limit(epoch, self.tracker.oldest_active());
                let mut blocks = Vec::new();
                let pool = &self.pool;
                self.buffers
                    .take_free_upto(pool, tid.0, limit, usize::MAX, &mut blocks);
                if !blocks.is_empty() {
                    self.pool.sfence();
                    self.free_fenced(blocks);
                }
            }
        }
        epoch
    }

    /// `BEGIN_OP`: announces an operation in the current epoch and returns an
    /// RAII guard whose drop is `END_OP` (the paper's `BEGIN_OP_AUTOEND`).
    pub fn begin_op(&self, tid: ThreadId) -> OpGuard<'_> {
        // ord(relaxed): pinned[tid] is owner-only (doc on the field).
        if !self.pinned[tid.0].load(Ordering::Relaxed) {
            return OpGuard {
                esys: self,
                tid,
                epoch: self.enter(tid),
                owns: true,
                flushed: Cell::new(false),
            };
        }
        // Nested under an EpochPin: the pin's tracker registration is
        // live, so the op only needs to move it *forward* to the current
        // clock (the same announce/validate loop; the slot moves
        // monotonically up and is never IDLE in between, so an advancer's
        // `wait_all_bounded` can neither miss the thread nor deadlock on it).
        // The guard does not own the registration — drop is a no-op.
        let epoch = loop {
            let e = self.clock().load(Ordering::SeqCst);
            if self.tracker.load(tid.0) == e {
                break e;
            }
            self.tracker.register(tid.0, e);
            if self.clock().load(Ordering::SeqCst) == e {
                break e;
            }
        };
        OpGuard {
            esys: self,
            tid,
            epoch,
            owns: false,
            flushed: Cell::new(false),
        }
    }

    /// Pins the calling thread into the epoch system so that a whole *batch*
    /// of operations shares one announce/validate window: while the pin is
    /// held, `begin_op(tid)` takes a cheap nested path (no tracker
    /// register/unregister churn, no per-op `DirWB` fence) and `end_op` is
    /// deferred to the pin's drop. This is the group-commit primitive: N
    /// front-end requests ride one epoch window and the caller issues one
    /// shared `sync` after dropping the pin. Refuses (`Err`) to pin on a pool
    /// whose fault plan has tripped, so cooperative workers unwind instead of
    /// doing doomed (never-durable) work.
    ///
    /// Semantics:
    /// - Nested ops re-register **forward** to the current clock, so payload
    ///   epochs stay current and the advancer is never blocked on a stale
    ///   epoch longer than one tick: a pinned thread bounds the clock to at
    ///   most two adjacent epochs between nested ops, which is exactly the
    ///   consistent-prefix window group commit promises.
    /// - `sync`/`try_sync`/`advance_epoch` **should not** be called by the
    ///   pinning thread while the pin is held: they complete (the bounded
    ///   advance bypasses the pin's own slot after the grace window) but
    ///   every boundary they drive pays the full grace spin on it. Drop the
    ///   pin first (the server's batch loop treats every explicit `sync` as
    ///   a batch-cut point for this reason).
    /// - Dropping the pin issues the deferred `DirWB` fence (if configured)
    ///   and unregisters the thread; it does **not** sync. Buffered payloads
    ///   drain at the next boundary exactly as for unpinned ops.
    pub fn try_pin_epoch(&self, tid: ThreadId) -> Result<EpochPin<'_>, PmemFault> {
        self.pool.check_fault()?;
        debug_assert!(
            // ord(relaxed): owner-only flag.
            !self.pinned[tid.0].load(Ordering::Relaxed),
            "try_pin_epoch while already pinned"
        );
        // Same cooperative duties as BEGIN_OP, hoisted to once per batch.
        let epoch = self.enter(tid);
        // ord(relaxed): owner-only flag.
        self.pinned[tid.0].store(true, Ordering::Relaxed);
        Ok(EpochPin {
            esys: self,
            tid,
            epoch,
        })
    }

    /// `END_OP`. `flushed`: the op issued write-backs of its own (DirWB
    /// fences them here; a read-only op has nothing to fence).
    fn end_op(&self, tid: ThreadId, flushed: bool) {
        if flushed && self.cfg.persist == PersistStrategy::DirWB {
            self.pool.sfence();
        }
        self.tracker.unregister(tid.0);
    }

    /// `CHECK_EPOCH`: fails if the clock moved past the operation's epoch.
    #[inline]
    pub fn check_epoch(&self, g: &OpGuard<'_>) -> Result<(), EpochChanged> {
        let cur = self.clock().load(Ordering::SeqCst);
        if cur == g.epoch {
            Ok(())
        } else {
            Err(EpochChanged {
                op_epoch: g.epoch,
                current_epoch: cur,
            })
        }
    }

    // ---- uid allocation ------------------------------------------------------

    fn next_uid(&self, tid: usize) -> u64 {
        let slot = &self.uids[tid];
        // ord(relaxed): per-thread slot, owner-only (uninstrumented atomics).
        let next = slot.next.load(Ordering::Relaxed);
        if next < slot.limit.load(Ordering::Relaxed) {
            slot.next.store(next + 1, Ordering::Relaxed);
            next
        } else {
            // ord(counter): unique-block handout; no data published via it.
            let base = self.uid_block.fetch_add(UID_BLOCK, Ordering::Relaxed);
            slot.next.store(base + 1, Ordering::Relaxed);
            slot.limit.store(base + UID_BLOCK, Ordering::Relaxed);
            base
        }
    }

    // ---- payload operations ---------------------------------------------------

    /// A payload operation's one charged dereference; yields its epoch.
    fn osn_check(&self, g: &OpGuard<'_>, blk: POff) -> Result<u64, OldSeeNewException> {
        self.pool.touch(); // NVM payload dereference
        let pe = Header::epoch(&self.pool, blk);
        if pe > g.epoch {
            Err(OldSeeNewException {
                op_epoch: g.epoch,
                payload_epoch: pe,
            })
        } else {
            Ok(pe)
        }
    }

    fn record_persist(&self, g: &OpGuard<'_>, blk: POff, len: u32) {
        let (tid, epoch) = (g.tid.0, g.epoch);
        match self.cfg.persist {
            PersistStrategy::Buffered(_) => {
                // The revalidation closure defeats coalescing against an
                // entry whose boundary already ran: if the clock has moved
                // past this op's epoch, the covering entry may have drained
                // (its lines flushed with *older* bytes), so suppressing the
                // push would leave the bytes just written never flushed —
                // lost at the next crash even though a later `sync` acked
                // them. A SeqCst clock read is exact: while it still returns
                // `epoch`, no boundary for `epoch` has published, so a
                // dedup-hit entry is still resident and will flush our bytes.
                let saved = self
                    .buffers
                    .push_persist(&self.pool, tid, epoch, blk, len, || {
                        self.clock().load(Ordering::SeqCst) == epoch
                    });
                if saved > 0 {
                    // ord(counter): stats tally.
                    self.stats
                        .flushes_coalesced
                        .fetch_add(saved, Ordering::Relaxed);
                }
            }
            // lint: allow(flush-no-fence): DirWB defers the fence to the epoch boundary, like the buffered path; the clock-CAS/mirror ordering at that boundary is model-checked by interleave's harness_epoch
            PersistStrategy::DirWB => {
                self.pool.clwb_range(blk, len as usize);
                g.flushed.set(true);
            }
            PersistStrategy::None => {}
        }
    }

    /// `PNEW`: creates a payload holding `val`, labelled with the operation's
    /// epoch and the given user type tag (used to route payloads to the
    /// right structure during recovery).
    pub fn pnew<T: Copy>(&self, g: &OpGuard<'_>, tag: u16, val: &T) -> PHandle<T> {
        let size = std::mem::size_of::<T>();
        debug_assert!(
            std::mem::align_of::<T>() <= 16,
            "payload alignment > 16 unsupported"
        );
        let blk = self.ralloc.alloc(HDR_SIZE + size);
        // SAFETY: `blk` was sized HDR_SIZE + size above and is still
        // thread-private; T: Copy rules out drop obligations.
        unsafe { self.pool.write(Header::data(blk), val) };
        self.seal_pnew(g, blk, tag, size);
        PHandle::from_raw(blk)
    }

    /// `PNEW` for runtime-sized byte payloads.
    pub fn pnew_bytes(&self, g: &OpGuard<'_>, tag: u16, bytes: &[u8]) -> PHandle<[u8]> {
        self.pnew_parts(g, tag, bytes, &[])
    }

    /// `PNEW` of the byte payload `head ‖ tail` — a keyed structure's key
    /// image and value — each part stored straight into the block.
    pub fn pnew_parts(&self, g: &OpGuard<'_>, tag: u16, head: &[u8], tail: &[u8]) -> PHandle<[u8]> {
        let size = head.len() + tail.len();
        let blk = self.ralloc.alloc(HDR_SIZE + size);
        self.write_parts(blk, head, tail);
        self.seal_pnew(g, blk, tag, size);
        PHandle::from_raw(blk)
    }

    /// Stores `head ‖ tail` as the fresh block `blk`'s data bytes, unstaged.
    fn write_parts(&self, blk: POff, head: &[u8], tail: &[u8]) {
        self.pool.write_bytes(Header::data(blk), head);
        if !tail.is_empty() {
            self.pool
                .write_bytes(Header::data(blk).add(head.len() as u64), tail);
        }
    }

    /// What every `PNEW` does once the data bytes are in `blk`: seals an
    /// `ALLOC` header with a fresh uid over them, queues the block's
    /// write-back and counts the payload.
    #[inline]
    fn seal_pnew(&self, g: &OpGuard<'_>, blk: POff, tag: u16, size: usize) {
        // The header seals *after* the data lands: its checksum covers the
        // data bytes as stored (read back from the pool, so a `T`'s padding
        // bytes checksum exactly as written), which lets recovery quarantine
        // a torn payload whose header line persisted but data lines did not.
        let data_sum = Header::data_sum_pooled(&self.pool, blk, size as u32);
        Header::write_new(
            &self.pool,
            blk,
            PayloadKind::Alloc,
            tag,
            g.epoch,
            self.next_uid(g.tid.0),
            size as u32,
            data_sum,
        );
        self.record_persist(g, blk, (HDR_SIZE + size) as u32);
        // ord(counter): stats tally.
        self.stats.pnews.fetch_add(1, Ordering::Relaxed);
    }

    /// `get`: reads the payload by value (old-see-new alert enabled).
    pub fn read<T: Copy>(&self, g: &OpGuard<'_>, h: PHandle<T>) -> Result<T, OldSeeNewException> {
        self.osn_check(g, h.blk)?;
        // SAFETY: a live PHandle<T> points at a payload of size_of::<T>()
        // bytes written by pnew/set; payload reads are race-free per the
        // paper's well-formedness constraint 2.
        Ok(unsafe { self.pool.read(Header::data(h.blk)) })
    }

    /// Borrowing read of a byte payload: runs `f` on a reference into it.
    /// Safe under the paper's well-formedness constraint 2 (payload accesses
    /// are race-free because synchronization happens on transient state).
    pub fn peek_bytes<R>(
        &self,
        g: &OpGuard<'_>,
        h: PHandle<[u8]>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, OldSeeNewException> {
        self.osn_check(g, h.blk)?;
        let size = Header::size(&self.pool, h.blk) as usize;
        // SAFETY: the header records the payload's byte length, so the slice
        // covers exactly the initialized data area; the borrow ends with `f`.
        Ok(f(unsafe { self.pool.bytes(Header::data(h.blk), size) }))
    }

    /// Byte-payload read without the old-see-new alert.
    pub fn peek_bytes_unsafe<R>(&self, h: PHandle<[u8]>, f: impl FnOnce(&[u8]) -> R) -> R {
        self.pool.touch(); // NVM payload dereference
        let size = Header::size(&self.pool, h.blk) as usize;
        // SAFETY: same slice-validity argument as `peek_bytes`.
        f(unsafe { self.pool.bytes(Header::data(h.blk), size) })
    }

    /// `set`: applies `f` to the payload. In place when the payload already
    /// carries the operation's epoch; otherwise Montage clones it into the
    /// current epoch (`UPDATE` payload, same uid) and retires the old
    /// version. **The caller must replace every stored handle with the
    /// returned one** (paper constraint 4).
    #[must_use = "set may return a new handle that must replace the old one"]
    pub fn set<T: Copy>(
        &self,
        g: &OpGuard<'_>,
        h: PHandle<T>,
        f: impl FnOnce(&mut T),
    ) -> Result<PHandle<T>, OldSeeNewException> {
        let pe = self.osn_check(g, h.blk)?;
        let blk = self.set_raw(g, h.blk, pe, std::mem::size_of::<T>(), |pool, data| {
            // SAFETY: `data` points at a valid T (see `read`); set_raw runs
            // under the operation guard, and constraint 2 makes payload
            // access exclusive, so the &mut cannot alias.
            f(unsafe { &mut *pool.at::<T>(data) })
        });
        Ok(PHandle::from_raw(blk))
    }

    /// `set` for byte payloads.
    #[must_use = "set may return a new handle that must replace the old one"]
    pub fn set_bytes(
        &self,
        g: &OpGuard<'_>,
        h: PHandle<[u8]>,
        f: impl FnOnce(&mut [u8]),
    ) -> Result<PHandle<[u8]>, OldSeeNewException> {
        let pe = self.osn_check(g, h.blk)?;
        let size = Header::size(&self.pool, h.blk) as usize;
        let blk = self.set_raw(g, h.blk, pe, size, |pool, data| {
            // SAFETY: `size` comes from the payload header, and exclusive
            // payload access (constraint 2) makes the &mut slice unique.
            let ptr = unsafe { pool.at::<u8>(data) };
            f(unsafe { std::slice::from_raw_parts_mut(ptr, size) })
        });
        Ok(PHandle::from_raw(blk))
    }

    /// The body of every same-size `set`; `pe` is the payload's epoch from
    /// the caller's `osn_check`. `apply` leaves the first `keep` data bytes as
    /// they are: all a copy-on-write has to carry over from the old version.
    fn set_raw(
        &self,
        g: &OpGuard<'_>,
        blk: POff,
        pe: u64,
        keep: usize,
        apply: impl FnOnce(&PmemPool, POff),
    ) -> POff {
        let size = Header::size(&self.pool, blk);
        let total = HDR_SIZE as u32 + size;
        if pe == g.epoch || self.cfg.persist == PersistStrategy::None {
            // Hot payload (or Montage(T), where epochs never move): update in
            // place.
            apply(&self.pool, Header::data(blk));
            // `apply` stores through a raw pointer the sanitizer cannot see;
            // declare the whole data extent dirty before queueing its flush.
            self.pool.san_mark_dirty(Header::data(blk), size as usize);
            // Re-derive the header checksum over the bytes `apply` just
            // stored, so a crash that persists this set's data lines only
            // partially is caught at recovery (the extent rides the same
            // boundary flush as the header line).
            Header::reseal(&self.pool, blk);
            self.record_persist(g, blk, total);
            // ord(counter): stats tally.
            self.stats.sets_in_place.fetch_add(1, Ordering::Relaxed);
            blk
        } else {
            // Copy-on-write into the current epoch.
            assert!(keep <= size as usize, "set keeps more than the payload");
            let nblk = self.ralloc.alloc(total as usize);
            // SAFETY: `blk` is a live payload holding `size >= keep` data
            // bytes and `nblk` a distinct fresh block of the same size — no
            // overlap.
            unsafe {
                // lint: allow(raw-write): the clone is declared via san_mark_dirty below and persisted by record_persist
                std::ptr::copy_nonoverlapping(
                    self.pool.at::<u8>(Header::data(blk)) as *const u8,
                    self.pool.at::<u8>(Header::data(nblk)),
                    keep,
                );
            }
            // The pool-to-pool copy is invisible to the sanitizer.
            self.pool.san_mark_dirty(nblk, total as usize);
            // Mutate the clone first, then seal the header over the final
            // bytes: the checksum must cover what this epoch will persist,
            // not the pre-`apply` copy.
            apply(&self.pool, Header::data(nblk));
            Header::write_new(
                &self.pool,
                nblk,
                PayloadKind::Update,
                Header::tag(&self.pool, blk),
                g.epoch,
                Header::uid(&self.pool, blk),
                size,
                Header::data_sum_pooled(&self.pool, nblk, size),
            );
            self.record_persist(g, nblk, total);
            self.retire(g, blk, g.epoch);
            // ord(counter): stats tally.
            self.stats.sets_copied.fetch_add(1, Ordering::Relaxed);
            nblk
        }
    }

    /// The size-changing half of [`overwrite_tail`](Self::overwrite_tail),
    /// its only caller: replaces a byte payload's contents with its first
    /// `head_len` bytes followed by `tail`, keeping the payload's **uid** so
    /// the old and new versions cancel correctly at recovery — the newest
    /// epoch's record for a uid wins.
    fn replace_raw(
        &self,
        g: &OpGuard<'_>,
        blk: POff,
        pe: u64,
        head_len: usize,
        tail: &[u8],
    ) -> POff {
        let tag = Header::tag(&self.pool, blk);
        let uid = Header::uid(&self.pool, blk);
        let old_kind = Header::kind(&self.pool, blk).expect("replace of non-payload");
        debug_assert_ne!(
            old_kind,
            PayloadKind::Delete,
            "replace_raw of an anti-payload"
        );
        let size = head_len + tail.len();
        let nblk = self.ralloc.alloc(HDR_SIZE + size);
        // SAFETY: the caller checked `head_len` against the live payload's
        // size; `nblk` is a distinct fresh block, so the stores below land
        // outside the borrowed extent.
        let head = unsafe { self.pool.bytes(Header::data(blk), head_len) };
        self.write_parts(nblk, head, tail);
        let sum = Header::data_sum_pooled(&self.pool, nblk, size as u32);
        // Same-epoch resize: the new block simply supersedes the old.
        // Cross-epoch: an `Update` payload with the same uid in the current
        // epoch strictly supersedes it at recovery (newest epoch wins).
        let same_epoch = pe == g.epoch || self.cfg.persist == PersistStrategy::None;
        let kind = if same_epoch {
            old_kind
        } else {
            PayloadKind::Update
        };
        Header::write_new(&self.pool, nblk, kind, tag, g.epoch, uid, size as u32, sum);
        self.record_persist(g, nblk, (HDR_SIZE + size) as u32);
        if same_epoch {
            // Create-then-tombstone, so no crash cut sees the uid vanish:
            // before the new block's lines land, the old version recovers;
            // in the window where both are flushed, recovery's cancel pass
            // keeps exactly one (same uid, same epoch — either content is a
            // consistent prefix of this still-unacked op); once the
            // tombstone lands, only the new one. The old block may already
            // have drained to the media earlier this epoch; re-queue its
            // tombstoned header so the invalidation rides the same boundary
            // flush.
            Header::tombstone(&self.pool, blk);
            self.record_persist(g, blk, HDR_SIZE as u32);
            self.ralloc.dealloc(blk);
        } else {
            // The old block retires on the usual two-epoch schedule.
            self.retire(g, blk, g.epoch);
        }
        // ord(counter): stats tally.
        self.stats.sets_copied.fetch_add(1, Ordering::Relaxed);
        nblk
    }

    /// The overwrite verb of every keyed structure: replaces everything past
    /// the payload's first `head_len` bytes (the key image, which an
    /// overwrite never changes) with `tail`, on one charged dereference and
    /// without reading what it replaces. A same-length tail is a `set` (in
    /// place, or into a copy that carries over only the head); any other
    /// length is a same-uid replacement of `head ‖ tail`. Either way the key
    /// keeps its uid, so every crash cut recovers exactly one version of it —
    /// which a `pnew_bytes` + `pdelete` pair does not promise once an epoch
    /// boundary may bypass a stalled thread between the two.
    #[must_use = "overwrite may return a new handle that must replace the old one"]
    pub fn overwrite_tail(
        &self,
        g: &OpGuard<'_>,
        h: PHandle<[u8]>,
        head_len: usize,
        tail: &[u8],
    ) -> Result<PHandle<[u8]>, OldSeeNewException> {
        let pe = self.osn_check(g, h.blk)?;
        let size = Header::size(&self.pool, h.blk) as usize;
        assert!(head_len <= size, "overwrite_tail: head past the payload");
        let blk = if size == head_len + tail.len() {
            self.set_raw(g, h.blk, pe, head_len, |pool, data| {
                // SAFETY: the data area holds `head_len + tail.len()` bytes
                // (checked above), and exclusive payload access (constraint
                // 2) makes the &mut slice unique.
                let ptr = unsafe { pool.at::<u8>(data.add(head_len as u64)) };
                unsafe { std::slice::from_raw_parts_mut(ptr, tail.len()) }.copy_from_slice(tail)
            })
        } else {
            self.replace_raw(g, h.blk, pe, head_len, tail)
        };
        Ok(PHandle::from_raw(blk))
    }

    /// `PDELETE`: logically deletes a payload. The block is reclaimed only
    /// after the deletion is two epochs old; an **anti-payload** sharing the
    /// target's uid records the deletion for recovery in the meantime
    /// (paper Sec. 3.2 and Fig. 3 lines 48–60).
    pub fn pdelete<T: ?Sized>(
        &self,
        g: &OpGuard<'_>,
        h: PHandle<T>,
    ) -> Result<(), OldSeeNewException> {
        self.pdelete_raw(g, h.blk)
    }

    fn pdelete_raw(&self, g: &OpGuard<'_>, blk: POff) -> Result<(), OldSeeNewException> {
        let pe = self.osn_check(g, blk)?;
        // ord(counter): stats tally.
        self.stats.pdeletes.fetch_add(1, Ordering::Relaxed);

        if self.cfg.free == FreeStrategy::Direct {
            // Ablation mode: immediate reclamation, no anti-payload (the
            // paper's "+DirFree" — explicitly not crash-consistent).
            Header::tombstone(&self.pool, blk);
            self.ralloc.dealloc(blk);
            return Ok(());
        }

        if pe == g.epoch {
            match Header::kind(&self.pool, blk).expect("pdelete of non-payload") {
                PayloadKind::Alloc => {
                    // Created this epoch: discard outright. The payload may
                    // already have been written back by an overflowing
                    // buffer, so the tombstoned header must reach the
                    // boundary flush too — otherwise a crash *after* this
                    // epoch persists would resurrect it.
                    Header::tombstone(&self.pool, blk);
                    self.record_persist(g, blk, HDR_SIZE as u32);
                    self.ralloc.dealloc(blk);
                }
                PayloadKind::Update => {
                    // A same-epoch copy of an older version: turn it into the
                    // anti-payload for its uid in place, and re-queue the
                    // header in case the original write-back entry already
                    // drained with the old kind. Reclamation happens one
                    // epoch after a normal retirement so the deletion record
                    // outlives the data it cancels.
                    Header::set_kind(&self.pool, blk, PayloadKind::Delete);
                    self.record_persist(g, blk, HDR_SIZE as u32);
                    self.buffers
                        .push_free(&self.pool, g.tid.0, g.epoch + 1, blk);
                }
                PayloadKind::Delete => unreachable!("double pdelete of an anti-payload"),
            }
        } else {
            // Old payload: allocate an anti-payload with the same uid.
            let anti = self.ralloc.alloc(HDR_SIZE);
            Header::write_new(
                &self.pool,
                anti,
                PayloadKind::Delete,
                Header::tag(&self.pool, blk),
                g.epoch,
                Header::uid(&self.pool, blk),
                0,
                Header::data_sum(&[]),
            );
            self.record_persist(g, anti, HDR_SIZE as u32);
            self.buffers
                .push_free(&self.pool, g.tid.0, g.epoch + 1, anti);
            self.retire(g, blk, g.epoch);
        }
        Ok(())
    }

    /// Retires `unlinked`, a `Box`ed object the caller just unlinked: the
    /// first advance whose [`reclaim_limit`](Self::reclaim_limit) reaches its
    /// label drops it, under every [`FreeStrategy`]. The label is the clock
    /// read *after* the unlink, not `g.epoch()`: a reader that loaded the
    /// pointer announced itself at or below that read, but a straggler's
    /// epoch lags (unlinking at *r + 5* after a reader registered at *r + 3*,
    /// labelled *r* it is freed under that reader). Montage(T) never
    /// advances: its retirements are freed when this system drops.
    ///
    /// # Safety
    /// `unlinked` comes from `Box::into_raw`, no operation that begins after
    /// this call can reach it, it is retired once, and dropping it stays
    /// sound until this system drops (a `Copy` key has no destructor).
    pub unsafe fn retire_transient<T: Send>(&self, g: &OpGuard<'_>, unlinked: *mut T) {
        // SAFETY: per the contract, which also makes erasing `T`'s lifetime
        // sound: the box is dropped no later than this system.
        let obj: Retired =
            unsafe { std::mem::transmute(Box::from_raw(unlinked) as Box<dyn Send + '_>) };
        let mut queue = self.retired.lock();
        // SeqCst joins every reader's announce/validate order. Read under the
        // lock, labels join the queue in order; reading later only raises one.
        let mut label = self.clock().load(Ordering::SeqCst);
        if seeded("esys.retire.label") {
            label = g.epoch;
        }
        queue.push_back((label, obj));
        // ord(counter): written under the lock; a stale read only delays a free.
        self.retired_len.store(queue.len(), Ordering::Relaxed);
    }

    /// Frees the retirements labelled ≤ `limit`, a prefix of the queue. The
    /// model checker poisons them instead (kept allocated, reported by
    /// [`EpochSys::debug_freed`]), so a reader that outlives one trips an
    /// assertion, not UB.
    fn free_retired(&self, limit: u64) {
        let limit = limit + if seeded("esys.retire.limit") { 2 } else { 0 };
        let mut queue = self.retired.lock();
        let due = queue.partition_point(|r| r.0 <= limit);
        #[cfg(feature = "interleave-check")]
        self.poisoned.lock().extend(queue.drain(..due).map(|r| r.1));
        #[cfg(not(feature = "interleave-check"))]
        drop(queue.drain(..due));
        // ord(counter): written under the lock; a stale read only delays a free.
        self.retired_len.store(queue.len(), Ordering::Relaxed);
    }

    /// Whether the transient object at `p` was freed. A model-check probe.
    #[cfg(feature = "interleave-check")]
    #[doc(hidden)]
    pub fn debug_freed<T>(&self, p: *const T) -> bool {
        let freed = self.poisoned.lock();
        freed.iter().any(|r| std::ptr::addr_eq(&**r, p))
    }

    /// Schedules `blk` for reclamation two epochs after `epoch`.
    fn retire(&self, g: &OpGuard<'_>, blk: POff, epoch: u64) {
        if self.cfg.free == FreeStrategy::Direct || self.cfg.persist == PersistStrategy::None {
            Header::tombstone(&self.pool, blk);
            self.ralloc.dealloc(blk);
        } else {
            self.buffers.push_free(&self.pool, g.tid.0, epoch, blk);
        }
    }

    // ---- epoch advance and sync ------------------------------------------------

    /// Retirements labelled ≤ this value — payloads and transient objects
    /// alike — are safe to free given the clock `epoch` and the frontier
    /// `oldest` ([`Tracker::oldest_active`]): the paper's two-epoch schedule,
    /// capped so that a thread still registered in *o* (a bypassed
    /// straggler) keeps everything retired in ≥ *o−1*, all it can hold.
    /// The scan feeding `oldest` must run **after** the caller read the
    /// clock at `epoch`: an older registration announced (SeqCst) before it
    /// validated, hence before that read, so the scan cannot miss it; a
    /// concurrent one validates at ≥ `epoch` and holds nothing this frees.
    #[inline]
    fn reclaim_limit(epoch: u64, oldest: u64) -> u64 {
        (epoch - 2).min(oldest.saturating_sub(2))
    }

    /// Advances the epoch clock by one (paper Fig. 3 `advance_epoch` plus the
    /// reclamation schedule of Sec. 3.2), **without blocking on any other
    /// thread** (nbMontage's liveness property): gives epoch *e−1* a bounded
    /// grace window, writes back its payloads — *helping* a stalled
    /// drainer's claimed ring entries instead of waiting — reclaims behind
    /// the oldest-active frontier, fences, then CASes the clock (concurrent
    /// advancers race for one tick) and persists it.
    ///
    /// Bypassing a straggler is safe: acked work was pushed to the rings and
    /// is popped or helped before the fence (only its unfinished, unacked op
    /// can hold unflushed bytes); it pins [`Tracker::oldest_active`], so
    /// nothing it can reference is freed; and entries it pushes late under
    /// *e−1* ride a later boundary, which its own `sync` waits for.
    pub fn advance_epoch(&self) {
        if let Some(ticket) = self.advance_issue() {
            self.advance_complete(ticket);
        }
    }

    /// First half of an advance: everything up to the boundary fence's
    /// *issue* (`None` for Montage(T), which has no epochs). Before the
    /// second half runs, the caller may issue other systems' advances — their
    /// pools then drain side by side — and another thread may run, and win,
    /// this same boundary: the clock CAS arbitrates that as it always has.
    pub(crate) fn advance_issue(&self) -> Option<AdvanceTicket> {
        if self.cfg.persist == PersistStrategy::None {
            return None; // Montage(T): no epochs, no persistence
        }
        // ord(acquire): the boundary below must see state from the advance
        // that published e (pairs with the SeqCst clock CAS).
        let e = self.clock().load(Ordering::Acquire);
        let stragglers = self
            .tracker
            .wait_all_bounded(e - 1, self.cfg.advance_grace_spins);

        let n = self.registered();
        // Write back all payloads of epoch e-1. The per-thread lock-free
        // ring scan is exact, so an untouched thread costs a handful of
        // atomic loads and no drain.
        for t in 0..n {
            if self.buffers.min_pending(t) < e {
                self.buffers.drain_persist_upto(&self.pool, t, e - 1);
            }
        }

        // Reclaim what the background advancer's slices left behind the
        // frontier (tombstones join this boundary's flush batch; deallocation
        // happens after the fence). The frontier scan is exact for epochs < e
        // because we read the clock at e above (see `reclaim_limit`).
        // Transient retirements ride the same frontier, whatever the
        // payloads' FreeStrategy.
        let mut reclaimed = Vec::new();
        // ord(counter): a stale zero leaves a retirement for the next advance.
        let transient = self.retired_len.load(Ordering::Relaxed) > 0;
        if self.cfg.free == FreeStrategy::Background || transient {
            let limit = Self::reclaim_limit(e, self.tracker.oldest_active());
            if self.cfg.free == FreeStrategy::Background {
                let tally = &self.stats.reclaimed_at_boundary;
                self.take_free(limit, usize::MAX, &mut reclaimed, tally);
            }
            if transient {
                self.free_retired(limit);
            }
        }

        // Help any claimed-but-unreleased ring entry to completion before
        // fencing: a consumer (BEGIN_OP helper, concurrent advancer, or
        // overflow pop) flushes *inside* its claim window, so an entry still
        // claimed may not have been written back yet. Rather than waiting
        // for the claimant — it may be parked mid-pop forever — re-issue its
        // clwb from the published (off, len) and CAS the slot released.
        // Duplicate clwbs are idempotent; the CAS makes the release exact.
        // The claim census makes the common case one atomic load: it reads
        // zero only when no pop pass can be parked inside a claim window
        // (see DESIGN.md S3a, the claim census), which is every boundary
        // of a healthy run — the full slot scan is reserved for boundaries
        // that actually have a straggling drainer to help.
        if self.buffers.claims_open() {
            for t in 0..n {
                self.buffers.help_drainers(&self.pool, t);
            }
        }

        Some(AdvanceTicket {
            e,
            stragglers,
            fence: self.pool.sfence_issue(),
            reclaimed,
        })
    }

    /// Second half: awaits the boundary fence, then ticks and persists the
    /// clock and frees what the ticket's own pass reclaimed.
    pub(crate) fn advance_complete(&self, ticket: AdvanceTicket) {
        let AdvanceTicket { e, stragglers, .. } = ticket;
        ticket.fence.wait();
        // This fence is the boundary that declares epoch e-1 durable; under
        // `persist-san`, assert that no tracked store from before the
        // previous boundary is still unflushed (no-op otherwise). Advancers
        // racing over this boundary all report it, before any of them can
        // tick the clock, and the sanitizer counts `e` once. A bypassed
        // straggler parked mid-op may legitimately hold dirty lines it has
        // not pushed yet (they belong to an unfinished, unacked op), so the
        // assertion only runs on quiescent boundaries.
        self.pool.san_epoch_boundary(e, stragglers == 0);

        // Now everything labelled <= e-1 is durable: publish epoch e+1. The
        // CAS admits exactly one winner per tick; a loser raced another
        // advancer over the same boundary, whose winner does the publishing
        // (both performed the same drains, so the boundary's guarantees hold
        // either way).
        if self
            .clock()
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            // The clock store is an atomic the sanitizer cannot see.
            self.pool
                .san_mark_dirty(POff::root_slot(CLOCK_SLOT), std::mem::size_of::<u64>());
            self.pool.clwb(POff::root_slot(CLOCK_SLOT));
            self.pool.sfence();
            // Publish the durable frontier — but only on a healthy pool: a
            // tripped fault plan dropped the clwb above, so claiming e+1
            // durable would let a `sync` ack work the media never saw. The
            // clwb flushes the clock line's *current* value (≥ e+1), so a
            // winner parked between its CAS and its clwb is covered by the
            // next winner's flush; fetch_max keeps the mirror monotone.
            if self.pool.check_fault().is_ok() {
                // ord(acqrel): release — a syncer that acquires the mirror
                // must see every drain and fence of this boundary; acquire —
                // keep the monotone max exact against racing winners.
                self.durable_clock
                    .fetch_max(e + 1, weaken("esys.durable.mirror", Ordering::AcqRel));
            }
            // ord(counter): stats tally.
            self.stats.advances.fetch_add(1, Ordering::Relaxed);
        }

        self.free_fenced(ticket.reclaimed);
    }

    /// Tombstones and writes back, without a fence, every thread's payload
    /// retirements labelled `<= limit` into `out` until it holds `cap`
    /// blocks, counting them in `tally`. Oldest label first across threads:
    /// a fence that falls between two budgeted takes must never make an
    /// anti-payload's or a newer version's tombstone durable while the older
    /// version it supersedes is still live, for recovery would keep that one.
    fn take_free(&self, limit: u64, cap: usize, out: &mut Vec<POff>, tally: &raw::AtomicU64) {
        let (from, threads) = (out.len(), 0..self.registered());
        while out.len() < cap {
            let oldest = threads.clone().map(|t| self.buffers.free_due(t, limit).1);
            let (label, before) = (oldest.min().unwrap_or(u64::MAX), out.len());
            if label > limit {
                break;
            }
            for t in threads.clone() {
                self.buffers.take_free_upto(&self.pool, t, label, cap, out);
            }
            if out.len() == before {
                break; // a concurrent taker was first
            }
        }
        // ord(counter): stats tally.
        tally.fetch_add((out.len() - from) as u64, Ordering::Relaxed);
    }

    /// The frontier of paced reclamation (0 unless the advancer's): the
    /// `reclaim_limit` of the *durable* clock, which a sync winner parked
    /// before its clock clwb holds back (the acquire orders the frontier
    /// scan after its CAS). Slices apply the straggler cap; backlog counts do not.
    fn paced_limit(&self, capped: bool) -> u64 {
        if self.cfg.free != FreeStrategy::Background {
            return 0;
        }
        // ord(acquire): pairs with the winner's durable-clock release.
        let e = self.durable_clock.load(Ordering::Acquire);
        let oldest = (capped && !seeded("esys.slice.cap")).then(|| self.tracker.oldest_active());
        Self::reclaim_limit(e, oldest.unwrap_or(u64::MAX))
    }

    /// Retirements due at the durable clock: what the advancer paces.
    pub(crate) fn reclaim_backlog(&self) -> usize {
        let limit = self.paced_limit(false);
        let due = (0..self.registered()).map(|t| self.buffers.free_due(t, limit).0);
        due.sum()
    }

    /// One slice of the advancer's paced reclamation: tombstones and writes
    /// back, each line on its own and without a fence, up to `budget`
    /// retirements behind the boundary's own frontier cap into `paced`,
    /// which may be freed only after a fence issued after this call.
    #[doc(hidden)]
    pub fn reclaim_slice(&self, budget: usize, paced: &mut Vec<POff>) {
        let (limit, cap) = (self.paced_limit(true), paced.len().saturating_add(budget));
        self.take_free(limit, cap, paced, &self.stats.reclaimed_paced);
    }

    /// Frees reclaimed blocks once a fence issued after their tombstones'
    /// write-backs has been awaited.
    pub(crate) fn free_fenced(&self, blocks: impl IntoIterator<Item = POff>) {
        for blk in blocks {
            self.ralloc.dealloc(blk);
        }
    }

    /// `sync`: returns once every operation that completed before the call
    /// is durable — "request and wait for two-epoch advance". The caller
    /// helps perform the write-backs itself (it drives `advance_epoch`), so
    /// sync latency does not depend on the background advancer's period.
    ///
    /// **Bounded** (nbMontage's sync property): each `advance_epoch` this
    /// loop drives completes in a bounded number of steps no matter what any
    /// other thread does — a stalled peer is helped and bypassed, never
    /// waited on — and each iteration either wins the tick (raising the
    /// durable clock) or loses it to a concurrent advancer (the clock grew;
    /// at most `max_threads` winners can park pre-publish before a win is
    /// ours). One session's parked or dead thread therefore cannot stall
    /// another session's `sync`.
    ///
    /// Must be called **outside** any operation (as with `fsync`, you sync
    /// after the operation returns); a sync *inside* an op completes — the
    /// bounded advance bypasses the caller's own registration after the
    /// grace window — but each boundary it drives pays the full grace spin,
    /// so keep it off hot paths and prefer ending the op first.
    pub fn sync(&self) {
        // On a poisoned pool "persistent" is unachievable; degrading to a
        // no-op (rather than panicking or spinning) matches what the caller
        // can still do about it: nothing. Checked callers use `try_sync`.
        let _ = self.try_sync();
    }

    /// Checked [`EpochSys::sync`]: reports [`PmemFault::Crashed`] instead of
    /// returning success when the pool's fault plan trips, since a crashed
    /// pool can never make the remaining buffered work durable. The fault is
    /// re-checked every advance so a plan tripping *mid-sync* also unwinds.
    pub fn try_sync(&self) -> Result<(), PmemFault> {
        let [(result, _)] = Self::sync_group_into(&[self], None, [SETTLED]);
        result.map(|done| debug_assert!(done, "unbounded sync cannot time out"))
    }

    /// Syncs a *group* of epoch systems (a batch's shards) side by side:
    /// every system still short of its target has one advance in flight —
    /// boundary fence issued, not yet awaited — and the loop completes
    /// whichever fence its device finishes first, then issues that system's
    /// next advance. The pools drain concurrently: the caller pays the
    /// slowest system's sync, not the sum, and a healthy system certifies
    /// without queueing behind a straggler's drain. Returns, per system, the
    /// verdict and the time from the group's start to it: `Ok(true)`,
    /// everything completed before the call is durable; `Err`, that system's
    /// pool faulted (its peers are unaffected); `Ok(false)`, its durable
    /// clock had not crossed the target by `deadline` — checked after each
    /// of its advances, so the overshoot is bounded by one advance. A
    /// timed-out sync made real progress (advances it drove stay driven), it
    /// just stopped *waiting*; the caller keeps no durability claim for
    /// operations acked before the call. `None` waits forever.
    pub fn try_sync_group(
        group: &[&EpochSys],
        deadline: Option<std::time::Instant>,
    ) -> Vec<SyncOutcome> {
        Self::sync_group_into(group, deadline, vec![SETTLED; group.len()])
    }

    /// [`EpochSys::try_sync_group`] writing into the caller's `outcomes`
    /// (one slot per system): a `Vec` for a batch's shards, a one-element
    /// array for `try_sync`, whose destructure then checks the length at
    /// compile time.
    fn sync_group_into<O: AsMut<[SyncOutcome]>>(
        group: &[&EpochSys],
        deadline: Option<std::time::Instant>,
        mut slots: O,
    ) -> O {
        let start = std::time::Instant::now();
        let outcomes = slots.as_mut();
        debug_assert_eq!(outcomes.len(), group.len(), "one outcome per system");
        // Records system `i`'s verdict, once it has one.
        let mut settled = |i: usize, target: u64| {
            let sys = group[i];
            // Wait on the *durable* clock, not the transient one: the clock
            // can run ahead of the media when an advance winner parks between
            // its clock store and its clwb, and "durable" must mean the
            // closing tick actually reached the durable image.
            // ord(acquire): pairs with the winner's durable-clock release; the
            // caller's durability claim covers the boundary's write-backs.
            let short = sys.durable_clock.load(Ordering::Acquire) < target + 2;
            // Checked even once it has crossed: a plan tripping *at the very
            // end* of the last advance (after its durable-clock publish) can
            // still have dropped flushes the caller cares about. Durability
            // can only be claimed on a pool that is still healthy now.
            let verdict = match sys.pool.check_fault() {
                Err(fault) => Err(fault),
                Ok(()) if !short => Ok(true),
                Ok(()) if deadline.is_some_and(|d| std::time::Instant::now() >= d) => Ok(false),
                Ok(()) => return false,
            };
            // Clear the helping hint if we were the outermost sync.
            // ord(relaxed): hint cleanup; no data rides this edge.
            let _ = sys.sync_requested.compare_exchange(
                target,
                0,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            outcomes[i] = (verdict, start.elapsed());
            true
        };
        let issue = |i: usize| group[i].advance_issue().expect("syncing implies epochs");
        // (system, target, its advance in flight)
        let mut in_flight = Vec::with_capacity(group.len());
        for (i, sys) in group.iter().enumerate() {
            if sys.cfg.persist == PersistStrategy::None {
                continue;
            }
            // ord(counter): stats tally.
            sys.stats.syncs.fetch_add(1, Ordering::Relaxed);
            let target = sys.clock().load(Ordering::SeqCst);
            // ord(relaxed): helper hint only; durability rides the
            // durable-clock acquire above, never this edge.
            sys.sync_requested.fetch_max(target, Ordering::Relaxed);
            if !settled(i, target) {
                in_flight.push((i, target, issue(i)));
            }
        }
        while let Some(n) = (0..in_flight.len()).min_by_key(|&n| in_flight[n].2.fence.ready_at()) {
            let (i, target, ticket) = in_flight.swap_remove(n);
            group[i].advance_complete(ticket);
            if !settled(i, target) {
                in_flight.push((i, target, issue(i)));
            }
        }
        slots
    }
}

/// One system's verdict from a group sync, and the time from the group's
/// start to it (see [`EpochSys::try_sync_group`]).
type SyncOutcome = (Result<bool, PmemFault>, std::time::Duration);

/// A system with nothing to wait for (Montage(T), or already durable).
const SETTLED: SyncOutcome = (Ok(true), std::time::Duration::ZERO);

/// An advance between its halves ([`EpochSys::advance_issue`] →
/// [`EpochSys::advance_complete`]): boundary fence issued, not yet awaited.
#[must_use = "an issued advance must be completed"]
pub(crate) struct AdvanceTicket {
    /// The clock value the boundary was drained at.
    e: u64,
    stragglers: usize,
    fence: pmem::FenceTicket,
    /// Blocks this pass reclaimed; freed after the fence wait.
    reclaimed: Vec<POff>,
}

/// RAII operation scope: created by [`EpochSys::begin_op`]; drop is `END_OP`.
pub struct OpGuard<'a> {
    esys: &'a EpochSys,
    tid: ThreadId,
    epoch: u64,
    /// Whether this guard owns the tracker registration. Nested guards
    /// created under an [`EpochPin`] do not — END_OP belongs to the pin.
    owns: bool,
    /// Set by a DirWB write-back, so a read-only op ends without a fence.
    flushed: Cell<bool>,
}

impl OpGuard<'_> {
    /// The epoch this operation is registered in.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if self.owns {
            self.esys.end_op(self.tid, self.flushed.get());
        }
    }
}

/// RAII epoch pin: created by [`EpochSys::try_pin_epoch`]; while held, the
/// thread's `begin_op`s are nested (non-owning) and END_OP is deferred to
/// this pin's drop. See `try_pin_epoch` for the full contract.
pub struct EpochPin<'a> {
    esys: &'a EpochSys,
    tid: ThreadId,
    epoch: u64,
}

impl EpochPin<'_> {
    /// Starts the pinning thread's buffered write-backs now, without a
    /// fence, for a batch about to `sync` anyway (nbMontage's syncer writing
    /// back early): the device drains while the batch goes on working.
    pub fn write_back(&self) {
        let sys = self.esys;
        sys.buffers.write_back_own(&sys.pool, self.tid.0);
    }

    /// The epoch the pin was taken in. Nested ops may run in later epochs
    /// (they re-register forward); this is the *floor* of the batch window.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        // ord(relaxed): owner-only flag.
        self.esys.pinned[self.tid.0].store(false, Ordering::Relaxed);
        self.esys.end_op(self.tid, true);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmem::PmemConfig;

    fn sys(cfg: EsysConfig) -> Arc<EpochSys> {
        EpochSys::format(PmemPool::new(PmemConfig::strict_for_test(32 << 20)), cfg)
    }

    #[test]
    fn format_starts_at_first_epoch() {
        let s = sys(EsysConfig::default());
        assert_eq!(s.curr_epoch(), FIRST_EPOCH);
        assert!(EpochSys::is_formatted(s.pool()));
    }

    #[test]
    fn pnew_read_roundtrip() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let g = s.begin_op(tid);
        let h = s.pnew(&g, 3, &0x1234_5678u64);
        assert_eq!(s.read(&g, h).unwrap(), 0x1234_5678);
    }

    #[test]
    fn bytes_roundtrip() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let g = s.begin_op(tid);
        let h = s.pnew_bytes(&g, 1, b"hello montage");
        s.peek_bytes(&g, h, |b| assert_eq!(b, b"hello montage"))
            .unwrap();
    }

    #[test]
    fn set_in_same_epoch_is_in_place() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let g = s.begin_op(tid);
        let h = s.pnew(&g, 0, &1u64);
        let h2 = s.set(&g, h, |v| *v = 2).unwrap();
        assert_eq!(h, h2, "same epoch: no copy");
        assert_eq!(s.read(&g, h2).unwrap(), 2);
        assert_eq!(s.stats().sets_in_place.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats().sets_copied.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn set_across_epochs_copies_and_keeps_uid() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let h = {
            let g = s.begin_op(tid);
            s.pnew(&g, 0, &1u64)
        };
        let uid_before = Header::uid(s.pool(), h.raw());
        s.advance_epoch();
        let g = s.begin_op(tid);
        let h2 = s.set(&g, h, |v| *v = 9).unwrap();
        assert_ne!(h, h2, "different epoch: copy-on-write");
        assert_eq!(Header::uid(s.pool(), h2.raw()), uid_before);
        assert_eq!(Header::kind(s.pool(), h2.raw()), Some(PayloadKind::Update));
        assert_eq!(s.read(&g, h2).unwrap(), 9);
        assert_eq!(s.read(&g, h).unwrap(), 1, "old version untouched");
    }

    /// Every arm of `overwrite_tail` — in place, copy-on-write, same-epoch
    /// and cross-epoch resize — over heads of 0, 20 and 32 bytes and tails
    /// from empty to 4 KiB: one charged dereference, the uid kept, and the
    /// new bytes recovered from a crash image under a verifying checksum.
    #[test]
    fn overwrite_tail_keeps_one_uid_through_resizes_and_crash() {
        let pattern = |len: usize, salt: usize| -> Vec<u8> {
            (0..len).map(|i| (i * 7 + salt) as u8).collect()
        };
        for head_len in [0usize, 20, 32] {
            for tail_len in [0usize, 31, 32, 4096] {
                // (advance between create and overwrite?, old tail's length)
                for (advance, old_len) in [
                    (false, tail_len),     // in place
                    (true, tail_len),      // copy-on-write, same length
                    (false, tail_len + 5), // same-epoch resize
                    (true, tail_len + 5),  // cross-epoch shrink
                    (true, tail_len / 2),  // cross-epoch grow (or 0 → 0)
                ] {
                    let at = format!("head {head_len} tail {old_len}→{tail_len} advance {advance}");
                    let (head, tail) = (pattern(head_len, 1), pattern(tail_len, 13));
                    let want = [&head[..], &tail[..]].concat();
                    let s = EpochSys::format(
                        PmemPool::new(PmemConfig::strict_for_test(4 << 20)),
                        EsysConfig::default(),
                    );
                    let tid = s.register_thread();
                    let g = s.begin_op(tid);
                    let h = s.pnew_parts(&g, 4, &head, &pattern(old_len, 99));
                    let uid = Header::uid(s.pool(), h.raw());
                    let g = if advance {
                        drop(g);
                        s.advance_epoch();
                        s.begin_op(tid)
                    } else {
                        g
                    };
                    let touches = s.pool().stats().snapshot().touches;
                    let h2 = s.overwrite_tail(&g, h, head_len, &tail).unwrap();
                    assert_eq!(
                        s.pool().stats().snapshot().touches - touches,
                        1,
                        "{at}: one charged dereference"
                    );
                    let in_place = !advance && tail_len == old_len;
                    assert_eq!(h == h2, in_place, "{at}");
                    assert_eq!(
                        s.stats().sets_in_place.load(Ordering::Relaxed),
                        in_place as u64,
                        "{at}"
                    );
                    assert_eq!(Header::uid(s.pool(), h2.raw()), uid, "{at}: uid survives");
                    s.peek_bytes(&g, h2, |b| assert_eq!(b, want, "{at}"))
                        .unwrap();
                    drop(g);
                    s.sync();
                    let rec = crate::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
                    assert_eq!(rec.report.survivors, 1, "{at}");
                    let item = &rec.shards[0][0];
                    assert_eq!((item.uid, item.tag), (uid, 4), "{at}");
                    assert!(Header::checksum_ok(rec.esys.pool(), item.blk), "{at}");
                    rec.with_bytes(item, |b| assert_eq!(b, want, "{at}"));
                }
            }
        }
    }

    /// An owner bypassed for a multiple of four epochs meets its own
    /// `epoch % 4` persist bucket: a late push labelled *e* is still there
    /// when the next op pushes *e + gap* into the same bucket. The owner
    /// writes the leftovers back before reusing the bucket, so both labels
    /// stay exact and both payloads are durable after `sync`.
    #[test]
    fn bypassed_owner_meets_its_own_bucket_four_epochs_later() {
        for (gap, cap) in [(4, 2), (4, 64), (8, 2), (8, 64)] {
            let s = sys(EsysConfig {
                persist: PersistStrategy::Buffered(cap),
                advance_grace_spins: 8,
                ..Default::default()
            });
            let tid = s.register_thread();
            let g = s.begin_op(tid);
            let e = g.epoch();
            for _ in 0..gap {
                s.advance_epoch(); // bypasses our registration after the grace window
            }
            let late = s.pnew_bytes(&g, 7, b"late push labelled e");
            drop(g);
            let g = s.begin_op(tid);
            assert_eq!(g.epoch(), e + gap);
            let fresh = s.pnew_bytes(&g, 7, b"same bucket, a multiple of four later");
            drop(g);
            assert_eq!(Header::epoch(s.pool(), late.raw()), e);
            assert_eq!(Header::epoch(s.pool(), fresh.raw()), e + gap);
            s.sync();
            let rec = crate::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
            assert_eq!(rec.report.survivors, 2, "gap {gap} cap {cap}");
        }
    }

    /// The same meeting in the free buckets: retirements pushed late under
    /// labels *e* and *e + 1* are still pinned (by the owner itself) when
    /// the next op retires under *e + gap* and *e + gap + 1*. Labels must
    /// stay exact — relabelling an old payload's retirement later than its
    /// anti-payload's would free the deletion record first — and after
    /// `sync` both deletions hold across a crash.
    #[test]
    fn bypassed_owner_meets_its_own_free_bucket_four_epochs_later() {
        for (gap, cap) in [(4, 2), (4, 64), (8, 2), (8, 64)] {
            let s = sys(EsysConfig {
                persist: PersistStrategy::Buffered(cap),
                advance_grace_spins: 8,
                ..Default::default()
            });
            let tid = s.register_thread();
            let g = s.begin_op(tid);
            let doomed: Vec<_> = (0..4u64).map(|i| s.pnew(&g, 7, &i)).collect();
            let kept = s.pnew(&g, 7, &99u64);
            drop(g);
            s.advance_epoch();

            let g = s.begin_op(tid);
            for _ in 0..gap {
                s.advance_epoch();
            }
            // Late retirements: enough to overflow a capacity-2 ring.
            for h in &doomed[..3] {
                s.pdelete(&g, *h).unwrap();
            }
            drop(g);
            let g = s.begin_op(tid);
            s.pdelete(&g, doomed[3]).unwrap();
            drop(g);

            s.sync();
            s.sync(); // reclamation runs two epochs behind
            let rec = crate::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
            assert_eq!(rec.report.survivors, 1, "gap {gap} cap {cap}");
            let item = &rec.shards[0][0];
            assert_eq!(item.uid, Header::uid(s.pool(), kept.raw()));
            assert_eq!(rec.read::<u64>(item), 99);
        }
    }

    /// A transient object whose drops the retirement tests count.
    struct Counted(Arc<raw::AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn retire_counted(s: &EpochSys, g: &OpGuard<'_>, drops: &Arc<raw::AtomicUsize>) {
        let obj = Box::into_raw(Box::new(Counted(drops.clone())));
        // SAFETY: a fresh box no structure links to, retired once.
        unsafe { s.retire_transient(g, obj) }
    }

    /// Retirements an advance has freed: dropped, or — in the model
    /// checker's build, which poisons instead of freeing — poisoned.
    fn freed(s: &EpochSys, drops: &raw::AtomicUsize) -> usize {
        #[cfg(feature = "interleave-check")]
        let poisoned = s.poisoned.lock().len();
        #[cfg(not(feature = "interleave-check"))]
        let poisoned = {
            let _ = s;
            0
        };
        drops.load(Ordering::Relaxed) + poisoned
    }

    /// The label rule: a straggling writer whose op began at *e* unlinks at
    /// *e + 2*, after a reader registered there. The retirement must outlive
    /// that reader however long it is bypassed — labelled *e* it would be
    /// freed by the first advance after the writer leaves.
    #[test]
    fn a_transient_retirement_outlives_every_reader_at_or_below_its_label() {
        let s = sys(EsysConfig {
            advance_grace_spins: 8,
            ..Default::default()
        });
        let (writer, reader) = (s.register_thread(), s.register_thread());
        let drops = Arc::new(raw::AtomicUsize::new(0));
        let w = s.begin_op(writer);
        s.advance_epoch();
        s.advance_epoch(); // bypasses the writer after the grace window
        let r = s.begin_op(reader);
        assert_eq!(r.epoch(), w.epoch() + 2);
        retire_counted(&s, &w, &drops);
        drop(w);
        for _ in 0..6 {
            s.advance_epoch(); // bypasses the reader from the second on
            assert_eq!(freed(&s, &drops), 0, "freed under a registered reader");
        }
        drop(r);
        s.advance_epoch();
        assert_eq!(freed(&s, &drops), 1, "the reader left: the frontier passes");
    }

    /// With nobody registered, the first advance whose frontier
    /// (`clock − 2`) reaches the label frees the retirement, once.
    #[test]
    fn a_transient_retirement_is_freed_by_the_first_advance_past_its_label() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let drops = Arc::new(raw::AtomicUsize::new(0));
        retire_counted(&s, &s.begin_op(tid), &drops);
        let mut seen = vec![];
        for _ in 0..4 {
            s.advance_epoch();
            seen.push(freed(&s, &drops));
        }
        assert_eq!(seen, [0, 0, 1, 1]);
    }

    /// Montage(T) never advances: its retirement is freed exactly once, when
    /// the system drops. Direct freeing of payloads changes nothing for
    /// transient memory: the advance frees it, as under the default.
    #[test]
    fn a_transient_retirement_without_advances_is_freed_at_drop() {
        let drops = Arc::new(raw::AtomicUsize::new(0));
        let s = sys(EsysConfig::transient());
        let tid = s.register_thread();
        retire_counted(&s, &s.begin_op(tid), &drops);
        for _ in 0..4 {
            s.advance_epoch();
        }
        s.sync();
        assert_eq!(freed(&s, &drops), 0);
        drop(s);
        assert_eq!(drops.load(Ordering::Relaxed), 1, "freed at drop");

        let drops = Arc::new(raw::AtomicUsize::new(0));
        let s = sys(EsysConfig {
            free: FreeStrategy::Direct,
            ..Default::default()
        });
        let tid = s.register_thread();
        retire_counted(&s, &s.begin_op(tid), &drops);
        for _ in 0..3 {
            s.advance_epoch();
        }
        assert_eq!(freed(&s, &drops), 1, "the advance frees it");
        drop(s);
        assert_eq!(drops.load(Ordering::Relaxed), 1, "and only once");
    }

    #[test]
    fn epoch_advance_moves_clock_and_persists() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        {
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 0, &7u64);
        }
        let e0 = s.curr_epoch();
        s.advance_epoch();
        s.advance_epoch();
        assert_eq!(s.curr_epoch(), e0 + 2);
        // After two advances, the payload's write-back has been issued.
        assert!(s.pool().stats().snapshot().clwbs > 0);
    }

    #[test]
    fn sync_advances_clock_two_epochs() {
        let s = sys(EsysConfig::default());
        let e0 = s.curr_epoch();
        s.sync();
        assert!(s.curr_epoch() >= e0 + 2);
    }

    /// The phased group sync only changes who waits for which device, and
    /// when: each pool sees the events, flushes, fences and drained lines a
    /// sync of its own would have charged it, and ends at the same durable
    /// epoch.
    #[test]
    fn group_sync_charges_each_pool_what_its_own_sync_would() {
        let build = |payloads: u8| {
            let mut cfg = PmemConfig::strict_for_test(8 << 20);
            cfg.chaos.crash_at_event = Some(u64::MAX); // count events
            let s = EpochSys::format(PmemPool::new(cfg), EsysConfig::default());
            let tid = s.register_thread();
            for i in 0..payloads {
                let g = s.begin_op(tid);
                let _ = s.pnew_bytes(&g, 1, &[i; 300]);
            }
            s
        };
        let grouped: Vec<_> = (1..=3).map(build).collect();
        let alone: Vec<_> = (1..=3).map(build).collect();

        let group: Vec<&EpochSys> = grouped.iter().map(|s| &**s).collect();
        for (result, _) in EpochSys::try_sync_group(&group, None) {
            assert_eq!(result, Ok(true));
        }
        for s in &alone {
            s.try_sync().unwrap();
        }
        for (g, a) in grouped.iter().zip(&alone) {
            assert_eq!(g.pool().stats().snapshot(), a.pool().stats().snapshot());
            assert_eq!(g.pool().persistence_events(), a.pool().persistence_events());
            assert_eq!(g.durable_epoch(), a.durable_epoch());
            assert_eq!(g.durable_epoch(), FIRST_EPOCH + 2);
        }
    }

    #[test]
    fn check_epoch_detects_advance() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let g = s.begin_op(tid);
        assert!(s.check_epoch(&g).is_ok());
        // Advance concurrently (the guard is in epoch e; advance waits only
        // for e-1, so this cannot deadlock).
        s.advance_epoch();
        assert!(s.check_epoch(&g).is_err());
    }

    #[test]
    fn old_see_new_raised() {
        let s = sys(EsysConfig::default());
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        // Op A registers in epoch e.
        let ga = s.begin_op(t0);
        // Clock moves to e+1; op B creates a payload there.
        s.advance_epoch();
        let gb = s.begin_op(t1);
        let h = s.pnew_bytes(&gb, 0, b"new");
        drop(gb);
        // A (still in epoch e) now sees a payload from e+1.
        let err = s.peek_bytes(&ga, h, <[u8]>::to_vec).unwrap_err();
        assert_eq!(err.op_epoch + 1, err.payload_epoch);
        assert_eq!(
            s.peek_bytes_unsafe(h, <[u8]>::to_vec),
            b"new",
            "the unchecked read bypasses the alert"
        );
    }

    #[test]
    fn pdelete_same_epoch_alloc_reclaims_immediately() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let g = s.begin_op(tid);
        let h = s.pnew(&g, 0, &1u64);
        let deallocs_before = s.allocator().stats().deallocs.load(Ordering::Relaxed);
        s.pdelete(&g, h).unwrap();
        assert_eq!(
            s.allocator().stats().deallocs.load(Ordering::Relaxed),
            deallocs_before + 1
        );
    }

    #[test]
    fn pdelete_old_payload_creates_anti_payload() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let h = {
            let g = s.begin_op(tid);
            s.pnew(&g, 0, &1u64)
        };
        s.advance_epoch();
        let pnews = s.stats().pnews.load(Ordering::Relaxed);
        {
            let g = s.begin_op(tid);
            s.pdelete(&g, h).unwrap();
        }
        // No new pnew counted, but an extra allocation happened (the anti).
        assert_eq!(s.stats().pnews.load(Ordering::Relaxed), pnews);
        assert!(s.allocator().stats().allocs.load(Ordering::Relaxed) >= 2);
        // The original payload is still readable until reclamation.
        let g = s.begin_op(tid);
        assert_eq!(s.read(&g, h).unwrap(), 1);
    }

    #[test]
    fn reclamation_happens_two_epochs_later() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let h = {
            let g = s.begin_op(tid);
            s.pnew(&g, 0, &1u64)
        };
        s.advance_epoch();
        let e_del = {
            let g = s.begin_op(tid);
            s.pdelete(&g, h).unwrap();
            g.epoch()
        };
        let d0 = s.allocator().stats().deallocs.load(Ordering::Relaxed);
        // Advance until the end of epoch e_del+2, when the retirement of
        // e_del is reclaimed.
        while s.curr_epoch() <= e_del + 2 {
            s.advance_epoch();
        }
        let d1 = s.allocator().stats().deallocs.load(Ordering::Relaxed);
        assert!(d1 > d0, "payload reclaimed at the two-epoch boundary");
        assert_eq!(
            Header::magic(s.pool(), h.raw()),
            crate::payload::MAGIC_TOMBSTONE,
            "reclaimed block is tombstoned"
        );
    }

    #[test]
    fn transient_mode_never_flushes() {
        let s = sys(EsysConfig::transient());
        let tid = s.register_thread();
        {
            let g = s.begin_op(tid);
            let h = s.pnew(&g, 0, &1u64);
            let h = s.set(&g, h, |v| *v = 2).unwrap();
            s.pdelete(&g, h).unwrap();
        }
        s.advance_epoch();
        s.sync();
        let snap = s.pool().stats().snapshot();
        let clwbs = snap.clwbs;
        let fences = snap.sfences;
        // Formatting issued a handful; ops must add none beyond ralloc's
        // superblock carve (1 flush-pair).
        assert!(clwbs <= 6, "transient mode flushed {clwbs} lines");
        assert!(fences <= 4);
    }

    #[test]
    fn dirwb_flushes_eagerly() {
        let s = sys(EsysConfig {
            persist: PersistStrategy::DirWB,
            ..Default::default()
        });
        let tid = s.register_thread();
        let before = s.pool().stats().snapshot().clwbs;
        {
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 0, &[0u8; 256]);
        }
        let after = s.pool().stats().snapshot().clwbs;
        assert!(after > before, "DirWB writes back at the operation");
    }

    #[test]
    fn buffered_defers_flushes_until_boundary() {
        let s = sys(EsysConfig::buffered(64));
        let tid = s.register_thread();
        {
            // Warm-up: carve the size class's superblock (which flushes its
            // descriptor once) so the measurement below sees payloads only.
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 0, &0u64);
        }
        let base = s.pool().stats().snapshot().clwbs;
        {
            let g = s.begin_op(tid);
            for i in 0..10u64 {
                let _ = s.pnew(&g, 0, &i);
            }
        }
        assert_eq!(
            s.pool().stats().snapshot().clwbs,
            base,
            "no flush before boundary"
        );
        s.advance_epoch();
        s.advance_epoch();
        assert!(s.pool().stats().snapshot().clwbs > base);
    }

    #[test]
    fn same_payload_sets_coalesce_to_one_boundary_flush() {
        let s = sys(EsysConfig::buffered(64));
        let tid = s.register_thread();
        {
            // Warm-up: carve the size class's superblock so the measurement
            // below sees payload flushes only.
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 0, &0u64);
        }
        s.advance_epoch();
        s.advance_epoch();
        let base = s.pool().stats().snapshot().clwbs;
        let blk = {
            let g = s.begin_op(tid);
            let mut h = s.pnew(&g, 0, &0u64);
            for i in 1..=8u64 {
                h = s.set(&g, h, |v| *v = i).unwrap();
            }
            h.raw()
        };
        assert_eq!(s.stats().sets_in_place.load(Ordering::Relaxed), 8);
        s.advance_epoch();
        s.advance_epoch();
        let payload_lines = pmem::lines_spanned(blk.raw(), HDR_SIZE + 8);
        // The nine same-extent writes (PNEW + 8 in-place sets) boil down to
        // ONE buffered entry; the only other flushes are the two boundary
        // clock-line write-backs.
        assert_eq!(s.pool().stats().snapshot().clwbs - base, payload_lines + 2);
        assert_eq!(
            s.stats().flushes_coalesced.load(Ordering::Relaxed),
            8 * payload_lines,
            "each of the eight sets skipped the payload's line extent"
        );
    }

    /// The ring scan is the boundary's only gate: a thread that pushed, ended
    /// its op and never entered again is drained with no help from its owner.
    #[test]
    fn boundary_drains_a_thread_that_never_comes_back() {
        let s = sys(EsysConfig::buffered(64));
        let tid = s.register_thread();
        {
            // Warm-up, as above.
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 0, &0u64);
        }
        s.advance_epoch();
        s.advance_epoch();
        let base = s.pool().stats().snapshot().clwbs;
        let (e, lines) = {
            let g = s.begin_op(tid);
            let lines: u64 = (1..=5u64)
                .map(|i| pmem::lines_spanned(s.pnew(&g, 0, &i).raw().raw(), HDR_SIZE + 8))
                .sum();
            (g.epoch(), lines)
        };
        assert_eq!(s.debug_min_pending(tid), e, "buffered, nothing flushed yet");
        assert_eq!(s.pool().stats().snapshot().clwbs, base);
        s.advance_epoch();
        s.advance_epoch();
        assert_eq!(s.debug_min_pending(tid), u64::MAX);
        // Neighbouring payloads can share a line; coalescing counts those.
        let shared = s.stats().flushes_coalesced.load(Ordering::Relaxed);
        assert_eq!(
            s.pool().stats().snapshot().clwbs - base,
            lines - shared + 2,
            "every entry's lines and two clock lines"
        );
    }

    /// `persist-san` is `pmem`'s feature, so these tests learn at run time
    /// whether the sanitizer is compiled in: in deny mode a line left dirty
    /// over two boundary calls panics, without the feature nothing does.
    pub(crate) fn sanitizer_on() -> bool {
        let p = PmemPool::new(PmemConfig::strict_for_test(1 << 20));
        // SAFETY: an in-bounds, aligned scratch word of a private pool.
        unsafe { p.write(POff::new(4096), &1u64) };
        p.san_epoch_boundary(1, true);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.san_epoch_boundary(2, true)
        }))
        .is_err()
    }

    /// Advancers racing over one boundary are one boundary to the sanitizer
    /// (each extra count made a current-epoch line look a boundary older than
    /// it is), and the check still bites: a line nobody writes back is
    /// reported at the second real boundary after its store.
    #[test]
    fn one_tick_is_one_sanitizer_boundary() {
        let s = sys(EsysConfig::default());
        let e = s.curr_epoch();
        let blk = s.allocator().alloc(64);
        // SAFETY: a block this test owns; never flushed, on purpose.
        unsafe { s.pool().write(blk, &1u64) };
        let (won, lost) = (s.advance_issue().unwrap(), s.advance_issue().unwrap());
        s.advance_complete(won);
        s.advance_complete(lost);
        assert_eq!(s.curr_epoch(), e + 1, "two advancers, one tick");
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.advance_epoch()));
        assert_eq!(
            second.is_err(),
            sanitizer_on(),
            "dirty across two boundaries"
        );
    }

    #[test]
    fn pin_write_back_flushes_now_and_a_later_set_is_flushed_again() {
        let s = sys(EsysConfig::buffered(64));
        let tid = s.register_thread();
        {
            // Warm-up: carve the size class's superblock.
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 0, &0u64);
        }
        s.sync();
        let clwbs = || s.pool().stats().snapshot().clwbs;
        let base = clwbs();
        let pin = s.try_pin_epoch(tid).unwrap();
        let h = s.pnew(&s.begin_op(tid), 0, &1u64);
        let payload_lines = pmem::lines_spanned(h.raw().raw(), HDR_SIZE + 8);
        pin.write_back();
        assert_eq!(
            clwbs() - base,
            payload_lines,
            "written back before any boundary"
        );
        assert_eq!(s.debug_min_pending(tid), u64::MAX, "and the ring is empty");
        pin.write_back();
        assert_eq!(clwbs() - base, payload_lines, "an empty ring costs nothing");
        // Same epoch, in place: the entry that covered these lines is gone,
        // so this store must queue — and flush — on its own.
        s.set(&s.begin_op(tid), h, |v| *v = 2).unwrap();
        assert_eq!(s.stats().sets_in_place.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats().flushes_coalesced.load(Ordering::Relaxed), 0);
        drop(pin);
        s.sync();
        assert_eq!(
            clwbs() - base,
            2 * payload_lines + 2,
            "plus two clock lines"
        );
        let rec = crate::recovery::recover(s.pool().crash(), EsysConfig::buffered(64), 1);
        let mut items: Vec<u64> = rec.shards.iter().flatten().map(|i| rec.read(i)).collect();
        items.sort_unstable();
        assert_eq!(items, [0, 2], "the later store is the durable one");
    }

    #[test]
    fn buffer_overflow_writes_back_incrementally() {
        let s = sys(EsysConfig::buffered(2));
        let tid = s.register_thread();
        let base = s.pool().stats().snapshot().clwbs;
        {
            let g = s.begin_op(tid);
            for i in 0..5u64 {
                let _ = s.pnew(&g, 0, &i);
            }
        }
        assert!(
            s.pool().stats().snapshot().clwbs > base,
            "overflowing a 2-entry buffer must write back incrementally"
        );
    }

    #[test]
    fn uid_uniqueness_across_threads() {
        let s = sys(EsysConfig::default());
        let mut handles = vec![];
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                let mut uids = vec![];
                for i in 0..500u64 {
                    let g = s.begin_op(tid);
                    let h = s.pnew(&g, 0, &i);
                    uids.push(Header::uid(s.pool(), h.raw()));
                }
                uids
            }));
        }
        let mut all = std::collections::HashSet::new();
        for h in handles {
            for uid in h.join().unwrap() {
                assert!(all.insert(uid), "duplicate uid");
            }
        }
    }

    #[test]
    fn thread_ids_are_reusable_after_unregister() {
        let s = sys(EsysConfig {
            max_threads: 4,
            ..Default::default()
        });
        // Lease every id, return them all, and lease again: no panic, and
        // the full set is reissued.
        let first: Vec<ThreadId> = (0..4).map(|_| s.register_thread()).collect();
        assert!(s.try_register_thread().is_none(), "table exhausted");
        for &tid in &first {
            s.unregister_thread(tid);
        }
        let mut again: Vec<usize> = (0..4).map(|_| s.register_thread().0).collect();
        again.sort_unstable();
        assert_eq!(again, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reused_tid_still_persists_prior_work() {
        let s = sys(EsysConfig::default());
        // Session 1 leases an id, buffers a payload, disconnects without any
        // sync of its own.
        let t = s.register_thread();
        let h = {
            let g = s.begin_op(t);
            s.pnew(&g, 9, &41u64)
        };
        s.unregister_thread(t);
        // Session 2 reuses the id; a later sync must still cover session 1's
        // buffered write-back.
        let t2 = s.register_thread();
        assert_eq!(t2, t, "freed id is reused");
        {
            let g = s.begin_op(t2);
            let _ = s.set(&g, h, |v| *v += 1).unwrap();
        }
        s.sync();
        let rec = crate::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.read::<u64>(&rec.shards[0][0]), 42);
    }

    #[test]
    fn concurrent_lease_churn_never_duplicates_ids() {
        let s = sys(EsysConfig {
            max_threads: 8,
            ..Default::default()
        });
        let held = Arc::new(Mutex::new(std::collections::HashSet::new()));
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let s = s.clone();
                let held = held.clone();
                sc.spawn(move || {
                    for _ in 0..200 {
                        let Some(tid) = s.try_register_thread() else {
                            continue;
                        };
                        assert!(held.lock().insert(tid.0), "id {tid:?} double-leased");
                        {
                            let g = s.begin_op(tid);
                            let _ = s.pnew(&g, 0, &1u64);
                        }
                        assert!(held.lock().remove(&tid.0));
                        s.unregister_thread(tid);
                    }
                });
            }
        });
    }

    /// The three ways into an epoch; all of them go through `enter`.
    #[derive(Clone, Copy, Debug)]
    enum Entry {
        BeginOp,
        Pin,
        NestedUnderPin,
    }

    const ENTRIES: [Entry; 3] = [Entry::BeginOp, Entry::Pin, Entry::NestedUnderPin];

    /// Enters an epoch by `way`, hands `inside` the epoch it got, leaves.
    fn entered(s: &EpochSys, tid: ThreadId, way: Entry, inside: impl FnOnce(u64)) {
        match way {
            Entry::BeginOp => inside(s.begin_op(tid).epoch()),
            Entry::Pin => inside(s.try_pin_epoch(tid).unwrap().epoch()),
            Entry::NestedUnderPin => {
                let _pin = s.try_pin_epoch(tid).unwrap();
                let g = s.begin_op(tid);
                assert!(!g.owns, "nested guard leaves END_OP to the pin");
                inside(g.epoch())
            }
        }
    }

    /// The shared `enter`, pinned from each of its callers: the same three
    /// scenarios must play out whichever way the thread came in.
    #[test]
    fn every_way_into_an_epoch_helps_reclaims_and_revalidates() {
        for way in ENTRIES {
            // 1. A pending `sync_requested` is helped: the entry writes back
            // the thread's older buffered payloads; without a request it
            // leaves them to the boundary.
            let s = sys(EsysConfig::default());
            let tid = s.register_thread();
            let e = {
                let g = s.begin_op(tid);
                let _ = s.pnew(&g, 0, &7u64);
                g.epoch()
            };
            s.advance_epoch(); // drains e-1 only: the payload stays buffered
            entered(&s, tid, way, |epoch| assert_eq!(epoch, e + 1));
            assert_eq!(s.debug_min_pending(tid), e, "{way:?}: no sync, no help");
            let clwbs = s.pool().stats().snapshot().clwbs;
            s.sync_requested.store(e, Ordering::Relaxed);
            entered(&s, tid, way, |_| {
                assert_eq!(s.debug_min_pending(tid), u64::MAX, "{way:?}: helped");
            });
            assert!(s.pool().stats().snapshot().clwbs > clwbs, "{way:?}");

            // 2. WorkerLocal reclamation frees exactly the retirements behind
            // `reclaim_limit`: two epochs back, and never past a straggler.
            for (straggler, freed_per_entry) in [(false, [1, 2, 1]), (true, [0, 3, 1])] {
                let s = sys(EsysConfig {
                    free: FreeStrategy::WorkerLocal,
                    advance_grace_spins: 8,
                    ..Default::default()
                });
                let tid = s.register_thread();
                let (h1, h2) = {
                    let g = s.begin_op(tid);
                    (s.pnew(&g, 0, &1u64), s.pnew(&g, 0, &2u64))
                };
                // h1 retires in e0+1 (its anti-payload in e0+2), h2 one later.
                for h in [h1, h2] {
                    s.advance_epoch();
                    s.pdelete(&s.begin_op(tid), h).unwrap();
                }
                let old = s.register_thread();
                let mut parked = straggler.then(|| s.begin_op(old)); // in e0+2
                let mut freed = [0; 3];
                for (i, n) in freed.iter_mut().enumerate() {
                    if i == 1 {
                        parked.take(); // the straggler moves on after entry 0
                    }
                    s.advance_epoch();
                    let before = s.allocator().stats().deallocs.load(Ordering::Relaxed);
                    entered(&s, tid, way, |_| ());
                    *n = s.allocator().stats().deallocs.load(Ordering::Relaxed) - before;
                }
                assert_eq!(freed, freed_per_entry, "{way:?} straggler={straggler}");
            }

            // 3. A clock tick between announce and validate re-announces: the
            // entry returns the epoch it validated, and is registered there.
            let s = sys(EsysConfig::default());
            let tid = s.register_thread();
            let e = s.curr_epoch();
            TICK_AFTER_ANNOUNCE.set(true);
            entered(&s, tid, way, |epoch| {
                assert_eq!(epoch, e + 1, "{way:?}: the tick forced a second round");
                assert_eq!(s.curr_epoch(), e + 1);
                assert_eq!(s.tracker.load(tid.0), e + 1, "{way:?}: announced there");
            });
            assert_eq!(s.tracker.load(tid.0), IDLE);
        }
    }

    #[test]
    fn pinned_ops_share_one_window_and_stay_durable() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let (h1, h2) = {
            let pin = s.try_pin_epoch(tid).unwrap();
            // Two nested ops under one pin — without the pin the second
            // begin_op would trip the "nested operations" debug assert.
            let h1 = {
                let g = s.begin_op(tid);
                assert_eq!(g.epoch(), pin.epoch());
                s.pnew(&g, 0, &11u64)
            };
            let h2 = {
                let g = s.begin_op(tid);
                s.pnew(&g, 0, &22u64)
            };
            (h1, h2)
        };
        s.sync();
        let g = s.begin_op(tid);
        assert_eq!(s.read(&g, h1).unwrap(), 11);
        assert_eq!(s.read(&g, h2).unwrap(), 22);
        drop(g);
        let rec = crate::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        assert_eq!(rec.len(), 2, "both pinned-batch payloads recovered");
    }

    #[test]
    fn nested_op_reregisters_forward_after_advance() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        let pin = s.try_pin_epoch(tid).unwrap();
        let e0 = pin.epoch();
        assert_eq!(s.tracker.load(tid.0), e0);
        // One advance is legal under a pin (it waits only for e0-1).
        s.advance_epoch();
        assert_eq!(s.curr_epoch(), e0 + 1);
        // The next nested op moves the registration to the new clock, so
        // payloads stay current-epoch and the advancer is unblocked again.
        {
            let g = s.begin_op(tid);
            assert_eq!(g.epoch(), e0 + 1);
        }
        assert_eq!(s.tracker.load(tid.0), e0 + 1);
        drop(pin);
        assert_eq!(s.tracker.load(tid.0), IDLE, "pin drop is END_OP");
    }

    #[test]
    fn pin_does_not_block_advances_but_pins_reclamation() {
        let s = sys(EsysConfig {
            advance_grace_spins: 64,
            ..Default::default()
        });
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        // t1 retires a payload, so there is something to reclaim.
        let h = {
            let g = s.begin_op(t1);
            s.pnew(&g, 0, &1u64)
        };
        s.advance_epoch();
        let e_del = {
            let g = s.begin_op(t1);
            s.pdelete(&g, h).unwrap();
            g.epoch()
        };
        // t0 pins and stays pinned: the old advance would spin forever on
        // its slot from the second tick on; the bounded advance bypasses it.
        let pin = s.try_pin_epoch(t0).unwrap();
        let e_pin = pin.epoch();
        let d0 = s.allocator().stats().deallocs.load(Ordering::Relaxed);
        for _ in 0..6 {
            s.advance_epoch();
        }
        assert!(
            s.curr_epoch() >= e_pin + 6,
            "advances must complete while the pin is parked in its epoch"
        );
        // ...but the pinned thread pins the reclamation frontier: the block
        // retired at e_del (> e_pin) must not have been freed under it.
        assert_eq!(
            s.allocator().stats().deallocs.load(Ordering::Relaxed),
            d0,
            "reclamation must wait for the straggler's epoch to move"
        );
        drop(pin);
        while s.curr_epoch() <= e_del + 2 {
            s.advance_epoch();
        }
        s.advance_epoch(); // one more boundary after the frontier moved
        assert!(
            s.allocator().stats().deallocs.load(Ordering::Relaxed) > d0,
            "retirements resume reclamation once the pin drops"
        );
    }

    #[test]
    fn sync_is_not_blocked_by_a_parked_operation() {
        let s = sys(EsysConfig {
            advance_grace_spins: 64,
            ..Default::default()
        });
        let t0 = s.register_thread();
        // The victim starts an op, buffers a payload, and "parks" (the guard
        // simply stays alive while another thread syncs).
        let g = s.begin_op(t0);
        let _h = s.pnew(&g, 7, &41u64);
        let e0 = g.epoch();
        let s2 = s.clone();
        let peer = std::thread::spawn(move || s2.try_sync());
        peer.join().unwrap().unwrap();
        assert!(
            s.curr_epoch() >= e0 + 2,
            "peer sync must advance past the parked op's epoch"
        );
        // The victim's buffered write-back was helped to the media: the
        // payload (epoch e0, clock >= e0+2) survives a crash taken now.
        let rec = crate::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        assert_eq!(
            rec.len(),
            1,
            "parked op's pushed payload was helped durable"
        );
        drop(g);
    }

    #[test]
    fn guard_outside_pin_still_owns_end_op() {
        let s = sys(EsysConfig::default());
        let tid = s.register_thread();
        {
            let pin = s.try_pin_epoch(tid).unwrap();
            drop(pin);
        }
        // After the pin is gone, begin_op owns its registration again.
        let g = s.begin_op(tid);
        assert_ne!(s.tracker.load(tid.0), IDLE);
        drop(g);
        assert_eq!(s.tracker.load(tid.0), IDLE);
    }

    #[test]
    fn concurrent_ops_and_advances() {
        let s = sys(EsysConfig::default());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = vec![];
        for _ in 0..3 {
            let s = s.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                let mut h = None;
                while !stop.load(Ordering::Relaxed) {
                    let g = s.begin_op(tid);
                    match h.take() {
                        None => h = Some(s.pnew(&g, 0, &1u64)),
                        Some(old) => match s.set(&g, old, |v| *v += 1) {
                            Ok(nh) => h = Some(nh),
                            Err(_) => h = Some(old),
                        },
                    }
                }
            }));
        }
        for _ in 0..50 {
            s.advance_epoch();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
