//! Per-thread `to_persist` and `to_free` containers for the four most recent
//! epochs, indexed by `epoch % 4` (paper Fig. 3).
//!
//! `to_persist` is the per-thread **circular write-back buffer** of Sec. 5.2,
//! implemented — as in the paper — as a bespoke lock-free ring: a fixed-
//! capacity array of slots with a sequence-number protocol (single owner
//! producer, stealing consumers). The owner pushes without any lock or heap
//! allocation; the background advancer and helping `sync` callers steal
//! entries at epoch boundaries by CASing the ring head. Pushing into a full
//! ring writes the oldest entry back incrementally ("when these buffers
//! overflow, the oldest entries are written back incrementally").
//!
//! DESIGN.md S3a states the ring protocol and why it is sound: sequence
//! numbers; claim → flush → release, so that [`Ring::help_claimed`] (via
//! [`Buffers::help_drainers`]) can finish a parked consumer's write-back,
//! and a wrapping owner push likewise; why a helper's flush racing a recycle
//! is harmless; the epoch discipline; the claim census that lets a boundary
//! skip the help scan; and flush coalescing. Two points only this code needs:
//!
//! * A straggler bypassed for a multiple of four epochs finds its late
//!   entries in the bucket its next operation is about to relabel. Persist
//!   leftovers the owner writes back itself first. Free leftovers, pinned
//!   behind the frontier by its own registration, stay, and new retirements
//!   queue behind them in the spill under their own label: merged under the
//!   newer one, a retired payload would be reclaimed *after* the
//!   anti-payload that cancels it, and a crash in between resurrects it.
//! * A claim window opened after a boundary read the census can claim only
//!   what its drains left visible: entries a bypassed straggler pushed late,
//!   which ride the next boundary, or free-ring entries (a pacing slice's, a
//!   pinned bucket's), whose tombstones must be durable only before their
//!   claimant — the sole dealloc authority — frees them after its own fence.
//!   A parked claimant leaks its one block until it resumes.

use crate::sync::{weaken, AtomicU32, AtomicU64, AtomicUsize, Mutex, Ordering};

use crate::sync::CachePadded;
use pmem::{line_of, POff, PmemPool};

use crate::payload::Header;

/// Number of direct-mapped coalescing-table slots per thread (power of two).
const DEDUP_SLOTS: usize = 128;

/// Epoch value that never matches a real epoch (real epochs start at
/// [`crate::FIRST_EPOCH`]); used for invalidated dedup entries.
const DEDUP_DEAD: u64 = 0;

/// One slot of a lock-free ring.
struct Slot {
    seq: AtomicUsize,
    off: AtomicU64,
    len: AtomicU32,
}

/// Fixed-capacity single-producer / multi-consumer ring of `(off, len)`
/// pairs. DESIGN.md S3a states the sequence protocol.
///
/// Public (but hidden) so the `interleave` model-check harnesses can drive
/// the claim/help/release protocol directly under the schedule explorer.
#[doc(hidden)]
pub struct Ring {
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    slots: Box<[Slot]>,
}

impl Ring {
    #[doc(hidden)]
    pub fn new(capacity: usize) -> Ring {
        // capacity ≥ 2 keeps the free form (seq ≡ p mod C) and the
        // published/claimed form (seq ≡ p + 1 mod C) distinguishable in
        // `help_claimed`'s slot scan.
        let capacity = capacity.max(2);
        Ring {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            slots: (0..capacity)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    off: AtomicU64::new(0),
                    len: AtomicU32::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    #[doc(hidden)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    #[doc(hidden)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries published and not yet claimed.
    #[inline]
    fn len(&self) -> usize {
        // tail is read first: a stale tail can only under-report entries
        // transiently, never invent them.
        // ord(acquire): pairs with the tail publish in `push_with`.
        let t = self.tail.load(Ordering::Acquire);
        // ord(acquire): pairs with the head-claim CAS in `pop_with`.
        t.saturating_sub(self.head.load(Ordering::Acquire))
    }

    /// Owner-only push. Returns `Err(())` when the ring is full. If the
    /// target slot's previous consumer is still inside its claim window, the
    /// owner finishes its write-back via `flush` and releases the slot
    /// itself instead of waiting (DESIGN.md S3a).
    #[doc(hidden)]
    #[allow(clippy::result_unit_err)] // internal API, pub only for the interleave harness; Err(()) = full
    pub fn push_with(&self, off: u64, len: u32, mut flush: impl FnMut(u64, u32)) -> Result<(), ()> {
        let cap = self.capacity();
        // ord(relaxed): tail is owner-written; this is the owner.
        let t = self.tail.load(Ordering::Relaxed);
        // ord(acquire): pairs with the head-claim CAS in `pop_with`.
        if t - self.head.load(Ordering::Acquire) >= cap {
            return Err(());
        }
        let slot = &self.slots[t % cap];
        // head has passed index t - cap, so the previous occupant's consumer
        // won its claim-CAS; if that consumer is parked before its release,
        // flush the stale entry on its behalf and complete the release —
        // the push must not block on another thread's progress. All release
        // CASes write the same value (t = (t - cap) + cap), so whichever
        // side loses simply finds the slot already free.
        loop {
            // ord(acquire): seeing the claimed form must also show us the
            // claimant's entry fields so the help-flush reads cycle i's data.
            let s = slot.seq.load(Ordering::Acquire);
            if s == t {
                break;
            }
            debug_assert!(
                t + 1 >= cap && s == t + 1 - cap,
                "slot seq {s} is neither free ({t}) nor claimed ({})",
                t.wrapping_add(1).wrapping_sub(cap)
            );
            // ord(relaxed): ordered by the acquire on `seq` above; a racing
            // recycle is tolerated (DESIGN.md S3a, helper write-backs).
            let o = slot.off.load(Ordering::Relaxed);
            // ord(relaxed): same argument as `off`.
            let l = slot.len.load(Ordering::Relaxed);
            flush(o, l);
            // ord(acqrel): release our help-flush before freeing the slot;
            // acquire so a lost race shows us the winner's release.
            if slot
                .seq
                .compare_exchange(s, t, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        // ord(relaxed): published by the `seq` store below.
        slot.off.store(off, Ordering::Relaxed);
        // ord(relaxed): published by the `seq` store below.
        slot.len.store(len, Ordering::Relaxed);
        // ord(publish): consumers acquire `seq` and must see off/len.
        slot.seq
            .store(t + 1, weaken("ring.seq.publish", Ordering::Release));
        // ord(publish): pop_with acquires tail before reading the slot.
        self.tail
            .store(t + 1, weaken("ring.tail.publish", Ordering::Release));
        Ok(())
    }

    /// Multi-consumer pop (steal). Returns `None` when the ring is empty.
    /// `flush` is invoked on the entry **inside the claim window**, before
    /// the slot is released, so a consumer parked mid-flush leaves the entry
    /// recoverable by [`Ring::help_claimed`].
    #[doc(hidden)]
    pub fn pop_with(&self, mut flush: impl FnMut(u64, u32)) -> Option<(u64, u32)> {
        loop {
            // ord(acquire): pairs with claim CASes by racing consumers.
            let h = self.head.load(Ordering::Acquire);
            // ord(acquire): pairs with the owner's tail publish.
            let t = self.tail.load(Ordering::Acquire);
            if h >= t {
                return None;
            }
            let slot = &self.slots[h % self.capacity()];
            // ord(acquire): pairs with the owner's `seq` publish so off/len
            // below read cycle h's values.
            if slot.seq.load(Ordering::Acquire) != h + 1 {
                // A racing consumer already claimed index h; re-read head.
                continue;
            }
            // ord(relaxed): ordered by the acquire on `seq` above.
            let off = slot.off.load(Ordering::Relaxed);
            // ord(relaxed): ordered by the acquire on `seq` above.
            let len = slot.len.load(Ordering::Relaxed);
            // ord(acqrel): the claim must not sink below the seq check
            // (acquire) and publishes our intent to flush (release).
            if self
                .head
                .compare_exchange(h, h + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // Winning the CAS proves nobody consumed index h before us,
                // so (off, len) read above belong to index h. Claim → flush
                // → release: the write-back is issued while the slot is
                // still claimed so helpers can finish it if we park here.
                flush(off, len);
                // The release is a CAS because a helper (or the owner's
                // wrap-around push) may have completed it for us; a failure
                // means the slot was already flushed and recycled.
                // ord(acqrel): the flush above must not sink below the
                // release; failure needs no edge (we discard the result).
                let _ = slot.seq.compare_exchange(
                    h + 1,
                    h + self.capacity(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                return Some((off, len));
            }
        }
    }

    /// The slots in the claimed form (claim CAS won, release CAS not yet
    /// performed), each with its sequence value. Free and released slots
    /// are skipped, and so are published but unclaimed ones: a drain pass
    /// owns those, still visible to `pop_with`, not stuck.
    fn claimed(&self) -> impl Iterator<Item = (&Slot, usize)> {
        let cap = self.capacity();
        self.slots.iter().enumerate().filter_map(move |(p, slot)| {
            // ord(acquire): pairs with the owner's publish; off/len read
            // after this must be no older than the claimed cycle's.
            let s = slot.seq.load(Ordering::Acquire);
            // ord(acquire): pairs with the claimant's head CAS.
            let claimed = s != 0 && (s - 1) % cap == p && self.head.load(Ordering::Acquire) > s - 1;
            claimed.then_some((slot, s))
        })
    }

    /// Helper scan: finish the write-back + release of every slot whose
    /// consumer is parked inside its claim window. Wait-free — one pass over
    /// the slots, a bounded number of atomic ops each, never spins on
    /// another thread. DESIGN.md S3a argues flushing before the validating
    /// release CAS sound.
    #[doc(hidden)]
    pub fn help_claimed(&self, mut flush: impl FnMut(u64, u32)) {
        for (slot, s) in self.claimed() {
            // ord(relaxed): ordered by the acquire on `seq`; a racing
            // recycle is tolerated (DESIGN.md S3a, helper write-backs).
            let off = slot.off.load(Ordering::Relaxed);
            // ord(relaxed): same argument as `off`.
            let len = slot.len.load(Ordering::Relaxed);
            flush(off, len);
            // ord(acqrel): release our flush before freeing the slot.
            let _ = slot.seq.compare_exchange(
                s,
                s - 1 + self.capacity(),
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
    }

    /// Model-check probe: how many slots are in the claimed form, so the
    /// `interleave` harnesses can assert the boundary's census gate never
    /// leaves a claimed entry unhelped at a fence.
    #[doc(hidden)]
    pub fn debug_claimed(&self) -> usize {
        self.claimed().count()
    }
}

/// One direct-mapped coalescing-table entry: "a resident ring entry of
/// `epoch` covers cache lines `[first, last]`". Owner-only access; atomics
/// are used purely so the table can live behind `&self`.
struct DedupEntry {
    epoch: AtomicU64,
    first: AtomicU64,
    last: AtomicU64,
}

/// One epoch bucket of the circular write-back buffer.
struct PersistBucket {
    /// Which epoch this bucket currently holds entries for.
    epoch: AtomicU64,
    ring: Ring,
}

/// One epoch bucket of retired payloads awaiting reclamation. The ring holds
/// the first ring-capacity retirements of one epoch; `spill` takes the
/// `(epoch, block)` pairs the ring cannot: every retirement past its
/// capacity — the steady state of a delete-heavy thread, whose epoch retires
/// thousands of blocks against 64 slots — and everything pushed while an
/// older epoch's leftovers are still pinned in the bucket. Every spill label
/// is ≥ the ring's, and labels never decrease along the spill (one owner
/// pushes, in epoch order), so the due entries are a prefix.
struct FreeBucket {
    epoch: AtomicU64,
    ring: Ring,
    spill: Mutex<Vec<(u64, u64)>>,
}

/// All buffered state of one thread.
struct ThreadState {
    persist: [PersistBucket; 4],
    free: [FreeBucket; 4],
    dedup: Box<[DedupEntry]>,
}

impl ThreadState {
    fn new(capacity: usize) -> ThreadState {
        ThreadState {
            persist: std::array::from_fn(|_| PersistBucket {
                epoch: AtomicU64::new(0),
                ring: Ring::new(capacity),
            }),
            free: std::array::from_fn(|_| FreeBucket {
                epoch: AtomicU64::new(0),
                ring: Ring::new(capacity),
                spill: Mutex::new(Vec::new()),
            }),
            dedup: (0..DEDUP_SLOTS)
                .map(|_| DedupEntry {
                    epoch: AtomicU64::new(DEDUP_DEAD),
                    first: AtomicU64::new(0),
                    last: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    fn dedup_at(&self, first_line: u64) -> &DedupEntry {
        let idx = (first_line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize;
        &self.dedup[idx & (DEDUP_SLOTS - 1)]
    }

    /// Owner-only, inside a claim scope: pops and writes back (no fence) the
    /// oldest entry of its bucket `b`; `false` when empty. The owner can still
    /// push `epoch`, so a coalescing promise anchored at the extent dies too.
    fn pop_own(&self, pool: &PmemPool, b: &PersistBucket, epoch: u64) -> bool {
        let Some((o, _)) = b.ring.pop_with(|o, l| clwb_clamped(pool, o, l)) else {
            return false;
        };
        let od = self.dedup_at(line_of(o));
        // ord(relaxed): dedup table is owner-only.
        if od.epoch.load(Ordering::Relaxed) == epoch
            // ord(relaxed): owner-only.
            && od.first.load(Ordering::Relaxed) == line_of(o)
        {
            // ord(relaxed): owner-only.
            od.epoch.store(DEDUP_DEAD, Ordering::Relaxed);
        }
        true
    }
}

/// `clwb_range` with the extent clamped to the pool. Helper flushes can race
/// a slot being recycled and read an `(off, len)` pair mixed across two
/// entries (each field individually valid); the combined extent is harmless
/// to flush but could marginally overrun the pool end.
#[inline]
fn clwb_clamped(pool: &PmemPool, off: u64, len: u32) {
    let size = pool.size() as u64;
    if off >= size {
        return;
    }
    let len = u64::from(len.max(1)).min(size - off);
    // lint: allow(flush-no-fence): drains only write back; the epoch-boundary sfence in advance_epoch makes them durable (the claim/help/release ordering this rides on is model-checked by interleave's harness_ring)
    pool.clwb_range(POff::new(off), len as usize);
}

/// Tombstones retired blocks and writes their header lines back, one
/// write-back for the lot: a free-ring pop's one block, or a spill take.
#[inline]
fn tombstone_flush(pool: &PmemPool, blks: &[POff]) {
    for &blk in blks {
        Header::tombstone(pool, blk);
    }
    // lint: allow(flush-no-fence): tombstone write-backs ride the epoch-boundary sfence, like the persist drains (same harness_ring-checked claim protocol)
    pool.clwb_lines(blks);
}

/// Per-thread buffer sets for every registered thread.
pub struct Buffers {
    threads: Box<[CachePadded<ThreadState>]>,
    /// Census of pop passes currently inside (or about to enter) a claim
    /// window, across all rings. DESIGN.md S3a: `advance_epoch` skips
    /// the `help_drainers` slot scans entirely while this reads zero. A
    /// consumer parked mid-claim keeps its bracket open — the census stays
    /// positive and every boundary scans until the claim is helped *and*
    /// the claimant resumes.
    claims: CachePadded<AtomicUsize>,
}

/// RAII bracket around a pop pass for the claim census. Held across every
/// code path that can claim a ring entry, opened *before* the first claim
/// CAS can execute.
struct ClaimScope<'a>(&'a AtomicUsize);

impl Drop for ClaimScope<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Buffers {
    pub fn new(max_threads: usize, capacity: usize) -> Self {
        Buffers {
            threads: (0..max_threads)
                .map(|_| CachePadded::new(ThreadState::new(capacity)))
                .collect(),
            claims: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    fn claim_scope(&self) -> ClaimScope<'_> {
        // SeqCst: the census gate's soundness needs a total order between
        // this increment and the boundary's one-shot read (DESIGN.md S3a).
        self.claims
            .fetch_add(1, weaken("buffers.census", Ordering::SeqCst));
        ClaimScope(&self.claims)
    }

    /// `true` while any pop pass may be inside a claim window. One atomic
    /// load; the boundary's cheap gate in front of [`Buffers::help_drainers`].
    pub fn claims_open(&self) -> bool {
        self.claims.load(Ordering::SeqCst) != 0
    }

    /// Records that the payload at `blk` (of `len` bytes including header)
    /// was created or modified in `epoch` by thread `tid`. Owner-only; never
    /// locks or allocates. If the push's cache-line extent is already covered
    /// by a same-epoch ring entry it is coalesced away entirely; if the ring
    /// is full, the oldest entry is written back (no fence) before inserting.
    ///
    /// `still_current` revalidates — *after* the coalescing decision, with a
    /// SeqCst-ordered read — that the epoch clock has not moved past
    /// `epoch`. Boundary drains only pop a bucket once the clock has
    /// advanced past its epoch (the advance loads the clock before its
    /// drains), so `still_current() == true` sequenced after the dedup hit
    /// proves the covering entry was still resident when the decision was
    /// made. Without it, a bypassed straggler could coalesce against an
    /// entry a concurrent boundary drain already flushed, leaving this
    /// push's latest bytes with no resident entry to flush them.
    ///
    /// Returns the line flushes coalescing saved: the covered extent's lines
    /// when the push was coalesced away, 0 when it was enqueued.
    pub fn push_persist(
        &self,
        pool: &PmemPool,
        tid: usize,
        epoch: u64,
        blk: POff,
        len: u32,
        still_current: impl FnOnce() -> bool,
    ) -> u64 {
        let st = &self.threads[tid];
        let first = line_of(blk.raw());
        let last = line_of(blk.raw() + u64::from(len.max(1)) - 1);

        // Coalescing: a same-epoch resident entry already covers this extent,
        // so its boundary clwb_range subsumes ours.
        let d = st.dedup_at(first);
        // ord(relaxed): dedup table is owner-only (DESIGN.md S3a).
        if d.epoch.load(Ordering::Relaxed) == epoch
            // ord(relaxed): owner-only, as above.
            && d.first.load(Ordering::Relaxed) == first
            // ord(relaxed): owner-only, as above.
            && d.last.load(Ordering::Relaxed) >= last
            && still_current()
        {
            return last - first + 1;
        }

        let b = &st.persist[(epoch % 4) as usize];
        // ord(relaxed): the owner is the label's only writer.
        if b.epoch.load(Ordering::Relaxed) != epoch {
            // An owner bypassed for a multiple of four epochs meets its own
            // late pushes here (module docs): write them back under their
            // own label before the bucket takes the new one.
            if !b.ring.is_empty() {
                self.write_back(pool, &b.ring);
            }
            // ord(publish): drainers acquire the bucket epoch before popping.
            b.epoch.store(epoch, Ordering::Release);
        }
        while b
            .ring
            .push_with(blk.raw(), len, |o, l| clwb_clamped(pool, o, l))
            .is_err()
        {
            // Full: write back the oldest entry incrementally.
            let _census = self.claim_scope();
            st.pop_own(pool, b, epoch);
        }
        // ord(relaxed): dedup table is owner-only.
        d.first.store(first, Ordering::Relaxed);
        // ord(relaxed): owner-only.
        d.last.store(last, Ordering::Relaxed);
        // ord(relaxed): owner-only.
        d.epoch.store(epoch, Ordering::Relaxed);
        0
    }

    /// Owner-only: writes back (no fence) everything `tid` has buffered, its
    /// current epoch's bucket included (the overflow path, run to empty).
    pub fn write_back_own(&self, pool: &PmemPool, tid: usize) {
        let st = &self.threads[tid];
        for b in st.persist.iter().filter(|b| !b.ring.is_empty()) {
            let _census = self.claim_scope();
            // ord(relaxed): the owner is the label's only writer.
            let epoch = b.epoch.load(Ordering::Relaxed);
            while st.pop_own(pool, b, epoch) {}
        }
    }

    /// Pops every entry of a persist ring, writing each back (no fence)
    /// inside its claim window.
    fn write_back(&self, pool: &PmemPool, ring: &Ring) {
        let _census = self.claim_scope();
        while ring.pop_with(|o, l| clwb_clamped(pool, o, l)).is_some() {}
    }

    /// Writes back (without fencing) all of `tid`'s entries for every epoch
    /// `<= epoch`. Safe to call concurrently with other drainers and — for
    /// epochs the owner can no longer push into — with the owner.
    pub fn drain_persist_upto(&self, pool: &PmemPool, tid: usize, epoch: u64) {
        let st = &self.threads[tid];
        for b in st.persist.iter() {
            // ord(acquire): pairs with the owner's bucket-epoch publish.
            if !b.ring.is_empty() && b.epoch.load(Ordering::Acquire) <= epoch {
                self.write_back(pool, &b.ring);
            }
        }
    }

    /// Finishes the write-back + release of any of thread `tid`'s ring
    /// entries whose consumer is parked inside its claim window (a stalled
    /// boundary drainer, a stalled overflow pop, a stalled reclamation
    /// pass). Called by `advance_epoch` after its drains and **before** the
    /// boundary fence: wait-free, and duplicate `clwb`s with a claimant that
    /// later resumes are idempotent. Deallocation is never helped.
    pub fn help_drainers(&self, pool: &PmemPool, tid: usize) {
        let st = &self.threads[tid];
        for b in st.persist.iter() {
            b.ring.help_claimed(|o, l| clwb_clamped(pool, o, l));
        }
        for b in st.free.iter() {
            b.ring
                .help_claimed(|o, _| tombstone_flush(pool, &[POff::new(o)]));
        }
    }

    /// Model-check probe: claimed-but-unreleased slots across all of
    /// `tid`'s rings (see [`Ring::debug_claimed`]).
    #[doc(hidden)]
    pub fn debug_claimed(&self, tid: usize) -> usize {
        let st = &self.threads[tid];
        st.persist
            .iter()
            .map(|b| b.ring.debug_claimed())
            .chain(st.free.iter().map(|b| b.ring.debug_claimed()))
            .sum()
    }

    /// Schedules block `blk` (retired in `epoch`) for reclamation two epochs
    /// later. Owner-only; past the ring's capacity a retirement goes to the
    /// bucket's spill, whose `Vec` then grows (amortised) with the epoch.
    pub fn push_free(&self, pool: &PmemPool, tid: usize, epoch: u64, blk: POff) {
        let st = &self.threads[tid];
        let b = &st.free[(epoch % 4) as usize];
        // ord(relaxed): the owner is the label's only writer.
        if b.epoch.load(Ordering::Relaxed) != epoch {
            // No persistence event happens under the spill lock, so a parked
            // thread can never be holding it.
            let mut spill = b.spill.lock();
            if !b.ring.is_empty() || !spill.is_empty() {
                // An owner bypassed for a multiple of four epochs meets its
                // own retirements, still pinned behind the frontier (module
                // docs). They keep their label; this one queues behind them
                // under its own, so neither is reclaimed early or late.
                spill.push((epoch, blk.raw()));
                return;
            }
            // ord(publish): reclaimers acquire the bucket epoch before popping.
            b.epoch.store(epoch, Ordering::Release);
        }
        if b.ring
            .push_with(blk.raw(), 0, |o, _| tombstone_flush(pool, &[POff::new(o)]))
            .is_err()
        {
            b.spill.lock().push((epoch, blk.raw()));
        }
    }

    /// Reclaims thread `tid`'s retirements labelled `<= epoch` into `out`
    /// until it holds `stop` blocks (a paced slice's budget, or `usize::MAX`):
    /// tombstones each block header and writes the line back without a fence
    /// (so the sweep can never resurrect it): ring pops one at a time in their
    /// claim windows, then the spill from its front in one write-back. The
    /// caller fences and deallocates. Only the claimant that completes a pop
    /// returns a block (helpers may tombstone it too).
    pub fn take_free_upto(
        &self,
        pool: &PmemPool,
        tid: usize,
        epoch: u64,
        stop: usize,
        out: &mut Vec<POff>,
    ) {
        for b in self.threads[tid].free.iter() {
            // The ring's label bounds the spill's from below, so one load
            // gates both.
            // ord(acquire): pairs with the owner's bucket-epoch publish.
            if out.len() < stop && b.epoch.load(Ordering::Acquire) <= epoch {
                let _census = self.claim_scope();
                while out.len() < stop {
                    let Some((o, _)) = b
                        .ring
                        .pop_with(|o, _| tombstone_flush(pool, &[POff::new(o)]))
                    else {
                        break;
                    };
                    out.push(POff::new(o));
                }
                let from = out.len();
                let mut spill = b.spill.lock();
                let due = spill.partition_point(|&(e, _)| e <= epoch);
                let take = due.min(stop - from);
                out.extend(spill.drain(..take).map(|(_, o)| POff::new(o)));
                drop(spill);
                tombstone_flush(pool, &out[from..]);
            }
        }
    }

    /// Thread `tid`'s retirements labelled `<= epoch` that wait for
    /// reclamation: how many (the backlog the background advancer paces),
    /// and the oldest label among them (`u64::MAX` if none).
    pub fn free_due(&self, tid: usize, epoch: u64) -> (usize, u64) {
        let (mut n, mut oldest) = (0, u64::MAX);
        for b in self.threads[tid].free.iter() {
            // ord(acquire): pairs with the owner's bucket-epoch publish.
            let label = b.epoch.load(Ordering::Acquire);
            if label <= epoch {
                let spill = b.spill.lock();
                let (ring, due) = (b.ring.len(), spill.partition_point(|&(e, _)| e <= epoch));
                let first = match (ring, due) {
                    (0, 0) => u64::MAX,
                    (0, _) => spill[0].0,
                    _ => label,
                };
                (n, oldest) = (n + ring + due, oldest.min(first));
            }
        }
        (n, oldest)
    }

    /// Minimum epoch with unpersisted entries across **this thread's**
    /// buckets ([`u64::MAX`] if none). Lock-free exact scan: 4 buckets × a
    /// handful of atomic loads — the one gate in front of a boundary's
    /// drains (`advance_issue`) and a worker's sync helping (`enter`). A
    /// claimed-but-unreleased entry is invisible here; the boundary covers
    /// it with [`Buffers::help_drainers`], never by waiting.
    pub fn min_pending(&self, tid: usize) -> u64 {
        self.threads[tid]
            .persist
            .iter()
            .filter(|b| !b.ring.is_empty())
            // ord(acquire): pairs with the owner's bucket-epoch publish.
            .map(|b| b.epoch.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemConfig;

    /// Everything thread 0 has due at `epoch`.
    fn take(b: &Buffers, p: &PmemPool, epoch: u64) -> Vec<POff> {
        let mut out = Vec::new();
        b.take_free_upto(p, 0, epoch, usize::MAX, &mut out);
        out
    }

    fn pool() -> PmemPool {
        PmemPool::new(PmemConfig::default())
    }

    fn push(b: &Buffers, p: &PmemPool, tid: usize, epoch: u64, blk: POff, len: u32) -> u64 {
        b.push_persist(p, tid, epoch, blk, len, || true)
    }

    #[test]
    fn push_then_drain_flushes_everything() {
        let p = pool();
        let b = Buffers::new(2, 8);
        for i in 0..5u64 {
            push(&b, &p, 0, 10, POff::new(4096 + i * 128), 64);
        }
        let before = p.stats().snapshot().clwbs;
        b.drain_persist_upto(&p, 0, 10);
        let after = p.stats().snapshot().clwbs;
        assert_eq!(after - before, 5, "five single-line payloads flushed");
        assert_eq!(b.min_pending(0), u64::MAX);
    }

    #[test]
    fn overflow_writes_back_oldest_incrementally() {
        let p = pool();
        let b = Buffers::new(1, 2);
        push(&b, &p, 0, 4, POff::new(4096), 64);
        push(&b, &p, 0, 4, POff::new(8192), 64);
        assert_eq!(p.stats().snapshot().clwbs, 0, "no flush below capacity");
        push(&b, &p, 0, 4, POff::new(12288), 64);
        assert_eq!(
            p.stats().snapshot().clwbs,
            1,
            "overflow flushes the oldest entry"
        );
    }

    #[test]
    fn min_pending_tracks_oldest_epoch() {
        let p = pool();
        let b = Buffers::new(1, 8);
        assert_eq!(b.min_pending(0), u64::MAX);
        push(&b, &p, 0, 9, POff::new(4096), 64);
        push(&b, &p, 0, 10, POff::new(8192), 64);
        assert_eq!(b.min_pending(0), 9);
        b.drain_persist_upto(&p, 0, 9);
        assert_eq!(b.min_pending(0), 10);
    }

    #[test]
    fn drain_upto_spans_buckets() {
        let p = pool();
        let b = Buffers::new(1, 8);
        push(&b, &p, 0, 9, POff::new(4096), 64);
        push(&b, &p, 0, 10, POff::new(8192), 64);
        b.drain_persist_upto(&p, 0, 10);
        assert_eq!(b.min_pending(0), u64::MAX);
    }

    #[test]
    fn take_free_tombstones_blocks() {
        let p = pool();
        let b = Buffers::new(1, 8);
        let blk = POff::new(4096);
        Header::write_new(
            &p,
            blk,
            crate::payload::PayloadKind::Alloc,
            0,
            7,
            1,
            8,
            Header::data_sum(&[0u8; 8]),
        );
        b.push_free(&p, 0, 7, blk);
        assert!(take(&b, &p, 6).is_empty(), "older epoch yields nothing");
        let freed = take(&b, &p, 7);
        assert_eq!(freed, vec![blk]);
        assert_eq!(Header::magic(&p, blk), crate::payload::MAGIC_TOMBSTONE);
        assert!(take(&b, &p, 7).is_empty(), "drained bucket is empty");
    }

    #[test]
    fn buckets_are_per_thread() {
        let p = pool();
        let b = Buffers::new(2, 8);
        push(&b, &p, 0, 4, POff::new(4096), 64);
        assert_eq!(b.min_pending(1), u64::MAX);
        assert_eq!(b.min_pending(0), 4);
    }

    #[test]
    fn repeated_same_extent_pushes_coalesce_to_one_flush() {
        let p = pool();
        let b = Buffers::new(1, 8);
        let saved: u64 = (0..6)
            .map(|_| push(&b, &p, 0, 4, POff::new(4096), 64))
            .sum();
        assert_eq!(saved, 5, "five of six pushes coalesced");
        let before = p.stats().snapshot().clwbs;
        b.drain_persist_upto(&p, 0, 4);
        assert_eq!(
            p.stats().snapshot().clwbs - before,
            1,
            "one clwb covers all six"
        );
    }

    #[test]
    fn stale_clock_revalidation_defeats_coalescing() {
        // A bypassed straggler whose epoch is no longer current must not
        // coalesce: the covering entry may already have been drained by a
        // concurrent boundary. The revalidation hook returning false forces
        // a real enqueue.
        let p = pool();
        let b = Buffers::new(1, 8);
        let saved = b.push_persist(&p, 0, 4, POff::new(4096), 64, || true)
            + b.push_persist(&p, 0, 4, POff::new(4096), 64, || false);
        assert_eq!(saved, 0, "stale push must not coalesce");
        let before = p.stats().snapshot().clwbs;
        b.drain_persist_upto(&p, 0, 4);
        assert_eq!(
            p.stats().snapshot().clwbs - before,
            2,
            "both pushes resident"
        );
    }

    #[test]
    fn smaller_covered_extent_coalesces_larger_does_not() {
        let p = pool();
        let b = Buffers::new(1, 8);
        // 3-line entry, then a 1-line re-push of its first line: covered.
        assert_eq!(push(&b, &p, 0, 4, POff::new(4096), 192), 0);
        assert_eq!(push(&b, &p, 0, 4, POff::new(4096), 8), 1);
        // Growing the extent is NOT covered and must enqueue.
        assert_eq!(push(&b, &p, 0, 4, POff::new(4096), 256), 0);
        let before = p.stats().snapshot().clwbs;
        b.drain_persist_upto(&p, 0, 4);
        // Entry 1 (3 lines) + entry 3 (4 lines).
        assert_eq!(p.stats().snapshot().clwbs - before, 7);
    }

    #[test]
    fn coalescing_is_epoch_scoped() {
        let p = pool();
        let b = Buffers::new(1, 8);
        let mut saved = push(&b, &p, 0, 4, POff::new(4096), 64);
        b.drain_persist_upto(&p, 0, 4);
        // Same extent, next epoch: the old ring entry is gone, so this push
        // must enqueue again (the table entry's epoch tag misses).
        saved += push(&b, &p, 0, 5, POff::new(4096), 64);
        assert_eq!(saved, 0);
        let before = p.stats().snapshot().clwbs;
        b.drain_persist_upto(&p, 0, 5);
        assert_eq!(p.stats().snapshot().clwbs - before, 1);
    }

    #[test]
    fn overflow_pop_invalidates_coalescing_entry() {
        let p = pool();
        let b = Buffers::new(1, 2);
        let hot = POff::new(4096);
        let mut saved = push(&b, &p, 0, 4, hot, 64);
        saved += push(&b, &p, 0, 4, POff::new(8192), 64);
        // Overflow pops `hot` (the oldest) and writes it back early...
        saved += push(&b, &p, 0, 4, POff::new(12288), 64);
        assert_eq!(p.stats().snapshot().clwbs, 1);
        // ...so a new same-epoch push of `hot` must NOT coalesce against the
        // now-dead entry: it must re-enter the ring to reach the boundary.
        saved += push(&b, &p, 0, 4, hot, 64);
        assert_eq!(saved, 0, "stale table entry must not coalesce");
        // That re-push overflows again, writing back 8192's entry.
        assert_eq!(p.stats().snapshot().clwbs, 2);
        let before = p.stats().snapshot().clwbs;
        b.drain_persist_upto(&p, 0, 4);
        assert_eq!(
            p.stats().snapshot().clwbs - before,
            2,
            "12288 and the re-pushed hot line"
        );
    }

    #[test]
    fn steady_state_push_does_not_allocate_or_lock() {
        // Indirect check: a full epoch of pushes + drain round-trips with the
        // ring staying within its fixed capacity (overflow pops included).
        let p = pool();
        let b = Buffers::new(1, 4);
        for round in 0..100u64 {
            let e = 4 + round;
            for i in 0..16u64 {
                push(&b, &p, 0, e, POff::new(4096 + i * 64), 64);
            }
            b.drain_persist_upto(&p, 0, e);
            assert_eq!(b.min_pending(0), u64::MAX);
        }
        // 16 distinct lines per round: 12 overflow + 4 drained = 16 clwbs.
        assert_eq!(p.stats().snapshot().clwbs, 1600);
    }

    #[test]
    fn concurrent_drainers_consume_each_entry_exactly_once() {
        use std::sync::atomic::AtomicU64 as A64;
        use std::sync::Arc;

        let p = pool();
        let b = Arc::new(Buffers::new(1, 256));
        const ROUNDS: u64 = 60;
        const PER_ROUND: u64 = 200;
        // The owner fills epoch e and publishes the round; two stealing
        // drainers race to drain every completed epoch, like the advancer
        // and a helping sync caller would.
        let done_round = Arc::new(A64::new(0));
        std::thread::scope(|s| {
            {
                let b = b.clone();
                let p = p.clone();
                let done_round = done_round.clone();
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        let e = 4 + r;
                        // The epoch clock only reaches e after e-4 was
                        // drained (by the advance that moved it to e-2), so
                        // an owner can never push into a bucket that still
                        // holds entries; and that advance helped every open
                        // claim to its release before it ticked, so no
                        // drainer is still inside a claim window on it.
                        // Model both, or the owner's wrap-around push helps
                        // a preempted drainer and flushes its line twice.
                        while b.min_pending(0) <= e - 4 || b.claims_open() {
                            std::thread::yield_now();
                        }
                        for i in 0..PER_ROUND {
                            // Distinct lines, so every entry should clwb once.
                            push(&b, &p, 0, e, POff::new((1 + r * PER_ROUND + i) * 64), 64);
                        }
                        done_round.store(r + 1, std::sync::atomic::Ordering::Release);
                    }
                });
            }
            for _ in 0..2 {
                let b = b.clone();
                let p = p.clone();
                let done_round = done_round.clone();
                s.spawn(move || loop {
                    let done = done_round.load(std::sync::atomic::Ordering::Acquire);
                    // Drain only completed (quiescent) epochs, as the epoch
                    // protocol guarantees.
                    b.drain_persist_upto(&p, 0, 3 + done);
                    if done == ROUNDS {
                        break;
                    }
                    std::thread::yield_now();
                });
            }
        });
        b.drain_persist_upto(&p, 0, u64::MAX - 1);
        assert_eq!(b.min_pending(0), u64::MAX);
        // Exactly-once: ROUNDS × PER_ROUND distinct lines, one clwb each —
        // nothing lost, nothing double-flushed. (Ring capacity 256 > 200
        // per epoch means no overflow write-backs muddy the count, and no
        // helper runs, so no idempotent duplicates either.)
        assert_eq!(p.stats().snapshot().clwbs, ROUNDS * PER_ROUND);
    }

    #[test]
    fn ring_owner_push_completes_preempted_consumer_release() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // Tiny ring, so the producer constantly reuses slots whose previous
        // consumer is still inside its claim→release window: the push's
        // help path runs hot, and the producer must never block on a
        // preempted consumer (it flushes + releases the slot itself).
        let r = Arc::new(Ring::new(2));
        const N: u64 = 10_000;
        let stop = Arc::new(AtomicBool::new(false));
        // Wait loops yield rather than spin: on a single-core runner a
        // spinning waiter burns its whole quantum while the thread it waits
        // on is descheduled, turning the test pathological.
        std::thread::scope(|s| {
            let mut consumers = Vec::new();
            for _ in 0..2 {
                let r = r.clone();
                let stop = stop.clone();
                consumers.push(s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match r.pop_with(|_, _| {}) {
                            Some((o, _)) => got.push(o),
                            None if stop.load(Ordering::Acquire) => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                }));
            }
            {
                let r = r.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    for i in 1..=N {
                        while r.push_with(i, 0, |_, _| {}).is_err() {
                            std::thread::yield_now();
                        }
                    }
                    stop.store(true, Ordering::Release);
                });
            }
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (1..=N).collect::<Vec<_>>(),
                "every push popped exactly once, none lost or duplicated"
            );
        });
    }

    #[test]
    fn help_claimed_finishes_a_parked_consumers_entry() {
        // Deterministically freeze a consumer inside its claim window:
        // emulate the claim by CASing head past a published entry without
        // flushing or releasing, exactly the state a parked `pop_with`
        // leaves behind. A helper must find the entry, flush it with the
        // correct extent, and release the slot so the owner can reuse it.
        let r = Ring::new(4);
        r.push_with(4096, 64, |_, _| {}).unwrap();
        r.push_with(8192, 64, |_, _| {}).unwrap();
        r.head
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .unwrap();
        let mut helped = Vec::new();
        r.help_claimed(|o, l| helped.push((o, l)));
        assert_eq!(
            helped,
            vec![(4096, 64)],
            "exactly the claimed entry is helped; the published one is left to drains"
        );
        // Slot 0 was released by the helper: after draining the published
        // entry the owner can wrap around the whole ring without blocking.
        assert_eq!(r.pop_with(|_, _| {}), Some((8192, 64)));
        for i in 0..4u64 {
            r.push_with(100 + i, 0, |_, _| panic!("no slot should need help"))
                .unwrap();
        }
    }

    #[test]
    fn help_claimed_is_idempotent_and_skips_live_entries() {
        let r = Ring::new(4);
        r.push_with(4096, 64, |_, _| {}).unwrap();
        // Nothing claimed: a helper pass must not touch anything.
        r.help_claimed(|_, _| panic!("no claimed slot exists"));
        // Claim it, help it twice: the second pass sees the released form.
        r.head
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .unwrap();
        let mut n = 0;
        r.help_claimed(|_, _| n += 1);
        r.help_claimed(|_, _| n += 1);
        assert_eq!(n, 1, "a released slot is never re-helped");
    }

    #[test]
    fn pop_with_flushes_inside_the_claim_window() {
        // The flush closure must run while the slot still shows the claimed
        // sequence (h + 1), i.e. before the release CAS — that is the
        // property helpers rely on.
        let r = Ring::new(2);
        r.push_with(4096, 64, |_, _| {}).unwrap();
        let seq_at_flush = std::cell::Cell::new(0usize);
        r.pop_with(|_, _| seq_at_flush.set(r.slots[0].seq.load(Ordering::Acquire)));
        assert_eq!(seq_at_flush.get(), 1, "flush ran in the claimed state");
        assert_eq!(
            r.slots[0].seq.load(Ordering::Acquire),
            2,
            "slot released after the flush"
        );
    }

    #[test]
    fn boundary_with_racing_drainers_leaves_no_dirty_lines() {
        use std::sync::atomic::{AtomicBool, AtomicU64 as A64};
        use std::sync::Arc;

        // Models the advance_epoch boundary under the helping protocol: per
        // round the checker drains, helps any claim still in flight, and
        // then requires every pushed entry's write-back to have been issued
        // — with racing drainers that may be anywhere inside their claim
        // windows. Coverage is asserted exactly: each round's distinct lines
        // must all be flushed by the time the checker finishes (duplicates
        // from helper/claimant races are allowed, losses are not).
        let p = pool();
        let b = Arc::new(Buffers::new(1, 256));
        const ROUNDS: u64 = 30;
        const PER_ROUND: u64 = 200;
        let done = Arc::new(A64::new(0)); // rounds fully pushed
        let go = Arc::new(A64::new(0)); // rounds the checker has verified
        let stop = Arc::new(AtomicBool::new(false));
        // Wait loops yield rather than spin (single-core runners).
        std::thread::scope(|s| {
            {
                // Owner: pushes one epoch's worth of distinct lines per
                // round, gated on the checker's verdict for the previous one.
                let (b, p) = (b.clone(), p.clone());
                let (done, go) = (done.clone(), go.clone());
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        while go.load(Ordering::Acquire) < r {
                            std::thread::yield_now();
                        }
                        for i in 0..PER_ROUND {
                            push(
                                &b,
                                &p,
                                0,
                                4 + r,
                                POff::new((1 + r * PER_ROUND + i) * 64),
                                64,
                            );
                        }
                        done.store(r + 1, Ordering::Release);
                    }
                });
            }
            for _ in 0..2 {
                // Racing drainers (the BEGIN_OP helpers of the real system).
                let (b, p) = (b.clone(), p.clone());
                let (done, stop) = (done.clone(), stop.clone());
                s.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let d = done.load(Ordering::Acquire);
                        b.drain_persist_upto(&p, 0, 3 + d);
                        std::thread::yield_now();
                    }
                });
            }
            // Checker: plays the advancer's boundary sequence per round.
            for r in 0..ROUNDS {
                while done.load(Ordering::Acquire) < r + 1 {
                    std::thread::yield_now();
                }
                b.drain_persist_upto(&p, 0, 4 + r);
                while b.min_pending(0) != u64::MAX {
                    std::thread::yield_now();
                }
                b.help_drainers(&p, 0);
                // Fence point: empty rings + help pass done ⇒ every line
                // pushed so far had its clwb issued at least once. (With a
                // drainer parked mid-claim its entry was helped; duplicates
                // are possible, losses are not.)
                assert!(
                    p.stats().snapshot().clwbs >= (r + 1) * PER_ROUND,
                    "round {r}: some pushed line was never written back"
                );
                go.store(r + 1, Ordering::Release);
            }
            stop.store(true, Ordering::Release);
        });
        // End-to-end ledger: all lines distinct, so flushes ≥ pushes; the
        // surplus is exactly the idempotent helper duplicates.
        assert!(p.stats().snapshot().clwbs >= ROUNDS * PER_ROUND);
    }

    /// A bucket met again a multiple of four epochs later keeps two labels
    /// apart: the older epoch's leftovers are written back (persist) or left
    /// in place with the newcomers queued behind them (free), and each free
    /// entry is reclaimed exactly when the frontier passes its own label.
    #[test]
    fn stale_leftovers_keep_their_own_label() {
        for cap in [2, 64] {
            let p = pool();
            let b = Buffers::new(1, cap);
            push(&b, &p, 0, 5, POff::new(4096), 64);
            let clwbs = p.stats().snapshot().clwbs;
            push(&b, &p, 0, 9, POff::new(8192), 64);
            assert_eq!(b.min_pending(0), 9);
            assert_eq!(p.stats().snapshot().clwbs, clwbs + 1, "leftover flushed");

            let blk = |i: u64| POff::new(16384 + i * 128);
            for i in 0..3 {
                b.push_free(&p, 0, 5, blk(i));
            }
            b.push_free(&p, 0, 9, blk(3));
            b.push_free(&p, 0, 13, blk(4));
            let sorted = |mut v: Vec<POff>| {
                v.sort();
                v
            };
            assert!(take(&b, &p, 4).is_empty());
            assert_eq!(sorted(take(&b, &p, 8)), [blk(0), blk(1), blk(2)]);
            assert_eq!(take(&b, &p, 12), [blk(3)]);
            // The ring is free again only once everything older is gone.
            b.push_free(&p, 0, 17, blk(5));
            assert_eq!(take(&b, &p, 13), [blk(4)]);
            assert_eq!(take(&b, &p, 17), [blk(5)]);
        }
    }

    #[test]
    fn free_ring_spills_over_capacity_without_loss() {
        let p = pool();
        let b = Buffers::new(1, 2);
        let mut blks = Vec::new();
        for i in 0..10u64 {
            let blk = POff::new(4096 + i * 128);
            Header::write_new(
                &p,
                blk,
                crate::payload::PayloadKind::Alloc,
                0,
                7,
                i,
                8,
                Header::data_sum(&[0u8; 8]),
            );
            b.push_free(&p, 0, 7, blk);
            blks.push(blk);
        }
        assert_eq!(
            (b.free_due(0, 6), b.free_due(0, 7)),
            ((0, u64::MAX), (10, 7))
        );
        // Budgeted takes of 3: the ring's two, then the spill from its
        // front, each block once and in push order, the backlog falling
        // with every take.
        let mut freed = Vec::new();
        for left in [7, 4, 1, 0] {
            b.take_free_upto(&p, 0, 7, freed.len() + 3, &mut freed);
            assert_eq!(b.free_due(0, 7).0, left);
        }
        assert_eq!(freed, blks, "ring + spill return every block");
        assert!(blks
            .iter()
            .all(|&blk| Header::magic(&p, blk) == crate::payload::MAGIC_TOMBSTONE));
    }
}
