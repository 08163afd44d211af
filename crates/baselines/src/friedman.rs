//! The persistent lock-free queue of Friedman, Herlihy, Marathe & Petrank
//! (PPoPP '18) — strictly durably linearizable.
//!
//! Faithful critical-path shape: an enqueue writes the node (value + null
//! next) and **flushes it with a fence before linking**, then flushes the
//! predecessor's next pointer after the link CAS; a dequeue persists its
//! claim into the dequeuer's per-thread announcement slot *before* the
//! linearizing head CAS (so a dequeue whose value was handed out is
//! recoverable as done), and marks the node dequeued afterwards. That is
//! 2 flush+fence pairs per enqueue and ~2 per dequeue — the cost Montage
//! moves off the critical path.
//!
//! Nodes live in NVM (Ralloc blocks) and carry a magic + enqueue sequence
//! number; `head`/`tail` are transient. Recovery sweeps live nodes, drops
//! those marked dequeued or claimed in an announcement slot, and rebuilds
//! the FIFO by sequence number (standing in for the original's
//! reachability walk, which is entangled with its ssmem allocator).
//!
//! A dequeued node is freed by the queue's own `Reclaimer`, the
//! per-thread epoch collector of that ssmem allocator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{POff, PmemPool};
use ralloc::Ralloc;

use crate::api::BenchQueue;

/// Node layout:
/// `next: u64 | vlen: u32 | magic: u32 | seq: u64 | deqed: u64 | value`.
const NEXT_OFF: u64 = 0;
const VLEN_OFF: u64 = 8;
const MAGIC_OFF: u64 = 12;
const SEQ_OFF: u64 = 16;
const DEQED_OFF: u64 = 24;
const DATA_OFF: u64 = 32;

const NODE_MAGIC: u32 = 0xF41E_D4A9; // "friedman" node marker

/// Root-area slot holding the announcement-slot block anchor.
const ANCHOR_SLOT: usize = 9;

/// A thread's retirements between two collections.
const RETIRES_PER_COLLECT: usize = 64;

/// The announcement of a thread outside every operation.
const IDLE: u64 = u64::MAX;

/// Frees dequeued nodes once no operation can still reach them. A thread
/// announces the era it enters in; a node unlinked in era *r* is freed once
/// every announcement is idle or later than *r*.
struct Reclaimer {
    era: AtomicU64,
    slots: Box<[Slot]>,
}

/// One thread's announcement and limbo, on cache lines of its own.
#[repr(align(128))]
struct Slot {
    announced: AtomicU64,
    /// `(era, node)` in era order; only this slot's thread pushes.
    limbo: Mutex<Vec<(u64, u64)>>,
}

/// An operation's window; leaving it clears the announcement.
struct Entered<'a>(&'a AtomicU64);

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        self.0.store(IDLE, Ordering::SeqCst);
    }
}

impl Reclaimer {
    fn new(max_threads: usize) -> Self {
        let slot = |_| Slot {
            announced: AtomicU64::new(IDLE),
            limbo: Mutex::default(),
        };
        Reclaimer {
            era: AtomicU64::new(0),
            slots: (0..max_threads.max(1)).map(slot).collect(),
        }
    }

    /// Opens `tid`'s window; call it before loading `head` or `tail`.
    fn enter(&self, tid: usize) -> Entered<'_> {
        let announced = &self.slots[tid].announced;
        announced.store(self.era.load(Ordering::SeqCst), Ordering::SeqCst);
        Entered(announced)
    }

    /// Parks `node`, which `tid` has just unlinked. Whenever the limbo
    /// reaches a multiple of `RETIRES_PER_COLLECT` nodes, advances the era
    /// and frees the nodes older than every announcement.
    fn retire(&self, tid: usize, node: u64, ralloc: &Ralloc) {
        let mut limbo = self.slots[tid].limbo.lock();
        limbo.push((self.era.load(Ordering::SeqCst), node));
        if limbo.len().is_multiple_of(RETIRES_PER_COLLECT) {
            self.era.fetch_add(1, Ordering::SeqCst);
            let announced = self
                .slots
                .iter()
                .map(|s| s.announced.load(Ordering::SeqCst));
            let oldest = announced.min().unwrap_or(IDLE);
            let done = limbo.partition_point(|&(era, _)| era < oldest);
            for (_, node) in limbo.drain(..done) {
                ralloc.dealloc(POff::new(node));
            }
        }
    }
}

pub struct FriedmanQueue {
    ralloc: Arc<Ralloc>,
    pool: PmemPool,
    head: AtomicU64,
    tail: AtomicU64,
    /// Per-thread "claimed node" announcement slots (one contiguous block,
    /// anchored persistently for recovery).
    deq_slots: POff,
    max_threads: usize,
    next_seq: AtomicU64,
    reclaim: Reclaimer,
}

impl FriedmanQueue {
    pub fn new(ralloc: Arc<Ralloc>, max_threads: usize) -> Self {
        let pool = ralloc.pool().clone();
        let sentinel = Self::make_sentinel(&ralloc, &pool);
        let deq_slots = Self::anchor_slots(&ralloc, &pool, max_threads);
        FriedmanQueue {
            pool,
            head: AtomicU64::new(sentinel.raw()),
            tail: AtomicU64::new(sentinel.raw()),
            deq_slots,
            max_threads,
            next_seq: AtomicU64::new(1),
            reclaim: Reclaimer::new(max_threads),
            ralloc,
        }
    }

    /// Allocates zeroed announcement slots for `max_threads` and anchors
    /// them in the root area for recovery.
    fn anchor_slots(ralloc: &Ralloc, pool: &PmemPool, max_threads: usize) -> POff {
        let deq_slots = ralloc.alloc(8 * max_threads.max(1));
        for t in 0..max_threads {
            // SAFETY: slot t lies inside the 8*max_threads block just
            // allocated; u64 stores are plain data and nothing aliases it yet.
            unsafe { pool.write::<u64>(deq_slots.add(8 * t as u64), &0) };
        }
        pool.persist_range(deq_slots, 8 * max_threads.max(1));
        // SAFETY: the root-area anchor slot is reserved for this queue; both
        // words are in bounds and no other thread is running yet.
        unsafe {
            pool.write::<u64>(POff::root_slot(ANCHOR_SLOT), &deq_slots.raw());
            pool.write::<u64>(POff::root_slot(ANCHOR_SLOT).add(8), &(max_threads as u64));
        }
        pool.persist_range(POff::root_slot(ANCHOR_SLOT), 16);
        deq_slots
    }

    fn make_sentinel(ralloc: &Ralloc, pool: &PmemPool) -> POff {
        let sentinel = ralloc.alloc(DATA_OFF as usize);
        // SAFETY: all header offsets fit in the DATA_OFF-byte block just
        // allocated; the sentinel is private until published via head/tail.
        unsafe {
            pool.write::<u64>(sentinel.add(NEXT_OFF), &0);
            pool.write::<u32>(sentinel.add(VLEN_OFF), &0);
            pool.write::<u32>(sentinel.add(MAGIC_OFF), &NODE_MAGIC);
            pool.write::<u64>(sentinel.add(SEQ_OFF), &0);
            pool.write::<u64>(sentinel.add(DEQED_OFF), &1); // never a value node
        }
        pool.persist_range(sentinel, DATA_OFF as usize);
        sentinel
    }

    /// Recovers the queue from a crashed pool (which must be dedicated to
    /// one Friedman queue): sweep live nodes, drop dequeued/claimed ones,
    /// rebuild FIFO order by sequence number.
    pub fn recover(pool: PmemPool, max_threads: usize) -> Self {
        Self::try_recover(pool, max_threads).expect("pool holds no Friedman queue")
    }

    /// Panic-free [`FriedmanQueue::recover`]: returns `None` when the
    /// durable image never finished formatting (allocator metadata or the
    /// queue anchor missing) — a crash-sweep point inside `new` lands here,
    /// and the caller treats it as an empty pre-history image.
    pub fn try_recover(pool: PmemPool, max_threads: usize) -> Option<Self> {
        if !Ralloc::is_formatted(&pool) {
            return None;
        }
        let anchor = POff::root_slot(ANCHOR_SLOT);
        // SAFETY: the anchor slot is in the root area; u64 reads of
        // possibly-garbage bytes are fine (validated below).
        let old_slots = POff::new(unsafe { pool.read::<u64>(anchor) });
        let old_nthreads = unsafe { pool.read::<u64>(anchor.add(8)) } as usize;
        if old_slots.is_null() || old_nthreads == 0 {
            return None;
        }
        let claimed: Vec<u64> = (0..old_nthreads)
            // SAFETY: the anchor recorded a block of old_nthreads u64 slots;
            // recovery is single-threaded, so plain reads cannot race.
            .map(|t| unsafe { pool.read::<u64>(old_slots.add(8 * t as u64)) })
            .filter(|&v| v != 0)
            .collect();

        let scan = pool.clone();
        let (ralloc, kept) = Ralloc::recover(pool, move |blk, size| {
            // SAFETY: the `size >= DATA_OFF` guard keeps every header read in bounds.
            size >= DATA_OFF as usize
                && unsafe { scan.read::<u32>(blk.add(MAGIC_OFF)) } == NODE_MAGIC
                && unsafe { scan.read::<u64>(blk.add(DEQED_OFF)) } == 0
                && unsafe { scan.read::<u64>(blk.add(SEQ_OFF)) } != 0
                && unsafe { scan.read::<u32>(blk.add(VLEN_OFF)) } as usize
                    <= size - DATA_OFF as usize
        });
        let pool = ralloc.pool().clone();

        let mut nodes: Vec<(u64, POff)> = kept
            .into_iter()
            .filter(|(blk, _)| !claimed.contains(&blk.raw()))
            // SAFETY: the sweep closure above admitted only blocks with a
            // full, magic-tagged header, so SEQ_OFF is in bounds.
            .map(|(blk, _)| (unsafe { pool.read::<u64>(blk.add(SEQ_OFF)) }, blk))
            .collect();
        // A claimed node's dequeue is recovered as done (the original's
        // announcement semantics), so none is in `nodes`; mark it dequeued
        // durably so a second crash agrees.
        for &c in &claimed {
            let blk = POff::new(c);
            // SAFETY: the announcement slot held a block address this queue
            // allocated; the magic check guards against a slot that was
            // claimed and then swept. Recovery is single-threaded, so the
            // read and write cannot race.
            if unsafe { pool.read::<u32>(blk.add(MAGIC_OFF)) } == NODE_MAGIC {
                unsafe { pool.write::<u64>(blk.add(DEQED_OFF), &1) };
                pool.persist_range(blk.add(DEQED_OFF), 8);
            }
        }
        nodes.sort_unstable_by_key(|&(seq, _)| seq);

        // Rebuild the chain behind a fresh sentinel.
        let sentinel = Self::make_sentinel(&ralloc, &pool);
        let mut prev = sentinel;
        for &(_, blk) in &nodes {
            // SAFETY: `prev` and `blk` are swept nodes (or the fresh
            // sentinel) with valid headers; recovery is single-threaded.
            unsafe {
                pool.write::<u64>(prev.add(NEXT_OFF), &blk.raw());
                pool.write::<u64>(blk.add(NEXT_OFF), &0);
            }
            pool.clwb_range(prev, DATA_OFF as usize);
            prev = blk;
        }
        pool.sfence();

        let deq_slots = Self::anchor_slots(&ralloc, &pool, max_threads);

        let next_seq = nodes.last().map_or(1, |&(s, _)| s + 1);
        Some(FriedmanQueue {
            head: AtomicU64::new(sentinel.raw()),
            tail: AtomicU64::new(prev.raw()),
            deq_slots,
            max_threads,
            next_seq: AtomicU64::new(next_seq),
            reclaim: Reclaimer::new(max_threads),
            pool,
            ralloc,
        })
    }

    fn next_cell(&self, node: u64) -> &AtomicU64 {
        // SAFETY: `node` is live: reached inside a reclaimer window or under
        // `&mut self`. NEXT_OFF is its 8-aligned first word.
        unsafe { self.pool.atomic_u64(POff::new(node + NEXT_OFF)) }
    }

    fn slot(&self, tid: usize) -> POff {
        debug_assert!(tid < self.max_threads);
        self.deq_slots.add(8 * tid as u64)
    }

    /// Number of live items (O(n) walk, for tests; `&mut self` needs no window).
    pub fn len(&mut self) -> usize {
        let mut n = 0;
        let mut cur = self
            .next_cell(self.head.load(Ordering::SeqCst))
            .load(Ordering::SeqCst);
        while cur != 0 {
            n += 1;
            cur = self.next_cell(cur).load(Ordering::SeqCst);
        }
        n
    }

    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

impl BenchQueue for FriedmanQueue {
    fn enqueue(&self, tid: usize, value: &[u8]) {
        let node = self.ralloc.alloc(DATA_OFF as usize + value.len());
        let seq = self.next_seq.fetch_add(1, Ordering::AcqRel);
        // SAFETY: the header offsets fit in the freshly allocated block,
        // which no other thread can reach until the link CAS below.
        unsafe {
            self.pool.write::<u64>(node.add(NEXT_OFF), &0);
            self.pool
                .write::<u32>(node.add(VLEN_OFF), &(value.len() as u32));
            self.pool.write::<u32>(node.add(MAGIC_OFF), &NODE_MAGIC);
            self.pool.write::<u64>(node.add(SEQ_OFF), &seq);
            self.pool.write::<u64>(node.add(DEQED_OFF), &0);
        }
        self.pool.write_bytes(node.add(DATA_OFF), value);
        // Persist the node before it becomes reachable.
        self.pool
            .persist_range(node, DATA_OFF as usize + value.len());

        let _in = self.reclaim.enter(tid);
        loop {
            let last = self.tail.load(Ordering::SeqCst);
            self.pool.touch(); // NVM node dereference
            let next = self.next_cell(last).load(Ordering::SeqCst);
            if last != self.tail.load(Ordering::SeqCst) {
                continue;
            }
            if next == 0 {
                // The link store goes through an untracked atomic; declare it
                // to the sanitizer *before* the CAS so a helping thread's
                // persist of this line never races a stale shadow state.
                self.pool.san_mark_dirty(POff::new(last + NEXT_OFF), 8);
                if self
                    .next_cell(last)
                    .compare_exchange(0, node.raw(), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Persist the link that linearized us.
                    self.pool.persist_range(POff::new(last + NEXT_OFF), 8);
                    let _ = self.tail.compare_exchange(
                        last,
                        node.raw(),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    return;
                }
            } else {
                // Help: persist the link, then swing the tail.
                self.pool.persist_range(POff::new(last + NEXT_OFF), 8);
                let _ = self
                    .tail
                    .compare_exchange(last, next, Ordering::SeqCst, Ordering::SeqCst);
            }
        }
    }

    fn dequeue(&self, tid: usize) -> bool {
        let _in = self.reclaim.enter(tid);
        loop {
            let first = self.head.load(Ordering::SeqCst);
            let last = self.tail.load(Ordering::SeqCst);
            self.pool.touch(); // NVM node dereference
            let next = self.next_cell(first).load(Ordering::SeqCst);
            if first != self.head.load(Ordering::SeqCst) {
                continue;
            }
            if next == 0 {
                return false;
            }
            if first == last {
                self.pool.persist_range(POff::new(last + NEXT_OFF), 8);
                let _ = self
                    .tail
                    .compare_exchange(last, next, Ordering::SeqCst, Ordering::SeqCst);
                continue;
            }
            // Announce the claim durably before the linearizing CAS: a
            // crash after this point recovers the dequeue as done.
            // SAFETY: slot(tid) asserts tid < max_threads, so the write lands
            // in this thread's own announcement word — no aliasing.
            unsafe { self.pool.write::<u64>(self.slot(tid), &next) };
            self.pool.persist_range(self.slot(tid), 8);
            if self
                .head
                .compare_exchange(first, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // Mark the node dequeued (write + clwb; the line becomes
                // durable together with this thread's next announcement
                // fence, which also clears the claim window).
                // SAFETY: winning the head CAS makes this thread the sole
                // owner of `next`'s dequeued flag; the offset is in bounds.
                unsafe { self.pool.write::<u64>(POff::new(next + DEQED_OFF), &1) };
                self.pool.clwb(POff::new(next + DEQED_OFF));
                self.reclaim.retire(tid, first, &self.ralloc);
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemConfig;

    fn queue() -> FriedmanQueue {
        let pool = PmemPool::new(PmemConfig::default());
        FriedmanQueue::new(Ralloc::format(pool), 8)
    }

    #[test]
    fn fifo_single_thread() {
        let mut q = queue();
        for i in 0..50u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        assert_eq!(q.len(), 50);
        for _ in 0..50 {
            assert!(q.dequeue(0));
        }
        assert!(!q.dequeue(0));
        assert!(q.is_empty());
    }

    #[test]
    fn dropping_a_friedman_queue_releases_its_allocator() {
        let ralloc = Ralloc::format(PmemPool::new(PmemConfig::default()));
        let weak = Arc::downgrade(&ralloc);
        let q = FriedmanQueue::new(ralloc, 8);
        for i in 0..10u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        for _ in 0..10 {
            assert!(q.dequeue(0));
        }
        drop(q);
        assert!(weak.upgrade().is_none(), "retired nodes pin the allocator");
    }

    #[test]
    fn a_retired_node_waits_for_every_older_window() {
        let q = queue();
        let deallocs = || q.ralloc.stats().deallocs.load(Ordering::Relaxed);
        let batch = || {
            for i in 0..RETIRES_PER_COLLECT as u32 {
                q.enqueue(0, &i.to_le_bytes());
                assert!(q.dequeue(0));
            }
        };
        let reader = q.reclaim.enter(1);
        batch();
        assert_eq!(deallocs(), 0, "freed under tid 1's older window");
        drop(reader);
        batch();
        assert_eq!(deallocs(), RETIRES_PER_COLLECT as u64, "first batch freed");
    }

    #[test]
    fn every_operation_fences() {
        let q = queue();
        let pool = q.pool.clone();
        let f0 = pool.stats().snapshot().sfences;
        q.enqueue(0, &[1u8; 100]);
        let f1 = pool.stats().snapshot().sfences;
        assert!(
            f1 >= f0 + 2,
            "enqueue must fence at least twice (node + link)"
        );
        q.dequeue(0);
        let f2 = pool.stats().snapshot().sfences;
        assert!(f2 > f1, "dequeue must fence (announcement)");
    }

    #[test]
    fn concurrent_conservation() {
        let q = Arc::new(queue());
        let mut handles = vec![];
        for t in 0..4usize {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut popped = 0usize;
                for i in 0..500u32 {
                    q.enqueue(t, &i.to_le_bytes());
                    if i % 2 == 0 && q.dequeue(t) {
                        popped += 1;
                    }
                }
                popped
            }));
        }
        let popped: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let mut rest = 0;
        while q.dequeue(0) {
            rest += 1;
        }
        assert_eq!(popped + rest, 2000);
    }

    #[test]
    fn recovery_restores_fifo() {
        let pool = PmemPool::new(PmemConfig::strict_for_test(16 << 20));
        let q = FriedmanQueue::new(Ralloc::format(pool.clone()), 4);
        for i in 0..30u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        for _ in 0..10 {
            assert!(q.dequeue(1));
        }
        let crashed = pool.crash();
        let mut q2 = FriedmanQueue::recover(crashed, 4);
        // Strictly durable: exactly items 10..30 remain (every op persisted
        // before returning), possibly minus the announced-but-uncommitted
        // head — here none.
        assert_eq!(q2.len(), 20);
        for _ in 0..20 {
            assert!(q2.dequeue(0));
        }
        assert!(!q2.dequeue(0));
    }

    #[test]
    fn recovery_survives_second_crash() {
        let pool = PmemPool::new(PmemConfig::strict_for_test(16 << 20));
        let q = FriedmanQueue::new(Ralloc::format(pool.clone()), 4);
        for i in 0..10u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        let mut q2 = FriedmanQueue::recover(pool.crash(), 4);
        assert_eq!(q2.len(), 10);
        q2.enqueue(0, &99u32.to_le_bytes());
        q2.dequeue(0);
        let mut q3 = FriedmanQueue::recover(q2.pool.crash(), 4);
        assert_eq!(q3.len(), 10);
    }
}
