//! MOD — "Minimally Ordered Durable Datastructures for Persistent Memory"
//! (Haria, Hill & Swift, ASPLOS '20): purely *functional* (shadow)
//! structures in NVM. An update builds new nodes off to the side, persists
//! them, and linearizes with a **single durable pointer write** — no logging
//! at all.
//!
//! Following the Montage paper's evaluation: the MOD hashmap here uses
//! per-bucket locking over MOD (path-copying functional) linked lists — the
//! variant the authors note has *better* complexity than the original
//! paper's CHAMP trie — and the MOD queue is the classic two-list functional
//! queue whose dequeues trigger amortized O(n) persisted reversals, which is
//! why it trails Montage by 1–2 orders of magnitude.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{POff, PmemPool};
use ralloc::Ralloc;

use crate::api::{bucket_of, BenchMap, BenchQueue, Key32};

/// Functional list-node layout: `next: u64 | vlen: u32 | pad | key 32B | value`.
const NEXT_OFF: u64 = 0;
const VLEN_OFF: u64 = 8;
const KEY_OFF: u64 = 16;
const DATA_OFF: u64 = 48;

struct NodeAccess<'a> {
    pool: &'a PmemPool,
}

impl<'a> NodeAccess<'a> {
    fn next(&self, n: POff) -> POff {
        // SAFETY: `n` is a live node (reached from a locked root), so its
        // header words are in bounds and not concurrently mutated.
        POff::new(unsafe { self.pool.read::<u64>(n.add(NEXT_OFF)) })
    }
    fn vlen(&self, n: POff) -> u32 {
        // SAFETY: see `next`.
        unsafe { self.pool.read::<u32>(n.add(VLEN_OFF)) }
    }
    fn key(&self, n: POff) -> Key32 {
        let mut k = [0u8; 32];
        self.pool.read_bytes(n.add(KEY_OFF), &mut k);
        k
    }
}

fn new_node(
    ralloc: &Ralloc,
    pool: &PmemPool,
    next: POff,
    key: &Key32,
    value_src: ValueSrc<'_>,
) -> POff {
    let vlen = match value_src {
        ValueSrc::Bytes(b) => b.len(),
        ValueSrc::CopyFrom(src, len) => {
            let _ = src;
            len
        }
    };
    let n = ralloc.alloc(DATA_OFF as usize + vlen);
    // SAFETY: header and value fit in the freshly allocated shadow block,
    // which stays thread-private until the commit pointer swing.
    unsafe {
        pool.write::<u64>(n.add(NEXT_OFF), &next.raw());
        pool.write::<u32>(n.add(VLEN_OFF), &(vlen as u32));
    }
    pool.write_bytes(n.add(KEY_OFF), key);
    match value_src {
        ValueSrc::Bytes(b) => pool.write_bytes(n.add(DATA_OFF), b),
        ValueSrc::CopyFrom(src, len) => {
            // SAFETY: `src` is a live node holding `len` value bytes and `n`
            // is a distinct fresh block, so the ranges cannot overlap.
            unsafe {
                // lint: allow(raw-write): the copy is declared to the sanitizer via san_mark_dirty below and flushed by the clwb_range at the end of new_node
                std::ptr::copy_nonoverlapping(
                    pool.at::<u8>(src.add(DATA_OFF)) as *const u8,
                    pool.at::<u8>(n.add(DATA_OFF)),
                    len,
                );
            }
            // The raw copy bypasses the tracked write path; declare the
            // value bytes dirty so the flush below is not misread as
            // redundant.
            pool.san_mark_dirty(n.add(DATA_OFF), len);
        }
    }
    // Shadow nodes are persisted before the root swing (no fence yet: MOD
    // batches one fence before the commit write).
    // lint: allow(flush-no-fence): commit() fences once for the whole batch of shadow nodes
    pool.clwb_range(n, DATA_OFF as usize + vlen);
    n
}

enum ValueSrc<'a> {
    Bytes(&'a [u8]),
    CopyFrom(POff, usize),
}

// ---------------------------------------------------------------------------
// MOD hashmap
// ---------------------------------------------------------------------------

pub struct ModHashMap {
    ralloc: Arc<Ralloc>,
    pool: PmemPool,
    /// Bucket roots live in NVM (one durable pointer each — the commit word).
    roots: Box<[Mutex<POff /*root cell*/>]>,
    len: AtomicUsize,
}

impl ModHashMap {
    pub fn new(ralloc: Arc<Ralloc>, nbuckets: usize) -> Self {
        let pool = ralloc.pool().clone();
        let roots = (0..nbuckets)
            .map(|_| {
                let cell = ralloc.alloc(8);
                // SAFETY: the 8-byte root cell was just allocated; nothing
                // else references it yet.
                unsafe { pool.write::<u64>(cell, &0) };
                Mutex::new(cell)
            })
            .collect();
        ModHashMap {
            pool,
            ralloc,
            roots,
            len: AtomicUsize::new(0),
        }
    }

    fn head(&self, cell: POff) -> POff {
        // SAFETY: `cell` is this bucket's root word; callers hold the
        // bucket lock, so the read cannot race the commit write.
        POff::new(unsafe { self.pool.read::<u64>(cell) })
    }

    /// Durable root swing: fence (shadow nodes), write, flush, fence.
    fn commit(&self, cell: POff, new_head: POff) {
        self.pool.sfence();
        // SAFETY: the bucket lock serializes all writers of this root word.
        unsafe { self.pool.write::<u64>(cell, &new_head.raw()) };
        self.pool.persist_range(cell, 8);
    }

    /// Path-copy the chain up to (excluding) `stop`, returning
    /// (new head, tail-copy whose next must be patched) — or None if the
    /// chain head *is* `stop`.
    fn copy_prefix(&self, head: POff, stop: POff) -> Option<(POff, POff)> {
        let na = NodeAccess { pool: &self.pool };
        let mut copies: Vec<POff> = Vec::new();
        let mut cur = head;
        while cur != stop {
            debug_assert!(!cur.is_null());
            let copy = new_node(
                &self.ralloc,
                &self.pool,
                POff::NULL,
                &na.key(cur),
                ValueSrc::CopyFrom(cur, na.vlen(cur) as usize),
            );
            copies.push(copy);
            cur = na.next(cur);
        }
        let mut it = copies.into_iter().rev();
        let last = it.next()?;
        let mut head_new = last;
        for c in it {
            // SAFETY: `c` is a thread-private shadow copy made just above.
            unsafe { self.pool.write::<u64>(c.add(NEXT_OFF), &head_new.raw()) };
            // Only the link word changed; the node body is already flushed.
            // lint: allow(flush-no-fence): the caller's commit() fences before the root swing
            self.pool.clwb_range(c.add(NEXT_OFF), 8);
            head_new = c;
        }
        Some((head_new, last))
    }

    fn free_prefix(&self, head: POff, stop: POff) {
        let na = NodeAccess { pool: &self.pool };
        let mut cur = head;
        while cur != stop {
            let next = na.next(cur);
            self.ralloc.dealloc(cur);
            cur = next;
        }
    }
}

impl BenchMap for ModHashMap {
    fn get(&self, _tid: usize, key: &Key32) -> bool {
        let cell = self.roots[bucket_of(key, self.roots.len())].lock();
        let na = NodeAccess { pool: &self.pool };
        let mut cur = self.head(*cell);
        while !cur.is_null() {
            self.pool.touch(); // NVM chain hop
            if na.key(cur) == *key {
                return true;
            }
            cur = na.next(cur);
        }
        false
    }

    fn insert(&self, _tid: usize, key: Key32, value: &[u8]) -> bool {
        let cell = self.roots[bucket_of(&key, self.roots.len())].lock();
        let na = NodeAccess { pool: &self.pool };
        let head = self.head(*cell);
        let mut cur = head;
        while !cur.is_null() {
            self.pool.touch(); // NVM chain hop
            if na.key(cur) == key {
                return false;
            }
            cur = na.next(cur);
        }
        // Prepend — already a single new shadow node.
        let node = new_node(&self.ralloc, &self.pool, head, &key, ValueSrc::Bytes(value));
        self.commit(*cell, node);
        self.len.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn remove(&self, _tid: usize, key: &Key32) -> bool {
        let cell = self.roots[bucket_of(key, self.roots.len())].lock();
        let na = NodeAccess { pool: &self.pool };
        let head = self.head(*cell);
        let mut target = head;
        while !target.is_null() && na.key(target) != *key {
            self.pool.touch(); // NVM chain hop
            target = na.next(target);
        }
        if target.is_null() {
            return false;
        }
        let suffix = na.next(target);
        let old_head = head;
        match self.copy_prefix(head, target) {
            None => self.commit(*cell, suffix),
            Some((new_head, tail_copy)) => {
                // SAFETY: `tail_copy` is a thread-private shadow node from
                // copy_prefix; no reader can reach it before commit.
                unsafe {
                    self.pool
                        .write::<u64>(tail_copy.add(NEXT_OFF), &suffix.raw())
                };
                // Only the link word changed; the node body is already
                // flushed.
                // lint: allow(flush-no-fence): the commit() on the next line fences
                self.pool.clwb_range(tail_copy.add(NEXT_OFF), 8);
                self.commit(*cell, new_head);
            }
        }
        // Old version unreachable (single root, bucket lock held): reclaim.
        self.free_prefix(old_head, target);
        self.ralloc.dealloc(target);
        self.len.fetch_sub(1, Ordering::Relaxed);
        true
    }
}

// ---------------------------------------------------------------------------
// MOD queue — functional two-list queue with persisted root
// ---------------------------------------------------------------------------

pub struct ModQueue {
    ralloc: Arc<Ralloc>,
    pool: PmemPool,
    /// Root cell: `front: u64 | back: u64` (16 B, one-line durable commit).
    root: Mutex<POff>,
}

impl ModQueue {
    pub fn new(ralloc: Arc<Ralloc>) -> Self {
        let pool = ralloc.pool().clone();
        let root = ralloc.alloc(16);
        // SAFETY: both words fit in the fresh 16-byte root block; nothing
        // else references it yet.
        unsafe {
            pool.write::<u64>(root, &0);
            pool.write::<u64>(root.add(8), &0);
        }
        pool.persist_range(root, 16);
        ModQueue {
            pool,
            ralloc,
            root: Mutex::new(root),
        }
    }

    fn lists(&self, root: POff) -> (POff, POff) {
        // SAFETY: callers hold the root lock, so these two in-bounds words
        // cannot race the commit writes.
        unsafe {
            (
                POff::new(self.pool.read::<u64>(root)),
                POff::new(self.pool.read::<u64>(root.add(8))),
            )
        }
    }

    fn commit(&self, root: POff, front: POff, back: POff) {
        self.pool.sfence();
        // SAFETY: the root lock serializes all writers of the root pair.
        unsafe {
            self.pool.write::<u64>(root, &front.raw());
            self.pool.write::<u64>(root.add(8), &back.raw());
        }
        self.pool.persist_range(root, 16);
    }

    /// Reverses `list` into a fresh persisted functional list.
    fn reverse(&self, mut list: POff) -> POff {
        let na = NodeAccess { pool: &self.pool };
        let mut out = POff::NULL;
        while !list.is_null() {
            self.pool.touch(); // NVM chain hop
            let k = na.key(list);
            out = new_node(
                &self.ralloc,
                &self.pool,
                out,
                &k,
                ValueSrc::CopyFrom(list, na.vlen(list) as usize),
            );
            list = na.next(list);
        }
        out
    }

    fn free_list(&self, mut list: POff) {
        let na = NodeAccess { pool: &self.pool };
        while !list.is_null() {
            let next = na.next(list);
            self.ralloc.dealloc(list);
            list = next;
        }
    }
}

impl BenchQueue for ModQueue {
    fn enqueue(&self, _tid: usize, value: &[u8]) {
        let root = self.root.lock();
        let (front, back) = self.lists(*root);
        let node = new_node(
            &self.ralloc,
            &self.pool,
            back,
            &[0u8; 32],
            ValueSrc::Bytes(value),
        );
        self.commit(*root, front, node);
    }

    fn dequeue(&self, _tid: usize) -> bool {
        let root = self.root.lock();
        let (front, back) = self.lists(*root);
        let na = NodeAccess { pool: &self.pool };
        if !front.is_null() {
            let rest = na.next(front);
            self.commit(*root, rest, back);
            self.ralloc.dealloc(front);
            return true;
        }
        if back.is_null() {
            return false;
        }
        // Amortized reversal: build a fresh persisted front list.
        let new_front = self.reverse(back);
        let rest = na.next(new_front);
        self.commit(*root, rest, POff::NULL);
        self.free_list(back);
        self.ralloc.dealloc(new_front);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::make_key;
    use pmem::PmemConfig;

    fn setup() -> Arc<Ralloc> {
        Ralloc::format(PmemPool::new(PmemConfig::default()))
    }

    #[test]
    fn map_semantics() {
        let m = ModHashMap::new(setup(), 16);
        assert!(m.insert(0, make_key(1), b"a"));
        assert!(!m.insert(0, make_key(1), b"b"));
        assert!(m.get(0, &make_key(1)));
        assert!(m.remove(0, &make_key(1)));
        assert!(!m.get(0, &make_key(1)));
    }

    #[test]
    fn remove_from_middle_of_chain_path_copies() {
        let m = ModHashMap::new(setup(), 1);
        for i in 0..8 {
            m.insert(0, make_key(i), b"v");
        }
        assert!(m.remove(0, &make_key(3)));
        for i in 0..8 {
            assert_eq!(m.get(0, &make_key(i)), i != 3);
        }
    }

    #[test]
    fn every_update_commits_durably() {
        let m = ModHashMap::new(setup(), 16);
        let f0 = m.pool.stats().snapshot().sfences;
        m.insert(0, make_key(1), &[0u8; 64]);
        let f1 = m.pool.stats().snapshot().sfences;
        assert!(f1 >= f0 + 2, "shadow fence + commit fence");
    }

    #[test]
    fn queue_fifo_through_reversals() {
        let q = ModQueue::new(setup());
        for i in 0..5u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        assert!(q.dequeue(0)); // triggers a reversal
        q.enqueue(0, &5u32.to_le_bytes());
        let mut n = 1;
        while q.dequeue(0) {
            n += 1;
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn queue_memory_is_reclaimed() {
        let q = ModQueue::new(setup());
        for round in 0..20 {
            for i in 0..20u32 {
                q.enqueue(0, &(round * 100 + i).to_le_bytes());
            }
            for _ in 0..20 {
                assert!(q.dequeue(0));
            }
        }
        let s = q.ralloc.stats();
        let allocs = s.allocs.load(Ordering::Relaxed);
        let deallocs = s.deallocs.load(Ordering::Relaxed);
        assert!(
            allocs - deallocs < 50,
            "leak: {allocs} allocs vs {deallocs} deallocs"
        );
    }
}
