//! NVTraverse — "In NVRAM Data Structures, the Destination Is More Important
//! Than the Journey" (Friedman et al., PLDI '20): a general transformation
//! that makes *traversal data structures* durable by flushing only the small
//! "critical zone" at the end of a traversal, rather than everything
//! touched.
//!
//! Applied to the benchmark hashmap (bucket = linked list): the traversal
//! prefix needs no persistence; the last two nodes (pred/curr) are flushed
//! and fenced before the operation linearizes, **in reads as well as
//! writes** — the paper observes this is why NVTraverse keeps up with
//! Montage at low thread counts but falls behind once flush traffic
//! contends.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{POff, PmemPool};
use ralloc::Ralloc;

use crate::api::{bucket_of, BenchMap, Key32};

/// Node layout: `next: u64 | vlen: u32 | pad | key 32B | value bytes`.
const NEXT_OFF: u64 = 0;
const VLEN_OFF: u64 = 8;
const KEY_OFF: u64 = 16;
const DATA_OFF: u64 = 48;

pub struct NvTraverseHashMap {
    ralloc: Arc<Ralloc>,
    pool: PmemPool,
    buckets: Box<[Mutex<POff>]>,
    len: AtomicUsize,
}

impl NvTraverseHashMap {
    pub fn new(ralloc: Arc<Ralloc>, nbuckets: usize) -> Self {
        NvTraverseHashMap {
            pool: ralloc.pool().clone(),
            ralloc,
            buckets: (0..nbuckets).map(|_| Mutex::new(POff::NULL)).collect(),
            len: AtomicUsize::new(0),
        }
    }

    fn key_at(&self, node: POff) -> Key32 {
        let mut k = [0u8; 32];
        self.pool.read_bytes(node.add(KEY_OFF), &mut k);
        k
    }

    fn next_of(&self, node: POff) -> POff {
        // SAFETY: `node` is a live chain node reached under the bucket lock;
        // the NEXT word is in bounds and any bit pattern is a valid u64.
        POff::new(unsafe { self.pool.read::<u64>(node.add(NEXT_OFF)) })
    }

    /// Traverse; returns (pred, curr) where curr holds `key` or is null.
    fn seek(&self, head: POff, key: &Key32) -> (POff, POff) {
        let mut pred = POff::NULL;
        let mut curr = head;
        while !curr.is_null() {
            self.pool.touch(); // NVM chain hop
            if self.key_at(curr) == *key {
                return (pred, curr);
            }
            pred = curr;
            curr = self.next_of(curr);
        }
        (pred, POff::NULL)
    }

    /// Flush the critical zone (pred + curr) and fence — done before every
    /// linearization point, including in lookups.
    fn persist_zone(&self, pred: POff, curr: POff) {
        if !pred.is_null() {
            self.pool.clwb_range(pred, DATA_OFF as usize);
        }
        if !curr.is_null() {
            self.pool.clwb_range(curr, DATA_OFF as usize);
        }
        self.pool.sfence();
    }
}

impl BenchMap for NvTraverseHashMap {
    fn get(&self, _tid: usize, key: &Key32) -> bool {
        let head = self.buckets[bucket_of(key, self.buckets.len())].lock();
        let (pred, curr) = self.seek(*head, key);
        self.persist_zone(pred, curr);
        !curr.is_null()
    }

    fn insert(&self, _tid: usize, key: Key32, value: &[u8]) -> bool {
        let mut head = self.buckets[bucket_of(&key, self.buckets.len())].lock();
        let (pred, curr) = self.seek(*head, &key);
        if !curr.is_null() {
            return false;
        }
        let node = self.ralloc.alloc(DATA_OFF as usize + value.len());
        // SAFETY: `node` is a fresh allocation sized for the header plus
        // value, owned exclusively by this thread until linked.
        unsafe {
            self.pool.write::<u64>(node.add(NEXT_OFF), &0);
            self.pool
                .write::<u32>(node.add(VLEN_OFF), &(value.len() as u32));
        }
        self.pool.write_bytes(node.add(KEY_OFF), &key);
        self.pool.write_bytes(node.add(DATA_OFF), value);
        // Persist the node, then link and persist the link (+ zone).
        self.pool
            .persist_range(node, DATA_OFF as usize + value.len());
        if pred.is_null() {
            *head = node;
        } else {
            // SAFETY: `pred` is a live chain node and this bucket's lock is
            // held, so no competing writer touches its NEXT word.
            unsafe { self.pool.write::<u64>(pred.add(NEXT_OFF), &node.raw()) };
        }
        self.persist_zone(pred, node);
        self.len.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn remove(&self, _tid: usize, key: &Key32) -> bool {
        let mut head = self.buckets[bucket_of(key, self.buckets.len())].lock();
        let (pred, curr) = self.seek(*head, key);
        if curr.is_null() {
            return false;
        }
        let next = self.next_of(curr);
        if pred.is_null() {
            *head = next;
        } else {
            // SAFETY: see the link write in `insert` — bucket lock held.
            unsafe { self.pool.write::<u64>(pred.add(NEXT_OFF), &next.raw()) };
        }
        self.persist_zone(pred, curr);
        self.ralloc.dealloc(curr);
        self.len.fetch_sub(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::make_key;
    use pmem::PmemConfig;

    fn map() -> NvTraverseHashMap {
        let pool = PmemPool::new(PmemConfig::default());
        NvTraverseHashMap::new(Ralloc::format(pool), 64)
    }

    #[test]
    fn map_semantics() {
        let m = map();
        assert!(m.insert(0, make_key(1), b"a"));
        assert!(!m.insert(0, make_key(1), b"b"));
        assert!(m.get(0, &make_key(1)));
        assert!(m.remove(0, &make_key(1)));
        assert!(!m.get(0, &make_key(1)));
    }

    #[test]
    fn chains_survive_middle_removals() {
        let m = NvTraverseHashMap::new(
            Ralloc::format(PmemPool::new(PmemConfig::default())),
            1, // force one bucket → long chain
        );
        for i in 0..10 {
            assert!(m.insert(0, make_key(i), b"v"));
        }
        assert!(m.remove(0, &make_key(5)));
        assert!(m.remove(0, &make_key(0)));
        assert!(m.remove(0, &make_key(9)));
        for i in 0..10 {
            assert_eq!(m.get(0, &make_key(i)), ![0, 5, 9].contains(&i));
        }
    }

    #[test]
    fn even_reads_fence() {
        let m = map();
        m.insert(0, make_key(1), b"v");
        let f0 = m.pool.stats().snapshot().sfences;
        m.get(0, &make_key(1));
        let f1 = m.pool.stats().snapshot().sfences;
        assert!(f1 > f0, "NVTraverse reads flush+fence the critical zone");
    }
}
