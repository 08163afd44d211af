//! Mnemosyne — "Lightweight Persistent Memory" (Volos, Tack & Swift,
//! ASPLOS '11): the pioneering general-purpose system. Operations run as
//! durable transactions over TinySTM-style **word-granularity redo logs**:
//! every NVM word a transaction writes is appended to a per-thread log,
//! the log is flushed and a commit record fenced, and only then are the
//! data words written back in place.
//!
//! The cost model that makes Mnemosyne the slowest system in the paper's
//! figures: a 1 KB value update writes ~2 KB (log + data), flushes both
//! copies, and fences twice — per operation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{POff, PmemPool};
use ralloc::Ralloc;

use crate::api::{bucket_of, BenchMap, BenchQueue, Key32};

const LOG_REGION: usize = 1 << 16;

/// A per-thread redo log in NVM.
struct RedoLog {
    base: POff,
    pos: u64,
}

/// A write-set entry: destination + bytes (stored transiently until commit).
struct Write {
    dst: POff,
    bytes: Vec<u8>,
}

/// One durable transaction.
struct Txn<'a> {
    sys: &'a Mnemosyne,
    tid: usize,
    writes: Vec<Write>,
}

impl Txn<'_> {
    /// Buffers a write of `bytes` to `dst`.
    fn write(&mut self, dst: POff, bytes: &[u8]) {
        self.writes.push(Write {
            dst,
            bytes: bytes.to_vec(),
        });
    }

    /// Commits: append (addr,len,data) records to the redo log, flush them,
    /// fence a commit record, apply the writes in place, flush, fence.
    fn commit(self) {
        let pool = &self.sys.pool;
        {
            let mut log = self.sys.logs[self.tid].lock();
            let mut pos = log.pos;
            let mut first = pos;
            // Word-granularity redo records, as in TinySTM: one 16-byte
            // (addr, value) entry per 8-byte word written — the 2x log
            // amplification that defines this system's cost.
            for w in &self.writes {
                let words = w.bytes.len().div_ceil(8);
                let need = 16 * words as u64;
                if pos + need + 16 > LOG_REGION as u64 {
                    pos = 0; // wrap (a real system would truncate at commit)
                    first = 0;
                }
                for i in 0..words {
                    let at = log.base.add(pos + 16 * i as u64);
                    let mut word = [0u8; 8];
                    let s = &w.bytes[i * 8..(i * 8 + 8).min(w.bytes.len())];
                    word[..s.len()].copy_from_slice(s);
                    // SAFETY: the wrap check above keeps every entry inside
                    // LOG_REGION, and the log lock serializes appenders.
                    unsafe {
                        pool.write::<u64>(at, &(w.dst.raw() + 8 * i as u64));
                        pool.write::<u64>(at.add(8), &u64::from_le_bytes(word));
                    }
                }
                pos += need;
            }
            // Flush the log extent, then the commit record, with a fence.
            pool.clwb_range(log.base.add(first), (pos - first) as usize);
            let commit_at = log.base.add(pos);
            // SAFETY: `commit_at` sits right after the entries, still inside
            // LOG_REGION per the wrap check; the log lock is held.
            unsafe { pool.write::<u64>(commit_at, &u64::MAX) };
            pool.clwb(commit_at);
            pool.sfence();
            log.pos = (pos + 16) % LOG_REGION as u64;
        }
        // Apply in place and persist the home locations.
        for w in &self.writes {
            pool.write_bytes(w.dst, &w.bytes);
            pool.clwb_range(w.dst, w.bytes.len());
        }
        pool.sfence();
    }
}

/// The Mnemosyne runtime: redo logs + persistent heap.
pub struct Mnemosyne {
    ralloc: Arc<Ralloc>,
    pool: PmemPool,
    logs: Box<[Mutex<RedoLog>]>,
}

impl Mnemosyne {
    pub fn new(ralloc: Arc<Ralloc>, max_threads: usize) -> Arc<Self> {
        let pool = ralloc.pool().clone();
        let logs = (0..max_threads)
            .map(|_| {
                Mutex::new(RedoLog {
                    base: ralloc.alloc(LOG_REGION),
                    pos: 0,
                })
            })
            .collect();
        Arc::new(Mnemosyne { ralloc, pool, logs })
    }

    fn begin(&self, tid: usize) -> Txn<'_> {
        Txn {
            sys: self,
            tid,
            writes: Vec::new(),
        }
    }

    pub fn alloc(&self, size: usize) -> POff {
        self.ralloc.alloc(size)
    }

    pub fn free(&self, off: POff) {
        self.ralloc.dealloc(off);
    }

    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }
}

// ---------------------------------------------------------------------------
// Structures persisted through Mnemosyne transactions
// ---------------------------------------------------------------------------

/// Node layout shared by the queue and map chains:
/// `next: u64 | vlen: u32 | pad | key 32B | value`.
const NEXT_OFF: u64 = 0;
const VLEN_OFF: u64 = 8;
const KEY_OFF: u64 = 16;
const DATA_OFF: u64 = 48;

pub struct MnemosyneQueue {
    sys: Arc<Mnemosyne>,
    /// Transient mirror of (head, tail) for navigation; the durable copies
    /// live in a root cell written transactionally.
    state: Mutex<(POff, POff)>,
    root: POff,
}

impl MnemosyneQueue {
    pub fn new(sys: Arc<Mnemosyne>) -> Self {
        let root = sys.alloc(16);
        MnemosyneQueue {
            sys,
            state: Mutex::new((POff::NULL, POff::NULL)),
            root,
        }
    }
}

impl BenchQueue for MnemosyneQueue {
    fn enqueue(&self, tid: usize, value: &[u8]) {
        let mut st = self.state.lock();
        let node = self.sys.alloc(DATA_OFF as usize + value.len());
        let mut txn = self.sys.begin(tid);
        let mut node_img = vec![0u8; DATA_OFF as usize + value.len()];
        node_img[VLEN_OFF as usize..VLEN_OFF as usize + 4]
            .copy_from_slice(&(value.len() as u32).to_le_bytes());
        node_img[DATA_OFF as usize..].copy_from_slice(value);
        txn.write(node, &node_img);
        if st.1.is_null() {
            txn.write(
                self.root,
                &[node.raw().to_le_bytes(), node.raw().to_le_bytes()].concat(),
            );
        } else {
            txn.write(st.1.add(NEXT_OFF), &node.raw().to_le_bytes());
            txn.write(self.root.add(8), &node.raw().to_le_bytes());
        }
        txn.commit();
        if st.0.is_null() {
            st.0 = node;
        }
        st.1 = node;
    }

    fn dequeue(&self, tid: usize) -> bool {
        let mut st = self.state.lock();
        if st.0.is_null() {
            return false;
        }
        let head = st.0;
        // SAFETY: `head` is a live node under the queue lock; the NEXT word
        // is in bounds and any bit pattern is a valid u64.
        let next = POff::new(unsafe { self.sys.pool.read::<u64>(head.add(NEXT_OFF)) });
        let mut txn = self.sys.begin(tid);
        txn.write(self.root, &next.raw().to_le_bytes());
        txn.commit();
        st.0 = next;
        if next.is_null() {
            st.1 = POff::NULL;
        }
        self.sys.free(head);
        true
    }
}

pub struct MnemosyneMap {
    sys: Arc<Mnemosyne>,
    /// Transient mirror of each bucket head + the offset of its durable cell.
    buckets: Box<[Mutex<POff>]>,
    heads: Box<[POff]>,
    len: AtomicUsize,
}

impl MnemosyneMap {
    pub fn new(sys: Arc<Mnemosyne>, nbuckets: usize) -> Self {
        let heads = (0..nbuckets).map(|_| sys.alloc(8)).collect();
        MnemosyneMap {
            buckets: (0..nbuckets).map(|_| Mutex::new(POff::NULL)).collect(),
            heads,
            sys,
            len: AtomicUsize::new(0),
        }
    }

    fn key_at(&self, node: POff) -> Key32 {
        let mut k = [0u8; 32];
        self.sys.pool.read_bytes(node.add(KEY_OFF), &mut k);
        k
    }

    fn next_of(&self, node: POff) -> POff {
        // SAFETY: `node` is a live chain node reached under the bucket lock;
        // the NEXT word is in bounds and any bit pattern is a valid u64.
        POff::new(unsafe { self.sys.pool.read::<u64>(node.add(NEXT_OFF)) })
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl BenchMap for MnemosyneMap {
    fn get(&self, _tid: usize, key: &Key32) -> bool {
        let head = self.buckets[bucket_of(key, self.buckets.len())].lock();
        let mut cur = *head;
        while !cur.is_null() {
            self.sys.pool.touch(); // NVM chain hop
            if self.key_at(cur) == *key {
                return true;
            }
            cur = self.next_of(cur);
        }
        false
    }

    fn insert(&self, tid: usize, key: Key32, value: &[u8]) -> bool {
        let idx = bucket_of(&key, self.buckets.len());
        let mut head = self.buckets[idx].lock();
        let mut cur = *head;
        while !cur.is_null() {
            self.sys.pool.touch(); // NVM chain hop
            if self.key_at(cur) == key {
                return false;
            }
            cur = self.next_of(cur);
        }
        let node = self.sys.alloc(DATA_OFF as usize + value.len());
        let mut img = vec![0u8; DATA_OFF as usize + value.len()];
        img[..8].copy_from_slice(&head.raw().to_le_bytes());
        img[VLEN_OFF as usize..VLEN_OFF as usize + 4]
            .copy_from_slice(&(value.len() as u32).to_le_bytes());
        img[KEY_OFF as usize..KEY_OFF as usize + 32].copy_from_slice(&key);
        img[DATA_OFF as usize..].copy_from_slice(value);
        let mut txn = self.sys.begin(tid);
        txn.write(node, &img);
        txn.write(self.heads[idx], &node.raw().to_le_bytes());
        txn.commit();
        *head = node;
        self.len.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn remove(&self, tid: usize, key: &Key32) -> bool {
        let idx = bucket_of(key, self.buckets.len());
        let mut head = self.buckets[idx].lock();
        let mut pred = POff::NULL;
        let mut cur = *head;
        while !cur.is_null() && self.key_at(cur) != *key {
            self.sys.pool.touch(); // NVM chain hop
            pred = cur;
            cur = self.next_of(cur);
        }
        if cur.is_null() {
            return false;
        }
        let next = self.next_of(cur);
        let mut txn = self.sys.begin(tid);
        if pred.is_null() {
            txn.write(self.heads[idx], &next.raw().to_le_bytes());
        } else {
            txn.write(pred.add(NEXT_OFF), &next.raw().to_le_bytes());
        }
        txn.commit();
        if pred.is_null() {
            *head = next;
        }
        self.sys.free(cur);
        self.len.fetch_sub(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::make_key;
    use pmem::PmemConfig;

    fn sys() -> Arc<Mnemosyne> {
        Mnemosyne::new(Ralloc::format(PmemPool::new(PmemConfig::default())), 8)
    }

    #[test]
    fn txn_logs_then_applies() {
        let s = sys();
        let dst = s.alloc(64);
        let f0 = s.pool().stats().snapshot().sfences;
        let mut t = s.begin(0);
        t.write(dst, &[9u8; 64]);
        t.commit();
        let f1 = s.pool().stats().snapshot().sfences;
        assert_eq!(f1 - f0, 2, "log fence + apply fence");
        let mut out = [0u8; 64];
        s.pool().read_bytes(dst, &mut out);
        assert_eq!(out, [9u8; 64]);
    }

    #[test]
    fn queue_fifo() {
        let q = MnemosyneQueue::new(sys());
        for i in 0..20u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        for _ in 0..20 {
            assert!(q.dequeue(0));
        }
        assert!(!q.dequeue(0));
    }

    #[test]
    fn map_semantics() {
        let m = MnemosyneMap::new(sys(), 64);
        assert!(m.insert(0, make_key(1), b"v"));
        assert!(!m.insert(0, make_key(1), b"w"));
        assert!(m.get(0, &make_key(1)));
        assert!(m.remove(0, &make_key(1)));
        assert!(!m.get(0, &make_key(1)));
        assert!(m.insert(0, make_key(1), b"again"));
    }

    #[test]
    fn chain_removal_in_middle() {
        let m = MnemosyneMap::new(sys(), 1);
        for i in 0..6 {
            m.insert(0, make_key(i), b"v");
        }
        assert!(m.remove(0, &make_key(3)));
        for i in 0..6 {
            assert_eq!(m.get(0, &make_key(i)), i != 3);
        }
    }

    #[test]
    fn large_value_doubles_write_traffic() {
        let s = sys();
        let m = MnemosyneMap::new(s.clone(), 16);
        let c0 = s.pool().stats().snapshot().clwbs;
        m.insert(0, make_key(1), &vec![1u8; 1024]);
        let c1 = s.pool().stats().snapshot().clwbs;
        // ~1 KB logged + ~1 KB applied ⇒ ≥ 32 lines flushed.
        assert!(c1 - c0 >= 32, "expected ≥32 clwbs, saw {}", c1 - c0);
    }
}
