//! Dalí — "A Periodically Persistent Hash Map" (Nawab et al., DISC '17),
//! reimplemented as in the Montage paper's own evaluation: the original's
//! privileged flush-the-whole-cache instruction is replaced by **software
//! tracking of to-be-written-back lines**.
//!
//! Dalí is, besides Montage, the only *buffered* durably linearizable
//! competitor. Every update **prepends a version record** to the bucket's
//! persistent chain (no in-place mutation, no critical-path flush); a
//! periodic era advance writes back all dirty buckets and bumps a persistent
//! era stamp. Old records become garbage once two eras old and are unlinked
//! lazily during later updates.
//!
//! Compared with Montage, the cost drivers are: a record allocation +
//! prepend on *every* update (Montage updates hot payloads in place), chain
//! traversal through NVM on every lookup, and whole-bucket write-back sets.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{POff, PmemPool};
use ralloc::Ralloc;

use crate::api::{bucket_of, BenchMap, Key32};

/// Record layout: `next: u64 | era: u64 | op: u32 (1=put,2=del) | vlen: u32 |
/// key 32B | value bytes`.
const NEXT_OFF: u64 = 0;
const ERA_OFF: u64 = 8;
const OP_OFF: u64 = 16;
const VLEN_OFF: u64 = 20;
const KEY_OFF: u64 = 24;
const DATA_OFF: u64 = 56;

const OP_PUT: u32 = 1;
const OP_DEL: u32 = 2;

struct Bucket {
    /// Head of the persistent record chain (the bucket pointer itself lives
    /// in an NVM array in the original; we keep the pointer value here and
    /// the pointed-to records in NVM — the flush set is what matters).
    head: POff,
    /// Era in which this bucket was last modified (for the dirty set).
    dirty_since: u64,
    /// Already-durable records whose link word was patched in place by GC
    /// since the last era flush; only that word needs write-back.
    patched: Vec<POff>,
}

pub struct DaliHashMap {
    ralloc: Arc<Ralloc>,
    pool: PmemPool,
    buckets: Box<[Mutex<Bucket>]>,
    /// Dirty bucket indices since the last era flush.
    dirty: Mutex<Vec<u32>>,
    era: AtomicU64,
    len: AtomicUsize,
}

impl DaliHashMap {
    pub fn new(ralloc: Arc<Ralloc>, nbuckets: usize) -> Self {
        DaliHashMap {
            pool: ralloc.pool().clone(),
            ralloc,
            buckets: (0..nbuckets)
                .map(|_| {
                    Mutex::new(Bucket {
                        head: POff::NULL,
                        dirty_since: 0,
                        patched: Vec::new(),
                    })
                })
                .collect(),
            dirty: Mutex::new(Vec::new()),
            era: AtomicU64::new(1),
            len: AtomicUsize::new(0),
        }
    }

    fn read_key(&self, rec: POff) -> Key32 {
        let mut k = [0u8; 32];
        self.pool.read_bytes(rec.add(KEY_OFF), &mut k);
        k
    }

    /// Newest record for `key` in the chain, if any.
    fn find(&self, mut rec: POff, key: &Key32) -> Option<(POff, u32)> {
        while !rec.is_null() {
            self.pool.touch(); // NVM chain hop
            if self.read_key(rec) == *key {
                // SAFETY: `rec` is a live chain record under the bucket lock;
                // header offsets are inside its allocation.
                let op = unsafe { self.pool.read::<u32>(rec.add(OP_OFF)) };
                return Some((rec, op));
            }
            // SAFETY: same live-record argument as above.
            rec = POff::new(unsafe { self.pool.read::<u64>(rec.add(NEXT_OFF)) });
        }
        None
    }

    fn prepend(&self, b: &mut Bucket, idx: usize, op: u32, key: &Key32, value: &[u8]) {
        let era = self.era.load(Ordering::Acquire);
        let rec = self.ralloc.alloc(DATA_OFF as usize + value.len());
        // SAFETY: header fields fit in the fresh record, which stays private
        // to this bucket-lock holder until `b.head = rec` below.
        unsafe {
            self.pool.write::<u64>(rec.add(NEXT_OFF), &b.head.raw());
            self.pool.write::<u64>(rec.add(ERA_OFF), &era);
            self.pool.write::<u32>(rec.add(OP_OFF), &op);
            self.pool
                .write::<u32>(rec.add(VLEN_OFF), &(value.len() as u32));
        }
        self.pool.write_bytes(rec.add(KEY_OFF), key);
        self.pool.write_bytes(rec.add(DATA_OFF), value);
        b.head = rec;
        // No flush here — buffered durability. Track the dirty bucket.
        if b.dirty_since < era {
            b.dirty_since = era;
            self.dirty.lock().push(idx as u32);
        }
        // Lazy GC: unlink stale records for the same key that are at least
        // two eras old (already superseded in every recoverable state).
        self.gc_key(b, key, era);
    }

    fn gc_key(&self, b: &mut Bucket, key: &Key32, era: u64) {
        // SAFETY: (chain walk) all records are reached from the locked
        // bucket's head, so reads and the unlink write below cannot race.
        let mut prev = b.head;
        let mut cur = POff::new(unsafe { self.pool.read::<u64>(prev.add(NEXT_OFF)) });
        while !cur.is_null() {
            self.pool.touch(); // NVM chain hop
                               // SAFETY: see the chain-walk note above.
            let next = POff::new(unsafe { self.pool.read::<u64>(cur.add(NEXT_OFF)) });
            if self.read_key(cur) == *key {
                // SAFETY: see the chain-walk note above.
                let rec_era = unsafe { self.pool.read::<u64>(cur.add(ERA_OFF)) };
                if rec_era + 2 <= era {
                    // SAFETY: see the chain-walk note above.
                    unsafe { self.pool.write::<u64>(prev.add(NEXT_OFF), &next.raw()) };
                    // An already-durable record was mutated in place: queue
                    // its link word for the next era write-back. Records
                    // stamped with the current era are written back in full
                    // anyway.
                    // SAFETY: see the chain-walk note above.
                    let prev_era = unsafe { self.pool.read::<u64>(prev.add(ERA_OFF)) };
                    if prev_era < era && !b.patched.contains(&prev) {
                        b.patched.push(prev);
                    }
                    b.patched.retain(|&p| p != cur);
                    self.ralloc.dealloc(cur);
                    cur = next;
                    continue;
                }
            }
            prev = cur;
            cur = next;
        }
    }

    /// Era advance (the periodic flush). Writes back every dirty bucket's
    /// chain head and records, fences, then bumps the era. In the original a
    /// background thread runs this on a timer; benches call it directly or
    /// via [`DaliHashMap::start_flusher`].
    pub fn flush_era(&self) {
        let dirty: Vec<u32> = std::mem::take(&mut *self.dirty.lock());
        for idx in dirty {
            let mut b = self.buckets[idx as usize].lock();
            // Write back only the records prepended since this bucket got
            // dirty (their era stamp says so); everything older became
            // durable at the era flush that covered it and must not be
            // written back again.
            let since = b.dirty_since;
            let mut rec = b.head;
            // SAFETY: (all reads below) records hang off the locked bucket's
            // head, so header reads are in-bounds and race-free.
            while !rec.is_null() {
                let rec_era = unsafe { self.pool.read::<u64>(rec.add(ERA_OFF)) };
                if rec_era >= since {
                    // SAFETY: see above.
                    let vlen = unsafe { self.pool.read::<u32>(rec.add(VLEN_OFF)) } as usize;
                    self.pool.clwb_range(rec, DATA_OFF as usize + vlen);
                }
                // SAFETY: see above.
                rec = POff::new(unsafe { self.pool.read::<u64>(rec.add(NEXT_OFF)) });
            }
            // GC patched these durable records' link words in place.
            for rec in std::mem::take(&mut b.patched) {
                self.pool.clwb_range(rec.add(NEXT_OFF), 8);
            }
        }
        self.pool.sfence();
        self.era.fetch_add(1, Ordering::AcqRel);
    }

    /// Spawns a background era-flusher with the given period.
    pub fn start_flusher(self: &Arc<Self>, period: std::time::Duration) -> DaliFlusher {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let map = self.clone();
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                map.flush_era();
            }
        });
        DaliFlusher {
            stop,
            handle: Some(handle),
        }
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

pub struct DaliFlusher {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for DaliFlusher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl BenchMap for DaliHashMap {
    fn get(&self, _tid: usize, key: &Key32) -> bool {
        let b = self.buckets[bucket_of(key, self.buckets.len())].lock();
        matches!(self.find(b.head, key), Some((_, OP_PUT)))
    }

    fn insert(&self, _tid: usize, key: Key32, value: &[u8]) -> bool {
        let idx = bucket_of(&key, self.buckets.len());
        let mut b = self.buckets[idx].lock();
        let existed = matches!(self.find(b.head, &key), Some((_, OP_PUT)));
        if existed {
            return false;
        }
        self.prepend(&mut b, idx, OP_PUT, &key, value);
        self.len.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn remove(&self, _tid: usize, key: &Key32) -> bool {
        let idx = bucket_of(key, self.buckets.len());
        let mut b = self.buckets[idx].lock();
        if !matches!(self.find(b.head, key), Some((_, OP_PUT))) {
            return false;
        }
        self.prepend(&mut b, idx, OP_DEL, key, &[]);
        self.len.fetch_sub(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::make_key;
    use pmem::PmemConfig;

    fn map() -> Arc<DaliHashMap> {
        let pool = PmemPool::new(PmemConfig::default());
        Arc::new(DaliHashMap::new(Ralloc::format(pool), 64))
    }

    #[test]
    fn map_semantics_with_version_chains() {
        let m = map();
        assert!(m.insert(0, make_key(1), b"a"));
        assert!(!m.insert(0, make_key(1), b"b"));
        assert!(m.get(0, &make_key(1)));
        assert!(m.remove(0, &make_key(1)));
        assert!(!m.get(0, &make_key(1)), "delete record shadows the put");
        assert!(m.insert(0, make_key(1), b"c"), "re-insert after delete");
        assert!(m.get(0, &make_key(1)));
    }

    #[test]
    fn updates_do_not_flush_on_critical_path() {
        let m = map();
        let before = m.pool.stats().snapshot();
        for i in 0..100 {
            m.insert(0, make_key(i), &[1u8; 128]);
        }
        let after = m.pool.stats().snapshot();
        assert!(
            after.sfences - before.sfences <= 2,
            "buffered durability: no per-op fence"
        );
    }

    #[test]
    fn era_flush_writes_back_dirty_chains() {
        let m = map();
        m.insert(0, make_key(1), &[1u8; 256]);
        let before = m.pool.stats().snapshot();
        m.flush_era();
        let after = m.pool.stats().snapshot();
        assert!(
            after.clwbs > before.clwbs,
            "era advance must write back records"
        );
        assert!(after.sfences == before.sfences + 1, "one fence per era");
    }

    #[test]
    fn stale_versions_are_garbage_collected() {
        let m = map();
        let allocs0 = m.ralloc.stats().allocs.load(Ordering::Relaxed);
        for round in 0..10u8 {
            m.remove(0, &make_key(1));
            m.insert(0, make_key(1), &[round; 32]);
            m.flush_era();
            m.flush_era();
        }
        // Deallocs must keep pace with the version churn (chains stay short).
        let allocs = m.ralloc.stats().allocs.load(Ordering::Relaxed) - allocs0;
        let deallocs = m.ralloc.stats().deallocs.load(Ordering::Relaxed);
        assert!(
            deallocs * 2 >= allocs,
            "GC lagging: {allocs} allocs, {deallocs} deallocs"
        );
    }

    #[test]
    fn background_flusher_advances_eras() {
        let m = map();
        let f = m.start_flusher(std::time::Duration::from_millis(2));
        let e0 = m.era.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(m.era.load(Ordering::Relaxed) > e0);
        drop(f);
    }
}
