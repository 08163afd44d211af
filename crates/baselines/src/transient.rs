//! Transient reference structures: "DRAM (T)" and "NVM (T)" in the paper —
//! identical high-quality structures with **no persistence support**, placed
//! either on the process heap or in the NVM pool (allocated with Ralloc, as
//! in the paper, which notes Ralloc's layout even beats jemalloc for queue
//! locality).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::POff;
use ralloc::Ralloc;

use crate::api::{bucket_of, BenchMap, BenchQueue, Key32};

/// Where values live.
#[derive(Clone)]
pub enum Arena {
    /// Process heap ("DRAM (T)").
    Dram,
    /// The simulated-NVM pool via Ralloc ("NVM (T)"): pays the pool's write
    /// latency model but performs no flushes or fences.
    Nvm(Arc<Ralloc>),
}

/// A stored value: heap box or pool block.
pub enum ValRef {
    Dram(Box<[u8]>),
    Nvm(POff, u32),
}

impl Arena {
    pub fn store(&self, bytes: &[u8]) -> ValRef {
        match self {
            Arena::Dram => ValRef::Dram(bytes.into()),
            Arena::Nvm(r) => {
                let off = r.alloc(bytes.len().max(1));
                r.pool().write_bytes(off, bytes);
                ValRef::Nvm(off, bytes.len() as u32)
            }
        }
    }

    pub fn read<R>(&self, v: &ValRef, f: impl FnOnce(&[u8]) -> R) -> R {
        match v {
            ValRef::Dram(b) => f(b),
            ValRef::Nvm(off, len) => {
                let r = match self {
                    Arena::Nvm(r) => r,
                    Arena::Dram => unreachable!("NVM value in DRAM arena"),
                };
                r.pool().touch(); // NVM value dereference
                                  // SAFETY: (both lines) the ValRef was produced by this
                                  // arena's own append, so `off..off+len` is in bounds and the
                                  // bytes are initialized.
                let ptr = unsafe { r.pool().at::<u8>(*off) };
                f(unsafe { std::slice::from_raw_parts(ptr, *len as usize) })
            }
        }
    }

    pub fn free(&self, v: ValRef) {
        match (self, v) {
            (_, ValRef::Dram(_)) => {}
            (Arena::Nvm(r), ValRef::Nvm(off, _)) => r.dealloc(off),
            (Arena::Dram, ValRef::Nvm(..)) => unreachable!("NVM value in DRAM arena"),
        }
    }
}

/// Transient single-lock FIFO queue (mirrors the Montage queue's structure
/// minus persistence).
pub struct TransientQueue {
    arena: Arena,
    inner: Mutex<VecDeque<ValRef>>,
}

impl TransientQueue {
    pub fn new(arena: Arena) -> Self {
        TransientQueue {
            arena,
            inner: Mutex::new(VecDeque::new()),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl BenchQueue for TransientQueue {
    fn enqueue(&self, _tid: usize, value: &[u8]) {
        let v = self.arena.store(value);
        self.inner.lock().push_back(v);
    }

    fn dequeue(&self, _tid: usize) -> bool {
        let v = self.inner.lock().pop_front();
        match v {
            Some(v) => {
                self.arena.free(v);
                true
            }
            None => false,
        }
    }
}

struct MapEntry {
    key: Key32,
    val: ValRef,
}

/// Transient lock-per-bucket chained hashmap (the paper's transient
/// reference for Fig. 7/8/9).
pub struct TransientHashMap {
    arena: Arena,
    buckets: Box<[Mutex<Vec<MapEntry>>]>,
    len: AtomicUsize,
}

impl TransientHashMap {
    pub fn new(arena: Arena, nbuckets: usize) -> Self {
        TransientHashMap {
            arena,
            buckets: (0..nbuckets).map(|_| Mutex::new(Vec::new())).collect(),
            len: AtomicUsize::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_with<R>(&self, key: &Key32, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let chain = self.buckets[bucket_of(key, self.buckets.len())].lock();
        chain
            .iter()
            .find(|e| e.key == *key)
            .map(|e| self.arena.read(&e.val, f))
    }
}

impl BenchMap for TransientHashMap {
    fn get(&self, _tid: usize, key: &Key32) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    fn insert(&self, _tid: usize, key: Key32, value: &[u8]) -> bool {
        let mut chain = self.buckets[bucket_of(&key, self.buckets.len())].lock();
        if chain.iter().any(|e| e.key == key) {
            return false;
        }
        chain.push(MapEntry {
            key,
            val: self.arena.store(value),
        });
        self.len.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn remove(&self, _tid: usize, key: &Key32) -> bool {
        let mut chain = self.buckets[bucket_of(key, self.buckets.len())].lock();
        let Some(pos) = chain.iter().position(|e| e.key == *key) else {
            return false;
        };
        let e = chain.swap_remove(pos);
        drop(chain);
        self.arena.free(e.val);
        self.len.fetch_sub(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::make_key;
    use pmem::{PmemConfig, PmemPool};

    fn arenas() -> Vec<Arena> {
        let pool = PmemPool::new(PmemConfig::default());
        vec![Arena::Dram, Arena::Nvm(Ralloc::format(pool))]
    }

    #[test]
    fn queue_fifo_in_both_arenas() {
        for arena in arenas() {
            let q = TransientQueue::new(arena);
            for i in 0..10u32 {
                q.enqueue(0, &i.to_le_bytes());
            }
            assert_eq!(q.len(), 10);
            for _ in 0..10 {
                assert!(q.dequeue(0));
            }
            assert!(!q.dequeue(0));
        }
    }

    #[test]
    fn map_semantics_in_both_arenas() {
        for arena in arenas() {
            let m = TransientHashMap::new(arena, 64);
            assert!(m.insert(0, make_key(1), b"one"));
            assert!(!m.insert(0, make_key(1), b"dup"));
            assert!(m.get(0, &make_key(1)));
            assert_eq!(m.get_with(&make_key(1), |v| v.to_vec()).unwrap(), b"one");
            assert!(m.remove(0, &make_key(1)));
            assert!(!m.get(0, &make_key(1)));
            assert!(!m.remove(0, &make_key(1)));
        }
    }

    #[test]
    fn nvm_arena_never_flushes() {
        let pool = PmemPool::new(PmemConfig::default());
        let r = Ralloc::format(pool.clone());
        let m = TransientHashMap::new(Arena::Nvm(r), 64);
        let base = pool.stats().snapshot();
        for i in 0..200 {
            m.insert(0, make_key(i), &[7u8; 256]);
        }
        let after = pool.stats().snapshot();
        // Only superblock carving may fence; per-op persistence must be zero.
        assert!(
            after.clwbs - base.clwbs <= 8,
            "NVM(T) issued {} clwbs",
            after.clwbs - base.clwbs
        );
    }

    #[test]
    fn concurrent_queue_conserves() {
        let q = Arc::new(TransientQueue::new(Arena::Dram));
        let mut handles = vec![];
        for _ in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0;
                for i in 0..1000u32 {
                    q.enqueue(0, &i.to_le_bytes());
                    if q.dequeue(0) {
                        got += 1;
                    }
                }
                got
            }));
        }
        let got: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(got + q.len(), 4000);
    }
}
