//! The Montage hashmap (paper Fig. 2): a fixed array of buckets, one lock
//! per bucket, each a chain of key → payload-handle entries. Buckets,
//! chains and locks are transient; the persistent state is a bag of
//! key/value payloads and nothing else, so the map never resizes and
//! recovery rebuilds exactly the `nbuckets` it is given.
//!
//! Every verb, reads included, runs in one Montage operation window, so no
//! payload it reads can be reclaimed under it.
//!
//! Payload layout: the key bytes (fixed-size `K: Copy`) followed by the
//! value bytes. Creation hands both parts to `EpochSys::pnew_parts`,
//! recovery decodes the key, and an overwrite leaves the key image alone
//! (`EpochSys::overwrite_tail` with `size_of::<K>()` as the head).

use std::hash::{Hash, Hasher};
use std::mem::{size_of, MaybeUninit};
use std::sync::Arc;

use montage::sync::{uninstrumented as raw, Mutex, Ordering};
use montage::{EpochSys, OpGuard, PHandle, RecoveredState, ThreadId};

/// A key's byte image: the head of a payload (`pnew_parts`' `head`).
fn key_image<K: Copy>(key: &K) -> &[u8] {
    // SAFETY: `key` is a live K, readable for exactly `size_of::<K>()` bytes
    // while the borrow lasts, and `u8` has no alignment requirement. The key
    // types in use (integers, byte arrays) have no padding bytes.
    unsafe { std::slice::from_raw_parts(key as *const K as *const u8, size_of::<K>()) }
}

/// The key a payload created from [`key_image`] starts with.
fn key_of<K: Copy>(bytes: &[u8]) -> K {
    assert!(
        bytes.len() >= size_of::<K>(),
        "payload shorter than its key"
    );
    let mut k = MaybeUninit::<K>::uninit();
    // SAFETY: the assert covers the read; creation stored a valid K's image
    // in these bytes, and K: Copy has no drop obligations.
    // lint: allow(raw-write): copies pool bytes into a transient stack value, not into the pool
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), k.as_mut_ptr() as *mut u8, size_of::<K>());
        k.assume_init()
    }
}

/// One chain entry: transient key copy (fast compares without touching NVM)
/// plus the indirection to the current payload version (paper Sec. 3.1: a
/// single transient pointer per payload makes handle replacement trivial).
struct Entry<K> {
    key: K,
    payload: PHandle<[u8]>,
}

/// A buffered-persistent hash map with one lock per bucket.
///
/// `K` must be a fixed-size `Copy` type (the paper pads string keys to
/// 32 bytes; use `[u8; 32]`). Values are byte slices of any length.
///
/// ```
/// use montage::{EpochSys, EsysConfig};
/// use montage_ds::{tags, MontageHashMap};
/// use pmem::{PmemConfig, PmemPool};
///
/// let esys = EpochSys::format(
///     PmemPool::new(PmemConfig::strict_for_test(16 << 20)),
///     EsysConfig::default(),
/// );
/// let tid = esys.register_thread();
/// let map = MontageHashMap::<u64>::new(esys.clone(), tags::HASHMAP, 64);
/// map.put(tid, 7, b"value");
/// assert_eq!(map.get_owned(tid, &7).unwrap(), b"value");
/// esys.sync(); // durable
/// ```
pub struct MontageHashMap<K> {
    esys: Arc<EpochSys>,
    tag: u16,
    buckets: Box<[Mutex<Vec<Entry<K>>>]>,
    len: raw::AtomicUsize,
}

impl<K: Copy + Eq + Hash + Send + Sync> MontageHashMap<K> {
    /// Creates an empty map of `nbuckets` buckets.
    pub fn new(esys: Arc<EpochSys>, tag: u16, nbuckets: usize) -> Self {
        assert!(nbuckets > 0);
        MontageHashMap {
            esys,
            tag,
            buckets: (0..nbuckets).map(|_| Mutex::new(Vec::new())).collect(),
            len: raw::AtomicUsize::new(0),
        }
    }

    /// Rebuilds the transient index from recovered payloads into `nbuckets`
    /// buckets, using one rebuild thread per shard (the paper's parallel
    /// recovery). Recovery writes nothing persistent: it is a pure function
    /// of the image, so a second crash right after it replays identically.
    pub fn recover(esys: Arc<EpochSys>, tag: u16, nbuckets: usize, rec: &RecoveredState) -> Self {
        let map = Self::new(esys, tag, nbuckets);
        std::thread::scope(|s| {
            for shard in &rec.shards {
                let map = &map;
                s.spawn(move || {
                    let mut n = 0;
                    for item in shard.iter().filter(|it| it.tag == tag) {
                        let key: K = rec.with_bytes(item, key_of);
                        let mut chain = map.bucket(&key).lock();
                        debug_assert!(
                            !chain.iter().any(|e| e.key == key),
                            "duplicate key in recovered payload set"
                        );
                        chain.push(Entry {
                            key,
                            payload: item.handle(),
                        });
                        n += 1;
                    }
                    // ord(counter): size estimate only.
                    map.len.fetch_add(n, Ordering::Relaxed);
                });
            }
        });
        map
    }

    pub fn esys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    #[inline]
    fn bucket(&self, key: &K) -> &Mutex<Vec<Entry<K>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.buckets[(h.finish() as usize) % self.buckets.len()]
    }

    /// Runs `f` under the key's bucket lock, in a window `f` writes in.
    /// Retries in a fresh window if the clock ticked before the lock was
    /// taken: `check_epoch` under the lock keeps `"bucket lock orders
    /// epochs"` unreachable.
    fn with_bucket<R>(
        &self,
        tid: ThreadId,
        key: &K,
        f: impl FnOnce(&OpGuard<'_>, &mut Vec<Entry<K>>) -> R,
    ) -> R {
        loop {
            let g = self.esys.begin_op(tid);
            let mut chain = self.bucket(key).lock();
            if self.esys.check_epoch(&g).is_ok() {
                return f(&g, &mut chain);
            }
        }
    }

    /// Always 0: the map never resizes (the benchmark's trace ledger reads it).
    pub fn resizes_completed(&self) -> usize {
        0
    }

    // ---- operations ------------------------------------------------------

    /// Inserts or updates; returns `true` if the key already existed.
    pub fn put(&self, tid: ThreadId, key: K, value: &[u8]) -> bool {
        let ksize = size_of::<K>();
        self.with_bucket(tid, &key, |g, chain| {
            if let Some(e) = chain.iter_mut().find(|e| e.key == key) {
                // In place, copy-on-write or (size changed) a same-uid
                // replacement; the returned handle replaces the indirection.
                e.payload = self
                    .esys
                    .overwrite_tail(g, e.payload, ksize, value)
                    .expect("bucket lock orders epochs");
                true
            } else {
                self.push_new(g, chain, key, value);
                false
            }
        })
    }

    /// Inserts only if absent; returns `false` if the key existed.
    pub fn insert(&self, tid: ThreadId, key: K, value: &[u8]) -> bool {
        self.with_bucket(tid, &key, |g, chain| {
            let absent = !chain.iter().any(|e| e.key == key);
            if absent {
                self.push_new(g, chain, key, value);
            }
            absent
        })
    }

    fn push_new(&self, g: &OpGuard<'_>, chain: &mut Vec<Entry<K>>, key: K, value: &[u8]) {
        let payload = self.esys.pnew_parts(g, self.tag, key_image(&key), value);
        chain.push(Entry { key, payload });
        // ord(counter): size estimate only.
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up `key`, applying `f` to the value bytes. Read-only, as in
    /// nbMontage: it opens an operation window, so nothing it reads can be
    /// freed under it, but writes nothing persistent and synchronizes only
    /// on the transient bucket lock.
    pub fn get<R>(&self, tid: ThreadId, key: &K, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let ksize = size_of::<K>();
        let _g = self.esys.begin_op(tid);
        let chain = self.bucket(key).lock();
        chain
            .iter()
            .find(|e| e.key == *key)
            .map(|e| self.esys.peek_bytes_unsafe(e.payload, |b| f(&b[ksize..])))
    }

    /// Owned-value lookup.
    pub fn get_owned(&self, tid: ThreadId, key: &K) -> Option<Vec<u8>> {
        self.get(tid, key, |b| b.to_vec())
    }

    /// Removes `key`; returns `true` if it existed.
    pub fn remove(&self, tid: ThreadId, key: &K) -> bool {
        self.with_bucket(tid, key, |g, chain| {
            let Some(pos) = chain.iter().position(|e| e.key == *key) else {
                return false;
            };
            let e = chain.swap_remove(pos);
            self.esys
                .pdelete(g, e.payload)
                .expect("bucket lock orders epochs");
            // ord(counter): size estimate only.
            self.len.fetch_sub(1, Ordering::Relaxed);
            true
        })
    }

    pub fn len(&self) -> usize {
        // ord(counter): size estimate only.
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use montage::EsysConfig;
    use pmem::{PmemConfig, PmemPool};

    type Key = [u8; 32];

    fn key(i: u64) -> Key {
        let mut k = [0u8; 32];
        k[..8].copy_from_slice(&i.to_le_bytes());
        k
    }

    fn sys() -> Arc<EpochSys> {
        EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        )
    }

    #[test]
    fn key_and_value_round_trip() {
        let bytes = [key_image(&0xfeed_f00d_u64), b"value"].concat();
        assert_eq!(bytes.len(), 8 + 5);
        assert_eq!(key_of::<u64>(&bytes), 0xfeed_f00d);
        assert_eq!(&bytes[8..], b"value");
        let wide: [u8; 32] = std::array::from_fn(|i| i as u8);
        assert_eq!(key_of::<[u8; 32]>(key_image(&wide)), wide);
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let s = sys();
        let m = MontageHashMap::<Key>::new(s.clone(), 1, 64);
        let tid = s.register_thread();
        assert!(!m.put(tid, key(1), b"one"));
        assert_eq!(m.get_owned(tid, &key(1)).unwrap(), b"one");
        assert!(m.put(tid, key(1), b"ONE"), "second put reports replacement");
        assert_eq!(m.get_owned(tid, &key(1)).unwrap(), b"ONE");
        assert!(m.remove(tid, &key(1)));
        assert!(m.get_owned(tid, &key(1)).is_none());
        assert!(!m.remove(tid, &key(1)));
    }

    #[test]
    fn update_with_different_size_value() {
        let s = sys();
        let m = MontageHashMap::<Key>::new(s.clone(), 1, 64);
        let tid = s.register_thread();
        m.put(tid, key(1), b"short");
        m.put(tid, key(1), b"a much longer value than before");
        assert_eq!(
            m.get_owned(tid, &key(1)).unwrap(),
            b"a much longer value than before"
        );
        m.put(tid, key(1), b"s");
        assert_eq!(m.get_owned(tid, &key(1)).unwrap(), b"s");
    }

    #[test]
    fn insert_does_not_overwrite() {
        let s = sys();
        let m = MontageHashMap::<Key>::new(s.clone(), 1, 64);
        let tid = s.register_thread();
        assert!(m.insert(tid, key(1), b"first"));
        assert!(!m.insert(tid, key(1), b"second"));
        assert_eq!(m.get_owned(tid, &key(1)).unwrap(), b"first");
    }

    #[test]
    fn len_is_consistent() {
        let s = sys();
        let m = MontageHashMap::<Key>::new(s.clone(), 1, 16);
        let tid = s.register_thread();
        for i in 0..100 {
            m.put(tid, key(i), b"v");
        }
        assert_eq!(m.len(), 100);
        for i in 0..50 {
            m.remove(tid, &key(i));
        }
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let s = sys();
        let m = Arc::new(MontageHashMap::<Key>::new(s.clone(), 1, 256));
        let mut handles = vec![];
        for t in 0..4u64 {
            let m = m.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                for i in 0..500 {
                    m.put(tid, key(t * 10_000 + i), &t.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 2000);
        let tid = s.register_thread();
        for t in 0..4u64 {
            for i in 0..500 {
                assert_eq!(
                    m.get_owned(tid, &key(t * 10_000 + i)).unwrap(),
                    t.to_le_bytes()
                );
            }
        }
    }

    #[test]
    fn concurrent_same_keys_last_writer_wins() {
        let s = sys();
        let m = Arc::new(MontageHashMap::<Key>::new(s.clone(), 1, 64));
        let mut handles = vec![];
        for t in 0..4u64 {
            let m = m.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                for i in 0..200 {
                    m.put(tid, key(i % 10), &(t * 1000 + i).to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 10);
        let tid = s.register_thread();
        for i in 0..10 {
            assert!(m.get_owned(tid, &key(i)).is_some());
        }
    }

    #[test]
    fn recovery_restores_synced_contents() {
        let s = sys();
        let m = MontageHashMap::<Key>::new(s.clone(), 1, 64);
        let tid = s.register_thread();
        for i in 0..50 {
            m.put(tid, key(i), format!("value-{i}").as_bytes());
        }
        for i in 0..10 {
            m.remove(tid, &key(i));
        }
        m.put(tid, key(20), b"updated");
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 4);
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 64, &rec);
        let tid2 = rec.esys.register_thread();
        assert_eq!(m2.len(), 40);
        for i in 0..10 {
            assert!(
                m2.get_owned(tid2, &key(i)).is_none(),
                "removed key {i} came back"
            );
        }
        assert_eq!(m2.get_owned(tid2, &key(20)).unwrap(), b"updated");
        for i in 21..50 {
            assert_eq!(
                m2.get_owned(tid2, &key(i)).unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn unsynced_updates_roll_back_to_prior_value() {
        let s = sys();
        let m = MontageHashMap::<Key>::new(s.clone(), 1, 64);
        let tid = s.register_thread();
        m.put(tid, key(1), b"old");
        s.sync();
        m.put(tid, key(1), b"new"); // never synced
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 64, &rec);
        let tid2 = rec.esys.register_thread();
        assert_eq!(m2.get_owned(tid2, &key(1)).unwrap(), b"old");
    }

    #[test]
    fn map_usable_after_recovery() {
        let s = sys();
        let m = MontageHashMap::<Key>::new(s.clone(), 1, 64);
        let tid = s.register_thread();
        m.put(tid, key(1), b"a");
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 64, &rec);
        let tid2 = rec.esys.register_thread();
        m2.put(tid2, key(2), b"b");
        m2.put(tid2, key(1), b"a2");
        assert_eq!(m2.get_owned(tid2, &key(1)).unwrap(), b"a2");
        assert_eq!(m2.get_owned(tid2, &key(2)).unwrap(), b"b");
        assert_eq!(m2.len(), 2);
    }

    #[test]
    fn recovery_writes_nothing() {
        // Straggler mode (a 0 µs delay on 1 event in 1000) arms the pool's
        // persistence-event count and, unlike a crash plan, survives `crash()`.
        let mut cfg = PmemConfig::strict_for_test(64 << 20);
        cfg.chaos.straggler_permille = 1;
        cfg.chaos.straggler_delay_us = 0;
        let s = EpochSys::format(PmemPool::new(cfg), EsysConfig::default());
        let m = MontageHashMap::<Key>::new(s.clone(), 1, 4);
        let tid = s.register_thread();
        for i in 0..35 {
            m.put(tid, key(i), format!("v{i}").as_bytes());
        }
        s.sync();

        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 2);
        let counts = |e: &EpochSys| {
            let (p, a) = (e.pool().stats(), e.allocator().stats());
            [
                p.clwbs.load(Ordering::Relaxed),
                p.sfences.load(Ordering::Relaxed),
                a.allocs.load(Ordering::Relaxed),
                a.deallocs.load(Ordering::Relaxed),
                e.pool().persistence_events(),
            ]
        };
        let before = counts(&rec.esys);
        assert!(before[4] > 0, "event counting is armed");
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 4, &rec);
        assert_eq!(counts(&rec.esys), before, "recovery wrote to the pool");
        let t2 = rec.esys.register_thread();
        assert_eq!(m2.len(), 35);

        // Crash the untouched pool again: same len and contents.
        let rec2 = montage::recovery::recover(rec.esys.pool().crash(), EsysConfig::default(), 2);
        let m3 = MontageHashMap::<Key>::recover(rec2.esys.clone(), 1, 4, &rec2);
        let t3 = rec2.esys.register_thread();
        assert_eq!(m3.len(), 35);
        for i in 0..35 {
            let want = format!("v{i}");
            assert_eq!(m2.get_owned(t2, &key(i)).unwrap(), want.as_bytes());
            assert_eq!(m3.get_owned(t3, &key(i)).unwrap(), want.as_bytes());
        }
    }
}
