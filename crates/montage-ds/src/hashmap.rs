//! The Montage hashmap (paper Fig. 2), grown into an **online-resizable**
//! two-level bucket directory (Clevel-style, cf. memento's `clevel.rs`):
//! a lock-per-bucket chained map whose buckets, chains, locks *and resize*
//! are all transient; the persistent state is a bag of key/value payloads
//! and nothing else.
//!
//! ## Resize protocol
//!
//! Any thread that observes the load factor over threshold installs a new
//! bucket level (2× capacity) with a single directory CAS — no
//! stop-the-world, no global lock. The directory then holds two levels:
//!
//! * `prev` — the old table, draining; each bucket carries a `sealed` flag;
//! * `curr` — the new table, where every operation lands.
//!
//! Buckets migrate incrementally: every *write* first seals + drains its
//! key's old bucket (help-on-lookup), then drains a couple more from a
//! shared cursor so the resize finishes even under skewed traffic. A sealed
//! bucket is empty forever; writers that catch a bucket mid-seal retry off
//! a fresh directory snapshot. Reads never persist anything: they check the
//! unsealed old bucket first (an unsealed bucket still holds *all* of its
//! keys, because writers seal before inserting), then the new level.
//!
//! A resize moves transient `Entry`s between transient levels and persists
//! nothing: payloads carry no geometry, so recovery picks its own capacity
//! from the survivor count (see [`MontageHashMap::recover`]).
//!
//! Every verb, reads included, runs in one Montage operation window opened
//! before it loads the directory: a replaced directory is retired through
//! [`EpochSys::retire_transient`] and outlives every open window.
//!
//! Payload layout: the key bytes (fixed-size `K: Copy`) followed by the
//! value bytes. Creation hands both parts to `EpochSys::pnew_parts`,
//! recovery decodes the key, and an overwrite leaves the key image alone
//! (`EpochSys::overwrite_tail` with `size_of::<K>()` as the head).

use std::hash::{Hash, Hasher};
use std::mem::{size_of, MaybeUninit};
use std::sync::Arc;

use montage::sync::{
    spin_loop, uninstrumented as raw, AtomicBool, AtomicPtr, AtomicUsize, Mutex, MutexGuard,
    Ordering,
};
use montage::{EpochSys, OpGuard, PHandle, RecoveredState, ThreadId};

/// Default resize trigger: average chain length (len / buckets) above this
/// installs a new level.
const DEFAULT_MAX_LOAD: usize = 4;

/// Old buckets each write drains from the shared cursor, beyond its own
/// key's bucket — the amortization that finishes a resize under any
/// traffic shape.
const MIGRATE_BATCH: usize = 2;

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

struct Bucket<K> {
    chain: Mutex<Vec<Entry<K>>>,
    /// Set (under the chain lock) once this bucket has been drained into a
    /// newer level. A sealed bucket never holds entries again; writers that
    /// lock one retry from a fresh directory snapshot.
    sealed: AtomicBool,
}

struct Table<K> {
    buckets: Box<[Bucket<K>]>,
}

impl<K> Table<K> {
    fn new(nbuckets: usize) -> Arc<Table<K>> {
        Arc::new(Table {
            buckets: (0..nbuckets)
                .map(|_| Bucket {
                    chain: Mutex::new(Vec::new()),
                    sealed: AtomicBool::new(false),
                })
                .collect(),
        })
    }
}

/// An in-flight resize: the draining level, its target and the progress.
struct ResizeState<K> {
    prev: Arc<Table<K>>,
    next: Arc<Table<K>>,
    /// Old buckets not yet sealed; hitting zero retires the level.
    pending: AtomicUsize,
    /// Shared drain cursor for the amortized migration batches.
    cursor: AtomicUsize,
}

/// One published directory snapshot: the active level, plus the draining
/// level while a resize is in flight. Immutable once published; swapped
/// with a CAS and retired through the epoch system.
struct Dir<K> {
    curr: Arc<Table<K>>,
    resize: Option<Arc<ResizeState<K>>>,
}

/// A buffered-persistent hash map with per-bucket locking and lock-free
/// online resize (see the module docs for the protocol).
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
    /// A `Box<Dir>`, never null.
    dir: AtomicPtr<Dir<K>>,
    len: raw::AtomicUsize,
    /// Average chain length that triggers a resize.
    max_load: usize,
    /// Completed (retired) resizes since construction/recovery.
    resizes: raw::AtomicUsize,
}

// SAFETY: the directory is read only inside an operation window and retired
// through the epoch system, and all interior mutability goes through atomics
// or per-bucket locks, so with `K: Send + Sync` the map as a whole is safe
// to share across threads.
unsafe impl<K: Send + Sync> Send for MontageHashMap<K> {}
unsafe impl<K: Send + Sync> Sync for MontageHashMap<K> {}

impl<K> Drop for MontageHashMap<K> {
    fn drop(&mut self) {
        // ord(acquire): the directory pointer publishes the level arrays it
        // points at; pairs with the Release side of the install CASes.
        let d = self.dir.load(Ordering::Acquire);
        // SAFETY: `&mut self` means no window is open on this map; the
        // published Dir box is ours to free (replaced ones are retired).
        drop(unsafe { Box::from_raw(d) });
    }
}

impl<K: Copy + Eq + Hash + Send + Sync> MontageHashMap<K> {
    /// Creates a map with `nbuckets` initial transient buckets and the
    /// default resize threshold ([`DEFAULT_MAX_LOAD`]).
    pub fn new(esys: Arc<EpochSys>, tag: u16, nbuckets: usize) -> Self {
        Self::with_max_load(esys, tag, nbuckets, DEFAULT_MAX_LOAD)
    }

    /// Creates a map that installs a new level once the average chain
    /// length exceeds `max_load`.
    pub fn with_max_load(esys: Arc<EpochSys>, tag: u16, nbuckets: usize, max_load: usize) -> Self {
        assert!(nbuckets > 0 && max_load > 0);
        Self::from_table(esys, tag, Table::new(nbuckets), max_load)
    }

    fn from_table(esys: Arc<EpochSys>, tag: u16, curr: Arc<Table<K>>, max_load: usize) -> Self {
        MontageHashMap {
            esys,
            tag,
            dir: AtomicPtr::new(Box::into_raw(Box::new(Dir { curr, resize: None }))),
            len: raw::AtomicUsize::new(0),
            max_load,
            resizes: raw::AtomicUsize::new(0),
        }
    }

    /// Rebuilds the transient index from recovered payloads, using one
    /// rebuild thread per shard (the paper's parallel recovery).
    ///
    /// The index is transient, so its size is recovery's choice: one level
    /// of the smallest `nbuckets · 2^k` that holds the survivors at the
    /// default load — the capacity a fresh map filled with them would have
    /// grown to. Recovery writes nothing persistent: it is a pure function
    /// of the image, so a second crash right after it replays identically.
    pub fn recover(esys: Arc<EpochSys>, tag: u16, nbuckets: usize, rec: &RecoveredState) -> Self {
        let survivors = rec
            .shards
            .iter()
            .flatten()
            .filter(|it| it.tag == tag)
            .count();
        let mut cap = nbuckets;
        while survivors > DEFAULT_MAX_LOAD * cap {
            cap *= 2;
        }
        let table = Table::new(cap);
        std::thread::scope(|s| {
            for shard in &rec.shards {
                let table = &table;
                s.spawn(move || {
                    for item in shard.iter().filter(|it| it.tag == tag) {
                        let key: K = rec.with_bytes(item, key_of);
                        let mut chain = table.buckets[Self::index_in(&key, cap)].chain.lock();
                        debug_assert!(
                            !chain.iter().any(|e| e.key == key),
                            "duplicate key in recovered payload set"
                        );
                        chain.push(Entry {
                            key,
                            payload: item.handle(),
                        });
                    }
                });
            }
        });
        let map = Self::from_table(esys, tag, table, DEFAULT_MAX_LOAD);
        // ord(counter): recovery-time only; no concurrent readers yet.
        map.len.store(survivors, Ordering::Relaxed);
        map
    }

    pub fn esys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    #[inline]
    fn index_in(key: &K, nbuckets: usize) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % nbuckets
    }

    /// The published directory, valid until the caller's window closes.
    fn dir<'g>(&'g self, _g: &'g OpGuard<'_>) -> &'g Dir<K> {
        // SAFETY: the pointer is never null, and a directory unlinked while
        // the window is open is retired, not freed, until the window closes.
        // ord(acquire): the directory pointer publishes the level arrays it
        // points at; pairs with the Release side of the install CASes.
        unsafe { &*self.dir.load(Ordering::Acquire) }
    }

    // ---- resize machinery ------------------------------------------------

    /// Seals and drains old bucket `oi` into the resize's target level.
    /// Whoever seals the last bucket retires the level.
    fn migrate_bucket(&self, g: &OpGuard<'_>, rs: &ResizeState<K>, oi: usize) {
        let bucket = &rs.prev.buckets[oi];
        // ord(acquire): pairs with the seal publish in `migrate_bucket`; a
        // sealed bucket's entries are reached via the target chain locks.
        if bucket.sealed.load(Ordering::Acquire) {
            return;
        }
        {
            let mut chain = bucket.chain.lock();
            // ord(relaxed): re-check under the chain lock; the lock orders it.
            if bucket.sealed.load(Ordering::Relaxed) {
                return; // lost the race while waiting for the lock
            }
            for e in chain.drain(..) {
                let ni = Self::index_in(&e.key, rs.next.buckets.len());
                rs.next.buckets[ni].chain.lock().push(e);
            }
            // ord(publish): seals the drained bucket; racers that observe it go
            // to the next level instead of the emptied chain.
            bucket.sealed.store(true, Ordering::Release);
        }
        // ord(acqrel): the last decrementer must observe every other
        // migrator's seal before retiring the level; the release side
        // publishes our own bucket's drain.
        if rs.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.retire_level(g, rs);
        }
    }

    /// Drains up to `n` not-yet-migrated old buckets off the shared cursor.
    fn drain_some(&self, g: &OpGuard<'_>, rs: &ResizeState<K>, n: usize) {
        for _ in 0..n {
            // ord(relaxed): a work-claim ticket; duplicate claims are benign
            // because `migrate_bucket` is idempotent under the seal.
            let oi = rs.cursor.fetch_add(1, Ordering::Relaxed);
            if oi >= rs.prev.buckets.len() {
                return;
            }
            self.migrate_bucket(g, rs, oi);
        }
    }

    /// Every old bucket is sealed: publish the single-level directory.
    fn retire_level(&self, g: &OpGuard<'_>, rs: &ResizeState<K>) {
        let cur = self.dir(g);
        debug_assert!(
            cur.resize.as_ref().is_some_and(|r| std::ptr::eq(&**r, rs)),
            "retiring a resize that is not the active one"
        );
        self.swap_dir(g, cur, rs.next.clone(), None)
            .expect("install is gated on `resize: None`, so nobody swaps the directory under an active resize");
        // ord(counter): stats tally.
        self.resizes.fetch_add(1, Ordering::Relaxed);
    }

    /// Observed over-threshold load: try to install the two-level directory.
    /// Losing the install race is harmless — the winner grows to the same
    /// capacity.
    fn try_install_resize(&self, g: &OpGuard<'_>) {
        let cur = self.dir(g);
        if cur.resize.is_some() {
            return; // one resize at a time
        }
        let old_cap = cur.curr.buckets.len();
        let rs = Arc::new(ResizeState {
            prev: cur.curr.clone(),
            next: Table::new(old_cap * 2),
            pending: AtomicUsize::new(old_cap),
            cursor: AtomicUsize::new(0),
        });
        let _ = self.swap_dir(g, cur, rs.next.clone(), Some(rs));
    }

    /// Replaces the published directory `cur` with `{curr, resize}` and
    /// retires `cur`; `Err` if another thread replaced it first.
    fn swap_dir(
        &self,
        g: &OpGuard<'_>,
        cur: &Dir<K>,
        curr: Arc<Table<K>>,
        resize: Option<Arc<ResizeState<K>>>,
    ) -> Result<(), ()> {
        let cur = cur as *const Dir<K> as *mut Dir<K>;
        let new = Box::into_raw(Box::new(Dir { curr, resize }));
        // ord(acqrel): installing a directory publishes its levels and resize
        // descriptor to every racing op; the acquire side orders it after
        // the losing racers.
        match self
            .dir
            .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
        {
            // SAFETY: `cur` came from `Box::into_raw` and is now unlinked:
            // only windows open at this point can still hold it.
            Ok(_) => unsafe { self.esys.retire_transient(g, cur) },
            Err(_) => {
                // SAFETY: the losing Dir box was never published.
                drop(unsafe { Box::from_raw(new) });
                return Err(());
            }
        }
        Ok(())
    }

    /// Write-path preamble: the directory, after helping any in-flight resize
    /// past this key's old bucket (plus an amortized batch).
    fn writer_dir<'g>(&'g self, g: &'g OpGuard<'_>, key: &K) -> &'g Dir<K> {
        let dir = self.dir(g);
        if let Some(rs) = &dir.resize {
            let oi = Self::index_in(key, rs.prev.buckets.len());
            self.migrate_bucket(g, rs, oi);
            self.drain_some(g, rs, MIGRATE_BATCH);
        }
        dir
    }

    /// Runs `f` under the key's bucket lock in the newest level, in a window
    /// `f` writes in, then checks the load. Retries in a fresh window on a
    /// sealed bucket (stale directory) or a tick: `check_epoch` under the
    /// lock keeps `"bucket lock orders epochs"` unreachable.
    fn with_bucket<R>(
        &self,
        tid: ThreadId,
        key: &K,
        mut f: impl FnMut(&OpGuard<'_>, &mut Vec<Entry<K>>) -> R,
    ) -> R {
        loop {
            let g = self.esys.begin_op(tid);
            let dir = self.writer_dir(&g, key);
            let bucket = &dir.curr.buckets[Self::index_in(key, dir.curr.buckets.len())];
            let mut chain = bucket.chain.lock();
            // ord(relaxed): re-check under the chain lock; the lock orders it.
            if bucket.sealed.load(Ordering::Relaxed) || self.esys.check_epoch(&g).is_err() {
                continue; // a newer level drained this bucket, or the clock ticked
            }
            let r = f(&g, &mut chain);
            drop(chain);
            self.maybe_resize(&g);
            return r;
        }
    }

    /// Drives any in-flight resize to completion (tests and benchmarks use
    /// this to measure steady-state layouts).
    pub fn finish_resize(&self, tid: ThreadId) {
        loop {
            {
                let g = self.esys.begin_op(tid);
                let Some(rs) = &self.dir(&g).resize else {
                    return;
                };
                for oi in 0..rs.prev.buckets.len() {
                    self.migrate_bucket(&g, rs, oi);
                }
            }
            // Every bucket is sealed; if a helper sealed the last one, the
            // retirement is its to publish — let it run.
            spin_loop();
        }
    }

    /// Current bucket count of the active level.
    pub fn capacity(&self, tid: ThreadId) -> usize {
        self.dir(&self.esys.begin_op(tid)).curr.buckets.len()
    }

    /// Completed (retired) resizes since construction or recovery.
    pub fn resizes_completed(&self) -> usize {
        // ord(counter): stats tally.
        self.resizes.load(Ordering::Relaxed)
    }

    /// Whether a resize is currently in flight.
    pub fn resizing(&self, tid: ThreadId) -> bool {
        self.dir(&self.esys.begin_op(tid)).resize.is_some()
    }

    /// Post-write load check; installs a new level when over threshold.
    fn maybe_resize(&self, g: &OpGuard<'_>) {
        let dir = self.dir(g);
        // ord(counter): size estimate only.
        if dir.resize.is_none()
            && self.len.load(Ordering::Relaxed) > self.max_load * dir.curr.buckets.len()
        {
            self.try_install_resize(g);
        }
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

    /// The chain that owns `key` in `dir`, locked; `None` if `dir` is stale.
    /// During a resize the unsealed old bucket is authoritative for its keys
    /// (writers seal before inserting into the new level).
    fn owning_chain<'g>(&self, dir: &'g Dir<K>, key: &K) -> Option<MutexGuard<'g, Vec<Entry<K>>>> {
        if let Some(rs) = &dir.resize {
            let ob = &rs.prev.buckets[Self::index_in(key, rs.prev.buckets.len())];
            // ord(acquire): pairs with the seal publish in `migrate_bucket`; a
            // sealed bucket's entries are reached via the target chain locks.
            if !ob.sealed.load(Ordering::Acquire) {
                let chain = ob.chain.lock();
                // ord(relaxed): re-check under the chain lock; the lock orders it.
                if !ob.sealed.load(Ordering::Relaxed) {
                    return Some(chain); // unsealed ⇒ it still owns all its keys
                }
                // Sealed while we waited: fall through to the new level.
            }
        }
        let bucket = &dir.curr.buckets[Self::index_in(key, dir.curr.buckets.len())];
        let chain = bucket.chain.lock();
        // ord(relaxed): re-check under the chain lock; the lock orders it.
        (!bucket.sealed.load(Ordering::Relaxed)).then_some(chain)
    }

    /// Looks up `key`, applying `f` to the value bytes. Read-only, as in
    /// nbMontage: it opens an operation window, so nothing it reads can be
    /// freed under it, but writes nothing persistent, never helps a
    /// migration, and synchronizes only on transient bucket locks.
    pub fn get<R>(&self, tid: ThreadId, key: &K, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let ksize = size_of::<K>();
        let g = self.esys.begin_op(tid);
        loop {
            let dir = self.dir(&g);
            // A sealed bucket in the active level: a newer level owns the key.
            let Some(chain) = self.owning_chain(dir, key) else {
                continue;
            };
            let found = chain
                .iter()
                .find(|e| e.key == *key)
                .map(|e| self.esys.peek_bytes_unsafe(e.payload, |b| f(&b[ksize..])));
            drop(chain);
            // Model-check probe: the directory outlived the window.
            #[cfg(feature = "interleave-check")]
            assert!(
                !self.esys.debug_freed(dir),
                "directory freed under a registered reader"
            );
            return found;
        }
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
    fn resize_grows_capacity_and_preserves_contents() {
        let s = sys();
        let m = MontageHashMap::<Key>::with_max_load(s.clone(), 1, 4, 2);
        let tid = s.register_thread();
        for i in 0..100 {
            m.put(tid, key(i), format!("v{i}").as_bytes());
        }
        m.finish_resize(tid);
        assert!(
            m.resizes_completed() >= 2,
            "100 keys over a 4×2 trigger must resize repeatedly, got {}",
            m.resizes_completed()
        );
        assert!(m.capacity(tid) > 4, "capacity grew: {}", m.capacity(tid));
        assert_eq!(m.len(), 100);
        for i in 0..100 {
            assert_eq!(
                m.get_owned(tid, &key(i)).unwrap(),
                format!("v{i}").as_bytes(),
                "key {i} lost across resize"
            );
        }
        // Deletes of migrated keys work post-resize.
        for i in 0..20 {
            assert!(m.remove(tid, &key(i)));
        }
        assert_eq!(m.len(), 80);
    }

    #[test]
    fn eight_concurrent_writers_complete_two_resizes_without_loss() {
        // The acceptance shape: populate far past the trigger from 8
        // threads; every op must succeed and every key must be readable.
        let s = sys();
        let m = Arc::new(MontageHashMap::<Key>::with_max_load(s.clone(), 1, 8, 2));
        let mut handles = vec![];
        for t in 0..8u64 {
            let m = m.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                for i in 0..250 {
                    m.put(tid, key(t * 100_000 + i), &t.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let tid = s.register_thread();
        m.finish_resize(tid);
        assert!(
            m.resizes_completed() >= 2,
            "2000 keys from 8 buckets: got {} resizes",
            m.resizes_completed()
        );
        assert_eq!(m.len(), 2000);
        for t in 0..8u64 {
            for i in 0..250 {
                assert_eq!(
                    m.get_owned(tid, &key(t * 100_000 + i)).unwrap(),
                    t.to_le_bytes(),
                    "writer {t} op {i} lost"
                );
            }
        }
    }

    #[test]
    fn concurrent_readers_during_resize_never_miss() {
        use std::sync::atomic::AtomicBool;
        let s = sys();
        let m = Arc::new(MontageHashMap::<Key>::with_max_load(s.clone(), 1, 4, 2));
        let tid0 = s.register_thread();
        for i in 0..64 {
            m.put(tid0, key(i), b"stable");
        }
        let stop = Arc::new(AtomicBool::new(false));
        // The resizes start only once every reader has read a pass: on a
        // busy box the writer would otherwise be done before they are scheduled.
        let reading = Arc::new(std::sync::Barrier::new(4));
        let mut readers = vec![];
        for _ in 0..3 {
            let m = m.clone();
            let s = s.clone();
            let stop = stop.clone();
            let reading = reading.clone();
            readers.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                let mut checks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..64 {
                        assert!(
                            m.get(tid, &key(i), |_| ()).is_some(),
                            "reader missed stable key {i} mid-resize"
                        );
                        checks += 1;
                    }
                    if checks == 64 {
                        reading.wait();
                    }
                }
                checks
            }));
        }
        reading.wait();
        // Writers push the map through several resizes under the readers.
        for i in 64..800 {
            m.put(tid0, key(i), b"x");
        }
        m.finish_resize(tid0);
        stop.store(true, Ordering::Relaxed);
        let checks: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(checks > 0);
        assert!(m.resizes_completed() >= 2);
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
    fn recovery_fits_one_level_to_the_survivors() {
        let s = sys();
        let m = MontageHashMap::<Key>::with_max_load(s.clone(), 1, 4, 2);
        let tid = s.register_thread();
        for i in 0..60 {
            m.put(tid, key(i), b"v");
        }
        m.finish_resize(tid);
        assert!(m.capacity(tid) > 4);
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 2);
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 4, &rec);
        // The recovered size is recovery's choice, not the live map's (32):
        // a 4 · 2^k that holds the survivors at the default load.
        let tid2 = rec.esys.register_thread();
        let cap = m2.capacity(tid2);
        assert!(!m2.resizing(tid2));
        assert!(cap >= 4 && cap.is_multiple_of(4) && (cap / 4).is_power_of_two());
        assert!(60 <= DEFAULT_MAX_LOAD * cap, "over-full at {cap} buckets");
        assert_eq!(m2.len(), 60);
        for i in 0..60 {
            assert!(m2.get_owned(tid2, &key(i)).is_some(), "key {i} lost");
        }
        // A second crash, nothing synced in between: same image, same map.
        let rec2 = montage::recovery::recover(rec.esys.pool().crash(), EsysConfig::default(), 2);
        let m3 = MontageHashMap::<Key>::recover(rec2.esys.clone(), 1, 4, &rec2);
        assert_eq!(m3.capacity(rec2.esys.register_thread()), cap);
        assert_eq!(m3.len(), 60);
    }

    /// `(clwbs, allocs, resizes)` of `n` fresh puts, an epoch advance every
    /// 64 and a closing sync, on a map that starts at `nbuckets`.
    fn growth_cost(nbuckets: usize, n: u64) -> (u64, u64, usize) {
        let s = sys();
        let m = MontageHashMap::<Key>::new(s.clone(), 1, nbuckets);
        let tid = s.register_thread();
        let clwbs0 = s.pool().stats().clwbs.load(Ordering::Relaxed);
        let allocs0 = s.allocator().stats().allocs.load(Ordering::Relaxed);
        for i in 0..n {
            m.put(tid, key(i), &i.to_le_bytes());
            if i % 64 == 63 {
                s.advance_epoch();
            }
        }
        s.sync();
        assert_eq!(m.len() as u64, n);
        (
            s.pool().stats().clwbs.load(Ordering::Relaxed) - clwbs0,
            s.allocator().stats().allocs.load(Ordering::Relaxed) - allocs0,
            m.resizes_completed(),
        )
    }

    #[test]
    fn growing_a_map_costs_one_allocation_per_key() {
        const N: u64 = 2000;
        let (grown_clwbs, grown_allocs, resizes) = growth_cost(4, N);
        assert!(resizes >= 3, "4 buckets to {N} keys: {resizes} resizes");
        assert_eq!(grown_allocs, N, "a resize allocates nothing persistent");
        // Same allocation sequence as a map that never resizes, so the same
        // lines are written back.
        let (flat_clwbs, flat_allocs, flat_resizes) = growth_cost(1024, N);
        assert_eq!((flat_allocs, flat_resizes), (N, 0));
        assert_eq!(grown_clwbs, flat_clwbs, "a resize writes nothing back");
    }

    #[test]
    fn recovery_writes_nothing() {
        // Straggler mode (a 0 µs delay on 1 event in 1000) arms the pool's
        // persistence-event count and, unlike a crash plan, survives `crash()`.
        let mut cfg = PmemConfig::strict_for_test(64 << 20);
        cfg.chaos.straggler_permille = 1;
        cfg.chaos.straggler_delay_us = 0;
        let s = EpochSys::format(PmemPool::new(cfg), EsysConfig::default());
        let m = MontageHashMap::<Key>::with_max_load(s.clone(), 1, 4, 2);
        let tid = s.register_thread();
        for i in 0..35 {
            m.put(tid, key(i), format!("v{i}").as_bytes());
        }
        assert!(m.resizing(tid), "the image must be cut mid-resize");
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
        assert_eq!((m2.len(), m2.capacity(t2)), (35, 16));

        // Crash the untouched pool again: same capacity, len and contents.
        let rec2 = montage::recovery::recover(rec.esys.pool().crash(), EsysConfig::default(), 2);
        let m3 = MontageHashMap::<Key>::recover(rec2.esys.clone(), 1, 4, &rec2);
        let t3 = rec2.esys.register_thread();
        assert_eq!((m3.len(), m3.capacity(t3)), (35, 16));
        for i in 0..35 {
            let want = format!("v{i}");
            assert_eq!(m2.get_owned(t2, &key(i)).unwrap(), want.as_bytes());
            assert_eq!(m3.get_owned(t3, &key(i)).unwrap(), want.as_bytes());
        }
    }

    #[test]
    fn unsynced_resize_descriptor_recovers_old_geometry() {
        let s = sys();
        let m = MontageHashMap::<Key>::with_max_load(s.clone(), 1, 4, 2);
        let tid = s.register_thread();
        for i in 0..8 {
            m.put(tid, key(i), b"v");
        }
        s.sync(); // durable at the pre-resize geometry
        m.put(tid, key(8), b"v"); // trips the trigger, installs a resize
        assert!(m.resizing(tid) || m.resizes_completed() > 0);
        // Crash without syncing: the ninth key's epoch never sealed.
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 4, &rec);
        assert_eq!(
            m2.capacity(rec.esys.register_thread()),
            4,
            "an unsynced key must not grow the map"
        );
        assert_eq!(m2.len(), 8);
    }

    #[test]
    fn mid_resize_crash_recovers_every_synced_key() {
        // Install a resize, migrate only *some* buckets, sync, crash: the
        // recovered map must hold every synced key exactly once, in one level.
        let s = sys();
        let m = MontageHashMap::<Key>::with_max_load(s.clone(), 1, 4, 2);
        let tid = s.register_thread();
        for i in 0..9 {
            m.put(tid, key(i), format!("v{i}").as_bytes());
        }
        // A resize is now in flight (or already done); leave it incomplete
        // by not calling finish_resize.
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 2);
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 4, &rec);
        assert_eq!(m2.len(), 9);
        let tid2 = rec.esys.register_thread();
        assert!(
            !m2.resizing(tid2),
            "recovery must not leave a resize in flight"
        );
        for i in 0..9 {
            assert_eq!(
                m2.get_owned(tid2, &key(i)).unwrap(),
                format!("v{i}").as_bytes()
            );
        }
    }
}
