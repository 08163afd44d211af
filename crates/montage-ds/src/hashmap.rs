//! The Montage hashmap (paper Fig. 2), grown into an **online-resizable**
//! two-level bucket directory (Clevel-style, cf. memento's `clevel.rs`):
//! a lock-per-bucket chained map whose buckets, chains and locks are all
//! transient; the persistent state is a bag of key/value payloads plus —
//! while a resize is in flight — a tiny set of *resize metadata* payloads.
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
//! ## Durability of the resize itself
//!
//! Montage's epoch buffer makes resize metadata ordinary payloads:
//!
//! * **descriptor install** — one `pnew` of a 32-byte descriptor
//!   `{seq, old_cap, new_cap, phase: MIGRATING}` in its own epoch window;
//! * **per-bucket migration mark** — a 24-byte `pnew` per sealed bucket;
//! * **level retirement** — one epoch window flips the descriptor's phase
//!   to `DONE` (`set_bytes`, same uid — exactly one durable version at any
//!   cut) and `pdelete`s every mark plus the prior geometry descriptor.
//!
//! Recovery rolls forward deterministically: the surviving descriptor with
//! the highest seq fixes the directory capacity (key payloads are geometry-
//! independent, so rebuilding at the target capacity *completes* the
//! migration); stale marks and superseded descriptors are reaped and a
//! single `DONE` geometry descriptor is rewritten. A cut that missed the
//! descriptor's epoch recovers the pre-resize geometry — either way every
//! surviving key is reachable and no bucket recovers half-migrated.
//!
//! Payload layout: the key bytes (fixed-size `K: Copy`) followed by the
//! value bytes. Metadata payloads use `tag | META_TAG_BIT` so they never
//! collide with data payloads of the same map.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crossbeam::epoch::{self, Atomic, Owned};
use montage::sync::{uninstrumented as raw, AtomicBool, AtomicUsize, Mutex, Ordering};
use montage::{EpochSys, PHandle, RecoveredState, ThreadId};

use crate::codec;

/// Metadata payloads (resize descriptors, migration marks) are tagged
/// `tag | META_TAG_BIT`, keeping them disjoint from the map's data payloads
/// while sharing its pool. User tags must stay below this bit.
pub const META_TAG_BIT: u16 = 0x8000;

/// Default resize trigger: average chain length (len / buckets) above this
/// installs a new level.
const DEFAULT_MAX_LOAD: usize = 4;

/// Old buckets each write drains from the shared cursor, beyond its own
/// key's bucket — the amortization that finishes a resize under any
/// traffic shape.
const MIGRATE_BATCH: usize = 2;

const META_MAGIC: u32 = 0x525A_4431; // "RZD1"
const KIND_DESCRIPTOR: u8 = 1;
const KIND_MARK: u8 = 2;
const PHASE_MIGRATING: u8 = 0;
const PHASE_DONE: u8 = 1;
const DESC_BYTES: usize = 32;
const MARK_BYTES: usize = 24;

/// A decoded resize descriptor payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ResizeDescriptor {
    seq: u64,
    old_cap: u64,
    new_cap: u64,
    done: bool,
}

fn encode_descriptor(d: &ResizeDescriptor) -> [u8; DESC_BYTES] {
    let mut b = [0u8; DESC_BYTES];
    b[..4].copy_from_slice(&META_MAGIC.to_le_bytes());
    b[4] = KIND_DESCRIPTOR;
    b[5] = if d.done { PHASE_DONE } else { PHASE_MIGRATING };
    b[8..16].copy_from_slice(&d.seq.to_le_bytes());
    b[16..24].copy_from_slice(&d.old_cap.to_le_bytes());
    b[24..32].copy_from_slice(&d.new_cap.to_le_bytes());
    b
}

fn decode_descriptor(b: &[u8]) -> Option<ResizeDescriptor> {
    if b.len() != DESC_BYTES || b[..4] != META_MAGIC.to_le_bytes() || b[4] != KIND_DESCRIPTOR {
        return None;
    }
    Some(ResizeDescriptor {
        seq: u64::from_le_bytes(b[8..16].try_into().unwrap()),
        old_cap: u64::from_le_bytes(b[16..24].try_into().unwrap()),
        new_cap: u64::from_le_bytes(b[24..32].try_into().unwrap()),
        done: b[5] == PHASE_DONE,
    })
}

fn encode_mark(seq: u64, bucket: u64) -> [u8; MARK_BYTES] {
    let mut b = [0u8; MARK_BYTES];
    b[..4].copy_from_slice(&META_MAGIC.to_le_bytes());
    b[4] = KIND_MARK;
    b[8..16].copy_from_slice(&seq.to_le_bytes());
    b[16..24].copy_from_slice(&bucket.to_le_bytes());
    b
}

fn decode_mark(b: &[u8]) -> Option<(u64, u64)> {
    if b.len() != MARK_BYTES || b[..4] != META_MAGIC.to_le_bytes() || b[4] != KIND_MARK {
        return None;
    }
    Some((
        u64::from_le_bytes(b[8..16].try_into().unwrap()),
        u64::from_le_bytes(b[16..24].try_into().unwrap()),
    ))
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

/// An in-flight resize: the draining level plus its durable bookkeeping.
struct ResizeState<K> {
    seq: u64,
    prev: Arc<Table<K>>,
    next: Arc<Table<K>>,
    /// Durable descriptor handle (phase MIGRATING until retirement).
    desc: PHandle<[u8]>,
    /// Durable per-bucket migration marks, reaped at retirement.
    marks: Mutex<Vec<PHandle<[u8]>>>,
    /// Old buckets not yet sealed; hitting zero retires the level.
    pending: AtomicUsize,
    /// Shared drain cursor for the amortized migration batches.
    cursor: AtomicUsize,
}

/// One published directory snapshot: the active level, plus the draining
/// level while a resize is in flight. Immutable once published; swapped
/// with a CAS and reclaimed through crossbeam-epoch.
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
    meta_tag: u16,
    dir: Atomic<Dir<K>>,
    len: raw::AtomicUsize,
    /// Average chain length that triggers a resize.
    max_load: usize,
    /// Monotone resize sequence (also seeds recovery's rewritten geometry).
    next_seq: raw::AtomicU64,
    /// Completed (retired) resizes since construction/recovery.
    resizes: raw::AtomicUsize,
    /// The durable `DONE` geometry descriptor for the current capacity,
    /// pdeleted when the next resize retires. `None` until the first
    /// resize completes (a never-resized map needs no geometry record).
    geometry: Mutex<Option<PHandle<[u8]>>>,
}

// SAFETY: the directory is only touched under crossbeam-epoch guards and
// all interior mutability goes through atomics or per-bucket locks, so with
// `K: Send + Sync` the map as a whole is safe to share across threads.
unsafe impl<K: Send + Sync> Send for MontageHashMap<K> {}
unsafe impl<K: Send + Sync> Sync for MontageHashMap<K> {}

impl<K> Drop for MontageHashMap<K> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no other thread holds a guard into this
        // map; the single published Dir box is exclusively ours to free.
        unsafe {
            let g = epoch::unprotected();
            // ord(acquire): the directory pointer publishes the level arrays it
            // points at; pairs with the Release side of the install CASes.
            let d = self.dir.load(Ordering::Acquire, g);
            if !d.is_null() {
                drop(d.into_owned());
            }
        }
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
        assert!(
            tag & META_TAG_BIT == 0,
            "user tags must leave the meta bit clear"
        );
        MontageHashMap {
            esys,
            tag,
            meta_tag: tag | META_TAG_BIT,
            dir: Atomic::new(Dir {
                curr: Table::new(nbuckets),
                resize: None,
            }),
            len: raw::AtomicUsize::new(0),
            max_load,
            next_seq: raw::AtomicU64::new(1),
            resizes: raw::AtomicUsize::new(0),
            geometry: Mutex::new(None),
        }
    }

    /// Rebuilds the transient index from recovered payloads, using one
    /// rebuild thread per shard (the paper's parallel recovery).
    ///
    /// Resize metadata rolls forward: the surviving descriptor with the
    /// highest seq fixes the directory capacity (never below `nbuckets`),
    /// which *completes* any in-flight migration — payloads carry no
    /// geometry, so re-inserting them at the target capacity is the whole
    /// remaining work. Superseded descriptors and stale marks are reaped
    /// and one `DONE` geometry descriptor is rewritten, so a second crash
    /// lands on the same deterministic state.
    pub fn recover(esys: Arc<EpochSys>, tag: u16, nbuckets: usize, rec: &RecoveredState) -> Self {
        let meta_tag = tag | META_TAG_BIT;
        // Pass 1: resize metadata → target capacity + handles to reap.
        let mut best: Option<ResizeDescriptor> = None;
        let mut meta_handles: Vec<PHandle<[u8]>> = Vec::new();
        let mut stale_marks = 0usize;
        for item in rec.shards.iter().flatten().filter(|it| it.tag == meta_tag) {
            meta_handles.push(item.handle());
            let Some(desc) = rec.with_bytes(item, decode_descriptor) else {
                if rec.with_bytes(item, decode_mark).is_some() {
                    stale_marks += 1;
                }
                continue;
            };
            if best.is_none_or(|b| desc.seq > b.seq) {
                best = Some(desc);
            }
        }
        let _ = stale_marks; // informational; marks are advisory on recovery
        let cap = best
            .map(|d| (d.new_cap as usize).max(nbuckets))
            .unwrap_or(nbuckets);
        let next_seq = best.map(|d| d.seq + 1).unwrap_or(1);

        let map = Self::new(esys, tag, cap);
        // ord(counter): recovery-time only; no concurrent readers yet.
        map.next_seq.store(next_seq, Ordering::Relaxed);

        // Pass 2: rebuild the data index at the rolled-forward capacity.
        {
            let g = epoch::pin();
            // SAFETY: the directory pointer is never null after new().
            // ord(acquire): the directory pointer publishes the level arrays it
            // points at; pairs with the Release side of the install CASes.
            let dir = unsafe { map.dir.load(Ordering::Acquire, &g).deref() };
            std::thread::scope(|s| {
                for shard in &rec.shards {
                    s.spawn(|| {
                        for item in shard.iter().filter(|it| it.tag == tag) {
                            let key: K = rec.with_bytes(item, codec::key_of);
                            let idx = Self::index_in(&key, dir.curr.buckets.len());
                            let mut chain = dir.curr.buckets[idx].chain.lock();
                            debug_assert!(
                                !chain.iter().any(|e| e.key == key),
                                "duplicate key in recovered payload set"
                            );
                            chain.push(Entry {
                                key,
                                payload: item.handle(),
                            });
                            // ord(counter): size estimate only.
                            map.len.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
        }

        // Pass 3: reap stale metadata and rewrite one DONE geometry record,
        // so the rolled-forward capacity survives the *next* crash too.
        if !meta_handles.is_empty() {
            let tid = map.esys.register_thread();
            {
                let g = map.esys.begin_op(tid);
                for h in meta_handles {
                    let _ = map.esys.pdelete(&g, h);
                }
                let fresh = encode_descriptor(&ResizeDescriptor {
                    seq: next_seq,
                    old_cap: cap as u64,
                    new_cap: cap as u64,
                    done: true,
                });
                let gh = map.esys.pnew_bytes(&g, meta_tag, &fresh);
                *map.geometry.lock() = Some(gh);
            }
            // ord(counter): recovery-time only; no concurrent readers yet.
            map.next_seq.store(next_seq + 1, Ordering::Relaxed);
            map.esys.unregister_thread(tid);
        }
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

    // ---- resize machinery ------------------------------------------------

    /// Seals and drains old bucket `oi` into the resize's target level.
    /// Whoever wins the seal persists the bucket's migration mark and, on
    /// the last bucket, retires the level.
    fn migrate_bucket(&self, tid: ThreadId, rs: &ResizeState<K>, oi: usize) {
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
        // The durable migration mark: an ordinary buffered payload. Crash
        // cuts may or may not retain it; recovery only needs the descriptor
        // (marks are the observable protocol for the crash sweeps).
        {
            let g = self.esys.begin_op(tid);
            let mh = self
                .esys
                .pnew_bytes(&g, self.meta_tag, &encode_mark(rs.seq, oi as u64));
            rs.marks.lock().push(mh);
        }
        // ord(acqrel): the last decrementer must observe every other
        // migrator's seal before retiring the level; the release side
        // publishes our own bucket's drain.
        if rs.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.retire_level(tid, rs);
        }
    }

    /// Drains up to `n` not-yet-migrated old buckets off the shared cursor.
    fn drain_some(&self, tid: ThreadId, rs: &ResizeState<K>, n: usize) {
        for _ in 0..n {
            // ord(relaxed): a work-claim ticket; duplicate claims are benign
            // because `migrate_bucket` is idempotent under the seal.
            let oi = rs.cursor.fetch_add(1, Ordering::Relaxed);
            if oi >= rs.prev.buckets.len() {
                return;
            }
            self.migrate_bucket(tid, rs, oi);
        }
    }

    /// Every old bucket is sealed: flip the descriptor to DONE and reap the
    /// marks + the previous geometry record in one epoch window, then
    /// publish the single-level directory.
    fn retire_level(&self, tid: ThreadId, rs: &ResizeState<K>) {
        let new_geom = {
            let g = self.esys.begin_op(tid);
            let done = self
                .esys
                .set_bytes(&g, rs.desc, |b| b[5] = PHASE_DONE)
                .expect("retirer is the only descriptor writer");
            for m in rs.marks.lock().drain(..) {
                let _ = self.esys.pdelete(&g, m);
            }
            if let Some(old) = self.geometry.lock().take() {
                let _ = self.esys.pdelete(&g, old);
            }
            done
        };
        *self.geometry.lock() = Some(new_geom);

        let guard = epoch::pin();
        // ord(acquire): the directory pointer publishes the level arrays it
        // points at; pairs with the Release side of the install CASes.
        let cur = self.dir.load(Ordering::Acquire, &guard);
        // SAFETY: directory pointers are never null and the guard pins them.
        let cur_ref = unsafe { cur.deref() };
        debug_assert!(
            cur_ref.resize.as_ref().is_some_and(|r| r.seq == rs.seq),
            "retiring a resize that is not the active one"
        );
        let stable = Owned::new(Dir {
            curr: rs.next.clone(),
            resize: None,
        })
        .into_shared(&guard);
        match self
            .dir
            // ord(acqrel): installing the post-resize directory publishes the
            // merged level; the acquire side orders it after the losing racers.
            .compare_exchange(cur, stable, Ordering::AcqRel, Ordering::Acquire, &guard)
        {
            Ok(_) => {
                // SAFETY: `cur` is unlinked; later pins cannot reach it.
                unsafe { guard.defer_destroy(cur) };
            }
            Err(_) => {
                // Install is gated on `resize: None`, so nobody can have
                // swapped the directory under an active resize.
                unreachable!("directory changed under an active resize");
            }
        }
        // ord(counter): stats tally.
        self.resizes.fetch_add(1, Ordering::Relaxed);
    }

    /// Observed over-threshold load: persist a MIGRATING descriptor and try
    /// to install the two-level directory. Losing the install race deletes
    /// the descriptor again (both contenders grow to the same capacity, so
    /// recovery is indifferent to which survives a crash between the two).
    fn try_install_resize(&self, tid: ThreadId) {
        let guard = epoch::pin();
        // ord(acquire): the directory pointer publishes the level arrays it
        // points at; pairs with the Release side of the install CASes.
        let cur = self.dir.load(Ordering::Acquire, &guard);
        // SAFETY: directory pointers are never null and the guard pins them.
        let cur_ref = unsafe { cur.deref() };
        if cur_ref.resize.is_some() {
            return; // one resize at a time
        }
        let old_cap = cur_ref.curr.buckets.len();
        let new_cap = old_cap * 2;
        // ord(counter): resize sequence handout; uniqueness, not ordering.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let desc = {
            let g = self.esys.begin_op(tid);
            self.esys.pnew_bytes(
                &g,
                self.meta_tag,
                &encode_descriptor(&ResizeDescriptor {
                    seq,
                    old_cap: old_cap as u64,
                    new_cap: new_cap as u64,
                    done: false,
                }),
            )
        };
        let rs = Arc::new(ResizeState {
            seq,
            prev: cur_ref.curr.clone(),
            next: Table::new(new_cap),
            desc,
            marks: Mutex::new(Vec::with_capacity(old_cap)),
            pending: AtomicUsize::new(old_cap),
            cursor: AtomicUsize::new(0),
        });
        let two_level = Owned::new(Dir {
            curr: rs.next.clone(),
            resize: Some(rs),
        })
        .into_shared(&guard);
        match self
            .dir
            // ord(acqrel): installing the two-level directory publishes the fresh
            // next level and the resize descriptor to every racing op.
            .compare_exchange(cur, two_level, Ordering::AcqRel, Ordering::Acquire, &guard)
        {
            Ok(_) => {
                // SAFETY: `cur` is unlinked; later pins cannot reach it.
                unsafe { guard.defer_destroy(cur) };
            }
            Err(_) => {
                // Someone else resized first: our descriptor must not
                // outlive the attempt.
                let g = self.esys.begin_op(tid);
                let _ = self.esys.pdelete(&g, desc);
                // SAFETY: the losing Dir box was never published.
                unsafe { drop(two_level.into_owned()) };
            }
        }
    }

    /// Write-path preamble: returns the directory's current level after
    /// helping any in-flight resize past this key's old bucket (plus an
    /// amortized batch). The returned closure-scope guarantees: locking the
    /// returned level's bucket and finding it unsealed means the bucket
    /// holds every entry of this key's chain.
    fn writer_dir<'g>(&self, tid: ThreadId, key: &K, guard: &'g epoch::Guard) -> &'g Dir<K> {
        // SAFETY: directory pointers are never null and the guard pins them.
        // ord(acquire): the directory pointer publishes the level arrays it
        // points at; pairs with the Release side of the install CASes.
        let dir = unsafe { self.dir.load(Ordering::Acquire, guard).deref() };
        if let Some(rs) = &dir.resize {
            let oi = Self::index_in(key, rs.prev.buckets.len());
            self.migrate_bucket(tid, rs, oi);
            self.drain_some(tid, rs, MIGRATE_BATCH);
        }
        dir
    }

    /// Runs `f` under the key's bucket lock in the newest level, retrying
    /// across directory swaps (a sealed bucket means the snapshot is stale).
    fn with_bucket<R>(
        &self,
        tid: ThreadId,
        key: &K,
        mut f: impl FnMut(&mut Vec<Entry<K>>) -> R,
    ) -> R {
        loop {
            let guard = epoch::pin();
            let dir = self.writer_dir(tid, key, &guard);
            let idx = Self::index_in(key, dir.curr.buckets.len());
            let bucket = &dir.curr.buckets[idx];
            let mut chain = bucket.chain.lock();
            // ord(relaxed): re-check under the chain lock; the lock orders it.
            if bucket.sealed.load(Ordering::Relaxed) {
                continue; // a newer level drained this bucket; reload
            }
            return f(&mut chain);
        }
    }

    /// Drives any in-flight resize to completion (tests and benchmarks use
    /// this to measure steady-state layouts).
    pub fn finish_resize(&self, tid: ThreadId) {
        loop {
            let guard = epoch::pin();
            // SAFETY: directory pointers are never null; the guard pins them.
            // ord(acquire): the directory pointer publishes the level arrays it
            // points at; pairs with the Release side of the install CASes.
            let dir = unsafe { self.dir.load(Ordering::Acquire, &guard).deref() };
            let Some(rs) = &dir.resize else { return };
            for oi in 0..rs.prev.buckets.len() {
                self.migrate_bucket(tid, rs, oi);
            }
        }
    }

    /// Current bucket count of the active level.
    pub fn capacity(&self) -> usize {
        let guard = epoch::pin();
        // SAFETY: directory pointers are never null; the guard pins them.
        // ord(acquire): the directory pointer publishes the level arrays it
        // points at; pairs with the Release side of the install CASes.
        unsafe { self.dir.load(Ordering::Acquire, &guard).deref() }
            .curr
            .buckets
            .len()
    }

    /// Completed (retired) resizes since construction or recovery.
    pub fn resizes_completed(&self) -> usize {
        // ord(counter): stats tally.
        self.resizes.load(Ordering::Relaxed)
    }

    /// Whether a resize is currently in flight.
    pub fn resizing(&self) -> bool {
        let guard = epoch::pin();
        // SAFETY: directory pointers are never null; the guard pins them.
        // ord(acquire): the directory pointer publishes the level arrays it
        // points at; pairs with the Release side of the install CASes.
        unsafe { self.dir.load(Ordering::Acquire, &guard).deref() }
            .resize
            .is_some()
    }

    /// Post-write load check; installs a new level when over threshold.
    fn maybe_resize(&self, tid: ThreadId) {
        let guard = epoch::pin();
        // SAFETY: directory pointers are never null; the guard pins them.
        // ord(acquire): the directory pointer publishes the level arrays it
        // points at; pairs with the Release side of the install CASes.
        let dir = unsafe { self.dir.load(Ordering::Acquire, &guard).deref() };
        if dir.resize.is_none()
            && self.len.load(Ordering::Relaxed) > self.max_load * dir.curr.buckets.len()
        {
            drop(guard);
            self.try_install_resize(tid);
        }
    }

    // ---- operations ------------------------------------------------------

    /// Inserts or updates; returns `true` if the key already existed.
    pub fn put(&self, tid: ThreadId, key: K, value: &[u8]) -> bool {
        let ksize = std::mem::size_of::<K>();
        let existed = self.with_bucket(tid, &key, |chain| {
            let g = self.esys.begin_op(tid);
            if let Some(e) = chain.iter_mut().find(|e| e.key == key) {
                // In place, copy-on-write or (size changed) a same-uid
                // replacement; the returned handle replaces the indirection.
                e.payload = self
                    .esys
                    .overwrite_tail(&g, e.payload, ksize, value)
                    .expect("bucket lock orders epochs");
                true
            } else {
                let h = self
                    .esys
                    .pnew_parts(&g, self.tag, codec::key_image(&key), value);
                chain.push(Entry { key, payload: h });
                // ord(counter): size estimate only.
                self.len.fetch_add(1, Ordering::Relaxed);
                false
            }
        });
        self.maybe_resize(tid);
        existed
    }

    /// Inserts only if absent; returns `false` if the key existed.
    pub fn insert(&self, tid: ThreadId, key: K, value: &[u8]) -> bool {
        let inserted = self.with_bucket(tid, &key, |chain| {
            if chain.iter().any(|e| e.key == key) {
                return false;
            }
            let g = self.esys.begin_op(tid);
            let h = self
                .esys
                .pnew_parts(&g, self.tag, codec::key_image(&key), value);
            chain.push(Entry { key, payload: h });
            // ord(counter): size estimate only.
            self.len.fetch_add(1, Ordering::Relaxed);
            true
        });
        if inserted {
            self.maybe_resize(tid);
        }
        inserted
    }

    /// Looks up `key`, applying `f` to the value bytes. Read-only: skips
    /// `BEGIN_OP`/`END_OP` per the paper (reads are invisible to recovery),
    /// never helps a migration, and synchronizes only on transient bucket
    /// locks. During a resize the unsealed old bucket is authoritative for
    /// its keys (writers seal before inserting into the new level).
    pub fn get<R>(&self, _tid: ThreadId, key: &K, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let ksize = std::mem::size_of::<K>();
        let mut f = Some(f);
        loop {
            let guard = epoch::pin();
            // SAFETY: directory pointers are never null; the guard pins them.
            // ord(acquire): the directory pointer publishes the level arrays it
            // points at; pairs with the Release side of the install CASes.
            let dir = unsafe { self.dir.load(Ordering::Acquire, &guard).deref() };
            if let Some(rs) = &dir.resize {
                let ob = &rs.prev.buckets[Self::index_in(key, rs.prev.buckets.len())];
                // ord(acquire): pairs with the seal publish in `migrate_bucket`; a
                // sealed bucket's entries are reached via the target chain locks.
                if !ob.sealed.load(Ordering::Acquire) {
                    let chain = ob.chain.lock();
                    if !ob.sealed.load(Ordering::Relaxed) {
                        // Unsealed ⇒ this bucket still owns all of its keys.
                        let e = chain.iter().find(|e| e.key == *key);
                        return e.map(|e| {
                            self.esys
                                .peek_bytes_unsafe(e.payload, |b| (f.take().unwrap())(&b[ksize..]))
                        });
                    }
                    // Sealed while we waited: fall through to the new level.
                }
            }
            let bucket = &dir.curr.buckets[Self::index_in(key, dir.curr.buckets.len())];
            let chain = bucket.chain.lock();
            // ord(relaxed): re-check under the chain lock; the lock orders it.
            if bucket.sealed.load(Ordering::Relaxed) {
                continue; // stale snapshot: a newer level owns this key now
            }
            let e = chain.iter().find(|e| e.key == *key);
            return e.map(|e| {
                self.esys
                    .peek_bytes_unsafe(e.payload, |b| (f.take().unwrap())(&b[ksize..]))
            });
        }
    }

    /// Owned-value lookup.
    pub fn get_owned(&self, tid: ThreadId, key: &K) -> Option<Vec<u8>> {
        self.get(tid, key, |b| b.to_vec())
    }

    /// Removes `key`; returns `true` if it existed.
    pub fn remove(&self, tid: ThreadId, key: &K) -> bool {
        self.with_bucket(tid, key, |chain| {
            let Some(pos) = chain.iter().position(|e| e.key == *key) else {
                return false;
            };
            let g = self.esys.begin_op(tid);
            let e = chain.swap_remove(pos);
            self.esys
                .pdelete(&g, e.payload)
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
        assert!(m.capacity() > 4, "capacity grew: {}", m.capacity());
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
    fn recovery_rolls_resized_geometry_forward() {
        let s = sys();
        let m = MontageHashMap::<Key>::with_max_load(s.clone(), 1, 4, 2);
        let tid = s.register_thread();
        for i in 0..60 {
            m.put(tid, key(i), b"v");
        }
        m.finish_resize(tid);
        let grown = m.capacity();
        assert!(grown > 4);
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 2);
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 4, &rec);
        assert_eq!(
            m2.capacity(),
            grown,
            "synced DONE descriptor must fix the recovered capacity"
        );
        assert_eq!(m2.len(), 60);
        let tid2 = rec.esys.register_thread();
        for i in 0..60 {
            assert!(m2.get_owned(tid2, &key(i)).is_some(), "key {i} lost");
        }
        // Recovery rewrote a single clean geometry record: a second
        // crash-recover lands on the same capacity.
        rec.esys.sync();
        let rec2 = montage::recovery::recover(rec.esys.pool().crash(), EsysConfig::default(), 2);
        let m3 = MontageHashMap::<Key>::recover(rec2.esys.clone(), 1, 4, &rec2);
        assert_eq!(m3.capacity(), grown);
        assert_eq!(m3.len(), 60);
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
        m.put(tid, key(8), b"v"); // trips the trigger, installs a descriptor
        assert!(m.resizing() || m.resizes_completed() > 0);
        // Crash without syncing: the descriptor's epoch never sealed.
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let m2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 1, 4, &rec);
        assert_eq!(
            m2.capacity(),
            4,
            "unsynced descriptor must not grow the map"
        );
        assert_eq!(m2.len(), 8);
    }

    #[test]
    fn mid_resize_crash_recovers_every_synced_key() {
        // Install a resize, migrate only *some* buckets, sync, crash: the
        // recovered map must hold every synced key exactly once, at the
        // rolled-forward capacity.
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
        assert!(!m2.resizing(), "recovery must not leave a resize in flight");
        let tid2 = rec.esys.register_thread();
        for i in 0..9 {
            assert_eq!(
                m2.get_owned(tid2, &key(i)).unwrap(),
                format!("v{i}").as_bytes()
            );
        }
    }
}
