//! # kvstore — a memcached-like key-value cache
//!
//! Stand-in for the protected-library memcached variant of Kjellqvist et
//! al. used in the paper's Sec. 6.2 validation: the client links directly
//! against the cache (no sockets), the hash index and LRU bookkeeping stay
//! in DRAM, and item storage is pluggable:
//!
//! * [`KvBackend::Dram`] — fully transient ("DRAM (T)" in Fig. 10);
//! * [`KvBackend::Nvm`] — items in the NVM pool via Ralloc, index in DRAM
//!   ("effectively equivalent to the configuration of Montage (T)");
//! * [`KvBackend::Montage`] — items are Montage payloads: the cache is fully
//!   persistent and recoverable.
//!
//! This *is* a Montage structure in the paper's sense (Sec. 3, Fig. 2): a
//! transient index — per-stripe hash map, recency list, key-ordered mirror —
//! over persistent [`KV_TAG`] payloads, rebuilt by [`KvStore::recover`].
//! Every mutation (`set`, `delete`, `update`, `detected_update`) is the same
//! sequence — lock the key's stripe, open the backend's operation window,
//! optionally read and decide, apply — and each storage verb (read, create,
//! overwrite, free) meets the backend in exactly one place.
//!
//! The memcached item layout (key, flags, value) is preserved in the item
//! bytes; eviction is exact LRU per stripe. A key is hashed once per
//! operation, with the store's keyed hasher: the same 64 bits pick the
//! stripe and the bucket inside it.

pub mod protocol;
pub mod router;
pub mod session_table;
pub mod sharded;

pub use router::ShardRouter;
pub use session_table::{
    DetectOutcome, DetectStats, DetectedWrite, DESC_BYTES, RESULT_MAX, SESSION_TAG,
};
pub use sharded::{
    ShardRecovery, ShardedKvStore, StoreBatch, StoreError, StoreLease, StoreRecoveryReport,
};

use session_table::{SessionRecord, SessionTable};

use montage::sync::uninstrumented::{AtomicUsize, Ordering};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use montage::{EpochSys, OpGuard, PHandle, RecoveredState, ThreadId};
use parking_lot::Mutex;
use pmem::POff;
use ralloc::Ralloc;

/// 32-byte padded keys, as in the paper's benchmarks.
pub type Key = [u8; 32];

/// Payload tag used for Montage-backed items.
pub const KV_TAG: u16 = 6;

/// Montage item layout: key bytes then value bytes.
const KEY_BYTES: usize = 32;

/// Item storage backend.
#[derive(Clone)]
pub enum KvBackend {
    Dram,
    Nvm(Arc<Ralloc>),
    Montage(Arc<EpochSys>),
}

enum ItemRef {
    Dram(Box<[u8]>),
    Nvm(POff, u32),
    Montage(PHandle<[u8]>),
}

/// An [`ItemRef`] only ever meets the backend that created it.
fn mismatch() -> ! {
    unreachable!("item/backend mismatch")
}

fn nvm_alloc(r: &Ralloc, value: &[u8]) -> (POff, u32) {
    let off = r.alloc(value.len().max(1));
    r.pool().write_bytes(off, value);
    (off, value.len() as u32)
}

impl KvBackend {
    /// Opens the window one mutation runs in. On Montage that is `begin_op`:
    /// every payload write inside it — and the session descriptor — carries
    /// one epoch. Transient backends have nothing to open.
    fn open(&self, tid: usize) -> Window<'_> {
        match self {
            KvBackend::Dram => Window::Dram,
            KvBackend::Nvm(r) => Window::Nvm(r),
            KvBackend::Montage(esys) => Window::Montage(esys, esys.begin_op(ThreadId(tid))),
        }
    }

    /// The read verb: applies `f` to the item's value bytes where they lie.
    fn read<R>(&self, item: &ItemRef, f: impl FnOnce(&[u8]) -> R) -> R {
        match (self, item) {
            (_, ItemRef::Dram(b)) => f(b),
            (KvBackend::Nvm(r), ItemRef::Nvm(off, len)) => {
                r.pool().media_read(*len as usize);
                // SAFETY: the ItemRef came from this arena's own append, so the
                // extent is in bounds and initialized; the stripe lock keeps
                // writers off it.
                f(unsafe { r.pool().bytes(*off, *len as usize) })
            }
            (KvBackend::Montage(esys), ItemRef::Montage(h)) => esys.peek_bytes_unsafe(*h, |b| {
                esys.pool().media_read(b.len());
                f(&b[KEY_BYTES..])
            }),
            _ => mismatch(),
        }
    }
}

/// An open mutation window ([`KvBackend::open`]): the write verbs of the
/// backend ladder — create, overwrite, free — and the session descriptor
/// that must share the window's epoch.
enum Window<'a> {
    Dram,
    Nvm(&'a Ralloc),
    Montage(&'a EpochSys, OpGuard<'a>),
}

impl Window<'_> {
    fn create(&self, key: &Key, value: &[u8]) -> ItemRef {
        match self {
            Window::Dram => ItemRef::Dram(value.into()),
            Window::Nvm(r) => {
                let (off, len) = nvm_alloc(r, value);
                ItemRef::Nvm(off, len)
            }
            Window::Montage(esys, g) => ItemRef::Montage(esys.pnew_parts(g, KV_TAG, key, value)),
        }
    }

    /// Replaces the item's value, in place where the backend supports it.
    fn overwrite(&self, item: &mut ItemRef, value: &[u8]) {
        match (self, item) {
            (_, ItemRef::Dram(b)) if b.len() == value.len() => b.copy_from_slice(value),
            (_, ItemRef::Dram(b)) => *b = value.into(),
            (Window::Nvm(r), ItemRef::Nvm(off, len)) if *len as usize == value.len() => {
                r.pool().write_bytes(*off, value);
            }
            (Window::Nvm(r), ItemRef::Nvm(off, len)) => {
                r.dealloc(*off);
                (*off, *len) = nvm_alloc(r, value);
            }
            (Window::Montage(esys, g), ItemRef::Montage(h)) => {
                // A resized value keeps the item's uid: no crash cut
                // recovers the key twice.
                *h = esys
                    .overwrite_tail(g, *h, KEY_BYTES, value)
                    .expect("stripe lock orders epochs");
            }
            _ => mismatch(),
        }
    }

    fn free(&self, item: ItemRef) {
        match (self, item) {
            (_, ItemRef::Dram(_)) => {}
            (Window::Nvm(r), ItemRef::Nvm(off, _)) => r.dealloc(off),
            (Window::Montage(esys, g), ItemRef::Montage(h)) => {
                let _ = esys.pdelete(g, h);
            }
            _ => mismatch(),
        }
    }

    /// Writes a session descriptor inside this window, over the session's
    /// previous one if it has one. Transient backends dedupe in DRAM only:
    /// there is no crash to survive, so nothing is persisted.
    fn describe(
        &self,
        prev: Option<PHandle<[u8]>>,
        sid: u64,
        rid: u64,
        op_kind: u8,
        result: &[u8],
    ) -> Option<PHandle<[u8]>> {
        let Window::Montage(esys, g) = self else {
            return None;
        };
        let desc = session_table::encode_descriptor(sid, rid, op_kind, result);
        Some(match prev {
            // Fixed-size descriptor: always a same-length overwrite, so uid
            // cancellation keeps exactly one durable version.
            Some(h) => esys
                .set_bytes(g, h, |b| b.copy_from_slice(&desc))
                .expect("session slot lock orders epochs"),
            None => esys.pnew_bytes(g, SESSION_TAG, &desc),
        })
    }
}

/// A key and its hash under the store's keyed hasher, computed once per
/// operation ([`KvStore::locate`]). The high half of the hash picks the
/// stripe; the stripe's map takes the whole of it through [`PreHashed`].
#[derive(Clone, Copy, PartialEq, Eq)]
struct HashedKey {
    hash: u64,
    key: Key,
}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The stripe maps' hasher: hands back the `u64` a [`HashedKey`] wrote. The
/// protection against crafted keys is the keyed hash that produced it.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("stripe maps are keyed by HashedKey only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One node of the recency list: 40 bytes per resident key.
struct LruNode {
    key: Key,
    /// Towards the oldest.
    prev: u32,
    /// Towards the newest; on the free list, the next free slot.
    next: u32,
}

/// A stripe's recency order, exact LRU: an intrusive doubly-linked list
/// over a slab, so a touch is unlink + push-newest — O(1), no allocation.
/// Slot 0 is the sentinel closing the ring (`next` of it is the oldest key,
/// `prev` of it the newest); removed slots are chained through `next` from
/// `free` and reused before the slab grows. Replacing the policy (CLOCK, a
/// shared-lock `get`) is a change to this type alone.
struct Lru {
    nodes: Vec<LruNode>,
    /// Head of the free-slot chain; 0 (the sentinel, never free) ends it.
    free: u32,
}

impl Lru {
    fn new() -> Self {
        let sentinel = LruNode {
            key: [0; KEY_BYTES],
            prev: 0,
            next: 0,
        };
        Lru {
            nodes: vec![sentinel],
            free: 0,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let LruNode { prev, next, .. } = self.nodes[slot as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    fn link_newest(&mut self, slot: u32) {
        let newest = std::mem::replace(&mut self.nodes[0].prev, slot);
        self.nodes[newest as usize].next = slot;
        self.nodes[slot as usize].prev = newest;
        self.nodes[slot as usize].next = 0;
    }

    /// Admits `key` as the most recently used; returns its slot.
    fn push_newest(&mut self, key: Key) -> u32 {
        let slot = match self.free {
            0 => {
                let slot = u32::try_from(self.nodes.len()).expect("stripe holds < 2^32 keys");
                self.nodes.push(LruNode {
                    key,
                    prev: 0,
                    next: 0,
                });
                slot
            }
            slot => {
                self.free = self.nodes[slot as usize].next;
                self.nodes[slot as usize].key = key;
                slot
            }
        };
        self.link_newest(slot);
        slot
    }

    /// Marks a live slot most recently used.
    fn touch(&mut self, slot: u32) {
        self.unlink(slot);
        self.link_newest(slot);
    }

    /// Retires a live slot to the free chain.
    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        self.nodes[slot as usize].next = self.free;
        self.free = slot;
    }

    /// The least recently used key — the eviction victim.
    fn oldest(&self) -> Option<Key> {
        match self.nodes[0].next {
            0 => None,
            slot => Some(self.nodes[slot as usize].key),
        }
    }
}

/// One lock stripe of the transient index.
struct Stripe {
    /// Item and recency-list slot per key.
    map: HashMap<HashedKey, (ItemRef, u32), BuildHasherDefault<PreHashed>>,
    lru: Lru,
    /// Key-ordered mirror of `map`'s key set, maintained at every insert
    /// and removal — what gives `scan` its per-stripe ordered walk without
    /// sorting under the lock.
    ordered: BTreeSet<Key>,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            map: HashMap::default(),
            lru: Lru::new(),
            ordered: BTreeSet::new(),
        }
    }

    /// Indexes a key the stripe does not hold, as its most recently used.
    fn insert(&mut self, at: HashedKey, item: ItemRef) {
        let slot = self.lru.push_newest(at.key);
        self.map.insert(at, (item, slot));
        self.ordered.insert(at.key);
    }

    fn remove(&mut self, at: &HashedKey) -> Option<ItemRef> {
        let (item, slot) = self.map.remove(at)?;
        self.lru.remove(slot);
        self.ordered.remove(&at.key);
        Some(item)
    }

    /// Indexes an empty stripe's recovered items in one go, first to last as
    /// oldest to newest: map and recency list sized once, the mirror
    /// bulk-built from the keys at once instead of a random insert per key.
    fn fill(&mut self, items: Vec<(HashedKey, ItemRef)>) {
        debug_assert!(self.map.is_empty(), "fill replaces the mirror");
        let n = items.len();
        self.map.reserve(n);
        self.lru.nodes.reserve(n);
        for (at, item) in items {
            let slot = self.lru.push_newest(at.key);
            self.map.insert(at, (item, slot));
        }
        // The slab now holds every key once; collecting sorts and dedups.
        self.ordered = self.lru.nodes[1..].iter().map(|node| node.key).collect();
        debug_assert_eq!(
            self.ordered.len(),
            n,
            "two live payloads recovered for one key"
        );
    }

    /// Marks the key most recently used and hands back its item.
    fn touch(&mut self, at: &HashedKey) -> Option<&mut ItemRef> {
        let (item, slot) = self.map.get_mut(at)?;
        self.lru.touch(*slot);
        Some(item)
    }
}

/// The cache. `capacity` bounds items per stripe (memcached's memory cap).
pub struct KvStore {
    backend: KvBackend,
    /// Keyed per store instance (SipHash under a random key): a remote
    /// client cannot aim its keys at one stripe's lock and eviction budget.
    hasher: RandomState,
    stripes: Box<[Mutex<Stripe>]>,
    capacity_per_stripe: usize,
    evictions: AtomicUsize,
    /// Detectable-operations state: one durable descriptor per session (see
    /// [`session_table`]). Descriptors live in this store's pool, so in a
    /// sharded deployment each session's descriptor sits in the shard of the
    /// key it last mutated there — fault containment matches the data's.
    sessions: SessionTable,
}

impl KvStore {
    pub fn new(backend: KvBackend, stripes: usize, capacity: usize) -> Self {
        assert!(stripes > 0);
        KvStore {
            backend,
            hasher: RandomState::new(),
            capacity_per_stripe: (capacity / stripes).max(1),
            stripes: (0..stripes).map(|_| Mutex::new(Stripe::new())).collect(),
            evictions: AtomicUsize::new(0),
            sessions: SessionTable::default(),
        }
    }

    /// Rebuilds a Montage-backed cache after a crash. KV payloads rebuild
    /// the index; session descriptors rebuild the detectable-operations
    /// table, marked `recovered` so replays from them count as acks carried
    /// across the crash.
    pub fn recover(
        esys: Arc<EpochSys>,
        stripes: usize,
        capacity: usize,
        rec: &RecoveredState,
    ) -> Self {
        let store = Self::new(KvBackend::Montage(esys), stripes, capacity);
        // Survivors arrive in address order: the key reads walk the image
        // front to back, and each stripe is then filled under one lock.
        let mut by_stripe: Vec<Vec<(HashedKey, ItemRef)>> =
            (0..stripes).map(|_| Vec::new()).collect();
        for item in rec.shards.iter().flatten() {
            match item.tag {
                KV_TAG => {
                    let key: Key = rec.with_bytes(item, |b| b[..KEY_BYTES].try_into().unwrap());
                    let at = store.hashed(&key);
                    by_stripe[store.stripe_of(&at)].push((at, ItemRef::Montage(item.handle())));
                }
                SESSION_TAG => {
                    let Some((sid, rid, op_kind, result)) =
                        rec.with_bytes(item, session_table::decode_descriptor)
                    else {
                        continue; // malformed descriptors are dropped, not trusted
                    };
                    *store.sessions.slot(sid).lock() = Some(SessionRecord {
                        rid,
                        op_kind,
                        result,
                        handle: Some(item.handle()),
                        recovered: true,
                    });
                }
                _ => {}
            }
        }
        for (stripe, items) in store.stripes.iter().zip(by_stripe) {
            stripe.lock().fill(items);
        }
        store
    }

    /// Registers the calling worker; returns the id to pass to operations.
    /// Panics when the Montage thread table is fully leased.
    pub fn register_thread(&self) -> usize {
        self.try_register_thread()
            .expect("more than max_threads threads registered")
    }

    /// Fallible worker registration for connection-oriented front-ends:
    /// `None` means the Montage thread table is fully leased (the caller
    /// should reject the session rather than panic). Transient backends have
    /// no per-thread state, so registration always succeeds with id 0.
    pub fn try_register_thread(&self) -> Option<usize> {
        match &self.backend {
            KvBackend::Montage(esys) => esys.try_register_thread().map(|t| t.0),
            _ => Some(0),
        }
    }

    /// Returns a worker id leased via [`KvStore::try_register_thread`] (or
    /// [`KvStore::register_thread`]) so a later session can reuse it.
    pub fn unregister_thread(&self, tid: usize) {
        if let KvBackend::Montage(esys) = &self.backend {
            esys.unregister_thread(ThreadId(tid));
        }
    }

    /// The epoch system backing a [`KvBackend::Montage`] store, if any —
    /// where a serving layer reaches `sync()` for client-visible durability.
    pub fn esys(&self) -> Option<&Arc<EpochSys>> {
        match &self.backend {
            KvBackend::Montage(esys) => Some(esys),
            _ => None,
        }
    }

    /// Reports an injected crash on the backing pool, if any — serving
    /// layers use this to refuse mutations instead of panicking once a
    /// fault plan has tripped. Transient backends never fault.
    pub fn fault(&self) -> Option<pmem::PmemFault> {
        match &self.backend {
            KvBackend::Montage(esys) => esys.pool().fault(),
            KvBackend::Nvm(r) => r.pool().fault(),
            KvBackend::Dram => None,
        }
    }

    /// Persistence counters of the backing pool (`None` for DRAM stores) —
    /// the server's `stats` command reports these over the wire.
    pub fn pool_stats(&self) -> Option<pmem::StatsSnapshot> {
        match &self.backend {
            KvBackend::Montage(esys) => Some(esys.pool().stats().snapshot()),
            KvBackend::Nvm(r) => Some(r.pool().stats().snapshot()),
            KvBackend::Dram => None,
        }
    }

    fn hashed(&self, key: &Key) -> HashedKey {
        HashedKey {
            hash: self.hasher.hash_one(key),
            key: *key,
        }
    }

    /// Hashes `key` — the one hash of an operation — and picks its stripe
    /// from the hash's high half; the stripe's map indexes by the low bits
    /// and tags by the top seven, so the stripe choice skews neither.
    fn locate(&self, key: &Key) -> (HashedKey, &Mutex<Stripe>) {
        let at = self.hashed(key);
        (at, &self.stripes[self.stripe_of(&at)])
    }

    fn stripe_of(&self, at: &HashedKey) -> usize {
        (at.hash >> 32) as usize % self.stripes.len()
    }

    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// DRAM held by the per-stripe ordered mirrors: every key the
    /// `BTreeSet`s index, costed at the key bytes plus two words of
    /// amortized B-tree node bookkeeping (leaves hold 5..=11 keys, so edge
    /// pointers and lengths stay under 16 bytes per key even at worst-case
    /// fill). An estimate by design — the 32-byte keys dominate — but it
    /// moves with occupancy, which is what capacity planning needs.
    pub fn ordered_mirror_bytes(&self) -> usize {
        const PER_KEY: usize = std::mem::size_of::<Key>() + 2 * std::mem::size_of::<usize>();
        self.stripes
            .iter()
            .map(|s| s.lock().ordered.len() * PER_KEY)
            .sum()
    }

    /// memcached `get`: applies `f` to the value bytes on hit.
    pub fn get<R>(&self, key: &Key, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let (at, stripe) = self.locate(key);
        let mut stripe = stripe.lock();
        let item = stripe.touch(&at)?;
        Some(self.backend.read(item, f))
    }

    /// Ordered inclusive range scan: every stripe is walked under its lock
    /// (a per-stripe atomic snapshot — no torn view of any single stripe),
    /// then the per-stripe runs are merged into one sorted result capped at
    /// `limit`. Each run is already sorted, so only its first `limit` keys
    /// can reach the result and only those values are copied. Scans are
    /// reads: they do not touch the LRU and never persist anything.
    pub fn scan(&self, lo: &Key, hi: &Key, limit: usize) -> Vec<(Key, Vec<u8>)> {
        if lo > hi || limit == 0 {
            return Vec::new();
        }
        let mut out: Vec<(Key, Vec<u8>)> = Vec::new();
        for stripe in self.stripes.iter() {
            let stripe = stripe.lock();
            for key in stripe.ordered.range(*lo..=*hi).take(limit) {
                let (item, _) = stripe
                    .map
                    .get(&self.hashed(key))
                    .expect("ordered mirrors map");
                out.push((*key, self.backend.read(item, <[u8]>::to_vec)));
            }
        }
        out.sort_by_key(|e| e.0);
        out.truncate(limit);
        out
    }

    /// memcached `set`: insert or overwrite. Blind — the old value is never
    /// read (on NVM that read is a charged media access).
    pub fn set(&self, tid: usize, key: Key, value: &[u8]) {
        let (at, stripe) = self.locate(&key);
        let mut stripe = stripe.lock();
        self.upsert(&mut stripe, &self.backend.open(tid), &at, value);
    }

    /// memcached `delete`.
    pub fn delete(&self, tid: usize, key: &Key) -> bool {
        let (at, stripe) = self.locate(key);
        let mut stripe = stripe.lock();
        self.remove(&mut stripe, &self.backend.open(tid), &at)
    }

    /// An atomic read-modify-write: runs `decide` on the key's current
    /// value and applies its verdict while **holding the stripe lock across
    /// both**, so two racing mutations of one key serialize — the second
    /// decides against the first's result. This is what makes the
    /// sessionless protocol path's conditional ops (`cas`/`add`/`incr`)
    /// atomic: without the held lock, two connections on different workers
    /// interleave get→decide→set and lose updates. Returns `decide`'s
    /// reply bytes.
    ///
    /// Always reads, as the wire's `add`, `replace`, `cas`, `incr`, `decr`,
    /// `touch` and `delete` must; its plain `set` runs the same path blind.
    pub fn update(
        &self,
        tid: usize,
        key: &Key,
        decide: impl FnOnce(Option<&[u8]>) -> (DetectedWrite, Vec<u8>),
    ) -> Vec<u8> {
        match self.mutate(tid, None, key, false, decide) {
            DetectOutcome::Applied(reply) => reply,
            _ => unreachable!("without a session there is nothing to replay"),
        }
    }

    /// A detectable mutation: routes `(sid, rid)` through the session table,
    /// and if the request id is new, runs `decide` on the key's current
    /// value and applies its verdict **and** the session's descriptor update
    /// inside a single `BEGIN_OP` window.
    ///
    /// That single window is the whole correctness argument: the epoch clock
    /// cannot advance past an open operation, so the mutation and the
    /// descriptor recording its result are labelled with the same epoch and
    /// reach the persistence domain under the same boundary fence — a
    /// recovered image either has both (replay answers from the descriptor)
    /// or neither (the retry re-applies). No extra fence is issued: the
    /// descriptor rides whatever sync policy the caller already runs.
    ///
    /// If `rid` matches the session's last recorded request, `decide` is
    /// **not** run; the recorded result is returned as
    /// [`DetectOutcome::Replayed`]. A `rid` below the recorded one is
    /// refused as [`DetectOutcome::Stale`] — its result was already
    /// consumed and then overwritten.
    ///
    /// Transient backends (DRAM/NVM) run the same dedupe protocol in DRAM
    /// only: there is no crash to survive, so nothing is persisted.
    pub fn detected_update(
        &self,
        tid: usize,
        sid: u64,
        rid: u64,
        op_kind: u8,
        key: &Key,
        decide: impl FnOnce(Option<&[u8]>) -> (DetectedWrite, Vec<u8>),
    ) -> DetectOutcome {
        self.mutate(tid, Some((sid, rid, op_kind)), key, false, decide)
    }

    /// The one path under [`KvStore::update`] (`session` = `None`),
    /// [`KvStore::detected_update`] (`(sid, rid, op_kind)`) and the wire
    /// protocol. `blind`: the decision ignores the key's current item, so
    /// `decide` gets `None` and the item is never read — on NVM a charged
    /// dereference and a media read of every line about to be overwritten.
    pub(crate) fn mutate(
        &self,
        tid: usize,
        session: Option<(u64, u64, u8)>,
        key: &Key,
        blind: bool,
        decide: impl FnOnce(Option<&[u8]>) -> (DetectedWrite, Vec<u8>),
    ) -> DetectOutcome {
        // Serialization is per session, not per store: the table-wide lock
        // is held only long enough to fetch the session's slot, then two
        // racing retries of the same request serialize on the slot (the
        // loser answered from the winner's descriptor) while unrelated
        // sessions run concurrently — contending, at most, on the mutated
        // key's stripe lock like any other mutation.
        let slot = session.map(|(sid, ..)| self.sessions.slot(sid));
        let mut entry = slot.as_ref().map(|slot| slot.lock());
        if let (Some((_, rid, _)), Some(Some(rec))) = (session, entry.as_deref()) {
            if rid == rec.rid {
                self.sessions.dedupe_hits.fetch_add(1, Ordering::Relaxed);
                if rec.recovered {
                    self.sessions.replayed_acks.fetch_add(1, Ordering::Relaxed);
                }
                return DetectOutcome::Replayed(rec.result.clone());
            }
            if rid < rec.rid {
                return DetectOutcome::Stale { last_rid: rec.rid };
            }
        }
        let (at, stripe) = self.locate(key);
        let mut stripe = stripe.lock();
        let window = self.backend.open(tid);
        let (write, reply) = match stripe.map.get(&at) {
            Some((item, _)) if !blind => self.backend.read(item, |b| decide(Some(b))),
            _ => decide(None),
        };
        match write {
            DetectedWrite::Keep => {}
            DetectedWrite::Delete => {
                self.remove(&mut stripe, &window, &at);
            }
            DetectedWrite::Upsert(value) => self.upsert(&mut stripe, &window, &at, &value),
        }
        if let (Some((sid, rid, op_kind)), Some(entry)) = (session, entry.as_mut()) {
            let prev = entry.as_ref().and_then(|r| r.handle);
            let handle = window.describe(prev, sid, rid, op_kind, &reply);
            **entry = Some(SessionRecord {
                rid,
                op_kind,
                result: reply.clone(),
                handle,
                recovered: false,
            });
        }
        DetectOutcome::Applied(reply)
    }

    /// Overwrites the key's item, or creates it — evicting the stripe's
    /// least recently used items first until there is room: one in steady
    /// state, more only when recovery re-striped (the hasher is keyed per
    /// store instance) more items into the stripe than its cap.
    fn upsert(&self, stripe: &mut Stripe, window: &Window<'_>, at: &HashedKey, value: &[u8]) {
        if let Some(item) = stripe.touch(at) {
            return window.overwrite(item, value);
        }
        while stripe.map.len() >= self.capacity_per_stripe {
            let victim = stripe
                .lru
                .oldest()
                .expect("a full stripe has an oldest key");
            // The victim is another key: its own hash, on this path only.
            self.remove(stripe, window, &self.hashed(&victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        stripe.insert(*at, window.create(&at.key, value));
    }

    fn remove(&self, stripe: &mut Stripe, window: &Window<'_>, at: &HashedKey) -> bool {
        stripe.remove(at).map(|item| window.free(item)).is_some()
    }

    /// Exactly-once counters and table occupancy for this store.
    pub fn detect_stats(&self) -> DetectStats {
        self.sessions.stats()
    }

    /// The session's recorded `(rid, op_kind, result)`, if it has a
    /// descriptor here — what a recovery test compares against the
    /// recovered key state.
    pub fn session_descriptor(&self, sid: u64) -> Option<(u64, u8, Vec<u8>)> {
        let slot = self.sessions.entries.lock().get(&sid).cloned()?;
        let entry = slot.lock();
        entry.as_ref().map(|r| (r.rid, r.op_kind, r.result.clone()))
    }
}

/// Builds the padded key for record `i` (as in the paper's workloads).
pub fn make_key(i: u64) -> Key {
    let mut k = [0u8; 32];
    let s = i.to_string();
    k[..s.len()].copy_from_slice(s.as_bytes());
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use montage::EsysConfig;
    use pmem::{PmemConfig, PmemPool};

    fn backends() -> Vec<KvBackend> {
        let pool = PmemPool::new(PmemConfig::default());
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        );
        vec![
            KvBackend::Dram,
            KvBackend::Nvm(Ralloc::format(pool)),
            KvBackend::Montage(esys),
        ]
    }

    #[test]
    fn get_set_delete_all_backends() {
        for backend in backends() {
            let kv = KvStore::new(backend, 4, 1000);
            let tid = kv.register_thread();
            kv.set(tid, make_key(1), b"hello");
            assert_eq!(kv.get(&make_key(1), |v| v.to_vec()).unwrap(), b"hello");
            kv.set(tid, make_key(1), b"world");
            assert_eq!(kv.get(&make_key(1), |v| v.to_vec()).unwrap(), b"world");
            assert!(kv.delete(tid, &make_key(1)));
            assert!(kv.get(&make_key(1), |_| ()).is_none());
            assert!(!kv.delete(tid, &make_key(1)));
        }
    }

    #[test]
    fn value_resize_works_all_backends() {
        for backend in backends() {
            let kv = KvStore::new(backend, 2, 100);
            let tid = kv.register_thread();
            kv.set(tid, make_key(9), b"short");
            kv.set(tid, make_key(9), &vec![7u8; 500]);
            assert_eq!(kv.get(&make_key(9), |v| v.len()).unwrap(), 500);
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let kv = KvStore::new(KvBackend::Dram, 1, 3);
        let tid = 0;
        kv.set(tid, make_key(1), b"a");
        kv.set(tid, make_key(2), b"b");
        kv.set(tid, make_key(3), b"c");
        kv.get(&make_key(1), |_| ()); // touch 1 → 2 is now LRU
        kv.set(tid, make_key(4), b"d");
        assert_eq!(kv.evictions(), 1);
        assert!(kv.get(&make_key(2), |_| ()).is_none(), "LRU victim is 2");
        assert!(kv.get(&make_key(1), |_| ()).is_some());
    }

    /// The list's keys, oldest first, by walking the ring.
    fn lru_order(lru: &Lru) -> Vec<Key> {
        let mut order = vec![];
        let mut slot = lru.nodes[0].next;
        while slot != 0 {
            order.push(lru.nodes[slot as usize].key);
            slot = lru.nodes[slot as usize].next;
        }
        order
    }

    #[test]
    fn recency_list_matches_a_deque_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::VecDeque;

        const KEYS: u64 = 6;
        let mut rng = SmallRng::seed_from_u64(0x1a5);
        let mut lru = Lru::new();
        let mut model: VecDeque<Key> = VecDeque::new(); // front = oldest
        let mut slots: HashMap<Key, u32> = HashMap::new();
        // Cases the walk must reach: touch of the oldest, the newest and a
        // middle key, touch and removal in a one-key list, removal of the
        // victim, and a freed slot handed out again.
        let mut seen = [false; 7];
        for step in 0..5_000 {
            let key = make_key(rng.gen_range(0..KEYS));
            let at = model.iter().position(|k| *k == key);
            match (rng.gen_range(0..4u32), at) {
                (0..=1, None) => {
                    let high_water = lru.nodes.len();
                    let slot = lru.push_newest(key);
                    assert!(
                        !slots.values().any(|s| *s == slot) && slot != 0,
                        "step {step}: live slot {slot} handed out again"
                    );
                    seen[6] |= (slot as usize) < high_water;
                    slots.insert(key, slot);
                    model.push_back(key);
                }
                (0..=1, Some(i)) => {
                    seen[0] |= i == 0 && model.len() > 1;
                    seen[1] |= i == model.len() - 1 && model.len() > 1;
                    seen[2] |= i > 0 && i < model.len() - 1;
                    seen[3] |= model.len() == 1;
                    lru.touch(slots[&key]);
                    model.remove(i);
                    model.push_back(key);
                }
                (2, Some(i)) => {
                    seen[4] |= i == 0;
                    seen[5] |= model.len() == 1;
                    lru.remove(slots.remove(&key).unwrap());
                    model.remove(i);
                }
                _ => {}
            }
            assert_eq!(lru.oldest(), model.front().copied(), "step {step}");
            assert_eq!(lru_order(&lru), Vec::from(model.clone()), "step {step}");
        }
        assert_eq!(seen, [true; 7], "the sequence missed a case");
        assert!(
            lru.nodes.len() <= KEYS as usize + 1,
            "the slab outgrew its live set: freed slots were not reused"
        );
    }

    #[test]
    fn update_applies_decision_atomically_all_backends() {
        for backend in backends() {
            let kv = Arc::new(KvStore::new(backend, 4, 1000));
            let tid = kv.register_thread();
            kv.set(tid, make_key(1), b"0");
            let mut handles = vec![];
            for _ in 0..4 {
                let kv = kv.clone();
                handles.push(std::thread::spawn(move || {
                    let tid = kv.register_thread();
                    for _ in 0..100 {
                        let reply = kv.update(tid, &make_key(1), |cur| {
                            let v: u64 =
                                std::str::from_utf8(cur.unwrap()).unwrap().parse().unwrap();
                            let next = (v + 1).to_string();
                            (
                                DetectedWrite::Upsert(next.clone().into_bytes()),
                                next.into_bytes(),
                            )
                        });
                        assert!(!reply.is_empty());
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                kv.get(&make_key(1), |v| v.to_vec()).unwrap(),
                b"400",
                "racing read-modify-writes must not lose updates"
            );
            // Keep leaves the value alone, Delete removes it.
            let r = kv.update(tid, &make_key(1), |_| {
                (DetectedWrite::Keep, b"kept".to_vec())
            });
            assert_eq!(r, b"kept");
            kv.update(tid, &make_key(1), |_| (DetectedWrite::Delete, vec![]));
            assert!(kv.get(&make_key(1), |_| ()).is_none());
        }
    }

    #[test]
    fn detected_sessions_race_without_store_wide_serialization() {
        // Distinct sessions mutating distinct keys only contend on shard
        // locks; racing them end-to-end still yields per-session exactly-once
        // counts and one descriptor each.
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        );
        let kv = Arc::new(KvStore::new(KvBackend::Montage(esys), 4, 1000));
        let mut handles = vec![];
        for sid in 0..4u64 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                let tid = kv.register_thread();
                let key = make_key(sid);
                for rid in 1..=50u64 {
                    let out = kv.detected_update(tid, sid, rid, 7, &key, |cur| {
                        let v: u64 = cur
                            .map(|b| std::str::from_utf8(b).unwrap().parse().unwrap())
                            .unwrap_or(0);
                        let next = (v + 1).to_string().into_bytes();
                        (DetectedWrite::Upsert(next.clone()), next)
                    });
                    // A fresh rid always applies; a blind retry replays.
                    assert!(matches!(out, DetectOutcome::Applied(_)));
                    let retry = kv.detected_update(tid, sid, rid, 7, &key, |_| {
                        panic!("retry must not re-run the decision")
                    });
                    assert!(matches!(retry, DetectOutcome::Replayed(_)));
                }
                kv.unregister_thread(tid);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for sid in 0..4u64 {
            assert_eq!(
                kv.get(&make_key(sid), |v| v.to_vec()).unwrap(),
                b"50",
                "session {sid} lost updates"
            );
            assert_eq!(kv.session_descriptor(sid).unwrap().0, 50);
        }
        let stats = kv.detect_stats();
        assert_eq!(stats.descriptors, 4);
        assert_eq!(stats.dedupe_hits, 200);
    }

    #[test]
    fn montage_backend_recovers_after_crash() {
        let (esys, kv) = montage_store(4, 1000);
        let tid = kv.register_thread();
        for i in 0..50 {
            kv.set(tid, make_key(i), format!("v{i}").as_bytes());
        }
        kv.delete(tid, &make_key(7));
        kv.set(tid, make_key(8), b"updated");
        esys.sync();
        let kv2 = recover_copy(&esys, 4, 1000);
        assert_eq!(kv2.len(), 49);
        assert!(kv2.get(&make_key(7), |_| ()).is_none());
        assert_eq!(kv2.get(&make_key(8), |v| v.to_vec()).unwrap(), b"updated");
        assert_eq!(kv2.get(&make_key(33), |v| v.to_vec()).unwrap(), b"v33");
    }

    fn montage_store(stripes: usize, capacity: usize) -> (Arc<EpochSys>, KvStore) {
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(16 << 20)),
            EsysConfig::default(),
        );
        let kv = KvStore::new(KvBackend::Montage(esys.clone()), stripes, capacity);
        (esys, kv)
    }

    fn recover_copy(esys: &EpochSys, stripes: usize, capacity: usize) -> KvStore {
        let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 2);
        KvStore::recover(rec.esys.clone(), stripes, capacity, &rec)
    }

    #[test]
    fn recovered_store_drains_back_under_its_capacity() {
        const STRIPES: usize = 8;
        const CAPACITY: usize = STRIPES * 24;
        let (esys, kv) = montage_store(STRIPES, CAPACITY);
        let tid = kv.register_thread();
        for i in 0..4 * CAPACITY as u64 {
            kv.set(tid, make_key(i), b"old"); // every stripe full, and evicting
        }
        assert_eq!(kv.len(), CAPACITY);
        esys.sync();
        // The recovered store hashes under a fresh key: the same items land
        // on other stripes, some of them over their cap.
        let kv2 = recover_copy(&esys, STRIPES, CAPACITY);
        assert_eq!(kv2.len(), CAPACITY);
        let fullest = |kv: &KvStore| kv.stripes.iter().map(|s| s.lock().map.len()).max();
        assert!(fullest(&kv2) > Some(24), "re-striping is what this tests");
        let tid = kv2.register_thread();
        for i in 0..CAPACITY as u64 {
            kv2.set(tid, make_key(1_000_000 + i), b"new");
        }
        assert!(fullest(&kv2) <= Some(24), "a stripe stayed over its cap");
        assert!(kv2.len() <= CAPACITY);
    }

    #[test]
    fn recovered_recency_order_is_a_function_of_the_image() {
        const CAPACITY: usize = 64;
        let (esys, kv) = montage_store(4, 4096); // roomy: nothing evicts here
        let tid = kv.register_thread();
        for i in 0..48 {
            kv.set(tid, make_key(i), b"v");
        }
        for i in (0..48).step_by(5) {
            kv.delete(tid, &make_key(i));
            kv.set(tid, make_key(100 + i), &[7u8; 200]);
        }
        esys.sync();
        // One stripe: where a key lands is then no question of the hasher's
        // key, and the recency list is the whole eviction order.
        let (a, b) = (
            recover_copy(&esys, 1, CAPACITY),
            recover_copy(&esys, 1, CAPACITY),
        );
        let order = |kv: &KvStore| lru_order(&kv.stripes[0].lock().lru);
        assert_eq!(order(&a), order(&b), "two copies of one image");
        assert_eq!(order(&a).len(), 48);
        let (ta, tb) = (a.register_thread(), b.register_thread());
        for i in 0..40 {
            // Same follow-up inserts, same victims in the same order.
            assert_eq!(
                a.stripes[0].lock().lru.oldest(),
                b.stripes[0].lock().lru.oldest()
            );
            a.set(ta, make_key(500 + i), b"w");
            b.set(tb, make_key(500 + i), b"w");
        }
        assert_eq!((a.evictions(), b.evictions()), (24, 24));
        assert_eq!(order(&a), order(&b));
    }

    /// One payload per key is what rebuild relies on (a second one would
    /// overwrite the first's map entry and strand its recency node); PR 15's
    /// double recovery broke it. `debug_assert`: debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "two live payloads recovered for one key")]
    fn two_live_payloads_for_one_key_trip_the_stripe_fill() {
        let (esys, _kv) = montage_store(2, 100);
        let tid = esys.register_thread();
        for value in [b"one", b"two"] {
            let g = esys.begin_op(tid);
            esys.pnew_parts(&g, KV_TAG, &make_key(1), value);
        }
        esys.sync();
        recover_copy(&esys, 2, 100);
    }

    #[test]
    fn concurrent_ycsb_like_traffic() {
        let kv = Arc::new(KvStore::new(KvBackend::Dram, 8, 100_000));
        for i in 0..1000 {
            kv.set(0, make_key(i), &[0u8; 64]);
        }
        let mut handles = vec![];
        for t in 0..4u64 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                let mut hits = 0;
                for i in 0..5000u64 {
                    let k = make_key((i * 7 + t * 13) % 1000);
                    if i % 2 == 0 {
                        if kv.get(&k, |_| ()).is_some() {
                            hits += 1;
                        }
                    } else {
                        kv.set(0, k, &[1u8; 64]);
                    }
                }
                hits
            }));
        }
        let hits: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(hits > 0);
        assert_eq!(kv.len(), 1000);
    }
}
