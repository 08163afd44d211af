//! Sharded multi-pool store: N independent [`KvStore`]s, each over its own
//! pmem pool, ralloc arena, and epoch system, behind a deterministic
//! key→shard router.
//!
//! Montage's buffered durable linearizability is a per-structure guarantee:
//! nothing in the paper's model requires two unrelated structures to share
//! an epoch clock. Sharding exploits that — each shard advances, syncs,
//! recovers, and *crashes* independently. A fault that poisons one shard's
//! pool degrades that shard's keys to errors while the others keep serving,
//! and recovery runs one thread per shard with the per-shard
//! [`montage::RecoveryReport`]s merged into a single store-level report.

use montage::sync::uninstrumented::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use montage::{EpochSys, EsysConfig, RecoveryError};
use parking_lot::Mutex;
use pmem::{PmemConfig, PmemFault, PmemPool, StatsSnapshot};

use crate::router::ShardRouter;
use crate::session_table::{DetectOutcome, DetectStats, DetectedWrite};
use crate::{Key, KvBackend, KvStore};

/// Why a sharded-store mutation was refused. `Display` output is what the
/// wire protocol sends after `SERVER_ERROR `.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The routed shard's pool has a tripped fault plan: its durable image
    /// is frozen, so accepting the mutation would lie about durability.
    Faulted { shard: usize, fault: PmemFault },
    /// The routed shard's epoch-system thread table is fully leased.
    OutOfThreadIds { shard: usize },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Faulted { shard, fault } => {
                write!(f, "persistent pool crashed: {fault} (shard {shard})")
            }
            StoreError::OutOfThreadIds { shard } => {
                write!(f, "out of worker ids (shard {shard})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Per-shard outcome of a parallel recovery.
#[derive(Clone, Debug, Default)]
pub struct ShardRecovery {
    pub shard: usize,
    /// Payloads rebuilt into the shard's index.
    pub survivors: usize,
    /// Payloads discarded by uid cancellation.
    pub cancelled: usize,
    /// Payloads from past the recovery cutoff (the buffered loss window).
    pub discarded_recent: usize,
    /// Corrupt payloads quarantined by this shard's sweep.
    pub quarantined: usize,
    /// Where the shard's recovery time went: [`montage::RecoveryReport`]'s
    /// two phases, then the index rebuild ([`KvStore::recover`]).
    pub sweep: Duration,
    pub cancel: Duration,
    pub rebuild: Duration,
    /// A fatal error means the shard's image was unrecoverable; the shard
    /// came back formatted-empty and every payload it held is lost.
    pub fatal: Option<RecoveryError>,
}

/// Merged accounting for a whole-store parallel recovery.
#[derive(Clone, Debug, Default)]
pub struct StoreRecoveryReport {
    pub shards: Vec<ShardRecovery>,
}

impl StoreRecoveryReport {
    pub fn survivors(&self) -> usize {
        self.shards.iter().map(|s| s.survivors).sum()
    }

    pub fn quarantined(&self) -> usize {
        self.shards.iter().map(|s| s.quarantined).sum()
    }

    /// Sweep, cancel and rebuild time summed over shards: CPU time — the
    /// shards recover in parallel, so wall time is the slowest one's.
    pub fn phases(&self) -> [Duration; 3] {
        self.shards
            .iter()
            .fold([Duration::ZERO; 3], |[s, c, r], sh| {
                [s + sh.sweep, c + sh.cancel, r + sh.rebuild]
            })
    }

    pub fn fatal_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.fatal.is_some()).count()
    }

    /// No quarantines and no fatal shards — every shard recovered cleanly
    /// (modulo the normal buffered loss window).
    pub fn is_clean(&self) -> bool {
        self.quarantined() == 0 && self.fatal_shards() == 0
    }
}

/// N independent single-pool stores behind a stable router.
pub struct ShardedKvStore {
    shards: Box<[Arc<KvStore>]>,
    router: ShardRouter,
    /// memcached cas-id allocator; 0 = not yet seeded. Seeded lazily from
    /// the store's epoch clocks (see [`ShardedKvStore::next_cas`]) so ids
    /// stay unique across crash/recovery without any dedicated pool state.
    cas_counter: AtomicU64,
}

impl ShardedKvStore {
    /// Fronts existing per-shard stores. Shard order is identity: keys
    /// route by [`ShardRouter`] over `shards.len()`.
    pub fn from_shards(shards: Vec<Arc<KvStore>>) -> Arc<Self> {
        assert!(!shards.is_empty(), "need at least one shard");
        let router = ShardRouter::new(shards.len());
        Arc::new(ShardedKvStore {
            shards: shards.into(),
            router,
            cas_counter: AtomicU64::new(0),
        })
    }

    /// Formats `n_shards` fresh Montage shards, each on its own pool built
    /// from `pool_cfg`. `capacity` is the whole store's item cap, split
    /// evenly; `stripes` is each shard's internal lock striping.
    pub fn format(
        n_shards: usize,
        pool_cfg: PmemConfig,
        esys_cfg: EsysConfig,
        stripes: usize,
        capacity: usize,
    ) -> Arc<Self> {
        let pools = (0..n_shards).map(|_| PmemPool::new(pool_cfg)).collect();
        Self::format_pools(pools, esys_cfg, stripes, capacity)
    }

    /// [`ShardedKvStore::format`] over caller-built pools — chaos harnesses
    /// arm individual shards' fault plans before handing the pools over.
    pub fn format_pools(
        pools: Vec<PmemPool>,
        esys_cfg: EsysConfig,
        stripes: usize,
        capacity: usize,
    ) -> Arc<Self> {
        assert!(!pools.is_empty(), "need at least one shard");
        let cap_per_shard = (capacity / pools.len()).max(1);
        Self::from_shards(
            pools
                .into_iter()
                .map(|pool| {
                    let esys = EpochSys::format(pool, esys_cfg);
                    Arc::new(KvStore::new(
                        KvBackend::Montage(esys),
                        stripes,
                        cap_per_shard,
                    ))
                })
                .collect(),
        )
    }

    /// Parallel recovery: one thread per shard runs [`montage::try_recover`]
    /// and rebuilds that shard's index. A shard whose image is fatally
    /// unrecoverable (unformatted pool, corrupt clock) comes back
    /// formatted-empty on a fresh pool, with the error recorded in the
    /// merged report — one poisoned shard must not take the store down.
    pub fn recover(
        pools: Vec<PmemPool>,
        esys_cfg: EsysConfig,
        stripes: usize,
        capacity: usize,
        sweep_threads: usize,
    ) -> (Arc<Self>, StoreRecoveryReport) {
        assert!(!pools.is_empty(), "need at least one shard");
        let cap_per_shard = (capacity / pools.len()).max(1);
        let mut slots: Vec<Option<(Arc<KvStore>, ShardRecovery)>> =
            (0..pools.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = pools
                .into_iter()
                .enumerate()
                .map(|(shard, pool)| {
                    scope.spawn(move || {
                        // A fresh pool for the fatal path must not inherit a
                        // tripped fault plan, or it would re-poison itself.
                        let mut fresh_cfg = *pool.config();
                        fresh_cfg.chaos = Default::default();
                        let mut report = ShardRecovery {
                            shard,
                            ..Default::default()
                        };
                        let store = match montage::try_recover(pool, esys_cfg, sweep_threads) {
                            Ok(rec) => {
                                report.survivors = rec.report.survivors;
                                report.cancelled = rec.report.cancelled;
                                report.discarded_recent = rec.report.discarded_recent;
                                report.quarantined = rec.report.quarantined.len();
                                report.sweep = rec.report.sweep;
                                report.cancel = rec.report.cancel;
                                let t_rebuild = Instant::now();
                                let store = KvStore::recover(
                                    rec.esys.clone(),
                                    stripes,
                                    cap_per_shard,
                                    &rec,
                                );
                                report.rebuild = t_rebuild.elapsed();
                                store
                            }
                            Err(e) => {
                                report.fatal = Some(e);
                                let esys = EpochSys::format(PmemPool::new(fresh_cfg), esys_cfg);
                                KvStore::new(KvBackend::Montage(esys), stripes, cap_per_shard)
                            }
                        };
                        (Arc::new(store), report)
                    })
                })
                .collect();
            for (slot, handle) in slots.iter_mut().zip(handles) {
                *slot = Some(handle.join().expect("shard recovery thread panicked"));
            }
        });
        let mut shards = Vec::with_capacity(slots.len());
        let mut report = StoreRecoveryReport::default();
        for slot in slots {
            let (store, rec) = slot.unwrap();
            shards.push(store);
            report.shards.push(rec);
        }
        (Self::from_shards(shards), report)
    }

    // ---- topology -----------------------------------------------------------

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, i: usize) -> &Arc<KvStore> {
        &self.shards[i]
    }

    pub fn shards(&self) -> &[Arc<KvStore>] {
        &self.shards
    }

    /// The shard that owns `key`.
    pub fn shard_of(&self, key: &Key) -> usize {
        self.router.route(key)
    }

    /// [`ShardedKvStore::shard_of`] for an unpadded protocol key (the
    /// server's periodic-sync path routes from the raw command line).
    /// `None` for keys the protocol would reject.
    pub fn shard_of_bytes(&self, key: &[u8]) -> Option<usize> {
        if key.is_empty() || key.len() > 32 {
            return None;
        }
        let mut k: Key = [0u8; 32];
        k[..key.len()].copy_from_slice(key);
        Some(self.shard_of(&k))
    }

    /// Leases worker ids lazily: the returned handle registers on a shard's
    /// epoch system the first time an operation routes there, and returns
    /// every leased id when dropped.
    pub fn lease(self: &Arc<Self>) -> StoreLease {
        StoreLease {
            tids: (0..self.shards.len()).map(|_| Mutex::new(None)).collect(),
            store: self.clone(),
        }
    }

    // ---- operations ---------------------------------------------------------

    /// `get` routes to the owning shard. Reads need no worker id and are
    /// served even on a faulted shard — they reflect transient state and
    /// promise nothing about durability.
    pub fn get<R>(&self, key: &Key, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.shards[self.shard_of(key)].get(key, f)
    }

    /// Ordered inclusive range scan across **every** shard: keys hash
    /// across shards, so a range touches all of them. Each shard produces a
    /// per-stripe-consistent snapshot of its slice (see [`KvStore::scan`]);
    /// the slices are merged, sorted, and capped at `limit`. Like `get`,
    /// scans are pure reads — no worker id, served even on a faulted shard.
    pub fn scan(&self, lo: &Key, hi: &Key, limit: usize) -> Vec<(Key, Vec<u8>)> {
        if lo > hi || limit == 0 {
            return Vec::new();
        }
        let mut out: Vec<(Key, Vec<u8>)> = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.scan(lo, hi, limit));
        }
        out.sort_by_key(|e| e.0);
        out.truncate(limit);
        out
    }

    /// Where a mutation routed to `shard` runs: that shard's store and the
    /// lease's worker id there. Refuses a faulted shard (its durable image
    /// is frozen; accepting the mutation would lie about durability). For
    /// a caller that has already computed [`ShardedKvStore::shard_of`] —
    /// the protocol session announces the shard to the batch that pins it,
    /// then mutates here, on one routing computation.
    pub fn route_to(
        &self,
        lease: &StoreLease,
        shard: usize,
    ) -> Result<(&KvStore, usize), StoreError> {
        self.check_shard(shard)?;
        Ok((&self.shards[shard], lease.tid(shard)?))
    }

    fn route(&self, lease: &StoreLease, key: &Key) -> Result<(&KvStore, usize), StoreError> {
        self.route_to(lease, self.shard_of(key))
    }

    /// Blind `set` on the owning shard (see [`KvStore::set`]) — a library
    /// entry point; the wire's `set`, as blind, replies and records sessions.
    pub fn set(&self, lease: &StoreLease, key: Key, value: &[u8]) -> Result<(), StoreError> {
        let (store, tid) = self.route(lease, &key)?;
        store.set(tid, key, value);
        Ok(())
    }

    /// Blind `delete` on the owning shard; a library entry point like `set`.
    pub fn delete(&self, lease: &StoreLease, key: &Key) -> Result<bool, StoreError> {
        let (store, tid) = self.route(lease, key)?;
        Ok(store.delete(tid, key))
    }

    /// A plain (sessionless) atomic read-modify-write (see
    /// [`KvStore::update`]): routes to the owning shard, which holds its
    /// stripe lock across read+decide+write — the protocol's conditional
    /// ops (`cas`/`add`/`incr`/…) stay atomic even without a session,
    /// matching the detected path's serialization. A faulted shard refuses;
    /// on a healthy one the decision's reply bytes come back.
    pub fn update(
        &self,
        lease: &StoreLease,
        key: &Key,
        decide: impl FnOnce(Option<&[u8]>) -> (DetectedWrite, Vec<u8>),
    ) -> Result<Vec<u8>, StoreError> {
        let (store, tid) = self.route(lease, key)?;
        Ok(store.update(tid, key, decide))
    }

    /// A detectable mutation (see [`KvStore::detected_update`]): routes to
    /// the shard owning `key`, so the session's descriptor is co-located —
    /// and co-crashes — with the data it describes, and a deterministic
    /// retry of the same command finds the descriptor on the same shard.
    pub fn detected(
        &self,
        lease: &StoreLease,
        sid: u64,
        rid: u64,
        op_kind: u8,
        key: &Key,
        decide: impl FnOnce(Option<&[u8]>) -> (DetectedWrite, Vec<u8>),
    ) -> Result<DetectOutcome, StoreError> {
        let (store, tid) = self.route(lease, key)?;
        Ok(store.detected_update(tid, sid, rid, op_kind, key, decide))
    }

    /// Allocates a fresh memcached cas id, unique across the store's whole
    /// lifetime *including crash/recovery*. The counter seeds lazily from
    /// `(max epoch clock + 1) << 20`: epoch clocks only grow — recovery
    /// restarts them above the durable epoch — so as long as one epoch
    /// never spans 2^20 cas allocations, every post-recovery id is above
    /// every id a client saw before the crash.
    pub fn next_cas(&self) -> u64 {
        loop {
            let cur = self.cas_counter.load(Ordering::Acquire);
            if cur == 0 {
                let max_epoch = self.epochs().into_iter().flatten().max().unwrap_or(0);
                let seed = (max_epoch + 1) << 20;
                if self
                    .cas_counter
                    .compare_exchange(0, seed + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return seed;
                }
                continue;
            }
            if self
                .cas_counter
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return cur;
            }
        }
    }

    /// The session descriptor a given shard holds for `sid`, as
    /// `(rid, op_kind, result)`. Descriptors are per-(session, shard) —
    /// a session that mutated keys on two shards has one on each — so
    /// crash tests interrogate the shard that owns the mutated key.
    pub fn shard_session_descriptor(&self, shard: usize, sid: u64) -> Option<(u64, u8, Vec<u8>)> {
        self.shards[shard].session_descriptor(sid)
    }

    /// Exactly-once counters merged across shards.
    pub fn detect_stats_merged(&self) -> DetectStats {
        let per_shard = self.detect_stats_per_shard().into_iter();
        per_shard.fold(DetectStats::default(), |a, b| a + b)
    }

    /// Per-shard exactly-once counters (descriptor placement is a per-shard
    /// fact the `stats` command surfaces).
    pub fn detect_stats_per_shard(&self) -> Vec<DetectStats> {
        self.shards.iter().map(|s| s.detect_stats()).collect()
    }

    fn check_shard(&self, shard: usize) -> Result<(), StoreError> {
        match self.shards[shard].fault() {
            Some(fault) => Err(StoreError::Faulted { shard, fault }),
            None => Ok(()),
        }
    }

    /// The first faulted shard, if any.
    pub fn fault_any(&self) -> Option<(usize, PmemFault)> {
        self.shards
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.fault().map(|f| (i, f)))
    }

    /// Syncs every shard's epoch system (a store-wide durability barrier).
    /// Faulted shards report errors; healthy shards still sync.
    pub fn sync(&self) -> Result<(), StoreError> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let first_err = self
            .sync_shards(&all, None)
            .into_iter()
            .find_map(|r| r.0.err());
        first_err.map_or(Ok(()), Err)
    }

    /// Syncs one shard — the periodic durability barrier on the mutation
    /// path syncs only the shard the mutation routed to, which is what lets
    /// shards scale: barriers on shard A never wait out shard B's epochs.
    pub fn sync_shard(&self, shard: usize) -> Result<(), StoreError> {
        match self.shards[shard].esys() {
            Some(esys) => esys
                .try_sync()
                .map_err(|fault| StoreError::Faulted { shard, fault }),
            None => Ok(()),
        }
    }

    /// Syncs a set of shards as one group: every shard's boundary fence is
    /// issued before any is awaited ([`EpochSys::try_sync_group`]), so the
    /// caller waits for the slowest pool's drain rather than the sum. One
    /// outcome per entry of `shards`, with the time from the group's start
    /// to that shard's verdict. `budget` is one wall-clock allowance for the
    /// whole group: `Ok(false)` means that shard's epoch system could not
    /// certify durability within it (a straggling shard — injected delays,
    /// a wedged medium). The caller decides what degrades: the server severs
    /// the connections whose acks were promised behind that shard's fence.
    pub fn sync_shards(
        &self,
        shards: &[usize],
        budget: Option<Duration>,
    ) -> Vec<(Result<bool, StoreError>, Duration)> {
        let deadline = budget.map(|b| Instant::now() + b);
        let montage: Vec<&EpochSys> = shards
            .iter()
            .filter_map(|&i| self.shards[i].esys().map(|e| &**e))
            .collect();
        let mut synced = EpochSys::try_sync_group(&montage, deadline).into_iter();
        shards
            .iter()
            .map(|&shard| match self.shards[shard].esys() {
                Some(_) => {
                    let (result, took) = synced.next().expect("one outcome per Montage shard");
                    (
                        result.map_err(|fault| StoreError::Faulted { shard, fault }),
                        took,
                    )
                }
                None => (Ok(true), Duration::ZERO),
            })
            .collect()
    }

    /// Freezes and returns every shard's durable image (simulated
    /// whole-machine crash). Panics on non-Montage shards.
    pub fn crash_pools(&self) -> Vec<PmemPool> {
        self.shards
            .iter()
            .map(|s| {
                s.esys()
                    .expect("crash_pools needs Montage shards")
                    .pool()
                    .crash()
            })
            .collect()
    }

    // ---- accounting ---------------------------------------------------------

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn evictions(&self) -> usize {
        self.shards.iter().map(|s| s.evictions()).sum()
    }

    /// Per-shard ordered-mirror DRAM footprint
    /// ([`KvStore::ordered_mirror_bytes`]).
    pub fn ordered_mirror_bytes_per_shard(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.ordered_mirror_bytes())
            .collect()
    }

    /// Ordered-mirror DRAM footprint summed across shards.
    pub fn ordered_mirror_bytes(&self) -> usize {
        self.ordered_mirror_bytes_per_shard().into_iter().sum()
    }

    /// Per-shard pool counters (`None` for transient shards).
    pub fn pool_stats_per_shard(&self) -> Vec<Option<StatsSnapshot>> {
        self.shards.iter().map(|s| s.pool_stats()).collect()
    }

    /// Pool counters summed across shards (`None` if no shard has a pool).
    pub fn pool_stats_merged(&self) -> Option<StatsSnapshot> {
        let pools = self.pool_stats_per_shard().into_iter().flatten();
        pools.reduce(|a, b| a + b)
    }

    /// The tightest per-shard thread-id budget: the smallest `max_threads`
    /// across Montage shards, or `None` if every shard is transient. A
    /// server sizing a long-lived worker pool must stay at or under this —
    /// each worker's lease can pin one id per shard for its lifetime.
    pub fn min_id_capacity(&self) -> Option<usize> {
        self.shards
            .iter()
            .filter_map(|s| s.esys().map(|e| e.config().max_threads))
            .min()
    }

    /// Per-shard epoch-clock values (`None` for transient shards).
    pub fn epochs(&self) -> Vec<Option<u64>> {
        self.shards
            .iter()
            .map(|s| s.esys().map(|e| e.curr_epoch()))
            .collect()
    }
}

/// Lazily-leased per-shard worker ids for one client session.
///
/// A connection touching only shard 2 holds exactly one id, on shard 2 —
/// with eager leasing a store of N shards would burn N table slots per
/// connection and the thread tables would exhaust N times sooner.
pub struct StoreLease {
    store: Arc<ShardedKvStore>,
    tids: Box<[Mutex<Option<usize>>]>,
}

impl StoreLease {
    /// The worker id for `shard`, registering on first touch.
    pub fn tid(&self, shard: usize) -> Result<usize, StoreError> {
        let mut slot = self.tids[shard].lock();
        if let Some(t) = *slot {
            return Ok(t);
        }
        match self.store.shard(shard).try_register_thread() {
            Some(t) => {
                *slot = Some(t);
                Ok(t)
            }
            None => Err(StoreError::OutOfThreadIds { shard }),
        }
    }

    /// Ids currently held, in shard order.
    pub fn held(&self) -> Vec<Option<usize>> {
        self.tids.iter().map(|m| *m.lock()).collect()
    }
}

impl Drop for StoreLease {
    fn drop(&mut self) {
        for (shard, slot) in self.tids.iter().enumerate() {
            if let Some(tid) = slot.lock().take() {
                self.store.shard(shard).unregister_thread(tid);
            }
        }
    }
}

/// A group-commit scope: epoch pins on the shards a batch of operations is
/// about to touch, so all of the batch's ops on one shard share a single
/// `BEGIN_OP`/`END_OP` window (see [`montage::EpochSys::try_pin_epoch`]).
///
/// Usage contract (the event-driven server's batch loop):
/// 1. `pin_shard` each mutation's shard before executing it — best-effort; a
///    shard that cannot be pinned (faulted, out of ids, transient backend)
///    simply runs its ops unpinned and unamortized.
/// 2. Execute the batch's operations **on the same thread** that holds the
///    batch (the pins announce this thread's lease ids).
/// 3. `finish` to drop every pin, then issue the shared durability barrier
///    (`sync_shards` over the returned shards). Never sync a shard while its
///    pin is held — the pinning thread would wait on its own announcement.
pub struct StoreBatch<'a> {
    store: &'a ShardedKvStore,
    lease: &'a StoreLease,
    /// One slot per shard, sized at the first pin: a batch of reads never
    /// allocates.
    pins: Vec<Option<montage::EpochPin<'a>>>,
}

impl ShardedKvStore {
    /// Opens a group-commit scope over this store with `lease`'s worker ids.
    pub fn batch<'a>(&'a self, lease: &'a StoreLease) -> StoreBatch<'a> {
        StoreBatch {
            pins: Vec::new(),
            store: self,
            lease,
        }
    }
}

impl<'a> StoreBatch<'a> {
    /// Pins `shard`'s epoch system (idempotent; transient shards no-op).
    pub fn pin_shard(&mut self, shard: usize) -> Result<(), StoreError> {
        if self.pins.is_empty() {
            self.pins.resize_with(self.store.shards.len(), || None);
        }
        if self.pins[shard].is_some() {
            return Ok(());
        }
        self.store.check_shard(shard)?;
        let tid = self.lease.tid(shard)?;
        let Some(esys) = self.store.shards[shard].esys() else {
            return Ok(()); // transient backend: no epochs to pin
        };
        let pin = esys
            .try_pin_epoch(montage::ThreadId(tid))
            .map_err(|fault| StoreError::Faulted { shard, fault })?;
        self.pins[shard] = Some(pin);
        Ok(())
    }

    /// [`montage::EpochPin::write_back`] on every pinned shard, for a batch
    /// that will end in a group sync: the devices drain under the rest of it.
    pub fn write_back(&self) {
        self.pins.iter().flatten().for_each(|pin| pin.write_back());
    }

    /// Drops every pin and returns the shards that were pinned — the set the
    /// caller's group fence must `sync_shards`.
    pub fn finish(&mut self) -> Vec<usize> {
        let mut touched = Vec::new();
        for (shard, slot) in self.pins.iter_mut().enumerate() {
            if slot.take().is_some() {
                touched.push(shard);
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_key;

    fn small_store(n: usize) -> Arc<ShardedKvStore> {
        ShardedKvStore::format(
            n,
            PmemConfig::strict_for_test(8 << 20),
            EsysConfig::default(),
            4,
            10_000,
        )
    }

    #[test]
    fn set_get_delete_round_trip_across_shards() {
        let store = small_store(4);
        let lease = store.lease();
        for i in 0..200 {
            store
                .set(&lease, make_key(i), format!("v{i}").as_bytes())
                .unwrap();
        }
        assert_eq!(store.len(), 200);
        for i in 0..200 {
            assert_eq!(
                store.get(&make_key(i), |v| v.to_vec()).unwrap(),
                format!("v{i}").as_bytes()
            );
        }
        assert!(store.delete(&lease, &make_key(7)).unwrap());
        assert!(store.get(&make_key(7), |_| ()).is_none());
        assert_eq!(store.len(), 199);
    }

    #[test]
    fn lease_is_lazy_and_returns_ids_on_drop() {
        let store = small_store(4);
        let lease = store.lease();
        assert!(lease.held().iter().all(Option::is_none), "no ids yet");
        // Touch keys until at least two shards have been visited.
        for i in 0..20 {
            store.set(&lease, make_key(i), b"x").unwrap();
        }
        let held: Vec<usize> = lease.held().iter().filter_map(|t| *t).collect();
        assert!(held.len() >= 2, "20 keys should span several shards");
        drop(lease);
        // Every id came back: a fresh lease can re-register everywhere even
        // on a store formatted with a tiny thread table.
        let store2 = ShardedKvStore::format(
            2,
            PmemConfig::strict_for_test(8 << 20),
            EsysConfig {
                max_threads: 1,
                ..Default::default()
            },
            2,
            1000,
        );
        for round in 0..3 {
            let lease = store2.lease();
            for i in 0..8 {
                store2
                    .set(&lease, make_key(i), b"y")
                    .unwrap_or_else(|e| panic!("round {round}: {e}"));
            }
        }
    }

    #[test]
    fn montage_ids_bind_to_leases_not_connections() {
        // Ids are a per-*worker* resource: a worker's lease acquires one
        // lazily at its first op on a shard and holds it for the worker's
        // lifetime, so the id table bounds workers, never connections.
        let store = ShardedKvStore::format(
            1,
            PmemConfig::strict_for_test(1 << 20),
            EsysConfig {
                max_threads: 2,
                ..Default::default()
            },
            4,
            1024,
        );
        let key = make_key(1);
        let a = store.lease();
        let b = store.lease();
        store.set(&a, key, b"1").expect("worker a gets an id");
        store.set(&b, key, b"2").expect("worker b gets an id");
        // Both ids are held by live workers; a third worker's first op is
        // refused until one of them retires.
        let c = store.lease();
        assert!(
            store.set(&c, key, b"3").is_err(),
            "id table exhausted, op must be refused"
        );
        drop(a);
        store.set(&c, key, b"3").expect("freed id reused");
    }

    #[test]
    fn sharded_store_recovers_all_shards_in_parallel() {
        let store = small_store(4);
        let lease = store.lease();
        for i in 0..300 {
            store
                .set(&lease, make_key(i), format!("v{i}").as_bytes())
                .unwrap();
        }
        store.delete(&lease, &make_key(5)).unwrap();
        store.sync().unwrap();
        let pools = store.crash_pools();
        let (store2, report) = ShardedKvStore::recover(pools, EsysConfig::default(), 4, 10_000, 2);
        assert_eq!(report.shards.len(), 4);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.survivors(), 299);
        assert_eq!(store2.len(), 299);
        assert!(store2.get(&make_key(5), |_| ()).is_none());
        for i in 200..300 {
            assert_eq!(
                store2.get(&make_key(i), |v| v.to_vec()).unwrap(),
                format!("v{i}").as_bytes(),
                "key {i} lost"
            );
        }
    }

    #[test]
    fn unformatted_shard_comes_back_empty_not_fatal_to_the_store() {
        let store = small_store(3);
        let lease = store.lease();
        for i in 0..100 {
            store.set(&lease, make_key(i), b"z").unwrap();
        }
        store.sync().unwrap();
        let mut pools = store.crash_pools();
        // Replace shard 1's image with a never-formatted pool.
        pools[1] = PmemPool::new(PmemConfig::strict_for_test(8 << 20));
        let (store2, report) = ShardedKvStore::recover(pools, EsysConfig::default(), 4, 10_000, 2);
        assert_eq!(report.fatal_shards(), 1);
        assert!(matches!(
            report.shards[1].fatal,
            Some(RecoveryError::UnformattedPool)
        ));
        // Shards 0 and 2 kept everything they owned.
        let router = ShardRouter::new(3);
        let expected: usize = (0..100)
            .filter(|&i| router.route(&make_key(i)) != 1)
            .count();
        assert_eq!(store2.len(), expected);
        // And the store still serves writes, including to the reborn shard.
        let lease2 = store2.lease();
        for i in 0..100 {
            store2.set(&lease2, make_key(i), b"w").unwrap();
        }
        assert_eq!(store2.len(), 100);
    }

    #[test]
    fn batch_pins_once_per_shard_and_survives_a_group_fence() {
        let store = small_store(4);
        let lease = store.lease();
        let epochs_before = store.epochs();
        let mut batch = store.batch(&lease);
        // A burst of sets spanning several shards, all under one batch.
        for i in 0..40 {
            let k = make_key(i);
            batch.pin_shard(store.shard_of(&k)).unwrap();
            store.set(&lease, k, format!("b{i}").as_bytes()).unwrap();
        }
        let pinned = batch.finish();
        assert!(pinned.len() >= 2, "40 keys should pin several shards");
        // Pins are idempotent: a shard pinned many times is held once.
        assert!(pinned.windows(2).all(|w| w[0] < w[1]), "{pinned:?}");
        assert_eq!(batch.finish(), Vec::<usize>::new(), "finish is terminal");
        // The shared fence after dropping the pins: one sync per touched
        // shard instead of one per mutation.
        for &s in &pinned {
            store.sync_shard(s).unwrap();
        }
        for (s, (before, after)) in epochs_before.iter().zip(store.epochs()).enumerate() {
            if pinned.contains(&s) {
                assert!(
                    after.unwrap() >= before.unwrap() + 2,
                    "shard {s} never fenced"
                );
            }
        }
        // Everything written under the pins recovered after a crash.
        let pools = store.crash_pools();
        let (store2, report) = ShardedKvStore::recover(pools, EsysConfig::default(), 4, 10_000, 2);
        assert!(report.is_clean(), "{report:?}");
        for i in 0..40 {
            assert_eq!(
                store2.get(&make_key(i), |v| v.to_vec()).unwrap(),
                format!("b{i}").as_bytes()
            );
        }
    }

    #[test]
    fn batch_pin_refuses_faulted_shard_but_ops_degrade_unpinned() {
        let healthy = PmemConfig::strict_for_test(8 << 20);
        let mut armed = healthy;
        armed.chaos.crash_at_event = Some(1);
        let pools = vec![PmemPool::new(armed), PmemPool::new(healthy)];
        let store = ShardedKvStore::format_pools(pools, EsysConfig::default(), 4, 10_000);
        // Trip shard 0's plan.
        let _ = store.sync_shard(0);
        assert!(store.shard(0).fault().is_some());
        let lease = store.lease();
        let mut batch = store.batch(&lease);
        assert!(matches!(
            batch.pin_shard(0),
            Err(StoreError::Faulted { shard: 0, .. })
        ));
        batch.pin_shard(1).unwrap();
        assert_eq!(batch.finish(), vec![1]);
    }

    #[test]
    fn faulted_shard_refuses_mutations_while_others_serve() {
        // Arm shard 0 to trip almost immediately; leave the rest healthy.
        let healthy = PmemConfig::strict_for_test(8 << 20);
        let mut armed = healthy;
        armed.chaos.crash_at_event = Some(30);
        let pools = vec![
            PmemPool::new(armed),
            PmemPool::new(healthy),
            PmemPool::new(healthy),
        ];
        let store = ShardedKvStore::format_pools(pools, EsysConfig::default(), 4, 10_000);
        let lease = store.lease();
        let router = ShardRouter::new(3);
        // Hammer shard 0 with checked ops until its plan trips.
        let mut shard0_key = None;
        for i in 0..10_000 {
            let k = make_key(i);
            if router.route(&k) == 0 {
                shard0_key = Some(k);
                if store.set(&lease, k, &[7u8; 64]).is_err() {
                    break;
                }
                let _ = store.sync_shard(0);
            }
            if store.shard(0).fault().is_some() {
                break;
            }
        }
        let (shard, _) = store.fault_any().expect("shard 0 must trip");
        assert_eq!(shard, 0);
        assert!(matches!(
            store.set(&lease, shard0_key.unwrap(), b"nope"),
            Err(StoreError::Faulted { shard: 0, .. })
        ));
        assert!(
            store.sync().is_err(),
            "store-wide barrier reports the fault"
        );
        // Healthy shards still take writes and sync.
        let k1 = (0..10_000)
            .map(make_key)
            .find(|k| router.route(k) == 1)
            .unwrap();
        store.set(&lease, k1, b"alive").unwrap();
        store.sync_shard(1).unwrap();
        assert_eq!(store.get(&k1, |v| v.to_vec()).unwrap(), b"alive");
    }
}
