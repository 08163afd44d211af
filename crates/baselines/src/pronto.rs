//! Pronto — "Easy and Fast Persistence for Volatile Data Structures"
//! (Memaripour, Izraelevitz & Swanson, ASPLOS '20): a general-purpose system
//! that keeps the data structure itself **volatile** and persists a
//! **semantic log** of high-level operations (op code + arguments), replayed
//! from a periodic checkpoint after a crash.
//!
//! Crucially (paper Sec. 2), Pronto still persists each operation **before
//! returning** — strict durable linearizability — which is exactly the cost
//! Montage's buffering removes. Two modes:
//!
//! * **Pronto-Sync**: the calling thread appends the log entry, flushes and
//!   fences it inline (two-phase: entry body, then commit header).
//! * **Pronto-Full**: an *asynchronous logging thread* (the original uses
//!   the worker's sister hyperthread) persists the entry while the caller
//!   executes the volatile operation; the caller still waits for the
//!   logger's ack before returning.
//!
//! Checkpointing serializes the volatile structure into NVM and truncates
//! the logs, bounding recovery time; [`ProntoQueue::recover`] /
//! [`ProntoMap::recover`] load the checkpoint and replay the tail of the
//! log in global sequence order.
//!
//! Note the log entry contains the full argument list — for a 1 KB value, a
//! 1 KB log write per operation, which is why Pronto trails Montage by an
//! order of magnitude on large payloads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{POff, PmemPool};
use ralloc::Ralloc;

use crate::api::{bucket_of, BenchMap, BenchQueue, Key32};

/// Per-thread persistent log region.
const LOG_REGION: usize = 1 << 16;

/// Entry header: `len: u64 | seq: u64`, then `len` bytes of payload.
const ENTRY_HDR: u64 = 16;

/// Root-area slot anchoring {log block, nthreads, ckpt off, ckpt len, ckpt seq}.
const ANCHOR_SLOT: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Sync,
    Full,
}

/// A Full-mode flush request — packed `(off:48 | len:16)`, 0 = none — on its
/// own two cache lines, so threads posting requests do not share one.
#[repr(align(128))]
struct Mailbox(AtomicU64);

/// The semantic log: one region per thread (one contiguous anchored block)
/// plus, in Full mode, one logger thread servicing flush requests.
struct OpLog {
    pool: PmemPool,
    mode: Mode,
    /// Per-thread log regions plus the persistent table anchoring them.
    regions: Vec<POff>,
    table: POff,
    nthreads: usize,
    positions: Box<[Mutex<u64>]>,
    seq: AtomicU64,
    /// Full mode: one request mailbox per thread.
    requests: Box<[Mailbox]>,
    stop: Arc<AtomicBool>,
    logger: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl OpLog {
    fn new(ralloc: &Ralloc, mode: Mode, max_threads: usize) -> Arc<Self> {
        let pool = ralloc.pool().clone();
        let nthreads = max_threads.max(1);
        // One region per thread, anchored through a persistent offset table.
        let regions: Vec<POff> = (0..nthreads).map(|_| ralloc.alloc(LOG_REGION)).collect();
        let table = ralloc.alloc(8 * nthreads);
        for (t, r) in regions.iter().enumerate() {
            // SAFETY: region and table slots were just allocated with room for
            // these words; no other thread references them yet.
            unsafe {
                pool.write::<u64>(*r, &0); // zero terminator
                pool.write::<u64>(table.add(8 * t as u64), &r.raw());
            }
            pool.clwb(*r);
        }
        pool.persist_range(table, 8 * nthreads);
        let log = Arc::new(OpLog {
            pool: pool.clone(),
            mode,
            regions,
            table,
            nthreads,
            positions: (0..nthreads).map(|_| Mutex::new(0)).collect(),
            seq: AtomicU64::new(1),
            requests: (0..nthreads).map(|_| Mailbox(AtomicU64::new(0))).collect(),
            stop: Arc::new(AtomicBool::new(false)),
            logger: Mutex::new(None),
        });
        if mode == Mode::Full {
            let l = log.clone();
            let stop = log.stop.clone();
            *log.logger.lock() = Some(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut idle = true;
                    for t in 0..l.requests.len() {
                        let req = l.requests[t].0.swap(0, Ordering::AcqRel);
                        if req != 0 {
                            idle = false;
                            let off = req >> 16;
                            let len = (req & 0xFFFF) as usize;
                            l.pool.clwb_range(POff::new(off + 8), len - 8);
                            l.pool.sfence();
                            l.pool.clwb(POff::new(off));
                            l.pool.sfence();
                        }
                    }
                    if idle {
                        // Yield so workers can post (essential when cores
                        // are oversubscribed; the original dedicates the
                        // sister hyperthread).
                        std::thread::yield_now();
                    }
                }
            }));
        }
        log
    }

    fn region(&self, tid: usize) -> POff {
        self.regions[tid % self.nthreads]
    }

    /// Appends `entry` to thread `tid`'s log with a global sequence number;
    /// returns only when durable (Sync) or after posting to the logger
    /// (Full — pair with [`OpLog::wait_durable`] before returning to the
    /// client). Call while holding the structure's lock so sequence order
    /// matches apply order (Pronto serializes per object).
    fn append(&self, tid: usize, entry: &[u8]) {
        let region = self.region(tid);
        let total = ENTRY_HDR + entry.len() as u64;
        let (off, len) = {
            let mut pos = self.positions[tid % self.nthreads].lock();
            if *pos + total + 8 > LOG_REGION as u64 {
                // Ring wrap. A real deployment checkpoints before this point
                // (recovery after an un-checkpointed wrap is undefined, as
                // in the original when the log fills).
                *pos = 0;
            }
            let off = region.add(*pos);
            let seq = self.seq.fetch_add(1, Ordering::AcqRel);
            // SAFETY: the wrap check above keeps entry + terminator inside this
            // thread's LOG_REGION block, and the position lock gives this
            // thread exclusive access to that region.
            unsafe {
                pool_write_entry(&self.pool, off, seq, entry);
            }
            *pos += total;
            // Terminator for the replay parser.
            // SAFETY: see above — in-region, owned under the position lock.
            unsafe { self.pool.write::<u64>(region.add(*pos), &0) };
            (off, total as usize)
        };
        match self.mode {
            Mode::Sync => {
                // Two-phase append: persist the body, then the header (whose
                // nonzero length commits the entry).
                self.pool.clwb_range(off.add(8), len - 8);
                self.pool.sfence();
                self.pool.clwb(off);
                self.pool.sfence();
            }
            Mode::Full => {
                self.requests[tid % self.nthreads]
                    .0
                    .store((off.raw() << 16) | len as u64, Ordering::Release);
            }
        }
    }

    /// Full mode: block until every posted entry of `tid` is durable.
    fn wait_durable(&self, tid: usize) {
        if self.mode == Mode::Full {
            let mut spins = 0u32;
            while self.requests[tid % self.nthreads].0.load(Ordering::Acquire) != 0 {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Truncates all logs (after a checkpoint). Caller must quiesce ops.
    fn truncate(&self) {
        for t in 0..self.nthreads {
            let mut pos = self.positions[t].lock();
            *pos = 0;
            // SAFETY: holding the position lock, writing the region's first word.
            unsafe { self.pool.write::<u64>(self.region(t), &0) };
            self.pool.clwb(self.region(t));
        }
        self.pool.sfence();
    }

    /// Last assigned global sequence number (for checkpoint stamping).
    fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire) - 1
    }

    /// Replays all entries with `seq > after_seq`, in sequence order. The
    /// `table` holds each thread's region offset.
    fn replay(
        pool: &PmemPool,
        table: POff,
        nthreads: usize,
        after_seq: u64,
        mut apply: impl FnMut(&[u8]),
    ) {
        let mut entries: Vec<(u64, Vec<u8>)> = Vec::new();
        for t in 0..nthreads {
            // SAFETY: the anchored table holds nthreads region offsets;
            // replay runs single-threaded after a crash.
            let region = POff::new(unsafe { pool.read::<u64>(table.add(8 * t as u64)) });
            let mut pos = 0u64;
            loop {
                // SAFETY: `pos` stays below LOG_REGION (checked after each
                // entry), so header reads are inside the region block.
                let len = unsafe { pool.read::<u64>(region.add(pos)) };
                if len == 0 || pos + ENTRY_HDR + len + 8 > LOG_REGION as u64 {
                    break;
                }
                // SAFETY: see above.
                let seq = unsafe { pool.read::<u64>(region.add(pos + 8)) };
                let mut bytes = vec![0u8; len as usize];
                pool.read_bytes(region.add(pos + ENTRY_HDR), &mut bytes);
                if seq > after_seq {
                    entries.push((seq, bytes));
                }
                pos += ENTRY_HDR + len;
            }
        }
        entries.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, bytes) in entries {
            apply(&bytes);
        }
    }
}

/// # Safety
///
/// `off .. off + ENTRY_HDR + entry.len()` must lie inside a log region the
/// caller owns exclusively (it holds that region's position lock).
unsafe fn pool_write_entry(pool: &PmemPool, off: POff, seq: u64, entry: &[u8]) {
    pool.write::<u64>(off, &(entry.len() as u64));
    pool.write::<u64>(off.add(8), &seq);
    pool.write_bytes(off.add(ENTRY_HDR), entry);
}

impl Drop for OpLog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.logger.lock().take() {
            let _ = h.join();
        }
    }
}

// Op codes for the semantic log.
const OP_ENQ: u8 = 1;
const OP_DEQ: u8 = 2;
const OP_INS: u8 = 3;
const OP_DEL: u8 = 4;

fn encode_entry(op: u8, key: Option<&Key32>, value: Option<&[u8]>) -> Vec<u8> {
    let mut e = Vec::with_capacity(1 + 32 + value.map_or(0, |v| v.len()));
    e.push(op);
    if let Some(k) = key {
        e.extend_from_slice(k);
    }
    if let Some(v) = value {
        e.extend_from_slice(v);
    }
    e
}

/// Writes a checkpoint blob and anchors it (common to queue and map).
fn write_checkpoint(ralloc: &Ralloc, log: &OpLog, blob: &[u8]) {
    let pool = ralloc.pool();
    let ckpt = ralloc.alloc(blob.len().max(8));
    pool.write_bytes(ckpt, blob);
    pool.clwb_range(ckpt, blob.len());
    pool.sfence();
    let anchor = POff::root_slot(ANCHOR_SLOT);
    // SAFETY: the 40-byte anchor record fits in the reserved root slot, and
    // checkpointing quiesces all other writers.
    unsafe {
        pool.write::<u64>(anchor, &log.table.raw());
        pool.write::<u64>(anchor.add(8), &(log.nthreads as u64));
        pool.write::<u64>(anchor.add(16), &ckpt.raw());
        pool.write::<u64>(anchor.add(24), &(blob.len() as u64));
        pool.write::<u64>(anchor.add(32), &log.current_seq());
    }
    pool.persist_range(anchor, 40);
    log.truncate();
}

/// Offsets that must survive a Pronto recovery sweep: the region table,
/// every log region, and the checkpoint blob.
fn keep_set(
    pool: &PmemPool,
    table: POff,
    nthreads: usize,
    ckpt: POff,
    _ckpt_len: usize,
) -> std::collections::HashSet<u64> {
    let mut keep = std::collections::HashSet::new();
    keep.insert(table.raw());
    for t in 0..nthreads {
        // SAFETY: the anchored table holds nthreads in-bounds offsets;
        // recovery is single-threaded.
        keep.insert(unsafe { pool.read::<u64>(table.add(8 * t as u64)) });
    }
    if !ckpt.is_null() {
        keep.insert(ckpt.raw());
    }
    keep
}

fn read_anchor(pool: &PmemPool) -> (POff, usize, POff, usize, u64) {
    let anchor = POff::root_slot(ANCHOR_SLOT);
    // SAFETY: reads of the reserved root-slot record; any bit pattern is a
    // valid u64 and gets validated by the callers.
    unsafe {
        (
            POff::new(pool.read::<u64>(anchor)),
            pool.read::<u64>(anchor.add(8)) as usize,
            POff::new(pool.read::<u64>(anchor.add(16))),
            pool.read::<u64>(anchor.add(24)) as usize,
            pool.read::<u64>(anchor.add(32)),
        )
    }
}

/// Anchors the log block even before the first checkpoint, so replay works
/// from an empty checkpoint.
fn anchor_fresh(ralloc: &Ralloc, log: &OpLog) {
    let pool = ralloc.pool();
    let anchor = POff::root_slot(ANCHOR_SLOT);
    // SAFETY: the 40-byte anchor record fits in the reserved root slot; the
    // log was just created, so nothing else writes it.
    unsafe {
        pool.write::<u64>(anchor, &log.table.raw());
        pool.write::<u64>(anchor.add(8), &(log.nthreads as u64));
        pool.write::<u64>(anchor.add(16), &0u64);
        pool.write::<u64>(anchor.add(24), &0u64);
        pool.write::<u64>(anchor.add(32), &0u64);
    }
    pool.persist_range(anchor, 40);
}

// ---------------------------------------------------------------------------
// Pronto-wrapped volatile FIFO queue
// ---------------------------------------------------------------------------

pub struct ProntoQueue {
    ralloc: Arc<Ralloc>,
    log: Arc<OpLog>,
    inner: Mutex<VecDeque<Box<[u8]>>>,
}

impl ProntoQueue {
    pub fn new(ralloc: &Arc<Ralloc>, mode: Mode, max_threads: usize) -> Self {
        let log = OpLog::new(ralloc, mode, max_threads);
        anchor_fresh(ralloc, &log);
        ProntoQueue {
            ralloc: ralloc.clone(),
            log,
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Serializes the queue to NVM and truncates the logs.
    pub fn checkpoint(&self) {
        let inner = self.inner.lock();
        let mut blob = Vec::new();
        blob.extend_from_slice(&(inner.len() as u64).to_le_bytes());
        for item in inner.iter() {
            blob.extend_from_slice(&(item.len() as u64).to_le_bytes());
            blob.extend_from_slice(item);
        }
        write_checkpoint(&self.ralloc, &self.log, &blob);
    }

    /// Loads the checkpoint and replays the log tail.
    pub fn recover(pool: PmemPool, mode: Mode, max_threads: usize) -> Self {
        let (table, nthreads, ckpt, ckpt_len, ckpt_seq) = read_anchor(&pool);
        assert!(!table.is_null(), "pool holds no Pronto queue");
        let keep = keep_set(&pool, table, nthreads, ckpt, ckpt_len);
        let (ralloc, _kept) =
            Ralloc::recover(pool.clone(), move |blk, _| keep.contains(&blk.raw()));

        let mut items = VecDeque::new();
        if !ckpt.is_null() && ckpt_len >= 8 {
            let mut hdr = [0u8; 8];
            pool.read_bytes(ckpt, &mut hdr);
            let n = u64::from_le_bytes(hdr) as usize;
            let mut at = 8u64;
            for _ in 0..n {
                pool.read_bytes(ckpt.add(at), &mut hdr);
                let len = u64::from_le_bytes(hdr) as usize;
                let mut item = vec![0u8; len];
                pool.read_bytes(ckpt.add(at + 8), &mut item);
                items.push_back(item.into_boxed_slice());
                at += 8 + len as u64;
            }
        }
        OpLog::replay(&pool, table, nthreads, ckpt_seq, |entry| match entry[0] {
            OP_ENQ => items.push_back(entry[1..].into()),
            OP_DEQ => {
                items.pop_front();
            }
            _ => unreachable!("foreign op in queue log"),
        });

        let log = OpLog::new(&ralloc, mode, max_threads);
        anchor_fresh(&ralloc, &log);
        ProntoQueue {
            ralloc,
            log,
            inner: Mutex::new(items),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl BenchQueue for ProntoQueue {
    fn enqueue(&self, tid: usize, value: &[u8]) {
        {
            let mut inner = self.inner.lock();
            self.log
                .append(tid, &encode_entry(OP_ENQ, None, Some(value)));
            inner.push_back(value.into());
        }
        self.log.wait_durable(tid);
    }

    fn dequeue(&self, tid: usize) -> bool {
        let got = {
            let mut inner = self.inner.lock();
            self.log.append(tid, &encode_entry(OP_DEQ, None, None));
            inner.pop_front().is_some()
        };
        self.log.wait_durable(tid);
        got
    }
}

// ---------------------------------------------------------------------------
// Pronto-wrapped volatile hashmap
// ---------------------------------------------------------------------------

type MapChain = Vec<(Key32, Box<[u8]>)>;

pub struct ProntoMap {
    ralloc: Arc<Ralloc>,
    log: Arc<OpLog>,
    buckets: Box<[Mutex<MapChain>]>,
}

impl ProntoMap {
    pub fn new(ralloc: &Arc<Ralloc>, mode: Mode, max_threads: usize, nbuckets: usize) -> Self {
        let log = OpLog::new(ralloc, mode, max_threads);
        anchor_fresh(ralloc, &log);
        ProntoMap {
            ralloc: ralloc.clone(),
            log,
            buckets: (0..nbuckets).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Serializes the map and truncates logs (caller quiesces operations).
    pub fn checkpoint(&self) {
        let mut blob = Vec::new();
        let mut count = 0u64;
        let mut body = Vec::new();
        for b in self.buckets.iter() {
            for (k, v) in b.lock().iter() {
                body.extend_from_slice(k);
                body.extend_from_slice(&(v.len() as u64).to_le_bytes());
                body.extend_from_slice(v);
                count += 1;
            }
        }
        blob.extend_from_slice(&count.to_le_bytes());
        blob.extend_from_slice(&body);
        write_checkpoint(&self.ralloc, &self.log, &blob);
    }

    /// Loads the checkpoint and replays the log tail.
    pub fn recover(pool: PmemPool, mode: Mode, max_threads: usize, nbuckets: usize) -> Self {
        let (table, nthreads, ckpt, ckpt_len, ckpt_seq) = read_anchor(&pool);
        assert!(!table.is_null(), "pool holds no Pronto map");
        let keep = keep_set(&pool, table, nthreads, ckpt, ckpt_len);
        let (ralloc, _kept) =
            Ralloc::recover(pool.clone(), move |blk, _| keep.contains(&blk.raw()));

        let log = OpLog::new(&ralloc, mode, max_threads);
        let map = ProntoMap {
            ralloc: ralloc.clone(),
            log,
            buckets: (0..nbuckets).map(|_| Mutex::new(Vec::new())).collect(),
        };
        anchor_fresh(&ralloc, &map.log);

        if !ckpt.is_null() && ckpt_len >= 8 {
            let mut hdr = [0u8; 8];
            pool.read_bytes(ckpt, &mut hdr);
            let n = u64::from_le_bytes(hdr);
            let mut at = 8u64;
            for _ in 0..n {
                let mut key = [0u8; 32];
                pool.read_bytes(ckpt.add(at), &mut key);
                pool.read_bytes(ckpt.add(at + 32), &mut hdr);
                let len = u64::from_le_bytes(hdr) as usize;
                let mut val = vec![0u8; len];
                pool.read_bytes(ckpt.add(at + 40), &mut val);
                map.apply_insert(key, &val);
                at += 40 + len as u64;
            }
        }
        OpLog::replay(&pool, table, nthreads, ckpt_seq, |entry| {
            let key: Key32 = entry[1..33].try_into().unwrap();
            match entry[0] {
                OP_INS => {
                    map.apply_insert(key, &entry[33..]);
                }
                OP_DEL => {
                    map.apply_remove(&key);
                }
                _ => unreachable!("foreign op in map log"),
            }
        });
        map
    }

    fn apply_insert(&self, key: Key32, value: &[u8]) -> bool {
        let mut chain = self.buckets[bucket_of(&key, self.buckets.len())].lock();
        if chain.iter().any(|e| e.0 == key) {
            return false;
        }
        chain.push((key, value.into()));
        true
    }

    fn apply_remove(&self, key: &Key32) -> bool {
        let mut chain = self.buckets[bucket_of(key, self.buckets.len())].lock();
        match chain.iter().position(|e| e.0 == *key) {
            Some(p) => {
                chain.swap_remove(p);
                true
            }
            None => false,
        }
    }

    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl BenchMap for ProntoMap {
    fn get(&self, _tid: usize, key: &Key32) -> bool {
        // Reads are not logged (no state change).
        self.buckets[bucket_of(key, self.buckets.len())]
            .lock()
            .iter()
            .any(|e| e.0 == *key)
    }

    fn insert(&self, tid: usize, key: Key32, value: &[u8]) -> bool {
        let ok = {
            let mut chain = self.buckets[bucket_of(&key, self.buckets.len())].lock();
            if chain.iter().any(|e| e.0 == key) {
                false
            } else {
                self.log
                    .append(tid, &encode_entry(OP_INS, Some(&key), Some(value)));
                chain.push((key, value.into()));
                true
            }
        };
        self.log.wait_durable(tid);
        ok
    }

    fn remove(&self, tid: usize, key: &Key32) -> bool {
        let ok = {
            let mut chain = self.buckets[bucket_of(key, self.buckets.len())].lock();
            match chain.iter().position(|e| e.0 == *key) {
                Some(p) => {
                    self.log.append(tid, &encode_entry(OP_DEL, Some(key), None));
                    chain.swap_remove(p);
                    true
                }
                None => false,
            }
        };
        self.log.wait_durable(tid);
        ok
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

    fn strict_setup() -> Arc<Ralloc> {
        Ralloc::format(PmemPool::new(PmemConfig::strict_for_test(16 << 20)))
    }

    #[test]
    fn sync_queue_fifo_and_fences_per_op() {
        let r = setup();
        let q = ProntoQueue::new(&r, Mode::Sync, 4);
        let f0 = r.pool().stats().snapshot().sfences;
        for i in 0..10u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        let f1 = r.pool().stats().snapshot().sfences;
        assert!(f1 >= f0 + 10, "at least one fence per logged op");
        for _ in 0..10 {
            assert!(q.dequeue(0));
        }
        assert!(!q.dequeue(0));
    }

    #[test]
    fn full_mode_queue_works_and_persists() {
        let r = setup();
        let q = ProntoQueue::new(&r, Mode::Full, 4);
        for i in 0..100u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        for _ in 0..100 {
            assert!(q.dequeue(0));
        }
        let fences = r.pool().stats().snapshot().sfences;
        assert!(fences > 0);
    }

    #[test]
    fn map_semantics_both_modes() {
        for mode in [Mode::Sync, Mode::Full] {
            let r = setup();
            let m = ProntoMap::new(&r, mode, 4, 16);
            assert!(m.insert(0, make_key(1), b"v"));
            assert!(!m.insert(0, make_key(1), b"w"));
            assert!(m.get(0, &make_key(1)));
            assert!(m.remove(0, &make_key(1)));
            assert!(!m.get(0, &make_key(1)));
        }
    }

    #[test]
    fn log_entry_carries_full_value() {
        let r = setup();
        let m = ProntoMap::new(&r, Mode::Sync, 4, 16);
        let big = vec![7u8; 1024];
        let c0 = r.pool().stats().snapshot().clwbs;
        m.insert(0, make_key(1), &big);
        let c1 = r.pool().stats().snapshot().clwbs;
        assert!(c1 - c0 >= 16, "expected ≥16 clwbs, saw {}", c1 - c0);
    }

    #[test]
    fn concurrent_full_mode_threads_get_independent_acks() {
        let r = setup();
        let q = Arc::new(ProntoQueue::new(&r, Mode::Full, 8));
        let mut handles = vec![];
        for t in 0..4usize {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    q.enqueue(t, &i.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut n = 0;
        while q.dequeue(0) {
            n += 1;
        }
        assert_eq!(n, 800);
    }

    #[test]
    fn queue_recovers_from_log_replay_alone() {
        let r = strict_setup();
        let pool = r.pool().clone();
        let q = ProntoQueue::new(&r, Mode::Sync, 4);
        for i in 0..20u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        for _ in 0..5 {
            q.dequeue(1);
        }
        let q2 = ProntoQueue::recover(pool.crash(), Mode::Sync, 4);
        assert_eq!(q2.len(), 15, "strictly durable: every op replayed");
    }

    #[test]
    fn queue_recovers_from_checkpoint_plus_tail() {
        let r = strict_setup();
        let pool = r.pool().clone();
        let q = ProntoQueue::new(&r, Mode::Sync, 4);
        for i in 0..10u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        q.checkpoint();
        for i in 10..15u32 {
            q.enqueue(0, &i.to_le_bytes());
        }
        q.dequeue(0);
        let q2 = ProntoQueue::recover(pool.crash(), Mode::Sync, 4);
        assert_eq!(q2.len(), 14);
        // FIFO order preserved across checkpoint+replay.
        let inner = q2.inner.lock();
        assert_eq!(&inner[0][..], &1u32.to_le_bytes());
        assert_eq!(&inner[13][..], &14u32.to_le_bytes());
    }

    #[test]
    fn map_recovers_checkpoint_plus_tail() {
        let r = strict_setup();
        let pool = r.pool().clone();
        let m = ProntoMap::new(&r, Mode::Sync, 4, 16);
        for i in 0..30 {
            m.insert(0, make_key(i), format!("v{i}").as_bytes());
        }
        m.checkpoint();
        m.remove(0, &make_key(3));
        m.insert(0, make_key(100), b"tail");
        let m2 = ProntoMap::recover(pool.crash(), Mode::Sync, 4, 16);
        assert_eq!(m2.len(), 30);
        assert!(!m2.get(0, &make_key(3)));
        assert!(m2.get(0, &make_key(100)));
        assert!(m2.get(0, &make_key(7)));
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let r = strict_setup();
        let pool = r.pool().clone();
        let m = ProntoMap::new(&r, Mode::Sync, 2, 16);
        for i in 0..10 {
            m.insert(0, make_key(i), b"x");
        }
        m.checkpoint();
        // The logs were truncated: replay after recovery applies nothing.
        let m2 = ProntoMap::recover(pool.crash(), Mode::Sync, 2, 16);
        assert_eq!(m2.len(), 10);
    }
}
