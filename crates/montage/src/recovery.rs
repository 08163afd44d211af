//! Post-crash recovery: sweep, anti-payload cancellation, and handoff of the
//! surviving payload set to data-structure rebuild routines.
//!
//! If the crash occurred in epoch *e* (durable clock = *e*), recovery keeps
//! exactly the payloads labelled with epochs `FIRST_EPOCH ..= e-2` (paper
//! Sec. 3.2 property 2), then cancels uid groups containing an anti-payload
//! and keeps only the newest surviving version of each uid. Everything else
//! returns to the allocator's free lists, durably tombstoned so a later
//! crash cannot resurrect it.
//!
//! Recovery is **panic-free**: [`try_recover`] returns a typed
//! [`RecoveryError`] for fatal problems (no format magic, corrupt clock) and
//! *quarantines* individual blocks that fail header validation — a torn or
//! corrupted payload costs exactly that payload, never the heap. The
//! [`RecoveryReport`] attached to the result accounts for every block the
//! sweep saw.

use crate::sync::{AtomicUsize, Ordering};
use std::cmp::Reverse;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{POff, PmemPool};
use ralloc::Ralloc;

use crate::config::EsysConfig;
use crate::errors::RecoveryError;
use crate::esys::{EpochSys, CLOCK_SLOT, FIRST_EPOCH};
use crate::payload::{Header, PHandle, PayloadKind, HDR_SIZE, MAGIC_LIVE};

/// One surviving payload, as handed to structure rebuild code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredItem {
    /// Block offset (header included); convert with [`RecoveredItem::handle`].
    pub blk: POff,
    /// The structure-routing tag passed to `PNEW`.
    pub tag: u16,
    pub uid: u64,
    pub epoch: u64,
    /// User-data size in bytes.
    pub size: u32,
}

impl RecoveredItem {
    /// A typed handle to this payload (caller asserts the type via the tag).
    pub fn handle<T: ?Sized>(&self) -> PHandle<T> {
        PHandle::from_raw(self.blk)
    }
}

/// A block recovery refused to trust, with the validation failure that
/// condemned it. The block is durably tombstoned and returned to the free
/// lists; its (suspect) contents are not handed to rebuild code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedPayload {
    pub blk: POff,
    pub reason: RecoveryError,
}

/// Block-level accounting for one recovery pass.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Live payloads handed to rebuild code.
    pub survivors: usize,
    /// Valid payloads discarded by uid cancellation (anti-payloads, stale
    /// versions, and groups killed by a DELETE).
    pub cancelled: usize,
    /// Valid payloads from epochs newer than the recovery cutoff — the
    /// normal buffered-durability loss window (at most two epochs).
    pub discarded_recent: usize,
    /// Blocks that failed header validation and were quarantined.
    pub quarantined: Vec<QuarantinedPayload>,
    /// Wall time of the allocator sweep (every block validated and
    /// checksummed) and of uid cancellation with its tombstone batch.
    pub sweep: Duration,
    pub cancel: Duration,
}

/// The outcome of recovery: a fresh epoch system over the surviving heap and
/// the survivors, sharded for parallel rebuild.
pub struct RecoveredState {
    pub esys: Arc<EpochSys>,
    /// The survivors in block-address order, cut into `k` contiguous shards
    /// (the paper's "k separate iterators, to be used by k separate
    /// application threads"): a function of the crashed image alone, and a
    /// rebuild that walks them reads the image front to back.
    pub shards: Vec<Vec<RecoveredItem>>,
    /// What the sweep saw: survivors, cancellations, frontier loss, and
    /// quarantined corruption.
    pub report: RecoveryReport,
}

impl RecoveredState {
    /// Reads a survivor's user data by value.
    pub fn read<T: Copy>(&self, item: &RecoveredItem) -> T {
        debug_assert_eq!(std::mem::size_of::<T>() as u32, item.size);
        // SAFETY: the sweep checksummed this survivor, so its data bytes are
        // in bounds and intact; the caller picks a T matching the payload.
        unsafe { self.esys.pool().read(Header::data(item.blk)) }
    }

    /// Runs `f` on a survivor's raw bytes.
    pub fn with_bytes<R>(&self, item: &RecoveredItem, f: impl FnOnce(&[u8]) -> R) -> R {
        // SAFETY: (both lines) the sweep validated this survivor's header,
        // so `data..data+size` is in bounds and initialized.
        let ptr = unsafe { self.esys.pool().at::<u8>(Header::data(item.blk)) };
        f(unsafe { std::slice::from_raw_parts(ptr, item.size as usize) })
    }

    /// Total number of survivors across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Recovers Montage state from a crashed pool using `k` sweep threads.
///
/// Panics if the pool was never formatted by [`EpochSys::format`] or the
/// clock is corrupt; library code should prefer [`try_recover`].
pub fn recover(pool: PmemPool, cfg: EsysConfig, k: usize) -> RecoveredState {
    match try_recover(pool, cfg, k) {
        Ok(state) => state,
        Err(e) => panic!("{e}"),
    }
}

/// Panic-free [`recover`]: fatal problems (nothing to recover *to*) come
/// back as [`RecoveryError`]; per-block corruption is quarantined into the
/// result's [`RecoveryReport`] and recovery carries on.
pub fn try_recover(
    pool: PmemPool,
    cfg: EsysConfig,
    k: usize,
) -> Result<RecoveredState, RecoveryError> {
    if !EpochSys::is_formatted(&pool) || !Ralloc::is_formatted(&pool) {
        return Err(RecoveryError::UnformattedPool);
    }
    // Everything from here to the return consumes post-crash state: open the
    // persist-san recovery window so a read of a line whose content never
    // became durable is caught at the reading site (no-op without the
    // feature). Validating probes opt out individually via `san_probe`.
    pool.san_begin_recovery();
    // SAFETY: the clock root slot is an in-bounds metadata word; any bit
    // pattern is a valid u64 and is range-checked just below.
    let durable_epoch = unsafe { pool.read::<u64>(POff::root_slot(CLOCK_SLOT)) };
    if durable_epoch < FIRST_EPOCH {
        pool.san_end_recovery();
        return Err(RecoveryError::CorruptClock {
            found: durable_epoch,
        });
    }
    let cutoff = durable_epoch - 2;
    let k = k.max(1);

    // Phase 1: allocator sweep — keep blocks whose contents are a live
    // payload from a fully persisted epoch. Blocks with live magic but an
    // invalid header (failed checksum, bad kind, an epoch the pool never
    // durably reached, or a size overflowing the block) are quarantined:
    // recorded, *kept out of the free lists for now* (a rejected block gets
    // a free-list link written into its first bytes, which the tombstone
    // pass below would clobber — see the dealloc at the end of phase 2),
    // and freed below like any other loser.
    let t_sweep = Instant::now();
    let discarded_recent = AtomicUsize::new(0);
    let sweep_pool = pool.clone();
    let (ralloc, swept) = {
        let discarded_recent = &discarded_recent;
        Ralloc::recover_parallel(pool.clone(), k, move |blk, usable| {
            // Only the verdict is a validating probe: it reads arbitrary
            // swept blocks precisely in order to decide whether to trust
            // them, so its reads are exempt from the dirty-read check.
            let verdict = sweep_pool.san_probe(|| {
                if Header::magic(&sweep_pool, blk) != MAGIC_LIVE {
                    return Ok(None); // free slot or tombstone: not a payload
                }
                let kind = validate_header(&sweep_pool, blk, usable, durable_epoch)?;
                if Header::epoch(&sweep_pool, blk) > cutoff {
                    // Valid, but from the at-risk window buffered durability
                    // gives up on: normal frontier loss, not corruption.
                    // ord(counter): recovery-time tally across the sweep.
                    discarded_recent.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                }
                Ok(Some(kind))
            });
            match verdict {
                Ok(None) => None,
                // Stays allocated; tombstoned + freed below.
                Err(reason) => Some(Err(QuarantinedPayload { blk, reason })),
                // The fields cancellation and rebuild act on are read here,
                // once, outside the probe and while the line is hot: a kept
                // header that never became durable is flagged at this read.
                Ok(Some(kind)) => Some(Ok((
                    RecoveredItem {
                        blk,
                        tag: Header::tag(&sweep_pool, blk),
                        uid: Header::uid(&sweep_pool, blk),
                        epoch: Header::epoch(&sweep_pool, blk),
                        size: Header::size(&sweep_pool, blk),
                    },
                    kind,
                ))),
            }
        })
    };
    // Quarantined headers are exactly what recovery refused to trust: they
    // rode the sweep's kept set (allocated until the explicit dealloc below)
    // but never reach cancellation.
    let mut quarantined = Vec::new();
    let mut headers = Vec::with_capacity(swept.iter().map(Vec::len).sum());
    for block in swept.into_iter().flatten() {
        match block {
            Ok(header) => headers.push(header),
            Err(q) => quarantined.push(q),
        }
    }
    let sweep = t_sweep.elapsed();

    // Phase 2: uid cancellation over the headers the sweep parsed.
    let t_cancel = Instant::now();
    let (survivors, discards, max_uid) = cancel(headers);

    // Durably tombstone and free the losers — and overwrite the quarantined
    // headers too, so their live-looking magic can never be swept up again
    // after a second crash (one batched flush + fence). Ordering matters:
    // the tombstone must land *before* the dealloc, because freeing writes a
    // transient free-list link into the block's first bytes — the reverse
    // order would clobber the link and corrupt the free list.
    for &blk in &discards {
        Header::tombstone(&pool, blk);
        pool.clwb(blk);
    }
    for q in &quarantined {
        Header::tombstone(&pool, q.blk);
        pool.clwb(q.blk);
    }
    if !discards.is_empty() || !quarantined.is_empty() {
        pool.sfence();
    }
    for blk in &discards {
        ralloc.dealloc(*blk);
    }
    for q in &quarantined {
        ralloc.dealloc(q.blk);
    }

    // Phase 3: restart the clock two epochs past the crash point so every
    // survivor is strictly older than any new work, and persist it.
    let new_epoch = durable_epoch + 2;
    // SAFETY: in-bounds root-slot word; recovery is single-threaded.
    unsafe { pool.write(POff::root_slot(CLOCK_SLOT), &new_epoch) };
    pool.persist_range(POff::root_slot(CLOCK_SLOT), 8);
    pool.san_end_recovery();

    pool.stats().on_quarantine(quarantined.len() as u64);
    let report = RecoveryReport {
        survivors: survivors.len(),
        cancelled: discards.len(),
        discarded_recent: discarded_recent.into_inner(),
        quarantined,
        sweep,
        cancel: t_cancel.elapsed(),
    };

    let esys = Arc::new(EpochSys::from_parts(pool, ralloc, cfg, max_uid + 1));

    // `k` contiguous runs of the address-ordered survivors.
    let per_shard = survivors.len().div_ceil(k).max(1);
    let mut shards: Vec<Vec<RecoveredItem>> =
        survivors.chunks(per_shard).map(<[_]>::to_vec).collect();
    shards.resize_with(k, Vec::new);
    Ok(RecoveredState {
        esys,
        shards,
        report,
    })
}

/// The kind of an intact live-magic block, or why it cannot be trusted.
/// Validation order matters only for which reason gets reported: the
/// checksum subsumes almost everything, so field checks run first to give
/// the more specific diagnosis.
fn validate_header(
    pool: &PmemPool,
    blk: POff,
    usable: usize,
    durable_epoch: u64,
) -> Result<PayloadKind, RecoveryError> {
    let kind = Header::kind(pool, blk).ok_or(RecoveryError::CorruptHeader { blk })?;
    let epoch = Header::epoch(pool, blk);
    if epoch < FIRST_EPOCH || epoch > durable_epoch {
        // No running execution can have labelled a payload past the durable
        // clock: such an epoch is a phantom from a torn header.
        return Err(RecoveryError::CorruptHeader { blk });
    }
    let size = Header::size(pool, blk);
    if size as usize + HDR_SIZE > usable {
        return Err(RecoveryError::TruncatedPayload {
            blk,
            size,
            usable: usable as u32,
        });
    }
    if !Header::checksum_ok(pool, blk) {
        return Err(RecoveryError::CorruptHeader { blk });
    }
    Ok(kind)
}

/// Uid cancellation over the swept headers: returns (survivors in block-
/// address order, blocks to discard, max uid seen).
///
/// One sort brings each uid's versions together, oldest first; one walk over
/// the runs decides them. A `DELETE` anti-payload kills its whole run;
/// otherwise the newest epoch wins — of equal epochs the lowest block, which
/// sorts last within its epoch — and every other version is discarded.
fn cancel(mut headers: Vec<(RecoveredItem, PayloadKind)>) -> (Vec<RecoveredItem>, Vec<POff>, u64) {
    headers.sort_unstable_by_key(|(it, _)| (it.uid, it.epoch, Reverse(it.blk)));
    let max_uid = headers.last().map_or(0, |(it, _)| it.uid);
    let mut survivors = Vec::with_capacity(headers.len());
    let mut discards = Vec::new();
    for run in headers.chunk_by(|(a, _), (b, _)| a.uid == b.uid) {
        let deleted = run.iter().any(|(_, kind)| *kind == PayloadKind::Delete);
        let (losers, winner) = run.split_at(run.len() - usize::from(!deleted));
        discards.extend(losers.iter().map(|(it, _)| it.blk));
        survivors.extend(winner.iter().map(|(it, _)| *it));
    }
    survivors.sort_unstable_by_key(|it| it.blk);
    (survivors, discards, max_uid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esys::tests::sanitizer_on;
    use pmem::PmemConfig;

    fn strict_sys() -> Arc<EpochSys> {
        sys_of(PmemConfig::strict_for_test(32 << 20))
    }

    fn sys_of(cfg: PmemConfig) -> Arc<EpochSys> {
        EpochSys::format(PmemPool::new(cfg), EsysConfig::default())
    }

    /// Drives enough epoch advances that everything through the current
    /// epoch is durable.
    fn settle(s: &EpochSys) {
        s.sync();
    }

    #[test]
    fn payload_synced_before_crash_survives() {
        let s = strict_sys();
        let tid = s.register_thread();
        {
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 42, &777u64);
        }
        settle(&s);
        let crashed = s.pool().crash();
        let rec = recover(crashed, EsysConfig::default(), 1);
        assert_eq!(rec.len(), 1);
        let item = rec.shards[0][0];
        assert_eq!(item.tag, 42);
        assert_eq!(rec.read::<u64>(&item), 777);
    }

    #[test]
    fn unsynced_payload_is_lost() {
        let s = strict_sys();
        let tid = s.register_thread();
        {
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 42, &777u64);
        }
        // No sync, no epoch advance: buffered work must be lost.
        let crashed = s.pool().crash();
        let rec = recover(crashed, EsysConfig::default(), 1);
        assert_eq!(rec.len(), 0, "buffered-durable semantics: recent work lost");
    }

    #[test]
    fn deleted_payload_is_cancelled_by_anti_payload() {
        let s = strict_sys();
        let tid = s.register_thread();
        let h = {
            let g = s.begin_op(tid);
            s.pnew(&g, 1, &1u64)
        };
        settle(&s);
        {
            let g = s.begin_op(tid);
            s.pdelete(&g, h).unwrap();
        }
        settle(&s); // delete persisted; reclamation may or may not have run
        let crashed = s.pool().crash();
        let rec = recover(crashed, EsysConfig::default(), 1);
        assert_eq!(rec.len(), 0, "anti-payload must cancel the payload");
    }

    #[test]
    fn update_keeps_only_newest_version() {
        let s = strict_sys();
        let tid = s.register_thread();
        let h = {
            let g = s.begin_op(tid);
            s.pnew(&g, 1, &10u64)
        };
        settle(&s);
        {
            let g = s.begin_op(tid);
            let _ = s.set(&g, h, |v| *v = 20).unwrap();
        }
        settle(&s);
        let crashed = s.pool().crash();
        let rec = recover(crashed, EsysConfig::default(), 1);
        assert_eq!(rec.len(), 1, "one logical object, one survivor");
        assert_eq!(rec.read::<u64>(&rec.shards[0][0]), 20);
    }

    #[test]
    fn crash_between_versions_recovers_old_value() {
        let s = strict_sys();
        let tid = s.register_thread();
        let h = {
            let g = s.begin_op(tid);
            s.pnew(&g, 1, &10u64)
        };
        settle(&s);
        {
            let g = s.begin_op(tid);
            let _ = s.set(&g, h, |v| *v = 20).unwrap();
        }
        // Crash before the update persists: consistent prefix = old value.
        let crashed = s.pool().crash();
        let rec = recover(crashed, EsysConfig::default(), 1);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.read::<u64>(&rec.shards[0][0]), 10);
    }

    #[test]
    fn recovery_clock_jumps_two_epochs() {
        let s = strict_sys();
        settle(&s);
        let e = s.curr_epoch();
        let crashed = s.pool().crash();
        let rec = recover(crashed, EsysConfig::default(), 1);
        assert_eq!(rec.esys.curr_epoch(), e + 2);
    }

    #[test]
    fn recovered_system_is_usable_and_recrashable() {
        let s = strict_sys();
        let tid = s.register_thread();
        {
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 7, &1u64);
        }
        settle(&s);
        let rec = recover(s.pool().crash(), EsysConfig::default(), 1);
        let s2 = rec.esys.clone();
        let tid2 = s2.register_thread();
        {
            let g = s2.begin_op(tid2);
            let _ = s2.pnew(&g, 7, &2u64);
        }
        s2.sync();
        let rec2 = recover(s2.pool().crash(), EsysConfig::default(), 1);
        let mut vals: Vec<u64> = rec2.shards[0].iter().map(|i| rec2.read::<u64>(i)).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 2], "survivors from both generations");
    }

    #[test]
    fn parallel_recovery_shards_are_disjoint_and_complete() {
        let s = strict_sys();
        let tid = s.register_thread();
        for i in 0..200u64 {
            let g = s.begin_op(tid);
            let _ = s.pnew(&g, 3, &i);
        }
        settle(&s);
        let rec = recover(s.pool().crash(), EsysConfig::default(), 4);
        assert_eq!(rec.shards.len(), 4);
        let mut vals: Vec<u64> = rec
            .shards
            .iter()
            .flatten()
            .map(|i| rec.read::<u64>(i))
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..200).collect::<Vec<_>>());
        // Shards are contiguous cuts of one address-ordered sequence: each
        // strictly ascending, each wholly below the next.
        let blks: Vec<POff> = rec.shards.iter().flatten().map(|i| i.blk).collect();
        assert!(blks.windows(2).all(|w| w[0] < w[1]), "address order");
        assert!(rec.shards.iter().all(|shard| shard.len() == 50), "even cut");
        // And a function of the image alone: a second copy of the same cut,
        // swept by a different number of threads, yields the same sequence.
        let again = recover(s.pool().crash(), EsysConfig::default(), 3);
        let items = |r: &RecoveredState| r.shards.iter().flatten().copied().collect::<Vec<_>>();
        assert_eq!(items(&again), items(&rec));
    }

    #[test]
    fn new_uids_do_not_collide_with_recovered() {
        let s = strict_sys();
        let tid = s.register_thread();
        let h = {
            let g = s.begin_op(tid);
            s.pnew(&g, 1, &5u64)
        };
        let old_uid = Header::uid(s.pool(), h.raw());
        settle(&s);
        let rec = recover(s.pool().crash(), EsysConfig::default(), 1);
        let s2 = rec.esys.clone();
        let tid2 = s2.register_thread();
        let g = s2.begin_op(tid2);
        let h2 = s2.pnew(&g, 1, &6u64);
        assert_ne!(Header::uid(s2.pool(), h2.raw()), old_uid);
    }

    /// Writes one payload by hand, bypassing the epoch system: any
    /// `(kind, uid, epoch)` a test wants to find at recovery. `durable` says
    /// whether its lines are written back and fenced.
    fn plant(s: &EpochSys, kind: PayloadKind, uid: u64, epoch: u64, durable: bool) -> POff {
        let blk = s.allocator().alloc(HDR_SIZE + 8);
        let data = uid.to_le_bytes();
        s.pool().write_bytes(Header::data(blk), &data);
        let sum = Header::data_sum(&data);
        Header::write_new(s.pool(), blk, kind, 9, epoch, uid, 8, sum);
        if durable {
            s.pool().persist_range(blk, HDR_SIZE + 8);
        }
        blk
    }

    #[test]
    fn cancellation_matches_a_btreemap_model_for_every_k() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        use PayloadKind::{Alloc, Delete, Update};

        let mut rng = SmallRng::seed_from_u64(0xCA9CE1);
        // Run shapes the random multisets must reach: a delete-only run, a
        // delete under a later-epoch update, an equal-epoch tie for newest.
        let mut seen = [false; 3];
        for round in 0..32 {
            let s = sys_of(PmemConfig::strict_for_test(4 << 20));
            for _ in 0..6 {
                s.advance_epoch(); // epochs FIRST_EPOCH..=FIRST_EPOCH+4 are kept
            }
            let mut model: BTreeMap<u64, Vec<(u64, POff, PayloadKind)>> = BTreeMap::new();
            for _ in 0..rng.gen_range(1..48) {
                let (uid, epoch) = (rng.gen_range(1..10u64), FIRST_EPOCH + rng.gen_range(0..4));
                let kind = [Alloc, Update, Update, Update, Delete][rng.gen_range(0..5)];
                let blk = plant(&s, kind, uid, epoch, true);
                model.entry(uid).or_default().push((epoch, blk, kind));
            }
            // The model: a delete kills its uid; else newest epoch, lowest block.
            let mut want: Vec<POff> = Vec::new();
            for versions in model.values() {
                let newest = versions.iter().map(|v| v.0).max().unwrap();
                let deletes = versions.iter().filter(|v| v.2 == Delete).count();
                seen[0] |= deletes == versions.len();
                seen[1] |= versions.iter().any(|v| v.2 == Delete && v.0 < newest);
                seen[2] |= versions.iter().filter(|v| v.0 == newest).count() > 1;
                if deletes == 0 {
                    let top = versions.iter().filter(|v| v.0 == newest);
                    want.push(top.map(|v| v.1).min().unwrap());
                }
            }
            want.sort_unstable();
            let total: usize = model.values().map(Vec::len).sum();
            for k in [1, 2, 4] {
                let rec = recover(s.pool().crash(), EsysConfig::default(), k);
                let blks = |r: &RecoveredState| -> Vec<POff> {
                    r.shards.iter().flatten().map(|it| it.blk).collect()
                };
                assert_eq!(blks(&rec), want, "round {round} k {k}");
                assert_eq!(
                    rec.report.cancelled,
                    total - want.len(),
                    "round {round} k {k}"
                );
                let tid = rec.esys.register_thread();
                let fresh = rec.esys.pnew(&rec.esys.begin_op(tid), 9, &0u64);
                assert_eq!(
                    Header::uid(rec.esys.pool(), fresh.raw()),
                    model.keys().max().unwrap() + 1,
                    "round {round} k {k}: uids restart past the largest one seen"
                );
                // The losers are durably gone: a second crash finds the
                // survivors and nothing to cancel.
                let again = recover(rec.esys.pool().crash(), EsysConfig::default(), k);
                assert_eq!(blks(&again), want, "round {round} k {k}");
                assert_eq!(again.report.cancelled, 0, "round {round} k {k}");
            }
        }
        assert_eq!(seen, [true; 3], "the multisets missed a run shape");
    }

    /// The sweep's verdict runs inside `san_probe`, which exempts its reads.
    /// A kept payload's header must still meet the dirty-read check — at the
    /// sweep's one read of the fields it hands on — or a header that never
    /// became durable would reach cancellation and rebuild unseen.
    #[test]
    fn kept_header_that_never_became_durable_is_flagged_at_the_sweeps_read() {
        let mut cfg = PmemConfig::strict_for_test(8 << 20);
        // The power cut writes back every line, fenced or not: the planted
        // payload reaches the image with valid bytes, never having been
        // flushed — only the shadow state knows.
        cfg.chaos.spontaneous_evict_permille = 1000;
        let s = sys_of(cfg);
        for _ in 0..4 {
            s.advance_epoch();
        }
        plant(&s, PayloadKind::Alloc, 7, FIRST_EPOCH, false);
        let crashed = s.pool().crash();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            try_recover(crashed, EsysConfig::default(), 1).map(|rec| rec.len())
        }));
        match outcome {
            Err(panic) => {
                assert!(sanitizer_on(), "recovery panicked without the sanitizer");
                let msg = panic.downcast_ref::<String>().expect("a formatted panic");
                assert!(msg.contains("recovery-time read"), "msg = {msg}");
            }
            // Without the sanitizer the bytes are simply valid and kept —
            // which is what makes the flag above the sweep's read, not a
            // validation failure.
            Ok(kept) => {
                assert!(
                    !sanitizer_on(),
                    "a never-durable kept header went unflagged"
                );
                assert_eq!(kept, Ok(1));
            }
        }
    }
}
