//! The acceptance tests for deterministic crash-point fault injection:
//!
//! 1. An exhaustive crash sweep over a mixed Montage hashmap + queue
//!    workload (several hundred persistence events): at *every* event
//!    boundary, recovery must yield exactly the abstract state after some
//!    prefix of the operation history — buffered durable linearizability,
//!    checked at machine granularity rather than at hand-picked moments.
//! 2. A deliberately corrupted pool: `montage::try_recover` must quarantine
//!    the corrupt payload into the `RecoveryReport` and carry on, never
//!    panic — and the quarantined block must stay dead across a second
//!    crash.
//! 3. A torn pending header (the `torn_line_permille` chaos knob): the
//!    header checksum must catch the tear and recovery must quarantine it.
//! 4. Property-based: random op sequences × sampled crash points.
//! 5. A *stall* sweep: at every persistence event of a single-threaded
//!    hashmap workload, park that thread mid-instruction, require a peer's
//!    puts + `sync`s to complete anyway (nonblocking advance), then cut the
//!    power with the victim still parked and require (a) the victim's ops
//!    recover as a consistent prefix and (b) nothing the peer synced is
//!    lost — the helpers' write-backs on the victim's behalf must never
//!    corrupt, and the bypassing fence must still cover acked work. The same
//!    schedule over a Montage-backed `kvstore` whose victim *resizes* values:
//!    every cut recovers each key exactly once.
//! 6. A *mid-resize* sweep: a tiny-table workload that drives the hashmap
//!    through three full online resizes, crashed exhaustively at every
//!    persistence event of the key payloads those resizes move between
//!    levels (the resize itself persists nothing). Recovery must land on the
//!    state after some prefix of the op history (per key: exactly the pre-
//!    or the post-migration view, never a torn mix within one bucket), must
//!    never resurrect an in-flight resize, and the recovered map must remain
//!    fully usable.

use std::collections::{HashMap, VecDeque};

use montage::payload::MAGIC_LIVE;
use montage::{EpochSys, EsysConfig, RecoveryError};
use montage_ds::{MontageHashMap, MontageQueue};
use pmem::{PmemConfig, PmemPool};
use pmem_chaos::{crash_sweep, SweepConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Key = [u8; 32];

const QTAG: u16 = 2;
const MTAG: u16 = 3;
const NBUCKETS: usize = 8;
const KEY_SPACE: u64 = 8;

fn key(i: u64) -> Key {
    let mut k = [0u8; 32];
    k[..8].copy_from_slice(&i.to_le_bytes());
    k
}

fn small_esys_cfg() -> EsysConfig {
    EsysConfig {
        max_threads: 2,
        ..Default::default()
    }
}

/// One step of the mixed workload. `Sync` is a durability barrier, not a
/// state change, so the model ignores it.
#[derive(Clone, Copy, Debug)]
enum Op {
    Enq(u64),
    Deq,
    Put(u64, u64),
    Remove(u64),
    Sync,
}

fn mixed_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|i| match rng.gen_range(0u64..10) {
            0..=2 => Op::Enq(i as u64),
            3 => Op::Deq,
            4..=6 => Op::Put(rng.gen_range(0..KEY_SPACE), i as u64),
            7 => Op::Remove(rng.gen_range(0..KEY_SPACE)),
            _ => Op::Sync,
        })
        .collect()
}

/// Runs the script on a fresh Montage system over `pool`, using the checked
/// operations so a tripping fault plan degrades instead of panicking.
fn run_mixed(pool: &PmemPool, script: &[Op]) {
    let esys = EpochSys::format(pool.clone(), small_esys_cfg());
    let tid = esys.register_thread();
    let q = MontageQueue::new(esys.clone(), QTAG);
    let m = MontageHashMap::<Key>::new(esys.clone(), MTAG, NBUCKETS);
    for op in script {
        match *op {
            Op::Enq(v) => {
                let _ = pool.checked(|| q.enqueue(tid, &v.to_le_bytes()));
            }
            Op::Deq => {
                let _ = pool.checked(|| q.dequeue(tid));
            }
            Op::Put(k, v) => {
                let _ = pool.checked(|| m.put(tid, key(k), &v.to_le_bytes()));
            }
            Op::Remove(k) => {
                let _ = pool.checked(|| m.remove(tid, &key(k)));
            }
            Op::Sync => {
                let _ = esys.try_sync();
            }
        }
    }
}

/// Abstract state of the pair of structures.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model {
    queue: VecDeque<Vec<u8>>,
    map: HashMap<u64, Vec<u8>>,
}

impl Model {
    fn apply(&mut self, op: Op) {
        match op {
            Op::Enq(v) => self.queue.push_back(v.to_le_bytes().to_vec()),
            Op::Deq => {
                self.queue.pop_front();
            }
            Op::Put(k, v) => {
                self.map.insert(k, v.to_le_bytes().to_vec());
            }
            Op::Remove(k) => {
                self.map.remove(&k);
            }
            Op::Sync => {}
        }
    }
}

/// Recovers both structures from `durable` and checks the state equals the
/// model after **some** prefix of `script`. `Err(reason)` otherwise.
fn verify_mixed_prefix(durable: PmemPool, crash_at: u64, script: &[Op]) -> Result<(), String> {
    let rec = match montage::try_recover(durable, small_esys_cfg(), 1) {
        // A crash before the pool header became durable recovers to the
        // empty pre-history state — the trivial prefix.
        Err(RecoveryError::UnformattedPool) => return Ok(()),
        Err(e) => return Err(format!("crash_at={crash_at}: recovery failed: {e}")),
        Ok(rec) => rec,
    };
    if !rec.report.quarantined.is_empty() {
        return Err(format!(
            "crash_at={crash_at}: clean crash quarantined payloads: {:?}",
            rec.report.quarantined
        ));
    }
    let q = MontageQueue::recover(rec.esys.clone(), QTAG, &rec);
    let m = MontageHashMap::<Key>::recover(rec.esys.clone(), MTAG, NBUCKETS, &rec);
    let tid = rec.esys.register_thread();

    let mut recovered = Model::default();
    while let Some(v) = q.dequeue(tid) {
        recovered.queue.push_back(v);
    }
    for k in 0..KEY_SPACE {
        if let Some(v) = m.get_owned(tid, &key(k)) {
            recovered.map.insert(k, v);
        }
    }

    // Compare against every prefix of the history.
    let mut model = Model::default();
    if recovered == model {
        return Ok(());
    }
    for (i, &op) in script.iter().enumerate() {
        model.apply(op);
        if recovered == model {
            return Ok(());
        }
        let _ = i;
    }
    Err(format!(
        "crash_at={crash_at}: recovered state matches no prefix of the history: {recovered:?}"
    ))
}

/// Acceptance criterion: an exhaustive sweep over a ≥200-persistence-event
/// mixed workload passes the consistent-prefix check at every crash point.
#[test]
fn montage_mixed_workload_is_prefix_consistent_at_every_crash_point() {
    let script = mixed_script(0xC0FFEE, 56);
    let cfg = SweepConfig {
        exhaustive_limit: 4096, // force exhaustiveness even if the workload grows
        samples: 64,
        seed: 0xD15EA5E,
    };
    let report = crash_sweep(
        &cfg,
        PmemConfig::strict_for_test(8 << 20),
        |pool| run_mixed(pool, &script),
        |durable, crash_at| verify_mixed_prefix(durable, crash_at, &script),
    );
    assert!(
        report.total_events >= 200,
        "workload too small for a meaningful sweep: {} events",
        report.total_events
    );
    assert_eq!(
        report.crash_points.len() as u64,
        report.total_events + 1,
        "sweep must be exhaustive"
    );
    report.assert_ok();
}

/// Builds a synced pool holding `n` queue payloads and returns it crashed
/// (durable image only) along with the payload block offsets.
fn synced_payload_pool(n: u64, chaos_torn: bool, seed: u64) -> (PmemPool, Vec<pmem::POff>) {
    let mut cfg = PmemConfig::strict_for_test(8 << 20);
    if chaos_torn {
        cfg.chaos.torn_line_permille = 1000;
        cfg.chaos.seed = seed;
    }
    let pool = PmemPool::new(cfg);
    let esys = EpochSys::format(pool.clone(), small_esys_cfg());
    let tid = esys.register_thread();
    let mut blks = Vec::new();
    for i in 0..n {
        let g = esys.begin_op(tid);
        let h = esys.pnew_bytes(&g, QTAG, &i.to_le_bytes());
        blks.push(h.raw());
        drop(g);
    }
    esys.sync();
    (pool, blks)
}

/// Acceptance criterion: `try_recover` on a deliberately corrupted pool
/// returns a `RecoveryReport` with the corrupt payload quarantined instead
/// of panicking — and the quarantined block stays dead after another crash.
#[test]
fn corrupted_header_is_quarantined_not_fatal() {
    let (pool, blks) = synced_payload_pool(6, false, 0);
    let victim = blks[2];
    // Corrupt the victim's header *durably*: invalid kind byte, which also
    // invalidates the header checksum.
    // SAFETY: in-bounds header byte of a payload this test created; the
    // test is single-threaded.
    unsafe { pool.write::<u8>(victim.add(4), &0xFF) };
    pool.persist_range(victim, 8);

    let rec = montage::try_recover(pool.crash(), small_esys_cfg(), 1)
        .expect("recovery must degrade, not fail");
    assert_eq!(
        rec.report.quarantined.len(),
        1,
        "exactly the corrupted payload is quarantined: {:?}",
        rec.report.quarantined
    );
    assert_eq!(rec.report.quarantined[0].blk, victim);
    assert!(matches!(
        rec.report.quarantined[0].reason,
        RecoveryError::CorruptHeader { .. }
    ));
    assert_eq!(rec.report.survivors, 5, "the other payloads survive");
    assert_eq!(
        rec.esys.pool().stats().snapshot().quarantined_payloads,
        1,
        "quarantine is visible in the pool statistics"
    );

    // Crash again without touching anything: the tombstoned block must not
    // resurrect, and nothing else gets quarantined.
    let rec2 = montage::try_recover(rec.esys.pool().crash(), small_esys_cfg(), 1)
        .expect("second recovery");
    assert_eq!(rec2.report.survivors, 5);
    assert!(rec2.report.quarantined.is_empty());
}

/// A payload whose epoch field claims to be old enough to survive, but whose
/// header line was still pending (clwb'd, unfenced) when the power died and
/// got *torn* by `torn_line_permille`: the checksum catches the mixed-word
/// header and recovery quarantines it rather than resurrecting it.
#[test]
fn torn_pending_header_is_quarantined() {
    let mut quarantined_seen = 0;
    for seed in 0..8u64 {
        let (pool, blks) = synced_payload_pool(4, true, seed);
        let victim = blks[1];
        // Rewrite the victim's header in the working image with *different*
        // field values (new tag, new uid, garbage checksum) but a
        // still-plausible epoch, then clwb WITHOUT a fence: the line is
        // pending at crash time, so the chaos config tears it — a strict
        // 1..=7-word prefix of the new line lands on the old durable words.
        // SAFETY: all seven writes land inside the victim's 32-byte header,
        // which this single-threaded test owns.
        unsafe {
            pool.write::<u32>(victim, &MAGIC_LIVE);
            pool.write::<u8>(victim.add(4), &1u8); // kind: Alloc
            pool.write::<u16>(victim.add(6), &0x7777u16); // different tag
            pool.write::<u64>(victim.add(8), &2u64); // plausible old epoch
            pool.write::<u64>(victim.add(16), &0xABCD_EF01u64); // different uid
            pool.write::<u32>(victim.add(24), &8u32);
            pool.write::<u32>(victim.add(28), &0xBAD_C0DE_u32); // bogus checksum
        }
        // lint: allow(flush-no-fence): the fence is deliberately omitted so the line is pending at crash time and gets torn
        pool.clwb(victim);

        let rec = montage::try_recover(pool.crash(), small_esys_cfg(), 1)
            .expect("torn header must degrade recovery, not kill it");
        assert!(
            pool.stats().snapshot().torn_lines >= 1,
            "seed {seed}: the pending header line must have been torn"
        );
        // Whatever prefix the tear kept, the mixed header can never checksum
        // clean (old suffix with new prefix, or the bogus checksum itself):
        // the victim must be quarantined, never a survivor.
        let resurrected = rec
            .shards
            .iter()
            .flatten()
            .any(|it| it.blk == victim && it.tag == 0x7777);
        assert!(!resurrected, "seed {seed}: torn header resurrected");
        if rec.report.quarantined.iter().any(|qp| qp.blk == victim) {
            quarantined_seen += 1;
        }
    }
    assert!(
        quarantined_seen > 0,
        "no seed produced a quarantined torn header"
    );
}

// ---- stall-point sweep: liveness + crash cuts during helping ----------------

/// Mirrors `MontageHashMap::index` (DefaultHasher is deterministic), so the
/// stall sweep can pick peer keys that avoid every bucket the parked victim
/// might be holding locked.
fn bucket_of(k: &Key) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    (h.finish() as usize) % NBUCKETS
}

const STALL_VICTIM_PUTS: u64 = 6;
const STALL_PEER_PUTS: u64 = 3;

fn stall_victim_key(i: u64) -> Key {
    key(1000 + i)
}

/// Peer keys: the first `STALL_PEER_PUTS` candidates whose bucket collides
/// with no victim key's bucket (the victim parks holding one of those locks).
fn stall_peer_keys() -> Vec<Key> {
    let victim_buckets: std::collections::HashSet<usize> = (0..STALL_VICTIM_PUTS)
        .map(|i| bucket_of(&stall_victim_key(i)))
        .collect();
    (0..)
        .map(|j| key(2000 + j))
        .filter(|k| !victim_buckets.contains(&bucket_of(k)))
        .take(STALL_PEER_PUTS as usize)
        .collect()
}

/// Both stall sweeps are exhaustive: their workloads stay far below the limit.
fn stall_sweep_cfg() -> SweepConfig {
    SweepConfig {
        exhaustive_limit: 4096,
        samples: 64,
        seed: 0x57A11,
    }
}

/// Every event boundary visited, the victim parked at every interior one, no
/// failure at any.
fn assert_exhaustive_stall_sweep(report: &pmem_chaos::StallSweepReport) {
    assert!(
        report.total_events >= 64,
        "victim workload too small for a meaningful stall sweep: {} events",
        report.total_events
    );
    assert_eq!(
        report.stall_points.len() as u64,
        report.total_events + 1,
        "stall sweep must be exhaustive"
    );
    assert_eq!(
        report.parked_points as u64, report.total_events,
        "every interior stall point must park the victim"
    );
    report.assert_ok();
}

/// Recovers the image a stall sweep cut with its victim parked. `Ok(None)`:
/// the cut fell before the pool header became durable. Helpers writing back
/// on the victim's behalf must never corrupt a payload, so a quarantined
/// block is a failure.
fn recover_stall_cut(durable: PmemPool) -> Result<Option<montage::RecoveredState>, String> {
    let rec = match montage::try_recover(durable, small_esys_cfg(), 1) {
        Err(RecoveryError::UnformattedPool) => return Ok(None),
        Err(e) => return Err(format!("recovery failed: {e}")),
        Ok(rec) => rec,
    };
    if !rec.report.quarantined.is_empty() {
        return Err(format!(
            "helping corrupted payloads: {:?}",
            rec.report.quarantined
        ));
    }
    Ok(Some(rec))
}

/// Acceptance criterion for the nonblocking advance: at *every* persistence
/// event of the victim's workload, parking it there must neither block a
/// peer's puts and syncs (liveness) nor corrupt the durable image cut while
/// helpers have written back the victim's lines (consistency). Peer-synced
/// data additionally must survive the cut outright — the bypassing epoch
/// fence acked it.
#[test]
fn montage_workload_is_consistent_and_live_at_every_stall_point() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    type Shared = (Arc<EpochSys>, Arc<MontageHashMap<Key>>);
    // Victim → peer handoff. The victim clears the slot *before* its first
    // persistence event, so a park during `format` leaves `None` and the
    // peer (correctly) skips montage work for that point.
    let slot: Mutex<Option<Shared>> = Mutex::new(None);
    let peer_synced = AtomicU64::new(0);
    let peer_keys = stall_peer_keys();

    let report = pmem_chaos::stall_sweep(
        &stall_sweep_cfg(),
        PmemConfig::strict_for_test(8 << 20),
        Duration::from_secs(60),
        |pool| {
            *slot.lock().unwrap() = None;
            let esys = EpochSys::format(pool.clone(), small_esys_cfg());
            let map = Arc::new(MontageHashMap::<Key>::new(esys.clone(), MTAG, NBUCKETS));
            *slot.lock().unwrap() = Some((esys.clone(), map.clone()));
            let tid = esys.register_thread();
            for i in 0..STALL_VICTIM_PUTS {
                let _ = pool.checked(|| map.put(tid, stall_victim_key(i), &i.to_le_bytes()));
            }
        },
        |_pool| {
            peer_synced.store(0, Ordering::SeqCst);
            let Some((esys, map)) = slot.lock().unwrap().clone() else {
                return; // victim parked inside setup: nothing to drive yet
            };
            let tid = esys.register_thread();
            for (j, k) in peer_keys.iter().enumerate() {
                let put = || map.put(tid, *k, &(j as u64).to_le_bytes());
                if esys.pool().checked(put).is_err() {
                    return;
                }
                if esys.try_sync().is_err() {
                    return;
                }
                peer_synced.fetch_add(1, Ordering::SeqCst);
            }
        },
        |durable, stall_at| {
            let synced = peer_synced.load(Ordering::SeqCst);
            let Some(rec) = recover_stall_cut(durable)? else {
                // Cut before the pool header became durable: only legal
                // when the peer never completed a sync on this pool.
                return if synced == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "stall_at={stall_at}: {synced} peer syncs acked on an \
                         unformatted pool"
                    ))
                };
            };
            let m = MontageHashMap::<Key>::recover(rec.esys.clone(), MTAG, NBUCKETS, &rec);
            let tid = rec.esys.register_thread();

            // Victim puts recover as a consistent prefix of v0..v5.
            let mut seen_gap = false;
            for i in 0..STALL_VICTIM_PUTS {
                match m.get_owned(tid, &stall_victim_key(i)) {
                    Some(v) => {
                        if seen_gap {
                            return Err(format!(
                                "stall_at={stall_at}: victim put {i} survived after a gap \
                                 — not a prefix"
                            ));
                        }
                        if v != i.to_le_bytes() {
                            return Err(format!("stall_at={stall_at}: victim put {i} torn: {v:?}"));
                        }
                    }
                    None => seen_gap = true,
                }
            }

            // Everything the peer synced before the cut is acked: it must
            // survive even though the epoch fence bypassed a parked thread.
            for (j, k) in peer_keys.iter().enumerate().take(synced as usize) {
                match m.get_owned(tid, k) {
                    Some(v) if v == (j as u64).to_le_bytes() => {}
                    other => {
                        return Err(format!(
                            "stall_at={stall_at}: peer put {j} was synced but recovered \
                             as {other:?}"
                        ))
                    }
                }
            }
            Ok(())
        },
    );
    assert_exhaustive_stall_sweep(&report);
}

/// A Montage-backed `kvstore` under the same stall schedule: the victim
/// sets four keys, syncs, then overwrites each with a *longer* value — a
/// resize, which must keep the item's uid (`EpochSys::overwrite_tail`). The
/// peer only syncs, so every boundary it drives bypasses the parked victim.
/// A resize written as `pnew` + `pdelete` lets such a boundary land between
/// the two: the cut then recovers the key's old *and* new payload, and
/// `KvStore::recover` indexes one, leaks the other and corrupts its recency
/// list. At every stall point: one payload per recovered key, every value
/// whole, and the store is the state after some prefix of the victim's ops.
#[test]
fn kvstore_resize_stall_sweep_recovers_each_key_once() {
    use kvstore::{make_key, KvBackend, KvStore};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const KEYS: u64 = 4;
    const STRIPES: usize = 2;
    const CAP: usize = 64;
    let old = |i: u64| format!("old-{i}").into_bytes();
    let new = |i: u64| format!("new-{i}-{}", "x".repeat(90)).into_bytes();

    // Victim → peer handoff, as in the hashmap sweep above.
    let slot: Mutex<Option<Arc<EpochSys>>> = Mutex::new(None);

    let report = pmem_chaos::stall_sweep(
        &stall_sweep_cfg(),
        PmemConfig::strict_for_test(8 << 20),
        Duration::from_secs(60),
        |pool| {
            *slot.lock().unwrap() = None;
            let esys = EpochSys::format(pool.clone(), small_esys_cfg());
            *slot.lock().unwrap() = Some(esys.clone());
            let kv = KvStore::new(KvBackend::Montage(esys.clone()), STRIPES, CAP);
            let tid = kv.register_thread();
            for i in 0..KEYS {
                kv.set(tid, make_key(i), &old(i));
            }
            let _ = esys.try_sync();
            for i in 0..KEYS {
                kv.set(tid, make_key(i), &new(i));
            }
        },
        |_pool| {
            let Some(esys) = slot.lock().unwrap().clone() else {
                return; // victim parked inside setup: nothing to drive yet
            };
            for _ in 0..3 {
                if esys.try_sync().is_err() {
                    return;
                }
            }
        },
        |durable, _stall_at| {
            let Some(rec) = recover_stall_cut(durable)? else {
                return Ok(());
            };
            let kv = KvStore::recover(rec.esys.clone(), STRIPES, CAP, &rec);
            if rec.report.survivors != kv.len() {
                return Err(format!(
                    "{} payloads recovered for {} keys — a key survived twice",
                    rec.report.survivors,
                    kv.len()
                ));
            }
            // Ops 0..KEYS are the first sets, KEYS..2*KEYS the resizes; the
            // recovered store must be the state after some prefix of them.
            let got: Vec<Option<Vec<u8>>> = (0..KEYS)
                .map(|i| kv.get(&make_key(i), |v| v.to_vec()))
                .collect();
            let after_prefix = |done: u64| -> Vec<Option<Vec<u8>>> {
                (0..KEYS)
                    .map(|i| match () {
                        _ if done > KEYS + i => Some(new(i)),
                        _ if done > i => Some(old(i)),
                        _ => None,
                    })
                    .collect()
            };
            if !(0..=2 * KEYS).any(|done| after_prefix(done) == got) {
                return Err(format!(
                    "not a prefix of the victim's history (a torn or \
                     out-of-order value): {got:?}"
                ));
            }
            Ok(())
        },
    );
    assert_exhaustive_stall_sweep(&report);
}

// ---- mid-resize crash sweep -------------------------------------------------

const R_NBUCKETS: usize = 2;
const R_MAX_LOAD: usize = 1;
/// Distinct keys inserted: with a 2-bucket table and load factor 1 the map
/// resizes at 3, 5, and 9 live entries — three full install/migrate/retire
/// cycles inside one scripted run.
const R_KEYS: u64 = 12;
const R_MAX_CAP: usize = 16;

/// One step of the resize workload (same shape as `Op`, map-only).
#[derive(Clone, Copy, Debug)]
enum ROp {
    Put(u64, u64),
    Remove(u64),
    Sync,
}

/// Deterministic script: mostly fresh-key puts (the growth driver), with
/// periodic syncs (durability boundaries for the cut to land between) and a
/// few remove + re-put pairs so `pdelete` runs while levels migrate.
fn resize_script() -> Vec<ROp> {
    let mut s = Vec::new();
    for i in 0..R_KEYS {
        s.push(ROp::Put(i, i + 1));
        if i % 3 == 2 {
            s.push(ROp::Sync);
        }
        if i % 4 == 3 {
            s.push(ROp::Remove(i - 2));
            s.push(ROp::Put(i - 2, 100 + i));
        }
    }
    s.push(ROp::Sync);
    s
}

/// Runs the resize script on a fresh map over `pool`; returns how many
/// resizes completed so the test can prove the script is not vacuous.
fn run_resize(pool: &PmemPool, script: &[ROp]) -> usize {
    let esys = EpochSys::format(pool.clone(), small_esys_cfg());
    let tid = esys.register_thread();
    let m = MontageHashMap::<Key>::with_max_load(esys.clone(), MTAG, R_NBUCKETS, R_MAX_LOAD);
    for op in script {
        match *op {
            ROp::Put(k, v) => {
                let _ = pool.checked(|| m.put(tid, key(k), &v.to_le_bytes()));
            }
            ROp::Remove(k) => {
                let _ = pool.checked(|| m.remove(tid, &key(k)));
            }
            ROp::Sync => {
                let _ = esys.try_sync();
            }
        }
    }
    m.resizes_completed()
}

/// The mid-resize recovery contract, checked at one crash point:
/// no in-flight resize survives, the geometry is a sane power of two, the
/// contents equal the model after **some** prefix of the script (each key is
/// wholly pre- or post-cut — a mixed bucket could never equal any single
/// prefix), and the recovered map still takes writes and survives a forced
/// drain of whatever resize that write installs.
fn verify_resize_prefix(durable: PmemPool, crash_at: u64, script: &[ROp]) -> Result<(), String> {
    let rec = match montage::try_recover(durable, small_esys_cfg(), 1) {
        Err(RecoveryError::UnformattedPool) => return Ok(()),
        Err(e) => return Err(format!("crash_at={crash_at}: recovery failed: {e}")),
        Ok(rec) => rec,
    };
    if !rec.report.quarantined.is_empty() {
        return Err(format!(
            "crash_at={crash_at}: clean crash quarantined payloads: {:?}",
            rec.report.quarantined
        ));
    }
    let m = MontageHashMap::<Key>::recover(rec.esys.clone(), MTAG, R_NBUCKETS, &rec);
    let tid = rec.esys.register_thread();
    if m.resizing(tid) {
        return Err(format!(
            "crash_at={crash_at}: recovery resurrected an in-flight resize"
        ));
    }
    let cap = m.capacity(tid);
    if !cap.is_power_of_two() || !(R_NBUCKETS..=R_MAX_CAP).contains(&cap) {
        return Err(format!(
            "crash_at={crash_at}: recovered geometry {cap} is not a legal level size"
        ));
    }

    let mut recovered: HashMap<u64, u64> = HashMap::new();
    for k in 0..R_KEYS {
        if let Some(v) = m.get_owned(tid, &key(k)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(&v[..8]);
            recovered.insert(k, u64::from_le_bytes(w));
        }
    }

    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut prefix_ok = recovered == model;
    if !prefix_ok {
        for op in script {
            match *op {
                ROp::Put(k, v) => {
                    model.insert(k, v);
                }
                ROp::Remove(k) => {
                    model.remove(&k);
                }
                ROp::Sync => {}
            }
            if recovered == model {
                prefix_ok = true;
                break;
            }
        }
    }
    if !prefix_ok {
        return Err(format!(
            "crash_at={crash_at}: recovered state (cap {cap}) matches no prefix \
             of the history: {recovered:?}"
        ));
    }

    // Usability probe: the recovered map keeps working — a fresh write, a
    // forced drain of any growth it triggers, and nothing recovered is lost.
    m.put(tid, key(R_KEYS + 1), &0xFEEDu64.to_le_bytes());
    m.finish_resize(tid);
    for (k, v) in &recovered {
        match m.get_owned(tid, &key(*k)) {
            Some(b) if b[..8] == v.to_le_bytes() => {}
            other => {
                return Err(format!(
                    "crash_at={crash_at}: key {k} lost/torn after post-recovery \
                     migration: {other:?}"
                ))
            }
        }
    }
    if m.get_owned(tid, &key(R_KEYS + 1)).is_none() {
        return Err(format!(
            "crash_at={crash_at}: recovered map dropped a fresh write"
        ));
    }
    Ok(())
}

/// Acceptance criterion: crashing at *every* persistence event of the key
/// payloads a resize moves between levels — a run holding three in-flight
/// resizes — always recovers a consistent prefix with a legal, usable
/// geometry.
#[test]
fn resize_protocol_is_prefix_consistent_at_every_crash_point() {
    let script = resize_script();
    // The script must genuinely drive multiple online resizes, or the sweep
    // proves nothing about the resize protocol.
    let clean = PmemPool::new(PmemConfig::strict_for_test(8 << 20));
    let completed = run_resize(&clean, &script);
    assert!(
        completed >= 2,
        "resize script is vacuous: only {completed} resizes completed"
    );

    let cfg = SweepConfig {
        exhaustive_limit: 4096,
        samples: 64,
        seed: 0x2E512E,
    };
    let report = crash_sweep(
        &cfg,
        PmemConfig::strict_for_test(8 << 20),
        |pool| {
            run_resize(pool, &script);
        },
        |durable, crash_at| verify_resize_prefix(durable, crash_at, &script),
    );
    assert!(
        report.total_events >= 100,
        "resize workload too small for a meaningful sweep: {} events",
        report.total_events
    );
    assert_eq!(
        report.crash_points.len() as u64,
        report.total_events + 1,
        "mid-resize sweep must be exhaustive"
    );
    report.assert_ok();
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u8>().prop_map(|v| Op::Enq(v as u64)),
        2 => Just(Op::Deq),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k as u64 % KEY_SPACE, v as u64)),
        1 => any::<u8>().prop_map(|k| Op::Remove(k as u64 % KEY_SPACE)),
        1 => Just(Op::Sync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Random op sequences × sampled crash points: every combination must
    /// recover to a consistent prefix. Bounded (6 sequences × ~18 points)
    /// to stay inside a CI budget; the exhaustive test above covers depth.
    #[test]
    fn random_histories_are_prefix_consistent_at_sampled_crash_points(
        ops in proptest::collection::vec(op_strategy(), 10..40),
        seed in any::<u64>(),
    ) {
        let cfg = SweepConfig { exhaustive_limit: 0, samples: 16, seed };
        let report = crash_sweep(
            &cfg,
            PmemConfig::strict_for_test(8 << 20),
            |pool| run_mixed(pool, &ops),
            |durable, crash_at| verify_mixed_prefix(durable, crash_at, &ops),
        );
        prop_assert!(report.is_ok(), "{:?}", report.failures);
    }
}

// ---- shard-aware sweep over the multi-pool store ----------------------------

/// One step of the sharded-store workload. Syncs are per-shard (the server's
/// periodic barrier works the same way), so a crash can land between them.
#[derive(Clone, Copy, Debug)]
enum SOp {
    Set(u64, u64),
    Del(u64),
    SyncAll,
}

const S_SHARDS: usize = 4;
const S_VICTIM: usize = 1;
const S_KEYS: u64 = 24;
const S_STRIPES: usize = 4;
const S_CAP: usize = 1024;

fn sharded_script(seed: u64, len: usize) -> Vec<SOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|i| match rng.gen_range(0u64..10) {
            0..=5 => SOp::Set(rng.gen_range(0..S_KEYS), i as u64 + 1),
            6..=7 => SOp::Del(rng.gen_range(0..S_KEYS)),
            _ => SOp::SyncAll,
        })
        .collect()
}

/// Runs the script over a 4-shard store built on the caller's (chaos-armed)
/// pools. Ops on the victim degrade to errors once its plan trips; at the
/// end every *healthy* shard is synced so it is entitled to lose nothing.
fn run_sharded(pools: &[pmem::PmemPool], script: &[SOp]) {
    use kvstore::ShardedKvStore;
    let store = ShardedKvStore::format_pools(pools.to_vec(), small_esys_cfg(), S_STRIPES, S_CAP);
    let lease = store.lease();
    for op in script {
        match *op {
            SOp::Set(k, v) => {
                let _ = store.set(&lease, kvstore::make_key(k), &v.to_le_bytes());
            }
            SOp::Del(k) => {
                let _ = store.delete(&lease, &kvstore::make_key(k));
            }
            SOp::SyncAll => {
                for s in 0..S_SHARDS {
                    let _ = store.sync_shard(s);
                }
            }
        }
    }
    for s in 0..S_SHARDS {
        if s != S_VICTIM {
            store
                .sync_shard(s)
                .expect("non-victim shards must stay healthy through the sweep");
        }
    }
}

/// Recovers the 4 crashed pools as one store and checks the contract:
/// the victim holds the state after some prefix of *its* routed-op
/// subsequence; every other shard holds exactly its final state.
fn verify_sharded_prefix(
    pools: Vec<pmem::PmemPool>,
    crash_at: u64,
    script: &[SOp],
) -> Result<(), String> {
    use kvstore::ShardedKvStore;
    use std::collections::HashMap;

    let (store, report) =
        ShardedKvStore::recover(pools, small_esys_cfg(), S_STRIPES, S_CAP, S_SHARDS);
    for sr in &report.shards {
        if let Some(err) = &sr.fatal {
            // Only the victim may come back fatal, and only because the
            // crash predates its pool header (formatted-fresh ⇒ empty,
            // which the trivial prefix below accepts).
            if sr.shard != S_VICTIM || !matches!(err, RecoveryError::UnformattedPool) {
                return Err(format!(
                    "crash_at={crash_at}: shard {} fatal: {err}",
                    sr.shard
                ));
            }
        }
        if sr.quarantined != 0 {
            return Err(format!(
                "crash_at={crash_at}: clean crash quarantined payloads on shard {}",
                sr.shard
            ));
        }
    }

    // Read back everything, bucketed by owning shard.
    let mut recovered: Vec<HashMap<u64, u64>> = vec![HashMap::new(); S_SHARDS];
    for k in 0..S_KEYS {
        let key = kvstore::make_key(k);
        if let Some(v) = store.get(&key, |b| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[..8]);
            u64::from_le_bytes(w)
        }) {
            recovered[store.shard_of(&key)].insert(k, v);
        }
    }

    // Replay the script: full model per shard, plus the victim's routed
    // subsequence for the prefix check.
    let router = kvstore::ShardRouter::new(S_SHARDS);
    let mut full: Vec<HashMap<u64, u64>> = vec![HashMap::new(); S_SHARDS];
    let mut victim_ops = Vec::new();
    for op in script {
        if let SOp::Set(k, _) | SOp::Del(k) = op {
            let s = router.route(&kvstore::make_key(*k));
            if s == S_VICTIM {
                victim_ops.push(*op);
            }
            match *op {
                SOp::Set(k, v) => {
                    full[s].insert(k, v);
                }
                SOp::Del(k) => {
                    full[s].remove(&k);
                }
                SOp::SyncAll => unreachable!(),
            }
        }
    }

    for s in 0..S_SHARDS {
        if s == S_VICTIM {
            continue;
        }
        if recovered[s] != full[s] {
            return Err(format!(
                "crash_at={crash_at}: healthy shard {s} lost data: \
                 recovered {:?} != expected {:?}",
                recovered[s], full[s]
            ));
        }
    }

    let mut model: HashMap<u64, u64> = HashMap::new();
    if recovered[S_VICTIM] == model {
        return Ok(());
    }
    for op in &victim_ops {
        match *op {
            SOp::Set(k, v) => {
                model.insert(k, v);
            }
            SOp::Del(k) => {
                model.remove(&k);
            }
            SOp::SyncAll => unreachable!(),
        }
        if recovered[S_VICTIM] == model {
            return Ok(());
        }
    }
    Err(format!(
        "crash_at={crash_at}: victim shard matches no prefix of its {} routed ops: {:?}",
        victim_ops.len(),
        recovered[S_VICTIM]
    ))
}

// ---- descriptor/payload atomicity under a shard crash -----------------------

/// Sessions and request ids for the detected-operation sweep: session `s`
/// mutates only key `1000 + s`, so its descriptor and payload live — and
/// co-crash — on that key's shard.
const D_SIDS: u64 = 8;
const D_RIDS: u64 = 4;
const D_OP_KIND: u8 = 7;

/// Runs `D_RIDS` rounds of detected upserts: in round `r`, session `s`
/// writes value `r` (8-byte LE) under rid `r` and records result `r`.
/// Per-shard syncs between rounds give the sweep epoch boundaries to cut
/// at; ops and syncs on the victim degrade to errors once its plan trips.
fn run_detected_sharded(pools: &[pmem::PmemPool]) {
    use kvstore::{DetectedWrite, ShardedKvStore};
    let store = ShardedKvStore::format_pools(pools.to_vec(), small_esys_cfg(), S_STRIPES, S_CAP);
    let lease = store.lease();
    for rid in 1..=D_RIDS {
        for sid in 0..D_SIDS {
            let key = kvstore::make_key(1000 + sid);
            let _ = store.detected(&lease, sid, rid, D_OP_KIND, &key, |_cur| {
                (
                    DetectedWrite::Upsert(rid.to_le_bytes().to_vec()),
                    rid.to_le_bytes().to_vec(),
                )
            });
        }
        for s in 0..S_SHARDS {
            let _ = store.sync_shard(s);
        }
    }
    for s in 0..S_SHARDS {
        if s != S_VICTIM {
            store
                .sync_shard(s)
                .expect("non-victim shards must stay healthy through the sweep");
        }
    }
}

/// The atomicity contract, checked per session on the recovered store:
/// a session's descriptor and its payload ride one epoch window, so the
/// victim shard holds an *exact prefix* — descriptor at rid `r` with value
/// `r`, or neither — never a descriptor without its mutation or a mutation
/// without its descriptor. Healthy shards hold the full final state.
fn verify_detected_sharded(pools: Vec<pmem::PmemPool>, crash_at: u64) -> Result<(), String> {
    use kvstore::ShardedKvStore;

    let (store, report) =
        ShardedKvStore::recover(pools, small_esys_cfg(), S_STRIPES, S_CAP, S_SHARDS);
    for sr in &report.shards {
        if let Some(err) = &sr.fatal {
            if sr.shard != S_VICTIM || !matches!(err, RecoveryError::UnformattedPool) {
                return Err(format!(
                    "crash_at={crash_at}: shard {} fatal: {err}",
                    sr.shard
                ));
            }
        }
        if sr.quarantined != 0 {
            return Err(format!(
                "crash_at={crash_at}: clean crash quarantined payloads on shard {}",
                sr.shard
            ));
        }
    }

    let mut survivors_per_shard = [0u64; S_SHARDS];
    for sid in 0..D_SIDS {
        let key = kvstore::make_key(1000 + sid);
        let shard = store.shard_of(&key);
        let desc = store.shard_session_descriptor(shard, sid);
        let value = store.get(&key, |b| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[..8]);
            u64::from_le_bytes(w)
        });
        match (&desc, value) {
            (None, None) => {
                // Pre-history cut: legal only on the crashed shard.
                if shard != S_VICTIM {
                    return Err(format!(
                        "crash_at={crash_at}: healthy shard {shard} lost session {sid} entirely"
                    ));
                }
            }
            (Some((rid, kind, result)), Some(v)) => {
                survivors_per_shard[shard] += 1;
                let want_result = rid.to_le_bytes().to_vec();
                if *kind != D_OP_KIND || *result != want_result || v != *rid {
                    return Err(format!(
                        "crash_at={crash_at}: session {sid} on shard {shard} is torn: \
                         descriptor (rid {rid}, kind {kind}, result {result:?}) vs value {v}"
                    ));
                }
                if *rid > D_RIDS || *rid == 0 {
                    return Err(format!(
                        "crash_at={crash_at}: session {sid} descriptor rid {rid} out of range"
                    ));
                }
                if shard != S_VICTIM && *rid != D_RIDS {
                    return Err(format!(
                        "crash_at={crash_at}: healthy shard {shard} lost acked rounds of \
                         session {sid}: stuck at rid {rid}"
                    ));
                }
            }
            (desc, value) => {
                // One side without the other is exactly the half-applied
                // state the single-epoch-window design forbids — on any
                // shard, victim included.
                return Err(format!(
                    "crash_at={crash_at}: session {sid} on shard {shard} half-applied: \
                     descriptor {desc:?} vs value {value:?}"
                ));
            }
        }
    }

    // The per-shard descriptor counters the `stats` command surfaces must
    // agree with what actually survived on each shard.
    let per_shard = store.detect_stats_per_shard();
    for (shard, stats) in per_shard.iter().enumerate() {
        if stats.descriptors != survivors_per_shard[shard] {
            return Err(format!(
                "crash_at={crash_at}: shard {shard} reports {} descriptors, \
                 recovery found {}",
                stats.descriptors, survivors_per_shard[shard]
            ));
        }
    }
    let merged = store.detect_stats_merged();
    if merged.descriptors != per_shard.iter().map(|s| s.descriptors).sum::<u64>() {
        return Err(format!(
            "crash_at={crash_at}: merged descriptor count disagrees with per-shard sum"
        ));
    }
    Ok(())
}

/// Acceptance criterion: at every one of the victim shard's persistence
/// events, each session's descriptor and payload survive or vanish
/// *together* — the mutation is half-applied at no crash point — and the
/// healthy shards keep every synced round.
#[test]
fn detected_descriptor_and_payload_are_atomic_per_shard() {
    let cfg = SweepConfig {
        exhaustive_limit: 768,
        samples: 96,
        seed: 0x0DE7EC,
    };
    let report = pmem_chaos::shard_crash_sweep(
        &cfg,
        PmemConfig::strict_for_test(4 << 20),
        S_SHARDS,
        S_VICTIM,
        run_detected_sharded,
        verify_detected_sharded,
    );
    assert!(
        report.total_events >= 64,
        "victim shard saw too few events for a meaningful sweep: {}",
        report.total_events
    );
    report.assert_ok();
}

/// Acceptance criterion: an exhaustive crash sweep over a 4-shard store,
/// crashing shard 1 at every one of its persistence events, always recovers
/// a consistent prefix on the victim while the untouched shards lose
/// nothing past their final sync.
#[test]
fn sharded_store_crash_is_contained_to_the_victim_shard() {
    let script = sharded_script(0x5AA4D, 48);
    let cfg = SweepConfig {
        exhaustive_limit: 4096,
        samples: 64,
        seed: 0xD15EA5E,
    };
    let report = pmem_chaos::shard_crash_sweep(
        &cfg,
        PmemConfig::strict_for_test(4 << 20),
        S_SHARDS,
        S_VICTIM,
        |pools| run_sharded(pools, &script),
        |pools, crash_at| verify_sharded_prefix(pools, crash_at, &script),
    );
    assert!(
        report.total_events >= 64,
        "victim shard saw too few events for a meaningful sweep: {}",
        report.total_events
    );
    assert_eq!(
        report.crash_points.len() as u64,
        report.total_events + 1,
        "shard sweep must be exhaustive"
    );
    report.assert_ok();
}

/// The phased group sync under a shard crash: the victim's pool dies at
/// every persistence event *inside* one `sync_shards` call — between its
/// boundary fence's issue and wait included, where the healthy shard's fence
/// is already in flight. The healthy shard must certify and recover every
/// key it certified; the victim must report the fault and still recover a
/// clean (possibly empty) image.
#[test]
fn group_sync_contains_a_shard_crash_at_every_event_inside_it() {
    use kvstore::{ShardedKvStore, StoreError};
    const HEALTHY: usize = 0;
    const VICTIM: usize = 1;

    // Sets every key, then group-syncs both shards with the victim's plan at
    // `crash_at`. Returns the victim's event count before and after the
    // sync, the sync's outcomes, and the pools.
    let run = |crash_at: u64| {
        let pools: Vec<PmemPool> = (0..2)
            .map(|i| {
                let mut cfg = PmemConfig::strict_for_test(4 << 20);
                cfg.chaos.crash_at_event = (i == VICTIM).then_some(crash_at);
                PmemPool::new(cfg)
            })
            .collect();
        let store = ShardedKvStore::format_pools(pools.clone(), small_esys_cfg(), S_STRIPES, S_CAP);
        let lease = store.lease();
        for k in 0..S_KEYS {
            let _ = store.set(&lease, kvstore::make_key(k), &k.to_le_bytes());
        }
        let before = pools[VICTIM].persistence_events();
        let outcomes = store.sync_shards(&[HEALTHY, VICTIM], None);
        (before, pools[VICTIM].persistence_events(), outcomes, pools)
    };

    let (first, end, outcomes, _) = run(u64::MAX);
    assert!(outcomes.iter().all(|(r, _)| *r == Ok(true)));
    assert!(end - first >= 6, "a sync is two advances: {first}..{end}");

    // A plan at `n` lets exactly the events below `n` take effect.
    for crash_at in first..=end {
        let (before, _, outcomes, pools) = run(crash_at);
        assert_eq!(before, first, "the set phase is deterministic");
        assert_eq!(outcomes[0].0, Ok(true), "crash_at={crash_at}");
        assert!(
            matches!(
                outcomes[1].0,
                Err(StoreError::Faulted { shard: VICTIM, .. })
            ),
            "crash_at={crash_at}: {:?}",
            outcomes[1].0
        );

        let crashed = pools.iter().map(|p| p.crash()).collect();
        let (store, report) =
            ShardedKvStore::recover(crashed, small_esys_cfg(), S_STRIPES, S_CAP, 2);
        assert!(report.shards.iter().all(|s| s.fatal.is_none()));
        assert_eq!(report.quarantined(), 0, "crash_at={crash_at}");
        for k in 0..S_KEYS {
            let key = kvstore::make_key(k);
            let got = store.get(&key, |b| b.to_vec());
            if store.shard_of(&key) == HEALTHY {
                assert_eq!(got, Some(k.to_le_bytes().to_vec()), "crash_at={crash_at}");
            } else if let Some(v) = got {
                assert_eq!(v, k.to_le_bytes(), "crash_at={crash_at}: torn value");
            }
        }
    }
}
