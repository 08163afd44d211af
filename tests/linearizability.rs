//! Durable-linearizability acceptance tests: record timestamped
//! invoke/response histories from *real concurrent runs* of the Montage
//! hashmap and queue, and feed them to the Wing&Gong-style checker in
//! `montage_suite::history`.
//!
//! Three layers, with fixed seeds throughout:
//!
//! 1. **Live map runs** — several threads hammer a small key space; each
//!    per-key projection of the merged history must linearize against a
//!    register model (map ops touch exactly one key, so the map is
//!    linearizable iff every projection is). 20 runs × 8 keys ⇒ 160
//!    checked histories.
//! 2. **Live queue runs** — whole-history FIFO checking (queues don't
//!    decompose), with unique values so matches are exact.
//! 3. **Crash-cut runs** — a coordinator thread advances the epoch clock
//!    and snapshots the durable image (`pool.crash()`) mid-run while the
//!    workers finish cleanly, so the full history has every response.
//!    Recovery must then linearize to a prefix cut at an epoch boundary:
//!    ops that completed by the recovery cutoff must survive, ops that
//!    began after it must not, and straddlers may fall either way.
//!    24 map runs + 8 queue runs ⇒ 32 crash-cut histories.
//!
//! The acceptance bar (≥100 histories, ≥20 crash-cut, zero violations) is
//! asserted explicitly in each test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use montage::{EpochSys, EsysConfig};
use montage_ds::{MontageHashMap, MontageQueue};
use montage_suite::history::{
    check_durable_prefix, check_linearizable, classify_by_epoch, Durability, FifoQueue, OpRecord,
    QueueOp, Recorder, RegOp, RegRet, Register,
};
use pmem::{PmemConfig, PmemPool};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Key = [u8; 32];

const MTAG: u16 = 3;
const QTAG: u16 = 2;
const NBUCKETS: usize = 8;
const KEY_SPACE: u64 = 8;

fn key(i: u64) -> Key {
    let mut k = [0u8; 32];
    k[..8].copy_from_slice(&i.to_le_bytes());
    k
}

fn fresh_esys() -> Arc<EpochSys> {
    let pool = PmemPool::new(PmemConfig::strict_for_test(8 << 20));
    EpochSys::format(pool, EsysConfig::default())
}

fn parse_u64(v: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&v[..8]);
    u64::from_le_bytes(b)
}

/// Projects a merged `(key, op)` history onto one key.
fn project(history: &[OpRecord<(u64, RegOp), RegRet>], k: u64) -> Vec<OpRecord<RegOp, RegRet>> {
    history
        .iter()
        .filter(|r| r.op.0 == k)
        .map(|r| OpRecord {
            thread: r.thread,
            invoke: r.invoke,
            response: r.response,
            epoch_lo: r.epoch_lo,
            epoch_hi: r.epoch_hi,
            op: r.op.1,
            ret: r.ret,
        })
        .collect()
}

/// Runs `threads` workers over a shared Montage map, each performing `ops`
/// random single-key operations, and returns the merged history.
fn record_map_run(
    esys: &Arc<EpochSys>,
    map: &MontageHashMap<Key>,
    seed: u64,
    threads: usize,
    ops: usize,
    track_epochs: bool,
    op_delay: Option<Duration>,
) -> Vec<OpRecord<(u64, RegOp), RegRet>> {
    let clock = Recorder::<(u64, RegOp), RegRet>::shared_clock();
    let mut merged = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let clock = Arc::clone(&clock);
                let esys = Arc::clone(esys);
                s.spawn(move || {
                    let tid = esys.register_thread();
                    let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                    let mut rec = Recorder::new(clock, t);
                    let epoch = |esys: &Arc<EpochSys>| {
                        let esys = Arc::clone(esys);
                        move || {
                            if track_epochs {
                                esys.curr_epoch()
                            } else {
                                0
                            }
                        }
                    };
                    for i in 0..ops {
                        let k = rng.gen_range(0..KEY_SPACE);
                        let v = (t * ops + i) as u64 + 1;
                        match rng.gen_range(0u32..10) {
                            0..=4 => rec.record((k, RegOp::Put(v)), epoch(&esys), || {
                                RegRet::Existed(map.put(tid, key(k), &v.to_le_bytes()))
                            }),
                            5..=7 => rec.record((k, RegOp::Get), epoch(&esys), || {
                                RegRet::Value(map.get_owned(tid, &key(k)).map(|b| parse_u64(&b)))
                            }),
                            _ => rec.record((k, RegOp::Del), epoch(&esys), || {
                                RegRet::Existed(map.remove(tid, &key(k)))
                            }),
                        }
                        if let Some(d) = op_delay {
                            std::thread::sleep(d);
                        }
                    }
                    esys.unregister_thread(tid);
                    rec.ops
                })
            })
            .collect();
        for h in handles {
            merged.extend(h.join().expect("worker panicked"));
        }
    });
    merged
}

/// Layer 1: per-key projections of live concurrent map runs all linearize.
/// 20 seeded runs × 8 keys ⇒ 160 checked histories (well past the 100-history
/// acceptance floor even before the queue and crash-cut layers).
#[test]
fn live_concurrent_map_histories_linearize() {
    let mut checked = 0usize;
    for seed in 0..20u64 {
        let esys = fresh_esys();
        let map = MontageHashMap::<Key>::new(esys.clone(), MTAG, NBUCKETS);
        let history = record_map_run(&esys, &map, 0xAB5EED ^ seed, 3, 18, false, None);
        assert_eq!(history.len(), 3 * 18);
        for k in 0..KEY_SPACE {
            let proj = project(&history, k);
            if proj.is_empty() {
                continue;
            }
            check_linearizable::<Register>(&proj)
                .unwrap_or_else(|e| panic!("seed {seed}, key {k}: {e}\nhistory: {proj:#?}"));
            checked += 1;
        }
    }
    assert!(
        checked >= 100,
        "need at least 100 checked histories, got {checked}"
    );
}

/// Layer 2: live concurrent queue runs linearize as whole histories against
/// the FIFO model. Values are globally unique per run so every dequeue
/// return pins its matching enqueue.
#[test]
fn live_concurrent_queue_histories_linearize() {
    for seed in 0..10u64 {
        let esys = fresh_esys();
        let q = MontageQueue::new(esys.clone(), QTAG);
        let clock = Recorder::<QueueOp, Option<u64>>::shared_clock();
        let next_val = AtomicU64::new(1);
        let mut merged: Vec<OpRecord<QueueOp, Option<u64>>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let clock = Arc::clone(&clock);
                    let esys = Arc::clone(&esys);
                    let q = &q;
                    let next_val = &next_val;
                    s.spawn(move || {
                        let tid = esys.register_thread();
                        let mut rng = SmallRng::seed_from_u64(0xF1F0 ^ seed ^ (t as u64) << 17);
                        let mut rec = Recorder::new(clock, t);
                        for _ in 0..12 {
                            if rng.gen_range(0u32..10) < 6 {
                                let v = next_val.fetch_add(1, Ordering::Relaxed);
                                rec.record(
                                    QueueOp::Enq(v),
                                    || 0,
                                    || {
                                        q.enqueue(tid, &v.to_le_bytes());
                                        None
                                    },
                                );
                            } else {
                                rec.record(
                                    QueueOp::Deq,
                                    || 0,
                                    || q.dequeue(tid).map(|b| parse_u64(&b)),
                                );
                            }
                        }
                        esys.unregister_thread(tid);
                        rec.ops
                    })
                })
                .collect();
            for h in handles {
                merged.extend(h.join().expect("worker panicked"));
            }
        });
        check_linearizable::<FifoQueue>(&merged)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\nhistory: {merged:#?}"));
    }
}

/// Runs a concurrent map workload while a coordinator advances the epoch
/// clock and snapshots the durable image mid-run; returns the *complete*
/// history (every op has a response — the snapshot is a clone, the live
/// pool is undisturbed) plus the crashed image.
type MapHistory = Vec<OpRecord<(u64, RegOp), RegRet>>;

fn record_crashed_map_run(seed: u64) -> (MapHistory, PmemPool) {
    let esys = fresh_esys();
    let map = MontageHashMap::<Key>::new(esys.clone(), MTAG, NBUCKETS);
    let snapshot: Mutex<Option<PmemPool>> = Mutex::new(None);
    let crash_tick = 4 + seed % 8;
    let mut history = Vec::new();
    std::thread::scope(|s| {
        let esys2 = Arc::clone(&esys);
        let snapshot = &snapshot;
        s.spawn(move || {
            for tick in 0..16u64 {
                std::thread::sleep(Duration::from_micros(300));
                esys2.advance_epoch();
                if tick == crash_tick {
                    *snapshot.lock().unwrap() = Some(esys2.pool().crash());
                }
            }
        });
        history = record_map_run(
            &esys,
            &map,
            0xDEAD ^ seed,
            2,
            24,
            true,
            Some(Duration::from_micros(150)),
        );
    });
    let crashed = snapshot.lock().unwrap().take().expect("snapshot taken");
    (history, crashed)
}

/// Layer 3 (the durable extension): recovered state after a mid-run crash
/// must linearize against a prefix of the history cut at an epoch boundary.
/// 24 crash-cut histories, each checked per key with the epoch-derived
/// must-include / must-exclude sets.
#[test]
fn crashed_map_runs_linearize_to_an_epoch_cut_prefix() {
    let mut crash_histories = 0usize;
    let mut must_include_total = 0usize;
    let mut must_exclude_total = 0usize;
    for seed in 0..24u64 {
        let (history, crashed) = record_crashed_map_run(seed);
        let rec = montage::try_recover(crashed, EsysConfig::default(), 1)
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        assert!(
            rec.report.quarantined.is_empty(),
            "seed {seed}: clean crash quarantined payloads"
        );
        let rmap = MontageHashMap::<Key>::recover(rec.esys.clone(), MTAG, NBUCKETS, &rec);
        let rtid = rec.esys.register_thread();
        // Recovery resumes the clock two epochs past the durable value, and
        // the cutoff is two below it: everything ≤ curr − 4 survived.
        let cutoff = rec.esys.curr_epoch() - 4;

        let durability = classify_by_epoch(&history, cutoff);
        must_include_total += durability
            .iter()
            .filter(|d| **d == Durability::MustInclude)
            .count();
        must_exclude_total += durability
            .iter()
            .filter(|d| **d == Durability::MustExclude)
            .count();

        for k in 0..KEY_SPACE {
            let proj = project(&history, k);
            if proj.is_empty() {
                continue;
            }
            let dproj: Vec<Durability> = history
                .iter()
                .zip(&durability)
                .filter(|(r, _)| r.op.0 == k)
                .map(|(_, d)| *d)
                .collect();
            let target = Register {
                value: rmap.get_owned(rtid, &key(k)).map(|b| parse_u64(&b)),
            };
            check_durable_prefix(&proj, &dproj, &target).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}, key {k}, cutoff {cutoff}: {e}\n\
                     recovered {target:?}\nhistory: {proj:#?}\nclasses: {dproj:?}"
                )
            });
        }
        crash_histories += 1;
    }
    assert!(
        crash_histories >= 20,
        "need at least 20 crash-cut histories, got {crash_histories}"
    );
    // The sweep must actually exercise both sides of the cut somewhere —
    // otherwise the epoch classification is vacuous.
    assert!(
        must_include_total > 0,
        "no op ever classified must-include: crash snapshots fired too early"
    );
    assert!(
        must_exclude_total > 0,
        "no op ever classified must-exclude: crash snapshots fired too late"
    );
}

/// Queue flavour of the durable check: single recording thread (queues need
/// whole-history checking, so we keep the search small), epoch advances
/// interleaved with ops, snapshot mid-run, then the recovered queue contents
/// must equal the model after an epoch-cut prefix.
#[test]
fn crashed_queue_runs_linearize_to_an_epoch_cut_prefix() {
    for seed in 0..8u64 {
        let esys = fresh_esys();
        let q = MontageQueue::new(esys.clone(), QTAG);
        let tid = esys.register_thread();
        let clock = Recorder::<QueueOp, Option<u64>>::shared_clock();
        let mut rec = Recorder::new(Arc::clone(&clock), 0);
        let mut rng = SmallRng::seed_from_u64(0x0DDB1_u64 ^ seed);
        let mut next_val = 1u64;
        let crash_at = 10 + (seed as usize % 8) * 2;
        let mut crashed: Option<PmemPool> = None;
        for i in 0..28usize {
            if i % 3 == 0 {
                esys.advance_epoch();
            }
            if i == crash_at {
                crashed = Some(esys.pool().crash());
            }
            let e = || esys.curr_epoch();
            if rng.gen_range(0u32..10) < 6 {
                let v = next_val;
                next_val += 1;
                rec.record(QueueOp::Enq(v), e, || {
                    q.enqueue(tid, &v.to_le_bytes());
                    None
                });
            } else {
                rec.record(QueueOp::Deq, e, || q.dequeue(tid).map(|b| parse_u64(&b)));
            }
        }
        let crashed = crashed.expect("snapshot taken");
        let history = rec.ops;

        let recd = montage::try_recover(crashed, EsysConfig::default(), 1)
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        let rq = MontageQueue::recover(recd.esys.clone(), QTAG, &recd);
        let rtid = recd.esys.register_thread();
        let cutoff = recd.esys.curr_epoch() - 4;

        let mut target = FifoQueue::default();
        while let Some(v) = rq.dequeue(rtid) {
            target.items.push_back(parse_u64(&v));
        }

        let durability = classify_by_epoch(&history, cutoff);
        check_durable_prefix(&history, &durability, &target).unwrap_or_else(|e| {
            panic!(
                "seed {seed}, cutoff {cutoff}: {e}\nrecovered {target:?}\n\
                 history: {history:#?}\nclasses: {durability:?}"
            )
        });
    }
}
