//! Exactly-once acceptance for detectable operations: blind retries over a
//! real socket, swept across crash points, plus retry-collapsed histories
//! through the durable-linearizability checker.
//!
//! ## The wire sweep
//!
//! The client attaches a durable session, stores a counter under `rid=1`,
//! then issues `incr` under `rid=2..=N` closed-loop, remembering the last
//! request id whose ack it actually read. A [`pmem_chaos::crash_sweep`]
//! re-runs that workload with a crash injected at every persistence-event
//! boundary. After each recovery the client reconnects, re-attaches the
//! *same* session, and blindly retries every request from the first
//! unacked rid onward — the protocol under test is precisely "retry
//! without knowing whether the original landed". Exactly-once then has a
//! sharp arithmetic signature: the retry of rid `r` must answer `r − 1`
//! (replayed from the descriptor if the original committed, applied fresh
//! if it never happened — the two are indistinguishable, which is the
//! point), and the final counter must equal exactly N − 1. A lost acked
//! increment or a double-applied retry both shift the arithmetic and fail
//! the sweep.
//!
//! This leans on the group-commit severing rule: with `sync_every = 1` an
//! ack is only flushed after its batch's fence, and a failed fence cuts
//! the connection instead of letting the ack escape — so "acked" implies
//! "durable with descriptor", which is what makes blind retry from the
//! first unacked rid sufficient.
//!
//! ## The checker histories
//!
//! 120 seeded single-session runs against the flat store, each op blindly
//! retried 1–3×. Exactly-once means the duplicates are not operations at
//! all, so each retry burst collapses to **one** [`OpRecord`] (its epoch
//! interval spanning every attempt) and the recovered state after a
//! mid-run crash snapshot must be a legal epoch cut of the *collapsed*
//! history. A double-applied increment makes the recovered value
//! unexplainable by any cut, so the checker — not just the reply text —
//! vouches for the dedupe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kvserver::{KvServer, ServerConfig, WireClient};
use kvstore::protocol::Session;
use kvstore::{KvBackend, KvStore, ShardedKvStore};
use montage::{EpochSys, EsysConfig, RecoveryError};
use pmem::{PmemConfig, PmemPool};
use pmem_chaos::{crash_sweep, SweepConfig};

use montage_suite::history::{
    check_durable_prefix, check_linearizable, classify_by_epoch, Counter, CtrOp, CtrRet,
    Durability, Recorder,
};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NBUCKETS: usize = 8;
const CAPACITY: usize = 100_000;
/// Durable session id the wire client re-attaches after every recovery.
const SID: u64 = 7;
/// Request ids 1 (set) ..= RIDS (increments); final counter = RIDS − 1.
const RIDS: u64 = 12;

fn esys_cfg() -> EsysConfig {
    EsysConfig {
        // one server worker + recovery + headroom
        max_threads: 4,
        ..Default::default()
    }
}

/// Drives the session workload until done or the injected crash severs the
/// connection, publishing the last rid whose ack the client read.
fn drive(c: &mut WireClient, acked: &AtomicU64) {
    if c.session(SID).is_err() {
        return;
    }
    match c.set_rid("ctr", 0, b"0", 1) {
        Ok(ref l) if l == "STORED" => acked.store(1, Ordering::SeqCst),
        _ => return,
    }
    for rid in 2..=RIDS {
        match c.arith(true, "ctr", 1, Some(rid)) {
            Ok(ref l) if *l == (rid - 1).to_string() => acked.store(rid, Ordering::SeqCst),
            _ => return,
        }
    }
}

fn run_workload(pool: &PmemPool, acked: &AtomicU64) {
    acked.store(0, Ordering::SeqCst);
    let store = ShardedKvStore::format_pools(vec![pool.clone()], esys_cfg(), NBUCKETS, CAPACITY);
    let h = KvServer::start_sharded(
        ServerConfig {
            workers: 1,
            sync_every: Some(1),
            ..Default::default()
        },
        store,
    )
    .expect("bind");
    if let Ok(mut c) = WireClient::connect(h.addr()) {
        drive(&mut c, acked);
    }
    // Crash-style stop: acks that never left the machine stay unread.
    h.crash();
}

/// Recovery check for one crash point: blind retry from the first unacked
/// rid must be exactly-once.
fn verify(durable: PmemPool, crash_at: u64, acked: &AtomicU64) -> Result<(), String> {
    let (kv, report) = ShardedKvStore::recover(vec![durable], esys_cfg(), NBUCKETS, CAPACITY, 2);
    match &report.shards[0].fatal {
        Some(RecoveryError::UnformattedPool) => return Ok(()), // pre-format crash
        Some(e) => return Err(format!("crash_at={crash_at}: recovery failed: {e}")),
        None => {}
    }
    if report.quarantined() != 0 {
        return Err(format!(
            "crash_at={crash_at}: clean crash quarantined {} payloads",
            report.quarantined()
        ));
    }
    let h = KvServer::start_sharded(ServerConfig::default(), kv)
        .map_err(|e| format!("crash_at={crash_at}: rebind failed: {e}"))?;
    let mut c = WireClient::connect(h.addr())
        .map_err(|e| format!("crash_at={crash_at}: reconnect failed: {e}"))?;
    c.session(SID)
        .map_err(|e| format!("crash_at={crash_at}: session re-attach failed: {e}"))?;

    let a = acked.load(Ordering::SeqCst);
    // Blind retry: the client does not know whether rid a+1 committed
    // before the crash. If it did, the descriptor replays its recorded
    // reply; if not, it applies fresh — either way the answer is the one
    // the original would have produced, and later rids continue from it.
    for rid in (a + 1)..=RIDS {
        if rid == 1 {
            let l = c
                .set_rid("ctr", 0, b"0", 1)
                .map_err(|e| format!("crash_at={crash_at}: retry rid=1 failed: {e}"))?;
            if l != "STORED" {
                return Err(format!(
                    "crash_at={crash_at}: retry rid=1 replied {l:?} (acked={a})"
                ));
            }
        } else {
            let l = c
                .arith(true, "ctr", 1, Some(rid))
                .map_err(|e| format!("crash_at={crash_at}: retry rid={rid} failed: {e}"))?;
            let want = (rid - 1).to_string();
            if l != want {
                return Err(format!(
                    "crash_at={crash_at}: retry rid={rid} replied {l:?}, want {want:?} \
                     (acked={a}) — an increment was lost or double-applied"
                ));
            }
        }
    }
    // N increments must have happened exactly once each, no matter where
    // the crash fell or how many requests were retried.
    let (_, data) = c
        .get("ctr")
        .map_err(|e| format!("crash_at={crash_at}: final get failed: {e}"))?
        .ok_or_else(|| format!("crash_at={crash_at}: counter missing after retries"))?;
    let want = (RIDS - 1).to_string();
    if data != want.as_bytes() {
        return Err(format!(
            "crash_at={crash_at}: final counter {:?}, want {want:?} (acked={a})",
            String::from_utf8_lossy(&data)
        ));
    }
    h.shutdown();
    Ok(())
}

/// Acceptance: every swept crash point recovers to a state from which
/// blind retry yields exactly-once effects — N increments, exactly +N.
#[test]
fn blind_retry_is_exactly_once_at_every_crash_point() {
    let acked = Arc::new(AtomicU64::new(0));
    let cfg = SweepConfig {
        // A server + two clients per point; sample the interior rather
        // than sweeping thousands of points exhaustively.
        exhaustive_limit: 320,
        samples: 96,
        seed: 0xDE7EC7,
    };
    let (wl_acked, vf_acked) = (Arc::clone(&acked), Arc::clone(&acked));
    let report = crash_sweep(
        &cfg,
        PmemConfig::strict_for_test(64 << 20),
        move |pool| run_workload(pool, &wl_acked),
        move |durable, crash_at| verify(durable, crash_at, &vf_acked),
    );
    assert!(
        report.total_events >= 100,
        "workload too small to cover the apply/fence/descriptor window: {} events",
        report.total_events
    );
    assert!(
        report.is_ok(),
        "{} of {} crash points violated exactly-once: {:?}",
        report.failures.len(),
        report.crash_points.len(),
        report.failures
    );
}

fn ctr_key() -> kvstore::Key {
    let mut k = [0u8; 32];
    k[..3].copy_from_slice(b"ctr");
    k
}

/// Item bytes are `flags u32 | expires_at u64 | cas u64 | data`; the
/// counter's data is its decimal text.
fn counter_value(store: &KvStore) -> Option<u64> {
    store.get(&ctr_key(), |b| {
        std::str::from_utf8(&b[20..])
            .expect("counter data is decimal text")
            .parse::<u64>()
            .expect("counter data parses")
    })
}

/// 120 seeded retry histories, each collapsed to one op per request id and
/// checked against the recovered state of a mid-run crash snapshot.
#[test]
fn retry_collapsed_histories_are_durably_linearizable() {
    const SEEDS: u64 = 120;
    const N_OPS: usize = 14;
    let mut histories = 0usize;
    let mut retried_total = 0u64;
    let mut must_include_total = 0usize;
    let mut must_exclude_total = 0usize;

    for seed in 0..SEEDS {
        let pool = PmemPool::new(PmemConfig::strict_for_test(8 << 20));
        let esys = EpochSys::format(pool.clone(), EsysConfig::default());
        let store = Arc::new(KvStore::new(
            KvBackend::Montage(Arc::clone(&esys)),
            NBUCKETS,
            4096,
        ));
        let sharded = ShardedKvStore::from_shards(vec![Arc::clone(&store)]);
        let session = Session::sharded(Arc::clone(&sharded), Arc::new(sharded.lease()));
        let sid = 1000 + seed;
        let mut rng = SmallRng::seed_from_u64(0xB11D ^ seed);
        let clock = Recorder::<CtrOp, CtrRet>::shared_clock();
        let mut recorder = Recorder::new(clock, 0);
        let crash_idx = rng.gen_range(1..N_OPS);
        let mut crashed: Option<PmemPool> = None;
        let mut extra_attempts = 0u64;

        for i in 0..N_OPS {
            if i % 3 == 2 {
                esys.advance_epoch();
            }
            if i == crash_idx {
                crashed = Some(pool.crash());
            }
            let rid = (i + 1) as u64;
            let attempts = rng.gen_range(1u32..=3);
            extra_attempts += u64::from(attempts - 1);
            let e = || esys.curr_epoch();
            // Every attempt of one rid is the *same* request; they must all
            // answer identically and collapse to one history op.
            let replies = |line: String, data: &'static [u8]| {
                let session = &session;
                move || {
                    let mut last: Option<String> = None;
                    for _ in 0..attempts {
                        let r = session.execute_with(&line, data, Some(sid));
                        if let Some(prev) = &last {
                            assert_eq!(prev, &r, "seed {seed}: retry of rid {rid} diverged");
                        }
                        last = Some(r);
                    }
                    last.expect("at least one attempt")
                }
            };
            if i == 0 {
                let f = replies(format!("set ctr 0 0 1 rid={rid}"), b"0");
                recorder.record(CtrOp::Create(0), e, || {
                    assert_eq!(f(), "STORED", "seed {seed}: initial set refused");
                    CtrRet::Stored
                });
            } else {
                let f = replies(format!("incr ctr 1 rid={rid}"), b"");
                recorder.record(CtrOp::Incr, e, || {
                    let v: u64 = f().parse().expect("incr replies the new value");
                    assert_eq!(
                        v, i as u64,
                        "seed {seed}: rid {rid} saw value {v} — an increment \
                         was lost or double-applied"
                    );
                    CtrRet::Value(v)
                });
            }
        }
        retried_total += extra_attempts;
        assert_eq!(
            store.detect_stats().dedupe_hits,
            extra_attempts,
            "seed {seed}: every duplicate attempt must be a descriptor hit"
        );
        // The live (uncrashed) run must also linearize as recorded.
        check_linearizable::<Counter>(&recorder.ops)
            .unwrap_or_else(|e| panic!("seed {seed}: live history: {e}"));

        let crashed = crashed.expect("snapshot taken");
        let rec = montage::try_recover(crashed, EsysConfig::default(), 1)
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        assert!(
            rec.report.quarantined.is_empty(),
            "seed {seed}: clean crash quarantined payloads"
        );
        let rstore = KvStore::recover(rec.esys.clone(), NBUCKETS, 4096, &rec);
        let target = Counter {
            value: counter_value(&rstore),
        };
        // Recovery resumes the clock two epochs past the durable value, and
        // the cutoff is two below it: everything ≤ curr − 4 survived.
        let cutoff = rec.esys.curr_epoch() - 4;
        let durability = classify_by_epoch(&recorder.ops, cutoff);
        must_include_total += durability
            .iter()
            .filter(|d| **d == Durability::MustInclude)
            .count();
        must_exclude_total += durability
            .iter()
            .filter(|d| **d == Durability::MustExclude)
            .count();
        check_durable_prefix(&recorder.ops, &durability, &target).unwrap_or_else(|e| {
            panic!(
                "seed {seed}, cutoff {cutoff}: {e}\nrecovered {target:?}\n\
                 history: {:#?}\nclasses: {durability:?}",
                recorder.ops
            )
        });
        histories += 1;
    }

    assert!(
        histories >= 100,
        "need at least 100 retry histories, got {histories}"
    );
    assert!(
        retried_total >= 100,
        "too few duplicate attempts to exercise dedupe: {retried_total}"
    );
    // Both sides of the cut must occur somewhere, or the epoch
    // classification is vacuous.
    assert!(must_include_total > 0, "no op ever classified must-include");
    assert!(must_exclude_total > 0, "no op ever classified must-exclude");
}
