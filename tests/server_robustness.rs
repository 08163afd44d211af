//! Wire-level robustness: the server knobs that keep one bad client — or
//! one straggling shard — from degrading everyone else.
//!
//! * **Slow-loris reap** (`idle_timeout`): a connection that *starts* a
//!   frame must finish it within the deadline. Trickling a byte at a time
//!   resets the byte-level `read_timeout` forever, so the frame — not the
//!   byte — carries this clock.
//! * **Session cap** (`max_sessions` + the `session close` verb): each
//!   attached durable session holds one slot; attaches beyond the cap are
//!   shed with `SERVER_ERROR too many sessions`, and both `session close`
//!   and disconnect return the slot.
//! * **Fence deadline** (`fence_deadline`): when one shard's group fence
//!   cannot certify durability in time, the commit proceeds without the
//!   straggler's ops — their acks are withheld and the connection severed
//!   with `SERVER_ERROR timeout` — while connections on healthy shards
//!   commit normally.
//! * **`session close` under crash sweep**: the verb is pure connection
//!   state (it never touches the durable descriptor table), so a workload
//!   that detaches and re-attaches mid-stream must keep the exactly-once
//!   arithmetic at every crash point.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvserver::{KvServer, ServerConfig, WireClient};
use kvstore::{KvBackend, KvStore, ShardedKvStore};
use montage::{EpochSys, EsysConfig, RecoveryError};
use pmem::{ChaosConfig, PmemConfig, PmemPool};
use pmem_chaos::{crash_sweep, SweepConfig};

const NBUCKETS: usize = 8;
const CAPACITY: usize = 100_000;

fn dram_store() -> Arc<ShardedKvStore> {
    let shard = KvStore::new(KvBackend::Dram, NBUCKETS, CAPACITY);
    ShardedKvStore::from_shards(vec![Arc::new(shard)])
}

fn esys_cfg() -> EsysConfig {
    EsysConfig {
        // one server worker + recovery + headroom
        max_threads: 4,
        ..Default::default()
    }
}

// ---- slow-loris reap --------------------------------------------------------

#[test]
fn partial_frame_is_reaped_after_idle_timeout() {
    let h = KvServer::start_sharded(
        ServerConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(200),
            // Far above the test horizon: if the victim dies, it died of
            // the frame deadline, not byte-level idleness.
            read_timeout: Duration::from_secs(60),
            ..Default::default()
        },
        dram_store(),
    )
    .expect("bind");

    // A healthy client with *no* partial frame survives a gap longer than
    // idle_timeout (only read_timeout applies between requests).
    let mut healthy = WireClient::connect(h.addr()).expect("connect");
    std::thread::sleep(Duration::from_millis(400));
    healthy.stats().expect("idle gap between requests is fine");

    // The slow loris: one byte of a command line every 50 ms. Each byte
    // resets last_activity, but the frame never completes — the server
    // must cut it ~idle_timeout after the fragment appeared.
    let mut loris = WireClient::connect(h.addr()).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let start = Instant::now();
    let mut buf = [0u8; 64];
    let died = loop {
        if start.elapsed() > Duration::from_secs(10) {
            break false;
        }
        if loris.send_raw(b"s").is_err() {
            break true;
        }
        // A severed connection surfaces as EOF (Ok(0)) or a reset error; a
        // read timeout means the fragment is still pending — keep dripping.
        match loris.read_some(&mut buf) {
            Ok(0) => break true,
            Ok(_) => break false, // the server must not answer a fragment
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break true,
        }
    };
    assert!(died, "slow-loris connection was never reaped");
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "reaped before the idle_timeout could have elapsed"
    );

    // The reap was surgical: the healthy connection still works.
    healthy
        .stats()
        .expect("healthy connection survived the reap");
    h.shutdown();
}

// ---- session cap + close ----------------------------------------------------

fn stat_value(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("stat {name} missing"))
}

#[test]
fn session_cap_sheds_and_close_releases_slots() {
    let h = KvServer::start_sharded(
        ServerConfig {
            workers: 1,
            max_sessions: 2,
            ..Default::default()
        },
        dram_store(),
    )
    .expect("bind");

    let mut c1 = WireClient::connect(h.addr()).expect("connect");
    let mut c2 = WireClient::connect(h.addr()).expect("connect");
    c1.session(1).expect("first attach");
    c2.session(2).expect("second attach");

    // Third attach is shed with an explicit error, then the connection
    // closes (shedding, like the connection cap, is terminal).
    let mut c3 = WireClient::connect(h.addr()).expect("connect");
    let err = c3.session(3).expect_err("attach beyond the cap must shed");
    assert!(
        err.to_string().contains("too many sessions"),
        "unexpected shed reply: {err}"
    );
    let mut buf = [0u8; 16];
    assert!(
        matches!(c3.read_some(&mut buf), Ok(0) | Err(_)),
        "shed connection must be closed"
    );

    // Re-attaching rides the already-held slot — no leak, no double count.
    c1.session(11).expect("re-attach on a held slot");
    assert_eq!(stat_value(&c1.stats().unwrap(), "curr_sessions"), 2);

    // `session close` frees a slot for the next attach...
    c1.session_close().expect("close");
    assert_eq!(stat_value(&c1.stats().unwrap(), "curr_sessions"), 1);
    let mut c4 = WireClient::connect(h.addr()).expect("connect");
    c4.session(4).expect("slot freed by close");

    // ...and so does plain disconnect.
    drop(c2);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if stat_value(&c4.stats().unwrap(), "curr_sessions") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never released its session slot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c5 = WireClient::connect(h.addr()).expect("connect");
    c5.session(5).expect("slot freed by disconnect");
    h.shutdown();
}

// ---- fence deadline ---------------------------------------------------------

/// One shard wears a straggler fault plan (every persistence event sleeps),
/// the other is healthy. A mutation routed to the healthy shard group-commits
/// and acks normally; one routed to the straggler blows the fence deadline —
/// its ack is withheld and the connection is severed with
/// `SERVER_ERROR timeout`.
#[test]
fn straggling_shard_fence_times_out_and_severs_only_its_connections() {
    let slow_pool = PmemPool::new(PmemConfig {
        chaos: ChaosConfig {
            straggler_permille: 1000,
            straggler_delay_us: 20_000,
            ..Default::default()
        },
        ..PmemConfig::strict_for_test(16 << 20)
    });
    let fast_pool = PmemPool::new(PmemConfig::strict_for_test(16 << 20));
    let mk = |pool: PmemPool| {
        Arc::new(KvStore::new(
            KvBackend::Montage(EpochSys::format(pool, esys_cfg())),
            NBUCKETS,
            CAPACITY,
        ))
    };
    // Shard 0 straggles, shard 1 is healthy.
    let store = ShardedKvStore::from_shards(vec![mk(slow_pool), mk(fast_pool)]);

    // Steer one key to each shard.
    let key_on = |shard: usize| {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| store.shard_of_bytes(k.as_bytes()) == Some(shard))
            .unwrap()
    };
    let (slow_key, fast_key) = (key_on(0), key_on(1));

    let h = KvServer::start_sharded(
        ServerConfig {
            workers: 1,
            sync_every: Some(1),
            // Well under one straggler-delayed advance (every clwb/fence
            // on shard 0 sleeps 20 ms), comfortably above a healthy fence.
            fence_deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        },
        store,
    )
    .expect("bind");

    // Healthy shard: the group fence makes the deadline and the ack flows.
    let mut fast = WireClient::connect(h.addr()).expect("connect");
    assert_eq!(fast.set(&fast_key, 0, b"v").expect("healthy set"), "STORED");

    // Straggling shard: the STORED ack must be withheld — the client reads
    // the timeout error instead, then EOF.
    let mut slow = WireClient::connect(h.addr()).expect("connect");
    let reply = slow.set(&slow_key, 0, b"v").expect("reply line");
    assert_eq!(reply, "SERVER_ERROR timeout");
    let mut buf = [0u8; 16];
    assert!(
        matches!(slow.read_some(&mut buf), Ok(0) | Err(_)),
        "timed-out connection must be severed"
    );

    // The degradation is observable and contained: the fence timeout is
    // counted, and the healthy shard's connection still serves.
    let stats = fast.stats().expect("stats");
    assert!(
        stat_value(&stats, "gc_fence_timeouts") >= 1,
        "fence timeout not counted"
    );
    assert_eq!(
        fast.get(&fast_key).expect("healthy get").map(|(_, v)| v),
        Some(b"v".to_vec())
    );
    h.crash(); // skip the final sync — it would wait out the straggler
}

/// `fence_deadline` is one budget for a batch's whole group fence. Two shards
/// sit on slow media (each line a fence drains costs 10 ms of device time),
/// one is healthy, and both slow shards owe the first advance of the fence a
/// full write-back. The group fence issues both drains before waiting on
/// either and gives up on both stragglers at its first deadline check: the
/// healthy connection is acked and the stragglers' connection severed after
/// one *overlapped* advance — well short of the two drains laid end to end,
/// the least that a fresh budget per shard in turn would cost.
#[test]
fn fence_deadline_is_one_budget_for_the_whole_group() {
    const LINE_NS: u64 = 10_000_000;
    const SLOW: [usize; 2] = [0, 2];
    let slow_pool = || {
        let mut cfg = PmemConfig::strict_for_test(16 << 20);
        cfg.latency.fence_per_line_ns = LINE_NS;
        PmemPool::new(cfg)
    };
    let pools = [
        slow_pool(),
        PmemPool::new(PmemConfig::strict_for_test(16 << 20)),
        slow_pool(),
    ];
    let store = ShardedKvStore::from_shards(
        pools
            .iter()
            .map(|pool| {
                Arc::new(KvStore::new(
                    KvBackend::Montage(EpochSys::format(pool.clone(), esys_cfg())),
                    NBUCKETS,
                    CAPACITY,
                ))
            })
            .collect(),
    );
    let key_on = |shard: usize, nth: usize| {
        (0..)
            .map(|i| format!("k{i}"))
            .filter(|k| store.shard_of_bytes(k.as_bytes()) == Some(shard))
            .nth(nth)
            .unwrap()
    };
    let h = KvServer::start_sharded(
        ServerConfig {
            workers: 1,
            // The first pair of sets below rides unfenced; the second pair
            // carries the counter across 4 and owes the group fence.
            sync_every: Some(4),
            // Far below one write-back on a slow shard, far above a healthy
            // shard's whole fence.
            fence_deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        },
        store.clone(),
    )
    .expect("bind");
    let value = [7u8; 1024];
    let set_on_both_slow_shards = |nth: usize| {
        let mut batch = Vec::new();
        for shard in SLOW {
            let head = format!("set {} 0 0 {}\r\n", key_on(shard, nth), value.len());
            batch.extend_from_slice(head.as_bytes());
            batch.extend_from_slice(&value);
            batch.extend_from_slice(b"\r\n");
        }
        batch
    };

    // Buffer a kilobyte on each slow shard, then close that epoch: the next
    // sync's *first* advance has to write it back. (This batch also pays the
    // worker's one-off superblock carve, off the clock.)
    let mut slow = WireClient::connect(h.addr()).expect("connect");
    slow.send_raw(&set_on_both_slow_shards(0)).expect("send");
    for _ in SLOW {
        assert_eq!(slow.read_line().expect("unfenced ack"), "STORED");
    }
    for shard in SLOW {
        store.shard(shard).esys().unwrap().advance_epoch();
    }
    let drained = |shard: usize| pools[shard].stats().snapshot().lines_drained;
    let before = SLOW.map(drained);

    let mut fast = WireClient::connect(h.addr()).expect("connect");
    let start = Instant::now();
    slow.send_raw(&set_on_both_slow_shards(1)).expect("send");
    assert_eq!(
        fast.set(&key_on(1, 0), 0, b"v").expect("healthy set"),
        "STORED"
    );
    assert_eq!(
        slow.read_line().expect("reply line"),
        "SERVER_ERROR timeout"
    );
    let took = start.elapsed();
    let mut buf = [0u8; 16];
    assert!(
        matches!(slow.read_some(&mut buf), Ok(0) | Err(_)),
        "timed-out connection must be severed"
    );

    // What each slow shard's device was charged for its one advance.
    let drains = [0, 1].map(|i| Duration::from_nanos((drained(SLOW[i]) - before[i]) * LINE_NS));
    assert!(drains.iter().all(|d| *d > Duration::from_millis(100)));
    assert!(took >= drains[0].max(drains[1]), "{took:?} vs {drains:?}");
    assert!(
        took < (drains[0] + drains[1]) * 3 / 4,
        "the stragglers were waited out one after the other: {took:?} vs {drains:?}"
    );
    // `stats` tells the same story: two timeouts, each straggler's verdict
    // clocked from the group's start (so past its own drain), and the time
    // the worker spent inside group fences covering the one that stalled it.
    let stats = fast.stats().expect("stats");
    assert_eq!(stat_value(&stats, "gc_fence_timeouts"), 2);
    for (shard, drain) in SLOW.iter().zip(drains) {
        let p99 = stat_value(&stats, &format!("shard{shard}_fence_p99_us"));
        assert!(u128::from(p99) * 2 > drain.as_micros(), "shard {shard}");
    }
    let wall = u128::from(stat_value(&stats, "gc_fence_wall_us"));
    assert!(wall >= drains[0].max(drains[1]).as_micros() && wall <= took.as_micros());
    h.crash(); // skip the final sync — it would wait out the stragglers
}

// ---- session close under crash sweep ---------------------------------------

/// Durable session id; `rid=1` seeds the counter, `rid=2..=RIDS` increment.
const SID: u64 = 9;
const RIDS: u64 = 8;
/// The workload detaches and re-attaches after this rid.
const CLOSE_AFTER: u64 = 4;

/// Drives the counter workload with a `session close` + re-attach in the
/// middle, publishing the last rid whose ack was read.
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
        if rid == CLOSE_AFTER {
            // Detach and immediately re-attach the same identity: pure
            // connection state, invisible to the descriptor table.
            if c.session_close().is_err() || c.session(SID).is_err() {
                return;
            }
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
    h.crash();
}

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
        .map_err(|e| format!("crash_at={crash_at}: re-attach failed: {e}"))?;

    // Blind retry from the first unacked rid: a mid-workload detach must
    // not change the exactly-once arithmetic one bit.
    let a = acked.load(Ordering::SeqCst);
    for rid in (a + 1)..=RIDS {
        if rid == 1 {
            let l = c
                .set_rid("ctr", 0, b"0", 1)
                .map_err(|e| format!("crash_at={crash_at}: retry rid=1 failed: {e}"))?;
            if l != "STORED" {
                return Err(format!("crash_at={crash_at}: retry rid=1 replied {l:?}"));
            }
        } else {
            let l = c
                .arith(true, "ctr", 1, Some(rid))
                .map_err(|e| format!("crash_at={crash_at}: retry rid={rid} failed: {e}"))?;
            let want = (rid - 1).to_string();
            if l != want {
                return Err(format!(
                    "crash_at={crash_at}: retry rid={rid} replied {l:?}, want {want:?} \
                     (acked={a}) — session close perturbed the dedupe"
                ));
            }
        }
    }
    let (_, data) = c
        .get("ctr")
        .map_err(|e| format!("crash_at={crash_at}: final get failed: {e}"))?
        .ok_or_else(|| format!("crash_at={crash_at}: counter missing"))?;
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

#[test]
fn session_close_is_crash_transparent_at_every_crash_point() {
    let acked = Arc::new(AtomicU64::new(0));
    let cfg = SweepConfig {
        // A server + client per point; sample the interior.
        exhaustive_limit: 256,
        samples: 48,
        seed: 0x5E55C105,
    };
    let (wl_acked, vf_acked) = (Arc::clone(&acked), Arc::clone(&acked));
    let report = crash_sweep(
        &cfg,
        PmemConfig::strict_for_test(16 << 20),
        move |pool| run_workload(pool, &wl_acked),
        move |durable, crash_at| verify(durable, crash_at, &vf_acked),
    );
    assert!(
        report.total_events >= 50,
        "workload too small to cover the session window: {} events",
        report.total_events
    );
    assert!(
        report.is_ok(),
        "{} of {} crash points broke exactly-once around session close: {:?}",
        report.failures.len(),
        report.crash_points.len(),
        report.failures
    );
}
