//! Crash-cut acceptance for the event-driven server's group commit.
//!
//! The group-commit protocol acks a whole batch only after one shared
//! fence. The window this test aims at is the one the design note calls
//! out: the batch's payloads are applied (and sitting in their epoch's
//! write buffers) but the crash lands **before or inside the shared
//! fence**. Buffered durability then owes us an epoch-consistent cut —
//! never a torn value, never a later write without the earlier writes of
//! the same and prior batches that share its epoch.
//!
//! Mechanically this is a [`pmem_chaos::crash_sweep`]: the workload drives
//! pipelined 8-set rounds (one group commit each, `sync_every = 1`) over a
//! real socket, the sweep re-runs it with a crash injected at persistence
//! event 0, 1, 2, … and recovery is checked after every one. Each round
//! writes round number `r` to all eight keys, so the recovered state must
//! be a *cut*: every key at round `n_i`, the set of `n_i` spanning at most
//! two adjacent rounds (an epoch boundary can split one in-flight batch),
//! with the newer round held by a prefix of the batch's key order — the
//! same consistent-prefix rule the durable-linearizability checker
//! enforces, specialized to this workload's register semantics.
//!
//! Lives in the root suite because it needs `kvserver` (the wire path) and
//! `pmem-chaos` (the sweep driver) together.

use kvserver::{KvServer, PipeOp, ServerConfig, WireClient};
use kvstore::ShardedKvStore;
use montage::{EsysConfig, RecoveryError};
use pmem::{PmemConfig, PmemPool};
use pmem_chaos::{crash_sweep, shard_crash_sweep, SweepConfig};
use std::sync::atomic::{AtomicU64, Ordering};

const KEYS: usize = 8;
const ROUNDS: u64 = 10;
const NBUCKETS: usize = 8;
const CAPACITY: usize = 100_000;

fn esys_cfg() -> EsysConfig {
    EsysConfig {
        // one server worker + recovery + headroom
        max_threads: 4,
        ..Default::default()
    }
}

fn checksum(k: usize, r: u64) -> u64 {
    (k as u64).wrapping_mul(0x9E37_79B9) ^ r.wrapping_mul(0x85EB_CA6B)
}

fn value(k: usize, r: u64) -> String {
    format!("r{r}:k{k}:{}", checksum(k, r))
}

/// Drives the pipelined workload until it finishes or the injected crash
/// poisons the pool under the server (surfacing as wire errors).
fn run_workload(pool: &PmemPool) {
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
    let mut c = match WireClient::connect(h.addr()) {
        Ok(c) => c,
        Err(_) => {
            h.crash();
            return;
        }
    };
    'rounds: for r in 1..=ROUNDS {
        let vals: Vec<String> = (0..KEYS).map(|k| value(k, r)).collect();
        let keys: Vec<String> = (0..KEYS).map(|k| format!("gk{k}")).collect();
        let reqs: Vec<PipeOp> = keys
            .iter()
            .zip(&vals)
            .map(|(k, v)| PipeOp::Set(k, v.as_bytes()))
            .collect();
        if c.round(&reqs).is_err() {
            break 'rounds; // the injected crash reached the server
        }
    }
    // Crash-style stop: no final sync — the durable image stays exactly as
    // buffered durability (or the injected crash) left it.
    h.crash();
}

/// Recovery check for one crash point: the recovered image must be an
/// epoch-consistent cut of the round history.
fn verify(durable: PmemPool, crash_at: u64) -> Result<(), String> {
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
    let h = match KvServer::start_sharded(ServerConfig::default(), kv) {
        Ok(h) => h,
        Err(e) => return Err(format!("crash_at={crash_at}: rebind failed: {e}")),
    };
    let mut c = WireClient::connect(h.addr())
        .map_err(|e| format!("crash_at={crash_at}: reconnect failed: {e}"))?;

    let mut rounds = [0u64; KEYS];
    for (k, slot) in rounds.iter_mut().enumerate() {
        match c
            .get(&format!("gk{k}"))
            .map_err(|e| format!("crash_at={crash_at}: get failed: {e}"))?
        {
            None => {} // round 0: this key never became durable
            Some((_, raw)) => {
                let s = String::from_utf8(raw)
                    .map_err(|_| format!("crash_at={crash_at}: torn value (not utf8)"))?;
                let mut parts = s.split(':');
                let r: u64 = parts
                    .next()
                    .and_then(|p| p.strip_prefix('r'))
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("crash_at={crash_at}: torn value {s:?}"))?;
                let kk: usize = parts
                    .next()
                    .and_then(|p| p.strip_prefix('k'))
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("crash_at={crash_at}: torn value {s:?}"))?;
                let sum: u64 = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("crash_at={crash_at}: torn value {s:?}"))?;
                if kk != k || sum != checksum(k, r) || r == 0 || r > ROUNDS {
                    return Err(format!(
                        "crash_at={crash_at}: torn or misplaced value {s:?} under gk{k}"
                    ));
                }
                *slot = r;
            }
        }
    }
    h.shutdown();

    // The cut rule. All keys within one batch ride the same pinned epoch
    // window, so the recovered rounds span at most two adjacent values …
    let hi = rounds.iter().copied().max().unwrap();
    let lo = rounds.iter().copied().min().unwrap();
    if hi - lo > 1 {
        return Err(format!(
            "crash_at={crash_at}: rounds {rounds:?} span more than one batch boundary"
        ));
    }
    // … and when a batch is split, the epoch tick fell at one point in the
    // batch's key order: the newer round occupies a *prefix* of k0..k7.
    if hi != lo {
        let first_lo = rounds.iter().position(|&r| r == lo).unwrap();
        if rounds[first_lo..].contains(&hi) {
            return Err(format!(
                "crash_at={crash_at}: rounds {rounds:?} — newer round is not a prefix, \
                 acked batch was torn out of order"
            ));
        }
    }
    Ok(())
}

/// Acceptance: every crash point in a multi-batch group-commit run — the
/// apply-to-fence window included — recovers to an epoch-consistent cut,
/// with zero violations.
#[test]
fn group_commit_is_cut_consistent_at_every_crash_point() {
    let cfg = SweepConfig {
        // The wire workload costs a server + client per point; sample the
        // interior instead of sweeping thousands of points exhaustively.
        exhaustive_limit: 384,
        samples: 96,
        seed: 0xBA7C4,
    };
    let report = crash_sweep(
        &cfg,
        PmemConfig::strict_for_test(64 << 20),
        run_workload,
        verify,
    );
    assert!(
        report.total_events >= 100,
        "workload too small to cover the apply/fence window: {} events",
        report.total_events
    );
    assert!(
        report.is_ok(),
        "{} of {} crash points violated the cut rule: {:?}",
        report.failures.len(),
        report.crash_points.len(),
        report.failures
    );
}

// ---- the early write-back's window -------------------------------------------

/// Rounds 1 and 2 of the workload over `pool`. Returns the pool's event count
/// and `lines_drained` as of round 1's acks (`None`: the crash came first).
fn run_two_rounds(pool: &PmemPool) -> Option<(u64, u64)> {
    let store = ShardedKvStore::format_pools(vec![pool.clone()], esys_cfg(), NBUCKETS, CAPACITY);
    let cfg = ServerConfig {
        workers: 1,
        sync_every: Some(1),
        ..Default::default()
    };
    let h = KvServer::start_sharded(cfg, store).expect("bind");
    let mut c = WireClient::connect(h.addr()).expect("connect");
    let keys: Vec<String> = (0..KEYS).map(|k| format!("gk{k}")).collect();
    let mut round = |r: u64| {
        let vals: Vec<String> = (0..KEYS).map(|k| value(k, r)).collect();
        let sets = keys.iter().zip(&vals);
        let reqs: Vec<PipeOp> = sets.map(|(k, v)| PipeOp::Set(k, v.as_bytes())).collect();
        c.round(&reqs).is_ok()
    };
    let acked = round(1).then(|| {
        let at_ack = (
            pool.persistence_events(),
            pool.stats().snapshot().lines_drained,
        );
        round(2);
        at_ack
    });
    h.crash();
    acked
}

/// A batch that will sync starts each mutation's write-backs as the mutation
/// completes, so for most of the batch there are lines in flight that no
/// fence has covered yet. Crash at every event of such a batch, with every
/// in-flight line torn (a strict prefix of it reaches the medium): round 1
/// was acked, round 2 was not, so each key must come back holding round 1's
/// value or round 2's, whole — the unacked write absent or complete.
#[test]
fn crash_between_an_early_write_back_and_the_fence_keeps_every_key_whole() {
    let mut base = PmemConfig::strict_for_test(64 << 20);
    base.chaos.torn_line_permille = 1000;
    let armed = |crash_at: u64| {
        let mut cfg = base;
        cfg.chaos.crash_at_event = Some(crash_at);
        PmemPool::new(cfg)
    };
    let counting = armed(u64::MAX);
    let (round_2_from, drained_by_round_1) = run_two_rounds(&counting).expect("no crash armed");
    let round_2_to = counting.persistence_events();

    let mut in_window = 0;
    for crash_at in round_2_from + 1..=round_2_to {
        let pool = armed(crash_at);
        let at_ack = run_two_rounds(&pool);
        assert_eq!(
            at_ack,
            Some((round_2_from, drained_by_round_1)),
            "{crash_at}"
        );
        let durable = pool.crash();
        // Write-backs were in flight (the crash tore them) and no fence of
        // round 2 had drained anything: the window this case is about.
        let stats = pool.stats().snapshot();
        if stats.torn_lines > 0 && stats.lines_drained == drained_by_round_1 {
            in_window += 1;
        }
        let (kv, report) =
            ShardedKvStore::recover(vec![durable], esys_cfg(), NBUCKETS, CAPACITY, 2);
        assert!(report.shards[0].fatal.is_none(), "crash_at={crash_at}");
        let h = KvServer::start_sharded(ServerConfig::default(), kv).expect("rebind");
        let mut c = WireClient::connect(h.addr()).expect("reconnect");
        for k in 0..KEYS {
            let got = c.get(&format!("gk{k}")).expect("get").map(|(_, raw)| raw);
            let whole = (1..=2).any(|r| got.as_deref() == Some(value(k, r).as_bytes()));
            assert!(whole, "crash_at={crash_at}: gk{k} recovered as {got:?}");
        }
        h.shutdown();
    }
    assert!(
        in_window >= KEYS,
        "only {in_window} crash points fell between a write-back and the batch's fence"
    );
}

// ---- two shards, one group fence per batch ---------------------------------

/// Shard whose pool the sweep crashes; shard 0 stays healthy.
const VICTIM: usize = 1;

/// Eight key names alternating between the two shards.
fn two_shard_keys() -> Vec<String> {
    let router = kvstore::ShardRouter::new(2);
    let shard_of = |name: &str| {
        let mut key = [0u8; 32];
        key[..name.len()].copy_from_slice(name.as_bytes());
        router.route(&key)
    };
    (0..KEYS)
        .map(|k| {
            (0..)
                .map(|i| format!("gk{k}v{i}"))
                .find(|name| shard_of(name) == k % 2)
                .expect("some name routes to each shard")
        })
        .collect()
}

/// The same pipelined rounds over a two-shard store: the eight keys straddle
/// both shards, so every batch ends in one *group* fence over the two pools.
/// `acked` is the last round whose eight `STORED`s all reached the client.
fn run_two_shards(pools: &[PmemPool], acked: &AtomicU64) {
    acked.store(0, Ordering::SeqCst);
    let store = ShardedKvStore::format_pools(pools.to_vec(), esys_cfg(), NBUCKETS, CAPACITY);
    let keys = two_shard_keys();
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
        for r in 1..=ROUNDS {
            let vals: Vec<String> = (0..KEYS).map(|k| value(k, r)).collect();
            let reqs: Vec<PipeOp> = keys
                .iter()
                .zip(&vals)
                .map(|(k, v)| PipeOp::Set(k, v.as_bytes()))
                .collect();
            if c.round(&reqs).is_err() {
                break; // the victim's fence failed: the batch's acks are withheld
            }
            acked.store(r, Ordering::SeqCst);
        }
    }
    h.crash();
}

/// Both shards recover; every key — on the healthy shard and on the victim —
/// holds a whole value of a round no older than the last acked one. An ack
/// that escaped a batch whose group fence failed on the victim would show up
/// here as a victim-shard key behind `acked`.
fn verify_two_shards(pools: Vec<PmemPool>, crash_at: u64, acked: u64) -> Result<(), String> {
    let (kv, report) = ShardedKvStore::recover(pools, esys_cfg(), NBUCKETS, CAPACITY, 2);
    for sr in &report.shards {
        match &sr.fatal {
            // The crash predates the victim's pool header: nothing ran.
            Some(RecoveryError::UnformattedPool) if sr.shard == VICTIM && acked == 0 => {}
            Some(e) => {
                return Err(format!(
                    "crash_at={crash_at}: shard {} fatal: {e}",
                    sr.shard
                ))
            }
            None => {}
        }
    }
    if report.quarantined() != 0 {
        return Err(format!(
            "crash_at={crash_at}: clean crash quarantined payloads"
        ));
    }
    let h = KvServer::start_sharded(ServerConfig::default(), kv)
        .map_err(|e| format!("crash_at={crash_at}: rebind failed: {e}"))?;
    let mut c = WireClient::connect(h.addr())
        .map_err(|e| format!("crash_at={crash_at}: reconnect failed: {e}"))?;
    for (k, name) in two_shard_keys().iter().enumerate() {
        let got = c
            .get(name)
            .map_err(|e| format!("crash_at={crash_at}: get failed: {e}"))?;
        let round = match got {
            None => 0,
            Some((_, raw)) => (1..=ROUNDS)
                .find(|&r| value(k, r).as_bytes() == raw)
                .ok_or_else(|| format!("crash_at={crash_at}: torn value under {name}"))?,
        };
        if round < acked {
            return Err(format!(
                "crash_at={crash_at}: {name} (shard {}) recovered round {round}, \
                 but round {acked} was acked",
                k % 2
            ));
        }
    }
    h.shutdown();
    Ok(())
}

/// Acceptance: with the victim shard's pool dying at every persistence event
/// of the run — every event inside every group fence included — no ack
/// outruns either shard's durable image, and the healthy shard recovers
/// everything it acked.
#[test]
fn group_fence_over_two_shards_contains_a_shard_crash() {
    let cfg = SweepConfig {
        exhaustive_limit: 384,
        samples: 64,
        seed: 0x2_5BA7C4,
    };
    let acked = AtomicU64::new(0);
    let report = shard_crash_sweep(
        &cfg,
        PmemConfig::strict_for_test(64 << 20),
        2,
        VICTIM,
        |pools| run_two_shards(pools, &acked),
        |pools, crash_at| verify_two_shards(pools, crash_at, acked.load(Ordering::SeqCst)),
    );
    assert!(
        report.total_events >= 100,
        "victim saw too few events to cover the group fences: {}",
        report.total_events
    );
    report.assert_ok();
}
