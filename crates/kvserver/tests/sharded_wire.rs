//! Wire tests for the sharded server surface: pipelined traffic spanning
//! every shard across a crash-restart, per-shard quarantine counters in
//! `stats`, cross-worker atomicity, and growth under concurrent load.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kvserver::{KvServer, ServerConfig, WireClient};
use kvstore::ShardedKvStore;
use montage::EsysConfig;
use pmem::PmemConfig;

const SHARDS: usize = 4;
const STRIPES: usize = 8;
const CAPACITY: usize = 100_000;

fn sharded_store() -> Arc<ShardedKvStore> {
    ShardedKvStore::format(
        SHARDS,
        PmemConfig::strict_for_test(16 << 20),
        EsysConfig::default(),
        STRIPES,
        CAPACITY,
    )
}

/// Reads one `stats` reply off the wire into (name, value) pairs.
fn read_stats(c: &mut WireClient) -> std::collections::HashMap<String, u64> {
    c.send_raw(b"stats\r\n").unwrap();
    let mut stats = std::collections::HashMap::new();
    loop {
        let line = c.read_line().unwrap();
        if line == "END" {
            return stats;
        }
        let mut parts = line.split_whitespace();
        assert_eq!(parts.next(), Some("STAT"), "bad stats line: {line}");
        let name = parts.next().expect("stat name").to_string();
        let value: u64 = parts.next().expect("stat value").parse().unwrap();
        stats.insert(name, value);
    }
}

/// Pipelined sets land on all four shards through one connection; after an
/// explicit sync, a hard crash, and a parallel multi-pool recovery, every
/// synced key reads back exactly — and anything unsynced that survived must
/// still read back exactly (never torn).
#[test]
fn pipelined_ops_span_all_shards_across_a_crash_restart() {
    const SYNCED_KEYS: usize = 40;
    const UNSYNCED_KEYS: usize = 8;

    let store = sharded_store();
    // The fixed key set must actually exercise the router's spread.
    let covered: HashSet<usize> = (0..SYNCED_KEYS)
        .filter_map(|i| store.shard_of_bytes(format!("skey{i}").as_bytes()))
        .collect();
    assert!(
        covered.len() >= 3,
        "test keys only cover shards {covered:?}; pick a bigger key set"
    );

    let h = KvServer::start_sharded(ServerConfig::default(), Arc::clone(&store)).expect("bind");
    let mut c = WireClient::connect(h.addr()).unwrap();

    // One pipelined packet of sets, answers read back in order.
    let mut packet = Vec::new();
    for i in 0..SYNCED_KEYS {
        let val = format!("v{i}");
        packet.extend_from_slice(format!("set skey{i} 0 0 {}\r\n{val}\r\n", val.len()).as_bytes());
    }
    c.send_raw(&packet).unwrap();
    for i in 0..SYNCED_KEYS {
        assert_eq!(c.read_line().unwrap(), "STORED", "set #{i}");
    }
    // The wire `sync` fans out across every shard's epoch system.
    c.sync().unwrap();

    // A few more writes that are *not* synced: they may or may not survive
    // the crash, but they must never come back torn.
    for i in 0..UNSYNCED_KEYS {
        let val = format!("u{i}");
        assert_eq!(
            c.set(&format!("ukey{i}"), 0, val.as_bytes()).unwrap(),
            "STORED"
        );
    }

    h.crash(); // sever connections, no final sync

    let (store2, report) = ShardedKvStore::recover(
        store.crash_pools(),
        EsysConfig::default(),
        STRIPES,
        CAPACITY,
        SHARDS,
    );
    assert!(
        report.is_clean(),
        "clean crash must recover clean: {report:?}"
    );
    assert_eq!(report.shards.len(), SHARDS);

    let h2 = KvServer::start_sharded(ServerConfig::default(), store2).expect("bind");
    let mut c2 = WireClient::connect(h2.addr()).unwrap();

    // Pipelined gets across all shards: every synced key must be intact.
    let mut packet = Vec::new();
    for i in 0..SYNCED_KEYS {
        packet.extend_from_slice(format!("get skey{i}\r\n").as_bytes());
    }
    c2.send_raw(&packet).unwrap();
    for i in 0..SYNCED_KEYS {
        let val = format!("v{i}");
        assert_eq!(
            c2.read_line().unwrap(),
            format!("VALUE skey{i} 0 {}", val.len()),
            "synced key skey{i} lost or damaged"
        );
        assert_eq!(c2.read_line().unwrap(), val);
        assert_eq!(c2.read_line().unwrap(), "END");
    }
    for i in 0..UNSYNCED_KEYS {
        if let Some((_, raw)) = c2.get(&format!("ukey{i}")).unwrap() {
            assert_eq!(raw, format!("u{i}").as_bytes(), "torn unsynced value");
        }
    }
    c2.quit().unwrap();
    h2.shutdown();
}

/// `stats` must expose the per-shard fault counters: after recovery
/// quarantines a corrupt payload on one shard, exactly that shard's
/// `shardN_pmem_quarantined_payloads` reads 1 (and the aggregate too),
/// while the other shards stay clean and keep serving.
#[test]
fn stats_reports_per_shard_quarantine_counters() {
    const VICTIM: usize = 2;

    let store = sharded_store();
    let h = KvServer::start_sharded(ServerConfig::default(), Arc::clone(&store)).expect("bind");
    let mut c = WireClient::connect(h.addr()).unwrap();
    for i in 0..32 {
        assert_eq!(c.set(&format!("qkey{i}"), 0, b"payload").unwrap(), "STORED");
    }
    c.sync().unwrap();
    c.quit().unwrap();
    h.crash();

    // Plant one extra payload on the victim shard at a known block offset,
    // make it durable, then corrupt its header in the durable image — the
    // kind byte is invalid and the header checksum no longer matches.
    let esys = store.shard(VICTIM).esys().expect("montage shard").clone();
    let tid = esys.register_thread();
    let g = esys.begin_op(tid);
    let victim_blk = esys.pnew_bytes(&g, 9, b"doomed").raw();
    drop(g);
    esys.sync();
    let pool = esys.pool();
    // SAFETY: in-bounds header byte of the payload created just above; the
    // test is single-threaded at this point.
    unsafe { pool.write::<u8>(victim_blk.add(4), &0xFF) };
    pool.persist_range(victim_blk, 8);

    let (store2, report) = ShardedKvStore::recover(
        store.crash_pools(),
        EsysConfig::default(),
        STRIPES,
        CAPACITY,
        SHARDS,
    );
    assert!(!report.is_clean());
    for sr in &report.shards {
        assert!(sr.fatal.is_none(), "quarantine must not be fatal");
        assert_eq!(
            sr.quarantined,
            if sr.shard == VICTIM { 1 } else { 0 },
            "shard {} quarantine count",
            sr.shard
        );
    }

    let h2 = KvServer::start_sharded(ServerConfig::default(), store2).expect("bind");
    let mut c2 = WireClient::connect(h2.addr()).unwrap();
    let stats = read_stats(&mut c2);
    assert_eq!(stats["shards"], SHARDS as u64);
    assert_eq!(stats["pmem_quarantined_payloads"], 1, "aggregate counter");
    for s in 0..SHARDS {
        assert_eq!(
            stats[&format!("shard{s}_pmem_quarantined_payloads")],
            u64::from(s == VICTIM),
            "per-shard counter for shard {s}"
        );
        assert_eq!(stats[&format!("shard{s}_pool_faulted")], 0);
        assert!(stats.contains_key(&format!("shard{s}_montage_epoch")));
    }
    // The store still serves: all pre-crash keys survive (the quarantined
    // payload was the planted foreign block, not a kv item).
    for i in 0..32 {
        assert_eq!(
            c2.get(&format!("qkey{i}")).unwrap(),
            Some((0, b"payload".to_vec())),
            "qkey{i}"
        );
    }
    c2.quit().unwrap();
    h2.shutdown();
}

/// Sessionless conditional ops must be atomic across connections: the
/// accept loop round-robins connections onto different workers, so racing
/// `incr`s on one key interleave read-decide-write unless the store holds
/// the shard lock across the whole decision. 4 connections × 250 blind
/// increments must land on exactly 1000, and concurrent `add`s of a fresh
/// key must elect exactly one winner.
#[test]
fn sessionless_mutations_are_atomic_across_workers() {
    let cfg = ServerConfig {
        workers: 4, // force real cross-worker interleaving
        ..Default::default()
    };
    let handle = KvServer::start_sharded(cfg, sharded_store()).expect("bind");
    let addr = handle.addr();

    let mut c = WireClient::connect(addr).unwrap();
    assert_eq!(c.set("ctr", 0, b"0").unwrap(), "STORED");

    let racers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = WireClient::connect(addr).unwrap();
                for _ in 0..250 {
                    let r = c.arith(true, "ctr", 1, None).unwrap();
                    assert!(r.parse::<u64>().is_ok(), "bad incr reply: {r}");
                }
                let mut stored = 0;
                for round in 0..20 {
                    c.send_raw(format!("add race{round} 0 0 1\r\nx\r\n").as_bytes())
                        .unwrap();
                    match c.read_line().unwrap().as_str() {
                        "STORED" => stored += 1,
                        "NOT_STORED" => {}
                        other => panic!("bad add reply: {other}"),
                    }
                }
                stored
            })
        })
        .collect();
    let stored_total: usize = racers.into_iter().map(|h| h.join().unwrap()).sum();

    assert_eq!(
        c.get("ctr").unwrap(),
        Some((0, b"1000".to_vec())),
        "racing sessionless incrs lost updates"
    );
    assert_eq!(
        stored_total, 20,
        "each contested add key must elect exactly one STORED winner"
    );
    c.quit().unwrap();
    handle.shutdown();
}

/// Growth under load, end-to-end: 8 writer connections push the store from
/// empty to 16 000 keys (every stripe's index grows live) while reader
/// connections probe the writers' key sequences. No connection may see a
/// protocol error, a torn frame, or a previously-written key go missing.
#[test]
fn growth_under_wire_load_loses_nothing() {
    const WRITERS: usize = 8;
    const KEYS_PER_WRITER: usize = 2_000;

    let store = sharded_store();
    let h = KvServer::start_sharded(ServerConfig::default(), Arc::clone(&store)).expect("bind");
    let addr = h.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        handles.push(std::thread::spawn(move || {
            let mut c = WireClient::connect(addr).unwrap();
            // Writer w owns keys gw<w>k<i>; pipelined in bursts of 50.
            for burst in 0..(KEYS_PER_WRITER / 50) {
                let mut packet = Vec::new();
                for j in 0..50 {
                    let i = burst * 50 + j;
                    let val = format!("w{w}v{i}");
                    packet.extend_from_slice(
                        format!("set gw{w}k{i:05} 0 0 {}\r\n{val}\r\n", val.len()).as_bytes(),
                    );
                }
                c.send_raw(&packet).unwrap();
                for j in 0..50 {
                    assert_eq!(
                        c.read_line().unwrap(),
                        "STORED",
                        "writer {w} burst {burst} op {j} failed"
                    );
                }
            }
        }));
    }
    // Readers run until the writers are done.
    let mut observers = Vec::new();
    for o in 0..3 {
        let stop = stop.clone();
        observers.push(std::thread::spawn(move || {
            let mut c = WireClient::connect(addr).unwrap();
            let w = o % WRITERS;
            let (mut rounds, mut prefix) = (0u64, 0usize);
            while !stop.load(Ordering::Relaxed) {
                // Writer w inserts k00000, k00001, … in order, so its keys
                // form a dense prefix that only grows: probe upward to the
                // first miss. A shorter prefix than last round is a key that
                // was read once and then lost.
                let mut idx = 0;
                while idx < KEYS_PER_WRITER {
                    let got = c
                        .get(&format!("gw{w}k{idx:05}"))
                        .expect("get mid-growth must never error");
                    match got {
                        Some((_, v)) => assert_eq!(v, format!("w{w}v{idx}").as_bytes()),
                        None => break,
                    }
                    idx += 1;
                }
                assert!(
                    idx >= prefix,
                    "writer {w}'s prefix shrank from {prefix} to {idx} mid-growth"
                );
                prefix = idx;
                rounds += 1;
            }
            rounds
        }));
    }
    for hdl in handles {
        hdl.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let rounds: u64 = observers.into_iter().map(|o| o.join().unwrap()).sum();
    assert!(rounds > 0, "readers never completed a probe");

    // Final state: every written key reads back, no losses.
    let mut c = WireClient::connect(addr).unwrap();
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            assert_eq!(
                c.get(&format!("gw{w}k{i:05}")).unwrap(),
                Some((0, format!("w{w}v{i}").into_bytes())),
                "writer {w} lost key {i}"
            );
        }
    }
    assert_eq!(store.len(), WRITERS * KEYS_PER_WRITER);
    h.shutdown();
}
