//! End-to-end wire tests: real sockets, real threads, real crash-restart.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kvserver::{KvServer, ServerConfig, WireClient};
use kvstore::{KvBackend, KvStore, ShardedKvStore};
use montage::{EpochSys, EsysConfig};
use pmem::{PmemConfig, PmemPool};

fn dram_server(cfg: ServerConfig) -> kvserver::ServerHandle {
    let store = Arc::new(KvStore::new(KvBackend::Dram, 8, 100_000));
    KvServer::start_sharded(cfg, ShardedKvStore::from_shards(vec![store])).expect("bind")
}

fn montage_store(max_threads: usize) -> (Arc<EpochSys>, Arc<ShardedKvStore>) {
    let store = ShardedKvStore::format(
        1,
        PmemConfig::strict_for_test(64 << 20),
        EsysConfig {
            max_threads,
            ..Default::default()
        },
        8,
        100_000,
    );
    let esys = store.shard(0).esys().expect("montage shard").clone();
    (esys, store)
}

/// The store a restart finds on `esys`'s durable image.
fn recovered_store(esys: &EpochSys) -> Arc<ShardedKvStore> {
    let pools = vec![esys.pool().crash()];
    ShardedKvStore::recover(pools, EsysConfig::default(), 8, 100_000, 2).0
}

#[test]
fn roundtrip_pipelining_and_noreply() {
    let h = dram_server(ServerConfig::default());
    let mut c = WireClient::connect(h.addr()).unwrap();

    assert_eq!(c.set("greeting", 42, b"hello").unwrap(), "STORED");
    assert_eq!(c.get("greeting").unwrap(), Some((42, b"hello".to_vec())));
    assert_eq!(c.delete("greeting").unwrap(), "DELETED");
    assert_eq!(c.get("greeting").unwrap(), None);

    // Several commands in one packet come back in order, one write.
    c.send_raw(b"set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\nget a\r\nbogus\r\n")
        .unwrap();
    assert_eq!(c.read_line().unwrap(), "STORED");
    assert_eq!(c.read_line().unwrap(), "STORED");
    assert_eq!(c.read_line().unwrap(), "VALUE a 0 1");
    assert_eq!(c.read_line().unwrap(), "A");
    assert_eq!(c.read_line().unwrap(), "END");
    assert_eq!(c.read_line().unwrap(), "ERROR");

    // noreply sets produce no replies; the following get proves they ran.
    c.set_noreply("quiet", 0, b"q1").unwrap();
    c.set_noreply("quiet", 0, b"q2").unwrap();
    assert_eq!(c.get("quiet").unwrap(), Some((0, b"q2".to_vec())));

    c.quit().unwrap();
    h.shutdown();
}

/// A `get` returns the bytes that were `set`: a value holding every byte
/// value (CR LF among them, and every invalid UTF-8 sequence) comes back
/// exact through each reading verb. The client reads `<len>` bytes and then
/// expects the frame's tail, so an announced length that is not the emitted
/// one fails here too.
#[test]
fn binary_value_round_trips_byte_exact() {
    let h = dram_server(ServerConfig::default());
    let mut c = WireClient::connect(h.addr()).unwrap();
    let all: Vec<u8> = (0..=255u8).collect();

    assert_eq!(c.set("bin", 9, &all).unwrap(), "STORED");
    assert_eq!(c.get("bin").unwrap(), Some((9, all.clone())));
    let (flags, _cas, data) = c.gets("bin").unwrap().expect("hit");
    assert_eq!((flags, data), (9, all));

    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn framing_survives_hostile_packetisation() {
    let h = dram_server(ServerConfig::default());
    let mut c = WireClient::connect(h.addr()).unwrap();
    let pause = Duration::from_millis(60); // > one server poll interval

    // Command line split mid-token, data block split mid-value, CRLF split
    // between CR and LF — each flushed as its own packet.
    for chunk in [
        &b"set spl"[..],
        b"it 7 0 5\r\nhe",
        b"llo\r",
        b"\nget split\r\n",
    ] {
        c.send_raw(chunk).unwrap();
        std::thread::sleep(pause);
    }
    assert_eq!(c.read_line().unwrap(), "STORED");
    assert_eq!(c.read_line().unwrap(), "VALUE split 7 5");
    assert_eq!(c.read_line().unwrap(), "hello");
    assert_eq!(c.read_line().unwrap(), "END");

    // Bare-\n endings (printf | nc without \r).
    c.send_raw(b"set bare 0 0 2\nok\nget bare\n").unwrap();
    assert_eq!(c.read_line().unwrap(), "STORED");
    assert_eq!(c.read_line().unwrap(), "VALUE bare 0 2");
    assert_eq!(c.read_line().unwrap(), "ok");
    assert_eq!(c.read_line().unwrap(), "END");

    // Data longer than announced: error reply, then resync on next command.
    c.send_raw(b"set bad 0 0 2\r\nabcdef\r\nget bare\r\n")
        .unwrap();
    assert_eq!(c.read_line().unwrap(), "CLIENT_ERROR bad data chunk");
    assert_eq!(c.read_line().unwrap(), "VALUE bare 0 2");
    assert_eq!(c.read_line().unwrap(), "ok");
    assert_eq!(c.read_line().unwrap(), "END");

    // Unknown command.
    c.send_raw(b"frobnicate now\r\n").unwrap();
    assert_eq!(c.read_line().unwrap(), "ERROR");

    c.quit().unwrap();
    h.shutdown();
}

/// The worker stops reading a connection at the first short read — the
/// socket is drained — instead of buying a `WouldBlock` with a second
/// syscall. Nothing may be stranded by that: a request whose second TCP
/// segment arrives sweeps later, and a pipelined burst several read buffers
/// long, are both served whole.
#[test]
fn short_reads_strand_no_bytes() {
    let h = dram_server(ServerConfig::default());
    let mut c = WireClient::connect(h.addr()).unwrap();

    let value = vec![b'x'; 3000];
    let mut request = b"set halves 1 0 3000\r\n".to_vec();
    request.extend_from_slice(&value);
    request.extend_from_slice(b"\r\n");
    let (first, second) = request.split_at(1500);
    c.send_raw(first).unwrap();
    std::thread::sleep(Duration::from_millis(60)); // > one server poll interval
    c.send_raw(second).unwrap();
    assert_eq!(c.read_line().unwrap(), "STORED");
    assert_eq!(c.get("halves").unwrap(), Some((1, value)));

    // 40 × 1 KiB sets in one write: over 40 KiB against a 16 KiB read
    // buffer, so the sweep sees full reads, then a short one.
    let body = |i: usize| vec![b'a' + (i % 26) as u8; 1024];
    let mut burst = Vec::new();
    for i in 0..40 {
        burst.extend_from_slice(format!("set burst{i} 0 0 1024\r\n").as_bytes());
        burst.extend_from_slice(&body(i));
        burst.extend_from_slice(b"\r\n");
    }
    assert!(burst.len() > 40 << 10);
    c.send_raw(&burst).unwrap();
    for i in 0..40 {
        assert_eq!(c.read_line().unwrap(), "STORED", "set {i} of the burst");
    }
    for i in [0, 15, 16, 39] {
        assert_eq!(c.get(&format!("burst{i}")).unwrap(), Some((0, body(i))));
    }

    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn oversized_value_is_refused_without_buffering() {
    let h = dram_server(ServerConfig {
        max_value_bytes: 1024,
        ..Default::default()
    });
    let mut c = WireClient::connect(h.addr()).unwrap();
    let r = c.set("big", 0, &vec![b'x'; 10_000]).unwrap();
    assert_eq!(r, "SERVER_ERROR object too large for cache");
    // The connection stays usable afterwards.
    assert_eq!(c.set("small", 0, b"fits").unwrap(), "STORED");
    assert_eq!(c.get("big").unwrap(), None);
    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let h = dram_server(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..Default::default()
    });
    let mut c = WireClient::connect(h.addr()).unwrap();
    assert_eq!(c.set("k", 0, b"v").unwrap(), "STORED");
    std::thread::sleep(Duration::from_millis(600));
    // Server hung up; the next read sees EOF (or a reset).
    assert!(c.read_line().is_err(), "idle connection should be closed");
    h.shutdown();
}

#[test]
fn churn_beyond_max_threads_reuses_ids() {
    // Only 2 Montage thread ids exist; 40 sequential connections must all
    // succeed because disconnects return ids to the pool.
    let (_esys, store) = montage_store(2);
    let h = KvServer::start_sharded(ServerConfig::default(), store).expect("bind");
    for i in 0..40 {
        let mut c = WireClient::connect(h.addr()).unwrap();
        assert_eq!(
            c.set("churn", 0, format!("v{i}").as_bytes()).unwrap(),
            "STORED"
        );
        let (_, v) = c.get("churn").unwrap().expect("hit");
        assert_eq!(v, format!("v{i}").as_bytes());
        c.quit().unwrap();
        // Give the server a beat to retire the worker and free the id.
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(h.active_conns(), 0);
    h.shutdown();
}

#[test]
fn over_capacity_connect_is_refused_then_recovers() {
    let (_esys, store) = montage_store(2);
    let h = KvServer::start_sharded(
        ServerConfig {
            max_conns: 2,
            ..Default::default()
        },
        store,
    )
    .expect("bind");

    let mut a = WireClient::connect(h.addr()).unwrap();
    let mut b = WireClient::connect(h.addr()).unwrap();
    assert_eq!(a.set("ka", 0, b"1").unwrap(), "STORED");
    assert_eq!(b.set("kb", 0, b"2").unwrap(), "STORED");

    // Third concurrent connection: polite refusal, no panic, no leaked id.
    let mut c = WireClient::connect(h.addr()).unwrap();
    assert_eq!(c.read_line().unwrap(), "SERVER_ERROR busy");

    // Freeing one slot lets a new connection in.
    a.quit().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut d = loop {
        std::thread::sleep(Duration::from_millis(20));
        let mut d = WireClient::connect(h.addr()).unwrap();
        match d.set("kd", 0, b"4") {
            Ok(r) if r == "STORED" => break d,
            _ if std::time::Instant::now() < deadline => continue,
            other => panic!("slot never freed: {other:?}"),
        }
    };
    assert_eq!(d.get("kd").unwrap(), Some((0, b"4".to_vec())));
    h.shutdown();
}

#[test]
fn sync_every_n_advances_epochs() {
    let (esys, store) = montage_store(4);
    let h = KvServer::start_sharded(
        ServerConfig {
            sync_every: Some(4),
            ..Default::default()
        },
        store,
    )
    .expect("bind");
    let before = esys.curr_epoch();
    let mut c = WireClient::connect(h.addr()).unwrap();
    for i in 0..8 {
        assert_eq!(c.set("k", 0, format!("v{i}").as_bytes()).unwrap(), "STORED");
    }
    // 8 mutations at N=4 → at least two syncs → the clock moved ≥ 4 ticks.
    let after = esys.curr_epoch();
    assert!(after >= before + 4, "epoch {before} -> {after}");
    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn graceful_shutdown_persists_acked_writes() {
    let (esys, store) = montage_store(4);
    let h = KvServer::start_sharded(ServerConfig::default(), store).expect("bind");
    let mut c = WireClient::connect(h.addr()).unwrap();
    assert_eq!(c.set("durable", 9, b"kept").unwrap(), "STORED");
    drop(c);
    h.shutdown(); // ends with a full epoch sync

    let kv2 = recovered_store(&esys);
    let h2 = KvServer::start_sharded(ServerConfig::default(), kv2).expect("bind");
    let mut c2 = WireClient::connect(h2.addr()).unwrap();
    assert_eq!(c2.get("durable").unwrap(), Some((9, b"kept".to_vec())));
    h2.shutdown();
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

#[test]
fn panicking_handler_costs_only_its_own_connection() {
    let h = dram_server(ServerConfig {
        panic_on_cmd: Some("boom".into()),
        ..Default::default()
    });
    let mut a = WireClient::connect(h.addr()).unwrap();
    let mut b = WireClient::connect(h.addr()).unwrap();
    assert_eq!(a.set("ka", 0, b"1").unwrap(), "STORED");
    assert_eq!(b.set("kb", 0, b"2").unwrap(), "STORED");

    // Connection `a` trips the injected panic: it gets an error reply and
    // is dropped, nothing more.
    a.send_raw(b"boom\r\n").unwrap();
    assert_eq!(a.read_line().unwrap(), "SERVER_ERROR internal error");
    assert!(a.read_line().is_err(), "poisoned connection must be closed");

    // Concurrent and future connections are unaffected.
    assert_eq!(b.get("ka").unwrap(), Some((0, b"1".to_vec())));
    assert_eq!(b.set("kb", 0, b"3").unwrap(), "STORED");
    let mut c = WireClient::connect(h.addr()).unwrap();
    assert_eq!(c.get("kb").unwrap(), Some((0, b"3".to_vec())));
    c.quit().unwrap();
    b.quit().unwrap();
    h.shutdown();
}

#[test]
fn stats_reports_persistence_counters() {
    let (_esys, store) = montage_store(4);
    let h = KvServer::start_sharded(ServerConfig::default(), store).expect("bind");
    let mut c = WireClient::connect(h.addr()).unwrap();
    assert_eq!(c.set("k", 0, b"v").unwrap(), "STORED");
    c.sync().unwrap();
    let stats = read_stats(&mut c);
    assert_eq!(stats["curr_items"], 1);
    assert_eq!(stats["curr_connections"], 1);
    assert!(stats["pmem_clwbs"] > 0, "sync must have flushed lines");
    assert!(stats["pmem_sfences"] > 0);
    assert!(
        stats.contains_key("pmem_device_backlog_us"),
        "durability lag in µs is reported at every shard count"
    );
    assert_eq!(stats["pmem_injected_crashes"], 0);
    assert_eq!(stats["pmem_torn_lines"], 0);
    assert_eq!(stats["pmem_quarantined_payloads"], 0);
    assert_eq!(stats["pool_faulted"], 0);
    assert!(stats.contains_key("montage_epoch"));
    c.quit().unwrap();
    h.shutdown();
}

/// The `stats` reply is wire surface: `mbench`, `server_robustness` and
/// operators' dashboards read it by name. Pin the exact ordered name list on
/// a 1-shard and a 4-shard store, so a rewrite of the reply cannot drop,
/// rename or reorder a line unnoticed.
#[test]
fn stats_names_are_golden_on_one_and_four_shards() {
    const STORE_WIDE: [&str; 31] = [
        "curr_items",
        "evictions",
        "curr_connections",
        "curr_sessions",
        "total_mutations",
        "shards",
        "pmem_clwbs",
        "pmem_sfences",
        "pmem_lines_drained",
        "pmem_device_backlog_us",
        "pmem_crashes",
        "pmem_injected_crashes",
        "pmem_torn_lines",
        "pmem_quarantined_payloads",
        "montage_epoch",
        "pool_faulted",
        "dedupe_hits",
        "replayed_acks",
        "session_descriptors",
        "session_table_bytes",
        "gc_workers",
        "gc_batches",
        "gc_batched_requests",
        "gc_fences",
        "gc_acks",
        "gc_fence_timeouts",
        "gc_fence_wall_us",
        "gc_acks_per_fence_x1000",
        "fence_samples",
        "fence_p50_us",
        "fence_p99_us",
    ];
    const BATCH_HIST: [&str; 7] = [
        "batch_hist_1",
        "batch_hist_2",
        "batch_hist_4",
        "batch_hist_8",
        "batch_hist_16",
        "batch_hist_32",
        "batch_hist_64",
    ];
    const PER_WORKER: [&str; 3] = ["batches", "requests", "fences"];
    const PER_SHARD: [&str; 9] = [
        "pmem_clwbs",
        "pmem_sfences",
        "pmem_injected_crashes",
        "pmem_quarantined_payloads",
        "pmem_device_backlog_us",
        "montage_epoch",
        "pool_faulted",
        "fence_p50_us",
        "fence_p99_us",
    ];
    const WORKERS: usize = 2;
    const SETS: u64 = 64;

    for shards in [1usize, 4] {
        let mut golden: Vec<String> = STORE_WIDE.iter().map(|n| n.to_string()).collect();
        golden.extend(BATCH_HIST.iter().map(|n| format!("gc_{n}")));
        for w in 0..WORKERS {
            golden.extend(PER_WORKER.iter().map(|n| format!("worker{w}_{n}")));
            golden.extend(BATCH_HIST.iter().map(|n| format!("worker{w}_{n}")));
        }
        if shards > 1 {
            for i in 0..shards {
                golden.extend(PER_SHARD.iter().map(|n| format!("shard{i}_{n}")));
            }
            golden.extend((0..shards).map(|i| format!("shard{i}_descriptors")));
        }

        let store = ShardedKvStore::format(
            shards,
            PmemConfig::strict_for_test(16 << 20),
            EsysConfig::default(),
            8,
            100_000,
        );
        let cfg = ServerConfig {
            workers: WORKERS,
            sync_every: Some(1),
            ..Default::default()
        };
        let h = KvServer::start_sharded(cfg, store).expect("bind");
        let mut c = WireClient::connect(h.addr()).unwrap();
        // One set per batch, every ack durable: each set is a one-shard
        // group fence, and 64 keys reach every one of four shards.
        for i in 0..SETS {
            assert_eq!(c.set(&format!("k{i}"), 0, b"v").unwrap(), "STORED");
        }
        let stats = c.stats().unwrap();
        let names: Vec<&str> = stats.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, golden, "{shards} shard(s)");

        let value = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(value("shards"), shards as u64);
        assert_eq!(value("gc_fences"), SETS);
        assert_eq!(
            value("fence_samples"),
            SETS,
            "every per-shard histogram's samples, summed"
        );
        assert!(value("fence_p50_us") <= value("fence_p99_us"));
        assert_eq!(value("gc_batch_hist_1"), SETS, "one request per batch");
        if shards > 1 {
            for i in 0..shards {
                let shard = |q: &str| value(&format!("shard{i}_fence_{q}_us"));
                assert!(shard("p50") <= shard("p99"), "shard {i}");
            }
        }
        c.quit().unwrap();
        h.shutdown();
    }
}

#[test]
fn faulted_pool_degrades_to_errors_not_panics() {
    // Arm a fault plan that trips almost immediately; traffic after the
    // injected crash must be refused with a protocol error while the
    // server itself stays up and `stats` keeps answering.
    let mut cfg = PmemConfig::strict_for_test(64 << 20);
    cfg.chaos.crash_at_event = Some(1);
    let store =
        ShardedKvStore::format_pools(vec![PmemPool::new(cfg)], EsysConfig::default(), 8, 100_000);
    let h = KvServer::start_sharded(ServerConfig::default(), store).expect("bind");

    let mut c = WireClient::connect(h.addr()).unwrap();
    let reply = c.set("k", 0, b"v").unwrap();
    assert!(
        reply.starts_with("SERVER_ERROR persistent pool crashed"),
        "expected degraded refusal, got {reply:?}"
    );
    // The server is still alive: stats works on the same connection and
    // reports the injected crash.
    let stats = read_stats(&mut c);
    assert_eq!(stats["pmem_injected_crashes"], 1);
    assert_eq!(stats["pool_faulted"], 1);
    // And new connections are still accepted (and refused politely too).
    let mut d = WireClient::connect(h.addr()).unwrap();
    assert!(d
        .set("k2", 0, b"v2")
        .unwrap()
        .starts_with("SERVER_ERROR persistent pool crashed"));
    d.quit().unwrap();
    c.quit().unwrap();
    h.shutdown();
}

/// The headline test: concurrent clients stream writes with periodic
/// explicit syncs, the server crashes mid-flight, and the recovered store
/// must hold a **consistent prefix** — for each client, a value no older
/// than its last synced write, never torn, never phantom.
#[test]
fn crash_restart_recovers_consistent_prefix() {
    const WRITERS: usize = 3;
    const SYNC_EVERY: u64 = 8;

    let (esys, store) = montage_store(WRITERS + 2);
    let h = KvServer::start_sharded(ServerConfig::default(), store).expect("bind");
    let addr = h.addr();

    fn checksum(t: usize, c: u64) -> u64 {
        (t as u64).wrapping_mul(1_000_003) ^ c.wrapping_mul(17)
    }

    let last_synced: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());
    let last_acked: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let synced = Arc::clone(&last_synced);
            let acked = Arc::clone(&last_acked);
            std::thread::spawn(move || {
                let mut c = match WireClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                let key = format!("writer{t}");
                for i in 1u64.. {
                    let val = format!("t{t}:c{i}:{}", checksum(t, i));
                    match c.set(&key, 0, val.as_bytes()) {
                        Ok(r) if r == "STORED" => acked[t].store(i, Ordering::Release),
                        _ => return, // server crashed under us
                    }
                    if i % SYNC_EVERY == 0 {
                        if c.sync().is_err() {
                            return;
                        }
                        synced[t].store(i, Ordering::Release);
                    }
                }
            })
        })
        .collect();

    // Crash only after every writer has at least one synced write, so the
    // "nothing synced may be lost" assertion has teeth.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while last_synced.iter().any(|s| s.load(Ordering::Acquire) == 0) {
        assert!(std::time::Instant::now() < deadline, "writers never synced");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100)); // let more writes pile up
    h.crash(); // sever connections, no final sync
    for w in writers {
        w.join().unwrap();
    }

    // Restart on the durable image.
    let kv2 = recovered_store(&esys);
    let recovered_len = kv2.len();
    let h2 = KvServer::start_sharded(ServerConfig::default(), kv2).expect("bind");
    let mut c2 = WireClient::connect(h2.addr()).unwrap();

    let mut found = 0;
    for t in 0..WRITERS {
        let synced = last_synced[t].load(Ordering::Acquire);
        let acked = last_acked[t].load(Ordering::Acquire);
        match c2.get(&format!("writer{t}")).unwrap() {
            Some((_, raw)) => {
                found += 1;
                // Not torn: the value must parse and checksum exactly.
                let s = String::from_utf8(raw).expect("torn value: not utf8");
                let mut parts = s.split(':');
                let tt: usize = parts
                    .next()
                    .unwrap()
                    .strip_prefix('t')
                    .unwrap()
                    .parse()
                    .unwrap();
                let cc: u64 = parts
                    .next()
                    .unwrap()
                    .strip_prefix('c')
                    .unwrap()
                    .parse()
                    .unwrap();
                let sum: u64 = parts.next().unwrap().parse().unwrap();
                assert_eq!(tt, t, "value landed under the wrong key");
                assert_eq!(sum, checksum(t, cc), "torn value: checksum mismatch");
                // Consistent prefix: at least the last synced write, at most
                // one past the last acked (a set may have been in flight).
                assert!(
                    cc >= synced,
                    "writer {t}: synced c{synced} lost, recovered c{cc}"
                );
                assert!(
                    cc <= acked + 1,
                    "writer {t}: phantom future write c{cc} (acked c{acked})"
                );
            }
            None => {
                assert_eq!(synced, 0, "writer {t}: synced write vanished entirely");
            }
        }
    }
    // No phantom keys: the store holds exactly the writers' keys we found.
    assert_eq!(recovered_len, found, "phantom items survived the crash");
    h2.shutdown();
}

#[test]
fn cas_over_the_wire() {
    let h = dram_server(ServerConfig::default());
    let mut c = WireClient::connect(h.addr()).unwrap();

    assert_eq!(c.set("k", 3, b"one").unwrap(), "STORED");
    let (flags, casid, data) = c.gets("k").unwrap().expect("hit");
    assert_eq!((flags, data.as_slice()), (3, &b"one"[..]));

    // Matching cas id wins; the stored value and cas both move.
    assert_eq!(c.cas("k", 3, b"two", casid, None).unwrap(), "STORED");
    let (_, casid2, data2) = c.gets("k").unwrap().expect("hit");
    assert_eq!(data2, b"two");
    assert_ne!(casid2, casid, "every store mints a fresh cas id");

    // The old id now loses; the value is untouched.
    assert_eq!(c.cas("k", 3, b"stale", casid, None).unwrap(), "EXISTS");
    assert_eq!(c.get("k").unwrap(), Some((3, b"two".to_vec())));

    // cas on a missing key.
    assert_eq!(c.cas("nope", 0, b"x", 1, None).unwrap(), "NOT_FOUND");

    // add / replace conditional semantics ride the same path.
    c.send_raw(b"add k 0 0 1\r\nz\r\n").unwrap();
    assert_eq!(c.read_line().unwrap(), "NOT_STORED");
    c.send_raw(b"replace missing 0 0 1\r\nz\r\n").unwrap();
    assert_eq!(c.read_line().unwrap(), "NOT_STORED");

    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn incr_decr_over_the_wire() {
    let h = dram_server(ServerConfig::default());
    let mut c = WireClient::connect(h.addr()).unwrap();

    assert_eq!(c.set("n", 0, b"5").unwrap(), "STORED");
    assert_eq!(c.arith(true, "n", 3, None).unwrap(), "8");
    assert_eq!(c.arith(false, "n", 100, None).unwrap(), "0"); // floors at 0
    assert_eq!(c.get("n").unwrap(), Some((0, b"0".to_vec())));
    assert_eq!(c.arith(true, "missing", 1, None).unwrap(), "NOT_FOUND");

    assert_eq!(c.set("s", 0, b"abc").unwrap(), "STORED");
    assert_eq!(
        c.arith(true, "s", 1, None).unwrap(),
        "CLIENT_ERROR cannot increment or decrement non-numeric value"
    );

    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn session_rid_dedupes_and_shows_in_stats() {
    let h = dram_server(ServerConfig::default());
    let mut c = WireClient::connect(h.addr()).unwrap();

    // rid without a session is refused — dedupe identity cannot be
    // per-connection, or it would not survive a reconnect.
    c.send_raw(b"incr n 1 rid=1\r\n").unwrap();
    assert_eq!(
        c.read_line().unwrap(),
        "CLIENT_ERROR rid requires a session"
    );

    c.session(99).unwrap();
    assert_eq!(c.set_rid("n", 0, b"10", 1).unwrap(), "STORED");
    assert_eq!(c.arith(true, "n", 5, Some(2)).unwrap(), "15");
    // Blind retries of rid 2: answered from the descriptor, not re-applied.
    assert_eq!(c.arith(true, "n", 5, Some(2)).unwrap(), "15");
    assert_eq!(c.arith(true, "n", 5, Some(2)).unwrap(), "15");
    assert_eq!(c.get("n").unwrap(), Some((0, b"15".to_vec())));
    // A rid below the session's high-water mark is refused, not re-applied.
    c.send_raw(b"incr n 5 rid=1\r\n").unwrap();
    assert_eq!(
        c.read_line().unwrap(),
        "SERVER_ERROR stale request id (last acked 2)"
    );

    // A reconnect re-attaches the same durable identity and still dedupes.
    let mut c2 = WireClient::connect(h.addr()).unwrap();
    c2.session(99).unwrap();
    assert_eq!(c2.arith(true, "n", 5, Some(2)).unwrap(), "15");
    assert_eq!(c2.get("n").unwrap(), Some((0, b"15".to_vec())));

    let stats = read_stats(&mut c);
    assert_eq!(stats["dedupe_hits"], 3, "three duplicate rid-2 attempts");
    assert_eq!(stats["session_descriptors"], 1);
    assert!(stats["session_table_bytes"] > 0);
    assert_eq!(
        stats["replayed_acks"], 0,
        "replayed_acks counts only post-recovery replays"
    );

    c.quit().unwrap();
    c2.quit().unwrap();
    h.shutdown();
}

#[test]
fn session_replay_survives_crash_restart() {
    let (esys, store) = montage_store(4);
    let h = KvServer::start_sharded(ServerConfig::default(), store).expect("bind");
    let mut c = WireClient::connect(h.addr()).unwrap();
    c.session(4242).unwrap();
    assert_eq!(c.set_rid("ctr", 0, b"0", 1).unwrap(), "STORED");
    assert_eq!(c.arith(true, "ctr", 1, Some(2)).unwrap(), "1");
    assert_eq!(c.arith(true, "ctr", 1, Some(3)).unwrap(), "2");
    c.sync().unwrap();
    h.crash(); // the ack for rid 3 may or may not have reached the client

    let kv2 = recovered_store(&esys);
    let h2 = KvServer::start_sharded(ServerConfig::default(), kv2).expect("bind");
    let mut c2 = WireClient::connect(h2.addr()).unwrap();
    c2.session(4242).unwrap();

    // Blind retry of the last request: the recovered descriptor answers it
    // with the original reply; the counter does not move.
    assert_eq!(c2.arith(true, "ctr", 1, Some(3)).unwrap(), "2");
    assert_eq!(c2.get("ctr").unwrap(), Some((0, b"2".to_vec())));
    // The session continues where it left off.
    assert_eq!(c2.arith(true, "ctr", 1, Some(4)).unwrap(), "3");

    let stats = read_stats(&mut c2);
    assert_eq!(stats["replayed_acks"], 1, "one recovered-descriptor replay");
    assert!(stats["dedupe_hits"] >= 1);
    assert_eq!(stats["session_descriptors"], 1);

    c2.quit().unwrap();
    h2.shutdown();
}

#[test]
fn slow_loris_partial_frame_does_not_block_neighbours() {
    use std::io::{Read as _, Write as _};

    // One worker on purpose: the stalled connection and the live one share a
    // thread, so only nonblocking sweeps keep B responsive.
    let h = dram_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // A sends a set header and two bytes of a five-byte value, then stalls.
    let mut loris = std::net::TcpStream::connect(h.addr()).unwrap();
    loris.write_all(b"set half 0 0 5\r\nab").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // B gets full service while A's frame dangles.
    let mut c = WireClient::connect(h.addr()).unwrap();
    let t0 = std::time::Instant::now();
    assert_eq!(c.set("live", 0, b"x").unwrap(), "STORED");
    assert_eq!(c.get("live").unwrap(), Some((0, b"x".to_vec())));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "neighbour served only after {}ms",
        t0.elapsed().as_millis()
    );

    // A completes the frame and still gets its ack — a slow client is slow,
    // not broken.
    loris.write_all(b"cde\r\n").unwrap();
    let mut reply = [0u8; 8];
    loris.read_exact(&mut reply).unwrap();
    assert_eq!(&reply, b"STORED\r\n");
    assert_eq!(c.get("half").unwrap(), Some((0, b"abcde".to_vec())));

    c.quit().unwrap();
    h.shutdown();
}
