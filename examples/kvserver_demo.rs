//! Boots the networked KV server over a Montage-backed store, drives a few
//! thousand wire operations (sets, gets, pipelining, noreply, explicit
//! sync), then simulates a crash and restarts the server on the recovered
//! pool — verifying the synced prefix survived. Doubles as the CI smoke test
//! for the serving stack.
//!
//! ```sh
//! cargo run --release --example kvserver_demo
//! ```
//!
//! While it runs (or with your own long-running server), any memcached
//! client works, including netcat:
//!
//! ```sh
//! printf 'set greeting 0 0 5\r\nhello\r\nget greeting\r\nsync\r\nquit\r\n' | nc 127.0.0.1 <port>
//! ```

use montage_suite::kvserver::{KvServer, ServerConfig, WireClient};
use montage_suite::kvstore::ShardedKvStore;
use montage_suite::montage::EsysConfig;
use montage_suite::pmem::PmemConfig;

const OPS: u64 = 3000;

fn main() {
    // --- Boot: a strict-mode pool so crash() has a durable image to keep.
    // One shard here; more shards are the same calls with a larger count.
    let store = ShardedKvStore::format(
        1,
        PmemConfig::strict_for_test(64 << 20),
        EsysConfig {
            max_threads: 8,
            ..Default::default()
        },
        8,
        100_000,
    );
    let server = KvServer::start_sharded(ServerConfig::default(), store.clone()).expect("bind");
    println!("kvserver listening on {}", server.addr());

    // --- A few thousand wire ops from a plain blocking client.
    let mut c = WireClient::connect(server.addr()).expect("connect");
    for i in 0..OPS {
        let key = format!("k{}", i % 500);
        if i % 3 == 0 {
            c.set_noreply(&key, 0, format!("v{i}").as_bytes()).unwrap();
        } else {
            assert_eq!(
                c.set(&key, 0, format!("v{i}").as_bytes()).unwrap(),
                "STORED"
            );
        }
        if i % 5 == 4 {
            c.get(&key).unwrap();
        }
    }
    println!("ran {OPS} mixed set/get ops over loopback");

    // Pipelining: four commands, one packet.
    c.send_raw(b"set p 0 0 2\r\nhi\r\nget p\r\ndelete p\r\nget p\r\n")
        .unwrap();
    assert_eq!(c.read_line().unwrap(), "STORED");
    assert_eq!(c.read_line().unwrap(), "VALUE p 0 2");
    assert_eq!(c.read_line().unwrap(), "hi");
    assert_eq!(c.read_line().unwrap(), "END");
    assert_eq!(c.read_line().unwrap(), "DELETED");
    assert_eq!(c.read_line().unwrap(), "END");
    println!("pipelined batch answered in order");

    // --- Durability boundary: ack a write, then make it crash-proof.
    assert_eq!(c.set("wal", 7, b"must-survive").unwrap(), "STORED");
    c.sync().expect("SYNCED only after EpochSys::sync returns");
    assert_eq!(c.set("maybe", 0, b"unsynced").unwrap(), "STORED");
    drop(c);

    // --- Crash: sever connections, stop threads, no final sync.
    server.crash();
    let (recovered, report) =
        ShardedKvStore::recover(store.crash_pools(), EsysConfig::default(), 8, 100_000, 2);
    assert!(report.is_clean(), "{report:?}");
    let [sweep, cancel, rebuild] = report.phases();
    println!(
        "crash: recovered {} items from the durable image \
         (sweep {sweep:.1?}, cancel {cancel:.1?}, rebuild {rebuild:.1?})",
        recovered.len()
    );

    // --- Restart on the recovered pool; clients reconnect.
    let server2 = KvServer::start_sharded(ServerConfig::default(), recovered).expect("rebind");
    let mut c2 = WireClient::connect(server2.addr()).expect("reconnect");
    let (flags, val) = c2.get("wal").unwrap().expect("synced write must survive");
    assert_eq!((flags, val.as_slice()), (7, &b"must-survive"[..]));
    match c2.get("maybe").unwrap() {
        Some((_, v)) => println!("unsynced write happened to survive: {:?}", v.len()),
        None => println!("unsynced write was (legitimately) lost with the buffered epochs"),
    }
    c2.quit().unwrap();
    server2.shutdown();
    println!("ok: synced prefix survived the crash; server restarted cleanly");
}
