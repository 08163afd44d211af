//! Wire tests for the `scan` verb: reply framing (empty range, cross-shard
//! range, oversized replies, pipelined interleaving) and growth under
//! concurrent load — writers keep inserting while scanners and readers see
//! zero protocol errors and no lost keys.
//!
//! The kvstore's transient index grows implicitly, so the wire-level claim
//! checked here is the end-to-end one: growth is invisible to concurrent
//! wire traffic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kvserver::{KvServer, PipeOp, ServerConfig, WireClient};
use kvstore::ShardedKvStore;
use montage::EsysConfig;
use pmem::PmemConfig;

const SHARDS: usize = 4;
const STRIPES: usize = 8;
const CAPACITY: usize = 200_000;

fn sharded_store() -> Arc<ShardedKvStore> {
    ShardedKvStore::format(
        SHARDS,
        PmemConfig::strict_for_test(32 << 20),
        EsysConfig::default(),
        STRIPES,
        CAPACITY,
    )
}

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

/// Framing cases in one session: an empty range and an inverted range both
/// answer a bare `END`; a range spanning every shard comes back merged and
/// key-ordered; and a huge (oversized) reply — hundreds of records, large
/// values — frames exactly, record by record, with the client-side limit
/// honored and the server-side clamp bounding the worst case.
#[test]
fn scan_framing_empty_cross_shard_and_oversized() {
    let store = sharded_store();
    let h = KvServer::start_sharded(ServerConfig::default(), Arc::clone(&store)).expect("bind");
    let mut c = WireClient::connect(h.addr()).unwrap();

    // Empty store, empty and inverted ranges.
    assert!(c.scan("a", "z", None).unwrap().is_empty());
    assert!(c.scan("z", "a", None).unwrap().is_empty());

    // 600 keys, 200-byte values → a full-range reply well past one packet.
    const N: usize = 600;
    let value = "x".repeat(200);
    let mut packet = Vec::new();
    for i in 0..N {
        packet.extend_from_slice(
            format!("set sk{i:04} 0 0 {}\r\n{value}\r\n", value.len()).as_bytes(),
        );
    }
    c.send_raw(&packet).unwrap();
    for i in 0..N {
        assert_eq!(c.read_line().unwrap(), "STORED", "set #{i}");
    }
    // The key set must span shards for "cross-shard" to mean anything.
    let covered: std::collections::HashSet<usize> = (0..N)
        .filter_map(|i| store.shard_of_bytes(format!("sk{i:04}").as_bytes()))
        .collect();
    assert!(covered.len() == SHARDS, "keys cover only {covered:?}");

    // Sub-range: exact bounds, inclusive, ordered.
    let r = c.scan("sk0100", "sk0109", None).unwrap();
    assert_eq!(
        r.iter().map(|(k, _, _)| k.as_str()).collect::<Vec<_>>(),
        (100..110).map(|i| format!("sk{i:04}")).collect::<Vec<_>>()
    );
    assert!(r.iter().all(|(_, _, v)| v.len() == 200));

    // Oversized reply: the whole key space (~126 KB of payload). The
    // default limit (256) caps it; an explicit big limit returns all 600.
    let r = c.scan("sk0000", "sk9999", None).unwrap();
    assert_eq!(r.len(), 256, "default limit");
    let r = c.scan("sk0000", "sk9999", Some(4096)).unwrap();
    assert_eq!(r.len(), N);
    let keys: Vec<&String> = r.iter().map(|(k, _, _)| k).collect();
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "merged scan is sorted"
    );
    // Requested limits above the server clamp still frame correctly.
    let r = c.scan("sk0000", "sk9999", Some(1_000_000)).unwrap();
    assert_eq!(r.len(), N);

    // Range bounds need not exist.
    let r = c.scan("sk0100x", "sk0102", None).unwrap();
    assert_eq!(r.len(), 2, "left bound between keys: {r:?}");

    // Scans are counted in stats.
    let stats = read_stats(&mut c);
    assert!(stats["scan_requests"] >= 7, "{stats:?}");
    h.shutdown();
}

/// Scans interleave with gets and sets inside one pipelined burst without
/// desyncing the reply stream — the multi-record scan reply sits between
/// single-record replies and every record frames exactly.
#[test]
fn pipelined_scan_framing() {
    let store = sharded_store();
    let h = KvServer::start_sharded(ServerConfig::default(), Arc::clone(&store)).expect("bind");
    let mut c = WireClient::connect(h.addr()).unwrap();

    for i in 0..40 {
        c.set(&format!("pk{i:02}"), 0, format!("val{i}").as_bytes())
            .unwrap();
    }
    // set | scan | get | scan | set | get, all in one burst, three times.
    for round in 0..3 {
        let k1 = format!("extra{round}a");
        let k2 = format!("extra{round}b");
        c.round(&[
            PipeOp::Set(&k1, b"1"),
            PipeOp::Scan("pk00", "pk99"),
            PipeOp::Get("pk07"),
            PipeOp::Scan("zz", "zz"), // empty reply mid-burst
            PipeOp::Set(&k2, b"2"),
            PipeOp::Get("pk33"),
        ])
        .unwrap();
    }
    // The stream is still in sync: a normal request round-trips.
    assert_eq!(
        c.get("pk07").unwrap().map(|(_, v)| v),
        Some(b"val7".to_vec())
    );
    h.shutdown();
}

/// Growth under load, end-to-end: 8 writer connections push the store from
/// empty to tens of thousands of keys (the transient index and every
/// per-stripe ordered mirror grow live) while scanner and reader
/// connections hammer overlapping ranges. No connection may see a protocol
/// error, a torn frame, or a missing previously-written key; every scan
/// must come back sorted and duplicate-free.
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
            // Writer w owns keys gw<w><i>; pipelined in bursts of 50.
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
    // Scanners + point readers run until the writers are done.
    let mut observers = Vec::new();
    for o in 0..3 {
        let stop = stop.clone();
        observers.push(std::thread::spawn(move || {
            let mut c = WireClient::connect(addr).unwrap();
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let w = o % WRITERS;
                let r = c
                    .scan(&format!("gw{w}k"), &format!("gw{w}l"), Some(4096))
                    .expect("scan mid-growth must never error");
                let keys: Vec<&String> = r.iter().map(|(k, _, _)| k).collect();
                assert!(
                    keys.windows(2).all(|x| x[0] < x[1]),
                    "scan mid-growth unsorted/duplicated"
                );
                // Prefix property: writer w inserts k00000..k<n> in order,
                // so the scanned key set must be a dense prefix — a hole
                // would be a lost key.
                for (idx, key) in keys.iter().enumerate() {
                    assert_eq!(
                        key.as_str(),
                        format!("gw{w}k{idx:05}"),
                        "hole in writer {w}'s key sequence mid-growth"
                    );
                }
                // A point read of the oldest key must always hit once seen.
                if !keys.is_empty() {
                    assert!(
                        c.get(&format!("gw{w}k00000")).unwrap().is_some(),
                        "established key vanished mid-growth"
                    );
                }
                scans += 1;
            }
            scans
        }));
    }
    for hdl in handles {
        hdl.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let scans: u64 = observers.into_iter().map(|o| o.join().unwrap()).sum();
    assert!(scans > 0, "observers never got a scan in");

    // Final state: every writer's full range, no losses.
    let mut c = WireClient::connect(addr).unwrap();
    for w in 0..WRITERS {
        let r = c
            .scan(&format!("gw{w}k"), &format!("gw{w}l"), Some(4096))
            .unwrap();
        assert_eq!(r.len(), KEYS_PER_WRITER, "writer {w} lost keys");
    }
    assert_eq!(store.len(), WRITERS * KEYS_PER_WRITER);
    h.shutdown();
}
