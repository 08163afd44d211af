//! Connection-scale test: the event-driven core holds ten thousand
//! concurrent connections on a handful of worker threads and a handful of
//! Montage ids, then serves a round-trip on every one of them.
//!
//! The client half runs in a subprocess ([`wire_blast`]) so each process
//! pays only its own half of the fd bill; see that binary's docs for the
//! READY/GO/DONE stdio protocol. `WIRE_SCALE_CONNS` overrides the
//! connection count (CI uses this to fit small runners); the default is
//! 10_000 for release builds and 1_000 for debug, where the unoptimized
//! sweep loop would make the full count needlessly slow.
//!
//! [`wire_blast`]: ../src/bin/wire_blast.rs

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvserver::{KvServer, ServerConfig};
use kvstore::{KvBackend, KvStore, ShardedKvStore};
use montage::{Advancer, EpochSys, EsysConfig};
use pmem::{PmemConfig, PmemPool};

fn conns() -> usize {
    if let Ok(v) = std::env::var("WIRE_SCALE_CONNS") {
        return v.parse().expect("WIRE_SCALE_CONNS");
    }
    if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    }
}

#[test]
fn ten_thousand_connections_on_four_workers() {
    let n = conns();
    let esys = EpochSys::format(
        PmemPool::new(PmemConfig {
            size: 256 << 20,
            ..Default::default()
        }),
        EsysConfig {
            // The point: id demand is per *worker*, not per connection. Ten
            // thousand sockets fit in an id table sized for a laptop.
            max_threads: 8,
            ..Default::default()
        },
    );
    let _adv = Advancer::start(esys.clone());
    let store = Arc::new(KvStore::new(
        KvBackend::Montage(esys),
        1 << 16,
        usize::MAX / 2,
    ));
    let handle = KvServer::start_sharded(
        ServerConfig {
            max_conns: n + 50,
            read_timeout: Duration::from_secs(120),
            ..Default::default()
        },
        ShardedKvStore::from_shards(vec![store]),
    )
    .expect("bind");

    let mut child = Command::new(env!("CARGO_BIN_EXE_wire_blast"))
        .arg(handle.addr().to_string())
        .arg(n.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn wire_blast");
    let mut child_in = child.stdin.take().unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());

    let mut line = String::new();
    child_out.read_line(&mut line).expect("read READY");
    assert_eq!(
        line.trim(),
        format!("READY {n}"),
        "client failed to connect all"
    );

    // The server should see every admitted connection; give the inboxes a
    // moment to drain into the workers' tables.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let active = handle.active_conns();
        if active == n {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server sees {active}/{n} connections"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    child_in.write_all(b"GO\n").expect("send GO");
    child_in.flush().unwrap();
    line.clear();
    child_out.read_line(&mut line).expect("read DONE");
    assert_eq!(
        line.trim(),
        format!("DONE {n}"),
        "not every connection completed its round-trip"
    );

    let status = child.wait().expect("wait wire_blast");
    assert!(status.success());

    // Quits drain: every connection slot is released.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.active_conns() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections never released",
            handle.active_conns()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
}
