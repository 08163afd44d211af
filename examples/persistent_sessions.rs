//! Persistence across *process* runs: the pool's durable image is saved to
//! a snapshot file on exit and re-opened on the next run — the workflow a
//! DAX-mapped file gives real persistent-memory programs, demonstrated with
//! the memcached protocol surface.
//!
//! ```sh
//! cargo run --release --example persistent_sessions          # run 1: creates state
//! cargo run --release --example persistent_sessions          # run 2: finds it again
//! cargo run --release --example persistent_sessions reset    # start over
//! ```

use std::sync::Arc;

use kvstore::protocol::Session;
use kvstore::ShardedKvStore;
use montage::EsysConfig;
use pmem::{PmemConfig, PmemPool};

const POOL_BYTES: usize = 64 << 20;

fn snapshot_path() -> std::path::PathBuf {
    std::env::temp_dir().join("montage-persistent-sessions.pmem")
}

fn main() {
    let path = snapshot_path();
    if std::env::args().nth(1).as_deref() == Some("reset") {
        let _ = std::fs::remove_file(&path);
        println!("snapshot removed; next run starts fresh");
        return;
    }

    let cfg = PmemConfig::strict_for_test(POOL_BYTES);
    let session_over =
        |store: &Arc<ShardedKvStore>| Session::sharded(store.clone(), Arc::new(store.lease()));
    let (store, generation) = match PmemPool::load_from_file(&path, cfg) {
        Ok(pool) => {
            // A previous run left persistent state: recover it.
            let (store, report) =
                ShardedKvStore::recover(vec![pool], EsysConfig::default(), 8, 100_000, 2);
            assert_eq!(
                report.fatal_shards(),
                0,
                "snapshot unrecoverable: {report:?}"
            );
            let session = session_over(&store);
            let gen_resp = session.execute("get generation", b"");
            let generation: u64 = gen_resp
                .lines()
                .nth(1)
                .and_then(|l| l.trim().parse().ok())
                .unwrap_or(0);
            println!(
                "recovered {} items from a previous process (generation {generation})",
                store.len()
            );
            (store, generation)
        }
        Err(_) => {
            println!("no snapshot found; formatting a fresh pool");
            (
                ShardedKvStore::format(1, cfg, EsysConfig::default(), 8, 100_000),
                0,
            )
        }
    };

    // Do this run's work through the memcached protocol.
    let session = session_over(&store);
    let generation = generation + 1;
    let gen_str = generation.to_string();
    assert_eq!(
        session.execute(
            &format!("set generation 0 0 {}", gen_str.len()),
            gen_str.as_bytes()
        ),
        "STORED"
    );
    let key = format!("run-{generation}");
    let val = format!("state written by process generation {generation}");
    session.execute(&format!("set {key} 0 0 {}", val.len()), val.as_bytes());
    println!("this is process generation {generation}; stored '{key}'");

    // Show everything accumulated so far.
    for g in 1..=generation {
        let r = session.execute(&format!("get run-{g}"), b"");
        if let Some(line) = r.lines().nth(1) {
            println!("  run-{g}: {line}");
        }
    }

    // Persist and snapshot — the moral equivalent of unmounting the DAX file.
    store.sync().expect("healthy pool syncs");
    let esys = store.shard(0).esys().expect("montage shard");
    esys.pool().save_to_file(&path).expect("snapshot failed");
    println!("state synced and snapshotted to {}", path.display());
}
