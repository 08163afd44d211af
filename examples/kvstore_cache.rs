//! A persistent memcached-style cache session (the paper's Sec. 6.2
//! scenario): YCSB-A traffic against the direct-linked cache, a crash, and
//! recovery with the cache contents intact.
//!
//! ```sh
//! cargo run --release --example kvstore_cache
//! ```

use std::sync::Arc;
use std::time::Instant;

use kvstore::{make_key, KvBackend, KvStore};
use montage::{Advancer, EpochSys, EsysConfig};
use pmem::{PmemConfig, PmemMode, PmemPool};
use workloads::ycsb::{YcsbOp, YcsbWorkload};

const RECORDS: u64 = 10_000;
const OPS: u64 = 100_000;

fn main() {
    let pool = PmemPool::new(PmemConfig {
        size: 256 << 20,
        mode: PmemMode::Strict,
        ..Default::default()
    });
    let esys = EpochSys::format(pool, EsysConfig::default());
    let advancer = Advancer::start(esys.clone());

    let kv = Arc::new(KvStore::new(KvBackend::Montage(esys.clone()), 16, 1 << 20));
    let tid = kv.register_thread();

    // Load phase.
    let value = vec![0x42u8; 128];
    for i in 1..=RECORDS {
        kv.set(tid, make_key(i), &value);
    }
    println!("loaded {RECORDS} records");

    // Run phase: YCSB-A (50% read / 50% update, Zipfian).
    let start = Instant::now();
    let mut hits = 0u64;
    for op in YcsbWorkload::a(RECORDS, OPS, 7) {
        match op {
            YcsbOp::Read(k) => {
                if kv.get(&make_key(k), |_| ()).is_some() {
                    hits += 1;
                }
            }
            YcsbOp::Update(k) => kv.set(tid, make_key(k), &value),
        }
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "YCSB-A: {OPS} ops in {secs:.2}s ({:.0} ops/s), read hit-rate {:.1}%",
        OPS as f64 / secs,
        100.0 * hits as f64 / (OPS / 2) as f64
    );

    // Persist and crash.
    esys.sync();
    advancer.stop();
    let crashed = esys.pool().crash();
    println!("cache crashed; recovering...");

    let start = Instant::now();
    let rec = montage::recovery::recover(crashed, EsysConfig::default(), 4);
    let kv2 = KvStore::recover(rec.esys.clone(), 16, 1 << 20, &rec);
    println!(
        "recovered {} items in {:.3}s",
        kv2.len(),
        start.elapsed().as_secs_f64()
    );
    assert_eq!(kv2.len() as u64, RECORDS);
    assert!(kv2.get(&make_key(1), |_| ()).is_some());
    println!("kvstore_cache OK");
}
