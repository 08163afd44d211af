//! **Figure 10** — memcached-shim throughput on YCSB-A (50% read / 50%
//! update, Zipfian keys) across the thread sweep, for items in DRAM, in NVM
//! (≈ Montage (T)), and fully persistent under Montage — mirroring the
//! paper's validation of the microbenchmark results in a real cache
//! application.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use kvstore::{make_key, KvBackend, KvStore};
use montage::{Advancer, EpochSys, EsysConfig};
use montage_bench::harness::{env_scale, env_threads};
use montage_bench::report;
use montage_bench::systems::nvm_pool;
use ralloc::Ralloc;
use workloads::ycsb::{YcsbOp, YcsbWorkload};

fn main() {
    let scale = env_scale();
    let records = ((YcsbWorkload::RECORDS as f64 * scale) as u64).max(1_000);
    let total_ops = ((YcsbWorkload::OPS as f64 * scale) as u64).max(10_000);
    let value = vec![0xABu8; 256];
    report::header(
        "fig10",
        &format!("memcached YCSB-A, {records} records, {total_ops} ops, value 256B"),
        &["backend", "threads", "ops_per_sec"],
    );

    for &threads in &env_threads() {
        let pool_bytes = (64 << 20) + records as usize * 1024 * 2;

        for backend_name in ["DRAM (T)", "NVM (T)", "Montage"] {
            let (kv, _hold): (Arc<KvStore>, Option<Advancer>) = match backend_name {
                "DRAM (T)" => (
                    Arc::new(KvStore::new(KvBackend::Dram, 64, usize::MAX / 2)),
                    None,
                ),
                "NVM (T)" => {
                    let r = Ralloc::format(nvm_pool(pool_bytes));
                    (
                        Arc::new(KvStore::new(KvBackend::Nvm(r), 64, usize::MAX / 2)),
                        None,
                    )
                }
                _ => {
                    let esys = EpochSys::format(
                        nvm_pool(pool_bytes),
                        EsysConfig {
                            max_threads: threads + 2,
                            ..Default::default()
                        },
                    );
                    let adv = Advancer::start(esys.clone());
                    (
                        Arc::new(KvStore::new(KvBackend::Montage(esys), 64, usize::MAX / 2)),
                        Some(adv),
                    )
                }
            };

            // Preload outside the timed section.
            let tid0 = kv.register_thread();
            for i in 1..=records {
                kv.set(tid0, make_key(i), &value);
            }

            let per_thread = total_ops / threads as u64;
            let barrier = Barrier::new(threads + 1);
            let start_cell = parking_lot::Mutex::new(None::<Instant>);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let kv = kv.clone();
                    let barrier = &barrier;
                    let value = &value;
                    s.spawn(move || {
                        let tid = kv.register_thread();
                        let work = YcsbWorkload::a(records, per_thread, 0xA11CE + t as u64);
                        barrier.wait();
                        for op in work {
                            match op {
                                YcsbOp::Read(k) => {
                                    kv.get(&make_key(k), |v| v.len());
                                }
                                YcsbOp::Update(k) => kv.set(tid, make_key(k), value),
                            }
                        }
                    });
                }
                barrier.wait();
                *start_cell.lock() = Some(Instant::now());
            });
            let elapsed = start_cell.lock().unwrap().elapsed();
            let tput = (per_thread * threads as u64) as f64 / elapsed.as_secs_f64();
            report::row(&[backend_name.into(), threads.to_string(), report::raw(tput)]);
        }
    }
}
