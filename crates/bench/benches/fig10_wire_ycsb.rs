//! **Figure 10 (wire edition)** — YCSB-A and YCSB-B driven over loopback TCP
//! through `kvserver`, for items in DRAM, in NVM, and fully persistent under
//! Montage. Where `fig10_memcached_ycsb` measures the cache library
//! in-process, this measures the whole serving stack: framing, session
//! leases, socket round-trips. Reports throughput, client-observed latency
//! percentiles, and the PersistCost (flushes / fences per op) that Montage's
//! buffering is designed to shrink.
//!
//! Montage runs twice per thread count: `buffered` (durability rides the
//! background advancer) and `sync1` (`sync_every=1`: every mutation is acked
//! durable), the mode the event-driven server's group commit amortizes.
//! Alongside the CSV, the run writes `BENCH_fig10_wire_ycsb.json` (or
//! `$BENCH_JSON_PATH`) for the `xtask bench-diff` regression gate.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use kvserver::{KvServer, PipeOp, ServerConfig, WireClient};
use kvstore::{KvBackend, KvStore, ShardedKvStore};
use montage::{Advancer, EpochSys, EsysConfig};
use montage_bench::harness::{env_scale, env_threads};
use montage_bench::report::{self, percentile, JsonReport, PersistCost};
use montage_bench::systems::nvm_pool;
use pmem::PmemPool;
use ralloc::Ralloc;
use workloads::ycsb::{YcsbOp, YcsbWorkload};

/// Which server core produced these numbers; recorded in the JSON so the
/// checked-in baseline can hold before/after rows side by side.
const SERVER_IMPL: &str = "event";

fn main() {
    // A socket round-trip per op is ~10x the cost of a library call; run a
    // tenth of the in-process op count for comparable wall time.
    let scale = env_scale() / 10.0;
    let records = ((YcsbWorkload::RECORDS as f64 * scale) as u64).max(1_000);
    let total_ops = ((YcsbWorkload::OPS as f64 * scale) as u64).max(5_000);
    // ASCII payload: the text protocol transcodes non-UTF-8 value bytes, and
    // a transcoded reply would make the read path measure extra bytes.
    let value = vec![b'a'; 256];
    // Requests in flight per connection. At depth 1 the socket RTT is the
    // ceiling and batches never form; pipelining is the workload shape that
    // lets the server's group commit amortize the per-mutation fence.
    let depth: usize = std::env::var("MONTAGE_BENCH_PIPELINE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
        .max(1);
    report::header(
        "fig10-wire",
        &format!(
            "kvserver YCSB over loopback, {records} records, {total_ops} ops, value 256B, pipeline {depth}"
        ),
        &[
            "workload",
            "backend",
            "mode",
            "pipeline",
            "threads",
            "ops_per_sec",
            "p50_us",
            "p99_us",
            "flushes_per_op",
            "fences_per_op",
        ],
    );

    let mut json = JsonReport::new("fig10_wire_ycsb");
    json.field("server", SERVER_IMPL);
    json.field("records", records);
    json.field("total_ops", total_ops);
    json.field("pipeline", depth as u64);
    let max_threads = env_threads().into_iter().max().unwrap_or(1);
    json.headline(&JsonReport::slug(&[
        "YCSB-A",
        "Montage",
        "sync1",
        SERVER_IMPL,
        &format!("p{depth}"),
        &format!("t{max_threads}"),
        "ops_per_sec",
    ]));

    for &threads in &env_threads() {
        let pool_bytes = (64 << 20) + records as usize * 1024 * 2;

        for (wl_name, read_permille) in [("YCSB-A", 500u32), ("YCSB-B", 950u32)] {
            for (backend_name, mode) in [
                ("DRAM (T)", "buffered"),
                ("NVM (T)", "buffered"),
                ("Montage", "buffered"),
                ("Montage", "sync1"),
            ] {
                // `pool` is the persistence domain whose flush/fence counters
                // we charge to the workload (None for DRAM); `esys` doubles
                // as the coalescing-audit source for the JSON report.
                let (kv, pool, esys, _hold): (
                    Arc<KvStore>,
                    Option<PmemPool>,
                    Option<Arc<EpochSys>>,
                    Option<Advancer>,
                ) = match backend_name {
                    "DRAM (T)" => (
                        Arc::new(KvStore::new(KvBackend::Dram, 64, usize::MAX / 2)),
                        None,
                        None,
                        None,
                    ),
                    "NVM (T)" => {
                        let r = Ralloc::format(nvm_pool(pool_bytes));
                        let pool = r.pool().clone();
                        (
                            Arc::new(KvStore::new(KvBackend::Nvm(r), 64, usize::MAX / 2)),
                            Some(pool),
                            None,
                            None,
                        )
                    }
                    _ => {
                        let esys = EpochSys::format(
                            nvm_pool(pool_bytes),
                            EsysConfig {
                                // ids for the preload session + each
                                // client connection + headroom for churn.
                                max_threads: threads + 4,
                                ..Default::default()
                            },
                        );
                        let pool = esys.pool().clone();
                        let adv = Advancer::start(esys.clone());
                        (
                            Arc::new(KvStore::new(
                                KvBackend::Montage(esys.clone()),
                                64,
                                usize::MAX / 2,
                            )),
                            Some(pool),
                            Some(esys),
                            Some(adv),
                        )
                    }
                };

                let handle = KvServer::start_sharded(
                    ServerConfig {
                        max_conns: threads + 2,
                        sync_every: (mode == "sync1").then_some(1),
                        ..Default::default()
                    },
                    ShardedKvStore::from_shards(vec![kv]),
                )
                .expect("bind loopback");
                let addr = handle.addr();

                // Preload over the wire, outside the timed section.
                {
                    let mut c = WireClient::connect(addr).expect("connect");
                    for i in 1..=records {
                        c.set_noreply(&format!("k{i}"), 0, &value).expect("preload");
                    }
                    // A replied command flushes the noreply stream.
                    let _ = c.get("k1").expect("preload barrier");
                    c.quit().expect("quit");
                }

                let before = pool
                    .as_ref()
                    .map(|p| p.stats().snapshot())
                    .unwrap_or_default();
                let coalesced_before = esys
                    .as_ref()
                    .map(|e| {
                        e.stats()
                            .flushes_coalesced
                            .load(std::sync::atomic::Ordering::Relaxed)
                    })
                    .unwrap_or(0);
                let per_thread = total_ops / threads as u64;
                let barrier = Barrier::new(threads + 1);
                let lat_all = parking_lot::Mutex::new(Vec::<u64>::new());
                let start_cell = parking_lot::Mutex::new(None::<Instant>);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let barrier = &barrier;
                        let value = &value;
                        let lat_all = &lat_all;
                        s.spawn(move || {
                            let mut c = WireClient::connect(addr).expect("connect");
                            let work = YcsbWorkload::with_mix(
                                records,
                                per_thread,
                                0xA11CE + t as u64,
                                read_permille,
                            );
                            // Latency samples are per pipelined round (depth
                            // requests in flight), the unit the client blocks
                            // on; at depth 1 this is per-op latency.
                            let mut lat = Vec::with_capacity(per_thread as usize / depth + 1);
                            let ops: Vec<YcsbOp> = work.collect();
                            barrier.wait();
                            for round in ops.chunks(depth) {
                                let keys: Vec<String> = round
                                    .iter()
                                    .map(|op| match op {
                                        YcsbOp::Read(k) | YcsbOp::Update(k) => format!("k{k}"),
                                    })
                                    .collect();
                                let reqs: Vec<PipeOp> = round
                                    .iter()
                                    .zip(&keys)
                                    .map(|(op, key)| match op {
                                        YcsbOp::Read(_) => PipeOp::Get(key),
                                        YcsbOp::Update(_) => PipeOp::Set(key, value),
                                    })
                                    .collect();
                                let t0 = Instant::now();
                                c.round(&reqs).expect("pipelined round");
                                lat.push(t0.elapsed().as_micros() as u64);
                            }
                            lat_all.lock().append(&mut lat);
                            c.quit().expect("quit");
                        });
                    }
                    barrier.wait();
                    *start_cell.lock() = Some(Instant::now());
                });
                let elapsed = start_cell.lock().unwrap().elapsed();
                let after = pool
                    .as_ref()
                    .map(|p| p.stats().snapshot())
                    .unwrap_or_default();
                let coalesced = esys
                    .as_ref()
                    .map(|e| {
                        e.stats()
                            .flushes_coalesced
                            .load(std::sync::atomic::Ordering::Relaxed)
                    })
                    .unwrap_or(0)
                    - coalesced_before;

                let ops = per_thread * threads as u64;
                let tput = ops as f64 / elapsed.as_secs_f64();
                let mut lats = std::mem::take(&mut *lat_all.lock());
                lats.sort_unstable();
                let p50 = percentile(&lats, 0.50);
                let p99 = percentile(&lats, 0.99);
                let cost = PersistCost::from_snapshots(before, after, ops);
                let [flushes, fences] = cost.fields();
                report::row(&[
                    wl_name.into(),
                    backend_name.into(),
                    mode.into(),
                    depth.to_string(),
                    threads.to_string(),
                    report::raw(tput),
                    p50.to_string(),
                    p99.to_string(),
                    flushes.clone(),
                    fences.clone(),
                ]);
                json.row(vec![
                    ("workload".to_string(), wl_name.into()),
                    ("backend".to_string(), backend_name.into()),
                    ("mode".to_string(), mode.into()),
                    ("server".to_string(), SERVER_IMPL.into()),
                    ("pipeline".to_string(), (depth as u64).into()),
                    ("threads".to_string(), (threads as u64).into()),
                    ("ops_per_sec".to_string(), tput.into()),
                    ("p50_us".to_string(), p50.into()),
                    ("p99_us".to_string(), p99.into()),
                    ("flushes_per_op".to_string(), cost.flushes_per_op.into()),
                    ("fences_per_op".to_string(), cost.fences_per_op.into()),
                    ("redundant_clwbs_avoided".to_string(), coalesced.into()),
                ]);
                for (metric, v) in [("ops_per_sec", tput), ("p99_us", p99 as f64)] {
                    json.metric(
                        &JsonReport::slug(&[
                            wl_name,
                            backend_name,
                            mode,
                            SERVER_IMPL,
                            &format!("p{depth}"),
                            &format!("t{threads}"),
                            metric,
                        ]),
                        v,
                    );
                }
                handle.shutdown();
            }
        }
    }

    match json.write() {
        Ok(path) => println!("# json: {}", path.display()),
        Err(e) => eprintln!("# json write failed: {e}"),
    }
}
