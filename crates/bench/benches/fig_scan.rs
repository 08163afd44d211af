//! **Range-scan throughput** — pipelined `scan` over loopback TCP against
//! the sharded Montage server, sweeping the scanned span while a write
//! fraction mutates the same key space. There is no counterpart figure in
//! the paper (Montage's mapped structures are point-read); this measures
//! the scan verb the sorted-list/ordered-mirror work added: per-stripe
//! consistent snapshots merged across shards, served concurrently with
//! epoch-buffered mutations.
//!
//! The span sweep factors the cost: span 1 is point-lookup-shaped (framing
//! and routing dominate), span 100 is the working-set headline, span 1000
//! amortizes everything but the merge and the wire bytes.
//!
//! Fixed shape: 8 clients; 64-byte values (a scan reply carries `span`
//! values, so values are kept small enough that the merge, not the wire, is
//! under test); 10 % of pipelined ops are `set`s, so scans always run
//! against live mutation; each row reports the median-throughput repetition
//! of 3. `MONTAGE_BENCH_SCALE` as everywhere else. Ungated: the numbers are
//! printed, nothing compares them (`mbench` is the gate).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use kvserver::{KvServer, ServerConfig, WireClient};
use kvstore::ShardedKvStore;
use montage::{Advancer, EsysConfig};
use montage_bench::harness::env_scale;
use montage_bench::report::{self, percentile};
use pmem::{LatencyModel, PmemConfig, PmemMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 4;
const PIPELINE: usize = 16;
const CLIENTS: usize = 8;
const VALUE_BYTES: usize = 64;
const WRITE_PCT: u64 = 10;
const REPEATS: usize = 3;

struct Knobs {
    records: u64,
    total_ops: u64,
    value: Vec<u8>,
}

struct RunResult {
    tput: f64,
    lats: Vec<u64>,
}

/// One full measurement at `span`: fresh 4-shard store, wire preload of
/// `records` zero-padded keys, then timed pipelined scan/set mixes from
/// `CLIENTS` connections.
fn run_once(span: u64, k: &Knobs) -> RunResult {
    let total_bytes = (96 << 20) + k.records as usize * (k.value.len() + 256) * 4;
    let pool_cfg = PmemConfig {
        size: total_bytes / SHARDS,
        mode: PmemMode::Fast,
        latency: LatencyModel::OPTANE,
        chaos: Default::default(),
    };
    let store = ShardedKvStore::format(
        SHARDS,
        pool_cfg,
        EsysConfig {
            max_threads: CLIENTS + 4,
            ..Default::default()
        },
        64,
        usize::MAX / 2,
    );
    let _adv = Advancer::start_group(
        (0..SHARDS)
            .map(|s| store.shard(s).esys().expect("montage shard").clone())
            .collect(),
    );
    let handle = KvServer::start_sharded(
        ServerConfig {
            max_conns: CLIENTS + 2,
            sync_every: Some(1),
            ..Default::default()
        },
        Arc::clone(&store),
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // Preload outside the timed section. Keys are zero-padded so the byte
    // order the scan contract promises matches numeric order.
    {
        let mut c = WireClient::connect(addr).expect("connect");
        for i in 0..k.records {
            c.set_noreply(&format!("s{i:08}"), 0, &k.value)
                .expect("preload");
        }
        let _ = c.get("s00000000").expect("preload barrier");
        c.quit().expect("quit");
    }

    let per_thread = k.total_ops / CLIENTS as u64;
    let barrier = Barrier::new(CLIENTS + 1);
    let lat_all = parking_lot::Mutex::new(Vec::<u64>::new());
    let start_cell = parking_lot::Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let barrier = &barrier;
            let lat_all = &lat_all;
            let k = &k;
            s.spawn(move || {
                let mut c = WireClient::connect(addr).expect("connect");
                let mut rng = SmallRng::seed_from_u64(0x5CA2 + t as u64);
                // Pre-serialize every batch (wrk-style): the timed loop is
                // pure send + reply-drain. Replies are drained by counting
                // "D\r\n" terminators — scans end in "END\r\n", sets answer
                // "STORED\r\n", and neither marker can occur earlier in a
                // reply (keys are "s<digits>", values all 'a's).
                let batches: Vec<Vec<u8>> = (0..per_thread / PIPELINE as u64)
                    .map(|_| {
                        let mut packet = Vec::with_capacity(PIPELINE * 48);
                        for _ in 0..PIPELINE {
                            if rng.gen_range(0..100) < WRITE_PCT {
                                let i = rng.gen_range(0..k.records);
                                packet.extend_from_slice(
                                    format!("set s{i:08} 0 0 {}\r\n", k.value.len()).as_bytes(),
                                );
                                packet.extend_from_slice(&k.value);
                                packet.extend_from_slice(b"\r\n");
                            } else {
                                let lo = rng.gen_range(0..k.records.saturating_sub(span).max(1));
                                let hi = lo + span - 1;
                                packet.extend_from_slice(
                                    format!("scan s{lo:08} s{hi:08} 4096\r\n").as_bytes(),
                                );
                            }
                        }
                        packet
                    })
                    .collect();
                let mut lat = Vec::with_capacity(batches.len());
                let mut scratch = vec![0u8; 256 << 10];
                barrier.wait();
                for packet in &batches {
                    let t0 = Instant::now();
                    c.send_raw(packet).expect("send batch");
                    let mut seen = 0usize;
                    let mut carry = 0usize;
                    while seen < PIPELINE {
                        let n = c.read_some(&mut scratch[carry..]).expect("drain replies");
                        assert!(n > 0, "server hung up mid-batch");
                        let avail = carry + n;
                        seen += scratch[..avail]
                            .windows(3)
                            .filter(|w| *w == b"D\r\n")
                            .count();
                        carry = avail.min(2);
                        let keep = avail - carry;
                        scratch.copy_within(keep..avail, 0);
                    }
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
    handle.shutdown();

    let ops = (per_thread / PIPELINE as u64) * PIPELINE as u64 * CLIENTS as u64;
    let mut lats = std::mem::take(&mut *lat_all.lock());
    lats.sort_unstable();
    RunResult {
        tput: ops as f64 / elapsed.as_secs_f64(),
        lats,
    }
}

fn main() {
    let scale = env_scale() / 10.0;
    let knobs = Knobs {
        records: ((50_000.0 * scale) as u64).max(4_000),
        total_ops: ((40_000.0 * scale) as u64).max(4_000),
        value: vec![b'a'; VALUE_BYTES],
    };

    report::header(
        "fig-scan",
        &format!(
            "sharded kvserver, pipelined scan/set mix over loopback, {} records, \
             {} ops, {CLIENTS} clients, {VALUE_BYTES}B values, {WRITE_PCT}% writes, \
             median of {REPEATS} runs",
            knobs.records, knobs.total_ops,
        ),
        &["span", "ops_per_sec", "batch_p50_us", "batch_p99_us"],
    );

    for span in [1u64, 100, 1000] {
        let mut runs: Vec<RunResult> = (0..REPEATS).map(|_| run_once(span, &knobs)).collect();
        runs.sort_by(|a, b| a.tput.total_cmp(&b.tput));
        let run = runs.swap_remove(runs.len() / 2);
        report::row(&[
            span.to_string(),
            report::raw(run.tput),
            percentile(&run.lats, 0.50).to_string(),
            percentile(&run.lats, 0.99).to_string(),
        ]);
    }
}
