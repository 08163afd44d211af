//! **Shard scaling** — YCSB-A driven over loopback TCP against the sharded
//! Montage server, sweeping the shard count at a fixed client count. The
//! single-pool store serializes every periodic `sync` behind one epoch
//! clock: a two-epoch advance quiesces *all* in-flight ops and drains
//! *all* write-back rings. Sharding splits the store into independent
//! persistence domains, so the same sync policy touches only the mutated
//! key's shard while the other shards keep streaming — that is the scaling
//! this figure measures (the paper's single-epoch design, Sec. 3, has no
//! counterpart; see DESIGN.md).
//!
//! The pmem latency model charges media-drain time to a *per-pool* device
//! queue (see `LatencyModel` docs): one pool means one DIMM's write
//! bandwidth shared by every client, so the 1-shard store is device-bound
//! exactly as the real single-pool Montage server is; each extra shard adds
//! an independent device.
//!
//! Fixed shape: 8 clients; a sync per mutation (every acked mutation is
//! durable before its reply — the strongest service level, and the one where
//! the sync path is the bottleneck under test); every client attaches a
//! durable session and stamps mutations with request ids, so each update also
//! writes its 96-byte descriptor; 4096-byte values (large enough that media
//! drain, not the wire, dominates); the Optane latency model; each row
//! reports the median-throughput repetition of 3. `MONTAGE_BENCH_SCALE` as
//! everywhere else. Ungated: the numbers are printed, nothing compares them
//! (`mbench` is the gate).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use kvserver::{KvServer, ServerConfig, WireClient};
use kvstore::ShardedKvStore;
use montage::{Advancer, EsysConfig};
use montage_bench::harness::env_scale;
use montage_bench::report::{self, percentile, PersistCost};
use pmem::{LatencyModel, PmemConfig, PmemMode};
use workloads::ycsb::{YcsbOp, YcsbWorkload};

const CLIENTS: usize = 8;
const SYNC_EVERY: u64 = 1;
const VALUE_BYTES: usize = 4096;
const REPEATS: usize = 3;

struct Knobs {
    records: u64,
    total_ops: u64,
    value: Vec<u8>,
}

struct RunResult {
    tput: f64,
    lats: Vec<u64>,
    cost: PersistCost,
}

/// One full measurement at `n_shards`: fresh store, wire preload, timed
/// pipelined YCSB-A from `CLIENTS` connections.
fn run_once(n_shards: usize, k: &Knobs) -> RunResult {
    const PIPELINE: usize = 32;
    // Same total NVM budget regardless of shard count.
    let total_bytes = (128 << 20) + k.records as usize * (k.value.len() + 256) * 4;
    let pool_cfg = PmemConfig {
        size: total_bytes / n_shards,
        mode: PmemMode::Fast,
        latency: LatencyModel::OPTANE,
        chaos: Default::default(),
    };
    let store = ShardedKvStore::format(
        n_shards,
        pool_cfg,
        EsysConfig {
            // ids per *shard*: preload + every client may touch it.
            max_threads: CLIENTS + 4,
            ..Default::default()
        },
        64,
        usize::MAX / 2,
    );
    let _adv = Advancer::start_group(
        (0..n_shards)
            .map(|s| store.shard(s).esys().expect("montage shard").clone())
            .collect(),
    );

    let handle = KvServer::start_sharded(
        ServerConfig {
            max_conns: CLIENTS + 2,
            sync_every: Some(SYNC_EVERY),
            ..Default::default()
        },
        Arc::clone(&store),
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // Preload over the wire, outside the timed section.
    {
        let mut c = WireClient::connect(addr).expect("connect");
        for i in 1..=k.records {
            c.set_noreply(&format!("k{i}"), 0, &k.value)
                .expect("preload");
        }
        let _ = c.get("k1").expect("preload barrier");
        c.quit().expect("quit");
    }

    let before = store.pool_stats_merged().unwrap_or_default();
    let per_thread = k.total_ops / CLIENTS as u64;
    let barrier = Barrier::new(CLIENTS + 1);
    let lat_all = parking_lot::Mutex::new(Vec::<u64>::new());
    let start_cell = parking_lot::Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let barrier = &barrier;
            let value = &k.value;
            let lat_all = &lat_all;
            let records = k.records;
            s.spawn(move || {
                let mut c = WireClient::connect(addr).expect("connect");
                // Durable client identity: every update below carries a
                // request id and writes a descriptor on its key's shard.
                c.session(t as u64 + 1).expect("session");
                let ops: Vec<YcsbOp> =
                    YcsbWorkload::with_mix(records, per_thread, 0x5CA1E + t as u64, 500).collect();
                // Serialize every request packet before the clock starts
                // (wrk-style): the timed loop is pure send + reply-drain,
                // so client-side formatting never pollutes the server
                // measurement. Replies are drained by counting their
                // terminators: gets end in "END\r\n" and sets answer
                // "STORED\r\n" — both end with "D\r\n", which appears
                // nowhere else in our replies (values are all 'a's).
                let mut rid = 0u64;
                let batches: Vec<(Vec<u8>, usize)> = ops
                    .chunks(PIPELINE)
                    .map(|batch| {
                        let mut packet = Vec::with_capacity(PIPELINE * 48);
                        for op in batch {
                            match op {
                                YcsbOp::Read(k) => {
                                    packet.extend_from_slice(format!("get k{k}\r\n").as_bytes());
                                }
                                YcsbOp::Update(k) => {
                                    // rids are client-global and strictly
                                    // increasing, so each shard sees a
                                    // strictly increasing subsequence —
                                    // always the apply-fresh path.
                                    rid += 1;
                                    packet.extend_from_slice(
                                        format!("set k{k} 0 0 {} rid={rid}\r\n", value.len())
                                            .as_bytes(),
                                    );
                                    packet.extend_from_slice(value);
                                    packet.extend_from_slice(b"\r\n");
                                }
                            }
                        }
                        (packet, batch.len())
                    })
                    .collect();
                let mut lat = Vec::with_capacity(batches.len());
                let mut scratch = vec![0u8; 64 << 10];
                barrier.wait();
                // Pipelined: one packet of PIPELINE commands, then the
                // replies drained in bulk. This keeps every connection's
                // server thread busy concurrently, which is what makes
                // per-pool device contention visible.
                for (packet, n_replies) in &batches {
                    let t0 = Instant::now();
                    c.send_raw(packet).expect("send batch");
                    let mut seen = 0usize;
                    let mut carry = 0usize; // bytes held over from the last read
                    while seen < *n_replies {
                        let n = c.read_some(&mut scratch[carry..]).expect("drain replies");
                        assert!(n > 0, "server hung up mid-batch");
                        let avail = carry + n;
                        seen += scratch[..avail]
                            .windows(3)
                            .filter(|w| *w == b"D\r\n")
                            .count();
                        // Keep the last 2 bytes so a marker split across
                        // reads is still seen by the next scan (counting
                        // it twice is impossible: a window is counted
                        // only once the full 3 bytes are present).
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
    let after = store.pool_stats_merged().unwrap_or_default();
    handle.shutdown();

    let ops = per_thread * CLIENTS as u64;
    let mut lats = std::mem::take(&mut *lat_all.lock());
    lats.sort_unstable();
    RunResult {
        tput: ops as f64 / elapsed.as_secs_f64(),
        lats,
        cost: PersistCost::from_snapshots(before, after, ops),
    }
}

fn main() {
    let scale = env_scale() / 10.0;
    let knobs = Knobs {
        records: ((YcsbWorkload::RECORDS as f64 * scale) as u64).max(1_000),
        total_ops: ((YcsbWorkload::OPS as f64 * scale) as u64).max(5_000),
        value: vec![b'a'; VALUE_BYTES],
    };

    report::header(
        "fig-shard-scaling",
        &format!(
            "sharded kvserver, YCSB-A over loopback, {} records, {} ops, {CLIENTS} clients, \
             {VALUE_BYTES}B values, sync every {SYNC_EVERY} mutations, sessions, \
             median of {REPEATS} runs",
            knobs.records, knobs.total_ops,
        ),
        &[
            "shards",
            "ops_per_sec",
            "speedup",
            "batch_p50_us",
            "batch_p99_us",
            "batch_p999_us",
            "flushes_per_op",
            "fences_per_op",
        ],
    );

    let mut base_tput = None::<f64>;
    for n_shards in [1usize, 2, 4, 8] {
        // Scheduler noise on a shared box swings single runs by ±15%; the
        // median repetition is the stable figure.
        let mut runs: Vec<RunResult> = (0..REPEATS).map(|_| run_once(n_shards, &knobs)).collect();
        runs.sort_by(|a, b| a.tput.total_cmp(&b.tput));
        let run = runs.swap_remove(runs.len() / 2);

        let speedup = run.tput / *base_tput.get_or_insert(run.tput);
        let [flushes, fences] = run.cost.fields();
        report::row(&[
            n_shards.to_string(),
            report::raw(run.tput),
            format!("{speedup:.2}"),
            percentile(&run.lats, 0.50).to_string(),
            percentile(&run.lats, 0.99).to_string(),
            // The p999 panel is the nonblocking-advance story: the tail a
            // single straggling thread used to put on *everyone's* sync.
            percentile(&run.lats, 0.999).to_string(),
            flushes,
            fences,
        ]);
    }
}
