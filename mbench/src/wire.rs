//! The wire workloads: a pinned `kvserver` over a sharded Montage store, a
//! closed-loop generator (one thread, two connections), and the crash check.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvserver::{KvServer, ServerConfig, ServerHandle};
use kvstore::protocol::Session;
use kvstore::ShardedKvStore;
use montage::{Advancer, EsysConfig};
use pmem::{LatencyModel, PmemConfig, PmemMode};

use crate::affinity;
use crate::measure::{finish_untraced, version_complaint, CrashReport, Load, Sample, Tally};
use crate::reply::{Outcome, ReplyReader};
use crate::spec::WireSpec;
use crate::stats;
use crate::stream::{self, Kind, Op, PacketBuilder, DEPTH};
use crate::{RunArgs, RunResult};

/// Lock stripes inside each shard.
pub const STRIPES: usize = 64;
/// Connections the generator drives.
pub const CONNS: usize = 2;
/// Session id the generator's connection `c` attaches is `SESSION_BASE + c`.
const SESSION_BASE: u64 = 1;

pub fn esys_config() -> EsysConfig {
    EsysConfig {
        max_threads: 8,
        ..EsysConfig::default()
    }
}

/// Pool bytes budgeted per live record: payload header, 32-byte key, the
/// protocol's 20-byte item header and the value, doubled — the allocator
/// rounds up to size classes, and copy-on-write updates and delayed
/// reclamation keep a second version alive for two epochs.
fn block_bytes(value_len: usize) -> usize {
    (montage::HDR_SIZE + 32 + 20 + value_len) * 2
}

/// A formatted store, its background advancer and its server.
pub struct Rig {
    pub store: Arc<ShardedKvStore>,
    advancer: Option<Advancer>,
    server: Option<ServerHandle>,
    pub addr: SocketAddr,
}

impl Rig {
    /// Formats a fresh store in `mode` for the spec's resident records and starts
    /// the advancer and, if `serve`, the server — all pinned, nothing auto.
    pub fn start(spec: &WireSpec, mode: PmemMode, serve: bool) -> Rig {
        // Plus room for superblocks of every size class in use.
        let total = (64 << 20) + spec.resident() as usize * block_bytes(spec.value_len);
        let per_shard = (total / spec.shards).next_multiple_of(1 << 20);
        let store = ShardedKvStore::format(
            spec.shards,
            PmemConfig {
                size: per_shard,
                mode,
                latency: LatencyModel::OPTANE,
                chaos: Default::default(),
            },
            esys_config(),
            STRIPES,
            spec.capacity.unwrap_or(usize::MAX / 2),
        );
        let mut rig = Rig {
            store,
            advancer: None,
            server: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        if serve {
            rig.advancer = Some(Advancer::start_group(rig.esyses()));
            let server = KvServer::start_sharded(
                ServerConfig {
                    workers: 1,
                    max_conns: 4,
                    sync_every: spec.sync_every,
                    ..ServerConfig::default()
                },
                Arc::clone(&rig.store),
            )
            .expect("bind loopback");
            rig.addr = server.addr();
            rig.server = Some(server);
        }
        rig
    }

    pub fn esyses(&self) -> Vec<Arc<montage::EpochSys>> {
        self.store
            .shards()
            .iter()
            .map(|s| Arc::clone(s.esys().expect("montage shard")))
            .collect()
    }

    /// Simulated power failure: stops the advancer, severs the server
    /// without its final sync, and leaves the store for `crash_pools`.
    pub fn crash(mut self) -> Arc<ShardedKvStore> {
        drop(self.advancer.take());
        if let Some(s) = self.server.take() {
            s.crash();
        }
        Arc::clone(&self.store)
    }
}

impl Drop for Rig {
    /// Clean stop: the server syncs on its way out and joins its threads.
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// One generator connection: its cycle of operations, its place in it, and
/// the buffers a round reuses.
pub struct Conn {
    out: TcpStream,
    replies: ReplyReader<TcpStream>,
    ops: Arc<[Op]>,
    round: usize,
    rid: u64,
    pkt: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr, ops: Arc<[Op]>, session: Option<u64>) -> io::Result<Conn> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        out.set_read_timeout(Some(Duration::from_secs(20)))?;
        let mut c = Conn {
            replies: ReplyReader::new(out.try_clone()?),
            out,
            ops,
            round: 0,
            rid: 0,
            pkt: Vec::with_capacity(DEPTH * 64),
        };
        if let Some(sid) = session {
            let line = c.command(&format!("session {sid}"))?;
            if line != format!("SESSION {sid}") {
                return Err(io::Error::other(format!("session attach refused: {line}")));
            }
        }
        Ok(c)
    }

    /// Sends one admin command and returns its one-line reply.
    pub fn command(&mut self, line: &str) -> io::Result<String> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\r\n")?;
        self.replies.read_line()
    }

    /// The server's `stats`, as name/value pairs.
    pub fn stats(&mut self) -> io::Result<Vec<(String, u64)>> {
        self.out.write_all(b"stats\r\n")?;
        let mut out = Vec::new();
        loop {
            let line = self.replies.read_line()?;
            if line == "END" {
                return Ok(out);
            }
            let mut f = line.split_whitespace();
            if let (Some("STAT"), Some(name), Some(v)) = (f.next(), f.next(), f.next()) {
                out.push((name.to_owned(), v.parse().unwrap_or(0)));
            }
        }
    }

    /// One closed-loop round on this connection alone: send, then read and
    /// check every reply.
    pub fn round(
        &mut self,
        builder: &PacketBuilder,
        value_len: usize,
        tally: &mut Tally,
    ) -> io::Result<()> {
        self.send_round(builder)?;
        self.drain_round(value_len, tally)
    }

    /// Builds and sends the next round's packet.
    fn send_round(&mut self, builder: &PacketBuilder) -> io::Result<()> {
        let at = self.round % (self.ops.len() / DEPTH) * DEPTH;
        builder.build(&self.ops[at..at + DEPTH], 0, &mut self.rid, &mut self.pkt);
        self.out.write_all(&self.pkt)
    }

    /// Reads and checks the replies of the round just sent.
    fn drain_round(&mut self, value_len: usize, tally: &mut Tally) -> io::Result<()> {
        let at = self.round % (self.ops.len() / DEPTH) * DEPTH;
        self.round += 1;
        for i in at..at + DEPTH {
            let op = self.ops[i];
            tally.count(op, self.replies.expect(op, value_len)?);
        }
        Ok(())
    }
}

/// Closed loop: each round sends one packet of `DEPTH` requests on every
/// connection, then drains and checks each connection's replies. Runs on the
/// calling thread for `seconds`; an unframeable reply or a socket error
/// counts the round's unanswered requests as failed and ends the stretch.
pub fn drive(conns: &mut [Conn], spec: &WireSpec, seconds: f64) -> Load {
    let builder = PacketBuilder::new(spec.value_len, spec.session);
    let mut load = Load {
        ops_per_sample: DEPTH as u64,
        samples: Vec::with_capacity(1 << 20),
        ..Load::default()
    };
    let (cpu0, gen0) = (stats::process_cpu_s(), stats::thread_cpu_s());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut sent = [start; CONNS];
    load.mark_cpu(start);
    'rounds: loop {
        for (c, t) in conns.iter_mut().zip(sent.iter_mut()) {
            *t = Instant::now();
            if c.send_round(&builder).is_err() {
                load.tally.attempted += DEPTH as u64;
                load.tally.failed += DEPTH as u64;
                break 'rounds;
            }
        }
        let mut now = start;
        for (c, t) in conns.iter_mut().zip(sent) {
            let before = load.tally.attempted;
            if let Err(e) = c.drain_round(spec.value_len, &mut load.tally) {
                eprintln!("mbench: {e}");
                let unanswered = DEPTH as u64 - (load.tally.attempted - before);
                load.tally.attempted += unanswered;
                load.tally.failed += unanswered;
                break 'rounds;
            }
            now = Instant::now();
            load.samples.push(Sample::new(start, t, now));
        }
        load.mark_cpu(now);
        if now >= deadline {
            break;
        }
    }
    load.wall_s = start.elapsed().as_secs_f64();
    load.cpu_s = stats::process_cpu_s() - cpu0;
    load.gen_cpu_s = stats::thread_cpu_s() - gen0;
    load.peak_rss_mib = stats::peak_rss_mib();
    load
}

/// Requests and bytes per preload chunk: under the server's per-sweep
/// budgets (512 framed requests, 64 KiB read), so its reader never holds a
/// backlog — an unthrottled `noreply` stream of small sets makes it
/// quadratic (see README, box caveats).
const PRELOAD_CHUNK_REQS: u64 = 400;
const PRELOAD_CHUNK_BYTES: usize = 48 << 10;

/// Loads records `1..=records` (version 0) over the wire and makes them
/// durable: chunks of `noreply` sets, each closed by a `get` of its last key
/// as the barrier, then one `sync`.
pub fn preload(addr: SocketAddr, spec: &WireSpec) -> io::Result<()> {
    let records = spec.records;
    let mut c = Conn::open(addr, Arc::from([]), None)?;
    let mut pkt = Vec::with_capacity(PRELOAD_CHUNK_BYTES + spec.value_len + 128);
    let mut in_chunk = 0;
    for key in 1..=records {
        pkt.extend_from_slice(b"set k");
        stream::push_decimal(&mut pkt, key);
        pkt.extend_from_slice(b" 0 0 ");
        stream::push_decimal(&mut pkt, spec.value_len as u64);
        pkt.extend_from_slice(b" noreply\r\n");
        stream::push_value(&mut pkt, key, 0, spec.value_len);
        pkt.extend_from_slice(b"\r\n");
        in_chunk += 1;
        if in_chunk == PRELOAD_CHUNK_REQS || pkt.len() >= PRELOAD_CHUNK_BYTES || key == records {
            pkt.extend_from_slice(b"get k");
            stream::push_decimal(&mut pkt, key);
            pkt.extend_from_slice(b"\r\n");
            c.out.write_all(&pkt)?;
            if c.replies.expect(Op::new(Kind::Get, key), spec.value_len)? != Outcome::Hit {
                return Err(io::Error::other(format!(
                    "preloaded k{key} did not read back"
                )));
            }
            pkt.clear();
            in_chunk = 0;
        }
    }
    match c.command("sync")?.as_str() {
        "SYNCED" => Ok(()),
        other => Err(io::Error::other(format!("preload sync refused: {other}"))),
    }
}

/// Format + preload, `setups` times over; the last rig is kept.
/// Returns it with the median set-up time.
pub fn set_up(spec: &WireSpec, setups: usize) -> (Rig, f64) {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..setups {
        drop(rig.take()); // one store at a time, so peak memory is one store's
        let t0 = Instant::now();
        let r = Rig::start(spec, PmemMode::Fast, true);
        preload(r.addr, spec).expect("preload over loopback");
        times.push(t0.elapsed().as_secs_f64());
        rig = Some(r);
    }
    (rig.expect("at least one set-up"), stats::median(&times))
}

pub fn open_conns(rig: &Rig, spec: &WireSpec, cycles: &[Arc<[Op]>]) -> Vec<Conn> {
    cycles
        .iter()
        .enumerate()
        .map(|(c, ops)| {
            let sid = spec.session.then_some(SESSION_BASE + c as u64);
            Conn::open(rig.addr, Arc::clone(ops), sid).expect("connect over loopback")
        })
        .collect()
}

/// Runs `f` on a thread named `gen-<i>`, so the generator's CPU can be told
/// apart from the program's in `/proc/self/task`.
pub fn on_gen_thread<T: Send>(i: usize, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(format!("gen-{i}"))
            .spawn_scoped(s, f)
            .expect("spawn generator thread")
            .join()
            .expect("generator thread panicked")
    })
}

/// The untraced run of a wire workload: set-up, warm-up (discarded), the
/// timed stretch, then the crash check.
pub fn untraced(run: &RunArgs, spec: &WireSpec) -> Result<RunResult, String> {
    let cycles = cycles(spec, run.seed);
    let digest = stream::wire_digest(&cycles, &PacketBuilder::new(spec.value_len, spec.session));
    if run.scale.shrink == 1 {
        stream::check_digest(run.workload.name, run.seed, digest)?;
    }
    let (rig, setup_s) = set_up(spec, run.scale.setups);
    let mut conns = open_conns(&rig, spec, &cycles);
    let (warm, load) = on_gen_thread(0, || {
        affinity::take_hot_cpu(&["kvserver-worker"]);
        let warm = drive(&mut conns, spec, run.scale.warmup_s);
        (warm.tally, drive(&mut conns, spec, run.seconds))
    });
    drop(conns);
    drop(rig);
    // The warm-up's timings are discarded; its failures are not.
    if warm.failed > 0 {
        return Err(format!(
            "{} of the warm-up's {} operations failed",
            warm.failed, warm.attempted
        ));
    }
    let crash = crash_check(spec, run.seed, run.scale.recoveries);
    Ok(finish_untraced(run, digest, setup_s, load, crash))
}

/// Every connection's operation cycle for `seed`.
pub fn cycles(spec: &WireSpec, seed: u64) -> Vec<Arc<[Op]>> {
    (0..CONNS as u64)
        .map(|c| {
            stream::ycsb_cycle(
                spec.records,
                spec.read_permille,
                seed,
                c,
                stream::CYCLE_ROUNDS,
            )
        })
        .collect()
}

// ---- crash check ----------------------------------------------------------

/// Rounds of sets made durable, then rounds left at risk.
const DURABLE_ROUNDS: usize = 192;
const RISKY_ROUNDS: usize = 64;

/// Builds a strict-mode replica of the workload's store, applies a
/// deterministic script of sets over one connection, crashes it, recovers
/// and verifies: every set acked durable reads back its value or a later
/// one, no key holds bytes never written, and the recovery report is clean.
/// That first recovery is not timed (a process's first runs up to 2.5× slow);
/// `recoveries` timed ones follow, each from a fresh copy of the crash
/// images.
pub fn crash_check(spec: &WireSpec, seed: u64, recoveries: usize) -> CrashReport {
    let spec = &spec.crash_replica();
    let records = spec.records;
    let rig = Rig::start(spec, PmemMode::Strict, true);
    let mut report = CrashReport::default();
    let mut durable = vec![0u32; records as usize + 1];
    let mut sent = vec![0u32; records as usize + 1];
    let scripted = (|| -> io::Result<()> {
        preload(rig.addr, spec)?;
        let sid = spec.session.then_some(SESSION_BASE);
        let mut c = Conn::open(rig.addr, Arc::from([]), sid)?;
        let builder = PacketBuilder::new(spec.value_len, spec.session);
        let mut x = stream::splitmix(seed ^ 0xC4A5_11ED);
        let mut round = |c: &mut Conn, sent: &mut [u32], read_acks: bool| -> io::Result<Vec<Op>> {
            // Distinct keys per round: each key's version then steps once
            // per round, whatever order the server applies the round in.
            let mut ops: Vec<Op> = Vec::with_capacity(DEPTH);
            while ops.len() < DEPTH {
                x = stream::splitmix(x);
                let key = 1 + x % records;
                if !ops.iter().any(|o| o.key() == key) {
                    ops.push(Op::new(Kind::Put, key));
                }
            }
            for op in &ops {
                let v = sent[op.key() as usize] + 1;
                sent[op.key() as usize] = v;
                builder.build(&[*op], v, &mut c.rid, &mut c.pkt);
                c.out.write_all(&c.pkt)?;
            }
            if read_acks {
                for op in &ops {
                    if c.replies.expect(*op, spec.value_len)? != Outcome::Stored {
                        return Err(io::Error::other("scripted set refused"));
                    }
                }
            }
            Ok(ops)
        };
        // With `sync_every=1` an ack is the durability point; otherwise the
        // explicit `sync` is.
        for _ in 0..DURABLE_ROUNDS {
            let ops = round(&mut c, &mut sent, true)?;
            if spec.sync_every == Some(1) {
                for op in ops {
                    durable[op.key() as usize] = sent[op.key() as usize];
                }
            }
        }
        if spec.sync_every != Some(1) {
            if c.command("sync")? != "SYNCED" {
                return Err(io::Error::other("scripted sync refused"));
            }
            durable.copy_from_slice(&sent);
        }
        // Sets at risk: acked but unsynced when buffered; sent and never
        // waited for when every ack would be durable.
        for _ in 0..RISKY_ROUNDS {
            round(&mut c, &mut sent, spec.sync_every != Some(1))?;
        }
        Ok(())
    })();
    if let Err(e) = scripted {
        report.violations.push(format!("crash script failed: {e}"));
    }
    let crashed = rig.crash();

    let recover = || {
        let pools = crashed.crash_pools();
        let t0 = Instant::now();
        let recovered = ShardedKvStore::recover(
            pools,
            esys_config(),
            STRIPES,
            spec.capacity.unwrap_or(usize::MAX / 2),
            2,
        );
        (t0.elapsed().as_secs_f64(), recovered)
    };
    let (_, (store, rec)) = recover();
    report.survivors = rec.survivors();
    report.quarantined = rec.quarantined();
    if !rec.is_clean() {
        report.violations.push(format!(
            "recovery report not clean: {} quarantined, {} fatal shards",
            rec.quarantined(),
            rec.fatal_shards()
        ));
    }
    verify_recovered(
        &store,
        spec,
        records,
        &durable,
        &sent,
        spec.capacity.is_some(),
        &mut report,
    );
    drop((store, rec));
    report.recoveries_s = (0..recoveries).map(|_| recover().0).collect();
    report
}

/// Reads every record back through the protocol layer of the recovered
/// store and holds it against the script's version bounds.
fn verify_recovered(
    store: &Arc<ShardedKvStore>,
    spec: &WireSpec,
    records: u64,
    durable: &[u32],
    sent: &[u32],
    evicting: bool,
    report: &mut CrashReport,
) {
    let session = Session::sharded(Arc::clone(store), Arc::new(store.lease()));
    let mut line = Vec::new();
    for key in 1..=records {
        line.clear();
        line.extend_from_slice(b"get k");
        stream::push_decimal(&mut line, key);
        let reply = session.execute(std::str::from_utf8(&line).expect("ascii"), &[]);
        let (lo, hi) = (durable[key as usize], sent[key as usize]);
        let complaint = match reply.strip_prefix("VALUE ") {
            // An evicting store may have dropped any record; a full one
            // must still hold every record it was given.
            None if reply == "END" && evicting => None,
            None => Some(format!("reads back {reply:?}")),
            Some(rest) => {
                let data = rest
                    .split_once("\r\n")
                    .and_then(|(_, d)| d.strip_suffix("\r\nEND"))
                    .unwrap_or("");
                version_complaint(data.as_bytes(), key, spec.value_len, lo, hi)
            }
        };
        if let Some(c) = complaint {
            if report.violations.len() < 8 {
                report.violations.push(format!("k{key} {c}"));
            }
        }
    }
}
