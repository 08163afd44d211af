//! The wire workloads' loaded stretch and replay stages 1–5.

use super::*;

// ---- wire: loaded stretch and stage 1 -------------------------------------------

pub(super) fn trace_wire(
    run: &RunArgs,
    spec: &WireSpec,
    m: &mut Metrics,
) -> Result<Traced, String> {
    let cycles = wire::cycles(spec, run.seed);
    let mut r = Replay::new(cycles[0][..run.scale.trace_ops].into());

    let (rig, _) = wire::set_up(spec, 1);
    loaded_wire(run, spec, &rig, &cycles, m)?;
    stage_loopback(spec, &mut r, &rig)?;
    drop(rig);

    // Stages 2–6 run alone on the hot CPU: no server, no advancer.
    wire::on_gen_thread(0, || {
        affinity::take_hot_cpu(&[]);
        for stage in [stage_frame, stage_session] {
            r.probes.sample();
            stage(spec, &mut r);
        }
        stage_store(spec, &mut r, false);
        if spec.session {
            stage_store(spec, &mut r, true);
        }
        r.probes.sample();
        let work = stage_esys_wire(spec, &mut r);
        stage_primitives(&mut r, 32 + ITEM_HEADER + spec.value_len, &work);
    });
    r.ledger.user_bytes_written = r.ledger.puts * spec.value_len as f64;

    // One recovery of a quarter-size strict replica, for the recovery layer.
    let small = WireSpec {
        crash_records: spec.crash_records / 4,
        ..*spec
    };
    let recovery = wire::crash_check(&small, run.seed, 1);
    Ok((r.ledger, r.spans, recovery))
}

/// The load of the untraced run, briefly, for the counters that only exist
/// under it: the generator's share, the server's batching, the advancer.
fn loaded_wire(
    run: &RunArgs,
    spec: &WireSpec,
    rig: &Rig,
    cycles: &[Arc<[Op]>],
    m: &mut Metrics,
) -> Result<(), String> {
    let mut conns = wire::open_conns(rig, spec, cycles);
    let mut admin = Conn::open(rig.addr, Arc::from([]), None).map_err(|e| e.to_string())?;
    let esyses = rig.esyses();
    let done = AtomicBool::new(false);
    let lag = AtomicU64::new(0);
    let (before, after, advances, load) = std::thread::scope(|s| {
        // Durability lag, sampled from the cold CPU while the load runs.
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                for e in &esyses {
                    lag.fetch_max(
                        e.curr_epoch().saturating_sub(e.durable_epoch()),
                        Ordering::Relaxed,
                    );
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let out = wire::on_gen_thread(0, || {
            affinity::take_hot_cpu(&["kvserver-worker"]);
            wire::drive(&mut conns, spec, run.scale.warmup_s.min(1.0));
            let before = admin.stats();
            let adv0 = Counts::read(&esyses).advances;
            let load = wire::drive(&mut conns, spec, run.seconds.min(LOADED_S));
            let adv = Counts::read(&esyses).advances - adv0;
            (before, admin.stats(), adv, load)
        });
        done.store(true, Ordering::Relaxed);
        out
    });
    let (before, after) = (
        before.map_err(|e| e.to_string())?,
        after.map_err(|e| e.to_string())?,
    );
    if load.tally.failed > 0 {
        return Err(format!(
            "{} operations failed under load",
            load.tally.failed
        ));
    }
    let d = |name: &str| stat(&after, name) - stat(&before, name);
    let served = load.tally.attempted as f64;
    m.set("gen.cpu_frac", load.gen_cpu_frac());
    m.set("gen.cpu_us_per_op", ratio(load.gen_cpu_s * 1e6, served));
    m.set(
        "kvserver.batch.reqs_per_batch",
        ratio(d("gc_batched_requests"), d("gc_batches")),
    );
    m.set(
        "kvserver.batch.fences_per_op",
        ratio(d("gc_fences"), served),
    );
    m.set(
        "kvserver.batch.acks_per_fence",
        ratio(d("gc_acks"), d("gc_fences")),
    );
    // The server reports these two since its start, preload included.
    m.set("kvserver.batch.fence_p50_us", stat(&after, "fence_p50_us"));
    m.set("kvserver.batch.fence_p99_us", stat(&after, "fence_p99_us"));
    m.set("kvserver.batch.fence_timeouts", d("gc_fence_timeouts"));
    m.set(
        "kvstore.sharded.shards_per_batch",
        ratio(d("fence_samples"), d("gc_fences")),
    );
    m.set("montage.esys.advances_per_s", advances as f64 / load.wall_s);
    m.set(
        "montage.esys.durable_lag_epochs_max",
        lag.load(Ordering::Relaxed) as f64,
    );
    Ok(())
}

/// Stage 1: the loopback round — one connection against the live server,
/// generator and worker on the hot CPU — first plain, then again with spans
/// and counter snapshots; the difference is what tracing costs.
fn stage_loopback(spec: &WireSpec, r: &mut Replay, rig: &Rig) -> Result<(), String> {
    let Replay {
        ops, spans, ledger, ..
    } = r;
    let sid = spec.session.then_some(REPLAY_SESSION);
    let mut conn = Conn::open(rig.addr, Arc::clone(ops), sid).map_err(|e| e.to_string())?;
    let esyses = rig.esyses();
    let (plain_ns, failed) = wire::on_gen_thread(0, || -> std::io::Result<(f64, u64)> {
        affinity::take_hot_cpu(&["kvserver-worker"]);
        let builder = PacketBuilder::new(spec.value_len, spec.session);
        let mut tally = crate::measure::Tally::default();
        let t0 = Instant::now();
        for _ in 0..ops.len() / DEPTH {
            conn.round(&builder, spec.value_len, &mut tally)?;
        }
        let plain_ns = t0.elapsed().as_nanos() as f64;
        for chunk in 0..ops.len() / CHUNK {
            let start = Instant::now();
            for _ in 0..CHUNK / DEPTH {
                conn.round(&builder, spec.value_len, &mut tally)?;
            }
            let end = Instant::now();
            std::hint::black_box(Counts::read(&esyses));
            spans.record(Stage::Loopback, chunk, start, end);
        }
        Ok((plain_ns, tally.failed))
    })
    .map_err(|e| format!("loopback replay: {e}"))?;
    if failed > 0 {
        return Err(format!("{failed} operations failed in the loopback replay"));
    }
    ledger.set_stage(Stage::Loopback, spans, 0.0);
    ledger.overhead_frac = ratio(spans.total_ns(Stage::Loopback) - plain_ns, plain_ns);
    Ok(())
}

// ---- wire: stages 2–5 -----------------------------------------------------------

/// The protocol's item header inside the store's value bytes: flags u32,
/// expiry u64, cas u64.
const ITEM_HEADER: usize = 20;

/// Packets of one chunk, built before its span starts.
fn chunk_packets(builder: &PacketBuilder, ops: &[Op], rid: &mut u64, pkts: &mut [Vec<u8>]) {
    for (round, pkt) in ops.chunks(DEPTH).zip(pkts) {
        builder.build(round, 0, rid, pkt);
    }
}

/// Stage 2: `RequestReader::feed` / `next_request` over the same packets.
fn stage_frame(spec: &WireSpec, r: &mut Replay) {
    let Replay {
        ops, spans, ledger, ..
    } = r;
    let builder = PacketBuilder::new(spec.value_len, spec.session);
    let mut reader = RequestReader::new(1 << 20);
    let mut pkts = vec![Vec::new(); CHUNK / DEPTH];
    let mut heap = heap::Bracketed::default();
    let (mut rid, mut bytes) = (0, 0);
    for (chunk, chunk_ops) in ops.chunks(CHUNK).enumerate() {
        chunk_packets(&builder, chunk_ops, &mut rid, &mut pkts);
        bytes += pkts.iter().map(Vec::len).sum::<usize>();
        heap.open();
        let start = Instant::now();
        let mut framed = 0;
        for pkt in &pkts {
            reader.feed(pkt);
            while let Some(req) = reader.next_request() {
                framed += 1;
                std::hint::black_box(req);
            }
        }
        let end = Instant::now();
        heap.close();
        assert_eq!(framed, chunk_ops.len(), "the frame parser lost requests");
        spans.record(Stage::Frame, chunk, start, end);
    }
    ledger.set_stage(Stage::Frame, spans, 0.0);
    ledger.frame_bytes = bytes as f64;
    ledger.frame_heap_allocs = heap.allocs as f64;
}

/// A served-less store, preloaded through the protocol layer and synced.
fn replay_store(spec: &WireSpec) -> (Rig, Session, Arc<kvstore::StoreLease>) {
    let rig = Rig::start(spec, PmemMode::Fast, false);
    let lease = Arc::new(rig.store.lease());
    let session = Session::sharded(Arc::clone(&rig.store), Arc::clone(&lease));
    let (mut line, mut value) = (Vec::new(), Vec::new());
    for key in 1..=spec.records {
        line.clear();
        line.extend_from_slice(b"set k");
        stream::push_decimal(&mut line, key);
        line.extend_from_slice(b" 0 0 ");
        stream::push_decimal(&mut line, spec.value_len as u64);
        value.clear();
        stream::push_value(&mut value, key, 0, spec.value_len);
        let reply = session.execute(std::str::from_utf8(&line).expect("ascii"), &value);
        assert_eq!(reply, "STORED", "replay preload refused");
    }
    rig.store.sync().expect("replay preload sync");
    (rig, session, lease)
}

/// Stage 3: `Session::execute_with` inside a `StoreBatch` window, closed by
/// `sync_shard` on the touched shards — one batch per round, as the worker
/// forms them for one connection.
fn stage_session(spec: &WireSpec, r: &mut Replay) {
    let Replay {
        ops, spans, ledger, ..
    } = r;
    let (rig, session, lease) = replay_store(spec);
    let store = &rig.store;
    let esyses = rig.esyses();
    let builder = PacketBuilder::new(spec.value_len, spec.session);
    let sid = spec.session.then_some(REPLAY_SESSION);
    let mut reader = RequestReader::new(1 << 20);
    let mut pkts = vec![Vec::new(); CHUNK / DEPTH];
    let mut rounds: Vec<Vec<Request>> = (0..CHUNK / DEPTH)
        .map(|_| Vec::with_capacity(DEPTH))
        .collect();
    let mut replies: Vec<u8> = Vec::with_capacity(DEPTH * (spec.value_len + 64));
    let mut fence_shards: Vec<usize> = Vec::with_capacity(spec.shards);
    let mut unspanned = Laps::new();
    let mut rid = 0;
    let before = Counts::read(&esyses);
    let mut heap = heap::Bracketed::default();
    for (chunk, chunk_ops) in ops.chunks(CHUNK).enumerate() {
        chunk_packets(&builder, chunk_ops, &mut rid, &mut pkts);
        for (pkt, round) in pkts.iter().zip(rounds.iter_mut()) {
            round.clear();
            reader.feed(pkt);
            round.extend(std::iter::from_fn(|| reader.next_request()));
        }
        heap.open();
        let start = Instant::now();
        for round in &rounds {
            let mut batch = store.batch(&lease);
            fence_shards.clear();
            replies.clear();
            let mut mutations = 0;
            for req in round {
                let Request::Cmd { line, data, .. } = req else {
                    panic!("the generated stream framed as {req:?}");
                };
                let mut words = line.split_whitespace();
                if words.next() == Some("set") {
                    mutations += 1;
                    if let Some(shard) = words
                        .next()
                        .and_then(|k| store.shard_of_bytes(k.as_bytes()))
                    {
                        let _ = batch.pin_shard(shard);
                        if !fence_shards.contains(&shard) {
                            fence_shards.push(shard);
                        }
                    }
                }
                let out = session.execute_with(line, data, sid);
                replies.extend_from_slice(out.as_bytes());
                replies.extend_from_slice(b"\r\n");
            }
            drop(batch);
            if mutations > 0 && spec.sync_every == Some(1) {
                for &shard in &fence_shards {
                    store.sync_shard(shard).expect("healthy shard");
                }
            }
            std::hint::black_box(&replies);
        }
        let end = Instant::now();
        heap.close();
        spans.record(Stage::Session, chunk, start, end);
        tick(chunk, spec.sync_every.is_some(), &esyses, &mut unspanned);
    }
    ledger.set_stage(Stage::Session, spans, 0.0);
    ledger.session = Counts::read(&esyses).since(&before);
    // Heap traffic is charged span by span: the replay's own buffers
    // between spans are not the program's.
    ledger.session.heap_allocs = heap.allocs;
    ledger.session.heap_bytes = heap.bytes;
    ledger.sbs_carved = Counts::read(&esyses).sbs_carved as f64;
    let detect = store.detect_stats_merged();
    ledger.descriptors = detect.descriptors as f64;
    ledger.dedupe_hits = detect.dedupe_hits as f64;
}

/// The store's 32-byte key of wire key `k<id>`.
fn wire_key(id: u64) -> [u8; 32] {
    let mut text = Vec::with_capacity(21);
    text.push(b'k');
    stream::push_decimal(&mut text, id);
    let mut key = [0u8; 32];
    key[..text.len()].copy_from_slice(&text);
    key
}

/// The store's value bytes for a version-0 `set` of `key`: the protocol's
/// item header, then the value.
fn item_bytes(key: u64, value_len: usize, cas: u64) -> Vec<u8> {
    let mut item = Vec::with_capacity(ITEM_HEADER + value_len);
    item.extend_from_slice(&0u32.to_le_bytes());
    item.extend_from_slice(&0u64.to_le_bytes());
    item.extend_from_slice(&cas.to_le_bytes());
    stream::push_value(&mut item, key, 0, value_len);
    item
}

/// Stage 4: `ShardedKvStore::{get, update, detected}` with the protocol
/// layer's work (parsing, item encoding, reply text) done outside the span.
/// `plain` replaces `detected` by `update` on a session workload.
fn stage_store(spec: &WireSpec, r: &mut Replay, plain: bool) {
    let Replay {
        ops,
        spans,
        ledger,
        base,
        ..
    } = r;
    let stage = if plain {
        Stage::StorePlain
    } else {
        Stage::Store
    };
    let (rig, _session, lease) = replay_store(spec);
    let store: &ShardedKvStore = &rig.store;
    let esyses = rig.esyses();
    let mut laps = base.fresh();
    let mut unspanned = base.fresh();
    let mut items: Vec<Option<Vec<u8>>> = Vec::with_capacity(CHUNK);
    let mut fence_shards: Vec<usize> = Vec::with_capacity(spec.shards);
    let (mut rid, mut hits) = (0u64, 0u64);
    let before = Counts::read(&esyses);
    let evictions0 = store.evictions();
    let mut heap = heap::Bracketed::default();
    for (chunk, chunk_ops) in ops.chunks(CHUNK).enumerate() {
        items.clear();
        items.extend(chunk_ops.iter().map(|op| {
            (op.kind() == Kind::Put).then(|| item_bytes(op.key(), spec.value_len, chunk as u64))
        }));
        let keys: Vec<[u8; 32]> = chunk_ops.iter().map(|op| wire_key(op.key())).collect();
        heap.open();
        let start = Instant::now();
        for (round, round_ops) in chunk_ops.chunks(DEPTH).enumerate() {
            let mut batch = store.batch(&lease);
            fence_shards.clear();
            for i in 0..round_ops.len() {
                let at = round * DEPTH + i;
                let key = &keys[at];
                match items[at].take() {
                    None => {
                        let hit = laps.time(Lap::Get, || {
                            store.get(key, |v| std::hint::black_box(v.len()))
                        });
                        hits += u64::from(hit.is_some());
                    }
                    Some(item) => {
                        let shard = store.shard_of(key);
                        let _ = batch.pin_shard(shard);
                        if !fence_shards.contains(&shard) {
                            fence_shards.push(shard);
                        }
                        let decide = |cur: Option<&[u8]>| {
                            std::hint::black_box(cur.map(<[u8]>::len));
                            (DetectedWrite::Upsert(item), Vec::new())
                        };
                        laps.time(Lap::Put, || {
                            if spec.session && !plain {
                                rid += 1;
                                store
                                    .detected(&lease, REPLAY_SESSION, rid, 1, key, decide)
                                    .map(drop)
                            } else {
                                store.update(&lease, key, decide).map(drop)
                            }
                        })
                        .expect("healthy shard");
                    }
                }
            }
            drop(batch);
            if !fence_shards.is_empty() && spec.sync_every == Some(1) {
                for &shard in &fence_shards {
                    store.sync_shard(shard).expect("healthy shard");
                }
            }
        }
        let end = Instant::now();
        heap.close();
        spans.record(stage, chunk, start, end);
        tick(chunk, spec.sync_every.is_some(), &esyses, &mut unspanned);
    }
    ledger.set_stage(stage, spans, laps.clock_ns());
    if plain {
        ledger.store_plain_laps = Some(laps);
        return;
    }
    ledger.store = Counts::read(&esyses).since(&before);
    ledger.store.heap_allocs = heap.allocs;
    ledger.store.heap_bytes = heap.bytes;
    ledger.store_laps = Some(laps);
    ledger.store_hits = hits as f64;
    ledger.evictions = (store.evictions() - evictions0) as f64;
    ledger.mirror_bytes = store.ordered_mirror_bytes() as f64;
    ledger.live_user_bytes = store.len() as f64 * spec.value_len as f64;
}

/// An intrusive LRU list over key ids: the esys stage's stand-in for the
/// store's eviction order (per shard, where the store keeps one per stripe).
struct Lru {
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Sentinel slot 0: `next[0]` is the oldest, `prev[0]` the newest.
    len: usize,
}

impl Lru {
    fn new(keys: usize) -> Lru {
        Lru {
            prev: vec![0; keys + 1],
            next: vec![0; keys + 1],
            len: 0,
        }
    }

    fn unlink(&mut self, k: u32) {
        let (p, n) = (self.prev[k as usize], self.next[k as usize]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
        self.len -= 1;
    }

    fn push_newest(&mut self, k: u32) {
        let last = self.prev[0];
        self.next[last as usize] = k;
        self.prev[k as usize] = last;
        self.next[k as usize] = 0;
        self.prev[0] = k;
        self.len += 1;
    }

    fn touch(&mut self, k: u32) {
        self.unlink(k);
        self.push_newest(k);
    }

    fn pop_oldest(&mut self) -> u32 {
        let k = self.next[0];
        self.unlink(k);
        k
    }
}

/// The session descriptor's bytes; the replay only needs their size.
const DESC: [u8; kvstore::DESC_BYTES] = [b'd'; kvstore::DESC_BYTES];

/// Stage 5: the `EpochSys` calls the store makes for the same stream — pin,
/// `begin_op`, `peek`, `set_bytes` / `pnew_bytes` / `pdelete`, end, `sync` —
/// against handles kept in a plain table. Returns each chunk's work for the
/// primitives stage.
fn stage_esys_wire(spec: &WireSpec, r: &mut Replay) -> Vec<ChunkWork> {
    let Replay {
        ops,
        spans,
        ledger,
        base,
        ..
    } = r;
    let (records, capacity) = (spec.records, spec.capacity);
    let rig = Rig::start(spec, PmemMode::Fast, false);
    let esyses = rig.esyses();
    let router = ShardRouter::new(spec.shards);
    let tids: Vec<ThreadId> = esyses.iter().map(|e| e.register_thread()).collect();
    let shard_cap = capacity.map_or(usize::MAX, |c| (c / spec.shards).max(1));
    let mut lrus: Vec<Lru> = (0..spec.shards)
        .map(|_| Lru::new(records as usize))
        .collect();
    let mut handles: Vec<PHandle<[u8]>> = vec![PHandle::null(); records as usize + 1];
    let mut descs: Vec<PHandle<[u8]>> = vec![PHandle::null(); spec.shards];
    let payload = |key: u64| {
        let mut bytes = wire_key(key).to_vec();
        bytes.extend_from_slice(&item_bytes(key, spec.value_len, 0));
        bytes
    };
    let mut laps = base.fresh();
    let mut idle = base.fresh();

    // Preload, as the store's would: one op per record, evicting at capacity.
    for key in 1..=records {
        let shard = router.route(&wire_key(key));
        let (e, lru) = (&esyses[shard], &mut lrus[shard]);
        let g = e.begin_op(tids[shard]);
        if lru.len >= shard_cap {
            let victim = lru.pop_oldest();
            let _ = e.pdelete(
                &g,
                std::mem::replace(&mut handles[victim as usize], PHandle::null()),
            );
        }
        handles[key as usize] = e.pnew_bytes(&g, KV_TAG, &payload(key));
        lru.push_newest(key as u32);
    }
    for e in &esyses {
        e.sync();
    }

    let mut work = Vec::with_capacity(ops.len() / CHUNK);
    let mut items: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
    let mut pins: Vec<Option<montage::EpochPin<'_>>> = (0..spec.shards).map(|_| None).collect();
    let before = Counts::read(&esyses);
    for (chunk, chunk_ops) in ops.chunks(CHUNK).enumerate() {
        items.clear();
        items.extend(chunk_ops.iter().map(|op| match op.kind() {
            Kind::Get => Vec::new(),
            _ => item_bytes(op.key(), spec.value_len, chunk as u64),
        }));
        let keys: Vec<[u8; 32]> = chunk_ops.iter().map(|op| wire_key(op.key())).collect();
        let mut w = ChunkWork::default();
        let c0 = Counts::read(&esyses);
        let start = Instant::now();
        for (round, round_ops) in chunk_ops.chunks(DEPTH).enumerate() {
            for (i, op) in round_ops.iter().enumerate() {
                let at = round * DEPTH + i;
                let k = op.key() as usize;
                let shard = router.route(&keys[at]);
                let (e, lru, tid) = (&esyses[shard], &mut lrus[shard], tids[shard]);
                let h = handles[k];
                let read = |laps: &mut Laps, w: &mut ChunkWork| {
                    let len = laps.time(Lap::Peek, || {
                        e.peek_bytes_unsafe(h, |b| {
                            e.pool().media_read(b.len());
                            std::hint::black_box(b.len())
                        })
                    });
                    w.reads += 1;
                    w.read_bytes += len as u64;
                };
                if op.kind() == Kind::Get {
                    if !h.is_null() {
                        read(&mut laps, &mut w);
                        lru.touch(k as u32);
                    }
                    continue;
                }
                if pins[shard].is_none() {
                    pins[shard] = Some(
                        laps.time(Lap::Begin, || e.try_pin_epoch(tid))
                            .expect("healthy pool"),
                    );
                }
                let g = laps.time(Lap::Begin, || e.begin_op(tid));
                let item = &items[at];
                if !h.is_null() {
                    // The store reads the current value before deciding.
                    read(&mut laps, &mut w);
                    handles[k] = laps
                        .time(Lap::Set, || {
                            e.set_bytes(&g, h, |b| b[32..].copy_from_slice(item))
                        })
                        .expect("single writer");
                    lru.touch(k as u32);
                    w.write_bytes += item.len() as u64;
                } else {
                    if lru.len >= shard_cap {
                        let victim = lru.pop_oldest() as usize;
                        let vh = std::mem::replace(&mut handles[victim], PHandle::null());
                        let _ = laps.time(Lap::Pdelete, || e.pdelete(&g, vh));
                    }
                    let mut bytes = Vec::with_capacity(32 + item.len());
                    bytes.extend_from_slice(&keys[at]);
                    bytes.extend_from_slice(item);
                    handles[k] = laps.time(Lap::Pnew, || e.pnew_bytes(&g, KV_TAG, &bytes));
                    lru.push_newest(k as u32);
                    w.write_bytes += bytes.len() as u64;
                }
                w.writes += 1;
                if spec.session {
                    let d = descs[shard];
                    descs[shard] = laps.time(Lap::Desc, || {
                        if d.is_null() {
                            e.pnew_bytes(&g, SESSION_TAG, &DESC)
                        } else {
                            e.set_bytes(&g, d, |b| b.copy_from_slice(&DESC))
                                .expect("single writer")
                        }
                    });
                    w.writes += 1;
                    w.write_bytes += DESC.len() as u64;
                }
                laps.time(Lap::End, || drop(g));
            }
            let mut touched = [false; 64];
            for (shard, pin) in pins.iter_mut().enumerate() {
                if let Some(p) = pin.take() {
                    laps.time(Lap::End, || drop(p));
                    touched[shard] = true;
                }
            }
            if spec.sync_every == Some(1) {
                for (e, _) in esyses.iter().zip(touched).filter(|(_, t)| *t) {
                    let t0 = Instant::now();
                    laps.time(Lap::Sync, || e.try_sync()).expect("healthy pool");
                    ledger
                        .sync_ns
                        .push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                }
            }
        }
        let end = Instant::now();
        spans.record(Stage::Esys, chunk, start, end);
        // The tick that follows is the advancer's work, not this chunk's.
        w.counts = Counts::read(&esyses).since(&c0);
        work.push(w);
        tick(chunk, spec.sync_every.is_some(), &esyses, &mut idle);
    }
    ledger.set_stage(Stage::Esys, spans, laps.clock_ns());
    ledger.esys = Counts::read(&esyses).since(&before);
    merge_advance(&mut laps, &idle);
    ledger.esys_laps = Some(laps);
    work
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_in_touch_order() {
        let mut lru = Lru::new(8);
        for k in [3, 5, 7] {
            lru.push_newest(k);
        }
        lru.touch(3);
        assert_eq!(lru.len, 3);
        assert_eq!(
            [lru.pop_oldest(), lru.pop_oldest(), lru.pop_oldest()],
            [5, 7, 3]
        );
        assert_eq!(lru.len, 0);
    }

    #[test]
    fn wire_keys_are_the_protocols() {
        let k = wire_key(42);
        assert_eq!(&k[..3], b"k42");
        assert!(k[3..].iter().all(|&b| b == 0));
        assert_eq!(item_bytes(42, 64, 7).len(), ITEM_HEADER + 64);
    }
}
