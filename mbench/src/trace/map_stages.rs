//! The in-process workload's loaded stretch and replay stages.

use super::*;

// ---- lib_hashmap ------------------------------------------------------------------

pub(super) fn trace_map(run: &RunArgs, spec: &MapSpec, m: &mut Metrics) -> Result<Traced, String> {
    let scale = &run.scale;
    let ops = libmap::cycle(spec, run.seed);
    let mut r = Replay::new(ops[..scale.trace_ops].into());

    // The untraced load, briefly: the generator's share and the advancer.
    {
        let rig = MapRig::start(spec, PmemMode::Fast, spec.key_range, true);
        rig.preload(spec, spec.preload);
        let mut at = 0;
        libmap::drive(&rig, spec, &ops, &mut at, scale.warmup_s.min(1.0));
        let adv0 = rig.esys.stats().advances.load(Ordering::Relaxed);
        let load = libmap::drive(&rig, spec, &ops, &mut at, run.seconds.min(LOADED_S));
        let adv = rig.esys.stats().advances.load(Ordering::Relaxed) - adv0;
        if load.tally.failed > 0 {
            return Err(format!(
                "{} operations failed under load",
                load.tally.failed
            ));
        }
        m.set("gen.cpu_frac", load.gen_cpu_frac());
        m.set(
            "gen.cpu_us_per_op",
            ratio(load.gen_cpu_s * 1e6, load.tally.attempted as f64),
        );
        m.set("montage.esys.advances_per_s", adv as f64 / load.wall_s);
        m.set(
            "montage.esys.durable_lag_epochs_max",
            rig.esys
                .curr_epoch()
                .saturating_sub(rig.esys.durable_epoch()) as f64,
        );
    }

    wire::on_gen_thread(0, || {
        affinity::take_hot_cpu(&[]);
        r.probes.sample();
        stage_hashmap(spec, &mut r);
        r.probes.sample();
        let work = stage_esys_map(spec, &mut r);
        stage_primitives(&mut r, 32 + spec.value_len, &work);
    });
    r.ledger.user_bytes_written = r.ledger.puts * spec.value_len as f64;

    let small = MapSpec {
        crash_records: spec.crash_records / 4,
        ..*spec
    };
    let recovery = libmap::crash_check(&small, run.seed, 1);
    Ok((r.ledger, r.spans, recovery))
}

/// Stage 4 of the in-process workload: `MontageHashMap::{put, get, remove}`,
/// first plain for the tracing overhead, then with spans and laps. A chunk
/// is one round of the untraced run, generator's fence included; the
/// advancer's tick falls between chunks.
fn stage_hashmap(spec: &MapSpec, r: &mut Replay) {
    let Replay {
        ops,
        spans,
        ledger,
        base,
        ..
    } = r;
    let (key_range, preload) = (spec.key_range, spec.preload);
    let mut plain_ns = 0.0;
    for traced in [false, true] {
        let rig = MapRig::start(spec, PmemMode::Fast, key_range, false);
        rig.preload(spec, preload);
        rig.esys.sync();
        let esyses = [Arc::clone(&rig.esys)];
        let tid = rig.esys.register_thread();
        let mut value = libmap::value_buffer(spec);
        let mut laps = base.fresh();
        let mut idle = base.fresh();
        let before = Counts::read(&esyses);
        let mut heap = heap::Bracketed::default();
        let t0 = Instant::now();
        for (chunk, chunk_ops) in ops.chunks(CHUNK).enumerate() {
            heap.open();
            let start = Instant::now();
            for &op in chunk_ops {
                if traced {
                    let lap = match op.kind() {
                        Kind::Get => Lap::Get,
                        Kind::Put => Lap::Put,
                        Kind::Remove => Lap::Remove,
                    };
                    laps.time(lap, || libmap::apply(&rig.map, tid, op, &mut value));
                } else {
                    libmap::apply(&rig.map, tid, op, &mut value);
                }
            }
            // A round ends with the generator's fence, as in the untraced run.
            rig.esys.pool().sfence();
            let end = Instant::now();
            if traced {
                heap.close();
                spans.record(Stage::Hashmap, chunk, start, end);
            }
            tick(chunk, false, &esyses, &mut idle);
        }
        if !traced {
            plain_ns = t0.elapsed().as_nanos() as f64;
            continue;
        }
        let traced_ns = t0.elapsed().as_nanos() as f64;
        ledger.overhead_frac = ratio(traced_ns - plain_ns, plain_ns);
        ledger.set_stage(Stage::Hashmap, spans, laps.clock_ns());
        ledger.store = Counts::read(&esyses).since(&before);
        ledger.store.heap_allocs = heap.allocs;
        ledger.store.heap_bytes = heap.bytes;
        ledger.session = ledger.store;
        ledger.store_laps = Some(laps);
        ledger.sbs_carved = Counts::read(&esyses).sbs_carved as f64;
        ledger.resizes = rig.map.resizes_completed() as f64;
        ledger.live_user_bytes = rig.map.len() as f64 * spec.value_len as f64;
    }
}

/// Stage 5 of the in-process workload: the `EpochSys` calls the map makes —
/// `begin_op` + `pnew_bytes` / `set_bytes` / `pdelete` + end, `peek` for
/// gets — against handles in a plain table.
fn stage_esys_map(spec: &MapSpec, r: &mut Replay) -> Vec<ChunkWork> {
    let Replay {
        ops,
        spans,
        ledger,
        base,
        ..
    } = r;
    let (key_range, preload) = (spec.key_range, spec.preload);
    let rig = MapRig::start(spec, PmemMode::Fast, key_range, false);
    let e = &rig.esys;
    let esyses = [Arc::clone(e)];
    let tid = e.register_thread();
    let tag = montage_ds::tags::HASHMAP;
    let mut handles: Vec<PHandle<[u8]>> = vec![PHandle::null(); key_range as usize + 1];
    let mut bytes = Vec::with_capacity(32 + spec.value_len);
    let mut payload = |key: u64| {
        bytes.clear();
        bytes.extend_from_slice(&stream::padded_key(key));
        stream::push_value(&mut bytes, key, 0, spec.value_len);
        bytes.clone()
    };
    for key in 1..=preload {
        let g = e.begin_op(tid);
        handles[key as usize] = e.pnew_bytes(&g, tag, &payload(key));
    }
    e.sync();

    let mut laps = base.fresh();
    let mut idle = base.fresh();
    let mut work = Vec::with_capacity(ops.len() / CHUNK);
    let before = Counts::read(&esyses);
    for (chunk, chunk_ops) in ops.chunks(CHUNK).enumerate() {
        let bodies: Vec<Vec<u8>> = chunk_ops
            .iter()
            .map(|op| {
                if op.kind() == Kind::Put {
                    payload(op.key())
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut w = ChunkWork::default();
        let c0 = Counts::read(&esyses);
        let start = Instant::now();
        for (op, body) in chunk_ops.iter().zip(&bodies) {
            let k = op.key() as usize;
            let h = handles[k];
            match op.kind() {
                Kind::Get => {
                    if !h.is_null() {
                        let len = laps.time(Lap::Peek, || {
                            e.peek_bytes_unsafe(h, |b| std::hint::black_box(b.len()))
                        });
                        w.reads += 1;
                        w.read_bytes += len as u64;
                    }
                }
                Kind::Put => {
                    let g = laps.time(Lap::Begin, || e.begin_op(tid));
                    handles[k] = if h.is_null() {
                        laps.time(Lap::Pnew, || e.pnew_bytes(&g, tag, body))
                    } else {
                        // The map checks the stored length before choosing
                        // the in-place path.
                        laps.time(Lap::Peek, || {
                            e.peek_bytes_unsafe(h, |b| std::hint::black_box(b.len()))
                        });
                        w.reads += 1;
                        laps.time(Lap::Set, || {
                            e.set_bytes(&g, h, |b| b[32..].copy_from_slice(&body[32..]))
                        })
                        .expect("single writer")
                    };
                    w.writes += 1;
                    w.write_bytes += body.len() as u64;
                    laps.time(Lap::End, || drop(g));
                }
                Kind::Remove => {
                    if !h.is_null() {
                        let g = laps.time(Lap::Begin, || e.begin_op(tid));
                        let _ = laps.time(Lap::Pdelete, || e.pdelete(&g, h));
                        handles[k] = PHandle::null();
                        laps.time(Lap::End, || drop(g));
                    }
                }
            }
        }
        laps.time(Lap::RoundFence, || e.pool().sfence());
        let end = Instant::now();
        spans.record(Stage::Esys, chunk, start, end);
        w.counts = Counts::read(&esyses).since(&c0);
        work.push(w);
        tick(chunk, false, &esyses, &mut idle);
    }
    ledger.set_stage(Stage::Esys, spans, laps.clock_ns());
    ledger.esys = Counts::read(&esyses).since(&before);
    merge_advance(&mut laps, &idle);
    ledger.esys_laps = Some(laps);
    work
}
