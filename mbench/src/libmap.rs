//! The in-process workload: `MontageHashMap` driven directly by one
//! generator thread, bypassing `kvserver` and `kvstore` — the paper's own
//! subject (Fig. 7). An epoch-system gain must show here; a server-side gain
//! must not.

use std::sync::Arc;
use std::time::{Duration, Instant};

use montage::{Advancer, EpochSys, ThreadId};
use montage_ds::{tags, MontageHashMap};
use pmem::{LatencyModel, PmemConfig, PmemMode, PmemPool};
use workloads::mix::MapMix;

use crate::affinity;
use crate::measure::{finish_untraced, version_complaint, CrashReport, Load, Sample};
use crate::reply::Outcome;
use crate::spec::MapSpec;
use crate::stats;
use crate::stream::{self, Kind, Op, MAP_ROUND};
use crate::wire::{esys_config, on_gen_thread};
use crate::{RunArgs, RunResult};

pub type Key = [u8; 32];
pub type Map = MontageHashMap<Key>;

/// Operations in the generator's cycle.
pub const CYCLE_OPS: usize = 1 << 19;

/// A formatted pool, its epoch system, the map and (optionally) the
/// background advancer.
pub struct MapRig {
    pub esys: Arc<EpochSys>,
    pub map: Map,
    advancer: Option<Advancer>,
}

impl MapRig {
    /// `keys` sizes the pool and the bucket array (the paper's load factor:
    /// one bucket per key of the range).
    pub fn start(spec: &MapSpec, mode: PmemMode, keys: u64, background: bool) -> MapRig {
        // Sized like the wire stores: twice the raw bytes per key.
        let block = (montage::HDR_SIZE + 32 + spec.value_len) * 2;
        let size = ((64 << 20) + keys as usize * block).next_multiple_of(1 << 20);
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig {
                size,
                mode,
                latency: LatencyModel::OPTANE,
                chaos: Default::default(),
            }),
            esys_config(),
        );
        MapRig {
            map: Map::new(Arc::clone(&esys), tags::HASHMAP, keys as usize),
            advancer: background.then(|| Advancer::start(Arc::clone(&esys))),
            esys,
        }
    }

    /// Inserts keys `1..=n` at version 0.
    pub fn preload(&self, spec: &MapSpec, n: u64) {
        let tid = self.esys.register_thread();
        let mut value = Vec::with_capacity(spec.value_len);
        for key in 1..=n {
            value.clear();
            stream::push_value(&mut value, key, 0, spec.value_len);
            self.map.put(tid, stream::padded_key(key), &value);
        }
        self.esys.unregister_thread(tid);
    }
}

/// Applies one operation and judges what came back. `value` is a reusable
/// version-0 value buffer whose key tag is rewritten per put.
pub fn apply(map: &Map, tid: ThreadId, op: Op, value: &mut [u8]) -> Outcome {
    let key = stream::padded_key(op.key());
    match op.kind() {
        Kind::Get => {
            let want = value.len();
            match map.get(tid, &key, |v| {
                v.len() == want && v[..8] == stream::key_tag(op.key())
            }) {
                Some(true) => Outcome::Hit,
                Some(false) => Outcome::Failed,
                None => Outcome::Miss,
            }
        }
        Kind::Put => {
            value[..8].copy_from_slice(&stream::key_tag(op.key()));
            map.put(tid, key, value);
            Outcome::Stored
        }
        Kind::Remove => {
            map.remove(tid, &key);
            Outcome::Stored
        }
    }
}

pub fn value_buffer(spec: &MapSpec) -> Vec<u8> {
    let mut v = Vec::with_capacity(spec.value_len);
    stream::push_value(&mut v, 0, 0, spec.value_len);
    v
}

/// Runs the cycle against the map from `*at` for `seconds`, on a thread
/// named `gen-0` on the hot CPU; a latency sample is one round of
/// `MAP_ROUND` operations and the fence that closes it.
///
/// The fence is the generator's, not the map's: the simulated pool charges a
/// thread the device time of its own write-backs only when that thread
/// fences, and a map thread otherwise fences only when the allocator carves
/// a superblock — so without it the charge arrives as one sleep of hundreds
/// of milliseconds at an arbitrary moment (README, box caveats). Fencing
/// every round pays the same device time evenly.
pub fn drive(rig: &MapRig, spec: &MapSpec, ops: &[Op], at: &mut usize, seconds: f64) -> Load {
    on_gen_thread(0, || {
        affinity::take_hot_cpu(&[]);
        let tid = rig.esys.register_thread();
        let mut value = value_buffer(spec);
        let mut load = Load {
            ops_per_sample: MAP_ROUND as u64,
            samples: Vec::with_capacity(1 << 18),
            ..Load::default()
        };
        let cpu0 = stats::process_cpu_s();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        load.mark_cpu(start);
        loop {
            let t0 = Instant::now();
            for _ in 0..MAP_ROUND {
                let op = ops[*at % ops.len()];
                *at += 1;
                load.tally.count(op, apply(&rig.map, tid, op, &mut value));
            }
            rig.esys.pool().sfence();
            let t1 = Instant::now();
            load.samples.push(Sample::new(start, t0, t1));
            load.mark_cpu(t1);
            if t1 >= deadline {
                break;
            }
        }
        load.wall_s = start.elapsed().as_secs_f64();
        load.cpu_s = stats::process_cpu_s() - cpu0;
        load.gen_cpu_s = generator_only_s(ops, *at, load.tally.attempted);
        load.peak_rss_mib = stats::peak_rss_mib();
        rig.esys.unregister_thread(tid);
        load
    })
}

/// The generator's own share of an in-process stretch. Generator and map run
/// on one thread here, so the thread's CPU says nothing; instead the
/// generator's work alone (fetch the op, pad the key, tag the value) is
/// timed over a slice of the cycle and scaled to the stretch's `ops`.
fn generator_only_s(ops: &[Op], at: usize, n_ops: u64) -> f64 {
    const SLICE: usize = 1 << 16;
    let mut value = [0u8; 8];
    let t0 = Instant::now();
    for i in 0..SLICE {
        let op = ops[(at + i) % ops.len()];
        value.copy_from_slice(&stream::key_tag(op.key()));
        std::hint::black_box((stream::padded_key(op.key()), &value, op.kind()));
    }
    t0.elapsed().as_secs_f64() * n_ops as f64 / SLICE as f64
}

pub fn cycle(spec: &MapSpec, seed: u64) -> Arc<[Op]> {
    stream::map_cycle(MapMix::MIXED, spec.key_range, seed, CYCLE_OPS)
}

/// The untraced run: set-up, warm-up (discarded), the timed stretch, then
/// the crash check.
pub fn untraced(run: &RunArgs, spec: &MapSpec) -> Result<RunResult, String> {
    let ops = cycle(spec, run.seed);
    let digest = stream::map_digest(&ops, spec.value_len);
    if run.scale.shrink == 1 {
        stream::check_digest(run.workload.name, run.seed, digest)?;
    }
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..run.scale.setups {
        drop(rig.take()); // one pool at a time, so peak memory is one pool's
        let t0 = Instant::now();
        let r = MapRig::start(spec, PmemMode::Fast, spec.key_range, true);
        r.preload(spec, spec.preload);
        times.push(t0.elapsed().as_secs_f64());
        rig = Some(r);
    }
    let rig = rig.expect("at least one set-up");
    let mut at = 0;
    let warm = drive(&rig, spec, &ops, &mut at, run.scale.warmup_s).tally;
    // The warm-up's timings are discarded; its failures are not.
    if warm.failed > 0 {
        return Err(format!(
            "{} of the warm-up's {} operations failed",
            warm.failed, warm.attempted
        ));
    }
    let load = drive(&rig, spec, &ops, &mut at, run.seconds);
    drop(rig);
    let crash = crash_check(spec, run.seed, run.scale.recoveries);
    Ok(finish_untraced(
        run,
        digest,
        stats::median(&times),
        load,
        crash,
    ))
}

/// Puts made durable by a `sync`, then puts left at risk.
const DURABLE_PUTS: usize = 2048;
const RISKY_PUTS: usize = 512;

/// Strict-mode replica, a deterministic script of puts, a crash, then
/// `montage::recovery::recover` + the map's index rebuild, verified: every
/// put synced must read back its value or a later one, no key may hold
/// bytes never written, and the recovery report must be clean. That first
/// recovery is not timed (a process's first runs up to 2.5× slow);
/// `recoveries` timed ones follow, each from a fresh copy of the crash image.
pub fn crash_check(spec: &MapSpec, seed: u64, recoveries: usize) -> CrashReport {
    let records = spec.crash_records;
    let rig = MapRig::start(spec, PmemMode::Strict, records, true);
    rig.preload(spec, records);
    let tid = rig.esys.register_thread();
    let mut durable = vec![0u32; records as usize + 1];
    let mut sent = vec![0u32; records as usize + 1];
    let mut value = Vec::with_capacity(spec.value_len);
    let mut x = stream::splitmix(seed ^ 0xC4A5_11ED);
    let mut put = |sent: &mut [u32]| {
        x = stream::splitmix(x);
        let key = 1 + x % records;
        sent[key as usize] += 1;
        value.clear();
        stream::push_value(&mut value, key, sent[key as usize], spec.value_len);
        rig.map.put(tid, stream::padded_key(key), &value);
    };
    for _ in 0..DURABLE_PUTS {
        put(&mut sent);
    }
    rig.esys.sync();
    durable.copy_from_slice(&sent);
    for _ in 0..RISKY_PUTS {
        put(&mut sent);
    }
    let MapRig {
        esys,
        map,
        advancer,
    } = rig;
    drop(advancer);
    drop(map);

    let recover = || {
        let image = esys.pool().crash();
        let t0 = Instant::now();
        let rec = montage::recovery::recover(image, esys_config(), 2);
        let map = Map::recover(Arc::clone(&rec.esys), tags::HASHMAP, records as usize, &rec);
        (t0.elapsed().as_secs_f64(), rec, map)
    };
    let mut report = CrashReport::default();
    let (_, rec, map) = recover();
    report.survivors = rec.report.survivors;
    report.quarantined = rec.report.quarantined.len();
    if report.quarantined > 0 {
        report.violations.push(format!(
            "recovery quarantined {} payloads",
            report.quarantined
        ));
    }
    let tid = rec.esys.register_thread();
    for key in 1..=records {
        let (lo, hi) = (durable[key as usize], sent[key as usize]);
        let complaint = match map.get(tid, &stream::padded_key(key), |v| {
            version_complaint(v, key, spec.value_len, lo, hi)
        }) {
            Some(c) => c,
            None => Some("is missing".to_owned()),
        };
        if let Some(c) = complaint {
            if report.violations.len() < 8 {
                report.violations.push(format!("key {key} {c}"));
            }
        }
    }
    drop((map, rec));
    report.recoveries_s = (0..recoveries).map(|_| recover().0).collect();
    report
}
