//! The traced run: a short stretch of the untraced load for the counters
//! that only exist under load, then a single-threaded, deterministic replay
//! of one stream's first operations through successively deeper *public*
//! entry points. A layer's self time is its stage minus the stage below.
//!
//! ```text
//! wire workloads                          lib_hashmap
//! 1 loopback   send packet, read replies
//! 2 frame      RequestReader::feed/next_request
//! 3 session    Session::execute_with in a StoreBatch window + sync_shard
//! 4 store      ShardedKvStore::{get,update,detected}   4 hashmap  MontageHashMap::{put,get,remove}
//! 5 esys       EpochSys::{begin_op,pnew_bytes,set_bytes,pdelete,sync,…}
//! 6 primitives Header::data_sum, Ralloc::{alloc,dealloc}, PmemPool::{write_bytes,clwb_range,sfence,media_read,touch}
//! ```
//!
//! Stages 2–6 run with no other thread alive, so their counts repeat
//! exactly for a seed; stage 1 and the loaded stretch run against the live
//! server and do not.

mod map_stages;
mod primitives;
mod wire_stages;

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use kvserver::{Request, RequestReader};
use kvstore::protocol::Session;
use kvstore::{DetectedWrite, ShardRouter, ShardedKvStore, KV_TAG, SESSION_TAG};
use montage::payload::Header;
// Counters and a stop flag only; the lint keeps `std`'s atomics to the facade.
use montage::sync::uninstrumented::{AtomicBool, AtomicU64, Ordering};
use montage::{EpochSys, PHandle, ThreadId, HDR_SIZE};
use pmem::{LatencyModel, POff, PmemConfig, PmemMode, PmemPool};
use ralloc::Ralloc;

use self::primitives::{stage_primitives, PrimLines, Probes};
use crate::json::Metric;
use crate::libmap::{self, MapRig};
use crate::spec::{MapSpec, Shape, WireSpec, PER_LAYER};
use crate::stream::{self, Kind, Op, PacketBuilder, DEPTH};
use crate::wire::{self, Conn, Rig};
use crate::{affinity, heap, stats, RunArgs, RunResult};

/// Operations per span.
const CHUNK: usize = 64;
/// Chunks between the replay's epoch advances when nothing syncs: about the
/// operations a 10 ms epoch holds at the workloads' rates.
const ADVANCE_CHUNKS: usize = 32;
/// A calibration ratio (observed ÷ configured latency) outside this range
/// fails the traced run: nothing built on the simulator can be trusted.
const CALIB_RANGE: std::ops::RangeInclusive<f64> = 0.8..=1.5;
/// Seconds of untraced load at the start of a traced run.
const LOADED_S: f64 = 3.0;
/// Session id of the replay's own connection.
const REPLAY_SESSION: u64 = 64;

// ---- spans, laps, counters ----------------------------------------------------

/// A replay stage, in nesting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Loopback,
    Frame,
    Session,
    Store,
    /// The store stage again with plain `update` in place of `detected`
    /// (session workloads only): the difference is the session table's.
    StorePlain,
    Hashmap,
    Esys,
    Primitives,
}

impl Stage {
    const ALL: [Stage; 8] = [
        Stage::Loopback,
        Stage::Frame,
        Stage::Session,
        Stage::Store,
        Stage::StorePlain,
        Stage::Hashmap,
        Stage::Esys,
        Stage::Primitives,
    ];

    fn name(self) -> &'static str {
        match self {
            Stage::Loopback => "loopback",
            Stage::Frame => "frame",
            Stage::Session => "session",
            Stage::Store => "store",
            Stage::StorePlain => "store_plain",
            Stage::Hashmap => "hashmap",
            Stage::Esys => "esys",
            Stage::Primitives => "primitives",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// The stage whose span of the same chunk encloses this one's.
    fn parent(self) -> Option<Stage> {
        match self {
            Stage::Loopback | Stage::Hashmap => None,
            Stage::Frame | Stage::Session => Some(Stage::Loopback),
            Stage::Store | Stage::StorePlain => Some(Stage::Session),
            Stage::Esys => Some(Stage::Store),
            Stage::Primitives => Some(Stage::Esys),
        }
    }
}

struct Span {
    stage: Stage,
    chunk: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans sit in a buffer allocated up front and are written out at exit.
struct Spans {
    origin: Instant,
    rows: Vec<Span>,
    chunks: usize,
}

impl Spans {
    fn new(chunks: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            rows: Vec::with_capacity(chunks * Stage::ALL.len()),
            chunks,
        }
    }

    fn record(&mut self, stage: Stage, chunk: usize, start: Instant, end: Instant) {
        self.rows.push(Span {
            stage,
            chunk: chunk as u32,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    /// Total span time of `stage`, in ns.
    fn total_ns(&self, stage: Stage) -> f64 {
        self.rows
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// One JSON object per line: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` (the same chunk's span in the enclosing stage, or null),
    /// `first_op`, `n_ops`.
    fn write(&self, workload: &str, has: impl Fn(Stage) -> bool) -> std::io::Result<String> {
        let path = format!("mbench-trace-{workload}.jsonl");
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let id = |stage: Stage, chunk: u32| stage.index() * self.chunks + chunk as usize;
        for s in &self.rows {
            // The in-process workload's esys stage nests under its hashmap
            // stage; the wire workloads' under their store stage.
            let parent = match s.stage {
                Stage::Esys if has(Stage::Hashmap) => Some(Stage::Hashmap),
                stage => stage.parent(),
            };
            let parent = parent.map_or("null".to_owned(), |p| id(p, s.chunk).to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"first_op\": {}, \"n_ops\": {CHUNK}}}",
                id(s.stage, s.chunk),
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.chunk as usize * CHUNK,
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

/// What a lap timer charges its time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lap {
    // store / hashmap stage, by operation
    Get,
    Put,
    Remove,
    // esys stage, by call
    Begin,
    Peek,
    Pnew,
    Set,
    /// The session descriptor's `set_bytes` / first `pnew_bytes`.
    Desc,
    Pdelete,
    End,
    Advance,
    Sync,
    /// The in-process generator's own fence at the end of a round.
    RoundFence,
    // primitives stage, by call
    Sum,
    Alloc,
    Dealloc,
    WriteBytes,
    Clwb,
    FenceEmpty,
    FenceDrain,
    MediaRead,
    Touch,
}

const LAPS: usize = Lap::Touch as usize + 1;

/// Times individual calls inside a span: two clock reads around each, with
/// the clock's own cost calibrated and taken off afterwards.
struct Laps {
    ns: [u64; LAPS],
    calls: [u64; LAPS],
    /// Cost of one `Instant::now()`, in ns.
    now_cost: f64,
}

impl Laps {
    fn new() -> Laps {
        const N: u32 = 1 << 20;
        let t0 = Instant::now();
        for _ in 0..N {
            std::hint::black_box(Instant::now());
        }
        Laps {
            ns: [0; LAPS],
            calls: [0; LAPS],
            now_cost: t0.elapsed().as_nanos() as f64 / f64::from(N),
        }
    }

    fn fresh(&self) -> Laps {
        Laps {
            ns: [0; LAPS],
            calls: [0; LAPS],
            now_cost: self.now_cost,
        }
    }

    #[inline]
    fn time<T>(&mut self, lap: Lap, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns[lap as usize] += t0.elapsed().as_nanos() as u64;
        self.calls[lap as usize] += 1;
        out
    }

    /// Time charged to `lap`, less the clock read each measurement holds.
    fn total(&self, lap: Lap) -> f64 {
        (self.ns[lap as usize] as f64 - self.calls[lap as usize] as f64 * self.now_cost).max(0.0)
    }

    fn calls(&self, lap: Lap) -> f64 {
        self.calls[lap as usize] as f64
    }

    fn per_call(&self, lap: Lap) -> f64 {
        ratio(self.total(lap), self.calls(lap))
    }

    /// Clock reads made, for taking their cost off the enclosing spans.
    fn clock_ns(&self) -> f64 {
        self.calls.iter().sum::<u64>() as f64 * 2.0 * self.now_cost
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counters of every layer below the store, summed over shards, plus this
/// thread's heap allocations.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    clwbs: u64,
    sfences: u64,
    lines_drained: u64,
    pnews: u64,
    sets_in_place: u64,
    sets_copied: u64,
    pdeletes: u64,
    advances: u64,
    coalesced: u64,
    allocs: u64,
    deallocs: u64,
    sbs_carved: u64,
    heap_allocs: u64,
    heap_bytes: u64,
}

impl Counts {
    fn read(esyses: &[Arc<EpochSys>]) -> Counts {
        let (heap_allocs, heap_bytes) = heap::thread_totals();
        let mut c = Counts {
            heap_allocs,
            heap_bytes,
            ..Counts::default()
        };
        for e in esyses {
            let p = e.pool().stats().snapshot();
            let (s, r) = (e.stats(), e.allocator().stats());
            c.clwbs += p.clwbs;
            c.sfences += p.sfences;
            c.lines_drained += p.lines_drained;
            c.pnews += s.pnews.load(Ordering::Relaxed);
            c.sets_in_place += s.sets_in_place.load(Ordering::Relaxed);
            c.sets_copied += s.sets_copied.load(Ordering::Relaxed);
            c.pdeletes += s.pdeletes.load(Ordering::Relaxed);
            c.advances += s.advances.load(Ordering::Relaxed);
            c.coalesced += s.flushes_coalesced.load(Ordering::Relaxed);
            c.allocs += r.allocs.load(Ordering::Relaxed);
            c.deallocs += r.deallocs.load(Ordering::Relaxed);
            c.sbs_carved += r.sbs_carved.load(Ordering::Relaxed);
        }
        c
    }

    fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            clwbs: self.clwbs - earlier.clwbs,
            sfences: self.sfences - earlier.sfences,
            lines_drained: self.lines_drained - earlier.lines_drained,
            pnews: self.pnews - earlier.pnews,
            sets_in_place: self.sets_in_place - earlier.sets_in_place,
            sets_copied: self.sets_copied - earlier.sets_copied,
            pdeletes: self.pdeletes - earlier.pdeletes,
            advances: self.advances - earlier.advances,
            coalesced: self.coalesced - earlier.coalesced,
            allocs: self.allocs - earlier.allocs,
            deallocs: self.deallocs - earlier.deallocs,
            sbs_carved: self.sbs_carved - earlier.sbs_carved,
            heap_allocs: self.heap_allocs - earlier.heap_allocs,
            heap_bytes: self.heap_bytes - earlier.heap_bytes,
        }
    }
}

/// What the esys stage did in one chunk, for the primitives stage to redo
/// with the bare calls: the counter deltas and the payload traffic.
#[derive(Clone, Copy, Debug, Default)]
struct ChunkWork {
    counts: Counts,
    /// Payload bodies written (`pnew_bytes` / `set_bytes`), and their bytes.
    writes: u64,
    write_bytes: u64,
    /// Payload bodies read, and their bytes.
    reads: u64,
    read_bytes: u64,
}

/// Everything the metric assembly needs from the replay stages.
#[derive(Default)]
struct Ledger {
    ops: f64,
    gets: f64,
    puts: f64,
    removes: f64,
    /// ns per op of each stage, clock reads taken off.
    stage_ns: [f64; Stage::ALL.len()],
    present: [bool; Stage::ALL.len()],
    frame_bytes: f64,
    frame_heap_allocs: f64,
    session: Counts,
    store: Counts,
    esys: Counts,
    store_laps: Option<Laps>,
    store_plain_laps: Option<Laps>,
    esys_laps: Option<Laps>,
    prim_laps: Option<Laps>,
    /// Durations of the esys stage's `sync` calls, in ns.
    sync_ns: Vec<u32>,
    store_hits: f64,
    evictions: f64,
    mirror_bytes: f64,
    descriptors: f64,
    dedupe_hits: f64,
    user_bytes_written: f64,
    live_user_bytes: f64,
    resizes: f64,
    /// Superblocks carved since format, at the end of the session / hashmap stage.
    sbs_carved: f64,
    prim_lines: PrimLines,
    calib: [f64; 3],
    overhead_frac: f64,
}

impl Ledger {
    fn set_stage(&mut self, stage: Stage, spans: &Spans, clock_ns: f64) {
        let i = stage.index();
        self.stage_ns[i] = ((spans.total_ns(stage) - clock_ns) / self.ops).max(0.0);
        self.present[i] = true;
    }

    fn stage(&self, stage: Stage) -> f64 {
        self.stage_ns[stage.index()]
    }

    fn has(&self, stage: Stage) -> bool {
        self.present[stage.index()]
    }
}

/// What every replay stage works on: the stream, the span buffer, the
/// ledger being filled, the calibrated clock and the calibration probes.
struct Replay {
    ops: Arc<[Op]>,
    spans: Spans,
    ledger: Ledger,
    base: Laps,
    probes: Probes,
}

impl Replay {
    fn new(ops: Arc<[Op]>) -> Replay {
        let count = |k: Kind| ops.iter().filter(|o| o.kind() == k).count() as f64;
        Replay {
            spans: Spans::new(ops.len() / CHUNK),
            ledger: Ledger {
                ops: ops.len() as f64,
                gets: count(Kind::Get),
                puts: count(Kind::Put),
                removes: count(Kind::Remove),
                ..Ledger::default()
            },
            base: Laps::new(),
            probes: Probes::new(),
            ops,
        }
    }
}

// ---- entry --------------------------------------------------------------------

pub fn run(run: &RunArgs) -> Result<RunResult, String> {
    let mut m = Metrics::default();
    let (ledger, spans, recovery) = match run.workload.shape {
        Shape::Wire(spec) => wire_stages::trace_wire(run, &spec.at(&run.scale), &mut m)?,
        Shape::Map(spec) => map_stages::trace_map(run, &spec.at(&run.scale), &mut m)?,
    };
    assemble(&ledger, &mut m);
    m.set(
        "montage.recovery.ns_per_payload",
        ratio(recovery.recoveries_s[0] * 1e9, recovery.survivors as f64),
    );
    m.set("montage.recovery.quarantined", recovery.quarantined as f64);

    let path = spans
        .write(run.workload.name, |s| ledger.has(s))
        .map_err(|e| format!("writing the span file: {e}"))?;
    println!(
        "workload {} seed {} traced: {} ops, spans in {path}",
        run.workload.name, run.seed, ledger.ops
    );
    let mut problems = recovery.violations;
    for (name, r) in ["clwb", "sfence", "media_read"].iter().zip(ledger.calib) {
        if !CALIB_RANGE.contains(&r) {
            problems.push(format!(
                "pmem.calib.{name}_ratio {r:.3} outside [{}, {}]: the simulator does not charge what it is configured to",
                CALIB_RANGE.start(),
                CALIB_RANGE.end()
            ));
        }
    }
    for p in &problems {
        println!("FAILED: {p}");
    }
    let metrics = m.finish();
    for metric in &metrics {
        println!("{:<42} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: ledger.ops as u64,
        failed: 0,
        metrics,
    })
}

/// The per-layer metrics by name; a metric never set reports 0.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.push((name, value));
    }

    fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|d| Metric {
                name: d.name,
                unit: d.unit,
                value: self
                    .0
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == d.name)
                    .map_or(0.0, |(_, v)| *v),
            })
            .collect()
    }
}

fn stat(stats: &[(String, u64)], name: &str) -> f64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

type Traced = (Ledger, Spans, crate::measure::CrashReport);

/// Between chunks, where nothing syncs: the advancer's tick, at a fixed
/// operation cadence so that counts repeat.
fn tick(chunk: usize, spec_syncs: bool, esyses: &[Arc<EpochSys>], laps: &mut Laps) {
    if !spec_syncs && chunk % ADVANCE_CHUNKS == ADVANCE_CHUNKS - 1 {
        for e in esyses {
            laps.time(Lap::Advance, || e.advance_epoch());
        }
    }
}

/// Folds the between-chunks advancer ticks into the stage's laps.
fn merge_advance(laps: &mut Laps, idle: &Laps) {
    laps.ns[Lap::Advance as usize] += idle.ns[Lap::Advance as usize];
    laps.calls[Lap::Advance as usize] += idle.calls[Lap::Advance as usize];
}

// ---- the ledger → metrics -------------------------------------------------------------

fn assemble(l: &Ledger, m: &mut Metrics) {
    let sets = l.puts;
    let per_op = |x: u64| x as f64 / l.ops;
    m.set("trace.overhead_frac", l.overhead_frac);
    // The stages' raw ns per op, so a reader can redo the subtractions.
    let stages: Vec<String> = Stage::ALL
        .iter()
        .filter(|s| l.has(**s))
        .map(|s| format!("{} {:.1}", s.name(), l.stage(*s)))
        .collect();
    println!("stage ns/op: {}", stages.join(", "));
    let esys = l.stage(Stage::Esys);
    let el = l.esys_laps.as_ref().expect("esys stage ran");
    let pl = l.prim_laps.as_ref().expect("primitives stage ran");
    let sl = l.store_laps.as_ref().expect("store or hashmap stage ran");
    // Per operation kind, what the esys stage spent on that kind's path.
    let esys_get = ratio(el.total(Lap::Peek), el.calls(Lap::Peek));
    let begin_end = el.total(Lap::Begin) + el.total(Lap::End);

    if l.has(Stage::Loopback) {
        let (top, frame, session, store) = (
            l.stage(Stage::Loopback),
            l.stage(Stage::Frame),
            l.stage(Stage::Session),
            l.stage(Stage::Store),
        );
        m.set("kvserver.frame.parse_ns", frame);
        m.set("kvserver.frame.bytes_per_req", l.frame_bytes / l.ops);
        m.set(
            "kvserver.frame.heap_allocs_per_op",
            l.frame_heap_allocs / l.ops,
        );
        m.set("kvserver.wire.self_ns", top - frame - session);
        m.set("trace.explained_frac", ratio(frame + session, top));
        m.set("kvstore.protocol.self_ns", session - store);
        m.set(
            "kvstore.protocol.heap_allocs_per_op",
            (l.session.heap_allocs as f64 - l.store.heap_allocs as f64) / l.ops,
        );
        m.set(
            "kvstore.protocol.heap_bytes_per_op",
            (l.session.heap_bytes as f64 - l.store.heap_bytes as f64) / l.ops,
        );
        // Gets that hit peek once; a set peeks (the store reads the current
        // value), runs its share of pin/begin/end, and writes.
        let esys_set = ratio(
            begin_end
                + el.total(Lap::Set)
                + el.total(Lap::Pnew)
                + el.total(Lap::Pdelete)
                + el.per_call(Lap::Peek) * sets.min(el.calls(Lap::Peek)),
            sets,
        );
        let plain = l.store_plain_laps.as_ref().unwrap_or(sl);
        m.set(
            "kvstore.index.get_self_ns",
            sl.per_call(Lap::Get) - esys_get * ratio(l.store_hits, l.gets),
        );
        m.set(
            "kvstore.index.set_self_ns",
            plain.per_call(Lap::Put) - esys_set,
        );
        m.set(
            "kvstore.index.heap_allocs_per_set",
            ratio(l.store.heap_allocs as f64, sets),
        );
        m.set("kvstore.index.evictions_per_op", l.evictions / l.ops);
        m.set("kvstore.index.mirror_bytes", l.mirror_bytes);
        if l.store_plain_laps.is_some() {
            m.set(
                "kvstore.session_table.detected_self_ns",
                sl.per_call(Lap::Put) - plain.per_call(Lap::Put) - ratio(el.total(Lap::Desc), sets),
            );
        }
        m.set("kvstore.session_table.descriptors", l.descriptors);
        m.set("kvstore.session_table.dedupe_hits", l.dedupe_hits);
    } else {
        let top = l.stage(Stage::Hashmap);
        m.set("trace.explained_frac", ratio(esys, top));
        let puts_esys = ratio(
            el.total(Lap::Pnew)
                + el.total(Lap::Set)
                + (el.per_call(Lap::Begin) + el.per_call(Lap::End)) * l.puts,
            l.puts,
        );
        let removes_esys = ratio(
            el.total(Lap::Pdelete)
                + (el.per_call(Lap::Begin) + el.per_call(Lap::End)) * el.calls(Lap::Pdelete),
            l.removes,
        );
        m.set(
            "montage-ds.hashmap.put_self_ns",
            sl.per_call(Lap::Put) - puts_esys,
        );
        m.set(
            "montage-ds.hashmap.get_self_ns",
            sl.per_call(Lap::Get) - esys_get * ratio(el.calls(Lap::Peek), l.gets).min(1.0),
        );
        m.set(
            "montage-ds.hashmap.remove_self_ns",
            sl.per_call(Lap::Remove) - removes_esys,
        );
        m.set("montage-ds.hashmap.resizes", l.resizes);
    }

    // montage.esys — unit costs from the esys stage's laps; counts from the
    // deepest stage that runs the program's own code (session / hashmap).
    let c = &l.session;
    m.set(
        "montage.esys.begin_op_ns",
        ratio(el.total(Lap::Begin), sets + l.removes),
    );
    m.set("montage.esys.pnew_bytes_ns", el.per_call(Lap::Pnew));
    m.set("montage.esys.set_bytes_ns", el.per_call(Lap::Set));
    m.set("montage.esys.pdelete_ns", el.per_call(Lap::Pdelete));
    m.set(
        "montage.esys.end_op_ns",
        ratio(el.total(Lap::End), sets + l.removes),
    );
    m.set(
        "montage.esys.advance_epoch_ns",
        ratio(
            el.total(Lap::Advance) + el.total(Lap::Sync),
            l.esys.advances as f64,
        ),
    );
    let mut syncs = l.sync_ns.clone();
    syncs.sort_unstable();
    m.set(
        "montage.esys.sync_p50_us",
        f64::from(stats::percentile(&syncs, 0.5)) / 1e3,
    );
    // The mutation path's esys calls, less the primitives those calls made.
    let esys_mut: f64 = [
        Lap::Begin,
        Lap::End,
        Lap::Set,
        Lap::Pnew,
        Lap::Pdelete,
        Lap::Desc,
        Lap::Sync,
    ]
    .iter()
    .map(|&x| el.total(x))
    .sum();
    let prim_mut: f64 = [
        Lap::Sum,
        Lap::Alloc,
        Lap::Dealloc,
        Lap::WriteBytes,
        Lap::Clwb,
        Lap::FenceEmpty,
        Lap::FenceDrain,
    ]
    .iter()
    .map(|&x| pl.total(x))
    .sum();
    let round_fences = el.total(Lap::RoundFence);
    m.set(
        "montage.esys.self_ns_per_set",
        ratio(
            esys_mut - (prim_mut - round_fences).max(0.0),
            sets + l.removes,
        ),
    );
    m.set(
        "montage.esys.sets_in_place_frac",
        ratio(
            c.sets_in_place as f64,
            (c.sets_in_place + c.sets_copied) as f64,
        ),
    );
    m.set(
        "montage.buffers.coalesced_lines_per_op",
        per_op(c.coalesced),
    );
    m.set(
        "montage.buffers.coalesce_frac",
        ratio(c.coalesced as f64, (c.coalesced + c.clwbs) as f64),
    );
    m.set(
        "montage.payload.checksum_ns_per_kib",
        ratio(pl.total(Lap::Sum), l.prim_lines.sum_bytes / 1024.0),
    );

    m.set("ralloc.alloc_ns", pl.per_call(Lap::Alloc));
    m.set("ralloc.dealloc_ns", pl.per_call(Lap::Dealloc));
    m.set("ralloc.allocs_per_op", per_op(c.allocs));
    m.set("ralloc.deallocs_per_op", per_op(c.deallocs));
    m.set("ralloc.sbs_carved", l.sbs_carved);
    m.set(
        "ralloc.space_amp",
        ratio(l.sbs_carved * ralloc::SB_SIZE as f64, l.live_user_bytes),
    );

    m.set("pmem.clwbs_per_op", per_op(c.clwbs));
    m.set("pmem.sfences_per_op", per_op(c.sfences));
    m.set("pmem.lines_drained_per_op", per_op(c.lines_drained));
    m.set(
        "pmem.write_amp",
        ratio(c.lines_drained as f64 * 64.0, l.user_bytes_written),
    );
    m.set(
        "pmem.clwb_ns_per_line",
        ratio(pl.total(Lap::Clwb), l.prim_lines.clwb),
    );
    let base = pl.per_call(Lap::FenceEmpty);
    m.set("pmem.sfence_base_ns", base);
    m.set(
        "pmem.sfence_ns_per_line",
        ratio(
            pl.total(Lap::FenceDrain) - base * pl.calls(Lap::FenceDrain),
            l.prim_lines.drained,
        ),
    );
    m.set(
        "pmem.media_read_ns_per_line",
        ratio(pl.total(Lap::MediaRead), l.prim_lines.read),
    );
    m.set("pmem.calib.clwb_ratio", l.calib[0]);
    m.set("pmem.calib.sfence_ratio", l.calib[1]);
    m.set("pmem.calib.media_read_ratio", l.calib[2]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_take_the_clock_off() {
        let mut laps = Laps::new();
        assert!(laps.now_cost > 0.0 && laps.now_cost < 10_000.0);
        for _ in 0..1000 {
            laps.time(Lap::Get, || std::hint::black_box(1 + 1));
        }
        assert_eq!(laps.calls(Lap::Get), 1000.0);
        assert!(
            laps.per_call(Lap::Get) < 1000.0,
            "an empty call costs about nothing"
        );
        assert_eq!(laps.per_call(Lap::Put), 0.0);
    }
}
