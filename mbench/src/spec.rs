//! What is measured: the four workloads and the names, units and directions
//! of every metric. `BENCHMARK.json` at the repository root repeats these
//! names; `--check` fails when the two disagree.

/// A wire workload: YCSB over loopback TCP against `kvserver`.
#[derive(Clone, Copy, Debug)]
pub struct WireSpec {
    pub read_permille: u32,
    pub records: u64,
    pub value_len: usize,
    pub shards: usize,
    /// `sync_every=1` (every ack durable) or buffered durability.
    pub sync_every: Option<u64>,
    /// Whole-store item cap; `None` never evicts.
    pub capacity: Option<usize>,
    /// Every update carries `session` + `rid` (detectable operations).
    pub session: bool,
    /// Records of the crash check's strict-mode replica. One recovery of it
    /// takes 0.04–0.26 s on the reference box, so it is repeated
    /// (`Scale::recoveries`).
    pub crash_records: u64,
}

/// The in-process workload: `MontageHashMap` driven directly.
#[derive(Clone, Copy, Debug)]
pub struct MapSpec {
    pub key_range: u64,
    pub preload: u64,
    pub value_len: usize,
    pub crash_records: u64,
}

impl WireSpec {
    /// This workload at `scale`: record counts divided, shape kept.
    pub fn at(self, scale: &Scale) -> WireSpec {
        WireSpec {
            records: (self.records / scale.shrink).max(1_000),
            capacity: self.capacity.map(|c| (c / scale.shrink as usize).max(500)),
            crash_records: (self.crash_records / scale.shrink).max(1_000),
            ..self
        }
    }

    /// The crash check's replica: `crash_records` records, keeping the
    /// workload's ratio of capacity to records.
    pub fn crash_replica(self) -> WireSpec {
        WireSpec {
            records: self.crash_records,
            capacity: self
                .capacity
                .map(|c| (c as u64 * self.crash_records / self.records).max(100) as usize),
            ..self
        }
    }

    /// Records the store holds at once.
    pub fn resident(&self) -> u64 {
        self.capacity
            .map_or(self.records, |c| self.records.min(c as u64))
    }
}

impl MapSpec {
    /// This workload at `scale`: key counts divided, shape kept.
    pub fn at(self, scale: &Scale) -> MapSpec {
        let key_range = (self.key_range / scale.shrink).max(1_000);
        MapSpec {
            key_range,
            preload: key_range * self.preload / self.key_range,
            crash_records: (self.crash_records / scale.shrink).max(1_000),
            ..self
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Wire(WireSpec),
    Map(MapSpec),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one line (`BENCHMARK.json`).
    pub why: &'static str,
    pub shape: Shape,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_a_sync1",
        why: "YCSB-A, every ack durable: group commit, esys sync/advance and pmem fences sit on the ack path; the kvstore get path is the other half",
        shape: Shape::Wire(WireSpec {
            read_permille: 500,
            records: 100_000,
            value_len: 256,
            shards: 1,
            sync_every: Some(1),
            capacity: None,
            session: false,
            crash_records: 150_000,
        }),
    },
    Workload {
        name: "wire_b_read",
        why: "YCSB-B, buffered: frame, protocol and the index get path do the work; an esys or pmem optimisation predicts no change here",
        shape: Shape::Wire(WireSpec {
            read_permille: 950,
            records: 200_000,
            value_len: 64,
            shards: 1,
            sync_every: None,
            capacity: None,
            session: false,
            crash_records: 200_000,
        }),
    },
    Workload {
        name: "wire_large_evict",
        why: "4 KiB values, 4 shards, store half the records, sessions: bytes-bound; copy, checksum, ralloc churn from eviction, per-shard fences; the only workload whose hit_frac can move",
        shape: Shape::Wire(WireSpec {
            read_permille: 500,
            records: 40_000,
            value_len: 4096,
            shards: 4,
            sync_every: Some(1),
            capacity: Some(20_000),
            session: true,
            crash_records: 40_000,
        }),
    },
    Workload {
        name: "lib_hashmap",
        why: "MontageHashMap in-process, 2:1:1 get:put:remove, one thread, a generator-side sfence closing each 64-op round: bypasses kvserver and kvstore; an esys gain must show here, a server-side gain must not",
        shape: Shape::Map(MapSpec {
            key_range: 40_000,
            preload: 20_000,
            value_len: 1024,
            crash_records: 100_000,
        }),
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Sizes of a run: the full benchmark, or `--check`'s smoke scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Divides record counts, the crash replica included.
    pub shrink: u64,
    /// Operations the traced replay covers.
    pub trace_ops: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Timed recoveries per crash check, after the verified one;
    /// `recovery_s` is the quiet one of them.
    pub recoveries: usize,
    pub warmup_s: f64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        shrink: 1,
        trace_ops: 200_000,
        setups: 3,
        recoveries: 16,
        warmup_s: 3.0,
    };
    pub const SMOKE: Scale = Scale {
        shrink: 10,
        trace_ops: 16_384,
        setups: 1,
        recoveries: 1,
        warmup_s: 0.3,
    };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the median; 0 for per-layer metrics,
    /// which have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported on every workload by the untraced run.
/// `ok_frac` is `1 - failed/attempted`: the contract wants metrics that are
/// never 0, so the failed share is reported as its complement (the raw
/// counts are in the result line). The bounds are wider than ISSUE 11 asked
/// where the reference box's own run-to-run spread demands it (README).
pub const END_TO_END: [MetricDef; 9] = [
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("lat_p99_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("hit_frac", "ratio", Higher, 0.03),
    e2e("ok_frac", "ratio", Higher, 0.001),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("recovery_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
];

/// The per-layer metrics, reported on every workload by the traced run. A
/// layer a workload never enters reports 0.
pub const PER_LAYER: [MetricDef; 63] = [
    layer("gen.cpu_us_per_op", "us", Lower),
    layer("gen.cpu_frac", "ratio", Lower),
    layer("kvserver.frame.parse_ns", "ns", Lower),
    layer("kvserver.frame.bytes_per_req", "bytes", Lower),
    layer("kvserver.frame.heap_allocs_per_op", "count", Lower),
    layer("kvserver.wire.self_ns", "ns", Lower),
    layer("kvserver.batch.reqs_per_batch", "count", Higher),
    layer("kvserver.batch.fences_per_op", "count", Lower),
    layer("kvserver.batch.acks_per_fence", "count", Higher),
    layer("kvserver.batch.fence_p50_us", "us", Lower),
    layer("kvserver.batch.fence_p99_us", "us", Lower),
    layer("kvserver.batch.fence_timeouts", "count", Lower),
    layer("kvstore.protocol.self_ns", "ns", Lower),
    layer("kvstore.protocol.heap_allocs_per_op", "count", Lower),
    layer("kvstore.protocol.heap_bytes_per_op", "bytes", Lower),
    layer("kvstore.index.get_self_ns", "ns", Lower),
    layer("kvstore.index.set_self_ns", "ns", Lower),
    layer("kvstore.index.heap_allocs_per_set", "count", Lower),
    layer("kvstore.index.evictions_per_op", "count", Lower),
    layer("kvstore.index.mirror_bytes", "bytes", Lower),
    layer("kvstore.session_table.detected_self_ns", "ns", Lower),
    layer("kvstore.session_table.descriptors", "count", Lower),
    layer("kvstore.session_table.dedupe_hits", "count", Lower),
    layer("kvstore.sharded.shards_per_batch", "count", Lower),
    layer("montage-ds.hashmap.put_self_ns", "ns", Lower),
    layer("montage-ds.hashmap.get_self_ns", "ns", Lower),
    layer("montage-ds.hashmap.remove_self_ns", "ns", Lower),
    layer("montage-ds.hashmap.resizes", "count", Lower),
    layer("montage.esys.begin_op_ns", "ns", Lower),
    layer("montage.esys.pnew_bytes_ns", "ns", Lower),
    layer("montage.esys.set_bytes_ns", "ns", Lower),
    layer("montage.esys.pdelete_ns", "ns", Lower),
    layer("montage.esys.end_op_ns", "ns", Lower),
    layer("montage.esys.advance_epoch_ns", "ns", Lower),
    layer("montage.esys.sync_p50_us", "us", Lower),
    layer("montage.esys.self_ns_per_set", "ns", Lower),
    layer("montage.esys.sets_in_place_frac", "ratio", Higher),
    layer("montage.esys.advances_per_s", "1/s", Lower),
    layer("montage.esys.durable_lag_epochs_max", "count", Lower),
    layer("montage.buffers.coalesced_lines_per_op", "count", Higher),
    layer("montage.buffers.coalesce_frac", "ratio", Higher),
    layer("montage.payload.checksum_ns_per_kib", "ns/KiB", Lower),
    layer("montage.recovery.ns_per_payload", "ns", Lower),
    layer("montage.recovery.quarantined", "count", Lower),
    layer("ralloc.alloc_ns", "ns", Lower),
    layer("ralloc.dealloc_ns", "ns", Lower),
    layer("ralloc.allocs_per_op", "count", Lower),
    layer("ralloc.deallocs_per_op", "count", Lower),
    layer("ralloc.sbs_carved", "count", Lower),
    layer("ralloc.space_amp", "ratio", Lower),
    layer("pmem.clwbs_per_op", "count", Lower),
    layer("pmem.sfences_per_op", "count", Lower),
    layer("pmem.lines_drained_per_op", "count", Lower),
    layer("pmem.write_amp", "ratio", Lower),
    layer("pmem.clwb_ns_per_line", "ns", Lower),
    layer("pmem.sfence_base_ns", "ns", Lower),
    layer("pmem.sfence_ns_per_line", "ns", Lower),
    layer("pmem.media_read_ns_per_line", "ns", Lower),
    layer("pmem.calib.clwb_ratio", "ratio", Lower),
    layer("pmem.calib.sfence_ratio", "ratio", Lower),
    layer("pmem.calib.media_read_ratio", "ratio", Lower),
    layer("trace.explained_frac", "ratio", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
];
