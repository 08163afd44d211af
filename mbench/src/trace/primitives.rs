//! Replay stage 6 and the calibration probes, shared by every workload.

use super::*;

// ---- stage 6, shared ------------------------------------------------------------

/// Cache lines the primitives stage moved, by call, for the unit costs.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct PrimLines {
    pub(super) clwb: f64,
    pub(super) drained: f64,
    pub(super) read: f64,
    pub(super) sum_bytes: f64,
    pub(super) write_bytes: f64,
}

fn lines(bytes: usize) -> usize {
    bytes.div_ceil(64)
}

/// Stage 6: the bare calls under the esys stage, redone chunk by chunk from
/// its counter deltas — checksum, allocator, and the pool's stores, flushes,
/// fences and media reads — with the fixed-size calibration probes between
/// chunks.
pub(super) fn stage_primitives(r: &mut Replay, payload: usize, work: &[ChunkWork]) {
    let Replay {
        spans,
        ledger,
        base,
        probes,
        ..
    } = r;
    probes.sample();
    let block = HDR_SIZE + payload;
    let pool = PmemPool::new(PmemConfig {
        size: ((96 << 20) + work.len() * CHUNK * block * 2).next_multiple_of(1 << 20),
        mode: PmemMode::Fast,
        latency: LatencyModel::OPTANE,
        chaos: Default::default(),
    });
    let heap = Ralloc::format(pool.clone());
    let mut laps = base.fresh();
    let mut moved = PrimLines::default();
    let body = vec![b'p'; payload];
    // Blocks to write into and to free: the esys stage frees what earlier
    // chunks (and its preload) allocated.
    let mut live: std::collections::VecDeque<POff> =
        (0..4 * CHUNK).map(|_| heap.alloc(block)).collect();
    let every = (work.len() / Probes::SLICES).max(1);
    for (chunk, w) in work.iter().enumerate() {
        if chunk % every == 0 {
            probes.sample();
        }
        let c = &w.counts;
        let start = Instant::now();
        let write_len = (ratio(w.write_bytes as f64, w.writes as f64) as usize).min(payload);
        for _ in 0..w.writes {
            std::hint::black_box(laps.time(Lap::Sum, || Header::data_sum(&body[..write_len])));
            moved.sum_bytes += write_len as f64;
        }
        for _ in 0..c.allocs {
            live.push_back(laps.time(Lap::Alloc, || heap.alloc(block)));
        }
        for i in 0..w.writes as usize {
            let at = live[live.len() - 1 - i % live.len()];
            laps.time(Lap::WriteBytes, || {
                pool.write_bytes(Header::data(at), &body[..write_len])
            });
            moved.write_bytes += write_len as f64;
        }
        let read_len = ratio(w.read_bytes as f64, w.reads as f64) as usize;
        for i in 0..w.reads as usize {
            std::hint::black_box(live[i % live.len()]);
            laps.time(Lap::Touch, || pool.touch());
            laps.time(Lap::MediaRead, || pool.media_read(read_len));
            moved.read += lines(read_len) as f64;
        }
        // Flushes in payload-sized ranges, the way the write-back rings
        // issue them, until the chunk's line count is spent.
        let mut left = c.clwbs as usize;
        let mut pending = 0;
        let mut i = 0;
        while left > 0 {
            let n = left.min(lines(block));
            let at = live[i % live.len()];
            laps.time(Lap::Clwb, || pool.clwb_range(at, n * 64));
            moved.clwb += n as f64;
            pending += n;
            left -= n;
            i += 1;
        }
        for _ in 0..c.sfences {
            if pending > 0 {
                laps.time(Lap::FenceDrain, || pool.sfence());
                moved.drained += pending as f64;
                pending = 0;
            } else {
                laps.time(Lap::FenceEmpty, || pool.sfence());
            }
        }
        for _ in 0..c.deallocs {
            if live.len() > CHUNK {
                let at = live.pop_front().expect("non-empty");
                laps.time(Lap::Dealloc, || heap.dealloc(at));
            }
        }
        let end = Instant::now();
        spans.record(Stage::Primitives, chunk, start, end);
    }
    ledger.set_stage(Stage::Primitives, spans, laps.clock_ns());
    ledger.prim_lines = moved;
    ledger.prim_laps = Some(laps);
    ledger.calib = probes.ratios();
}

/// Calibration probes: the cost of `clwb_range`, `sfence` and `media_read`
/// on 64 lines — large enough that the clock's own cost is noise — on a pool
/// of their own, sampled in slices between and inside the replay stages so
/// that a slow stretch of the box cannot colour them all.
pub(super) struct Probes {
    pool: PmemPool,
    ns: [Vec<f64>; 3],
}

impl Probes {
    const LINES: usize = 64;
    const PER_SLICE: usize = 50;
    /// Slices taken inside the primitives stage.
    const SLICES: usize = 8;

    pub(super) fn new() -> Probes {
        Probes {
            pool: PmemPool::new(PmemConfig {
                size: 1 << 20,
                mode: PmemMode::Fast,
                latency: LatencyModel::OPTANE,
                chaos: Default::default(),
            }),
            ns: Default::default(),
        }
    }

    pub(super) fn sample(&mut self) {
        let at = POff::new((512 << 10) as u64);
        self.pool.sfence();
        for _ in 0..Self::PER_SLICE {
            let t0 = Instant::now();
            self.pool.clwb_range(at, Self::LINES * 64);
            let t1 = Instant::now();
            self.pool.sfence();
            let t2 = Instant::now();
            self.pool.media_read(Self::LINES * 64);
            let t3 = Instant::now();
            self.ns[0].push((t1 - t0).as_nanos() as f64);
            self.ns[1].push((t2 - t1).as_nanos() as f64);
            self.ns[2].push((t3 - t2).as_nanos() as f64);
        }
    }

    /// Observed ÷ configured. Observed is the low tail (5th percentile) of
    /// the probes: interference from the box only ever adds, so the low side
    /// is what the simulator itself charges.
    pub(super) fn ratios(&self) -> [f64; 3] {
        let lat = LatencyModel::OPTANE;
        let l = Self::LINES as u64;
        let configured = [
            lat.clwb_issue_ns * l,
            lat.fence_base_ns + l * (lat.fence_per_line_ns + lat.media_write_ns),
            lat.media_read_line_ns * l,
        ];
        [0, 1, 2].map(|i| {
            let mut v = self.ns[i].clone();
            v.sort_by(f64::total_cmp);
            v[v.len() / 20] / configured[i] as f64
        })
    }
}
