//! Timed multi-thread workload drivers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use baselines::api::{make_key, BenchMap, BenchQueue};
use workloads::mix::{value_of, MapMix, MapOp, MapOpGen, QueueOpGen};
use workloads::zipfian::KeyDist;

/// Per-point parameters (already scaled).
#[derive(Clone, Copy, Debug)]
pub struct BenchParams {
    pub threads: usize,
    pub duration: Duration,
    pub value_size: usize,
    pub key_range: u64,
    pub preload: u64,
}

impl BenchParams {
    /// The paper's microbenchmark geometry at the env scale.
    pub fn paper_scaled(threads: usize, value_size: usize) -> BenchParams {
        let scale = env_scale();
        BenchParams {
            threads,
            duration: Duration::from_secs_f64(env_seconds()),
            value_size,
            key_range: ((1_000_000f64 * scale) as u64).max(1000),
            preload: ((500_000f64 * scale) as u64).max(500),
        }
    }

    /// Buckets for the paper's 0.5 load factor.
    pub fn nbuckets(&self) -> usize {
        (self.key_range as usize).max(16)
    }
}

/// Seconds per data point (`MONTAGE_BENCH_SECONDS`, default 0.25).
pub fn env_seconds() -> f64 {
    std::env::var("MONTAGE_BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

/// Thread sweep (`MONTAGE_BENCH_THREADS`, default `1,2,4`).
pub fn env_threads() -> Vec<usize> {
    std::env::var("MONTAGE_BENCH_THREADS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// Workload-size multiplier (`MONTAGE_BENCH_SCALE`, default 0.04).
pub fn env_scale() -> f64 {
    std::env::var("MONTAGE_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.04)
}

/// The one timed driver: `p.threads` workers each build their state with
/// `setup(t)` (untimed), start together, and run `op(t, &mut state, nth)` —
/// `nth` counting that worker's ops from 1 — until `p.duration` has passed.
/// Returns ops/s over all workers.
fn run_timed<S>(
    p: BenchParams,
    setup: impl Fn(usize) -> S + Sync,
    op: impl Fn(usize, &mut S, u64) + Sync,
) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let barrier = Barrier::new(p.threads + 1);
    std::thread::scope(|s| {
        for t in 0..p.threads {
            let (stop, total, barrier, setup, op) = (&stop, &total, &barrier, &setup, &op);
            s.spawn(move || {
                let mut state = setup(t);
                let mut ops = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    ops += 1;
                    op(t, &mut state, ops);
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        barrier.wait();
        std::thread::sleep(p.duration);
        stop.store(true, Ordering::Relaxed);
        // Scope joins all workers here.
    });
    total.load(Ordering::Relaxed) as f64 / p.duration.as_secs_f64()
}

/// Runs the paper's 1:1 enqueue:dequeue workload; returns ops/s.
pub fn run_queue_bench(q: &(impl BenchQueue + ?Sized), p: BenchParams) -> f64 {
    let setup = |t: usize| {
        (
            value_of(p.value_size, t as u64),
            QueueOpGen::new(t.is_multiple_of(2)),
        )
    };
    run_timed(p, setup, |t, (value, gen), _| match gen.next() {
        workloads::mix::QueueOp::Enqueue => q.enqueue(t, value),
        workloads::mix::QueueOp::Dequeue => {
            q.dequeue(t);
        }
    })
}

/// Preloads `p.preload` keys, then runs the map `mix`; returns ops/s.
pub fn run_map_bench(m: &(impl BenchMap + ?Sized), mix: MapMix, p: BenchParams) -> f64 {
    run_map_with_sync(m, mix, p, u64::MAX, || {})
}

/// Map workload with a `sync` closure invoked every `ops_per_sync` ops.
pub fn run_map_with_sync(
    m: &(impl BenchMap + ?Sized),
    mix: MapMix,
    p: BenchParams,
    ops_per_sync: u64,
    sync: impl Fn() + Sync,
) -> f64 {
    preload_map(m, p);
    let setup = |t: usize| {
        let gen = MapOpGen::new(mix, KeyDist::Uniform, p.key_range, 0xBEEF + t as u64);
        (value_of(p.value_size, t as u64), gen)
    };
    run_timed(p, setup, |t, (value, gen), nth| {
        match gen.next() {
            MapOp::Get(k) => {
                m.get(t, &make_key(k));
            }
            MapOp::Insert(k) => {
                m.insert(t, make_key(k), value);
            }
            MapOp::Remove(k) => {
                m.remove(t, &make_key(k));
            }
        }
        if nth.is_multiple_of(ops_per_sync) {
            sync();
        }
    })
}

/// Inserts `p.preload` evenly spaced keys (the paper preloads 0.5 M of the
/// 1 M key range).
fn preload_map(m: &(impl BenchMap + ?Sized), p: BenchParams) {
    let value = value_of(p.value_size, 0);
    let step = (p.key_range / p.preload).max(1);
    let mut k = 1;
    for _ in 0..p.preload {
        m.insert(0, make_key(k), &value);
        k += step;
        if k > p.key_range {
            k = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::transient::{Arena, TransientHashMap, TransientQueue};

    fn tiny() -> BenchParams {
        BenchParams {
            threads: 2,
            duration: Duration::from_millis(50),
            value_size: 64,
            key_range: 1000,
            preload: 500,
        }
    }

    #[test]
    fn queue_harness_reports_positive_throughput() {
        let q = TransientQueue::new(Arena::Dram);
        let tput = run_queue_bench(&q, tiny());
        assert!(tput > 1000.0, "throughput {tput} implausibly low");
    }

    #[test]
    fn map_harness_preloads_and_runs() {
        let m = TransientHashMap::new(Arena::Dram, 1024);
        let tput = run_map_bench(&m, MapMix::READ_DOMINANT, tiny());
        assert!(tput > 1000.0);
        // ~half the key range preloaded; churn keeps it in that ballpark.
        assert!(m.len() > 100);
    }

    #[test]
    fn sync_closure_is_invoked() {
        let m = TransientHashMap::new(Arena::Dram, 1024);
        let syncs = AtomicU64::new(0);
        run_map_with_sync(&m, MapMix::READ_DOMINANT, tiny(), 100, || {
            syncs.fetch_add(1, Ordering::Relaxed);
        });
        assert!(syncs.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn env_defaults_are_sane() {
        assert!(env_seconds() > 0.0);
        assert!(!env_threads().is_empty());
        assert!(env_scale() > 0.0);
    }
}
