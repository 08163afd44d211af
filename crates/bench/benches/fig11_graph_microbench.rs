//! **Figure 11** — general-graph microbenchmark: a mix of AddEdge /
//! RemoveEdge / AddVertex / RemoveVertex with
//! (edge ops):(vertex ops) = 4:1 (left panel) and 499:1 (right panel);
//! 10⁶-capacity (scaled), half preloaded, average degree 32. AddVertex
//! connects the new vertex to 32 others; RemoveVertex clears all adjacent
//! edges. Systems: DRAM (T), Montage (T), Montage.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use baselines::transient::Arena;
use baselines::TransientGraph;
use montage::{Advancer, EpochSys, EsysConfig, ThreadId};
use montage_bench::harness::{env_scale, env_seconds, env_threads};
use montage_bench::report;
use montage_bench::systems::nvm_pool;
use montage_ds::{tags, MontageGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DEGREE: u64 = 32;
const ATTR: &[u8] = &[7u8; 64];

trait BenchGraph: Send + Sync {
    fn add_vertex(&self, tid: usize, vid: u64) -> bool;
    fn remove_vertex(&self, tid: usize, vid: u64) -> bool;
    fn add_edge(&self, tid: usize, a: u64, b: u64) -> bool;
    fn remove_edge(&self, tid: usize, a: u64, b: u64) -> bool;
    fn has_vertex(&self, vid: u64) -> bool;
}

impl BenchGraph for TransientGraph {
    fn add_vertex(&self, _t: usize, vid: u64) -> bool {
        TransientGraph::add_vertex(self, vid, ATTR)
    }
    fn remove_vertex(&self, _t: usize, vid: u64) -> bool {
        TransientGraph::remove_vertex(self, vid)
    }
    fn add_edge(&self, _t: usize, a: u64, b: u64) -> bool {
        TransientGraph::add_edge(self, a, b, ATTR)
    }
    fn remove_edge(&self, _t: usize, a: u64, b: u64) -> bool {
        TransientGraph::remove_edge(self, a, b)
    }
    fn has_vertex(&self, vid: u64) -> bool {
        TransientGraph::has_vertex(self, vid)
    }
}

impl BenchGraph for MontageGraph {
    fn add_vertex(&self, t: usize, vid: u64) -> bool {
        MontageGraph::add_vertex(self, ThreadId(t), vid, ATTR)
    }
    fn remove_vertex(&self, t: usize, vid: u64) -> bool {
        MontageGraph::remove_vertex(self, ThreadId(t), vid)
    }
    fn add_edge(&self, t: usize, a: u64, b: u64) -> bool {
        MontageGraph::add_edge(self, ThreadId(t), a, b, ATTR)
    }
    fn remove_edge(&self, t: usize, a: u64, b: u64) -> bool {
        MontageGraph::remove_edge(self, ThreadId(t), a, b)
    }
    fn has_vertex(&self, vid: u64) -> bool {
        MontageGraph::has_vertex(self, vid)
    }
}

fn preload(g: &dyn BenchGraph, capacity: u64, rng: &mut SmallRng) {
    for v in 0..capacity / 2 {
        g.add_vertex(0, v);
    }
    for v in 0..capacity / 2 {
        for _ in 0..DEGREE / 2 {
            let o = rng.gen_range(0..capacity / 2);
            g.add_edge(0, v, o);
        }
    }
}

/// Runs the op mix; returns ops/s. `edge_ratio` is the edge:vertex op ratio
/// (4 or 499).
fn run(g: &dyn BenchGraph, threads: usize, capacity: u64, edge_ratio: u32, dur: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let stop = &stop;
            let total = &total;
            let barrier = &barrier;
            let g = &g;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xF16 + t as u64);
                let mut ops = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    if rng.gen_range(0..=edge_ratio) != 0 {
                        // Edge op: 50/50 add/remove over random pairs.
                        let a = rng.gen_range(0..capacity);
                        let b = rng.gen_range(0..capacity);
                        if rng.gen() {
                            g.add_edge(t, a, b);
                        } else {
                            g.remove_edge(t, a, b);
                        }
                    } else {
                        // Vertex op: keep the population statistically stable.
                        let v = rng.gen_range(0..capacity);
                        if g.has_vertex(v) {
                            g.remove_vertex(t, v);
                        } else {
                            g.add_vertex(t, v);
                            for _ in 0..DEGREE {
                                let o = rng.gen_range(0..capacity);
                                g.add_edge(t, v, o);
                            }
                        }
                    }
                    ops += 1;
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        barrier.wait();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / dur.as_secs_f64()
}

fn main() {
    let scale = env_scale();
    let capacity = ((1_000_000f64 * scale) as u64).max(4_000);
    let dur = Duration::from_secs_f64(env_seconds());
    let pool_bytes = (64 << 20) + capacity as usize * (DEGREE as usize) * 256;

    report::header(
        "fig11",
        &format!(
            "graph microbenchmark, capacity {capacity}, degree {DEGREE}, {}s/point",
            env_seconds()
        ),
        &["system", "edge_to_vertex_ratio", "threads", "ops_per_sec"],
    );

    for ratio in [4u32, 499] {
        for &threads in &env_threads() {
            // DRAM (T)
            {
                let g = TransientGraph::new(Arena::Dram, capacity as usize);
                preload(&g, capacity, &mut SmallRng::seed_from_u64(1));
                let t = run(&g, threads, capacity, ratio, dur);
                report::row(&[
                    "DRAM (T)".into(),
                    ratio.to_string(),
                    threads.to_string(),
                    report::raw(t),
                ]);
            }
            // Montage (T) and Montage
            for (label, cfg, advance) in [
                ("Montage (T)", EsysConfig::transient(), false),
                ("Montage", EsysConfig::default(), true),
            ] {
                let esys = EpochSys::format(
                    nvm_pool(pool_bytes),
                    EsysConfig {
                        max_threads: threads + 2,
                        ..cfg
                    },
                );
                for _ in 0..threads + 1 {
                    esys.register_thread();
                }
                let _adv = advance.then(|| Advancer::start(esys.clone()));
                let g = MontageGraph::new(
                    esys,
                    tags::GRAPH_VERTEX,
                    tags::GRAPH_EDGE,
                    capacity as usize,
                );
                preload(&g, capacity, &mut SmallRng::seed_from_u64(1));
                let t = run(&g, threads, capacity, ratio, dur);
                report::row(&[
                    label.into(),
                    ratio.to_string(),
                    threads.to_string(),
                    report::raw(t),
                ]);
            }
        }
    }
}
