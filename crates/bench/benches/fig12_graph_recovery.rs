//! **Figure 12** — time to rebuild the Orkut(-substitute) graph: parallel
//! construction from partitioned binary adjacency files (DRAM (T),
//! Montage (T), Montage) versus **Montage recovery** of the same graph from
//! its payloads, across the thread sweep.
//!
//! The paper's shape: Montage recovery beats DRAM construction at low
//! thread counts and tracks NVM construction beyond ~16 threads, while
//! supporting incremental mutation without file I/O.

use std::sync::Arc;
use std::time::Instant;

use baselines::transient::Arena;
use baselines::TransientGraph;
use montage::{Advancer, EpochSys, EsysConfig, ThreadId};
use montage_bench::harness::{env_scale, env_threads};
use montage_bench::report;
use montage_bench::systems::nvm_pool;
use montage_ds::{tags, MontageGraph};
use pmem::{LatencyModel, PmemConfig, PmemMode, PmemPool};
use ralloc::Ralloc;
use workloads::graphgen::{GraphDataset, GraphGenConfig};

fn construct_transient(ds: &GraphDataset, arena: Arena, threads: usize) -> f64 {
    let g = Arc::new(TransientGraph::new(arena, ds.vertices as usize));
    let start = Instant::now();
    // Vertices in parallel ranges, then edges in parallel partitions.
    std::thread::scope(|s| {
        for t in 0..threads {
            let g = g.clone();
            let n = ds.vertices;
            s.spawn(move || {
                let mut v = t as u64;
                while v < n {
                    g.add_vertex(v, &[1u8; 64]);
                    v += threads as u64;
                }
            });
        }
    });
    std::thread::scope(|s| {
        for t in 0..threads {
            let g = g.clone();
            s.spawn(move || {
                for &(a, b) in ds.partitions.iter().skip(t).step_by(threads).flatten() {
                    g.add_edge(a as u64, b as u64, &[2u8; 16]);
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

fn montage_graph(esys: Arc<EpochSys>, ds: &GraphDataset) -> MontageGraph {
    MontageGraph::new(
        esys,
        tags::GRAPH_VERTEX,
        tags::GRAPH_EDGE,
        ds.vertices as usize,
    )
}

fn construct_montage(
    ds: &GraphDataset,
    esys: Arc<EpochSys>,
    threads: usize,
) -> (MontageGraph, f64) {
    for _ in 0..threads {
        esys.register_thread();
    }
    let g = Arc::new(montage_graph(esys, ds));
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let g = g.clone();
            let n = ds.vertices;
            s.spawn(move || {
                let mut v = t as u64;
                while v < n {
                    g.add_vertex(ThreadId(t), v, &[1u8; 64]);
                    v += threads as u64;
                }
            });
        }
    });
    // One OS thread per `ThreadId`, as the epoch system requires: worker `t`
    // loads partitions t, t + threads, … (a thread per partition sharing
    // ids never finished below eight threads).
    std::thread::scope(|s| {
        for t in 0..threads {
            let g = g.clone();
            s.spawn(move || {
                for &(a, b) in ds.partitions.iter().skip(t).step_by(threads).flatten() {
                    g.add_edge(ThreadId(t), a as u64, b as u64, &[2u8; 16]);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (Arc::into_inner(g).unwrap(), secs)
}

fn main() {
    let scale = env_scale();
    let cfg = GraphGenConfig {
        vertices: ((500_000f64 * scale) as u64).max(5_000),
        edges_per_vertex: 16,
        seed: 0x0050_4B47,
        partitions: 8,
    };
    let ds = GraphDataset::generate(cfg);
    let pool_bytes = (128 << 20) + ds.edge_count() * 256 + ds.vertices as usize * 256;

    report::header(
        "fig12",
        &format!(
            "graph rebuild: {} vertices, {} edges (Orkut substitute)",
            ds.vertices,
            ds.edge_count()
        ),
        &["series", "threads", "seconds"],
    );

    for &threads in &env_threads() {
        let t_dram = construct_transient(&ds, Arena::Dram, threads);
        report::row(&[
            "DRAM (T) construct".into(),
            threads.to_string(),
            format!("{t_dram:.3}"),
        ]);

        let r = Ralloc::format(nvm_pool(pool_bytes));
        let t_nvm = construct_transient(&ds, Arena::Nvm(r), threads);
        report::row(&[
            "Montage (T) construct".into(),
            threads.to_string(),
            format!("{t_nvm:.3}"),
        ]);

        // Montage construction, then sync + crash + recovery timing.
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig {
                size: pool_bytes,
                mode: PmemMode::Strict, // recovery timing needs a crashable pool
                latency: LatencyModel::OPTANE,
                chaos: Default::default(),
            }),
            EsysConfig {
                max_threads: threads.max(8) + 4,
                ..Default::default()
            },
        );
        let adv = Advancer::start(esys.clone());
        let (g, t_montage) = construct_montage(&ds, esys.clone(), threads);
        report::row(&[
            "Montage construct".into(),
            threads.to_string(),
            format!("{t_montage:.3}"),
        ]);

        esys.sync();
        drop(adv);
        let crashed = esys.pool().crash();
        drop(g);

        let start = Instant::now();
        let rec = montage::recovery::recover(crashed, EsysConfig::default(), threads);
        let g2 = MontageGraph::recover(
            rec.esys.clone(),
            tags::GRAPH_VERTEX,
            tags::GRAPH_EDGE,
            ds.vertices as usize,
            &rec,
        );
        let t_rec = start.elapsed().as_secs_f64();
        report::row(&[
            "Montage recover".into(),
            threads.to_string(),
            format!("{t_rec:.3}"),
        ]);
        assert_eq!(
            g2.vertex_count() as u64,
            ds.vertices,
            "recovery lost vertices"
        );
    }
}
