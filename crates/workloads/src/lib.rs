//! # workloads — generators for the paper's evaluation
//!
//! * [`zipfian`] — YCSB-core Zipfian / scrambled-Zipfian / uniform key
//!   distributions (Gray et al.'s method, as used by YCSB).
//! * [`ycsb`] — the YCSB-A operation mix (50% read / 50% update) driving the
//!   memcached experiment (paper Fig. 10).
//! * [`mix`] — the microbenchmark mixes: queue 1:1 enqueue:dequeue and map
//!   get:insert:remove ratios (0:1:1, 18:1:1, 2:1:1), with the paper's key
//!   range (1..=1 M) and preload (0.5 M in 1 M buckets).
//! * [`graphgen`] — a deterministic power-law graph generator standing in
//!   for the SNAP Orkut dataset (see DESIGN.md, substitutions), partitioned
//!   into binary "files" the way the paper's custom loader expects.

pub mod graphgen;
pub mod mix;
pub mod ycsb;
pub mod zipfian;

pub use graphgen::{GraphDataset, GraphGenConfig};
pub use mix::{MapMix, MapOp, QueueOp};
pub use ycsb::{YcsbOp, YcsbWorkload};
pub use zipfian::{KeyDist, Zipfian};
