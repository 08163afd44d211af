//! # baselines — the competitor systems from the Montage paper's evaluation
//!
//! Each module reimplements one of the systems benchmarked in Sec. 6, from
//! its own paper's algorithmic description, at the fidelity that determines
//! throughput *shape* on our simulated NVM: the number and placement of
//! `clwb`/`sfence` instructions on the operation critical path, what lives
//! in DRAM vs NVM, and the logging/copying discipline. See DESIGN.md for the
//! per-system notes.
//!
//! | module | system | persistence model |
//! |--------|--------|-------------------|
//! | [`transient`] | DRAM (T) / NVM (T) | none (reference) |
//! | [`friedman`] | Friedman et al. queue | durably linearizable, lock-free |
//! | [`dali`] | Dalí hashmap | **buffered** durably linearizable |
//! | [`soft`] | SOFT hashmap | durable sets, DRAM read copy |
//! | [`nvtraverse`] | NVTraverse hashmap | durable, flush-on-traverse |
//! | [`mod_ds`] | MOD queue + hashmap | functional shadow structures |
//! | [`pronto`] | Pronto-Sync / Pronto-Full | semantic operation logging |
//! | [`mnemosyne`] | Mnemosyne-style STM | word-granularity redo logging |

pub mod api;
pub mod dali;
pub mod friedman;
pub mod mnemosyne;
pub mod mod_ds;
pub mod nvtraverse;
pub mod pronto;
pub mod soft;
pub mod transient;
mod transient_graph;

pub use api::{BenchMap, BenchQueue, Key32};
pub use transient::{Arena, TransientHashMap, TransientQueue};
pub use transient_graph::TransientGraph;
