//! # montage-ds — data structures built on Montage
//!
//! One structure per job, each written against the public [`montage`] API
//! exactly as a downstream user would:
//!
//! * [`MontageHashMap`] — the lock-per-bucket hashmap of paper Fig. 2, with
//!   an online resize: the lookup structure (buckets, chains, locks) is
//!   entirely transient; only key/value payloads live in NVM. The map of
//!   Figs. 4 and 7–9 and of `mbench`'s `lib_hashmap` workload.
//! * [`MontageQueue`] — the single-lock queue (Figs. 5/6): payloads carry
//!   consecutive sequence numbers (the "items and their order" the
//!   abstraction needs), and the linked structure is transient.
//! * [`MontageNbQueue`] — a nonblocking Michael–Scott queue that linearizes
//!   through [`montage::VerifyCell::cas_verify`]: the paper's Sec. 3.3
//!   recipe for lock-free structures.
//! * [`MontageGraph`] — the general graph of Sec. 6.3 (Figs. 11/12): a
//!   payload per vertex and per edge (edges name their endpoints; vertices do
//!   **not** point to edges, avoiding long persistent pointer chains), with
//!   transient adjacency and per-vertex locks.
//!
//! These are the structures the paper evaluates. Montage's epoch system is
//! the only one here: every verb reads transient pointers inside its
//! `begin_op` window, and unlinked nodes and directories are freed on
//! Montage's reclamation frontier ([`montage::EpochSys::retire_transient`]).
//! Every structure has a `recover` constructor that rebuilds its transient
//! state from a [`montage::RecoveredState`], optionally in parallel.

pub mod graph;
mod hashmap;
mod nbqueue;
pub mod queue;

pub use graph::MontageGraph;
pub use hashmap::MontageHashMap;
pub use nbqueue::MontageNbQueue;
pub use queue::MontageQueue;

/// Payload type tags used by the bundled structures (pass your own when
/// instantiating several structures of the same kind in one pool). Pools
/// are shared, so this is the one registry of every tag in the workspace.
pub mod tags {
    pub const HASHMAP: u16 = 1;
    pub const QUEUE: u16 = 2;
    pub const NBQUEUE: u16 = 3;
    pub const GRAPH_VERTEX: u16 = 4;
    pub const GRAPH_EDGE: u16 = 5;
    /// Reserved: `kvstore::KV_TAG` and `kvstore::SESSION_TAG`. `kvstore`
    /// owns both numbers without depending on this crate; they are listed
    /// here so no structure sharing a pool with a store takes them.
    pub const KVSTORE: u16 = 6;
    pub const KV_SESSION: u16 = 7;
}
