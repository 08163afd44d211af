//! # pmem — simulated byte-addressable persistent memory
//!
//! This crate stands in for the Intel Optane DC persistent-memory DIMMs (plus
//! ext4-DAX mapping) used by the Montage paper. It provides:
//!
//! * a [`PmemPool`]: a large region of memory addressed by **offsets**
//!   ([`POff`]) rather than virtual addresses, so "pointers" stored inside the
//!   region remain valid when the region is re-mapped after a crash;
//! * explicit persistence primitives — [`PmemPool::clwb`] (cache-line
//!   write-back) and [`PmemPool::sfence`] (store fence / write-back drain) —
//!   matching the x86 instructions persistent-memory code must issue;
//! * a **crash simulator**: in [`PmemMode::Strict`] the pool keeps a separate
//!   *durable image* that only receives data through `clwb` + `sfence`.
//!   [`PmemPool::crash`] discards everything else, exactly as a power failure
//!   discards the contents of volatile CPU caches;
//! * an **Optane-style latency model** charging configurable costs to flushes
//!   and fences, so that throughput benchmarks built on the simulator show the
//!   same *relative* cost of persistence instructions as real hardware.
//!
//! ## Why this substitution is faithful
//!
//! Montage's contribution is about *where* write-backs and fences are placed
//! (off the application's critical path) and *what* must be persistent at all
//! (only semantic payloads). Both properties are observable on this simulator:
//! the latency model charges every `clwb` where it is issued, starts its
//! drain there, and makes an `sfence` wait for what has not drained yet
//! ([`LatencyModel`]); `Strict` mode loses any line that was never flushed, so the
//! crash-consistency tests exercise real recovery logic rather than trusting
//! the implementation.
//!
//! ## Example
//!
//! ```
//! use pmem::{PmemPool, PmemConfig, PmemMode, POff, CACHE_LINE};
//!
//! let pool = PmemPool::new(PmemConfig { size: 1 << 20, mode: PmemMode::Strict, ..Default::default() });
//! let off = POff::new(4096);
//! unsafe { pool.write(off, &1234u64) };
//! pool.clwb_range(off, 8);
//! pool.sfence();
//! let pool = pool.crash();                 // power failure
//! let v: u64 = unsafe { pool.read(off) };  // survives: it was flushed + fenced
//! assert_eq!(v, 1234);
//! ```

mod config;
mod fault;
mod layout;
mod pool;
#[cfg(feature = "persist-san")]
pub mod san;
mod stats;

pub use config::{ChaosConfig, LatencyModel, PmemConfig, PmemMode};
pub use fault::PmemFault;
pub use layout::{line_of, lines_spanned, POff, CACHE_LINE, ROOT_AREA_SIZE, ROOT_SLOTS};
pub use pool::{FenceTicket, PmemPool};
#[cfg(feature = "persist-san")]
pub use san::{SanClass, SanReport, SanSite, SanViolation, MAX_VIOLATIONS};
pub use stats::{PmemStats, StatsSnapshot};
