//! # ralloc — a Ralloc-style persistent allocator
//!
//! Re-implementation (in spirit) of Ralloc \[Cai et al., ISMM '20\] /
//! LRMalloc \[Leite & Rocha\] on top of the [`pmem`] simulated NVM pool, as
//! required by Montage. Key properties carried over from the original:
//!
//! * **No write-backs or fences on the allocation fast path.** Free lists,
//!   thread caches and partial-superblock stacks are all *transient*
//!   (working-image) state, rebuilt after a crash. The only durable metadata
//!   is the per-superblock size-class descriptor and the superblock
//!   high-water count, each persisted once when a fresh superblock is carved
//!   (amortized over thousands of allocations).
//! * **Segregated size classes** (16 B – 64 KB) carved from 256 KB
//!   superblocks; per-thread caches with batched refill; lock-free global
//!   partial-superblock stacks (tagged Treiber stacks); remote-free lists so
//!   any thread may free any block.
//! * **Sweep recovery.** Montage replaced Ralloc's post-crash GC with a
//!   sweep that "peruses all blocks" and keeps exactly those a filter
//!   accepts. [`Ralloc::recover`] does the same: it visits every slot of
//!   every described superblock, asks the caller's filter whether the block's
//!   contents identify a live object, frees the rest, and returns the
//!   survivors (optionally as `k` disjoint shards for parallel recovery).
//!
//! Blocks are returned as [`pmem::POff`] offsets pointing at the block's
//! user bytes; the allocator stores no per-block header, so the *content* of
//! a block (e.g. the Montage payload header with its magic/epoch tag) is what
//! the recovery filter inspects — exactly the contract Montage relies on.
//!
//! ```
//! use pmem::{PmemConfig, PmemPool};
//! use ralloc::Ralloc;
//!
//! let r = Ralloc::format(PmemPool::new(PmemConfig::default()));
//! let blk = r.alloc(100);
//! assert!(r.usable_size(blk) >= 100);
//! r.dealloc(blk);
//! ```

mod alloc;
mod cache;
mod recovery;
mod size_class;
mod state;

pub use alloc::{Ralloc, RallocStats};
pub use size_class::{class_for_size, class_size, MAX_ALLOC, NUM_CLASSES, SB_SIZE};
