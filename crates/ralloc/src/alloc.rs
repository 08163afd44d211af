//! The allocator proper.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem::{POff, PmemPool, CACHE_LINE, ROOT_AREA_SIZE};

use crate::cache::{batch_for_class, cap_for_class, with_cache};
use crate::size_class::{blocks_per_sb, class_for_size, class_size, NUM_CLASSES, SB_SIZE};
use crate::state::{pack, unpack, SbStack, SbState, NO_SB, NO_SLOT};

const MAGIC: u64 = 0x52_41_4C_4C_4F_43_31_30; // "RALLOC10"

/// Persistent metadata layout, starting right after the root area:
/// `magic:u64, sb_count:u64, next_sb:u64, desc[sb_count]:u32`.
/// `desc[i] == 0` means superblock `i` was never carved; otherwise it holds
/// `size_class + 1`.
struct Meta {
    base: u64,
}

impl Meta {
    const MAGIC_OFF: u64 = 0;
    const SB_COUNT_OFF: u64 = 8;
    const NEXT_SB_OFF: u64 = 16;
    const DESC_OFF: u64 = 24;

    fn magic(&self) -> POff {
        POff::new(self.base + Self::MAGIC_OFF)
    }
    fn sb_count(&self) -> POff {
        POff::new(self.base + Self::SB_COUNT_OFF)
    }
    fn next_sb(&self) -> POff {
        POff::new(self.base + Self::NEXT_SB_OFF)
    }
    fn desc(&self, sb: u32) -> POff {
        POff::new(self.base + Self::DESC_OFF + 4 * sb as u64)
    }
}

/// Allocation statistics (transient, relaxed counters).
#[derive(Debug, Default)]
pub struct RallocStats {
    pub allocs: AtomicU64,
    pub deallocs: AtomicU64,
    pub sbs_carved: AtomicU64,
}

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// The persistent allocator. Cheap to share via `Arc`.
pub struct Ralloc {
    pub(crate) pool: PmemPool,
    pub(crate) instance: u64,
    meta: Meta,
    pub(crate) sb_count: u32,
    pub(crate) heap_base: u64,
    pub(crate) sbs: Box<[SbState]>,
    partial: Box<[SbStack]>, // one per size class
    stats: RallocStats,
}

impl Ralloc {
    /// Formats a fresh pool and returns a ready allocator.
    pub fn format(pool: PmemPool) -> Arc<Ralloc> {
        let (sb_count, heap_base) = Self::geometry(pool.size());
        let meta = Meta {
            base: ROOT_AREA_SIZE as u64,
        };
        // SAFETY: the header words sit just past the root area, in bounds
        // for any pool that passed `geometry`; formatting is single-threaded.
        unsafe {
            pool.write(meta.sb_count(), &(sb_count as u64));
            pool.write(meta.next_sb(), &0u64);
            pool.write(meta.magic(), &MAGIC);
        }
        // Persist the header (descriptor array is zero in a fresh pool and
        // zero means "unused", so it needs no flush).
        pool.persist_range(POff::new(meta.base), 24);
        Arc::new(Self::build(pool, sb_count, heap_base))
    }

    /// Whether `pool` carries a ralloc format header. Recovery code checks
    /// this before [`Ralloc::open_unswept`] (which panics on garbage) so an
    /// unformatted or early-crash pool degrades to an error, not an abort.
    pub fn is_formatted(pool: &PmemPool) -> bool {
        let meta = Meta {
            base: ROOT_AREA_SIZE as u64,
        };
        // SAFETY: in-bounds header word; any bit pattern is a valid u64.
        unsafe { pool.read::<u64>(meta.magic()) == MAGIC }
    }

    /// Opens a previously formatted pool **without** sweeping (blocks are
    /// considered unreachable until [`Ralloc::recover`] is used instead).
    /// Exposed for tests; Montage always goes through `recover`.
    pub fn open_unswept(pool: PmemPool) -> Arc<Ralloc> {
        let (sb_count, heap_base) = Self::geometry(pool.size());
        let meta = Meta {
            base: ROOT_AREA_SIZE as u64,
        };
        // SAFETY: in-bounds header word; any bit pattern is a valid u64.
        let magic = unsafe { pool.read::<u64>(meta.magic()) };
        assert_eq!(magic, MAGIC, "pool is not ralloc-formatted");
        Arc::new(Self::build(pool, sb_count, heap_base))
    }

    fn geometry(pool_size: usize) -> (u32, u64) {
        // Solve for the largest sb_count such that the descriptor array and
        // the superblocks both fit.
        let avail = pool_size as u64 - ROOT_AREA_SIZE as u64;
        let mut sb_count = (avail / SB_SIZE as u64) as u32;
        loop {
            let heap_base = align_up(
                ROOT_AREA_SIZE as u64 + Meta::DESC_OFF + 4 * sb_count as u64,
                4096,
            );
            if heap_base + sb_count as u64 * SB_SIZE as u64 <= pool_size as u64 {
                assert!(sb_count > 0, "pool too small for one superblock");
                return (sb_count, heap_base);
            }
            sb_count -= 1;
        }
    }

    fn build(pool: PmemPool, sb_count: u32, heap_base: u64) -> Ralloc {
        Ralloc {
            pool,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            meta: Meta {
                base: ROOT_AREA_SIZE as u64,
            },
            sb_count,
            heap_base,
            sbs: (0..sb_count).map(|_| SbState::new()).collect(),
            partial: (0..NUM_CLASSES).map(|_| SbStack::new()).collect(),
            stats: RallocStats::default(),
        }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &RallocStats {
        &self.stats
    }

    /// Number of bytes usable at a block returned for `size`.
    pub fn usable_size(&self, off: POff) -> usize {
        let (sb, _) = self.locate(off);
        class_size(self.class_of_sb(sb))
    }

    // ---- geometry helpers ---------------------------------------------------

    #[inline]
    pub(crate) fn sb_base(&self, sb: u32) -> u64 {
        self.heap_base + sb as u64 * SB_SIZE as u64
    }

    #[inline]
    pub(crate) fn slot_off(&self, sb: u32, slot: u32, class: usize) -> POff {
        POff::new(self.sb_base(sb) + slot as u64 * class_size(class) as u64)
    }

    /// Maps a block offset back to (superblock, slot).
    #[inline]
    pub(crate) fn locate(&self, off: POff) -> (u32, u32) {
        let rel = off.raw() - self.heap_base;
        let sb = (rel / SB_SIZE as u64) as u32;
        debug_assert!(sb < self.sb_count, "offset outside heap");
        let class = self.class_of_sb(sb);
        let slot = ((rel % SB_SIZE as u64) / class_size(class) as u64) as u32;
        (sb, slot)
    }

    #[inline]
    pub(crate) fn class_of_sb(&self, sb: u32) -> usize {
        // SAFETY: `sb < sb_count`, so the descriptor word is in bounds; a
        // carved descriptor is written once and then only read.
        let d = unsafe { self.pool.read::<u32>(self.meta.desc(sb)) };
        debug_assert!(d != 0, "superblock {sb} not carved");
        (d - 1) as usize
    }

    // ---- allocation ---------------------------------------------------------

    /// Allocates `size` bytes; returns the block's offset. The block's
    /// contents are whatever the line last held (callers write their own
    /// headers) — exactly like `malloc`.
    pub fn alloc(&self, size: usize) -> POff {
        self.try_alloc(size).expect("pool out of memory")
    }

    /// Like [`Ralloc::alloc`], but returns `None` instead of panicking when
    /// the heap has no block to give (every superblock carved and full).
    fn try_alloc(&self, size: usize) -> Option<POff> {
        let c = class_for_size(size);
        self.stats.allocs.fetch_add(1, Ordering::Relaxed);
        with_cache(self.instance, |cache| {
            if let Some(off) = cache.bins[c].pop() {
                return Some(off);
            }
            self.refill(c, &mut cache.bins[c]);
            cache.bins[c].pop()
        })
    }

    /// Frees the block at `off`.
    pub fn dealloc(&self, off: POff) {
        self.stats.deallocs.fetch_add(1, Ordering::Relaxed);
        let (sb, _) = self.locate(off);
        let c = self.class_of_sb(sb);
        with_cache(self.instance, |cache| {
            let bin = &mut cache.bins[c];
            bin.push(off);
            if bin.len() > cap_for_class(c) {
                // Spill the older half back to their superblocks.
                let spill = bin.len() / 2;
                for off in bin.drain(..spill).collect::<Vec<_>>() {
                    self.remote_free(off);
                }
            }
        })
    }

    /// Frees a block directly to its superblock, bypassing the thread cache.
    fn remote_free(&self, off: POff) {
        let (sb, slot) = self.locate(off);
        let st = &self.sbs[sb as usize];
        // Push onto the superblock's lock-free remote list, linking through
        // the block's first four (transient) bytes.
        let mut head = st.remote_head.load(Ordering::Acquire);
        loop {
            let (tag, top) = unpack(head);
            // Free-list links are transient by design: recovery rebuilds the
            // free lists from the sweep, never from these words.
            // SAFETY: `off` is a freed block this caller owns; the remote-head
            // CAS below publishes the link before anyone follows it.
            unsafe { self.pool.write_transient::<u32>(off, &top) };
            match st.remote_head.compare_exchange_weak(
                head,
                pack(tag.wrapping_add(1), slot),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        self.make_available(sb);
    }

    /// Ensures `sb` is reachable from its class's partial stack.
    fn make_available(&self, sb: u32) {
        let st = &self.sbs[sb as usize];
        if !st.in_stack.load(Ordering::Acquire)
            && st
                .in_stack
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            let c = self.class_of_sb(sb);
            self.partial[c].push(sb, &self.sbs);
        }
    }

    /// Refills `bin` with up to one batch of class-`c` blocks.
    fn refill(&self, c: usize, bin: &mut Vec<pmem::POff>) {
        let batch = batch_for_class(c);
        loop {
            let sb = match self.partial[c].pop(&self.sbs) {
                Some(sb) => sb,
                None => self.carve(c),
            };
            let st = &self.sbs[sb as usize];
            self.drain_remote(sb, c);

            // Owner-exclusive harvesting: local free list first, then bump.
            let cap = blocks_per_sb(c);
            while bin.len() < batch {
                let head = st.free_head.load(Ordering::Relaxed);
                if head != NO_SLOT {
                    // SAFETY: the superblock was popped from the partial stack,
                    // so this thread owns its local free list exclusively.
                    let next = unsafe { self.pool.read::<u32>(self.slot_off(sb, head, c)) };
                    st.free_head.store(next, Ordering::Relaxed);
                    st.local_free.fetch_sub(1, Ordering::Relaxed);
                    bin.push(self.slot_off(sb, head, c));
                    continue;
                }
                let b = st.bump.load(Ordering::Relaxed);
                if b < cap {
                    st.bump.store(b + 1, Ordering::Relaxed);
                    st.local_free.fetch_sub(1, Ordering::Relaxed);
                    bin.push(self.slot_off(sb, b, c));
                    continue;
                }
                break;
            }

            let has_more = st.free_head.load(Ordering::Relaxed) != NO_SLOT
                || st.bump.load(Ordering::Relaxed) < cap;
            if has_more {
                // Still has blocks: keep `in_stack` set and put it back.
                self.partial[c].push(sb, &self.sbs);
            } else {
                st.in_stack.store(false, Ordering::Release);
                // A remote free may have landed after our drain but before
                // the flag cleared; don't strand it.
                let (_, top) = unpack(st.remote_head.load(Ordering::Acquire));
                if top != NO_SLOT {
                    self.make_available(sb);
                }
            }

            if !bin.is_empty() {
                return;
            }
            // The popped superblock had been fully drained by remote-free
            // races; try again.
        }
    }

    /// Moves all remote-freed slots of `sb` onto its local free list.
    fn drain_remote(&self, sb: u32, c: usize) {
        let st = &self.sbs[sb as usize];
        let mut head = st.remote_head.load(Ordering::Acquire);
        let taken = loop {
            let (tag, top) = unpack(head);
            if top == NO_SLOT {
                return;
            }
            match st.remote_head.compare_exchange_weak(
                head,
                pack(tag.wrapping_add(1), NO_SLOT),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break top,
                Err(h) => head = h,
            }
        };
        // Walk the detached list, prepending to the local free list.
        let mut slot = taken;
        let mut n = 0u32;
        while slot != NO_SLOT {
            // SAFETY: the CAS above detached this list, so the walker owns
            // every slot on it; links live in the blocks' first bytes.
            let next = unsafe { self.pool.read::<u32>(self.slot_off(sb, slot, c)) };
            let lf = st.free_head.load(Ordering::Relaxed);
            // Transient by design, as in `remote_free`.
            // SAFETY: see above — detached-list slots are owner-exclusive.
            unsafe {
                self.pool
                    .write_transient::<u32>(self.slot_off(sb, slot, c), &lf)
            };
            st.free_head.store(slot, Ordering::Relaxed);
            n += 1;
            slot = next;
        }
        st.local_free.fetch_add(n, Ordering::Relaxed);
    }

    /// Carves a fresh superblock for class `c`. This is the only allocator
    /// path that issues persistence instructions (one flush+fence per 256 KB
    /// of heap growth — amortized to nothing).
    fn carve(&self, c: usize) -> u32 {
        // SAFETY: the next_sb header word is reserved, 8-aligned, and only
        // accessed through this atomic view after format.
        let next_sb = unsafe { self.pool.atomic_u64(self.meta.next_sb()) };
        let sb = next_sb.fetch_add(1, Ordering::AcqRel);
        assert!(
            sb < self.sb_count as u64,
            "ralloc: out of persistent memory ({} superblocks)",
            self.sb_count
        );
        let sb = sb as u32;
        // SAFETY: the fetch_add above reserved descriptor `sb` for this
        // thread exclusively; the word is in bounds (sb < sb_count).
        unsafe { self.pool.write::<u32>(self.meta.desc(sb), &(c as u32 + 1)) };
        // The bump above went through an atomic the sanitizer cannot see.
        self.pool
            .san_mark_dirty(self.meta.next_sb(), std::mem::size_of::<u64>());
        self.pool.clwb(self.meta.desc(sb));
        self.pool.clwb(self.meta.next_sb());
        self.pool.sfence();
        self.stats.sbs_carved.fetch_add(1, Ordering::Relaxed);

        let st = &self.sbs[sb as usize];
        st.free_head.store(NO_SLOT, Ordering::Relaxed);
        st.bump.store(0, Ordering::Relaxed);
        st.local_free.store(blocks_per_sb(c), Ordering::Relaxed);
        st.in_stack.store(true, Ordering::Release); // owned by the carver
        sb
    }

    // ---- recovery support (see recovery.rs) --------------------------------

    pub(crate) fn meta_desc(&self, sb: u32) -> POff {
        self.meta.desc(sb)
    }

    /// Rebuilds the transient free state of `sb` given the slots that
    /// survived the sweep. Used only during recovery (exclusive access).
    pub(crate) fn adopt_swept_sb(&self, sb: u32, c: usize, kept: &[u32]) {
        let st = &self.sbs[sb as usize];
        let cap = blocks_per_sb(c);
        let mut keep_mask = vec![false; cap as usize];
        for &s in kept {
            keep_mask[s as usize] = true;
        }
        let mut head = NO_SLOT;
        let mut free = 0u32;
        for slot in (0..cap).rev() {
            if !keep_mask[slot as usize] {
                // Transient by design, as in `remote_free`.
                // SAFETY: recovery runs single-threaded, and the slot was not
                // kept by the sweep, so nothing references it.
                unsafe {
                    self.pool
                        .write_transient::<u32>(self.slot_off(sb, slot, c), &head)
                };
                head = slot;
                free += 1;
            }
        }
        st.free_head.store(head, Ordering::Relaxed);
        st.bump.store(cap, Ordering::Relaxed);
        st.local_free.store(free, Ordering::Relaxed);
        st.stack_link.store(NO_SB, Ordering::Relaxed);
        if free > 0 {
            st.in_stack.store(true, Ordering::Relaxed);
            self.partial[c].push(sb, &self.sbs);
        } else {
            st.in_stack.store(false, Ordering::Relaxed);
        }
    }
}

#[inline]
fn align_up(v: u64, a: u64) -> u64 {
    (v + a - 1) & !(a - 1)
}

// Keep CACHE_LINE referenced so the import stays meaningful if layout changes.
const _: () = assert!(CACHE_LINE == 64);

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemConfig;
    use std::collections::HashSet;

    fn small_pool() -> PmemPool {
        PmemPool::new(PmemConfig {
            size: 16 << 20,
            ..Default::default()
        })
    }

    #[test]
    fn alloc_returns_distinct_in_bounds_blocks() {
        let r = Ralloc::format(small_pool());
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let off = r.alloc(100);
            assert!(off.raw() >= r.heap_base);
            assert!((off.raw() as usize) < r.pool.size());
            assert!(seen.insert(off.raw()), "duplicate block");
        }
    }

    #[test]
    fn usable_size_covers_request() {
        let r = Ralloc::format(small_pool());
        for size in [1usize, 16, 17, 100, 1024, 4096, 65536] {
            let off = r.alloc(size);
            assert!(r.usable_size(off) >= size);
        }
    }

    #[test]
    fn dealloc_then_alloc_reuses_memory() {
        let r = Ralloc::format(small_pool());
        let mut offs = vec![];
        for _ in 0..500 {
            offs.push(r.alloc(64));
        }
        for off in offs.drain(..) {
            r.dealloc(off);
        }
        let carved_before = r.stats().sbs_carved.load(Ordering::Relaxed);
        for _ in 0..500 {
            r.alloc(64);
        }
        let carved_after = r.stats().sbs_carved.load(Ordering::Relaxed);
        assert_eq!(
            carved_before, carved_after,
            "reuse should not carve new superblocks"
        );
    }

    #[test]
    fn blocks_do_not_overlap_within_class_mix() {
        let r = Ralloc::format(small_pool());
        let mut ranges: Vec<(u64, u64)> = vec![];
        for (i, size) in [24usize, 100, 1000, 4000]
            .iter()
            .cycle()
            .take(400)
            .enumerate()
        {
            let off = r.alloc(*size);
            let len = r.usable_size(off) as u64;
            for &(s, e) in &ranges {
                assert!(
                    off.raw() >= e || off.raw() + len <= s,
                    "overlap at iteration {i}"
                );
            }
            ranges.push((off.raw(), off.raw() + len));
        }
    }

    #[test]
    fn allocation_fast_path_is_flush_free() {
        let r = Ralloc::format(small_pool());
        // Warm up: carve superblocks.
        let mut offs: Vec<_> = (0..64).map(|_| r.alloc(128)).collect();
        let before = r.pool.stats().snapshot();
        for _ in 0..32 {
            offs.push(r.alloc(128));
            r.dealloc(offs.remove(0));
        }
        let after = r.pool.stats().snapshot();
        assert_eq!(
            before, after,
            "steady-state alloc/free must not flush or fence"
        );
    }

    #[test]
    fn cross_thread_free_is_safe_and_reusable() {
        let r = Ralloc::format(small_pool());
        let offs: Vec<POff> = (0..256).map(|_| r.alloc(256)).collect();
        let r2 = r.clone();
        std::thread::spawn(move || {
            for off in offs {
                r2.remote_free(off);
            }
        })
        .join()
        .unwrap();
        // Allocations on this thread can now reuse those blocks.
        let carved_before = r.stats().sbs_carved.load(Ordering::Relaxed);
        let mut seen = HashSet::new();
        for _ in 0..256 {
            assert!(seen.insert(r.alloc(256).raw()));
        }
        assert_eq!(carved_before, r.stats().sbs_carved.load(Ordering::Relaxed));
    }

    #[test]
    fn concurrent_alloc_free_stress() {
        let r = Ralloc::format(PmemPool::new(PmemConfig {
            size: 64 << 20,
            ..Default::default()
        }));
        let mut handles = vec![];
        for t in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let mut live = vec![];
                for i in 0..3000usize {
                    let size = 16 + ((i * 37 + t * 101) % 2000);
                    live.push(r.alloc(size));
                    if i % 3 == 0 {
                        let victim = live.swap_remove((i * 7) % live.len());
                        r.dealloc(victim);
                    }
                }
                live
            }));
        }
        let mut all: Vec<POff> = vec![];
        for h in handles {
            all.extend(h.join().unwrap());
        }
        // No two live blocks may share a slot.
        let mut seen = HashSet::new();
        for off in all {
            assert!(
                seen.insert(off.raw()),
                "duplicate live block across threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of persistent memory")]
    fn exhaustion_panics() {
        let r = Ralloc::format(PmemPool::new(PmemConfig {
            size: 2 << 20, // room for very few superblocks
            ..Default::default()
        }));
        for _ in 0..100_000 {
            r.alloc(65536);
        }
    }
}
