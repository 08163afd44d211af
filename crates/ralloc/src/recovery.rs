//! Sweep recovery: visit every block of every carved superblock, keep what
//! the filter accepts, free the rest, and rebuild the transient free state.

use std::sync::Arc;

use pmem::{POff, PmemPool};

use crate::alloc::Ralloc;
use crate::size_class::blocks_per_sb;

/// One shard of sweep survivors, for parallel recovery. Each shard covers a
/// disjoint set of superblocks.
#[derive(Debug, Default)]
pub struct SweepShard {
    /// Offsets of surviving blocks, paired with their usable size.
    pub kept: Vec<(POff, usize)>,
}

impl Ralloc {
    /// Recovers an allocator from a crashed pool.
    ///
    /// `filter(off, usable_size)` must return `true` iff the bytes at `off`
    /// identify a live object (for Montage: a payload whose header magic is
    /// valid and whose epoch is at most the recovery cutoff). Everything else
    /// — never-written slots, freed blocks, torn allocations — is put back on
    /// the free lists.
    ///
    /// Returns the allocator and the survivors.
    pub fn recover<F>(pool: PmemPool, filter: F) -> (Arc<Ralloc>, Vec<(POff, usize)>)
    where
        F: Fn(POff, usize) -> bool + Sync,
    {
        let (r, mut shards) = Self::recover_parallel(pool, 1, filter);
        (r, shards.pop().unwrap().kept)
    }

    /// Parallel variant of [`Ralloc::recover`]: superblocks are distributed
    /// round-robin over `k` worker threads (the paper's "k separate
    /// iterators, to be used by k separate application threads").
    pub fn recover_parallel<F>(
        pool: PmemPool,
        k: usize,
        filter: F,
    ) -> (Arc<Ralloc>, Vec<SweepShard>)
    where
        F: Fn(POff, usize) -> bool + Sync,
    {
        assert!(k >= 1);
        let r = Ralloc::open_unswept(pool);
        let shards = r.sweep_into_shards(k, &filter);
        (r, shards)
    }

    /// The sweep itself, over an open-but-unswept allocator.
    fn sweep_into_shards<F>(self: &Arc<Self>, k: usize, filter: &F) -> Vec<SweepShard>
    where
        F: Fn(POff, usize) -> bool + Sync,
    {
        // A descriptor outside the class range is corrupt (e.g. a torn
        // metadata line); treat the superblock as uncarved rather than
        // indexing the class table with garbage. Its blocks are unreachable
        // until the next format — degraded, but no panic and no phantoms.
        let carved: Vec<(u32, usize)> = (0..self.sb_count)
            .filter_map(|sb| {
                // A probe read: the descriptor is validated (range-checked)
                // before anything trusts it, per the comment above.
                // SAFETY: meta_desc(sb) is an in-bounds metadata word; any bit
                // pattern is a valid u32 and is range-checked before use.
                let d = self
                    .pool
                    .san_probe(|| unsafe { self.pool.read::<u32>(self.meta_desc(sb)) });
                (d != 0 && ((d - 1) as usize) < crate::size_class::NUM_CLASSES)
                    .then(|| (sb, (d - 1) as usize))
            })
            .collect();

        if k == 1 {
            return vec![self.sweep_worker(&carved, filter)];
        }

        let chunks: Vec<Vec<(u32, usize)>> = (0..k)
            .map(|i| carved.iter().copied().skip(i).step_by(k).collect())
            .collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| s.spawn(|| self.sweep_worker(chunk, filter)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn sweep_worker<F>(self: &Arc<Self>, sbs: &[(u32, usize)], filter: &F) -> SweepShard
    where
        F: Fn(POff, usize) -> bool + Sync,
    {
        let mut shard = SweepShard::default();
        let mut kept_slots: Vec<u32> = Vec::new();
        for &(sb, c) in sbs {
            kept_slots.clear();
            let size = crate::size_class::class_size(c);
            for slot in 0..blocks_per_sb(c) {
                let off = self.slot_off(sb, slot, c);
                if filter(off, size) {
                    kept_slots.push(slot);
                    shard.kept.push((off, size));
                }
            }
            self.adopt_swept_sb(sb, c, &kept_slots);
        }
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemConfig, PmemPool};
    use std::collections::HashSet;

    const LIVE_MAGIC: u64 = 0xAB0BA;

    fn mark_live(pool: &PmemPool, off: POff, id: u64) {
        // SAFETY: `off` came from alloc(64), so both words fit inside the
        // block and u64 writes are plain data.
        unsafe {
            pool.write(off, &LIVE_MAGIC);
            pool.write(off.add(8), &id);
        }
        pool.persist_range(off, 16);
    }

    fn strict_pool() -> PmemPool {
        PmemPool::new(PmemConfig::strict_for_test(16 << 20))
    }

    #[test]
    fn sweep_keeps_exactly_marked_blocks() {
        let pool = strict_pool();
        let r = Ralloc::format(pool.clone());
        let mut live = HashSet::new();
        for i in 0..300u64 {
            let off = r.alloc(64);
            if i % 3 == 0 {
                mark_live(&pool, off, i);
                live.insert(off.raw());
            }
        }
        let crashed = pool.crash();
        // SAFETY: the sweep only hands the filter in-bounds block offsets,
        // and any bit pattern is a valid u64.
        let (_r2, kept) = Ralloc::recover(crashed.clone(), |off, _| unsafe {
            crashed.read::<u64>(off) == LIVE_MAGIC
        });
        let kept_set: HashSet<u64> = kept.iter().map(|(o, _)| o.raw()).collect();
        assert_eq!(kept_set, live);
    }

    #[test]
    fn survivors_are_not_handed_out_again() {
        let pool = strict_pool();
        let r = Ralloc::format(pool.clone());
        let off = r.alloc(64);
        mark_live(&pool, off, 1);
        let crashed = pool.crash();
        // SAFETY: see `sweep_keeps_exactly_marked_blocks`.
        let (r2, kept) = Ralloc::recover(crashed.clone(), |o, _| unsafe {
            crashed.read::<u64>(o) == LIVE_MAGIC
        });
        assert_eq!(kept.len(), 1);
        for _ in 0..10_000 {
            assert_ne!(r2.alloc(64).raw(), off.raw(), "live block re-allocated");
        }
    }

    #[test]
    fn freed_slots_are_reusable_after_recovery() {
        let pool = strict_pool();
        let r = Ralloc::format(pool.clone());
        for _ in 0..100 {
            r.alloc(64); // never marked live → garbage after crash
        }
        let carved = r
            .stats()
            .sbs_carved
            .load(std::sync::atomic::Ordering::Relaxed);
        let crashed = pool.crash();
        let (r2, kept) = Ralloc::recover(crashed, |_, _| false);
        assert!(kept.is_empty());
        for _ in 0..100 {
            r2.alloc(64);
        }
        assert!(
            r2.stats()
                .sbs_carved
                .load(std::sync::atomic::Ordering::Relaxed)
                <= carved.max(1),
            "recovered free slots should be reused before carving"
        );
    }

    #[test]
    fn parallel_sweep_equals_serial_sweep() {
        let pool = strict_pool();
        let r = Ralloc::format(pool.clone());
        let mut live = HashSet::new();
        for i in 0..500u64 {
            let size = [24, 100, 700, 3000][i as usize % 4];
            let off = r.alloc(size);
            if i % 2 == 0 {
                mark_live(&pool, off, i);
                live.insert(off.raw());
            }
        }
        let crashed = pool.crash();
        // SAFETY: see `sweep_keeps_exactly_marked_blocks`.
        let (_r2, shards) = Ralloc::recover_parallel(crashed.clone(), 4, |off, _| unsafe {
            crashed.read::<u64>(off) == LIVE_MAGIC
        });
        let mut kept = HashSet::new();
        for shard in &shards {
            for (off, _) in &shard.kept {
                assert!(kept.insert(off.raw()), "block appears in two shards");
            }
        }
        assert_eq!(kept, live);
    }

    #[test]
    fn recover_reports_usable_size_of_class() {
        let pool = strict_pool();
        let r = Ralloc::format(pool.clone());
        let off = r.alloc(1000); // class 1024
        mark_live(&pool, off, 9);
        let crashed = pool.crash();
        // SAFETY: see `sweep_keeps_exactly_marked_blocks`.
        let (_r2, kept) = Ralloc::recover(crashed.clone(), |o, _| unsafe {
            crashed.read::<u64>(o) == LIVE_MAGIC
        });
        assert_eq!(kept, vec![(off, 1024)]);
    }
}
