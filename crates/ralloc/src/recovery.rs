//! Sweep recovery: visit every block of every carved superblock, keep what
//! the filter accepts, free the rest, and rebuild the transient free state.

use std::sync::Arc;

use pmem::{POff, PmemPool};

use crate::alloc::Ralloc;
use crate::size_class::blocks_per_sb;

impl Ralloc {
    /// Recovers an allocator from a crashed pool.
    ///
    /// `filter(off, usable_size)` must return `true` iff the bytes at `off`
    /// identify a live object (for Montage: a payload whose header magic is
    /// valid and whose epoch is at most the recovery cutoff). Everything else
    /// — never-written slots, freed blocks, torn allocations — is put back on
    /// the free lists.
    ///
    /// Returns the allocator and the survivors, in address order.
    pub fn recover<F>(pool: PmemPool, filter: F) -> (Arc<Ralloc>, Vec<(POff, usize)>)
    where
        F: Fn(POff, usize) -> bool + Sync,
    {
        let keep = |off, usable| filter(off, usable).then_some((off, usable));
        let (r, mut shards) = Self::recover_parallel(pool, 1, keep);
        (r, shards.pop().expect("k = 1 sweeps into one shard"))
    }

    /// The sweep as a filter-map over `k` worker threads, superblocks dealt
    /// round-robin (the paper's "k separate iterators, to be used by k
    /// separate application threads"): a block stays allocated iff
    /// `keep(off, usable_size)` is `Some`, and what it returned — whatever
    /// the caller parsed while the block's lines were hot — lands in the
    /// worker's shard. Each shard is in address order; shards cover disjoint
    /// superblocks.
    pub fn recover_parallel<T, F>(pool: PmemPool, k: usize, keep: F) -> (Arc<Ralloc>, Vec<Vec<T>>)
    where
        T: Send,
        F: Fn(POff, usize) -> Option<T> + Sync,
    {
        assert!(k >= 1);
        let r = Ralloc::open_unswept(pool);
        // A descriptor outside the class range is corrupt (e.g. a torn
        // metadata line); treat the superblock as uncarved rather than
        // indexing the class table with garbage. Its blocks are unreachable
        // until the next format — degraded, but no panic and no phantoms.
        let carved: Vec<(u32, usize)> = (0..r.sb_count)
            .filter_map(|sb| {
                // A probe read: the descriptor is validated (range-checked)
                // before anything trusts it, per the comment above.
                // SAFETY: meta_desc(sb) is an in-bounds metadata word; any bit
                // pattern is a valid u32 and is range-checked before use.
                let d = r
                    .pool
                    .san_probe(|| unsafe { r.pool.read::<u32>(r.meta_desc(sb)) });
                (d != 0 && ((d - 1) as usize) < crate::size_class::NUM_CLASSES)
                    .then(|| (sb, (d - 1) as usize))
            })
            .collect();

        let shards = if k == 1 {
            vec![r.sweep_worker(carved.iter().copied(), &keep)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..k)
                    .map(|i| {
                        let sbs = carved.iter().copied().skip(i).step_by(k);
                        let (r, keep) = (&r, &keep);
                        s.spawn(move || r.sweep_worker(sbs, keep))
                    })
                    .collect();
                // A worker's panic (the caller's closure, or the sanitizer
                // denying one of its reads) resumes here with its own message.
                let join = |h: std::thread::ScopedJoinHandle<'_, Vec<T>>| {
                    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
                };
                handles.into_iter().map(join).collect()
            })
        };
        (r, shards)
    }

    fn sweep_worker<T, F>(&self, sbs: impl Iterator<Item = (u32, usize)>, keep: &F) -> Vec<T>
    where
        F: Fn(POff, usize) -> Option<T>,
    {
        let mut shard = Vec::new();
        let mut kept_slots: Vec<u32> = Vec::new();
        for (sb, c) in sbs {
            kept_slots.clear();
            let size = crate::size_class::class_size(c);
            for slot in 0..blocks_per_sb(c) {
                if let Some(kept) = keep(self.slot_off(sb, slot, c), size) {
                    kept_slots.push(slot);
                    shard.push(kept);
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
        // The sweep hands back what the closure parsed: here, the offset.
        let (_r2, shards) = Ralloc::recover_parallel(crashed.clone(), 4, |off, _| unsafe {
            (crashed.read::<u64>(off) == LIVE_MAGIC).then_some(off.raw())
        });
        let mut kept = HashSet::new();
        for shard in &shards {
            assert!(shard.windows(2).all(|w| w[0] < w[1]), "address order");
            for off in shard {
                assert!(kept.insert(*off), "block appears in two shards");
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
