//! The background epoch-advancing thread (paper Sec. 5.2: "a single
//! background thread serves to advance the epoch, … writes back any
//! remaining items in the per-worker-thread buffers at each epoch boundary,
//! and performs all memory reclamation").

use crate::sync::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::esys::EpochSys;

/// Handle to a running background advancer. Dropping it stops the thread.
pub struct Advancer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Advancer {
    /// Starts an advancer ticking at the system's configured epoch length.
    pub fn start(esys: Arc<EpochSys>) -> Advancer {
        Self::start_group(vec![esys])
    }

    /// Starts one advancer thread ticking a whole *group* of epoch systems
    /// (one per shard of a sharded store). Each shard keeps its own clock,
    /// tracker, and write-back rings: a tick issues every shard's advance,
    /// then completes them, and an advance on shard `i` fences only shard
    /// `i`'s pool — shard clocks drift independently, which is exactly the
    /// point. The one thread ticks at one period, the group's configured
    /// epoch length: every caller formats its shards from one `EsysConfig`,
    /// and the group must agree on it.
    pub fn start_group(group: Vec<Arc<EpochSys>>) -> Advancer {
        assert!(
            !group.is_empty(),
            "advancer needs at least one epoch system"
        );
        let period = group[0].config().epoch_length;
        debug_assert!(
            group.iter().all(|e| e.config().epoch_length == period),
            "one advancer thread, one period: the group's epoch lengths differ"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("montage-advancer".into())
            .spawn(move || {
                // ord(relaxed): shutdown flag; no data rides this edge.
                while !stop2.load(Ordering::Relaxed) {
                    // Sleep in small slices so shutdown is prompt even with
                    // second-scale epochs (Fig. 4/5 sweeps go up to 5 s).
                    let mut remaining = period;
                    let slice = Duration::from_millis(5);
                    // ord(relaxed): shutdown flag.
                    while remaining > Duration::ZERO && !stop2.load(Ordering::Relaxed) {
                        let d = remaining.min(slice);
                        std::thread::sleep(d);
                        remaining = remaining.saturating_sub(d);
                    }
                    // ord(relaxed): shutdown flag.
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    // Issue every shard's boundary fence, then complete
                    // them: the shards' pools drain side by side.
                    let tickets: Vec<_> = group.iter().map(|e| e.advance_issue()).collect();
                    for (esys, ticket) in group.iter().zip(tickets) {
                        if let Some(ticket) = ticket {
                            esys.advance_complete(ticket);
                        }
                    }
                }
            })
            .expect("spawn advancer");
        Advancer {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops and joins the advancer thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // ord(relaxed): shutdown flag; the join below is the real barrier.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Advancer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsysConfig;
    use pmem::{PmemConfig, PmemPool};

    #[test]
    fn advancer_ticks_the_clock() {
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(8 << 20)),
            EsysConfig {
                epoch_length: Duration::from_millis(5),
                ..Default::default()
            },
        );
        let e0 = esys.curr_epoch();
        let adv = Advancer::start(esys.clone());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while esys.curr_epoch() < e0 + 3 {
            assert!(std::time::Instant::now() < deadline, "advancer not ticking");
            std::thread::sleep(Duration::from_millis(2));
        }
        adv.stop();
    }

    #[test]
    fn group_advancer_ticks_every_shard() {
        let cfg = EsysConfig {
            epoch_length: Duration::from_millis(5),
            ..Default::default()
        };
        let group: Vec<_> = (0..3)
            .map(|_| EpochSys::format(PmemPool::new(PmemConfig::strict_for_test(8 << 20)), cfg))
            .collect();
        let starts: Vec<_> = group.iter().map(|e| e.curr_epoch()).collect();
        let adv = Advancer::start_group(group.clone());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while group
            .iter()
            .zip(&starts)
            .any(|(e, &s)| e.curr_epoch() < s + 3)
        {
            assert!(std::time::Instant::now() < deadline, "a shard is stuck");
            std::thread::sleep(Duration::from_millis(2));
        }
        adv.stop();
    }

    /// Shard independence: advancing one shard's epoch must not fence (or
    /// flush) another shard's pool. This is what makes per-shard epoch
    /// clocks a scaling lever — shard A's quiescence wait and boundary
    /// drains never serialize against shard B's.
    #[test]
    fn advancing_one_shard_does_not_fence_another() {
        let cfg = EsysConfig::default();
        let a = EpochSys::format(PmemPool::new(PmemConfig::strict_for_test(8 << 20)), cfg);
        let b = EpochSys::format(PmemPool::new(PmemConfig::strict_for_test(8 << 20)), cfg);

        // Put buffered work on both shards so an advance has lines to drain.
        for esys in [&a, &b] {
            let tid = esys.register_thread();
            let g = esys.begin_op(tid);
            let _ = esys.pnew_bytes(&g, 1, &[0xAB; 256]);
            drop(g);
        }

        let before_a = a.pool().stats().snapshot();
        let before_b = b.pool().stats().snapshot();
        for _ in 0..4 {
            a.advance_epoch();
        }
        let after_a = a.pool().stats().snapshot();
        let after_b = b.pool().stats().snapshot();

        assert!(
            after_a.sfences > before_a.sfences,
            "advancing shard A must fence A's own pool"
        );
        assert_eq!(
            (after_b.sfences, after_b.clwbs, after_b.lines_drained),
            (before_b.sfences, before_b.clwbs, before_b.lines_drained),
            "advancing shard A must not touch shard B's pool"
        );
    }

    #[test]
    fn drop_stops_the_thread() {
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(8 << 20)),
            EsysConfig {
                epoch_length: Duration::from_millis(1),
                ..Default::default()
            },
        );
        {
            let _adv = Advancer::start(esys.clone());
            std::thread::sleep(Duration::from_millis(10));
        }
        let e = esys.curr_epoch();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(esys.curr_epoch(), e, "clock must stop after drop");
    }
}
