//! The background epoch-advancing thread (paper Sec. 5.2: "a single
//! background thread serves to advance the epoch, … writes back any
//! remaining items in the per-worker-thread buffers at each epoch boundary,
//! and performs all memory reclamation"), that reclamation paced in slices
//! between ticks (DESIGN.md S3, *Paced reclamation*).

use crate::sync::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::esys::EpochSys;

/// A slice's share of the backlog (≈ 8 µs of device time at 160 ns a line,
/// so one slice's write-backs never queue as one burst ahead of a worker's
/// fence), and the shortest gap between slices, bounding their wake-ups.
const SLICE_BLOCKS: usize = 50;
const MIN_SLICE_GAP: Duration = Duration::from_micros(100);

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
        let most_slices = (period.as_micros() / MIN_SLICE_GAP.as_micros()).max(1) as u32;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("montage-advancer".into())
            .spawn(move || {
                // Per shard: the blocks this period's slices tombstoned, and
                // those the last boundary fence covered, freed across this
                // period's slices.
                let (mut paced, mut fenced) =
                    (vec![vec![]; group.len()], vec![vec![]; group.len()]);
                loop {
                    // The period runs from the end of the last tick, extended
                    // by the slices' tombstone passes, as that pass and the
                    // drain its fence waited out extended the boundary.
                    let (rest, mut worked) = (Instant::now(), Duration::ZERO);
                    let backlog: Vec<_> = group.iter().map(|e| e.reclaim_backlog()).collect();
                    let total = backlog.iter().sum::<usize>();
                    let slices = total.div_ceil(SLICE_BLOCKS).min(most_slices as usize) as u32;
                    for k in 1..=slices {
                        if !nap_until(rest + worked + period * k / (slices + 1), &stop2) {
                            break;
                        }
                        // Even shares of what is left: a share the straggler
                        // cap held back is made up by later slices.
                        let to_go = (slices - k + 1) as usize;
                        let shards = group.iter().zip(&mut paced).zip(&mut fenced);
                        for (((esys, paced), fenced), n) in shards.zip(&backlog) {
                            let free = fenced.len().div_ceil(to_go);
                            esys.free_fenced(fenced.drain(fenced.len() - free..));
                            let (left, pass) = (n.saturating_sub(paced.len()), Instant::now());
                            esys.reclaim_slice(left.div_ceil(to_go), paced);
                            worked += pass.elapsed();
                        }
                    }
                    if !nap_until(rest + period + worked, &stop2) {
                        break;
                    }
                    // Issue every shard's boundary fence, then complete
                    // them: the shards' pools drain side by side. That fence
                    // covers the slices' write-backs.
                    let tickets: Vec<_> = group.iter().map(|e| e.advance_issue()).collect();
                    let shards = group.iter().zip(&mut paced).zip(&mut fenced);
                    for (((esys, paced), fenced), ticket) in shards.zip(tickets) {
                        esys.free_fenced(fenced.drain(..));
                        if let Some(ticket) = ticket {
                            esys.advance_complete(ticket);
                        }
                        std::mem::swap(paced, fenced);
                    }
                }
                for ((esys, paced), fenced) in group.iter().zip(paced).zip(fenced) {
                    if !paced.is_empty() {
                        esys.pool().sfence();
                    }
                    esys.free_fenced(paced.into_iter().chain(fenced));
                }
            })
            .expect("spawn advancer");
        Advancer {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops and joins the advancer thread; a panic on it resumes here.
    pub fn stop(mut self) {
        if let Err(panic) = self.shutdown() {
            std::panic::resume_unwind(panic);
        }
    }

    fn shutdown(&mut self) -> std::thread::Result<()> {
        // ord(relaxed): shutdown flag; the join below is the real barrier.
        self.stop.store(true, Ordering::Relaxed);
        self.handle.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for Advancer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Sleeps until `deadline` in pieces of at most 5 ms, so shutdown is prompt
/// with second-scale epochs (Fig. 4/5 go to 5 s); `false` once `stop` is set.
fn nap_until(deadline: Instant, stop: &AtomicBool) -> bool {
    // ord(relaxed): shutdown flag; no data rides this edge.
    while !stop.load(Ordering::Relaxed) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(5)));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsysConfig;
    use crate::sync::uninstrumented::Ordering::Relaxed;
    use pmem::{ChaosConfig, PmemConfig, PmemPool};
    use std::collections::BTreeMap;

    /// (paced, at the boundary) reclamations so far.
    fn reclaimed(esys: &EpochSys) -> (u64, u64) {
        let st = esys.stats();
        let paced = st.reclaimed_paced.load(Relaxed);
        (paced, st.reclaimed_at_boundary.load(Relaxed))
    }

    /// A crash at every persistence event of one script that interleaves
    /// ops, slices and boundaries recovers the state at the end of one
    /// epoch — at or past the last one a healthy boundary declared durable.
    /// Slices of one block leave most of each backlog to the boundary, and
    /// deletes reclaim an old version and, an epoch later, its anti-payload.
    /// A straggler parked across four boundaries is released between two
    /// ticks, so several labels fall due at once to slices that each take
    /// one block, with a fence after each: any fence may land between two
    /// slices, and a slice that took an anti-payload before the version it
    /// cancels would resurrect a deleted key here.
    #[test]
    fn crash_at_every_event_of_a_paced_script_recovers_a_durable_prefix() {
        // Runs the script; returns the states after each op with its epoch,
        // and the last epoch a healthy boundary declared durable.
        let script = |pool: PmemPool| {
            let cfg = EsysConfig {
                advance_grace_spins: 1,
                ..EsysConfig::default()
            };
            let s = EpochSys::format(pool, cfg);
            let (tid, straggler) = (s.register_thread(), s.register_thread());
            let (mut live, mut states) = (BTreeMap::new(), Vec::new());
            let (mut paced, mut acked, mut parked) = (Vec::new(), 0, None);
            for round in 0..18u8 {
                if round == 4 {
                    parked = Some(s.begin_op(straggler));
                }
                for j in 0..3u8 {
                    let key = (round * 3 + j) % 7;
                    let g = s.begin_op(tid);
                    match live.remove(&key) {
                        Some((h, _)) if (round + j) % 3 == 0 => s.pdelete(&g, h).unwrap(),
                        Some((h, _)) => {
                            let h = s.set_bytes(&g, h, |b| b[1] = round).unwrap();
                            live.insert(key, (h, round));
                        }
                        None => {
                            live.insert(key, (s.pnew_bytes(&g, 1, &[key, round]), round));
                        }
                    }
                    let state: BTreeMap<u8, u8> = live.iter().map(|(&k, &(_, v))| (k, v)).collect();
                    states.push((g.epoch(), state));
                    drop(g);
                }
                if round == 12 {
                    drop(parked.take());
                }
                for _ in 0..if round == 12 { 8 } else { 1 } {
                    s.reclaim_slice(1, &mut paced);
                    s.pool().sfence();
                }
                if round % 2 == 1 {
                    let ticket = s.advance_issue().unwrap();
                    s.advance_complete(ticket);
                    s.free_fenced(std::mem::take(&mut paced));
                    if s.pool().check_fault().is_ok() {
                        acked = s.durable_epoch() - 2;
                    }
                }
            }
            drop(parked);
            (s, states, acked)
        };
        let base = PmemConfig::strict_for_test(4 << 20);
        let counting = PmemConfig {
            chaos: ChaosConfig {
                crash_at_event: Some(u64::MAX),
                ..ChaosConfig::default()
            },
            ..base
        };
        let (s, _, _) = script(PmemPool::new(counting));
        let (paced, at_boundary) = reclaimed(&s);
        assert!(
            paced > 0 && at_boundary > 0,
            "{paced} paced, {at_boundary} at boundaries"
        );
        let events = s.pool().persistence_events();
        for at in 0..=events {
            let mut cfg = counting;
            cfg.chaos.crash_at_event = Some(at);
            let (s, states, acked) = script(PmemPool::new(cfg));
            let image = s.pool().crash();
            if !EpochSys::is_formatted(&image) {
                assert_eq!(
                    acked, 0,
                    "crash at event {at}: a durable epoch was lost with the format"
                );
                continue; // the crash cut the format itself
            }
            let rec = crate::recovery::recover(image, EsysConfig::default(), 1);
            let mut got = BTreeMap::new();
            for item in &rec.shards[0] {
                rec.with_bytes(item, |b| got.insert(b[0], b[1]));
            }
            // The state at the end of epoch `e`: after its last op.
            let at_end_of = |e: u64| {
                let done = states.iter().take_while(|(op_epoch, _)| *op_epoch <= e);
                done.last()
                    .map_or_else(BTreeMap::new, |(_, state)| state.clone())
            };
            let last = states.last().unwrap().0;
            assert!(
                (acked..=last).any(|e| at_end_of(e) == got),
                "crash at event {at} of {events}: recovered {got:?}, no epoch from {acked} on ended so"
            );
        }
    }

    /// Deletes-and-recreates `n` payloads per op batch, for `dur`: every
    /// epoch retires old versions and anti-payloads.
    fn churn(esys: &EpochSys, n: usize, dur: Duration) {
        let tid = esys.register_thread();
        let mut live: Vec<_> = {
            let g = esys.begin_op(tid);
            (0..n)
                .map(|i| esys.pnew_bytes(&g, 1, &[i as u8; 48]))
                .collect()
        };
        let end = Instant::now() + dur;
        while Instant::now() < end {
            for h in live.iter_mut() {
                let g = esys.begin_op(tid);
                let _ = esys.pdelete(&g, *h);
                *h = esys.pnew_bytes(&g, 1, &[0; 48]);
            }
        }
        esys.unregister_thread(tid);
    }

    /// With an advancer on a steady script, the slices reclaim nearly
    /// everything between ticks, and every block is freed by the end. A
    /// churn op preempted across a tick holds its epoch's retirements
    /// behind the straggler cap until it ends, and the boundary may take
    /// them then: the period is long enough that a loaded host's
    /// preemptions leave later slices to make that up.
    #[test]
    fn a_steady_script_is_reclaimed_in_slices() {
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(32 << 20)),
            EsysConfig {
                epoch_length: Duration::from_millis(20),
                ..Default::default()
            },
        );
        let adv = Advancer::start(esys.clone());
        churn(&esys, 64, Duration::from_millis(600));
        adv.stop();
        let (paced, at_boundary) = reclaimed(&esys);
        assert!(
            paced >= 9 * (paced + at_boundary) / 10 && paced > 100,
            "{paced} paced, {at_boundary} at boundaries"
        );
        let freed = esys.allocator().stats().deallocs.load(Relaxed);
        assert!(
            freed >= paced + at_boundary,
            "{freed} freed of {paced} + {at_boundary}"
        );
    }

    /// The blocks a slice tombstones are freed only after a fence: none
    /// before the first tick, and an advancer stopped then, with them in
    /// hand, fences and frees every one before its thread exits.
    #[test]
    fn slice_blocks_wait_for_a_fence_and_stopping_frees_them() {
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(32 << 20)),
            EsysConfig {
                epoch_length: Duration::from_millis(500),
                ..Default::default()
            },
        );
        let tid = esys.register_thread();
        let blocks: Vec<_> = {
            let g = esys.begin_op(tid);
            (0..600).map(|_| esys.pnew_bytes(&g, 1, &[1; 48])).collect()
        };
        esys.advance_epoch();
        esys.advance_epoch();
        let g = esys.begin_op(tid);
        blocks
            .into_iter()
            .for_each(|h| esys.pdelete(&g, h).unwrap());
        drop(g);
        esys.advance_epoch();
        esys.advance_epoch();
        // 600 old versions are behind the frontier now: 6 slices' worth.
        let (e, freed) = (
            esys.curr_epoch(),
            esys.allocator().stats().deallocs.load(Relaxed),
        );
        let adv = Advancer::start(esys.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        while reclaimed(&esys).0 == 0 {
            assert!(Instant::now() < deadline, "no slice ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        let unfenced_freed = esys.allocator().stats().deallocs.load(Relaxed) - freed;
        assert_eq!(
            unfenced_freed, 0,
            "a slice's block was freed before a fence"
        );
        adv.stop();
        let (paced, at_boundary) = reclaimed(&esys);
        assert_eq!(
            (esys.curr_epoch(), at_boundary),
            (e, 0),
            "stopped before a tick"
        );
        assert!(paced < 600, "stopped before the last slice");
        let now_freed = esys.allocator().stats().deallocs.load(Relaxed);
        assert_eq!(now_freed - freed, paced, "every paced block is freed");
    }

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
