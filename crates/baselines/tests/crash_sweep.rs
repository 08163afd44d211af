//! Crash-point sweeps over the strictly-durable baselines.
//!
//! These are the paper's competitor systems; sweeping them serves two
//! purposes. First, their *strict* durability gives a sharper invariant
//! than Montage's buffered contract: single-threaded histories must
//! recover to exactly the state after some **operation prefix** (give or
//! take the one operation straddling the crash point). Second, their
//! recovery paths must degrade — `try_recover` returns `None` for an image
//! whose format never became durable, instead of panicking.

use baselines::api::{make_key, BenchMap, BenchQueue};
use baselines::friedman::FriedmanQueue;
use baselines::soft::SoftHashMap;
use pmem::PmemConfig;
use pmem_chaos::{crash_sweep, SweepConfig};
use ralloc::Ralloc;

const POOL: usize = 4 << 20;
const CFG: SweepConfig = SweepConfig {
    // Full workloads run to thousands of events; sample the interior but
    // always hit both boundaries.
    exhaustive_limit: 512,
    samples: 48,
    seed: 0xBA5E_11E5,
};

#[test]
fn friedman_queue_recovers_an_operation_prefix_at_every_crash_point() {
    const ENQS: u32 = 24;
    const DEQS: u32 = 6;
    let report = crash_sweep(
        &CFG,
        PmemConfig::strict_for_test(POOL),
        |pool| {
            let q = FriedmanQueue::new(Ralloc::format(pool.clone()), 2);
            for i in 0..ENQS {
                q.enqueue(0, &i.to_le_bytes());
            }
            for _ in 0..DEQS {
                q.dequeue(1);
            }
        },
        |durable, crash_at| {
            // A crash during formatting legitimately leaves no queue.
            let Some(mut q) = FriedmanQueue::try_recover(durable, 2) else {
                return Ok(());
            };
            let len = q.len();
            // Prefix of a 24-enq/6-deq history: between 8-minus-one (a
            // claimed-but-unmarked head may be recovered as dequeued) and
            // 12 items, never more.
            if len > ENQS as usize {
                return Err(format!("crash_at={crash_at}: phantom items, len={len}"));
            }
            // The transient index must agree with itself: exactly `len`
            // dequeues succeed, then the queue is empty.
            for i in 0..len {
                if !q.dequeue(0) {
                    return Err(format!("index said {len} items but dequeue {i} failed"));
                }
            }
            if q.dequeue(0) {
                return Err("queue yielded more items than len()".into());
            }
            Ok(())
        },
    );
    assert!(
        report.total_events > 200,
        "workload too small to exercise the sweep: {} events",
        report.total_events
    );
    report.assert_ok();
}

#[test]
fn soft_map_recovers_a_contiguous_key_range_at_every_crash_point() {
    const INSERTS: u64 = 28;
    const REMOVES: u64 = 6;
    let report = crash_sweep(
        &CFG,
        PmemConfig::strict_for_test(POOL),
        |pool| {
            let m = SoftHashMap::new(Ralloc::format(pool.clone()), 16);
            for i in 0..INSERTS {
                m.insert(0, make_key(i), format!("value-{i}").as_bytes());
            }
            for i in 0..REMOVES {
                m.remove(0, &make_key(i));
            }
        },
        |durable, crash_at| {
            let Some(m) = SoftHashMap::try_recover(durable, 16) else {
                return Ok(());
            };
            // Single-threaded inserts 0..28 then removes 0..6, each op
            // strictly durable in program order: the recovered key set must
            // be a contiguous range lo..hi with hi <= 28, and lo > 0 only
            // once every insert persisted (removes start after inserts).
            let present: Vec<bool> = (0..INSERTS).map(|i| m.get(0, &make_key(i))).collect();
            let Some(hi) = present.iter().rposition(|&p| p).map(|p| p + 1) else {
                // Crash before any insert became durable: empty map is the
                // (only) legal empty prefix.
                return if m.is_empty() {
                    Ok(())
                } else {
                    Err(format!(
                        "crash_at={crash_at}: phantom keys, len={}",
                        m.len()
                    ))
                };
            };
            let lo = present.iter().position(|&p| p).unwrap();
            if present[lo..hi].iter().any(|&p| !p) {
                return Err(format!(
                    "crash_at={crash_at}: key set has a hole: {present:?}"
                ));
            }
            if lo > 0 && hi != INSERTS as usize {
                return Err(format!(
                    "crash_at={crash_at}: removes visible before all inserts: {present:?}"
                ));
            }
            if lo > REMOVES as usize {
                return Err(format!("crash_at={crash_at}: phantom removes: {present:?}"));
            }
            if m.len() != hi - lo {
                return Err(format!(
                    "len {} disagrees with recovered keys {present:?}",
                    m.len()
                ));
            }
            Ok(())
        },
    );
    assert!(
        report.total_events > 200,
        "workload too small to exercise the sweep: {} events",
        report.total_events
    );
    report.assert_ok();
}
