//! Model-check harness 2: the SPMC write-back ring's claim / help / release
//! protocol (`montage::buffers::Ring`) and the claim-census gate the epoch
//! boundary uses to skip the helper scan (`montage::buffers::Buffers`).
//!
//! The code under test is the *real* protocol implementation — the harness
//! only provides tiny configurations (capacity-2 rings, one entry in
//! flight) and asserts the protocol's contracts under every schedule the
//! preemption bound admits:
//!
//! * every pushed entry's write-back is issued at least once, and each
//!   entry is popped by exactly one consumer;
//! * a consumer parked inside its claim window never loses its entry — the
//!   owner's wrap-around push or the boundary helper re-issues the flush;
//! * the boundary's one-load census gate (`claims_open`) never skips the
//!   helper scan while a claim window is open (the fence-soundness note in
//!   `buffers.rs`).
//!
//! A seeded-weakening fixture then downgrades the ring's publish pair
//! (`ring.seq.publish` + `ring.tail.publish`) and asserts the checker
//! produces a counterexample — the CI proof that the checker can actually
//! see the bug those orderings prevent. The pair must be weakened
//! *together*: the ring double-publishes each entry (the slot `seq` and
//! the `tail` bump each carry the full entry), so either Release alone
//! still delivers `off`/`len` — exhaustive exploration confirmed the
//! single-site weakenings are unobservable, which is itself a finding
//! about the protocol's redundancy (see DESIGN.md §7).

use std::sync::Arc;

use interleave::{check, try_check, Config};
use montage::buffers::{Buffers, Ring};
use montage::sync::thread;
use montage::sync::{spin_loop, AtomicU64, Ordering};
use pmem::{POff, PmemConfig, PmemPool};

/// Every pushed entry is flushed and popped exactly once, no matter how a
/// racing consumer, a helping boundary, and the owner's wrap-around push
/// interleave.
#[test]
fn ring_entries_flushed_and_popped_exactly_once() {
    let r = check(Config::from_env(), || {
        let ring = Arc::new(Ring::new(2));
        // flushed[i] counts flush invocations for off=i+1; pops[i] counts
        // successful pops. Instrumented atomics so the checker orders them.
        let flushed = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let pops = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);

        for off in 1..=2u64 {
            let f = flushed.clone();
            ring.push_with(off, 1, move |o, _| {
                f[(o - 1) as usize].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }

        // A racing consumer that may park anywhere inside its claim window.
        let (r2, f2, p2) = (ring.clone(), flushed.clone(), pops.clone());
        let consumer = thread::spawn(move || {
            let f = f2.clone();
            if let Some((o, _)) = r2.pop_with(move |o, _| {
                f[(o - 1) as usize].fetch_add(1, Ordering::Relaxed);
            }) {
                p2[(o - 1) as usize].fetch_add(1, Ordering::Relaxed);
            }
        });

        // The boundary: drain what is left, then help any parked claimant.
        let f3 = flushed.clone();
        while let Some((o, _)) = ring.pop_with({
            let f = f3.clone();
            move |o, _| {
                f[(o - 1) as usize].fetch_add(1, Ordering::Relaxed);
            }
        }) {
            pops[(o - 1) as usize].fetch_add(1, Ordering::Relaxed);
        }
        let f4 = flushed.clone();
        ring.help_claimed(move |o, _| {
            f4[(o - 1) as usize].fetch_add(1, Ordering::Relaxed);
        });

        consumer.join().unwrap();
        for i in 0..2 {
            assert_eq!(
                pops[i].load(Ordering::Relaxed),
                1,
                "entry {} must be popped exactly once",
                i + 1
            );
            assert!(
                flushed[i].load(Ordering::Relaxed) >= 1,
                "entry {} must be flushed at least once",
                i + 1
            );
        }
    });
    assert!(!r.truncated, "exploration must finish: {r:?}");
}

/// The owner's wrap-around push must complete a parked claimant's
/// write-back itself (push never blocks on another thread's progress).
#[test]
fn ring_owner_helps_parked_claimant_on_wraparound() {
    let r = check(Config::from_env(), || {
        let ring = Arc::new(Ring::new(2));
        let flushed = Arc::new(AtomicU64::new(0));

        let f0 = flushed.clone();
        ring.push_with(1, 1, move |_, _| {
            f0.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();

        // Claimant: pops entry 1 and may park inside the claim window.
        let (r2, f2) = (ring.clone(), flushed.clone());
        let claimant = thread::spawn(move || {
            let f = f2.clone();
            r2.pop_with(move |_, _| {
                f.fetch_add(1, Ordering::Relaxed);
            });
        });

        // Owner: fills the ring and wraps into the claimant's slot; the
        // loop inside push_with must finish the stale entry's write-back
        // rather than wait for the parked claimant. A push may transiently
        // report the ring full while the claimant sits between its seq
        // check and its head CAS, so retry — the contract is only that the
        // owner is never stuck forever.
        for off in 2..=3u64 {
            loop {
                let f = flushed.clone();
                if ring
                    .push_with(off, 1, move |_, _| {
                        f.fetch_add(1, Ordering::Relaxed);
                    })
                    .is_ok()
                {
                    break;
                }
                spin_loop();
            }
        }

        claimant.join().unwrap();
        assert!(
            flushed.load(Ordering::Relaxed) >= 1,
            "entry 1's write-back must have been issued by someone"
        );
    });
    assert!(!r.truncated, "exploration must finish: {r:?}");
}

fn tiny_pool() -> PmemPool {
    PmemPool::new(PmemConfig::strict_for_test(1 << 20))
}

/// The boundary's census gate: after `drain + (claims_open? help)`, no slot
/// may remain claimed-but-unreleased with the helper skipped — that is
/// exactly the state whose write-back the fence could not prove issued.
fn census_body() {
    let pool = Arc::new(tiny_pool());
    let bufs = Arc::new(Buffers::new(1, 2));
    bufs.push_persist(&pool, 0, 10, POff::new(64 * 1024), 8, || true);

    // A drainer that may park inside its claim window.
    let (b2, p2) = (bufs.clone(), pool.clone());
    let drainer = thread::spawn(move || {
        b2.drain_persist_upto(&p2, 0, 10);
    });

    // The boundary: drain, then the census-gated helper scan, then the
    // fence-point assertion.
    bufs.drain_persist_upto(&pool, 0, 10);
    let helped = bufs.claims_open();
    if helped {
        bufs.help_drainers(&pool, 0);
    }
    assert!(
        helped || bufs.debug_claimed(0) == 0,
        "fence with a claimed entry and no helper scan: unflushed write-back"
    );

    drainer.join().unwrap();
}

#[test]
fn census_gate_never_skips_open_claim() {
    let r = check(Config::from_env(), census_body);
    assert!(!r.truncated, "exploration must finish: {r:?}");
}

/// A pop must return the value that was pushed (the slot publish carries
/// the entry fields to the consumer).
fn seq_publish_body() {
    let ring = Arc::new(Ring::new(2));
    let r2 = ring.clone();
    let producer = thread::spawn(move || {
        r2.push_with(7, 1, |_, _| {}).unwrap();
    });
    loop {
        if let Some((off, len)) = ring.pop_with(|_, _| {}) {
            assert_eq!((off, len), (7, 1), "pop observed a torn entry");
            break;
        }
        spin_loop();
    }
    producer.join().unwrap();
}

#[test]
fn seq_publish_carries_entry_fields() {
    let r = check(Config::from_env(), seq_publish_body);
    assert!(!r.truncated, "exploration must finish: {r:?}");
}

/// Seeded weakening: with *both* publishes of the pair (`seq` and `tail`)
/// downgraded to Relaxed, nothing carries `off`/`len` to the consumer any
/// more; some schedule pops a stale (torn) entry. Weakening either site
/// alone is provably unobservable — the other Release still delivers the
/// fields — so the fixture weakens the pair, which is also what a real
/// regression (a refactor replacing both with Relaxed stores) looks like.
#[test]
fn weakened_publish_pair_is_caught() {
    let v = try_check(
        Config::from_env().with_weaken("ring.seq.publish,ring.tail.publish"),
        seq_publish_body,
    )
    .expect_err("weakened publish pair must be caught");
    assert!(
        v.message.contains("torn entry"),
        "unexpected counterexample: {v}"
    );
}
