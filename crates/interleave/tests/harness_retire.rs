//! Model-check harness 5: transient memory retired through Montage's epoch
//! system — `EpochSys::retire_transient` on the reclamation frontier that
//! frees payloads — is never freed under a reader inside its operation
//! window.
//!
//! The code under test is the real retirement and the real advance; the
//! retired object is a test-local cell, an `AtomicPtr` to a boxed `u64`. A
//! writer opens a window, swaps a fresh box into the cell and retires the
//! old one, while advancer threads tick the clock three times with a
//! one-spin grace window — so an op may be bypassed as a straggler, and the
//! writer may unlink in a later epoch than the one it began in — and a
//! reader loads the cell in its own window once the clock has moved twice.
//!
//! Spawn order: writer, advancers, reader — the order the scenario runs in;
//! the root thread only waits for the second tick and joins. At bound 2
//! this order reaches both seeded bugs below, so no thread has to run as
//! the root to get round the checker's sleep-set gap (DESIGN.md §7.4).
//!
//! Under the checker a freed retirement is poisoned, not deallocated, and
//! the reader asserts, before its window closes, that the box it loaded was
//! not freed. Two seeded bugs must each produce that use-after-free:
//!
//! * `esys.retire.label` — labelling the retirement with the op's epoch
//!   instead of the clock read after the unlink: the straggling writer
//!   began two ticks before the reader registered;
//! * `esys.retire.limit` — freeing through `min(e, oldest)` instead of
//!   `min(e − 2, oldest − 2)`: the reader registered in the epoch the
//!   unlink was labelled with.
//!
//! (One epoch early, `min(e − 1, oldest − 1)`, is not a bug for transient
//! memory: a reader that loaded the pointer registered at or below the
//! post-unlink label, and the frontier already stays below every
//! registered reader. Payload retirements are labelled with the op's epoch
//! and need the second epoch; transient ones share the frontier so there
//! is one reclamation rule.)

use std::sync::Arc;

use interleave::{check, try_check, Config, Mode, Report};
use montage::sync::{spin_loop, thread, AtomicPtr, Ordering};
use montage::{EpochSys, EsysConfig, FreeStrategy, PersistStrategy};
use pmem::{PmemConfig, PmemPool};

fn tiny_esys() -> Arc<EpochSys> {
    let cfg = EsysConfig {
        max_threads: 2,
        persist: PersistStrategy::DirWB,
        free: FreeStrategy::Background,
        epoch_length: std::time::Duration::from_secs(3600),
        advance_grace_spins: 1,
    };
    EpochSys::format(PmemPool::new(PmemConfig::strict_for_test(8 << 20)), cfg)
}

fn retire_body() {
    let sys = tiny_esys();
    let cell = Arc::new(AtomicPtr::new(Box::into_raw(Box::new(1u64))));
    let (writer, reader) = (sys.register_thread(), sys.register_thread());

    // Unlinks the first box and retires it.
    let (s, c) = (sys.clone(), cell.clone());
    let writing = thread::spawn(move || {
        let g = s.begin_op(writer);
        let old = c.swap(Box::into_raw(Box::new(2u64)), Ordering::SeqCst);
        // SAFETY: `old` came from `Box::into_raw`, the swap unlinked it, and
        // only this thread retires it.
        unsafe { s.retire_transient(&g, old) };
    });
    let advance = |n: usize| {
        let s = sys.clone();
        thread::spawn(move || (0..n).for_each(|_| s.advance_epoch()))
    };
    // The reader opens its window two ticks after the writer could have
    // opened its own, and reads while a third tick runs.
    let e0 = sys.curr_epoch();
    advance(1).join().unwrap();
    let advancing = advance(2);
    while sys.curr_epoch() < e0 + 2 {
        spin_loop();
    }
    let (s, c) = (sys.clone(), cell.clone());
    let reading = thread::spawn(move || {
        let _g = s.begin_op(reader);
        let p = c.load(Ordering::SeqCst);
        assert!(!s.debug_freed(p), "box freed under a registered reader");
        // SAFETY: the window keeps `p` allocated (the assertion above checks
        // it; under the checker a freed box is poisoned, not deallocated).
        assert!(matches!(unsafe { *p }, 1 | 2));
    });
    reading.join().unwrap();
    writing.join().unwrap();
    advancing.join().unwrap();
    // SAFETY: every thread has joined; the box in the cell was never retired.
    drop(unsafe { Box::from_raw(cell.load(Ordering::SeqCst)) });
}

/// No stale-value branching: the retirement rule rests on the SeqCst
/// announce/validate and the SeqCst label read, which the model's global
/// SeqCst view decides; `harness_epoch` covers the tracker's release/acquire
/// edges. Branching over stale values too multiplies the executions without
/// reaching a new order.
fn config() -> Config {
    Config {
        stale_budget: 0,
        ..Config::from_env()
    }
}

/// Exhaustive at the configured bound: no schedule frees a box while a
/// reader that loaded it is still inside its window.
#[test]
fn a_retired_box_outlives_every_reader_window() {
    let r: Report = check(config(), retire_body);
    println!("harness_retire: {r:?}");
    assert!(!r.truncated, "exploration must finish: {r:?}");
    assert_eq!(r.limit_pruned, 0, "a schedule hit the step limit: {r:?}");
}

/// The seeded bugs search exhaustively at bound 2 whatever the environment
/// asks, so a sampled tier cannot miss the schedule that exposes them.
fn caught(site: &str) {
    let cfg = Config {
        preemption_bound: 2,
        mode: Mode::Exhaustive,
        ..config()
    };
    let v = try_check(cfg.with_weaken(site), retire_body)
        .expect_err("the seeded bug must produce a use-after-free");
    assert!(
        v.message.contains("freed under a registered reader"),
        "unexpected counterexample: {v}"
    );
}

#[test]
fn labelling_with_the_op_epoch_is_caught() {
    caught("esys.retire.label");
}

#[test]
fn freeing_past_the_frontier_is_caught() {
    caught("esys.retire.limit");
}
