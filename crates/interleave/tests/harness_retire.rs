//! Model-check harness 5: transient memory retired through Montage's epoch
//! system — `EpochSys::retire_transient` on the reclamation frontier that
//! frees payloads — is never freed under a reader inside its operation
//! window.
//!
//! The code under test is the real `MontageHashMap` and the real advance.
//! A one-bucket level with `max_load = 2` makes the prefix's third insert
//! install a resize. Then a writer's insert seals the last old bucket and
//! retires the two-level directory, while advancer threads tick the clock
//! three times with a one-spin grace window — so an op may be bypassed as a
//! straggler, and the writer may unlink in a later epoch than the one it
//! began in — and a reader, the root thread, looks a key up through that
//! directory once the clock has moved twice. (The reader is the root so
//! that the advancer's grace-window yields can hand it the CPU: with the
//! checker's sleep sets, a reader spawned after the writer needs three
//! preemptions to reach the seeded bug below.)
//!
//! Under the checker a freed retirement is poisoned, not deallocated, and
//! the reader asserts, before its window closes, that the directory it read
//! was not freed. Two seeded bugs must each produce that use-after-free:
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

use interleave::{check, try_check, Config, Mode};
use montage::sync::{spin_loop, thread};
use montage::{EpochSys, EsysConfig, FreeStrategy, PersistStrategy};
use montage_ds::MontageHashMap;
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
    let map = Arc::new(MontageHashMap::with_max_load(sys.clone(), 7, 1, 2));
    let (writer, reader) = (sys.register_thread(), sys.register_thread());

    // Deterministic prefix: three keys over one bucket install a resize
    // before any racing thread exists.
    for k in 1..=3u64 {
        map.put(writer, k, b"a");
    }
    assert!(
        map.resizing(writer),
        "three keys over one bucket must resize"
    );

    // Helps the old level's only bucket and retires the two-level directory.
    let m = map.clone();
    let writing = thread::spawn(move || {
        assert!(!m.put(writer, 4u64, b"d"), "key 4 is fresh");
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
    assert_eq!(map.get_owned(reader, &1u64).as_deref(), Some(&b"a"[..]));
    writing.join().unwrap();
    advancing.join().unwrap();
    assert_eq!(map.len(), 4);
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

/// Exhaustive at the configured bound: no schedule frees a directory while
/// a reader that read it is still inside its window.
#[test]
fn a_retired_directory_outlives_every_reader_window() {
    let r = check(config(), retire_body);
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
