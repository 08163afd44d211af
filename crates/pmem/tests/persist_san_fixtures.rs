//! Seeded-bug fixtures for the `persist-san` sanitizer: four deliberately
//! broken mini-protocols, one per violation class, each asserted to be
//! detected with the correct class *and* the correct call site — plus the
//! negative space (correct protocols, probe scopes, transient stores) that
//! must stay quiet.

#![cfg(feature = "persist-san")]

use pmem::{POff, PmemConfig, PmemPool, SanClass};

fn pool() -> PmemPool {
    let p = PmemPool::new(PmemConfig::strict_for_test(1 << 20));
    // Fixtures inspect reports; deny mode gets its own dedicated tests.
    p.san_set_deny(false);
    p
}

const FIXTURE_FILE: &str = "persist_san_fixtures.rs";

/// One quiescent epoch boundary. The sanitizer counts a clock value once,
/// so each call reports a fresh one (a shared counter: ticks only have to
/// rise per pool).
#[track_caller]
fn boundary(p: &PmemPool) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TICK: AtomicU64 = AtomicU64::new(1);
    p.san_epoch_boundary(TICK.fetch_add(1, Ordering::Relaxed), true);
}

// ---- fixture 1: missing flush ----------------------------------------------

#[test]
fn missing_flush_is_dirty_at_the_boundary_and_names_the_store() {
    let p = pool();
    let off = POff::new(4096);
    let write_line = line!() + 2;
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &1u64) };
    // Bug: no clwb. The store's epoch ends at the first boundary; the second
    // boundary declares that epoch durable, which is when the check fires.
    boundary(&p);
    let r = p.san_report();
    assert_eq!(
        r.count(SanClass::DirtyAtEpochBoundary),
        0,
        "one boundary later the store may still be legitimately in flight"
    );
    boundary(&p);
    let r = p.san_report();
    assert_eq!(r.count(SanClass::DirtyAtEpochBoundary), 1);
    let v = r.of(SanClass::DirtyAtEpochBoundary).next().unwrap();
    assert!(v.site.file.ends_with(FIXTURE_FILE), "site = {}", v.site);
    assert_eq!(
        v.site.line, write_line,
        "violation names the unflushed store"
    );

    // Reported once per offending store, not once per boundary.
    boundary(&p);
    assert_eq!(p.san_report().count(SanClass::DirtyAtEpochBoundary), 1);
}

#[test]
fn a_tick_is_counted_once_and_a_busy_boundary_does_not_assert() {
    let p = pool();
    // SAFETY: the offset is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(POff::new(4096), &1u64) };
    p.san_epoch_boundary(5, true);
    p.san_epoch_boundary(5, true); // a second advancer over the same tick
    p.san_epoch_boundary(4, true); // and a late one from the tick before
    assert_eq!(p.san_report().count(SanClass::DirtyAtEpochBoundary), 0);
    // A boundary that bypassed a straggler ages the store but asserts nothing.
    p.san_epoch_boundary(6, false);
    assert_eq!(p.san_report().count(SanClass::DirtyAtEpochBoundary), 0);
    p.san_epoch_boundary(7, true);
    assert_eq!(p.san_report().count(SanClass::DirtyAtEpochBoundary), 1);
}

#[test]
fn flushed_in_time_store_is_not_flagged() {
    let p = pool();
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &1u64) };
    boundary(&p);
    // Flushed during the grace epoch — exactly how Montage's buffered
    // write-backs behave — so the declaring boundary finds it clean.
    p.persist_range(off, 8);
    boundary(&p);
    boundary(&p);
    let r = p.san_report();
    assert_eq!(r.count(SanClass::DirtyAtEpochBoundary), 0);
}

#[test]
fn transient_stores_are_exempt_from_the_boundary_check() {
    let p = pool();
    let off = POff::new(8192);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write_transient(off, &7u64) };
    boundary(&p);
    boundary(&p);
    assert_eq!(p.san_report().count(SanClass::DirtyAtEpochBoundary), 0);
}

// ---- fixture 2: double flush -----------------------------------------------

#[test]
// lint: allow(flush-no-fence): the fixture exercises flush tracking only and deliberately never fences
fn double_flush_is_redundant_and_names_both_sites() {
    let p = pool();
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &1u64) };
    let first_line = line!() + 1;
    p.clwb(off);
    let second_line = line!() + 2;
    // Bug: nothing dirtied the line since the flush above.
    p.clwb(off);
    let r = p.san_report();
    assert_eq!(r.count(SanClass::RedundantClwb), 1);
    let v = r.of(SanClass::RedundantClwb).next().unwrap();
    assert!(v.site.file.ends_with(FIXTURE_FILE), "site = {}", v.site);
    assert_eq!(v.site.line, second_line, "the *second* flush is the waste");
    let related = v.related.expect("previous flush site is attached");
    assert_eq!(related.line, first_line);

    // The per-site audit counter sees it too.
    let (site, n) = r.redundant_by_site[0];
    assert_eq!(site.line, second_line);
    assert_eq!(n, 1);
}

#[test]
// lint: allow(flush-no-fence): the fixture exercises flush tracking only and deliberately never fences
fn rewrite_between_flushes_is_not_redundant() {
    let p = pool();
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &1u64) };
    p.clwb(off);
    // SAFETY: as above.
    unsafe { p.write(off, &2u64) }; // re-dirtied: the second flush is earned
    p.clwb(off);
    assert_eq!(p.san_report().count(SanClass::RedundantClwb), 0);
}

// ---- fixture 3: empty fence ------------------------------------------------

#[test]
fn empty_fence_is_flagged_with_its_site() {
    let p = pool();
    let fence_line = line!() + 2;
    // Bug: nothing was clwb'd since the last drain — pure ordering overhead.
    p.sfence();
    let r = p.san_report();
    assert_eq!(r.count(SanClass::EmptySfence), 1);
    let v = r.of(SanClass::EmptySfence).next().unwrap();
    assert!(v.site.file.ends_with(FIXTURE_FILE), "site = {}", v.site);
    assert_eq!(v.site.line, fence_line);
}

#[test]
fn fence_with_pending_writeback_is_not_empty() {
    let p = pool();
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &1u64) };
    p.clwb(off);
    p.sfence();
    assert_eq!(p.san_report().count(SanClass::EmptySfence), 0);
}

// ---- fixture 4: recovery-time dirty read -----------------------------------

#[test]
fn recovery_read_of_never_durable_line_is_flagged_at_the_read() {
    let p = pool();
    let off = POff::new(4096);
    let write_line = line!() + 2;
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &0xBADu64) };
    // Bug: the store never reached a fence, yet recovery consumes the line.
    let p2 = p.crash();
    p2.san_begin_recovery();
    let read_line = line!() + 2;
    // SAFETY: `off` is 8-aligned and in bounds; u64 is valid for any bytes.
    let _garbage: u64 = unsafe { p2.read(off) };
    p2.san_end_recovery();
    let r = p2.san_report();
    assert_eq!(r.count(SanClass::RecoveryDirtyRead), 1);
    let v = r.of(SanClass::RecoveryDirtyRead).next().unwrap();
    assert!(v.site.file.ends_with(FIXTURE_FILE), "site = {}", v.site);
    assert_eq!(v.site.line, read_line, "violation names the reading site");
    let related = v.related.expect("the never-durable store is attached");
    assert_eq!(related.line, write_line);
}

#[test]
fn recovery_read_of_durable_line_is_clean() {
    let p = pool();
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &42u64) };
    p.persist_range(off, 8);
    // SAFETY: as above — a second, *unpersisted* version of the same line.
    unsafe { p.write(off, &43u64) };
    let p2 = p.crash();
    p2.san_begin_recovery();
    // Reading the previous durable version is buffered-durability prefix
    // semantics, not a bug: the line HAS a committed version to fall back to.
    // SAFETY: `off` is 8-aligned and in bounds; u64 is valid for any bytes.
    let v: u64 = unsafe { p2.read(off) };
    p2.san_end_recovery();
    assert_eq!(v, 42);
    assert_eq!(p2.san_report().count(SanClass::RecoveryDirtyRead), 0);
}

#[test]
fn probe_scope_exempts_validating_reads() {
    let p = pool();
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &0xBADu64) };
    let p2 = p.crash();
    p2.san_begin_recovery();
    // A sweep probe that validates before trusting may read anything.
    // SAFETY: `off` is 8-aligned and in bounds; u64 is valid for any bytes.
    let _probed: u64 = p2.san_probe(|| unsafe { p2.read(off) });
    p2.san_end_recovery();
    assert_eq!(p2.san_report().count(SanClass::RecoveryDirtyRead), 0);
}

#[test]
fn reads_outside_a_recovery_window_are_never_checked() {
    let p = pool();
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &0xBADu64) };
    let p2 = p.crash();
    // Post-crash reads by *tests* (asserting what was lost) are not recovery.
    // SAFETY: `off` is 8-aligned and in bounds; u64 is valid for any bytes.
    assert_eq!(unsafe { p2.read::<u64>(off) }, 0);
    assert_eq!(p2.san_report().count(SanClass::RecoveryDirtyRead), 0);
}

// ---- deny mode ---------------------------------------------------------------

#[test]
fn deny_mode_panics_on_missing_flush_naming_the_store() {
    let p = PmemPool::new(PmemConfig::strict_for_test(1 << 20)); // deny is on
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &1u64) };
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        boundary(&p);
        boundary(&p);
    }))
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("persist-san"), "msg = {msg}");
    assert!(msg.contains("never flushed"), "msg = {msg}");
    assert!(
        msg.contains(FIXTURE_FILE),
        "msg names the store site: {msg}"
    );
}

#[test]
fn deny_mode_panics_on_recovery_dirty_read() {
    let p = PmemPool::new(PmemConfig::strict_for_test(1 << 20)); // deny is on
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &1u64) };
    let p2 = p.crash(); // deny carries over to the restarted pool
    p2.san_begin_recovery();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // SAFETY: `off` is 8-aligned and in bounds; u64 is valid bytes.
        let _: u64 = unsafe { p2.read(off) };
    }))
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("recovery-time read"), "msg = {msg}");
    assert!(msg.contains(FIXTURE_FILE), "msg names the read site: {msg}");
}

#[test]
fn deny_mode_never_panics_on_cost_classes() {
    let p = PmemPool::new(PmemConfig::strict_for_test(1 << 20)); // deny is on
    let off = POff::new(4096);
    // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
    unsafe { p.write(off, &1u64) };
    p.clwb(off);
    p.clwb(off); // redundant
    p.sfence();
    p.sfence(); // empty
    let r = p.san_report();
    assert_eq!(r.count(SanClass::RedundantClwb), 1);
    assert_eq!(r.count(SanClass::EmptySfence), 1);
    assert!(r.correctness_clean());
}

// ---- a fully correct protocol stays silent ----------------------------------

#[test]
fn correct_write_flush_fence_cycle_reports_nothing() {
    let p = pool();
    for i in 0..32u64 {
        let off = POff::new(4096 + i * 64);
        // SAFETY: `off` is 8-aligned, in bounds, and the pool is not shared.
        unsafe { p.write(off, &i) };
        p.clwb(off);
        if i % 4 == 3 {
            p.sfence();
            boundary(&p);
        }
    }
    boundary(&p);
    boundary(&p);
    let r = p.san_report();
    assert_eq!(r.count(SanClass::DirtyAtEpochBoundary), 0);
    assert_eq!(r.count(SanClass::RedundantClwb), 0);
    assert_eq!(r.count(SanClass::EmptySfence), 0);
    assert!(r.correctness_clean());
}
