//! Model-check harness 6: the background advancer's paced reclamation —
//! `EpochSys::reclaim_slice`, run between ticks — keeps the boundary's own
//! frontier cap, so a parked straggler's payload is never tombstoned under
//! it.
//!
//! One thread, two thread ids: a straggler opens an operation and parks in
//! it; a worker deletes the payload the straggler can still read (the old
//! version retires in the straggler's epoch, its anti-payload one later);
//! four advances bypass the straggler; then one slice runs with an unbounded
//! budget. The two-epoch schedule alone would reclaim both blocks by now;
//! the cap `oldest_active − 2` keeps them. The straggler then checks that
//! the payload it loaded still carries its live header.
//!
//! The seeded bug `esys.slice.cap` drops that cap from the slice (the
//! boundaries keep theirs) and must be caught. No schedule is explored —
//! the scenario is sequential — the checker run is what arms the seed.

use std::sync::Arc;

use interleave::{check, try_check, Config, Mode};
use montage::payload::{Header, MAGIC_LIVE};
use montage::{EpochSys, EsysConfig};
use pmem::{PmemConfig, PmemPool};

fn slice_body() {
    let cfg = EsysConfig {
        max_threads: 2,
        epoch_length: std::time::Duration::from_secs(3600),
        advance_grace_spins: 1,
        ..EsysConfig::default()
    };
    let sys: Arc<EpochSys> =
        EpochSys::format(PmemPool::new(PmemConfig::strict_for_test(8 << 20)), cfg);
    let (straggler, worker) = (sys.register_thread(), sys.register_thread());
    let h = {
        let g = sys.begin_op(worker);
        sys.pnew_bytes(&g, 1, &[7; 8])
    };
    sys.advance_epoch();
    sys.advance_epoch();

    let parked = sys.begin_op(straggler);
    {
        let g = sys.begin_op(worker);
        sys.pdelete(&g, h).unwrap();
    }
    for _ in 0..4 {
        sys.advance_epoch();
    }
    let mut paced = Vec::new();
    sys.reclaim_slice(usize::MAX, &mut paced);
    assert_eq!(
        Header::magic(sys.pool(), h.raw()),
        MAGIC_LIVE,
        "a slice tombstoned a payload under a parked straggler"
    );
    sys.peek_bytes(&parked, h, |b| assert_eq!(b, [7; 8]))
        .unwrap();
    drop(parked);
}

#[test]
fn a_slice_keeps_the_straggler_cap() {
    let r = check(Config::from_env(), slice_body);
    assert!(!r.truncated, "exploration must finish: {r:?}");
}

#[test]
fn a_slice_without_the_straggler_cap_is_caught() {
    let cfg = Config {
        mode: Mode::Exhaustive,
        ..Config::from_env()
    };
    let v = try_check(cfg.with_weaken("esys.slice.cap"), slice_body)
        .expect_err("the seeded bug must tombstone the straggler's payload");
    assert!(
        v.message.contains("under a parked straggler"),
        "unexpected counterexample: {v}"
    );
}
