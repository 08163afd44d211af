//! Model-check harness 3: the hashmap's online resize — seal / drain /
//! retire racing lock-free lookups and a writer (`montage_ds::MontageHashMap`).
//!
//! The code under test is the real map. A one-bucket level with
//! `max_load = 1` makes the second insert install a resize, all in the
//! deterministic single-threaded prefix; the explored race is then a
//! thread walking the old-level/new-level protocol (seal check, chain
//! lock, re-check) — first as a reader, then as a writer helping the
//! migration and inserting a fresh key — against a migrator sealing and
//! draining the only old bucket. The contract: no schedule may lose or
//! duplicate a key — all three are found with their exact bytes,
//! mid-migration or after.
//!
//! Everything the protocol touches is instrumented: the directory pointer,
//! the seal flags, the chain locks and the migration cursor. Freeing the
//! retired directories is `harness_retire`'s subject. See DESIGN.md §7 for
//! the fidelity notes.

use std::sync::Arc;

use interleave::{check, Config, Report};
use montage::sync::thread;
use montage::{EpochSys, EsysConfig, FreeStrategy, PersistStrategy};
use montage_ds::MontageHashMap;
use pmem::{PmemConfig, PmemPool};

fn tiny_esys() -> Arc<EpochSys> {
    let cfg = EsysConfig {
        max_threads: 2,
        persist: PersistStrategy::Buffered(2),
        free: FreeStrategy::Background,
        epoch_length: std::time::Duration::from_secs(3600),
        advance_grace_spins: 1,
    };
    EpochSys::format(PmemPool::new(PmemConfig::strict_for_test(8 << 20)), cfg)
}

/// A racing reader-then-writer never loses a key to the migration, its own
/// insert lands exactly once, and the completed resize leaves every key in
/// the grown level.
#[test]
fn resize_never_loses_a_key_from_racing_lookups() {
    let r: Report = check(Config::from_env(), || {
        let sys = tiny_esys();
        let map = Arc::new(MontageHashMap::with_max_load(sys.clone(), 7, 1, 1));
        let t0 = sys.register_thread();
        let t1 = sys.register_thread();

        // Deterministic prefix: two inserts overload the single bucket and
        // install the resize before any racing thread exists.
        map.put(t0, 1u64, b"a");
        map.put(t0, 2u64, b"b");
        assert!(map.resizing(t0), "max_load=1 must install a resize");

        let m2 = map.clone();
        let racer = thread::spawn(move || {
            assert_eq!(
                m2.get_owned(t1, &1u64).as_deref(),
                Some(&b"a"[..]),
                "key 1 lost mid-migration"
            );
            assert_eq!(
                m2.get_owned(t1, &2u64).as_deref(),
                Some(&b"b"[..]),
                "key 2 lost mid-migration"
            );
            assert!(!m2.put(t1, 3u64, b"c"), "key 3 is fresh");
        });

        map.finish_resize(t0);
        racer.join().unwrap();
        // The racing insert overloads the grown level again: if it landed
        // after the retirement it installed a second resize.
        map.finish_resize(t0);

        assert!(!map.resizing(t0), "finish_resize must retire the old level");
        assert!(
            matches!(map.capacity(t0), 2 | 4),
            "the level must have grown"
        );
        assert_eq!(map.len(), 3);
        assert_eq!(map.get_owned(t0, &1u64).as_deref(), Some(&b"a"[..]));
        assert_eq!(map.get_owned(t0, &2u64).as_deref(), Some(&b"b"[..]));
        assert_eq!(map.get_owned(t0, &3u64).as_deref(), Some(&b"c"[..]));

        // Post-resize update through the grown level: exactly one copy of
        // the key, holding the new bytes.
        assert!(map.put(t0, 1u64, b"A"), "update must find the migrated key");
        assert_eq!(map.len(), 3, "an update must not duplicate the key");
        assert_eq!(map.get_owned(t0, &1u64).as_deref(), Some(&b"A"[..]));
    });
    println!("harness_resize: {r:?}");
    assert!(!r.truncated, "exploration must finish: {r:?}");
    // `finish_resize` yields while a descheduled helper owns the retirement,
    // so no schedule spins to the step limit.
    assert_eq!(r.limit_pruned, 0, "a schedule hit the step limit: {r:?}");
}
