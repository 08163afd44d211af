//! The online-resize acceptance run, at integration level: 8 concurrent
//! writers drive a deliberately tiny `MontageHashMap` through multiple full
//! resizes while readers race the level migrations, then the synced image
//! is crashed and recovered — with the requirement that not a single op
//! fails, not a single key is lost live, and every key survives recovery.
//!
//! (The unit-level twin lives in `crates/montage-ds/src/hashmap.rs`; this
//! test adds the concurrent readers and the full crash/recover round trip.)

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use montage::{EpochSys, EsysConfig};
use montage_ds::MontageHashMap;
use pmem::{PmemConfig, PmemPool};

type Key = [u8; 32];

const MTAG: u16 = 3;
const WRITERS: usize = 8;
const KEYS_PER_WRITER: u64 = 250;
const NBUCKETS: usize = 8;
const MAX_LOAD: usize = 2;

fn key(w: usize, i: u64) -> Key {
    let mut k = [0u8; 32];
    k[..8].copy_from_slice(&((w as u64) << 32 | i).to_le_bytes());
    k
}

/// Acceptance: ≥2 completed online resizes under 8 writers, zero failed or
/// lost ops, readers never observing a missing previously-written key, and
/// the whole key set durable across a crash of the synced image.
#[test]
fn eight_writers_resize_twice_with_readers_and_recovery() {
    let pool = PmemPool::new(PmemConfig::strict_for_test(64 << 20));
    let esys = EpochSys::format(pool, EsysConfig::default());
    let map = Arc::new(MontageHashMap::<Key>::with_max_load(
        esys.clone(),
        MTAG,
        NBUCKETS,
        MAX_LOAD,
    ));

    let stop = Arc::new(AtomicBool::new(false));
    // Writer w bumps this to i+1 once key(w, i) is written: readers use it
    // as the watermark below which every key must be visible.
    let progress: Arc<Vec<AtomicUsize>> =
        Arc::new((0..WRITERS).map(|_| AtomicUsize::new(0)).collect());

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let esys = esys.clone();
            let map = map.clone();
            let progress = progress.clone();
            s.spawn(move || {
                let tid = esys.register_thread();
                for i in 0..KEYS_PER_WRITER {
                    let existed = map.put(tid, key(w, i), &i.to_le_bytes());
                    assert!(!existed, "writer {w} key {i}: distinct key existed");
                    progress[w].store(i as usize + 1, Ordering::Release);
                }
                esys.unregister_thread(tid);
            });
        }
        for r in 0..4 {
            let esys = esys.clone();
            let map = map.clone();
            let progress = progress.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let tid = esys.register_thread();
                let mut probes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let w = (r + probes as usize) % WRITERS;
                    let seen = progress[w].load(Ordering::Acquire);
                    if seen > 0 {
                        // Any key below the watermark must be visible, mid-
                        // migration or not.
                        let i = probes % seen as u64;
                        let got = map.get_owned(tid, &key(w, i));
                        assert_eq!(
                            got.as_deref(),
                            Some(&i.to_le_bytes()[..]),
                            "reader lost key (w {w}, i {i}) during a resize"
                        );
                    }
                    probes += 1;
                }
                esys.unregister_thread(tid);
                probes
            });
        }
        // Scoped writers finish first; then release the readers.
        // (Readers check `stop` each probe; writers set progress last.)
        // The writer handles are joined implicitly by scope exit, so flip
        // `stop` from a watcher thread once all progress is complete.
        let progress = progress.clone();
        let stop = stop.clone();
        s.spawn(move || {
            while progress
                .iter()
                .any(|p| p.load(Ordering::Acquire) < KEYS_PER_WRITER as usize)
            {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    // ≥2 completed online resizes (8 buckets × load 2: 2000 keys force the
    // table through 16, 32, … — many more than two in practice).
    let tid = esys.register_thread();
    map.finish_resize(tid);
    assert!(
        map.resizes_completed() >= 2,
        "only {} resizes completed under load",
        map.resizes_completed()
    );
    assert_eq!(map.len(), WRITERS * KEYS_PER_WRITER as usize);

    // Zero lost ops, live.
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            assert_eq!(
                map.get_owned(tid, &key(w, i)).as_deref(),
                Some(&i.to_le_bytes()[..]),
                "key (w {w}, i {i}) lost after the run"
            );
        }
    }

    // And durable: sync, crash, recover — the full key set survives with
    // the grown geometry rolled forward.
    esys.sync();
    let rec = montage::try_recover(esys.pool().crash(), EsysConfig::default(), 1)
        .expect("recovery after clean sync");
    assert!(rec.report.quarantined.is_empty());
    let rmap = MontageHashMap::<Key>::recover(rec.esys.clone(), MTAG, NBUCKETS, &rec);
    let rtid = rec.esys.register_thread();
    assert!(!rmap.resizing(rtid));
    assert!(
        rmap.capacity(rtid) > NBUCKETS,
        "recovery dropped the grown geometry"
    );
    assert_eq!(rmap.len(), WRITERS * KEYS_PER_WRITER as usize);
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            assert_eq!(
                rmap.get_owned(rtid, &key(w, i)).as_deref(),
                Some(&i.to_le_bytes()[..]),
                "key (w {w}, i {i}) lost across recovery"
            );
        }
    }
}
