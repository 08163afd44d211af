//! Stress tests for the lock-free write-back buffers: worker threads hammer
//! `PNEW`/`set` while a fast background advancer concurrently steals from
//! their rings at every epoch boundary. The seed implementation serialized
//! these paths behind a per-thread mutex; the ring's push/steal protocol has
//! to deliver the same durability guarantees without one.

use std::sync::atomic::Ordering;
use std::time::Duration;

use montage::{Advancer, EpochSys, EsysConfig, PersistStrategy};
use montage_ds::{tags, MontageHashMap};
use pmem::{PmemConfig, PmemPool};

type Key = [u8; 32];

fn key(i: u64) -> Key {
    let mut k = [0u8; 32];
    k[..8].copy_from_slice(&i.to_le_bytes());
    k
}

/// Workers push into their rings as fast as they can while a 1 ms advancer
/// concurrently drains them; a tiny ring capacity forces constant overflow
/// write-backs racing against the advancer's steals. After `sync`, every
/// completed operation must survive the crash.
#[test]
fn concurrent_pushes_and_drains_survive_crash() {
    const WORKERS: u64 = 3;
    const ROUNDS: u64 = 300;

    let esys = EpochSys::format(
        PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
        EsysConfig {
            persist: PersistStrategy::Buffered(4),
            epoch_length: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let map = MontageHashMap::<Key>::new(esys.clone(), tags::HASHMAP, 256);
    let advancer = Advancer::start(esys.clone());

    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let map = &map;
            let esys = &esys;
            s.spawn(move || {
                let tid = esys.register_thread();
                for r in 0..ROUNDS {
                    let k = w * ROUNDS + r;
                    map.put(tid, key(k), &[r as u8; 16]);
                    // In-epoch updates of the key just written: the repeat
                    // pushes hit the coalescing table mid-stress.
                    for v in 0..3u8 {
                        map.put(tid, key(k), &[v; 16]);
                    }
                    if k % 8 == 7 {
                        map.remove(tid, &key(k));
                    }
                }
            });
        }
    });

    esys.sync();
    drop(advancer);

    let expected: Vec<u64> = (0..WORKERS * ROUNDS).filter(|k| k % 8 != 7).collect();
    assert!(
        esys.stats().flushes_coalesced.load(Ordering::Relaxed) > 0,
        "repeat in-epoch puts should exercise the coalescing path"
    );

    let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 4);
    let map2 = MontageHashMap::<Key>::recover(rec.esys.clone(), tags::HASHMAP, 256, &rec);
    let tid = rec.esys.register_thread();
    for &k in &expected {
        let got = map2.get_owned(tid, &key(k));
        assert_eq!(
            got.as_deref(),
            Some(&[2u8; 16][..]),
            "synced key {k} lost or stale after crash"
        );
    }
    for k in (0..WORKERS * ROUNDS).filter(|k| k % 8 == 7) {
        assert!(
            map2.get_owned(tid, &key(k)).is_none(),
            "removed key {k} resurrected"
        );
    }
}

/// The paper's `sync` helps drain *other* threads' buffers. Run workers with
/// no background advancer at all and let a fourth thread call `sync`
/// concurrently — sync's helping drains plus the workers' own overflow
/// write-backs race on the same rings.
#[test]
fn sync_helpers_steal_from_live_workers() {
    const WORKERS: u64 = 3;
    const ROUNDS: u64 = 200;

    let esys = EpochSys::format(
        PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
        EsysConfig {
            persist: PersistStrategy::Buffered(2),
            ..Default::default()
        },
    );
    let map = MontageHashMap::<Key>::new(esys.clone(), tags::HASHMAP, 256);

    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let map = &map;
            let esys = &esys;
            s.spawn(move || {
                let tid = esys.register_thread();
                for r in 0..ROUNDS {
                    map.put(tid, key(w * ROUNDS + r), &[r as u8; 16]);
                    if r % 32 == 31 {
                        esys.sync();
                    }
                }
            });
        }
    });

    esys.sync();
    let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 4);
    let map2 = MontageHashMap::<Key>::recover(rec.esys.clone(), tags::HASHMAP, 256, &rec);
    assert_eq!(map2.len() as u64, WORKERS * ROUNDS);
}
