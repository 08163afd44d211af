//! Micro-benchmarks of the core primitives: allocator fast path,
//! `BEGIN_OP`/`END_OP`, `PNEW`, in-place `set`, `CAS_verify`, epoch advance,
//! and the pmem flush path. These quantify the constants behind the figure
//! harnesses. Each prints nanoseconds per call
//! ([`montage_bench::harness::print_ns_per_call`]); nothing is compared.

use montage::{EpochSys, EsysConfig, VerifyCell};
use montage_bench::harness::print_ns_per_call;
use montage_bench::report::percentile;
use montage_ds::{tags, MontageHashMap};
use pmem::{ChaosConfig, POff, PmemConfig, PmemPool};
use ralloc::Ralloc;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_ralloc() {
    let r = Ralloc::format(PmemPool::new(PmemConfig {
        size: 256 << 20,
        ..Default::default()
    }));
    print_ns_per_call("ralloc_alloc_dealloc_64B", || {
        let off = r.alloc(64);
        r.dealloc(off);
        off
    });
}

fn bench_pmem() {
    let pool = PmemPool::new(PmemConfig::default());
    print_ns_per_call("pmem_clwb_fence_1line", || {
        pool.clwb(POff::new(4096));
        pool.sfence();
    });
}

fn bench_esys() {
    let esys = EpochSys::format(
        PmemPool::new(PmemConfig {
            size: 512 << 20,
            ..Default::default()
        }),
        EsysConfig::default(),
    );
    let tid = esys.register_thread();

    print_ns_per_call("begin_end_op", || {
        let g = esys.begin_op(tid);
        drop(g);
    });

    print_ns_per_call("pnew_pdelete_64B", || {
        let g = esys.begin_op(tid);
        let h = esys.pnew(&g, 0, &[0u8; 64]);
        esys.pdelete(&g, h).unwrap();
    });

    let g = esys.begin_op(tid);
    let h = esys.pnew(&g, 0, &0u64);
    drop(g);
    print_ns_per_call("set_in_place_u64", || {
        let g = esys.begin_op(tid);
        let _ = esys.set(&g, h, |v| *v = v.wrapping_add(1)).unwrap();
    });

    let cell = VerifyCell::new(0);
    print_ns_per_call("cas_verify", || {
        let g = esys.begin_op(tid);
        let cur = cell.load(&esys);
        let _ = cell.cas_verify(&esys, &g, cur, cur + 1);
    });

    print_ns_per_call("advance_epoch", || esys.advance_epoch());

    print_ns_per_call("sync", || esys.sync());
}

fn bench_coalescing() {
    use std::sync::atomic::Ordering;

    let esys = EpochSys::format(
        PmemPool::new(PmemConfig {
            size: 512 << 20,
            ..Default::default()
        }),
        EsysConfig::buffered(64),
    );
    let tid = esys.register_thread();
    let h = {
        let g = esys.begin_op(tid);
        esys.pnew(&g, 0, &0u64)
    };

    // Timed: repeated in-place sets of one hot payload inside an op. After
    // the first set of the epoch, every push hits the coalescing table and
    // skips the ring entirely.
    {
        let g = esys.begin_op(tid);
        let mut hh = h;
        print_ns_per_call("set_hot_payload_coalesced_u64", || {
            hh = esys.set(&g, hh, |v| *v = v.wrapping_add(1)).unwrap();
        });
    }

    // Counted (not timed): 8 sets of one payload per epoch, 100 epochs.
    // `flushes_coalesced` is exact, so `clwbs + saved` is precisely what the
    // uncoalesced implementation would have issued.
    let stats0 = esys.pool().stats().snapshot();
    let saved0 = esys.stats().flushes_coalesced.load(Ordering::Relaxed);
    let mut hh = h;
    for _ in 0..100 {
        {
            let g = esys.begin_op(tid);
            for _ in 0..8 {
                hh = esys.set(&g, hh, |v| *v = v.wrapping_add(1)).unwrap();
            }
        }
        esys.advance_epoch();
    }
    esys.sync();
    let stats1 = esys.pool().stats().snapshot();
    let saved = esys.stats().flushes_coalesced.load(Ordering::Relaxed) - saved0;
    let clwbs = stats1.clwbs - stats0.clwbs;
    println!(
        "flush_coalescing_8x_sets_100_epochs      clwbs: {clwbs} \
         (uncoalesced: {}, saved: {saved}, fences: {})",
        clwbs + saved,
        stats1.sfences - stats0.sfences
    );
}

/// Mirrors `MontageHashMap`'s bucket choice so peer keys steer clear of the
/// parked victim's locked bucket.
fn bucket_of(key: &[u8; 32], nbuckets: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % nbuckets
}

/// Sync latencies (µs) from one thread while a victim stays parked mid-put
/// on the same map: the stall-injection figure. `grace` is the advance's
/// per-slot grace window — 64 is the helping path; a multi-million spin
/// window emulates the old blocking advancer (it waits the full window out
/// on the victim's slot at *every* epoch boundary).
fn stalled_sync_lats(grace: usize, syncs: usize) -> Vec<u64> {
    // The peer's 300 keys avoid the victim's bucket (below), so the parked
    // victim's lock never stands in the peer's way.
    const NBUCKETS: usize = 128;
    let mut vk = [0u8; 32];
    vk[0] = 0xAA;
    let setup = |chaos: ChaosConfig| {
        let mut cfg = PmemConfig::strict_for_test(64 << 20);
        cfg.chaos = chaos;
        let s = EpochSys::format(
            PmemPool::new(cfg),
            EsysConfig {
                advance_grace_spins: grace,
                ..Default::default()
            },
        );
        let map = Arc::new(MontageHashMap::<[u8; 32]>::new(
            s.clone(),
            tags::HASHMAP,
            NBUCKETS,
        ));
        (s, map)
    };

    // Counting pass: measure the victim put's persistence-event span so the
    // live pass can park it mid-operation.
    let (e_setup, e_put) = {
        let (s, map) = setup(ChaosConfig {
            crash_at_event: Some(u64::MAX),
            ..Default::default()
        });
        let tid = s.register_thread();
        let e_setup = s.pool().persistence_events();
        map.put(tid, vk, b"victim-value");
        (e_setup, s.pool().persistence_events())
    };
    assert!(e_put > e_setup, "a put must charge persistence events");
    let stall_at = e_setup + (e_put - e_setup).div_ceil(2);

    let (s, map) = setup(ChaosConfig {
        stall_at_event: Some(stall_at),
        ..Default::default()
    });
    let victim = {
        let (s, map) = (s.clone(), map.clone());
        std::thread::spawn(move || {
            let tid = s.register_thread();
            map.put(tid, vk, b"victim-value");
        })
    };
    assert!(
        s.pool().await_stalled(Duration::from_secs(30)),
        "victim never parked"
    );

    let tid = s.register_thread();
    let vb = bucket_of(&vk, NBUCKETS);
    let mut lats = Vec::with_capacity(syncs);
    for i in 0..syncs {
        let mut k = [0u8; 32];
        k[0] = 1;
        k[1] = (i & 0xff) as u8;
        k[2] = (i >> 8) as u8;
        while bucket_of(&k, NBUCKETS) == vb {
            k[3] += 1;
        }
        map.put(tid, k, b"peer-value");
        let t0 = Instant::now();
        s.sync();
        lats.push(t0.elapsed().as_micros() as u64);
    }
    s.pool().release_stalled();
    victim.join().unwrap();
    lats.sort_unstable();
    lats
}

/// The stall-injection sync tail — p50/p99 of `sync` while one thread is
/// parked mid-op, under the helping advance vs. a blocking-advancer
/// emulation. Printed, not gated: the bound itself is pinned by `tracker`'s
/// `bounded_wait_passes_newer_ops_and_counts_stragglers` test.
fn report_stalled_sync() {
    let helping = stalled_sync_lats(64, 300);
    let blocking = stalled_sync_lats(2_000_000, 40);
    let (h_p50, h_p99) = (percentile(&helping, 0.50), percentile(&helping, 0.99));
    let (b_p50, b_p99) = (percentile(&blocking, 0.50), percentile(&blocking, 0.99));
    println!(
        "stalled_sync helping   p50: {h_p50}us  p99: {h_p99}us   ({} syncs, victim parked)",
        helping.len()
    );
    println!(
        "stalled_sync blocking  p50: {b_p50}us  p99: {b_p99}us   ({} syncs, victim parked)",
        blocking.len()
    );
}

fn main() {
    bench_ralloc();
    bench_pmem();
    bench_esys();
    bench_coalescing();
    report_stalled_sync();
}
