//! Regression chaos test: an item that leaves the cache — evicted by LRU
//! or reaped by lazy expiry — must stay gone across a crash-restart.
//!
//! Also pins the deliberate asymmetry of lazy expiry across a crash: an
//! expired-but-never-touched item *is* resident again after recovery (the
//! index rebuild cannot consult a clock the protocol layer owns), and its
//! first touch reaps it — observable as `len()` shrinking by one, and that
//! reap survives a second crash.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kvstore::protocol::{Clock, Session};
use kvstore::ShardedKvStore;
use montage::EsysConfig;
use pmem::PmemConfig;

struct MockClock(AtomicU64);

impl Clock for MockClock {
    fn now_ms(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

const STRIPES: usize = 1;
const CAPACITY: usize = 8;
/// The immortal keys resident at the crash (k1 was evicted).
const LIVE: [&str; 7] = ["k2", "k3", "k4", "k5", "k6", "k7", "k9"];

fn esys_cfg() -> EsysConfig {
    EsysConfig {
        max_threads: 4,
        ..Default::default()
    }
}

fn session(store: &Arc<ShardedKvStore>) -> Session {
    Session::sharded(Arc::clone(store), Arc::new(store.lease()))
}

fn crash_restart(store: &ShardedKvStore) -> Arc<ShardedKvStore> {
    let (recovered, report) =
        ShardedKvStore::recover(store.crash_pools(), esys_cfg(), STRIPES, CAPACITY, 1);
    assert!(report.is_clean(), "clean crash must recover: {report:?}");
    recovered
}

/// Every [`LIVE`] key reads back its value over the protocol.
fn assert_live_keys_read_back(s: &Session, when: &str) {
    for k in LIVE {
        let want = format!("VALUE {k} 0 4\r\nlive\r\nEND");
        assert_eq!(s.execute(&format!("get {k}"), b""), want, "{when}: {k}");
    }
}

#[test]
fn evicted_and_reaped_items_stay_gone_across_crash_restart() {
    let store = ShardedKvStore::format(
        1,
        PmemConfig::strict_for_test(16 << 20),
        esys_cfg(),
        STRIPES,
        CAPACITY,
    );
    let clock = Arc::new(MockClock(AtomicU64::new(1_000_000)));
    let s = session(&store).with_clock(clock.clone());

    // Five immortal keys, two with a 1-second TTL.
    for k in ["k1", "k2", "k3", "k4", "k5"] {
        assert_eq!(s.execute(&format!("set {k} 0 0 4"), b"live"), "STORED");
    }
    for e in ["e1", "e2"] {
        assert_eq!(s.execute(&format!("set {e} 0 1 4"), b"dead"), "STORED");
    }
    assert_eq!(store.len(), 7);

    // Let the TTLs lapse; touching e1 reaps it (lazy expiry).
    clock.0.store(1_002_000, Ordering::Relaxed);
    assert_eq!(s.execute("get e1", b""), "END");
    assert_eq!(store.len(), 6);

    // Fill back to capacity and overflow by one: k1 (LRU) is evicted.
    for k in ["k6", "k7"] {
        assert_eq!(s.execute(&format!("set {k} 0 0 4"), b"live"), "STORED");
    }
    assert_eq!(store.len(), CAPACITY, "filled to the per-stripe cap");
    assert_eq!(s.execute("set k9 0 0 4", b"live"), "STORED");
    assert_eq!(store.len(), CAPACITY);
    assert_eq!(store.evictions(), 1);
    assert_eq!(s.execute("get k1", b""), "END", "k1 must be evicted");

    // Pre-crash: the seven live keys and the untouched, expired e2 are
    // resident; e1 and k1 are gone outright.
    assert_live_keys_read_back(&s, "before the crash");
    assert_eq!(store.len(), CAPACITY, "e2 is resident until touched");

    store.sync().unwrap();

    // Hard crash, recovery, and a fresh protocol session over the same
    // (frozen) clock.
    let store2 = crash_restart(&store);
    let s2 = session(&store2).with_clock(clock.clone());

    // e2 survived the crash as a resident-but-expired item: recovery
    // cannot consult the protocol clock. Counted before anything touches
    // it, since a `get` reaps it.
    assert_eq!(store2.len(), CAPACITY, "8 resident items synced pre-crash");
    // The evicted key and the reaped key must not resurrect.
    assert_eq!(s2.execute("get k1", b""), "END", "evicted key resurrected");
    assert_eq!(s2.execute("get e1", b""), "END", "reaped key resurrected");
    assert_live_keys_read_back(&s2, "after the first restart");
    assert_eq!(store2.len(), CAPACITY);

    // e2's first touch reaps it.
    assert_eq!(s2.execute("get e2", b""), "END");
    assert_eq!(store2.len(), CAPACITY - 1);

    // And the reap itself is durable: a second crash-restart must not
    // bring e2 back resident.
    store2.sync().unwrap();
    let store3 = crash_restart(&store2);
    assert_eq!(store3.len(), CAPACITY - 1, "the reap of e2 was lost");
    let s3 = session(&store3).with_clock(clock);
    assert_live_keys_read_back(&s3, "after the second restart");
}
