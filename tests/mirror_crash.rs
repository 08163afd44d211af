//! Regression chaos test: an item that leaves the cache — evicted by LRU
//! or reaped by lazy expiry — must leave the per-stripe ordered mirror
//! too, and must stay gone across a crash-restart. The mirror is what
//! `scan` walks; a stale entry would either panic the ordered walk (key in
//! the mirror, gone from the map) or resurrect a dead item over the wire.
//!
//! Also pins the deliberate asymmetry of lazy expiry across a crash: an
//! expired-but-never-touched item *is* resident again after recovery (the
//! index rebuild cannot consult a clock the protocol layer owns), but scan
//! filters it, and the first touch reaps it from map and mirror together —
//! observable as the mirror's byte accounting shrinking by exactly one
//! key's footprint.

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

fn scan_keys(s: &Session) -> Vec<String> {
    let reply = s.execute("scan a z 1000", b"");
    reply
        .lines()
        .filter_map(|l| l.strip_prefix("VALUE "))
        .map(|rest| rest.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn evicted_and_expired_items_leave_the_mirror_across_crash_restart() {
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
    let per_key = store.ordered_mirror_bytes() / store.len();
    assert!(per_key >= 32, "mirror must cost at least the key bytes");

    // Let the TTLs lapse; touching e1 reaps it (lazy expiry), which must
    // drop it from the mirror too — the accounting shrinks by one key.
    clock.0.store(1_002_000, Ordering::Relaxed);
    assert_eq!(s.execute("get e1", b""), "END");
    assert_eq!(store.len(), 6);
    assert_eq!(store.ordered_mirror_bytes(), 6 * per_key);

    // Fill back to capacity and overflow by one: k1 (LRU) is evicted.
    for k in ["k6", "k7"] {
        assert_eq!(s.execute(&format!("set {k} 0 0 4"), b"live"), "STORED");
    }
    assert_eq!(store.len(), CAPACITY, "filled to the per-stripe cap");
    assert_eq!(s.execute("set k9 0 0 4", b"live"), "STORED");
    assert_eq!(store.len(), CAPACITY);
    assert_eq!(store.evictions(), 1);
    assert_eq!(s.execute("get k1", b""), "END", "k1 must be evicted");

    // Pre-crash: the mirror serves scan; e2 is resident but expired, so it
    // is filtered without being reaped; e1 and k1 are gone outright.
    assert_eq!(
        scan_keys(&s),
        ["k2", "k3", "k4", "k5", "k6", "k7", "k9"]
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>(),
        "scan must hide the expired survivor and the dead keys"
    );
    assert_eq!(store.ordered_mirror_bytes(), CAPACITY * per_key);

    store.sync().unwrap();

    // Hard crash, recovery, and a fresh protocol session over the same
    // (frozen) clock.
    let store2 = crash_restart(&store);
    let s2 = session(&store2).with_clock(clock.clone());

    // The evicted key and the reaped key must not resurrect — not in the
    // index, not in the mirror, not over the wire.
    assert_eq!(store2.len(), CAPACITY, "8 resident items synced pre-crash");
    assert_eq!(store2.ordered_mirror_bytes(), CAPACITY * per_key);
    assert_eq!(s2.execute("get k1", b""), "END", "evicted key resurrected");
    assert_eq!(s2.execute("get e1", b""), "END", "reaped key resurrected");
    assert_eq!(
        scan_keys(&s2),
        ["k2", "k3", "k4", "k5", "k6", "k7", "k9"]
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>(),
        "scan after restart must hide the expired survivor and the dead keys"
    );

    // e2 survived the crash as a resident-but-expired item (recovery cannot
    // consult the protocol clock). Its first touch reaps it — map and
    // mirror together, shrinking the accounting by exactly one key.
    assert_eq!(s2.execute("get e2", b""), "END");
    assert_eq!(store2.len(), CAPACITY - 1);
    assert_eq!(store2.ordered_mirror_bytes(), (CAPACITY - 1) * per_key);
    assert_eq!(scan_keys(&s2).len(), CAPACITY - 1);

    // And the reap itself is durable: a second crash-restart must not
    // bring e2 back resident.
    store2.sync().unwrap();
    let store3 = crash_restart(&store2);
    let s3 = session(&store3).with_clock(clock);
    assert_eq!(store3.len(), CAPACITY - 1);
    assert_eq!(store3.ordered_mirror_bytes(), (CAPACITY - 1) * per_key);
    assert_eq!(scan_keys(&s3).len(), CAPACITY - 1);
}
