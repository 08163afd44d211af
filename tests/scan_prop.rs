//! Property-based store correctness: random scripts over every mutation
//! entry point (`set`, `delete`, `update`, `detected_update`, a blind retry
//! of the last request id), `get` and `scan`, replayed against a `BTreeMap`
//! model that also tracks LRU order.
//!
//! Two layers (same shape as `session_recovery_prop.rs`):
//!
//! 1. **Live, all three item backends** — the identical script runs on a
//!    DRAM, an NVM (Ralloc) and a Montage-backed [`KvStore`], once roomy
//!    and once at a capacity far below the key space. After every step the
//!    store must agree with the model on contents and scan order, `len()`,
//!    `evictions()` — and therefore on **which key each eviction took** —
//!    and `ordered_mirror_bytes()`; every read and every decision must see
//!    the model's bytes. The backends share one write path, so they may
//!    not diverge from the model or from each other.
//! 2. **Montage × sampled crash points** — the script runs on a
//!    single-shard Montage store under `crash_sweep`; at each sampled cut
//!    the recovered store's full-range scan must equal the model after
//!    **some prefix** of the script (buffered durable linearizability,
//!    observed through the scan path instead of point reads).
//!
//! Keys use `make_key`'s decimal padding, so *byte-wise* ordering — what
//! the scan contract promises — differs from numeric ordering ("10" < "2");
//! the model is keyed by the padded `Key` to pin exactly that contract.

use std::collections::BTreeMap;

use kvstore::{make_key, DetectOutcome, DetectedWrite, Key, KvBackend, KvStore, ShardedKvStore};
use montage::{EpochSys, EsysConfig, RecoveryError};
use pmem::{PmemConfig, PmemPool};
use pmem_chaos::{crash_sweep, SweepConfig};
use proptest::prelude::*;
use ralloc::Ralloc;

const KEYS: u64 = 30;
const STRIPES: usize = 4;
const CAP: usize = 4096; // far above KEYS: the LRU must never evict mid-test
/// The eviction case: one stripe (the model keeps one LRU list), six slots.
const SMALL: (usize, usize) = (1, 6);
/// The one durable session the detected ops run under.
const SID: u64 = 77;
/// `KvStore::ordered_mirror_bytes`'s per-key estimate: key + two words.
const MIRROR_PER_KEY: usize = 32 + 2 * std::mem::size_of::<usize>();

fn esys_cfg() -> EsysConfig {
    EsysConfig {
        max_threads: 2,
        ..Default::default()
    }
}

/// One step of the workload. `limit == 0` means "no limit".
#[derive(Clone, Copy, Debug)]
enum SOp {
    Put(u64, u64),
    Del(u64),
    /// Locked read-decide-write ([`decide`]) through `update`.
    Update(u64, u64),
    /// The same decision through `detected_update`, under the next rid.
    Detected(u64, u64),
    /// Blind retry of the last `Detected`'s rid: must replay, not re-apply.
    Retry,
    Get(u64),
    Scan {
        lo: u64,
        hi: u64,
        limit: u8,
    },
    Sync,
}

fn sop_strategy() -> impl Strategy<Value = SOp> {
    prop_oneof![
        4 => (0..KEYS, any::<u64>()).prop_map(|(k, v)| SOp::Put(k, v)),
        2 => (0..KEYS).prop_map(SOp::Del),
        3 => (0..KEYS, any::<u64>()).prop_map(|(k, v)| SOp::Update(k, v)),
        3 => (0..KEYS, any::<u64>()).prop_map(|(k, v)| SOp::Detected(k, v)),
        1 => Just(SOp::Retry),
        2 => (0..KEYS).prop_map(SOp::Get),
        3 => (0..KEYS, 0..KEYS, any::<u8>())
            .prop_map(|(lo, hi, limit)| SOp::Scan { lo, hi, limit: limit % 8 }),
        1 => Just(SOp::Sync),
    ]
}

/// A conditional op's verdict, a pure function of the op's argument and
/// the key's current value: delete, a failed conditional, or a write whose
/// length varies (so overwrites hit both the in-place and the resize arm).
/// The reply is the value the decision saw — comparing it against the
/// model checks that every backend hands `decide` the right bytes.
fn decide(v: u64, cur: Option<&[u8]>) -> (DetectedWrite, Vec<u8>) {
    let write = match (cur, v % 4) {
        (Some(_), 0) => DetectedWrite::Delete,
        (_, 1) => DetectedWrite::Keep,
        _ => DetectedWrite::Upsert(v.to_le_bytes()[..1 + (v >> 8) as usize % 8].to_vec()),
    };
    (write, cur.map_or(b"absent".to_vec(), <[u8]>::to_vec))
}

/// The reference store: contents in key order, one LRU list (oldest
/// first), an eviction count. Exact for a one-stripe store or one that
/// never fills.
struct Model {
    items: BTreeMap<Key, Vec<u8>>,
    lru: Vec<Key>,
    cap: usize,
    evictions: usize,
}

impl Model {
    fn new(cap: usize) -> Self {
        Model {
            items: BTreeMap::new(),
            lru: Vec::new(),
            cap,
            evictions: 0,
        }
    }

    fn touch(&mut self, key: &Key) {
        if let Some(i) = self.lru.iter().position(|k| k == key) {
            let k = self.lru.remove(i);
            self.lru.push(k);
        }
    }

    fn get(&mut self, key: &Key) -> Option<Vec<u8>> {
        self.touch(key);
        self.items.get(key).cloned()
    }

    /// Returns the key evicted to make room, if any.
    fn upsert(&mut self, key: Key, value: Vec<u8>) -> Option<Key> {
        if self.items.insert(key, value).is_some() {
            self.touch(&key);
            return None;
        }
        self.lru.push(key);
        if self.items.len() <= self.cap {
            return None;
        }
        let victim = self.lru.remove(0);
        self.items.remove(&victim);
        self.evictions += 1;
        Some(victim)
    }

    fn remove(&mut self, key: &Key) -> bool {
        self.lru.retain(|k| k != key);
        self.items.remove(key).is_some()
    }

    /// [`decide`] against the model's value; returns the reply and victim.
    fn decide_and_apply(&mut self, key: Key, v: u64) -> (Vec<u8>, Option<Key>) {
        let (write, reply) = decide(v, self.items.get(&key).map(Vec::as_slice));
        let victim = match write {
            DetectedWrite::Keep => None,
            DetectedWrite::Delete => {
                self.remove(&key);
                None
            }
            DetectedWrite::Upsert(value) => self.upsert(key, value),
        };
        (reply, victim)
    }

    fn scan(&self, lo: &Key, hi: &Key, limit: usize) -> Vec<(Key, Vec<u8>)> {
        if lo > hi || limit == 0 {
            return Vec::new();
        }
        self.items
            .range(*lo..=*hi)
            .take(limit)
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    fn full_scan(&self) -> Vec<(Key, Vec<u8>)> {
        self.scan(&[0u8; 32], &[0xFFu8; 32], usize::MAX)
    }
}

fn scan_limit(limit: u8) -> usize {
    if limit == 0 {
        usize::MAX
    } else {
        limit as usize
    }
}

/// Layer 1: one script on one backend, the store held to the model after
/// every step. Panics on divergence (the proptest harness reports the
/// failing script).
fn check_live(name: &str, backend: KvBackend, (stripes, cap): (usize, usize), script: &[SOp]) {
    let kv = KvStore::new(backend, stripes, cap);
    let tid = kv.register_thread();
    let mut model = Model::new(cap / stripes);
    let mut rid = 0u64;
    let mut last_detected: Option<(Key, Vec<u8>)> = None;
    for (step, op) in script.iter().enumerate() {
        let at = format!("{name} cap {cap} step {step} {op:?}");
        let mut victim = None;
        match *op {
            SOp::Put(k, v) => {
                kv.set(tid, make_key(k), &v.to_le_bytes());
                victim = model.upsert(make_key(k), v.to_le_bytes().to_vec());
            }
            SOp::Del(k) => {
                let existed = kv.delete(tid, &make_key(k));
                assert_eq!(existed, model.remove(&make_key(k)), "{at}: delete");
            }
            SOp::Update(k, v) => {
                let reply = kv.update(tid, &make_key(k), |cur| decide(v, cur));
                let (want, evicted) = model.decide_and_apply(make_key(k), v);
                assert_eq!(reply, want, "{at}: the decision saw the wrong value");
                victim = evicted;
            }
            SOp::Detected(k, v) => {
                rid += 1;
                let out = kv.detected_update(tid, SID, rid, 1, &make_key(k), |c| decide(v, c));
                let (want, evicted) = model.decide_and_apply(make_key(k), v);
                assert_eq!(out, DetectOutcome::Applied(want.clone()), "{at}");
                last_detected = Some((make_key(k), want));
                victim = evicted;
            }
            SOp::Retry => {
                if let Some((key, reply)) = &last_detected {
                    let out = kv.detected_update(tid, SID, rid, 1, key, |_| {
                        panic!("{at}: a retried rid must not re-run its decision")
                    });
                    assert_eq!(out, DetectOutcome::Replayed(reply.clone()), "{at}");
                }
            }
            SOp::Get(k) => {
                let got = kv.get(&make_key(k), <[u8]>::to_vec);
                assert_eq!(got, model.get(&make_key(k)), "{at}: get");
            }
            SOp::Scan { lo, hi, limit } => {
                let (lo, hi, limit) = (make_key(lo), make_key(hi), scan_limit(limit));
                let got = kv.scan(&lo, &hi, limit);
                assert_eq!(got, model.scan(&lo, &hi, limit), "{at}: scan");
            }
            SOp::Sync => {
                if let Some(esys) = kv.esys() {
                    esys.sync();
                }
            }
        }
        // Contents in scan order (scans do not touch the LRU, so checking
        // costs the run nothing), then the accounting.
        let contents = kv.scan(&[0u8; 32], &[0xFFu8; 32], usize::MAX);
        if let Some(victim) = victim {
            assert!(
                contents.iter().all(|(k, _)| *k != victim),
                "{at}: the LRU victim is {victim:?}, the store evicted another key"
            );
        }
        assert_eq!(contents, model.full_scan(), "{at}: contents diverged");
        assert_eq!(kv.len(), model.items.len(), "{at}: len");
        assert_eq!(kv.evictions(), model.evictions, "{at}: evictions");
        assert_eq!(
            kv.ordered_mirror_bytes(),
            model.items.len() * MIRROR_PER_KEY,
            "{at}: ordered mirror accounting"
        );
    }
}

fn check_live_backends(script: &[SOp]) {
    for shape in [(STRIPES, CAP), SMALL] {
        let pool = || PmemPool::new(PmemConfig::strict_for_test(16 << 20));
        check_live("dram", KvBackend::Dram, shape, script);
        check_live("nvm", KvBackend::Nvm(Ralloc::format(pool())), shape, script);
        let esys = EpochSys::format(pool(), esys_cfg());
        check_live("montage", KvBackend::Montage(esys), shape, script);
    }
}

/// Replays the script on a single-shard Montage store over the caller's
/// chaos-armed pool. Ops degrade to errors once the plan trips.
fn run_script(pool: &PmemPool, script: &[SOp]) {
    let store = ShardedKvStore::format_pools(vec![pool.clone()], esys_cfg(), STRIPES, CAP);
    let lease = store.lease();
    let mut rid = 0u64;
    let mut last_detected = None;
    for op in script {
        match *op {
            SOp::Put(k, v) => {
                let _ = store.set(&lease, make_key(k), &v.to_le_bytes());
            }
            SOp::Del(k) => {
                let _ = store.delete(&lease, &make_key(k));
            }
            SOp::Update(k, v) => {
                let _ = store.update(&lease, &make_key(k), |cur| decide(v, cur));
            }
            SOp::Detected(k, v) => {
                rid += 1;
                last_detected = Some((k, v));
                let _ = store.detected(&lease, SID, rid, 1, &make_key(k), |c| decide(v, c));
            }
            SOp::Retry => {
                if let Some((k, v)) = last_detected {
                    let _ = store.detected(&lease, SID, rid, 1, &make_key(k), |c| decide(v, c));
                }
            }
            SOp::Get(k) => {
                let _ = store.get(&make_key(k), |_| ());
            }
            SOp::Scan { lo, hi, limit } => {
                // Scans are pure reads: they may not disturb the durable
                // image, whatever the crash plan does around them.
                let _ = store.scan(&make_key(lo), &make_key(hi), scan_limit(limit));
            }
            SOp::Sync => {
                let _ = store.sync_shard(0);
            }
        }
    }
    let _ = store.sync_shard(0);
}

/// Layer 2 verifier: the recovered store's full-range scan equals the model
/// after some prefix of the script.
fn verify_cut(pool: PmemPool, crash_at: u64, script: &[SOp]) -> Result<(), String> {
    let (store, report) = ShardedKvStore::recover(vec![pool], esys_cfg(), STRIPES, CAP, 1);
    let sr = &report.shards[0];
    if let Some(err) = &sr.fatal {
        return if matches!(err, RecoveryError::UnformattedPool) {
            Ok(()) // crashed before the pool header landed: empty prefix
        } else {
            Err(format!("crash_at={crash_at}: fatal recovery error: {err}"))
        };
    }
    if sr.quarantined != 0 {
        return Err(format!(
            "crash_at={crash_at}: clean crash quarantined {} payloads",
            sr.quarantined
        ));
    }

    let recovered = store.scan(&[0u8; 32], &[0xFFu8; 32], usize::MAX);
    let mut model = Model::new(CAP);
    if recovered == model.full_scan() {
        return Ok(());
    }
    for op in script {
        match *op {
            SOp::Put(k, v) => {
                model.upsert(make_key(k), v.to_le_bytes().to_vec());
            }
            SOp::Del(k) => {
                model.remove(&make_key(k));
            }
            SOp::Update(k, v) | SOp::Detected(k, v) => {
                model.decide_and_apply(make_key(k), v);
            }
            SOp::Retry | SOp::Get(_) | SOp::Scan { .. } | SOp::Sync => {}
        }
        if recovered == model.full_scan() {
            return Ok(());
        }
    }
    Err(format!(
        "crash_at={crash_at}: recovered scan matches no prefix of the history: \
         {} entries",
        recovered.len()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Random scripts over every entry point: live equivalence with the
    /// model on all three backends (roomy and evicting), then sampled crash
    /// points on the Montage-backed store where the recovered *scan* must
    /// read as a consistent prefix. Bounded (8 scripts × ~12 points) for
    /// CI; the exhaustive sweeps in `crash_sweep.rs` cover depth.
    #[test]
    fn scans_match_the_model_live_and_across_crash_cuts(
        script in proptest::collection::vec(sop_strategy(), 20..60),
        seed in any::<u64>(),
    ) {
        check_live_backends(&script);

        let cfg = SweepConfig { exhaustive_limit: 0, samples: 12, seed };
        let report = crash_sweep(
            &cfg,
            PmemConfig::strict_for_test(8 << 20),
            |pool| run_script(pool, &script),
            |durable, crash_at| verify_cut(durable, crash_at, &script),
        );
        prop_assert!(
            report.total_events > 0 && !report.crash_points.is_empty(),
            "sweep exercised nothing: {} events", report.total_events
        );
        prop_assert!(report.is_ok(), "{:?}", report.failures);
    }
}
