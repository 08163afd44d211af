//! Property-based store correctness: random scripts over every mutation
//! entry point (`set`, `delete`, `update`, `detected_update`, a blind retry
//! of the last request id, and the wire protocol's plain `set`) and `get`,
//! replayed against a `BTreeMap` model that also tracks LRU order.
//!
//! The wire `set` is the one verb the protocol runs *blind* — it never reads
//! the item it overwrites — where every other decision goes through the
//! locked read → decide → apply. The model spells out what that reading
//! path yields for a `set` (an unconditional upsert of the encoded item,
//! `STORED`, over an absent, a live or an expired key alike; under a session
//! a first execution, a replay, a stale refusal), so replies and contents
//! are held byte-identical to it.
//!
//! Two layers (same shape as `session_recovery_prop.rs`):
//!
//! 1. **Live, all three item backends** — the identical script runs on a
//!    DRAM, an NVM (Ralloc) and a Montage-backed [`KvStore`], once roomy
//!    and once at a capacity far below the key space. After every step the
//!    store must agree with the model on contents, on each stripe's
//!    recency order (read through [`KvStore::items_by_recency`], which does
//!    not touch it), `len()` and `evictions()` — and therefore on **which
//!    key each eviction took**; every read and every decision must see the
//!    model's bytes. The backends share one write path, so they may not
//!    diverge from the model or from each other.
//! 2. **Montage × sampled crash points** — the script runs on a
//!    single-shard Montage store under `crash_sweep`; at each sampled cut
//!    the recovered store's contents, read by a point `get` of every key
//!    the script names, must equal the model after **some prefix** of the
//!    script (buffered durable linearizability).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kvstore::protocol::{Clock, Session};
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

fn esys_cfg() -> EsysConfig {
    EsysConfig {
        max_threads: 2,
        ..Default::default()
    }
}

/// Wire `set`s aim at a few keys, so one script meets them absent, live
/// and expired.
const WIRE_KEYS: u64 = 4;
/// What a [`SOp::Tick`] adds to the sessions' clock: past a 1 s expiry.
const TICK_MS: u64 = 1500;

/// How a wire `set` is sent.
#[derive(Clone, Copy, Debug)]
enum Wire {
    /// Sessionless.
    Plain,
    /// Under the session's next rid: a first execution.
    Fresh,
    /// Under the session's current rid again: must replay, not re-apply.
    Replay,
    /// Under the rid before the current one: must be refused as stale.
    Stale,
}

/// One step of the workload.
#[derive(Clone, Copy, Debug)]
enum SOp {
    Put(u64, u64),
    /// The protocol's plain `set <k> <flags> <ttl> <len>`, through a
    /// [`Session`]: flags, data and its length derive from `v`.
    WireSet {
        k: u64,
        v: u64,
        ttl: u8,
        how: Wire,
    },
    /// Moves the sessions' clock [`TICK_MS`] on.
    Tick,
    Del(u64),
    /// Locked read-decide-write ([`decide`]) through `update`.
    Update(u64, u64),
    /// The same decision through `detected_update`, under the next rid.
    Detected(u64, u64),
    /// Blind retry of the last `Detected`'s rid: must replay, not re-apply.
    Retry,
    Get(u64),
    Sync,
}

fn sop_strategy() -> impl Strategy<Value = SOp> {
    prop_oneof![
        4 => (0..KEYS, any::<u64>()).prop_map(|(k, v)| SOp::Put(k, v)),
        4 => (0..WIRE_KEYS, any::<u64>(), 0..18u8).prop_map(|(k, v, n)| {
            use Wire::*;
            let how = [Plain, Plain, Fresh, Fresh, Replay, Stale][(n / 3) as usize];
            SOp::WireSet { k, v, ttl: n % 3, how }
        }),
        1 => Just(SOp::Tick),
        2 => (0..KEYS).prop_map(SOp::Del),
        3 => (0..KEYS, any::<u64>()).prop_map(|(k, v)| SOp::Update(k, v)),
        3 => (0..KEYS, any::<u64>()).prop_map(|(k, v)| SOp::Detected(k, v)),
        1 => Just(SOp::Retry),
        2 => (0..KEYS).prop_map(SOp::Get),
        1 => Just(SOp::Sync),
    ]
}

/// The protocol's item encoding: `flags | expires_at_ms | cas | data`.
fn item(flags: u32, expires_at: u64, cas: u64, data: &[u8]) -> Vec<u8> {
    let mut bytes = flags.to_le_bytes().to_vec();
    bytes.extend_from_slice(&expires_at.to_le_bytes());
    bytes.extend_from_slice(&cas.to_le_bytes());
    bytes.extend_from_slice(data);
    bytes
}

/// A value the store's own verbs write: shaped as a never-expiring item, so
/// a wire verb that reads the key it lands on can parse what it finds.
fn raw(data: &[u8]) -> Vec<u8> {
    item(0, 0, 0, data)
}

/// Data bytes of varying length (so overwrites hit both the in-place and
/// the resize arm).
fn data_of(v: u64) -> Vec<u8> {
    v.to_le_bytes()[..1 + (v >> 8) as usize % 8].to_vec()
}

/// A conditional op's verdict, a pure function of the op's argument and
/// the key's current value: delete, a failed conditional, or a write whose
/// length varies. The reply is the value the decision saw — comparing it
/// against the model checks that every backend hands `decide` the right
/// bytes.
fn decide(v: u64, cur: Option<&[u8]>) -> (DetectedWrite, Vec<u8>) {
    let write = match (cur, v % 4) {
        (Some(_), 0) => DetectedWrite::Delete,
        (_, 1) => DetectedWrite::Keep,
        _ => DetectedWrite::Upsert(raw(&data_of(v))),
    };
    (write, cur.map_or(b"absent".to_vec(), <[u8]>::to_vec))
}

/// The sessions' clock: moved by [`SOp::Tick`] alone.
struct ScriptClock(AtomicU64);

impl Clock for ScriptClock {
    fn now_ms(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Where every script's clock starts.
const T0_MS: u64 = 1_000_000;

/// A session over `store` on a fresh [`ScriptClock`].
fn session_over(store: &Arc<ShardedKvStore>) -> (Session, Arc<ScriptClock>) {
    let clock = Arc::new(ScriptClock(AtomicU64::new(T0_MS)));
    let session = Session::sharded(store.clone(), Arc::new(store.lease()));
    (session.with_clock(clock.clone()), clock)
}

/// The rid a wire `set` step carries (`Some(None)`: sessionless), stepping
/// the session's counter for a first execution; `None` when the session has
/// no rid yet to replay or to fall behind, and the step is skipped.
fn wire_rid(how: Wire, rid: &mut u64) -> Option<Option<u64>> {
    match how {
        Wire::Plain => Some(None),
        Wire::Fresh => {
            *rid += 1;
            Some(Some(*rid))
        }
        Wire::Replay => (*rid > 0).then_some(Some(*rid)),
        Wire::Stale => (*rid > 0).then(|| Some(*rid - 1)),
    }
}

/// Sends the step's `set` line; `make_key(k)` is the key it names.
fn wire_set(session: &Session, k: u64, v: u64, ttl: u8, rid: Option<u64>) -> String {
    let data = data_of(v);
    let rid = rid.map_or(String::new(), |r| format!(" rid={r}"));
    let line = format!("set {k} {} {ttl} {}{rid}", v as u32, data.len());
    session.execute_with(&line, &data, Some(SID))
}

/// The item that `set` stores at clock `now_ms` under cas id `cas`.
fn wire_item(v: u64, ttl: u8, now_ms: u64, cas: u64) -> Vec<u8> {
    let expires_at = match ttl {
        0 => 0,
        s => now_ms + u64::from(s) * 1000,
    };
    item(v as u32, expires_at, cas, &data_of(v))
}

/// The reference store: contents in key order, one LRU list (oldest
/// first), an eviction count. Exact for a one-stripe store or one that
/// never fills; a store's stripe holds the list cut to the stripe's keys.
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
}

/// Layer 1: one script on one backend, the store held to the model after
/// every step. Panics on divergence (the proptest harness reports the
/// failing script).
fn check_live(name: &str, backend: KvBackend, (stripes, cap): (usize, usize), script: &[SOp]) {
    let store = ShardedKvStore::from_shards(vec![Arc::new(KvStore::new(backend, stripes, cap))]);
    let kv = store.shard(0);
    let tid = kv.register_thread();
    let (session, clock) = session_over(&store);
    // Every wire mutation draws the next cas id, whatever becomes of it.
    let mut cas = store.next_cas();
    let mut model = Model::new(cap / stripes);
    let mut rid = 0u64;
    let mut last_detected: Option<(Key, Vec<u8>)> = None;
    for (step, op) in script.iter().enumerate() {
        let at = format!("{name} cap {cap} step {step} {op:?}");
        let mut victim = None;
        match *op {
            SOp::Put(k, v) => {
                kv.set(tid, make_key(k), &raw(&v.to_le_bytes()));
                victim = model.upsert(make_key(k), raw(&v.to_le_bytes()));
            }
            SOp::WireSet { k, v, ttl, how } => {
                let Some(sent) = wire_rid(how, &mut rid) else {
                    continue;
                };
                let reply = wire_set(&session, k, v, ttl, sent);
                cas += 1;
                match how {
                    Wire::Plain | Wire::Fresh => {
                        assert_eq!(reply, "STORED", "{at}");
                        let stored = wire_item(v, ttl, clock.now_ms(), cas);
                        victim = model.upsert(make_key(k), stored);
                        if sent.is_some() {
                            last_detected = Some((make_key(k), b"STORED".to_vec()));
                        }
                    }
                    Wire::Replay => {
                        let (_, recorded) = last_detected.as_ref().expect("a rid was used");
                        assert_eq!(reply, String::from_utf8_lossy(recorded), "{at}");
                    }
                    Wire::Stale => assert_eq!(
                        reply,
                        format!("SERVER_ERROR stale request id (last acked {rid})"),
                        "{at}"
                    ),
                }
            }
            SOp::Tick => {
                clock.0.fetch_add(TICK_MS, Ordering::Relaxed);
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
            SOp::Sync => {
                if let Some(esys) = kv.esys() {
                    esys.sync();
                }
            }
        }
        // Contents and recency order, read without touching the LRU (so
        // checking costs the run nothing), then the accounting.
        let stripes = kv.items_by_recency();
        let mut contents: Vec<(Key, Vec<u8>)> = stripes.iter().flatten().cloned().collect();
        if let Some(victim) = victim {
            assert!(
                contents.iter().all(|(k, _)| *k != victim),
                "{at}: the LRU victim is {victim:?}, the store evicted another key"
            );
        }
        for stripe in &stripes {
            let order: Vec<Key> = stripe.iter().map(|(k, _)| *k).collect();
            let want: Vec<Key> = model
                .lru
                .iter()
                .filter(|k| order.contains(k))
                .copied()
                .collect();
            assert_eq!(order, want, "{at}: recency order diverged");
        }
        contents.sort_unstable_by_key(|(k, _)| *k);
        let want: Vec<(Key, Vec<u8>)> = model.items.clone().into_iter().collect();
        assert_eq!(contents, want, "{at}: contents diverged");
        assert_eq!(kv.len(), model.items.len(), "{at}: len");
        assert_eq!(kv.evictions(), model.evictions, "{at}: evictions");
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
    let (session, clock) = session_over(&store);
    let mut rid = 0u64;
    let mut last_detected = None;
    for op in script {
        match *op {
            SOp::Put(k, v) => {
                let _ = store.set(&lease, make_key(k), &raw(&v.to_le_bytes()));
            }
            SOp::WireSet { k, v, ttl, how } => {
                if let Some(sent) = wire_rid(how, &mut rid) {
                    wire_set(&session, k, v, ttl, sent);
                }
            }
            SOp::Tick => {
                clock.0.fetch_add(TICK_MS, Ordering::Relaxed);
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
            SOp::Sync => {
                let _ = store.sync_shard(0);
            }
        }
    }
    let _ = store.sync_shard(0);
}

/// Layer 2 verifier: the recovered store's contents, read by point `get`s
/// over the key space, equal the model after some prefix of the script.
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

    // Cas ids are seeded from the epoch clock at the first wire mutation;
    // the cut is compared with every item's cas field blanked.
    let mut recovered: BTreeMap<Key, Vec<u8>> = (0..KEYS)
        .filter_map(|k| Some((make_key(k), store.get(&make_key(k), <[u8]>::to_vec)?)))
        .collect();
    if recovered.len() != store.len() {
        return Err(format!(
            "crash_at={crash_at}: {} items recovered, {} of them under the script's keys",
            store.len(),
            recovered.len()
        ));
    }
    for value in recovered.values_mut() {
        value[12..20].fill(0);
    }
    let mut model = Model::new(CAP);
    let mut now_ms = T0_MS;
    if recovered == model.items {
        return Ok(());
    }
    for op in script {
        match *op {
            SOp::Put(k, v) => {
                model.upsert(make_key(k), raw(&v.to_le_bytes()));
            }
            SOp::WireSet { k, v, ttl, how } => {
                if matches!(how, Wire::Plain | Wire::Fresh) {
                    model.upsert(make_key(k), wire_item(v, ttl, now_ms, 0));
                }
            }
            SOp::Tick => now_ms += TICK_MS,
            SOp::Del(k) => {
                model.remove(&make_key(k));
            }
            SOp::Update(k, v) | SOp::Detected(k, v) => {
                model.decide_and_apply(make_key(k), v);
            }
            SOp::Retry | SOp::Get(_) | SOp::Sync => {}
        }
        if recovered == model.items {
            return Ok(());
        }
    }
    Err(format!(
        "crash_at={crash_at}: recovered contents match no prefix of the history: \
         {} entries",
        recovered.len()
    ))
}

/// The wire `set`'s cases, spelled out: over an absent, a live (same size,
/// resized) and an expired key; sessionless and under a rid — first
/// execution, replay, stale — interleaved with the reading verbs, on all
/// three backends, roomy and evicting.
#[test]
fn wire_set_matches_the_reading_path_over_absent_live_and_expired_keys() {
    use Wire::*;
    let set = |k, v, ttl, how| SOp::WireSet { k, v, ttl, how };
    let script = [
        set(1, 0x0107, 0, Plain), // absent
        set(1, 0x0109, 0, Plain), // live, same size
        set(1, 0x0509, 1, Plain), // live, resized, will expire
        SOp::Tick,
        set(1, 0x0203, 0, Plain),  // expired
        set(2, 0x0011, 1, Fresh),  // absent, first execution
        set(2, 0x0012, 0, Replay), // replayed: not applied
        SOp::Retry,
        SOp::Tick,
        set(2, 0x0313, 1, Fresh), // expired, first execution
        set(2, 0x0014, 0, Stale), // refused: not applied
        set(2, 0x0015, 0, Fresh), // live, first execution
        SOp::Update(2, 6),        // a reading verb sees the wire's bytes
        SOp::Detected(1, 7),
        set(1, 0x0016, 0, Replay), // replays the detected op's reply
        SOp::Get(1),
        SOp::Sync,
        set(1, 0x0717, 2, Plain), // copy-on-write arm (Montage)
        SOp::Del(1),
        set(1, 0x0018, 0, Fresh), // absent again
        set(3, 0x0019, 0, Plain),
        set(0, 0x001a, 0, Plain),
        SOp::Put(9, 9),
        SOp::Put(8, 8),
        SOp::Put(7, 7),
        set(3, 0x021b, 0, Plain), // the small shape has evicted by now
    ];
    check_live_backends(&script);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Random scripts over every entry point: live equivalence with the
    /// model on all three backends (roomy and evicting), then sampled crash
    /// points on the Montage-backed store where the recovered contents must
    /// read as a consistent prefix. Bounded (8 scripts × ~12 points) for
    /// CI; the exhaustive sweeps in `crash_sweep.rs` cover depth.
    #[test]
    fn store_matches_the_model_live_and_across_crash_cuts(
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
