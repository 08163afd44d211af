//! Store correctness against one model, live and across crashes: random
//! scripts over every mutation entry point (`set`, `delete`, `update`,
//! `detected_update` under several sessions, a blind retry of the last
//! request id, and the wire protocol's plain `set`) and `get`, replayed
//! against a `BTreeMap` model that also tracks LRU order and each session's
//! `(rid, op_kind, result)` descriptor.
//!
//! The wire `set` is the one verb the protocol runs *blind* — it never reads
//! the item it overwrites — where every other decision goes through the
//! locked read → decide → apply. The model spells out what that reading
//! path yields for a `set` (an unconditional upsert of the encoded item,
//! `STORED`, over an absent, a live or an expired key alike; under a session
//! a first execution, a replay, a stale refusal), so replies and contents
//! are held byte-identical to it.
//!
//! Two layers:
//!
//! 1. **Live, all three item backends** — the identical script runs on a
//!    DRAM, an NVM (Ralloc) and a Montage-backed [`KvStore`], once roomy
//!    and once at a capacity far below the key space. After every step the
//!    store must agree with the model on every reply, on contents, on each
//!    stripe's recency order (read through [`KvStore::items_by_recency`],
//!    which does not touch it), on the session descriptors, `len()` and
//!    `evictions()` — and therefore on **which key each eviction took**.
//!    The backends share one write path, so they may not diverge from the
//!    model or from each other.
//! 2. **Montage × crash cuts, one judge** — [`judge`] holds a recovered
//!    [`ShardedKvStore`] to the store's crash contract: each shard's state
//!    is what some prefix of its routed history produced, contents and
//!    session descriptors *in the same prefix* (a half-applied session
//!    fails), the crashed (victim) shard alone may stop short, and the
//!    descriptor counters `stats` reports agree with what recovered. It
//!    judges the proptest's sampled cuts at 1 and 4 shards, a synced clean
//!    cut at both, and two exhaustive shard sweeps (shard containment,
//!    descriptor atomicity); tampered clean cuts show it is not vacuous.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kvstore::protocol::{Clock, Session};
use kvstore::{
    make_key, DetectOutcome, DetectedWrite, Key, KvBackend, KvStore, ShardedKvStore, StoreLease,
    StoreRecoveryReport,
};
use montage::{EpochSys, EsysConfig, RecoveryError};
use pmem::{PmemConfig, PmemPool};
use pmem_chaos::{shard_crash_sweep, SweepConfig, SweepReport};
use proptest::prelude::*;
use ralloc::Ralloc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KEYS: u64 = 30;
const STRIPES: usize = 4;
const CAP: usize = 4096; // far above KEYS: the LRU must never evict mid-test
/// The eviction case: one stripe (the model keeps one LRU list), six slots.
const SMALL: (usize, usize) = (1, 6);
/// Durable sessions the detected ops run under; the wire's runs under 0.
const SESSIONS: u64 = 3;
const WIRE_SID: u64 = 0;
/// The op kind the protocol records for a `set`.
const SET_KIND: u8 = 1;

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
    /// The same decision through `detected_update`, under session `sid`'s
    /// next rid, recording op kind [`kind_of`]`(v)`.
    Detected {
        sid: u64,
        k: u64,
        v: u64,
    },
    /// Blind retry of the last fresh session request: must replay, not
    /// re-apply.
    Retry,
    Get(u64),
    /// Syncs every shard.
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
        3 => (0..SESSIONS, 0..KEYS, any::<u64>())
            .prop_map(|(sid, k, v)| SOp::Detected { sid, k, v }),
        1 => Just(SOp::Retry),
        2 => (0..KEYS).prop_map(SOp::Get),
        1 => Just(SOp::Sync),
    ]
}

/// Session traffic alone: detected ops under every session on six keys (so
/// sessions meet on a key), blind retries and syncs.
fn session_op_strategy() -> impl Strategy<Value = SOp> {
    prop_oneof![
        5 => (0..SESSIONS, 0..2 * SESSIONS, any::<u64>())
            .prop_map(|(sid, k, v)| SOp::Detected { sid, k, v }),
        1 => Just(SOp::Retry),
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

/// Blanks an item's cas field. Cas ids are seeded from the epoch clock at
/// the first wire mutation, so a crash cut is compared without them; the
/// short replies (`STORED`, `absent`) are no items and pass unchanged.
fn blank_cas(bytes: &mut [u8]) {
    if bytes.len() >= 20 {
        bytes[12..20].fill(0);
    }
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

/// The op kind a detected op records: `v`'s residue mod 4, the one
/// [`decide`] branches on, so a script records four kinds.
fn kind_of(v: u64) -> u8 {
    1 + (v % 4) as u8
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

/// Sends the step's `set` line; `make_key(k)` is the key it names.
fn wire_set(session: &Session, k: u64, v: u64, ttl: u8, rid: Option<u64>) -> String {
    let data = data_of(v);
    let rid = rid.map_or(String::new(), |r| format!(" rid={r}"));
    let line = format!("set {k} {} {ttl} {}{rid}", v as u32, data.len());
    session.execute_with(&line, &data, Some(WIRE_SID))
}

/// The item that `set` stores at clock `now_ms` under cas id `cas`.
fn wire_item(v: u64, ttl: u8, now_ms: u64, cas: u64) -> Vec<u8> {
    let expires_at = match ttl {
        0 => 0,
        s => now_ms + u64::from(s) * 1000,
    };
    item(v as u32, expires_at, cas, &data_of(v))
}

/// What a mutating step asks of the shard that owns `key`.
#[derive(Clone, Debug)]
struct Req {
    key: Key,
    /// A session request's `(sid, rid, op_kind)`.
    stamp: Option<(u64, u64, u8)>,
    act: Act,
}

#[derive(Clone, Debug)]
enum Act {
    /// A blind upsert of these bytes (`set`, the wire's `set`).
    Set(Vec<u8>),
    /// A blind delete.
    Delete,
    /// [`decide`]`(v, current)` under the stripe lock.
    Decide(u64),
}

impl Act {
    /// The decision the store runs for this request (and the model too).
    fn decide(&self, cur: Option<&[u8]>) -> (DetectedWrite, Vec<u8>) {
        match (self, cur) {
            (Act::Set(bytes), _) => (DetectedWrite::Upsert(bytes.clone()), b"STORED".to_vec()),
            (Act::Delete, Some(_)) => (DetectedWrite::Delete, b"DELETED".to_vec()),
            (Act::Delete, None) => (DetectedWrite::Keep, b"NOT_FOUND".to_vec()),
            (Act::Decide(v), cur) => decide(*v, cur),
        }
    }
}

/// The client side of a script: the sessions' clock, each session's rid
/// counter, the last fresh session request (what [`SOp::Retry`] resends)
/// and the wire's cas ids. The runner, the live check and the judge drive
/// one each, so all three see the same requests.
struct Client {
    now_ms: u64,
    rids: BTreeMap<u64, u64>,
    last: Option<Req>,
    cas: u64,
}

impl Client {
    /// `cas`: the id drawn before the script's first wire `set`.
    fn new(cas: u64) -> Self {
        Client {
            now_ms: T0_MS,
            rids: BTreeMap::new(),
            last: None,
            cas,
        }
    }

    /// The request `op` sends; `None` for a step that mutates nothing, or
    /// a replay, stale send or retry before its session has a rid.
    fn request(&mut self, op: SOp) -> Option<Req> {
        let (k, stamp, act) = match op {
            SOp::Put(k, v) => (k, None, Act::Set(raw(&v.to_le_bytes()))),
            SOp::WireSet { k, v, ttl, how } => {
                let rid = self.rids.entry(WIRE_SID).or_default();
                let sent = match how {
                    Wire::Plain => None,
                    Wire::Fresh => {
                        *rid += 1;
                        Some(*rid)
                    }
                    Wire::Replay if *rid > 0 => Some(*rid),
                    Wire::Stale if *rid > 0 => Some(*rid - 1),
                    Wire::Replay | Wire::Stale => return None,
                };
                // Every wire mutation draws the next cas id, whatever
                // becomes of it.
                self.cas += 1;
                let item = wire_item(v, ttl, self.now_ms, self.cas);
                (k, sent.map(|rid| (WIRE_SID, rid, SET_KIND)), Act::Set(item))
            }
            SOp::Del(k) => (k, None, Act::Delete),
            SOp::Update(k, v) => (k, None, Act::Decide(v)),
            SOp::Detected { sid, k, v } => {
                let rid = self.rids.entry(sid).or_default();
                *rid += 1;
                (k, Some((sid, *rid, kind_of(v))), Act::Decide(v))
            }
            SOp::Retry => return self.last.clone(),
            SOp::Tick => {
                self.now_ms += TICK_MS;
                return None;
            }
            SOp::Get(_) | SOp::Sync => return None,
        };
        let req = Req {
            key: make_key(k),
            stamp,
            act,
        };
        let fresh = match op {
            SOp::WireSet { how, .. } => matches!(how, Wire::Fresh),
            _ => stamp.is_some(),
        };
        if fresh {
            self.last = Some(req.clone());
        }
        Some(req)
    }
}

/// A store under test and the handles a script drives it through.
struct Rig {
    store: Arc<ShardedKvStore>,
    lease: StoreLease,
    session: Session,
    clock: Arc<ScriptClock>,
}

impl Rig {
    fn new(store: Arc<ShardedKvStore>) -> Self {
        let clock = Arc::new(ScriptClock(AtomicU64::new(T0_MS)));
        let session = Session::sharded(store.clone(), Arc::new(store.lease()));
        Rig {
            lease: store.lease(),
            session: session.with_clock(clock.clone()),
            store,
            clock,
        }
    }

    /// Runs one step and returns what the store answered: a wire reply as
    /// sent, a `get` as its value, a request's outcome (or refusal) as
    /// `Debug` text. Ops on a crashed shard degrade to errors.
    fn exec(&self, op: SOp, req: Option<&Req>) -> String {
        let store = &self.store;
        let Some(req) = req else {
            match op {
                SOp::Tick => {
                    self.clock.0.fetch_add(TICK_MS, Ordering::Relaxed);
                }
                SOp::Get(k) => return format!("{:?}", store.get(&make_key(k), <[u8]>::to_vec)),
                SOp::Sync => {
                    for s in 0..store.n_shards() {
                        let _ = store.sync_shard(s);
                    }
                }
                _ => {}
            }
            return String::new();
        };
        if let SOp::WireSet { k, v, ttl, .. } = op {
            return wire_set(&self.session, k, v, ttl, req.stamp.map(|(_, rid, _)| rid));
        }
        let (lease, key, act) = (&self.lease, &req.key, &req.act);
        let out = match (req.stamp, act) {
            (Some((sid, rid, kind)), _) => {
                store.detected(lease, sid, rid, kind, key, |c| act.decide(c))
            }
            (None, Act::Set(bytes)) => store
                .set(lease, *key, bytes)
                .map(|()| DetectOutcome::Applied(b"STORED".to_vec())),
            // The reply the delete decision gives for what the key held.
            (None, Act::Delete) => store
                .delete(lease, key)
                .map(|existed| DetectOutcome::Applied(act.decide(existed.then_some(&[])).1)),
            (None, Act::Decide(_)) => store
                .update(lease, key, |c| act.decide(c))
                .map(DetectOutcome::Applied),
        };
        out.map_or_else(|e| e.to_string(), |o| format!("{o:?}"))
    }
}

/// What [`Rig::exec`] must return for a step whose request the model
/// answered `out`: a wire reply in protocol text (a replay repeats the
/// recorded reply verbatim), any other entry point's outcome.
fn said(op: SOp, out: &DetectOutcome) -> String {
    match (op, out) {
        (SOp::WireSet { .. }, DetectOutcome::Applied(r) | DetectOutcome::Replayed(r)) => {
            String::from_utf8_lossy(r).into_owned()
        }
        (SOp::WireSet { .. }, DetectOutcome::Stale { last_rid }) => {
            format!("SERVER_ERROR stale request id (last acked {last_rid})")
        }
        _ => format!("{out:?}"),
    }
}

/// A session's descriptor: `(rid, op_kind, result)`.
type Desc = (u64, u8, Vec<u8>);

/// What one shard holds, cas ids blanked: the items under the script's
/// keys and the descriptors of its sessions.
type Cut = (BTreeMap<Key, Vec<u8>>, BTreeMap<u64, Desc>);

/// The reference shard: contents in key order, session descriptors, one
/// LRU list (oldest first), an eviction count. Exact for a one-stripe store
/// or one that never fills; a store's stripe holds the list cut to the
/// stripe's keys.
#[derive(Default)]
struct Model {
    items: BTreeMap<Key, Vec<u8>>,
    descs: BTreeMap<u64, Desc>,
    lru: Vec<Key>,
    cap: usize,
    evictions: usize,
}

impl Model {
    fn new(cap: usize) -> Self {
        Model {
            cap,
            ..Model::default()
        }
    }

    fn touch(&mut self, key: &Key) {
        if let Some(i) = self.lru.iter().position(|k| k == key) {
            let k = self.lru.remove(i);
            self.lru.push(k);
        }
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

    /// Runs `req` as the store does — a session's current rid replays, an
    /// older one is refused, a newer one applies and becomes the session's
    /// descriptor — and returns the outcome and the key evicted, if any.
    fn apply(&mut self, req: &Req) -> (DetectOutcome, Option<Key>) {
        if let Some((sid, rid, _)) = req.stamp {
            match self.descs.get(&sid) {
                Some((last_rid, _, result)) if rid == *last_rid => {
                    return (DetectOutcome::Replayed(result.clone()), None)
                }
                Some(&(last_rid, ..)) if rid < last_rid => {
                    return (DetectOutcome::Stale { last_rid }, None)
                }
                _ => {}
            }
        }
        let (write, reply) = req.act.decide(self.items.get(&req.key).map(Vec::as_slice));
        let victim = match write {
            DetectedWrite::Keep => None,
            DetectedWrite::Delete => {
                self.lru.retain(|k| *k != req.key);
                self.items.remove(&req.key);
                None
            }
            DetectedWrite::Upsert(value) => self.upsert(req.key, value),
        };
        if let Some((sid, rid, kind)) = req.stamp {
            self.descs.insert(sid, (rid, kind, reply.clone()));
        }
        (DetectOutcome::Applied(reply), victim)
    }

    /// Contents and descriptors, cas ids blanked.
    fn cut(&self) -> Cut {
        let mut cut = (self.items.clone(), self.descs.clone());
        cut.0.values_mut().for_each(|v| blank_cas(v));
        cut.1.values_mut().for_each(|d| blank_cas(&mut d.2));
        cut
    }
}

/// Layer 1: one script on one backend, the store held to the model after
/// every step. Panics on divergence (the proptest harness reports the
/// failing script).
fn check_live(name: &str, backend: KvBackend, (stripes, cap): (usize, usize), script: &[SOp]) {
    let kv = Arc::new(KvStore::new(backend, stripes, cap));
    let rig = Rig::new(ShardedKvStore::from_shards(vec![kv.clone()]));
    let mut client = Client::new(rig.store.next_cas());
    let mut model = Model::new(cap / stripes);
    for (step, &op) in script.iter().enumerate() {
        let at = format!("{name} cap {cap} step {step} {op:?}");
        let req = client.request(op);
        let got = rig.exec(op, req.as_ref());
        let (want, victim) = match (op, &req) {
            (SOp::Get(k), _) => {
                model.touch(&make_key(k));
                (format!("{:?}", model.items.get(&make_key(k))), None)
            }
            (_, Some(req)) => {
                let (out, victim) = model.apply(req);
                (said(op, &out), victim)
            }
            _ => (String::new(), None),
        };
        assert_eq!(got, want, "{at}: the reply diverged");
        // Contents and recency order, read without touching the LRU (so
        // checking costs the run nothing), then the sessions and the
        // accounting.
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
        let descs: BTreeMap<u64, Desc> = (0..SESSIONS)
            .filter_map(|sid| Some((sid, kv.session_descriptor(sid)?)))
            .collect();
        assert_eq!(descs, model.descs, "{at}: session descriptors diverged");
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

/// Replays `script` over a Montage store formatted on the caller's (maybe
/// chaos-armed) pools, then syncs every shard: each shard but `victim` must
/// sync cleanly, so it is entitled to lose nothing.
fn run(pools: &[PmemPool], victim: Option<usize>, script: &[SOp]) {
    let store = ShardedKvStore::format_pools(pools.to_vec(), esys_cfg(), STRIPES, CAP);
    let rig = Rig::new(store);
    let mut client = Client::new(0);
    for &op in script {
        rig.exec(op, client.request(op).as_ref());
    }
    for s in 0..pools.len() {
        let synced = rig.store.sync_shard(s);
        assert!(
            synced.is_ok() || Some(s) == victim,
            "healthy shard {s} failed its final sync: {synced:?}"
        );
    }
}

/// Recovers crashed images as one store, a sweep thread per shard.
fn recover(images: Vec<PmemPool>) -> (Arc<ShardedKvStore>, StoreRecoveryReport) {
    let n = images.len();
    ShardedKvStore::recover(images, esys_cfg(), STRIPES, CAP, n)
}

/// One shard's pool when `n_shards` split 8 MiB (a crash copies every
/// pool's whole image, so the 4-shard cuts stay as cheap as the 1-shard).
fn pool_cfg(n_shards: usize) -> PmemConfig {
    PmemConfig::strict_for_test((8 << 20) / n_shards)
}

/// `script` run to the end over `n_shards` fresh pools, synced, crashed and
/// recovered.
fn clean_cut(n_shards: usize, script: &[SOp]) -> (Arc<ShardedKvStore>, StoreRecoveryReport) {
    let pools: Vec<PmemPool> = (0..n_shards)
        .map(|_| PmemPool::new(pool_cfg(n_shards)))
        .collect();
    run(&pools, None, script);
    recover(pools.iter().map(PmemPool::crash).collect())
}

/// The store's crash contract, judged against the script that built it.
/// Each shard's model replays the requests [`ShardedKvStore::shard_of`]
/// routes to it (routing is stable across restarts). Every shard but
/// `victim` must hold exactly its whole history; the victim must hold what
/// **one** prefix of its routed requests produced, contents and session
/// descriptors together. Besides: no fatal recovery (the victim's
/// unformatted pool — a cut before its header landed — aside), no
/// quarantine, no stray item, and per-shard and merged `detect_stats`
/// counting exactly the descriptors that recovered.
fn judge(
    store: &ShardedKvStore,
    report: &StoreRecoveryReport,
    victim: Option<usize>,
    script: &[SOp],
    crash_at: u64,
) -> Result<(), String> {
    for sr in &report.shards {
        let shard = sr.shard;
        if let Some(err) = &sr.fatal {
            if Some(shard) != victim || !matches!(err, RecoveryError::UnformattedPool) {
                return Err(format!("crash_at={crash_at}: shard {shard} fatal: {err}"));
            }
        }
        if sr.quarantined != 0 {
            return Err(format!(
                "crash_at={crash_at}: clean crash quarantined {} payloads on shard {shard}",
                sr.quarantined
            ));
        }
    }

    let n = store.n_shards();
    let mut models: Vec<Model> = (0..n).map(|_| Model::new(CAP)).collect();
    let mut prefixes = vec![Cut::default()]; // the victim's, shortest first
    let (mut keys, mut sids) = (BTreeSet::new(), BTreeSet::new());
    let mut client = Client::new(0);
    for &op in script {
        let Some(req) = client.request(op) else {
            continue;
        };
        let s = store.shard_of(&req.key);
        keys.insert(req.key);
        sids.extend(req.stamp.map(|(sid, ..)| sid));
        models[s].apply(&req);
        if Some(s) == victim {
            prefixes.push(models[s].cut());
        }
    }

    let mut found = vec![Cut::default(); n];
    for key in &keys {
        if let Some(mut value) = store.get(key, <[u8]>::to_vec) {
            blank_cas(&mut value);
            found[store.shard_of(key)].0.insert(*key, value);
        }
    }
    for (s, cut) in found.iter_mut().enumerate() {
        for &sid in &sids {
            if let Some(mut desc) = store.shard_session_descriptor(s, sid) {
                blank_cas(&mut desc.2);
                cut.1.insert(sid, desc);
            }
        }
    }
    let items: usize = found.iter().map(|cut| cut.0.len()).sum();
    if items != store.len() {
        return Err(format!(
            "crash_at={crash_at}: {} items recovered, {items} of them under the script's keys",
            store.len()
        ));
    }
    // The descriptor counters `stats` reports must count the recovered
    // table the judge just walked.
    let per_shard = store.detect_stats_per_shard();
    for (s, (stats, cut)) in per_shard.iter().zip(&found).enumerate() {
        if stats.descriptors != cut.1.len() as u64 {
            return Err(format!(
                "crash_at={crash_at}: shard {s} reports {} descriptors, recovery found {}",
                stats.descriptors,
                cut.1.len()
            ));
        }
    }
    let merged = store.detect_stats_merged().descriptors;
    if merged != per_shard.iter().map(|s| s.descriptors).sum::<u64>() {
        return Err(format!(
            "crash_at={crash_at}: merged descriptor count {merged} disagrees with the shards'"
        ));
    }

    for (s, (cut, model)) in found.iter().zip(&models).enumerate() {
        if Some(s) != victim && *cut != model.cut() {
            return Err(format!(
                "crash_at={crash_at}: healthy shard {s} diverged from its history: \
                 recovered {cut:?}, expected {:?}",
                model.cut()
            ));
        }
    }
    match victim {
        Some(v) if !prefixes.contains(&found[v]) => Err(format!(
            "crash_at={crash_at}: victim shard {v} matches no prefix of its {} routed \
             requests: {:?}",
            prefixes.len() - 1,
            found[v]
        )),
        _ => Ok(()),
    }
}

/// Sweeps `script` over `n_shards` Montage shards on pools built from
/// `base`, crashing `victim` at the points `cfg` picks, and judges every cut.
fn sweep(
    cfg: &SweepConfig,
    base: PmemConfig,
    n_shards: usize,
    victim: usize,
    script: &[SOp],
) -> SweepReport {
    shard_crash_sweep(
        cfg,
        base,
        n_shards,
        victim,
        |pools| run(pools, Some(victim), script),
        |images, crash_at| {
            let (store, report) = recover(images);
            judge(&store, &report, Some(victim), script, crash_at)
        },
    )
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
        SOp::Detected {
            sid: WIRE_SID,
            k: 1,
            v: 7,
        },
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
    /// model on all three backends (roomy and evicting), then the judge at
    /// 12 sampled crash points on 1 and 4 shards (victim `seed % 4`).
    #[test]
    fn store_matches_the_model_live_and_across_crash_cuts(
        script in proptest::collection::vec(sop_strategy(), 20..60),
        seed in any::<u64>(),
    ) {
        check_live_backends(&script);

        for n_shards in [1, 4] {
            let cfg = SweepConfig { exhaustive_limit: 0, samples: 12, seed };
            let victim = seed as usize % n_shards;
            let report = sweep(&cfg, pool_cfg(n_shards), n_shards, victim, &script);
            prop_assert!(
                report.total_events > 0 && !report.crash_points.is_empty(),
                "sweep exercised nothing: {} events", report.total_events
            );
            prop_assert!(report.is_ok(), "{} shards: {:?}", n_shards, report.failures);
        }
    }

    /// Random scripts synced, crashed and recovered on 1 and on 4 shards:
    /// recovery is clean and the judge, with no victim, holds every shard to
    /// its whole routed history with no stray item — sharding changes where
    /// the bytes live, never what the store recovers.
    #[test]
    fn sharded_and_single_shard_clean_cuts_recover_the_whole_history(
        script in proptest::collection::vec(sop_strategy(), 10..60),
    ) {
        for n_shards in [1, 4] {
            let (store, report) = clean_cut(n_shards, &script);
            prop_assert!(report.is_clean(), "{} shards: {:?}", n_shards, report);
            let clean = judge(&store, &report, None, &script, u64::MAX);
            prop_assert!(clean.is_ok(), "{} shards, clean cut: {:?}", n_shards, clean);
        }
    }

    /// Session traffic alone — detected ops of every kind under three
    /// sessions on a few shared keys, blind retries and syncs — crashed at
    /// 12 sampled points on one shard (the cuts above cover 4 shards). The
    /// judge matches contents and descriptors in one prefix, so every
    /// session recovers completed-with-result or never-happened: a
    /// descriptor without its write, or a write without its descriptor,
    /// matches no prefix. The scripts are short; a 2 MiB pool holds them.
    #[test]
    fn sessions_recover_whole_or_not_at_all(
        script in proptest::collection::vec(session_op_strategy(), 8..28),
        seed in any::<u64>(),
    ) {
        let cfg = SweepConfig { exhaustive_limit: 0, samples: 12, seed };
        let report = sweep(&cfg, PmemConfig::strict_for_test(2 << 20), 1, 0, &script);
        prop_assert!(
            report.total_events > 0 && !report.crash_points.is_empty(),
            "sweep exercised nothing: {} events", report.total_events
        );
        prop_assert!(report.is_ok(), "{:?}", report.failures);
    }
}

/// Four rounds of eight sessions, each a detected upsert of its own key
/// under its next rid, every shard synced between rounds: each session's
/// descriptor and payload live — and co-crash — on its key's shard.
fn descriptor_script() -> Vec<SOp> {
    (0..4)
        .flat_map(|round| {
            (0..8)
                .map(move |sid| SOp::Detected {
                    sid,
                    k: 1000 + sid,
                    v: 4 * round + 2 + (sid & 1),
                })
                .chain([SOp::Sync])
        })
        .collect()
}

/// An exhaustive crash sweep over a 4-shard store, crashing shard 1 at every
/// one of its persistence events: the judge finds a consistent prefix on the
/// victim while the untouched shards lose nothing past their final sync.
#[test]
fn sharded_store_crash_is_contained_to_the_victim_shard() {
    let mut rng = SmallRng::seed_from_u64(0x5AA4D);
    let script: Vec<SOp> = (1..=48)
        .map(|i| match rng.gen_range(0u64..10) {
            0..=5 => SOp::Put(rng.gen_range(0..24), i),
            6..=7 => SOp::Del(rng.gen_range(0..24)),
            _ => SOp::Sync,
        })
        .collect();
    let cfg = SweepConfig {
        exhaustive_limit: 4096,
        samples: 64,
        seed: 0xD15EA5E,
    };
    let report = sweep(&cfg, PmemConfig::strict_for_test(4 << 20), 4, 1, &script);
    assert!(
        report.total_events >= 64,
        "victim shard saw too few events for a meaningful sweep: {}",
        report.total_events
    );
    assert_eq!(
        report.crash_points.len() as u64,
        report.total_events + 1,
        "shard sweep must be exhaustive"
    );
    report.assert_ok();
}

/// At every one of the victim shard's persistence events, each session's
/// descriptor and payload survive or vanish *together* — the judge finds no
/// half-applied mutation at any crash point — and the healthy shards keep
/// every synced round.
#[test]
fn detected_descriptor_and_payload_are_atomic_per_shard() {
    let cfg = SweepConfig {
        exhaustive_limit: 768,
        samples: 96,
        seed: 0x0DE7EC,
    };
    let script = descriptor_script();
    let report = sweep(&cfg, PmemConfig::strict_for_test(4 << 20), 4, 1, &script);
    assert!(
        report.total_events >= 64,
        "victim shard saw too few events for a meaningful sweep: {}",
        report.total_events
    );
    report.assert_ok();
}

/// The judge is not vacuous: a synced clean cut passes, and the same cut
/// with one property broken through the public API fails — on the victim
/// shard, where only the prefix search can reject it, or on a healthy one.
#[test]
fn judge_rejects_each_tampered_property() {
    let script = descriptor_script();
    // Breaks a fresh clean cut at a key on session 0's shard (the victim)
    // or on a healthy one; the judge must name what broke.
    let rejects = |on_victim: bool,
                   caught_by: &str,
                   tamper: &dyn Fn(&ShardedKvStore, &StoreLease, Key)| {
        let (store, report) = clean_cut(4, &script);
        let victim = store.shard_of(&make_key(1000));
        judge(&store, &report, Some(victim), &script, 0).expect("an untouched clean cut passes");
        let key = (1000..1008)
            .map(make_key)
            .find(|k| (store.shard_of(k) == victim) == on_victim)
            .expect("the sessions' keys span the victim and a healthy shard");
        tamper(&store, &store.lease(), key);
        let verdict = judge(&store, &report, Some(victim), &script, 0);
        assert!(
            verdict.as_ref().is_err_and(|e| e.contains(caught_by)),
            "{verdict:?}"
        );
    };
    // A changed value.
    rejects(true, "no prefix", &|store, lease, key| {
        store.set(lease, key, &raw(b"tampered")).unwrap()
    });
    // A descriptor advanced without its write: a fresh rid that keeps.
    rejects(true, "no prefix", &|store, lease, key| {
        let keep = |_: Option<&[u8]>| (DetectedWrite::Keep, b"tampered".to_vec());
        let out = store.detected(lease, 0, 5, kind_of(2), &key, keep);
        assert!(matches!(out, Ok(DetectOutcome::Applied(_))));
    });
    // An acked key deleted on a healthy shard.
    rejects(false, "healthy shard", &|store, lease, key| {
        assert!(store.delete(lease, &key).unwrap())
    });
}
