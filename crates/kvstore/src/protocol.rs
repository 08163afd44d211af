//! memcached text-protocol surface over [`crate::ShardedKvStore`].
//!
//! The Kjellqvist et al. variant the paper benchmarks links the client
//! directly against the cache, dispensing with sockets — so this module
//! exposes the protocol as a function call: one command line (+ optional
//! data block) in, one response out — appended to the caller's buffer
//! ([`Session::execute_into`], what a server's connections use) or returned
//! as a string ([`Session::execute`]). Implements the core command set
//! (`get`/`gets`, `set`/`add`/`replace`/`cas`, `delete`, `touch`,
//! `incr`/`decr`) with memcached item semantics: 32-bit client flags, lazy
//! expiration, and 64-bit cas ids.
//!
//! Items are encoded inside the store's value bytes as
//! `flags: u32 | expires_at_ms: u64 | cas: u64 | data`, so every backend
//! (DRAM, NVM, Montage) — and Montage crash recovery — carries the metadata
//! for free.
//!
//! ## Detectable mutations (exactly-once retries)
//!
//! A mutating command may carry a trailing `rid=<n>` token. When the caller
//! also supplies a session id ([`Session::execute_into`] — the server binds
//! one per connection via its `session <id>` command), the mutation routes
//! through the store's detectable-operations path
//! ([`crate::ShardedKvStore::detected`]): the command's *decision* — what to
//! write and what to reply — runs against the key's current value inside
//! one epoch window together with the session-descriptor update, and a
//! retried `rid` is answered from the descriptor instead of re-applying.
//! Reads never carry rids; they are idempotent. A `rid` without a session
//! is a client error: dedupe identity cannot be per-connection, or it would
//! not survive a reconnect.
//!
//! **Wire contract: one outstanding rid per session.** A session must wait
//! for rid *n*'s reply before sending rid *n+1*. Only the newest rid per
//! (session, shard) is durably retained, so a client that pipelines two
//! rid mutations and crashes before either ack can replay only the later
//! one — the earlier rid is answered `SERVER_ERROR stale request id`, its
//! recorded reply already overwritten. (The rids themselves need not be
//! dense: a session spanning shards leaves gaps in each shard's sequence,
//! which is why the server cannot detect pipelining by rejecting skips.)

use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::session_table::{DetectOutcome, DetectedWrite};
use crate::{Key, ShardedKvStore, StoreLease};

const META: usize = 20; // flags u32 + expires_at_ms u64 + cas u64

// Descriptor op kinds (recorded for observability; replay keys on rid).
const OP_SET: u8 = 1;
const OP_ADD: u8 = 2;
const OP_REPLACE: u8 = 3;
const OP_CAS: u8 = 4;
const OP_DELETE: u8 = 5;
const OP_TOUCH: u8 = 6;
const OP_INCR: u8 = 7;
const OP_DECR: u8 = 8;

/// Source of "now" (ms since the Unix epoch) for item expiry. Injectable so
/// expiry is deterministic under test; the default is the wall clock.
pub trait Clock: Send + Sync {
    fn now_ms(&self) -> u64;
}

/// The wall clock.
struct SystemClock;

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_millis() as u64
    }
}

/// What the layers in front of a session must know about a command verb
/// before executing it: the framer whether a data block follows the line,
/// the batcher whether it mutates (pins its key's shard, owes a fence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verb {
    pub has_data: bool,
    pub mutates: bool,
}

/// Classifies a command verb; `None` for verbs the protocol does not know
/// (a session answers those `ERROR`). The one place that lists the verbs
/// [`Session::execute_into`] dispatches.
pub fn verb(cmd: &str) -> Option<Verb> {
    let (has_data, mutates) = match cmd {
        "get" | "gets" => (false, false),
        "set" | "add" | "replace" | "cas" => (true, true),
        "delete" | "touch" | "incr" | "decr" => (false, true),
        _ => return None,
    };
    Some(Verb { has_data, mutates })
}

/// One client session. Commands route through a [`ShardedKvStore`], with
/// worker ids leased lazily per shard through the session's [`StoreLease`].
pub struct Session {
    store: Arc<ShardedKvStore>,
    lease: Arc<StoreLease>,
    clock: Arc<dyn Clock>,
}

/// A decoded item: the protocol metadata plus the client's data bytes,
/// borrowed from where the store keeps them.
struct Item<'a> {
    flags: u32,
    expires_at: u64,
    cas: u64,
    data: &'a [u8],
}

fn expired(expires_at: u64, now_ms: u64) -> bool {
    expires_at != 0 && expires_at <= now_ms
}

fn make_item_at(flags: u32, expires_at: u64, cas: u64, data: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(META + data.len());
    v.extend_from_slice(&flags.to_le_bytes());
    v.extend_from_slice(&expires_at.to_le_bytes());
    v.extend_from_slice(&cas.to_le_bytes());
    v.extend_from_slice(data);
    v
}

fn expires_at(exptime_s: u64, now_ms: u64) -> u64 {
    if exptime_s == 0 {
        0
    } else {
        now_ms + exptime_s * 1000
    }
}

fn parse_item(bytes: &[u8]) -> Item<'_> {
    Item {
        flags: u32::from_le_bytes(bytes[..4].try_into().unwrap()),
        expires_at: u64::from_le_bytes(bytes[4..12].try_into().unwrap()),
        cas: u64::from_le_bytes(bytes[12..20].try_into().unwrap()),
        data: &bytes[META..],
    }
}

/// A refused command line: the reply, verbatim.
type Refused = &'static str;

const BAD_FORMAT: Refused = "CLIENT_ERROR bad command line format";

fn key_of(s: &str) -> Result<Key, Refused> {
    let b = s.as_bytes();
    if b.is_empty() || b.len() > 32 {
        return Err("CLIENT_ERROR bad key");
    }
    let mut k = [0u8; 32];
    k[..b.len()].copy_from_slice(b);
    Ok(k)
}

fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends one `VALUE <name> <flags> <len>[ <cas>]\r\n<data>\r\n` block:
/// the value's bytes exactly as stored, copied once, into `out`.
fn push_value(out: &mut Vec<u8>, name: &str, item: &Item<'_>, with_cas: bool) {
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(name.as_bytes());
    out.push(b' ');
    push_decimal(out, u64::from(item.flags));
    out.push(b' ');
    push_decimal(out, item.data.len() as u64);
    if with_cas {
        out.push(b' ');
        push_decimal(out, item.cas);
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(item.data);
    out.extend_from_slice(b"\r\n");
}

/// One mutating command, parsed down to what its decision needs.
enum MutOp<'a> {
    Store {
        verb: &'a str,
        flags: u32,
        exptime_s: u64,
        data: &'a [u8],
        casid: u64,
    },
    Delete,
    Touch {
        exptime_s: u64,
    },
    Arith {
        incr: bool,
        delta: u64,
    },
}

impl MutOp<'_> {
    fn kind(&self) -> u8 {
        match self {
            MutOp::Store { verb, .. } => match *verb {
                "add" => OP_ADD,
                "replace" => OP_REPLACE,
                "cas" => OP_CAS,
                _ => OP_SET,
            },
            MutOp::Delete => OP_DELETE,
            MutOp::Touch { .. } => OP_TOUCH,
            MutOp::Arith { incr: true, .. } => OP_INCR,
            MutOp::Arith { incr: false, .. } => OP_DECR,
        }
    }

    /// Whether the decision ignores the key's current item: plain `set` alone.
    fn is_blind(&self) -> bool {
        matches!(self, MutOp::Store { verb: "set", .. })
    }

    /// The command's semantics as a pure decision over the key's current
    /// live item: what to write, and what to reply. Shared verbatim by the
    /// plain path and the detected (exactly-once) path, so retries replay
    /// exactly what a first execution would have said.
    fn decide(&self, cur: Option<&Item<'_>>, now_ms: u64, new_cas: u64) -> (DetectedWrite, String) {
        match self {
            MutOp::Store {
                verb,
                flags,
                exptime_s,
                data,
                casid,
            } => {
                match (*verb, cur) {
                    ("add", Some(_)) | ("replace", None) => {
                        return (DetectedWrite::Keep, "NOT_STORED".into())
                    }
                    ("cas", None) => return (DetectedWrite::Keep, "NOT_FOUND".into()),
                    ("cas", Some(it)) if it.cas != *casid => {
                        return (DetectedWrite::Keep, "EXISTS".into())
                    }
                    _ => {}
                }
                let bytes = make_item_at(*flags, expires_at(*exptime_s, now_ms), new_cas, data);
                (DetectedWrite::Upsert(bytes), "STORED".into())
            }
            MutOp::Delete => match cur {
                Some(_) => (DetectedWrite::Delete, "DELETED".into()),
                None => (DetectedWrite::Keep, "NOT_FOUND".into()),
            },
            MutOp::Touch { exptime_s } => match cur {
                Some(it) => {
                    let bytes =
                        make_item_at(it.flags, expires_at(*exptime_s, now_ms), new_cas, it.data);
                    (DetectedWrite::Upsert(bytes), "TOUCHED".into())
                }
                None => (DetectedWrite::Keep, "NOT_FOUND".into()),
            },
            MutOp::Arith { incr, delta } => {
                let Some(it) = cur else {
                    return (DetectedWrite::Keep, "NOT_FOUND".into());
                };
                let Some(v) = std::str::from_utf8(it.data)
                    .ok()
                    .and_then(|s| s.trim().parse::<u64>().ok())
                else {
                    return (
                        DetectedWrite::Keep,
                        "CLIENT_ERROR cannot increment or decrement non-numeric value".into(),
                    );
                };
                // memcached semantics: incr wraps at 2^64, decr floors at 0.
                let next = if *incr {
                    v.wrapping_add(*delta)
                } else {
                    v.saturating_sub(*delta)
                };
                let text = next.to_string();
                let bytes = make_item_at(it.flags, it.expires_at, new_cas, text.as_bytes());
                (DetectedWrite::Upsert(bytes), text)
            }
        }
    }
}

/// A command line's arguments: the tokens after the verb, `rid=` stripped.
type Args<'a> = std::str::SplitWhitespace<'a>;

impl Session {
    /// A session over `store` operating under `lease`'s worker ids (a
    /// server worker shares one lease between its session and its batches).
    pub fn sharded(store: Arc<ShardedKvStore>, lease: Arc<StoreLease>) -> Self {
        Session {
            store,
            lease,
            clock: Arc::new(SystemClock),
        }
    }

    /// Replaces the expiry clock (deterministic tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Executes one command line with no session identity: `rid=` tokens
    /// are refused. Storage commands (`set`/`add`/`replace`/`cas`) take
    /// their data block in `data`; others ignore it. Returns the protocol
    /// response (without trailing CRLF).
    pub fn execute(&self, line: &str, data: &[u8]) -> String {
        self.execute_with(line, data, None)
    }

    /// [`Session::execute`] with an attached durable session id: mutating
    /// commands carrying `rid=<n>` run exactly-once through the store's
    /// descriptor table. An owning convenience over
    /// [`Session::execute_into`]: a reply carrying a non-UTF-8 value is
    /// transcoded lossily here (its announced length then no longer counts
    /// the text) — byte-exact callers use `execute_into`.
    pub fn execute_with(&self, line: &str, data: &[u8], session_id: Option<u64>) -> String {
        // Sized for a one-key `get` of a small value: one allocation, where
        // growing from empty would take five.
        let mut out = Vec::with_capacity(256);
        self.execute_into(line, data, session_id, &mut |_| {}, &mut out);
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// The one implementation: executes a command line and appends the
    /// protocol response (without trailing CRLF) to `out` — a `get` writes
    /// its `VALUE` blocks straight from the stored bytes, allocating
    /// nothing. A mutation announces the shard it routes to through
    /// `on_shard` before it touches the store, so a group-commit scope can
    /// pin that shard ([`crate::StoreBatch::pin_shard`]) on the same
    /// routing computation. A caller that must retract a reply (a handler
    /// panic, `noreply`) truncates `out` back to its length before the call.
    pub fn execute_into(
        &self,
        line: &str,
        data: &[u8],
        session_id: Option<u64>,
        on_shard: &mut dyn FnMut(usize),
        out: &mut Vec<u8>,
    ) {
        if let Err(refusal) = self.dispatch(line, data, session_id, on_shard, out) {
            out.extend_from_slice(refusal.as_bytes());
        }
    }

    fn dispatch(
        &self,
        line: &str,
        data: &[u8],
        session_id: Option<u64>,
        on_shard: &mut dyn FnMut(usize),
        out: &mut Vec<u8>,
    ) -> Result<(), Refused> {
        let mut args = line.split_whitespace();
        let cmd = args.next().filter(|c| verb(c).is_some()).ok_or("ERROR")?;
        // A request id rides as the line's last token.
        let mut ctx = None;
        if let Some(t) = args
            .clone()
            .next_back()
            .and_then(|t| t.strip_prefix("rid="))
        {
            let rid = t
                .parse::<u64>()
                .map_err(|_| "CLIENT_ERROR bad request id")?;
            let sid = session_id.ok_or("CLIENT_ERROR rid requires a session")?;
            args.next_back();
            ctx = Some((sid, rid));
        }
        let (key, op) = match cmd {
            "get" | "gets" => {
                self.do_get(args, cmd == "gets", out);
                return Ok(());
            }
            "set" | "add" | "replace" | "cas" => store_op(cmd, args, data)?,
            "delete" => (key_of(args.next().ok_or(BAD_FORMAT)?)?, MutOp::Delete),
            "touch" => {
                let (Some(karg), Some(exptime)) = (args.next(), args.next()) else {
                    return Err(BAD_FORMAT);
                };
                let key = key_of(karg)?;
                let exptime_s = exptime.parse().map_err(|_| BAD_FORMAT)?;
                (key, MutOp::Touch { exptime_s })
            }
            "incr" | "decr" => {
                let (Some(karg), Some(delta)) = (args.next(), args.next()) else {
                    return Err(BAD_FORMAT);
                };
                let key = key_of(karg)?;
                let delta = delta
                    .parse()
                    .map_err(|_| "CLIENT_ERROR invalid numeric delta argument")?;
                let incr = cmd == "incr";
                (key, MutOp::Arith { incr, delta })
            }
            _ => return Err("ERROR"),
        };
        self.mutate(ctx, key, op, on_shard, out);
        Ok(())
    }

    /// Runs one mutating command: the op's decision against the key's
    /// current live item, then the write. With a `(sid, rid)` context the
    /// whole thing — read, decision, write, descriptor — runs inside the
    /// store's detected path; without one it runs the same locked
    /// read-decide-write minus the descriptor (at-most-once acked,
    /// at-least-once retried — but still atomic: both paths hold the key's
    /// shard lock across the decision, so racing `incr`s never lose
    /// updates and racing `add`s never both reply `STORED`). Plain `set`
    /// decides the same whatever is there, so its read is skipped.
    fn mutate(
        &self,
        ctx: Option<(u64, u64)>,
        key: Key,
        op: MutOp<'_>,
        on_shard: &mut dyn FnMut(usize),
        out: &mut Vec<u8>,
    ) {
        let now_ms = self.clock.now_ms();
        let new_cas = self.store.next_cas();
        let decide = |raw: Option<&[u8]>| -> (DetectedWrite, Vec<u8>) {
            let parsed = raw.map(parse_item);
            let dead = parsed
                .as_ref()
                .is_some_and(|it| expired(it.expires_at, now_ms));
            let cur = if dead { None } else { parsed.as_ref() };
            let (mut write, reply) = op.decide(cur, now_ms, new_cas);
            if dead && matches!(write, DetectedWrite::Keep) {
                // Lazy expiry: reap the dead item while we hold the key.
                write = DetectedWrite::Delete;
            }
            (write, reply.into_bytes())
        };
        let shard = self.store.shard_of(&key);
        on_shard(shard);
        let outcome = self.store.route_to(&self.lease, shard).map(|(kv, tid)| {
            let session = ctx.map(|(sid, rid)| (sid, rid, op.kind()));
            kv.mutate(tid, session, &key, op.is_blind(), decide)
        });
        match outcome {
            Ok(DetectOutcome::Applied(r)) | Ok(DetectOutcome::Replayed(r)) => {
                out.extend_from_slice(String::from_utf8_lossy(&r).as_bytes())
            }
            Ok(DetectOutcome::Stale { last_rid }) => {
                out.extend_from_slice(b"SERVER_ERROR stale request id (last acked ");
                push_decimal(out, last_rid);
                out.push(b')');
            }
            // The `persistent pool crashed` text of a faulted shard is
            // load-bearing: clients (and the degradation wire tests) match
            // on it to distinguish a frozen pool from a transient error.
            Err(e) => out.extend_from_slice(format!("SERVER_ERROR {e}").as_bytes()),
        }
    }

    /// Appends the key's `VALUE` block if it holds a live (unexpired) item,
    /// lazily deleting an expired one like memcached does. The block is
    /// written under the stripe lock, straight from the stored bytes; the
    /// clock is read only after the lock is released, and an item found
    /// expired then has its block retracted.
    fn fetch_into(&self, key: &Key, name: &str, with_cas: bool, out: &mut Vec<u8>) {
        let mark = out.len();
        let Some(expires_at) = self.store.get(key, |raw| {
            let item = parse_item(raw);
            push_value(out, name, &item, with_cas);
            item.expires_at
        }) else {
            return;
        };
        let now_ms = self.clock.now_ms();
        if !expired(expires_at, now_ms) {
            return;
        }
        out.truncate(mark);
        // Reap under the stripe lock, and only what is still expired there:
        // a `set` acked since the read above must not be deleted by a
        // reader. Best-effort: on a faulted or id-starved shard the expired
        // item stays resident but is still filtered out of every reply.
        let _ = self.store.update(&self.lease, key, |raw| {
            let still_expired = raw.is_some_and(|b| expired(parse_item(b).expires_at, now_ms));
            let write = if still_expired {
                DetectedWrite::Delete
            } else {
                DetectedWrite::Keep
            };
            (write, Vec::new())
        });
    }

    fn do_get(&self, args: Args<'_>, with_cas: bool, out: &mut Vec<u8>) {
        for karg in args {
            if let Ok(key) = key_of(karg) {
                self.fetch_into(&key, karg, with_cas, out);
            }
        }
        out.extend_from_slice(b"END");
    }
}

/// Parses a storage command (`set`/`add`/`replace`/`cas`) down to its key
/// and [`MutOp::Store`]; `data` is the block that followed the line.
fn store_op<'a>(
    verb: &'a str,
    mut args: Args<'a>,
    data: &'a [u8],
) -> Result<(Key, MutOp<'a>), Refused> {
    let (Some(karg), Some(flags), Some(exptime), Some(nbytes)) =
        (args.next(), args.next(), args.next(), args.next())
    else {
        return Err(BAD_FORMAT);
    };
    let casid = if verb == "cas" {
        Some(args.next().ok_or(BAD_FORMAT)?)
    } else {
        None
    };
    let key = key_of(karg)?;
    let (Ok(flags), Ok(exptime_s), Ok(nbytes)) = (
        flags.parse::<u32>(),
        exptime.parse::<u64>(),
        nbytes.parse::<usize>(),
    ) else {
        return Err(BAD_FORMAT);
    };
    let casid = match casid {
        Some(t) => t.parse::<u64>().map_err(|_| BAD_FORMAT)?,
        None => 0,
    };
    if nbytes != data.len() {
        return Err("CLIENT_ERROR bad data chunk");
    }
    let op = MutOp::Store {
        verb,
        flags,
        exptime_s,
        data,
        casid,
    };
    Ok((key, op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvBackend, KvStore};
    use montage::EsysConfig;
    use pmem::PmemConfig;

    fn session_over(store: &Arc<ShardedKvStore>) -> Session {
        Session::sharded(store.clone(), Arc::new(store.lease()))
    }

    fn one_shard(backend: KvBackend) -> Arc<ShardedKvStore> {
        ShardedKvStore::from_shards(vec![Arc::new(KvStore::new(backend, 8, 10_000))])
    }

    fn session(backend: KvBackend) -> Session {
        session_over(&one_shard(backend))
    }

    fn montage_store() -> Arc<ShardedKvStore> {
        ShardedKvStore::format(
            1,
            PmemConfig::strict_for_test(32 << 20),
            EsysConfig::default(),
            8,
            10_000,
        )
    }

    fn crash_and_recover(store: &ShardedKvStore) -> Arc<ShardedKvStore> {
        ShardedKvStore::recover(store.crash_pools(), EsysConfig::default(), 8, 10_000, 1).0
    }

    #[test]
    fn set_get_roundtrip_with_flags() {
        let s = session(KvBackend::Dram);
        assert_eq!(s.execute("set greeting 42 0 5", b"hello"), "STORED");
        let r = s.execute("get greeting", b"");
        assert!(r.starts_with("VALUE greeting 42 5\r\nhello\r\n"), "{r}");
        assert!(r.ends_with("END"));
    }

    #[test]
    fn non_utf8_value_comes_back_as_stored() {
        let s = session(KvBackend::Dram);
        // 0xAB is invalid UTF-8; the reply carries the two stored bytes, not
        // two U+FFFD. Only the owning `String` wrapper transcodes.
        assert_eq!(s.execute("set bin 0 0 2", &[0xAB, 0xAB]), "STORED");
        let mut out = Vec::new();
        s.execute_into("get bin", b"", None, &mut |_| {}, &mut out);
        assert_eq!(out, b"VALUE bin 0 2\r\n\xAB\xAB\r\nEND");
        assert_eq!(
            s.execute("get bin", b""),
            "VALUE bin 0 2\r\n\u{FFFD}\u{FFFD}\r\nEND"
        );
    }

    #[test]
    fn get_misses_and_multi_get() {
        let s = session(KvBackend::Dram);
        s.execute("set a 0 0 1", b"A");
        s.execute("set b 0 0 1", b"B");
        let r = s.execute("get a missing b", b"");
        assert!(r.contains("VALUE a 0 1"));
        assert!(r.contains("VALUE b 0 1"));
        assert!(!r.contains("missing"));
    }

    #[test]
    fn add_and_replace_semantics() {
        let s = session(KvBackend::Dram);
        assert_eq!(s.execute("replace k 0 0 1", b"x"), "NOT_STORED");
        assert_eq!(s.execute("add k 0 0 1", b"x"), "STORED");
        assert_eq!(s.execute("add k 0 0 1", b"y"), "NOT_STORED");
        assert_eq!(s.execute("replace k 0 0 1", b"y"), "STORED");
        assert!(s.execute("get k", b"").contains("y"));
    }

    #[test]
    fn cas_compare_and_swap_semantics() {
        let s = session(KvBackend::Dram);
        assert_eq!(s.execute("cas k 0 0 1 99", b"x"), "NOT_FOUND");
        assert_eq!(s.execute("set k 0 0 1", b"x"), "STORED");
        let r = s.execute("gets k", b"");
        // VALUE k <flags> <len> <cas>
        let casid: u64 = r
            .lines()
            .next()
            .unwrap()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(
            s.execute(&format!("cas k 0 0 1 {}", casid + 1), b"y"),
            "EXISTS"
        );
        assert_eq!(s.execute(&format!("cas k 0 0 1 {casid}"), b"y"), "STORED");
        assert!(s.execute("get k", b"").contains('y'));
        // The stored cas id changed: the old id no longer matches.
        assert_eq!(s.execute(&format!("cas k 0 0 1 {casid}"), b"z"), "EXISTS");
    }

    #[test]
    fn incr_decr_semantics() {
        let s = session(KvBackend::Dram);
        assert_eq!(s.execute("incr n 1", b""), "NOT_FOUND");
        assert_eq!(s.execute("set n 0 0 1", b"7"), "STORED");
        assert_eq!(s.execute("incr n 5", b""), "12");
        assert_eq!(s.execute("decr n 2", b""), "10");
        assert_eq!(s.execute("decr n 100", b""), "0", "decr floors at 0");
        assert_eq!(s.execute("set t 0 0 3", b"abc"), "STORED");
        assert_eq!(
            s.execute("incr t 1", b""),
            "CLIENT_ERROR cannot increment or decrement non-numeric value"
        );
        assert_eq!(
            s.execute("incr n bogus", b""),
            "CLIENT_ERROR invalid numeric delta argument"
        );
    }

    #[test]
    fn delete_and_errors() {
        let s = session(KvBackend::Dram);
        assert_eq!(s.execute("delete nope", b""), "NOT_FOUND");
        s.execute("set k 0 0 1", b"x");
        assert_eq!(s.execute("delete k", b""), "DELETED");
        assert_eq!(s.execute("bogus", b""), "ERROR");
        assert_eq!(
            s.execute("set k 0 0 99", b"short"),
            "CLIENT_ERROR bad data chunk"
        );
        assert_eq!(
            s.execute("set k nope 0 1", b"x"),
            "CLIENT_ERROR bad command line format"
        );
        assert_eq!(
            s.execute("cas k 0 0 1", b"x"),
            "CLIENT_ERROR bad command line format",
            "cas requires a cas id"
        );
    }

    #[test]
    fn rid_requires_session_and_dedupes_with_one() {
        let s = session(KvBackend::Dram);
        assert_eq!(
            s.execute("set k 0 0 1 rid=1", b"x"),
            "CLIENT_ERROR rid requires a session"
        );
        assert_eq!(
            s.execute("set k 0 0 1 rid=zzz", b"x"),
            "CLIENT_ERROR bad request id"
        );
        // First execution applies; a blind retry of the same rid replays the
        // recorded reply without re-applying.
        assert_eq!(s.execute_with("set n 0 0 1 rid=1", b"0", Some(9)), "STORED");
        assert_eq!(s.execute_with("incr n 1 rid=2", b"", Some(9)), "1");
        assert_eq!(s.execute_with("incr n 1 rid=2", b"", Some(9)), "1");
        assert_eq!(s.execute_with("incr n 1 rid=2", b"", Some(9)), "1");
        assert_eq!(s.execute_with("incr n 1 rid=3", b"", Some(9)), "2");
        // Distinct sessions do not share request-id spaces.
        assert_eq!(s.execute_with("incr n 1 rid=2", b"", Some(10)), "3");
        // Going backwards is refused, not re-applied.
        let r = s.execute_with("incr n 1 rid=1", b"", Some(9));
        assert!(r.starts_with("SERVER_ERROR stale request id"), "{r}");
    }

    #[test]
    fn sessionless_incr_is_atomic_across_racing_sessions() {
        // Two connections land on different workers; without the shard lock
        // held across read-decide-write, racing `incr`s interleave and lose
        // updates. 4 racers × 250 increments must land on exactly 1000.
        let store = one_shard(KvBackend::Dram);
        session_over(&store).execute("set ctr 0 0 1", b"0");
        let mut handles = vec![];
        for _ in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let s = session_over(&store);
                for _ in 0..250 {
                    let r = s.execute("incr ctr 1", b"");
                    assert!(r.parse::<u64>().is_ok(), "{r}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = session_over(&store);
        let r = s.execute("get ctr", b"");
        assert!(r.contains("1000"), "lost updates: {r}");
    }

    #[test]
    fn sessionless_add_stores_exactly_once_under_races() {
        // `add` is check-then-act: two racers must never both see "absent"
        // and both reply STORED.
        let store = one_shard(KvBackend::Dram);
        for round in 0..50 {
            let mut handles = vec![];
            for _ in 0..4 {
                let store = store.clone();
                handles.push(std::thread::spawn(move || {
                    session_over(&store).execute(&format!("add k{round} 0 0 1"), b"x")
                }));
            }
            let stored = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|r| r == "STORED")
                .count();
            assert_eq!(stored, 1, "round {round}: {stored} winners");
        }
    }

    #[test]
    fn expiration_is_lazy_but_effective() {
        let s = session(KvBackend::Dram);
        // Directly store an already-expired item (bypassing the 1s protocol
        // granularity) to avoid sleeping in tests.
        let v = make_item_at(7, 1, 0, b"stale"); // expired long ago
        let key = key_of("old").unwrap();
        s.store.set(&s.lease, key, &v).unwrap();
        assert_eq!(s.execute("get old", b""), "END");
        assert_eq!(s.execute("touch old 100", b""), "NOT_FOUND");
        // And a never-expiring item stays.
        s.execute("set fresh 0 0 4", b"data");
        assert!(s.execute("get fresh", b"").contains("data"));
        assert_eq!(s.execute("touch fresh 100", b""), "TOUCHED");
    }

    #[test]
    fn injected_clock_makes_expiry_deterministic() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct MockClock(AtomicU64);
        impl Clock for MockClock {
            fn now_ms(&self) -> u64 {
                self.0.load(Ordering::Relaxed)
            }
        }

        let clock = Arc::new(MockClock(AtomicU64::new(1_000_000)));
        let s = session(KvBackend::Dram).with_clock(clock.clone());
        assert_eq!(s.execute("set k 0 10 1", b"x"), "STORED");
        // 9.999s later: still live.
        clock.0.store(1_000_000 + 9_999, Ordering::Relaxed);
        assert!(s.execute("get k", b"").contains("VALUE k"));
        // touch extends the deadline from *now*.
        assert_eq!(s.execute("touch k 10", b""), "TOUCHED");
        clock.0.store(1_000_000 + 19_998, Ordering::Relaxed);
        assert!(s.execute("get k", b"").contains("VALUE k"));
        // One ms past the touched deadline: lazily expired everywhere.
        clock.0.store(1_000_000 + 19_999, Ordering::Relaxed);
        assert_eq!(s.execute("get k", b""), "END");
        assert_eq!(s.execute("touch k 10", b""), "NOT_FOUND");
        assert_eq!(s.execute("delete k", b""), "NOT_FOUND", "lazy delete ran");
        // exptime 0 never expires.
        s.execute("set forever 0 0 1", b"y");
        clock.0.store(u64::MAX / 2, Ordering::Relaxed);
        assert!(s.execute("get forever", b"").contains("VALUE forever"));
    }

    #[test]
    fn expired_read_does_not_delete_a_racing_set() {
        use std::sync::atomic::{AtomicBool, Ordering};

        /// A clock that, the first time it is read, lets a second session's
        /// `set k` land, then reports a time past the old item's expiry —
        /// the interleaving where `get` has read the expired item but not
        /// yet reaped it.
        struct RacingClock {
            racer: Session,
            raced: AtomicBool,
        }
        impl Clock for RacingClock {
            fn now_ms(&self) -> u64 {
                if !self.raced.swap(true, Ordering::Relaxed) {
                    assert_eq!(self.racer.execute("set k 0 0 5", b"fresh"), "STORED");
                }
                2_000
            }
        }

        let store = one_shard(KvBackend::Dram);
        let key = key_of("k").unwrap();
        let lease = store.lease();
        // Expires at 1_000 ms; the racing clock reads 2_000.
        let stale = make_item_at(0, 1_000, 0, b"stale");
        store.set(&lease, key, &stale).unwrap();
        let clock = Arc::new(RacingClock {
            racer: session_over(&store),
            raced: AtomicBool::new(false),
        });
        let s = session_over(&store).with_clock(clock);
        // This read saw the expired item: a miss either way.
        assert_eq!(s.execute("get k", b""), "END");
        // The acked `set` must have survived the reader's lazy reap.
        let r = s.execute("get k", b"");
        assert!(r.starts_with("VALUE k 0 5\r\nfresh\r\n"), "{r}");
    }

    #[test]
    fn expired_key_retracts_only_its_own_block_of_a_multi_get() {
        let s = session(KvBackend::Dram);
        s.execute("set a 1 0 1", b"A");
        s.execute("set c 3 0 1", b"C");
        let stale = make_item_at(2, 1, 0, b"stale"); // expired long ago
        s.store.set(&s.lease, key_of("b").unwrap(), &stale).unwrap();
        // `b`'s block is written under its stripe lock, then cut back out
        // once the clock says it expired; `a`'s before it and `c`'s after
        // it stand.
        assert_eq!(
            s.execute("get a b c", b""),
            "VALUE a 1 1\r\nA\r\nVALUE c 3 1\r\nC\r\nEND"
        );
        assert_eq!(s.execute("delete b", b""), "NOT_FOUND", "lazy delete ran");
    }

    #[test]
    fn mutations_announce_their_shard_once_and_reads_never() {
        let store = crate::ShardedKvStore::format(
            4,
            PmemConfig::strict_for_test(8 << 20),
            EsysConfig::default(),
            4,
            10_000,
        );
        let s = session_over(&store);
        let run = |line: &str, data: &[u8]| {
            let (mut shards, mut out) = (vec![], vec![]);
            s.execute_into(
                line,
                data,
                Some(7),
                &mut |shard| shards.push(shard),
                &mut out,
            );
            (shards, String::from_utf8(out).unwrap())
        };
        for i in 0..16 {
            let key = format!("k{i}");
            let owner = store.shard_of_bytes(key.as_bytes()).unwrap();
            assert_eq!(
                run(&format!("set {key} 0 0 1 rid={}", i + 1), b"1"),
                (vec![owner], "STORED".into())
            );
            assert_eq!(run(&format!("incr {key} 1"), b"").0, vec![owner]);
            assert_eq!(run(&format!("get {key}"), b"").0, vec![]);
        }
        // A refused line never reaches the store, so announces nothing.
        assert_eq!(
            run("set k0 nope 0 1", b"x"),
            (vec![], "CLIENT_ERROR bad command line format".into())
        );
    }

    #[test]
    fn every_dispatched_verb_is_classified_and_the_rest_answer_error() {
        let s = session(KvBackend::Dram);
        let (read, mutate, store) = ((false, false), (false, true), (true, true));
        for (name, class) in [
            ("get", read),
            ("gets", read),
            ("set", store),
            ("add", store),
            ("replace", store),
            ("cas", store),
            ("delete", mutate),
            ("touch", mutate),
            ("incr", mutate),
            ("decr", mutate),
        ] {
            let v = verb(name).unwrap_or_else(|| panic!("{name} is not classified"));
            assert_eq!((v.has_data, v.mutates), class, "{name}");
            // With no arguments every dispatched verb answers something
            // more specific than the unknown-verb reply.
            assert_ne!(s.execute(name, b""), "ERROR", "{name} is not dispatched");
        }
        // Server-level verbs (`sync`, `stats`, `session`, `quit`) never
        // reach a session; like any unknown verb they answer `ERROR` here.
        for unknown in ["bogus", "GET", "flush_all", "sync", "stats", "session"] {
            assert_eq!(verb(unknown), None);
            assert_eq!(s.execute(unknown, b""), "ERROR");
        }
        // The store has point reads only: a range scan is an unknown verb.
        assert_eq!(s.execute("scan a z", b""), "ERROR");
    }

    #[test]
    fn protocol_over_montage_backend_survives_crash() {
        let store = montage_store();
        let s = session_over(&store);
        assert_eq!(s.execute("set persisted 3 0 9", b"important"), "STORED");
        store.sync().unwrap();
        let s2 = session_over(&crash_and_recover(&store));
        let r = s2.execute("get persisted", b"");
        assert!(r.contains("VALUE persisted 3 9"), "{r}");
        assert!(r.contains("important"));
    }

    #[test]
    fn detected_ops_replay_across_crash() {
        let store = montage_store();
        let s = session_over(&store);
        let sid = Some(4242);
        assert_eq!(s.execute_with("set ctr 0 0 1 rid=1", b"0", sid), "STORED");
        assert_eq!(s.execute_with("incr ctr 1 rid=2", b"", sid), "1");
        assert_eq!(s.execute_with("incr ctr 1 rid=3", b"", sid), "2");
        store.sync().unwrap();
        assert_eq!(store.detect_stats_merged().descriptors, 1);
        let store2 = crash_and_recover(&store);
        // The descriptor survived with its rid and recorded reply.
        assert_eq!(
            store2.shard_session_descriptor(0, 4242),
            Some((3, 7, b"2".to_vec())) // rid 3, OP_INCR, reply "2"
        );
        let s2 = session_over(&store2);
        // A blind retry of the in-flight rid replays; the next rid applies.
        assert_eq!(s2.execute_with("incr ctr 1 rid=3", b"", sid), "2");
        assert_eq!(s2.execute_with("incr ctr 1 rid=4", b"", sid), "3");
        let stats = store2.detect_stats_merged();
        assert_eq!(stats.dedupe_hits, 1);
        assert_eq!(stats.replayed_acks, 1, "the replay crossed the crash");
        assert!(stats.table_bytes > 0);
    }

    #[test]
    fn sharded_session_spans_shards() {
        let store = crate::ShardedKvStore::format(
            4,
            PmemConfig::strict_for_test(8 << 20),
            EsysConfig::default(),
            4,
            10_000,
        );
        let lease = Arc::new(store.lease());
        let s = Session::sharded(store.clone(), lease);
        for i in 0..50 {
            assert_eq!(s.execute(&format!("set k{i} 0 0 2"), b"vv"), "STORED");
        }
        for i in 0..50 {
            let r = s.execute(&format!("get k{i}"), b"");
            assert!(r.contains(&format!("VALUE k{i} 0 2")), "{r}");
        }
        assert!(store.len() == 50);
        let touched = s.lease.held().iter().filter(|t| t.is_some()).count();
        assert!(touched >= 2, "50 keys should lease ids on several shards");
    }

    #[test]
    fn sharded_detected_descriptors_live_in_the_keys_shard() {
        let store = crate::ShardedKvStore::format(
            4,
            PmemConfig::strict_for_test(8 << 20),
            EsysConfig::default(),
            4,
            10_000,
        );
        let lease = Arc::new(store.lease());
        let s = Session::sharded(store.clone(), lease);
        let sid = Some(1);
        for i in 0..20 {
            assert_eq!(
                s.execute_with(&format!("set k{i} 0 0 1 rid={}", i + 1), b"v", sid),
                "STORED"
            );
        }
        let per_shard = store.detect_stats_per_shard();
        let populated = per_shard.iter().filter(|d| d.descriptors > 0).count();
        assert!(
            populated >= 2,
            "descriptors should follow keys: {per_shard:?}"
        );
        // Each shard holds at most one descriptor per session.
        assert!(per_shard.iter().all(|d| d.descriptors <= 1));
        assert_eq!(store.detect_stats_merged().descriptors, populated as u64);
    }
}
