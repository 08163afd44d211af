//! Epoch-aligned group commit: executing one worker sweep's request batch.
//!
//! A worker hands this module its connection table once per sweep, after the
//! read phase: the batch is every request then buffered on *all* of its
//! connections, framed and executed in place ([`Frame`] borrows the
//! connection's reader; the reply lands in the connection's `out`). The
//! batch executes inside one epoch window: the first mutation routed to a
//! shard pins that shard's epoch ([`kvstore::StoreBatch`]), every later
//! mutation in the batch rides the same pin, and only after the last request
//! executes do the pins drop and — when the `sync_every` counter crossed a
//! multiple of N — the touched shards get **one** group sync for the whole
//! batch: their fences are issued together and awaited together
//! ([`kvstore::ShardedKvStore::sync_shards`]).
//!
//! The ordering invariant that makes this group commit rather than ack
//! batching: replies are only *queued* here, into each connection's output
//! buffer; the worker flushes those buffers strictly after this function
//! returns, i.e. after the shared fence. No client ever reads an ack whose
//! durability point has not passed. (The pins must drop before the fence:
//! an epoch advance waits out every registered thread, so fencing while the
//! worker's own pin is registered would wait on itself.)

use montage::sync::uninstrumented::{AtomicU64, Ordering};
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use kvstore::protocol::{verb, Session};
use kvstore::StoreLease;

use crate::frame::Frame;
use crate::server::Shared;
use crate::worker::{Conn, MAX_REQS_PER_CONN};

/// A log2 histogram: bucket `i` counts samples in `[2^i, 2^(i+1))` (a zero
/// sample counts as one); the last bucket is open-ended. Written with
/// relaxed adds by whoever measures, read by `stats` from any connection.
pub(crate) struct Log2Hist<const N: usize>([AtomicU64; N]);

impl<const N: usize> Default for Log2Hist<N> {
    fn default() -> Self {
        Log2Hist(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl<const N: usize> Log2Hist<N> {
    fn bucket_of(sample: u64) -> usize {
        ((63 - sample.max(1).leading_zeros()) as usize).min(N - 1)
    }

    pub fn record(&self, sample: u64) {
        self.0[Self::bucket_of(sample)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> Log2Counts<N> {
        Log2Counts(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

/// A [`Log2Hist`] read out: bucket `i`'s floor is `1 << i`.
#[derive(Clone, Copy)]
pub(crate) struct Log2Counts<const N: usize>(pub [u64; N]);

impl<const N: usize> Log2Counts<N> {
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q`th percentile, reported as the floor of the bucket holding
    /// that rank — quantiles never overstate. `None` when nothing has been
    /// recorded.
    pub fn quantile_floor(&self, q: u64) -> Option<u64> {
        let rank = (self.total() * q).div_ceil(100).max(1);
        let mut seen = 0u64;
        let holds_rank = |count: &u64| {
            seen += count;
            seen >= rank
        };
        self.0.iter().position(holds_rank).map(|i| 1u64 << i)
    }
}

impl<const N: usize> std::ops::Add for Log2Counts<N> {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Log2Counts(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

/// Batch sizes: floors 1, 2, 4 … 64, the last open-ended.
pub(crate) type BatchHist = Log2Hist<7>;

/// Per-shard fence latency in microseconds from the group's start to the
/// shard's verdict; the last bucket is ≈ half a second and beyond.
pub(crate) type FenceHist = Log2Hist<20>;

/// One worker's group-commit counters, written only by that worker and read
/// by `stats` from any connection.
#[derive(Default)]
pub(crate) struct WorkerStats {
    /// Sweeps that executed at least one request.
    pub batches: AtomicU64,
    /// Requests executed inside batches.
    pub requests: AtomicU64,
    /// Group fences issued (one per batch that crossed the sync threshold,
    /// regardless of how many shards it touched).
    pub fences: AtomicU64,
    /// Nanoseconds this worker spent inside those group fences.
    pub fence_wall_ns: AtomicU64,
    /// Per-shard fence attempts that blew the `fence_deadline` budget —
    /// each one severed the straggling shard's connections for the batch.
    pub fence_timeouts: AtomicU64,
    /// Replies queued behind those fences.
    pub acks: AtomicU64,
    /// Range scans served (`scan` verb) — the only multi-record read.
    pub scans: AtomicU64,
    /// Requests per batch.
    pub hist: BatchHist,
}

pub(crate) struct ServerStats {
    pub workers: Box<[WorkerStats]>,
    /// One fence-latency histogram per shard, fed by every worker that
    /// fences the shard: fence latency is a property of the shard's medium
    /// and epoch system, whichever worker pays it. This is the data behind
    /// the `stats` p50/p99 lines operators use to pick a `fence_deadline`
    /// from evidence instead of folklore.
    pub shard_fences: Box<[FenceHist]>,
}

impl ServerStats {
    pub fn new(workers: usize, shards: usize) -> ServerStats {
        ServerStats {
            workers: (0..workers).map(|_| WorkerStats::default()).collect(),
            shard_fences: (0..shards).map(|_| FenceHist::default()).collect(),
        }
    }
}

/// Executes one sweep's batch and queues replies; see the module docs for
/// the fence/ack ordering contract. Requests are framed straight out of
/// each connection's reader and executed in place — conn-major, at most
/// [`MAX_REQS_PER_CONN`] per connection — with replies written into that
/// connection's `out`. Returns how many requests ran.
pub(crate) fn execute(
    widx: usize,
    conns: &mut [Conn],
    now: Instant,
    session: &Session,
    lease: &StoreLease,
    shared: &Shared,
) -> usize {
    let store = &shared.store;
    let ws = &shared.stats.workers[widx];

    let mut sb = store.batch(lease);
    // Shards owed a fence this batch — tracked independently of the pins,
    // because a pin is best-effort (a faulted or id-exhausted shard runs
    // unpinned) while the periodic barrier is a promise.
    let mut fence_shards: Vec<usize> = Vec::new();
    // Connections that queued replies this batch: if the group fence fails,
    // these are the conns whose queued acks must never escape.
    let mut batch_cis: Vec<usize> = Vec::new();
    // (connection, shard) pairs for this batch's mutations: when one
    // shard's fence blows its deadline, only the connections that routed
    // mutations to *that* shard are severed — the rest of the group commit
    // proceeds.
    let mut conn_shards: Vec<(usize, usize)> = Vec::new();
    let mut requests: usize = 0;
    let mut batch_muts: u64 = 0;
    // Mutations until this batch is certain to end in a group sync (the
    // crossing test below); past that, write-backs start as each completes.
    let until_sync = shared.cfg.sync_every.map(|n| {
        let start = shared.mutations.load(Ordering::Acquire);
        (start / n + 1) * n - start
    });
    let mut acks: u64 = 0;

    for (ci, c) in conns.iter_mut().enumerate() {
        if c.dead || c.closing {
            continue;
        }
        let mut framed = 0usize;
        // A quit or fatal error cuts the connection's stream: what it sent
        // after that stays unframed and is dropped with the connection.
        while framed < MAX_REQS_PER_CONN && !c.closing {
            let Some(frame) = c.reader.next_frame() else {
                break;
            };
            framed += 1;
            let (line, data, noreply) = match frame {
                Frame::Cmd {
                    line,
                    data,
                    noreply,
                } => (line, data, noreply),
                Frame::BadDataChunk => {
                    c.out.extend_from_slice(b"CLIENT_ERROR bad data chunk\r\n");
                    acks += 1;
                    continue;
                }
                Frame::TooLarge => {
                    c.out
                        .extend_from_slice(b"SERVER_ERROR object too large for cache\r\n");
                    acks += 1;
                    continue;
                }
                Frame::LineTooLong => {
                    c.out.extend_from_slice(b"CLIENT_ERROR line too long\r\n");
                    acks += 1;
                    c.closing = true;
                    continue;
                }
            };
            let cmd = line.split_whitespace().next().unwrap_or("");
            if cmd == "quit" {
                c.closing = true;
                continue;
            }
            if cmd == "session" {
                // Durable session attach: the client's exactly-once
                // identity, carried across reconnects. It lives on the
                // connection, not in the store — descriptors appear only
                // once a rid-carrying mutation lands in a shard.
                // `session close` detaches; attaches are counted against
                // `max_sessions` (one slot per attached connection, held
                // until detach or disconnect) so an adversarial client
                // mix cannot grow the descriptor tables without bound.
                let out = match line.split_whitespace().nth(1) {
                    Some("close") => {
                        if c.session.take().is_some() {
                            shared.sessions.release();
                        }
                        "CLOSED\r\n".to_string()
                    }
                    Some(arg) => match arg.parse::<u64>() {
                        // Re-attaching rides the slot the connection
                        // already holds; only a fresh attach claims one.
                        Ok(sid) if c.session.is_some() || shared.sessions.try_claim() => {
                            c.session = Some(sid);
                            format!("SESSION {sid}\r\n")
                        }
                        Ok(_) => {
                            c.closing = true;
                            "SERVER_ERROR too many sessions\r\n".to_string()
                        }
                        Err(_) => "CLIENT_ERROR bad session id\r\n".into(),
                    },
                    None => "CLIENT_ERROR bad session id\r\n".into(),
                };
                if !noreply {
                    c.out.extend_from_slice(out.as_bytes());
                    acks += 1;
                }
                continue;
            }
            if cmd == "stats" {
                if !noreply {
                    c.out
                        .extend_from_slice(crate::server::stats_reply(shared).as_bytes());
                    acks += 1;
                }
                continue;
            }
            if cmd == "sync" {
                // An explicit barrier is a batch-cut point: drop our own
                // pins first (syncing a shard we pinned would wait on
                // ourselves), sync every shard, then let the rest of the
                // batch re-pin lazily.
                let _ = sb.finish();
                fence_shards.clear();
                conn_shards.clear();
                let out = match store.sync() {
                    Ok(()) => "SYNCED\r\n".into(),
                    Err(e) => format!("SERVER_ERROR {e}\r\n"),
                };
                if !noreply {
                    c.out.extend_from_slice(out.as_bytes());
                    acks += 1;
                }
                continue;
            }
            if cmd == "scan" {
                ws.scans.fetch_add(1, Ordering::Relaxed);
            }
            // The session announces a mutation's shard just before it
            // touches the store: pin it for the batch's window, and owe it
            // this batch's fence.
            let mut on_shard = |shard: usize| {
                let _ = sb.pin_shard(shard);
                if !fence_shards.contains(&shard) {
                    fence_shards.push(shard);
                }
                if !conn_shards.contains(&(ci, shard)) {
                    conn_shards.push((ci, shard));
                }
            };
            // The reply is written in place; whatever must not reach the
            // peer — a half-written reply of a handler that died, or any
            // reply to `noreply` — is cut back to this mark.
            let mark = c.out.len();
            let (out, conn_session) = (&mut c.out, c.session);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if shared.cfg.panic_on_cmd.as_deref() == Some(cmd) {
                    panic!("injected handler panic on '{cmd}'");
                }
                session.execute_into(line, data, conn_session, &mut on_shard, out);
            }));
            if outcome.is_err() {
                // The handler died mid-command; its state may be
                // inconsistent, so answer, then drop only this
                // connection. The unwind stops here — the worker and
                // its other connections never notice.
                c.out.truncate(mark);
                c.out.extend_from_slice(b"SERVER_ERROR internal error\r\n");
                acks += 1;
                c.closing = true;
                continue;
            }
            if verb(cmd).is_some_and(|v| v.mutates) {
                batch_muts += 1;
                if until_sync.is_some_and(|need| batch_muts >= need) {
                    sb.write_back();
                }
            }
            if noreply {
                c.out.truncate(mark);
            } else {
                c.out.extend_from_slice(b"\r\n");
                acks += 1;
            }
        }
        c.after_framing(framed, now, shared.cfg.idle_timeout);
        if framed > 0 {
            batch_cis.push(ci);
            requests += framed;
        }
    }
    if requests == 0 {
        return 0;
    }
    ws.batches.fetch_add(1, Ordering::Relaxed);
    ws.requests.fetch_add(requests as u64, Ordering::Relaxed);
    ws.hist.record(requests as u64);

    // Group commit: pins drop first (see module docs), then the periodic
    // barrier — one group sync over the touched shards for the *whole*
    // batch, where the thread-per-connection server paid one per mutation.
    drop(sb);
    if batch_muts > 0 {
        let before = shared.mutations.fetch_add(batch_muts, Ordering::AcqRel);
        if let Some(n) = shared.cfg.sync_every {
            if (before + batch_muts) / n > before / n {
                // One group sync for the batch: every touched shard's
                // boundary fence is issued before any is awaited, under one
                // `fence_deadline` budget. A shard that cannot certify
                // durability inside it is a straggler, and the group commit
                // proceeds without its unfenced ops rather than holding
                // every other shard's acks hostage.
                let fence_start = Instant::now();
                let outcomes = store.sync_shards(&fence_shards, shared.cfg.fence_deadline);
                ws.fence_wall_ns
                    .fetch_add(fence_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let mut fence_failed = false;
                let mut timed_out: Vec<usize> = Vec::new();
                for (&shard, (result, took)) in fence_shards.iter().zip(outcomes) {
                    match result {
                        Ok(true) => {}
                        Ok(false) => timed_out.push(shard),
                        Err(_) => fence_failed = true,
                    }
                    // Group start to this shard's verdict — the number a
                    // `fence_deadline` is compared against. Timeouts and
                    // faults count too: a deadline that fires is exactly
                    // the tail the p99 line is for.
                    shared.stats.shard_fences[shard].record(took.as_micros() as u64);
                }
                ws.fences.fetch_add(1, Ordering::Relaxed);
                if fence_failed {
                    // The fence is the batch's durability point; if it
                    // failed, the queued acks would promise durability the
                    // pool can no longer deliver. Discard the batch's
                    // unflushed output and sever its connections — to the
                    // clients it looks like a crash, and their retry path
                    // (session + rid replay) gives the truthful answer.
                    for &ci in &batch_cis {
                        let c = &mut conns[ci];
                        c.out.truncate(c.sent);
                        c.dead = true;
                    }
                } else if !timed_out.is_empty() {
                    // Straggler degradation: withhold the acks that were
                    // promised behind the late fence (they would claim a
                    // durability point that never arrived) and sever those
                    // connections with an explicit error — the retry path
                    // (session + rid replay) then tells each client the
                    // truth. Connections whose mutations all landed on
                    // healthy shards keep their acks.
                    ws.fence_timeouts
                        .fetch_add(timed_out.len() as u64, Ordering::Relaxed);
                    let mut severed: Vec<usize> = Vec::new();
                    for &(ci, shard) in &conn_shards {
                        if timed_out.contains(&shard) && !severed.contains(&ci) {
                            severed.push(ci);
                            let c = &mut conns[ci];
                            c.out.truncate(c.sent);
                            c.out.extend_from_slice(b"SERVER_ERROR timeout\r\n");
                            c.closing = true;
                        }
                    }
                }
            }
        }
    }
    ws.acks.fetch_add(acks, Ordering::Relaxed);
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_and_quantiles_are_bucket_floors() {
        let batch = Log2Hist::<7>::bucket_of;
        let expect = [(1, 0), (2, 1), (3, 1), (4, 2), (7, 2), (63, 5), (64, 6)];
        for (sample, i) in expect {
            assert_eq!(batch(sample), i, "{sample}");
        }
        assert_eq!(batch(100_000), 6, "the last bucket is open-ended");

        let fence = Log2Hist::<20>::bucket_of;
        assert_eq!(fence(0), 0);
        assert_eq!(fence(1), 0);
        assert_eq!(fence(2), 1);
        assert_eq!(fence(1023), 9);
        assert_eq!(fence(u64::MAX), 19);

        let hist = FenceHist::default();
        assert_eq!(hist.snapshot().quantile_floor(50), None);
        // 98 fences in [4, 8) us, 2 in [1024, 2048) us — fed as two shards'
        // histograms, merged the way `stats` merges them.
        let other = FenceHist::default();
        for _ in 0..98 {
            hist.record(5);
        }
        other.record(1024);
        other.record(2047);
        let merged = hist.snapshot() + other.snapshot();
        assert_eq!(merged.total(), 100);
        assert_eq!((merged.0[2], merged.0[10]), (98, 2));
        assert_eq!(merged.quantile_floor(50), Some(4));
        assert_eq!(merged.quantile_floor(98), Some(4));
        assert_eq!(merged.quantile_floor(99), Some(1024));
        assert_eq!(merged.quantile_floor(100), Some(1024));
    }
}
