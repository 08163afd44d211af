//! Server configuration, lifecycle, and the durability boundary.
//!
//! Serving itself is event-driven: an accept thread ([`crate::event_loop`])
//! feeds a small pool of workers, each multiplexing many nonblocking
//! sockets and executing each sweep's harvest as one batch under a shared
//! epoch window ([`crate::worker`], [`crate::batch`]). This module owns
//! what surrounds that core: the config, the shared state, the `stats`
//! reply, and the start/shutdown/crash lifecycle.
//!
//! ## Where durability lives on the reply path
//!
//! Montage is *buffered* durable: an acked mutation may sit in an epoch that
//! a crash erases (the last two epochs are always at risk). The server keeps
//! that contract visible in the protocol:
//!
//! * ordinary replies (`STORED`, `DELETED`, …) promise buffered durability
//!   only — they are queued as soon as the session executes the command;
//! * the `sync` admin command replies `SYNCED` only **after**
//!   [`montage::EpochSys::sync`] has returned, i.e. after every mutation
//!   acked before it has reached the persistence domain;
//! * with [`ServerConfig::sync_every`] = N, each batch whose mutations carry
//!   the server-wide counter across a multiple of N ends with one group
//!   sync over the touched shards — the group-commit fence — and **no reply
//!   from that batch is flushed before the fence** (the paper's Fig. 9 "sync per
//!   K ops" sweep, amortized across the batch instead of paid per
//!   mutation);
//! * [`ServerHandle::shutdown`] ends with a final sync, so a clean shutdown
//!   loses nothing; [`ServerHandle::crash`] deliberately skips it.

use montage::sync::uninstrumented::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use kvstore::ShardedKvStore;

use crate::batch::{Log2Counts, ServerStats, WorkerStats};

#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads multiplexing connections; 0 = auto (half the
    /// available cores, clamped to [1, 4] — batching thrives on fewer,
    /// busier workers).
    pub workers: usize,
    /// Connection cap; the N+1th concurrent connect is shed at accept with
    /// `SERVER_ERROR busy` and a clean close.
    pub max_conns: usize,
    /// Values above this are refused with `SERVER_ERROR object too large`.
    pub max_value_bytes: usize,
    /// Idle connections are dropped after this long without a byte.
    pub read_timeout: Duration,
    /// A connection whose peer accepts no output for this long is dropped.
    pub write_timeout: Duration,
    /// A connection with a *partially* framed request (a command line or
    /// data block it started but never finished) is dropped once the
    /// fragment is this old. This is the slow-loris reap: trickling one
    /// byte per second resets `read_timeout` forever but never completes a
    /// frame, so the frame — not the byte — carries the deadline.
    pub idle_timeout: Duration,
    /// Wall-clock budget for the periodic group fence: one allowance for
    /// the whole group, measured from the group's start (a batch blocks at
    /// most one budget plus one epoch advance, however many shards it
    /// touched). When a shard cannot certify durability in time (injected
    /// straggler delays, a wedged medium), the batch's connections that
    /// routed mutations to it have their unflushed acks withheld and are
    /// severed with `SERVER_ERROR timeout`; connections on healthy shards
    /// commit normally. `None` waits out the fence unconditionally.
    pub fence_deadline: Option<Duration>,
    /// Cap on concurrently *attached* durable sessions (the `session <id>`
    /// verb). Each attached connection holds one slot until it detaches
    /// (`session close`) or disconnects; an attach beyond the cap is shed
    /// with `SERVER_ERROR too many sessions`. Bounds the worst-case growth
    /// of the per-shard descriptor tables an adversarial client mix can
    /// provoke.
    pub max_sessions: usize,
    /// `Some(n)`: fence each batch that carries the server-wide mutation
    /// counter across a multiple of n (Fig. 9's periodic-sync mode, group
    /// committed).
    pub sync_every: Option<u64>,
    /// Test-only fault injection: panic inside the command handler whenever
    /// this command name arrives. Exercises the server's panic isolation —
    /// one poisoned request must not take down other connections.
    pub panic_on_cmd: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_conns: 64,
            max_value_bytes: 1 << 20,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            fence_deadline: None,
            max_sessions: 256,
            sync_every: None,
            panic_on_cmd: None,
        }
    }
}

impl ServerConfig {
    /// The worker count [`KvServer::start_sharded`] will actually use.
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get() / 2)
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

/// A counter with a cap — admission control. Montage worker ids are a
/// per-*worker* resource (each worker owns one lazily filled
/// [`kvstore::StoreLease`] for its lifetime), so what remains per
/// connection or attached session is one slot here.
pub(crate) struct Slots {
    cap: usize,
    used: AtomicUsize,
}

impl Slots {
    pub(crate) fn new(cap: usize) -> Self {
        Slots {
            cap,
            used: AtomicUsize::new(0),
        }
    }

    pub(crate) fn used(&self) -> usize {
        self.used.load(Ordering::Acquire)
    }

    /// Claims a slot; `false` means at capacity and the caller must shed.
    /// Pair every successful claim with exactly one [`Slots::release`].
    pub(crate) fn try_claim(&self) -> bool {
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            if cur >= self.cap {
                return false;
            }
            match self
                .used
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn release(&self) {
        self.used.fetch_sub(1, Ordering::AcqRel);
    }
}

pub(crate) struct Shared {
    pub(crate) store: Arc<ShardedKvStore>,
    pub(crate) cfg: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// Crash-style stop: workers tear connections down without draining
    /// queued replies. Workers never block (nonblocking sweeps), so a flag
    /// severs everything within one sweep — no per-connection socket clones
    /// needed, which halves the server's fd footprint at 10k connections.
    pub(crate) crashed: AtomicBool,
    /// Mutations since start, for the sync-every-N barrier (server-wide,
    /// like a log sequence number).
    pub(crate) mutations: AtomicU64,
    /// Live connections against `max_conns`; an over-capacity connect is
    /// shed at accept with `SERVER_ERROR busy` instead of queueing.
    pub(crate) conns: Slots,
    /// Durable sessions currently attached (each `session <id>` attach
    /// holds one slot against `max_sessions` until detach or disconnect).
    pub(crate) sessions: Slots,
    /// Per-worker group-commit counters.
    pub(crate) stats: ServerStats,
}

pub struct KvServer;

impl KvServer {
    /// Binds, spawns the accept loop and workers, and returns a handle.
    /// Serving happens on background threads; the caller keeps the handle
    /// to stop it. Workers route each key to its owning shard and lease
    /// per-shard worker ids lazily; `sync`, `stats`, and shutdown fan out
    /// across every shard, and a faulted shard degrades only the keys it
    /// owns. (A one-pool server is the same call with a 1-shard store.)
    pub fn start_sharded(
        cfg: ServerConfig,
        store: Arc<ShardedKvStore>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Each worker's lease can hold one Montage id per shard for the
        // worker's lifetime; more workers than the tightest shard's id table
        // would leave some of them permanently unable to operate.
        let workers = cfg
            .resolved_workers()
            .min(store.min_id_capacity().unwrap_or(usize::MAX))
            .max(1);
        let shared = Arc::new(Shared {
            conns: Slots::new(cfg.max_conns),
            sessions: Slots::new(cfg.max_sessions),
            stats: ServerStats::new(workers, store.n_shards()),
            store,
            cfg,
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            mutations: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || crate::event_loop::run(listener, accept_shared));
        Ok(ServerHandle {
            addr,
            shared,
            accept,
        })
    }
}

/// The `stats` admin command, memcached-style: `STAT <name> <value>` lines
/// then `END`. Alongside cache occupancy it surfaces the pool's persistence
/// and fault-injection counters (so crash-sweep tests can observe injected
/// crashes, torn lines, and quarantined payloads over the wire) and the
/// group-commit counters: per-worker batch-size histograms, fence counts,
/// and the acks-per-fence amortization ratio.
pub(crate) fn stats_reply(shared: &Shared) -> String {
    let store = &shared.store;
    // Every per-shard vector is read once: the merged lines are folds of
    // what the per-shard lines print.
    let pools = store.pool_stats_per_shard();
    let detects = store.detect_stats_per_shard();
    let mirrors = store.ordered_mirror_bytes_per_shard();
    let epochs = store.epochs();
    // How far behind durability is, in µs: what each shard's device still
    // has to drain.
    let backlogs: Vec<Option<u64>> = (0..store.n_shards())
        .map(|i| store.shard(i).esys())
        .map(|esys| esys.map(|e| e.pool().device_backlog().as_micros() as u64))
        .collect();
    let shard_fences: Vec<_> = shared
        .stats
        .shard_fences
        .iter()
        .map(|h| h.snapshot())
        .collect();
    // Behind a `RefCell` so the per-histogram helpers below can share it.
    let out = std::cell::RefCell::new(String::new());
    let stat = |name: &str, value: u64| {
        out.borrow_mut()
            .push_str(&format!("STAT {name} {value}\r\n"));
    };
    stat("curr_items", store.len() as u64);
    stat("evictions", store.evictions() as u64);
    // DRAM the scan index costs (ROADMAP item 3): the per-stripe ordered
    // mirrors, reported like memcached's hash-table overhead lines.
    stat("ordered_mirror_bytes", mirrors.iter().sum::<usize>() as u64);
    stat("curr_connections", shared.conns.used() as u64);
    stat("curr_sessions", shared.sessions.used() as u64);
    stat("total_mutations", shared.mutations.load(Ordering::Acquire));
    stat("shards", store.n_shards() as u64);
    // Store-wide aggregates keep the single-pool stat names so existing
    // consumers (dashboards, the degradation tests) read merged counters.
    if let Some(snap) = pools.iter().flatten().copied().reduce(|a, b| a + b) {
        stat("pmem_clwbs", snap.clwbs);
        stat("pmem_sfences", snap.sfences);
        stat("pmem_lines_drained", snap.lines_drained);
        // The worst shard's: an ack waits for the slowest device it touched.
        if let Some(backlog) = backlogs.iter().flatten().max() {
            stat("pmem_device_backlog_us", *backlog);
        }
        stat("pmem_crashes", snap.crashes);
        stat("pmem_injected_crashes", snap.injected_crashes);
        stat("pmem_torn_lines", snap.torn_lines);
        stat("pmem_quarantined_payloads", snap.quarantined_payloads);
    }
    if let Some(e) = epochs[0] {
        stat("montage_epoch", e);
    }
    stat("pool_faulted", u64::from(store.fault_any().is_some()));
    // Exactly-once counters: how often the descriptor table answered for a
    // retried request, and what the table costs in pool bytes.
    let ds = detects
        .iter()
        .copied()
        .fold(kvstore::DetectStats::default(), |a, b| a + b);
    stat("dedupe_hits", ds.dedupe_hits);
    stat("replayed_acks", ds.replayed_acks);
    stat("session_descriptors", ds.descriptors);
    stat("session_table_bytes", ds.table_bytes);
    // Group-commit observability: totals, the amortization ratio the whole
    // design exists to raise, and per-worker batch-size histograms.
    let workers = &shared.stats.workers;
    stat("gc_workers", workers.len() as u64);
    let total = |counter: fn(&WorkerStats) -> &AtomicU64| -> u64 {
        workers
            .iter()
            .map(|w| counter(w).load(Ordering::Relaxed))
            .sum()
    };
    let (fences, acks) = (total(|w| &w.fences), total(|w| &w.acks));
    stat("scan_requests", total(|w| &w.scans));
    stat("gc_batches", total(|w| &w.batches));
    stat("gc_batched_requests", total(|w| &w.requests));
    stat("gc_fences", fences);
    stat("gc_acks", acks);
    stat("gc_fence_timeouts", total(|w| &w.fence_timeouts));
    stat("gc_fence_wall_us", total(|w| &w.fence_wall_ns) / 1000);
    stat(
        "gc_acks_per_fence_x1000",
        (acks * 1000).checked_div(fences).unwrap_or(0),
    );
    // Fence latency (ROADMAP item 2): the distribution an operator reads
    // before picking a `fence_deadline`. Quantiles are log2-bucket floors —
    // they never overstate — and the merged lines aggregate every shard's
    // histogram so the single-shard case still reports.
    let fence_lines = |prefix: &str, hist: &Log2Counts<20>| {
        if let (Some(p50), Some(p99)) = (hist.quantile_floor(50), hist.quantile_floor(99)) {
            stat(&format!("{prefix}fence_p50_us"), p50);
            stat(&format!("{prefix}fence_p99_us"), p99);
        }
    };
    let merged_fences = shard_fences
        .iter()
        .copied()
        .reduce(|a, b| a + b)
        .expect("a store has at least one shard");
    stat("fence_samples", merged_fences.total());
    fence_lines("", &merged_fences);
    let batch_lines = |prefix: &str, hist: Log2Counts<7>| {
        for (i, count) in hist.0.iter().enumerate() {
            stat(&format!("{prefix}batch_hist_{}", 1 << i), *count);
        }
    };
    let batch_hists: Vec<_> = workers.iter().map(|w| w.hist.snapshot()).collect();
    let merged_batches = batch_hists.iter().copied().reduce(|a, b| a + b);
    batch_lines(
        "gc_",
        merged_batches.expect("a server has at least one worker"),
    );
    for (widx, (w, hist)) in workers.iter().zip(batch_hists).enumerate() {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        stat(&format!("worker{widx}_batches"), load(&w.batches));
        stat(&format!("worker{widx}_requests"), load(&w.requests));
        stat(&format!("worker{widx}_fences"), load(&w.fences));
        batch_lines(&format!("worker{widx}_"), hist);
    }
    // Per-shard breakdown: quarantine and fault containment are per-shard
    // facts, and operators need to see *which* shard is degraded.
    if store.n_shards() > 1 {
        for (i, snap) in pools.into_iter().enumerate() {
            if let Some(snap) = snap {
                stat(&format!("shard{i}_pmem_clwbs"), snap.clwbs);
                stat(&format!("shard{i}_pmem_sfences"), snap.sfences);
                stat(
                    &format!("shard{i}_pmem_injected_crashes"),
                    snap.injected_crashes,
                );
                stat(
                    &format!("shard{i}_pmem_quarantined_payloads"),
                    snap.quarantined_payloads,
                );
            }
            if let Some(backlog) = backlogs[i] {
                stat(&format!("shard{i}_pmem_device_backlog_us"), backlog);
            }
            if let Some(e) = epochs[i] {
                stat(&format!("shard{i}_montage_epoch"), e);
            }
            stat(
                &format!("shard{i}_pool_faulted"),
                u64::from(store.shard(i).fault().is_some()),
            );
            fence_lines(&format!("shard{i}_"), &shard_fences[i]);
        }
        for (i, bytes) in mirrors.into_iter().enumerate() {
            stat(&format!("shard{i}_ordered_mirror_bytes"), bytes as u64);
        }
        for (i, d) in detects.into_iter().enumerate() {
            stat(&format!("shard{i}_descriptors"), d.descriptors);
        }
    }
    let mut out = out.into_inner();
    out.push_str("END\r\n");
    out
}

/// Owner handle for a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connection count.
    pub fn active_conns(&self) -> usize {
        self.shared.conns.used()
    }

    /// Graceful stop: refuse new connections, let every worker finish its
    /// in-flight sweep (batch, fence, flush) and exit, then run a final
    /// epoch sync so every acked mutation is persistent.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // The accept thread joins the workers before it exits.
        let _ = self.accept.join();
        // Final barrier across every shard; a faulted shard cannot sync and
        // is skipped (its loss is already the fault plan's fact on disk).
        let _ = self.shared.store.sync();
    }

    /// Simulated server crash: sever every connection mid-stream (queued
    /// replies are discarded, not drained) and stop all threads **without**
    /// the final sync, leaving the pool exactly as buffered durability left
    /// it. Pair with [`ShardedKvStore::crash_pools`] and
    /// [`ShardedKvStore::recover`] to exercise crash-restart.
    pub fn crash(self) {
        self.shared.crashed.store(true, Ordering::Release);
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.accept.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_is_enforced_and_slots_recycle() {
        let slots = Slots::new(2);
        assert!(slots.try_claim(), "first claim");
        assert!(slots.try_claim(), "second claim");
        assert!(!slots.try_claim(), "third claim must be shed");
        assert_eq!(slots.used(), 2);
        slots.release();
        assert_eq!(slots.used(), 1);
        assert!(slots.try_claim(), "slot freed by release");
    }
}
