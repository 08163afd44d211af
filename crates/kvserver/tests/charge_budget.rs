//! Simulated-NVM read charges per request on the serving path, by count.
//!
//! The pool's latency model charges a dependent load that misses into NVM
//! ([`pmem::PmemPool::touch`]) and a bulk read per cache line
//! ([`pmem::PmemPool::media_read`]); both are counted in `PmemStats`. Each
//! charge must stand for an access the real code path would make: a wire
//! `set` overwrites blind, so it may dereference the old payload's header
//! once and read none of the value it replaces, while the verbs that decide
//! on the current item (`get`, `add`, `cas`, `incr`) still pay for reading
//! it. Driven like `alloc_budget.rs` — feed, frame, `execute_into` under a
//! batch pin, over a Montage-backed one-shard store — and exact: a count
//! repeats where a wall-clock diff on a shared box does not.
//!
//! The second half pins a whole batch's persistence counts through the real
//! server: a batch that is going to sync starts its write-backs as each
//! mutation completes (`batch::execute`), which may move *when* a line is
//! written back and never *how many* are; a batch that will not sync issues
//! none before its boundary.

use std::sync::Arc;

use kvserver::{Frame, KvServer, RequestReader, ServerConfig, WireClient};
use kvstore::protocol::Session;
use kvstore::{ShardedKvStore, StoreLease};
use montage::EsysConfig;
use pmem::PmemConfig;

/// A durable session id, for the `rid=` requests.
const SID: u64 = 9;
/// The benchmark's large-value size.
const DATA: usize = 4096;
/// Cache lines of one stored item: key image, protocol metadata, data.
const ITEM_LINES: u64 = ((32 + 20 + DATA) as u64).div_ceil(64);

struct Rig {
    store: Arc<ShardedKvStore>,
    lease: Arc<StoreLease>,
    session: Session,
    reader: RequestReader,
}

impl Rig {
    fn new() -> Rig {
        let store = ShardedKvStore::format(
            1,
            PmemConfig::strict_for_test(16 << 20),
            EsysConfig::default(),
            8,
            1000,
        );
        let lease = Arc::new(store.lease());
        let session = Session::sharded(Arc::clone(&store), Arc::clone(&lease));
        Rig {
            store,
            lease,
            session,
            reader: RequestReader::new(1 << 20),
        }
    }

    /// Serves one request as a worker's sweep does and returns its reply
    /// with the `(touches, media-read lines)` it was charged.
    fn serve(&mut self, line: &str, data: &[u8]) -> (String, (u64, u64)) {
        let mut packet = line.as_bytes().to_vec();
        packet.extend_from_slice(b"\r\n");
        if !data.is_empty() {
            packet.extend_from_slice(data);
            packet.extend_from_slice(b"\r\n");
        }
        let before = self.store.pool_stats_merged().expect("montage pool");
        self.reader.feed(&packet);
        let mut batch = self.store.batch(&self.lease);
        let mut out = Vec::new();
        let frame = self.reader.next_frame().expect("one whole request");
        let Frame::Cmd { line, data, .. } = frame else {
            panic!("the stream framed as {frame:?}");
        };
        let mut on_shard = |shard| batch.pin_shard(shard).expect("healthy shard");
        self.session
            .execute_into(line, data, Some(SID), &mut on_shard, &mut out);
        assert!(self.reader.next_frame().is_none(), "one request per sweep");
        drop(batch);
        let after = self.store.pool_stats_merged().expect("montage pool");
        (
            String::from_utf8(out).expect("replies are UTF-8"),
            (
                after.touches - before.touches,
                after.media_read_lines - before.media_read_lines,
            ),
        )
    }

    fn set(&mut self, line: &str, data: &[u8]) -> (u64, u64) {
        let (reply, charged) = self.serve(line, data);
        assert_eq!(reply, "STORED", "{line}");
        charged
    }
}

#[test]
fn a_set_dereferences_once_and_reads_nothing_and_deciding_verbs_still_read() {
    let mut rig = Rig::new();
    let value = vec![b'v'; DATA];
    let set_k = format!("set k 0 0 {DATA}");

    // Absent key: nothing to dereference.
    assert_eq!(rig.set(&set_k, &value), (0, 0), "set, absent key");

    // Resident key, same size — in place while the item is of this epoch,
    // copy-on-write once a sync has moved the clock: the header line, once.
    assert_eq!(rig.set(&set_k, &value), (1, 0), "set, same size, in place");
    rig.store.sync().unwrap();
    assert_eq!(rig.set(&set_k, &value), (1, 0), "set, same size, copied");

    // Resident key, resized (both epoch arms).
    let small = format!("set k 0 0 {}", DATA / 2);
    assert_eq!(rig.set(&small, &value[..DATA / 2]), (1, 0), "set, resized");
    rig.store.sync().unwrap();
    assert_eq!(rig.set(&set_k, &value), (1, 0), "set, resized, old epoch");

    // Under a session the descriptor's own overwrite is the second
    // dereference (the first `rid=` creates it).
    assert_eq!(rig.set(&format!("{set_k} rid=1"), &value), (1, 0));
    assert_eq!(
        rig.set(&format!("{set_k} rid=2"), &value),
        (2, 0),
        "set with rid: item + descriptor"
    );
    // A replayed rid touches neither.
    assert_eq!(rig.set(&format!("{set_k} rid=2"), &value), (0, 0), "replay");

    // get: the dereference and every line of the item.
    let (reply, charged) = rig.serve("get k", b"");
    assert!(
        reply.starts_with(&format!("VALUE k 0 {DATA}\r\n")),
        "{reply}"
    );
    assert_eq!(charged, (1, ITEM_LINES), "get");

    // The verbs that decide on the current item still read it.
    let (reply, charged) = rig.serve(&format!("add k 0 0 {DATA}"), &value);
    assert_eq!(reply, "NOT_STORED");
    assert_eq!(charged, (1, ITEM_LINES), "add, resident key");

    let (reply, charged) = rig.serve("gets k", b"");
    assert_eq!(charged, (1, ITEM_LINES), "gets");
    let header = reply.lines().next().expect("a VALUE line");
    let casid = header.rsplit(' ').next().expect("a cas id");
    let (reply, charged) = rig.serve(&format!("cas k 0 0 {DATA} {casid}"), &value);
    assert_eq!(reply, "STORED");
    assert_eq!(
        charged,
        (2, ITEM_LINES),
        "cas: the read, then the overwrite"
    );

    assert_eq!(rig.set("set n 0 0 1", b"5"), (0, 0));
    let (reply, charged) = rig.serve("incr n 1", b"");
    assert_eq!(reply, "6");
    assert_eq!(charged, (2, 1), "incr: the read, then the overwrite");
}

/// Requests per batch: one pipelined packet, one worker sweep.
const BATCH: usize = 16;

/// A one-worker server over `shards` fresh Montage shards (no background
/// advancer: every persistence event below is the batch path's own).
struct Served {
    store: Arc<ShardedKvStore>,
    handle: kvserver::ServerHandle,
    client: WireClient,
    batches: u64,
}

impl Served {
    fn start(shards: usize, sync_every: Option<u64>) -> Served {
        let store = ShardedKvStore::format(
            shards,
            PmemConfig::strict_for_test(16 << 20),
            EsysConfig::default(),
            8,
            1000,
        );
        let cfg = ServerConfig {
            workers: 1,
            sync_every,
            ..Default::default()
        };
        let handle = KvServer::start_sharded(cfg, Arc::clone(&store)).expect("bind");
        let client = WireClient::connect(handle.addr()).unwrap();
        Served {
            store,
            handle,
            client,
            batches: 0,
        }
    }

    /// Sends `BATCH` same-size `set`s to distinct keys as one packet, awaits
    /// every ack, and returns what the batch added to the pools' counters:
    /// `(clwbs, sfences, lines_drained)`.
    fn set_batch(&mut self) -> (u64, u64, u64) {
        let before = self.store.pool_stats_merged().expect("montage pools");
        let value = [b'v'; 64];
        let mut packet = Vec::new();
        for i in 0..BATCH {
            packet.extend_from_slice(format!("set key{i} 0 0 {}\r\n", value.len()).as_bytes());
            packet.extend_from_slice(&value);
            packet.extend_from_slice(b"\r\n");
        }
        self.client.send_raw(&packet).unwrap();
        for _ in 0..BATCH {
            assert_eq!(self.client.read_line().unwrap(), "STORED");
        }
        self.batches += 1;
        let after = self.store.pool_stats_merged().expect("montage pools");
        (
            after.clwbs - before.clwbs,
            after.sfences - before.sfences,
            after.lines_drained - before.lines_drained,
        )
    }

    /// Checks every `set_batch` ran as one sweep's batch, and stops.
    fn finish(mut self) {
        let stats = self.client.stats().unwrap();
        let whole = stats.iter().find(|(n, _)| n == "gc_batch_hist_16").unwrap();
        assert_eq!(whole.1, self.batches, "a packet was split across sweeps");
        self.client.quit().unwrap();
        self.handle.shutdown();
    }
}

#[test]
fn a_syncing_batch_writes_back_early_and_not_one_line_more() {
    // (shards, clwbs, sfences, lines drained) of one 16-`set` batch over
    // resident keys with every ack durable — the numbers the batch had when
    // every write-back waited for the group sync.
    for (shards, counts) in [(1, (50, 4, 50)), (4, (56, 16, 56))] {
        let mut served = Served::start(shards, Some(1));
        served.set_batch(); // make the keys resident, and of an older epoch
        assert_eq!(served.set_batch(), counts, "{shards} shard(s)");
        served.finish();
    }
}

#[test]
fn a_batch_that_will_not_sync_writes_nothing_back_before_its_boundary() {
    for sync_every in [None, Some(64)] {
        let mut served = Served::start(1, sync_every);
        served.set_batch();
        served.client.sync().unwrap();
        // Mutations 17..=32 of a server that fences at 64, or never.
        assert_eq!(served.set_batch(), (0, 0, 0), "{sync_every:?}");
        if sync_every.is_some() {
            served.set_batch();
            let (clwbs, sfences, _) = served.set_batch();
            assert!(clwbs > 0 && sfences > 0, "the 64th");
        }
        served.finish();
    }
}
