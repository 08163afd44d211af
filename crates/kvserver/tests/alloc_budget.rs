//! Heap allocations per request on the serving path, gated by count.
//!
//! The worker's sweep is: feed socket bytes to the connection's
//! [`RequestReader`], borrow each [`Frame`] out of it, and have
//! [`Session::execute_into`] write the reply into the connection's output
//! buffer, mutations under a [`kvstore::StoreBatch`] pin. This test drives
//! exactly those calls in-process over a Montage-backed one-shard store,
//! under a counting global allocator, and pins what each verb may allocate
//! once the buffers have reached their steady capacity. A count repeats
//! exactly where a wall-clock diff on a shared box does not: an allocation
//! creeping back into the `get` path fails here, by name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use kvserver::{Frame, RequestReader};
use kvstore::protocol::Session;
use kvstore::{ShardedKvStore, StoreLease};
use montage::EsysConfig;
use pmem::PmemConfig;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local cells without
// destructors, so touching them allocates nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `GlobalAlloc::alloc` contract is `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    // SAFETY: the caller's `GlobalAlloc::alloc_zeroed` contract is `System`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, so from `System`, with `layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` came from this allocator, so from `System`, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn note() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations the calling thread makes inside `f`. Only this thread's:
/// the epoch system's background advancer does not count.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const RESIDENT: u64 = 10_000;
const VALUE: [u8; 64] = [b'v'; 64];

/// One connection's worth of the worker's state, minus the socket.
struct Rig {
    store: Arc<ShardedKvStore>,
    lease: Arc<StoreLease>,
    session: Session,
    reader: RequestReader,
    out: Vec<u8>,
}

impl Rig {
    fn new() -> Rig {
        let store = ShardedKvStore::format(
            1,
            PmemConfig::strict_for_test(64 << 20),
            EsysConfig::default(),
            8,
            100_000,
        );
        let lease = Arc::new(store.lease());
        let session = Session::sharded(Arc::clone(&store), Arc::clone(&lease));
        let mut rig = Rig {
            store,
            lease,
            session,
            reader: RequestReader::new(1 << 20),
            out: Vec::new(),
        };
        let mut packet = Vec::new();
        for i in 0..RESIDENT {
            packet.clear();
            packet.extend_from_slice(format!("set k{i:05} 0 0 64\r\n").as_bytes());
            packet.extend_from_slice(&VALUE);
            packet.extend_from_slice(b"\r\n");
            assert_eq!(rig.sweep(&packet), 1);
            assert_eq!(rig.out, b"STORED\r\n");
        }
        rig
    }

    /// One sweep over one connection, as `kvserver`'s batch runs it: feed,
    /// then frame and execute in place until the reader runs dry. Returns
    /// the number of requests served; their replies are in `self.out`.
    fn sweep(&mut self, packet: &[u8]) -> usize {
        self.out.clear();
        self.reader.feed(packet);
        let mut batch = self.store.batch(&self.lease);
        let mut served = 0;
        while let Some(frame) = self.reader.next_frame() {
            let Frame::Cmd { line, data, .. } = frame else {
                panic!("the stream framed as {frame:?}");
            };
            let mut on_shard = |shard| batch.pin_shard(shard).expect("healthy shard");
            self.session
                .execute_into(line, data, None, &mut on_shard, &mut self.out);
            self.out.extend_from_slice(b"\r\n");
            served += 1;
        }
        served
    }

    /// Allocations per request of `packet`, swept `ROUNDS` times after a
    /// warm-up that lets the reader and the reply buffer reach capacity.
    fn allocs_per_request(&mut self, packet: &[u8], expect_reply: &[u8]) -> f64 {
        const ROUNDS: usize = 200;
        let per_sweep = self.sweep(packet);
        assert_eq!(
            self.out,
            expect_reply,
            "{}",
            String::from_utf8_lossy(&self.out)
        );
        let allocs = allocs_of(|| {
            for _ in 0..ROUNDS {
                self.sweep(packet);
            }
        });
        allocs as f64 / (ROUNDS * per_sweep) as f64
    }
}

fn value_block(key: &str) -> Vec<u8> {
    let mut block = format!("VALUE {key} 0 64\r\n").into_bytes();
    block.extend_from_slice(&VALUE);
    block.extend_from_slice(b"\r\n");
    block
}

/// A same-length `set` of a resident key, one per batch: the encoded item
/// and the reply, which the store's `decide` signature takes and returns by
/// value, and the batch's pin table (once per batch, so less per request
/// when sets arrive pipelined). Measured: exactly 3.
const SET_ALLOCS_MAX: f64 = 3.0;

#[test]
fn reads_allocate_nothing_and_writes_stay_in_budget() {
    let mut rig = Rig::new();

    // get, hit — pipelined 16 deep like the benchmark's connections.
    let mut hits = Vec::new();
    let mut hit_reply = Vec::new();
    for i in 0..16 {
        hits.extend_from_slice(format!("get k{i:05}\r\n").as_bytes());
        hit_reply.extend_from_slice(&value_block(&format!("k{i:05}")));
        hit_reply.extend_from_slice(b"END\r\n");
    }
    assert_eq!(rig.allocs_per_request(&hits, &hit_reply), 0.0, "get hit");

    // get, miss.
    let misses = b"get nope1\r\nget nope2\r\n";
    assert_eq!(
        rig.allocs_per_request(misses, b"END\r\nEND\r\n"),
        0.0,
        "get miss"
    );

    // One get of eight keys, a miss among them; and `gets`.
    let mut multi = b"get".to_vec();
    let mut multi_reply = Vec::new();
    for i in 100..108 {
        multi.extend_from_slice(format!(" k{i:05}").as_bytes());
        multi_reply.extend_from_slice(&value_block(&format!("k{i:05}")));
    }
    multi.extend_from_slice(b" nope\r\n");
    multi_reply.extend_from_slice(b"END\r\n");
    assert_eq!(
        rig.allocs_per_request(&multi, &multi_reply),
        0.0,
        "8-key multi-get"
    );

    // set, same length, resident key.
    let mut set = b"set k00042 0 0 64\r\n".to_vec();
    set.extend_from_slice(&VALUE);
    set.extend_from_slice(b"\r\n");
    let per_set = rig.allocs_per_request(&set, b"STORED\r\n");
    assert!(
        per_set <= SET_ALLOCS_MAX,
        "{per_set} allocations per same-length set (budget {SET_ALLOCS_MAX})"
    );
}
