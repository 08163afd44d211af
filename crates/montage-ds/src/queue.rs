//! The Montage queue: a single-lock FIFO queue whose persistent state is
//! just the set of item payloads, each labelled with a consecutive sequence
//! number (paper Sec. 3: "a queue needs to keep its items and their order:
//! it might label payloads with consecutive integers from i (the head) to j
//! (the tail)").
//!
//! The transient state — the lock and a deque of `(seq, handle)` pairs — is
//! rebuilt after a crash by sorting recovered payloads by sequence number.

use std::collections::VecDeque;
use std::sync::Arc;

use montage::sync::Mutex;
use montage::{EpochSys, PHandle, RecoveredState, ThreadId};

/// Persistent layout of one item of either Montage queue: `seq: u64`, value.
pub(crate) const SEQ_BYTES: usize = 8;

struct Inner {
    items: VecDeque<(u64, PHandle<[u8]>)>,
    /// Sequence number for the next enqueue.
    next_seq: u64,
}

/// A buffered-persistent FIFO queue (single global lock, as benchmarked in
/// the paper's Fig. 5/6/8).
///
/// ```
/// use montage::{EpochSys, EsysConfig};
/// use montage_ds::{tags, MontageQueue};
/// use pmem::{PmemConfig, PmemPool};
///
/// let esys = EpochSys::format(
///     PmemPool::new(PmemConfig::strict_for_test(16 << 20)),
///     EsysConfig::default(),
/// );
/// let tid = esys.register_thread();
/// let q = MontageQueue::new(esys.clone(), tags::QUEUE);
/// q.enqueue(tid, b"first");
/// q.enqueue(tid, b"second");
/// assert_eq!(q.dequeue(tid).unwrap(), b"first");
/// ```
pub struct MontageQueue {
    esys: Arc<EpochSys>,
    tag: u16,
    inner: Mutex<Inner>,
}

/// A queue's recovered items with `tag`, in sequence order: the recovery
/// both Montage queues share.
pub(crate) fn recover_items(tag: u16, rec: &RecoveredState) -> Vec<(u64, PHandle<[u8]>)> {
    let mut items: Vec<(u64, PHandle<[u8]>)> = rec
        .shards
        .iter()
        .flatten()
        .filter(|it| it.tag == tag)
        .map(|it| {
            let seq = rec.with_bytes(it, |b| {
                u64::from_le_bytes(b[..SEQ_BYTES].try_into().unwrap())
            });
            (seq, it.handle())
        })
        .collect();
    items.sort_unstable_by_key(|&(seq, _)| seq);
    debug_assert!(
        items.windows(2).all(|w| w[0].0 + 1 == w[1].0),
        "recovered sequence numbers must be contiguous"
    );
    items
}

impl MontageQueue {
    /// Creates an empty queue whose payloads carry `tag`.
    pub fn new(esys: Arc<EpochSys>, tag: u16) -> Self {
        MontageQueue {
            esys,
            tag,
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                next_seq: 0,
            }),
        }
    }

    /// Rebuilds a queue from recovered payloads with this queue's tag.
    ///
    /// Matching the paper's recovery sketch, this is ordinary application
    /// code: filter by tag, decode the sequence number, sort.
    pub fn recover(esys: Arc<EpochSys>, tag: u16, rec: &RecoveredState) -> Self {
        let items = recover_items(tag, rec);
        let next_seq = items.last().map_or(0, |&(s, _)| s + 1);
        MontageQueue {
            esys,
            tag,
            inner: Mutex::new(Inner {
                items: items.into(),
                next_seq,
            }),
        }
    }

    pub fn esys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    /// Appends `value`.
    pub fn enqueue(&self, tid: ThreadId, value: &[u8]) {
        let mut inner = self.inner.lock();
        let g = self.esys.begin_op(tid);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let mut buf = Vec::with_capacity(SEQ_BYTES + value.len());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(value);
        let h = self.esys.pnew_bytes(&g, self.tag, &buf);
        inner.items.push_back((seq, h));
    }

    /// Removes and returns the oldest value, if any.
    pub fn dequeue(&self, tid: ThreadId) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock();
        let g = self.esys.begin_op(tid);
        let (_seq, h) = inner.items.pop_front()?;
        let value = self
            .esys
            .peek_bytes(&g, h, |b| b[SEQ_BYTES..].to_vec())
            .expect("queue payloads cannot be newer than the op under the lock");
        self.esys
            .pdelete(&g, h)
            .expect("queue payloads cannot be newer than the op under the lock");
        Some(value)
    }

    /// Like [`MontageQueue::dequeue`] but avoids copying the value out —
    /// used by throughput benchmarks.
    pub fn dequeue_with<R>(&self, tid: ThreadId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let mut inner = self.inner.lock();
        let g = self.esys.begin_op(tid);
        let (_seq, h) = inner.items.pop_front()?;
        let r = self.esys.peek_bytes(&g, h, |b| f(&b[SEQ_BYTES..])).unwrap();
        self.esys.pdelete(&g, h).unwrap();
        Some(r)
    }

    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (head, next) sequence numbers — `head..next` are the live items.
    pub fn seq_bounds(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        let head = inner.items.front().map_or(inner.next_seq, |&(s, _)| s);
        (head, inner.next_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use montage::EsysConfig;
    use pmem::{PmemConfig, PmemPool};

    fn sys() -> Arc<EpochSys> {
        EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(32 << 20)),
            EsysConfig::default(),
        )
    }

    #[test]
    fn fifo_order() {
        let s = sys();
        let q = MontageQueue::new(s.clone(), 2);
        let tid = s.register_thread();
        for i in 0..10u32 {
            q.enqueue(tid, &i.to_le_bytes());
        }
        for i in 0..10u32 {
            assert_eq!(q.dequeue(tid).unwrap(), i.to_le_bytes());
        }
        assert!(q.dequeue(tid).is_none());
    }

    #[test]
    fn len_tracks_operations() {
        let s = sys();
        let q = MontageQueue::new(s.clone(), 2);
        let tid = s.register_thread();
        assert!(q.is_empty());
        q.enqueue(tid, b"a");
        q.enqueue(tid, b"b");
        assert_eq!(q.len(), 2);
        q.dequeue(tid);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn concurrent_enqueue_dequeue_conserves_items() {
        let s = sys();
        let q = Arc::new(MontageQueue::new(s.clone(), 2));
        let mut handles = vec![];
        for t in 0..4u32 {
            let q = q.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                let mut popped = vec![];
                for i in 0..500u32 {
                    q.enqueue(tid, &(t * 1000 + i).to_le_bytes());
                    if i % 2 == 0 {
                        if let Some(v) = q.dequeue(tid) {
                            popped.push(u32::from_le_bytes(v.try_into().unwrap()));
                        }
                    }
                }
                popped
            }));
        }
        let mut seen: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let tid = s.register_thread();
        while let Some(v) = q.dequeue(tid) {
            seen.push(u32::from_le_bytes(v.try_into().unwrap()));
        }
        seen.sort_unstable();
        let mut expect: Vec<u32> = (0..4)
            .flat_map(|t| (0..500).map(move |i| t * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn recovery_restores_fifo_prefix() {
        let s = sys();
        let q = MontageQueue::new(s.clone(), 2);
        let tid = s.register_thread();
        for i in 0..20u32 {
            q.enqueue(tid, &i.to_le_bytes());
        }
        for _ in 0..5 {
            q.dequeue(tid);
        }
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 2);
        let q2 = MontageQueue::recover(rec.esys.clone(), 2, &rec);
        assert_eq!(q2.len(), 15);
        assert_eq!(q2.seq_bounds(), (5, 20));
        let tid2 = rec.esys.register_thread();
        for i in 5..20u32 {
            assert_eq!(q2.dequeue(tid2).unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn unsynced_tail_is_lost_but_prefix_consistent() {
        let s = sys();
        let q = MontageQueue::new(s.clone(), 2);
        let tid = s.register_thread();
        for i in 0..10u32 {
            q.enqueue(tid, &i.to_le_bytes());
        }
        s.sync();
        for i in 10..20u32 {
            q.enqueue(tid, &i.to_le_bytes()); // never synced
        }
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let q2 = MontageQueue::recover(rec.esys.clone(), 2, &rec);
        // Everything synced must be there; the unsynced tail must be a
        // (possibly empty) contiguous extension — never a gap.
        let (head, next) = q2.seq_bounds();
        assert_eq!(head, 0);
        assert!(
            (10..=20).contains(&next),
            "prefix property violated: next={next}"
        );
    }

    #[test]
    fn queue_after_recovery_continues_sequence() {
        let s = sys();
        let q = MontageQueue::new(s.clone(), 2);
        let tid = s.register_thread();
        q.enqueue(tid, b"x");
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let q2 = MontageQueue::recover(rec.esys.clone(), 2, &rec);
        let tid2 = rec.esys.register_thread();
        q2.enqueue(tid2, b"y");
        assert_eq!(q2.seq_bounds(), (0, 2));
        assert_eq!(q2.dequeue(tid2).unwrap(), b"x");
        assert_eq!(q2.dequeue(tid2).unwrap(), b"y");
    }
}
