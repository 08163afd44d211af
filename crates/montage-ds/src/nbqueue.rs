//! A nonblocking (Michael–Scott) queue on Montage, following the paper's
//! Sec. 3.3 recipe: every operation linearizes on a `CAS_verify` — a
//! double-compare-single-swap that verifies the epoch clock — so an
//! operation linearizes in the same epoch that labels its payloads. A failed
//! epoch verification restarts the operation in the new epoch, preserving
//! lock freedom (the epoch advanced, so the system made progress).
//!
//! Transient nodes (retired through [`EpochSys::retire_transient`]) carry
//! the payload handles and sequence numbers; the persistent state is identical to
//! [`crate::MontageQueue`]'s, and so is its recovery
//! (`queue::recover_items`): sort payloads by sequence number.

use std::sync::Arc;

use montage::dcss::CasVerifyError;
use montage::{EpochSys, OpGuard, PHandle, RecoveredState, ThreadId, VerifyCell};

use crate::queue::{recover_items, SEQ_BYTES};

struct Node {
    /// Null for the dummy node.
    payload: PHandle<[u8]>,
    seq: u64,
    next: VerifyCell,
}

/// A lock-free buffered-persistent FIFO queue.
pub struct MontageNbQueue {
    esys: Arc<EpochSys>,
    tag: u16,
    head: VerifyCell,
    tail: VerifyCell,
}

// SAFETY: nodes are read only inside operation windows and retired through
// the epoch system; all shared state is `VerifyCell` atomics.
unsafe impl Send for MontageNbQueue {}
unsafe impl Sync for MontageNbQueue {}

fn node_ptr(n: *const Node) -> u64 {
    n as u64
}

/// # Safety
/// `ptr` must hold a pointer obtained from `node_ptr` on a node loaded from
/// the queue inside the window `_g`: an unlinked node is retired, not freed,
/// until the window closes.
unsafe fn node_ref<'g>(ptr: u64, _g: &'g OpGuard<'_>) -> &'g Node {
    // SAFETY: per this function's contract.
    unsafe { &*(ptr as *const Node) }
}

impl MontageNbQueue {
    pub fn new(esys: Arc<EpochSys>, tag: u16) -> Self {
        Self::with_items(esys, tag, Vec::new())
    }

    /// Rebuilds from recovered payloads (sorted by sequence number).
    pub fn recover(esys: Arc<EpochSys>, tag: u16, rec: &RecoveredState) -> Self {
        Self::with_items(esys, tag, recover_items(tag, rec))
    }

    fn with_items(esys: Arc<EpochSys>, tag: u16, items: Vec<(u64, PHandle<[u8]>)>) -> Self {
        let dummy_seq = items.first().map_or(0, |&(s, _)| s.wrapping_sub(1));
        let dummy = Box::into_raw(Box::new(Node {
            payload: PHandle::null(),
            seq: dummy_seq,
            next: VerifyCell::new(0),
        }));
        let q = MontageNbQueue {
            esys,
            tag,
            head: VerifyCell::new(node_ptr(dummy)),
            tail: VerifyCell::new(node_ptr(dummy)),
        };
        // Chain the recovered items (single-threaded construction).
        let mut tail = dummy;
        for (seq, payload) in items {
            let n = Box::into_raw(Box::new(Node {
                payload,
                seq,
                next: VerifyCell::new(0),
            }));
            // SAFETY: single-threaded construction; every pointer in the
            // chain was just produced by Box::into_raw above.
            unsafe { (*tail).next.store_unsync(node_ptr(n)) };
            tail = n;
        }
        q.tail.store_unsync(node_ptr(tail));
        q
    }

    pub fn esys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    /// Appends `value` (lock-free).
    pub fn enqueue(&self, tid: ThreadId, value: &[u8]) {
        loop {
            let g = self.esys.begin_op(tid);
            let tail_ptr = self.tail.load(&self.esys);
            // SAFETY: loaded from the live queue inside `g`.
            let tail = unsafe { node_ref(tail_ptr, &g) };
            let next = tail.next.load(&self.esys);
            if next != 0 {
                // Stale tail: help swing it, then retry.
                self.tail.cas_plain(&self.esys, tail_ptr, next);
                continue;
            }
            let seq = tail.seq.wrapping_add(1);
            let mut buf = Vec::with_capacity(SEQ_BYTES + value.len());
            buf.extend_from_slice(&seq.to_le_bytes());
            buf.extend_from_slice(value);
            let payload = self.esys.pnew_bytes(&g, self.tag, &buf);
            let node = Box::into_raw(Box::new(Node {
                payload,
                seq,
                next: VerifyCell::new(0),
            }));
            match tail.next.cas_verify(&self.esys, &g, 0, node_ptr(node)) {
                Ok(()) => {
                    self.tail.cas_plain(&self.esys, tail_ptr, node_ptr(node));
                    return;
                }
                Err(CasVerifyError::Conflict(_)) | Err(CasVerifyError::Epoch(_)) => {
                    // Roll back: the payload was created this epoch and never
                    // linked, so PDELETE discards it immediately.
                    let _ = self.esys.pdelete(&g, payload);
                    // SAFETY: the CAS failed, so `node` was never published;
                    // this thread still owns it exclusively.
                    drop(unsafe { Box::from_raw(node) });
                }
            }
        }
    }

    /// Removes the oldest value (lock-free).
    pub fn dequeue(&self, tid: ThreadId) -> Option<Vec<u8>> {
        loop {
            let g = self.esys.begin_op(tid);
            let head_ptr = self.head.load(&self.esys);
            // SAFETY: loaded from the live queue inside `g`.
            let head = unsafe { node_ref(head_ptr, &g) };
            let next = head.next.load(&self.esys);
            if next == 0 {
                return None;
            }
            let tail_ptr = self.tail.load(&self.esys);
            if head_ptr == tail_ptr {
                self.tail.cas_plain(&self.esys, tail_ptr, next);
                continue;
            }
            // SAFETY: `next` was read from the queue inside `g`.
            let next_node = unsafe { node_ref(next, &g) };
            // Copy the value out before linearizing; if our CAS loses, the
            // copy is discarded (the bytes may then be a competitor's
            // garbage, which is fine — we never return them).
            let value = self
                .esys
                .peek_bytes_unsafe(next_node.payload, |b| b[SEQ_BYTES.min(b.len())..].to_vec());
            match self.head.cas_verify(&self.esys, &g, head_ptr, next) {
                Ok(()) => {
                    let _ = self.esys.pdelete(&g, next_node.payload);
                    // SAFETY: the CAS unlinked the old dummy, a node box, so
                    // no later operation can reach it.
                    unsafe { self.esys.retire_transient(&g, head_ptr as *mut Node) };
                    return Some(value);
                }
                Err(_) => continue,
            }
        }
    }
}

impl Drop for MontageNbQueue {
    fn drop(&mut self) {
        // Single-threaded at drop: free the node chain.
        let mut cur = self.head.load(&self.esys);
        while cur != 0 {
            // SAFETY: `&mut self` in Drop means no other thread holds the
            // queue; every chained node is exclusively ours to read and free
            // (unlinked ones belong to the epoch system).
            let node = unsafe { Box::from_raw(cur as *mut Node) };
            cur = node.next.load(&self.esys);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use montage::EsysConfig;
    use pmem::{PmemConfig, PmemPool};

    fn sys() -> Arc<EpochSys> {
        EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        )
    }

    #[test]
    fn fifo_single_thread() {
        let s = sys();
        let q = MontageNbQueue::new(s.clone(), 3);
        let tid = s.register_thread();
        for i in 0..20u32 {
            q.enqueue(tid, &i.to_le_bytes());
        }
        for i in 0..20u32 {
            assert_eq!(q.dequeue(tid).unwrap(), i.to_le_bytes());
        }
        assert!(q.dequeue(tid).is_none());
    }

    #[test]
    fn survives_epoch_advances_mid_stream() {
        let s = sys();
        let q = MontageNbQueue::new(s.clone(), 3);
        let tid = s.register_thread();
        for i in 0..50u32 {
            q.enqueue(tid, &i.to_le_bytes());
            if i % 7 == 0 {
                s.advance_epoch();
            }
        }
        for i in 0..50u32 {
            if i % 5 == 0 {
                s.advance_epoch();
            }
            assert_eq!(q.dequeue(tid).unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        let s = sys();
        let q = Arc::new(MontageNbQueue::new(s.clone(), 3));
        let mut handles = vec![];
        const PER: u32 = 400;
        for t in 0..2u32 {
            let q = q.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                for i in 0..PER {
                    q.enqueue(tid, &(t * 100_000 + i).to_le_bytes());
                }
                Vec::new()
            }));
        }
        for _ in 0..2 {
            let q = q.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                let mut got = vec![];
                while got.len() < (PER / 2) as usize {
                    if let Some(v) = q.dequeue(tid) {
                        got.push(u32::from_le_bytes(v.try_into().unwrap()));
                    }
                }
                got
            }));
        }
        // Stir the epochs while they run.
        for _ in 0..20 {
            s.advance_epoch();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let tid = s.register_thread();
        while let Some(v) = q.dequeue(tid) {
            all.push(u32::from_le_bytes(v.try_into().unwrap()));
        }
        all.sort_unstable();
        let mut expect: Vec<u32> = (0..2)
            .flat_map(|t| (0..PER).map(move |i| t * 100_000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        let s = sys();
        let q = Arc::new(MontageNbQueue::new(s.clone(), 3));
        let s2 = s.clone();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            let tid = s2.register_thread();
            for i in 0..500u32 {
                q2.enqueue(tid, &i.to_le_bytes());
            }
        });
        let tid = s.register_thread();
        let mut last = None;
        let mut seen = 0;
        while seen < 500 {
            if let Some(v) = q.dequeue(tid) {
                let v = u32::from_le_bytes(v.try_into().unwrap());
                if let Some(l) = last {
                    assert!(v > l, "FIFO violated: {v} after {l}");
                }
                last = Some(v);
                seen += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn recovery_restores_contiguous_prefix() {
        let s = sys();
        let q = MontageNbQueue::new(s.clone(), 3);
        let tid = s.register_thread();
        for i in 0..15u32 {
            q.enqueue(tid, &i.to_le_bytes());
        }
        for _ in 0..4 {
            q.dequeue(tid);
        }
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let q2 = MontageNbQueue::recover(rec.esys.clone(), 3, &rec);
        let tid2 = rec.esys.register_thread();
        for i in 4..15u32 {
            assert_eq!(q2.dequeue(tid2).unwrap(), i.to_le_bytes());
        }
        assert!(q2.dequeue(tid2).is_none());
    }
}
