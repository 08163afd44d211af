//! The Montage general graph (paper Sec. 6.3).
//!
//! Persistent state: one payload per vertex (`[vid][attributes]`) and one
//! payload per edge (`[src][dst][attributes]`). **Edge payloads name their
//! endpoint vertices, but vertices do not point at edges** — the paper's
//! arrangement for avoiding long persistent pointer chains (a vertex update
//! would otherwise cascade into every adjacent edge payload).
//!
//! Transient state: a fixed-capacity slot table indexed by vertex id, each
//! slot holding the vertex payload handle and an adjacency map from
//! neighbour id to edge payload handle (edges are undirected for adjacency
//! purposes, matching the benchmark's RemoveVertex semantics of "clears all
//! adjacent edges"). Synchronization is per-vertex locks, acquired in id
//! order to avoid deadlock; `remove_vertex` locks the vertex and all its
//! neighbours so the vertex and its incident edges die in one operation
//! (hence one epoch — recovery can never see a half-removed vertex).

use montage::sync::uninstrumented::{AtomicUsize, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

use montage::sync::{Mutex, MutexGuard};
use montage::{EpochSys, PHandle, RecoveredState, ThreadId};

struct Slot {
    /// Vertex payload; null when the vertex does not exist.
    payload: PHandle<[u8]>,
    exists: bool,
    /// neighbour id → edge payload handle.
    adj: HashMap<u64, PHandle<[u8]>>,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            payload: PHandle::null(),
            exists: false,
            adj: HashMap::new(),
        }
    }
}

/// A buffered-persistent general graph with per-vertex locking.
pub struct MontageGraph {
    esys: Arc<EpochSys>,
    vtag: u16,
    etag: u16,
    slots: Box<[Mutex<Slot>]>,
    vertices: AtomicUsize,
    edges: AtomicUsize,
}

impl MontageGraph {
    /// Creates a graph with vertex-id capacity `capacity`.
    pub fn new(esys: Arc<EpochSys>, vtag: u16, etag: u16, capacity: usize) -> Self {
        MontageGraph {
            esys,
            vtag,
            etag,
            slots: (0..capacity).map(|_| Mutex::default()).collect(),
            vertices: AtomicUsize::new(0),
            edges: AtomicUsize::new(0),
        }
    }

    /// Rebuilds the graph from recovered payloads: vertices first (parallel
    /// across shards), then edges — "much like parallel construction"
    /// (paper Sec. 6.4). Edges whose endpoints did not survive (possible
    /// when a crash separates a remove_vertex from a prior unsynced
    /// add_edge epoch-wise) are dropped and their payloads deleted, keeping
    /// the no-dangling-edges invariant.
    pub fn recover(
        esys: Arc<EpochSys>,
        vtag: u16,
        etag: u16,
        capacity: usize,
        rec: &RecoveredState,
    ) -> Self {
        let g = Self::new(esys, vtag, etag, capacity);
        // Pass 1: vertices.
        std::thread::scope(|s| {
            for shard in &rec.shards {
                s.spawn(|| {
                    for item in shard.iter().filter(|it| it.tag == vtag) {
                        let vid = rec
                            .with_bytes(item, |b| u64::from_le_bytes(b[..8].try_into().unwrap()));
                        let mut slot = g.slots[vid as usize].lock();
                        slot.payload = item.handle();
                        slot.exists = true;
                        // ord(counter): size estimate only.
                        g.vertices.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Pass 2: edges.
        let orphans: Vec<Vec<PHandle<[u8]>>> = std::thread::scope(|s| {
            let handles: Vec<_> = rec
                .shards
                .iter()
                .map(|shard| {
                    s.spawn(|| {
                        let mut orphaned = Vec::new();
                        for item in shard.iter().filter(|it| it.tag == etag) {
                            let (src, dst) = rec.with_bytes(item, |b| {
                                (
                                    u64::from_le_bytes(b[..8].try_into().unwrap()),
                                    u64::from_le_bytes(b[8..16].try_into().unwrap()),
                                )
                            });
                            let (lo, hi) = (src.min(dst), src.max(dst));
                            let mut a = g.slots[lo as usize].lock();
                            let mut b = if lo == hi {
                                None
                            } else {
                                Some(g.slots[hi as usize].lock())
                            };
                            let both = a.exists && b.as_ref().map_or(a.exists, |s| s.exists);
                            if both {
                                a.adj
                                    .insert(if lo == src { dst } else { src }, item.handle());
                                if let Some(bs) = b.as_mut() {
                                    bs.adj
                                        .insert(if hi == src { dst } else { src }, item.handle());
                                }
                                // ord(counter): size estimate only.
                                g.edges.fetch_add(1, Ordering::Relaxed);
                            } else {
                                orphaned.push(item.handle());
                            }
                        }
                        orphaned
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Drop orphaned edge payloads in a fresh operation.
        let orphans: Vec<_> = orphans.into_iter().flatten().collect();
        if !orphans.is_empty() {
            let tid = g.esys.register_thread();
            let guard = g.esys.begin_op(tid);
            for h in orphans {
                let _ = g.esys.pdelete(&guard, h);
            }
        }
        g
    }

    pub fn esys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn vertex_count(&self) -> usize {
        // ord(counter): advisory size; no payload is published through it.
        self.vertices.load(Ordering::Relaxed)
    }

    pub fn edge_count(&self) -> usize {
        // ord(counter): advisory size; no payload is published through it.
        self.edges.load(Ordering::Relaxed)
    }

    fn encode_vertex(vid: u64, attr: &[u8]) -> Vec<u8> {
        let mut b = Vec::with_capacity(8 + attr.len());
        b.extend_from_slice(&vid.to_le_bytes());
        b.extend_from_slice(attr);
        b
    }

    fn encode_edge(src: u64, dst: u64, attr: &[u8]) -> Vec<u8> {
        let mut b = Vec::with_capacity(16 + attr.len());
        b.extend_from_slice(&src.to_le_bytes());
        b.extend_from_slice(&dst.to_le_bytes());
        b.extend_from_slice(attr);
        b
    }

    /// Adds vertex `vid`; returns `false` if it already exists.
    pub fn add_vertex(&self, tid: ThreadId, vid: u64, attr: &[u8]) -> bool {
        let mut slot = self.slots[vid as usize].lock();
        if slot.exists {
            return false;
        }
        let g = self.esys.begin_op(tid);
        slot.payload = self
            .esys
            .pnew_bytes(&g, self.vtag, &Self::encode_vertex(vid, attr));
        slot.exists = true;
        // ord(counter): size estimate only.
        self.vertices.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// True iff vertex `vid` exists.
    pub fn has_vertex(&self, vid: u64) -> bool {
        self.slots[vid as usize].lock().exists
    }

    /// Degree of `vid` (0 if absent).
    pub fn degree(&self, vid: u64) -> usize {
        self.slots[vid as usize].lock().adj.len()
    }

    fn lock_pair(&self, a: u64, b: u64) -> (MutexGuard<'_, Slot>, Option<MutexGuard<'_, Slot>>) {
        let (lo, hi) = (a.min(b), a.max(b));
        let first = self.slots[lo as usize].lock();
        let second = (lo != hi).then(|| self.slots[hi as usize].lock());
        if a <= b {
            (first, second)
        } else {
            match second {
                Some(s) => (s, Some(first)),
                None => (first, None),
            }
        }
    }

    /// Adds an (undirected) edge; returns `false` if either endpoint is
    /// missing or the edge already exists.
    pub fn add_edge(&self, tid: ThreadId, src: u64, dst: u64, attr: &[u8]) -> bool {
        if src == dst {
            return false;
        }
        let (mut s_src, s_dst) = self.lock_pair(src, dst);
        let mut s_dst = s_dst.expect("src != dst");
        if !s_src.exists || !s_dst.exists || s_src.adj.contains_key(&dst) {
            return false;
        }
        let g = self.esys.begin_op(tid);
        let h = self
            .esys
            .pnew_bytes(&g, self.etag, &Self::encode_edge(src, dst, attr));
        s_src.adj.insert(dst, h);
        s_dst.adj.insert(src, h);
        // ord(counter): size estimate only.
        self.edges.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Removes an edge; returns `false` if absent.
    pub fn remove_edge(&self, tid: ThreadId, src: u64, dst: u64) -> bool {
        if src == dst {
            return false;
        }
        let (mut s_src, s_dst) = self.lock_pair(src, dst);
        let mut s_dst = s_dst.expect("src != dst");
        let Some(h) = s_src.adj.remove(&dst) else {
            return false;
        };
        s_dst.adj.remove(&src);
        let g = self.esys.begin_op(tid);
        self.esys.pdelete(&g, h).expect("vertex locks order epochs");
        // ord(counter): size estimate only.
        self.edges.fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Removes a vertex and all incident edges **in one operation** (one
    /// epoch — the removal is failure-atomic). Returns `false` if absent.
    ///
    /// Locks the vertex and all current neighbours in id order; retries if
    /// the neighbour set changes while gathering locks.
    pub fn remove_vertex(&self, tid: ThreadId, vid: u64) -> bool {
        loop {
            // Snapshot the neighbour set.
            let neighbours: Vec<u64> = {
                let slot = self.slots[vid as usize].lock();
                if !slot.exists {
                    return false;
                }
                slot.adj.keys().copied().collect()
            };
            // Lock vid + neighbours in id order.
            let mut ids: Vec<u64> = neighbours.iter().copied().chain([vid]).collect();
            ids.sort_unstable();
            ids.dedup();
            let mut guards: Vec<(u64, MutexGuard<'_, Slot>)> = ids
                .iter()
                .map(|&id| (id, self.slots[id as usize].lock()))
                .collect();
            // Re-validate under the locks.
            let vslot_idx = guards.iter().position(|(id, _)| *id == vid).unwrap();
            if !guards[vslot_idx].1.exists {
                return false;
            }
            {
                let current: Vec<u64> = guards[vslot_idx].1.adj.keys().copied().collect();
                let mut a = current.clone();
                let mut b = neighbours.clone();
                a.sort_unstable();
                b.sort_unstable();
                if a != b {
                    continue; // adjacency changed; retry with fresh snapshot
                }
            }

            // One operation: delete the vertex payload and every incident
            // edge payload.
            let g = self.esys.begin_op(tid);
            let vpayload = guards[vslot_idx].1.payload;
            self.esys.pdelete(&g, vpayload).expect("locks order epochs");
            let adj: Vec<(u64, PHandle<[u8]>)> = guards[vslot_idx].1.adj.drain().collect();
            for (nid, h) in adj {
                self.esys.pdelete(&g, h).expect("locks order epochs");
                let n = guards.iter_mut().find(|(id, _)| *id == nid).unwrap();
                n.1.adj.remove(&vid);
                // ord(counter): size estimate only.
                self.edges.fetch_sub(1, Ordering::Relaxed);
            }
            let vslot = &mut guards[vslot_idx].1;
            vslot.exists = false;
            vslot.payload = PHandle::null();
            self.vertices.fetch_sub(1, Ordering::Relaxed);
            return true;
        }
    }

    /// Checks internal invariants (symmetry, no dangling edges); for tests.
    pub fn check_invariants(&self) {
        for vid in 0..self.slots.len() as u64 {
            let slot = self.slots[vid as usize].lock();
            if !slot.exists {
                assert!(slot.adj.is_empty(), "vertex {vid} absent but has edges");
                continue;
            }
            let neigh: Vec<u64> = slot.adj.keys().copied().collect();
            drop(slot);
            for n in neigh {
                let ns = self.slots[n as usize].lock();
                assert!(ns.exists, "edge {vid}-{n} dangles");
                assert!(ns.adj.contains_key(&vid), "edge {vid}-{n} not symmetric");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use montage::EsysConfig;
    use pmem::{PmemConfig, PmemPool};

    impl MontageGraph {
        /// True iff the edge exists.
        fn has_edge(&self, src: u64, dst: u64) -> bool {
            self.slots[src as usize].lock().adj.contains_key(&dst)
        }
    }

    fn sys() -> Arc<EpochSys> {
        EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        )
    }

    fn graph(s: &Arc<EpochSys>) -> MontageGraph {
        MontageGraph::new(s.clone(), 4, 5, 1024)
    }

    #[test]
    fn vertex_lifecycle() {
        let s = sys();
        let g = graph(&s);
        let tid = s.register_thread();
        assert!(g.add_vertex(tid, 1, b"v1"));
        assert!(!g.add_vertex(tid, 1, b"dup"));
        assert!(g.has_vertex(1));
        assert_eq!(g.vertex_count(), 1);
        assert!(g.remove_vertex(tid, 1));
        assert!(!g.has_vertex(1));
        assert!(!g.remove_vertex(tid, 1));
    }

    #[test]
    fn edge_lifecycle_and_symmetry() {
        let s = sys();
        let g = graph(&s);
        let tid = s.register_thread();
        g.add_vertex(tid, 1, b"");
        g.add_vertex(tid, 2, b"");
        assert!(!g.add_edge(tid, 1, 3, b""), "missing endpoint");
        assert!(g.add_edge(tid, 1, 2, b"e"));
        assert!(!g.add_edge(tid, 1, 2, b"dup"));
        assert!(
            !g.add_edge(tid, 2, 1, b"dup-rev"),
            "undirected: reverse is a dup"
        );
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_edge(tid, 2, 1));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.edge_count(), 0);
        g.check_invariants();
    }

    #[test]
    fn self_loops_rejected() {
        let s = sys();
        let g = graph(&s);
        let tid = s.register_thread();
        g.add_vertex(tid, 1, b"");
        assert!(!g.add_edge(tid, 1, 1, b""));
    }

    #[test]
    fn remove_vertex_clears_incident_edges() {
        let s = sys();
        let g = graph(&s);
        let tid = s.register_thread();
        for v in 0..5 {
            g.add_vertex(tid, v, b"");
        }
        for v in 1..5 {
            g.add_edge(tid, 0, v, b"");
        }
        assert_eq!(g.degree(0), 4);
        assert!(g.remove_vertex(tid, 0));
        assert_eq!(g.edge_count(), 0);
        for v in 1..5 {
            assert_eq!(g.degree(v), 0);
        }
        g.check_invariants();
    }

    #[test]
    fn concurrent_edge_churn_keeps_invariants() {
        let s = sys();
        let g = Arc::new(graph(&s));
        let tid0 = s.register_thread();
        for v in 0..64 {
            g.add_vertex(tid0, v, b"");
        }
        let mut handles = vec![];
        for t in 0..4u64 {
            let g = g.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                let mut x = t * 2654435761 + 1;
                for _ in 0..1500 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let a = (x >> 33) % 64;
                    let b = (x >> 13) % 64;
                    match x % 3 {
                        0 => {
                            g.add_edge(tid, a, b, b"");
                        }
                        1 => {
                            g.remove_edge(tid, a, b);
                        }
                        _ => {
                            if a % 16 == 0 {
                                g.remove_vertex(tid, a);
                                g.add_vertex(tid, a, b"");
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        g.check_invariants();
    }

    #[test]
    fn recovery_restores_graph() {
        let s = sys();
        let g = graph(&s);
        let tid = s.register_thread();
        for v in 0..10 {
            g.add_vertex(tid, v, format!("v{v}").as_bytes());
        }
        for v in 1..10 {
            g.add_edge(tid, 0, v, b"e");
        }
        g.remove_edge(tid, 0, 5);
        g.remove_vertex(tid, 9);
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 2);
        let g2 = MontageGraph::recover(rec.esys.clone(), 4, 5, 1024, &rec);
        assert_eq!(g2.vertex_count(), 9);
        assert_eq!(g2.edge_count(), 7); // 9 added - (0,5) removed - (0,9) with vertex 9
        assert!(g2.has_edge(0, 1));
        assert!(!g2.has_edge(0, 5));
        assert!(!g2.has_vertex(9));
        g2.check_invariants();
    }

    #[test]
    fn remove_vertex_recovers_without_its_edges() {
        // `remove_vertex` deletes the vertex and its edges in one operation,
        // so recovery finds neither payload. This does not reach the
        // orphan-edge drop in `recover`: that needs an edge payload to
        // survive without one of its endpoints.
        let s = sys();
        let g = graph(&s);
        let tid = s.register_thread();
        g.add_vertex(tid, 1, b"");
        s.sync();
        g.add_vertex(tid, 2, b"");
        g.add_edge(tid, 1, 2, b"");
        s.sync();
        g.remove_vertex(tid, 2); // deletes vertex 2 and edge 1-2 atomically
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let g2 = MontageGraph::recover(rec.esys.clone(), 4, 5, 1024, &rec);
        assert!(g2.has_vertex(1));
        assert!(!g2.has_vertex(2));
        assert_eq!(g2.edge_count(), 0);
        g2.check_invariants();
    }

    #[test]
    fn graph_usable_after_recovery() {
        let s = sys();
        let g = graph(&s);
        let tid = s.register_thread();
        g.add_vertex(tid, 1, b"");
        g.add_vertex(tid, 2, b"");
        g.add_edge(tid, 1, 2, b"");
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let g2 = MontageGraph::recover(rec.esys.clone(), 4, 5, 1024, &rec);
        let tid2 = rec.esys.register_thread();
        g2.add_vertex(tid2, 3, b"");
        assert!(g2.add_edge(tid2, 2, 3, b""));
        assert!(g2.remove_vertex(tid2, 1));
        g2.check_invariants();
        assert_eq!(g2.vertex_count(), 2);
        assert_eq!(g2.edge_count(), 1);
    }
}
