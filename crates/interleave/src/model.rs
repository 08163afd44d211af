//! The memory model: a bounded-staleness approximation of the C11 subset the
//! workspace actually uses (Relaxed / Acquire / Release / AcqRel / SeqCst on
//! word-sized atomics, plus mutexes).
//!
//! Every shared atomic location keeps a short history of recent stores. Each
//! thread keeps a *floor view*: for every location, the oldest store sequence
//! number it is still allowed to read. The asymmetry that makes ordering bugs
//! observable:
//!
//! * a **Release** store snapshots the writer's whole floor view into the
//!   store record;
//! * an **Acquire** load that reads a Release store *joins* that snapshot
//!   into the reader's floor — everything the writer had seen becomes
//!   mandatory for the reader;
//! * a **Relaxed** load (or a load of a Relaxed store) only bumps the floor
//!   of the one location it read (coherence), so the reader may go on to
//!   read arbitrarily stale values of *other* locations the writer had
//!   already published.
//!
//! Downgrading a Release publish (or an Acquire read) to Relaxed therefore
//! widens the set of values later loads may return, and the DFS scheduler
//! branches over those extra values — which is exactly how the seeded
//! weakening fixtures produce counterexamples.
//!
//! RMWs always read the coherence-latest store (C11 atomic-RMW guarantee),
//! so single-winner CAS properties hold under any ordering — those are
//! checked by the schedule search, not by staleness.
//!
//! SeqCst is approximated by a single global view that every SeqCst access
//! joins with bidirectionally (a total order of SC events where each SC op
//! is also a global synchronization point). This is stronger than C11 SC —
//! it can hide exotic SC-vs-non-SC mixings — but it is faithful for the
//! StoreLoad edges the protocol code uses SeqCst for, and weakening *from*
//! SeqCst to anything below drops the thread out of the global view, which
//! the model does observe.

use std::collections::HashMap;

/// Location identity: the address of the atomic (or mutex) cell.
pub type Loc = usize;

/// Floor view: location -> smallest store sequence number still readable.
pub(crate) type View = HashMap<Loc, u64>;

/// Stores kept per location. Older stores fall off the front; a bounded
/// history keeps the branching factor of stale loads small while still
/// exposing one-publish-behind bugs (the kind ordering mistakes cause).
pub(crate) const HIST_CAP: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MOrd {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl MOrd {
    pub fn from_std(o: std::sync::atomic::Ordering) -> MOrd {
        use std::sync::atomic::Ordering::*;
        match o {
            Relaxed => MOrd::Relaxed,
            Acquire => MOrd::Acquire,
            Release => MOrd::Release,
            AcqRel => MOrd::AcqRel,
            SeqCst => MOrd::SeqCst,
            _ => MOrd::SeqCst,
        }
    }
    pub(crate) fn acq(self) -> bool {
        matches!(self, MOrd::Acquire | MOrd::AcqRel | MOrd::SeqCst)
    }
    pub fn rel(self) -> bool {
        matches!(self, MOrd::Release | MOrd::AcqRel | MOrd::SeqCst)
    }
    pub fn name(self) -> &'static str {
        match self {
            MOrd::Relaxed => "Relaxed",
            MOrd::Acquire => "Acquire",
            MOrd::Release => "Release",
            MOrd::AcqRel => "AcqRel",
            MOrd::SeqCst => "SeqCst",
        }
    }
}

pub(crate) struct StoreRec {
    pub seq: u64,
    pub val: u64,
    /// Writer's floor snapshot iff the store had release semantics.
    pub view: Option<View>,
}

#[derive(Default)]
pub(crate) struct LocState {
    /// Oldest..latest, at most [`HIST_CAP`] entries.
    pub stores: Vec<StoreRec>,
}

impl LocState {
    fn latest(&self) -> &StoreRec {
        self.stores
            .last()
            .expect("location has at least its init store")
    }
}

#[derive(Default)]
pub(crate) struct MutexState {
    pub held_by: Option<usize>,
    /// Floor view left behind by the last unlocker (lock = acquire it).
    pub view: View,
}

/// Whole-execution model state. Reset for every execution.
#[derive(Default)]
pub struct Model {
    pub locs: HashMap<Loc, LocState>,
    /// Per-thread floor views, indexed by tid.
    pub views: Vec<View>,
    /// Global SeqCst view (see module docs).
    pub sc: View,
    pub mutexes: HashMap<Loc, MutexState>,
}

fn join(dst: &mut View, src: &View) {
    for (&l, &s) in src {
        let e = dst.entry(l).or_insert(0);
        if s > *e {
            *e = s;
        }
    }
}

impl Model {
    pub fn add_thread(&mut self) -> usize {
        self.views.push(View::new());
        self.views.len() - 1
    }

    /// Program-order edge from spawner to spawnee.
    pub fn fork_edge(&mut self, parent: usize, child: usize) {
        let v = self.views[parent].clone();
        join(&mut self.views[child], &v);
    }

    /// Program-order edge from a finished thread to its joiner.
    pub fn join_edge(&mut self, joiner: usize, target: usize) {
        let v = self.views[target].clone();
        join(&mut self.views[joiner], &v);
    }

    fn sc_sync(&mut self, tid: usize) {
        join(&mut self.views[tid], &self.sc.clone());
        self.sc = self.views[tid].clone();
    }

    /// Registers `loc` with its current (real) value as the initial store.
    pub fn ensure_loc(&mut self, loc: Loc, init: u64) {
        self.locs.entry(loc).or_insert_with(|| LocState {
            stores: vec![StoreRec {
                seq: 1,
                val: init,
                view: None,
            }],
        });
    }

    /// How many distinct stores a load by `tid` could observe right now.
    /// Variant `v` in a scheduling choice means "read the v-th most recent
    /// readable store" (variant 0 = coherence-latest).
    pub fn readable_count(&self, tid: usize, loc: Loc) -> usize {
        let Some(ls) = self.locs.get(&loc) else {
            return 1;
        };
        let floor = self.views[tid].get(&loc).copied().unwrap_or(0);
        ls.stores.iter().filter(|s| s.seq >= floor).count().max(1)
    }

    pub fn load(&mut self, tid: usize, loc: Loc, ord: MOrd, variant: usize) -> u64 {
        if ord == MOrd::SeqCst {
            self.sc_sync(tid);
        }
        let floor = self.views[tid].get(&loc).copied().unwrap_or(0);
        let ls = self.locs.get(&loc).expect("loc registered");
        let cands: Vec<usize> = (0..ls.stores.len())
            .filter(|&i| ls.stores[i].seq >= floor)
            .collect();
        let idx = if cands.is_empty() {
            ls.stores.len() - 1
        } else {
            cands[cands.len() - 1 - variant.min(cands.len() - 1)]
        };
        let seq = ls.stores[idx].seq;
        let val = ls.stores[idx].val;
        let sview = ls.stores[idx].view.clone();
        let e = self.views[tid].entry(loc).or_insert(0);
        if seq > *e {
            *e = seq;
        }
        if ord.acq() {
            if let Some(v) = sview {
                join(&mut self.views[tid], &v);
            }
        }
        val
    }

    pub fn store(&mut self, tid: usize, loc: Loc, ord: MOrd, val: u64) {
        if ord == MOrd::SeqCst {
            self.sc_sync(tid);
        }
        let seq = self.locs.get(&loc).expect("loc registered").latest().seq + 1;
        let view = if ord.rel() {
            let mut v = self.views[tid].clone();
            v.insert(loc, seq);
            Some(v)
        } else {
            None
        };
        let ls = self.locs.get_mut(&loc).unwrap();
        ls.stores.push(StoreRec { seq, val, view });
        if ls.stores.len() > HIST_CAP {
            ls.stores.remove(0);
        }
        self.views[tid].insert(loc, seq);
        if ord == MOrd::SeqCst {
            self.sc.insert(loc, seq);
        }
    }

    /// Atomic read-modify-write. Always reads the coherence-latest store;
    /// `f` returns `Some(new)` to commit (fetch_add, successful CAS) or
    /// `None` to leave the location unchanged (failed CAS). Returns the
    /// value read.
    pub fn rmw(
        &mut self,
        tid: usize,
        loc: Loc,
        ord: MOrd,
        ord_fail: MOrd,
        f: &mut dyn FnMut(u64) -> Option<u64>,
    ) -> (u64, Option<u64>) {
        let (old, oseq, oview) = {
            let s = self.locs.get(&loc).expect("loc registered").latest();
            (s.val, s.seq, s.view.clone())
        };
        let new = f(old);
        // C11 §7.17.7.4: the success ordering governs a committed RMW; a
        // failed compare-exchange is just a load with the failure ordering.
        // (Unconditional RMWs pass the same ordering for both.)
        let eff = if new.is_some() { ord } else { ord_fail };
        if eff == MOrd::SeqCst {
            self.sc_sync(tid);
        }
        // Coherence: even a Relaxed RMW reads the latest store, so the
        // thread can never again observe anything older at this location.
        let e = self.views[tid].entry(loc).or_insert(0);
        if oseq > *e {
            *e = oseq;
        }
        if eff.acq() {
            if let Some(v) = oview {
                join(&mut self.views[tid], &v);
            }
        }
        if let Some(nv) = new {
            let seq = oseq + 1;
            let view = if ord.rel() {
                let mut v = self.views[tid].clone();
                v.insert(loc, seq);
                Some(v)
            } else {
                None
            };
            let ls = self.locs.get_mut(&loc).unwrap();
            ls.stores.push(StoreRec { seq, val: nv, view });
            if ls.stores.len() > HIST_CAP {
                ls.stores.remove(0);
            }
            self.views[tid].insert(loc, seq);
            if ord == MOrd::SeqCst {
                self.sc.insert(loc, seq);
            }
        }
        (old, new)
    }

    pub fn mutex_free(&self, loc: Loc) -> bool {
        self.mutexes.get(&loc).is_none_or(|m| m.held_by.is_none())
    }

    pub fn mutex_lock(&mut self, tid: usize, loc: Loc) {
        let m = self.mutexes.entry(loc).or_default();
        debug_assert!(m.held_by.is_none(), "model granted a held mutex");
        m.held_by = Some(tid);
        let v = m.view.clone();
        join(&mut self.views[tid], &v);
    }

    pub fn mutex_unlock(&mut self, tid: usize, loc: Loc) {
        let v = self.views[tid].clone();
        let m = self.mutexes.entry(loc).or_default();
        m.held_by = None;
        m.view = v;
    }
}
