//! Concurrent-history recording and a Wing&Gong-style linearizability
//! checker, extended to *buffered durable* linearizability.
//!
//! ## Live checking
//!
//! A history is a set of [`OpRecord`]s with logical invoke/response
//! timestamps (drawn from one atomic counter, so they totally order
//! non-overlapping ops). [`check_linearizable`] does the classic Wing &
//! Gong search: repeatedly pick a *minimal* pending op — one no other
//! pending op precedes in real time — apply it to a sequential [`Model`],
//! and require the model's return to match what the concurrent run actually
//! observed. Memoizing visited (applied-set, model-state) pairs keeps the
//! search polynomial in practice on real histories.
//!
//! ## Durable checking
//!
//! Montage's guarantee after a crash is not "nothing is lost" but "what
//! survives is a consistent *prefix* cut at an epoch boundary": payloads
//! from epochs ≤ the recovery cutoff all survive; payloads from later
//! epochs are all discarded. [`check_durable_prefix`] verifies a recovered
//! state against a recorded history under exactly that contract. Each op
//! carries the epoch interval it executed in (`[epoch_lo, epoch_hi]`,
//! measured around invoke/response); given the recovery cutoff E:
//!
//! * `epoch_hi ≤ E` → the op **must** be in the durable prefix,
//! * `epoch_lo > E` → the op **must not** be,
//! * otherwise it straddles the boundary and may land on either side.
//!
//! The checker searches for a real-time-respecting linearization of an
//! include/flexible subset whose sequential execution reproduces the
//! recovered state. Prefix-closure under real-time order is enforced
//! structurally: an op can only be applied once all its real-time
//! predecessors were, so nothing outside the chosen prefix can precede
//! anything inside it.

use std::collections::HashSet;
use std::hash::Hash;

/// Max ops per checked history (the applied-set is a `u128` bitmask).
pub const MAX_OPS: usize = 128;

/// A sequential specification the checker replays ops against.
pub trait Model: Clone + Eq + Hash + Default {
    type Op: Clone;
    type Ret: Eq + Clone + std::fmt::Debug;

    fn apply(&mut self, op: &Self::Op) -> Self::Ret;
}

/// One completed operation in a concurrent history.
#[derive(Clone, Debug)]
pub struct OpRecord<O, R> {
    /// Recording thread (diagnostics only).
    pub thread: usize,
    /// Logical invoke timestamp (strictly before `response`).
    pub invoke: u64,
    /// Logical response timestamp.
    pub response: u64,
    /// Epoch clock observed at (or before) invoke — the op's epoch is at
    /// least this. Zero when the run doesn't track epochs.
    pub epoch_lo: u64,
    /// Epoch clock observed at (or after) response — the op's epoch is at
    /// most this.
    pub epoch_hi: u64,
    pub op: O,
    /// What the concurrent run returned.
    pub ret: R,
}

/// Where an op must land relative to a durable cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    MustInclude,
    Flexible,
    MustExclude,
}

/// Classifies every op of `history` against recovery cutoff epoch `cutoff`.
pub fn classify_by_epoch<O, R>(history: &[OpRecord<O, R>], cutoff: u64) -> Vec<Durability> {
    history
        .iter()
        .map(|op| {
            if op.epoch_hi <= cutoff {
                Durability::MustInclude
            } else if op.epoch_lo > cutoff {
                Durability::MustExclude
            } else {
                Durability::Flexible
            }
        })
        .collect()
}

struct Search<'a, M: Model> {
    history: &'a [OpRecord<M::Op, M::Ret>],
    /// `prec[i]`: bitmask of ops that finish before op `i` begins.
    prec: Vec<u128>,
    memo: HashSet<(u128, M)>,
    full: u128,
}

impl<'a, M: Model> Search<'a, M> {
    fn new(history: &'a [OpRecord<M::Op, M::Ret>]) -> Self {
        let n = history.len();
        assert!(n <= MAX_OPS, "history too long for the u128 bitmask ({n})");
        let prec = (0..n)
            .map(|i| {
                let mut m = 0u128;
                for (j, other) in history.iter().enumerate() {
                    if j != i && other.response < history[i].invoke {
                        m |= 1 << j;
                    }
                }
                m
            })
            .collect();
        Search {
            history,
            prec,
            memo: HashSet::new(),
            full: if n == MAX_OPS { !0 } else { (1u128 << n) - 1 },
        }
    }

    /// Wing&Gong DFS for a full linearization. `order` accumulates the
    /// witness (op indices in linearization order).
    fn dfs_full(&mut self, done: u128, model: &M, order: &mut Vec<usize>) -> bool {
        if done == self.full {
            return true;
        }
        if !self.memo.insert((done, model.clone())) {
            return false;
        }
        for i in 0..self.history.len() {
            if done & (1 << i) != 0 || self.prec[i] & !done != 0 {
                continue;
            }
            let mut next = model.clone();
            if next.apply(&self.history[i].op) != self.history[i].ret {
                continue;
            }
            order.push(i);
            if self.dfs_full(done | (1 << i), &next, order) {
                return true;
            }
            order.pop();
        }
        false
    }

    /// DFS for a durable prefix: linearize include/flexible ops (real-time
    /// respecting, returns matching) until the model equals `target` with
    /// every must-include applied. Must-exclude ops are never applied, and
    /// prefix closure is structural (see module docs).
    fn dfs_prefix(
        &mut self,
        done: u128,
        model: &M,
        must_include: u128,
        excluded: u128,
        target: &M,
        order: &mut Vec<usize>,
    ) -> bool {
        if must_include & !done == 0 && model == target {
            return true;
        }
        if !self.memo.insert((done, model.clone())) {
            return false;
        }
        for i in 0..self.history.len() {
            let bit = 1u128 << i;
            if done & bit != 0 || excluded & bit != 0 || self.prec[i] & !done != 0 {
                continue;
            }
            let mut next = model.clone();
            if next.apply(&self.history[i].op) != self.history[i].ret {
                continue;
            }
            order.push(i);
            if self.dfs_prefix(done | bit, &next, must_include, excluded, target, order) {
                return true;
            }
            order.pop();
        }
        false
    }
}

/// Checks `history` for linearizability against `M::default()` as the
/// initial state. Returns a witness order (indices into `history`) or an
/// error naming the history size.
pub fn check_linearizable<M: Model>(
    history: &[OpRecord<M::Op, M::Ret>],
) -> Result<Vec<usize>, String> {
    let mut search = Search::<M>::new(history);
    let mut order = Vec::with_capacity(history.len());
    if search.dfs_full(0, &M::default(), &mut order) {
        Ok(order)
    } else {
        Err(format!(
            "history of {} ops is not linearizable",
            history.len()
        ))
    }
}

/// Checks that `target` (a recovered state) is a buffered-durably-
/// linearizable prefix of `history` under the given per-op classification.
/// Returns the witness prefix order or an error.
pub fn check_durable_prefix<M: Model>(
    history: &[OpRecord<M::Op, M::Ret>],
    durability: &[Durability],
    target: &M,
) -> Result<Vec<usize>, String> {
    assert_eq!(history.len(), durability.len());
    let mut must_include = 0u128;
    let mut excluded = 0u128;
    for (i, d) in durability.iter().enumerate() {
        match d {
            Durability::MustInclude => must_include |= 1 << i,
            Durability::MustExclude => excluded |= 1 << i,
            Durability::Flexible => {}
        }
    }
    let mut search = Search::<M>::new(history);
    let mut order = Vec::new();
    if search.dfs_prefix(0, &M::default(), must_include, excluded, target, &mut order) {
        Ok(order)
    } else {
        let (inc, exc) = (must_include.count_ones(), excluded.count_ones());
        Err(format!(
            "recovered state is not a durable prefix of the {}-op history \
             ({inc} must-include, {exc} must-exclude)",
            history.len()
        ))
    }
}

// ---- concrete sequential models ---------------------------------------------

/// Single-key register (map histories decompose per key: every map op
/// touches exactly one key, so the map linearizes iff each per-key
/// projection does).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Register {
    pub value: Option<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegOp {
    Put(u64),
    Del,
    Get,
}

/// Returns of register ops: mutations report whether the key existed
/// (matching `MontageHashMap::put`/`remove`), reads report the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegRet {
    Existed(bool),
    Value(Option<u64>),
}

impl Model for Register {
    type Op = RegOp;
    type Ret = RegRet;

    fn apply(&mut self, op: &RegOp) -> RegRet {
        match op {
            RegOp::Put(v) => RegRet::Existed(self.value.replace(*v).is_some()),
            RegOp::Del => RegRet::Existed(self.value.take().is_some()),
            RegOp::Get => RegRet::Value(self.value),
        }
    }
}

/// FIFO queue over `u64` values (values must be unique per history for the
/// check to be tight).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct FifoQueue {
    pub items: std::collections::VecDeque<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    Enq(u64),
    Deq,
}

impl Model for FifoQueue {
    type Op = QueueOp;
    type Ret = Option<u64>;

    fn apply(&mut self, op: &QueueOp) -> Option<u64> {
        match op {
            QueueOp::Enq(v) => {
                self.items.push_back(*v);
                None
            }
            QueueOp::Deq => self.items.pop_front(),
        }
    }
}

/// A single named counter, as the detectable-operation wire tests see it:
/// `set` creates it at an explicit value, `incr` bumps it and returns the
/// new value. Blind retries of one request id collapse to **one** op in the
/// history — exactly-once semantics means the duplicates are not ops at
/// all, and feeding a retry-collapsed history through the checker is what
/// proves the dedupe worked (a double-applied incr makes the recovered
/// value unexplainable by any legal cut).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Counter {
    pub value: Option<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrOp {
    /// `set` to an explicit value (unconditional store).
    Create(u64),
    Incr,
    Get,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrRet {
    Stored,
    NotFound,
    Value(u64),
}

impl Model for Counter {
    type Op = CtrOp;
    type Ret = CtrRet;

    fn apply(&mut self, op: &CtrOp) -> CtrRet {
        match op {
            CtrOp::Create(v) => {
                self.value = Some(*v);
                CtrRet::Stored
            }
            CtrOp::Incr => match self.value {
                Some(v) => {
                    let nv = v.wrapping_add(1);
                    self.value = Some(nv);
                    CtrRet::Value(nv)
                }
                None => CtrRet::NotFound,
            },
            CtrOp::Get => match self.value {
                Some(v) => CtrRet::Value(v),
                None => CtrRet::NotFound,
            },
        }
    }
}

/// Builder for hand-written and recorded histories: timestamps come from a
/// shared atomic counter so concurrent recorders can interleave safely.
pub struct Recorder<O, R> {
    clock: std::sync::Arc<montage::sync::uninstrumented::AtomicU64>,
    thread: usize,
    pub ops: Vec<OpRecord<O, R>>,
}

impl<O, R> Recorder<O, R> {
    pub fn shared_clock() -> std::sync::Arc<montage::sync::uninstrumented::AtomicU64> {
        std::sync::Arc::new(montage::sync::uninstrumented::AtomicU64::new(1))
    }

    pub fn new(
        clock: std::sync::Arc<montage::sync::uninstrumented::AtomicU64>,
        thread: usize,
    ) -> Self {
        Recorder {
            clock,
            thread,
            ops: Vec::new(),
        }
    }

    /// Runs `f`, recording invoke/response stamps around it and the epoch
    /// interval reported by `epoch()` (pass `|| 0` when untracked).
    pub fn record(&mut self, op: O, epoch: impl Fn() -> u64, f: impl FnOnce() -> R) {
        use montage::sync::uninstrumented::Ordering;
        let epoch_lo = epoch();
        let invoke = self.clock.fetch_add(1, Ordering::SeqCst);
        let ret = f();
        let response = self.clock.fetch_add(1, Ordering::SeqCst);
        let epoch_hi = epoch();
        self.ops.push(OpRecord {
            thread: self.thread,
            invoke,
            response,
            epoch_lo,
            epoch_hi,
            op,
            ret,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec<O, R>(invoke: u64, response: u64, op: O, ret: R) -> OpRecord<O, R> {
        OpRecord {
            thread: 0,
            invoke,
            response,
            epoch_lo: 0,
            epoch_hi: 0,
            op,
            ret,
        }
    }

    #[test]
    fn sequential_register_history_linearizes() {
        let h = vec![
            rec(1, 2, RegOp::Put(10), RegRet::Existed(false)),
            rec(3, 4, RegOp::Get, RegRet::Value(Some(10))),
            rec(5, 6, RegOp::Del, RegRet::Existed(true)),
            rec(7, 8, RegOp::Get, RegRet::Value(None)),
        ];
        assert_eq!(
            check_linearizable::<Register>(&h).unwrap(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn overlapping_ops_may_reorder() {
        // get overlaps the put and may see either None (before) or Some
        // (after). Seeing None, it linearizes ahead of the earlier-invoked put.
        let h = vec![
            rec(1, 10, RegOp::Put(7), RegRet::Existed(false)),
            rec(2, 9, RegOp::Get, RegRet::Value(Some(7))),
        ];
        assert_eq!(check_linearizable::<Register>(&h).unwrap(), vec![0, 1]);
        let before = vec![h[0].clone(), rec(2, 9, RegOp::Get, RegRet::Value(None))];
        assert_eq!(check_linearizable::<Register>(&before).unwrap(), vec![1, 0]);
    }

    #[test]
    fn stale_read_after_response_is_a_violation() {
        // put finished (response 2) strictly before get began (invoke 3),
        // yet get missed the value: not linearizable.
        let h = vec![
            rec(1, 2, RegOp::Put(7), RegRet::Existed(false)),
            rec(3, 4, RegOp::Get, RegRet::Value(None)),
        ];
        assert!(check_linearizable::<Register>(&h).is_err());
    }

    #[test]
    fn queue_fifo_violation_is_caught() {
        // Two sequential enqueues, then a dequeue that skips the head.
        let h = vec![
            rec(1, 2, QueueOp::Enq(1), None),
            rec(3, 4, QueueOp::Enq(2), None),
            rec(5, 6, QueueOp::Deq, Some(2)),
        ];
        assert!(check_linearizable::<FifoQueue>(&h).is_err());
        let ok = vec![
            rec(1, 2, QueueOp::Enq(1), None),
            rec(3, 4, QueueOp::Enq(2), None),
            rec(5, 6, QueueOp::Deq, Some(1)),
        ];
        assert!(check_linearizable::<FifoQueue>(&ok).is_ok());
    }

    #[test]
    fn concurrent_deqs_may_race_but_not_duplicate() {
        // Two overlapping dequeues of a 2-element queue: either order is
        // fine, but both returning the same element is not.
        let base = vec![
            rec(1, 2, QueueOp::Enq(1), None),
            rec(3, 4, QueueOp::Enq(2), None),
        ];
        let mut race = base.clone();
        race.push(rec(5, 8, QueueOp::Deq, Some(2)));
        race.push(rec(6, 7, QueueOp::Deq, Some(1)));
        assert!(check_linearizable::<FifoQueue>(&race).is_ok());
        let mut dup = base;
        dup.push(rec(5, 8, QueueOp::Deq, Some(1)));
        dup.push(rec(6, 7, QueueOp::Deq, Some(1)));
        assert!(check_linearizable::<FifoQueue>(&dup).is_err());
    }

    #[test]
    fn durable_prefix_accepts_epoch_cuts_only() {
        // Three sequential puts in epochs 4, 6, 8; cutoff 6 ⇒ the first two
        // must survive, the third must not.
        let mut h = vec![
            rec(1, 2, RegOp::Put(1), RegRet::Existed(false)),
            rec(3, 4, RegOp::Put(2), RegRet::Existed(true)),
            rec(5, 6, RegOp::Put(3), RegRet::Existed(true)),
        ];
        h[0].epoch_lo = 4;
        h[0].epoch_hi = 4;
        h[1].epoch_lo = 6;
        h[1].epoch_hi = 6;
        h[2].epoch_lo = 8;
        h[2].epoch_hi = 8;
        let d = classify_by_epoch(&h, 6);
        assert_eq!(
            d,
            vec![
                Durability::MustInclude,
                Durability::MustInclude,
                Durability::MustExclude
            ]
        );
        let good = Register { value: Some(2) };
        assert_eq!(check_durable_prefix(&h, &d, &good).unwrap(), vec![0, 1]);
        // Recovering value 3 would mean a must-exclude op took effect.
        let phantom = Register { value: Some(3) };
        assert!(check_durable_prefix(&h, &d, &phantom).is_err());
        // Recovering value 1 would mean a must-include op was lost.
        let lost = Register { value: Some(1) };
        assert!(check_durable_prefix(&h, &d, &lost).is_err());
    }

    #[test]
    fn durable_prefix_lets_straddlers_fall_either_way() {
        let mut h = vec![
            rec(1, 2, RegOp::Put(1), RegRet::Existed(false)),
            rec(3, 4, RegOp::Put(2), RegRet::Existed(true)),
        ];
        h[0].epoch_lo = 4;
        h[0].epoch_hi = 4;
        // Op 1 straddles the cutoff: epoch interval [4, 8] around cutoff 6.
        h[1].epoch_lo = 4;
        h[1].epoch_hi = 8;
        let d = classify_by_epoch(&h, 6);
        assert_eq!(d[1], Durability::Flexible);
        for target in [Register { value: Some(1) }, Register { value: Some(2) }] {
            assert!(
                check_durable_prefix(&h, &d, &target).is_ok(),
                "{target:?} should be a legal cut"
            );
        }
        assert!(check_durable_prefix(&h, &d, &Register { value: None }).is_err());
    }

    #[test]
    fn prefix_closure_is_enforced() {
        // Op 0 (must-exclude) finished before op 1 (must-include) began.
        // Including 1 without 0 would break prefix closure; the classifier
        // can produce this only from inconsistent epoch data, and the
        // checker must reject it rather than fabricate a cut.
        let h = vec![
            rec(1, 2, RegOp::Put(1), RegRet::Existed(false)),
            rec(3, 4, RegOp::Put(2), RegRet::Existed(true)),
        ];
        let d = vec![Durability::MustExclude, Durability::MustInclude];
        assert!(check_durable_prefix(&h, &d, &Register { value: Some(2) }).is_err());
    }

    #[test]
    fn recorder_stamps_are_ordered() {
        let clock = Recorder::<RegOp, RegRet>::shared_clock();
        let mut r = Recorder::new(clock, 0);
        r.record(RegOp::Put(1), || 5, || RegRet::Existed(false));
        r.record(RegOp::Get, || 5, || RegRet::Value(Some(1)));
        assert!(r.ops[0].invoke < r.ops[0].response);
        assert!(r.ops[0].response < r.ops[1].invoke);
        assert_eq!(r.ops[0].epoch_lo, 5);
        assert!(check_linearizable::<Register>(&r.ops).is_ok());
    }
}
