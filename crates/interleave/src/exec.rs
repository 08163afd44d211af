//! Execution runtime: runs one closure-under-test with every thread mapped
//! to a real OS thread, but cooperatively scheduled so that exactly one
//! thread executes user code at a time. Each instrumented operation is a
//! *schedule point*: the thread parks, the controller (the caller's thread)
//! consults the strategy for who runs next and with which load variant,
//! and the granted thread applies the operation against the [`Model`].
//!
//! On a violation (assertion panic in any thread, deadlock, or step-limit
//! overrun) the execution flips into **abort mode**: every parked thread is
//! released and all subsequent facade operations fall straight through to
//! the real std primitives, so unwinding `Drop` impls can never deadlock or
//! double-panic inside the checker.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering as RealOrd};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::model::{Loc, MOrd, Model};

/// A pending operation, declared when a thread parks — before it executes.
/// The strategy sees these to compute enabledness, dependency (sleep-set
/// wakeups) and load-variant fan-out.
#[derive(Clone, Debug)]
pub enum Op {
    /// First schedule point of a freshly spawned thread.
    Begin,
    Load {
        loc: Loc,
        ord: MOrd,
    },
    Store {
        loc: Loc,
        ord: MOrd,
    },
    Rmw {
        loc: Loc,
        ord: MOrd,
    },
    Lock {
        loc: Loc,
    },
    Unlock {
        loc: Loc,
    },
    /// Voluntary yield / spin hint: switching away is free, and the
    /// scheduler must switch if anyone else can run (livelock fairness).
    Yield,
    Spawn,
    Join {
        target: usize,
    },
}

impl Op {
    pub fn loc(&self) -> Option<Loc> {
        match self {
            Op::Load { loc, .. }
            | Op::Store { loc, .. }
            | Op::Rmw { loc, .. }
            | Op::Lock { loc }
            | Op::Unlock { loc } => Some(*loc),
            _ => None,
        }
    }
    pub(crate) fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Store { .. } | Op::Rmw { .. } | Op::Lock { .. } | Op::Unlock { .. }
        )
    }
    /// Two ops are *dependent* if reordering them could change the outcome.
    pub fn dependent(&self, other: &Op) -> bool {
        match (self.loc(), other.loc()) {
            (Some(a), Some(b)) if a == b => self.is_write() || other.is_write(),
            _ => false,
        }
    }
    pub fn describe(&self) -> String {
        match self {
            Op::Begin => "begin".into(),
            Op::Load { loc, ord } => format!("load({:#x}, {})", loc, ord.name()),
            Op::Store { loc, ord } => format!("store({:#x}, {})", loc, ord.name()),
            Op::Rmw { loc, ord } => format!("rmw({:#x}, {})", loc, ord.name()),
            Op::Lock { loc } => format!("lock({:#x})", loc),
            Op::Unlock { loc } => format!("unlock({:#x})", loc),
            Op::Yield => "yield".into(),
            Op::Spawn => "spawn".into(),
            Op::Join { target } => format!("join(t{target})"),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TState {
    Running,
    Parked,
    Finished,
}

pub(crate) struct ThreadSlot {
    pub state: TState,
    pub pending: Option<Op>,
    /// Set while the thread's latest op was a voluntary yield.
    pub yielded: bool,
}

/// One record per *granted* schedule point — the counterexample trace.
#[derive(Clone)]
pub(crate) struct StepRec {
    pub tid: usize,
    pub op: Op,
    pub variant: usize,
    /// Value observed / written, when meaningful.
    pub val: Option<u64>,
}

/// A scheduling candidate offered to the strategy.
#[derive(Clone, Copy, Debug)]
pub struct Choice {
    pub tid: usize,
    pub variant: usize,
    /// 1 if picking this choice preempts an enabled, non-yielding thread.
    pub cost: usize,
}

/// Strategy = the search (DFS, random sampling, or fixed replay).
pub trait Strategy {
    /// Pick one of `cands` (never empty), or `None` to prune this path as
    /// redundant (sleep-set blocked). `pending` maps enabled tids to their
    /// pending ops, for dependency bookkeeping.
    fn next(&mut self, cands: &[Choice], pending: &[(usize, Op)]) -> Option<Choice>;
}

pub(crate) struct Core {
    pub threads: Vec<ThreadSlot>,
    pub model: Model,
    /// Addresses known to be touched by ≥ 2 threads (copied from the
    /// checker; may grow during the execution → restart requested).
    /// Address -> logical location id, assigned in first-touch order.
    /// Heap addresses are NOT stable across executions (the allocator
    /// interleaves checker allocations with the closure's), but first-touch
    /// order along a replayed schedule prefix is — so logical ids are what
    /// the model, the trace, and the sleep sets key on.
    pub loc_ids: HashMap<usize, Loc>,
    /// (tid, variant) grant slot.
    pub granted: Option<(usize, usize)>,
    /// Threads spawned whose OS thread has not parked at Begin yet.
    pub starting: usize,
    pub steps: Vec<StepRec>,
    pub choices: Vec<(usize, usize)>,
    pub violation: Option<String>,
    pub step_limit: usize,
    pub stale_budget: usize,
    /// tid that was granted most recently (for preemption accounting).
    pub last_tid: Option<usize>,
    pub step_limit_hit: bool,
    pub strategy_pruned: bool,
}

pub struct Execution {
    pub core: Mutex<Core>,
    pub cv: Condvar,
    pub abort: AtomicBool,
    /// Deadlock verdict: the execution's threads are left parked forever
    /// and leaked (waking them onto real mutexes could deadlock the whole
    /// process). Checks return immediately after a deadlock, so at most one
    /// execution's threads leak.
    pub leaked: AtomicBool,
    /// Weakening site selected for this check run (None = faithful).
    pub weaken_site: Option<String>,
}

/// Per-OS-thread handle back into the execution.
#[derive(Clone)]
pub struct Ctx {
    pub exec: Arc<Execution>,
    pub tid: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

pub fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

pub fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

pub enum Outcome {
    Complete,
    Violation {
        message: String,
    },
    /// Path abandoned. `limit = true` means the step limit fired (lost
    /// coverage, reported); `false` means a sleep-set redundancy prune.
    Pruned {
        limit: bool,
    },
}

impl Execution {
    pub fn new(
        step_limit: usize,
        stale_budget: usize,
        weaken_site: Option<String>,
    ) -> Arc<Execution> {
        Arc::new(Execution {
            core: Mutex::new(Core {
                threads: Vec::new(),
                model: Model::default(),
                loc_ids: HashMap::new(),
                granted: None,
                starting: 0,
                steps: Vec::new(),
                choices: Vec::new(),
                violation: None,
                step_limit,
                stale_budget,
                last_tid: None,
                step_limit_hit: false,
                strategy_pruned: false,
            }),
            cv: Condvar::new(),
            abort: AtomicBool::new(false),
            leaked: AtomicBool::new(false),
            weaken_site,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(RealOrd::Acquire)
    }

    fn enter_abort(&self, g: &mut MutexGuard<'_, Core>, msg: Option<String>) {
        if let Some(m) = msg {
            if g.violation.is_none() {
                g.violation = Some(m);
            }
        }
        self.abort.store(true, RealOrd::Release);
        self.cv.notify_all();
    }

    /// Records a violation from a panicking thread (called by the spawn
    /// wrapper's catch_unwind).
    pub fn record_panic(&self, tid: usize, msg: String) {
        let mut g = self.lock();
        self.enter_abort(&mut g, Some(format!("thread t{tid} panicked: {msg}")));
    }

    /// Parks the calling thread at a schedule point with pending `op`.
    /// Returns the granted load variant, or `None` in abort mode (caller
    /// must fall through to the real primitive).
    fn park(&self, tid: usize, op: Op) -> Option<usize> {
        let mut g = self.lock();
        if self.aborted() {
            return None;
        }
        g.threads[tid].pending = Some(op);
        g.threads[tid].state = TState::Parked;
        self.cv.notify_all();
        loop {
            if self.aborted() {
                g.threads[tid].state = TState::Running;
                g.threads[tid].pending = None;
                return None;
            }
            if let Some((t, v)) = g.granted {
                if t == tid {
                    g.granted = None;
                    g.threads[tid].state = TState::Running;
                    let op = g.threads[tid].pending.take().expect("pending op");
                    g.threads[tid].yielded = matches!(op, Op::Yield);
                    let variant = v;
                    g.steps.push(StepRec {
                        tid,
                        op,
                        variant,
                        val: None,
                    });
                    return Some(variant);
                }
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn set_step_val(g: &mut Core, val: u64) {
        if let Some(s) = g.steps.last_mut() {
            s.val = Some(val);
        }
    }

    /// Maps an address to its stable logical location id, registering the
    /// location's initial (real) value in the model on first touch.
    fn loc_of(&self, addr: usize, init: u64) -> Loc {
        let mut g = self.lock();
        let next = g.loc_ids.len();
        let loc = *g.loc_ids.entry(addr).or_insert(next);
        g.model.ensure_loc(loc, init);
        loc
    }

    // ---- facade-facing operations -------------------------------------

    /// Returns `None` when the caller should perform the real load instead.
    pub fn load(&self, tid: usize, addr: usize, ord: MOrd, real_cur: u64) -> Option<u64> {
        if self.aborted() {
            return None;
        }
        let loc = self.loc_of(addr, real_cur);
        let variant = self.park(tid, Op::Load { loc, ord })?;
        let mut g = self.lock();
        let v = g.model.load(tid, loc, ord, variant);
        Self::set_step_val(&mut g, v);
        Some(v)
    }

    /// Caller must perform the real store afterwards (keeps the real cell
    /// coherence-latest for abort fallthrough). Returns false on abort.
    pub fn store(&self, tid: usize, addr: usize, ord: MOrd, val: u64, real_cur: u64) -> bool {
        if self.aborted() {
            return false;
        }
        let loc = self.loc_of(addr, real_cur);
        if self.park(tid, Op::Store { loc, ord }).is_none() {
            return false;
        }
        let mut g = self.lock();
        g.model.store(tid, loc, ord, val);
        Self::set_step_val(&mut g, val);
        true
    }

    /// Read-modify-write on the modeled cell. Returns `None` when the caller
    /// should fall through to the real primitive; otherwise `(old, new)`
    /// where `new = None` means no write happened (failed CAS). The caller
    /// must mirror a committed write into the real cell with a plain store.
    pub fn rmw(
        &self,
        tid: usize,
        addr: usize,
        ord: MOrd,
        ord_fail: MOrd,
        real_cur: u64,
        f: &mut dyn FnMut(u64) -> Option<u64>,
    ) -> Option<(u64, Option<u64>)> {
        if self.aborted() {
            return None;
        }
        let loc = self.loc_of(addr, real_cur);
        self.park(tid, Op::Rmw { loc, ord })?;
        let mut g = self.lock();
        let (old, new) = g.model.rmw(tid, loc, ord, ord_fail, f);
        Self::set_step_val(&mut g, new.unwrap_or(old));
        Some((old, new))
    }

    /// Model-level mutex lock. Returns false on abort (caller: real lock
    /// only — the model never held it).
    pub fn mutex_lock(&self, tid: usize, addr: usize) -> bool {
        if self.aborted() {
            return false;
        }
        let loc = self.loc_of(addr, 0);
        if self.park(tid, Op::Lock { loc }).is_none() {
            return false;
        }
        let mut g = self.lock();
        g.model.mutex_lock(tid, loc);
        true
    }

    pub fn mutex_unlock(&self, tid: usize, addr: usize) {
        if self.aborted() {
            return;
        }
        let loc = self.loc_of(addr, 0);
        if self.park(tid, Op::Unlock { loc }).is_none() {
            return;
        }
        let mut g = self.lock();
        g.model.mutex_unlock(tid, loc);
    }

    pub fn yield_point(&self, tid: usize) {
        if self.aborted() {
            return;
        }
        let _ = self.park(tid, Op::Yield);
    }

    /// Parent-side spawn: one schedule point, then registers the child tid.
    pub fn op_spawn(&self, parent: usize) -> Option<usize> {
        if self.aborted() {
            return None;
        }
        self.park(parent, Op::Spawn)?;
        let mut g = self.lock();
        let child = g.model.add_thread();
        g.model.fork_edge(parent, child);
        g.threads.push(ThreadSlot {
            state: TState::Running,
            pending: None,
            yielded: false,
        });
        g.starting += 1;
        Some(child)
    }

    /// Child-side first park.
    pub fn op_begin(&self, tid: usize) {
        {
            let mut g = self.lock();
            g.starting -= 1;
            self.cv.notify_all();
        }
        let _ = self.park(tid, Op::Begin);
    }

    pub fn op_finish(&self, tid: usize) {
        let mut g = self.lock();
        g.threads[tid].state = TState::Finished;
        g.threads[tid].pending = None;
        self.cv.notify_all();
    }

    pub fn op_join(&self, tid: usize, target: usize) {
        if self.aborted() {
            return;
        }
        if self.park(tid, Op::Join { target }).is_none() {
            return;
        }
        let mut g = self.lock();
        g.model.join_edge(tid, target);
    }

    /// Registers the root thread (tid 0). Called by the checker before the
    /// closure starts.
    pub fn register_root(&self) -> usize {
        let mut g = self.lock();
        let tid = g.model.add_thread();
        g.threads.push(ThreadSlot {
            state: TState::Running,
            pending: None,
            yielded: false,
        });
        g.starting += 1;
        tid
    }

    // ---- controller ----------------------------------------------------

    fn enabled(g: &Core, tid: usize) -> bool {
        let t = &g.threads[tid];
        if t.state != TState::Parked {
            return false;
        }
        match t.pending.as_ref() {
            Some(Op::Lock { loc }) => g.model.mutex_free(*loc),
            Some(Op::Join { target }) => g.threads[*target].state == TState::Finished,
            Some(_) => true,
            None => false,
        }
    }

    /// Drives one execution to completion. Call after the root OS thread
    /// has been spawned.
    pub fn drive(&self, strat: &mut dyn Strategy) -> Outcome {
        let mut g = self.lock();
        loop {
            // Wait for quiescence: no unconsumed grant, nobody running,
            // nobody mid-startup.
            loop {
                let busy = g.granted.is_some()
                    || g.starting > 0
                    || g.threads.iter().any(|t| t.state == TState::Running);
                if !busy || self.aborted() {
                    break;
                }
                g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            if self.aborted() {
                // Wait for every thread to finish its unchecked fallthrough.
                loop {
                    if g.threads.iter().all(|t| t.state == TState::Finished) {
                        break;
                    }
                    self.cv.notify_all();
                    g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
                return match g.violation.take() {
                    Some(message) => Outcome::Violation { message },
                    None if g.step_limit_hit => Outcome::Pruned { limit: true },
                    None if g.strategy_pruned => Outcome::Pruned { limit: false },
                    None => Outcome::Complete,
                };
            }
            if g.threads.iter().all(|t| t.state == TState::Finished) {
                return Outcome::Complete;
            }
            if g.steps.len() >= g.step_limit {
                g.step_limit_hit = true;
                self.enter_abort(&mut g, None);
                continue;
            }

            let enabled: Vec<usize> = (0..g.threads.len())
                .filter(|&t| Self::enabled(&g, t))
                .collect();
            if enabled.is_empty() {
                let stuck: Vec<String> = g
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.state == TState::Parked)
                    .map(|(i, t)| {
                        format!(
                            "t{i} blocked at {}",
                            t.pending.as_ref().map(|o| o.describe()).unwrap_or_default()
                        )
                    })
                    .collect();
                // Leak rather than release: waking the blocked threads
                // would send them to the *real* mutexes, reproducing the
                // deadlock at the OS level.
                self.leaked.store(true, RealOrd::Release);
                return Outcome::Violation {
                    message: format!("deadlock: {}", stuck.join("; ")),
                };
            }

            // Livelock fairness: a thread that just yielded must cede if
            // anyone else can run.
            let last = g.last_tid;
            let eligible: Vec<usize> = if let Some(lt) = last {
                if g.threads[lt].yielded && enabled.iter().any(|&t| t != lt) {
                    enabled.iter().copied().filter(|&t| t != lt).collect()
                } else {
                    enabled.clone()
                }
            } else {
                enabled.clone()
            };

            let mut cands: Vec<Choice> = Vec::new();
            let mut pending: Vec<(usize, Op)> = Vec::new();
            // Current thread first so choice 0 ≈ run-to-completion.
            let mut order = eligible.clone();
            if let Some(lt) = last {
                order.sort_by_key(|&t| (t != lt, t));
            }
            let stale_spent: usize = g.steps.iter().map(|s| usize::from(s.variant > 0)).sum();
            for &t in &order {
                let op = g.threads[t].pending.clone().expect("parked has op");
                let cost = match last {
                    Some(lt) if lt != t && Self::enabled(&g, lt) && !g.threads[lt].yielded => 1,
                    _ => 0,
                };
                let variants = match &op {
                    Op::Load { loc, .. } if stale_spent < g.stale_budget => {
                        g.model.readable_count(t, *loc)
                    }
                    _ => 1,
                };
                for v in 0..variants {
                    cands.push(Choice {
                        tid: t,
                        variant: v,
                        cost,
                    });
                }
                pending.push((t, op));
            }

            if std::env::var_os("INTERLEAVE_TRACE").is_some() {
                eprintln!(
                    "[ilv] step {} cands={:?} pending={:?}",
                    g.steps.len(),
                    cands,
                    pending
                        .iter()
                        .map(|(t, o)| (*t, o.describe()))
                        .collect::<Vec<_>>()
                );
            }
            let Some(pick) = strat.next(&cands, &pending) else {
                g.strategy_pruned = true;
                self.enter_abort(&mut g, None);
                continue;
            };
            // Guard against a diverging replay (a nondeterministic closure):
            // granting a thread that is not actually enabled would never be
            // consumed and hang the controller.
            if !cands
                .iter()
                .any(|c| c.tid == pick.tid && c.variant == pick.variant)
            {
                self.enter_abort(
                    &mut g,
                    Some(format!(
                        "schedule divergence: strategy picked t{}.{} but enabled \
                         candidates were {:?} — is the closure nondeterministic?",
                        pick.tid, pick.variant, cands
                    )),
                );
                continue;
            }
            g.choices.push((pick.tid, pick.variant));
            g.last_tid = Some(pick.tid);
            g.granted = Some((pick.tid, pick.variant));
            self.cv.notify_all();
        }
    }

    /// Formats the recorded steps as a printable counterexample trace.
    pub fn trace(&self) -> (Vec<String>, String) {
        let g = self.lock();
        let lines = g
            .steps
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let val = s.val.map(|v| format!(" = {v:#x}")).unwrap_or_default();
                let var = if s.variant > 0 {
                    format!(" [stale#{}]", s.variant)
                } else {
                    String::new()
                };
                format!("{i:4}  t{}  {}{}{}", s.tid, s.op.describe(), val, var)
            })
            .collect();
        let replay = g
            .choices
            .iter()
            .map(|(t, v)| format!("{t}.{v}"))
            .collect::<Vec<_>>()
            .join(",");
        (lines, replay)
    }
}
