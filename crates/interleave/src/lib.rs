//! # interleave — deterministic concurrency model checker
//!
//! A loom-style stateless model checker with no dependencies outside std.
//! Code under test swaps its atomics/mutexes/thread-spawns for the
//! instrumented facade in [`sync`]; [`check`] then runs the closure under
//! every schedule reachable within a preemption budget, with every atomic
//! access a scheduling point and weakly-ordered loads additionally fanning
//! out over the stale values the memory model permits.
//!
//! ## How a check runs
//!
//! 1. **Search.** Exhaustive DFS over the schedule tree (default), with
//!    CHESS-style bounded preemption (switching away from a runnable,
//!    non-yielding thread costs 1 from [`Config::preemption_bound`]),
//!    sleep-set pruning (threads whose pending op is independent of
//!    everything explored at a node are not re-branched — the
//!    persistent-set-style reduction that keeps commuting operations from
//!    exploding the tree), and a bounded-staleness memory model
//!    ([`model`]) that branches weak loads over permitted stale values.
//!    Locations are identified by *first-touch order* along the schedule,
//!    not by address — heap addresses are not stable across executions,
//!    first-touch order along a replayed prefix is.
//! 2. **Verdict.** Any panic in any thread, a deadlock, or a step-limit
//!    overrun aborts the execution into passthrough mode (so unwinding
//!    `Drop`s run on real primitives) and is reported as a [`Violation`]
//!    carrying the full step trace and a `tid.variant` choice string that
//!    [`Config::replay`] / `INTERLEAVE_REPLAY` re-executes verbatim.
//!
//! ## Environment knobs (read by [`Config::from_env`])
//!
//! * `INTERLEAVE_BOUND` — preemption bound (default 2).
//! * `INTERLEAVE_SAMPLES` — if set, random sampling with this many
//!   executions instead of exhaustive DFS (the bound-3 CI tier).
//! * `INTERLEAVE_SEED` — seed for sampling.
//! * `INTERLEAVE_REPLAY` — `tid.variant` comma list: run that one schedule.

mod exec;
mod model;
mod sched;
pub mod sync;

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use exec::{Ctx, Execution, Outcome, Strategy};
use sched::{Dfs, Random, Replay};
use sync::panic_msg;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Bounded-exhaustive DFS.
    Exhaustive,
    /// Random schedule sampling (for bounds where exhaustion is too big).
    Sample { executions: u64, seed: u64 },
}

#[derive(Clone, Debug)]
pub struct Config {
    /// CHESS preemption budget per execution.
    pub preemption_bound: usize,
    /// Max stale-load variants taken per execution path.
    pub stale_budget: usize,
    /// Scheduling points per execution before the path is abandoned.
    pub max_steps: usize,
    /// Total executions before the search gives up (reported, not an error).
    pub max_executions: u64,
    pub mode: Mode,
    /// Weaken this `sync::weaken` site to Relaxed (seeded fixtures).
    pub weaken_site: Option<String>,
    /// Replay a recorded counterexample instead of searching.
    pub replay: Option<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: 2,
            stale_budget: 2,
            max_steps: 20_000,
            max_executions: 200_000,
            mode: Mode::Exhaustive,
            weaken_site: None,
            replay: None,
        }
    }
}

impl Config {
    /// Default config overridden by `INTERLEAVE_*` env vars (see crate
    /// docs) — what the CI tiers drive.
    pub fn from_env() -> Config {
        let mut cfg = Config::default();
        if let Ok(b) = std::env::var("INTERLEAVE_BOUND") {
            if let Ok(b) = b.trim().parse() {
                cfg.preemption_bound = b;
            }
        }
        if let Ok(s) = std::env::var("INTERLEAVE_SAMPLES") {
            if let Ok(n) = s.trim().parse() {
                let seed = std::env::var("INTERLEAVE_SEED")
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0x9E37_79B9_7F4A_7C15);
                cfg.mode = Mode::Sample {
                    executions: n,
                    seed,
                };
            }
        }
        if let Ok(r) = std::env::var("INTERLEAVE_REPLAY") {
            if !r.trim().is_empty() {
                cfg.replay = Some(r.trim().to_string());
            }
        }
        cfg
    }

    pub fn with_weaken(mut self, site: &str) -> Config {
        self.weaken_site = Some(site.to_string());
        self
    }
}

#[derive(Debug, Default, Clone)]
pub struct Report {
    pub executions: u64,
    /// Paths abandoned at the step limit (possible lost coverage).
    pub limit_pruned: u64,
    /// Paths pruned as redundant by sleep sets (no lost coverage).
    pub sleep_pruned: u64,
    pub max_depth: usize,
    /// True if the search stopped at `max_executions` before exhausting
    /// the tree.
    pub truncated: bool,
}

#[derive(Debug, Clone)]
pub struct Violation {
    pub message: String,
    /// One line per granted schedule point.
    pub trace: Vec<String>,
    /// `tid.variant` choice string for `INTERLEAVE_REPLAY`.
    pub replay: String,
    pub executions: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "interleave: violation after {} execution(s)",
            self.executions
        )?;
        writeln!(f, "  {}", self.message)?;
        writeln!(f, "  reproduce with: INTERLEAVE_REPLAY=\"{}\"", self.replay)?;
        writeln!(f, "  schedule:")?;
        for l in &self.trace {
            writeln!(f, "    {l}")?;
        }
        Ok(())
    }
}

fn run_one(
    exec: &Arc<Execution>,
    f: Arc<dyn Fn() + Send + Sync>,
    strat: &mut dyn Strategy,
) -> Outcome {
    let root = exec.register_root();
    let e2 = exec.clone();
    let h = std::thread::spawn(move || {
        exec::set_ctx(Some(Ctx {
            exec: e2.clone(),
            tid: root,
        }));
        e2.op_begin(root);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| f()));
        if let Err(p) = r {
            e2.record_panic(root, panic_msg(p.as_ref()));
        }
        e2.op_finish(root);
        exec::set_ctx(None);
    });
    let out = exec.drive(strat);
    if exec.leaked.load(std::sync::atomic::Ordering::Acquire) {
        // Deadlocked execution: threads stay parked forever; detach.
        drop(h);
    } else {
        let _ = h.join();
    }
    out
}

fn violation_of(exec: &Arc<Execution>, message: String, executions: u64) -> Violation {
    let (trace, replay) = exec.trace();
    Violation {
        message,
        trace,
        replay,
        executions,
    }
}

/// Runs `f` under the checker; returns the exploration report, or the first
/// violation found.
pub fn try_check<F>(cfg: Config, f: F) -> Result<Report, Violation>
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut report = Report::default();
    let new_exec =
        |cfg: &Config| Execution::new(cfg.max_steps, cfg.stale_budget, cfg.weaken_site.clone());

    if let Some(script) = &cfg.replay {
        let exec = new_exec(&cfg);
        let mut strat = Replay::parse(script);
        let out = run_one(&exec, f.clone(), &mut strat);
        report.executions += 1;
        return match out {
            Outcome::Violation { message } => Err(violation_of(&exec, message, report.executions)),
            _ => Ok(report),
        };
    }

    match cfg.mode {
        Mode::Exhaustive => {
            let mut dfs = Dfs::new(cfg.preemption_bound);
            loop {
                if report.executions >= cfg.max_executions {
                    report.truncated = true;
                    report.sleep_pruned = dfs.sleep_prunes;
                    report.max_depth = dfs.max_depth;
                    return Ok(report);
                }
                let exec = new_exec(&cfg);
                dfs.begin_execution();
                let out = run_one(&exec, f.clone(), &mut dfs);
                report.executions += 1;
                match out {
                    Outcome::Violation { message } => {
                        return Err(violation_of(&exec, message, report.executions));
                    }
                    Outcome::Pruned { limit: true } => report.limit_pruned += 1,
                    Outcome::Pruned { limit: false } | Outcome::Complete => {}
                }
                if !dfs.backtrack() {
                    report.sleep_pruned = dfs.sleep_prunes;
                    report.max_depth = dfs.max_depth;
                    return Ok(report);
                }
            }
        }
        Mode::Sample { executions, seed } => {
            let mut rng = Random::new(seed, cfg.preemption_bound);
            for _ in 0..executions {
                let exec = new_exec(&cfg);
                rng.begin_execution();
                let out = run_one(&exec, f.clone(), &mut rng);
                report.executions += 1;
                match out {
                    Outcome::Violation { message } => {
                        return Err(violation_of(&exec, message, report.executions));
                    }
                    Outcome::Pruned { limit: true } => report.limit_pruned += 1,
                    _ => {}
                }
            }
            Ok(report)
        }
    }
}

/// Like [`try_check`] but panics with the formatted counterexample — the
/// form harness tests use.
pub fn check<F>(cfg: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    match try_check(cfg, f) {
        Ok(r) => r,
        Err(v) => panic!("{v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{thread, AtomicU64, Mutex};
    use super::*;
    use std::sync::atomic::Ordering::*;
    use std::sync::Arc as StdArc;

    /// Message passing with proper Release/Acquire must verify.
    #[test]
    fn message_passing_release_acquire_passes() {
        let r = check(Config::default(), || {
            let data = StdArc::new(AtomicU64::new(0));
            let flag = StdArc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let t = thread::spawn(move || {
                d2.store(42, Relaxed);
                f2.store(1, Release);
            });
            if flag.load(Acquire) == 1 {
                assert_eq!(data.load(Relaxed), 42, "acquire must see the payload");
            }
            t.join().unwrap();
        });
        assert!(!r.truncated);
        assert!(r.executions > 2, "expected a real exploration, got {r:?}");
    }

    /// The same protocol with a Relaxed publish must produce a
    /// counterexample: the reader sees flag=1 but stale data=0.
    #[test]
    fn message_passing_relaxed_publish_caught() {
        let v = try_check(Config::default(), || {
            let data = StdArc::new(AtomicU64::new(0));
            let flag = StdArc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let t = thread::spawn(move || {
                d2.store(42, Relaxed);
                f2.store(1, Relaxed); // BUG: should be Release
            });
            if flag.load(Acquire) == 1 {
                assert_eq!(data.load(Relaxed), 42, "lost publish");
            }
            t.join().unwrap();
        })
        .expect_err("relaxed publish must be caught");
        assert!(
            v.message.contains("lost publish"),
            "wrong violation: {}",
            v.message
        );
        assert!(!v.replay.is_empty());
        assert!(!v.trace.is_empty());
    }

    /// Two racing unsynchronized increments lose an update under some
    /// schedule (load; add; store — not an RMW).
    #[test]
    fn racy_increment_caught() {
        let v = try_check(Config::default(), || {
            let n = StdArc::new(AtomicU64::new(0));
            let n2 = n.clone();
            let t = thread::spawn(move || {
                let v = n2.load(SeqCst);
                n2.store(v + 1, SeqCst);
            });
            let v = n.load(SeqCst);
            n.store(v + 1, SeqCst);
            t.join().unwrap();
            assert_eq!(n.load(SeqCst), 2, "lost increment");
        })
        .expect_err("lost update must be found");
        assert!(v.message.contains("lost increment"));
    }

    /// RMW increments never lose updates, under any schedule.
    #[test]
    fn rmw_increment_passes() {
        let r = check(Config::default(), || {
            let n = StdArc::new(AtomicU64::new(0));
            let n2 = n.clone();
            let t = thread::spawn(move || {
                n2.fetch_add(1, Relaxed);
            });
            n.fetch_add(1, Relaxed);
            t.join().unwrap();
            assert_eq!(n.load(SeqCst), 2);
        });
        assert!(!r.truncated);
    }

    /// Classic ABBA deadlock is detected and reported, not hung.
    #[test]
    fn mutex_deadlock_detected() {
        let v = try_check(Config::default(), || {
            let a = StdArc::new(Mutex::new(0u32));
            let b = StdArc::new(Mutex::new(0u32));
            let (a2, b2) = (a.clone(), b.clone());
            let t = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop(_ga);
            drop(_gb);
            t.join().unwrap();
        })
        .expect_err("ABBA must deadlock under some schedule");
        assert!(v.message.contains("deadlock"), "got: {}", v.message);
    }

    /// Mutual exclusion actually excludes: a mutex-protected read-modify-
    /// write never loses updates.
    #[test]
    fn mutex_protects_counter() {
        let r = check(Config::default(), || {
            let n = StdArc::new(Mutex::new(0u64));
            let n2 = n.clone();
            let t = thread::spawn(move || {
                *n2.lock() += 1;
            });
            *n.lock() += 1;
            t.join().unwrap();
            assert_eq!(*n.lock(), 2);
        });
        assert!(!r.truncated);
    }

    /// Exploration is deterministic: same closure, same execution count.
    #[test]
    fn deterministic_execution_counts() {
        let run = || {
            check(Config::default(), || {
                let n = StdArc::new(AtomicU64::new(0));
                let n2 = n.clone();
                let t = thread::spawn(move || {
                    n2.fetch_add(2, AcqRel);
                });
                n.fetch_add(3, AcqRel);
                t.join().unwrap();
                assert_eq!(n.load(SeqCst), 5);
            })
            .executions
        };
        assert_eq!(run(), run());
    }

    /// A recorded counterexample replays to the same violation.
    #[test]
    fn replay_reproduces_counterexample() {
        let body = || {
            let data = StdArc::new(AtomicU64::new(0));
            let flag = StdArc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let t = thread::spawn(move || {
                d2.store(7, Relaxed);
                f2.store(1, Relaxed);
            });
            if flag.load(Acquire) == 1 {
                assert_eq!(data.load(Relaxed), 7, "lost publish");
            }
            t.join().unwrap();
        };
        let v = try_check(Config::default(), body).expect_err("must fail");
        let cfg = Config {
            replay: Some(v.replay.clone()),
            ..Default::default()
        };
        let v2 = try_check(cfg, body).expect_err("replay must reproduce");
        assert!(v2.message.contains("lost publish"));
    }

    /// The weaken() hook downgrades exactly the named site.
    #[test]
    fn weaken_hook_selects_site() {
        let body = || {
            let data = StdArc::new(AtomicU64::new(0));
            let flag = StdArc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let t = thread::spawn(move || {
                d2.store(9, Relaxed);
                f2.store(1, sync::weaken("test.flag", Release));
            });
            if flag.load(Acquire) == 1 {
                assert_eq!(data.load(Relaxed), 9, "lost publish");
            }
            t.join().unwrap();
        };
        // Faithful orderings: passes.
        check(Config::default(), body);
        // Weakened at the tagged site: caught.
        let v = try_check(Config::default().with_weaken("test.flag"), body)
            .expect_err("weakened site must be caught");
        assert!(v.message.contains("lost publish"));
    }

    /// Spin loops against another thread's store terminate under the
    /// yield-fairness rule rather than hitting the step limit.
    #[test]
    fn spin_loop_with_yield_terminates() {
        let r = check(Config::default(), || {
            let flag = StdArc::new(AtomicU64::new(0));
            let f2 = flag.clone();
            let t = thread::spawn(move || {
                f2.store(1, Release);
            });
            while flag.load(Acquire) == 0 {
                sync::spin_loop();
            }
            t.join().unwrap();
        });
        assert_eq!(r.limit_pruned, 0, "spin must not exhaust steps: {r:?}");
    }
}
