//! Search strategies over the schedule tree.
//!
//! * [`Dfs`] — exhaustive bounded-preemption DFS (CHESS-style budget) with
//!   sleep-set pruning and persistent-set-style reduction (only locations
//!   observed shared are scheduling points at all — see `lib.rs`).
//! * [`Random`] — seeded random walk, for the sampled bound-3 CI tier.
//! * [`Replay`] — follows a recorded `tid.variant` choice list verbatim, for
//!   reproducing a printed counterexample.

use std::collections::HashSet;

use crate::exec::{Choice, Op, Strategy};

struct Frame {
    /// Budget- and sleep-filtered choices at frame creation time.
    choices: Vec<Choice>,
    /// Index of the choice currently being explored.
    cur: usize,
    /// Sleep set: tids whose subtrees are already covered here.
    sleep: HashSet<usize>,
    /// Pending op per enabled tid when the frame was created (for sleep-set
    /// wakeup on the edge into each child).
    pending: Vec<(usize, Op)>,
}

impl Frame {
    fn chosen(&self) -> Choice {
        self.choices[self.cur]
    }
    fn chosen_op(&self) -> &Op {
        let tid = self.chosen().tid;
        &self
            .pending
            .iter()
            .find(|(t, _)| *t == tid)
            .expect("chosen tid was enabled")
            .1
    }
}

/// Exhaustive bounded-preemption DFS with sleep sets. The frame stack
/// persists across executions; each execution replays the stack prefix and
/// extends it with fresh frames, then [`Dfs::backtrack`] advances the
/// deepest frame with an unexplored choice.
pub struct Dfs {
    stack: Vec<Frame>,
    depth: usize,
    bound: usize,
    /// Executions abandoned because every enabled thread was asleep
    /// (redundant interleavings — pure pruning wins, not lost coverage).
    pub sleep_prunes: u64,
    pub max_depth: usize,
}

impl Dfs {
    pub fn new(bound: usize) -> Dfs {
        Dfs {
            stack: Vec::new(),
            depth: 0,
            bound,
            sleep_prunes: 0,
            max_depth: 0,
        }
    }

    pub fn begin_execution(&mut self) {
        self.depth = 0;
    }

    /// Advances to the next unexplored path. Returns false when the tree is
    /// exhausted.
    pub fn backtrack(&mut self) -> bool {
        // Unvisited frames below the divergence point (from a pruned
        // execution that ended early) were never created, so the stack is
        // exactly the executed path.
        self.stack.truncate(self.depth);
        while let Some(f) = self.stack.last_mut() {
            let done_tid = f.chosen().tid;
            let more_variants = f.choices[f.cur + 1..].iter().any(|c| c.tid == done_tid);
            if !more_variants {
                f.sleep.insert(done_tid);
            }
            f.cur += 1;
            while f.cur < f.choices.len() && f.sleep.contains(&f.choices[f.cur].tid) {
                f.cur += 1;
            }
            if f.cur < f.choices.len() {
                return true;
            }
            self.stack.pop();
        }
        false
    }
}

impl Strategy for Dfs {
    fn next(&mut self, cands: &[Choice], pending: &[(usize, Op)]) -> Option<Choice> {
        if self.depth < self.stack.len() {
            let c = self.stack[self.depth].chosen();
            self.depth += 1;
            return Some(c);
        }
        let used: usize = self.stack.iter().map(|f| f.chosen().cost).sum();
        // Sleep inheritance: a thread asleep at the parent stays asleep iff
        // its pending op is independent of the op executed on this edge.
        let sleep: HashSet<usize> = match self.stack.last() {
            Some(parent) => {
                let edge_op = parent.chosen_op().clone();
                parent
                    .sleep
                    .iter()
                    .copied()
                    .filter(|s| {
                        parent
                            .pending
                            .iter()
                            .find(|(t, _)| t == s)
                            .is_some_and(|(_, op)| !op.dependent(&edge_op))
                    })
                    .collect()
            }
            None => HashSet::new(),
        };
        let choices: Vec<Choice> = cands
            .iter()
            .copied()
            .filter(|c| used + c.cost <= self.bound && !sleep.contains(&c.tid))
            .collect();
        if choices.is_empty() {
            // Every enabled thread is asleep: this path is redundant.
            self.sleep_prunes += 1;
            return None;
        }
        self.stack.push(Frame {
            choices,
            cur: 0,
            sleep,
            pending: pending.to_vec(),
        });
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        Some(self.stack.last().unwrap().chosen())
    }
}

/// Seeded random walk (xorshift64*). Respects the preemption bound.
pub struct Random {
    state: u64,
    bound: usize,
    used: usize,
}

impl Random {
    pub fn new(seed: u64, bound: usize) -> Random {
        Random {
            state: seed.max(1),
            bound,
            used: 0,
        }
    }
    pub fn begin_execution(&mut self) {
        self.used = 0;
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl Strategy for Random {
    fn next(&mut self, cands: &[Choice], _pending: &[(usize, Op)]) -> Option<Choice> {
        let affordable: Vec<Choice> = cands
            .iter()
            .copied()
            .filter(|c| self.used + c.cost <= self.bound)
            .collect();
        let pool = if affordable.is_empty() {
            cands
        } else {
            &affordable
        };
        let c = pool[(self.next_u64() % pool.len() as u64) as usize];
        self.used += c.cost;
        Some(c)
    }
}

/// Follows a recorded `tid.variant` list; past its end (or on divergence)
/// falls back to choice 0.
pub struct Replay {
    script: Vec<(usize, usize)>,
    pos: usize,
}

impl Replay {
    /// Parses the `INTERLEAVE_REPLAY` format: `"0.0,1.2,0.0"`.
    pub fn parse(s: &str) -> Replay {
        let script = s
            .split(',')
            .filter(|p| !p.is_empty())
            .filter_map(|p| {
                let (t, v) = p.split_once('.')?;
                Some((t.trim().parse().ok()?, v.trim().parse().ok()?))
            })
            .collect();
        Replay { script, pos: 0 }
    }
}

impl Strategy for Replay {
    fn next(&mut self, cands: &[Choice], _pending: &[(usize, Op)]) -> Option<Choice> {
        let want = self.script.get(self.pos).copied();
        self.pos += 1;
        want.and_then(|(t, v)| {
            cands
                .iter()
                .find(|c| c.tid == t && c.variant == v)
                .or_else(|| cands.iter().find(|c| c.tid == t))
                .copied()
        })
        .or_else(|| cands.first().copied())
    }
}
