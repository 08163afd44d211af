//! `persist-san`: a pmemcheck/PMTest-style persistency sanitizer.
//!
//! Compiled only under the `persist-san` feature. Every cache line of the
//! pool carries a shadow state driven by the tracked entry points
//! ([`crate::PmemPool::write`], `clwb`, `clwb_range`, `sfence`):
//!
//! ```text
//! Clean ──write──▶ DirtyUnflushed ──clwb──▶ FlushedUnfenced ──sfence──▶ Durable
//!   ▲                                                                     │
//!   └───────────────────────── (restart) ────────────────────────────────┘
//! ```
//!
//! plus a `TransientDirty` state for stores declared non-durable by design
//! (allocator free-list links — see [`crate::PmemPool::write_transient`]),
//! which are exempt from the epoch-boundary check.
//!
//! Four violation classes are detected, each attributed to the offending
//! call site via `#[track_caller]` on the pool entry points:
//!
//! * [`SanClass::DirtyAtEpochBoundary`] — a tracked store was still
//!   `DirtyUnflushed` at an epoch boundary that should have made its epoch
//!   durable (the epoch advancer calls
//!   [`crate::PmemPool::san_epoch_boundary`] after its boundary fence). The
//!   check is generation-stamped: a line dirtied *before the previous*
//!   boundary must have been flushed by this one, which is exactly Montage's
//!   "epoch `e−1` is durable once the clock reads `e+1`" discipline.
//! * [`SanClass::RedundantClwb`] — `clwb` of a line that holds no unflushed
//!   store (already `FlushedUnfenced`/`Durable`, or never written). Not a
//!   correctness bug, but the dominant persistence *cost* per the MOD paper;
//!   reported with per-site counts for flush audits.
//! * [`SanClass::EmptySfence`] — a fence with no `FlushedUnfenced` line to
//!   drain anywhere in the pool. Pure overhead (also recorded, not denied:
//!   an idle epoch advance legitimately issues one).
//! * [`SanClass::RecoveryDirtyRead`] — during an explicitly declared
//!   recovery window ([`crate::PmemPool::san_begin_recovery`]), a read of a
//!   line whose content was **never made durable** before the crash cut
//!   (it was `DirtyUnflushed`/`FlushedUnfenced` when [`crate::PmemPool::crash`]
//!   ran and no earlier fence ever drained it). Recovery code that *validates*
//!   before trusting — checksummed header probes — opts out per read scope
//!   via [`crate::PmemPool::san_probe`].
//!
//! Deny mode (the default when the feature is on; per-pool
//! [`crate::PmemPool::san_set_deny`]) panics at the violation site for the
//! two correctness classes. The two cost classes are always report-only,
//! queryable through [`SanReport`].

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::layout::CACHE_LINE;

/// Violation classes, in decreasing severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SanClass {
    /// A store was still unflushed at an epoch boundary that declared its
    /// epoch durable. Correctness: the store can be lost after the epoch it
    /// belongs to is advertised as recoverable.
    DirtyAtEpochBoundary,
    /// Recovery-time read of a line whose pre-crash content never became
    /// durable. Correctness: recovery is consuming garbage.
    RecoveryDirtyRead,
    /// `clwb` of a line with no unflushed store. Cost only.
    RedundantClwb,
    /// `sfence` with nothing to drain. Cost only.
    EmptySfence,
}

/// A source location captured from `#[track_caller]` metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SanSite {
    pub file: &'static str,
    pub line: u32,
    pub column: u32,
}

impl SanSite {
    fn from_caller(loc: &'static Location<'static>) -> SanSite {
        SanSite {
            file: loc.file(),
            line: loc.line(),
            column: loc.column(),
        }
    }
}

impl std::fmt::Display for SanSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

/// One recorded violation.
#[derive(Clone, Copy, Debug)]
pub struct SanViolation {
    pub class: SanClass,
    /// Cache-line index (`offset / 64`) of the affected line.
    pub line: u64,
    /// The offending call site: the unflushed store for
    /// [`SanClass::DirtyAtEpochBoundary`], the reading site for
    /// [`SanClass::RecoveryDirtyRead`], the flush/fence site for the cost
    /// classes.
    pub site: SanSite,
    /// A related site, when one exists: the previous flush for
    /// [`SanClass::RedundantClwb`], the never-durable store for
    /// [`SanClass::RecoveryDirtyRead`].
    pub related: Option<SanSite>,
}

/// Point-in-time copy of everything the sanitizer knows. Obtained from
/// [`crate::PmemPool::san_report`].
#[derive(Clone, Debug)]
pub struct SanReport {
    /// Recorded violations, capped at [`MAX_VIOLATIONS`]; counts keep
    /// accumulating past the cap.
    pub violations: Vec<SanViolation>,
    counts: [(SanClass, u64); 4],
    /// Redundant-`clwb` occurrences keyed by flush call site (uncapped) —
    /// the raw material of a flush audit.
    pub redundant_by_site: Vec<(SanSite, u64)>,
}

impl SanReport {
    /// Total occurrences of `class` (not capped).
    pub fn count(&self, class: SanClass) -> u64 {
        self.counts
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0, |&(_, n)| n)
    }

    /// True when no *correctness-class* violation was recorded. Cost
    /// classes (redundant flushes, empty fences) do not fail this.
    pub fn correctness_clean(&self) -> bool {
        self.count(SanClass::DirtyAtEpochBoundary) == 0
            && self.count(SanClass::RecoveryDirtyRead) == 0
    }

    /// Violations of one class.
    pub fn of(&self, class: SanClass) -> impl Iterator<Item = &SanViolation> {
        self.violations.iter().filter(move |v| v.class == class)
    }
}

/// Recorded-violation cap (counts are exact past it; details are dropped).
pub const MAX_VIOLATIONS: usize = 256;

// Shadow states.
const CLEAN: u8 = 0;
const TRANSIENT: u8 = 1;
const DIRTY: u8 = 2;
const FLUSHED: u8 = 3;
const DURABLE: u8 = 4;

/// Site id 0 is reserved for "unknown".
const SITE_UNKNOWN: u16 = 0;

#[derive(Clone, Copy)]
struct LineShadow {
    state: u8,
    /// The line has been durable (fenced) at least once in this pool's
    /// history — its durable-image content is a meaningful previous version,
    /// so a post-crash read of it is prefix semantics, not garbage.
    ever_durable: bool,
    /// Boundary generation of the last tracked store.
    gen: u32,
    write_site: u16,
    flush_site: u16,
}

const LINE_INIT: LineShadow = LineShadow {
    state: CLEAN,
    ever_durable: false,
    gen: 0,
    write_site: SITE_UNKNOWN,
    flush_site: SITE_UNKNOWN,
};

struct SanInner {
    lines: Box<[LineShadow]>,
    /// Current boundary generation (bumped by `san_epoch_boundary`).
    gen: u32,
    /// The caller's clock value at the last boundary counted; a boundary
    /// reported again (advancers racing over one tick) is counted once.
    tick: u64,
    /// Interned call sites; `LineShadow` stores u16 indices into this.
    sites: Vec<SanSite>,
    site_ids: HashMap<SanSite, u16>,
    /// Lines currently in state `DIRTY` (removed once reported, so a stale
    /// store is named once per offending write, not once per boundary).
    dirty: HashSet<u64>,
    /// Lines currently in state `FLUSHED` (drained wholesale by a fence,
    /// mirroring the pool's asynchronous-write-back pending set).
    flushed: HashSet<u64>,
    /// Lines whose content was never durable at the last crash cut; armed by
    /// `for_restart`, consumed by recovery-window reads.
    suspects: HashSet<u64>,
    counts: [u64; 4],
    violations: Vec<SanViolation>,
    redundant_by_site: HashMap<u16, u64>,
}

impl SanInner {
    fn intern(&mut self, site: SanSite) -> u16 {
        if let Some(&id) = self.site_ids.get(&site) {
            return id;
        }
        if self.sites.len() >= u16::MAX as usize {
            return SITE_UNKNOWN;
        }
        let id = self.sites.len() as u16;
        self.sites.push(site);
        self.site_ids.insert(site, id);
        id
    }

    fn site(&self, id: u16) -> Option<SanSite> {
        if id == SITE_UNKNOWN {
            None
        } else {
            self.sites.get(id as usize).copied()
        }
    }

    fn class_idx(class: SanClass) -> usize {
        match class {
            SanClass::DirtyAtEpochBoundary => 0,
            SanClass::RecoveryDirtyRead => 1,
            SanClass::RedundantClwb => 2,
            SanClass::EmptySfence => 3,
        }
    }

    fn record(&mut self, v: SanViolation) {
        self.counts[Self::class_idx(v.class)] += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }
}

/// Per-pool sanitizer state. Lives in the pool's `Inner`.
pub(crate) struct SanState {
    inner: Mutex<SanInner>,
    /// Panic on correctness-class violations (default on).
    deny: AtomicBool,
    /// A recovery window is open (suspect reads are checked).
    recovery: AtomicBool,
}

thread_local! {
    /// Probe-scope nesting depth: reads inside a probe scope are exempt from
    /// the recovery dirty-read check (the caller validates before trusting).
    static PROBE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

pub(crate) fn in_probe_scope() -> bool {
    PROBE_DEPTH.with(|d| d.get() > 0)
}

/// RAII guard for a probe scope; see [`crate::PmemPool::san_probe`].
pub(crate) struct ProbeGuard;

impl ProbeGuard {
    pub(crate) fn enter() -> ProbeGuard {
        PROBE_DEPTH.with(|d| d.set(d.get() + 1));
        ProbeGuard
    }
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        PROBE_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

impl SanState {
    pub(crate) fn new(pool_size: usize) -> SanState {
        let nlines = pool_size / CACHE_LINE;
        SanState {
            inner: Mutex::new(SanInner {
                lines: vec![LINE_INIT; nlines].into_boxed_slice(),
                gen: 1,
                tick: 0,
                sites: vec![SanSite {
                    file: "<unknown>",
                    line: 0,
                    column: 0,
                }],
                site_ids: HashMap::new(),
                dirty: HashSet::new(),
                flushed: HashSet::new(),
                suspects: HashSet::new(),
                counts: [0; 4],
                violations: Vec::new(),
                redundant_by_site: HashMap::new(),
            }),
            deny: AtomicBool::new(true),
            recovery: AtomicBool::new(false),
        }
    }

    pub(crate) fn set_deny(&self, deny: bool) {
        self.deny.store(deny, Ordering::Relaxed);
    }

    fn denies(&self) -> bool {
        self.deny.load(Ordering::Relaxed)
    }

    pub(crate) fn begin_recovery(&self) {
        self.recovery.store(true, Ordering::Release);
    }

    pub(crate) fn end_recovery(&self) {
        self.recovery.store(false, Ordering::Release);
    }

    pub(crate) fn in_recovery(&self) -> bool {
        self.recovery.load(Ordering::Acquire)
    }

    /// Tracked store of `[off, off+len)`.
    pub(crate) fn on_write(&self, off: u64, len: usize, loc: &'static Location<'static>) {
        if len == 0 {
            return;
        }
        let site = SanSite::from_caller(loc);
        let mut s = self.inner.lock();
        let id = s.intern(site);
        let gen = s.gen;
        for line in span(off, len) {
            let Some(sh) = s.lines.get(line as usize) else {
                continue;
            };
            if sh.state == FLUSHED {
                s.flushed.remove(&line);
            }
            let sh = &mut s.lines[line as usize];
            sh.state = DIRTY;
            sh.gen = gen;
            sh.write_site = id;
            s.dirty.insert(line);
            // Fresh content: reading it post-crash is no longer a stale read
            // of the pre-crash cut.
            s.suspects.remove(&line);
        }
    }

    /// Store that is non-durable *by design* (never flushed, reconstructed
    /// on recovery): exempt from the boundary check unless the line also
    /// holds an unflushed tracked store.
    pub(crate) fn on_write_transient(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        let mut s = self.inner.lock();
        for line in span(off, len) {
            let Some(sh) = s.lines.get(line as usize) else {
                continue;
            };
            // A pending tracked store on the same line still has to reach
            // its flush — keep DIRTY. Everything else becomes transient.
            if sh.state != DIRTY {
                if sh.state == FLUSHED {
                    s.flushed.remove(&line);
                }
                s.lines[line as usize].state = TRANSIENT;
            }
        }
    }

    /// `clwb` of each of `lines`: those that take effect (the fault plan
    /// cut off the rest), one record per line, as for one `clwb` each.
    pub(crate) fn on_clwb(
        &self,
        lines: impl Iterator<Item = u64>,
        loc: &'static Location<'static>,
    ) {
        let site = SanSite::from_caller(loc);
        let mut s = self.inner.lock();
        let id = s.intern(site);
        for line in lines {
            let Some(&sh) = s.lines.get(line as usize) else {
                continue;
            };
            match sh.state {
                DIRTY | TRANSIENT => {
                    s.dirty.remove(&line);
                }
                // No unflushed store on this line: the flush is pure cost.
                CLEAN | FLUSHED | DURABLE => {
                    let related = s.site(sh.flush_site);
                    s.record(SanViolation {
                        class: SanClass::RedundantClwb,
                        line,
                        site,
                        related,
                    });
                    *s.redundant_by_site.entry(id).or_insert(0) += 1;
                }
                _ => unreachable!(),
            }
            let sh = &mut s.lines[line as usize];
            sh.state = FLUSHED;
            sh.flush_site = id;
            s.flushed.insert(line);
        }
    }

    /// Effective `sfence`: drains every `FlushedUnfenced` line (the pool's
    /// pending set is global — see the `pending` field docs in `pool.rs`).
    pub(crate) fn on_sfence(&self, loc: &'static Location<'static>) {
        let site = SanSite::from_caller(loc);
        let mut s = self.inner.lock();
        if s.flushed.is_empty() {
            s.record(SanViolation {
                class: SanClass::EmptySfence,
                line: 0,
                site,
                related: None,
            });
            return;
        }
        let drained = std::mem::take(&mut s.flushed);
        for line in drained {
            let sh = &mut s.lines[line as usize];
            sh.state = DURABLE;
            sh.ever_durable = true;
        }
    }

    /// The epoch advancer's boundary: counts `tick` once, however many
    /// advancers report it, and — on a `quiescent` one — asserts that every
    /// tracked store stamped before the *previous* boundary has been flushed.
    pub(crate) fn on_epoch_boundary(
        &self,
        tick: u64,
        quiescent: bool,
        loc: &'static Location<'static>,
    ) {
        let mut s = self.inner.lock();
        if tick <= s.tick {
            return;
        }
        s.tick = tick;
        let gen = s.gen;
        s.gen += 1;
        if !quiescent {
            return;
        }
        let mut stale: Vec<u64> = s
            .dirty
            .iter()
            .copied()
            .filter(|&l| s.lines[l as usize].gen < gen)
            .collect();
        // HashSet order is nondeterministic; report in line order so the
        // named violation is stable run to run.
        stale.sort_unstable();
        let mut first: Option<(u64, SanSite)> = None;
        for line in stale {
            // Report each offending store once, not once per boundary.
            s.dirty.remove(&line);
            let site = s
                .site(s.lines[line as usize].write_site)
                .unwrap_or(SanSite::from_caller(loc));
            if first.is_none() {
                first = Some((line, site));
            }
            s.record(SanViolation {
                class: SanClass::DirtyAtEpochBoundary,
                line,
                site,
                related: None,
            });
        }
        drop(s);
        if let Some((line, site)) = first {
            if self.denies() {
                panic!(
                    "persist-san: line {line} (offset {:#x}) was written at {site} \
                     but never flushed before the epoch boundary declared it durable",
                    line * CACHE_LINE as u64
                );
            }
        }
    }

    /// Read of `[off, off+len)`. Only checked inside a recovery window,
    /// outside probe scopes.
    pub(crate) fn on_read(&self, off: u64, len: usize, loc: &'static Location<'static>) {
        if len == 0 || !self.in_recovery() || in_probe_scope() {
            return;
        }
        let site = SanSite::from_caller(loc);
        let mut first: Option<(u64, Option<SanSite>)> = None;
        {
            let mut s = self.inner.lock();
            for line in span(off, len) {
                if !s.suspects.remove(&line) {
                    continue;
                }
                let related = s.site(s.lines.get(line as usize).map_or(0, |sh| sh.write_site));
                if first.is_none() {
                    first = Some((line, related));
                }
                s.record(SanViolation {
                    class: SanClass::RecoveryDirtyRead,
                    line,
                    site,
                    related,
                });
            }
        }
        if let Some((line, related)) = first {
            if self.denies() {
                let wrote = related.map_or(String::from("an untracked site"), |s| s.to_string());
                panic!(
                    "persist-san: recovery-time read at {site} of line {line} (offset {:#x}), \
                     whose pre-crash content was never durable (last written at {wrote})",
                    line * CACHE_LINE as u64
                );
            }
        }
    }

    /// Arms the shadow state of the pool that replaces this one after a
    /// crash: everything starts clean, and lines that were `DirtyUnflushed`
    /// or `FlushedUnfenced` at the cut — and had *never* been fenced before —
    /// become recovery-read suspects (their durable-image bytes are not any
    /// committed version, they are whatever was there before the store).
    pub(crate) fn arm_restart(&self, new: &SanState) {
        let s = self.inner.lock();
        {
            let mut n = new.inner.lock();
            for (i, sh) in s.lines.iter().enumerate() {
                if i >= n.lines.len() {
                    break;
                }
                let lost = sh.state == DIRTY || sh.state == FLUSHED;
                let carried = s.suspects.contains(&(i as u64));
                if (lost || carried) && !sh.ever_durable {
                    n.suspects.insert(i as u64);
                    // Carry the doomed store's site so the eventual
                    // dirty-read report can name it.
                    if let Some(site) = s.site(sh.write_site) {
                        let id = n.intern(site);
                        n.lines[i].write_site = id;
                    }
                }
                // Durable-image content carries over; so does the fact that
                // a line has (n)ever held a fenced version.
                n.lines[i].ever_durable = sh.ever_durable;
            }
        }
        new.set_deny(self.denies());
    }

    /// Marks every line as having held a durable version (used when a pool
    /// is materialized from a snapshot file, whose entire content *is* the
    /// durable image).
    pub(crate) fn mark_all_durable(&self) {
        let mut s = self.inner.lock();
        for sh in s.lines.iter_mut() {
            sh.ever_durable = true;
        }
        s.suspects.clear();
    }

    pub(crate) fn report(&self) -> SanReport {
        let s = self.inner.lock();
        let mut by_site: Vec<(SanSite, u64)> = s
            .redundant_by_site
            .iter()
            .map(|(&id, &n)| (s.site(id).unwrap_or(s.sites[0]), n))
            .collect();
        by_site.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.file.cmp(b.0.file)));
        SanReport {
            violations: s.violations.clone(),
            counts: [
                (SanClass::DirtyAtEpochBoundary, s.counts[0]),
                (SanClass::RecoveryDirtyRead, s.counts[1]),
                (SanClass::RedundantClwb, s.counts[2]),
                (SanClass::EmptySfence, s.counts[3]),
            ],
            redundant_by_site: by_site,
        }
    }

    /// Clears recorded violations and counters (shadow line states are
    /// kept). Audits use this to delimit a measurement window.
    pub(crate) fn reset_counts(&self) {
        let mut s = self.inner.lock();
        s.counts = [0; 4];
        s.violations.clear();
        s.redundant_by_site.clear();
    }
}

fn span(off: u64, len: usize) -> std::ops::RangeInclusive<u64> {
    let first = off / CACHE_LINE as u64;
    let last = (off + len as u64 - 1) / CACHE_LINE as u64;
    first..=last
}
