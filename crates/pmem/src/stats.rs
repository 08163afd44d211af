//! Persistence-instruction statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for persistence activity on a pool.
///
/// All counters are monotonically increasing and updated with relaxed
/// atomics; they are approximate under heavy concurrency but exact enough for
/// the flush/fence accounting the benchmarks report.
#[derive(Debug, Default)]
pub struct PmemStats {
    /// Number of `clwb` instructions issued.
    pub clwbs: AtomicU64,
    /// Number of `sfence` instructions issued.
    pub sfences: AtomicU64,
    /// Number of cache lines actually drained to durable media.
    pub lines_drained: AtomicU64,
    /// Dependent loads charged as NVM media misses ([`crate::PmemPool::touch`]).
    pub touches: AtomicU64,
    /// Cache lines charged as bulk media reads ([`crate::PmemPool::media_read`]).
    pub media_read_lines: AtomicU64,
    /// Number of simulated crashes.
    pub crashes: AtomicU64,
    /// Crashes injected by a fault plan tripping (as opposed to explicit
    /// [`crate::PmemPool::crash`] calls, which `crashes` counts).
    pub injected_crashes: AtomicU64,
    /// Pending lines torn (partially persisted) at crash time by
    /// [`crate::ChaosConfig::torn_line_permille`].
    pub torn_lines: AtomicU64,
    /// Threads parked by the stall fault plan
    /// ([`crate::ChaosConfig::stall_at_event`]).
    pub stalls_injected: AtomicU64,
    /// Payloads quarantined by recovery code running on top of the pool
    /// (reported via [`PmemStats::on_quarantine`]).
    pub quarantined_payloads: AtomicU64,
}

impl PmemStats {
    pub(crate) fn on_clwb(&self, n: u64) {
        self.clwbs.fetch_add(n, Ordering::Relaxed);
    }

    /// Tallies a read charge (`touches`, `media_read_lines`). Those sit on
    /// the `get` path, where two locked adds per request cost 3 % of
    /// `wire_b_read`'s throughput: a plain load and store instead — exact
    /// from one thread, may drop counts in a race.
    pub(crate) fn on_read(tally: &AtomicU64, n: u64) {
        tally.store(tally.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    pub(crate) fn on_sfence(&self, drained: u64) {
        self.sfences.fetch_add(1, Ordering::Relaxed);
        self.lines_drained.fetch_add(drained, Ordering::Relaxed);
    }

    pub(crate) fn on_crash(&self) {
        self.crashes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_injected_crash(&self) {
        self.injected_crashes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_torn_line(&self) {
        self.torn_lines.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_stall(&self) {
        self.stalls_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` payloads quarantined by a recovery pass. Public because
    /// the quarantining happens in the layers above the pool (Montage
    /// recovery), but the counter lives here so every consumer of pool
    /// statistics — benches, the kv server's `stats` command — sees it.
    pub fn on_quarantine(&self, n: u64) {
        self.quarantined_payloads.fetch_add(n, Ordering::Relaxed);
    }

    /// A labelled point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            clwbs: self.clwbs.load(Ordering::Relaxed),
            sfences: self.sfences.load(Ordering::Relaxed),
            lines_drained: self.lines_drained.load(Ordering::Relaxed),
            touches: self.touches.load(Ordering::Relaxed),
            media_read_lines: self.media_read_lines.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            injected_crashes: self.injected_crashes.load(Ordering::Relaxed),
            torn_lines: self.torn_lines.load(Ordering::Relaxed),
            stalls_injected: self.stalls_injected.load(Ordering::Relaxed),
            quarantined_payloads: self.quarantined_payloads.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`PmemStats`], with every counter named (the
/// former positional `(u64, u64, u64)` tuple silently omitted `crashes`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub clwbs: u64,
    pub sfences: u64,
    pub lines_drained: u64,
    pub touches: u64,
    pub media_read_lines: u64,
    pub crashes: u64,
    pub injected_crashes: u64,
    pub torn_lines: u64,
    pub stalls_injected: u64,
    pub quarantined_payloads: u64,
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    /// Merges per-pool snapshots into fleet-wide counters — the sharded
    /// store's `stats` fan-out folds one snapshot per shard pool.
    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            clwbs: self.clwbs + rhs.clwbs,
            sfences: self.sfences + rhs.sfences,
            lines_drained: self.lines_drained + rhs.lines_drained,
            touches: self.touches + rhs.touches,
            media_read_lines: self.media_read_lines + rhs.media_read_lines,
            crashes: self.crashes + rhs.crashes,
            injected_crashes: self.injected_crashes + rhs.injected_crashes,
            torn_lines: self.torn_lines + rhs.torn_lines,
            stalls_injected: self.stalls_injected + rhs.stalls_injected,
            quarantined_payloads: self.quarantined_payloads + rhs.quarantined_payloads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = PmemStats::default();
        s.on_clwb(1);
        s.on_clwb(1);
        s.on_sfence(5);
        PmemStats::on_read(&s.touches, 1);
        PmemStats::on_read(&s.media_read_lines, 4);
        s.on_crash();
        s.on_injected_crash();
        s.on_torn_line();
        s.on_stall();
        s.on_quarantine(3);
        assert_eq!(
            s.snapshot(),
            StatsSnapshot {
                clwbs: 2,
                sfences: 1,
                lines_drained: 5,
                touches: 1,
                media_read_lines: 4,
                crashes: 1,
                injected_crashes: 1,
                torn_lines: 1,
                stalls_injected: 1,
                quarantined_payloads: 3,
            }
        );
    }
}
