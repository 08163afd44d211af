//! Configuration of the epoch system — the design space explored in the
//! paper's Sec. 5.2 / Figures 4 and 5.

use std::time::Duration;

/// How (and whether) payload write-backs are performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistStrategy {
    /// Track updated payloads in per-thread circular buffers of the given
    /// capacity; on overflow the oldest entry is written back incrementally;
    /// the rest are written back at the epoch boundary. The paper's default
    /// is `Buffered(64)` — "Montage (cb)" in Fig. 9.
    Buffered(usize),
    /// Write back every payload immediately when it is created or modified
    /// and fence at `END_OP` — "DirWB" in Fig. 4/5 and "Montage (dw)" in
    /// Fig. 9.
    DirWB,
    /// Elide all persistence operations: no write-backs, no fences, no
    /// delayed reclamation. Payloads still live in NVM. This is the paper's
    /// "Montage (T)" reference configuration (not crash-safe).
    None,
}

/// Who reclaims freed payloads (and when).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreeStrategy {
    /// The epoch-advancing thread reclaims payloads freed in epoch *e−2*
    /// (and anti-payloads from *e−3*) at the end of epoch *e* — the paper's
    /// default.
    Background,
    /// Worker threads reclaim their own retired payloads at `BEGIN_OP`,
    /// as in the "+LocalFree" bars of Fig. 4/5 (slight critical-path
    /// dilation).
    WorkerLocal,
    /// Reclaim immediately at `PDELETE` — the "+DirFree" reference bars;
    /// **not crash-consistent** (a crash may resurrect freed payloads or
    /// lose still-referenced ones), provided for ablation only.
    Direct,
}

/// Epoch-system configuration.
#[derive(Clone, Copy, Debug)]
pub struct EsysConfig {
    /// Maximum number of registered threads.
    pub max_threads: usize,
    /// Write-back strategy.
    pub persist: PersistStrategy,
    /// Reclamation strategy.
    pub free: FreeStrategy,
    /// Target epoch length for the background advancer (paper default 10 ms).
    pub epoch_length: Duration,
    /// Grace window (in spin steps per tracker slot) an epoch advance gives
    /// in-flight operations to retire before bypassing them as stragglers
    /// (nbMontage-style helping; see `EpochSys::advance_epoch`). An op
    /// normally retires within a few hundred instructions, so the default
    /// keeps quiescent boundaries on the fast path while bounding how long
    /// one parked thread can delay everyone else's `sync`.
    pub advance_grace_spins: usize,
}

impl Default for EsysConfig {
    fn default() -> Self {
        EsysConfig {
            max_threads: 64,
            persist: PersistStrategy::Buffered(64),
            free: FreeStrategy::Background,
            epoch_length: Duration::from_millis(10),
            advance_grace_spins: 4096,
        }
    }
}

impl EsysConfig {
    /// The paper's "Montage (T)" configuration: payloads in NVM, all
    /// persistence elided.
    pub fn transient() -> Self {
        EsysConfig {
            persist: PersistStrategy::None,
            free: FreeStrategy::Direct,
            ..Default::default()
        }
    }

    /// Buffered write-back with the given per-thread buffer capacity.
    pub fn buffered(n: usize) -> Self {
        EsysConfig {
            persist: PersistStrategy::Buffered(n),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = EsysConfig::default();
        assert_eq!(c.persist, PersistStrategy::Buffered(64));
        assert_eq!(c.free, FreeStrategy::Background);
        assert_eq!(c.epoch_length, Duration::from_millis(10));
        assert_eq!(c.advance_grace_spins, 4096);
    }

    #[test]
    fn transient_elides_everything() {
        let c = EsysConfig::transient();
        assert_eq!(c.persist, PersistStrategy::None);
        assert_eq!(c.free, FreeStrategy::Direct);
    }
}
