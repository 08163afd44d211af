//! # pmem-chaos — exhaustive crash- and stall-point sweep testing
//!
//! The pool's fault plan ([`pmem::ChaosConfig::crash_at_event`]) can freeze
//! the durable image at any single persistence event. This crate turns that
//! into a *sweep*: run a workload once to count its persistence events, then
//! run it again with a crash injected at every event boundary (or a seeded
//! sample of them, for long workloads), recover each durable image, and
//! check a caller-supplied invariant.
//!
//! The same machinery drives *stall* sweeps ([`stall_sweep`], built on
//! [`pmem::ChaosConfig::stall_at_event`]): instead of killing the machine at
//! event `n`, park one thread there mid-instruction and prove that (a) a
//! concurrent workload still completes — liveness under a straggler — and
//! (b) a crash taken while the victim is parked, after helpers completed its
//! write-backs, still recovers a consistent prefix.
//!
//! The point of sweeping *every* event is that crash-consistency bugs live
//! at specific instruction boundaries — between a payload flush and its
//! fence, between the epoch-clock store and the boundary drain. A test that
//! crashes at one hand-picked moment misses them; a sweep cannot.
//!
//! ```
//! use pmem::{PmemConfig, PmemPool, POff};
//! use pmem_chaos::{crash_sweep, SweepConfig};
//!
//! const OFF: POff = POff::new(4096);
//! let report = crash_sweep(
//!     &SweepConfig::default(),
//!     PmemConfig::strict_for_test(1 << 20),
//!     |pool| {
//!         // Workload: must tolerate the pool crashing under it (use the
//!         // pool's `checked` wrapper and unwind-free error paths).
//!         let _ = pool.checked(|| pool.write_bytes(OFF, b"hello"));
//!         let _ = pool.checked(|| pool.persist_range(OFF, 5));
//!     },
//!     |durable, _crash_at| {
//!         // Invariant over the recovered durable image: the value is
//!         // either fully there or absent — never torn.
//!         let mut buf = [0u8; 5];
//!         durable.read_bytes(OFF, &mut buf);
//!         match &buf {
//!             b"hello" | [0, 0, 0, 0, 0] => Ok(()),
//!             other => Err(format!("torn write survived: {other:?}")),
//!         }
//!     },
//! );
//! report.assert_ok();
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pmem::{PmemConfig, PmemPool};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Extracts a printable message from a captured panic payload.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// How a sweep chooses its crash points.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Workloads with at most this many persistence events are swept
    /// exhaustively: one run per event boundary, `0..=total`.
    pub exhaustive_limit: u64,
    /// Above the limit, this many interior points are sampled (the
    /// boundaries 0 and `total` are always included).
    pub samples: usize,
    /// Seed for the sampling RNG — same seed, same points, so CI failures
    /// replay locally.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            exhaustive_limit: 512,
            samples: 48,
            seed: 0x5EED_CA5E,
        }
    }
}

/// One crash point whose recovered image violated the invariant (or whose
/// workload panicked instead of degrading).
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// The armed `crash_at_event`.
    pub crash_at: u64,
    pub message: String,
}

/// Outcome of a [`crash_sweep`].
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Persistence events the unfaulted workload performs.
    pub total_events: u64,
    /// Every crash point that was actually swept, in order.
    pub crash_points: Vec<u64>,
    pub failures: Vec<SweepFailure>,
}

impl SweepReport {
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panics with every failing crash point if the sweep found violations.
    pub fn assert_ok(&self) {
        assert!(
            self.is_ok(),
            "crash sweep failed at {}/{} points (of {} events):\n{}",
            self.failures.len(),
            self.crash_points.len(),
            self.total_events,
            self.failures
                .iter()
                .map(|f| format!("  crash_at={}: {}", f.crash_at, f.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Runs `workload` on a fresh pool with the event counter armed but no
/// crash point (`Some(u64::MAX)`), returning how many persistence events it
/// performs. This is the one-pool sweeps' counting pass.
fn count_events(base: PmemConfig, workload: impl FnOnce(&PmemPool)) -> u64 {
    shard_count_events(base, 1, 0, |pools| workload(&pools[0]))
}

/// The crash points a sweep of `total_events` visits under `cfg`:
/// exhaustive `0..=total` below the limit, otherwise both boundaries plus
/// `cfg.samples` seeded interior points (sorted, deduplicated).
pub fn crash_points(total_events: u64, cfg: &SweepConfig) -> Vec<u64> {
    if total_events <= cfg.exhaustive_limit {
        return (0..=total_events).collect();
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut points = vec![0, total_events];
    for _ in 0..cfg.samples {
        points.push(rng.gen_range(1..total_events));
    }
    points.sort_unstable();
    points.dedup();
    points
}

/// Sweeps `workload` over crash points.
///
/// For each point `n`, a fresh pool is built from `base` with
/// `crash_at_event = Some(n)`, the workload runs on it (the fault plan
/// trips partway through; checked operations start failing), the pool is
/// crashed to its durable-image-as-of-event-`n`, and `verify` is called on
/// that image. `verify` returns `Err(reason)` to report an invariant
/// violation; a panic inside `workload` or `verify` is likewise captured as
/// a failure (crash-time degradation must be unwind-free).
///
/// Everything is deterministic: two runs with the same config, workload,
/// and seed sweep the same points in the same order.
pub fn crash_sweep(
    cfg: &SweepConfig,
    base: PmemConfig,
    mut workload: impl FnMut(&PmemPool),
    mut verify: impl FnMut(PmemPool, u64) -> Result<(), String>,
) -> SweepReport {
    // The one-pool case of the sharded sweep: one shard, and it is the victim.
    shard_crash_sweep(
        cfg,
        base,
        1,
        0,
        |pools| workload(&pools[0]),
        |mut images, crash_at| verify(images.pop().expect("one pool, one image"), crash_at),
    )
}

/// Counting pass for a multi-pool (sharded) workload: builds `n_shards`
/// fresh pools from `base`, arms only `victim`'s event counter, runs the
/// workload once, and returns how many persistence events the victim shard
/// performs. Non-victim pools are left unarmed — a sharded sweep injects a
/// crash into exactly one shard's durable image per run.
fn shard_count_events(
    mut base: PmemConfig,
    n_shards: usize,
    victim: usize,
    workload: impl FnOnce(&[PmemPool]),
) -> u64 {
    assert!(victim < n_shards, "victim shard out of range");
    base.chaos.crash_at_event = None;
    let pools: Vec<PmemPool> = (0..n_shards)
        .map(|i| {
            let mut cfg = base;
            if i == victim {
                cfg.chaos.crash_at_event = Some(u64::MAX);
            }
            PmemPool::new(cfg)
        })
        .collect();
    workload(&pools);
    pools[victim].persistence_events()
}

/// Sweeps a multi-pool workload over the *victim* shard's crash points.
///
/// Per point `n`, `n_shards` fresh pools are built from `base`; the victim's
/// fault plan is armed with `crash_at_event = Some(n)` and the others run
/// unfaulted. The workload drives all pools (and must degrade, not panic,
/// once the victim trips); then every pool is crashed and `verify` receives
/// all durable images, victim's frozen at event `n`, in shard order. The
/// invariant a sharded store wants here: the victim recovers a consistent
/// prefix while the other shards lose nothing past their last fence —
/// crash containment, the property a single-pool sweep cannot express.
pub fn shard_crash_sweep(
    cfg: &SweepConfig,
    base: PmemConfig,
    n_shards: usize,
    victim: usize,
    mut workload: impl FnMut(&[PmemPool]),
    mut verify: impl FnMut(Vec<PmemPool>, u64) -> Result<(), String>,
) -> SweepReport {
    let total_events = shard_count_events(base, n_shards, victim, &mut workload);
    let points = crash_points(total_events, cfg);
    let mut failures = Vec::new();
    for &crash_at in &points {
        let pools: Vec<PmemPool> = (0..n_shards)
            .map(|i| {
                let mut armed = base;
                armed.chaos.crash_at_event = (i == victim).then_some(crash_at);
                PmemPool::new(armed)
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            workload(&pools);
            verify(pools.iter().map(|p| p.crash()).collect(), crash_at)
        }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(message)) => failures.push(SweepFailure { crash_at, message }),
            Err(panic) => {
                failures.push(SweepFailure {
                    crash_at,
                    message: format!("panicked instead of degrading: {}", panic_message(panic)),
                });
            }
        }
    }
    SweepReport {
        total_events,
        crash_points: points,
        failures,
    }
}

/// One stall point that violated liveness, panicked, or whose mid-helping
/// crash cut failed verification.
#[derive(Clone, Debug)]
pub struct StallSweepFailure {
    /// The armed `stall_at_event`.
    pub stall_at: u64,
    pub message: String,
}

/// Outcome of a [`stall_sweep`].
#[derive(Clone, Debug)]
pub struct StallSweepReport {
    /// Persistence events the victim workload performs when run alone.
    pub total_events: u64,
    /// Every stall point that was actually swept, in order.
    pub stall_points: Vec<u64>,
    /// How many points actually parked the victim (point 0 — and any point
    /// past the victim's own event count — cannot).
    pub parked_points: usize,
    pub failures: Vec<StallSweepFailure>,
}

impl StallSweepReport {
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panics with every failing stall point if the sweep found violations.
    pub fn assert_ok(&self) {
        assert!(
            self.is_ok(),
            "stall sweep failed at {}/{} points (of {} events, {} parked):\n{}",
            self.failures.len(),
            self.stall_points.len(),
            self.total_events,
            self.parked_points,
            self.failures
                .iter()
                .map(|f| format!("  stall_at={}: {}", f.stall_at, f.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Sweeps a two-thread schedule over *stall* points: at every persistence
/// event of the `victim` workload, park the victim mid-instruction and prove
/// two properties at once.
///
/// 1. **Liveness** — `concurrent` (run on a second thread while the victim
///    is parked) completes within `liveness_deadline`. With nonblocking
///    epoch advance this holds even when the victim is parked inside an
///    open operation with unwritten buffered lines: helpers complete its
///    write-backs instead of waiting. A deadline miss is recorded as a
///    failure and the victim is released so the sweep itself can continue.
/// 2. **Crash consistency under helping** — the pool is then crashed *while
///    the victim is still parked* (releasing it), and `verify` checks the
///    recovered durable image. This is precisely the "cut during helping"
///    schedule: whatever peers flushed on the victim's behalf must recover
///    as a consistent prefix, never a torn mix.
///
/// Stall points are chosen like [`crash_points`]: exhaustive up to the
/// config's limit, seeded samples beyond it. The counting pass runs the
/// victim alone, so every point in `1..=total` deterministically parks the
/// victim (the live pass also starts `concurrent` only after the victim has
/// parked or finished).
pub fn stall_sweep<V, C, F>(
    cfg: &SweepConfig,
    base: PmemConfig,
    liveness_deadline: Duration,
    victim: V,
    concurrent: C,
    mut verify: F,
) -> StallSweepReport
where
    V: Fn(&PmemPool) + Send + Sync,
    C: Fn(&PmemPool) + Send + Sync,
    F: FnMut(PmemPool, u64) -> Result<(), String>,
{
    let total_events = count_events(base, |p| victim(p));
    let points = crash_points(total_events, cfg);
    let mut failures = Vec::new();
    let mut parked_points = 0;
    for &stall_at in &points {
        let mut armed = base;
        armed.chaos.stall_at_event = Some(stall_at);
        let pool = PmemPool::new(armed);
        let mut point_failures: Vec<String> = Vec::new();
        let durable = std::thread::scope(|s| {
            let vt = s.spawn(|| catch_unwind(AssertUnwindSafe(|| victim(&pool))));
            // Wait until the victim either parks at the stall point or runs
            // to completion (point 0 never parks: no event precedes it).
            while !vt.is_finished() && !pool.await_stalled(Duration::from_millis(20)) {}
            let parked = pool.stalled_count() == 1;

            let ct = s.spawn(|| catch_unwind(AssertUnwindSafe(|| concurrent(&pool))));
            let deadline = Instant::now() + liveness_deadline;
            while !ct.is_finished() {
                if Instant::now() >= deadline {
                    point_failures.push(format!(
                        "liveness: concurrent workload still blocked after \
                         {liveness_deadline:?} (victim parked={parked})"
                    ));
                    // Unwedge so the sweep (and this point's join) terminates.
                    pool.release_stalled();
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if let Err(p) = ct.join().expect("scoped join") {
                point_failures.push(format!("concurrent panicked: {}", panic_message(p)));
            }

            // Cut the power while the victim is still parked mid-operation;
            // `crash` releases it, and its post-release activity only lands
            // in the dead pool's images.
            let durable = pool.crash();
            if let Err(p) = vt.join().expect("scoped join") {
                point_failures.push(format!("victim panicked: {}", panic_message(p)));
            }
            (durable, parked)
        });
        let (durable, parked) = durable;
        parked_points += usize::from(parked);
        if point_failures.is_empty() {
            match catch_unwind(AssertUnwindSafe(|| verify(durable, stall_at))) {
                Ok(Ok(())) => {}
                Ok(Err(message)) => point_failures.push(message),
                Err(p) => point_failures.push(format!("verify panicked: {}", panic_message(p))),
            }
        }
        failures.extend(
            point_failures
                .into_iter()
                .map(|message| StallSweepFailure { stall_at, message }),
        );
    }
    StallSweepReport {
        total_events,
        stall_points: points,
        parked_points,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::POff;

    const OFF: POff = POff::new(4096);

    /// Workload: write a value, flush it, fence. 3 lines written +
    /// 1 flush-range (3 lines) + 1 fence.
    fn workload(pool: &PmemPool) {
        let _ = pool.checked(|| pool.write_bytes(OFF, &[7u8; 128]));
        let _ = pool.checked(|| pool.persist_range(OFF, 128));
    }

    #[test]
    fn counting_pass_is_stable() {
        let base = PmemConfig::strict_for_test(1 << 20);
        let a = count_events(base, workload);
        let b = count_events(base, workload);
        assert_eq!(a, b);
        assert!(a > 0);
    }

    #[test]
    fn exhaustive_points_cover_every_boundary() {
        let pts = crash_points(10, &SweepConfig::default());
        assert_eq!(pts, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn sampled_points_are_deterministic_and_bounded() {
        let cfg = SweepConfig {
            exhaustive_limit: 100,
            samples: 16,
            seed: 42,
        };
        let a = crash_points(10_000, &cfg);
        let b = crash_points(10_000, &cfg);
        assert_eq!(a, b, "same seed must sample the same points");
        assert!(a.len() <= 18);
        assert_eq!(*a.first().unwrap(), 0);
        assert_eq!(*a.last().unwrap(), 10_000);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
    }

    #[test]
    fn sweep_passes_for_an_atomic_write() {
        let report = crash_sweep(
            &SweepConfig::default(),
            PmemConfig::strict_for_test(1 << 20),
            workload,
            |durable, _| {
                let mut buf = [0u8; 128];
                durable.read_bytes(OFF, &mut buf);
                // Each 64-byte line is all-or-nothing without tearing, but
                // the three lines need not persist together; crash points
                // inside the flush make any per-line subset legal.
                for line in buf.chunks(64) {
                    if !(line.iter().all(|&b| b == 7) || line.iter().all(|&b| b == 0)) {
                        return Err(format!("torn line: {line:?}"));
                    }
                }
                Ok(())
            },
        );
        assert_eq!(
            report.crash_points.len() as u64,
            report.total_events + 1,
            "small workload must sweep exhaustively"
        );
        report.assert_ok();
    }

    #[test]
    fn sweep_catches_a_broken_invariant() {
        // Deliberately wrong invariant: demands the value always be fully
        // durable, which early crash points violate.
        let report = crash_sweep(
            &SweepConfig::default(),
            PmemConfig::strict_for_test(1 << 20),
            workload,
            |durable, _| {
                let mut buf = [0u8; 128];
                durable.read_bytes(OFF, &mut buf);
                if buf.iter().all(|&b| b == 7) {
                    Ok(())
                } else {
                    Err("value not durable".into())
                }
            },
        );
        assert!(!report.is_ok(), "crash at event 0 must fail this invariant");
        assert!(report.failures.iter().any(|f| f.crash_at == 0));
    }

    #[test]
    fn workload_panics_are_reported_not_propagated() {
        let cfg = SweepConfig::default();
        let report = crash_sweep(
            &cfg,
            PmemConfig::strict_for_test(1 << 20),
            |pool| {
                pool.checked(|| pool.write_bytes(OFF, &[1u8; 8]))
                    .expect("workload that refuses to degrade");
                let _ = pool.checked(|| pool.persist_range(OFF, 8));
            },
            |_, _| Ok(()),
        );
        assert!(report
            .failures
            .iter()
            .any(|f| f.message.contains("panicked instead of degrading")));
    }

    /// Multi-pool workload: the same atomic write on every shard. Only the
    /// victim's image may come back partial; the others must be complete.
    fn shard_workload(pools: &[PmemPool]) {
        for pool in pools {
            let _ = pool.checked(|| pool.write_bytes(OFF, &[7u8; 64]));
            let _ = pool.checked(|| pool.persist_range(OFF, 64));
        }
    }

    #[test]
    fn shard_counting_pass_counts_only_the_victim() {
        let base = PmemConfig::strict_for_test(1 << 20);
        let single = count_events(base, |p| shard_workload(std::slice::from_ref(p)));
        for victim in 0..3 {
            let n = shard_count_events(base, 3, victim, shard_workload);
            assert_eq!(n, single, "each shard sees the same per-shard events");
        }
    }

    #[test]
    fn stall_sweep_parks_every_interior_point_and_passes() {
        use std::time::Duration;

        let c_off = POff::new(64 * 1024);
        let report = stall_sweep(
            &SweepConfig::default(),
            PmemConfig::strict_for_test(1 << 20),
            Duration::from_secs(30),
            workload, // victim: write 128 B, flush, fence
            move |pool| {
                // Raw-pool peers never wait on anyone: a parked victim must
                // not stop this from persisting.
                let _ = pool.checked(|| pool.write_bytes(c_off, &[9u8; 64]));
                let _ = pool.checked(|| pool.persist_range(c_off, 64));
            },
            |durable, _| {
                // Per-line all-or-nothing for the victim's value, exactly as
                // in the crash sweep: a park is never an excuse to tear.
                let mut buf = [0u8; 128];
                durable.read_bytes(OFF, &mut buf);
                for line in buf.chunks(64) {
                    if !(line.iter().all(|&b| b == 7) || line.iter().all(|&b| b == 0)) {
                        return Err(format!("torn line: {line:?}"));
                    }
                }
                Ok(())
            },
        );
        assert_eq!(
            report.stall_points.len() as u64,
            report.total_events + 1,
            "small workload must sweep exhaustively"
        );
        assert_eq!(
            report.parked_points as u64, report.total_events,
            "every interior point (1..=total) must actually park the victim"
        );
        report.assert_ok();
    }

    #[test]
    fn stall_sweep_reports_liveness_violations_without_hanging() {
        use std::sync::Mutex;
        use std::time::Duration;

        // An artificial blocking dependency: the victim parks while holding
        // a lock the concurrent workload needs. Every parked point must be
        // flagged as a liveness failure — and the sweep must terminate (the
        // deadline path releases the victim).
        let lock = Mutex::new(());
        let report = stall_sweep(
            &SweepConfig::default(),
            PmemConfig::strict_for_test(1 << 20),
            Duration::from_millis(100),
            |pool| {
                let _held = lock.lock().unwrap();
                workload(pool); // parks here, lock held
            },
            |_pool| {
                let _blocked = lock.lock().unwrap();
            },
            |_, _| Ok(()),
        );
        assert!(!report.is_ok());
        let liveness = report
            .failures
            .iter()
            .filter(|f| f.message.contains("liveness"))
            .count();
        assert_eq!(
            liveness, report.parked_points,
            "each parked point blocks the peer and must be flagged"
        );
    }

    #[test]
    fn shard_sweep_contains_the_crash_to_the_victim() {
        let report = shard_crash_sweep(
            &SweepConfig::default(),
            PmemConfig::strict_for_test(1 << 20),
            3,
            1,
            shard_workload,
            |durables, _| {
                for (i, durable) in durables.iter().enumerate() {
                    let mut buf = [0u8; 64];
                    durable.read_bytes(OFF, &mut buf);
                    let full = buf.iter().all(|&b| b == 7);
                    let empty = buf.iter().all(|&b| b == 0);
                    if i == 1 {
                        if !(full || empty) {
                            return Err(format!("victim line torn: {buf:?}"));
                        }
                    } else if !full {
                        return Err(format!("non-victim shard {i} lost its write"));
                    }
                }
                Ok(())
            },
        );
        assert!(report.total_events > 0);
        report.assert_ok();
    }
}
