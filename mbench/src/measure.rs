//! What an untraced run measures, shared by the wire and in-process
//! workloads, and how it becomes the end-to-end metrics.

use std::time::{Duration, Instant};

use crate::json::Metric;
use crate::reply::Outcome;
use crate::spec::END_TO_END;
use crate::stats;
use crate::stream::{self, Kind, Op};
use crate::{RunArgs, RunResult};

/// Verified outcomes of a stretch of load.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub gets: u64,
    pub hits: u64,
}

impl Tally {
    pub fn count(&mut self, op: Op, outcome: Outcome) {
        self.attempted += 1;
        if op.kind() == Kind::Get {
            self.gets += 1;
        }
        match outcome {
            Outcome::Hit => self.hits += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Stored | Outcome::Miss => {}
        }
    }

    pub fn hit_frac(&self) -> f64 {
        if self.gets == 0 {
            1.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }
}

/// One latency sample: a round (a packet of `DEPTH` requests on one
/// connection, or `MAP_ROUND` map operations), first byte sent to last reply
/// checked.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the round ended, in ms since the stretch began.
    pub end_ms: u32,
    pub lat_ns: u32,
}

impl Sample {
    pub fn new(start: Instant, sent: Instant, done: Instant) -> Sample {
        Sample {
            end_ms: (done - start).as_millis().min(u128::from(u32::MAX)) as u32,
            lat_ns: (done - sent).as_nanos().min(u128::from(u32::MAX)) as u32,
        }
    }
}

/// The timed stretch is cut into windows of this length.
pub const WINDOW_MS: u32 = 500;

/// Throughput, the latency percentiles and CPU per operation are those of
/// the stretch's quiet windows: the window at this percentile of throughput,
/// and at its complement of each of the others. The reference box is a
/// virtual machine on a shared host that, for seconds to minutes at a time
/// and with nothing inside to show for it, runs a fifth to a half slower;
/// that only ever takes speed away, so the fast windows are the program's and
/// the slow ones the neighbours' (README, quiet windows). The figures over
/// the whole stretch are printed beside them.
pub const QUIET: f64 = 0.9;

/// What one timed stretch of load measured.
#[derive(Debug, Default)]
pub struct Load {
    pub tally: Tally,
    pub wall_s: f64,
    /// Whole-process CPU over the stretch.
    pub cpu_s: f64,
    /// When, whole-process CPU seconds and operations so far: read as the
    /// stretch begins and then at the first round to end a window later.
    pub cpu_marks: Vec<(Instant, f64, u64)>,
    /// The generator thread's own CPU over the stretch (see `gen.cpu_frac`).
    pub gen_cpu_s: f64,
    pub samples: Vec<Sample>,
    /// Operations each sample stands for.
    pub ops_per_sample: u64,
    /// `VmHWM` when the stretch ended: set-up and serving, before the crash
    /// check builds its replica.
    pub peak_rss_mib: f64,
}

/// One window of a stretch.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub ops_per_s: f64,
    pub p50_ns: u32,
    pub p99_ns: u32,
    pub samples: usize,
}

impl Load {
    pub fn gen_cpu_frac(&self) -> f64 {
        self.gen_cpu_s / self.wall_s
    }

    /// Called by the generator as the stretch begins and after every round.
    pub fn mark_cpu(&mut self, now: Instant) {
        let window = Duration::from_millis(WINDOW_MS.into());
        if self.cpu_marks.last().is_none_or(|m| now >= m.0 + window) {
            self.cpu_marks
                .push((now, stats::process_cpu_s(), self.tally.attempted));
        }
    }

    /// Whole-process CPU µs per operation between consecutive marks,
    /// ascending. `/proc` counts CPU in 10 ms ticks: ±2 % of a window's.
    pub fn cpu_us_per_op(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .cpu_marks
            .windows(2)
            .map(|m| (m[1].1 - m[0].1) * 1e6 / (m[1].2 - m[0].2).max(1) as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The full windows of the stretch (a trailing partial one is dropped).
    pub fn windows(&self) -> Vec<Window> {
        let full = (self.wall_s * 1e3) as u32 / WINDOW_MS;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); full as usize];
        for s in &self.samples {
            if let Some(b) = buckets.get_mut((s.end_ms / WINDOW_MS) as usize) {
                b.push(s.lat_ns);
            }
        }
        buckets
            .into_iter()
            .map(|mut lat| {
                lat.sort_unstable();
                Window {
                    ops_per_s: (lat.len() as u64 * self.ops_per_sample) as f64 * 1e3
                        / f64::from(WINDOW_MS),
                    p50_ns: stats::percentile(&lat, 0.50),
                    p99_ns: stats::percentile(&lat, 0.99),
                    samples: lat.len(),
                }
            })
            .collect()
    }
}

/// What the crash check found.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// Every timed recovery (recover + index rebuild) from the crash image;
    /// `recovery_s` is their `quiet_recovery_s`.
    pub recoveries_s: Vec<f64>,
    pub survivors: usize,
    pub quarantined: usize,
    /// Violations, in words; empty means the check passed.
    pub violations: Vec<String>,
}

/// One crash image's recovery time from `times`, the timings of repeated
/// recoveries of it: the quiet one, as for the windows of a stretch. Within
/// one process the repetitions range ±10 %, and a slow phase of the box
/// doubles some of them.
pub fn quiet_recovery_s(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    stats::percentile(&v, 1.0 - QUIET)
}

/// Holds a value read back after the crash check's recovery against the
/// script: it must be, byte for byte, the value of `(key, version)` for a
/// version no older than the last one made durable (`lo`) and no newer than
/// the last one sent (`hi`). Returns the complaint, if any.
pub fn version_complaint(
    data: &[u8],
    key: u64,
    value_len: usize,
    lo: u32,
    hi: u32,
) -> Option<String> {
    match stream::value_version(data, key) {
        Some(v) if data.len() == value_len && (lo..=hi).contains(&v) => None,
        Some(v) => Some(format!(
            "holds version {v}, made durable {lo}, last sent {hi}"
        )),
        None => Some("holds bytes never written".to_owned()),
    }
}

/// A generator busier than this share of its wall time is the bottleneck:
/// the run measures the generator, not the program.
pub const GENERATOR_BOUND: f64 = 0.9;

/// Turns an untraced run's measurements into the end-to-end metrics, prints
/// the human-readable account of the run, and judges correctness.
pub fn finish_untraced(
    run: &RunArgs,
    digest: u64,
    setup_s: f64,
    load: Load,
    crash: CrashReport,
) -> RunResult {
    let t = load.tally;
    let windows = load.windows();
    let quiet = |f: fn(&Window) -> f64, rank: f64| {
        let mut v: Vec<f64> = windows.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, rank)
    };
    let ok_ops = t.attempted - t.failed;
    let whole_cpu_us = load.cpu_s * 1e6 / ok_ops.max(1) as f64;
    let cpu_us = load.cpu_us_per_op();
    let values = [
        quiet(|w| w.ops_per_s, QUIET) * ok_ops as f64 / t.attempted.max(1) as f64,
        quiet(|w| f64::from(w.p50_ns), 1.0 - QUIET) / 1e3,
        quiet(|w| f64::from(w.p99_ns), 1.0 - QUIET) / 1e3,
        // A stretch shorter than two windows has no interval to rank.
        if cpu_us.is_empty() {
            whole_cpu_us
        } else {
            stats::percentile(&cpu_us, 1.0 - QUIET)
        },
        t.hit_frac(),
        ok_ops as f64 / t.attempted.max(1) as f64,
        setup_s,
        quiet_recovery_s(&crash.recoveries_s),
        load.peak_rss_mib,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, value)| Metric {
            name: d.name,
            unit: d.unit,
            value,
        })
        .collect();

    let w = run.workload.name;
    println!("workload {w} seed {} stream_digest {digest:016x}", run.seed);
    println!(
        "timed {:.3} s: {} ops attempted, {} failed, {} gets, {} hits",
        load.wall_s, t.attempted, t.failed, t.gets, t.hits,
    );
    let fewest = windows.iter().map(|w| w.samples).min().unwrap_or(0);
    println!(
        "{} windows of {WINDOW_MS} ms, the quiet ones reported (rank {QUIET}); at least {fewest} latency samples per window, {} beyond each p99",
        windows.len(),
        stats::samples_beyond(fewest, 0.99),
    );
    let mut all: Vec<u32> = load.samples.iter().map(|s| s.lat_ns).collect();
    all.sort_unstable();
    println!(
        "whole stretch, disturbed windows and all: {:.0} ops/s, {whole_cpu_us:.4} CPU us/op, lat p50 {:.3} us, p99 {:.3} us over {} samples ({} beyond the p99)",
        ok_ops as f64 / load.wall_s,
        f64::from(stats::percentile(&all, 0.50)) / 1e3,
        f64::from(stats::percentile(&all, 0.99)) / 1e3,
        all.len(),
        stats::samples_beyond(all.len(), 0.99),
    );
    let gen_frac = load.gen_cpu_frac();
    println!(
        "gen.cpu_frac {gen_frac:.3} on one generator thread, {} cores; generator_bound: {}",
        crate::affinity::cpus(),
        gen_frac > GENERATOR_BOUND,
    );
    println!(
        "crash check: {} survivors, {} quarantined, recoveries {:.3?} s, {}",
        crash.survivors,
        crash.quarantined,
        crash.recoveries_s,
        if crash.violations.is_empty() {
            "passed".to_owned()
        } else {
            format!("FAILED: {}", crash.violations.join("; "))
        },
    );
    for m in &metrics {
        println!("{:<14} {:>14.4} {}", m.name, m.value, m.unit);
    }
    RunResult {
        correct: t.failed == 0 && !windows.is_empty() && crash.violations.is_empty(),
        attempted: t.attempted.max(1),
        failed: t.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_split_by_time_and_drop_the_partial_tail() {
        // 1.2 s of samples, one every 10 ms: latencies 1000 ns in the first
        // window, 3000 ns in the second, and a tail that fills no window.
        let samples = (0..120u32)
            .map(|i| Sample {
                end_ms: i * 10,
                lat_ns: if i < 50 { 1000 } else { 3000 },
            })
            .collect();
        let load = Load {
            wall_s: 1.2,
            samples,
            ops_per_sample: 8,
            ..Load::default()
        };
        let w = load.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].samples, w[0].p50_ns, w[0].p99_ns), (50, 1000, 1000));
        assert_eq!((w[1].samples, w[1].p50_ns), (50, 3000));
        assert_eq!(w[0].ops_per_s, 50.0 * 8.0 * 2.0);
    }

    #[test]
    fn cpu_per_op_is_taken_between_marks_a_window_apart() {
        let mut load = Load::default();
        let t0 = Instant::now();
        load.mark_cpu(t0);
        load.tally.attempted = 10;
        load.mark_cpu(t0 + Duration::from_millis(100)); // too soon: no mark
        load.mark_cpu(t0 + Duration::from_millis(600));
        assert_eq!(load.cpu_marks.len(), 2);
        assert_eq!(load.cpu_marks[1].2, 10);
        load.cpu_marks[1].1 = load.cpu_marks[0].1 + 0.5;
        assert_eq!(load.cpu_us_per_op(), [50_000.0]);
    }

    #[test]
    fn the_quiet_recovery_is_the_tenth_percentile() {
        let times: Vec<f64> = (1..=16).rev().map(f64::from).collect();
        assert_eq!(quiet_recovery_s(&times), 2.0);
        assert_eq!(quiet_recovery_s(&[9.0]), 9.0);
    }

    #[test]
    fn recovered_values_are_held_to_the_script() {
        let mut v = Vec::new();
        stream::push_value(&mut v, 9, 4, 32);
        assert_eq!(version_complaint(&v, 9, 32, 3, 5), None);
        assert!(version_complaint(&v, 9, 32, 5, 6)
            .unwrap()
            .contains("version 4"));
        assert!(version_complaint(&v, 9, 64, 3, 5).is_some(), "wrong length");
        assert_eq!(
            version_complaint(&v, 8, 32, 3, 5).unwrap(),
            "holds bytes never written"
        );
    }
}
