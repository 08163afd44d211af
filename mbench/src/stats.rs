//! Percentiles, run-to-run spread, and the `/proc` readers behind the CPU and
//! memory metrics.

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 1]`.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `p`th percentile's rank — a percentile is
/// only reported when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(n.min(1), n)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points Python's `statistics.quantiles(values, n=4)` returns
/// (its default "exclusive" method), so the spread computed here is the one
/// the acceptance driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

const TICKS_PER_S: f64 = 100.0; // USER_HZ, fixed by the Linux ABI

/// utime + stime, in seconds, from a `/proc/.../stat` file. The comm field
/// may hold spaces and parentheses, so fields count from the last `)`.
fn cpu_seconds_of(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut f = rest.split_whitespace();
    // After the comm: state is field 3, utime 14, stime 15.
    let utime: f64 = f.nth(11).and_then(|t| t.parse().ok()).unwrap_or(0.0);
    let stime: f64 = f.next().and_then(|t| t.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S
}

/// Whole-process CPU seconds so far.
pub fn process_cpu_s() -> f64 {
    cpu_seconds_of("/proc/self/stat")
}

/// CPU seconds of the calling thread (`/proc/thread-self` is this thread's
/// entry under `/proc/self/task`). Generator threads, named `gen-*`, read it
/// at the edges of their timed window.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds_of("/proc/thread-self/stat")
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile::<u32>(&[], 0.5), 0);
        assert_eq!(percentile(&[1.5, 2.5, 3.5], 0.9), 3.5);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(2000, 0.99), 20);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_s() > 0.0);
    }
}
