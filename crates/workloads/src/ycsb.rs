//! YCSB core workloads (Cooper et al.) over a Zipfian-popular record set:
//! **A** (50% reads / 50% updates) is the workload of the paper's memcached
//! experiment (Fig. 10: "1 M records, 2.5 M read and 2.5 M update
//! operations, evenly distributed across threads"); **B** (95% reads / 5%
//! updates) is the read-mostly companion the wire benchmarks also report.

use crate::zipfian::{KeyDist, KeySampler};
use rand::Rng;

/// One YCSB operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YcsbOp {
    Read(u64),
    Update(u64),
}

/// Per-thread YCSB read/update stream with a configurable read fraction.
pub struct YcsbWorkload {
    sampler: KeySampler,
    remaining: u64,
    read_permille: u32,
}

impl YcsbWorkload {
    pub const RECORDS: u64 = 1_000_000;
    pub const OPS: u64 = 5_000_000;

    /// `ops` operations for one thread over `records` keys, reading with
    /// probability `read_permille`/1000.
    pub fn with_mix(records: u64, ops: u64, seed: u64, read_permille: u32) -> Self {
        assert!(read_permille <= 1000);
        YcsbWorkload {
            sampler: KeySampler::new(KeyDist::Zipfian, records, seed),
            remaining: ops,
            read_permille,
        }
    }

    /// YCSB-A: 50% reads / 50% updates (the Fig. 10 workload).
    pub fn a(records: u64, ops: u64, seed: u64) -> Self {
        Self::with_mix(records, ops, seed, 500)
    }
}

impl Iterator for YcsbWorkload {
    type Item = YcsbOp;

    fn next(&mut self) -> Option<YcsbOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let read = self.sampler.rng().gen_range(0..1000u32) < self.read_permille;
        let key = self.sampler.next_key();
        Some(if read {
            YcsbOp::Read(key)
        } else {
            YcsbOp::Update(key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_roughly_half_reads() {
        let w = YcsbWorkload::a(1000, 100_000, 1);
        let reads = w.filter(|op| matches!(op, YcsbOp::Read(_))).count();
        assert!((40_000..60_000).contains(&reads), "reads = {reads}");
    }

    #[test]
    fn produces_exactly_n_ops() {
        assert_eq!(YcsbWorkload::a(10, 1234, 1).count(), 1234);
    }

    #[test]
    fn keys_in_record_range() {
        for op in YcsbWorkload::a(50, 10_000, 2) {
            let k = match op {
                YcsbOp::Read(k) | YcsbOp::Update(k) => k,
            };
            assert!((1..=50).contains(&k));
        }
    }

    #[test]
    fn ycsb_b_is_read_mostly() {
        let reads = YcsbWorkload::with_mix(1000, 100_000, 3, 950)
            .filter(|op| matches!(op, YcsbOp::Read(_)))
            .count();
        assert!((93_000..97_000).contains(&reads), "reads = {reads}");
    }
}
