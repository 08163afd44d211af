//! CSV-style reporting in the shape of the paper's figures.

/// Prints a figure header (once per bench target).
pub fn header(figure: &str, title: &str, columns: &[&str]) {
    println!("# {figure}: {title}");
    println!("{}", columns.join(","));
}

/// Prints one data row.
pub fn row(fields: &[String]) {
    println!("{}", fields.join(","));
}

/// Raw ops/s for machine consumption.
pub fn raw(v: f64) -> String {
    format!("{v:.0}")
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending latency sample;
/// 0 for an empty one.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Persistence cost of a measured interval, normalised per operation —
/// the quantity Montage's write-back buffering is designed to shrink.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PersistCost {
    pub flushes_per_op: f64,
    pub fences_per_op: f64,
}

impl PersistCost {
    /// From two [`pmem::StatsSnapshot`]s bracketing `ops` operations.
    pub fn from_snapshots(
        before: pmem::StatsSnapshot,
        after: pmem::StatsSnapshot,
        ops: u64,
    ) -> PersistCost {
        let ops = ops.max(1) as f64;
        PersistCost {
            flushes_per_op: after.clwbs.saturating_sub(before.clwbs) as f64 / ops,
            fences_per_op: after.sfences.saturating_sub(before.sfences) as f64 / ops,
        }
    }

    /// Two CSV fields: flushes/op, fences/op.
    pub fn fields(&self) -> [String; 2] {
        [
            format!("{:.3}", self.flushes_per_op),
            format!("{:.3}", self.fences_per_op),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(clwbs: u64, sfences: u64, lines_drained: u64) -> pmem::StatsSnapshot {
        pmem::StatsSnapshot {
            clwbs,
            sfences,
            lines_drained,
            ..Default::default()
        }
    }

    #[test]
    fn persist_cost_normalises_per_op() {
        let c = PersistCost::from_snapshots(snap(100, 10, 100), snap(1100, 30, 1100), 500);
        assert_eq!(c.flushes_per_op, 2.0);
        assert_eq!(c.fences_per_op, 0.04);
        assert_eq!(c.fields(), ["2.000".to_string(), "0.040".to_string()]);
    }

    #[test]
    fn persist_cost_survives_zero_ops() {
        let c = PersistCost::from_snapshots(snap(0, 0, 0), snap(5, 1, 5), 0);
        assert_eq!(c.flushes_per_op, 5.0);
    }
}
