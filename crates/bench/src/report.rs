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

/// One cell of a machine-readable report row.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonField {
    Num(f64),
    Str(String),
}

impl From<f64> for JsonField {
    fn from(v: f64) -> Self {
        JsonField::Num(v)
    }
}

impl From<u64> for JsonField {
    fn from(v: u64) -> Self {
        JsonField::Num(v as f64)
    }
}

impl From<&str> for JsonField {
    fn from(v: &str) -> Self {
        JsonField::Str(v.to_string())
    }
}

/// Machine-readable companion to the CSV rows: collects a figure's rows and
/// named scalar metrics, and writes them as `BENCH_<figure>.json` for the
/// `cargo run -p xtask -- bench-diff` regression gate. Hand-rolled writer —
/// the workspace carries no serde.
pub struct JsonReport {
    figure: String,
    fields: Vec<(String, JsonField)>,
    headline: Option<String>,
    rows: Vec<Vec<(String, JsonField)>>,
    metrics: Vec<(String, f64)>,
}

impl JsonReport {
    pub fn new(figure: &str) -> JsonReport {
        JsonReport {
            figure: figure.to_string(),
            fields: Vec::new(),
            headline: None,
            rows: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds a top-level annotation (e.g. `server: "event"`).
    pub fn field(&mut self, key: &str, value: impl Into<JsonField>) {
        self.fields.push((key.to_string(), value.into()));
    }

    /// Names the metric `bench-diff` gates on. Must also be in `metrics`.
    pub fn headline(&mut self, metric: &str) {
        self.headline = Some(metric.to_string());
    }

    pub fn row(&mut self, cells: Vec<(String, JsonField)>) {
        self.rows.push(cells);
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Canonical metric-name slug: lowercase alphanumerics joined by `_`
    /// (so "YCSB-A"/"Montage sync=1" become stable JSON keys).
    pub fn slug(parts: &[&str]) -> String {
        let mut out = String::new();
        for part in parts {
            for ch in part.chars() {
                if ch.is_ascii_alphanumeric() {
                    out.push(ch.to_ascii_lowercase());
                } else if !out.ends_with('_') && !out.is_empty() {
                    out.push('_');
                }
            }
            if !out.ends_with('_') {
                out.push('_');
            }
        }
        out.trim_matches('_').to_string()
    }

    fn render(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"figure\": {},\n", json_str(&self.figure)));
        for (k, v) in &self.fields {
            s.push_str(&format!("  {}: {},\n", json_str(k), json_field(v)));
        }
        if let Some(h) = &self.headline {
            s.push_str(&format!("  \"headline\": {},\n", json_str(h)));
        }
        s.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_field(v)))
                .collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            s.push_str(&format!("    {{{}}}{}\n", cells.join(", "), comma));
        }
        s.push_str("  ],\n");
        s.push_str("  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            s.push_str(&format!("    {}: {}{}\n", json_str(k), json_num(*v), comma));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Writes the report to `$BENCH_JSON_PATH` if set, else
    /// `BENCH_<figure>.json` in the current directory. Returns the path.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let path = match std::env::var_os("BENCH_JSON_PATH") {
            Some(p) => std::path::PathBuf::from(p),
            None => std::path::PathBuf::from(format!("BENCH_{}.json", self.figure)),
        };
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

fn json_field(f: &JsonField) -> String {
    match f {
        JsonField::Num(v) => json_num(*v),
        JsonField::Str(s) => json_str(s),
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

    #[test]
    fn slug_is_stable_for_figure_labels() {
        assert_eq!(
            JsonReport::slug(&["YCSB-A", "Montage sync=1", "t4", "ops_per_sec"]),
            "ycsb_a_montage_sync_1_t4_ops_per_sec"
        );
        assert_eq!(JsonReport::slug(&["DRAM (T)"]), "dram_t");
    }

    #[test]
    fn json_report_renders_rows_and_metrics() {
        let mut r = JsonReport::new("figtest");
        r.field("server", "event");
        r.headline("a_ops");
        r.row(vec![
            ("workload".to_string(), "YCSB-A".into()),
            ("ops_per_sec".to_string(), JsonField::Num(1234.5)),
            ("threads".to_string(), 4u64.into()),
        ]);
        r.metric("a_ops", 1234.5);
        r.metric("a_p99", 17.0);
        let s = r.render();
        assert!(s.contains("\"figure\": \"figtest\""));
        assert!(s.contains("\"server\": \"event\""));
        assert!(s.contains("\"headline\": \"a_ops\""));
        assert!(s.contains("\"ops_per_sec\": 1234.500"));
        assert!(s.contains("\"threads\": 4"));
        assert!(s.contains("\"a_p99\": 17"));
        // Trailing commas would choke any strict parser.
        assert!(!s.contains(",\n  ]"));
        assert!(!s.contains(",\n  }"));
    }

    #[test]
    fn json_num_guards_non_finite() {
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(2.5), "2.500");
        assert_eq!(json_num(3.0), "3");
    }
}
