//! The modes that run other runs: `--all`, `--aa N` and `--check` start one
//! child process per run (a workload never shares a process with another),
//! and `--manifest` prints the `BENCHMARK.json` this source describes.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::json::{self, Json};
use crate::spec::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

pub enum Mode {
    All,
    Aa(usize),
    Check,
    Manifest,
}

/// Seconds `BENCHMARK.json` tells the driver to measure for.
pub const RUN_SECONDS: u32 = 15;

pub fn run(mode: Mode, seed: u64, seconds: f64) -> ExitCode {
    let outcome = match mode {
        Mode::All => all(seed, seconds),
        Mode::Aa(n) => aa(n, seed, seconds),
        Mode::Check => check(),
        Mode::Manifest => {
            print!("{}", manifest());
            Ok(())
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One child run: its whole standard output and its parsed result line.
struct Child {
    stdout: String,
    result: Json,
}

impl Child {
    fn run(
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        quick: bool,
    ) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
        if quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("starting a child run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let what = format!("{workload}{}", if trace { " (traced)" } else { "" });
        if !out.status.success() {
            return Err(format!(
                "{what} failed ({}):\n{stdout}{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let last = stdout.lines().last().unwrap_or("");
        let result =
            json::parse(last).map_err(|e| format!("{what} printed no result line: {e}"))?;
        Ok(Child { stdout, result })
    }

    fn metrics(&self) -> BTreeMap<String, f64> {
        match self.result.get("metrics") {
            Some(Json::Obj(m)) => m
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            _ => BTreeMap::new(),
        }
    }

    /// Everything the child printed except the result line.
    fn account(&self) -> &str {
        self.stdout
            .trim_end()
            .rsplit_once('\n')
            .map_or("", |(head, _)| head)
    }
}

/// `--all`: every workload's untraced run, one after another.
fn all(seed: u64, seconds: f64) -> Result<(), String> {
    for w in WORKLOADS {
        let child = Child::run(w.name, seed, seconds, false, false)?;
        println!("{}\n", child.account());
    }
    Ok(())
}

/// `--aa N`: N untraced runs of every workload on this one build; prints
/// min / median / max and the spread the acceptance driver computes
/// (interquartile distance ÷ median) per end-to-end metric, and fails when a
/// spread exceeds the metric's bound. `setup_s` is reported but not judged:
/// its phase is sub-second.
fn aa(n: usize, seed: u64, seconds: f64) -> Result<(), String> {
    let mut over = Vec::new();
    for w in WORKLOADS {
        let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for _ in 0..n {
            for (name, value) in Child::run(w.name, seed, seconds, false, false)?.metrics() {
                runs.entry(name).or_default().push(value);
            }
        }
        println!("{} — {n} runs, seed {seed}, {seconds} s", w.name);
        println!(
            "{:<14} {:>6} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "unit", "min", "median", "max", "spread", "bound"
        );
        for d in END_TO_END {
            let v = runs
                .get(d.name)
                .ok_or_else(|| format!("{} did not report {}", w.name, d.name))?;
            let spread = stats::iqr_spread(v);
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            println!(
                "{:<14} {:>6} {min:>14.4} {:>14.4} {max:>14.4} {:>7.2}% {:>5.1}%",
                d.name,
                d.unit,
                stats::median(v),
                spread * 100.0,
                d.bound * 100.0,
            );
            if spread > d.bound && d.name != "setup_s" {
                over.push(format!(
                    "{} {} spread {:.2}% > {:.1}%",
                    w.name,
                    d.name,
                    spread * 100.0,
                    d.bound * 100.0
                ));
            }
        }
        println!();
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("spread beyond bound: {}", over.join("; ")))
    }
}

/// `--check`: the smoke test. Every workload, untraced and traced, at the
/// small scale with 2-second timed phases; asserts that every name in
/// `BENCHMARK.json` is emitted and nothing else, that nothing failed, that
/// the crash checks pass and that the `pmem.calib.*` ratios are in range
/// (a child that finds otherwise exits non-zero).
fn check() -> Result<(), String> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the working directory: {e}"))?;
    if text != manifest() {
        return Err("BENCHMARK.json differs from `mbench --manifest`: regenerate it".into());
    }
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |section: &str| -> Vec<String> {
        doc.get(section)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(|m| Some(m.get("name")?.as_str()?.to_owned()))
            .collect()
    };
    for w in names("workloads") {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            // The traced run's stretch of load only feeds counters; half a
            // second of it keeps the whole check near 20 s.
            let child = Child::run(&w, 1, if trace { 0.5 } else { 2.0 }, trace, true)?;
            let mut got: Vec<String> = child.metrics().into_keys().collect();
            let mut want = names(section);
            got.sort();
            want.sort();
            if got != want {
                let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
                let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
                return Err(format!(
                    "{w} {section}: missing {missing:?}, unexpected {extra:?}"
                ));
            }
            if child.result.get("failed").and_then(Json::as_f64) != Some(0.0)
                || child.result.get("correct") != Some(&Json::Bool(true))
            {
                return Err(format!(
                    "{w} {section}: the run reported failures:\n{}",
                    child.stdout
                ));
            }
            println!("ok {w} {section}: {} metrics", got.len());
        }
    }
    println!("check passed in {:.1} s", t0.elapsed().as_secs_f64());
    Ok(())
}

/// The `BENCHMARK.json` this source describes, byte for byte.
pub fn manifest() -> String {
    let metric = |d: &MetricDef, bound: bool| {
        let better = if d.better == Better::Higher {
            "higher"
        } else {
            "lower"
        };
        let bound = if bound {
            format!(", \"bound\": {}", d.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            d.name, d.unit
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(|d| metric(d, true)).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|d| metric(d, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"mbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"mbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_valid_and_within_the_contract() {
        let doc = json::parse(&manifest()).unwrap();
        assert_eq!(
            doc.get("workloads").unwrap().as_arr().len(),
            WORKLOADS.len()
        );
        assert_eq!(
            doc.get("end_to_end").unwrap().as_arr().len(),
            END_TO_END.len()
        );
        assert_eq!(
            doc.get("per_layer").unwrap().as_arr().len(),
            PER_LAYER.len()
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
            assert!(d.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        for w in WORKLOADS {
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
