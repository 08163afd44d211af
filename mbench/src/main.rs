//! `mbench` — the repository's one repeatable benchmark. See `README.md` in
//! this directory for the metric glossary, the workloads and how to read
//! the trace.
//!
//! ```text
//! mbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! mbench --all [--seed n] [--seconds s]      every workload, each in a child
//! mbench --aa N [--seed n] [--seconds s]     N runs of each, spread per metric
//! mbench --check                             smoke test of all of it, small and short
//! mbench --manifest                          print the BENCHMARK.json this source describes
//! ```

mod affinity;
mod heap;
mod json;
mod libmap;
mod measure;
mod modes;
mod reply;
mod spec;
mod stats;
mod stream;
mod trace;
mod wire;

use std::process::ExitCode;

use json::Metric;
use spec::{Scale, Shape, Workload};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// What one run — untraced or traced — reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       mbench --all | --aa <N> | --check | --manifest  [--seed <n>] [--seconds <s>]",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// What the command line asked for; `None` on anything it cannot mean.
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    mode: Option<modes::Mode>,
}

fn parse_cli(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: f64::from(modes::RUN_SECONDS),
        trace: false,
        quick: false,
        mode: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match flag.as_str() {
            "--workload" => cli.workload = Some(spec::find(value()?)?),
            "--seed" => cli.seed = value()?.parse().ok()?,
            "--seconds" => {
                cli.seconds = value()?.parse().ok().filter(|s| *s > 0.0 && *s <= 3600.0)?;
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--quick" => cli.quick = true,
            "--all" => cli.mode = Some(modes::Mode::All),
            "--check" => cli.mode = Some(modes::Mode::Check),
            "--manifest" => cli.mode = Some(modes::Mode::Manifest),
            "--aa" => {
                cli.mode = Some(modes::Mode::Aa(value()?.parse().ok().filter(|n| *n >= 2)?));
            }
            _ => return None,
        }
    }
    Some(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(Cli {
        workload,
        seed,
        seconds,
        trace,
        quick,
        mode,
    }) = parse_cli(&args)
    else {
        return usage();
    };
    if let Some(mode) = mode {
        return modes::run(mode, seed, seconds);
    }
    let Some(workload) = workload else {
        return usage();
    };
    if let Err(e) = reply::self_test() {
        eprintln!("mbench: {e}");
        return ExitCode::FAILURE;
    }
    affinity::start_cold();
    let run = RunArgs {
        workload,
        seed,
        seconds,
        scale: if quick { Scale::SMOKE } else { Scale::FULL },
    };
    let result = match (trace, workload.shape) {
        (false, Shape::Wire(s)) => wire::untraced(&run, &s.at(&run.scale)),
        (false, Shape::Map(s)) => libmap::untraced(&run, &s.at(&run.scale)),
        (true, _) => trace::run(&run),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        json::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
