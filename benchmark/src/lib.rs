//! `peering-benchmark`: the repo's benchmark.
//!
//! Seven workloads drive only public functions of the repo's crates;
//! each run prints every metric by name with its unit and ends with one
//! JSON line (`correct`, `attempted`, `failed`, `metrics`). The package
//! is a workspace of its own, so nothing outside `BENCHMARK.json` and
//! `benchmark/` changes. `README.md` has the catalogue of workloads and
//! metrics and says which layer metric should move which end-to-end
//! metric; `run.sh` is the entry point.

// The repo's clippy.toml bans wall-clock types from simulation code.
// Measuring host time is this package's whole job.
#![allow(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

use runner::RunArgs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::AllocProbe;

/// How long one run measures, in seconds: `run_seconds` of
/// `BENCHMARK.json` and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

const USAGE: &str = "usage:
  bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--results DIR]
  bench list                 workload names, one per line
  bench catalogue            BENCHMARK.json, generated from the metric catalogue
  bench compare A B OUT      compare two result sets (run.sh --selfcheck)
  bench prewarm MB           touch and free MB megabytes (a run starts one itself)";

/// Parse the flags of a measuring run.
fn parse_run(args: &[String]) -> Result<(RunArgs, bool), String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS as f64,
        results: PathBuf::from("benchmark/results"),
    };
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(bad("within (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--results" => run.results = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok((run, trace))
}

fn dispatch(args: &[String], alloc: Option<AllocProbe>) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for w in metrics::WORKLOADS {
                println!("{}", w.name);
            }
            Ok(true)
        }
        Some("catalogue") => {
            print!("{}", report::benchmark_json(RUN_SECONDS));
            Ok(true)
        }
        Some("prewarm") => {
            let mb = args.get(1).and_then(|mb| mb.parse().ok());
            runner::prewarm(mb.ok_or("prewarm takes a size in MB")?);
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b, out] = args else {
                return Err("compare takes two result directories and an output directory".into());
            };
            let (table, ok) = compare::compare_sets(Path::new(a), Path::new(b), Path::new(out))?;
            print!("{table}");
            println!(
                "selfcheck: {}",
                if ok { "sets agree" } else { "SETS DISAGREE" }
            );
            Ok(ok)
        }
        _ => {
            let (run, trace) = parse_run(args)?;
            if trace != alloc.is_some() {
                return Err(format!(
                    "--trace {} is the job of the {} binary; run.sh picks it",
                    u8::from(trace),
                    if trace { "bench_traced" } else { "bench" }
                ));
            }
            let report = runner::run(&run, alloc)?;
            print!("{}", report.human());
            println!("{}", report.result_line());
            Ok(true)
        }
    }
}

/// The body of both binaries. `alloc` is the counting allocator's
/// probe; only `bench_traced` has one.
pub fn main_with(alloc: Option<AllocProbe>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, alloc) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (run, trace) = parse_run(&args(
            "--workload router_feed --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds),
            ("router_feed", 7, 3.0)
        );
        assert!(trace);
        assert!(parse_run(&args("--seed 7")).is_err());
        assert!(parse_run(&args("--workload x --trace 2")).is_err());
        assert!(parse_run(&args("--workload x --seconds 0")).is_err());
        assert!(parse_run(&args("--workload x --seed")).is_err());
    }
}
