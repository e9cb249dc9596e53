//! The repository benchmark: one workload per process, every metric
//! printed by name with its unit, outputs checked.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> --bins-dir <dir>
//! ```
//!
//! `benchmark/run.sh` builds this binary and the paper's artifact bins
//! and supplies `--bins-dir`. See `benchmark/README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod host;
mod layers;
mod paper;
mod report;
mod serve;
mod stats;
mod sys;
mod yield_mc;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, RunMeta};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["serve_fast", "serve_escalate", "yield_mc", "paper_repro"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bins_dir: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut bins_dir = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: u64 = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--bins-dir" => bins_dir = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        bins_dir,
    })
}

fn run_workload(a: &Args) -> Result<Outcome, String> {
    if a.workload != "yield_mc" {
        // Single-threaded workloads run with their host-speed probes and
        // child processes on one CPU; `yield_mc` keeps two busy and
        // probes both.
        sys::pin_to_current_cpu()?;
    }
    let secs = a.seconds as f64;
    let bins = || a.bins_dir.as_deref().ok_or("paper_repro needs --bins-dir");
    match (a.workload.as_str(), a.trace) {
        ("serve_fast", false) => serve::run(serve::Kind::Fast, a.seed, secs),
        ("serve_fast", true) => serve::trace(serve::Kind::Fast, a.seed),
        ("serve_escalate", false) => serve::run(serve::Kind::Escalate, a.seed, secs),
        ("serve_escalate", true) => serve::trace(serve::Kind::Escalate, a.seed),
        ("yield_mc", false) => yield_mc::run(a.seed, secs),
        ("yield_mc", true) => yield_mc::trace(a.seed),
        // The artifact bins take no seed: their inputs are the paper's.
        ("paper_repro", false) => paper::run(bins()?, secs),
        ("paper_repro", true) => paper::trace(bins()?),
        (w, _) => Err(format!("unknown workload {w}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = match run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let meta = RunMeta {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        available_parallelism: threads,
    };
    match report::render(&meta, &outcome) {
        Ok((full, line)) => {
            print!("{full}");
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                for (what, ok) in &outcome.checks {
                    if !ok {
                        eprintln!("benchmark: check failed: {what}");
                    }
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload yield_mc --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, "yield_mc");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload yield_mc").is_err());
        assert!(args("--workload yield_mc --seed 1 --trace 2").is_err());
        assert!(args("--workload yield_mc --seed 1 --seconds 0").is_err());
        assert!(args("--workload yield_mc --seed 1 --bogus").is_err());
    }
}
