//! The repo's benchmark: four named workloads from kernel to socket, four
//! end-to-end metrics on each, and a traced pass with the per-layer
//! metrics. See README.md beside the manifest.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one pass, result object on the last line
//! benchmark [--workload W] [--seed N] [--seconds S] [--runs K] [--smoke] [--out DIR]
//!                                                           the ledger: both passes, results.json
//! benchmark compare A.json B.json                           two ledgers against the bounds
//! ```

mod catalog;
mod compare;
mod grid;
mod json;
mod ledger;
mod pass;
mod probes;
mod provenance;
mod run;
#[cfg(test)]
mod smoke_tests;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--runs K] [--smoke] [--out DIR]\n       benchmark compare A.json B.json";

/// Seconds of one timed section unless `--seconds` says otherwise;
/// `BENCHMARK.json` freezes the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

pub struct Args {
    /// One workload; the ledger runs all four without it.
    pub workload: Option<String>,
    pub seed: u64,
    /// Budget of the timed section.
    pub seconds: f64,
    /// Present for one pass, absent for the ledger.
    pub trace: Option<bool>,
    /// Untraced passes per workload in the ledger; their values are kept
    /// side by side so that `compare` can tell a change from the spread.
    pub runs: usize,
    pub smoke: bool,
    pub out: PathBuf,
    /// Where the ledger wants a child pass written in full (summaries,
    /// checks, inputs).
    pub detail: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        runs: 1,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--runs" => {
                parsed.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&parsed.runs) {
                    return Err("--runs must be between 1 and 100".to_string());
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            "--detail" => parsed.detail = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Re-entry points first: a fleet shard child, then the compare tool.
    if args.first().map(String::as_str) == Some(workloads::fleet::CHILD_MODE) {
        std::process::exit(::fleet::child_main(&args[1..]));
    }
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&args).and_then(|args| match (args.trace, &args.workload) {
            // The verdict of a pass is the `correct` field of its result
            // line; the exit code says only that it ran.
            (Some(trace), Some(workload)) => pass::run(&args, workload, trace).map(|_| true),
            (Some(_), None) => Err("--trace needs --workload".to_string()),
            (None, _) => ledger::run(&args),
        })
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            std::process::exit(2);
        }
    }
}
