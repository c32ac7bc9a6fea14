//! `benchmark compare A.json B.json`: two ledgers, metric by metric,
//! against the bounds. B is the candidate, A its base.

use crate::catalog;
use crate::json::{self, Value};
use crate::stats;
use std::path::Path;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound, and B's runs do
    /// not all read better than A's: no verdict either way.
    Unresolved,
}

/// `a` and `b` are the values of each side's runs (at least one each).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let spread = stats::spread(a).max(stats::spread(b));
    let b_wins_every_pair = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread > bound && !b_wins_every_pair {
        return Verdict::Unresolved;
    }
    let worse = if lower_is_better {
        mb > ma * (1.0 + bound)
    } else {
        mb < ma * (1.0 - bound)
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The values of a metric's runs, or its single value.
fn runs(metric: &Value) -> Vec<f64> {
    let listed: Vec<f64> = metric
        .get("runs")
        .and_then(Value::as_arr)
        .map_or(Vec::new(), |r| r.iter().filter_map(Value::as_f64).collect());
    if listed.is_empty() {
        metric
            .get("value")
            .and_then(Value::as_f64)
            .into_iter()
            .collect()
    } else {
        listed
    }
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let smoke = |v: &Value| v.get("smoke").and_then(Value::as_bool).unwrap_or(false);
    if smoke(&a) || smoke(&b) {
        return Err("smoke numbers are never compared".to_string());
    }
    let workloads = |v: &Value| {
        v.get("workloads")
            .map_or(Vec::new(), |w| w.fields().to_vec())
    };
    let mut clean = true;
    println!("metric workload A B B/A bound verdict");
    for (name, wa) in workloads(&a) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(&name)) else {
            continue;
        };
        for def in catalog::END_TO_END {
            let side = |w: &Value| w.get("end_to_end").and_then(|m| m.get(def.name)).map(runs);
            let (Some(ra), Some(rb)) = (side(&wa), side(wb)) else {
                continue;
            };
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            let v = verdict(&ra, &rb, def.better == "lower", def.bound);
            clean &= v != Verdict::Worse;
            let (ma, mb) = (stats::median(&ra), stats::median(&rb));
            println!(
                "{} {name} {ma} {mb} {:.4} (B/A, n {}/{}) {} {}",
                def.name,
                mb / ma,
                ra.len(),
                rb.len(),
                def.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Layers have no bound: shown so that a change can be located.
        for def in catalog::PER_LAYER {
            let side = |w: &Value| w.get("per_layer")?.get(def.name)?.get("value")?.as_f64();
            if let (Some(x), Some(y)) = (side(&wa), side(wb)) {
                if x != 0.0 || y != 0.0 {
                    println!("{} {name} {x} {y} {:.4} (B/A) - layer", def.name, y / x);
                }
            }
        }
        let ratio = |w: &Value| w.get("fail_ratio").and_then(Value::as_f64).unwrap_or(0.0);
        let (fa, fb) = (ratio(&wa), ratio(wb));
        let more_failures = fb > fa;
        clean &= !more_failures;
        println!(
            "fail_ratio {name} {fa} {fb} - 0 {}",
            if more_failures { "worse" } else { "ok" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within the bound either way.
        assert_eq!(
            verdict(&steady, &[1.05, 1.06, 1.04, 1.05, 1.05], true, 0.10),
            Verdict::Ok
        );
        // Lower is better and B is 20 % slower: worse.
        assert_eq!(
            verdict(&steady, &[1.20, 1.21, 1.19, 1.20, 1.22], true, 0.10),
            Verdict::Worse
        );
        // Higher is better: the same numbers are an improvement.
        assert_eq!(
            verdict(&steady, &[1.20, 1.21, 1.19, 1.20, 1.22], false, 0.10),
            Verdict::Ok
        );
        assert_eq!(verdict(&[1.2; 3], &[1.0; 3], false, 0.10), Verdict::Worse);
        // B spreads wider than the bound and overlaps A: unresolved.
        let noisy = [0.8, 1.4, 1.0, 1.3, 0.9];
        assert_eq!(verdict(&steady, &noisy, true, 0.10), Verdict::Unresolved);
        // Wide spread, but every run of B beats every run of A.
        assert_eq!(
            verdict(&steady, &[0.5, 0.7, 0.4, 0.8, 0.6], true, 0.10),
            Verdict::Ok
        );
        // Single runs have no spread: the medians decide.
        assert_eq!(verdict(&[1.0], &[1.3], true, 0.25), Verdict::Worse);
    }
}
