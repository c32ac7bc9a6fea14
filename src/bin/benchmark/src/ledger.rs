//! The ledger: every workload twice in fresh child processes of this
//! binary — untraced for the end-to-end metrics, traced for the per-layer
//! ones — gathered into `results.json`.

use crate::json::{self, Value};
use crate::pass;
use crate::provenance;
use crate::stats;
use crate::workloads;
use crate::Args;
use std::path::Path;
use std::process::Command;

/// Runs one pass in a child process and returns the detail it wrote.
fn child_pass(args: &Args, workload: &str, trace: bool, run: usize) -> Result<Value, String> {
    let detail = args
        .out
        .join(format!("pass-{workload}-t{}-r{run}.json", u8::from(trace)));
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .arg("--detail")
        .arg(&detail);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("spawn {workload} pass: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} pass (trace {trace}) exited with {status}"
        ));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let _ = std::fs::remove_file(&detail);
    json::parse(&text)
}

fn metric_value(pass: &Value, name: &str) -> Option<f64> {
    pass.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(pass: &Value, key: &str) -> f64 {
    pass.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// One workload's entry of `results.json` from its untraced runs and its
/// traced pass; the second value is the number of failed operations and
/// checks, the ledger's own among them.
fn assemble(workload: &str, untraced: &[Value], traced: &Value, cores: usize) -> (Value, f64) {
    let first = &untraced[0];
    let mut checks: Vec<Value> = first
        .get("checks")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .to_vec();
    let mut attempted = count(first, "attempted");
    let mut failed: f64 = untraced
        .iter()
        .chain([traced])
        .map(|p| count(p, "failed"))
        .sum();

    let mut ledger_check = |name: &str, ok: bool, detail: String| {
        attempted += 1.0;
        if !ok {
            failed += 1.0;
            println!("check {workload} {name} FAILED: {detail}");
        }
        checks.push(Value::obj(vec![
            ("name", Value::str(name)),
            ("ok", Value::Bool(ok)),
            (
                "detail",
                Value::Str(if ok { String::new() } else { detail }),
            ),
        ]));
    };
    let fnv = |p: &Value| {
        p.get("obs_fnv")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    ledger_check(
        "traced_observables_equal_untraced",
        untraced.iter().all(|p| fnv(p) == fnv(traced)),
        format!("untraced {} traced {}", fnv(first), fnv(traced)),
    );

    let mut end_to_end = Vec::new();
    for def in crate::catalog::END_TO_END {
        let runs: Vec<f64> = untraced
            .iter()
            .filter_map(|p| metric_value(p, def.name))
            .collect();
        let mut fields = first
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .map_or(Vec::new(), |m| m.fields().to_vec());
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == "value") {
            slot.1 = Value::Num(stats::median(&runs));
        }
        fields.push((
            "runs".to_string(),
            Value::Arr(runs.iter().map(|&x| Value::Num(x)).collect()),
        ));
        fields.push(("better".to_string(), Value::str(def.better)));
        fields.push(("bound".to_string(), Value::Num(def.bound)));
        end_to_end.push((def.name.to_string(), Value::Obj(fields)));
    }

    let mut per_layer: Vec<(String, Value)> = crate::catalog::PER_LAYER
        .iter()
        .filter_map(|def| {
            let m = traced.get("metrics")?.get(def.name)?;
            Some((def.name.to_string(), m.clone()))
        })
        .collect();
    // Tracing overhead: the same unit, traced against untraced. Like every
    // ratio of timings it needs a core per thread to mean anything.
    let untraced_unit: Vec<f64> = untraced
        .iter()
        .filter_map(|p| metric_value(p, "unit_s"))
        .collect();
    let overhead = match metric_value(traced, "unit_s") {
        Some(t) if cores >= 2 && !untraced_unit.is_empty() => Value::obj(vec![
            ("value", Value::Num(t / stats::median(&untraced_unit))),
            ("unit", Value::str("ratio")),
            ("base", Value::str("untraced unit_s")),
        ]),
        _ => Value::obj(vec![("value", Value::Null), ("unit", Value::str("ratio"))]),
    };
    println!(
        "bench.trace_overhead {workload} {} ratio (traced unit_s / untraced unit_s)",
        overhead
            .get("value")
            .and_then(Value::as_f64)
            .map_or("null".to_string(), |x| x.to_string())
    );
    per_layer.push(("bench.trace_overhead".to_string(), overhead));

    let entry = Value::obj(vec![
        (
            "inputs",
            first.get("inputs").cloned().unwrap_or(Value::Null),
        ),
        ("correct", Value::Bool(failed == 0.0)),
        ("attempted", Value::Num(attempted)),
        ("failed", Value::Num(failed)),
        ("fail_ratio", Value::Num(failed / attempted.max(1.0))),
        ("obs_fnv", Value::Str(fnv(first))),
        ("end_to_end", Value::Obj(end_to_end)),
        ("per_layer", Value::Obj(per_layer)),
        ("checks", Value::Arr(checks)),
    ]);
    (entry, failed)
}

pub fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) if workloads::NAMES.contains(&w.as_str()) => vec![w.as_str()],
        Some(w) => {
            return Err(format!(
                "unknown workload '{w}'; one of {:?}",
                workloads::NAMES
            ))
        }
        None => workloads::NAMES.to_vec(),
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("--out {}: {e}", args.out.display()))?;
    let cores = provenance::host_cores();

    let mut entries = Vec::new();
    let mut failed = 0.0;
    for workload in names {
        let untraced: Vec<Value> = (0..args.runs)
            .map(|run| child_pass(args, workload, false, run))
            .collect::<Result<_, _>>()?;
        let traced = child_pass(args, workload, true, 0)?;
        let (entry, workload_failed) = assemble(workload, &untraced, &traced, cores);
        failed += workload_failed;
        entries.push((workload.to_string(), entry));
    }

    let results = Value::obj(vec![
        ("schema", Value::Num(1.0)),
        ("smoke", Value::Bool(args.smoke)),
        ("seed", Value::Num(args.seed as f64)),
        (
            "seconds",
            Value::Num(if args.smoke { 0.0 } else { args.seconds }),
        ),
        ("runs", Value::Num(args.runs as f64)),
        ("provenance", provenance::to_json()),
        ("workloads", Value::Obj(entries)),
    ]);
    let path: &Path = &args.out.join("results.json");
    pass::write(path, &results)?;
    println!(
        "wrote {} ({} failed operations or checks)",
        path.display(),
        failed
    );
    Ok(failed == 0.0)
}
