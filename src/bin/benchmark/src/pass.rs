//! One pass over one workload in this process: the contract's
//! `--workload W --seed N --seconds S --trace 0|1` call, and the child the
//! ledger re-enters for each of its passes.

use crate::catalog;
use crate::json::Value;
use crate::probes;
use crate::provenance;
use crate::run::{peak_rss_mb, Ctx, Metric};
use crate::trace::Tracer;
use crate::workloads;
use crate::Args;
use std::path::Path;

/// Runs the pass, prints every metric of it by name and, as the last line
/// of standard output, the result object. Returns whether every output
/// check passed.
pub fn run(args: &Args, workload: &str, trace: bool) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("--out {}: {e}", args.out.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        smoke: args.smoke,
        out: args.out.clone(),
        tracer: Tracer::new(trace),
    };

    let root = ctx.tracer.begin("workload");
    let mut outcome = workloads::run(workload, &mut ctx).ok_or_else(|| {
        format!(
            "unknown workload '{}'; one of {:?}",
            workload,
            workloads::NAMES
        )
    })?;
    if trace {
        let size = if args.smoke {
            &probes::SMOKE
        } else {
            &probes::FULL
        };
        outcome.per_layer.extend(probes::run_all(&mut ctx, size));
    }
    ctx.tracer.end(root);
    outcome
        .end_to_end
        .push(Metric::value("peak_rss_mb", "MB", peak_rss_mb()));
    outcome.per_layer.push(Metric::value(
        "bench.spans",
        "count",
        ctx.tracer.spans().len() as f64,
    ));

    // In catalog order; a layer this workload never calls reads 0.
    let in_catalog_order = |defs: &[catalog::Def], measured: &[Metric]| -> Vec<Metric> {
        for m in measured {
            assert!(
                defs.iter().any(|d| d.name == m.name),
                "{} is not in the catalog",
                m.name
            );
        }
        defs.iter()
            .map(|d| {
                measured
                    .iter()
                    .find(|m| m.name == d.name)
                    .cloned()
                    .unwrap_or_else(|| Metric::value(d.name, d.unit, 0.0))
            })
            .collect()
    };
    let end_to_end = in_catalog_order(catalog::END_TO_END, &outcome.end_to_end);
    let per_layer = in_catalog_order(catalog::PER_LAYER, &outcome.per_layer);
    // The result line carries the metrics of its pass; the traced pass's
    // end-to-end timings are kept in the detail for the overhead ratio.
    let metrics = if trace { &per_layer } else { &end_to_end };

    let correct = outcome.failed() == 0;
    for m in metrics {
        println!("{}", m.line(workload));
    }
    println!("obs_fnv {} {:016x}", workload, outcome.obs_fnv);
    for c in outcome.checks.0.iter().filter(|c| !c.ok) {
        println!("check {} {} FAILED: {}", workload, c.name, c.detail);
    }
    println!(
        "checks {} {} of {} passed, {} of {} operations failed",
        workload,
        outcome.checks.0.iter().filter(|c| c.ok).count(),
        outcome.checks.0.len(),
        outcome.failed_operations,
        outcome.operations,
    );

    if trace {
        let path = args.out.join(format!("trace-{}.json", workload));
        write(&path, &ctx.tracer.to_json(workload))?;
    }
    if let Some(path) = &args.detail {
        let detail = Value::obj(vec![
            ("workload", Value::str(workload)),
            ("trace", Value::Bool(trace)),
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(outcome.attempted() as f64)),
            ("failed", Value::Num(outcome.failed() as f64)),
            ("obs_fnv", Value::Str(format!("{:016x}", outcome.obs_fnv))),
            (
                "inputs",
                Value::Obj(
                    outcome
                        .inputs
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::str(v)))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Value::Obj(
                    end_to_end
                        .iter()
                        .chain(if trace { &per_layer[..] } else { &[] })
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
            (
                "checks",
                Value::Arr(
                    outcome
                        .checks
                        .0
                        .iter()
                        .map(|c| {
                            Value::obj(vec![
                                ("name", Value::str(&c.name)),
                                ("ok", Value::Bool(c.ok)),
                                ("detail", Value::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("provenance", provenance::to_json()),
        ]);
        write(path, &detail)?;
    }

    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted() as f64)),
        ("failed", Value::Num(outcome.failed() as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let fields =
                            vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
                        (m.name.clone(), Value::obj(fields))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.compact());
    Ok(correct)
}

pub fn write(path: &Path, value: &Value) -> Result<(), String> {
    util::vfs::write_atomic(path, value.pretty().as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}
