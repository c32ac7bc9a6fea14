//! `fleet_2proc`: the grid through `fleet::run_fleet` on two child
//! processes (this binary in `shard-child` mode, one worker each) against
//! the same grid through the in-process scheduler on two workers. The
//! compute is the same, so the difference is the fleet layer: process
//! spawn, DQSM manifests, heartbeat files, the DQSR report rewritten after
//! every point, the supervisor's poll loop and the merge.

use crate::grid::Grid;
use crate::run::{end_to_end, Checks, Ctx, Metric, Outcome};
use crate::stats;
use ::fleet::{ChildCommand, FleetConfig, FleetOutcome};
use sched::{EventLog, SchedConfig};
use std::time::Instant;

/// First argument of the re-entered binary; `main` routes it to
/// `fleet::child_main`.
pub const CHILD_MODE: &str = "shard-child";

pub struct Size {
    pub lside: usize,
    pub chains: usize,
    pub warmup: usize,
    pub sweeps: usize,
    pub min_runs: usize,
}

const FULL: Size = Size {
    lside: 6,
    chains: 4,
    warmup: 8,
    sweeps: 40,
    min_runs: 3,
};

const SMOKE: Size = Size {
    lside: 4,
    chains: 2,
    warmup: 2,
    sweeps: 8,
    min_runs: 2,
};

const US: [f64; 2] = [2.0, 4.0];
const BETAS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
const PROCS: usize = 2;

/// The text children re-parse: one worker each, solo jobs.
fn grid(size: &Size, seed: u64) -> Grid<'static> {
    Grid {
        lside: size.lside,
        us: &US,
        betas: &BETAS,
        chains: size.chains,
        crowd: 1,
        warmup: size.warmup,
        sweeps: size.sweeps,
        workers: 1,
        devices: 0,
        quantum: 8,
        seed,
    }
}

fn fleet_run(ctx: &mut Ctx, text: &str, procs: usize) -> Result<FleetOutcome, String> {
    let child = ChildCommand::current_exe(CHILD_MODE).map_err(|e| e.to_string())?;
    let cfg = FleetConfig::new(procs, child, ctx.scratch("fleet"));
    let span = ctx.tracer.begin("fleet.run_fleet");
    let out = ::fleet::run_fleet(text, &cfg).map_err(|e| e.to_string());
    ctx.tracer.end(span);
    let _ = std::fs::remove_dir_all(&cfg.workdir);
    out
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let size = if ctx.smoke { &SMOKE } else { &FULL };
    let grid = grid(size, ctx.seed);
    let text = grid.text();
    let cores = crate::provenance::host_cores();
    let mut checks = Checks::default();

    // Set-up computes the reference: the same grid in this process, with
    // as many workers as the fleet has processes.
    let mut reference_secs = Vec::new();
    let (reference, setup_secs) = ctx.setup(|_| {
        let spec = grid.spec();
        let cfg = SchedConfig {
            workers: PROCS,
            ..SchedConfig::from_spec(&spec)
        };
        let t = Instant::now();
        let report = sched::run_sweep(&spec, &cfg, &EventLog::new());
        reference_secs.push(t.elapsed().as_secs_f64());
        report.observables_json()
    });

    let timed = ctx.tracer.begin("timed");
    let mut unit_secs = Vec::new();
    let (mut respawns, mut kills, mut failed_runs) = (0, 0, 0);
    ctx.run_units(size.min_runs, |ctx, _| {
        let t = Instant::now();
        match fleet_run(ctx, &text, PROCS) {
            Ok(out) => {
                unit_secs.push(t.elapsed().as_secs_f64());
                respawns += out.respawns;
                kills += out.kills;
                checks.add_once(
                    "merged_bytes_equal_in_process_run",
                    out.observables == reference,
                    || "the fleet's merged observables differ from sched::run_sweep".to_string(),
                );
            }
            Err(e) => {
                failed_runs += 1;
                checks.add_once("fleet_run_succeeds", false, || e);
            }
        }
    });
    ctx.tracer.end(timed);
    checks.add("no_respawns_or_kills", respawns == 0 && kills == 0, || {
        format!("respawns {respawns} kills {kills}")
    });

    let runs = unit_secs.len() + failed_runs;
    let chains = grid.total_chains();
    let fleet_median = stats::median(&unit_secs);
    let mut per_layer = vec![
        Metric::value(
            "fleet.overhead_ratio",
            "ratio",
            fleet_median / stats::median(&reference_secs),
        ),
        Metric::value("fleet.respawns", "count", f64::from(respawns)),
        Metric::value("fleet.kills", "count", f64::from(kills)),
    ];
    // One more run on a single process, traced pass only: what the second
    // process bought. Withheld when the processes outnumber the cores.
    if ctx.tracer.enabled() {
        per_layer.push(if cores < PROCS {
            Metric::withheld(
                "fleet.speedup_2p",
                "ratio",
                format!("{PROCS} processes on {cores} core(s): no speed-up can be measured"),
            )
        } else {
            let t = Instant::now();
            match fleet_run(ctx, &text, 1) {
                Ok(_) => Metric::value(
                    "fleet.speedup_2p",
                    "ratio",
                    t.elapsed().as_secs_f64() / fleet_median,
                ),
                Err(e) => Metric::withheld("fleet.speedup_2p", "ratio", e),
            }
        });
    }

    Outcome {
        end_to_end: end_to_end(&setup_secs, &unit_secs, chains as f64),
        per_layer,
        checks,
        operations: (runs * PROCS) as u64,
        failed_operations: (failed_runs * PROCS) as u64,
        obs_fnv: stats::fnv(reference.as_bytes()),
        inputs: vec![
            ("grid", grid.describe()),
            ("procs", PROCS.to_string()),
            ("reference", format!("sched::run_sweep, workers {PROCS}")),
            ("unit", "one fleet run, run_fleet".to_string()),
            ("work", "Markov chains".to_string()),
        ],
    }
}
