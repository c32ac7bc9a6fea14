//! `campaign_crowd`: a (U, β) grid of crowd-batched ensembles through
//! `sched::run_sweep`. The same kernels as `solo_n256` at a size where
//! call overhead dominates, plus queue, device leases, one parked `DQCW`
//! image per quantum, the gpusim cost model and jackknife aggregation.

use crate::grid::Grid;
use crate::run::{end_to_end, Checks, Ctx, Metric, Outcome};
use crate::stats;
use sched::{EventLog, SchedConfig, SweepReport};
use std::time::Instant;

pub struct Size {
    pub lside: usize,
    pub chains: usize,
    pub warmup: usize,
    pub sweeps: usize,
    pub quantum: usize,
    pub min_campaigns: usize,
}

const FULL: Size = Size {
    lside: 6,
    chains: 8,
    warmup: 6,
    sweeps: 30,
    quantum: 6,
    min_campaigns: 3,
};

const SMOKE: Size = Size {
    lside: 4,
    chains: 4,
    warmup: 2,
    sweeps: 8,
    quantum: 4,
    min_campaigns: 2,
};

const US: [f64; 3] = [2.0, 4.0, 6.0];
const BETAS: [f64; 2] = [1.0, 2.0];
const CROWD: usize = 4;
const WORKERS: usize = 2;
const DEVICES: usize = 2;

fn grid(size: &Size, seed: u64) -> Grid<'static> {
    Grid {
        lside: size.lside,
        us: &US,
        betas: &BETAS,
        chains: size.chains,
        crowd: CROWD,
        warmup: size.warmup,
        sweeps: size.sweeps,
        workers: WORKERS,
        devices: DEVICES,
        quantum: size.quantum,
        seed,
    }
}

/// Point 0 of the grid on the solo path: crowd of one, one worker, host
/// backend, no quanta. The crowd campaign must reproduce its bytes.
fn solo_reference(size: &Size, seed: u64) -> String {
    let spec = Grid {
        us: &US[..1],
        betas: &BETAS[..1],
        crowd: 1,
        workers: 1,
        devices: 0,
        quantum: 0,
        ..grid(size, seed)
    }
    .spec();
    let report = sched::run_sweep(&spec, &SchedConfig::from_spec(&spec), &EventLog::new());
    report.points[0].observables_json()
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let size = if ctx.smoke { &SMOKE } else { &FULL };
    let grid = grid(size, ctx.seed);
    let mut checks = Checks::default();

    let ((spec, cfg, reference), setup_secs) = ctx.setup(|ctx| {
        let spec = grid.spec();
        // Yield after every quantum, so each one parks a DQCW image and
        // resumes from it: preemption is part of this workload.
        let cfg = SchedConfig {
            yield_every_quanta: 1,
            ..SchedConfig::from_spec(&spec)
        };
        (spec, cfg, solo_reference(size, ctx.seed))
    });

    let timed = ctx.tracer.begin("timed");
    let mut unit_secs = Vec::new();
    let mut first: Option<(SweepReport, String)> = None;
    let mut failed_jobs = 0;
    ctx.run_units(size.min_campaigns, |ctx, _| {
        let span = ctx.tracer.begin("sched.run_sweep");
        let t = Instant::now();
        let report = sched::run_sweep(&spec, &cfg, &EventLog::new());
        unit_secs.push(t.elapsed().as_secs_f64());
        ctx.tracer.end(span);

        failed_jobs += report.failed_jobs;
        let clean =
            report.failed_jobs == 0 && report.panics_caught == 0 && report.lease_misses == 0;
        checks.add_once("no_failed_jobs_panics_or_lease_misses", clean, || {
            format!(
                "failed_jobs {} panics_caught {} lease_misses {}",
                report.failed_jobs, report.panics_caught, report.lease_misses
            )
        });
        let obs = report.observables_json();
        match &first {
            Some((_, first_obs)) => {
                checks.add_once(
                    "every_campaign_repeats_the_first_bytes",
                    obs == *first_obs,
                    || "a repeated campaign produced different observables".to_string(),
                );
            }
            None => first = Some((report, obs)),
        }
    });
    ctx.tracer.end(timed);

    let (report, obs) = first.expect("min_campaigns units always run");
    checks.add(
        "crowd_point_matches_solo_reference",
        report.points[0].observables_json() == reference,
        || "point 0 of the crowd campaign differs from the solo-path reference".to_string(),
    );

    let campaigns = unit_secs.len();
    let chains = grid.total_chains();
    // Counts of the first campaign: every campaign has the same inputs, so
    // they repeat exactly for a seed however many campaigns the budget fit.
    let per_layer = vec![
        Metric::value("gpusim.device_s", "s", report.device_seconds),
        Metric::value(
            "gpusim.chains_per_device_s",
            "1/s",
            chains as f64 / report.device_seconds,
        ),
        Metric::value("gpusim.leases", "count", report.leases_granted as f64),
        Metric::value("gpusim.lease_misses", "count", report.lease_misses as f64),
        Metric::value("sched.preemptions", "count", report.preemptions as f64),
        Metric::value("sched.retries", "count", report.retries as f64),
        Metric::value("sched.device_quanta", "count", report.device_quanta as f64),
        Metric::value("sched.host_quanta", "count", report.host_quanta as f64),
    ];

    Outcome {
        end_to_end: end_to_end(&setup_secs, &unit_secs, chains as f64),
        per_layer,
        checks,
        operations: (campaigns * chains) as u64,
        failed_operations: failed_jobs as u64,
        obs_fnv: stats::fnv(obs.as_bytes()),
        inputs: vec![
            ("grid", grid.describe()),
            ("yield_every_quanta", "1".to_string()),
            ("unit", "one campaign, run_sweep".to_string()),
            ("work", "Markov chains".to_string()),
        ],
    }
}
