//! Sweep-scheduler throughput: jobs/second versus worker count.
//!
//! Runs the same small campaign through `sched::run_sweep` with 1, 2, 4
//! and 8 workers and reports wall time, job throughput and scaling
//! efficiency (none on a row with more workers than host cores). The
//! device pool scales with the worker count, so the rows measure scheduler
//! overhead rather than device starvation. Because each job is an independent
//! Markov chain, the campaign is embarrassingly parallel and the scheduler
//! overhead (queue, leases, checkpoint parking) is exactly what the scaling
//! gap measures. The observables section is also cross-checked between the
//! runs — a scheduling benchmark that silently changed the physics would be
//! measuring the wrong thing.
//!
//! `BENCH_sched.json` is the checked-in artifact (`bench::ledger`);
//! regenerate it with `cargo run --release -p bench --bin sched`. `--smoke`
//! runs a 2×2 grid and writes nothing; `--full` runs 8×8 with 200
//! measurement sweeps.

use bench::ledger::{self, Row};
use sched::{EventLog, GridSpec};

fn grid(mode: bench::Mode) -> GridSpec {
    // chains is the parallelism axis: enough jobs to keep 4 workers busy.
    let (l, sweeps, chains) = match mode {
        bench::Mode::Full => (8, 200, 8),
        bench::Mode::Smoke => (2, 12, 4),
        bench::Mode::Default => (6, 96, 8),
    };
    let mut spec = GridSpec::parse(&format!(
        "
        lx = {l}
        ly = {l}
        u = 2.0, 4.0
        beta = 1.0, 2.0
        chains = {chains}
        warmup = {}
        sweeps = {sweeps}
        bin_size = 4
        cluster_size = 8
        quantum = 0
        ",
        sweeps / 4,
    ))
    .expect("benchmark grid parses");
    spec.seed = bench::SEED;
    spec
}

fn main() {
    let mode = bench::mode("sched");
    let spec = grid(mode);
    let workload = bench::grid_workload(&spec);
    let njobs = spec.total_jobs();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# sched throughput: {workload}, {njobs} jobs, {host_cores} host cores");
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "workers", "pool", "wall_s", "jobs/s", "effcy", "preemptions", "leases", "misses"
    );

    let mut rows = Vec::new();
    let mut base_wall = None;
    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 4, 8] {
        let report = sched::run_sweep(&spec, &bench::pooled(&spec, workers), &EventLog::new());
        let obs = report.observables_json();
        match &reference {
            Some(r) => assert_eq!(
                *r, obs,
                "scheduler changed the physics between worker counts"
            ),
            None => reference = Some(obs),
        }
        let wall = report.wall_seconds;
        let jobs_per_s = njobs as f64 / wall;
        let base_wall = *base_wall.get_or_insert(wall);
        // A row with more workers than host cores measures
        // oversubscription, not the scheduler, and claims no ratio.
        let efficiency = (workers <= host_cores).then_some(base_wall / wall / workers as f64);
        println!(
            "{:>8} {:>6} {:>10.3} {:>10.2} {:>10} {:>12} {:>8} {:>8}",
            workers,
            workers,
            wall,
            jobs_per_s,
            efficiency.map_or("-".into(), |e| format!("{e:.2}")),
            report.preemptions,
            report.leases_granted,
            report.lease_misses
        );
        rows.push(
            Row::new()
                .int("workers", workers)
                .int("pool", workers)
                .num("wall_s", wall, 3)
                .num("jobs_per_s", jobs_per_s, 3)
                .num("efficiency", efficiency, 3)
                .int("preemptions", report.preemptions as usize)
                .int("leases", report.leases_granted as usize)
                .int("lease_misses", report.lease_misses as usize),
        );
    }
    ledger::write("sched", mode, &workload, &[("workers", &rows)]);
}
