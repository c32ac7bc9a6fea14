//! Crowd-batched walker execution: the two-axis throughput study.
//!
//! **Axis 1 — crowd size.** The same campaign runs with jobs of B = 1, 4
//! and 8 chains at a fixed 4 workers. A crowd job steps its B walkers in
//! lockstep and routes their wrap and cluster kernels through the
//! strided-batch device path: one kernel launch covers all B walkers, and
//! per-walker PCIe transactions collapse into stacked transfers that pay
//! the bus latency once. Per-walker FLOP cost is unchanged — the win is
//! launch overhead and transfer latency amortisation, so it shows up on the
//! *modeled device clock*.
//!
//! **Axis 2 — workers.** The largest crowd (8) re-runs with 1, 2, 4 and 8
//! workers (device pool scaling with the worker count), showing the two
//! axes compose: crowding shrinks per-job device time, workers spread jobs.
//!
//! **Metric honesty.** Wall-clock here measures the *host simulating the
//! device* (and on a 1-core CI box, worker rows cannot speed up at all);
//! the batching win is recorded in `device_seconds` — the simulated
//! accelerator clock the cost model advances for launches, transfers and
//! compute. `chains_per_device_s` is the headline throughput axis, and the
//! observables section is cross-checked byte-identical across every row:
//! crowding and worker count must never move the physics.
//!
//! `BENCH_crowd.json` is the checked-in artifact (`bench::ledger`; rows
//! tagged `crowd_axis` or `worker_axis`); regenerate it with
//! `cargo run --release -p bench --bin crowd`. `--smoke` runs a 2×2 grid
//! and writes nothing; `--full` runs 8×8 with 200 measurement sweeps. At
//! N = 16 no kernel reaches `team::FORK_FLOPS`, so none forks.

use bench::ledger::{self, Row};
use sched::{EventLog, GridSpec};

fn grid(mode: bench::Mode, crowd: usize) -> GridSpec {
    let (l, sweeps, chains) = match mode {
        bench::Mode::Full => (8, 200, 8),
        bench::Mode::Smoke => (2, 12, 8),
        bench::Mode::Default => (4, 60, 8),
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
        crowd = {crowd}
        ",
        sweeps / 4,
    ))
    .expect("benchmark grid parses");
    spec.seed = bench::SEED;
    spec
}

/// Runs the campaign at `crowd` on `workers` workers (and as many devices),
/// prints its line and returns its ledger row and its device seconds.
fn run_row(
    mode: bench::Mode,
    crowd: usize,
    workers: usize,
    reference: &mut Option<String>,
) -> (Row, f64) {
    let spec = grid(mode, crowd);
    let report = sched::run_sweep(&spec, &bench::pooled(&spec, workers), &EventLog::new());
    let obs = report.observables_json();
    match reference {
        Some(r) => assert_eq!(
            *r, obs,
            "crowd {crowd} / {workers} workers changed the physics"
        ),
        None => *reference = Some(obs),
    }
    let njobs = spec.total_jobs() as f64;
    let (wall, device) = (report.wall_seconds, report.device_seconds);
    let jobs_per_s = njobs / wall;
    let chains_per_device_s = (device > 0.0).then(|| njobs / device);
    println!(
        "{:>6} {:>8} {:>6} {:>10.3} {:>10.4} {:>10.2} {:>14.2} {:>8} {:>8}",
        crowd,
        workers,
        workers,
        wall,
        device,
        jobs_per_s,
        chains_per_device_s.unwrap_or(0.0),
        report.leases_granted,
        report.lease_misses
    );
    let row = Row::new()
        .int("crowd", crowd)
        .int("workers", workers)
        .int("pool", workers)
        .num("wall_s", wall, 3)
        .num("device_s", device, 6)
        .num("jobs_per_s", jobs_per_s, 3)
        .num("chains_per_device_s", chains_per_device_s, 3)
        .int("leases", report.leases_granted as usize)
        .int("lease_misses", report.lease_misses as usize);
    (row, device)
}

fn main() {
    let mode = bench::mode("crowd");
    let workload = bench::grid_workload(&grid(mode, 1));
    println!("# crowd throughput: {workload}");
    println!(
        "{:>6} {:>8} {:>6} {:>10} {:>10} {:>10} {:>14} {:>8} {:>8}",
        "crowd",
        "workers",
        "pool",
        "wall_s",
        "device_s",
        "jobs/s",
        "chains/dev_s",
        "leases",
        "misses"
    );

    let mut reference: Option<String> = None;
    // Axis 1: crowd size at fixed 4 workers.
    let (crowd_axis, device): (Vec<Row>, Vec<f64>) = [1usize, 4, 8]
        .iter()
        .map(|&b| run_row(mode, b, 4, &mut reference))
        .unzip();
    // Axis 2: worker count at the largest crowd.
    let worker_axis: Vec<Row> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| run_row(mode, 8, w, &mut reference).0)
        .collect();
    println!(
        "# modeled device-clock speedup, crowd 8 vs crowd 1 at 4 workers: {:.2}x",
        device[0] / device[2]
    );
    let tables = [
        ("crowd_axis", &crowd_axis[..]),
        ("worker_axis", &worker_axis[..]),
    ];
    ledger::write("crowd", mode, &workload, &tables);
}
