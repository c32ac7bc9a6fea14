//! Sweep-scheduler throughput: jobs/second versus worker count.
//!
//! Runs the same small campaign through `sched::run_sweep` with 1, 2, 4
//! and 8 workers and reports wall time, job throughput and scaling
//! efficiency (none on a row with more workers than host cores). The
//! device pool scales with the worker count by default so the rows
//! measure scheduler overhead rather than device starvation; pin
//! it with `--pool-size <n>` to measure contention (e.g. `--pool-size 2`
//! reproduces the old fixed-pool shape, where the 4-worker row lost half
//! its leases to misses). Because each job is an independent
//! Markov chain, the campaign is embarrassingly parallel and the scheduler
//! overhead (queue, leases, checkpoint parking) is exactly what the scaling
//! gap measures. The observables section is also cross-checked between the
//! runs — a scheduling benchmark that silently changed the physics would be
//! measuring the wrong thing.
//!
//! `BENCH_sched.json` is the checked-in artifact; regenerate with
//! `cargo run --release -p bench --bin sched`. `--lx <n>` and
//! `--sweeps <n>` scale the workload (side length / measurement sweeps);
//! `--crowd <B>` batches B chains per job through the strided-batch device
//! path (see `--bin crowd` for the dedicated crowd-axis study).

use bench::BenchOpts;
use sched::{EventLog, GridSpec, SchedConfig};

struct Row {
    workers: usize,
    pool: usize,
    /// Physical parallelism actually available to this run, recorded per
    /// row so the wall times read correctly across machines.
    host_cores: usize,
    wall_s: f64,
    jobs_per_s: f64,
    /// `None` when `workers > host_cores`: such a row measures
    /// oversubscription, not the scheduler, and prints no ratio.
    efficiency: Option<f64>,
    preemptions: u64,
    leases: u64,
    lease_misses: u64,
}

/// A ratio to `prec` places, or `absent` where the row may not claim one.
fn show(ratio: Option<f64>, prec: usize, absent: &str) -> String {
    ratio.map_or_else(|| absent.to_owned(), |v| format!("{v:.prec$}"))
}

fn grid(opts: &BenchOpts) -> GridSpec {
    // chains is the parallelism axis: enough jobs to keep 4 workers busy.
    let (l, sweeps, chains) = if opts.full {
        (8, 200, 8)
    } else if opts.smoke {
        (2, 12, 4)
    } else {
        (6, 96, 8)
    };
    // --lx / --sweeps tune the workload without editing the grid: the
    // defaults above target a 1-worker wall of >= 10 s on a laptop core.
    let l = opts.lx.unwrap_or(l);
    let sweeps = opts.sweeps.unwrap_or(sweeps);
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
        crowd = {}
        ",
        sweeps / 4,
        opts.crowd.unwrap_or(1),
    ))
    .expect("benchmark grid parses");
    spec.seed = opts.seed();
    spec
}

fn main() {
    let opts = BenchOpts::from_env();
    let spec = grid(&opts);
    let njobs = spec.total_jobs();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# sched throughput: {} points x {} chains = {} jobs, {} sweeps each, {} host cores",
        spec.us.len() * spec.betas.len(),
        spec.chains,
        njobs,
        spec.warmup + spec.sweeps,
        host_cores
    );
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "workers", "pool", "wall_s", "jobs/s", "effcy", "preemptions", "leases", "misses"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 4, 8] {
        let pool = opts.pool_size.unwrap_or(workers);
        let cfg = SchedConfig {
            workers,
            devices: pool,
            queue_bound: 0,
            quantum: spec.quantum,
            yield_every_quanta: 0,
            job_retries: 1,
            ..SchedConfig::default()
        };
        let report = sched::run_sweep(&spec, &cfg, &EventLog::new());
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
        let base_wall = rows.first().map_or(wall, |base| base.wall_s);
        let efficiency = (workers <= host_cores).then_some(base_wall / wall / workers as f64);
        println!(
            "{:>8} {:>6} {:>10.3} {:>10.2} {:>10} {:>12} {:>8} {:>8}",
            workers,
            pool,
            wall,
            jobs_per_s,
            show(efficiency, 2, "-"),
            report.preemptions,
            report.leases_granted,
            report.lease_misses
        );
        rows.push(Row {
            workers,
            pool,
            host_cores,
            wall_s: wall,
            jobs_per_s,
            efficiency,
            preemptions: report.preemptions,
            leases: report.leases_granted,
            lease_misses: report.lease_misses,
        });
    }

    let json = render_json(&spec, njobs, &rows);
    // Interpretability contract: every row must carry the host's core
    // count — scaling numbers without it are unreadable across machines.
    assert_eq!(
        json.matches("\"host_cores\"").count(),
        rows.len(),
        "every BENCH_sched.json row must record host_cores"
    );
    let path = "BENCH_sched.json";
    match util::vfs::write_atomic(std::path::Path::new(path), json.as_bytes()) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}

fn render_json(spec: &GridSpec, njobs: usize, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"grid\": {{\"lx\": {}, \"points\": {}, \"chains\": {}, \"crowd\": {}, \
         \"jobs\": {}, \"sweeps\": {}}},\n",
        spec.lx,
        spec.us.len() * spec.betas.len(),
        spec.chains,
        spec.crowd,
        njobs,
        spec.warmup + spec.sweeps
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"pool\": {}, \"host_cores\": {}, \"wall_s\": {:.3}, \
             \"jobs_per_s\": {:.3}, \"efficiency\": {}, \"preemptions\": {}, \"leases\": {}, \
             \"lease_misses\": {}}}{}\n",
            r.workers,
            r.pool,
            r.host_cores,
            r.wall_s,
            r.jobs_per_s,
            show(r.efficiency, 3, "null"),
            r.preemptions,
            r.leases,
            r.lease_misses,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    let best = rows.last().expect("at least one row");
    let speedup = best.efficiency.map(|e| e * best.workers as f64);
    out.push_str(&format!(
        "  \"speedup_at_max_workers\": {}\n}}\n",
        show(speedup, 3, "null")
    ));
    out
}
