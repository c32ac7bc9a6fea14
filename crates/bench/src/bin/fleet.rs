//! Fleet sharding: wall time versus process count.
//!
//! Runs the same campaign once in-process (`sched::run_sweep`, the
//! reference) and then through `fleet::run_fleet` with 1, 2 and 4 child
//! processes (8 under `--full`). Each row records wall time, speedup over
//! the single-process fleet (none on a row with more processes than host
//! cores), respawn/kill counts (always 0 here — the fault hooks are a test
//! feature). The observables bytes are asserted
//! identical across every row and against the in-process reference: a
//! sharding harness that moved a byte would be benchmarking the wrong
//! physics.
//!
//! `BENCH_fleet.json` is the checked-in artifact (`bench::ledger`);
//! regenerate it with `cargo run --release -p bench --bin fleet`. Its first
//! row, `procs = 0`, is the in-process reference (`fleet = 0` runs a
//! campaign in-process, as in `dqmc-serve`). `--smoke` runs a 2×2 grid and
//! writes nothing; `--full` runs 6×6 and adds an 8-process row.
//!
//! Process-level sharding pays per-child costs the in-process scheduler
//! does not: process spawn, grid re-parse, manifest/report codec I/O and
//! one service warm-up per shard. On a campaign whose points dominate
//! (seconds each), those costs vanish; the smoke grid here is small
//! enough that they are visible — which is itself worth recording.

use bench::ledger::{self, Row};
use fleet::{ChildCommand, FleetConfig};
use sched::{EventLog, GridSpec, SchedConfig};

fn grid_text(mode: bench::Mode) -> String {
    let (l, sweeps, chains) = match mode {
        bench::Mode::Full => (6, 96, 4),
        bench::Mode::Smoke => (2, 12, 2),
        bench::Mode::Default => (4, 48, 4),
    };
    // 8 points so a 4-process fleet still gets 2 points per shard; the
    // per-point workers/devices knobs ride inside each child's service.
    // GridSpec::parse seeds from the text, so the seed is baked in here:
    // fleet children re-parse this exact string.
    format!(
        "
        lx = {l}
        ly = {l}
        u = 2.0, 4.0
        beta = 0.5, 1.0, 1.5, 2.0
        chains = {chains}
        warmup = {}
        sweeps = {sweeps}
        bin_size = 4
        cluster_size = 8
        seed = {}
        workers = 2
        devices = 1
        quantum = 8
        ",
        sweeps / 4,
        bench::SEED,
    )
}

fn main() {
    // Fleet re-entry: each shard child is this same binary, relaunched as
    // `fleet shard-child <manifest> <report> <heartbeat>`.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-child") {
        std::process::exit(fleet::child_main(&args[1..]));
    }
    let mode = bench::mode("fleet");
    let text = grid_text(mode);
    let spec = GridSpec::parse(&text).expect("benchmark grid parses");
    let workload = bench::grid_workload(&spec);
    let njobs = spec.total_jobs();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let child = ChildCommand::current_exe("shard-child").expect("locate own executable");
    println!("# fleet sharding: {workload}, {njobs} jobs, {host_cores} host cores");

    // In-process reference: the bytes every fleet row must reproduce.
    let cfg = SchedConfig::from_spec(&spec);
    let (reference, ref_wall) = {
        let start = std::time::Instant::now();
        let report = sched::run_sweep(&spec, &cfg, &EventLog::new());
        (report.observables_json(), start.elapsed().as_secs_f64())
    };
    println!("# in-process reference: {ref_wall:.3} s");
    println!(
        "{:>6} {:>8} {:>10} {:>8} {:>8} {:>8}",
        "procs", "shards", "wall_s", "speedup", "respawns", "kills"
    );

    let mut rows = vec![Row::new()
        .int("procs", 0)
        .int("shards", 0)
        .num("wall_s", ref_wall, 3)
        .num("speedup", None, 3)
        .int("respawns", 0)
        .int("kills", 0)];
    let proc_counts: &[usize] = if mode.full() {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4]
    };
    let mut base_wall = None;
    for &procs in proc_counts {
        let workdir = std::env::temp_dir().join(format!("dqmc-bench-fleet-{}", std::process::id()));
        let fleet_cfg = FleetConfig::new(procs, child.clone(), workdir);
        let out = fleet::run_fleet(&text, &fleet_cfg)
            .unwrap_or_else(|e| panic!("fleet run with {procs} procs failed: {e}"));
        assert_eq!(
            out.observables, reference,
            "fleet with {procs} procs changed the physics"
        );
        let base_wall = *base_wall.get_or_insert(out.wall_seconds);
        // A row with more processes than host cores measures
        // oversubscription, not the fleet, and claims no ratio.
        let speedup = (procs <= host_cores).then_some(base_wall / out.wall_seconds);
        println!(
            "{:>6} {:>8} {:>10.3} {:>8} {:>8} {:>8}",
            procs,
            out.shards,
            out.wall_seconds,
            speedup.map_or("-".into(), |s| format!("{s:.2}")),
            out.respawns,
            out.kills
        );
        rows.push(
            Row::new()
                .int("procs", procs)
                .int("shards", out.shards)
                .num("wall_s", out.wall_seconds, 3)
                .num("speedup", speedup, 3)
                .int("respawns", out.respawns as usize)
                .int("kills", out.kills as usize),
        );
    }
    ledger::write("fleet", mode, &workload, &[("procs", &rows)]);
}
