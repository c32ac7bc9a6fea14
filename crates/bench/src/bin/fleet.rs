//! Fleet sharding: wall time versus process count.
//!
//! Runs the same campaign once in-process (`sched::run_sweep`, the
//! reference) and then through `fleet::run_fleet` with 1, 2 and 4 child
//! processes (8 under `--full`). Each row records wall time, speedup over
//! the single-process fleet (none on a row with more processes than host
//! cores), respawn/kill counts (always 0 here — the fault hooks are a test
//! feature) and the host core count. The observables bytes are asserted
//! identical across every row and against the in-process reference: a
//! sharding harness that moved a byte would be benchmarking the wrong
//! physics.
//!
//! `BENCH_fleet.json` is the checked-in artifact; regenerate with
//! `cargo run --release -p bench --bin fleet`. `--lx <n>` and
//! `--sweeps <n>` scale the workload.
//!
//! Process-level sharding pays per-child costs the in-process scheduler
//! does not: process spawn, grid re-parse, manifest/report codec I/O and
//! one service warm-up per shard. On a campaign whose points dominate
//! (seconds each), those costs vanish; the smoke grid here is small
//! enough that they are visible — which is itself worth recording.

use bench::BenchOpts;
use fleet::{ChildCommand, FleetConfig};
use sched::{EventLog, GridSpec, SchedConfig};

struct Row {
    procs: usize,
    host_cores: usize,
    wall_s: f64,
    /// `None` when `procs > host_cores`: such a row measures
    /// oversubscription, not the fleet, and prints no ratio.
    speedup: Option<f64>,
    shards: usize,
    respawns: u32,
    kills: u32,
}

/// A ratio to `prec` places, or `absent` where the row may not claim one.
fn show(ratio: Option<f64>, prec: usize, absent: &str) -> String {
    ratio.map_or_else(|| absent.to_owned(), |v| format!("{v:.prec$}"))
}

fn grid_text(opts: &BenchOpts) -> String {
    let (l, sweeps, chains) = if opts.full {
        (6, 96, 4)
    } else if opts.smoke {
        (2, 12, 2)
    } else {
        (4, 48, 4)
    };
    let l = opts.lx.unwrap_or(l);
    let sweeps = opts.sweeps.unwrap_or(sweeps);
    // 8 points so a 4-process fleet still gets 2 points per shard; the
    // per-point workers/devices knobs ride inside each child's service.
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
        // GridSpec::parse seeds from the text, so the seed has to be
        // baked in here: fleet children re-parse this exact string.
        opts.seed(),
    )
}

fn main() {
    // Fleet re-entry: each shard child is this same binary, relaunched as
    // `fleet shard-child <manifest> <report> <heartbeat>`.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-child") {
        std::process::exit(fleet::child_main(&args[1..]));
    }
    let opts = BenchOpts::from_env();
    let text = grid_text(&opts);
    let spec = GridSpec::parse(&text).expect("benchmark grid parses");
    let njobs = spec.total_jobs();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let child = ChildCommand::current_exe("shard-child").expect("locate own executable");

    println!(
        "# fleet sharding: {} points x {} chains = {} jobs, {} sweeps each, {} host cores",
        spec.points().len(),
        spec.chains,
        njobs,
        spec.warmup + spec.sweeps,
        host_cores
    );

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

    let proc_counts: &[usize] = if opts.full { &[1, 2, 4, 8] } else { &[1, 2, 4] };
    let mut rows: Vec<Row> = Vec::new();
    for &procs in proc_counts {
        let workdir = std::env::temp_dir().join(format!("dqmc-bench-fleet-{}", std::process::id()));
        let fleet_cfg = FleetConfig::new(procs, child.clone(), workdir);
        let out = fleet::run_fleet(&text, &fleet_cfg)
            .unwrap_or_else(|e| panic!("fleet run with {procs} procs failed: {e}"));
        assert_eq!(
            out.observables, reference,
            "fleet with {procs} procs changed the physics"
        );
        let base_wall = rows.first().map_or(out.wall_seconds, |base| base.wall_s);
        let speedup = (procs <= host_cores).then_some(base_wall / out.wall_seconds);
        println!(
            "{:>6} {:>8} {:>10.3} {:>8} {:>8} {:>8}",
            procs,
            out.shards,
            out.wall_seconds,
            show(speedup, 2, "-"),
            out.respawns,
            out.kills
        );
        rows.push(Row {
            procs,
            host_cores,
            wall_s: out.wall_seconds,
            speedup,
            shards: out.shards,
            respawns: out.respawns,
            kills: out.kills,
        });
    }

    let json = render_json(&spec, njobs, ref_wall, &rows);
    assert_eq!(
        json.matches("\"host_cores\"").count(),
        rows.len(),
        "every BENCH_fleet.json row must record host_cores"
    );
    let path = "BENCH_fleet.json";
    match util::vfs::write_atomic(std::path::Path::new(path), json.as_bytes()) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}

fn render_json(spec: &GridSpec, njobs: usize, ref_wall: f64, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"grid\": {{\"lx\": {}, \"points\": {}, \"chains\": {}, \"jobs\": {}, \
         \"sweeps\": {}}},\n",
        spec.lx,
        spec.points().len(),
        spec.chains,
        njobs,
        spec.warmup + spec.sweeps
    ));
    out.push_str(&format!(
        "  \"in_process_wall_s\": {ref_wall:.3},\n  \"bytes_identical_across_rows\": true,\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"procs\": {}, \"shards\": {}, \"host_cores\": {}, \"wall_s\": {:.3}, \
             \"speedup\": {}, \"respawns\": {}, \"kills\": {}}}{}\n",
            r.procs,
            r.shards,
            r.host_cores,
            r.wall_s,
            show(r.speedup, 3, "null"),
            r.respawns,
            r.kills,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
