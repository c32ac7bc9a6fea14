//! `dqmc` — run a DQMC simulation from a QUEST-style input file.
//!
//! ```sh
//! dqmc path/to/input.in           # or: dqmc - < input.in
//! dqmc sweep grid.sweep           # parameter-sweep campaign
//! dqmc sweep grid.sweep -o r.json # also write the JSON report
//! dqmc shard grid.sweep --procs 4 --workdir shards/   # process fleet
//! dqmc merge shards/ -o obs.json  # recombine shard reports
//! ```

use dqmc::Simulation;
use dqmc_cli::{flag_value, submit_exit, Backend, InputFile};
use fleet::{ChildCommand, FleetConfig};
use sched::{EventLog, GridSpec, SchedConfig, TraceEvent};
use std::io::Read;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::time::Duration;
use util::table::{fmt_f, Table};

/// Base backoff between `dqmc submit` resubmission attempts.
const SUBMIT_BACKOFF: Duration = Duration::from_millis(100);

/// `dqmc sweep <grid-file> [-o report.json] [--obs-out obs.json]
/// [--trace]`: run a declared (U, β) grid through the checkpoint-aware
/// scheduler and print the pooled jackknife estimates per point.
fn run_sweep_cmd(args: &[String]) -> ! {
    let mut grid_file: Option<&str> = None;
    let mut out: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out = Some(flag_value(a, "a path", it.next())),
            "--obs-out" => obs_out = Some(flag_value(a, "a path", it.next())),
            "--trace" => trace = true,
            other if grid_file.is_none() => grid_file = Some(other),
            other => {
                eprintln!("unexpected argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let Some(grid_file) = grid_file else {
        eprintln!("usage: dqmc sweep <grid-file> [-o report.json] [--obs-out obs.json] [--trace]");
        eprint!("{}", GridSpec::keys_help());
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(grid_file).unwrap_or_else(|e| {
        eprintln!("cannot read {grid_file}: {e}");
        std::process::exit(2);
    });
    let spec = GridSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    println!(
        "# sweep: {}x{} lattice, {} points ({} U x {} beta), {} chains/point, {} jobs",
        spec.lx,
        spec.ly,
        spec.us.len() * spec.betas.len(),
        spec.us.len(),
        spec.betas.len(),
        spec.chains,
        spec.total_jobs()
    );
    println!(
        "# {} workers, {} devices, quantum {} sweeps, seed {}",
        spec.workers, spec.devices, spec.quantum, spec.seed
    );

    let cfg = SchedConfig::from_spec(&spec);
    let events = EventLog::new();
    let report = sched::run_sweep(&spec, &cfg, &events);

    if trace {
        println!("\n## schedule trace");
        for e in events.snapshot() {
            println!("{e}");
        }
        println!(
            "# health: {} quarantines, {} probes, {} readmissions, {} soft parks, \
             {} panics caught",
            report.quarantines,
            report.probes,
            report.readmissions,
            report.soft_parks,
            report.panics_caught,
        );
    }
    let yields = events.count(|e| matches!(e, TraceEvent::Yielded { .. }));
    println!("\n## pooled observables (delete-one jackknife)");
    print!("{}", report.human_summary());
    if yields > 0 {
        println!("# {yields} checkpoint yields during the sweep");
    }

    if let Some(path) = &out {
        util::vfs::write_atomic(Path::new(path), report.to_json().as_bytes()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("# report written to {path}");
    }
    if let Some(path) = &obs_out {
        // The observables document alone — the byte-deterministic layer a
        // fleet merge (or served campaign) is compared against.
        util::vfs::write_atomic(Path::new(path), report.observables_json().as_bytes())
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
        println!("# observables written to {path}");
    }
    std::process::exit(if report.failed_jobs == 0 { 0 } else { 1 });
}

/// `dqmc shard <grid-file> --procs P [--workdir DIR] [-o obs.json]
/// [--keep] [--trace]`: run the grid as a supervised process fleet and
/// print the byte-deterministically merged observables document.
fn run_shard_cmd(args: &[String]) -> ! {
    let mut grid_file: Option<&str> = None;
    let mut procs: usize = 2;
    let mut workdir: Option<PathBuf> = None;
    let mut out: Option<String> = None;
    let mut keep = false;
    let mut trace = false;
    let mut heartbeat_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--procs" => {
                procs = flag_value::<NonZeroUsize>(a, "a positive integer", it.next()).get()
            }
            "--heartbeat-timeout-ms" => {
                let ms = flag_value::<NonZeroU64>(a, "a positive integer", it.next());
                heartbeat_ms = Some(ms.get());
            }
            "--workdir" => workdir = Some(flag_value(a, "a path", it.next())),
            "-o" | "--out" => out = Some(flag_value(a, "a path", it.next())),
            "--keep" => keep = true,
            "--trace" => trace = true,
            other if grid_file.is_none() => grid_file = Some(other),
            other => {
                eprintln!("unexpected argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let Some(grid_file) = grid_file else {
        eprintln!(
            "usage: dqmc shard <grid-file> --procs P [--workdir DIR] [-o obs.json] \
             [--keep] [--trace] [--heartbeat-timeout-ms N]"
        );
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(grid_file).unwrap_or_else(|e| {
        eprintln!("cannot read {grid_file}: {e}");
        std::process::exit(2);
    });
    let child = ChildCommand::current_exe("shard-child").unwrap_or_else(|e| {
        eprintln!("cannot locate own executable: {e}");
        std::process::exit(1);
    });
    // An explicit workdir implies the caller wants the shard files (for a
    // later `dqmc merge`); a scratch dir is cleaned up unless --keep.
    let explicit_workdir = workdir.is_some();
    let dir = workdir
        .unwrap_or_else(|| std::env::temp_dir().join(format!("dqmc-shard-{}", std::process::id())));
    let mut cfg = FleetConfig::new(procs, child, dir);
    cfg.keep_files = keep || explicit_workdir;
    if let Some(ms) = heartbeat_ms {
        cfg.heartbeat_timeout = std::time::Duration::from_millis(ms);
    }
    let outcome = fleet::run_fleet(&text, &cfg).unwrap_or_else(|e| {
        eprintln!("fleet run failed: {e}");
        std::process::exit(1);
    });
    if trace {
        eprintln!("## process health ledger");
        for line in &outcome.ledger {
            eprintln!("# {line}");
        }
    }
    eprintln!(
        "# fleet: {} shards, {} respawns, {} kills, {:.2}s wall",
        outcome.shards, outcome.respawns, outcome.kills, outcome.wall_seconds
    );
    match &out {
        Some(path) => {
            util::vfs::write_atomic(Path::new(path), outcome.observables.as_bytes())
                .unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                });
            eprintln!("# observables written to {path}");
        }
        None => println!("{}", outcome.observables),
    }
    std::process::exit(if outcome.merged.failed_chains == 0 {
        0
    } else {
        1
    });
}

/// `dqmc merge <dir-or-report.dqsr...> [-o obs.json]`: recombine shard
/// report files into the single-process observables document.
fn run_merge_cmd(args: &[String]) -> ! {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out = Some(flag_value(a, "a path", it.next())),
            other => inputs.push(PathBuf::from(other)),
        }
    }
    if inputs.is_empty() {
        eprintln!("usage: dqmc merge <workdir | shard-*.dqsr ...> [-o obs.json]");
        std::process::exit(2);
    }
    // A directory argument expands to its *.dqsr files, sorted by name so
    // the merge input set is deterministic.
    let mut reports: Vec<PathBuf> = Vec::new();
    for input in inputs {
        if input.is_dir() {
            // Scrub atomic-write debris a crashed fleet may have left
            // before collecting reports: a stranded temp file is not a
            // shard report and must never reach the merge.
            match util::vfs::scrub_tmp(&input) {
                Ok(scrubbed) if scrubbed.count() > 0 => eprintln!(
                    "# scrubbed {} stranded tmp file(s) from {}: {}",
                    scrubbed.count(),
                    input.display(),
                    scrubbed.removed.join(", ")
                ),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("cannot scrub {}: {e}", input.display());
                    std::process::exit(2);
                }
            }
            let mut found: Vec<PathBuf> = match std::fs::read_dir(&input) {
                Ok(entries) => entries
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "dqsr"))
                    .collect(),
                Err(e) => {
                    eprintln!("cannot list {}: {e}", input.display());
                    std::process::exit(2);
                }
            };
            found.sort();
            reports.extend(found);
        } else {
            reports.push(input);
        }
    }
    if reports.is_empty() {
        eprintln!("no shard reports (*.dqsr) found");
        std::process::exit(2);
    }
    let mut decoded = Vec::with_capacity(reports.len());
    for path in &reports {
        match fleet::ShardReport::read(path) {
            Ok(r) => decoded.push(r),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let merged = fleet::merge_reports(&decoded).unwrap_or_else(|e| {
        eprintln!("merge refused: {e}");
        std::process::exit(1);
    });
    let observables = merged.observables_json();
    eprintln!(
        "# merged {} points from {} shard reports",
        merged.points.len(),
        decoded.len()
    );
    match &out {
        Some(path) => {
            util::vfs::write_atomic(Path::new(path), observables.as_bytes()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("# observables written to {path}");
        }
        None => println!("{observables}"),
    }
    std::process::exit(if merged.failed_chains == 0 { 0 } else { 1 });
}

/// `dqmc submit <grid-file> [--addr host:port] [--tenant NAME]
/// [--priority N]`: submit a grid to a running `dqmc-serve`, print each
/// point as it streams in, then the final observables document.
fn run_submit_cmd(args: &[String]) -> ! {
    let mut grid_file: Option<&str> = None;
    let mut addr = "127.0.0.1:7070".to_string();
    let mut tenant = "cli".to_string();
    let mut priority: u8 = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" | "--tenant" | "--priority" => {
                let v: String = flag_value(a, "a value", it.next());
                match a.as_str() {
                    "--addr" => addr = v,
                    "--tenant" => tenant = v,
                    _ => {
                        priority = v.parse().unwrap_or_else(|_| {
                            eprintln!("--priority needs 0-255, got '{v}'");
                            std::process::exit(2);
                        })
                    }
                }
            }
            other if grid_file.is_none() => grid_file = Some(other),
            other => {
                eprintln!("unexpected argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let Some(grid_file) = grid_file else {
        eprintln!(
            "usage: dqmc submit <grid-file> [--addr host:port] [--tenant NAME] [--priority N]"
        );
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(grid_file).unwrap_or_else(|e| {
        eprintln!("cannot read {grid_file}: {e}");
        std::process::exit(2);
    });
    // Resilient submission: reconnect and resubmit after a mid-stream
    // disconnect. The server's content-addressed cache makes the retry
    // idempotent — completed points replay as cache hits, not reruns.
    let outcome =
        serve::Client::submit_resilient(&addr, &tenant, priority, &text, 5, SUBMIT_BACKOFF, |p| {
            println!(
                "# point {} {}: {}",
                p.index,
                if p.cached { "cached" } else { "computed" },
                p.json
            );
        })
        .unwrap_or_else(|e| {
            eprintln!("submission failed: {e}");
            // Queue back-pressure and shutdown get distinct exit codes so
            // shell callers can retry-with-backoff vs fail over.
            let code = match &e {
                serve::WireError::Rejected(reason) => submit_exit::for_rejection(reason),
                _ => submit_exit::FAILED,
            };
            std::process::exit(code);
        });
    println!("{}", outcome.observables);
    println!(
        "# done: {} points ({} cached, {} computed), jobs_run {}, failed_chains {}, \
         recovery_events {}",
        outcome.points.len(),
        outcome.cached_points,
        outcome.computed_points,
        outcome.jobs_run,
        outcome.failed_chains,
        outcome.recovery_events,
    );
    std::process::exit(if outcome.failed_chains == 0 { 0 } else { 1 });
}

/// `dqmc serve-shutdown [--addr host:port]`: ask a running `dqmc-serve` to
/// drain and exit.
fn run_serve_shutdown_cmd(args: &[String]) -> ! {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = flag_value(a, "a value", it.next()),
            other => {
                eprintln!("unexpected argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let mut client = serve::Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    client.shutdown().unwrap_or_else(|e| {
        eprintln!("shutdown failed: {e}");
        std::process::exit(1);
    });
    println!("# server at {addr} acknowledged shutdown");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep") {
        run_sweep_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("shard") {
        run_shard_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("merge") {
        run_merge_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("shard-child") {
        // Fleet re-entry point: the supervisor launches this same binary
        // with `shard-child <manifest> <report> <heartbeat>`.
        std::process::exit(fleet::child_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("submit") {
        run_submit_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve-shutdown") {
        run_serve_shutdown_cmd(&args[1..]);
    }
    if args.len() != 1 || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: dqmc <input-file>   (or 'dqmc -' to read stdin)");
        eprintln!("       dqmc sweep <grid-file> [-o report.json] [--obs-out obs.json] [--trace]");
        eprintln!(
            "       dqmc shard <grid-file> --procs P [--workdir DIR] [-o obs.json] \
             [--keep] [--trace] [--heartbeat-timeout-ms N]"
        );
        eprintln!("       dqmc merge <workdir | shard-*.dqsr ...> [-o obs.json]");
        eprintln!(
            "       dqmc submit <grid-file> [--addr host:port] [--tenant NAME] [--priority N]"
        );
        eprintln!("       dqmc serve-shutdown [--addr host:port]");
        eprint!("{}", InputFile::keys_help());
        std::process::exit(if args.first().map(String::as_str) == Some("--help") {
            0
        } else {
            2
        });
    }
    let text = if args[0] == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .expect("reading stdin");
        buf
    } else {
        std::fs::read_to_string(&args[0]).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", args[0]);
            std::process::exit(2);
        })
    };
    let cfg = InputFile::parse(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // The header prints what the chain runs: k as clamped to L, say.
    let (spec, params) = (&cfg.spec, cfg.sim_params());
    let model = &params.model;
    println!(
        "# dqmc: {}x{}x{} lattice (N={}), U={}, mu~={}, beta={} (L={}, dtau={})",
        spec.lx,
        spec.ly,
        spec.layers,
        model.nsites(),
        model.u,
        model.mu_tilde,
        model.beta(),
        model.slices,
        model.dtau
    );
    println!(
        "# {} warmup + {} measurement sweeps, seed {}, {:?}, k={}, delay={}, recycle={}",
        params.warmup_sweeps,
        params.measure_sweeps,
        params.seed,
        params.algo,
        params.cluster_size,
        params.delay_block,
        params.recycle
    );

    let ckpt = cfg.checkpoint.clone();
    // A run killed mid-checkpoint strands a temp file next to the
    // checkpoint; scrub it before resuming so debris never accumulates.
    if let Some(path) = ckpt.as_deref().map(Path::new) {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        match util::vfs::scrub_tmp(dir) {
            Ok(scrubbed) if scrubbed.count() > 0 => println!(
                "# scrubbed {} stranded tmp file(s) near checkpoint {}",
                scrubbed.count(),
                path.display()
            ),
            _ => {}
        }
    }
    let mut sim = match ckpt.as_deref().map(Path::new) {
        Some(path) if path.exists() => {
            println!("# resuming from checkpoint {}", path.display());
            Simulation::resume(path, &params).unwrap_or_else(|e| {
                eprintln!("cannot resume from {}: {e}", path.display());
                std::process::exit(2);
            })
        }
        _ => Simulation::new(params),
    };
    if cfg.backend == Backend::Gpusim {
        let dev = gpusim::Device::new(gpusim::DeviceSpec::tesla_c2050());
        sim = sim.with_backend(Box::new(gpusim::DeviceBackend::new(dev)));
    }

    match ckpt.as_deref().map(Path::new) {
        Some(path) => {
            sim.run_with_checkpoints(path, cfg.checkpoint_every)
                .unwrap_or_else(|e| {
                    eprintln!("checkpointing to {} failed: {e}", path.display());
                    std::process::exit(2);
                });
        }
        None => sim.run(),
    }

    let recovery = sim.recovery_log();
    if recovery.total() > 0 {
        println!("# recovery: {}", recovery.summary());
    }

    let obs = sim.observables();
    let (sign, sign_err) = obs.avg_sign();
    let (rho, rho_err) = obs.density();
    let (docc, docc_err) = obs.double_occupancy();
    let (ekin, ekin_err) = obs.kinetic_energy();
    let (epot, epot_err) = obs.potential_energy();
    let (saf, saf_err) = obs.af_structure_factor();

    println!("\n## scalar observables (per site)");
    let mut t = Table::new(vec!["observable", "value", "error"]);
    t.row(vec!["sign".into(), fmt_f(sign, 6), fmt_f(sign_err, 6)]);
    t.row(vec!["density".into(), fmt_f(rho, 6), fmt_f(rho_err, 6)]);
    t.row(vec![
        "double-occ".into(),
        fmt_f(docc, 6),
        fmt_f(docc_err, 6),
    ]);
    t.row(vec!["e-kinetic".into(), fmt_f(ekin, 6), fmt_f(ekin_err, 6)]);
    t.row(vec![
        "e-potential".into(),
        fmt_f(epot, 6),
        fmt_f(epot_err, 6),
    ]);
    t.row(vec!["S(pi,pi)".into(), fmt_f(saf, 6), fmt_f(saf_err, 6)]);
    t.row(vec![
        "P_s(q=0)".into(),
        fmt_f(obs.swave_structure_factor(), 6),
        "-".into(),
    ]);
    print!("{}", t.render());
    println!(
        "\nacceptance {:.3}, max wrap error {:.2e}",
        sim.acceptance_rate(),
        sim.max_wrap_error()
    );

    // Momentum distribution along the symmetry path (square even lattices).
    if spec.layers == 1 && spec.lx == spec.ly && spec.lx.is_multiple_of(2) {
        println!("\n## <n_k> along (0,0)->(pi,pi)->(pi,0)->(0,0)");
        for (arc, v) in obs.momentum_distribution_path() {
            println!("{arc:.4}  {v:.4}");
        }
    }

    if let Some(tdm) = sim.time_dependent() {
        println!("\n## G_loc(tau)");
        for (tau, (g, e)) in tdm.taus().iter().zip(tdm.gloc()) {
            println!("{tau:.4}  {g:.5}  {e:.5}");
        }
    }

    println!("\n## phase breakdown");
    for (phase, secs, pct) in sim.phase_report().rows {
        if secs > 0.0 {
            println!("{phase:<16} {secs:>9.3}s  {pct:>5.1}%");
        }
    }
}
