//! `dqmc-run` — run a DQMC simulation from a QUEST-style input file.
//!
//! ```sh
//! dqmc-run path/to/input.in           # or: dqmc-run - < input.in
//! dqmc-run sweep grid.sweep           # parameter-sweep campaign
//! dqmc-run sweep grid.sweep -o r.json # also write the JSON report
//! dqmc-run shard grid.sweep --procs 4 --workdir shards/   # process fleet
//! dqmc-run merge shards/ -o obs.json  # recombine shard reports
//! dqmc-run sweep --help               # every command has one
//! ```

use dqmc::Simulation;
use dqmc_cli::{fail, submit_exit, Backend, InputFile};
use fleet::{ChildCommand, FleetConfig};
use sched::{EventLog, GridSpec, SchedConfig, TraceEvent};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Base backoff between `dqmc-run submit` resubmission attempts.
const SUBMIT_BACKOFF: Duration = Duration::from_millis(100);

/// The text of `path`; one that cannot be read exits 2.
fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(2, format!("cannot read {path}: {e}")))
}

/// Writes `bytes` to `path` atomically; a failed write exits 2.
fn write_or_exit(path: &str, bytes: &[u8]) {
    util::vfs::write_atomic(Path::new(path), bytes)
        .unwrap_or_else(|e| fail(2, format!("cannot write {path}: {e}")));
}

/// Writes an observables document to `out`, or prints it when `out` is
/// `None`.
fn emit_observables(out: Option<&str>, observables: &str) {
    match out {
        Some(path) => {
            write_or_exit(path, observables.as_bytes());
            eprintln!("# observables written to {path}");
        }
        None => println!("{observables}"),
    }
}

/// `dqmc-run sweep`: run a declared (U, β) grid through the
/// checkpoint-aware scheduler and print the pooled jackknife estimates per
/// point.
fn run_sweep_cmd(cmd: dqmc_cli::Sweep) -> ! {
    let spec = GridSpec::parse(&read_or_exit(&cmd.grid)).unwrap_or_else(|e| fail(2, e));

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

    if cmd.trace {
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

    if let Some(path) = &cmd.out {
        write_or_exit(path, report.to_json().as_bytes());
        println!("# report written to {path}");
    }
    if let Some(path) = &cmd.obs_out {
        // The observables document alone — the byte-deterministic layer a
        // fleet merge (or served campaign) is compared against.
        write_or_exit(path, report.observables_json().as_bytes());
        println!("# observables written to {path}");
    }
    std::process::exit(if report.failed_jobs == 0 { 0 } else { 1 });
}

/// `dqmc-run shard`: run the grid as a supervised process fleet and print
/// the byte-deterministically merged observables document.
fn run_shard_cmd(cmd: dqmc_cli::Shard) -> ! {
    let text = read_or_exit(&cmd.grid);
    let child = ChildCommand::current_exe("shard-child")
        .unwrap_or_else(|e| fail(1, format!("cannot locate own executable: {e}")));
    // An explicit workdir implies the caller wants the shard files (for a
    // later `dqmc-run merge`); a scratch dir is cleaned up unless --keep.
    let explicit_workdir = cmd.workdir.is_some();
    let dir = cmd
        .workdir
        .unwrap_or_else(|| std::env::temp_dir().join(format!("dqmc-shard-{}", std::process::id())));
    let mut cfg = FleetConfig::new(cmd.procs, child, dir);
    cfg.keep_files = cmd.keep || explicit_workdir;
    if let Some(ms) = cmd.heartbeat_timeout_ms {
        cfg.heartbeat_timeout = Duration::from_millis(ms.get());
    }
    let outcome =
        fleet::run_fleet(&text, &cfg).unwrap_or_else(|e| fail(1, format!("fleet run failed: {e}")));
    if cmd.trace {
        eprintln!("## process health ledger");
        for line in &outcome.ledger {
            eprintln!("# {line}");
        }
    }
    eprintln!(
        "# fleet: {} shards, {} respawns, {} kills, {:.2}s wall",
        outcome.shards, outcome.respawns, outcome.kills, outcome.wall_seconds
    );
    emit_observables(cmd.out.as_deref(), &outcome.observables);
    std::process::exit(if outcome.merged.failed_chains == 0 {
        0
    } else {
        1
    });
}

/// `dqmc-run merge`: recombine shard report files into the single-process
/// observables document.
fn run_merge_cmd(cmd: dqmc_cli::Merge) -> ! {
    // A directory argument expands to its *.dqsr files, sorted by name so
    // the merge input set is deterministic.
    let mut reports: Vec<PathBuf> = Vec::new();
    for input in cmd.inputs {
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
                Err(e) => fail(2, format!("cannot scrub {}: {e}", input.display())),
            }
            let mut found: Vec<PathBuf> = std::fs::read_dir(&input)
                .unwrap_or_else(|e| fail(2, format!("cannot list {}: {e}", input.display())))
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "dqsr"))
                .collect();
            found.sort();
            reports.extend(found);
        } else {
            reports.push(input);
        }
    }
    if reports.is_empty() {
        fail(2, "no shard reports (*.dqsr) found");
    }
    let decoded: Vec<_> = reports
        .iter()
        .map(|path| fleet::ShardReport::read(path).unwrap_or_else(|e| fail(2, e)))
        .collect();
    let merged =
        fleet::merge_reports(&decoded).unwrap_or_else(|e| fail(1, format!("merge refused: {e}")));
    eprintln!(
        "# merged {} points from {} shard reports",
        merged.points.len(),
        decoded.len()
    );
    emit_observables(cmd.out.as_deref(), &merged.observables_json());
    std::process::exit(if merged.failed_chains == 0 { 0 } else { 1 });
}

/// `dqmc-run submit`: submit a grid to a running `dqmc-serve`, print each
/// point as it streams in, then the final observables document.
fn run_submit_cmd(cmd: dqmc_cli::Submit) -> ! {
    let text = read_or_exit(&cmd.grid);
    // Resilient submission: reconnect and resubmit after a mid-stream
    // disconnect. The server's content-addressed cache makes the retry
    // idempotent — completed points replay as cache hits, not reruns.
    let outcome = serve::Client::submit_resilient(
        &cmd.addr,
        &cmd.tenant,
        cmd.priority,
        &text,
        5,
        SUBMIT_BACKOFF,
        |p| {
            println!(
                "# point {} {}: {}",
                p.index,
                if p.cached { "cached" } else { "computed" },
                p.json
            );
        },
    )
    .unwrap_or_else(|e| {
        // Queue back-pressure and shutdown get distinct exit codes so
        // shell callers can retry-with-backoff vs fail over.
        let code = match &e {
            serve::WireError::Rejected(reason) => submit_exit::for_rejection(reason),
            _ => submit_exit::FAILED,
        };
        fail(code, format!("submission failed: {e}"))
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

/// `dqmc-run serve-shutdown`: ask a running `dqmc-serve` to drain and exit.
fn run_serve_shutdown_cmd(cmd: dqmc_cli::ServeShutdown) -> ! {
    let addr = cmd.addr;
    let mut client = serve::Client::connect(&addr)
        .unwrap_or_else(|e| fail(1, format!("cannot connect to {addr}: {e}")));
    client
        .shutdown()
        .unwrap_or_else(|e| fail(1, format!("shutdown failed: {e}")));
    println!("# server at {addr} acknowledged shutdown");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("sweep") => run_sweep_cmd(dqmc_cli::SWEEP.read(rest)),
        Some("shard") => run_shard_cmd(dqmc_cli::SHARD.read(rest)),
        Some("merge") => run_merge_cmd(dqmc_cli::MERGE.read(rest)),
        // Fleet re-entry point: the supervisor launches this same binary
        // with `shard-child <manifest> <report> <heartbeat>`.
        Some("shard-child") => std::process::exit(fleet::child_main(rest)),
        Some("submit") => run_submit_cmd(dqmc_cli::SUBMIT.read(rest)),
        Some("serve-shutdown") => run_serve_shutdown_cmd(dqmc_cli::SERVE_SHUTDOWN.read(rest)),
        _ => {}
    }
    let input = dqmc_cli::RUN.read(&args);
    let text = if input == "-" {
        std::io::read_to_string(std::io::stdin()).expect("reading stdin")
    } else {
        read_or_exit(&input)
    };
    let cfg = InputFile::parse(&text).unwrap_or_else(|e| fail(2, e));

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

    let ckpt = cfg.checkpoint.as_deref().map(Path::new);
    // A run killed mid-checkpoint strands a temp file next to the
    // checkpoint; scrub it before resuming so debris never accumulates.
    if let Some(path) = ckpt {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let dir = dir.unwrap_or(Path::new("."));
        match util::vfs::scrub_tmp(dir) {
            Ok(scrubbed) if scrubbed.count() > 0 => println!(
                "# scrubbed {} stranded tmp file(s) near checkpoint {}",
                scrubbed.count(),
                path.display()
            ),
            _ => {}
        }
    }
    let mut sim = match ckpt {
        Some(path) if path.exists() => {
            println!("# resuming from checkpoint {}", path.display());
            Simulation::resume(path, &params)
                .unwrap_or_else(|e| fail(2, format!("cannot resume from {}: {e}", path.display())))
        }
        _ => Simulation::new(params),
    };
    if cfg.backend == Backend::Gpusim {
        let dev = gpusim::Device::new(gpusim::DeviceSpec::tesla_c2050());
        sim = sim.with_backend(Box::new(gpusim::DeviceBackend::new(dev)));
    }

    match ckpt {
        Some(path) => {
            let failed = |e| {
                fail(
                    2,
                    format!("checkpointing to {} failed: {e}", path.display()),
                )
            };
            sim.run_with_checkpoints(path, cfg.checkpoint_every)
                .unwrap_or_else(failed);
        }
        None => sim.run(),
    }

    let recovery = sim.recovery_log();
    if recovery.total() > 0 {
        println!("# recovery: {}", recovery.summary());
    }

    let obs = sim.observables();
    println!("\n## scalar observables (per site)");
    print!("{}", dqmc_cli::scalar_table(obs));
    println!(
        "\nacceptance {:.3}, max wrap error {:.2e}",
        sim.acceptance_rate(),
        sim.max_wrap_error()
    );

    // Momentum distribution along the symmetry path (square even lattices).
    if spec.layers == 1 && spec.lx == spec.ly && spec.lx.is_multiple_of(2) {
        println!("\n## <n_k> along (0,0)->(pi,pi)->(pi,0)->(0,0)");
        print!("{}", dqmc_cli::nk_table(obs));
    }

    if let Some(tdm) = sim.time_dependent() {
        println!("\n## G_loc(tau)");
        print!("{}", dqmc_cli::gloc_table(tdm));
    }

    println!("\n## phase breakdown");
    for (phase, secs, pct) in sim.phase_report().rows {
        if secs > 0.0 {
            println!("{phase:<16} {secs:>9.3}s  {pct:>5.1}%");
        }
    }
}
