//! `dqmc-serve` — the resident sweep service.
//!
//! ```sh
//! dqmc-serve --addr 127.0.0.1:7070 --workers 2 --cache-dir /var/cache/dqmc
//! ```
//!
//! Accepts DQSF submissions (see `dqmc-run submit`), multiplexes tenants
//! into one priority queue, streams per-point observables as they
//! complete, and serves repeat requests from the content-addressed result
//! cache. `GET /healthz` and `GET /stats` on the same port answer plain
//! HTTP for probes.

use dqmc_cli::flag_value;
use serve::{FleetPolicy, Server, ServerConfig};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: dqmc-serve [--addr host:port] [--workers N] [--devices N]");
    eprintln!("         [--quantum SWEEPS] [--queue-bound N] [--job-retries N]");
    eprintln!("         [--cache-dir PATH] [--max-tenant-campaigns N]");
    eprintln!("         [--fleet N] [--fleet-dir PATH]");
    eprintln!("defaults: --addr 127.0.0.1:7070, 1 worker, no devices, no cache,");
    eprintln!("          in-process execution (--fleet 0)");
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    let value: String = flag_value(flag, "a value", value);
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs an unsigned integer, got '{value}'");
        usage();
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-child") {
        // Fleet re-entry point: a fleet-enabled server launches this same
        // binary per shard with `shard-child <manifest> <report> <beat>`.
        std::process::exit(fleet::child_main(&args[1..]));
    }
    let mut addr = "127.0.0.1:7070".to_string();
    let mut cfg = ServerConfig::default();
    let mut fleet_procs = 0usize;
    let mut fleet_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = flag_value(a, "a value", it.next()),
            "--workers" => cfg.service.workers = parse_num::<usize>(a, it.next()).max(1),
            "--devices" => cfg.service.devices = parse_num(a, it.next()),
            "--quantum" => cfg.service.quantum = parse_num(a, it.next()),
            "--queue-bound" => cfg.service.queue_bound = parse_num(a, it.next()),
            "--job-retries" => cfg.service.job_retries = parse_num(a, it.next()),
            "--max-tenant-campaigns" => cfg.max_tenant_campaigns = parse_num(a, it.next()),
            "--cache-dir" => cfg.cache_dir = Some(flag_value(a, "a path", it.next())),
            "--fleet" => fleet_procs = parse_num(a, it.next()),
            "--fleet-dir" => fleet_dir = Some(flag_value(a, "a path", it.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unexpected argument '{other}'");
                usage();
            }
        }
    }

    if fleet_procs > 0 {
        let child = fleet::ChildCommand::current_exe("shard-child").unwrap_or_else(|e| {
            eprintln!("cannot locate own executable for fleet children: {e}");
            std::process::exit(1);
        });
        let dir = fleet_dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("dqmc-serve-fleet-{}", std::process::id()))
        });
        cfg.fleet = Some(FleetPolicy {
            procs: fleet_procs,
            child,
            dir,
        });
    }

    let server = Server::bind(&addr, &cfg).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    println!(
        "dqmc-serve listening on {} ({} workers, {} devices, cache {}, fleet {})",
        server.local_addr(),
        cfg.service.workers,
        cfg.service.devices,
        cfg.cache_dir
            .as_ref()
            .map_or("off".to_string(), |p| p.display().to_string()),
        if fleet_procs > 0 {
            format!("{fleet_procs} procs")
        } else {
            "off".to_string()
        },
    );
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
}
