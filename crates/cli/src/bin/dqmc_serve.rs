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
//! HTTP for probes. By default it listens on 127.0.0.1:7070 with one
//! worker, no devices, no cache and in-process execution (`--fleet 0`).

use serve::{FleetPolicy, Server};
use util::settings::fail;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-child") {
        // Fleet re-entry point: a fleet-enabled server launches this same
        // binary per shard with `shard-child <manifest> <report> <beat>`.
        std::process::exit(fleet::child_main(&args[1..]));
    }
    let mut cmd = dqmc_cli::SERVE.read(&args);
    let (addr, config, fleet) = (&cmd.addr, &mut cmd.config, cmd.fleet);

    if fleet > 0 {
        let child = fleet::ChildCommand::current_exe("shard-child").unwrap_or_else(|e| {
            fail(
                1,
                format!("cannot locate own executable for fleet children: {e}"),
            )
        });
        let dir = cmd.fleet_dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("dqmc-serve-fleet-{}", std::process::id()))
        });
        config.fleet = Some(FleetPolicy {
            procs: fleet,
            child,
            dir,
        });
    }

    let server =
        Server::bind(addr, config).unwrap_or_else(|e| fail(1, format!("cannot bind {addr}: {e}")));
    println!(
        "dqmc-serve listening on {} ({} workers, {} devices, cache {}, fleet {})",
        server.local_addr(),
        config.service.workers,
        config.service.devices,
        config
            .cache_dir
            .as_ref()
            .map_or("off".to_string(), |p| p.display().to_string()),
        if fleet > 0 {
            format!("{fleet} procs")
        } else {
            "off".to_string()
        },
    );
    if let Err(e) = server.run() {
        fail(1, format!("server error: {e}"));
    }
}
