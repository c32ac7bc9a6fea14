//! Tier: fleet. Multi-process sharding against real child processes.
//!
//! These tests spawn the workspace's `fleet-child` binary (built by Cargo
//! for this package's test runs) and pin the fleet contract end to end:
//!
//! 1. **Byte identity**: `run_fleet` over P ∈ {1, 2, 4} processes emits an
//!    observables document byte-identical to the in-process `run_sweep`
//!    of the same grid — including with scripted device faults armed.
//! 2. **Crash recovery**: a child killed mid-sweep (scripted exit after
//!    its first finished point) is respawned from its report checkpoint
//!    and the merged bytes still match.
//! 3. **Wedge recovery**: a child whose heartbeat freezes is detected,
//!    killed, respawned — same bytes. Failing durable writes cannot
//!    freeze a healthy child's beat: it is not one.
//! 4. **Quarantine**: a child that can never succeed exhausts its respawn
//!    budget and the fleet reports exactly which shard failed instead of
//!    fabricating output.
//! 5. **Standalone merge**: shard report files left on disk recombine via
//!    [`fleet::merge_reports`] to the same bytes (the `dqmc-run merge`
//!    path).
//! 6. **Served fleet**: a `dqmc-serve`-shaped server with a fleet policy
//!    returns the same bytes over the wire, and its second submission is
//!    a pure cache hit.

use fleet::{ChildCommand, FleetConfig, FleetError};
use sched::{EventLog, GridSpec, SchedConfig};
use serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// The campaign grid: 4 points, preemption quanta, device placement, and
/// scripted one-shot faults — all the scheduling chaos the determinism
/// contract says cannot move a byte.
const GRID: &str = "
    lx = 2
    ly = 2
    u = 2.0, 4.0
    beta = 1.0, 2.0
    chains = 2
    warmup = 2
    sweeps = 6
    bin_size = 2
    cluster_size = 4
    seed = 37
    workers = 2
    devices = 1
    quantum = 3
    faults = fail_launch:2
";

/// In-process reference bytes for a grid.
fn baseline(grid: &str) -> String {
    let spec = GridSpec::parse(grid).expect("grid parses");
    let cfg = SchedConfig::from_spec(&spec);
    sched::run_sweep(&spec, &cfg, &EventLog::new()).observables_json()
}

/// The shard-child executable Cargo built for this test run.
fn child() -> ChildCommand {
    ChildCommand {
        program: PathBuf::from(env!("CARGO_BIN_EXE_fleet-child")),
        args: Vec::new(),
        envs: Vec::new(),
    }
}

/// Per-test scratch dir (pid-scoped; cleaned on entry).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dqmc_fleet_test_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A test-paced config: a heartbeat timeout far above a healthy child's
/// 25 ms beat but short enough to keep the wedge test quick.
fn config(tag: &str, procs: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(procs, child(), scratch(tag));
    cfg.heartbeat_timeout = Duration::from_secs(2);
    cfg
}

#[test]
fn fleet_bytes_match_single_process_for_1_2_4_procs() {
    let want = baseline(GRID);
    for procs in [1usize, 2, 4] {
        let out = fleet::run_fleet(GRID, &config(&format!("p{procs}"), procs))
            .unwrap_or_else(|e| panic!("fleet procs={procs}: {e}"));
        assert_eq!(out.observables, want, "procs={procs} bytes diverged");
        assert_eq!(out.shards, procs, "4-point grid supports up to 4 shards");
        assert_eq!(out.respawns, 0);
        assert_eq!(out.kills, 0);
        assert_eq!(out.merged.points.len(), 4);
    }
}

#[test]
fn child_killed_mid_sweep_respawns_from_checkpoint_with_identical_bytes() {
    let want = baseline(GRID);
    let mut cfg = config("crash", 2);
    // Shard 0 exits with code 86 after checkpointing its first point; the
    // respawn (hooks stripped) must finish only the remaining points.
    cfg.child.envs = vec![
        (fleet::child::ENV_EXIT_AFTER.into(), "1".into()),
        (fleet::child::ENV_FAULT_SHARD.into(), "0".into()),
    ];
    let out = fleet::run_fleet(GRID, &cfg).expect("fleet survives a child crash");
    assert_eq!(out.observables, want, "crash recovery moved bytes");
    assert_eq!(out.respawns, 1, "exactly one respawn for the scripted exit");
    assert!(
        out.ledger.iter().any(|l| l.contains("respawned")),
        "ledger records the respawn: {:?}",
        out.ledger
    );
}

#[test]
fn wedged_child_is_killed_on_stale_heartbeat_and_bytes_match() {
    let want = baseline(GRID);
    let mut cfg = config("wedge", 2);
    // Shard 1 freezes its heartbeat after its first point and sleeps
    // forever: only the supervisor's stale-heartbeat kill can end it.
    cfg.child.envs = vec![
        (fleet::child::ENV_HANG_AFTER.into(), "1".into()),
        (fleet::child::ENV_FAULT_SHARD.into(), "1".into()),
    ];
    let out = fleet::run_fleet(GRID, &cfg).expect("fleet survives a wedged child");
    assert_eq!(out.observables, want, "wedge recovery moved bytes");
    assert_eq!(out.kills, 1, "exactly one stale-heartbeat kill");
    assert_eq!(out.respawns, 1);
    assert!(
        out.ledger.iter().any(|l| l.contains("heartbeat stale")),
        "ledger records the kill: {:?}",
        out.ledger
    );
}

#[test]
fn heartbeat_is_not_a_durable_write_so_failing_disk_writes_cannot_stop_it() {
    let want = baseline(GRID);
    let mut cfg = config("beatfail", 2);
    // Every durable write to a `.beat` path fails (simulated full disk,
    // scoped so reports and manifests are untouched), and
    // `DQMC_FLEET_BEAT_STREAK=1` asks a child to exit at its first failed
    // beat. Neither reaches the heartbeat: it rewrites its counter in
    // place, outside the durable write path, and reads no such variable.
    // No child exits early, none goes stale, none is respawned.
    cfg.child.envs = vec![
        (
            util::vfs::ENV_FAULTS.into(),
            "scope=.beat;enospc@1-1000000;mode=sim".into(),
        ),
        ("DQMC_FLEET_BEAT_STREAK".into(), "1".into()),
    ];
    let out = fleet::run_fleet(GRID, &cfg).expect("fleet runs beside a failing disk");
    assert_eq!(out.observables, want, "bytes moved");
    assert_eq!(out.respawns, 0, "ledger: {:?}", out.ledger);
    assert_eq!(out.kills, 0, "ledger: {:?}", out.ledger);
}

#[test]
fn unrecoverable_shard_is_quarantined_after_respawn_budget() {
    let mut cfg = config("quarantine", 2);
    // A child that is not a shard worker at all: exits 1 instantly, never
    // writes a report. Every attempt fails the same way.
    cfg.child = ChildCommand {
        program: PathBuf::from("false"),
        args: Vec::new(),
        envs: Vec::new(),
    };
    match fleet::run_fleet(GRID, &cfg) {
        Err(FleetError::ShardFailed {
            attempts, refused, ..
        }) => {
            assert_eq!(attempts, 3, "1 initial spawn + the budget of 2 respawns");
            assert!(!refused, "exit 1 is a crash, not a refusal");
        }
        Err(other) => panic!("expected ShardFailed, got {other}"),
        Ok(_) => panic!("a fleet of /bin/false cannot succeed"),
    }
    // A grid the fleet cannot parse fails before any child spawns, with the
    // parser's message: the line and the key, not a struct dump.
    let line = GRID.lines().count() + 1;
    match fleet::run_fleet(&format!("{GRID}    foo = 1\n"), &cfg) {
        Err(e @ FleetError::Grid(_)) => {
            let shown = e.to_string();
            assert!(shown.contains(&format!("line {line}")), "{shown}");
            assert!(shown.contains("unknown key 'foo'"), "{shown}");
            assert!(!shown.contains("GridError {"), "{shown}");
        }
        Err(other) => panic!("expected a grid error, got {other}"),
        Ok(_) => panic!("a grid with an unknown key cannot run"),
    }
}

#[test]
fn a_refused_launch_is_quarantined_without_a_respawn() {
    // A malformed hook makes shard 0's child exit 2, refusing its launch.
    // A respawn cannot change a refusal (and one without the hooks would
    // hide it), so the shard is quarantined at once, named as refused. One
    // shard: every child reads the hooks before its scope, so with two
    // both would refuse and either could be polled first.
    let mut cfg = config("refused", 1);
    cfg.child.envs = vec![
        (fleet::child::ENV_EXIT_AFTER.into(), "x".into()),
        (fleet::child::ENV_FAULT_SHARD.into(), "0".into()),
    ];
    let err = fleet::run_fleet(GRID, &cfg).expect_err("a refused shard cannot complete");
    let shown = err.to_string();
    let FleetError::ShardFailed {
        shard,
        attempts,
        missing,
        refused,
    } = err
    else {
        panic!("expected a refused shard, got {shown}");
    };
    assert_eq!((shard, attempts), (0, 1), "no respawn after a refusal");
    assert!(refused, "{shown}");
    assert_eq!(
        missing,
        [0, 1, 2, 3],
        "no report: every point is unfinished"
    );
    assert!(shown.contains("refused its launch"), "{shown}");
}

#[test]
fn kept_shard_reports_merge_standalone_to_the_same_bytes() {
    let want = baseline(GRID);
    let mut cfg = config("merge", 2);
    cfg.keep_files = true;
    let out = fleet::run_fleet(GRID, &cfg).expect("fleet run");
    assert_eq!(out.observables, want);

    // Recombine from disk alone — the `dqmc-run merge` path.
    let mut reports = Vec::new();
    for shard in 0..out.shards {
        let path = cfg.workdir.join(format!("shard-{shard}.dqsr"));
        reports.push(fleet::ShardReport::read(&path).expect("report decodes"));
    }
    let merged = fleet::merge_reports(&reports).expect("reports merge");
    assert_eq!(merged.observables_json(), want, "standalone merge diverged");
    let _ = std::fs::remove_dir_all(&cfg.workdir);
}

#[test]
fn served_fleet_campaign_matches_in_process_and_backfills_the_cache() {
    let want = baseline(GRID);
    let cache_dir = scratch("serve_fleet_cache");
    let server = Server::bind(
        "127.0.0.1:0",
        &ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            fleet: Some(serve::FleetPolicy {
                procs: 2,
                child: child(),
                dir: scratch("serve_fleet_work"),
            }),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let handle = server.handle();
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());

    let mut client =
        serve::Client::connect_retry(&addr, 50, Duration::from_millis(20)).expect("connect");
    let cold = client
        .submit_with("fleet-tenant", 0, GRID, |_| {})
        .expect("cold submission");
    assert_eq!(cold.observables, want, "served fleet bytes diverged");
    assert_eq!(cold.computed_points, 4);
    assert_eq!(cold.cached_points, 0);

    // Second submission: every point now comes from the shared DQRC
    // cache — no fleet spawn, same bytes.
    let warm = client
        .submit_with("fleet-tenant", 0, GRID, |_| {})
        .expect("warm submission");
    assert_eq!(warm.observables, want, "warm-hit bytes diverged");
    assert_eq!(warm.cached_points, 4);
    assert_eq!(warm.computed_points, 0);
    assert_eq!(warm.jobs_run, 0, "a warm hit runs no fleet and no jobs");

    // The accept loop joins connection threads on shutdown; close our
    // connection first so its handler can exit.
    drop(client);
    handle.request_shutdown();
    let _ = thread.join();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
