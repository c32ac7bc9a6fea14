//! The fleet supervisor: plans shards, spawns child processes, watches
//! their heartbeats, and recombines their reports byte-deterministically.
//!
//! Supervision is a single-threaded poll loop over per-shard state
//! machines — no locks, no channels; the kernel's process table and the
//! shard files on disk are the shared state. A child is healthy while its
//! heartbeat counter file keeps changing; a wedged child (stale heartbeat
//! past the timeout) is killed and treated exactly like a crash. Crashed
//! shards respawn from their own report checkpoint up to a bounded budget,
//! after which the shard is quarantined and the campaign reports exactly
//! which points are missing — a partial fleet never fabricates bytes.
//!
//! Every supervision event is recorded in a plain-text **health ledger**
//! (spawn, exit, stale-heartbeat kill, respawn, quarantine, completion),
//! the process-level analogue of the scheduler's in-process event log.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sched::{GridSpec, ShardPlan};

use crate::child::{ENV_EXIT_AFTER, ENV_FAULT_SHARD, ENV_HANG_AFTER};
use crate::manifest::ShardManifest;
use crate::report::{merge_reports, MergeError, MergedReport, ShardReport};

/// How to launch one shard child.
#[derive(Clone, Debug)]
pub struct ChildCommand {
    /// Executable to spawn (usually [`std::env::current_exe`]).
    pub program: PathBuf,
    /// Arguments placed *before* the manifest/report/heartbeat paths —
    /// e.g. `["shard-child"]` for the `dqmc-run` re-entry point.
    pub args: Vec<String>,
    /// Extra environment for first spawns — how the test tier arms
    /// `DQMC_FLEET_*` fault hooks per fleet run without mutating the
    /// parent's (process-global, thread-unsafe) environment. Hook
    /// variables are stripped on respawn like inherited ones.
    pub envs: Vec<(String, String)>,
}

impl ChildCommand {
    /// Re-enters the current executable with a leading mode argument.
    pub fn current_exe(mode: &str) -> std::io::Result<ChildCommand> {
        Ok(ChildCommand {
            program: std::env::current_exe()?,
            args: vec![mode.to_string()],
            envs: Vec::new(),
        })
    }
}

/// Supervision poll cadence.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Respawns allowed per shard before quarantine.
const RESPAWN_BUDGET: u32 = 2;

/// Fleet tuning knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Shard processes to plan for (actual count is capped by the number
    /// of points).
    pub procs: usize,
    /// How to launch children.
    pub child: ChildCommand,
    /// Directory for manifests, reports, heartbeats, and child logs.
    pub workdir: PathBuf,
    /// A running child whose heartbeat has not advanced for this long is
    /// killed and restarted from its checkpoint.
    pub heartbeat_timeout: Duration,
    /// Keep shard files after a successful merge (for debugging).
    pub keep_files: bool,
}

impl FleetConfig {
    /// A config with production-shaped defaults for `procs` shards rooted
    /// at `workdir`.
    pub fn new(procs: usize, child: ChildCommand, workdir: PathBuf) -> FleetConfig {
        FleetConfig {
            procs,
            child,
            workdir,
            heartbeat_timeout: Duration::from_secs(30),
            keep_files: false,
        }
    }
}

/// Why a fleet campaign failed.
#[derive(Debug)]
pub enum FleetError {
    /// The grid text did not parse.
    Grid(String),
    /// Filesystem or process-spawn trouble.
    Io(String),
    /// A shard exhausted its respawn budget; its unfinished points are
    /// listed.
    ShardFailed {
        /// The quarantined shard.
        shard: usize,
        /// Spawn attempts consumed (1 initial + respawns).
        attempts: u32,
        /// Points the shard never finished.
        missing: Vec<usize>,
    },
    /// Reports refused to recombine (fingerprint skew, duplicate or
    /// missing coverage).
    Merge(MergeError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Grid(e) => write!(f, "grid error: {e}"),
            FleetError::Io(e) => write!(f, "fleet i/o error: {e}"),
            FleetError::ShardFailed {
                shard,
                attempts,
                missing,
            } => write!(
                f,
                "shard {shard} quarantined after {attempts} attempts; \
                 unfinished points {missing:?}"
            ),
            FleetError::Merge(e) => write!(f, "merge refused: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// The result of a fleet campaign.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The recombined campaign.
    pub merged: MergedReport,
    /// The observables JSON document — byte-identical to the
    /// single-process sweep's.
    pub observables: String,
    /// Shard processes planned (≤ `procs`).
    pub shards: usize,
    /// Respawns across all shards.
    pub respawns: u32,
    /// Stale-heartbeat kills across all shards.
    pub kills: u32,
    /// The process health ledger: one line per supervision event.
    pub ledger: Vec<String>,
    /// Wall-clock seconds for the whole fleet run.
    pub wall_seconds: f64,
}

/// One shard's supervision state.
struct ShardState {
    shard: usize,
    manifest_path: PathBuf,
    report_path: PathBuf,
    heartbeat_path: PathBuf,
    log_path: PathBuf,
    child: Option<Child>,
    /// Last heartbeat counter observed, and when it last changed.
    last_beat: (u64, Instant),
    attempts: u32,
    done: bool,
}

/// Runs a whole grid as a process fleet. See [`run_fleet_subset`].
pub fn run_fleet(grid_text: &str, cfg: &FleetConfig) -> Result<FleetOutcome, FleetError> {
    run_fleet_subset(grid_text, None, cfg)
}

/// Runs a fleet over a subset of canonical point indices (`None` = whole
/// grid), supervising children until every shard's report is complete,
/// then merging byte-deterministically.
pub fn run_fleet_subset(
    grid_text: &str,
    points: Option<&[usize]>,
    cfg: &FleetConfig,
) -> Result<FleetOutcome, FleetError> {
    let start = Instant::now();
    let spec = GridSpec::parse(grid_text).map_err(|e| FleetError::Grid(e.to_string()))?;
    let fingerprint = sched::grid_fingerprint(&spec);
    let plan: ShardPlan = match points {
        None => sched::plan_shards(&spec, cfg.procs),
        Some(p) => sched::plan_shard_subset(&spec, p, cfg.procs),
    };
    std::fs::create_dir_all(&cfg.workdir)
        .map_err(|e| FleetError::Io(format!("workdir {}: {e}", cfg.workdir.display())))?;

    let mut ledger: Vec<String> = Vec::new();
    // Scrub crash debris from earlier incarnations before writing new
    // manifests: stranded `.tmp` files from a killed fleet are dead
    // weight and must never be mistaken for live work.
    let scrubbed = util::vfs::scrub_tmp(&cfg.workdir)
        .map_err(|e| FleetError::Io(format!("scrub workdir {}: {e}", cfg.workdir.display())))?;
    if scrubbed.count() > 0 {
        ledger.push(format!(
            "fleet: scrubbed {} stranded tmp file(s) from workdir: {}",
            scrubbed.count(),
            scrubbed.removed.join(", ")
        ));
    }
    let mut states: Vec<ShardState> = Vec::with_capacity(plan.blocks.len());
    for block in &plan.blocks {
        let manifest = ShardManifest {
            shard: block.shard,
            nshards: plan.blocks.len(),
            fingerprint,
            grid_text: grid_text.to_string(),
            points: block.points.clone(),
        };
        let stem = cfg.workdir.join(format!("shard-{}", block.shard));
        let manifest_path = stem.with_extension("dqsm");
        manifest
            .write(&manifest_path)
            .map_err(|e| FleetError::Io(format!("manifest {}: {e}", manifest_path.display())))?;
        states.push(ShardState {
            shard: block.shard,
            manifest_path,
            report_path: stem.with_extension("dqsr"),
            heartbeat_path: stem.with_extension("beat"),
            log_path: stem.with_extension("log"),
            child: None,
            last_beat: (0, Instant::now()),
            attempts: 0,
            done: false,
        });
    }

    let mut respawns = 0u32;
    let mut kills = 0u32;

    if let Err(e) = supervise(&mut states, cfg, &mut ledger, &mut respawns, &mut kills) {
        // Never leave orphans: a failed fleet reaps every child it spawned.
        for st in &mut states {
            if let Some(mut child) = st.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        return Err(e);
    }

    let mut reports = Vec::with_capacity(states.len());
    for st in &states {
        reports.push(ShardReport::read(&st.report_path).map_err(FleetError::Io)?);
    }
    let merged = merge_reports(&reports).map_err(FleetError::Merge)?;
    let observables = merged.observables_json();
    ledger.push(format!(
        "fleet: merged {} points from {} shards",
        merged.points.len(),
        states.len()
    ));

    if !cfg.keep_files {
        for st in &states {
            for p in [
                &st.manifest_path,
                &st.report_path,
                &st.heartbeat_path,
                &st.log_path,
            ] {
                let _ = std::fs::remove_file(p);
            }
        }
        // Only succeeds when nothing else lives in the workdir — callers
        // that share the directory keep it.
        let _ = std::fs::remove_dir(&cfg.workdir);
    }

    Ok(FleetOutcome {
        merged,
        observables,
        shards: states.len(),
        respawns,
        kills,
        ledger,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Spawns every shard and polls the fleet until all shards are done.
fn supervise(
    states: &mut [ShardState],
    cfg: &FleetConfig,
    ledger: &mut Vec<String>,
    respawns: &mut u32,
    kills: &mut u32,
) -> Result<(), FleetError> {
    // Initial spawns inherit the caller's environment — including any
    // scripted DQMC_FLEET_* fault hooks the test tier armed.
    for st in states.iter_mut() {
        spawn_child(st, cfg, false, ledger)?;
    }
    loop {
        let mut all_done = true;
        for st in states.iter_mut() {
            if st.done {
                continue;
            }
            all_done = false;
            poll_shard(st, cfg, ledger, respawns, kills)?;
        }
        if all_done {
            return Ok(());
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Spawns (or respawns) a shard child, appending its stdout/stderr to the
/// shard log. Respawns strip the scripted fault hooks so a rehearsed
/// crash fires exactly once.
fn spawn_child(
    st: &mut ShardState,
    cfg: &FleetConfig,
    is_respawn: bool,
    ledger: &mut Vec<String>,
) -> Result<(), FleetError> {
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&st.log_path)
        .map_err(|e| FleetError::Io(format!("shard log {}: {e}", st.log_path.display())))?;
    let err_log = log
        .try_clone()
        .map_err(|e| FleetError::Io(format!("shard log {}: {e}", st.log_path.display())))?;
    let mut cmd = Command::new(&cfg.child.program);
    cmd.args(&cfg.child.args)
        .arg(&st.manifest_path)
        .arg(&st.report_path)
        .arg(&st.heartbeat_path)
        .stdin(Stdio::null())
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(err_log));
    for (k, v) in &cfg.child.envs {
        cmd.env(k, v);
    }
    if is_respawn {
        // Scripted hooks and any armed I/O fault plan fire exactly once:
        // the respawn must run clean or recovery could never converge.
        cmd.env_remove(ENV_EXIT_AFTER)
            .env_remove(ENV_HANG_AFTER)
            .env_remove(ENV_FAULT_SHARD)
            .env_remove(util::vfs::ENV_FAULTS);
    }
    let child = cmd
        .spawn()
        .map_err(|e| FleetError::Io(format!("spawn {}: {e}", cfg.child.program.display())))?;
    st.attempts += 1;
    ledger.push(format!(
        "shard {}: {} pid {} (attempt {})",
        st.shard,
        if is_respawn { "respawned" } else { "spawned" },
        child.id(),
        st.attempts
    ));
    st.child = Some(child);
    st.last_beat = (read_beat(&st.heartbeat_path), Instant::now());
    Ok(())
}

/// Reads the heartbeat counter; a missing or short file reads as 0.
pub(crate) fn read_beat(path: &Path) -> u64 {
    match std::fs::read(path) {
        Ok(b) if b.len() >= 8 => u64::from_le_bytes(b[..8].try_into().expect("8 bytes")),
        _ => 0,
    }
}

/// One supervision step for one shard: exit handling, heartbeat staleness,
/// respawn-or-quarantine.
fn poll_shard(
    st: &mut ShardState,
    cfg: &FleetConfig,
    ledger: &mut Vec<String>,
    respawns: &mut u32,
    kills: &mut u32,
) -> Result<(), FleetError> {
    let Some(child) = st.child.as_mut() else {
        return Ok(());
    };
    match child.try_wait() {
        Ok(Some(status)) => {
            st.child = None;
            let complete = ShardReport::read(&st.report_path)
                .map(|r| r.is_complete())
                .unwrap_or(false);
            if status.success() && complete {
                ledger.push(format!("shard {}: complete ({status})", st.shard));
                st.done = true;
                return Ok(());
            }
            ledger.push(format!(
                "shard {}: exited {status}, report {}",
                st.shard,
                if complete { "complete" } else { "incomplete" }
            ));
            respawn_or_quarantine(st, cfg, ledger, respawns)
        }
        Ok(None) => {
            // Still running: advance the heartbeat clock, then judge it.
            let beat = read_beat(&st.heartbeat_path);
            if beat != st.last_beat.0 {
                st.last_beat = (beat, Instant::now());
            } else if st.last_beat.1.elapsed() > cfg.heartbeat_timeout {
                ledger.push(format!(
                    "shard {}: heartbeat stale for {:?}, killing pid {}",
                    st.shard,
                    cfg.heartbeat_timeout,
                    child.id()
                ));
                let _ = child.kill();
                let _ = child.wait();
                st.child = None;
                *kills += 1;
                return respawn_or_quarantine(st, cfg, ledger, respawns);
            }
            Ok(())
        }
        Err(e) => Err(FleetError::Io(format!("wait on shard {}: {e}", st.shard))),
    }
}

fn respawn_or_quarantine(
    st: &mut ShardState,
    cfg: &FleetConfig,
    ledger: &mut Vec<String>,
    respawns: &mut u32,
) -> Result<(), FleetError> {
    if st.attempts > RESPAWN_BUDGET {
        ledger.push(format!(
            "shard {}: quarantined after {} attempts",
            st.shard, st.attempts
        ));
        let missing = ShardReport::read(&st.report_path)
            .map(|r| r.missing_points())
            .unwrap_or_default();
        return Err(FleetError::ShardFailed {
            shard: st.shard,
            attempts: st.attempts,
            missing,
        });
    }
    *respawns += 1;
    spawn_child(st, cfg, true, ledger)
}
