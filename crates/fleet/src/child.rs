//! The shard worker: what runs inside each fleet child process.
//!
//! A child is handed three paths — manifest in, report out, heartbeat
//! out — and nothing else; all campaign state reconstructs from the
//! manifest. It re-parses the grid text, verifies the physics fingerprint,
//! resumes from any partial report left by a previous incarnation, and
//! then runs one [`sched::SweepService`] campaign per remaining point,
//! atomically rewriting the report after each. The report *is* the
//! checkpoint: restart granularity is a whole point, and a rerun point
//! reproduces the dead process's bytes because point summaries are pure
//! functions of (grid, seeds).
//!
//! Health is a heartbeat counter file rewritten in place on a short
//! cadence by a dedicated thread; the supervisor calls a child dead when
//! the counter stops moving. The beat proves the process is scheduled, not
//! that its workers make progress. Scripted fault hooks (env vars,
//! test-only) let the fleet tier rehearse crash and wedge recovery
//! deterministically:
//!
//! - `DQMC_FLEET_EXIT_AFTER=n` — exit with code 86 once the report holds
//!   `n` fragments;
//! - `DQMC_FLEET_HANG_AFTER=n` — freeze the heartbeat and sleep forever
//!   once the report holds `n` fragments (exercises the kill path);
//! - `DQMC_FLEET_FAULT_SHARD=k` — scope either hook to shard `k`.
//!
//! A malformed value (`n` must be at least 1, `k` a shard index) makes the
//! child exit 2 naming the variable, as a malformed `DQMC_VFS_FAULTS` does,
//! rather than run with the hook silently off; a blank one is unset.
//!
//! The supervisor strips these variables when it respawns a child, so a
//! scripted fault fires exactly once and the respawn completes the shard.

use sched::{CampaignRequest, GridSpec, SchedConfig, SweepService};
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use util::settings;

use crate::manifest::ShardManifest;
use crate::report::ShardReport;

/// Exit code for a scripted `DQMC_FLEET_EXIT_AFTER` crash.
pub const SCRIPTED_EXIT_CODE: i32 = 86;
/// Heartbeat rewrite cadence.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(25);

/// Env hook names, shared with the supervisor (which strips them on
/// respawn).
pub const ENV_EXIT_AFTER: &str = "DQMC_FLEET_EXIT_AFTER";
/// See [`ENV_EXIT_AFTER`].
pub const ENV_HANG_AFTER: &str = "DQMC_FLEET_HANG_AFTER";
/// See [`ENV_EXIT_AFTER`].
pub const ENV_FAULT_SHARD: &str = "DQMC_FLEET_FAULT_SHARD";

/// Scripted fault hooks decoded from the environment: fragment counts.
#[derive(Clone, Copy, Debug, Default)]
struct FaultHooks {
    exit_after: Option<u64>,
    hang_after: Option<u64>,
}

impl FaultHooks {
    /// The hooks of shard `shard`, from the values of [`ENV_EXIT_AFTER`],
    /// [`ENV_HANG_AFTER`] and [`ENV_FAULT_SHARD`] (`None` when unset): off
    /// when the scope names another shard. A malformed value is refused
    /// with its variable's name.
    fn parse(
        shard: usize,
        exit_after: Option<&str>,
        hang_after: Option<&str>,
        fault_shard: Option<&str>,
    ) -> Result<FaultHooks, String> {
        let count = |name: &str, v: Option<&str>| {
            let bad = |v| format!("{name}: bad count '{v}' (want 1 or more)");
            v.map(|v| settings::ordinal(v).map_err(|_| bad(v)))
                .transpose()
        };
        let hooks = FaultHooks {
            exit_after: count(ENV_EXIT_AFTER, exit_after)?,
            hang_after: count(ENV_HANG_AFTER, hang_after)?,
        };
        let scope = fault_shard.map(|v| {
            settings::int_in(v, 0..=usize::MAX)
                .map_err(|_| format!("{ENV_FAULT_SHARD}: bad shard index '{v}'"))
        });
        match scope.transpose()? {
            Some(k) if k != shard => Ok(FaultHooks::default()),
            _ => Ok(hooks),
        }
    }

    fn from_env(shard: usize) -> Result<FaultHooks, String> {
        let var = |name| std::env::var(name).ok().filter(|v| !v.trim().is_empty());
        let [exit_after, hang_after, fault_shard] =
            [ENV_EXIT_AFTER, ENV_HANG_AFTER, ENV_FAULT_SHARD].map(var);
        FaultHooks::parse(
            shard,
            exit_after.as_deref(),
            hang_after.as_deref(),
            fault_shard.as_deref(),
        )
    }
}

/// Heartbeat writer: a thread rewriting a counter file until stopped.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(path: PathBuf) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fleet-heartbeat".into())
            .spawn(move || {
                // A failed beat ends the thread: the counter goes stale and
                // the supervisor's stale-heartbeat kill takes over.
                if let Err(e) = beat(&path, &flag) {
                    eprintln!("heartbeat {}: {e}; beat stopped", path.display());
                }
            })
            .expect("spawn heartbeat thread");
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the writer; the counter file goes permanently stale.
    fn freeze(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.freeze();
    }
}

/// Rewrites the counter at `path` every [`HEARTBEAT_PERIOD`] until `stop`
/// is set. This is the one file write that does not go through
/// `util::vfs::write_atomic`: one `pwrite` in place, no fsync, no rename.
/// Nothing reads its durability — the supervisor only asks whether the
/// counter changed (a torn read is just another change), and after a crash
/// the file is debris.
fn beat(path: &Path, stop: &AtomicBool) -> std::io::Result<()> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    let mut n = 0u64;
    while !stop.load(Ordering::Acquire) {
        n += 1;
        file.write_all_at(&n.to_le_bytes(), 0)?;
        std::thread::sleep(HEARTBEAT_PERIOD);
    }
    Ok(())
}

/// Runs a shard to completion. Returns the process exit code.
///
/// `args` are the child's positional arguments:
/// `<manifest> <report> <heartbeat>`.
pub fn child_main(args: &[String]) -> i32 {
    let [manifest_path, report_path, heartbeat_path] = args else {
        eprintln!("usage: shard-child <manifest.dqsm> <report.dqsr> <heartbeat>");
        return 2;
    };
    match run_shard(
        Path::new(manifest_path),
        Path::new(report_path),
        Path::new(heartbeat_path),
    ) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("shard child failed: {e}");
            2
        }
    }
}

fn run_shard(
    manifest_path: &Path,
    report_path: &Path,
    heartbeat_path: &Path,
) -> Result<i32, String> {
    let manifest = ShardManifest::read(manifest_path)?;
    let hooks = FaultHooks::from_env(manifest.shard)?;
    let mut spec =
        GridSpec::parse(&manifest.grid_text).map_err(|e| format!("manifest grid: {e}"))?;
    let fingerprint = sched::grid_fingerprint(&spec);
    if fingerprint != manifest.fingerprint {
        return Err(format!(
            "grid fingerprint {fingerprint:#018x} does not match manifest \
             {:#018x}: stale or foreign manifest",
            manifest.fingerprint
        ));
    }
    // Slot-fault scripts are pool-level scheduling chaos; the resident
    // service refuses them and the determinism tier proves they cannot
    // move observable bytes, so a fleet child simply drops them.
    spec.slot_faults.clear();

    let mut report = resume_or_fresh(report_path, &manifest, &spec);
    report
        .write(report_path)
        .map_err(|e| format!("cannot write shard report {}: {e}", report_path.display()))?;

    let mut heartbeat = Heartbeat::start(heartbeat_path.to_path_buf());

    let service = SweepService::start(&SchedConfig {
        // Namespace the campaign tags by shard so no two fleet processes
        // ever mint the same tag — shard-scoped provenance in traces.
        tag_namespace: manifest.shard as u64 + 1,
        ..SchedConfig::from_spec(&spec)
    });

    let todo = report.missing_points();
    for point in todo {
        if let Some(code) = fire_hooks(&hooks, &report, &mut heartbeat) {
            return Ok(code);
        }
        let handle = service
            .submit(
                &CampaignRequest {
                    spec: spec.clone(),
                    priority: 0,
                    points: Some(vec![point]),
                },
                None,
            )
            .map_err(|e| format!("point {point} refused: {e:?}"))?;
        let outcome = handle.wait();
        report.failed_chains += outcome.failed_chains;
        report.fragments.extend(outcome.points);
        // Checkpoint: the report on disk always describes a prefix of the
        // shard's work, atomically replaced per finished point.
        report.write(report_path).map_err(|e| {
            format!(
                "cannot checkpoint shard report {}: {e}",
                report_path.display()
            )
        })?;
    }
    if let Some(code) = fire_hooks(&hooks, &report, &mut heartbeat) {
        return Ok(code);
    }
    service.shutdown();
    heartbeat.freeze();
    Ok(0)
}

/// Applies scripted fault hooks against the current fragment count.
fn fire_hooks(hooks: &FaultHooks, report: &ShardReport, heartbeat: &mut Heartbeat) -> Option<i32> {
    let reached = |hook: Option<u64>| hook.is_some_and(|n| report.fragments.len() as u64 >= n);
    if reached(hooks.exit_after) {
        return Some(SCRIPTED_EXIT_CODE);
    }
    if reached(hooks.hang_after) {
        // A wedge: heartbeat frozen, process alive. Only the supervisor's
        // kill ends this incarnation.
        heartbeat.freeze();
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    None
}

/// Resumes from a valid partial report for this exact shard, else starts
/// fresh. Any decode or identity failure falls back to fresh — a corrupt
/// checkpoint costs recomputation, never wrong bytes.
fn resume_or_fresh(path: &Path, manifest: &ShardManifest, spec: &GridSpec) -> ShardReport {
    let fresh = ShardReport {
        shard: manifest.shard,
        nshards: manifest.nshards,
        fingerprint: manifest.fingerprint,
        seed: spec.seed,
        chains: spec.chains,
        warmup: spec.warmup,
        sweeps: spec.sweeps,
        assigned: manifest.points.clone(),
        fragments: Vec::new(),
        failed_chains: 0,
    };
    let Ok(prev) = ShardReport::read(path) else {
        return fresh;
    };
    let identity_holds = prev.shard == manifest.shard
        && prev.nshards == manifest.nshards
        && prev.fingerprint == manifest.fingerprint
        && prev.assigned == manifest.points
        && prev.seed == spec.seed
        && prev.chains == spec.chains
        && prev.warmup == spec.warmup
        && prev.sweeps == spec.sweeps;
    if identity_holds {
        prev
    } else {
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::read_beat;

    #[test]
    fn fault_hooks_are_read_scoped_and_refused_when_malformed() {
        let hooks = FaultHooks::parse(0, Some("2"), Some(" 1 "), None).unwrap();
        assert_eq!((hooks.exit_after, hooks.hang_after), (Some(2), Some(1)));
        let scoped = |shard| FaultHooks::parse(shard, Some("1"), None, Some("1")).unwrap();
        assert_eq!(scoped(0).exit_after, None, "scoped to another shard");
        assert_eq!(scoped(1).exit_after, Some(1));
        let malformed = [
            (Some("x"), None, None, ENV_EXIT_AFTER),
            (Some("0"), None, None, ENV_EXIT_AFTER),
            (None, Some("-1"), None, ENV_HANG_AFTER),
            (None, Some("1"), Some("one"), ENV_FAULT_SHARD),
            (None, None, Some("-1"), ENV_FAULT_SHARD),
        ];
        for (exit_after, hang_after, fault_shard, name) in malformed {
            let err = FaultHooks::parse(0, exit_after, hang_after, fault_shard).unwrap_err();
            assert!(err.starts_with(name), "{err}");
        }
    }

    #[test]
    fn heartbeat_advances_until_frozen() {
        let dir = std::env::temp_dir().join(format!("dqmc_fleet_beat_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.beat");
        let mut heartbeat = Heartbeat::start(path.clone());
        // Reads 100 ms apart; a loaded host gets a few more tries.
        let next_beat = |after: u64| {
            (0..50).find_map(|_| {
                std::thread::sleep(Duration::from_millis(100));
                Some(read_beat(&path)).filter(|&beat| beat > after)
            })
        };
        let first = next_beat(0).expect("the heartbeat starts");
        assert!(next_beat(first).is_some(), "a live heartbeat advances");
        // `freeze` joins the writer, so no beat can land after it.
        heartbeat.freeze();
        let frozen = read_beat(&path);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(read_beat(&path), frozen, "a frozen heartbeat stops");
        std::fs::remove_dir_all(&dir).ok();
    }
}
