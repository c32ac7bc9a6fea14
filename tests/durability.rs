//! Tier: durability. Crash-point–proven recovery for every on-disk
//! format the workspace publishes.
//!
//! Every durable artifact — `DQCP` checkpoints, `DQRC` cache entries,
//! `DQSM` manifests, `DQSR` shard reports — goes through the single
//! audited write path, [`util::vfs::write_atomic`]: temp file, write,
//! fsync, rename, parent-directory fsync. This tier proves the claim
//! that sequence exists to make: **a crash between any two of those
//! syscalls loses nothing**. For each format and each of the five crash
//! points we
//!
//! 1. seed an `old` artifact, then crash a process (or simulate a crash
//!    in-process) while it publishes `new`;
//! 2. assert the destination still holds `old` byte-for-byte — the
//!    adversarial residue (empty temp, torn temp, rolled-back rename)
//!    never reaches the published name;
//! 3. recover the way the products do — scrub the temp debris, rerun
//!    the write — and assert the result is byte-identical to an
//!    uninterrupted `new` write.
//!
//! The process-kill tests spawn the `durability-probe` binary with a
//! `DQMC_VFS_FAULTS` crash script, so the write that dies is the real
//! production writer for that format, killed by a real `exit` at the
//! scripted syscall. The property test sweeps arbitrary payloads, crash
//! ordinals, and torn-write seeds over the raw write path: the reader
//! sees old or new, never a byte of anything else.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use util::vfs::{self, CrashMode, FaultPlan};

/// The fixed key `durability-probe write dqrc` stores under (kept in
/// sync with `src/bin/durability-probe.rs`).
const DQRC_KEY: u64 = 0xD0_0DF00D;

/// Per-test scratch dir (pid-scoped; cleaned on entry).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dqmc_durability_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The unique scratch-dir name, used as the fault-plan scope so a plan
/// armed by this test never intercepts another test's writes.
fn scope_of(dir: &Path) -> String {
    dir.file_name()
        .expect("named dir")
        .to_string_lossy()
        .into_owned()
}

/// Atomic-write temp debris (`.{name}.{pid}.{seq}.tmp`) in `dir`.
fn tmp_debris(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with('.') && n.ends_with(".tmp"))
                .collect()
        })
        .unwrap_or_default()
}

// ---------------------------------------------------------------------
// In-process crash enumeration: simulate mode, every format, every
// crash point. The writers here are the real production entry points.
// ---------------------------------------------------------------------

/// The probe's simulation parameters (`src/bin/durability-probe.rs`).
fn probe_params() -> dqmc::SimParams {
    let model = dqmc::ModelParams::new(lattice::Lattice::square(2, 2, 1.0), 4.0, 0.1, 0.125, 6);
    dqmc::SimParams::new(model)
        .with_sweeps(2, 4)
        .with_seed(7)
        .with_cluster_size(3)
        .with_bin_size(2)
}

fn probe_summary(new: bool) -> sched::PointSummary {
    sched::PointSummary {
        point: 3,
        u: if new { 6.0 } else { 2.0 },
        beta: 1.5,
        slices: 12,
        chains_ok: 2,
        chains_failed: 0,
        bin_count: if new { 8 } else { 4 },
        scalars: None,
        mean_acceptance: 0.5,
        max_wrap_error: 1e-9,
        recovery_events: 0,
        preemptions: 0,
        device_quanta: 0,
        host_quanta: 0,
        device_seconds: 0.0,
    }
}

/// One format's production writer: publishes the `old` or `new` variant
/// into `dir`, returning the destination path. Deterministic: the same
/// variant always produces the same bytes.
type Writer = fn(new: bool, dir: &Path) -> (PathBuf, Result<(), String>);

fn write_dqcp(new: bool, dir: &Path) -> (PathBuf, Result<(), String>) {
    let dst = dir.join("probe.dqcp");
    let mut sim = dqmc::Simulation::new(probe_params());
    sim.step(if new { 5 } else { 2 });
    let r = dqmc::checkpoint::save(&sim, &dst).map_err(|e| e.to_string());
    (dst, r)
}

fn write_dqrc(new: bool, dir: &Path) -> (PathBuf, Result<(), String>) {
    let dst = dir.join(format!("{DQRC_KEY:016x}.dqrc"));
    let r = serve::ResultCache::open(dir)
        .and_then(|c| c.store(DQRC_KEY, &probe_summary(new)))
        .map_err(|e| e.to_string());
    (dst, r)
}

fn write_dqsm(new: bool, dir: &Path) -> (PathBuf, Result<(), String>) {
    let dst = dir.join("probe.dqsm");
    let m = fleet::ShardManifest {
        shard: 0,
        nshards: 2,
        fingerprint: 0xFEED_0000_0000_0001,
        grid_text: "lx = 2\nly = 2\nu = 2.0\nbeta = 1.0\n".into(),
        points: if new { vec![0, 1, 2] } else { vec![0, 1] },
    };
    let r = m.write(&dst).map_err(|e| e.to_string());
    (dst, r)
}

fn write_dqsr(new: bool, dir: &Path) -> (PathBuf, Result<(), String>) {
    let dst = dir.join("probe.dqsr");
    let r = fleet::ShardReport {
        shard: 0,
        nshards: 1,
        fingerprint: 0xFEED_0000_0000_0002,
        seed: 42,
        chains: 2,
        warmup: 2,
        sweeps: 4,
        assigned: vec![3, 4],
        fragments: if new {
            vec![probe_summary(false), probe_summary(true)]
        } else {
            vec![probe_summary(false)]
        },
        failed_chains: 0,
    }
    .write(&dst)
    .map_err(|e| e.to_string());
    (dst, r)
}

/// The enumeration: for every crash point k, seed `old`, simulate a
/// crash at syscall k while writing `new`, and prove (a) the
/// destination still holds `old`, (b) it still *decodes* as `old`
/// through the format's reader, (c) scrub + rewrite recovers to bytes
/// identical to an uninterrupted `new` write.
fn crash_points_recover(tag: &str, write: Writer, decodes: &dyn Fn(&[u8]) -> bool) {
    // Uninterrupted references, in their own directory.
    let refdir = scratch(&format!("{tag}_ref"));
    let (refdst, r) = write(true, &refdir);
    r.expect("reference new write");
    let new_ref = std::fs::read(&refdst).expect("reference bytes");

    let dir = scratch(tag);
    let scope = scope_of(&dir);
    for k in 1..=5u64 {
        let (dst, r) = write(false, &dir);
        r.unwrap_or_else(|e| panic!("k={k}: seeding old failed: {e}"));
        let old = std::fs::read(&dst).expect("old bytes");
        assert!(decodes(&old), "k={k}: seeded artifact must decode");

        {
            let _g = vfs::arm(
                FaultPlan::new()
                    .with_scope(&scope)
                    .with_seed(k)
                    .crash_at(k, CrashMode::Simulate),
            );
            let (_, r) = write(true, &dir);
            assert!(r.is_err(), "k={k}: crashed write must report failure");
            assert!(!vfs::armed(), "k={k}: a simulated crash disarms the plan");
        }

        // The published name is untouched by the crash — bytes and
        // semantics both.
        let residue = std::fs::read(&dst)
            .unwrap_or_else(|e| panic!("k={k}: destination vanished after crash: {e}"));
        assert_eq!(residue, old, "k={k}: crash residue reached the destination");
        assert!(decodes(&residue), "k={k}: destination no longer decodes");

        // Recovery: scrub the debris, rerun the write.
        let report = vfs::scrub_tmp(&dir).expect("scrub");
        let expect_debris = u64::from(k >= 2);
        assert_eq!(
            report.count(),
            expect_debris,
            "k={k}: unexpected debris {:?}",
            report.removed
        );
        let (_, r) = write(true, &dir);
        r.unwrap_or_else(|e| panic!("k={k}: recovery write failed: {e}"));
        assert_eq!(
            std::fs::read(&dst).expect("recovered bytes"),
            new_ref,
            "k={k}: recovery is not byte-identical to an uninterrupted write"
        );
        std::fs::remove_file(&dst).expect("reset for next crash point");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&refdir);
}

#[test]
fn dqcp_checkpoint_survives_every_crash_point() {
    let params = probe_params();
    crash_points_recover("dqcp", write_dqcp, &|bytes| {
        dqmc::checkpoint::from_bytes(bytes, &params).is_ok()
    });
}

#[test]
fn dqrc_cache_entry_survives_every_crash_point() {
    crash_points_recover("dqrc", write_dqrc, &|bytes| !bytes.is_empty());
}

#[test]
fn dqsm_manifest_survives_every_crash_point() {
    crash_points_recover("dqsm", write_dqsm, &|bytes| {
        fleet::ShardManifest::decode(bytes).is_ok()
    });
}

#[test]
fn dqsr_report_survives_every_crash_point() {
    crash_points_recover("dqsr", write_dqsr, &|bytes| {
        fleet::ShardReport::decode(bytes).is_ok()
    });
}

// ---------------------------------------------------------------------
// Process-kill tests: the probe binary really dies (exit 84) at the
// scripted syscall, and a fresh process recovers.
// ---------------------------------------------------------------------

fn run_probe(format: &str, variant: &str, path: &Path, faults: Option<&str>) -> Option<i32> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_durability-probe"));
    cmd.args(["write", format, variant]).arg(path);
    match faults {
        Some(dsl) => cmd.env(vfs::ENV_FAULTS, dsl),
        None => cmd.env_remove(vfs::ENV_FAULTS),
    };
    cmd.status().expect("spawn durability-probe").code()
}

/// The kill flow for the plain-file formats (`dqcp`, `dqsm`, `dqsr`):
/// the recovery step is what `dqmc-run` does on resume/merge — scrub
/// the directory, rerun the writer.
fn killed_probe_recovers(format: &str) {
    let refdir = scratch(&format!("kill_{format}_ref"));
    let refdst = refdir.join(format!("probe.{format}"));
    assert_eq!(run_probe(format, "new", &refdst, None), Some(0));
    let new_ref = std::fs::read(&refdst).expect("reference bytes");

    let dir = scratch(&format!("kill_{format}"));
    let dst = dir.join(format!("probe.{format}"));
    let scope = scope_of(&dir);
    for k in 1..=5u64 {
        assert_eq!(run_probe(format, "old", &dst, None), Some(0), "k={k}: seed");
        let old = std::fs::read(&dst).expect("old bytes");

        let dsl = format!("scope={scope};seed={k};crash@{k}");
        assert_eq!(
            run_probe(format, "new", &dst, Some(&dsl)),
            Some(vfs::CRASH_EXIT_CODE),
            "k={k}: probe must die at the scripted syscall"
        );
        assert_eq!(
            std::fs::read(&dst).expect("post-kill bytes"),
            old,
            "k={k}: a killed process disturbed the published file"
        );

        let report = vfs::scrub_tmp(&dir).expect("scrub");
        assert_eq!(report.count(), u64::from(k >= 2), "k={k}: debris count");
        assert_eq!(
            run_probe(format, "new", &dst, None),
            Some(0),
            "k={k}: recovery"
        );
        assert_eq!(
            std::fs::read(&dst).expect("recovered bytes"),
            new_ref,
            "k={k}: recovery after a real kill is not byte-identical"
        );
        std::fs::remove_file(&dst).expect("reset");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&refdir);
}

#[test]
fn killed_dqcp_writer_recovers_byte_identically() {
    killed_probe_recovers("dqcp");
}

#[test]
fn killed_dqsm_writer_recovers_byte_identically() {
    killed_probe_recovers("dqsm");
}

#[test]
fn killed_dqsr_writer_recovers_byte_identically() {
    killed_probe_recovers("dqsr");
}

#[test]
fn killed_dqrc_writer_recovers_through_the_cache_scrub() {
    // The cache recovers differently: `ResultCache::open` scrubs, so a
    // plain rerun of the probe is the whole recovery procedure.
    let refdir = scratch("kill_dqrc_ref");
    assert_eq!(run_probe("dqrc", "new", &refdir, None), Some(0));
    let new_ref =
        std::fs::read(refdir.join(format!("{DQRC_KEY:016x}.dqrc"))).expect("reference bytes");

    let dir = scratch("kill_dqrc");
    let dst = dir.join(format!("{DQRC_KEY:016x}.dqrc"));
    let scope = scope_of(&dir);
    for k in 1..=5u64 {
        assert_eq!(run_probe("dqrc", "old", &dir, None), Some(0), "k={k}: seed");
        let old = std::fs::read(&dst).expect("old bytes");

        let dsl = format!("scope={scope};seed={k};crash@{k}");
        assert_eq!(
            run_probe("dqrc", "new", &dir, Some(&dsl)),
            Some(vfs::CRASH_EXIT_CODE),
            "k={k}: probe must die at the scripted syscall"
        );
        assert_eq!(
            std::fs::read(&dst).expect("post-kill"),
            old,
            "k={k}: entry moved"
        );

        // No manual scrub: the next open does it.
        assert_eq!(
            run_probe("dqrc", "new", &dir, None),
            Some(0),
            "k={k}: recovery"
        );
        assert!(
            tmp_debris(&dir).is_empty(),
            "k={k}: open left debris behind"
        );
        assert_eq!(
            std::fs::read(&dst).expect("recovered bytes"),
            new_ref,
            "k={k}: cache recovery is not byte-identical"
        );
        std::fs::remove_file(&dst).expect("reset");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&refdir);
}

// ---------------------------------------------------------------------
// Property sweep: arbitrary payloads, every fault the plan can inject —
// the destination only ever holds old or new, never a torn byte.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_payload_any_crash_point_is_old_or_new_never_torn(
        old in proptest::collection::vec(0u8..=255, 0..96),
        new in proptest::collection::vec(0u8..=255, 0..96),
        k in 1u64..=5,
        seed in 0u64..1000,
    ) {
        let dir = scratch("prop_crash");
        let scope = scope_of(&dir);
        let dst = dir.join("payload.bin");
        vfs::write_atomic(&dst, &old).expect("seed old");
        {
            let _g = vfs::arm(
                FaultPlan::new()
                    .with_scope(&scope)
                    .with_seed(seed)
                    .crash_at(k, CrashMode::Simulate),
            );
            prop_assert!(vfs::write_atomic(&dst, &new).is_err());
        }
        prop_assert_eq!(&std::fs::read(&dst).expect("residue"), &old);
        vfs::scrub_tmp(&dir).expect("scrub");
        vfs::write_atomic(&dst, &new).expect("recovery");
        prop_assert_eq!(&std::fs::read(&dst).expect("recovered"), &new);
        prop_assert!(tmp_debris(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_injected_error_leaves_old_intact_and_no_debris(
        old in proptest::collection::vec(0u8..=255, 1..96),
        new in proptest::collection::vec(0u8..=255, 1..96),
        which in 0usize..5,
        seed in 0u64..1000,
    ) {
        let dir = scratch("prop_fault");
        let scope = scope_of(&dir);
        let dst = dir.join("payload.bin");
        vfs::write_atomic(&dst, &old).expect("seed old");
        let plan = match which {
            0 => FaultPlan::new().fail_create(1),
            1 => FaultPlan::new().enospc(1),
            2 => FaultPlan::new().short_write(1),
            3 => FaultPlan::new().fail_fsync(1),
            _ => FaultPlan::new().fail_rename(1),
        };
        {
            let _g = vfs::arm(plan.with_scope(&scope).with_seed(seed));
            prop_assert!(vfs::write_atomic(&dst, &new).is_err());
        }
        // Error paths clean their own temp file; nothing to scrub.
        prop_assert_eq!(&std::fs::read(&dst).expect("residue"), &old);
        prop_assert!(tmp_debris(&dir).is_empty());
        vfs::write_atomic(&dst, &new).expect("retry succeeds unarmed");
        prop_assert_eq!(&std::fs::read(&dst).expect("recovered"), &new);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
