//! The workspace's single audited write path, with deterministic I/O
//! fault injection.
//!
//! Every on-disk format in the workspace — DQCP checkpoints, DQRC cache
//! entries, DQSM manifests, DQSR shard reports, bench artifacts — is
//! published through [`write_atomic`] (the fleet heartbeat, a counter
//! rewritten in place that nothing needs to survive a crash, is not a
//! format). The sequence is the
//! full five-syscall durability dance, including the parent-directory
//! fsync that makes the rename itself durable:
//!
//! ```text
//!   1. create   .{name}.{pid}.{seq}.tmp        (unique per write)
//!   2. write    payload into the temp file
//!   3. fsync    the temp file
//!   4. rename   temp -> destination            (atomic replace)
//!   5. fsync    the parent directory           (persist the rename)
//! ```
//!
//! Mirroring `gpusim::faults` for the device model, this module carries a
//! process-global, seed-deterministic [`FaultPlan`] that can script torn
//! writes, short writes, ENOSPC, fsync failure, rename failure, and a
//! hard crash-point between any two syscalls of the sequence. Unarmed,
//! the only cost is one relaxed atomic load per call. Plans arm either
//! programmatically ([`arm`], which returns a guard serialising faulted
//! sections across test threads) or from the [`ENV_FAULTS`] environment
//! DSL, whose items are read with [`settings`]'s item primitives, as
//! `gpusim::faults` reads the device fault scripts, e.g.:
//!
//! ```text
//!   DQMC_VFS_FAULTS="seed=7;scope=.dqrc;enospc@2;fsync@3-4;crash@4;mode=sim"
//! ```
//!
//! Category ordinals (`enospc@2`) are 1-based per-category syscall counts;
//! `crash@n` counts every in-scope syscall globally, so a crash-point can
//! be placed between any two syscalls of any write. Writes whose path does
//! not contain `scope` bypass the plan entirely and consume no ordinals,
//! keeping fault schedules deterministic even when unrelated files are
//! written concurrently.
//!
//! A crash applies the *adversarial* residue for its point — the worst
//! state a real power cut could leave given which syscalls had been made
//! durable — then either exits the process ([`CrashMode::Exit`], for
//! child-process probes) or disarms and returns an error
//! ([`CrashMode::Simulate`], for in-process enumeration):
//!
//! | crash before | durable residue                                     |
//! |--------------|-----------------------------------------------------|
//! | 1 (create)   | nothing new                                         |
//! | 2 (write)    | empty temp file, old destination                    |
//! | 3 (fsync)    | *torn* temp file (seeded prefix), old destination   |
//! | 4 (rename)   | complete temp file, old destination                 |
//! | 5 (dirsync)  | rename rolled back: old destination restored,       |
//! |              | complete temp file still present                    |
//!
//! [`scrub_tmp`] removes the temp-file debris such crashes strand, and
//! [`write_atomic_retry`] layers a deterministic bounded exponential
//! backoff over transient failures (ENOSPC, EIO, interruption) for
//! callers that should ride out a briefly-full disk.

use crate::rng::Rng;
use crate::settings::{self, ItemError, Value};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::Duration;

/// Environment variable holding a fault-plan DSL; parsed and armed once,
/// on the first `vfs` call of the process.
pub const ENV_FAULTS: &str = "DQMC_VFS_FAULTS";

/// Exit code used by [`CrashMode::Exit`] when the DSL names no other.
pub const CRASH_EXIT_CODE: i32 = 84;

/// Attempts used by the workspace's standard retry policy
/// ([`write_atomic_retry`] callers in the fleet child and cache backfill).
pub const RETRY_ATTEMPTS: u32 = 4;

/// Base delay of the standard retry policy; doubles per attempt, capped
/// at [`RETRY_MAX_DELAY`]. Fixed constants — no jitter — so retry
/// schedules are reproducible.
pub const RETRY_BASE_DELAY: Duration = Duration::from_millis(10);

/// Ceiling on a single retry backoff sleep.
pub const RETRY_MAX_DELAY: Duration = Duration::from_millis(160);

/// What a scripted crash-point does once its residue is on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Terminate the process with this exit code. For child-process
    /// probes observed by a supervisor or test harness.
    Exit(i32),
    /// Disarm the plan and return an [`io::Error`] to the caller. For
    /// in-process crash-point enumeration: recovery code then runs in
    /// the same process against the residue.
    Simulate,
}

/// A deterministic, scriptable schedule of I/O faults, mirroring the
/// device `FaultPlan` in `gpusim::faults`.
///
/// Per-category lists hold 1-based syscall ordinals *within that
/// category* (the 2nd write, the 1st rename, ...). Each ordinal fires
/// once. The crash-point, if any, counts every in-scope syscall of the
/// process globally.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Only paths containing this substring are subject to the plan.
    scope: Option<String>,
    /// Temp-file creations that fail with EIO.
    create_fail: Vec<u64>,
    /// Writes that persist only a seeded prefix, then fail Interrupted.
    short_writes: Vec<u64>,
    /// Writes that fail with ENOSPC before writing anything.
    enospc: Vec<u64>,
    /// File fsyncs that fail with EIO.
    fsync_fail: Vec<u64>,
    /// Renames that fail with EIO.
    rename_fail: Vec<u64>,
    /// Parent-directory fsyncs that fail with EIO.
    dirsync_fail: Vec<u64>,
    /// Global in-scope syscall ordinal at which to crash, and how.
    crash: Option<(u64, CrashMode)>,
    /// Lazily-seeded stream for torn-write prefix lengths (seed 0 when
    /// unset, like the device plan).
    rng: Option<Rng>,
}

impl FaultPlan {
    /// An empty plan: every syscall succeeds.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when no fault of any kind is scheduled.
    pub fn is_empty(&self) -> bool {
        self.create_fail.is_empty()
            && self.short_writes.is_empty()
            && self.enospc.is_empty()
            && self.fsync_fail.is_empty()
            && self.rename_fail.is_empty()
            && self.dirsync_fail.is_empty()
            && self.crash.is_none()
    }

    /// Restricts the plan to paths containing `substr`; out-of-scope
    /// writes bypass the plan and consume no ordinals.
    pub fn with_scope(mut self, substr: &str) -> Self {
        self.scope = Some(substr.to_string());
        self
    }

    /// Seeds the stream that picks torn-write prefix lengths.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = Some(Rng::new(seed));
        self
    }

    /// The n-th temp-file creation fails with EIO.
    pub fn fail_create(mut self, n: u64) -> Self {
        self.create_fail.push(n);
        self
    }

    /// The n-th write persists only a seeded prefix and fails Interrupted.
    pub fn short_write(mut self, n: u64) -> Self {
        self.short_writes.push(n);
        self
    }

    /// The n-th write fails with ENOSPC.
    pub fn enospc(mut self, n: u64) -> Self {
        self.enospc.push(n);
        self
    }

    /// Every write in `[lo, hi]` (1-based, inclusive) fails with ENOSPC —
    /// a disk that stays full for a while.
    pub fn enospc_window(mut self, lo: u64, hi: u64) -> Self {
        self.enospc
            .extend(lo..=hi.min(lo.saturating_add(1_000_000)));
        self
    }

    /// The n-th file fsync fails with EIO.
    pub fn fail_fsync(mut self, n: u64) -> Self {
        self.fsync_fail.push(n);
        self
    }

    /// The n-th rename fails with EIO.
    pub fn fail_rename(mut self, n: u64) -> Self {
        self.rename_fail.push(n);
        self
    }

    /// The n-th parent-directory fsync fails with EIO.
    pub fn fail_dirsync(mut self, n: u64) -> Self {
        self.dirsync_fail.push(n);
        self
    }

    /// Crash immediately *before* the n-th in-scope syscall of the
    /// process (globally counted), leaving the adversarial residue.
    pub fn crash_at(mut self, n: u64, mode: CrashMode) -> Self {
        self.crash = Some((n, mode));
        self
    }

    /// Parses the [`ENV_FAULTS`] DSL: semicolon-separated items among
    /// `seed=N`, `scope=SUBSTR`, `mode=exit|sim`, `code=N` (1..=255),
    /// `crash@N`, and `CAT@N` / `CAT@LO-HI` for categories `create`,
    /// `short`, `enospc`, `fsync`, `rename`, `dirsync`. Items are read with
    /// [`settings`]'s item primitives, so blank items are skipped.
    pub fn parse(dsl: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        let mut crash_at: Option<u64> = None;
        let mut mode_sim = false;
        let mut exit_code = CRASH_EXIT_CODE;
        for item in settings::items(dsl, ';') {
            if let Some((key, val)) = settings::split(item, '=') {
                match key {
                    "seed" => {
                        let seed = u64::read(val).map_err(|_| format!("bad seed '{val}'"))?;
                        plan = plan.with_seed(seed);
                    }
                    "scope" => plan = plan.with_scope(val),
                    "mode" => match val {
                        "exit" => mode_sim = false,
                        "sim" => mode_sim = true,
                        other => return Err(format!("bad mode '{other}' (exit|sim)")),
                    },
                    // `process::exit` keeps the low 8 bits: a code of 0 or
                    // 256 would make a scripted crash read as success.
                    "code" => {
                        exit_code = settings::int_in(val, 1..=255)
                            .map_err(|_| format!("bad code '{val}' (want 1..=255)"))?;
                    }
                    other => return Err(format!("unknown key '{other}'")),
                }
                continue;
            }
            let (cat, ord) = settings::split(item, '@')
                .ok_or_else(|| format!("bad item '{item}' (want key=val or cat@n)"))?;
            let (lo, hi) = settings::range(ord).map_err(|e| match e {
                ItemError::NotInteger(_) => format!("bad ordinal '{ord}'"),
                _ => format!("ordinals are 1-based and lo<=hi, got '{ord}'"),
            })?;
            match cat {
                "create" => plan.create_fail.extend(lo..=hi),
                "short" => plan.short_writes.extend(lo..=hi),
                "enospc" => plan = plan.enospc_window(lo, hi),
                "fsync" => plan.fsync_fail.extend(lo..=hi),
                "rename" => plan.rename_fail.extend(lo..=hi),
                "dirsync" => plan.dirsync_fail.extend(lo..=hi),
                "crash" => {
                    if lo != hi {
                        return Err("crash@ takes a single ordinal".to_string());
                    }
                    crash_at = Some(lo);
                }
                other => return Err(format!("unknown category '{other}'")),
            }
        }
        if let Some(n) = crash_at {
            let mode = if mode_sim {
                CrashMode::Simulate
            } else {
                CrashMode::Exit(exit_code)
            };
            plan.crash = Some((n, mode));
        }
        Ok(plan)
    }

    /// The torn-write rng, seeded lazily with 0 like the device plan.
    fn rng(&mut self) -> &mut Rng {
        self.rng.get_or_insert_with(|| Rng::new(0))
    }
}

/// Removes `n` from `list` if present, reporting whether it fired.
/// One-shot: a consumed ordinal never fires again.
fn take(list: &mut Vec<u64>, n: u64) -> bool {
    match list.iter().position(|&x| x == n) {
        Some(i) => {
            list.swap_remove(i);
            true
        }
        None => false,
    }
}

/// The armed plan plus its per-category and global syscall counters.
struct Armed {
    plan: FaultPlan,
    creates: u64,
    writes: u64,
    fsyncs: u64,
    renames: u64,
    dirsyncs: u64,
    syscalls: u64,
}

/// Fast-path gate: one relaxed load decides unarmed writes.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The armed plan. Plain std Mutex: leaf lock, never held across another
/// lock, and `util` is outside the loom-modelled lock scopes.
static STATE: Mutex<Option<Armed>> = Mutex::new(None);
/// Serialises faulted sections across test threads: the plan is
/// process-global, so two tests arming plans concurrently would steal
/// each other's ordinals.
static SESSION: Mutex<()> = Mutex::new(());
/// Uniquifies temp names within the process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
/// Arms from [`ENV_FAULTS`] at most once per process.
static ENV_ARM: Once = Once::new();

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Guard returned by [`arm`]: holds the session lock and disarms the
/// plan when dropped.
pub struct ArmGuard {
    _session: MutexGuard<'static, ()>,
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms `plan` process-wide, returning a guard that disarms it on drop.
/// Blocks until any other armed section (test) releases the session.
pub fn arm(plan: FaultPlan) -> ArmGuard {
    let session = relock(&SESSION);
    *relock(&STATE) = Some(Armed {
        plan,
        creates: 0,
        writes: 0,
        fsyncs: 0,
        renames: 0,
        dirsyncs: 0,
        syscalls: 0,
    });
    ARMED.store(true, Ordering::SeqCst);
    ArmGuard { _session: session }
}

/// Disarms any active plan. Idempotent.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *relock(&STATE) = None;
}

/// True while a fault plan is armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms from [`ENV_FAULTS`] on the first vfs call of the process. A
/// malformed DSL aborts loudly rather than silently running faultless.
fn ensure_env_arm() {
    ENV_ARM.call_once(|| {
        let Ok(dsl) = std::env::var(ENV_FAULTS) else {
            return;
        };
        if dsl.trim().is_empty() {
            return;
        }
        match FaultPlan::parse(&dsl) {
            Ok(plan) if !plan.is_empty() || plan.scope.is_some() => {
                *relock(&STATE) = Some(Armed {
                    plan,
                    creates: 0,
                    writes: 0,
                    fsyncs: 0,
                    renames: 0,
                    dirsyncs: 0,
                    syscalls: 0,
                });
                ARMED.store(true, Ordering::SeqCst);
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("fatal: {ENV_FAULTS}: {e}");
                std::process::exit(2);
            }
        }
    });
}

/// The unique temp path for one atomic write of `path`:
/// `.{name}.{pid}.{seq}.tmp` in the same directory.
fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{}.{}.{}.tmp", name, std::process::id(), seq))
}

/// Opens and fsyncs the parent directory of `path`, making a completed
/// rename durable.
fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

fn inj(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected fault: {what}"))
}

/// An injected OS-level error. Returned raw (not wrapped with context)
/// so `raw_os_error()` survives for callers classifying transience.
fn inj_os(code: i32, _what: &str) -> io::Error {
    io::Error::from_raw_os_error(code)
}

/// Writes `bytes` to `path` atomically and durably: unique temp file in
/// the same directory, write, fsync, rename over `path`, fsync of the
/// parent directory. On any error before the rename the temp file is
/// removed; after a failed dirsync the new destination is left in place
/// (the rename happened — only its durability is unproven).
///
/// This is the workspace's only sanctioned file-publication path (lint
/// R10 enforces that); when a [`FaultPlan`] is armed and `path` is in
/// scope, each of the five syscalls consults the plan first.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    ensure_env_arm();
    if !ARMED.load(Ordering::Relaxed) {
        return write_atomic_plain(path, bytes);
    }
    write_atomic_armed(path, bytes)
}

/// The passthrough sequence used when no plan is armed (or the path is
/// out of scope).
fn write_atomic_plain(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let cleanup = |e: io::Error| {
        let _ = fs::remove_file(&tmp);
        Err(e)
    };
    let mut f = File::create(&tmp)?;
    if let Err(e) = f.write_all(bytes) {
        drop(f);
        return cleanup(e);
    }
    if let Err(e) = f.sync_all() {
        drop(f);
        return cleanup(e);
    }
    drop(f);
    if let Err(e) = fs::rename(&tmp, path) {
        return cleanup(e);
    }
    sync_parent(path)
}

/// One atomic write under an armed plan. Holds the state lock for the
/// whole sequence so concurrent faulted writes interleave at write
/// granularity, keeping ordinal consumption deterministic.
fn write_atomic_armed(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut guard = relock(&STATE);
    let in_scope = match guard.as_ref() {
        None => false,
        Some(st) => match &st.plan.scope {
            Some(scope) => path.to_string_lossy().contains(scope.as_str()),
            None => true,
        },
    };
    if !in_scope {
        drop(guard);
        return write_atomic_plain(path, bytes);
    }

    let tmp = tmp_path(path);
    let cleanup = |e: io::Error| {
        let _ = fs::remove_file(&tmp);
        Err(e)
    };

    // Syscall 1: create the temp file.
    if let Some(e) = crash_check(&mut guard, path, &tmp, bytes, None, 1) {
        return Err(e);
    }
    let st = guard.as_mut().expect("armed state");
    st.creates += 1;
    if take(&mut st.plan.create_fail, st.creates) {
        return Err(inj_os(5, "temp-file create failed"));
    }
    let mut f = File::create(&tmp)?;

    // Syscall 2: write the payload.
    if let Some(e) = crash_check(&mut guard, path, &tmp, bytes, None, 2) {
        return Err(e);
    }
    let st = guard.as_mut().expect("armed state");
    st.writes += 1;
    if take(&mut st.plan.enospc, st.writes) {
        drop(f);
        return cleanup(inj_os(28, "write hit ENOSPC"));
    }
    if take(&mut st.plan.short_writes, st.writes) {
        let cut = st.plan.rng().next_range(bytes.len().max(1) as u64) as usize;
        let _ = f.write_all(&bytes[..cut.min(bytes.len())]);
        drop(f);
        return cleanup(inj(io::ErrorKind::Interrupted, "short write"));
    }
    if let Err(e) = f.write_all(bytes) {
        drop(f);
        return cleanup(e);
    }

    // Syscall 3: fsync the temp file.
    if let Some(e) = crash_check(&mut guard, path, &tmp, bytes, None, 3) {
        return Err(e);
    }
    let st = guard.as_mut().expect("armed state");
    st.fsyncs += 1;
    if take(&mut st.plan.fsync_fail, st.fsyncs) {
        drop(f);
        return cleanup(inj_os(5, "fsync failed"));
    }
    if let Err(e) = f.sync_all() {
        drop(f);
        return cleanup(e);
    }
    drop(f);

    // Snapshot the destination before the rename clobbers it: the
    // crash-before-dirsync residue must restore these exact bytes.
    let old_dst = fs::read(path).ok();

    // Syscall 4: rename over the destination.
    if let Some(e) = crash_check(&mut guard, path, &tmp, bytes, None, 4) {
        return Err(e);
    }
    let st = guard.as_mut().expect("armed state");
    st.renames += 1;
    if take(&mut st.plan.rename_fail, st.renames) {
        return cleanup(inj_os(5, "rename failed"));
    }
    if let Err(e) = fs::rename(&tmp, path) {
        return cleanup(e);
    }

    // Syscall 5: fsync the parent directory.
    if let Some(e) = crash_check(&mut guard, path, &tmp, bytes, old_dst.as_deref(), 5) {
        return Err(e);
    }
    let st = guard.as_mut().expect("armed state");
    st.dirsyncs += 1;
    if take(&mut st.plan.dirsync_fail, st.dirsyncs) {
        // The rename happened; only its durability is unproven. Leave
        // the new destination in place.
        return Err(inj_os(5, "parent-directory fsync failed"));
    }
    sync_parent(path)
}

/// Consults the crash schedule before syscall `step` (1..=5) of a write
/// to `path`. When the global in-scope ordinal matches, applies the
/// adversarial residue for that point — the worst durable state a power
/// cut could leave given which earlier syscalls were fsynced — and
/// either exits the process or (simulate mode) disarms the plan and
/// returns the error the caller must propagate.
fn crash_check(
    guard: &mut MutexGuard<'_, Option<Armed>>,
    path: &Path,
    tmp: &Path,
    bytes: &[u8],
    old_dst: Option<&[u8]>,
    step: u8,
) -> Option<io::Error> {
    let st = guard.as_mut().expect("armed state");
    st.syscalls += 1;
    let (at, mode) = st.plan.crash?;
    if st.syscalls != at {
        return None;
    }
    match step {
        1 => {
            // Nothing of this write started.
        }
        2 => {
            // create() durable, payload never written: empty temp file.
            let _ = fs::write(tmp, b"");
        }
        3 => {
            // Payload written but never fsynced: only a prefix survived.
            let cut = st.plan.rng().next_range(bytes.len().max(1) as u64) as usize;
            let _ = fs::write(tmp, &bytes[..cut.min(bytes.len())]);
        }
        4 => {
            // Fsynced temp file survives whole; destination untouched.
        }
        5 => {
            // The rename's directory entry was never made durable: roll
            // it back. The fsynced temp file survives whole and the old
            // destination (snapshotted before the rename) reappears.
            let _ = fs::write(tmp, bytes);
            match old_dst {
                Some(old) => {
                    let _ = fs::write(path, old);
                }
                None => {
                    let _ = fs::remove_file(path);
                }
            }
        }
        _ => unreachable!("atomic write has five syscalls"),
    }
    match mode {
        CrashMode::Exit(code) => std::process::exit(code),
        CrashMode::Simulate => {
            let n = st.syscalls;
            **guard = None;
            ARMED.store(false, Ordering::SeqCst);
            Some(io::Error::other(format!(
                "vfs: simulated crash before syscall #{n}"
            )))
        }
    }
}

/// Retries [`write_atomic`] on *transient* failures (ENOSPC, EIO,
/// interruption, timeouts) with a deterministic bounded exponential
/// backoff: `base, 2*base, 4*base, ...` capped at [`RETRY_MAX_DELAY`],
/// no jitter. Non-transient errors (and simulated crashes) propagate
/// immediately.
pub fn write_atomic_retry(
    path: &Path,
    bytes: &[u8],
    attempts: u32,
    base_delay: Duration,
) -> io::Result<()> {
    let attempts = attempts.max(1);
    let mut delay = base_delay;
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        match write_atomic(path, bytes) {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(&e) && attempt + 1 < attempts => {
                last = Some(e);
                std::thread::sleep(delay);
                delay = (delay * 2).min(RETRY_MAX_DELAY);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop returned on success or non-transient error"))
}

/// Is this error worth retrying? ENOSPC (a full disk may drain), EIO (a
/// wobbly device may settle), and interruption/timeout kinds.
pub fn is_transient(e: &io::Error) -> bool {
    if matches!(e.raw_os_error(), Some(28) | Some(5)) {
        return true;
    }
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What a [`scrub_tmp`] pass found and removed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Temp-debris files removed, in sorted name order.
    pub removed: Vec<String>,
}

impl ScrubReport {
    /// Number of debris files removed.
    pub fn count(&self) -> u64 {
        self.removed.len() as u64
    }
}

/// Removes crash-stranded atomic-write debris (`.{name}.{pid}.{seq}.tmp`
/// files) from `dir`, non-recursively, in deterministic (sorted) order.
/// A missing directory scrubs clean. Debris belonging to a *live*
/// concurrent writer in the same directory would also be removed — scrub
/// only at startup, before spawning writers.
pub fn scrub_tmp(dir: &Path) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') && name.ends_with(".tmp") && entry.path().is_file() {
            names.push(name);
        }
    }
    names.sort_unstable();
    for name in names {
        fs::remove_file(dir.join(&name))?;
        report.removed.push(name);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dqmc_vfs_{}_{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// The unique scratch-dir name, used to scope every armed plan:
    /// the plan is process-global, so an unscoped plan would intercept
    /// writes from concurrently running tests.
    fn scope_of(dir: &Path) -> String {
        dir.file_name()
            .expect("scratch has a name")
            .to_string_lossy()
            .into_owned()
    }

    fn tmp_debris(dir: &Path) -> Vec<String> {
        let mut v: Vec<String> = fs::read_dir(dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with('.') && n.ends_with(".tmp"))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn unarmed_write_replaces_contents_whole_and_leaves_no_debris() {
        let dir = scratch("plain");
        let path = dir.join("out.bin");
        write_atomic(&path, b"first contents").expect("first write");
        assert_eq!(fs::read(&path).expect("read"), b"first contents");
        write_atomic(&path, b"x").expect("second write");
        assert_eq!(fs::read(&path).expect("read"), b"x");
        assert!(tmp_debris(&dir).is_empty(), "no temp debris");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dsl_parses_every_category_and_rejects_garbage() {
        let plan = FaultPlan::parse(
            "seed=7;scope=.dqrc;create@1;short@2;enospc@3-5;fsync@1;rename@2;dirsync@1;crash@9;mode=sim",
        )
        .expect("full DSL parses");
        assert_eq!(plan.scope.as_deref(), Some(".dqrc"));
        assert_eq!(plan.create_fail, vec![1]);
        assert_eq!(plan.short_writes, vec![2]);
        assert_eq!(plan.enospc, vec![3, 4, 5]);
        assert_eq!(plan.fsync_fail, vec![1]);
        assert_eq!(plan.rename_fail, vec![2]);
        assert_eq!(plan.dirsync_fail, vec![1]);
        assert_eq!(plan.crash, Some((9, CrashMode::Simulate)));

        let exit = FaultPlan::parse("crash@3;code=77").expect("exit-mode DSL");
        assert_eq!(exit.crash, Some((3, CrashMode::Exit(77))));
        let top = FaultPlan::parse("crash@3;code=255").expect("largest exit code");
        assert_eq!(top.crash, Some((3, CrashMode::Exit(255))));
        let default_exit = FaultPlan::parse("crash@1").expect("default mode");
        assert_eq!(
            default_exit.crash,
            Some((1, CrashMode::Exit(CRASH_EXIT_CODE)))
        );

        assert!(FaultPlan::parse("bogus@1").is_err());
        assert!(FaultPlan::parse("enospc@0").is_err());
        assert!(FaultPlan::parse("enospc@5-3").is_err());
        assert!(FaultPlan::parse("mode=maybe").is_err());
        assert!(FaultPlan::parse("crash@1-2").is_err());
        assert!(FaultPlan::parse("short").is_err());
        for code in ["0", "256", "-1"] {
            assert!(
                FaultPlan::parse(&format!("crash@1;code={code}")).is_err(),
                "code={code}"
            );
        }
        assert!(FaultPlan::parse("").expect("empty DSL").is_empty());
    }

    #[test]
    fn injected_failures_preserve_the_old_file_and_clean_the_temp() {
        let dir = scratch("inject");
        let path = dir.join("data.dqcp");
        write_atomic(&path, b"old").expect("seed write");

        // One scenario per category, all against the same destination.
        let scope = scope_of(&dir);
        let cases: [(FaultPlan, &str); 5] = [
            (FaultPlan::new().with_scope(&scope).fail_create(1), "create"),
            (FaultPlan::new().with_scope(&scope).enospc(1), "enospc"),
            (
                FaultPlan::new()
                    .with_scope(&scope)
                    .short_write(1)
                    .with_seed(3),
                "short",
            ),
            (FaultPlan::new().with_scope(&scope).fail_fsync(1), "fsync"),
            (FaultPlan::new().with_scope(&scope).fail_rename(1), "rename"),
        ];
        for (plan, what) in cases {
            let guard = arm(plan);
            let err = write_atomic(&path, b"new").expect_err(what);
            assert!(
                is_transient(&err),
                "{what} injects a transient error: {err}"
            );
            drop(guard);
            assert_eq!(
                fs::read(&path).expect("read"),
                b"old",
                "{what} must not touch dst"
            );
            assert!(tmp_debris(&dir).is_empty(), "{what} leaked temp debris");
        }

        // Dirsync failure is past the rename: new contents win.
        let guard = arm(FaultPlan::new().with_scope(&scope).fail_dirsync(1));
        let err = write_atomic(&path, b"new").expect_err("dirsync");
        assert!(is_transient(&err));
        drop(guard);
        assert_eq!(fs::read(&path).expect("read"), b"new");
        assert!(tmp_debris(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulated_crash_at_every_point_leaves_old_then_scrub_and_rewrite_recover() {
        let dir = scratch("crash");
        let reference = dir.join("reference.bin");
        write_atomic(&reference, b"new contents, rather longer than old").expect("reference");
        let want = fs::read(&reference).expect("reference bytes");

        for k in 1..=5u64 {
            let path = dir.join(format!("crash{k}.bin"));
            write_atomic(&path, b"old").expect("seed write");
            let guard = arm(FaultPlan::new()
                .with_scope(&scope_of(&dir))
                .with_seed(k)
                .crash_at(k, CrashMode::Simulate));
            let err = write_atomic(&path, b"new contents, rather longer than old")
                .expect_err("crash point fires");
            assert!(err.to_string().contains("simulated crash"), "{err}");
            assert!(!armed(), "simulate mode disarms one-shot");
            drop(guard);

            // Old-or-new, never torn: before the dirsync point the old
            // bytes must survive; the residue may include temp debris.
            assert_eq!(
                fs::read(&path).expect("read"),
                b"old",
                "crash@{k} tore the dst"
            );
            let scrubbed = scrub_tmp(&dir).expect("scrub");
            if matches!(k, 2..=5) {
                assert_eq!(scrubbed.count(), 1, "crash@{k} strands one temp file");
            } else {
                assert_eq!(scrubbed.count(), 0, "crash@{k} leaves nothing");
            }
            write_atomic(&path, b"new contents, rather longer than old").expect("recovery write");
            assert_eq!(
                fs::read(&path).expect("read"),
                want,
                "recovery not byte-identical"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_scope_writes_bypass_the_plan_and_consume_no_ordinals() {
        let dir = scratch("scope");
        let beat = dir.join("shard.beat");
        let entry = dir.join("entry.dqrc");
        let guard = arm(FaultPlan::new().with_scope(".dqrc").enospc(1));
        write_atomic(&beat, b"1").expect("out-of-scope write sails through");
        write_atomic(&beat, b"2").expect("still unaffected");
        let err = write_atomic(&entry, b"payload").expect_err("in-scope first write faults");
        assert_eq!(
            err.raw_os_error(),
            Some(28),
            "ENOSPC reached the right write"
        );
        drop(guard);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_rides_out_a_transient_window_deterministically() {
        let dir = scratch("retry");
        let path = dir.join("report.dqsr");
        let guard = arm(FaultPlan::new()
            .with_scope(&scope_of(&dir))
            .enospc_window(1, 2));
        write_atomic_retry(&path, b"payload", 4, Duration::from_millis(1))
            .expect("third attempt lands");
        drop(guard);
        assert_eq!(fs::read(&path).expect("read"), b"payload");

        // A window longer than the budget surfaces the last error.
        let guard = arm(FaultPlan::new()
            .with_scope(&scope_of(&dir))
            .enospc_window(1, 10));
        let err = write_atomic_retry(&path, b"other", 3, Duration::from_millis(1))
            .expect_err("budget exhausted");
        assert_eq!(err.raw_os_error(), Some(28));
        drop(guard);
        assert_eq!(
            fs::read(&path).expect("read"),
            b"payload",
            "failed retry left old bytes"
        );
        assert!(tmp_debris(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_removes_only_dot_tmp_debris_in_sorted_order() {
        let dir = scratch("scrub");
        fs::write(dir.join(".b.123.7.tmp"), b"debris").expect("debris");
        fs::write(dir.join(".a.123.4.tmp"), b"debris").expect("debris");
        fs::write(dir.join("keep.dqrc"), b"entry").expect("entry");
        fs::write(dir.join("also.tmp"), b"not ours: no leading dot").expect("other");
        let report = scrub_tmp(&dir).expect("scrub");
        assert_eq!(
            report.removed,
            vec![".a.123.4.tmp".to_string(), ".b.123.7.tmp".to_string()]
        );
        assert!(dir.join("keep.dqrc").exists());
        assert!(dir.join("also.tmp").exists());
        assert_eq!(
            scrub_tmp(&dir.join("missing"))
                .expect("missing dir scrubs clean")
                .count(),
            0
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
