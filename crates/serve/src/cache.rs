//! Content-addressed on-disk result cache for per-point observables.
//!
//! The determinism contract (tests/sched_determinism.rs) makes a point's
//! pooled observables a pure function of its physics: the model, every
//! algorithmic knob, the per-chain seeds, and how many chains pool into
//! the point. [`point_key`] fingerprints exactly that closure — each
//! chain's [`dqmc::params_fingerprint`] (which covers the model, seed and
//! sweep counts) plus the chain count and crowd width — so two requests
//! collide only when the engine guarantees byte-identical results, and a
//! grid differing in any seed, sweep count or crowd width keys elsewhere.
//!
//! Entries are `DQRC` images — a [`util::frame::Sealed`] envelope around
//! the key echo and the point's observables. Writes go through the
//! workspace's single audited write path, [`util::vfs::write_atomic`]
//! (process-unique temp file, `fsync`, atomic rename, parent-directory
//! `fsync`) — concurrent writers race benignly (last rename wins, every
//! intermediate state is a complete entry) and readers never observe a
//! torn write. Any entry that fails validation is evicted on sight and
//! the caller recomputes.
//!
//! Opening a cache **scrubs** it first: temp debris stranded by a crashed
//! writer is deleted and corrupt or foreign `.dqrc` entries are moved to
//! a `quarantine/` subdirectory; both counts surface in `/stats`.

use sched::{GridPoint, GridSpec, PointSummary};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use util::codec::{CodecError, Fnv1a};
use util::frame::Sealed;

/// The entry envelope: "DQRC" (DQmc Result Cache), version 1.
const DQRC: Sealed = Sealed::new(*b"DQRC", 1);

/// What a cache probe found.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// A valid entry; schedule-layer fields of the summary are zeroed.
    Hit(Box<PointSummary>),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed validation; it has been deleted and
    /// the caller must recompute.
    Evicted,
}

/// Content address of one grid point's pooled observables.
///
/// Folds the physics closure only: per-chain parameter fingerprints
/// (model + knobs + hash-split seed + warmup/measure sweeps), the chain
/// count, and the crowd width. Scheduling inputs — workers, devices,
/// quanta, fault plans — are deliberately excluded: the determinism tier
/// proves they cannot move observable bytes. Crowd width *is* included:
/// the engine proves it unobservable too, but the cache stays conservative
/// about the one knob that changes which backend executes the chains.
pub fn point_key(spec: &GridSpec, point: &GridPoint) -> u64 {
    let mut f = Fnv1a::new();
    f.update(b"dqmc-serve-point-v1");
    f.update_u64(spec.chains as u64);
    f.update_u64(spec.crowd.max(1) as u64);
    for chain in 0..spec.chains {
        f.update_u64(dqmc::params_fingerprint(&spec.chain_params(point, chain)));
    }
    f.finish()
}

/// Name of the subdirectory corrupt entries are moved into at open.
pub const QUARANTINE_DIR: &str = "quarantine";

/// A directory of `DQRC` entries, one per point key.
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    scrubbed_debris: u64,
    scrubbed_corrupt: u64,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`, scrubbing it
    /// first: stranded atomic-write temp files are removed, and `.dqrc`
    /// entries that fail validation are moved into [`QUARANTINE_DIR`]
    /// (preserved for post-mortems rather than deleted — corruption found
    /// at startup, unlike a racing eviction, may indicate a storage
    /// problem worth diagnosing).
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        let scrubbed_debris = util::vfs::scrub_tmp(dir)?.count();
        let scrubbed_corrupt = quarantine_corrupt_entries(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            scrubbed_debris,
            scrubbed_corrupt,
        })
    }

    /// The entry path for a key.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.dqrc"))
    }

    /// Probes the cache for `key`, evicting any invalid entry it finds.
    pub fn lookup(&self, key: u64) -> Lookup {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss;
            }
        };
        match decode_entry(key, &bytes) {
            Ok(summary) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Box::new(summary))
            }
            Err(_) => {
                // A corrupt entry must not shadow the recompute path; the
                // remove may itself fail (already evicted by a racer) and
                // that is fine.
                let _ = std::fs::remove_file(&path);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                Lookup::Evicted
            }
        }
    }

    /// Stores a point summary under `key` through the single audited
    /// write path (temp file, fsync, atomic rename, parent-dir fsync;
    /// the temp file is cleaned up on every error path). Concurrent
    /// writers of the same key race benignly — the entries they write
    /// are byte-identical by the determinism contract.
    pub fn store(&self, key: u64, summary: &PointSummary) -> std::io::Result<()> {
        util::vfs::write_atomic(&self.entry_path(key), &encode_entry(key, summary))
    }

    /// [`store`](ResultCache::store) with the workspace's deterministic
    /// bounded backoff on transient failures — the backfill path: losing
    /// a backfill silently would cost a recompute on every future probe.
    pub fn store_retry(&self, key: u64, summary: &PointSummary) -> std::io::Result<()> {
        util::vfs::write_atomic_retry(
            &self.entry_path(key),
            &encode_entry(key, summary),
            util::vfs::RETRY_ATTEMPTS,
            util::vfs::RETRY_BASE_DELAY,
        )
    }

    /// Valid entries served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted as corrupt.
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Stranded temp files removed by the open-time scrub.
    pub fn scrubbed_debris(&self) -> u64 {
        self.scrubbed_debris
    }

    /// Corrupt entries quarantined by the open-time scrub.
    pub fn scrubbed_corrupt(&self) -> u64 {
        self.scrubbed_corrupt
    }
}

/// Moves every invalid `.dqrc` entry in `dir` into [`QUARANTINE_DIR`],
/// returning how many were moved. An entry is invalid when its name is
/// not a 16-digit hex key or its frame fails validation against that
/// key. Deterministic (sorted) scan order.
///
/// The rename here *moves* an existing file rather than publishing new
/// bytes, so the atomic-write discipline does not apply.
// dqmc-lint: allow(direct_fs)
fn quarantine_corrupt_entries(dir: &Path) -> std::io::Result<u64> {
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".dqrc") && entry.path().is_file() {
            names.push(name);
        }
    }
    names.sort_unstable();
    let mut moved = 0u64;
    for name in names {
        let path = dir.join(&name);
        let valid = name
            .strip_suffix(".dqrc")
            .filter(|stem| stem.len() == 16)
            .and_then(|stem| u64::from_str_radix(stem, 16).ok())
            .is_some_and(|key| {
                std::fs::read(&path)
                    .map(|bytes| decode_entry(key, &bytes).is_ok())
                    .unwrap_or(false)
            });
        if valid {
            continue;
        }
        let pen = dir.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&pen)?;
        std::fs::rename(&path, pen.join(&name))?;
        moved += 1;
    }
    Ok(moved)
}

/// Serialises one entry: key echo, then the observables.
fn encode_entry(key: u64, summary: &PointSummary) -> Vec<u8> {
    DQRC.encode(|w| {
        w.put_u64(key);
        summary.encode_observables(w);
    })
}

/// Validates and decodes one entry; any failure means eviction.
fn decode_entry(key: u64, bytes: &[u8]) -> Result<PointSummary, CodecError> {
    let mut r = DQRC.open(bytes)?;
    let echoed = r.get_u64()?;
    if echoed != key {
        return Err(CodecError::Invalid(format!(
            "entry keyed {echoed:#018x} found under {key:#018x}"
        )));
    }
    let summary = PointSummary::decode_observables(&mut r)?;
    r.finish("the cache entry")?;
    Ok(summary)
}
