//! `DQSR` shard reports: a child's results file, doubling as its
//! checkpoint — plus the byte-deterministic merge that recombines a
//! fleet's fragments into the single-process observables document.
//!
//! A report holds the shard's identity (shard / nshards / grid
//! fingerprint), the campaign header fields the merged JSON needs
//! (seed, chains, warmup, sweeps), the point indices the shard was
//! *assigned*, and the [`PointSummary`] fragments it has *finished*.
//! Children rewrite the file atomically after every completed point, so a
//! respawned child resumes by decoding its own partial report and
//! skipping the points already present. Restart safety needs no replay
//! log: a point summary is a pure function of (grid, seeds), so rerunning
//! an unfinished point from scratch reproduces the same bytes the dead
//! process would have written.
//!
//! # Why the merge is byte-identical
//!
//! The shard unit is a whole grid point: every chain of a point runs in
//! one process, pooled by the same `summarize_point` chain-order fold the
//! single-process sweep uses, under canonical point indices (the seed
//! stream ids). The determinism tier (`tests/sched_determinism.rs`) pins
//! that per-point summaries are independent of workers, devices,
//! preemption, and fault plans — so each fragment here is bit-equal to
//! its single-process counterpart. Merging is therefore pure
//! reassembly: validate coverage, sort fragments into canonical point
//! order, and emit them through the one shared
//! [`sched::observables_json_for`] formatter. There is no float
//! re-associtation anywhere in the merge path.

use sched::PointSummary;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use util::codec::CodecError;
use util::frame::Sealed;

use crate::manifest::get_shard_id;

/// The report envelope: "DQSR" (DQmc Shard Report), version 1 — a
/// [`Sealed`] image like the manifest's.
const DQSR: Sealed = Sealed::new(*b"DQSR", 1);

/// One shard's (possibly partial) results.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard id, `0..nshards`.
    pub shard: usize,
    /// Total shards in the fleet.
    pub nshards: usize,
    /// [`sched::grid_fingerprint`] of the campaign grid.
    pub fingerprint: u64,
    /// Campaign base seed (merged-JSON header field).
    pub seed: u64,
    /// Chains per point (merged-JSON header field).
    pub chains: usize,
    /// Warmup sweeps per chain (merged-JSON header field).
    pub warmup: usize,
    /// Measured sweeps per chain (merged-JSON header field).
    pub sweeps: usize,
    /// Canonical point indices this shard was assigned, ascending.
    pub assigned: Vec<usize>,
    /// Finished point summaries, in completion order. Observables-layer
    /// only: schedule diagnostics are zeroed by the codec.
    pub fragments: Vec<PointSummary>,
    /// Chains that exhausted their retry budget, summed over fragments.
    pub failed_chains: usize,
}

impl ShardReport {
    /// True once every assigned point has a fragment.
    pub fn is_complete(&self) -> bool {
        let mut done: Vec<usize> = self.fragments.iter().map(|f| f.point).collect();
        done.sort_unstable();
        done == self.assigned
    }

    /// Assigned points with no fragment yet, ascending.
    pub fn missing_points(&self) -> Vec<usize> {
        let done: Vec<usize> = self.fragments.iter().map(|f| f.point).collect();
        self.assigned
            .iter()
            .copied()
            .filter(|p| !done.contains(p))
            .collect()
    }

    /// Serialises the report.
    pub fn encode(&self) -> Vec<u8> {
        DQSR.encode(|w| {
            w.put_u64(self.shard as u64);
            w.put_u64(self.nshards as u64);
            w.put_u64(self.fingerprint);
            w.put_u64(self.seed);
            w.put_u64(self.chains as u64);
            w.put_u64(self.warmup as u64);
            w.put_u64(self.sweeps as u64);
            w.put_u64(self.failed_chains as u64);
            w.put_indices(&self.assigned);
            w.put_u64(self.fragments.len() as u64);
            for f in &self.fragments {
                f.encode_observables(w);
            }
        })
    }

    /// Validates and decodes a report produced by [`ShardReport::encode`].
    pub fn decode(bytes: &[u8]) -> Result<ShardReport, CodecError> {
        let mut r = DQSR.open(bytes)?;
        let (shard, nshards) = get_shard_id(&mut r)?;
        let fingerprint = r.get_u64()?;
        let seed = r.get_u64()?;
        let chains = r.get_u64()? as usize;
        let warmup = r.get_u64()? as usize;
        let sweeps = r.get_u64()? as usize;
        let failed_chains = r.get_u64()? as usize;
        let assigned = r.get_indices("assigned points")?;
        let nfrag = r.get_count(PointSummary::MIN_ENCODED_LEN)?;
        let mut fragments = Vec::with_capacity(nfrag);
        for _ in 0..nfrag {
            let f = PointSummary::decode_observables(&mut r)?;
            if !assigned.contains(&f.point) {
                return Err(CodecError::Invalid(format!(
                    "fragment for point {} not in shard assignment",
                    f.point
                )));
            }
            fragments.push(f);
        }
        r.finish("the report")?;
        Ok(ShardReport {
            shard,
            nshards,
            fingerprint,
            seed,
            chains,
            warmup,
            sweeps,
            assigned,
            fragments,
            failed_chains,
        })
    }

    /// Reads and decodes a report file.
    pub fn read(path: &Path) -> Result<ShardReport, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ShardReport::decode(&bytes).map_err(|e| format!("invalid report {}: {e}", path.display()))
    }

    /// Writes the report atomically and durably — the child's per-point
    /// checkpoint. Transient failures (a briefly-full disk, EIO) are
    /// retried with the workspace's deterministic bounded backoff before
    /// surfacing: losing a checkpoint costs a whole point rerun, so the
    /// child rides out short outages.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        util::vfs::write_atomic_retry(
            path,
            &self.encode(),
            util::vfs::RETRY_ATTEMPTS,
            util::vfs::RETRY_BASE_DELAY,
        )
    }
}

/// Why a set of shard reports refused to merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No reports were offered.
    Empty,
    /// Two reports disagree on a campaign-level field.
    HeaderMismatch(String),
    /// Two fragments (across or within reports) cover the same point.
    DuplicatePoint(usize),
    /// Assigned points remain unfinished after all reports merged.
    MissingPoints(Vec<usize>),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard reports to merge"),
            MergeError::HeaderMismatch(msg) => write!(f, "shard header mismatch: {msg}"),
            MergeError::DuplicatePoint(p) => {
                write!(f, "point {p} appears in more than one shard report")
            }
            MergeError::MissingPoints(pts) => {
                write!(f, "unfinished points after merge: {pts:?}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// A fleet's recombined campaign: the same data a single-process
/// [`sched::SweepReport`] would carry at the observables layer.
#[derive(Clone, Debug)]
pub struct MergedReport {
    /// Campaign base seed.
    pub seed: u64,
    /// Chains per point.
    pub chains: usize,
    /// Warmup sweeps per chain.
    pub warmup: usize,
    /// Measured sweeps per chain.
    pub sweeps: usize,
    /// Point summaries in canonical (ascending index) order.
    pub points: Vec<PointSummary>,
    /// Retry-exhausted chains summed over shards.
    pub failed_chains: usize,
}

impl MergedReport {
    /// Emits the observables JSON document through the shared
    /// single-process formatter — the byte-identity anchor.
    pub fn observables_json(&self) -> String {
        sched::observables_json_for(
            self.seed,
            self.chains,
            self.warmup,
            self.sweeps,
            &self.points,
        )
    }
}

/// Recombines shard reports into one campaign report.
///
/// Validates that every report speaks for the same campaign (fingerprint
/// and header fields equal), that no point is claimed twice, and that the
/// union of fragments covers the union of assignments. Fragments are
/// reassembled in canonical point order; nothing is recomputed.
pub fn merge_reports(reports: &[ShardReport]) -> Result<MergedReport, MergeError> {
    let first = reports.first().ok_or(MergeError::Empty)?;
    let mut fragments: BTreeMap<usize, PointSummary> = BTreeMap::new();
    let mut assigned: Vec<usize> = Vec::new();
    let mut failed_chains = 0usize;
    for r in reports {
        if r.fingerprint != first.fingerprint {
            return Err(MergeError::HeaderMismatch(format!(
                "grid fingerprint {:#018x} (shard {}) != {:#018x} (shard {})",
                r.fingerprint, r.shard, first.fingerprint, first.shard
            )));
        }
        for (name, a, b) in [
            ("seed", r.seed, first.seed),
            ("chains", r.chains as u64, first.chains as u64),
            ("warmup", r.warmup as u64, first.warmup as u64),
            ("sweeps", r.sweeps as u64, first.sweeps as u64),
            ("nshards", r.nshards as u64, first.nshards as u64),
        ] {
            if a != b {
                return Err(MergeError::HeaderMismatch(format!(
                    "{name} {a} (shard {}) != {b} (shard {})",
                    r.shard, first.shard
                )));
            }
        }
        assigned.extend_from_slice(&r.assigned);
        failed_chains += r.failed_chains;
        for f in &r.fragments {
            if fragments.insert(f.point, f.clone()).is_some() {
                return Err(MergeError::DuplicatePoint(f.point));
            }
        }
    }
    assigned.sort_unstable();
    for w in assigned.windows(2) {
        if w[0] == w[1] {
            return Err(MergeError::DuplicatePoint(w[0]));
        }
    }
    let missing: Vec<usize> = assigned
        .iter()
        .copied()
        .filter(|p| !fragments.contains_key(p))
        .collect();
    if !missing.is_empty() {
        return Err(MergeError::MissingPoints(missing));
    }
    Ok(MergedReport {
        seed: first.seed,
        chains: first.chains,
        warmup: first.warmup,
        sweeps: first.sweeps,
        points: fragments.into_values().collect(),
        failed_chains,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(point: usize) -> PointSummary {
        PointSummary {
            point,
            u: 2.0 + point as f64,
            beta: 1.5,
            slices: 12,
            chains_ok: 2,
            chains_failed: 0,
            bin_count: 4,
            scalars: None,
            mean_acceptance: 0.0,
            max_wrap_error: 0.0,
            recovery_events: 0,
            preemptions: 0,
            device_quanta: 0,
            host_quanta: 0,
            device_seconds: 0.0,
        }
    }

    fn report(shard: usize, assigned: Vec<usize>, done: &[usize]) -> ShardReport {
        ShardReport {
            shard,
            nshards: 2,
            fingerprint: 7,
            seed: 42,
            chains: 2,
            warmup: 2,
            sweeps: 4,
            assigned,
            fragments: done.iter().map(|&p| summary(p)).collect(),
            failed_chains: 0,
        }
    }

    #[test]
    fn report_round_trips_and_rejects_corruption() {
        let r = report(0, vec![0, 1], &[1, 0]);
        let bytes = r.encode();
        let back = ShardReport::decode(&bytes).expect("round trip");
        assert_eq!(back.encode(), bytes, "decode∘encode is the identity");
        assert_eq!(back.assigned, r.assigned);
        assert_eq!(back.fragments.len(), r.fragments.len());
        // Behind a valid checksum the body is still validated: a fragment
        // for a point the shard was never assigned is refused.
        let stray = report(0, vec![0, 1], &[1, 5]);
        assert!(ShardReport::decode(&stray.encode()).is_err());
    }

    #[test]
    fn completeness_and_missing_points_track_fragments() {
        let partial = report(0, vec![0, 1, 2], &[1]);
        assert!(!partial.is_complete());
        assert_eq!(partial.missing_points(), vec![0, 2]);
        let full = report(0, vec![0, 1, 2], &[2, 0, 1]);
        assert!(full.is_complete());
        assert!(full.missing_points().is_empty());
    }

    #[test]
    fn merge_sorts_fragments_into_canonical_order() {
        let a = report(0, vec![0, 3], &[3, 0]);
        let b = report(1, vec![1, 2], &[2, 1]);
        let merged = merge_reports(&[b, a]).expect("merges");
        let order: Vec<usize> = merged.points.iter().map(|p| p.point).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_rejects_mismatch_duplicate_and_missing() {
        let a = report(0, vec![0, 1], &[0, 1]);
        let mut skewed = report(1, vec![2], &[2]);
        skewed.fingerprint = 8;
        assert!(matches!(
            merge_reports(&[a.clone(), skewed]),
            Err(MergeError::HeaderMismatch(_))
        ));
        let dup = report(1, vec![1, 2], &[1, 2]);
        assert!(matches!(
            merge_reports(&[a.clone(), dup]),
            Err(MergeError::DuplicatePoint(1))
        ));
        let partial = report(1, vec![2, 3], &[2]);
        match merge_reports(&[a, partial]) {
            Err(MergeError::MissingPoints(pts)) => assert_eq!(pts, vec![3]),
            other => panic!("expected MissingPoints, got {other:?}"),
        }
        assert!(matches!(merge_reports(&[]), Err(MergeError::Empty)));
    }
}
