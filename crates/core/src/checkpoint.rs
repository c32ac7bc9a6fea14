//! Versioned, checksummed checkpointing of the full DQMC state.
//!
//! A checkpoint captures everything needed to resume a walker **bit-identically**:
//! the HS field, the RNG position, both Green's functions, the incremental
//! sign, the observable accumulators (equal-time and, when enabled,
//! time-dependent), the sweep counters, and the runtime recovery state
//! (adaptively shrunk cluster size, the driver's host-fallback flag,
//! recovery-event count). The cluster cache is *not* saved — its entries are pure functions
//! of `(params, h)` and rebuild on demand to the same bits.
//!
//! # File format (`DQCP` version 1)
//!
//! A [`util::frame::Framed`] envelope with no tag (DESIGN.md §9 "Binary
//! formats") that must account for the file exactly: the CRC covers the
//! payload only, so tampering with the version field reports
//! [`CodecError::BadVersion`], not a confusing checksum failure, and
//! truncation and trailing garbage are both detected before any payload
//! decoding starts.
//!
//! Writes are atomic: the bytes go to a sibling `<path>.tmp`, are fsynced,
//! and renamed over the destination — a kill mid-write can never leave a
//! half-written checkpoint at the published path.

use crate::crowd::Crowd;
use crate::hs::HsField;
use crate::hubbard::{Acceptance, SimParams};
use crate::measure::Observables;
use crate::sim::{Simulation, Walker};
use crate::stratify::StratAlgo;
use crate::sweep::DqmcCore;
use crate::tdm::TimeDependentObs;
use linalg::Matrix;
use std::fmt;
use std::fs;
use std::path::Path;
use util::codec::{ByteReader, ByteWriter, CodecError, Fnv1a};
use util::frame::Framed;
use util::Rng;
use util::RunningStats;

/// Leading magic bytes of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"DQCP";

/// Format version this build reads and writes.
pub const VERSION: u32 = 1;

/// The walker image's envelope.
const DQCP: Framed<0> = Framed::new(MAGIC, VERSION);

/// Why a checkpoint save or load failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The filesystem said no.
    Io(String),
    /// The bytes were malformed (truncated, corrupt, wrong version…).
    Codec(CodecError),
    /// The checkpoint was written by a run with different parameters.
    ParamsMismatch {
        /// Fingerprint of the parameters passed to [`load`].
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Codec(e) => write!(f, "checkpoint decode error: {e}"),
            CheckpointError::ParamsMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run: fingerprint {found:#018x} \
                 does not match the configured parameters ({expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Writes a matrix as `u32` dims followed by its column-major `f64`s.
pub(crate) fn write_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.put_u32(m.nrows() as u32);
    w.put_u32(m.ncols() as u32);
    for &v in m.as_slice() {
        w.put_f64(v);
    }
}

/// Reads a matrix written by [`write_matrix`]. The elements are claimed
/// from the remaining bytes *before* allocating, so corrupt dimensions
/// cannot trigger an enormous allocation or a panic.
pub(crate) fn read_matrix(r: &mut ByteReader<'_>) -> Result<Matrix, CodecError> {
    let nrows = r.get_u32()? as usize;
    let ncols = r.get_u32()? as usize;
    let len = nrows
        .checked_mul(ncols)
        .ok_or_else(|| CodecError::Invalid("matrix dimensions overflow".into()))?;
    Ok(Matrix::from_col_major(nrows, ncols, r.get_f64s(len)?))
}

/// FNV-1a digest over everything that defines the Markov chain: the model
/// (including the full kinetic matrix, so lattice geometry and hopping
/// amplitudes are covered), every algorithmic knob, and the seed. The
/// recovery *policy* is deliberately excluded — it never consumes the
/// Metropolis RNG stream, so resuming a checkpoint under a different policy
/// is sound.
pub fn params_fingerprint(p: &SimParams) -> u64 {
    let mut f = Fnv1a::new();
    f.update(b"dqmc-params-v1");
    f.update_u64(p.model.nsites() as u64);
    f.update_u64(p.model.slices as u64);
    f.update_f64(p.model.u);
    f.update_f64(p.model.mu_tilde);
    f.update_f64(p.model.dtau);
    let kin = p.model.lattice.kinetic_matrix(0.0);
    f.update_u64(kin.nrows() as u64);
    for &v in kin.as_slice() {
        f.update_f64(v);
    }
    f.update_u64(p.warmup_sweeps as u64);
    f.update_u64(p.measure_sweeps as u64);
    f.update_u64(p.cluster_size as u64);
    f.update_u64(p.delay_block as u64);
    f.update_u64(p.seed);
    f.update_u64(match p.algo {
        StratAlgo::Qrp => 0,
        StratAlgo::PrePivot => 1,
    });
    f.update_u64(p.recycle as u64);
    f.update_u64(p.bin_size as u64);
    f.update_u64(p.measure_unequal_time as u64);
    // Retired checkerboard slot, kept so goldens and on-disk caches stay readable.
    f.update_u64(0);
    f.update_u64(p.measure_per_cluster as u64);
    f.update_u64(match p.acceptance {
        Acceptance::Metropolis => 0,
        Acceptance::HeatBath => 1,
    });
    f.finish()
}

/// One walker's complete state plus its driver's host-fallback flag as a
/// `DQCP` frame. A preempted job parks as a `DQCW` envelope of these
/// ([`Crowd::checkpoint_bytes`]); because each is the *same* format [`save`]
/// writes, a parked walker can equally be spilled to disk and survive a
/// process kill.
pub(crate) fn walker_to_bytes(sim: &Walker, use_host_fallback: bool) -> Vec<u8> {
    let core = &sim.core;
    DQCP.encode([], |w| {
        w.put_u64(params_fingerprint(&core.params));
        w.put_u64(sim.warmup_done as u64);
        w.put_u64(sim.measure_done as u64);
        w.put_u64(core.sweeps_run);
        w.put_u64(core.cache.cluster_size() as u64);
        w.put_bool(use_host_fallback);
        w.put_u64(core.recovery.total());
        w.put_f64(core.sign);
        w.put_u64(core.accepted);
        w.put_u64(core.proposed);
        core.h.encode(w);
        core.rng.encode(w);
        write_matrix(w, &core.g[0]);
        write_matrix(w, &core.g[1]);
        core.wrap_diff.encode(w);
        sim.obs.encode(w);
        w.put_bool(sim.tdm.is_some());
        if let Some(tdm) = &sim.tdm {
            tdm.encode(w);
        }
    })
}

/// Rebuilds a [`Walker`] and the host-fallback flag it was saved under from
/// a `DQCP` frame, validating framing, checksum and the parameter
/// fingerprint against `params`.
pub(crate) fn walker_from_bytes(
    bytes: &[u8],
    params: &SimParams,
) -> Result<(Walker, bool), CheckpointError> {
    let ([], mut r) = DQCP.open(bytes)?;
    let found = r.get_u64()?;
    let expected = params_fingerprint(params);
    if found != expected {
        return Err(CheckpointError::ParamsMismatch { expected, found });
    }
    let warmup_done = r.get_u64()? as usize;
    let measure_done = r.get_u64()? as usize;
    let sweeps_run = r.get_u64()?;
    let cluster_size = r.get_u64()? as usize;
    if cluster_size < 1 || cluster_size > params.model.slices {
        return Err(CodecError::Invalid(format!(
            "runtime cluster size {cluster_size} outside 1..={}",
            params.model.slices
        ))
        .into());
    }
    let use_host_fallback = r.get_bool("host-fallback")?;
    let recovery_prior = r.get_u64()?;
    let sign = r.get_f64()?;
    let accepted = r.get_u64()?;
    let proposed = r.get_u64()?;
    let h = HsField::decode(&mut r)?;
    if h.nsites() != params.model.nsites() || h.slices() != params.model.slices {
        return Err(CodecError::Invalid(format!(
            "HS field is {}x{}, model is {}x{}",
            h.slices(),
            h.nsites(),
            params.model.slices,
            params.model.nsites()
        ))
        .into());
    }
    let rng = Rng::decode(&mut r)?;
    let g_up = read_matrix(&mut r)?;
    let g_dn = read_matrix(&mut r)?;
    let n = params.model.nsites();
    for (name, g) in [("up", &g_up), ("down", &g_dn)] {
        if g.nrows() != n || g.ncols() != n {
            return Err(CodecError::Invalid(format!(
                "{name} Green's function is {}x{}, expected {n}x{n}",
                g.nrows(),
                g.ncols()
            ))
            .into());
        }
    }
    let wrap_diff = RunningStats::decode(&mut r)?;
    let obs = Observables::decode(&params.model, &mut r)?;
    let tdm = if r.get_bool("TDM presence")? {
        Some(TimeDependentObs::decode(&params.model.lattice, &mut r)?)
    } else {
        None
    };
    if params.measure_unequal_time != tdm.is_some() {
        return Err(CodecError::Invalid(
            "time-dependent measurement flag disagrees with checkpoint contents".into(),
        )
        .into());
    }
    r.finish("the walker state")?;
    let core = DqmcCore::restore(
        params.clone(),
        h,
        rng,
        [g_up, g_dn],
        sign,
        cluster_size,
        accepted,
        proposed,
        sweeps_run,
        wrap_diff,
        recovery_prior,
    );
    let walker = Walker {
        core,
        obs,
        tdm,
        warmup_done,
        measure_done,
    };
    Ok((walker, use_host_fallback))
}

/// Atomically writes a checkpoint of `sim` to `path` through the
/// workspace's single audited write path ([`util::vfs::write_atomic`]:
/// tmp file + fsync + rename + parent-directory fsync; a kill at any
/// point leaves either the old checkpoint or the new one, never a torn
/// file).
pub fn save(sim: &Simulation, path: &Path) -> Result<(), CheckpointError> {
    util::vfs::write_atomic(path, &to_bytes(sim))?;
    Ok(())
}

/// Loads a checkpoint from `path`, validating framing, checksum and the
/// parameter fingerprint against `params`, and rebuilds the simulation.
pub fn load(path: &Path, params: &SimParams) -> Result<Simulation, CheckpointError> {
    let bytes = fs::read(path)?;
    from_bytes(&bytes, params)
}

/// Serializes `sim` to an in-memory `DQCP` frame — byte-for-byte what
/// [`save`] would write to disk.
pub fn to_bytes(sim: &Simulation) -> Vec<u8> {
    walker_to_bytes(sim, sim.crowd.driver.use_host_fallback)
}

/// Rebuilds a simulation from a `DQCP` frame produced by [`to_bytes`] (or
/// read back from a checkpoint file), with the full framing, checksum and
/// parameter-fingerprint validation of [`load`].
pub fn from_bytes(bytes: &[u8], params: &SimParams) -> Result<Simulation, CheckpointError> {
    let (walker, use_host_fallback) = walker_from_bytes(bytes, params)?;
    Ok(Simulation {
        crowd: Crowd::from_walkers(vec![walker], use_host_fallback),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;
    use lattice::Lattice;

    fn params(seed: u64) -> SimParams {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8);
        SimParams::new(model)
            .with_sweeps(4, 8)
            .with_seed(seed)
            .with_cluster_size(4)
            .with_bin_size(2)
    }

    #[test]
    fn matrix_codec_round_trip_and_bounds() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64 - 0.5);
        let mut w = ByteWriter::new();
        write_matrix(&mut w, &m);
        let bytes = w.into_bytes();
        let got = read_matrix(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(got.max_abs_diff(&m), 0.0);
        // Corrupt dimensions promise more data than exists: clean error,
        // no giant allocation.
        let mut bad = bytes.clone();
        bad[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_matrix(&mut ByteReader::new(&bad)).is_err());
        // Every truncation errors cleanly.
        for cut in 0..bytes.len() {
            assert!(read_matrix(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn fingerprint_sensitive_to_every_knob() {
        let base = params_fingerprint(&params(1));
        assert_ne!(base, params_fingerprint(&params(2)), "seed");
        assert_ne!(
            base,
            params_fingerprint(&params(1).with_cluster_size(2)),
            "cluster size"
        );
        assert_ne!(
            base,
            params_fingerprint(&params(1).with_algo(StratAlgo::Qrp)),
            "algorithm"
        );
        assert_ne!(
            base,
            params_fingerprint(&params(1).with_acceptance(Acceptance::HeatBath)),
            "acceptance rule"
        );
        // Same params twice: stable.
        assert_eq!(base, params_fingerprint(&params(1)));
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut sim = Simulation::new(params(7));
        sim.warmup(2);
        let dir = std::env::temp_dir().join(format!("dqcp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.dqcp");
        save(&sim, &path).unwrap();
        let restored = load(&path, &params(7)).unwrap();
        assert_eq!(restored.core.h, sim.core.h);
        assert_eq!(restored.core.rng.state(), sim.core.rng.state());
        assert_eq!(restored.core.g[0].max_abs_diff(&sim.core.g[0]), 0.0);
        assert_eq!(restored.core.g[1].max_abs_diff(&sim.core.g[1]), 0.0);
        assert_eq!(restored.core.sign, sim.core.sign);
        assert_eq!(restored.core.accepted, sim.core.accepted);
        assert_eq!(restored.sweeps_done(), sim.sweeps_done());
        // Wrong params: clean mismatch, not garbage state.
        assert!(matches!(
            load(&path, &params(8)),
            Err(CheckpointError::ParamsMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
