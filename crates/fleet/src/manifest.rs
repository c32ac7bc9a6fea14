//! `DQSM` shard manifests: the work order a supervisor hands a child
//! process.
//!
//! A manifest carries everything a child needs to reproduce its slice of
//! the campaign from nothing: the grid text verbatim (the child re-parses
//! it, so both processes run the *same* `GridSpec::parse` — one source of
//! truth, no struct-serialisation skew), the canonical point indices the
//! shard owns, and the grid's physics fingerprint so a child started
//! against a stale manifest refuses to run rather than producing
//! unmergeable bytes.
//!
//! The image is a [`util::frame::Sealed`] envelope; any validation failure
//! is an error, never a guess.

use std::path::Path;
use util::codec::{ByteReader, CodecError};
use util::frame::Sealed;

/// The manifest envelope: "DQSM" (DQmc Shard Manifest), version 1.
const DQSM: Sealed = Sealed::new(*b"DQSM", 1);

/// Reads the `shard | nshards` pair every fleet image starts with.
pub(crate) fn get_shard_id(r: &mut ByteReader<'_>) -> Result<(usize, usize), CodecError> {
    let shard = r.get_u64()? as usize;
    let nshards = r.get_u64()? as usize;
    if shard >= nshards {
        return Err(CodecError::Invalid(format!(
            "shard {shard} outside fleet of {nshards}"
        )));
    }
    Ok((shard, nshards))
}

/// One shard's work order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Shard id, `0..nshards`.
    pub shard: usize,
    /// Total shards in the fleet.
    pub nshards: usize,
    /// [`sched::grid_fingerprint`] of the grid below; children refuse a
    /// mismatch between this and what they parse.
    pub fingerprint: u64,
    /// The campaign grid, verbatim — the child re-parses it.
    pub grid_text: String,
    /// Canonical (u-major) point indices this shard owns, ascending.
    pub points: Vec<usize>,
}

impl ShardManifest {
    /// Serialises the manifest.
    pub fn encode(&self) -> Vec<u8> {
        DQSM.encode(|w| {
            w.put_u64(self.shard as u64);
            w.put_u64(self.nshards as u64);
            w.put_u64(self.fingerprint);
            w.put_str(&self.grid_text);
            w.put_indices(&self.points);
        })
    }

    /// Validates and decodes a manifest produced by
    /// [`ShardManifest::encode`].
    pub fn decode(bytes: &[u8]) -> Result<ShardManifest, CodecError> {
        let mut r = DQSM.open(bytes)?;
        let (shard, nshards) = get_shard_id(&mut r)?;
        let manifest = ShardManifest {
            shard,
            nshards,
            fingerprint: r.get_u64()?,
            grid_text: r.get_str()?,
            points: r.get_indices("manifest points")?,
        };
        r.finish("the manifest")?;
        Ok(manifest)
    }

    /// Reads and decodes a manifest file.
    pub fn read(path: &Path) -> Result<ShardManifest, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ShardManifest::decode(&bytes)
            .map_err(|e| format!("invalid manifest {}: {e}", path.display()))
    }

    /// Writes the manifest atomically and durably through the single
    /// audited write path.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        util::vfs::write_atomic(path, &self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            shard: 1,
            nshards: 3,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            grid_text: "lx = 2\nly = 2\nu = 2.0\nbeta = 1.0\n".into(),
            points: vec![2, 3, 5],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let m = sample();
        assert_eq!(ShardManifest::decode(&m.encode()).expect("round trip"), m);
    }

    #[test]
    fn rejects_unsorted_points_and_bad_shard_ids() {
        let mut m = sample();
        m.points = vec![3, 2];
        assert!(ShardManifest::decode(&m.encode()).is_err());
        let mut m = sample();
        m.shard = 3; // == nshards
        assert!(ShardManifest::decode(&m.encode()).is_err());
    }
}
