//! Shared utilities for the DQMC workspace.
//!
//! This crate provides the non-numerical plumbing used by every other crate:
//!
//! - [`rng`]: a self-contained, bit-reproducible Xoshiro256++ pseudo-random
//!   number generator (the Metropolis stream of a DQMC run must be exactly
//!   reproducible from a seed, so we do not depend on external RNG crates
//!   whose output may change between versions),
//! - [`stats`]: running means, standard errors, binned Monte Carlo error
//!   analysis, and five-number (box-and-whisker) summaries as used by the
//!   paper's Figure 2,
//! - [`timer`]: wall-clock phase profiling (Table I of the paper) and a
//!   simulated clock used by the GPU device model,
//! - [`table`]: minimal fixed-width table rendering for the figure/table
//!   harness binaries,
//! - [`codec`]: the little-endian byte codec, CRC-32 and FNV-1a hashes
//!   under every binary format of the workspace,
//! - [`frame`]: the two magic/version/length/checksum envelopes those
//!   formats are `const` instances of,
//! - [`error`]: the structured failure taxonomy ([`DqmcError`] with
//!   [`Severity`] classes) that keys retry/quarantine policy across the
//!   recovery ladder and the sweep scheduler,
//! - [`vfs`]: the workspace's single audited atomic-write path
//!   (temp + fsync + rename + parent-directory fsync) with a
//!   deterministic, scriptable I/O fault-injection plan mirroring
//!   `gpusim::faults` — every on-disk format publishes through
//!   [`vfs::write_atomic`],
//! - [`sync`]: the workspace's lock primitives — the single audited
//!   poison-recovery helper ([`relock`]) and `Mutex`/`Condvar` types that
//!   switch onto the loom model-checking shim under `--cfg loom`,
//! - [`settings`]: the `key = value` dialect of input files and grid specs
//!   (one lexer, one set of value readers, one error type, a key table per
//!   dialect).

pub mod codec;
pub mod error;
pub mod frame;
pub mod rng;
pub mod settings;
pub mod stats;
pub mod sync;
pub mod table;
pub mod timer;
pub mod vfs;

pub use codec::{crc32, ByteReader, ByteWriter, CodecError, Fnv1a};
pub use error::{DqmcError, Severity};
pub use rng::{derive_seed, Rng};
pub use stats::{
    autocorrelation_time, jackknife_mean, jackknife_ratio, sign_collapsed, BinnedAccumulator,
    FiveNumber, RunningStats,
};
pub use sync::relock;
pub use timer::{PhaseTimer, SimClock};
