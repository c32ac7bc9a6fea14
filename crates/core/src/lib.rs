//! Determinant Quantum Monte Carlo for the Hubbard model.
//!
//! This crate is the Rust reproduction of QUEST as described in
//! *"Advancing Large Scale Many-Body QMC Simulations on GPU Accelerated
//! Multicore Systems"* (IPDPS 2012). It implements:
//!
//! - the DQMC sweep (the paper's Algorithm 1) with Metropolis sampling of
//!   the Hubbard–Stratonovich field and **delayed (blocked) rank-1 Green's
//!   function updates** ([`update`]),
//! - numerically stable Green's function evaluation through graded `Q·D·T`
//!   decompositions: the original QRP **stratification** (Algorithm 2) and
//!   the paper's novel **stratification with pre-pivoting** (Algorithm 3)
//!   in [`mod@stratify`],
//! - the cost reducers of §III: **matrix clustering** ([`bmat`]),
//!   **wrapping** ([`greens`]), and **cluster recycling** ([`recycle`]),
//! - equal-time physical measurements — momentum distribution ⟨n_k⟩,
//!   spin–spin correlation C_zz(r), densities, energies ([`measure`]),
//! - a per-phase profiler matching the paper's Table I ([`profile`]),
//! - one run driver for any number of walkers: a [`Crowd`] steps B chains
//!   in lockstep ([`crowd`]) and a [`Simulation`] is a crowd of one ([`sim`]),
//! - a robustness subsystem: one pluggable fallible compute backend trait
//!   over walker slices ([`backend`]), a retry / cluster-shrink /
//!   host-fallback recovery ladder ([`recovery`]), and versioned
//!   checksummed checkpointing with bit-identical resume ([`checkpoint`]).
//!
//! # Quick start
//!
//! ```
//! use dqmc::{ModelParams, SimParams, Simulation};
//! use lattice::Lattice;
//!
//! let model = ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.125, 8);
//! let params = SimParams::new(model).with_sweeps(20, 50).with_seed(7);
//! let mut sim = Simulation::new(params);
//! sim.run();
//! let obs = sim.observables();
//! let (rho, _) = obs.density();
//! assert!((rho - 1.0).abs() < 0.05); // half filling at μ̃ = 0
//! ```

pub mod backend;
pub mod bmat;
pub mod checkpoint;
pub mod crowd;
pub mod diagnostics;
pub mod ensemble;
pub mod greens;
pub mod hs;
pub mod hubbard;
pub mod measure;
pub mod profile;
pub mod recovery;
pub mod recycle;
pub mod sim;
pub mod stratify;
pub mod sweep;
pub mod tdm;
pub mod update;

pub use backend::{ComputeBackend, HostBackend};
pub use bmat::BMatrixFactory;
pub use checkpoint::{params_fingerprint, CheckpointError};
pub use crowd::Crowd;
pub use diagnostics::{condition_profile, ConditionProfile};
pub use ensemble::{chain_seed, run_ensemble, EnsembleResult};
pub use greens::{greens_from_udt, GreensFunction};
pub use hs::HsField;
pub use hubbard::{Acceptance, ModelParams, SimParams, Spin};
pub use measure::{JackknifeScalars, Observables};
pub use profile::phases;
pub use recovery::{
    shrink_cluster_size, RecoveryAction, RecoveryCause, RecoveryEvent, RecoveryLog, RecoveryPolicy,
    RecoveryTallies,
};
pub use recycle::ClusterCache;
pub use sim::{Simulation, Walker};
pub use stratify::{stratify, StratAlgo, StratifyState, Udt};
pub use tdm::{unequal_time_greens_stable, TimeDependentObs};
pub use util::{DqmcError, Severity};
