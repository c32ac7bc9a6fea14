//! Hubbard lattice geometry for DQMC.
//!
//! QUEST's default geometry is a two-dimensional periodic rectangular
//! lattice; the paper's motivation is stacks of such planes (six to eight
//! layers) modelling material interfaces. This crate provides both, plus
//! everything the simulation needs from geometry:
//!
//! - [`Lattice`]: site indexing, neighbour lists, and the hopping matrix
//!   `K` (with the chemical potential on its diagonal, as in the paper),
//! - [`kron`]: Kronecker products used to build `e^{−ΔτK}` analytically for
//!   separable lattices (exact and much faster than a dense eigensolve),
//! - [`fourier`]: translation-averaged real-space correlations and their
//!   momentum-space transforms (the ⟨n_k⟩ measurement),
//! - [`kpath`]: the (0,0) → (π,π) → (π,0) → (0,0) symmetry path of Figure 5.

pub mod fourier;
pub mod geometry;
pub mod kpath;
pub mod kron;

pub use fourier::{momentum_distribution, translation_average};
pub use geometry::Lattice;
pub use kpath::{symmetry_path, KPathPoint};
