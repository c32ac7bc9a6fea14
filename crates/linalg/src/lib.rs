//! Dense linear-algebra substrate for the DQMC workspace.
//!
//! The paper's computations run on MKL's DGEMM / DGEQRF / DGEQP3 / LU. This
//! crate is a from-scratch Rust stand-in implementing the same *algorithmic
//! structure* — blocked level-3 kernels, a blocked
//! Householder QR, a Quintana-Ortí–Sun–Bischof style QR with column pivoting
//! whose pivot-norm updates are inherently level-2 (the very property the
//! paper's pre-pivoting contribution works around), and partial-pivoting LU.
//!
//! Matrices are dense, column-major, `f64` ([`Matrix`]). Dimension mismatches
//! panic (programming errors); numerical rank problems return
//! [`Error`] values.
//!
//! # Module map
//!
//! | module | LAPACK/BLAS analogue | role in the paper |
//! |---|---|---|
//! | [`blas1`] | ddot/daxpy/dnrm2/… | building blocks |
//! | [`blas2`] | dgemv | delayed-update rows/cols |
//! | [`blas3`] | dgemm | clustering, wrapping, T products (Fig. 1 baseline) |
//! | [`qr`] | dgeqrf/dorgqr/dormqr | Algorithm 3 (pre-pivoted stratification) |
//! | [`qrp`] | dgeqp3 | Algorithm 2 (original stratification) |
//! | [`lu`] | dgetrf/dgetrs/dgetri | final Green's-function assembly |
//! | [`tri`] | dtrsm/dtrmm/dtrtri | T-matrix updates |
//! | [`eig`] | dsyev (dsytrd/dorgtr/dsteqr) | U = 0 oracles, exact diagonalisation |
//! | [`expm`] | — | B = e^{−ΔτK} |
//! | [`kron`] | — | products with e^{∓ΔτK} kept as its Kronecker factors |
//! | [`scale`] | custom OpenMP kernels of §IV-B | row/col scalings, column norms |
//! | [`perm`] | dlapmt | pivoting and pre-pivoting |
//! | [`team`] | the OpenMP runtime of §IV-B | one fork-join team: GEMM chunks, the spin pair |

//!
//! # Checked-invariants mode
//!
//! With the `checked-invariants` cargo feature the kernels assert runtime
//! invariants (NaN/Inf taint on outputs, Q orthogonality, grading of
//! pivoted-QR diagonals) through the macros in [`check`]; without the
//! feature the macros expand to nothing. See [`check`] for the contract.

pub mod batch;
pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod check;
pub mod eig;
pub mod expm;
pub mod kron;
pub mod lu;
pub mod matrix;
pub mod perm;
pub mod qr;
pub mod qrp;
pub mod scale;
pub mod simd;
pub mod svd;
pub mod team;
pub mod tri;
pub mod workspace;

pub use batch::{dgemm_strided_batched, qrp_batched, GemmOperand};
pub use blas3::{gemm, gemm_naive, gemm_with_kernel, Op};
pub use eig::SymEig;
pub use expm::sym_expm;
pub use kron::{Kron, Side};
pub use lu::LuFactors;
pub use matrix::Matrix;
pub use perm::Permutation;
pub use qr::QrFactors;
pub use qrp::QrpFactors;
pub use simd::{kernel_path, KernelPath};
pub use svd::{svd, Svd};

/// Errors from numerically rank-revealing operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Error {
    /// An exactly (or numerically) singular pivot was encountered;
    /// the payload is the zero-based index of the offending column.
    Singular(usize),
    /// An iterative algorithm failed to converge within its iteration cap.
    NoConvergence,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Singular(i) => write!(f, "singular pivot at column {i}"),
            Error::NoConvergence => write!(f, "iteration failed to converge"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
