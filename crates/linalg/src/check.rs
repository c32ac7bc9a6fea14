//! Runtime invariant layer for the numerical kernels.
//!
//! DQMC failures are rarely loud: a NaN born in one cluster product
//! silently propagates through dozens of GEMMs before an observable turns
//! into garbage, and a loss of grading in `D` degrades the Green's function
//! without crashing anything. This module provides *checked-invariants*
//! mode: assertion macros that the kernels and the stratification layer
//! call at their natural checkpoints —
//!
//! - [`check_finite!`](crate::check_finite!): NaN/Inf taint on kernel
//!   outputs (and on the factor entering each cluster boundary, so a
//!   poisoned B-matrix is reported *by boundary index* instead of surfacing
//!   later as a cryptic pivot failure),
//! - [`check_orthogonal!`](crate::check_orthogonal!): `‖QᵀQ − I‖_max`
//!   residual after each stratified QR,
//! - [`check_graded!`](crate::check_graded!): monotone (descending-magnitude)
//!   grading of `D`, with algorithm-dependent slack (QRP grades strictly;
//!   pre-pivoting preserves grading "although not as strong", §IV-A of the
//!   paper).
//!
//! Every macro expands to a `#[cfg(feature = "checked-invariants")]` block:
//! **without the feature the expansion is empty** — no branch, no format
//! machinery, zero cost. The helper functions below are always compiled
//! (they are tiny) so they can be unit-tested without the feature.

use crate::blas3::{matmul, Op};
use crate::matrix::Matrix;

/// Panics if any element of `data` is NaN or ±Inf, naming `ctx`.
///
/// The panic message has the form
/// `invariant violation: non-finite value <v> at flat index <i> in <ctx>`.
pub fn assert_all_finite(ctx: &str, data: &[f64]) {
    for (i, &x) in data.iter().enumerate() {
        assert!(
            x.is_finite(),
            "invariant violation: non-finite value {x} at flat index {i} in {ctx}"
        );
    }
}

/// Panics if `‖QᵀQ − I‖_max > tol`, naming `ctx`.
pub fn assert_orthogonal(ctx: &str, q: &Matrix, tol: f64) {
    let qtq = matmul(q, Op::Trans, q, Op::NoTrans);
    let resid = qtq.max_abs_diff(&Matrix::identity(q.ncols()));
    assert!(
        resid <= tol,
        "invariant violation: Q orthogonality residual {resid:.3e} exceeds {tol:.3e} in {ctx}"
    );
}

/// Panics unless `slack · |d[j]| ≥ |d[j+1]|` for every adjacent pair,
/// naming `ctx`.
///
/// Pairs already down at roundoff level relative to the leading magnitude
/// (below `1e-13 · |d[0]|`) are exempt: in rank-deficient problems the
/// trailing diagonal is numerical noise and its ordering carries no
/// information.
pub fn assert_graded(ctx: &str, d: &[f64], slack: f64) {
    let floor = d.first().map_or(0.0, |x| 1e-13 * x.abs());
    for (j, w) in d.windows(2).enumerate() {
        let (hi, lo) = (w[0].abs(), w[1].abs());
        if lo <= floor {
            continue;
        }
        assert!(
            slack * hi >= lo,
            "invariant violation: grading broken at {j}: |d[{j}]| = {hi:.6e} then \
             |d[{}]| = {lo:.6e} (slack {slack}) in {ctx}",
            j + 1
        );
    }
}

/// Returns the flat index and value of the first non-finite element of
/// `data`, or `None` when every element is finite.
///
/// Unlike [`assert_all_finite`] this never panics and is compiled
/// unconditionally: the recovery layer in `dqmc::sweep` uses it as an
/// always-on taint detector so that a poisoned cluster product or wrapped
/// Green's function can be *repaired* (retry, cluster shrink, host
/// fallback) instead of aborting the run.
pub fn first_non_finite(data: &[f64]) -> Option<(usize, f64)> {
    data.iter()
        .enumerate()
        .find(|(_, x)| !x.is_finite())
        .map(|(i, &x)| (i, x))
}

/// Asserts every element of a `&[f64]` is finite — expands to nothing
/// without the `checked-invariants` feature.
///
/// Usage: `check_finite!(m.as_slice(), "gemm output ({m}x{n})")`; the
/// context arguments are `format!`-style and are only evaluated in checked
/// builds.
#[macro_export]
macro_rules! check_finite {
    ($data:expr, $($ctx:tt)+) => {
        #[cfg(feature = "checked-invariants")]
        {
            $crate::check::assert_all_finite(&format!($($ctx)+), $data);
        }
    };
}

/// Asserts `‖QᵀQ − I‖_max ≤ tol` for a `&Matrix` — expands to nothing
/// without the `checked-invariants` feature.
#[macro_export]
macro_rules! check_orthogonal {
    ($q:expr, $tol:expr, $($ctx:tt)+) => {
        #[cfg(feature = "checked-invariants")]
        {
            $crate::check::assert_orthogonal(&format!($($ctx)+), $q, $tol);
        }
    };
}

/// Asserts descending-magnitude grading of a `&[f64]` diagonal within a
/// multiplicative `slack` — expands to nothing without the
/// `checked-invariants` feature.
#[macro_export]
macro_rules! check_graded {
    ($d:expr, $slack:expr, $($ctx:tt)+) => {
        #[cfg(feature = "checked-invariants")]
        {
            $crate::check::assert_graded(&format!($($ctx)+), $d, $slack);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_accepts_normal_data() {
        assert_all_finite("test", &[0.0, -1.5, 1e300, f64::MIN_POSITIVE]);
    }

    #[test]
    #[should_panic(expected = "non-finite value NaN at flat index 2 in here")]
    fn finite_rejects_nan_with_index() {
        assert_all_finite("here", &[1.0, 2.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn finite_rejects_inf() {
        assert_all_finite("inf case", &[f64::INFINITY]);
    }

    #[test]
    fn orthogonal_accepts_identity_and_rotation() {
        assert_orthogonal("id", &Matrix::identity(5), 1e-15);
        let c = 0.6f64;
        let s = 0.8f64;
        let rot = Matrix::from_col_major(2, 2, vec![c, s, -s, c]);
        assert_orthogonal("rot", &rot, 1e-14);
    }

    #[test]
    #[should_panic(expected = "orthogonality residual")]
    fn orthogonal_rejects_scaled_matrix() {
        let mut m = Matrix::identity(3);
        m.scale(2.0);
        assert_orthogonal("scaled", &m, 1e-10);
    }

    #[test]
    fn graded_accepts_descending_and_noise_tail() {
        assert_graded("desc", &[1e10, 1e4, 1.0, 1e-8], 1.0 + 1e-8);
        // Trailing noise below 1e-13·d[0] may be unordered.
        assert_graded("noise", &[1.0, 1e-16, 5e-16], 1.0 + 1e-8);
        assert_graded("empty", &[], 1.0);
        assert_graded("zeros", &[0.0, 0.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "grading broken at 0")]
    fn graded_rejects_inversion() {
        assert_graded("bad", &[1.0, 100.0], 10.0);
    }

    #[test]
    fn graded_slack_allows_mild_inversion() {
        assert_graded("mild", &[1.0, 5.0, 2.0], 10.0);
    }

    #[test]
    fn first_non_finite_locates_taint() {
        assert_eq!(first_non_finite(&[1.0, -2.0, 0.0]), None);
        assert_eq!(first_non_finite(&[]), None);
        let (i, v) = first_non_finite(&[1.0, f64::INFINITY, f64::NAN]).unwrap();
        assert_eq!(i, 1);
        assert!(v.is_infinite());
        let (i, v) = first_non_finite(&[f64::NAN]).unwrap();
        assert_eq!(i, 0);
        assert!(v.is_nan());
    }
}
