//! Diagonal scalings and column norms — the paper's hand-written OpenMP
//! kernels (§IV-B), here one column-by-column pass on the calling thread.
//!
//! In the stratification loop these level-2 operations are not negligible
//! (total cost O(N²L) against O(N³L) level-3 work at modest N), so the paper
//! writes them as explicit loops rather than calling level-1 BLAS per
//! element:
//!
//! - `row_scale`: `A ← diag(d) · A` (the `V_i` factor of `B_i = V_i B`),
//! - `col_scale`: `A ← A · diag(d)` (the `D_{i−1}` factor of step 3a),
//! - `col_norms`: one norm per column (the pre-pivoting key computation of
//!   Algorithm 3).
//!
//! This module is tagged `deny_hot_alloc`: `cargo xtask lint` rejects heap
//! allocation in its non-test code unless a pragma justifies it.
#![cfg_attr(any(), deny_hot_alloc)]

use crate::matrix::Matrix;

/// `A ← diag(d) · A` — scales row `i` by `d[i]`.
pub fn row_scale(d: &[f64], a: &mut Matrix) {
    let m = a.nrows();
    assert_eq!(d.len(), m, "row_scale: diagonal length mismatch");
    crate::check_finite!(d, "row_scale diagonal (len {m})");
    for j in 0..a.ncols() {
        for (x, &di) in a.col_mut(j).iter_mut().zip(d) {
            *x *= di;
        }
    }
}

/// `A ← A · diag(d)` — scales column `j` by `d[j]`.
pub fn col_scale(d: &[f64], a: &mut Matrix) {
    let n = a.ncols();
    assert_eq!(d.len(), n, "col_scale: diagonal length mismatch");
    crate::check_finite!(d, "col_scale diagonal (len {n})");
    for j in 0..n {
        let dj = d[j];
        for x in a.col_mut(j) {
            *x *= dj;
        }
    }
}

/// `1 / d[i]` for the two inverse scalings below.
// dqmc-lint: allow(hot_alloc) -- one O(m) reciprocal buffer per call, not per
// element; fusing the division into the scaling loops would duplicate them.
fn reciprocals(d: &[f64]) -> Vec<f64> {
    let inv: Vec<f64> = d.iter().map(|&x| 1.0 / x).collect();
    // A zero in d turns into Inf here; catch it before it spreads through A.
    crate::check_finite!(&inv, "reciprocal diagonal (len {})", d.len());
    inv
}

/// `A ← diag(d)⁻¹ · A` — divides row `i` by `d[i]` (graded T-matrix update).
// dqmc-lint: allow(unchecked_kernel) -- `reciprocals` and `row_scale` check.
pub fn row_scale_inv(d: &[f64], a: &mut Matrix) {
    row_scale(&reciprocals(d), a);
}

/// `R ← diag(d)⁻¹ · R` on the upper triangle of `a` (diagonal included),
/// leaving what is stored below it — a packed factorization's reflectors —
/// alone. The upper triangle gets the bits [`row_scale_inv`] gives it.
pub fn row_scale_inv_upper(d: &[f64], a: &mut Matrix) {
    assert_eq!(d.len(), a.nrows(), "row_scale_inv_upper: diagonal length");
    let inv = reciprocals(d);
    for j in 0..a.ncols() {
        for (x, &di) in a.col_mut(j).iter_mut().zip(&inv).take(j + 1) {
            *x *= di;
        }
    }
    crate::check_finite!(a.as_slice(), "row_scale_inv_upper output");
}

/// Euclidean norm of every column.
///
/// Uses the overflow-safe scaled accumulation of [`crate::blas1::nrm2`]:
/// the graded matrices of the stratification have column norms spanning
/// hundreds of orders of magnitude.
// dqmc-lint: allow(hot_alloc) -- the result vector IS the output; callers
// reuse it as the pre-pivoting key buffer.
pub fn col_norms(a: &Matrix) -> Vec<f64> {
    let norms: Vec<f64> = (0..a.ncols())
        .map(|j| crate::blas1::nrm2(a.col(j)))
        .collect();
    crate::check_finite!(&norms, "col_norms output ({}x{})", a.nrows(), a.ncols());
    norms
}

/// `A ← diag(r) · A · diag(c)` in one pass (wrapping kernel of Algorithm 7).
pub fn row_col_scale(r: &[f64], c: &[f64], a: &mut Matrix) {
    let m = a.nrows();
    assert_eq!(r.len(), m, "row_col_scale: row diagonal mismatch");
    assert_eq!(c.len(), a.ncols(), "row_col_scale: col diagonal mismatch");
    crate::check_finite!(r, "row_col_scale row diagonal (len {m})");
    crate::check_finite!(c, "row_col_scale col diagonal (len {})", c.len());
    for (j, &cj) in c.iter().enumerate() {
        for (x, &ri) in a.col_mut(j).iter_mut().zip(r) {
            *x *= ri * cj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::Rng;

    /// A general shape plus the two empty ones every kernel must accept.
    const SHAPES: [(usize, usize); 3] = [(7, 5), (0, 3), (4, 0)];

    #[test]
    fn row_scale_matches_explicit() {
        let mut rng = Rng::new(1);
        for (m, n) in SHAPES {
            let a0 = Matrix::random(m, n, &mut rng);
            let d: Vec<f64> = (0..m).map(|i| i as f64 - 3.0).collect();
            let mut a = a0.clone();
            row_scale(&d, &mut a);
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(a[(i, j)], d[i] * a0[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn col_scale_matches_explicit() {
        let mut rng = Rng::new(2);
        for (m, n) in SHAPES {
            let a0 = Matrix::random(m, n, &mut rng);
            let d: Vec<f64> = (0..n).map(|j| (j + 1) as f64).collect();
            let mut a = a0.clone();
            col_scale(&d, &mut a);
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(a[(i, j)], d[j] * a0[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn row_scale_inv_round_trip() {
        let mut rng = Rng::new(3);
        let a0 = Matrix::random(9, 9, &mut rng);
        let d: Vec<f64> = (0..9).map(|i| 1.5 + i as f64).collect();
        let mut a = a0.clone();
        row_scale(&d, &mut a);
        row_scale_inv(&d, &mut a);
        assert!(a.max_abs_diff(&a0) < 1e-14);
    }

    #[test]
    fn col_norms_match_nrm2() {
        let mut rng = Rng::new(4);
        for (m, n) in [(30, 12), (0, 3), (4, 0)] {
            let a = Matrix::random(m, n, &mut rng);
            let norms = col_norms(&a);
            assert_eq!(norms.len(), n);
            for j in 0..n {
                assert!((norms[j] - crate::blas1::nrm2(a.col(j))).abs() < 1e-15);
            }
        }
        assert_eq!(col_norms(&Matrix::zeros(0, 3)), [0.0; 3]);
    }

    #[test]
    fn parallel_paths_match_serial() {
        // The paper's size: a 256 x 256 pass against a per-element loop.
        let mut rng = Rng::new(5);
        let a0 = Matrix::random(256, 256, &mut rng);
        let d: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).cos() + 2.0).collect();

        let mut a_big = a0.clone();
        row_scale(&d, &mut a_big);
        let mut a_ref = a0.clone();
        for j in 0..256 {
            for i in 0..256 {
                a_ref[(i, j)] *= d[i];
            }
        }
        assert!(a_big.max_abs_diff(&a_ref) < 1e-15);

        let norms = col_norms(&a0);
        for j in 0..256 {
            assert!((norms[j] - crate::blas1::nrm2(a0.col(j))).abs() < 1e-12);
        }
    }

    #[test]
    fn row_col_scale_composes() {
        let mut rng = Rng::new(6);
        for (m, n) in [(8, 8), (0, 3), (4, 0)] {
            let a0 = Matrix::random(m, n, &mut rng);
            let r: Vec<f64> = (0..m).map(|i| 1.0 + i as f64).collect();
            let c: Vec<f64> = (0..n).map(|j| 2.0 - 0.1 * j as f64).collect();
            let mut a1 = a0.clone();
            row_col_scale(&r, &c, &mut a1);
            let mut a2 = a0.clone();
            row_scale(&r, &mut a2);
            col_scale(&c, &mut a2);
            // One fused multiply vs two sequential ones: a few ulps of slack.
            assert!(a1.max_abs_diff(&a2) < 1e-14);
        }
    }

    #[test]
    fn col_norms_graded_no_overflow() {
        let mut a = Matrix::zeros(4, 2);
        a[(0, 0)] = 1e200;
        a[(1, 0)] = 1e200;
        a[(0, 1)] = 1e-200;
        let n = col_norms(&a);
        assert!((n[0] / (1e200 * 2f64.sqrt()) - 1.0).abs() < 1e-12);
        assert!(n[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dimension_mismatch_panics() {
        let mut a = Matrix::zeros(3, 3);
        row_scale(&[1.0, 2.0], &mut a);
    }
}
