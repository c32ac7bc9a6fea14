//! Singular value decomposition via one-sided Jacobi (the high-relative-
//! accuracy method of Drmač & Veselić cited by the paper's §IV).
//!
//! DQMC needs singular values for *analysis*, not for the hot path: the
//! graded diagonal `D` of the stratified decomposition already estimates
//! them, and this module provides the independent, provably accurate
//! reference — one-sided Jacobi computes even the tiniest singular values
//! of strongly graded matrices to high *relative* accuracy, which
//! bidiagonalisation-based SVDs cannot.

use crate::blas1;
use crate::matrix::Matrix;
use crate::{Error, Result};

/// Maximum sweeps before declaring failure.
const MAX_SWEEPS: usize = 60;

/// Thin SVD `A = U · diag(s) · Vᵀ` of an `m × n` matrix with `m ≥ n`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors (`m × n`, orthonormal columns).
    pub u: Matrix,
    /// Singular values, descending, non-negative.
    pub s: Vec<f64>,
    /// Right singular vectors (`n × n`, orthogonal).
    pub v: Matrix,
}

/// Computes the thin SVD by one-sided Jacobi rotations on the columns.
///
/// Requires `m ≥ n` (transpose first otherwise). Returns
/// [`Error::NoConvergence`] only if the orthogonalisation stalls (not
/// observed for finite inputs).
pub fn svd(a: &Matrix) -> Result<Svd> {
    let m = a.nrows();
    let n = a.ncols();
    assert!(m >= n, "svd: need m ≥ n (transpose the input)");
    let mut u = a.clone();
    let mut v = Matrix::identity(n);

    // One-sided Jacobi: orthogonalise column pairs of U, accumulating V.
    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (app, aqq, apq) = {
                    let cp = u.col(p);
                    let cq = u.col(q);
                    (blas1::dot(cp, cp), blas1::dot(cq, cq), blas1::dot(cp, cq))
                };
                if apq == 0.0 {
                    continue;
                }
                let denom = (app * aqq).sqrt();
                if denom > 0.0 {
                    off = off.max(apq.abs() / denom);
                }
                // Stop rotating pairs that are numerically orthogonal
                // (relative criterion — the key to graded accuracy).
                if apq.abs() <= 1e-16 * denom {
                    continue;
                }
                // Jacobi rotation that zeroes the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = if zeta >= 0.0 {
                    1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                } else {
                    -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate_cols(&mut u, p, q, c, s);
                rotate_cols(&mut v, p, q, c, s);
            }
        }
        if off < 1e-15 {
            converged = true;
            break;
        }
    }
    if !converged {
        // Final check with a tighter criterion; graded matrices may need it.
        let mut worst = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let cp = u.col(p);
                let cq = u.col(q);
                let denom = (blas1::dot(cp, cp) * blas1::dot(cq, cq)).sqrt();
                if denom > 0.0 {
                    worst = worst.max(blas1::dot(cp, cq).abs() / denom);
                }
            }
        }
        if worst > 1e-10 {
            return Err(Error::NoConvergence);
        }
    }

    // Extract singular values as column norms; normalise U's columns.
    let s: Vec<f64> = (0..n).map(|j| blas1::nrm2(u.col(j))).collect();
    for j in 0..n {
        if s[j] > 0.0 {
            blas1::scal(1.0 / s[j], u.col_mut(j));
        }
    }
    // Sort descending, permuting U and V along.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| s[j].partial_cmp(&s[i]).expect("NaN singular value"));
    let mut us = Matrix::zeros(m, n);
    let mut vs = Matrix::zeros(n, n);
    let mut ss = vec![0.0; n];
    for (dst, &src) in order.iter().enumerate() {
        us.col_mut(dst).copy_from_slice(u.col(src));
        vs.col_mut(dst).copy_from_slice(v.col(src));
        ss[dst] = s[src];
    }
    Ok(Svd {
        u: us,
        s: ss,
        v: vs,
    })
}

fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let (cp, cq) = m.two_cols_mut(p, q);
    for i in 0..cp.len() {
        let (a, b) = (cp[i], cq[i]);
        cp[i] = c * a - s * b;
        cq[i] = s * a + c * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{matmul, Op};
    use util::Rng;

    fn check_svd(a: &Matrix, d: &Svd, tol: f64) {
        let n = a.ncols();
        // Reconstruction A = U S Vᵀ.
        let mut usv = d.u.clone();
        crate::scale::col_scale(&d.s, &mut usv);
        let rec = matmul(&usv, Op::NoTrans, &d.v, Op::Trans);
        assert!(
            rec.max_abs_diff(a) <= tol * a.max_abs().max(1e-300),
            "reconstruction"
        );
        // Orthonormality.
        let utu = matmul(&d.u, Op::Trans, &d.u, Op::NoTrans);
        assert!(utu.max_abs_diff(&Matrix::identity(n)) < 1e-11);
        let vtv = matmul(&d.v, Op::Trans, &d.v, Op::NoTrans);
        assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-11);
        // Ordering and positivity.
        for w in d.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-15);
        }
        assert!(d.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let d = svd(&a).unwrap();
        assert!((d.s[0] - 3.0).abs() < 1e-13);
        assert!((d.s[1] - 2.0).abs() < 1e-13);
        assert!((d.s[2] - 1.0).abs() < 1e-13);
        check_svd(&a, &d, 1e-12);
    }

    #[test]
    fn random_square_and_tall() {
        let mut rng = Rng::new(1);
        for &(m, n) in &[(8usize, 8usize), (12, 7), (20, 20)] {
            let a = Matrix::random(m, n, &mut rng);
            let d = svd(&a).unwrap();
            check_svd(&a, &d, 1e-11);
        }
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram() {
        let mut rng = Rng::new(2);
        let a = Matrix::random(10, 10, &mut rng);
        let d = svd(&a).unwrap();
        let ata = matmul(&a, Op::Trans, &a, Op::NoTrans);
        let e = crate::eig::sym_eig(&ata).unwrap();
        for (i, &s) in d.s.iter().enumerate() {
            let lam = e.values[9 - i].max(0.0);
            assert!(
                (s * s - lam).abs() < 1e-9 * lam.max(1.0),
                "{} vs {}",
                s * s,
                lam
            );
        }
    }

    #[test]
    fn graded_matrix_relative_accuracy() {
        // Columns scaled over 24 orders of magnitude: one-sided Jacobi must
        // recover each singular value to high relative accuracy.
        let scales = [1e12, 1e6, 1.0, 1e-6, 1e-12];
        let mut rng = Rng::new(3);
        // Orthogonal-ish base times diagonal: singular values ≈ scales.
        let base = Matrix::random(5, 5, &mut rng);
        let q = crate::qr::qr_in_place(base).form_q();
        let mut a = q.clone();
        crate::scale::col_scale(&scales, &mut a);
        let d = svd(&a).unwrap();
        for (s, want) in d.s.iter().zip(scales.iter()) {
            assert!(
                (s - want).abs() < 1e-10 * want,
                "relative accuracy lost: {s} vs {want}"
            );
        }
    }

    #[test]
    fn rank_deficient_matrix() {
        let mut rng = Rng::new(4);
        let u = Matrix::random(8, 2, &mut rng);
        let v = Matrix::random(8, 2, &mut rng);
        let a = matmul(&u, Op::NoTrans, &v, Op::Trans);
        let d = svd(&a).unwrap();
        check_svd(&a, &d, 1e-11);
        assert!(d.s[1] > 1e-10);
        for &s in &d.s[2..] {
            assert!(s < 1e-10, "rank-2 matrix: trailing σ = {s}");
        }
    }

    /// `σ_max / σ_min` (∞ for singular input), read off the singular values.
    fn condition(a: &Matrix) -> f64 {
        let s = svd(a).unwrap().s;
        let smin = s[s.len() - 1];
        if smin == 0.0 {
            f64::INFINITY
        } else {
            s[0] / smin
        }
    }

    #[test]
    fn condition_number_of_known_matrix() {
        let a = Matrix::from_diag(&[100.0, 1.0, 0.01]);
        assert!((condition(&a) - 1e4).abs() < 1e-6 * 1e4);
        assert!((condition(&Matrix::identity(6)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_condition_is_infinite() {
        assert!(condition(&Matrix::zeros(3, 3)).is_infinite());
    }
}
