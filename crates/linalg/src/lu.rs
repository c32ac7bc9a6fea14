//! LU factorization with partial pivoting (DGETRF / DGETRS / DGETRI analogues).
//!
//! Used once per Green's-function assembly to solve
//! `(D_b Qᵀ + D_s T) G = D_b Qᵀ`. Right-looking blocked algorithm: unblocked
//! panel factorization, pivot-row swaps across the full matrix, a triangular
//! solve for the upper block row, and a GEMM trailing update that carries
//! almost all the flops. Both act on the blocks where they live
//! (`blas3::gemm_view`), so a factorization stages nothing.
//!
//! This module is tagged `deny_hot_alloc`: `cargo xtask lint` rejects heap
//! allocation in its non-test code unless a pragma justifies it.
#![cfg_attr(any(), deny_hot_alloc)]

use crate::blas3::{gemm_view, Op};
use crate::matrix::Matrix;
use crate::tri;
use crate::{Error, Result};

/// Panel width.
const NB: usize = 32;

/// Compact LU factorization with row pivoting: `P A = L U`.
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
    pub lu: Matrix,
    /// Row interchanges: at step `i`, row `i` was swapped with `ipiv[i] ≥ i`.
    pub ipiv: Vec<usize>,
}

/// Factors a square matrix. Returns [`Error::Singular`] on an exactly zero pivot.
// dqmc-lint: allow(hot_alloc) — `ipiv` is the returned factor payload, not
// scratch.
pub fn lu_in_place(mut a: Matrix) -> Result<LuFactors> {
    let n = a.nrows();
    assert!(a.is_square(), "lu: matrix must be square");
    let mut ipiv = vec![0usize; n];

    let mut j0 = 0;
    while j0 < n {
        let nb = NB.min(n - j0);
        // --- Unblocked factorization of panel columns j0..j0+nb ---
        for j in j0..(j0 + nb) {
            // Pivot search in column j, rows j..n.
            let col = a.col(j);
            let mut p = j;
            let mut best = col[j].abs();
            for (i, &v) in col.iter().enumerate().take(n).skip(j + 1) {
                if v.abs() > best {
                    best = v.abs();
                    p = i;
                }
            }
            ipiv[j] = p;
            if best == 0.0 {
                return Err(Error::Singular(j));
            }
            if p != j {
                a.swap_rows(j, p); // swap across the *entire* matrix
            }
            // Scale multipliers and update remaining panel columns.
            let pivot = a[(j, j)];
            {
                let cj = a.col_mut(j);
                for i in (j + 1)..n {
                    cj[i] /= pivot;
                }
            }
            for jj in (j + 1)..(j0 + nb) {
                let (cj, cjj) = a.two_cols_mut(j, jj);
                let mult = cjj[j];
                if mult != 0.0 {
                    for i in (j + 1)..n {
                        cjj[i] -= mult * cj[i];
                    }
                }
            }
        }
        let j1 = j0 + nb;
        if j1 < n {
            let nt = n - j1;
            let mut av = a.view_mut();
            // --- U block row: U12 = L11⁻¹ A12 ---
            let (a12, [l11]) = av.split((j0, j1, nb, nt), [(j0, j0, nb, nb)]);
            tri::trsm_lower_unit_view(l11, a12);
            // --- Trailing update: A22 -= L21 U12 ---
            let (a22, [l21, u12]) =
                av.split((j1, j1, nt, nt), [(j1, j0, nt, nb), (j0, j1, nb, nt)]);
            gemm_view(-1.0, l21, Op::NoTrans, u12, Op::NoTrans, 1.0, a22);
        }
        j0 = j1;
    }
    crate::check_finite!(a.as_slice(), "lu_in_place packed factors ({n}x{n})");
    Ok(LuFactors { lu: a, ipiv })
}

impl LuFactors {
    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A X = B` in place (B becomes X).
    pub fn solve_in_place(&self, b: &mut Matrix) {
        assert_eq!(b.nrows(), self.order(), "solve: RHS row mismatch");
        // Apply row interchanges in factorization order.
        for (i, &p) in self.ipiv.iter().enumerate() {
            if p != i {
                b.swap_rows(i, p);
            }
        }
        tri::trsm_lower_unit(&self.lu, b);
        tri::trsm_upper(&self.lu, b);
    }

    /// Explicit inverse `A⁻¹` (solves against the identity).
    pub fn inverse(&self) -> Matrix {
        let mut inv = Matrix::identity(self.order());
        self.solve_in_place(&mut inv);
        inv
    }

    /// Determinant: product of U's diagonal times the pivot sign.
    pub fn det(&self) -> f64 {
        let mut d = 1.0;
        for i in 0..self.order() {
            d *= self.lu[(i, i)];
            if self.ipiv[i] != i {
                d = -d;
            }
        }
        d
    }

    /// Sign of the determinant and log of its absolute value — the numerically
    /// safe form for DQMC weights, whose determinants overflow f64 range.
    pub fn sign_log_det(&self) -> (f64, f64) {
        let mut sign = 1.0;
        let mut logabs = 0.0;
        for i in 0..self.order() {
            let d = self.lu[(i, i)];
            if d < 0.0 {
                sign = -sign;
            }
            logabs += d.abs().ln();
            if self.ipiv[i] != i {
                sign = -sign;
            }
        }
        (sign, logabs)
    }
}

/// Convenience: solve `A X = B`, consuming a copy of `A`.
// dqmc-lint: allow(hot_alloc) — copying both operands is this wrapper's
// contract; the hot path is `lu_in_place` + `solve_in_place`.
// dqmc-lint: allow(unchecked_kernel) — delegates to `lu_in_place` and the
// `tri` solves, which check.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let f = lu_in_place(a.clone())?;
    let mut x = b.clone();
    f.solve_in_place(&mut x);
    Ok(x)
}

/// Convenience: explicit inverse.
// dqmc-lint: allow(hot_alloc) — as for `solve`.
// dqmc-lint: allow(unchecked_kernel) — delegates to `lu_in_place` and the
// `tri` solves, which check.
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    Ok(lu_in_place(a.clone())?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::matmul;
    use util::Rng;

    fn diag_dominant(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let mut a = Matrix::random(n, n, &mut rng);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn reconstruction_pa_equals_lu() {
        for &n in &[1usize, 2, 7, 32, 33, 70] {
            let mut rng = Rng::new(n as u64);
            let a = Matrix::random(n, n, &mut rng);
            let f = lu_in_place(a.clone()).unwrap();
            // Build P A by replaying the swaps on A.
            let mut pa = a.clone();
            for (i, &p) in f.ipiv.iter().enumerate() {
                if p != i {
                    pa.swap_rows(i, p);
                }
            }
            let l = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Greater => f.lu[(i, j)],
                std::cmp::Ordering::Equal => 1.0,
                std::cmp::Ordering::Less => 0.0,
            });
            let u = Matrix::from_fn(n, n, |i, j| if i <= j { f.lu[(i, j)] } else { 0.0 });
            let lu = matmul(&l, Op::NoTrans, &u, Op::NoTrans);
            assert!(
                lu.max_abs_diff(&pa) < 1e-12 * n.max(4) as f64,
                "n={n}: {}",
                lu.max_abs_diff(&pa)
            );
        }
    }

    #[test]
    fn solve_round_trip() {
        for &n in &[1usize, 5, 40, 100] {
            let a = diag_dominant(n, 100 + n as u64);
            let mut rng = Rng::new(7);
            let x = Matrix::random(n, 4, &mut rng);
            let b = matmul(&a, Op::NoTrans, &x, Op::NoTrans);
            let sol = solve(&a, &b).unwrap();
            assert!(sol.max_abs_diff(&x) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = diag_dominant(30, 4);
        let inv = inverse(&a).unwrap();
        let prod = matmul(&a, Op::NoTrans, &inv, Op::NoTrans);
        assert!(prod.max_abs_diff(&Matrix::identity(30)) < 1e-10);
    }

    #[test]
    fn det_of_known_matrix() {
        // det [[1,2],[3,4]] = -2
        let a = Matrix::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let f = lu_in_place(a).unwrap();
        assert!((f.det() + 2.0).abs() < 1e-14);
    }

    #[test]
    fn det_matches_permutation_parity() {
        // Permutation matrix with a single swap: det = -1.
        let mut a = Matrix::identity(4);
        a.swap_rows(1, 3);
        let f = lu_in_place(a).unwrap();
        assert!((f.det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn sign_log_det_consistent_with_det() {
        let a = diag_dominant(9, 5);
        let f = lu_in_place(a).unwrap();
        let (s, l) = f.sign_log_det();
        let d = f.det();
        assert_eq!(s, d.signum());
        assert!((l - d.abs().ln()).abs() < 1e-10);
    }

    #[test]
    fn sign_log_det_handles_huge_determinants() {
        // diag(1e200, 1e200, 1e200): det overflows, sign_log_det must not.
        let a = Matrix::from_diag(&[1e200, 1e200, 1e200]);
        let f = lu_in_place(a).unwrap();
        let (s, l) = f.sign_log_det();
        assert_eq!(s, 1.0);
        assert!((l - 3.0 * 200.0 * std::f64::consts::LN_10).abs() < 1e-6);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = Matrix::identity(3);
        a[(1, 1)] = 0.0;
        match lu_in_place(a) {
            Err(Error::Singular(_)) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn pivoting_beats_naive_on_small_pivot() {
        // Classic example where no-pivot LU is catastrophically inaccurate.
        let eps = 1e-18;
        let a = Matrix::from_col_major(2, 2, vec![eps, 1.0, 1.0, 1.0]);
        let b = Matrix::from_col_major(2, 1, vec![1.0, 2.0]);
        let x = solve(&a, &b).unwrap();
        // Exact solution ≈ [1, 1].
        assert!((x[(0, 0)] - 1.0).abs() < 1e-9);
        assert!((x[(1, 0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let _ = lu_in_place(Matrix::zeros(2, 3));
    }
}
