//! Triangular multiply and solve kernels (DTRMM / DTRSM analogues).
//!
//! The stratification T-matrix update `T_i = (D_i⁻¹ R_i)(P_iᵀ T_{i−1})` is an
//! upper-triangular times dense product, and the final Green's-function
//! assembly solves a dense system via LU, whose forward/back substitutions
//! live here. All three kernels are level-3: the triangle is halved
//! recursively, every off-diagonal block goes through the packed GEMM
//! (`blas3::gemm_view`), and only the
//! diagonal blocks of at most `NB` rows run the stride-1 level-2 loops
//! below. Calls of at most `LEVEL2_FLOPS` multiply-adds — every N = 16/36
//! caller — are one diagonal block and never reach GEMM.
//!
//! This module is tagged `deny_hot_alloc`: `cargo xtask lint` rejects heap
//! allocation in its non-test code unless a pragma justifies it.
#![cfg_attr(any(), deny_hot_alloc)]

use crate::blas3::{gemm_view, Op};
use crate::matrix::{Matrix, View, ViewMut};

/// Largest diagonal block the recursion hands to the level-2 loops.
const NB: usize = 32;

/// Calls of at most this many multiply-adds (`n² · ncols`) run the level-2
/// loops alone: measured on square right-hand sides, they still beat the
/// recursion at n = 80 (by 15 %) and lose to it from n = 96 (DESIGN.md §8).
const LEVEL2_FLOPS: usize = 80 * 80 * 80;

/// `B := L⁻¹ B` with `L` unit lower triangular (strictly-lower part of `a`
/// is used; the diagonal is taken as 1). Forward substitution.
pub fn trsm_lower_unit(a: &Matrix, b: &mut Matrix) {
    trsm_lower_unit_view(a.view(), b.view_mut());
    crate::check_finite!(
        b.as_slice(),
        "trsm_lower_unit output ({}x{})",
        b.nrows(),
        b.ncols()
    );
}

/// [`trsm_lower_unit`] on sub-blocks (the LU panel solve runs in place).
pub(crate) fn trsm_lower_unit_view(a: View<'_>, b: ViewMut<'_>) {
    check_shapes(a, &b, "trsm: L");
    blocked(Kind::SolveLower, a, b, &|l, b| {
        for p in 0..l.nrows() {
            let lcol = &l.col(p)[p + 1..];
            for j in 0..b.ncols() {
                let col = b.col_mut(j);
                let xp = col[p];
                if xp != 0.0 {
                    for (x, &lv) in col[p + 1..].iter_mut().zip(lcol) {
                        *x -= lv * xp;
                    }
                }
            }
        }
    });
}

/// `B := U⁻¹ B` with `U` upper triangular (upper part of `a` including the
/// diagonal). Back substitution. Panics on a zero diagonal.
pub fn trsm_upper(a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    let bv = b.view_mut();
    check_shapes(a.view(), &bv, "trsm: U");
    for i in 0..n {
        assert!(a[(i, i)] != 0.0, "trsm_upper: zero diagonal at {i}");
    }
    blocked(Kind::SolveUpper, a.view(), bv, &|u, b| {
        for p in (0..u.nrows()).rev() {
            let ucol = u.col(p);
            for j in 0..b.ncols() {
                let col = b.col_mut(j);
                let xp = col[p] / ucol[p];
                col[p] = xp;
                if xp != 0.0 {
                    for (x, &uv) in col[..p].iter_mut().zip(ucol) {
                        *x -= uv * xp;
                    }
                }
            }
        }
    });
    crate::check_finite!(b.as_slice(), "trsm_upper output ({n}x{})", b.ncols());
}

/// `B := U B` with `U` upper triangular (upper part of `a` incl. diagonal).
pub fn trmm_upper(a: &Matrix, b: &mut Matrix) {
    let bv = b.view_mut();
    check_shapes(a.view(), &bv, "trmm: U");
    blocked(Kind::MulUpper, a.view(), bv, &|u, b| {
        // Top-down: row i of the result only needs rows ≥ i of B.
        for p in 0..u.nrows() {
            let ucol = u.col(p);
            for j in 0..b.ncols() {
                let col = b.col_mut(j);
                let xp = col[p];
                for (x, &uv) in col[..p].iter_mut().zip(ucol) {
                    *x += uv * xp;
                }
                col[p] = ucol[p] * xp;
            }
        }
    });
    crate::check_finite!(
        b.as_slice(),
        "trmm_upper output ({}x{})",
        b.nrows(),
        b.ncols()
    );
}

fn check_shapes(a: View<'_>, b: &ViewMut<'_>, what: &str) {
    assert!(a.nrows() == a.ncols(), "{what} must be square");
    assert_eq!(b.nrows(), a.nrows(), "{what}: B row mismatch");
}

/// The three operations of the blocked driver.
#[derive(Clone, Copy)]
enum Kind {
    /// `B := L⁻¹ B`, `L` the unit lower triangle of `A`.
    SolveLower,
    /// `B := U⁻¹ B`, `U` the upper triangle of `A`.
    SolveUpper,
    /// `B := U B`.
    MulUpper,
}

/// The recursive blocked driver shared by the three kernels. `A` and `B` are
/// halved by rows, `[A11 A12; A21 A22]` and `[B1; B2]`: each half is handled
/// by recursion and the off-diagonal block couples them with one GEMM, placed
/// where its input half is in the state the operation needs. A block of at
/// most [`NB`] rows (or [`LEVEL2_FLOPS`] multiply-adds) runs `diag`, the
/// level-2 kernel on its triangle. Each `diag` takes one column of the
/// triangle across every column of `B` before the next: the columns of `B`
/// are independent, so their dependency chains overlap.
fn blocked(
    kind: Kind,
    a: View<'_>,
    mut b: ViewMut<'_>,
    diag: &impl Fn(View<'_>, &mut ViewMut<'_>),
) {
    let (n, ncols) = (b.nrows(), b.ncols());
    if n <= NB || n * n * ncols <= LEVEL2_FLOPS {
        diag(a, &mut b);
        return;
    }
    let h = (n / 2).next_multiple_of(NB);
    let (top, bottom) = ((0, 0, h, ncols), (h, 0, n - h, ncols));
    let (a11, a22) = (a.sub((0, 0, h, h)), a.sub((h, h, n - h, n - h)));
    let (a12, a21) = (a.sub((0, h, h, n - h)), a.sub((h, 0, n - h, h)));
    match kind {
        // B1 := L11⁻¹ B1;  B2 −= L21 B1;  B2 := L22⁻¹ B2.
        Kind::SolveLower => {
            blocked(kind, a11, b.sub(top), diag);
            let (b2, [b1]) = b.split(bottom, [top]);
            gemm_view(-1.0, a21, Op::NoTrans, b1, Op::NoTrans, 1.0, b2);
            blocked(kind, a22, b.sub(bottom), diag);
        }
        // B2 := U22⁻¹ B2;  B1 −= U12 B2;  B1 := U11⁻¹ B1.
        Kind::SolveUpper => {
            blocked(kind, a22, b.sub(bottom), diag);
            let (b1, [b2]) = b.split(top, [bottom]);
            gemm_view(-1.0, a12, Op::NoTrans, b2, Op::NoTrans, 1.0, b1);
            blocked(kind, a11, b.sub(top), diag);
        }
        // B1 := U11 B1;  B1 += U12 B2 (B2 still the input);  B2 := U22 B2.
        Kind::MulUpper => {
            blocked(kind, a11, b.sub(top), diag);
            let (b1, [b2]) = b.split(top, [bottom]);
            gemm_view(1.0, a12, Op::NoTrans, b2, Op::NoTrans, 1.0, b1);
            blocked(kind, a22, b.sub(bottom), diag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm_naive, matmul, Op};
    use util::Rng;

    fn random_upper(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        Matrix::from_fn(n, n, |i, j| {
            if i < j {
                2.0 * rng.next_f64() - 1.0
            } else if i == j {
                1.0 + rng.next_f64() // well away from zero
            } else {
                0.0
            }
        })
    }

    fn random_unit_lower(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        Matrix::from_fn(n, n, |i, j| {
            if i > j {
                2.0 * rng.next_f64() - 1.0
            } else if i == j {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn lower_unit_solve_round_trip() {
        for &n in &[1usize, 5, 20, 70] {
            let l = random_unit_lower(n, n as u64);
            let mut rng = Rng::new(77);
            let x = Matrix::random(n, 3, &mut rng);
            let b = matmul(&l, Op::NoTrans, &x, Op::NoTrans);
            let mut sol = b.clone();
            trsm_lower_unit(&l, &mut sol);
            assert!(sol.max_abs_diff(&x) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn lower_unit_ignores_diagonal_values() {
        // The stored diagonal should be treated as 1 regardless of content.
        let mut l = random_unit_lower(8, 3);
        let mut rng = Rng::new(5);
        let x = Matrix::random(8, 2, &mut rng);
        let b = matmul(&l, Op::NoTrans, &x, Op::NoTrans);
        for i in 0..8 {
            l[(i, i)] = 99.0; // garbage that must be ignored
        }
        let mut sol = b.clone();
        trsm_lower_unit(&l, &mut sol);
        assert!(sol.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn upper_solve_round_trip() {
        for &n in &[1usize, 4, 17, 64, 90] {
            let u = random_upper(n, 10 + n as u64);
            let mut rng = Rng::new(88);
            let x = Matrix::random(n, 5, &mut rng);
            let b = matmul(&u, Op::NoTrans, &x, Op::NoTrans);
            let mut sol = b.clone();
            trsm_upper(&u, &mut sol);
            assert!(sol.max_abs_diff(&x) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn trmm_matches_gemm() {
        let n = 33;
        let u = random_upper(n, 7);
        let mut rng = Rng::new(9);
        let b0 = Matrix::random(n, 6, &mut rng);
        let mut b = b0.clone();
        trmm_upper(&u, &mut b);
        let mut reference = Matrix::zeros(n, 6);
        gemm_naive(1.0, &u, Op::NoTrans, &b0, Op::NoTrans, 0.0, &mut reference);
        assert!(b.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn blocked_path_matches_column_at_a_time() {
        // 96 right-hand sides take the recursion; one at a time they stay
        // under LEVEL2_FLOPS and run the level-2 loops alone.
        let n = 96;
        let u = random_upper(n, 11);
        let mut rng = Rng::new(12);
        let b0 = Matrix::random(n, n, &mut rng);
        let mut b_blocked = b0.clone();
        trsm_upper(&u, &mut b_blocked);
        let mut b_cols = Matrix::zeros(n, n);
        for j in 0..n {
            let mut col = Matrix::from_col_major(n, 1, b0.col(j).to_vec());
            trsm_upper(&u, &mut col);
            b_cols.col_mut(j).copy_from_slice(col.col(0));
        }
        let rel = b_blocked.max_abs_diff(&b_cols) / b_cols.max_abs();
        assert!(rel < 1e-13 * n as f64, "{rel}");
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn zero_diagonal_panics() {
        let mut u = random_upper(4, 14);
        u[(2, 2)] = 0.0;
        let mut b = Matrix::identity(4);
        trsm_upper(&u, &mut b);
    }
}
