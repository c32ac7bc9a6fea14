//! The level-2 matrix–vector kernel (a dgemv analogue).
//!
//! The delayed-update machinery of the DQMC sweep (§II-B of the paper) is
//! built on this shape: computing one row and one column of the implicitly
//! updated Green's function costs two `gemv`-like products, and flushing the
//! accumulated updates is a `gemm` in [`crate::blas3`].

use crate::matrix::Matrix;

/// `y = alpha * A * x + beta * y`.
pub fn gemv(alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.ncols(), x.len(), "gemv: A.ncols != x.len");
    assert_eq!(a.nrows(), y.len(), "gemv: A.nrows != y.len");
    if beta != 1.0 {
        if beta == 0.0 {
            y.fill(0.0);
        } else {
            for yi in y.iter_mut() {
                *yi *= beta;
            }
        }
    }
    // Column-major: accumulate columns scaled by x[j] (sequential-stride reads).
    for j in 0..a.ncols() {
        let axj = alpha * x[j];
        if axj != 0.0 {
            let col = a.col(j);
            for i in 0..y.len() {
                y[i] += axj * col[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Matrix {
        // [1 2; 3 4; 5 6]
        Matrix::from_col_major(3, 2, vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0])
    }

    #[test]
    fn gemv_known() {
        let a = small();
        let mut y = vec![1.0, 1.0, 1.0];
        gemv(1.0, &a, &[1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn gemv_beta_accumulate() {
        let a = small();
        let mut y = vec![100.0, 100.0, 100.0];
        gemv(2.0, &a, &[1.0, 0.0], 0.5, &mut y);
        assert_eq!(y, vec![52.0, 56.0, 60.0]);
    }

    #[test]
    #[should_panic(expected = "gemv")]
    fn gemv_shape_mismatch() {
        let a = small();
        let mut y = vec![0.0; 3];
        gemv(1.0, &a, &[1.0; 3], 0.0, &mut y);
    }
}
