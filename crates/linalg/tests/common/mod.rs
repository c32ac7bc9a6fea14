//! Level-2 reference loops for the blocked triangular kernels, shared by
//! `kernel_paths.rs` and `proptests.rs`: one right-hand side at a time, the
//! form `linalg::tri` had before its kernels went through GEMM (the row-dot
//! TRMM included). The blocked kernels must reproduce them to rounding.

#![allow(dead_code)]

use linalg::Matrix;

/// `B := op(A) B` in place: the shape of every kernel and reference here.
pub type TriKernel = fn(&Matrix, &mut Matrix);

/// `B := U B`, row-dot form.
pub fn trmm_upper_ref(a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        for i in 0..n {
            let mut s = a[(i, i)] * col[i];
            for p in (i + 1)..n {
                s += a[(i, p)] * col[p];
            }
            col[i] = s;
        }
    }
}

/// `B := L⁻¹ B`, `L` the unit lower triangle of `a`: forward substitution.
pub fn trsm_lower_unit_ref(a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        for i in 0..n {
            let xi = col[i];
            for r in (i + 1)..n {
                col[r] -= a[(r, i)] * xi;
            }
        }
    }
}

/// `B := U⁻¹ B`, `U` the upper triangle of `a`: back substitution.
pub fn trsm_upper_ref(a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        for i in (0..n).rev() {
            let xi = col[i] / a[(i, i)];
            col[i] = xi;
            for r in 0..i {
                col[r] -= a[(r, i)] * xi;
            }
        }
    }
}

/// A full `n × n` matrix whose two triangles are both well conditioned:
/// off-diagonal entries in `[-1, 1]/n`, diagonal in `[1, 2]`. Both triangles
/// are filled, so a kernel that reads the wrong one is caught.
pub fn conditioned(n: usize, rng: &mut util::Rng) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0 + rng.next_f64()
        } else {
            (2.0 * rng.next_f64() - 1.0) / n as f64
        }
    })
}

/// Scales row `i` of `b` by `10^(-decades · i/n)` (`descending`) or the
/// mirror image: the row grading of the stratification's operands.
pub fn grade_rows(b: &mut Matrix, decades: f64, descending: bool) {
    let n = b.nrows();
    for j in 0..b.ncols() {
        for (i, x) in b.col_mut(j).iter_mut().enumerate() {
            let pos = if descending { i } else { n - 1 - i };
            *x *= 10f64.powf(-decades * pos as f64 / n as f64);
        }
    }
}

/// Largest per-row relative difference: `max_j |x_ij − y_ij| / max_j |y_ij|`
/// over the rows (a row of zeros in `y` must be zeros in `x`).
pub fn max_row_rel_diff(x: &Matrix, y: &Matrix) -> f64 {
    (0..y.nrows())
        .map(|i| {
            let (mut diff, mut scale) = (0.0f64, 0.0f64);
            for j in 0..y.ncols() {
                diff = diff.max((x[(i, j)] - y[(i, j)]).abs());
                scale = scale.max(y[(i, j)].abs());
            }
            if diff == 0.0 {
                0.0
            } else {
                diff / scale
            }
        })
        .fold(0.0, f64::max)
}
