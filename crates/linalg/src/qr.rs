//! Blocked Householder QR without pivoting (DGEQRF / DORGQR / DORMQR analogue).
//!
//! The factorization processes panels of [`NB`] columns: each panel is
//! factored with level-2 reflector applications, the reflectors are
//! aggregated into a compact WY representation `Q = I − V T Vᵀ` (dlarft), and
//! the trailing matrix is updated with three level-3 products (dlarfb). This
//! is the structure that lets unpivoted QR run near GEMM speed — the property
//! the paper's pre-pivoted stratification (its Algorithm 3) exploits.
//!
//! The block reflector updates its target where it lives (a trailing block of
//! the matrix being factored, or of the Q being formed) through
//! [`crate::blas3::gemm_view`]. All per-panel staging (explicit V, the T
//! factor, the two W work matrices) is leased from the [`crate::workspace`]
//! arena, so a steady-state factorization allocates nothing; `cargo xtask
//! lint` enforces this via the `deny_hot_alloc` tag below.

#![cfg_attr(any(), deny_hot_alloc)]

use crate::blas1;
use crate::blas3::{gemm, gemm_view, Op};
use crate::matrix::{Matrix, ViewMut};
use crate::workspace;

/// Panel width for the blocked algorithm.
pub const NB: usize = 32;

/// Compact QR factorization: `A = Q R`.
///
/// `a` stores R in and above the diagonal and the Householder vectors
/// (unit lower trapezoidal, implicit leading 1) below it; `tau` holds the
/// reflector scalars.
#[derive(Clone, Debug)]
pub struct QrFactors {
    /// Packed factorization (R above/on diagonal, V strictly below).
    pub a: Matrix,
    /// Reflector coefficients, length `min(m, n)`.
    pub tau: Vec<f64>,
}

/// Generates a Householder reflector (dlarfg analogue).
// dqmc-lint: allow(unchecked_kernel) — level-1 building block on the panel
// hot path; its output is covered by the qr_in_place exit check.
///
/// Given `alpha` and tail `x`, computes `(beta, tau)` and overwrites `x`
/// with the reflector tail `v[1..]` (with `v[0] = 1` implicit) such that
/// `H [alpha; x] = [beta; 0]`, `H = I − tau v vᵀ`.
pub fn house(alpha: f64, x: &mut [f64]) -> (f64, f64) {
    let xnorm = blas1::nrm2(x);
    if xnorm == 0.0 {
        // Already upper triangular in this column; H = I.
        return (alpha, 0.0);
    }
    let mut beta = -(alpha.hypot(xnorm)).copysign(alpha);
    // Guard against underflow in (alpha - beta) for tiny columns: LAPACK
    // rescales; for f64 and DQMC magnitudes the plain formula is adequate,
    // but keep the safe form for beta near zero.
    if beta == 0.0 {
        beta = f64::MIN_POSITIVE;
    }
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    blas1::scal(scale, x);
    (beta, tau)
}

/// Unblocked QR of the region `rows r0.., cols c0..c0+ncols` of `a`.
///
/// Reflector `j` (global column `c0 + j`) eliminates rows `r0+j+1..`.
/// `tau[j]` receives its coefficient. Only columns within the region are
/// updated; callers handle the trailing matrix.
fn qr_panel_unblocked(a: &mut Matrix, r0: usize, c0: usize, ncols: usize, tau: &mut [f64]) {
    let m = a.nrows();
    for j in 0..ncols {
        let row = r0 + j;
        if row >= m {
            tau[j] = 0.0;
            continue;
        }
        let col = c0 + j;
        // Generate the reflector from A[row.., col].
        let (beta, tj) = {
            let cj = a.col_mut(col);
            let (head, tail) = cj[row..].split_first_mut().expect("non-empty");
            let (beta, tj) = house(*head, tail);
            *head = beta;
            (beta, tj)
        };
        let _ = beta;
        tau[j] = tj;
        if tj == 0.0 {
            continue;
        }
        // Apply H to the remaining panel columns: c := c − tau v (vᵀ c).
        for jj in (j + 1)..ncols {
            let colr = c0 + jj;
            let (vcol, ccol) = {
                let (x, y) = a.two_cols_mut(col, colr);
                (x, y)
            };
            let v = &vcol[row..];
            let c = &mut ccol[row..];
            // vᵀc with implicit v[0] = 1.
            let mut s = c[0];
            for i in 1..v.len() {
                s += v[i] * c[i];
            }
            s *= tj;
            c[0] -= s;
            for i in 1..v.len() {
                c[i] -= s * v[i];
            }
        }
    }
}

/// Builds the T factor of the compact WY representation (dlarft analogue):
/// `Q = I − V T Vᵀ` with T upper triangular `nb × nb`, written into the
/// caller-provided (zeroed) `t`.
///
/// `v` is the m×nb unit-lower-trapezoidal reflector matrix (explicit form).
fn form_t_into(v: &Matrix, tau: &[f64], t: &mut Matrix) {
    let nb = v.ncols();
    debug_assert!(t.nrows() == nb && t.ncols() == nb);
    // Scratch for w = Vᵀ(:,0..j) v_j; nb ≤ NB so a stack array suffices.
    let mut w = [0.0f64; NB];
    for j in 0..nb {
        t[(j, j)] = tau[j];
        if j > 0 && tau[j] != 0.0 {
            for (l, wl) in w[..j].iter_mut().enumerate() {
                *wl = blas1::dot(v.col(l), v.col(j));
            }
            // T(0..j, j) = −tau_j * T(0..j,0..j) * w
            for r in 0..j {
                let mut s = 0.0;
                for l in r..j {
                    s += t[(r, l)] * w[l];
                }
                t[(r, j)] = -tau[j] * s;
            }
        }
    }
}

/// Extracts the explicit V (unit lower trapezoidal, m−r0 × nb) from the
/// packed factorization for panel starting at `(r0, c0)` into `v`.
fn extract_v_into(a: &Matrix, r0: usize, c0: usize, nb: usize, v: &mut Matrix) {
    let m = a.nrows();
    debug_assert!(v.nrows() == m - r0 && v.ncols() == nb);
    v.fill(0.0);
    for j in 0..nb {
        let col = a.col(c0 + j);
        let row = r0 + j;
        if row < m {
            v[(row - r0, j)] = 1.0;
            for i in (row + 1)..m {
                v[(i - r0, j)] = col[i];
            }
        }
    }
}

/// Leases workspace matrices for a panel's explicit (V, T) pair.
///
/// Callers return both with `workspace::put_matrix` once the block reflector
/// has been applied.
fn panel_vt(a: &Matrix, tau: &[f64], j0: usize, nb: usize) -> (Matrix, Matrix) {
    let mut v = workspace::take_matrix(a.nrows() - j0, nb);
    extract_v_into(a, j0, j0, nb, &mut v);
    let mut t = workspace::take_matrix(nb, nb);
    form_t_into(&v, tau, &mut t);
    (v, t)
}

/// Applies the block reflector in place: `C := (I − V Tᵀ Vᵀ) C` when `trans`,
/// `C := (I − V T Vᵀ) C` otherwise. `c` is the block the reflector acts on
/// (as many rows as `v`), updated where it lives; the two W products are
/// staged in the workspace arena.
fn apply_block_reflector(v: &Matrix, t: &Matrix, trans: bool, c: ViewMut<'_>) {
    let n = c.ncols();
    let nb = v.ncols();
    if n == 0 || c.nrows() == 0 {
        return;
    }
    // W = Vᵀ C  (nb × n)
    let mut w = workspace::take_matrix(nb, n);
    gemm_view(
        1.0,
        v.view(),
        Op::Trans,
        c.as_view(),
        Op::NoTrans,
        0.0,
        w.view_mut(),
    );
    // W := T W or Tᵀ W
    let mut tw = workspace::take_matrix(nb, n);
    let opt = if trans { Op::Trans } else { Op::NoTrans };
    gemm(1.0, t, opt, &w, Op::NoTrans, 0.0, &mut tw);
    // C := C − V W
    gemm_view(-1.0, v.view(), Op::NoTrans, tw.view(), Op::NoTrans, 1.0, c);
    workspace::put_matrix(w);
    workspace::put_matrix(tw);
}

/// Applies the panel of reflectors starting at column `j0` of the packed
/// factors `(a, tau)` to `c`, the block of rows `j0..` it acts on.
fn apply_panel(a: &Matrix, tau: &[f64], j0: usize, trans: bool, c: ViewMut<'_>) {
    let nb = NB.min(tau.len() - j0);
    let (v, t) = panel_vt(a, &tau[j0..j0 + nb], j0, nb);
    apply_block_reflector(&v, &t, trans, c);
    workspace::put_matrix(v);
    workspace::put_matrix(t);
}

/// Blocked QR factorization (DGEQRF analogue). Consumes `a`, returns factors.
// dqmc-lint: allow(hot_alloc) — `tau` is the returned factor payload, not
// scratch; all per-panel staging goes through the workspace arena.
pub fn qr_in_place(mut a: Matrix) -> QrFactors {
    let m = a.nrows();
    let n = a.ncols();
    let kmax = m.min(n);
    let mut tau = vec![0.0; kmax];
    let mut j0 = 0;
    while j0 < kmax {
        let nb = NB.min(kmax - j0);
        qr_panel_unblocked(&mut a, j0, j0, nb, &mut tau[j0..j0 + nb]);
        let j1 = j0 + nb;
        if j1 < n {
            // Update trailing columns: A := Qᵀ A = (I − V Tᵀ Vᵀ) A.
            let (v, t) = panel_vt(&a, &tau[j0..j1], j0, nb);
            apply_block_reflector(&v, &t, true, a.view_mut().sub((j0, j1, m - j0, n - j1)));
            workspace::put_matrix(v);
            workspace::put_matrix(t);
        }
        j0 = j1;
    }
    crate::check_finite!(a.as_slice(), "qr_in_place packed factors ({m}x{n})");
    crate::check_finite!(&tau, "qr_in_place tau");
    QrFactors { a, tau }
}

/// `C := Qᵀ C` (`trans`) or `C := Q C` for the reflectors packed in
/// `(a, tau)` (DORMQR "L"). Shared by [`QrFactors`] and
/// [`crate::QrpFactors`], whose reflectors have the same packed form.
pub(crate) fn apply_reflectors(a: &Matrix, tau: &[f64], trans: bool, c: &mut Matrix) {
    let (m, n) = (a.nrows(), c.ncols());
    assert_eq!(c.nrows(), m, "apply_q: row mismatch");
    // Qᵀ = H_k … H_1 takes the panels in order; Q = H_1 … H_k in reverse.
    let panels = tau.len().div_ceil(NB);
    for p in 0..panels {
        let j0 = NB * if trans { p } else { panels - 1 - p };
        apply_panel(a, tau, j0, trans, c.view_mut().sub((j0, 0, m - j0, n)));
    }
}

/// Overwrites the `m × m` matrix `q`, whose first `tau.len()` columns hold
/// packed reflectors below the diagonal, with the orthogonal factor they
/// define (DORGQR, in place): back to front, so the panel at `j0` meets the
/// identity outside the trailing `(m−j0) × (m−j0)` block and updates only
/// that — 4/3·m³ flops where applying Q to a full identity costs 2·m³. Each
/// panel's V is copied out before its columns (R above, V below) become the
/// identity columns the reflector acts on.
pub(crate) fn form_q_in_place(q: &mut Matrix, tau: &[f64]) {
    let m = q.nrows();
    assert!(q.is_square() && tau.len() <= m, "form_q: Q must be m × m");
    let unit_cols = |q: &mut Matrix, cols: std::ops::Range<usize>| {
        for j in cols {
            let col = q.col_mut(j);
            col.fill(0.0);
            col[j] = 1.0;
        }
    };
    unit_cols(q, tau.len()..m);
    for j0 in (0..tau.len()).step_by(NB).rev() {
        let nb = NB.min(tau.len() - j0);
        let (v, t) = panel_vt(q, &tau[j0..j0 + nb], j0, nb);
        unit_cols(q, j0..j0 + nb);
        apply_block_reflector(&v, &t, false, q.view_mut().sub((j0, j0, m - j0, m - j0)));
        workspace::put_matrix(v);
        workspace::put_matrix(t);
    }
    crate::check_orthogonal!(&*q, 1e-11 * m.max(4) as f64, "qr form_q ({m}x{m})");
}

/// The square `m × m` orthogonal factor of the reflectors packed in
/// `(a, tau)`: [`form_q_in_place`] on a copy of the reflector columns.
pub(crate) fn form_q(a: &Matrix, tau: &[f64]) -> Matrix {
    let m = a.nrows();
    let mut q = Matrix::zeros(m, m);
    for j in 0..tau.len() {
        q.col_mut(j).copy_from_slice(a.col(j));
    }
    form_q_in_place(&mut q, tau);
    q
}

/// [`form_q`] for square packed factors, reusing their storage for Q.
pub(crate) fn into_q(mut a: Matrix, tau: &[f64]) -> Matrix {
    form_q_in_place(&mut a, tau);
    a
}

/// The upper-triangular/trapezoidal factor R (`min(m,n) × n`) of packed
/// factors `a`.
pub(crate) fn r_factor(a: &Matrix) -> Matrix {
    let k = a.nrows().min(a.ncols());
    Matrix::from_fn(k, a.ncols(), |i, j| if i <= j { a[(i, j)] } else { 0.0 })
}

/// Sign of `det Q`: each non-trivial Householder reflector contributes −1.
pub(crate) fn q_det_sign(tau: &[f64]) -> f64 {
    if tau.iter().filter(|&&t| t != 0.0).count() % 2 == 1 {
        -1.0
    } else {
        1.0
    }
}

impl QrFactors {
    /// Row count of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    /// Column count of the factored matrix.
    pub fn ncols(&self) -> usize {
        self.a.ncols()
    }

    /// The upper-triangular/trapezoidal factor R (`min(m,n) × n`).
    pub fn r(&self) -> Matrix {
        r_factor(&self.a)
    }

    /// Diagonal of R (length `min(m,n)`).
    pub fn r_diag(&self) -> Vec<f64> {
        self.a.diag()
    }

    /// Applies `Qᵀ` to `c` in place (`C := Qᵀ C`, DORMQR "L","T").
    pub fn apply_qt(&self, c: &mut Matrix) {
        apply_reflectors(&self.a, &self.tau, true, c);
    }

    /// Applies `Q` to `c` in place (`C := Q C`, DORMQR "L","N").
    pub fn apply_q(&self, c: &mut Matrix) {
        apply_reflectors(&self.a, &self.tau, false, c);
    }

    /// Forms the square `m × m` orthogonal factor Q explicitly (DORGQR).
    pub fn form_q(&self) -> Matrix {
        form_q(&self.a, &self.tau)
    }

    /// Consumes square factors and forms Q in their storage (R is gone):
    /// the bits of [`Self::form_q`] without a second `m × m` matrix.
    pub fn into_q(self) -> Matrix {
        into_q(self.a, &self.tau)
    }

    /// Sign of `det Q`: each non-trivial Householder reflector contributes −1.
    ///
    /// DQMC needs the sign of `det(I + B_L…B_1)` for the fermion sign; the
    /// orthogonal factor's contribution comes from this count.
    pub fn q_det_sign(&self) -> f64 {
        q_det_sign(&self.tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::matmul;
    use util::Rng;

    fn reconstruct(qr: &QrFactors) -> Matrix {
        let q = qr.form_q();
        let r_full = Matrix::from_fn(qr.nrows(), qr.ncols(), |i, j| {
            if i <= j {
                qr.a[(i, j)]
            } else {
                0.0
            }
        });
        matmul(&q, Op::NoTrans, &r_full, Op::NoTrans)
    }

    fn orthogonality_error(q: &Matrix) -> f64 {
        let qtq = matmul(q, Op::Trans, q, Op::NoTrans);
        qtq.max_abs_diff(&Matrix::identity(q.nrows()))
    }

    #[test]
    fn house_eliminates_tail() {
        let alpha = 3.0;
        let mut x = vec![4.0];
        let (beta, tau) = house(alpha, &mut x);
        // H [3;4] should map to [beta;0] with |beta| = 5.
        assert!((beta.abs() - 5.0).abs() < 1e-14);
        // Verify H [alpha; x] = [beta; 0]: v = [1; x], H y = y - tau v (v·y)
        let v = [1.0, x[0]];
        let y = [3.0, 4.0];
        let vy = v[0] * y[0] + v[1] * y[1];
        let h0 = y[0] - tau * v[0] * vy;
        let h1 = y[1] - tau * v[1] * vy;
        assert!((h0 - beta).abs() < 1e-14);
        assert!(h1.abs() < 1e-14);
    }

    #[test]
    fn house_zero_tail_is_identity() {
        let mut x: Vec<f64> = vec![0.0, 0.0];
        let (beta, tau) = house(7.0, &mut x);
        assert_eq!(beta, 7.0);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn qr_square_reconstruction() {
        for &n in &[1usize, 2, 5, 16, 33, 64, 100] {
            let mut rng = Rng::new(n as u64);
            let a = Matrix::random(n, n, &mut rng);
            let qr = qr_in_place(a.clone());
            let rec = reconstruct(&qr);
            let err = rec.max_abs_diff(&a) / a.max_abs().max(1.0);
            assert!(err < 1e-13 * n.max(4) as f64, "n={n} err={err}");
            assert!(orthogonality_error(&qr.form_q()) < 1e-13 * n.max(4) as f64);
        }
    }

    #[test]
    fn qr_tall_and_wide() {
        let mut rng = Rng::new(99);
        for &(m, n) in &[(40usize, 20usize), (20, 40), (65, 33), (33, 65)] {
            let a = Matrix::random(m, n, &mut rng);
            let qr = qr_in_place(a.clone());
            let rec = reconstruct(&qr);
            assert!(
                rec.max_abs_diff(&a) < 1e-12,
                "m={m} n={n}: {}",
                rec.max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = Rng::new(4);
        let a = Matrix::random(30, 30, &mut rng);
        let qr = qr_in_place(a);
        let r = qr.r();
        for j in 0..30 {
            for i in (j + 1)..30 {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn apply_qt_then_q_is_identity() {
        let mut rng = Rng::new(5);
        let a = Matrix::random(50, 50, &mut rng);
        let qr = qr_in_place(a);
        let c0 = Matrix::random(50, 7, &mut rng);
        let mut c = c0.clone();
        qr.apply_qt(&mut c);
        qr.apply_q(&mut c);
        assert!(c.max_abs_diff(&c0) < 1e-12);
    }

    #[test]
    fn apply_qt_matches_explicit() {
        let mut rng = Rng::new(6);
        let a = Matrix::random(40, 40, &mut rng);
        let qr = qr_in_place(a);
        let q = qr.form_q();
        let c0 = Matrix::random(40, 10, &mut rng);
        let mut c = c0.clone();
        qr.apply_qt(&mut c);
        let explicit = matmul(&q, Op::Trans, &c0, Op::NoTrans);
        assert!(c.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn qt_a_equals_r() {
        let mut rng = Rng::new(8);
        let a = Matrix::random(25, 25, &mut rng);
        let qr = qr_in_place(a.clone());
        let mut qta = a.clone();
        qr.apply_qt(&mut qta);
        // Below-diagonal entries should be ~0, above match R.
        for j in 0..25 {
            for i in 0..25 {
                if i > j {
                    assert!(qta[(i, j)].abs() < 1e-12, "({i},{j})");
                } else {
                    assert!((qta[(i, j)] - qr.a[(i, j)]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn qr_of_identity() {
        let qr = qr_in_place(Matrix::identity(10));
        let q = qr.form_q();
        // Q should be ± identity columns; QR of I gives R = I, Q = I.
        assert!(q.max_abs_diff(&Matrix::identity(10)) < 1e-14);
    }

    #[test]
    fn qr_rank_deficient_stays_finite() {
        // Two identical columns: still a valid QR, R just has a zero diagonal.
        let mut a = Matrix::zeros(6, 3);
        for i in 0..6 {
            a[(i, 0)] = (i + 1) as f64;
            a[(i, 1)] = (i + 1) as f64;
            a[(i, 2)] = 1.0;
        }
        let qr = qr_in_place(a.clone());
        let rec = reconstruct(&qr);
        assert!(rec.max_abs_diff(&a) < 1e-12);
        assert!(qr.a.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn q_det_sign_matches_lu_determinant() {
        for seed in 0..5u64 {
            let mut rng = Rng::new(40 + seed);
            let a = Matrix::random(15, 15, &mut rng);
            let qr = qr_in_place(a);
            let q = qr.form_q();
            let det = crate::lu::lu_in_place(q).unwrap().det();
            assert!(
                (det - qr.q_det_sign()).abs() < 1e-10,
                "det {det} vs sign {}",
                qr.q_det_sign()
            );
        }
    }

    #[test]
    fn qr_graded_matrix_accuracy() {
        // Columns scaled over 60 orders of magnitude — the DQMC regime.
        let mut rng = Rng::new(12);
        let n = 24;
        let mut a = Matrix::random(n, n, &mut rng);
        for j in 0..n {
            let s = 10f64.powi((j as i32 - 12) * 5);
            blas1::scal(s, a.col_mut(j));
        }
        let qr = qr_in_place(a.clone());
        let rec = reconstruct(&qr);
        // Column-wise relative error (each column has its own scale).
        for j in 0..n {
            let scale = blas1::nrm2(a.col(j));
            let mut diff = 0.0f64;
            for i in 0..n {
                diff = diff.max((rec[(i, j)] - a[(i, j)]).abs());
            }
            assert!(diff / scale < 1e-12, "col {j}: {}", diff / scale);
        }
    }
}
