//! QR factorization with column pivoting (DGEQP3 analogue).
//!
//! Implements the Quintana-Ortí–Sun–Bischof BLAS-3 algorithm used by LAPACK's
//! `dgeqp3`: panels accumulate an auxiliary matrix `F = Aᵀ V T` so the trailing
//! update is a level-3 product, **but** pivot selection forces a level-2
//! matrix–vector product per column (building each new column of F against the
//! whole trailing matrix) plus partial-column-norm downdates with the
//! machine-epsilon recompute safeguard. That per-column level-2 traffic is
//! exactly why DGEQP3 runs far below DGEQRF and DGEMM in the paper's Figure 1,
//! and why the paper's Algorithm 3 replaces it with a cheap pre-pivot + plain
//! QR.
//!
//! The panel is `NB = 8` columns wide. Inside a panel, column `j` pays for
//! the `j` reflectors before it three times over (steps 2, 4 and 5 below, all
//! level-2), so a narrow panel is cheap and the trailing update's GEMM, since
//! PR 22 one packed path with a ≈ 0.3 µs fixed cost, no longer needs a wide
//! one: 32 → 16 → 8 columns read 38 → 26 → 21 µs at n = 36 and 4.1 → 3.6 →
//! 3.4 ms at n = 256 (4 columns: 18.5 µs, 3.3–3.6 ms — inside the spread).
//!
//! Per-panel staging (the F matrix, flag buffer) comes from the
//! [`crate::workspace`] arena, the trailing update runs in place and the
//! per-column scratch is stack-allocated, so a steady-state factorization
//! performs no heap allocation; the `deny_hot_alloc` tag below makes
//! `cargo xtask lint` enforce that.

#![cfg_attr(any(), deny_hot_alloc)]

use crate::blas1;
use crate::blas3::{gemm_view, Op};
use crate::matrix::Matrix;
use crate::perm::Permutation;
use crate::qr::{self, house};
use crate::workspace;

/// Panel width: columns factored between two trailing updates (sizing in
/// the module docs).
const NB: usize = 8;

/// Compact pivoted QR factorization: `A P = Q R`.
#[derive(Clone, Debug)]
pub struct QrpFactors {
    /// Packed factorization (R above/on diagonal, Householder tails below).
    pub a: Matrix,
    /// Reflector coefficients, length `min(m, n)`.
    pub tau: Vec<f64>,
    /// `jpvt[j]` is the original index of the column now in position `j`,
    /// i.e. `A[:, jpvt[j]] == (Q R)[:, j]`.
    pub jpvt: Vec<usize>,
}

/// Pivoted QR factorization (DGEQP3 analogue). Consumes `a`.
// dqmc-lint: allow(hot_alloc) — tau/jpvt are the returned factor payload and
// vn1/vn2 the once-per-factorization norm bookkeeping; per-panel scratch goes
// through the workspace arena.
pub fn qrp_in_place(mut a: Matrix) -> QrpFactors {
    let m = a.nrows();
    let n = a.ncols();
    // Pivot selection compares column norms, so a NaN/Inf input is a hard
    // error here no matter what; in checked builds report it up front.
    crate::check_finite!(a.as_slice(), "qrp_in_place input ({m}x{n})");
    let k = m.min(n);
    let mut tau = vec![0.0; k];
    let mut jpvt: Vec<usize> = (0..n).collect();
    // Partial column norms: vn1 = current estimate, vn2 = value at last
    // exact recomputation (dlaqps bookkeeping).
    let mut vn1: Vec<f64> = (0..n).map(|j| blas1::nrm2(a.col(j))).collect();
    let mut vn2 = vn1.clone();
    let tol3z = f64::EPSILON.sqrt();

    let mut j0 = 0;
    while j0 < k {
        let nb = NB.min(k - j0);
        let nf = factor_panel(
            &mut a,
            j0,
            nb,
            &mut tau[j0..],
            &mut jpvt,
            &mut vn1,
            &mut vn2,
            tol3z,
        );
        j0 += nf;
    }
    crate::check_graded!(&a.diag(), 1.0 + 1e-7, "qrp_in_place R diagonal ({m}x{n})");
    QrpFactors { a, tau, jpvt }
}

/// Factors up to `nb` columns of the panel starting at `(j0, j0)`, applies
/// the aggregated block update to the trailing matrix, and refreshes any
/// partial norms whose downdates became untrustworthy. Returns the number of
/// columns actually factored (≥ 1; fewer than `nb` when a norm recompute
/// forces early panel termination).
#[allow(clippy::too_many_arguments)]
fn factor_panel(
    a: &mut Matrix,
    j0: usize,
    nb: usize,
    tau: &mut [f64],
    jpvt: &mut [usize],
    vn1: &mut [f64],
    vn2: &mut [f64],
    tol3z: f64,
) -> usize {
    let m = a.nrows();
    let n = a.ncols();
    // F is (n - j0) × nb: row i corresponds to column j0 + i of A. Leased
    // zeroed from the arena, as is the recompute flag buffer (0.0 = clean,
    // 1.0 = downdate no longer certifiable — f64 so it pools with the rest).
    let mut f = workspace::take_matrix(n - j0, nb);
    let mut flagged = workspace::take(n);
    let mut nf = nb;

    for j in 0..nb {
        let jj = j0 + j; // current global column == pivot row (m ≥ n usage)
                         // 1. Pivot: bring the column with the largest partial norm to jj.
        let p = (jj..n)
            .max_by(|&x, &y| vn1[x].partial_cmp(&vn1[y]).expect("NaN column norm"))
            .expect("non-empty pivot range");
        if p != jj {
            a.swap_cols(jj, p);
            vn1.swap(jj, p);
            vn2.swap(jj, p);
            jpvt.swap(jj, p);
            flagged.swap(jj, p);
            f.swap_rows(jj - j0, p - j0);
        }

        // 2. Update rows jj..m of column jj with the panel reflectors
        //    generated so far: A(jj:m, jj) -= Σ_{l<j} v_l(jj:m) F(jj-j0, l).
        //    Rows j0..jj were already brought current by the per-pivot-row
        //    updates of step 5 in earlier iterations.
        for l in 0..j {
            let coef = f[(jj - j0, l)];
            if coef != 0.0 {
                let (vcol, ccol) = a.two_cols_mut(j0 + l, jj);
                // i ≥ jj > j0+l, so v_l is entirely in stored form here.
                for i in jj..m {
                    ccol[i] -= coef * vcol[i];
                }
            }
        }

        // 3. Generate the Householder reflector from A(jj:m, jj).
        let tj = {
            let cj = a.col_mut(jj);
            let (head, tail) = cj[jj..].split_first_mut().expect("non-empty");
            let (beta, tj) = house(*head, tail);
            *head = beta;
            tj
        };
        tau[j] = tj;

        // 4. F(:, j) = tau_j * (A_true trailing)ᵀ v_j. The stored trailing
        //    columns lag behind by the panel reflectors, so correct with
        //    F(:,j) -= tau_j F(:,0:j) (Vᵀ v_j).
        if tj != 0.0 {
            // Raw products against stored columns (level-2 sweep — this is
            // the unavoidable DGEQP3 bottleneck).
            {
                let vj_col = a.col(jj);
                let fcol = f.col_mut(j);
                fcol[..=j].fill(0.0);
                for (off, out) in fcol[j + 1..].iter_mut().enumerate() {
                    let c = a.col(j0 + j + 1 + off);
                    // v_j has implicit 1 at row jj.
                    let mut s = c[jj];
                    for r in (jj + 1)..m {
                        s += vj_col[r] * c[r];
                    }
                    *out = tj * s;
                }
            }
            // w_l = v_lᵀ v_j over rows jj..m (v_j vanishes above jj).
            // j < nb ≤ NB, so stack scratch suffices.
            if j > 0 {
                let mut w = [0.0f64; NB];
                for (l, wl) in w[..j].iter_mut().enumerate() {
                    let vl = a.col(j0 + l);
                    let vj = a.col(jj);
                    let mut s = vl[jj]; // v_j(jj) = 1
                    for r in (jj + 1)..m {
                        s += vl[r] * vj[r];
                    }
                    *wl = s;
                }
                // F(:, j) -= tau_j * F(:, 0:j) * w
                for i in 0..(n - j0) {
                    let mut s = 0.0;
                    for (l, &wl) in w[..j].iter().enumerate() {
                        s += f[(i, l)] * wl;
                    }
                    f[(i, j)] -= tj * s;
                }
            }
        }

        // 5. Update pivot row jj of the trailing columns so the norm
        //    downdates see current values:
        //    A(jj, c) -= Σ_{l≤j} V(jj, l) F(c-j0, l).
        if jj + 1 < n {
            // j < nb ≤ NB: stack scratch for the V row.
            let mut vrow = [0.0f64; NB];
            for (l, vr) in vrow[..j].iter_mut().enumerate() {
                *vr = a[(jj, j0 + l)];
            }
            vrow[j] = 1.0;
            for c in (jj + 1)..n {
                let mut s = 0.0;
                for (l, &vr) in vrow[..=j].iter().enumerate() {
                    s += vr * f[(c - j0, l)];
                }
                a[(jj, c)] -= s;
            }
        }

        // 6. Downdate partial norms (dlaqps formula with recompute guard) —
        // the paper's §IV-B fine-grain loop.
        let mut must_stop = false;
        for c in (jj + 1)..n {
            must_stop |= downdate_one(a[(jj, c)], &mut vn1[c], vn2[c], &mut flagged[c], tol3z);
        }
        if must_stop {
            nf = j + 1;
            break;
        }
    }

    // Aggregated trailing update on rows below the factored block:
    // A(j0+nf:m, j0+nf:n) -= V(nf:, 0:nf) F(nf:, 0:nf)ᵀ.
    let r1 = j0 + nf;
    if r1 < m && r1 < n {
        // Rows r1.. of the panel's V sit entirely below every reflector's
        // unit diagonal, so they are exactly the stored block A[r1.., j0..r1],
        // read in place beside the trailing block it updates.
        let mut av = a.view_mut();
        let (trail, [vlow]) = av.split((r1, r1, m - r1, n - r1), [(r1, j0, m - r1, nf)]);
        let ftrail = f.view().sub((nf, 0, n - r1, nf));
        gemm_view(-1.0, vlow, Op::NoTrans, ftrail, Op::Trans, 1.0, trail);
    }

    // Refresh partial norms that the downdate could no longer certify.
    for c in r1..n {
        if flagged[c] != 0.0 {
            let tail = &a.col(c)[r1.min(m)..];
            vn1[c] = blas1::nrm2(tail);
            vn2[c] = vn1[c];
        }
    }
    workspace::put_matrix(f);
    workspace::put(flagged);
    nf
}

/// One dlaqps partial-norm downdate. Returns `true` when the estimate can no
/// longer be certified (`flag` is set and the caller must end the panel so
/// the norm is recomputed exactly).
#[inline]
fn downdate_one(ajc: f64, vn1c: &mut f64, vn2c: f64, flag: &mut f64, tol3z: f64) -> bool {
    if *vn1c == 0.0 {
        return false;
    }
    let temp = (ajc.abs() / *vn1c).min(1.0);
    let temp = ((1.0 + temp) * (1.0 - temp)).max(0.0);
    let ratio = *vn1c / vn2c;
    let temp2 = temp * ratio * ratio;
    if temp2 <= tol3z {
        *flag = 1.0;
        true
    } else {
        *vn1c *= temp.sqrt();
        false
    }
}

impl QrpFactors {
    /// Row count of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    /// Column count of the factored matrix.
    pub fn ncols(&self) -> usize {
        self.a.ncols()
    }

    /// The upper-triangular factor R (`min(m,n) × n`).
    pub fn r(&self) -> Matrix {
        qr::r_factor(&self.a)
    }

    /// Diagonal of R (length `min(m,n)`), non-increasing in magnitude.
    pub fn r_diag(&self) -> Vec<f64> {
        self.a.diag()
    }

    /// The column permutation as a [`Permutation`] (maps factored position →
    /// original column index).
    // dqmc-lint: allow(hot_alloc) — returns an owned Permutation; not on the
    // factorization hot path.
    pub fn permutation(&self) -> Permutation {
        Permutation::from_forward(self.jpvt.clone())
    }

    /// Forms the square orthogonal factor Q explicitly.
    pub fn form_q(&self) -> Matrix {
        qr::form_q(&self.a, &self.tau)
    }

    /// Consumes square factors and forms Q in their storage (see
    /// [`crate::QrFactors::into_q`]).
    pub fn into_q(self) -> Matrix {
        qr::into_q(self.a, &self.tau)
    }

    /// Applies `Qᵀ` in place (`C := Qᵀ C`).
    pub fn apply_qt(&self, c: &mut Matrix) {
        qr::apply_reflectors(&self.a, &self.tau, true, c);
    }

    /// Applies `Q` in place (`C := Q C`).
    pub fn apply_q(&self, c: &mut Matrix) {
        qr::apply_reflectors(&self.a, &self.tau, false, c);
    }

    /// Sign of `det Q` (see [`crate::QrFactors::q_det_sign`]).
    pub fn q_det_sign(&self) -> f64 {
        qr::q_det_sign(&self.tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::matmul;
    use util::Rng;

    /// Checks A P = Q R column by column, with per-column relative error
    /// (columns of graded matrices carry wildly different scales).
    fn check_factorization(a: &Matrix, qrp: &QrpFactors, tol: f64) {
        let q = qrp.form_q();
        let r = Matrix::from_fn(a.nrows(), a.ncols(), |i, j| {
            if i <= j {
                qrp.a[(i, j)]
            } else {
                0.0
            }
        });
        let qr = matmul(&q, Op::NoTrans, &r, Op::NoTrans);
        for j in 0..a.ncols() {
            let orig = qrp.jpvt[j];
            let scale = crate::blas1::nrm2(a.col(orig)).max(1e-300);
            for i in 0..a.nrows() {
                let err = (qr[(i, j)] - a[(i, orig)]).abs() / scale;
                assert!(err < tol, "({i},{j}) rel err {err}");
            }
        }
    }

    #[test]
    fn factorizes_random_square() {
        for &n in &[1usize, 3, 8, 17, 33, 50, 80] {
            let mut rng = Rng::new(100 + n as u64);
            let a = Matrix::random(n, n, &mut rng);
            let qrp = qrp_in_place(a.clone());
            check_factorization(&a, &qrp, 1e-12 * n.max(4) as f64);
        }
    }

    #[test]
    fn factorizes_tall() {
        let mut rng = Rng::new(7);
        let a = Matrix::random(60, 35, &mut rng);
        let qrp = qrp_in_place(a.clone());
        check_factorization(&a, &qrp, 1e-12);
    }

    #[test]
    fn diag_r_non_increasing() {
        let mut rng = Rng::new(8);
        let a = Matrix::random(64, 64, &mut rng);
        let qrp = qrp_in_place(a.clone());
        let d = qrp.r_diag();
        for w in d.windows(2) {
            assert!(
                w[0].abs() >= w[1].abs() * (1.0 - 1e-10),
                "diagonal not graded: {} < {}",
                w[0].abs(),
                w[1].abs()
            );
        }
    }

    #[test]
    fn jpvt_is_a_permutation() {
        let mut rng = Rng::new(9);
        let a = Matrix::random(40, 40, &mut rng);
        let qrp = qrp_in_place(a);
        let mut seen = [false; 40];
        for &p in &qrp.jpvt {
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn graded_matrix_pivots_descending() {
        // Columns with widely different scales: pivoting must pick the big
        // ones first regardless of initial order.
        let mut rng = Rng::new(10);
        let n = 48;
        let mut a = Matrix::random(n, n, &mut rng);
        for j in 0..n {
            let s = 10f64.powi(((j * 7) % n) as i32 - 24);
            crate::blas1::scal(s, a.col_mut(j));
        }
        let qrp = qrp_in_place(a.clone());
        check_factorization(&a, &qrp, 1e-10);
        let d = qrp.r_diag();
        for w in d.windows(2) {
            assert!(w[0].abs() >= w[1].abs() * (1.0 - 1e-10));
        }
    }

    #[test]
    fn rank_deficient_matrix() {
        // Rank-2 matrix of size 10: trailing diagonal of R ≈ 0.
        let mut rng = Rng::new(11);
        let u = Matrix::random(10, 2, &mut rng);
        let v = Matrix::random(10, 2, &mut rng);
        let a = matmul(&u, Op::NoTrans, &v, Op::Trans);
        let qrp = qrp_in_place(a.clone());
        check_factorization(&a, &qrp, 1e-12);
        let d = qrp.r_diag();
        assert!(d[0].abs() > 1e-8);
        assert!(d[1].abs() > 1e-12);
        for &x in &d[2..] {
            assert!(x.abs() < 1e-12, "expected ~0, got {x}");
        }
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(6, 6);
        let qrp = qrp_in_place(a.clone());
        check_factorization(&a, &qrp, 1e-14);
        assert!(qrp.r_diag().iter().all(|&d| d == 0.0));
    }

    #[test]
    fn identity_needs_no_pivoting_effect() {
        let a = Matrix::identity(12);
        let qrp = qrp_in_place(a.clone());
        check_factorization(&a, &qrp, 1e-14);
        let d = qrp.r_diag();
        for &x in &d {
            assert!((x.abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn matches_unpivoted_qr_on_prepivoted_input() {
        // If columns are already in descending-norm order with strong
        // grading, QRP should keep them (nearly) in place.
        let mut rng = Rng::new(13);
        let n = 24;
        let mut a = Matrix::random(n, n, &mut rng);
        for j in 0..n {
            crate::blas1::scal(10f64.powi(-(3 * j as i32)), a.col_mut(j));
        }
        let qrp = qrp_in_place(a.clone());
        assert_eq!(qrp.jpvt, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_accessor_consistent() {
        let mut rng = Rng::new(14);
        let a = Matrix::random(20, 20, &mut rng);
        let qrp = qrp_in_place(a.clone());
        let p = qrp.permutation();
        for j in 0..20 {
            assert_eq!(p.forward(j), qrp.jpvt[j]);
        }
    }
}
