//! Blocked Householder QR without pivoting (DGEQRF / DORGQR / DORMQR analogue).
//!
//! The factorization processes panels of 16 columns (32 from order 512 up):
//! each panel is
//! factored recursively (Elmroth–Gustavson: left half, block reflector onto
//! the right half, right half, join the two T factors — all through
//! [`crate::blas3::gemm_view`]), down to leaves of `BASE` columns that run the
//! level-2 reflector loop; the recursion leaves the panel's reflectors in a
//! compact WY representation `Q = I − V T Vᵀ` (dlarft) as it goes, and the
//! trailing matrix is updated with three level-3 products (dlarfb). This is
//! the structure that lets unpivoted QR run near GEMM speed — the property
//! the paper's pre-pivoted stratification (its Algorithm 3) exploits.
//! Applying and forming Q ([`QrFactors::apply_q`], [`QrFactors::form_q`])
//! rebuild each panel's T by the same recursion, so T is GEMM work too.
//!
//! The widths were sized after GEMM became one packed path at every size
//! (PR 22). Panel / leaf, on the two shapes the benchmark runs — N = 36, which
//! the scheduler, service and fleet layers run, and the paper's N = 256 (µs
//! and ms per `qr_in_place`, team free, this 2-core host):
//!
//! ```text
//! panel/leaf  32/32 (PR 21)  32/8   16/16      16/8       8/8    64/8
//! n = 36          22.7       14.6   12.0       11.5       11.0   12.1–18.0
//! n = 256          1.16       0.90   0.86–0.92  0.86–0.90  0.99   0.84–0.96
//! ```
//!
//! A wider panel puts more of the flops into large GEMMs but pays for it in
//! T (`nb²·m` per panel) and, at N = 36, in recursion depth; a leaf under 8
//! columns spends more in per-call GEMM cost (≈ 0.3 µs each, six per join)
//! than the level-2 loop it replaces (`BASE = 4`: 13.2–14.7 µs and
//! 0.97–0.99 ms). Once the matrix leaves the cache the balance tips: a
//! 16-column block reflector streams the whole trailing block for 16 columns'
//! worth of arithmetic. One thread, 16- against 32-column panels (GFlop/s
//! `qr_in_place`, ms `form_q`; the 32-column PR 21 code in brackets):
//!
//! ```text
//! n            64        128        196        256        512        1024
//! qr   16   10.1–10.5  16.8–18.6  23.7–24.4  26.7–27.9  29.1–29.6  29.1–31.7
//! qr   32    8.7–9.1   15.0–18.0  19.0–23.7  20.9–27.4  21.6–34.4  40.1–42.6  [32.8]
//! form_q 16                                    0.71        6.0       47–50
//! form_q 32                                    0.66        4.7       32–34    [36–37]
//! ```
//!
//! so the width is a function of the order, with the step at 512.
//!
//! The block reflector updates its target where it lives (a trailing block of
//! the matrix being factored, or of the Q being formed) through
//! [`crate::blas3::gemm_view`]. All per-panel staging (explicit V, the T
//! factor, the two W work matrices, the join's scratch) is leased from the
//! [`crate::workspace`] arena, so a steady-state factorization allocates
//! nothing; `cargo xtask lint` enforces this via the `deny_hot_alloc` tag
//! below.

#![cfg_attr(any(), deny_hot_alloc)]

use crate::blas1;
use crate::blas3::{gemm_view, Op};
use crate::matrix::{Matrix, View, ViewMut};
use crate::workspace;

/// Panel width for factoring, applying or forming `k` reflectors: 16 columns,
/// and 32 from `k = 512` up, where the matrix has left the cache and a
/// 16-column block reflector no longer does enough arithmetic per byte of the
/// trailing block it streams (module docs have the sizing).
fn panel_width(k: usize) -> usize {
    if k < 512 {
        16
    } else {
        32
    }
}

/// Columns the recursive panel hands to the level-2 loop.
const BASE: usize = 8;

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

/// The T factor of columns `c..c+w` of a panel (dlarft analogue), by the
/// level-1 recurrence: `T[c+j, c+j] = tau[c+j]`, `T[c..c+j, c+j] =
/// −tau[c+j] · T[c..c+j, c..c+j] · (Vᵀ v_j)`. The recursion's leaf, `w ≤ BASE`.
fn t_leaf(v: &Matrix, tau: &[f64], t: &mut Matrix, c: usize, w: usize) {
    let mut dots = [0.0f64; BASE];
    for j in 0..w {
        let tj = tau[c + j];
        t[(c + j, c + j)] = tj;
        if j > 0 && tj != 0.0 {
            // Rows above c + j of column c + j are zero: dot from there on.
            for (l, d) in dots[..j].iter_mut().enumerate() {
                *d = blas1::dot(&v.col(c + l)[c + j..], &v.col(c + j)[c + j..]);
            }
            for r in 0..j {
                let mut s = 0.0;
                for l in r..j {
                    s += t[(c + r, c + l)] * dots[l];
                }
                t[(c + r, c + j)] = -tj * s;
            }
        }
    }
}

/// Joins the T factors of two adjacent column ranges of a panel, `c..c+w1`
/// and `c+w1..c+w1+w2`, into the T of their union (Elmroth–Gustavson): the
/// diagonal blocks `T1`, `T2` stand, and the block between them becomes
/// `−T1 · (V1ᵀ V2) · T2` — three small products on the tile, where the
/// level-1 recurrence ran `w1·w2` dot products over the panel's height.
fn join_t(v: &Matrix, t: &mut Matrix, c: usize, w1: usize, w2: usize) {
    let (c2, rows) = (c + w1, v.nrows() - c - w1);
    let mut tv = t.view_mut();
    let (mut t3, [t1, t2]) = tv.split((c, c2, w1, w2), [(c, c, w1, w1), (c2, c2, w2, w2)]);
    // V2 is zero above row c2, so V1ᵀ V2 needs V1's rows from c2 down only.
    let (v1, v2) = (
        v.view().sub((c2, c, rows, w1)),
        v.view().sub((c2, c2, rows, w2)),
    );
    gemm_view(
        1.0,
        v1,
        Op::Trans,
        v2,
        Op::NoTrans,
        0.0,
        t3.sub((0, 0, w1, w2)),
    );
    let mut x = workspace::take_matrix(w1, w2);
    gemm_view(
        1.0,
        t1,
        Op::NoTrans,
        t3.as_view(),
        Op::NoTrans,
        0.0,
        x.view_mut(),
    );
    gemm_view(-1.0, x.view(), Op::NoTrans, t2, Op::NoTrans, 0.0, t3);
    workspace::put_matrix(x);
}

/// Where the recursion cuts `w > BASE` columns: the left part is the multiple
/// of `BASE` at or past the middle (always under `w`), so leaves are full
/// wherever they can be — 36 columns would be 8, 8, 8, 8, 4.
fn left_width(w: usize) -> usize {
    (w / 2).next_multiple_of(BASE)
}

/// T of columns `c..c+w` of the explicit panel reflectors `v`, into the
/// zeroed `t`: halves by recursion, joined by [`join_t`].
fn form_t(v: &Matrix, tau: &[f64], t: &mut Matrix, c: usize, w: usize) {
    if w <= BASE {
        return t_leaf(v, tau, t, c, w);
    }
    let w1 = left_width(w);
    form_t(v, tau, t, c, w1);
    form_t(v, tau, t, c + w1, w - w1);
    join_t(v, t, c, w1, w - w1);
}

/// Copies the reflectors of columns `c..c+w` of the panel at `(j0, j0)` out
/// of the packed factorization into the explicit panel `v` (unit lower
/// trapezoidal, row 0 = row `j0` of `a`); `v` is zero there on entry.
fn extract_v(a: &Matrix, j0: usize, c: usize, w: usize, v: &mut Matrix) {
    for j in c..c + w {
        let dst = v.col_mut(j);
        dst[j] = 1.0;
        dst[j + 1..].copy_from_slice(&a.col(j0 + j)[j0 + j + 1..]);
    }
}

/// Recursive QR (Elmroth–Gustavson) of columns `c..c+w` of the panel at
/// `(j0, j0)`, rows `c..` down: factors them in `a`, and leaves their
/// reflectors in the explicit panel `v` and their T factor in `t` (both
/// zeroed on entry). The left half is factored, applied to the right half as
/// a block reflector, the right half factored, and the two T's joined; `BASE`
/// columns or fewer run the level-2 loop.
fn factor_cols(
    a: &mut Matrix,
    j0: usize,
    c: usize,
    w: usize,
    tau: &mut [f64],
    v: &mut Matrix,
    t: &mut Matrix,
    want_t: bool,
) {
    if w <= BASE {
        qr_panel_unblocked(a, j0 + c, j0 + c, w, &mut tau[c..c + w]);
        if want_t {
            extract_v(a, j0, c, w, v);
            t_leaf(v, tau, t, c, w);
        }
        return;
    }
    let (w1, rows) = (left_width(w), v.nrows() - c);
    factor_cols(a, j0, c, w1, tau, v, t, true);
    apply_block_reflector(
        v.view().sub((c, c, rows, w1)),
        t.view().sub((c, c, w1, w1)),
        true,
        a.view_mut().sub((j0 + c, j0 + c + w1, rows, w - w1)),
    );
    factor_cols(a, j0, c + w1, w - w1, tau, v, t, want_t);
    if want_t {
        join_t(v, t, c, w1, w - w1);
    }
}

/// Leases zeroed workspace matrices for a panel's explicit `(V, T)` pair:
/// `nb` reflectors starting at row and column `j0` of an `m`-row matrix.
///
/// Callers return both with `workspace::put_matrix` once the block reflector
/// has been applied.
fn lease_vt(m: usize, j0: usize, nb: usize) -> (Matrix, Matrix) {
    (
        workspace::take_matrix(m - j0, nb),
        workspace::take_matrix(nb, nb),
    )
}

/// The explicit `(V, T)` pair of the `nb` reflectors packed in `(a, tau)`
/// from column `j0` on, leased like [`lease_vt`].
fn panel_vt(a: &Matrix, tau: &[f64], j0: usize, nb: usize) -> (Matrix, Matrix) {
    let (mut v, mut t) = lease_vt(a.nrows(), j0, nb);
    extract_v(a, j0, 0, nb, &mut v);
    form_t(&v, tau, &mut t, 0, nb);
    (v, t)
}

/// Applies the block reflector in place: `C := (I − V Tᵀ Vᵀ) C` when `trans`,
/// `C := (I − V T Vᵀ) C` otherwise. `c` is the block the reflector acts on
/// (as many rows as `v`), updated where it lives; the two W products are
/// staged in the workspace arena.
fn apply_block_reflector(v: View<'_>, t: View<'_>, trans: bool, c: ViewMut<'_>) {
    let n = c.ncols();
    let nb = v.ncols();
    if n == 0 || c.nrows() == 0 {
        return;
    }
    // W = Vᵀ C  (nb × n)
    let mut w = workspace::take_matrix(nb, n);
    gemm_view(
        1.0,
        v,
        Op::Trans,
        c.as_view(),
        Op::NoTrans,
        0.0,
        w.view_mut(),
    );
    // W := T W or Tᵀ W
    let mut tw = workspace::take_matrix(nb, n);
    let opt = if trans { Op::Trans } else { Op::NoTrans };
    gemm_view(1.0, t, opt, w.view(), Op::NoTrans, 0.0, tw.view_mut());
    // C := C − V W
    gemm_view(-1.0, v, Op::NoTrans, tw.view(), Op::NoTrans, 1.0, c);
    workspace::put_matrix(w);
    workspace::put_matrix(tw);
}

/// Applies the panel of reflectors starting at column `j0` of the packed
/// factors `(a, tau)` to `c`, the block of rows `j0..` it acts on.
fn apply_panel(a: &Matrix, tau: &[f64], j0: usize, trans: bool, c: ViewMut<'_>) {
    let nb = panel_width(tau.len()).min(tau.len() - j0);
    let (v, t) = panel_vt(a, &tau[j0..j0 + nb], j0, nb);
    apply_block_reflector(v.view(), t.view(), trans, c);
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
        let nb = panel_width(kmax).min(kmax - j0);
        let j1 = j0 + nb;
        let (mut v, mut t) = lease_vt(m, j0, nb);
        factor_cols(&mut a, j0, 0, nb, &mut tau[j0..j1], &mut v, &mut t, j1 < n);
        // Update trailing columns: A := Qᵀ A = (I − V Tᵀ Vᵀ) A.
        let mut av = a.view_mut();
        apply_block_reflector(v.view(), t.view(), true, av.sub((j0, j1, m - j0, n - j1)));
        workspace::put_matrix(v);
        workspace::put_matrix(t);
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
    let nb = panel_width(tau.len());
    let panels = tau.len().div_ceil(nb);
    for p in 0..panels {
        let j0 = nb * if trans { p } else { panels - 1 - p };
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
    for j0 in (0..tau.len()).step_by(panel_width(tau.len())).rev() {
        let nb = panel_width(tau.len()).min(tau.len() - j0);
        let (v, t) = panel_vt(q, &tau[j0..j0 + nb], j0, nb);
        unit_cols(q, j0..j0 + nb);
        let mut qv = q.view_mut();
        apply_block_reflector(v.view(), t.view(), false, qv.sub((j0, j0, m - j0, m - j0)));
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

    /// The level-2 loop over every column: what the recursive panel must
    /// reproduce to rounding.
    fn qr_unblocked(mut a: Matrix) -> QrFactors {
        let kmax = a.nrows().min(a.ncols());
        let mut tau = vec![0.0; kmax];
        qr_panel_unblocked(&mut a, 0, 0, kmax, &mut tau);
        QrFactors { a, tau }
    }

    #[test]
    fn recursive_panel_matches_the_unblocked_loop() {
        // One leaf, a ragged leaf, one panel of two leaves, three panels with
        // a short last one, a tall matrix whose last panel is 4 wide, the
        // paper's size, and one past 512 with its 32-column panels (the last
        // 8 wide): R, the reflectors and tau to 1e-13·n of the level-2 loop
        // (Householder QR is unique once the sign of beta is fixed), and an
        // orthogonal Q.
        let shapes = [
            (1, 1),
            (5, 3),
            (16, 16),
            (36, 36),
            (37, 20),
            (256, 256),
            (530, 520),
        ];
        for (m, n) in shapes {
            let mut rng = Rng::new(900 + (m * n) as u64);
            let a = Matrix::random(m, n, &mut rng);
            let (got, want) = (qr_in_place(a.clone()), qr_unblocked(a));
            let tol = 1e-13 * n as f64;
            let diff = got.a.max_abs_diff(&want.a) / want.a.max_abs();
            assert!(diff <= tol, "{m}x{n}: packed factors differ by {diff:e}");
            for (j, (x, y)) in got.tau.iter().zip(&want.tau).enumerate() {
                assert!((x - y).abs() <= tol, "{m}x{n}: tau[{j}] {x} vs {y}");
            }
            let q = got.form_q();
            crate::check_orthogonal!(&q, tol.max(1e-13), "recursive panel Q ({m}x{n})");
            let resid = orthogonality_error(&q);
            assert!(resid <= tol.max(1e-13), "{m}x{n}: ‖QᵀQ − I‖ = {resid:e}");
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
