//! Symmetric eigensolver (DSYEV analogue): Householder tridiagonalisation,
//! then implicit-shift QL on the tridiagonal.
//!
//! The three steps are LAPACK's:
//!
//! 1. `T = Qᵀ A Q` (DSYTD2, lower): reflector k, from [`qr::house`],
//!    zeroes column k below the subdiagonal and is packed there; the trailing
//!    block takes a symmetric matrix–vector product and a rank-2 update on
//!    its lower triangle, every column a contiguous `dot`/`axpy`.
//! 2. Q from the packed reflectors (DORGTR): they are a QR factorisation's
//!    reflectors of the trailing `(n−1) × (n−1)` block, so the blocked
//!    `qr::form_q_in_place` (DORGQR) forms it.
//! 3. Implicit-shift QL on `(d, e)` (tql2 / DSTEQR), each Givens rotation
//!    applied to two contiguous columns of V through `simd::rot_unfused`.
//!    LAPACK's cap of 30·n iterations stands, so nothing spins: a matrix
//!    that does not converge, or a non-finite one, is
//!    [`Error::NoConvergence`].
//!
//! The arithmetic is the crate's one byte class: level-1 loops that never
//! fuse and GEMM tiles that always do, so every kernel path gives the same
//! bits. The reduction is 4/3·n³ level-2 flops, Q 4/3·n³ of GEMM, and the
//! QL rotations a few n³. At N = 256 (16×16 K, one Xeon core @ 2.1 GHz with
//! AVX-512) they take ≈ 3, 2 and 4 ms, so the reduction stays the unblocked
//! loop on the calling thread (DSYTD2, not DSYTRD's blocked panels); the
//! GEMMs that form Q fork past `team::FORK_FLOPS` as every GEMM does.
//!
//! No Markov chain calls it: every lattice axis takes an analytic
//! exponential. Its callers are [`crate::expm::sym_expm`], the `ed` crate's
//! exact diagonalisation, `core::diagnostics`, and the U = 0 oracles the
//! tests and the benchmark's set-up check the engine against.

use crate::matrix::Matrix;
use crate::simd::rot_unfused;
use crate::{blas1, qr, Error, Result};

/// QL iterations allowed per eigenvalue (LAPACK's `MAXIT`).
const MAX_ITER_PER_VALUE: usize = 30;

/// Eigendecomposition of a symmetric matrix: `A = V diag(values) Vᵀ`.
#[derive(Clone, Debug)]
pub struct SymEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, matching `values` order.
    pub vectors: Matrix,
}

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Only the lower triangle is read; the input must be symmetric to machine
/// precision (checked in debug builds). Returns [`Error::NoConvergence`] if
/// the QL iteration exceeds 30·n steps or the matrix is not finite.
pub fn sym_eig(a: &Matrix) -> Result<SymEig> {
    assert!(a.is_square(), "sym_eig: matrix must be square");
    debug_assert!(is_symmetric(a, 1e-12), "sym_eig: matrix not symmetric");
    let mut packed = a.clone();
    let (mut values, mut e, tau) = tridiagonalize(&mut packed);
    if !values.iter().chain(&e).all(|x| x.is_finite()) {
        return Err(Error::NoConvergence);
    }
    let mut vectors = form_q(packed, &tau);
    implicit_ql(&mut values, &mut e, &mut vectors)?;
    // Selection sort (tql2's), carrying each column along with its value.
    let n = values.len();
    for i in 0..n {
        let k = (i..n).min_by(|&x, &y| values[x].total_cmp(&values[y]));
        if let Some(k) = k.filter(|&k| k != i) {
            values.swap(i, k);
            let (vi, vk) = vectors.two_cols_mut(i, k);
            vi.swap_with_slice(vk);
        }
    }
    Ok(SymEig { values, vectors })
}

/// Reduces the lower triangle of `a` to tridiagonal form (DSYTD2 "L"):
/// returns the diagonal `d`, the subdiagonal `e` (`e[k]` couples `k` and
/// `k + 1`; `e[n−1] = 0`) and the reflector scalars `tau` (`n − 1` of them,
/// the last always 0: its tail is empty). Reflector k's tail is left in `a`
/// below its subdiagonal, the packed form [`form_q`] reads.
fn tridiagonalize(a: &mut Matrix) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = a.nrows();
    let mut e = vec![0.0; n];
    let mut tau = vec![0.0; n.saturating_sub(1)];
    let (mut v, mut w) = (vec![0.0; n], vec![0.0; n]);
    for k in 0..n.saturating_sub(1) {
        let m = n - k - 1;
        let (head, tail) = a.col_mut(k)[k + 1..].split_first_mut().expect("m ≥ 1");
        let (beta, t) = qr::house(*head, tail);
        (e[k], tau[k]) = (beta, t);
        if t == 0.0 {
            continue;
        }
        let (v, w) = (&mut v[..m], &mut w[..m]);
        v[0] = 1.0;
        v[1..].copy_from_slice(tail);
        // w = t·A₂₂v − (t²/2)(vᵀA₂₂v)·v, then A₂₂ −= v wᵀ + w vᵀ.
        symv_lower(a, k + 1, v, w);
        blas1::scal(t, w);
        blas1::axpy(-0.5 * t * blas1::dot(w, v), v, w);
        for j in 0..m {
            let col = &mut a.col_mut(k + 1 + j)[k + 1 + j..];
            blas1::axpy(-w[j], &v[j..], col);
            blas1::axpy(-v[j], &w[j..], col);
        }
    }
    // Step k leaves a[k, k] final: later steps update rows and columns > k.
    (a.diag(), e, tau)
}

/// `w = A₂₂ v` for the trailing block `A₂₂ = a[k.., k..]`, reading its lower
/// triangle by columns: column j gives `w[j]` its diagonal term and a `dot`
/// below it, and every `w[i > j]` an `axpy`.
fn symv_lower(a: &Matrix, k: usize, v: &[f64], w: &mut [f64]) {
    w.fill(0.0);
    for (j, &vj) in v.iter().enumerate() {
        let (diag, below) = a.col(k + j)[k + j..].split_first().expect("j < m");
        w[j] += diag * vj + blas1::dot(below, &v[j + 1..]);
        blas1::axpy(vj, below, &mut w[j + 1..]);
    }
}

/// The orthogonal `Q` of [`tridiagonalize`]'s packed reflectors (DORGTR
/// "L"), in their storage. Below row 0, the trailing block's first `n − 1`
/// columns hold the reflectors as a QR factorisation of an
/// `(n − 1) × (n − 1)` matrix packs them: they are moved up into that
/// matrix, the blocked [`qr::form_q_in_place`] (DORGQR) forms its Q, and Q
/// moves back down beside `e₀` as row and column 0.
fn form_q(packed: Matrix, tau: &[f64]) -> Matrix {
    let n = packed.nrows();
    if n < 2 {
        return Matrix::identity(n);
    }
    let mut data = packed.into_vec();
    // Each column moves to a lower offset, so ascending order reads every
    // source before it is overwritten; descending order on the way back.
    for j in 0..n - 1 {
        data.copy_within(j * n + 1..(j + 1) * n, j * (n - 1));
    }
    data.truncate((n - 1) * (n - 1));
    let mut trailing = Matrix::from_col_major(n - 1, n - 1, data);
    qr::form_q_in_place(&mut trailing, tau);
    let mut data = trailing.into_vec();
    data.resize(n * n, 0.0);
    for j in (1..n).rev() {
        data.copy_within((j - 1) * (n - 1)..j * (n - 1), j * n + 1);
        data[j * n] = 0.0;
    }
    data[..n].fill(0.0);
    data[0] = 1.0;
    Matrix::from_col_major(n, n, data)
}

/// Diagonalises the symmetric tridiagonal `(d, e)` in place by implicit QL
/// with Wilkinson-style shifts (EISPACK tql2), accumulating each rotation
/// into the columns of `v`. On return `d` holds the eigenvalues (unsorted)
/// and column i of `v` the eigenvector of `d[i]`.
fn implicit_ql(d: &mut [f64], e: &mut [f64], v: &mut Matrix) -> Result<()> {
    let n = d.len();
    let mut budget = MAX_ITER_PER_VALUE * n;
    let (mut shift, mut scale) = (0.0, 0.0f64);
    for l in 0..n {
        scale = scale.max(d[l].abs() + e[l].abs());
        let negligible = |x: f64| x.abs() <= f64::EPSILON * scale;
        // The first negligible coupling at or past l closes the block l..=m.
        let m = (l..n)
            .find(|&m| m + 1 == n || negligible(e[m]))
            .unwrap_or(l);
        while m > l && !negligible(e[l]) {
            budget = budget.checked_sub(1).ok_or(Error::NoConvergence)?;
            // Shift by the eigenvalue of the leading 2×2 nearer d[l].
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = p.hypot(1.0).copysign(p);
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for di in &mut d[l + 2..n] {
                *di -= h;
            }
            shift += h;
            // One implicit QL sweep from m up to l.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                (c3, c2, s2) = (c2, c, s);
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (vi, vi1) = v.two_cols_mut(i, i + 1);
                rot_unfused(c, s, vi, vi1);
            }
            let p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(())
}

/// Cheap symmetry check.
pub fn is_symmetric(a: &Matrix, tol: f64) -> bool {
    if !a.is_square() {
        return false;
    }
    let n = a.nrows();
    let scale = a.max_abs().max(1.0);
    for j in 0..n {
        for i in 0..j {
            if (a[(i, j)] - a[(j, i)]).abs() > tol * scale {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{matmul, Op};
    use std::f64::consts::PI;
    use util::Rng;

    /// Backward error `‖AV − VΛ‖_F / (n·ε·‖A‖_F)` and orthogonality
    /// `‖VᵀV − I‖_F / (n·ε)`: both O(1) for a backward-stable solver.
    fn scaled_errors(a: &Matrix, e: &SymEig) -> (f64, f64) {
        let n = a.nrows();
        if n == 0 {
            return (0.0, 0.0);
        }
        let unit = n as f64 * f64::EPSILON;
        let mut vl = e.vectors.clone();
        crate::scale::col_scale(&e.values, &mut vl);
        let mut resid = matmul(a, Op::NoTrans, &e.vectors, Op::NoTrans);
        resid.axpy(-1.0, &vl);
        let mut gram = matmul(&e.vectors, Op::Trans, &e.vectors, Op::NoTrans);
        gram.axpy(-1.0, &Matrix::identity(n));
        let norm = a.norm_fro().max(f64::MIN_POSITIVE);
        (resid.norm_fro() / (unit * norm), gram.norm_fro() / unit)
    }

    /// The constant c of both bounds: every input below reads under 0.7
    /// (backward) and 1.7 (orthogonality).
    const C: f64 = 4.0;

    /// Solves `a` and asserts both scaled errors of [`scaled_errors`] are
    /// under [`C`] and the values ascend.
    fn solve_exact(a: &Matrix, what: &str) -> SymEig {
        let e = sym_eig(a).unwrap_or_else(|err| panic!("{what}: {err}"));
        assert!(e.values.windows(2).all(|w| w[0] <= w[1]), "{what}: order");
        let (backward, orth) = scaled_errors(a, &e);
        assert!(backward <= C, "{what}: backward error {backward} n·ε·‖A‖");
        assert!(orth <= C, "{what}: orthogonality {orth} n·ε");
        e
    }

    /// `Lattice::kinetic_matrix(0.0)` with `t = 1`: `lx × ly` periodic planes
    /// (bond multiplicity kept, so an extent of 2 doubles the bond) stacked
    /// `lz` deep with open inter-layer hopping `tz`.
    fn hopping(lx: usize, ly: usize, lz: usize, tz: f64) -> Matrix {
        let n = lx * ly * lz;
        let site = |x: usize, y: usize, z: usize| (z * ly + y) * lx + x;
        let mut k = Matrix::zeros(n, n);
        for z in 0..lz {
            for y in 0..ly {
                for x in 0..lx {
                    let i = site(x, y, z);
                    let mut bonds = Vec::new();
                    if lx > 1 {
                        bonds.push((site((x + 1) % lx, y, z), 1.0));
                        bonds.push((site((x + lx - 1) % lx, y, z), 1.0));
                    }
                    if ly > 1 {
                        bonds.push((site(x, (y + 1) % ly, z), 1.0));
                        bonds.push((site(x, (y + ly - 1) % ly, z), 1.0));
                    }
                    if z + 1 < lz {
                        bonds.push((site(x, y, z + 1), tz));
                    }
                    if z > 0 {
                        bonds.push((site(x, y, z - 1), tz));
                    }
                    for &(j, amp) in &bonds {
                        let mult = bonds.iter().filter(|b| b.0 == j).count();
                        k[(i, j)] = -amp * mult as f64;
                    }
                }
            }
        }
        k
    }

    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(f64::total_cmp);
        v
    }

    fn max_diff(got: &[f64], want: &[f64]) -> f64 {
        assert_eq!(got.len(), want.len());
        got.iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max)
    }

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let b = Matrix::random(n, n, &mut rng);
        let mut a = b.clone();
        let bt = b.transpose();
        a.axpy(1.0, &bt);
        a.scale(0.5);
        a
    }

    #[test]
    fn graded_weakly_coupled_diagonals_meet_the_bounds() {
        // Diagonal 10^−12 … 10^12, coupled at 10^−3 of the geometric mean
        // of the two diagonals it joins, in both orders of the grading.
        let n = 40;
        let mut rng = Rng::new(8);
        let grade = |i: usize| 10f64.powf(-12.0 + 24.0 * i as f64 / (n - 1) as f64);
        for rev in [false, true] {
            let g = |i: usize| grade(if rev { n - 1 - i } else { i });
            let mut a = Matrix::from_diag(&(0..n).map(g).collect::<Vec<_>>());
            for j in 0..n {
                for i in j + 1..n {
                    let x = 1e-3 * (rng.next_f64() - 0.5) * (g(i) * g(j)).sqrt();
                    (a[(i, j)], a[(j, i)]) = (x, x);
                }
            }
            let e = solve_exact(&a, &format!("graded, reversed = {rev}"));
            // The large end of the spectrum is the diagonal to ~1e-6 relative.
            let want = g(if rev { 0 } else { n - 1 });
            assert!((e.values[n - 1] - want).abs() <= 1e-6 * want);
        }
    }

    #[test]
    fn already_tridiagonal_inputs_meet_the_bounds() {
        let mut rng = Rng::new(11);
        for n in [2, 5, 64, 130] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                a[(i, i)] = rng.next_f64() - 0.5;
                if i + 1 < n {
                    let x = rng.next_f64() - 0.5;
                    (a[(i + 1, i)], a[(i, i + 1)]) = (x, x);
                }
            }
            solve_exact(&a, &format!("tridiagonal n = {n}"));
        }
        // The second-difference matrix tridiag(−1, 2, −1): λ_k = 2 − 2cos(πk/(n+1)).
        let n = 50;
        let a = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 2.0,
            1 => -1.0,
            _ => 0.0,
        });
        let e = solve_exact(&a, "second difference");
        let want: Vec<f64> = (1..=n)
            .map(|k| 2.0 - 2.0 * (PI * k as f64 / (n + 1) as f64).cos())
            .collect();
        assert!(max_diff(&e.values, &sorted(want)) <= 1e-13 * 4.0);
    }

    #[test]
    fn square_lattice_spectrum_and_residuals_at_16x16() {
        // Plane waves, with multiplicities up to 16 (the Fermi surface ε = 0).
        let (l, n) = (16, 256);
        let k = hopping(l, l, 1, 0.0);
        let e = solve_exact(&k, "16x16 K");
        let want: Vec<f64> = (0..n)
            .map(|i| {
                let (kx, ky) = ((i % l) as f64, (i / l) as f64);
                -2.0 * ((2.0 * PI * kx / l as f64).cos() + (2.0 * PI * ky / l as f64).cos())
            })
            .collect();
        // ‖K‖₂ = 4.
        assert!(max_diff(&e.values, &sorted(want)) <= 1e-13 * 4.0);
    }

    #[test]
    fn open_chain_takes_the_sine_spectrum() {
        // ε_k = −2t·cos(πk/(l+1)), k = 1..=l; ‖K‖₂ < 2t.
        for (l, t) in [(2, 1.0), (7, 0.5), (128, 1.0)] {
            let k = hopping(1, 1, l, t);
            let e = solve_exact(&k, &format!("open chain {l}"));
            let want: Vec<f64> = (1..=l)
                .map(|q| -2.0 * t * (PI * q as f64 / (l + 1) as f64).cos())
                .collect();
            assert!(max_diff(&e.values, &sorted(want)) <= 1e-13 * 2.0 * t);
        }
    }

    #[test]
    fn non_finite_input_is_an_error_or_a_non_finite_result() {
        let base = random_symmetric(20, 3);
        for (i, j, x) in [
            (0, 0, f64::NAN),
            (5, 3, f64::NAN),
            (19, 19, f64::INFINITY),
            (10, 2, f64::NEG_INFINITY),
        ] {
            let mut a = base.clone();
            (a[(i, j)], a[(j, i)]) = (x, x);
            if let Ok(e) = sym_eig(&a) {
                let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
                assert!(
                    !finite(&e.values) || !finite(e.vectors.as_slice()),
                    "{x} at ({i},{j}) gave a finite decomposition"
                );
            }
        }
        assert_eq!(
            sym_eig(&Matrix::from_fn(3, 3, |_, _| f64::NAN)).unwrap_err(),
            Error::NoConvergence
        );
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        // No reflector and no rotation: the diagonal's own bits, sorted, and
        // unit eigenvectors.
        let diag = [3.5, -1.0, 0.0, 2.0, -7.25, 2.0, 1e-300, -1e300];
        let e = solve_exact(&Matrix::from_diag(&diag), "diagonal");
        assert_eq!(e.values, sorted(diag.to_vec()));
        for j in 0..diag.len() {
            let col = e.vectors.col(j);
            assert_eq!(col.iter().filter(|&&x| x != 0.0).count(), 1);
            assert!(col.iter().any(|&x| x.abs() == 1.0));
        }
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_col_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = solve_exact(&a, "2x2");
        assert!((e.values[0] - 1.0).abs() < 1e-14);
        assert!((e.values[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn random_symmetric_decomposition() {
        for n in [0, 1, 2, 3, 5, 7, 16, 36, 40, 100, 257] {
            solve_exact(&random_symmetric(n, 50 + n as u64), &format!("n = {n}"));
        }
    }

    #[test]
    fn trace_and_frobenius_invariants() {
        let n = 20;
        let a = random_symmetric(n, 9);
        let e = sym_eig(&a).unwrap();
        let trace_a: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let trace_l: f64 = e.values.iter().sum();
        assert!((trace_a - trace_l).abs() < 1e-12);
        let fro2_a: f64 = a.as_slice().iter().map(|x| x * x).sum();
        let fro2_l: f64 = e.values.iter().map(|x| x * x).sum();
        assert!((fro2_a - fro2_l).abs() < 1e-12);
    }

    #[test]
    fn ring_hopping_matrix_spectrum() {
        // 1D periodic hopping matrix: eigenvalues are -2 cos(2πk/n).
        let n = 8;
        let k = hopping(n, 1, 1, 0.0);
        let e = solve_exact(&k, "ring 8");
        let expect: Vec<f64> = (0..n)
            .map(|j| -2.0 * (2.0 * PI * j as f64 / n as f64).cos())
            .collect();
        assert!(max_diff(&e.values, &sorted(expect)) <= 1e-13 * 2.0);
    }

    #[test]
    fn degenerate_eigenvalues_handled() {
        // Identity and zero: exact values, any orthonormal basis acceptable
        // (the zero matrix keeps the identity's).
        for n in [1, 6, 33] {
            let e = solve_exact(&Matrix::identity(n), &format!("identity {n}"));
            assert!(e.values.iter().all(|&x| x == 1.0), "{:?}", e.values);
            let e = solve_exact(&Matrix::zeros(n, n), &format!("zero {n}"));
            assert!(e.values.iter().all(|&x| x == 0.0));
            assert_eq!(e.vectors.as_slice(), Matrix::identity(n).as_slice());
        }
        // A Householder reflection of diag(1,1,1,2,2,3,4,4,4,4,5,6).
        let n = 12;
        let mut rng = Rng::new(6);
        let u: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
        let uu: f64 = u.iter().map(|x| x * x).sum();
        let h = Matrix::from_fn(n, n, |i, j| {
            f64::from(u8::from(i == j)) - 2.0 * u[i] * u[j] / uu
        });
        let spectrum = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 5.0, 6.0];
        let hdh = matmul(
            &matmul(&h, Op::NoTrans, &Matrix::from_diag(&spectrum), Op::NoTrans),
            Op::NoTrans,
            &h,
            Op::Trans,
        );
        let repeated = Matrix::from_fn(n, n, |i, j| 0.5 * (hdh[(i, j)] + hdh[(j, i)]));
        let e = solve_exact(&repeated, "repeated eigenvalues");
        assert!(max_diff(&e.values, &spectrum) <= 1e-14 * 6.0 * n as f64);
    }

    #[test]
    fn symmetry_check() {
        let a = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(is_symmetric(&a, 1e-12));
        let b = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 1.0]);
        assert!(!is_symmetric(&b, 1e-12));
        assert!(!is_symmetric(&Matrix::zeros(2, 3), 1e-12));
    }
}
