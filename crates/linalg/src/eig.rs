//! Symmetric eigensolver via the cyclic Jacobi method (DSYEV analogue).
//!
//! Jacobi is slower than tridiagonalisation+QR but simple, embarrassingly
//! accurate (small relative errors even for graded matrices — see Drmač &
//! Veselić, cited by the paper). No Markov chain calls it: periodic lattice
//! axes take the analytic plane-wave exponential and a single layer's z
//! factor is the identity. Its callers are the open-axis chain exponential
//! (`lattice`'s `ring_exp`, through [`crate::expm::sym_expm`]), the `ed`
//! crate's exact diagonalisation, `core::diagnostics`, and the U = 0 oracles
//! the tests and the benchmark's set-up check the engine against.
//!
//! The matrix is stored by columns, so a rotation (p, q) updates columns p
//! and q contiguously and defers the mirror writes into rows p and q. Within
//! stripe p (the rotations (p, q), q > p, in order) column p stays current;
//! before rotation (p, q) rows p+1..q of column q are gathered from row q of
//! columns p+1..q: apart from row p, which the rotation zeroes, they are the
//! only entries of column q an earlier rotation of the stripe moved. At the
//! end of the stripe the mirrors are replayed: row p from column p, and
//! every other off-diagonal pair from whichever of its two columns the
//! stripe rotated last, nothing if it rotated neither. The stored matrix is
//! then exactly symmetric again, so on an exactly symmetric input every
//! rotation, skip and convergence test sees the bits a loop that mirrors as
//! it goes sees.

use crate::matrix::Matrix;
use crate::simd::rot_unfused;
use crate::{Error, Result};

/// Maximum number of cyclic sweeps before giving up.
const MAX_SWEEPS: usize = 64;

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
/// The input must be symmetric to machine precision (checked cheaply);
/// returns [`Error::NoConvergence`] if the off-diagonal mass does not reach
/// round-off within the sweep cap (does not happen for finite inputs in
/// practice).
pub fn sym_eig(a: &Matrix) -> Result<SymEig> {
    let n = a.nrows();
    assert!(a.is_square(), "sym_eig: matrix must be square");
    debug_assert!(is_symmetric(a, 1e-12), "sym_eig: matrix not symmetric");
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    // The q of each rotation the current stripe did not skip, ascending.
    let mut rotated = Vec::with_capacity(n);

    let off_norm = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for j in 0..n {
            for i in 0..j {
                s += m[(i, j)] * m[(i, j)];
            }
        }
        (2.0 * s).sqrt()
    };

    let fro = m.norm_fro().max(f64::MIN_POSITIVE);
    let tol = 1e-15 * fro;
    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        if off_norm(&m) <= tol {
            converged = true;
            break;
        }
        for p in 0..n {
            rotated.clear();
            for q in (p + 1)..n {
                let apq = m[(q, p)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                rotated.push(q);
                for j in (p + 1)..q {
                    m[(j, q)] = m[(q, j)];
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Stable rotation computation (Golub & Van Loan §8.5).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                rotate(&mut m, p, q, c, s);
                let (vp, vq) = v.two_cols_mut(p, q);
                rot_unfused(c, s, vp, vq);
            }
            replay_mirrors(&mut m, p, &rotated);
        }
    }
    if !converged && off_norm(&m) > tol * 10.0 {
        return Err(Error::NoConvergence);
    }

    // Extract and sort ascending, carrying eigenvectors along.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| diag[i].partial_cmp(&diag[j]).expect("NaN eigenvalue"));
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        vectors.col_mut(dst).copy_from_slice(v.col(src));
    }
    Ok(SymEig { values, vectors })
}

/// Applies the two-sided Jacobi rotation J(p,q,θ)ᵀ M J(p,q,θ) to columns p
/// and q of M only; the mirror rows are left to [`replay_mirrors`].
fn rotate(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let app = m[(p, p)];
    let aqq = m[(q, q)];
    let apq = m[(q, p)];
    let (cp, cq) = m.two_cols_mut(p, q);
    rot_unfused(c, s, cp, cq);
    cp[p] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    cq[q] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    cp[q] = 0.0;
    cq[p] = 0.0;
}

/// Restores the symmetry stripe p's deferred mirrors broke: row p from
/// column p, and for every other pair (r, c) with r in `rotated`, entry
/// (r, c) from column r unless column c was rotated after it.
fn replay_mirrors(m: &mut Matrix, p: usize, rotated: &[usize]) {
    let n = m.nrows();
    let d = m.as_mut_slice();
    for c in (0..n).filter(|&c| c != p) {
        d[c * n + p] = d[p * n + c];
        let stale = match rotated.binary_search(&c) {
            Ok(i) => i + 1,
            Err(_) => 0,
        };
        for &r in &rotated[stale..] {
            d[c * n + r] = d[r * n + c];
        }
    }
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
    use util::Rng;

    /// The mirror-as-you-go loop `sym_eig` replaced: each rotation writes
    /// rows p and q as it updates columns p and q. The bit-identity oracle.
    fn reference_sym_eig(a: &Matrix) -> Result<SymEig> {
        let n = a.nrows();
        let mut m = a.clone();
        let mut v = Matrix::identity(n);
        let off_norm = |m: &Matrix| -> f64 {
            let mut s = 0.0;
            for j in 0..n {
                for i in 0..j {
                    s += m[(i, j)] * m[(i, j)];
                }
            }
            (2.0 * s).sqrt()
        };
        let fro = m.norm_fro().max(f64::MIN_POSITIVE);
        let tol = 1e-15 * fro;
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            if off_norm(&m) <= tol {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    m[(p, p)] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                    m[(q, q)] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                    m[(p, q)] = 0.0;
                    m[(q, p)] = 0.0;
                    for i in 0..n {
                        if i != p && i != q {
                            let aip = m[(i, p)];
                            let aiq = m[(i, q)];
                            m[(i, p)] = c * aip - s * aiq;
                            m[(p, i)] = m[(i, p)];
                            m[(i, q)] = s * aip + c * aiq;
                            m[(q, i)] = m[(i, q)];
                        }
                    }
                    for i in 0..n {
                        let vip = v[(i, p)];
                        let viq = v[(i, q)];
                        v[(i, p)] = c * vip - s * viq;
                        v[(i, q)] = s * vip + c * viq;
                    }
                }
            }
        }
        if !converged && off_norm(&m) > tol * 10.0 {
            return Err(Error::NoConvergence);
        }
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        order.sort_by(|&i, &j| diag[i].partial_cmp(&diag[j]).expect("NaN eigenvalue"));
        let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (dst, &src) in order.iter().enumerate() {
            vectors.col_mut(dst).copy_from_slice(v.col(src));
        }
        Ok(SymEig { values, vectors })
    }

    fn assert_same_bits(a: &Matrix, what: &str) {
        let got = sym_eig(a).unwrap();
        let want = reference_sym_eig(a).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.values), bits(&want.values), "{what}: values");
        let (g, w) = (got.vectors.as_slice(), want.vectors.as_slice());
        assert_eq!(bits(g), bits(w), "{what}: vectors");
    }

    /// `Lattice::kinetic_matrix(0.0)` with `t = 1`: `lx × ly` periodic planes
    /// (bond multiplicity kept, so an extent of 2 doubles the bond) stacked
    /// `lz` deep with open inter-layer hopping `tz`.
    fn hopping(lx: usize, ly: usize, lz: usize, tz: f64) -> Matrix {
        let n = lx * ly * lz;
        let site = |x: usize, y: usize, z: usize| (z * ly + y) * lx + x;
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            k[(i, i)] = -0.0;
        }
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

    /// A random symmetric matrix with about `zero_share` of its
    /// off-diagonal pairs set to exactly zero.
    fn sparse_symmetric(n: usize, zero_share: f64, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let mut a = random_symmetric(n, seed ^ 0x5eed);
        for j in 0..n {
            for i in 0..j {
                if rng.next_f64() < zero_share {
                    a[(i, j)] = 0.0;
                    a[(j, i)] = 0.0;
                }
            }
        }
        a
    }

    #[test]
    fn deferred_mirrors_give_the_reference_bits_on_lattices() {
        for (lx, ly) in [(2, 1), (4, 4), (6, 6), (10, 10), (16, 16)] {
            assert_same_bits(&hopping(lx, ly, 1, 0.0), &format!("{lx}x{ly} K"));
        }
        assert_same_bits(&hopping(1, 1, 128, 1.0), "128-site open chain");
        assert_same_bits(&hopping(4, 4, 3, 0.5), "4x4x3, open z");
    }

    #[test]
    fn deferred_mirrors_give_the_reference_bits_on_dense_and_special_matrices() {
        for n in [1, 2, 3, 17, 64, 100] {
            assert_same_bits(
                &random_symmetric(n, 70 + n as u64),
                &format!("random n = {n}"),
            );
        }
        // Graded: diagonal 10^k, off-diagonals D^½ R D^½ with D = diag(10^k).
        let n = 12;
        let r = random_symmetric(n, 5);
        let graded = Matrix::from_fn(n, n, |i, j| match i == j {
            true => 10f64.powi(i as i32),
            false => r[(i, j)] * 10f64.powf(0.5 * (i + j) as f64),
        });
        assert_same_bits(&graded, "graded");
        // Repeated eigenvalues: a Householder reflection of diag(1,1,1,2,2,3,…).
        let mut rng = Rng::new(6);
        let u: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
        let uu: f64 = u.iter().map(|x| x * x).sum();
        let h = Matrix::from_fn(n, n, |i, j| {
            f64::from(u8::from(i == j)) - 2.0 * u[i] * u[j] / uu
        });
        let d = Matrix::from_diag(&[1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 5.0, 6.0]);
        let hdh = matmul(
            &matmul(&h, Op::NoTrans, &d, Op::NoTrans),
            Op::NoTrans,
            &h,
            Op::Trans,
        );
        let repeated = Matrix::from_fn(n, n, |i, j| 0.5 * (hdh[(i, j)] + hdh[(j, i)]));
        assert_same_bits(&repeated, "repeated eigenvalues");
    }

    #[test]
    fn deferred_mirrors_give_the_reference_bits_on_zero_heavy_matrices() {
        // Skipped rotations are where a wrong replay rule leaves a stale
        // mirror in place; dense random matrices skip almost none.
        for seed in 0..24u64 {
            let n = 1 + (seed as usize * 7) % 40;
            let share = [0.5, 0.8, 0.95][seed as usize % 3];
            assert_same_bits(&sparse_symmetric(n, share, seed), &format!("seed {seed}"));
        }
    }

    #[test]
    fn square_lattice_spectrum_and_residuals_at_16x16() {
        let (l, n) = (16, 256);
        let k = hopping(l, l, 1, 0.0);
        let e = sym_eig(&k).unwrap();
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut want: Vec<f64> = (0..n)
            .map(|i| {
                let (kx, ky) = ((i % l) as f64, (i / l) as f64);
                -2.0 * ((two_pi * kx / l as f64).cos() + (two_pi * ky / l as f64).cos())
            })
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let spectrum = e.values.iter().zip(&want).map(|(g, w)| (g - w).abs());
        assert!(spectrum.fold(0.0, f64::max) <= 1e-12);
        let kv = matmul(&k, Op::NoTrans, &e.vectors, Op::NoTrans);
        let mut vl = e.vectors.clone();
        crate::scale::col_scale(&e.values, &mut vl);
        assert!(kv.max_abs_diff(&vl) <= 1e-12);
        let vtv = matmul(&e.vectors, Op::Trans, &e.vectors, Op::NoTrans);
        assert!(vtv.max_abs_diff(&Matrix::identity(n)) <= 1e-12);
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

    fn check_decomposition(a: &Matrix, e: &SymEig, tol: f64) {
        let n = a.nrows();
        // A V = V diag(λ)
        let av = matmul(a, Op::NoTrans, &e.vectors, Op::NoTrans);
        for j in 0..n {
            for i in 0..n {
                let expect = e.values[j] * e.vectors[(i, j)];
                assert!(
                    (av[(i, j)] - expect).abs() < tol,
                    "A·v mismatch at ({i},{j}): {} vs {expect}",
                    av[(i, j)]
                );
            }
        }
        // VᵀV = I
        let vtv = matmul(&e.vectors, Op::Trans, &e.vectors, Op::NoTrans);
        assert!(vtv.max_abs_diff(&Matrix::identity(n)) < tol);
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = sym_eig(&a).unwrap();
        assert_eq!(e.values, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_col_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-14);
        assert!((e.values[1] - 3.0).abs() < 1e-14);
        check_decomposition(&a, &e, 1e-13);
    }

    #[test]
    fn random_symmetric_decomposition() {
        for &n in &[1usize, 2, 5, 16, 40] {
            let a = random_symmetric(n, 50 + n as u64);
            let e = sym_eig(&a).unwrap();
            check_decomposition(&a, &e, 1e-11 * n.max(2) as f64);
            // ascending order
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-14);
            }
        }
    }

    #[test]
    fn trace_and_frobenius_invariants() {
        let n = 20;
        let a = random_symmetric(n, 9);
        let e = sym_eig(&a).unwrap();
        let trace_a: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let trace_l: f64 = e.values.iter().sum();
        assert!((trace_a - trace_l).abs() < 1e-10);
        let fro2_a: f64 = a.as_slice().iter().map(|x| x * x).sum();
        let fro2_l: f64 = e.values.iter().map(|x| x * x).sum();
        assert!((fro2_a - fro2_l).abs() < 1e-9);
    }

    #[test]
    fn ring_hopping_matrix_spectrum() {
        // 1D periodic hopping matrix: eigenvalues are -2 cos(2πk/n).
        let n = 8;
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            k[(i, (i + 1) % n)] = -1.0;
            k[((i + 1) % n, i)] = -1.0;
        }
        let e = sym_eig(&k).unwrap();
        let mut expect: Vec<f64> = (0..n)
            .map(|j| -2.0 * (2.0 * std::f64::consts::PI * j as f64 / n as f64).cos())
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in e.values.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn degenerate_eigenvalues_handled() {
        // Identity: all eigenvalues 1, any orthonormal basis acceptable.
        let a = Matrix::identity(6);
        let e = sym_eig(&a).unwrap();
        for &v in &e.values {
            assert!((v - 1.0).abs() < 1e-14);
        }
        check_decomposition(&a, &e, 1e-13);
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
