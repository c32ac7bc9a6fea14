//! Kronecker products.
//!
//! The hopping matrix of a separable lattice is a Kronecker sum,
//! `K = Kz ⊕ Ky ⊕ Kx`, so its exponential factorises as
//! `e^{sK} = e^{sKz} ⊗ e^{sKy} ⊗ e^{sKx}`. Building `e^{−ΔτK}` this way is
//! exact (no Trotter error between commuting terms) and costs O(N²) instead
//! of an O(N³) dense eigensolve.

use linalg::Matrix;

/// Kronecker product `A ⊗ B`.
///
/// With x-fastest site indexing `site = a_index·nB + b_index`, the product
/// acts as `(A ⊗ B)[(ia·nB+ib),(ja·nB+jb)] = A[ia,ja]·B[ib,jb]`.
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let (ma, na) = (a.nrows(), a.ncols());
    let (mb, nb) = (b.nrows(), b.ncols());
    let mut out = Matrix::zeros(ma * mb, na * nb);
    for ja in 0..na {
        for ia in 0..ma {
            let av = a[(ia, ja)];
            if av == 0.0 {
                continue;
            }
            for jb in 0..nb {
                let dst_col = ja * nb + jb;
                let src_col = b.col(jb);
                let dst = out.col_mut(dst_col);
                let row0 = ia * mb;
                for ib in 0..mb {
                    dst[row0 + ib] += av * src_col[ib];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::blas3::matmul;
    use linalg::{sym_expm, Op};
    use util::Rng;

    #[test]
    fn kron_known_2x2() {
        let a = Matrix::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let b = Matrix::identity(2);
        let k = kron(&a, &b);
        assert_eq!(k.nrows(), 4);
        assert_eq!(k[(0, 0)], 1.0);
        assert_eq!(k[(1, 1)], 1.0);
        assert_eq!(k[(0, 2)], 2.0);
        assert_eq!(k[(2, 0)], 3.0);
        assert_eq!(k[(0, 1)], 0.0);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let mut rng = Rng::new(1);
        let a = Matrix::random(3, 3, &mut rng);
        let b = Matrix::random(2, 2, &mut rng);
        let c = Matrix::random(3, 3, &mut rng);
        let d = Matrix::random(2, 2, &mut rng);
        let lhs = matmul(&kron(&a, &b), Op::NoTrans, &kron(&c, &d), Op::NoTrans);
        let rhs = kron(
            &matmul(&a, Op::NoTrans, &c, Op::NoTrans),
            &matmul(&b, Op::NoTrans, &d, Op::NoTrans),
        );
        assert!(lhs.max_abs_diff(&rhs) < 1e-13);
    }

    #[test]
    fn kron_rectangular_shapes() {
        let mut rng = Rng::new(2);
        let a = Matrix::random(2, 3, &mut rng);
        let b = Matrix::random(4, 2, &mut rng);
        let k = kron(&a, &b);
        assert_eq!(k.nrows(), 8);
        assert_eq!(k.ncols(), 6);
        assert!((k[(5, 4)] - a[(1, 2)] * b[(1, 0)]).abs() < 1e-15);
    }

    #[test]
    fn kron_sum_exponential_identity() {
        // e^{A⊕B} = e^A ⊗ e^B for symmetric A, B.
        let mut rng = Rng::new(3);
        let mk_sym = |n: usize, rng: &mut Rng| {
            let m = Matrix::random(n, n, rng);
            let mut s = m.clone();
            s.axpy(1.0, &m.transpose());
            s.scale(0.5);
            s
        };
        let a = mk_sym(3, &mut rng);
        let b = mk_sym(2, &mut rng);
        // A ⊕ B = A ⊗ I + I ⊗ B.
        let mut sum = kron(&a, &Matrix::identity(2));
        sum.axpy(1.0, &kron(&Matrix::identity(3), &b));
        let lhs = sym_expm(&sum, 0.37).unwrap();
        let rhs = kron(&sym_expm(&a, 0.37).unwrap(), &sym_expm(&b, 0.37).unwrap());
        assert!(lhs.max_abs_diff(&rhs) < 1e-11, "{}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn kron_with_identity_is_block_structure() {
        let a = Matrix::from_diag(&[2.0, 3.0]);
        let i3 = Matrix::identity(3);
        let k = kron(&a, &i3);
        for r in 0..3 {
            assert_eq!(k[(r, r)], 2.0);
            assert_eq!(k[(3 + r, 3 + r)], 3.0);
        }
    }
}
