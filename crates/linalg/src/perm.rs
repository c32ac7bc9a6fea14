//! Column/row permutations (dlapmt analogue).
//!
//! Both stratification algorithms permute columns: Algorithm 2 gets its
//! permutation from pivoted QR, Algorithm 3 *pre-computes* one by sorting
//! column norms in descending order and then runs an unpivoted QR. The
//! `P` produced either way enters the T-matrix update as `Pᵀ T`.

use crate::matrix::Matrix;

/// A permutation of `n` items.
///
/// Internally stores the *forward* map: `forward[j]` is the original index of
/// the item placed at position `j`. As a matrix, `P = [e_{f(0)} … e_{f(n−1)}]`,
/// so `(A P)[:, j] = A[:, f(j)]` and `(Pᵀ B)[j, :] = B[f(j), :]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<usize>,
}

impl Permutation {
    /// Identity permutation on `n` items.
    pub fn identity(n: usize) -> Self {
        Permutation {
            forward: (0..n).collect(),
        }
    }

    /// Builds from a forward map (`forward[j]` = source index of position `j`).
    ///
    /// Panics if `forward` is not a permutation of `0..n`.
    pub fn from_forward(forward: Vec<usize>) -> Self {
        let n = forward.len();
        let mut seen = vec![false; n];
        for &p in &forward {
            assert!(p < n && !seen[p], "not a permutation");
            seen[p] = true;
        }
        Permutation { forward }
    }

    /// Permutation that sorts `keys` into descending order (stable):
    /// position `j` receives the index of the `j`-th largest key.
    ///
    /// This is the paper's *pre-pivoting* step: keys are column norms.
    pub fn sort_descending(keys: &[f64]) -> Self {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by(|&i, &j| {
            keys[j]
                .partial_cmp(&keys[i])
                .expect("NaN key in sort_descending")
                .then(i.cmp(&j))
        });
        Permutation { forward: idx }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Source index of position `j`.
    #[inline]
    pub fn forward(&self, j: usize) -> usize {
        self.forward[j]
    }

    /// Destination position of source index `i` (inverse map).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.forward.len()];
        for (j, &src) in self.forward.iter().enumerate() {
            inv[src] = j;
        }
        Permutation { forward: inv }
    }

    /// True if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.forward.iter().enumerate().all(|(j, &p)| j == p)
    }

    /// Number of positions where this differs from the identity — the
    /// "column interchange count" the paper observes to be small for
    /// progressively graded matrices.
    pub fn displacement(&self) -> usize {
        self.forward
            .iter()
            .enumerate()
            .filter(|&(j, &p)| j != p)
            .count()
    }

    /// Returns `A · P` (reorders columns: column `j` of the result is column
    /// `forward[j]` of `A`).
    pub fn permute_cols(&self, a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.nrows(), a.ncols());
        self.permute_cols_into(a, &mut out);
        out
    }

    /// [`Self::permute_cols`] into a matrix of `a`'s shape the caller
    /// recycles (every element is overwritten).
    pub fn permute_cols_into(&self, a: &Matrix, out: &mut Matrix) {
        assert_eq!(a.ncols(), self.len());
        assert_eq!((out.nrows(), out.ncols()), (a.nrows(), a.ncols()));
        for j in 0..a.ncols() {
            out.col_mut(j).copy_from_slice(a.col(self.forward[j]));
        }
    }

    /// Returns `A · Pᵀ` (column `forward[j]` of the result is column `j` of `A`).
    pub fn permute_cols_inv(&self, a: &Matrix) -> Matrix {
        assert_eq!(a.ncols(), self.len());
        let mut out = Matrix::zeros(a.nrows(), a.ncols());
        for j in 0..a.ncols() {
            out.col_mut(self.forward[j]).copy_from_slice(a.col(j));
        }
        out
    }

    /// Returns `Pᵀ · A` (row `j` of the result is row `forward[j]` of `A`).
    pub fn permute_rows_t(&self, a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.nrows(), a.ncols());
        self.permute_rows_t_into(a, &mut out);
        out
    }

    /// [`Self::permute_rows_t`] into a matrix of `a`'s shape the caller
    /// recycles (every element is overwritten).
    pub fn permute_rows_t_into(&self, a: &Matrix, out: &mut Matrix) {
        assert_eq!(a.nrows(), self.len());
        assert_eq!((out.nrows(), out.ncols()), (a.nrows(), a.ncols()));
        for j in 0..a.ncols() {
            let src = a.col(j);
            let dst = out.col_mut(j);
            for (i, d) in dst.iter_mut().enumerate() {
                *d = src[self.forward[i]];
            }
        }
    }

    /// Returns `P · A` (row `forward[i]` of the result is row `i` of `A`).
    pub fn permute_rows(&self, a: &Matrix) -> Matrix {
        assert_eq!(a.nrows(), self.len());
        let mut out = Matrix::zeros(a.nrows(), a.ncols());
        for j in 0..a.ncols() {
            let src = a.col(j);
            let dst = out.col_mut(j);
            for (i, &s) in src.iter().enumerate() {
                dst[self.forward[i]] = s;
            }
        }
        out
    }

    /// Applies to a vector as `Pᵀ x` (entry `j` of the result is `x[forward[j]]`).
    pub fn permute_vec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        self.forward.iter().map(|&p| x[p]).collect()
    }

    /// Dense matrix form of `P` (mostly for tests).
    pub fn to_matrix(&self) -> Matrix {
        let n = self.len();
        let mut p = Matrix::zeros(n, n);
        for j in 0..n {
            p[(self.forward[j], j)] = 1.0;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{matmul, Op};
    use util::Rng;

    #[test]
    fn identity_properties() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.displacement(), 0);
        let mut rng = Rng::new(1);
        let a = Matrix::random(5, 5, &mut rng);
        assert_eq!(p.permute_cols(&a), a);
        assert_eq!(p.permute_rows_t(&a), a);
    }

    #[test]
    fn sort_descending_orders_keys() {
        let keys = [3.0, 1.0, 4.0, 1.5, 9.0];
        let p = Permutation::sort_descending(&keys);
        let sorted: Vec<f64> = (0..5).map(|j| keys[p.forward(j)]).collect();
        assert_eq!(sorted, vec![9.0, 4.0, 3.0, 1.5, 1.0]);
    }

    #[test]
    fn sort_descending_stable_on_ties() {
        let keys = [2.0, 5.0, 2.0];
        let p = Permutation::sort_descending(&keys);
        assert_eq!(p.forward(0), 1);
        assert_eq!(p.forward(1), 0); // first of the tied pair keeps priority
        assert_eq!(p.forward(2), 2);
    }

    #[test]
    fn matrix_form_matches_permute_cols() {
        let mut rng = Rng::new(2);
        let a = Matrix::random(6, 6, &mut rng);
        let p = Permutation::from_forward(vec![2, 0, 5, 1, 4, 3]);
        let ap1 = p.permute_cols(&a);
        let ap2 = matmul(&a, Op::NoTrans, &p.to_matrix(), Op::NoTrans);
        assert!(ap1.max_abs_diff(&ap2) < 1e-15);
    }

    #[test]
    fn matrix_form_matches_permute_rows_t() {
        let mut rng = Rng::new(3);
        let a = Matrix::random(6, 4, &mut rng);
        let p = Permutation::from_forward(vec![2, 0, 5, 1, 4, 3]);
        let pa1 = p.permute_rows_t(&a);
        let pa2 = matmul(&p.to_matrix(), Op::Trans, &a, Op::NoTrans);
        assert!(pa1.max_abs_diff(&pa2) < 1e-15);
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_forward(vec![3, 1, 0, 2]);
        let mut rng = Rng::new(4);
        let a = Matrix::random(4, 4, &mut rng);
        let back = p.inverse().permute_cols(&p.permute_cols(&a));
        assert_eq!(back, a);
        let back2 = p.permute_cols_inv(&p.permute_cols(&a));
        assert_eq!(back2, a);
        let back3 = p.permute_rows(&p.permute_rows_t(&a));
        assert_eq!(back3, a);
    }

    #[test]
    fn vec_permutation() {
        let p = Permutation::from_forward(vec![2, 0, 1]);
        assert_eq!(p.permute_vec_t(&[10.0, 20.0, 30.0]), vec![30.0, 10.0, 20.0]);
    }

    #[test]
    fn displacement_counts_moved() {
        let p = Permutation::from_forward(vec![0, 2, 1, 3]);
        assert_eq!(p.displacement(), 2);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_duplicate_indices() {
        let _ = Permutation::from_forward(vec![0, 0, 1]);
    }
}
