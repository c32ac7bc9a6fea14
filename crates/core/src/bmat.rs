//! B-matrix construction and matrix clustering (§III-A2 of the paper).
//!
//! `B_{l,σ} = e^{−ΔτK} · V_{l,σ}` with `V_{l,σ} = diag(e^{σν h_{l,i}})`.
//! The exponentials `e^{∓ΔτK}` are fixed for the whole simulation and
//! computed once (analytically, via the lattice's Kronecker structure).
//!
//! Note on factor order: the paper's Eq. (2) displays `V·e^{−ΔτK}`, but its
//! update scheme — Metropolis ratio `1 + α(1 − G_ii)` against the *canonical*
//! G followed by wrapping — is only exact when the potential factor sits on
//! the right, so that flipping `h_{l,i}` produces the rank-1 column change
//! `M' = M + α(M − I)e_i e_iᵀ`. The two orderings are cyclic rearrangements
//! of the same Trotter product with identical O(Δτ²) accuracy; we adopt the
//! one that makes the printed update formulas exact.
//!
//! A *cluster* is the product of `k` consecutive B matrices; working with
//! `L_k = L/k` clusters cuts the number of stratification iterations — and
//! their pivoted QRs — by a factor `k`.

use crate::hs::HsField;
use crate::hubbard::{ModelParams, Spin};
use linalg::blas3::{gemm, Op};
use linalg::{scale, workspace, Matrix};

/// Precomputed kinetic exponentials plus the B-matrix operations built on
/// them. Does not own the HS field: callers pass the current field so the
/// factory stays valid across Metropolis updates.
#[derive(Clone, Debug)]
pub struct BMatrixFactory {
    n: usize,
    nu: f64,
    expk: Matrix,
    expk_inv: Matrix,
}

impl BMatrixFactory {
    /// Builds the factory for a model (computes `e^{∓ΔτK}` exactly via the
    /// lattice's separable structure).
    pub fn new(model: &ModelParams) -> Self {
        let (expk, expk_inv) = model.lattice.expk(model.dtau, model.mu_tilde);
        BMatrixFactory {
            n: model.nsites(),
            nu: model.nu(),
            expk,
            expk_inv,
        }
    }

    /// Builds the factory with the **checkerboard** kinetic operator:
    /// `e^{−ΔτK}` is replaced by the split-bond product
    /// `e^{Δτμ̃}·Π_c e^{−ΔτK_c}` (QUEST's large-lattice mode). The product
    /// and its exact inverse are materialised once, so every downstream
    /// code path is unchanged; the simulated Hamiltonian differs from the
    /// exact-exponential one by the same O(Δτ²) the Trotter discretisation
    /// already carries.
    pub fn new_checkerboard(model: &ModelParams) -> Self {
        let cb = lattice::Checkerboard::new(&model.lattice);
        let (expk, expk_inv) = cb.dense_pair(model.dtau, model.mu_tilde);
        BMatrixFactory {
            n: model.nsites(),
            nu: model.nu(),
            expk,
            expk_inv,
        }
    }

    /// Number of sites.
    pub fn nsites(&self) -> usize {
        self.n
    }

    /// The HS coupling ν.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// `e^{−ΔτK}` (shared by every B matrix).
    pub fn expk(&self) -> &Matrix {
        &self.expk
    }

    /// `e^{+ΔτK}`.
    pub fn expk_inv(&self) -> &Matrix {
        &self.expk_inv
    }

    /// Diagonal of `V_{l,σ}`: `v_i = e^{σν h_{l,i}}`.
    pub fn v_diag(&self, h: &HsField, l: usize, spin: Spin) -> Vec<f64> {
        let mut v = workspace::take(self.n);
        self.v_diag_into(h, l, spin, &mut v);
        v
    }

    /// Writes the diagonal of `V_{l,σ}` into `out` (length `n`) without
    /// allocating.
    pub fn v_diag_into(&self, h: &HsField, l: usize, spin: Spin, out: &mut [f64]) {
        assert_eq!(out.len(), self.n);
        let s = spin.sign() * self.nu;
        for (i, o) in out.iter_mut().enumerate() {
            *o = (s * h.get(l, i)).exp();
        }
    }

    /// Explicit `B_{l,σ} = e^{−ΔτK} V` (a column scaling of `e^{−ΔτK}`).
    pub fn b_matrix(&self, h: &HsField, l: usize, spin: Spin) -> Matrix {
        let mut b = self.expk.clone();
        let v = self.v_diag(h, l, spin);
        scale::col_scale(&v, &mut b);
        workspace::put(v);
        b
    }

    /// `M ← B_{l,σ} · M = e^{−ΔτK}(V·M)` without materialising B: a
    /// row scaling (the paper's §IV-B kernel) followed by a GEMM.
    pub fn b_mul_left(&self, h: &HsField, l: usize, spin: Spin, m: &Matrix) -> Matrix {
        let mut out = workspace::take_matrix(self.n, m.ncols());
        self.b_mul_left_into(h, l, spin, m, &mut out);
        out
    }

    /// `out ← B_{l,σ} · M` without allocating: scratch comes from the
    /// workspace arena. `out` must be `n × M.ncols()`.
    pub fn b_mul_left_into(&self, h: &HsField, l: usize, spin: Spin, m: &Matrix, out: &mut Matrix) {
        assert_eq!(m.nrows(), self.n);
        assert!(out.nrows() == self.n && out.ncols() == m.ncols());
        let mut vm = workspace::take_matrix(m.nrows(), m.ncols());
        m.copy_submatrix_into(0, 0, &mut vm);
        let mut v = workspace::take(self.n);
        self.v_diag_into(h, l, spin, &mut v);
        scale::row_scale(&v, &mut vm);
        workspace::put(v);
        gemm(1.0, &self.expk, Op::NoTrans, &vm, Op::NoTrans, 0.0, out);
        workspace::put_matrix(vm);
    }

    /// `M ← M · B_{l,σ}⁻¹`; used by wrapping.
    ///
    /// `B⁻¹ = V⁻¹ e^{+ΔτK}`, so `M B⁻¹ = (M · diag(1/v)) e^{+ΔτK}`.
    pub fn b_inv_mul_right(&self, h: &HsField, l: usize, spin: Spin, m: &Matrix) -> Matrix {
        let mut out = workspace::take_matrix(m.nrows(), self.n);
        self.b_inv_mul_right_into(h, l, spin, m, &mut out);
        out
    }

    /// `out ← M · B_{l,σ}⁻¹` without allocating. `out` must be
    /// `M.nrows() × n`.
    pub fn b_inv_mul_right_into(
        &self,
        h: &HsField,
        l: usize,
        spin: Spin,
        m: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(m.ncols(), self.n);
        assert!(out.nrows() == m.nrows() && out.ncols() == self.n);
        let mut vinv = workspace::take(self.n);
        self.v_diag_into(h, l, spin, &mut vinv);
        for v in vinv.iter_mut() {
            *v = 1.0 / *v;
        }
        let mut mv = workspace::take_matrix(m.nrows(), m.ncols());
        m.copy_submatrix_into(0, 0, &mut mv);
        scale::col_scale(&vinv, &mut mv);
        workspace::put(vinv);
        gemm(1.0, &mv, Op::NoTrans, &self.expk_inv, Op::NoTrans, 0.0, out);
        workspace::put_matrix(mv);
    }

    /// `out ← B_{l,σ} · G · B_{l,σ}⁻¹`, the equal-time wrap to the next
    /// slice, with all staging taken from the workspace arena.
    pub fn wrap_into(&self, h: &HsField, l: usize, spin: Spin, g: &Matrix, out: &mut Matrix) {
        let mut bg = workspace::take_matrix(self.n, g.ncols());
        self.b_mul_left_into(h, l, spin, g, &mut bg);
        self.b_inv_mul_right_into(h, l, spin, &bg, out);
        workspace::put_matrix(bg);
    }

    /// Cluster product `B_{l_hi−1} ⋯ B_{l_lo}` (Algorithm 4's host analogue):
    /// the product over slices `l ∈ [l_lo, l_hi)`, rightmost factor first.
    /// Accumulates by ping-ponging two arena matrices instead of allocating
    /// one product per slice.
    pub fn cluster(&self, h: &HsField, l_lo: usize, l_hi: usize, spin: Spin) -> Matrix {
        assert!(l_lo < l_hi && l_hi <= h.slices(), "bad cluster range");
        let mut acc = self.b_matrix(h, l_lo, spin);
        let mut tmp = workspace::take_matrix(self.n, self.n);
        for l in (l_lo + 1)..l_hi {
            self.b_mul_left_into(h, l, spin, &acc, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        workspace::put_matrix(tmp);
        acc
    }

    /// Full chain `B_{L−1} ⋯ B_0` (tests / brute-force checks only — this is
    /// the numerically unstable product the stratification exists to avoid).
    pub fn full_chain(&self, h: &HsField, spin: Spin) -> Matrix {
        self.cluster(h, 0, h.slices(), spin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice::Lattice;
    use linalg::blas3::matmul;

    fn setup() -> (ModelParams, BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(3, 3, 1.0), 4.0, 0.2, 0.125, 8);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(11);
        let h = HsField::random(model.nsites(), model.slices, &mut rng);
        (model, fac, h)
    }

    #[test]
    fn v_diag_values() {
        let (model, fac, h) = setup();
        let v = fac.v_diag(&h, 2, Spin::Up);
        for (i, &vi) in v.iter().enumerate() {
            let expect = (model.nu() * h.get(2, i)).exp();
            assert!((vi - expect).abs() < 1e-15);
        }
        let vd = fac.v_diag(&h, 2, Spin::Down);
        for (vu, vd) in v.iter().zip(vd.iter()) {
            assert!((vu * vd - 1.0).abs() < 1e-12, "up/down are inverses");
        }
    }

    #[test]
    fn b_matrix_is_scaled_expk() {
        let (_, fac, h) = setup();
        let b = fac.b_matrix(&h, 0, Spin::Up);
        let v = fac.v_diag(&h, 0, Spin::Up);
        for i in 0..fac.nsites() {
            for j in 0..fac.nsites() {
                assert!((b[(i, j)] - fac.expk()[(i, j)] * v[j]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn b_mul_left_matches_explicit() {
        let (_, fac, h) = setup();
        let mut rng = util::Rng::new(2);
        let m = Matrix::random(9, 9, &mut rng);
        let fast = fac.b_mul_left(&h, 3, Spin::Down, &m);
        let b = fac.b_matrix(&h, 3, Spin::Down);
        let explicit = matmul(&b, Op::NoTrans, &m, Op::NoTrans);
        assert!(fast.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn b_inv_mul_right_inverts_left_mul() {
        let (_, fac, h) = setup();
        let mut rng = util::Rng::new(3);
        let m = Matrix::random(9, 9, &mut rng);
        let bm = fac.b_mul_left(&h, 5, Spin::Up, &m);
        // (B m) B⁻¹ should equal B m B⁻¹; sanity: m B B⁻¹ = m.
        let mb = {
            let b = fac.b_matrix(&h, 5, Spin::Up);
            matmul(&m, Op::NoTrans, &b, Op::NoTrans)
        };
        let back = fac.b_inv_mul_right(&h, 5, Spin::Up, &mb);
        assert!(back.max_abs_diff(&m) < 1e-11);
        let _ = bm;
    }

    #[test]
    fn cluster_equals_sequential_product() {
        let (_, fac, h) = setup();
        let c = fac.cluster(&h, 2, 6, Spin::Up);
        // explicit B5 B4 B3 B2
        let mut acc = fac.b_matrix(&h, 2, Spin::Up);
        for l in 3..6 {
            let b = fac.b_matrix(&h, l, Spin::Up);
            acc = matmul(&b, Op::NoTrans, &acc, Op::NoTrans);
        }
        assert!(c.max_abs_diff(&acc) < 1e-11);
    }

    #[test]
    fn full_chain_composes_clusters() {
        let (_, fac, h) = setup();
        let whole = fac.full_chain(&h, Spin::Down);
        let lo = fac.cluster(&h, 0, 4, Spin::Down);
        let hi = fac.cluster(&h, 4, 8, Spin::Down);
        let composed = matmul(&hi, Op::NoTrans, &lo, Op::NoTrans);
        let scale = whole.max_abs().max(1.0);
        assert!(whole.max_abs_diff(&composed) / scale < 1e-12);
    }

    #[test]
    fn u_zero_b_is_expk() {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 0.0, 0.0, 0.1, 4);
        let fac = BMatrixFactory::new(&model);
        let h = HsField::ones(4, 4);
        let b = fac.b_matrix(&h, 0, Spin::Up);
        assert!(b.max_abs_diff(fac.expk()) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "bad cluster range")]
    fn empty_cluster_rejected() {
        let (_, fac, h) = setup();
        let _ = fac.cluster(&h, 3, 3, Spin::Up);
    }
}
