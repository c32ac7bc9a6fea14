//! B-matrix construction and matrix clustering (§III-A2 of the paper).
//!
//! `B_{l,σ} = e^{−ΔτK} · V_{l,σ}` with `V_{l,σ} = diag(e^{σν h_{l,i}})`.
//! The exponentials `e^{∓ΔτK}` are fixed for the whole simulation and
//! computed once (analytically, via the lattice's Kronecker structure).
//! From [`KRON_MIN_SITES`] sites up they are also *kept* in that structure:
//! every product with them is one small GEMM per lattice axis
//! ([`linalg::Kron`]), `2N²(Lx+Ly+Lz)` flops instead of `2N³`.
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
use linalg::{scale, workspace, Kron, Matrix, Side};

/// Sites from which a separable lattice applies `e^{∓ΔτK}` factor by factor.
///
/// Measured like `linalg::team::FORK_FLOPS`: `bench --bin kron`
/// (`BENCH_kron.json`) times one held product, dense against factored, on
/// square lattices of the 2-core AVX-512 reference host. Factored ÷ dense
/// speedup, four runs: left 0.26–0.52 / 1.03–1.11 / 0.96–1.08 / 1.36–1.49
/// and right 0.95–1.00 / 1.41–1.56 / 1.86–2.04 / 2.26–2.50 at N = 36 / 64 /
/// 100 / 144 (3.2–3.8× at 256, 4× at 400). The left product — its middle
/// axis is `N` GEMMs of `Lx × Ly × Ly` — breaks even at 64–100; a sweep
/// issues two left products (wrap, cluster rebuild) per right one, which
/// gains ~1.2× at N = 100. Below this every product is the one dense GEMM,
/// so the N ≤ 64 systems and their golden trajectories keep their bytes.
pub const KRON_MIN_SITES: usize = 100;

/// Precomputed kinetic exponentials plus the B-matrix operations built on
/// them. Does not own the HS field: callers pass the current field so the
/// factory stays valid across Metropolis updates.
#[derive(Clone, Debug)]
pub struct BMatrixFactory {
    n: usize,
    nu: f64,
    /// `e^{−ΔτK}` and `e^{+ΔτK}` as every product applies them.
    kron: [Kron; 2],
    /// `e^{−ΔτK}` multiplied out, when `kron` is factored: the seed of
    /// every cluster product. `None` when each operator is its one dense
    /// factor.
    dense: Option<Matrix>,
}

impl BMatrixFactory {
    /// Builds the factory for a model (computes `e^{∓ΔτK}` exactly via the
    /// lattice's separable structure), factored from [`KRON_MIN_SITES`] up.
    pub fn new(model: &ModelParams) -> Self {
        let (expk, expk_inv) = model.lattice.expk(model.dtau, model.mu_tilde);
        if model.nsites() < KRON_MIN_SITES {
            return Self::dense(model, expk, expk_inv);
        }
        let (fwd, bwd) = model.lattice.expk_factors(model.dtau, model.mu_tilde);
        if fwd.len() < 2 {
            return Self::dense(model, expk, expk_inv);
        }
        BMatrixFactory {
            n: model.nsites(),
            nu: model.nu(),
            kron: [Kron::new(fwd), Kron::new(bwd)],
            dense: Some(expk),
        }
    }

    fn dense(model: &ModelParams, expk: Matrix, expk_inv: Matrix) -> Self {
        BMatrixFactory {
            n: model.nsites(),
            nu: model.nu(),
            kron: [Kron::new(vec![expk]), Kron::new(vec![expk_inv])],
            dense: None,
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

    /// `e^{−ΔτK}` (shared by every B matrix), multiplied out.
    pub fn expk(&self) -> &Matrix {
        self.dense.as_ref().unwrap_or(&self.kron[0].factors()[0])
    }

    /// `e^{−ΔτK}` as its products apply it: one dense factor below
    /// [`KRON_MIN_SITES`] (and on a one-axis lattice), one per lattice axis
    /// from there up.
    pub fn expk_kron(&self) -> &Kron {
        &self.kron[0]
    }

    /// `e^{+ΔτK}` as its products apply it.
    pub fn expk_inv_kron(&self) -> &Kron {
        &self.kron[1]
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
        let mut b = self.expk().clone();
        let v = self.v_diag(h, l, spin);
        scale::col_scale(&v, &mut b);
        workspace::put(v);
        b
    }

    /// `out ← B_{l,σ} · M = e^{−ΔτK}(V·M)` without materialising B: a row
    /// scaling (the paper's §IV-B kernel) followed by the product with
    /// `e^{−ΔτK}`, one GEMM per factor, through one workspace matrix: the
    /// scaled copy starts in whichever of the two buffers makes the product
    /// land in `out`. `out` must be `n × M.ncols()`.
    pub fn b_mul_left_into(&self, h: &HsField, l: usize, spin: Spin, m: &Matrix, out: &mut Matrix) {
        assert_eq!(m.nrows(), self.n);
        assert!(out.nrows() == self.n && out.ncols() == m.ncols());
        let mut v = workspace::take(self.n);
        self.v_diag_into(h, l, spin, &mut v);
        let mut x = workspace::take_matrix(m.nrows(), m.ncols());
        let from = self.kron[0].factors().len() % 2;
        let start = if from == 0 { &mut *out } else { &mut x };
        start.copy_from(m);
        scale::row_scale(&v, start);
        self.kron[0].apply(Side::Left, [out, &mut x], from);
        workspace::put_matrix(x);
        workspace::put(v);
    }

    /// `out ← B_{l,σ} · G · B_{l,σ}⁻¹`, the equal-time wrap to the next
    /// slice: [`Self::b_mul_left_into`]'s ops, then `B⁻¹ = V⁻¹ e^{+ΔτK}` from
    /// the right (a column scaling by `1/v`, then `e^{+ΔτK}`), ping-ponging
    /// between `out` and one workspace matrix (both operators have the same
    /// number of factors, so the product returns to `out`).
    pub fn wrap_into(&self, h: &HsField, l: usize, spin: Spin, g: &Matrix, out: &mut Matrix) {
        assert!(g.nrows() == self.n && g.ncols() == self.n);
        let mut v = workspace::take(self.n);
        self.v_diag_into(h, l, spin, &mut v);
        let mut x = workspace::take_matrix(self.n, self.n);
        out.copy_from(g);
        scale::row_scale(&v, out);
        let at = self.kron[0].apply(Side::Left, [&mut *out, &mut x], 0);
        for v in v.iter_mut() {
            *v = 1.0 / *v;
        }
        scale::col_scale(&v, if at == 0 { &mut *out } else { &mut x });
        let at = self.kron[1].apply(Side::Right, [&mut *out, &mut x], at);
        assert_eq!(at, 0, "e^{{∓ΔτK}} have the same number of factors");
        workspace::put(v);
        workspace::put_matrix(x);
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
    use linalg::Op;

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
        let mut fast = Matrix::zeros(9, 9);
        fac.b_mul_left_into(&h, 3, Spin::Down, &m, &mut fast);
        let b = fac.b_matrix(&h, 3, Spin::Down);
        let explicit = matmul(&b, Op::NoTrans, &m, Op::NoTrans);
        assert!(fast.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn wrap_conjugates_by_b() {
        let (_, fac, h) = setup();
        let mut rng = util::Rng::new(3);
        let g = Matrix::random(9, 9, &mut rng);
        // (B G B⁻¹) B = B G.
        let mut wrapped = Matrix::zeros(9, 9);
        fac.wrap_into(&h, 5, Spin::Up, &g, &mut wrapped);
        let b = fac.b_matrix(&h, 5, Spin::Up);
        let lhs = matmul(&wrapped, Op::NoTrans, &b, Op::NoTrans);
        let rhs = matmul(&b, Op::NoTrans, &g, Op::NoTrans);
        assert!(lhs.max_abs_diff(&rhs) < 1e-11);
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
