//! Green's function assembly and wrapping.
//!
//! From the graded decomposition `B_L⋯B_1 = Q·diag(D)·T` the equal-time
//! Green's function `G = (I + B_L⋯B_1)⁻¹` is assembled without ever forming
//! the ill-conditioned product: with the paper's splitting of `D` into the
//! big part `D_b` and small part `D_s`,
//!
//! ```text
//! I + Q D T = Q D_b⁻¹ (D_b Qᵀ + D_s T)   ⇒   G = (D_b Qᵀ + D_s T)⁻¹ D_b Qᵀ
//! ```
//!
//! — every factor on the right is O(1), so a plain LU solve is accurate.
//! The same factorization yields the sign and log-magnitude of
//! `det(I + B_L⋯B_1)` for free, which supplies the Metropolis determinant
//! ratio checks and the fermion sign.
//!
//! Wrapping (§III-B1) advances `G` one slice: `G ← B_l G B_l⁻¹`, two
//! products with `e^{∓ΔτK}` (a GEMM each, or one per lattice axis — see
//! [`crate::bmat`]) plus diagonal scalings.

use crate::bmat::BMatrixFactory;
use crate::hs::HsField;
use crate::hubbard::Spin;
use crate::stratify::Udt;
#[cfg(test)]
use linalg::blas3::{gemm, Op};
use linalg::{lu, workspace, Matrix};

/// An equal-time Green's function with its determinant bookkeeping.
#[derive(Clone, Debug)]
pub struct GreensFunction {
    /// The matrix `G = (I + B_L⋯B_1)⁻¹`.
    pub g: Matrix,
    /// Sign of `det(I + B_L⋯B_1)`.
    pub sign: f64,
    /// `ln |det(I + B_L⋯B_1)|`.
    pub log_det: f64,
}

/// The paper's `D_b`/`D_s` splitting of the graded diagonal.
pub fn split_d(d: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let db = d
        .iter()
        .map(|&x| if x.abs() > 1.0 { 1.0 / x.abs() } else { 1.0 })
        .collect();
    let ds = d
        .iter()
        .map(|&x| if x.abs() <= 1.0 { x } else { x.signum() })
        .collect();
    (db, ds)
}

/// Assembles `G`, the determinant sign, and `ln|det|` from a UDT.
///
/// The staging buffers (the split diagonal, `M̃`) are leased from the
/// workspace arena; `G` itself first holds the right-hand side `D_b Qᵀ`.
pub fn greens_from_udt(udt: &Udt) -> GreensFunction {
    let n = udt.q.nrows();
    let mut split = workspace::take(2 * n);
    let (db, ds) = split.split_at_mut(n);
    for ((b, s), &x) in db.iter_mut().zip(ds.iter_mut()).zip(&udt.d) {
        (*b, *s) = if x.abs() > 1.0 {
            (1.0 / x.abs(), x.signum())
        } else {
            (1.0, x)
        };
    }

    // One pass builds G = D_b Qᵀ and M̃ = D_s T + D_b Qᵀ (all entries O(1)).
    let mut g = Matrix::zeros(n, n);
    let mut m = workspace::take_matrix(n, n);
    for j in 0..n {
        let (gj, mj, tj) = (g.col_mut(j), m.col_mut(j), udt.t.col(j));
        for i in 0..n {
            gj[i] = udt.q[(j, i)] * db[i];
            mj[i] = tj[i] * ds[i] + gj[i];
        }
    }

    let f = lu::lu_in_place(m).expect("Green's function assembly: singular M̃");
    f.solve_in_place(&mut g);

    // det(I + QDT) = det(Q) · det(D_b⁻¹) · det(M̃); D_b > 0.
    let (mut sign, mut log_det) = f.sign_log_det();
    sign *= udt.q_sign;
    for &b in db.iter() {
        log_det -= b.ln();
    }
    workspace::put_matrix(f.lu);
    workspace::put(split);
    linalg::check_finite!(g.as_slice(), "greens_from_udt output ({n}x{n})");
    GreensFunction { g, sign, log_det }
}

/// Wraps the Green's function from slice `l−1` to slice `l`:
/// `G ← B_l G B_l⁻¹` (the new slice's B becomes the leftmost factor).
pub fn wrap(fac: &BMatrixFactory, h: &HsField, l: usize, spin: Spin, g: &Matrix) -> Matrix {
    let mut out = linalg::workspace::take_matrix(g.nrows(), g.ncols());
    fac.wrap_into(h, l, spin, g, &mut out);
    out
}

/// Relative difference `‖G₁ − G₂‖_F / ‖G₂‖_F` — the paper's Figure 2 metric
/// and the wrapping accuracy monitor.
pub fn relative_difference(g1: &Matrix, g2: &Matrix) -> f64 {
    assert_eq!(g1.nrows(), g2.nrows());
    assert_eq!(g1.ncols(), g2.ncols());
    let mut diff = workspace::take_matrix(g1.nrows(), g1.ncols());
    diff.copy_from(g1);
    diff.axpy(-1.0, g2);
    let rel = diff.norm_fro() / g2.norm_fro();
    workspace::put_matrix(diff);
    rel
}

/// Brute-force `G = (I + B_L⋯B_1)⁻¹` by explicit product and inversion.
/// Only valid for short, well-conditioned chains; used to validate the
/// stratified assembly in tests.
pub fn greens_naive(fac: &BMatrixFactory, h: &HsField, spin: Spin) -> GreensFunction {
    let n = fac.nsites();
    let chain = fac.full_chain(h, spin);
    let mut m = Matrix::identity(n);
    m.axpy(1.0, &chain);
    let f = lu::lu_in_place(m.clone()).expect("naive Green's function: singular");
    let (sign, log_det) = f.sign_log_det();
    GreensFunction {
        g: f.inverse(),
        sign,
        log_det,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;
    use crate::stratify::{stratify, StratAlgo};
    use lattice::Lattice;

    fn setup(l: usize, u: f64) -> (ModelParams, BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(3, 3, 1.0), u, 0.1, 0.125, l);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(21);
        let h = HsField::random(model.nsites(), l, &mut rng);
        (model, fac, h)
    }

    fn clusters(fac: &BMatrixFactory, h: &HsField, k: usize) -> Vec<Matrix> {
        (0..h.slices())
            .step_by(k)
            .map(|lo| fac.cluster(h, lo, (lo + k).min(h.slices()), crate::Spin::Up))
            .collect()
    }

    #[test]
    fn split_d_definition() {
        let d = [5.0, -3.0, 1.0, 0.5, -0.2];
        let (db, ds) = split_d(&d);
        assert_eq!(db, vec![0.2, 1.0 / 3.0, 1.0, 1.0, 1.0]);
        assert_eq!(ds, vec![1.0, -1.0, 1.0, 0.5, -0.2]);
        // D = Ds / Db elementwise.
        for i in 0..5 {
            assert!((ds[i] / db[i] - d[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn stratified_matches_naive_short_chain() {
        let (_, fac, h) = setup(8, 4.0);
        for algo in [StratAlgo::Qrp, StratAlgo::PrePivot] {
            let bs: Vec<Matrix> = (0..8)
                .map(|l| fac.b_matrix(&h, l, crate::Spin::Up))
                .collect();
            let udt = stratify(&bs, algo);
            let gf = greens_from_udt(&udt);
            let gn = greens_naive(&fac, &h, crate::Spin::Up);
            assert!(
                relative_difference(&gf.g, &gn.g) < 1e-10,
                "{algo:?}: {}",
                relative_difference(&gf.g, &gn.g)
            );
            assert_eq!(gf.sign, gn.sign, "{algo:?} determinant sign");
            assert!(
                (gf.log_det - gn.log_det).abs() < 1e-8,
                "{algo:?} log det: {} vs {}",
                gf.log_det,
                gn.log_det
            );
        }
    }

    #[test]
    fn clustered_matches_unclustered() {
        let (_, fac, h) = setup(8, 4.0);
        let bs: Vec<Matrix> = (0..8)
            .map(|l| fac.b_matrix(&h, l, crate::Spin::Up))
            .collect();
        let g1 = greens_from_udt(&stratify(&bs, StratAlgo::PrePivot));
        let cl = clusters(&fac, &h, 4);
        let g2 = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot));
        assert!(relative_difference(&g1.g, &g2.g) < 1e-10);
    }

    #[test]
    fn algorithms_agree_at_green_function_level() {
        // The Figure 2 property: ‖G − G̃‖_F/‖G‖_F tiny across U values.
        for &u in &[2.0, 4.0, 8.0] {
            let (_, fac, h) = setup(16, u);
            let cl = clusters(&fac, &h, 4);
            let g_qrp = greens_from_udt(&stratify(&cl, StratAlgo::Qrp));
            let g_pre = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot));
            let rel = relative_difference(&g_pre.g, &g_qrp.g);
            assert!(rel < 1e-9, "U={u}: {rel}");
        }
    }

    #[test]
    fn wrap_matches_recompute() {
        let (_, fac, h) = setup(8, 4.0);
        // G at "slice -1" (canonical order), then wrap to slice 0.
        let g0 = greens_naive(&fac, &h, crate::Spin::Up).g;
        let wrapped = wrap(&fac, &h, 0, crate::Spin::Up, &g0);
        // Recompute with rotated order: B_0 B_7 ⋯ B_1.
        let order: Vec<Matrix> = (1..8)
            .chain(0..1)
            .map(|l| fac.b_matrix(&h, l, crate::Spin::Up))
            .collect();
        let udt = stratify(&order, StratAlgo::PrePivot);
        let gr = greens_from_udt(&udt);
        assert!(
            relative_difference(&wrapped, &gr.g) < 1e-9,
            "{}",
            relative_difference(&wrapped, &gr.g)
        );
    }

    #[test]
    fn long_chain_stable_where_naive_fails() {
        // β = 8·U=6 chain on 3×3: the explicit product's condition number is
        // astronomical; the stratified G must stay finite and be an actual
        // inverse: ‖(I + B…B)G − I‖ small is unverifiable directly (the
        // product overflows), so check instead the projector identity
        // G + B G B⁻¹(I−…)… — simplest robust check: G entries finite and
        // the identity G = B_0⁻¹ (wrap) round-trips.
        let model = ModelParams::new(Lattice::square(3, 3, 1.0), 6.0, 0.0, 0.125, 64);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(5);
        let h = HsField::random(9, 64, &mut rng);
        let cl: Vec<Matrix> = (0..64)
            .step_by(8)
            .map(|lo| fac.cluster(&h, lo, lo + 8, crate::Spin::Up))
            .collect();
        let gf = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot));
        assert!(gf.g.as_slice().iter().all(|x| x.is_finite()));
        // Wrap forward one slice and back: must return to the same matrix.
        let fwd = wrap(&fac, &h, 0, crate::Spin::Up, &gf.g);
        let mut back = Matrix::zeros(9, 9);
        // back = B_0⁻¹ (B_0 G B_0⁻¹) B_0 = G: left-multiply by B⁻¹ =
        // right-multiply implemented via b_mul_left on the transpose is
        // awkward; do it directly: B_0⁻¹ fwd B_0.
        let b0 = fac.b_matrix(&h, 0, crate::Spin::Up);
        let binv = linalg::lu::inverse(&b0).unwrap();
        let tmp = linalg::blas3::matmul(&binv, Op::NoTrans, &fwd, Op::NoTrans);
        gemm(1.0, &tmp, Op::NoTrans, &b0, Op::NoTrans, 0.0, &mut back);
        assert!(relative_difference(&back, &gf.g) < 1e-8);
    }

    #[test]
    fn determinant_ratio_under_single_flip() {
        // r = det M(h')/det M(h) from log-dets must match the fast formula
        // 1 + α(1 − G_ii).
        // Updating slice 0 uses the canonical G (B_0 rightmost), per the
        // paper's update-then-wrap order.
        let (model, fac, h0) = setup(8, 4.0);
        let mut h = h0.clone();
        let gf = {
            let order: Vec<Matrix> = (0..8)
                .map(|l| fac.b_matrix(&h, l, crate::Spin::Up))
                .collect();
            greens_from_udt(&stratify(&order, StratAlgo::PrePivot))
        };
        let i = 4;
        let nu = model.nu();
        let alpha = (-2.0 * nu * h.get(0, i)).exp() - 1.0;
        let fast_ratio = 1.0 + alpha * (1.0 - gf.g[(i, i)]);

        // Explicit: flip and recompute det of M with the same order.
        let before = gf;
        h.flip(0, i);
        let after = {
            let order: Vec<Matrix> = (0..8)
                .map(|l| fac.b_matrix(&h, l, crate::Spin::Up))
                .collect();
            greens_from_udt(&stratify(&order, StratAlgo::PrePivot))
        };
        let explicit_ratio = after.sign / before.sign * (after.log_det - before.log_det).exp();
        assert!(
            (fast_ratio - explicit_ratio).abs() < 1e-7 * explicit_ratio.abs().max(1.0),
            "fast {fast_ratio} vs explicit {explicit_ratio}"
        );
    }

    #[test]
    fn relative_difference_metric() {
        let a = Matrix::identity(3);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 3e-3;
        let r = relative_difference(&b, &a);
        assert!((r - 3e-3 / 3f64.sqrt()).abs() < 1e-12);
        assert_eq!(relative_difference(&a, &a), 0.0);
    }
}
