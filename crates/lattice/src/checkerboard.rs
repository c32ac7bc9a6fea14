//! Checkerboard (split-bond) decomposition of the kinetic exponential.
//!
//! QUEST's large-lattice mode approximates `e^{−ΔτK}` by a product of
//! *bond-color* factors: the bonds are partitioned into matchings
//! (no two bonds of a color share a site), each color's exponential is an
//! exact product of independent 2×2 hyperbolic rotations, and
//!
//! ```text
//! e^{−ΔτK} ≈ e^{Δτμ̃} · Π_c e^{−ΔτK_c}
//! ```
//!
//! with the same O(Δτ²) Trotter error the DQMC discretisation already
//! carries. The payoff is an O(N·bonds-per-site) application cost per
//! column instead of a dense O(N²) row — the difference between GEMM-bound
//! and bandwidth-bound B-multiplies at large N.
//!
//! The decomposition is *exactly invertible*: the inverse applies the
//! colors in reverse order with the opposite sign, so wrapping stays an
//! exact similarity transform.

use crate::geometry::Lattice;
use linalg::Matrix;

/// One hopping bond: `(site_i, site_j, amplitude)` with `amplitude` the
/// positive hopping strength `t·multiplicity`.
pub type Bond = (usize, usize, f64);

/// Bond-colored kinetic operator.
#[derive(Clone, Debug)]
pub struct Checkerboard {
    n: usize,
    /// Colors: each a matching of disjoint bonds.
    colors: Vec<Vec<Bond>>,
}

impl Checkerboard {
    /// Builds a bond coloring of the lattice by greedy matching (colors are
    /// matchings; the count is small: 4 for a periodic square lattice with
    /// even extents, +2 per stacking direction).
    pub fn new(lat: &Lattice) -> Self {
        let n = lat.nsites();
        // Collect each undirected bond once.
        let mut bonds: Vec<Bond> = Vec::new();
        let k = lat.kinetic_matrix(0.0);
        for i in 0..n {
            for (j, _mult) in lat.neighbor_bonds(i) {
                if i < j {
                    bonds.push((i, j, -k[(i, j)]));
                }
            }
        }
        // Greedy edge coloring: first color whose matching stays disjoint.
        let mut colors: Vec<Vec<Bond>> = Vec::new();
        let mut busy: Vec<Vec<bool>> = Vec::new();
        for &(i, j, t) in &bonds {
            let mut placed = false;
            for (c, color) in colors.iter_mut().enumerate() {
                if !busy[c][i] && !busy[c][j] {
                    color.push((i, j, t));
                    busy[c][i] = true;
                    busy[c][j] = true;
                    placed = true;
                    break;
                }
            }
            if !placed {
                let mut b = vec![false; n];
                b[i] = true;
                b[j] = true;
                colors.push(vec![(i, j, t)]);
                busy.push(b);
            }
        }
        Checkerboard { n, colors }
    }

    /// Number of sites.
    pub fn nsites(&self) -> usize {
        self.n
    }

    /// Number of colors (exponential factors).
    pub fn ncolors(&self) -> usize {
        self.colors.len()
    }

    /// Total bond count.
    pub fn nbonds(&self) -> usize {
        self.colors.iter().map(|c| c.len()).sum()
    }

    /// The colors (read-only view).
    pub fn colors(&self) -> &[Vec<Bond>] {
        &self.colors
    }

    /// `M ← e^{s·K_hop}_cb · M` where `s = ±Δτ`-style scalar: applies the
    /// color factors left-to-right for `s` as given; the exact inverse is
    /// obtained by calling with `−s` and `reverse = true`.
    pub fn apply_left(&self, s: f64, reverse: bool, m: &mut Matrix) {
        assert_eq!(m.nrows(), self.n, "checkerboard: row mismatch");
        let order: Vec<usize> = if reverse {
            (0..self.colors.len()).rev().collect()
        } else {
            (0..self.colors.len()).collect()
        };
        // Column by column; bonds within a color are disjoint rows.
        for jcol in 0..m.ncols() {
            let col = m.col_mut(jcol);
            for &c in &order {
                for &(i, j, t) in &self.colors[c] {
                    // K_hop[i][j] = −t ⇒ e^{sK} bond block =
                    // [[cosh(st·(−1))…]]: e^{s·(−t)σx} = cosh(st)·I − sinh(st)·σx.
                    let (ch, sh) = ((s * t).cosh(), -(s * t).sinh());
                    let (a, b) = (col[i], col[j]);
                    col[i] = ch * a + sh * b;
                    col[j] = sh * a + ch * b;
                }
            }
        }
    }

    /// `M ← M · e^{s·K_hop}_cb` (column operations; `reverse` as above).
    ///
    /// The logical operator is the same `E = E_last ⋯ E_1` that
    /// [`Checkerboard::apply_left`] applies, so right-multiplication visits
    /// the colors in the *opposite* iteration order:
    /// `M·E = ((M·E_last)·E_{last−1})⋯E_1`.
    pub fn apply_right(&self, s: f64, reverse: bool, m: &mut Matrix) {
        assert_eq!(m.ncols(), self.n, "checkerboard: column mismatch");
        let order: Vec<usize> = if reverse {
            (0..self.colors.len()).collect()
        } else {
            (0..self.colors.len()).rev().collect()
        };
        for &c in &order {
            for &(i, j, t) in &self.colors[c] {
                let (ch, sh) = ((s * t).cosh(), -(s * t).sinh());
                let (ci, cj) = m.two_cols_mut(i, j);
                for r in 0..ci.len() {
                    let (a, b) = (ci[r], cj[r]);
                    ci[r] = ch * a + sh * b;
                    cj[r] = sh * a + ch * b;
                }
            }
        }
    }

    /// Materialises the full checkerboard kinetic exponential
    /// `e^{Δτμ̃}·Π_c e^{−ΔτK_c}` (forward) and its exact inverse.
    ///
    /// Feeding these to [`dqmc`'s B-matrix factory] gives a simulation whose
    /// kinetic operator *is* the checkerboard product — a legitimate Trotter
    /// kinetic term in its own right.
    pub fn dense_pair(&self, dtau: f64, mu_tilde: f64) -> (Matrix, Matrix) {
        let mut fwd = Matrix::identity(self.n);
        self.apply_left(-dtau, false, &mut fwd);
        fwd.scale((dtau * mu_tilde).exp());
        let mut inv = Matrix::identity(self.n);
        self.apply_left(dtau, true, &mut inv);
        inv.scale((-dtau * mu_tilde).exp());
        (fwd, inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::blas3::{matmul, Op};

    #[test]
    fn coloring_is_valid_matching() {
        let lat = Lattice::square(6, 4, 1.0);
        let cb = Checkerboard::new(&lat);
        // Every color: no site appears twice.
        for color in cb.colors() {
            let mut seen = vec![false; cb.nsites()];
            for &(i, j, _) in color {
                assert!(!seen[i] && !seen[j], "color is not a matching");
                seen[i] = true;
                seen[j] = true;
            }
        }
        // All bonds present: 2 per site for a periodic square lattice.
        assert_eq!(cb.nbonds(), 2 * 24);
        // Even-extent square lattice: exactly 4 colors.
        assert_eq!(cb.ncolors(), 4);
    }

    #[test]
    fn odd_extent_coloring_valid_and_complete() {
        // A 5-ring cannot be 2-colored per direction, but greedy may share
        // colors across directions; only validity and coverage are promised.
        let lat = Lattice::square(5, 4, 1.0);
        let cb = Checkerboard::new(&lat);
        assert!(cb.ncolors() >= 3);
        let mut covered = 0;
        for color in cb.colors() {
            let mut seen = vec![false; cb.nsites()];
            for &(i, j, _) in color {
                assert!(!seen[i] && !seen[j]);
                seen[i] = true;
                seen[j] = true;
                covered += 1;
            }
        }
        assert_eq!(covered, 2 * 20, "every bond exactly once");
        // The materialised product must still invert exactly.
        let (fwd, inv) = cb.dense_pair(0.1, 0.0);
        let prod = matmul(&fwd, Op::NoTrans, &inv, Op::NoTrans);
        assert!(prod.max_abs_diff(&Matrix::identity(20)) < 1e-13);
    }

    #[test]
    fn single_bond_exponential_exact() {
        // 2-site chain (open via 1D multilayer trick): use a 2×1 lattice —
        // periodic gives a double bond (amplitude 2t); the 2×2 block must be
        // exactly cosh/sinh of 2tΔτ.
        let lat = Lattice::square(2, 1, 1.0);
        let cb = Checkerboard::new(&lat);
        assert_eq!(cb.ncolors(), 1);
        let (fwd, _) = cb.dense_pair(0.1, 0.0);
        let arg: f64 = 0.1 * 2.0;
        assert!((fwd[(0, 0)] - arg.cosh()).abs() < 1e-14);
        assert!((fwd[(0, 1)] - arg.sinh()).abs() < 1e-14);
        // Exact match to the dense exponential for a single commuting bond.
        let (dense, _) = lat.expk(0.1, 0.0);
        assert!(fwd.max_abs_diff(&dense) < 1e-13);
    }

    #[test]
    fn forward_inverse_exactly_cancel() {
        let lat = Lattice::multilayer(4, 3, 2, 1.0, 0.5);
        let cb = Checkerboard::new(&lat);
        let (fwd, inv) = cb.dense_pair(0.125, 0.3);
        let prod = matmul(&fwd, Op::NoTrans, &inv, Op::NoTrans);
        assert!(
            prod.max_abs_diff(&Matrix::identity(24)) < 1e-13,
            "{}",
            prod.max_abs_diff(&Matrix::identity(24))
        );
    }

    #[test]
    fn approaches_dense_exponential_as_dtau_shrinks() {
        // Trotter error of the splitting is O(Δτ²): halving Δτ must shrink
        // the difference by ~4×. (Use 6×6 — on a 4-ring the even/odd
        // matchings happen to commute exactly and the error vanishes!)
        let lat = Lattice::square(6, 6, 1.0);
        let cb = Checkerboard::new(&lat);
        let diff = |dtau: f64| {
            let (cbm, _) = cb.dense_pair(dtau, 0.0);
            let (dense, _) = lat.expk(dtau, 0.0);
            cbm.max_abs_diff(&dense)
        };
        let ratio = diff(0.1) / diff(0.05);
        assert!(
            (3.0..5.5).contains(&ratio),
            "expected ~O(Δτ²) convergence, got ratio {ratio}"
        );
    }

    #[test]
    fn four_ring_matchings_commute_exactly() {
        // The L = 4 curiosity above, pinned as a regression test: zero
        // splitting error on 4×4.
        let lat = Lattice::square(4, 4, 1.0);
        let cb = Checkerboard::new(&lat);
        let (cbm, _) = cb.dense_pair(0.4, 0.0);
        let (dense, _) = lat.expk(0.4, 0.0);
        assert!(cbm.max_abs_diff(&dense) < 1e-13);
    }

    #[test]
    fn apply_left_matches_dense_product() {
        let lat = Lattice::square(4, 4, 1.0);
        let cb = Checkerboard::new(&lat);
        let mut rng = util::Rng::new(3);
        let m0 = Matrix::random(16, 5, &mut rng);
        let mut m = m0.clone();
        cb.apply_left(-0.125, false, &mut m);
        let (fwd, _) = cb.dense_pair(0.125, 0.0);
        let expect = matmul(&fwd, Op::NoTrans, &m0, Op::NoTrans);
        assert!(m.max_abs_diff(&expect) < 1e-13);
    }

    #[test]
    fn apply_right_matches_dense_product() {
        let lat = Lattice::square(4, 4, 1.0);
        let cb = Checkerboard::new(&lat);
        let mut rng = util::Rng::new(4);
        let m0 = Matrix::random(5, 16, &mut rng);
        let mut m = m0.clone();
        cb.apply_right(-0.125, false, &mut m);
        let (fwd, _) = cb.dense_pair(0.125, 0.0);
        let expect = matmul(&m0, Op::NoTrans, &fwd, Op::NoTrans);
        assert!(
            m.max_abs_diff(&expect) < 1e-13,
            "{}",
            m.max_abs_diff(&expect)
        );
    }

    #[test]
    fn checkerboard_preserves_orthogonality_structure() {
        // Each factor is symplectic-orthogonal-ish: det = 1 per bond block
        // (cosh² − sinh² = 1), so det(e^{−ΔτK}_cb) = 1 at μ̃ = 0.
        let lat = Lattice::square(4, 4, 1.0);
        let cb = Checkerboard::new(&lat);
        let (fwd, _) = cb.dense_pair(0.2, 0.0);
        let det = linalg::lu::lu_in_place(fwd).unwrap().det();
        assert!((det - 1.0).abs() < 1e-10, "det = {det}");
    }
}
