//! Lattice geometry: site indexing, bonds, and the hopping matrix.
//!
//! Site order is x-fastest: `site = (z·Ly + y)·Lx + x`. In-plane directions
//! are always periodic (QUEST's default); the stacking direction is open —
//! the multilayer/interface geometry the paper's introduction motivates —
//! unless constructed with [`Lattice::multilayer_periodic`].

use crate::kron;
use linalg::Matrix;

/// A rectangular lattice of `Lx × Ly` sites stacked in `Lz` layers.
#[derive(Clone, Debug, PartialEq)]
pub struct Lattice {
    lx: usize,
    ly: usize,
    lz: usize,
    t: f64,
    ty: f64,
    tz: f64,
    periodic_z: bool,
}

impl Lattice {
    /// Single 2D periodic rectangular lattice with hopping `t`.
    pub fn square(lx: usize, ly: usize, t: f64) -> Self {
        assert!(lx >= 1 && ly >= 1, "lattice dimensions must be positive");
        Lattice {
            lx,
            ly,
            lz: 1,
            t,
            ty: t,
            tz: 0.0,
            periodic_z: false,
        }
    }

    /// Single 2D periodic lattice with direction-dependent hopping
    /// (`tx` along x, `ty` along y) — anisotropic couplings as QUEST's
    /// configurable geometry allows.
    pub fn anisotropic(lx: usize, ly: usize, tx: f64, ty: f64) -> Self {
        assert!(lx >= 1 && ly >= 1, "lattice dimensions must be positive");
        Lattice {
            lx,
            ly,
            lz: 1,
            t: tx,
            ty,
            tz: 0.0,
            periodic_z: false,
        }
    }

    /// `layers` stacked `lx × ly` planes: in-plane hopping `t` (periodic),
    /// inter-layer hopping `tz` (open boundary — an interface stack).
    pub fn multilayer(lx: usize, ly: usize, layers: usize, t: f64, tz: f64) -> Self {
        assert!(lx >= 1 && ly >= 1 && layers >= 1);
        Lattice {
            lx,
            ly,
            lz: layers,
            t,
            ty: t,
            tz,
            periodic_z: false,
        }
    }

    /// Multilayer with periodic stacking (a 3D torus), for finite-size studies.
    pub fn multilayer_periodic(lx: usize, ly: usize, layers: usize, t: f64, tz: f64) -> Self {
        assert!(lx >= 1 && ly >= 1 && layers >= 1);
        Lattice {
            lx,
            ly,
            lz: layers,
            t,
            ty: t,
            tz,
            periodic_z: true,
        }
    }

    /// Extent in x.
    pub fn lx(&self) -> usize {
        self.lx
    }

    /// Extent in y.
    pub fn ly(&self) -> usize {
        self.ly
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.lz
    }

    /// In-plane hopping amplitude along x.
    pub fn t(&self) -> f64 {
        self.t
    }

    /// In-plane hopping amplitude along y (equals `t()` unless built with
    /// [`Lattice::anisotropic`]).
    pub fn ty(&self) -> f64 {
        self.ty
    }

    /// Inter-layer hopping amplitude.
    pub fn tz(&self) -> f64 {
        self.tz
    }

    /// Total number of sites `N = Lx·Ly·Lz`.
    pub fn nsites(&self) -> usize {
        self.lx * self.ly * self.lz
    }

    /// Site index of coordinates `(x, y, z)`.
    #[inline]
    pub fn site(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.lx && y < self.ly && z < self.lz);
        (z * self.ly + y) * self.lx + x
    }

    /// Coordinates `(x, y, z)` of a site index.
    #[inline]
    pub fn coords(&self, i: usize) -> (usize, usize, usize) {
        debug_assert!(i < self.nsites());
        let x = i % self.lx;
        let y = (i / self.lx) % self.ly;
        let z = i / (self.lx * self.ly);
        (x, y, z)
    }

    /// Nearest neighbours of site `i` (periodic in-plane, open/periodic in z).
    ///
    /// Neighbours are deduplicated (relevant for extents of 1 or 2 where
    /// wrapping makes both directions land on the same site), but the bond
    /// *multiplicity* is preserved in [`Lattice::kinetic_matrix`].
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(6);
        for (j, _mult) in self.neighbor_bonds(i) {
            if !out.contains(&j) {
                out.push(j);
            }
        }
        out
    }

    /// The sublattice sign vector `s_i = ±1`: a 2-colouring of the bonds
    /// (every bond joins sites of opposite sign, site 0 of each connected
    /// piece is `+1`), or `None` when the lattice is not bipartite — an odd
    /// periodic side closes an odd ring. With `D = diag(s)`, `D·K·D = −K` at
    /// `μ̃ = 0`, the particle–hole symmetry that makes `G↓ = I − D·G↑ᵀ·D`
    /// for every HS field at half filling.
    pub fn sublattice_signs(&self) -> Option<Vec<f64>> {
        let mut signs = vec![0.0; self.nsites()];
        for root in 0..signs.len() {
            if signs[root] != 0.0 {
                continue;
            }
            signs[root] = 1.0;
            let mut todo = vec![root];
            while let Some(i) = todo.pop() {
                for j in self.neighbors(i) {
                    if signs[j] == 0.0 {
                        signs[j] = -signs[i];
                        todo.push(j);
                    } else if signs[j] == signs[i] {
                        return None;
                    }
                }
            }
        }
        Some(signs)
    }

    /// Neighbour bonds of site `i` with multiplicity (an extent-2 ring has a
    /// double bond: hopping left and right reach the same site).
    pub fn neighbor_bonds(&self, i: usize) -> Vec<(usize, usize)> {
        let (x, y, z) = self.coords(i);
        let mut raw: Vec<usize> = Vec::with_capacity(6);
        if self.lx > 1 {
            raw.push(self.site((x + 1) % self.lx, y, z));
            raw.push(self.site((x + self.lx - 1) % self.lx, y, z));
        }
        if self.ly > 1 {
            raw.push(self.site(x, (y + 1) % self.ly, z));
            raw.push(self.site(x, (y + self.ly - 1) % self.ly, z));
        }
        if self.lz > 1 {
            if z + 1 < self.lz {
                raw.push(self.site(x, y, z + 1));
            } else if self.periodic_z {
                raw.push(self.site(x, y, 0));
            }
            if z > 0 {
                raw.push(self.site(x, y, z - 1));
            } else if self.periodic_z {
                raw.push(self.site(x, y, self.lz - 1));
            }
        }
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(raw.len());
        for j in raw {
            if let Some(e) = out.iter_mut().find(|(jj, _)| *jj == j) {
                e.1 += 1;
            } else {
                out.push((j, 1));
            }
        }
        out
    }

    /// The hopping matrix `K`: `K[i][j] = −t·(bond multiplicity)` for
    /// nearest neighbours and `K[i][i] = −μ̃` (the paper folds the chemical
    /// potential into K's diagonal).
    ///
    /// In-plane bonds use `t`, inter-layer bonds use `tz`.
    pub fn kinetic_matrix(&self, mu_tilde: f64) -> Matrix {
        let n = self.nsites();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            k[(i, i)] = -mu_tilde;
            let (_, yi, zi) = self.coords(i);
            for (j, mult) in self.neighbor_bonds(i) {
                let (_, yj, zj) = self.coords(j);
                let amp = if zi != zj {
                    self.tz
                } else if yi != yj {
                    self.ty
                } else {
                    self.t
                };
                k[(i, j)] = -amp * mult as f64;
            }
        }
        k
    }

    /// Computes the pair `(e^{−ΔτK}, e^{+ΔτK})`.
    ///
    /// For this separable geometry `K = Kz ⊕ Ky ⊕ Kx − μ̃ I`, so the
    /// exponential factorises exactly into a Kronecker product of 1D ring /
    /// chain exponentials times the scalar `e^{Δτμ̃}` — no dense eigensolve
    /// needed. Tested against [`linalg::sym_expm`].
    pub fn expk(&self, dtau: f64, mu_tilde: f64) -> (Matrix, Matrix) {
        let fwd = self.expk_one(-dtau, mu_tilde);
        let bwd = self.expk_one(dtau, mu_tilde);
        (fwd, bwd)
    }

    /// The pair `(e^{−ΔτK}, e^{+ΔτK})` as Kronecker factors, fastest axis
    /// first (`e^{sK} = ⋯ ⊗ factors[1] ⊗ factors[0]`): the 1D exponentials
    /// of the axes longer than one site, `e^{−sμ̃}` folded into the first.
    /// A lattice with one such axis has one factor, its dense [`Self::expk`].
    pub fn expk_factors(&self, dtau: f64, mu_tilde: f64) -> (Vec<Matrix>, Vec<Matrix>) {
        let factors = |s: f64| {
            let mut fs: Vec<Matrix> = self
                .axis_exps(s)
                .into_iter()
                .filter(|e| e.nrows() > 1)
                .collect();
            match fs.first_mut() {
                Some(first) => first.scale((-s * mu_tilde).exp()),
                None => fs.push(self.expk_one(s, mu_tilde)),
            }
            fs
        };
        (factors(-dtau), factors(dtau))
    }

    /// `e^{s·K}` for this lattice via the separable (Kronecker) construction.
    fn expk_one(&self, s: f64, mu_tilde: f64) -> Matrix {
        // K = −μ̃ I + (hopping); e^{sK} = e^{−sμ̃} · e^{s·hopping}.
        let [ex, ey, ez] = self.axis_exps(s);
        // Site index is x-fastest: full = Ez ⊗ Ey ⊗ Ex.
        let eyx = kron::kron(&ey, &ex);
        let mut full = kron::kron(&ez, &eyx);
        full.scale((-s * mu_tilde).exp());
        full
    }

    /// The hopping exponentials `e^{s·H}` of the x, y and z chains.
    fn axis_exps(&self, s: f64) -> [Matrix; 3] {
        [
            ring_exp(self.lx, self.t, s, true),
            ring_exp(self.ly, self.ty, s, true),
            ring_exp(self.lz, self.tz, s, self.periodic_z),
        ]
    }

    /// Wrapped displacement `(dx, dy)` from site `i` to site `j` within one
    /// layer image, each component folded into `0..L`; `dz = zj − zi`
    /// (unwrapped for open stacking).
    pub fn displacement(&self, i: usize, j: usize) -> (usize, usize, isize) {
        let (xi, yi, zi) = self.coords(i);
        let (xj, yj, zj) = self.coords(j);
        let dx = (xj + self.lx - xi) % self.lx;
        let dy = (yj + self.ly - yi) % self.ly;
        (dx, dy, zj as isize - zi as isize)
    }

    /// Signed minimal-image displacement for plotting `C_zz(r)`
    /// (components in `−L/2..L/2`).
    pub fn min_image(&self, dx: usize, dy: usize) -> (isize, isize) {
        let fold = |d: usize, l: usize| -> isize {
            let d = d as isize;
            let l = l as isize;
            if d > l / 2 {
                d - l
            } else {
                d
            }
        };
        (fold(dx, self.lx), fold(dy, self.ly))
    }

    /// All momentum points of one plane: `k = 2π(nx/Lx, ny/Ly)`.
    pub fn kpoints(&self) -> Vec<(f64, f64)> {
        use std::f64::consts::PI;
        let mut out = Vec::with_capacity(self.lx * self.ly);
        for ny in 0..self.ly {
            for nx in 0..self.lx {
                out.push((
                    2.0 * PI * nx as f64 / self.lx as f64,
                    2.0 * PI * ny as f64 / self.ly as f64,
                ));
            }
        }
        out
    }
}

/// `e^{s·H}` for a 1D chain/ring of length `l` with hopping amplitude `t`
/// (`H[i,i±1] = −t`, wrapped when `periodic`), from the analytic spectrum:
/// plane waves with `ε_k = −2t·cos(2πk/l)` on a ring, and on an open chain
/// the standing waves `φ_k(i) = √(2/(l+1))·sin(πik/(l+1))` with
/// `ε_k = −2t·cos(πk/(l+1))` (sites i and modes k counted from 1).
fn ring_exp(l: usize, t: f64, s: f64, periodic: bool) -> Matrix {
    use std::f64::consts::PI;
    if l == 1 {
        return Matrix::identity(1);
    }
    if periodic {
        // Analytic: (e^{sH})_{ij} = (1/l) Σ_k e^{ik(i−j)} e^{−2st·cos k}…
        // with ε_k = −2t cos(2πk/l); the imaginary parts cancel by symmetry.
        let eps: Vec<f64> = (0..l)
            .map(|k| -2.0 * t * (2.0 * PI * k as f64 / l as f64).cos())
            .collect();
        Matrix::from_fn(l, l, |i, j| {
            let d = (i as isize - j as isize) as f64;
            let mut sum = 0.0;
            for (k, &e) in eps.iter().enumerate() {
                let phase = 2.0 * PI * k as f64 * d / l as f64;
                sum += phase.cos() * (s * e).exp();
            }
            sum / l as f64
        })
    } else {
        // (e^{sH})_{ij} = Σ_k φ_k(i) φ_k(j) e^{s·ε_k}.
        let q = PI / (l + 1) as f64;
        let phi = Matrix::from_fn(l, l, |i, k| (q * ((i + 1) * (k + 1)) as f64).sin());
        let weight: Vec<f64> = (1..=l)
            .map(|k| {
                let eps = -2.0 * t * (q * k as f64).cos();
                2.0 / (l + 1) as f64 * (s * eps).exp()
            })
            .collect();
        Matrix::from_fn(l, l, |i, j| {
            let terms = weight.iter().enumerate();
            terms.map(|(k, w)| phi[(i, k)] * phi[(j, k)] * w).sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::sym_expm;

    #[test]
    fn indexing_round_trip() {
        let lat = Lattice::multilayer(4, 3, 2, 1.0, 0.5);
        for i in 0..lat.nsites() {
            let (x, y, z) = lat.coords(i);
            assert_eq!(lat.site(x, y, z), i);
        }
        assert_eq!(lat.nsites(), 24);
    }

    #[test]
    fn square_lattice_has_four_neighbors() {
        let lat = Lattice::square(4, 4, 1.0);
        for i in 0..16 {
            assert_eq!(lat.neighbors(i).len(), 4);
        }
        // neighbours of site (0,0): (1,0), (3,0), (0,1), (0,3)
        let n = lat.neighbors(0);
        assert!(n.contains(&lat.site(1, 0, 0)));
        assert!(n.contains(&lat.site(3, 0, 0)));
        assert!(n.contains(&lat.site(0, 1, 0)));
        assert!(n.contains(&lat.site(0, 3, 0)));
    }

    #[test]
    fn multilayer_neighbor_counts() {
        let lat = Lattice::multilayer(4, 4, 3, 1.0, 0.5);
        // middle layer: 4 in-plane + 2 vertical
        assert_eq!(lat.neighbors(lat.site(0, 0, 1)).len(), 6);
        // boundary layers: 4 + 1
        assert_eq!(lat.neighbors(lat.site(0, 0, 0)).len(), 5);
        assert_eq!(lat.neighbors(lat.site(0, 0, 2)).len(), 5);
    }

    #[test]
    fn sublattice_signs_flip_k_where_the_lattice_is_bipartite() {
        let bipartite = [
            Lattice::square(4, 4, 1.0),
            Lattice::square(2, 1, 1.0),
            Lattice::square(1, 1, 1.0),
            Lattice::anisotropic(6, 2, 1.0, 0.5),
            Lattice::multilayer(4, 2, 3, 1.0, 0.4),
            Lattice::multilayer_periodic(2, 4, 4, 1.0, 0.7),
        ];
        for lat in bipartite {
            let s = lat.sublattice_signs().expect("bipartite");
            assert_eq!(s[0], 1.0);
            // D·K·D = −K off the diagonal.
            let k = lat.kinetic_matrix(0.0);
            let n = lat.nsites();
            for i in 0..n {
                for j in (0..n).filter(|&j| j != i) {
                    assert_eq!(s[i] * s[j] * k[(i, j)], -k[(i, j)], "{lat:?} ({i}, {j})");
                }
            }
        }
        for odd in [
            Lattice::square(3, 3, 1.0),
            Lattice::square(4, 5, 1.0),
            Lattice::multilayer_periodic(2, 2, 3, 1.0, 0.5),
        ] {
            assert_eq!(odd.sublattice_signs(), None, "{odd:?}");
        }
    }

    #[test]
    fn kinetic_matrix_symmetric_with_correct_entries() {
        let lat = Lattice::multilayer(4, 4, 2, 1.0, 0.3);
        let k = lat.kinetic_matrix(0.25);
        assert!(linalg::eig::is_symmetric(&k, 1e-14));
        let i = lat.site(1, 1, 0);
        assert_eq!(k[(i, i)], -0.25);
        assert_eq!(k[(i, lat.site(2, 1, 0))], -1.0);
        assert_eq!(k[(i, lat.site(1, 1, 1))], -0.3);
        assert_eq!(k[(i, lat.site(3, 3, 1))], 0.0);
    }

    #[test]
    fn extent_two_ring_double_bond() {
        let lat = Lattice::square(2, 1, 1.0);
        let k = lat.kinetic_matrix(0.0);
        // Both hops reach the same site: matrix element −2t.
        assert_eq!(k[(0, 1)], -2.0);
        assert_eq!(k[(1, 0)], -2.0);
    }

    #[test]
    fn expk_matches_dense_eigensolve_square() {
        let lat = Lattice::square(4, 3, 1.0);
        let k = lat.kinetic_matrix(0.1);
        let (fwd, bwd) = lat.expk(0.125, 0.1);
        let dense_f = sym_expm(&k, -0.125).unwrap();
        let dense_b = sym_expm(&k, 0.125).unwrap();
        assert!(
            fwd.max_abs_diff(&dense_f) < 1e-12,
            "{}",
            fwd.max_abs_diff(&dense_f)
        );
        assert!(bwd.max_abs_diff(&dense_b) < 1e-12);
    }

    #[test]
    fn expk_matches_dense_eigensolve_multilayer() {
        let lat = Lattice::multilayer(3, 3, 3, 1.0, 0.4);
        let k = lat.kinetic_matrix(-0.2);
        let (fwd, _) = lat.expk(0.1, -0.2);
        let dense = sym_expm(&k, -0.1).unwrap();
        assert!(fwd.max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn expk_matches_dense_eigensolve_periodic_z() {
        let lat = Lattice::multilayer_periodic(3, 2, 4, 1.0, 0.7);
        let k = lat.kinetic_matrix(0.0);
        let (fwd, _) = lat.expk(0.2, 0.0);
        let dense = sym_expm(&k, -0.2).unwrap();
        assert!(fwd.max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn expk_forward_backward_inverse() {
        let lat = Lattice::square(4, 4, 1.0);
        let (fwd, bwd) = lat.expk(0.125, 0.3);
        let prod = linalg::blas3::matmul(&fwd, linalg::Op::NoTrans, &bwd, linalg::Op::NoTrans);
        assert!(prod.max_abs_diff(&Matrix::identity(16)) < 1e-12);
    }

    #[test]
    fn anisotropic_hopping_matrix_and_exponential() {
        let lat = Lattice::anisotropic(4, 3, 1.0, 0.5);
        let k = lat.kinetic_matrix(0.2);
        let i = lat.site(1, 1, 0);
        assert_eq!(k[(i, lat.site(2, 1, 0))], -1.0, "x bond uses tx");
        assert_eq!(k[(i, lat.site(1, 2, 0))], -0.5, "y bond uses ty");
        let (fwd, bwd) = lat.expk(0.125, 0.2);
        let dense = sym_expm(&k, -0.125).unwrap();
        assert!(fwd.max_abs_diff(&dense) < 1e-12);
        let prod = linalg::blas3::matmul(&fwd, linalg::Op::NoTrans, &bwd, linalg::Op::NoTrans);
        assert!(prod.max_abs_diff(&Matrix::identity(12)) < 1e-12);
        assert_eq!(lat.ty(), 0.5);
    }

    #[test]
    fn displacement_wraps() {
        let lat = Lattice::square(4, 4, 1.0);
        let i = lat.site(3, 3, 0);
        let j = lat.site(0, 0, 0);
        assert_eq!(lat.displacement(i, j), (1, 1, 0));
        assert_eq!(lat.displacement(j, i), (3, 3, 0));
    }

    #[test]
    fn min_image_folds() {
        let lat = Lattice::square(8, 8, 1.0);
        assert_eq!(lat.min_image(5, 3), (-3, 3));
        assert_eq!(lat.min_image(4, 4), (4, 4)); // exactly half keeps +L/2
        assert_eq!(lat.min_image(0, 7), (0, -1));
    }

    #[test]
    fn kpoints_grid() {
        let lat = Lattice::square(2, 2, 1.0);
        let ks = lat.kpoints();
        assert_eq!(ks.len(), 4);
        assert!((ks[0].0 - 0.0).abs() < 1e-15);
        assert!((ks[3].0 - std::f64::consts::PI).abs() < 1e-15);
        assert!((ks[3].1 - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn single_site_lattice() {
        let lat = Lattice::square(1, 1, 1.0);
        assert_eq!(lat.nsites(), 1);
        assert!(lat.neighbors(0).is_empty());
        let (fwd, _) = lat.expk(0.1, 0.5);
        assert!((fwd[(0, 0)] - (0.05f64).exp()).abs() < 1e-14);
    }
}
